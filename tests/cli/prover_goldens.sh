#!/usr/bin/env bash
# Pins the bytes the static provers and the linter print: every run
# below must exit as expected and print, under --format=text and
# --format=json, exactly the golden file in tests/cli/goldens/. The
# timing on the first text line ("proved in 1.23 ms") is masked to
# "in N ms"; everything else is compared byte for byte.
#
#   prover_goldens.sh BIN_DIR SOURCE_DIR           # compare
#   prover_goldens.sh BIN_DIR SOURCE_DIR --record  # rewrite the goldens
#
# BIN_DIR holds gcl_prove, gcl_refine and gcl_lint. Paths are passed
# relative to SOURCE_DIR, so the goldens do not depend on the checkout.
set -u
export LC_ALL=C  # fixed glob order

BIN="$1"
cd "$2" || exit 2
RECORD=""
[ "${3:-}" = --record ] && RECORD=1
GOLD=tests/cli/goldens
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fails=0

# golden NAME EXPECTED_EXIT TOOL ARGS... — runs TOOL ARGS under both
# renderers and compares exit code and output with $GOLD/NAME.{txt,json}.
golden() {
  local name="$1" expected="$2" tool="$3"
  shift 3
  local fmt ext code
  for fmt in text json; do
    ext=txt
    [ "$fmt" = json ] && ext=json
    "$BIN/$tool" --format="$fmt" "$@" > "$WORK/raw" 2> /dev/null
    code=$?
    sed -E '1s/ in [0-9]+(\.[0-9]+)? ms / in N ms /' "$WORK/raw" > "$WORK/out"
    if [ "$code" != "$expected" ]; then
      echo "FAIL: $name ($fmt) exited $code, expected $expected" >&2
      fails=$((fails + 1))
      continue
    fi
    if [ -n "$RECORD" ]; then
      cp "$WORK/out" "$GOLD/$name.$ext"
      echo "recorded: $GOLD/$name.$ext"
    elif ! diff -u "$GOLD/$name.$ext" "$WORK/out" >&2; then
      echo "FAIL: $name ($fmt) differs from $GOLD/$name.$ext" >&2
      fails=$((fails + 1))
    else
      echo "ok: $name ($fmt)"
    fi
  done
}

G=examples/gcl
F=tests/prover/gcl

# gcl_prove: the four positive goldens, the beyond-budget chain (mode-B
# symbolic validation) and the two honest failures.
golden prove_copy_chain 0 gcl_prove $G/copy_chain_n4.gcl \
  --target 'x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3'
golden prove_dijkstra_kstate 0 gcl_prove --enabled-one $G/dijkstra_kstate_n4.gcl
golden prove_w1_utr 0 gcl_prove $G/w1_utr.gcl
golden prove_w2_utr 0 gcl_prove $G/w2_utr.gcl
golden prove_chain_k8_n6 0 gcl_prove --budget 512 tests/cli/chain_k8_n6.gcl \
  --target 'x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3 && x5 == x4 && x6 == x5'
golden prove_utr_enabled_one 1 gcl_prove --enabled-one $G/utr_n3.gcl
golden prove_utr_terminates 1 gcl_prove --terminates $G/utr_n3.gcl

# gcl_refine: the three acceptance instances, the refuted pair, the
# mode-B fixture (enumerated rows validated above the budget) and the
# BFS-cap fixture (a 201-step abstract path under a 128-valuation budget).
golden refine_kstate_utr 0 gcl_refine --alpha $G/kstate_utr_n4.alpha \
  $G/utr_n4.gcl $G/dijkstra_kstate_n4.gcl
golden refine_work_ring 0 gcl_refine $G/kstate_n5.gcl examples/refine/work_ring_n5.gcl
golden refine_w2 0 gcl_refine $G/w2_any_utr.gcl $G/w2_utr.gcl
golden refine_refuted 1 gcl_refine $G/dijkstra3_n3.gcl $G/naive_ring_n3.gcl
golden refine_jump_chain 0 gcl_refine --budget 128 --alpha $F/jump_proj.alpha \
  $F/fall_chain.gcl $F/jump_chain.gcl
golden refine_bfs_cap 0 gcl_refine --budget 128 --alpha $F/shortcut_proj.alpha \
  $F/longway.gcl $F/shortcut.gcl

# gcl_lint with the abstract-interpretation rules and read/write sets
# over every shipped protocol (its witnesses print formatted valuations).
golden lint_absint_sets 0 gcl_lint --absint --sets $G/*.gcl examples/refine/*.gcl

exit $((fails > 0))
