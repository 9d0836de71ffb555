#!/usr/bin/env bash
# Pins gcl_refine's exit codes as renderer-independent: for each command
# line, --format=text, json and sarif must exit identically — 0 proved,
# 1 refuted (its SARIF carries refine-refuted), 2 usage. A missing file
# is a usage error, and so is an unknown option: a misspelled --alpha
# must not prove the identity-alpha relation instead, and gcl_prove's
# deleted --refine flag must not prove termination of its last file.
set -u

REFINE="$1"
PROVE="$2"
EXAMPLES="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fails=0

# check EXPECTED TOOL ARGS... — every renderer must exit EXPECTED; the
# output of the last (sarif) run is left in $WORK/out.
check() {
  local expected="$1"
  shift
  local codes=()
  for fmt in text json sarif; do
    "$1" --format="$fmt" "${@:2}" > "$WORK/out" 2>&1
    codes+=("$?")
  done
  for i in 0 1 2; do
    if [ "${codes[$i]}" != "$expected" ]; then
      echo "FAIL: $* => text/json/sarif exited ${codes[*]}, expected $expected" >&2
      fails=$((fails + 1))
      return
    fi
  done
  echo "ok: $* => ${codes[*]}"
}

G="$EXAMPLES/gcl"
check 0 "$REFINE" "$G/kstate_n5.gcl" "$EXAMPLES/refine/work_ring_n5.gcl"
check 1 "$REFINE" "$G/dijkstra3_n3.gcl" "$G/naive_ring_n3.gcl"
if ! grep -q '"ruleId": "refine-refuted"' "$WORK/out"; then
  echo "FAIL: the refuted run's SARIF does not carry refine-refuted" >&2
  fails=$((fails + 1))
fi
check 2 "$REFINE" "$WORK/missing.gcl" "$G/naive_ring_n3.gcl"
check 2 "$REFINE" --alpah "$G/kstate_utr_n4.alpha" "$G/kstate_n5.gcl" \
  "$EXAMPLES/refine/work_ring_n5.gcl"
check 2 "$PROVE" --refine "$G/w2_any_utr.gcl" "$G/w2_utr.gcl"

exit $((fails > 0))
