#!/usr/bin/env bash
# A request that cannot be loaded costs only its own answer: cref_serve
# answers every request of the batch in order, the broken one FAILS with
# a "service: " reason, and the run exits 1 once all are answered. The
# same holds for a file nested 10,000 parentheses deep, generated here:
# a parse error, not a stack overflow that kills the whole batch.
set -u

SERVE="$1"
BATCH="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fails=0

# serve BATCH — answers the batch into $out, its exit code into $code.
serve() {
  out="$("$SERVE" --batch "$1" --threads 1 2> /dev/null)"
  code=$?
}

# expect LINE PREFIX — answer line LINE must start with PREFIX.
expect() {
  local got
  got="$(printf '%s\n' "$out" | sed -n "$1p")"
  if [ "${got#"$2"}" = "$got" ]; then
    echo "FAIL: answer $1 is '$got', expected it to start with '$2'" >&2
    fails=$((fails + 1))
  else
    echo "ok: answer $1 starts with '$2'"
  fi
}

# answered — three answer lines, then exit 1.
answered() {
  local lines
  lines="$(printf '%s\n' "$out" | grep -c .)"
  if [ "$lines" != 3 ]; then
    echo "FAIL: $lines answer lines, expected 3" >&2
    fails=$((fails + 1))
  fi
  if [ "$code" != 1 ]; then
    echo "FAIL: exit code $code, expected 1" >&2
    fails=$((fails + 1))
  fi
}

serve "$BATCH"
expect 1 'stabilizing kstate3.gcl kstate3.gcl holds'
expect 2 'convergence broken.gcl ring3.gcl FAILS reason="service: gcl: line'
expect 3 'refinement-init ring3.gcl ring3.gcl holds'
answered

cp "$(dirname "$BATCH")/ring3.gcl" "$WORK/"
open="$(printf '%*s' 10000 '' | tr ' ' '(')"
close="$(printf '%*s' 10000 '' | tr ' ' ')')"
printf 'system deep {\n  var x : 0..1;\n  action t : %sx%s == 0 -> x := 1;\n}\n' \
  "$open" "$close" > "$WORK/deep.gcl"
printf '%s\n' 'everywhere ring3.gcl ring3.gcl' 'everywhere deep.gcl deep.gcl' \
  'convergence ring3.gcl ring3.gcl' > "$WORK/deep_batch.txt"
serve "$WORK/deep_batch.txt"
expect 1 'everywhere ring3.gcl ring3.gcl holds'
expect 2 'everywhere deep.gcl deep.gcl FAILS reason="service: gcl: line 3:270: expression nested deeper'
expect 3 'convergence ring3.gcl ring3.gcl holds'
answered

exit $((fails > 0))
