#!/usr/bin/env bash
# A request that cannot be loaded costs only its own answer: cref_serve
# answers every request of the batch in order, the broken one FAILS with
# a "service: " reason, and the run exits 1 once all are answered.
set -u

SERVE="$1"
BATCH="$2"

out="$("$SERVE" --batch "$BATCH" --threads 1 2> /dev/null)"
code=$?
fails=0

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

expect 1 'stabilizing kstate3.gcl kstate3.gcl holds'
expect 2 'convergence broken.gcl ring3.gcl FAILS reason="service: gcl: line'
expect 3 'refinement-init ring3.gcl ring3.gcl holds'
lines="$(printf '%s\n' "$out" | grep -c .)"
if [ "$lines" != 3 ]; then
  echo "FAIL: $lines answer lines, expected 3" >&2
  fails=$((fails + 1))
fi
if [ "$code" != 1 ]; then
  echo "FAIL: exit code $code, expected 1" >&2
  fails=$((fails + 1))
fi

exit $((fails > 0))
