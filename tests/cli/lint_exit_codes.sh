#!/usr/bin/env bash
# Pins gcl_lint's exit-code policy as renderer-independent: for any
# (file, --werror) combination, --format=text, json and sarif must exit
# identically. Referenced from tools/gcl_lint.cpp — the verdict is
# computed once via should_fail() before the format switch, and this
# test keeps it that way. A --budget below 1 or not a number is a usage
# error (exit 2).
set -u

LINT="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# A lint-clean system, a warning-laden one, and one that does not parse.
cat > "$WORK/clean.gcl" <<'EOF'
system clean {
  var x : 0..2;
  action a @0 : x == 1 -> x := 0;
  action b @0 : x == 2 -> x := 1;
}
EOF
cat > "$WORK/warn.gcl" <<'EOF'
system warn {
  var x : 0..2;
  var unused : 0..1;
  action a @0 : x > 5 -> x := 0;
}
EOF
cat > "$WORK/broken.gcl" <<'EOF'
system broken {
  var x : 0..2
  action
EOF

fails=0

# check FILE EXPECTED [extra flags...] — every renderer must exit EXPECTED.
check() {
  local file="$1" expected="$2"
  shift 2
  local codes=()
  for fmt in text json sarif; do
    "$LINT" --format="$fmt" "$@" "$file" > /dev/null 2>&1
    codes+=("$?")
  done
  for i in 0 1 2; do
    if [ "${codes[$i]}" != "$expected" ]; then
      echo "FAIL: $file $* => text/json/sarif exited ${codes[*]}, expected $expected" >&2
      fails=$((fails + 1))
      return
    fi
  done
  echo "ok: $file $* => ${codes[*]}"
}

check "$WORK/clean.gcl" 0
check "$WORK/clean.gcl" 0 --werror
check "$WORK/warn.gcl" 0
check "$WORK/warn.gcl" 1 --werror
check "$WORK/broken.gcl" 1
check "$WORK/broken.gcl" 1 --werror
# A zero, negative or non-numeric budget is a usage error, whatever
# the file.
check "$WORK/clean.gcl" 2 --budget 0
check "$WORK/warn.gcl" 2 --prove --budget 0
check "$WORK/clean.gcl" 2 --budget -5
check "$WORK/clean.gcl" 2 --budget=many

exit $((fails > 0))
