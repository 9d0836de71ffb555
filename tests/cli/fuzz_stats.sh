#!/usr/bin/env bash
# Pins the stats footer of one fixed fuzz run: `cref_fuzz --iterations
# 720 --seed 1` must exit 0 and print exactly tests/cli/goldens/
# fuzz_stats.txt. The footer counts what every oracle saw (certificates
# validated, mutations rejected, proofs confirmed, ...), so a change
# that alters what an oracle checks shows up here as a diff.
#
# The fuzz generators draw through std:: distributions (SystemSampler's
# bernoulli and uniform_int), whose sequences the C++ standard leaves
# to the library: the golden holds for libstdc++, which both CI legs
# (g++ and clang++ on Linux) link, not for libc++.
#
#   fuzz_stats.sh CREF_FUZZ SOURCE_DIR           # compare
#   fuzz_stats.sh CREF_FUZZ SOURCE_DIR --record  # rewrite the golden
set -u

FUZZ="$1"
GOLD="$2/tests/cli/goldens/fuzz_stats.txt"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# A failing case writes its repro under the temporary directory.
"$FUZZ" --iterations 720 --seed 1 --repro-dir "$WORK/repros" > "$WORK/out" 2>&1
code=$?
if [ "$code" != 0 ]; then
  cat "$WORK/out" >&2
  echo "FAIL: cref_fuzz exited $code, expected 0" >&2
  exit 1
fi
if [ "${3:-}" = --record ]; then
  cp "$WORK/out" "$GOLD"
  echo "recorded: $GOLD"
elif ! diff -u "$GOLD" "$WORK/out" >&2; then
  echo "FAIL: cref_fuzz stats differ from $GOLD" >&2
  exit 1
else
  echo "ok: cref_fuzz --iterations 720 --seed 1"
fi
