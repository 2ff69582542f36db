#!/bin/sh
# Run each test binary given (arguments ending in .exe; others are
# skipped) under 20 fresh random QCHECK_SEEDs and print every seed that
# fails, as a line a reader can paste: QCHECK_SEED=<seed> ./<binary>.
# Exits 1 if any run failed.
runs=20
failed=0
binaries=0
for exe in "$@"; do
  case "$exe" in *.exe) ;; *) continue ;; esac
  binaries=$((binaries + 1))
  i=0
  while [ "$i" -lt "$runs" ]; do
    seed=$(( $(od -An -N4 -tu4 /dev/urandom | tr -d ' ') % 1000000000 ))
    if ! QCHECK_SEED=$seed "./$exe" > /dev/null 2>&1; then
      echo "FAIL QCHECK_SEED=$seed ./$exe"
      failed=$((failed + 1))
    fi
    i=$((i + 1))
  done
done
echo "qcheck-soak: $binaries binaries x $runs seeds, $failed failing"
[ "$failed" -eq 0 ]
