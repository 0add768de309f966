#!/usr/bin/env sh
# Prints the shipped-line count: each .rs of crates/*/src and src, counted
# up to its first line-anchored #[cfg(test)]. Test-only modules kept in
# their own files (the reference kernels) count. Reported, never asserted:
# `scripts/tier1.sh` prints it last and CI adds it to the job summary.
set -eu

cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { stop = 0 }
    /^#\[cfg\(test\)\]/ { stop = 1 }
    !stop' {} + | wc -l | tr -d ' '
