#!/usr/bin/env sh
# Tier-1 gate: exactly what CI and the roadmap require, runnable offline.
# The workspace has no external dependencies, so no network is needed.
set -eu

cd "$(dirname "$0")/.."

echo "== tier 1: cargo build --release =="
cargo build --release --workspace

echo "== tier 1: cargo test -q =="
cargo test -q --workspace

# Clippy, rustfmt and rustdoc are skipped locally when the toolchain
# component is absent, and enforced in CI either way.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (deny warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping =="
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== rustfmt (check) =="
    cargo fmt --all --check
else
    echo "== rustfmt not installed; skipping =="
fi

if rustdoc --version >/dev/null 2>&1; then
    echo "== rustdoc (deny warnings) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
else
    echo "== rustdoc not installed; skipping =="
fi

echo "tier 1 OK"

# Shipped lines, reported and not asserted: each .rs of crates/*/src and
# src, counted up to its first line-anchored #[cfg(test)].
shipped=$(find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { stop = 0 }
    /^#\[cfg\(test\)\]/ { stop = 1 }
    !stop' {} + | wc -l)
echo "shipped lines: $shipped"
