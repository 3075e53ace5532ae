#!/usr/bin/env bash
# Build the benchmark (a standalone cargo package with path
# dependencies into ../crates) and run it. Arguments go to the binary:
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   benchmark/run.sh [--seed S] [--trace]     every workload
#   benchmark/run.sh --sets 2                 twice; out/agreement.json
#   benchmark/run.sh --smoke                  1/20 size, correctness only
#
# Build output goes to $CARGO_TARGET_DIR when the caller sets it, else
# to the repository's own target/ (which the root .gitignore covers),
# so `git status` stays clean either way.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"

case "${CARGO_TARGET_DIR:-}" in
    "") target="$repo/target" ;;
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# One malloc arena per thread. With glibc's default (8 per core) the
# ~70 pipeline threads of a monitor share 16 arenas at random, and
# whether the hot ones collide decides, for the life of the process,
# between two CPU-per-event figures 25-30 % apart (measured on
# drain_resolve: 2.0 vs 2.6 us; with 32+ arenas 2.1-2.3 every run).
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-128}"

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_REV="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_REV

exec "$target/release/fsmon-benchmark" --out "$here/out" "$@"
