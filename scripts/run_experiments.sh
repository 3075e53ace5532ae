#!/usr/bin/env bash
# Regenerate every paper table/figure (DESIGN.md §4) in sequence.
# Usage: scripts/run_experiments.sh [output-file]
# Exits non-zero, naming them, if any experiment binary failed.
set -u
OUT="${1:-/dev/stdout}"
cd "$(dirname "$0")/.."

BINARIES=(table2 table3 table4 table5 table6 scale4mds table7 table8 robinhood_compare table9 latency)

cargo build --release -q -p fsmon-bench --bins || exit 1

failed=()
for bin in "${BINARIES[@]}"; do
    echo "==> $bin" >> "$OUT"
    cargo run -q --release -p fsmon-bench --bin "$bin" >> "$OUT" 2>&1 || failed+=("$bin")
    echo >> "$OUT"
done
if [ "${#failed[@]}" -gt 0 ]; then
    summary="${#failed[@]} of ${#BINARIES[@]} experiments failed: ${failed[*]}"
    echo "$summary" >> "$OUT"
    [ "$OUT" = /dev/stdout ] || echo "$summary" >&2
    exit 1
fi
echo "all experiments complete" >> "$OUT"
