#!/usr/bin/env bash
# The full gate: build, test, formatting, lints. Run before merging.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> stress under CPU contention (automation 100 runs, chaos 20 runs, TCP tests 50 runs, consumer conformance 20 runs)"
# Tier-1 must be green every run, not most runs. Two spinner processes
# take the cores away from the pipeline's threads at arbitrary points,
# which is what turned the resolver-pool race into a 1-in-4 failure of
# coalesced_stream_leaves_catalog_in_same_state. The chaos binary rides
# along because its restart assertions depend on work-driven fault
# rolls: an injected collector crash is rolled per productive step, so
# whether a seeded plan reaches its first hit must not depend on how the
# scheduler sliced the records into steps. The TCP tests ride along
# because a TCP subscription is acknowledged, not waited out: they have
# no settling sleep left for a loaded host to outlast, and must not
# need one. The consumer conformance table rides along because every
# consumer shape, K=1 included, now waits on one arrival signal. A
# single failure of any binary fails the gate.
test_bin() { # package executable-stem cargo-target-args...
    local pkg="$1" stem="$2"
    shift 2
    cargo test -q -p "$pkg" "$@" --no-run --message-format=json 2>/dev/null |
        sed -n 's/.*"executable":"\([^"]*\/'"$stem"'-[^"]*\)".*/\1/p' | tail -1
}
automation_bin="$(test_bin fsmon-integration automation --test automation)"
chaos_bin="$(test_bin fsmon-integration chaos --test chaos)"
end_to_end_bin="$(test_bin fsmon-integration end_to_end --test end_to_end)"
tcp_start_bin="$(test_bin fsmon-integration tcp_start --test tcp_start)"
mq_bin="$(test_bin fsmon-mq fsmon_mq --lib)"
lustre_bin="$(test_bin fsmon-lustre fsmon_lustre --lib)"
for bin in "$automation_bin" "$chaos_bin" "$end_to_end_bin" "$tcp_start_bin" "$mq_bin" "$lustre_bin"; do
    test -x "$bin"
done
spinners=()
for _ in 1 2; do
    (while :; do :; done) &
    spinners+=("$!")
done
trap 'kill "${spinners[@]}" 2>/dev/null || true' EXIT
stress() { # name binary runs [test-filter]
    for run in $(seq 1 "$3"); do
        if ! "$2" -q "${@:4}" >"target/$1.stress.log" 2>&1; then
            echo "FAIL: $1 run ${run}/$3 failed under contention:"
            cat "target/$1.stress.log"
            exit 1
        fi
    done
    echo "    $1 $3/$3 green"
}
stress automation "$automation_bin" 100
stress chaos "$chaos_bin" 20
stress mq-tcp "$mq_bin" 50 tcp
stress lustre-tcp "$lustre_bin" 50 tcp_transport_end_to_end
stress end-to-end-tcp "$end_to_end_bin" 50 tcp_deployment_shape_works_end_to_end
stress tcp-start "$tcp_start_bin" 50
stress consumer-conformance "$lustre_bin" 20 every_consumer_shape_delivers_the_store_replay_exactly_once
kill "${spinners[@]}" 2>/dev/null || true
trap - EXIT

echo "==> benchmark smoke (every workload at 1/20 size, correctness only)"
# benchmark/ is the repository's one benchmark (BENCHMARK.json); the
# smoke run checks that every workload still drains completely and
# correctly through the current code. It claims no timing.
benchmark/run.sh --smoke >/dev/null

echo "==> benchmark seam unchanged and buildable"
# BENCHMARK.json and benchmark/ are the instrument, not the code under
# test: a change must leave them as committed, and benchmark/src/run.rs
# must still compile against the workspace with the committed lock file.
# run.sh builds without --locked, so a rewritten benchmark/Cargo.lock or
# a broken import would otherwise pass unnoticed.
if ! git diff --exit-code --stat -- BENCHMARK.json benchmark/; then
    echo "FAIL: benchmark seam: BENCHMARK.json or benchmark/ differs from the commit"
    exit 1
fi
if ! cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml; then
    echo "FAIL: benchmark seam: benchmark/ does not build against this workspace with its Cargo.lock"
    exit 1
fi

echo "==> docs and scripts name only binaries that exist"
# Every `--bin <name>` / `--bench <name>` the documents or the
# experiment script mention must be a crates/*/src/bin/<name>.rs or a
# declared [[bin]]/[[bench]] target, so a deleted binary cannot live
# on in a command someone will paste.
declared="$(awk '/^\[\[(bin|bench)\]\]/ { t = 1; next } /^\[/ { t = 0 }
    t && $1 == "name" { gsub(/"/, "", $3); print $3 }' \
    crates/*/Cargo.toml examples/Cargo.toml tests/Cargo.toml)"
stale=0
while IFS=: read -r file mention; do
    name="${mention##* }"
    if ! compgen -G "crates/*/src/bin/${name}.rs" >/dev/null &&
        ! grep -qxF "$name" <<<"$declared"; then
        echo "FAIL: ${file} mentions '${mention}', which is not a target of this workspace"
        stale=1
    fi
done < <(grep -oHE -- '--(bin|bench) +[A-Za-z0-9_-]+' README.md DESIGN.md EXPERIMENTS.md \
    .claude/skills/verify/SKILL.md scripts/run_experiments.sh | sort -u)
[ "$stale" -eq 0 ]

echo "==> health observer smoke (/metrics + /health over a live demo)"
# A short demo run with the HTTP observer on: /health must answer with
# a parseable report that says OK (exit 0 from `fsmon health`), and
# /metrics must return 200 with a body our own Prometheus parser
# accepts (`fsmon stats --from` exits nonzero on unparseable input).
# Plain bash /dev/tcp keeps the fetch dependency-free.
HEALTH_PORT=19790
target/release/fsmon demo-lustre --mds 2 --seconds 6 \
    --http "127.0.0.1:${HEALTH_PORT}" --slo 'loss=0' >/dev/null 2>&1 &
DEMO_PID=$!
health_ok=1
for _ in $(seq 1 40); do
    if target/release/fsmon health "127.0.0.1:${HEALTH_PORT}" >/dev/null 2>&1; then
        health_ok=0
        break
    fi
    sleep 0.25
done
if [ "$health_ok" -ne 0 ]; then
    echo "FAIL: /health never answered OK on port ${HEALTH_PORT}"
    kill "$DEMO_PID" 2>/dev/null || true
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/${HEALTH_PORT}"
printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
metrics_response="$(cat <&3)"
exec 3<&- 3>&-
if ! printf '%s' "$metrics_response" | head -1 | grep -q " 200 "; then
    echo "FAIL: /metrics did not return 200"
    kill "$DEMO_PID" 2>/dev/null || true
    exit 1
fi
printf '%s' "$metrics_response" | sed '1,/^\r*$/d' > target/metrics.smoke.prom
test -s target/metrics.smoke.prom
target/release/fsmon stats --from target/metrics.smoke.prom >/dev/null
wait "$DEMO_PID"
echo "    /metrics parsed, /health OK"

echo "==> index catch-up/consistency smoke"
# The live pipeline folded through the index must equal a linear
# replay fold and resume from its snapshot cursor; the chaos harness
# separately proves the same equality across supervised crashes.
cargo test -q -p fsmon-integration --test index_consistency

echo "CI green."
