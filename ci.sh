#!/usr/bin/env bash
# Offline CI gate: the workspace must build, test, and lint with no
# registry access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: rustfmt =="
cargo fmt --all --check

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: test (every workspace crate) =="
cargo test -q --workspace

echo "== tier-1: telemetry golden schema =="
cargo test -q --test telemetry

echo "== tier-1: fault injection + resilience =="
cargo test -q --test faults

echo "== tier-1: engine determinism golden (quick scale) =="
# Byte-identical SimReport lines against tests/golden/quick_suite.txt at
# --jobs {1,8}; any engine change that shifts wake times fails here
# before it can silently move EXPERIMENTS.md numbers.
cargo test -q --test golden_identity

sdir="$(mktemp -d /tmp/fgdram_ci_serve.XXXXXX)"
trap 'rm -rf "$sdir"; [ -n "${serve_pid:-}" ] && kill -9 "$serve_pid" 2>/dev/null; true' EXIT

echo "== gate: the frozen repo benchmark builds against this tree and agrees with it =="
# Right after tier-1, because this is what the pipeline runs after the PR.
# benchmark/ is a package of its own (tier-1 never builds it) with a
# checked-in lock file: --locked fails on a new workspace crate or
# dependency edge that would force that frozen Cargo.lock to be rewritten
# (benchmark/run.sh itself does not pass --locked). Its src/shadow.rs
# re-wires System::step over the public layer APIs: it calls
# Controller::{try_enqueue, tick} and EventWheel::{push, pop_due,
# next_time} directly. A change that stops it compiling, fails one of its
# output checks (`failed` > 0 -> non-zero exit) or makes its shadow diverge
# from System (trace.counter_mismatch) must fail here. Speed is not judged
# here: `benchmark/run.sh compare` refuses --smoke results by design, and
# a claim needs the pipeline's interleaved parent/change runs.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh run --smoke --out "$sdir/bench_smoke.json" > /dev/null
benchmark/run.sh run --smoke --trace 1 --out "$sdir/bench_trace.json" > /dev/null
agree="$(grep -A2 '"trace.counter_mismatch"' "$sdir/bench_trace.json" | grep -c '"values": \[0\]' || true)"
[ "$agree" -eq 5 ] || { echo "trace.counter_mismatch is 0 on $agree of 5 workloads"; exit 1; }
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== smoke: the removed --engine-threads flag is a usage error (exit 2) =="
code=0; target/release/fgdram_sim run STREAM --engine-threads 2 >/dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "expected usage exit 2 for --engine-threads, got $code"; exit 1; }

echo "== smoke: fault storm terminates typed, no panic, no hang =="
# Survivable storm window: must complete cleanly with fault counters.
timeout 120 target/release/fgdram_sim run STREAM --faults storm \
    --fault-seed 7 --warmup 1000 --window 20000 | grep -q "faults:"
# Exclusion cap exceeded: must abort with the fault-storm exit code (7).
set +e
timeout 120 target/release/fgdram_sim run STREAM --faults storm --fault-seed 7 \
    >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 7 ] || { echo "expected fault-storm exit 7, got $code"; exit 1; }
# Wedged controller: the watchdog must turn the hang into exit code 5.
set +e
timeout 120 target/release/fgdram_sim run STREAM \
    --faults wedge=2000,watchdog=5000 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 5 ] || { echo "expected watchdog-stall exit 5, got $code"; exit 1; }

echo "== smoke: serve daemon (byte-identity, admission, kill/resume) =="
cargo test -q --test serve
spec=(--suite compute --warmup 2000 --window 6000 --max-workloads 3)
target/release/fgdram_sim suite compute --warmup 2000 --window 6000 \
    --max-workloads 3 --jobs 2 > "$sdir/golden.txt"

start_daemon() {  # extra daemon flags as args; sets serve_pid + serve_addr
    : > "$sdir/banner.txt"
    target/release/fgdram-serve --port 0 --spool "$sdir/spool" "$@" \
        > "$sdir/banner.txt" 2>> "$sdir/serve.log" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        serve_addr="$(sed -n 's/^fgdram-serve: listening on //p' "$sdir/banner.txt")"
        [ -n "$serve_addr" ] && return 0
        sleep 0.1
    done
    echo "fgdram-serve did not print its listen banner"; exit 1
}

# A served job must print the exact CLI suite bytes.
start_daemon
target/release/fgdram-client submit --addr "$serve_addr" "${spec[@]}" \
    2>/dev/null > "$sdir/served.txt"
diff "$sdir/golden.txt" "$sdir/served.txt"

# kill -9 mid-job, restart on the same spool: the report must still be the
# CLI bytes and the checkpointed cells must resume, not recompute.
job="$(target/release/fgdram-client submit --addr "$serve_addr" "${spec[@]}" \
    --no-wait 2>/dev/null)"
for _ in $(seq 1 200); do
    if grep -q '^end ' "$sdir/spool/$job.ckpt" 2>/dev/null; then break; fi
    sleep 0.05
done
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
start_daemon
target/release/fgdram-client report "$job" --addr "$serve_addr" > "$sdir/resumed.txt"
diff "$sdir/golden.txt" "$sdir/resumed.txt"
target/release/fgdram-client stats --addr "$serve_addr" | grep -q '"resumed":[1-9]'
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

# Admission control: an over-budget job is the typed client exit 8.
start_daemon --max-job-cost 10000
set +e
target/release/fgdram-client submit --addr "$serve_addr" "${spec[@]}" >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 8 ] || { echo "expected budget-reject exit 8, got $code"; exit 1; }
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=

echo "== smoke: seeded chaos run is byte-identical, faults visible in /stats =="
# Wire chaos (torn requests, resets, mid-response disconnects) plus disk
# chaos on the spool: a retrying client must still get the exact CLI
# bytes, and /stats must show the faults actually fired.
rm -rf "$sdir/spool"
start_daemon --chaos torn=0.3,reset=0.3,disconnect=0.2,ckpt-corrupt=0.3,ckpt-short=0.2 \
    --chaos-seed 42 --read-timeout-ms 2000
target/release/fgdram-client submit --addr "$serve_addr" "${spec[@]}" \
    --retries 16 --retry-base-ms 10 2> "$sdir/chaos_client.log" > "$sdir/chaos.txt"
diff "$sdir/golden.txt" "$sdir/chaos.txt"
target/release/fgdram-client stats --addr "$serve_addr" --retries 16 --retry-base-ms 10 \
    > "$sdir/chaos_stats.json"
grep -q '"chaos":' "$sdir/chaos_stats.json"
grep -Eq '"(torn|reset|disconnect)":[1-9]' "$sdir/chaos_stats.json"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

echo "== smoke: SIGTERM drains gracefully (exit 0, job completes on restart) =="
rm -rf "$sdir/spool"
start_daemon --workers 1
job="$(target/release/fgdram-client submit --addr "$serve_addr" "${spec[@]}" \
    --no-wait 2>/dev/null)"
for _ in $(seq 1 200); do
    [ -f "$sdir/spool/$job.ckpt" ] && break
    sleep 0.05
done
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
code=$?
set -e
[ "$code" -eq 0 ] || { echo "expected graceful drain exit 0, got $code"; exit 1; }
start_daemon --workers 1
target/release/fgdram-client report "$job" --addr "$serve_addr" > "$sdir/drained.txt"
diff "$sdir/golden.txt" "$sdir/drained.txt"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=

echo "== lint: clippy (workspace, including fgdram-faults) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all green"
