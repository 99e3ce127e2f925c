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
# Includes the telemetry golden schema, fault resilience, the engine
# determinism golden (tests/golden/quick_suite.txt at --jobs {1,8}) and
# the daemon end-to-end tests, which drive the real fgdram-serve and
# fgdram-client binaries: CLI byte identity, kill -9 resume, budget exit
# 8, seeded chaos byte identity and SIGTERM drain.
cargo test -q --workspace

sdir="$(mktemp -d /tmp/fgdram_ci.XXXXXX)"
trap 'rm -rf "$sdir"' EXIT

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

echo "== smoke: telemetry over MAX_EPOCHS is a usage error, not an abort =="
set +e
timeout 60 target/release/fgdram_sim run STREAM --telemetry "$sdir/t.jsonl" \
    --epoch 1 --window 1000000000 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || { echo "expected over-limit telemetry exit 2, got $code"; exit 1; }

echo "== gate: EXPERIMENTS.md is what regen-experiments writes =="
# The checked-in file is the --quick output; only its last line (the
# wall time) may differ.
target/release/regen-experiments --quick --jobs 2 "$sdir/EXP.md" 2>/dev/null
diff <(sed '$d' EXPERIMENTS.md) <(sed '$d' "$sdir/EXP.md") ||
    { echo "EXPERIMENTS.md is stale: regen-experiments --quick --jobs 2 rewrites it"; exit 1; }

echo "== lint: clippy (workspace, including fgdram-faults) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: rustdoc (every library, warnings are errors) =="
# --lib: the fgdram-serve bin and the fgdram_serve lib would both write
# target/doc/fgdram_serve/index.html.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --lib

echo "ci.sh: all green"
