//! End-to-end telemetry tests: golden JSONL schema over a real STREAM
//! simulation, epoch-boundary edge cases, bit-identical output across
//! repeated runs and `--jobs` levels of the suite executor, and the CSV
//! file `fgdram_sim` writes for several series.

use fgdram::core::experiments::{self, Parallelism, Scale};
use fgdram::core::SystemBuilder;
use fgdram::model::config::DramKind;
use fgdram::model::json;
use fgdram::telemetry::{export, Telemetry, TelemetryConfig};
use fgdram::workloads::suites;
use std::process::Command;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

const WARMUP: u64 = 1_000;
const WINDOW: u64 = 5_000;
const EPOCH: u64 = 1_000;

fn stream_telemetry(window: u64, epoch: u64) -> Telemetry {
    let (_, t) = SystemBuilder::new(DramKind::Fgdram)
        .workload(suites::by_name("STREAM").expect("in suite"))
        .telemetry(TelemetryConfig::for_window(epoch, window))
        .run_instrumented(WARMUP, window)
        .expect("simulation runs");
    t.expect("telemetry enabled")
}

// ---------------------------------------------------------------------
// Golden schema: the JSONL stream from a real run carries every field
// class the ISSUE names — controller quantiles/rates, per-bank DRAM
// heatmap, tFAW headroom, GPU occupancy/MLP, L2 hit rate, and the
// per-epoch pJ/bit energy decomposition — and each line is valid JSON.
// ---------------------------------------------------------------------

#[test]
fn stream_jsonl_matches_golden_schema() {
    let t = stream_telemetry(WINDOW, EPOCH);
    let s = export::to_jsonl_string(&[("workload", "STREAM"), ("arch", "FGDRAM")], &t);
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), (WINDOW / EPOCH) as usize, "one JSONL record per epoch");

    for (i, line) in lines.iter().enumerate() {
        json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid JSON: {e}\n{line}"));
        // Self-describing meta prefix and epoch framing, in fixed order.
        let prefix = format!("{{\"workload\":\"STREAM\",\"arch\":\"FGDRAM\",\"epoch\":{i},");
        assert!(line.starts_with(&prefix), "line {i} prefix: {line:.120}");
        for field in [
            // controller
            "\"ctrl\":{",
            "\"queue_depth\":{\"count\":",
            "\"row_hit_rate\":",
            "\"rejected\":",
            "\"refreshes\":",
            "\"avg_read_latency_ns\":",
            // DRAM device
            "\"dram\":{",
            "\"act_per_bank\":[",
            "\"act_per_channel\":[",
            "\"busy_frac\":",
            "\"faw_headroom_avg\":",
            // GPU + L2
            "\"gpu\":{",
            "\"active_warps\":",
            "\"mlp\":",
            "\"l2\":{",
            "\"hit_rate\":",
            // energy
            "\"energy\":{",
            "\"act_pj\":",
            "\"move_pj\":",
            "\"io_pj\":",
            "\"pj_per_bit\":",
        ] {
            assert!(line.contains(field), "line {i} missing {field}");
        }
    }
}

#[test]
fn stream_jsonl_is_byte_identical_across_runs() {
    let meta = [("workload", "STREAM"), ("arch", "FGDRAM")];
    let a = export::to_jsonl_string(&meta, &stream_telemetry(WINDOW, EPOCH));
    let b = export::to_jsonl_string(&meta, &stream_telemetry(WINDOW, EPOCH));
    assert!(!a.is_empty());
    assert_eq!(a, b, "telemetry must be reproducible byte-for-byte");
}

// ---------------------------------------------------------------------
// Epoch-boundary edge cases
// ---------------------------------------------------------------------

#[test]
fn window_not_a_multiple_of_epoch_flushes_partial_tail() {
    let t = stream_telemetry(2_500, 1_000);
    assert_eq!(t.records.len(), 3, "two full epochs plus the partial tail");
    let start = t.records[0].start_ns;
    for (i, r) in t.records.iter().enumerate() {
        assert_eq!(r.index, i as u64);
        assert_eq!(r.start_ns, start + 1_000 * i as u64, "contiguous epochs");
    }
    assert_eq!(t.records[1].end_ns - t.records[1].start_ns, 1_000);
    let tail = &t.records[2];
    assert_eq!(tail.end_ns - tail.start_ns, 500, "tail covers the remainder only");
    assert_eq!(tail.end_ns, start + 2_500, "series covers exactly the window");
}

#[test]
fn zero_length_window_yields_no_epochs() {
    let t = stream_telemetry(0, 1_000);
    assert!(t.records.is_empty(), "no time elapsed, no epochs");
    assert_eq!(export::to_jsonl_string(&[], &t), "");
}

// ---------------------------------------------------------------------
// Suite determinism: serialising instrumented cells from the sharded
// executor's input-order result table is byte-identical at any job count.
// ---------------------------------------------------------------------

#[test]
fn suite_telemetry_is_identical_across_job_counts() {
    let workloads =
        [suites::by_name("STREAM").expect("in suite"), suites::by_name("GUPS").expect("in suite")];
    let kinds = [DramKind::QbHbm, DramKind::Fgdram];
    let run_at = |jobs: usize| -> String {
        let scale = Scale {
            warmup: 500,
            window: 2_000,
            max_workloads: None,
            parallelism: Parallelism::jobs(jobs),
        };
        let cells = experiments::run_cells(&workloads, &kinds, scale, |w, k| {
            SystemBuilder::new(k)
                .workload(w.clone())
                .telemetry(TelemetryConfig::for_window(500, scale.window))
                .run_instrumented(scale.warmup, scale.window)
        })
        .expect("suite runs");
        let mut out = String::new();
        for (i, (_, t)) in cells.iter().enumerate() {
            let w = &workloads[i / kinds.len()];
            let k = kinds[i % kinds.len()];
            let t = t.as_ref().expect("telemetry enabled");
            out.push_str(&export::to_jsonl_string(
                &[("workload", &w.name), ("arch", k.label())],
                t,
            ));
        }
        out
    };
    let serial = run_at(1);
    let parallel = run_at(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "--jobs must not change telemetry output");
}

// ---------------------------------------------------------------------
// The CLI's multi-series CSV: `compare` appends all four architectures'
// series to one file under exactly one header.
// ---------------------------------------------------------------------

#[test]
fn compare_csv_has_one_header_and_rows_for_every_kind() {
    let dir = std::env::temp_dir().join(format!("fgdram_telemetry_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("t.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_fgdram_sim"))
        .args(["compare", "STREAM", "--warmup", "500", "--window", "2000", "--telemetry"])
        .arg(&path)
        .output()
        .expect("run fgdram_sim compare");
    assert!(out.status.success(), "compare failed: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(&path).expect("telemetry CSV written");
    let _ = std::fs::remove_dir_all(&dir);
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("workload,arch,epoch,start_ns,end_ns,"), "{}", lines[0]);
    assert_eq!(lines.iter().filter(|l| l.starts_with("workload,")).count(), 1, "{csv}");
    for kind in DramKind::ALL {
        let prefix = format!("STREAM,{},", kind.label());
        let rows = lines.iter().filter(|l| l.starts_with(&prefix)).count();
        assert_eq!(rows, 2, "two 1000 ns epochs for {}", kind.label());
    }
    assert_eq!(lines.len(), 1 + 2 * DramKind::ALL.len());
}

// ---------------------------------------------------------------------
// One epoch is the report: a single epoch spanning the whole window reads
// the same derived numbers as the end-of-run `SimReport`, to the bit,
// because both come from the same functions.
// ---------------------------------------------------------------------

#[test]
fn one_epoch_equals_the_report() {
    const WINDOW: u64 = 10_000;
    for name in ["GUPS", "STREAM", "MCB"] {
        for kind in DramKind::ALL {
            let (r, t) = SystemBuilder::new(kind)
                .workload(suites::by_name(name).expect("in suite"))
                .telemetry(TelemetryConfig::for_window(WINDOW, WINDOW))
                .run_instrumented(2_000, WINDOW)
                .expect("simulation runs");
            let jsonl = export::to_jsonl_string(&[], &t.expect("telemetry enabled"));
            let lines: Vec<&str> = jsonl.lines().collect();
            assert_eq!(lines.len(), 1, "{name}/{}: one epoch", kind.label());
            let epoch = json::parse(lines[0]).expect("valid JSON");
            let num = |path: &[&str]| -> f64 {
                let v = path.iter().fold(&epoch, |v, k| v.get(k).expect("field present"));
                match v {
                    json::Value::Number(n) => *n,
                    other => panic!("{path:?} is not a number: {other:?}"),
                }
            };
            let cell = format!("{name}/{}", kind.label());
            assert_eq!(num(&["ctrl", "row_hit_rate"]), r.row_hit_rate, "{cell}");
            assert_eq!(num(&["l2", "hit_rate"]), r.l2_hit_rate, "{cell}");
            assert_eq!(num(&["dram", "bw_gbps"]), r.bandwidth.value(), "{cell}");
            assert_eq!(num(&["ctrl", "avg_read_latency_ns"]), r.avg_read_latency_ns, "{cell}");
            assert_eq!(
                num(&["ctrl", "read_latency", "p95"]),
                r.p95_read_latency_ns as f64,
                "{cell}"
            );
            assert_eq!(num(&["energy", "pj_per_bit"]), r.energy_per_bit.total().value(), "{cell}");
        }
    }
}
