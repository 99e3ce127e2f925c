//! `perf-snapshot` smoke-mode integration: the binary must run the cell
//! matrix, exit 0, and write well-formed JSON carrying the v1 schema
//! fields. `ci.sh` runs the same smoke invocation; this test is the
//! offline gate that the snapshot machinery itself stays healthy.

mod common;

use std::process::Command;

#[test]
fn smoke_snapshot_writes_valid_schema_json() {
    let out_path =
        std::env::temp_dir().join(format!("fgdram_bench_smoke_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perf-snapshot"))
        .args(["--smoke", "--jobs", "2", "--out"])
        .arg(&out_path)
        .output()
        .expect("perf-snapshot spawns");
    assert!(
        out.status.success(),
        "perf-snapshot --smoke failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&out_path).expect("snapshot file written");
    let _ = std::fs::remove_file(&out_path);

    common::Json::validate(&body).expect("snapshot must be well-formed JSON");
    for field in [
        "\"schema\": \"fgdram-perf-snapshot-v1\"",
        "\"smoke\": true",
        "\"warmup_ns\"",
        "\"window_ns\"",
        "\"repeat\"",
        "\"jobs\": 2",
        "\"host_parallelism\"",
        "\"git_commit\"",
        "\"benches\"",
        "\"simulated_ns\"",
        "\"wall_ms\"",
        "\"cycles_per_sec\"",
        "\"totals\"",
        "\"peak_rss_kb\"",
    ] {
        assert!(body.contains(field), "snapshot missing {field}:\n{body}");
    }
    // All four matrix cells, each with a positive simulated horizon.
    for cell in ["STREAM/QB-HBM", "STREAM/FGDRAM", "GUPS/QB-HBM", "GUPS/FGDRAM"] {
        assert!(body.contains(cell), "snapshot missing cell {cell}");
    }
}

/// The checked-in snapshots predate the removal of the engine-thread
/// knob and still carry its `"engine_threads"` provenance field;
/// `--compare` must keep reading them (unknown fields are ignored).
#[test]
fn compare_accepts_checked_in_snapshots_with_retired_fields() {
    for baseline in ["BENCH_2026-08-07.json", "BENCH_2026-08-07c.json"] {
        let path = format!("{}/{baseline}", env!("CARGO_MANIFEST_DIR"));
        let body = std::fs::read_to_string(&path).expect("checked-in snapshot exists");
        assert!(body.contains("\"engine_threads\""), "{baseline} no longer exercises this case");
        let out_path = std::env::temp_dir()
            .join(format!("fgdram_bench_compare_{}_{baseline}", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_perf-snapshot"))
            .args(["--smoke", "--compare", &path, "--out"])
            .arg(&out_path)
            .output()
            .expect("perf-snapshot spawns");
        let _ = std::fs::remove_file(&out_path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--compare {baseline} failed ({}): {stderr}", out.status);
        assert!(stderr.contains("aggregate"), "no comparison printed for {baseline}: {stderr}");
    }
}

#[test]
fn bad_flags_exit_with_usage_code() {
    // `--engine-threads` was removed with the engine's worker pool: it must
    // be rejected like any unknown flag, not silently ignored.
    for args in [&["--no-such-flag"][..], &["--smoke", "--engine-threads", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf-snapshot"))
            .args(args)
            .output()
            .expect("perf-snapshot spawns");
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2: {args:?}");
    }
}
