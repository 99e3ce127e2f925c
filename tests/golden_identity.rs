//! Byte-identity gate for the engine rewrite: the full quick-scale suite,
//! telemetry JSONL, and fault output must match the committed golden
//! exactly, at `--jobs` 1 and 8 alike.
//!
//! Provenance: the engine rebuild (event wheel, scheduler hit caches,
//! batched issue, refresh drain) was verified byte-identical to the
//! pre-rewrite engine against a golden captured from it. The committed
//! golden was then regenerated once, after the busy-wait fence fix —
//! the one *intentional* behaviour change, which alters channel wake
//! times and is observable through the GPU issue batcher (see
//! DESIGN.md "Engine"). It was regenerated a second time for the
//! refresh-stagger clamp (PR 10): the wheel-drain/slice-shift perf fixes
//! were first verified byte-identical against the previous golden, then
//! the phase formula's `% t_refi` clamp landed as that PR's one
//! intentional change (only the last channel's refresh phase moves,
//! t_refi -> 0). A third regeneration moved only the telemetry
//! `pj_per_bit` values, in the last digit: the epoch's total pJ/b became
//! the report's `EnergyPerBit::total` (the sum of the per-component
//! quotients) instead of a quotient of the summed picojoules.
//!
//! `Debug` formatting round-trips every `f64` exactly, so equal strings
//! mean equal bits. Regenerate the golden (only when an *intentional*
//! behaviour change lands) with:
//!
//! ```sh
//! FGDRAM_UPDATE_GOLDEN=1 cargo test --test golden_identity
//! ```

use fgdram::core::experiments::{self, Scale};
use fgdram::core::SystemBuilder;
use fgdram::faults::FaultSpec;
use fgdram::model::config::DramKind;
use fgdram::telemetry::{export, TelemetryConfig};
use fgdram::workloads::suites;

const GOLDEN_PATH: &str = "tests/golden/quick_suite.txt";

/// The quick-scale compute matrix (the `Scale::quick` cells
/// `regen-experiments --quick` runs), rendered via `Debug`. `Scale::quick`
/// is the one definition of the quick set.
fn matrix_snapshot(jobs: usize) -> String {
    let scale = Scale::quick().with_jobs(jobs);
    let rows = experiments::compute_matrix(&DramKind::ALL, scale).expect("quick matrix");
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

/// One instrumented STREAM run on FGDRAM: epoch telemetry as JSONL.
fn telemetry_snapshot() -> String {
    let (report, t) = SystemBuilder::new(DramKind::Fgdram)
        .workload(suites::by_name("STREAM").expect("in suite"))
        .telemetry(TelemetryConfig::for_window(1_000, 5_000))
        .run_instrumented(1_000, 5_000)
        .expect("instrumented run");
    let jsonl = export::to_jsonl_string(&[("arch", "FGDRAM")], &t.expect("telemetry enabled"));
    format!("{report:?}\n{jsonl}")
}

/// One faulted STREAM run on FGDRAM: report plus fault counters.
fn fault_snapshot() -> String {
    let report = SystemBuilder::new(DramKind::Fgdram)
        .workload(suites::by_name("STREAM").expect("in suite"))
        .faults(FaultSpec::parse("ce=0.05,due=0.002,threshold=64").expect("valid spec"))
        .fault_seed(7)
        .run(1_000, 5_000)
        .expect("faulted run");
    format!("{report:?}\n")
}

fn full_snapshot(jobs: usize) -> String {
    format!(
        "== matrix (quick scale) ==\n{}== telemetry ==\n{}== faults ==\n{}",
        matrix_snapshot(jobs),
        telemetry_snapshot(),
        fault_snapshot(),
    )
}

#[test]
fn quick_suite_output_is_byte_identical_to_golden_at_any_jobs_level() {
    let serial = full_snapshot(1);
    if std::env::var_os("FGDRAM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("mkdir golden");
        std::fs::write(GOLDEN_PATH, &serial).expect("write golden");
        eprintln!("golden updated: {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden missing; run FGDRAM_UPDATE_GOLDEN=1 cargo test --test golden_identity");
    assert_eq!(serial, golden, "jobs=1 quick-suite output diverged from the committed golden");
    assert_eq!(full_snapshot(8), golden, "jobs=8 output diverged from the golden");
}
