//! End-to-end fault-injection and resilience tests: zero-fault
//! byte-identity, cross-`--jobs` determinism of the fault stream, the
//! forward-progress watchdog, fault-storm abort, graceful degradation
//! (retry, poison, exclusion), and the fault telemetry schema.

use fgdram::core::experiments::{self, Parallelism, Scale};
use fgdram::core::{SimError, SystemBuilder};
use fgdram::dram::ProtocolChecker;
use fgdram::faults::{timing, FaultSpec};
use fgdram::model::config::{DramConfig, DramKind};
use fgdram::model::json;
use fgdram::telemetry::{export, TelemetryConfig};
use fgdram::workloads::suites;

const WARMUP: u64 = 1_000;
const WINDOW: u64 = 5_000;

fn spec(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect("valid spec")
}

fn stream_builder(kind: DramKind) -> SystemBuilder {
    SystemBuilder::new(kind).workload(suites::by_name("STREAM").expect("in suite"))
}

// ---------------------------------------------------------------------
// Byte-identity: a no-op spec must not perturb anything.
// ---------------------------------------------------------------------

#[test]
fn noop_fault_spec_is_byte_identical_to_no_faults() {
    let run = |with_noop_spec: bool| {
        let mut b =
            stream_builder(DramKind::Fgdram).telemetry(TelemetryConfig::for_window(1_000, WINDOW));
        if with_noop_spec {
            // Injects nothing; the engine must stay disengaged.
            b = b.faults(spec("ber=0,ce=0,due=0")).fault_seed(99);
        }
        let (r, t) = b.run_instrumented(WARMUP, WINDOW).expect("runs");
        let jsonl = export::to_jsonl_string(&[("arch", "FGDRAM")], &t.expect("telemetry enabled"));
        (format!("{r}"), jsonl)
    };
    let (report_plain, telem_plain) = run(false);
    let (report_noop, telem_noop) = run(true);
    assert_eq!(report_plain, report_noop, "no-op spec changed the report");
    assert_eq!(telem_plain, telem_noop, "no-op spec changed the telemetry stream");
    assert!(!report_plain.contains("faults"), "fault-free report must not mention faults");
    assert!(!telem_plain.contains("\"faults\""), "fault-free telemetry has no faults component");
}

// ---------------------------------------------------------------------
// Determinism: same spec + seed is byte-identical at any --jobs level.
// ---------------------------------------------------------------------

#[test]
fn same_spec_and_seed_identical_across_job_counts() {
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
                .faults(spec("ce=0.05,due=0.002,threshold=64"))
                .fault_seed(7)
                .telemetry(TelemetryConfig::for_window(500, scale.window))
                .run_instrumented(scale.warmup, scale.window)
        })
        .expect("suite runs");
        let mut out = String::new();
        for (i, (r, t)) in cells.iter().enumerate() {
            let w = &workloads[i / kinds.len()];
            let k = kinds[i % kinds.len()];
            out.push_str(&format!("{r}\n"));
            out.push_str(&export::to_jsonl_string(
                &[("workload", &w.name), ("arch", k.label())],
                t.as_ref().expect("telemetry enabled"),
            ));
        }
        out
    };
    let serial = run_at(1);
    let parallel = run_at(4);
    assert!(serial.contains("faults:"), "fault counters present in reports");
    assert_eq!(serial, parallel, "--jobs must not change the fault stream");
}

// ---------------------------------------------------------------------
// Watchdog: a wedged controller terminates typed, within the bound.
// ---------------------------------------------------------------------

#[test]
fn wedge_terminates_with_stall_within_the_watchdog_bound() {
    let err = stream_builder(DramKind::Fgdram)
        .faults(spec("wedge=2000,watchdog=3000"))
        .run(1_000, 50_000)
        .expect_err("a permanent wedge must not complete");
    match err {
        SimError::Stall { at, idle_ns, bound, pending } => {
            assert_eq!(bound, 3_000);
            assert!(idle_ns >= bound, "stall declared before the bound elapsed");
            assert!(pending > 0, "a stall with no outstanding work is not a stall");
            // Wedge at 2000, in-flight work drains briefly, then one full
            // watchdog bound of silence; well before the 51_000 ns end.
            assert!((2_000 + 3_000..12_000).contains(&at), "stall at {at}");
        }
        other => panic!("expected Stall, got {other}"),
    }
    assert_eq!(
        SimError::Stall { at: 0, idle_ns: 0, bound: 0, pending: 0 }.exit_code(),
        5,
        "stall maps to exit code 5"
    );
}

// ---------------------------------------------------------------------
// Fault storm: exceeding the exclusion cap aborts typed.
// ---------------------------------------------------------------------

#[test]
fn fault_storm_aborts_with_exit_code_7() {
    let err = stream_builder(DramKind::Fgdram)
        .faults(spec("due=1,threshold=1,max-excluded=1"))
        .run(WARMUP, WINDOW)
        .expect_err("every read uncorrectable must storm");
    match &err {
        SimError::FaultStorm { dues, excluded, max_excluded, .. } => {
            assert!(*dues > 0);
            assert_eq!((*excluded, *max_excluded), (1, 1));
        }
        other => panic!("expected FaultStorm, got {other}"),
    }
    assert_eq!(err.exit_code(), 7);
}

// ---------------------------------------------------------------------
// Graceful degradation: retries, poison, exclusion, dead grains/banks.
// ---------------------------------------------------------------------

#[test]
fn corrected_errors_retry_and_uncorrectable_errors_poison() {
    let r = stream_builder(DramKind::Fgdram)
        .faults(spec("storm"))
        .fault_seed(3)
        .run(WARMUP, 20_000)
        .expect("the storm preset is survivable");
    let fs = r.faults.expect("fault summary present");
    assert!(fs.ce > 0, "CE rate of 2% must produce corrected errors");
    assert!(fs.retries > 0, "corrected errors must trigger bounded retries");
    assert!(fs.due > 0, "DUE rate must produce uncorrectable errors");
    assert!(fs.poisoned > 0, "tolerated DUEs deliver poisoned sectors");
    assert!(r.bandwidth.value() > 0.0, "the system keeps running under the storm");
}

#[test]
fn dead_grain_is_excluded_at_build_and_remapped_around() {
    let r = stream_builder(DramKind::Fgdram)
        .faults(spec("dead-grain=3,dead-grain=17"))
        .run(WARMUP, WINDOW)
        .expect("dead grains degrade, not fail");
    let fs = r.faults.expect("fault summary present");
    assert_eq!(fs.excluded, 2, "both dead grains excluded from the address map");
    assert_eq!(fs.due, 0, "exclusion happened at build, not via DUEs");
    assert!(r.bandwidth.value() > 0.0);
}

#[test]
fn dead_bank_poisons_then_excludes_its_grain() {
    // No warmup: the dead bank's grain crosses its threshold (and DUE
    // counting stops, because exclusion remaps the traffic away) within
    // the first reads, which must land inside the measured window.
    let r = stream_builder(DramKind::Fgdram)
        .faults(spec("dead-bank=0.0,threshold=4,max-excluded=8"))
        .run(0, 20_000)
        .expect("one dead bank degrades, not fail");
    let fs = r.faults.expect("fault summary present");
    assert!(fs.due >= 4, "every read of the dead bank is uncorrectable");
    assert!(fs.poisoned > 0);
    assert!(fs.excluded >= 1, "the dead bank's grain crossed its threshold");
}

// ---------------------------------------------------------------------
// Telemetry: the faults component appears, validates as JSON, and
// carries the CE/DUE/retry/exclusion/watchdog-slack series.
// ---------------------------------------------------------------------

#[test]
fn fault_telemetry_validates_and_carries_the_fault_series() {
    let (_, t) = stream_builder(DramKind::Fgdram)
        .faults(spec("ce=0.05,due=0.001,threshold=64"))
        .fault_seed(11)
        .telemetry(TelemetryConfig::for_window(1_000, WINDOW))
        .run_instrumented(WARMUP, WINDOW)
        .expect("runs");
    let s = export::to_jsonl_string(&[("arch", "FGDRAM")], &t.expect("telemetry enabled"));
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), (WINDOW / 1_000) as usize);
    for (i, line) in lines.iter().enumerate() {
        json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid JSON: {e}\n{line}"));
        for field in [
            "\"faults\":{",
            "\"ce\":",
            "\"due\":",
            "\"retries\":",
            "\"excluded\":",
            "\"watchdog_slack_ns\":",
        ] {
            assert!(line.contains(field), "line {i} missing {field}");
        }
    }
}

// ---------------------------------------------------------------------
// Timing-fault injection: the independent checker catches commands of a
// real trace pulled earlier.
// ---------------------------------------------------------------------

#[test]
fn perturbed_real_trace_is_caught_by_the_checker() {
    // Record a real FGDRAM trace, shift a few commands earlier, and let
    // the checker report what broke — the CLI's `--trace-check` +
    // `timing=` path in miniature.
    let mut sys = stream_builder(DramKind::Fgdram).with_trace().build().expect("builds");
    sys.run_for(2_000).expect("runs");
    let mut trace = sys.take_trace();
    assert!(!trace.is_empty());
    let baseline = ProtocolChecker::new(DramConfig::new(DramKind::Fgdram)).report_trace(&trace);
    assert!(baseline.is_clean(), "recorded trace must be legal before perturbation");
    let shifted = timing::perturb(&mut trace, 5, 8);
    assert!(shifted > 0, "perturbation must move something");
    let report = ProtocolChecker::new(DramConfig::new(DramKind::Fgdram)).report_trace(&trace);
    assert!(!report.is_clean(), "shifting commands earlier must violate timing");
}

// ---------------------------------------------------------------------
// A bad spec through the real CLI is a usage error naming its key.
// ---------------------------------------------------------------------

#[test]
fn out_of_range_fault_probability_exits_2_naming_the_key() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fgdram_sim"))
        .args(["run", "STREAM", "--faults", "ce=2"])
        .output()
        .expect("run fgdram_sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--faults: ce:"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing simulated");
}
