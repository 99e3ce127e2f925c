//! The sharded cell executor must be invisible in the results: any
//! `--jobs` value yields bit-identical reports in input order, errors
//! surface deterministically (lowest cell index wins), and the capped
//! empty suite cannot poison aggregates with NaN.

use fgdram::core::experiments::{self, Parallelism, Scale};
use fgdram::core::{SimError, SystemBuilder};
use fgdram::model::config::{DramConfig, DramKind};
use fgdram::workloads::suites;

/// A small but real slice of the compute matrix, short windows.
fn test_scale(jobs: usize) -> Scale {
    Scale {
        warmup: 2_000,
        window: 8_000,
        max_workloads: Some(3),
        parallelism: Parallelism::jobs(jobs),
    }
}

/// `jobs = 1` (pure in-thread loop) and `jobs = 4` (sharded workers) must
/// produce bit-identical reports: same workloads, same kinds, same order,
/// same values. Debug formatting covers every field of every report and
/// round-trips f64s exactly, so equal strings mean equal bits.
#[test]
fn run_matrix_is_deterministic_across_job_counts() {
    let workloads = &suites::compute_suite()[..3];
    let kinds = [DramKind::QbHbm, DramKind::Fgdram];

    let serial = experiments::run_matrix(workloads, &kinds, test_scale(1)).expect("serial run");
    let sharded = experiments::run_matrix(workloads, &kinds, test_scale(4)).expect("sharded run");
    let auto = experiments::run_matrix(workloads, &kinds, test_scale(0)).expect("auto run");

    assert_eq!(serial.len(), workloads.len());
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    assert_eq!(format!("{serial:?}"), format!("{auto:?}"));
    // Input ordering survives sharding.
    for (row, w) in sharded.iter().zip(workloads) {
        assert_eq!(row.workload.name, w.name);
        let reported: Vec<DramKind> = row.reports.iter().map(|r| r.kind).collect();
        assert_eq!(reported, kinds.to_vec());
    }
}

/// More workers than cells, and a worker count that does not divide the
/// cell count, both behave.
#[test]
fn run_matrix_handles_odd_job_counts() {
    let workloads = &suites::compute_suite()[..2];
    let kinds = [DramKind::Fgdram];
    let a = experiments::run_matrix(workloads, &kinds, test_scale(1)).expect("jobs=1");
    let b = experiments::run_matrix(workloads, &kinds, test_scale(3)).expect("jobs=3");
    let c = experiments::run_matrix(workloads, &kinds, test_scale(64)).expect("jobs=64");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(format!("{a:?}"), format!("{c:?}"));
}

/// The first error in cell order wins, no matter which worker hits an
/// error first: two cells are broken here, and every job count must
/// report the lower-index one (workload #1, not workload #2).
#[test]
fn run_matrix_reports_lowest_cell_error_at_any_job_count() {
    let workloads = &suites::compute_suite()[..4];
    let kinds = [DramKind::QbHbm];
    let broken = |w_name: &str| -> Option<u64> {
        // Distinct invalid row counts so the two failures are told apart.
        match w_name {
            n if n == workloads[1].name => Some(3),
            n if n == workloads[3].name => Some(5),
            _ => None,
        }
    };
    let run = |jobs: usize| {
        experiments::run_matrix_with(workloads, &kinds, test_scale(jobs), |w, k| {
            let b = SystemBuilder::new(k).workload(w.clone());
            match broken(&w.name) {
                Some(rows) => {
                    let mut cfg = DramConfig::new(k);
                    cfg.rows_per_bank = rows as usize;
                    b.dram_config(cfg)
                }
                None => b,
            }
        })
    };
    let serial_err = run(1).expect_err("workload #1 is broken");
    for jobs in [2, 4, 8] {
        let err = run(jobs).expect_err("workload #1 is broken");
        assert_eq!(
            format!("{err:?}"),
            format!("{serial_err:?}"),
            "jobs={jobs} surfaced a different error"
        );
        // And it is the lower-index failure (rows_per_bank = 3, not 5).
        assert!(format!("{err:?}").contains('3'), "jobs={jobs}: {err:?}");
    }
}

/// The index executor under every sweep: at jobs 1 and 4 the results come
/// back in index order, and of two failing cells the lower index's error
/// is the one reported, even when the higher one fails first.
#[test]
fn run_indexed_keeps_index_order_and_reports_lowest_error() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stall = |i: usize| SimError::Stall { at: i as u64, pending: 0, idle_ns: 0, bound: 0 };
    for jobs in [1, 4] {
        let p = Parallelism::jobs(jobs);
        let squares = experiments::run_indexed(37, p, |i| i.to_string(), |i| Ok(i * i));
        assert_eq!(squares.expect("no cell fails"), (0..37).map(|i| i * i).collect::<Vec<_>>());
        // With workers, cell 5 waits until cell 6 has failed, so the
        // executor must order errors by index, not by completion.
        let six_failed = AtomicBool::new(false);
        let err = experiments::run_indexed(
            37,
            p,
            |i| i.to_string(),
            |i| match i {
                5 => {
                    while jobs > 1 && !six_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err(stall(i))
                }
                6 => {
                    six_failed.store(true, Ordering::SeqCst);
                    Err(stall(i))
                }
                _ => Ok(i),
            },
        )
        .expect_err("cells 5 and 6 fail");
        assert!(matches!(err, SimError::Stall { at: 5, .. }), "jobs={jobs}: {err:?}");
    }
}

/// Empty-suite regression: `fig1b` at `max_workloads = Some(0)` used to
/// divide by zero and report NaN energy components.
#[test]
fn fig1b_with_empty_suite_is_finite() {
    let scale = Scale {
        warmup: 1_000,
        window: 2_000,
        max_workloads: Some(0),
        parallelism: Parallelism::serial(),
    };
    let e = experiments::fig1b(scale).expect("empty fig1b runs");
    assert!(e.activation.value().is_finite(), "activation NaN: {e:?}");
    assert!(e.data_movement.value().is_finite(), "data movement NaN: {e:?}");
    assert!(e.io.value().is_finite(), "io NaN: {e:?}");
    assert!(e.total().value().is_finite(), "total NaN: {e:?}");
}

/// At `jobs(2)` the executor runs two cells at once: each cell raises
/// an in-flight counter and waits, for at most 10 s, until it reads 2,
/// which only a second cell running beside it can bring about. A serial
/// executor fails this by timeout, never by a wall-clock ratio, so a
/// busy or single-core host cannot flake it. Speed itself is the repo
/// benchmark's to measure (`suite_mix` runs `run_cells` at 2 jobs).
#[test]
fn two_jobs_run_two_cells_at_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};
    let in_flight = AtomicUsize::new(0);
    let saw_two = experiments::run_indexed(
        2,
        Parallelism::jobs(2),
        |i| i.to_string(),
        |_| {
            in_flight.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while in_flight.load(Ordering::SeqCst) < 2 {
                if Instant::now() > deadline {
                    return Ok(false);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(true)
        },
    );
    assert_eq!(saw_two.expect("no cell fails"), [true, true], "the two cells never overlapped");
}

/// Degenerate shapes: empty workload list and empty kind list.
#[test]
fn run_matrix_degenerate_shapes() {
    let kinds = [DramKind::Fgdram];
    let empty = experiments::run_matrix(&[], &kinds, test_scale(4)).expect("no workloads");
    assert!(empty.is_empty());
    let workloads = &suites::compute_suite()[..2];
    let no_kinds = experiments::run_matrix(workloads, &[], test_scale(4)).expect("no kinds");
    assert_eq!(no_kinds.len(), 2);
    assert!(no_kinds.iter().all(|r| r.reports.is_empty()));
}
