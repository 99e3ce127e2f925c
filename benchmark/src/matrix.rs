//! `suite_mix`: the 26 compute applications x {QB-HBM, FGDRAM} as short
//! cells through `core::experiments::run_cells` — the path
//! `regen-experiments`, `fgdram_sim suite` and the daemon's workers share.

use std::sync::Mutex;
use std::time::Instant;

use fgdram::core::experiments::{run_cells, Parallelism, Scale};
use fgdram::core::suite::{render_report, SuiteKind, SUITE_KINDS};
use fgdram::core::{SimError, SimReport, SystemBuilder};
use fgdram::model::units::Ns;
use fgdram::workloads::{suites, Workload};

use crate::json::Json;
use crate::metrics::Values;
use crate::outcome::{self, Checks, Digest, Outcome, RunArgs};
use crate::{probes, provenance, seed, stats};

/// Per-cell warm-up and window: ISSUE 11's sizes, a quarter of
/// `Scale::quick` (8 000 + 30 000), so a pass over the 52 cells takes
/// seconds, not half a minute. `SystemBuilder::build` is a larger share of
/// such a cell than of a quick or full one (README, "Workloads", has the
/// measured shares): a build-time change moves this workload more than it
/// moves a real `regen-experiments` run.
pub const WARMUP_NS: Ns = 2_000;
/// See [`WARMUP_NS`].
pub const WINDOW_NS: Ns = 8_000;

/// Worker threads of the matrix executor: the load stays within the host.
pub fn jobs() -> usize {
    provenance::nproc().min(2)
}

fn scale(jobs: usize) -> Scale {
    Scale {
        warmup: WARMUP_NS,
        window: WINDOW_NS,
        max_workloads: None,
        parallelism: Parallelism::jobs(jobs),
    }
}

fn workloads(seed: u64) -> Vec<Workload> {
    suites::compute_suite().into_iter().map(|w| seed::reseed(w, seed)).collect()
}

/// One pass over every cell: the reports in input order, the pass's wall
/// time in seconds, and each cell's wall time in ms (claim order).
fn pass(ws: &[Workload], jobs: usize) -> (Result<Vec<SimReport>, SimError>, f64, Vec<f64>) {
    let scale = scale(jobs);
    let cell_ms = Mutex::new(Vec::with_capacity(ws.len() * SUITE_KINDS.len()));
    let t = Instant::now();
    let reports = run_cells(ws, &SUITE_KINDS, scale, |w, k| {
        let t = Instant::now();
        let r = SystemBuilder::new(k).workload(w.clone()).run(scale.warmup, scale.window);
        cell_ms
            .lock()
            .expect("no cell panics holding the lock")
            .push(t.elapsed().as_secs_f64() * 1e3);
        r
    });
    let wall = t.elapsed().as_secs_f64();
    (reports, wall, cell_ms.into_inner().expect("no cell panics holding the lock"))
}

/// Builds every cell's system once; returns the summed and the per-cell
/// build times in seconds.
fn build_all(ws: &[Workload]) -> Result<(f64, Vec<f64>), SimError> {
    let mut each = Vec::with_capacity(ws.len() * SUITE_KINDS.len());
    for w in ws {
        for k in SUITE_KINDS {
            let t = Instant::now();
            std::hint::black_box(SystemBuilder::new(k).workload(w.clone()).build()?);
            each.push(t.elapsed().as_secs_f64());
        }
    }
    Ok((each.iter().sum(), each))
}

/// Counts one pass's cells and holds its reports against the first pass's.
fn check_pass(
    checks: &mut Checks,
    cells: usize,
    reports: &Result<Vec<SimReport>, SimError>,
    first: &mut Option<Digest>,
) {
    checks.attempted += cells as u64;
    match reports {
        Ok(r) => {
            let d = Digest::of(r);
            let same = *first.get_or_insert(d) == d;
            checks.op(same, || "a pass's reports differ from the first pass's".to_string());
        }
        Err(e) => {
            // `run_cells` stops at the first error, so the pass is lost.
            checks.failed += cells as u64;
            checks.notes.push(format!("a cell failed: {e}"));
        }
    }
}

fn info(passes: usize, cell_ms: &[f64]) -> Json {
    let sizes = vec![
        ("cells_per_pass", Json::Num((26 * SUITE_KINDS.len()) as f64)),
        ("warmup_ns", Json::Num(WARMUP_NS as f64)),
        ("window_ns", Json::Num(WINDOW_NS as f64)),
        ("jobs", Json::Num(jobs() as f64)),
        ("passes", Json::Num(passes as f64)),
    ];
    outcome::info("cell", sizes, cell_ms)
}

/// The untraced run.
///
/// # Errors
///
/// A message when a cell's system cannot be built.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let ws = workloads(args.seed);
    let cells = ws.len() * SUITE_KINDS.len();
    let mut checks = Checks::default();
    let mut values = Values::default();

    let mut setup_s = Vec::new();
    for _ in 0..args.setups {
        setup_s.push(build_all(&ws).map_err(|e| format!("build failed: {e}"))?.0);
    }

    let sim_ns = (cells as u64 * (WARMUP_NS + WINDOW_NS)) as f64;
    let (mut rates, mut cell_ms) = (Vec::new(), Vec::new());
    let mut first = None;
    let start = Instant::now();
    loop {
        let (reports, wall, ms) = pass(&ws, jobs());
        check_pass(&mut checks, cells, &reports, &mut first);
        rates.push(sim_ns / wall);
        cell_ms.extend(ms);
        if reports.is_err() || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    values.set("sim_ns_per_s", stats::median(&rates));
    values.set("op_latency_p50_ms", stats::median(&cell_ms));
    values.set("op_latency_p90_ms", stats::typical_percentile(&cell_ms, cells, 90));
    values.set("setup_s", stats::median(&setup_s));
    let digest = first.unwrap_or_else(Digest::new);
    Ok(Outcome { checks, values, digest, info: info(rates.len(), &cell_ms) })
}

/// Quick-scale distance from the paper's headline figures, in percentage
/// points: energy saving against 49 % (3.83 -> 1.95 pJ/b, section 5.1) and
/// geometric-mean speed-up against 19 % (Figure 10).
fn paper_errors(reports: &[SimReport]) -> (f64, f64) {
    let (mut eq, mut ef, mut log_speedup) = (0.0, 0.0, 0.0);
    for pair in reports.chunks_exact(SUITE_KINDS.len()) {
        let (qb, fg) = (&pair[0], &pair[1]);
        eq += qb.energy_per_bit.total().value();
        ef += fg.energy_per_bit.total().value();
        log_speedup += fg.speedup_over(qb).max(1e-9).ln();
    }
    let n = (reports.len() / SUITE_KINDS.len()).max(1) as f64;
    let saving = (1.0 - ef / eq) * 100.0;
    let speedup = ((log_speedup / n).exp() - 1.0) * 100.0;
    ((saving - 49.0).abs(), (speedup - 19.0).abs())
}

/// The traced run: serial and parallel passes alternate, so the executor's
/// efficiency is a ratio of passes of one process.
///
/// # Errors
///
/// A message when a cell's system cannot be built.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let ws = workloads(args.seed);
    let cells = ws.len() * SUITE_KINDS.len();
    let jobs = jobs();
    let mut checks = Checks::default();
    let mut v = Values::default();

    let (_, builds) = build_all(&ws).map_err(|e| format!("build failed: {e}"))?;
    let build_ms: Vec<f64> = builds.iter().map(|s| s * 1e3).collect();
    probes::model_and_workload(&mut v, SUITE_KINDS[1], &ws[0]);
    v.set("core.system.build_ms", stats::median(&build_ms));

    let (mut serial, mut parallel, mut cell_ms, mut busy) = (vec![], vec![], vec![], vec![]);
    let mut first = None;
    let mut first_reports = None;
    let start = Instant::now();
    loop {
        let (reports, wall, ms) = pass(&ws, jobs);
        check_pass(&mut checks, cells, &reports, &mut first);
        parallel.push(wall);
        busy.push(ms.iter().sum::<f64>() / 1e3 / (jobs as f64 * wall));
        cell_ms.extend(ms);
        let failed = reports.is_err();
        first_reports = first_reports.or(reports.ok());
        if failed || (!serial.is_empty() && start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
        let (reports, wall, _) = pass(&ws, 1);
        check_pass(&mut checks, cells, &reports, &mut first);
        serial.push(wall);
    }

    let serial_s = stats::median(&serial);
    let parallel_s = stats::median(&parallel);
    if parallel_s > 0.0 {
        v.set("core.experiments.parallel_efficiency", serial_s / (jobs as f64 * parallel_s));
    }
    v.set("core.experiments.cell_ms_p50", stats::median(&cell_ms));
    v.set("core.experiments.cell_ms_max", stats::sorted(&cell_ms).last().copied().unwrap_or(0.0));
    // Worker time outside any cell span: claim overhead and, mostly, the
    // idle tail while the last cell of a pass finishes alone.
    v.set("trace.unattributed_share", 1.0 - stats::median(&busy));
    // Untraced passes read the same two clocks per cell, so tracing costs
    // this workload nothing extra.
    v.set("trace.overhead_ratio", 1.0);

    if let Some(reports) = &first_reports {
        let (energy, speedup) = paper_errors(reports);
        v.set("paper.err_energy_pp", energy);
        v.set("paper.err_speedup_pp", speedup);
        let t = Instant::now();
        for _ in 0..64 {
            std::hint::black_box(render_report(SuiteKind::Compute, &ws, reports));
        }
        v.set(
            "core.suite.render_us_per_report",
            t.elapsed().as_secs_f64() * 1e6 / 64.0 / cells as f64,
        );
    }

    let digest = first.unwrap_or_else(Digest::new);
    Ok(Outcome { checks, values: v, digest, info: info(parallel.len() + serial.len(), &cell_ms) })
}
