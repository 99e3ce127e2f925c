//! One function per table/figure of the paper's evaluation, plus the
//! design-space sweeps built on the same model.
//!
//! Every simulated cell runs on [`run_indexed`]: workload x architecture
//! matrices through [`run_matrix`], config sweeps (ablations, row size,
//! grain count) through a private `sweep`, each at a chosen [`Scale`].
//! Analytic tables (1a, Table 2, Table 3, area, the energy-model sweeps)
//! come straight from the models. The root package's `regen-experiments`
//! binary renders these into `EXPERIMENTS.md`; `tests/golden_identity.rs`
//! pins the matrix entry points at [`Scale::quick`] byte for byte.

use fgdram_energy::area::AreaModel;
use fgdram_energy::budget::{self, BudgetPoint, TechPoint};
use fgdram_energy::floorplan::EnergyProfile;
use fgdram_energy::meter::{DataActivity, EnergyMeter, EnergyPerBit, OpCounts};
use fgdram_model::config::{DramConfig, DramKind, GpuConfig};
use fgdram_model::units::Ns;
use fgdram_workloads::{suites, Workload};

use crate::report::SimReport;
use crate::system::{SimError, SystemBuilder};

/// How many worker threads a matrix run may use.
///
/// Every (workload, architecture) cell of a matrix is an independent
/// simulation, so — in the same spirit as bank-level parallelism inside
/// the DRAM itself — cells never serialise behind each other unless asked
/// to. The executor stays deterministic at any job count: results land in
/// an input-order slot table, so output rows are bit-identical to a
/// sequential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker-thread cap; `0` means "use the machine's available
    /// parallelism". The effective count is further capped by the number
    /// of cells.
    pub jobs: usize,
    /// Emit one stderr line per completed cell (coarse progress for long
    /// `Scale::full()` runs).
    pub progress: bool,
}

impl Parallelism {
    /// As many workers as the machine offers, no progress output.
    pub fn auto() -> Self {
        Parallelism { jobs: 0, progress: false }
    }

    /// Strictly sequential, in the calling thread.
    pub fn serial() -> Self {
        Parallelism { jobs: 1, progress: false }
    }

    /// Exactly `jobs` workers (`0` = auto).
    pub fn jobs(jobs: usize) -> Self {
        Parallelism { jobs, progress: false }
    }

    /// The actual worker count for `cells` independent jobs.
    pub fn resolve(&self, cells: usize) -> usize {
        let hw = match self.jobs {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        hw.min(cells).max(1)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Simulation effort: the full windows used for `EXPERIMENTS.md`, or a
/// quick subset for CI/benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up time before measurement.
    pub warmup: Ns,
    /// Measurement window.
    pub window: Ns,
    /// Cap on the number of workloads per suite (`None` = all).
    pub max_workloads: Option<usize>,
    /// Worker threads for matrix runs (does not affect results).
    pub parallelism: Parallelism,
}

impl Scale {
    /// Full-fidelity scale used to regenerate `EXPERIMENTS.md`.
    pub fn full() -> Self {
        Scale {
            warmup: 20_000,
            window: 100_000,
            max_workloads: None,
            parallelism: Parallelism::auto(),
        }
    }

    /// Reduced scale for benches and smoke tests.
    pub fn quick() -> Self {
        Scale {
            warmup: 8_000,
            window: 30_000,
            max_workloads: Some(4),
            parallelism: Parallelism::auto(),
        }
    }

    /// Returns `self` with a worker-thread cap (`0` = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.parallelism.jobs = jobs;
        self
    }

    fn cap<'a>(&self, list: &'a [Workload]) -> &'a [Workload] {
        match self.max_workloads {
            Some(n) => &list[..n.min(list.len())],
            None => list,
        }
    }
}

/// One workload simulated across several architectures.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// The workload.
    pub workload: Workload,
    /// One report per architecture, in input order.
    pub reports: Vec<SimReport>,
}

impl MatrixRow {
    /// The report for `kind`, or `None` if that architecture was not part
    /// of this matrix run. Prefer this from any path that may see a
    /// partial matrix (subset of architectures, custom kind lists).
    pub fn try_report(&self, kind: DramKind) -> Option<&SimReport> {
        self.reports.iter().find(|r| r.kind == kind)
    }

    /// The report for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the matrix run; use
    /// [`Self::try_report`] where that is a reachable state.
    pub fn report(&self, kind: DramKind) -> &SimReport {
        self.try_report(kind).expect("kind simulated")
    }
}

/// Runs `workloads` x `kinds` full-system simulations.
///
/// Cells run on up to `scale.parallelism` worker threads; results are
/// identical to a sequential run at any job count (see [`Parallelism`]).
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order (lowest
/// workload-major index wins), regardless of which worker hit it first.
pub fn run_matrix(
    workloads: &[Workload],
    kinds: &[DramKind],
    scale: Scale,
) -> Result<Vec<MatrixRow>, SimError> {
    run_matrix_with(workloads, kinds, scale, |w, k| SystemBuilder::new(k).workload(w.clone()))
}

/// [`run_matrix`] with a caller-supplied cell builder, for sweeps that
/// customise the system per cell (I/O technology, page policy, overridden
/// configs) while keeping the sharded executor and its determinism.
///
/// `build` must be deterministic: it is invoked once per cell, from
/// whichever worker claims the cell.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order.
pub fn run_matrix_with<B>(
    workloads: &[Workload],
    kinds: &[DramKind],
    scale: Scale,
    build: B,
) -> Result<Vec<MatrixRow>, SimError>
where
    B: Fn(&Workload, DramKind) -> SystemBuilder + Sync,
{
    let reports =
        run_cells(workloads, kinds, scale, |w, k| build(w, k).run(scale.warmup, scale.window))?;
    let mut it = reports.into_iter();
    Ok(workloads
        .iter()
        .map(|w| MatrixRow {
            workload: w.clone(),
            reports: it.by_ref().take(kinds.len()).collect(),
        })
        .collect())
}

/// Runs an arbitrary per-cell computation over `workloads` x `kinds` on
/// [`run_indexed`] and returns the results as one flat vector in
/// workload-major input order (`index = workload_idx * kinds.len() +
/// kind_idx`).
///
/// This is the engine under [`run_matrix`]/[`run_matrix_with`], exposed
/// for callers whose cells produce more than a [`SimReport`] — e.g. a
/// report paired with its telemetry series.
///
/// # Errors
///
/// Propagates the first cell error in cell order (lowest workload-major
/// index wins), regardless of which worker hit it first.
pub fn run_cells<R, F>(
    workloads: &[Workload],
    kinds: &[DramKind],
    scale: Scale,
    cell: F,
) -> Result<Vec<R>, SimError>
where
    R: Send,
    F: Fn(&Workload, DramKind) -> Result<R, SimError> + Sync,
{
    let n = kinds.len();
    run_indexed(
        workloads.len() * n,
        scale.parallelism,
        |i| format!("{} on {}", workloads[i / n].name, kinds[i % n].label()),
        |i| cell(&workloads[i / n], kinds[i % n]),
    )
}

/// The one cell executor: runs `cell(i)` for every `i` in `0..cells` on
/// up to `parallelism` worker threads and returns the results in index
/// order. `label(i)` names cell `i` in the progress line.
///
/// Deterministic at any job count: workers pull cell indices from a
/// shared counter and write into an index-order slot table, so the
/// returned vector is bit-identical to a sequential run. `cell` must be
/// deterministic: it is invoked once per index, from whichever worker
/// claims it.
///
/// # Errors
///
/// Propagates the lowest-index cell error, regardless of which worker hit
/// an error first.
pub fn run_indexed<R, L, F>(
    cells: usize,
    parallelism: Parallelism,
    label: L,
    cell: F,
) -> Result<Vec<R>, SimError>
where
    R: Send,
    L: Fn(usize) -> String + Sync,
    F: Fn(usize) -> Result<R, SimError> + Sync,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    if cells == 0 {
        return Ok(Vec::new());
    }
    let started = std::time::Instant::now();
    let run_cell = |i: usize| -> Result<R, SimError> {
        let res = cell(i);
        if parallelism.progress {
            eprintln!(
                "[matrix {:6.1?}] cell {}/{}: {} {}",
                started.elapsed(),
                i + 1,
                cells,
                label(i),
                if res.is_ok() { "done" } else { "FAILED" },
            );
        }
        res
    };

    let jobs = parallelism.resolve(cells);
    if jobs == 1 {
        // Strictly sequential reference path: no threads spawned.
        return (0..cells).map(run_cell).collect();
    }

    // Claims happen in index order and every claimed cell runs to
    // completion, so after the scope the filled prefix of the table always
    // contains the lowest-index error (if any) — the same error a
    // sequential run returns.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<Result<R, SimError>>>> =
        Mutex::new((0..cells).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells {
                    break;
                }
                let res = run_cell(i);
                if res.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                // Infallible: the only code run under this lock is the
                // slot assignment below, which cannot panic.
                slots.lock().expect("matrix slot table poisoned")[i] = Some(res);
            });
        }
    });

    // Infallible: all workers joined above and none panics while holding
    // the lock (see the slot-assignment critical section).
    let slots = slots.into_inner().expect("matrix slot table poisoned");
    let mut out = Vec::with_capacity(cells);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Cells are claimed in index order and claimed cells always
            // complete, so a hole can only follow an error we already
            // returned above.
            None => unreachable!("cell {i} skipped without a prior error"),
        }
    }
    Ok(out)
}

/// One configuration of a design-space sweep: its reports, one per swept
/// workload in input order.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The DRAM configuration every workload ran on.
    pub cfg: DramConfig,
    /// One report per workload, in input order.
    pub reports: Vec<SimReport>,
}

/// Runs `workloads` on each of `cfgs` through [`run_indexed`].
fn sweep(ws: &[Workload], cfgs: Vec<DramConfig>, scale: Scale) -> Result<Vec<SweepRow>, SimError> {
    let n = ws.len();
    let reports = run_indexed(
        cfgs.len() * n,
        scale.parallelism,
        |i| format!("{} on {} config {}", ws[i % n].name, cfgs[i / n].kind.label(), i / n),
        |i| {
            let cfg = &cfgs[i / n];
            let builder = SystemBuilder::new(cfg.kind).dram_config(cfg.clone());
            builder.workload(ws[i % n].clone()).run(scale.warmup, scale.window)
        },
    )?;
    let mut it = reports.into_iter();
    Ok(cfgs
        .into_iter()
        .map(|cfg| SweepRow { cfg, reports: it.by_ref().take(n).collect() })
        .collect())
}

fn named(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| suites::by_name(n).expect("workload in suite")).collect()
}

/// Runs the compute suite (Figures 8/10/11) across `kinds`.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn compute_matrix(kinds: &[DramKind], scale: Scale) -> Result<Vec<MatrixRow>, SimError> {
    run_matrix(scale.cap(&suites::compute_suite()), kinds, scale)
}

/// Runs the graphics suite (Figure 9) across `kinds`.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn graphics_matrix(kinds: &[DramKind], scale: Scale) -> Result<Vec<MatrixRow>, SimError> {
    run_matrix(scale.cap(&suites::graphics_suite()), kinds, scale)
}

/// Figure 1a: the 60 W power-budget curve plus reference technologies.
pub fn fig1a() -> (Vec<BudgetPoint>, Vec<TechPoint>) {
    let curve = budget::budget_curve(budget::DEFAULT_DRAM_BUDGET, &budget::fig1a_bandwidth_grid());
    (curve, vec![budget::GDDR5, budget::HBM2, budget::TARGET_2PJ])
}

/// Figure 1b: average HBM2 access energy per component, from simulating
/// the compute suite on the HBM2 stack (capped by the scale's workload
/// limit for quick runs).
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn fig1b(scale: Scale) -> Result<EnergyPerBit, SimError> {
    let suite = suites::compute_suite();
    let rows = run_matrix(scale.cap(&suite), &[DramKind::Hbm2], scale)?;
    let mut acc = EnergyPerBit::default();
    for row in &rows {
        let e = row.reports[0].energy_per_bit;
        acc.activation += e.activation;
        acc.data_movement += e.data_movement;
        acc.io += e.io;
    }
    // Guard the capped-to-empty suite (e.g. `max_workloads: Some(0)`):
    // 0/0 would otherwise propagate NaN into every energy component.
    let n = rows.len().max(1) as f64;
    acc.activation = acc.activation / n;
    acc.data_movement = acc.data_movement / n;
    acc.io = acc.io / n;
    Ok(acc)
}

/// One row of the Table 2 rendering.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Parameter name.
    pub name: &'static str,
    /// One value per architecture (HBM2, QB-HBM, FGDRAM).
    pub values: [String; 3],
}

/// Table 2: DRAM configurations, rendered from the actual config structs.
pub fn table2() -> Vec<Table2Row> {
    let cfgs = [
        DramConfig::new(DramKind::Hbm2),
        DramConfig::new(DramKind::QbHbm),
        DramConfig::new(DramKind::Fgdram),
    ];
    let s = |f: &dyn Fn(&DramConfig) -> String| -> [String; 3] {
        [f(&cfgs[0]), f(&cfgs[1]), f(&cfgs[2])]
    };
    vec![
        Table2Row { name: "channels (grains)/stack", values: s(&|c| c.channels.to_string()) },
        Table2Row {
            name: "banks/channel",
            values: s(&|c| {
                if c.kind == DramKind::Fgdram {
                    format!("{} pseudobanks", c.banks_per_channel)
                } else {
                    c.banks_per_channel.to_string()
                }
            }),
        },
        Table2Row { name: "row size/activate (B)", values: s(&|c| c.activation_bytes.to_string()) },
        Table2Row {
            name: "bandwidth/channel (GB/s)",
            values: s(&|c| format!("{:.0}", c.channel_bandwidth().value())),
        },
        Table2Row {
            name: "bandwidth/stack (GB/s)",
            values: s(&|c| format!("{:.0}", c.stack_bandwidth().value())),
        },
        Table2Row { name: "tBURST (ns)", values: s(&|c| c.timing.t_burst.to_string()) },
        Table2Row { name: "tCCDL (ns)", values: s(&|c| c.timing.t_ccd_l.to_string()) },
        Table2Row { name: "tCCDS (ns)", values: s(&|c| c.timing.t_ccd_s.to_string()) },
        Table2Row { name: "activates in tFAW", values: s(&|c| c.timing.acts_in_faw.to_string()) },
    ]
}

/// One row of the Table 3 rendering (per-op energies at 50% activity).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Component name.
    pub name: &'static str,
    /// HBM2 / QB-HBM / FGDRAM values.
    pub values: [f64; 3],
}

/// Table 3: per-operation energies from the floorplan model.
pub fn table3() -> Vec<Table3Row> {
    let p = [
        EnergyProfile::for_kind(DramKind::Hbm2),
        EnergyProfile::for_kind(DramKind::QbHbm),
        EnergyProfile::for_kind(DramKind::Fgdram),
    ];
    let act = [
        p[0].activation(1024).value(),
        p[1].activation(1024).value(),
        p[2].activation(256).value(),
    ];
    vec![
        Table3Row { name: "Row activation (pJ)", values: act },
        Table3Row {
            name: "Pre-GSA data movement (pJ/b)",
            values: [p[0].pre_gsa().value(), p[1].pre_gsa().value(), p[2].pre_gsa().value()],
        },
        Table3Row {
            name: "Post-GSA data movement (pJ/b) @50%",
            values: [
                p[0].post_gsa(0.5).value(),
                p[1].post_gsa(0.5).value(),
                p[2].post_gsa(0.5).value(),
            ],
        },
        Table3Row {
            name: "I/O (pJ/b) @50%",
            values: [
                p[0].io(0.5, 0.5).value(),
                p[1].io(0.5, 0.5).value(),
                p[2].io(0.5, 0.5).value(),
            ],
        },
    ]
}

/// One architecture's area result: kind, total overhead fraction, and the
/// named component contributions.
pub type AreaRow = (DramKind, f64, Vec<(String, f64)>);

/// Section 5.3: area overheads relative to an HBM2 die.
pub fn area_table() -> Vec<AreaRow> {
    DramKind::ALL
        .iter()
        .map(|&k| {
            let m = AreaModel::for_kind(k);
            let comps = m.components().iter().map(|c| (c.name.to_string(), c.fraction)).collect();
            (k, m.total_overhead(), comps)
        })
        .collect()
}

/// Suite-level aggregates for Figures 8/10/11 derived from a matrix.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSummary {
    /// Geometric-mean speedup over the first architecture in the matrix.
    pub gmean_speedup: f64,
    /// Arithmetic-mean energy per bit of the first architecture.
    pub base_energy: f64,
    /// Arithmetic-mean energy per bit of the compared architecture.
    pub other_energy: f64,
    /// Mean activation-energy reduction (fraction).
    pub activation_reduction: f64,
    /// Mean data-movement-energy reduction (fraction).
    pub movement_reduction: f64,
    /// Mean read-latency reduction (fraction).
    pub latency_reduction: f64,
}

/// Summarises `other` vs `base` (both must be present in every row).
pub fn summarise(matrix: &[MatrixRow], base: DramKind, other: DramKind) -> SuiteSummary {
    summarise_pairs(matrix.iter().map(|row| (row.report(base), row.report(other))))
}

/// Summarises `(base, other)` report pairs, one per workload: the one place
/// the suite means are computed. An empty list reads speedup 1.
pub fn summarise_pairs<'a>(
    pairs: impl IntoIterator<Item = (&'a SimReport, &'a SimReport)>,
) -> SuiteSummary {
    let mut n = 0;
    let mut log_speedup = 0.0;
    let (mut be, mut oe) = (0.0, 0.0);
    let (mut ba, mut oa) = (0.0, 0.0);
    let (mut bm, mut om) = (0.0, 0.0);
    let (mut bl, mut ol) = (0.0, 0.0);
    for (b, o) in pairs {
        n += 1;
        log_speedup += o.speedup_over(b).max(1e-9).ln();
        be += b.energy_per_bit.total().value();
        oe += o.energy_per_bit.total().value();
        ba += b.energy_per_bit.activation.value();
        oa += o.energy_per_bit.activation.value();
        bm += b.energy_per_bit.data_movement.value();
        om += o.energy_per_bit.data_movement.value();
        bl += b.avg_read_latency_ns;
        ol += o.avg_read_latency_ns;
    }
    let n = n.max(1) as f64;
    SuiteSummary {
        gmean_speedup: (log_speedup / n).exp(),
        base_energy: be / n,
        other_energy: oe / n,
        activation_reduction: 1.0 - oa / ba.max(1e-12),
        movement_reduction: 1.0 - om / bm.max(1e-12),
        latency_reduction: 1.0 - ol / bl.max(1e-12),
    }
}

/// Section 2.2 ablation: graphics performance with a 128 B atom vs 32 B
/// on the QB-HBM stack. Returns the mean slowdown fraction (positive =
/// the 128 B atom is slower, the paper's 17%).
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn ablation_atom128(scale: Scale) -> Result<f64, SimError> {
    let suite = suites::graphics_suite();
    slowdown(scale.cap(&suite), DramConfig::qb_hbm_atom128(), scale)
}

/// Section 2.3 ablation: compute performance of the deep-bank-group
/// 4x-HBM derivative vs QB-HBM. Returns the mean slowdown fraction (the
/// paper's 10.6%).
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn ablation_deep_bank_groups(scale: Scale) -> Result<f64, SimError> {
    // Memory-intensive applications first: they are the ones the deep
    // bank grouping hurts, and a capped quick run should see them.
    let mut suite = suites::compute_suite();
    suite.sort_by_key(|w| !w.memory_intensive);
    slowdown(scale.cap(&suite), DramConfig::qb_hbm_deep_bank_groups(), scale)
}

/// Geometric-mean slowdown of `variant` against its kind's stock config.
fn slowdown(workloads: &[Workload], variant: DramConfig, scale: Scale) -> Result<f64, SimError> {
    let rows = sweep(workloads, vec![DramConfig::new(variant.kind), variant], scale)?;
    Ok(1.0 - summarise_pairs(rows[0].reports.iter().zip(&rows[1].reports)).gmean_speedup)
}

/// Section 1's opening motif with simulated energy: STREAM and GUPS at
/// doubled demand on a 120-SM GPU over four stacks (4 TB/s) of QB-HBM and
/// of FGDRAM. DRAM power is each report's pJ/b times its bandwidth.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn exascale(scale: Scale) -> Result<Vec<MatrixRow>, SimError> {
    let gpu = GpuConfig { sms: 120, ..GpuConfig::default() };
    let mut workloads = named(&["STREAM", "GUPS"]);
    for w in &mut workloads {
        w.think_ns /= 2;
    }
    run_matrix_with(&workloads, &[DramKind::QbHbm, DramKind::Fgdram], scale, |w, k| {
        SystemBuilder::new(k)
            .dram_config(DramConfig::multi_stack(k, 4))
            .gpu_config(gpu.clone())
            .workload(w.clone())
    })
}

/// Section 3's activation granularity: FGDRAM with 1 024 B down to 64 B
/// pseudobank rows (capacity and bandwidth held), running GUPS and
/// STREAM.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn row_size_sweep(scale: Scale) -> Result<Vec<SweepRow>, SimError> {
    let cfgs = [1024u64, 512, 256, 128, 64].map(|row_bytes| {
        let mut c = DramConfig::new(DramKind::Fgdram);
        let capacity = c.rows_per_bank as u64 * c.row_bytes;
        c.row_bytes = row_bytes;
        c.activation_bytes = row_bytes;
        c.rows_per_bank = (capacity / row_bytes) as usize;
        // Keep 512 rows per subarray so subarray count scales with rows.
        c.subarrays_per_bank = (c.rows_per_bank / 512).max(1);
        c
    });
    sweep(&named(&["GUPS", "STREAM"]), cfgs.into(), scale)
}

/// Section 3's grain count: the same 1 TB/s, 4 GiB FGDRAM stack cut into
/// 64, 128, 256 or 512 channels, running GUPS and bfs.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn grain_sweep(scale: Scale) -> Result<Vec<SweepRow>, SimError> {
    let cfgs = [64usize, 128, 256, 512].map(|channels| {
        let mut c = DramConfig::new(DramKind::Fgdram);
        let merged = 512 / channels;
        c.channels = channels;
        // Merged grains pool their pseudobanks behind one shared bus.
        c.banks_per_channel *= merged;
        c.bank_groups = c.banks_per_channel;
        // Keep 1 TB/s: a channel carries `merged` x 2 GB/s.
        c.timing.t_burst = (16 / merged as u64).max(2);
        c.timing.t_ccd_l = c.timing.t_burst.max(4);
        // Command channels stay at 64.
        c.channels_per_cmd_channel = (channels / 64).max(1);
        c
    });
    sweep(&named(&["GUPS", "bfs"]), cfgs.into(), scale)
}

/// Section 5.2's queueing mechanism as a loaded-latency curve: GUPS with
/// think times from 4 000 ns down to 0 (rising offered load) on QB-HBM
/// and FGDRAM. Each row's workload carries its think time.
///
/// # Errors
///
/// Propagates the first [`SimError`].
pub fn loaded_latency(scale: Scale) -> Result<Vec<MatrixRow>, SimError> {
    let gups = suites::by_name("GUPS").expect("GUPS in suite");
    let workloads = [4000, 2000, 1200, 800, 500, 300, 150, 0]
        .map(|think_ns| Workload { think_ns, ..gups.clone() });
    run_matrix(&workloads, &[DramKind::QbHbm, DramKind::Fgdram], scale)
}

/// Atoms per activate in [`energy_vs_locality`].
pub const ATOMS_PER_ACTIVATE: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Access energy (pJ/b) at each of [`ATOMS_PER_ACTIVATE`] for QB-HBM and
/// FGDRAM, from the energy model alone (reads at toggle rate 0.35).
pub fn energy_vs_locality() -> [(DramKind, [f64; 6]); 2] {
    let activity = DataActivity { toggle_rate: 0.35, ones_density: 0.35 };
    [DramKind::QbHbm, DramKind::Fgdram].map(|k| {
        let meter = EnergyMeter::new(&DramConfig::new(k));
        let per_bit = |apa| {
            let ops = OpCounts { activates: 1000, read_atoms: 1000 * apa, write_atoms: 0 };
            meter.energy_per_bit(&ops, activity).total().value()
        };
        (k, ATOMS_PER_ACTIVATE.map(per_bit))
    })
}

/// Data activity levels in [`io_alternatives`]: the applications' ~28%
/// average and Table 3's 50%.
pub const IO_ACTIVITY: [f64; 2] = [0.28, 0.5];

/// Section 3.5: FGDRAM I/O energy (pJ/b) with PODL and with GRS, by name,
/// at each of [`IO_ACTIVITY`].
pub fn io_alternatives() -> [(&'static str, [f64; 2]); 2] {
    let podl = EnergyProfile::for_kind(DramKind::Fgdram);
    [("PODL", podl), ("GRS", podl.with_grs())]
        .map(|(name, p)| (name, IO_ACTIVITY.map(|a| p.io(a, a).value())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_matches_paper_anchors() {
        let (curve, techs) = fig1a();
        assert_eq!(curve.len(), 5);
        assert_eq!(techs.len(), 3);
        // 4 TB/s point demands < 2 pJ/b.
        assert!(curve.last().unwrap().max_energy.value() < 2.0);
    }

    #[test]
    fn table2_has_expected_rows() {
        let t = table2();
        assert!(t.len() >= 9);
        let chan = &t[0];
        assert_eq!(chan.values, ["16".to_string(), "64".to_string(), "512".to_string()]);
    }

    #[test]
    fn table3_matches_energy_model() {
        let t = table3();
        assert!((t[0].values[0] - 909.0).abs() < 1.0);
        assert!((t[0].values[2] - 227.0).abs() < 1.0);
        assert!((t[3].values[0] - 0.80).abs() < 0.01);
    }

    #[test]
    fn area_table_matches_section53() {
        let rows = area_table();
        let get = |k: DramKind| rows.iter().find(|(kk, _, _)| *kk == k).unwrap().1;
        assert!((get(DramKind::QbHbm) - 0.0857).abs() < 1e-4);
        assert!((get(DramKind::Fgdram) - 0.1036).abs() < 1e-4);
    }

    #[test]
    fn scale_caps_workloads() {
        let q = Scale::quick();
        let suite = suites::compute_suite();
        assert_eq!(q.cap(&suite).len(), 4);
        assert_eq!(Scale::full().cap(&suite).len(), 26);
    }

    /// Smaller rows waste less of each activation on GUPS's one-atom
    /// accesses, so its energy per bit must fall at every step.
    #[test]
    fn gups_energy_falls_as_rows_shrink() {
        let scale = Scale {
            warmup: 2_000,
            window: 8_000,
            max_workloads: None,
            parallelism: Parallelism::jobs(2),
        };
        let rows = row_size_sweep(scale).expect("row-size sweep");
        let gups: Vec<f64> =
            rows.iter().map(|r| r.reports[0].energy_per_bit.total().value()).collect();
        assert!(gups.windows(2).all(|p| p[1] < p[0]), "GUPS pJ/b by row size: {gups:?}");
    }
}
