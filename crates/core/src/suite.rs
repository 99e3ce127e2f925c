//! The shared suite runner: one definition of what a "suite job" is,
//! used by both the `fgdram_sim suite` CLI command and the
//! `fgdram-serve` job server.
//!
//! The serving determinism gate (a suite job submitted over the wire must
//! produce a final report byte-identical to the CLI invocation with the
//! same parameters, at any worker count) holds *by construction* because
//! both front ends run cells through [`SuiteSpec::run_cell`] and render
//! through [`render_report`] — there is no second copy of the formatting
//! to drift.
//!
//! A suite job is `workloads x [QB-HBM, FGDRAM]` cells in workload-major
//! order (the same cell table [`crate::experiments::run_cells`] uses), so
//! any executor — the CLI's sharded thread pool, the server's
//! deficit-round-robin worker pool — can run cells in any order and
//! still reassemble identical output from the input-order table.

use fgdram_model::config::DramKind;
use fgdram_model::units::Ns;
use fgdram_telemetry::{export, Telemetry, TelemetryConfig};
use fgdram_workloads::{suites, Workload};

use crate::report::SimReport;
use crate::system::{SimError, SystemBuilder};

/// Which workload suite a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// The 26-application compute suite (Figures 8/10).
    Compute,
    /// The 80-workload graphics suite (Figure 9).
    Graphics,
}

impl SuiteKind {
    /// Parses the CLI/wire spelling (`compute` | `graphics`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "compute" => Some(SuiteKind::Compute),
            "graphics" => Some(SuiteKind::Graphics),
            _ => None,
        }
    }

    /// The canonical spelling (also used in the final report line).
    pub fn label(&self) -> &'static str {
        match self {
            SuiteKind::Compute => "compute",
            SuiteKind::Graphics => "graphics",
        }
    }

    /// The full workload list of this suite.
    pub fn all_workloads(&self) -> Vec<Workload> {
        match self {
            SuiteKind::Compute => suites::compute_suite(),
            SuiteKind::Graphics => suites::graphics_suite(),
        }
    }
}

/// The two architectures a suite job compares, in cell order.
pub const SUITE_KINDS: [DramKind; 2] = [DramKind::QbHbm, DramKind::Fgdram];

/// A fully parameterised suite job: everything that determines its
/// output, and nothing that does not (worker counts, tenants, transport
/// live outside this struct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteSpec {
    /// Which suite to run.
    pub which: SuiteKind,
    /// Warm-up time before measurement, per cell.
    pub warmup: Ns,
    /// Measurement window, per cell.
    pub window: Ns,
    /// Cap on the number of workloads (`None` = the whole suite).
    pub max_workloads: Option<usize>,
    /// Epoch-sampled telemetry per cell when `Some(epoch_ns)`.
    pub telemetry_epoch: Option<Ns>,
}

impl SuiteSpec {
    /// The workload list after the `max_workloads` cap.
    pub fn workloads(&self) -> Vec<Workload> {
        let mut list = self.which.all_workloads();
        if let Some(n) = self.max_workloads {
            list.truncate(n);
        }
        list
    }

    /// Number of independent simulation cells (`workloads x 2`).
    pub fn cell_count(&self) -> usize {
        self.workloads().len() * SUITE_KINDS.len()
    }

    /// Simulated nanoseconds one cell costs (warmup + window).
    pub fn cell_cost(&self) -> u64 {
        self.warmup.saturating_add(self.window)
    }

    /// Total resource cost of the job in cells x simulated-ns — the
    /// admission-control currency of `fgdram-serve`.
    pub fn cost(&self) -> u64 {
        (self.cell_count() as u64).saturating_mul(self.cell_cost())
    }

    /// The `(workload, architecture)` of cell `index` in the
    /// workload-major cell table.
    pub fn cell<'a>(&self, workloads: &'a [Workload], index: usize) -> (&'a Workload, DramKind) {
        (&workloads[index / SUITE_KINDS.len()], SUITE_KINDS[index % SUITE_KINDS.len()])
    }

    /// Runs one cell on the default Table 1/Table 2 system configuration
    /// (the configuration `fgdram_sim suite` uses when no override flag
    /// is passed).
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the simulation.
    pub fn run_cell(&self, w: &Workload, kind: DramKind) -> Result<SuiteCell, SimError> {
        let mut b = SystemBuilder::new(kind).workload(w.clone());
        if let Some(epoch) = self.telemetry_epoch {
            b = b.telemetry(TelemetryConfig::for_window(epoch, self.window));
        }
        let (report, telemetry) = b.run_instrumented(self.warmup, self.window)?;
        Ok(SuiteCell { report, telemetry })
    }

    /// Renders one cell's telemetry series as the exact JSONL bytes the
    /// CLI writes for it (meta: workload name, architecture label).
    pub fn telemetry_jsonl(w: &Workload, kind: DramKind, t: &Telemetry) -> String {
        export::to_jsonl_string(&[("workload", &w.name), ("arch", kind.label())], t)
    }
}

/// One completed suite cell.
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// The cell's measurement report.
    pub report: SimReport,
    /// The cell's telemetry series (when the spec enabled telemetry).
    pub telemetry: Option<Telemetry>,
}

/// Renders the suite's final report — per-workload speedup/energy lines
/// plus the geometric-mean summary — from the input-order report table
/// (`reports[2 * i]` = workload `i` on QB-HBM, `reports[2 * i + 1]` on
/// FGDRAM). These are the exact bytes `fgdram_sim suite` prints.
///
/// # Panics
///
/// Panics if `reports.len() != 2 * workloads.len()`.
pub fn render_report(which: SuiteKind, workloads: &[Workload], reports: &[SimReport]) -> String {
    assert_eq!(reports.len(), workloads.len() * SUITE_KINDS.len(), "one report per cell");
    let mut out = String::new();
    let mut logsum = 0.0;
    let (mut eq, mut ef) = (0.0, 0.0);
    for (wi, w) in workloads.iter().enumerate() {
        let qb = &reports[wi * SUITE_KINDS.len()];
        let fg = &reports[wi * SUITE_KINDS.len() + 1];
        out.push_str(&format!(
            "{:<14} speedup {:>5.2}x   {:>5.2} -> {:>5.2} pJ/b\n",
            w.name,
            fg.speedup_over(qb),
            qb.energy_per_bit.total().value(),
            fg.energy_per_bit.total().value()
        ));
        logsum += fg.speedup_over(qb).max(1e-9).ln();
        eq += qb.energy_per_bit.total().value();
        ef += fg.energy_per_bit.total().value();
    }
    let n = workloads.len() as f64;
    out.push_str(&format!(
        "\n{} suite: gmean speedup {:.2}x, energy {:.2} -> {:.2} pJ/b ({:.0}%)\n",
        which.label(),
        (logsum / n).exp(),
        eq / n,
        ef / n,
        100.0 * (1.0 - (ef / eq))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SuiteSpec {
        SuiteSpec {
            which: SuiteKind::Compute,
            warmup: 500,
            window: 2_000,
            max_workloads: Some(2),
            telemetry_epoch: None,
        }
    }

    #[test]
    fn cell_table_is_workload_major() {
        let spec = tiny_spec();
        let ws = spec.workloads();
        assert_eq!(spec.cell_count(), 4);
        assert_eq!(spec.cell(&ws, 0).1, DramKind::QbHbm);
        assert_eq!(spec.cell(&ws, 1).1, DramKind::Fgdram);
        assert_eq!(spec.cell(&ws, 2).0.name, ws[1].name);
        assert_eq!(spec.cost(), 4 * 2_500);
    }

    #[test]
    fn suite_kind_parses_both_and_rejects_junk() {
        assert_eq!(SuiteKind::parse("compute"), Some(SuiteKind::Compute));
        assert_eq!(SuiteKind::parse("graphics"), Some(SuiteKind::Graphics));
        assert_eq!(SuiteKind::parse("gfx"), None);
        assert_eq!(SuiteKind::Graphics.all_workloads().len(), 80);
    }

    #[test]
    fn render_is_deterministic_and_order_independent_of_executor() {
        let spec = tiny_spec();
        let ws = spec.workloads();
        // Run the 4 cells out of order, then assemble in input order —
        // exactly what an out-of-order executor does.
        let mut slots: Vec<Option<SuiteCell>> = (0..4).map(|_| None).collect();
        for i in [2usize, 0, 3, 1] {
            let (w, k) = spec.cell(&ws, i);
            slots[i] = Some(spec.run_cell(w, k).expect("cell runs"));
        }
        let reports: Vec<SimReport> =
            slots.iter().map(|c| c.as_ref().unwrap().report.clone()).collect();
        let a = render_report(spec.which, &ws, &reports);
        let b = render_report(spec.which, &ws, &reports);
        assert_eq!(a, b);
        assert!(a.contains("speedup") && a.ends_with("%)\n"));
        assert!(a.contains("compute suite: gmean speedup"));
        assert_eq!(a.lines().count(), ws.len() + 2);
    }

    #[test]
    fn telemetry_cells_carry_series() {
        let mut spec = tiny_spec();
        spec.max_workloads = Some(1);
        spec.telemetry_epoch = Some(1_000);
        let ws = spec.workloads();
        let (w, k) = spec.cell(&ws, 0);
        let cell = spec.run_cell(w, k).expect("cell runs");
        let t = cell.telemetry.expect("telemetry enabled");
        assert!(!t.records.is_empty());
        let jsonl = SuiteSpec::telemetry_jsonl(w, k, &t);
        assert!(jsonl.lines().next().unwrap().contains("\"workload\":"));
    }
}
