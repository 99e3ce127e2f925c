//! Regenerates every table and figure of the paper's evaluation, plus
//! the design-space sections built on the same model, and rewrites
//! `EXPERIMENTS.md` with paper-vs-measured values.
//!
//! Usage (from the repository root):
//!   cargo run --release --bin regen-experiments -- [--quick] [--jobs N] [OUT.md]
//!
//! `--quick` uses reduced windows and workload subsets; the checked-in
//! `EXPERIMENTS.md` records which scale produced it in its header.
//! `--jobs N` caps the cell executor's worker threads (default: all
//! cores); the output is bit-identical at any job count.

use std::fmt::Write as _;
use std::time::Instant;

use fgdram::core::experiments::{self, MatrixRow, Parallelism, Scale, SweepRow};
use fgdram::energy::area::AreaModel;
use fgdram::energy::budget;
use fgdram::energy::meter::EnergyPerBit;
use fgdram::model::config::{DramConfig, DramKind};

const USAGE: &str = "usage: regen-experiments [--quick] [--jobs N] [OUT.md]";

#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    /// Worker cap; 0 = available parallelism.
    jobs: usize,
    out_path: String,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { quick: false, jobs: 0, out_path: "EXPERIMENTS.md".to_string() };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--jobs" => {
                let n = args.next().ok_or(format!("--jobs needs a value\n{USAGE}"))?;
                parsed.jobs = n.parse().map_err(|e| format!("--jobs {n}: {e}\n{USAGE}"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            path => parsed.out_path = path.to_string(),
        }
    }
    Ok(parsed)
}

/// Writes a Markdown table header row and its separator.
fn head(w: &mut String, cols: &[&str]) -> std::fmt::Result {
    writeln!(w, "| {} |\n|{}", cols.join(" | "), "---|".repeat(cols.len()))
}

/// Writes a sweep as a table: one row per config, labelled by `param`,
/// with GB/s and pJ/b per workload.
fn sweep_table(
    w: &mut String,
    rows: &[SweepRow],
    param: &str,
    label: impl Fn(&DramConfig) -> String,
) -> std::fmt::Result {
    let names: Vec<String> =
        rows[0].reports.iter().map(|r| format!("{0} GB/s | {0} pJ/b", r.workload)).collect();
    writeln!(w, "| {param} | {} |\n|---|{}", names.join(" | "), "---|---|".repeat(names.len()))?;
    for row in rows {
        let cells = row.reports.iter().map(|r| {
            format!("{:.1} | {:.2}", r.bandwidth.value(), r.energy_per_bit.total().value())
        });
        writeln!(w, "| {} | {} |", label(&row.cfg), cells.collect::<Vec<_>>().join(" | "))?;
    }
    Ok(())
}

/// How far workload `i`'s bandwidth spreads over a sweep: `max / min - 1`,
/// in percent.
fn bw_spread_pct(rows: &[SweepRow], i: usize) -> f64 {
    let bw = rows.iter().map(|r| r.reports[i].bandwidth.value());
    (bw.clone().fold(f64::MIN, f64::max) / bw.fold(f64::MAX, f64::min) - 1.0) * 100.0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Args { quick, jobs, out_path } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let parallelism = Parallelism { jobs, progress: !quick };
    let mut scale = if quick { Scale::quick() } else { Scale::full() };
    scale.parallelism = parallelism;
    let mut ablation_scale = if quick {
        Scale::quick()
    } else {
        // Ablations need the suite spread but not the longest windows.
        Scale { warmup: 15_000, window: 60_000, max_workloads: Some(12), parallelism }
    };
    ablation_scale.parallelism = parallelism;
    let t0 = Instant::now();
    let mut md = String::new();
    let w = &mut md;

    writeln!(w, "# EXPERIMENTS — paper vs. measured\n")?;
    writeln!(
        w,
        "Reproduction of every table and figure in *Fine-Grained DRAM* (MICRO 2017).\n\
         Regenerate with `cargo run --release --bin regen-experiments{}` from the\n\
         repository root{}. Absolute numbers come from synthetic workloads on a\n\
         from-scratch simulator (see DESIGN.md); the paper-shape columns state\n\
         what must hold and does.\n",
        if quick { " -- --quick" } else { "" },
        if quick { " (this file: `--quick` scale)" } else { "" }
    )?;
    writeln!(
        w,
        "Determinism gate: `tests/golden_identity.rs` pins byte for byte, at every\n\
         `--jobs` level, the quick-scale matrix rows of the first four compute\n\
         workloads, one telemetry run and one fault run. `ci.sh` regenerates this\n\
         file with `--quick --jobs 2` and fails on any difference but the final\n\
         `Generated in` line.\n"
    )?;

    // ---- Figure 1a -----------------------------------------------------
    eprintln!("[{:6.1?}] fig 1a", t0.elapsed());
    let (curve, techs) = experiments::fig1a();
    writeln!(w, "## Figure 1a — DRAM energy budget (60 W envelope)\n")?;
    head(w, &["bandwidth", "max energy", "paper"])?;
    let paper_1a = ["29.3 pJ/b", "14.6", "7.32", "3.66", "1.83*"];
    for (p, pp) in curve.iter().zip(paper_1a) {
        let (bw, e) = (p.bandwidth.value(), p.max_energy.value());
        writeln!(w, "| {bw:.0} GB/s | {e:.2} pJ/b | {pp} |")?;
    }
    writeln!(w, "\n(*implied by P = e x BW; the paper states \"systems with more than 2 TB/s won't be possible\" at HBM2's 3.92 pJ/b and \"4 TB/s would dissipate upwards of 120 W\".)\n")?;
    for t in techs {
        writeln!(
            w,
            "- {}: {:.2} pJ/b -> max {:.0} GB/s in 60 W (paper: GDDR5 536 GB/s @ 14 pJ/b, HBM2 1.9 TB/s @ 3.9 pJ/b)",
            t.name,
            t.energy.value(),
            budget::max_bandwidth(t, budget::DEFAULT_DRAM_BUDGET).value()
        )?;
    }

    // ---- Figure 1b -----------------------------------------------------
    eprintln!("[{:6.1?}] fig 1b", t0.elapsed());
    let f1b = experiments::fig1b(scale)?;
    writeln!(w, "\n## Figure 1b — HBM2 access energy breakdown\n")?;
    head(w, &["component", "measured (pJ/b)", "paper"])?;
    writeln!(w, "| activation | {:.2} | 1.21 |", f1b.activation.value())?;
    writeln!(w, "| on-die data movement | {:.2} | 2.24 |", f1b.data_movement.value())?;
    writeln!(w, "| I/O | {:.2} | ~0.47 |", f1b.io.value())?;
    writeln!(w, "| total | {:.2} | 3.92 |", f1b.total().value())?;

    // ---- Section 1: 4 TB/s in 60 W, simulated ----------------------------
    eprintln!("[{:6.1?}] 4-stack systems", t0.elapsed());
    let watts = budget::DEFAULT_DRAM_BUDGET.value();
    writeln!(w, "\n## Section 1 — 4 TB/s within {watts:.0} W, simulated on four stacks\n")?;
    writeln!(w, "A 120-SM GPU at doubled demand over four stacks of each architecture; DRAM power is pJ/b x bandwidth.\n")?;
    head(w, &["workload", "arch", "BW (GB/s)", "pJ/b", "DRAM power (W)"])?;
    let mut over = Vec::new();
    for row in experiments::exascale(ablation_scale)? {
        for r in &row.reports {
            let (name, arch, e, bw) =
                (&row.workload.name, r.kind.label(), r.energy_per_bit, r.bandwidth);
            let power = e.total().power_at(bw).value();
            writeln!(
                w,
                "| {name} | {arch} | {:.1} | {:.2} | {power:.1} |",
                bw.value(),
                e.total().value()
            )?;
            if power > watts {
                over.push(format!("{name} on {arch}"));
            }
        }
    }
    let over = if over.is_empty() { "none".to_string() } else { over.join(", ") };
    writeln!(w, "\nOver {watts:.0} W: {over}.")?;

    // ---- Tables 2 and 3 -------------------------------------------------
    eprintln!("[{:6.1?}] tables", t0.elapsed());
    writeln!(w, "\n## Table 2 — DRAM configurations\n")?;
    head(w, &["parameter", "HBM2", "QB-HBM", "FGDRAM"])?;
    for row in experiments::table2() {
        writeln!(w, "| {} | {} |", row.name, row.values.join(" | "))?;
    }
    writeln!(w, "\nIdentical to the paper's Table 2 by construction (configs are code; see `fgdram-model::config`).\n")?;

    writeln!(w, "## Table 3 — per-operation DRAM energy\n")?;
    head(w, &["component", "HBM2", "QB-HBM", "FGDRAM", "paper (HBM2/QB/FG)"])?;
    let paper3 =
        ["909 / 909 / 227", "1.51 / 1.51 / 0.98", "1.17 / 1.02 / 0.40", "0.80 / 0.77 / 0.77"];
    for (row, pp) in experiments::table3().iter().zip(paper3) {
        writeln!(
            w,
            "| {} | {:.2} | {:.2} | {:.2} | {} |",
            row.name, row.values[0], row.values[1], row.values[2], pp
        )?;
    }

    // ---- Section 3: activation granularity and I/O -----------------------
    writeln!(w, "\n## Section 3 — access energy vs atoms per activate (energy model)\n")?;
    writeln!(w, "Reads at toggle rate 0.35; pJ/b.\n")?;
    let apa = experiments::ATOMS_PER_ACTIVATE;
    let by_kind = experiments::energy_vs_locality();
    head(w, &[&["atoms per activate"][..], &by_kind.map(|(k, _)| k.label())].concat())?;
    for (i, n) in apa.iter().enumerate() {
        let cells: Vec<String> = by_kind.iter().map(|(_, e)| format!("{:.2}", e[i])).collect();
        writeln!(w, "| {n} | {} |", cells.join(" | "))?;
    }
    let target = budget::TARGET_2PJ.energy.value();
    let reach: Vec<String> = by_kind
        .iter()
        .map(|(k, e)| match e.iter().position(|&e| e <= target) {
            Some(i) => format!("{} at {} atoms per activate", k.label(), apa[i]),
            None => format!("{} not within {} atoms", k.label(), apa[apa.len() - 1]),
        })
        .collect();
    writeln!(w, "\nFirst at or below {target:.0} pJ/b: {}.", reach.join("; "))?;

    writeln!(w, "\n## Section 3.5 — FGDRAM I/O: PODL vs GRS (energy model)\n")?;
    let act = experiments::IO_ACTIVITY;
    let pct = act.map(|a| format!("{:.0}% activity", a * 100.0));
    head(w, &["I/O", &pct[0], &pct[1]])?;
    let io = experiments::io_alternatives();
    for (name, e) in &io {
        writeln!(w, "| {name} | {:.2} pJ/b | {:.2} pJ/b |", e[0], e[1])?;
    }
    let extra = io[1].1[0] - io[0].1[0];
    writeln!(w, "\nAt {} {} costs {extra:+.2} pJ/b against {}.", pct[0], io[1].0, io[0].0)?;

    eprintln!("[{:6.1?}] row-size sweep", t0.elapsed());
    let rows = experiments::row_size_sweep(ablation_scale)?;
    writeln!(w, "\n## Section 3 — activation granularity: FGDRAM row size\n")?;
    sweep_table(w, &rows, "row (B)", |c| c.row_bytes.to_string())?;
    let e: Vec<f64> = rows.iter().map(|r| r.reports[0].energy_per_bit.total().value()).collect();
    writeln!(
        w,
        "\nGUPS pJ/b {} as rows shrink from {} B to {} B ({:.2} -> {:.2}); bandwidth spans {:.1}% on GUPS and {:.1}% on STREAM.",
        if e.windows(2).all(|p| p[1] < p[0]) { "falls at every step" } else { "does not fall at every step" },
        rows[0].cfg.row_bytes,
        rows[rows.len() - 1].cfg.row_bytes,
        e[0],
        e[e.len() - 1],
        bw_spread_pct(&rows, 0),
        bw_spread_pct(&rows, 1),
    )?;

    eprintln!("[{:6.1?}] grain-count sweep", t0.elapsed());
    let rows = experiments::grain_sweep(ablation_scale)?;
    writeln!(w, "\n## Section 3 — grain count: one 1 TB/s stack in 64 to 512 channels\n")?;
    sweep_table(w, &rows, "grains (GB/s each)", |c| {
        format!("{} ({:.0})", c.channels, c.channel_bandwidth().value())
    })?;
    let bw: Vec<f64> = rows.iter().map(|r| r.reports[0].bandwidth.value()).collect();
    let best = (0..bw.len()).fold(0, |b, i| if bw[i] > bw[b] { i } else { b });
    writeln!(
        w,
        "\nGUPS bandwidth peaks at {} grains ({:.1} GB/s; {:.1} GB/s at {}). bfs bandwidth spans {:.1}%.",
        rows[best].cfg.channels,
        bw[best],
        bw[bw.len() - 1],
        rows[rows.len() - 1].cfg.channels,
        bw_spread_pct(&rows, 1),
    )?;

    // ---- Compute matrix (figs 8, 10, 11) --------------------------------
    eprintln!("[{:6.1?}] compute matrix (26 x 3 architectures)...", t0.elapsed());
    let kinds = [DramKind::QbHbm, DramKind::QbHbmSalpSc, DramKind::Fgdram];
    let matrix = experiments::compute_matrix(&kinds, scale)?;

    writeln!(w, "\n## Figure 8 — compute-suite DRAM energy per bit\n")?;
    head(w, &["workload", "group", "QB-HBM (act+mv+io)", "FGDRAM (act+mv+io)", "FG/QB"])?;
    let fmt_e = |e: &EnergyPerBit| {
        format!(
            "{:.2} ({:.2}+{:.2}+{:.2})",
            e.total().value(),
            e.activation.value(),
            e.data_movement.value(),
            e.io.value()
        )
    };
    for row in &matrix {
        let qb = row.report(DramKind::QbHbm);
        let fg = row.report(DramKind::Fgdram);
        writeln!(
            w,
            "| {} | {} | {} | {} | {:.0}% |",
            row.workload.name,
            if row.workload.memory_intensive { "mem-intensive" } else { "low-BW" },
            fmt_e(&qb.energy_per_bit),
            fmt_e(&fg.energy_per_bit),
            100.0 * fg.energy_per_bit.total().value() / qb.energy_per_bit.total().value(),
        )?;
    }
    let s = experiments::summarise(&matrix, DramKind::QbHbm, DramKind::Fgdram);
    writeln!(w, "\n**Summary vs paper (Section 5.1):**\n")?;
    head(w, &["metric", "measured", "paper"])?;
    writeln!(w, "| QB-HBM average energy | {:.2} pJ/b | 3.83 pJ/b |", s.base_energy)?;
    writeln!(w, "| FGDRAM average energy | {:.2} pJ/b | 1.95 pJ/b |", s.other_energy)?;
    writeln!(
        w,
        "| FGDRAM energy reduction | {:.0}% | 49% |",
        100.0 * (1.0 - s.other_energy / s.base_energy)
    )?;
    writeln!(w, "| activation energy reduction | {:.0}% | 65% |", s.activation_reduction * 100.0)?;
    writeln!(w, "| data-movement energy reduction | {:.0}% | 48% |", s.movement_reduction * 100.0)?;

    writeln!(w, "\n## Figure 10 — performance normalised to QB-HBM\n")?;
    head(w, &["workload", "group", "speedup", "paper", "QB util", "FG util"])?;
    let paper_speedups: &[(&str, &str)] = &[
        ("GUPS", "3.4x"),
        ("nw", "2.1x"),
        ("bfs", "2.1x"),
        ("sp", "1.6x"),
        ("kmeans", "1.6x"),
        ("MiniAMR", "1.5x"),
        ("MCB", "improved (bank-limited exception)"),
        ("STREAM", "~1.0x"),
        ("streamcluster", "~1.0x"),
        ("LULESH", "~1.0x"),
    ];
    for row in &matrix {
        let qb = row.report(DramKind::QbHbm);
        let fg = row.report(DramKind::Fgdram);
        let paper = paper_speedups
            .iter()
            .find(|(n, _)| *n == row.workload.name)
            .map(|(_, v)| *v)
            .unwrap_or("~1.0x (not memory intensive)");
        writeln!(
            w,
            "| {} | {} | {:.2}x | {} | {:.1}% | {:.1}% |",
            row.workload.name,
            if row.workload.memory_intensive { "mem-intensive" } else { "low-BW" },
            fg.speedup_over(qb),
            paper,
            qb.utilisation * 100.0,
            fg.utilisation * 100.0,
        )?;
    }
    writeln!(
        w,
        "\n**Geometric-mean speedup: {:.1}% (paper: 19% average).** \
         Mean DRAM read latency falls {:.0}% (paper Section 5.2: ~40%).\n",
        (s.gmean_speedup - 1.0) * 100.0,
        s.latency_reduction * 100.0
    )?;

    // ---- Figure 11 / Section 5.4 ----------------------------------------
    eprintln!("[{:6.1?}] fig 11", t0.elapsed());
    writeln!(w, "## Figure 11 / Section 5.4 — prior-work baseline (QB-HBM+SALP+SC)\n")?;
    head(w, &["architecture", "act", "move", "io", "total (pJ/b)", "paper total"])?;
    let paper11 =
        [("QB-HBM", "3.83"), ("QB-HBM+SALP+SC", "~2.95 (-23%)"), ("FGDRAM", "1.95 (-49%)")];
    for (kind, (_, ptotal)) in kinds.iter().zip(paper11) {
        let (mut a, mut m, mut i) = (0.0, 0.0, 0.0);
        for row in &matrix {
            let Some(r) = row.try_report(*kind) else { continue };
            let e = r.energy_per_bit;
            a += e.activation.value();
            m += e.data_movement.value();
            i += e.io.value();
        }
        let n = matrix.len().max(1) as f64;
        writeln!(
            w,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {} |",
            kind.label(),
            a / n,
            m / n,
            i / n,
            (a + m + i) / n,
            ptotal
        )?;
    }
    let sc = experiments::summarise(&matrix, DramKind::Fgdram, DramKind::QbHbmSalpSc);
    let sc_vs_qb = experiments::summarise(&matrix, DramKind::QbHbm, DramKind::QbHbmSalpSc);
    writeln!(
        w,
        "\n- QB-HBM+SALP+SC performance vs FGDRAM: {:+.1}% (paper: +1.3%) — \"nearly identical levels\".\n\
         - QB-HBM+SALP+SC activation reduction vs QB-HBM: {:.0}% (paper: 74%), with data movement unchanged.\n\
         - FGDRAM uses {:.0}% less energy than QB-HBM+SALP+SC (paper: 34%).\n",
        (sc.gmean_speedup - 1.0) * 100.0,
        sc_vs_qb.activation_reduction * 100.0,
        100.0 * (1.0 - s.other_energy / (sc_vs_qb.other_energy)),
    )?;

    // ---- Figure 9 --------------------------------------------------------
    eprintln!("[{:6.1?}] graphics matrix (80 x 2)...", t0.elapsed());
    let gfx = experiments::graphics_matrix(&[DramKind::QbHbm, DramKind::Fgdram], scale)?;
    writeln!(w, "## Figure 9 — graphics suite DRAM energy\n")?;
    head(w, &["workload", "QB-HBM pJ/b", "FGDRAM pJ/b", "FG/QB", "speedup"])?;
    for row in &gfx {
        // This matrix holds two of the four architectures; tolerate the
        // partial rows rather than panicking on a missing kind.
        let (Some(qb), Some(fg)) =
            (row.try_report(DramKind::QbHbm), row.try_report(DramKind::Fgdram))
        else {
            continue;
        };
        writeln!(
            w,
            "| {} | {:.2} | {:.2} | {:.0}% | {:.2}x |",
            row.workload.name,
            qb.energy_per_bit.total().value(),
            fg.energy_per_bit.total().value(),
            100.0 * fg.energy_per_bit.total().value() / qb.energy_per_bit.total().value(),
            fg.speedup_over(qb),
        )?;
    }
    let g = experiments::summarise(&gfx, DramKind::QbHbm, DramKind::Fgdram);
    writeln!(w, "\n**Summary vs paper (Sections 5.1-5.2):**\n")?;
    head(w, &["metric", "measured", "paper"])?;
    writeln!(
        w,
        "| FGDRAM graphics energy reduction | {:.0}% | 35% |",
        100.0 * (1.0 - g.other_energy / g.base_energy)
    )?;
    writeln!(
        w,
        "| graphics performance difference | {:+.1}% | < 1% |",
        (g.gmean_speedup - 1.0) * 100.0
    )?;

    // ---- Ablations -------------------------------------------------------
    eprintln!("[{:6.1?}] ablation: 128 B atom", t0.elapsed());
    let atom = experiments::ablation_atom128(ablation_scale)?;
    eprintln!("[{:6.1?}] ablation: deep bank groups", t0.elapsed());
    let deep = experiments::ablation_deep_bank_groups(ablation_scale)?;
    writeln!(w, "\n## Section 2.2 / 2.3 — rejected bandwidth-scaling alternatives\n")?;
    head(w, &["alternative", "measured slowdown", "paper"])?;
    writeln!(w, "| 128 B atom (prefetch scaling), graphics | {:.1}% | 17% |", atom * 100.0)?;
    writeln!(w, "| 8 bank groups, tCCDL=16 ns, compute | {:.1}% | 10.6% |", deep * 100.0)?;

    // ---- Section 5.2: loaded latency --------------------------------------
    eprintln!("[{:6.1?}] loaded latency", t0.elapsed());
    let curve = experiments::loaded_latency(ablation_scale)?;
    writeln!(w, "\n## Section 5.2 — loaded latency: GUPS at rising offered load\n")?;
    head(
        w,
        &["think (ns)", "QB-HBM GB/s", "QB-HBM latency (ns)", "FGDRAM GB/s", "FGDRAM latency (ns)"],
    )?;
    for row in &curve {
        let (qb, fg) = (row.report(DramKind::QbHbm), row.report(DramKind::Fgdram));
        writeln!(
            w,
            "| {} | {:.1} | {:.0} | {:.1} | {:.0} |",
            row.workload.think_ns,
            qb.bandwidth.value(),
            qb.avg_read_latency_ns,
            fg.bandwidth.value(),
            fg.avg_read_latency_ns
        )?;
    }
    let shape = [DramKind::QbHbm, DramKind::Fgdram].map(|k| {
        let lat = |r: &MatrixRow| r.report(k).avg_read_latency_ns;
        let peak = curve.iter().map(|r| r.report(k).bandwidth.value()).fold(0.0, f64::max);
        let worst = curve.iter().fold(&curve[0], |a, r| if lat(r) > lat(a) { r } else { a });
        let last = &curve[curve.len() - 1];
        let rest = if lat(last) < lat(worst) {
            format!(", above the {:.0} ns at think {} ns", lat(last), last.workload.think_ns)
        } else {
            String::new()
        };
        format!(
            "{} peaks at {peak:.1} GB/s; its latency is highest at think {} ns ({:.0} ns){rest}",
            k.label(),
            worst.workload.think_ns,
            lat(worst)
        )
    });
    writeln!(w, "\n{}.", shape.join(". "))?;

    // ---- Area ------------------------------------------------------------
    writeln!(w, "\n## Section 5.3 — die area vs HBM2\n")?;
    head(w, &["architecture", "measured overhead", "paper"])?;
    let paper_area = [
        (DramKind::Hbm2, "baseline"),
        (DramKind::QbHbm, "+8.57%"),
        (DramKind::QbHbmSalpSc, "+3.2% over QB-HBM"),
        (DramKind::Fgdram, "+10.36% (+1.65% over QB-HBM)"),
    ];
    for (kind, total, _) in experiments::area_table() {
        let pp = paper_area.iter().find(|(k, _)| *k == kind).map(|(_, v)| *v).unwrap();
        writeln!(w, "| {} | +{:.2}% | {} |", kind.label(), total * 100.0, pp)?;
    }
    let [qb, fg] = [DramKind::QbHbm, DramKind::Fgdram].map(AreaModel::without_tsv_scaling);
    writeln!(
        w,
        "\nWithout TSV frequency scaling: QB-HBM +{:.2}% (paper 23.69%), FGDRAM within {:.2}% of it (paper 1.45%).\n",
        qb.total_overhead() * 100.0,
        (fg.relative_to(&qb) - 1.0) * 100.0
    )?;

    // ---- Per-workload raw table ------------------------------------------
    writeln!(w, "## Raw per-run measurements (compute suite)\n")?;
    head(
        w,
        &["workload", "arch", "BW (GB/s)", "util", "pJ/b", "hit rate", "avg lat (ns)", "p95 (ns)"],
    )?;
    for row in &matrix {
        for r in &row.reports {
            writeln!(
                w,
                "| {} | {} | {:.1} | {:.1}% | {:.2} | {:.1}% | {:.0} | {} |",
                row.workload.name,
                r.kind.label(),
                r.bandwidth.value(),
                r.utilisation * 100.0,
                r.energy_per_bit.total().value(),
                r.row_hit_rate * 100.0,
                r.avg_read_latency_ns,
                r.p95_read_latency_ns
            )?;
        }
    }

    writeln!(w, "\n---\nGenerated in {:.0?} at scale {:?}.", t0.elapsed(), scale)?;
    std::fs::write(&out_path, md)?;
    eprintln!("[{:6.1?}] wrote {out_path}", t0.elapsed());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_and_path_parse() {
        let want = Args { quick: true, jobs: 2, out_path: "out.md".to_string() };
        assert_eq!(parse(&["--quick", "--jobs", "2", "out.md"]), Ok(want));
        assert_eq!(parse(&[]).map(|a| a.out_path), Ok("EXPERIMENTS.md".to_string()));
    }

    /// A mistyped flag must not become the output path of a full run.
    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = parse(&["--quik"]).expect_err("--quik is not a flag");
        assert!(err.contains("unknown flag --quik") && err.contains(USAGE), "{err}");
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "two"]).is_err());
    }
}
