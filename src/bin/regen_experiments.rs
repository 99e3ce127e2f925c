//! Regenerates every table and figure of the paper's evaluation and
//! rewrites `EXPERIMENTS.md` with paper-vs-measured values.
//!
//! Usage (from the repository root):
//!   cargo run --release --bin regen-experiments -- [--quick] [--jobs N] [OUT.md]
//!
//! `--quick` uses reduced windows and workload subsets; the checked-in
//! `EXPERIMENTS.md` records which scale produced it in its header.
//! `--jobs N` caps the matrix worker threads (default: all cores); the
//! output is bit-identical at any job count.

use std::fmt::Write as _;
use std::time::Instant;

use fgdram::core::experiments::{self, MatrixRow, Parallelism, Scale};
use fgdram::energy as fgdram_energy;
use fgdram::model::config::DramKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut quick = false;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut out_path = "EXPERIMENTS.md".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            other => out_path = other.to_string(),
        }
    }
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
        "Determinism gate: the numbers below are pinned byte-for-byte by\n\
         `tests/golden_identity.rs` at every `--jobs` level (quick scale). The\n\
         allocation-free engine rebuild reproduced the prior engine exactly; its\n\
         busy-wait fence fix was the one intentional perturbation (sub-0.01%\n\
         latency-mean shifts on two cells), after which this file and the golden\n\
         were regenerated together.\n"
    )?;

    // ---- Figure 1a -----------------------------------------------------
    eprintln!("[{:6.1?}] fig 1a", t0.elapsed());
    let (curve, techs) = experiments::fig1a();
    writeln!(w, "## Figure 1a — DRAM energy budget (60 W envelope)\n")?;
    writeln!(w, "| bandwidth | max energy | paper |")?;
    writeln!(w, "|---|---|---|")?;
    let paper_1a = ["29.3 pJ/b", "14.6", "7.32", "3.66", "1.83*"];
    for (p, pp) in curve.iter().zip(paper_1a) {
        writeln!(
            w,
            "| {:.0} GB/s | {:.2} pJ/b | {} |",
            p.bandwidth.value(),
            p.max_energy.value(),
            pp
        )?;
    }
    writeln!(w, "\n(*implied by P = e x BW; the paper states \"systems with more than 2 TB/s won't be possible\" at HBM2's 3.92 pJ/b and \"4 TB/s would dissipate upwards of 120 W\".)\n")?;
    for t in techs {
        writeln!(
            w,
            "- {}: {:.2} pJ/b -> max {:.0} GB/s in 60 W (paper: GDDR5 536 GB/s @ 14 pJ/b, HBM2 1.9 TB/s @ 3.9 pJ/b)",
            t.name,
            t.energy.value(),
            fgdram_energy::budget::max_bandwidth(t, fgdram_energy::budget::DEFAULT_DRAM_BUDGET)
                .value()
        )?;
    }

    // ---- Figure 1b -----------------------------------------------------
    eprintln!("[{:6.1?}] fig 1b", t0.elapsed());
    let f1b = experiments::fig1b(scale)?;
    writeln!(w, "\n## Figure 1b — HBM2 access energy breakdown\n")?;
    writeln!(w, "| component | measured (pJ/b) | paper |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(w, "| activation | {:.2} | 1.21 |", f1b.activation.value())?;
    writeln!(w, "| on-die data movement | {:.2} | 2.24 |", f1b.data_movement.value())?;
    writeln!(w, "| I/O | {:.2} | ~0.47 |", f1b.io.value())?;
    writeln!(w, "| total | {:.2} | 3.92 |", f1b.total().value())?;

    // ---- Tables 2 and 3 -------------------------------------------------
    eprintln!("[{:6.1?}] tables", t0.elapsed());
    writeln!(w, "\n## Table 2 — DRAM configurations\n")?;
    writeln!(w, "| parameter | HBM2 | QB-HBM | FGDRAM |")?;
    writeln!(w, "|---|---|---|---|")?;
    for row in experiments::table2() {
        writeln!(
            w,
            "| {} | {} | {} | {} |",
            row.name, row.values[0], row.values[1], row.values[2]
        )?;
    }
    writeln!(w, "\nIdentical to the paper's Table 2 by construction (configs are code; see `fgdram-model::config`).\n")?;

    writeln!(w, "## Table 3 — per-operation DRAM energy\n")?;
    writeln!(w, "| component | HBM2 | QB-HBM | FGDRAM | paper (HBM2/QB/FG) |")?;
    writeln!(w, "|---|---|---|---|---|")?;
    let paper3 =
        ["909 / 909 / 227", "1.51 / 1.51 / 0.98", "1.17 / 1.02 / 0.40", "0.80 / 0.77 / 0.77"];
    for (row, pp) in experiments::table3().iter().zip(paper3) {
        writeln!(
            w,
            "| {} | {:.2} | {:.2} | {:.2} | {} |",
            row.name, row.values[0], row.values[1], row.values[2], pp
        )?;
    }

    // ---- Compute matrix (figs 8, 10, 11) --------------------------------
    eprintln!("[{:6.1?}] compute matrix (26 x 3 architectures)...", t0.elapsed());
    let kinds = [DramKind::QbHbm, DramKind::QbHbmSalpSc, DramKind::Fgdram];
    let matrix = experiments::compute_matrix(&kinds, scale)?;

    writeln!(w, "\n## Figure 8 — compute-suite DRAM energy per bit\n")?;
    writeln!(w, "| workload | group | QB-HBM (act+mv+io) | FGDRAM (act+mv+io) | FG/QB |")?;
    writeln!(w, "|---|---|---|---|---|")?;
    let fmt_e = |e: &fgdram_energy::meter::EnergyPerBit| {
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
    writeln!(w, "| metric | measured | paper |")?;
    writeln!(w, "|---|---|---|")?;
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
    writeln!(w, "| workload | group | speedup | paper | QB util | FG util |")?;
    writeln!(w, "|---|---|---|---|---|---|")?;
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
    writeln!(w, "| architecture | act | move | io | total (pJ/b) | paper total |")?;
    writeln!(w, "|---|---|---|---|---|---|")?;
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
    writeln!(w, "| workload | QB-HBM pJ/b | FGDRAM pJ/b | FG/QB | speedup |")?;
    writeln!(w, "|---|---|---|---|---|")?;
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
    writeln!(w, "| metric | measured | paper |")?;
    writeln!(w, "|---|---|---|")?;
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
    writeln!(w, "| alternative | measured slowdown | paper |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(w, "| 128 B atom (prefetch scaling), graphics | {:.1}% | 17% |", atom * 100.0)?;
    writeln!(w, "| 8 bank groups, tCCDL=16 ns, compute | {:.1}% | 10.6% |", deep * 100.0)?;

    // ---- Area ------------------------------------------------------------
    writeln!(w, "\n## Section 5.3 — die area vs HBM2\n")?;
    writeln!(w, "| architecture | measured overhead | paper |")?;
    writeln!(w, "|---|---|---|")?;
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
    writeln!(
        w,
        "\nWithout TSV frequency scaling: QB-HBM +{:.2}% (paper 23.69%), FGDRAM within {:.2}% of it (paper 1.45%).\n",
        fgdram_energy::area::AreaModel::without_tsv_scaling(DramKind::QbHbm).total_overhead() * 100.0,
        (fgdram_energy::area::AreaModel::without_tsv_scaling(DramKind::Fgdram)
            .relative_to(&fgdram_energy::area::AreaModel::without_tsv_scaling(DramKind::QbHbm))
            - 1.0)
            * 100.0
    )?;

    // ---- Per-workload raw table ------------------------------------------
    writeln!(w, "## Raw per-run measurements (compute suite)\n")?;
    writeln!(
        w,
        "| workload | arch | BW (GB/s) | util | pJ/b | hit rate | avg lat (ns) | p95 (ns) |"
    )?;
    writeln!(w, "|---|---|---|---|---|---|---|---|")?;
    let dump = |w: &mut String, rows: &[MatrixRow]| -> std::fmt::Result {
        for row in rows {
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
        Ok(())
    };
    dump(w, &matrix)?;

    writeln!(w, "\n---\nGenerated in {:.0?} at scale {:?}.", t0.elapsed(), scale)?;
    std::fs::write(&out_path, md)?;
    eprintln!("[{:6.1?}] wrote {out_path}", t0.elapsed());
    Ok(())
}
