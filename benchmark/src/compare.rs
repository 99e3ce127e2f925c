//! `compare A.json B.json`: one row per workload and metric, with both
//! medians, A's quartiles, the ratio and its base, and a verdict held
//! against the metric's bound; and one `failed_share` row per workload,
//! which is `worse` on any increase.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats;

/// How B's values read against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the distance between A's quartiles.
    Better,
    /// Neither better nor worse by the rules here.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own quartile spread exceeds the bound, so a difference of the
    /// size the bound polices cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs `b` against A's runs `a` of one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    if med_a == 0.0 {
        return if med_b == 0.0 { Verdict::Same } else { Verdict::Unresolved };
    }
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = stats::spread(a);
    if spread > bound {
        // Too noisy to police, unless every B run beats every A run.
        let clean_win = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if clean_win { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && beats(med_b, med_a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One compared metric.
#[derive(Debug)]
pub struct Row {
    /// The verdict (`None` for metrics without a bound).
    pub verdict: Option<Verdict>,
    line: String,
}

/// The outcome of comparing two result documents.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One row per workload and metric present in both.
    pub rows: Vec<Row>,
    /// Workloads whose `sim_digest` differs between the documents.
    pub digest_changed: Vec<String>,
}

impl Comparison {
    /// Rows with this verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == Some(v)).count()
    }

    /// Prints the table.
    pub fn print(&self) {
        println!(
            "{:<11} {:<38} {:>14} {:>14} {:>14} {:>14} {:>9}  verdict",
            "workload", "metric", "A median", "A q1", "A q3", "B median", "B/A"
        );
        for r in &self.rows {
            println!("{}", r.line);
        }
        for w in &self.digest_changed {
            println!("{w}: simulated statistics changed (sim_digest differs between A and B)");
        }
        println!(
            "{} better, {} same, {} worse, {} unresolved (ratios are B's median over A's median)",
            self.count(Verdict::Better),
            self.count(Verdict::Same),
            self.count(Verdict::Worse),
            self.count(Verdict::Unresolved)
        );
    }
}

/// Whether two results of one workload simulated the same thing: equal
/// `sim_digest`, and equal per-block digests (engine workloads) for as
/// many blocks as both ran.
pub fn same_simulation(a: &Json, b: &Json) -> bool {
    let blocks = |r: &Json| match r.path("info/block_digests") {
        Some(Json::Arr(d)) => d.clone(),
        _ => Vec::new(),
    };
    a.get("sim_digest") == b.get("sim_digest")
        && blocks(a).iter().zip(&blocks(b)).all(|(x, y)| x == y)
}

/// The `failed_share` row: failed / attempted operations, `worse` on any
/// increase — a gain does not count when more operations fail.
fn failed_share_row(workload: &str, ra: &Json, rb: &Json) -> Row {
    let share = |r: &Json| {
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        // A result without a single operation has measured nothing.
        if num("attempted") > 0.0 {
            num("failed") / num("attempted")
        } else {
            1.0
        }
    };
    let (fa, fb) = (share(ra), share(rb));
    let verdict = if fb > fa {
        Verdict::Worse
    } else if fb < fa {
        Verdict::Better
    } else {
        Verdict::Same
    };
    let line = format!(
        "{workload:<11} {:<38} {fa:>14.6} {:>14} {:>14} {fb:>14.6} {:>9}  {}",
        "failed_share",
        "-",
        "-",
        "-",
        verdict.label()
    );
    Row { verdict: Some(verdict), line }
}

/// Compares result documents `a` (the base) and `b`.
pub fn documents(a: &Json, b: &Json) -> Comparison {
    let mut out = Comparison::default();
    let (Some(wa), Some(wb)) = (a.get("workloads"), b.get("workloads")) else {
        return out;
    };
    for (workload, ra) in wa.members() {
        let Some(rb) = wb.get(workload) else { continue };
        if !same_simulation(ra, rb) {
            out.digest_changed.push(workload.clone());
        }
        out.rows.push(failed_share_row(workload, ra, rb));
        let Some(ma) = ra.get("metrics") else { continue };
        for (metric, va) in ma.members() {
            let values = |v: &Json| v.get("values").map(Json::as_nums).unwrap_or_default();
            let xa = values(va);
            let xb = rb.path(&format!("metrics/{metric}")).map(values).unwrap_or_default();
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (q1, med_a, q3) = stats::quartiles(&xa);
            let med_b = stats::median(&xb);
            let verdict = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .map(|m| verdict(&xa, &xb, m.better, m.bound));
            let ratio = if med_a == 0.0 { 0.0 } else { med_b / med_a };
            let line = format!(
                "{workload:<11} {metric:<38} {med_a:>14.4} {q1:>14.4} {q3:>14.4} {med_b:>14.4} {ratio:>9.4}  {}",
                verdict.map_or("-", Verdict::label)
            );
            out.rows.push(Row { verdict, line });
        }
    }
    out
}

/// Reads a result file; of a two-set `selfcheck` file, the first set.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc.get("a").cloned().unwrap_or(doc))
}

/// Why two result documents cannot be compared, if they cannot: a smoke
/// run on either side, or sets measured with different settings.
pub fn incomparable(a: &Json, b: &Json) -> Option<String> {
    for (tag, doc) in [("A", a), ("B", b)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            return Some(format!("{tag} is not a comparable result (a smoke run?)"));
        }
    }
    ["seed", "seconds_per_run", "rounds", "trace"].iter().find_map(|k| {
        let of = |doc: &Json| {
            doc.path(&format!("provenance/{k}")).map_or("missing".to_string(), Json::render)
        };
        let (va, vb) = (of(a), of(b));
        (va != vb).then(|| format!("{k} differs: A {va} against B {vb}"))
    })
}

/// `compare A.json B.json`: exit 1 when any metric is worse beyond its
/// bound or more operations failed, exit 2 when the files cannot be
/// compared.
pub fn files(a: &str, b: &str) -> ExitCode {
    let (da, db) = match (load(a), load(b)) {
        (Ok(da), Ok(db)) => (da, db),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fgdram-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for (tag, doc) in [("A", &da), ("B", &db)] {
        let p =
            |k: &str| doc.path(&format!("provenance/{k}")).map_or("?".to_string(), Json::render);
        println!(
            "{tag}: commit {} seed {} seconds {} rounds {} nproc {}",
            p("git_commit"),
            p("seed"),
            p("seconds_per_run"),
            p("rounds"),
            p("nproc")
        );
    }
    if let Some(why) = incomparable(&da, &db) {
        eprintln!("fgdram-benchmark: refusing to compare: {why}");
        return ExitCode::from(2);
    }
    let cmp = documents(&da, &db);
    cmp.print();
    if cmp.count(Verdict::Worse) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |f: f64| a.map(|x| x * f);
        // Lower is better, bound 10 %.
        assert_eq!(verdict(&a, &shift(1.05), Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &shift(1.12), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(0.90), Better::Lower, 0.10), Verdict::Better);
        // Higher is better flips the direction.
        assert_eq!(verdict(&a, &shift(0.85), Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(1.20), Better::Higher, 0.10), Verdict::Better);
        // A base noisier than the bound cannot resolve a regression...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &shift(1.2), Better::Lower, 0.10), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &shift(0.5), Better::Lower, 0.10), Verdict::Better);
    }

    /// A one-workload result document.
    fn doc(rate: f64, digest: &str, failed: f64, seed: f64) -> Json {
        let metrics = Json::obj([(
            "sim_ns_per_s",
            Json::obj([("values", Json::nums(&[rate, rate * 1.01, rate * 0.99]))]),
        )]);
        let blocks = Json::Arr(vec![Json::str(digest), Json::str("b2")]);
        let gups = Json::obj([
            ("sim_digest", Json::str(digest)),
            ("attempted", Json::Num(400.0)),
            ("failed", Json::Num(failed)),
            ("info", Json::obj([("block_digests", blocks)])),
            ("metrics", metrics),
        ]);
        let provenance = [("seed", seed), ("seconds_per_run", 15.0), ("rounds", 3.0)];
        Json::obj([
            ("comparable", Json::Bool(true)),
            ("provenance", Json::obj(provenance.map(|(k, v)| (k, Json::Num(v))))),
            ("workloads", Json::obj([("gups_fg", gups)])),
        ])
    }

    #[test]
    fn documents_pair_up_by_workload_and_metric() {
        let cmp = documents(&doc(1000.0, "aa", 0.0, 0.0), &doc(700.0, "bb", 0.0, 0.0));
        assert_eq!(cmp.rows.len(), 2);
        assert_eq!(cmp.count(Verdict::Worse), 1);
        assert_eq!(cmp.digest_changed, ["gups_fg"]);
        let cmp = documents(&doc(1000.0, "aa", 0.0, 0.0), &doc(1004.0, "aa", 0.0, 0.0));
        assert_eq!((cmp.count(Verdict::Same), cmp.digest_changed.len()), (2, 0));
    }

    #[test]
    fn more_failures_are_worse_whatever_the_speed() {
        let cmp = documents(&doc(1000.0, "aa", 0.0, 0.0), &doc(2000.0, "aa", 1.0, 0.0));
        assert_eq!((cmp.count(Verdict::Worse), cmp.count(Verdict::Better)), (1, 1));
        let cmp = documents(&doc(1000.0, "aa", 2.0, 0.0), &doc(1000.0, "aa", 2.0, 0.0));
        assert_eq!(cmp.count(Verdict::Worse), 0);
    }

    #[test]
    fn runs_simulated_the_same_while_their_common_blocks_agree() {
        let run = |blocks: &[&str]| {
            let blocks = Json::Arr(blocks.iter().map(|b| Json::str(*b)).collect());
            Json::obj([
                ("sim_digest", Json::str("b1")),
                ("info", Json::obj([("block_digests", blocks)])),
            ])
        };
        // A longer run only adds blocks; a differing block is a change.
        assert!(same_simulation(&run(&["b1", "b2"]), &run(&["b1", "b2", "b3"])));
        assert!(!same_simulation(&run(&["b1", "b2"]), &run(&["b1", "x2", "b3"])));
    }

    #[test]
    fn files_of_different_settings_are_refused() {
        let a = doc(1000.0, "aa", 0.0, 0.0);
        assert_eq!(incomparable(&a, &a), None);
        assert!(incomparable(&a, &doc(1000.0, "aa", 0.0, 7.0)).is_some_and(|w| w.contains("seed")));
        let mut smoke = a.clone();
        if let Json::Obj(m) = &mut smoke {
            m[0].1 = Json::Bool(false);
        }
        assert!(incomparable(&a, &smoke).is_some_and(|w| w.starts_with("B is not")));
    }
}
