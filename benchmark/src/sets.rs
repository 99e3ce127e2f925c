//! A *set*: every workload, [`ROUNDS`] times, interleaved, each run a fresh
//! child process — so `peak_rss_mb` is per workload and a slow phase of
//! the host falls on every workload alike. `run` without `--workload`
//! measures one set and writes a result file; `selfcheck` measures two
//! sets of the same build and holds them against the bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::compare::{self, Verdict};
use crate::json::Json;
use crate::metrics::WORKLOADS;
use crate::{engine, matrix, provenance, serve, stats, Options};

/// Interleaved rounds of a set (one under `--smoke`). A constant, not an
/// option: two result files are only comparable at equal rounds.
const ROUNDS: usize = 3;

/// One measured set.
struct Set {
    doc: Json,
    /// Every child exited 0 with `correct`, and each workload's
    /// `sim_digest` was the same in every round.
    ok: bool,
}

fn out_dir() -> PathBuf {
    provenance::bench_dir().join("out")
}

/// Runs one workload once in a child process and returns its `--out` document.
fn child(name: &str, o: &Options, tag: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let file = out_dir().join(format!("run-{}-{tag}-{name}.json", std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--out"]).arg(&file);
    cmd.args(["--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()]);
    cmd.args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; its table would drown the summary.
    let status =
        cmd.stdout(Stdio::null()).status().map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("{name} left no result ({status}): {e}"));
    let _ = std::fs::remove_file(&file);
    let doc = Json::parse(&text?).map_err(|e| format!("{name}: unreadable result: {e}"))?;
    if !status.success() {
        eprintln!("fgdram-benchmark: {name} exited with {status}");
    }
    Ok(doc)
}

fn measure(o: &Options, tag: &str) -> Result<Set, String> {
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let rounds = if o.smoke { 1 } else { ROUNDS };
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..rounds {
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            eprintln!("[{tag}] round {}/{rounds}: {name}", round + 1);
            runs[i].push(child(name, o, tag)?);
        }
    }
    let mut ok = true;
    let workloads = WORKLOADS.iter().zip(&runs).map(|((name, _), docs)| {
        let first = &docs[0];
        let sum = |key: &str| docs.iter().filter_map(|d| d.get(key)?.as_f64()).sum::<f64>();
        let digests_agree = docs.iter().all(|d| compare::same_simulation(first, d));
        let all_correct = docs.iter().all(|d| d.get("correct") == Some(&Json::Bool(true)));
        if !digests_agree {
            eprintln!("fgdram-benchmark: {name}: sim_digest differs between rounds at one seed");
        }
        ok &= digests_agree && all_correct;
        let metrics =
            first.get("metrics").map_or(&[][..], Json::members).iter().map(|(metric, m)| {
                let values: Vec<f64> = docs
                    .iter()
                    .filter_map(|d| d.path(&format!("metrics/{metric}/value"))?.as_f64())
                    .collect();
                let unit = m.get("unit").cloned().unwrap_or(Json::Null);
                (metric.clone(), Json::obj([("unit", unit), ("values", Json::nums(&values))]))
            });
        let doc = Json::obj([
            ("sim_digest", first.get("sim_digest").cloned().unwrap_or(Json::Null)),
            ("digests_agree", Json::Bool(digests_agree)),
            ("attempted", Json::Num(sum("attempted"))),
            ("failed", Json::Num(sum("failed"))),
            ("info", first.get("info").cloned().unwrap_or(Json::Null)),
            ("metrics", Json::obj(metrics)),
        ]);
        (*name, doc)
    });
    let workloads = Json::obj(workloads.collect::<Vec<_>>());
    let mut provenance = provenance::block(o.seed, o.seconds, rounds, o.trace);
    if let Json::Obj(m) = &mut provenance {
        let slices = engine::ENGINE.iter().map(|s| (s.name, Json::Num(s.slice_ns as f64)));
        m.push(("engine_slice_ns".into(), Json::obj(slices)));
        m.push(("engine_warmup_ns".into(), Json::Num(engine::WARMUP_NS as f64)));
        let cell = [matrix::WARMUP_NS, matrix::WINDOW_NS].map(|ns| ns as f64);
        m.push(("suite_cell_warmup_window_ns".into(), Json::nums(&cell)));
        m.push(("suite_jobs".into(), Json::Num(matrix::jobs() as f64)));
        m.push(("serve_closed_loop_clients".into(), Json::Num(serve::CLIENTS as f64)));
    }
    let doc = Json::obj([
        ("schema", Json::str("fgdram-benchmark/1")),
        ("comparable", Json::Bool(!o.smoke)),
        ("provenance", provenance),
        ("workloads", workloads),
    ]);
    Ok(Set { doc, ok })
}

fn summarise(doc: &Json) {
    let Some(workloads) = doc.get("workloads") else { return };
    for (name, w) in workloads.members() {
        let num = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let samples = w.path("info/samples").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{name}  sim_digest {}  operations {} attempted {} failed  ({samples} timed samples in round 1)",
            w.get("sim_digest").and_then(Json::as_str).unwrap_or("?"),
            num("attempted"),
            num("failed")
        );
        for (metric, m) in w.get("metrics").map_or(&[][..], Json::members) {
            let values = m.get("values").map(Json::as_nums).unwrap_or_default();
            let (q1, med, q3) = stats::quartiles(&values);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "  {metric:<40} {med:>16.4} {unit:<10} (q1 {q1:.4}, q3 {q3:.4}, {} rounds)",
                values.len()
            );
        }
    }
}

fn write(doc: &Json, path: &Path) -> bool {
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("fgdram-benchmark: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// `run` without `--workload`: one set, summarised and written out.
pub fn run(o: &Options) -> ExitCode {
    let set = match measure(o, "run") {
        Ok(set) => set,
        Err(e) => {
            eprintln!("fgdram-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    summarise(&set.doc);
    if o.smoke {
        println!(
            "smoke run: sizes are about a tenth of a real run and the numbers are not comparable"
        );
    }
    let default = out_dir().join(format!(
        "result-seed{}{}.json",
        o.seed,
        if o.trace { "-trace" } else { "" }
    ));
    let written = write(&set.doc, &o.out.as_ref().map_or(default, PathBuf::from));
    if set.ok && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `selfcheck`: two sets of the same build must agree within the bounds,
/// digest for digest. A benchmark that fails this measures the host.
pub fn selfcheck(o: &Options) -> ExitCode {
    let mut sets = Vec::new();
    for tag in ["a", "b"] {
        match measure(o, tag) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("fgdram-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let doc = Json::obj([
        ("schema", Json::str("fgdram-benchmark/selfcheck/1")),
        ("a", sets[0].doc.clone()),
        ("b", sets[1].doc.clone()),
    ]);
    let default = out_dir().join(format!("selfcheck-seed{}.json", o.seed));
    let written = write(&doc, &o.out.as_ref().map_or(default, PathBuf::from));
    let cmp = compare::documents(&sets[0].doc, &sets[1].doc);
    cmp.print();
    let agree = cmp.count(Verdict::Worse) == 0
        && cmp.count(Verdict::Unresolved) == 0
        && cmp.digest_changed.is_empty();
    println!(
        "selfcheck: {}",
        if agree { "the two sets agree within every bound" } else { "DISAGREEMENT" }
    );
    if agree && written && sets.iter().all(|s| s.ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
