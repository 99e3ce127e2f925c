//! The repo benchmark: end-to-end and per-layer host-time measurements of
//! the FGDRAM simulator and its job server, taken from outside the library
//! (see `README.md` beside this crate and `BENCHMARK.json` at the root).
//!
//! ```text
//! fgdram-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! fgdram-benchmark run [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! fgdram-benchmark compare A.json B.json
//! fgdram-benchmark selfcheck [--seed N] [--seconds S]
//! fgdram-benchmark manifest
//! ```

mod alloc;
mod compare;
mod engine;
mod json;
mod matrix;
mod metrics;
mod outcome;
mod probes;
mod provenance;
mod seed;
mod serve;
mod sets;
mod shadow;
mod stats;
mod trace;

use std::process::ExitCode;

use json::Json;
use metrics::{Value, END_TO_END, PER_LAYER, WORKLOADS};
use outcome::{Outcome, RunArgs};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command-line options of `run` and `selfcheck`.
#[derive(Debug, Clone)]
pub struct Options {
    /// One workload (the driver's form) or all of them.
    pub workload: Option<String>,
    /// Benchmark seed.
    pub seed: u64,
    /// Measured seconds per workload run.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Smoke mode: tiny, single round, marked non-comparable.
    pub smoke: bool,
    /// Result file.
    pub out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 600.0).ok_or_else(bad)?
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.smoke {
        o.seconds = 1.0;
    }
    Ok(o)
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    if let Some(spec) = engine::ENGINE.iter().find(|s| s.name == name) {
        return if args.trace { engine::run_traced(spec, args) } else { engine::run(spec, args) };
    }
    match (name, args.trace) {
        ("suite_mix", false) => matrix::run(args),
        ("suite_mix", true) => matrix::run_traced(args),
        ("serve_jobs", _) => serve::run(args),
        _ => {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            Err(format!("unknown workload '{name}' (one of {})", names.join(", ")))
        }
    }
}

fn metrics_json(values: &[Value]) -> Json {
    Json::obj(
        values.iter().map(|v| {
            (v.name, Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]))
        }),
    )
}

/// The driver's form: one workload, every metric by name with its unit,
/// and as the last line of standard output the result object.
fn run_one(name: &str, o: &Options) -> ExitCode {
    let args = RunArgs {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        setups: if o.smoke { 1 } else { 5 },
    };
    let mut outcome = match run_workload(name, &args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fgdram-benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    let values = if o.trace {
        outcome.values.per_layer()
    } else {
        outcome.values.set("peak_rss_mb", provenance::peak_rss_mib());
        outcome.values.end_to_end()
    };
    let checks = &outcome.checks;
    let correct = checks.failed == 0;
    for note in &checks.notes {
        eprintln!("fgdram-benchmark: {name}: FAILED {note}");
    }
    println!(
        "{name}  seed {}  {} s  {}  sim_digest {}",
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" },
        outcome.digest.hex()
    );
    for v in &values {
        println!("  {:<40} {:>18.6} {}", v.name, v.value, v.unit);
    }
    println!("  operations: {} attempted, {} failed", checks.attempted, checks.failed);
    let mut result = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics_json(&values)),
    ];
    let last = Json::obj(result.clone()).render();
    if let Some(path) = &o.out {
        result.extend([
            ("workload", Json::str(name)),
            ("sim_digest", Json::str(outcome.digest.hex())),
            ("info", outcome.info.clone()),
        ]);
        if let Err(e) = std::fs::write(path, Json::obj(result).pretty()) {
            eprintln!("fgdram-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift
/// (`metrics::tests` holds the checked-in file to them).
fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(metrics::RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

const USAGE: &str =
    "usage: fgdram-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--out FILE]\n       fgdram-benchmark compare A.json B.json\n       \
fgdram-benchmark selfcheck [--seed N] [--seconds S]\n       fgdram-benchmark manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = || {
        parse_options(rest).map_err(|e| {
            eprintln!("fgdram-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        })
    };
    match cmd {
        "run" => match options() {
            Ok(o) => match o.workload.clone() {
                Some(name) => run_one(&name, &o),
                None => sets::run(&o),
            },
            Err(code) => code,
        },
        "selfcheck" => options().map_or_else(|code| code, |o| sets::selfcheck(&o)),
        "compare" => match rest {
            [a, b] => compare::files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        "manifest" => {
            print!("{}", manifest().pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("fgdram-benchmark: unknown command '{cmd}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
