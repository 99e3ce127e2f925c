//! `perf-snapshot`: the simulator's performance trajectory, one JSON file
//! per run.
//!
//! Runs the STREAM- and GUPS-like suite microbenches on the QB-HBM and
//! FGDRAM stacks and writes `BENCH_<date>.json` with, per bench and in
//! total: simulated nanoseconds, wall-clock milliseconds, achieved
//! simulated-cycles/sec (the DRAM clock is modelled at 1 GHz, so one
//! simulated cycle is one simulated nanosecond), and peak RSS. The file is
//! hand-rolled JSON (this binary is registry-free, like the rest of the
//! repository).
//!
//! Usage:
//!   perf-snapshot [--smoke] [--out PATH] [--warmup NS] [--window NS] [--repeat N]
//!                 [--jobs N] [--compare OLD.json] [--fail-below RATIO]
//!
//! `--compare OLD.json` prints per-bench and aggregate cycles/sec ratios
//! of this run against a previous snapshot (new / old; above 1.0 is
//! faster). With `--fail-below RATIO` the process exits 1 when the
//! aggregate ratio falls below the bound — the CI perf-regression guard.
//! Ratios are only meaningful against a snapshot taken with the same
//! horizon and jobs level on the same class of host. A baseline whose
//! bench-name set does not match this run, or that is missing a required
//! field, is a typed configuration error (exit 3) — never a panic, and
//! never a silent partial comparison.
//!
//! `--repeat N` runs the whole cell matrix N times (interleaved, so host
//! noise hits every cell alike) and keeps the minimum wall time per cell —
//! the standard noise-robust estimator for a shared host.
//!
//! `--jobs N` runs each round's cells on N worker threads through the same
//! sharded executor the `suite` command uses. Co-running cells contend for
//! the host, so per-cell wall times are only comparable between snapshots
//! taken at the same `jobs` level — which is why the header records it,
//! along with the git commit and the host core count (provenance for the
//! perf trajectory).
//!
//! `--smoke` shrinks the horizon to a CI-friendly second or two and marks
//! the snapshot as non-comparable. Exit codes follow the simulator
//! convention: 2 usage, 3-7 per `SimError::exit_code`, 6 for I/O.

use std::io::Write as _;
use std::time::Instant;

use fgdram::core::experiments::{self, Parallelism, Scale};
use fgdram::core::SimError;
use fgdram::core::SystemBuilder;
use fgdram::model::config::{ConfigError, DramKind};
use fgdram::model::units::Ns;
use fgdram::workloads::{suites, Workload};

struct Flags {
    smoke: bool,
    out: Option<String>,
    warmup: Ns,
    window: Ns,
    repeat: usize,
    jobs: usize,
    compare: Option<String>,
    fail_below: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf-snapshot [--smoke] [--out PATH] [--warmup NS] [--window NS] [--repeat N] \
         [--jobs N] [--compare OLD.json] [--fail-below RATIO]"
    );
    std::process::exit(2);
}

fn parse_flags() -> Flags {
    let mut f = Flags {
        smoke: false,
        out: None,
        warmup: 2_000,
        window: 20_000,
        repeat: 1,
        jobs: 1,
        compare: None,
        fail_below: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(args.next().unwrap_or_else(|| usage())),
            "--warmup" => {
                f.warmup = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--window" => {
                f.window = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--repeat" => {
                f.repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => {
                f.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--compare" => f.compare = Some(args.next().unwrap_or_else(|| usage())),
            "--fail-below" => {
                f.fail_below = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| r.is_finite() && *r > 0.0)
                    .map(Some)
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if f.fail_below.is_some() && f.compare.is_none() {
        usage();
    }
    if f.smoke {
        f.warmup = 500;
        f.window = 1_500;
    }
    f
}

/// Days-from-civil inverse (Howard Hinnant's algorithm): UTC date from the
/// system clock without a date dependency.
fn today_utc() -> (i64, u32, u32) {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Peak resident set size in KiB from `/proc/self/status` (0 when the
/// platform does not expose it).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// The current git commit hash, read straight from `.git` (no `git`
/// binary invocation): `HEAD` -> ref file -> `packed-refs`, "unknown"
/// when any link in that chain is missing (e.g. a source tarball).
fn git_commit() -> String {
    fn from_git_dir(git: &std::path::Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            // Detached HEAD: the file holds the hash itself.
            return Some(head.to_string());
        };
        if let Ok(h) = std::fs::read_to_string(git.join(refname)) {
            return Some(h.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(_, name)| name.trim() == refname)
            .map(|(hash, _)| hash.to_string())
    }
    let candidates = [
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".git"),
        std::path::PathBuf::from(".git"),
    ];
    candidates
        .iter()
        .find_map(|p| from_git_dir(p))
        .filter(|h| h.len() >= 7 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

struct BenchResult {
    name: String,
    workload: String,
    kind: DramKind,
    simulated_ns: Ns,
    wall_ms: f64,
}

impl BenchResult {
    fn cycles_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.simulated_ns as f64 * 1_000.0 / self.wall_ms
        }
    }
}

fn bench_cell(w: &Workload, kind: DramKind, f: &Flags) -> Result<BenchResult, SimError> {
    let t0 = Instant::now();
    let report = SystemBuilder::new(kind).workload(w.clone()).run(f.warmup, f.window)?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    // The report only proves the run happened; the metric is wall time
    // over the whole horizon (warmup + window), which is what a sweep pays.
    let _ = report;
    Ok(BenchResult {
        name: format!("{}/{}", w.name, kind.label()),
        workload: w.name.clone(),
        kind,
        simulated_ns: f.warmup + f.window,
        wall_ms,
    })
}

/// One full pass over the cell matrix, on `--jobs` worker threads via the
/// same sharded executor the `suite` command uses (`--jobs 1` takes its
/// strictly sequential path). Results come back in workload-major input
/// order regardless of job count.
fn run_round(f: &Flags) -> Result<Vec<BenchResult>, SimError> {
    let mut workloads = Vec::new();
    for name in ["STREAM", "GUPS"] {
        workloads.push(suites::by_name(name).ok_or_else(|| SimError::Io {
            context: format!("workload {name} not in suite"),
            source: std::io::Error::other("unknown workload"),
        })?);
    }
    let kinds = [DramKind::QbHbm, DramKind::Fgdram];
    let scale = Scale {
        warmup: f.warmup,
        window: f.window,
        max_workloads: None,
        parallelism: Parallelism::jobs(f.jobs),
    };
    experiments::run_cells(&workloads, &kinds, scale, |w, k| {
        let r = bench_cell(w, k, f)?;
        eprintln!(
            "[perf-snapshot] {:<16} {:>10} sim-ns in {:>9.1} ms -> {:>12.0} cycles/sec",
            r.name,
            r.simulated_ns,
            r.wall_ms,
            r.cycles_per_sec()
        );
        Ok(r)
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render(results: &[BenchResult], f: &Flags, date: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"fgdram-perf-snapshot-v1\",\n");
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str(&format!("  \"smoke\": {},\n", f.smoke));
    out.push_str(&format!("  \"warmup_ns\": {},\n", f.warmup));
    out.push_str(&format!("  \"window_ns\": {},\n", f.window));
    out.push_str(&format!("  \"repeat\": {},\n", f.repeat));
    out.push_str(&format!("  \"jobs\": {},\n", f.jobs));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    out.push_str(&format!("  \"git_commit\": \"{}\",\n", json_escape(&git_commit())));
    out.push_str("  \"benches\": [\n");
    let (mut total_ns, mut total_ms) = (0u64, 0f64);
    for (i, r) in results.iter().enumerate() {
        total_ns += r.simulated_ns;
        total_ms += r.wall_ms;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"kind\": \"{}\", \
             \"simulated_ns\": {}, \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}}}{}\n",
            json_escape(&r.name),
            json_escape(&r.workload),
            json_escape(r.kind.label()),
            r.simulated_ns,
            r.wall_ms,
            r.cycles_per_sec(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let total_cps = if total_ms > 0.0 { total_ns as f64 * 1_000.0 / total_ms } else { 0.0 };
    out.push_str(&format!(
        "  \"totals\": {{\"simulated_ns\": {}, \"wall_ms\": {:.3}, \
         \"cycles_per_sec\": {:.1}, \"peak_rss_kb\": {}}}\n",
        total_ns,
        total_ms,
        total_cps,
        peak_rss_kb(),
    ));
    out.push_str("}\n");
    out
}

/// Per-bench and aggregate cycles/sec pulled out of a previous snapshot.
struct Baseline {
    benches: Vec<(String, f64)>,
    total_cps: f64,
}

/// Extracts a `"key": "value"` string field from one rendered JSON line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.find('"').map(|end| &rest[..end])
}

/// Extracts a `"key": number` field from one rendered JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the fields `--compare` needs out of a snapshot this binary
/// wrote. A stateful line scan, not a JSON parser (the build is
/// registry-free): a bench's `name` precedes its `cycles_per_sec` and the
/// `totals` object comes after the bench array in every v1 rendering,
/// whether one-line-per-bench or pretty-printed. Every structural defect
/// is a typed reason, never a panic or a silent partial parse.
fn parse_snapshot(body: &str) -> Result<Baseline, String> {
    if !body.contains("\"schema\": \"fgdram-perf-snapshot-v1\"") {
        return Err("missing the fgdram-perf-snapshot-v1 schema marker".to_string());
    }
    let mut benches: Vec<(String, f64)> = Vec::new();
    let mut total_cps = None;
    let mut pending_name: Option<String> = None;
    let mut in_totals = false;
    for line in body.lines() {
        let t = line.trim();
        if let Some(name) = str_field(t, "name") {
            if let Some(prev) = pending_name.replace(name.to_string()) {
                return Err(format!("bench \"{prev}\" has no cycles_per_sec field"));
            }
        }
        if t.starts_with("\"totals\"") {
            in_totals = true;
        }
        if let Some(cps) = num_field(t, "cycles_per_sec") {
            if in_totals {
                total_cps = Some(cps);
            } else if let Some(name) = pending_name.take() {
                benches.push((name, cps));
            }
        }
    }
    if let Some(prev) = pending_name {
        return Err(format!("bench \"{prev}\" has no cycles_per_sec field"));
    }
    if benches.is_empty() {
        return Err("no bench entries".to_string());
    }
    let total_cps =
        total_cps.ok_or_else(|| "totals object has no cycles_per_sec field".to_string())?;
    Ok(Baseline { benches, total_cps })
}

/// The baseline must cover exactly the benches this run produced — a
/// ratio over half-matched sets would silently compare different work.
fn check_bench_sets(results: &[BenchResult], base: &Baseline, path: &str) -> Result<(), SimError> {
    let missing: Vec<&str> = results
        .iter()
        .filter(|r| !base.benches.iter().any(|(n, _)| *n == r.name))
        .map(|r| r.name.as_str())
        .collect();
    let extra: Vec<&str> = base
        .benches
        .iter()
        .filter(|(n, _)| !results.iter().any(|r| r.name == *n))
        .map(|(n, _)| n.as_str())
        .collect();
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    Err(SimError::Config(ConfigError::Artifact {
        reason: format!(
            "snapshot {path} bench set does not match this run \
             (missing from baseline: [{}]; only in baseline: [{}])",
            missing.join(", "),
            extra.join(", ")
        ),
    }))
}

/// Prints per-bench and aggregate new/old ratios; returns the aggregate.
/// Callers have already verified the name sets match via
/// [`check_bench_sets`].
fn report_comparison(results: &[BenchResult], base: &Baseline, path: &str) -> f64 {
    eprintln!("[perf-snapshot] comparison against {path} (new/old; >1.0 is faster):");
    for r in results {
        let new_cps = r.cycles_per_sec();
        match base.benches.iter().find(|(n, _)| *n == r.name) {
            Some(&(_, old_cps)) if old_cps > 0.0 => {
                eprintln!(
                    "[perf-snapshot]   {:<16} {:>12.0} vs {:>12.0} cycles/sec = {:.2}x",
                    r.name,
                    new_cps,
                    old_cps,
                    new_cps / old_cps
                );
            }
            _ => eprintln!("[perf-snapshot]   {:<16} baseline cycles/sec is zero, skipped", r.name),
        }
    }
    let (total_ns, total_ms) =
        results.iter().fold((0u64, 0f64), |(ns, ms), r| (ns + r.simulated_ns, ms + r.wall_ms));
    let new_total = if total_ms > 0.0 { total_ns as f64 * 1_000.0 / total_ms } else { 0.0 };
    let ratio = if base.total_cps > 0.0 { new_total / base.total_cps } else { 0.0 };
    eprintln!(
        "[perf-snapshot]   {:<16} {:>12.0} vs {:>12.0} cycles/sec = {:.2}x",
        "aggregate", new_total, base.total_cps, ratio
    );
    ratio
}

fn main() {
    let f = parse_flags();
    let mut results: Vec<BenchResult> = Vec::new();
    for round in 0..f.repeat {
        match run_round(&f) {
            Ok(round_results) if round == 0 => results = round_results,
            Ok(round_results) => {
                for (best, r) in results.iter_mut().zip(round_results) {
                    if r.wall_ms < best.wall_ms {
                        *best = r;
                    }
                }
            }
            Err(e) => {
                eprintln!("perf-snapshot: {e}");
                std::process::exit(e.exit_code() as i32);
            }
        }
    }
    let (y, m, d) = today_utc();
    let date = format!("{y:04}-{m:02}-{d:02}");
    let path = f.out.clone().unwrap_or_else(|| format!("BENCH_{date}.json"));
    let body = render(&results, &f, &date);
    let write = |p: &str, b: &str| -> std::io::Result<()> {
        let mut file = std::fs::File::create(p)?;
        file.write_all(b.as_bytes())
    };
    if let Err(e) = write(&path, &body) {
        eprintln!("perf-snapshot: I/O error ({path}): {e}");
        std::process::exit(6);
    }
    if let Some(old_path) = &f.compare {
        let old_body = match std::fs::read_to_string(old_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf-snapshot: I/O error ({old_path}): {e}");
                std::process::exit(6);
            }
        };
        let base = match parse_snapshot(&old_body) {
            Ok(b) => b,
            Err(reason) => {
                let e = SimError::Config(ConfigError::Artifact {
                    reason: format!("snapshot {old_path}: {reason}"),
                });
                eprintln!("perf-snapshot: {e}");
                std::process::exit(e.exit_code() as i32);
            }
        };
        if let Err(e) = check_bench_sets(&results, &base, old_path) {
            eprintln!("perf-snapshot: {e}");
            std::process::exit(e.exit_code() as i32);
        }
        let ratio = report_comparison(&results, &base, old_path);
        if let Some(bound) = f.fail_below {
            if ratio < bound {
                eprintln!(
                    "perf-snapshot: aggregate ratio {ratio:.2}x below the {bound:.2}x bound \
                     — performance regression"
                );
                std::process::exit(1);
            }
        }
    }
    println!("{path}");
}
