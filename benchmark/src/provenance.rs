//! Where a result came from: commit, host and toolchain, recorded in every
//! result file so two files are only compared knowingly.

use std::path::Path;

use crate::json::Json;

/// The benchmark's own directory (`<checkout>/benchmark`), fixed at build
/// time: everything the benchmark writes goes under its `out/`.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checked-out commit, read straight from `.git` (no `git` process):
/// `HEAD` -> ref file -> `packed-refs`. "unknown" outside a git checkout,
/// which is where the driver runs.
pub fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let resolve = || -> Option<String> {
        let head = read("HEAD")?;
        let Some(refname) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Some(h) = read(refname) {
            return Some(h.trim().to_string());
        }
        read("packed-refs")?
            .lines()
            .find_map(|l| l.strip_suffix(refname).map(|h| h.trim().to_string()))
    };
    resolve()
        .filter(|h| h.len() >= 7 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), 0 where the file is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance block of a result file.
pub fn block(seed: u64, seconds: f64, rounds: usize, trace: bool) -> Json {
    Json::obj([
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(env!("FGDRAM_BENCH_RUSTC"))),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("rounds", Json::Num(rounds as f64)),
        ("trace", Json::Bool(trace)),
    ])
}
