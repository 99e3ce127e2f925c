//! What one run of one workload produces: checked operations, measured
//! values, and the digest of everything it simulated.

use std::fmt::Debug;

use crate::json::Json;
use crate::metrics::Values;
use crate::stats;

/// What the command line asked of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Mixed into every generated input; 0 keeps the checked-in streams.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// How many times set-up is repeated (`setup_s` is their median).
    pub setups: usize,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `why` is evaluated only on failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(why());
        }
    }
}

/// FNV-1a over the `Debug` rendering of simulated results: `Debug` prints
/// every field, floats in shortest round-trip form, so two digests are
/// equal exactly when every simulated statistic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of one value's `Debug` rendering.
    pub fn of(value: &impl Debug) -> Self {
        let mut d = Digest::new();
        d.bytes(format!("{value:?}").as_bytes());
        d
    }

    /// Sixteen hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted / failed.
    pub checks: Checks,
    /// The measured metrics.
    pub values: Values,
    /// Digest of the simulated results at a fixed simulated point (equal
    /// between any two runs at one seed).
    pub digest: Digest,
    /// Sizes and sample counts, for the result file.
    pub info: Json,
}

/// The `info` block of a result: what one operation is, the workload's
/// sizes, and the sample count with the highest percentile it supports.
pub fn info(operation: &str, sizes: Vec<(&str, Json)>, samples_ms: &[f64]) -> Json {
    let tail = stats::highest_percentile(samples_ms);
    let mut members = vec![("operation", Json::str(operation))];
    members.extend(sizes);
    members.extend([
        ("samples", Json::Num(samples_ms.len() as f64)),
        ("highest_percentile", Json::Num(tail.map_or(0.0, |(p, _)| p as f64))),
        ("highest_percentile_ms", Json::Num(tail.map_or(0.0, |(_, v)| v))),
    ]);
    Json::obj(members)
}
