//! The runtime fault engine: a seeded, deterministic oracle the system
//! consults on every read completion, plus the bookkeeping behind the
//! graceful-degradation policy (bounded retry, grain exclusion, fault
//! storm abort) and the CE/DUE/retry telemetry series.
//!
//! Determinism: the engine owns one [`SmallRng`] seeded from the CLI
//! `--fault-seed`, and consumes exactly one draw per *non-dead-bank* read
//! classification, in completion order — which is itself deterministic
//! because the event loop is single-threaded per simulation and matrix
//! cells each build a fresh engine. No wall clock, no thread identity.

use crate::ecc::{EccOutcome, SecdedModel};
use crate::spec::FaultSpec;
use fgdram_model::rng::SmallRng;
use fgdram_model::units::Ns;
use fgdram_telemetry::{ComponentRecord, Sampled};

/// What the degradation policy decided after an uncorrectable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DueOutcome {
    /// Below the grain's failure threshold; poison the data and continue.
    Tolerated,
    /// The grain crossed its failure threshold and must be excluded from
    /// the address map.
    Exclude,
    /// Exclusion would exceed the configured cap: the stack is in an
    /// unrecoverable fault storm and the run must abort.
    Storm,
}

/// Cumulative fault counters, surfaced in the end-of-run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Corrected (single-bit) errors observed.
    pub ce: u64,
    /// Detected-uncorrectable errors observed.
    pub due: u64,
    /// Read retries issued by the CE retry policy.
    pub retries: u64,
    /// Grains excluded from the address map (including dead-at-build).
    pub excluded: u64,
}

/// Seeded fault oracle plus degradation-policy state for one simulation.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    ecc: SecdedModel,
    rng: SmallRng,
    dead_banks: Vec<(u32, u32)>,
    /// Per-channel DUE counts driving threshold-based exclusion.
    due_per_channel: Vec<u32>,
    excluded: Vec<bool>,
    threshold: u32,
    max_excluded: usize,
    retry_limit: u32,
    backoff_ns: Ns,
    stall_period: Ns,
    stall_len: Ns,
    /// Next stall index to emit (stalls fire at `k * stall_period`).
    next_stall_k: u64,
    wedge_at: Option<Ns>,
    watchdog_ns: Ns,
    counters: FaultCounters,
    excluded_total: usize,
    watchdog_slack: f64,
    channels: usize,
}

impl FaultEngine {
    /// Builds the engine for a stack with `channels` grains.
    pub fn new(spec: &FaultSpec, seed: u64, channels: usize) -> FaultEngine {
        FaultEngine {
            ecc: SecdedModel::new(spec.ber, spec.ce, spec.due),
            rng: SmallRng::seed_from_u64(seed),
            dead_banks: spec.dead_banks.clone(),
            due_per_channel: vec![0; channels],
            excluded: vec![false; channels],
            threshold: spec.threshold,
            max_excluded: spec.max_excluded_for(channels),
            retry_limit: spec.retry_limit,
            backoff_ns: spec.backoff_ns.max(1),
            stall_period: spec.stall_period,
            stall_len: spec.stall_len,
            next_stall_k: 1,
            wedge_at: spec.wedge_at,
            watchdog_ns: spec.watchdog_ns,
            counters: FaultCounters::default(),
            excluded_total: 0,
            watchdog_slack: 0.0,
            channels,
        }
    }

    /// Classifies one read completion from `channel`/`bank`.
    ///
    /// Dead banks return [`EccOutcome::Uncorrectable`] without consuming a
    /// PRNG draw, so adding a dead bank never perturbs the fault stream of
    /// the healthy ones.
    pub fn classify_read(&mut self, channel: u32, bank: u32) -> EccOutcome {
        if self.dead_banks.contains(&(channel, bank)) {
            self.counters.due += 1;
            return EccOutcome::Uncorrectable;
        }
        if self.ecc.is_clean() {
            return EccOutcome::Clean;
        }
        let outcome = self.ecc.classify(self.rng.random_f64());
        match outcome {
            EccOutcome::Corrected => self.counters.ce += 1,
            EccOutcome::Uncorrectable => self.counters.due += 1,
            EccOutcome::Clean => {}
        }
        outcome
    }

    /// Applies the degradation policy after an uncorrectable error on
    /// `channel`. The caller performs the actual address-map exclusion on
    /// [`DueOutcome::Exclude`] and aborts on [`DueOutcome::Storm`].
    pub fn record_due(&mut self, channel: u32) -> DueOutcome {
        let ch = channel as usize;
        self.due_per_channel[ch] += 1;
        if self.excluded[ch] || self.due_per_channel[ch] < self.threshold {
            return DueOutcome::Tolerated;
        }
        if self.excluded_total + 1 > self.max_excluded {
            return DueOutcome::Storm;
        }
        self.excluded[ch] = true;
        self.excluded_total += 1;
        self.counters.excluded += 1;
        DueOutcome::Exclude
    }

    /// Marks a grain excluded outside the DUE path (dead-at-build grains).
    pub fn exclude_now(&mut self, channel: u32) {
        let ch = channel as usize;
        if !self.excluded[ch] {
            self.excluded[ch] = true;
            self.excluded_total += 1;
            self.counters.excluded += 1;
        }
    }

    /// Counts one CE-policy retry.
    pub fn note_retry(&mut self) {
        self.counters.retries += 1;
    }

    /// Maximum retries per request before a CE is delivered as corrected
    /// data without further redundancy.
    pub fn retry_limit(&self) -> u32 {
        self.retry_limit
    }

    /// Exponential backoff before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Ns {
        let shift = attempt.saturating_sub(1).min(20);
        self.backoff_ns << shift
    }

    /// Transient channel stalls that have become due by `now`, as
    /// `(channel, stalled_until)` pairs. Each stall `k` fires at
    /// `k * stall_period`, hits channel `k % channels`, and holds it until
    /// `k * stall_period + stall_len`.
    pub fn stalls_due(&mut self, now: Ns) -> Vec<(u32, Ns)> {
        let mut out = Vec::new();
        if self.stall_period == 0 {
            return out;
        }
        while self.next_stall_k.saturating_mul(self.stall_period) <= now {
            let k = self.next_stall_k;
            self.next_stall_k += 1;
            let at = k * self.stall_period;
            out.push(((k % self.channels as u64) as u32, at + self.stall_len));
        }
        out
    }

    /// True exactly once, when the configured wedge time has been reached:
    /// the caller stalls every channel forever and lets the watchdog
    /// convert the silence into a typed error.
    pub fn take_wedge(&mut self, now: Ns) -> bool {
        match self.wedge_at {
            Some(t) if now >= t => {
                self.wedge_at = None;
                true
            }
            _ => false,
        }
    }

    /// The forward-progress watchdog bound.
    pub fn watchdog_ns(&self) -> Ns {
        self.watchdog_ns
    }

    /// Cumulative counters for the end-of-run report.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Grains currently excluded from the address map.
    pub fn excluded_total(&self) -> usize {
        self.excluded_total
    }

    /// The exclusion cap beyond which the run aborts as a fault storm.
    pub fn max_excluded(&self) -> usize {
        self.max_excluded
    }

    /// Updates the watchdog-slack gauge sampled into telemetry.
    pub fn set_watchdog_slack(&mut self, slack: Ns) {
        self.watchdog_slack = slack as f64;
    }

    /// Zeroes the event counters at the end of warmup. Exclusion state
    /// deliberately persists — a grain dead during warmup stays dead.
    pub fn reset_counters(&mut self) {
        self.counters.ce = 0;
        self.counters.due = 0;
        self.counters.retries = 0;
        self.counters.excluded = self.excluded_total as u64;
    }
}

impl Sampled for FaultEngine {
    fn component(&self) -> &'static str {
        "faults"
    }

    fn sample(&self, out: &mut ComponentRecord) {
        out.counter("ce", self.counters.ce);
        out.counter("due", self.counters.due);
        out.counter("retries", self.counters.retries);
    }

    fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
        epoch.gauge("excluded", self.excluded_total as f64);
        epoch.gauge("watchdog_slack_ns", self.watchdog_slack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> FaultSpec {
        FaultSpec::parse(s).expect("valid spec")
    }

    #[test]
    fn same_seed_same_classification_stream() {
        let s = spec("ce=0.2,due=0.05");
        let mut a = FaultEngine::new(&s, 9, 8);
        let mut b = FaultEngine::new(&s, 9, 8);
        for i in 0..1_000 {
            assert_eq!(a.classify_read(i % 8, 0), b.classify_read(i % 8, 0));
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().ce > 0 && a.counters().due > 0);
    }

    #[test]
    fn dead_bank_is_always_due_and_preserves_stream() {
        let s = spec("ce=0.2,dead-bank=3.1");
        let mut with = FaultEngine::new(&s, 5, 8);
        let mut without = FaultEngine::new(&spec("ce=0.2"), 5, 8);
        for _ in 0..100 {
            assert_eq!(with.classify_read(3, 1), EccOutcome::Uncorrectable);
        }
        // The dead-bank reads consumed no PRNG draws: healthy banks see
        // the identical fault stream either way.
        for _ in 0..200 {
            assert_eq!(with.classify_read(0, 0), without.classify_read(0, 0));
        }
    }

    #[test]
    fn threshold_crossing_excludes_then_tolerates() {
        let mut e = FaultEngine::new(&spec("due=1,threshold=3"), 1, 8);
        assert_eq!(e.record_due(2), DueOutcome::Tolerated);
        assert_eq!(e.record_due(2), DueOutcome::Tolerated);
        assert_eq!(e.record_due(2), DueOutcome::Exclude);
        assert_eq!(e.excluded_total(), 1);
        // Further DUEs on an excluded grain are tolerated (in-flight reads
        // drain while the map already routes around it).
        assert_eq!(e.record_due(2), DueOutcome::Tolerated);
        assert_eq!(e.excluded_total(), 1);
    }

    #[test]
    fn exceeding_the_exclusion_cap_is_a_storm() {
        let mut e = FaultEngine::new(&spec("due=1,threshold=1,max-excluded=2"), 1, 8);
        assert_eq!(e.record_due(0), DueOutcome::Exclude);
        assert_eq!(e.record_due(1), DueOutcome::Exclude);
        assert_eq!(e.record_due(2), DueOutcome::Storm);
        // Storm does not mutate exclusion state; the caller aborts.
        assert_eq!(e.excluded_total(), 2);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let e = FaultEngine::new(&spec("ce=0.1,backoff=50"), 1, 8);
        assert_eq!(e.backoff(1), 50);
        assert_eq!(e.backoff(2), 100);
        assert_eq!(e.backoff(3), 200);
    }

    #[test]
    fn stalls_fire_periodically_and_round_robin() {
        let mut e = FaultEngine::new(&spec("stall=100x30"), 1, 4);
        assert!(e.stalls_due(99).is_empty());
        assert_eq!(e.stalls_due(250), vec![(1, 130), (2, 230)]);
        // Already-emitted stalls never repeat.
        assert_eq!(e.stalls_due(300), vec![(3, 330)]);
        // Channel index wraps round-robin.
        assert_eq!(e.stalls_due(500), vec![(0, 430), (1, 530)]);
    }

    #[test]
    fn wedge_fires_exactly_once() {
        let mut e = FaultEngine::new(&spec("wedge=1000"), 1, 4);
        assert!(!e.take_wedge(999));
        assert!(e.take_wedge(1000));
        assert!(!e.take_wedge(2000));
    }

    #[test]
    fn reset_keeps_exclusions_but_zeroes_events() {
        let mut e = FaultEngine::new(&spec("due=1,threshold=1"), 1, 8);
        assert_eq!(e.record_due(5), DueOutcome::Exclude);
        e.note_retry();
        e.reset_counters();
        assert_eq!(e.counters().retries, 0);
        assert_eq!(e.counters().due, 0);
        assert_eq!(e.excluded_total(), 1);
        assert_eq!(e.counters().excluded, 1);
    }

    #[test]
    fn sampled_schema_is_stable() {
        let e = FaultEngine::new(&spec("ce=0.1"), 1, 4);
        let mut epoch = e.snapshot();
        e.derive(&mut epoch, 1);
        let names: Vec<&str> = epoch.fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["ce", "due", "retries", "excluded", "watchdog_slack_ns"]);
    }
}
