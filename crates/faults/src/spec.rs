//! The fault-specification grammar.
//!
//! A spec is a comma-separated [`fgdram_model::kv`] list (plus the bare
//! `storm` preset), e.g. `ce=0.01,due=0.001,threshold=8` or
//! `stall=2000x500,wedge=60000,watchdog=5000`. Parsing is strict: unknown
//! keys, malformed numbers, and out-of-range probabilities are
//! [`KvError`]s the CLI maps to a usage failure (exit 2), never a panic.

use fgdram_model::kv::{self, KvError};
use fgdram_model::units::Ns;

/// A parsed, validated fault specification.
///
/// All fault sources default to "off"; [`FaultSpec::is_noop`] is true for
/// a spec that injects nothing, and such a spec leaves the simulation
/// byte-identical to one without the faults layer engaged (only the
/// watchdog bound is honoured).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-bit retention error probability applied to every read of the
    /// 266-bit SECDED codeword (see [`crate::ecc`]).
    pub ber: f64,
    /// Additional direct per-read corrected-error probability.
    pub ce: f64,
    /// Additional direct per-read detected-uncorrectable probability.
    pub due: f64,
    /// Grains (channels) dead from t=0: excluded before any traffic flows.
    pub dead_grains: Vec<u32>,
    /// Banks (`channel.bank`) whose every read returns uncorrectable data.
    pub dead_banks: Vec<(u32, u32)>,
    /// Transient-stall period in ns (0 = off): at every multiple `k` of
    /// the period, channel `k % channels` stops issuing for
    /// [`Self::stall_len`] ns.
    pub stall_period: Ns,
    /// Length of each transient channel stall.
    pub stall_len: Ns,
    /// Time at which every channel wedges permanently (watchdog fodder).
    pub wedge_at: Option<Ns>,
    /// Number of trace commands to perturb for timing-violation injection
    /// (consumed by `--trace-check`; see [`crate::timing::perturb`]).
    pub timing_faults: u32,
    /// Uncorrectable errors a grain may produce before it is excluded.
    pub threshold: u32,
    /// Excluded-grain cap before the run aborts as a fault storm
    /// (`None` = one eighth of the channel count, at least 1).
    pub max_excluded: Option<usize>,
    /// Bounded-retry limit for corrected errors.
    pub retry_limit: u32,
    /// Base retry backoff in ns (doubles per attempt).
    pub backoff_ns: Ns,
    /// Forward-progress watchdog bound in ns.
    pub watchdog_ns: Ns,
}

/// Default watchdog bound, also used when no fault spec is given.
pub const DEFAULT_WATCHDOG_NS: Ns = 1_000_000;

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            ber: 0.0,
            ce: 0.0,
            due: 0.0,
            dead_grains: Vec::new(),
            dead_banks: Vec::new(),
            stall_period: 0,
            stall_len: 0,
            wedge_at: None,
            timing_faults: 0,
            threshold: 16,
            max_excluded: None,
            retry_limit: 1,
            backoff_ns: 50,
            watchdog_ns: DEFAULT_WATCHDOG_NS,
        }
    }
}

impl FaultSpec {
    /// Parses the comma-separated `key=value` grammar.
    ///
    /// Recognised items: `ber=`, `ce=`, `due=` (probabilities);
    /// `dead-grain=<g>` and `dead-bank=<ch>.<b>` (repeatable);
    /// `stall=<period>x<len>`; `wedge=<ns>`; `timing=<n>`;
    /// `threshold=<n>`; `max-excluded=<n>`; `retry=<n>`; `backoff=<ns>`;
    /// `watchdog=<ns>`; and the bare preset `storm`.
    ///
    /// # Errors
    ///
    /// A [`KvError`] naming the first offending item.
    pub fn parse(s: &str) -> Result<FaultSpec, KvError> {
        let mut spec = FaultSpec::default();
        for item in kv::items(s, ',') {
            match item.key {
                "storm" if item.value.is_none() => spec.apply_storm_preset(),
                "ber" => spec.ber = item.prob()?,
                "ce" => spec.ce = item.prob()?,
                "due" => spec.due = item.prob()?,
                "dead-grain" => spec.dead_grains.push(item.num()?),
                "dead-bank" => spec.dead_banks.push(item.pair('.')?),
                "stall" => {
                    (spec.stall_period, spec.stall_len) = item.pair('x')?;
                    if spec.stall_period == 0 {
                        return Err(item.bad());
                    }
                }
                "wedge" => spec.wedge_at = Some(item.num()?),
                "timing" => spec.timing_faults = item.num()?,
                "threshold" => spec.threshold = item.nonzero()?,
                "max-excluded" => spec.max_excluded = Some(item.num()?),
                "retry" => spec.retry_limit = item.num()?,
                "backoff" => spec.backoff_ns = item.num()?,
                "watchdog" => spec.watchdog_ns = item.nonzero()?,
                _ => return Err(item.unknown()),
            }
        }
        Ok(spec)
    }

    /// The aggressive-but-survivable preset behind the bare `storm` item:
    /// enough corrected and uncorrectable errors to exercise retry and
    /// exclusion on every architecture without (usually) tripping the
    /// storm abort.
    fn apply_storm_preset(&mut self) {
        self.ce = 0.02;
        self.due = 0.004;
        self.threshold = 8;
        self.retry_limit = 2;
    }

    /// True when the spec injects no faults at all — the engine is not
    /// engaged and the run stays byte-identical to a no-faults build
    /// (policy knobs like `watchdog=` are still honoured).
    pub fn is_noop(&self) -> bool {
        self.ber == 0.0
            && self.ce == 0.0
            && self.due == 0.0
            && self.dead_grains.is_empty()
            && self.dead_banks.is_empty()
            && self.stall_period == 0
            && self.wedge_at.is_none()
            && self.timing_faults == 0
    }

    /// The effective excluded-grain cap for a stack with `channels` grains.
    pub fn max_excluded_for(&self, channels: usize) -> usize {
        self.max_excluded.unwrap_or((channels / 8).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let s = FaultSpec::parse(
            "ber=1e-5,ce=0.01,due=0.002,dead-grain=3,dead-grain=9,dead-bank=2.1,\
             stall=2000x500,wedge=60000,timing=4,threshold=8,max-excluded=12,\
             retry=3,backoff=25,watchdog=5000",
        )
        .unwrap();
        assert_eq!(s.ber, 1e-5);
        assert_eq!(s.ce, 0.01);
        assert_eq!(s.due, 0.002);
        assert_eq!(s.dead_grains, vec![3, 9]);
        assert_eq!(s.dead_banks, vec![(2, 1)]);
        assert_eq!((s.stall_period, s.stall_len), (2000, 500));
        assert_eq!(s.wedge_at, Some(60_000));
        assert_eq!(s.timing_faults, 4);
        assert_eq!(s.threshold, 8);
        assert_eq!(s.max_excluded, Some(12));
        assert_eq!(s.retry_limit, 3);
        assert_eq!(s.backoff_ns, 25);
        assert_eq!(s.watchdog_ns, 5_000);
        assert!(!s.is_noop());
    }

    #[test]
    fn empty_and_zero_rate_specs_are_noop() {
        assert!(FaultSpec::parse("").unwrap().is_noop());
        assert!(FaultSpec::parse("ber=0,ce=0.0,watchdog=777").unwrap().is_noop());
        assert_eq!(FaultSpec::parse("watchdog=777").unwrap().watchdog_ns, 777);
    }

    #[test]
    fn storm_preset_expands() {
        let s = FaultSpec::parse("storm").unwrap();
        assert!(s.ce > 0.0 && s.due > 0.0 && !s.is_noop());
        // Preset then override: later items win.
        let s = FaultSpec::parse("storm,due=0.5").unwrap();
        assert_eq!(s.due, 0.5);
    }

    #[test]
    fn rejects_malformed_items() {
        assert!(matches!(FaultSpec::parse("bogus=1"), Err(KvError::UnknownKey(_))));
        assert!(matches!(FaultSpec::parse("frob"), Err(KvError::UnknownKey(_))));
        assert!(matches!(FaultSpec::parse("ce=zebra"), Err(KvError::BadValue { .. })));
        assert!(matches!(FaultSpec::parse("ce=1.5"), Err(KvError::BadProbability { .. })));
        assert!(matches!(FaultSpec::parse("dead-bank=3"), Err(KvError::BadValue { .. })));
        assert!(matches!(FaultSpec::parse("stall=0x100"), Err(KvError::BadValue { .. })));
        assert!(matches!(FaultSpec::parse("stall=100"), Err(KvError::BadValue { .. })));
        assert!(matches!(FaultSpec::parse("threshold=0"), Err(KvError::BadValue { .. })));
        assert!(matches!(FaultSpec::parse("watchdog=0"), Err(KvError::BadValue { .. })));
    }

    #[test]
    fn max_excluded_defaults_to_an_eighth() {
        let s = FaultSpec::default();
        assert_eq!(s.max_excluded_for(512), 64);
        assert_eq!(s.max_excluded_for(4), 1);
        assert_eq!(FaultSpec::parse("max-excluded=2").unwrap().max_excluded_for(512), 2);
    }
}
