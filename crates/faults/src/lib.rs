//! # fgdram-faults
//!
//! Deterministic fault injection and resilience modelling for the FGDRAM
//! reproduction.
//!
//! FGDRAM's many small grains change the reliability story relative to a
//! coarse-grained HBM2 stack: a dead grain costs 1/512 of capacity rather
//! than a whole wide channel, and 32 B atoms force per-access SECDED ECC
//! instead of wide-word codes. This crate supplies the fault side of that
//! story as composable, seeded models the `core` system wires into the
//! completion path:
//!
//! - [`spec::FaultSpec`] — the `key=value` fault-spec grammar behind the
//!   CLI's `--faults` flag (bit-error rate, direct CE/DUE rates, dead
//!   grains/banks, transient stalls, a permanent wedge, timing-fault
//!   injection, and degradation-policy knobs).
//! - [`ecc::SecdedModel`] — analytic (266, 256) SECDED outcome
//!   distribution over the 32 B atom; one uniform draw classifies a read
//!   as clean, corrected (CE), or detected-uncorrectable (DUE).
//! - [`engine::FaultEngine`] — the seeded runtime oracle plus
//!   graceful-degradation bookkeeping: bounded retry with exponential
//!   backoff on CE, threshold-based grain exclusion, fault-storm
//!   detection, and the CE/DUE/retry telemetry series.
//! - [`timing`] — command timing-violation injection: a seeded perturber
//!   that pulls commands of a real trace earlier, for the independent
//!   protocol checker in `fgdram-dram` to catch (`--trace-check`).
//! - [`chaos`] — the seeded plumbing shared with chaos layers above the
//!   simulation (per-site seed derivation, decision dice, byte
//!   corruption, CRC-32); `fgdram-serve` builds its wire/disk fault
//!   injection on these.
//!
//! Everything is deterministic: one PRNG seeded from `--fault-seed`, no
//! wall clock, and identical streams at any `--jobs` level.
//!
//! ## Examples
//!
//! ```
//! use fgdram_faults::{DueOutcome, EccOutcome, FaultEngine, FaultSpec};
//!
//! let spec = FaultSpec::parse("due=1,threshold=2,max-excluded=1").unwrap();
//! let mut engine = FaultEngine::new(&spec, 42, 8);
//! assert_eq!(engine.classify_read(3, 0), EccOutcome::Uncorrectable);
//! assert_eq!(engine.record_due(3), DueOutcome::Tolerated);
//! assert_eq!(engine.classify_read(3, 0), EccOutcome::Uncorrectable);
//! assert_eq!(engine.record_due(3), DueOutcome::Exclude); // threshold hit
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod ecc;
pub mod engine;
pub mod spec;
pub mod timing;

pub use chaos::{crc32, derive_seed, Dice};
pub use ecc::{EccOutcome, SecdedModel};
pub use engine::{DueOutcome, FaultCounters, FaultEngine};
pub use spec::{FaultSpec, DEFAULT_WATCHDOG_NS};
