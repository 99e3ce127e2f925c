//! # fgdram-telemetry
//!
//! Epoch-sampled time-series observability for every simulated component.
//!
//! End-of-run aggregates (`SimReport`, `CtrlStats`) average away exactly
//! the dynamics the paper argues about: activate-rate saturation against
//! tFAW, bank-level-parallelism ramp-up, row-locality phases. This crate
//! snapshots component counters every N *simulated* nanoseconds into a
//! plain time series and exports it as JSONL or CSV with hand-rolled,
//! dependency-free writers (the offline no-registry build stays intact).
//! A series holds every epoch of its window; [`check_epochs`] bounds how
//! many that may be where the window and epoch enter.
//!
//! ## The delta-snapshot pattern
//!
//! Components never maintain per-epoch state. They implement [`Sampled`]
//! by dumping their *cumulative* counters into a [`ComponentRecord`]; the
//! [`Recorder`] keeps the previous snapshot per component and takes
//! [`ComponentRecord::delta`], so each [`EpochRecord`] carries exactly
//! what happened inside one epoch. Every sampled [`Value`] subtracts
//! (counts, float accumulators, arrays element-wise, histograms
//! bucket-wise); a post-delta [`Sampled::derive`] hook then appends
//! instantaneous gauges and the epoch's derived numbers, calling the
//! end-of-run report's own functions (`CtrlStats::hit_rate`,
//! `GbPerSec::from_bytes_over`, `EnergyBreakdown::per_bit`, ...), so an
//! epoch spanning a whole window reads what the report does.
//!
//! ## Determinism
//!
//! Epoch boundaries derive from simulated time only — never wall clock,
//! never thread scheduling — so telemetry output is bit-identical across
//! repeated runs and across any `--jobs` worker count.
//!
//! ## Examples
//!
//! ```
//! use fgdram_telemetry::{ComponentRecord, Recorder, Sampled, TelemetryConfig};
//!
//! struct Widget {
//!     ops: u64,
//! }
//! impl Sampled for Widget {
//!     fn component(&self) -> &'static str {
//!         "widget"
//!     }
//!     fn sample(&self, out: &mut ComponentRecord) {
//!         out.counter("ops", self.ops);
//!     }
//! }
//!
//! let mut w = Widget { ops: 0 };
//! let mut rec = Recorder::new(TelemetryConfig { epoch_ns: 100, capacity: 16 });
//! rec.start(0, &[&w]);
//! w.ops = 7;
//! rec.poll(150, &[&w]); // crosses the boundary at 100
//! let series = rec.finish(150, &[&w]);
//! assert_eq!(series.records.len(), 2); // [0,100) full + [100,150) partial
//! let jsonl = fgdram_telemetry::export::to_jsonl_string(&[], &series);
//! assert!(jsonl.lines().next().unwrap().contains("\"ops\":7"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod export;
pub mod record;
pub mod recorder;
pub mod sample;

pub use record::{ComponentRecord, EpochRecord, Value};
pub use recorder::{check_epochs, Recorder, Telemetry, TelemetryConfig, MAX_EPOCHS};
pub use sample::Sampled;
