//! # fgdram-ctrl
//!
//! The GPU memory controller of the FGDRAM (MICRO 2017) reproduction —
//! Section 4.1's throughput-optimized controller: FR-FCFS row-hit
//! reordering over deep per-bank queues, watermark-batched write draining,
//! camping-resistant address swizzling, per-grain scheduling over shared
//! command channels, and the pseudobank subarray-conflict guard.
//!
//! See [`Controller`] for the entry point; it drives a
//! [`fgdram_dram::DramDevice`] owned by the caller.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod arena;
mod controller;
mod scheduler;
pub mod stats;
mod telemetry;

pub use controller::Controller;
pub use stats::CtrlStats;
