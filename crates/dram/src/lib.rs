//! # fgdram-dram
//!
//! Cycle-accurate DRAM stack timing models for the FGDRAM (MICRO 2017)
//! reproduction: HBM2, the quad-bandwidth QB-HBM baseline, QB-HBM enhanced
//! with SALP + subchannels, and the paper's grain-based FGDRAM.
//!
//! The crate models banks (with per-subarray and per-slice row slots),
//! channels/grains (bank groups, data-bus occupancy and turnaround, tRRD,
//! tFAW, refresh), and the stack's split row/column command buses — eight
//! grains per command channel for FGDRAM. All timing state lives in the
//! struct-of-arrays [`state::DeviceState`], which [`DramDevice::state`]
//! exposes for reading. An independent [`checker::ProtocolChecker`]
//! replays recorded command traces against the same rules, so scheduler
//! bugs cannot hide inside the device model. The checker is the one
//! timing reference: `tests/timing_explorer.rs` holds the device to it on
//! every bounded command sequence (sound and tight `earliest` times, the
//! same structural rule, no change on rejection).
//!
//! ## Examples
//!
//! ```
//! use fgdram_dram::DramDevice;
//! use fgdram_model::addr::ReqId;
//! use fgdram_model::cmd::{BankRef, DramCommand};
//! use fgdram_model::config::{DramConfig, DramKind};
//!
//! let mut dev = DramDevice::new(DramConfig::new(DramKind::QbHbm));
//! let bank = BankRef { channel: 5, bank: 2 };
//! dev.issue(DramCommand::Activate { bank, row: 7, slice: 0 }, 0)?;
//! let rd = DramCommand::Read { bank, row: 7, col: 3, auto_precharge: true, req: ReqId(0) };
//! let at = dev.earliest(&rd, 0)?;
//! let done = dev.issue(rd, at)?.expect("read completes");
//! assert_eq!(done.at, at + 16 + 2); // tCL + tBURST
//! # Ok::<(), fgdram_dram::ProtocolError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checker;
pub mod device;
pub mod error;
pub mod state;
mod telemetry;

pub use checker::ProtocolChecker;
pub use device::{DramDevice, TryIssue};
pub use error::{ProtocolError, Rule, ViolationReport};
pub use state::{ChannelCounters, ColOutcome, DeviceState, OpenRow, Reject};
