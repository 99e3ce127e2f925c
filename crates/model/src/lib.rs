//! # fgdram-model
//!
//! Shared vocabulary for the Fine-Grained DRAM (MICRO 2017) reproduction:
//! physical units, DRAM/GPU/controller configurations (the paper's Tables 1
//! and 2 as code), the DRAM command set, physical-address mapping, and
//! statistics primitives.
//!
//! Every other crate in the workspace builds on these types; none of them
//! contain simulation behaviour themselves.
//!
//! ## Examples
//!
//! ```
//! use fgdram_model::config::{DramConfig, DramKind};
//! use fgdram_model::addr::{AddressMapper, PhysAddr};
//!
//! // The paper's 1 TB/s FGDRAM stack, straight from Table 2.
//! let cfg = DramConfig::new(DramKind::Fgdram);
//! assert_eq!(cfg.channels, 512); // grains
//! assert_eq!(cfg.row_bytes, 256); // pseudobank activation granularity
//!
//! // Map an address onto a grain.
//! let mapper = AddressMapper::new(&cfg)?;
//! let loc = mapper.decode(PhysAddr(0x4000));
//! assert!((loc.channel as usize) < cfg.channels);
//! # Ok::<(), fgdram_model::config::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod cmd;
pub mod config;
pub mod fxhash;
pub mod json;
pub mod kv;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod units;
pub mod wheel;

pub use addr::{AddressMapper, Location, MemRequest, PhysAddr, ReqId};
pub use cmd::{BankRef, CmdKind, Completion, DramCommand, TimedCommand};
pub use config::{
    ConfigError, CtrlConfig, DramConfig, DramKind, GpuConfig, L2Config, TimingParams,
};
pub use stream::{AccessStream, WarpInstruction};
pub use units::{GbPerSec, Ns, Picojoules, PjPerBit, Watts};
