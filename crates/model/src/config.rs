//! Device, controller, and GPU configurations.
//!
//! [`DramConfig`] encodes the paper's Table 2 for the three evaluated stacks
//! (HBM2, QB-HBM, FGDRAM) plus the enhanced prior-work baseline
//! (QB-HBM + SALP + subchannels) from Section 5.4, and exposes the ablation
//! knobs used in Sections 2.2 and 2.3 (atom size, deep bank grouping).

use crate::units::{GbPerSec, Ns, GIB};

/// Which DRAM stack architecture a configuration models.
///
/// These are the four architectures compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// Contemporary High Bandwidth Memory 2, 16 pseudochannels per stack,
    /// 256 GB/s (the paper's Section 2 reference point).
    Hbm2,
    /// "Quad-bandwidth HBM": the evolutionary 4x baseline with 64 channels
    /// of 4 banks each, 1 TB/s (Section 2.4).
    QbHbm,
    /// QB-HBM enhanced with subarray-level parallelism and the subchannels
    /// bank architecture (Section 5.4's strongest prior-work baseline).
    QbHbmSalpSc,
    /// The paper's proposal: 512 grains, each two pseudobanks with a
    /// private 2 GB/s serial interface, 1 TB/s per stack (Section 3).
    Fgdram,
}

impl DramKind {
    /// All four architectures, in the order the paper's figures present them.
    pub const ALL: [DramKind; 4] =
        [DramKind::Hbm2, DramKind::QbHbm, DramKind::QbHbmSalpSc, DramKind::Fgdram];

    /// Short display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            DramKind::Hbm2 => "HBM2",
            DramKind::QbHbm => "QB-HBM",
            DramKind::QbHbmSalpSc => "QB-HBM+SALP+SC",
            DramKind::Fgdram => "FGDRAM",
        }
    }
}

impl core::fmt::Display for DramKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// DRAM timing parameters in nanoseconds (paper Table 2).
///
/// All values are integral nanoseconds; `t_wl` is the paper's "2 clks" at
/// the 500 MHz core clock, i.e. 4 ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Activate-to-activate delay, same bank (row cycle time).
    pub t_rc: Ns,
    /// Activate-to-column-command delay.
    pub t_rcd: Ns,
    /// Precharge-to-activate delay.
    pub t_rp: Ns,
    /// Activate-to-precharge delay (row active minimum).
    pub t_ras: Ns,
    /// Read column command to first data (CAS latency).
    pub t_cl: Ns,
    /// Activate-to-activate delay, different banks, same channel.
    pub t_rrd: Ns,
    /// Write recovery: end of write data to precharge.
    pub t_wr: Ns,
    /// Rolling activation window (paired with [`Self::acts_in_faw`]).
    pub t_faw: Ns,
    /// Maximum activates inside one `t_faw` window.
    pub acts_in_faw: u32,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: Ns,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: Ns,
    /// Write column command to first data (write latency).
    pub t_wl: Ns,
    /// Data burst duration for one atom on the channel/grain data bus.
    pub t_burst: Ns,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: Ns,
    /// Column-to-column delay, different bank groups.
    pub t_ccd_s: Ns,
    /// Read column command to precharge of the same bank.
    pub t_rtp: Ns,
    /// Average refresh interval per refresh command.
    pub t_refi: Ns,
    /// Refresh cycle time (bank set busy after a refresh command).
    pub t_rfc: Ns,
    /// Occupancy of one column command slot on the command channel.
    pub t_cmd_col: Ns,
    /// Occupancy of one activate slot on the row command channel (FGDRAM
    /// activates need "more than 2 ns" for the long row address).
    pub t_cmd_row: Ns,
}

impl TimingParams {
    /// The common Table 2 timings shared by all three stacks.
    const fn common() -> Self {
        TimingParams {
            t_rc: 45,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 29,
            t_cl: 16,
            t_rrd: 2,
            t_wr: 16,
            t_faw: 12,
            acts_in_faw: 8,
            t_wtr_l: 8,
            t_wtr_s: 3,
            t_wl: 4, // 2 clks @ 500 MHz
            t_burst: 2,
            t_ccd_l: 4,
            t_ccd_s: 2,
            t_rtp: 4,
            t_refi: 3900,
            t_rfc: 160,
            t_cmd_col: 2,
            t_cmd_row: 2,
        }
    }

    /// Table 2 timings for the given architecture.
    pub const fn for_kind(kind: DramKind) -> Self {
        let mut t = Self::common();
        match kind {
            DramKind::Hbm2 | DramKind::QbHbm => t,
            DramKind::QbHbmSalpSc => {
                // Subchannels quarter the activation granularity, which
                // relaxes the power-delivery activate-rate limit 4x.
                t.acts_in_faw = 32;
                t
            }
            DramKind::Fgdram => {
                t.t_burst = 16;
                t.t_ccd_l = 16;
                t.acts_in_faw = 32;
                // The long row address needs "more than 2 ns" on the shared
                // row bus (Section 3.3).
                t.t_cmd_row = 3;
                t
            }
        }
    }
}

/// Full description of one DRAM stack (geometry + timing), paper Table 2.
///
/// For FGDRAM, a *channel* in this struct is one **grain** (the unit with a
/// private data interface) and a *bank* is one **pseudobank**; the stack's
/// 64 shared command channels each serve [`Self::channels_per_cmd_channel`]
/// grains.
///
/// # Examples
///
/// ```
/// use fgdram_model::config::{DramConfig, DramKind};
/// let fg = DramConfig::new(DramKind::Fgdram);
/// assert_eq!(fg.channels, 512);
/// assert_eq!(fg.stack_bandwidth().value(), 1024.0); // 1 TB/s
/// assert_eq!(fg.capacity_bytes(), 4 << 30); // iso-capacity with QB-HBM
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Architecture this configuration models.
    pub kind: DramKind,
    /// Independent data channels per stack (grains for FGDRAM).
    pub channels: usize,
    /// Banks per channel (pseudobanks per grain for FGDRAM).
    pub banks_per_channel: usize,
    /// Bank groups per channel; columns to different groups may be spaced
    /// `t_ccd_s` apart, same group `t_ccd_l`.
    pub bank_groups: usize,
    /// Data channels sharing one command channel (8 grains for FGDRAM).
    pub channels_per_cmd_channel: usize,
    /// Subarrays per bank (HBM2: 32 x 512 rows).
    pub subarrays_per_bank: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Physical row size per bank (determines capacity and column count).
    pub row_bytes: u64,
    /// Bytes brought into sense amplifiers per activate — the *effective*
    /// activation granularity: 1 KB baseline, 256 B with subchannels or
    /// FGDRAM pseudobanks. Must divide [`Self::row_bytes`].
    pub activation_bytes: u64,
    /// DRAM atom (request) size in bytes.
    pub atom_bytes: u64,
    /// Whether subarrays activate independently (SALP).
    pub salp: bool,
    /// Timing parameters.
    pub timing: TimingParams,
}

impl DramConfig {
    /// Builds the paper's Table 2 configuration for `kind`.
    pub fn new(kind: DramKind) -> Self {
        let timing = TimingParams::for_kind(kind);
        match kind {
            DramKind::Hbm2 => DramConfig {
                kind,
                channels: 16,
                banks_per_channel: 16,
                bank_groups: 4,
                channels_per_cmd_channel: 1,
                subarrays_per_bank: 32,
                rows_per_bank: 16_384,
                row_bytes: 1024,
                activation_bytes: 1024,
                atom_bytes: 32,
                salp: false,
                timing,
            },
            DramKind::QbHbm => DramConfig {
                kind,
                channels: 64,
                banks_per_channel: 4,
                // Each of the 4 banks is its own group so two banks can
                // interleave at t_ccd_s, exactly as HBM2's bank grouping
                // lets two banks share the channel (Section 2.3).
                bank_groups: 4,
                channels_per_cmd_channel: 1,
                subarrays_per_bank: 32,
                rows_per_bank: 16_384,
                row_bytes: 1024,
                activation_bytes: 1024,
                atom_bytes: 32,
                salp: false,
                timing,
            },
            DramKind::QbHbmSalpSc => DramConfig {
                kind,
                channels: 64,
                banks_per_channel: 4,
                bank_groups: 4,
                channels_per_cmd_channel: 1,
                subarrays_per_bank: 32,
                rows_per_bank: 16_384,
                row_bytes: 1024,
                // Subchannels cut the effective activation to 256 B.
                activation_bytes: 256,
                atom_bytes: 32,
                salp: true,
                timing,
            },
            DramKind::Fgdram => DramConfig {
                kind,
                // 512 grains; each "bank" below is a pseudobank. The two
                // pseudobanks share the grain's serial data bus, so all
                // column commands within a grain are t_ccd_l apart: one
                // bank group.
                channels: 512,
                banks_per_channel: 2,
                bank_groups: 1,
                channels_per_cmd_channel: 8,
                subarrays_per_bank: 32,
                rows_per_bank: 16_384,
                row_bytes: 256,
                activation_bytes: 256,
                atom_bytes: 32,
                salp: false,
                timing,
            },
        }
    }

    /// Ablation (Section 2.2): QB-HBM with the atom grown to 128 B, the
    /// prefetch-scaling alternative the paper rejects.
    pub fn qb_hbm_atom128() -> Self {
        let mut c = Self::new(DramKind::QbHbm);
        c.atom_bytes = 128;
        // 128 B over the same 16 GB/s channel takes 8 ns.
        c.timing.t_burst = 8;
        c.timing.t_ccd_s = 8;
        c.timing.t_ccd_l = 8;
        c
    }

    /// Ablation (Section 2.3): a 4x-bandwidth HBM derivative that scales
    /// per-channel bandwidth instead of channel count, and must therefore
    /// rotate column commands among 8 bank groups with a long same-group
    /// delay.
    ///
    /// The paper's version runs a 0.5 ns I/O grid (tBURST 0.5 ns,
    /// tCCDL 16 ns); we keep the integer-nanosecond grid at half that
    /// ratio while preserving every mechanism that costs performance:
    /// iso-bandwidth (1 TB/s), iso-capacity, iso bank count (256),
    /// fat 32 GB/s channels with 1 ns bursts, and 8 bank groups whose
    /// rotation exactly covers `t_ccd_l` (zero slack, vs 2x slack in
    /// conventional timing) so back-to-back same-group accesses cost
    /// 8 bursts.
    pub fn qb_hbm_deep_bank_groups() -> Self {
        let mut c = Self::new(DramKind::QbHbm);
        c.channels = 32;
        c.banks_per_channel = 8;
        c.bank_groups = 8;
        c.timing.t_burst = 1;
        c.timing.t_ccd_s = 1;
        c.timing.t_ccd_l = 8;
        c.timing.t_cmd_col = 1;
        c
    }

    /// A multi-stack system: `stacks` iso-configured stacks presented as
    /// one flat channel space (the paper's multi-TB/s future GPUs, e.g.
    /// four 1 TB/s FGDRAM stacks for the 4 TB/s exascale point of
    /// Figure 1a).
    ///
    /// # Panics
    ///
    /// Panics unless `stacks` is a power of two.
    pub fn multi_stack(kind: DramKind, stacks: usize) -> Self {
        assert!(stacks.is_power_of_two(), "stacks must be a power of two");
        let mut c = Self::new(kind);
        c.channels *= stacks;
        c
    }

    /// Section 3.6: a non-stacked (GDDR-class) FGDRAM die — one die's
    /// worth of grains with the PHYs in the former TSV strips. Same grain
    /// architecture, quarter the stack's grains and bandwidth.
    pub fn fgdram_non_stacked() -> Self {
        let mut c = Self::new(DramKind::Fgdram);
        c.channels = 128; // one die
        c
    }

    /// Design-choice ablation: QB-HBM with SALP only (subarray-level
    /// parallelism, full 1 KB activations).
    pub fn qb_hbm_salp_only() -> Self {
        let mut c = Self::new(DramKind::QbHbmSalpSc);
        c.activation_bytes = 1024;
        c.timing.acts_in_faw = 8; // full-row activates keep the HBM2 limit
        c
    }

    /// Design-choice ablation: QB-HBM with subchannels only (256 B
    /// activations, no subarray-level parallelism).
    pub fn qb_hbm_subchannels_only() -> Self {
        let mut c = Self::new(DramKind::QbHbmSalpSc);
        c.salp = false;
        c
    }

    /// Total stack capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.banks_per_channel as u64
            * self.rows_per_bank as u64
            * self.row_bytes
    }

    /// Peak bandwidth of one data channel (grain).
    pub fn channel_bandwidth(&self) -> GbPerSec {
        GbPerSec::from_bytes_over(self.atom_bytes, self.timing.t_burst)
    }

    /// Peak bandwidth of the whole stack.
    pub fn stack_bandwidth(&self) -> GbPerSec {
        GbPerSec::new(self.channel_bandwidth().value() * self.channels as f64)
    }

    /// Number of shared command channels on the stack.
    pub fn cmd_channels(&self) -> usize {
        self.channels / self.channels_per_cmd_channel
    }

    /// Atoms (columns) per physical row.
    pub fn atoms_per_row(&self) -> u64 {
        self.row_bytes / self.atom_bytes
    }

    /// Atoms per activation slice (equal to [`Self::atoms_per_row`] unless
    /// subchannels shrink the activation granularity).
    pub fn atoms_per_activation(&self) -> u64 {
        self.activation_bytes / self.atom_bytes
    }

    /// Independent activation slices per row (1 without subchannels).
    pub fn slices_per_row(&self) -> u64 {
        self.row_bytes / self.activation_bytes
    }

    /// Rows per subarray.
    pub fn rows_per_subarray(&self) -> usize {
        self.rows_per_bank / self.subarrays_per_bank
    }

    /// True when this configuration needs the FGDRAM grain rules
    /// (pseudobank pairs, shared command channel, subarray-conflict guard).
    pub fn is_grain_based(&self) -> bool {
        self.channels_per_cmd_channel > 1 || matches!(self.kind, DramKind::Fgdram)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a geometric invariant is violated
    /// (non-power-of-two counts, bank groups not dividing banks, atom larger
    /// than row, or zero-sized fields).
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(name: &'static str, v: u64) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::NotPowerOfTwo { name, value: v })
            } else {
                Ok(())
            }
        }
        pow2("channels", self.channels as u64)?;
        pow2("banks_per_channel", self.banks_per_channel as u64)?;
        pow2("bank_groups", self.bank_groups as u64)?;
        pow2("subarrays_per_bank", self.subarrays_per_bank as u64)?;
        pow2("rows_per_bank", self.rows_per_bank as u64)?;
        pow2("row_bytes", self.row_bytes)?;
        pow2("activation_bytes", self.activation_bytes)?;
        pow2("atom_bytes", self.atom_bytes)?;
        pow2("channels_per_cmd_channel", self.channels_per_cmd_channel as u64)?;
        if self.bank_groups > self.banks_per_channel {
            return Err(ConfigError::BankGroups {
                groups: self.bank_groups,
                banks: self.banks_per_channel,
            });
        }
        if self.atom_bytes > self.activation_bytes {
            return Err(ConfigError::AtomLargerThanRow {
                atom: self.atom_bytes,
                row: self.activation_bytes,
            });
        }
        if self.activation_bytes > self.row_bytes {
            return Err(ConfigError::AtomLargerThanRow {
                atom: self.activation_bytes,
                row: self.row_bytes,
            });
        }
        if self.subarrays_per_bank > self.rows_per_bank {
            return Err(ConfigError::BankGroups {
                groups: self.subarrays_per_bank,
                banks: self.rows_per_bank,
            });
        }
        if self.channels % self.channels_per_cmd_channel != 0 {
            return Err(ConfigError::CmdChannelSplit {
                channels: self.channels,
                per_cmd: self.channels_per_cmd_channel,
            });
        }
        Ok(())
    }
}

/// Error returned by [`DramConfig::validate`] and address-mapper setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural count must be a nonzero power of two.
    NotPowerOfTwo {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: u64,
    },
    /// Bank groups must divide (and not exceed) the bank count.
    BankGroups {
        /// Group count.
        groups: usize,
        /// Bank count.
        banks: usize,
    },
    /// The DRAM atom cannot exceed the activated row.
    AtomLargerThanRow {
        /// Atom bytes.
        atom: u64,
        /// Row bytes.
        row: u64,
    },
    /// Channels must split evenly across command channels.
    CmdChannelSplit {
        /// Data channel count.
        channels: usize,
        /// Channels per command channel.
        per_cmd: usize,
    },
    /// A fault-spec target (dead grain or dead bank) is outside the
    /// stack's geometry.
    FaultTarget {
        /// What kind of target ("grain" or "bank").
        what: &'static str,
        /// The offending index.
        index: u64,
        /// One past the largest valid index.
        limit: u64,
    },
    /// A geometry count exceeds what a component's packed state can hold
    /// (the controller's queue records keep bank, column and slice in a
    /// byte each).
    FieldTooWide {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: u64,
        /// Largest supported value.
        max: u64,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { name, value } => {
                write!(f, "{name} must be a nonzero power of two, got {value}")
            }
            ConfigError::BankGroups { groups, banks } => {
                write!(f, "bank groups ({groups}) exceed banks ({banks})")
            }
            ConfigError::AtomLargerThanRow { atom, row } => {
                write!(f, "atom ({atom} B) larger than activated row ({row} B)")
            }
            ConfigError::CmdChannelSplit { channels, per_cmd } => {
                write!(
                    f,
                    "channels ({channels}) not divisible by channels per command channel ({per_cmd})"
                )
            }
            ConfigError::FaultTarget { what, index, limit } => {
                write!(f, "fault-spec dead {what} {index} outside geometry (< {limit})")
            }
            ConfigError::FieldTooWide { name, value, max } => {
                write!(f, "{name} ({value}) exceeds the supported maximum of {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// GPU configuration (paper Table 1: an NVIDIA Tesla P100-class part).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Threads per warp.
    pub threads_per_warp: usize,
    /// Maximum outstanding memory instructions per warp.
    pub max_outstanding_per_warp: usize,
    /// Memory instructions one SM can issue per nanosecond.
    pub issue_per_ns: usize,
    /// Thread-block wave scheduling bound: no warp may run more than this
    /// many instructions ahead of the slowest warp (0 disables). Models
    /// the bounded skew of real GPU work distribution.
    pub wave_window: usize,
    /// L2 configuration.
    pub l2: L2Config,
    /// One-way interconnect latency from SM to memory partition, ns.
    pub xbar_latency: Ns,
    /// Minimum round-trip latency added outside the DRAM (SM pipeline etc).
    pub core_latency: Ns,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            sms: 60,
            warps_per_sm: 64,
            threads_per_warp: 32,
            max_outstanding_per_warp: 4,
            issue_per_ns: 4,
            wave_window: 4,
            l2: L2Config::default(),
            xbar_latency: 20,
            core_latency: 40,
        }
    }
}

/// Sectored L2 cache configuration (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Cache line (tag granularity) in bytes.
    pub line_bytes: u64,
    /// Sector (fill granularity) in bytes — the DRAM atom.
    pub sector_bytes: u64,
    /// Hit latency in nanoseconds.
    pub hit_latency: Ns,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            capacity_bytes: 4 * 1024 * 1024,
            ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 30,
        }
    }
}

impl L2Config {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize / self.ways
    }

    /// Sectors per line.
    pub fn sectors_per_line(&self) -> usize {
        (self.line_bytes / self.sector_bytes) as usize
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open for reuse; close on conflict, opportunistic
    /// auto-precharge when no queued request can reuse the row, idle
    /// timeout (the paper's throughput-optimized controller).
    #[default]
    Open,
    /// Auto-precharge every column access (ablation baseline).
    Closed,
}

/// Memory-controller configuration (Section 4.1's "throughput-optimized"
/// controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlConfig {
    /// Read-queue capacity per channel (grain group for FGDRAM).
    pub read_queue_depth: usize,
    /// Write-buffer capacity per channel.
    pub write_buffer_depth: usize,
    /// Write drain starts above this occupancy...
    pub write_high_watermark: usize,
    /// ...and stops below this one.
    pub write_low_watermark: usize,
    /// How many queued requests FR-FCFS may inspect for a row hit.
    pub reorder_window: usize,
    /// Close an open row after this long with no pending hit (0 = open-page).
    pub idle_row_timeout: Ns,
    /// Crossbar partition queue depth in front of each channel scheduler.
    pub xbar_queue_depth: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Enable DRAM refresh.
    pub refresh_enabled: bool,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            read_queue_depth: 64,
            write_buffer_depth: 256,
            write_high_watermark: 192,
            write_low_watermark: 32,
            reorder_window: 32,
            idle_row_timeout: 200,
            xbar_queue_depth: 64,
            page_policy: PagePolicy::Open,
            refresh_enabled: true,
        }
    }
}

impl CtrlConfig {
    /// Controller sizing for a stack. Queue depths are kept uniform across
    /// architectures (64 per channel) so performance differences come from
    /// the DRAM itself, not the controller budget. FGDRAM's difference is
    /// the queues' *nature* — per-grain, directly indexed, with far less
    /// reordering actually exercised (Section 3.3: "deep associative
    /// queues ... are much less important in the FGDRAM architecture").
    pub fn for_dram(dram: &DramConfig) -> Self {
        let _ = dram;
        Self::default()
    }
}

/// Capacity helper: the default 4-die stack is 4 GiB for every architecture.
pub const STACK_CAPACITY_BYTES: u64 = 4 * GIB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bandwidths() {
        // Table 2: 256 GB/s HBM2, 1 TB/s QB-HBM and FGDRAM stacks.
        assert_eq!(DramConfig::new(DramKind::Hbm2).stack_bandwidth().value(), 256.0);
        assert_eq!(DramConfig::new(DramKind::QbHbm).stack_bandwidth().value(), 1024.0);
        assert_eq!(DramConfig::new(DramKind::Fgdram).stack_bandwidth().value(), 1024.0);
        assert_eq!(DramConfig::new(DramKind::QbHbmSalpSc).stack_bandwidth().value(), 1024.0);
    }

    #[test]
    fn table2_channel_bandwidths() {
        // 16 GB/s per channel, 2 GB/s per grain.
        assert_eq!(DramConfig::new(DramKind::Hbm2).channel_bandwidth().value(), 16.0);
        assert_eq!(DramConfig::new(DramKind::QbHbm).channel_bandwidth().value(), 16.0);
        assert_eq!(DramConfig::new(DramKind::Fgdram).channel_bandwidth().value(), 2.0);
    }

    #[test]
    fn iso_capacity() {
        for kind in DramKind::ALL {
            let c = DramConfig::new(kind);
            assert_eq!(c.capacity_bytes(), STACK_CAPACITY_BYTES, "{kind}");
        }
    }

    #[test]
    fn all_table2_configs_validate() {
        for kind in DramKind::ALL {
            DramConfig::new(kind).validate().unwrap();
        }
        DramConfig::qb_hbm_atom128().validate().unwrap();
        DramConfig::qb_hbm_deep_bank_groups().validate().unwrap();
    }

    #[test]
    fn fgdram_grains_and_command_channels() {
        let c = DramConfig::new(DramKind::Fgdram);
        assert_eq!(c.channels, 512);
        assert_eq!(c.cmd_channels(), 64);
        assert_eq!(c.banks_per_channel, 2); // pseudobanks per grain
        assert_eq!(c.atoms_per_row(), 8); // 256 B / 32 B
        assert!(c.is_grain_based());
        assert!(!DramConfig::new(DramKind::QbHbm).is_grain_based());
    }

    #[test]
    fn fgdram_timings_match_table2() {
        let t = TimingParams::for_kind(DramKind::Fgdram);
        assert_eq!(t.t_burst, 16);
        assert_eq!(t.t_ccd_l, 16);
        assert_eq!(t.t_ccd_s, 2);
        assert_eq!(t.acts_in_faw, 32);
        let t = TimingParams::for_kind(DramKind::Hbm2);
        assert_eq!(t.t_burst, 2);
        assert_eq!(t.t_ccd_l, 4);
        assert_eq!(t.acts_in_faw, 8);
        assert_eq!(t.t_rc, 45);
        assert_eq!(t.t_rcd, 16);
        assert_eq!(t.t_rp, 16);
        assert_eq!(t.t_ras, 29);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut c = DramConfig::new(DramKind::QbHbm);
        c.channels = 3;
        assert!(matches!(c.validate(), Err(ConfigError::NotPowerOfTwo { name: "channels", .. })));
        let mut c = DramConfig::new(DramKind::QbHbm);
        c.atom_bytes = 4096;
        assert!(matches!(c.validate(), Err(ConfigError::AtomLargerThanRow { .. })));
        let mut c = DramConfig::new(DramKind::QbHbm);
        c.bank_groups = 8;
        assert!(matches!(c.validate(), Err(ConfigError::BankGroups { .. })));
        let mut c = DramConfig::new(DramKind::Fgdram);
        c.channels = 256;
        c.channels_per_cmd_channel = 8; // fine: 32 cmd channels
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablation_configs_iso_bandwidth() {
        assert_eq!(DramConfig::qb_hbm_atom128().stack_bandwidth().value(), 1024.0);
        let deep = DramConfig::qb_hbm_deep_bank_groups();
        assert_eq!(deep.stack_bandwidth().value(), 1024.0);
        assert_eq!(deep.capacity_bytes(), STACK_CAPACITY_BYTES);
        // Iso bank count with QB-HBM (256 total).
        assert_eq!(deep.channels * deep.banks_per_channel, 256);
        // Zero rotation slack: groups x t_ccd_s == t_ccd_l.
        assert_eq!(deep.bank_groups as u64 * deep.timing.t_ccd_s, deep.timing.t_ccd_l);
    }

    #[test]
    fn multi_stack_scales_bandwidth_and_capacity() {
        let c = DramConfig::multi_stack(DramKind::Fgdram, 4);
        c.validate().unwrap();
        assert_eq!(c.stack_bandwidth().value(), 4096.0); // 4 TB/s
        assert_eq!(c.capacity_bytes(), 4 * STACK_CAPACITY_BYTES);
        assert_eq!(c.channels, 2048);
        assert_eq!(c.cmd_channels(), 256);
        let qb = DramConfig::multi_stack(DramKind::QbHbm, 4);
        assert_eq!(qb.stack_bandwidth().value(), 4096.0);
    }

    #[test]
    fn non_stacked_fgdram_die() {
        let c = DramConfig::fgdram_non_stacked();
        c.validate().unwrap();
        assert_eq!(c.stack_bandwidth().value(), 256.0); // one die
        assert_eq!(c.cmd_channels(), 16);
        assert_eq!(c.capacity_bytes(), STACK_CAPACITY_BYTES / 4);
    }

    #[test]
    fn design_choice_ablations() {
        let salp = DramConfig::qb_hbm_salp_only();
        assert!(salp.salp);
        assert_eq!(salp.activation_bytes, 1024);
        salp.validate().unwrap();
        let sc = DramConfig::qb_hbm_subchannels_only();
        assert!(!sc.salp);
        assert_eq!(sc.activation_bytes, 256);
        assert_eq!(sc.slices_per_row(), 4);
        sc.validate().unwrap();
    }

    #[test]
    fn activation_slices() {
        let sc = DramConfig::new(DramKind::QbHbmSalpSc);
        assert_eq!(sc.slices_per_row(), 4);
        assert_eq!(sc.atoms_per_activation(), 8);
        assert_eq!(sc.atoms_per_row(), 32);
        let fg = DramConfig::new(DramKind::Fgdram);
        assert_eq!(fg.slices_per_row(), 1);
        assert_eq!(fg.atoms_per_activation(), 8);
        let qb = DramConfig::new(DramKind::QbHbm);
        assert_eq!(qb.slices_per_row(), 1);
        assert_eq!(qb.atoms_per_activation(), 32);
    }

    #[test]
    fn l2_geometry() {
        let l2 = L2Config::default();
        assert_eq!(l2.sets(), 2048);
        assert_eq!(l2.sectors_per_line(), 4);
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError::NotPowerOfTwo { name: "channels", value: 3 };
        assert!(e.to_string().contains("channels"));
        let e = ConfigError::AtomLargerThanRow { atom: 64, row: 32 };
        assert!(e.to_string().contains("64"));
    }
}
