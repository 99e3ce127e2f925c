//! The whole DRAM stack: channels/grains plus shared command channels.
//!
//! The command interface mirrors HBM2's split row/column command buses
//! (Section 3.3): activates and precharges travel on the row bus, reads and
//! writes on the column bus, and — for FGDRAM — eight grains share one
//! command channel, with activates occupying the row bus for 4 ns (the
//! long row address) and column commands 2 ns.

use fgdram_model::cmd::{Completion, DramCommand, TimedCommand};
use fgdram_model::config::DramConfig;
use fgdram_model::units::Ns;

use crate::error::{ProtocolError, Rule};
use crate::state::{not_before, ChannelCounters, DeviceState, Reject};

/// Split row/column command-bus occupancy for one command channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CmdBus {
    row_busy_until: Ns,
    col_busy_until: Ns,
}

/// A full DRAM stack device model.
///
/// # Examples
///
/// ```
/// use fgdram_dram::DramDevice;
/// use fgdram_model::cmd::{BankRef, DramCommand};
/// use fgdram_model::config::{DramConfig, DramKind};
/// use fgdram_model::addr::ReqId;
///
/// let mut dev = DramDevice::new(DramConfig::new(DramKind::Fgdram));
/// let bank = BankRef { channel: 0, bank: 0 };
/// let act = DramCommand::Activate { bank, row: 42, slice: 0 };
/// let at = dev.earliest(&act, 0)?;
/// dev.issue(act, at)?;
/// let rd = DramCommand::Read { bank, row: 42, col: 0, auto_precharge: false, req: ReqId(1) };
/// let at = dev.earliest(&rd, at)?;
/// let done = dev.issue(rd, at)?.expect("reads complete");
/// assert!(done.at > at);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramDevice {
    cfg: DramConfig,
    state: DeviceState,
    cmd_buses: Vec<CmdBus>,
    /// `log2(channels_per_cmd_channel)`: channel to command bus.
    cmd_bus_shift: u32,
    /// `log2(atoms_per_activation)`: column to subchannel slice.
    slice_shift: u32,
    /// Running aggregate of every channel's counters, bumped by command
    /// kind on every issue: `total_counters` sits on the per-step
    /// progress-watchdog path, where re-summing 512 grains per step
    /// dominated wall time.
    totals: ChannelCounters,
    trace: Option<Vec<TimedCommand>>,
}

impl DramDevice {
    /// Builds an idle device for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`]; construct configs
    /// through [`DramConfig::new`] or validate custom ones first.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().expect("invalid DramConfig");
        DramDevice {
            state: DeviceState::new(&cfg),
            cmd_buses: vec![CmdBus::default(); cfg.cmd_channels().max(1)],
            // Both are validated powers of two.
            cmd_bus_shift: cfg.channels_per_cmd_channel.trailing_zeros(),
            slice_shift: cfg.atoms_per_activation().trailing_zeros(),
            totals: ChannelCounters::default(),
            trace: None,
            cfg,
        }
    }

    // `benchmark/` (frozen for this PR) still calls this name; it goes when
    // a later benchmark PR drops the `ctrl.pool.speedup_t2` probe.
    #[doc(hidden)]
    pub fn with_lanes(cfg: DramConfig, _engine_threads: usize) -> Self {
        Self::new(cfg)
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Read access to the timing state: open rows, per-channel counters,
    /// data-bus occupancy and the `earliest_*` probes.
    pub fn state(&self) -> &DeviceState {
        &self.state
    }

    /// Begins recording every accepted command (for the protocol checker).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<TimedCommand> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Aggregated operation counters across all channels (O(1): see the
    /// `totals` field).
    pub fn total_counters(&self) -> ChannelCounters {
        self.totals
    }

    /// Per-channel counters.
    pub fn channel_counters(&self, ch: u32) -> &ChannelCounters {
        self.state.counters(ch)
    }

    /// The device-wide per-bank activate heatmap, channel-major.
    pub fn bank_activates_heatmap(&self) -> Vec<u64> {
        self.state.bank_activates_flat().to_vec()
    }

    /// Zeroes every channel's operation counters (end-of-warmup).
    pub fn reset_counters(&mut self) {
        self.state.reset_counters();
        self.totals = ChannelCounters::default();
    }

    #[inline]
    fn cmd_bus_index(&self, channel: u32) -> usize {
        (channel >> self.cmd_bus_shift) as usize
    }

    /// When the row command bus `channel` shares (activates, precharges,
    /// refreshes) is next free. Only ever grows.
    #[inline]
    pub fn row_bus_free(&self, channel: u32) -> Ns {
        self.cmd_buses[self.cmd_bus_index(channel)].row_busy_until
    }

    /// When the column command bus `channel` shares (reads, writes) is
    /// next free. Only ever grows.
    #[inline]
    pub fn col_bus_free(&self, channel: u32) -> Ns {
        self.cmd_buses[self.cmd_bus_index(channel)].col_busy_until
    }

    fn cmd_slot(&self, cmd: &DramCommand, at: Ns) -> Ns {
        let bus = &self.cmd_buses[self.cmd_bus_index(cmd.channel())];
        if cmd.is_row_cmd() {
            at.max(bus.row_busy_until)
        } else {
            at.max(bus.col_busy_until)
        }
    }

    fn occupy_cmd_slot(&mut self, cmd: &DramCommand, at: Ns) {
        let idx = self.cmd_bus_index(cmd.channel());
        let t = &self.cfg.timing;
        let bus = &mut self.cmd_buses[idx];
        match cmd {
            DramCommand::Activate { .. } => bus.row_busy_until = at + t.t_cmd_row,
            DramCommand::Precharge { .. } | DramCommand::Refresh { .. } => {
                bus.row_busy_until = at + t.t_cmd_col
            }
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                bus.col_busy_until = at + t.t_cmd_col
            }
        }
    }

    fn check_ranges(&self, cmd: &DramCommand) -> Result<(), Reject> {
        let bank_ok = |bank: u32| (bank as usize) < self.cfg.banks_per_channel;
        let row_ok = |row: u32| (row as usize) < self.cfg.rows_per_bank;
        let slice_ok = |slice: u32| u64::from(slice) < self.cfg.slices_per_row();
        let ok = (cmd.channel() as usize) < self.cfg.channels
            && match *cmd {
                DramCommand::Activate { bank, row, slice } => {
                    bank_ok(bank.bank) && row_ok(row) && slice_ok(slice)
                }
                DramCommand::Read { bank, row, col, .. }
                | DramCommand::Write { bank, row, col, .. } => {
                    bank_ok(bank.bank) && row_ok(row) && (col as u64) < self.cfg.atoms_per_row()
                }
                DramCommand::Precharge { bank, row, slice } => {
                    bank_ok(bank.bank) && row.is_none_or(row_ok) && slice_ok(slice)
                }
                DramCommand::Refresh { .. } => true,
            };
        if ok {
            Ok(())
        } else {
            Err(Reject { rule: Rule::OutOfRange, earliest: None })
        }
    }

    /// Subchannel slice of a column (0 when the config has a single slice).
    #[inline]
    fn slice_of(&self, col: u32) -> u32 {
        col >> self.slice_shift
    }

    /// Earliest time `cmd` may issue at or after `at`, combining bank,
    /// channel, and command-bus constraints.
    ///
    /// # Errors
    ///
    /// Structural [`ProtocolError`]s (wrong row open, subarray conflicts,
    /// out-of-range targets) that no amount of waiting fixes.
    pub fn earliest(&self, cmd: &DramCommand, at: Ns) -> Result<Ns, ProtocolError> {
        let wrap = |r: Reject| ProtocolError { cmd: *cmd, at, rule: r.rule, earliest: r.earliest };
        self.check_ranges(cmd).map_err(wrap)?;
        let (t, _) = self.timing(cmd, at).map_err(wrap)?;
        Ok(self.cmd_slot(cmd, t))
    }

    /// The one timing evaluation of `cmd` at `at`: its earliest legal time
    /// by the channel's own state (command bus excluded) and the rule an
    /// issue before that time breaks.
    fn timing(&self, cmd: &DramCommand, at: Ns) -> Result<(Ns, Rule), Reject> {
        let s = &self.state;
        Ok(match *cmd {
            DramCommand::Activate { bank, row, slice } => {
                (s.earliest_act(bank.channel, bank.bank, row, slice, at)?, Rule::ActTooEarly)
            }
            DramCommand::Read { bank, row, col, .. }
            | DramCommand::Write { bank, row, col, .. } => {
                let (slice, is_write) = (self.slice_of(col), is_write_cmd(cmd));
                (s.earliest_col(bank.channel, bank.bank, row, slice, is_write, at)?, Rule::ColCcd)
            }
            DramCommand::Precharge { bank, row: Some(row), slice } => {
                (s.earliest_pre(bank.channel, bank.bank, row, slice, at)?, Rule::PreTooEarly)
            }
            DramCommand::Precharge { bank, row: None, .. } => {
                (s.earliest_pre_all(bank.channel, bank.bank, at)?, Rule::PreTooEarly)
            }
            DramCommand::Refresh { channel } => {
                (s.earliest_refresh(channel, at)?, Rule::RefreshConflict)
            }
        })
    }

    /// Issues `cmd` at `at`, appending it to the trace when recording is
    /// on. Returns the data completion for reads/writes.
    ///
    /// # Errors
    ///
    /// Any protocol violation, typed by the rule it breaks; the device
    /// state is unchanged on error.
    pub fn issue(&mut self, cmd: DramCommand, at: Ns) -> Result<Option<Completion>, ProtocolError> {
        let wrap = |r: Reject| ProtocolError { cmd, at, rule: r.rule, earliest: r.earliest };
        self.check_ranges(&cmd).map_err(wrap)?;
        // Command-bus slot check first: it applies to every command kind.
        let slot = self.cmd_slot(&cmd, at);
        if at < slot {
            return Err(ProtocolError { cmd, at, rule: Rule::CmdBusBusy, earliest: Some(slot) });
        }
        let (earliest, rule) = self.timing(&cmd, at).map_err(wrap)?;
        not_before(earliest, at, rule).map_err(wrap)?;
        Ok(self.apply(cmd, at))
    }

    /// Issues `cmd` at `now` if it is legal then, with one timing
    /// evaluation: [`Self::earliest`] and [`Self::issue`] in one call.
    /// When it is not legal yet, returns [`TryIssue::NotBefore`] with
    /// `earliest`'s answer and changes nothing.
    ///
    /// # Errors
    ///
    /// The structural [`ProtocolError`]s [`Self::earliest`] reports.
    pub fn try_issue(&mut self, cmd: DramCommand, now: Ns) -> Result<TryIssue, ProtocolError> {
        let e = self.earliest(&cmd, now)?;
        if e > now {
            return Ok(TryIssue::NotBefore(e));
        }
        Ok(TryIssue::Issued(self.apply(cmd, now)))
    }

    /// Runs `f` without counting the timing evaluations it makes in
    /// [`Self::timing_evals`] — for cross-checks that repeat work the
    /// engine already did.
    pub fn uncounted<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let evals = self.timing_evals();
        let out = f(self);
        self.state.set_timing_evals(evals);
        out
    }

    /// Timing evaluations so far: every `earliest_*` call of the timing
    /// state, including the one in each issue. Host-side work, kept out
    /// of every counter set, report and telemetry sample; never reset.
    pub fn timing_evals(&self) -> u64 {
        self.state.timing_evals()
    }

    /// Applies `cmd` at `at`, which its timing evaluation allowed: the
    /// state change (auto-precharge included), running totals, command
    /// bus and trace.
    fn apply(&mut self, cmd: DramCommand, at: Ns) -> Option<Completion> {
        let completion = match cmd {
            DramCommand::Activate { bank, row, slice } => {
                self.state.apply_activate(bank.channel, bank.bank, row, slice, at);
                self.totals.activates += 1;
                None
            }
            DramCommand::Read { bank, row, col, auto_precharge, req }
            | DramCommand::Write { bank, row, col, auto_precharge, req } => {
                let (ch, b, slice, is_write) =
                    (bank.channel, bank.bank, self.slice_of(col), is_write_cmd(&cmd));
                let out = self.state.apply_column(ch, b, row, slice, is_write, at);
                if is_write {
                    self.totals.write_atoms += 1;
                } else {
                    self.totals.read_atoms += 1;
                }
                if auto_precharge {
                    self.state.apply_auto_precharge(ch, b, row, slice);
                    self.totals.precharges += 1;
                }
                Some(Completion { req, at: out.data_end, is_write })
            }
            DramCommand::Precharge { bank, row: Some(row), slice } => {
                self.state.apply_precharge(bank.channel, bank.bank, row, slice, at);
                self.totals.precharges += 1;
                None
            }
            DramCommand::Precharge { bank, row: None, .. } => {
                self.totals.precharges +=
                    self.state.apply_precharge_all(bank.channel, bank.bank, at);
                None
            }
            DramCommand::Refresh { channel } => {
                self.state.apply_refresh(channel, at);
                self.totals.refreshes += 1;
                None
            }
        };
        self.occupy_cmd_slot(&cmd, at);
        if let Some(t) = &mut self.trace {
            t.push(TimedCommand { at, cmd });
        }
        completion
    }
}

fn is_write_cmd(cmd: &DramCommand) -> bool {
    matches!(cmd, DramCommand::Write { .. })
}

/// What [`DramDevice::try_issue`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryIssue {
    /// The command issued, with the data completion of a read or write.
    Issued(Option<Completion>),
    /// Not legal before this time; nothing changed.
    NotBefore(Ns),
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::ReqId;
    use fgdram_model::cmd::BankRef;
    use fgdram_model::config::DramKind;

    fn dev(kind: DramKind) -> DramDevice {
        DramDevice::new(DramConfig::new(kind))
    }

    fn bank(ch: u32, b: u32) -> BankRef {
        BankRef { channel: ch, bank: b }
    }

    #[test]
    fn read_roundtrip_timing_hbm2() {
        let mut d = dev(DramKind::Hbm2);
        let b = bank(0, 0);
        d.issue(DramCommand::Activate { bank: b, row: 3, slice: 0 }, 0).unwrap();
        let rd =
            DramCommand::Read { bank: b, row: 3, col: 1, auto_precharge: false, req: ReqId(7) };
        let t = d.earliest(&rd, 0).unwrap();
        assert_eq!(t, 16); // tRCD
        let done = d.issue(rd, t).unwrap().unwrap();
        // Data: t + tCL + tBURST = 16 + 16 + 2.
        assert_eq!(done.at, 34);
        assert_eq!(done.req, ReqId(7));
    }

    #[test]
    fn fgdram_burst_is_16ns() {
        let mut d = dev(DramKind::Fgdram);
        let b = bank(0, 0);
        d.issue(DramCommand::Activate { bank: b, row: 3, slice: 0 }, 0).unwrap();
        let rd =
            DramCommand::Read { bank: b, row: 3, col: 0, auto_precharge: false, req: ReqId(1) };
        let t = d.earliest(&rd, 0).unwrap();
        let done = d.issue(rd, t).unwrap().unwrap();
        assert_eq!(done.at - (t + 16), 16); // tCL then 16 ns serial burst
    }

    #[test]
    fn shared_command_channel_arbitrates_eight_grains() {
        let mut d = dev(DramKind::Fgdram);
        // Grains 0..8 share command channel 0; activates occupy 4 ns each.
        let a0 = DramCommand::Activate { bank: bank(0, 0), row: 1, slice: 0 };
        let a1 = DramCommand::Activate { bank: bank(1, 0), row: 1, slice: 0 };
        let a8 = DramCommand::Activate { bank: bank(8, 0), row: 1, slice: 0 };
        d.issue(a0, 0).unwrap();
        // Same command channel: must wait for the 3 ns activate slot.
        let t1 = d.earliest(&a1, 0).unwrap();
        assert_eq!(t1, 3);
        assert_eq!((d.row_bus_free(1), d.col_bus_free(1)), (3, 0), "grain 1 sees the bus");
        // Grain 8 lives on command channel 1: free at 0.
        let t8 = d.earliest(&a8, 0).unwrap();
        assert_eq!(t8, 0);
        assert_eq!(d.row_bus_free(8), 0);
        let err = d.issue(a1, 1).unwrap_err();
        assert_eq!(err.rule, Rule::CmdBusBusy);
    }

    #[test]
    fn row_and_column_buses_are_independent() {
        let mut d = dev(DramKind::Fgdram);
        let b0 = bank(0, 0);
        let b1 = bank(1, 0);
        d.issue(DramCommand::Activate { bank: b0, row: 1, slice: 0 }, 0).unwrap();
        d.issue(DramCommand::Activate { bank: b1, row: 1, slice: 0 }, 3).unwrap();
        // A read to grain 0 can issue at 16 (tRCD) even though the row bus
        // carried an activate at 3..6: separate buses.
        let rd =
            DramCommand::Read { bank: b0, row: 1, col: 0, auto_precharge: false, req: ReqId(1) };
        assert_eq!(d.earliest(&rd, 0).unwrap(), 16);
    }

    #[test]
    fn auto_precharge_closes_row() {
        let mut d = dev(DramKind::QbHbm);
        let b = bank(2, 1);
        d.issue(DramCommand::Activate { bank: b, row: 9, slice: 0 }, 0).unwrap();
        let rd = DramCommand::Read { bank: b, row: 9, col: 0, auto_precharge: true, req: ReqId(1) };
        let t = d.earliest(&rd, 0).unwrap();
        d.issue(rd, t).unwrap();
        assert!(!d.state().any_open(2, 1));
        // Re-activating the same bank respects tRC/tRP via earliest().
        let act = DramCommand::Activate { bank: b, row: 10, slice: 0 };
        let t2 = d.earliest(&act, 0).unwrap();
        assert!(t2 >= 45.min(t + 4 + 16)); // tRC or tRTP+tRP path
    }

    #[test]
    fn precharge_all_requires_every_slot_ready() {
        let mut d = dev(DramKind::QbHbmSalpSc);
        let b = bank(0, 0);
        d.issue(DramCommand::Activate { bank: b, row: 0, slice: 0 }, 0).unwrap();
        let pre = DramCommand::Precharge { bank: b, row: None, slice: 0 };
        let early = d.issue(pre, 5).unwrap_err();
        assert_eq!(early.rule, Rule::PreTooEarly);
        let t = d.earliest(&pre, 5).unwrap();
        d.issue(pre, t).unwrap();
        assert!(!d.state().any_open(0, 0));
    }

    #[test]
    fn trace_records_accepted_commands_only() {
        let mut d = dev(DramKind::QbHbm);
        d.enable_trace();
        let b = bank(0, 0);
        d.issue(DramCommand::Activate { bank: b, row: 1, slice: 0 }, 0).unwrap();
        // Rejected: same bank still open.
        let _ = d.issue(DramCommand::Activate { bank: b, row: 2, slice: 0 }, 50);
        let trace = d.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].at, 0);
    }

    #[test]
    fn out_of_range_targets_rejected() {
        let mut d = dev(DramKind::QbHbm);
        let err =
            d.issue(DramCommand::Activate { bank: bank(999, 0), row: 0, slice: 0 }, 0).unwrap_err();
        assert_eq!(err.rule, Rule::OutOfRange);
        let err = d
            .issue(DramCommand::Activate { bank: bank(0, 0), row: 1 << 30, slice: 0 }, 0)
            .unwrap_err();
        assert_eq!(err.rule, Rule::OutOfRange);
    }

    #[test]
    fn counters_aggregate_across_channels() {
        let mut d = dev(DramKind::QbHbm);
        for ch in 0..4 {
            let b = bank(ch, 0);
            d.issue(DramCommand::Activate { bank: b, row: 1, slice: 0 }, 0).unwrap();
            let rd = DramCommand::Read {
                bank: b,
                row: 1,
                col: 0,
                auto_precharge: false,
                req: ReqId(ch as u64),
            };
            let t = d.earliest(&rd, 0).unwrap();
            d.issue(rd, t).unwrap();
        }
        let k = d.total_counters();
        assert_eq!(k.activates, 4);
        assert_eq!(k.read_atoms, 4);
    }

    /// Recomputes the per-channel sum the slow way and checks the O(1)
    /// running totals match after a mixed command sequence, rejected
    /// commands (which must not count), and a reset.
    #[test]
    fn running_totals_match_recomputed_sum() {
        let resum = |d: &DramDevice| {
            let mut total = ChannelCounters::default();
            for ch in 0..d.config().channels as u32 {
                let k = d.channel_counters(ch);
                total.activates += k.activates;
                total.read_atoms += k.read_atoms;
                total.write_atoms += k.write_atoms;
                total.refreshes += k.refreshes;
                total.precharges += k.precharges;
            }
            total
        };
        let check = |d: &DramDevice| {
            let (a, b) = (d.total_counters(), resum(d));
            assert_eq!(a.activates, b.activates);
            assert_eq!(a.read_atoms, b.read_atoms);
            assert_eq!(a.write_atoms, b.write_atoms);
            assert_eq!(a.refreshes, b.refreshes);
            assert_eq!(a.precharges, b.precharges);
        };
        let mut d = dev(DramKind::QbHbm);
        let mut now = 0;
        for ch in 0..4 {
            let b = bank(ch, ch % 2);
            let act = DramCommand::Activate { bank: b, row: ch, slice: 0 };
            now = d.earliest(&act, now).unwrap();
            d.issue(act, now).unwrap();
            // Auto-precharged write: counts a write atom and a precharge.
            let wr = DramCommand::Write {
                bank: b,
                row: ch,
                col: 0,
                auto_precharge: ch % 2 == 0,
                req: ReqId(ch as u64),
            };
            now = d.earliest(&wr, now).unwrap();
            d.issue(wr, now).unwrap();
            check(&d);
        }
        // A rejected command leaves the totals untouched.
        let bad = DramCommand::Activate { bank: bank(0, 0), row: 1 << 30, slice: 0 };
        assert!(d.issue(bad, now).is_err());
        check(&d);
        // Channel 0's only row was auto-precharged above, so it can refresh.
        let rf = DramCommand::Refresh { channel: 0 };
        let t = d.earliest(&rf, now + 200).unwrap();
        d.issue(rf, t).unwrap();
        check(&d);
        assert!(d.total_counters().refreshes >= 1);
        d.reset_counters();
        check(&d);
        assert_eq!(d.total_counters().activates, 0);
    }
}
