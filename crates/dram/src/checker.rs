//! Independent protocol checker.
//!
//! [`ProtocolChecker`] replays a recorded command trace and asserts every
//! timing and state rule from scratch — it shares the [`TimingParams`] with
//! the device model but none of its code paths, so a scheduler bug and a
//! device-model bug would have to agree to go unnoticed. It is the one
//! reference the device is held to: `tests/timing_explorer.rs` drives both
//! through every bounded command sequence, and `tests/device_timing.rs`
//! feeds it randomized full-size streams one command at a time.

use std::collections::HashMap;

use fgdram_model::cmd::{DramCommand, TimedCommand};
use fgdram_model::config::{DramConfig, TimingParams};
use fgdram_model::units::Ns;

use crate::error::{ProtocolError, Rule, ViolationReport, MAX_REPORTED_VIOLATIONS};

/// Idle data bus between two bursts of opposite direction: one 500 MHz
/// clock, the clock `TimingParams::t_wl` counts in. Table 2 gives no
/// value; this is the model's. The device keeps its own copy, so a wrong
/// value there disagrees with this one.
const TURNAROUND_BUBBLE: Ns = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotState {
    row: u32,
    act_at: Ns,
    last_read_at: Option<Ns>,
    last_write_end: Option<Ns>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct BankHistory {
    /// Open slots keyed by (domain, slice).
    open: HashMap<(u32, u32), SlotState>,
    /// Per-(domain, slice): earliest next activate (tRC / tRP fences).
    next_act: HashMap<(u32, u32), Ns>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct ChannelHistory {
    last_act: Option<Ns>,
    recent_acts: Vec<Ns>,
    last_col: Option<Ns>,
    last_col_per_group: HashMap<u32, Ns>,
    last_data_end: Ns,
    /// Direction of the last data burst (`Some(true)` = write).
    last_dir_write: Option<bool>,
    last_write_end: Option<(Ns, u32)>,
    refresh_until: Ns,
}

/// Replays command traces and reports the first violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolChecker {
    cfg: DramConfig,
    timing: TimingParams,
    banks: HashMap<(u32, u32), BankHistory>,
    channels: HashMap<u32, ChannelHistory>,
    cmd_row_bus: HashMap<u32, Ns>,
    cmd_col_bus: HashMap<u32, Ns>,
    last_at: Ns,
}

impl ProtocolChecker {
    /// New checker for `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        ProtocolChecker {
            timing: cfg.timing,
            cfg,
            banks: HashMap::new(),
            channels: HashMap::new(),
            cmd_row_bus: HashMap::new(),
            cmd_col_bus: HashMap::new(),
            last_at: 0,
        }
    }

    /// Verifies an entire trace.
    ///
    /// # Errors
    ///
    /// The first [`ProtocolError`] encountered, if any.
    pub fn check_trace(&mut self, trace: &[TimedCommand]) -> Result<(), ProtocolError> {
        for tc in trace {
            self.check(tc)?;
        }
        Ok(())
    }

    /// Audits an entire trace, collecting every violation instead of
    /// stopping at the first. Checking continues past a violation with the
    /// offending command left unrecorded, so one bad command does not
    /// cascade into spurious reports against the rest of the trace.
    pub fn report_trace(&mut self, trace: &[TimedCommand]) -> ViolationReport {
        let mut report = ViolationReport { commands_checked: trace.len(), ..Default::default() };
        for tc in trace {
            if let Err(e) = self.check(tc) {
                if report.violations.len() < MAX_REPORTED_VIOLATIONS {
                    report.violations.push(e);
                } else {
                    report.truncated = true;
                }
            }
        }
        report
    }

    fn domain(&self, row: u32) -> u32 {
        if self.cfg.salp {
            row / self.cfg.rows_per_subarray() as u32
        } else {
            0
        }
    }

    fn subarray(&self, row: u32) -> u32 {
        row / self.cfg.rows_per_subarray() as u32
    }

    fn err(tc: &TimedCommand, rule: Rule) -> ProtocolError {
        ProtocolError { cmd: tc.cmd, at: tc.at, rule, earliest: None }
    }

    /// Verifies one command against accumulated history, then records it.
    /// A rejected command records nothing: every rule is checked before
    /// any history changes.
    ///
    /// # Errors
    ///
    /// The violated rule, wrapped with the command and its issue time.
    pub fn check(&mut self, tc: &TimedCommand) -> Result<(), ProtocolError> {
        let at = tc.at;
        if at < self.last_at {
            // Traces must be time-ordered; an out-of-order trace is a
            // harness bug, surfaced as a command-bus violation.
            return Err(Self::err(tc, Rule::CmdBusBusy));
        }
        self.check_range(tc)?;
        let (bus, busy_until) = self.check_cmd_bus(tc)?;
        // Each command's own check records it once all its rules pass.
        match tc.cmd {
            DramCommand::Activate { bank, row, slice } => {
                self.check_act(tc, bank.channel, bank.bank, row, slice)
            }
            DramCommand::Read { bank, row, col, auto_precharge, .. } => {
                self.check_col(tc, bank.channel, bank.bank, row, col, false, auto_precharge)
            }
            DramCommand::Write { bank, row, col, auto_precharge, .. } => {
                self.check_col(tc, bank.channel, bank.bank, row, col, true, auto_precharge)
            }
            DramCommand::Precharge { bank, row, slice } => {
                self.check_pre(tc, bank.channel, bank.bank, row, slice)
            }
            DramCommand::Refresh { channel } => self.check_refresh(tc, channel),
        }?;
        let buses = if tc.cmd.is_row_cmd() { &mut self.cmd_row_bus } else { &mut self.cmd_col_bus };
        buses.insert(bus, busy_until);
        self.last_at = at;
        Ok(())
    }

    /// Geometry guard: every command must target a channel/bank/row/column
    /// that exists in the configured part.
    fn check_range(&self, tc: &TimedCommand) -> Result<(), ProtocolError> {
        let cols = self.cfg.atoms_per_row() as u32;
        let slice_ok = |slice: u32| u64::from(slice) < self.cfg.slices_per_row();
        let in_bank = |b: fgdram_model::cmd::BankRef| {
            (b.channel as usize) < self.cfg.channels
                && (b.bank as usize) < self.cfg.banks_per_channel
        };
        let ok = match tc.cmd {
            DramCommand::Activate { bank, row, slice } => {
                in_bank(bank) && (row as usize) < self.cfg.rows_per_bank && slice_ok(slice)
            }
            DramCommand::Read { bank, row, col, .. }
            | DramCommand::Write { bank, row, col, .. } => {
                in_bank(bank) && (row as usize) < self.cfg.rows_per_bank && col < cols
            }
            DramCommand::Precharge { bank, row, slice } => {
                in_bank(bank)
                    && row.is_none_or(|r| (r as usize) < self.cfg.rows_per_bank)
                    && slice_ok(slice)
            }
            DramCommand::Refresh { channel } => (channel as usize) < self.cfg.channels,
        };
        if ok {
            Ok(())
        } else {
            Err(Self::err(tc, Rule::OutOfRange))
        }
    }

    /// The shared command bus must be free; returns the bus and when the
    /// command leaves it busy.
    fn check_cmd_bus(&self, tc: &TimedCommand) -> Result<(u32, Ns), ProtocolError> {
        let bus = tc.cmd.channel() / self.cfg.channels_per_cmd_channel as u32;
        let (buses, occupancy) = match tc.cmd {
            DramCommand::Activate { .. } => (&self.cmd_row_bus, self.timing.t_cmd_row),
            _ if tc.cmd.is_row_cmd() => (&self.cmd_row_bus, self.timing.t_cmd_col),
            _ => (&self.cmd_col_bus, self.timing.t_cmd_col),
        };
        if tc.at < buses.get(&bus).copied().unwrap_or(0) {
            return Err(Self::err(tc, Rule::CmdBusBusy));
        }
        Ok((bus, tc.at + occupancy))
    }

    fn check_act(
        &mut self,
        tc: &TimedCommand,
        channel: u32,
        bank: u32,
        row: u32,
        slice: u32,
    ) -> Result<(), ProtocolError> {
        let at = tc.at;
        let dom = self.domain(row);
        let sub = self.subarray(row);
        let t = self.timing;
        let rows_per_sub = self.cfg.rows_per_subarray() as u32;

        // Structural rules first, in the device's order, so both name the
        // same rule when more than one holds.
        let open = self.banks.get(&(channel, bank)).map(|bh| &bh.open);
        if open.is_some_and(|o| o.contains_key(&(dom, slice))) {
            return Err(Self::err(tc, Rule::ActOnOpenRow));
        }
        if self.cfg.salp
            && open.is_some_and(|o| o.keys().any(|&(d, _)| d + 1 == sub || d == sub + 1))
        {
            return Err(Self::err(tc, Rule::AdjacentSubarray));
        }
        // Grain rule: the sibling pseudobanks may not hold a different row
        // of the same subarray open.
        if self.cfg.is_grain_based() {
            for b in 0..self.cfg.banks_per_channel as u32 {
                if b == bank {
                    continue;
                }
                if let Some(h) = self.banks.get(&(channel, b)) {
                    for s in h.open.values() {
                        if s.row != row && s.row / rows_per_sub == sub {
                            return Err(Self::err(tc, Rule::SubarrayConflict));
                        }
                    }
                }
            }
        }

        if let Some(ch) = self.channels.get(&channel) {
            if at < ch.refresh_until {
                return Err(Self::err(tc, Rule::RefreshConflict));
            }
            if ch.last_act.is_some_and(|last| at < last + t.t_rrd) {
                return Err(Self::err(tc, Rule::ActRrd));
            }
            // tFAW over the channel's recent activates.
            let in_window = ch.recent_acts.iter().filter(|&&a| a + t.t_faw > at).count();
            if t.acts_in_faw > 0 && in_window >= t.acts_in_faw as usize {
                return Err(Self::err(tc, Rule::ActFaw));
            }
        }
        if let Some(bh) = self.banks.get(&(channel, bank)) {
            if bh.next_act.get(&(dom, slice)).is_some_and(|&fence| at < fence) {
                return Err(Self::err(tc, Rule::ActTooEarly));
            }
        }

        let ch = self.channels.entry(channel).or_default();
        ch.recent_acts.retain(|&a| a + t.t_faw > at);
        ch.recent_acts.push(at);
        ch.last_act = Some(at);
        let bh = self.banks.entry((channel, bank)).or_default();
        bh.next_act.insert((dom, slice), at + t.t_rc);
        bh.open.insert(
            (dom, slice),
            SlotState { row, act_at: at, last_read_at: None, last_write_end: None },
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_col(
        &mut self,
        tc: &TimedCommand,
        channel: u32,
        bank: u32,
        row: u32,
        col: u32,
        is_write: bool,
        auto_precharge: bool,
    ) -> Result<(), ProtocolError> {
        let at = tc.at;
        let t = self.timing;
        let dom = self.domain(row);
        let slice = col / self.cfg.atoms_per_activation() as u32;
        let group = bank % self.cfg.bank_groups as u32;
        let data_start = at + if is_write { t.t_wl } else { t.t_cl };
        let data_end = data_start + t.t_burst;

        if let Some(ch) = self.channels.get(&channel) {
            if at < ch.refresh_until {
                return Err(Self::err(tc, Rule::RefreshConflict));
            }
            if ch.last_col.is_some_and(|last| at < last + t.t_ccd_s) {
                return Err(Self::err(tc, Rule::ColCcd));
            }
            if ch.last_col_per_group.get(&group).is_some_and(|&last| at < last + t.t_ccd_l) {
                return Err(Self::err(tc, Rule::ColCcd));
            }
            if let (false, Some((wend, wgroup))) = (is_write, ch.last_write_end) {
                let wtr = if wgroup == group { t.t_wtr_l } else { t.t_wtr_s };
                if at < wend + wtr {
                    return Err(Self::err(tc, Rule::DataBusConflict));
                }
            }
            // In-order data bus, with a bubble when its direction turns.
            let turn = ch.last_dir_write.is_some_and(|w| w != is_write);
            if data_start < ch.last_data_end + if turn { TURNAROUND_BUBBLE } else { 0 } {
                return Err(Self::err(tc, Rule::DataBusConflict));
            }
        }
        let slot = self
            .banks
            .get(&(channel, bank))
            .and_then(|bh| bh.open.get(&(dom, slice)))
            .filter(|s| s.row == row)
            .ok_or_else(|| Self::err(tc, Rule::RowNotOpen))?;
        if at < slot.act_at + t.t_rcd {
            return Err(Self::err(tc, Rule::ColBeforeRcd));
        }

        let ch = self.channels.entry(channel).or_default();
        ch.last_data_end = data_end;
        ch.last_dir_write = Some(is_write);
        ch.last_col = Some(at);
        ch.last_col_per_group.insert(group, at);
        if is_write {
            ch.last_write_end = Some((data_end, group));
        }
        let bh = self.banks.get_mut(&(channel, bank)).expect("the row was found open above");
        let slot = bh.open.get_mut(&(dom, slice)).expect("the row was found open above");
        if is_write {
            slot.last_write_end = Some(data_end);
        } else {
            slot.last_read_at = Some(at);
        }
        if auto_precharge {
            let pre_at = Self::pre_fence(&t, slot);
            bh.open.remove(&(dom, slice));
            let fence = bh.next_act.entry((dom, slice)).or_insert(0);
            *fence = (*fence).max(pre_at + t.t_rp);
        }
        Ok(())
    }

    fn pre_fence(t: &TimingParams, slot: &SlotState) -> Ns {
        let mut fence = slot.act_at + t.t_ras;
        if let Some(r) = slot.last_read_at {
            fence = fence.max(r + t.t_rtp);
        }
        if let Some(w) = slot.last_write_end {
            fence = fence.max(w + t.t_wr);
        }
        fence
    }

    fn check_pre(
        &mut self,
        tc: &TimedCommand,
        channel: u32,
        bank: u32,
        row: Option<u32>,
        slice: u32,
    ) -> Result<(), ProtocolError> {
        let at = tc.at;
        let t = self.timing;
        if self.channels.get(&channel).is_some_and(|ch| at < ch.refresh_until) {
            return Err(Self::err(tc, Rule::RefreshConflict));
        }
        let open = self.banks.get(&(channel, bank)).map(|bh| &bh.open);
        let keys: Vec<(u32, u32)> = match row {
            Some(r) => vec![(self.domain(r), slice)],
            None => open.map(|o| o.keys().copied().collect()).unwrap_or_default(),
        };
        if keys.is_empty() {
            return Err(Self::err(tc, Rule::PreNothingOpen));
        }
        for key in &keys {
            let slot = open
                .and_then(|o| o.get(key))
                .filter(|s| row.is_none_or(|r| s.row == r))
                .ok_or_else(|| Self::err(tc, Rule::PreNothingOpen))?;
            if at < Self::pre_fence(&t, slot) {
                return Err(Self::err(tc, Rule::PreTooEarly));
            }
        }

        let bh = self.banks.get_mut(&(channel, bank)).expect("a slot was found open above");
        for key in keys {
            bh.open.remove(&key);
            let fence = bh.next_act.entry(key).or_insert(0);
            *fence = (*fence).max(at + t.t_rp);
        }
        Ok(())
    }

    fn check_refresh(&mut self, tc: &TimedCommand, channel: u32) -> Result<(), ProtocolError> {
        let at = tc.at;
        for b in 0..self.cfg.banks_per_channel as u32 {
            if self.banks.get(&(channel, b)).is_some_and(|h| !h.open.is_empty()) {
                return Err(Self::err(tc, Rule::RefreshConflict));
            }
        }
        if self.channels.get(&channel).is_some_and(|ch| at < ch.refresh_until) {
            return Err(Self::err(tc, Rule::RefreshConflict));
        }

        let until = at + self.timing.t_rfc;
        self.channels.entry(channel).or_default().refresh_until = until;
        // Fresh slots respect the refresh through `refresh_until`.
        for b in 0..self.cfg.banks_per_channel as u32 {
            if let Some(bh) = self.banks.get_mut(&(channel, b)) {
                for fence in bh.next_act.values_mut() {
                    *fence = (*fence).max(until);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::ReqId;
    use fgdram_model::cmd::BankRef;
    use fgdram_model::config::DramKind;

    pub(super) fn b(ch: u32, bank: u32) -> BankRef {
        BankRef { channel: ch, bank }
    }

    pub(super) fn act(ch: u32, bank: u32, row: u32, at: Ns) -> TimedCommand {
        TimedCommand { at, cmd: DramCommand::Activate { bank: b(ch, bank), row, slice: 0 } }
    }

    pub(super) fn rd(ch: u32, bank: u32, row: u32, col: u32, at: Ns) -> TimedCommand {
        TimedCommand {
            at,
            cmd: DramCommand::Read {
                bank: b(ch, bank),
                row,
                col,
                auto_precharge: false,
                req: ReqId(0),
            },
        }
    }

    fn pre(ch: u32, bank: u32, row: u32, at: Ns) -> TimedCommand {
        TimedCommand {
            at,
            cmd: DramCommand::Precharge { bank: b(ch, bank), row: Some(row), slice: 0 },
        }
    }

    fn checker(kind: DramKind) -> ProtocolChecker {
        ProtocolChecker::new(DramConfig::new(kind))
    }

    #[test]
    fn accepts_legal_sequence() {
        let mut c = checker(DramKind::QbHbm);
        c.check_trace(&[
            act(0, 0, 5, 0),
            rd(0, 0, 5, 0, 16),
            rd(0, 0, 5, 1, 20),
            pre(0, 0, 5, 29),
            act(0, 0, 6, 45),
        ])
        .unwrap();
    }

    #[test]
    fn rejects_read_before_trcd() {
        let mut c = checker(DramKind::QbHbm);
        let err = c.check_trace(&[act(0, 0, 5, 0), rd(0, 0, 5, 0, 10)]).unwrap_err();
        assert_eq!(err.rule, Rule::ColBeforeRcd);
    }

    #[test]
    fn rejects_read_of_wrong_row() {
        let mut c = checker(DramKind::QbHbm);
        let err = c.check_trace(&[act(0, 0, 5, 0), rd(0, 0, 9, 0, 16)]).unwrap_err();
        assert_eq!(err.rule, Rule::RowNotOpen);
    }

    #[test]
    fn rejects_act_violating_trc() {
        let mut c = checker(DramKind::QbHbm);
        let err =
            c.check_trace(&[act(0, 0, 5, 0), pre(0, 0, 5, 29), act(0, 0, 6, 44)]).unwrap_err();
        assert_eq!(err.rule, Rule::ActTooEarly);
    }

    #[test]
    fn rejects_ccd_violations() {
        let mut c = checker(DramKind::QbHbm);
        // Same bank (group): tCCDL = 4.
        let err =
            c.check_trace(&[act(0, 0, 5, 0), rd(0, 0, 5, 0, 16), rd(0, 0, 5, 1, 18)]).unwrap_err();
        assert_eq!(err.rule, Rule::ColCcd);
    }

    #[test]
    fn rejects_precharge_before_tras() {
        let mut c = checker(DramKind::QbHbm);
        let err = c.check_trace(&[act(0, 0, 5, 0), pre(0, 0, 5, 20)]).unwrap_err();
        assert_eq!(err.rule, Rule::PreTooEarly);
    }

    #[test]
    fn rejects_activates_packed_closer_than_trrd() {
        // tRRD equals the row-bus occupancy (2 ns) for QB-HBM, so the bus
        // check fires first; either way a 1 ns gap must be rejected and a
        // 2 ns gap accepted.
        let mut c = checker(DramKind::QbHbm);
        let err = c.check_trace(&[act(0, 0, 5, 0), act(0, 1, 5, 1)]).unwrap_err();
        assert!(matches!(err.rule, Rule::ActRrd | Rule::CmdBusBusy), "{:?}", err.rule);
        let mut c = checker(DramKind::QbHbm);
        c.check_trace(&[act(0, 0, 5, 0), act(0, 1, 5, 2)]).unwrap();
    }

    #[test]
    fn rejects_grain_subarray_conflict() {
        let mut c = checker(DramKind::Fgdram);
        // Rows 3 and 7 share subarray 0 across the two pseudobanks.
        let err = c.check_trace(&[act(0, 0, 3, 0), act(0, 1, 7, 4)]).unwrap_err();
        assert_eq!(err.rule, Rule::SubarrayConflict);
        // Same row in both pseudobanks is legal.
        let mut c = checker(DramKind::Fgdram);
        c.check_trace(&[act(0, 0, 3, 0), act(0, 1, 3, 4)]).unwrap();
    }

    #[test]
    fn rejects_shared_cmd_bus_overlap() {
        let mut c = checker(DramKind::Fgdram);
        // Grains 0 and 1 share a command channel; activates occupy 4 ns.
        let err = c.check_trace(&[act(0, 0, 3, 0), act(1, 0, 900, 2)]).unwrap_err();
        assert_eq!(err.rule, Rule::CmdBusBusy);
    }

    #[test]
    fn rejects_out_of_order_trace() {
        let mut c = checker(DramKind::QbHbm);
        let err = c.check_trace(&[act(0, 0, 5, 10), act(0, 1, 5, 0)]).unwrap_err();
        assert_eq!(err.rule, Rule::CmdBusBusy);
    }

    #[test]
    fn auto_precharge_enforces_trp_on_reactivation() {
        let mut c = checker(DramKind::QbHbm);
        let rd_ap = TimedCommand {
            at: 16,
            cmd: DramCommand::Read {
                bank: b(0, 0),
                row: 5,
                col: 0,
                auto_precharge: true,
                req: ReqId(0),
            },
        };
        // Auto-pre at max(tRAS=29, 16+tRTP=20) = 29; +tRP = 45; also tRC = 45.
        let err = c.check_trace(&[act(0, 0, 5, 0), rd_ap, act(0, 0, 6, 44)]).unwrap_err();
        assert_eq!(err.rule, Rule::ActTooEarly);
        let mut c = checker(DramKind::QbHbm);
        let rd_ap = TimedCommand {
            at: 16,
            cmd: DramCommand::Read {
                bank: b(0, 0),
                row: 5,
                col: 0,
                auto_precharge: true,
                req: ReqId(0),
            },
        };
        c.check_trace(&[act(0, 0, 5, 0), rd_ap, act(0, 0, 6, 45)]).unwrap();
    }

    /// A rejected activate must not claim the command bus, a tRRD/tFAW
    /// slot or anything else: the next activate is judged as if it never
    /// happened.
    #[test]
    fn a_rejected_command_records_nothing() {
        let trace = [act(0, 0, 5, 0), act(0, 0, 6, 2), act(0, 1, 7, 3)];
        let report = checker(DramKind::QbHbm).report_trace(&trace);
        let found: Vec<(Rule, Ns)> = report.violations.iter().map(|v| (v.rule, v.at)).collect();
        assert_eq!(found, [(Rule::ActOnOpenRow, 2)]);
        assert!(checker(DramKind::QbHbm).report_trace(&[trace[0], trace[2]]).is_clean());
    }

    /// A read at 16 drives data 32..34; a write's data must then wait the
    /// 2 ns turnaround bubble too, so its earliest issue is 32, as the
    /// device says.
    #[test]
    fn rejects_a_direction_change_inside_the_turnaround_bubble() {
        let mut dev = crate::DramDevice::new(DramConfig::new(DramKind::QbHbm));
        let wr = |at| TimedCommand {
            at,
            cmd: DramCommand::Write {
                bank: b(0, 0),
                row: 5,
                col: 1,
                auto_precharge: false,
                req: ReqId(0),
            },
        };
        for tc in [act(0, 0, 5, 0), rd(0, 0, 5, 0, 16)] {
            dev.issue(tc.cmd, tc.at).unwrap();
        }
        assert_eq!(dev.earliest(&wr(0).cmd, 16).unwrap(), 32);
        for at in [30, 31] {
            let err = checker(DramKind::QbHbm)
                .check_trace(&[act(0, 0, 5, 0), rd(0, 0, 5, 0, 16), wr(at)])
                .unwrap_err();
            assert_eq!((err.rule, err.at), (Rule::DataBusConflict, at));
        }
        checker(DramKind::QbHbm)
            .check_trace(&[act(0, 0, 5, 0), rd(0, 0, 5, 0, 16), wr(32)])
            .unwrap();
    }

    /// With row 0 open in both FGDRAM pseudobanks, activating row 1 breaks
    /// both the open-row rule and the grain subarray rule; the checker
    /// names the one the device reports.
    #[test]
    fn names_the_devices_rule_when_two_structural_rules_hold() {
        let trace = [act(0, 0, 0, 0), act(0, 1, 0, 3), act(0, 0, 1, 100)];
        let err = checker(DramKind::Fgdram).check_trace(&trace).unwrap_err();
        assert_eq!((err.rule, err.at), (Rule::ActOnOpenRow, 100));
        let mut dev = crate::DramDevice::new(DramConfig::new(DramKind::Fgdram));
        for tc in &trace[..2] {
            dev.issue(tc.cmd, tc.at).unwrap();
        }
        assert_eq!(dev.earliest(&trace[2].cmd, 100).unwrap_err().rule, Rule::ActOnOpenRow);
    }

    /// An activate or precharge of a row or slice the part does not have is
    /// out of range in both models. Past the last row of the last bank a
    /// precharge's slot index would leave the device's open-slot bitset.
    #[test]
    fn both_models_range_check_activate_and_precharge_fields() {
        let cfg = DramConfig::new(DramKind::QbHbmSalpSc);
        let (rows, slices) = (cfg.rows_per_bank as u32, cfg.slices_per_row() as u32);
        let dev = crate::DramDevice::new(cfg.clone());
        for (bank, row, slice) in [(b(63, 3), rows + 600, 0), (b(0, 0), 0, slices)] {
            let pre = DramCommand::Precharge { bank, row: Some(row), slice };
            for cmd in [DramCommand::Activate { bank, row, slice }, pre] {
                let checked = ProtocolChecker::new(cfg.clone()).check(&TimedCommand { at: 0, cmd });
                assert_eq!(checked.map_err(|e| e.rule), Err(Rule::OutOfRange), "{cmd:?}");
                let e = dev.earliest(&cmd, 0).map_err(|e| e.rule);
                assert_eq!(e, Err(Rule::OutOfRange), "{cmd:?}");
            }
        }
    }

    #[test]
    fn refresh_requires_closed_banks_and_blocks() {
        let mut c = checker(DramKind::QbHbm);
        let refresh = TimedCommand { at: 50, cmd: DramCommand::Refresh { channel: 0 } };
        let err = c.check_trace(&[act(0, 0, 5, 0), refresh]).unwrap_err();
        assert_eq!(err.rule, Rule::RefreshConflict);

        let mut c = checker(DramKind::QbHbm);
        let refresh = TimedCommand { at: 29, cmd: DramCommand::Refresh { channel: 0 } };
        let too_soon = act(0, 0, 5, 100);
        let err = c.check_trace(&[refresh, too_soon]).unwrap_err();
        assert_eq!(err.rule, Rule::RefreshConflict);
    }
}

#[cfg(test)]
mod rule_coverage {
    use super::tests::{act, b, rd};
    use super::*;
    use fgdram_model::addr::ReqId;
    use fgdram_model::config::DramKind;

    fn wr(ch: u32, bank: u32, row: u32, col: u32, at: Ns) -> TimedCommand {
        TimedCommand {
            at,
            cmd: DramCommand::Write {
                bank: b(ch, bank),
                row,
                col,
                auto_precharge: false,
                req: ReqId(0),
            },
        }
    }

    /// Write-to-read turnaround: a same-group read must wait tWTRl after
    /// the write's data ends (wr @16 -> data ends 16+4+2=22, +tWTRl 8 = 30).
    #[test]
    fn catches_wtr_violation() {
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbm));
        let err =
            c.check_trace(&[act(0, 0, 5, 0), wr(0, 0, 5, 0, 16), rd(0, 0, 5, 1, 26)]).unwrap_err();
        assert_eq!(err.rule, Rule::DataBusConflict);
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbm));
        c.check_trace(&[act(0, 0, 5, 0), wr(0, 0, 5, 0, 16), rd(0, 0, 5, 1, 30)]).unwrap();
    }

    /// Data-bus order: a write whose data (WL=4) would reach the bus
    /// before an earlier read's burst has left it must be rejected even
    /// when tCCD passes.
    #[test]
    fn catches_data_bus_overlap() {
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbm));
        // rd @16 drives data 32..34. wr @22 passes tCCDL (16 + 4 <= 22) but
        // its data, 26..28, would precede the read's: the in-order bus
        // (data start >= last data end + turnaround) rejects it.
        let err =
            c.check_trace(&[act(0, 0, 5, 0), rd(0, 0, 5, 0, 16), wr(0, 0, 5, 1, 22)]).unwrap_err();
        assert_eq!(err.rule, Rule::DataBusConflict);
    }

    /// Columns into a subchannel slice that was never activated must be
    /// rejected even when another slice of the same row is open.
    #[test]
    fn catches_wrong_slice_column() {
        let cfg = DramConfig::new(DramKind::QbHbmSalpSc);
        let mut c = ProtocolChecker::new(cfg);
        let a0 =
            TimedCommand { at: 0, cmd: DramCommand::Activate { bank: b(0, 0), row: 7, slice: 0 } };
        // Column 8 lives in slice 1 (8 atoms per 256 B activation).
        let err = c.check_trace(&[a0, rd(0, 0, 7, 8, 16)]).unwrap_err();
        assert_eq!(err.rule, Rule::RowNotOpen);
        // Column 3 (slice 0) is fine.
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbmSalpSc));
        c.check_trace(&[a0, rd(0, 0, 7, 3, 16)]).unwrap();
    }

    /// SALP adjacency: opening a row in the subarray next to an open one
    /// must be rejected.
    #[test]
    fn catches_adjacent_subarray() {
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbmSalpSc));
        // Rows 100 (subarray 0) and 600 (subarray 1) are adjacent.
        let err = c.check_trace(&[act(0, 0, 100, 0), act(0, 0, 600, 4)]).unwrap_err();
        assert_eq!(err.rule, Rule::AdjacentSubarray);
        // Subarray 2 (row 1200) is fine.
        let mut c = ProtocolChecker::new(DramConfig::new(DramKind::QbHbmSalpSc));
        c.check_trace(&[act(0, 0, 100, 0), act(0, 0, 1200, 4)]).unwrap();
    }

    /// tFAW: at most `acts_in_faw` activates in any `t_faw` window.
    #[test]
    fn catches_faw_violation() {
        // Table 2's window (8 per 12 ns) never binds at tRRD = 2 (8
        // activates already span 14 ns), so use a 4-per-40 ns window: four
        // activates at 0, 2, 4, 6 fill it and a fifth at 8 is rejected.
        let mut cfg = DramConfig::new(DramKind::Hbm2);
        cfg.timing.t_faw = 40;
        cfg.timing.acts_in_faw = 4;
        let mut c = ProtocolChecker::new(cfg.clone());
        let mut trace: Vec<TimedCommand> = (0..4).map(|i| act(0, i, 1, (i as u64) * 2)).collect();
        trace.push(act(0, 4, 1, 8)); // 5th activate 8 ns after the 1st
        let err = c.check_trace(&trace).unwrap_err();
        assert_eq!(err.rule, Rule::ActFaw);
        // At t0 + tFAW it passes.
        let mut c = ProtocolChecker::new(cfg);
        let mut trace: Vec<TimedCommand> = (0..4).map(|i| act(0, i, 1, (i as u64) * 2)).collect();
        trace.push(act(0, 4, 1, 40));
        c.check_trace(&trace).unwrap();
    }
}
