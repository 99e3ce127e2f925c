//! Data-oriented timing state for the whole DRAM stack.
//!
//! The object-model engine kept one heap-allocated `Bank` per pseudobank
//! (512 grains x 2 pseudobanks on FGDRAM), each holding its own `Vec`s of
//! row slots — every simulated command pointer-chased a scatter of small
//! allocations. [`DeviceState`] flattens all of it into contiguous arrays
//! indexed by a precomputed `(channel, bank, slot)` stride:
//!
//! - one packed `SlotState` record per row slot (fences + open-row
//!   payload), one packed `BankState` per bank, one packed (cache-line
//!   sized) `ChannelState` per channel — so a command touches a handful
//!   of lines instead of walking a per-field array scatter. A pure
//!   one-array-per-field layout was measured first and *lost* to the
//!   legacy engine on 512-grain GUPS: the simulator reads one channel's
//!   whole hot state per command, so splitting fields across arrays turns
//!   every scalar into its own cache miss;
//! - per-bank bitset words for open slots, so `any_open` is a counter test
//!   and SALP's `adjacent_open` is two bit probes of a per-subarray mask
//!   instead of a slot scan;
//! - flat telemetry lanes (per-bank activate counts channel-major, tFAW
//!   rings) that readers consume as one contiguous slice.
//!
//! `Option<Ns>` fences are stored as plain `Ns` with 0 meaning "never":
//! all fence arithmetic is `max`, and `t.max(0) == t`, so the encodings
//! are exactly equivalent. The state changes only through
//! [`crate::DramDevice`], which evaluates a command's `earliest_*` fence
//! before applying it. The independent [`crate::ProtocolChecker`] is the
//! reference these rules are held to: `tests/timing_explorer.rs` checks
//! every bounded command sequence against it (soundness, tightness,
//! matching structural rules, no change on rejection), and
//! `tests/device_timing.rs` does the same for random full-size streams.

use std::cell::Cell;

use fgdram_model::config::{DramConfig, TimingParams};
use fgdram_model::stats::BusyTracker;
use fgdram_model::units::Ns;

use crate::error::Rule;

/// Extra data-bus bubble inserted when the bus changes direction.
pub(crate) const TURNAROUND_BUBBLE: Ns = 2;

/// An activated row resident in sense amplifiers (a value snapshot of one
/// open slot's packed state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRow {
    /// The open row index (bank-relative).
    pub row: u32,
    /// Subchannel slice that was activated.
    pub slice: u32,
    /// First column command allowed (activate + tRCD).
    pub ready_at: Ns,
    /// Earliest legal precharge (tRAS, then pushed by tRTP/tWR).
    pub earliest_pre: Ns,
    /// When the activate issued (for tRC accounting of interest).
    pub act_at: Ns,
}

/// A rejected channel operation: the violated rule plus, when the rule is
/// purely temporal, the earliest legal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reject {
    /// Violated rule.
    pub rule: Rule,
    /// Earliest legal issue time, for temporal rules.
    pub earliest: Option<Ns>,
}

impl Reject {
    pub(crate) fn structural(rule: Rule) -> Self {
        Reject { rule, earliest: None }
    }
}

/// Data-bus occupancy outcome of an accepted column command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColOutcome {
    /// First data beat on the bus.
    pub data_start: Ns,
    /// One past the last data beat.
    pub data_end: Ns,
}

/// Operation counters for energy accounting and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelCounters {
    /// Row activations issued.
    pub activates: u64,
    /// Read atoms transferred.
    pub read_atoms: u64,
    /// Written atoms transferred.
    pub write_atoms: u64,
    /// Refresh commands serviced.
    pub refreshes: u64,
    /// Precharges (explicit + auto).
    pub precharges: u64,
}

/// One row slot's timing fences and open-row payload. The payload fields
/// (`row`, `slice`, and the open fences) are valid only while the slot's
/// bit is set in the bank's open bitset; `next_act` is always live.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SlotState {
    /// Earliest next activate (tRC from the last activate, tRP from the
    /// last precharge, tRFC from refresh).
    next_act: Ns,
    /// First column command allowed (activate + tRCD).
    ready_at: Ns,
    /// Earliest legal precharge (tRAS, pushed by tRTP/tWR).
    earliest_pre: Ns,
    /// When the activate issued.
    act_at: Ns,
    /// The open row index.
    row: u32,
    /// Subchannel slice that was activated.
    slice: u32,
}

/// One bank's packed hot state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BankState {
    /// One bit per subarray with >= 1 open slot. SALP's adjacent-subarray
    /// check probes the two neighbouring bits.
    sub_open_mask: u64,
    /// Open slots in this bank.
    open_count: u32,
}

/// One channel's packed hot state — sized to a cache line so a column
/// command reads its whole channel context in one memory touch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChannelState {
    /// Channel tRRD fence: last activate + tRRD (0 = never).
    act_free: Ns,
    /// tCCDS fence: last column (any group) + tCCDS (0 = never).
    ccd_any_free: Ns,
    /// End of the last write's data burst (0 = never written).
    last_write_data_end: Ns,
    /// Channel blocked through this time by an in-progress refresh.
    refresh_until: Ns,
    /// Data-bus occupancy.
    data_bus: BusyTracker,
    /// Bank group of the last write (`u32::MAX` = none).
    last_write_group: u32,
    /// Open slots across the whole channel.
    open_count: u32,
    /// Last data-bus direction: 0 = none, 1 = read, 2 = write.
    last_dir: u8,
}

impl Default for ChannelState {
    fn default() -> Self {
        ChannelState {
            act_free: 0,
            ccd_any_free: 0,
            last_write_data_end: 0,
            refresh_until: 0,
            data_bus: BusyTracker::new(),
            last_write_group: u32::MAX,
            open_count: 0,
            last_dir: 0,
        }
    }
}

/// Flat timing state for every channel, bank, and row slot of a stack.
///
/// Slot index layout: `(channel * banks + bank) * slots_per_bank + slot`,
/// where `slot = subarray * slices + slice` (subarray 0 when SALP is off).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    // Geometry (precomputed strides).
    channels: u32,
    banks: u32,
    slots_per_bank: u32,
    words_per_bank: u32,
    slices: u32,
    /// Slot-level subarray count: `subarrays_per_bank` with SALP, else 1.
    subarrays: u32,
    salp: bool,
    grain_guard: bool,
    bank_groups: u32,
    rows_per_subarray: u32,
    timing: TimingParams,
    /// Timing evaluations (`earliest_*` calls) so far: host-side work, in
    /// no counter set or report.
    evals: Cell<u64>,

    /// Packed per-slot records (`channels * banks * slots_per_bank`).
    slots: Vec<SlotState>,
    /// Packed per-bank records (`channels * banks`).
    bank_s: Vec<BankState>,
    /// Packed per-channel records (`channels`).
    ch_s: Vec<ChannelState>,

    /// Open-slot bitset, `words_per_bank` words per bank.
    open_bits: Vec<u64>,
    /// Open-slot count per (bank, subarray) — feeds `sub_open_mask`.
    sub_open_count: Vec<u16>,
    /// tCCDL fence per (channel, group): last same-group column + tCCDL.
    ccd_group_free: Vec<Ns>,
    /// Per-bank activate counts, channel-major (telemetry heatmap lane).
    bank_activates: Vec<u64>,
    counters: Vec<ChannelCounters>,
    faw_headroom_sum: Vec<u64>,

    // Flattened tFAW rolling windows (`channels * faw_cap` times).
    faw_cap: u32,
    faw_window: Ns,
    faw_enabled: bool,
    faw_times: Vec<Ns>,
    faw_head: Vec<u32>,
    faw_filled: Vec<u32>,
}

impl DeviceState {
    /// All-idle state for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the SALP subarray count exceeds 64 (the per-subarray
    /// open mask is one `u64` word per bank).
    pub fn new(cfg: &DramConfig) -> Self {
        let channels = cfg.channels as u32;
        let banks = cfg.banks_per_channel as u32;
        let slices = cfg.slices_per_row() as u32;
        let subarrays = if cfg.salp { cfg.subarrays_per_bank as u32 } else { 1 };
        assert!(subarrays <= 64, "sub_open_mask holds at most 64 subarrays per bank");
        let slots_per_bank = subarrays * slices;
        let words_per_bank = slots_per_bank.div_ceil(64).max(1);
        let n_banks = (channels * banks) as usize;
        let n_slots = n_banks * slots_per_bank as usize;
        let faw_cap = cfg.timing.acts_in_faw.max(1);
        DeviceState {
            channels,
            banks,
            slots_per_bank,
            words_per_bank,
            slices,
            subarrays,
            salp: cfg.salp,
            grain_guard: cfg.is_grain_based(),
            bank_groups: cfg.bank_groups as u32,
            rows_per_subarray: cfg.rows_per_subarray() as u32,
            timing: cfg.timing,
            evals: Cell::new(0),
            slots: vec![SlotState::default(); n_slots],
            bank_s: vec![BankState::default(); n_banks],
            ch_s: vec![ChannelState::default(); channels as usize],
            open_bits: vec![0; n_banks * words_per_bank as usize],
            sub_open_count: vec![0; n_banks * subarrays as usize],
            ccd_group_free: vec![0; (channels * cfg.bank_groups as u32) as usize],
            bank_activates: vec![0; n_banks],
            counters: vec![ChannelCounters::default(); channels as usize],
            faw_headroom_sum: vec![0; channels as usize],
            faw_cap,
            faw_window: cfg.timing.t_faw,
            faw_enabled: cfg.timing.acts_in_faw > 0 && cfg.timing.t_faw > 0,
            faw_times: vec![0; channels as usize * faw_cap as usize],
            faw_head: vec![0; channels as usize],
            faw_filled: vec![0; channels as usize],
        }
    }

    // ---- index helpers -------------------------------------------------

    #[inline]
    fn bank_index(&self, ch: u32, bank: u32) -> usize {
        (ch * self.banks + bank) as usize
    }

    #[inline]
    fn slot_base(&self, bank_index: usize) -> usize {
        bank_index * self.slots_per_bank as usize
    }

    #[inline]
    fn slot_of(&self, row: u32, slice: u32) -> u32 {
        let sub = if self.salp { row / self.rows_per_subarray } else { 0 };
        sub * self.slices + slice
    }

    #[inline]
    fn slot_open(&self, bank_index: usize, slot: u32) -> bool {
        let w = bank_index * self.words_per_bank as usize + (slot / 64) as usize;
        self.open_bits[w] >> (slot % 64) & 1 != 0
    }

    #[inline]
    fn open_row_at(&self, si: usize) -> OpenRow {
        let s = &self.slots[si];
        OpenRow {
            row: s.row,
            slice: s.slice,
            ready_at: s.ready_at,
            earliest_pre: s.earliest_pre,
            act_at: s.act_at,
        }
    }

    fn check_bank(&self, bank: u32) -> Result<(), Reject> {
        if bank < self.banks {
            Ok(())
        } else {
            Err(Reject::structural(Rule::OutOfRange))
        }
    }

    // ---- read-side accessors -------------------------------------------

    /// The open row covering (`row`, `slice`) of (`ch`, `bank`), if any.
    pub fn open_at(&self, ch: u32, bank: u32, row: u32, slice: u32) -> Option<OpenRow> {
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        if self.slot_open(bi, slot) {
            Some(self.open_row_at(self.slot_base(bi) + slot as usize))
        } else {
            None
        }
    }

    /// True when any slot of (`ch`, `bank`) holds an open row.
    pub fn any_open(&self, ch: u32, bank: u32) -> bool {
        self.bank_s[self.bank_index(ch, bank)].open_count > 0
    }

    /// Iterates (`ch`, `bank`)'s open rows in ascending slot order (the
    /// same order the legacy per-slot `Vec` produced).
    pub fn open_rows(&self, ch: u32, bank: u32) -> OpenRows<'_> {
        let bi = self.bank_index(ch, bank);
        OpenRows {
            state: self,
            slot_base: self.slot_base(bi),
            word_base: bi * self.words_per_bank as usize,
            word: 0,
            next_word: 0,
            words: self.words_per_bank,
            cur: 0,
        }
    }

    /// First open slot of (`ch`, `bank`) in slot order, if any.
    pub fn first_open(&self, ch: u32, bank: u32) -> Option<OpenRow> {
        self.open_rows(ch, bank).next()
    }

    /// Operation counters of channel `ch`.
    pub fn counters(&self, ch: u32) -> &ChannelCounters {
        &self.counters[ch as usize]
    }

    /// Data-bus occupancy tracker of channel `ch`.
    pub fn data_bus(&self, ch: u32) -> &BusyTracker {
        &self.ch_s[ch as usize].data_bus
    }

    /// Per-bank activate counts of channel `ch` since the last reset.
    pub fn bank_activates(&self, ch: u32) -> &[u64] {
        let base = self.bank_index(ch, 0);
        &self.bank_activates[base..base + self.banks as usize]
    }

    /// The whole per-bank activate heatmap, channel-major (index =
    /// `channel * banks_per_channel + bank`) — one contiguous slice for
    /// telemetry instead of a per-channel gather.
    pub fn bank_activates_flat(&self) -> &[u64] {
        &self.bank_activates
    }

    /// Sum over all activates of the tFAW slots still free at issue time
    /// (beyond the slot the activate itself consumes).
    pub fn faw_headroom_sum(&self, ch: u32) -> u64 {
        self.faw_headroom_sum[ch as usize]
    }

    /// Timing evaluations so far: every `earliest_*` call, including the
    /// one each [`crate::DramDevice`] issue makes. Never reset.
    pub(crate) fn timing_evals(&self) -> u64 {
        self.evals.get()
    }

    pub(crate) fn set_timing_evals(&self, n: u64) {
        self.evals.set(n);
    }

    #[inline]
    fn count_eval(&self) {
        self.evals.set(self.evals.get() + 1);
    }

    /// Zeroes every channel's operation counters (end-of-warmup).
    pub fn reset_counters(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = ChannelCounters::default());
        self.bank_activates.iter_mut().for_each(|b| *b = 0);
        self.faw_headroom_sum.iter_mut().for_each(|s| *s = 0);
    }

    #[inline]
    fn group_of(&self, bank: u32) -> u32 {
        // `bank_groups` is a validated power of two.
        bank & (self.bank_groups - 1)
    }

    // ---- tFAW ring ------------------------------------------------------

    #[inline]
    fn faw_earliest(&self, ch: u32, at: Ns) -> Ns {
        let filled = self.faw_filled[ch as usize];
        if !self.faw_enabled || filled < self.faw_cap {
            return at;
        }
        let base = ch as usize * self.faw_cap as usize;
        at.max(self.faw_times[base + self.faw_head[ch as usize] as usize] + self.faw_window)
    }

    /// Ring entries still inside the window at `at`, subtracted from the
    /// cap. Activates are recorded in issue order, which the tRRD fence
    /// keeps nondecreasing, so the in-window entries are the newest ones:
    /// walk back from the newest and stop at the first that has aged out.
    #[inline]
    fn faw_free_slots(&self, ch: u32, at: Ns) -> u32 {
        if !self.faw_enabled {
            return self.faw_cap;
        }
        let c = ch as usize;
        let base = c * self.faw_cap as usize;
        let mut i = self.faw_head[c];
        let mut in_window = 0;
        while in_window < self.faw_filled[c] {
            i = if i == 0 { self.faw_cap - 1 } else { i - 1 };
            if self.faw_times[base + i as usize] + self.faw_window <= at {
                break;
            }
            in_window += 1;
        }
        self.faw_cap - in_window
    }

    #[inline]
    fn faw_record(&mut self, ch: u32, at: Ns) {
        if !self.faw_enabled {
            return;
        }
        let c = ch as usize;
        let head = self.faw_head[c];
        self.faw_times[c * self.faw_cap as usize + head as usize] = at;
        self.faw_head[c] = (head + 1) % self.faw_cap;
        self.faw_filled[c] = (self.faw_filled[c] + 1).min(self.faw_cap);
    }

    // ---- activate ------------------------------------------------------

    /// SALP shared sense-amp stripe check: is a neighbouring subarray of
    /// `row`'s subarray open? Two bit probes of the per-subarray mask (the
    /// legacy path rescanned every slot of both neighbours per activate).
    #[inline]
    fn adjacent_open(&self, bank_index: usize, row: u32) -> bool {
        let sub = row / self.rows_per_subarray;
        let mask = self.bank_s[bank_index].sub_open_mask;
        (sub > 0 && mask & (1 << (sub - 1)) != 0)
            || (sub + 1 < self.subarrays && mask & (1 << (sub + 1)) != 0)
    }

    /// Earliest activate of (`ch`, `bank`, `row`, `slice`) at or after
    /// `at`.
    ///
    /// # Errors
    ///
    /// Structural rejections: [`Rule::ActOnOpenRow`],
    /// [`Rule::AdjacentSubarray`], [`Rule::SubarrayConflict`],
    /// [`Rule::OutOfRange`].
    pub fn earliest_act(
        &self,
        ch: u32,
        bank: u32,
        row: u32,
        slice: u32,
        at: Ns,
    ) -> Result<Ns, Reject> {
        self.count_eval();
        self.check_bank(bank)?;
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        if self.slot_open(bi, slot) {
            return Err(Reject::structural(Rule::ActOnOpenRow));
        }
        if self.salp && self.adjacent_open(bi, row) {
            return Err(Reject::structural(Rule::AdjacentSubarray));
        }
        let mut t = at.max(self.slots[self.slot_base(bi) + slot as usize].next_act);
        if self.grain_guard {
            // Pseudobank subarray-conflict guard (Section 3.3): a sibling
            // pseudobank holding a *different* row of the same subarray
            // blocks the activate structurally.
            let sub = row / self.rows_per_subarray;
            for other in 0..self.banks {
                if other == bank {
                    continue;
                }
                let conflict = self
                    .open_rows(ch, other)
                    .any(|o| o.row != row && o.row / self.rows_per_subarray == sub);
                if conflict {
                    return Err(Reject::structural(Rule::SubarrayConflict));
                }
            }
        }
        // tRRD between any two activates of the channel, to one bank or
        // two.
        let cs = &self.ch_s[ch as usize];
        t = t.max(cs.act_free);
        t = self.faw_earliest(ch, t);
        Ok(t.max(cs.refresh_until))
    }

    /// The state change of an activate that [`Self::earliest_act`] allows
    /// at `at`.
    pub(crate) fn apply_activate(&mut self, ch: u32, bank: u32, row: u32, slice: u32, at: Ns) {
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        let si = self.slot_base(bi) + slot as usize;
        debug_assert!(!self.slot_open(bi, slot));
        let w = bi * self.words_per_bank as usize + (slot / 64) as usize;
        self.open_bits[w] |= 1 << (slot % 64);
        let s = &mut self.slots[si];
        s.row = row;
        s.slice = slice;
        s.ready_at = at + self.timing.t_rcd;
        s.earliest_pre = at + self.timing.t_ras;
        s.act_at = at;
        s.next_act = at + self.timing.t_rc;
        let sub = slot / self.slices;
        let sci = bi * self.subarrays as usize + sub as usize;
        let b = &mut self.bank_s[bi];
        b.open_count += 1;
        if self.sub_open_count[sci] == 0 {
            b.sub_open_mask |= 1 << sub;
        }
        self.sub_open_count[sci] += 1;
        let c = ch as usize;
        self.ch_s[c].open_count += 1;
        self.ch_s[c].act_free = at + self.timing.t_rrd;
        // Headroom is observed before recording: slots free beyond the one
        // this activate takes.
        self.faw_headroom_sum[c] += self.faw_free_slots(ch, at).saturating_sub(1) as u64;
        self.faw_record(ch, at);
        self.counters[c].activates += 1;
        self.bank_activates[bi] += 1;
    }

    // ---- column --------------------------------------------------------

    /// Earliest read/write column command for the open
    /// (`ch`, `bank`, `row`, `slice`).
    ///
    /// # Errors
    ///
    /// [`Rule::RowNotOpen`] / [`Rule::OutOfRange`] structurally.
    pub fn earliest_col(
        &self,
        ch: u32,
        bank: u32,
        row: u32,
        slice: u32,
        is_write: bool,
        at: Ns,
    ) -> Result<Ns, Reject> {
        self.count_eval();
        self.check_bank(bank)?;
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        let si = self.slot_base(bi) + slot as usize;
        // tRCD gate; the slot may hold a *different* row of the same slot.
        if !self.slot_open(bi, slot) || self.slots[si].row != row {
            return Err(Reject::structural(Rule::RowNotOpen));
        }
        let mut t = at.max(self.slots[si].ready_at);
        let c = ch as usize;
        let cs = &self.ch_s[c];
        let group = self.group_of(bank);
        // Bank-group spacing.
        t = t.max(cs.ccd_any_free);
        t = t.max(self.ccd_group_free[c * self.bank_groups as usize + group as usize]);
        // Write-to-read turnaround (from end of write data).
        if !is_write && cs.last_write_data_end > 0 {
            let wtr = if group == cs.last_write_group {
                self.timing.t_wtr_l
            } else {
                self.timing.t_wtr_s
            };
            t = t.max(cs.last_write_data_end + wtr);
        }
        // Data bus: in-order, non-overlapping, with a turnaround bubble.
        let latency = if is_write { self.timing.t_wl } else { self.timing.t_cl };
        let dir = cs.last_dir;
        let mut bus_free = cs.data_bus.busy_until();
        if dir != 0 && (dir == 2) != is_write {
            bus_free += TURNAROUND_BUBBLE;
        }
        if bus_free > t + latency {
            t = bus_free - latency;
        }
        Ok(t.max(cs.refresh_until))
    }

    /// The state change of a column command that [`Self::earliest_col`]
    /// allows at `at`.
    pub(crate) fn apply_column(
        &mut self,
        ch: u32,
        bank: u32,
        row: u32,
        slice: u32,
        is_write: bool,
        at: Ns,
    ) -> ColOutcome {
        let c = ch as usize;
        let group = self.group_of(bank);
        let latency = if is_write { self.timing.t_wl } else { self.timing.t_cl };
        let data_start = at + latency;
        let data_end = data_start + self.timing.t_burst;
        let cs = &mut self.ch_s[c];
        cs.data_bus.occupy(data_start, self.timing.t_burst);
        cs.ccd_any_free = at + self.timing.t_ccd_s;
        cs.last_dir = if is_write { 2 } else { 1 };
        if is_write {
            cs.last_write_data_end = data_end;
            cs.last_write_group = group;
        }
        self.ccd_group_free[c * self.bank_groups as usize + group as usize] =
            at + self.timing.t_ccd_l;
        let bi = self.bank_index(ch, bank);
        let si = self.slot_base(bi) + self.slot_of(row, slice) as usize;
        if is_write {
            // Write recovery pushes the precharge fence past data end.
            let s = &mut self.slots[si];
            s.earliest_pre = s.earliest_pre.max(data_end + self.timing.t_wr);
            self.counters[c].write_atoms += 1;
        } else {
            // Read-to-precharge: the fence moves past issue + tRTP.
            let s = &mut self.slots[si];
            s.earliest_pre = s.earliest_pre.max(at + self.timing.t_rtp);
            self.counters[c].read_atoms += 1;
        }
        ColOutcome { data_start, data_end }
    }

    // ---- precharge -----------------------------------------------------

    /// Earliest precharge of the open row `row` in (`ch`, `bank`,
    /// `slice`).
    ///
    /// # Errors
    ///
    /// [`Rule::PreNothingOpen`] when that slot is closed or holds a
    /// different row; [`Rule::OutOfRange`].
    pub fn earliest_pre(
        &self,
        ch: u32,
        bank: u32,
        row: u32,
        slice: u32,
        at: Ns,
    ) -> Result<Ns, Reject> {
        self.count_eval();
        self.check_bank(bank)?;
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        let si = self.slot_base(bi) + slot as usize;
        if !self.slot_open(bi, slot) || self.slots[si].row != row {
            return Err(Reject::structural(Rule::PreNothingOpen));
        }
        Ok(self.slots[si].earliest_pre.max(at).max(self.ch_s[ch as usize].refresh_until))
    }

    /// Earliest precharge of every open slot of (`ch`, `bank`) at once:
    /// the latest of their [`Self::earliest_pre`] times.
    ///
    /// # Errors
    ///
    /// [`Rule::PreNothingOpen`] / [`Rule::OutOfRange`].
    pub(crate) fn earliest_pre_all(&self, ch: u32, bank: u32, at: Ns) -> Result<Ns, Reject> {
        self.count_eval();
        self.check_bank(bank)?;
        if !self.any_open(ch, bank) {
            return Err(Reject::structural(Rule::PreNothingOpen));
        }
        let t = self.open_rows(ch, bank).map(|o| o.earliest_pre).fold(at, Ns::max);
        Ok(t.max(self.ch_s[ch as usize].refresh_until))
    }

    /// The state change of a precharge that [`Self::earliest_pre`] allows
    /// at `at`.
    pub(crate) fn apply_precharge(&mut self, ch: u32, bank: u32, row: u32, slice: u32, at: Ns) {
        let bi = self.bank_index(ch, bank);
        let slot = self.slot_of(row, slice);
        let si = self.slot_base(bi) + slot as usize;
        let w = bi * self.words_per_bank as usize + (slot / 64) as usize;
        let bit = 1u64 << (slot % 64);
        if self.open_bits[w] & bit != 0 {
            self.open_bits[w] &= !bit;
            self.bank_s[bi].open_count -= 1;
            self.ch_s[ch as usize].open_count -= 1;
            let sub = slot / self.slices;
            let sci = bi * self.subarrays as usize + sub as usize;
            self.sub_open_count[sci] -= 1;
            if self.sub_open_count[sci] == 0 {
                self.bank_s[bi].sub_open_mask &= !(1u64 << sub);
            }
        }
        let s = &mut self.slots[si];
        s.next_act = s.next_act.max(at + self.timing.t_rp);
        self.counters[ch as usize].precharges += 1;
    }

    /// Auto-precharge of the slot a column command just used: it closes as
    /// soon as tRAS/tRTP/tWR allow, without a command-bus slot. The slot
    /// is open (the column just used it), so its precharge fence is the
    /// whole answer — what [`Self::earliest_pre`] would return for
    /// `at = 0`, without a second evaluation.
    pub(crate) fn apply_auto_precharge(&mut self, ch: u32, bank: u32, row: u32, slice: u32) {
        let si = self.slot_base(self.bank_index(ch, bank)) + self.slot_of(row, slice) as usize;
        let at = self.slots[si].earliest_pre.max(self.ch_s[ch as usize].refresh_until);
        self.apply_precharge(ch, bank, row, slice, at);
    }

    /// Closes every open slot of (`ch`, `bank`) at `at`, which
    /// [`Self::earliest_pre_all`] allows; returns how many it closed.
    pub(crate) fn apply_precharge_all(&mut self, ch: u32, bank: u32, at: Ns) -> u64 {
        let mut closed = 0;
        while let Some(o) = self.first_open(ch, bank) {
            self.apply_precharge(ch, bank, o.row, o.slice, at);
            closed += 1;
        }
        closed
    }

    // ---- refresh -------------------------------------------------------

    /// Earliest all-bank refresh of `ch` (requires every row closed).
    ///
    /// # Errors
    ///
    /// [`Rule::RefreshConflict`] while any row is open.
    pub fn earliest_refresh(&self, ch: u32, at: Ns) -> Result<Ns, Reject> {
        self.count_eval();
        if self.ch_s[ch as usize].open_count > 0 {
            return Err(Reject::structural(Rule::RefreshConflict));
        }
        Ok(at.max(self.ch_s[ch as usize].refresh_until))
    }

    /// The state change of a refresh that [`Self::earliest_refresh`]
    /// allows at `at`.
    pub(crate) fn apply_refresh(&mut self, ch: u32, at: Ns) {
        let until = at + self.timing.t_rfc;
        let base = self.slot_base(self.bank_index(ch, 0));
        let len = (self.banks * self.slots_per_bank) as usize;
        for s in &mut self.slots[base..base + len] {
            s.next_act = s.next_act.max(until);
        }
        self.ch_s[ch as usize].refresh_until = until;
        self.counters[ch as usize].refreshes += 1;
    }
}

/// `Ok` when `at` is at or after `earliest`, else `rule` with the time it
/// would have to wait for.
pub(crate) fn not_before(earliest: Ns, at: Ns, rule: Rule) -> Result<(), Reject> {
    if at < earliest {
        Err(Reject { rule, earliest: Some(earliest) })
    } else {
        Ok(())
    }
}

/// Iterator over one bank's open rows, ascending slot order.
#[derive(Debug)]
pub struct OpenRows<'a> {
    state: &'a DeviceState,
    slot_base: usize,
    word_base: usize,
    word: u32,
    next_word: u32,
    words: u32,
    cur: u64,
}

impl Iterator for OpenRows<'_> {
    type Item = OpenRow;

    fn next(&mut self) -> Option<OpenRow> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros();
                self.cur &= self.cur - 1;
                let si = self.slot_base + (self.word * 64 + bit) as usize;
                return Some(self.state.open_row_at(si));
            }
            if self.next_word >= self.words {
                return None;
            }
            self.word = self.next_word;
            self.cur = self.state.open_bits[self.word_base + self.next_word as usize];
            self.next_word += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramDevice;
    use fgdram_model::addr::ReqId;
    use fgdram_model::cmd::{BankRef, DramCommand};
    use fgdram_model::config::DramKind;

    fn device(kind: DramKind) -> DramDevice {
        DramDevice::new(DramConfig::new(kind))
    }

    fn act(bank: u32, row: u32, slice: u32) -> DramCommand {
        DramCommand::Activate { bank: BankRef { channel: 0, bank }, row, slice }
    }

    /// A column command to `col` of `row` in channel 0's `bank`.
    fn col(bank: u32, row: u32, col: u32, is_write: bool) -> DramCommand {
        let (bank, auto_precharge, req) = (BankRef { channel: 0, bank }, false, ReqId(0));
        if is_write {
            DramCommand::Write { bank, row, col, auto_precharge, req }
        } else {
            DramCommand::Read { bank, row, col, auto_precharge, req }
        }
    }

    fn pre(bank: u32, row: u32, slice: u32) -> DramCommand {
        DramCommand::Precharge { bank: BankRef { channel: 0, bank }, row: Some(row), slice }
    }

    const REFRESH: DramCommand = DramCommand::Refresh { channel: 0 };

    /// Issues `cmd` at its earliest time from `at`; returns that time and
    /// the data-bus end of a column command.
    fn issue(d: &mut DramDevice, cmd: DramCommand, at: Ns) -> (Ns, Option<Ns>) {
        let t = d.earliest(&cmd, at).unwrap();
        (t, d.issue(cmd, t).unwrap().map(|c| c.at))
    }

    /// Figure 4: commands to different bank groups can be tCCDS apart and
    /// keep the data bus gapless; same group must wait tCCDL.
    #[test]
    fn fig4_bank_group_overlap() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 10, 0), 0).unwrap();
        d.issue(act(1, 20, 0), 2).unwrap(); // tRRD = 2
        let (t0, end0) = issue(&mut d, col(0, 10, 0, false), 0);
        assert_eq!((t0, end0), (16, Some(34))); // tRCD; data 32..34
                                                // Different group: tCCDS later; bus stays gapless.
        assert_eq!(issue(&mut d, col(1, 20, 0, false), t0), (18, Some(36)));
        // Same group as bank 0: tCCDL after its column.
        assert_eq!(d.earliest(&col(0, 10, 0, false), t0).unwrap(), t0 + 4);
    }

    #[test]
    fn trrd_spaces_activates_across_banks() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 1, 0), 0).unwrap();
        assert_eq!(d.earliest(&act(1, 2, 0), 0).unwrap(), 2);
        let err = d.issue(act(1, 2, 0), 1).unwrap_err();
        assert_eq!((err.rule, err.earliest), (Rule::CmdBusBusy, Some(2)));
        // A wider tRRD than the 2 ns row-bus slot is the binding fence.
        let mut cfg = DramConfig::new(DramKind::QbHbm);
        cfg.timing.t_rrd = 8;
        let mut d = DramDevice::new(cfg);
        d.issue(act(0, 1, 0), 0).unwrap();
        let err = d.issue(act(1, 2, 0), 7).unwrap_err();
        assert_eq!((err.rule, err.earliest), (Rule::ActTooEarly, Some(8)));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 1, 0), 0).unwrap();
        d.issue(act(1, 1, 0), 2).unwrap();
        let (_, w_end) = issue(&mut d, col(0, 1, 0, true), 0);
        let w_end = w_end.unwrap();
        // Same-group read: tWTRl after write data end.
        let r_same = d.earliest(&col(0, 1, 0, false), 0).unwrap();
        assert!(r_same >= w_end + 8, "{r_same} vs {w_end}");
        // Different-group read: only tWTRs.
        let r_diff = d.earliest(&col(1, 1, 0, false), 0).unwrap();
        assert!(r_diff >= w_end + 3);
        assert!(r_diff < r_same);
    }

    #[test]
    fn data_bus_serialises_and_bubbles_on_turnaround() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 1, 0), 0).unwrap();
        let (rt, r_end) = issue(&mut d, col(0, 1, 0, false), 0);
        // Read->write: write data must start after read data + bubble.
        let (wt, w_end) = issue(&mut d, col(0, 1, 0, true), rt);
        let w_start = w_end.unwrap() - d.config().timing.t_burst;
        assert_eq!(wt + d.config().timing.t_wl, w_start);
        assert!(w_start >= r_end.unwrap() + TURNAROUND_BUBBLE);
    }

    #[test]
    fn fgdram_grain_serialises_columns_at_tburst() {
        let mut d = device(DramKind::Fgdram);
        d.issue(act(0, 1, 0), 0).unwrap();
        // Pseudobank 1 shares grain 0's command channel: 3 ns row slot.
        d.issue(act(1, 1, 0), 3).unwrap();
        let (t0, _) = issue(&mut d, col(0, 1, 0, false), 0);
        // Both pseudobanks share the serial bus: next column >= tCCDL = 16.
        assert_eq!(d.earliest(&col(1, 1, 0, false), 0).unwrap(), t0 + 16);
    }

    #[test]
    fn grain_subarray_conflict_guard() {
        let mut d = device(DramKind::Fgdram);
        // Rows 0 and 5 are both in subarray 0 (512 rows/subarray).
        d.issue(act(0, 5, 0), 0).unwrap();
        assert_eq!(d.earliest(&act(1, 9, 0), 10).unwrap_err().rule, Rule::SubarrayConflict);
        // The *same* row in the other pseudobank is fine (same MWL).
        assert!(d.earliest(&act(1, 5, 0), 10).is_ok());
        // A different subarray is fine.
        assert!(d.earliest(&act(1, 600, 0), 10).is_ok());
    }

    #[test]
    fn refresh_blocks_channel_for_trfc() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 1, 0), 0).unwrap();
        // Refresh with an open row is rejected.
        assert_eq!(d.earliest(&REFRESH, 100).unwrap_err().rule, Rule::RefreshConflict);
        let (pre_at, _) = issue(&mut d, pre(0, 1, 0), 0);
        let (t, _) = issue(&mut d, REFRESH, pre_at);
        assert_eq!(d.earliest(&act(0, 1, 0), t).unwrap(), t + 160);
        assert_eq!(d.state().counters(0).refreshes, 1);
    }

    #[test]
    fn faw_limits_activation_bursts() {
        // HBM2 channel, 16 banks: issue 8 activates as fast as legal, then
        // the 9th must respect the 12 ns window.
        let mut d = device(DramKind::Hbm2);
        let mut t = 0;
        for b in 0..8 {
            t = issue(&mut d, act(b, 1, 0), t).0;
        }
        // 8 activates at 0,2,4,...,14 (tRRD=2). Window not binding here
        // (spread is already 14 ns > 12), so this documents tRRD dominance.
        assert_eq!(t, 14);
        assert_eq!(d.earliest(&act(8, 1, 0), t).unwrap(), 16);
    }

    #[test]
    fn counters_track_operations() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 1, 0), 0).unwrap();
        let (t, _) = issue(&mut d, col(0, 1, 0, false), 0);
        let (t, _) = issue(&mut d, col(0, 1, 0, true), t);
        issue(&mut d, pre(0, 1, 0), t);
        let k = d.state().counters(0);
        assert_eq!((k.activates, k.read_atoms, k.write_atoms, k.precharges), (1, 1, 1, 1));
    }

    #[test]
    fn out_of_range_bank_rejected() {
        let s = DeviceState::new(&DramConfig::new(DramKind::QbHbm));
        assert_eq!(s.earliest_act(0, 99, 0, 0, 0).unwrap_err().rule, Rule::OutOfRange);
    }

    /// A precharge names the open row it closes: another row of the same
    /// slot is not open, so nothing closes.
    #[test]
    fn precharge_of_a_row_that_is_not_open_is_rejected() {
        let mut d = device(DramKind::QbHbm);
        d.issue(act(0, 0, 0), 0).unwrap();
        issue(&mut d, col(0, 0, 0, false), 0);
        assert_eq!(d.earliest(&pre(0, 1, 0), 16).unwrap_err().rule, Rule::PreNothingOpen);
        assert_eq!(d.state().first_open(0, 0).map(|o| o.row), Some(0));
        assert_eq!(d.earliest(&pre(0, 0, 0), 16), Ok(29));
    }

    #[test]
    fn salp_slots_and_masks_track_two_word_bitsets() {
        // QB-HBM+SALP+SC: 32 subarrays x 4 slices = 128 slots per bank,
        // two bitset words. Open rows in both words and iterate in slot
        // order.
        let mut d = device(DramKind::QbHbmSalpSc);
        d.issue(act(0, 0, 0), 0).unwrap(); // subarray 0, slice 0 -> slot 0
        d.issue(act(0, 20 * 512, 3), 2).unwrap(); // subarray 20 -> slot 83
        let open: Vec<_> = d.state().open_rows(0, 0).collect();
        assert_eq!(open.len(), 2);
        assert_eq!((open[0].row, open[0].slice), (0, 0));
        assert_eq!((open[1].row, open[1].slice), (20 * 512, 3));
        // Subarray 1 and 19/21 are adjacent to open subarrays.
        let adjacent = |d: &DramDevice, row| d.earliest(&act(0, row, 0), 50).unwrap_err().rule;
        assert_eq!(adjacent(&d, 512), Rule::AdjacentSubarray);
        assert_eq!(adjacent(&d, 21 * 512), Rule::AdjacentSubarray);
        // Subarray 10 is fine.
        assert!(d.earliest(&act(0, 10 * 512, 0), 50).is_ok());
        // Closing the subarray-20 row clears its mask bit.
        let (t, _) = issue(&mut d, pre(0, 20 * 512, 3), 50);
        assert!(d.earliest(&act(0, 21 * 512, 0), t + 10).is_ok());
        assert_eq!(d.state().open_rows(0, 0).count(), 1);
    }
}
