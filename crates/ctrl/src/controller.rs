//! The stack-level memory controller: address decode, per-channel
//! schedulers, and the tick loop.

use fgdram_dram::{DramDevice, ProtocolError};
use fgdram_model::addr::{AddressMapper, Location, MemRequest};
use fgdram_model::cmd::Completion;
use fgdram_model::config::{ConfigError, CtrlConfig, DramConfig};
use fgdram_model::units::Ns;
use fgdram_model::wheel::EventWheel;

use crate::scheduler::{ChannelSched, Pending};
use crate::stats::CtrlStats;

/// GPU memory controller for one DRAM stack.
///
/// The controller owns request queues and scheduling; the [`DramDevice`]
/// (owned by the caller) owns timing truth. Every command is issued at a
/// time the device itself reported legal, so a [`ProtocolError`] escaping
/// [`Controller::tick`] indicates a scheduler bug, not a workload effect.
///
/// # Examples
///
/// ```
/// use fgdram_ctrl::Controller;
/// use fgdram_dram::DramDevice;
/// use fgdram_model::addr::{MemRequest, PhysAddr, ReqId};
/// use fgdram_model::config::{CtrlConfig, DramConfig, DramKind};
///
/// let cfg = DramConfig::new(DramKind::Fgdram);
/// let mut dev = DramDevice::new(cfg.clone());
/// let mut ctrl = Controller::new(&cfg, CtrlConfig::default())?;
/// ctrl.try_enqueue(MemRequest { id: ReqId(1), addr: PhysAddr(0x1000), is_write: false }, 0);
/// let mut done = Vec::new();
/// let mut now = 0;
/// while done.is_empty() {
///     now = ctrl.tick(&mut dev, now, &mut done)?.max(now + 1);
/// }
/// assert_eq!(done[0].req, ReqId(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Controller {
    mapper: AddressMapper,
    scheds: Vec<ChannelSched>,
    /// Lazy wake-time queue over the schedulers. An entry `(t, ch)` is
    /// valid iff `t` equals channel `ch`'s current effective wake time
    /// (`next_try.max(stalled_until)`). A fresh entry is pushed whenever
    /// that time changes, so every channel always has exactly one valid
    /// entry; stale ones are discarded as they surface. This keeps
    /// per-tick work O(due + stale) instead of O(channels) — ruinous with
    /// FGDRAM's 512 grains, of which a handful are due. An [`EventWheel`]
    /// rather than a `BinaryHeap`: pops come out in the same ascending
    /// `(t, ch)` order, but push/pop are O(1) instead of a heap sift.
    /// Wheel invariant `t >= base` holds because every pushed time is
    /// `>= now` (`enqueue` clamps `next_try` no lower than `now`, passes
    /// and re-arms set `next_try > now`) and `base` never passes the
    /// minimum entry.
    due: EventWheel<u32>,
    /// Channels due this tick, ascending and deduped (reusable scratch).
    due_scratch: Vec<u32>,
    /// Raw `(time, channel)` entries drained from the wheel each tick
    /// (reusable scratch for the unordered bulk drain).
    drain_scratch: Vec<(Ns, u32)>,
    /// One bit per channel, set while the channel is due this tick:
    /// walking the set bits yields the ascending deduped due list without
    /// sorting (the wheel drain is unordered).
    due_bits: Vec<u64>,
    seq: u64,
    stats: CtrlStats,
    /// Graceful degradation: grains excluded from the address map, one
    /// bit per channel (FGDRAM's 512 grains fit in 8 words, so the `route`
    /// probe on the hot enqueue path stays in one cache line). With
    /// nothing excluded, `route` is exactly `mapper.decode` and the faults
    /// machinery is invisible to scheduling.
    excluded: Vec<u64>,
    /// Channels still in the map, ascending; the remap target table.
    live: Vec<u32>,
    /// Total queued requests, maintained incrementally: +1 per accepted
    /// enqueue, -1 per completion (every dequeue emits exactly one).
    total_pending: usize,
}

impl Controller {
    /// Builds a controller for `dram` with policy `ctrl`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the DRAM geometry is invalid, or wider
    /// than the packed queue records hold ([`ConfigError::FieldTooWide`]).
    pub fn new(dram: &DramConfig, ctrl: CtrlConfig) -> Result<Self, ConfigError> {
        let mapper = AddressMapper::new(dram)?;
        Pending::check_geometry(dram)?;
        let channels = dram.channels;
        let scheds = (0..channels as u32)
            .map(|ch| {
                // Stagger refresh across channels to avoid refresh storms.
                // Phases must stay in [0, t_refi): without the modulo the
                // last channel gets phase == t_refi, pushing its first
                // refresh a full interval late.
                let phase =
                    dram.timing.t_refi * (ch as u64 + 1) / channels as u64 % dram.timing.t_refi;
                ChannelSched::new(
                    ch,
                    dram.banks_per_channel,
                    dram.atoms_per_activation() as u32,
                    dram.is_grain_based(),
                    ctrl,
                    dram.timing.t_refi,
                    phase,
                    dram.slices_per_row() as usize
                        * if dram.salp { dram.subarrays_per_bank } else { 1 },
                )
            })
            .collect();
        // Every scheduler starts with an effective wake time of 0.
        let mut due = EventWheel::new();
        (0..channels as u32).for_each(|ch| due.push(0, ch));
        Ok(Controller {
            mapper,
            scheds,
            due,
            due_scratch: Vec::with_capacity(channels),
            // Each channel keeps one valid wheel entry plus a bounded
            // number of stale ones; 2x channels covers the steady state.
            drain_scratch: Vec::with_capacity(2 * channels),
            due_bits: vec![0u64; channels.div_ceil(64)],
            seq: 0,
            stats: CtrlStats::new(),
            excluded: vec![0u64; channels.div_ceil(64)],
            live: (0..channels as u32).collect(),
            total_pending: 0,
        })
    }

    // `benchmark/` (frozen for this PR) still calls this name; it goes when
    // a later benchmark PR drops the `ctrl.pool.speedup_t2` probe.
    #[doc(hidden)]
    pub fn with_threads(
        dram: &DramConfig,
        ctrl: CtrlConfig,
        _engine_threads: usize,
    ) -> Result<Self, ConfigError> {
        Self::new(dram, ctrl)
    }

    /// Whether `ch`'s grain has been excluded from the address map.
    #[inline]
    fn is_excluded(&self, ch: u32) -> bool {
        self.excluded[ch as usize / 64] & (1u64 << (ch % 64)) != 0
    }

    #[inline]
    fn effective_next(&self, ch: u32) -> Ns {
        self.scheds[ch as usize].due_at()
    }

    /// The controller's address mapping.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Cheap monotone progress witness for the stall watchdog: accepted
    /// requests plus issued refreshes.
    pub fn progress_probe(&self) -> u64 {
        self.stats.reads_accepted.get()
            + self.stats.writes_accepted.get()
            + self.stats.refreshes.get()
    }

    /// Zeroes accumulated statistics (end-of-warmup bookkeeping).
    pub fn reset_stats(&mut self) {
        self.stats = CtrlStats::new();
    }

    /// Total queued requests. O(1): maintained incrementally, because the
    /// system consults this every simulation step.
    pub fn pending(&self) -> usize {
        debug_assert_eq!(
            self.total_pending,
            self.scheds.iter().map(ChannelSched::pending).sum::<usize>(),
            "pending counter diverged from the queues"
        );
        self.total_pending
    }

    /// Decodes `addr` and remaps it off any excluded grain: requests whose
    /// home grain has been excluded are served round-robin by the
    /// remaining live grains (the simulator models timing, not contents,
    /// so the aliased capacity costs nothing extra).
    pub fn route(&self, addr: fgdram_model::addr::PhysAddr) -> Location {
        let mut loc = self.mapper.decode(addr);
        if self.is_excluded(loc.channel) {
            loc.channel = self.live[loc.channel as usize % self.live.len()];
        }
        loc
    }

    /// Removes `channel` from the address map. Returns `false` (a no-op)
    /// when it is already excluded or is the last live grain; queued and
    /// in-flight requests on the grain drain normally either way.
    pub fn exclude_channel(&mut self, channel: u32) -> bool {
        let ch = channel as usize;
        if ch >= self.scheds.len() || self.is_excluded(channel) || self.live.len() == 1 {
            return false;
        }
        self.excluded[ch / 64] |= 1u64 << (channel % 64);
        self.live.retain(|&c| c != channel);
        true
    }

    /// Grains currently excluded from the address map.
    pub fn excluded_count(&self) -> usize {
        self.excluded.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fault injection: `channel` issues nothing before `until`.
    pub fn stall_channel(&mut self, channel: u32, until: Ns) {
        if (channel as usize) >= self.scheds.len() {
            return;
        }
        let before = self.effective_next(channel);
        let sched = &mut self.scheds[channel as usize];
        sched.stalled_until = sched.stalled_until.max(until);
        let after = self.effective_next(channel);
        if after != before {
            self.due.push(after, channel);
        }
    }

    /// Fault injection: wedges every channel until `until` (pass
    /// `Ns::MAX` for a permanent wedge the watchdog must catch).
    pub fn stall_all(&mut self, until: Ns) {
        for ch in 0..self.scheds.len() as u32 {
            self.stall_channel(ch, until);
        }
    }

    /// Whether the target channel queue can accept `req` right now.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        let loc = self.route(req.addr);
        self.scheds[loc.channel as usize].can_accept(req.is_write)
    }

    /// Enqueues `req`, returning `false` (and counting a rejection) when
    /// the target queue is full — the caller should retry later.
    pub fn try_enqueue(&mut self, req: MemRequest, now: Ns) -> bool {
        let loc = self.route(req.addr);
        if !self.scheds[loc.channel as usize].can_accept(req.is_write) {
            self.stats.rejected.incr();
            return false;
        }
        self.seq += 1;
        if req.is_write {
            self.stats.writes_accepted.incr();
        } else {
            self.stats.reads_accepted.incr();
        }
        let before = self.effective_next(loc.channel);
        let sched = &mut self.scheds[loc.channel as usize];
        sched.enqueue(&req, &loc, self.seq, now);
        let depth = sched.pending() as u64;
        let after = self.effective_next(loc.channel);
        if after != before {
            self.due.push(after, loc.channel);
        }
        self.total_pending += 1;
        self.stats.queue_depth.record(depth);
        true
    }

    /// Pops every wheel entry due at `now` into `due_scratch`, ascending
    /// and deduped. A stale entry's channel has a valid entry elsewhere in
    /// the wheel (pushed when its wake time changed), so dropping the
    /// stale one loses nothing.
    fn collect_due(&mut self, now: Ns) {
        self.due_scratch.clear();
        self.drain_scratch.clear();
        // Bulk drain: a GUPS-like workload keeps every grain busy, which
        // parks dozens of wake entries on the *same* nanosecond — a
        // per-entry `pop_due` loop re-scans that slot chain on every pop
        // (O(k^2) per tick). The unordered drain unlinks each chain once;
        // the stale filter is order-independent and the bitmap walk below
        // yields ascending deduped channel order without a sort.
        self.due.drain_due_unordered(now, &mut self.drain_scratch);
        for i in 0..self.drain_scratch.len() {
            let (t, ch) = self.drain_scratch[i];
            if t == self.effective_next(ch) {
                self.due_bits[ch as usize / 64] |= 1 << (ch % 64);
            }
        }
        for w in 0..self.due_bits.len() {
            let mut bits = self.due_bits[w];
            self.due_bits[w] = 0;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                self.due_scratch.push((w * 64) as u32 + b);
            }
        }
    }

    /// Runs every channel scheduler that is due at `now` (in ascending
    /// channel order), appending data completions to `out`. Returns the
    /// earliest time any channel next needs attention.
    ///
    /// A due channel whose pass would issue nothing is re-armed at the
    /// wake that pass would compute, without running it
    /// ([`ChannelSched::rearm`]; the module docs of `scheduler` give the
    /// argument). Debug builds run the pass anyway and check both claims.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] here means the scheduler issued an illegal
    /// command — an internal bug, never a workload condition.
    pub fn tick(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        out: &mut Vec<Completion>,
    ) -> Result<Ns, ProtocolError> {
        self.collect_due(now);
        for i in 0..self.due_scratch.len() {
            let ch = self.due_scratch[i];
            let sched = &mut self.scheds[ch as usize];
            if let Some(t) = sched.rearm(dev, now) {
                #[cfg(debug_assertions)]
                {
                    let mut scratch = CtrlStats::new();
                    let mut issued = Vec::new();
                    // The re-run is not engine work: keep it out of the
                    // timing-evaluation count.
                    dev.uncounted(|dev| sched.pass(dev, now, &mut scratch, &mut issued))?;
                    assert_eq!(
                        (scratch.commands(), scratch.drain_entries.get(), sched.next_try),
                        (0, 0, t),
                        "channel {ch} at {now}: the skipped pass was not a no-op with this wake"
                    );
                }
                sched.next_try = t;
                self.stats.rearmed.incr();
            } else {
                let done = out.len();
                let res = sched.pass(dev, now, &mut self.stats, out);
                // Every completion is exactly one request leaving a queue.
                self.total_pending -= out.len() - done;
                res?;
            }
            self.due.push(self.effective_next(ch), ch);
        }
        // Stale entries at the front are dropped; valid ones stay put.
        let scheds = &self.scheds;
        let next = self.due.first_valid_time(|t, ch| t == scheds[ch as usize].due_at());
        Ok(next.unwrap_or(Ns::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::{PhysAddr, ReqId};
    use fgdram_model::config::DramKind;

    fn setup(kind: DramKind) -> (DramDevice, Controller) {
        let cfg = DramConfig::new(kind);
        let dev = DramDevice::new(cfg.clone());
        let ctrl = Controller::new(&cfg, CtrlConfig::default()).unwrap();
        (dev, ctrl)
    }

    fn run_until_drained(
        dev: &mut DramDevice,
        ctrl: &mut Controller,
        limit: Ns,
    ) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = 0;
        while ctrl.pending() > 0 && now < limit {
            let next = ctrl.tick(dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        out
    }

    #[test]
    fn every_shipped_geometry_fits_the_packed_queue_records() {
        let ablations = [
            DramConfig::qb_hbm_atom128(),
            DramConfig::qb_hbm_deep_bank_groups(),
            DramConfig::fgdram_non_stacked(),
            DramConfig::qb_hbm_salp_only(),
            DramConfig::qb_hbm_subchannels_only(),
        ];
        for cfg in DramKind::ALL.into_iter().map(DramConfig::new).chain(ablations) {
            Controller::new(&cfg, CtrlConfig::for_dram(&cfg))
                .unwrap_or_else(|e| panic!("{:?}: {e}", cfg.kind));
        }
    }

    #[test]
    fn over_wide_geometry_is_a_typed_error_not_a_truncation() {
        let base = DramConfig::new(DramKind::QbHbm);
        let wide = [
            ("rows_per_bank", DramConfig { rows_per_bank: 1 << 25, ..base.clone() }),
            (
                "slices_per_row",
                DramConfig { row_bytes: 1 << 16, activation_bytes: 256, ..base.clone() },
            ),
            (
                "atoms_per_row",
                DramConfig { row_bytes: 8192, activation_bytes: 8192, ..base.clone() },
            ),
            ("banks_per_channel", DramConfig { banks_per_channel: 256, ..base.clone() }),
        ];
        for (field, cfg) in wide {
            match Controller::new(&cfg, CtrlConfig::default()) {
                Err(ConfigError::FieldTooWide { name, .. }) => assert_eq!(name, field),
                other => panic!("{field}: expected FieldTooWide, got {:?}", other.map(|_| ())),
            }
        }
        // The widest geometry the records hold is accepted.
        let widest = DramConfig { rows_per_bank: 1 << 24, ..base };
        assert!(Controller::new(&widest, CtrlConfig::default()).is_ok());
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let req = MemRequest { id: ReqId(1), addr: PhysAddr(0), is_write: false };
        assert!(ctrl.try_enqueue(req, 0));
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
        // ACT at ~0, RD at tRCD=16, data end at 16+tCL+tBURST = 34.
        assert_eq!(done[0].at, 34);
        assert_eq!(ctrl.stats().activates.get(), 1);
    }

    #[test]
    fn row_hits_are_reordered_ahead_of_conflicts() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        // Three requests to one bank: row A, row B (conflict), row A again.
        let a0 = m.encode(Location { channel: 0, bank: 0, row: 10, col: 0 });
        let b0 = m.encode(Location { channel: 0, bank: 0, row: 20, col: 0 });
        let a1 = m.encode(Location { channel: 0, bank: 0, row: 10, col: 1 });
        for (i, addr) in [a0, b0, a1].into_iter().enumerate() {
            assert!(ctrl.try_enqueue(MemRequest { id: ReqId(i as u64), addr, is_write: false }, 0));
        }
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 3);
        // FR-FCFS: the second row-A access (id 2) completes before row B.
        let pos = |id: u64| done.iter().position(|c| c.req == ReqId(id)).unwrap();
        assert!(pos(2) < pos(1), "row hit should bypass the conflict");
        assert!(ctrl.stats().row_hits.get() >= 1);
        // The last row-10 hit sees no further reuse, so the controller
        // closes the row via auto-precharge instead of an explicit
        // conflict precharge.
        assert!(ctrl.stats().auto_precharges.get() + ctrl.stats().conflict_precharges.get() >= 1);
    }

    #[test]
    fn writes_drain_in_batches() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        // Fill past the high watermark with writes to one channel.
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let mut sent = 0;
        'outer: for row in 0..128u32 {
            for col in 0..4u32 {
                let addr = m.encode(Location { channel: 1, bank: (row % 4), row, col });
                if !ctrl.try_enqueue(MemRequest { id: ReqId(sent), addr, is_write: true }, 0) {
                    break 'outer;
                }
                sent += 1;
            }
        }
        // Enough to cross the high watermark and trigger batch draining.
        assert!(sent as usize >= CtrlConfig::default().write_high_watermark, "filled {sent}");
        let done = run_until_drained(&mut dev, &mut ctrl, 100_000);
        assert_eq!(done.len(), sent as usize);
        assert!(ctrl.stats().drain_entries.get() >= 1);
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let (_, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let mut accepted = 0u64;
        for i in 0..100_000u64 {
            let addr = m.encode(Location {
                channel: 0,
                bank: (i % 4) as u32,
                row: (i / 4) as u32 % 16_384,
                col: 0,
            });
            if ctrl.try_enqueue(MemRequest { id: ReqId(i), addr, is_write: false }, 0) {
                accepted += 1;
            } else {
                break;
            }
        }
        // read_queue_depth plus the crossbar overflow queue.
        let cfg = CtrlConfig::default();
        assert_eq!(accepted as usize, cfg.read_queue_depth + cfg.xbar_queue_depth);
        assert_eq!(ctrl.stats().rejected.get(), 1);
        assert!(!ctrl.can_accept(&MemRequest {
            id: ReqId(0),
            addr: m.encode(Location { channel: 0, bank: 0, row: 0, col: 0 }),
            is_write: false
        }));
    }

    #[test]
    fn fgdram_grain_conflicts_are_resolved() {
        let (mut dev, mut ctrl) = setup(DramKind::Fgdram);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        // Pseudobank 0 row 3 and pseudobank 1 row 7 share subarray 0.
        let a = m.encode(Location { channel: 0, bank: 0, row: 3, col: 0 });
        let b = m.encode(Location { channel: 0, bank: 1, row: 7, col: 0 });
        ctrl.try_enqueue(MemRequest { id: ReqId(0), addr: a, is_write: false }, 0);
        ctrl.try_enqueue(MemRequest { id: ReqId(1), addr: b, is_write: false }, 0);
        let done = run_until_drained(&mut dev, &mut ctrl, 100_000);
        assert_eq!(done.len(), 2, "both requests complete despite the conflict");
    }

    #[test]
    fn refresh_happens_periodically() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let mut out = Vec::new();
        let mut now = 0;
        // Idle controller for ~3 refresh intervals.
        while now < 12_000 {
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        let expected = dev.config().channels as u64 * 2; // >= 2 per channel
        assert!(
            ctrl.stats().refreshes.get() >= expected,
            "refreshes {} < {expected}",
            ctrl.stats().refreshes.get()
        );
    }

    #[test]
    fn excluded_channel_remaps_to_live_grains() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let addr = m.encode(Location { channel: 3, bank: 0, row: 10, col: 0 });
        assert_eq!(ctrl.route(addr).channel, 3);
        assert!(ctrl.exclude_channel(3));
        assert!(!ctrl.exclude_channel(3), "double exclusion is a no-op");
        assert_eq!(ctrl.excluded_count(), 1);
        let re = ctrl.route(addr);
        assert_ne!(re.channel, 3, "excluded grain must not be routed to");
        // Requests to the dead grain still complete, on the remap target.
        assert!(ctrl.try_enqueue(MemRequest { id: ReqId(1), addr, is_write: false }, 0));
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn cannot_exclude_the_last_live_grain() {
        let (_, mut ctrl) = setup(DramKind::QbHbm);
        let channels = DramConfig::new(DramKind::QbHbm).channels as u32;
        for ch in 0..channels - 1 {
            assert!(ctrl.exclude_channel(ch));
        }
        assert!(!ctrl.exclude_channel(channels - 1), "last grain must stay in the map");
        assert_eq!(ctrl.excluded_count(), channels as usize - 1);
    }

    #[test]
    fn stalled_channel_issues_nothing_until_the_fence() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let req = MemRequest { id: ReqId(1), addr: PhysAddr(0), is_write: false };
        ctrl.stall_channel(0, 500);
        assert!(ctrl.try_enqueue(req, 0));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() && now < 10_000 {
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        // Unstalled latency is 34 ns; the stall defers issue to t=500.
        assert_eq!(out.len(), 1);
        assert!(out[0].at >= 500 + 34, "completion at {} leaked through the stall", out[0].at);
    }

    #[test]
    fn sequential_stream_gets_high_hit_rate() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let mut now = 0;
        let mut out = Vec::new();
        let mut issued = 0u64;
        let mut next_addr = 0u64;
        while issued < 2_000 || ctrl.pending() > 0 {
            while issued < 2_000
                && ctrl.try_enqueue(
                    MemRequest { id: ReqId(issued), addr: PhysAddr(next_addr), is_write: false },
                    now,
                )
            {
                issued += 1;
                next_addr += 32;
            }
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
            assert!(now < 1_000_000, "stream run diverged");
        }
        assert_eq!(out.len(), 2_000);
        let s = ctrl.stats();
        assert!(s.hit_rate() > 0.8, "hit rate {}", s.hit_rate());
    }
}
