//! Per-channel (per-grain-group) FR-FCFS scheduler.
//!
//! Implements the paper's throughput-optimized controller (Section 4.1):
//! deep per-bank request queues with row-hit-first reordering, batched
//! write draining between watermarks, open-page policy with
//! conflict-triggered and idle-timeout precharges, opportunistic
//! auto-precharge when no queued request can reuse the open row, and the
//! FGDRAM-specific subarray-conflict avoidance of Section 3.3.
//!
//! # Skipping a pass
//!
//! [`ChannelSched::pass`] runs only when it could issue. When a channel
//! comes due, [`ChannelSched::rearm`] first decides in constant time
//! (per marked bank) whether the pass would issue nothing, and if so
//! returns the wake that pass would have computed. Three facts make that
//! exact rather than a heuristic:
//!
//! - **A pass that issues nothing changes nothing.** `drain_overflow`
//!   moves nothing between issues (room only appears when a command
//!   leaves a queue, and the pass that issued it drained the overflow
//!   afterwards); the drain hysteresis only flips when the write count
//!   crosses a watermark, which between passes only an arrival can do,
//!   and such an arrival is a *hard* poke; `HitCache` is a cache.
//! - **Its wake is a function of what it last saw and the shared command
//!   buses.** Every `earliest` is `max(own fences, at, bus busy-until)`.
//!   A channel's own fences only move when it issues, and a bus's
//!   busy-until only grows, so each [`Sleep`](Step::Sleep) records its
//!   wake split three ways ([`Wake`]): `row`, the earliest
//!   activate/precharge/refresh, already including the row bus; `col`,
//!   the earliest column by the channel's own fences (the hint); `other`,
//!   everything else (refresh due, idle deadline, `conflict_fence`, the
//!   `now + 1` clamps). A pass at a later `now` would compute exactly
//!   [`Wake::at`]: `min(other, max(row, row_bus_free), col if col > now
//!   else col_bus_free)` — a hint not yet reached is kept, a reached one
//!   waits for the column bus. If that is still past `now`, nothing is
//!   issuable and the channel sleeps on without a pass.
//! - **Arrivals are triaged.** [`ChannelSched::enqueue`] records what an
//!   arrival could change. One that goes to the overflow queue or lands
//!   at queue position `>= reorder_window` is invisible to every probe
//!   until an issue (inside a pass) frees room, and sets nothing. One
//!   that becomes a queue front or flips the drain hysteresis is *hard*:
//!   the pass runs. Any other in-window arrival marks its
//!   `(bank, direction)`, and `rearm` ignores the marks when every marked
//!   bank either has one open row with an older hit on it
//!   (`HitCache::Known(Some(_))`: the arrival cannot become the
//!   candidate, and `row_has_pending` was already true) or has no hit in
//!   its window at all (the arrival is no hit either).
//!
//! Every arrival still makes its channel due (as before), so a skipped
//! pass is replaced by its exact result and the controller's wake
//! sequence — observable through the GPU issue batcher — is unchanged.
//! The test-only `wake_explorer` checks these facts on every arrival
//! sequence inside a small bound, and debug builds re-run every skipped
//! pass and assert it issued nothing and computed the same wake
//! (`Controller::tick`).

use std::collections::VecDeque;

use fgdram_dram::{DeviceState, DramDevice, ProtocolError, Rule, TryIssue};
use fgdram_model::addr::{Location, MemRequest, ReqId};
use fgdram_model::cmd::{BankRef, Completion, DramCommand};
use fgdram_model::config::{ConfigError, CtrlConfig, DramConfig, PagePolicy};
use fgdram_model::units::Ns;

use crate::arena::{FifoRing, RequestArena};
use crate::stats::CtrlStats;

/// A queued request: what the scheduler still needs of a [`MemRequest`]
/// and its [`Location`] once the controller has routed it to this channel
/// (the address and the channel index are dead by then).
///
/// Exactly 32 bytes — two per cache line of the [`RequestArena`] slab.
/// The narrow fields cannot truncate: [`Pending::check_geometry`] gates
/// `Controller::new`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pending {
    pub id: ReqId,
    pub arrived: Ns,
    pub seq: u64,
    pub row: u32,
    pub col: u8,
    /// Subchannel slice of `col`, decoded once on admission.
    pub slice: u8,
    pub bank: u8,
    pub is_write: bool,
}

const _: () = assert!(std::mem::size_of::<Pending>() == 32);

/// The `(row, slice)` pair a window scan compares, as one word.
#[inline]
fn scan_key(row: u32, slice: u32) -> u32 {
    row << 8 | slice
}

impl Pending {
    /// Rejects a geometry whose bank, column or slice indices do not fit
    /// the byte each gets here, or whose rows do not fit the 24 bits
    /// [`scan_key`] leaves them.
    pub(crate) fn check_geometry(dram: &DramConfig) -> Result<(), ConfigError> {
        for (name, value, max) in [
            ("rows_per_bank", dram.rows_per_bank as u64, 1 << 24),
            ("slices_per_row", dram.slices_per_row(), 255),
            ("atoms_per_row", dram.atoms_per_row(), 255),
            ("banks_per_channel", dram.banks_per_channel as u64, 255),
        ] {
            if value > max {
                return Err(ConfigError::FieldTooWide { name, value, max });
            }
        }
        Ok(())
    }

    /// What the arena's key lane stores for this request.
    #[inline]
    pub(crate) fn key(&self) -> u32 {
        scan_key(self.row, self.slice.into())
    }
}

/// Cached first row-buffer hit for one (bank, direction) queue within the
/// scan window. `Unknown` forces a rescan; `Known(None)` means no hit in
/// the window; `Known(Some(i))` is the FIFO-oldest hit's queue index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HitCache {
    Unknown,
    Known(Option<u32>),
}

/// Result of one scheduling attempt.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// A command was issued (with the data completion for columns).
    Issued(Option<Completion>),
    /// Nothing issuable before [`Wake::at`].
    Sleep(Wake),
}

const FAR_FUTURE: Ns = Ns::MAX / 4;

/// A sleeping channel's wake, split by what gates it (see the module
/// docs): enough to recompute, at a later `now`, the wake a pass would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Wake {
    /// Earliest activate / precharge / refresh, row bus included.
    row: Ns,
    /// Earliest column command by the channel's own fences (the hint,
    /// clamped to the pass's `now`), before the column bus.
    col: Ns,
    /// Everything the buses do not gate.
    other: Ns,
}

impl Wake {
    /// Nothing to wait for.
    const NEVER: Wake = Wake { row: FAR_FUTURE, col: FAR_FUTURE, other: FAR_FUTURE };

    fn fold_row(&mut self, t: Ns) {
        self.row = self.row.min(t);
    }

    fn fold_other(&mut self, t: Ns) {
        self.other = self.other.min(t);
    }

    /// The wake a pass at `now` would compute, given the channel's
    /// command buses' busy-until — or a time `<= now` when that pass
    /// might issue. Exact while the channel has issued nothing since.
    fn at(&self, now: Ns, row_bus_free: Ns, col_bus_free: Ns) -> Ns {
        let col = if self.col > now { self.col } else { col_bus_free };
        self.other.min(self.row.max(row_bus_free)).min(col)
    }
}

/// Upper bound on commands one channel may issue within a single tick
/// (defensive cap; normal operation issues a handful).
const MAX_STEPS_PER_TICK: usize = 64;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelSched {
    channel: u32,
    banks: usize,
    /// `log2(atoms_per_activation)`: slice decode is a shift on the
    /// per-request enqueue path (the count is a validated power of two).
    slice_shift: u32,
    cfg: CtrlConfig,
    grain_based: bool,
    /// All queued requests of this channel live in one slab; the rings
    /// below hold FIFO order as slab indices (see [`crate::arena`]).
    arena: RequestArena,
    read_q: Vec<FifoRing>,
    write_q: Vec<FifoRing>,
    /// Crossbar partition queue: holds arrivals while the per-bank
    /// scheduler queues are full.
    overflow: VecDeque<Pending>,
    reads: usize,
    writes: usize,
    draining: bool,
    refresh_due: Ns,
    refresh_interval: Ns,
    last_activity: Ns,
    /// Per-bank cached first hit, indexed `[bank][is_write]`. Invalidated
    /// on every queue or open-row mutation (see `note_*` helpers); the
    /// debug build cross-checks each use against a fresh scan.
    hit_cache: Vec<[HitCache; 2]>,
    /// Scratch for `try_activate`'s per-bank front list (seq, bank).
    fronts_scratch: Vec<(u64, usize)>,
    /// Scratch for `step_refresh`'s open-row list (row, slice).
    refresh_scratch: Vec<(u32, u32)>,
    pub next_try: Ns,
    /// What the last pass's wake was made of (`next_try` is its
    /// [`Wake::at`] then).
    wake: Wake,
    /// An arrival since the last pass that forces the next one (see
    /// `enqueue`).
    poke_hard: bool,
    /// One bit per `(bank, direction)`, `2 * bank + is_write`, with an
    /// in-window arrival since the last pass.
    poke_marks: u64,
    /// Fault-injected stall fence: the channel issues nothing before this
    /// time. Kept separate from `next_try` because `enqueue` pulls
    /// `next_try` forward on every arrival, which must not cancel a stall.
    pub stalled_until: Ns,
}

impl ChannelSched {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        channel: u32,
        banks: usize,
        atoms_per_activation: u32,
        grain_based: bool,
        cfg: CtrlConfig,
        refresh_interval: Ns,
        refresh_phase: Ns,
        open_slots_per_bank: usize,
    ) -> Self {
        // Admission control bounds live reads/writes to the configured
        // depths, and any one bank may transiently hold a whole
        // direction's worth — each ring gets the full per-direction depth.
        let fill = Pending {
            id: ReqId(0),
            arrived: 0,
            seq: 0,
            row: 0,
            col: 0,
            slice: 0,
            bank: 0,
            is_write: false,
        };
        let mut arena = RequestArena::with_capacity(
            banks * (cfg.read_queue_depth + cfg.write_buffer_depth),
            fill,
        );
        let read_q = (0..banks).map(|_| arena.new_ring(cfg.read_queue_depth)).collect();
        let write_q = (0..banks).map(|_| arena.new_ring(cfg.write_buffer_depth)).collect();
        ChannelSched {
            channel,
            banks,
            slice_shift: {
                debug_assert!(atoms_per_activation.is_power_of_two());
                atoms_per_activation.trailing_zeros()
            },
            grain_based,
            arena,
            read_q,
            write_q,
            // `can_accept` admits past a non-empty overflow while
            // *direct* room exists, so overflow usually peaks around xbar
            // + both direct depths. That is not a hard bound: behind a
            // head-of-line write that cannot drain, reads keep being
            // admitted (they never reach `reads`), and the deque can
            // double — seen once per ~800 simulated us on GUPS/QB-HBM.
            // The capacity is virtual until touched (no pre-fill), so
            // over-sizing is free.
            overflow: VecDeque::with_capacity(
                cfg.xbar_queue_depth + cfg.read_queue_depth + cfg.write_buffer_depth,
            ),
            cfg,
            reads: 0,
            writes: 0,
            draining: false,
            refresh_due: refresh_phase.max(1),
            refresh_interval,
            last_activity: 0,
            hit_cache: vec![[HitCache::Known(None); 2]; banks],
            // Pre-sized so first use after warmup stays off the allocator.
            fronts_scratch: Vec::with_capacity(banks),
            refresh_scratch: Vec::with_capacity(open_slots_per_bank),
            next_try: 0,
            // Never passed: due at once.
            wake: Wake { other: 0, ..Wake::NEVER },
            poke_hard: false,
            poke_marks: 0,
            stalled_until: 0,
        }
    }

    /// When the channel next needs a tick: its wake, held off by a stall.
    #[inline]
    pub fn due_at(&self) -> Ns {
        self.next_try.max(self.stalled_until)
    }

    pub fn pending(&self) -> usize {
        self.reads + self.writes + self.overflow.len()
    }

    pub fn can_accept(&self, is_write: bool) -> bool {
        let direct = if is_write {
            self.writes < self.cfg.write_buffer_depth
        } else {
            self.reads < self.cfg.read_queue_depth
        };
        direct || self.overflow.len() < self.cfg.xbar_queue_depth
    }

    /// Queues `req`, already routed to `loc` on this channel, as the
    /// `seq`-th request the controller accepted.
    pub fn enqueue(&mut self, req: &MemRequest, loc: &Location, seq: u64, now: Ns) {
        // Narrowing is lossless: `Pending::check_geometry` bounds them.
        let p = Pending {
            id: req.id,
            arrived: now,
            seq,
            row: loc.row,
            col: loc.col as u8,
            slice: (loc.col >> self.slice_shift) as u8,
            bank: loc.bank as u8,
            is_write: req.is_write,
        };
        let room = if p.is_write {
            self.writes < self.cfg.write_buffer_depth
        } else {
            self.reads < self.cfg.read_queue_depth
        };
        if room && self.overflow.is_empty() {
            let pos = self.enqueue_direct(p);
            // Overflow and beyond-window arrivals mark nothing: no probe
            // reads them before an issue frees room.
            let mark = 2 * p.bank as u32 + p.is_write as u32;
            if pos == 0 || self.drain_flips() || mark >= u64::BITS {
                self.poke_hard = true;
            } else if pos < self.cfg.reorder_window.max(1) {
                self.poke_marks |= 1 << mark;
            }
        } else {
            self.overflow.push_back(p);
        }
        self.next_try = self.next_try.min(now);
    }

    /// Queues `p` and returns its position in its (bank, direction) queue.
    fn enqueue_direct(&mut self, p: Pending) -> usize {
        let bank = p.bank as usize;
        let dir = p.is_write as usize;
        let len_before = if p.is_write {
            self.write_q[bank].push_back(&mut self.arena, p);
            self.writes += 1;
            self.write_q[bank].len() - 1
        } else {
            self.read_q[bank].push_back(&mut self.arena, p);
            self.reads += 1;
            self.read_q[bank].len() - 1
        };
        // The new tail entered the scan window: a known-miss window may
        // now contain a hit. A known hit index stays the oldest hit.
        if len_before < self.cfg.reorder_window.max(1)
            && self.hit_cache[bank][dir] == HitCache::Known(None)
        {
            self.hit_cache[bank][dir] = HitCache::Unknown;
        }
        len_before
    }

    /// Whether the next `step` flips the write-drain hysteresis.
    fn drain_flips(&self) -> bool {
        if self.draining {
            self.writes <= self.cfg.write_low_watermark
        } else {
            self.writes >= self.cfg.write_high_watermark
        }
    }

    /// The wake a pass at `now` would leave, when that pass would issue
    /// nothing (see the module docs); `None` when the pass must run.
    /// Arrival marks it finds invisible are cleared.
    pub fn rearm(&mut self, dev: &DramDevice, now: Ns) -> Option<Ns> {
        if self.poke_hard || !self.marks_invisible(dev) {
            return None;
        }
        self.poke_marks = 0;
        let ch = self.channel;
        let t = self.wake.at(now, dev.row_bus_free(ch), dev.col_bus_free(ch));
        (t > now).then_some(t)
    }

    /// Whether no marked arrival can change what a pass sees: each marked
    /// bank has one open row and an older hit in that direction, or no
    /// hit in that direction's window.
    fn marks_invisible(&mut self, dev: &DramDevice) -> bool {
        let mut marks = self.poke_marks;
        while marks != 0 {
            let mark = marks.trailing_zeros() as usize;
            marks &= marks - 1;
            let (bank, dir) = (mark / 2, mark % 2);
            let visible = match self.hit_cache[bank][dir] {
                HitCache::Known(Some(_)) => {
                    dev.state().open_rows(self.channel, bank as u32).nth(1).is_some()
                }
                HitCache::Known(None) => false,
                HitCache::Unknown => {
                    let hit = self.scan_first_hit(dev.state(), bank, dir == 1);
                    self.hit_cache[bank][dir] = HitCache::Known(hit);
                    hit.is_some()
                }
            };
            if visible {
                return false;
            }
        }
        true
    }

    /// Moves overflow arrivals into the scheduler queues as room appears.
    fn drain_overflow(&mut self) {
        while let Some(p) = self.overflow.front() {
            let room = if p.is_write {
                self.writes < self.cfg.write_buffer_depth
            } else {
                self.reads < self.cfg.read_queue_depth
            };
            if !room {
                break;
            }
            // Infallible: the loop condition just observed a front element
            // and nothing between the peek and the pop can drain the queue.
            let p = self.overflow.pop_front().expect("checked front");
            self.enqueue_direct(p);
        }
    }

    fn bank_ref(&self, bank: u32) -> BankRef {
        BankRef { channel: self.channel, bank }
    }

    /// Fresh scan for the FIFO-oldest row-buffer hit in `bank`'s queue
    /// (the cache's ground truth). A queued request hits exactly when its
    /// key is an open row's `(row, slice)` key, so each open row's key is
    /// looked for once in the key lane, only ahead of the best hit so far;
    /// the device is not consulted per queued key.
    fn scan_first_hit(&self, dev: &DeviceState, bank: usize, use_writes: bool) -> Option<u32> {
        let window = self.window_keys(bank, use_writes);
        let mut first = window.len();
        for o in dev.open_rows(self.channel, bank as u32) {
            let key = scan_key(o.row, o.slice);
            if let Some(i) = window[..first].iter().position(|&k| k == key) {
                first = i;
            }
        }
        (first < window.len()).then_some(first as u32)
    }

    /// Cache maintenance after removing queue index `idx` of
    /// (`bank`, direction).
    fn note_removal(&mut self, bank: usize, is_write: bool, idx: usize) {
        let dir = is_write as usize;
        let scan = self.cfg.reorder_window.max(1);
        let len_after = self.queue(is_write)[bank].len();
        self.hit_cache[bank][dir] = match self.hit_cache[bank][dir] {
            HitCache::Unknown => HitCache::Unknown,
            // An entry beyond the window slid in; its hit status is
            // unknown. If the queue fit inside the window, nothing new
            // became visible.
            HitCache::Known(None) => {
                if len_after >= scan {
                    HitCache::Unknown
                } else {
                    HitCache::Known(None)
                }
            }
            HitCache::Known(Some(i)) => match (idx as u32).cmp(&i) {
                std::cmp::Ordering::Equal => HitCache::Unknown,
                std::cmp::Ordering::Less => HitCache::Known(Some(i - 1)),
                std::cmp::Ordering::Greater => HitCache::Known(Some(i)),
            },
        };
    }

    /// Cache maintenance after an activate on `bank`: any queued entry may
    /// have become a hit.
    fn note_activate(&mut self, bank: usize) {
        self.hit_cache[bank] = [HitCache::Unknown; 2];
    }

    /// Cache maintenance after a precharge (explicit or auto) on `bank`:
    /// cached hits may have lost their row; a known-miss window stays a
    /// miss (closing rows never creates hits).
    fn note_precharge(&mut self, bank: usize) {
        for dir in 0..2 {
            if let HitCache::Known(Some(_)) = self.hit_cache[bank][dir] {
                self.hit_cache[bank][dir] = HitCache::Unknown;
            }
        }
    }

    /// Runs scheduling attempts at `now` until the channel has issued
    /// every command legal at this instant and goes to sleep (or the
    /// defensive cap trips), pushing data completions into `out` and
    /// leaving `next_try` at the channel's next wake time.
    pub fn pass(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        stats: &mut CtrlStats,
        out: &mut Vec<Completion>,
    ) -> Result<(), ProtocolError> {
        self.poke_hard = false;
        self.poke_marks = 0;
        stats.passes.incr();
        let commands = stats.commands();
        for _ in 0..MAX_STEPS_PER_TICK {
            match self.step(dev, now, stats)? {
                Step::Issued(Some(c)) => out.push(c),
                Step::Issued(None) => {}
                Step::Sleep(wake) => {
                    if stats.commands() == commands {
                        stats.idle_passes.incr();
                    }
                    let ch = self.channel;
                    self.wake = wake;
                    self.next_try =
                        wake.at(now, dev.row_bus_free(ch), dev.col_bus_free(ch)).max(now + 1);
                    return Ok(());
                }
            }
        }
        self.wake = Wake { other: now + 1, ..Wake::NEVER };
        self.next_try = now + 1;
        Ok(())
    }

    /// One scheduling attempt at `now`.
    pub fn step(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        stats: &mut CtrlStats,
    ) -> Result<Step, ProtocolError> {
        self.drain_overflow();
        let refresh_due = self.cfg.refresh_enabled && now >= self.refresh_due;
        let mut wake = Wake::NEVER;
        if self.cfg.refresh_enabled {
            wake.fold_other(self.refresh_due);
        }

        // Write drain hysteresis.
        if self.drain_flips() {
            self.draining = !self.draining;
            if self.draining {
                stats.drain_entries.incr();
            }
        }
        let use_writes = self.draining || self.reads == 0;

        if self.reads + self.writes > 0 {
            // Pass 1: row-buffer hits keep flowing even while a refresh
            // quiesces (rows must drain before they can close anyway).
            if let Some(step) = self.try_column(dev, now, use_writes, stats, &mut wake)? {
                return Ok(step);
            }
            // Pass 2: activates / conflict precharges — but no new rows
            // once a refresh is due.
            if !refresh_due {
                if let Some(step) = self.try_activate(dev, now, use_writes, stats, &mut wake)? {
                    return Ok(step);
                }
            }
        }
        if refresh_due {
            return self.step_refresh(dev, now, stats, wake);
        }
        // Pass 3: close rows idle past the timeout.
        self.maybe_idle_close(dev, now, stats, &mut wake)?;
        Ok(Step::Sleep(wake))
    }

    /// Quiesce-and-refresh: close open rows as their fences pass, then
    /// issue the refresh.
    ///
    /// Drains every precharge issuable at `now` in one call (restarting
    /// the scan after each issue so fence times reflect the new bus
    /// state), reusing `refresh_scratch` instead of allocating a row
    /// list per bank per call.
    fn step_refresh(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        stats: &mut CtrlStats,
        mut wake: Wake,
    ) -> Result<Step, ProtocolError> {
        let mut issued = false;
        let mut scratch = std::mem::take(&mut self.refresh_scratch);
        'rescan: loop {
            let mut any_open = false;
            for b in 0..self.banks as u32 {
                scratch.clear();
                scratch.extend(dev.state().open_rows(self.channel, b).map(|o| (o.row, o.slice)));
                for &(row, slice) in scratch.iter() {
                    any_open = true;
                    let cmd =
                        DramCommand::Precharge { bank: self.bank_ref(b), row: Some(row), slice };
                    match dev.try_issue(cmd, now)? {
                        TryIssue::Issued(_) => {
                            stats.refresh_precharges.incr();
                            self.note_precharge(b as usize);
                            issued = true;
                            continue 'rescan;
                        }
                        TryIssue::NotBefore(e) => wake.fold_row(e),
                    }
                }
            }
            if !any_open {
                match dev.try_issue(DramCommand::Refresh { channel: self.channel }, now)? {
                    TryIssue::Issued(_) => {
                        stats.refreshes.incr();
                        self.refresh_due += self.refresh_interval;
                        self.refresh_scratch = scratch;
                        // The refresh advanced `refresh_due`, so the next
                        // `step` takes the normal path — stop here.
                        return Ok(Step::Issued(None));
                    }
                    TryIssue::NotBefore(e) => wake.fold_row(e),
                }
            }
            break;
        }
        self.refresh_scratch = scratch;
        if issued {
            return Ok(Step::Issued(None));
        }
        Ok(Step::Sleep(wake))
    }

    fn queue(&self, is_write: bool) -> &[FifoRing] {
        if is_write {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    /// Scan keys of the reorder window of (`bank`, direction) — the only
    /// thing the probes below read of a queue.
    #[inline]
    fn window_keys(&self, bank: usize, is_write: bool) -> &[u32] {
        self.queue(is_write)[bank].keys(&self.arena, self.cfg.reorder_window.max(1))
    }

    /// Finds and issues a row-buffer hit; `Ok(None)` when no hit is
    /// issuable at `now` (earliest times folded into `wake`).
    ///
    /// Among per-bank oldest hits, the *earliest-issuable* one wins — this
    /// is the Figure 4 bank-group rotation: alternating groups keeps
    /// columns tCCDS apart where strict age order would serialise
    /// same-group accesses at tCCDL.
    fn try_column(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        use_writes: bool,
        stats: &mut CtrlStats,
        wake: &mut Wake,
    ) -> Result<Option<Step>, ProtocolError> {
        let mut best: Option<(Ns, u64, usize, usize)> = None;
        for b in 0..self.banks {
            let state = dev.state();
            // The cached oldest hit replaces the window scan; `Unknown`
            // (set on any queue/row mutation) falls back to one scan.
            let cand_idx = match self.hit_cache[b][use_writes as usize] {
                HitCache::Known(c) => {
                    debug_assert_eq!(
                        c,
                        self.scan_first_hit(state, b, use_writes),
                        "stale hit cache: channel {} bank {b} writes {use_writes}",
                        self.channel
                    );
                    c
                }
                HitCache::Unknown => {
                    let c = self.scan_first_hit(state, b, use_writes);
                    self.hit_cache[b][use_writes as usize] = HitCache::Known(c);
                    c
                }
            };
            let Some(i) = cand_idx else { continue };
            let i = i as usize;
            // Infallible: the hit cache (cross-checked against a fresh scan
            // in debug builds) only holds in-window indices.
            let p = self.queue(use_writes)[b].get(&self.arena, i).expect("cached hit present");
            let e = state
                .earliest_col(self.channel, b as u32, p.row, p.slice.into(), p.is_write, now)
                .map(|t| t.max(now))
                .unwrap_or(Ns::MAX);
            if best.is_none_or(|(be, bs, _, _)| (e, p.seq) < (be, bs)) {
                best = Some((e, p.seq, b, i));
            }
        }
        let Some((e_hint, _, bank, idx)) = best else { return Ok(None) };
        // One column probe per step: the hint is the step's whole column
        // wake. Reached, it waits on the column bus (`Wake::at`).
        wake.col = e_hint;
        if e_hint > now {
            return Ok(None);
        }
        let p = *self.queue(use_writes)[bank].get(&self.arena, idx).expect("scheduled request");
        let auto_precharge = self.cfg.page_policy == PagePolicy::Closed
            || !self.row_reusable(bank, use_writes, p.key());
        let bankref = self.bank_ref(bank as u32);
        let (row, col) = (p.row, p.col.into());
        let cmd = if p.is_write {
            DramCommand::Write { bank: bankref, row, col, auto_precharge, req: p.id }
        } else {
            DramCommand::Read { bank: bankref, row, col, auto_precharge, req: p.id }
        };
        let completion = match dev.try_issue(cmd, now)? {
            TryIssue::Issued(c) => c,
            TryIssue::NotBefore(e) => {
                // The shared command bus (not the channel) must be busy.
                debug_assert_eq!(
                    e,
                    dev.col_bus_free(self.channel),
                    "a reached hint waits on the bus"
                );
                return Ok(None);
            }
        };
        let removed = if use_writes {
            self.writes -= 1;
            self.write_q[bank].remove_at(&mut self.arena, idx)
        } else {
            self.reads -= 1;
            self.read_q[bank].remove_at(&mut self.arena, idx)
        };
        self.note_removal(bank, use_writes, idx);
        stats.row_hits.incr();
        if auto_precharge {
            stats.auto_precharges.incr();
            self.note_precharge(bank);
        }
        if let Some(c) = completion {
            if !removed.is_write {
                stats.record_read_latency(removed.arrived, c.at);
            }
        }
        self.last_activity = now;
        Ok(Some(Step::Issued(completion)))
    }

    /// True when another queued request (read or write) can still use the
    /// open row and slice of `bank` that `key` names, so the row should
    /// stay open. The request about to issue is in its own direction's
    /// window with this key, so that window needs a second match.
    fn row_reusable(&self, bank: usize, own_writes: bool, key: u32) -> bool {
        let matches =
            |is_write: bool| self.window_keys(bank, is_write).iter().filter(|&&k| k == key).count();
        matches(own_writes) >= 2 || matches(!own_writes) >= 1
    }

    /// Tries to open a row (or clear a conflict) for the oldest
    /// front-of-queue request per bank.
    fn try_activate(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        use_writes: bool,
        stats: &mut CtrlStats,
        wake: &mut Wake,
    ) -> Result<Option<Step>, ProtocolError> {
        // Front requests per bank, oldest first (reusable scratch —
        // allocation-free after warm-up).
        let mut fronts = std::mem::take(&mut self.fronts_scratch);
        fronts.clear();
        fronts.extend(
            (0..self.banks)
                .filter_map(|b| self.queue(use_writes)[b].front(&self.arena).map(|p| (p.seq, b))),
        );
        fronts.sort_unstable();
        let mut ret = None;
        for &(_, b) in fronts.iter() {
            // Infallible: `fronts` was built from banks whose `front()` was
            // `Some`, and the queues are untouched between there and here.
            let p = *self.queue(use_writes)[b].front(&self.arena).expect("front exists");
            let slice = u32::from(p.slice);
            let bankref = self.bank_ref(b as u32);
            // Already open with the right row: handled by try_column (it
            // was not issuable now; its wake time is already folded in).
            let open = dev.state().open_at(self.channel, b as u32, p.row, slice);
            if let Some(o) = open {
                if o.row == p.row {
                    continue;
                }
                // Conflict: close the loser — unless the active queue still
                // has hits for it, which FR-FCFS will serve first. Wake at
                // the blocking row's column fence (when its hit can drain),
                // not a fixed-interval poll.
                if self.row_has_pending(b, o.row, o.slice, use_writes) {
                    let fence = self.conflict_fence(dev, b as u32, o.row, o.slice, use_writes, now);
                    wake.fold_other(fence);
                    continue;
                }
                if let Some(step) = self.try_precharge(
                    dev,
                    now,
                    bankref,
                    o.row,
                    o.slice,
                    &mut stats.conflict_precharges,
                    wake,
                )? {
                    ret = Some(step);
                    break;
                }
                continue;
            }
            let cmd = DramCommand::Activate { bank: bankref, row: p.row, slice };
            match dev.try_issue(cmd, now) {
                Ok(TryIssue::Issued(_)) => {
                    stats.activates.incr();
                    self.note_activate(b);
                    self.last_activity = now;
                    ret = Some(Step::Issued(None));
                    break;
                }
                Ok(TryIssue::NotBefore(e)) => wake.fold_row(e),
                Err(err) => {
                    if let Some(step) = self.resolve_act_block(
                        dev, now, b as u32, &p, err.rule, use_writes, stats, wake,
                    )? {
                        ret = Some(step);
                        break;
                    }
                }
            }
        }
        self.fronts_scratch = fronts;
        Ok(ret)
    }

    /// Wake fence for a conflict whose open row still has queued hits: the
    /// row's next column-issue time — when that hit can drain and the
    /// conflict can make progress — clamped past `now`.
    fn conflict_fence(
        &self,
        dev: &DramDevice,
        bank: u32,
        row: u32,
        slice: u32,
        use_writes: bool,
        now: Ns,
    ) -> Ns {
        dev.state()
            .earliest_col(self.channel, bank, row, slice, use_writes, now)
            .map(|t| t.max(now + 1))
            .unwrap_or(now + 1)
    }

    /// Handles structural activate rejections by precharging whichever
    /// open row blocks the request.
    #[allow(clippy::too_many_arguments)]
    fn resolve_act_block(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        bank: u32,
        p: &Pending,
        rule: Rule,
        use_writes: bool,
        stats: &mut CtrlStats,
        wake: &mut Wake,
    ) -> Result<Option<Step>, ProtocolError> {
        let sub_of = |row: u32| row / dev.config().rows_per_subarray() as u32;
        let want_sub = sub_of(p.row);
        match rule {
            Rule::SubarrayConflict if self.grain_based => {
                // The sibling pseudobank holds a different row of the same
                // subarray (Section 3.3): close it.
                for sib in 0..self.banks as u32 {
                    if sib == bank {
                        continue;
                    }
                    let blocking = dev
                        .state()
                        .open_rows(self.channel, sib)
                        .find(|o| o.row != p.row && sub_of(o.row) == want_sub)
                        .map(|o| (o.row, o.slice));
                    if let Some((row, slice)) = blocking {
                        if self.row_has_pending(sib as usize, row, slice, use_writes) {
                            let fence = self.conflict_fence(dev, sib, row, slice, use_writes, now);
                            wake.fold_other(fence);
                            return Ok(None);
                        }
                        return self.try_precharge(
                            dev,
                            now,
                            self.bank_ref(sib),
                            row,
                            slice,
                            &mut stats.conflict_precharges,
                            wake,
                        );
                    }
                }
                Ok(None)
            }
            Rule::AdjacentSubarray => {
                // SALP: a neighbouring subarray's open row shares the
                // sense-amp stripe; close it.
                let blocking = dev
                    .state()
                    .open_rows(self.channel, bank)
                    .find(|o| sub_of(o.row).abs_diff(want_sub) == 1)
                    .map(|o| (o.row, o.slice));
                if let Some((row, slice)) = blocking {
                    if self.row_has_pending(bank as usize, row, slice, use_writes) {
                        let fence = self.conflict_fence(dev, bank, row, slice, use_writes, now);
                        wake.fold_other(fence);
                        return Ok(None);
                    }
                    return self.try_precharge(
                        dev,
                        now,
                        self.bank_ref(bank),
                        row,
                        slice,
                        &mut stats.conflict_precharges,
                        wake,
                    );
                }
                Ok(None)
            }
            // ActOnOpenRow is handled by the conflict path in
            // `try_activate` before `earliest` is consulted; anything else
            // here is unexpected but non-fatal for scheduling.
            _ => Ok(None),
        }
    }

    /// Whether the active queue (within the reorder window) still targets
    /// the open (`row`, `slice`) of `bank`.
    fn row_has_pending(&self, bank: usize, row: u32, slice: u32, use_writes: bool) -> bool {
        self.window_keys(bank, use_writes).contains(&scan_key(row, slice))
    }

    #[allow(clippy::too_many_arguments)]
    fn try_precharge(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        bank: BankRef,
        row: u32,
        slice: u32,
        counter: &mut fgdram_model::stats::Counter,
        wake: &mut Wake,
    ) -> Result<Option<Step>, ProtocolError> {
        let cmd = DramCommand::Precharge { bank, row: Some(row), slice };
        match dev.try_issue(cmd, now)? {
            TryIssue::Issued(_) => {
                counter.incr();
                self.note_precharge(bank.bank as usize);
                self.last_activity = now;
                Ok(Some(Step::Issued(None)))
            }
            TryIssue::NotBefore(e) => {
                wake.fold_row(e);
                Ok(None)
            }
        }
    }

    /// Closes rows whose bank has no pending work once they have idled past
    /// the configured timeout, folding the deadline into `wake`.
    fn maybe_idle_close(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        stats: &mut CtrlStats,
        wake: &mut Wake,
    ) -> Result<(), ProtocolError> {
        if self.cfg.idle_row_timeout == 0 {
            return Ok(());
        }
        let deadline = self.last_activity + self.cfg.idle_row_timeout;
        if now < deadline {
            let has_open = (0..self.banks as u32).any(|b| dev.state().any_open(self.channel, b));
            if has_open {
                wake.fold_other(deadline);
            }
            return Ok(());
        }
        for b in 0..self.banks as u32 {
            if !self.read_q[b as usize].is_empty() || !self.write_q[b as usize].is_empty() {
                continue;
            }
            let open = dev.state().first_open(self.channel, b).map(|o| (o.row, o.slice));
            if let Some((row, slice)) = open {
                let closed = self.try_precharge(
                    dev,
                    now,
                    self.bank_ref(b),
                    row,
                    slice,
                    &mut stats.timeout_precharges,
                    wake,
                )?;
                if closed.is_some() {
                    // Issued, yet the pass ends: the next one is at `now + 1`.
                    wake.fold_other(now + 1);
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod wake_explorer;

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::PhysAddr;
    use fgdram_model::config::DramKind;

    /// `Wake::at` is what a pass would compute: each case is one way a
    /// rule could be loosened and still look plausible.
    #[test]
    fn wake_at_is_the_pass_result_behind_the_buses() {
        let w = |row, col, other| Wake { row, col, other };
        let never = FAR_FUTURE;
        // A reached column hint waits on the column bus ...
        assert_eq!(w(never, 10, never).at(12, 0, 15), 15);
        // ... and when the bus is free the pass must run (a time <= now).
        assert!(w(never, 10, never).at(12, 0, 11) <= 12);
        // A hint not yet reached is kept, however long the bus is held:
        // the pass would sleep to it and only then meet the bus.
        assert_eq!(w(never, 14, never).at(12, 0, 20), 14);
        // A row wake is held back by the row bus ...
        assert_eq!(w(14, never, never).at(12, 18, 0), 18);
        assert_eq!(w(14, never, never).at(12, 9, 0), 14);
        // ... and `other` by nothing.
        assert_eq!(w(20, never, 13).at(12, 30, 30), 13);
        assert_eq!(w(20, 25, never).at(12, 30, 0), 25);
    }

    /// A read; `enqueue` takes the location from its routed `Location`.
    fn read(id: u64) -> MemRequest {
        MemRequest { id: ReqId(id), addr: PhysAddr(0), is_write: false }
    }

    /// Rule 2 of the arrival triage on a SALP+SC bank, where one bank
    /// holds several open rows: behind an older hit, an arrival is
    /// invisible only while its bank has a single open row.
    #[test]
    fn an_arrival_behind_an_older_hit_is_visible_on_a_second_open_row() {
        let cfg = DramConfig::new(DramKind::QbHbmSalpSc);
        let ctrl = CtrlConfig::default();
        let slots = cfg.slices_per_row() as usize * cfg.subarrays_per_bank;
        let apa = cfg.atoms_per_activation() as u32;
        for second_row_open in [false, true] {
            let mut dev = DramDevice::new(cfg.clone());
            let bank = BankRef { channel: 0, bank: 0 };
            dev.issue(DramCommand::Activate { bank, row: 1, slice: 0 }, 0).unwrap();
            if second_row_open {
                let act = DramCommand::Activate { bank, row: 2, slice: 1 };
                let at = dev.earliest(&act, 0).unwrap();
                dev.issue(act, at).unwrap();
            }
            let banks = cfg.banks_per_channel;
            let mut s = ChannelSched::new(0, banks, apa, false, ctrl, 3900, 1000, slots);
            let at = |row, col| Location { channel: 0, bank: 0, row, col };
            // A queue front, then a hit on the first open row behind it.
            s.enqueue(&read(1), &at(3, 0), 1, 0);
            s.enqueue(&read(2), &at(1, 0), 2, 0);
            assert!(s.poke_hard, "a new queue front forces a pass");
            // As a pass leaves it: pokes consumed, the older hit cached.
            (s.poke_hard, s.poke_marks) = (false, 0);
            let hit = s.scan_first_hit(dev.state(), 0, false);
            assert_eq!(hit, Some(1));
            s.hit_cache[0][0] = HitCache::Known(hit);
            // The arrival: a hit on the second row's slot, if it is open.
            s.enqueue(&read(3), &at(2, apa), 3, 0);
            assert_eq!(s.poke_marks, 1, "an in-window arrival marks (bank 0, reads)");
            assert_eq!(s.marks_invisible(&dev), !second_row_open);
        }
    }
}
