//! Bounded exhaustive check of the wake contract behind skipped passes
//! (the `scheduler` module docs): a deterministic depth-first search that
//! drives real [`ChannelSched`]s and one [`DramDevice`] through every
//! arrival sequence inside a small bound, repeating `Controller::tick`'s
//! per-channel loop (`rearm`, else `pass`) at every tick. A violation
//! panics with the configuration, the tick and the arrivals before it.
//!
//! ## Modelled slice
//!
//! - FGDRAM grains 0 and 1, which share one command bus, QB-HBM and
//!   QB-HBM+SALP+SC with one channel; refresh phase 40 ns (a refresh in
//!   the run) and 5 000 ns (none); the small [`CFG`].
//! - Up to [`ARRIVALS`] reads or writes to banks {0, 1} and rows {0, 1};
//!   on SALP+SC rows {0, 2 · rows_per_subarray} and slices {0, 1}, so one
//!   bank can hold two open rows. Each lands at `now + 1`, at the next
//!   wake − 1 or at the next wake, at most one per ns and no later than
//!   tRC + tFAW. After every arrival an arrival-free tail runs to the
//!   horizon, refresh phase + tRFC + 200 ns.
//!
//! ## Properties
//!
//! - **S1 exact skip**: when `rearm` returns `Some(t)`, a `pass` on clones
//!   of the scheduler and the device from before `rearm` issues nothing,
//!   enters no write drain and sets `next_try == t`.
//! - **S2 an idle pass changes nothing**: a pass that issues nothing leaves
//!   the device and the scheduler's queues, arena, overflow, counts,
//!   `refresh_due` and `last_activity` as they were; after a hard arrival
//!   it may flip `draining`.
//! - **S3 progress**: at the end of every tail every queue is empty.
//!
//! Each configuration prints its [`Counts`] and fails below a node floor
//! (a silently shrunk bound) or when an arrival class is never reached.
//!
//! ## Scope limits
//!
//! - Bounded exploration is not a proof: longer sequences, deeper queues,
//!   more banks, rows and grains, and fault stalls are not explored;
//!   `Controller::tick`'s debug re-run keeps S1 on full-size traffic.
//! - `scheduler::tests` pins `Wake::at`'s bus rules and the triage's
//!   one-open-row rule, whose looser variants pass within this bound.
//! - The device is trusted: its timing rules are `tests/timing_explorer.rs`'s.

use super::*;
use fgdram_model::addr::PhysAddr;
use fgdram_model::config::DramKind;

/// Arrivals along the longest explored sequence.
const ARRIVALS: usize = 3;

/// Two reads fill the read queue, so a third overflows into the one
/// crossbar entry; two writes flip the drain; a third to one bank lands
/// beyond the 2-entry window.
const CFG: CtrlConfig = CtrlConfig {
    read_queue_depth: 2,
    write_buffer_depth: 3,
    write_high_watermark: 2,
    write_low_watermark: 1,
    reorder_window: 2,
    idle_row_timeout: 30,
    xbar_queue_depth: 1,
    page_policy: PagePolicy::Open,
    refresh_enabled: true,
};

/// What one configuration explored. Each arrival is classed by the fields
/// `enqueue` and then `rearm` leave: it went to the overflow, landed
/// beyond the window, forced the pass (a new queue front or a drain
/// flip), or marked its queue, which `rearm` found invisible or visible.
#[derive(Debug, Default)]
struct Counts {
    nodes: u64,
    ticks: u64,
    skipped_passes: u64,
    idle_passes: u64,
    overflow: u64,
    beyond_window: u64,
    hard: u64,
    marked_invisible: u64,
    marked_visible: u64,
}

/// The schedulers (`i` drives channel `i`) and their device at `now`.
#[derive(Clone)]
struct World {
    scheds: Vec<ChannelSched>,
    dev: DramDevice,
    now: Ns,
}

impl World {
    fn new(cfg: &DramConfig, phase: Ns) -> World {
        let apa = cfg.atoms_per_activation() as u32;
        let slots =
            cfg.slices_per_row() as usize * if cfg.salp { cfg.subarrays_per_bank } else { 1 };
        let (banks, grains, refi) =
            (cfg.banks_per_channel, cfg.is_grain_based(), cfg.timing.t_refi);
        let scheds = (0..cfg.channels.min(2) as u32)
            .map(|ch| ChannelSched::new(ch, banks, apa, grains, CFG, refi, phase, slots))
            .collect();
        World { scheds, dev: DramDevice::new(cfg.clone()), now: 0 }
    }

    fn next_wake(&self) -> Ns {
        self.scheds.iter().map(|s| s.next_try).min().expect("one scheduler or more")
    }
}

struct Explorer {
    name: String,
    /// Every arrival's location (its channel picks the scheduler) and
    /// direction.
    targets: Vec<(Location, bool)>,
    last_arrival: Ns,
    horizon: Ns,
    n: Counts,
    path: Vec<(Ns, Location, bool)>,
}

impl Explorer {
    fn at(&self, now: Ns) -> String {
        format!("{} at {now} after arrivals {:?}", self.name, self.path)
    }

    /// `Controller::tick` at `now`: each due scheduler, in channel order,
    /// is re-armed (S1 checked) or passed.
    fn tick(&mut self, w: &mut World, now: Ns) {
        self.n.ticks += 1;
        w.now = now;
        for i in 0..w.scheds.len() {
            if w.scheds[i].next_try != now {
                continue;
            }
            // S1's state, and S2's baseline: `rearm` only clears marks and
            // fills caches, which a pass may change too.
            let s0 = w.scheds[i].clone();
            let s = &mut w.scheds[i];
            let (hard, marked) = (s.poke_hard, s.poke_marks != 0);
            let rearmed = s.rearm(&w.dev, now);
            self.n.marked_invisible += u64::from(marked && s.poke_marks == 0);
            self.n.marked_visible += u64::from(marked && s.poke_marks != 0);
            if let Some(t) = rearmed {
                let mut s1 = s0.clone();
                let (commands, drains, _) = self.checked_pass(&mut s1, s0, &w.dev, now, false);
                let got = (commands, drains, s1.next_try);
                assert_eq!(got, (0, 0, t), "S1 (commands, drains, wake): {}", self.at(now));
                w.scheds[i].next_try = t;
                self.n.skipped_passes += 1;
            } else {
                let (commands, _, dev) = self.checked_pass(&mut w.scheds[i], s0, &w.dev, now, hard);
                self.n.idle_passes += u64::from(commands == 0);
                w.dev = dev;
            }
        }
    }

    /// `pass` on `s` and a clone of `dev`: the commands it issued, the
    /// write drains it entered and the device it left. S2 against `s0`
    /// when it issued nothing.
    fn checked_pass(
        &self,
        s: &mut ChannelSched,
        s0: ChannelSched,
        dev: &DramDevice,
        now: Ns,
        hard: bool,
    ) -> (u64, u64, DramDevice) {
        let (mut d, mut stats) = (dev.clone(), CtrlStats::new());
        if let Err(e) = d.uncounted(|d| s.pass(d, now, &mut stats, &mut Vec::new())) {
            panic!("{e}: {}", self.at(now));
        }
        let (commands, drains) = (stats.commands(), stats.drain_entries.get());
        if commands == 0 {
            // What a pass may change without issuing: its wake, the pokes
            // it consumes, caches and scratch lists.
            let mut expect = s0;
            (expect.next_try, expect.wake) = (s.next_try, s.wake);
            (expect.poke_hard, expect.poke_marks) = (s.poke_hard, s.poke_marks);
            expect.hit_cache.clone_from(&s.hit_cache);
            expect.fronts_scratch.clone_from(&s.fronts_scratch);
            expect.refresh_scratch.clone_from(&s.refresh_scratch);
            expect.draining = if hard { s.draining } else { expect.draining };
            assert!(*s == expect, "S2: the scheduler changed: {}", self.at(now));
            assert!(d == *dev, "S2: the device changed: {}", self.at(now));
        }
        (commands, drains, d)
    }

    /// Ticks `w` at every wake before `until`.
    fn advance(&mut self, w: &mut World, until: Ns) {
        while w.next_wake() < until {
            self.tick(w, w.next_wake());
        }
    }

    /// Lands every arrival that can follow `w` (classing it and running
    /// the tick it makes due) and visits the result, then checks S3 on
    /// the arrival-free tail, which passes each arrival time on its way.
    fn visit(&mut self, w: &World) {
        self.n.nodes += 1;
        let wake = w.next_wake();
        let mut times = [w.now + 1, wake - 1, wake];
        times.sort_unstable();
        let mut tail = w.clone();
        for (k, &t) in times.iter().enumerate() {
            let deeper = self.path.len() < ARRIVALS && t <= self.last_arrival;
            if !deeper || t <= w.now || times[..k].contains(&t) {
                continue;
            }
            self.advance(&mut tail, t);
            for i in 0..self.targets.len() {
                let (loc, is_write) = self.targets[i];
                if !tail.scheds[loc.channel as usize].can_accept(is_write) {
                    continue;
                }
                let mut next = tail.clone();
                let seq = self.path.len() as u64;
                let req = MemRequest { id: ReqId(seq), addr: PhysAddr(0), is_write };
                let s = &mut next.scheds[loc.channel as usize];
                let overflow = s.overflow.len();
                s.enqueue(&req, &loc, seq, t);
                if s.overflow.len() > overflow {
                    self.n.overflow += 1;
                } else if s.poke_hard {
                    self.n.hard += 1;
                } else if s.poke_marks == 0 {
                    self.n.beyond_window += 1;
                }
                self.path.push((t, loc, is_write));
                self.tick(&mut next, t);
                self.visit(&next);
                self.path.pop();
            }
        }
        self.advance(&mut tail, self.horizon + 1);
        let pending: usize = tail.scheds.iter().map(ChannelSched::pending).sum();
        assert_eq!(pending, 0, "S3: queued at the horizon: {}", self.at(self.horizon));
    }
}

#[test]
fn skipped_passes_are_exact_on_every_bounded_arrival_sequence() {
    // Node floors at refresh phases 40 and 5 000 ns: about 90 % of the
    // nodes this bound explores.
    let kinds = [
        (DramKind::QbHbm, [4_280, 3_230]),
        (DramKind::Fgdram, [32_870, 24_780]),
        (DramKind::QbHbmSalpSc, [32_530, 24_660]),
    ];
    for (kind, floors) in kinds {
        let mut cfg = DramConfig::new(kind);
        cfg.channels = cfg.channels_per_cmd_channel;
        let (rows, slices) = if cfg.salp && cfg.slices_per_row() > 1 {
            ([0, 2 * cfg.rows_per_subarray() as u32], 2)
        } else {
            ([0, 1], 1)
        };
        let mut targets = Vec::new();
        for (channel, bank, row) in (0..cfg.channels.min(2) as u32)
            .flat_map(|ch| (0..2).flat_map(move |bank| rows.map(|row| (ch, bank, row))))
        {
            for col in (0..slices).map(|slice| slice * cfg.atoms_per_activation() as u32) {
                let loc = Location { channel, bank, row, col };
                targets.extend([(loc, false), (loc, true)]);
            }
        }
        let t = cfg.timing;
        for (phase, floor) in [40, 5000].into_iter().zip(floors) {
            let mut ex = Explorer {
                name: format!("{kind:?}, refresh phase {phase}"),
                targets: targets.clone(),
                last_arrival: t.t_rc + t.t_faw,
                horizon: phase + t.t_rfc + 200,
                n: Counts::default(),
                path: Vec::new(),
            };
            let mut w = World::new(&cfg, phase);
            ex.tick(&mut w, 0);
            ex.visit(&w);
            let (name, n) = (&ex.name, &ex.n);
            println!("{name}: {n:?}");
            assert!(n.nodes >= floor, "{name}: {} nodes, floor {floor}", n.nodes);
            let classes =
                [n.overflow, n.beyond_window, n.hard, n.marked_invisible, n.marked_visible];
            assert!(classes.iter().all(|&c| c > 0), "{name}: an arrival class never reached");
        }
    }
}
