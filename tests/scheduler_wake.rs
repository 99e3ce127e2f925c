//! Wake-exactness property for the scheduler engine: a promised sleep is
//! never early and never hides issuable work.
//!
//! [`Controller::tick`] returns the minimum over every channel's
//! `Step::Sleep(t)` wake time, so the two halves of the engine-rewrite
//! property are checked here at the controller boundary:
//!
//! 1. every promised wake `t` satisfies `t > now`, and
//! 2. no legal command was issuable strictly before `t` — verified by
//!    ticking the controller at *every* intermediate nanosecond in
//!    `(now, t)` and asserting the issued-command counters stay frozen.
//!    In a closed system (no arrivals after the initial batch), command
//!    legality is monotone — a command legal at `m` stays legal until
//!    issued — so a counter moving at `m < t` proves the promise
//!    overslept past issuable work, and counters frozen across the whole
//!    gap prove it did not.
//!
//! The pre-rewrite engine fails half 2: its conflict path polled at fixed
//! `now + 4` intervals, so a conflict precharge legal at `m` could sit
//! until the next poll boundary (see DESIGN.md "Engine").
//!
//! [`open_arrivals`] adds requests between ticks. A tick only runs the
//! channels that are due, so the gap check there mostly proves the
//! returned wake is the earliest; what proves a *skipped* pass exact is
//! `Controller::tick`'s debug check, which re-runs every pass the
//! controller skipped and asserts it issued nothing and computed the same
//! wake. The arrivals are classified as they land and the test requires
//! every case of the controller's arrival triage (`ctrl::scheduler`
//! module docs) to occur, on eight FGDRAM grains sharing one command
//! channel (so both command buses hold wakes back) and on eight QB-HBM
//! channels.

use std::collections::HashMap;

use fgdram::core::SystemBuilder;
use fgdram::ctrl::Controller;
use fgdram::dram::DramDevice;
use fgdram::model::addr::{Location, MemRequest, PhysAddr, ReqId};
use fgdram::model::cmd::Completion;
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind};
use fgdram::model::units::Ns;
use fgdram::workloads::suites;

/// Splitmix64: deterministic stimulus without external crates.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Total commands issued so far: every issue path increments exactly one
/// of these (column ops count via the device's atom counters; ACT,
/// precharge variants, and refresh via the controller stats).
fn issued_commands(ctrl: &Controller, dev: &DramDevice) -> u64 {
    let s = ctrl.stats();
    let k = dev.total_counters();
    k.read_atoms
        + k.write_atoms
        + k.activates
        + s.conflict_precharges.get()
        + s.timeout_precharges.get()
        + s.refresh_precharges.get()
        + s.refreshes.get()
}

fn drive(kind: DramKind, seed: u64, batch: usize, horizon: Ns) {
    let cfg = DramConfig::new(kind);
    let mut dev = DramDevice::new(cfg.clone());
    let mut ctrl = Controller::new(&cfg, CtrlConfig::default()).expect("valid config");
    let mapper = ctrl.mapper().clone();

    // Closed system: one randomised batch at t=0, mixing reads and writes
    // across a handful of channels/banks/rows so hits, conflicts, and
    // write drains all occur.
    let mut s = seed;
    let mut accepted = 0u64;
    for i in 0..batch as u64 {
        let r = mix(&mut s);
        let loc = fgdram::model::addr::Location {
            channel: (r % 4) as u32,
            bank: ((r >> 8) % cfg.banks_per_channel as u64) as u32,
            row: ((r >> 16) % 32) as u32,
            col: ((r >> 24) % 16) as u32,
        };
        let addr = PhysAddr(mapper.encode(loc).0);
        let req = MemRequest { id: ReqId(i), addr, is_write: r % 3 == 0 };
        if ctrl.try_enqueue(req, 0) {
            accepted += 1;
        }
    }
    assert!(accepted > 0, "seed {seed}: batch must enqueue something");

    let mut out = Vec::new();
    let mut now: Ns = 0;
    while now < horizon {
        let promised = ctrl.tick(&mut dev, now, &mut out).expect("legal schedule");
        // Half 1: a sleep must move time forward.
        assert!(promised > now, "seed {seed} {kind:?}: promised wake {promised} <= now {now}");
        if promised == Ns::MAX {
            break; // fully drained, nothing scheduled
        }
        // Half 2: nothing is issuable strictly before the promise.
        let frozen = issued_commands(&ctrl, &dev);
        let gap_end = promised.min(horizon);
        for m in now + 1..gap_end {
            ctrl.tick(&mut dev, m, &mut out).expect("legal schedule");
            let after = issued_commands(&ctrl, &dev);
            assert_eq!(
                after, frozen,
                "seed {seed} {kind:?}: command issued at {m}, before the promised wake \
                 {promised} made at {now}"
            );
        }
        now = gap_end;
    }
    // The property run must also make real progress.
    assert!(!out.is_empty(), "seed {seed} {kind:?}: nothing completed in {horizon} ns");
}

#[test]
fn promised_wakes_are_exact_on_qb_hbm() {
    for seed in [1u64, 9, 23] {
        drive(DramKind::QbHbm, seed, 96, 6_000);
    }
}

#[test]
fn promised_wakes_are_exact_on_fgdram() {
    for seed in [3u64, 17] {
        drive(DramKind::Fgdram, seed, 96, 6_000);
    }
}

#[test]
fn promised_wakes_are_exact_under_refresh_pressure() {
    // Long horizon on an idle-ish controller: refresh quiesce fences and
    // timeout closes dominate the promises.
    drive(DramKind::QbHbm, 5, 24, 20_000);
}

/// What an arrival can change in the next pass, judged from the queues
/// the test mirrors and the device's open rows as it lands. Each doc says
/// which triage rule, made one step more aggressive, the case exposes
/// (through `tick`'s debug re-run of the skipped pass; each was seen to
/// fail this test with the rule so changed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Arrival {
    /// Lands at queue position `>= reorder_window`: no probe sees it, so
    /// it marks nothing and its channel is re-armed. Exposes the re-arm
    /// wake itself, e.g. a row wake not held behind the row bus.
    BeyondWindowWrite,
    /// In the window, no row hit, behind an older hit on the open row:
    /// what the one-open-row rule lets the controller ignore. Making that
    /// rule drop the open-row condition is only visible with several rows
    /// open in one bank, which `scheduler`'s unit tests pin instead.
    NonHitBehindHit,
    /// A row hit into a window that held none: it becomes the candidate.
    /// Exposes a window bound one short, an unscanned window taken as
    /// hit-free, and a hit the scan found taken as an older one.
    HitIntoNoHitWindow,
    /// First request of its (bank, direction) queue. Exposes a queue
    /// front that does not force the pass.
    NewQueueFront,
    /// Raises the channel's writes to the high watermark while it is not
    /// draining. Exposes a drain flip that does not force the pass.
    DrainFlip,
    /// Anything else.
    Other,
}

/// Small queues, so every case is frequent: a 4-entry window, 12/4
/// watermarks on a 24-write buffer.
const OPEN_CFG: CtrlConfig = CtrlConfig {
    read_queue_depth: 16,
    write_buffer_depth: 24,
    write_high_watermark: 12,
    write_low_watermark: 4,
    reorder_window: 4,
    idle_row_timeout: 200,
    xbar_queue_depth: 8,
    page_policy: fgdram::model::config::PagePolicy::Open,
    refresh_enabled: true,
};

/// `(channel, bank, is_write)`: one scheduler queue.
type QueueKey = (u32, u32, bool);

/// The controller's queues as the test sees them: per queue the
/// outstanding `(id, row, slice)` in arrival order (completions leave at
/// issue, so this is the queue), and a mirror of the drain hysteresis.
struct Mirror {
    queues: HashMap<QueueKey, Vec<(u64, u32, u32)>>,
    home: HashMap<u64, QueueKey>,
    writes: HashMap<u32, usize>,
    reads: HashMap<u32, usize>,
    draining: HashMap<u32, bool>,
}

impl Mirror {
    fn classify(&self, dev: &DramDevice, loc: &Location, slice: u32, is_write: bool) -> Arrival {
        let q = self.queues.get(&(loc.channel, loc.bank, is_write)).map_or(&[][..], |v| v);
        let writes_after = self.writes.get(&loc.channel).copied().unwrap_or(0) + 1;
        let draining = self.draining.get(&loc.channel).copied().unwrap_or(false);
        let window = OPEN_CFG.reorder_window;
        let hit = |row: u32, slice: u32| {
            dev.state().open_at(loc.channel, loc.bank, row, slice).is_some_and(|o| o.row == row)
        };
        if q.is_empty() {
            Arrival::NewQueueFront
        } else if is_write && !draining && writes_after >= OPEN_CFG.write_high_watermark {
            Arrival::DrainFlip
        } else if q.len() >= window {
            if is_write {
                Arrival::BeyondWindowWrite
            } else {
                Arrival::Other
            }
        } else {
            let older_hit = q.iter().any(|&(_, row, slice)| hit(row, slice));
            match (hit(loc.row, slice), older_hit) {
                (false, true) => Arrival::NonHitBehindHit,
                (true, false) => Arrival::HitIntoNoHitWindow,
                _ => Arrival::Other,
            }
        }
    }

    fn arrive(&mut self, id: u64, loc: &Location, slice: u32, is_write: bool) {
        let key = (loc.channel, loc.bank, is_write);
        self.queues.entry(key).or_default().push((id, loc.row, slice));
        self.home.insert(id, key);
        let count = if is_write { &mut self.writes } else { &mut self.reads };
        let n = count.entry(loc.channel).or_insert(0);
        *n += 1;
        if is_write && *n >= OPEN_CFG.write_high_watermark {
            self.draining.insert(loc.channel, true);
        }
    }

    fn complete(&mut self, done: &[Completion]) {
        for c in done {
            let key = self.home.remove(&c.req.0).expect("completion of a queued request");
            self.queues.get_mut(&key).expect("queued").retain(|&(id, _, _)| id != c.req.0);
            let count = if key.2 { &mut self.writes } else { &mut self.reads };
            let n = count.get_mut(&key.0).expect("counted");
            *n -= 1;
            if key.2 && *n <= OPEN_CFG.write_low_watermark {
                self.draining.insert(key.0, false);
            }
        }
    }

    /// Whether the channel's direct queue has room (the test never fills
    /// the crossbar overflow, so queue positions stay exact).
    fn has_room(&self, ch: u32, is_write: bool) -> bool {
        if is_write {
            self.writes.get(&ch).copied().unwrap_or(0) < OPEN_CFG.write_buffer_depth
        } else {
            self.reads.get(&ch).copied().unwrap_or(0) < OPEN_CFG.read_queue_depth
        }
    }
}

/// Open system on channels 0-7: bursts of arrivals at random gaps, the
/// gap check between them. Returns how often each arrival case occurred.
fn open_arrivals(kind: DramKind, seed: u64, horizon: Ns) -> HashMap<Arrival, usize> {
    let cfg = DramConfig::new(kind);
    let mut dev = DramDevice::new(cfg.clone());
    let mut ctrl = Controller::new(&cfg, OPEN_CFG).expect("valid config");
    let mapper = ctrl.mapper().clone();
    let mut mirror = Mirror {
        queues: HashMap::new(),
        home: HashMap::new(),
        writes: HashMap::new(),
        reads: HashMap::new(),
        draining: HashMap::new(),
    };
    let mut seen = HashMap::new();
    let banks = cfg.banks_per_channel.min(4) as u64;
    // Two slices where a row has them (SALP+SC), so a bank can hold
    // several open rows.
    let cols = cfg.atoms_per_row().min(16);
    let mut s = seed;
    let mut next_id = 0u64;
    let mut out = Vec::new();
    let mut now: Ns = 0;
    let mut next_arrival: Ns = 0;
    while now < horizon {
        if now == next_arrival {
            for _ in 0..1 + mix(&mut s) % 8 {
                let r = mix(&mut s);
                // Few rows per bank, so hits, conflicts and (on FGDRAM)
                // pseudobank subarray conflicts all recur.
                let loc = Location {
                    channel: (r % 8) as u32,
                    bank: ((r >> 8) % banks) as u32,
                    row: ((r >> 16) % 3) as u32,
                    col: ((r >> 24) % cols) as u32,
                };
                let slice = loc.col / cfg.atoms_per_activation() as u32;
                let is_write = (r >> 32) % 5 < 2;
                if !mirror.has_room(loc.channel, is_write) {
                    continue;
                }
                *seen.entry(mirror.classify(&dev, &loc, slice, is_write)).or_insert(0) += 1;
                next_id += 1;
                let req = MemRequest { id: ReqId(next_id), addr: mapper.encode(loc), is_write };
                assert!(ctrl.try_enqueue(req, now), "room was checked");
                mirror.arrive(next_id, &loc, slice, is_write);
            }
            next_arrival = now + 1 + mix(&mut s) % 16;
        }
        out.clear();
        let promised = ctrl.tick(&mut dev, now, &mut out).expect("legal schedule");
        mirror.complete(&out);
        assert!(promised > now, "seed {seed} {kind:?}: promised wake {promised} <= now {now}");
        // The gap check, up to the next arrival.
        let frozen = issued_commands(&ctrl, &dev);
        let gap_end = promised.min(next_arrival).min(horizon);
        for m in now + 1..gap_end {
            ctrl.tick(&mut dev, m, &mut out).expect("legal schedule");
            assert_eq!(
                issued_commands(&ctrl, &dev),
                frozen,
                "seed {seed} {kind:?}: command issued at {m}, before the promised wake \
                 {promised} made at {now}"
            );
        }
        now = gap_end;
    }
    seen
}

#[test]
fn arrivals_between_ticks_keep_promised_wakes_exact() {
    // SALP+SC keeps several rows open per bank, which the triage's
    // one-open-row condition is about.
    let kinds = [
        (DramKind::Fgdram, [4u64, 31]),
        (DramKind::QbHbm, [8, 19]),
        (DramKind::QbHbmSalpSc, [5, 12]),
    ];
    for (kind, seeds) in kinds {
        let mut seen: HashMap<Arrival, usize> = HashMap::new();
        for seed in seeds {
            for (case, n) in open_arrivals(kind, seed, 12_000) {
                *seen.entry(case).or_insert(0) += n;
            }
        }
        for case in [
            Arrival::BeyondWindowWrite,
            Arrival::NonHitBehindHit,
            Arrival::HitIntoNoHitWindow,
            Arrival::NewQueueFront,
            Arrival::DrainFlip,
        ] {
            assert!(seen.get(&case).copied().unwrap_or(0) >= 5, "{kind:?}: {case:?} in {seen:?}");
        }
    }
}

/// ROADMAP 4(a): on GUPS/FGDRAM, before passes were skipped, 37 % of
/// them issued nothing (a grain woke for an activate whose row bus a
/// sibling had taken, or for an arrival no probe could see).
#[test]
fn gups_on_fgdram_runs_few_idle_passes() {
    let w = suites::by_name("GUPS").expect("in suite");
    let mut sys = SystemBuilder::new(DramKind::Fgdram).workload(w).build().expect("builds");
    sys.run_for(20_000).expect("warm-up runs");
    sys.reset_stats();
    sys.run_for(10_000).expect("window runs");
    let s = sys.controller().stats();
    let share = s.idle_passes.get() as f64 / s.passes.get() as f64;
    assert!(s.rearmed.get() > 0, "no channel was re-armed");
    assert!(
        share <= 0.10,
        "idle-pass share {share:.3} ({} of {})",
        s.idle_passes.get(),
        s.passes.get()
    );
}

/// Each issued command costs one timing evaluation beyond the scheduler's
/// column probes: `try_issue` evaluates once where `earliest` then `issue`
/// evaluated twice, and an auto-precharge reads its slot's fence instead
/// of evaluating again (the parent tree read 5.77 per command here).
#[test]
fn gups_on_fgdram_evaluates_timing_once_per_issued_command() {
    let w = suites::by_name("GUPS").expect("in suite");
    let mut sys = SystemBuilder::new(DramKind::Fgdram).workload(w).build().expect("builds");
    sys.run_for(20_000).expect("warm-up runs");
    sys.reset_stats();
    let before = sys.device().timing_evals();
    sys.run_for(10_000).expect("window runs");
    let evals = sys.device().timing_evals() - before;
    let commands = sys.controller().stats().commands();
    let per_command = evals as f64 / commands as f64;
    assert!(per_command <= 3.8, "{per_command:.3} evaluations per command ({evals} / {commands})");
}
