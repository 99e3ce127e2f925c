//! Randomized test: the sectored L2 against a naive reference model.
//!
//! The reference tracks, per 128 B line, which sectors are valid/dirty and
//! an exact LRU order, with unlimited MSHRs resolved immediately. Driving
//! both with random access sequences (fills applied instantly) must produce
//! identical hit/miss classifications and identical writeback sets.
//! Sequences come from the repo's seeded PRNG, so runs reproduce.

use std::collections::{BTreeMap, HashMap, VecDeque};

use fgdram::gpu::{L2Access, L2Cache};
use fgdram::model::addr::PhysAddr;
use fgdram::model::config::L2Config;
use fgdram::model::rng::SmallRng;

const LINE: u64 = 128;
const SECTOR: u64 = 32;

/// Naive reference: per-set exact-LRU sectored cache.
struct RefCache {
    sets: usize,
    ways: usize,
    /// Per set: LRU-ordered (front = oldest) list of (line_addr, valid, dirty).
    lines: Vec<VecDeque<(u64, u8, u8)>>,
    writebacks: Vec<u64>,
}

impl RefCache {
    fn new(cfg: &L2Config) -> Self {
        RefCache {
            sets: cfg.sets(),
            ways: cfg.ways,
            lines: vec![VecDeque::new(); cfg.sets()],
            writebacks: Vec::new(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        // Must match L2Cache::set_of (the hash is part of the contract).
        let h = line ^ (line >> 11) ^ (line >> 23);
        (h as usize) % self.sets
    }

    /// Returns true for a load hit (sector valid), false for a miss; the
    /// miss is filled immediately. Stores always succeed.
    fn access(&mut self, addr: u64, is_store: bool) -> bool {
        let line = addr / LINE;
        let bit = 1u8 << ((addr % LINE) / SECTOR);
        let set = self.set_of(line);
        let entries = &mut self.lines[set];
        if let Some(pos) = entries.iter().position(|&(l, _, _)| l == line) {
            let mut e = entries.remove(pos).unwrap();
            if is_store {
                e.1 |= bit;
                e.2 |= bit;
            } else if e.1 & bit == 0 {
                e.1 |= bit; // instant fill
                entries.push_back(e);
                return false;
            }
            entries.push_back(e);
            return true;
        }
        // Allocate; evict LRU if full.
        if entries.len() == self.ways {
            let (l, _, dirty) = entries.pop_front().unwrap();
            for s in 0..(LINE / SECTOR) {
                if dirty & (1 << s) != 0 {
                    self.writebacks.push(l * LINE + s * SECTOR);
                }
            }
        }
        let (valid, dirty) = if is_store { (bit, bit) } else { (bit, 0) };
        entries.push_back((line, valid, dirty));
        is_store
    }
}

fn small_cfg() -> L2Config {
    L2Config { capacity_bytes: 64 * 1024, ways: 4, ..L2Config::default() }
}

#[test]
fn l2_matches_reference_model() {
    let mut r = SmallRng::seed_from_u64(0x12F_0001);
    for case in 0..64 {
        let n = r.random_range(1..600);
        let ops: Vec<(u64, bool)> =
            (0..n).map(|_| (r.random_range(0..1 << 22), r.random_bool(0.5))).collect();
        let cfg = small_cfg();
        let mut l2 = L2Cache::new(cfg, 1 << 16);
        let mut reference = RefCache::new(&cfg);
        for (i, &(raw, is_store)) in ops.iter().enumerate() {
            let addr = raw & !(SECTOR - 1);
            let expect_hit = reference.access(addr, is_store);
            match l2.access(PhysAddr(addr), is_store, i as u64) {
                L2Access::Hit => {
                    assert!(expect_hit, "case {case} op {i}: L2 hit, reference miss")
                }
                L2Access::StoreDone => assert!(is_store, "case {case} op {i}"),
                L2Access::Miss { fill } => {
                    assert!(!expect_hit, "case {case} op {i}: L2 miss, reference hit");
                    assert_eq!(fill.0, addr, "case {case} op {i}");
                    // Resolve instantly so both models stay in lockstep.
                    let waiters = l2.fill_done(fill);
                    assert_eq!(waiters, vec![i as u64], "case {case} op {i}");
                }
                L2Access::Merged => {
                    panic!("case {case} op {i}: merge impossible with instant fills")
                }
                L2Access::Blocked => panic!("case {case} op {i}: blocked with huge MSHR"),
            }
        }
        // Same eviction behaviour => same writeback multiset.
        let mut ours = l2.take_writebacks().iter().map(|a| a.0).collect::<Vec<_>>();
        let mut theirs = reference.writebacks;
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "case {case}");
    }
}

/// Valid/dirty sector bookkeeping never loses a dirty sector: every
/// stored sector is either still resident or was written back.
#[test]
fn no_dirty_sector_is_lost() {
    let mut r = SmallRng::seed_from_u64(0x12F_0002);
    for case in 0..64 {
        let n = r.random_range(1..400);
        let ops: Vec<(u64, bool)> =
            (0..n).map(|_| (r.random_range(0..1 << 20), r.random_bool(0.5))).collect();
        let cfg = small_cfg();
        let mut l2 = L2Cache::new(cfg, 1 << 16);
        let mut stored: HashMap<u64, ()> = HashMap::new();
        let mut written_back: HashMap<u64, ()> = HashMap::new();
        for (i, &(raw, is_store)) in ops.iter().enumerate() {
            let addr = raw & !(SECTOR - 1);
            match l2.access(PhysAddr(addr), is_store, i as u64) {
                L2Access::Miss { fill } => {
                    l2.fill_done(fill);
                }
                L2Access::StoreDone => {
                    stored.insert(addr, ());
                }
                _ => {}
            }
            for wb in l2.take_writebacks() {
                written_back.insert(wb.0, ());
            }
        }
        // Anything stored but not written back must still hit in the L2.
        for (&addr, ()) in &stored {
            if !written_back.contains_key(&addr) {
                let r = l2.access(PhysAddr(addr), false, 0);
                assert_eq!(r, L2Access::Hit, "case {case}: dirty sector {addr:#x} lost");
                // (This final probe may itself evict; stop checking after
                // mutations by breaking on first eviction.)
                if !l2.take_writebacks().is_empty() {
                    break;
                }
            }
        }
    }
}

/// What the in-flight reference saw, summed over a run, so the test can
/// show it reached every MSHR path.
#[derive(Debug, Default)]
struct Tally {
    merged: u64,
    blocked_mshr: u64,
    blocked_pinned: u64,
    fills: u64,
}

/// One resident line of [`InflightRef`].
struct RefLine {
    line: u64,
    valid: u8,
    dirty: u8,
}

/// Reference with fills in flight: per set an exact-LRU list of lines
/// (front = oldest) and an MSHR `sector -> tokens in arrival order`
/// holding at most `mshrs` fills. A line with a sector in the MSHR is
/// never a victim. A load that claims a victim and then finds the MSHR
/// full keeps the line it allocated (as the L2 does).
struct InflightRef {
    sets: usize,
    ways: usize,
    mshrs: usize,
    lines: Vec<VecDeque<RefLine>>,
    mshr: BTreeMap<u64, Vec<u64>>,
    writebacks: Vec<u64>,
    evictions: u64,
    tally: Tally,
}

impl InflightRef {
    fn new(cfg: &L2Config, mshrs: usize) -> Self {
        InflightRef {
            sets: cfg.sets(),
            ways: cfg.ways,
            mshrs,
            lines: (0..cfg.sets()).map(|_| VecDeque::new()).collect(),
            mshr: BTreeMap::new(),
            writebacks: Vec::new(),
            evictions: 0,
            tally: Tally::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        let h = line ^ (line >> 11) ^ (line >> 23);
        (h as usize) % self.sets
    }

    fn pinned(&self, line: u64) -> bool {
        self.mshr.range(line * LINE..(line + 1) * LINE).next().is_some()
    }

    fn access(&mut self, addr: u64, is_store: bool, token: u64) -> L2Access {
        let line = addr / LINE;
        let bit = 1u8 << ((addr % LINE) / SECTOR);
        let set = self.set_of(line);
        if let Some(pos) = self.lines[set].iter().position(|l| l.line == line) {
            let mut l = self.lines[set].remove(pos).unwrap();
            let valid = l.valid & bit != 0;
            if is_store {
                l.valid |= bit;
                l.dirty |= bit;
            }
            self.lines[set].push_back(l);
            return match (is_store, valid) {
                (true, _) => L2Access::StoreDone,
                (false, true) => L2Access::Hit,
                (false, false) => self.fill(addr, token),
            };
        }
        if self.lines[set].len() == self.ways {
            let Some(pos) = self.lines[set].iter().position(|l| !self.pinned(l.line)) else {
                self.tally.blocked_pinned += 1;
                return L2Access::Blocked;
            };
            let victim = self.lines[set].remove(pos).unwrap();
            self.evictions += 1;
            for s in 0..LINE / SECTOR {
                if victim.dirty & (1 << s) != 0 {
                    self.writebacks.push(victim.line * LINE + s * SECTOR);
                }
            }
        }
        if is_store {
            self.lines[set].push_back(RefLine { line, valid: bit, dirty: bit });
            return L2Access::StoreDone;
        }
        self.lines[set].push_back(RefLine { line, valid: 0, dirty: 0 });
        self.fill(addr, token)
    }

    fn fill(&mut self, sector: u64, token: u64) -> L2Access {
        if let Some(tokens) = self.mshr.get_mut(&sector) {
            tokens.push(token);
            self.tally.merged += 1;
            return L2Access::Merged;
        }
        if self.mshr.len() == self.mshrs {
            self.tally.blocked_mshr += 1;
            return L2Access::Blocked;
        }
        self.mshr.insert(sector, vec![token]);
        L2Access::Miss { fill: PhysAddr(sector) }
    }

    /// Completes the fill of `sector`: its tokens in arrival order.
    fn fill_done(&mut self, sector: u64) -> Vec<u64> {
        let tokens = self.mshr.remove(&sector).expect("reference: fill of an unknown sector");
        let line = sector / LINE;
        let set = self.set_of(line);
        let l = self.lines[set].iter_mut().find(|l| l.line == line).expect("pinned line resident");
        l.valid |= 1 << ((sector % LINE) / SECTOR);
        self.tally.fills += 1;
        tokens
    }
}

/// The L2 against [`InflightRef`] with fills arriving after random delays
/// at a small MSHR capacity, so loads merge, the MSHR runs out and every
/// way of a set can be pinned. Checked on every access (outcome, MSHR
/// occupancy, evictions, writebacks) and on every fill (its tokens in
/// arrival order, then a load of the filled sector must hit: had the L2
/// evicted the pinned line, the fill would have landed nowhere). Fills
/// complete by sector or by MSHR entry at random; both must give the
/// reference's tokens.
#[test]
fn l2_matches_reference_with_fills_in_flight() {
    let mut r = SmallRng::seed_from_u64(0x12F_0003);
    // 8 sets x 4 ways over 128 lines of addresses: sets fill up fast.
    let cfg = L2Config { capacity_bytes: 4096, ways: 4, ..L2Config::default() };
    let mut tally = Tally::default();
    for case in 0..48 {
        let mshrs = r.random_range(1..9) as usize;
        let mut l2 = L2Cache::new(cfg, mshrs);
        let mut reference = InflightRef::new(&cfg, mshrs);
        // Outstanding fills as (due step, sector, MSHR entry), in miss order.
        let mut inflight: Vec<(u64, u64, usize)> = Vec::new();
        let mut got = Vec::new();
        let mut token = 0u64;
        let steps = r.random_range(200..800);
        for step in 0..=steps + 64 {
            // Deliver every due fill, earliest due first, ties in miss order.
            while let Some(pos) = (0..inflight.len())
                .filter(|&i| inflight[i].0 <= step)
                .min_by_key(|&i| inflight[i].0)
            {
                let (_, sector, entry) = inflight.remove(pos);
                let want = reference.fill_done(sector);
                if r.random_bool(0.5) {
                    l2.fill_done_into(PhysAddr(sector), &mut got);
                } else {
                    assert_eq!(l2.entry_sector(entry), PhysAddr(sector), "case {case}");
                    l2.fill_entry_done_into(entry, &mut got);
                }
                assert_eq!(got, want, "case {case} step {step}: tokens of fill {sector:#x}");
                token += 1;
                let probe = reference.access(sector, false, token);
                assert_eq!(probe, L2Access::Hit, "case {case} step {step}: reference probe");
                assert_eq!(
                    l2.access(PhysAddr(sector), false, token),
                    L2Access::Hit,
                    "case {case} step {step}: the line of fill {sector:#x} was evicted"
                );
            }
            let accesses = if step < steps { r.random_range(0..4) } else { 0 };
            for _ in 0..accesses {
                let addr = r.random_range(0..1 << 14) & !(SECTOR - 1);
                let is_store = r.random_bool(0.3);
                token += 1;
                let want = reference.access(addr, is_store, token);
                let got = l2.access(PhysAddr(addr), is_store, token);
                assert_eq!(got, want, "case {case} step {step}: access {addr:#x}");
                if let L2Access::Miss { fill } = got {
                    inflight.push((step + r.random_range(1..40), fill.0, l2.last_miss_entry()));
                }
                let wbs: Vec<u64> = l2.take_writebacks().iter().map(|a| a.0).collect();
                assert_eq!(wbs, std::mem::take(&mut reference.writebacks), "case {case}");
                assert_eq!(l2.stats().evictions.get(), reference.evictions, "case {case}");
            }
            assert_eq!(l2.inflight_fills(), reference.mshr.len(), "case {case} step {step}");
        }
        assert!(inflight.is_empty() && l2.inflight_fills() == 0, "case {case}: fills left");
        tally.merged += reference.tally.merged;
        tally.blocked_mshr += reference.tally.blocked_mshr;
        tally.blocked_pinned += reference.tally.blocked_pinned;
        tally.fills += reference.tally.fills;
    }
    assert!(
        tally.merged > 0 && tally.blocked_mshr > 0 && tally.blocked_pinned > 0,
        "every MSHR path must be reached: {tally:?}"
    );
}
