//! A hierarchical event wheel (calendar queue) keyed on [`Ns`].
//!
//! Replaces the `BinaryHeap<Reverse<(Ns, Event)>>` on the simulator hot
//! path: `push` and `pop_due` are O(1) amortised for the near-future
//! events that dominate a simulation (fills, wakes, retries all land
//! within a few hundred ns), with a two-level bitmap locating the next
//! non-empty slot in a handful of word scans instead of a heap sift.
//!
//! Ordering is identical to the heap it replaces: `pop_due` always yields
//! the minimum `(time, event)` pair, with ties on time broken by the
//! event's `Ord` — so a run scheduled through the wheel is byte-identical
//! to one scheduled through the heap.
//!
//! Layout: `W` power-of-two slots, one per ns, holding events in
//! `[base, base + W)`; each slot's occupancy is one bit in a 64-word
//! bitmap with a one-word summary above it. Events further out than the
//! horizon wait in an overflow heap and migrate into the wheel as `base`
//! advances (which it does in a single jump, never slot-by-slot).
//!
//! Slot storage is one inline entry per slot plus a shared node pool
//! (intrusive chains + free list) for the rare slots holding more, not a
//! `Vec` per slot: per-slot buffers grow to each slot's individual
//! worst-case fan-in, and since spike periods are not aligned to the
//! horizon, every lap lands spikes on fresh residues — 4096 buffers that
//! keep growing forever. The inline lane makes the dominant
//! one-event-per-ns case a single array access with no pool touch at
//! all, and the pool's size is bounded by the *total* live overflow-entry
//! count, which the simulator's bounded queues cap at a high-water mark
//! reached during warmup — after that the wheel never touches the
//! allocator. Entries are `Copy` and popped by `(time, event)` value
//! (all entries in one slot share one time — a slot holds a single
//! residue per horizon window), so storage order inside a slot is
//! unobservable and the pop sequence is identical to the per-slot-`Vec`
//! wheel's.
//!
//! Ordered pops of a slot holding many events (STREAM on FGDRAM parks
//! about 30 fills on one ns) do not search the chain for the minimum each
//! time — that is O(k^2) per ns. The first pop unlinks the whole slot into
//! `batch`, sorts it once, and the rest of that ns is served from there.
//! Lazy-deletion users that only need the earliest live time (the
//! controller's due wheel, ~50 wakes per ns on GUPS/FGDRAM) neither pop
//! nor sort: `first_valid_time` unlinks stale entries in storage order
//! and stops at the first live one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::Ns;

/// Wheel horizon in slots (and ns). 4096 = 64 bitmap words, summarised by
/// exactly one u64.
const W: usize = 4096;
const MASK: u64 = (W as u64) - 1;
const WORDS: usize = W / 64;

/// Null node index for the intrusive slot chains and the free list.
const NIL: u32 = u32::MAX;

/// Time-ordered event queue with O(1) near-future operations.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// All wheel (non-overflow) entries have times in `[base, base + W)`.
    base: Ns,
    /// Entry count in the slots (excludes `overflow`).
    wheel_len: usize,
    /// First entry per slot, present iff the slot's occupancy bit is set.
    /// The common one-event slot lives entirely here.
    inline: Vec<Option<(Ns, T)>>,
    /// Chain head per slot for entries beyond the first (`NIL` if none).
    /// Non-`NIL` implies the inline entry is present.
    more: Vec<u32>,
    /// Node pool for the extra entries: `(time, event, next)`. Live nodes
    /// chain per slot from `more`; free nodes chain from `free_head`.
    pool: Vec<(Ns, T, u32)>,
    free_head: u32,
    /// One occupancy bit per slot.
    words: [u64; WORDS],
    /// One bit per `words` entry.
    summary: u64,
    /// Events at or beyond `base + W`.
    overflow: BinaryHeap<Reverse<(Ns, T)>>,
    /// The multi-entry slot being popped in order: all entries of one time
    /// (`base <= time < base + W`), sorted descending so the minimum is
    /// `last()`. While it is live its slot is empty — `push` routes that
    /// time here — so batch, slots and overflow never tie on time.
    batch: Vec<(Ns, T)>,
}

/// `batch` (like `pool`) is sized once for the busiest slot seen in
/// practice, so taking a slot apart stays off the allocator.
const BATCH_CAP: usize = 1024;

impl<T: Ord + Copy> EventWheel<T> {
    /// An empty wheel based at time 0.
    pub fn new() -> Self {
        EventWheel {
            base: 0,
            wheel_len: 0,
            inline: vec![None; W],
            more: vec![NIL; W],
            // Covers typical multi-event-slot high-water without a
            // mid-run grow; past this the pool doubles amortised, then
            // sticks.
            pool: Vec::with_capacity(1024),
            free_head: NIL,
            words: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::with_capacity(64),
            batch: Vec::with_capacity(BATCH_CAP),
        }
    }

    /// Links `(t, ev)` into its slot (inline lane first, then the pool
    /// chain) and marks the bitmaps.
    fn link(&mut self, t: Ns, ev: T) {
        let s = (t & MASK) as usize;
        if self.inline[s].is_none() {
            self.inline[s] = Some((t, ev));
        } else {
            let node = if self.free_head != NIL {
                let n = self.free_head;
                self.free_head = self.pool[n as usize].2;
                self.pool[n as usize] = (t, ev, self.more[s]);
                n
            } else {
                self.pool.push((t, ev, self.more[s]));
                (self.pool.len() - 1) as u32
            };
            self.more[s] = node;
        }
        self.words[s / 64] |= 1 << (s % 64);
        self.summary |= 1 << (s / 64);
        self.wheel_len += 1;
    }

    /// Total scheduled events (slots + batch + overflow).
    pub fn len(&self) -> usize {
        self.wheel_len + self.batch.len() + self.overflow.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` at time `t`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `t >= base`: the simulator never schedules into the
    /// past (`base` trails the last `pop_due` time, which trails `now`).
    pub fn push(&mut self, t: Ns, ev: T) {
        debug_assert!(t >= self.base, "event scheduled into the past: {t} < base {}", self.base);
        if self.batch_time() == Some(t) {
            let at = self.batch.partition_point(|&e| e > (t, ev));
            self.batch.insert(at, (t, ev));
            return;
        }
        if t >= self.base + W as Ns {
            self.overflow.push(Reverse((t, ev)));
            return;
        }
        self.link(t, ev);
    }

    /// The earliest scheduled time, if any. Mutation-free.
    pub fn next_time(&self) -> Option<Ns> {
        // The three stores are ordered: a live batch is at `base`, below
        // every slot entry, and every slot entry is below `base + W`, where
        // the overflow starts (see `batch`, `push`, `advance_base`).
        self.batch_time()
            .or_else(|| self.min_wheel_time())
            .or_else(|| self.overflow.peek().map(|&Reverse((t, _))| t))
    }

    /// The time all entries of the live batch share, if there is one.
    #[inline]
    fn batch_time(&self) -> Option<Ns> {
        self.batch.last().map(|&(t, _)| t)
    }

    /// Pops the minimum `(time, event)` if it is due (`time <= now`).
    /// Repeated calls drain all due events in exact `(time, event)` order,
    /// including events pushed at `now` between calls.
    pub fn pop_due(&mut self, now: Ns) -> Option<(Ns, T)> {
        let m = self.next_time()?;
        if m > now {
            // Not due: still advance the horizon as far as `now` allows —
            // `push` must keep accepting events at `now` (t >= base).
            self.advance_base(m.min(now));
            return None;
        }
        self.advance_base(m);
        self.pop_at(m)
    }

    /// Moves every due entry (`time <= now`) into `out`, in **slot order
    /// but unordered within a slot** — the whole chain of a multi-entry
    /// slot is unlinked in one O(k) walk instead of k O(k) min-scans.
    /// Callers that need total order must sort `out` themselves; callers
    /// whose downstream is order-insensitive (the controller's due-channel
    /// collection sorts and dedupes its result) get the exact `pop_due`
    /// result set at a fraction of the cost when many events share one
    /// wake time. Base advances exactly as a `pop_due` drain would, so a
    /// subsequent `push` at `now` stays legal.
    pub fn drain_due_unordered(&mut self, now: Ns, out: &mut Vec<(Ns, T)>) {
        loop {
            let Some(m) = self.next_time() else { return };
            if m > now {
                self.advance_base(m.min(now));
                return;
            }
            self.advance_base(m);
            if self.batch_time() == Some(m) {
                out.append(&mut self.batch);
                continue;
            }
            // Overflow entries at exactly `m` that the advance migrated are
            // now in the wheel; any still in the heap are later than `m`.
            debug_assert!(self.wheel_len > 0, "minimum {m} is neither batch nor slot");
            self.unlink_slot((m & MASK) as usize, out);
        }
    }

    /// Moves every entry of the occupied slot `s` to the end of `out`
    /// (inline entry first, then the chain: O(k)) and clears the slot.
    fn unlink_slot(&mut self, s: usize, out: &mut Vec<(Ns, T)>) {
        let first = self.inline[s].take().expect("bitmap bit set on empty slot");
        out.push(first);
        self.wheel_len -= 1;
        let mut cur = std::mem::replace(&mut self.more[s], NIL);
        while cur != NIL {
            let (t, ev, next) = self.pool[cur as usize];
            debug_assert_eq!(t, first.0, "one slot, one time");
            out.push((t, ev));
            self.pool[cur as usize].2 = self.free_head;
            self.free_head = cur;
            self.wheel_len -= 1;
            cur = next;
        }
        self.clear_bit(s);
    }

    /// Removes the inline entry of the occupied slot `s`; the first
    /// chained entry, if any, takes its place.
    fn unlink_inline(&mut self, s: usize) {
        self.wheel_len -= 1;
        let head = self.more[s];
        if head == NIL {
            self.inline[s] = None;
            self.clear_bit(s);
            return;
        }
        let (t, ev, next) = self.pool[head as usize];
        self.inline[s] = Some((t, ev));
        self.more[s] = next;
        self.pool[head as usize].2 = self.free_head;
        self.free_head = head;
    }

    /// Marks slot `s` empty in the bitmaps.
    fn clear_bit(&mut self, s: usize) {
        self.words[s / 64] &= !(1 << (s % 64));
        if self.words[s / 64] == 0 {
            self.summary &= !(1 << (s / 64));
        }
    }

    /// The earliest time holding an entry that `valid` accepts, discarding
    /// the entries it rejects on the way — the peek of a lazy-deletion
    /// queue. Entries of the minimum time are tested in storage order and
    /// the walk stops at the first valid one, which stays linked where it
    /// is: nothing is popped, sorted or batched. Like `push`, it leaves
    /// `base` alone, so pushes at the caller's `now` stay legal.
    pub fn first_valid_time(&mut self, mut valid: impl FnMut(Ns, T) -> bool) -> Option<Ns> {
        loop {
            let m = self.next_time()?;
            // Batch, slots and overflow never tie on time (see `batch`).
            if self.batch_time() == Some(m) {
                let &(t, ev) = self.batch.last().expect("batch time of a live batch");
                if valid(t, ev) {
                    return Some(m);
                }
                self.batch.pop();
                continue;
            }
            let s = (m & MASK) as usize;
            match self.inline[s] {
                Some((t, ev)) if t == m => {
                    if valid(t, ev) {
                        return Some(m);
                    }
                    self.unlink_inline(s);
                }
                // Not in the slots (an alias of `m` may be): beyond the
                // horizon.
                _ => {
                    let &Reverse((t, ev)) = self.overflow.peek().expect("minimum is somewhere");
                    if valid(t, ev) {
                        return Some(m);
                    }
                    self.overflow.pop();
                }
            }
        }
    }

    /// Pops the minimum entry, given its time `m` (`next_time`'s answer,
    /// with `base` advanced to it).
    fn pop_at(&mut self, m: Ns) -> Option<(Ns, T)> {
        // Batch, slots and overflow never tie on time (see `batch`), so
        // `m` names exactly one of them.
        if self.batch_time() == Some(m) {
            return self.batch.pop();
        }
        let s = (m & MASK) as usize;
        if self.inline[s].is_none_or(|(t, _)| t != m) {
            // Not in the slots (an alias of `m` may be): beyond the horizon.
            return self.overflow.pop().map(|Reverse(e)| e);
        }
        if self.more[s] == NIL {
            // Dominant case: a one-event slot never touches pool or batch.
            let one = self.inline[s];
            self.unlink_inline(s);
            return one;
        }
        // All entries of a slot share one time, so this pop and the ones
        // that follow want them in event order: unlink the chain once and
        // sort it, instead of searching it for the minimum on every pop.
        // `base` is at `m` and no live batch is later (a batch is only
        // taken apart at the minimum, and nothing is pushed below `base`).
        debug_assert!(self.batch.is_empty(), "a live batch is always the minimum");
        let mut batch = std::mem::take(&mut self.batch);
        self.unlink_slot(s, &mut batch);
        batch.sort_unstable_by(|a, b| b.cmp(a));
        self.batch = batch;
        self.batch.pop()
    }

    /// Jumps `base` forward to `nb` (callers guarantee every live entry is
    /// at or after `nb`), migrating overflow events that the move brings
    /// inside the horizon.
    fn advance_base(&mut self, nb: Ns) {
        if nb <= self.base {
            return;
        }
        self.base = nb;
        while let Some(&Reverse((t, _))) = self.overflow.peek() {
            if t >= self.base + W as Ns {
                break;
            }
            let Reverse((t, ev)) = self.overflow.pop().expect("peeked");
            self.link(t, ev);
        }
    }

    /// Earliest time present in the slots, via the bitmaps: first set slot
    /// in circular order starting from `base`'s own slot.
    fn min_wheel_time(&self) -> Option<Ns> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.base & MASK) as usize;
        let s = self.next_set_slot(start)?;
        let dist = (s.wrapping_sub(start) & MASK as usize) as Ns;
        Some(self.base + dist)
    }

    fn next_set_slot(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start / 64, start % 64);
        // Bits at or after `start` within its own word.
        let word = self.words[w0] & (!0u64 << b0);
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        // Whole words after w0.
        let later = if w0 + 1 < WORDS { self.summary & (!0u64 << (w0 + 1)) } else { 0 };
        if later != 0 {
            let w = later.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        // Wrap: whole words before w0, then w0's bits below b0.
        let earlier = self.summary & !(!0u64 << w0);
        if earlier != 0 {
            let w = earlier.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        let word = self.words[w0] & !(!0u64 << b0);
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        None
    }
}

impl<T: Ord + Copy> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the exact heap the wheel replaced.
    struct Ref(BinaryHeap<Reverse<(Ns, u32)>>);

    impl Ref {
        fn pop_due(&mut self, now: Ns) -> Option<(Ns, u32)> {
            match self.0.peek() {
                Some(&Reverse((t, _))) if t <= now => {
                    let Reverse(e) = self.0.pop().expect("peeked");
                    Some(e)
                }
                _ => None,
            }
        }
    }

    /// Splitmix64: deterministic test stimulus without external crates.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The exact-wake regression test for the engine rewrite: across a
    /// long randomised schedule (including same-time ties, same-slot
    /// aliasing across the horizon, far-overflow events, bursts of 64+
    /// events on one ns, and pushes at `now` in the middle of a drain),
    /// the wheel yields exactly the heap's `(time, event)` sequence and
    /// its `next_time` always equals the true minimum — the simulator
    /// never wakes early (polling) or late (missed event).
    #[test]
    fn matches_binary_heap_order_exactly() {
        for seed in [1u64, 7, 42] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            let mut reference = Ref(BinaryHeap::new());
            let mut now: Ns = 0;
            for round in 0..5_000u64 {
                // Mixed horizon: mostly near events, some at W-aliased
                // offsets, some far in overflow territory.
                let n = (mix(&mut s) % 4) as usize;
                for _ in 0..n {
                    let r = mix(&mut s);
                    let dt = match r % 10 {
                        0..=5 => r % 64,             // near
                        6..=7 => (r % 8) * W as u64, // same-slot alias
                        _ => W as u64 + r % 100_000, // deep overflow
                    };
                    let ev = (mix(&mut s) % 8) as u32; // force ties
                    wheel.push(now + dt, ev);
                    reference.0.push(Reverse((now + dt, ev)));
                }
                if round % 16 == 0 {
                    // Same-ns burst (the STREAM fill / GUPS wake pattern),
                    // due now or a few ns out, with repeated events.
                    let t = now + mix(&mut s) % 4;
                    for _ in 0..64 + mix(&mut s) % 64 {
                        let ev = (mix(&mut s) % 48) as u32;
                        wheel.push(t, ev);
                        reference.0.push(Reverse((t, ev)));
                    }
                }
                assert_eq!(
                    wheel.next_time(),
                    reference.0.peek().map(|&Reverse((t, _))| t),
                    "seed {seed} round {round}: wake time must be exact"
                );
                loop {
                    let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
                    assert_eq!(a, b, "seed {seed} round {round} at {now}");
                    if a.is_none() {
                        break;
                    }
                    if mix(&mut s) % 8 == 0 {
                        // A handler schedules a follow-on event at `now`:
                        // it must come out of this same drain, in order.
                        let ev = (mix(&mut s) % 48) as u32;
                        wheel.push(now, ev);
                        reference.0.push(Reverse((now, ev)));
                    }
                    assert_eq!(wheel.len(), reference.0.len());
                }
                assert_eq!(wheel.len(), reference.0.len());
                // Advance like the simulator: to the next event or by a
                // small random hop.
                now = match wheel.next_time() {
                    Some(t) if mix(&mut s) % 2 == 0 => t,
                    _ => now + 1 + mix(&mut s) % 32,
                };
            }
        }
    }

    /// The bulk drain must return the exact `pop_due` result *set* (order
    /// within a slot is the caller's problem) and leave the wheel in a
    /// state where pushes at `now` stay legal — across near events, slot
    /// aliasing, heavy same-time pileups (the GUPS pattern), and overflow.
    #[test]
    fn drain_due_unordered_matches_pop_due_set() {
        for seed in [2u64, 13, 99] {
            let mut s = seed;
            let mut a = EventWheel::new();
            let mut b = EventWheel::new();
            let mut now: Ns = 0;
            for round in 0..2_000u64 {
                for _ in 0..(mix(&mut s) % 6) {
                    let r = mix(&mut s);
                    let dt = match r % 10 {
                        // Same-time pileup: many events on one slot.
                        0..=4 => 1,
                        5..=6 => r % 64,
                        7..=8 => (r % 4) * W as u64,
                        _ => W as u64 + r % 50_000,
                    };
                    let ev = (mix(&mut s) % 512) as u32;
                    a.push(now + dt, ev);
                    b.push(now + dt, ev);
                }
                let mut drained = Vec::new();
                for _ in 0..mix(&mut s) % 3 {
                    // Ordered pops first, so the bulk drain also meets a
                    // slot that is already taken apart.
                    drained.extend(a.pop_due(now));
                }
                a.drain_due_unordered(now, &mut drained);
                drained.sort_unstable();
                let mut popped = Vec::new();
                while let Some(e) = b.pop_due(now) {
                    popped.push(e);
                }
                assert_eq!(drained, popped, "seed {seed} round {round} at {now}");
                assert_eq!(a.len(), b.len());
                assert_eq!(a.next_time(), b.next_time());
                // Both wheels must accept a push at `now` after the drain.
                a.push(now, 7);
                b.push(now, 7);
                now += 1 + mix(&mut s) % 96;
            }
        }
    }

    #[test]
    fn pops_events_pushed_at_now_mid_drain() {
        // The system loop schedules follow-on events at `now` while
        // draining; they must come out in the same drain.
        let mut w = EventWheel::new();
        w.push(10, 5u32);
        assert_eq!(w.pop_due(9), None);
        assert_eq!(w.pop_due(10), Some((10, 5)));
        w.push(10, 3);
        w.push(10, 4);
        assert_eq!(w.pop_due(10), Some((10, 3)), "ties pop in event order");
        assert_eq!(w.pop_due(10), Some((10, 4)));
        assert_eq!(w.pop_due(10), None);
        assert!(w.is_empty());
    }

    #[test]
    fn first_valid_time_ignores_due_time_and_removes_only_stale() {
        let mut w = EventWheel::new();
        w.push(100, 1u32);
        w.push(40, 2);
        w.push(5 * W as u64, 3);
        assert_eq!(w.first_valid_time(|_, _| true), Some(40), "min regardless of now");
        assert_eq!(w.len(), 3, "a peek removes nothing valid");
        assert_eq!(w.first_valid_time(|_, ev| ev != 2), Some(100));
        assert_eq!(w.len(), 2);
        // A push at the old `base` (0) is still legal: the peek moved
        // nothing.
        w.push(0, 4);
        assert_eq!(w.pop_due(0), Some((0, 4)));
        assert_eq!(w.first_valid_time(|_, ev| ev == 3), Some(5 * W as u64), "overflow too");
        assert_eq!(w.len(), 1);
        assert_eq!(w.first_valid_time(|_, _| false), None);
        assert!(w.is_empty());
    }

    /// A wheel holding `entries`.
    fn wheel_of(entries: &[(Ns, u32)]) -> EventWheel<u32> {
        let mut w = EventWheel::new();
        for &(t, ev) in entries {
            w.push(t, ev);
        }
        w
    }

    #[test]
    fn first_valid_time_skips_a_slot_of_only_stale_entries() {
        let mut w = wheel_of(&[(10, 1), (10, 2), (10, 3), (20, 4)]);
        assert_eq!(w.first_valid_time(|_, ev| ev == 4), Some(20));
        assert_eq!(w.len(), 1, "the whole stale slot is gone");
        assert_eq!(w.pop_due(20), Some((20, 4)));
    }

    #[test]
    fn first_valid_time_discards_a_stale_batch() {
        let mut w = wheel_of(&[(10, 1), (10, 2), (10, 3), (30, 4)]);
        // The first ordered pop takes the slot apart into the batch.
        assert_eq!(w.pop_due(10), Some((10, 1)));
        assert_eq!(w.batch.len(), 2);
        assert_eq!(w.first_valid_time(|_, ev| ev == 4), Some(30));
        assert!(w.batch.is_empty());
        assert_eq!(w.len(), 1);
        // A push at `now` (the batch's time) is still accepted.
        w.push(10, 5);
        assert_eq!(w.pop_due(10), Some((10, 5)));
    }

    #[test]
    fn first_valid_time_discards_a_stale_overflow_top() {
        let far = 3 * W as u64;
        let mut w = wheel_of(&[(far, 1), (far + 5, 2)]);
        assert_eq!(w.first_valid_time(|_, ev| ev == 2), Some(far + 5));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(far + 5), Some((far + 5, 2)));
    }

    #[test]
    fn first_valid_time_finds_a_valid_entry_behind_stale_ones_in_one_chain() {
        // Storage order of one slot: the inline entry (1), then the chain,
        // newest first (4, 3, 2). The walk drops 1, 4 and 3, stops at 2.
        let mut w = wheel_of(&[(10, 1), (10, 2), (10, 3), (10, 4)]);
        assert_eq!(w.first_valid_time(|_, ev| ev == 2), Some(10));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(10), Some((10, 2)));
        assert!(w.is_empty());
    }

    #[test]
    fn first_valid_time_leaves_valid_entries_linked_unsorted() {
        let mut w = wheel_of(&[(10, 3), (10, 1), (10, 2)]);
        assert_eq!(w.first_valid_time(|_, _| true), Some(10));
        assert!(w.batch.is_empty(), "no batch");
        assert_eq!(w.inline[10], Some((10, 3)), "inline entry untouched: no sort");
        assert_eq!(w.len(), 3);
        // Ordered pops still come out in event order.
        let popped: Vec<_> = std::iter::from_fn(|| w.pop_due(10)).collect();
        assert_eq!(popped, [(10, 1), (10, 2), (10, 3)]);
    }

    #[test]
    fn event_exactly_at_the_horizon_goes_to_overflow_and_pops_in_order() {
        let w_ns = W as u64;
        let mut w = EventWheel::new();
        // t == base + W is the first non-representable slot time (it
        // would alias slot 0, base's own slot): it must take the
        // overflow path, not corrupt the wheel.
        w.push(w_ns, 1u32);
        w.push(w_ns - 1, 2); // last in-horizon slot
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_time(), Some(w_ns - 1));
        assert_eq!(w.pop_due(w_ns), Some((w_ns - 1, 2)));
        assert_eq!(w.pop_due(w_ns), Some((w_ns, 1)), "horizon event migrates and pops");
        // The same boundary must hold against the advanced base (w_ns).
        w.push(2 * w_ns, 3); // exactly new base + W: overflow again
        w.push(2 * w_ns - 1, 4);
        assert_eq!(w.next_time(), Some(2 * w_ns - 1));
        assert_eq!(w.pop_due(2 * w_ns), Some((2 * w_ns - 1, 4)));
        assert_eq!(w.pop_due(2 * w_ns), Some((2 * w_ns, 3)));
        assert!(w.is_empty());
    }

    #[test]
    fn push_at_now_stays_legal_as_base_advances() {
        let mut w = EventWheel::new();
        w.push(50, 1u32);
        // Nothing due at 49; base still advances as far as `now` allows,
        // and a push at exactly t == base must then be accepted and sort
        // ahead of the later event.
        assert_eq!(w.pop_due(49), None);
        w.push(49, 2);
        assert_eq!(w.pop_due(49), Some((49, 2)));
        assert_eq!(w.pop_due(50), Some((50, 1)));
        // After a pop advanced base to the popped time, t == base again.
        w.push(50, 3);
        assert_eq!(w.pop_due(50), Some((50, 3)));
        assert!(w.is_empty());
    }

    /// The controller due-queue discipline: cancellations are lazy (stale
    /// entries stay queued; a drain skips them, and `first_valid_time`
    /// discards those in front of the earliest live one). Across seeded
    /// bursts of pushes and cancels the wheel must yield the live entries
    /// in the reference's exact order and peek the reference's minimum.
    #[test]
    fn lazy_clean_first_valid_time_survives_cancellation_bursts() {
        use std::collections::{BTreeSet, HashSet};
        for seed in [3u64, 11, 2026] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            // Live entries only: a cancel removes its entry here at once.
            let mut reference = BTreeSet::new();
            let mut live: Vec<(Ns, u32)> = Vec::new();
            let mut canceled: HashSet<u32> = HashSet::new();
            let mut next_id = 0u32;
            let mut now: Ns = 0;
            for _round in 0..400 {
                // Push burst at mixed horizons; unique ids keep the two
                // pop sequences directly comparable.
                for _ in 0..(mix(&mut s) % 6) {
                    let r = mix(&mut s);
                    let dt = match r % 3 {
                        0 => r % 256,
                        1 => r % W as u64,
                        _ => W as u64 + r % 10_000,
                    };
                    // One in four is a same-time burst: many channels
                    // waking on one ns, some of them cancelled later.
                    let burst = if r % 4 == 0 { 64 } else { 1 };
                    for _ in 0..burst {
                        let id = next_id;
                        next_id += 1;
                        wheel.push(now + dt, id);
                        reference.insert((now + dt, id));
                        live.push((now + dt, id));
                    }
                }
                // Cancellation burst: mark a random subset stale without
                // touching the wheel.
                for _ in 0..(mix(&mut s) % 4) {
                    if live.is_empty() {
                        break;
                    }
                    let i = (mix(&mut s) % live.len() as u64) as usize;
                    let e = live.swap_remove(i);
                    reference.remove(&e);
                    canceled.insert(e.1);
                }
                now += 1 + mix(&mut s) % 512;
                // A controller tick: everything due comes out in order
                // (which also moves `base` up to `now`), stale entries
                // skipped ...
                while let Some((t, id)) = wheel.pop_due(now) {
                    if !canceled.contains(&id) {
                        assert_eq!(reference.pop_first(), Some((t, id)), "seed {seed}");
                        live.retain(|&(_, l)| l != id);
                    }
                }
                // ... then the peek names the earliest live time, possibly
                // leaving a slot half cleaned while earlier pushes arrive
                // (it does not advance base, so they stay legal).
                let peek = wheel.first_valid_time(|_, id| !canceled.contains(&id));
                assert_eq!(peek, reference.first().map(|&(t, _)| t), "seed {seed}");
                assert!(peek.is_none_or(|t| t > now), "seed {seed}: due entry survived the drain");
                assert!(wheel.len() >= reference.len(), "seed {seed}");
            }
            // Final full drain: the live entries agree to the last one.
            while let Some((t, id)) = wheel.pop_due(Ns::MAX) {
                if !canceled.contains(&id) {
                    assert_eq!(reference.pop_first(), Some((t, id)), "seed {seed}");
                }
            }
            assert!(reference.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn overflow_events_migrate_into_the_wheel() {
        let mut w = EventWheel::new();
        let far = 3 * W as u64 + 17;
        w.push(far, 1u32);
        w.push(5, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(w.pop_due(5), Some((5, 2)));
        assert_eq!(w.next_time(), Some(far));
        // Nothing due for a long while; base advances with `now`.
        assert_eq!(w.pop_due(far - 1), None);
        assert_eq!(w.pop_due(far), Some((far, 1)));
        assert!(w.is_empty());
    }
}
