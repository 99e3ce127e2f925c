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
//! about 30 on one ns, GUPS hundreds of controller wakes) do not search
//! the chain for the minimum each time — that is O(k^2) per ns. The
//! first pop unlinks the whole slot into `batch`, sorts it once, and the
//! rest of that ns is served from there.

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
        let over = self.overflow.peek().map(|&Reverse((t, _))| t);
        [self.batch_time(), self.min_wheel_time(), over].into_iter().flatten().min()
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
        self.words[s / 64] &= !(1 << (s % 64));
        if self.words[s / 64] == 0 {
            self.summary &= !(1 << (s / 64));
        }
    }

    /// Pops the minimum `(time, event)` unconditionally (heap-`pop`
    /// equivalent, for lazy-deletion users that must discard stale
    /// entries beyond `now`). Does *not* advance `base` — the minimum may
    /// lie arbitrarily far in the future, and moving `base` past `now`
    /// would make legitimate pushes at `now` look like pushes into the
    /// past. A popped entry can always be pushed straight back (its time
    /// is `>= base` by the wheel invariant).
    pub fn pop_min(&mut self) -> Option<(Ns, T)> {
        let m = self.next_time()?;
        self.pop_at(m)
    }

    /// Pops the minimum entry, given its time `m` (`next_time`'s answer).
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
            let one = self.inline[s].take();
            self.wheel_len -= 1;
            self.words[s / 64] &= !(1 << (s % 64));
            if self.words[s / 64] == 0 {
                self.summary &= !(1 << (s / 64));
            }
            return one;
        }
        // All entries of a slot share one time, so this pop and the ones
        // that follow want them in event order: unlink the chain once and
        // sort it, instead of searching it for the minimum on every pop.
        // A live batch of a later time goes back to its (empty) slot
        // first. That needs a `pop_min` to have left `base` short of the
        // batch and earlier pushes since; a `pop_due` drain never sees it.
        while let Some((t, ev)) = self.batch.pop() {
            self.link(t, ev);
        }
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
    fn pop_min_ignores_due_time_and_allows_repush() {
        let mut w = EventWheel::new();
        w.push(100, 1u32);
        w.push(40, 2);
        w.push(5 * W as u64, 3);
        assert_eq!(w.pop_min(), Some((40, 2)), "min pops regardless of now");
        // Lazy-deletion pattern: inspect, then push straight back.
        let (t, ev) = w.pop_min().unwrap();
        assert_eq!((t, ev), (100, 1));
        w.push(t, ev);
        assert_eq!(w.pop_min(), Some((100, 1)));
        assert_eq!(w.pop_min(), Some((5 * W as u64, 3)), "overflow drains too");
        assert_eq!(w.pop_min(), None);
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
    /// entries stay queued; `pop_min` discards them on the way out, and a
    /// live-but-not-due head is pushed straight back). Across seeded
    /// bursts of pushes and cancels the wheel must pop the exact sequence
    /// of the reference heap under the same discipline.
    #[test]
    fn lazy_clean_pop_min_survives_cancellation_bursts() {
        use std::collections::HashSet;
        for seed in [3u64, 11, 2026] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            let mut reference = BinaryHeap::new();
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
                        reference.push(Reverse((now + dt, id)));
                        live.push((now + dt, id));
                    }
                }
                // Cancellation burst: mark a random subset stale without
                // touching either queue.
                for _ in 0..(mix(&mut s) % 4) {
                    if live.is_empty() {
                        break;
                    }
                    let i = (mix(&mut s) % live.len() as u64) as usize;
                    canceled.insert(live.swap_remove(i).1);
                }
                now += 1 + mix(&mut s) % 512;
                // A controller tick: everything due comes out in order
                // (which also moves `base` up to `now`) ...
                while let Some((t, id)) = wheel.pop_due(now) {
                    assert_eq!(reference.pop(), Some(Reverse((t, id))), "seed {seed}");
                    live.retain(|&(_, l)| l != id);
                }
                // ... then stale tops are discarded until a live one
                // surfaces, which goes straight back (pop_min does not
                // advance base, so this must stay legal) and may leave a
                // later slot taken apart while earlier pushes arrive.
                while let Some((t, id)) = wheel.pop_min() {
                    if canceled.contains(&id) {
                        assert_eq!(reference.pop(), Some(Reverse((t, id))), "seed {seed}");
                        continue;
                    }
                    assert!(t > now, "seed {seed}: due entry survived the drain");
                    assert_eq!(reference.peek(), Some(&Reverse((t, id))), "seed {seed}");
                    wheel.push(t, id);
                    break;
                }
                assert_eq!(wheel.len(), reference.len(), "seed {seed}");
            }
            // Final full drain: both queues agree to the last entry.
            while let Some(e) = wheel.pop_min() {
                assert_eq!(reference.pop(), Some(Reverse(e)), "seed {seed}");
            }
            assert!(reference.pop().is_none(), "seed {seed}");
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
