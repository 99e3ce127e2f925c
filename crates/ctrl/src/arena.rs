//! Per-channel request arena: fixed-capacity FIFO rings carved from one
//! flat slab, with a parallel lane of 4-byte scan keys.
//!
//! The scheduler used to keep one `VecDeque<Pending>` per (bank,
//! direction) — on FGDRAM that is 2048 independently growing heap buffers
//! per stack. [`RequestArena`] allocates one slab per channel sized by the
//! admission-control depths, and [`FifoRing`] runs each bank queue as a
//! sliding window over its fixed slab segment: enqueue/dequeue never
//! touch the allocator, so the steady-state step loop is allocation-free
//! by construction.
//!
//! Three earlier layouts measured worse than what they replaced:
//!
//! * intrusive `next`/`prev` links through a shared slot slab — every
//!   scan step chased a pointer into an unpredictable line, and ordinal
//!   `get`/`remove` re-walked the chain;
//! * rings of `u32` slot indices into the slab — O(1) ordinal access, but
//!   each scan entry still cost an extra dependent load into a slab whose
//!   layout the LIFO free list scrambles over time;
//! * *circular* inline rings — contiguous scans, but a FIFO's head
//!   marches through the whole worst-case-sized segment over time, so a
//!   queue that only ever holds a handful of live entries still cycles
//!   its footprint through kilobytes of slab per bank.
//!
//! The layout that won stores the requests inline in a *sliding* window:
//! the live block `[start, start+len)` is always contiguous (scans are
//! plain slice iteration, exactly the access pattern `VecDeque` wins
//! with), pop-front just advances `start`, and when the tail reaches the
//! segment end the live block slides back to offset 0 with one
//! `copy_within`.
//!
//! The sliding window does **not** keep a queue's hot footprint
//! proportional to its live size: between two slides the window marches
//! through the whole worst-case-sized segment just as the circular ring's
//! head did, so every push lands on a line the core last saw a full lap
//! ago. An FGDRAM stack has
//! 512 grains x 2 banks x (64 + 256) = 327 680 slots, 21 MB at the
//! 64-byte record this module started with, and a sampling profile of
//! GUPS on FGDRAM at that layout put 8.7 % of host time in the row-reuse
//! window scan alone (about 900 cycles per column command: up to 64
//! records = 4 KB walked to compare 8 bytes of each), 5.6 % in the first
//! load of a bank's front record and 4.9 % in `push_back`'s store to a
//! cold line. Two measures bound that cost:
//!
//! * [`Pending`] is packed to 32 bytes (what is dead once a request is
//!   routed is not stored), which halves the slab and every first touch;
//! * the only thing a window scan compares — `(row, slice)` — is copied
//!   into a parallel `keys: Vec<u32>` lane (`row << 8 | slice`) that
//!   [`FifoRing::push_back`] and [`FifoRing::remove_at`] move in
//!   lock-step with the payload. The scheduler's probes read that lane
//!   alone ([`FifoRing::keys`]): a 32-entry window is two cache lines
//!   instead of 32, and the payload is touched only for a bank's front
//!   entry and for the one request chosen to issue.
//!
//! Capacity discipline: admission control bounds a channel's live reads
//! and writes to `read_queue_depth` / `write_buffer_depth`, and any one
//! bank may transiently hold a whole direction's worth — so each ring's
//! capacity is the full per-direction depth and [`FifoRing::push_back`]
//! asserts rather than grows.

use crate::scheduler::Pending;

/// One channel's request slab; every [`FifoRing`] of the channel owns the
/// same fixed segment of `buf` and of `keys`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequestArena {
    buf: Vec<Pending>,
    /// `buf[i].key()` for every live position `i`.
    keys: Vec<u32>,
    next: u32,
}

impl RequestArena {
    /// A slab with room for `total` queued requests, pre-filled with
    /// `fill` (rings only ever read positions they have written).
    pub fn with_capacity(total: usize, fill: Pending) -> Self {
        RequestArena { buf: vec![fill; total], keys: vec![fill.key(); total], next: 0 }
    }

    /// Carves the next `cap`-entry ring segment out of the slab.
    ///
    /// # Panics
    ///
    /// Panics when the segments requested exceed what `with_capacity`
    /// sized.
    pub fn new_ring(&mut self, cap: usize) -> FifoRing {
        let off = self.next;
        self.next += cap as u32;
        assert!(
            self.next as usize <= self.buf.len(),
            "RequestArena::new_ring past the pre-sized slab"
        );
        FifoRing { off, cap: cap as u32, start: 0, len: 0 }
    }
}

/// FIFO queue over a fixed [`RequestArena`] segment, live block always
/// contiguous at `[start, start+len)`. Copyable handle — the backing slab
/// always comes in as an explicit argument, so one struct can own many
/// rings plus the shared arena without borrow fights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FifoRing {
    off: u32,
    cap: u32,
    start: u32,
    len: u32,
}

impl FifoRing {
    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Physical slab position of ordinal `i`.
    #[inline]
    fn pos(self, i: u32) -> usize {
        (self.off + self.start + i) as usize
    }

    /// Appends at the tail, sliding the live block back to the segment
    /// start when the tail has drifted to the segment end.
    ///
    /// # Panics
    ///
    /// Panics when the ring is full — admission control keeps the live
    /// population strictly below every ring's capacity.
    pub fn push_back(&mut self, arena: &mut RequestArena, p: Pending) {
        assert!(self.len < self.cap, "FifoRing full: admission control breached");
        if self.start + self.len == self.cap {
            // Amortized: one record copy per element per lap of the
            // segment, and the block is small whenever laps are frequent.
            let live = self.pos(0)..self.pos(self.len);
            arena.buf.copy_within(live.clone(), self.off as usize);
            arena.keys.copy_within(live, self.off as usize);
            self.start = 0;
        }
        let tail = self.pos(self.len);
        arena.buf[tail] = p;
        arena.keys[tail] = p.key();
        self.len += 1;
    }

    /// The oldest entry, if any.
    pub fn front(self, arena: &RequestArena) -> Option<&Pending> {
        self.get(arena, 0)
    }

    /// The entry `ordinal` positions from the front, O(1).
    pub fn get(self, arena: &RequestArena, ordinal: usize) -> Option<&Pending> {
        if ordinal >= self.len as usize {
            return None;
        }
        Some(&arena.buf[self.pos(ordinal as u32)])
    }

    /// Removes and returns the entry `ordinal` positions from the front,
    /// shifting whichever side of the live block is shorter.
    ///
    /// # Panics
    ///
    /// Panics when `ordinal >= len` (callers index entries they just
    /// scanned).
    pub fn remove_at(&mut self, arena: &mut RequestArena, ordinal: usize) -> Pending {
        let len = self.len as usize;
        assert!(ordinal < len, "FifoRing::remove_at past the tail");
        let at = ordinal as u32;
        let removed = arena.buf[self.pos(at)];
        if ordinal < len / 2 {
            // Shift the front portion forward by one, then advance start.
            let front = self.pos(0)..self.pos(at);
            arena.buf.copy_within(front.clone(), self.pos(1));
            arena.keys.copy_within(front, self.pos(1));
            self.start += 1;
        } else {
            // Shift the tail portion back by one.
            let tail = self.pos(at + 1)..self.pos(len as u32);
            arena.buf.copy_within(tail.clone(), self.pos(at));
            arena.keys.copy_within(tail, self.pos(at));
        }
        self.len -= 1;
        removed
    }

    /// Scan keys ([`Pending::key`]) of the first `window` entries,
    /// front-to-back: what every probe of the scheduler reads instead of
    /// the payload.
    #[inline]
    pub fn keys(self, arena: &RequestArena, window: usize) -> &[u32] {
        let end = self.pos(self.len().min(window) as u32);
        let keys = &arena.keys[self.pos(0)..end];
        debug_assert!(
            keys.iter().copied().eq(arena.buf[self.pos(0)..end].iter().map(Pending::key)),
            "key lane out of step with the payload"
        );
        keys
    }

    /// Iterates the payload front-to-back (plain slice iteration — the
    /// live block is always contiguous).
    #[cfg(test)]
    fn iter(self, arena: &RequestArena) -> std::slice::Iter<'_, Pending> {
        arena.buf[self.pos(0)..self.pos(self.len)].iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::ReqId;

    /// A request whose row and slice (hence key) vary with `seq`.
    fn pending(seq: u64) -> Pending {
        Pending {
            id: ReqId(seq),
            arrived: 0,
            seq,
            row: (seq as u32).wrapping_mul(2_654_435_761) >> 8,
            col: 0,
            slice: (seq % 4) as u8,
            bank: 0,
            is_write: false,
        }
    }

    /// The key lane must equal the keys re-derived from the payload, for
    /// the whole queue and for a window shorter than it.
    fn assert_keys_in_step(ring: FifoRing, arena: &RequestArena, what: &str) {
        let derived: Vec<u32> = ring.iter(arena).map(Pending::key).collect();
        assert_eq!(ring.keys(arena, usize::MAX), derived, "{what}");
        let window = derived.len() / 2;
        assert_eq!(ring.keys(arena, window), &derived[..window], "{what}: window {window}");
    }

    #[test]
    fn fifo_order_and_middle_removal() {
        let mut arena = RequestArena::with_capacity(4, pending(u64::MAX));
        let mut l = arena.new_ring(4);
        for s in 0..4 {
            l.push_back(&mut arena, pending(s));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l.iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(l.front(&arena).unwrap().seq, 0);
        assert_eq!(l.get(&arena, 2).unwrap().seq, 2);
        assert!(l.get(&arena, 4).is_none());
        // Remove from the middle, the front, and the back.
        assert_eq!(l.remove_at(&mut arena, 1).seq, 1);
        assert_eq!(l.iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(l.remove_at(&mut arena, 0).seq, 0);
        assert_eq!(l.remove_at(&mut arena, 1).seq, 3);
        assert_eq!(l.iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [2]);
        assert_eq!(l.remove_at(&mut arena, 0).seq, 2);
        assert!(l.is_empty());
        assert!(l.front(&arena).is_none());
    }

    #[test]
    fn ring_matches_vec_reference_across_wraps() {
        // Drive the ring with a deterministic push/remove mix long enough
        // for head to lap the segment repeatedly; a plain Vec<u64> is the
        // ordering oracle.
        let mut arena = RequestArena::with_capacity(5, pending(u64::MAX));
        let mut l = arena.new_ring(5);
        let mut oracle: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for step in 0..500 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (l.len() < 5 && rng & 1 == 0) || l.is_empty() {
                l.push_back(&mut arena, pending(next));
                oracle.push(next);
                next += 1;
            } else {
                let ord = (rng >> 33) as usize % l.len();
                let got = l.remove_at(&mut arena, ord).seq;
                assert_eq!(got, oracle.remove(ord), "step {step}");
            }
            assert_eq!(l.iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), oracle, "step {step}");
            assert_eq!(l.front(&arena).map(|p| p.seq), oracle.first().copied());
            assert_keys_in_step(l, &arena, &format!("step {step}"));
        }
        assert_eq!((arena.buf.len(), arena.keys.len()), (5, 5), "slab must never grow");
    }

    #[test]
    fn interleaved_rings_share_one_slab() {
        let mut arena = RequestArena::with_capacity(9, pending(u64::MAX));
        let mut rings = [arena.new_ring(3), arena.new_ring(3), arena.new_ring(3)];
        let in_step = |rings: &[FifoRing; 3], arena: &RequestArena, what: &str| {
            rings.iter().for_each(|&r| assert_keys_in_step(r, arena, what));
        };
        for s in 0..8 {
            rings[(s % 3) as usize].push_back(&mut arena, pending(s));
            in_step(&rings, &arena, "after push");
        }
        assert_eq!(rings[0].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(rings[1].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [1, 4, 7]);
        assert_eq!(rings[2].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [2, 5]);
        let got = rings[1].remove_at(&mut arena, 1);
        assert_eq!(got.seq, 4);
        in_step(&rings, &arena, "after back-half remove");
        assert_eq!(rings[1].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [1, 7]);
        // Neighbouring rings are untouched by the shift.
        assert_eq!(rings[0].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(rings[2].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [2, 5]);
        // A front-half removal leaves ring 0 at its segment end, so the
        // next push slides it back to the segment start.
        assert_eq!(rings[0].remove_at(&mut arena, 0).seq, 0);
        in_step(&rings, &arena, "after front-half remove");
        rings[0].push_back(&mut arena, pending(8));
        in_step(&rings, &arena, "after slide");
        assert_eq!(rings[0].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [3, 6, 8]);
        assert_eq!(rings[1].iter(&arena).map(|p| p.seq).collect::<Vec<_>>(), [1, 7]);
        assert_eq!((arena.buf.len(), arena.keys.len()), (9, 9));
    }

    #[test]
    #[should_panic(expected = "admission control")]
    fn push_past_capacity_panics() {
        let mut arena = RequestArena::with_capacity(2, pending(u64::MAX));
        let mut l = arena.new_ring(2);
        for s in 0..3 {
            l.push_back(&mut arena, pending(s));
        }
    }
}
