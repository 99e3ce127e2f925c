//! Sectored, write-back L2 cache (paper Table 1: 4 MB, 16-way, 128 B lines
//! with 32 B sectors).
//!
//! Sectoring matters to the paper's argument twice over: 32 B sectors keep
//! the DRAM atom small (Section 2.2 shows 128 B atoms hurt graphics by
//! 17%), and sector-granularity fills avoid overfetch on sparse access
//! patterns. Stores write whole sectors, so store misses allocate without
//! fetching (no read-for-ownership traffic).

use fgdram_model::addr::PhysAddr;
use fgdram_model::config::L2Config;
use fgdram_model::stats::Counter;

/// The most MSHR entries an [`L2Cache`] may have. Entries are numbered
/// below it (they fit in 16 bits), so a caller that carries an entry in a
/// wider field can use `MAX_MSHRS` there as a marker that names no entry.
pub const MAX_MSHRS: usize = 1 << 16;

/// The end of a waiter chain.
const NIL: u32 = u32::MAX;

/// Result of one sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Access {
    /// Load hit: data available after the hit latency.
    Hit,
    /// Load miss: the caller must fetch `fill` from DRAM; the waiter token
    /// is parked on the MSHR entry [`L2Cache::last_miss_entry`] names and
    /// returned when that fill completes.
    Miss {
        /// Sector to fetch.
        fill: PhysAddr,
    },
    /// Load miss on a sector already being fetched; the token was merged
    /// onto the existing MSHR.
    Merged,
    /// Store absorbed (sector marked valid + dirty); no DRAM read needed.
    StoreDone,
    /// No victim way or MSHR available; retry later (backpressure).
    Blocked,
}

/// One way's sector state, kept beside the tag and LRU arrays. A way with
/// any `pending` bit set is never a victim.
#[derive(Debug, Clone, Copy, Default)]
struct Sectors {
    valid: u8,
    dirty: u8,
    /// Sectors with a fill in flight.
    pending: u8,
}

/// One outstanding fill: what it fetches, where it lands, and who waits.
#[derive(Debug, Clone, Copy)]
struct Mshr {
    sector: u64,
    /// The way the fill lands in (an index into `tags`).
    way: u32,
    /// First and last merged waiter in `L2Cache::pool`, or [`NIL`].
    head: u32,
    tail: u32,
    /// The waiter whose miss opened the entry.
    first: u64,
}

/// A merged waiter and the next one on its entry's chain.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    token: u64,
    next: u32,
}

/// L2 statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Stats {
    /// Load sector hits.
    pub hits: Counter,
    /// Load sector misses that issued a fill.
    pub misses: Counter,
    /// Load sector misses merged onto an in-flight fill.
    pub merges: Counter,
    /// Stores absorbed.
    pub stores: Counter,
    /// Dirty sectors written back on eviction.
    pub writeback_sectors: Counter,
    /// Lines evicted.
    pub evictions: Counter,
    /// Accesses refused for lack of victim/MSHR.
    pub blocked: Counter,
}

impl L2Stats {
    /// Load hit rate (hits + merges count as hits for traffic purposes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.merges.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            (self.hits.get() + self.merges.get()) as f64 / total as f64
        }
    }
}

/// The sectored L2.
///
/// # Examples
///
/// ```
/// use fgdram_gpu::l2::{L2Access, L2Cache};
/// use fgdram_model::addr::PhysAddr;
/// use fgdram_model::config::L2Config;
///
/// let mut l2 = L2Cache::new(L2Config::default(), 4096);
/// let a = PhysAddr(0x1000);
/// // Cold: miss issues a fill for exactly this sector.
/// assert_eq!(l2.access(a, false, 7), L2Access::Miss { fill: a });
/// // Same sector again: merged onto the outstanding fill.
/// assert_eq!(l2.access(a, false, 8), L2Access::Merged);
/// // Fill arrival wakes both waiters; the sector now hits.
/// assert_eq!(l2.fill_done(a), vec![7, 8]);
/// assert_eq!(l2.access(a, false, 9), L2Access::Hit);
/// ```
#[derive(Debug)]
pub struct L2Cache {
    cfg: L2Config,
    ways: usize,
    /// `sets - 1`; the set, line and sector counts are powers of two, so
    /// the per-access index math is shifts and masks.
    set_mask: usize,
    line_shift: u32,
    sector_shift: u32,
    /// log2 of the sectors per line.
    sectors_shift: u32,
    /// Per way, set-major: `line address + 1`, 0 for an invalid way. A
    /// lookup reads only its set's tags (128 B at 16 ways).
    tags: Vec<u64>,
    /// Per way: the access clock of its last touch.
    lru: Vec<u64>,
    sectors: Vec<Sectors>,
    /// Per way and sector (`way << sectors_shift | sector`): the MSHR
    /// entry filling it, meaningful only while its `pending` bit is set.
    /// Zeroed by the allocator, so untouched pages cost nothing.
    entry_of: Vec<u16>,
    /// The MSHR table. It grows to its high-water mark, at most
    /// `mshr_capacity` entries, and is never shrunk.
    mshrs: Vec<Mshr>,
    mshr_capacity: usize,
    /// Entries of `mshrs` holding no fill, reused last-freed first.
    free: Vec<u16>,
    /// The entry the last [`L2Access::Miss`] opened.
    last_miss: u16,
    /// Merged waiters of every entry, chained through `Waiter::next`;
    /// completed chains go back on `pool_free`.
    pool: Vec<Waiter>,
    pool_free: u32,
    lru_clock: u64,
    writebacks: Vec<PhysAddr>,
    stats: L2Stats,
}

impl L2Cache {
    /// Builds an empty cache with `mshr_capacity` outstanding fills.
    ///
    /// # Panics
    ///
    /// Panics unless the line size, sector size and set count are powers
    /// of two, or if `mshr_capacity` exceeds [`MAX_MSHRS`].
    pub fn new(cfg: L2Config, mshr_capacity: usize) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        assert!(cfg.line_bytes.is_power_of_two(), "L2 line bytes must be a power of two");
        assert!(cfg.sector_bytes.is_power_of_two(), "L2 sector bytes must be a power of two");
        assert!(sets.is_power_of_two(), "L2 set count must be a power of two, not {sets}");
        assert!(mshr_capacity <= MAX_MSHRS, "at most {MAX_MSHRS} MSHRs, not {mshr_capacity}");
        let sectors_per_line = cfg.sectors_per_line();
        L2Cache {
            cfg,
            ways,
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sector_shift: cfg.sector_bytes.trailing_zeros(),
            sectors_shift: sectors_per_line.trailing_zeros(),
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            sectors: vec![Sectors::default(); sets * ways],
            entry_of: vec![0; sets * ways * sectors_per_line],
            mshrs: Vec::with_capacity(mshr_capacity),
            mshr_capacity,
            free: Vec::with_capacity(mshr_capacity),
            last_miss: 0,
            // Room for one merged waiter per entry; it grows past that
            // only at a new high-water mark of merged waiters.
            pool: Vec::with_capacity(mshr_capacity),
            pool_free: NIL,
            lru_clock: 0,
            // Worst-case drain fan-out: one line eviction per access in a
            // step's issue budget, each spilling every dirty sector.
            writebacks: Vec::with_capacity(4096),
            stats: L2Stats::default(),
        }
    }

    /// Cache statistics.
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Zeroes the statistics, keeping cache contents (end-of-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = L2Stats::default();
    }

    /// The cache geometry.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Outstanding fills.
    pub fn inflight_fills(&self) -> usize {
        self.mshrs.len() - self.free.len()
    }

    /// The MSHR entry the most recent [`L2Access::Miss`] opened; complete
    /// it with [`Self::fill_entry_done_into`].
    pub fn last_miss_entry(&self) -> usize {
        self.last_miss as usize
    }

    /// The sector outstanding entry `entry` fetches.
    pub fn entry_sector(&self, entry: usize) -> PhysAddr {
        PhysAddr(self.mshrs[entry].sector)
    }

    #[inline]
    fn line_addr(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.line_shift
    }

    #[inline]
    fn sector_index(&self, addr: PhysAddr) -> u8 {
        ((addr.0 & (self.cfg.line_bytes - 1)) >> self.sector_shift) as u8
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        // Mix upper bits in so power-of-two strides don't camp on one set.
        let h = line_addr ^ (line_addr >> 11) ^ (line_addr >> 23);
        (h as usize) & self.set_mask
    }

    /// The first way of `set` tagged `tag` (`line address + 1`, or 0 for
    /// an invalid way), if any: a scan of the set's tags alone.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways].iter().position(|&t| t == tag).map(|w| base + w)
    }

    /// Accesses one 32 B sector. `token` identifies the waiter to wake on
    /// fill completion (ignored for stores and hits).
    pub fn access(&mut self, addr: PhysAddr, is_store: bool, token: u64) -> L2Access {
        let sector = addr.sector_base(self.cfg.sector_bytes);
        let line_addr = self.line_addr(sector);
        let set = self.set_of(line_addr);
        let bit = 1u8 << self.sector_index(sector);
        let tag = line_addr + 1;
        self.lru_clock += 1;

        // Present line?
        if let Some(i) = self.find_way(set, tag) {
            self.lru[i] = self.lru_clock;
            let s = &mut self.sectors[i];
            if is_store {
                s.valid |= bit;
                s.dirty |= bit;
                self.stats.stores.incr();
                return L2Access::StoreDone;
            }
            if s.valid & bit != 0 {
                self.stats.hits.incr();
                return L2Access::Hit;
            }
            return self.fill_sector(i, sector, token);
        }

        // Miss. A load needs an MSHR entry: without one it must not evict.
        if !is_store && self.free.is_empty() && self.mshrs.len() == self.mshr_capacity {
            self.stats.blocked.incr();
            return L2Access::Blocked;
        }
        // Find a victim (invalid first, then LRU among unpinned).
        let victim = self.find_way(set, 0).or_else(|| {
            (set * self.ways..(set + 1) * self.ways)
                .filter(|&i| self.sectors[i].pending == 0)
                .min_by_key(|&i| self.lru[i])
        });
        let Some(i) = victim else {
            self.stats.blocked.incr();
            return L2Access::Blocked;
        };
        if self.tags[i] != 0 {
            self.stats.evictions.incr();
            let dirty = self.sectors[i].dirty;
            if dirty != 0 {
                self.stats.writeback_sectors.add(dirty.count_ones() as u64);
                // Stash the writeback sectors for the caller to collect.
                self.pending_writebacks(self.tags[i] - 1, dirty);
            }
        }
        self.tags[i] = tag;
        self.lru[i] = self.lru_clock;
        if is_store {
            self.sectors[i] = Sectors { valid: bit, dirty: bit, pending: 0 };
            self.stats.stores.incr();
            return L2Access::StoreDone;
        }
        self.sectors[i] = Sectors::default();
        self.fill_sector(i, sector, token)
    }

    fn fill_sector(&mut self, way: usize, sector: PhysAddr, token: u64) -> L2Access {
        let index = self.sector_index(sector);
        let bit = 1u8 << index;
        let slot = way << self.sectors_shift | index as usize;
        if self.sectors[way].pending & bit != 0 {
            self.merge(self.entry_of[slot] as usize, token);
            self.stats.merges.incr();
            return L2Access::Merged;
        }
        let m = Mshr { sector: sector.0, way: way as u32, head: NIL, tail: NIL, first: token };
        let entry = if let Some(entry) = self.free.pop() {
            self.mshrs[entry as usize] = m;
            entry as usize
        } else if self.mshrs.len() < self.mshr_capacity {
            self.mshrs.push(m);
            self.mshrs.len() - 1
        } else {
            self.stats.blocked.incr();
            return L2Access::Blocked;
        };
        self.entry_of[slot] = entry as u16;
        self.sectors[way].pending |= bit;
        self.last_miss = entry as u16;
        self.stats.misses.incr();
        L2Access::Miss { fill: sector }
    }

    /// Appends `token` to `entry`'s chain of merged waiters.
    fn merge(&mut self, entry: usize, token: u64) {
        let w = if self.pool_free == NIL {
            self.pool.push(Waiter { token, next: NIL });
            (self.pool.len() - 1) as u32
        } else {
            let w = self.pool_free;
            self.pool_free = self.pool[w as usize].next;
            self.pool[w as usize] = Waiter { token, next: NIL };
            w
        };
        let m = &mut self.mshrs[entry];
        let tail = std::mem::replace(&mut m.tail, w);
        if tail == NIL {
            m.head = w;
        } else {
            self.pool[tail as usize].next = w;
        }
    }

    fn pending_writebacks(&mut self, line_addr: u64, dirty: u8) {
        let line_base = line_addr << self.line_shift;
        for s in 0..self.cfg.sectors_per_line() as u64 {
            if dirty & (1 << s) != 0 {
                self.writebacks.push(PhysAddr(line_base + s * self.cfg.sector_bytes));
            }
        }
    }

    /// Drains the dirty-sector writeback addresses produced by evictions
    /// since the last call. The caller turns these into DRAM writes.
    pub fn take_writebacks(&mut self) -> Vec<PhysAddr> {
        std::mem::take(&mut self.writebacks)
    }

    /// Like [`Self::take_writebacks`], but swaps the pending writebacks
    /// into `out` (cleared first) so a caller-owned buffer is reused
    /// instead of allocating a fresh `Vec` per drain.
    pub fn take_writebacks_into(&mut self, out: &mut Vec<PhysAddr>) {
        out.clear();
        std::mem::swap(&mut self.writebacks, out);
    }

    /// Completes an outstanding fill, returning the waiter tokens to wake.
    /// Unknown sectors (e.g. after an unexpected re-fill) return no tokens.
    pub fn fill_done(&mut self, sector: PhysAddr) -> Vec<u64> {
        let mut out = Vec::new();
        self.fill_done_into(sector, &mut out);
        out
    }

    /// Like [`Self::fill_done`], but writes the waiter tokens into `out`
    /// (cleared first), so the steady-state fill path never touches the
    /// allocator.
    pub fn fill_done_into(&mut self, sector: PhysAddr, out: &mut Vec<u64>) {
        out.clear();
        let sector = sector.sector_base(self.cfg.sector_bytes);
        let line_addr = self.line_addr(sector);
        let index = self.sector_index(sector);
        let Some(way) = self.find_way(self.set_of(line_addr), line_addr + 1) else {
            return;
        };
        if self.sectors[way].pending & 1 << index != 0 {
            let entry = self.entry_of[way << self.sectors_shift | index as usize];
            self.fill_entry_done_into(entry as usize, out);
        }
    }

    /// Completes the outstanding fill of MSHR entry `entry` (as named by
    /// [`Self::last_miss_entry`] after its miss): marks the sector valid
    /// and writes its waiter tokens into `out` (cleared first), in the
    /// order they arrived. The entry is free again afterwards.
    pub fn fill_entry_done_into(&mut self, entry: usize, out: &mut Vec<u64>) {
        out.clear();
        let m = self.mshrs[entry];
        let bit = 1u8 << self.sector_index(PhysAddr(m.sector));
        let s = &mut self.sectors[m.way as usize];
        debug_assert!(s.pending & bit != 0, "MSHR entry {entry} has no fill outstanding");
        s.valid |= bit;
        s.pending &= !bit;
        out.push(m.first);
        let mut w = m.head;
        while w != NIL {
            out.push(self.pool[w as usize].token);
            w = self.pool[w as usize].next;
        }
        if m.head != NIL {
            self.pool[m.tail as usize].next = self.pool_free;
            self.pool_free = m.head;
        }
        self.free.push(entry as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2Cache {
        L2Cache::new(L2Config::default(), 64)
    }

    #[test]
    fn store_miss_allocates_without_fetch() {
        let mut c = l2();
        assert_eq!(c.access(PhysAddr(0x40), true, 0), L2Access::StoreDone);
        // The stored sector now hits for loads.
        assert_eq!(c.access(PhysAddr(0x40), false, 1), L2Access::Hit);
        assert_eq!(c.stats().misses.get(), 0);
        assert_eq!(c.stats().stores.get(), 1);
    }

    #[test]
    fn sectors_fill_independently() {
        let mut c = l2();
        // Two sectors of the same 128 B line miss separately.
        assert!(matches!(c.access(PhysAddr(0x00), false, 0), L2Access::Miss { .. }));
        assert!(matches!(c.access(PhysAddr(0x20), false, 1), L2Access::Miss { .. }));
        assert_eq!(c.fill_done(PhysAddr(0x00)), vec![0]);
        assert_eq!(c.access(PhysAddr(0x00), false, 2), L2Access::Hit);
        // Sector 1 still outstanding.
        assert_eq!(c.access(PhysAddr(0x20), false, 3), L2Access::Merged);
        assert_eq!(c.fill_done(PhysAddr(0x20)), vec![1, 3]);
    }

    #[test]
    fn eviction_writes_back_dirty_sectors_only() {
        let cfg = L2Config { capacity_bytes: 4096, ways: 2, ..L2Config::default() };
        let mut c = L2Cache::new(cfg, 64);
        let sets = cfg.sets() as u64;
        // Dirty two sectors of one line, then evict it with conflicting
        // lines. Addresses colliding in a set differ by sets*line_bytes in
        // line address, but set_of mixes bits, so find collisions directly.
        c.access(PhysAddr(0), true, 0);
        c.access(PhysAddr(96), true, 0);
        let set0 = c.set_of(0);
        let mut conflicts = Vec::new();
        let mut la = 1u64;
        while conflicts.len() < 2 {
            if c.set_of(la) == set0 {
                conflicts.push(la * cfg.line_bytes);
            }
            la += 1;
        }
        let _ = sets;
        for a in conflicts {
            c.access(PhysAddr(a), false, 9);
        }
        let wb = c.take_writebacks();
        assert_eq!(wb, vec![PhysAddr(0), PhysAddr(96)]);
        assert_eq!(c.stats().writeback_sectors.get(), 2);
        assert!(c.stats().evictions.get() >= 1);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = L2Cache::new(L2Config::default(), 2);
        assert!(matches!(c.access(PhysAddr(0x0000), false, 0), L2Access::Miss { .. }));
        assert!(matches!(c.access(PhysAddr(0x1000), false, 1), L2Access::Miss { .. }));
        assert_eq!(c.access(PhysAddr(0x2000), false, 2), L2Access::Blocked);
        assert_eq!(c.stats().blocked.get(), 1);
        assert_eq!(c.inflight_fills(), 2);
        // Draining an MSHR unblocks.
        c.fill_done(PhysAddr(0x0000));
        assert!(matches!(c.access(PhysAddr(0x2000), false, 2), L2Access::Miss { .. }));
    }

    #[test]
    fn lines_with_pending_fills_are_not_victims() {
        let cfg = L2Config { capacity_bytes: 512, ways: 2, line_bytes: 128, ..L2Config::default() };
        let mut c = L2Cache::new(cfg, 64);
        // Two lines in the same set (2 sets): fill both ways with pending.
        let set0 = c.set_of(0);
        let mut same_set = vec![0u64];
        let mut la = 1u64;
        while same_set.len() < 3 {
            if c.set_of(la) == set0 {
                same_set.push(la);
            }
            la += 1;
        }
        for &la in &same_set[..2] {
            assert!(matches!(c.access(PhysAddr(la * 128), false, la), L2Access::Miss { .. }));
        }
        // Third line: both ways pinned by pending fills.
        assert_eq!(c.access(PhysAddr(same_set[2] * 128), false, 9), L2Access::Blocked);
    }

    #[test]
    fn a_load_without_an_mshr_evicts_nothing() {
        let cfg = L2Config { capacity_bytes: 512, ways: 2, line_bytes: 128, ..L2Config::default() };
        let mut c = L2Cache::new(cfg, 1);
        let set0 = c.set_of(0);
        let same: Vec<u64> = (0..).filter(|&la| c.set_of(la) == set0).take(3).collect();
        let other = (0..).find(|&la| c.set_of(la) != set0).unwrap();
        // Two dirty lines fill set 0; a load elsewhere takes the one MSHR.
        for &la in &same[..2] {
            assert_eq!(c.access(PhysAddr(la * 128), true, 0), L2Access::StoreDone);
        }
        assert!(matches!(c.access(PhysAddr(other * 128), false, 1), L2Access::Miss { .. }));
        assert_eq!(c.access(PhysAddr(same[2] * 128), false, 2), L2Access::Blocked);
        assert_eq!(c.stats().evictions.get(), 0);
        assert!(c.take_writebacks().is_empty());
        for &la in &same[..2] {
            assert_eq!(c.access(PhysAddr(la * 128), false, 3), L2Access::Hit, "line {la} kept");
        }
    }

    #[test]
    fn hit_rate_accounts_merges_as_hits() {
        let mut c = l2();
        c.access(PhysAddr(0), false, 0);
        c.access(PhysAddr(0), false, 1); // merged
        c.fill_done(PhysAddr(0));
        c.access(PhysAddr(0), false, 2); // hit
        let hr = c.stats().hit_rate();
        assert!((hr - 2.0 / 3.0).abs() < 1e-9, "{hr}");
    }

    #[test]
    #[should_panic(expected = "L2 set count must be a power of two, not 3")]
    fn a_set_count_that_is_no_power_of_two_is_rejected() {
        let cfg = L2Config { capacity_bytes: 3 * 4 * 128, ways: 4, ..L2Config::default() };
        assert_eq!(cfg.sets(), 3);
        let _ = L2Cache::new(cfg, 64);
    }

    #[test]
    fn unknown_fill_returns_no_waiters() {
        let mut c = l2();
        assert!(c.fill_done(PhysAddr(0x7777)).is_empty());
    }
}
