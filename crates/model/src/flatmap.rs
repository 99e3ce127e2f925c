//! A `u64`-keyed map for the engine's hot insert/remove churn (in-flight
//! fills by request id, MSHRs by sector address).
//!
//! `std`'s `HashMap` marks removed slots with tombstones; under steady
//! churn they exhaust the table, which then rehashes — and, once more than
//! half full, reallocates — in the middle of the step loop. This table is
//! sized once from the caller's bound on live entries (load factor at most
//! one half) and deletes by backward shift, so it has no tombstones and
//! nothing to clean up: the steady state never touches the allocator.
//!
//! Like the `fxhash` maps it replaces, it is never iterated, so its slot
//! order cannot reach any output.

/// Knuth's 2^64 / phi multiplier; the home slot is the product's top bits.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Open-addressed (linear probing) map from `u64` keys to small `Copy`
/// values.
///
/// # Examples
///
/// ```
/// use fgdram_model::flatmap::FlatMap;
///
/// let mut m = FlatMap::with_bound(4);
/// assert_eq!(m.insert(7, 'a'), None);
/// assert_eq!(m.get(7), Some('a'));
/// assert_eq!(m.remove(7), Some('a'));
/// assert!(m.is_empty());
/// ```
#[derive(Debug)]
pub struct FlatMap<V> {
    /// `key + 1` of each slot's entry, 0 while the slot is empty.
    tags: Vec<u64>,
    vals: Vec<V>,
    /// `64 - log2(tags.len())`.
    shift: u32,
    len: usize,
}

impl<V: Copy + Default> FlatMap<V> {
    /// An empty map for at most `max_live` entries at a time; this is its
    /// only allocation. For a `V` that is a primitive or a tuple of them
    /// with an all-zero default, `vec!` asks the allocator for zeroed
    /// pages, so even a large table costs nothing to build and touches
    /// memory only as slots come into use.
    pub fn with_bound(max_live: usize) -> Self {
        let n = (2 * max_live.max(1)).next_power_of_two();
        FlatMap {
            tags: vec![0; n],
            vals: vec![V::default(); n],
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(K) >> self.shift) as usize
    }

    /// The slot holding `key` (`Ok`), or the empty slot ending its probe
    /// run (`Err`). Terminates because `insert` keeps the table at most
    /// half full.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let tag = key.wrapping_add(1);
        let mask = self.tags.len() - 1;
        let mut i = self.home(tag);
        loop {
            match self.tags[i] {
                0 => return Err(i),
                t if t == tag => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.probe(key).ok().map(|i| self.vals[i])
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.probe(key).ok().map(|i| &mut self.vals[i])
    }

    /// Stores `value` under `key`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// Panics when a new key would take the map past the bound it was
    /// built for (half its slots) — a caller bug, and the condition that
    /// keeps every probe finite — or when `key` is `u64::MAX`, whose tag
    /// would read as an empty slot.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.probe(key) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], value)),
            Err(i) => {
                assert!(key != u64::MAX, "FlatMap: u64::MAX is not a usable key");
                assert!(2 * self.len < self.tags.len(), "FlatMap: live entries exceed its bound");
                self.tags[i] = key + 1;
                self.vals[i] = value;
                self.len += 1;
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.probe(key).ok()?;
        let value = self.vals[hole];
        self.len -= 1;
        // Backward shift: pull each later entry of the probe run into the
        // hole unless its home lies cyclically within (hole, j], in which
        // case a probe from its home never crosses the hole.
        let mask = self.tags.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let tag = self.tags[j];
            if tag == 0 {
                break;
            }
            if (j.wrapping_sub(self.home(tag)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.tags[hole] = tag;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.tags[hole] = 0;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Seeded insert/remove/lookup churn up to the full bound, against
    /// `HashMap` as the reference.
    #[test]
    fn churn_matches_hashmap() {
        for sequential in [true, false] {
            let bound = 256;
            let mut m = FlatMap::with_bound(bound);
            let mut reference = HashMap::new();
            let mut live = Vec::new();
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for op in 0..200_000u64 {
                // Sequential ids, or sector-like addresses that collide
                // often enough to exercise replacement.
                let key = if sequential { op } else { (step() % 4096) * 32 };
                if live.len() == bound || step() % 3 == 0 {
                    if !live.is_empty() {
                        let k = live.swap_remove(step() as usize % live.len());
                        assert_eq!(m.remove(k), reference.remove(&k));
                    }
                } else {
                    let old = m.insert(key, op);
                    assert_eq!(old, reference.insert(key, op));
                    if old.is_none() {
                        live.push(key);
                    }
                }
                let probe = step() % 8192;
                assert_eq!(m.get(probe), reference.get(&probe).copied());
                assert_eq!(m.get_mut(probe), reference.get_mut(&probe));
                assert_eq!(m.len(), reference.len());
            }
            for k in live {
                assert_eq!(m.remove(k), reference.remove(&k));
            }
            assert!(m.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "exceed its bound")]
    fn exceeding_the_bound_is_a_panic_not_an_endless_probe() {
        let mut m = FlatMap::with_bound(2);
        for k in 0..100u64 {
            m.insert(k * 32, k);
        }
    }
}
