//! Lightweight statistics primitives used throughout the simulator.

use crate::units::Ns;

/// A saturating event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        core::mem::take(&mut self.0)
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Self {
        Counter(n)
    }
}

impl core::fmt::Display for Counter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.0.fmt(f)
    }
}

/// Streaming mean over `u64` samples (e.g. latencies in ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanStat {
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl MeanStat {
    /// New empty accumulator.
    pub const fn new() -> Self {
        MeanStat { count: 0, sum: 0, max: 0, min: u64::MAX }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
        self.min = self.min.min(sample);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, u128 to avoid overflow).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MeanStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Power-of-two bucketed histogram (bucket 0 holds zero; bucket `i` holds
/// values in `[2^(i-1), 2^i)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    stat: MeanStat,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Log2Histogram { buckets: [0; 64], stat: MeanStat::new() }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let b = 64 - sample.leading_zeros() as usize; // 0 -> bucket 0
        self.buckets[b.min(63)] += 1;
        self.stat.record(sample);
    }

    /// Underlying mean/min/max accumulator.
    pub fn stat(&self) -> &MeanStat {
        &self.stat
    }

    /// Merges another histogram into this one (bucket-wise addition plus
    /// the underlying [`MeanStat`] merge). Used for per-epoch and
    /// cross-channel aggregation.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.stat.merge(&other.stat);
    }

    /// The distribution recorded since the `earlier` snapshot of this
    /// histogram: bucket-wise differences (saturating, so an external
    /// reset in between cannot wrap), with the count taken from
    /// those buckets and the sum from the two sums. Min and max stay the
    /// later snapshot's, bounds on the interval's own.
    pub fn delta(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut d = self.clone();
        for (b, e) in d.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        d.stat.count = d.buckets.iter().sum();
        d.stat.sum = self.stat.sum.saturating_sub(earlier.stat.sum);
        d
    }

    /// Value below which `q` (0..=1) of the samples fall, estimated at
    /// bucket resolution (upper bucket edge). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.stat.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.stat.max()
    }

    /// Iterates (bucket upper edge, count) over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 1 } else { 1u64 << i }, c))
    }
}

/// Tracks an interval-averaged utilisation: busy time over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyTracker {
    busy_until: Ns,
    busy_total: Ns,
}

impl BusyTracker {
    /// New idle tracker.
    pub const fn new() -> Self {
        BusyTracker { busy_until: 0, busy_total: 0 }
    }

    /// Marks the resource busy for `[from, from + dur)`, accumulating only
    /// non-overlapping busy time (back-to-back bursts count once).
    pub fn occupy(&mut self, from: Ns, dur: Ns) {
        let start = from.max(self.busy_until);
        let end = from + dur;
        if end > start {
            self.busy_total += end - start;
        }
        self.busy_until = self.busy_until.max(end);
    }

    /// Time this resource is busy through (exclusive).
    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// Total accumulated busy time.
    pub fn busy_total(&self) -> Ns {
        self.busy_total
    }

    /// Utilisation over `[0, window)`.
    pub fn utilisation(&self, window: Ns) -> f64 {
        if window == 0 {
            0.0
        } else {
            self.busy_total.min(window) as f64 / window as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn mean_stat() {
        let mut m = MeanStat::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), 0);
        for v in [10, 20, 30] {
            m.record(v);
        }
        assert_eq!(m.count(), 3);
        assert_eq!(m.mean(), 20.0);
        assert_eq!(m.max(), 30);
        assert_eq!(m.min(), 10);
        let mut o = MeanStat::new();
        o.record(100);
        m.merge(&o);
        assert_eq!(m.count(), 4);
        assert_eq!(m.max(), 100);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.stat().count(), 7);
        assert!(h.quantile(0.0) >= 1);
        assert!(h.quantile(1.0) >= 1000);
        let med = h.quantile(0.5);
        assert!((2..=8).contains(&med), "median bucket edge {med}");
        let buckets: Vec<_> = h.iter().collect();
        assert!(!buckets.is_empty());
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 7);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Log2Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn mean_stat_merge_empty_and_one_sided() {
        // Empty into empty: still empty, and min()/max() stay well-defined.
        let mut a = MeanStat::new();
        a.merge(&MeanStat::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!((a.min(), a.max()), (0, 0));
        // Non-empty into empty adopts the other side verbatim.
        let mut filled = MeanStat::new();
        for v in [5, 15] {
            filled.record(v);
        }
        a.merge(&filled);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 10.0);
        assert_eq!((a.min(), a.max()), (5, 15));
        assert_eq!(a.sum(), 20);
        // Empty into non-empty changes nothing.
        a.merge(&MeanStat::new());
        assert_eq!(a.count(), 2);
        assert_eq!((a.min(), a.max()), (5, 15));
    }

    #[test]
    fn histogram_merge_empty_and_one_sided() {
        // Empty into empty.
        let mut a = Log2Histogram::new();
        a.merge(&Log2Histogram::new());
        assert_eq!(a.stat().count(), 0);
        assert_eq!(a.quantile(0.5), 0);
        // Non-empty into empty adopts the distribution.
        let mut b = Log2Histogram::new();
        for v in [1u64, 2, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.stat().count(), 3);
        assert_eq!(a.stat().max(), 1000);
        assert_eq!(a, b);
        // Empty into non-empty changes nothing.
        a.merge(&Log2Histogram::new());
        assert_eq!(a.stat().count(), 3);
        // Two-sided: bucket counts add.
        a.merge(&b);
        assert_eq!(a.stat().count(), 6);
        assert_eq!(a.iter().map(|(_, c)| c).sum::<u64>(), 6);
        assert_eq!(a.stat().sum(), 2 * (1 + 2 + 1000));
    }

    #[test]
    fn delta_is_the_interval_distribution() {
        let mut h = Log2Histogram::new();
        h.record(5);
        let earlier = h.clone();
        h.record(5);
        h.record(1000);
        let d = h.delta(&earlier);
        assert_eq!(d.stat().count(), 2);
        assert_eq!(d.stat().sum(), 1005);
        assert_eq!(d.stat().mean(), 502.5);
        assert_eq!(d.quantile(0.5), 8); // 5 lands in [4, 8)
        assert_eq!(d.quantile(1.0), 1024);
        assert_eq!(h.delta(&h).quantile(0.5), 0);
        // An external reset in between saturates instead of wrapping.
        assert_eq!(Log2Histogram::new().delta(&h).stat().count(), 0);
    }

    #[test]
    fn busy_tracker_non_overlapping() {
        let mut b = BusyTracker::new();
        b.occupy(0, 10);
        b.occupy(5, 10); // overlaps 5 ns
        assert_eq!(b.busy_total(), 15);
        assert_eq!(b.busy_until(), 15);
        b.occupy(20, 5);
        assert_eq!(b.busy_total(), 20);
        assert_eq!(b.utilisation(25), 0.8);
        assert_eq!(BusyTracker::new().utilisation(0), 0.0);
    }
}
