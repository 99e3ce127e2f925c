//! The [`Sampled`] trait: how a component exposes itself to the recorder.

use crate::record::ComponentRecord;
use fgdram_model::units::Ns;

/// A component that can be observed by the epoch sampler.
///
/// Implementations dump *cumulative* values — never per-epoch state — and
/// append instantaneous readings and derived numbers after the delta.
pub trait Sampled {
    /// Stable component name; becomes the JSONL object key ("ctrl",
    /// "dram", "gpu", "l2", "energy").
    fn component(&self) -> &'static str;

    /// Writes the cumulative snapshot. Must emit the same fields in the
    /// same order on every call.
    fn sample(&self, out: &mut ComponentRecord);

    /// Post-delta hook: append gauges (instantaneous readings of `self`)
    /// and the numbers derived from the epoch's delta, computed by the
    /// same functions as the end-of-run report (`epoch_ns` is the epoch's
    /// actual duration — shorter than the configured epoch for a final
    /// partial window). Default: nothing.
    fn derive(&self, _epoch: &mut ComponentRecord, _epoch_ns: Ns) {}

    /// The cumulative snapshot as a record named after the component.
    fn snapshot(&self) -> ComponentRecord {
        let mut r = ComponentRecord::new(self.component());
        self.sample(&mut r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{hist_summary, Value};
    use fgdram_model::stats::Log2Histogram;

    /// One counter of each kind, and a gauge `derive` reads off `self`.
    struct Widget {
        ops: u64,
        pj: f64,
        heat: Vec<u64>,
        lat: Log2Histogram,
        depth: f64,
    }

    impl Sampled for Widget {
        fn component(&self) -> &'static str {
            "widget"
        }
        fn sample(&self, out: &mut ComponentRecord) {
            out.counter("ops", self.ops);
            out.counter_f64("pj", self.pj);
            out.counter_array("heat", self.heat.clone());
            out.log2_hist("lat", &self.lat);
        }
        fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
            epoch.gauge("depth", self.depth);
        }
    }

    fn widget(ops: u64) -> Widget {
        Widget { ops, pj: 0.0, heat: vec![0; 3], lat: Log2Histogram::new(), depth: 0.0 }
    }

    /// The epoch `cur` records after `prev`, as the recorder emits it.
    fn epoch(prev: &Widget, cur: &Widget) -> ComponentRecord {
        let mut e = cur.snapshot().delta(&prev.snapshot());
        cur.derive(&mut e, 1);
        e
    }

    #[test]
    fn delta_subtracts_counters_and_passes_gauges() {
        let prev = Widget { pj: 1.5, heat: vec![1, 2, 3], depth: 4.0, ..widget(10) };
        let cur = Widget { pj: 4.0, heat: vec![2, 2, 10], depth: 9.0, ..widget(17) };
        let e = epoch(&prev, &cur);
        assert_eq!(e.component, "widget");
        assert_eq!(e.get_u64("ops"), 7);
        assert!((e.get_f64("pj") - 2.5).abs() < 1e-12);
        assert_eq!(e.get("heat"), Some(&Value::Array(vec![1, 0, 7])));
        assert_eq!(e.get_f64("depth"), 9.0);
        assert_eq!(e.fields.last().map(|(n, _)| *n), Some("depth"), "gauges follow the delta");
    }

    #[test]
    fn delta_saturates_on_external_reset() {
        // The counter was reset under us between the two snapshots.
        assert_eq!(epoch(&widget(100), &widget(3)).get_u64("ops"), 0);
    }

    #[test]
    fn hist_delta_is_bucketwise() {
        let mut prev = widget(0);
        prev.lat.record(5);
        let mut cur = widget(0);
        cur.lat = prev.lat.clone();
        cur.lat.record(5);
        cur.lat.record(1000);
        let lat = epoch(&prev, &cur).get_hist("lat");
        assert_eq!(lat.stat().count(), 2);
        assert_eq!(lat.stat().mean(), 502.5);
        assert_eq!(hist_summary(&lat), [2, 8, 1024]); // 5 lands in [4, 8)
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let mut w = widget(0);
        w.lat.record(7);
        assert_eq!(hist_summary(&epoch(&w, &w).get_hist("lat")), [0, 0, 0]);
    }

    #[test]
    fn quantile_of_zero_bucket_is_one() {
        let mut cur = widget(0);
        for _ in 0..10 {
            cur.lat.record(0); // ten zero-valued samples
        }
        assert_eq!(hist_summary(&epoch(&widget(0), &cur).get_hist("lat")), [10, 1, 1]);
    }
}
