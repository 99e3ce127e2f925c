//! Telemetry values and records: what components sample, what the
//! recorder differences, and what exporters and tests consume.

use fgdram_model::stats::Log2Histogram;
use fgdram_model::units::Ns;

/// One telemetry value, the same type from snapshot to export.
///
/// In a [`crate::Sampled::sample`] snapshot every value is cumulative and
/// the recorder replaces it with its delta over the epoch;
/// [`crate::Sampled::derive`] then appends instantaneous and derived
/// readings, which are exported as they are.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An event count.
    U64(u64),
    /// A float quantity (cumulative picojoules, a gauge, a rate).
    F64(f64),
    /// Element-wise counts (per-bank and per-channel heatmaps).
    Array(Vec<u64>),
    /// A log2 latency or depth distribution; exported as count/p50/p95.
    Hist(Box<Log2Histogram>),
}

/// A histogram's exported summary: sample count, p50 and p95 (bucket
/// upper edges, 0 when empty).
pub(crate) fn hist_summary(h: &Log2Histogram) -> [u64; 3] {
    [h.stat().count(), h.quantile(0.5), h.quantile(0.95)]
}

/// One component's named values, in the order they were appended: a
/// cumulative snapshot while sampling, one epoch's reading once
/// differenced.
///
/// Field order is insertion order and must be identical on every
/// [`crate::Sampled::sample`] call: [`ComponentRecord::delta`] pairs
/// fields positionally, and exporters derive the schema from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRecord {
    /// Component name ("ctrl", "dram", ...), from [`crate::Sampled::component`].
    pub component: &'static str,
    /// Fields in sample order, derived fields last.
    pub fields: Vec<(&'static str, Value)>,
}

impl ComponentRecord {
    /// New empty record for `component`.
    pub fn new(component: &'static str) -> Self {
        ComponentRecord { component, fields: Vec::new() }
    }

    /// Appends a cumulative event count.
    pub fn counter(&mut self, name: &'static str, v: u64) {
        self.fields.push((name, Value::U64(v)));
    }

    /// Appends a cumulative float quantity.
    pub fn counter_f64(&mut self, name: &'static str, v: f64) {
        self.fields.push((name, Value::F64(v)));
    }

    /// Appends cumulative element-wise counts.
    pub fn counter_array(&mut self, name: &'static str, v: Vec<u64>) {
        self.fields.push((name, Value::Array(v)));
    }

    /// Appends a cumulative histogram.
    pub fn log2_hist(&mut self, name: &'static str, h: &Log2Histogram) {
        self.fields.push((name, Value::Hist(Box::new(h.clone()))));
    }

    /// Appends an instantaneous or derived reading (from
    /// [`crate::Sampled::derive`]).
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        self.fields.push((name, Value::F64(v)));
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// A count field's value, or 0 when absent or of another kind.
    pub fn get_u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::U64(v)) => *v,
            _ => 0,
        }
    }

    /// A float field's value, or 0.0 when absent or of another kind.
    pub fn get_f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Value::F64(v)) => *v,
            _ => 0.0,
        }
    }

    /// Sum of an array field, or 0 when absent.
    pub fn get_array_sum(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::Array(v)) => v.iter().sum(),
            _ => 0,
        }
    }

    /// A histogram field, or an empty one when absent.
    pub fn get_hist(&self, name: &str) -> Log2Histogram {
        match self.get(name) {
            Some(Value::Hist(h)) => (**h).clone(),
            _ => Log2Histogram::new(),
        }
    }

    /// What happened between the `earlier` snapshot and this one.
    ///
    /// Both must come from the same [`crate::Sampled::sample`]
    /// implementation: identical field names, kinds and array lengths, in
    /// the same order (debug-asserted). Counts subtract saturating, so a
    /// mid-window external reset degrades to a zero reading instead of
    /// wrapping; histograms take [`Log2Histogram::delta`].
    pub fn delta(&self, earlier: &ComponentRecord) -> ComponentRecord {
        debug_assert_eq!(self.fields.len(), earlier.fields.len(), "snapshot schema changed");
        let fields = self
            .fields
            .iter()
            .zip(earlier.fields.iter())
            .map(|((name, c), (ename, e))| {
                debug_assert_eq!(name, ename, "snapshot field order changed");
                let v = match (c, e) {
                    (Value::U64(c), Value::U64(e)) => Value::U64(c.saturating_sub(*e)),
                    (Value::F64(c), Value::F64(e)) => Value::F64(c - e),
                    (Value::Array(c), Value::Array(e)) => Value::Array(
                        c.iter().zip(e.iter()).map(|(c, e)| c.saturating_sub(*e)).collect(),
                    ),
                    (Value::Hist(c), Value::Hist(e)) => Value::Hist(Box::new(c.delta(e))),
                    (c, _) => {
                        debug_assert!(false, "snapshot field kind changed for {name}");
                        c.clone()
                    }
                };
                (*name, v)
            })
            .collect();
        ComponentRecord { component: self.component, fields }
    }
}

/// Everything sampled for one epoch.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// 0-based epoch index since recording started.
    pub index: u64,
    /// Inclusive epoch start in simulated ns.
    pub start_ns: Ns,
    /// Exclusive epoch end in simulated ns (may be closer than
    /// `epoch_ns` for a trailing partial epoch).
    pub end_ns: Ns,
    /// One record per sampled component, in source order.
    pub components: Vec<ComponentRecord>,
}

impl EpochRecord {
    /// Looks a component up by name.
    pub fn component(&self, name: &str) -> Option<&ComponentRecord> {
        self.components.iter().find(|c| c.component == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_summary_from_empty() {
        assert_eq!(hist_summary(&Log2Histogram::new()), [0, 0, 0]);
    }

    #[test]
    fn component_record_preserves_order_and_kinds() {
        let mut h = Log2Histogram::new();
        h.record(5);
        h.record(6); // two samples in [4, 8)
        let mut r = ComponentRecord::new("x");
        r.counter("a", 1);
        r.gauge("b", 2.5);
        r.counter_array("c", vec![3, 4]);
        r.log2_hist("d", &h);
        assert_eq!(r.fields.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["a", "b", "c", "d"]);
        assert_eq!(r.get("a"), Some(&Value::U64(1)));
        assert_eq!(r.get("b"), Some(&Value::F64(2.5)));
        assert_eq!(r.get("c"), Some(&Value::Array(vec![3, 4])));
        assert_eq!(r.get("d"), Some(&Value::Hist(Box::new(h.clone()))));
        assert_eq!(hist_summary(&r.get_hist("d")), [2, 8, 8]);
        assert_eq!(r.get_hist("absent"), Log2Histogram::new());
    }
}
