//! The epoch recorder: drives delta snapshots off simulated time.

use crate::record::{ComponentRecord, EpochRecord};
use crate::sample::Sampled;
use fgdram_model::units::Ns;

/// Most epoch records a run may keep in memory at once, summed over the
/// series it holds: a suite keeps cells × ⌈window / epoch⌉, a single run
/// one series. An FGDRAM record holds 54 fields with 2 048 array counters
/// (16 KiB) and two 64-bucket histograms, about 20 KiB resident, and
/// exports to 6.4–8.0 KB of JSONL (STREAM, GUPS); a QB-HBM record holds
/// 384 array counters, about 7 KiB, and exports to 2.2–2.6 KB. So the
/// bound caps one run's records at about 1 GB (all FGDRAM; a suite is
/// half QB-HBM) and its JSONL at 400 MB, and still admits the full
/// graphics suite at the CLI defaults (160 cells × 100 epochs).
pub const MAX_EPOCHS: u64 = 50_000;

/// Checks that `series` telemetry series of a `window`-ns measurement at
/// `epoch_ns` per epoch keep at most [`MAX_EPOCHS`] records in total.
/// Every front end calls this where window and epoch enter.
///
/// # Errors
///
/// A message naming the epoch count and the limit.
pub fn check_epochs(series: usize, epoch_ns: Ns, window: Ns) -> Result<(), String> {
    let epochs = (series as u64).saturating_mul(window.div_ceil(epoch_ns.max(1)));
    if epochs <= MAX_EPOCHS {
        return Ok(());
    }
    Err(format!(
        "telemetry would keep {epochs} epochs ({series} series of {window} ns at {epoch_ns} ns \
         per epoch), over the limit of {MAX_EPOCHS}; raise the epoch or shorten the window"
    ))
}

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Epoch length in simulated nanoseconds (clamped to >= 1).
    pub epoch_ns: Ns,
    /// Records to preallocate (at most `MAX_EPOCHS + 2` are); the series
    /// keeps every epoch either way.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { epoch_ns: 1000, capacity: 4096 }
    }
}

impl TelemetryConfig {
    /// Capacity sized to hold a `window`-long run with this `epoch_ns`
    /// without reallocating (full epochs + a trailing partial + slack).
    pub fn for_window(epoch_ns: Ns, window: Ns) -> Self {
        let epoch_ns = epoch_ns.max(1);
        let capacity = (window / epoch_ns) as usize + 2;
        TelemetryConfig { epoch_ns, capacity }
    }
}

/// A finished telemetry series, ready for export.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Configured epoch length in simulated ns.
    pub epoch_ns: Ns,
    /// Every epoch record of the window, oldest first.
    pub records: Vec<EpochRecord>,
}

/// Samples a set of [`Sampled`] components at epoch boundaries derived
/// purely from simulated time.
///
/// Protocol: [`Recorder::start`] once at the beginning of the observation
/// window (takes the baseline snapshot), [`Recorder::poll`] after every
/// simulation step (emits a record per crossed boundary), and
/// [`Recorder::finish`] at the end (flushes a trailing partial epoch).
/// Component order must be identical across all three calls.
#[derive(Debug)]
pub struct Recorder {
    epoch_ns: Ns,
    epoch_start: Ns,
    prev: Vec<ComponentRecord>,
    records: Vec<EpochRecord>,
    started: bool,
}

impl Recorder {
    /// New recorder; call [`Recorder::start`] before polling.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Recorder {
            epoch_ns: cfg.epoch_ns.max(1),
            epoch_start: 0,
            prev: Vec::new(),
            records: Vec::with_capacity(cfg.capacity.min(MAX_EPOCHS as usize + 2)),
            started: false,
        }
    }

    /// Configured epoch length in simulated ns.
    pub fn epoch_ns(&self) -> Ns {
        self.epoch_ns
    }

    /// Takes the baseline snapshot at simulated time `now` and begins an
    /// empty series; epoch 0 spans `[now, now + epoch_ns)`.
    pub fn start(&mut self, now: Ns, sources: &[&dyn Sampled]) {
        self.epoch_start = now;
        self.records.clear();
        self.prev = sources.iter().map(|s| s.snapshot()).collect();
        self.started = true;
    }

    /// Emits one record per epoch boundary crossed up to simulated time
    /// `now`. Counters are cumulative, so sampling several boundaries at
    /// once only loses *attribution between* the skipped epochs, never
    /// events; with per-step polling in the simulator, boundaries are
    /// exact because no events occur between steps.
    pub fn poll(&mut self, now: Ns, sources: &[&dyn Sampled]) {
        debug_assert!(self.started, "poll before start");
        while now >= self.epoch_start + self.epoch_ns {
            let end = self.epoch_start + self.epoch_ns;
            self.emit(end, sources);
        }
    }

    /// Flushes any trailing partial epoch `[epoch_start, now)` and returns
    /// the finished series. A zero-length tail (now == epoch_start)
    /// produces no extra record, so a zero-length window yields an empty
    /// series.
    pub fn finish(mut self, now: Ns, sources: &[&dyn Sampled]) -> Telemetry {
        debug_assert!(self.started, "finish before start");
        self.poll(now, sources);
        if now > self.epoch_start {
            self.emit(now, sources);
        }
        Telemetry { epoch_ns: self.epoch_ns, records: self.records }
    }

    fn emit(&mut self, end: Ns, sources: &[&dyn Sampled]) {
        debug_assert_eq!(sources.len(), self.prev.len(), "source set changed between polls");
        let epoch_len = end - self.epoch_start;
        let mut components = Vec::with_capacity(sources.len());
        for (src, prev) in sources.iter().zip(self.prev.iter_mut()) {
            let cur = src.snapshot();
            let mut epoch = cur.delta(prev);
            src.derive(&mut epoch, epoch_len);
            components.push(epoch);
            *prev = cur;
        }
        self.records.push(EpochRecord {
            index: self.records.len() as u64,
            start_ns: self.epoch_start,
            end_ns: end,
            components,
        });
        self.epoch_start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct Fake {
        ops: Cell<u64>,
        depth: Cell<f64>,
    }

    impl Sampled for Fake {
        fn component(&self) -> &'static str {
            "fake"
        }
        fn sample(&self, out: &mut ComponentRecord) {
            out.counter("ops", self.ops.get());
        }
        fn derive(&self, epoch: &mut ComponentRecord, epoch_ns: Ns) {
            epoch.gauge("depth", self.depth.get());
            let rate = epoch.get_u64("ops") as f64 / epoch_ns as f64;
            epoch.gauge("ops_per_ns", rate);
        }
    }

    fn record_u64(t: &Telemetry, epoch: usize, field: &str) -> u64 {
        t.records[epoch].component("fake").unwrap().get_u64(field)
    }

    #[test]
    fn full_and_partial_epochs() {
        let f = Fake { ops: Cell::new(0), depth: Cell::new(0.0) };
        let mut rec = Recorder::new(TelemetryConfig { epoch_ns: 100, capacity: 16 });
        rec.start(0, &[&f]);
        f.ops.set(3);
        rec.poll(50, &[&f]); // mid-epoch: nothing emitted yet
        f.ops.set(10);
        f.depth.set(4.0);
        rec.poll(120, &[&f]); // crosses 100
        f.ops.set(12);
        let t = rec.finish(150, &[&f]); // partial [100,150)
        assert_eq!(t.records.len(), 2);
        assert_eq!((t.records[0].start_ns, t.records[0].end_ns), (0, 100));
        assert_eq!((t.records[1].start_ns, t.records[1].end_ns), (100, 150));
        assert_eq!(record_u64(&t, 0, "ops"), 10);
        assert_eq!(record_u64(&t, 1, "ops"), 2);
    }

    #[test]
    fn window_exact_multiple_has_no_partial() {
        let f = Fake { ops: Cell::new(0), depth: Cell::new(0.0) };
        let mut rec = Recorder::new(TelemetryConfig { epoch_ns: 50, capacity: 16 });
        rec.start(0, &[&f]);
        let t = rec.finish(100, &[&f]);
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[1].end_ns, 100);
    }

    #[test]
    fn zero_length_window_yields_no_records() {
        let f = Fake { ops: Cell::new(5), depth: Cell::new(0.0) };
        let mut rec = Recorder::new(TelemetryConfig::default());
        rec.start(42, &[&f]);
        let t = rec.finish(42, &[&f]);
        assert!(t.records.is_empty());
    }

    #[test]
    fn nonzero_start_offsets_boundaries() {
        let f = Fake { ops: Cell::new(0), depth: Cell::new(0.0) };
        let mut rec = Recorder::new(TelemetryConfig { epoch_ns: 100, capacity: 16 });
        rec.start(250, &[&f]); // warmup ended at 250
        f.ops.set(1);
        rec.poll(360, &[&f]);
        let t = rec.finish(360, &[&f]);
        assert_eq!((t.records[0].start_ns, t.records[0].end_ns), (250, 350));
        assert_eq!((t.records[1].start_ns, t.records[1].end_ns), (350, 360));
    }

    #[test]
    fn derive_appends_rates() {
        let f = Fake { ops: Cell::new(0), depth: Cell::new(0.0) };
        let mut rec = Recorder::new(TelemetryConfig { epoch_ns: 100, capacity: 4 });
        rec.start(0, &[&f]);
        f.ops.set(50);
        let t = rec.finish(100, &[&f]);
        let c = t.records[0].component("fake").unwrap();
        assert_eq!(
            c.fields.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            ["ops", "depth", "ops_per_ns"]
        );
        assert_eq!(c.get_f64("ops_per_ns"), 0.5);
    }

    #[test]
    fn epoch_zero_clamps_to_one() {
        let rec = Recorder::new(TelemetryConfig { epoch_ns: 0, capacity: 4 });
        assert_eq!(rec.epoch_ns(), 1);
    }
}
