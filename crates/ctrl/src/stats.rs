//! Memory-controller statistics.

use fgdram_model::stats::{Counter, Log2Histogram};
use fgdram_model::units::Ns;

/// Aggregate controller statistics across all channels.
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    /// Read requests accepted.
    pub reads_accepted: Counter,
    /// Write requests accepted.
    pub writes_accepted: Counter,
    /// Requests rejected for a full queue (backpressure events).
    pub rejected: Counter,
    /// Column commands issued to an already-open row.
    pub row_hits: Counter,
    /// Activates issued on behalf of requests.
    pub activates: Counter,
    /// Precharges issued because a different row was needed (conflicts).
    pub conflict_precharges: Counter,
    /// Precharges of rows idle past the controller's timeout.
    pub timeout_precharges: Counter,
    /// Precharges forced by refresh preparation.
    pub refresh_precharges: Counter,
    /// Auto-precharge column commands.
    pub auto_precharges: Counter,
    /// Refresh commands issued.
    pub refreshes: Counter,
    /// Write drain mode entries.
    pub drain_entries: Counter,
    /// Read latency from enqueue to last data beat.
    pub read_latency: Log2Histogram,
    /// Queue occupancy sampled at each enqueue (histogram, so telemetry
    /// can report per-epoch depth quantiles, not just a mean).
    pub queue_depth: Log2Histogram,
    /// Scheduler passes run (host-side work; not in telemetry or reports).
    pub passes: Counter,
    /// Passes that issued no command.
    pub idle_passes: Counter,
    /// Due channels put back to sleep without a pass (see
    /// `Controller::tick`).
    pub rearmed: Counter,
}

impl CtrlStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed read's end-to-end controller latency.
    pub fn record_read_latency(&mut self, enqueued: Ns, done: Ns) {
        self.read_latency.record(done.saturating_sub(enqueued));
    }

    /// DRAM commands issued: every issue path counts exactly one of these
    /// (an auto-precharge rides on its column command).
    pub fn commands(&self) -> u64 {
        self.row_hits.get()
            + self.activates.get()
            + self.conflict_precharges.get()
            + self.timeout_precharges.get()
            + self.refresh_precharges.get()
            + self.refreshes.get()
    }

    /// Row-buffer hit rate over all issued columns.
    pub fn hit_rate(&self) -> f64 {
        let cols = self.row_hits.get() + self.activates.get();
        if cols == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / cols as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recording() {
        let mut s = CtrlStats::new();
        s.record_read_latency(100, 180);
        s.record_read_latency(200, 210);
        assert_eq!(s.read_latency.stat().count(), 2);
        assert_eq!(s.read_latency.stat().mean(), 45.0);
        // Saturating on inverted timestamps.
        s.record_read_latency(50, 10);
        assert_eq!(s.read_latency.stat().min(), 0);
    }

    #[test]
    fn hit_rate_handles_empty() {
        let mut s = CtrlStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        s.row_hits.add(3);
        s.activates.add(1);
        assert_eq!(s.hit_rate(), 0.75);
    }
}
