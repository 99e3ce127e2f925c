//! Telemetry instrumentation: the controller as a [`Sampled`] source.

use fgdram_model::units::Ns;
use fgdram_telemetry::{ComponentRecord, Sampled};

use crate::controller::Controller;
use crate::stats::CtrlStats;

impl Sampled for Controller {
    fn component(&self) -> &'static str {
        "ctrl"
    }

    fn sample(&self, out: &mut ComponentRecord) {
        let s = self.stats();
        out.counter("reads", s.reads_accepted.get());
        out.counter("writes", s.writes_accepted.get());
        out.counter("rejected", s.rejected.get());
        out.counter("row_hits", s.row_hits.get());
        out.counter("activates", s.activates.get());
        out.counter("conflict_precharges", s.conflict_precharges.get());
        out.counter("timeout_precharges", s.timeout_precharges.get());
        out.counter("refresh_precharges", s.refresh_precharges.get());
        out.counter("auto_precharges", s.auto_precharges.get());
        out.counter("refreshes", s.refreshes.get());
        out.counter("drain_entries", s.drain_entries.get());
        // Exact, so a reader can pool several epochs' mean latency.
        out.counter(
            "read_latency_sum_ns",
            s.read_latency.stat().sum().min(u64::MAX as u128) as u64,
        );
        out.log2_hist("read_latency", &s.read_latency);
        out.log2_hist("queue_depth", &s.queue_depth);
    }

    fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
        epoch.gauge("pending", self.pending() as f64);
        let stats = CtrlStats {
            row_hits: epoch.get_u64("row_hits").into(),
            activates: epoch.get_u64("activates").into(),
            read_latency: epoch.get_hist("read_latency"),
            ..CtrlStats::default()
        };
        epoch.gauge("row_hit_rate", stats.hit_rate());
        epoch.gauge("avg_read_latency_ns", stats.read_latency.stat().mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_dram::DramDevice;
    use fgdram_model::addr::{MemRequest, PhysAddr, ReqId};
    use fgdram_model::config::{CtrlConfig, DramConfig, DramKind};

    #[test]
    fn controller_sample_covers_issue_fields() {
        let cfg = DramConfig::new(DramKind::QbHbm);
        let mut dev = DramDevice::new(cfg.clone());
        let mut ctrl = Controller::new(&cfg, CtrlConfig::default()).unwrap();
        let before = ctrl.snapshot();
        ctrl.try_enqueue(MemRequest { id: ReqId(1), addr: PhysAddr(0), is_write: false }, 0);
        let mut done = Vec::new();
        let mut now = 0;
        while done.is_empty() {
            now = ctrl.tick(&mut dev, now, &mut done).unwrap().max(now + 1);
        }
        let mut d = ctrl.snapshot().delta(&before);
        ctrl.derive(&mut d, 1000);
        assert_eq!(d.get_u64("reads"), 1);
        assert_eq!(d.get_u64("activates"), 1);
        assert!(d.get_u64("read_latency_sum_ns") > 0);
        // One activate, then the column lands on the open row: 1 hit of 2
        // column opportunities.
        assert_eq!(d.get_f64("row_hit_rate"), 0.5);
        assert_eq!(d.get_f64("row_hit_rate"), ctrl.stats().hit_rate());
        assert!(d.get_f64("avg_read_latency_ns") > 0.0);
        assert_eq!(d.get_f64("pending"), 0.0);
    }
}
