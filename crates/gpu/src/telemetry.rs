//! Telemetry instrumentation: GPU front end and L2 as [`Sampled`] sources.

use fgdram_model::units::Ns;
use fgdram_telemetry::{ComponentRecord, Sampled};

use crate::l2::{L2Cache, L2Stats};
use crate::sm::Gpu;

impl Sampled for Gpu {
    fn component(&self) -> &'static str {
        "gpu"
    }

    fn sample(&self, out: &mut ComponentRecord) {
        let s = self.stats();
        out.counter("retired", s.retired);
        out.counter("loads_issued", s.loads_issued);
        out.counter("stores_issued", s.stores_issued);
        out.counter("sectors", s.sectors);
    }

    fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
        let active = self.active_warps() as f64;
        let outstanding = self.outstanding_loads() as f64;
        epoch.gauge("active_warps", active);
        epoch.gauge("outstanding_loads", outstanding);
        epoch.gauge("parked_warps", self.parked_warps() as f64);
        // Instantaneous MLP: in-flight loads per warp that has any.
        epoch.gauge("mlp", if active == 0.0 { 0.0 } else { outstanding / active });
    }
}

impl Sampled for L2Cache {
    fn component(&self) -> &'static str {
        "l2"
    }

    fn sample(&self, out: &mut ComponentRecord) {
        let s = self.stats();
        out.counter("hits", s.hits.get());
        out.counter("misses", s.misses.get());
        out.counter("merges", s.merges.get());
        out.counter("stores", s.stores.get());
        out.counter("writeback_sectors", s.writeback_sectors.get());
        out.counter("evictions", s.evictions.get());
        out.counter("blocked", s.blocked.get());
    }

    fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
        epoch.gauge("inflight_fills", self.inflight_fills() as f64);
        let stats = L2Stats {
            hits: epoch.get_u64("hits").into(),
            misses: epoch.get_u64("misses").into(),
            merges: epoch.get_u64("merges").into(),
            ..L2Stats::default()
        };
        epoch.gauge("hit_rate", stats.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::PhysAddr;
    use fgdram_model::config::L2Config;

    #[test]
    fn l2_epoch_hit_rate_of_deltas() {
        let mut l2 = L2Cache::new(L2Config::default(), 64);
        let a = PhysAddr(0x1000);
        l2.access(a, false, 1); // miss
        l2.fill_done(a);
        let before = l2.snapshot();
        // Inside the "epoch": two hits, one fresh miss.
        l2.access(a, false, 2);
        l2.access(a, false, 3);
        l2.access(PhysAddr(0x9000), false, 4);
        let mut d = l2.snapshot().delta(&before);
        l2.derive(&mut d, 1000);
        assert_eq!(d.get_u64("hits"), 2);
        assert_eq!(d.get_u64("misses"), 1);
        assert!((d.get_f64("hit_rate") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.get_f64("inflight_fills"), 1.0);
    }
}
