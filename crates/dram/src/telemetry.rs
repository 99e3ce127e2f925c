//! Telemetry instrumentation: the DRAM stack as a [`Sampled`] source.

use fgdram_model::units::Ns;
use fgdram_telemetry::{SampleBuf, Sampled};

use crate::device::DramDevice;

impl Sampled for DramDevice {
    fn component(&self) -> &'static str {
        "dram"
    }

    fn sample(&self, out: &mut SampleBuf) {
        let k = self.total_counters();
        out.counter("activates", k.activates);
        out.counter("read_atoms", k.read_atoms);
        out.counter("write_atoms", k.write_atoms);
        out.counter("refreshes", k.refreshes);
        out.counter("precharges", k.precharges);
        let channels = self.config().channels;
        let mut act_per_channel = Vec::with_capacity(channels);
        let mut busy_ns_per_channel = Vec::with_capacity(channels);
        let mut faw_headroom = 0u64;
        let s = self.state();
        for ch in 0..channels as u32 {
            act_per_channel.push(s.counters(ch).activates);
            busy_ns_per_channel.push(s.data_bus(ch).busy_total());
            faw_headroom += s.faw_headroom_sum(ch);
        }
        out.counter_array("act_per_channel", act_per_channel);
        // The per-bank activate heatmap, channel-major: index = channel *
        // banks_per_channel + bank (a grain's pseudobanks are adjacent).
        out.counter_array("act_per_bank", self.bank_activates_heatmap());
        // busy_total is monotonic per channel, so the array delta is the
        // data-bus busy time inside the epoch.
        out.counter_array("busy_ns_per_channel", busy_ns_per_channel);
        out.counter("faw_headroom_sum", faw_headroom);
    }

    fn derive(&self, delta: &mut SampleBuf, epoch_ns: Ns) {
        let channels = self.config().channels as u64;
        let busy = delta.get_array_sum("busy_ns_per_channel");
        let denom = channels * epoch_ns;
        delta.gauge("busy_frac", if denom == 0 { 0.0 } else { busy as f64 / denom as f64 });
        let atoms = delta.get_u64("read_atoms") + delta.get_u64("write_atoms");
        let bytes = atoms * self.config().atom_bytes;
        delta.gauge("bw_gbps", if epoch_ns == 0 { 0.0 } else { bytes as f64 / epoch_ns as f64 });
        let acts = delta.get_u64("activates");
        let headroom = delta.get_u64("faw_headroom_sum");
        delta
            .gauge("faw_headroom_avg", if acts == 0 { 0.0 } else { headroom as f64 / acts as f64 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::ReqId;
    use fgdram_model::cmd::{BankRef, DramCommand};
    use fgdram_model::config::{DramConfig, DramKind};
    use fgdram_telemetry::RawValue;

    #[test]
    fn device_sample_exposes_heatmap_and_busy_time() {
        let mut d = DramDevice::new(DramConfig::new(DramKind::QbHbm));
        let mut before = SampleBuf::new();
        d.sample(&mut before);
        let b = BankRef { channel: 1, bank: 2 };
        d.issue(DramCommand::Activate { bank: b, row: 1, slice: 0 }, 0).unwrap();
        let rd =
            DramCommand::Read { bank: b, row: 1, col: 0, auto_precharge: false, req: ReqId(0) };
        let t = d.earliest(&rd, 0).unwrap();
        d.issue(rd, t).unwrap();
        let mut after = SampleBuf::new();
        d.sample(&mut after);
        let mut delta = SampleBuf::delta(&before, &after);
        d.derive(&mut delta, 1_000);
        assert_eq!(delta.get_u64("activates"), 1);
        assert_eq!(delta.get_u64("read_atoms"), 1);
        let Some(RawValue::CounterArray(heat)) = delta.get("act_per_bank") else {
            panic!("missing heatmap")
        };
        let banks = d.config().banks_per_channel;
        assert_eq!(heat.len(), d.config().channels * banks);
        assert_eq!(heat[banks + 2], 1, "activate attributed to channel 1 bank 2");
        assert_eq!(heat.iter().sum::<u64>(), 1);
        assert!(delta.get_array_sum("busy_ns_per_channel") > 0);
        assert!(delta.get_f64("busy_frac") > 0.0);
        assert!(delta.get_f64("bw_gbps") > 0.0);
        // A lone activate has every other tFAW slot free.
        let free = d.config().timing.acts_in_faw as f64 - 1.0;
        assert_eq!(delta.get_f64("faw_headroom_avg"), free);
    }
}
