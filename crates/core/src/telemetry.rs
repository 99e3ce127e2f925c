//! System-level telemetry glue: the energy meter as a [`Sampled`] source.
//!
//! The meter itself is stateless (energy is a pure function of operation
//! counts), so the sampler pairs it with the device's cumulative counters
//! and lets the recorder's delta machinery attribute picojoules to epochs.

use fgdram_dram::DramDevice;
use fgdram_energy::meter::{DataActivity, EnergyBreakdown, EnergyMeter, OpCounts};
use fgdram_model::units::{Ns, Picojoules};
use fgdram_telemetry::{ComponentRecord, Sampled};

/// Samples cumulative energy, decomposed per the paper's breakdown
/// (activation / on-die data movement / I/O), as float counters.
#[derive(Debug)]
pub(crate) struct EnergySampler<'a> {
    pub meter: &'a EnergyMeter,
    pub dev: &'a DramDevice,
    pub activity: DataActivity,
}

impl EnergySampler<'_> {
    fn ops(&self) -> OpCounts {
        let k = self.dev.total_counters();
        OpCounts { activates: k.activates, read_atoms: k.read_atoms, write_atoms: k.write_atoms }
    }
}

impl Sampled for EnergySampler<'_> {
    fn component(&self) -> &'static str {
        "energy"
    }

    fn sample(&self, out: &mut ComponentRecord) {
        let ops = self.ops();
        let e = self.meter.energy(&ops, self.activity);
        out.counter_f64("act_pj", e.activation.value());
        out.counter_f64("move_pj", e.data_movement.value());
        out.counter_f64("io_pj", e.io.value());
        out.counter("bits", self.meter.data_bits(&ops));
    }

    fn derive(&self, epoch: &mut ComponentRecord, _epoch_ns: Ns) {
        let pj = |name| Picojoules::new(epoch.get_f64(name));
        let per_bit = EnergyBreakdown {
            activation: pj("act_pj"),
            data_movement: pj("move_pj"),
            io: pj("io_pj"),
        }
        .per_bit(epoch.get_u64("bits"));
        epoch.gauge("act_pj_per_bit", per_bit.activation.value());
        epoch.gauge("move_pj_per_bit", per_bit.data_movement.value());
        epoch.gauge("io_pj_per_bit", per_bit.io.value());
        epoch.gauge("pj_per_bit", per_bit.total().value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::cmd::{BankRef, DramCommand};
    use fgdram_model::config::{DramConfig, DramKind};

    #[test]
    fn energy_deltas_decompose_per_epoch() {
        let cfg = DramConfig::new(DramKind::QbHbm);
        let mut dev = DramDevice::new(cfg.clone());
        let meter = EnergyMeter::new(&cfg);
        let activity = DataActivity::default();
        let before = EnergySampler { meter: &meter, dev: &dev, activity }.snapshot();
        let b = BankRef { channel: 0, bank: 0 };
        dev.issue(DramCommand::Activate { bank: b, row: 1, slice: 0 }, 0).unwrap();
        let rd = DramCommand::Read {
            bank: b,
            row: 1,
            col: 0,
            auto_precharge: false,
            req: fgdram_model::addr::ReqId(0),
        };
        let t = dev.earliest(&rd, 0).unwrap();
        dev.issue(rd, t).unwrap();
        let es = EnergySampler { meter: &meter, dev: &dev, activity };
        let mut d = es.snapshot().delta(&before);
        es.derive(&mut d, 1000);
        assert!(d.get_f64("act_pj") > 0.0);
        assert!(d.get_f64("move_pj") > 0.0);
        assert!(d.get_f64("io_pj") > 0.0);
        assert_eq!(d.get_u64("bits"), cfg.atom_bytes * 8);
        let total = d.get_f64("pj_per_bit");
        let parts =
            d.get_f64("act_pj_per_bit") + d.get_f64("move_pj_per_bit") + d.get_f64("io_pj_per_bit");
        assert_eq!(total, parts, "EnergyPerBit::total sums the components in this order");
    }
}
