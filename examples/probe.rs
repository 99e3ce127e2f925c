//! Internal diagnostic: run one workload/architecture and dump all stats.
//!
//! Usage: cargo run --release --example probe -- [app] [fg|hbm2|salp|qb]
//! [--no-writes] [--no-refresh] [--deep-queues] [--atom128 | --deepbg]
//! [--wave=N]
use fgdram::core::SystemBuilder;
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind, GpuConfig};
use fgdram::workloads::suites;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "STREAM".into());
    let kind = match std::env::args().nth(2).as_deref() {
        Some("fg") => DramKind::Fgdram,
        Some("hbm2") => DramKind::Hbm2,
        Some("salp") => DramKind::QbHbmSalpSc,
        _ => DramKind::QbHbm,
    };
    let mut w = suites::by_name(&name).ok_or("unknown workload")?;
    let mut gpu_cfg = GpuConfig::default();
    let mut dram_cfg = DramConfig::new(kind);
    let (mut no_refresh, mut deep_queues) = (false, false);
    for arg in std::env::args().skip(3) {
        match arg.as_str() {
            "--no-writes" => w.write_fraction = 0.0,
            "--no-refresh" => no_refresh = true,
            "--deep-queues" => deep_queues = true,
            "--atom128" => dram_cfg = DramConfig::qb_hbm_atom128(),
            "--deepbg" => dram_cfg = DramConfig::qb_hbm_deep_bank_groups(),
            other => {
                if let Some(v) = other.strip_prefix("--wave=") {
                    gpu_cfg.wave_window = v.parse()?;
                } else {
                    return Err(format!("unknown flag {other}").into());
                }
            }
        }
    }
    // The controller policy of the DRAM config in use, with the flags on top.
    let mut ctrl_cfg = CtrlConfig::for_dram(&dram_cfg);
    if no_refresh {
        ctrl_cfg.refresh_enabled = false;
    }
    if deep_queues {
        ctrl_cfg.read_queue_depth = 256;
        ctrl_cfg.write_buffer_depth = 256;
        ctrl_cfg.write_high_watermark = 192;
        ctrl_cfg.write_low_watermark = 64;
        ctrl_cfg.reorder_window = 64;
    }
    let builder = SystemBuilder::new(kind)
        .workload(w)
        .gpu_config(gpu_cfg)
        .dram_config(dram_cfg)
        .ctrl_config(ctrl_cfg);
    let mut sys = builder.build()?;
    sys.run_for(20_000)?;
    sys.reset_stats();
    sys.run_for(100_000)?;
    let r = sys.report(100_000);
    println!("{r}");
    let cs = sys.controller().stats();
    println!("ctrl: accepted r={} w={} rejected={} acts={} hits={} conflictpre={} autopre={} timeoutpre={} refpre={} refreshes={} drains={} qdepth={:.1}",
        cs.reads_accepted, cs.writes_accepted, cs.rejected, cs.activates, cs.row_hits,
        cs.conflict_precharges, cs.auto_precharges, cs.timeout_precharges, cs.refresh_precharges,
        cs.refreshes, cs.drain_entries, cs.queue_depth.stat().mean());
    let l2 = sys.l2().stats();
    println!(
        "l2: hits={} misses={} merges={} stores={} wb={} evic={} blocked={} inflight={}",
        l2.hits.get(),
        l2.misses.get(),
        l2.merges.get(),
        l2.stores.get(),
        l2.writeback_sectors.get(),
        l2.evictions.get(),
        l2.blocked.get(),
        sys.l2().inflight_fills()
    );
    let g = sys.gpu().stats();
    println!(
        "gpu: retired={} loads={} stores={} sectors={}",
        g.retired, g.loads_issued, g.stores_issued, g.sectors
    );
    println!(
        "lat: mean={:.0} p95={} max={}",
        cs.read_latency.stat().mean(),
        cs.read_latency.quantile(0.95),
        cs.read_latency.stat().max()
    );
    Ok(())
}
