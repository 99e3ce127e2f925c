//! Controller/DRAM-only microbenchmark: saturate one stack with synthetic
//! request streams (no GPU, no L2) and report the service rate. Useful for
//! isolating scheduler efficiency from demand effects.
//!
//! Usage: cargo run --release --example ctrl_microbench [pattern] [arch]
//! where pattern is `seq`, `rand`, or `rand-rw`, or a suite application
//! (`GUPS`, `STREAM`, ...): that drives the whole `System` the way the
//! repo benchmark does — 20 000 ns warm-up, then a 30 000 ns window.
//!
//! Either way it also prints the scheduler's host-side work per simulated
//! ns: passes run, passes that issued nothing, and due channels re-armed
//! without a pass; and the device timing evaluations (`earliest` probes
//! and the checks inside issues) per issued controller command.

use fgdram::core::SystemBuilder;
use fgdram::ctrl::{Controller, CtrlStats};
use fgdram::dram::DramDevice;
use fgdram::model::addr::{MemRequest, PhysAddr, ReqId};
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind};
use fgdram::model::rng::SmallRng;
use fgdram::model::units::{GbPerSec, Ns};
use fgdram::workloads::suites;

fn print_scheduler_work(s: &CtrlStats, window: Ns, timing_evals: u64) {
    let per_ns = |c: u64| c as f64 / window as f64;
    println!(
        "per simulated ns: {:.1} passes, {:.1} idle passes, {:.1} re-arms",
        per_ns(s.passes.get()),
        per_ns(s.idle_passes.get()),
        per_ns(s.rearmed.get()),
    );
    println!(
        "timing evaluations per issued command: {:.2} ({} commands)",
        timing_evals as f64 / s.commands().max(1) as f64,
        s.commands(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pattern = std::env::args().nth(1).unwrap_or_else(|| "rand".into());
    let kind = match std::env::args().nth(2).as_deref() {
        Some("fg") => DramKind::Fgdram,
        Some("hbm2") => DramKind::Hbm2,
        Some("salp") => DramKind::QbHbmSalpSc,
        _ => DramKind::QbHbm,
    };
    if let Some(w) = suites::by_name(&pattern) {
        let (warmup, window) = (20_000, 30_000);
        let mut sys = SystemBuilder::new(kind).workload(w).build()?;
        sys.run_for(warmup)?;
        sys.reset_stats();
        let evals = sys.device().timing_evals();
        sys.run_for(window)?;
        let evals = sys.device().timing_evals() - evals;
        println!("{pattern} on {kind}, {window} ns after a {warmup} ns warm-up");
        print_scheduler_work(sys.controller().stats(), window, evals);
        return Ok(());
    }
    let cfg = DramConfig::new(kind);
    let mut dev = DramDevice::new(cfg.clone());
    let mut ctrl = Controller::new(&cfg, CtrlConfig::for_dram(&cfg))?;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut next_id = 0u64;
    let mut seq_addr = 0u64;
    let mut done = Vec::new();
    let mut now = 0u64;
    let window = 200_000u64;
    let mut completed_atoms = 0u64;
    let gen = |rng: &mut SmallRng, seq_addr: &mut u64, next_id: &mut u64| -> MemRequest {
        *next_id += 1;
        match pattern.as_str() {
            "seq" => {
                let a = *seq_addr;
                *seq_addr += 32;
                MemRequest {
                    id: ReqId(*next_id),
                    addr: PhysAddr(a),
                    is_write: rng.random_bool(0.25),
                }
            }
            "rand-rw" => MemRequest {
                id: ReqId(*next_id),
                addr: PhysAddr(rng.random_range(0..1u64 << 30) & !31),
                is_write: rng.random_bool(0.5),
            },
            _ => MemRequest {
                id: ReqId(*next_id),
                addr: PhysAddr(rng.random_range(0..1u64 << 30) & !31),
                is_write: false,
            },
        }
    };
    let mut pending_req: Option<MemRequest> = None;
    while now < window {
        // Unlimited demand: keep every queue as full as it will accept.
        loop {
            let req =
                pending_req.take().unwrap_or_else(|| gen(&mut rng, &mut seq_addr, &mut next_id));
            if !ctrl.try_enqueue(req, now) {
                pending_req = Some(req);
                break;
            }
        }
        done.clear();
        let next = ctrl.tick(&mut dev, now, &mut done)?;
        completed_atoms += done.len() as u64;
        now = next.max(now + 1);
    }
    let bytes = completed_atoms * cfg.atom_bytes;
    let bw = GbPerSec::from_bytes_over(bytes, window);
    let k = dev.total_counters();
    println!(
        "{} on {}: {:.1} GB/s ({:.1}% of {:.0}), atoms/act {:.2}, acts {}, hit-rate {:.1}%",
        pattern,
        cfg.kind,
        bw.value(),
        100.0 * bw.value() / cfg.stack_bandwidth().value(),
        cfg.stack_bandwidth().value(),
        (k.read_atoms + k.write_atoms) as f64 / k.activates.max(1) as f64,
        k.activates,
        ctrl.stats().hit_rate() * 100.0,
    );
    print_scheduler_work(ctrl.stats(), window, dev.timing_evals());
    Ok(())
}
