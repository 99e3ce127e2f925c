//! The three engine workloads: one `System` advanced in timed slices.
//!
//! Untraced, the real `core::System` is timed from outside (`run_for` per
//! slice). Traced, three engines run the same slices in lockstep — the
//! [`Shadow`] with the per-layer clock, the real `System`, and the real
//! `System` at `engine_threads(2)` — so the tracing overhead and the
//! worker pool's speed-up are ratios of interleaved slices of one process,
//! and the shadow's counters can be held against the real ones.

use std::hint::black_box;
use std::time::Instant;

use fgdram::core::{SimError, System, SystemBuilder};
use fgdram::dram::{DramDevice, ProtocolChecker};
use fgdram::faults::FaultSpec;
use fgdram::model::cmd::TimedCommand;
use fgdram::model::config::{DramConfig, DramKind};
use fgdram::model::units::Ns;
use fgdram::telemetry::TelemetryConfig;
use fgdram::workloads::{suites, Workload};

use crate::json::Json;
use crate::metrics::Values;
use crate::outcome::{self, Checks, Digest, Outcome, RunArgs};
use crate::shadow::{counters, Shadow};
use crate::trace::{self, Layer, LayerAgg, LAYERS};
use crate::{alloc, probes, seed, stats};

/// One engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Benchmark workload name.
    pub name: &'static str,
    /// Suite application.
    pub app: &'static str,
    /// DRAM architecture.
    pub kind: DramKind,
    /// Simulated length of one timed slice (one *operation*), sized so a
    /// slice takes 70-100 ms of host time on every workload: a 15 s run
    /// then puts well over a hundred slices behind `op_latency_*`.
    pub slice_ns: Ns,
    /// Slices per block. The simulated load is bursty — GUPS alternates
    /// about 5 us of issue with 5 us of drain on FGDRAM, 2 + 2 us on
    /// QB-HBM, and a slice costs four times more host time in one phase
    /// than in the other — so throughput is taken per block of several
    /// periods, and a run measures whole blocks only: every run then
    /// samples the phases in the same proportion.
    pub block_slices: usize,
}

/// The engine workloads.
pub const ENGINE: [EngineSpec; 3] = [
    EngineSpec {
        name: "stream_fg",
        app: "STREAM",
        kind: DramKind::Fgdram,
        slice_ns: 4_000,
        block_slices: 10,
    },
    EngineSpec {
        name: "gups_fg",
        app: "GUPS",
        kind: DramKind::Fgdram,
        slice_ns: 2_000,
        block_slices: 15,
    },
    EngineSpec {
        name: "gups_qb",
        app: "GUPS",
        kind: DramKind::QbHbm,
        slice_ns: 12_000,
        block_slices: 10,
    },
];

/// Warm-up before the first timed slice: caches full, queues at their
/// steady occupancy, every reusable buffer at capacity.
pub const WARMUP_NS: Ns = 20_000;

/// Length of the traced prefix whose command trace goes through the
/// protocol checker (and, traced, through the device replay).
const PREFIX_NS: Ns = 4_000;

fn err(e: SimError) -> String {
    format!("simulation failed: {e}")
}

impl EngineSpec {
    fn workload(&self, seed: u64) -> Workload {
        seed::reseed(suites::by_name(self.app).expect("engine apps are in the compute suite"), seed)
    }

    fn builder(&self, w: &Workload, threads: usize) -> SystemBuilder {
        SystemBuilder::new(self.kind).workload(w.clone()).engine_threads(threads)
    }

    /// Build + warm-up + `reset_stats`: what `setup_s` measures. Returns
    /// the warmed system, the whole set-up time and the build alone.
    fn set_up(&self, w: &Workload, threads: usize) -> Result<(System, f64, f64), SimError> {
        let t = Instant::now();
        let mut sys = self.builder(w, threads).build()?;
        let build_s = t.elapsed().as_secs_f64();
        sys.run_for(WARMUP_NS)?;
        sys.reset_stats();
        Ok((sys, t.elapsed().as_secs_f64(), build_s))
    }

    /// The command trace of the first [`PREFIX_NS`] of the workload.
    fn traced_prefix(&self, w: &Workload) -> Result<Vec<TimedCommand>, SimError> {
        let mut sys = self.builder(w, 1).with_trace().build()?;
        sys.run_for(PREFIX_NS)?;
        Ok(sys.take_trace())
    }
}

/// `(retired instructions, DRAM atoms moved)`: both must grow every slice.
fn progress(sys: &System) -> (u64, u64) {
    let k = sys.device().total_counters();
    (sys.gpu().stats().retired, k.read_atoms + k.write_atoms)
}

fn info(spec: &EngineSpec, walls_ms: &[f64], block_digests: &[Digest]) -> Json {
    let digests = block_digests.iter().map(|d| Json::str(d.hex())).collect();
    let sizes = vec![
        ("slice_ns", Json::Num(spec.slice_ns as f64)),
        ("block_slices", Json::Num(spec.block_slices as f64)),
        ("warmup_ns", Json::Num(WARMUP_NS as f64)),
        ("engine_threads", Json::Num(1.0)),
        ("block_digests", Json::Arr(digests)),
    ];
    outcome::info("slice", sizes, walls_ms)
}

/// The untraced run: end-to-end metrics from the real `System`.
///
/// # Errors
///
/// A message when the system cannot even be set up.
pub fn run(spec: &EngineSpec, args: &RunArgs) -> Result<Outcome, String> {
    let w = spec.workload(args.seed);
    let mut checks = Checks::default();
    let mut values = Values::default();

    // Set-up, repeated; the second replica also runs the first block, so
    // the measured system's statistics after its own first block can be
    // held against an independent run of the same inputs.
    let block_ns = spec.slice_ns * spec.block_slices as u64;
    let (mut sys, first, _) = spec.set_up(&w, 1).map_err(err)?;
    let mut setup_s = vec![first];
    let mut twin_digest = None;
    for i in 1..args.setups.max(2) {
        let (mut twin, s, _) = spec.set_up(&w, 1).map_err(err)?;
        setup_s.push(s);
        if i == 1 {
            twin.run_for(block_ns).map_err(err)?;
            twin_digest = Some(Digest::of(&twin.report(block_ns)));
        }
    }

    let prefix = spec.traced_prefix(&w).map_err(err)?;
    let verdict = ProtocolChecker::new(DramConfig::new(spec.kind)).check_trace(&prefix);
    checks.op(verdict.is_ok() && !prefix.is_empty(), || {
        format!("protocol checker on {} traced commands: {verdict:?}", prefix.len())
    });

    let mut walls_ms = Vec::with_capacity(1024);
    let mut block_rates = Vec::new();
    // Every simulated statistic since the warm-up, hashed at each block's
    // end: a run simulates what another run at its seed did for as many
    // blocks as both measured.
    let mut digests = Vec::new();
    let mut before = progress(&sys);
    let start = Instant::now();
    'blocks: loop {
        let block = Instant::now();
        for _ in 0..spec.block_slices {
            let t = Instant::now();
            let res = sys.run_for(spec.slice_ns);
            walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let after = progress(&sys);
            let ok = res.is_ok() && after.0 > before.0 && after.1 > before.1;
            checks.op(ok, || {
                format!("slice {}: {res:?}, progress {before:?} -> {after:?}", walls_ms.len())
            });
            before = after;
            if res.is_err() {
                break 'blocks;
            }
        }
        block_rates.push(block_ns as f64 / block.elapsed().as_secs_f64());
        digests.push(Digest::of(&sys.report(block_ns * block_rates.len() as u64)));
        if digests.len() == 1 {
            checks.op(digests.first() == twin_digest.as_ref(), || {
                "two systems built from the same inputs disagree after one block".to_string()
            });
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    values.set("sim_ns_per_s", stats::median(&block_rates));
    values.set("op_latency_p50_ms", stats::median(&walls_ms));
    values.set("op_latency_p90_ms", stats::typical_percentile(&walls_ms, spec.block_slices, 90));
    values.set("setup_s", stats::median(&setup_s));
    let digest = digests.first().copied().unwrap_or_else(Digest::new);
    Ok(Outcome { checks, values, digest, info: info(spec, &walls_ms, &digests) })
}

/// Replays `trace` through a fresh device: `earliest` + `issue` per
/// command, then `earliest` alone. A lower bound on the device's share of
/// `ctrl.tick_ns`: the scheduler probes `earliest` more often than it
/// issues.
fn replay(kind: DramKind, trace: &[TimedCommand], checks: &mut Checks) -> (f64, f64) {
    let mut dev = DramDevice::new(DramConfig::new(kind));
    let t = Instant::now();
    let mut illegal = 0;
    for tc in trace {
        let legal = dev.earliest(&tc.cmd, tc.at).is_ok_and(|at| at <= tc.at);
        illegal += u64::from(!(legal && dev.issue(tc.cmd, tc.at).is_ok()));
    }
    let replay_ns = t.elapsed().as_nanos() as f64;
    checks.op(illegal == 0, || format!("device replay refused {illegal} traced commands"));
    let t = Instant::now();
    for tc in trace {
        let _ = black_box(dev.earliest(black_box(&tc.cmd), tc.at));
    }
    (replay_ns, t.elapsed().as_nanos() as f64 / trace.len().max(1) as f64)
}

/// Relative cost of a builder variant: median over alternated short runs
/// of `(variant wall - plain wall) / plain wall`.
fn overhead_share(
    spec: &EngineSpec,
    w: &Workload,
    variant: impl Fn(SystemBuilder) -> SystemBuilder,
) -> Result<f64, SimError> {
    const WARM: Ns = 1_000;
    let window = spec.slice_ns * 2;
    let time = |b: SystemBuilder| -> Result<f64, SimError> {
        let t = Instant::now();
        black_box(b.run_instrumented(WARM, window)?);
        Ok(t.elapsed().as_secs_f64())
    };
    let mut shares = Vec::new();
    for _ in 0..3 {
        let plain = time(spec.builder(w, 1))?;
        let with = time(variant(spec.builder(w, 1)))?;
        shares.push((with - plain) / plain);
    }
    Ok(stats::median(&shares))
}

/// The traced run: per-layer metrics from the shadow, checked against the
/// real `System` running the same slices.
///
/// # Errors
///
/// A message when an engine cannot be set up or the shadow fails.
pub fn run_traced(spec: &EngineSpec, args: &RunArgs) -> Result<Outcome, String> {
    let w = spec.workload(args.seed);
    let mut checks = Checks::default();
    let mut v = Values::default();

    let mut shadow = Shadow::build(spec.kind, &w).map_err(err)?;
    shadow.run_for(WARMUP_NS).map_err(err)?;
    shadow.reset_stats();
    let warm_steps = shadow.chain.steps();
    let (mut real, _, build_s) = spec.set_up(&w, 1).map_err(err)?;
    let (mut pooled, _, _) = spec.set_up(&w, 2).map_err(err)?;

    let (mut wall_shadow, mut wall_real, mut wall_pooled) = (Vec::new(), Vec::new(), Vec::new());
    let mut slices: Vec<[LayerAgg; LAYERS]> = Vec::new();
    let mut allocs = 0;
    let start = Instant::now();
    // Lockstep, a slice each in turn, in whole blocks (see `block_slices`).
    while checks.failed == 0 && (slices.is_empty() || start.elapsed().as_secs_f64() < args.seconds)
    {
        for _ in 0..spec.block_slices {
            let t = Instant::now();
            let res = shadow.run_for(spec.slice_ns);
            wall_shadow.push(t.elapsed().as_nanos() as f64);
            slices.push(shadow.chain.take_slice());
            checks.op(res.is_ok(), || format!("shadow slice {}: {res:?}", slices.len()));
            let a0 = alloc::count();
            let t = Instant::now();
            let res = real.run_for(spec.slice_ns);
            wall_real.push(t.elapsed().as_nanos() as f64);
            allocs += alloc::count() - a0;
            checks.op(res.is_ok(), || format!("slice {}: {res:?}", slices.len()));
            let t = Instant::now();
            let res = pooled.run_for(spec.slice_ns);
            wall_pooled.push(t.elapsed().as_nanos() as f64);
            checks.op(res.is_ok(), || format!("engine_threads(2) slice {}: {res:?}", slices.len()));
        }
    }

    // The outside view is only worth reading if the shadow simulated what
    // the system did. A later change to `System::step` that breaks this
    // makes the per-layer numbers stale, not the benchmark wrong, so it is
    // reported as a metric; engine_threads(2) differing from (1) is the
    // library breaking its own contract, so that is a failure.
    let want = counters(real.device(), real.controller(), real.gpu(), real.l2());
    let got = counters(&shadow.dev, &shadow.ctrl, &shadow.gpu, &shadow.l2);
    let mismatch: Vec<_> = want.iter().zip(&got).filter(|(a, b)| a != b).collect();
    if !mismatch.is_empty() {
        eprintln!("fgdram-benchmark: per-layer numbers are STALE, shadow != System: {mismatch:?}");
    }
    v.set("trace.counter_mismatch", mismatch.len() as f64);
    let threaded = counters(pooled.device(), pooled.controller(), pooled.gpu(), pooled.l2());
    checks
        .op(threaded == want, || "engine_threads(2) counters differ from engine_threads(1)".into());

    let n = slices.len() as f64;
    let sim_us = n * spec.slice_ns as f64 / 1e3;
    let sum = |f: fn(&LayerAgg) -> u64, l: Layer| -> f64 {
        slices.iter().map(|s| f(&s[l as usize])).sum::<u64>() as f64
    };
    let self_ns = |l| sum(|a| a.sum_ns, l);
    let work = |l| sum(|a| a.work, l);
    let shadow_total: f64 = wall_shadow.iter().sum();
    let real_total: f64 = wall_real.iter().sum();
    let attributed: f64 = Layer::ALL.iter().map(|&l| self_ns(l)).sum();
    let steps = (shadow.chain.steps() - warm_steps) as f64;
    let per_us = |x: f64| x / sim_us;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let dev = real.device().total_counters();
    let ctrl = real.controller().stats();
    let gpu = real.gpu().stats();
    let l2 = real.l2().stats();
    v.set("core.system.steps", steps);
    v.set("core.system.steps_per_sim_us", per_us(steps));
    v.set("core.system.host_ns_per_step", ratio(real_total, steps));
    v.set("core.system.glue_self_ns", per_us(self_ns(Layer::Glue)));
    v.set(
        "core.system.host_ns_per_dram_atom",
        ratio(real_total, (dev.read_atoms + dev.write_atoms) as f64),
    );
    v.set("core.system.build_ms", build_s * 1e3);
    let t = Instant::now();
    for _ in 0..64 {
        black_box(real.report(spec.slice_ns));
    }
    v.set("core.system.report_us", t.elapsed().as_secs_f64() * 1e6 / 64.0);
    v.set("core.system.allocs_per_slice", allocs as f64 / n);

    // The wheel spans' work is pops (phase 1) plus pushes (wake-ups, hits,
    // fills).
    let events = work(Layer::Wheel);
    let pushes = shadow.work.pushes as f64;
    v.set("model.wheel.pushes", per_us(pushes));
    v.set("model.wheel.pops", per_us(events - pushes));
    v.set("model.wheel.self_ns", per_us(self_ns(Layer::Wheel)));
    v.set("model.wheel.ns_per_event", ratio(self_ns(Layer::Wheel), events));

    v.set("gpu.sm.issue_calls", per_us(shadow.work.issue_calls as f64));
    v.set("gpu.sm.sectors", per_us(gpu.sectors as f64));
    v.set("gpu.sm.wakes", per_us(shadow.work.wakes as f64));
    v.set("gpu.sm.self_ns", per_us(self_ns(Layer::Sm)));
    v.set("gpu.sm.ns_per_sector", ratio(self_ns(Layer::Sm), gpu.sectors as f64));

    let accesses = shadow.work.l2_accesses as f64;
    v.set("gpu.l2.accesses", per_us(accesses));
    v.set("gpu.l2.self_ns", per_us(self_ns(Layer::L2)));
    v.set("gpu.l2.ns_per_access", ratio(self_ns(Layer::L2), accesses));
    v.set("gpu.l2.hit_rate", l2.hit_rate());
    v.set("gpu.l2.blocked", per_us(l2.blocked.get() as f64));

    let ticks = work(Layer::CtrlTick);
    v.set("ctrl.enqueues", per_us((ctrl.reads_accepted.get() + ctrl.writes_accepted.get()) as f64));
    v.set("ctrl.rejected", per_us(ctrl.rejected.get() as f64));
    v.set("ctrl.enqueue_self_ns", per_us(self_ns(Layer::CtrlEnqueue)));
    v.set("ctrl.ticks", per_us(ticks));
    v.set("ctrl.tick_ns", per_us(self_ns(Layer::CtrlTick)));
    v.set("ctrl.ns_per_tick", ratio(self_ns(Layer::CtrlTick), ticks));
    v.set("ctrl.cmds_per_tick", ratio(shadow.work.cmds as f64, ticks));
    v.set("ctrl.useful_tick_share", ratio(shadow.work.useful_ticks as f64, ticks));
    v.set("ctrl.row_hit_rate", ctrl.hit_rate());
    v.set("ctrl.pool.speedup_t2", ratio(stats::median(&wall_real), stats::median(&wall_pooled)));

    v.set("trace.overhead_ratio", ratio(stats::median(&wall_shadow), stats::median(&wall_real)));
    v.set("trace.unattributed_share", ratio(shadow_total - attributed, shadow_total));

    // The device alone, and the independent checker, over a traced prefix.
    let prefix = spec.traced_prefix(&w).map_err(err)?;
    let cmds = prefix.len() as f64;
    let (replay_ns, earliest_ns) = replay(spec.kind, &prefix, &mut checks);
    let prefix_us = PREFIX_NS as f64 / 1e3;
    v.set("dram.cmds", cmds / prefix_us);
    v.set("dram.replay_ns", replay_ns / prefix_us);
    v.set("dram.ns_per_cmd", ratio(replay_ns, cmds));
    v.set("dram.earliest_ns_per_call", earliest_ns);
    let t = Instant::now();
    let report = ProtocolChecker::new(DramConfig::new(spec.kind)).report_trace(&prefix);
    v.set("dram.checker.ns_per_cmd", ratio(t.elapsed().as_nanos() as f64, cmds));
    let violations = report.violations.len();
    v.set("dram.checker.violations", violations as f64);
    checks.op(violations == 0 && !prefix.is_empty(), || {
        format!("protocol checker: {violations} violations in {} commands", prefix.len())
    });

    let telemetry = TelemetryConfig::for_window(1_000, spec.slice_ns * 2);
    v.set(
        "telemetry.overhead_share",
        overhead_share(spec, &w, |b| b.telemetry(telemetry)).map_err(err)?,
    );
    // A mild spec: the fault engine is engaged on every read completion
    // but almost never fires.
    let mild = FaultSpec::parse("ce=0.0001").expect("a valid fault spec");
    v.set(
        "faults.overhead_share",
        overhead_share(spec, &w, |b| b.faults(mild.clone())).map_err(err)?,
    );
    probes::model_and_workload(&mut v, spec.kind, &w);

    let doc = Json::obj([
        ("workload", Json::str(spec.name)),
        ("slice_ns", Json::Num(spec.slice_ns as f64)),
        ("shadow_slice_wall_ns", Json::nums(&wall_shadow)),
        ("system_slice_wall_ns", Json::nums(&wall_real)),
        ("engine", trace::engine_json(&slices, &shadow.chain.raw)),
    ]);
    trace::write(spec.name, &doc);

    let digest = Digest::of(&prefix);
    let walls_ms: Vec<f64> = wall_real.iter().map(|ns| ns / 1e6).collect();
    Ok(Outcome { checks, values: v, digest, info: info(spec, &walls_ms, &[]) })
}
