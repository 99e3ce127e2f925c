//! The metric and workload tables: one definition that `run` reports
//! against, `compare` takes its bounds from, and a unit test holds equal
//! to `BENCHMARK.json`.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Measured seconds of one workload run (`run_seconds` of
/// `BENCHMARK.json`, the default of `--seconds`): long enough for ISSUE
/// 11's 12 blocks on each engine workload and 150 served jobs; `suite_mix`
/// fits five passes where the ISSUE asks for six. 114 driver runs of
/// 16-22 s each stay a third under the driver's 3420 s cap; 20 s runs
/// would leave an eighth.
pub const RUN_SECONDS: u32 = 15;

/// One end-to-end metric: what a user of the simulator or the daemon sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload of an untraced run.
/// An *operation* is a slice on the engine workloads, a cell on
/// `suite_mix` and a served job on `serve_jobs`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "sim_ns_per_s", unit: "sim_ns/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_latency_p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.1 },
];

/// The five workloads and why each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "stream_fg",
        "STREAM on FGDRAM: sequential, row-hit, highest sector and event rate, so gpu.sm, gpu.l2 \
         and model.wheel do most of the work and scheduling is easy",
    ),
    (
        "gups_fg",
        "GUPS on FGDRAM: uniform-random RMW keeps all 512 grains busy, so ctrl and dram dominate; \
         a controller or device optimisation must show here",
    ),
    (
        "gups_qb",
        "the same GUPS stream on QB-HBM: 64 channels with deep queues, the control that bypasses \
         any many-grain mechanism",
    ),
    (
        "suite_mix",
        "26 compute apps x {QB-HBM, FGDRAM} as 2000+8000 ns cells through run_cells with 2 jobs: \
         executor and cell path of regen-experiments and the daemon, on access patterns the engine \
         workloads lack",
    ),
    (
        "serve_jobs",
        "closed loop of 2 clients submitting small suite jobs (plain and telemetry-streaming) to an \
         in-process daemon: the only path through http, admission, DRR, spool and render",
    ),
];

/// One per-layer metric of the traced run. The full name is
/// `<layer>.<metric>`; the layer is the module it measures.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (for counts of work done, the direction a speed-up that
    /// does less work would move them).
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// The per-layer metrics, reported by every workload of a traced run. A
/// layer a workload does not exercise reports 0. Work counts and self
/// times of the step loop are per simulated microsecond (`1/sim_us`,
/// `ns/sim_us`), so they do not depend on how many slices a run fitted in.
pub const PER_LAYER: [PerLayer; 66] = [
    // core.system: the step loop that glues the layers together.
    pl("core.system.steps", "count", L),
    pl("core.system.steps_per_sim_us", "1/sim_us", L),
    pl("core.system.host_ns_per_step", "ns", L),
    pl("core.system.glue_self_ns", "ns/sim_us", L),
    pl("core.system.host_ns_per_dram_atom", "ns", L),
    pl("core.system.build_ms", "ms", L),
    pl("core.system.report_us", "us", L),
    pl("core.system.allocs_per_slice", "count", L),
    // model.wheel: the system's event wheel.
    pl("model.wheel.pushes", "1/sim_us", L),
    pl("model.wheel.pops", "1/sim_us", L),
    pl("model.wheel.self_ns", "ns/sim_us", L),
    pl("model.wheel.ns_per_event", "ns", L),
    pl("model.addr.decode_ns", "ns", L),
    pl("workloads.stream_build_ms", "ms", L),
    pl("workloads.fill_ns_per_instr", "ns", L),
    // gpu.sm: warp issue and wake-up.
    pl("gpu.sm.issue_calls", "1/sim_us", L),
    pl("gpu.sm.sectors", "1/sim_us", L),
    pl("gpu.sm.wakes", "1/sim_us", L),
    pl("gpu.sm.self_ns", "ns/sim_us", L),
    pl("gpu.sm.ns_per_sector", "ns", L),
    // gpu.l2
    pl("gpu.l2.accesses", "1/sim_us", L),
    pl("gpu.l2.self_ns", "ns/sim_us", L),
    pl("gpu.l2.ns_per_access", "ns", L),
    pl("gpu.l2.hit_rate", "ratio", H),
    pl("gpu.l2.blocked", "1/sim_us", L),
    // ctrl: enqueue front end and the tick (which includes the device).
    pl("ctrl.enqueues", "1/sim_us", L),
    pl("ctrl.rejected", "1/sim_us", L),
    pl("ctrl.enqueue_self_ns", "ns/sim_us", L),
    pl("ctrl.ticks", "1/sim_us", L),
    pl("ctrl.tick_ns", "ns/sim_us", L),
    pl("ctrl.ns_per_tick", "ns", L),
    pl("ctrl.cmds_per_tick", "count", H),
    pl("ctrl.useful_tick_share", "ratio", H),
    pl("ctrl.row_hit_rate", "ratio", H),
    pl("ctrl.pool.speedup_t2", "ratio", H),
    // dram: the device alone, from a replayed command trace.
    pl("dram.cmds", "1/sim_us", L),
    pl("dram.replay_ns", "ns/sim_us", L),
    pl("dram.ns_per_cmd", "ns", L),
    pl("dram.earliest_ns_per_call", "ns", L),
    pl("dram.checker.ns_per_cmd", "ns", L),
    pl("dram.checker.violations", "count", L),
    pl("energy.meter_ns_per_report", "ns", L),
    pl("telemetry.overhead_share", "ratio", L),
    pl("telemetry.export_mb_per_s", "MB/s", H),
    pl("faults.overhead_share", "ratio", L),
    // core.experiments / core.suite: the matrix executor and the shared
    // suite runner.
    pl("core.experiments.parallel_efficiency", "ratio", H),
    pl("core.experiments.cell_ms_p50", "ms", L),
    pl("core.experiments.cell_ms_max", "ms", L),
    pl("core.suite.run_cell_ms_p50", "ms", L),
    pl("core.suite.render_us_per_report", "us", L),
    // serve.*
    pl("serve.http.parse_ns_per_req", "ns", L),
    pl("serve.http.healthz_rtt_us_p50", "us", L),
    pl("serve.spec.parse_ns", "ns", L),
    pl("serve.spec.render_ns", "ns", L),
    pl("serve.spool.append_us_per_cell", "us", L),
    pl("serve.spool.encode_ns_per_report", "ns", L),
    pl("serve.spool.load_ms_per_job", "ms", L),
    pl("serve.server.submit_ms_p50", "ms", L),
    pl("serve.server.wait_ms_p50", "ms", L),
    pl("serve.server.overhead_ratio", "ratio", L),
    pl("serve.server.rejected", "count", L),
    // paper: quick-scale error against the paper's published figures
    // (deterministic per seed; not a validation).
    pl("paper.err_energy_pp", "pp", L),
    pl("paper.err_speedup_pp", "pp", L),
    // trace: how far the traced view can be trusted.
    pl("trace.overhead_ratio", "ratio", L),
    pl("trace.unattributed_share", "ratio", L),
    pl("trace.counter_mismatch", "count", L),
];

/// A measured value with its unit, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The measurement, unrounded.
    pub value: f64,
}

/// The measured values of one run: every end-to-end metric of an untraced
/// run, every per-layer metric of a traced one (unset ones as 0).
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name` (must be in one of the tables; checked on output).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every end-to-end metric in table order.
    ///
    /// # Panics
    ///
    /// Panics when one is missing: every workload must report them all.
    pub fn end_to_end(&self) -> Vec<Value> {
        END_TO_END
            .iter()
            .map(|m| Value {
                name: m.name,
                unit: m.unit,
                value: self.get(m.name).unwrap_or_else(|| panic!("{} was not measured", m.name)),
            })
            .collect()
    }

    /// Every per-layer metric in table order, 0 where not exercised.
    pub fn per_layer(&self) -> Vec<Value> {
        debug_assert!(
            self.0.iter().all(|(n, _)| PER_LAYER.iter().any(|m| m.name == *n)),
            "a per-layer value was set under a name the table does not have"
        );
        PER_LAYER
            .iter()
            .map(|m| Value { name: m.name, unit: m.unit, value: self.get(m.name).unwrap_or(0.0) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports and bounds against. They must not drift apart.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let path = crate::provenance::bench_dir().join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let list = |k: &str| match doc.get(k) {
            Some(Json::Arr(a)) => a.clone(),
            _ => panic!("{k} is not an array"),
        };
        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let s = |s: &str| Some(s.to_string());
                (s(m.name), s(m.unit), s(m.better.label()), Some(m.bound))
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let s = |s: &str| Some(s.to_string());
                (s(m.name), s(m.unit), s(m.better.label()))
            })
            .collect();
        assert_eq!(layers, want);
        let names: Vec<_> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let want: Vec<_> = WORKLOADS.iter().map(|(n, _)| Some(n.to_string())).collect();
        assert_eq!(names, want);
    }
}
