//! Single-layer probes: small timed loops over one public function of a
//! layer the step loop or the daemon calls too briefly to span. Each is a
//! guard — the layer is not expected to matter end to end, and the probe
//! is what would show it if that changed.

use std::hint::black_box;
use std::io::BufReader;
use std::time::Instant;

use fgdram::core::report::SimReport;
use fgdram::core::suite::SuiteSpec;
use fgdram::energy::meter::{DataActivity, EnergyMeter, OpCounts};
use fgdram::model::addr::{AddressMapper, PhysAddr};
use fgdram::model::config::{DramConfig, DramKind, GpuConfig};
use fgdram::model::rng::SmallRng;
use fgdram::model::stream::WarpInstruction;
use fgdram::workloads::Workload;
use fgdram_serve::spool::{encode_report, Artifact, Spool};
use fgdram_serve::{http, spec};

use crate::metrics::Values;

/// Mean ns per iteration of `f` over `iters` iterations.
fn ns_per_iter(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `model.addr`, `workloads` and `energy` probes for one workload on one
/// architecture.
pub fn model_and_workload(v: &mut Values, kind: DramKind, w: &Workload) {
    let cfg = DramConfig::new(kind);

    let mapper = AddressMapper::new(&cfg).expect("Table 2 geometry is valid");
    let mut rng = SmallRng::seed_from_u64(w.seed);
    let span = mapper.capacity_bytes();
    let addrs: Vec<PhysAddr> =
        (0..4096).map(|_| PhysAddr(rng.random_range(0..span) & !31)).collect();
    v.set(
        "model.addr.decode_ns",
        ns_per_iter(1 << 20, |i| {
            black_box(mapper.decode(black_box(addrs[i & 4095])));
        }),
    );

    let gpu = GpuConfig::default();
    let t = Instant::now();
    let mut streams = w.streams(gpu.sms * gpu.warps_per_sm);
    v.set("workloads.stream_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut instr = WarpInstruction::default();
    let n = streams.len();
    v.set(
        "workloads.fill_ns_per_instr",
        ns_per_iter(1 << 18, |i| {
            instr.clear();
            streams[i % n].fill_next(&mut instr);
            black_box(&instr);
        }),
    );

    let meter = EnergyMeter::new(&cfg);
    let activity = DataActivity { toggle_rate: w.toggle_rate, ones_density: w.ones_density };
    v.set(
        "energy.meter_ns_per_report",
        ns_per_iter(1 << 18, |i| {
            let i = i as u64;
            let ops = OpCounts { activates: 1_000 + i, read_atoms: 9_000 + i, write_atoms: 3_000 };
            black_box(meter.energy(black_box(&ops), activity));
        }),
    );
}

/// `serve.http`, `serve.spec` and `serve.spool` probes. `reports` are the
/// reference cells of one job; the spool files go under `dir`.
pub fn serve_layers(
    v: &mut Values,
    spec_of_job: &SuiteSpec,
    reports: &[SimReport],
    dir: &std::path::Path,
) {
    let body = spec::render(spec_of_job);
    let wire = format!(
        "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:0\r\nConnection: close\r\nX-Tenant: t0\r\n\
         X-Job-Key: probe-0001\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    v.set(
        "serve.http.parse_ns_per_req",
        ns_per_iter(20_000, |_| {
            let mut r = BufReader::new(wire.as_bytes());
            black_box(http::read_request(&mut r).expect("a well-formed request"));
        }),
    );
    v.set(
        "serve.spec.parse_ns",
        ns_per_iter(50_000, |_| {
            black_box(spec::parse(black_box(&body)).expect("a canonical spec"));
        }),
    );
    v.set(
        "serve.spec.render_ns",
        ns_per_iter(50_000, |_| {
            black_box(spec::render(black_box(spec_of_job)));
        }),
    );
    v.set(
        "serve.spool.encode_ns_per_report",
        ns_per_iter(20_000, |i| {
            black_box(encode_report(black_box(&reports[i % reports.len()])));
        }),
    );

    // Append (write + flush per cell, as the workers do), then load back.
    const JOBS: usize = 32;
    let spool = Spool::open(dir, None).expect("the probe spool directory is writable");
    let artifacts: Vec<Artifact> =
        reports.iter().map(|r| Artifact { report: r.clone(), jsonl: None }).collect();
    let t = Instant::now();
    for j in 0..JOBS {
        let mut w = spool
            .create(&format!("j{}", j + 1), "t0", Some("probe"), spec_of_job)
            .expect("spool file is creatable");
        for (i, a) in artifacts.iter().enumerate() {
            w.append_cell(i, a).expect("spool append succeeds");
        }
        w.mark_done().expect("spool marker append succeeds");
    }
    let cells = (JOBS * artifacts.len()) as f64;
    v.set("serve.spool.append_us_per_cell", t.elapsed().as_secs_f64() * 1e6 / cells);
    let t = Instant::now();
    let loaded = spool.load_all();
    v.set("serve.spool.load_ms_per_job", t.elapsed().as_secs_f64() * 1e3 / JOBS as f64);
    assert_eq!(loaded.len(), JOBS, "every probe job loads back");
}
