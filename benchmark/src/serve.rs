//! `serve_jobs`: an in-process `fgdram-serve` daemon under a closed loop
//! of two clients, each waiting for its report before its next submit —
//! how `fgdram-client` behaves. The only workload through `serve::http`,
//! admission, the DRR queue, the spool and the renderer.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fgdram::core::experiments::{run_cells, Parallelism, Scale};
use fgdram::core::suite::{render_report, SuiteKind, SuiteSpec, SUITE_KINDS};
use fgdram::core::SimReport;
use fgdram_serve::spool::{Artifact, Spool};
use fgdram_serve::{http, spec, ServeConfig, Server};

use crate::json::Json;
use crate::metrics::Values;
use crate::outcome::{self, Checks, Digest, Outcome, RunArgs};
use crate::trace::{self, SpanTree};
use crate::{probes, provenance, seed, stats};

/// Concurrent clients (tenants `t0`, `t1`), each a closed loop.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;

/// Consecutive jobs (by submit time) whose p90 latency is taken before the
/// median over such chunks: two decks of each client, so every chunk holds
/// the same job mix.
const P90_CHUNK: usize = 2 * CLIENTS * DECK;
/// Jobs a client deals before it reshuffles: each of the three types twice.
const DECK: usize = 6;

/// One kind of job the clients submit, with the bytes a correct daemon
/// must answer — computed directly from the library, never from a server.
struct JobType {
    label: &'static str,
    spec: SuiteSpec,
    body: String,
    reports: Vec<SimReport>,
    report: String,
    telemetry: Option<String>,
}

/// A = compute, B = graphics, C = A with streamed telemetry: the same path
/// used three ways, so a gain for one job type that costs another shows.
fn job_types(cell_ms: &mut Vec<f64>) -> Result<Vec<JobType>, String> {
    let table = [
        ("A", SuiteKind::Compute, 2, None),
        ("B", SuiteKind::Graphics, 1, None),
        ("C", SuiteKind::Compute, 2, Some(500)),
    ];
    table
        .into_iter()
        .map(|(label, which, workloads, telemetry_epoch)| {
            let spec = SuiteSpec {
                which,
                warmup: 500,
                window: 1_500,
                max_workloads: Some(workloads),
                telemetry_epoch,
            };
            let ws = spec.workloads();
            let mut reports = Vec::new();
            let mut jsonl = String::new();
            for i in 0..spec.cell_count() {
                let (w, k) = spec.cell(&ws, i);
                let t = Instant::now();
                let cell =
                    spec.run_cell(w, k).map_err(|e| format!("reference cell failed: {e}"))?;
                cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(t) = &cell.telemetry {
                    jsonl.push_str(&SuiteSpec::telemetry_jsonl(w, k, t));
                }
                reports.push(cell.report);
            }
            Ok(JobType {
                label,
                body: spec::render(&spec),
                report: render_report(spec.which, &ws, &reports),
                telemetry: spec.telemetry_epoch.map(|_| jsonl),
                reports,
                spec,
            })
        })
        .collect()
}

/// A running in-process daemon.
struct Daemon {
    server: Arc<Server>,
    addr: String,
    accept: JoinHandle<io::Result<()>>,
    spool: PathBuf,
}

impl Daemon {
    /// Binds over `spool` (loading what it holds), starts the accept loop,
    /// and waits for the first `/healthz` 200. Returns the daemon and how
    /// long that took: `setup_s`.
    fn start(spool: PathBuf) -> io::Result<(Daemon, f64)> {
        let t = Instant::now();
        let cfg =
            ServeConfig { workers: WORKERS, spool_dir: spool.clone(), ..ServeConfig::default() };
        let server = Arc::new(Server::bind(cfg, "127.0.0.1:0")?);
        let addr = server.local_addr()?.to_string();
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve())
        };
        let daemon = Daemon { server, addr, accept, spool };
        let status = http::request(&daemon.addr, "GET", "/healthz", &[], b"")?.status;
        let setup = t.elapsed().as_secs_f64();
        if status != 200 {
            daemon.stop();
            return Err(io::Error::other(format!("/healthz answered {status}")));
        }
        Ok((daemon, setup))
    }

    /// Stops the workers and the accept loop, waits for both, and removes
    /// the spool.
    fn stop(self) {
        self.server.shutdown();
        let _ = self.accept.join();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// One job through the daemon: submit, (drain telemetry,) long-poll the
/// report, verify. `Err` is the reason the job counts as failed.
fn one_job(
    addr: &str,
    client: usize,
    key: &str,
    ty: &JobType,
    epoch: Instant,
) -> Result<SpanTree, String> {
    let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let io = |what: &str, e: io::Error| format!("{what}: {e}");
    let tenant = format!("t{client}");
    let t0 = Instant::now();
    let resp = http::request(
        addr,
        "POST",
        "/jobs",
        &[("X-Tenant", &tenant), ("X-Job-Key", key)],
        ty.body.as_bytes(),
    )
    .map_err(|e| io("submit", e))?;
    let status = resp.status;
    let body = resp.into_body().map_err(|e| io("submit body", e))?;
    let t1 = Instant::now();
    if status != 201 {
        return Err(format!("submit answered {status}: {}", String::from_utf8_lossy(&body)));
    }
    let id = std::str::from_utf8(&body)
        .ok()
        .and_then(|b| Json::parse(b).ok())
        .and_then(|j| j.get("job").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| format!("submit body has no job id: {}", String::from_utf8_lossy(&body)))?;
    let mut children = vec![("submit", (at(t0), at(t1)))];

    let mut streamed = None;
    if ty.telemetry.is_some() {
        let bytes = http::request(addr, "GET", &format!("/jobs/{id}/telemetry"), &[], b"")
            .and_then(http::Response::into_body)
            .map_err(|e| io("telemetry stream", e))?;
        children.push(("telemetry", (at(t1), at(Instant::now()))));
        streamed = Some(bytes);
    }

    let t2 = Instant::now();
    let resp = http::request(addr, "GET", &format!("/jobs/{id}/report"), &[], b"")
        .map_err(|e| io("report wait", e))?;
    let t3 = Instant::now();
    let status = resp.status;
    let report = resp.into_body().map_err(|e| io("report body", e))?;
    let t4 = Instant::now();
    children.push(("wait", (at(t2), at(t3))));
    children.push(("fetch", (at(t3), at(t4))));

    if status != 200 {
        return Err(format!("job {id}: report answered {status}"));
    }
    if report != ty.report.as_bytes() {
        return Err(format!(
            "job {id} (type {}): served report differs from render_report",
            ty.label
        ));
    }
    if streamed.as_deref() != ty.telemetry.as_ref().map(|t| t.as_bytes()) {
        return Err(format!("job {id}: streamed telemetry differs from the direct cells'"));
    }
    let end = at(Instant::now());
    children.push(("verify", (at(t4), end)));
    Ok(SpanTree { id, kind: ty.label, client, root: (at(t0), end), children })
}

/// What the closed loop produced.
struct Load {
    jobs: Vec<SpanTree>,
    wall_s: f64,
}

/// Runs the closed loop for `seconds`: no client submits after that, and
/// the phase ends when the last report has been read.
fn closed_loop(
    addr: &str,
    types: &[JobType],
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Load {
    let epoch = Instant::now();
    let per_client: Vec<(Vec<SpanTree>, Checks)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut rng = seed::rng(seed, client as u64);
                    let (mut done, mut checks) = (Vec::new(), Checks::default());
                    // The seed decides the order, never the mix: types are
                    // dealt from a shuffled deck holding each twice, so any
                    // two runs serve the same share of each job type.
                    let mut deck: Vec<usize> = Vec::new();
                    for n in 0.. {
                        if epoch.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        if deck.is_empty() {
                            deck = (0..DECK).map(|i| i % types.len()).collect();
                            for i in (1..deck.len()).rev() {
                                deck.swap(i, rng.random_index(i + 1));
                            }
                        }
                        let ty = &types[deck.pop().expect("the deck was just refilled")];
                        let key = format!("s{seed}-c{client}-{n}");
                        match one_job(addr, client, &key, ty, epoch) {
                            Ok(tree) => {
                                checks.op(true, String::new);
                                done.push(tree);
                            }
                            Err(why) => checks.op(false, || why),
                        }
                    }
                    (done, checks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (done, c) in per_client {
        jobs.extend(done);
        checks.attempted += c.attempted;
        checks.failed += c.failed;
        checks.notes.extend(c.notes);
    }
    jobs.sort_by_key(|j| j.root.0);
    Load { jobs, wall_s }
}

fn spool_dir(tag: &str) -> PathBuf {
    provenance::bench_dir().join("out").join(format!("spool-{}-{tag}", std::process::id()))
}

/// Finished jobs a daemon finds in its spool at start-up.
const SPOOLED_JOBS: usize = 256;

/// A fresh spool directory holding [`SPOOLED_JOBS`] finished jobs of type
/// `ty`: what a restarted daemon loads before it answers. A bind over an
/// empty directory takes a quarter of a millisecond — all thread start-up
/// noise — so set-up is timed as the restart users actually wait for.
fn prefilled_spool(tag: &str, ty: &JobType) -> io::Result<PathBuf> {
    let dir = spool_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let spool = Spool::open(&dir, None)?;
    for j in 1..=SPOOLED_JOBS {
        let mut w = spool.create(&format!("j{j}"), "t0", None, &ty.spec)?;
        for (i, report) in ty.reports.iter().enumerate() {
            w.append_cell(i, &Artifact { report: report.clone(), jsonl: None })?;
        }
        w.mark_done()?;
    }
    Ok(dir)
}

fn info(latencies_ms: &[f64]) -> Json {
    let types =
        "A compute/2 workloads, B graphics/1, C = A + streamed telemetry; 500+1500 ns cells";
    let sizes = vec![
        ("loop", Json::str("closed")),
        ("clients", Json::Num(CLIENTS as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("job_types", Json::str(types)),
    ];
    outcome::info("job", sizes, latencies_ms)
}

fn sim_ns(types: &[JobType], jobs: &[SpanTree]) -> f64 {
    jobs.iter()
        .filter_map(|j| types.iter().find(|t| t.label == j.kind))
        .map(|t| t.spec.cost() as f64)
        .sum()
}

/// `(jobs done, submits rejected)` from the daemon's `/stats`.
fn daemon_stats(addr: &str) -> Option<(f64, f64)> {
    let body = http::request(addr, "GET", "/stats", &[], b"").and_then(http::Response::into_body);
    let stats = Json::parse(&String::from_utf8_lossy(&body.ok()?)).ok()?;
    let rejected = stats.get("rejects")?.members().iter().filter_map(|(_, v)| v.as_f64()).sum();
    Some((stats.path("jobs/done")?.as_f64()?, rejected))
}

/// The run, traced or not: the clients keep the same spans either way (a
/// job is tens of milliseconds; eight clock reads do not show), so the
/// traced run differs only in what it derives and writes afterwards.
///
/// # Errors
///
/// A message when the daemon cannot be started or a reference cell fails.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut v = Values::default();
    let mut cell_ms = Vec::new();
    let types = job_types(&mut cell_ms)?;
    let start = |tag: &str| {
        prefilled_spool(tag, &types[0])
            .and_then(Daemon::start)
            .map_err(|e| format!("daemon failed to start: {e}"))
    };

    // A start is milliseconds, so it is repeated more often than the
    // heavier set-ups; the last daemon stays up for the load.
    let mut setup_s = Vec::new();
    for i in 1..args.setups * 3 {
        let (daemon, s) = start(&i.to_string())?;
        setup_s.push(s);
        daemon.stop();
    }
    let (daemon, s) = start("load")?;
    setup_s.push(s);

    if args.trace {
        let rtt: Vec<f64> = (0..200)
            .filter_map(|_| {
                let t = Instant::now();
                let ok = http::request(&daemon.addr, "GET", "/healthz", &[], b"")
                    .and_then(http::Response::into_body);
                ok.ok().map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        v.set("serve.http.healthz_rtt_us_p50", stats::median(&rtt));
    }

    // Traced, half the time goes to the load and half to running the same
    // job list bare, for the daemon's overhead over the library.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let before = daemon_stats(&daemon.addr);
    let load = closed_loop(&daemon.addr, &types, args.seed, seconds, &mut checks);
    let after = daemon_stats(&daemon.addr);
    daemon.stop();
    // The daemon's own count of finished jobs must be the clients'.
    let served = before.zip(after).map(|(b, a)| a.0 - b.0);
    checks.op(served == Some(load.jobs.len() as f64), || {
        format!("/stats counts {served:?} jobs done, the clients read {} reports", load.jobs.len())
    });
    let rejected = after.map_or(0.0, |a| a.1);

    let ms = |ns: u64| ns as f64 / 1e6;
    let latencies: Vec<f64> = load.jobs.iter().map(|j| ms(j.latency_ns())).collect();
    let mut digest = Digest::new();
    for t in &types {
        digest.bytes(t.report.as_bytes());
        digest.bytes(t.telemetry.as_deref().unwrap_or("").as_bytes());
    }

    if !args.trace {
        v.set("sim_ns_per_s", sim_ns(&types, &load.jobs) / load.wall_s);
        v.set("op_latency_p50_ms", stats::median(&latencies));
        v.set("op_latency_p90_ms", stats::typical_percentile(&latencies, P90_CHUNK, 90));
        v.set("setup_s", stats::median(&setup_s));
        return Ok(Outcome { checks, values: v, digest, info: info(&latencies) });
    }

    let child =
        |name: &str| -> Vec<f64> { load.jobs.iter().map(|j| ms(j.child_ns(name))).collect() };
    v.set("serve.server.submit_ms_p50", stats::median(&child("submit")));
    v.set("serve.server.wait_ms_p50", stats::median(&child("wait")));
    v.set("serve.server.rejected", rejected);
    let root_ns: u64 = load.jobs.iter().map(|j| j.root.1 - j.root.0).sum();
    let self_ns: u64 = load.jobs.iter().map(SpanTree::root_self_ns).sum();
    v.set("trace.unattributed_share", self_ns as f64 / (root_ns as f64).max(1.0));
    v.set("trace.overhead_ratio", 1.0);

    // The same jobs, in the order they were submitted, straight through
    // the library's executor with as many threads as the daemon had.
    let t = Instant::now();
    for job in &load.jobs {
        let ty = types.iter().find(|t| t.label == job.kind).expect("jobs carry a known type");
        let scale = Scale {
            warmup: ty.spec.warmup,
            window: ty.spec.window,
            max_workloads: None,
            parallelism: Parallelism::jobs(WORKERS),
        };
        let cells =
            run_cells(&ty.spec.workloads(), &SUITE_KINDS, scale, |w, k| ty.spec.run_cell(w, k));
        checks.op(cells.is_ok(), || format!("bare run of a type {} job failed", ty.label));
    }
    let bare_s = t.elapsed().as_secs_f64();
    if bare_s > 0.0 && !load.jobs.is_empty() {
        v.set("serve.server.overhead_ratio", load.wall_s / bare_s);
    }

    v.set("core.suite.run_cell_ms_p50", stats::median(&cell_ms));
    let a = &types[0];
    let ws = a.spec.workloads();
    let t = Instant::now();
    for _ in 0..256 {
        std::hint::black_box(render_report(a.spec.which, &ws, &a.reports));
    }
    v.set(
        "core.suite.render_us_per_report",
        t.elapsed().as_secs_f64() * 1e6 / 256.0 / a.reports.len() as f64,
    );
    export_rate(&mut v, &types[2].spec)?;
    let probe_dir = spool_dir("probe");
    probes::serve_layers(&mut v, &a.spec, &a.reports, &probe_dir);
    let _ = std::fs::remove_dir_all(&probe_dir);

    trace::write("serve_jobs", &trace::serve_json(&load.jobs));
    Ok(Outcome { checks, values: v, digest, info: info(&latencies) })
}

/// `telemetry.export_mb_per_s`: JSONL rendering of a telemetry job's cells.
fn export_rate(v: &mut Values, spec: &SuiteSpec) -> Result<(), String> {
    let ws = spec.workloads();
    let (w, k) = spec.cell(&ws, 1);
    let cell = spec.run_cell(w, k).map_err(|e| format!("telemetry cell failed: {e}"))?;
    let series = cell.telemetry.ok_or("a telemetry spec produced no series")?;
    let t = Instant::now();
    let mut bytes = 0;
    for _ in 0..64 {
        bytes += std::hint::black_box(SuiteSpec::telemetry_jsonl(w, k, &series)).len();
    }
    v.set("telemetry.export_mb_per_s", bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    Ok(())
}
