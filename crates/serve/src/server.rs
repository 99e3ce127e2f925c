//! The job server: bounded admission, deficit-round-robin fair-share
//! scheduling across tenants, a cell-granular worker pool, and the HTTP
//! front end.
//!
//! ## Scheduling
//!
//! Jobs decompose into independent cells (the same workload-major cell
//! table [`fgdram_core::suite`] defines). Each tenant owns a FIFO of
//! queued cells; workers pick the next cell by deficit round robin —
//! every visit to a tenant adds a fixed quantum of simulated-ns to its
//! deficit counter, and a cell is claimed once the deficit covers its
//! cost (warmup + window). A tenant submitting many expensive cells
//! therefore gets the same simulated-ns throughput as one submitting
//! many cheap ones, rather than the same cell count.
//!
//! ## Admission
//!
//! `POST /jobs` is rejected *before* any work is queued when the job's
//! cost exceeds the per-job budget (`budget`, HTTP 422), the tenant is
//! at its in-flight job cap (`quota`, 429), or the bounded global cell
//! queue cannot take the job's cells (`queue-full`, 429) — so the queue
//! cannot grow without bound no matter how many tenants flood it.
//!
//! ## Determinism
//!
//! Workers complete cells in arbitrary order; results land in the job's
//! input-order artifact table, and the final report is rendered by
//! [`fgdram_core::suite::render_report`] — the same code path as the
//! CLI, so the served report is byte-identical to `fgdram_sim suite`
//! with the same parameters at any worker count.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use fgdram_core::suite::SuiteSpec;
use fgdram_core::SimError;
use fgdram_model::config::DramKind;
use fgdram_model::json;
use fgdram_workloads::Workload;

use crate::chaos::{Chaos, ChaosSpec, ChaosStream, WirePlan};
use crate::error::WireError;
use crate::http::{read_request, write_error, write_response, ChunkedWriter, Request};
use crate::spec;
use crate::spool::{render_final, Artifact, CkptWriter, JobState, LoadedJob, Spool};

/// Daemon configuration (all limits have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Bound on cells queued across all tenants (backpressure limit).
    pub max_queued_cells: usize,
    /// Per-tenant cap on jobs in flight (queued or running).
    pub tenant_max_inflight: usize,
    /// Per-job budget in cells x simulated-ns.
    pub max_job_cost: u64,
    /// Deficit-round-robin quantum in simulated-ns per scheduler visit.
    pub quantum: u64,
    /// Directory for job checkpoint files.
    pub spool_dir: PathBuf,
    /// Per-connection read deadline: a peer that dribbles its request
    /// slower than this gets a typed 408 (slow-loris defense).
    pub read_timeout: Duration,
    /// Per-connection write deadline: a peer that stops draining its
    /// response tears the connection down instead of pinning a thread.
    pub write_timeout: Duration,
    /// Overload shed threshold in queued simulated-ns: submits that
    /// would push the backlog past this get a typed 429 `overloaded`
    /// with a `Retry-After` hint instead of ever-growing queue wait.
    pub shed_cost: u64,
    /// Seeded fault injection (`--chaos`); a no-op spec disables the
    /// chaos layer entirely.
    pub chaos: ChaosSpec,
    /// Seed for the chaos dice streams (`--chaos-seed`).
    pub chaos_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_queued_cells: 4096,
            tenant_max_inflight: 4,
            max_job_cost: 2_000_000_000,
            quantum: 200_000,
            spool_dir: PathBuf::from("fgdram-spool"),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            shed_cost: 20_000_000_000,
            chaos: ChaosSpec::default(),
            chaos_seed: 0,
        }
    }
}

struct Job {
    tenant: String,
    spec: SuiteSpec,
    workloads: Vec<Workload>,
    artifacts: Vec<Option<Artifact>>,
    completed: usize,
    state: JobState,
    writer: Option<CkptWriter>,
}

impl Job {
    fn total(&self) -> usize {
        self.artifacts.len()
    }
}

#[derive(Default)]
struct TenantQ {
    queue: VecDeque<(String, usize)>,
    deficit: u64,
    inflight_jobs: usize,
}

/// Monotonic counters exposed on `GET /stats`.
#[derive(Debug, Default, Clone)]
struct Counters {
    submitted: u64,
    done: u64,
    failed: u64,
    canceled: u64,
    /// Submits answered with an existing job via the idempotency key.
    deduped: u64,
    executed_cells: u64,
    resumed_cells: u64,
    rejected_queue: u64,
    rejected_quota: u64,
    rejected_budget: u64,
    rejected_overload: u64,
    /// Connections torn down by the read deadline (slow-loris style).
    timeouts: u64,
    /// Requests rejected as unparseable (typed 400, not a panic).
    malformed: u64,
    /// Spool records discarded on load (truncated or corrupt).
    skipped_records: u64,
    /// Spool records deduplicated on load (last valid won).
    duplicate_records: u64,
}

#[derive(Default)]
struct Inner {
    jobs: BTreeMap<String, Job>,
    tenants: BTreeMap<String, TenantQ>,
    /// Rotation order of tenants with non-empty queues.
    rr: VecDeque<String>,
    queued_cells: usize,
    /// Simulated-ns cost of all queued cells (the shed metric).
    queued_cost: u64,
    /// Idempotency keys: `(tenant, key)` -> job id, for exactly-once
    /// submits across client retries (and daemon restarts, via the
    /// spool).
    keys: BTreeMap<(String, String), String>,
    /// The highest job number issued or restored (`j<N>`).
    last_id: u64,
    shutdown: bool,
    stats: Counters,
}

impl Inner {
    /// Admits a job restored from the spool, or a new submit (a job
    /// with no cell done yet): counts it, registers its idempotency key,
    /// and unless it is already terminal queues its missing cells and
    /// takes a tenant slot. Cells it brings count as resumed and are
    /// not recomputed.
    fn admit(&mut self, job: LoadedJob, writer: Option<CkptWriter>) {
        let LoadedJob { id, tenant, key, spec, cells, state, skipped_records, duplicate_records } =
            job;
        if let Some(n) = id.strip_prefix('j').and_then(|s| s.parse::<u64>().ok()) {
            self.last_id = self.last_id.max(n);
        }
        let completed = cells.iter().filter(|c| c.is_some()).count();
        self.stats.submitted += 1;
        self.stats.resumed_cells += completed as u64;
        self.stats.skipped_records += skipped_records;
        self.stats.duplicate_records += duplicate_records;
        if let Some(k) = key {
            self.keys.insert((tenant.clone(), k), id.clone());
        }
        let missing: Vec<usize> =
            cells.iter().enumerate().filter_map(|(i, a)| a.is_none().then_some(i)).collect();
        let resume = !state.terminal();
        let job = Job {
            tenant: tenant.clone(),
            workloads: spec.workloads(),
            spec,
            artifacts: cells,
            completed,
            state,
            writer,
        };
        // Insert before enqueueing: the queue accounting reads the job's
        // cell cost from the map.
        self.jobs.insert(id.clone(), job);
        if resume {
            self.enqueue_cells(&tenant, &id, missing.into_iter());
            self.tenants.entry(tenant).or_default().inflight_jobs += 1;
        }
    }

    fn enqueue_cells(&mut self, tenant: &str, job_id: &str, cells: impl Iterator<Item = usize>) {
        let cell_cost = self.jobs.get(job_id).map_or(0, |j| j.spec.cell_cost().max(1));
        let t = self.tenants.entry(tenant.to_string()).or_default();
        let before = t.queue.len();
        t.queue.extend(cells.map(|i| (job_id.to_string(), i)));
        let added = t.queue.len() - before;
        self.queued_cells += added;
        self.queued_cost += added as u64 * cell_cost;
        if before == 0 && !t.queue.is_empty() && !self.rr.iter().any(|n| n == tenant) {
            self.rr.push_back(tenant.to_string());
        }
    }

    /// Removes every queued cell of `job_id` (cancel / fail path).
    fn drop_queued_cells(&mut self, tenant: &str, job_id: &str) {
        let cell_cost = self.jobs.get(job_id).map_or(0, |j| j.spec.cell_cost().max(1));
        if let Some(t) = self.tenants.get_mut(tenant) {
            let before = t.queue.len();
            t.queue.retain(|(j, _)| j != job_id);
            let removed = before - t.queue.len();
            self.queued_cells -= removed;
            self.queued_cost = self.queued_cost.saturating_sub(removed as u64 * cell_cost);
            if t.queue.is_empty() {
                t.deficit = 0;
                self.rr.retain(|n| n != tenant);
            }
        }
    }

    /// Deficit-round-robin claim of the next cell, or `None` when no
    /// cell is queued. Terminates because each full rotation adds a
    /// quantum to every queued tenant's deficit.
    fn claim(&mut self, quantum: u64) -> Option<(String, usize)> {
        let quantum = quantum.max(1);
        loop {
            let name = self.rr.front()?.clone();
            let t = self.tenants.get_mut(&name).expect("rr tenants exist");
            let (job_id, _) = t.queue.front().expect("rr tenants have queued cells");
            let cost = self.jobs[job_id].spec.cell_cost().max(1);
            if t.deficit >= cost {
                t.deficit -= cost;
                let (job_id, index) = t.queue.pop_front().expect("checked front");
                self.queued_cells -= 1;
                self.queued_cost = self.queued_cost.saturating_sub(cost);
                if t.queue.is_empty() {
                    t.deficit = 0;
                    self.rr.pop_front();
                }
                return Some((job_id, index));
            }
            t.deficit += quantum;
            self.rr.rotate_left(1);
        }
    }
}

struct Shared {
    m: Mutex<Inner>,
    cv: Condvar,
    cfg: ServeConfig,
    spool: Spool,
    /// The live chaos engine, `None` when `--chaos` is absent or no-op —
    /// the faithful path pays nothing for the layer's existence.
    chaos: Option<Arc<Chaos>>,
}

/// The job server. Bind it, then run [`Server::serve`] on a thread (or
/// the main thread) and stop it with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    stopping: AtomicBool,
}

const WAIT_TICK: Duration = Duration::from_millis(100);

impl Server {
    /// Binds the listener, loads the spool (resuming unfinished jobs),
    /// and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and spool I/O failures.
    pub fn bind(cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let chaos =
            (!cfg.chaos.is_noop()).then(|| Arc::new(Chaos::new(cfg.chaos.clone(), cfg.chaos_seed)));
        let spool = Spool::open(&cfg.spool_dir, chaos.clone())?;
        let mut inner = Inner::default();
        for job in spool.load_all() {
            // An unfinished job re-opens its spool file and re-enqueues
            // its missing cells.
            let writer = if job.state.terminal() {
                None
            } else {
                let done = job.cells.iter().filter(|c| c.is_some()).count();
                eprintln!(
                    "fgdram-serve: resumed {} for tenant '{}': {done}/{} cells \
                     checkpointed, re-queueing {}",
                    job.id,
                    job.tenant,
                    job.cells.len(),
                    job.cells.len() - done
                );
                Some(spool.reopen(&job.id)?)
            };
            inner.admit(job, writer);
        }
        let shared =
            Arc::new(Shared { m: Mutex::new(inner), cv: Condvar::new(), cfg, spool, chaos });
        let n = if shared.cfg.workers == 0 {
            thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            shared.cfg.workers
        };
        let workers = (0..n)
            .map(|_| {
                let s = Arc::clone(&shared);
                thread::spawn(move || worker_main(&s))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            workers: Mutex::new(workers),
            stopping: AtomicBool::new(false),
        })
    }

    /// The bound socket address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until [`Server::shutdown`] is called. Each
    /// connection is served on its own thread (one request per
    /// connection).
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn serve(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || handle_conn(&shared, stream));
        }
        Ok(())
    }

    /// Stops the worker pool and wakes the accept loop. Cells already
    /// running finish and are checkpointed; everything else stays in the
    /// spool for the next start.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        {
            let mut g = self.shared.m.lock().expect("state lock");
            g.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Ok(addr) = self.local_addr() {
            // Wake the blocking accept so `serve` observes the flag.
            let _ = TcpStream::connect(addr);
        }
        let handles: Vec<_> = self.workers.lock().expect("workers lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: &Shared) {
    loop {
        let (job_id, index, spec, workload, kind) = {
            let mut g = shared.m.lock().expect("state lock");
            loop {
                if g.shutdown {
                    return;
                }
                if let Some((job_id, index)) = g.claim(shared.cfg.quantum) {
                    let job = g.jobs.get_mut(&job_id).expect("queued cells have jobs");
                    job.state = JobState::Running;
                    let (w, kind) = {
                        let (w, kind) = job.spec.cell(&job.workloads, index);
                        (w.clone(), kind)
                    };
                    break (job_id, index, job.spec.clone(), w, kind);
                }
                g = shared.cv.wait_timeout(g, WAIT_TICK).expect("state lock").0;
            }
        };
        // The expensive part runs outside the lock.
        let result = run_one(&spec, &workload, kind);
        let mut g = shared.m.lock().expect("state lock");
        deliver(&mut g, &job_id, index, result);
        drop(g);
        shared.cv.notify_all();
    }
}

fn run_one(spec: &SuiteSpec, w: &Workload, kind: DramKind) -> Result<Artifact, SimError> {
    let cell = spec.run_cell(w, kind)?;
    let jsonl = cell.telemetry.as_ref().map(|t| SuiteSpec::telemetry_jsonl(w, kind, t));
    Ok(Artifact { report: cell.report, jsonl })
}

fn deliver(g: &mut Inner, job_id: &str, index: usize, result: Result<Artifact, SimError>) {
    g.stats.executed_cells += 1;
    let Some(job) = g.jobs.get_mut(job_id) else { return };
    if job.state.terminal() {
        // Cancelled or failed while this cell ran: drop the result.
        return;
    }
    match result {
        Ok(artifact) => {
            if let Some(w) = &mut job.writer {
                if let Err(e) = w.append_cell(index, &artifact) {
                    eprintln!("fgdram-serve: checkpoint append failed for {job_id}: {e}");
                }
            }
            job.artifacts[index] = Some(artifact);
            job.completed += 1;
            if job.completed < job.total() {
                return;
            }
            let report = render_final(&job.spec, &job.workloads, &job.artifacts);
            job.state = JobState::Done(report.expect("all cells done"));
            if let Some(w) = &mut job.writer {
                if let Err(e) = w.mark_done() {
                    eprintln!("fgdram-serve: checkpoint done marker failed for {job_id}: {e}");
                }
            }
            g.stats.done += 1;
        }
        Err(e) => {
            let err = WireError::from(e);
            if let Some(w) = &mut job.writer {
                let _ = w.mark_failed(&err);
            }
            job.state = JobState::Failed(err);
            g.stats.failed += 1;
        }
    }
    // The job just reached a terminal state: its tenant gets the slot
    // back, and a failed job's remaining cells must not run.
    let failed = matches!(job.state, JobState::Failed(_));
    let tenant = job.tenant.clone();
    if failed {
        g.drop_queued_cells(&tenant, job_id);
    }
    release_tenant_slot(g, &tenant);
}

fn release_tenant_slot(g: &mut Inner, tenant: &str) {
    if let Some(t) = g.tenants.get_mut(tenant) {
        t.inflight_jobs = t.inflight_jobs.saturating_sub(1);
    }
}

/// What a successful `POST /jobs` resolved to.
struct Submitted {
    id: String,
    cells: usize,
    cost: u64,
    /// True when the idempotency key matched an existing job: nothing
    /// was queued, the client is re-attached to the original run.
    deduped: bool,
}

fn submit(
    shared: &Shared,
    tenant: &str,
    key: Option<&str>,
    body: &[u8],
) -> Result<Submitted, WireError> {
    let body =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("job spec is not UTF-8"))?;
    let spec = spec::parse(body)?;
    let cells = spec.cell_count();
    if cells == 0 {
        return Err(WireError::bad_request("spec selects zero workloads"));
    }
    let cost = spec.cost();
    let mut g = shared.m.lock().expect("state lock");
    // Idempotency first, even during shutdown or overload: a retried
    // submit whose first response was lost must re-attach to the job
    // that already ran, never double-run it and never bounce.
    if let Some(k) = key {
        if let Some(id) = g.keys.get(&(tenant.to_string(), k.to_string())).cloned() {
            g.stats.deduped += 1;
            let (cells, cost) =
                g.jobs.get(&id).map_or((cells, cost), |j| (j.total(), j.spec.cost()));
            return Ok(Submitted { id, cells, cost, deduped: true });
        }
    }
    if g.shutdown {
        return Err(WireError::shutting_down());
    }
    let cfg = &shared.cfg;
    if cost > cfg.max_job_cost {
        g.stats.rejected_budget += 1;
        return Err(WireError::budget(cost, cfg.max_job_cost));
    }
    let inflight = g.tenants.get(tenant).map_or(0, |t| t.inflight_jobs);
    if inflight >= cfg.tenant_max_inflight {
        g.stats.rejected_quota += 1;
        return Err(WireError::quota(tenant, inflight, cfg.tenant_max_inflight));
    }
    if g.queued_cells + cells > cfg.max_queued_cells {
        g.stats.rejected_queue += 1;
        return Err(WireError::queue_full(cells, g.queued_cells, cfg.max_queued_cells));
    }
    // Overload shedding: queue-wait is backlog cost over drain rate, so
    // once the backlog's simulated-ns cost exceeds the shed budget,
    // admitting more only grows latency for everyone. Typed 429 with a
    // Retry-After hint scaled to how far over budget the backlog is.
    if g.queued_cost.saturating_add(cost) > cfg.shed_cost {
        g.stats.rejected_overload += 1;
        let retry_after_s = (1 + g.queued_cost / cfg.shed_cost.max(1)).min(30);
        return Err(WireError::overloaded(g.queued_cost, cfg.shed_cost, retry_after_s));
    }
    let id = format!("j{}", g.last_id + 1);
    let writer = shared
        .spool
        .create(&id, tenant, key, &spec)
        .map_err(|e| SimError::Io { context: format!("spool {id}"), source: e })?;
    let job = LoadedJob {
        id: id.clone(),
        tenant: tenant.to_string(),
        key: key.map(str::to_string),
        spec,
        cells: (0..cells).map(|_| None).collect(),
        state: JobState::Queued,
        skipped_records: 0,
        duplicate_records: 0,
    };
    g.admit(job, Some(writer));
    drop(g);
    shared.cv.notify_all();
    Ok(Submitted { id, cells, cost, deduped: false })
}

fn cancel(shared: &Shared, job_id: &str) -> Result<String, WireError> {
    let mut g = shared.m.lock().expect("state lock");
    let tenant = {
        let Some(job) = g.jobs.get_mut(job_id) else {
            return Err(WireError::not_found(format_args!("job {job_id}")));
        };
        if job.state.terminal() {
            let state = job.state.label();
            return Err(WireError::bad_request(format_args!("job {job_id} already {state}")));
        }
        job.state = JobState::Canceled;
        if let Some(w) = &mut job.writer {
            let _ = w.mark_canceled();
        }
        job.tenant.clone()
    };
    g.stats.canceled += 1;
    g.drop_queued_cells(&tenant, job_id);
    release_tenant_slot(&mut g, &tenant);
    drop(g);
    shared.cv.notify_all();
    Ok(json::body(|o| {
        o.str("job", job_id).str("state", "canceled");
    }))
}

fn status_json(g: &Inner, job_id: &str) -> Result<String, WireError> {
    let Some(job) = g.jobs.get(job_id) else {
        return Err(WireError::not_found(format_args!("job {job_id}")));
    };
    Ok(json::body(|o| {
        o.str("job", job_id)
            .str("tenant", &job.tenant)
            .str("state", job.state.label())
            .u64("cells", job.total() as u64)
            .u64("completed", job.completed as u64)
            .u64("cost", job.spec.cost());
    }))
}

fn stats_json(shared: &Shared, g: &Inner) -> String {
    let s = &g.stats;
    json::body(|o| {
        o.object("jobs", |o| {
            o.u64("submitted", s.submitted)
                .u64("done", s.done)
                .u64("failed", s.failed)
                .u64("canceled", s.canceled)
                .u64("deduped", s.deduped);
        });
        o.object("cells", |o| {
            o.u64("executed", s.executed_cells)
                .u64("resumed", s.resumed_cells)
                .u64("queued", g.queued_cells as u64)
                .u64("queued_cost", g.queued_cost)
                .u64("skipped_records", s.skipped_records)
                .u64("duplicate_records", s.duplicate_records);
        });
        o.object("rejects", |o| {
            o.u64("queue", s.rejected_queue)
                .u64("quota", s.rejected_quota)
                .u64("budget", s.rejected_budget)
                .u64("overload", s.rejected_overload);
        });
        o.object("wire", |o| {
            o.u64("timeouts", s.timeouts).u64("malformed", s.malformed);
        });
        o.object("tenants", |o| {
            for (name, t) in &g.tenants {
                o.object(name, |o| {
                    o.u64("queued_cells", t.queue.len() as u64)
                        .u64("inflight_jobs", t.inflight_jobs as u64)
                        .u64("deficit", t.deficit);
                });
            }
        });
        if let Some(chaos) = &shared.chaos {
            o.object("chaos", |o| chaos.render_stats(o));
        }
    })
}

/// Long-polls the job to a terminal state: its report text, or the
/// error the report request is answered with.
fn wait_report(shared: &Shared, job_id: &str) -> Result<String, WireError> {
    let mut g = shared.m.lock().expect("state lock");
    loop {
        let Some(job) = g.jobs.get(job_id) else {
            return Err(WireError::not_found(format_args!("job {job_id}")));
        };
        match &job.state {
            JobState::Done(report) => return Ok(report.clone()),
            JobState::Failed(e) => return Err(e.clone()),
            JobState::Canceled => return Err(WireError::canceled()),
            JobState::Queued | JobState::Running => {
                if g.shutdown {
                    return Err(WireError::shutting_down());
                }
            }
        }
        g = shared.cv.wait_timeout(g, WAIT_TICK).expect("state lock").0;
    }
}

/// Streams the job's telemetry JSONL in input-cell order as cells
/// complete. Ends early (after the cells that did complete) when the job
/// reaches a terminal state with gaps.
fn stream_telemetry<W: Write>(shared: &Shared, job_id: &str, w: &mut W) -> io::Result<()> {
    let total = {
        let g = shared.m.lock().expect("state lock");
        match g.jobs.get(job_id) {
            Some(job) => job.total(),
            None => {
                return write_error(w, &WireError::not_found(format_args!("job {job_id}")));
            }
        }
    };
    let mut cw = ChunkedWriter::start(w, 200, "application/jsonl")?;
    for index in 0..total {
        let piece: Option<Option<String>> = {
            let mut g = shared.m.lock().expect("state lock");
            loop {
                let Some(job) = g.jobs.get(job_id) else { break None };
                if let Some(a) = &job.artifacts[index] {
                    break Some(a.jsonl.clone());
                }
                if job.state.terminal() || g.shutdown {
                    break None;
                }
                g = shared.cv.wait_timeout(g, WAIT_TICK).expect("state lock").0;
            }
        };
        match piece {
            Some(Some(jsonl)) => cw.chunk(jsonl.as_bytes())?,
            Some(None) => {} // cell done, telemetry disabled
            None => break,   // job died with this cell missing
        }
    }
    cw.finish()
}

/// Serves one request on an accepted connection, through the chaos
/// layer's plan for it (a `WirePlan::None` stream passes bytes straight
/// through), garbling the request body first under a garble plan.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let plan = shared.chaos.as_ref().map_or(WirePlan::None, |c| c.wire_plan());
    if plan == WirePlan::Reset {
        // Dropped before reading: the peer sees a reset/EOF.
        return;
    }
    let mut reader = BufReader::new(ChaosStream::new(&stream, &plan));
    let mut writer = ChaosStream::new(&stream, &plan);
    let mut req = match read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let mut g = shared.m.lock().expect("state lock");
            if e.code == "timeout" {
                g.stats.timeouts += 1;
            } else {
                g.stats.malformed += 1;
            }
            drop(g);
            let _ = write_error(&mut writer, &e);
            return;
        }
    };
    plan.garble(&mut req.body);
    let _ = route(shared, &req, &mut writer);
}

fn tenant_of(req: &Request) -> Result<String, WireError> {
    let t = req.header("x-tenant").unwrap_or("anon");
    spec::check_tenant(t)?;
    Ok(t.to_string())
}

/// Validates the optional `X-Job-Key` idempotency header.
fn job_key_of(req: &Request) -> Result<Option<String>, WireError> {
    let Some(k) = req.header("x-job-key") else { return Ok(None) };
    spec::check_job_key(k)?;
    Ok(Some(k.to_string()))
}

const JSON: &str = "application/json";

fn route<W: Write>(shared: &Shared, req: &Request, w: &mut W) -> io::Result<()> {
    let not_found = || WireError::not_found(format_args!("{} {}", req.method, req.path));
    // A reply is its status, content type and body.
    let reply = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok((200, "text/plain", "ok\n".to_string())),
        ("GET", "/stats") => {
            Ok((200, JSON, stats_json(shared, &shared.m.lock().expect("state lock"))))
        }
        ("POST", "/jobs") => tenant_of(req)
            .and_then(|t| submit(shared, &t, job_key_of(req)?.as_deref(), &req.body))
            .map(|Submitted { id, cells, cost, deduped }| {
                let body = json::body(|o| {
                    o.str("job", &id).u64("cells", cells as u64).u64("cost", cost);
                    if deduped {
                        o.bool("deduped", true);
                    }
                });
                // 200 (not 201) for a dedup hit: nothing was created, the
                // client re-attached to the existing job.
                (if deduped { 200 } else { 201 }, JSON, body)
            }),
        (method, path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, action) = match rest.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (rest, None),
            };
            match (method, action) {
                ("GET", None) => {
                    status_json(&shared.m.lock().expect("state lock"), id).map(|b| (200, JSON, b))
                }
                ("GET", Some("report")) => wait_report(shared, id).map(|t| (200, "text/plain", t)),
                ("GET", Some("telemetry")) => return stream_telemetry(shared, id, w),
                ("DELETE", None) => cancel(shared, id).map(|b| (200, JSON, b)),
                _ => Err(not_found()),
            }
        }
        _ => Err(not_found()),
    };
    match reply {
        Ok((status, content_type, body)) => {
            write_response(w, status, content_type, None, body.as_bytes())
        }
        Err(e) => write_error(w, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use crate::http;
    use fgdram_core::report::SimReport;
    use fgdram_core::suite::render_report;
    use std::io::Read;

    fn test_cfg(workers: usize, tag: &str) -> (ServeConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!("fgdram_serve_t_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig { workers, spool_dir: dir.clone(), ..ServeConfig::default() };
        (cfg, dir)
    }

    fn start(cfg: ServeConfig) -> (Arc<Server>, String, thread::JoinHandle<io::Result<()>>) {
        let server = Arc::new(Server::bind(cfg, "127.0.0.1:0").expect("bind"));
        let addr = server.local_addr().expect("addr").to_string();
        let s2 = Arc::clone(&server);
        let h = thread::spawn(move || s2.serve());
        (server, addr, h)
    }

    fn small_spec(workloads: usize, window: u64) -> String {
        format!("suite=compute\nwarmup=200\nwindow={window}\nmax_workloads={workloads}\n")
    }

    #[test]
    fn submit_run_report_round_trip() {
        let (cfg, dir) = test_cfg(2, "roundtrip");
        let (server, addr, h) = start(cfg);
        let resp =
            http::request(&addr, "POST", "/jobs", &[], small_spec(2, 1500).as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
        let body = String::from_utf8(resp.into_body().unwrap()).unwrap();
        assert!(body.contains("\"job\":\"j1\""), "{body}");
        assert!(body.contains("\"cells\":4"), "{body}");
        let report = http::request(&addr, "GET", "/jobs/j1/report", &[], b"").unwrap();
        assert_eq!(report.status, 200);
        let text = String::from_utf8(report.into_body().unwrap()).unwrap();
        assert!(text.contains("compute suite: gmean speedup"), "{text}");
        // Byte-identity against the shared renderer, computed directly.
        let spec = spec::parse(&small_spec(2, 1500)).unwrap();
        let ws = spec.workloads();
        let reports: Vec<SimReport> = (0..4)
            .map(|i| {
                let (w, k) = spec.cell(&ws, i);
                spec.run_cell(w, k).unwrap().report
            })
            .collect();
        assert_eq!(text, render_report(spec.which, &ws, &reports));
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn admission_rejects_are_typed() {
        let (mut cfg, dir) = test_cfg(1, "admission");
        cfg.max_job_cost = 2_000_000;
        cfg.max_queued_cells = 3; // any 2-workload job (4 cells) can never fit
        cfg.tenant_max_inflight = 1;
        let (server, addr, h) = start(cfg);
        // Budget: 2 workloads x 2 kinds x (200 + 50M) >> 2M.
        let r = http::request(&addr, "POST", "/jobs", &[], small_spec(2, 50_000_000).as_bytes())
            .unwrap();
        assert_eq!(r.status, 422);
        assert!(String::from_utf8(r.into_body().unwrap()).unwrap().contains("\"code\":\"budget\""));
        // Admit one job (2 cells x 100_200 ns fits both bounds), then
        // hit the tenant quota while it is still in flight.
        let r =
            http::request(&addr, "POST", "/jobs", &[], small_spec(1, 100_000).as_bytes()).unwrap();
        assert_eq!(r.status, 201);
        let r =
            http::request(&addr, "POST", "/jobs", &[], small_spec(1, 100_000).as_bytes()).unwrap();
        assert_eq!(r.status, 429);
        assert!(String::from_utf8(r.into_body().unwrap()).unwrap().contains("\"code\":\"quota\""));
        // A second tenant floods: 4 cells exceed the 3-cell global bound
        // no matter how far the queue has drained.
        let r = http::request(
            &addr,
            "POST",
            "/jobs",
            &[("X-Tenant", "flooder")],
            small_spec(2, 100_000).as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 429);
        assert!(String::from_utf8(r.into_body().unwrap())
            .unwrap()
            .contains("\"code\":\"queue-full\""));
        let stats = http::request(&addr, "GET", "/stats", &[], b"").unwrap();
        let stats = String::from_utf8(stats.into_body().unwrap()).unwrap();
        assert!(stats.contains("\"budget\":1"), "{stats}");
        assert!(stats.contains("\"quota\":1"), "{stats}");
        assert!(stats.contains("\"queue\":1"), "{stats}");
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drr_lets_a_small_tenant_through_a_big_backlog() {
        let (mut cfg, dir) = test_cfg(1, "drr"); // single worker: strict ordering
        cfg.quantum = 2_000;
        let (server, addr, h) = start(cfg);
        // Tenant A queues a long job, then tenant B a short one.
        let ra = http::request(
            &addr,
            "POST",
            "/jobs",
            &[("X-Tenant", "big")],
            small_spec(6, 1500).as_bytes(),
        )
        .unwrap();
        assert_eq!(ra.status, 201);
        let rb = http::request(
            &addr,
            "POST",
            "/jobs",
            &[("X-Tenant", "small")],
            small_spec(1, 1500).as_bytes(),
        )
        .unwrap();
        assert_eq!(rb.status, 201);
        // B's report must arrive even though A has 12 cells queued ahead
        // of B's 2 — DRR interleaves the tenants.
        let report = http::request(&addr, "GET", "/jobs/j2/report", &[], b"").unwrap();
        assert_eq!(report.status, 200);
        let sa = http::request(&addr, "GET", "/jobs/j1", &[], b"").unwrap();
        let sa = String::from_utf8(sa.into_body().unwrap()).unwrap();
        // Not asserting A unfinished (timing-dependent); just validity.
        assert!(sa.contains("\"job\":\"j1\""), "{sa}");
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cancel_and_restart_resume_from_spool() {
        let (cfg, dir) = test_cfg(1, "resume");
        let spool_dir = cfg.spool_dir.clone();
        let (server, addr, h) = start(cfg.clone());
        let r = http::request(&addr, "POST", "/jobs", &[], small_spec(3, 1200).as_bytes()).unwrap();
        assert_eq!(r.status, 201);
        // Wait until at least one cell is checkpointed, then stop the
        // daemon (graceful stop == kill between cells for the spool).
        loop {
            let g = server.shared.m.lock().unwrap();
            if g.stats.executed_cells >= 1 {
                break;
            }
            drop(g);
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
        h.join().unwrap().unwrap();
        let executed_before = {
            let g = server.shared.m.lock().unwrap();
            g.stats.executed_cells
        };
        drop(server);
        // Restart on the same spool: finished cells restore, the rest run.
        let (server2, addr2, h2) = start(cfg);
        let report = http::request(&addr2, "GET", "/jobs/j1/report", &[], b"").unwrap();
        assert_eq!(report.status, 200);
        let text = String::from_utf8(report.into_body().unwrap()).unwrap();
        assert!(text.contains("compute suite: gmean speedup"), "{text}");
        let (resumed, executed_after) = {
            let g = server2.shared.m.lock().unwrap();
            (g.stats.resumed_cells, g.stats.executed_cells)
        };
        assert!(resumed >= 1, "restored checkpointed cells");
        assert_eq!(resumed + executed_after, 6, "no finished cell recomputed");
        assert!(executed_after <= 6 - executed_before.min(6));
        server2.shutdown();
        h2.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(spool_dir);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_job_reports_the_same_error_live_and_after_a_restart() {
        let (cfg, dir) = test_cfg(1, "failed");
        let (server, addr, h) = start(cfg.clone());
        let r =
            http::request(&addr, "POST", "/jobs", &[], small_spec(1, 20_000).as_bytes()).unwrap();
        assert_eq!(r.status, 201);
        // No spec field makes a healthy cell fail, so hand the scheduler
        // the failure a worker would have delivered for cell 1.
        let stall = SimError::Stall { at: 9, pending: 2, idle_ns: 7, bound: 5 };
        deliver(&mut server.shared.m.lock().unwrap(), "j1", 1, Err(stall));
        let fetch = |addr: &str| {
            let r = http::request(addr, "GET", "/jobs/j1/report", &[], b"").unwrap();
            (r.status, String::from_utf8(r.into_body().unwrap()).unwrap())
        };
        let live = fetch(&addr);
        assert_eq!(
            live,
            (
                500,
                "{\"error\":{\"code\":\"stall\",\"exit_code\":5,\"message\":\"no forward \
                 progress for 7 ns at t=9 ns (2 items outstanding; watchdog bound 5 ns)\"}}\n"
                    .to_string()
            )
        );
        let status = http::request(&addr, "GET", "/jobs/j1", &[], b"").unwrap();
        let status = String::from_utf8(status.into_body().unwrap()).unwrap();
        assert!(status.contains("\"state\":\"failed\""), "{status}");
        {
            let g = server.shared.m.lock().unwrap();
            assert_eq!((g.stats.failed, g.queued_cells), (1, 0), "queued cells dropped");
            assert_eq!(g.tenants["anon"].inflight_jobs, 0, "tenant slot released");
        }
        server.shutdown();
        h.join().unwrap().unwrap();
        drop(server);
        // The spooled `failed` marker replays to the same response bytes.
        let (server2, addr2, h2) = start(cfg);
        assert_eq!(fetch(&addr2), live);
        server2.shutdown();
        h2.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overload_sheds_with_a_retry_after_hint() {
        let (mut cfg, dir) = test_cfg(1, "shed");
        cfg.shed_cost = 1_000; // any real job's backlog cost exceeds this
        let (server, addr, h) = start(cfg);
        let r =
            http::request(&addr, "POST", "/jobs", &[], small_spec(1, 100_000).as_bytes()).unwrap();
        assert_eq!(r.status, 429);
        assert!(r.headers.iter().any(|(k, _)| k == "retry-after"), "{:?}", r.headers);
        let body = String::from_utf8(r.into_body().unwrap()).unwrap();
        assert!(body.contains("\"code\":\"overloaded\""), "{body}");
        let stats = http::request(&addr, "GET", "/stats", &[], b"").unwrap();
        let stats = String::from_utf8(stats.into_body().unwrap()).unwrap();
        assert!(stats.contains("\"overload\":1"), "{stats}");
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn idempotency_key_dedupes_across_retries_and_restarts() {
        let (cfg, dir) = test_cfg(2, "idem");
        let spool_dir = cfg.spool_dir.clone();
        let (server, addr, h) = start(cfg.clone());
        let key = [("X-Job-Key", "release-42")];
        let r =
            http::request(&addr, "POST", "/jobs", &key, small_spec(1, 1500).as_bytes()).unwrap();
        assert_eq!(r.status, 201, "first submit creates");
        assert!(String::from_utf8(r.into_body().unwrap()).unwrap().contains("\"job\":\"j1\""));
        // The retried submit (same tenant, same key) re-attaches.
        let r =
            http::request(&addr, "POST", "/jobs", &key, small_spec(1, 1500).as_bytes()).unwrap();
        assert_eq!(r.status, 200, "dedup hit is 200, not 201");
        let body = String::from_utf8(r.into_body().unwrap()).unwrap();
        assert!(body.contains("\"job\":\"j1\"") && body.contains("\"deduped\":true"), "{body}");
        // A different tenant with the same key is a different job.
        let r = http::request(
            &addr,
            "POST",
            "/jobs",
            &[("X-Job-Key", "release-42"), ("X-Tenant", "other")],
            small_spec(1, 1500).as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 201);
        let stats = http::request(&addr, "GET", "/stats", &[], b"").unwrap();
        let stats = String::from_utf8(stats.into_body().unwrap()).unwrap();
        assert!(stats.contains("\"deduped\":1"), "{stats}");
        let report = http::request(&addr, "GET", "/jobs/j1/report", &[], b"").unwrap();
        assert_eq!(report.status, 200);
        server.shutdown();
        h.join().unwrap().unwrap();
        drop(server);
        // The key survives the restart via the spool header: the same
        // retried submit still lands on j1, even though j1 is finished.
        let (server2, addr2, h2) = start(cfg);
        let r =
            http::request(&addr2, "POST", "/jobs", &key, small_spec(1, 1500).as_bytes()).unwrap();
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.into_body().unwrap()).unwrap();
        assert!(body.contains("\"job\":\"j1\"") && body.contains("\"deduped\":true"), "{body}");
        server2.shutdown();
        h2.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(spool_dir);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reset_chaos_drops_connections_before_reading() {
        let (mut cfg, dir) = test_cfg(1, "reset");
        cfg.chaos = ChaosSpec::parse("reset=1").unwrap();
        cfg.chaos_seed = 7;
        let (server, addr, h) = start(cfg);
        // Every connection is dropped without a response; the client
        // sees a dead socket, not a hang and not a daemon crash.
        for _ in 0..3 {
            assert!(http::request(&addr, "GET", "/healthz", &[], b"").is_err());
        }
        let chaos = server.shared.chaos.as_ref().expect("chaos engaged");
        assert!(chaos.injected[Fault::Reset as usize].load(Ordering::Relaxed) >= 3);
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn slow_loris_is_cut_off_with_a_typed_408() {
        let (mut cfg, dir) = test_cfg(1, "loris");
        cfg.read_timeout = Duration::from_millis(150);
        let (server, addr, h) = start(cfg);
        // Send half a request line and then stall forever.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"GET /stats HT").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        let timeouts = server.shared.m.lock().unwrap().stats.timeouts;
        assert_eq!(timeouts, 1);
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn telemetry_streams_in_cell_order() {
        let (cfg, dir) = test_cfg(2, "telemetry");
        let (server, addr, h) = start(cfg);
        let body = "suite=compute\nwarmup=200\nwindow=1500\nmax_workloads=1\n\
                    telemetry=1\nepoch=500\n";
        let r = http::request(&addr, "POST", "/jobs", &[], body.as_bytes()).unwrap();
        assert_eq!(r.status, 201);
        let resp = http::request(&addr, "GET", "/jobs/j1/telemetry", &[], b"").unwrap();
        assert_eq!(resp.status, 200);
        let jsonl = String::from_utf8(resp.into_body().unwrap()).unwrap();
        let archs: Vec<&str> = jsonl
            .lines()
            .map(|l| if l.contains("\"arch\":\"FGDRAM\"") { "fg" } else { "qb" })
            .collect();
        assert!(!archs.is_empty());
        // QB-HBM cell (index 0) streams entirely before FGDRAM (index 1).
        let first_fg = archs.iter().position(|a| *a == "fg").expect("fgdram lines");
        assert!(archs[..first_fg].iter().all(|a| *a == "qb"), "{archs:?}");
        assert!(archs[first_fg..].iter().all(|a| *a == "fg"), "{archs:?}");
        server.shutdown();
        h.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every JSON body the routes render, pinned byte for byte with its
    /// status line. The worker pool is stopped first, so job and counter
    /// state is fixed when each body is rendered.
    #[test]
    fn json_bodies_are_pinned_byte_for_byte() {
        let (mut cfg, dir) = test_cfg(1, "pinned");
        cfg.chaos = ChaosSpec::parse("torn=0.5").unwrap();
        let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
        server.shutdown();
        server.shared.m.lock().unwrap().shutdown = false;
        let exchange = |method: &str, path: &str, headers: &[(&str, &str)], body: &str| {
            let req = Request {
                method: method.to_string(),
                path: path.to_string(),
                headers: headers.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
                body: body.as_bytes().to_vec(),
            };
            let mut out = Vec::new();
            route(&server.shared, &req, &mut out).unwrap();
            let out = String::from_utf8(out).unwrap();
            let (head, body) = out.split_once("\r\n\r\n").expect("a response head");
            (head.lines().next().unwrap().to_string(), body.to_string())
        };
        let pin = |got: (String, String), status: &str, body: &str| {
            assert_eq!((got.0.as_str(), got.1.as_str()), (status, body));
        };
        let submit = [("x-tenant", "t-1"), ("x-job-key", "k \"1\"")];
        let spec = small_spec(2, 1500);
        pin(
            exchange("POST", "/jobs", &submit, &spec),
            "HTTP/1.1 201 Created",
            "{\"job\":\"j1\",\"cells\":4,\"cost\":6800}\n",
        );
        pin(
            exchange("POST", "/jobs", &submit, &spec),
            "HTTP/1.1 200 OK",
            "{\"job\":\"j1\",\"cells\":4,\"cost\":6800,\"deduped\":true}\n",
        );
        pin(
            exchange("GET", "/jobs/j1", &[], ""),
            "HTTP/1.1 200 OK",
            "{\"job\":\"j1\",\"tenant\":\"t-1\",\"state\":\"queued\",\"cells\":4,\
             \"completed\":0,\"cost\":6800}\n",
        );
        pin(
            exchange("POST", "/jobs", &[], &small_spec(2, 5_000_000_000)),
            "HTTP/1.1 422 Unprocessable Entity",
            "{\"error\":{\"code\":\"budget\",\"exit_code\":8,\"message\":\"job cost \
             20000000800 cells x simulated-ns exceeds the per-job budget 2000000000\"}}\n",
        );
        {
            // Distinct counter values, so a swapped field shows.
            let mut g = server.shared.m.lock().unwrap();
            let s = &mut g.stats;
            for (i, c) in [
                &mut s.submitted,
                &mut s.done,
                &mut s.failed,
                &mut s.canceled,
                &mut s.deduped,
                &mut s.executed_cells,
                &mut s.resumed_cells,
                &mut s.skipped_records,
                &mut s.duplicate_records,
                &mut s.rejected_queue,
                &mut s.rejected_quota,
                &mut s.rejected_budget,
                &mut s.rejected_overload,
                &mut s.timeouts,
                &mut s.malformed,
            ]
            .into_iter()
            .enumerate()
            {
                *c = 10 + i as u64;
            }
            let chaos = server.shared.chaos.as_ref().expect("chaos engaged");
            for (i, c) in chaos.injected.iter().enumerate() {
                c.store(30 + i as u64, Ordering::Relaxed);
            }
        }
        pin(
            exchange("GET", "/stats", &[], ""),
            "HTTP/1.1 200 OK",
            "{\"jobs\":{\"submitted\":10,\"done\":11,\"failed\":12,\"canceled\":13,\
             \"deduped\":14},\"cells\":{\"executed\":15,\"resumed\":16,\"queued\":4,\
             \"queued_cost\":6800,\"skipped_records\":17,\"duplicate_records\":18},\
             \"rejects\":{\"queue\":19,\"quota\":20,\"budget\":21,\"overload\":22},\
             \"wire\":{\"timeouts\":23,\"malformed\":24},\"tenants\":{\"t-1\":\
             {\"queued_cells\":4,\"inflight_jobs\":1,\"deficit\":0}},\"chaos\":{\"wire\":\
             {\"torn\":30,\"reset\":31,\"dribble\":32,\"disconnect\":33,\"garble\":34},\
             \"disk\":{\"corrupt\":35,\"short\":36,\"enospc\":37}}}\n",
        );
        pin(
            exchange("DELETE", "/jobs/j1", &[], ""),
            "HTTP/1.1 200 OK",
            "{\"job\":\"j1\",\"state\":\"canceled\"}\n",
        );
        pin(
            exchange("DELETE", "/jobs/j1", &[], ""),
            "HTTP/1.1 400 Bad Request",
            "{\"error\":{\"code\":\"bad-request\",\"exit_code\":2,\
             \"message\":\"bad request: job j1 already canceled\"}}\n",
        );
        pin(
            exchange("GET", "/jobs/j1/report", &[], ""),
            "HTTP/1.1 409 Conflict",
            "{\"error\":{\"code\":\"canceled\",\"exit_code\":10,\
             \"message\":\"job cancelled\"}}\n",
        );
        pin(
            exchange("GET", "/jobs/j\"9\\", &[], ""),
            "HTTP/1.1 404 Not Found",
            "{\"error\":{\"code\":\"not-found\",\"exit_code\":2,\
             \"message\":\"not found: job j\\\"9\\\\\"}}\n",
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
