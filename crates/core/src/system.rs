//! Full-system composition: GPU front end, sectored L2, memory controller,
//! and DRAM stack, advanced by one event-stepped loop.

use std::collections::VecDeque;

use fgdram_ctrl::Controller;
use fgdram_dram::DramDevice;
use fgdram_energy::floorplan::{EnergyProfile, IoTechnology};
use fgdram_energy::meter::{DataActivity, EnergyMeter, OpCounts};
use fgdram_faults::{DueOutcome, EccOutcome, FaultEngine, FaultSpec, DEFAULT_WATCHDOG_NS};
use fgdram_gpu::l2::MAX_MSHRS;
use fgdram_gpu::{Gpu, L2Access, L2Cache, SectorAccess};
use fgdram_model::addr::{MemRequest, PhysAddr, ReqId};
use fgdram_model::cmd::TimedCommand;
use fgdram_model::config::{ConfigError, CtrlConfig, DramConfig, DramKind, GpuConfig};
use fgdram_model::units::{GbPerSec, Ns};
use fgdram_telemetry::{Recorder, Sampled, Telemetry, TelemetryConfig};
use fgdram_workloads::Workload;

use crate::report::{FaultSummary, SimReport};
use crate::telemetry::EnergySampler;
use fgdram_model::wheel::EventWheel;

pub use crate::error::SimError;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Read data for this fill request reaches the L2.
    Fill(ReqId),
    /// A load sector reaches its warp.
    Wake(u64),
    /// A corrected-error retry re-reads this request from DRAM. (Kept the
    /// last variant: `Ord` drives tie-breaking of same-time events, and a
    /// run without faults must order exactly as before this variant
    /// existed.)
    Retry(u64),
}

/// MSHR entries of the L2, hence also the bound on in-flight fills.
const L2_MSHRS: usize = 16_384;

// Request ids. Every request takes the next value of one sequence, and
// its `ReqId` is `seq << ENTRY_BITS | slot`: a read's slot is the L2 MSHR
// entry its fill completes, a write's is `WRITE_SLOT`, which no entry can
// be (`L2Cache::new` refuses more than `MAX_MSHRS` entries). Entries are
// recycled, but the sequence sits above them, so ids still rise in
// allocation order and same-time `Event::Fill`s keep their miss order.
const ENTRY_BITS: u32 = 17;
const WRITE_SLOT: u64 = MAX_MSHRS as u64;
const _: () = assert!(L2_MSHRS <= MAX_MSHRS && WRITE_SLOT < 1 << ENTRY_BITS);

/// The MSHR entry a read's id carries; `None` for a write.
fn read_entry(id: ReqId) -> Option<usize> {
    let slot = id.0 & ((1 << ENTRY_BITS) - 1);
    (slot != WRITE_SLOT).then_some(slot as usize)
}

/// Builder for a [`System`].
///
/// # Examples
///
/// ```
/// use fgdram_core::SystemBuilder;
/// use fgdram_model::config::DramKind;
/// use fgdram_workloads::suites;
///
/// let report = SystemBuilder::new(DramKind::Fgdram)
///     .workload(suites::by_name("STREAM").expect("in suite"))
///     .run(2_000, 5_000)?;
/// assert!(report.bandwidth.value() > 0.0);
/// # Ok::<(), fgdram_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    dram: DramConfig,
    ctrl: CtrlConfig,
    gpu: GpuConfig,
    workload: Option<Workload>,
    io_tech: IoTechnology,
    trace: bool,
    telemetry: Option<TelemetryConfig>,
    faults: Option<FaultSpec>,
    fault_seed: u64,
}

impl SystemBuilder {
    /// Starts from the Table 2 configuration of `kind` and the Table 1 GPU.
    pub fn new(kind: DramKind) -> Self {
        let dram = DramConfig::new(kind);
        SystemBuilder {
            ctrl: CtrlConfig::for_dram(&dram),
            dram,
            gpu: GpuConfig::default(),
            workload: None,
            io_tech: IoTechnology::Podl,
            trace: false,
            telemetry: None,
            faults: None,
            fault_seed: 1,
        }
    }

    // `benchmark/` (frozen for this PR) still calls this name; it goes when
    // a later benchmark PR drops the `ctrl.pool.speedup_t2` probe.
    #[doc(hidden)]
    pub fn engine_threads(self, _threads: usize) -> Self {
        self
    }

    /// Replaces the DRAM configuration (for ablations), re-deriving the
    /// controller sizing for its channel count.
    pub fn dram_config(mut self, cfg: DramConfig) -> Self {
        self.ctrl = CtrlConfig::for_dram(&cfg);
        self.dram = cfg;
        self
    }

    /// Replaces the controller policy.
    pub fn ctrl_config(mut self, cfg: CtrlConfig) -> Self {
        self.ctrl = cfg;
        self
    }

    /// Replaces the GPU configuration.
    pub fn gpu_config(mut self, cfg: GpuConfig) -> Self {
        self.gpu = cfg;
        self
    }

    /// Sets the workload (required). The workload's `mlp` overrides the
    /// GPU's per-warp outstanding limit, and its L2 sector size must match
    /// the DRAM atom (enforced in [`Self::build`]).
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = Some(w);
        self
    }

    /// Records the full DRAM command trace (for the protocol checker).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables epoch-sampled telemetry over the measurement window of
    /// [`Self::run_instrumented`] ([`TelemetryConfig::for_window`] sizes
    /// the preallocation; bound the window with
    /// [`fgdram_telemetry::check_epochs`] first).
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Attaches a fault specification. A spec for which
    /// [`FaultSpec::is_noop`] is true leaves the fault engine disengaged —
    /// the run stays byte-identical to one without this call — but its
    /// `watchdog=` bound is still honoured.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Seeds the fault engine's PRNG (default 1). Same spec + same seed
    /// produce the identical fault stream at any parallelism.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Selects the I/O signaling technology for energy accounting
    /// (Section 3.5): PODL is the paper's conservative baseline, GRS the
    /// constant-current alternative with organic-package reach.
    pub fn io_technology(mut self, tech: IoTechnology) -> Self {
        self.io_tech = tech;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for invalid geometry.
    ///
    /// # Panics
    ///
    /// Panics if no workload was set.
    pub fn build(self) -> Result<System, SimError> {
        let workload = self.workload.expect("SystemBuilder requires a workload");
        let mut gpu_cfg = self.gpu;
        gpu_cfg.max_outstanding_per_warp = workload.mlp.max(1);
        // The L2 sector is the DRAM atom (Section 2.2 / Table 1).
        gpu_cfg.l2.sector_bytes = self.dram.atom_bytes;
        self.dram.validate()?;
        let mut dev = DramDevice::new(self.dram.clone());
        if self.trace {
            dev.enable_trace();
        }
        let mut ctrl = Controller::new(&self.dram, self.ctrl)?;
        let mut faults = None;
        let mut watchdog_ns = DEFAULT_WATCHDOG_NS;
        if let Some(spec) = &self.faults {
            watchdog_ns = spec.watchdog_ns;
            if !spec.is_noop() {
                let channels = self.dram.channels;
                let banks = self.dram.banks_per_channel;
                for &g in &spec.dead_grains {
                    if g as usize >= channels {
                        return Err(ConfigError::FaultTarget {
                            what: "grain",
                            index: g as u64,
                            limit: channels as u64,
                        }
                        .into());
                    }
                }
                for &(ch, b) in &spec.dead_banks {
                    if ch as usize >= channels || b as usize >= banks {
                        return Err(ConfigError::FaultTarget {
                            what: "bank",
                            index: (ch as u64) * banks as u64 + b as u64,
                            limit: (channels * banks) as u64,
                        }
                        .into());
                    }
                }
                let mut engine = FaultEngine::new(spec, self.fault_seed, channels);
                for &g in &spec.dead_grains {
                    engine.exclude_now(g);
                    ctrl.exclude_channel(g);
                }
                if engine.excluded_total() > engine.max_excluded() {
                    return Err(SimError::FaultStorm {
                        at: 0,
                        dues: 0,
                        excluded: engine.excluded_total(),
                        max_excluded: engine.max_excluded(),
                    });
                }
                faults = Some(engine);
            }
        }
        let n_warps = gpu_cfg.sms * gpu_cfg.warps_per_sm;
        let gpu = Gpu::new(gpu_cfg.clone(), workload.streams(n_warps));
        let l2 = L2Cache::new(gpu_cfg.l2, L2_MSHRS);
        let mut profile = EnergyProfile::for_kind(self.dram.kind);
        if self.io_tech == IoTechnology::Grs {
            profile = profile.with_grs();
        }
        Ok(System {
            meter: EnergyMeter::with_profile(&self.dram, profile),
            activity: DataActivity {
                toggle_rate: workload.toggle_rate,
                ones_density: workload.ones_density,
            },
            cfg: self.dram,
            gpu_cfg,
            workload_name: workload.name,
            dev,
            ctrl,
            gpu,
            l2,
            events: EventWheel::new(),
            // Only an engaged fault engine retries reads.
            retries: if faults.is_some() { vec![0; L2_MSHRS] } else { Vec::new() },
            // Pre-size every steady-state container to its backpressure
            // bound so the step loop never grows them: the retry queues
            // are capped by MAX_RETRY / MAX_L2_BLOCKED.
            retry_reqs: VecDeque::with_capacity(MAX_RETRY),
            l2_blocked: VecDeque::with_capacity(MAX_L2_BLOCKED),
            access_buf: Vec::with_capacity(256),
            completion_buf: Vec::with_capacity(256),
            // Matches the L2's own writeback reserve: the two buffers swap
            // on every drain, so both must start at the steady capacity.
            wb_buf: Vec::with_capacity(4096),
            waiter_buf: Vec::with_capacity(1024),
            now: 0,
            next_req: 0,
            ctrl_next: 0,
            last_issue: 0,
            telemetry: None,
            faults,
            watchdog_ns,
            progress_sig: 0,
            progress_at: 0,
        })
    }

    /// Builds, warms up for `warmup` ns, measures for `window` ns, and
    /// reports.
    ///
    /// # Errors
    ///
    /// Any [`SimError`].
    pub fn run(self, warmup: Ns, window: Ns) -> Result<SimReport, SimError> {
        self.run_instrumented(warmup, window).map(|(r, _)| r)
    }

    /// Like [`Self::run`], but also returns the telemetry series when
    /// [`Self::telemetry`] was configured. Recording covers exactly the
    /// measurement window: it starts after warmup (with freshly reset
    /// statistics) and flushes the trailing partial epoch at the end.
    ///
    /// # Errors
    ///
    /// Any [`SimError`].
    pub fn run_instrumented(
        self,
        warmup: Ns,
        window: Ns,
    ) -> Result<(SimReport, Option<Telemetry>), SimError> {
        let tcfg = self.telemetry;
        let mut sys = self.build()?;
        sys.run_for(warmup)?;
        sys.reset_stats();
        if let Some(cfg) = tcfg {
            sys.enable_telemetry(cfg);
        }
        sys.run_for(window)?;
        let series = sys.finish_telemetry();
        Ok((sys.report(window), series))
    }
}

/// A complete simulated node: GPU + L2 + controller + DRAM stack.
#[derive(Debug)]
pub struct System {
    cfg: DramConfig,
    gpu_cfg: GpuConfig,
    workload_name: String,
    meter: EnergyMeter,
    activity: DataActivity,
    dev: DramDevice,
    ctrl: Controller,
    gpu: Gpu,
    l2: L2Cache,
    events: EventWheel<Event>,
    /// Corrected-error re-reads so far, per L2 MSHR entry (empty without
    /// a fault engine); an entry's count is reset when its fill lands.
    retries: Vec<u32>,
    retry_reqs: VecDeque<MemRequest>,
    l2_blocked: VecDeque<SectorAccess>,
    access_buf: Vec<SectorAccess>,
    completion_buf: Vec<fgdram_model::cmd::Completion>,
    /// Reusable drain buffer for L2 writebacks (no per-step allocation).
    wb_buf: Vec<PhysAddr>,
    /// Reusable buffer for MSHR waiter tokens (no per-fill allocation).
    waiter_buf: Vec<u64>,
    now: Ns,
    next_req: u64,
    ctrl_next: Ns,
    last_issue: Ns,
    telemetry: Option<Recorder>,
    /// Fault engine; `None` when no (effective) fault spec was given, so a
    /// fault-free run does not even consult the fault path.
    faults: Option<FaultEngine>,
    /// Forward-progress watchdog bound.
    watchdog_ns: Ns,
    /// Last observed work signature and when it last changed.
    progress_sig: u64,
    progress_at: Ns,
}

/// Backpressure thresholds: stop issuing new GPU work above these.
const MAX_L2_BLOCKED: usize = 1_024;
const MAX_RETRY: usize = 8_192;

impl System {
    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// The DRAM configuration in effect.
    pub fn dram_config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The DRAM device (counters, per-channel state).
    pub fn device(&self) -> &DramDevice {
        &self.dev
    }

    /// The controller (statistics).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// The L2 cache (statistics).
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// The GPU front end (statistics).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Takes the recorded DRAM command trace (empty unless built
    /// [`SystemBuilder::with_trace`]).
    pub fn take_trace(&mut self) -> Vec<TimedCommand> {
        self.dev.take_trace()
    }

    /// Zeroes all statistics (end of warm-up). Fault exclusion state
    /// deliberately persists — a grain dead during warmup stays dead.
    pub fn reset_stats(&mut self) {
        self.dev.reset_counters();
        self.ctrl.reset_stats();
        self.l2.reset_stats();
        self.gpu.reset_stats();
        if let Some(f) = &mut self.faults {
            f.reset_counters();
        }
    }

    /// Refreshes the fault engine's watchdog-slack gauge before sampling.
    fn update_watchdog_slack(&mut self) {
        let idle = self.now.saturating_sub(self.progress_at);
        let slack = self.watchdog_ns.saturating_sub(idle);
        if let Some(f) = &mut self.faults {
            f.set_watchdog_slack(slack);
        }
    }

    /// Starts epoch-sampled telemetry at the current simulated time,
    /// observing the controller, DRAM device, GPU, L2, and energy meter.
    /// Call after [`Self::reset_stats`] so epoch 0 starts from zeroed
    /// counters; collect the series with [`Self::finish_telemetry`].
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let mut rec = Recorder::new(cfg);
        self.with_sources(|now, sources| rec.start(now, sources));
        self.telemetry = Some(rec);
    }

    /// Flushes the trailing partial epoch and returns the recorded series
    /// (`None` when telemetry was never enabled). Telemetry is disabled
    /// afterwards.
    pub fn finish_telemetry(&mut self) -> Option<Telemetry> {
        let rec = self.telemetry.take()?;
        Some(self.with_sources(|now, sources| rec.finish(now, sources)))
    }

    /// Samples any epoch boundaries crossed by the last step. Exactness:
    /// `step` advances `now` as its final action and processes events at
    /// the new `now` on the *next* step, so when this poll runs, counters
    /// are exact for every boundary B with `old_now < B <= now` — no
    /// events occur between steps, and events at exactly B belong to the
    /// epoch starting at B.
    fn poll_telemetry(&mut self) {
        let Some(mut rec) = self.telemetry.take() else { return };
        self.with_sources(|now, sources| rec.poll(now, sources));
        self.telemetry = Some(rec);
    }

    /// Calls `f` with the current time and the telemetry sources, in
    /// schema order, after refreshing the watchdog-slack gauge.
    fn with_sources<R>(&mut self, f: impl FnOnce(Ns, &[&dyn Sampled]) -> R) -> R {
        self.update_watchdog_slack();
        let es = EnergySampler { meter: &self.meter, dev: &self.dev, activity: self.activity };
        let mut sources: Vec<&dyn Sampled> = vec![&self.ctrl, &self.dev, &self.gpu, &self.l2, &es];
        // The faults component is appended only when the engine is engaged,
        // so fault-free telemetry schemas are unchanged.
        if let Some(faults) = &self.faults {
            sources.push(faults);
        }
        f(self.now, &sources)
    }

    /// Advances simulated time by `duration`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on scheduler bugs, [`SimError::Stall`] when
    /// progress stops entirely.
    pub fn run_for(&mut self, duration: Ns) -> Result<(), SimError> {
        let end = self.now.saturating_add(duration);
        if self.telemetry.is_none() {
            while self.now < end {
                self.step(end)?;
            }
            return Ok(());
        }
        while self.now < end {
            self.step(end)?;
            self.poll_telemetry();
        }
        Ok(())
    }

    fn schedule(&mut self, at: Ns, ev: Event) {
        self.events.push(at, ev);
    }

    fn step(&mut self, end: Ns) -> Result<(), SimError> {
        let now = self.now;

        // 1. Deliver due events (including ones scheduled at `now` while
        // draining), in exact (time, event) order.
        while let Some((_, ev)) = self.events.pop_due(now) {
            match ev {
                Event::Fill(req) => {
                    if let Some(entry) = read_entry(req) {
                        if let Some(r) = self.retries.get_mut(entry) {
                            *r = 0;
                        }
                        let xbar = self.gpu_cfg.xbar_latency;
                        let core = self.gpu_cfg.core_latency;
                        let mut waiters = std::mem::take(&mut self.waiter_buf);
                        self.l2.fill_entry_done_into(entry, &mut waiters);
                        for &token in &waiters {
                            self.schedule(now + xbar + core, Event::Wake(token));
                        }
                        self.waiter_buf = waiters;
                    }
                }
                Event::Wake(token) => {
                    self.gpu.sector_done(fgdram_gpu::AccessToken::from_u64(token), now);
                }
                Event::Retry(req_id) => {
                    // Re-read after a corrected error, under the same id:
                    // back through the controller (and the fault oracle)
                    // like any miss fill.
                    if let Some(entry) = read_entry(ReqId(req_id)) {
                        let addr = self.l2.entry_sector(entry);
                        let req = MemRequest { id: ReqId(req_id), addr, is_write: false };
                        if !self.ctrl.try_enqueue(req, now) {
                            self.retry_reqs.push_back(req);
                        }
                    }
                }
            }
        }

        // 2. Retry requests the controller previously rejected.
        while let Some(&req) = self.retry_reqs.front() {
            if self.ctrl.try_enqueue(req, now) {
                self.retry_reqs.pop_front();
            } else {
                break;
            }
        }

        // 3. Retry sector accesses the L2 previously blocked.
        while let Some(&access) = self.l2_blocked.front() {
            if self.process_access(access, now) {
                self.l2_blocked.pop_front();
            } else {
                break;
            }
        }

        // 4. Issue new GPU work unless backpressured.
        if self.l2_blocked.len() < MAX_L2_BLOCKED && self.retry_reqs.len() < MAX_RETRY {
            let dt = (now - self.last_issue).clamp(1, 8) as usize;
            let budget = self.gpu_cfg.issue_per_ns * dt;
            let mut buf = std::mem::take(&mut self.access_buf);
            buf.clear();
            self.gpu.issue(now, budget, &mut buf);
            self.last_issue = now;
            for access in buf.drain(..) {
                if !self.process_access(access, now) {
                    self.l2_blocked.push_back(access);
                }
            }
            self.access_buf = buf;
        }

        // 5. Turn L2 evictions into DRAM writes (reusing one drain buffer).
        let mut wbs = std::mem::take(&mut self.wb_buf);
        self.l2.take_writebacks_into(&mut wbs);
        for wb in wbs.drain(..) {
            let req = MemRequest { id: self.next_id(WRITE_SLOT), addr: wb, is_write: true };
            if !self.ctrl.try_enqueue(req, now) {
                self.retry_reqs.push_back(req);
            }
        }
        self.wb_buf = wbs;

        // 6. Apply the fault timeline, then run the memory controller.
        if self.faults.is_some() {
            self.apply_fault_timeline(now);
        }
        if now >= self.ctrl_next {
            self.completion_buf.clear();
            let mut comps = std::mem::take(&mut self.completion_buf);
            self.ctrl_next = self.ctrl.tick(&mut self.dev, now, &mut comps)?;
            let xbar = self.gpu_cfg.xbar_latency;
            for c in comps.drain(..) {
                if c.is_write {
                    continue;
                }
                if self.faults.is_some() {
                    self.complete_read_with_faults(c.req, c.at + xbar, now)?;
                } else {
                    self.schedule(c.at + xbar, Event::Fill(c.req));
                }
            }
            self.completion_buf = comps;
        }

        // 6b. Forward-progress watchdog: if outstanding work exists but no
        // monotone work counter has moved for a full bound, fail typed
        // rather than spinning silently to the end of the window.
        let sig = self.progress_signature();
        if sig != self.progress_sig {
            self.progress_sig = sig;
            self.progress_at = now;
        } else if now.saturating_sub(self.progress_at) >= self.watchdog_ns
            && self.has_pending_work()
        {
            return Err(SimError::Stall {
                at: now,
                pending: self.ctrl.pending()
                    + self.retry_reqs.len()
                    + self.l2_blocked.len()
                    + self.events.len(),
                idle_ns: now - self.progress_at,
                bound: self.watchdog_ns,
            });
        }

        // 7. Advance to the next interesting time.
        let mut next = end;
        if let Some(t) = self.events.next_time() {
            next = next.min(t);
        }
        next = next.min(self.ctrl_next);
        if let Some(t) = self.gpu.next_event() {
            next = next.min(t);
        }
        if !self.retry_reqs.is_empty() || !self.l2_blocked.is_empty() {
            next = next.min(now + 1);
        }
        // Never jump past the watchdog deadline while work is outstanding:
        // a wedged controller reports no next event, and a single leap to
        // `end` would end the window before the silence could be observed.
        if self.has_pending_work() {
            next = next.min(self.progress_at.saturating_add(self.watchdog_ns));
        }
        self.now = next.max(now + 1).min(end.max(now + 1));
        Ok(())
    }

    /// Applies due transient stalls and the one-shot wedge from the fault
    /// engine's timeline to the controller.
    fn apply_fault_timeline(&mut self, now: Ns) {
        let engine = self.faults.as_mut().expect("caller checked engine presence");
        for (ch, until) in engine.stalls_due(now) {
            self.ctrl.stall_channel(ch, until);
        }
        if engine.take_wedge(now) {
            self.ctrl.stall_all(Ns::MAX);
        }
    }

    /// Routes one read completion through the ECC model and the
    /// graceful-degradation policy. `fill_at` is when clean data would
    /// reach the L2.
    fn complete_read_with_faults(
        &mut self,
        req: ReqId,
        fill_at: Ns,
        now: Ns,
    ) -> Result<(), SimError> {
        // A writeback never consults the L2; only misses carry an entry.
        let Some(entry) = read_entry(req) else {
            self.schedule(fill_at, Event::Fill(req));
            return Ok(());
        };
        let loc = self.ctrl.route(self.l2.entry_sector(entry));
        let retries = &mut self.retries[entry];
        let engine = self.faults.as_mut().expect("caller checked engine presence");
        match engine.classify_read(loc.channel, loc.bank) {
            EccOutcome::Clean => self.schedule(fill_at, Event::Fill(req)),
            EccOutcome::Corrected => {
                // Bounded retry with exponential backoff; once exhausted
                // the corrected data is delivered as-is. (The count dies
                // with the entry when the fill event lands.)
                if *retries < engine.retry_limit() {
                    *retries += 1;
                    let delay = engine.backoff(*retries);
                    engine.note_retry();
                    self.schedule(fill_at + delay, Event::Retry(req.0));
                } else {
                    self.schedule(fill_at, Event::Fill(req));
                }
            }
            EccOutcome::Uncorrectable => match engine.record_due(loc.channel) {
                DueOutcome::Storm => {
                    let c = engine.counters();
                    let (excluded, max) = (engine.excluded_total(), engine.max_excluded());
                    return Err(SimError::FaultStorm {
                        at: now,
                        dues: c.due,
                        excluded,
                        max_excluded: max,
                    });
                }
                outcome => {
                    if outcome == DueOutcome::Exclude {
                        self.ctrl.exclude_channel(loc.channel);
                    }
                    // Poisoned data still unblocks the warp; the poison
                    // count records the damage.
                    self.gpu.note_poisoned();
                    self.schedule(fill_at, Event::Fill(req));
                }
            },
        }
        Ok(())
    }

    /// A sum of monotone work counters; any change is forward progress.
    /// Deliberately excludes `rejected` (a wedged controller still rejects)
    /// and queue depths (not monotone).
    fn progress_signature(&self) -> u64 {
        let g = self.gpu.stats();
        let k = self.dev.total_counters();
        g.retired
            .wrapping_add(g.sectors)
            .wrapping_add(g.loads_issued)
            .wrapping_add(g.stores_issued)
            .wrapping_add(self.ctrl.progress_probe())
            .wrapping_add(k.activates)
            .wrapping_add(k.read_atoms)
            .wrapping_add(k.write_atoms)
    }

    /// True when anything is still outstanding anywhere in the pipeline —
    /// the precondition for the watchdog to call silence a stall. All the
    /// checks are O(1): every outstanding load has either an L2 fill in
    /// flight or a scheduled event, so the GPU needs no per-warp scan.
    fn has_pending_work(&self) -> bool {
        self.ctrl.pending() > 0
            || !self.retry_reqs.is_empty()
            || !self.l2_blocked.is_empty()
            || !self.events.is_empty()
            || self.l2.inflight_fills() > 0
    }

    /// The next request id, carrying `slot` (see [`ENTRY_BITS`]).
    fn next_id(&mut self, slot: u64) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req << ENTRY_BITS | slot)
    }

    /// Routes one sector access through the L2; `false` means blocked
    /// (caller must retry).
    fn process_access(&mut self, access: SectorAccess, now: Ns) -> bool {
        match self.l2.access(access.addr, access.is_store, access.token.as_u64()) {
            L2Access::Hit => {
                let done = now + self.gpu_cfg.l2.hit_latency + 2 * self.gpu_cfg.xbar_latency;
                self.schedule(done, Event::Wake(access.token.as_u64()));
                true
            }
            L2Access::StoreDone | L2Access::Merged => true,
            L2Access::Miss { fill } => {
                let id = self.next_id(self.l2.last_miss_entry() as u64);
                let req = MemRequest { id, addr: fill, is_write: false };
                if !self.ctrl.try_enqueue(req, now) {
                    self.retry_reqs.push_back(req);
                }
                true
            }
            L2Access::Blocked => false,
        }
    }

    /// Builds a report over the last `window` ns (call after
    /// [`Self::reset_stats`] + [`Self::run_for`]).
    pub fn report(&self, window: Ns) -> SimReport {
        let k = self.dev.total_counters();
        let ops = OpCounts {
            activates: k.activates,
            read_atoms: k.read_atoms,
            write_atoms: k.write_atoms,
        };
        let energy = self.meter.energy(&ops, self.activity);
        let bits = self.meter.data_bits(&ops);
        let bytes = (k.read_atoms + k.write_atoms) * self.cfg.atom_bytes;
        let bandwidth = GbPerSec::from_bytes_over(bytes, window);
        let peak = self.cfg.stack_bandwidth();
        let cs = self.ctrl.stats();
        // Per-channel balance: the swizzle should spread traffic evenly.
        let per_channel: Vec<f64> = (0..self.cfg.channels as u32)
            .map(|ch| {
                let k = self.dev.channel_counters(ch);
                (k.read_atoms + k.write_atoms) as f64
            })
            .collect();
        let mean = per_channel.iter().sum::<f64>() / per_channel.len().max(1) as f64;
        let var = per_channel.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / per_channel.len().max(1) as f64;
        let channel_imbalance_cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        SimReport {
            workload: self.workload_name.clone(),
            kind: self.cfg.kind,
            window_ns: window,
            retired: self.gpu.stats().retired,
            read_atoms: k.read_atoms,
            write_atoms: k.write_atoms,
            activates: k.activates,
            refreshes: k.refreshes,
            bandwidth,
            utilisation: if peak.value() > 0.0 { bandwidth.value() / peak.value() } else { 0.0 },
            row_hit_rate: cs.hit_rate(),
            l2_hit_rate: self.l2.stats().hit_rate(),
            avg_read_latency_ns: cs.read_latency.stat().mean(),
            p95_read_latency_ns: cs.read_latency.quantile(0.95),
            channel_imbalance_cv,
            energy,
            energy_per_bit: energy.per_bit(bits),
            faults: self.faults.as_ref().map(|f| {
                let c = f.counters();
                FaultSummary {
                    ce: c.ce,
                    due: c.due,
                    retries: c.retries,
                    excluded: c.excluded,
                    poisoned: self.gpu.stats().poisoned,
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matrix executor hands each worker thread its own whole
    /// simulation, so the system (and everything it owns, down through
    /// `fgdram-dram`, `fgdram-ctrl`, `fgdram-gpu` and the boxed
    /// `fgdram-workloads` streams) must stay `Send`. This is a
    /// compile-time audit: it fails to build if any layer grows a
    /// thread-bound type (`Rc`, `RefCell`, raw pointers, non-`Send`
    /// trait objects).
    #[test]
    fn simulation_ownership_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
        assert_send::<SystemBuilder>();
        assert_send::<SimError>();
        assert_send::<SimReport>();
        assert_send::<Workload>();
        assert_send::<fgdram_dram::DramDevice>();
        assert_send::<fgdram_ctrl::Controller>();
        assert_send::<fgdram_gpu::Gpu>();
        assert_send::<fgdram_gpu::L2Cache>();
        assert_send::<Box<dyn fgdram_model::stream::AccessStream>>();
    }

    fn gups(kind: DramKind) -> SystemBuilder {
        SystemBuilder::new(kind)
            .workload(fgdram_workloads::suites::by_name("GUPS").expect("in suite"))
    }

    /// The L2 recycles MSHR entries last-freed first, so an entry number
    /// alone does not rise with miss order; the sequence above it must.
    #[test]
    fn read_ids_rise_in_allocation_order_although_entries_recycle() {
        use fgdram_model::rng::SmallRng;
        let mut sys = gups(DramKind::QbHbm).build().expect("builds");
        let mut r = SmallRng::seed_from_u64(0x1D5);
        let (mut live, mut waiters) = (Vec::new(), Vec::new());
        let (mut last, mut top, mut reused) = (ReqId(0), 0, 0);
        for token in 0..4_000 {
            let id = if r.random_bool(0.2) {
                let id = sys.next_id(WRITE_SLOT);
                assert_eq!(read_entry(id), None, "write {id} names an entry");
                id
            } else if !live.is_empty() && r.random_bool(0.5) {
                let entry = live.swap_remove(r.random_range(0..live.len() as u64) as usize);
                sys.l2.fill_entry_done_into(entry, &mut waiters);
                continue;
            } else {
                let addr = PhysAddr(r.random_range(0..1 << 24) & !31);
                let L2Access::Miss { fill } = sys.l2.access(addr, false, token) else {
                    continue;
                };
                let entry = sys.l2.last_miss_entry();
                reused += u32::from(entry < top);
                top = top.max(entry);
                let id = sys.next_id(entry as u64);
                assert_eq!(read_entry(id), Some(entry), "{id}");
                assert_eq!(sys.l2.entry_sector(entry), fill, "{id}");
                live.push(entry);
                id
            };
            assert!(id > last, "{id} allocated after {last}");
            last = id;
        }
        assert!(reused > 100, "entries must recycle below the high-water mark: {reused}");
    }

    /// A corrected error re-reads its request under the same id: the trace
    /// shows some read id twice, always at one place. Every read id names
    /// an MSHR entry; no write id does.
    #[test]
    fn a_retried_read_keeps_its_id() {
        use fgdram_model::cmd::DramCommand;
        use std::collections::HashMap;
        let spec = FaultSpec::parse("ce=0.05").expect("valid spec");
        let mut sys = gups(DramKind::Fgdram).faults(spec).with_trace().build().expect("builds");
        sys.run_for(8_000).expect("runs");
        let mut reads = HashMap::new();
        let mut writes = 0;
        for tc in sys.take_trace() {
            match tc.cmd {
                DramCommand::Read { bank, row, col, req, .. } => {
                    assert!(read_entry(req).is_some_and(|e| e < L2_MSHRS), "{req}");
                    let (place, n) = reads.entry(req).or_insert(((bank, row, col), 0));
                    assert_eq!(*place, (bank, row, col), "{req} re-read elsewhere");
                    *n += 1;
                }
                DramCommand::Write { req, .. } => {
                    assert_eq!(read_entry(req), None, "{req}");
                    writes += 1;
                }
                _ => {}
            }
        }
        let reread = reads.values().filter(|(_, n)| *n > 1).count();
        assert!(reread > 0 && writes > 0, "{reread} re-read ids, {writes} writes");
    }
}
