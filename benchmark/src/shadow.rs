//! The traced engine: `core::System::step` re-wired over the layers'
//! public functions, with the clock read at each layer boundary.
//!
//! `System::step` is private and this benchmark may not edit the library,
//! so the seven phases of a step are repeated here for the fault-free,
//! telemetry-off case. To read the clock once per layer per phase instead
//! of once per sector, each phase is split into per-layer passes (all L2
//! accesses, then all wheel pushes, then all enqueues). That reordering is
//! invisible to the simulation because within a phase the layers do not
//! read each other's state: every event pushed while draining is strictly
//! in the future (asserted in [`Shadow::build`]), the L2 never consults the
//! controller, and the wheel orders by `(time, event)` whatever the push
//! order. It is also *checked*, not assumed: after identical warm-up and
//! slices [`counters`] of the shadow must equal the real `System`'s
//! exactly (`trace.counter_mismatch`).

use std::collections::VecDeque;

use fgdram::core::SimError;
use fgdram::ctrl::Controller;
use fgdram::dram::DramDevice;
use fgdram::faults::DEFAULT_WATCHDOG_NS;
use fgdram::gpu::{AccessToken, Gpu, L2Access, L2Cache, SectorAccess};
use fgdram::model::addr::{MemRequest, PhysAddr, ReqId};
use fgdram::model::cmd::Completion;
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind, GpuConfig};
use fgdram::model::fxhash::FxHashMap;
use fgdram::model::units::Ns;
use fgdram::model::wheel::EventWheel;
use fgdram::workloads::Workload;

use crate::trace::{Chain, Layer};

/// Same variants in the same order as `core::system::Event` (minus the
/// fault-only `Retry`): the derived `Ord` breaks same-time ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Fill(ReqId),
    Wake(u64),
}

/// `core::system`'s backpressure thresholds.
const MAX_L2_BLOCKED: usize = 1_024;
const MAX_RETRY: usize = 8_192;

/// Work counts the layers' own statistics do not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Events pushed onto the system's wheel.
    pub pushes: u64,
    /// `Gpu::issue` calls.
    pub issue_calls: u64,
    /// Load sectors delivered back to their warps.
    pub wakes: u64,
    /// `L2Cache::access` calls (first tries and retries).
    pub l2_accesses: u64,
    /// Ticks that issued a DRAM command or completed a request.
    pub useful_ticks: u64,
    /// DRAM commands issued.
    pub cmds: u64,
}

/// The shadow of `core::System`.
pub struct Shadow {
    gpu_cfg: GpuConfig,
    /// The DRAM device.
    pub dev: DramDevice,
    /// The controller.
    pub ctrl: Controller,
    /// The GPU front end.
    pub gpu: Gpu,
    /// The L2.
    pub l2: L2Cache,
    events: EventWheel<Event>,
    fill_dest: FxHashMap<u64, PhysAddr>,
    retry_reqs: VecDeque<MemRequest>,
    l2_blocked: VecDeque<SectorAccess>,
    due: Vec<Event>,
    sectors: Vec<PhysAddr>,
    waiter_buf: Vec<u64>,
    tokens: Vec<u64>,
    access_buf: Vec<SectorAccess>,
    outcomes: Vec<(SectorAccess, L2Access)>,
    reqs: Vec<MemRequest>,
    wb_buf: Vec<PhysAddr>,
    completion_buf: Vec<Completion>,
    now: Ns,
    next_req: u64,
    ctrl_next: Ns,
    last_issue: Ns,
    progress_sig: u64,
    progress_at: Ns,
    last_cmds: u64,
    /// The per-layer clock.
    pub chain: Chain,
    /// Extra work counts.
    pub work: Work,
}

impl Shadow {
    /// Builds the same parts `SystemBuilder::new(kind).workload(w).build()`
    /// does, in the same way.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for invalid geometry.
    pub fn build(kind: DramKind, workload: &Workload) -> Result<Shadow, SimError> {
        let dram = DramConfig::new(kind);
        let mut gpu_cfg =
            GpuConfig { max_outstanding_per_warp: workload.mlp.max(1), ..GpuConfig::default() };
        gpu_cfg.l2.sector_bytes = dram.atom_bytes;
        dram.validate()?;
        // A fill's wake-ups land `xbar + core` after it: only if that is
        // positive may phase 1 drain first and deliver afterwards.
        assert!(gpu_cfg.xbar_latency + gpu_cfg.core_latency > 0, "wake-ups must be in the future");
        let ctrl = Controller::with_threads(&dram, CtrlConfig::for_dram(&dram), 1)?;
        let n_warps = gpu_cfg.sms * gpu_cfg.warps_per_sm;
        Ok(Shadow {
            gpu: Gpu::new(gpu_cfg.clone(), workload.streams(n_warps)),
            l2: L2Cache::new(gpu_cfg.l2, 16_384),
            dev: DramDevice::with_lanes(dram, 1),
            ctrl,
            gpu_cfg,
            events: EventWheel::new(),
            fill_dest: FxHashMap::with_capacity_and_hasher(16_384, Default::default()),
            retry_reqs: VecDeque::with_capacity(MAX_RETRY),
            l2_blocked: VecDeque::with_capacity(MAX_L2_BLOCKED),
            due: Vec::with_capacity(1024),
            sectors: Vec::with_capacity(1024),
            waiter_buf: Vec::with_capacity(1024),
            tokens: Vec::with_capacity(1024),
            access_buf: Vec::with_capacity(256),
            outcomes: Vec::with_capacity(1024),
            reqs: Vec::with_capacity(1024),
            wb_buf: Vec::with_capacity(4096),
            completion_buf: Vec::with_capacity(256),
            now: 0,
            next_req: 0,
            ctrl_next: 0,
            last_issue: 0,
            progress_sig: 0,
            progress_at: 0,
            last_cmds: 0,
            chain: Chain::new(),
            work: Work::default(),
        })
    }

    /// `System::reset_stats`.
    pub fn reset_stats(&mut self) {
        self.dev.reset_counters();
        self.ctrl.reset_stats();
        self.l2.reset_stats();
        self.gpu.reset_stats();
        self.last_cmds = 0;
        self.work = Work::default();
        self.chain.take_slice();
    }

    /// `System::run_for`.
    ///
    /// # Errors
    ///
    /// As `System::run_for`.
    pub fn run_for(&mut self, duration: Ns) -> Result<(), SimError> {
        let end = self.now.saturating_add(duration);
        while self.now < end {
            self.step(end)?;
        }
        Ok(())
    }

    /// Applies the L2's verdicts on a batch of accesses: hits schedule
    /// their wake-up, misses register a fill and go to the controller.
    fn apply_outcomes(&mut self, now: Ns) {
        let hit_at = now + self.gpu_cfg.l2.hit_latency + 2 * self.gpu_cfg.xbar_latency;
        let mut hits = 0;
        for (access, outcome) in &self.outcomes {
            if *outcome == L2Access::Hit {
                self.events.push(hit_at, Event::Wake(access.token.as_u64()));
                hits += 1;
            }
        }
        self.work.pushes += hits;
        self.chain.mark(Layer::Wheel, hits);
        self.reqs.clear();
        for (_, outcome) in &self.outcomes {
            if let L2Access::Miss { fill } = *outcome {
                self.next_req += 1;
                self.fill_dest.insert(self.next_req, fill);
                self.reqs.push(MemRequest {
                    id: ReqId(self.next_req),
                    addr: fill,
                    is_write: false,
                });
            }
        }
        self.chain.mark(Layer::Glue, 0);
        if !self.reqs.is_empty() {
            for &req in &self.reqs {
                if !self.ctrl.try_enqueue(req, now) {
                    self.retry_reqs.push_back(req);
                }
            }
            self.chain.mark(Layer::CtrlEnqueue, self.reqs.len() as u64);
        }
    }

    fn step(&mut self, end: Ns) -> Result<(), SimError> {
        let now = self.now;
        self.chain.begin_step();

        // 1. Deliver due events: drain the wheel, then complete the fills
        // in the L2, schedule their wake-ups, and deliver due wake-ups.
        self.due.clear();
        while let Some((_, ev)) = self.events.pop_due(now) {
            self.due.push(ev);
        }
        self.chain.mark(Layer::Wheel, self.due.len() as u64);
        if !self.due.is_empty() {
            self.sectors.clear();
            for ev in &self.due {
                if let Event::Fill(req) = ev {
                    if let Some(sector) = self.fill_dest.remove(&req.0) {
                        self.sectors.push(sector);
                    }
                }
            }
            self.chain.mark(Layer::Glue, 0);
            self.tokens.clear();
            for &sector in &self.sectors {
                self.l2.fill_done_into(sector, &mut self.waiter_buf);
                self.tokens.extend_from_slice(&self.waiter_buf);
            }
            self.chain.mark(Layer::L2, self.sectors.len() as u64);
            let wake_at = now + self.gpu_cfg.xbar_latency + self.gpu_cfg.core_latency;
            for &token in &self.tokens {
                self.events.push(wake_at, Event::Wake(token));
            }
            self.work.pushes += self.tokens.len() as u64;
            self.chain.mark(Layer::Wheel, self.tokens.len() as u64);
            let mut wakes = 0;
            for ev in &self.due {
                if let Event::Wake(token) = ev {
                    self.gpu.sector_done(AccessToken::from_u64(*token), now);
                    wakes += 1;
                }
            }
            self.work.wakes += wakes;
            self.chain.mark(Layer::Sm, wakes);
        }

        // 2. Retry requests the controller previously rejected.
        if !self.retry_reqs.is_empty() {
            let mut tried = 0;
            while let Some(&req) = self.retry_reqs.front() {
                tried += 1;
                if self.ctrl.try_enqueue(req, now) {
                    self.retry_reqs.pop_front();
                } else {
                    break;
                }
            }
            self.chain.mark(Layer::CtrlEnqueue, tried);
        }

        // 3. Retry sector accesses the L2 previously blocked.
        if !self.l2_blocked.is_empty() {
            self.outcomes.clear();
            let mut tried = 0;
            while let Some(&access) = self.l2_blocked.front() {
                tried += 1;
                let outcome = self.l2.access(access.addr, access.is_store, access.token.as_u64());
                if outcome == L2Access::Blocked {
                    break;
                }
                self.outcomes.push((access, outcome));
                self.l2_blocked.pop_front();
            }
            self.work.l2_accesses += tried;
            self.chain.mark(Layer::L2, tried);
            self.apply_outcomes(now);
        }

        // 4. Issue new GPU work unless backpressured.
        if self.l2_blocked.len() < MAX_L2_BLOCKED && self.retry_reqs.len() < MAX_RETRY {
            let dt = (now - self.last_issue).clamp(1, 8) as usize;
            let budget = self.gpu_cfg.issue_per_ns * dt;
            self.access_buf.clear();
            self.gpu.issue(now, budget, &mut self.access_buf);
            self.last_issue = now;
            self.work.issue_calls += 1;
            self.chain.mark(Layer::Sm, self.access_buf.len() as u64);
            if !self.access_buf.is_empty() {
                self.outcomes.clear();
                for &access in &self.access_buf {
                    let outcome =
                        self.l2.access(access.addr, access.is_store, access.token.as_u64());
                    if outcome == L2Access::Blocked {
                        self.l2_blocked.push_back(access);
                    } else {
                        self.outcomes.push((access, outcome));
                    }
                }
                self.work.l2_accesses += self.access_buf.len() as u64;
                self.chain.mark(Layer::L2, self.access_buf.len() as u64);
                self.apply_outcomes(now);
            }
        }

        // 5. Turn L2 evictions into DRAM writes.
        self.l2.take_writebacks_into(&mut self.wb_buf);
        self.chain.mark(Layer::L2, 0);
        if !self.wb_buf.is_empty() {
            for &wb in &self.wb_buf {
                self.next_req += 1;
                let req = MemRequest { id: ReqId(self.next_req), addr: wb, is_write: true };
                if !self.ctrl.try_enqueue(req, now) {
                    self.retry_reqs.push_back(req);
                }
            }
            self.chain.mark(Layer::CtrlEnqueue, self.wb_buf.len() as u64);
        }

        // 6. Run the memory controller (and, inside it, the device).
        let mut ticked = false;
        if now >= self.ctrl_next {
            self.completion_buf.clear();
            self.ctrl_next = self.ctrl.tick(&mut self.dev, now, &mut self.completion_buf)?;
            self.chain.mark(Layer::CtrlTick, 1);
            ticked = true;
            let xbar = self.gpu_cfg.xbar_latency;
            let mut fills = 0;
            for c in &self.completion_buf {
                if !c.is_write {
                    self.events.push(c.at + xbar, Event::Fill(c.req));
                    fills += 1;
                }
            }
            self.work.pushes += fills;
            self.chain.mark(Layer::Wheel, fills);
        }

        // 6b. Forward-progress watchdog (the system's own per-step cost).
        let g = self.gpu.stats();
        let k = self.dev.total_counters();
        let sig = g
            .retired
            .wrapping_add(g.sectors)
            .wrapping_add(g.loads_issued)
            .wrapping_add(g.stores_issued)
            .wrapping_add(self.ctrl.progress_probe())
            .wrapping_add(k.activates)
            .wrapping_add(k.read_atoms)
            .wrapping_add(k.write_atoms);
        if sig != self.progress_sig {
            self.progress_sig = sig;
            self.progress_at = now;
        } else if now.saturating_sub(self.progress_at) >= DEFAULT_WATCHDOG_NS
            && self.has_pending_work()
        {
            return Err(SimError::Stall {
                at: now,
                pending: self.ctrl.pending()
                    + self.retry_reqs.len()
                    + self.l2_blocked.len()
                    + self.events.len(),
                idle_ns: now - self.progress_at,
                bound: DEFAULT_WATCHDOG_NS,
            });
        }
        // Only a tick issues DRAM commands, so the device counters' change
        // since the previous step is this tick's doing.
        if ticked {
            let cmds = k.activates + k.read_atoms + k.write_atoms + k.refreshes + k.precharges;
            if cmds != self.last_cmds || !self.completion_buf.is_empty() {
                self.work.useful_ticks += 1;
            }
            self.work.cmds += cmds - self.last_cmds;
            self.last_cmds = cmds;
        }
        self.chain.mark(Layer::Glue, 0);

        // 7. Advance to the next interesting time.
        let mut next = end;
        if let Some(t) = self.events.next_time() {
            next = next.min(t);
        }
        self.chain.mark(Layer::Wheel, 0);
        next = next.min(self.ctrl_next);
        if let Some(t) = self.gpu.next_event() {
            next = next.min(t);
        }
        self.chain.mark(Layer::Sm, 0);
        if !self.retry_reqs.is_empty() || !self.l2_blocked.is_empty() {
            next = next.min(now + 1);
        }
        if self.has_pending_work() {
            next = next.min(self.progress_at.saturating_add(DEFAULT_WATCHDOG_NS));
        }
        self.now = next.max(now + 1).min(end.max(now + 1));
        self.chain.mark(Layer::Glue, 0);
        Ok(())
    }

    fn has_pending_work(&self) -> bool {
        self.ctrl.pending() > 0
            || !self.retry_reqs.is_empty()
            || !self.l2_blocked.is_empty()
            || !self.events.is_empty()
            || !self.fill_dest.is_empty()
    }
}

/// Every counter the layers keep, flattened to named integers, so a
/// shadow and a real `System` that ran the same slices can be compared
/// exactly.
pub fn counters(
    dev: &DramDevice,
    ctrl: &Controller,
    gpu: &Gpu,
    l2: &L2Cache,
) -> Vec<(&'static str, u64)> {
    let k = dev.total_counters();
    let c = ctrl.stats();
    let g = gpu.stats();
    let l = l2.stats();
    let lat = c.read_latency.stat();
    let depth = c.queue_depth.stat();
    vec![
        ("dram.activates", k.activates),
        ("dram.read_atoms", k.read_atoms),
        ("dram.write_atoms", k.write_atoms),
        ("dram.refreshes", k.refreshes),
        ("dram.precharges", k.precharges),
        ("ctrl.reads_accepted", c.reads_accepted.get()),
        ("ctrl.writes_accepted", c.writes_accepted.get()),
        ("ctrl.rejected", c.rejected.get()),
        ("ctrl.row_hits", c.row_hits.get()),
        ("ctrl.activates", c.activates.get()),
        ("ctrl.conflict_precharges", c.conflict_precharges.get()),
        ("ctrl.timeout_precharges", c.timeout_precharges.get()),
        ("ctrl.refresh_precharges", c.refresh_precharges.get()),
        ("ctrl.auto_precharges", c.auto_precharges.get()),
        ("ctrl.refreshes", c.refreshes.get()),
        ("ctrl.drain_entries", c.drain_entries.get()),
        ("ctrl.read_latency.count", lat.count()),
        ("ctrl.read_latency.sum", lat.sum() as u64),
        ("ctrl.read_latency.max", lat.max()),
        ("ctrl.queue_depth.count", depth.count()),
        ("ctrl.queue_depth.sum", depth.sum() as u64),
        ("ctrl.pending", ctrl.pending() as u64),
        ("gpu.retired", g.retired),
        ("gpu.loads_issued", g.loads_issued),
        ("gpu.stores_issued", g.stores_issued),
        ("gpu.sectors", g.sectors),
        ("l2.hits", l.hits.get()),
        ("l2.misses", l.misses.get()),
        ("l2.merges", l.merges.get()),
        ("l2.stores", l.stores.get()),
        ("l2.writeback_sectors", l.writeback_sectors.get()),
        ("l2.evictions", l.evictions.get()),
        ("l2.blocked", l.blocked.get()),
    ]
}
