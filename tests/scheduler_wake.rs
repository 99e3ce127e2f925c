//! Wake-exactness property for the scheduler engine: a promised sleep is
//! never early and never hides issuable work.
//!
//! [`Controller::tick`] returns the minimum over every channel's
//! `Step::Sleep(t)` wake time, so the two halves of the engine-rewrite
//! property are checked here at the controller boundary:
//!
//! 1. every promised wake `t` satisfies `t > now`, and
//! 2. no legal command was issuable strictly before `t` — verified by
//!    ticking the controller at *every* intermediate nanosecond in
//!    `(now, t)` and asserting the issued-command counters stay frozen.
//!    In a closed system (no arrivals after the initial batch), command
//!    legality is monotone — a command legal at `m` stays legal until
//!    issued — so a counter moving at `m < t` proves the promise
//!    overslept past issuable work, and counters frozen across the whole
//!    gap prove it did not.
//!
//! The pre-rewrite engine fails half 2: its conflict path polled at fixed
//! `now + 4` intervals, so a conflict precharge legal at `m` could sit
//! until the next poll boundary (see DESIGN.md "Engine").
//!
//! Arrivals between ticks, and the passes they let `Controller::tick`
//! skip, are checked by the bounded explorer `scheduler::wake_explorer`
//! in `fgdram-ctrl`. The GUPS tests count the scheduler's work.

use fgdram::core::SystemBuilder;
use fgdram::ctrl::Controller;
use fgdram::dram::DramDevice;
use fgdram::model::addr::{MemRequest, PhysAddr, ReqId};
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind};
use fgdram::model::units::Ns;
use fgdram::workloads::suites;

/// Splitmix64: deterministic stimulus without external crates.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Total commands issued so far: every issue path increments exactly one
/// of these (column ops count via the device's atom counters; ACT,
/// precharge variants, and refresh via the controller stats).
fn issued_commands(ctrl: &Controller, dev: &DramDevice) -> u64 {
    let s = ctrl.stats();
    let k = dev.total_counters();
    k.read_atoms
        + k.write_atoms
        + k.activates
        + s.conflict_precharges.get()
        + s.timeout_precharges.get()
        + s.refresh_precharges.get()
        + s.refreshes.get()
}

fn drive(kind: DramKind, seed: u64, batch: usize, horizon: Ns) {
    let cfg = DramConfig::new(kind);
    let mut dev = DramDevice::new(cfg.clone());
    let mut ctrl = Controller::new(&cfg, CtrlConfig::default()).expect("valid config");
    let mapper = ctrl.mapper().clone();

    // Closed system: one randomised batch at t=0, mixing reads and writes
    // across a handful of channels/banks/rows so hits, conflicts, and
    // write drains all occur.
    let mut s = seed;
    let mut accepted = 0u64;
    for i in 0..batch as u64 {
        let r = mix(&mut s);
        let loc = fgdram::model::addr::Location {
            channel: (r % 4) as u32,
            bank: ((r >> 8) % cfg.banks_per_channel as u64) as u32,
            row: ((r >> 16) % 32) as u32,
            col: ((r >> 24) % 16) as u32,
        };
        let addr = PhysAddr(mapper.encode(loc).0);
        let req = MemRequest { id: ReqId(i), addr, is_write: r % 3 == 0 };
        if ctrl.try_enqueue(req, 0) {
            accepted += 1;
        }
    }
    assert!(accepted > 0, "seed {seed}: batch must enqueue something");

    let mut out = Vec::new();
    let mut now: Ns = 0;
    while now < horizon {
        let promised = ctrl.tick(&mut dev, now, &mut out).expect("legal schedule");
        // Half 1: a sleep must move time forward.
        assert!(promised > now, "seed {seed} {kind:?}: promised wake {promised} <= now {now}");
        if promised == Ns::MAX {
            break; // fully drained, nothing scheduled
        }
        // Half 2: nothing is issuable strictly before the promise.
        let frozen = issued_commands(&ctrl, &dev);
        let gap_end = promised.min(horizon);
        for m in now + 1..gap_end {
            ctrl.tick(&mut dev, m, &mut out).expect("legal schedule");
            let after = issued_commands(&ctrl, &dev);
            assert_eq!(
                after, frozen,
                "seed {seed} {kind:?}: command issued at {m}, before the promised wake \
                 {promised} made at {now}"
            );
        }
        now = gap_end;
    }
    // The property run must also make real progress.
    assert!(!out.is_empty(), "seed {seed} {kind:?}: nothing completed in {horizon} ns");
}

#[test]
fn promised_wakes_are_exact_on_qb_hbm() {
    for seed in [1u64, 9, 23] {
        drive(DramKind::QbHbm, seed, 96, 6_000);
    }
}

#[test]
fn promised_wakes_are_exact_on_fgdram() {
    for seed in [3u64, 17] {
        drive(DramKind::Fgdram, seed, 96, 6_000);
    }
}

#[test]
fn promised_wakes_are_exact_under_refresh_pressure() {
    // Long horizon on an idle-ish controller: refresh quiesce fences and
    // timeout closes dominate the promises.
    drive(DramKind::QbHbm, 5, 24, 20_000);
}

/// ROADMAP 4(a): on GUPS/FGDRAM, before passes were skipped, 37 % of
/// them issued nothing (a grain woke for an activate whose row bus a
/// sibling had taken, or for an arrival no probe could see).
#[test]
fn gups_on_fgdram_runs_few_idle_passes() {
    let w = suites::by_name("GUPS").expect("in suite");
    let mut sys = SystemBuilder::new(DramKind::Fgdram).workload(w).build().expect("builds");
    sys.run_for(20_000).expect("warm-up runs");
    sys.reset_stats();
    sys.run_for(10_000).expect("window runs");
    let s = sys.controller().stats();
    let share = s.idle_passes.get() as f64 / s.passes.get() as f64;
    assert!(s.rearmed.get() > 0, "no channel was re-armed");
    assert!(
        share <= 0.10,
        "idle-pass share {share:.3} ({} of {})",
        s.idle_passes.get(),
        s.passes.get()
    );
}

/// Each issued command costs one timing evaluation beyond the scheduler's
/// column probes: `try_issue` evaluates once where `earliest` then `issue`
/// evaluated twice, and an auto-precharge reads its slot's fence instead
/// of evaluating again (the parent tree read 5.77 per command here).
#[test]
fn gups_on_fgdram_evaluates_timing_once_per_issued_command() {
    let w = suites::by_name("GUPS").expect("in suite");
    let mut sys = SystemBuilder::new(DramKind::Fgdram).workload(w).build().expect("builds");
    sys.run_for(20_000).expect("warm-up runs");
    sys.reset_stats();
    let before = sys.device().timing_evals();
    sys.run_for(10_000).expect("window runs");
    let evals = sys.device().timing_evals() - before;
    let commands = sys.controller().stats().commands();
    let per_command = evals as f64 / commands as f64;
    assert!(per_command <= 3.8, "{per_command:.3} evaluations per command ({evals} / {commands})");
}
