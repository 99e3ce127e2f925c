//! Randomized command schedules driven through the device model, with each
//! accepted command fed to the independent checker as it issues: the two
//! implementations must agree that every accepted command is legal, the
//! device must reject anything issued before its own `earliest` time, and
//! a command issued at that time must break a checker rule one nanosecond
//! earlier. Schedules are drawn from the repo's seeded PRNG, so runs
//! reproduce.

use fgdram::dram::{DramDevice, ProtocolChecker, Rule, TryIssue};
use fgdram::model::addr::ReqId;
use fgdram::model::cmd::{BankRef, DramCommand, TimedCommand};
use fgdram::model::config::{DramConfig, DramKind};
use fgdram::model::rng::SmallRng;

#[derive(Debug, Clone, Copy)]
enum OpChoice {
    Activate { row_sel: u8, slice_sel: u8 },
    Column { write: bool, col_sel: u8 },
    Precharge,
    Refresh,
}

/// Weighted op mix (3:4:2:1), matching the original proptest strategy.
fn arb_op(r: &mut SmallRng) -> (u8, u8, OpChoice, u8) {
    let op = match r.random_range(0..10) {
        0..=2 => OpChoice::Activate { row_sel: r.next_u64() as u8, slice_sel: r.next_u64() as u8 },
        3..=6 => OpChoice::Column { write: r.random_bool(0.5), col_sel: r.next_u64() as u8 },
        7..=8 => OpChoice::Precharge,
        _ => OpChoice::Refresh,
    };
    (r.next_u64() as u8, r.next_u64() as u8, op, r.next_u64() as u8)
}

/// Runs a random schedule on `kind`; every command is issued at the
/// device's own `earliest` time plus jitter, so every acceptance must be
/// checker-clean, every issue at exactly `earliest` tight, and structural
/// rejections must never reach the trace.
fn run_random_schedule(kind: DramKind, ops: &[(u8, u8, OpChoice, u8)]) {
    let cfg = DramConfig::new(kind);
    let mut dev = DramDevice::new(cfg.clone());
    dev.enable_trace();
    let mut checker = ProtocolChecker::new(cfg.clone());
    let mut accepted = Vec::new();
    let mut now = 0u64;
    for &(ch_sel, bank_sel, op, jitter) in ops {
        let channel = ch_sel as u32 % cfg.channels.min(8) as u32;
        let bank = bank_sel as u32 % cfg.banks_per_channel as u32;
        let bankref = BankRef { channel, bank };
        let cmd = match op {
            OpChoice::Activate { row_sel, slice_sel } => DramCommand::Activate {
                bank: bankref,
                row: row_sel as u32 * 37 % cfg.rows_per_bank as u32,
                slice: slice_sel as u32 % cfg.slices_per_row() as u32,
            },
            OpChoice::Column { write, col_sel } => {
                // Target an open row when one exists, else expect rejection.
                let open = dev.state().first_open(channel, bank).map(|o| (o.row, o.slice));
                let (row, slice) = open.unwrap_or((1, 0));
                let col = slice * cfg.atoms_per_activation() as u32
                    + col_sel as u32 % cfg.atoms_per_activation() as u32;
                if write {
                    DramCommand::Write {
                        bank: bankref,
                        row,
                        col,
                        auto_precharge: col_sel % 3 == 0,
                        req: ReqId(0),
                    }
                } else {
                    DramCommand::Read {
                        bank: bankref,
                        row,
                        col,
                        auto_precharge: col_sel % 3 == 0,
                        req: ReqId(0),
                    }
                }
            }
            OpChoice::Precharge => {
                let open = dev.state().first_open(channel, bank).map(|o| (o.row, o.slice));
                match open {
                    Some((row, slice)) => {
                        DramCommand::Precharge { bank: bankref, row: Some(row), slice }
                    }
                    None => DramCommand::Precharge { bank: bankref, row: None, slice: 0 },
                }
            }
            OpChoice::Refresh => DramCommand::Refresh { channel },
        };
        match dev.earliest(&cmd, now) {
            Ok(t) => {
                // Issuing earlier than `earliest` must be rejected...
                if t > now {
                    let err = dev.issue(cmd, now).expect_err("early issue must fail");
                    assert!(err.earliest.is_some() || err.rule != Rule::OutOfRange);
                }
                // ...and issuing at `earliest` (+ jitter) must succeed,
                // except when another command claimed a shared resource —
                // none can have, since we issue immediately.
                let at = dev.earliest(&cmd, t + (jitter % 3) as u64).expect("still schedulable");
                if at == t && t > now {
                    // Tight: the checker rejects it one nanosecond earlier
                    // (and records nothing).
                    let early = TimedCommand { at: t - 1, cmd };
                    assert!(checker.check(&early).is_err(), "{cmd:?} is legal before {t}");
                }
                dev.issue(cmd, at).expect("issue at earliest succeeds");
                let tc = TimedCommand { at, cmd };
                checker.check(&tc).expect("accepted command is checker-clean");
                accepted.push(tc);
                now = at;
            }
            Err(_) => {
                // Structurally impossible now (wrong row, conflicts):
                // must also fail to issue, leaving no trace entry.
                assert!(dev.issue(cmd, now).is_err());
            }
        }
    }
    assert_eq!(dev.take_trace(), accepted, "the trace holds exactly the accepted commands");
}

fn random_schedules_agree_with_checker(kind: DramKind, seed: u64, cases: usize, max_ops: u64) {
    let mut r = SmallRng::seed_from_u64(seed);
    for _ in 0..cases {
        let n = r.random_range(1..max_ops);
        let ops: Vec<_> = (0..n).map(|_| arb_op(&mut r)).collect();
        run_random_schedule(kind, &ops);
    }
}

#[test]
fn random_schedules_agree_with_checker_qb() {
    random_schedules_agree_with_checker(DramKind::QbHbm, 0xD3A1_0001, 40, 120);
}

#[test]
fn random_schedules_agree_with_checker_fgdram() {
    random_schedules_agree_with_checker(DramKind::Fgdram, 0xD3A1_0002, 40, 120);
}

#[test]
fn random_schedules_agree_with_checker_salp() {
    random_schedules_agree_with_checker(DramKind::QbHbmSalpSc, 0xD3A1_0003, 40, 120);
}

#[test]
fn random_schedules_agree_with_checker_hbm2() {
    random_schedules_agree_with_checker(DramKind::Hbm2, 0xD3A1_0004, 40, 100);
}

/// The channels a differential stream uses: four grains of one FGDRAM
/// command channel, so they contend for its row and column buses.
const DIFF_CHANNELS: u32 = 4;

/// A random command for `dev`'s current state: activates over rows that
/// share and split subarrays, columns and precharges mostly on open rows,
/// precharge-all, refresh, and now and then an out-of-range bank.
fn random_command(dev: &DramDevice, r: &mut SmallRng) -> DramCommand {
    let cfg = dev.config();
    let channel = r.random_range(0..DIFF_CHANNELS.min(cfg.channels as u32) as u64) as u32;
    let banks = cfg.banks_per_channel as u64 + u64::from(r.random_range(0..50) == 0);
    let bank = BankRef { channel, bank: r.random_range(0..banks) as u32 };
    let open = dev
        .state()
        .open_rows(channel, bank.bank)
        .nth(r.random_range(0..2) as usize)
        .map(|o| (o.row, o.slice));
    let apa = cfg.atoms_per_activation();
    match r.random_range(0..10) {
        0..=3 => DramCommand::Activate {
            bank,
            row: ((r.random_range(0..12) * 1031 + r.random_range(0..2)) % cfg.rows_per_bank as u64)
                as u32,
            slice: r.random_range(0..cfg.slices_per_row()) as u32,
        },
        4..=6 => {
            let (row, slice) = open.unwrap_or((1, 0));
            let col = (u64::from(slice) * apa + r.random_range(0..apa)) as u32;
            let (auto_precharge, req) = (r.random_bool(0.3), ReqId(r.next_u64()));
            if r.random_bool(0.5) {
                DramCommand::Write { bank, row, col, auto_precharge, req }
            } else {
                DramCommand::Read { bank, row, col, auto_precharge, req }
            }
        }
        7..=8 => match open {
            Some((row, slice)) if r.random_bool(0.8) => {
                DramCommand::Precharge { bank, row: Some(row), slice }
            }
            _ => DramCommand::Precharge { bank, row: None, slice: 0 },
        },
        _ => DramCommand::Refresh { channel },
    }
}

/// What can be observed of `dev` on the stream's channels: totals and
/// per-channel counters, bus fences, open rows with their fences, and the
/// `earliest` answer (or structural rule) for an activate, column,
/// precharge and refresh probe on every bank, which exposes the hidden
/// fences (tRRD, tFAW, tCCD, tWTR, row cycle, refresh, data bus).
fn observe(dev: &DramDevice, now: u64) -> String {
    use std::fmt::Write;
    let cfg = dev.config();
    let probe = |cmd: DramCommand| dev.earliest(&cmd, now).map_err(|e| e.rule);
    let st = dev.state();
    let mut s = format!("{:?}", dev.total_counters());
    for channel in 0..DIFF_CHANNELS.min(cfg.channels as u32) {
        let _ = write!(
            s,
            "\n{channel}: {:?} faw {} data {} buses {} {} acts {:?} ref {:?}",
            st.counters(channel),
            st.faw_headroom_sum(channel),
            st.data_bus(channel).busy_until(),
            dev.row_bus_free(channel),
            dev.col_bus_free(channel),
            st.bank_activates(channel),
            probe(DramCommand::Refresh { channel }),
        );
        for b in 0..cfg.banks_per_channel as u32 {
            let bank = BankRef { channel, bank: b };
            let _ = write!(
                s,
                "\n  {b}: act {:?} {:?} pre-all {:?}",
                probe(DramCommand::Activate { bank, row: 0, slice: 0 }),
                probe(DramCommand::Activate { bank, row: 3 * 1031, slice: 0 }),
                probe(DramCommand::Precharge { bank, row: None, slice: 0 }),
            );
            for o in st.open_rows(channel, b) {
                let (row, col) = (o.row, o.slice * cfg.atoms_per_activation() as u32);
                let _ = write!(
                    s,
                    " {o:?} rd {:?} wr {:?} pre {:?}",
                    probe(DramCommand::Read {
                        bank,
                        row,
                        col,
                        auto_precharge: false,
                        req: ReqId(0)
                    }),
                    probe(DramCommand::Write {
                        bank,
                        row,
                        col,
                        auto_precharge: false,
                        req: ReqId(0)
                    }),
                    probe(DramCommand::Precharge { bank, row: Some(row), slice: o.slice }),
                );
            }
        }
    }
    s
}

/// `try_issue` is `earliest` then `issue`: two devices driven through the
/// same random stream, one each way, agree on every outcome and on every
/// observable bit of state after every command, and a `try_issue` that is
/// not yet legal changes nothing.
fn try_issue_matches_earliest_then_issue(name: &str, cfg: DramConfig, seed: u64, steps: usize) {
    let mut r = SmallRng::seed_from_u64(seed);
    let (mut one, mut two) = (DramDevice::new(cfg.clone()), DramDevice::new(cfg));
    one.enable_trace();
    two.enable_trace();
    let mut now = 0;
    let (mut issued, mut waited) = (0, 0);
    let mut retry = None;
    for step in 0..steps {
        let cmd = retry.take().unwrap_or_else(|| random_command(&one, &mut r));
        let before = observe(&one, now);
        let got = one.try_issue(cmd, now);
        let want = match two.earliest(&cmd, now) {
            Ok(e) if e <= now => two.issue(cmd, now).map(TryIssue::Issued),
            Ok(e) => Ok(TryIssue::NotBefore(e)),
            Err(err) => Err(err),
        };
        assert_eq!(got, want, "{name} step {step}: {cmd:?} at {now}");
        match got {
            Ok(TryIssue::Issued(_)) => issued += 1,
            Ok(TryIssue::NotBefore(e)) => {
                waited += 1;
                assert_eq!(observe(&one, now), before, "{name} step {step}: a wait changed state");
                // Half the time, come back when it is legal.
                if r.random_bool(0.5) {
                    (now, retry) = (e, Some(cmd));
                }
            }
            Err(_) => {}
        }
        assert_eq!(one.take_trace(), two.take_trace(), "{name} step {step}: traces");
        assert_eq!(observe(&one, now), observe(&two, now), "{name} step {step}: state");
        now += r.random_range(0..4);
    }
    assert!(issued > steps / 5 && waited > steps / 100, "{name}: {issued} issued, {waited} waited");
}

#[test]
fn try_issue_matches_earliest_then_issue_on_every_kind_and_ablation() {
    let ablations = [
        DramConfig::qb_hbm_atom128(),
        DramConfig::qb_hbm_deep_bank_groups(),
        DramConfig::fgdram_non_stacked(),
        DramConfig::qb_hbm_salp_only(),
        DramConfig::qb_hbm_subchannels_only(),
    ];
    let configs = DramKind::ALL.into_iter().map(DramConfig::new).chain(ablations);
    for (i, cfg) in configs.enumerate() {
        let name = format!("config {i} ({:?})", cfg.kind);
        try_issue_matches_earliest_then_issue(&name, cfg, 0x7E55_0000 + i as u64, 2_000);
    }
}
