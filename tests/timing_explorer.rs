//! Bounded exhaustive check of the device's timing rules against the
//! independent protocol checker: a deterministic depth-first search that
//! drives `DramDevice` and `ProtocolChecker` side by side through every
//! command sequence of up to [`DEPTH`] commands over a small alphabet,
//! issuing each legal command at the device's own `earliest` time. It is
//! fail-closed: any property violation panics with the configuration and
//! the command path that led to it.
//!
//! ## Modelled slice
//!
//! - **Configurations**: the four `DramKind`s, the five ablation
//!   constructors, and a stressed QB-HBM with tRRD 8 (above the 2 ns
//!   row-bus slot, so `ActRrd` is not masked by `CmdBusBusy`) and a
//!   2-per-100 ns tFAW window (so `ActFaw` binds). Each keeps one command
//!   bus: `channels = channels_per_cmd_channel`. Every rule is per
//!   channel or per command bus, so none drops out.
//! - **Alphabet** at every node: channels {0, 1} where grains share a
//!   bus, else {0}; banks {0, 1}; rows {0, 1, rows_per_subarray} (two
//!   rows of subarray 0, one of subarray 1); slices {0, 1} capped by the
//!   configuration. Per target: ACT, RD and WR with and without
//!   auto-precharge, PRE of the row; per bank PRE-all; per channel REF;
//!   an ACT to a bank that does not exist, and an ACT and a PRE each to a
//!   row and to a slice that do not exist.
//!
//! ## Properties, for every alphabet command at every node
//!
//! - **P1 sound**: `earliest(cmd, now) == Ok(e)` implies the checker
//!   accepts `cmd` at `e` (and so does `issue`).
//! - **P2 tight**: if `e > now`, the checker rejects `cmd` at `e - 1`,
//!   `try_issue(cmd, e - 1)` returns `NotBefore(e)` and `issue` at `e - 1`
//!   fails naming `e`.
//! - **P3 structural**: a device `Err(rule)` implies the checker rejects
//!   `cmd` with the same rule at a time past every fence, and `issue`
//!   there fails with it too.
//! - **P4 reject implies no change**: every rejected `issue`, `try_issue`
//!   or `check` leaves the device and the checker equal to their clones
//!   from before the call.
//!
//! The node count and the rule the checker named at each P2 probe and P3
//! rejection are printed per configuration. The test fails if a
//! configuration explores fewer nodes than its floor (a silently shrunk
//! bound) or if some `Rule` is never witnessed.
//!
//! ## Scope limits
//!
//! - Bounded exploration is not a proof: sequences longer than `DEPTH`
//!   commands (plus the probed one), rows beyond the first two subarrays,
//!   and targets off the alphabet are not explored. Random full-size
//!   streams over every bank and four subarrays (`tests/device_timing.rs`)
//!   keep P1 and P2 beyond the bound.
//! - Both models read the same `TimingParams`: a wrong Table 2 value is
//!   invisible here and is pinned by the unit tests that assert cycles.
//! - The controller is not modelled: the scheduler's wake contract is
//!   checked by the bounded explorer in `fgdram-ctrl`
//!   (`scheduler::wake_explorer`).

use fgdram::dram::{DramDevice, ProtocolChecker, Rule, TryIssue};
use fgdram::model::addr::ReqId;
use fgdram::model::cmd::{BankRef, DramCommand, TimedCommand};
use fgdram::model::config::{DramConfig, DramKind};
use fgdram::model::units::Ns;

/// Commands issued along the longest explored path; each node also probes
/// every alphabet command once more.
const DEPTH: usize = 3;

/// Past every fence `DEPTH` commands can set (tRFC 160 ns is the longest),
/// so at `now + FAR` only structural rules can reject.
const FAR: Ns = 10_000;

/// The explored configurations with their node floors (about 90 % of the
/// count this bound explores).
fn configs() -> Vec<(&'static str, DramConfig, u64)> {
    let mut stressed = DramConfig::new(DramKind::QbHbm);
    stressed.timing.t_rrd = 8;
    stressed.timing.t_faw = 100;
    stressed.timing.acts_in_faw = 2;
    let mut all = vec![
        ("HBM2", DramConfig::new(DramKind::Hbm2), 560),
        ("QB-HBM", DramConfig::new(DramKind::QbHbm), 560),
        ("QB-HBM+SALP+SC", DramConfig::new(DramKind::QbHbmSalpSc), 2480),
        ("FGDRAM", DramConfig::new(DramKind::Fgdram), 3240),
        ("QB-HBM atom 128 B", DramConfig::qb_hbm_atom128(), 560),
        ("QB-HBM deep bank groups", DramConfig::qb_hbm_deep_bank_groups(), 560),
        ("FGDRAM non-stacked", DramConfig::fgdram_non_stacked(), 3240),
        ("QB-HBM SALP only", DramConfig::qb_hbm_salp_only(), 560),
        ("QB-HBM subchannels only", DramConfig::qb_hbm_subchannels_only(), 2960),
        ("QB-HBM tRRD 8, tFAW 2/100", stressed, 560),
    ];
    for (_, cfg, _) in &mut all {
        cfg.channels = cfg.channels_per_cmd_channel;
    }
    all
}

fn alphabet(cfg: &DramConfig) -> Vec<DramCommand> {
    let channels = if cfg.channels_per_cmd_channel > 1 { 2 } else { 1 };
    let rows = [0, 1, cfg.rows_per_subarray() as u32];
    let slices = cfg.slices_per_row().min(2) as u32;
    let apa = cfg.atoms_per_activation() as u32;
    let mut cmds = Vec::new();
    for channel in 0..channels {
        for b in 0..2 {
            let bank = BankRef { channel, bank: b };
            for row in rows {
                for slice in 0..slices {
                    cmds.push(DramCommand::Activate { bank, row, slice });
                    let (col, req) = (slice * apa, ReqId(0));
                    for auto_precharge in [false, true] {
                        cmds.push(DramCommand::Read { bank, row, col, auto_precharge, req });
                        cmds.push(DramCommand::Write { bank, row, col, auto_precharge, req });
                    }
                    cmds.push(DramCommand::Precharge { bank, row: Some(row), slice });
                }
            }
            cmds.push(DramCommand::Precharge { bank, row: None, slice: 0 });
        }
        cmds.push(DramCommand::Refresh { channel });
    }
    let missing = BankRef { channel: 0, bank: cfg.banks_per_channel as u32 };
    cmds.push(DramCommand::Activate { bank: missing, row: 0, slice: 0 });
    let bank = BankRef { channel: 0, bank: 0 };
    let (past_row, past_slice) = (cfg.rows_per_bank as u32, cfg.slices_per_row() as u32);
    for (row, slice) in [(past_row, 0), (0, past_slice)] {
        cmds.push(DramCommand::Activate { bank, row, slice });
        cmds.push(DramCommand::Precharge { bank, row: Some(row), slice });
    }
    cmds
}

struct Explorer {
    name: &'static str,
    alphabet: Vec<DramCommand>,
    nodes: u64,
    /// How often the checker named each `Rule::ALL` entry at a P2 probe or
    /// a P3 rejection.
    tally: [u64; Rule::ALL.len()],
    path: Vec<TimedCommand>,
}

impl Explorer {
    fn at(&self, cmd: &DramCommand, at: Ns) -> String {
        format!("{}: {cmd:?} at {at} after {:?}", self.name, self.path)
    }

    /// The checker must reject `cmd` at `at` (property `prop`); counts its
    /// rule and returns it.
    fn checker_rejects(
        &mut self,
        prop: &str,
        chk: &mut ProtocolChecker,
        cmd: DramCommand,
        at: Ns,
    ) -> Rule {
        let err = match chk.check(&TimedCommand { at, cmd }) {
            Err(err) => err,
            Ok(()) => panic!("{prop}: checker accepts: {}", self.at(&cmd, at)),
        };
        let i = Rule::ALL.iter().position(|&r| r == err.rule).expect("every rule is in ALL");
        self.tally[i] += 1;
        err.rule
    }

    /// Checks P1–P4 for every alphabet command at this node, then visits
    /// each command's successor while the path is shorter than `DEPTH`.
    /// Every device call is uncounted, so the timing-evaluation counter
    /// takes no part in the P4 comparisons.
    fn visit(&mut self, dev: &mut DramDevice, chk: &mut ProtocolChecker, now: Ns) {
        self.nodes += 1;
        let (dev0, chk0) = (dev.clone(), chk.clone());
        for i in 0..self.alphabet.len() {
            let cmd = self.alphabet[i];
            let rejected_at = match dev.uncounted(|d| d.earliest(&cmd, now)) {
                Ok(e) => {
                    let tc = TimedCommand { at: e, cmd };
                    let (mut d, mut c) = (dev.clone(), chk.clone());
                    if let Err(err) = c.check(&tc) {
                        panic!("P1: checker rejects with {:?}: {}", err.rule, self.at(&cmd, e));
                    }
                    d.uncounted(|d| d.issue(cmd, e)).expect("P1: issue at earliest");
                    if self.path.len() < DEPTH {
                        self.path.push(tc);
                        self.visit(&mut d, &mut c, e);
                        self.path.pop();
                    }
                    if e == now {
                        continue;
                    }
                    self.checker_rejects("P2", chk, cmd, e - 1);
                    let tried = dev.uncounted(|d| d.try_issue(cmd, e - 1));
                    assert_eq!(tried, Ok(TryIssue::NotBefore(e)), "P2: {}", self.at(&cmd, now));
                    let err = dev.uncounted(|d| d.issue(cmd, e - 1)).expect_err("P2: early issue");
                    assert_eq!(err.earliest, Some(e), "P2: {}", self.at(&cmd, e - 1));
                    e - 1
                }
                Err(err) => {
                    let far = now + FAR;
                    let rule = self.checker_rejects("P3", chk, cmd, far);
                    assert_eq!(rule, err.rule, "P3: {}", self.at(&cmd, far));
                    let again = dev.uncounted(|d| d.issue(cmd, far)).expect_err("P3: issue");
                    assert_eq!(again.rule, err.rule, "P3: {}", self.at(&cmd, far));
                    far
                }
            };
            let unchanged = (*dev == dev0, *chk == chk0);
            assert_eq!(
                unchanged,
                (true, true),
                "P4 (device, checker): {}",
                self.at(&cmd, rejected_at)
            );
        }
    }
}

#[test]
fn device_matches_the_checker_on_every_bounded_sequence() {
    let mut witnessed = [0u64; Rule::ALL.len()];
    for (name, cfg, floor) in configs() {
        let mut ex = Explorer {
            name,
            alphabet: alphabet(&cfg),
            nodes: 0,
            tally: [0; Rule::ALL.len()],
            path: Vec::new(),
        };
        ex.visit(&mut DramDevice::new(cfg.clone()), &mut ProtocolChecker::new(cfg), 0);
        let tally: Vec<String> = Rule::ALL
            .iter()
            .zip(ex.tally)
            .filter(|&(_, n)| n > 0)
            .map(|(r, n)| format!("{r:?} {n}"))
            .collect();
        println!("{name}: {} nodes at depth {DEPTH}; {}", ex.nodes, tally.join(", "));
        assert!(ex.nodes >= floor, "{name}: {} nodes, floor {floor}", ex.nodes);
        for (w, n) in witnessed.iter_mut().zip(ex.tally) {
            *w += n;
        }
    }
    let missing: Vec<_> = Rule::ALL.iter().zip(witnessed).filter(|&(_, n)| n == 0).collect();
    assert!(missing.is_empty(), "rules never witnessed: {missing:?}");
}
