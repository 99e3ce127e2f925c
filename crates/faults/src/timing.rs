//! Command timing-violation injection: a seeded perturber that pulls
//! random commands of a legal trace earlier in time ([`perturb`]), so
//! `--trace-check` can show the independent protocol checker in
//! `fgdram-dram` catching injected faults in a real simulation's command
//! stream.

use fgdram_model::cmd::TimedCommand;
use fgdram_model::rng::SmallRng;

/// Perturbs `n` randomly-chosen commands of a (presumed legal) trace,
/// pulling each 1–8 ns earlier, then restores time order with a stable
/// sort. Returns how many commands were actually shifted (a command
/// already at t=0 cannot move). Deterministic for a given `seed`.
pub fn perturb(trace: &mut [TimedCommand], seed: u64, n: u32) -> usize {
    if trace.is_empty() || n == 0 {
        return 0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut shifted = 0;
    for _ in 0..n {
        let idx = rng.random_index(trace.len());
        let delta = rng.random_range(1..9);
        let at = &mut trace[idx].at;
        if *at > 0 {
            *at = at.saturating_sub(delta);
            shifted += 1;
        }
    }
    trace.sort_by_key(|tc| tc.at);
    shifted
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_dram::ProtocolChecker;
    use fgdram_model::addr::ReqId;
    use fgdram_model::cmd::{BankRef, DramCommand};
    use fgdram_model::config::{DramConfig, DramKind};

    /// Row 5 opened, read twice and closed, then row 6 opened: legal on
    /// QB-HBM at exactly these times.
    fn legal_trace() -> Vec<TimedCommand> {
        let bank = BankRef { channel: 0, bank: 0 };
        let at = |at, cmd| TimedCommand { at, cmd };
        let rd =
            |col| DramCommand::Read { bank, row: 5, col, auto_precharge: false, req: ReqId(0) };
        vec![
            at(0, DramCommand::Activate { bank, row: 5, slice: 0 }),
            at(16, rd(0)),
            at(20, rd(1)),
            at(29, DramCommand::Precharge { bank, row: Some(5), slice: 0 }),
            at(45, DramCommand::Activate { bank, row: 6, slice: 0 }),
        ]
    }

    #[test]
    fn perturbation_is_deterministic_and_keeps_order() {
        let mut a = legal_trace();
        let mut b = legal_trace();
        assert_eq!(perturb(&mut a, 7, 3), perturb(&mut b, 7, 3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "stable re-sort keeps time order");
    }

    #[test]
    fn perturbation_gets_caught_by_the_checker() {
        // A perturbed legal trace should (for this seed) violate timing.
        let mut t = legal_trace();
        assert!(perturb(&mut t, 3, 4) > 0);
        let report = ProtocolChecker::new(DramConfig::new(DramKind::QbHbm)).report_trace(&t);
        assert!(!report.is_clean(), "seed 3 must inject a caught violation");
    }

    #[test]
    fn perturbing_nothing_is_a_noop() {
        let mut t = legal_trace();
        assert_eq!(perturb(&mut t, 1, 0), 0);
        assert_eq!(t, legal_trace());
        let mut empty: Vec<TimedCommand> = Vec::new();
        assert_eq!(perturb(&mut empty, 1, 5), 0);
    }
}
