//! `--seed` -> inputs. The library never sees the seed: it receives only
//! the generated [`Workload`] structs and the job list derived here.

use fgdram::model::rng::SmallRng;
use fgdram::workloads::Workload;

/// SplitMix64 finaliser: spreads a small driver seed over all 64 bits.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Re-seeds `w` for benchmark seed `seed`. Seed 0 is the identity, so the
/// default run simulates exactly the suites' checked-in streams (the ones
/// the golden files and `EXPERIMENTS.md` use).
pub fn reseed(mut w: Workload, seed: u64) -> Workload {
    if seed != 0 {
        w.seed ^= mix(seed);
    }
    w
}

/// A deterministic generator for stream `lane` of benchmark seed `seed`
/// (serve clients each draw their job types from their own lane).
pub fn rng(seed: u64, lane: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed ^ mix(lane)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram::workloads::suites;

    #[test]
    fn seed_zero_is_the_identity_and_other_seeds_are_deterministic() {
        let gups = suites::by_name("GUPS").expect("GUPS is in the compute suite");
        assert_eq!(reseed(gups.clone(), 0), gups);
        let a = reseed(gups.clone(), 7);
        assert_eq!(a, reseed(gups.clone(), 7));
        assert_ne!(a.seed, gups.seed);
        assert_ne!(a.seed, reseed(gups.clone(), 8).seed);
        // Only the seed moves: the workload's character is the suite's.
        assert_eq!(Workload { seed: gups.seed, ..a }, gups);
        let draw = |s, l| {
            let mut r = rng(s, l);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 1), draw(3, 1));
        assert_ne!(draw(3, 1), draw(3, 2));
    }
}
