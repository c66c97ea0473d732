//! Property-based tests of the scheduler.

use griffin::{Proc, Scheduler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Above the minimum-work floor, the decision is monotone in the
    /// ratio: if some ratio goes to the CPU, every higher ratio (same
    /// placement) must too. (Below the floor everything is CPU by
    /// definition, so monotonicity only holds per-side of the floor.)
    #[test]
    fn decision_is_monotone_in_ratio(short in 1usize..1_000_000,
                                     long in 1usize..100_000_000,
                                     longer in 0usize..100_000_000) {
        let s = Scheduler::for_block_len(128);
        let long = long.max(s.min_gpu_work);
        for current in [Proc::Cpu, Proc::Gpu] {
            if s.decide_traced(short, long, current).chosen.proc() == Proc::Cpu {
                let bigger = long.saturating_add(longer);
                prop_assert_eq!(s.decide_traced(short, bigger, current).chosen.proc(), Proc::Cpu,
                    "short={} long={} bigger={} current={:?}", short, long, bigger, current);
            }
        }
        // Below the floor the answer is always CPU.
        if s.min_gpu_work > 1 {
            prop_assert_eq!(s.decide_traced(short, s.min_gpu_work - 1, Proc::Gpu).chosen.proc(), Proc::Cpu);
        }
    }

    /// Hysteresis only ever *keeps* work on the current processor — it can
    /// never flip a decision toward a migration.
    #[test]
    fn hysteresis_never_forces_migration(short in 1usize..1_000_000,
                                         long in 1usize..100_000_000) {
        let aware = Scheduler::for_block_len(128);
        let static_ = Scheduler {
            hysteresis: 1.0,
            ..aware.clone()
        };
        for current in [Proc::Cpu, Proc::Gpu] {
            let a = aware.decide_traced(short, long, current).chosen.proc();
            let s = static_.decide_traced(short, long, current).chosen.proc();
            if a != s {
                // Disagreements must be the aware scheduler *staying put*.
                prop_assert_eq!(a, current);
            }
        }
    }

    /// The paper's Fig. 9 guarantee, as a property over all sizes.
    #[test]
    fn skippable_guarantee_matches_definition(short in 1usize..100_000,
                                              long in 1usize..10_000_000,
                                              block in prop::sample::select(vec![64usize, 128, 256])) {
        let s = Scheduler::for_block_len(block);
        let guaranteed = s.skippable_blocks_guaranteed(short, long, block);
        prop_assert_eq!(guaranteed, short < long.div_ceil(block));
        // Ratio above block size with full blocks implies the guarantee.
        if short > 0 && long >= short * block && long % block == 0 && long / short > block {
            prop_assert!(s.skippable_blocks_guaranteed(short, long, block));
        }
    }
}
