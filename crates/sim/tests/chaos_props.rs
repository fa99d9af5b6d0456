//! Property tests for the chaos-plan generator and shrinker: generation is
//! a pure function of the seed, every generated plan respects the validity
//! rules, and shrinking is monotone — the shrunk plan is a sub-multiset of
//! the original, still valid, and still failing.

use proptest::prelude::*;
use ubft_sim::chaos::{shrink, ChaosPlan, ChaosSpace};
use ubft_sim::failure::Fault;
use ubft_types::{Duration, Time};

fn space_for(groups: usize) -> ChaosSpace {
    ChaosSpace::paper_default().with_groups(groups)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// The same `(seed, space)` always yields the same plan — chaos runs
    /// reproduce from two numbers.
    #[test]
    fn generation_is_deterministic(seed in 0u64..100_000, groups in 1usize..4) {
        let space = space_for(groups);
        prop_assert_eq!(
            ChaosPlan::generate(seed, &space),
            ChaosPlan::generate(seed, &space)
        );
    }

    /// Every generated plan passes every validity rule: per-group
    /// concurrent-fault budget, deployment-global memory-node budget, one
    /// lifecycle per replica, replacement-last, partition exclusivity.
    #[test]
    fn generated_plans_are_valid(seed in 0u64..100_000, groups in 1usize..4) {
        let space = space_for(groups);
        let plan = ChaosPlan::generate(seed, &space);
        prop_assert!(plan.is_valid(&space), "seed {} invalid: {:?}", seed, plan);
        prop_assert!(plan.failures.groups() <= space.groups);
        for g in 0..space.groups {
            prop_assert!(plan.failures.group(g).faulty_replica_count() <= space.f);
        }
        let mem_crashed: std::collections::BTreeSet<usize> = plan
            .failures
            .faults()
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::MemNodeCrash { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        prop_assert!(mem_crashed.len() <= space.f_m);
    }

    /// Greedy shrinking is monotone: for any (deterministic) failure
    /// predicate, the shrunk plan is a sub-multiset of the original, still
    /// valid, still failing — and locally minimal for predicates that only
    /// look at single faults (no single removal preserves the failure).
    #[test]
    fn shrinking_is_monotone_subset_and_still_failing(
        seed in 0u64..100_000,
        pick in 0usize..8,
    ) {
        let space = space_for(1).with_max_faults(6).with_horizon(Duration::from_micros(4_000));
        let plan = ChaosPlan::generate(seed, &space);
        let faults = plan.failures.faults();
        if faults.is_empty() {
            return; // asynchrony-only plan: nothing to shrink against
        }
        // The "bug" triggers on one specific fault of the plan (what a
        // real violation caused by a single fault looks like).
        let culprit = faults[pick % faults.len()];
        let fails = |p: &ChaosPlan| p.failures.faults().contains(&culprit);
        let shrunk = shrink(&plan, &space, fails);
        prop_assert!(shrunk.is_subset_of(&plan));
        prop_assert!(shrunk.is_valid(&space));
        prop_assert!(fails(&shrunk));
        prop_assert_eq!(shrunk.failures.faults(), &[culprit]);
        prop_assert_eq!(shrunk.failures.gst, Time::ZERO);
    }

    /// Shrinking against a conjunction keeps exactly the conjuncts: the
    /// minimal still-failing core of "needs faults A and B" is `{A, B}`.
    #[test]
    fn shrinking_keeps_every_necessary_fault(seed in 0u64..100_000) {
        let space = space_for(1).with_max_faults(6).with_horizon(Duration::from_micros(4_000));
        let plan = ChaosPlan::generate(seed, &space);
        let faults = plan.failures.faults();
        if faults.len() < 2 {
            return; // nothing to strip between the two conjuncts
        }
        let (a, b) = (faults[0], faults[faults.len() - 1]);
        let fails = |p: &ChaosPlan| {
            p.failures.faults().contains(&a) && p.failures.faults().contains(&b)
        };
        let shrunk = shrink(&plan, &space, fails);
        prop_assert!(shrunk.is_subset_of(&plan));
        prop_assert!(fails(&shrunk));
        prop_assert_eq!(shrunk.failures.faults().len(), 2);
    }
}
