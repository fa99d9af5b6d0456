//! Seeded chaos-plan generation over the full fault vocabulary.
//!
//! Hand-picked scenario tests each exercise one fault shape at a time; the
//! bugs that survive them hide in *compositions* — a partition racing a
//! replacement, a Byzantine leader under pre-GST asynchrony, a memory-node
//! crash while a joiner scans its register banks. [`ChaosPlan::generate`]
//! draws such compositions from a seed, constrained by the validity rules
//! that keep a plan inside the deployment's fault budget (at most `f`
//! *concurrently* faulty replicas per group, at most `f_m` crashed memory
//! nodes, one lifecycle per replica), and [`shrink`] reduces a failing
//! plan to its smallest still-failing core so the repro a human reads is
//! minimal.
//!
//! Everything is deterministic: the same `(seed, space)` always yields the
//! same plan, and a printed plan ([`ChaosPlan::repro_string`]) rebuilds
//! byte-identically via the [`FailurePlan`] builders.

use crate::failure::{ByzantineMode, FailurePlan, Fault};
use crate::rng::SimRng;
use ubft_types::{Duration, Time};

/// Seed-space salt so chaos streams never collide with other consumers of
/// the experiment seed.
const CHAOS_SALT: u64 = 0xC4A0_5EED_0DDB_A115;

/// The fault space a chaos plan is drawn from: the deployment shape, the
/// time horizon faults land in, and the budgets the validity rules
/// enforce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSpace {
    /// Number of consensus groups (shards).
    pub groups: usize,
    /// Replicas per group (`n = 2f + 1`).
    pub replicas: usize,
    /// Byzantine/crash budget per group.
    pub f: usize,
    /// Memory nodes shared by every group (`2 f_m + 1`).
    pub mem_nodes: usize,
    /// Memory-node crash budget.
    pub f_m: usize,
    /// All fault times land in `[0, horizon)`; partitions heal by then.
    pub horizon: Duration,
    /// Most faults one plan composes.
    pub max_faults: usize,
    /// How long after its rejoin a replaced replica still counts as
    /// faulty: the boot instant is not the recovered instant — the join
    /// handshake and state transfer need `f + 1` live peers — so plans
    /// that stack a second fault right after a rejoin are rejected.
    pub recovery_margin: Duration,
}

impl ChaosSpace {
    /// The paper-default single-group shape (`f = 1`, `f_m = 1`) with a
    /// 1.5 ms fault horizon.
    pub fn paper_default() -> Self {
        ChaosSpace {
            groups: 1,
            replicas: 3,
            f: 1,
            mem_nodes: 3,
            f_m: 1,
            horizon: Duration::from_micros(1_500),
            max_faults: 4,
            recovery_margin: Duration::from_micros(600),
        }
    }

    /// Spreads the same per-group budgets over `groups` shards.
    #[must_use]
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups.max(1);
        self
    }

    /// Overrides the fault horizon.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Overrides the per-plan fault cap (clamped to at least one).
    #[must_use]
    pub fn with_max_faults(mut self, max_faults: usize) -> Self {
        self.max_faults = max_faults.max(1);
        self
    }
}

/// A generated fault schedule: the seed it was drawn from and the
/// [`FailurePlan`] it drew — every fault addressed to its group, plus an
/// optional pre-GST asynchrony phase. A run takes the plan as it is
/// (`SimConfig::with_chaos`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed this plan was drawn from (0 for hand-written plans).
    pub seed: u64,
    /// The schedule, faults in generation order.
    pub failures: FailurePlan,
}

fn at_us(us: u64) -> Time {
    Time::ZERO + Duration::from_micros(us)
}

fn micros(t: Time) -> u64 {
    t.since(Time::ZERO).as_nanos() / 1_000
}

/// The index of the replica whose lifecycle `f` is part of, if it is one.
fn lifecycle_index(f: &Fault) -> Option<usize> {
    match f {
        Fault::ReplicaCrash { index, .. }
        | Fault::Byzantine { index, .. }
        | Fault::Replace { index, .. } => Some(*index),
        Fault::MemNodeCrash { .. } | Fault::Partition { .. } => None,
    }
}

/// When the replica lifecycle `f` is part of turns faulty, if it is one.
fn lifecycle_start(f: &Fault) -> Option<Time> {
    match f {
        Fault::ReplicaCrash { at, .. } => Some(*at),
        Fault::Byzantine { from, .. } => Some(*from),
        Fault::Replace { crash_at, .. } => Some(*crash_at),
        Fault::MemNodeCrash { .. } | Fault::Partition { .. } => None,
    }
}

impl ChaosPlan {
    /// A plan with no faults and no asynchrony (the fault-free reference).
    pub fn none() -> Self {
        ChaosPlan { seed: 0, failures: FailurePlan::none() }
    }

    /// Draws a valid plan from `seed`. Deterministic: the same
    /// `(seed, space)` always yields the same plan. Candidate faults that
    /// would break a validity rule are discarded and redrawn (bounded
    /// attempts), so every generated plan satisfies
    /// [`ChaosPlan::is_valid`].
    pub fn generate(seed: u64, space: &ChaosSpace) -> ChaosPlan {
        let mut rng = SimRng::new(seed ^ CHAOS_SALT);
        let mut plan = ChaosPlan { seed, failures: FailurePlan::none() };
        let horizon_us = (space.horizon.as_nanos() / 1_000).max(200);
        // One plan in three opens with an asynchronous prefix: timeouts
        // misfire, the slow path and spurious view changes kick in.
        if rng.chance(1, 3) {
            plan.failures.gst = at_us(rng.gen_range_inclusive(100, horizon_us));
            plan.failures.pre_gst_extra = Duration::from_micros(rng.gen_range_inclusive(20, 200));
        }
        let target = 1 + rng.gen_range(space.max_faults.max(1) as u64) as usize;
        let mut attempts = 0;
        while plan.failures.faults.len() < target && attempts < 96 {
            attempts += 1;
            let cand = draw_fault(&mut rng, space, horizon_us);
            if plan.admits(space, &cand) {
                plan.failures.faults.push(cand);
            }
        }
        plan
    }

    /// Whether adding `fault` to group `group` keeps this plan inside the
    /// validity rules.
    pub fn admits(&self, space: &ChaosSpace, &(group, fault): &(usize, Fault)) -> bool {
        if group >= space.groups {
            return false;
        }
        // The group's plan as it would be with the candidate.
        let local = self.failures.group(group).with_fault(fault);
        let before = &local.faults()[..local.faults().len() - 1];
        match fault {
            Fault::ReplicaCrash { index, .. }
            | Fault::Byzantine { index, .. }
            | Fault::Replace { index, .. } => {
                if index >= space.replicas {
                    return false;
                }
                // One lifecycle (and one behaviour) per replica per plan:
                // compositions stay readable and a Byzantine mode never
                // outlives a replacement of the same identity.
                if before.iter().any(|(_, f)| lifecycle_index(f) == Some(index)) {
                    return false;
                }
                if let Fault::Replace { crash_at, rejoin_at, .. } = fault {
                    if rejoin_at <= crash_at {
                        return false;
                    }
                }
                // A replacement must be the *last* replica-lifecycle fault
                // of its group: the implementation only fully re-arms a
                // replacement at the next stable checkpoint (its join
                // replays at most a handful of certified commits, and
                // fast-path decisions carry no transferable certificate at
                // all), and checkpoint formation time is unbounded under
                // concurrent faults — so a lifecycle fault scheduled after
                // a rejoin can exceed the effective f budget in the
                // pre-checkpoint window. The chaos explorer found exactly
                // that (two pre-checkpoint replacements let the two
                // amnesiac fresh nodes certify view-change noop fillers
                // for slots the surviving replica had decided); closing it
                // protocol-side is a ROADMAP item.
                for (_, f) in local.faults() {
                    if let Fault::Replace { crash_at, .. } = f {
                        let later = local.faults().iter().any(|(_, other)| {
                            other != f && lifecycle_start(other).is_some_and(|t| t >= *crash_at)
                        });
                        if later {
                            return false;
                        }
                    }
                }
                // The budget: at most f *concurrently* faulty replicas in
                // the group, counting a replacement's recovery margin.
                local.peak_concurrent_faulty(space.recovery_margin) <= space.f
            }
            // Memory nodes are shared by every group: the f_m budget and
            // the one-crash-per-node rule are deployment-global.
            Fault::MemNodeCrash { index, .. } => {
                index < space.mem_nodes
                    && self.failures.mem_node_crash_time(index).is_none()
                    && self.failures.faulty_mem_node_count() < space.f_m
            }
            Fault::Partition { a, b, from, until } => {
                if a >= space.replicas || b >= space.replicas || a == b || from >= until {
                    return false;
                }
                if until > Time::ZERO + space.horizon {
                    return false; // partitions must heal inside the horizon
                }
                // At most one severed pair at a time per group: a second
                // concurrent cut can fully isolate a replica, which spends
                // the f budget without being accounted as a replica fault.
                !before.iter().any(|(_, f)| {
                    matches!(*f, Fault::Partition { from: f2, until: u2, .. } if from < u2 && f2 < until)
                })
            }
        }
    }

    /// Whether every fault of this plan is admitted by its predecessors —
    /// i.e. the plan could have been built fault-by-fault without breaking
    /// a validity rule. Generated and shrunk plans always are.
    pub fn is_valid(&self, space: &ChaosSpace) -> bool {
        let mut acc = ChaosPlan::none();
        for f in self.failures.faults() {
            if !acc.admits(space, f) {
                return false;
            }
            acc.failures.faults.push(*f);
        }
        true
    }

    /// Whether `self`'s faults are a sub-multiset of `other`'s and the
    /// asynchrony phase did not appear from nowhere — the monotonicity
    /// [`shrink`] guarantees.
    pub fn is_subset_of(&self, other: &ChaosPlan) -> bool {
        let mut pool: Vec<&(usize, Fault)> = other.failures.faults().iter().collect();
        for f in self.failures.faults() {
            match pool.iter().position(|p| *p == f) {
                Some(i) => {
                    pool.swap_remove(i);
                }
                None => return false,
            }
        }
        let asynchrony = |p: &FailurePlan| (p.gst, p.pre_gst_extra);
        self.failures.gst == Time::ZERO || asynchrony(&self.failures) == asynchrony(&other.failures)
    }

    /// The plan as copy-pasteable Rust: the one [`FailurePlan`] builder
    /// chain `SimConfig::with_chaos` runs — a stretch of faults in group
    /// `g > 0` inside one `.in_group(g, ..)` — ready to drop into a
    /// regression test.
    pub fn repro_string(&self) -> String {
        let faults = self.failures.faults();
        let mut s = format!(
            "// ChaosPlan seed {} ({} fault(s))\nFailurePlan::none()\n",
            self.seed,
            faults.len()
        );
        for stretch in faults.chunk_by(|a, b| a.0 == b.0) {
            let calls: Vec<String> = stretch.iter().map(|(_, f)| builder_call(f)).collect();
            match stretch[0].0 {
                0 => {
                    for c in calls {
                        s.push_str(&format!("    {c}\n"));
                    }
                }
                g => s.push_str(&format!(
                    "    .in_group({g}, FailurePlan::none(){})\n",
                    calls.concat()
                )),
            }
        }
        if self.failures.gst > Time::ZERO {
            s.push_str(&format!(
                "    .with_asynchrony(us({}), Duration::from_micros({}))\n",
                micros(self.failures.gst),
                self.failures.pre_gst_extra.as_nanos() / 1_000
            ));
        }
        s
    }
}

/// The [`FailurePlan`] builder call that schedules `f`.
fn builder_call(f: &Fault) -> String {
    match *f {
        Fault::ReplicaCrash { index, at } => format!(".crash_replica({index}, us({}))", micros(at)),
        Fault::MemNodeCrash { index, at } => {
            format!(".crash_mem_node({index}, us({}))", micros(at))
        }
        Fault::Byzantine { index, mode, from } => {
            format!(".byzantine({index}, ByzantineMode::{mode:?}, us({}))", micros(from))
        }
        Fault::Replace { index, crash_at, rejoin_at } => format!(
            ".replace_replica({index}, us({}), us({}))",
            micros(crash_at),
            micros(rejoin_at)
        ),
        Fault::Partition { a, b, from, until } => {
            format!(".partition({a}, {b}, us({}), us({}))", micros(from), micros(until))
        }
    }
}

/// Draws one candidate fault; validity is the caller's problem
/// ([`ChaosPlan::admits`] filters).
fn draw_fault(rng: &mut SimRng, space: &ChaosSpace, horizon_us: u64) -> (usize, Fault) {
    let group = rng.gen_range(space.groups as u64) as usize;
    let t = |rng: &mut SimRng| at_us(rng.gen_range_inclusive(50, horizon_us));
    let fault = match rng.gen_range(6) {
        0 => {
            Fault::ReplicaCrash { index: rng.gen_range(space.replicas as u64) as usize, at: t(rng) }
        }
        1 => {
            let mode = match rng.gen_range(5) {
                0 => ByzantineMode::EquivocateProposals,
                1 => ByzantineMode::Silent,
                2 => ByzantineMode::CensorRequests,
                3 => ByzantineMode::CorruptRegisters,
                _ => ByzantineMode::Laggard,
            };
            Fault::Byzantine {
                index: rng.gen_range(space.replicas as u64) as usize,
                mode,
                from: t(rng),
            }
        }
        2 => Fault::MemNodeCrash {
            index: rng.gen_range(space.mem_nodes.max(1) as u64) as usize,
            at: t(rng),
        },
        3 => {
            let crash_at = t(rng);
            let delay = Duration::from_micros(rng.gen_range_inclusive(100, 700));
            Fault::Replace {
                index: rng.gen_range(space.replicas as u64) as usize,
                crash_at,
                rejoin_at: crash_at + delay,
            }
        }
        _ => {
            let a = rng.gen_range(space.replicas as u64) as usize;
            let b = rng.gen_range(space.replicas as u64) as usize;
            let from_us = rng.gen_range_inclusive(50, horizon_us.saturating_sub(100).max(51));
            let until_us = rng.gen_range_inclusive(from_us + 50, horizon_us.max(from_us + 50));
            Fault::Partition { a, b, from: at_us(from_us), until: at_us(until_us) }
        }
    };
    (group, fault)
}

/// Greedily minimizes a failing plan: repeatedly drops single faults (and
/// the asynchrony phase) as long as `still_fails` keeps returning `true`,
/// until no single removal preserves the failure. The result is a
/// sub-multiset of the input ([`ChaosPlan::is_subset_of`]) and — because
/// every validity rule is monotone under fault removal — still valid.
pub fn shrink(
    plan: &ChaosPlan,
    space: &ChaosSpace,
    mut still_fails: impl FnMut(&ChaosPlan) -> bool,
) -> ChaosPlan {
    let mut cur = plan.clone();
    loop {
        let mut reduced = false;
        if cur.failures.gst > Time::ZERO {
            let mut cand = cur.clone();
            (cand.failures.gst, cand.failures.pre_gst_extra) = (Time::ZERO, Duration::ZERO);
            if still_fails(&cand) {
                cur = cand;
                reduced = true;
            }
        }
        let mut i = 0;
        while i < cur.failures.faults.len() {
            let mut cand = cur.clone();
            cand.failures.faults.remove(i);
            if still_fails(&cand) {
                cur = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            break;
        }
    }
    debug_assert!(cur.is_valid(space), "shrinking must preserve validity");
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let space = ChaosSpace::paper_default();
        for seed in 0..40u64 {
            assert_eq!(ChaosPlan::generate(seed, &space), ChaosPlan::generate(seed, &space));
        }
        // Different seeds draw different plans (overwhelmingly).
        let distinct: std::collections::BTreeSet<String> =
            (0..40u64).map(|s| format!("{:?}", ChaosPlan::generate(s, &space))).collect();
        assert!(distinct.len() > 30, "only {} distinct plans in 40 seeds", distinct.len());
    }

    #[test]
    fn generated_plans_are_valid_and_nonempty() {
        let space = ChaosSpace::paper_default().with_groups(2);
        for seed in 0..200u64 {
            let plan = ChaosPlan::generate(seed, &space);
            assert!(plan.is_valid(&space), "seed {seed} generated an invalid plan: {plan:?}");
            assert!(
                !plan.failures.faults().is_empty() || plan.failures.gst > Time::ZERO,
                "seed {seed} generated an empty plan"
            );
            assert!(plan.failures.groups() <= space.groups);
            for g in 0..space.groups {
                assert!(plan.failures.group(g).faulty_replica_count() <= space.f);
            }
            assert!(plan.failures.faulty_mem_node_count() <= space.f_m);
        }
    }

    #[test]
    fn replacement_must_be_the_last_lifecycle_fault() {
        let space = ChaosSpace::paper_default().with_horizon(Duration::from_micros(5_000));
        let replace = (0, Fault::Replace { index: 0, crash_at: at_us(100), rejoin_at: at_us(300) });
        let late_crash = (0, Fault::ReplicaCrash { index: 1, at: at_us(2_000) });
        let partition = (0, Fault::Partition { a: 0, b: 1, from: at_us(400), until: at_us(900) });
        let mut plan = ChaosPlan::none();
        assert!(plan.admits(&space, &replace));
        plan.failures.faults.push(replace);
        // No replica-lifecycle fault may start after a replacement's crash:
        // the replacement is only fully re-armed at the next stable
        // checkpoint, whose formation time is unbounded under faults.
        assert!(!plan.admits(&space, &late_crash));
        // Network faults still compose freely (they exercise the join's
        // retransmission path).
        assert!(plan.admits(&space, &partition));
        // And the same crash is rejected the other way around too.
        let mut crash_first = ChaosPlan::none();
        crash_first.failures.faults.push(late_crash);
        assert!(!crash_first.admits(&space, &replace));
    }

    #[test]
    fn mem_node_budget_is_deployment_global() {
        let space = ChaosSpace::paper_default().with_groups(2);
        let mut plan = ChaosPlan::none();
        let m0 = (0, Fault::MemNodeCrash { index: 0, at: at_us(100) });
        let m1 = (1, Fault::MemNodeCrash { index: 1, at: at_us(100) });
        assert!(plan.admits(&space, &m0));
        plan.failures.faults.push(m0);
        // f_m = 1: a second node may not crash even from another shard's
        // plan (the nodes are shared).
        assert!(!plan.admits(&space, &m1));
    }

    #[test]
    fn shrink_is_greedy_minimal_and_monotone() {
        let space = ChaosSpace::paper_default().with_horizon(Duration::from_micros(8_000));
        let culprit = (0, Fault::ReplicaCrash { index: 2, at: at_us(700) });
        let failures = FailurePlan::none()
            .partition(0, 1, at_us(100), at_us(400))
            .crash_replica(2, at_us(700))
            .crash_mem_node(1, at_us(900))
            .with_asynchrony(at_us(500), Duration::from_micros(80));
        let plan = ChaosPlan { seed: 7, failures };
        assert!(plan.is_valid(&space));
        // "Fails" iff the culprit crash is present.
        let shrunk = shrink(&plan, &space, |p| p.failures.faults().contains(&culprit));
        assert_eq!(shrunk.failures.faults(), [culprit]);
        assert_eq!(shrunk.failures.gst, Time::ZERO);
        assert!(shrunk.is_subset_of(&plan));
        assert!(shrunk.is_valid(&space));
    }

    #[test]
    fn repro_string_names_every_fault() {
        let failures = FailurePlan::none()
            .replace_replica(1, at_us(200), at_us(500))
            .in_group(1, FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, at_us(50)))
            .crash_mem_node(2, at_us(900))
            .with_asynchrony(at_us(300), Duration::from_micros(40));
        let s = ChaosPlan { seed: 3, failures }.repro_string();
        // One builder chain, in schedule order.
        assert_eq!(
            s,
            "// ChaosPlan seed 3 (3 fault(s))\n\
             FailurePlan::none()\n    \
             .replace_replica(1, us(200), us(500))\n    \
             .in_group(1, FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, us(50)))\n    \
             .crash_mem_node(2, us(900))\n    \
             .with_asynchrony(us(300), Duration::from_micros(40))\n"
        );
    }
}
