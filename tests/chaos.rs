//! Chaos regression corpus + auditor self-tests.
//!
//! Two halves:
//!
//! * A fixed corpus of shrunk [`ChaosPlan`]s — fault compositions the
//!   generated explorer (`chaos_explore`) covers but no hand-written suite
//!   did before (partition racing a replacement, Byzantine leader under
//!   pre-GST asynchrony, memory-node crashes composed with everything).
//!   Every plan must complete all requests, audit clean under the
//!   omniscient [`Auditor`](ubft::runtime::audit::Auditor), and leave
//!   every correct replica at the *fault-free run's* digest.
//! * Mutation self-tests: an auditor that cannot fail is untested, so
//!   deliberate bugs are injected behind
//!   [`SimConfig::with_audit_mutation`] and each must be caught — plus a
//!   control run proving the auditor does not cry wolf.
//!
//! Everything is deterministic in the fixed seeds; a failure here is a
//! reproducible counterexample (print the plan with
//! [`ChaosPlan::repro_string`]).

use std::sync::OnceLock;

use ubft::runtime::audit::{AuditMutation, ViolationKind};
use ubft::runtime::cluster::Cluster;
use ubft::runtime::sharded::ShardedCluster;
use ubft::runtime::SimConfig;
use ubft_apps::workload::{kv_request, WorkloadRng};
use ubft_apps::{FlipApp, KvApp, KvFrontend};
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::chaos::{shrink, ChaosFault, ChaosPlan, ChaosSpace};
use ubft_sim::failure::{ByzantineMode, Fault};
use ubft_types::{Duration, Time};

const SEED: u64 = 0xC4A0_2026;
const REQUESTS: u64 = 300;

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Small tail/window so checkpoints — the anchor of state transfers and
/// the auditor's checkpoint-digest invariant — happen many times per run.
fn chaos_cfg() -> SimConfig {
    SimConfig::paper_default(SEED).with_tail(16).with_window(32).with_audit()
}

fn kv_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(KvApp::new(KvFrontend::Redis)) as Box<dyn App>).collect()
}

fn kv_workload() -> Box<dyn FnMut(u64) -> Vec<u8>> {
    let mut rng = WorkloadRng::new(SEED ^ 0xF00D);
    let mut populated = 0u64;
    Box::new(move |_| kv_request(&mut rng, &mut populated))
}

fn flip_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect()
}

fn flip_payload() -> Box<dyn FnMut(u64) -> Vec<u8>> {
    Box::new(|i| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    })
}

/// The fault-free reference digest (single client, so the executed request
/// sequence — and hence every digest — is schedule-independent).
fn fault_free_reference() -> &'static Digest {
    static REF: OnceLock<Digest> = OnceLock::new();
    REF.get_or_init(|| {
        let mut cluster = Cluster::new(chaos_cfg(), kv_apps(3), kv_workload());
        let report = cluster.run(REQUESTS, 0);
        assert_eq!(report.completed, REQUESTS);
        assert!(report.audit.expect("audited").is_clean());
        cluster.settle(Duration::from_millis(4));
        let digest = cluster.app_digest(0);
        for r in 1..3 {
            assert_eq!(cluster.app_digest(r), digest, "fault-free replicas disagree");
        }
        digest
    })
}

/// Replicas whose final digest must equal the fault-free reference: all
/// except plan-Byzantine ones (legally divergent) and crashed-for-good
/// ones (frozen at a prefix).
fn comparable_replicas(plan: &ChaosPlan) -> Vec<usize> {
    (0..3usize)
        .filter(|r| {
            !plan.faults.iter().any(|f| {
                matches!(f.fault,
                    Fault::Byzantine { index, .. } | Fault::ReplicaCrash { index, .. }
                    if index == *r)
            })
        })
        .collect()
}

fn g0(fault: Fault) -> ChaosFault {
    ChaosFault { group: 0, fault }
}

/// Runs one corpus plan: completes every request, audits clean, and every
/// comparable replica ends at the fault-free digest.
fn run_corpus_plan(name: &str, plan: &ChaosPlan) {
    assert!(plan.is_valid(&ChaosSpace::paper_default()), "{name}: invalid plan");
    let reference = *fault_free_reference();
    let cfg = chaos_cfg().with_chaos(plan);
    let mut cluster = Cluster::new(cfg, kv_apps(3), kv_workload());
    let report = cluster.run(REQUESTS, 0);
    assert_eq!(report.completed, REQUESTS, "{name}: requests lost");
    cluster.settle(Duration::from_millis(12));
    let audit = cluster.audit_report().expect("audited run");
    assert!(
        audit.is_clean(),
        "{name}: audit violations under\n{}{:#?}",
        plan.repro_string(),
        audit.violations
    );
    assert!(audit.decisions_checked > 0 && audit.executions_checked > 0);
    for r in comparable_replicas(plan) {
        assert_eq!(
            cluster.app_digest(r),
            reference,
            "{name}: replica {r} diverged from the fault-free run\n{}",
            plan.repro_string()
        );
    }
}

#[test]
fn corpus_partition_racing_a_replacement() {
    // The replacement boots *inside* the partition window: its Join must
    // survive message loss (the chaos explorer caught the one-shot Join
    // stalling forever; this pins the re-announce fix).
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Replace { index: 1, crash_at: us(300), rejoin_at: us(900) }),
            g0(Fault::Partition { a: 1, b: 2, from: us(400), until: us(1_400) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("partition+replacement", &plan);
}

#[test]
fn corpus_byzantine_leader_equivocation_under_asynchrony() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![g0(Fault::Byzantine {
            index: 0,
            mode: ByzantineMode::EquivocateProposals,
            from: Time::ZERO,
        })],
        asynchrony: Some((us(1_000), Duration::from_micros(100))),
    };
    run_corpus_plan("equivocating-leader+asynchrony", &plan);
}

#[test]
fn corpus_censoring_leader_behind_partition() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Byzantine { index: 0, mode: ByzantineMode::CensorRequests, from: us(200) }),
            g0(Fault::Partition { a: 1, b: 2, from: us(300), until: us(900) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("censoring-leader+partition", &plan);
}

#[test]
fn corpus_silent_replica_with_mem_node_crash() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Byzantine { index: 2, mode: ByzantineMode::Silent, from: us(150) }),
            g0(Fault::MemNodeCrash { index: 1, at: us(400) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("silent+mem-crash", &plan);
}

#[test]
fn corpus_laggard_with_partition() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Byzantine { index: 1, mode: ByzantineMode::Laggard, from: Time::ZERO }),
            g0(Fault::Partition { a: 0, b: 2, from: us(500), until: us(1_300) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("laggard+partition", &plan);
}

#[test]
fn corpus_corrupt_registers_with_mem_node_crash() {
    // Garbled SWMR entries *and* a crashed memory node: the slow path must
    // still deliver off the surviving quorum.
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Byzantine {
                index: 1,
                mode: ByzantineMode::CorruptRegisters,
                from: Time::ZERO,
            }),
            g0(Fault::MemNodeCrash { index: 2, at: us(600) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("corrupt-registers+mem-crash", &plan);
}

#[test]
fn corpus_follower_crash_under_asynchrony() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![g0(Fault::ReplicaCrash { index: 2, at: us(700) })],
        asynchrony: Some((us(800), Duration::from_micros(150))),
    };
    run_corpus_plan("crash+asynchrony", &plan);
}

#[test]
fn corpus_replacement_with_mem_node_crash() {
    // The joiner scans its predecessor's register banks while one memory
    // node is already gone: the scan must settle for the surviving quorum.
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::MemNodeCrash { index: 0, at: us(300) }),
            g0(Fault::Replace { index: 0, crash_at: us(500), rejoin_at: us(1_100) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("replacement+mem-crash", &plan);
}

#[test]
fn corpus_sequential_partitions_sweep_every_pair() {
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Partition { a: 0, b: 1, from: us(100), until: us(500) }),
            g0(Fault::Partition { a: 1, b: 2, from: us(600), until: us(1_000) }),
            g0(Fault::Partition { a: 0, b: 2, from: us(1_100), until: us(1_400) }),
        ],
        asynchrony: None,
    };
    run_corpus_plan("sequential-partitions", &plan);
}

#[test]
fn corpus_generated_plan_is_pinned_end_to_end() {
    // One generated plan pinned by seed: generation determinism and the
    // runner compose (if generation ever changes, this test names it).
    let space = ChaosSpace::paper_default();
    let plan = ChaosPlan::generate(0xC0FFEE, &space);
    assert!(!plan.faults.is_empty());
    run_corpus_plan("generated(0xC0FFEE)", &plan);
}

#[test]
fn corpus_sharded_byzantine_is_contained_and_clean() {
    // Two groups over one fabric and shared memory nodes; group 1's leader
    // censors. The auditor checks cross-shard containment for every keyed
    // request, and both shards audit clean.
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![ChaosFault {
            group: 1,
            fault: Fault::Byzantine {
                index: 0,
                mode: ByzantineMode::CensorRequests,
                from: us(200),
            },
        }],
        asynchrony: None,
    };
    assert!(plan.is_valid(&ChaosSpace::paper_default().with_groups(2)));
    let cfg = chaos_cfg().with_shards(2).with_chaos(&plan);
    let n = cfg.params.n();
    let mut sharded = ShardedCluster::new(cfg, |_| kv_apps(n), kv_workload());
    let report = sharded.run(REQUESTS, 0);
    assert_eq!(report.completed, REQUESTS);
    sharded.settle(Duration::from_millis(4));
    let audit = sharded.audit_report().expect("audited");
    assert!(audit.is_clean(), "violations: {:#?}", audit.violations);
    // Both shards really executed (keyed traffic spreads), so containment
    // was exercised, not vacuous.
    assert!(report.groups.iter().all(|s| s.completed > 0));
}

// ----------------------------------------------------------------------
// Auditor self-tests: injected bugs must be caught.
// ----------------------------------------------------------------------

fn mutated_audit(mutation: AuditMutation) -> ubft::runtime::audit::AuditReport {
    let cfg = SimConfig::paper_default(77).with_window(32).with_audit_mutation(mutation);
    let mut cluster = Cluster::new(cfg, flip_apps(3), flip_payload());
    let report = cluster.run(60, 0);
    assert_eq!(report.completed, 60, "mutations break safety, not the closed loop");
    cluster.settle(Duration::from_millis(2));
    cluster.audit_report().expect("audited")
}

#[test]
fn auditor_catches_a_skipped_certificate_check() {
    // Replica 1 decides on the first WILL_COMMIT / COMMIT instead of the
    // full quorum: certified-commit coverage must flag every such slot.
    let audit = mutated_audit(AuditMutation::DecideEarly { replica: 1 });
    assert!(!audit.is_clean(), "auditor missed the skipped certificate check");
    assert!(
        audit
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CommitCoverage && v.replica == Some(1)),
        "wrong violation kinds: {:#?}",
        audit.violations
    );
}

#[test]
fn auditor_catches_a_double_executed_slot() {
    // Replica 2 applies every request twice: its state leaves the
    // canonical prefix lattice, which the sequential-model comparison (and
    // checkpoint-digest agreement) must flag.
    let audit = mutated_audit(AuditMutation::DoubleExecute { replica: 2 });
    assert!(!audit.is_clean(), "auditor missed the double execution");
    assert!(
        audit.violations.iter().any(|v| v.kind == ViolationKind::Linearizability),
        "wrong violation kinds: {:#?}",
        audit.violations
    );
}

#[test]
fn auditor_catches_corrupted_execution() {
    // Replica 1 flips a payload byte before executing: per-slot execution
    // agreement (payload/response vs the canonical record) must flag it.
    let audit = mutated_audit(AuditMutation::CorruptExecution { replica: 1 });
    assert!(!audit.is_clean(), "auditor missed the corrupted execution");
    assert!(
        audit.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::SlotAgreement | ViolationKind::Linearizability
        )),
        "wrong violation kinds: {:#?}",
        audit.violations
    );
}

#[test]
fn auditor_does_not_cry_wolf() {
    // The exact configuration of the mutation tests, minus the mutation:
    // a clean bill, or the three tests above prove nothing.
    let cfg = SimConfig::paper_default(77).with_window(32).with_audit();
    let mut cluster = Cluster::new(cfg, flip_apps(3), flip_payload());
    let report = cluster.run(60, 0);
    assert_eq!(report.completed, 60);
    cluster.settle(Duration::from_millis(2));
    let audit = cluster.audit_report().expect("audited");
    assert!(audit.is_clean(), "false positives: {:#?}", audit.violations);
    assert!(audit.replicas_compared >= 3);
}

// ----------------------------------------------------------------------
// Shrinking a hand-broken plan to its core.
// ----------------------------------------------------------------------

/// A five-part plan whose *only* deadline-breaking ingredient is the
/// follower crash (it forces every later slot onto the signed slow path);
/// the shrinker must strip the decoys and isolate it.
#[test]
fn hand_broken_plan_shrinks_to_its_core() {
    let space = ChaosSpace::paper_default().with_horizon(Duration::from_micros(4_000));
    let culprit = g0(Fault::ReplicaCrash { index: 2, at: us(600) });
    let plan = ChaosPlan {
        seed: 0,
        faults: vec![
            g0(Fault::Partition { a: 0, b: 1, from: us(100), until: us(400) }),
            g0(Fault::MemNodeCrash { index: 1, at: us(300) }),
            culprit,
            g0(Fault::MemNodeCrash { index: 0, at: us(900) }),
        ],
        asynchrony: Some((us(250), Duration::from_micros(40))),
    };
    // f_m = 1 admits one memory-node crash; hand-written plans may exceed
    // the generator's budget, but this one must not (two mem crashes of
    // three nodes is legal only for f_m = 2) — use a wider space for
    // validity and keep the budget honest in the run itself.
    let wide = ChaosSpace { f_m: 2, ..space.clone() };
    assert!(plan.is_valid(&wide));

    // "Fails" = the run cannot finish 80 requests by a 8 ms virtual
    // deadline. Fault-free flip traffic needs ~1 ms; every decoy costs a
    // little; the crash forces ~70 slow-path slots at hundreds of µs each,
    // blowing the budget deterministically.
    let deadline = Time::ZERO + Duration::from_millis(8);
    let fails = |p: &ChaosPlan| {
        let cfg = SimConfig::paper_default(123).with_audit().with_chaos(p);
        let mut cluster = Cluster::new(cfg, flip_apps(3), flip_payload());
        let report = cluster.run_until(80, 0, deadline);
        // Safety is audited on every probe run, failing or not.
        assert!(report.audit.expect("audited").is_clean());
        report.completed < 80
    };
    assert!(fails(&plan), "the hand-broken plan must actually fail");
    let shrunk = shrink(&plan, &wide, fails);
    println!(
        "shrunk {} faults -> {}; repro:\n{}",
        plan.faults.len() + 1,
        shrunk.faults.len(),
        shrunk.repro_string()
    );
    assert!(shrunk.is_subset_of(&plan));
    assert!(shrunk.faults.len() <= 3, "core too large: {}", shrunk.repro_string());
    assert!(shrunk.faults.contains(&culprit), "core lost the culprit");
    assert!(fails(&shrunk));
}
