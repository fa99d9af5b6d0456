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

use ubft::runtime::audit::{progress_deadline, AuditMutation, AuditReport, ViolationKind};
use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_apps::workload::{kv_request, WorkloadRng};
use ubft_apps::{FlipApp, KvApp, KvFrontend};
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::chaos::{shrink, ChaosPlan, ChaosSpace};
use ubft_sim::failure::{ByzantineMode, FailurePlan, Fault};
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
            !plan.failures.faults().iter().any(|(_, f)| {
                matches!(*f,
                    Fault::Byzantine { index, .. } | Fault::ReplicaCrash { index, .. }
                    if index == *r)
            })
        })
        .collect()
}

/// A hand-written plan.
fn hand_written(failures: FailurePlan) -> ChaosPlan {
    ChaosPlan { seed: 0, failures }
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
    let plan = hand_written(FailurePlan::none().replace_replica(1, us(300), us(900)).partition(
        1,
        2,
        us(400),
        us(1_400),
    ));
    run_corpus_plan("partition+replacement", &plan);
}

#[test]
fn corpus_byzantine_leader_equivocation_under_asynchrony() {
    let plan = hand_written(
        FailurePlan::none()
            .byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO)
            .with_asynchrony(us(1_000), Duration::from_micros(100)),
    );
    run_corpus_plan("equivocating-leader+asynchrony", &plan);
}

#[test]
fn corpus_censoring_leader_behind_partition() {
    let plan = hand_written(
        FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, us(200)).partition(
            1,
            2,
            us(300),
            us(900),
        ),
    );
    run_corpus_plan("censoring-leader+partition", &plan);
}

#[test]
fn corpus_silent_replica_with_mem_node_crash() {
    let plan = hand_written(
        FailurePlan::none().byzantine(2, ByzantineMode::Silent, us(150)).crash_mem_node(1, us(400)),
    );
    run_corpus_plan("silent+mem-crash", &plan);
}

#[test]
fn corpus_laggard_with_partition() {
    let plan = hand_written(
        FailurePlan::none().byzantine(1, ByzantineMode::Laggard, Time::ZERO).partition(
            0,
            2,
            us(500),
            us(1_300),
        ),
    );
    run_corpus_plan("laggard+partition", &plan);
}

#[test]
fn corpus_corrupt_registers_with_mem_node_crash() {
    // Garbled SWMR entries *and* a crashed memory node: the slow path must
    // still deliver off the surviving quorum.
    let plan = hand_written(
        FailurePlan::none()
            .byzantine(1, ByzantineMode::CorruptRegisters, Time::ZERO)
            .crash_mem_node(2, us(600)),
    );
    run_corpus_plan("corrupt-registers+mem-crash", &plan);
}

#[test]
fn corpus_follower_crash_under_asynchrony() {
    let plan = hand_written(
        FailurePlan::none()
            .crash_replica(2, us(700))
            .with_asynchrony(us(800), Duration::from_micros(150)),
    );
    run_corpus_plan("crash+asynchrony", &plan);
}

#[test]
fn corpus_replacement_with_mem_node_crash() {
    // The joiner scans its predecessor's register banks while one memory
    // node is already gone: the scan must settle for the surviving quorum.
    let plan = hand_written(FailurePlan::none().crash_mem_node(0, us(300)).replace_replica(
        0,
        us(500),
        us(1_100),
    ));
    run_corpus_plan("replacement+mem-crash", &plan);
}

#[test]
fn corpus_sequential_partitions_sweep_every_pair() {
    let plan = hand_written(
        FailurePlan::none()
            .partition(0, 1, us(100), us(500))
            .partition(1, 2, us(600), us(1_000))
            .partition(0, 2, us(1_100), us(1_400)),
    );
    run_corpus_plan("sequential-partitions", &plan);
}

#[test]
fn corpus_a_commit_that_lands_after_the_seal_still_decides() {
    // Chaos seed 37's plan. r0 seals its view and only then delivers r1's
    // COMMIT of the old view for a slot both promised; f + 1 COMMITs for one
    // proposal decide it in whichever view they land, or r0 drops it and
    // moves through views alone while r2 is down.
    let plan = hand_written(
        FailurePlan::none()
            .crash_replica(2, us(665))
            .crash_mem_node(2, us(479))
            .partition(2, 0, us(404), us(1_303))
            .partition(1, 0, us(1_364), us(1_442)),
    );
    run_corpus_plan("seal-before-old-view-commit", &plan);
}

#[test]
fn corpus_generated_plan_is_pinned_end_to_end() {
    // One generated plan pinned by seed: generation determinism and the
    // runner compose (if generation ever changes, this test names it).
    let space = ChaosSpace::paper_default();
    let plan = ChaosPlan::generate(0xC0FFEE, &space);
    assert!(!plan.failures.faults().is_empty());
    run_corpus_plan("generated(0xC0FFEE)", &plan);
}

#[test]
fn corpus_sharded_byzantine_is_contained_and_clean() {
    // Two groups over one fabric and shared memory nodes; group 1's leader
    // censors. The auditor checks cross-shard containment for every keyed
    // request, and both shards audit clean.
    let censor = FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, us(200));
    let plan = hand_written(FailurePlan::none().in_group(1, censor));
    assert!(plan.is_valid(&ChaosSpace::paper_default().with_groups(2)));
    // The plan alone raises the deployment to the two groups it names.
    let cfg = chaos_cfg().with_chaos(&plan);
    assert_eq!(cfg.shards, 2);
    let mut cluster = Cluster::new(cfg, kv_apps(6), kv_workload());
    let report = cluster.run(REQUESTS, 0);
    assert_eq!(report.completed, REQUESTS);
    cluster.settle(Duration::from_millis(4));
    let audit = cluster.audit_report().expect("audited");
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
fn auditor_catches_an_executed_request_no_client_sent() {
    // Every replica is handed one request that no client port sent: the
    // followers hold it, so it is endorsed and executes everywhere, in
    // agreement and replayed by the model — validity is what must flag it.
    let audit = mutated_audit(AuditMutation::UnsentRequest);
    assert!(!audit.is_clean(), "auditor missed the unsent request");
    let kinds: Vec<ViolationKind> = audit.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, [ViolationKind::Validity; 3], "{:#?}", audit.violations);
}

#[test]
fn auditor_catches_a_leader_that_never_proposes() {
    // Every replica drops client requests as a censoring leader does: no
    // slot is ever proposed. Safety holds; the progress verdict must hold
    // the one request the closed loop sent.
    let cfg = SimConfig::paper_default(77).with_window(32);
    let cfg = cfg.with_audit_mutation(AuditMutation::NoProposals);
    let mut cluster = Cluster::new(cfg, flip_apps(3), flip_payload());
    let report = cluster.run_until(60, 0, progress_deadline(&FailurePlan::none()));
    assert_eq!(report.completed, 0);
    let audit = report.audit.expect("audited");
    assert!(audit.is_clean(), "{:#?}", audit.violations);
    assert_eq!(audit.stalled.len(), 1, "{:#?}", audit.stalled);
    assert_eq!(audit.stalled[0].executed_by, 0);
}

#[test]
fn a_fault_free_batched_run_makes_progress() {
    // The control for requests still in flight when a run ends: with 8
    // clients the other seven are when the last counted request
    // completes. Settled past the progress deadline, each is answered, and
    // the verdict holds nothing.
    let cfg = SimConfig::paper_default(77).with_window(32).with_clients(8).with_batch(4);
    let mut cluster = Cluster::new(cfg.with_audit(), flip_apps(3), flip_payload());
    assert_eq!(cluster.run(600, 0).completed, 600);
    cluster.settle(progress_deadline(&FailurePlan::none()).since(Time::ZERO));
    let audit = cluster.audit_report().expect("audited");
    assert!(audit.is_clean(), "{:#?}", audit.violations);
    assert!(audit.made_progress(), "{:#?}", audit.stalled);
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
    assert!(audit.made_progress(), "{:#?}", audit.stalled);
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
    let culprit = (0, Fault::ReplicaCrash { index: 2, at: us(600) });
    let plan = hand_written(
        FailurePlan::none()
            .partition(0, 1, us(100), us(400))
            .crash_mem_node(1, us(300))
            .crash_replica(2, us(600))
            .crash_mem_node(0, us(900))
            .with_asynchrony(us(250), Duration::from_micros(40)),
    );
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
        plan.failures.faults().len() + 1,
        shrunk.failures.faults().len(),
        shrunk.repro_string()
    );
    assert!(shrunk.is_subset_of(&plan));
    assert!(shrunk.failures.faults().len() <= 3, "core too large: {}", shrunk.repro_string());
    assert!(shrunk.failures.faults().contains(&culprit), "core lost the culprit");
    assert!(fails(&shrunk));
}

#[test]
fn corpus_a_replacement_hears_none_of_its_predecessors_timers() {
    // Chaos seed 744's plan. Replica 1's replacement boots while the
    // partition still cuts it off from replica 2. When a progress watchdog
    // its predecessor armed fired in the replacement, the run stalled at 21
    // of 300 requests: nothing a dead incarnation scheduled may act on the
    // node that takes over its identity.
    let plan = hand_written(
        FailurePlan::none()
            .crash_mem_node(1, us(377))
            .partition(2, 1, us(460), us(1_493))
            .replace_replica(1, us(828), us(939)),
    );
    run_corpus_plan("replacement+inherited-timers", &plan);
}

#[test]
fn corpus_a_refused_write_leaves_no_hole_in_the_channel() {
    // Chaos seed 457's plan. While the partition cuts replica 1 off from
    // replica 0, every channel write between them is refused. When a
    // refused write still took a sequence number, the receiver waited at
    // that number until its ring wrapped, and the run stalled at 20 of 300
    // requests once replica 0 fell silent.
    let plan =
        hand_written(FailurePlan::none().byzantine(0, ByzantineMode::Silent, us(1_354)).partition(
            1,
            0,
            us(418),
            us(1_076),
        ));
    run_corpus_plan("silent-leader+refused-writes", &plan);
}

// ----------------------------------------------------------------------
// Stalled plans of `chaos_explore 800`, one per class its stall report
// prints: each stays until its corner of ROADMAP item 1 is closed.
// ----------------------------------------------------------------------

/// Runs a plan `chaos_explore` drew for `seed` on the explorer's
/// deployment for that seed, to the progress deadline; returns the class
/// the stall report prints there and the audit.
fn explored_plan_at_progress_deadline(seed: u64, failures: FailurePlan) -> (String, AuditReport) {
    let deadline = progress_deadline(&failures);
    explored_plan_until(seed, failures, 60, deadline)
}

/// Runs `failures` on the explorer's deployment for `seed` with `requests`
/// requests until `deadline`, which they must not all reach; returns the
/// class the stall report prints there and the audit, which must be clean
/// and hold a stalled request.
fn explored_plan_until(
    seed: u64,
    failures: FailurePlan,
    requests: u64,
    deadline: Time,
) -> (String, AuditReport) {
    let app = ["flip", "redis", "noop", "liquibook"][(seed % 4) as usize];
    let cfg = SimConfig::paper_default(ubft_bench::SEED ^ seed).with_tail(16).with_window(32);
    let cfg = cfg.with_audit().with_chaos(&hand_written(failures));
    let apps = ubft_bench::make_apps(app, 3);
    let mut cluster = Cluster::new(cfg, apps, ubft_bench::make_workload(app, 32));
    let report = cluster.run_until(requests, 0, deadline);
    assert!(report.completed < requests);
    let audit = report.audit.expect("audited");
    assert!(audit.is_clean(), "{:#?}", audit.violations);
    assert!(!audit.made_progress(), "the verdict must hold the stalled request");
    (cluster.stall_report().class(), audit)
}

/// The progress verdict counts correct replicas only. r0 equivocates from
/// 238 µs, as in the plan `chaos_explore` drew for seed 437, and falls
/// silent at 8 ms. r1, the replica it lied to, falls behind for good, so
/// most requests are executed by r0 and r2 alone: two replicas, but one
/// correct one, and no client gets the `f + 1` replies it waits for. Only
/// a few of the 200 requests complete by 400 ms, and the verdict must say
/// so, though r0's executions would make up the quorum.
#[test]
fn executions_by_a_byzantine_replica_are_no_progress() {
    let failures = FailurePlan::none()
        .byzantine(0, ByzantineMode::EquivocateProposals, us(238))
        .byzantine(0, ByzantineMode::Silent, us(8_000));
    let (_, audit) = explored_plan_until(437, failures, 200, us(400_000));
    assert!(audit.stalled.iter().all(|s| s.executed_by < 2), "{:?}", audit.stalled);
}

#[test]
fn stalled_seed_134_is_corner_b_with_h() {
    // r1 decided everything and has nothing pending, so it never seals
    // beside r0 (1(b)); r0 is held at FIFO id 1 of r1's stream, which
    // CTBcast delivered up to 4 and which is short of its first summary
    // boundary (1(h)); r2 crashed.
    let failures = FailurePlan::none()
        .partition(0, 2, us(1251), us(1378))
        .partition(0, 2, us(298), us(1231))
        .crash_replica(2, us(1404));
    let (class, audit) = explored_plan_at_progress_deadline(134, failures);
    assert_eq!(class, "1(b)+(h)");
    assert_eq!(audit.stalled.len(), 1);
}

#[test]
fn stalled_seed_500_is_corner_b() {
    // r0 crashed; r1 has nothing pending and stays in view 1 while r2
    // spirals through views alone.
    let failures = FailurePlan::none()
        .crash_replica(0, us(1325))
        .partition(2, 0, us(472), us(1315))
        .with_asynchrony(us(331), Duration::from_micros(167));
    let (class, _) = explored_plan_at_progress_deadline(500, failures);
    assert_eq!(class, "1(b)");
}

#[test]
fn stalled_seed_614_is_corner_h() {
    // r1 crashed. r2 is held at FIFO id 1 of r0's stream, whose first
    // message (r0's PREPARE) the partition cost it, while CTBcast delivered
    // the seals behind it: with fewer than 8 messages on the stream the
    // summary-stall watchdog never fires, and no view change completes
    // until r0's seals fill the stream past its first boundary.
    let failures = FailurePlan::none()
        .crash_replica(1, us(1137))
        .crash_mem_node(1, us(81))
        .partition(2, 1, us(76), us(907))
        .partition(1, 0, us(915), us(1103))
        .with_asynchrony(us(847), Duration::from_micros(74));
    let (class, _) = explored_plan_at_progress_deadline(614, failures);
    assert_eq!(class, "1(h)");
}
