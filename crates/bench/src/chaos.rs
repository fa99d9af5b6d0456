//! Chaos exploration: generated fault schedules + the omniscient auditor.
//!
//! Instead of one test file per fault shape, [`chaos_explore`] *generates*
//! scenarios: each seed draws a [`ChaosPlan`] from the full fault
//! vocabulary (crashes, all five Byzantine modes, memory-node crashes,
//! replacements, partitions, pre-GST asynchrony), runs it on a fully
//! audited deployment, and checks the safety invariants *every event*
//! through [`ubft_runtime::audit`]. Any violating plan is greedily shrunk
//! to its smallest still-violating core and printed as a copy-pasteable
//! [`FailurePlan`](ubft_sim::failure::FailurePlan) builder chain, ready to
//! become a regression test in `tests/chaos.rs`. A plan stalls when the
//! audit's progress verdict holds a request; it is printed with the class
//! of its stall report ([`ubft_runtime::stall`]).
//!
//! Everything is deterministic: seed `i` of a run with base seed `B`
//! always draws the same plan and replays the same schedule, so a
//! violation found in CI reproduces on a laptop from two numbers.

use ubft_runtime::audit::{progress_deadline, AuditReport};
use ubft_runtime::{Cluster, SimConfig};
use ubft_sim::chaos::{shrink, ChaosPlan, ChaosSpace};
use ubft_types::{Duration, Time};

use crate::{make_apps, make_workload, SEED};

/// Requests per chaos run: enough to cross a checkpoint boundary under
/// the small window below, few enough that hundreds of runs stay fast.
const REQUESTS: u64 = 60;

/// Virtual-time deadline per run: generously past the fault horizon, the
/// exponential watchdog backoff (which reaches 160 ms periods after six
/// fruitless view changes), and a worst-case all-slow-path schedule, so
/// healthy plans always finish and genuinely stalled ones are observed
/// (and audited) instead of panicking.
fn run_deadline() -> Time {
    Time::ZERO + Duration::from_millis(400)
}

/// The application a seed exercises: rotating through all four keeps every
/// sequential model honest.
fn app_for(seed: u64) -> &'static str {
    ["flip", "redis", "noop", "liquibook"][(seed % 4) as usize]
}

/// The fault space a seed draws from: every fourth plan runs two sharded
/// groups (with the shared memory nodes), the rest a single group.
fn space_for(seed: u64) -> ChaosSpace {
    let base = ChaosSpace::paper_default();
    if seed % 4 == 3 {
        base.with_groups(2)
    } else {
        base
    }
}

/// One audited chaos run, up to `deadline`. Small tail/window keep
/// checkpoints — and thus the checkpoint-digest and state-transfer
/// invariants — inside the run.
fn run_plan_until(plan: &ChaosPlan, seed: u64, deadline: Time) -> (Cluster, u64) {
    let app = app_for(seed);
    let groups = space_for(seed).groups;
    let cfg = SimConfig::paper_default(SEED ^ seed)
        .with_tail(16)
        .with_window(32)
        .with_shards(groups)
        .with_audit()
        .with_chaos(plan);
    let apps = make_apps(app, cfg.params.n() * cfg.shards);
    let mut cluster = Cluster::new(cfg, apps, make_workload(app, 32));
    let completed = cluster.run_until(REQUESTS, 0, deadline).completed;
    (cluster, completed)
}

/// One audited chaos run to the run's deadline, settled.
fn run_plan(plan: &ChaosPlan, seed: u64) -> (AuditReport, u64) {
    let (mut cluster, completed) = run_plan_until(plan, seed, run_deadline());
    cluster.settle(Duration::from_millis(3));
    (cluster.audit_report().expect("audited run"), completed)
}

/// The class of a stalled plan: its stall report's, taken at the
/// progress deadline, where its first unanswered request starts to count
/// (a replay: runs are deterministic). By the run's deadline the cause
/// may be gone and only its consequence left, such as a backoff that
/// outgrew the run.
fn stall_class(plan: &ChaosPlan, seed: u64) -> String {
    run_plan_until(plan, seed, progress_deadline(&plan.failures)).0.stall_report().class()
}

/// What one exploration found.
pub struct ChaosOutcome {
    /// The exploration record (EXPERIMENTS.md keeps a sample).
    pub record: String,
    /// Plans whose audit's progress verdict holds a request: liveness, not
    /// safety.
    pub stalled: u64,
    /// Plans with an audit violation.
    pub violating: u64,
}

/// Drives `plans` seeded chaos plans, audits each, and shrinks + prints
/// any violator. A non-zero violation count — or more stalled plans than
/// the caller's budget — is the explorer's way of failing CI.
pub fn chaos_explore(plans: u64) -> ChaosOutcome {
    let mut out = String::from("# Chaos exploration: seeded fault plans + omniscient audit\n");
    let started = std::time::Instant::now();
    let mut distinct = std::collections::BTreeSet::new();
    let (mut clean, mut violating) = (0u64, 0u64);
    let mut stalled: Vec<String> = Vec::new();
    let (mut decisions, mut executions, mut faults_total) = (0u64, 0u64, 0u64);
    for seed in 0..plans {
        let space = space_for(seed);
        let plan = ChaosPlan::generate(seed, &space);
        distinct.insert(format!("{plan:?}"));
        faults_total += plan.failures.faults().len() as u64;
        let (audit, completed) = run_plan(&plan, seed);
        decisions += audit.decisions_checked;
        executions += audit.executions_checked;
        if !audit.is_clean() {
            violating += 1;
            out.push_str(&format!(
                "\nVIOLATION under seed {seed} ({} fault(s), app {}):\n",
                plan.failures.faults().len(),
                app_for(seed)
            ));
            for v in audit.violations.iter().take(4) {
                out.push_str(&format!("  {v:?}\n"));
            }
            // Shrink to the smallest still-violating core and print the
            // copy-pasteable repro.
            let shrunk = shrink(&plan, &space, |cand| !run_plan(cand, seed).0.is_clean());
            out.push_str(&format!(
                "shrunk to {} fault(s); repro:\n{}",
                shrunk.failures.faults().len(),
                shrunk.repro_string()
            ));
        } else if !audit.made_progress() {
            // Liveness, not safety. The audit above still checked
            // everything the run did execute.
            let class = stall_class(&plan, seed);
            stalled
                .push(format!("stalled seed {seed} ({completed}/{REQUESTS} completed): {class}\n"));
        } else {
            clean += 1;
        }
    }
    out.push_str(&format!(
        "plans tried: {plans} ({} distinct; {:.1} faults/plan; apps flip/redis/noop/liquibook; \
         shapes g=1,2)\n",
        distinct.len(),
        faults_total as f64 / plans.max(1) as f64
    ));
    out.push_str(&format!(
        "clean: {clean}  stalled-at-deadline: {}  violating: {violating}\n",
        stalled.len()
    ));
    out.extend(stalled.iter().map(String::as_str));
    out.push_str(&format!(
        "decisions audited: {decisions}  executions audited: {executions}  wall: {:.1}s\n",
        started.elapsed().as_secs_f64()
    ));
    ChaosOutcome { record: out, stalled: stalled.len() as u64, violating }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_explore_smoke_is_clean() {
        let out = chaos_explore(8);
        assert_eq!(out.violating, 0, "{}", out.record);
        assert!(out.record.contains("plans tried: 8"), "{}", out.record);
    }
}
