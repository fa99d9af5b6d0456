//! Bounded per-client caches: the request-dedup table and last-reply cache
//! are deterministic LRUs bounded by `EngineConfig::client_table_cap`.
//!
//! The safety property under test: **eviction never causes re-execution
//! of a still-in-flight request**. The bound is `2 · window · max_batch` —
//! the most distinct clients that can execute between a request's first
//! slot and any legal duplicate slot (a re-proposal across a view change
//! must land inside the acceptance window) — so an in-flight request's
//! dedup entry is structurally never the eviction victim. These tests
//! flood far more clients than the bound, prove eviction actually
//! occurred (the table stays at the bound instead of one entry per
//! client), and assert that nothing executed twice: every request
//! completes, every replica ends on the same application digest, and no
//! replica's execution log names a `(client, seq)` twice.

use std::collections::BTreeSet;

use ubft::runtime::cluster::Cluster;
use ubft::runtime::{AuditReport, SimConfig};
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::failure::FailurePlan;
use ubft_types::{ClientId, Duration, Time};

fn flip_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(ubft_apps::FlipApp::new()) as Box<dyn App>).collect()
}

fn payload32() -> Box<dyn FnMut(u64) -> Vec<u8>> {
    Box::new(|i| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    })
}

/// `tail = 4`, `window = 8`: the dedup bound is `2 · 8 · 1 = 16`, small
/// enough that a 48-client flood must evict.
const CLIENTS: usize = 48;
const BOUND: usize = 16;

fn small_window_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_default(seed).with_tail(4).with_window(8).with_clients(CLIENTS)
}

struct Outcome {
    completed: u64,
    digests: Vec<Digest>,
    dedup_entries: Vec<usize>,
    views: Vec<u64>,
    audit: Option<AuditReport>,
    /// Per replica, a `(client, seq)` it executed more than once.
    twice: Vec<Option<(ClientId, u64)>>,
}

fn run(cfg: SimConfig, requests: u64) -> Outcome {
    let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
    let report = cluster.run(requests, 0);
    let twice = |executed: &[(ClientId, u64)]| {
        let mut seen = BTreeSet::new();
        executed.iter().copied().find(|id| !seen.insert(*id))
    };
    Outcome {
        completed: report.completed,
        digests: (0..3).map(|r| cluster.app_digest(r)).collect(),
        dedup_entries: (0..3).map(|r| cluster.dedup_entries(r)).collect(),
        views: report.views.iter().map(|v| v.0).collect(),
        twice: report.groups[0].replicas.iter().map(|r| twice(&r.executed)).collect(),
        audit: report.audit,
    }
}

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Healthy flood: 48 clients against a bound of 16. Eviction must occur
/// (the table sits exactly at the bound, not at one entry per client) and
/// must change nothing observable.
#[test]
fn flood_evicts_and_executes_every_request_once() {
    let out = run(small_window_cfg(31).fast_only(), 300);
    assert_eq!(out.completed, 300);
    assert!(out.digests.iter().all(|d| *d == out.digests[0]), "replicas diverged");
    assert_eq!(out.dedup_entries, vec![BOUND; 3], "eviction did not kick in");
    assert_eq!(out.twice, vec![None; 3], "a request executed twice");
}

/// The in-flight hazard the bound exists for: a leader crash mid-run
/// forces a view change, and requests already executed may be re-proposed
/// into a second slot by the new leader. If eviction could forget such a
/// request's dedup entry before its duplicate slot executed, the request
/// would execute twice. It must not — nor when r1 is replaced during the
/// flood instead, and its successor adopts a bounded dedup table through a
/// certified state transfer.
#[test]
fn eviction_never_reexecutes_an_inflight_request_across_a_view_change() {
    let crash = |seed| {
        let mut cfg = small_window_cfg(seed);
        cfg.failures = FailurePlan::none().crash_replica(0, us(400));
        cfg
    };
    for seed in [13, 14, 15] {
        let out = run(crash(seed), 200);
        assert!(out.views[1] >= 1, "seed {seed}: no view change happened");
        assert_eq!(out.completed, 200, "seed {seed}");
        // Survivors (the crashed leader stops executing mid-run).
        assert_eq!(out.digests[1], out.digests[2], "seed {seed}: survivors diverged");
        for r in 1..3 {
            assert_eq!(out.twice[r], None, "seed {seed}: replica {r} re-executed a request");
            assert!(out.dedup_entries[r] <= BOUND, "seed {seed}: bound not enforced");
        }
    }

    let replaced = small_window_cfg(13).with_replacement(1, us(400), Duration::from_micros(400));
    let out = run(replaced.with_audit(), 200);
    assert_eq!(out.completed, 200);
    let audit = out.audit.as_ref().expect("audited");
    assert!(audit.is_clean(), "violations: {:#?}", audit.violations);
    assert_eq!(out.digests[0], out.digests[2], "replacement: r0 and r2 diverged");
    assert_eq!(out.twice, vec![None; 3], "replacement: a request executed twice");
    assert!(out.dedup_entries.iter().all(|e| *e <= BOUND), "replacement: bound not enforced");
}
