//! Bounded per-client caches (`SimConfig::with_client_cache_cap`): the
//! request-dedup table and last-reply cache become deterministic LRUs.
//!
//! The safety property under test: **eviction never causes re-execution
//! of a still-in-flight request**. The engine floors the effective
//! capacity at `2 · window · max_batch` — the most distinct clients that
//! can execute between a request's first slot and any legal duplicate
//! slot (a re-proposal across a view change must land inside the
//! acceptance window) — so an in-flight request's dedup entry is
//! structurally never the eviction victim. These tests flood far more
//! clients than the cap, prove eviction actually occurred (the table
//! stays at the floored cap instead of one-entry-per-client), and assert
//! the capped run is *behaviourally identical* to the unbounded one:
//! same completion count and same final application digest on every
//! replica. `FlipApp`'s digest chains execution order, so even one
//! double-executed request would diverge it.

use ubft::runtime::cluster::Cluster;
use ubft::runtime::{AuditReport, SimConfig};
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::failure::FailurePlan;
use ubft_types::{Duration, Time};

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

/// `tail = 4`, `window = 8`: the dedup floor is `2 · 8 · 1 = 16`, small
/// enough that a 48-client flood must evict.
const CLIENTS: usize = 48;
const FLOOR: usize = 16;

fn small_window_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_default(seed).with_tail(4).with_window(8).with_clients(CLIENTS)
}

struct Outcome {
    completed: u64,
    digests: Vec<Digest>,
    dedup_entries: Vec<usize>,
    views: Vec<u64>,
    audit: Option<AuditReport>,
}

fn run(cfg: SimConfig, requests: u64) -> Outcome {
    let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
    let report = cluster.run(requests, 0);
    Outcome {
        completed: report.completed,
        digests: (0..3).map(|r| cluster.app_digest(r)).collect(),
        dedup_entries: (0..3).map(|r| cluster.dedup_entries(r)).collect(),
        views: report.views.iter().map(|v| v.0).collect(),
        audit: report.audit,
    }
}

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Healthy flood: 48 clients against an effective cap of 16. Eviction
/// must occur (the table sits exactly at the cap, not at one entry per
/// client) and must change nothing observable.
#[test]
fn capped_flood_is_behaviourally_identical_to_unbounded() {
    let unbounded = run(small_window_cfg(31).fast_only(), 300);
    let capped = run(small_window_cfg(31).fast_only().with_client_cache_cap(1), 300);

    assert_eq!(unbounded.completed, 300);
    assert_eq!(capped.completed, unbounded.completed);
    assert_eq!(capped.digests, unbounded.digests, "eviction altered execution");
    // Unbounded: one entry per client forever. Capped: LRU pegged at the
    // floored cap — proof that eviction actually kicked in.
    for r in 0..3 {
        assert_eq!(unbounded.dedup_entries[r], CLIENTS);
        assert_eq!(capped.dedup_entries[r], FLOOR, "replica {r} not at the floored cap");
    }
}

/// The in-flight hazard the floor exists for: a leader crash mid-run
/// forces a view change, and requests already executed may be re-proposed
/// into a second slot by the new leader. If eviction could forget such a
/// request's dedup entry before its duplicate slot executed, the request
/// would execute twice and the digest would diverge from the unbounded
/// run. It must not — nor when r1 is replaced during the flood instead,
/// and its successor adopts a capped dedup table through a certified
/// state transfer.
#[test]
fn eviction_never_reexecutes_an_inflight_request_across_a_view_change() {
    let crash = |seed| {
        let mut cfg = small_window_cfg(seed);
        cfg.failures = FailurePlan::none().crash_replica(0, us(400));
        cfg
    };
    for seed in [13, 14, 15] {
        let unbounded = run(crash(seed), 200);
        let capped = run(crash(seed), 200);
        let capped_cfg_run = run(crash(seed).with_client_cache_cap(1), 200);

        // Sanity: the schedule is deterministic and actually view-changes.
        assert_eq!(unbounded.digests, capped.digests);
        assert!(capped_cfg_run.views[1] >= 1, "seed {seed}: no view change happened");

        assert_eq!(capped_cfg_run.completed, unbounded.completed, "seed {seed}");
        // Survivors (the crashed leader stops executing mid-run).
        for r in 1..3 {
            assert_eq!(
                capped_cfg_run.digests[r], unbounded.digests[r],
                "seed {seed}: replica {r} diverged — eviction re-executed a request"
            );
            assert!(capped_cfg_run.dedup_entries[r] <= FLOOR, "seed {seed}: cap not enforced");
        }
    }

    let replaced = small_window_cfg(13).with_replacement(1, us(400), Duration::from_micros(400));
    let unbounded = run(replaced.clone().with_audit(), 200);
    let capped = run(replaced.with_client_cache_cap(1).with_audit(), 200);
    assert_eq!(capped.completed, unbounded.completed);
    for out in [&unbounded, &capped] {
        let audit = out.audit.as_ref().expect("audited");
        assert!(audit.is_clean(), "violations: {:#?}", audit.violations);
    }
    for r in [0, 2] {
        assert_eq!(capped.digests[r], unbounded.digests[r], "replacement: replica {r} diverged");
        assert!(capped.dedup_entries[r] <= FLOOR, "replacement: cap not enforced");
    }
}

/// The capacity knob defaults to `None`: a run that never sets it is the
/// exact unbounded paper prototype (also pinned by `tests/pinned_sim.rs`;
/// this is the direct statement).
#[test]
fn default_is_unbounded() {
    let out = run(small_window_cfg(77).fast_only(), 300);
    assert_eq!(out.dedup_entries, vec![CLIENTS; 3]);
    assert_eq!(out.views, vec![0, 0, 0]);
}
