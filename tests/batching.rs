//! Batch-boundary equivalence: executing `N` requests through batches of
//! size `b` must be observably identical to executing them one per slot —
//! same per-replica execution sequence, same application digest, same
//! decided count — for any `b`, any pipeline depth, and also across a view
//! change. Batching may only change *how many slots* carry the requests,
//! never *what* the replicated application sees.

use proptest::prelude::*;
use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::core::engine::{EngineConfig, PathMode, TimerKind};
use ubft::core::msg::CtbMsg;
use ubft::crypto::Digest;
use ubft::harness::EngineNet;
use ubft::types::ClusterParams;

/// Perfect network, small enough to rerun hundreds of times under proptest.
type Net = EngineNet<FlipApp>;

fn new_net(max_batch: usize, pipeline_depth: usize) -> Net {
    let mut cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastWithFallback);
    cfg.max_batch = max_batch;
    cfg.pipeline_depth = pipeline_depth;
    Net::new(cfg)
}

fn payload_for(i: u64) -> Vec<u8> {
    // Order-sensitive content: FlipApp folds each payload into its digest.
    let mut p = vec![0u8; 24];
    p[..8].copy_from_slice(&i.to_le_bytes());
    p[8..16].copy_from_slice(&(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes());
    p
}

/// What a run looks like from the outside: per-replica executed payload
/// sequences, app digests, and decided counts for live replicas.
struct Observed {
    executed: Vec<Vec<Vec<u8>>>,
    digests: Vec<Digest>,
    decided: Vec<u64>,
    max_batch_seen: usize,
    slots_used: usize,
}

/// What replicas `live` show of a finished run; batches are view 0's leader's.
fn observe(net: &Net, live: std::ops::Range<usize>) -> Observed {
    let size = |(stream, m): &(usize, CtbMsg)| match m {
        CtbMsg::Prepare(p) if *stream == 0 => Some(p.batch.len()),
        _ => None,
    };
    let batches: Vec<usize> = net.ctb_log.iter().filter_map(size).collect();
    let payloads = |r: usize| net.executed[r].iter().map(|(_, req)| req.payload.clone()).collect();
    Observed {
        executed: live.clone().map(payloads).collect(),
        digests: live.clone().map(|r| net.apps[r].snapshot_digest()).collect(),
        decided: live.map(|r| net.engines[r].decided_count()).collect(),
        max_batch_seen: batches.iter().copied().max().unwrap_or(0),
        slots_used: batches.len(),
    }
}

fn run_failure_free(n_requests: u64, max_batch: usize, pipeline_depth: usize) -> Observed {
    let mut net = new_net(max_batch, pipeline_depth);
    for i in 0..n_requests {
        net.client_request_no_drain(i, &payload_for(i));
    }
    net.run();
    observe(&net, 0..3)
}

fn run_with_view_change(n_requests: u64, max_batch: usize, pipeline_depth: usize) -> Observed {
    let mut net = new_net(max_batch, pipeline_depth);
    let half = n_requests / 2;
    for i in 0..half {
        net.client_request_no_drain(i, &payload_for(i));
    }
    net.run();
    // Crash the leader of view 0 and push the rest of the load through the
    // view change; survivors decide via the slow path.
    net.crashed[0] = true;
    for i in half..n_requests {
        net.client_request_no_drain(i, &payload_for(i));
    }
    net.run();
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    // Each decided slot lets the bounded pipeline propose the next batch,
    // which arms a fresh fast-path timeout — keep firing until quiescent.
    for _ in 0..200 {
        if net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_))) == 0 {
            break;
        }
    }
    observe(&net, 1..3)
}

proptest! {
    /// Failure-free runs: any (batch, depth) combination yields exactly the
    /// b = 1 outcome — same executed sequences, digests, and decided counts.
    #[test]
    fn batches_are_execution_equivalent(
        n_requests in 1u64..60,
        max_batch in 1usize..=32,
        pipeline_depth in 1usize..=8,
    ) {
        let reference = run_failure_free(n_requests, 1, usize::MAX);
        let batched = run_failure_free(n_requests, max_batch, pipeline_depth);
        for r in 0..reference.executed.len() {
            prop_assert_eq!(&batched.executed[r], &reference.executed[r], "replica {}", r);
            prop_assert_eq!(batched.digests[r], reference.digests[r], "digest of replica {}", r);
            prop_assert_eq!(batched.decided[r], n_requests, "decided count of replica {}", r);
            prop_assert_eq!(reference.decided[r], n_requests);
        }
        // The reference run really is unbatched, and the batched run never
        // exceeds its configured bound.
        prop_assert_eq!(reference.max_batch_seen, 1);
        prop_assert!(batched.max_batch_seen <= max_batch);
        prop_assert!(batched.slots_used <= reference.slots_used);
    }

    /// The same equivalence holds when the leader crashes mid-load and the
    /// remaining replicas finish the run in view 1: batches survive the view
    /// change whole, so survivors' executions and digests match b = 1.
    #[test]
    fn batches_are_execution_equivalent_across_view_change(
        n_requests in 2u64..40,
        max_batch in 1usize..=16,
        pipeline_depth in 1usize..=4,
    ) {
        let reference = run_with_view_change(n_requests, 1, usize::MAX);
        let batched = run_with_view_change(n_requests, max_batch, pipeline_depth);
        for r in 0..reference.executed.len() {
            prop_assert_eq!(&batched.executed[r], &reference.executed[r], "survivor {}", r);
            prop_assert_eq!(batched.digests[r], reference.digests[r], "digest of survivor {}", r);
        }
        // Every request decides exactly once on the survivors (the harness
        // is lossless, so nothing is double-proposed across the change).
        for (b, a) in batched.decided.iter().zip(reference.decided.iter()) {
            prop_assert_eq!(*b, *a, "decided counts diverged across batch sizes");
            prop_assert_eq!(*a, n_requests);
        }
    }
}

/// `max_batch = 1` with a single-slot pipeline is the seed engine: one
/// request per PREPARE, and the whole run's observable outcome matches the
/// window-wide default exactly.
#[test]
fn unit_batch_unit_pipeline_matches_default_engine() {
    let a = run_failure_free(50, 1, 1);
    let b = run_failure_free(50, 1, usize::MAX);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.decided, b.decided);
    assert_eq!(a.max_batch_seen, 1);
    assert_eq!(b.max_batch_seen, 1);
    assert_eq!(a.slots_used, 50);
    assert_eq!(b.slots_used, 50);
}
