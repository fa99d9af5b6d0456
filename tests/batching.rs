//! Batch-boundary equivalence: executing `N` requests through batches of
//! size `b` must be observably identical to executing them one per slot —
//! same per-replica execution sequence, same application digest, same
//! decided count — for any `b`, any pipeline depth, and also across a view
//! change. Batching may only change *how many slots* carry the requests,
//! never *what* the replicated application sees.

use std::collections::VecDeque;

use proptest::prelude::*;
use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::core::engine::{Effect, Engine, EngineConfig, PathMode, TimerKind};
use ubft::core::msg::{CtbMsg, Request};
use ubft::crypto::{Digest, KeyRing};
use ubft::types::{ClientId, ClusterParams, ProcessId, ReplicaId, RequestId, SeqId};

/// A perfect-network synchronous harness (CTBcast ids in order, instant
/// delivery), small enough to rerun hundreds of times under proptest.
struct Net {
    engines: Vec<Engine>,
    apps: Vec<FlipApp>,
    ctb_next: Vec<u64>,
    /// Batch sizes of every PREPARE on the leader-of-view-0 stream.
    proposed_batches: Vec<usize>,
    executed: Vec<Vec<Vec<u8>>>,
    timers: Vec<Vec<TimerKind>>,
    crashed: Vec<bool>,
    ring: KeyRing,
    queue: VecDeque<(usize, Effect)>,
}

impl Net {
    fn new(max_batch: usize, pipeline_depth: usize) -> Self {
        let params = ClusterParams::paper_default();
        let n = params.n();
        let ring = KeyRing::generate(5, (0..n as u32).map(|i| ProcessId::Replica(ReplicaId(i))));
        let mut cfg = EngineConfig::new(params, PathMode::FastWithFallback);
        cfg.max_batch = max_batch;
        cfg.pipeline_depth = pipeline_depth;
        let engines: Vec<Engine> =
            (0..n as u32).map(|i| Engine::new(ReplicaId(i), cfg.clone(), ring.clone())).collect();
        let mut net = Net {
            engines,
            apps: (0..n).map(|_| FlipApp::new()).collect(),
            ctb_next: vec![1; n],
            proposed_batches: Vec::new(),
            executed: vec![Vec::new(); n],
            timers: vec![Vec::new(); n],
            crashed: vec![false; n],
            ring,
            queue: VecDeque::new(),
        };
        for i in 0..n {
            let fx = net.engines[i].start();
            net.enqueue(i, fx);
        }
        net.drain();
        net
    }

    fn n(&self) -> usize {
        self.engines.len()
    }

    /// Queues the effects of one call on engine `who`. The harness has no
    /// crypto worker, so the call's crypto jobs run on the spot and their
    /// completions are fed straight back.
    fn enqueue(&mut self, who: usize, fx: Vec<Effect>) {
        for e in fx {
            self.queue.push_back((who, e));
        }
        let signer = self.ring.signer(ProcessId::Replica(ReplicaId(who as u32))).unwrap();
        let jobs: Vec<_> = self.engines[who].take_crypto_jobs().collect();
        for job in jobs {
            let result = job.run(&signer, &self.ring);
            let fx = self.engines[who].on_crypto_done(job.tag, result);
            self.enqueue(who, fx);
        }
    }

    fn drain(&mut self) {
        let mut steps = 0;
        while let Some((who, effect)) = self.queue.pop_front() {
            steps += 1;
            assert!(steps < 1_000_000, "effect loop diverged");
            if self.crashed[who] {
                continue;
            }
            match effect {
                Effect::CtbBroadcast(msg) => {
                    let k = SeqId(self.ctb_next[who]);
                    self.ctb_next[who] += 1;
                    if who == 0 {
                        if let CtbMsg::Prepare(p) = &msg {
                            self.proposed_batches.push(p.batch.len());
                        }
                    }
                    for r in 0..self.n() {
                        if self.crashed[r] {
                            continue;
                        }
                        let fx =
                            self.engines[r].on_ctb_deliver(ReplicaId(who as u32), k, msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::TbBroadcast(msg) => {
                    for r in 0..self.n() {
                        if self.crashed[r] {
                            continue;
                        }
                        let fx = self.engines[r].on_tb_deliver(ReplicaId(who as u32), msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::SendReplica { to, msg } => {
                    let r = to.0 as usize;
                    if !self.crashed[r] {
                        let fx = self.engines[r].on_direct(ReplicaId(who as u32), msg);
                        self.enqueue(r, fx);
                    }
                }
                Effect::Execute { slot: _, req } => {
                    self.apps[who].execute(&req.payload);
                    self.executed[who].push(req.payload);
                }
                Effect::RequestSnapshot { base } => {
                    let digest = self.apps[who].snapshot_digest();
                    let table = self.engines[who].exec_table();
                    let exec_digest = ubft_core::msg::exec_table_digest(&table);
                    let fx = self.engines[who].on_snapshot(base, digest, exec_digest);
                    self.enqueue(who, fx);
                }
                Effect::ArmTimer { kind } => {
                    self.timers[who].push(kind);
                }
                Effect::CheckpointAdopted { .. }
                | Effect::ViewChanged { .. }
                | Effect::ByzantineDetected { .. } => {}
                // No crashes in the batching harness: state transfers and
                // stream adoption never fire.
                Effect::StateTransfer { .. } | Effect::AdoptStreams { .. } => {
                    unreachable!("no replacements in the batching harness")
                }
            }
        }
    }

    fn client_request_no_drain(&mut self, seq: u64, payload: Vec<u8>) {
        let req = Request { id: RequestId::new(ClientId(1), seq), payload };
        for r in 0..self.n() {
            if self.crashed[r] {
                continue;
            }
            let fx = self.engines[r].on_client_request(req.clone());
            self.enqueue(r, fx);
        }
    }

    /// Fires every armed timer matching `filter`; returns how many fired.
    fn fire_timers(&mut self, filter: impl Fn(&TimerKind) -> bool) -> usize {
        let mut fired = 0;
        for r in 0..self.n() {
            let kinds: Vec<TimerKind> = self.timers[r].drain(..).collect();
            for k in kinds {
                if filter(&k) {
                    fired += 1;
                    let fx = self.engines[r].on_timer(k);
                    self.enqueue(r, fx);
                } else {
                    self.timers[r].push(k);
                }
            }
        }
        self.drain();
        fired
    }
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

fn run_failure_free(n_requests: u64, max_batch: usize, pipeline_depth: usize) -> Observed {
    let mut net = Net::new(max_batch, pipeline_depth);
    for i in 0..n_requests {
        net.client_request_no_drain(i, payload_for(i));
    }
    net.drain();
    Observed {
        executed: net.executed.clone(),
        digests: net.apps.iter().map(|a| a.snapshot_digest()).collect(),
        decided: net.engines.iter().map(|e| e.decided_count()).collect(),
        max_batch_seen: net.proposed_batches.iter().copied().max().unwrap_or(0),
        slots_used: net.proposed_batches.len(),
    }
}

fn run_with_view_change(n_requests: u64, max_batch: usize, pipeline_depth: usize) -> Observed {
    let mut net = Net::new(max_batch, pipeline_depth);
    let half = n_requests / 2;
    for i in 0..half {
        net.client_request_no_drain(i, payload_for(i));
    }
    net.drain();
    // Crash the leader of view 0 and push the rest of the load through the
    // view change; survivors decide via the slow path.
    net.crashed[0] = true;
    for i in half..n_requests {
        net.client_request_no_drain(i, payload_for(i));
    }
    net.drain();
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    // Each decided slot lets the bounded pipeline propose the next batch,
    // which arms a fresh fast-path timeout — keep firing until quiescent.
    for _ in 0..200 {
        if net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_))) == 0 {
            break;
        }
    }
    let live: Vec<usize> = (1..net.n()).collect();
    Observed {
        executed: live.iter().map(|&r| net.executed[r].clone()).collect(),
        digests: live.iter().map(|&r| net.apps[r].snapshot_digest()).collect(),
        decided: live.iter().map(|&r| net.engines[r].decided_count()).collect(),
        max_batch_seen: net.proposed_batches.iter().copied().max().unwrap_or(0),
        slots_used: net.proposed_batches.len(),
    }
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
