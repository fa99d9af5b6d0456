//! A Byzantine leader equivocates: it proposes *different* requests to
//! different replicas under the same CTBcast identifier — the exact attack
//! Consistent Tail Broadcast exists to stop. Replica 1 is told a poisoned
//! `PREPARE` on both paths, in the fast path's `LOCK` and in a validly
//! signed `SIGNED`. Watch the fast path refuse to deliver, the followers
//! catch the signed lie in the SWMR registers and brand the leader, a view
//! change depose it, and every replica, the one lied to included, execute
//! every request in agreement.
//!
//! ```sh
//! cargo run --release --example byzantine_leader
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::PathMode;
use ubft_crypto::Digest;
use ubft_sim::failure::{ByzantineMode, FailurePlan};
use ubft_types::Time;

/// Wraps the demo app and records every executed request, so we can check
/// SMR agreement (log prefix consistency) at the end.
struct Recorded {
    inner: FlipApp,
    log: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl App for Recorded {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self.log.borrow_mut().push(request.to_vec());
        self.inner.execute(request)
    }
    fn snapshot_digest(&self) -> Digest {
        self.inner.snapshot_digest()
    }
    fn snapshot_bytes(&self) -> Vec<u8> {
        self.inner.snapshot_bytes()
    }
    fn restore_bytes(&mut self, bytes: &[u8]) {
        self.inner.restore_bytes(bytes);
    }
}

fn main() {
    let mut cfg = SimConfig::paper_default(13);
    cfg.path = PathMode::FastWithFallback;
    // Replica 0 — the leader of view 0 — equivocates from the start.
    cfg.failures = FailurePlan::none().byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO);

    let logs: Vec<Rc<RefCell<Vec<Vec<u8>>>>> =
        (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let apps: Vec<Box<dyn App>> = logs
        .iter()
        .map(|log| {
            Box::new(Recorded { inner: FlipApp::new(), log: Rc::clone(log) }) as Box<dyn App>
        })
        .collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    let mut cluster = Cluster::new(cfg, apps, workload);
    let report = cluster.run(50, 0);
    let mut lat = report.latency;

    println!("requests completed under an equivocating leader: {}", report.completed);
    println!("final views: {:?}", report.views);
    println!(
        "p50 {:>9}  p99 {:>9}  (the equivocating fast path never reaches unanimity,\n\
         and its signed lie is caught in the registers: the followers brand the\n\
         leader and a view change deposes it, which the slowest requests wait for.\n\
         Under the new leader the branded replica counts as suspected: the fast\n\
         path cannot reach unanimity without it, so every request starts the\n\
         slow path at once instead of waiting out the fast path's sweep)",
        lat.median(),
        lat.percentile(99.0)
    );
    println!(
        "engine signatures: {}  CTBcast signatures: {}",
        report.counters.engine_signs, report.counters.ctb_signs
    );
    for (r, log) in logs.iter().enumerate() {
        println!("replica {r} executed {} requests", log.borrow().len());
    }

    // SMR agreement between the correct replicas (1 and 2): one history is
    // a prefix of the other. A replica the Byzantine leader starves may lag
    // — CTBcast does not owe anyone delivery from a Byzantine broadcaster —
    // but it can never diverge.
    let (a, b) = (logs[1].borrow(), logs[2].borrow());
    let n = a.len().min(b.len());
    assert_eq!(a[..n], b[..n], "correct replicas diverged — agreement broken!");
    println!("correct replicas 1 and 2 agree on their common prefix: agreement held");
}
