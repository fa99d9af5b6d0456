//! Backend equivalence: the wall-clock threaded runtime and the
//! deterministic simulator must agree on *what* was decided and executed,
//! even though they disagree on *when*.
//!
//! Both backends run the identical sans-IO protocol stack under the
//! identical driver (`ReplicaNode`); the only difference is the substrate
//! beneath it (virtual-time event queue vs OS threads + real timers + the
//! in-process channel mesh + a real crypto worker pool). So for a
//! failure-free run with the same finite workload,
//! every replica must end with the same application digest and the same
//! non-noop execution log, request for request. `FlipApp`'s digest chains
//! execution order, so a single reordered, dropped, or double-executed
//! request diverges it.
//!
//! Workloads here are deliberately *finite and per-group* (each group's
//! source yields exactly its share and then dries up, ignoring the global
//! completion count): gating issuance on the global count alone would let
//! the per-group split differ between backends when groups race for the
//! last few requests, which would legitimately diverge digests.
//!
//! Timers are stretched hard (`time_scale`) so OS scheduling jitter on a
//! loaded or single-core host cannot fire a spurious progress timeout:
//! a view change inserts noop decisions, and noops execute through the
//! app on both backends, so a threaded-only view change would diverge
//! digests for a reason that has nothing to do with protocol equivalence.

use ubft::runtime::threads::{run_backend, ThreadWorkload, WallOptions};
use ubft::runtime::{Backend, RunReport, SimConfig};
use ubft_core::app::App;
use ubft_types::{ClientId, View};

/// Stretch factor making a 1 ms progress timeout ≈ 2 s of wall time.
/// Generous on purpose: `cargo test` runs many test binaries concurrently,
/// and on a small host a replica thread starved for longer than the
/// stretched progress timeout would view-change and (correctly but
/// unhelpfully) diverge the digests.
const SCALE: u32 = 2_000;

fn flip_apps(n: usize) -> Vec<Box<dyn App + Send>> {
    (0..n).map(|_| Box::new(ubft_apps::FlipApp::new()) as Box<dyn App + Send>).collect()
}

/// A finite per-group source: exactly `per_group` 32-byte payloads tagged
/// with the group id, then `None` forever. Driven by an internal counter,
/// not the completion-count argument, so both backends see the exact same
/// payload sequence regardless of global interleaving.
fn finite_workload(g: usize, per_group: u64) -> ThreadWorkload {
    let mut next = 0u64;
    Box::new(move |_| {
        if next >= per_group {
            return None;
        }
        let i = next;
        next += 1;
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p[8..16].copy_from_slice(&(g as u64).to_le_bytes());
        Some(p)
    })
}

fn run_both(cfg: &SimConfig, per_group: u64, groups: usize) -> (RunReport, RunReport) {
    let opts = WallOptions {
        requests: per_group * groups as u64,
        warmup: 0,
        deadline: std::time::Duration::from_secs(120),
        // The digest comparison needs *every* replica drained, not just
        // the f + 1 that answered the last client; under a loaded test
        // host the default 300 ms can cut the lagging replica off
        // mid-queue, so give it real slack.
        settle: std::time::Duration::from_secs(2),
    };
    let n = cfg.params.n();
    let sim = run_backend(
        &cfg.clone().with_backend(Backend::Sim),
        |_| flip_apps(n),
        |g| finite_workload(g, per_group),
        &opts,
    );
    let thr = run_backend(
        &cfg.clone().with_backend(Backend::Threads),
        |_| flip_apps(n),
        |g| finite_workload(g, per_group),
        &opts,
    );
    (sim, thr)
}

/// What the shared driver counts on either backend and a failure-free run
/// must leave at zero: a missed state transfer (a replica fell a whole
/// window behind — on threads, the run was overloaded) and a branded peer.
fn assert_healthy(report: &RunReport, g: usize, r: usize) {
    let (backend, rep) = (report.backend, &report.groups[g].replicas[r]);
    assert_eq!(rep.transfer_misses, 0, "{backend:?} group {g} replica {r}: missed transfer");
    assert!(rep.branded.is_empty(), "{backend:?} group {g} replica {r} branded {:?}", rep.branded);
}

/// Every replica of every group: same digest, same execution log, and the
/// threaded run actually finished its closed loop.
fn assert_equivalent(sim: &RunReport, thr: &RunReport, total: u64) {
    assert_eq!(sim.backend, Backend::Sim);
    assert_eq!(thr.backend, Backend::Threads);
    assert_eq!(sim.completed, total, "simulator did not complete the workload");
    assert_eq!(thr.completed, total, "threaded backend did not complete the workload");
    assert_eq!(sim.groups.len(), thr.groups.len());
    // One report shape: the views compare directly, and no failure-free
    // run leaves view 0 on either backend.
    assert_eq!(sim.views, thr.views);
    assert!(sim.views.iter().all(|v| *v == View(0)), "views {:?}", sim.views);
    for (g, (gs, gt)) in sim.groups.iter().zip(&thr.groups).enumerate() {
        assert_eq!(gs.completed, gt.completed, "group {g}: per-group completion split differs");
        assert_eq!(gs.views, gt.views, "group {g}: final views differ");
        assert_eq!(gs.replicas.len(), gt.replicas.len());
        for (r, (rs, rt)) in gs.replicas.iter().zip(&gt.replicas).enumerate() {
            assert_healthy(sim, g, r);
            assert_healthy(thr, g, r);
            assert_eq!(rs.executed, rt.executed, "group {g} replica {r}: execution logs diverge");
            assert_eq!(
                rs.app_digest, rt.app_digest,
                "group {g} replica {r}: application digests diverge"
            );
        }
    }
}

/// Single group, signature-free fast path, two seeds.
#[test]
fn threads_match_sim_single_group_fast_path() {
    for seed in [7u64, 21] {
        let cfg = SimConfig::paper_default(seed).with_time_scale(SCALE);
        let (sim, thr) = run_both(&cfg, 120, 1);
        assert_equivalent(&sim, &thr, 120);
        // The fast path decides without a single signature; the pinned
        // simulator digest suite guards *its* exact values, here we only
        // need agreement.
        assert!(thr.elapsed > std::time::Duration::ZERO);
    }
}

/// Single group forced onto the signed slow path: every broadcast runs
/// sign → SWMR register write quorum → verify, so this exercises the
/// crypto worker pool and the memory-node threads' read/write quorums —
/// none of which exist in the simulator's cost-model form.
#[test]
fn threads_match_sim_single_group_slow_path() {
    let cfg = SimConfig::paper_default(13).slow_only().with_time_scale(SCALE);
    let (sim, thr) = run_both(&cfg, 60, 1);
    assert_equivalent(&sim, &thr, 60);
}

/// Four shards, each with its own finite workload: per-group splits and
/// per-replica logs must agree group by group.
#[test]
fn threads_match_sim_four_shards() {
    let cfg = SimConfig::paper_default(42).with_shards(4).with_time_scale(SCALE);
    let (sim, thr) = run_both(&cfg, 40, 4);
    assert_equivalent(&sim, &thr, 160);
}

/// The execution logs the equivalence above leans on are themselves
/// well-formed: per-client sequence numbers strictly increase (no dup, no
/// reorder) on every replica of the threaded run.
#[test]
fn threaded_exec_logs_are_per_client_monotone() {
    let cfg = SimConfig::paper_default(99).with_time_scale(SCALE);
    let opts = WallOptions { requests: 80, warmup: 0, ..WallOptions::default() };
    let thr = run_backend(
        &cfg.with_backend(Backend::Threads),
        |_| flip_apps(3),
        |g| finite_workload(g, 80),
        &opts,
    );
    assert_eq!(thr.completed, 80);
    for (g, gr) in thr.groups.iter().enumerate() {
        for (r, rep) in gr.replicas.iter().enumerate() {
            assert_healthy(&thr, g, r);
            let mut last: std::collections::HashMap<ClientId, u64> = Default::default();
            for &(client, seq) in &rep.executed {
                if let Some(prev) = last.insert(client, seq) {
                    assert!(
                        seq > prev,
                        "client {client:?} re-executed or reordered: {prev} -> {seq}"
                    );
                }
            }
        }
    }
}
