//! The comparison systems, measured under the same calibrated substrate:
//! unreplicated execution, Mu (crash-only SMR), and MinBFT (vanilla and
//! HMAC variants).
//!
//! All three serve one closed-loop client, so each request's latency is the
//! sum of the components on its critical chain; the chains are driven
//! through the real baseline state machines (`ubft-mu`, `ubft-minbft`) with
//! virtual-time costs sampled from the shared models. MinBFT additionally
//! charges a per-hop software-stack overhead: its public implementation is
//! TCP-based and, even with the VMA kernel-bypass substitution the paper
//! applies (§7.2), far less optimized than the RDMA-native systems.

use ubft_core::app::App;
use ubft_core::msg::Request;
use ubft_crypto::KeyRing;
use ubft_minbft::{ClientAuth, MinbftEffect, MinbftReplica, Usig};
use ubft_mu::{MuEffect, MuFollower, MuLeader};
use ubft_sim::stats::LatencyStats;
use ubft_sim::SimRng;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, RequestId, Slot};

use crate::calibration::{SimConfig, POLL_PICKUP};

/// Per-hop software-stack overhead of the MinBFT implementation over VMA
/// (message marshalling, socket emulation, thread handoffs), in nanoseconds.
const MINBFT_STACK_OVERHEAD_NS: u64 = 22_000;

fn hop(cfg: &SimConfig, rng: &mut SimRng, bytes: usize) -> Duration {
    cfg.latency.sample(rng, bytes) + POLL_PICKUP + cfg.cost.dispatch
}

/// Unreplicated execution: request to the server, execute, reply.
pub fn run_unreplicated(
    cfg: &SimConfig,
    app: &mut dyn App,
    mut workload: impl FnMut(u64) -> Vec<u8>,
    requests: u64,
    warmup: u64,
) -> LatencyStats {
    let mut rng = SimRng::new(cfg.seed ^ 0x0BA5E);
    let mut stats = LatencyStats::new();
    for i in 0..requests + warmup {
        let payload = workload(i);
        let mut t = Duration::ZERO;
        t += hop(cfg, &mut rng, payload.len());
        t += app.execute_cost(&payload);
        let resp = app.execute(&payload);
        t += hop(cfg, &mut rng, resp.len());
        if i >= warmup {
            stats.record(t);
        }
    }
    stats
}

/// Mu: the leader RDMA-writes the request to follower logs and replies after
/// a majority completes (one write round above unreplicated).
pub fn run_mu(
    cfg: &SimConfig,
    app: &mut dyn App,
    mut workload: impl FnMut(u64) -> Vec<u8>,
    requests: u64,
    warmup: u64,
) -> LatencyStats {
    let mut rng = SimRng::new(cfg.seed ^ 0x0117);
    let mut stats = LatencyStats::new();
    let n = cfg.params.n();
    let followers: Vec<ReplicaId> = (1..n as u32).map(ReplicaId).collect();
    let mut leader = MuLeader::new(ReplicaId(0), followers);
    let mut follower_logs: Vec<MuFollower> = (1..n).map(|_| MuFollower::new()).collect();

    for i in 0..requests + warmup {
        let payload = workload(i);
        let req = Request { id: RequestId::new(ClientId(0), i), payload: payload.clone() };
        let mut t = Duration::ZERO;
        t += hop(cfg, &mut rng, payload.len()); // client -> leader

        let fx = leader.on_client_request(req);
        // Issue the log writes; completion = write + ack (one RDMA RTT).
        let mut write_completions: Vec<(Duration, Slot)> = Vec::new();
        for e in &fx {
            if let MuEffect::WriteLog { to, slot, req } = e {
                let rtt =
                    cfg.latency.sample(&mut rng, payload.len()) + cfg.latency.sample(&mut rng, 16);
                write_completions.push((rtt, *slot));
                follower_logs[to.0 as usize - 1].on_log_write(*slot, req.clone());
            }
        }
        write_completions.sort();
        // The leader commits at the first completion (majority of 2 with
        // n = 3 counts the leader's own copy).
        let mut committed = false;
        for (rtt, slot) in write_completions {
            let fx = leader.on_write_complete(slot);
            if !committed {
                if let Some(MuEffect::Commit { req, .. }) =
                    fx.into_iter().find(|e| matches!(e, MuEffect::Commit { .. }))
                {
                    t += rtt;
                    t += app.execute_cost(&req.payload);
                    let resp = app.execute(&req.payload);
                    t += hop(cfg, &mut rng, resp.len()); // leader -> client
                    committed = true;
                }
            }
        }
        assert!(committed, "mu request did not commit");
        if i >= warmup {
            stats.record(t);
        }
    }
    stats
}

/// Mu driving batched load: the leader groups `batch` client requests into
/// one log append, so the replication round (the write RTT) is paid once per
/// batch instead of once per request — the same amortization lever the
/// batched uBFT engine pulls. Records one latency sample *per batch*; divide
/// `batch` by the mean to get requests per unit time.
pub fn run_mu_batched(
    cfg: &SimConfig,
    app: &mut dyn App,
    mut workload: impl FnMut(u64) -> Vec<u8>,
    batches: u64,
    warmup: u64,
    batch: usize,
) -> LatencyStats {
    let batch = batch.max(1);
    let mut rng = SimRng::new(cfg.seed ^ 0x117B);
    let mut stats = LatencyStats::new();
    let n = cfg.params.n();
    let followers: Vec<ReplicaId> = (1..n as u32).map(ReplicaId).collect();
    let mut leader = MuLeader::new(ReplicaId(0), followers);
    let mut follower_logs: Vec<MuFollower> = (1..n).map(|_| MuFollower::new()).collect();

    let mut seq = 0u64;
    for i in 0..batches + warmup {
        // Concatenate the batch into one log record; the request carried
        // through Mu's state machine is the whole batch.
        let payloads: Vec<Vec<u8>> = (0..batch as u64)
            .map(|_| {
                let p = workload(seq);
                seq += 1;
                p
            })
            .collect();
        let record: Vec<u8> = payloads.iter().flat_map(|p| p.iter().copied()).collect();
        let req = Request { id: RequestId::new(ClientId(0), i), payload: record.clone() };

        let mut t = Duration::ZERO;
        // Clients reach the leader independently; the last arrival gates the
        // batch (charged as one hop of the largest request).
        t += hop(cfg, &mut rng, payloads.iter().map(Vec::len).max().unwrap_or(0));

        let fx = leader.on_client_request(req);
        let mut write_completions: Vec<(Duration, Slot)> = Vec::new();
        for e in &fx {
            if let MuEffect::WriteLog { to, slot, req } = e {
                let rtt =
                    cfg.latency.sample(&mut rng, record.len()) + cfg.latency.sample(&mut rng, 16);
                write_completions.push((rtt, *slot));
                follower_logs[to.0 as usize - 1].on_log_write(*slot, req.clone());
            }
        }
        write_completions.sort();
        let mut committed = false;
        for (rtt, slot) in write_completions {
            let fx = leader.on_write_complete(slot);
            if !committed && fx.iter().any(|e| matches!(e, MuEffect::Commit { .. })) {
                t += rtt;
                // Execute every request of the batch in order.
                for p in &payloads {
                    t += app.execute_cost(p);
                    let _ = app.execute(p);
                }
                t += hop(cfg, &mut rng, 64); // leader -> clients (replies)
                committed = true;
            }
        }
        assert!(committed, "mu batch did not commit");
        if i >= warmup {
            stats.record(t);
        }
    }
    stats
}

/// MinBFT over a VMA-like kernel-bypass transport, with enclave accesses
/// charged at 7–12.5 µs (§7.4) and, for the vanilla variant, public-key
/// client signatures and signed replies.
pub fn run_minbft(
    cfg: &SimConfig,
    auth: ClientAuth,
    app: &mut dyn App,
    mut workload: impl FnMut(u64) -> Vec<u8>,
    requests: u64,
    warmup: u64,
) -> LatencyStats {
    let mut rng = SimRng::new(cfg.seed ^ 0x314B);
    let mut stats = LatencyStats::new();
    let n = cfg.params.n();
    let f = cfg.params.f;
    let secret = [0xA5u8; 32];
    let ids: Vec<ReplicaId> = (0..n as u32).map(ReplicaId).collect();
    let ring = KeyRing::generate(
        cfg.seed,
        ids.iter().map(|r| ProcessId::Replica(*r)).chain([ProcessId::Client(ClientId(0))]),
    );
    let client_signer = ring.signer(ProcessId::Client(ClientId(0))).expect("client key");
    let mut replicas: Vec<MinbftReplica> = ids
        .iter()
        .map(|&me| {
            let peers = ids.iter().copied().filter(|x| *x != me).collect();
            MinbftReplica::new(me, peers, f, Usig::new(me, secret), ring.clone(), auth)
        })
        .collect();

    let vma_hop = |rng: &mut SimRng, cfg: &SimConfig, bytes: usize| {
        hop(cfg, rng, bytes) + Duration::from_nanos(MINBFT_STACK_OVERHEAD_NS)
    };

    for i in 0..requests + warmup {
        let payload = workload(i);
        let req = Request { id: RequestId::new(ClientId(0), i), payload: payload.clone() };
        let mut t = Duration::ZERO;

        // Client authentication.
        use ubft_types::wire::Wire;
        let sig = match auth {
            ClientAuth::Signatures => {
                t += cfg.cost.sign_total();
                Some(client_signer.sign(&req.to_bytes()))
            }
            ClientAuth::EnclaveHmac => {
                t += cfg.cost.enclave_access(&mut rng);
                None
            }
        };
        t += vma_hop(&mut rng, cfg, payload.len()); // client -> leader

        // Leader processes the request; charge its enclave/PK meters.
        let fx = replicas[0].on_client_request(req.clone(), sig.as_ref());
        t += charge_meters(cfg, &mut rng, &mut replicas[0]);

        // Deliver every message FIFO (USIG counters are sequential). Time is
        // charged for the critical chain only: one prepare hop, one
        // follower's processing, one commit hop back.
        let mut queue: std::collections::VecDeque<(usize, MinbftEffect)> =
            fx.into_iter().map(|e| (0usize, e)).collect();
        let mut executed = None;
        let mut prepare_hop_charged = false;
        let mut follower_charged = false;
        let mut commit_hop_charged = false;
        while let Some((who, e)) = queue.pop_front() {
            match e {
                MinbftEffect::SendPrepare { to, slot, req, ui } => {
                    if !prepare_hop_charged {
                        t += vma_hop(&mut rng, cfg, payload.len());
                        prepare_hop_charged = true;
                    }
                    let ti = to.0 as usize;
                    let ffx =
                        replicas[ti].on_prepare(ReplicaId(who as u32), slot, req, ui, sig.as_ref());
                    if !follower_charged {
                        t += charge_meters(cfg, &mut rng, &mut replicas[ti]);
                        follower_charged = true;
                    } else {
                        let _ = replicas[ti].take_meters();
                    }
                    queue.extend(ffx.into_iter().map(|fe| (ti, fe)));
                }
                MinbftEffect::SendCommit { to, slot, ui } => {
                    let ti = to.0 as usize;
                    let ffx = replicas[ti].on_commit(ReplicaId(who as u32), slot, ui);
                    if ti == 0 && !commit_hop_charged {
                        t += vma_hop(&mut rng, cfg, 64);
                        commit_hop_charged = true;
                    }
                    queue.extend(ffx.into_iter().map(|fe| (ti, fe)));
                }
                MinbftEffect::Execute { req, .. } => {
                    if who == 0 && executed.is_none() {
                        executed = Some(req);
                    }
                }
            }
        }
        t += charge_meters(cfg, &mut rng, &mut replicas[0]);
        let req = executed.expect("minbft request must execute");
        t += app.execute_cost(&req.payload);
        let resp = app.execute(&req.payload);

        // Reply to the client; the client needs f+1 matching replies, and in
        // the vanilla variant replies are signed and verified.
        if auth == ClientAuth::Signatures {
            t += cfg.cost.sign_total(); // replica signs the reply
        }
        t += vma_hop(&mut rng, cfg, resp.len());
        match auth {
            ClientAuth::Signatures => {
                t += Duration::from_nanos(cfg.cost.verify_total().as_nanos() * (f as u64 + 1));
            }
            ClientAuth::EnclaveHmac => {
                t += cfg.cost.enclave_access(&mut rng);
            }
        }
        if i >= warmup {
            stats.record(t);
        }
    }
    stats
}

fn charge_meters(cfg: &SimConfig, rng: &mut SimRng, replica: &mut MinbftReplica) -> Duration {
    let (enclave, pk) = replica.take_meters();
    let mut t = Duration::ZERO;
    for _ in 0..enclave {
        t += cfg.cost.enclave_access(rng);
    }
    t += Duration::from_nanos(cfg.cost.verify_total().as_nanos() * pk);
    t
}

/// The SGX-based non-equivocation primitive of Figure 10: sender enclave
/// access + broadcast to two receivers + receiver enclave access.
pub fn run_sgx_nonequivocation(
    cfg: &SimConfig,
    msg_size: usize,
    rounds: u64,
    seed: u64,
) -> LatencyStats {
    let mut rng = SimRng::new(seed);
    let mut stats = LatencyStats::new();
    for _ in 0..rounds {
        let mut t = Duration::ZERO;
        t += cfg.cost.enclave_access(&mut rng); // sender binds the counter
        t += cfg.cost.checksum(msg_size);
        t += hop(cfg, &mut rng, msg_size); // broadcast (parallel receivers)
        t += cfg.cost.enclave_access(&mut rng); // receiver verifies
        stats.record(t);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_apps::FlipApp;

    fn payload(size: usize) -> impl FnMut(u64) -> Vec<u8> {
        move |i| {
            let mut p = vec![0u8; size];
            let k = 8.min(size);
            p[..k].copy_from_slice(&i.to_le_bytes()[..k]);
            p
        }
    }

    #[test]
    fn unreplicated_is_microseconds() {
        let cfg = SimConfig::paper_default(1);
        let mut app = FlipApp::new();
        let mut s = run_unreplicated(&cfg, &mut app, payload(32), 200, 20);
        let p50 = s.median();
        assert!(
            p50 > Duration::from_nanos(1500) && p50 < Duration::from_micros(6),
            "unreplicated median {p50}"
        );
    }

    #[test]
    fn mu_adds_one_write_round() {
        let cfg = SimConfig::paper_default(1);
        let mut app = FlipApp::new();
        let mut unrepl = run_unreplicated(&cfg, &mut app, payload(32), 200, 20);
        let mut app2 = FlipApp::new();
        let mut mu = run_mu(&cfg, &mut app2, payload(32), 200, 20);
        assert!(mu.median() > unrepl.median());
        assert!(
            mu.median() < unrepl.median() + Duration::from_micros(5),
            "mu {} vs unreplicated {}",
            mu.median(),
            unrepl.median()
        );
    }

    #[test]
    fn batched_mu_amortizes_the_write_round() {
        let cfg = SimConfig::paper_default(1);
        let mut app = FlipApp::new();
        let mut one = run_mu_batched(&cfg, &mut app, payload(32), 200, 20, 1);
        let mut app16 = FlipApp::new();
        let mut sixteen = run_mu_batched(&cfg, &mut app16, payload(32), 200, 20, 16);
        // Requests per microsecond: batch size over per-batch latency.
        let tput = |b: f64, s: &mut LatencyStats| b / s.mean().as_micros_f64();
        assert!(
            tput(16.0, &mut sixteen) > 4.0 * tput(1.0, &mut one),
            "batching Mu gained only {:.2}x",
            tput(16.0, &mut sixteen) / tput(1.0, &mut one)
        );
        // Per-batch latency still grows with the batch (bigger record).
        assert!(sixteen.median() > one.median());
    }

    #[test]
    fn minbft_vanilla_slower_than_hmac() {
        let cfg = SimConfig::paper_default(1);
        let mut a1 = FlipApp::new();
        let mut vanilla = run_minbft(&cfg, ClientAuth::Signatures, &mut a1, payload(32), 100, 10);
        let mut a2 = FlipApp::new();
        let mut hmac = run_minbft(&cfg, ClientAuth::EnclaveHmac, &mut a2, payload(32), 100, 10);
        assert!(
            vanilla.median() > hmac.median() * 3 / 2,
            "vanilla {} should be >1.5x hmac {}",
            vanilla.median(),
            hmac.median()
        );
        // Hundreds of microseconds, as in Figure 8.
        assert!(vanilla.median() > Duration::from_micros(300));
        assert!(hmac.median() > Duration::from_micros(150));
    }

    #[test]
    fn sgx_nonequivocation_over_16us() {
        let cfg = SimConfig::paper_default(1);
        let mut s = run_sgx_nonequivocation(&cfg, 32, 100, 3);
        let p50 = s.median();
        assert!(
            p50 > Duration::from_micros(14) && p50 < Duration::from_micros(30),
            "sgx non-equivocation {p50}"
        );
    }

    #[test]
    fn deterministic_baselines() {
        let cfg = SimConfig::paper_default(9);
        let mut a = FlipApp::new();
        let mut b = FlipApp::new();
        let s1 = run_unreplicated(&cfg, &mut a, payload(32), 50, 5).mean();
        let s2 = run_unreplicated(&cfg, &mut b, payload(32), 50, 5).mean();
        assert_eq!(s1, s2);
    }
}
