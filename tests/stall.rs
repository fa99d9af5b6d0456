//! The stall report's corners on the scripted harness: each test drives
//! three replicas into a catalogued liveness corner of ROADMAP item 1 and
//! checks that their explanations, classified, name it — engines alone
//! (`EngineNet`) for the engine's corners, whole replicas (`NodeNet`) for
//! those below the engine. Each pins today's behaviour, not a fix: it
//! stays as the corner's regression test until the corner is closed, and
//! then flips.

use ubft::harness::node::{self, NodeNet, NodeTimer};
use ubft::harness::{EngineNet, Lane, Move};
use ubft::runtime::stall::{classify, Corner, ReplicaStall};
use ubft::runtime::SimConfig;
use ubft_core::app::NoopApp;
use ubft_core::engine::{Effect, EngineConfig, PathMode, TimerKind};
use ubft_core::msg::{CtbMsg, Request, TbMsg};
use ubft_ctb::wire::{CtbWire, TbFrame};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, ClusterParams, RequestId, SeqId, View};

type Net = EngineNet<NoopApp>;

/// Every replica's explanation with what the harness knows of it: whether
/// it crashed. CTBcast delivered exactly what the engine interpreted.
fn rows(net: &Net) -> Vec<ReplicaStall> {
    let row = |r: usize| {
        let diag = net.engines[r].diag();
        ReplicaStall {
            delivered: diag.streams.iter().map(|s| SeqId(s.fifo_next.0 - 1)).collect(),
            diag,
            faulty: net.crashed[r],
            replaced: false,
            watchdog_ticks: 0,
            summary_half: net.cfg.summary_half,
            branded: Vec::new(),
            transfer_misses: 0,
        }
    };
    (0..net.engines.len()).map(row).collect()
}

/// Client 1's request `seq` reaches replica `r` alone.
fn request_at(net: &mut Net, r: usize, seq: u64) {
    let req = Request { id: RequestId::new(ClientId(1), seq), payload: vec![7] };
    let fx = net.engines[r].on_client_request(req);
    net.emit(r, fx);
}

/// Applies pending moves in order, dropping those `lost` picks.
fn run_losing(net: &mut Net, lost: impl Fn(&Move) -> bool) {
    while let Some(m) = net.pending.front() {
        if lost(m) {
            net.drop_move(0);
        } else {
            net.apply(0);
        }
    }
}

/// Fires every armed progress watchdog, then runs, dropping what `lost`
/// picks.
fn fire_progress(net: &mut Net, lost: impl Fn(&Move) -> bool) {
    for r in 0..net.engines.len() {
        let armed = std::mem::take(&mut net.timers[r]);
        let (fire, keep): (Vec<_>, Vec<_>) =
            armed.into_iter().partition(|k| *k == TimerKind::Progress);
        net.timers[r] = keep;
        for kind in fire {
            let fx = net.engines[r].on_timer(kind);
            net.emit(r, fx);
        }
    }
    run_losing(net, lost);
}

#[test]
fn a_replica_with_nothing_pending_never_seals_beside_a_crashed_leader() {
    // Corner 1(b). The leader r0 is down; a request reaches r1 alone. r1's
    // watchdog seals view 1, but a view change needs f + 1 sealers and r2,
    // which holds nothing, is never stuck by its own watchdog.
    let mut net =
        Net::new(EngineConfig::new(ClusterParams::paper_default(), PathMode::FastWithFallback));
    net.crashed[0] = true;
    request_at(&mut net, 1, 0);
    net.run();
    for _ in 0..4 {
        fire_progress(&mut net, |_| false);
    }
    let rows = rows(&net);
    assert!(rows[1].diag.view > View(0), "r1 sealed: {}", rows[1].diag);
    assert!(!rows[2].diag.has_pending_work, "{}", rows[2].diag);
    assert_eq!(rows[2].diag.view, View(0), "r2 never seals: {}", rows[2].diag);
    assert_eq!(classify(&rows), [Corner::B].into());
}

#[test]
fn a_summary_that_skips_a_seal_leaves_the_stream_view_behind() {
    // Corner 1(g). A tail of 4 puts a summary boundary every 2 messages of
    // a stream. A request reaches r1 and r2 alone and their echoes to the
    // leader r0 are lost, so their watchdogs seal view 1; r2 loses the
    // delivery of r1's SEAL_VIEW and of r1's summaries at 2 and 4. More
    // requests then reach everyone, and r1's stream goes on into view 2
    // and carries COMMITs in it. r1's summary at 6 fills r2's gap: it holds
    // those COMMITs but no view, so r2 keeps r1's stream in view 0
    // (`summary_cert_checked` applies it without the SEALs it skipped).
    let params = ClusterParams::paper_default().with_tail(4);
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastWithFallback));
    for r in [1, 2] {
        request_at(&mut net, r, 0);
    }
    let echo_to_r0 = |m: &Move| m.to == 0 && m.lane == Lane::Direct;
    run_losing(&mut net, echo_to_r0);
    let r1_to_r2 = |m: &Move| m.from == 1 && m.to == 2;
    let early_summary = |m: &Move| matches!(m.effect, Effect::TbBroadcast(TbMsg::Summary { upto, .. }) if upto.0 <= 4);
    let seal = |m: &Move| matches!(m.effect, Effect::CtbBroadcast(CtbMsg::SealView { .. }));
    fire_progress(&mut net, |m| echo_to_r0(m) || (r1_to_r2(m) && (seal(m) || early_summary(m))));
    fire_progress(&mut net, |m| echo_to_r0(m) || (r1_to_r2(m) && early_summary(m)));
    for seq in 1..6 {
        for r in 0..3 {
            request_at(&mut net, r, seq);
        }
        run_losing(&mut net, |m| r1_to_r2(m) && early_summary(m));
    }
    let rows = rows(&net);
    let r1_at_r2 = rows[2].diag.streams[1];
    assert_eq!(r1_at_r2.fifo_next, SeqId(7), "the summary at 6 filled the gap: {}", rows[2].diag);
    assert_eq!(r1_at_r2.view, View(0), "{}", rows[2].diag);
    assert_eq!(r1_at_r2.commit_view, Some(View(2)), "{}", rows[2].diag);
    assert_eq!(classify(&rows), [Corner::G].into());
}

/// Whether `frame` is a TBcast data frame carrying a `LOCKED` of CTBcast
/// id `k`.
fn locked(frame: &[u8], k: u64) -> bool {
    let Ok(TbFrame::Data { payload, .. }) = TbFrame::decode(frame) else { return false };
    matches!(CtbWire::from_bytes(payload), Ok(CtbWire::Locked { k: id, .. }) if id == SeqId(k))
}

/// Fires r0's armed `timer` twice — a sweep acts at its second firing on
/// what was pending at its first — and runs after each.
fn sweep_r0(net: &mut NodeNet, timer: NodeTimer) {
    for _ in 0..2 {
        net.fire_timers(0, |t| *t == timer);
        net.run();
    }
}

#[test]
fn a_fast_delivery_missed_short_of_the_first_summary_boundary_is_never_repaired() {
    // Corner 1(h), below the engine. r1's LOCKED of r0's CTBcast id 1 (the
    // PREPARE of slot 0) is lost on its way to r2: r0 and r1 deliver id 1
    // on the fast path, r2 does not. r0 fast-delivered its own broadcast,
    // so its sweep never signs it, and the summary-stall watchdog waits for
    // `summary_half` messages on the stream. Then r1 crashes. Client 1's
    // request reaches r0 and r2; r0 proposes it at id 2 on its echo sweep,
    // finds r1's LOCKED missing on its CTBcast sweep and signs id 2, which
    // r2 delivers on the slow path — and holds behind id 1 for good.
    let mut net = NodeNet::new(&SimConfig::paper_default(5));
    let lane = node::Lane::CtbTb { stream: 0 };
    let r1_to_r2 = node::Move::Frame { from: 1, to: 2, lane };
    net.issue(vec![1]);
    assert!(!net.run_losing(|m, frame| *m == r1_to_r2 && locked(frame, 1)));
    net.crashed[1] = true;
    net.send_request(&Request { id: RequestId::new(ClientId(1), 0), payload: vec![2] });
    net.run();
    sweep_r0(&mut net, NodeTimer::Engine(TimerKind::EchoFallback));
    sweep_r0(&mut net, NodeTimer::CtbSweep);
    let rows = net.stall();
    let (r0_at_r2, delivered) = (rows[2].diag.streams[0], rows[2].delivered[0]);
    assert_eq!((r0_at_r2.fifo_next, delivered), (SeqId(1), SeqId(2)), "{}", rows[2].diag);
    assert!(delivered.0 < rows[2].summary_half, "{}", rows[2].diag);
    assert_eq!(classify(&rows), [Corner::H].into());
}
