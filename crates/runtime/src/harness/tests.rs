//! A replica's event loop on [`NodeNet`], the code both real backends run;
//! below it, a group's `ClientLoop` on a scripted `ClientPort` of its own.

use std::cell::Cell;
use std::rc::Rc;

use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::engine::{Effect, EngineDiag, TimerKind};
use ubft_core::msg::{CtbMsg, DirectMsg, Reply, Request};
use ubft_crypto::sha256::Sha256;
use ubft_crypto::Digest;
use ubft_ctb::ctbcast::{Ctb, RegEntry};
use ubft_ctb::wire::{CtbWireRef, TbFrame};
use ubft_rdma::InProcMemory;
use ubft_sim::failure::{ByzantineMode, FailurePlan};
use ubft_sim::rng::SimRng;
use ubft_types::outbox::SPARES;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ReplicaId, RequestId, SeqId, Slot, Time};

use crate::calibration::SimConfig;
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::{Cluster, OpCounters};
use crate::exec::Executor;
use crate::harness::{Done, Lane, Move, NodeNet, NodeTimer, Step};
use crate::node::CtbDone;
use crate::node::{NodeInput, ReplicaNode};
use crate::registers::{Registers, SlotRead};

/// Loses nothing.
fn keep(_: &Move, _: &[u8]) -> bool {
    false
}

/// Fires (once each) the timers replica `r` has armed that `which`
/// selects, then runs, losing what `lose` picks; returns whether the
/// client's request completed on the way.
fn fire(
    net: &mut NodeNet,
    r: usize,
    which: impl Fn(&NodeTimer) -> bool,
    lose: impl FnMut(&Move, &[u8]) -> bool,
) -> bool {
    net.fire_timers(r, which);
    net.run_losing(lose)
}

/// Register round trips' completions handed back to the nodes: `[writes,
/// reads]`.
fn round_trips_done(net: &NodeNet) -> [u64; 2] {
    let done = |d: Done| {
        let applied =
            |s: &&Step| matches!(s.applied, Some(Move::Completion { done, .. }) if done == d);
        net.record.iter().filter(applied).count() as u64
    };
    [done(Done::Written), done(Done::Read)]
}

/// `SIGNED` frames of COMMITs sent: `[by the call that broadcast the
/// COMMIT, by a signature's completion after it]`.
fn signed_commits(net: &NodeNet) -> [u32; 2] {
    let mut counts = [0; 2];
    for step in &net.record {
        let signing = matches!(step.applied, Some(Move::Completion { done: Done::Signed, .. }));
        let own = |(lane, _, frame): &&(Lane, usize, Vec<u8>)| {
            *lane == (Lane::CtbTb { stream: step.node }) && carries_signed_commit(frame)
        };
        counts[usize::from(signing)] += step.sent.iter().filter(own).count() as u32;
    }
    counts
}

/// The direct messages replica `from` sent `to` since the last look: the
/// look takes them out of the record.
fn sent(net: &mut NodeNet, from: usize, to: usize) -> Vec<DirectMsg> {
    let mut msgs = Vec::new();
    for step in net.record.iter_mut().filter(|s| s.node == from) {
        step.sent.retain(|(lane, t, frame)| {
            let hit = (*lane, *t) == (Lane::Direct, to);
            if hit {
                msgs.push(DirectMsg::from_bytes(frame).expect("a direct message"));
            }
            !hit
        });
    }
    msgs
}

/// Every replica executed `executed` requests, the same ones in the same
/// order to the same state, and branded nobody and missed no transfer.
fn assert_replicas_agree(net: &NodeNet, executed: usize) {
    let first = &net.execs[0];
    for (nd, exec) in net.nodes.iter().zip(&net.execs) {
        assert_eq!(exec.exec_log.len(), executed);
        assert_eq!(exec.exec_log, first.exec_log);
        assert_eq!(exec.app.snapshot_digest(), first.app.snapshot_digest());
        assert!(nd.branded.is_empty(), "an honest run branded {:?}", nd.branded);
        assert_eq!(nd.transfer_misses, 0);
    }
}

/// Whether `frame` is a TBcast data frame carrying a `SIGNED` COMMIT.
fn carries_signed_commit(frame: &[u8]) -> bool {
    let Ok(TbFrame::Data { payload, .. }) = TbFrame::decode(frame) else { return false };
    let Ok(CtbWireRef::Signed { m, .. }) = CtbWireRef::decode(payload) else { return false };
    matches!(CtbMsg::from_bytes(m), Ok(CtbMsg::Commit(_)))
}

fn payload(i: u64) -> Vec<u8> {
    let mut p = vec![0u8; 32];
    p[..8].copy_from_slice(&i.to_le_bytes());
    p
}

/// Both CTBcast paths, end to end through the shared event loop: every
/// request completes with no timer fired, and the replicas execute the same
/// requests in the same order to the same state.
#[test]
fn three_nodes_decide_on_the_fast_and_the_forced_slow_path() {
    let fast = SimConfig::paper_default(5).fast_only();
    let slow = SimConfig::paper_default(5).slow_only();
    for (cfg, requests) in [(fast, 100), (slow, 20)] {
        let mut net = NodeNet::new(&cfg);
        for i in 0..requests {
            assert!(net.request(payload(i)), "{:?} request {i} stalled", cfg.path);
        }
        assert_replicas_agree(&net, requests as usize);
        let slow_path_ran = round_trips_done(&net)[0] > 0;
        assert_eq!(slow_path_ran, cfg.path == ubft_core::engine::PathMode::SlowOnly);
        let mut sum = OpCounters::default();
        net.nodes.iter().for_each(|nd| sum.merge(&nd.counters));
        // What a slow-path slot verifies: each of its four signed
        // broadcasts (PREPARE, three COMMITs) at the two receivers that did
        // not sign it, and at each replica the one peer share that
        // completes its certificate. (20 slots reach no summary boundary.)
        if slow_path_ran {
            let verifies = [sum.ctb_verifies, sum.engine_verifies];
            assert_eq!(verifies, [4 * 2, 3].map(|v| v * requests));
        }
        // And its register round trips: one per signed broadcast at each of
        // the three receivers, its broadcaster included, which writes its
        // register and reads the slot like any other. None on the fast
        // path. Each round trip hands back its write and its read.
        let round_trips = if slow_path_ran { 4 * 3 * requests } else { 0 };
        assert_eq!(sum.reg_writes, round_trips);
        assert_eq!(round_trips_done(&net), [round_trips; 2]);
    }
}

/// Every replica's COMMIT is signed while its certificate is still being
/// checked, so its `SIGNED` frame leaves in the call that broadcasts it —
/// none waits for a signature to complete after the COMMIT was released.
#[test]
fn a_commit_signed_ahead_leaves_signed_in_the_call_that_releases_it() {
    let requests = 20;
    let mut net = NodeNet::new(&SimConfig::paper_default(5).slow_only());
    for i in 0..requests {
        assert!(net.request(payload(i)), "request {i} stalled");
    }
    assert_replicas_agree(&net, requests as usize);
    // Three COMMITs a slot, each to the two replicas that did not send it.
    assert_eq!(signed_commits(&net), [3 * 2 * requests as u32, 0]);
}

/// A `LOCK` lost on its way to one follower stalls the unanimous fast path;
/// the broadcaster's retransmission tick repairs it — on the second tick,
/// once the frame has gone a full period unacknowledged.
#[test]
fn a_dropped_tbcast_frame_is_repaired_by_the_retransmit_tick() {
    let mut net = NodeNet::new(&SimConfig::paper_default(6).fast_only());
    assert!(net.request(payload(0)));
    let lock_to_r2 = Move::Frame { from: 0, to: 2, lane: Lane::CtbTb { stream: 0 } };
    let mut dropped = 0;
    net.issue(payload(1));
    let completed = net.run_losing(|m, _| {
        let lose = *m == lock_to_r2 && dropped == 0;
        dropped += usize::from(lose);
        lose
    });
    assert!(!completed, "decided without the follower's LOCKED");
    assert_eq!(dropped, 1, "nothing was dropped");
    let tick = |t: &NodeTimer| matches!(t, NodeTimer::Retransmit);
    assert!(!fire(&mut net, 0, tick, keep), "a frame is not stale before a full period");
    assert!(fire(&mut net, 0, tick, keep), "the retransmitted LOCK did not unblock the request");
    assert_replicas_agree(&net, 2);
}

/// An equivocating broadcaster — a different `PREPARE` to each follower
/// under one CTBcast id, each later backed by a valid signature — is caught
/// in the registers, and the follower that finds the proof brands it
/// through `Effect::ByzantineDetected`. Neither follower delivers anything.
#[test]
fn an_equivocating_lock_is_branded() {
    let equivocator =
        FailurePlan::none().byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO);
    let mut net = NodeNet::new(&SimConfig { failures: equivocator, ..SimConfig::paper_default(7) });
    assert!(!net.request(payload(0)), "conflicting LOCKs reached unanimity");
    assert!(net.nodes.iter().all(|nd| nd.branded.is_empty()), "a LOCK alone proves nothing");
    // The broadcaster's fast-path sweep starts the signed slow path.
    fire_twice(&mut net, 0, NodeTimer::CtbSweep, keep);
    let brands: Vec<&(u32, String)> = net.nodes[1..].iter().flat_map(|nd| &nd.branded).collect();
    assert!(!brands.is_empty(), "no follower found the proof");
    for (culprit, why) in brands {
        assert_eq!(*culprit, 0);
        assert!(why.contains("equivocation"), "branded for {why}");
    }
    assert!(net.execs[1..].iter().all(|exec| exec.exec_log.is_empty()));
}

/// Replica 0 equivocates from the start.
fn equivocator() -> FailurePlan {
    FailurePlan::none().byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO)
}

/// The `PREPARE` a TBcast data frame carries in a `LOCK` or a `SIGNED`:
/// the frame's TBcast sequence number, the message's CTBcast id and its
/// bytes.
fn prepare_in(frame: &[u8]) -> Option<(SeqId, SeqId, Vec<u8>)> {
    let Ok(TbFrame::Data { k: seq, payload }) = TbFrame::decode(frame) else { return None };
    let (CtbWireRef::Lock { k, m } | CtbWireRef::Signed { k, m, .. }) =
        CtbWireRef::decode(payload).ok()?
    else {
        return None;
    };
    matches!(CtbMsg::from_bytes(m), Ok(CtbMsg::Prepare(_))).then_some((seq, k, m.to_vec()))
}

/// An equivocator tells r1 and r2 different `PREPARE`s under one TBcast
/// sequence number, and every lie names the CTBcast id of the message it
/// stands for, on the fast path's `LOCK` and on the slow path's `SIGNED`
/// alike — also past the stream's first message, where the broadcaster's
/// own `LOCKED` frames have moved its sequence numbers off its ids.
#[test]
fn an_equivocators_lie_lands_at_the_id_it_claims() {
    let mut net =
        NodeNet::new(&SimConfig { failures: equivocator(), ..SimConfig::paper_default(7) });
    for c in 1..4 {
        net.send_request(&req_of(c, 0));
        net.run();
        fire_twice(&mut net, 0, NodeTimer::CtbSweep, keep);
    }
    // What r0 told r1 and r2 on its stream: (receiver, sequence number,
    // id, PREPARE).
    let mut heard = Vec::new();
    for step in net.record.iter().filter(|s| s.node == 0) {
        for (lane, to, frame) in &step.sent {
            if let (Lane::CtbTb { stream: 0 }, Some((seq, k, m))) = (lane, prepare_in(frame)) {
                heard.push((*to, seq, k, m));
            }
        }
    }
    let (lies, truths): (Vec<_>, Vec<_>) = heard.iter().partition(|(to, ..)| *to == 1);
    let mut compared = 0;
    for (_, seq, k, lie) in &lies {
        for (_, _, id, truth) in truths.iter().filter(|(_, at, ..)| at == seq) {
            assert_eq!(k, id, "the lie at sequence number {seq:?} names another id");
            assert_ne!(lie, truth, "no lie at sequence number {seq:?}");
            compared += usize::from(k != seq);
        }
    }
    assert!(compared > 0, "no PREPARE past the stream's first message: {heard:?}");
}

/// On the slow path alone an equivocator's lie rides on its signed
/// message, and a follower finds the proof in the registers and brands
/// it.
#[test]
fn an_equivocator_on_the_slow_path_alone_is_branded() {
    let slow = SimConfig { failures: equivocator(), ..SimConfig::paper_default(7).slow_only() };
    let mut net = NodeNet::new(&slow);
    net.request(payload(0));
    let brands: Vec<&(u32, String)> = net.nodes[1..].iter().flat_map(|nd| &nd.branded).collect();
    assert!(!brands.is_empty(), "no follower found the proof");
    for (culprit, why) in brands {
        assert_eq!(*culprit, 0);
        assert!(why.contains("equivocation"), "branded for {why}");
    }
}

/// A silent replica keeps receiving and sends nothing: the net loses its
/// frames and its replies, as the simulator's channels do. The other two
/// complete the request on the slow path.
#[test]
fn a_silent_replica_sends_no_frame_and_no_reply() {
    let silent = FailurePlan::none().byzantine(2, ByzantineMode::Silent, Time::ZERO);
    let mut net = NodeNet::new(&SimConfig { failures: silent, ..SimConfig::paper_default(5) });
    assert!(!net.request(payload(0)), "completed without r2's echo");
    fire_twice(&mut net, 0, NodeTimer::Engine(TimerKind::EchoFallback), keep);
    assert!(fire_twice(&mut net, 0, NodeTimer::CtbSweep, keep), "no slow path");
    assert!(net.record.iter().filter(|s| s.node == 2).all(|s| s.sent.is_empty()));
    assert!(net.pending().iter().all(|m| !matches!(m, Move::Frame { from: 2, .. })));
    assert!(net.stall()[2].faulty);
}

/// A register-corrupting replica garbles the fingerprint of each entry it
/// writes, in the driver both real backends run. On the slow path each
/// correct receiver then meets replica 1's entry under the id it is
/// delivering, checks its signature, rejects it and delivers anyway
/// (§6.1: a forged entry cannot block delivery), so the correct replicas
/// verify more than in an honest run, brand nobody, and execute the same
/// log as there.
#[test]
fn a_garbled_register_entry_is_checked_rejected_and_delivered_past() {
    let requests = 20;
    let run = |failures| {
        let mut net =
            NodeNet::new(&SimConfig { failures, ..SimConfig::paper_default(5).slow_only() });
        for i in 0..requests {
            assert!(net.request(payload(i)), "request {i} stalled");
        }
        net
    };
    let honest = run(FailurePlan::none());
    let corrupt = FailurePlan::none().byzantine(1, ByzantineMode::CorruptRegisters, Time::ZERO);
    let corrupt = run(corrupt);
    for r in [0, 2] {
        let (nd, exec) = (&corrupt.nodes[r], &corrupt.execs[r]);
        let verifies = [honest.nodes[r].counters.ctb_verifies, nd.counters.ctb_verifies];
        assert!(verifies[1] > verifies[0], "replica {r} checked no garbled entry: {verifies:?}");
        assert!(nd.branded.is_empty(), "replica {r} branded {:?}", nd.branded);
        assert_eq!(exec.exec_log.len(), requests as usize);
        assert_eq!(exec.exec_log, honest.execs[r].exec_log);
    }
}

/// Fires replica `r`'s armed `timer` twice — a sweep acts at its second
/// firing on what was pending at its first —, losing what `lose` picks;
/// returns whether the client's request completed on the way.
fn fire_twice(
    net: &mut NodeNet,
    r: usize,
    timer: NodeTimer,
    lose: fn(&Move, &[u8]) -> bool,
) -> bool {
    let first = fire(net, r, |t| *t == timer, lose);
    fire(net, r, |t| *t == timer, lose) || first
}

/// Loses everything r2 sends: it is silent, not down.
fn r2_silent(m: &Move, _: &[u8]) -> bool {
    matches!(m, Move::Frame { from: 2, .. })
}

/// A silent receiver costs one fast-path timeout, not one per broadcast:
/// once the leader's CTBcast sweep has found r2's `LOCKED` missing, the
/// engine suspects r2, and every later broadcast of the leader's asks for
/// its signature in the call that sends its `LOCK` — the next request
/// completes with no sweep fired. A frame from r2 ends that.
#[test]
fn timeout_with_a_silent_receiver_signs_later_broadcasts_at_once() {
    let mut net = NodeNet::new(&SimConfig::paper_default(5));
    assert!(net.request(payload(0)));
    let echo_sweep = NodeTimer::Engine(TimerKind::EchoFallback);
    // r2's echo is lost too: the leader proposes on its echo fallback.
    net.issue(payload(1));
    assert!(!net.run_losing(r2_silent));
    fire_twice(&mut net, 0, echo_sweep, r2_silent);
    assert!(!net.nodes[0].engine.suspects_anyone(), "suspected before any sweep");
    assert!(fire_twice(&mut net, 0, NodeTimer::CtbSweep, r2_silent), "no slow path");
    assert!(net.nodes[0].engine.suspects_anyone(), "r2 is not suspected");

    // The next PREPARE's signature is asked for beside its LOCK.
    net.issue(payload(2));
    assert!(!net.run_losing(r2_silent));
    fire(&mut net, 0, |t| *t == echo_sweep, r2_silent);
    let signs = net.nodes[0].counters.ctb_signs;
    net.hand(0, NodeInput::Timer(echo_sweep));
    assert_eq!(net.nodes[0].counters.ctb_signs, signs + 1, "the PREPARE was not signed");
    assert!(net.run_losing(r2_silent), "the request waited for a sweep");

    // r2 speaks again: its retransmitted frames reach r0, and the next
    // request runs the signature-free fast path.
    fire_twice(&mut net, 2, NodeTimer::Retransmit, keep);
    assert!(!net.nodes[0].engine.suspects_anyone(), "r2's frames cleared nothing");
    let signs = net.nodes[0].counters.ctb_signs;
    assert!(net.request(payload(3)));
    assert_eq!(net.nodes[0].counters.ctb_signs, signs, "signed with nobody suspected");
    assert_replicas_agree(&net, 4);
}

/// While a receiver is suspected, a broadcast of the leader's asks for its
/// signature in the call that sends its `LOCK`, and arms no fast-path
/// sweep: there would be nothing for it to find.
#[test]
fn a_broadcast_made_while_a_receiver_is_suspected_arms_no_sweep() {
    let mut net = NodeNet::new(&SimConfig::paper_default(5));
    assert!(net.request(payload(0)));
    let echo_sweep = NodeTimer::Engine(TimerKind::EchoFallback);
    net.issue(payload(1));
    assert!(!net.run_losing(r2_silent));
    fire_twice(&mut net, 0, echo_sweep, r2_silent);
    assert!(fire_twice(&mut net, 0, NodeTimer::CtbSweep, r2_silent), "no slow path");
    assert!(net.nodes[0].engine.suspects_anyone(), "r2 is not suspected");
    // The sweep runs until it finds nothing waiting, and disarms.
    let ctb_sweep = |t: &NodeTimer| *t == NodeTimer::CtbSweep;
    for _ in 0..3 {
        fire(&mut net, 0, ctb_sweep, r2_silent);
    }
    assert!(!net.timers[0].iter().any(ctb_sweep), "the sweep stays armed");

    // The next PREPARE leaves with its signature asked for, and no sweep.
    net.issue(payload(2));
    assert!(!net.run_losing(r2_silent));
    fire(&mut net, 0, |t| *t == echo_sweep, r2_silent);
    let signs = net.nodes[0].counters.ctb_signs;
    net.hand(0, NodeInput::Timer(echo_sweep));
    assert_eq!(net.nodes[0].counters.ctb_signs, signs + 1, "the PREPARE was not signed");
    assert!(!net.timers[0].iter().any(ctb_sweep), "the broadcast armed the sweep");
    assert!(net.run_losing(r2_silent), "the request waited for a sweep");
    assert!(!net.timers[0].iter().any(ctb_sweep), "the slow path armed the sweep");
}

/// A sweep that finds every broadcast of the leader's delivered on the
/// fast path signs nothing and suspects nobody.
#[test]
fn timer_firing_after_fast_delivery_suspects_nobody() {
    let mut net = NodeNet::new(&SimConfig::paper_default(5));
    assert!(net.request(payload(0)));
    for r in 0..net.n {
        fire_twice(&mut net, r, NodeTimer::CtbSweep, keep);
        fire_twice(&mut net, r, NodeTimer::Engine(TimerKind::SlowSweep), keep);
    }
    assert!(net.request(payload(1)));
    for nd in &net.nodes {
        assert!(!nd.engine.suspects_anyone());
        assert_eq!(nd.counters.ctb_signs, 0);
    }
    assert_replicas_agree(&net, 2);
}

/// Request `seq` of client `c`, with [`payload`] `seq`.
fn req_of(c: u32, seq: u64) -> Request {
    Request { id: RequestId::new(ClientId(c), seq), payload: payload(seq) }
}

/// A request of a client the replicas do not answer, which the tests below
/// hand the replicas themselves.
fn req(seq: u64) -> Request {
    req_of(1, seq)
}

/// `cfg`'s three replicas, where r1 has accepted slot 0 and cannot decide
/// it: r2's second vote on it, its `WILL_COMMIT`, is lost on the way to r1
/// until r2's retransmission tick repairs it ([`repair_slot_0`]). r0 and
/// r2 answer request 0.
fn slot_0_in_flight_at_r1(cfg: &SimConfig) -> NodeNet {
    let mut net = NodeNet::new(cfg);
    let r2_to_r1 = Move::Frame { from: 2, to: 1, lane: Lane::ConsTb };
    let mut seen = 0;
    net.issue(payload(0));
    assert!(net.run_losing(|m, _| {
        seen += usize::from(*m == r2_to_r1);
        *m == r2_to_r1 && seen == 2
    }));
    assert_eq!(net.nodes[1].engine.accepted_undecided(), Some(Slot(0)));
    // Nothing was in flight when r1 echoed request 0: it left at once.
    assert_eq!(sent(&mut net, 1, 0), [DirectMsg::Echo { req: req_of(0, 0) }]);
    net.record.clear();
    net
}

/// r2 retransmits the vote r1 lost (a frame is stale after a full period,
/// so on the second tick), and r1 executes what it has decided.
fn repair_slot_0(net: &mut NodeNet) {
    for _ in 0..2 {
        fire(net, 2, |t| matches!(t, NodeTimer::Retransmit), keep);
    }
    assert_eq!(net.nodes[1].engine.accepted_undecided(), None);
}

/// While a slot it accepted is in flight, a follower's echoes wait; they
/// leave early once `max_batch` wait or an echo to another replica comes.
/// With `max_batch` 1 none waits.
#[test]
fn waiting_echoes_leave_at_max_batch_and_when_the_leader_changes() {
    let echo = |to: u32, seq: u64| {
        let msg = DirectMsg::Echo { req: req(seq) };
        Effect::SendReplica { to: ReplicaId(to), msg }
    };
    let mut net = slot_0_in_flight_at_r1(&SimConfig::paper_default(5).with_batch(3));
    let fx = [echo(0, 10), echo(0, 11), echo(0, 12), echo(0, 13), echo(2, 14), echo(2, 15)];
    net.hand(1, NodeInput::Effects(fx.to_vec()));
    let first = DirectMsg::Echoes { reqs: (10..13).map(req).collect() };
    assert_eq!(sent(&mut net, 1, 0), [first, DirectMsg::Echo { req: req(13) }]);
    assert_eq!(sent(&mut net, 1, 2), []);
    // The slot decides: nothing is in flight, and what waited leaves.
    repair_slot_0(&mut net);
    assert_eq!(sent(&mut net, 1, 2), [DirectMsg::Echoes { reqs: vec![req(14), req(15)] }]);

    let mut net = slot_0_in_flight_at_r1(&SimConfig::paper_default(5));
    net.hand(1, NodeInput::Effects(fx[..2].to_vec()));
    let single = (10..12).map(|seq| DirectMsg::Echo { req: req(seq) });
    assert_eq!(sent(&mut net, 1, 0), single.collect::<Vec<_>>());
}

/// A follower's echoes wait while a slot it accepted has not decided — the
/// leader's later PREPAREs it accepts meanwhile let none go — and leave
/// together once that slot decides; with nothing in flight an echo leaves
/// at once, and with `max_batch` 1 none waits.
#[test]
fn echoes_wait_for_the_followers_next_decision_while_a_slot_is_in_flight() {
    let mut cfg = SimConfig::paper_default(5).with_batch(4);
    // The leader proposes what its client sends it at once, so its next
    // PREPAREs do not wait for r1's echoes.
    cfg.echo_round = false;
    let mut net = slot_0_in_flight_at_r1(&cfg);
    // Two requests reach every replica, and r0 proposes each as it comes.
    // r1 accepts both PREPAREs and holds both echoes; r2, with nothing in
    // flight, echoes each at once.
    for seq in [1, 2] {
        net.send_request(&req(seq));
    }
    net.run();
    assert_eq!(net.nodes[1].engine.accepted_undecided(), Some(Slot(0)));
    assert_eq!(sent(&mut net, 1, 0), []);
    assert_eq!(sent(&mut net, 2, 0), [1, 2].map(|seq| DirectMsg::Echo { req: req(seq) }));

    repair_slot_0(&mut net);
    assert_eq!(sent(&mut net, 1, 0), [DirectMsg::Echoes { reqs: vec![req(1), req(2)] }]);
    assert!(net.request(payload(3)));
    let next = Request { id: RequestId::new(ClientId(0), 1), payload: payload(3) };
    assert_eq!(sent(&mut net, 1, 0), [DirectMsg::Echo { req: next }]);
    assert_replicas_agree(&net, 4);

    // Unbatched, r1 echoes each request at once, slot in flight or not.
    cfg.max_batch = 1;
    let mut net = slot_0_in_flight_at_r1(&cfg);
    let fx = [1, 2].map(|seq| Effect::SendReplica {
        to: ReplicaId(0),
        msg: DirectMsg::Echo { req: req(seq) },
    });
    net.hand(1, NodeInput::Effects(fx.to_vec()));
    assert_eq!(sent(&mut net, 1, 0), [1, 2].map(|seq| DirectMsg::Echo { req: req(seq) }));
}

/// The replies replica `from` sent since the last look, decoded: the look
/// takes them out of the record.
fn replies_from(net: &mut NodeNet, from: usize) -> Vec<Reply> {
    let mut replies = Vec::new();
    for step in net.record.iter_mut().filter(|s| s.node == from) {
        step.sent.retain(|(lane, _, frame)| {
            let hit = *lane == Lane::ClientResp;
            if hit {
                replies.push(Reply::from_bytes(frame).expect("a reply"));
            }
            !hit
        });
    }
    replies
}

/// A decided slot of several requests reaches each replica's executor as
/// one job, whose `executed` hook hears them in batch order, and their
/// replies leave in that order. A retransmission of one of them is
/// answered again from the last-reply table, with no job.
#[test]
fn a_decided_slot_reaches_the_executor_as_one_job() {
    let mut cfg = SimConfig::paper_default(5).with_batch(4).with_pipeline_depth(1);
    // The leader proposes each request as it comes while its one slot is
    // free, so the requests that come while slot 0 is in flight share
    // slot 1. Clients 1 to 3 are answered too.
    cfg.echo_round = false;
    cfg.n_clients = 4;
    let mut net = NodeNet::new(&cfg);
    for c in 1..=3 {
        net.send_request(&req_of(c, 0));
    }
    net.run();
    let ids = |cs: &[u32]| cs.iter().map(|c| RequestId::new(ClientId(*c), 0)).collect::<Vec<_>>();
    let jobs: Vec<_> = [(Slot(0), ids(&[1])), (Slot(1), ids(&[2, 3]))].into();
    for r in 0..3 {
        let own = net.jobs.iter().filter(|(node, ..)| *node == r);
        assert_eq!(own.map(|(_, slot, ids)| (*slot, ids.clone())).collect::<Vec<_>>(), jobs);
        let replies: Vec<_> = replies_from(&mut net, r).iter().map(|reply| reply.id).collect();
        assert_eq!(replies, ids(&[1, 2, 3]), "replica {r}'s replies");
    }
    assert_replicas_agree(&net, 3);

    net.send_request(&req_of(3, 0));
    net.run();
    assert_eq!(net.jobs.len(), 6, "a retransmission ran a job");
    for r in 0..3 {
        let replies: Vec<_> = replies_from(&mut net, r).iter().map(|reply| reply.id).collect();
        assert_eq!(replies, ids(&[3]), "replica {r} answers the retransmission");
    }
}

/// One scripted step of a [`NodeNet`] run.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Client 1's request `seq` reaches every replica's link.
    Request(u64),
    /// Replica `r` fires every timer it has armed.
    Fire(usize),
    /// Pending move `i` is carried out.
    Apply(usize),
    /// Pending move `i`, a frame, is lost.
    Drop(usize),
}

fn act(net: &mut NodeNet, a: Act) {
    match a {
        Act::Request(seq) => net.send_request(&req(seq)),
        Act::Fire(r) => drop(net.fire_timers(r, |_| true)),
        Act::Apply(i) => net.apply(i),
        Act::Drop(i) => net.drop_move(i),
    }
}

/// `steps` steps picked by `seed`: moves by index, one frame in 64 lost,
/// and now and then a request or a replica's timers. Returns them.
fn explore(net: &mut NodeNet, seed: u64, steps: usize) -> Vec<Act> {
    let mut rng = SimRng::new(seed);
    let mut acts = Vec::with_capacity(steps);
    for _ in 0..steps {
        let pending = net.pending();
        let a = match rng.gen_range(64) {
            0 => Act::Request(acts.iter().filter(|a| matches!(a, Act::Request(_))).count() as u64),
            1 => Act::Fire(rng.gen_range(net.n as u64) as usize),
            _ if pending.is_empty() => Act::Fire(rng.gen_range(net.n as u64) as usize),
            _ => {
                let i = rng.gen_range(pending.len() as u64) as usize;
                let frame = matches!(pending[i], Move::Frame { .. });
                if frame && rng.chance(1, 64) {
                    Act::Drop(i)
                } else {
                    Act::Apply(i)
                }
            }
        };
        act(net, a);
        acts.push(a);
    }
    acts
}

/// What a run leaves behind, per replica: its execution log, its
/// application's digest, its decisions and its engine's explanation, and
/// its operation counts.
type Outcome = Vec<(Vec<(ClientId, u64)>, Digest, u64, EngineDiag, OpCounters)>;

fn outcome(net: &NodeNet) -> Outcome {
    let replica = |(nd, exec): (&ReplicaNode, &Executor)| {
        let (log, digest) = (exec.exec_log.clone(), exec.app.snapshot_digest());
        (log, digest, nd.engine.decided_count(), nd.engine.diag(), nd.counters)
    };
    net.nodes.iter().zip(&net.execs).map(replica).collect()
}

/// The same steps — requests, timer firings, moves applied and lost, each
/// picked by its index — give the same run on a fresh net: the same
/// execution logs, digests, decisions and operation counts, and the same
/// record of every call and the frames it sent.
#[test]
fn replaying_the_same_moves_repeats_the_run() {
    let cfg = SimConfig::paper_default(5);
    let mut executed = 0;
    for seed in 1..=8 {
        let mut net = NodeNet::new(&cfg);
        let acts = explore(&mut net, seed, 1500);
        let mut replay = NodeNet::new(&cfg);
        acts.iter().for_each(|a| act(&mut replay, *a));
        assert_eq!(outcome(&replay), outcome(&net), "seed {seed}: {acts:?}");
        assert!(replay.record == net.record, "seed {seed}: the records differ");
        executed += net.execs[0].exec_log.len();
    }
    assert!(executed > 0, "no explored run executed anything");
}

/// A register entry of message `k`, its fingerprint all `byte`.
fn reg(k: u64, byte: u8) -> RegEntry {
    RegEntry {
        k: SeqId(k),
        fp: ubft_crypto::Digest::from_bytes([byte; 32]),
        sig: ubft_crypto::Signature::garbage(),
    }
}

/// Every replica's handles, in replica order, on a group's banks laid out
/// on `mem`, each with the memory it is on.
fn group(mem: &InProcMemory, cfg: &SimConfig) -> Vec<(InProcMemory, Registers)> {
    Registers::in_process(mem, cfg).into_iter().map(|regs| (mem.clone(), regs)).collect()
}

/// The owner of `regs` writes `e` to its register `slot` of `stream` and
/// reads that slot back, in the round trip both untimed substrates make:
/// every owner's entry, in owner order.
fn round_trip(
    (mem, regs): &mut (InProcMemory, Registers),
    stream: usize,
    slot: usize,
    e: &RegEntry,
) -> Vec<Option<RegEntry>> {
    let ctb = |input| match input {
        NodeInput::Ctb { stream: s, done } if s == stream => done,
        _ => panic!("a completion of stream {stream}'s register round trip"),
    };
    match SlotRead::default().now(regs, mem, stream, slot, e).map(ctb) {
        [CtbDone::Written(w), CtbDone::Read(k, entries)] if w == e.k && k == e.k => entries,
        _ => panic!("a write's completion, then its read's"),
    }
}

/// A slot read on an untimed substrate fills the entry buffer of the one
/// before it: the driver hands each back once CTBcast has read it
/// (`Substrate::recycle_read`), and the next round trip's entries come
/// back in it.
#[test]
fn a_slot_read_reuses_the_entry_buffer_of_the_one_before() {
    let mut net = NodeNet::new(&SimConfig::paper_default(5).slow_only());
    assert!(net.request(payload(0)));
    assert!(net.read.entries.capacity() >= 3, "the last round trip's buffer came back");
    let buffer = net.read.entries.as_ptr();
    let read = |net: &NodeNet| {
        net.completions.iter().flatten().find_map(|input| match input {
            NodeInput::Ctb { done: CtbDone::Read(_, entries), .. } => Some(entries.as_ptr()),
            _ => None,
        })
    };
    net.issue(payload(1));
    while read(&net).is_none() {
        net.apply(0);
    }
    assert_eq!(read(&net), Some(buffer));
}

/// The same on the simulator, where a replica's round trips overlap: every
/// slot read's buffer comes back once CTBcast has read the entries, and 20
/// slow-path requests — over 200 round trips — make do with the buffers
/// of the few round trips that were ever under way at once.
#[test]
fn a_simulated_slot_read_reuses_the_entry_buffer_of_one_before() {
    let cfg = SimConfig::paper_default(5).slow_only();
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let mut cluster = Cluster::new(cfg, apps, Box::new(payload));
    let report = cluster.run(20, 0);
    assert!(report.counters.reg_writes > 200, "{:?}", report.counters);
    cluster.settle(Duration::from_millis(1));
    let reads = &cluster.groups[0].env.slot_reads;
    for (r, read) in reads {
        assert_eq!(read.unsettled, 0, "replica {r}'s read");
        assert!(read.entries.capacity() >= 3, "replica {r}'s read holds no buffer");
    }
    assert!(reads.len() <= 6, "{} slot reads", reads.len());
}

/// The round trip both untimed substrates make, §6.1's register protocol
/// on in-process memory: a write older than the register's newest reads
/// the newest back, every slot of every stream of every group is a
/// register of its own, and the read returns each owner's entry of the
/// slot, in owner order, the write included.
#[test]
fn a_register_round_trip_on_in_process_memory_reads_back_each_owners_entry() {
    let cfg = SimConfig::paper_default(1);
    let mem = InProcMemory::new(cfg.params.n_mem());
    let mut regs = group(&mem, &cfg);
    let mut rt =
        |owner: usize, stream, slot, e: &RegEntry| round_trip(&mut regs[owner], stream, slot, e);
    assert_eq!(rt(1, 1, 2, &reg(5, 0xB1)), [None, Some(reg(5, 0xB1)), None]);
    // A stale write (3 after 5) reads 5 back.
    assert_eq!(rt(1, 1, 2, &reg(3, 0xB0)), [None, Some(reg(5, 0xB1)), None]);
    // Another slot and another stream are other registers.
    assert_eq!(rt(0, 1, 3, &reg(9, 0xA9)), [Some(reg(9, 0xA9)), None, None]);
    assert_eq!(rt(2, 0, 2, &reg(8, 0xC8)), [None, None, Some(reg(8, 0xC8))]);
    // Written in the order 1, 2, 0; read back in owner order.
    assert_eq!(rt(2, 1, 2, &reg(4, 0xC2)), [None, Some(reg(5, 0xB1)), Some(reg(4, 0xC2))]);
    let all = [Some(reg(6, 0xA0)), Some(reg(5, 0xB1)), Some(reg(4, 0xC2))];
    assert_eq!(rt(0, 1, 2, &reg(6, 0xA0)), all);
    // Another group's banks on the same memory nodes are other registers
    // too, and a write there leaves this group's as they were.
    let mut other_group = group(&mem, &cfg);
    let theirs = round_trip(&mut other_group[1], 1, 2, &reg(7, 0xD1));
    assert_eq!(theirs, [None, Some(reg(7, 0xD1)), None]);
    assert_eq!(round_trip(&mut regs[2], 1, 2, &reg(10, 0xC3))[..2], all[..2]);
}

/// Two owners on two OS threads, a thousand times: each writes its
/// register of one slot and then reads the other's. In every trial at
/// least one of them finds the other's write — the regularity the slow
/// path rests on: both round trips share a memory node, and there one
/// owner's write comes before the other's read.
#[test]
fn of_two_owners_writing_then_reading_at_once_one_sees_the_other() {
    const TRIALS: u64 = 1_000;
    let cfg = SimConfig::paper_default(1);
    let tail = cfg.params.tail;
    let mut regs = group(&InProcMemory::new(cfg.params.n_mem()), &cfg);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let owners: Vec<_> = regs
        .drain(..2)
        .enumerate()
        .map(|(me, mut regs)| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let saw = |k: u64| {
                    barrier.wait();
                    let entries = round_trip(&mut regs, 0, k as usize % tail, &reg(k, me as u8));
                    entries[1 - me].as_ref().is_some_and(|e| e.k == SeqId(k))
                };
                (1..=TRIALS).map(saw).collect::<Vec<bool>>()
            })
        })
        .collect();
    let saw: Vec<Vec<bool>> = owners.into_iter().map(|t| t.join().expect("an owner")).collect();
    let missed = (0..TRIALS as usize).filter(|&t| !saw[0][t] && !saw[1][t]).count();
    assert_eq!(missed, 0, "trials of {TRIALS} where neither owner saw the other's write");
}

// ----------------------------------------------------------------------
// The client loop alone, on a scripted port
// ----------------------------------------------------------------------

/// A scripted [`ClientPort`]: records what the loop sends and arms, and
/// holds the clock and the deployment-wide completion count for a test to
/// move.
#[derive(Default)]
struct FakePort {
    /// `(client, request, replicas addressed)` per send.
    sent: Vec<(usize, RequestId, usize)>,
    /// `(client, timer, after)` per armed timer.
    armed: Vec<(usize, ClientTimer, Duration)>,
    now: Time,
    completed: u64,
}

impl ClientPort for FakePort {
    fn send(&mut self, c: usize, id: RequestId, bytes: &[u8], replicas: &[ReplicaId]) {
        assert_eq!(Request::from_bytes(bytes).map(|req| req.id), Ok(id), "the encoded request");
        self.sent.push((c, id, replicas.len()));
    }

    fn arm(&mut self, c: usize, timer: ClientTimer, after: Duration) {
        self.armed.push((c, timer, after));
    }

    fn now(&self) -> Time {
        self.now
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn complete(&mut self) -> u64 {
        self.completed += 1;
        self.completed
    }
}

/// Two clients of a three-replica group on a [`FakePort`], fed by a source
/// that counts its pulls and runs dry while `dry` is set.
struct LoopRig {
    clients: ClientLoop,
    port: FakePort,
    pulls: Rc<Cell<u64>>,
    dry: Rc<Cell<bool>>,
}

impl LoopRig {
    fn new(requests: u64, warmup: u64) -> Self {
        let (pulls, dry) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(false)));
        let (pulled, is_dry) = (Rc::clone(&pulls), Rc::clone(&dry));
        let source = move |_| {
            pulled.set(pulled.get() + 1);
            (!is_dry.get()).then(|| payload(pulled.get()))
        };
        let cfg = SimConfig::paper_default(1).with_clients(2);
        let (_ring, mut clients) = ClientLoop::bootstrap(&cfg, 0, Box::new(source) as Box<_>);
        clients.begin(requests, warmup);
        LoopRig { clients, port: FakePort::default(), pulls, dry }
    }

    fn fire(&mut self, c: usize, timer: ClientTimer) {
        self.clients.on_timer(&mut self.port, c, timer);
    }

    /// The request the loop sent last.
    fn in_flight(&self) -> RequestId {
        self.port.sent.last().expect("a request was sent").1
    }

    fn reply(&mut self, id: RequestId, replica: u32) {
        let reply = Reply { id, replica: ReplicaId(replica), payload: vec![1] };
        self.clients.on_reply(&mut self.port, &reply.to_bytes());
    }

    /// `f + 1` matching replies to `id`.
    fn complete(&mut self, id: RequestId) {
        self.reply(id, 0);
        self.reply(id, 1);
    }

    /// What was armed since the last call.
    fn armed(&mut self) -> Vec<(usize, ClientTimer, Duration)> {
        std::mem::take(&mut self.port.armed)
    }
}

/// An empty source is re-asked after 5, 10, … µs, never more than × 256
/// apart, and from 5 µs again once it has yielded a request.
#[test]
fn an_idle_client_backs_off_to_a_ceiling_and_resets_on_a_request() {
    let mut rig = LoopRig::new(10, 0);
    rig.dry.set(true);
    for step in 0..11 {
        rig.fire(0, ClientTimer::Issue);
        let after = Duration::from_micros(5 << step.min(8));
        assert_eq!(rig.armed(), [(0, ClientTimer::Issue, after)], "empty pull {step}");
    }
    assert_eq!((rig.pulls.get(), rig.port.sent.len()), (11, 0));

    rig.dry.set(false);
    rig.fire(0, ClientTimer::Issue);
    let id = rig.in_flight();
    assert_eq!(rig.port.sent, [(0, id, 3)], "one request, to all three replicas");
    assert!(matches!(rig.armed()[..], [(0, ClientTimer::Retry(armed), _)] if armed == id));

    rig.dry.set(true);
    rig.complete(id);
    assert_eq!(rig.armed(), [(0, ClientTimer::Issue, Duration::ZERO)], "re-issue at once");
    rig.fire(0, ClientTimer::Issue);
    assert_eq!(rig.armed(), [(0, ClientTimer::Issue, Duration::from_micros(5))]);
}

/// A retransmission check re-sends and re-arms while its request is in
/// flight, and does neither once the request completed.
#[test]
fn a_retry_resends_only_while_its_request_is_in_flight() {
    let mut rig = LoopRig::new(10, 0);
    rig.fire(1, ClientTimer::Issue);
    let id = rig.in_flight();
    let [(1, retry, period)] = rig.armed()[..] else { panic!("one retry timer per issue") };
    assert_eq!(retry, ClientTimer::Retry(id));

    rig.fire(1, retry);
    assert_eq!(rig.port.sent, [(1, id, 3), (1, id, 3)], "the same request again");
    assert_eq!(rig.armed(), [(1, retry, period)]);

    rig.complete(id);
    rig.armed();
    rig.fire(1, retry);
    assert_eq!(rig.port.sent.len(), 2, "a completed request was retransmitted");
    assert!(rig.armed().is_empty(), "a completed request's retry re-armed");
    // Nor does the stale check touch the client's next request.
    rig.fire(1, ClientTimer::Issue);
    rig.armed();
    rig.fire(1, retry);
    assert_eq!(rig.port.sent.len(), 3);
    assert!(rig.armed().is_empty());
}

/// The first `warmup` completions, counted deployment-wide, are not
/// measured; later ones record the time since their issue.
#[test]
fn warmup_completions_leave_the_latency_distribution_empty() {
    let mut rig = LoopRig::new(2, 2);
    // Another group's client completed one of the warm-up requests.
    rig.port.completed = 1;
    for (measured, took) in [(0, 7), (1, 9), (2, 11)] {
        rig.fire(0, ClientTimer::Issue);
        rig.port.now += Duration::from_micros(took);
        rig.complete(rig.in_flight());
        assert_eq!(rig.clients.latency.len(), measured);
    }
    assert_eq!(rig.clients.completed, 3);
    assert_eq!(rig.port.completed, 4);
    assert_eq!(rig.clients.latency.sorted_samples(), [9, 11].map(Duration::from_micros));
}

/// Once the deployment has completed what the run is after, a client's
/// `Issue` timer — a starved shard's back-off poll — neither pulls the
/// source nor sends, and the last completion arms nothing.
#[test]
fn nothing_is_pulled_or_issued_at_the_target() {
    let mut rig = LoopRig::new(1, 0);
    rig.dry.set(true);
    rig.fire(1, ClientTimer::Issue);
    rig.dry.set(false);
    rig.fire(0, ClientTimer::Issue);
    rig.armed();
    rig.complete(rig.in_flight());
    assert!(rig.armed().is_empty(), "the completion that met the target re-issued");

    let pulls = rig.pulls.get();
    for c in [0, 1] {
        rig.fire(c, ClientTimer::Issue);
    }
    assert_eq!(rig.pulls.get(), pulls, "the source was pulled past the target");
    assert_eq!(rig.port.sent.len(), 1);
    assert!(rig.armed().is_empty());
}

/// One rule for whose reply it is — the client the reply names: a client
/// the group does not have, an id no longer (or not yet) in flight and a
/// replica's second vote complete nothing.
#[test]
fn stray_replies_complete_nothing() {
    let mut rig = LoopRig::new(10, 0);
    rig.fire(0, ClientTimer::Issue);
    let id = rig.in_flight();
    rig.armed();

    rig.reply(RequestId::new(ClientId(2), id.seq), 0);
    rig.reply(RequestId::new(ClientId(1), id.seq), 0);
    rig.reply(RequestId::new(id.client, id.seq + 1), 0);
    rig.clients.on_reply(&mut rig.port, b"not a reply");
    rig.reply(id, 0);
    rig.reply(id, 0);
    assert_eq!((rig.clients.completed, rig.port.completed), (0, 0));
    assert!(rig.armed().is_empty());

    rig.reply(id, 2);
    assert_eq!((rig.clients.completed, rig.port.completed), (1, 1));
    rig.reply(id, 1);
    assert_eq!(rig.clients.completed, 1, "a reply to a completed request counted");
}

/// The driver hands every effect vector back to the engine or CTBcast
/// instance that returned it, and that changes nothing a run does: a
/// fault-free run on either path records the same calls and frames and
/// executes the same requests as it did while every input allocated its
/// own vector (digests taken then). No layer keeps more vectors than it
/// may, and the engine and the leader's stream, which every replica
/// receives, keep one for their next input.
#[test]
fn handing_effect_vectors_back_changes_no_run_and_keeps_each_pool_bounded() {
    let fast = SimConfig::paper_default(5).fast_only();
    let slow = SimConfig::paper_default(5).slow_only();
    for (cfg, steps, pinned) in [
        (fast, 1051, "875c728ca119765149366cac1c3fff2f8ce3103d7003af053e000ac828c294e8"),
        (slow, 2481, "885d549d5d43d3fde1e5f7a91ed65ff754a2f0f4a585a6d88ea4b2ddb36287d2"),
    ] {
        let mut net = NodeNet::new(&cfg);
        for i in 0..40 {
            assert!(net.request(payload(i)), "{:?} request {i} stalled", cfg.path);
        }
        assert_replicas_agree(&net, 40);
        let mut h = Sha256::new();
        net.record.iter().for_each(|step| h.update(format!("{step:?}").as_bytes()));
        net.execs.iter().for_each(|exec| h.update(format!("{:?}", exec.exec_log).as_bytes()));
        assert_eq!((net.record.len(), h.finalize().to_hex().as_str()), (steps, pinned));
        for (r, nd) in net.nodes.iter().enumerate() {
            let ctbs = nd.ctbs.iter().map(Ctb::spare_effect_vecs);
            let pools: Vec<usize> =
                [nd.engine.spare_effect_vecs()].into_iter().chain(ctbs).collect();
            assert!(pools.iter().all(|p| *p <= SPARES), "replica {r}: {pools:?}");
            assert!(pools[0] >= 1 && pools[1] >= 1, "replica {r}: {pools:?}");
        }
    }
}
