//! Proposals on the scripted fabric: what a follower holds and accepts,
//! and the vectors its effects leave in.

use ubft_types::outbox::SPARES;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, ClusterParams, ReplicaId, RequestId, SeqId, Slot, View};

use crate::app::NoopApp;
use crate::engine::{
    CryptoResult, CryptoTag, DecisionEvidence, Effect, Engine, EngineConfig, PathMode, Standing,
    TimerKind,
};
use crate::harness::EngineNet;
use crate::msg::{Batch, CtbMsg, TbMsg};
use crate::Request;

/// A follower that never received the request holds the leader's PREPARE;
/// the slot's COMMITs then carry the PREPARE to it, and it decides. The
/// PREPARE it accepted that way is waited on no more: `held` names no
/// accepted slot.
#[test]
fn a_prepare_accepted_from_its_commits_is_no_longer_held() {
    let params = ClusterParams::paper_default();
    let mut net = EngineNet::<NoopApp>::new(EngineConfig::new(params, PathMode::SlowOnly));
    let req = Request { id: RequestId::new(ClientId(1), 0), payload: vec![7] };
    for r in [0, 2] {
        let fx = net.engines[r].on_client_request(req.clone());
        net.emit(r, fx);
    }
    net.run();
    // r1's echo never comes: the leader proposes on its echo sweep.
    for _ in 0..2 {
        net.fire_timers(|k| *k == TimerKind::EchoFallback);
    }
    let r1 = &net.engines[1];
    assert!(r1.slots[&Slot(0)].decided.is_some(), "r1 did not decide slot 0");
    let accepted = |slot: &&Slot| r1.slots.get(slot).is_some_and(|s| s.prepare.is_some());
    let stale: Vec<&Slot> = r1.held.iter().filter(accepted).collect();
    assert!(stale.is_empty(), "held names accepted slots {stale:?}");
}

/// A slot a decision frees from a full pipeline does not take a batch
/// that is not full while fewer requests are ready than one follower has
/// echoed and the other not yet: the leader proposes them together once
/// the second follower's echoes are in. A slot free from the start does not
/// wait.
#[test]
fn a_slot_a_decision_frees_waits_for_the_echoes_under_way() {
    let mut cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
    (cfg.max_batch, cfg.pipeline_depth) = (4, 2);
    let mut net = EngineNet::<NoopApp>::new(cfg);
    let leader = &mut net.engines[0];
    let (r1, r2) = (ReplicaId(1), ReplicaId(2));
    let req = |c: u32| Request { id: RequestId::new(ClientId(c), 0), payload: vec![c as u8] };
    let proposed = |fx: Vec<Effect>| -> Vec<Vec<RequestId>> {
        let batches = fx.into_iter().filter_map(|e| match e {
            Effect::CtbBroadcast(CtbMsg::Prepare(p)) => Some(p.batch),
            _ => None,
        });
        batches.map(|b| b.requests().iter().map(|r| r.id).collect()).collect()
    };
    let ids = |cs: &[u32]| vec![cs.iter().map(|c| req(*c).id).collect::<Vec<_>>()];
    for c in 1..=5 {
        let _ = leader.on_client_request(req(c));
    }
    // Both slots are free: each request goes as its echoes complete it,
    // though r1 has echoed the next ones already.
    let _ = leader.on_echo(r1, (1..=5).map(req));
    assert_eq!(proposed(leader.on_echo(r2, [req(1)])), ids(&[1]));
    assert_eq!(proposed(leader.on_echo(r2, [req(2)])), ids(&[2]));
    // Slot 0 decides and frees a slot of the full pipeline. r2's echoes of
    // three more requests are under way: one is in.
    assert!(proposed(leader.on_echo(r2, [req(3)])).is_empty());
    leader.decide(Slot(0), Batch::single(req(1)), DecisionEvidence::FastQuorum { votes: 3 });
    assert!(proposed(leader.take_out()).is_empty(), "cut a batch of 1 of 3");
    assert_eq!(proposed(leader.on_echo(r2, [4, 5].map(req))), ids(&[3, 4, 5]));
}

/// The leader decodes the CTBcast delivery of its own PREPARE against the
/// batch it proposed: the two share one request slice. The delivery is
/// accepted like any other — the proposal is not a second PREPARE for the
/// slot — and the leader keeps nothing of it beyond `PeerState::prepares`.
#[test]
fn the_leader_decodes_its_own_prepare_against_the_batch_it_proposed() {
    let cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
    let mut leader = EngineNet::<NoopApp>::new(cfg).engines.swap_remove(0);
    let req = Request { id: RequestId::new(ClientId(1), 0), payload: vec![1] };
    let _ = leader.on_client_request(req.clone());
    let _ = leader.on_echo(ReplicaId(1), [req.clone()]);
    let fx = leader.on_echo(ReplicaId(2), [req]);
    let Some(Effect::CtbBroadcast(msg @ CtbMsg::Prepare(_))) =
        fx.into_iter().find(|e| matches!(e, Effect::CtbBroadcast(_)))
    else {
        panic!("the leader proposed nothing")
    };
    let CtbMsg::Prepare(proposed) = &msg else { unreachable!() };
    let decoded = CtbMsg::from_bytes_holding(&msg.to_bytes(), &leader).expect("own encoding");
    let CtbMsg::Prepare(delivered) = &decoded else { panic!("{decoded:?}") };
    assert!(std::ptr::eq(delivered.batch.requests(), proposed.batch.requests()));
    let fx = leader.on_ctb_deliver(ReplicaId(0), SeqId(1), decoded.clone());
    assert!(!fx.iter().any(|e| matches!(e, Effect::ByzantineDetected { .. })), "{fx:?}");
    assert!(leader.slots[&proposed.slot].prepare.is_some(), "its own PREPARE was not accepted");
    assert!(leader.proposed.is_empty());
}

/// Replica 1 of a fast-path group, a follower.
fn follower() -> Engine {
    let cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
    EngineNet::<NoopApp>::new(cfg).engines.swap_remove(1)
}

/// Client `c`'s request reaches the follower, which echoes it.
fn echoed(e: &mut Engine, c: u32) -> Vec<Effect> {
    let fx = e.on_client_request(Request { id: RequestId::new(ClientId(c), 0), payload: vec![] });
    assert!(fx.iter().any(|e| matches!(e, Effect::SendReplica { .. })), "{fx:?}");
    fx
}

/// A vector handed back holds the effects of the next input that has any:
/// the same buffer, at the same capacity. An input with none returns a
/// vector that owns nothing and leaves the spare where it is.
#[test]
fn the_next_input_builds_its_effects_in_the_vector_handed_back() {
    let mut e = follower();
    let fx = echoed(&mut e, 1);
    let (ptr, cap) = (fx.as_ptr(), fx.capacity());
    e.recycle(fx);
    // A result of the wrong kind for its tag continues nothing.
    let tag = CryptoTag::SlotShare { slot: Slot(0), view: View(0) };
    assert_eq!(e.on_crypto_done(tag, CryptoResult::Verified(true)).capacity(), 0);
    let fx = echoed(&mut e, 2);
    assert_eq!((fx.as_ptr(), fx.capacity()), (ptr, cap));
}

/// Inputs nested deeper than the pool holds, each returning its own
/// vector, leave no more than `SPARES` behind once all are handed back.
#[test]
fn nested_inputs_never_grow_the_pool_past_its_bound() {
    let mut e = follower();
    let held: Vec<_> = (1..=SPARES as u32 + 2).map(|c| echoed(&mut e, c)).collect();
    held.into_iter().for_each(|fx| e.recycle(fx));
    assert_eq!(e.spare_effect_vecs(), SPARES);
}

/// A brand is for good: the branded peer's WILL_CERTIFY, echo and join, and
/// a later suspicion, each leave it branded, and the fast path counts it
/// out throughout. A suspected peer is trusted again at its first frame.
#[test]
fn a_brand_outlives_every_frame_and_a_suspicion_ends_at_the_first() {
    let mut e = follower();
    let (r0, r2) = (ReplicaId(0), ReplicaId(2));
    let standing = |e: &Engine, r: ReplicaId| e.state[&r].standing;
    let will_certify = TbMsg::WillCertify { view: View(0), slot: Slot(0) };
    let req = Request { id: RequestId::new(ClientId(1), 0), payload: vec![] };
    assert!(!e.suspects_anyone());
    e.suspect([r2]);
    assert_eq!(standing(&e, r2), Standing::Suspected);
    let fx = e.on_ctb_equivocation(r0, SeqId(3));
    assert!(matches!(fx[..], [Effect::ByzantineDetected { replica: ReplicaId(0), .. }]), "{fx:?}");
    let branded = Standing::Branded(Some(SeqId(3)));
    let _ = e.on_tb_deliver(r0, will_certify.clone());
    assert!(e.slots.get(&Slot(0)).is_none_or(|s| !s.will_certify.contains(r0)), "vote counted");
    assert_eq!(standing(&e, r0), branded, "after its WILL_CERTIFY");
    let _ = e.on_echo(r0, [req]);
    assert_eq!(standing(&e, r0), branded, "after its echo");
    let _ = e.on_join(r0);
    assert_eq!(standing(&e, r0), branded, "after its join");
    e.suspect([r0]);
    assert_eq!(standing(&e, r0), branded, "after a suspicion");
    assert!(e.on_ctb_equivocation(r0, SeqId(4)).is_empty(), "branded twice");
    assert_eq!(standing(&e, r0), branded, "after a second equivocation");
    // r2 speaks: its suspicion ends, r0's brand does not.
    let _ = e.on_tb_deliver(r2, will_certify);
    assert_eq!(standing(&e, r2), Standing::Trusted);
    assert!(e.suspects_anyone(), "a branded peer counts as suspected");
    let diag = e.diag();
    assert_eq!((diag.suspected, diag.equivocations), (vec![r0], vec![(r0, SeqId(3))]));
    assert_eq!(diag.streams[0].standing, branded);
}
