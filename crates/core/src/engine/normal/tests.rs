//! Proposals on the scripted fabric: what a follower holds and accepts.

use ubft_types::{ClientId, ClusterParams, RequestId, Slot};

use crate::app::NoopApp;
use crate::engine::{EngineConfig, PathMode, TimerKind};
use crate::harness::EngineNet;
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
