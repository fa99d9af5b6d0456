//! The ledger alone: no engine is built here.

use super::*;

const R1: ReplicaId = ReplicaId(1);
const R2: ReplicaId = ReplicaId(2);
const SHARED: Stage = Stage::Queued { solo: false };
const SOLO: Stage = Stage::Queued { solo: true };

fn ledger() -> Requests {
    Requests::new(16, 2, FixedState::default())
}

fn id(client: u32, seq: u64) -> RequestId {
    RequestId::new(ClientId(client), seq)
}

fn req(client: u32, seq: u64) -> Request {
    Request { id: id(client, seq), payload: vec![client as u8, seq as u8] }
}

fn ids(batch: Option<Batch>) -> Vec<RequestId> {
    batch.map_or(Vec::new(), |b| b.requests().iter().map(|r| r.id).collect())
}

fn stage(l: &Requests, id: RequestId) -> Option<Stage> {
    l.records.get(&id).map(|r| r.stage)
}

#[test]
fn a_request_walks_every_stage_once() {
    let mut l = ledger();
    let a = id(1, 0);
    assert_eq!(l.receive(req(1, 0)), None);
    assert_eq!(stage(&l, a), Some(Stage::Seen));
    assert!(l.has_pending(0) && !l.has_pending(1));
    // One echo of two: not ready. Twice the same follower is one echo.
    assert!(l.echo(R1, req(1, 0)) && l.echo(R1, req(1, 0)));
    assert!(l.has_pending(1) && !l.has_pending(2));
    assert!(!l.queue(a, false, 2));
    assert!(l.echo(R2, req(1, 0)));
    assert!(l.queue(a, false, 2));
    assert_eq!(stage(&l, a), Some(SHARED));
    assert_eq!(l.counts(), (1, 1, 1));
    assert_eq!(ids(l.next_batch(4)), [a]);
    assert_eq!(stage(&l, a), Some(Stage::InSlot));
    assert_eq!(l.counts(), (1, 1, 0));
    assert!(l.execute(a));
    assert_eq!(stage(&l, a), Some(Stage::Executed));
    assert!(!l.has_pending(0));
    // Still held, so a PREPARE that re-proposes it can be endorsed.
    assert!(l.endorsed(&Batch::single(req(1, 0))));
    l.reclaim();
    assert_eq!(l.counts(), (0, 0, 0));
    assert!(!l.endorsed(&Batch::single(req(1, 0))));
    assert_eq!(l.exec_table(), [(ClientId(1), 1)]);
}

#[test]
fn what_does_not_apply_to_a_stage_is_refused() {
    let mut l = ledger();
    let (a, b) = (id(1, 0), id(2, 0));
    // A second receipt is a retransmission, whatever the stage.
    l.receive(req(1, 0));
    assert_eq!(l.receive(req(1, 0)), Some(Stage::Seen));
    assert!(l.queue(a, false, 0));
    assert_eq!(l.receive(req(1, 0)), Some(SHARED));
    // Queued is queued once: no second entry, and the echo timeout of a
    // queued request does not make it solo.
    assert!(!l.queue(a, false, 0) && !l.queue(a, true, 0));
    assert_eq!(stage(&l, a), Some(SHARED));
    assert_eq!(l.counts(), (1, 1, 1));
    // Nor does it queue a request that is in a slot, or one never seen.
    l.next_batch(1);
    assert!(!l.queue(a, true, 0) && !l.queue(b, true, 0));
    assert_eq!(l.next_batch(1), None);
    // An executed request takes no echo, no receipt and no queue, before
    // its reclaim and after.
    l.execute(a);
    for _ in 0..2 {
        assert!(!l.echo(R1, req(1, 0)));
        assert_eq!(l.receive(req(1, 0)), Some(Stage::Executed));
        assert!(!l.queue(a, false, 0) && !l.queue(a, true, 0));
        l.queue_outstanding();
        assert_eq!(l.counts().2, 0);
        l.reclaim();
    }
    assert_eq!(l.counts(), (0, 0, 0));
}

#[test]
fn an_echo_alone_makes_the_request_known() {
    let mut l = ledger();
    assert!(l.echo(R1, req(1, 0)));
    assert_eq!(l.get(id(1, 0)), Some(req(1, 0)));
    assert_eq!(l.receive(req(1, 0)), Some(Stage::Seen));
    assert!(!l.queue(id(1, 0), false, 2));
    assert!(l.echo(R2, req(1, 0)) && l.queue(id(1, 0), false, 2));
}

#[test]
fn a_request_no_client_handed_us_waits_for_f_plus_1_echoes() {
    let mut l = ledger();
    // Echoed by one follower only: queued neither where the round is
    // waived nor by an incoming leader.
    assert!(l.echo(R1, req(1, 0)));
    assert!(!l.queue(id(1, 0), false, 0));
    l.queue_outstanding();
    assert_eq!(l.counts().2, 0);
    assert!(l.echo(R2, req(1, 0)) && l.queue(id(1, 0), false, 0));
    // From its client, a request needs no echo where the round is waived.
    l.receive(req(2, 0));
    assert!(l.queue(id(2, 0), false, 0));
}

#[test]
fn outstanding_is_in_request_id_order_whatever_the_arrival_order() {
    let mut l = ledger();
    for (client, seq) in [(7, 3), (2, 9), (7, 1), (1, 4), (2, 0)] {
        l.receive(req(client, seq));
    }
    l.execute(id(2, 9));
    assert_eq!(l.outstanding(), [id(1, 4), id(2, 0), id(7, 1), id(7, 3)]);
    assert_eq!(l.get(id(7, 1)), Some(req(7, 1)));
    // An incoming leader queues them in that order, proposed ones apart.
    l.queue(id(7, 1), true, 0);
    l.next_batch(1);
    l.queue_outstanding();
    assert_eq!(ids(l.next_batch(8)), [id(1, 4), id(2, 0), id(7, 3)]);
}

#[test]
fn a_batch_stops_at_or_takes_exactly_the_first_solo_request() {
    let mut l = ledger();
    for seq in 0..6 {
        l.receive(req(1, seq));
        l.queue(id(1, seq), seq == 2, 0);
    }
    assert_eq!(ids(l.next_batch(8)), [id(1, 0), id(1, 1)]);
    assert_eq!(ids(l.next_batch(8)), [id(1, 2)]);
    assert_eq!(ids(l.next_batch(2)), [id(1, 3), id(1, 4)]);
    assert_eq!(ids(l.next_batch(2)), [id(1, 5)]);
    assert_eq!(l.next_batch(2), None);
}

#[test]
fn reclaim_leaves_exactly_what_has_not_executed() {
    let mut l = ledger();
    for seq in 0..5 {
        l.receive(req(1, seq));
    }
    l.queue(id(1, 1), false, 0);
    l.queue(id(1, 2), false, 0);
    l.next_batch(1);
    l.queue(id(1, 3), true, 0);
    for seq in [0, 1] {
        assert!(l.execute(id(1, seq)));
    }
    l.reclaim();
    assert_eq!(stage(&l, id(1, 2)), Some(SHARED));
    assert_eq!(stage(&l, id(1, 3)), Some(SOLO));
    assert_eq!(stage(&l, id(1, 4)), Some(Stage::Seen));
    assert_eq!(l.counts(), (3, 3, 2));
    assert_eq!(l.exec_table(), [(ClientId(1), 2)]);
}

#[test]
fn executing_takes_a_request_out_of_the_queue_and_twice_is_a_duplicate() {
    let mut l = ledger();
    for seq in 0..3 {
        l.receive(req(1, seq));
        l.queue(id(1, seq), false, 0);
    }
    // Another leader's slot carried request 1 while it waited here.
    assert!(l.execute(id(1, 1)));
    assert_eq!(l.counts(), (2, 3, 2));
    // Re-proposed across views, it reaches execution a second time.
    assert!(!l.execute(id(1, 1)));
    assert_eq!(ids(l.next_batch(8)), [id(1, 0), id(1, 2)]);
    // A request this replica never held executes once all the same.
    assert!(l.execute(id(9, 0)) && !l.execute(id(9, 0)));
    assert_eq!(l.exec_table(), [(ClientId(1), 2), (ClientId(9), 1)]);
}

#[test]
fn a_certified_table_lets_go_of_what_it_proves_executed() {
    let mut l = ledger();
    for (client, seq) in [(1, 0), (1, 1), (2, 0), (3, 5)] {
        l.receive(req(client, seq));
        l.queue(id(client, seq), false, 0);
    }
    // Executed here below the table's base, where execution waited for it:
    // the table accounts for it.
    l.execute(id(5, 0));
    // Client 1 executed up to sequence 0, client 2 nothing we hold, and
    // client 3 up to sequence 5.
    let table = vec![(ClientId(1), 1), (ClientId(3), 6), (ClientId(4), 7), (ClientId(5), 1)];
    l.adopt_exec_table(table.clone());
    assert_eq!(ids(l.next_batch(8)), [id(1, 1), id(2, 0)]);
    assert_eq!(l.counts(), (2, 2, 0));
    // The table replaces ours, in its own order.
    assert_eq!(l.exec_table(), table);
    assert_eq!(l.receive(req(4, 6)), Some(Stage::Executed));
    assert_eq!(l.receive(req(4, 7)), None);
}

fn wait_marks(l: &Requests) -> usize {
    l.records.values().filter(|r| r.wait != Deadline::Unset).count()
}

#[test]
fn a_retransmitted_request_carries_one_wait_mark() {
    let mut l = ledger();
    let a = id(1, 0);
    l.receive(req(1, 0));
    assert!(l.await_echoes(a), "the first wait arms the sweep");
    for _ in 0..1_000 {
        assert_eq!(l.receive(req(1, 0)), Some(Stage::Seen));
        assert!(!l.await_echoes(a));
    }
    assert_eq!(wait_marks(&l), 1);
    // Marked at the first firing, and retransmissions do not postpone its
    // fallback: with `f` echoes the second firing queues it, alone.
    assert!(l.sweep_echo_waits(Some(1)), "armed again while it waits");
    for _ in 0..1_000 {
        l.receive(req(1, 0));
        assert!(!l.await_echoes(a));
    }
    assert!(l.echo(R1, req(1, 0)));
    assert!(!l.sweep_echo_waits(Some(1)), "armed again with nothing waiting");
    assert_eq!(stage(&l, a), Some(SOLO));
    assert_eq!((wait_marks(&l), l.counts()), (0, (1, 1, 1)));
}

#[test]
fn a_sweep_gives_up_on_a_request_short_of_f_echoes_until_it_is_retransmitted() {
    let mut l = ledger();
    let (a, b) = (id(1, 0), id(2, 0));
    l.receive(req(1, 0));
    l.receive(req(2, 0));
    assert!(l.await_echoes(a) && !l.await_echoes(b));
    // b is fully echoed and queued before the first firing; a is not.
    assert!(l.echo(R1, req(2, 0)) && l.echo(R2, req(2, 0)) && l.queue(b, false, 2));
    assert!(l.sweep_echo_waits(Some(1)) && !l.sweep_echo_waits(Some(1)));
    assert_eq!((stage(&l, a), stage(&l, b)), (Some(Stage::Seen), Some(SHARED)));
    // The sweep stopped; a retransmission makes a wait again and arms it.
    assert!(l.await_echoes(a));
    assert!(l.echo(R1, req(1, 0)));
    assert!(l.sweep_echo_waits(Some(1)) && !l.sweep_echo_waits(Some(1)));
    assert_eq!(stage(&l, a), Some(SOLO));
    // Nothing waits at a replica that stops leading, and its sweep stops.
    l.receive(req(3, 0));
    assert!(l.await_echoes(id(3, 0)));
    assert!(!l.sweep_echo_waits(None));
    assert_eq!(wait_marks(&l), 0);
    assert!(l.await_echoes(id(3, 0)), "the sweep did not stop");
}

/// `echoing` counts the requests some follower echoed that are neither
/// queued nor proposed: the first echo adds one, a second follower's does
/// not, and queuing, executing or a certified table's pruning takes it
/// away.
#[test]
fn echoing_counts_the_requests_whose_echo_round_is_under_way() {
    let mut l = ledger();
    for seq in 0..3 {
        l.receive(req(1, seq));
    }
    assert_eq!(l.echoing(), 0);
    for seq in 0..3 {
        assert!(l.echo(R1, req(1, seq)));
    }
    assert!(l.echo(R1, req(1, 0)) && l.echo(R2, req(1, 0)));
    assert_eq!(l.echoing(), 3);
    assert!(l.queue(id(1, 0), false, 2));
    assert_eq!((l.echoing(), l.queued()), (2, 1));
    // Echoing a queued request changes nothing; executing one that waits
    // for its round ends it.
    assert!(l.echo(R2, req(1, 0)));
    assert!(l.execute(id(1, 1)));
    assert_eq!(l.echoing(), 1);
    // A request only echoes brought counts too.
    assert!(l.echo(R2, req(2, 0)));
    assert_eq!(l.echoing(), 2);
    // A certified table that proves client 1's requests executed prunes them.
    l.adopt_exec_table(vec![(ClientId(1), 3)]);
    assert_eq!((l.echoing(), l.queued()), (1, 0));
}
