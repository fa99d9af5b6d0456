//! The wall-clock message plane: one inbox queue per node, connected by
//! lock-free in-process channels.
//!
//! Every node of a threaded deployment owns an [`InProcEndpoint`] — the
//! receiving half of an MPSC queue plus a [`InProcRouter`] holding a
//! sender handle to every peer's queue. Sends enqueue directly into the
//! destination's inbox (the `std::sync::mpsc` send path is lock-free);
//! the receiving thread blocks on its inbox instead of polling, which is
//! what replaces the simulator's scheduled poll events.
//!
//! **FIFO guarantee.** A node's protocol loop runs on one thread, so all
//! its sends to a given peer are issued from one thread through one
//! `Sender` clone — `std::sync::mpsc` preserves that per-producer order,
//! which is exactly the per-`(lane, from, to)` FIFO contract of
//! [`crate::net`] (stronger, in fact: FIFO per `(from, to)` across all
//! lanes, and nothing is ever dropped). `tests` in this module stress the
//! guarantee under cross-thread contention.
//!
//! Deployments also need a *control plane* (crypto-pool completions,
//! register-op RPCs, shutdown) that is not protocol traffic; the inbox
//! carries both, typed, so a thread can block on a single queue. The
//! control payload type `X` is deployment-defined.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;

use crate::net::{Inbound, LaneId};

/// One message in a node's inbox: protocol bytes or a typed control frame.
pub enum InMsg<X> {
    /// Protocol traffic (what [`InProcRouter::send_net`] emits).
    Net(Inbound),
    /// Deployment-defined control traffic (crypto completions, register
    /// RPCs, shutdown).
    Ctl(X),
}

/// Cloneable handle that can reach every node's inbox.
pub struct InProcRouter<X> {
    senders: Vec<Sender<InMsg<X>>>,
}

impl<X> Clone for InProcRouter<X> {
    fn clone(&self) -> Self {
        InProcRouter { senders: self.senders.clone() }
    }
}

impl<X> InProcRouter<X> {
    /// Number of nodes in the mesh.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the mesh is empty.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Sends a control frame to node `to`. Returns `false` if the
    /// destination's endpoint was dropped (its thread exited).
    pub fn send_ctl(&self, to: u32, msg: X) -> bool {
        self.senders[to as usize].send(InMsg::Ctl(msg)).is_ok()
    }

    /// Sends protocol bytes to node `to` on `lane`, from any thread holding
    /// a router. Delivery is eager — the destination thread wakes on its
    /// inbox — so there is nothing to schedule and nothing ever stages. A
    /// sender that already holds the bytes in a shared buffer passes a clone
    /// of its handle and nothing is copied; anything else is copied once
    /// into a fresh one.
    pub fn send_net(
        &self,
        lane: LaneId,
        from: u32,
        to: u32,
        payload: impl Into<Arc<[u8]>>,
    ) -> bool {
        let payload = payload.into();
        self.senders[to as usize].send(InMsg::Net(Inbound { lane, from, payload })).is_ok()
    }
}

/// One node's end of the mesh: its inbox plus a router to every peer.
pub struct InProcEndpoint<X> {
    me: u32,
    rx: Receiver<InMsg<X>>,
    router: InProcRouter<X>,
}

/// Builds an `n`-node in-process mesh: a router (for threads that are not
/// nodes, e.g. crypto workers answering into replica inboxes) and one
/// endpoint per node, in index order.
pub fn inproc_mesh<X>(n: usize) -> (InProcRouter<X>, Vec<InProcEndpoint<X>>) {
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let router = InProcRouter { senders };
    let endpoints = receivers
        .into_iter()
        .enumerate()
        .map(|(i, rx)| InProcEndpoint { me: i as u32, rx, router: router.clone() })
        .collect();
    (router, endpoints)
}

impl<X> InProcEndpoint<X> {
    /// This endpoint's node index.
    pub fn me(&self) -> u32 {
        self.me
    }

    /// The mesh router (clone it to hand to helper threads).
    pub fn router(&self) -> &InProcRouter<X> {
        &self.router
    }

    /// Blocks up to `timeout` for the next inbox message. `None` on
    /// timeout or when every sender is gone.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<InMsg<X>> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<InMsg<X>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The FIFO contract under contention: many producer threads blast
    /// numbered messages at one consumer endpoint concurrently; per-pair
    /// order must survive arbitrary interleaving, with nothing lost.
    #[test]
    fn per_producer_fifo_survives_contention() {
        const PRODUCERS: usize = 8;
        const MSGS: u64 = 5_000;
        let (router, mut eps) = inproc_mesh::<()>(PRODUCERS + 1);
        let consumer_idx = PRODUCERS as u32;
        let consumer = eps.pop().expect("consumer endpoint");

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(PRODUCERS));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let router = router.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait(); // maximize interleaving
                    for i in 0..MSGS {
                        let mut payload = (p as u64).to_le_bytes().to_vec();
                        payload.extend_from_slice(&i.to_le_bytes());
                        assert!(router.send_net(7, p as u32, consumer_idx, payload));
                    }
                })
            })
            .collect();

        let mut next_expected = [0u64; PRODUCERS];
        let mut total = 0u64;
        while total < PRODUCERS as u64 * MSGS {
            while let Some(InMsg::Net(inb)) = consumer.try_recv() {
                assert_eq!(inb.lane, 7);
                let p = u64::from_le_bytes(inb.payload[..8].try_into().unwrap()) as usize;
                let i = u64::from_le_bytes(inb.payload[8..16].try_into().unwrap());
                assert_eq!(inb.from, p as u32);
                assert_eq!(
                    i, next_expected[p],
                    "producer {p} delivered out of order: got {i}, expected {}",
                    next_expected[p]
                );
                next_expected[p] += 1;
                total += 1;
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().expect("producer");
        }
        assert!(next_expected.iter().all(|&n| n == MSGS));
    }

    /// Control frames and protocol traffic share the one inbox: a drain
    /// sees both, each kind in the order its producer sent it.
    #[test]
    fn ctl_and_net_frames_share_one_fifo_inbox() {
        let (router, mut eps) = inproc_mesh::<u64>(2);
        let ep = eps.pop().expect("endpoint 1");
        for i in 0..100u64 {
            assert!(router.send_net(3, 0, 1, vec![i as u8]));
            assert!(router.send_ctl(1, i));
        }
        let (mut net, mut ctl) = (Vec::new(), Vec::new());
        while let Some(msg) = ep.try_recv() {
            match msg {
                InMsg::Net(inb) => net.push(inb.payload[0] as u64),
                InMsg::Ctl(x) => ctl.push(x),
            }
        }
        assert_eq!(net, (0..100).collect::<Vec<_>>());
        assert_eq!(ctl, (0..100).collect::<Vec<_>>());
    }

    /// A sender that holds its bytes in a shared buffer passes the handle:
    /// two receivers of one frame read the sender's own allocation.
    #[test]
    fn a_shared_buffer_crosses_the_mesh_without_a_copy() {
        let (router, eps) = inproc_mesh::<()>(3);
        let frame: Arc<[u8]> = Arc::from(&b"frame"[..]);
        for to in [1, 2] {
            assert!(router.send_net(0, 0, to, frame.clone()));
            let Some(InMsg::Net(inb)) = eps[to as usize].try_recv() else { panic!("just sent") };
            assert!(Arc::ptr_eq(&inb.payload, &frame));
        }
    }
}
