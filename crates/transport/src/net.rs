//! The vocabulary the two message planes share.
//!
//! A message plane carries opaque byte payloads between *nodes* (dense
//! `u32` indices assigned by the deployment) over *lanes* (a [`LaneId`]
//! namespace the runtime defines: one lane per CTBcast stream plus fixed
//! lanes for consensus TBcast, direct messages, and client RPC). The
//! contract is exactly what the protocol stack assumes of the RDMA
//! fabric's circular-buffer channels:
//!
//! * **Per-pair FIFO**: of the messages a `(lane, from, to)` triple
//!   delivers, delivery order equals send order. Messages may be *dropped*
//!   (a slower receiver's buffer overwrites its tail) but never reordered
//!   or duplicated.
//! * **Send never blocks**: a send either stages or overwrites; the
//!   sender learns about completions through the [`SendReport`].
//!
//! There are two, and the runtime calls each by its own type from its
//! backend's `Substrate` (`ubft_runtime`'s node driver is generic over
//! that, not over a transport trait — the two planes share neither how
//! bytes leave nor how a node learns that bytes arrived):
//! [`SimLinkTransport`](crate::sim_link::SimLinkTransport) wraps the
//! discrete-event fabric's channels — `send` / `flush` report
//! *virtual-time* scheduling hints, and a node polls one link's buffer at
//! the virtual instant a write lands — and
//! [`InProcRouter`](crate::inproc::InProcRouter) /
//! [`InProcEndpoint`](crate::inproc::InProcEndpoint) connect OS threads
//! through lock-free in-process queues: delivery is immediate, and the
//! receiving thread blocks on its inbox, which hands it the sender's
//! buffer.

use std::sync::Arc;

use ubft_types::{Few, Time};

/// Lane identifier. The runtime maps its protocol lanes into this
/// namespace: CTBcast stream `s` uses lane `s`, and the reserved lanes
/// below carry everything else.
pub type LaneId = u32;

/// Consensus-level TBcast traffic.
pub const LANE_CONS_TB: LaneId = 0xFFFF_FF00;
/// Point-to-point protocol messages.
pub const LANE_DIRECT: LaneId = 0xFFFF_FF01;
/// Client requests.
pub const LANE_CLIENT_REQ: LaneId = 0xFFFF_FF02;
/// Replica replies to clients.
pub const LANE_CLIENT_RESP: LaneId = 0xFFFF_FF03;

/// What a send (or flush) accomplished, in the transport's own time base.
#[derive(Clone, Debug, Default)]
pub struct SendReport {
    /// Link sequence number and completion time of each write issued to
    /// the wire by this call. A simulated transport reports virtual arrival
    /// times so the driver can schedule receiver polls; an in-process
    /// transport delivers eagerly and reports nothing.
    pub arrivals: Few<(u64, Time)>,
    /// When staged (not yet issued) data will next become flushable;
    /// `None` when nothing is staged. Drivers schedule a
    /// [`SimLinkTransport::flush`](crate::sim_link::SimLinkTransport::flush)
    /// at this time.
    pub flush_at: Option<Time>,
    /// Messages evicted unsent by this call (buffer overwrite under
    /// backpressure).
    pub evicted: u64,
    /// Writes the backend refused because the destination is down or cut
    /// off (a broken RC queue pair, on the simulated fabric). A backend
    /// with no failure model reports 0.
    pub refused: u64,
}

/// One message in a threaded node's inbox.
#[derive(Clone, Debug)]
pub struct Inbound {
    /// Lane the message arrived on.
    pub lane: LaneId,
    /// Sending node.
    pub from: u32,
    /// The payload bytes, exactly as sent. A shared buffer: an in-process
    /// transport hands over the sender's own handle, so a frame broadcast
    /// to several peers is never copied per peer.
    pub payload: Arc<[u8]>,
}
