//! The discrete-event message plane: every link is one of the RDMA
//! circular-buffer [`channel`](crate::channel)s living in fabric memory.
//!
//! The channel mechanics (staging, slot busy-until, incarnation-checked
//! polls) are the channels' own; this is the map from `(lane, from, to)`
//! to a link. The driver remains responsible for *scheduling*: it turns
//! a send's [`SendOutcome::issued`] writes into receiver-poll events (each
//! a [`SimLinkTransport::poll`]) and [`SendOutcome::flush_at`] into flush
//! events in its virtual-time queue.

use std::ops::Range;

use ubft_rdma::Fabric;
use ubft_sim::HostId;
use ubft_types::{FixedMap, Time};

use crate::channel::{
    create_channel, ChannelReceiver, ChannelSender, ChannelSpec, PollOutcome, SendOutcome,
};
use crate::net::LaneId;

struct Link {
    tx: ChannelSender,
    rx: ChannelReceiver,
}

/// Keyed collection of simulated circular-buffer links, one per
/// `(lane, from, to)` triple the deployment opened.
#[derive(Default)]
pub struct SimLinkTransport {
    links: FixedMap<(LaneId, u32, u32), Link>,
}

impl SimLinkTransport {
    /// An empty link map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or replaces) the link `(lane, from, to)`: allocates the
    /// circular buffer in `to_host`'s fabric memory and binds the sender
    /// to `from_host` for crash/partition modelling. Replacing an existing
    /// link drops the old endpoints — exactly what a replacement node's
    /// re-established connection does.
    #[allow(clippy::too_many_arguments)]
    pub fn open_link(
        &mut self,
        fabric: &mut Fabric,
        lane: LaneId,
        from: u32,
        to: u32,
        from_host: HostId,
        to_host: HostId,
        spec: ChannelSpec,
    ) {
        let (mut tx, rx) = create_channel(fabric, to_host, spec);
        tx.bind_issuer(from_host);
        self.links.insert((lane, from, to), Link { tx, rx });
    }

    /// Polls the receiving end of link `(lane, from, to)` at virtual time
    /// `now`: every ready message is appended to `buf` and reported as the
    /// range holding its payload ([`ChannelReceiver::poll_into`]). A link
    /// that was never opened delivers nothing.
    pub fn poll(
        &mut self,
        fabric: &mut Fabric,
        lane: LaneId,
        from: u32,
        to: u32,
        now: Time,
        buf: &mut Vec<u8>,
    ) -> PollOutcome<Range<usize>> {
        match self.links.get_mut(&(lane, from, to)) {
            Some(link) => link.rx.poll_into(fabric, now, buf),
            None => PollOutcome::default(),
        }
    }

    /// Sends `payload` from node `from` to node `to` on `lane` at virtual
    /// time `now`. Never blocks; per-pair FIFO order is `send` call order.
    /// A link that was never opened takes nothing.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        lane: LaneId,
        from: u32,
        to: u32,
        payload: &[u8],
        now: Time,
    ) -> SendOutcome {
        match self.links.get_mut(&(lane, from, to)) {
            Some(link) => link.tx.send(fabric, now, payload),
            None => SendOutcome::default(),
        }
    }

    /// Retries the data staged on one link.
    pub fn flush(
        &mut self,
        fabric: &mut Fabric,
        lane: LaneId,
        from: u32,
        to: u32,
        now: Time,
    ) -> SendOutcome {
        match self.links.get_mut(&(lane, from, to)) {
            Some(link) => link.tx.flush(fabric, now),
            None => SendOutcome::default(),
        }
    }

    /// Buffer bytes attributable to node `r`: receive buffers it hosts
    /// plus sender mirrors/staging of its outgoing links (Table 2's
    /// replica-local accounting).
    pub fn resident_bytes_touching(&self, r: u32) -> usize {
        let mut total = 0usize;
        for ((_lane, from, to), link) in &self.links {
            if *to == r {
                total += link.tx.buffer_bytes(); // receiver-side buffer
            }
            if *from == r {
                total += link.tx.buffer_bytes(); // sender mirror + staging
            }
        }
        total
    }
}
