//! uBFT's fast message-passing primitive (§6.2).
//!
//! The primitive is a one-way channel from a sender to a receiver where the
//! receiver is only required to deliver the last `t` messages sent. The
//! receiver exposes a circular buffer over RDMA; the sender RDMA-writes
//! messages into it and **never waits for acknowledgements** — new messages
//! overwrite old ones, and a staging queue absorbs bursts while slots have
//! in-flight writes. The receiver polls its local memory, detects overwritten
//! slots via incarnation numbers, and skips ahead to the oldest message still
//! in the buffer, preserving FIFO order of what it does deliver.
//!
//! This ack-free design is what gives uBFT its tail latency: the paper
//! measures ≈300 ns lost per scheduled acknowledgement and instead
//! piggybacks acks in SMR-level messages (§6.2).

pub mod channel;
pub mod inproc;
pub mod net;

pub use channel::{ChannelReceiver, ChannelSender, ChannelSpec, PollOutcome, SendOutcome};
pub use inproc::{inproc_mesh, InMsg, InProcEndpoint, InProcRouter};
pub use net::{Inbound, LaneId};
