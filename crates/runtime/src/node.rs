//! Per-replica protocol state: one [`ReplicaNode`] bundles everything a
//! single uBFT replica owns — previously inlined as parallel `Vec`s in the
//! `Cluster` monolith.

use ubft_core::app::App;
use ubft_core::engine::Engine;
use ubft_core::lru::LruMap;
use ubft_core::msg::Reply;
use ubft_crypto::Digest;
use ubft_ctb::ctbcast::Ctb;
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_dmem::register::RegisterWriter;
use ubft_types::{ClientId, Slot, Time};

/// How many recent checkpoint snapshots a replica retains for serving
/// state transfers to replacement nodes. The joiner always asks for a
/// *recent* stable checkpoint (its `f + 1` join acks name one), so a short
/// history suffices; anything older is covered by a newer checkpoint.
pub(crate) const SNAPSHOT_RETAIN: usize = 4;

/// One retained checkpoint snapshot: everything a certified state transfer
/// hands a lagging replica — the serialized application plus the
/// request-dedup table, each verified by the receiver against the
/// checkpoint certificate's digests.
pub(crate) struct Snapshot {
    /// First slot *not* covered.
    pub base: Slot,
    /// Digest the restored application must reproduce.
    pub app_digest: Digest,
    /// Serialized application state.
    pub app_bytes: Vec<u8>,
    /// The dedup table at `base` (certified via
    /// [`CheckpointData::exec_digest`](ubft_core::msg::CheckpointData)).
    pub exec_table: Vec<(ClientId, u64)>,
}

/// One replica's complete protocol stack.
///
/// A replica owns its consensus engine, its replicated application
/// instance, one CTBcast instance per stream (its own stream as
/// broadcaster, every peer's as receiver), the TBcast endpoints those
/// streams and the consensus lane ride on, the SWMR register writers for
/// its own slots of every stream's bank, and its virtual-time cost cursors
/// (main event-loop core; ordered crypto and crypto jobs on the background
/// crypto pool, §5.4).
pub(crate) struct ReplicaNode {
    /// The consensus state machine (Algorithms 2–5).
    pub engine: Engine,
    /// The replicated application.
    pub app: Box<dyn App>,
    /// CTBcast instances, one per stream: `ctbs[s]` handles stream `s`.
    pub ctbs: Vec<Ctb>,
    /// TBcast broadcasters for this replica's side of each CTBcast stream.
    pub ctb_tx: Vec<TailBroadcaster>,
    /// TBcast receivers: `ctb_rx[stream][sender]`.
    pub ctb_rx: Vec<Vec<TailReceiver>>,
    /// Broadcaster for the consensus-level TBcast lane.
    pub cons_tx: TailBroadcaster,
    /// Consensus-lane receivers, one per sender.
    pub cons_rx: Vec<TailReceiver>,
    /// SWMR register writers this replica owns: `reg_writers[stream]` is
    /// the writer for this replica's slots in `stream`'s bank.
    pub reg_writers: Vec<RegisterWriter>,
    /// Main-core busy-until cursor (event-loop dispatch serializes here).
    pub busy: Time,
    /// Crypto-worker busy-until cursor: the engine's *ordered* signatures
    /// and verifications — the ones its effects wait for — serialize here
    /// instead of on the main cursor (the paper's background crypto pool,
    /// §5.4).
    pub crypto_busy: Time,
    /// Busy-until cursor of the engine's crypto *jobs* (summary and
    /// checkpoint certification) on the same pool. A job starts behind
    /// earlier jobs and behind the ordered crypto already queued, but
    /// ordered crypto never waits for a job: certification that is off the
    /// request path must not take the request path's worker either.
    pub job_busy: Time,
    /// Whether a scheduled crash has taken effect.
    pub crashed: bool,
    /// Recent checkpoint snapshots, oldest first, retained to serve
    /// certified state transfers — to replacement nodes and to replicas
    /// that lagged a whole window behind a partition or asynchrony. Empty
    /// (and never populated) unless the deployment's fault plan schedules
    /// faults, so failure-free runs pay nothing.
    pub snapshots: Vec<Snapshot>,
    /// Engine-effect batches deferred behind crypto completion that have
    /// not been applied yet (see `Ev::EngineFx` in the group runtime).
    pub deferred_fx: u32,
    /// Scheduled time of the most recent deferred batch: later batches —
    /// even crypto-free ones — must apply after it to preserve the
    /// engine's emission order.
    pub deferred_until: Time,
    /// Incarnation counter, bumped on replacement: deferred batches carry
    /// the epoch that scheduled them and are dropped on mismatch.
    pub epoch: u32,
    /// Consecutive retransmission ticks during which this node's own
    /// CTBcast summary stayed stalled (a boundary crossed but not
    /// certified); past a threshold the runtime force-converts the
    /// unsummarized tail to the signed slow path so receivers whose
    /// fast-path unanimity a dead peer broke can still deliver.
    pub summary_stall_ticks: u32,
    /// The last reply sent to each client (PBFT's last-reply table): a
    /// retransmitted request that already executed is answered from here —
    /// the engine's dedup cannot re-execute it, and without the cached
    /// reply a client whose response was lost would stall forever.
    /// Bounded alongside the engine's dedup table by
    /// [`SimConfig::client_cache_cap`](crate::calibration::SimConfig):
    /// replica-local, so eviction needs no cross-replica agreement.
    pub reply_cache: LruMap<ClientId, Reply>,
    /// Every non-noop request this replica executed, in execution order.
    /// Pure observation (no event or RNG interaction), recorded so the
    /// backend-equivalence suite can compare decided sequences between the
    /// simulator and the wall-clock threaded runtime request by request.
    pub exec_log: Vec<(ClientId, u64)>,
}

impl ReplicaNode {
    /// Resident bytes of this node's CTBcast bookkeeping and TB
    /// retransmission buffers (the channel buffers are accounted by the
    /// group, which owns the channel map).
    pub fn protocol_resident_bytes(&self) -> usize {
        let mut total = 0usize;
        for (ctb, tx) in self.ctbs.iter().zip(&self.ctb_tx) {
            total += ctb.resident_bytes();
            total += tx.buffered_bytes();
        }
        total += self.cons_tx.buffered_bytes();
        total
    }

    /// Bytes retained in checkpoint snapshots kept for serving state
    /// transfers (zero unless the fault plan schedules faults).
    pub fn snapshot_bytes(&self) -> usize {
        self.snapshots.iter().map(|s| s.app_bytes.len()).sum()
    }
}
