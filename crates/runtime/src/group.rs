//! One consensus group's runtime, and the deployment driver shared by the
//! single-group [`Cluster`](crate::cluster::Cluster) facade and the
//! multi-group [`ShardedCluster`](crate::sharded::ShardedCluster).
//!
//! A [`GroupRuntime`] owns everything one `2f + 1` group needs — its
//! [`ReplicaNode`]s, the channel lanes between them, its partition of the
//! SWMR register banks, and its closed-loop clients — but *not* the fabric
//! or the event queue: those are shared deployment-wide so that many
//! groups can ride one RDMA network and one set of passive memory nodes
//! (the paper's scale-out story). Every event in the shared queue is
//! tagged with the owning group's id; all indices inside a group are
//! group-local and mapped into the global `HostId` space via each group's
//! host-block base.

use ubft_core::app::App;
use ubft_core::client::Client;
use ubft_core::engine::{
    CryptoOps, CryptoResult, CryptoTag, Effect, Engine, EngineConfig, PathMode, TimerKind,
};
use ubft_core::msg::{CtbMsg, DirectMsg, Reply, Request, TbMsg};
use ubft_crypto::{KeyRing, Signature};
use ubft_ctb::ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry, SlowMode, VerifyTag};
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_ctb::wire::{signed_bytes, CtbWire, TbAck, TbFrame, TbWire};
use ubft_dmem::register::{
    ReadOutcome, RegisterBank, RegisterId, RegisterReader, RegisterWriter, WriteOutcome,
};
use ubft_rdma::Fabric;
use ubft_sim::failure::ByzantineMode;
use ubft_sim::net::NetworkModel;
use ubft_sim::stats::LatencyStats;
use ubft_sim::{EventQueue, HostId, SimRng};
use ubft_transport::channel::ChannelSpec;
use ubft_transport::net::{
    LaneId, Transport, LANE_CLIENT_REQ, LANE_CLIENT_RESP, LANE_CONS_TB, LANE_DIRECT,
};
use ubft_transport::sim_link::SimLinkTransport;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, SeqId, Slot, Time, View};

use crate::audit::{AuditMutation, AuditReport, Auditor};
use crate::calibration::SimConfig;
use crate::cluster::{OpCounters, RunReport};
use crate::node::{ReplicaNode, SNAPSHOT_RETAIN};

/// Message lanes between nodes of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Lane {
    /// TBcast traffic of CTBcast stream `stream`.
    CtbTb { stream: usize },
    /// Consensus-level TBcast traffic.
    ConsTb,
    /// Point-to-point protocol messages.
    Direct,
    /// Client requests.
    ClientReq,
    /// Replica replies.
    ClientResp,
}

impl Lane {
    /// The lane's id in the transport's flat [`LaneId`] namespace:
    /// CTBcast stream `s` maps to lane `s`, everything else to the
    /// reserved high ids (stream counts are far below them).
    pub(crate) fn id(self) -> LaneId {
        match self {
            Lane::CtbTb { stream } => stream as LaneId,
            Lane::ConsTb => LANE_CONS_TB,
            Lane::Direct => LANE_DIRECT,
            Lane::ClientReq => LANE_CLIENT_REQ,
            Lane::ClientResp => LANE_CLIENT_RESP,
        }
    }
}

/// Simulation events. All indices are group-local; the queue tags each
/// event with its group id.
pub(crate) enum Ev {
    Poll {
        lane: Lane,
        from: usize,
        to: usize,
    },
    Flush {
        lane: Lane,
        from: usize,
        to: usize,
    },
    Timer {
        r: usize,
        kind: TimerKind,
    },
    CtbSlow {
        r: usize,
        k: SeqId,
    },
    CtbSignDone {
        r: usize,
        k: SeqId,
        sig: Signature,
    },
    CtbVerifyDone {
        r: usize,
        stream: usize,
        tag: VerifyTag,
        ok: bool,
    },
    CtbWritten {
        r: usize,
        stream: usize,
        k: SeqId,
    },
    CtbReadDone {
        r: usize,
        stream: usize,
        k: SeqId,
        entries: Vec<Option<RegEntry>>,
    },
    ClientIssue {
        c: usize,
    },
    /// Client retransmission check: if request `id` is still in flight at
    /// client `c`, re-send it to every replica and re-arm. A request or
    /// reply lost to a partition/crash must not stall the closed loop —
    /// replicas deduplicate, and executed requests are re-answered from
    /// the per-replica last-reply cache.
    ClientRetry {
        c: usize,
        id: ubft_types::RequestId,
    },
    /// Periodic TBcast retransmission tick for replica `r` (§4.2: the
    /// broadcaster retransmits its buffered tail until acknowledged).
    Retransmit {
        r: usize,
    },
    /// Boot the replacement node for crashed replica `r` on `host` (the
    /// fresh host id pre-allocated by the deployment).
    Replace {
        r: usize,
        host: HostId,
    },
    /// Apply an engine-effect batch whose crypto work finishes at this
    /// event's time. Effects stamped in the future must flow through the
    /// queue — applying them early would hand the fabric out-of-order
    /// timestamps, and its per-host-pair FIFO would then pin every later
    /// (normally timed) message behind the future one.
    EngineFx {
        r: usize,
        /// The node incarnation that scheduled the batch; a replacement
        /// bumps it, so a dead incarnation's pending crypto never applies
        /// to its successor.
        epoch: u32,
        fx: Vec<Effect>,
    },
    /// Replica `r`'s crypto pool finished an engine crypto job; the
    /// result re-enters the engine as an input of its own.
    EngineCrypto {
        r: usize,
        /// As for `EngineFx`: a dead incarnation's jobs die with it.
        epoch: u32,
        tag: CryptoTag,
        result: CryptoResult,
    },
}

/// A group-tagged event in the shared deployment queue.
pub(crate) type GroupEv = (u32, Ev);

/// A group workload source: `None` means "no request available for this
/// group right now" (a sharded source whose pending generation all routed
/// elsewhere); the client retries shortly instead of stalling forever.
pub(crate) type GroupWorkload = Box<dyn FnMut(u64) -> Option<Vec<u8>>>;

/// How long an idle client waits before re-asking an empty workload
/// source. Never fires for single-group deployments (their sources are
/// total functions).
fn workload_retry() -> Duration {
    Duration::from_micros(5)
}

/// Client retransmission timeout: far above every healthy completion (fast
/// path ~11 µs, forced slow path hundreds of µs), so failure-free runs
/// never retransmit; short enough that a lost message costs milliseconds,
/// not the run.
fn client_retry_period() -> Duration {
    Duration::from_micros(1_500)
}

/// Deployment-global run control: the closed loop stops on the *total*
/// completed count, and warmup discarding is likewise global, so a
/// single-group run behaves exactly like the pre-sharding `Cluster`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunCtl {
    pub completed: u64,
    pub target: u64,
    pub warmup: u64,
}

/// The deployment-wide mutable context a group borrows while handling one
/// event: the shared fabric, the shared (group-tagged) event queue, the
/// global run control, and (when enabled) the omniscient safety auditor.
pub(crate) struct Shared<'a> {
    pub fabric: &'a mut Fabric,
    pub events: &'a mut EventQueue<GroupEv>,
    pub ctl: &'a mut RunCtl,
    /// `None` when auditing is off — the hooks below are then no-ops, so
    /// unaudited runs stay bit-for-bit identical to historical behaviour.
    pub audit: &'a mut Option<Auditor>,
}

/// One consensus group: `2f + 1` [`ReplicaNode`]s, their lanes, their
/// partition of the register banks, and their closed-loop clients.
pub(crate) struct GroupRuntime {
    gid: u32,
    pub(crate) cfg: SimConfig,
    /// First global host id of this group's `n + n_clients` host block.
    host_base: u32,
    /// Current host of each replica: `host_base + r` until a replacement
    /// moves that replica to a freshly allocated host. Clients never move.
    hosts: Vec<HostId>,
    pub(crate) nodes: Vec<ReplicaNode>,
    /// The group's message plane: simulated circular-buffer links behind
    /// the [`Transport`] trait (the fabric is the call-site context).
    transport: SimLinkTransport,
    /// `reg_banks[stream][owner]`: the SWMR banks themselves, retained so
    /// a replacement node can be re-keyed as a bank's writer.
    reg_banks: Vec<Vec<RegisterBank>>,
    /// `reg_readers[stream][owner]`: shared read endpoints (readers are
    /// host-agnostic; writers live with their owning node).
    reg_readers: Vec<Vec<RegisterReader>>,
    reg_banks_bytes_per_node: usize,
    /// Serialized genesis application state, for resetting a replacement
    /// node's app before its state transfer. Captured only when the fault
    /// plan schedules replacements.
    genesis_snapshot: Vec<u8>,
    /// Whether nodes retain checkpoint snapshots (only when replacements
    /// are planned; failure-free runs pay nothing).
    keep_snapshots: bool,
    /// State transfers that found no live donor snapshot (the pre-PR
    /// fast-forward behaviour applies; surfaced in diagnostics because it
    /// means a replica's application state may have silently diverged).
    transfer_misses: u64,
    clients: Vec<Client>,
    issue_times: Vec<Time>,
    /// Consecutive empty workload pulls per client, driving exponential
    /// retry backoff so starved shards cannot flood the event queue.
    idle_backoff: Vec<u32>,
    workload: GroupWorkload,
    ring: KeyRing,
    /// Not-yet-applied scheduled crash times, one slot per replica
    /// (precomputed from the fault plan so the hot event loop never
    /// rescans it; an entry is cleared once the crash takes effect).
    crash_times: Vec<Option<Time>>,
    /// How many entries of `crash_times` are still pending.
    pending_crashes: usize,
    /// Byzantine detections reported by engines: (detector, culprit, why).
    byz_reports: Vec<(usize, u32, String)>,
    /// Where outgoing messages are encoded before the bytes are copied
    /// into a slot frame or a shared TBcast frame — reused for every send,
    /// so encoding allocates nothing.
    scratch: Vec<u8>,
    /// Where a receiver poll copies the messages it finds, to be decoded in
    /// place — reused for every poll.
    poll_buf: Vec<u8>,
    pub(crate) counters: OpCounters,
    pub(crate) latency: LatencyStats,
    pub(crate) completed: u64,
}

impl GroupRuntime {
    /// Builds one group inside an existing deployment: creates engines,
    /// CTBcast stacks, channels, and register banks on the shared fabric,
    /// and pushes the group's start-up events (engine watchdogs, TBcast
    /// retransmission ticks) onto the shared queue.
    pub(crate) fn new(
        gid: u32,
        cfg: SimConfig,
        host_base: u32,
        mem_hosts: &[HostId],
        apps: Vec<Box<dyn App>>,
        workload: GroupWorkload,
        sh: &mut Shared<'_>,
    ) -> Self {
        let n = cfg.params.n();
        assert_eq!(apps.len(), n, "one app instance per replica");
        let n_clients = cfg.n_clients.max(1);

        let ring = KeyRing::generate(
            cfg.seed ^ 0x5EED,
            (0..n as u32)
                .map(|i| ProcessId::Replica(ReplicaId(i)))
                .chain((0..n_clients as u32).map(|i| ProcessId::Client(ClientId(i)))),
        );

        // Engines.
        let engines: Vec<Engine> = (0..n as u32)
            .map(|i| Engine::new(ReplicaId(i), engine_config(&cfg, i as usize), ring.clone()))
            .collect();

        // CTBcast instances per replica: one per stream.
        let replica_ids: Vec<ReplicaId> = cfg.params.replicas().collect();
        let ctb_cfg_for = |_s: usize| match cfg.path {
            PathMode::FastOnly => {
                CtbConfig { n, tail: cfg.params.tail, fast_enabled: true, slow: SlowMode::Never }
            }
            PathMode::SlowOnly => {
                CtbConfig { n, tail: cfg.params.tail, fast_enabled: false, slow: SlowMode::Always }
            }
            PathMode::FastWithFallback => CtbConfig::deployed(n, cfg.params.tail),
        };
        let mut ctbs: Vec<Vec<Ctb>> = (0..n)
            .map(|r| {
                (0..n)
                    .map(|s| {
                        Ctb::new(
                            ReplicaId(r as u32),
                            ReplicaId(s as u32),
                            replica_ids.clone(),
                            ctb_cfg_for(s),
                        )
                    })
                    .collect()
            })
            .collect();

        // TBcast endpoints. Buffers hold 2t messages (Algorithm 1).
        let cap = 2 * cfg.params.tail;
        let peers_of = |r: usize| -> Vec<ReplicaId> {
            (0..n as u32).map(ReplicaId).filter(|x| x.0 as usize != r).collect()
        };
        let mut ctb_tx: Vec<Vec<TailBroadcaster>> = (0..n)
            .map(|r| (0..n).map(|_s| TailBroadcaster::new(peers_of(r), cap)).collect())
            .collect();
        let mut ctb_rx: Vec<Vec<Vec<TailReceiver>>> = (0..n)
            .map(|_r| {
                (0..n).map(|_s| (0..n).map(|_sender| TailReceiver::new(cap)).collect()).collect()
            })
            .collect();
        let mut cons_tx: Vec<TailBroadcaster> =
            (0..n).map(|r| TailBroadcaster::new(peers_of(r), cap)).collect();
        let mut cons_rx: Vec<Vec<TailReceiver>> =
            (0..n).map(|_r| (0..n).map(|_s| TailReceiver::new(cap)).collect()).collect();

        // Links, in the shared fabric, addressed by global host ids.
        let host = |local: usize| HostId(host_base + local as u32);
        let spec = ChannelSpec { slots: cap, slot_payload: cfg.slot_payload() };
        let wide_spec = ChannelSpec { slots: cap, slot_payload: cfg.wide_slot_payload() };
        let client_spec = ChannelSpec { slots: 64, slot_payload: cfg.slot_payload() };
        let mut transport = SimLinkTransport::new();
        let mut open = |fabric: &mut Fabric, lane: Lane, from: usize, to: usize, spec| {
            transport.open_link(
                fabric,
                lane.id(),
                from as u32,
                to as u32,
                host(from),
                host(to),
                spec,
            );
        };
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                for s in 0..n {
                    open(sh.fabric, Lane::CtbTb { stream: s }, from, to, spec);
                }
                for lane in [Lane::ConsTb, Lane::Direct] {
                    open(sh.fabric, lane, from, to, wide_spec);
                }
            }
        }
        for c in 0..n_clients {
            let c_node = n + c;
            for r in 0..n {
                open(sh.fabric, Lane::ClientReq, c_node, r, client_spec);
                open(sh.fabric, Lane::ClientResp, r, c_node, client_spec);
            }
        }

        // SWMR register banks: banks[stream][owner], replicated on the
        // shared memory nodes; only `owner` holds the writer. Each group
        // creates its own banks, so the memory nodes' space is partitioned
        // per group. The banks themselves are retained (not just their
        // endpoints): a replacement node is re-keyed as its predecessor's
        // banks' writer.
        let mut reg_banks: Vec<Vec<RegisterBank>> = Vec::with_capacity(n);
        let mut reg_readers: Vec<Vec<RegisterReader>> = Vec::with_capacity(n);
        let mut bank_bytes = 0usize;
        for _s in 0..n {
            let mut banks = Vec::with_capacity(n);
            let mut rs = Vec::with_capacity(n);
            for _owner in 0..n {
                let bank = RegisterBank::create(
                    sh.fabric,
                    mem_hosts,
                    cfg.params.tail,
                    RegEntry::encoded_size(),
                    cfg.params.delta,
                );
                bank_bytes += bank.bytes_per_node();
                rs.push(bank.reader());
                banks.push(bank);
            }
            reg_readers.push(rs);
            reg_banks.push(banks);
        }
        let mut reg_writers: Vec<Vec<RegisterWriter>> =
            (0..n).map(|owner| (0..n).map(|s| reg_banks[s][owner].writer()).collect()).collect();

        let clients: Vec<Client> = (0..n_clients as u32)
            .map(|i| Client::new(ClientId(i), replica_ids.clone(), cfg.params.quorum()))
            .collect();

        // Checkpoint snapshots are retained whenever the plan schedules
        // *any* fault or an asynchronous prefix — not just replacements: a
        // replica that misses a whole window behind a partition or pre-GST
        // delays heals through the same certified state transfer, and
        // without a retained donor snapshot it would silently fast-forward
        // with diverged state (the chaos auditor caught exactly that).
        // Failure-free runs still pay nothing.
        let keep_snapshots = !cfg.failures.faults().is_empty() || cfg.failures.gst > Time::ZERO;
        let genesis_snapshot = if keep_snapshots { apps[0].snapshot_bytes() } else { Vec::new() };

        let nodes: Vec<ReplicaNode> = engines
            .into_iter()
            .zip(apps)
            .map(|(engine, app)| ReplicaNode {
                engine,
                app,
                ctbs: ctbs.remove(0),
                ctb_tx: ctb_tx.remove(0),
                ctb_rx: ctb_rx.remove(0),
                cons_tx: cons_tx.remove(0),
                cons_rx: cons_rx.remove(0),
                reg_writers: reg_writers.remove(0),
                busy: Time::ZERO,
                crypto_busy: Time::ZERO,
                job_busy: Time::ZERO,
                crashed: false,
                snapshots: Vec::new(),
                deferred_fx: 0,
                deferred_until: Time::ZERO,
                epoch: 0,
                summary_stall_ticks: 0,
                // Mirrors the engine's in-flight floor: an entry evicted
                // before its client could possibly need a re-reply would
                // stall that client forever.
                reply_cache: ubft_core::lru::LruMap::new(
                    cfg.client_cache_cap
                        .map(|c| c.max(2 * cfg.params.window * cfg.max_batch.max(1))),
                ),
                exec_log: Vec::new(),
            })
            .collect();

        let crash_times: Vec<Option<Time>> =
            (0..n).map(|r| cfg.failures.replica_crash_time(r)).collect();
        let pending_crashes = crash_times.iter().filter(|t| t.is_some()).count();
        let mut group = GroupRuntime {
            gid,
            host_base,
            hosts: (0..n as u32).map(|r| HostId(host_base + r)).collect(),
            nodes,
            transport,
            reg_banks,
            reg_readers,
            reg_banks_bytes_per_node: bank_bytes,
            genesis_snapshot,
            keep_snapshots,
            transfer_misses: 0,
            clients,
            issue_times: vec![Time::ZERO; n_clients],
            idle_backoff: vec![0; n_clients],
            workload,
            ring,
            crash_times,
            pending_crashes,
            byz_reports: Vec::new(),
            scratch: Vec::new(),
            poll_buf: Vec::new(),
            counters: OpCounters::default(),
            latency: LatencyStats::new(),
            completed: 0,
            cfg,
        };
        // Engine start-up (progress watchdogs).
        for r in 0..n {
            let fx = group.nodes[r].engine.start();
            group.apply_engine_effects(sh, r, Time::ZERO, fx);
        }
        // TBcast retransmission ticks, staggered so replicas do not burst
        // in lockstep.
        for r in 0..n {
            let offset = Duration::from_nanos(1_000 * (r as u64 + 1));
            sh.events.push(
                Time::ZERO + group.cfg.retransmit_period + offset,
                (gid, Ev::Retransmit { r }),
            );
        }
        group
    }

    fn n(&self) -> usize {
        self.cfg.params.n()
    }

    pub(crate) fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn client_node(&self, c: usize) -> usize {
        self.n() + c
    }

    /// Current host of group-local index `idx` (replica or client).
    /// Replicas may have moved to a replacement host; clients never move.
    fn host_of(&self, idx: usize) -> HostId {
        if idx < self.nodes.len() {
            self.hosts[idx]
        } else {
            HostId(self.host_base + idx as u32)
        }
    }

    fn push(&self, sh: &mut Shared<'_>, at: Time, ev: Ev) {
        sh.events.push(at, (self.gid, ev));
    }

    /// The Byzantine behaviour of host `r` active at `at`, if `r` is a
    /// replica with a scheduled fault.
    fn byz_mode(&self, r: usize, at: Time) -> Option<ByzantineMode> {
        if r < self.n() {
            self.cfg.failures.byzantine_mode(r, at)
        } else {
            None
        }
    }

    /// Applies scheduled replica crashes up to virtual time `t`. O(1) when
    /// nothing is pending, which is every event of a failure-free run.
    pub(crate) fn apply_scheduled_crashes(&mut self, t: Time) {
        if self.pending_crashes == 0 {
            return;
        }
        for r in 0..self.nodes.len() {
            if let Some(ct) = self.crash_times[r] {
                if t >= ct {
                    self.nodes[r].crashed = true;
                    self.crash_times[r] = None;
                    self.pending_crashes -= 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Replacement & state transfer (uBFT extended version, §replacement)
    // ------------------------------------------------------------------

    /// Restores replica `r`'s application to the certified state at
    /// `base`, served from any live peer's retained checkpoint snapshot
    /// and verified against the certified `app_digest` — the donor is not
    /// trusted. Models the transfer as a bulk fabric fetch: the receiving
    /// core is busy for the bytes' worst-case wire time.
    fn state_transfer(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        base: Slot,
        app_digest: ubft_crypto::Digest,
        exec_digest: ubft_crypto::Digest,
        at: Time,
    ) {
        if base == Slot(0) {
            return; // genesis: the replacement already boots with it
        }
        let matches = |s: &crate::node::Snapshot| {
            s.base == base
                && s.app_digest == app_digest
                && ubft_core::msg::exec_table_digest(&s.exec_table) == exec_digest
        };
        let donor = (0..self.nodes.len()).find(|q| {
            *q != r && !self.nodes[*q].crashed && self.nodes[*q].snapshots.iter().any(matches)
        });
        let Some(q) = donor else {
            // No donor (possible only when snapshots are not retained, or
            // after extreme lag): fall back to the historical fast-forward
            // and surface the divergence risk in diagnostics.
            self.note_transfer_miss(sh, r);
            return;
        };
        let (bytes, table) = self.nodes[q]
            .snapshots
            .iter()
            .find(|s| matches(s))
            .map(|s| (s.app_bytes.clone(), s.exec_table.clone()))
            .expect("donor just matched");
        let cost = self.cfg.latency.worst_case(bytes.len());
        self.nodes[r].app.restore_bytes(&bytes);
        // The donor is untrusted: the restored state must hash to the
        // *certified* digest, or the transfer is treated as missed (the
        // next checkpoint retries from another donor).
        if self.nodes[r].app.snapshot_digest() != app_digest {
            self.note_transfer_miss(sh, r);
            return;
        }
        // A successful transfer puts the replica back on certified state:
        // the auditor can vouch for it again even if an earlier transfer
        // missed.
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_transfer_restored(self.gid as usize, r);
        }
        let _ = self.charge(r, at, cost);
        // Hand the certified dedup table to the engine (it re-verifies
        // against the checkpoint's exec_digest and prunes bookkeeping the
        // table proves executed).
        self.engine_call(sh, r, at, |e| e.on_exec_table(base, table));
    }

    /// Records a state transfer that found no (verifiable) donor snapshot:
    /// diagnostics surface the divergence risk, and the auditor stops
    /// vouching for that replica's application state.
    fn note_transfer_miss(&mut self, sh: &mut Shared<'_>, r: usize) {
        self.transfer_misses += 1;
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_transfer_miss(self.gid as usize, r);
        }
    }

    /// Boots the replacement node for crashed replica `r` on the freshly
    /// allocated `new_host`: rebuilds every transport endpoint touching
    /// `r`, re-keys `r`'s SWMR bank writers, scans its own stream's bank
    /// tails on the memory nodes for the slow-path high-water mark, and
    /// starts a fresh engine in the join state. Peers' endpoints toward
    /// `r` are re-created here too — in a real deployment that retargeting
    /// is what their `Join` receipt triggers; the simulator, owning both
    /// ends, performs it at boot so the handshake finds working lanes.
    pub(crate) fn replace_replica(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        new_host: HostId,
        at: Time,
    ) {
        assert!(self.nodes[r].crashed, "replacement of a live replica {r}");
        let n = self.n();
        let n_clients = self.n_clients();
        self.hosts[r] = new_host;
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_replace(self.gid as usize, r);
        }

        // Fresh links for every lane touching r, in both directions (the
        // old node's sender cursors and in-flight slots died with it).
        // Re-opening a link drops the old endpoints.
        let cap = 2 * self.cfg.params.tail;
        let spec = ChannelSpec { slots: cap, slot_payload: self.cfg.slot_payload() };
        let wide_spec = ChannelSpec { slots: cap, slot_payload: self.cfg.wide_slot_payload() };
        let client_spec = ChannelSpec { slots: 64, slot_payload: self.cfg.slot_payload() };
        for peer in 0..n {
            if peer == r {
                continue;
            }
            for (from, to) in [(r, peer), (peer, r)] {
                for s in 0..n {
                    self.transport.open_link(
                        sh.fabric,
                        Lane::CtbTb { stream: s }.id(),
                        from as u32,
                        to as u32,
                        self.host_of(from),
                        self.host_of(to),
                        spec,
                    );
                }
                for lane in [Lane::ConsTb, Lane::Direct] {
                    self.transport.open_link(
                        sh.fabric,
                        lane.id(),
                        from as u32,
                        to as u32,
                        self.host_of(from),
                        self.host_of(to),
                        wide_spec,
                    );
                }
            }
        }
        for c in 0..n_clients {
            let c_node = self.client_node(c);
            self.transport.open_link(
                sh.fabric,
                Lane::ClientReq.id(),
                c_node as u32,
                r as u32,
                self.host_of(c_node),
                new_host,
                client_spec,
            );
            self.transport.open_link(
                sh.fabric,
                Lane::ClientResp.id(),
                r as u32,
                c_node as u32,
                new_host,
                self.host_of(c_node),
                client_spec,
            );
        }

        // Peers' TB receivers for r's lanes start over: the replacement's
        // broadcasters number their frames from 1 again (transport seq
        // and CTBcast ids are independent; the CTBcast ids are adopted).
        for peer in 0..n {
            if peer == r {
                continue;
            }
            for s in 0..n {
                self.nodes[peer].ctb_rx[s][r] = TailReceiver::new(cap);
            }
            self.nodes[peer].cons_rx[r] = TailReceiver::new(cap);
        }

        // The fresh node itself: new engine, new CTBcast stack, new TB
        // endpoints, re-keyed bank writers, genesis application state.
        let replica_ids: Vec<ReplicaId> = self.cfg.params.replicas().collect();
        let peers_of = |r: usize| -> Vec<ReplicaId> {
            (0..n as u32).map(ReplicaId).filter(|x| x.0 as usize != r).collect()
        };
        let ctb_cfg_for = |_s: usize| match self.cfg.path {
            PathMode::FastOnly => CtbConfig {
                n,
                tail: self.cfg.params.tail,
                fast_enabled: true,
                slow: SlowMode::Never,
            },
            PathMode::SlowOnly => CtbConfig {
                n,
                tail: self.cfg.params.tail,
                fast_enabled: false,
                slow: SlowMode::Always,
            },
            PathMode::FastWithFallback => CtbConfig::deployed(n, self.cfg.params.tail),
        };
        let node = &mut self.nodes[r];
        node.engine =
            Engine::new(ReplicaId(r as u32), engine_config(&self.cfg, r), self.ring.clone());
        node.ctbs = (0..n)
            .map(|s| {
                Ctb::new(
                    ReplicaId(r as u32),
                    ReplicaId(s as u32),
                    replica_ids.clone(),
                    ctb_cfg_for(s),
                )
            })
            .collect();
        node.ctb_tx = (0..n).map(|_s| TailBroadcaster::new(peers_of(r), cap)).collect();
        node.ctb_rx =
            (0..n).map(|_s| (0..n).map(|_sender| TailReceiver::new(cap)).collect()).collect();
        node.cons_tx = TailBroadcaster::new(peers_of(r), cap);
        node.cons_rx = (0..n).map(|_s| TailReceiver::new(cap)).collect();
        node.reg_writers = (0..n).map(|s| self.reg_banks[s][r].rekey_writer()).collect();
        node.app.restore_bytes(&self.genesis_snapshot);
        node.snapshots.clear();
        node.busy = at;
        node.crypto_busy = at;
        node.job_busy = at;
        node.crashed = false;
        node.epoch += 1;
        node.deferred_fx = 0;
        node.deferred_until = Time::ZERO;
        node.summary_stall_ticks = 0;
        node.reply_cache.clear();

        // Step 1 of the join: recover the own-stream tail high-water mark
        // directly from the memory nodes (no replica trusted) — every
        // owner's bank of stream r can witness ids the crashed node
        // slow-pathed.
        let mut reg_floor = SeqId(0);
        let mut done = at;
        for owner in 0..n {
            let reader = &self.reg_readers[r][owner];
            self.counters.reg_reads += reader.len() as u64;
            let scan = reader.scan_tail(sh.fabric, new_host, at);
            if let Some(ts) = scan.max_ts {
                reg_floor = reg_floor.max(SeqId(ts));
            }
            done = done.max(scan.completion);
        }
        self.nodes[r].busy = done;

        // Step 2: the Join/JoinAck handshake (engine-driven from here).
        let fx = self.nodes[r].engine.begin_join(reg_floor);
        self.apply_engine_effects(sh, r, done, fx);
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// The application state digest of replica `r`.
    pub(crate) fn app_digest(&self, r: usize) -> ubft_crypto::Digest {
        self.nodes[r].app.snapshot_digest()
    }

    /// First slot replica `r` has not executed.
    pub(crate) fn exec_next(&self, r: usize) -> ubft_types::Slot {
        self.nodes[r].engine.exec_next()
    }

    /// The view replica `r` is in.
    pub(crate) fn view_of(&self, r: usize) -> View {
        self.nodes[r].engine.view()
    }

    /// Individual requests replica `r` has decided.
    pub(crate) fn decided_of(&self, r: usize) -> u64 {
        self.nodes[r].engine.decided_count()
    }

    /// Resident entries in replica `r`'s request-dedup table (bounded by
    /// [`SimConfig::client_cache_cap`]; tests assert eviction kicked in).
    pub(crate) fn dedup_entries(&self, r: usize) -> usize {
        self.nodes[r].engine.exec_table().len()
    }

    /// Every non-noop request replica `r` executed, in execution order
    /// (the backend-equivalence suite compares this against the threaded
    /// runtime's per-replica log).
    pub(crate) fn exec_log(&self, r: usize) -> &[(ClientId, u64)] {
        &self.nodes[r].exec_log
    }

    /// Final views of every replica, in replica order.
    pub(crate) fn views(&self) -> Vec<View> {
        self.nodes.iter().map(|nd| nd.engine.view()).collect()
    }

    /// Disaggregated bytes this group's register banks occupy on one
    /// memory node.
    pub(crate) fn disagg_bytes_per_node(&self) -> usize {
        self.reg_banks_bytes_per_node
    }

    /// Bytes replica `r` retains in checkpoint snapshots for serving
    /// replacement-node state transfers (zero unless replacements are
    /// planned).
    pub(crate) fn replica_snapshot_bytes(&self, r: usize) -> usize {
        self.nodes[r].snapshot_bytes()
    }

    /// Checkpoint snapshots replica `r` currently retains (the auditor
    /// checks the count against its cap).
    pub(crate) fn snapshot_count(&self, r: usize) -> usize {
        self.nodes[r].snapshots.len()
    }

    /// Approximate replica-local resident bytes of replica `r`: channel
    /// buffers it hosts, sender mirrors/staging, TB retransmission
    /// buffers, and CTBcast bookkeeping (Table 2).
    pub(crate) fn replica_local_bytes(&self, r: usize) -> usize {
        self.transport.resident_bytes_touching(r as u32) + self.nodes[r].protocol_resident_bytes()
    }

    /// Per-replica protocol diagnostics, one line each.
    pub(crate) fn diag_lines(&self) -> String {
        let mut s: String = self
            .nodes
            .iter()
            .map(|nd| {
                let ctb: Vec<String> = (0..self.n())
                    .map(|st| {
                        format!(
                            "s{}:dlv{}/fifo{}",
                            st,
                            nd.ctbs[st].max_delivered().0,
                            nd.engine.fifo_position(ReplicaId(st as u32)).0,
                        )
                    })
                    .collect();
                format!("  {} crashed={} [{}]\n", nd.engine.diag(), nd.crashed, ctb.join(" "))
            })
            .collect();
        for (detector, culprit, why) in &self.byz_reports {
            s.push_str(&format!("  r{detector} branded r{culprit} byzantine: {why}\n"));
        }
        if self.transfer_misses > 0 {
            s.push_str(&format!(
                "  {} state transfer(s) found no donor snapshot (state may have diverged)\n",
                self.transfer_misses
            ));
        }
        s
    }

    // ------------------------------------------------------------------
    // Cost charging
    // ------------------------------------------------------------------

    fn charge(&mut self, r: usize, at: Time, extra: Duration) -> Time {
        let dispatch = self.cfg.cost.dispatch;
        let node = &mut self.nodes[r];
        let start = if at > node.busy { at } else { node.busy };
        let done = start + dispatch + extra;
        node.busy = done;
        done
    }

    fn crypto_cost(&self, ops: CryptoOps) -> Duration {
        Duration::from_nanos(
            self.cfg.cost.sign_total().as_nanos() * ops.signs as u64
                + self.cfg.cost.verify_total().as_nanos() * ops.verifies as u64,
        )
    }

    // ------------------------------------------------------------------
    // Engine plumbing
    // ------------------------------------------------------------------

    fn engine_call(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        at: Time,
        f: impl FnOnce(&mut Engine) -> Vec<Effect>,
    ) {
        if self.nodes[r].crashed {
            return;
        }
        let fx = f(&mut self.nodes[r].engine);
        self.apply_engine_effects(sh, r, at, fx);
    }

    fn count_engine_crypto(&mut self, ops: CryptoOps) {
        self.counters.engine_signs += ops.signs as u64;
        self.counters.engine_verifies += ops.verifies as u64;
    }

    /// Occupies a crypto worker's busy-until `cursor` for `cost`, starting
    /// no earlier than `from`; returns when the work finishes.
    fn worker_run(cursor: &mut Time, from: Time, cost: Duration) -> Time {
        *cursor = from.max(*cursor) + cost;
        *cursor
    }

    /// Interprets what one engine call produced: its effects, the ordered
    /// crypto it metered, and the crypto jobs it queued.
    fn apply_engine_effects(&mut self, sh: &mut Shared<'_>, r: usize, at: Time, fx: Vec<Effect>) {
        // Hand freshly recorded decisions to the auditor *before* their
        // Execute effects run, so coverage lookups find the evidence. The
        // engine records nothing unless auditing is on.
        if let Some(aud) = sh.audit.as_mut() {
            for rec in self.nodes[r].engine.take_decisions() {
                aud.on_decision(self.gid as usize, r, rec);
            }
        }
        let ops = self.nodes[r].engine.take_crypto_ops();
        let jobs = self.nodes[r].engine.take_crypto_jobs();
        // The event-loop dispatch runs on the replica's main core; crypto
        // runs on the replica's crypto pool (§5.4): ordered crypto on one
        // worker, jobs on another.
        let done = self.charge(r, at, Duration::ZERO);
        self.count_engine_crypto(ops);
        let effect_at = if ops.is_zero() {
            done
        } else {
            let cost = self.crypto_cost(ops);
            Self::worker_run(&mut self.nodes[r].crypto_busy, done, cost)
        };
        // Crypto jobs are work nothing in this call's effects depends on
        // (summary and checkpoint certification, §5.2 fn. 3): each comes
        // back as an input of its own, delaying neither these effects nor
        // any later batch. The pool serves the request path first: a job
        // starts once the ordered crypto queued so far has been served (so
        // its result still follows this call's effects) and behind earlier
        // jobs, but ordered crypto never waits for a job. When both shared
        // one cursor, the share signed at a summary boundary sat between a
        // slow-path slot's CERTIFY signature and the verification of the
        // peer's, 17 µs on that request — on whichever boundaries a PREPARE
        // happened to cross, which differs from seed to seed.
        if !jobs.is_empty() {
            let me = ProcessId::Replica(ReplicaId(r as u32));
            let signer = self.ring.signer(me).expect("replica key");
            let epoch = self.nodes[r].epoch;
            for job in jobs {
                self.count_engine_crypto(job.ops());
                let cost = self.crypto_cost(job.ops());
                let from = done.max(self.nodes[r].crypto_busy);
                let fin = Self::worker_run(&mut self.nodes[r].job_busy, from, cost);
                let result = job.run(&signer, &self.ring);
                self.push(sh, fin, Ev::EngineCrypto { r, epoch, tag: job.tag, result });
            }
        }
        if ops.is_zero() && self.nodes[r].deferred_fx == 0 {
            // The common (crypto-free) path applies effects inline — the
            // historical behaviour, bit-for-bit.
            for e in fx {
                self.engine_effect(sh, r, done, e);
            }
            return;
        }
        // Ordered crypto (slow-path CERTIFY shares, commit-certificate and
        // view-change signatures) is crypto this call's effects *do* depend
        // on: they act only once it has finished. Route them through the
        // event queue so the fabric only ever sees monotone timestamps per
        // host pair (applying early would stall every later message behind
        // the future arrival in the FIFO network). While any batch is
        // pending, later batches — crypto-free or not — queue strictly
        // behind it: the engine's emission order is a protocol invariant
        // (e.g. a NEW_VIEW must precede proposals into its view).
        let node = &mut self.nodes[r];
        let at_eff = if effect_at > node.deferred_until {
            effect_at
        } else {
            node.deferred_until + Duration::from_nanos(1)
        };
        node.deferred_until = at_eff;
        node.deferred_fx += 1;
        let epoch = node.epoch;
        sh.events.push(at_eff, (self.gid, Ev::EngineFx { r, epoch, fx }));
    }

    /// A deferred engine-effect batch's crypto completed: apply it now.
    fn on_engine_fx(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        epoch: u32,
        fx: Vec<Effect>,
        at: Time,
    ) {
        let node = &mut self.nodes[r];
        if epoch != node.epoch {
            return; // scheduled by a dead incarnation
        }
        node.deferred_fx = node.deferred_fx.saturating_sub(1);
        if node.crashed {
            return; // the node died with its crypto queue
        }
        for e in fx {
            self.engine_effect(sh, r, at, e);
        }
    }

    fn engine_effect(&mut self, sh: &mut Shared<'_>, r: usize, at: Time, e: Effect) {
        match e {
            Effect::CtbBroadcast(msg) => {
                let bytes = msg.to_bytes();
                let (_k, cfx) = self.nodes[r].ctbs[r].broadcast(bytes);
                for ce in cfx {
                    self.ctb_effect(sh, r, r, at, ce);
                }
            }
            Effect::TbBroadcast(msg) => self.tb_broadcast(sh, r, Lane::ConsTb, &msg, at),
            Effect::SendReplica { to, msg } => {
                self.counters.direct_msgs += 1;
                self.send_msg(sh, Lane::Direct, r, to.0 as usize, &msg, at);
            }
            Effect::Execute { slot, req } => {
                // Auditor self-test mutations: deliberately corrupt this
                // replica's execution so the auditor can be shown to catch
                // it. Never active outside mutation tests.
                let corrupted = match self.cfg.audit_mutation {
                    Some(AuditMutation::CorruptExecution { replica })
                        if replica == r && !req.payload.is_empty() =>
                    {
                        let mut p = req.payload.clone();
                        p[0] ^= 0xFF;
                        Some(p)
                    }
                    _ => None,
                };
                let applied: &[u8] = corrupted.as_deref().unwrap_or(&req.payload);
                let cost = self.nodes[r].app.execute_cost(applied);
                let payload = self.nodes[r].app.execute(applied);
                if let Some(AuditMutation::DoubleExecute { replica }) = self.cfg.audit_mutation {
                    if replica == r {
                        let _ = self.nodes[r].app.execute(applied);
                    }
                }
                if let Some(aud) = sh.audit.as_mut() {
                    aud.on_execute(self.gid as usize, r, slot, req.id, applied, &payload);
                }
                let done = self.charge(r, at, cost);
                if !req.is_noop() {
                    self.nodes[r].exec_log.push((req.id.client, req.id.seq));
                }
                if !req.is_noop() && (req.id.client.0 as usize) < self.clients.len() {
                    let reply = Reply { id: req.id, replica: ReplicaId(r as u32), payload };
                    let c_node = self.client_node(req.id.client.0 as usize);
                    self.counters.rpc_msgs += 1;
                    self.send_msg(sh, Lane::ClientResp, r, c_node, &reply, done);
                    // Last-reply table (one entry per client, LRU-bounded
                    // when capped), so a retransmitted already-executed
                    // request can be re-answered.
                    let _ = self.nodes[r].reply_cache.insert(req.id.client, reply, |_| false);
                }
            }
            Effect::RequestSnapshot { base } => {
                let digest = self.nodes[r].app.snapshot_digest();
                if let Some(aud) = sh.audit.as_mut() {
                    aud.on_checkpoint_digest(self.gid as usize, r, base, digest);
                }
                // The dedup table is captured at the same instant as the
                // application digest, so the certified checkpoint covers
                // the *whole* decision-relevant state. The engine paused
                // execution at `base` for this and resumes inside the
                // `on_snapshot` call below: both are the state after slot
                // `base - 1` exactly, and the pause costs no virtual time.
                let table = self.nodes[r].engine.exec_table();
                let exec_digest = ubft_core::msg::exec_table_digest(&table);
                if self.keep_snapshots {
                    // Retain the serialized state for serving lagging
                    // replicas' transfers (bounded history).
                    let app_bytes = self.nodes[r].app.snapshot_bytes();
                    let node = &mut self.nodes[r];
                    node.snapshots.push(crate::node::Snapshot {
                        base,
                        app_digest: digest,
                        app_bytes,
                        exec_table: table,
                    });
                    if node.snapshots.len() > SNAPSHOT_RETAIN {
                        node.snapshots.remove(0);
                    }
                }
                self.engine_call(sh, r, at, |e| e.on_snapshot(base, digest, exec_digest));
            }
            Effect::StateTransfer { base, app_digest, exec_digest } => {
                self.state_transfer(sh, r, base, app_digest, exec_digest, at);
            }
            Effect::AdoptStreams { tails } => {
                for (stream, next) in tails {
                    self.nodes[r].ctbs[stream.0 as usize].adopt_tail(next);
                }
            }
            Effect::ArmTimer { kind } => {
                let after = match kind {
                    TimerKind::Progress => {
                        // PBFT-style backoff: fruitless view changes double
                        // the watchdog period so slow view changes complete.
                        self.cfg.progress_timeout
                            * u64::from(self.nodes[r].engine.progress_backoff())
                    }
                    TimerKind::SlotSlowTrigger(_) => self.cfg.slow_trigger,
                    TimerKind::EchoFallback(_) => self.cfg.echo_fallback,
                };
                self.push(sh, at + after, Ev::Timer { r, kind });
            }
            Effect::ByzantineDetected { replica, reason } => {
                self.byz_reports.push((r, replica.0, reason));
            }
            Effect::CheckpointAdopted { base } => {
                if let Some(aud) = sh.audit.as_mut() {
                    aud.on_checkpoint_adopted(self.gid as usize, r, base);
                }
            }
            Effect::ViewChanged { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // CTBcast plumbing
    // ------------------------------------------------------------------

    fn ctb_call(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        stream: usize,
        at: Time,
        f: impl FnOnce(&mut Ctb) -> Vec<CtbEffect>,
    ) {
        if self.nodes[r].crashed {
            return;
        }
        let fx = f(&mut self.nodes[r].ctbs[stream]);
        let done = self.charge(r, at, Duration::ZERO);
        for e in fx {
            self.ctb_effect(sh, r, stream, done, e);
        }
    }

    fn ctb_effect(&mut self, sh: &mut Shared<'_>, r: usize, stream: usize, at: Time, e: CtbEffect) {
        match e {
            CtbEffect::Broadcast(wire) => {
                if stream == r
                    && self.byz_mode(r, at) == Some(ByzantineMode::EquivocateProposals)
                    && self.equivocate_broadcast(sh, r, at, &wire)
                {
                    return;
                }
                self.tb_broadcast(sh, r, Lane::CtbTb { stream }, &wire, at);
            }
            CtbEffect::Sign { k, fp } => {
                self.counters.ctb_signs += 1;
                let signer = self
                    .ring
                    .signer(ProcessId::Replica(ReplicaId(stream as u32)))
                    .expect("replica key");
                let sig = signer.sign(&signed_bytes(ReplicaId(stream as u32), k, &fp));
                self.push(sh, at + self.cfg.cost.sign_total(), Ev::CtbSignDone { r, k, sig });
            }
            CtbEffect::Verify { tag, k, fp, sig } => {
                self.counters.ctb_verifies += 1;
                let ok = self.ring.verify(
                    ProcessId::Replica(ReplicaId(stream as u32)),
                    &signed_bytes(ReplicaId(stream as u32), k, &fp),
                    &sig,
                );
                self.push(
                    sh,
                    at + self.cfg.cost.verify_total(),
                    Ev::CtbVerifyDone { r, stream, tag, ok },
                );
            }
            CtbEffect::WriteRegister { slot, k, entry } => {
                self.counters.reg_writes += 1;
                let host = self.host_of(r);
                let mut entry = entry;
                // A register-corrupting replica stores a garbled fingerprint
                // in its own SWMR slot. Readers must treat the entry as a
                // suspect, fail its signature check, and deliver anyway
                // (§6.1: forged entries cannot block delivery).
                if self.byz_mode(r, at) == Some(ByzantineMode::CorruptRegisters) {
                    let mut fp = *entry.fp.as_bytes();
                    fp[0] ^= 0xFF;
                    fp[31] ^= 0xFF;
                    entry.fp = ubft_crypto::Digest::from_bytes(fp);
                }
                let bytes = entry.to_bytes();
                let outcome = self.nodes[r].reg_writers[stream].write(
                    sh.fabric,
                    host,
                    RegisterId(slot),
                    k.0,
                    &bytes,
                    at,
                );
                match outcome {
                    WriteOutcome::Done(done) => {
                        self.push(sh, done, Ev::CtbWritten { r, stream, k });
                    }
                    // The writer died at a crash boundary (possibly via the
                    // δ-cooldown deferring the start past its own crash):
                    // its continuation events are dropped by the crash
                    // checks, so there is nothing to schedule.
                    WriteOutcome::IssuerCrashed => {}
                    // Outside the fault model (> f_m memory nodes down);
                    // the slow path simply cannot complete.
                    WriteOutcome::NoQuorum => {}
                }
            }
            CtbEffect::ReadSlot { slot, k } => {
                self.counters.reg_reads += 1;
                let (entries, completion) = self.read_register_slot(sh, r, stream, slot, at);
                self.push(sh, completion, Ev::CtbReadDone { r, stream, k, entries });
            }
            CtbEffect::Deliver { k, payload } => match CtbMsg::from_bytes(&payload) {
                Ok(msg) => {
                    let s = ReplicaId(stream as u32);
                    self.engine_call(sh, r, at, |e| e.on_ctb_deliver(s, k, msg));
                }
                Err(_) => {
                    let s = ReplicaId(stream as u32);
                    self.engine_call(sh, r, at, |e| e.on_ctb_equivocation(s, k));
                }
            },
            CtbEffect::Equivocation { k } => {
                let s = ReplicaId(stream as u32);
                self.engine_call(sh, r, at, |e| e.on_ctb_equivocation(s, k));
            }
            CtbEffect::ArmSlowTimer { k } => {
                self.push(sh, at + self.cfg.slow_trigger, Ev::CtbSlow { r, k });
            }
        }
    }

    /// Byzantine equivocation: the broadcaster of stream `r` sends
    /// *different* proposals to different receivers under the same CTBcast
    /// id — the exact attack CTBcast exists to stop. Returns `true` when the
    /// frame was handled (it carried a fast-path `LOCK` of a `PREPARE`);
    /// other frames fall through to the honest path so the Byzantine replica
    /// still participates in the rest of the protocol.
    fn equivocate_broadcast(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        at: Time,
        wire: &CtbWire,
    ) -> bool {
        let CtbWire::Lock { m, .. } = wire else {
            return false;
        };
        let Ok(CtbMsg::Prepare(prep)) = CtbMsg::from_bytes(m) else {
            return false;
        };
        // Register the broadcast with the honest TailBroadcaster (sequence
        // numbers, retransmission buffer, self-delivery) but send odd
        // receivers a hand-crafted poisoned variant under the same id.
        let lane = Lane::CtbTb { stream: r };
        let honest = self.nodes[r].ctb_tx[r].broadcast(wire, &mut self.scratch);
        let mut alt = prep.clone();
        let mut reqs = alt.batch.requests().to_vec();
        if reqs[0].payload.is_empty() {
            reqs[0].payload.push(0xFF);
        } else {
            reqs[0].payload[0] ^= 0xFF;
        }
        alt.batch = ubft_core::msg::Batch::new(reqs);
        let alt_wire = CtbWire::Lock { k: honest.k, m: CtbMsg::Prepare(alt).to_bytes() };
        let poisoned = TbWire::encode(honest.k, &alt_wire, &mut self.scratch);
        for to in (0..self.n()).filter(|to| *to != r) {
            self.counters.ctb_msgs += 1;
            let tb = if to % 2 == 1 { &poisoned } else { &honest };
            self.channel_send(sh, lane, r, to, tb.frame(), at);
        }
        self.deliver_tb_payload(sh, r, lane, ReplicaId(r as u32), honest.payload(), at);
        true
    }

    /// Reads every receiver's register for `slot` of `stream`, retrying once
    /// per owner when a read overlaps a write (§6.1). Returns parsed entries
    /// in replica order and the quorum completion time.
    fn read_register_slot(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        stream: usize,
        slot: usize,
        at: Time,
    ) -> (Vec<Option<RegEntry>>, Time) {
        let host = self.host_of(r);
        let mut entries = Vec::with_capacity(self.n());
        let mut completion = at;
        for owner in 0..self.n() {
            let reader = &self.reg_readers[stream][owner];
            let mut attempt_at = at;
            let mut parsed = None;
            for _attempt in 0..2 {
                match reader.read(sh.fabric, host, RegisterId(slot), attempt_at) {
                    ReadOutcome::Value { value, completion: c, .. } => {
                        completion = completion.max(c);
                        parsed = RegEntry::from_bytes(&value).ok();
                        break;
                    }
                    ReadOutcome::WriterByzantine { completion: c } => {
                        completion = completion.max(c);
                        break;
                    }
                    ReadOutcome::Retry { completion: c } => {
                        completion = completion.max(c);
                        attempt_at = c;
                    }
                    ReadOutcome::NoQuorum => break,
                    // The reading replica itself hit its crash boundary
                    // (a retry can re-issue past its own scheduled
                    // crash); the continuation is dropped by the crash
                    // checks, so what it "read" is irrelevant.
                    ReadOutcome::IssuerCrashed => break,
                }
            }
            entries.push(parsed);
        }
        (entries, completion)
    }

    // ------------------------------------------------------------------
    // TBcast + channel plumbing
    // ------------------------------------------------------------------

    /// Replica `r`'s broadcaster on a TBcast lane.
    fn tb_tx(&mut self, r: usize, lane: Lane) -> &mut TailBroadcaster {
        match lane {
            Lane::CtbTb { stream } => &mut self.nodes[r].ctb_tx[stream],
            _ => &mut self.nodes[r].cons_tx,
        }
    }

    /// TBcast-broadcasts `msg` from replica `r` on `lane`: one encoded
    /// frame goes to every peer, then its payload is delivered locally.
    fn tb_broadcast(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        lane: Lane,
        msg: &impl Wire,
        at: Time,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let wire = self.tb_tx(r, lane).broadcast(msg, &mut scratch);
        self.scratch = scratch;
        for i in 0..self.tb_tx(r, lane).peers().len() {
            let to = self.tb_tx(r, lane).peers()[i];
            self.send_tb_frame(sh, r, lane, to, &wire, at);
        }
        self.deliver_tb_payload(sh, r, lane, ReplicaId(r as u32), wire.payload(), at);
    }

    /// Sends replica `r`'s TBcast frames (a retransmission, or a tail
    /// released by an accepted probe) to their destinations.
    fn send_tb_frames(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        lane: Lane,
        at: Time,
        frames: Vec<(ReplicaId, TbWire)>,
    ) {
        for (to, wire) in frames {
            self.send_tb_frame(sh, r, lane, to, &wire, at);
        }
    }

    fn send_tb_frame(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        lane: Lane,
        to: ReplicaId,
        wire: &TbWire,
        at: Time,
    ) {
        match lane {
            Lane::CtbTb { .. } => self.counters.ctb_msgs += 1,
            Lane::ConsTb => self.counters.cons_msgs += 1,
            _ => {}
        }
        let verdict = self.channel_send(sh, lane, r, to.0 as usize, wire.frame(), at);
        // The broadcaster that caused the send learns whether the fabric
        // took the write; an accepted probe releases the tail it was
        // holding back from `to`.
        if let Some(accepted) = verdict {
            let released = self.tb_tx(r, lane).on_send_result(to, accepted);
            self.send_tb_frames(sh, r, lane, at, released);
        }
    }

    /// Hands a TBcast payload to the layer the lane carries: decoded here,
    /// straight out of the buffer it arrived (or was broadcast) in.
    fn deliver_tb_payload(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        lane: Lane,
        from: ReplicaId,
        payload: &[u8],
        at: Time,
    ) {
        match lane {
            Lane::CtbTb { stream } => {
                if let Ok(wire) = CtbWire::from_bytes(payload) {
                    self.ctb_call(sh, r, stream, at, |c| c.on_tb_deliver(from, wire));
                }
            }
            Lane::ConsTb => {
                if let Ok(msg) = TbMsg::from_bytes(payload) {
                    self.engine_call(sh, r, at, |e| e.on_tb_deliver(from, msg));
                }
            }
            _ => {}
        }
    }

    /// A TBcast frame arrived at `to` from `from`: an ack goes to the
    /// lane's broadcaster; a data frame is delivered if the receiver has
    /// not seen it, then acknowledged if the receiver says so. Cumulative
    /// acks silence the broadcaster's retransmission of the buffered tail
    /// (§4.2).
    fn on_tb_frame(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        frame: &[u8],
        at: Time,
    ) {
        let node = &mut self.nodes[to];
        let (tx, rx) = match lane {
            Lane::CtbTb { stream } => (&mut node.ctb_tx[stream], &mut node.ctb_rx[stream][from]),
            _ => (&mut node.cons_tx, &mut node.cons_rx[from]),
        };
        match TbFrame::decode(frame) {
            Ok(TbFrame::Data { k, payload }) => {
                let receipt = rx.on_wire(k);
                if receipt.deliver {
                    self.deliver_tb_payload(sh, to, lane, ReplicaId(from as u32), payload, at);
                }
                if let Some(upto) = receipt.ack {
                    self.channel_send(sh, lane, to, from, &TbAck { upto }.frame(), at);
                }
            }
            Ok(TbFrame::Ack(ack)) => tx.on_ack(ReplicaId(from as u32), ack.upto),
            Err(_) => {}
        }
    }

    /// Encodes `msg` and sends it on `lane`; see [`Self::channel_send`].
    fn send_msg(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        msg: &impl Wire,
        at: Time,
    ) -> Option<bool> {
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        msg.encode(&mut bytes);
        let verdict = self.channel_send(sh, lane, from, to, &bytes, at);
        self.scratch = bytes;
        verdict
    }

    /// Sends `bytes` on `lane` and schedules what the report asks for.
    /// Returns the fabric's verdict on the link: `Some(false)` when it
    /// refused a write (the destination is down or cut off), `Some(true)`
    /// when it put one on the wire, `None` when nothing was attempted (the
    /// data staged, or a Byzantine sender withheld it).
    fn channel_send(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        bytes: &[u8],
        at: Time,
    ) -> Option<bool> {
        let mut at = at;
        match self.byz_mode(from, at) {
            // A silent replica stops transmitting entirely; it keeps
            // receiving, which is what distinguishes it from a crash in the
            // logs but not in effect.
            Some(ByzantineMode::Silent) => return None,
            // A laggard is correct but slow: every outgoing message is
            // delayed (a gray failure; the fast path must absorb or
            // time out past it).
            Some(ByzantineMode::Laggard) => at += Duration::from_micros(50),
            _ => {}
        }
        let rep = self.transport.send(sh.fabric, lane.id(), from as u32, to as u32, bytes, at);
        let verdict = if rep.refused > 0 {
            Some(false)
        } else if rep.arrivals.is_empty() {
            None
        } else {
            Some(true)
        };
        self.schedule_send_report(sh, lane, from, to, at, rep);
        verdict
    }

    /// Turns a [`SendReport`](ubft_transport::net::SendReport) into
    /// virtual-time events: a receiver poll per issued arrival, and a
    /// flush when data stayed staged.
    fn schedule_send_report(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        at: Time,
        rep: ubft_transport::net::SendReport,
    ) {
        for (_seq, arrival) in rep.arrivals {
            sh.events.push(arrival + self.cfg.poll_pickup, (self.gid, Ev::Poll { lane, from, to }));
        }
        if let Some(t) = rep.flush_at {
            let t = if t > at { t } else { at + Duration::from_nanos(1) };
            sh.events.push(t, (self.gid, Ev::Flush { lane, from, to }));
        }
    }

    fn on_flush(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let rep = self.transport.flush(sh.fabric, lane.id(), from as u32, to as u32, at);
        self.schedule_send_report(sh, lane, from, to, at, rep);
    }

    fn on_poll(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let mut buf = std::mem::take(&mut self.poll_buf);
        buf.clear();
        let out = self.transport.poll(sh.fabric, lane.id(), from as u32, to as u32, at, &mut buf);
        if out.repoll {
            sh.events.push(at + Duration::from_nanos(200), (self.gid, Ev::Poll { lane, from, to }));
        }
        for (_seq, payload) in out.delivered {
            self.dispatch_message(sh, lane, from, to, &buf[payload], at);
        }
        self.poll_buf = buf;
    }

    fn dispatch_message(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        payload: &[u8],
        at: Time,
    ) {
        match lane {
            Lane::CtbTb { .. } | Lane::ConsTb => self.on_tb_frame(sh, lane, from, to, payload, at),
            Lane::Direct => {
                if let Ok(msg) = DirectMsg::from_bytes(payload) {
                    // A censoring leader pretends it never saw the request:
                    // it drops follower echoes (and client requests below)
                    // but participates in everything else.
                    if matches!(msg, DirectMsg::Echo { .. })
                        && self.byz_mode(to, at) == Some(ByzantineMode::CensorRequests)
                    {
                        return;
                    }
                    let f = ReplicaId(from as u32);
                    self.engine_call(sh, to, at, |e| e.on_direct(f, msg));
                }
            }
            Lane::ClientReq => {
                if let Ok(req) = Request::from_bytes(payload) {
                    self.counters.rpc_msgs += 1;
                    if self.byz_mode(to, at) == Some(ByzantineMode::CensorRequests) {
                        return;
                    }
                    // A retransmission of an already-executed request is
                    // answered from the last-reply table — the engine's
                    // dedup cannot re-execute it (PBFT's classic re-reply).
                    let cached = self.nodes[to]
                        .reply_cache
                        .get(&req.id.client)
                        .filter(|reply| reply.id == req.id)
                        .cloned();
                    if let Some(reply) = cached {
                        let c_node = self.client_node(req.id.client.0 as usize);
                        self.counters.rpc_msgs += 1;
                        self.send_msg(sh, Lane::ClientResp, to, c_node, &reply, at);
                        return;
                    }
                    self.engine_call(sh, to, at, |e| e.on_client_request(req));
                }
            }
            Lane::ClientResp => {
                if let Ok(reply) = Reply::from_bytes(payload) {
                    let c = to - self.n();
                    if self.clients[c].on_reply(reply).is_some() {
                        self.on_client_complete(sh, c, at);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Clients
    // ------------------------------------------------------------------

    /// Consecutive stalled retransmission ticks before the broadcaster
    /// force-converts its unsummarized CTBcast tail to the signed slow
    /// path (≈ 600 µs at the default 150 µs period — far above a healthy
    /// summary round trip, so failure-free runs never pay a signature).
    const SUMMARY_STALL_TICKS: u32 = 4;

    /// One TBcast retransmission tick: every broadcaster this replica owns
    /// resends its stale unacknowledged tail (§4.2), then the tick re-arms.
    /// Also the summary-stall watchdog: a crossed-but-uncertified summary
    /// boundary that survives several ticks means some receiver cannot
    /// reach it in FIFO order (its fast-path unanimity died with a peer) —
    /// the only repair is to give the stuck suffix signed slow-path
    /// evidence, because the summary itself needs that receiver's share.
    fn on_retransmit_tick(&mut self, sh: &mut Shared<'_>, r: usize, at: Time) {
        if !self.nodes[r].crashed {
            for s in 0..self.n() {
                let stale = self.nodes[r].ctb_tx[s].retransmit_stale();
                self.send_tb_frames(sh, r, Lane::CtbTb { stream: s }, at, stale);
            }
            let stale = self.nodes[r].cons_tx.retransmit_stale();
            self.send_tb_frames(sh, r, Lane::ConsTb, at, stale);

            let sent = self.nodes[r].engine.ctb_sent_count();
            let done = self.nodes[r].engine.ctb_summarized_upto();
            let half = self.nodes[r].engine.summary_half();
            if sent >= done + half {
                let node = &mut self.nodes[r];
                node.summary_stall_ticks += 1;
                if node.summary_stall_ticks >= Self::SUMMARY_STALL_TICKS {
                    node.summary_stall_ticks = 0;
                    let mut fx = Vec::new();
                    for k in done + 1..=sent {
                        fx.extend(self.nodes[r].ctbs[r].force_slow(SeqId(k)));
                    }
                    for e in fx {
                        self.ctb_effect(sh, r, r, at, e);
                    }
                }
            } else {
                self.nodes[r].summary_stall_ticks = 0;
            }
        }
        self.push(sh, at + self.cfg.retransmit_period, Ev::Retransmit { r });
    }

    fn on_client_issue(&mut self, sh: &mut Shared<'_>, c: usize, at: Time) {
        if !self.clients[c].is_idle() {
            return;
        }
        let seq = sh.ctl.completed;
        let Some(payload) = (self.workload)(seq) else {
            // Nothing routed to this group yet; poll the source again with
            // exponential backoff (5 µs doubling to a ~1.3 ms ceiling) so
            // a starved shard's idle clients cannot flood the event queue
            // over a long run.
            let shift = self.idle_backoff[c].min(8);
            self.idle_backoff[c] = self.idle_backoff[c].saturating_add(1);
            self.push(sh, at + workload_retry() * (1u64 << shift), Ev::ClientIssue { c });
            return;
        };
        self.idle_backoff[c] = 0;
        let id = self.clients[c].issue(payload);
        self.issue_times[c] = at;
        self.send_client_request(sh, c, at);
        self.push(sh, at + client_retry_period(), Ev::ClientRetry { c, id });
    }

    /// Sends client `c`'s in-flight request, encoded once, to every replica.
    fn send_client_request(&mut self, sh: &mut Shared<'_>, c: usize, at: Time) {
        let Some(req) = self.clients[c].request() else { return };
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        req.encode(&mut bytes);
        for i in 0..self.clients[c].replicas().len() {
            let to = self.clients[c].replicas()[i].0 as usize;
            self.counters.rpc_msgs += 1;
            self.channel_send(sh, Lane::ClientReq, self.client_node(c), to, &bytes, at);
        }
        self.scratch = bytes;
    }

    /// The retransmission check for request `id` of client `c` fired.
    fn on_client_retry(
        &mut self,
        sh: &mut Shared<'_>,
        c: usize,
        id: ubft_types::RequestId,
        at: Time,
    ) {
        if self.clients[c].in_flight() != Some(id) {
            return; // completed (or superseded) — nothing to do
        }
        self.send_client_request(sh, c, at);
        self.push(sh, at + client_retry_period(), Ev::ClientRetry { c, id });
    }

    fn on_client_complete(&mut self, sh: &mut Shared<'_>, c: usize, at: Time) {
        sh.ctl.completed += 1;
        self.completed += 1;
        if sh.ctl.completed > sh.ctl.warmup {
            self.latency.record(at.since(self.issue_times[c]));
        }
        if sh.ctl.completed < sh.ctl.target {
            self.push(sh, at, Ev::ClientIssue { c });
        }
    }

    /// Dispatches one event popped from the shared queue.
    pub(crate) fn handle(&mut self, sh: &mut Shared<'_>, ev: Ev, t: Time) {
        match ev {
            Ev::Poll { lane, from, to } => self.on_poll(sh, lane, from, to, t),
            Ev::Flush { lane, from, to } => self.on_flush(sh, lane, from, to, t),
            Ev::Timer { r, kind } => {
                self.engine_call(sh, r, t, |e| e.on_timer(kind));
            }
            Ev::CtbSlow { r, k } => {
                self.ctb_call(sh, r, r, t, |c| c.on_slow_timeout(k));
            }
            Ev::CtbSignDone { r, k, sig } => {
                self.ctb_call(sh, r, r, t, |c| c.on_sign_done(k, sig));
            }
            Ev::CtbVerifyDone { r, stream, tag, ok } => {
                self.ctb_call(sh, r, stream, t, |c| c.on_verify_done(tag, ok));
            }
            Ev::CtbWritten { r, stream, k } => {
                self.ctb_call(sh, r, stream, t, |c| c.on_register_written(k));
            }
            Ev::CtbReadDone { r, stream, k, entries } => {
                self.ctb_call(sh, r, stream, t, |c| c.on_registers_read(k, entries));
            }
            Ev::ClientIssue { c } => self.on_client_issue(sh, c, t),
            Ev::ClientRetry { c, id } => self.on_client_retry(sh, c, id, t),
            Ev::Retransmit { r } => self.on_retransmit_tick(sh, r, t),
            Ev::Replace { r, host } => self.replace_replica(sh, r, host, t),
            Ev::EngineFx { r, epoch, fx } => self.on_engine_fx(sh, r, epoch, fx, t),
            Ev::EngineCrypto { r, epoch, tag, result } => {
                if epoch == self.nodes[r].epoch {
                    self.engine_call(sh, r, t, |e| e.on_crypto_done(tag, result));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The shared deployment driver
// ----------------------------------------------------------------------

/// A whole deployment: one shared fabric, one shared (group-tagged) event
/// queue, one global run control, and `G ≥ 1` consensus groups.
///
/// Host-ID layout: group `g` occupies the contiguous block
/// `[g·(n + n_clients), (g+1)·(n + n_clients))` — replicas first, then
/// clients — and the `2f_m + 1` shared memory nodes occupy the final
/// `n_mem` ids. With `G = 1` this is exactly the pre-sharding `Cluster`
/// layout, which is what makes the single-group facade bit-for-bit
/// compatible.
pub(crate) struct Deployment {
    pub now: Time,
    pub fabric: Fabric,
    pub events: EventQueue<GroupEv>,
    pub ctl: RunCtl,
    pub groups: Vec<GroupRuntime>,
    /// The omniscient safety auditor ([`SimConfig::with_audit`]); `None`
    /// keeps the run observation-free and bit-for-bit historical.
    pub audit: Option<Auditor>,
}

impl Deployment {
    /// Builds `shards` groups over one fabric. `make_apps(g)` yields group
    /// `g`'s `n` application instances; `make_workload(g)` yields its
    /// request source.
    pub(crate) fn build(
        base: &SimConfig,
        mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
        mut make_workload: impl FnMut(usize) -> GroupWorkload,
    ) -> Self {
        let shards = base.shards.max(1);
        let n = base.params.n();
        let n_clients = base.n_clients.max(1);
        let n_mem = base.params.n_mem();
        let block = n + n_clients;

        // Per-group configurations: group-local seed and fault plan.
        let cfgs: Vec<SimConfig> = (0..shards)
            .map(|g| {
                let mut cfg = base.clone();
                cfg.seed = group_seed(base.seed, g);
                // The group's own plan; `shards` keeps the deployment-wide
                // count (the facades read it for stall deadlines), while
                // the per-shard extras are folded into `failures`.
                cfg.failures = base.shard_plan(g);
                // The asynchrony phase is deployment-global (the network
                // delays *every* group's traffic pre-GST), so every
                // group's plan must carry it — snapshot retention reads
                // it, and a shard that lags a window behind pre-GST
                // delays needs donor snapshots to heal.
                cfg.failures.gst = base.failures.gst;
                cfg.failures.pre_gst_extra = base.failures.pre_gst_extra;
                cfg.shard_failures = Vec::new();
                cfg
            })
            .collect();

        // Replacement nodes get brand-new host ids past the memory nodes,
        // pre-allocated so the host count (and thus the deterministic
        // event schedule) is fixed at build time.
        let mut n_hosts = shards * block + n_mem;
        let mut replacements: Vec<(Time, u32, usize, HostId)> = Vec::new();
        for (g, cfg) in cfgs.iter().enumerate() {
            for (r, _crash_at, rejoin_at) in cfg.failures.replacements() {
                assert!(r < n, "shard {g}: replacement victim {r} out of range");
                let host = HostId(n_hosts as u32);
                n_hosts += 1;
                replacements.push((rejoin_at, g as u32, r, host));
            }
        }

        let rng = SimRng::new(base.seed);
        let mut net = NetworkModel::synchronous(base.latency.clone(), n_hosts)
            .with_gst(base.failures.gst, base.failures.pre_gst_extra);
        // Apply crash schedules, mapped into the global host space.
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for i in 0..n {
                if let Some(t) = cfg.failures.replica_crash_time(i) {
                    net.crash_host(HostId(host_base + i as u32), t);
                }
            }
        }
        // Memory nodes are shared; a crash scheduled by any group's plan
        // takes the earliest scheduled time.
        for i in 0..n_mem {
            if let Some(t) = cfgs.iter().filter_map(|c| c.failures.mem_node_crash_time(i)).min() {
                net.crash_host(HostId((shards * block + i) as u32), t);
            }
        }
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for (a, b, from, until) in cfg.failures.partitions() {
                // Partition endpoints are replica indices by contract
                // (`FailurePlan::partition`). In a multi-shard deployment
                // an index beyond the group's host block would silently
                // land inside the *next* group's block, so reject it
                // loudly; single-group deployments keep the historical
                // raw-host-id behavior.
                assert!(
                    shards == 1 || (a < block && b < block),
                    "shard {g}: partition endpoints ({a}, {b}) must be group-local (< {block})"
                );
                net.add_partition(
                    HostId(host_base + a as u32),
                    HostId(host_base + b as u32),
                    from,
                    until,
                );
            }
        }
        let mut fabric = Fabric::new(net, rng.fork(1));
        let mut events = EventQueue::new();
        let mut ctl = RunCtl::default();
        let mem_hosts: Vec<HostId> =
            (0..n_mem).map(|i| HostId((shards * block + i) as u32)).collect();

        let mut groups = Vec::with_capacity(shards);
        // Groups are built unaudited (nothing decision-relevant happens at
        // construction — engine start-up arms watchdogs only); the auditor
        // reads their shape and sequential models once they exist.
        let mut audit: Option<Auditor> = None;
        for (g, cfg) in cfgs.into_iter().enumerate() {
            let mut sh = Shared {
                fabric: &mut fabric,
                events: &mut events,
                ctl: &mut ctl,
                audit: &mut audit,
            };
            groups.push(GroupRuntime::new(
                g as u32,
                cfg,
                (g * block) as u32,
                &mem_hosts,
                make_apps(g),
                make_workload(g),
                &mut sh,
            ));
        }
        if base.audit {
            audit = Some(Auditor::new(&groups));
        }
        for (rejoin_at, g, r, host) in replacements {
            events.push(rejoin_at, (g, Ev::Replace { r, host }));
        }

        Deployment { now: Time::ZERO, fabric, events, ctl, groups, audit }
    }

    /// Drives the closed loop until `requests + warmup` total completions
    /// or virtual time passes `deadline`.
    pub(crate) fn run_loop(&mut self, requests: u64, warmup: u64, deadline: Time) {
        self.ctl.target = requests + warmup;
        self.ctl.warmup = warmup;
        for g in 0..self.groups.len() {
            for c in 0..self.groups[g].n_clients() {
                self.events.push(
                    Time::ZERO + Duration::from_micros(1 + c as u64),
                    (g as u32, Ev::ClientIssue { c }),
                );
            }
        }
        let max_events = 200_000_000u64;
        while let Some((t, (gid, ev))) = self.events.pop() {
            self.now = t;
            if self.ctl.completed >= self.ctl.target || t > deadline {
                break;
            }
            assert!(self.events.total_pushed() < max_events, "simulation diverged (event flood)");
            let Deployment { fabric, events, ctl, groups, audit, .. } = self;
            // Apply the handling group's scheduled crashes; other groups'
            // crash flags are only read while handling their own events,
            // so they catch up then.
            let group = &mut groups[gid as usize];
            group.apply_scheduled_crashes(t);
            let mut sh = Shared { fabric, events, ctl, audit };
            group.handle(&mut sh, ev, t);
        }
    }

    /// Keeps processing events for `extra` more virtual time *without* a
    /// completion target: in-flight deliveries drain, stragglers (and
    /// replacement nodes) finish catching up. The closed loop stops
    /// issuing once the target is met, so this converges instead of
    /// generating new work.
    pub(crate) fn settle(&mut self, extra: Duration) {
        let deadline = self.now + extra;
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            let Some((t, (gid, ev))) = self.events.pop() else { break };
            self.now = t;
            let Deployment { fabric, events, ctl, groups, audit, .. } = self;
            let group = &mut groups[gid as usize];
            group.apply_scheduled_crashes(t);
            let mut sh = Shared { fabric, events, ctl, audit };
            group.handle(&mut sh, ev, t);
        }
    }

    /// One group's report: its own latency distribution (cloned), its
    /// counters, completions, and views, stamped with the global end time.
    /// The audit verdict is deployment-wide; callers wanting per-shard
    /// slices attach them ([`AuditReport::for_group`]).
    pub(crate) fn shard_report(&self, g: usize) -> RunReport {
        let gr = &self.groups[g];
        RunReport {
            latency: gr.latency.clone(),
            counters: gr.counters,
            completed: gr.completed,
            end: self.now,
            views: gr.views(),
            audit: None,
        }
    }

    /// The auditor's verdict over everything observed so far (`None` when
    /// auditing is off). Idempotent — the model replays incrementally, so
    /// asking again after [`Deployment::settle`] audits the drained tail.
    pub(crate) fn audit_report(&mut self) -> Option<AuditReport> {
        let Deployment { audit, groups, .. } = self;
        audit.as_mut().map(|a| a.report(groups))
    }

    /// The merged whole-deployment report; takes each group's latency
    /// samples (call [`Deployment::shard_report`] first if per-shard
    /// distributions are wanted). `audit` is the verdict to attach —
    /// callers that already produced one pass it in instead of paying the
    /// model-comparison work twice.
    pub(crate) fn aggregate_report(&mut self, audit: Option<AuditReport>) -> RunReport {
        let mut latency = LatencyStats::new();
        let mut counters = OpCounters::default();
        let mut views = Vec::new();
        for gr in &mut self.groups {
            latency.absorb(std::mem::take(&mut gr.latency));
            counters.merge(&gr.counters);
            views.extend(gr.views());
        }
        RunReport { latency, counters, completed: self.ctl.completed, end: self.now, views, audit }
    }

    /// Per-replica diagnostics for every group.
    pub(crate) fn diag_lines(&self) -> String {
        if self.groups.len() == 1 {
            return self.groups[0].diag_lines();
        }
        self.groups
            .iter()
            .enumerate()
            .map(|(g, gr)| format!(" shard {g}:\n{}", gr.diag_lines()))
            .collect()
    }
}

/// Per-group seed derivation: group 0 keeps the base seed (the facade's
/// bit-for-bit guarantee), later groups fold in a golden-ratio multiple.
pub(crate) fn group_seed(base: u64, g: usize) -> u64 {
    base ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The engine configuration a [`SimConfig`] prescribes for one replica —
/// shared by initial construction, replacement-node construction, and the
/// wall-clock threaded backend, so the three can never drift.
pub(crate) fn engine_config(cfg: &SimConfig, replica: usize) -> EngineConfig {
    let mut ecfg = EngineConfig::new(cfg.params.clone(), cfg.path);
    ecfg.echo_round = cfg.echo_round;
    if let Some(every) = cfg.summary_every {
        ecfg.summary_half = every;
    }
    ecfg.max_batch = cfg.max_batch.max(1);
    if let Some(depth) = cfg.pipeline_depth {
        ecfg.pipeline_depth = depth.max(1);
    }
    ecfg.record_decisions = cfg.audit;
    ecfg.client_cache_cap = cfg.client_cache_cap;
    if let Some(AuditMutation::DecideEarly { replica: target }) = cfg.audit_mutation {
        ecfg.test_decide_early = target == replica;
    }
    ecfg
}
