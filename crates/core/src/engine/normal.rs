//! Algorithm 2, the common case: request intake and the echo round (§5.4),
//! the leader's proposals, the signature-less fast path, the certified
//! slow path, decision and in-order execution.

use std::collections::BTreeSet;

use ubft_crypto::Signature;
use ubft_types::{ReplicaId, RequestId, Slot, View};

use super::certify::ShareSet;
use super::requests::Stage;
use super::{DecisionEvidence, DecisionRecord, Effect, Engine, PathMode, ShareOf, TimerKind};
use crate::msg::{Batch, CommitCert, CtbMsg, DirectMsg, Prepare, Request, TbMsg};

/// Per-slot consensus state.
#[derive(Clone, Debug, Default)]
pub(super) struct SlotState {
    /// The accepted proposal (from the current leader's stream).
    pub(super) prepare: Option<Prepare>,
    will_certify: BTreeSet<ReplicaId>,
    will_commit: BTreeSet<ReplicaId>,
    sent_will_commit: bool,
    /// View in which this replica promised WILL_COMMIT (view-change duty).
    pub(super) promised_in: Option<View>,
    /// This view's CERTIFY shares, each over the proposal it arrived with
    /// — which may be ahead of ours ([`Engine::handle_certify_share`]).
    pub(super) shares: ShareSet<Prepare>,
    sent_certify: bool,
    pub(super) sent_commit: bool,
    /// Replicas whose COMMIT (with matching prepare) we delivered.
    pub(super) commit_from: BTreeSet<ReplicaId>,
    pub(super) decided: Option<Batch>,
}

impl SlotState {
    /// Forgets what an undecided slot did in the view that just ended —
    /// everything but the promise, which names its view.
    fn enter_view(&mut self) {
        if self.decided.is_none() {
            *self = SlotState { promised_in: self.promised_in, ..SlotState::default() };
        }
    }
}

impl Engine {
    // ------------------------------------------------------------------
    // Client requests and the echo round (§5.4)
    // ------------------------------------------------------------------

    /// A client request arrived directly at this replica.
    pub fn on_client_request(&mut self, req: Request) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        let id = req.id;
        let before = self.requests.receive(req);
        // An executed request is re-answered by the runtime's last-reply
        // cache: nothing to order again. One that was held already means the
        // client timed out and is retransmitting — our original echo (or the
        // proposal path) may have been lost to a partition or crash, so it
        // is driven again, not swallowed.
        if before != Some(Stage::Executed) {
            if !self.is_leader() {
                let req = self.requests.get(id).expect("just received");
                let msg = DirectMsg::Echo { req };
                self.out.push(Effect::SendReplica { to: self.leader(), msg });
            } else if !self.queue_if_echoed(id) && before.is_none() {
                self.out.push(Effect::ArmTimer { kind: TimerKind::EchoFallback(id) });
            }
            if before.is_none() {
                // A held prepare may now be acceptable.
                self.release_held();
            }
            self.propose_ready();
        }
        std::mem::take(&mut self.out)
    }

    /// A follower echoed a client request to us (we may be the leader).
    pub fn on_echo(&mut self, from: ReplicaId, req: Request) -> Vec<Effect> {
        self.suspected.remove(&from);
        if self.is_leader() {
            let id = req.id;
            if self.requests.echo(from, req) {
                self.queue_if_echoed(id);
            }
            self.propose_ready();
        }
        std::mem::take(&mut self.out)
    }

    /// The echo-fallback timer for `id` fired: propose without full echoes.
    /// Some follower may never have seen the request (that is why the timer
    /// fired), so it goes into a slot of its own.
    pub(super) fn echo_timeout(&mut self, id: RequestId) {
        if self.is_leader() {
            self.requests.queue(id, true, 0);
        }
        self.propose_ready();
    }

    /// Echo round: all followers must have echoed (they hold the request)
    /// before the leader proposes; the EchoFallback timer covers Byzantine
    /// silence. After a view change the echo requirement is dropped
    /// (followers accept re-proposals without direct receipt).
    fn queue_if_echoed(&mut self, id: RequestId) -> bool {
        let waived = !self.cfg.echo_round || self.view > View(0);
        self.requests.queue(id, false, if waived { 0 } else { self.n() - 1 })
    }

    /// Slots this leader has proposed but not yet executed — the pipeline
    /// fill the `pipeline_depth` gate bounds.
    pub(super) fn in_flight_slots(&self) -> u64 {
        self.next_slot.0.saturating_sub(self.exec_next.0)
    }

    pub(super) fn propose_ready(&mut self) {
        if !self.is_leader() || self.sealing.is_some() || self.join.is_some() {
            return;
        }
        // Algorithm 2 line 15: in views > 0 the leader may propose only
        // after broadcasting NEW_VIEW.
        if self.view > View(0) && self.new_view_broadcast != Some(self.view) {
            return;
        }
        // Algorithm 2 line 15: only into open slots; NEW_VIEW must have been
        // broadcast first in views > 0 (ensured by `enter_view_as_leader`).
        if self.next_slot < self.checkpoint.data.base {
            self.next_slot = self.checkpoint.data.base;
        }
        let depth = self.cfg.pipeline_depth.max(1) as u64;
        let max_batch = self.cfg.max_batch.max(1);
        // Flush up to `max_batch` queued requests into one slot. While the
        // pipeline is full the queue keeps growing, so under load batches
        // widen toward `max_batch` on their own.
        while self.in_open_window(self.next_slot) && self.in_flight_slots() < depth {
            let Some(batch) = self.requests.next_batch(max_batch) else { break };
            let slot = self.next_slot;
            self.next_slot = self.next_slot.next();
            let prepare = Prepare { view: self.view, slot, batch };
            self.emit_ctb(CtbMsg::Prepare(prepare));
        }
    }

    // ------------------------------------------------------------------
    // Proposals: hold (§5.4), accept, fast path, slow path
    // ------------------------------------------------------------------

    pub(super) fn handle_prepare(&mut self, stream: ReplicaId, prep: Prepare) {
        let ps = self.state.get_mut(&stream).expect("known");
        ps.prepares.insert(prep.slot, prep.clone());
        if prep.view != self.view || !self.in_open_window(prep.slot) {
            return;
        }
        // §5.4: endorse only requests received directly from the client
        // (no-ops and view-change re-proposals are exempt). A PREPARE held
        // back has no second home: it is the entry just filed under the
        // leader's stream, and `held` only remembers which slots to look
        // at again when a request arrives.
        if prep.view == View(0) && !self.requests.endorsed(&prep.batch) {
            self.held.insert(prep.slot);
            return;
        }
        self.accept_prepare(prep);
    }

    /// Accepts the held PREPAREs whose requests have all arrived by now. A
    /// held PREPARE is what the *current* leader's stream carries for the
    /// slot in the *current* view, so one from a view that ended can never
    /// be released into the next.
    fn release_held(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let leader = self.state.get(&self.leader()).expect("known");
        let ready: Vec<Prepare> = self
            .held
            .iter()
            .filter_map(|slot| leader.prepares.get(slot))
            .filter(|p| p.view == self.view && self.requests.endorsed(&p.batch))
            .cloned()
            .collect();
        for p in ready {
            self.accept_prepare(p);
        }
    }

    /// Forgets what every undecided slot did in the view that just ended,
    /// the PREPAREs held back in it included.
    pub(super) fn slots_enter_view(&mut self) {
        self.slots.values_mut().for_each(SlotState::enter_view);
        self.held.clear();
    }

    fn accept_prepare(&mut self, prep: Prepare) {
        let slot = prep.slot;
        self.held.remove(&slot);
        let entry = self.slots.entry(slot).or_default();
        if entry.prepare.is_some() {
            return;
        }
        entry.prepare = Some(prep.clone());
        // Shares that got here ahead of the PREPARE: one over anything else
        // can never count, and one over this very proposal means a peer is
        // on the slow path already and waits for our share.
        let solicited = entry.shares.keep_only(&prep);
        match self.cfg.path {
            PathMode::FastOnly | PathMode::FastWithFallback => {
                self.out.push(Effect::TbBroadcast(TbMsg::WillCertify { view: prep.view, slot }));
                if self.cfg.path == PathMode::FastWithFallback {
                    if self.suspected.is_empty() && !solicited {
                        self.out.push(Effect::ArmTimer { kind: TimerKind::SlotSlowTrigger(slot) });
                    } else {
                        // A replica is known to be silent: the timeout
                        // would only re-discover it.
                        self.start_slow_path(slot);
                    }
                }
            }
            PathMode::SlowOnly => self.start_slow_path(slot),
        }
    }

    /// Starts (or resumes) the slow path for `slot`: sign and broadcast our
    /// CERTIFY share.
    pub(super) fn start_slow_path(&mut self, slot: Slot) {
        let unsent = self.slots.get(&slot).filter(|s| !s.sent_certify);
        let Some(prep) = unsent.and_then(|s| s.prepare.clone()) else {
            return;
        };
        let sig = self.sign(&prep.certify_bytes());
        let entry = self.slots.get_mut(&slot).expect("just read");
        entry.sent_certify = true;
        // Our own share counts immediately.
        entry.shares.add_own(self.me, prep.clone(), sig);
        self.out.push(Effect::TbBroadcast(TbMsg::Certify { prepare: prep, sig }));
        self.maybe_commit(slot);
    }

    /// The fast-path timeout fired for `slot`: if it is still undecided,
    /// start the slow path and suspect every replica whose WILL_COMMIT is
    /// missing.
    pub(super) fn slot_slow_trigger(&mut self, slot: Slot) {
        let Some(state) = self.slots.get(&slot).filter(|s| s.decided.is_none()) else {
            return;
        };
        let silent =
            self.cfg.params.replicas().filter(|r| *r != self.me && !state.will_commit.contains(r));
        self.suspected.extend(silent);
        self.start_slow_path(slot);
    }

    /// A consensus TBcast message arrived from `from`.
    pub fn on_tb_deliver(&mut self, from: ReplicaId, msg: TbMsg) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        self.suspected.remove(&from);
        if self.byzantine.contains(&from) {
            return std::mem::take(&mut self.out);
        }
        match msg {
            TbMsg::WillCertify { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return std::mem::take(&mut self.out);
                }
                let n = self.n();
                let entry = self.slots.entry(slot).or_default();
                entry.will_certify.insert(from);
                if entry.will_certify.len() == n && !entry.sent_will_commit {
                    entry.sent_will_commit = true;
                    entry.promised_in = Some(view);
                    self.out.push(Effect::TbBroadcast(TbMsg::WillCommit { view, slot }));
                }
            }
            TbMsg::WillCommit { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return std::mem::take(&mut self.out);
                }
                let entry = self.slots.entry(slot).or_default();
                entry.will_commit.insert(from);
                let votes = entry.will_commit.len();
                // Algorithm 2: the signature-less fast path decides only on
                // *unanimity*. The test_decide_early mutation hook skips
                // that check so the auditor's coverage invariant can be
                // demonstrated to catch the resulting unsafe decision.
                if votes == self.n() || (self.cfg.test_decide_early && votes >= 1) {
                    let leader_prep = self
                        .state
                        .get(&view.leader(self.n()))
                        .and_then(|ps| ps.prepares.get(&slot))
                        .cloned();
                    if let Some(prep) = leader_prep {
                        self.decide(slot, prep.batch, DecisionEvidence::FastQuorum { votes });
                    }
                }
            }
            TbMsg::Certify { prepare, sig } => self.handle_certify_share(from, prepare, sig),
            TbMsg::CertifyCheckpoint { data, sig } => self.handle_checkpoint_share(from, data, sig),
            TbMsg::Summary { upto, summary, cert } => {
                self.handle_summary(from, upto, summary, cert)
            }
        }
        std::mem::take(&mut self.out)
    }

    /// A CERTIFY share arrived. It is admitted — one per signer per slot per
    /// view — whether or not its PREPARE has finished CTBcast here: the
    /// leader delivers its own proposal a verification ahead of everybody
    /// else, so its share is early at every follower, and checking it while
    /// the PREPARE is still on its way takes that check off the request's
    /// blocking chain. The signature goes to the crypto worker only while it
    /// could still complete a certificate, and counts once its
    /// [`CryptoTag::ShareCheck`](super::CryptoTag::ShareCheck) comes back
    /// `true` and the proposal it signs is the one we accepted.
    fn handle_certify_share(&mut self, from: ReplicaId, prepare: Prepare, sig: Signature) {
        let slot = prepare.slot;
        // Our own share is added where it is signed.
        if from == self.me || prepare.view != self.view || !self.in_open_window(slot) {
            return;
        }
        if self.slots.get(&slot).is_none_or(|s| s.prepare.is_none()) {
            // A peer started the slow path for a proposal we hold back:
            // accept it now if it is the one on the leader's stream.
            let leader = self.state.get(&prepare.view.leader(self.n())).expect("known");
            if leader.prepares.get(&slot) == Some(&prepare) {
                self.accept_prepare(prepare.clone());
            }
        }
        let entry = self.slots.entry(slot).or_default();
        let accepted = entry.prepare.is_some();
        let about = match &entry.prepare {
            // A share over anything but what we accepted can never count.
            Some(ours) if *ours != prepare => return,
            // One copy of the proposal per slot, not one per share.
            Some(ours) => ours.clone(),
            None => prepare,
        };
        if !entry.shares.admit(from, about, sig) {
            return;
        }
        // A peer soliciting the slow path recruits us as soon as its share
        // is admitted, even for a slot we decided on the fast path: such a
        // decider holds no certificate and its slow trigger skips decided
        // slots, so without our share a peer discharging a WILL_COMMIT
        // promise could stay one signature short of `f + 1` forever (the
        // chaos explorer found that). Waiting for the verdict would buy
        // nothing — we sign only what we accepted, which a silent peer can
        // force too — and put the check back on the blocking chain
        // whenever one replica is down.
        if accepted && self.cfg.path != PathMode::FastOnly {
            self.start_slow_path(slot);
        }
        self.check_parked(ShareOf::Slot { slot, view: self.view });
    }

    /// Once we hold an `f + 1` certificate for our prepare, broadcast COMMIT
    /// via CTBcast (Algorithm 2 line 36).
    pub(super) fn maybe_commit(&mut self, slot: Slot) {
        let quorum = self.quorum();
        let Some(entry) = self.slots.get_mut(&slot).filter(|s| !s.sent_commit) else {
            return;
        };
        let Some(prepare) = entry.prepare.clone() else { return };
        let Some(cert) = entry.shares.certificate(&prepare, quorum) else { return };
        entry.sent_commit = true;
        self.note_own_cert(&cert, &prepare.certify_bytes());
        self.emit_ctb(CtbMsg::Commit(CommitCert { prepare, cert }));
        self.check_seal_ready();
    }

    pub(super) fn handle_commit(&mut self, stream: ReplicaId, c: CommitCert) {
        let slot = c.prepare.slot;
        self.state.get_mut(&stream).expect("known").commits.insert(slot, c.clone());
        if c.prepare.view != self.view || !self.in_open_window(slot) {
            return;
        }
        // Count COMMITs whose prepare matches; f+1 of them decide the slot
        // (Algorithm 2 lines 38–41).
        let entry = self.slots.entry(slot).or_default();
        match &entry.prepare {
            // A conflicting commit; the view change will sort it out.
            Some(ours) if *ours != c.prepare => return,
            Some(_) => {}
            None => entry.prepare = Some(c.prepare.clone()),
        }
        entry.commit_from.insert(stream);
        let commits = entry.commit_from.len();
        if commits >= self.quorum() || (self.cfg.test_decide_early && commits >= 1) {
            self.decide(slot, c.prepare.batch, DecisionEvidence::CommitQuorum { commits });
        }
    }

    // ------------------------------------------------------------------
    // Decision and execution
    // ------------------------------------------------------------------

    pub(super) fn decide(&mut self, slot: Slot, batch: Batch, evidence: DecisionEvidence) {
        let view = self.view;
        let base = self.checkpoint.data.base;
        let record = self.cfg.record_decisions;
        let entry = self.slots.entry(slot).or_default();
        if entry.decided.is_some() {
            return;
        }
        if record {
            self.decisions.push(DecisionRecord {
                slot,
                view,
                batch_digest: batch.digest(),
                base,
                evidence,
            });
        }
        // `decide_count` counts individual requests, not slots, so batching
        // leaves the progress-watchdog and throughput accounting comparable
        // across batch sizes.
        self.decide_count += batch.len() as u64;
        entry.decided = Some(batch);
        self.vc_streak = 0;
        self.try_execute();
        // Executed slots leave the pipeline; the gate may have reopened.
        self.propose_ready();
    }

    pub(super) fn try_execute(&mut self) {
        loop {
            // Checkpoint every `window` executed slots (Algorithm 2 line
            // 44). The snapshot is taken at exactly the boundary: execution
            // pauses there, the driver answers `RequestSnapshot` in effect
            // order, and `on_snapshot` resumes — so the certified dedup
            // table is the one after slot `base - 1` on every replica,
            // however many decided slots one call finds beyond it.
            if self.snapshot_pending.is_some() {
                return;
            }
            let boundary = Slot(self.snapshot_base.0 + self.window() as u64);
            debug_assert!(self.exec_next <= boundary);
            if self.exec_next == boundary {
                self.snapshot_pending = Some(boundary);
                self.out.push(Effect::RequestSnapshot { base: boundary });
                return;
            }
            // The batch handle (a reference-count bump) releases the
            // `self.slots` borrow; a request is copied exactly once, into
            // the Execute effect that hands it to the application.
            let Some(batch) = self.slots.get(&self.exec_next).and_then(|s| s.decided.clone())
            else {
                return;
            };
            for req in batch.requests() {
                // A request re-proposed across views may occupy two slots;
                // only its first occurrence executes (PBFT-style last-reply
                // dedup).
                if self.requests.execute(req.id) {
                    self.out.push(Effect::Execute { slot: self.exec_next, req: req.clone() });
                }
            }
            self.exec_next = self.exec_next.next();
        }
    }
}
