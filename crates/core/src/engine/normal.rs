//! Algorithm 2, the common case: request intake and the echo round (§5.4),
//! the leader's proposals, the signature-less fast path, the certified
//! slow path, decision and in-order execution.

use std::collections::BTreeMap;
use std::sync::Arc;

use ubft_crypto::Signature;
use ubft_types::{Deadline, ReplicaId, ReplicaSet, RequestId, SeqId, Slot, View};

use super::certify::ShareSet;
use super::requests::Stage;
use super::{
    must_propose, CryptoTag, DecisionEvidence, DecisionRecord, Effect, Engine, PathMode, ShareOf,
    TimerKind,
};
use crate::msg::{Batch, CommitCert, CtbMsg, DirectMsg, Prepare, Request, TbMsg};

/// Per-slot consensus state.
#[derive(Clone, Debug, Default)]
pub(super) struct SlotState {
    /// The accepted proposal (from the current leader's stream).
    pub(super) prepare: Option<Prepare>,
    will_certify: ReplicaSet,
    will_commit: ReplicaSet,
    /// View in which this replica promised WILL_COMMIT (view-change duty):
    /// set by the WILL_CERTIFY that completes `will_certify`.
    pub(super) promised_in: Option<View>,
    /// This view's CERTIFY shares, each over the proposal it arrived with
    /// — which may be ahead of ours ([`Engine::handle_certify_share`]).
    pub(super) shares: ShareSet<Prepare>,
    pub(super) sent_certify: bool,
    /// CTBcast was asked to sign our COMMIT ahead ([`Engine::sign_commit_ahead`]).
    signed_ahead: bool,
    pub(super) sent_commit: bool,
    pub(super) decided: Option<Batch>,
    /// How long the accepted PREPARE has waited for its fast path, in
    /// firings of [`Engine::slow_sweep`] (`FastWithFallback` only).
    fast_wait: Deadline,
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

/// The bytes CERTIFY shares sign, per slot: built once per slot and view
/// and shared by every job that signs or checks a share over the slot's
/// proposal and by the verification cache. Kept beside the slots, not in
/// [`SlotState`], so a fast-path slot does not carry the room for them.
#[derive(Debug, Default)]
pub(super) struct CertifyBytes(BTreeMap<Slot, (Prepare, Arc<[u8]>)>);

impl CertifyBytes {
    /// The bytes a share over `about` signs: those built for it, or built
    /// now in place of another proposal's for its slot.
    pub(super) fn of(&mut self, about: &Prepare) -> Arc<[u8]> {
        if let Some((_, bytes)) = self.0.get(&about.slot).filter(|(p, _)| p == about) {
            return bytes.clone();
        }
        let bytes: Arc<[u8]> = about.certify_bytes().into();
        self.0.insert(about.slot, (about.clone(), bytes.clone()));
        bytes
    }

    /// Forgets the slots below `base`, as the slots themselves are.
    pub(super) fn prune(&mut self, base: Slot) {
        self.0.retain(|s, _| *s >= base);
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
            } else if !self.queue_if_echoed(id) && self.requests.await_echoes(id) {
                // Marked again by a retransmission, which the followers get
                // too: their echoes may be what [`Engine::echo_sweep`] was
                // missing.
                self.out.push(Effect::ArmTimer { kind: TimerKind::EchoFallback });
            }
            if before.is_none() {
                // A held prepare may now be acceptable.
                self.release_held();
            }
            self.propose_ready();
        }
        self.take_out()
    }

    /// A follower echoed client requests to us (we may be the leader): one
    /// [`DirectMsg::Echo`] or the several of one [`DirectMsg::Echoes`],
    /// which a follower sends once the slot it accepted decides. Every
    /// request counts as echoed before anything is proposed, so the
    /// requests one message completes share the slots it opens.
    pub fn on_echo(
        &mut self,
        from: ReplicaId,
        reqs: impl IntoIterator<Item = Request>,
    ) -> Vec<Effect> {
        self.heard_from(from);
        if self.is_leader() {
            for req in reqs {
                let id = req.id;
                if self.requests.echo(from, req) {
                    self.queue_if_echoed(id);
                }
            }
            self.propose_ready();
        }
        self.take_out()
    }

    /// The echo-fallback sweep fired: propose without full echoes what has
    /// waited since the previous firing, but only once `f` followers echoed
    /// it. With the leader those are the `f + 1` holders its slot needs to
    /// be endorsed (§5.4); a request fewer hold is not proposed, so a
    /// client that sends to the leader alone blocks no slot. A correct
    /// client's retransmission brings the echoes. Some follower may never
    /// have seen the request (that is why it waited), so it goes into a
    /// slot of its own. One timer serves every waiting request, and it is
    /// armed again only while one waits; a deposed leader stops it.
    pub(super) fn echo_sweep(&mut self) {
        let leading = self.is_leader().then(|| self.quorum() - 1);
        if self.requests.sweep_echo_waits(leading) {
            self.out.push(Effect::ArmTimer { kind: TimerKind::EchoFallback });
        }
        self.propose_ready();
    }

    /// Echo round: all followers must have echoed (they hold the request)
    /// before the leader proposes; the echo-fallback sweep covers Byzantine
    /// silence. After a view change the echo requirement is dropped: the
    /// old leader, likely the reason for the change, would never echo, and
    /// waiting out the fallback for it cost a degraded group 100 µs per
    /// request (`leader_crash` p50 165.1 → 265.2 µs). Followers still
    /// endorse only what they hold; the clients have sent it to them. What
    /// only echoes brought us is waived nothing: `f + 1` followers must
    /// have echoed it ([`Requests::queue`](super::requests::Requests)), or
    /// one faulty follower and the leader would be the `f + 1` that decide
    /// a request no client sent.
    fn queue_if_echoed(&mut self, id: RequestId) -> bool {
        let waived = !self.cfg.echo_round || self.view > View(0);
        self.requests.queue(id, false, if waived { 0 } else { self.n() - 1 })
    }

    /// Slots this leader has proposed that have not decided — the pipeline
    /// fill the `pipeline_depth` gate bounds. A decided slot that waits at
    /// a checkpoint boundary for its execution is out of it: the pipeline
    /// bounds agreement, and execution runs beside it.
    pub(super) fn in_flight_slots(&self) -> u64 {
        if self.next_slot <= self.exec_next {
            return 0;
        }
        let open = self.slots.range(self.exec_next..self.next_slot);
        let decided = open.filter(|(_, s)| s.decided.is_some()).count() as u64;
        self.next_slot.0 - self.exec_next.0 - decided
    }

    /// The first slot whose PREPARE this replica accepted and that has not
    /// decided, if any. A follower's echoes wait while it stays the same
    /// (the driver's rule, `ReplicaNode::echo` in `ubft-runtime`).
    pub fn accepted_undecided(&self) -> Option<Slot> {
        let mut open = self.slots.range(self.exec_next..);
        open.find(|(_, s)| s.prepare.is_some() && s.decided.is_none()).map(|(slot, _)| *slot)
    }

    /// The batch this replica holds for `slot` in `view`, if any: the
    /// PREPARE it accepted, the proposal a CERTIFY share it holds is over,
    /// the PREPARE the view's leader sent, held back or not, or — on the
    /// leader — the one it proposed, until its CTBcast delivery. The driver
    /// decodes a message that carries the proposal against it
    /// ([`Wire::from_bytes_holding`](ubft_types::wire::Wire::from_bytes_holding)),
    /// so a batch is built once per replica, not once per message.
    pub fn held_batch(&self, view: View, slot: Slot) -> Option<&Batch> {
        let of_view = |p: &&Prepare| p.view == view;
        let s = self.slots.get(&slot);
        let accepted = s.and_then(|s| s.prepare.as_ref()).filter(of_view);
        let shared = || s.and_then(|s| s.shares.abouts().find(of_view));
        let sent = || self.state.get(&view.leader(self.n()))?.prepares.get(&slot).filter(of_view);
        let proposed = || self.proposed.iter().find(|p| p.slot == slot).filter(of_view);
        accepted.or_else(shared).or_else(sent).or_else(proposed).map(|p| &p.batch)
    }

    /// Whether request `id` has been handed to execution: a retransmission
    /// of it is answered from the last-reply table, not ordered again.
    pub fn executed(&self, id: RequestId) -> bool {
        self.requests.executed(&id)
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
        self.next_slot = self.next_slot.max(self.checkpoint.data.base);
        let depth = self.cfg.pipeline_depth.max(1) as u64;
        let max_batch = self.cfg.max_batch.max(1);
        // Flush up to `max_batch` queued requests into one slot. While the
        // pipeline is full the queue keeps growing, so under load batches
        // widen toward `max_batch` on their own.
        while self.in_open_window(self.next_slot) && self.in_flight_slots() < depth {
            // A slot a decision freed from a full pipeline, with another in
            // flight, does not take a batch that is not full while fewer
            // requests are ready than some follower has echoed and another
            // not yet: the followers sent what they held at that decision,
            // and the rest are on their way. Proposed now, those would wait
            // out the next slot's round.
            let (ready, echoing) = (self.requests.queued(), self.requests.echoing());
            let in_flight = self.in_flight_slots() > 0;
            if self.echo_wait && in_flight && ready < max_batch && ready < echoing {
                break;
            }
            let Some(batch) = self.requests.next_batch(max_batch) else { break };
            self.echo_wait = false;
            let slot = self.next_slot;
            self.next_slot = self.next_slot.next();
            let prepare = Prepare { view: self.view, slot, batch };
            // Accepting it will start the slow path: our share is signed
            // beside the PREPARE's own signature and leaves at its delivery.
            let fallback = self.cfg.path == PathMode::FastWithFallback;
            if self.cfg.path == PathMode::SlowOnly || (fallback && self.suspects_anyone()) {
                self.sign_share(prepare.clone());
            }
            if self.proposed.len() as u64 == depth {
                self.proposed.pop_front();
            }
            self.proposed.push_back(prepare.clone());
            self.emit_ctb(CtbMsg::Prepare(prepare));
        }
    }

    // ------------------------------------------------------------------
    // Proposals: hold (§5.4), accept, fast path, slow path
    // ------------------------------------------------------------------

    pub(super) fn handle_prepare(&mut self, stream: ReplicaId, prep: Prepare) {
        if stream == self.me {
            self.proposed.retain(|p| (p.view, p.slot) > (prep.view, prep.slot));
        }
        let ps = self.state.get_mut(&stream).expect("known");
        ps.prepares.insert(prep.slot, prep.clone());
        if prep.view != self.view || !self.in_open_window(prep.slot) {
            return;
        }
        // A slot accepts one PREPARE, so `held` never names an accepted slot.
        if self.slots.get(&prep.slot).is_some_and(|s| s.prepare.is_some()) {
            return;
        }
        // §5.4, in every view: endorse only requests received directly from
        // the client. No-ops are exempt, and so is the batch the leader's
        // NEW_VIEW forces for the slot — `check_valid` branded any PREPARE
        // that differs from it. A PREPARE held back has no second home: it
        // is the entry just filed under the leader's stream, and `held` only
        // remembers which slots to look at again when a request arrives.
        let new_view = self.state[&stream].new_view.as_deref();
        let forced = || new_view.is_some_and(|certs| must_propose(prep.slot, certs).is_some());
        if !self.requests.endorsed(&prep.batch) && !forced() {
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
        let (slot, unanimous) = (prep.slot, !self.suspects_anyone());
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
        let fallback = self.cfg.path == PathMode::FastWithFallback;
        let fast = fallback && unanimous && !solicited;
        let arm = fast && self.slow_sweep.start(&mut entry.fast_wait);
        if self.cfg.path != PathMode::SlowOnly {
            self.out.push(Effect::TbBroadcast(TbMsg::WillCertify { view: prep.view, slot }));
        }
        if arm {
            self.out.push(Effect::ArmTimer { kind: TimerKind::SlowSweep });
        } else if self.cfg.path != PathMode::FastOnly && !fast {
            // Slow only, or a peer is suspected or branded: the timeout
            // would only re-discover that unanimity cannot come.
            self.start_slow_path(slot);
        }
    }

    /// Starts (or resumes) the slow path for `slot`: our CERTIFY share over
    /// the accepted proposal is broadcast once it is signed, so a share
    /// still means "I accepted this PREPARE".
    pub(super) fn start_slow_path(&mut self, slot: Slot) {
        let Some(entry) = self.slots.get_mut(&slot).filter(|s| !s.sent_certify) else { return };
        let Some(prep) = entry.prepare.clone() else { return };
        match entry.shares.ours(self.me) {
            // Being signed: the signature comes back here.
            Some((_, None)) => {}
            Some((about, Some(sig))) if *about == prep => {
                entry.sent_certify = true;
                self.out.push(Effect::TbBroadcast(TbMsg::Certify { prepare: prep, sig }));
                self.maybe_commit(slot);
            }
            // None yet, or one over a proposal CTBcast did not deliver here.
            _ => self.sign_share(prep),
        }
    }

    /// Has the crypto worker sign our CERTIFY share over `prep`; it counts
    /// toward the certificate from now on ([`ShareSet::begin_own`]).
    fn sign_share(&mut self, prep: Prepare) {
        let tag = CryptoTag::SlotShare { slot: prep.slot, view: prep.view };
        let bytes = self.certify_bytes.of(&prep);
        self.slots.entry(prep.slot).or_default().shares.begin_own(self.me, prep);
        self.sign_job(tag, bytes);
    }

    /// Our CERTIFY share for `slot` in `view` is signed. It leaves if we
    /// accepted what it signs by then — or once we do; a share from a view
    /// that ended, or over what we did not accept, never leaves.
    pub(super) fn slot_share_signed(&mut self, slot: Slot, view: View, sig: Signature) {
        let Some(entry) = self.slots.get_mut(&slot).filter(|_| view == self.view) else { return };
        let Some(about) = entry.shares.ours(self.me).map(|(p, _)| p.clone()) else { return };
        entry.shares.add_own(self.me, about, sig);
        self.start_slow_path(slot);
        self.sign_commit_ahead(slot);
    }

    /// Once our share is signed and `f + 1` shares over the proposal it
    /// signs are verified or being checked — parked ones do not count —
    /// the bytes of our COMMIT are known: CTBcast is asked to sign it now,
    /// beside the checks and the PREPARE's verification, at the id it will
    /// get. Once per slot per view, and only while what our share signs is
    /// what we accepted, or nothing is accepted yet. The COMMIT still
    /// leaves only from [`Engine::maybe_commit`]; a different one, or one
    /// at another id, is signed afresh.
    fn sign_commit_ahead(&mut self, slot: Slot) {
        let quorum = self.quorum();
        let Some(s) = self.slots.get_mut(&slot) else { return };
        let Some((about, Some(_))) = s.shares.ours(self.me) else { return };
        if s.sent_commit || s.signed_ahead || s.prepare.as_ref().is_some_and(|p| p != about) {
            return;
        }
        let Some(cert) = s.shares.certificate_ahead(about, quorum) else { return };
        let prepare = about.clone();
        s.signed_ahead = true;
        let k = SeqId(self.my_ctb_sent + self.queued_ctb.len() as u64 + 1);
        self.ctb_ahead = Some((k, CtbMsg::Commit(CommitCert { prepare, cert })));
    }

    /// The fast path's sweep fired: every slot accepted before the previous
    /// firing and still undecided starts the slow path, and every replica
    /// whose WILL_COMMIT it misses is suspected. The slots accepted since
    /// are marked for the next firing: a slot waits at least one period of
    /// the sweep and less than two. One timer serves every slot, and it is
    /// armed again only while one waits.
    pub(super) fn slow_sweep(&mut self) {
        let marks = self.slots.iter_mut().map(|(k, s)| (*k, s.decided.is_none(), &mut s.fast_wait));
        let (due, waiting) = self.slow_sweep.fire(marks);
        for slot in due {
            let votes = self.slots[&slot].will_commit;
            self.suspect(self.cfg.params.replicas().filter(|r| !votes.contains(*r)));
            self.start_slow_path(slot);
        }
        if waiting {
            self.out.push(Effect::ArmTimer { kind: TimerKind::SlowSweep });
        }
    }

    /// A consensus TBcast message arrived from `from`.
    pub fn on_tb_deliver(&mut self, from: ReplicaId, msg: TbMsg) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        if self.branded(from) {
            return self.take_out();
        }
        self.heard_from(from);
        match msg {
            TbMsg::WillCertify { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return self.take_out();
                }
                let n = self.n();
                let entry = self.slots.entry(slot).or_default();
                if entry.will_certify.insert(from) && entry.will_certify.len() == n {
                    entry.promised_in = Some(view);
                    self.out.push(Effect::TbBroadcast(TbMsg::WillCommit { view, slot }));
                }
            }
            TbMsg::WillCommit { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return self.take_out();
                }
                let entry = self.slots.entry(slot).or_default();
                entry.will_commit.insert(from);
                let votes = entry.will_commit.len();
                // Algorithm 2: the signature-less fast path decides only on
                // *unanimity*. The test_decide_early mutation hook skips
                // that check so the auditor's coverage invariant can be
                // demonstrated to catch the resulting unsafe decision.
                if votes == self.n() || (self.cfg.test_decide_early && votes >= 1) {
                    let leader = self.state.get(&view.leader(self.n()));
                    if let Some(prep) = leader.and_then(|ps| ps.prepares.get(&slot)).cloned() {
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
        self.take_out()
    }

    /// A CERTIFY share arrived. It is admitted — one per signer per slot per
    /// view — whether or not its PREPARE has finished CTBcast here: the
    /// leader delivers its own proposal a verification ahead of everybody
    /// else, so its share is early at every follower, and checking it while
    /// the PREPARE is still on its way takes that check off the request's
    /// blocking chain. The signature goes to the crypto worker only while it
    /// could still complete a certificate, and counts once its
    /// [`CryptoTag::ShareCheck`] comes back `true` and the proposal it signs
    /// is the one we accepted.
    fn handle_certify_share(&mut self, from: ReplicaId, prepare: Prepare, sig: Signature) {
        let slot = prepare.slot;
        // Our own share is added where it is signed.
        if from == self.me || prepare.view != self.view || !self.in_open_window(slot) {
            return;
        }
        let (slow, leader) = (self.cfg.path != PathMode::FastOnly, self.leader());
        let entry = self.slots.entry(slot).or_default();
        let accepted = entry.prepare.is_some();
        let early = (slow && !accepted && from == leader).then(|| prepare.clone());
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
        if accepted && slow {
            self.start_slow_path(slot);
        }
        // The leader's share, early here: ours over the proposal it carries
        // is signed while the PREPARE is still being verified — queued
        // ahead of the check, so that it takes the free worker first: the
        // COMMIT's signature waits for it, and not for the check.
        if let Some(prep) = early {
            self.sign_share(prep);
        }
        self.check_parked(ShareOf::Slot { slot, view: self.view });
        self.sign_commit_ahead(slot);
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
        let bytes = self.certify_bytes.of(&prepare);
        self.note_own_cert(&cert, &bytes, slot);
        self.emit_ctb(CtbMsg::Commit(CommitCert { prepare, cert }));
        self.check_seal_ready();
    }

    pub(super) fn handle_commit(&mut self, stream: ReplicaId, c: CommitCert) {
        let slot = c.prepare.slot;
        self.state.get_mut(&stream).expect("known").commits.insert(slot, c.clone());
        if !self.in_open_window(slot) {
            return;
        }
        let current = c.prepare.view == self.view;
        if current {
            let entry = self.slots.entry(slot).or_default();
            match &entry.prepare {
                // A conflicting commit; the view change will sort it out.
                Some(ours) if *ours != c.prepare => return,
                Some(_) => {}
                // Accepted from its COMMIT: a PREPARE held for the slot
                // waits no more.
                None => {
                    entry.prepare = Some(c.prepare.clone());
                    self.held.remove(&slot);
                }
            }
        }
        // f+1 streams carrying a COMMIT for one proposal decide it
        // (Algorithm 2 lines 38–41). A decided proposal stays decided after
        // we left its view: its COMMITs decide it as they would have in its
        // view — a stream's valid COMMITs of a view precede its SEAL of the
        // next.
        let carried = self.state.values().map(|ps| ps.commits.get(&slot));
        let commits = carried.filter(|o| o.is_some_and(|o| o.prepare == c.prepare)).count();
        if commits >= self.quorum() || (self.cfg.test_decide_early && current) {
            self.decide(slot, c.prepare.batch, DecisionEvidence::CommitQuorum { commits });
        }
    }

    // ------------------------------------------------------------------
    // Decision and execution
    // ------------------------------------------------------------------

    pub(super) fn decide(&mut self, slot: Slot, batch: Batch, evidence: DecisionEvidence) {
        let full = self.in_flight_slots() >= self.cfg.pipeline_depth.max(1) as u64;
        let view = self.view;
        let base = self.checkpoint.data.base;
        let record = self.cfg.record_decisions;
        let entry = self.slots.entry(slot).or_default();
        if entry.decided.is_some() {
            return;
        }
        if record {
            let batch_digest = batch.digest();
            self.decisions.push(DecisionRecord { slot, view, batch_digest, base, evidence });
        }
        // `decide_count` counts individual requests, not slots, so batching
        // leaves the progress-watchdog and throughput accounting comparable
        // across batch sizes.
        self.decide_count += batch.len() as u64;
        entry.decided = Some(batch);
        self.echo_wait |= full;
        self.vc_streak = 0;
        self.try_execute();
        // Executed slots leave the pipeline; the gate may have reopened.
        self.propose_ready();
    }

    pub(super) fn try_execute(&mut self) {
        loop {
            // Checkpoint every `window` executed slots (Algorithm 2 line
            // 44), and where a seal needs one. The snapshot is taken at
            // exactly the boundary: execution pauses there, the driver
            // answers `RequestSnapshot` in effect order, and `on_snapshot`
            // resumes — so the certified dedup table is the one after slot
            // `base - 1` on every replica, however many decided slots one
            // call finds beyond it.
            if self.snapshot_pending.is_some() {
                return;
            }
            let boundary = self.next_snapshot();
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

#[cfg(test)]
mod tests;
