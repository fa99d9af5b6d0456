//! Algorithm 3, the view change: the progress watchdog, discharging
//! WILL_COMMIT promises and sealing, `CRTFY_VC` shares toward the incoming
//! leader's `NEW_VIEW`, and the constrained re-proposals that carry applied
//! requests into the new view.

use std::collections::BTreeMap;

use ubft_crypto::Signature;
use ubft_types::{ReplicaId, Slot, View};

use super::{Effect, Engine, TimerKind};
use crate::msg::{
    vc_sign_bytes, Batch, CommitCert, CtbMsg, DirectMsg, Prepare, StateSummary, VcCert,
};

impl Engine {
    /// The progress watchdog fired.
    pub(super) fn progress_timeout(&mut self) {
        if self.join.is_some() {
            return self.join_progress_timeout();
        }
        let stuck = self.has_pending_work() && self.decide_count == self.armed_marker;
        if stuck {
            self.change_view();
        }
        self.armed_marker = self.decide_count;
        self.out.push(Effect::ArmTimer { kind: TimerKind::Progress });
    }

    /// A leader leaves out a request fewer than `f` followers vouched for
    /// by their echoes: it will not propose that one ([`Engine::echo_sweep`]),
    /// and a view change is no remedy for a client that sent it to the
    /// leader alone.
    pub(super) fn has_pending_work(&self) -> bool {
        let vouched = if self.is_leader() { self.quorum() - 1 } else { 0 };
        self.requests.has_pending(vouched)
            || self.slots.values().any(|s| s.prepare.is_some() && s.decided.is_none())
    }

    /// Multiplier for the progress-watchdog period: doubles with every
    /// fruitless view change so slow (signature-bound) view changes get time
    /// to finish before the next one starts, as in PBFT.
    pub fn progress_backoff(&self) -> u32 {
        1 << self.vc_streak.min(6)
    }

    fn change_view(&mut self) {
        if self.sealing.is_some() {
            // Still sealing a watchdog period later: the seal checkpoint has
            // not come (no peer seals beside us, or all executed past it).
            // The promises it was to discharge take the slow path after all.
            return self.discharge_by_slow_path(Slot(0));
        }
        self.vc_streak = self.vc_streak.saturating_add(1);
        self.sealing = Some(self.view.next());
        // Algorithm 3 lines 4–5: discharge WILL_COMMIT promises before
        // sealing — those on slots we executed all at once, by a checkpoint
        // at `exec_next` (`checkpoint.rs`), the rest by the slow path.
        let exec_next = self.exec_next;
        if self.undischarged_promises().any(|slot| slot < exec_next) {
            self.snapshot_for_seal();
        }
        self.discharge_by_slow_path(exec_next);
    }

    /// Runs the slow path for every undischarged promise at or above `from`.
    fn discharge_by_slow_path(&mut self, from: Slot) {
        for slot in self.undischarged_promises().filter(|s| *s >= from).collect::<Vec<_>>() {
            self.start_slow_path(slot);
        }
        self.check_seal_ready();
    }

    /// Slots with an outstanding WILL_COMMIT promise of this view, which
    /// block our SEAL_VIEW until their COMMIT is out.
    pub(super) fn undischarged_promises(&self) -> impl Iterator<Item = Slot> + '_ {
        self.slots
            .iter()
            .filter(move |(_, s)| s.promised_in == Some(self.view) && !s.sent_commit)
            .map(|(slot, _)| *slot)
    }

    pub(super) fn check_seal_ready(&mut self) {
        let Some(next) = self.sealing else { return };
        if self.undischarged_promises().next().is_some() {
            return;
        }
        // Seal: enter the next view, suspecting the leader of the one we
        // leave — its silence is what ended it. Until a frame from it clears
        // that, the next view's slots and broadcasts start the slow path at
        // once instead of timing out on it again.
        self.suspect([self.leader()]);
        self.view = next;
        self.sealing = None;
        self.out.push(Effect::ViewChanged { view: self.view });
        self.announce_seal(next);
        self.reecho_outstanding();
        self.slots_enter_view();
    }

    /// Announces `view` on our own stream, once, however we entered it:
    /// peers accept our NEW_VIEW, and our COMMITs in `view`, only after our
    /// stream carried its seal.
    fn announce_seal(&mut self, view: View) {
        if self.seal_emitted < view {
            self.seal_emitted = view;
            self.emit_ctb(CtbMsg::SealView { view });
        }
    }

    pub(super) fn handle_seal_view(&mut self, stream: ReplicaId, view: View) {
        let ps = self.state.get_mut(&stream).expect("known");
        ps.seal_view = Some(view);
        ps.view = view;
        ps.new_view = None;
        // Line 11: certify the sealer's state to the new leader.
        let summary = ps.summary();
        let digest = summary.digest();
        let sig = self.sign(&vc_sign_bytes(view, stream, &digest));
        let leader = view.leader(self.n());
        if leader == self.me {
            self.certify_vc(self.me, view, stream, summary, sig);
        } else {
            let msg = DirectMsg::CertifyVc { view, about: stream, summary, sig };
            self.out.push(Effect::SendReplica { to: leader, msg });
        }
        // Follow the majority into the new view: if we observe a quorum of
        // seals for views above ours, join them.
        let seals =
            self.state.values().filter(|ps| ps.seal_view.is_some_and(|v| v > self.view)).count();
        if seals >= self.quorum() && self.sealing.is_none() && view > self.view {
            self.change_view();
        }
    }

    /// A `CRTFY_VC` share arrived (we are, or will be, the leader of
    /// `view`). One share per signer per `(view, about)` is admitted, and
    /// only then verified — inline: view-change crypto is ordered.
    pub(super) fn certify_vc(
        &mut self,
        from: ReplicaId,
        view: View,
        about: ReplicaId,
        summary: StateSummary,
        sig: Signature,
    ) {
        if view.leader(self.n()) != self.me || view < self.view {
            return;
        }
        // Shares for views we can no longer lead are dead weight.
        self.vc_shares.retain(|(v, _), _| *v >= self.view);
        let shares = self.vc_shares.entry((view, about)).or_default();
        if from == self.me {
            shares.add_own(from, summary, sig);
        } else {
            let bytes = vc_sign_bytes(view, about, &summary.digest());
            if !shares.admit(from, summary, sig) {
                return;
            }
            let ok = self.verify(from, &bytes, &sig);
            let shares = self.vc_shares.get_mut(&(view, about)).expect("just admitted");
            if !shares.settle(from, ok) {
                return;
            }
        }
        // Line 13: f+1 matching shares about f+1 distinct replicas, all
        // signed for exactly this view.
        let quorum = self.quorum();
        let complete: Vec<VcCert> = self
            .vc_shares
            .iter()
            .filter(|((v, _), _)| *v == view)
            .filter_map(|((_, about), shares)| {
                let (summary, cert) = shares.agreed(quorum)?;
                Some(VcCert { about: *about, summary: summary.clone(), cert })
            })
            .collect();
        if complete.len() >= quorum && self.new_view_broadcast != Some(view) && view >= self.view {
            self.enter_view_as_leader(view, complete);
        }
    }

    fn enter_view_as_leader(&mut self, view: View, certs: Vec<VcCert>) {
        let entered = self.view == view;
        self.view = view;
        self.sealing = None;
        self.new_view_broadcast = Some(view);
        if !entered {
            self.out.push(Effect::ViewChanged { view });
        }
        // A leader may reach this point on collected certificates alone,
        // without having sealed the view itself (its own watchdog never
        // fired): the seal goes out before the NEW_VIEW.
        self.announce_seal(view);
        self.emit_ctb(CtbMsg::NewView { view, certs: certs.clone() });
        // Line 16: adopt the highest checkpoint in the certificates.
        self.adopt_highest_checkpoint(&certs);
        let base = self.checkpoint.data.base;
        for c in &certs {
            self.note_own_cert(&c.cert, &vc_sign_bytes(view, c.about, &c.summary.digest()), base);
        }
        // Lines 17–19: re-propose constrained slots across the open window,
        // up to the highest slot any certificate committed.
        let committed = highest_view_per_slot(commits_of(&certs));
        self.vc_shares.clear();
        if let Some((hi, _)) = committed.last_key_value() {
            for s in base.0..=hi.0 {
                let slot = Slot(s);
                if self.slots.get(&slot).is_some_and(|st| st.decided.is_some()) {
                    continue;
                }
                let batch = match committed.get(&slot) {
                    Some(c) => c.prepare.batch.clone(),
                    None => Batch::noop(slot),
                };
                self.emit_ctb(CtbMsg::Prepare(Prepare { view, slot, batch }));
                self.next_slot = self.next_slot.max(slot.next());
            }
        }
        self.next_slot = self.next_slot.max(base);
        // Never propose into slots already occupied locally.
        let mut occupied =
            self.slots.iter().filter(|(_, s)| s.prepare.is_some() || s.decided.is_some());
        if let Some((hi, _)) = occupied.next_back() {
            self.next_slot = self.next_slot.max(hi.next());
        }
        // Adopt responsibility for every request still outstanding.
        self.requests.queue_outstanding();
        self.propose_ready();
    }

    /// Adopts the highest checkpoint the certificates of a `NEW_VIEW` carry
    /// (Algorithm 3 line 16).
    fn adopt_highest_checkpoint(&mut self, certs: &[VcCert]) {
        let highest =
            certs.iter().filter_map(|c| c.summary.checkpoint.clone()).max_by_key(|cp| cp.data.base);
        if let Some(cp) = highest {
            self.adopt_checkpoint(cp);
        }
    }

    /// In a new view every outstanding request is the new leader's to
    /// propose: the leader queues its own, a follower echoes its own again.
    fn reecho_outstanding(&mut self) {
        if self.is_leader() {
            self.requests.queue_outstanding();
            self.propose_ready();
        } else {
            let to = self.leader();
            for id in self.requests.outstanding() {
                let req = self.requests.get(id).expect("outstanding requests are held");
                self.out.push(Effect::SendReplica { to, msg: DirectMsg::Echo { req } });
            }
        }
    }

    pub(super) fn handle_new_view(&mut self, stream: ReplicaId, view: View, certs: Vec<VcCert>) {
        self.state.get_mut(&stream).expect("known").new_view = Some(certs.clone());
        // Line 23: catch up to the new view.
        if self.view < view {
            self.view = view;
            self.sealing = None;
            self.out.push(Effect::ViewChanged { view });
            self.slots_enter_view();
        }
        // A replica that adopted the view from here announces it too, or
        // its peers brand its first COMMIT in it `commit in stale`.
        self.announce_seal(view);
        self.adopt_highest_checkpoint(&certs);
        self.reecho_outstanding();
    }
}

/// Highest view wins per slot: of several COMMITs for one slot, the one
/// from the highest view is the one to believe — a later view's leader
/// re-proposed under the constraint below, so its COMMIT carries whatever
/// an earlier view may have decided. One COMMIT per slot of `commits`.
pub(super) fn highest_view_per_slot<'a>(
    commits: impl Iterator<Item = (Slot, &'a CommitCert)>,
) -> BTreeMap<Slot, &'a CommitCert> {
    let mut best: BTreeMap<Slot, &CommitCert> = BTreeMap::new();
    for (slot, c) in commits {
        if best.get(&slot).is_none_or(|held| c.prepare.view > held.prepare.view) {
            best.insert(slot, c);
        }
    }
    best
}

/// Algorithm 3 lines 25–27: the request batch the new leader is forced to
/// propose for `slot`, if any certificate carries a COMMIT for it (highest
/// view wins). Batches survive view changes whole — a partially re-proposed
/// batch would change the slot's digest and violate agreement.
pub fn must_propose(slot: Slot, certs: &[VcCert]) -> Option<Batch> {
    let of_slot = commits_of(certs).filter(|(s, _)| *s == slot);
    highest_view_per_slot(of_slot).remove(&slot).map(|c| c.prepare.batch.clone())
}

/// Every COMMIT the certificates of a `NEW_VIEW` carry, with its slot.
fn commits_of(certs: &[VcCert]) -> impl Iterator<Item = (Slot, &CommitCert)> {
    certs.iter().flat_map(|c| &c.summary.commits).map(|(slot, c)| (*slot, c))
}
