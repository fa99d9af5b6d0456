//! Algorithm 5: every CTBcast stream is interpreted strictly in FIFO order
//! and each message is validated against what the stream said before; a
//! detectably Byzantine stream is blocked for good. Also the one case in
//! which interpretation waits — a `CHECKPOINT` whose certificate is not
//! proven yet parks the head of its stream.

use std::collections::{BTreeMap, BTreeSet};

use ubft_types::{ReplicaId, SeqId, Slot, View};

use super::checkpoint::open_end;
use super::{must_propose, CryptoTag, Effect, Engine, Standing};
use crate::msg::{vc_sign_bytes, CheckpointCert, CommitCert, CtbMsg, Prepare, VcCert};

/// Per-peer consensus bookkeeping (Algorithm 2 lines 7–12), interpreted
/// strictly in CTBcast-FIFO order, and what this replica holds of the peer.
#[derive(Clone, Debug)]
pub(super) struct PeerState {
    pub(super) standing: Standing,
    pub(super) view: View,
    pub(super) seal_view: Option<View>,
    pub(super) new_view: Option<Vec<VcCert>>,
    pub(super) prepares: BTreeMap<Slot, Prepare>,
    pub(super) commits: BTreeMap<Slot, CommitCert>,
    pub(super) checkpoint: CheckpointCert,
    /// Next CTBcast id expected from this peer (FIFO interpretation).
    pub(super) fifo_next: SeqId,
    /// Out-of-order CTBcast deliveries awaiting their predecessors.
    pub(super) pending: BTreeMap<SeqId, CtbMsg>,
    /// Set while the message at `fifo_next` — kept in `pending` — is a
    /// `CHECKPOINT` whose certificate is not proven yet. Interpretation of
    /// this stream, and of this stream only, waits for the proof.
    pub(super) parked: Option<AwaitedProof>,
}

/// What will prove the certificate of a parked `CHECKPOINT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum AwaitedProof {
    /// Our own certification of the same data, which is under way.
    OwnCertification,
    /// A [`CryptoTag::CheckpointCert`] job.
    Job,
}

impl PeerState {
    pub(super) fn new() -> Self {
        PeerState {
            standing: Standing::Trusted,
            view: View(0),
            seal_view: None,
            new_view: None,
            prepares: BTreeMap::new(),
            commits: BTreeMap::new(),
            checkpoint: CheckpointCert::genesis(),
            fifo_next: SeqId(1),
            pending: BTreeMap::new(),
            parked: None,
        }
    }

    /// The slots this peer may prepare and commit: those the checkpoint
    /// last seen on its stream opens ([`open_end`]).
    pub(super) fn open_window(&self, window: usize) -> (Slot, Slot) {
        let base = self.checkpoint.data.base;
        (base, open_end(base, window))
    }

    fn in_window(&self, slot: Slot, window: usize) -> bool {
        let (lo, hi) = self.open_window(window);
        slot >= lo && slot < hi
    }
}

impl Engine {
    /// A CTBcast message `(k, msg)` was delivered from `stream`.
    pub fn on_ctb_deliver(&mut self, stream: ReplicaId, k: SeqId, msg: CtbMsg) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        if self.branded(stream) {
            return self.take_out();
        }
        let ps = self.state.get_mut(&stream).expect("known replica");
        if k < ps.fifo_next {
            return self.take_out(); // duplicate
        }
        if k > ps.fifo_next || ps.parked.is_some() {
            // A gap (wait for predecessors or a summary), or the head
            // of the stream is parked: FIFO interpretation is strict,
            // so everything behind it waits too.
            ps.pending.insert(k, msg);
            return self.take_out();
        }
        self.process_ctb_in_order(stream, k, msg);
        self.drain_pending(stream);
        self.take_out()
    }

    /// CTBcast reported proof of equivocation on `stream` at sequence `k`.
    pub fn on_ctb_equivocation(&mut self, stream: ReplicaId, k: SeqId) -> Vec<Effect> {
        self.brand_byzantine(stream, Some(k), format!("ctbcast equivocation at k={}", k.0));
        self.take_out()
    }

    /// Brands `who` on proof, for good; `at` is the CTBcast id of an
    /// equivocation. Only the first proof per peer is kept: it is the
    /// evidence an operator wants, and later ones add nothing (the stream
    /// is already blocked).
    fn brand_byzantine(&mut self, who: ReplicaId, at: Option<SeqId>, reason: String) {
        let ps = self.state.get_mut(&who).expect("known replica");
        if who != self.me && !matches!(ps.standing, Standing::Branded(_)) {
            ps.standing = Standing::Branded(at);
            self.out.push(Effect::ByzantineDetected { replica: who, reason });
        }
    }

    /// Whether `who` is branded: nothing it says counts.
    pub(super) fn branded(&self, who: ReplicaId) -> bool {
        self.state.get(&who).is_some_and(|ps| matches!(ps.standing, Standing::Branded(_)))
    }

    /// A consensus frame, an echo or a join came from `who`: a suspicion of
    /// silence ends, a brand does not.
    pub(super) fn heard_from(&mut self, who: ReplicaId) {
        if let Some(ps) = self.state.get_mut(&who).filter(|ps| ps.standing == Standing::Suspected) {
            ps.standing = Standing::Trusted;
        }
    }

    pub(super) fn drain_pending(&mut self, stream: ReplicaId) {
        loop {
            if self.branded(stream) {
                return;
            }
            let ps = self.state.get_mut(&stream).expect("known");
            if ps.parked.is_some() {
                return;
            }
            let k = ps.fifo_next;
            let Some(msg) = ps.pending.remove(&k) else { return };
            self.process_ctb_in_order(stream, k, msg);
        }
    }

    fn process_ctb_in_order(&mut self, stream: ReplicaId, k: SeqId, msg: CtbMsg) {
        // A CHECKPOINT whose certificate is not proven yet waits at the
        // head of its stream, and only this stream waits with it: its
        // cursor stays put and later ids pile up in `pending`.
        if let CtbMsg::Checkpoint(c) = &msg {
            let fresh = c.supersedes(&self.state.get(&stream).expect("known").checkpoint);
            if fresh && !self.verified_cp_data.contains(&c.data) {
                let proof = self.seek_checkpoint_proof(stream, k, c);
                let ps = self.state.get_mut(&stream).expect("known");
                ps.parked = Some(proof);
                ps.pending.insert(k, msg);
                return;
            }
        }
        let ps = self.state.get_mut(&stream).expect("known");
        debug_assert_eq!(ps.fifo_next, k);
        ps.fifo_next = k.next();
        // Algorithm 5 validity checks; a failure brands the stream.
        if let Err(reason) = self.check_valid(stream, &msg) {
            self.brand_byzantine(stream, None, reason);
            return;
        }
        match msg {
            CtbMsg::Prepare(p) => self.handle_prepare(stream, p),
            CtbMsg::Commit(c) => self.handle_commit(stream, c),
            CtbMsg::Checkpoint(c) => self.handle_checkpoint_msg(stream, c),
            CtbMsg::SealView { view } => self.handle_seal_view(stream, view),
            CtbMsg::NewView { view, certs } => self.handle_new_view(stream, view, certs),
        }
        // Algorithm 4 line 1: a summary share at every boundary.
        if k.0.is_multiple_of(self.cfg.summary_half) {
            self.sign_summary_share(stream, k);
        }
    }

    fn check_valid(&mut self, p: ReplicaId, msg: &CtbMsg) -> Result<(), String> {
        let window = self.window();
        let ps = self.state.get(&p).expect("known");
        match msg {
            CtbMsg::Prepare(prep) => {
                if prep.view.leader(self.n()) != p {
                    return Err(format!("prepare by non-leader of {}", prep.view));
                }
                if ps.view != prep.view {
                    return Err(format!("prepare in {} but peer is in {}", prep.view, ps.view));
                }
                if !ps.in_window(prep.slot, window) {
                    return Err(format!("prepare for {} outside window", prep.slot));
                }
                if ps.prepares.get(&prep.slot).is_some_and(|old| old.view == prep.view) {
                    return Err(format!("double prepare for {}", prep.slot));
                }
                if prep.view > View(0) {
                    let Some(certs) = ps.new_view.clone() else {
                        return Err("prepare before new-view".into());
                    };
                    if let Some(required) = must_propose(prep.slot, &certs) {
                        if required.digest() != prep.batch.digest() {
                            return Err(format!(
                                "prepare for {} ignores committed value",
                                prep.slot
                            ));
                        }
                    }
                }
                Ok(())
            }
            CtbMsg::Commit(c) => {
                if !ps.in_window(c.prepare.slot, window) {
                    return Err(format!("commit for {} outside window", c.prepare.slot));
                }
                if c.prepare.view != ps.view {
                    return Err(format!("commit in stale {}", c.prepare.view));
                }
                // The certificate itself: f+1 valid signatures over the
                // prepare. Verified lazily unless we certified it ourselves
                // — checked f+1 shares over this very proposal one by one.
                let own = self
                    .slots
                    .get(&c.prepare.slot)
                    .is_some_and(|s| s.shares.verified(&c.prepare).count() >= self.quorum());
                if !own {
                    let bytes = self.certify_bytes.of(&c.prepare);
                    if !self.verify_cert(&c.cert, &bytes, c.prepare.slot) {
                        return Err("commit with invalid certificate".into());
                    }
                }
                Ok(())
            }
            CtbMsg::Checkpoint(c) => {
                if !c.supersedes(&ps.checkpoint) {
                    return Err("stale checkpoint".into());
                }
                // Its certificate was proven before it got here
                // (`process_ctb_in_order` parks an unproven one).
                debug_assert!(self.verified_cp_data.contains(&c.data));
                Ok(())
            }
            CtbMsg::SealView { view } => {
                if ps.view >= *view {
                    return Err(format!("seal of non-future {view}"));
                }
                Ok(())
            }
            CtbMsg::NewView { view, certs } => {
                if view.leader(self.n()) != p {
                    return Err(format!("new-view by non-leader of {view}"));
                }
                if ps.view != *view {
                    return Err("new-view for wrong view".into());
                }
                if ps.new_view.is_some() {
                    return Err("duplicate new-view".into());
                }
                if certs.len() < self.quorum() {
                    return Err("new-view with too few certificates".into());
                }
                let mut seen = BTreeSet::new();
                for c in certs {
                    if !seen.insert(c.about) {
                        return Err("new-view with duplicate certificate subject".into());
                    }
                    let digest = c.summary.digest();
                    let bytes = vc_sign_bytes(*view, c.about, &digest);
                    if !self.verify_cert(&c.cert, &bytes, self.checkpoint.data.base) {
                        return Err("new-view with invalid certificate".into());
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // The parked head: a CHECKPOINT waiting for the proof of its certificate
    // ------------------------------------------------------------------

    /// Finds what will prove the certificate of `c`, the unproven
    /// `CHECKPOINT` at the head of `stream`: our own certification if it is
    /// collecting shares over the same data (the common case — it costs
    /// nothing more), otherwise a job on the certificate itself.
    fn seek_checkpoint_proof(
        &mut self,
        stream: ReplicaId,
        k: SeqId,
        c: &CheckpointCert,
    ) -> AwaitedProof {
        if self.certifying(&c.data) {
            return AwaitedProof::OwnCertification;
        }
        self.check_cert(
            CryptoTag::CheckpointCert { stream, k },
            c.cert.clone(),
            c.data.sign_bytes().into(),
        );
        AwaitedProof::Job
    }

    /// Looks at every parked stream again after the proofs changed (a
    /// checkpoint was adopted, a certificate job came back): a stream whose
    /// `CHECKPOINT` is proven resumes, and one that waited for our own
    /// certification falls back to a job if that ended on other data — no
    /// stream stays parked on a proof that cannot come.
    pub(super) fn recheck_parked_streams(&mut self) {
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            let ps = self.state.get(&stream).expect("known");
            let (Some(proof), Some(CtbMsg::Checkpoint(c))) =
                (ps.parked, ps.pending.get(&ps.fifo_next))
            else {
                continue;
            };
            if self.verified_cp_data.contains(&c.data) {
                self.state.get_mut(&stream).expect("known").parked = None;
                self.drain_pending(stream);
            } else if proof == AwaitedProof::OwnCertification && !self.certifying(&c.data) {
                let (k, c) = (ps.fifo_next, c.clone());
                let proof = self.seek_checkpoint_proof(stream, k, &c);
                self.state.get_mut(&stream).expect("known").parked = Some(proof);
            }
        }
    }

    /// The certificate job of the `CHECKPOINT` parked at `stream`'s id `k`
    /// came back: proven data releases every stream parked on it, a forged
    /// certificate brands the broadcaster.
    pub(super) fn checkpoint_cert_checked(&mut self, stream: ReplicaId, k: SeqId, ok: bool) {
        let ps = self.state.get_mut(&stream).expect("known");
        if ps.parked != Some(AwaitedProof::Job) || ps.fifo_next != k {
            return; // released by another proof, or skipped by a summary
        }
        let Some(CtbMsg::Checkpoint(c)) = ps.pending.get(&k) else {
            return;
        };
        if !ok {
            ps.parked = None;
            ps.pending.remove(&k);
            self.brand_byzantine(stream, None, "checkpoint with invalid certificate".into());
            return;
        }
        self.verified_cp_data.insert(c.data);
        self.recheck_parked_streams();
    }
}
