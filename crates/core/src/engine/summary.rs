//! Algorithm 4: CTBcast summaries. Every `summary_half` messages of a
//! stream its receivers sign a synopsis of what the stream established;
//! `f + 1` matching shares let the broadcaster run on (the CTBcast gate)
//! and let a receiver that lost part of the tail resume FIFO
//! interpretation from the certified synopsis.

use ubft_crypto::{Certificate, Digest, Signature};
use ubft_types::{ReplicaId, SeqId};

use super::stream::PeerState;
use super::{CryptoTag, Effect, Engine, ShareOf};
use crate::msg::{summary_sign_bytes, CtbMsg, DirectMsg, StateSummary, TbMsg};

impl PeerState {
    pub(super) fn summary(&self) -> StateSummary {
        // A bounded synopsis: the latest commits are the only ones that can
        // still matter (older open slots are decided/checkpointed before the
        // window advances); bounding them keeps summaries and view-change
        // certificates within one transport slot. DESIGN.md §7 records this
        // as a deviation from the unbounded pseudocode.
        const SUMMARY_COMMIT_CAP: usize = 4;
        let skip = self.commits.len().saturating_sub(SUMMARY_COMMIT_CAP);
        StateSummary {
            checkpoint: Some(self.checkpoint.clone()),
            commits: self.commits.iter().skip(skip).map(|(s, c)| (*s, c.clone())).collect(),
        }
    }

    fn apply_summary(&mut self, s: &StateSummary) {
        if let Some(cp) = &s.checkpoint {
            if cp.supersedes(&self.checkpoint) {
                self.checkpoint = cp.clone();
            }
        }
        for (slot, c) in &s.commits {
            self.commits.insert(*slot, c.clone());
        }
    }
}

impl Engine {
    // ------------------------------------------------------------------
    // CTBcast emission with summary gating (Algorithm 4 lines 4–9)
    // ------------------------------------------------------------------

    fn ctb_gate_open(&self) -> bool {
        // A joining replacement must not broadcast before it has adopted
        // its own stream's cursor: an id below what peers already
        // interpreted would be dropped as a duplicate forever. Everything
        // queues until the join completes and flushes.
        if self.join.is_some() {
            return false;
        }
        // May run at most `t` messages past the last summarized boundary —
        // the CTBcast tail is the hard budget. With summaries triggered
        // every `t/2` (the default), the next summary is already being
        // collected while the second half of the budget is spent (double
        // buffering, §5.2 footnote 3); triggering only every `t` makes the
        // broadcaster stall at each boundary for a full summary round-trip.
        self.my_ctb_sent < self.summary_done_upto + self.cfg.params.tail as u64
    }

    pub(super) fn emit_ctb(&mut self, msg: CtbMsg) {
        if self.ctb_gate_open() && self.queued_ctb.is_empty() {
            self.my_ctb_sent += 1;
            self.out.push(Effect::CtbBroadcast(msg));
        } else {
            self.queued_ctb.push_back(msg);
        }
    }

    pub(super) fn flush_ctb_queue(&mut self) {
        while !self.queued_ctb.is_empty() && self.ctb_gate_open() {
            let msg = self.queued_ctb.pop_front().expect("nonempty");
            self.my_ctb_sent += 1;
            self.out.push(Effect::CtbBroadcast(msg));
        }
    }

    // ------------------------------------------------------------------
    // Certifying a boundary (Algorithm 4 lines 1–3)
    // ------------------------------------------------------------------

    /// `stream` crossed the boundary `upto`: attest what it established so
    /// far (Algorithm 4 line 1). Signing is a job: the share leaves (or, on
    /// our own stream, starts the collection) when its completion arrives,
    /// and the message that crossed the boundary is not held up by it.
    pub(super) fn sign_summary_share(&mut self, stream: ReplicaId, upto: SeqId) {
        let digest = self.state.get(&stream).expect("known").summary().digest();
        if stream == self.me && upto.0 > self.summary_done_upto {
            self.summary_shares.entry(upto.0).or_default().begin_own(self.me, digest);
        }
        let bytes = summary_sign_bytes(stream, upto, &digest);
        self.sign_job(CryptoTag::SummaryShare { stream, upto, digest }, bytes);
    }

    /// Our share over `stream`'s summary at `upto` is signed: send it to
    /// the broadcaster, or count it if that is us.
    pub(super) fn summary_share_signed(
        &mut self,
        stream: ReplicaId,
        upto: SeqId,
        digest: Digest,
        sig: Signature,
    ) {
        if stream != self.me {
            let msg = DirectMsg::CertifySummary { stream, upto, digest, sig };
            self.out.push(Effect::SendReplica { to: stream, msg });
        } else if upto.0 > self.summary_done_upto {
            self.summary_shares.entry(upto.0).or_default().add_own(self.me, digest, sig);
            self.try_certify_summary(upto);
        }
    }

    /// A `CERTIFY_SUMMARY` share about our own stream arrived: reject what
    /// is cheap to reject, then hand the signature to the crypto worker.
    /// The share counts only once its [`CryptoTag::ShareCheck`] comes back
    /// `true`.
    pub(super) fn on_certify_summary(
        &mut self,
        from: ReplicaId,
        stream: ReplicaId,
        upto: SeqId,
        digest: Digest,
        sig: Signature,
    ) {
        // Our own share arrives as a sign completion, never as a message.
        if stream != self.me || from == self.me {
            return;
        }
        // Only a boundary we crossed and have not certified yet. Together
        // with one share per signer this bounds `summary_shares` and the
        // verifications a Byzantine peer can make us pay for.
        if upto.0 <= self.summary_done_upto
            || upto.0 > self.my_ctb_sent
            || !upto.0.is_multiple_of(self.cfg.summary_half)
        {
            return;
        }
        if self.summary_shares.entry(upto.0).or_default().admit(from, digest, sig) {
            self.check_parked(ShareOf::Summary { upto });
        }
    }

    /// Completes the summary at `upto` once `f + 1` verified shares agree
    /// on its digest: broadcast it and reopen the CTBcast gate.
    pub(super) fn try_certify_summary(&mut self, upto: SeqId) {
        let quorum = self.quorum();
        let agreed = self.summary_shares.get(&upto.0).and_then(|s| s.agreed(quorum));
        if let Some((_, cert)) = agreed {
            self.summary_done_upto = upto.0;
            self.summary_shares.retain(|k, _| *k > upto.0);
            let summary = self.state.get(&self.me).expect("self").summary();
            self.out.push(Effect::TbBroadcast(TbMsg::Summary { upto, summary, cert }));
            self.flush_ctb_queue();
        }
    }

    // ------------------------------------------------------------------
    // Filling a FIFO gap from a certified summary (Algorithm 4 lines 11–15)
    // ------------------------------------------------------------------

    /// Most gap-filling summaries of one stream verified at a time. Beyond
    /// it the oldest parked one is forgotten (its completion becomes a
    /// no-op; a newer summary covers it), so a flooding Byzantine
    /// broadcaster cannot grow `summary_checks`.
    const SUMMARY_CHECK_CAP: usize = 4;

    /// A broadcaster announced the certified summary of its stream up to
    /// `upto`. Only a replica with a FIFO gap at or before `upto` needs it
    /// — on a fault-free run nobody does, and then nothing is verified.
    pub(super) fn handle_summary(
        &mut self,
        from: ReplicaId,
        upto: SeqId,
        summary: StateSummary,
        cert: Certificate,
    ) {
        let ps = self.state.get(&from).expect("known");
        if ps.fifo_next > upto || ps.parked.is_some() {
            // No gap to fill — a parked head is held, not missing, and
            // skipping it would throw away the messages queued behind it.
            return;
        }
        if self.summary_checks.contains_key(&(from, upto)) {
            return; // already verifying one for this boundary
        }
        let of_stream = (from, SeqId(0))..=(from, SeqId(u64::MAX));
        if self.summary_checks.range(of_stream.clone()).count() >= Self::SUMMARY_CHECK_CAP {
            let oldest = *self.summary_checks.range(of_stream).next().expect("counted").0;
            self.summary_checks.remove(&oldest);
        }
        let bytes = summary_sign_bytes(from, upto, &summary.digest());
        self.summary_checks.insert((from, upto), summary);
        self.check_cert(CryptoTag::SummaryCert { stream: from, upto }, cert, bytes);
    }

    /// The certificate job of the gap-filling summary of `stream` at `upto`
    /// came back: if it checked out, adopt the certified state and resume
    /// FIFO interpretation after `upto` (Algorithm 4 lines 11–15).
    pub(super) fn summary_cert_checked(&mut self, stream: ReplicaId, upto: SeqId, ok: bool) {
        let Some(summary) = self.summary_checks.remove(&(stream, upto)).filter(|_| ok) else {
            return;
        };
        if self.byzantine.contains(&stream) {
            return;
        }
        let ps = self.state.get_mut(&stream).expect("known");
        if ps.fifo_next > upto {
            return; // the gap closed while the certificate was checked
        }
        ps.apply_summary(&summary);
        ps.fifo_next = upto.next();
        ps.pending.retain(|k, _| *k > upto);
        ps.parked = None; // a head parked since the check began is covered
        let cp = ps.checkpoint.clone();
        self.adopt_checkpoint(cp);
        self.drain_pending(stream);
    }
}
