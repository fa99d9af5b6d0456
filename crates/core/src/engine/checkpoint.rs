//! Consensus checkpoints (Algorithm 2 lines 44–47): every `window` executed
//! slots the replicas certify a snapshot, and the certified checkpoint is
//! what moves the window of open slots and lets per-slot and per-request
//! state go — finite memory. Certification runs in the background, one
//! window behind the slots being filled ([`open_end`]).

use ubft_crypto::{Digest, Signature};
use ubft_types::{ClientId, ReplicaId, Slot};

use super::{CryptoTag, Effect, Engine, ShareOf};
use crate::msg::{exec_table_digest, CheckpointCert, CheckpointData, CtbMsg, TbMsg};

/// First slot a checkpoint at `base` does *not* open: two windows are open
/// past a stable checkpoint (PBFT's `h` / `H = h + 2K`), so that the
/// checkpoint between them certifies while the second one fills and no
/// request waits for a certification. Per-slot state stays bounded by two
/// windows, which is what the auditor checks.
pub(super) fn open_end(base: Slot, window: usize) -> Slot {
    Slot(base.0 + 2 * window as u64)
}

impl Engine {
    /// The open slots ([`open_end`]), for proposing and for accepting alike.
    ///
    /// A peer drops consensus messages for slots it has not opened, and
    /// the leader proposes slot `base + window` one window's worth of
    /// slots after it took the snapshot at `base` — that long, minus the
    /// certification time, after it adopted the checkpoint. A peer whose
    /// adoption of the same checkpoint lags by less (a busy crypto worker,
    /// a replacement node paying certificate verifications) has opened the
    /// slot by then and loses nothing; a longer lag is healed by the next
    /// checkpoint's state transfer.
    pub(super) fn in_open_window(&self, slot: Slot) -> bool {
        let base = self.checkpoint.data.base;
        slot >= base && slot < open_end(base, self.window())
    }

    /// The request-dedup table (highest executed sequence per client) in
    /// canonical (sorted) order — identical on every correct replica at a
    /// given execution frontier, which is what lets checkpoints certify it.
    pub fn exec_table(&self) -> Vec<(ClientId, u64)> {
        self.requests.exec_table()
    }

    /// The runtime reports the application digest after applying every slot
    /// `< base`, together with the digest of the dedup table captured at
    /// the same instant ([`crate::msg::exec_table_digest`]). Execution,
    /// paused at `base` since [`Effect::RequestSnapshot`], resumes; our
    /// share over the snapshot is signed by a crypto job.
    pub fn on_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Vec<Effect> {
        if self.snapshot_pending == Some(base) {
            self.snapshot_pending = None;
            self.snapshot_base = base;
            let data = CheckpointData { base, app_digest, exec_digest };
            if base > self.checkpoint.data.base {
                self.cp_shares.entry(base).or_default().begin_own(self.me, data);
            }
            self.sign_job(CryptoTag::CheckpointShare { data }, data.sign_bytes());
            self.try_execute();
            self.propose_ready();
        }
        std::mem::take(&mut self.out)
    }

    /// A state transfer delivered the donor's request-dedup table for the
    /// checkpoint at `base`. Adopted only when it hashes to the *certified*
    /// [`CheckpointData::exec_digest`] (the donor is untrusted). Adoption
    /// also lets go of every request the table proves executed — without
    /// this, a replacement node keeps long-completed requests outstanding
    /// forever, its progress watchdog spirals through views, and it ends
    /// up isolated (a cascade the chaos explorer found).
    pub fn on_exec_table(&mut self, base: Slot, table: Vec<(ClientId, u64)>) -> Vec<Effect> {
        let certified = &self.checkpoint.data;
        if certified.base == base && exec_table_digest(&table) == certified.exec_digest {
            self.requests.adopt_exec_table(table);
            self.propose_ready();
        }
        std::mem::take(&mut self.out)
    }

    /// A `CERTIFY_CHECKPOINT` share arrived: reject what is cheap to reject,
    /// then hand the signature to the crypto worker. The share counts only
    /// once its [`CryptoTag::ShareCheck`] comes back `true`.
    pub(super) fn handle_checkpoint_share(
        &mut self,
        from: ReplicaId,
        data: CheckpointData,
        sig: Signature,
    ) {
        // Our own share arrives as a sign completion, never as a message.
        if from == self.me {
            return;
        }
        // Only the two boundaries execution can reach before the stable
        // checkpoint moves. Together with one share per signer per base
        // this bounds `cp_shares` and the verifications a Byzantine peer
        // can make us pay for.
        let stable = self.checkpoint.data.base;
        if data.base <= stable
            || data.base > open_end(stable, self.window())
            || !data.base.0.is_multiple_of(self.window() as u64)
        {
            return;
        }
        if self.cp_shares.entry(data.base).or_default().admit(from, data, sig) {
            self.check_parked(ShareOf::Checkpoint { base: data.base });
        }
    }

    /// Our own share over the snapshot `data` is signed: broadcast it, and
    /// count it if that checkpoint is not stable yet.
    pub(super) fn checkpoint_share_signed(&mut self, data: CheckpointData, sig: Signature) {
        self.out.push(Effect::TbBroadcast(TbMsg::CertifyCheckpoint { data, sig }));
        if data.base > self.checkpoint.data.base {
            self.cp_shares.entry(data.base).or_default().add_own(self.me, data, sig);
            self.try_certify_checkpoint(data.base);
        }
    }

    /// Adopts the checkpoint at `base` once `f + 1` verified shares agree
    /// on its data. `adopt_checkpoint` announces it on our stream and
    /// releases the streams that were parked on this proof.
    pub(super) fn try_certify_checkpoint(&mut self, base: Slot) {
        let quorum = self.quorum();
        let Some((&data, cert)) = self.cp_shares.get(&base).and_then(|s| s.agreed(quorum)) else {
            return;
        };
        self.note_own_cert(&cert, &data.sign_bytes());
        self.verified_cp_data.insert(data);
        self.adopt_checkpoint(CheckpointCert { data, cert });
    }

    /// Whether our own certification of exactly `data` is under way: we
    /// took that snapshot and its checkpoint is not stable yet.
    pub(super) fn certifying(&self, data: &CheckpointData) -> bool {
        self.cp_shares.get(&data.base).and_then(|s| s.ours(self.me)) == Some(data)
    }

    pub(super) fn handle_checkpoint_msg(&mut self, stream: ReplicaId, c: CheckpointCert) {
        let window = self.window();
        let ps = self.state.get_mut(&stream).expect("known");
        ps.checkpoint = c.clone();
        let (lo, hi) = ps.open_window(window);
        ps.prepares.retain(|s, _| *s >= lo && *s < hi);
        ps.commits.retain(|s, _| *s >= lo && *s < hi);
        self.adopt_checkpoint(c);
    }

    pub(super) fn adopt_checkpoint(&mut self, c: CheckpointCert) {
        if !c.supersedes(&self.checkpoint) {
            return;
        }
        self.checkpoint = c.clone();
        let base = c.data.base;
        // Forget decided state below the checkpoint (finite memory!).
        self.slots.retain(|s, _| *s >= base);
        self.held.retain(|s| *s >= base);
        self.cp_shares.retain(|b, _| *b > base);
        let window = self.window() as u64;
        self.verified_cp_data.retain(|d| d.base.0 + window >= base.0);
        self.requests.reclaim();
        if self.exec_next < base {
            // We missed decided slots below the certified base (a
            // replacement node, or a replica that lost a whole window):
            // local replay cannot reach this state, so ask the runtime for
            // a snapshot transfer — verified against the certified digests,
            // so the serving peer is not trusted — then resume from `base`.
            // The transferred state stands in for the snapshot we never
            // took: the next one is due a window later.
            self.out.push(Effect::StateTransfer {
                base,
                app_digest: c.data.app_digest,
                exec_digest: c.data.exec_digest,
            });
            self.exec_next = base;
            self.snapshot_base = base;
            self.snapshot_pending = None;
        }
        if self.next_slot < base {
            self.next_slot = base;
        }
        self.out.push(Effect::CheckpointAdopted { base });
        // Announce the adoption on our own stream before proposing into the
        // window it opens: peers validate PREPAREs against the checkpoint
        // most recently seen *on our stream* (Algorithm 5), so a PREPARE
        // emitted ahead of the CHECKPOINT would be branded out-of-window.
        if base > self.cp_broadcast_base {
            self.cp_broadcast_base = base;
            self.emit_ctb(CtbMsg::Checkpoint(c));
        }
        self.propose_ready();
        // Our own certifications at or below `base` are over.
        self.recheck_parked_streams();
    }
}
