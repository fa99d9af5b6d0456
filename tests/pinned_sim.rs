//! Pinned simulator outputs: exact digests, counters, and end times of
//! representative runs, captured before the `Transport` refactor (times
//! and counters of the three single-client runs re-captured when summary
//! crypto left the request path; their digests did not move). The
//! simulator backend is a calibrated instrument — any change to these
//! values means virtual-time behaviour drifted, which invalidates every
//! figure the repo reproduces. A deliberate behaviour change must update
//! the pins in the same commit and say why.
//!
//! The five short runs stop at 55–220 requests and never reach slot 256,
//! so they say nothing about checkpoints. The two `across_checkpoints`
//! runs (600 requests, boundaries at 256 and 512) were captured when
//! checkpoint certification left the request path, so that the next change
//! to checkpoint timing is visible here.
//!
//! Four pins were re-captured with two corrections to the instrument
//! itself, made after the checkpoint change (which passed the five short
//! pins untouched) because it laid both bare:
//!
//! * `ubft_rdma`'s region folded in-flight writes up to the *arrival* time
//!   of every new write, so a message posted right behind another became
//!   visible to a poll a hop early. `fast_path_run` (end −79 ns),
//!   `fast_path_run_across_checkpoints` (end +251 ns) and
//!   `batched_multiclient_run` (eight clients: other batches form, so the
//!   digest moves with the times) had such pick-ups; `slow_path_run`,
//!   `default_path_run` and `sharded_run` had none and did not move.
//! * Crypto jobs no longer hold up ordered crypto on the modelled pool:
//!   `slow_path_run_across_checkpoints` loses the 17 µs every summary
//!   boundary used to cost the slow path (mean 204 451 → 203 884 ns; 20 ns
//!   of its end time are the first correction's).
//!
//! The two slow-path pins were re-captured when one verification left the
//! slow path's blocking chain (PR 20): a broadcaster no longer verifies the
//! signature its own signer produced (`ctb_verifies` 660 → 440, one per
//! signed broadcast), a replica checks one peer's CERTIFY share per slot
//! instead of two (`engine_verifies` 331 → 166), and a follower checks the
//! leader's while its own copy of the PREPARE is still in CTBcast (p50
//! 203 895 → 158 397 ns). Digests, completions, signatures and views did
//! not move. `ctb_msgs` / `cons_msgs` fall because TBcast retransmission
//! is driven by a 150 µs tick and the run is 22 % shorter; the two register
//! operations are the last slot's, cut off by the earlier end. The five
//! fast-path pins passed untouched.
//!
//! They were re-captured again when a replica's own CERTIFY share became a
//! crypto job, signed as soon as the replica knows the proposal — the
//! leader as it proposes, a follower as it admits the leader's early share
//! — and sent once the proposal is accepted: both shares are handled while
//! the PREPARE is still being verified, and four public-key operations are
//! left on the blocking chain instead of five (p50 158 397 → 141 017 and
//! 158 394 → 141 017 ns). Digests and every crypto counter did not move;
//! `ctb_msgs` / `cons_msgs` fall only because the runs end 11 % sooner, and
//! with them the retransmission ticks. The five fast-path pins passed
//! untouched.
//!
//! They were re-captured once more when CTBcast came to sign a replica's
//! COMMIT while its certificate is still being checked — from the moment
//! its own share is signed and `f + 1` shares over the proposal are
//! verified or being checked — so the COMMIT's signature left the blocking
//! chain: three public-key operations instead of four (p50 141 017 →
//! 123 438 and 141 017 → 123 442 ns, end 12 % sooner). Digests,
//! completions, verifications, engine signatures and views did not move.
//! `ctb_signs` rises by 3 in the run across checkpoints: an early
//! signature is dropped, and the COMMIT signed afresh, where a CHECKPOINT
//! took the id it was signed for. The `ctb_msgs` / `cons_msgs` changes
//! (−2 / 0 and +22 / +12) are TBcast retransmissions alone, counted on a
//! copy of the driver that tallies the frames each 150 µs tick resends
//! (208 → 206 / 158 → 158 and 2 614 → 2 636 / 1 988 → 2 000); the frames
//! sent first are the same. The five fast-path pins passed untouched.
//!
//! They were re-captured again when a slow-path delivery came to cost one
//! round trip to the memory nodes instead of two: the register write and
//! the slot read that checks it leave together, the read posted behind
//! the write on each memory node's queue pair, and a remote read samples
//! each node when it arrives there, not when it is posted (p50 123 438 →
//! 119 562 and 123 442 → 119 559 ns, end 3 % sooner). Digests,
//! completions, every crypto counter, register writes and reads, and
//! views did not move. The `ctb_msgs` / `cons_msgs` changes (−4 / +6 and
//! −90 / −30) are TBcast retransmissions alone, counted as before by
//! tallying the frames each 150 µs tick resends (206 → 202 / 158 → 164
//! and 2 636 → 2 546 / 2 000 → 1 970); the frames sent first are the
//! same. The five fast-path pins passed untouched.
//!
//! The `rpc_msgs` field of all seven pins was re-captured when a client
//! request came to be counted once, where the client sends it, instead of
//! a second time where a replica receives it: a fault-free request is 3
//! sends and 3 replies, not 9 messages (990 → 660, 495 → 330, 5 940 →
//! 3 960, 1 233 → 819, 1 994 → 1 329). Digests, times and every other
//! counter did not move.
//!
//! The five fast-path pins were re-captured when the leader's echo-round
//! fallback became one sweep instead of one timer per request: a
//! fault-free request no longer costs the leader's main core a timer
//! dispatch 100 µs after it was proposed, so what that dispatch used to
//! delay runs sooner. `end`, `mean` and `p50` moved and nothing else did
//! in four of them (`fast_path_run` end 963 603 → 963 294, mean 8 749 →
//! 8 746, p50 8 745 → 8 731 ns; `default_path_run` 966 193 → 965 877,
//! 8 778 → 8 775, 8 768 → 8 770; `fast_path_run_across_checkpoints`
//! 5 779 541 → 5 777 614, 8 756 → 8 753, 8 759 → 8 757;
//! `batched_multiclient_run` 174 449 → 174 136, 9 956 → 9 919, 9 919 →
//! 9 893). `sharded_run` ends at 483 366 ns instead of 483 524, and its
//! `ctb_msgs` rise 1 760 → 1 764: group 0's leader makes two more
//! broadcasts on its CTBcast stream (two frames each) at 483 158 ns, before
//! the run's last completion, where the parent made them after it (counted
//! on a copy of the driver that logs every CTBcast frame; no frame was
//! retransmitted or refused in either run). Digests, completions and every other counter did not
//! move, and the two slow-path pins passed untouched.
//!
//! `batched_multiclient_run` was re-captured when a busy follower came to
//! send the echoes of a run of client requests as one message
//! (`DirectMsg::Echoes`, at most `max_batch` requests) and the leader to
//! take them as one input: `direct_msgs` 276 → 242. The requests one
//! message completes share a PREPARE, so batches form differently
//! (`ctb_msgs` 440 → 448, `cons_msgs` unchanged at 648) and this small
//! run ends at 174 715 ns instead of 174 136 (mean 9 919 → 9 967, p50
//! 9 893 → 9 942). The digest moves (`447390…` → `1f1dd0…`) because
//! execution order does; every replica executed the same 134 requests as
//! before. The six unbatched pins passed untouched: with `max_batch` 1 no
//! echo waits.
//!
//! Two pins were re-captured when each replica's application moved to an
//! execution core of its own and a follower's echoes came to wait, while a
//! slot it accepted is undecided, until it decides:
//!
//! * `slow_path_run_across_checkpoints` ends 7 ns later (79 114 837 →
//!   79 114 844). A checkpoint's digests now reach the engine as an input
//!   from the executor, an event of its own, instead of inside the call
//!   that asked for them; nothing else moved.
//! * `batched_multiclient_run` (8 clients, batch 4: a light load) is
//!   slower: end 174 715 → 183 544 ns, mean 9 967 → 10 638, p50 9 942 →
//!   10 402. At this load the leader's pipeline usually has room while a
//!   follower holds its echoes for its in-flight slot (`direct_msgs` 242 →
//!   148), so a request waits up to a slot longer to be proposed and slots
//!   carry fewer requests (`ctb_msgs` 448 → 532, `cons_msgs` 648 → 780;
//!   the leader's stream crosses a summary boundary, `engine_signs` 0 →
//!   3). With 64 clients the same batch of 4 runs 20 % faster (the batch
//!   sweep in EXPERIMENTS.md). The digest moves with the execution order:
//!   at the run's end r0 and r1 had executed the same 133 requests and r2
//!   the first 132 of them (134 each before).
//!
//! The five other pins passed untouched.
//!
//! `batched_multiclient_run` was re-captured when a decided slot came to
//! reach the executor as one job, one dispatch on the execution core
//! instead of one per request, and a leader with a slot in flight came to
//! wait, before it cuts a batch that is not full, for the echoes one
//! follower has sent and the other has not yet: mean 10 638 → 10 307, p50
//! 10 402 → 10 154, end 183 544 → 178 698 ns. (The job alone read mean
//! 10 751, p50 10 701: the requests whose second echo was on its way
//! waited out a slot's round.) Slots carry more requests (`ctb_msgs`
//! 532 → 504, `cons_msgs` 780 → 750), so the leader's stream no longer
//! crosses a summary boundary (`engine_signs` 3 → 0); `direct_msgs` falls
//! 148 → 135, and the clients sent one more request by the end
//! (`rpc_msgs` 815 → 816). The digest moves with the execution order. The six other pins passed untouched: a one-request slot is one
//! job as before, and with `max_batch` 1 no echo waits.
//!
//! `default_path_run` was re-captured when the fast path's timeouts became
//! two sweeps per replica — one over its slots, one over its own CTBcast
//! broadcasts, each armed while something waits and firing every 100 µs —
//! instead of one timer per slot and one per broadcast, each firing 200 µs
//! after it was armed: a fault-free request no longer costs every replica
//! a timer dispatch, and the leader a second one, long after it decided,
//! so what those dispatches used to delay runs sooner. `end` 965 877 → 965 807 and `p50` 8 770 →
//! 8 768 ns; `mean` (8 775), the digest, every counter and the views did
//! not move. The six other pins run fast only or slow only, arm none of
//! the removed timers and passed untouched.

use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_core::app::App;
use ubft_types::Time;

fn flip_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(ubft_apps::FlipApp::new()) as Box<dyn App>).collect()
}

fn payload32() -> Box<dyn FnMut(u64) -> Vec<u8>> {
    Box::new(|i| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    })
}

fn hex(d: &ubft_crypto::Digest) -> String {
    d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// One run's pinned observables, formatted as a single comparable string.
fn fingerprint(cfg: SimConfig, requests: u64, warmup: u64) -> String {
    let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
    let report = cluster.run(requests, warmup);
    let mut lat = report.latency;
    format!(
        "digest={} completed={} end={} mean={} p50={} counters={:?} views={:?}",
        hex(&cluster.app_digest(0)),
        report.completed,
        report.end.since(Time::ZERO).as_nanos(),
        lat.mean().as_nanos(),
        lat.median().as_nanos(),
        report.counters,
        report.views,
    )
}

#[test]
fn fast_path_run_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(42).fast_only(), 100, 10);
    assert_eq!(got, "digest=988e13629eb4fdf6e90745cae887a8509c215729319f72e2d4101a3724265381 completed=110 end=963294 mean=8746 p50=8731 counters=OpCounters { rpc_msgs: 660, ctb_msgs: 880, cons_msgs: 1322, direct_msgs: 222, ctb_signs: 0, ctb_verifies: 0, engine_signs: 3, engine_verifies: 1, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn slow_path_run_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(43).slow_only(), 50, 5);
    assert_eq!(got, "digest=ab6eb7e3868e84bd8e40dde4f910ae1738298c00e83a112b8ed8831b0d6da6a3 completed=55 end=6577391 mean=119568 p50=119562 counters=OpCounters { rpc_msgs: 330, ctb_msgs: 642, cons_msgs: 496, direct_msgs: 112, ctb_signs: 220, ctb_verifies: 440, engine_signs: 168, engine_verifies: 166, reg_writes: 658, reg_reads: 658 } views=[View(0), View(0), View(0)]");
}

#[test]
fn default_path_run_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(7), 100, 10);
    assert_eq!(got, "digest=988e13629eb4fdf6e90745cae887a8509c215729319f72e2d4101a3724265381 completed=110 end=965807 mean=8775 p50=8768 counters=OpCounters { rpc_msgs: 660, ctb_msgs: 880, cons_msgs: 1322, direct_msgs: 222, ctb_signs: 0, ctb_verifies: 0, engine_signs: 3, engine_verifies: 1, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn fast_path_run_across_checkpoints_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(44).fast_only(), 600, 60);
    assert_eq!(got, "digest=5b76fe46d2093b24f80366c20b510b78a6c174c296f4fd32631c774966e01bbc completed=660 end=5777614 mean=8753 p50=8757 counters=OpCounters { rpc_msgs: 3960, ctb_msgs: 5360, cons_msgs: 7952, direct_msgs: 1340, ctb_signs: 0, ctb_verifies: 0, engine_signs: 36, engine_verifies: 16, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn slow_path_run_across_checkpoints_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(45).slow_only(), 600, 60);
    assert_eq!(got, "digest=5b76fe46d2093b24f80366c20b510b78a6c174c296f4fd32631c774966e01bbc completed=660 end=79114844 mean=119900 p50=119559 counters=OpCounters { rpc_msgs: 3960, ctb_msgs: 7838, cons_msgs: 6022, direct_msgs: 1400, ctb_signs: 2649, ctb_verifies: 5292, engine_signs: 2106, engine_verifies: 2026, reg_writes: 7936, reg_reads: 7936 } views=[View(0), View(0), View(0)]");
}

#[test]
fn batched_multiclient_run_is_pinned() {
    let cfg = SimConfig::paper_default(11)
        .fast_only()
        .with_clients(8)
        .with_pipeline_depth(2)
        .with_batch(4);
    let got = fingerprint(cfg, 120, 12);
    assert_eq!(got, "digest=0be51df7428a8d4709f5098b1ce91d8027f3a4467c51959600d65963bbe6f766 completed=132 end=178698 mean=10307 p50=10154 counters=OpCounters { rpc_msgs: 816, ctb_msgs: 504, cons_msgs: 750, direct_msgs: 135, ctb_signs: 0, ctb_verifies: 0, engine_signs: 0, engine_verifies: 0, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn sharded_run_is_pinned() {
    let cfg = SimConfig::paper_default(9).fast_only().with_shards(4);
    let mut cluster = Cluster::new(cfg, flip_apps(12), payload32());
    let report = cluster.run(200, 20);
    let digests: Vec<String> = (0..4).map(|g| hex(&cluster.app_digest(g * 3))).collect();
    let got = format!(
        "digests={:?} completed={} end={} counters={:?}",
        digests,
        report.completed,
        report.end.since(Time::ZERO).as_nanos(),
        report.counters,
    );
    assert_eq!(got, "digests=[\"0f0e7d028dcdd24b217a9584c805799e694c1fbf5387a29a7b13b9cf6ad6a358\", \"8efaf11b7774fe29158960b9b050881a33f5ca12d5606b8042afff3d9075ec21\", \"8d9cde770fc930b8c9e4ed4e1493f5df4e19f683a1dc77f23880e708126d0276\", \"3d811869f014b4ffb870318609363503337e4a29dd93ec35f5c871e11f368f1b\"] completed=220 end=483366 counters=OpCounters { rpc_msgs: 1329, ctb_msgs: 1764, cons_msgs: 2640, direct_msgs: 443, ctb_signs: 0, ctb_verifies: 0, engine_signs: 0, engine_verifies: 0, reg_writes: 0, reg_reads: 0 }");
}
