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

use ubft::runtime::cluster::Cluster;
use ubft::runtime::sharded::ShardedCluster;
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
    assert_eq!(got, "digest=988e13629eb4fdf6e90745cae887a8509c215729319f72e2d4101a3724265381 completed=110 end=963603 mean=8749 p50=8745 counters=OpCounters { rpc_msgs: 990, ctb_msgs: 880, cons_msgs: 1322, direct_msgs: 222, ctb_signs: 0, ctb_verifies: 0, engine_signs: 3, engine_verifies: 1, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn slow_path_run_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(43).slow_only(), 50, 5);
    assert_eq!(got, "digest=ab6eb7e3868e84bd8e40dde4f910ae1738298c00e83a112b8ed8831b0d6da6a3 completed=55 end=8713521 mean=158401 p50=158397 counters=OpCounters { rpc_msgs: 495, ctb_msgs: 656, cons_msgs: 496, direct_msgs: 112, ctb_signs: 220, ctb_verifies: 440, engine_signs: 168, engine_verifies: 166, reg_writes: 658, reg_reads: 658 } views=[View(0), View(0), View(0)]");
}

#[test]
fn default_path_run_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(7), 100, 10);
    assert_eq!(got, "digest=988e13629eb4fdf6e90745cae887a8509c215729319f72e2d4101a3724265381 completed=110 end=966193 mean=8778 p50=8768 counters=OpCounters { rpc_msgs: 990, ctb_msgs: 880, cons_msgs: 1322, direct_msgs: 222, ctb_signs: 0, ctb_verifies: 0, engine_signs: 3, engine_verifies: 1, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn fast_path_run_across_checkpoints_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(44).fast_only(), 600, 60);
    assert_eq!(got, "digest=5b76fe46d2093b24f80366c20b510b78a6c174c296f4fd32631c774966e01bbc completed=660 end=5779541 mean=8756 p50=8759 counters=OpCounters { rpc_msgs: 5940, ctb_msgs: 5360, cons_msgs: 7952, direct_msgs: 1340, ctb_signs: 0, ctb_verifies: 0, engine_signs: 36, engine_verifies: 16, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn slow_path_run_across_checkpoints_is_pinned() {
    let got = fingerprint(SimConfig::paper_default(45).slow_only(), 600, 60);
    assert_eq!(got, "digest=5b76fe46d2093b24f80366c20b510b78a6c174c296f4fd32631c774966e01bbc completed=660 end=104587357 mean=158470 p50=158394 counters=OpCounters { rpc_msgs: 5940, ctb_msgs: 7938, cons_msgs: 6098, direct_msgs: 1400, ctb_signs: 2646, ctb_verifies: 5292, engine_signs: 2106, engine_verifies: 2026, reg_writes: 7936, reg_reads: 7936 } views=[View(0), View(0), View(0)]");
}

#[test]
fn batched_multiclient_run_is_pinned() {
    let cfg = SimConfig::paper_default(11)
        .fast_only()
        .with_clients(8)
        .with_pipeline_depth(2)
        .with_batch(4);
    let got = fingerprint(cfg, 120, 12);
    assert_eq!(got, "digest=447390a4e7949a383bf6861de15e796d96c632806400ac45495d8bbf2bafede6 completed=132 end=174449 mean=9956 p50=9919 counters=OpCounters { rpc_msgs: 1233, ctb_msgs: 440, cons_msgs: 648, direct_msgs: 276, ctb_signs: 0, ctb_verifies: 0, engine_signs: 0, engine_verifies: 0, reg_writes: 0, reg_reads: 0 } views=[View(0), View(0), View(0)]");
}

#[test]
fn sharded_run_is_pinned() {
    let cfg = SimConfig::paper_default(9).fast_only().with_shards(4);
    let mut cluster = ShardedCluster::new(cfg, |_| flip_apps(3), payload32());
    let report = cluster.run(200, 20);
    let digests: Vec<String> = (0..4).map(|g| hex(&cluster.app_digest(g, 0))).collect();
    let got = format!(
        "digests={:?} completed={} end={} counters={:?}",
        digests,
        report.completed,
        report.end.since(Time::ZERO).as_nanos(),
        report.counters,
    );
    assert_eq!(got, "digests=[\"0f0e7d028dcdd24b217a9584c805799e694c1fbf5387a29a7b13b9cf6ad6a358\", \"8efaf11b7774fe29158960b9b050881a33f5ca12d5606b8042afff3d9075ec21\", \"8d9cde770fc930b8c9e4ed4e1493f5df4e19f683a1dc77f23880e708126d0276\", \"3d811869f014b4ffb870318609363503337e4a29dd93ec35f5c871e11f368f1b\"] completed=220 end=483524 counters=OpCounters { rpc_msgs: 1994, ctb_msgs: 1760, cons_msgs: 2640, direct_msgs: 443, ctb_signs: 0, ctb_verifies: 0, engine_signs: 0, engine_verifies: 0, reg_writes: 0, reg_reads: 0 }");
}
