//! Per-layer probes: host nanoseconds per call of each crate's public
//! functions, over seeded inputs, plus exact allocation counts. They run in
//! the traced run only and do not depend on the workload.
//!
//! A probe runs its function in batches and reports the lower decile of the
//! batches' time per call. Every batch is a span under `probe:<metric>`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration as HostDuration, Instant};

use ubft::apps::workload::{flip_request, kv_request, order_request, WorkloadRng};
use ubft::apps::{FlipApp, KvApp, KvFrontend, OrderBookApp};
use ubft::core::app::App;
use ubft::core::engine::{Effect, Engine, EngineConfig, PathMode};
use ubft::core::msg::{exec_table_digest, Batch, CtbMsg, Prepare, Request};
use ubft::crypto::hmac::hmac_sha256;
use ubft::crypto::{checksum64, sha256, KeyRing};
use ubft::ctb::wire::signed_bytes;
use ubft::ctb::{Ctb, CtbConfig, CtbEffect, CtbWire, RegEntry, SlowMode};
use ubft::dmem::register::{ReadOutcome, RegisterBank, RegisterId};
use ubft::rdma::Fabric;
use ubft::runtime::baselines::{run_mu, run_unreplicated};
use ubft::runtime::SimConfig;
use ubft::sim::{EventQueue, HostId, LatencyModel, NetworkModel, SimRng};
use ubft::transport::channel::{create_channel, ChannelSpec};
use ubft::transport::inproc::{inproc_mesh, InMsg};
use ubft::transport::net::LANE_DIRECT;
use ubft::types::wire::Wire;
use ubft::types::{
    ClientId, ClusterParams, ProcessId, ReplicaId, RequestId, SeqId, Slot, Time, View,
};

use crate::alloc;
use crate::json::Metric;
use crate::spans::Spans;
use crate::stats::lower_decile;
use crate::workloads::{request_source, REQUEST_BYTES};

const N: usize = 3;

/// Runs batches and collects the probe metrics.
struct Prober<'a> {
    spans: &'a mut Spans,
    /// Host time each timed probe may take.
    budget: HostDuration,
    out: Vec<Metric>,
}

impl Prober<'_> {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric { name, unit, value });
    }

    /// Times `batch`, which makes `calls` calls, until the budget is spent
    /// and at least five batches ran. Returns the allocator calls per call
    /// of the last batch; pushes `<name>` in ns per call.
    fn time(&mut self, name: &'static str, calls: u64, mut batch: impl FnMut()) -> f64 {
        let probe = self.spans.enter(&format!("probe:{name}"));
        batch(); // warm caches and lazy set-up
        let mut ns_per_call = Vec::new();
        let mut allocs_per_call = 0.0;
        let started = Instant::now();
        while ns_per_call.len() < 5 || started.elapsed() < self.budget {
            let span = self.spans.enter("batch");
            let before = alloc::snapshot();
            let t = Instant::now();
            batch();
            let ns = t.elapsed().as_nanos() as f64;
            allocs_per_call = alloc::snapshot().since(before).calls as f64 / calls as f64;
            self.spans.exit(span);
            ns_per_call.push(ns / calls as f64);
        }
        self.spans.exit(probe);
        self.push(name, "ns", lower_decile(&ns_per_call).expect("at least five batches"));
        allocs_per_call
    }

    /// Like [`Prober::time`], and pushes the allocation count as `allocs`.
    fn time_and_count(
        &mut self,
        name: &'static str,
        allocs: &'static str,
        calls: u64,
        batch: impl FnMut(),
    ) {
        let per_call = self.time(name, calls, batch);
        self.push(allocs, "count", per_call);
    }
}

/// Every probe metric, in a fixed order. `budget` bounds each timed probe.
pub fn run_all(seed: u64, budget: HostDuration, spans: &mut Spans) -> Vec<Metric> {
    spans.set_workload("");
    let mut p = Prober { spans, budget, out: Vec::new() };
    crypto(&mut p, seed);
    codecs(&mut p, seed);
    ctb_deliver(&mut p, seed);
    engine_decide(&mut p, seed);
    registers(&mut p, seed);
    transport(&mut p, seed);
    event_queue(&mut p, seed);
    apps(&mut p, seed);
    baselines(&mut p, seed);
    p.out
}

fn replica(i: usize) -> ProcessId {
    ProcessId::Replica(ReplicaId(i as u32))
}

fn ring(seed: u64) -> KeyRing {
    KeyRing::generate(seed ^ 0x5EED, (0..N).map(replica))
}

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    SimRng::new(seed).fill_bytes(&mut buf);
    buf
}

fn crypto(p: &mut Prober<'_>, seed: u64) {
    let small = seeded_bytes(seed, 64);
    let page = seeded_bytes(seed ^ 1, 4096);
    let key = seeded_bytes(seed ^ 2, 32);
    p.time("crypto.sha256_ns_64b", 2_000, || {
        for _ in 0..2_000 {
            black_box(sha256(black_box(&small)));
        }
    });
    p.time("crypto.sha256_ns_4k", 100, || {
        for _ in 0..100 {
            black_box(sha256(black_box(&page)));
        }
    });
    // What CTBcast signs: (stream, k, fingerprint).
    let ring = ring(seed);
    let signer = ring.signer(replica(0)).expect("replica 0 has a key");
    let msg = signed_bytes(ReplicaId(0), SeqId(7), &sha256(&small));
    let sig = signer.sign(&msg);
    p.time("crypto.sign_ns", 500, || {
        for _ in 0..500 {
            black_box(signer.sign(black_box(&msg)));
        }
    });
    p.time("crypto.verify_ns", 500, || {
        for _ in 0..500 {
            assert!(black_box(ring.verify(replica(0), black_box(&msg), &sig)));
        }
    });
    p.time("crypto.hmac_ns_64b", 1_000, || {
        for _ in 0..1_000 {
            black_box(hmac_sha256(black_box(&key), black_box(&small)));
        }
    });
    p.time("crypto.checksum_ns_64b", 5_000, || {
        for _ in 0..5_000 {
            black_box(checksum64(seed, black_box(&small)));
        }
    });
}

/// A `Prepare` carrying a 16 × 32 B batch, the `flip_batched` proposal.
fn batched_prepare(seed: u64) -> CtbMsg {
    let mut rng = WorkloadRng::new(seed);
    let reqs = (0..16)
        .map(|i| Request {
            id: RequestId::new(ClientId(i), 1),
            payload: flip_request(&mut rng, REQUEST_BYTES),
        })
        .collect();
    CtbMsg::Prepare(Prepare { view: View(0), slot: Slot(5), batch: Batch::new(reqs) })
}

fn codecs(p: &mut Prober<'_>, seed: u64) {
    let msg = batched_prepare(seed);
    let bytes = msg.to_bytes();
    p.time("core.msg_encode_ns", 500, || {
        for _ in 0..500 {
            black_box(black_box(&msg).to_bytes());
        }
    });
    p.time_and_count("core.msg_decode_ns", "core.msg_decode_allocs", 500, || {
        for _ in 0..500 {
            black_box(CtbMsg::from_bytes(black_box(&bytes)).expect("own encoding decodes"));
        }
    });
    let wire = CtbWire::Lock { k: SeqId(9), m: bytes };
    let framed = wire.to_bytes();
    p.time("ctb.wire_encode_ns", 1_000, || {
        for _ in 0..1_000 {
            black_box(black_box(&wire).to_bytes());
        }
    });
    p.time_and_count("ctb.wire_decode_ns", "ctb.wire_decode_allocs", 1_000, || {
        for _ in 0..1_000 {
            black_box(CtbWire::from_bytes(black_box(&framed)).expect("own encoding decodes"));
        }
    });
}

/// Three `Ctb` instances of replica 0's stream on a perfect in-memory fabric:
/// every effect is carried out at once, in emission order.
struct CtbWorld {
    ctbs: Vec<Ctb>,
    registers: Vec<Vec<Option<RegEntry>>>,
    ring: KeyRing,
    delivered: u64,
    pending: VecDeque<(usize, CtbEffect)>,
}

impl CtbWorld {
    fn new(seed: u64, cfg: CtbConfig) -> Self {
        let replicas: Vec<ReplicaId> = (0..N as u32).map(ReplicaId).collect();
        CtbWorld {
            ctbs: replicas
                .iter()
                .map(|&me| Ctb::new(me, ReplicaId(0), replicas.clone(), cfg))
                .collect(),
            registers: vec![vec![None; cfg.tail]; N],
            ring: ring(seed),
            delivered: 0,
            pending: VecDeque::new(),
        }
    }

    fn push(&mut self, who: usize, fx: Vec<CtbEffect>) {
        self.pending.extend(fx.into_iter().map(|e| (who, e)));
    }

    /// Broadcasts `m` and runs every effect to completion.
    fn broadcast(&mut self, m: Vec<u8>) {
        let (_, fx) = self.ctbs[0].broadcast(m);
        self.push(0, fx);
        while let Some((who, effect)) = self.pending.pop_front() {
            match effect {
                CtbEffect::Broadcast(wire) => {
                    for r in 0..N {
                        let fx = self.ctbs[r].on_tb_deliver(ReplicaId(who as u32), wire.clone());
                        self.push(r, fx);
                    }
                }
                CtbEffect::Sign { k, fp } => {
                    let signer = self.ring.signer(replica(0)).expect("replica 0 has a key");
                    let sig = signer.sign(&signed_bytes(ReplicaId(0), k, &fp));
                    let fx = self.ctbs[who].on_sign_done(k, sig);
                    self.push(who, fx);
                }
                CtbEffect::Verify { tag, k, fp, sig } => {
                    let ok =
                        self.ring.verify(replica(0), &signed_bytes(ReplicaId(0), k, &fp), &sig);
                    let fx = self.ctbs[who].on_verify_done(tag, ok);
                    self.push(who, fx);
                }
                CtbEffect::WriteRegister { slot, k, entry } => {
                    self.registers[who][slot] = Some(entry);
                    let fx = self.ctbs[who].on_register_written(k);
                    self.push(who, fx);
                }
                CtbEffect::ReadSlot { slot, k } => {
                    let entries = (0..N).map(|r| self.registers[r][slot].clone()).collect();
                    let fx = self.ctbs[who].on_registers_read(k, entries);
                    self.push(who, fx);
                }
                CtbEffect::Deliver { .. } => self.delivered += 1,
                CtbEffect::Equivocation { .. } | CtbEffect::ArmSlowTimer { .. } => {}
            }
        }
    }
}

fn ctb_deliver(p: &mut Prober<'_>, seed: u64) {
    let tail = ClusterParams::paper_default().tail;
    let payload = seeded_bytes(seed ^ 3, 64);
    for (name, allocs, calls, cfg) in [
        (
            "ctb.fast_deliver_ns",
            Some("ctb.fast_deliver_allocs"),
            500,
            CtbConfig { n: N, tail, fast_enabled: true, slow: SlowMode::Never },
        ),
        (
            "ctb.slow_deliver_ns",
            None,
            50,
            CtbConfig { n: N, tail, fast_enabled: false, slow: SlowMode::Always },
        ),
    ] {
        let mut world = CtbWorld::new(seed, cfg);
        let mut sent = 0;
        let per_call = p.time(name, calls, || {
            for _ in 0..calls {
                world.broadcast(payload.clone());
            }
            sent += calls;
        });
        assert_eq!(
            world.delivered,
            sent * N as u64,
            "{name}: every replica delivers every message"
        );
        if let Some(allocs) = allocs {
            p.push(allocs, "count", per_call);
        }
    }
}

/// Three engines on a perfect fabric: CTBcast ids in order, instant delivery.
/// The protocol state machine's cost with transport and timing removed.
struct EngineNet {
    engines: Vec<Engine>,
    apps: Vec<FlipApp>,
    ctb_next: Vec<u64>,
    executed: u64,
    queue: VecDeque<(usize, Effect)>,
}

impl EngineNet {
    fn new(seed: u64) -> Self {
        let cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
        let ring = ring(seed);
        let mut net = EngineNet {
            engines: (0..N as u32)
                .map(|i| Engine::new(ReplicaId(i), cfg.clone(), ring.clone()))
                .collect(),
            apps: (0..N).map(|_| FlipApp::new()).collect(),
            ctb_next: vec![1; N],
            executed: 0,
            queue: VecDeque::new(),
        };
        for i in 0..N {
            let fx = net.engines[i].start();
            net.enqueue(i, fx);
        }
        net.drain();
        net
    }

    fn enqueue(&mut self, who: usize, fx: Vec<Effect>) {
        self.queue.extend(fx.into_iter().map(|e| (who, e)));
    }

    fn request(&mut self, req: Request) {
        for r in 0..N {
            let fx = self.engines[r].on_client_request(req.clone());
            self.enqueue(r, fx);
        }
        self.drain();
    }

    fn drain(&mut self) {
        while let Some((who, effect)) = self.queue.pop_front() {
            let from = ReplicaId(who as u32);
            match effect {
                Effect::CtbBroadcast(msg) => {
                    let k = SeqId(self.ctb_next[who]);
                    self.ctb_next[who] += 1;
                    for r in 0..N {
                        let fx = self.engines[r].on_ctb_deliver(from, k, msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::TbBroadcast(msg) => {
                    for r in 0..N {
                        let fx = self.engines[r].on_tb_deliver(from, msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::SendReplica { to, msg } => {
                    let fx = self.engines[to.0 as usize].on_direct(from, msg);
                    self.enqueue(to.0 as usize, fx);
                }
                Effect::Execute { req, .. } => {
                    black_box(self.apps[who].execute(&req.payload));
                    self.executed += 1;
                }
                Effect::RequestSnapshot { base } => {
                    let digest = self.apps[who].snapshot_digest();
                    let table = self.engines[who].exec_table();
                    let fx = self.engines[who].on_snapshot(base, digest, exec_table_digest(&table));
                    self.enqueue(who, fx);
                }
                // No replica falls behind or changes view on a perfect fabric,
                // and timers never fire.
                Effect::StateTransfer { .. }
                | Effect::AdoptStreams { .. }
                | Effect::ArmTimer { .. }
                | Effect::CheckpointAdopted { .. }
                | Effect::ViewChanged { .. }
                | Effect::ByzantineDetected { .. } => {}
            }
        }
    }
}

fn engine_decide(p: &mut Prober<'_>, seed: u64) {
    let mut net = EngineNet::new(seed);
    let mut rng = WorkloadRng::new(seed ^ 4);
    let mut seq = 0;
    p.time_and_count("core.engine_decide_ns", "core.engine_decide_allocs", 200, || {
        for _ in 0..200 {
            let payload = flip_request(&mut rng, REQUEST_BYTES);
            net.request(Request { id: RequestId::new(ClientId(1), seq), payload });
            seq += 1;
        }
    });
    assert_eq!(net.executed, seq * N as u64, "every engine executes every request");
}

fn registers(p: &mut Prober<'_>, seed: u64) {
    let params = ClusterParams::paper_default();
    let n_mem = params.n_mem();
    let issuer = HostId(0);
    let mem_hosts: Vec<HostId> = (1..=n_mem as u32).map(HostId).collect();
    let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 1 + n_mem);
    let mut fabric = Fabric::new(net, SimRng::new(seed ^ 5));
    let bank = RegisterBank::create(
        &mut fabric,
        &mem_hosts,
        params.tail,
        RegEntry::encoded_size(),
        params.delta,
    );
    let mut writer = bank.writer();
    let reader = bank.reader();
    let value = seeded_bytes(seed ^ 6, RegEntry::encoded_size());
    let mut now = Time::ZERO;
    let mut ts = 0u64;
    let (mut virt_ns, mut ops) = (0u64, 0u64);
    // One pass over the bank per batch, so no write waits for its register's
    // cooldown δ.
    let calls = params.tail as u64;
    p.time("dmem.reg_write_ns", calls, || {
        for reg in 0..params.tail {
            ts += 1;
            let done = writer
                .write(&mut fabric, issuer, RegisterId(reg), ts, &value, now)
                .expect("a memory-node majority is up");
            virt_ns += done.since(now).as_nanos();
            ops += 1;
            now = done;
        }
        now += params.delta;
    });
    p.push("dmem.reg_write_virt_us", "us", virt_ns as f64 / ops as f64 / 1e3);
    (virt_ns, ops) = (0, 0);
    p.time("dmem.reg_read_ns", calls, || {
        for reg in 0..params.tail {
            match reader.read(&mut fabric, issuer, RegisterId(reg), now) {
                ReadOutcome::Value { completion, .. } => {
                    virt_ns += completion.since(now).as_nanos();
                    ops += 1;
                    now = completion;
                }
                other => panic!("register read of settled data failed: {other:?}"),
            }
        }
    });
    p.push("dmem.reg_read_virt_us", "us", virt_ns as f64 / ops as f64 / 1e3);
}

fn transport(p: &mut Prober<'_>, seed: u64) {
    let payload = seeded_bytes(seed ^ 7, 96);

    // One circular-buffer channel on the modelled fabric: send, then poll at
    // the arrival time.
    let cfg = SimConfig::paper_default(seed);
    let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 2);
    let mut fabric = Fabric::new(net, SimRng::new(seed ^ 8));
    let spec = ChannelSpec { slots: 2 * cfg.params.tail, slot_payload: cfg.slot_payload() };
    let (mut tx, mut rx) = create_channel(&mut fabric, HostId(1), spec);
    tx.bind_issuer(HostId(0));
    let mut now = Time::ZERO;
    p.time("transport.channel_send_poll_ns", 500, || {
        for _ in 0..500 {
            let sent = tx.send(&mut fabric, now, &payload);
            now = sent.issued.last().expect("a free slot: every message is polled").1;
            assert_eq!(rx.poll(&mut fabric, now).delivered.len(), 1);
        }
    });

    // The in-process mesh, sender and receiver on one thread.
    let (router, eps) = inproc_mesh::<()>(2);
    p.time("transport.inproc_send_recv_ns", 1_000, || {
        for _ in 0..1_000 {
            assert!(router.send_net(LANE_DIRECT, 0, 1, payload.clone()));
            black_box(eps[1].try_recv().expect("just sent"));
        }
    });

    // Two threads ping-pong through `recv_timeout`: one hop is half a round
    // trip, and includes waking the parked peer.
    let (router, mut eps) = inproc_mesh::<()>(2);
    let echo_ep = eps.pop().expect("two endpoints");
    let main_ep = eps.pop().expect("two endpoints");
    let wait = HostDuration::from_secs(5);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            // A control frame, a timeout or a closed mesh ends the echo.
            while let Some(InMsg::Net(m)) = echo_ep.recv_timeout(wait) {
                if !echo_ep.router().send_net(m.lane, 1, 0, m.payload) {
                    break;
                }
            }
        });
        p.time("transport.inproc_wake_ns", 2 * 200, || {
            for _ in 0..200 {
                assert!(router.send_net(LANE_DIRECT, 0, 1, payload.clone()));
                assert!(main_ep.recv_timeout(wait).is_some(), "echo thread answers");
            }
        });
        router.send_ctl(1, ());
        echo.join().expect("echo thread does not panic");
    });
}

fn event_queue(p: &mut Prober<'_>, seed: u64) {
    let mut rng = SimRng::new(seed ^ 9);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut now = Time::ZERO;
    // A resident population like a busy run's: a few hundred pending events.
    for i in 0..256 {
        queue.push(now + ubft::types::Duration::from_nanos(rng.gen_range(10_000)), i);
    }
    p.time("sim.event_queue_ns", 2_000, || {
        for i in 0..2_000 {
            let (t, _) = queue.pop().expect("population is constant");
            now = t;
            queue.push(now + ubft::types::Duration::from_nanos(rng.gen_range(10_000)), i);
        }
    });
}

fn apps(p: &mut Prober<'_>, seed: u64) {
    let mut rng = WorkloadRng::new(seed ^ 10);
    let flips: Vec<Vec<u8>> = (0..1_000).map(|_| flip_request(&mut rng, REQUEST_BYTES)).collect();
    let mut populated = 0;
    let kvs: Vec<Vec<u8>> = (0..1_000).map(|_| kv_request(&mut rng, &mut populated)).collect();
    let orders: Vec<Vec<u8>> = (0..1_000).map(|_| order_request(&mut rng)).collect();
    let mut flip = FlipApp::new();
    let mut kv = KvApp::new(KvFrontend::Memcached);
    let mut book = OrderBookApp::new();
    let probes: [(&'static str, &mut dyn App, &[Vec<u8>]); 3] = [
        ("apps.flip_exec_ns", &mut flip, &flips),
        ("apps.kv_exec_ns", &mut kv, &kvs),
        ("apps.orderbook_exec_ns", &mut book, &orders),
    ];
    for (name, app, requests) in probes {
        p.time(name, requests.len() as u64, || {
            for r in requests {
                black_box(app.execute(black_box(r)));
            }
        });
    }
}

/// The single-node and crash-only floors under the fast path, virtual time.
fn baselines(p: &mut Prober<'_>, seed: u64) {
    let cfg = SimConfig::paper_default(seed);
    let span = p.spans.enter("probe:runtime.baselines");
    let mut unreplicated =
        run_unreplicated(&cfg, &mut FlipApp::new(), request_source(seed), 2_000, 100);
    let mut mu = run_mu(&cfg, &mut FlipApp::new(), request_source(seed), 2_000, 100);
    p.spans.exit(span);
    p.push("runtime.unreplicated_p50_us", "us", unreplicated.median().as_nanos() as f64 / 1e3);
    p.push("runtime.mu_p50_us", "us", mu.median().as_nanos() as f64 / 1e3);
}
