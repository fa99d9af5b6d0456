//! Criterion micro-benchmarks of the substrates (real wall-clock time of
//! the implementation itself, as opposed to the virtual-time figures).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ubft_crypto::{checksum64, sha256};
use ubft_dmem::register::{ReadOutcome, RegisterBank, RegisterId};
use ubft_rdma::Fabric;
use ubft_sim::net::{LatencyModel, NetworkModel};
use ubft_sim::{HostId, SimRng};
use ubft_transport::channel::{create_channel, ChannelSpec};
use ubft_types::{Duration, Time};

fn bench_crypto(c: &mut Criterion) {
    let data_small = vec![0xA5u8; 64];
    let data_large = vec![0xA5u8; 4096];
    c.bench_function("sha256/64B", |b| b.iter(|| sha256(std::hint::black_box(&data_small))));
    c.bench_function("sha256/4KiB", |b| b.iter(|| sha256(std::hint::black_box(&data_large))));
    c.bench_function("checksum64/64B", |b| {
        b.iter(|| checksum64(0, std::hint::black_box(&data_small)))
    });
    c.bench_function("checksum64/4KiB", |b| {
        b.iter(|| checksum64(0, std::hint::black_box(&data_large)))
    });
}

fn bench_registers(c: &mut Criterion) {
    c.bench_function("swmr_register/write+read", |b| {
        b.iter_batched(
            || {
                let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 6);
                let mut fabric = Fabric::new(net, SimRng::new(1));
                let mems = [HostId(3), HostId(4), HostId(5)];
                let bank =
                    RegisterBank::create(&mut fabric, &mems, 4, 72, Duration::from_micros(10));
                (fabric, bank.writer(), bank.reader())
            },
            |(mut fabric, mut w, r)| {
                let done = w
                    .write(&mut fabric, HostId(0), RegisterId(0), 1, b"value", Time::ZERO)
                    .expect("write");
                let out = r.read(&mut fabric, HostId(1), RegisterId(0), done);
                assert!(matches!(out, ReadOutcome::Value { .. }));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("channel/send+poll", |b| {
        b.iter_batched(
            || {
                let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 2);
                let mut fabric = Fabric::new(net, SimRng::new(2));
                let (mut tx, rx) = create_channel(
                    &mut fabric,
                    HostId(1),
                    ChannelSpec { slots: 16, slot_payload: 256 },
                );
                tx.bind_issuer(HostId(0));
                (fabric, tx, rx)
            },
            |(mut fabric, mut tx, mut rx)| {
                let out = tx.send(&mut fabric, Time::ZERO, &[7u8; 128]);
                let arrival = out.issued.last().expect("a free slot").1;
                let polled = rx.poll(&mut fabric, arrival + Duration::from_nanos(150));
                assert_eq!(polled.delivered.len(), 1);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_apps(c: &mut Criterion) {
    use ubft_apps::{KvApp, KvFrontend, OrderBookApp};
    use ubft_core::App;
    c.bench_function("kv/set+get", |b| {
        let mut kv = KvApp::new(KvFrontend::Memcached);
        let set = ubft_apps::KvOp::Set { key: vec![1; 16], value: vec![2; 32] };
        let get = ubft_apps::KvOp::Get { key: vec![1; 16] };
        use ubft_types::wire::Wire;
        let (set, get) = (set.to_bytes(), get.to_bytes());
        b.iter(|| {
            kv.execute(&set);
            kv.execute(&get)
        })
    });
    c.bench_function("orderbook/match", |b| {
        let mut book = OrderBookApp::new();
        use ubft_types::wire::Wire;
        let buy = ubft_apps::OrderOp::Buy { price: 100, qty: 2 }.to_bytes();
        let sell = ubft_apps::OrderOp::Sell { price: 100, qty: 2 }.to_bytes();
        b.iter(|| {
            book.execute(&sell);
            book.execute(&buy)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_crypto, bench_registers, bench_channel, bench_apps
}
criterion_main!(benches);
