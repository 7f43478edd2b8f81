//! Serve-path benchmarks: request latency of the three resolution
//! tiers (cold guest execution, disk-warm store hit, memory-hot LRU
//! hit) at the service layer, plus the socket round-trip floor (ping
//! over a real listener). The tier ratios are the speedups the hot
//! tier and store buy a query; the ping floor isolates framing and
//! transport from resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_dbt::Backend;
use tpdbt_serve::proto::Request;
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_suite::Scale;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tpdbt-serve-bench-{}-{tag}", std::process::id()))
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(600)
}

fn service(cache_dir: Option<PathBuf>, hot_capacity: usize) -> ProfileService {
    service_on(cache_dir, hot_capacity, Backend::default())
}

fn service_on(cache_dir: Option<PathBuf>, hot_capacity: usize, backend: Backend) -> ProfileService {
    ProfileService::new(ServiceConfig {
        cache_dir,
        hot_capacity,
        default_deadline: Duration::from_secs(600),
        backend,
    })
}

fn bench_resolution_tiers(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_tiers");

    // Cold: a fresh service per iteration, no store — every resolve is
    // a real guest execution. One leg per execution backend: the gap
    // is what the pre-decoded translation cache buys a cold query.
    for backend in Backend::ALL {
        g.bench_function(format!("cold_compute/{backend}"), |b| {
            b.iter(|| {
                let s = service_on(None, 0, backend);
                let r = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
                assert_eq!(s.guest_runs(), 1);
                black_box(r.artifact)
            })
        });
    }

    // Disk-warm: the store is primed once; each iteration constructs a
    // fresh service (empty hot tier) so every resolve decodes from disk.
    let warm_dir = scratch("disk");
    let _ = std::fs::remove_dir_all(&warm_dir);
    service(Some(warm_dir.clone()), 0)
        .resolve_base("gzip", Scale::Tiny, far())
        .unwrap(); // prime
    g.bench_function("disk_warm", |b| {
        b.iter(|| {
            let s = service(Some(warm_dir.clone()), 0);
            let r = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
            assert_eq!(s.guest_runs(), 0);
            black_box(r.artifact)
        })
    });
    let _ = std::fs::remove_dir_all(&warm_dir);

    // Memory-hot: one service, primed once; every resolve hits the LRU.
    let hot = service(None, 16);
    hot.resolve_base("gzip", Scale::Tiny, far()).unwrap(); // prime
    g.bench_function("memory_hot", |b| {
        b.iter(|| {
            let r = hot.resolve_base("gzip", Scale::Tiny, far()).unwrap();
            black_box(r.artifact)
        })
    });
    assert_eq!(hot.guest_runs(), 1, "hot path never re-executed");

    g.finish();
}

fn bench_socket_round_trip(c: &mut Criterion) {
    let server = start(
        Arc::new(service(None, 16)),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue_depth: 8,
            accept_shards: 1,
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");

    c.bench_function("serve_ping_round_trip", |b| {
        b.iter(|| {
            let reply = client.request(Request::Ping, None).unwrap();
            black_box(reply)
        })
    });

    drop(client);
    server.shutdown();
}

criterion_group!(benches, bench_resolution_tiers, bench_socket_round_trip);
criterion_main!(benches);
