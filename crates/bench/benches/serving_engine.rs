//! Criterion benches of the discrete-event simulator's hot path: event-heap
//! throughput of one serving pool as the server count (and so the
//! completion-event fan-out) grows, the scheduler disciplines, and tiered
//! fleets on top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgesim::fleet::{simulate_fleet, AlwaysLocal, FleetSim, NetworkLink, Tier};
use edgesim::reference::simulate_fleet_reference;
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel, FleetConfig,
    OffloadPolicyKind, RecordMode, SchedulerKind,
};

const REQUESTS: usize = 10_000;

/// One Raspberry Pi pool of `servers` behind a 256-slot queue: a one-tier
/// fleet.
fn pool_config(servers: usize, scheduler: SchedulerKind) -> FleetConfig {
    FleetConfig {
        tiers: vec![Tier {
            name: "device".into(),
            device: DeviceModel::raspberry_pi4(),
            servers,
            profile: CostProfile::bimodal(2.0, 13.0, 0.9),
            scheduler,
            admission: AdmissionPolicy::Bounded { max_queue: 256 },
            link: None,
        }],
        // Scale the arrival rate with the pool so per-server pressure (and
        // so queue depth, the heap's load) stays comparable.
        arrivals: ArrivalProcess::poisson(180.0 * servers as f64),
        requests: REQUESTS,
        seed: 7,
        slo_ms: 50.0,
    }
}

fn bench_engine_vs_servers(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_heap");
    g.sample_size(20);
    for servers in [1usize, 2, 4, 8, 16] {
        let cfg = pool_config(servers, SchedulerKind::Fifo);
        g.throughput(Throughput::Elements(REQUESTS as u64));
        g.bench_with_input(BenchmarkId::new("fifo", servers), &cfg, |b, cfg| {
            b.iter(|| simulate_fleet(cfg, &mut AlwaysLocal, None).expect("valid pool"));
        });
    }
    g.finish();
}

fn bench_engine_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_schedulers");
    g.sample_size(20);
    for (label, scheduler) in [
        ("fifo", SchedulerKind::Fifo),
        ("ses", SchedulerKind::ShortestService),
        (
            "batch8",
            SchedulerKind::Batch {
                max_batch: 8,
                max_wait_ms: 4.0,
            },
        ),
    ] {
        let cfg = pool_config(4, scheduler);
        g.throughput(Throughput::Elements(REQUESTS as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| simulate_fleet(cfg, &mut AlwaysLocal, None).expect("valid pool"));
        });
    }
    g.finish();
}

fn bench_fleet(c: &mut Criterion) {
    let cfg = FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 4,
                profile: CostProfile::bimodal(2.0, 13.0, 0.8),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 128 },
                link: None,
            },
            Tier {
                name: "cloud".into(),
                device: DeviceModel::preset(Device::GciCpu),
                servers: 2,
                profile: CostProfile::bimodal(0.2, 1.3, 0.8),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 256 },
                link: Some(NetworkLink::wifi(3136)),
            },
        ],
        arrivals: ArrivalProcess::mmpp(400.0, 2800.0, 300.0, 100.0),
        requests: REQUESTS,
        seed: 13,
        slo_ms: 40.0,
    };
    let mut g = c.benchmark_group("fleet");
    g.sample_size(20);
    for policy in [
        OffloadPolicyKind::AlwaysLocal,
        OffloadPolicyKind::ExitConfidence,
        OffloadPolicyKind::SloSojourn { slo_ms: 40.0 },
    ] {
        g.throughput(Throughput::Elements(REQUESTS as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    simulate_fleet(cfg, policy.build().as_mut(), None).expect("valid config")
                });
            },
        );
    }
    g.finish();
}

/// Steady-state index loop (one `FleetSim`, `reset()` + `run()` per
/// iteration, Lean records — the zero-allocation loop the guard pins)
/// against the preserved pre-arena `BinaryHeap` loop on the same
/// three-tier configuration. The two runs are bit-identical by the
/// conformance suite, so the gap is pure event-loop overhead.
fn bench_fleet_steady_state(c: &mut Criterion) {
    let cfg = FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 2,
                profile: CostProfile::bimodal(4.0, 14.0, 0.7),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 64 },
                link: None,
            },
            Tier {
                name: "cloud-cpu".into(),
                device: DeviceModel::gci_cpu(),
                servers: 4,
                profile: CostProfile::bimodal(1.0, 3.5, 0.7),
                scheduler: SchedulerKind::Batch {
                    max_batch: 8,
                    max_wait_ms: 1.5,
                },
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wifi(16 * 1024)),
            },
            Tier {
                name: "cloud-gpu".into(),
                device: DeviceModel::gci_gpu(),
                servers: 1,
                profile: CostProfile::constant(0.8),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wan(16 * 1024)),
            },
        ],
        arrivals: ArrivalProcess::poisson(500.0),
        requests: REQUESTS,
        seed: 29,
        slo_ms: 30.0,
    };
    let policy = OffloadPolicyKind::SloSojourn { slo_ms: 18.0 };

    let mut g = c.benchmark_group("fleet_steady_state");
    g.sample_size(20);
    g.throughput(Throughput::Elements(REQUESTS as u64));

    let mut index_policy = policy.build();
    let mut sim = FleetSim::new(&cfg, RecordMode::Lean).expect("valid fleet config");
    g.bench_function("index_lean", |b| {
        b.iter(|| {
            sim.reset();
            sim.run(index_policy.as_mut(), None)
                .expect("routes in range");
        });
    });

    let mut ref_policy = policy.build();
    g.bench_function("reference", |b| {
        b.iter(|| simulate_fleet_reference(&cfg, ref_policy.as_mut()).expect("valid config"));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine_vs_servers,
    bench_engine_schedulers,
    bench_fleet,
    bench_fleet_steady_state
);
criterion_main!(benches);
