//! Serving simulation: drive the discrete-event simulator with cost
//! profiles **measured** from real trained models via the unified
//! `InferenceModel` API — `sample_costs()` prices each test input by the
//! execution path it actually took, and the resulting empirical histogram
//! is the service-time distribution, for the early-exit mixture and the
//! constant CBNet cost alike.
//!
//! Shows the deployment-level consequence of input-dependent latency: the
//! early-exit model's p99 explodes under load on hard-image-heavy traffic
//! while CBNet's stays flat — and how multi-server scheduling and bounded
//! admission reshape that trade-off. Every run is one serving pool: a
//! one-tier fleet under `AlwaysLocal`.
//!
//! Run with: `cargo run --release --example serving_simulation`

use cbnet_repro::prelude::*;
use edgesim::fleet::AlwaysLocal;

/// One Raspberry Pi pool of `servers` behind one queue, fed 20,000 Poisson
/// arrivals at `rate_hz`, run once.
fn serve(
    rate_hz: f64,
    profile: &CostProfile,
    servers: usize,
    scheduler: SchedulerKind,
    admission: AdmissionPolicy,
) -> FleetReport {
    let cfg = FleetConfig {
        tiers: vec![Tier {
            name: "device".into(),
            device: DeviceModel::raspberry_pi4(),
            servers,
            profile: profile.clone(),
            scheduler,
            admission,
            link: None,
        }],
        arrivals: ArrivalProcess::poisson(rate_hz),
        requests: 20_000,
        seed: 99,
        slo_ms: 50.0,
    };
    simulate_fleet(&cfg, &mut AlwaysLocal, None).expect("valid pool")
}

fn main() {
    println!("Serving simulation with measured cost profiles — FMNIST-like\n");

    let split = datasets::generate_pair(Family::FmnistLike, 2500, 500, 5);
    let cfg = PipelineConfig::for_family(Family::FmnistLike).quick(4);
    let mut arts = cbnet::pipeline::train_pipeline(&split.train, &cfg);

    let device = DeviceModel::raspberry_pi4();

    // Price both trained models through the one InferenceModel interface:
    // per-sample costs follow each input's actual exit decision, so the
    // empirical profile carries the network's real latency variance.
    let mut branchy = BranchyNetModel::new(&mut arts.branchynet);
    let branchy_profile = CostProfile::empirical(branchy.sample_costs(&split.test.images, &device));
    let cbnet_profile =
        CostProfile::empirical(arts.cbnet.sample_costs(&split.test.images, &device));

    println!(
        "trained BranchyNet: exit rate {:.1}%, easy path {:.2} ms, hard path {:.2} ms",
        branchy_profile.easy_fraction() * 100.0,
        branchy_profile.min_ms(),
        branchy_profile.max_ms()
    );
    println!(
        "trained CBNet: constant {:.2} ms/request\n",
        cbnet_profile.mean_ms()
    );

    println!("-- single server, FIFO (the legacy configuration) --");
    println!("arrival(Hz)  model       mean(ms)   p95(ms)   p99(ms)   utilization");
    println!("--------------------------------------------------------------------");
    for &rate in &[40.0, 120.0, 240.0] {
        for (name, profile) in [("BranchyNet", &branchy_profile), ("CBNet", &cbnet_profile)] {
            let r = serve(
                rate,
                profile,
                1,
                SchedulerKind::Fifo,
                AdmissionPolicy::Unbounded,
            );
            let pool = &r.tiers[0].serving;
            println!(
                "{rate:>10.0}  {name:<10} {:>8.2}  {:>8.2}  {:>8.2}  {:>6.2}",
                pool.mean_sojourn_ms, pool.p95_ms, pool.p99_ms, pool.utilization
            );
        }
    }

    // Spread the same heavy traffic over four servers under different
    // disciplines, with a bounded queue shedding load instead of letting
    // sojourns run away.
    println!("\n-- 4 servers @ 800 req/s, bounded queue (64) --");
    println!("policy    model       mean(ms)   p99(ms)   drop%   util/server");
    println!("----------------------------------------------------------------");
    for scheduler in [
        SchedulerKind::Fifo,
        SchedulerKind::ShortestService,
        SchedulerKind::Batch {
            max_batch: 8,
            max_wait_ms: 2.0 * branchy_profile.mean_ms(),
        },
    ] {
        for (name, profile) in [("BranchyNet", &branchy_profile), ("CBNet", &cbnet_profile)] {
            let r = serve(
                800.0,
                profile,
                4,
                scheduler,
                AdmissionPolicy::Bounded { max_queue: 64 },
            );
            let pool = &r.tiers[0];
            let utils: Vec<String> = pool
                .per_server_utilization
                .iter()
                .map(|u| format!("{u:.2}"))
                .collect();
            println!(
                "{:<8}  {name:<10} {:>8.2}  {:>8.2}  {:>5.1}   {}",
                scheduler.label(),
                pool.serving.mean_sojourn_ms,
                pool.serving.p99_ms,
                100.0 * r.drop_rate(),
                utils.join(" ")
            );
        }
    }
}
