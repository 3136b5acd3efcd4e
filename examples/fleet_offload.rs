//! Tiered edge–cloud offload: price a trained early-exit model on two
//! devices through the one `InferenceModel` API, wire them into a
//! two-tier `edgesim::fleet` topology (Raspberry Pi edge pool, GCI cloud
//! pool over a WiFi uplink), and compare offload policies under steady
//! Poisson traffic and an equal-mean-rate bursty MMPP.
//!
//! The deployment-level punchline of the paper's early-exit premise: the
//! hard-path fraction that misses the early exit is exactly the traffic
//! worth shipping to a stronger tier — and under bursts, routing on
//! *predicted* sojourn keeps the SLO where static routing cannot.
//!
//! Run with: `cargo run --release --example fleet_offload`

use cbnet_repro::prelude::*;
use edgesim::fleet::{NetworkLink, Tier};
use edgesim::{simulate_fleet, ArrivalProcess, FleetConfig, OffloadPolicyKind};
use runtime::InferenceModel;

fn main() {
    println!("Fleet offload simulation with measured cost profiles — MNIST-like\n");

    let split = datasets::generate_pair(Family::MnistLike, 2500, 500, 5);
    let cfg = PipelineConfig::for_family(Family::MnistLike).quick(4);
    let mut arts = cbnet::pipeline::train_pipeline(&split.train, &cfg);
    let mut branchy = BranchyNetModel::new(&mut arts.branchynet);

    // The same trained network, priced per input on each tier's device: the
    // shared difficulty quantile means a hard image is hard everywhere.
    let edge_device = DeviceModel::raspberry_pi4();
    let cloud_device = DeviceModel::preset(Device::GciCpu);
    let edge_profile =
        CostProfile::empirical(branchy.sample_costs(&split.test.images, &edge_device));
    let cloud_profile =
        CostProfile::empirical(branchy.sample_costs(&split.test.images, &cloud_device));
    let payload = branchy.offload_payload_bytes(&split.test.images);

    println!(
        "trained BranchyNet: exit rate {:.1}%, edge {:.2}..{:.2} ms, cloud {:.2}..{:.2} ms,",
        edge_profile.easy_fraction() * 100.0,
        edge_profile.min_ms(),
        edge_profile.max_ms(),
        cloud_profile.min_ms(),
        cloud_profile.max_ms(),
    );
    let link = NetworkLink::wifi(payload);
    println!(
        "offload payload {payload} B over WiFi -> {:.2} ms per transfer\n",
        link.transfer_ms()
    );

    let slo_ms = 3.0 * edge_profile.max_ms();
    let fleet = |arrivals: ArrivalProcess| FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: edge_device,
                servers: 2,
                profile: edge_profile.clone(),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 128 },
                link: None,
            },
            Tier {
                name: "cloud".into(),
                device: cloud_device,
                servers: 2,
                profile: cloud_profile.clone(),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 256 },
                link: Some(link),
            },
        ],
        arrivals,
        requests: 20_000,
        seed: 99,
        slo_ms,
    };

    // 1.1× the edge pool's capacity: overloaded without offloading.
    let rate_hz = 1.1 * 2.0 * 1000.0 / edge_profile.mean_ms();
    println!("2 edge servers @ {rate_hz:.0} req/s (1.1x edge capacity), SLO {slo_ms:.1} ms");
    println!("arrivals  policy     offload%  drop%  slo_viol%  p99(ms)  edge_util  cloud_util");
    println!("--------------------------------------------------------------------------------");
    for (name, arrivals) in [
        ("poisson", ArrivalProcess::poisson(rate_hz)),
        (
            "mmpp",
            ArrivalProcess::mmpp(0.4 * rate_hz, 2.8 * rate_hz, 300.0, 100.0),
        ),
    ] {
        for policy in [
            OffloadPolicyKind::AlwaysLocal,
            OffloadPolicyKind::ExitConfidence,
            OffloadPolicyKind::SloSojourn { slo_ms },
        ] {
            let r = simulate_fleet(&fleet(arrivals.clone()), policy.build().as_mut(), None)
                .expect("valid fleet");
            println!(
                "{name:<8}  {:<9} {:>7.1}  {:>5.1}  {:>8.1}  {:>7.2}  {:>9.2}  {:>10.2}",
                policy.label(),
                100.0 * r.offload_rate(),
                100.0 * r.drop_rate(),
                100.0 * r.slo_violation_rate(),
                r.end_to_end.p99_ms,
                r.tiers[0].serving.utilization,
                r.tiers[1].serving.utilization,
            );
        }
    }
    println!("\nexit_conf ships the measured hard-path fraction; slo only pays the link when");
    println!("the predicted local sojourn breaks the budget — watch the gap widen under mmpp.");
}
