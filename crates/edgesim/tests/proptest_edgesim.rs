//! Property-based tests for the device, power and queueing models, and for
//! the discrete-event simulator as a single serving pool (FIFO order,
//! sojourn ≥ service, conservation, closed-form equivalence).

use edgesim::fleet::{AlwaysLocal, FleetOutcome, Tier};
use edgesim::pipeline::{simulate, ServingConfig};
use edgesim::{
    simulate_fleet, AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel, FleetConfig,
    FleetReport, PowerModel, SchedulerKind,
};
use nn::{ActivationKind, LayerSpec};
use proptest::prelude::*;

/// One pool of `servers` on `device` behind one queue, fed Poisson arrivals
/// at `rate_hz` — the simulator's one-tier configuration — run once.
fn serve_pool(
    device: DeviceModel,
    servers: usize,
    scheduler: SchedulerKind,
    admission: AdmissionPolicy,
    w: &ServingConfig,
) -> FleetReport {
    let cfg = FleetConfig {
        tiers: vec![Tier {
            name: "device".into(),
            device,
            servers,
            profile: w.profile.clone(),
            scheduler,
            admission,
            link: None,
        }],
        arrivals: ArrivalProcess::poisson(w.arrival_rate_hz),
        requests: w.requests,
        seed: w.seed,
        slo_ms: 50.0,
    };
    simulate_fleet(&cfg, &mut AlwaysLocal, None).expect("valid pool")
}

fn arbitrary_specs() -> impl Strategy<Value = Vec<LayerSpec>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..512, 1usize..512).prop_map(|(i, o)| LayerSpec::Dense {
                in_dim: i,
                out_dim: o
            }),
            (1usize..64).prop_map(|d| LayerSpec::Activation {
                kind: ActivationKind::Relu,
                dim: d
            }),
            (1usize..8, 2usize..8).prop_map(|(c, s)| LayerSpec::MaxPool2 {
                channels: c,
                in_h: s * 2,
                in_w: s * 2,
                window: 2
            }),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn latency_is_positive_and_additive(specs in arbitrary_specs()) {
        for dev in Device::ALL {
            let m = DeviceModel::preset(dev);
            let b = m.price_specs(&specs);
            prop_assert!(b.total_ms > 0.0);
            let sum: f64 = b.per_layer_ms.iter().map(|(_, t)| t).sum();
            prop_assert!((sum - b.total_ms).abs() < 1e-9);
            // Adding a layer never reduces latency.
            let mut bigger = specs.clone();
            bigger.push(LayerSpec::Dense { in_dim: 8, out_dim: 8 });
            prop_assert!(m.price_specs(&bigger).total_ms > b.total_ms);
        }
    }

    #[test]
    fn device_ordering_holds_for_any_architecture(specs in arbitrary_specs()) {
        // RPi is the slowest platform for every architecture in our presets.
        let rpi = DeviceModel::raspberry_pi4().price_specs(&specs).total_ms;
        let gci = DeviceModel::gci_cpu().price_specs(&specs).total_ms;
        prop_assert!(rpi > gci, "rpi {rpi} !> gci {gci}");
    }

    #[test]
    fn mixture_bounded_by_endpoints(easy in 0.01f64..10.0, tail in 0.01f64..10.0, rate in 0.0f64..1.0) {
        let m = DeviceModel::raspberry_pi4();
        let v = m.early_exit_mixture_ms(easy, tail, rate);
        prop_assert!(v >= easy - 1e-12);
        prop_assert!(v <= easy + tail + 1e-12);
    }

    #[test]
    fn power_within_idle_peak_envelope(u in 0.0f64..1.0) {
        for dev in Device::ALL {
            let p = PowerModel::for_device(dev);
            let w = p.watts(u);
            prop_assert!(w >= p.idle_watts() - 1e-9, "{dev}: {w} below idle");
            prop_assert!(w <= p.watts(1.0) + 1e-9);
        }
    }

    #[test]
    fn energy_scales_linearly_with_latency(lat in 0.1f64..100.0) {
        let m = DeviceModel::gci_cpu();
        let r1 = edgesim::EnergyReport::from_latency(&m, lat);
        let r2 = edgesim::EnergyReport::from_latency(&m, 2.0 * lat);
        prop_assert!((r2.energy_j - 2.0 * r1.energy_j).abs() < 1e-9);
    }

    #[test]
    fn queueing_mean_at_least_service_mean(
        rate in 10.0f64..200.0, easy_frac in 0.0f64..1.0, seed in 0u64..500
    ) {
        let m = DeviceModel::raspberry_pi4();
        let profile = CostProfile::bimodal(2.0, 13.0, easy_frac);
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            profile: profile.clone(),
            requests: 2_000,
            seed,
        };
        let r = simulate(&m, &cfg);
        // Sojourn ≥ service on average; allow sampling slack on the mix.
        prop_assert!(r.mean_sojourn_ms >= profile.mean_ms() * 0.8,
            "mean sojourn {} below service mean {}", r.mean_sojourn_ms, profile.mean_ms());
        prop_assert!(r.utilization <= 1.0 + 1e-9);
        prop_assert!(r.p99_ms >= r.p50_ms);
        prop_assert!(r.energy_j > 0.0);
    }

    #[test]
    fn faster_service_reduces_sojourn(rate in 20.0f64..100.0, seed in 0u64..500) {
        let m = DeviceModel::raspberry_pi4();
        let base = ServingConfig {
            arrival_rate_hz: rate,
            profile: CostProfile::constant(4.0),
            requests: 3_000,
            seed,
        };
        let slow = simulate(&m, &base);
        let fast = simulate(&m, &ServingConfig { profile: CostProfile::constant(2.0), ..base });
        prop_assert!(fast.mean_sojourn_ms < slow.mean_sojourn_ms);
    }

    #[test]
    fn cost_profile_sampling_matches_configured_mixture(
        easy in 0.5f64..5.0, extra in 0.5f64..20.0, frac in 0.0f64..1.0, seed in 0u64..500
    ) {
        // Empirical mean and mixture of inverse-CDF samples must track the
        // analytic mean_ms()/easy_fraction() of the profile.
        use rand::{Rng, SeedableRng};
        let hard = easy + extra;
        let p = CostProfile::bimodal(easy, hard, frac);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 20_000;
        let mut sum = 0.0;
        let mut easy_count = 0usize;
        for _ in 0..n {
            let s = p.sample(rng.gen::<f64>());
            prop_assert!(s == easy || s == hard, "sample {s} outside support");
            if s == easy { easy_count += 1; }
            sum += s;
        }
        let mean = sum / n as f64;
        prop_assert!((mean - p.mean_ms()).abs() < 0.15 * (hard - easy).max(0.2),
            "empirical mean {mean} vs analytic {}", p.mean_ms());
        let measured_frac = easy_count as f64 / n as f64;
        prop_assert!((measured_frac - frac).abs() < 0.02,
            "empirical easy fraction {measured_frac} vs configured {frac}");

        // Constant profiles: every sample is the mean.
        let c = CostProfile::constant(easy);
        for _ in 0..100 {
            prop_assert!((c.sample(rng.gen::<f64>()) - easy).abs() < 1e-12);
        }
    }

    #[test]
    fn one_fifo_server_equals_closed_form(
        rate in 10.0f64..300.0, easy_frac in 0.0f64..1.0, seed in 0u64..500
    ) {
        // The serving-stack conformance property: one FIFO server behind an
        // unbounded queue reproduces the closed-form simulator bit for bit
        // — same seed, same percentiles, same energy.
        let m = DeviceModel::raspberry_pi4();
        let w = ServingConfig {
            arrival_rate_hz: rate,
            profile: CostProfile::bimodal(2.0, 13.0, easy_frac),
            requests: 1_500,
            seed,
        };
        let legacy = simulate(&m, &w);
        let r = serve_pool(m, 1, SchedulerKind::Fifo, AdmissionPolicy::Unbounded, &w);
        let pool = &r.tiers[0].serving;
        prop_assert_eq!(pool.mean_sojourn_ms, legacy.mean_sojourn_ms);
        prop_assert_eq!(pool.p50_ms, legacy.p50_ms);
        prop_assert_eq!(pool.p95_ms, legacy.p95_ms);
        prop_assert_eq!(pool.p99_ms, legacy.p99_ms);
        prop_assert_eq!(pool.utilization, legacy.utilization);
        prop_assert_eq!(pool.makespan_ms, legacy.makespan_ms);
        prop_assert_eq!(pool.energy_j, legacy.energy_j);
        prop_assert_eq!(r.dropped, 0);
    }

    #[test]
    fn pool_preserves_fifo_order_per_server(
        rate in 50.0f64..400.0, servers in 1usize..5, seed in 0u64..500
    ) {
        // Under the FIFO discipline, the requests any one server runs must
        // start in arrival (id) order — parallel servers may interleave
        // globally, but never reorder within a server.
        let w = ServingConfig {
            arrival_rate_hz: rate,
            profile: CostProfile::bimodal(2.0, 13.0, 0.85),
            requests: 1_200,
            seed,
        };
        let r = serve_pool(
            DeviceModel::raspberry_pi4(),
            servers,
            SchedulerKind::Fifo,
            AdmissionPolicy::Unbounded,
            &w,
        );
        let mut last_start = vec![f64::NEG_INFINITY; servers];
        let mut last_id = vec![0usize; servers];
        let mut seen = vec![false; servers];
        for rec in &r.records {
            let FleetOutcome::Completed { server, start_ms, .. } = rec.outcome else {
                panic!("unbounded admission never drops");
            };
            if seen[server] {
                prop_assert!(start_ms >= last_start[server],
                    "server {server} started {start_ms} before {}", last_start[server]);
                prop_assert!(rec.request.id > last_id[server],
                    "server {server} reordered ids {} -> {}", last_id[server], rec.request.id);
            }
            seen[server] = true;
            last_start[server] = start_ms;
            last_id[server] = rec.request.id;
        }
    }

    #[test]
    fn pool_sojourn_at_least_service_per_request(
        rate in 50.0f64..600.0, servers in 1usize..5, sched in 0usize..3, seed in 0u64..500
    ) {
        // Every completed request's sojourn covers at least its own service
        // requirement, whatever the discipline (a batch is as slow as its
        // slowest member, so members never finish early).
        let scheduler = [
            SchedulerKind::Fifo,
            SchedulerKind::ShortestService,
            SchedulerKind::Batch { max_batch: 4, max_wait_ms: 1.5 },
        ][sched];
        let w = ServingConfig {
            arrival_rate_hz: rate,
            profile: CostProfile::bimodal(0.4, 1.4, 0.75),
            requests: 1_000,
            seed,
        };
        let r = serve_pool(
            DeviceModel::gci_cpu(),
            servers,
            scheduler,
            AdmissionPolicy::Unbounded,
            &w,
        );
        for rec in &r.records {
            let FleetOutcome::Completed { start_ms, finish_ms, .. } = rec.outcome else {
                panic!("unbounded admission never drops");
            };
            prop_assert!(start_ms >= rec.request.gateway_ms - 1e-9);
            prop_assert!(finish_ms - rec.request.gateway_ms
                >= rec.service_ms - 1e-9,
                "request {} sojourn below its own service", rec.request.id);
        }
    }

    #[test]
    fn pool_conserves_requests(
        rate in 100.0f64..800.0, servers in 1usize..4, max_queue in 1usize..64, seed in 0u64..500
    ) {
        // Conservation under admission control: every generated arrival is
        // either completed or dropped, exactly once, and the report's
        // counters agree with the per-request records.
        let w = ServingConfig {
            arrival_rate_hz: rate,
            profile: CostProfile::bimodal(2.0, 13.0, 0.6),
            requests: 1_000,
            seed,
        };
        let r = serve_pool(
            DeviceModel::raspberry_pi4(),
            servers,
            SchedulerKind::Fifo,
            AdmissionPolicy::Bounded { max_queue },
            &w,
        );
        prop_assert_eq!(r.offered, 1_000);
        prop_assert_eq!(r.records.len(), 1_000);
        let completed = r.records.iter()
            .filter(|rec| matches!(rec.outcome, FleetOutcome::Completed { .. }))
            .count();
        let dropped = r.records.len() - completed;
        prop_assert_eq!(completed, r.completed);
        prop_assert_eq!(dropped, r.dropped);
        prop_assert_eq!(r.completed + r.dropped, r.offered);
        prop_assert!(r.tiers[0].per_server_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }
}
