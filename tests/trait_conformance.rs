//! Trait-conformance suite: the generic `runtime::evaluate()` path must
//! reproduce the legacy per-model evaluators' latency/accuracy/energy
//! semantics exactly, for every `InferenceModel` implementation.
//!
//! Training is not needed — the latency semantics are architecture + device
//! properties, and accuracy equivalence only needs *identical* predictions,
//! which freshly-initialised (seeded) networks provide.

use cbnet_repro::prelude::*;
use edgesim::EnergyReport;
use models::lightweight::extract_lightweight;
use models::subflow::SubFlow;
use runtime::evaluate_on;

fn small_split(family: Family, seed: u64) -> datasets::Split {
    datasets::generate_pair(family, 20, 60, seed)
}

#[test]
#[allow(deprecated)]
fn generic_evaluate_matches_legacy_classifier() {
    let mut rng = tensor::random::rng_from_seed(0);
    let mut net = build_lenet(&mut rng);
    let split = small_split(Family::MnistLike, 1);
    for dev in Device::ALL {
        let device = DeviceModel::preset(dev);
        let legacy =
            cbnet::evaluation::evaluate_classifier("LeNet", &mut net, &split.test, &device);
        let scenario = Scenario::new(Family::MnistLike, dev);
        let mut model = ClassifierModel::new("LeNet", &mut net);
        let generic = evaluate(&mut model, &split.test, &scenario);
        assert_eq!(generic.model, legacy.model);
        assert_eq!(generic.latency_ms, legacy.latency_ms, "{dev}: latency");
        assert_eq!(generic.accuracy_pct, legacy.accuracy_pct, "{dev}: accuracy");
        assert_eq!(generic.energy_j, legacy.energy_j, "{dev}: energy");
        assert_eq!(generic.exit_rate, None);
        // And the legacy latency semantics themselves: full-network price.
        assert_eq!(generic.latency_ms, device.price_network(&net).total_ms);
    }
}

#[test]
#[allow(deprecated)]
fn generic_evaluate_matches_legacy_branchynet() {
    let mut rng = tensor::random::rng_from_seed(2);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    // A mid-scale threshold so the evaluation set genuinely mixes exits.
    bn.set_threshold(1.2);
    let split = small_split(Family::FmnistLike, 3);
    for dev in Device::ALL {
        let device = DeviceModel::preset(dev);
        let legacy = cbnet::evaluation::evaluate_branchynet(&mut bn, &split.test, &device);
        let scenario = Scenario::new(Family::FmnistLike, dev);
        let mut model = BranchyNetModel::new(&mut bn);
        let generic = evaluate(&mut model, &split.test, &scenario);
        assert_eq!(generic.exit_rate, legacy.exit_rate, "{dev}: exit rate");
        assert!(
            (generic.latency_ms - legacy.latency_ms).abs() < 1e-9,
            "{dev}: latency {} vs legacy {}",
            generic.latency_ms,
            legacy.latency_ms
        );
        assert_eq!(generic.accuracy_pct, legacy.accuracy_pct, "{dev}: accuracy");
    }
}

#[test]
fn branchynet_mean_latency_is_exact_mixture() {
    // The documented semantics: every sample pays trunk + branch + sync;
    // non-exiting samples additionally pay the tail, weighted by the
    // *measured* exit rate of the evaluation set.
    let mut rng = tensor::random::rng_from_seed(4);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    bn.set_threshold(1.2);
    let split = small_split(Family::KmnistLike, 5);
    let device = DeviceModel::raspberry_pi4();

    let mut model = BranchyNetModel::new(&mut bn);
    let scenario = Scenario::new(Family::KmnistLike, Device::RaspberryPi4);
    let report = evaluate(&mut model, &split.test, &scenario);
    let rate = report.exit_rate.expect("BranchyNet reports an exit rate") as f64;

    let (trunk, branch, tail) = bn.stages();
    let easy = device.price_network(trunk).total_ms
        + device.price_network(branch).total_ms
        + device.exit_sync_ms;
    let tail_ms = device.price_network(tail).total_ms;
    let expect = easy + (1.0 - rate) * tail_ms;
    assert!(
        (report.latency_ms - expect).abs() < 1e-9,
        "mixture mean {} vs manual {expect}",
        report.latency_ms
    );
}

#[test]
fn branchynet_latency_between_all_early_and_none_early_bounds() {
    let mut rng = tensor::random::rng_from_seed(6);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let split = small_split(Family::MnistLike, 7);
    let scenario = Scenario::new(Family::MnistLike, Device::RaspberryPi4);

    bn.set_threshold(f32::INFINITY);
    let mut model = BranchyNetModel::new(&mut bn);
    let all_early = evaluate(&mut model, &split.test, &scenario).latency_ms;

    model.network_mut().set_threshold(0.0);
    let none_early = evaluate(&mut model, &split.test, &scenario).latency_ms;

    model.network_mut().set_threshold(1.2);
    let mixed = evaluate(&mut model, &split.test, &scenario);

    assert!(all_early < none_early);
    assert!(
        mixed.latency_ms >= all_early - 1e-12 && mixed.latency_ms <= none_early + 1e-12,
        "mixed latency {} outside [{all_early}, {none_early}]",
        mixed.latency_ms
    );
    // The profile's support brackets the report the same way.
    let profile = model.cost_profile(&scenario.device_model());
    assert!((profile.min_ms() - all_early).abs() < 1e-9);
    assert!((profile.max_ms() - none_early).abs() < 1e-9);
}

#[test]
#[allow(deprecated)]
fn generic_evaluate_matches_legacy_cbnet() {
    let mut rng = tensor::random::rng_from_seed(8);
    let bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let mut cb = CbnetModel {
        autoencoder: ConvertingAutoencoder::new(AutoencoderConfig::mnist(), &mut rng),
        lightweight: extract_lightweight(&bn),
    };
    let split = small_split(Family::MnistLike, 9);
    for dev in Device::ALL {
        let device = DeviceModel::preset(dev);
        let legacy = cbnet::evaluation::evaluate_cbnet(&mut cb, &split.test, &device);
        let scenario = Scenario::new(Family::MnistLike, dev);
        let generic = evaluate(&mut cb, &split.test, &scenario);
        assert_eq!(generic.latency_ms, legacy.latency_ms, "{dev}: latency");
        assert_eq!(generic.accuracy_pct, legacy.accuracy_pct, "{dev}: accuracy");
        assert_eq!(generic.energy_j, legacy.energy_j, "{dev}: energy");
        // CBNet's profile is constant: AE + lightweight, input-independent.
        let expect = device.price_specs(&cb.autoencoder.specs()).total_ms
            + device.price_network(&cb.lightweight).total_ms;
        assert_eq!(generic.latency_ms, expect, "{dev}: AE+lightweight sum");
    }
}

#[test]
fn subflow_profile_consistent_with_effective_flops_pricing() {
    let mut rng = tensor::random::rng_from_seed(10);
    let net = build_lenet(&mut rng);
    let split = small_split(Family::MnistLike, 11);
    let sf = SubFlow::new(net);
    let u = 0.75;
    let device = DeviceModel::raspberry_pi4();
    let expect = device
        .price_specs_with_flops(&sf.backbone().specs(), &sf.effective_layer_flops(u))
        .total_ms;
    let mut model = SubFlowModel::new(&sf, u);
    let report = evaluate_on(&mut model, &split.test, &device, "SubFlow check");
    assert_eq!(report.latency_ms, expect);
    assert_eq!(report.scenario, "SubFlow check");
}

#[test]
fn event_engine_single_fifo_reproduces_legacy_serving_report() {
    // The serving-stack conformance anchor: the discrete-event simulator as
    // one FIFO server behind an unbounded queue must reproduce the
    // closed-form simulator's ServingReport EXACTLY (same seed → same
    // percentiles, same energy), for every profile shape a model can
    // produce — including an Empirical histogram measured from a real
    // network's per-sample exit decisions.
    use edgesim::fleet::{AlwaysLocal, Tier};
    use edgesim::pipeline::{simulate, ServingConfig};
    use edgesim::{CostProfile, FleetConfig};

    let mut rng = tensor::random::rng_from_seed(14);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    bn.set_threshold(1.2);
    let split = small_split(Family::MnistLike, 15);
    let device = DeviceModel::raspberry_pi4();
    let mut model = BranchyNetModel::new(&mut bn);
    let measured = CostProfile::empirical(model.sample_costs(&split.test.images, &device));

    let profiles = [
        measured,
        model.cost_profile(&device),
        CostProfile::constant(2.4),
    ];
    for profile in profiles {
        for (rate, seed) in [(40.0, 11u64), (120.0, 7), (400.0, 99)] {
            let legacy = simulate(
                &device,
                &ServingConfig {
                    arrival_rate_hz: rate,
                    profile: profile.clone(),
                    requests: 3_000,
                    seed,
                },
            );
            let cfg = FleetConfig {
                tiers: vec![Tier {
                    name: "device".into(),
                    device,
                    servers: 1,
                    profile: profile.clone(),
                    scheduler: SchedulerKind::Fifo,
                    admission: AdmissionPolicy::Unbounded,
                    link: None,
                }],
                arrivals: edgesim::ArrivalProcess::poisson(rate),
                requests: 3_000,
                seed,
                slo_ms: 50.0,
            };
            let r = edgesim::simulate_fleet(&cfg, &mut AlwaysLocal, None).expect("valid pool");
            assert_serving_identical(
                &r.tiers[0].serving,
                &legacy,
                &format!("{profile:?} @ {rate}/s"),
            );
            assert_eq!(r.completed, r.offered);
            assert_eq!(r.dropped, 0);
        }
    }
}

fn assert_serving_identical(
    got: &edgesim::pipeline::ServingReport,
    want: &edgesim::pipeline::ServingReport,
    ctx: &str,
) {
    assert_eq!(got.mean_sojourn_ms, want.mean_sojourn_ms, "{ctx}: mean");
    assert_eq!(got.p50_ms, want.p50_ms, "{ctx}: p50");
    assert_eq!(got.p95_ms, want.p95_ms, "{ctx}: p95");
    assert_eq!(got.p99_ms, want.p99_ms, "{ctx}: p99");
    assert_eq!(got.utilization, want.utilization, "{ctx}: utilization");
    assert_eq!(got.makespan_ms, want.makespan_ms, "{ctx}: makespan");
    assert_eq!(got.energy_j, want.energy_j, "{ctx}: energy");
}

/// Run `cfg` through `FleetSim` and through the preserved pre-arena
/// `BinaryHeap` loop, and require bit-identical reports: per-tier
/// percentiles, per-server busy time, and every routing/outcome record.
fn assert_matches_reference(
    cfg: &edgesim::FleetConfig,
    policy: edgesim::OffloadPolicyKind,
    ctx: &str,
) {
    use edgesim::reference::simulate_fleet_reference;

    let got = edgesim::simulate_fleet(cfg, policy.build().as_mut(), None).expect("valid config");
    let want = simulate_fleet_reference(cfg, policy.build().as_mut()).expect("valid config");
    assert_eq!(got.tiers.len(), want.tiers.len(), "{ctx}: tier count");
    for (g, w) in got.tiers.iter().zip(&want.tiers) {
        let tctx = format!("{ctx}/{}", g.name);
        assert_eq!(g.name, w.name, "{tctx}: name");
        assert_serving_identical(&g.serving, &w.serving, &tctx);
        assert_eq!(g.routed, w.routed, "{tctx}: routed");
        assert_eq!(g.completed, w.completed, "{tctx}: completed");
        assert_eq!(g.dropped, w.dropped, "{tctx}: dropped");
        assert_eq!(g.per_server_busy_ms, w.per_server_busy_ms, "{tctx}: busy");
        assert_eq!(
            g.per_server_utilization, w.per_server_utilization,
            "{tctx}: util"
        );
    }
    assert_serving_identical(&got.end_to_end, &want.end_to_end, ctx);
    assert_eq!(got.offered, want.offered, "{ctx}: offered");
    assert_eq!(got.completed, want.completed, "{ctx}: completed");
    assert_eq!(got.dropped, want.dropped, "{ctx}: dropped");
    assert_eq!(got.offloaded, want.offloaded, "{ctx}: offloaded");
    assert_eq!(got.slo_violations, want.slo_violations, "{ctx}: slo");
    assert_eq!(got.records, want.records, "{ctx}: per-request records");
}

#[test]
fn index_engine_matches_reference_loop_bit_for_bit() {
    // The strongest pin on the flat-index rewrite as a single serving pool:
    // every scheduler × admission × arrival-process combination must
    // produce a report bit-identical to the preserved pre-arena BinaryHeap
    // loop — down to every per-request record (which server, which start
    // time, which outcome). The trace workload is deliberately tie-heavy
    // (bursts of zero-gap arrivals with a constant profile) so the heap's
    // time-then-sequence tie-break is exercised, not just assumed.
    let cells = one_tier_cells();
    assert_eq!(cells.len(), 36);
    for (ctx, cfg) in &cells {
        assert_matches_reference(cfg, edgesim::OffloadPolicyKind::AlwaysLocal, ctx);
    }
}

#[test]
fn index_fleet_matches_reference_loop_bit_for_bit() {
    // Same pin one level up: every offload policy × topology × arrival
    // process through FleetSim must reproduce the preserved pre-arena fleet
    // loop exactly.
    let cells = fleet_cells();
    assert_eq!(cells.len(), 18);
    for (ctx, cfg, policy) in &cells {
        assert_matches_reference(cfg, *policy, ctx);
    }
}

/// The serving conformance matrix as one-tier fleets under `AlwaysLocal`:
/// three workloads (Poisson, MMPP bursts, and a zero-gap tie trace with a
/// constant profile, so the (time, seq) tie-break is exercised) × FIFO /
/// shortest-service / batch × unbounded / 12-slot admission × 1 / 3 servers.
fn one_tier_cells() -> Vec<(String, edgesim::FleetConfig)> {
    use edgesim::fleet::Tier;
    use edgesim::{AdmissionPolicy, ArrivalProcess, CostProfile, FleetConfig, SchedulerKind};

    let tie_trace = ArrivalProcess::trace(vec![0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 5.0, 0.0]);
    let workloads = [
        (
            "poisson",
            ArrivalProcess::poisson(320.0),
            CostProfile::bimodal(2.0, 9.0, 0.7),
            41u64,
        ),
        (
            "mmpp",
            ArrivalProcess::mmpp(120.0, 900.0, 40.0, 12.0),
            CostProfile::bimodal(1.5, 6.0, 0.55),
            42,
        ),
        ("tie-trace", tie_trace, CostProfile::constant(3.0), 43),
    ];
    let schedulers = [
        SchedulerKind::Fifo,
        SchedulerKind::ShortestService,
        SchedulerKind::Batch {
            max_batch: 6,
            max_wait_ms: 3.0,
        },
    ];
    let admissions = [
        AdmissionPolicy::Unbounded,
        AdmissionPolicy::Bounded { max_queue: 12 },
    ];
    let mut cells = Vec::new();
    for (wname, arrivals, profile, seed) in &workloads {
        for scheduler in schedulers {
            for admission in admissions {
                for servers in [1usize, 3] {
                    let ctx = format!(
                        "{wname}/{}/{}/x{servers}",
                        scheduler.label(),
                        admission.label()
                    );
                    let cfg = FleetConfig {
                        tiers: vec![Tier {
                            name: "edge".into(),
                            device: DeviceModel::raspberry_pi4(),
                            servers,
                            profile: profile.clone(),
                            scheduler,
                            admission,
                            link: None,
                        }],
                        arrivals: arrivals.clone(),
                        requests: 2_500,
                        seed: *seed,
                        slo_ms: 30.0,
                    };
                    cells.push((ctx, cfg));
                }
            }
        }
    }
    cells
}

/// The fleet conformance matrix: a 3-tier (edge, batching CPU cloud over
/// WiFi, shortest-service GPU cloud over WAN) and a 2-tier topology × the
/// three offload policies × Poisson / MMPP / tie-trace arrivals.
fn fleet_cells() -> Vec<(String, edgesim::FleetConfig, edgesim::OffloadPolicyKind)> {
    use edgesim::fleet::{NetworkLink, Tier};
    use edgesim::{
        AdmissionPolicy, ArrivalProcess, CostProfile, FleetConfig, OffloadPolicyKind, SchedulerKind,
    };

    let three_tier = vec![
        Tier {
            name: "edge".into(),
            device: DeviceModel::raspberry_pi4(),
            servers: 2,
            profile: CostProfile::bimodal(4.0, 14.0, 0.7),
            scheduler: SchedulerKind::Fifo,
            admission: AdmissionPolicy::Bounded { max_queue: 12 },
            link: None,
        },
        Tier {
            name: "cloud-cpu".into(),
            device: DeviceModel::gci_cpu(),
            servers: 4,
            profile: CostProfile::bimodal(1.0, 3.5, 0.7),
            scheduler: SchedulerKind::Batch {
                max_batch: 4,
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
    ];
    let two_tier = vec![three_tier[0].clone(), three_tier[2].clone()];
    let policies = [
        OffloadPolicyKind::AlwaysLocal,
        OffloadPolicyKind::ExitConfidence,
        OffloadPolicyKind::SloSojourn { slo_ms: 18.0 },
    ];
    let arrivals = [
        ("poisson", ArrivalProcess::poisson(260.0)),
        ("mmpp", ArrivalProcess::mmpp(90.0, 700.0, 60.0, 15.0)),
        (
            "tie-trace",
            ArrivalProcess::trace(vec![0.0, 0.0, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0]),
        ),
    ];
    let mut cells = Vec::new();
    for (tname, tiers) in [("3-tier", &three_tier), ("2-tier", &two_tier)] {
        for policy in policies {
            for (aname, arrivals) in &arrivals {
                let ctx = format!("{tname}/{}/{aname}", policy.label());
                let cfg = FleetConfig {
                    tiers: tiers.clone(),
                    arrivals: arrivals.clone(),
                    requests: 2_500,
                    seed: 77,
                    slo_ms: 30.0,
                };
                cells.push((ctx, cfg, policy));
            }
        }
    }
    cells
}

/// 64-bit FNV-1a over little-endian words; f64s fold in by their bits.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn n(&mut self, n: usize) {
        self.word(n as u64);
    }
    fn serving(&mut self, s: &edgesim::pipeline::ServingReport) {
        for x in [
            s.mean_sojourn_ms,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.utilization,
            s.makespan_ms,
            s.energy_j,
        ] {
            self.f(x);
        }
    }
    fn histogram(&mut self, h: &obs::Histogram) {
        self.word(h.count());
        for x in [h.sum(), h.min(), h.max()] {
            self.f(x);
        }
        for (edge, count) in h.nonzero_buckets() {
            self.f(edge);
            self.word(count);
        }
    }
}

/// Run `cfg` once through `FleetSim` in `mode` and fold the whole outcome
/// into one digest: the event count, every tier and end-to-end report
/// field, every per-server vector, every per-request record, and (Lean)
/// every streamed histogram.
fn report_digest(
    cfg: &edgesim::FleetConfig,
    policy: edgesim::OffloadPolicyKind,
    mode: edgesim::RecordMode,
) -> u64 {
    use edgesim::fleet::FleetOutcome;

    let mut sim = edgesim::FleetSim::new(cfg, mode).expect("valid config");
    sim.run(policy.build().as_mut(), None)
        .expect("routes stay in range");
    let r = sim.report();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(sim.events_processed());
    for t in &r.tiers {
        for b in t.name.bytes() {
            h.word(u64::from(b));
        }
        h.serving(&t.serving);
        for n in [t.routed, t.completed, t.dropped, t.per_server_busy_ms.len()] {
            h.n(n);
        }
        for (&busy, &util) in t.per_server_busy_ms.iter().zip(&t.per_server_utilization) {
            h.f(busy);
            h.f(util);
        }
    }
    for n in [
        r.offered,
        r.completed,
        r.dropped,
        r.offloaded,
        r.slo_violations,
    ] {
        h.n(n);
    }
    h.f(r.slo_ms);
    h.serving(&r.end_to_end);
    h.n(r.records.len());
    for rec in &r.records {
        h.n(rec.request.id);
        h.f(rec.request.gateway_ms);
        h.f(rec.request.quantile);
        h.n(rec.tier);
        h.f(rec.service_ms);
        h.f(rec.transfer_ms);
        match rec.outcome {
            FleetOutcome::Completed {
                server,
                start_ms,
                finish_ms,
            } => {
                h.n(server);
                h.f(start_ms);
                h.f(finish_ms);
            }
            FleetOutcome::Dropped => h.word(u64::MAX),
        }
    }
    if let Some(lean) = sim.lean_stats() {
        for t in &lean.tiers {
            h.histogram(&t.sojourn_ms);
            h.histogram(&t.service_ms);
            h.histogram(&t.queue_depth);
        }
        h.histogram(&lean.end_to_end_ms);
    }
    h.0
}

/// `[Full, Lean]` report digests of every [`one_tier_cells`] cell, then
/// every [`fleet_cells`] cell, in matrix order. Recorded when the one-tier
/// cells still had a dedicated single-pool engine, and asserted there to
/// equal that engine's reports field for field.
const GOLDEN_DIGESTS: &[[u64; 2]] = &[
    [0x0062f55fd0930c03, 0x39937c876b669c38],
    [0x59c5926d01980b88, 0x621bfcad227ca8f2],
    [0xa0d76b74b536d8fe, 0x6c13a7a61966860e],
    [0x59c5926d01980b88, 0x621bfcad227ca8f2],
    [0xcabdd2089161ac1d, 0x1bc448037bb0a102],
    [0xff083d4272ff4475, 0xbd2943d0fb7f4847],
    [0x03bd94adbc03c3bd, 0x175b1aca39b02cfe],
    [0xff083d4272ff4475, 0xbd2943d0fb7f4847],
    [0x9d68891c2261b4c2, 0xa4d17f9f5312f7ee],
    [0x169595da0a298f09, 0x3367903bd2c3c5af],
    [0x9d68891c2261b4c2, 0xa4d17f9f5312f7ee],
    [0x169595da0a298f09, 0x3367903bd2c3c5af],
    [0xb7f73ca8dd910a02, 0xa16dfaa019225c8a],
    [0xe6ea634204cb005f, 0xe8e8fdabdd598e6e],
    [0x905dca0a6bddc618, 0x08715c72c532ae1e],
    [0x581d34d8ef5731cc, 0xdc38461088067d6a],
    [0x17e95d63fa3c3766, 0xac853958797867d9],
    [0x84b8626800531add, 0x6d519761c9e04b81],
    [0xb53a02c5272b0c12, 0x818b15babbd256f8],
    [0x84b8626800531add, 0x6d519761c9e04b81],
    [0xb1c107aeadf208ea, 0x0b27d7b67ceed3f2],
    [0xed242876e07d3e74, 0x65ae4b9b0bc7a795],
    [0xb1c107aeadf208ea, 0x0b27d7b67ceed3f2],
    [0xed242876e07d3e74, 0x65ae4b9b0bc7a795],
    [0xa5732574b26a4d0d, 0x25cd303411844d26],
    [0xd521fc4e71f14272, 0xe3e10d564a16f0b1],
    [0xe3af3a04c278b281, 0x9196a8a0be29ba7c],
    [0xe6abcfd5c092b689, 0x1b6f24fcd349ffc7],
    [0xa5732574b26a4d0d, 0x25cd303411844d26],
    [0xd521fc4e71f14272, 0xe3e10d564a16f0b1],
    [0xe3af3a04c278b281, 0x9196a8a0be29ba7c],
    [0xe6abcfd5c092b689, 0x1b6f24fcd349ffc7],
    [0x399a844b2e33a8c4, 0xe27819834b3239d6],
    [0x0bfe878b3d5fafec, 0x2fea444e378763ba],
    [0x399a844b2e33a8c4, 0xe27819834b3239d6],
    [0x0bfe878b3d5fafec, 0x2fea444e378763ba],
    [0x43fb6f34b910a56a, 0x9ab96f7d39757186],
    [0x8e16fb0238df9dd1, 0x704e96071e1c8a77],
    [0x2ec904316f49420c, 0x89025e95bdf3a89a],
    [0x5768c53562ab0e6e, 0xf159b94c5da454e1],
    [0xf52d066c26f41cb5, 0x04e8c865195c92cf],
    [0x69cbb0387d56dcf8, 0x84dc29555802c0de],
    [0x2ddbc00223e38f37, 0xea0ca2decee927be],
    [0x5333e1d6db02af7e, 0x9eb3e81d2a64fa62],
    [0x22cdc113c0245b74, 0x6130a97cde2c05c9],
    [0xabda8fc993941ddc, 0xd2fad7b626c4ed30],
    [0xe489ceece66d207d, 0x6f356271cde7a4e3],
    [0x0d3a8c52cf22629e, 0xae8581e8fd0336a8],
    [0xa28d4011f0e94026, 0x9987dd7ee49bdd86],
    [0xf367e07cad673f41, 0x10e089fa8d64552b],
    [0x5554e7086532250f, 0x28371bcd340d5a12],
    [0x3894dffea23d2584, 0x91b60493824be4cd],
    [0xd509c2ccf34743c2, 0xa480364cfb245d68],
    [0x68caddcf958f674d, 0x4c68da7a69effbc7],
];

#[test]
fn simulator_reports_match_golden_digests() {
    // Any change to what the simulator computes — an event reordered, a
    // float summed differently, a record or histogram bucket moved — shows
    // up here, for both record modes of both matrices.
    use edgesim::{OffloadPolicyKind, RecordMode};

    let cells: Vec<(String, edgesim::FleetConfig, OffloadPolicyKind)> = one_tier_cells()
        .into_iter()
        .map(|(ctx, cfg)| (ctx, cfg, OffloadPolicyKind::AlwaysLocal))
        .chain(fleet_cells())
        .collect();
    let got: Vec<[u64; 2]> = cells
        .iter()
        .map(|(_, cfg, policy)| {
            [RecordMode::Full, RecordMode::Lean].map(|mode| report_digest(cfg, *policy, mode))
        })
        .collect();
    let moved: Vec<&str> = cells
        .iter()
        .zip(&got)
        .zip(GOLDEN_DIGESTS)
        .filter(|((_, g), w)| g != w)
        .map(|(((ctx, _, _), _), _)| ctx.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|[full, lean]| format!("    [0x{full:016x}, 0x{lean:016x}],\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == GOLDEN_DIGESTS.len(),
        "report digests moved in {moved:?}; this build computes:\n{table}"
    );
}

#[test]
fn sample_costs_mean_matches_cost_profile_mean() {
    // The two pricing paths must agree: the empirical histogram measured
    // from per-sample exit decisions carries the same mean as the bimodal
    // profile parameterised by the measured exit rate (both reflect the
    // same prediction pass).
    let mut rng = tensor::random::rng_from_seed(16);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    bn.set_threshold(1.2);
    let split = small_split(Family::KmnistLike, 17);
    for dev in Device::ALL {
        let device = DeviceModel::preset(dev);
        let mut model = BranchyNetModel::new(&mut bn);
        let costs = model.sample_costs(&split.test.images, &device);
        assert_eq!(costs.len(), split.test.len());
        let empirical = edgesim::CostProfile::empirical(costs);
        let bimodal = model.cost_profile(&device);
        assert!(
            (empirical.mean_ms() - bimodal.mean_ms()).abs() < 1e-9,
            "{dev}: empirical mean {} vs bimodal mean {}",
            empirical.mean_ms(),
            bimodal.mean_ms()
        );
        // Fraction equality only holds when the set genuinely mixes exits
        // (an all-hard batch has a single-point histogram whose "easy"
        // share is 1 by the min-latency convention).
        let rate = model.exit_rate().expect("measured") as f64;
        if rate > 0.0 && rate < 1.0 {
            assert!((empirical.easy_fraction() - bimodal.easy_fraction()).abs() < 1e-9);
        }
    }
}

#[test]
fn report_energy_follows_device_power_model() {
    // Energy in a report must equal EnergyReport::from_latency of its own
    // latency — evaluate() may not invent its own accounting.
    let mut rng = tensor::random::rng_from_seed(12);
    let mut net = build_lenet(&mut rng);
    let split = small_split(Family::MnistLike, 13);
    for dev in Device::ALL {
        let device = DeviceModel::preset(dev);
        let scenario = Scenario::new(Family::MnistLike, dev);
        let mut model = ClassifierModel::new("LeNet", &mut net);
        let r = evaluate(&mut model, &split.test, &scenario);
        let expect = EnergyReport::from_latency(&device, r.latency_ms).energy_j;
        assert_eq!(r.energy_j, expect, "{dev}");
    }
}
