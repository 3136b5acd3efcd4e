//! Tiered edge–cloud fleet sweep (extension): topology × offload policy ×
//! arrival process × load, with every tier priced by **measured** per-sample
//! costs — `ModelRegistry::tier_profiles` runs the same trained comparator
//! on each tier's device (Raspberry Pi edge, GCI CPU cloud, GCI GPU cloud)
//! and each tier prices the shared difficulty quantile through its own
//! empirical histogram. Network links carry the model's real input payload
//! (`InferenceModel::offload_payload_bytes`).
//!
//! The sweep stresses three topologies (edge-only; edge + CPU cloud over
//! WiFi; edge + GPU cloud over WAN) under three offload policies
//! (always-local, exit-confidence hard-path shipping, SLO-predicted
//! sojourn) and two arrival processes (Poisson and a bursty MMPP of equal
//! mean rate), at offered loads anchored to the edge tier's capacity.
//!
//! Every configuration is validated **up front** via `FleetConfig::
//! try_valid` — a bad cell reports an error and aborts the sweep before any
//! simulation runs, instead of panicking mid-matrix — and unstable
//! always-local cells are flagged on stderr.
//!
//! Output: an aligned table on stdout plus the same rows as CSV (between
//! `--- CSV ---` markers) with per-tier utilization, offload-rate and
//! SLO-violation-rate columns.
//!
//! Env knobs: `CBNET_SCALE=small` shrinks training; `CBNET_FLEET_SMOKE=1`
//! shrinks the sweep matrix (one family, one load, fewer requests) for CI
//! smoke runs. With `CBNET_OBS=metrics|trace` every cell runs observed:
//! per-tier metrics accumulate across the whole matrix into `METRICS.json`
//! (path override: `CBNET_METRICS_JSON`) and, under `trace`, the **last**
//! cell's span ring is exported to `TRACE.jsonl` (`CBNET_TRACE_JSONL`) —
//! one full per-request trace being more useful than an interleaved soup
//! of every cell.

use bench::{banner, require_trained_models, scale_from_env};
use cbnet::registry::{ModelKind, ModelRegistry};
use cbnet::table::TextTable;
use datasets::Family;
use edgesim::fleet::{simulate_fleet, NetworkLink, Tier};
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel, FleetConfig,
    OffloadPolicyKind, SchedulerKind, SimObserver,
};
use obs::{MetricsRegistry, ObsMode};

/// Offered loads swept, as fractions of the edge tier's aggregate capacity
/// (`servers × 1000 / E[S_edge]`); 1.2 overloads the edge on purpose —
/// that is where offloading earns its keep.
const LOADS: [f64; 3] = [0.6, 0.9, 1.2];
/// Requests simulated per cell (full run).
const REQUESTS: usize = 20_000;
/// Models priced through the fleet: the early-exit comparator (offloadable
/// hard path) and CBNet (constant cost — exit-confidence never offloads).
const MODELS: [ModelKind; 2] = [ModelKind::BranchyNet, ModelKind::Cbnet];

/// One fleet topology: a name and the tiers it builds from per-device
/// profiles. `profiles` is indexed by [`Device::ALL`] order.
struct Topology {
    name: &'static str,
    build: fn(&[CostProfile], u64) -> Vec<Tier>,
}

fn tier(
    name: &str,
    device: Device,
    servers: usize,
    profile: &CostProfile,
    max_queue: usize,
    link: Option<NetworkLink>,
) -> Tier {
    Tier {
        name: name.into(),
        device: DeviceModel::preset(device),
        servers,
        profile: profile.clone(),
        scheduler: SchedulerKind::Fifo,
        admission: AdmissionPolicy::Bounded { max_queue },
        link,
    }
}

/// `profiles[i]` is the model's measured profile on `Device::ALL[i]`
/// (RPi, GCI CPU, GCI GPU).
const TOPOLOGIES: [Topology; 3] = [
    Topology {
        name: "edge4",
        build: |p, _payload| vec![tier("edge", Device::RaspberryPi4, 4, &p[0], 128, None)],
    },
    Topology {
        name: "edge4+cpu2",
        build: |p, payload| {
            vec![
                tier("edge", Device::RaspberryPi4, 4, &p[0], 128, None),
                tier(
                    "cpu",
                    Device::GciCpu,
                    2,
                    &p[1],
                    256,
                    Some(NetworkLink::wifi(payload)),
                ),
            ]
        },
    },
    Topology {
        name: "edge4+gpu1",
        build: |p, payload| {
            vec![
                tier("edge", Device::RaspberryPi4, 4, &p[0], 128, None),
                tier(
                    "gpu",
                    Device::GciGpu,
                    1,
                    &p[2],
                    256,
                    Some(NetworkLink::wan(payload)),
                ),
            ]
        },
    },
];

struct Cell {
    family: Family,
    kind: ModelKind,
    topology: &'static str,
    policy: OffloadPolicyKind,
    anchor_load: f64,
    fleet: FleetConfig,
}

fn main() {
    banner(
        "Fleet sweep",
        "topology × offload policy × arrival process × load, tiered edge–cloud",
    );
    let scale = scale_from_env();
    let smoke = std::env::var("CBNET_FLEET_SMOKE").as_deref() == Ok("1");
    let families: &[Family] = if smoke {
        &[Family::MnistLike]
    } else {
        &Family::ALL
    };
    let loads: &[f64] = if smoke { &[0.9] } else { &LOADS };
    let requests = if smoke { 3_000 } else { REQUESTS };

    // Phase 1: train once per family, measure per-device profiles, and lay
    // out every cell of the matrix.
    let mut cells: Vec<Cell> = Vec::new();
    for &family in families {
        let mut reg = ModelRegistry::train(family, &scale);
        require_trained_models(&mut reg);
        let test_images = reg.split().test.images.clone();
        for kind in MODELS {
            let profiles = reg.tier_profiles(kind, &test_images, &Device::ALL);
            let payload = reg.model(kind).offload_payload_bytes(&test_images);
            let edge_mean_ms = profiles[0].mean_ms();
            // The SLO: three times the edge tier's worst-case solo service —
            // generous at light load, binding once queues build.
            let slo_ms = 3.0 * profiles[0].max_ms();
            for topology in &TOPOLOGIES {
                let tiers = (topology.build)(&profiles, payload);
                let edge_capacity_hz = tiers[0].servers as f64 * 1000.0 / edge_mean_ms;
                for &load in loads {
                    let rate_hz = load * edge_capacity_hz;
                    // Equal mean rate, very different shape: the MMPP spends
                    // 3/4 of its time at 0.4× and bursts at 2.8×.
                    let arrival_processes = [
                        ArrivalProcess::poisson(rate_hz),
                        ArrivalProcess::mmpp(0.4 * rate_hz, 2.8 * rate_hz, 300.0, 100.0),
                    ];
                    for arrivals in arrival_processes {
                        for policy in [
                            OffloadPolicyKind::AlwaysLocal,
                            OffloadPolicyKind::ExitConfidence,
                            OffloadPolicyKind::SloSojourn { slo_ms },
                        ] {
                            cells.push(Cell {
                                family,
                                kind,
                                topology: topology.name,
                                policy,
                                anchor_load: load,
                                fleet: FleetConfig {
                                    tiers: tiers.clone(),
                                    arrivals: arrivals.clone(),
                                    requests,
                                    seed: 13,
                                    slo_ms,
                                },
                            });
                        }
                    }
                }
            }
        }
    }

    // Phase 2: validate the whole matrix up front. A malformed cell is an
    // error report and a clean exit, not a panic mid-sweep.
    let errors: Vec<String> = cells
        .iter()
        .filter_map(|cell| {
            cell.fleet.try_valid().err().map(|e| {
                format!(
                    "invalid cell ({} / {} / {} / {}): {e}",
                    cell.family.name(),
                    cell.kind.name(),
                    cell.topology,
                    cell.policy.label(),
                )
            })
        })
        .collect();
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("ERROR: {e}");
        }
        eprintln!(
            "{} invalid fleet configuration(s); aborting sweep",
            errors.len()
        );
        std::process::exit(2);
    }
    for cell in &cells {
        if cell.policy == OffloadPolicyKind::AlwaysLocal
            && cell.fleet.local_load_per_server() >= 1.0
        {
            eprintln!(
                "WARNING: always-local cell ({} / {} / {} / load {:.2}) overloads the edge \
                 (ρ = {:.2} per server) — bounded admission sheds, SLO violations follow",
                cell.family.name(),
                cell.kind.name(),
                cell.topology,
                cell.anchor_load,
                cell.fleet.local_load_per_server(),
            );
        }
    }

    // Phase 3: simulate.
    let mut table = TextTable::new(&[
        "Family",
        "Model",
        "topology",
        "policy",
        "arrivals",
        "sweep",
        "rate/s",
        "slo (ms)",
        "offload_rate",
        "drop_rate",
        "slo_viol_rate",
        "mean (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "tier_util",
        "energy (J)",
    ]);
    let mode = ObsMode::resolve();
    let mut metrics_acc = MetricsRegistry::new();
    let mut last_trace: Option<String> = None;
    for cell in &cells {
        let mut observer = mode
            .metrics_enabled()
            .then(|| SimObserver::for_fleet(&cell.fleet, &cell.policy.label()));
        let r = simulate_fleet(&cell.fleet, cell.policy.build().as_mut(), observer.as_mut())
            .unwrap_or_else(|e| {
                eprintln!("ERROR: fleet cell failed: {e}");
                std::process::exit(2)
            });
        if let Some(observer) = &observer {
            metrics_acc.merge_from(observer.registry());
            if mode.trace_enabled() {
                last_trace = Some(observer.trace_jsonl());
            }
        }
        let tier_util = r
            .tiers
            .iter()
            .map(|t| format!("{}:{:.2}", t.name, t.serving.utilization))
            .collect::<Vec<_>>()
            .join(";");
        table.row(&[
            cell.family.name().to_string(),
            cell.kind.name().to_string(),
            cell.topology.to_string(),
            cell.policy.label(),
            cell.fleet.arrivals.label(),
            format!("{:.2}", cell.anchor_load),
            format!("{:.0}", cell.fleet.arrivals.mean_rate_hz()),
            format!("{:.1}", cell.fleet.slo_ms),
            format!("{:.4}", r.offload_rate()),
            format!("{:.4}", r.drop_rate()),
            format!("{:.4}", r.slo_violation_rate()),
            format!("{:.2}", r.end_to_end.mean_sojourn_ms),
            format!("{:.2}", r.end_to_end.p95_ms),
            format!("{:.2}", r.end_to_end.p99_ms),
            tier_util,
            format!("{:.2}", r.end_to_end.energy_j),
        ]);
    }

    print!("{}", table.render());
    println!("\nOffloading turns the edge overload cliff into a network bill: exit-confidence");
    println!("ships exactly the hard-path fraction (and nothing at all for CBNet's constant");
    println!("cost), while SLO-sojourn routing only pays the link when the predicted local");
    println!("sojourn breaks the budget — compare slo_viol_rate down a topology column.");
    println!("\n--- CSV ---");
    print!("{}", table.to_csv());
    println!("--- END CSV ---");

    if mode.metrics_enabled() {
        let path =
            std::env::var("CBNET_METRICS_JSON").unwrap_or_else(|_| "METRICS.json".to_string());
        std::fs::write(&path, metrics_acc.write_json(mode))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} (mode {}, every cell merged)", mode.name());
    }
    if let Some(trace) = last_trace {
        let path = std::env::var("CBNET_TRACE_JSONL").unwrap_or_else(|_| "TRACE.jsonl".to_string());
        std::fs::write(&path, trace).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} (last cell's span ring)");
    }
}
