//! Serving sweep (extension): model × dataset family × device × offered
//! load × serving policy, with every service-time distribution **measured**
//! from the trained networks — `InferenceModel::sample_costs()` prices each
//! evaluation input by the execution path it actually took, and the
//! resulting `CostProfile::Empirical` histogram drives the discrete-event
//! simulator. No hand-picked latency constants anywhere.
//!
//! For each family the registry trains the shared models once; each model's
//! per-sample latencies are measured on the evaluation set per device, and
//! pushed through one serving pool on that device — a one-tier
//! `FleetConfig` (tier `device`) under `AlwaysLocal` — at arrival rates
//! anchored to the LeNet baseline's capacity on that device (offered loads
//! 0.5 / 0.8 / 0.95 of `servers × 1000 / mean_service_ms`). The policy
//! dimension sweeps the pool's scheduler, server count and admission:
//! single-server FIFO (the baseline bit-identical to the closed-form loop),
//! multi-server FIFO and shortest-expected-service behind a bounded queue,
//! and batch-accumulation.
//!
//! Every configuration is validated **up front** via `FleetConfig::
//! try_valid` — a bad cell reports an error and exits before any simulation
//! runs — and configurations whose offered load is ≥ 1 per server are
//! flagged on stderr: without admission control they have no steady state,
//! so their sojourn numbers are runaway transients, not equilibria.
//!
//! Output: an aligned table on stdout plus the same rows as CSV (between
//! `--- CSV ---` markers) with policy, servers, admission, drop-rate and
//! per-server-utilization columns.
//!
//! Env knobs: `CBNET_SCALE=small` shrinks training;
//! `CBNET_SERVING_SMOKE=1` shrinks the sweep matrix itself (one family, one
//! load, fewer requests) for CI smoke runs. With `CBNET_OBS=metrics|trace`
//! every cell runs observed: metrics accumulate across the matrix into
//! `METRICS.json` (path override: `CBNET_METRICS_JSON`) and, under `trace`,
//! the last cell's span ring is exported to `TRACE.jsonl`
//! (`CBNET_TRACE_JSONL`).

use bench::{banner, require_trained_models, scale_from_env};
use cbnet::registry::{ModelKind, ModelRegistry};
use cbnet::table::TextTable;
use datasets::Family;
use edgesim::fleet::{AlwaysLocal, Tier};
use edgesim::{
    simulate_fleet, AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel, FleetConfig,
    SchedulerKind, SimObserver,
};
use obs::{MetricsRegistry, ObsMode};

/// Offered loads swept per device, as fractions of the LeNet baseline's
/// aggregate service capacity across all servers of the cell.
const LOADS: [f64; 3] = [0.5, 0.8, 0.95];
/// Requests simulated per cell (full run).
const REQUESTS: usize = 20_000;

/// The serving-policy dimension: scheduler × server count × admission.
fn policies(mean_service_ms: f64) -> Vec<(SchedulerKind, usize, AdmissionPolicy)> {
    vec![
        // The closed-form baseline (bit-identical to pipeline::simulate).
        (SchedulerKind::Fifo, 1, AdmissionPolicy::Unbounded),
        (
            SchedulerKind::Fifo,
            4,
            AdmissionPolicy::Bounded { max_queue: 256 },
        ),
        (
            SchedulerKind::ShortestService,
            4,
            AdmissionPolicy::Bounded { max_queue: 256 },
        ),
        (
            SchedulerKind::Batch {
                max_batch: 8,
                // Hold partial batches at most two mean service times: long
                // enough to fuse under load, short enough not to dominate
                // light-load latency.
                max_wait_ms: 2.0 * mean_service_ms,
            },
            4,
            AdmissionPolicy::Bounded { max_queue: 256 },
        ),
    ]
}

struct Cell {
    family: Family,
    device: Device,
    kind: ModelKind,
    /// The swept fraction of the LeNet baseline's capacity (the traffic
    /// anchor — per-model offered load is derived from the pool config).
    anchor_load: f64,
    /// One serving pool: a single tier named `device`.
    pool: FleetConfig,
}

/// Report `msg` on stderr and exit with status 2.
fn fail(msg: String) -> ! {
    eprintln!("ERROR: {msg}");
    std::process::exit(2);
}

fn main() {
    banner(
        "Serving sweep",
        "model × family × device × load × policy, from measured per-sample costs",
    );
    let scale = scale_from_env();
    let smoke = std::env::var("CBNET_SERVING_SMOKE").as_deref() == Ok("1");
    let families: &[Family] = if smoke {
        &[Family::MnistLike]
    } else {
        &Family::ALL
    };
    let loads: &[f64] = if smoke { &[0.8] } else { &LOADS };
    let requests = if smoke { 4_000 } else { REQUESTS };

    // Phase 1: train + measure, building every cell of the matrix.
    let mut cells: Vec<Cell> = Vec::new();
    for &family in families {
        let mut reg = ModelRegistry::train(family, &scale);
        require_trained_models(&mut reg);
        let test_images = reg.split().test.images.clone();

        // Measure each comparator's per-sample latencies per device: the
        // empirical profile carries the real early-exit variance (for
        // BranchyNet, each sample is priced by the exit it actually took).
        let priced: Vec<(ModelKind, Vec<CostProfile>)> = ModelKind::CORE
            .iter()
            .map(|&kind| {
                let profiles = Device::ALL
                    .iter()
                    .map(|&d| reg.empirical_profile(kind, &test_images, &DeviceModel::preset(d)))
                    .collect();
                (kind, profiles)
            })
            .collect();

        for (di, &device) in Device::ALL.iter().enumerate() {
            // Arrival rates anchored to the baseline's capacity on this
            // device and scaled by the cell's server count: same per-server
            // pressure for every policy, different serving behaviour.
            let lenet_mean = priced
                .iter()
                .find(|(k, _)| *k == ModelKind::LeNet)
                .map(|(_, p)| p[di].mean_ms())
                .expect("LeNet is in CORE");
            for &load in loads {
                for (kind, profiles) in &priced {
                    let profile = &profiles[di];
                    for (scheduler, servers, admission) in policies(profile.mean_ms()) {
                        let rate_hz = load * servers as f64 * 1000.0 / lenet_mean;
                        cells.push(Cell {
                            family,
                            device,
                            kind: *kind,
                            anchor_load: load,
                            pool: FleetConfig {
                                tiers: vec![Tier {
                                    name: "device".into(),
                                    device: DeviceModel::preset(device),
                                    servers,
                                    profile: profile.clone(),
                                    scheduler,
                                    admission,
                                    link: None,
                                }],
                                arrivals: ArrivalProcess::poisson(rate_hz),
                                requests,
                                seed: 11,
                                // Only the SLO ledger reads it, and this
                                // sweep reports none.
                                slo_ms: 50.0,
                            },
                        });
                    }
                }
            }
        }
    }

    // Phase 2: validate the whole matrix up front. A malformed cell is an
    // error report and a clean exit (not a panic mid-sweep), and a cell whose
    // offered load is ≥ 1 per server has no steady state unless admission
    // control sheds, so its sojourns would be runaway transients.
    let errors: Vec<String> = cells
        .iter()
        .filter_map(|cell| {
            cell.pool.try_valid().err().map(|e| {
                format!(
                    "invalid serving configuration ({} / {} / {}): {e}",
                    cell.family.name(),
                    cell.device.name(),
                    cell.kind.name(),
                )
            })
        })
        .collect();
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("ERROR: {e}");
        }
        eprintln!(
            "{} invalid serving configuration(s); aborting sweep",
            errors.len()
        );
        std::process::exit(2);
    }
    for cell in &cells {
        let tier = &cell.pool.tiers[0];
        let load = cell.pool.local_load_per_server();
        if load >= 1.0 && tier.admission == AdmissionPolicy::Unbounded {
            eprintln!(
                "WARNING: unstable cell ({} / {} / {} / {} x{}): \
                 offered load {load:.2} per server with unbounded admission — \
                 sojourns are transients, not steady-state",
                cell.family.name(),
                cell.device.name(),
                cell.kind.name(),
                tier.scheduler.label(),
                tier.servers,
            );
        }
    }

    // Phase 3: simulate.
    let mut table = TextTable::new(&[
        "Family",
        "Device",
        "Model",
        "policy",
        "servers",
        "admission",
        "easy%",
        "E[S] (ms)",
        "arrivals/s",
        "sweep",
        "load/server",
        "mean (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "drop_rate",
        "util",
        "util/server",
        "energy (J)",
    ]);
    let mode = ObsMode::resolve();
    let mut metrics_acc = MetricsRegistry::new();
    let mut last_trace: Option<String> = None;
    for cell in &cells {
        let mut observer = mode
            .metrics_enabled()
            .then(|| SimObserver::for_fleet(&cell.pool, "local"));
        let r = simulate_fleet(&cell.pool, &mut AlwaysLocal, observer.as_mut())
            .unwrap_or_else(|e| fail(format!("serving cell failed: {e}")));
        if let Some(observer) = &observer {
            metrics_acc.merge_from(observer.registry());
            if mode.trace_enabled() {
                last_trace = Some(observer.trace_jsonl());
            }
        }
        let tier = &cell.pool.tiers[0];
        let served = &r.tiers[0];
        table.row(&[
            cell.family.name().to_string(),
            cell.device.name().to_string(),
            cell.kind.name().to_string(),
            tier.scheduler.label(),
            tier.servers.to_string(),
            tier.admission.label(),
            format!("{:.0}", tier.profile.easy_fraction() * 100.0),
            format!("{:.3}", tier.profile.mean_ms()),
            format!("{:.0}", cell.pool.arrivals.mean_rate_hz()),
            format!("{:.2}", cell.anchor_load),
            format!("{:.2}", cell.pool.local_load_per_server()),
            format!("{:.2}", served.serving.mean_sojourn_ms),
            format!("{:.2}", served.serving.p95_ms),
            format!("{:.2}", served.serving.p99_ms),
            format!("{:.4}", r.drop_rate()),
            format!("{:.2}", served.serving.utilization),
            served
                .per_server_utilization
                .iter()
                .map(|u| format!("{u:.2}"))
                .collect::<Vec<_>>()
                .join(";"),
            format!("{:.2}", served.serving.energy_j),
        ]);
    }

    print!("{}", table.render());
    println!("\nCBNet's input-independent service time keeps tails flat where early-exit");
    println!("variance builds queues; shortest-expected-service and batching recover some");
    println!("of that tail, bounded admission trades it for drops — all measured from the");
    println!("trained networks' per-sample costs, none of it hand-picked.");
    println!("\n--- CSV ---");
    print!("{}", table.to_csv());
    println!("--- END CSV ---");

    if mode.metrics_enabled() {
        let path =
            std::env::var("CBNET_METRICS_JSON").unwrap_or_else(|_| "METRICS.json".to_string());
        std::fs::write(&path, metrics_acc.write_json(mode))
            .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
        eprintln!("wrote {path} (mode {}, every cell merged)", mode.name());
    }
    if let Some(trace) = last_trace {
        let path = std::env::var("CBNET_TRACE_JSONL").unwrap_or_else(|_| "TRACE.jsonl".to_string());
        std::fs::write(&path, trace).unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
        eprintln!("wrote {path} (last cell's span ring)");
    }
}
