//! The simulator configurations and their runs.
//!
//! Both timed configurations are priced from the trained BranchyNet's
//! measured per-image costs on the workload's stream
//! (`ModelRegistry::tier_profiles` on the Raspberry Pi, GCI CPU and GCI GPU
//! presets), and their arrival rates are anchored to the edge tier's
//! capacity under that profile, so the offered load is the same share of
//! capacity whatever the stream.

use std::time::Instant;

use edgesim::fleet::{AlwaysLocal, NetworkLink, OffloadPolicy, Tier};
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, DeviceModel, FleetConfig, FleetReport, FleetSim,
    OffloadPolicyKind, RecordMode, SchedulerKind, SimObserver,
};

/// Requests per run of each timed configuration.
pub const SIM_REQUESTS: usize = 500_000;
/// Servers of the edge tier (both configurations).
pub const EDGE_SERVERS: usize = 4;
/// Waiting-room cap of the `edge` configuration's tier; arrivals beyond it
/// are dropped.
pub const EDGE_QUEUE: usize = 16;
/// Waiting-room cap of every tier of the `fleet` configuration: deep enough
/// that the SLO policy offloads before the edge queue fills.
pub const FLEET_QUEUE: usize = 64;
/// Offered load of `edge`: Poisson rate over the edge tier's capacity.
pub const EDGE_LOAD: f64 = 0.8;
/// Mean offered load of `fleet` over the edge tier's capacity; the MMPP
/// spends 3/4 of its time at 0.4× this rate and bursts at 2.8×.
pub const FLEET_LOAD: f64 = 1.5;
/// Utilization of the M/D/1 check.
pub const MD1_RHO: f64 = 0.7;
/// Requests of the M/D/1 check.
pub const MD1_REQUESTS: usize = 1_000_000;

/// The SLO both configurations count violations against, and the budget of
/// the `fleet` offload policy: twice the edge tier's slowest solo service.
pub fn slo_ms(profiles: &[CostProfile]) -> f64 {
    2.0 * profiles[0].max_ms()
}

/// Requests per second the edge tier serves at full utilization.
fn edge_capacity_hz(profiles: &[CostProfile]) -> f64 {
    EDGE_SERVERS as f64 * 1000.0 / profiles[0].mean_ms()
}

fn edge_tier(profiles: &[CostProfile], max_queue: usize) -> Tier {
    Tier {
        name: "edge".into(),
        device: DeviceModel::raspberry_pi4(),
        servers: EDGE_SERVERS,
        profile: profiles[0].clone(),
        scheduler: SchedulerKind::Fifo,
        admission: AdmissionPolicy::Bounded { max_queue },
        link: None,
    }
}

/// `edge`: one Raspberry Pi tier of FIFO servers behind a bounded queue,
/// Poisson arrivals at [`EDGE_LOAD`] of its capacity.
pub fn edge_config(profiles: &[CostProfile], requests: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        tiers: vec![edge_tier(profiles, EDGE_QUEUE)],
        arrivals: ArrivalProcess::poisson(EDGE_LOAD * edge_capacity_hz(profiles)),
        requests,
        seed,
        slo_ms: slo_ms(profiles),
    }
}

/// `fleet`: edge → cloud CPU (batching) → cloud GPU (shortest-service),
/// both clouds over WiFi, MMPP bursts at a mean [`FLEET_LOAD`] of the edge
/// capacity. The GPU serves an offload faster when it is idle; the CPU
/// takes what queues behind it. `profiles` is indexed like `edgesim::Device::ALL`;
/// `payload_bytes` is what one offloaded request ships.
pub fn fleet_config(
    profiles: &[CostProfile],
    payload_bytes: u64,
    requests: usize,
    seed: u64,
) -> FleetConfig {
    let rate_hz = FLEET_LOAD * edge_capacity_hz(profiles);
    FleetConfig {
        tiers: vec![
            edge_tier(profiles, FLEET_QUEUE),
            Tier {
                name: "cloud-cpu".into(),
                device: DeviceModel::gci_cpu(),
                servers: 2,
                profile: profiles[1].clone(),
                scheduler: SchedulerKind::Batch {
                    max_batch: 8,
                    max_wait_ms: 1.0,
                },
                admission: AdmissionPolicy::Bounded {
                    max_queue: FLEET_QUEUE,
                },
                link: Some(NetworkLink::wifi(payload_bytes)),
            },
            Tier {
                name: "cloud-gpu".into(),
                device: DeviceModel::gci_gpu(),
                servers: 1,
                profile: profiles[2].clone(),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Bounded {
                    max_queue: FLEET_QUEUE,
                },
                link: Some(NetworkLink::wifi(payload_bytes)),
            },
        ],
        arrivals: ArrivalProcess::mmpp(0.4 * rate_hz, 2.8 * rate_hz, 300.0, 100.0),
        requests,
        seed,
        slo_ms: slo_ms(profiles),
    }
}

/// The policy each timed configuration runs under.
pub fn fleet_policy(profiles: &[CostProfile]) -> OffloadPolicyKind {
    OffloadPolicyKind::SloSojourn {
        slo_ms: slo_ms(profiles),
    }
}

/// M/D/1: one FIFO server with constant service `service_ms`, unbounded
/// queue, Poisson arrivals at utilization `rho`.
pub fn md1_config(service_ms: f64, rho: f64, requests: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        tiers: vec![Tier {
            name: "md1".into(),
            device: DeviceModel::raspberry_pi4(),
            servers: 1,
            profile: CostProfile::constant(service_ms),
            scheduler: SchedulerKind::Fifo,
            admission: AdmissionPolicy::Unbounded,
            link: None,
        }],
        arrivals: ArrivalProcess::poisson(rho * 1000.0 / service_ms),
        requests,
        seed,
        slo_ms: 1e9,
    }
}

/// Mean sojourn and utilization of one M/D/1 run (Lean records; the mean
/// is the exact sum over count of the streamed sojourns).
pub fn md1_run(
    service_ms: f64,
    rho: f64,
    requests: usize,
    seed: u64,
) -> Result<(f64, f64), String> {
    let cfg = md1_config(service_ms, rho, requests, seed);
    let mut sim = FleetSim::new(&cfg, RecordMode::Lean)?;
    sim.run(&mut AlwaysLocal, None)?;
    let r = sim.report();
    Ok((r.end_to_end.mean_sojourn_ms, r.end_to_end.utilization))
}

/// One timed configuration: a Lean simulator reused across runs.
pub struct SimCase {
    /// `edge` or `fleet`.
    pub name: &'static str,
    /// The configuration the simulator was built from.
    pub cfg: FleetConfig,
    /// The routing policy of every run.
    pub policy_kind: OffloadPolicyKind,
    policy: Box<dyn OffloadPolicy>,
    sim: FleetSim,
}

impl SimCase {
    /// Validate the configuration and build its simulator.
    pub fn new(
        name: &'static str,
        cfg: FleetConfig,
        policy_kind: OffloadPolicyKind,
    ) -> Result<SimCase, String> {
        let sim = FleetSim::new(&cfg, RecordMode::Lean).map_err(|e| format!("{name}: {e}"))?;
        Ok(SimCase {
            name,
            policy: policy_kind.build(),
            policy_kind,
            cfg,
            sim,
        })
    }

    /// Rewind, run once (optionally observed) and return the wall time of
    /// `FleetSim::run` alone, ns.
    pub fn run(&mut self, obs: Option<&mut SimObserver>) -> Result<u64, String> {
        self.sim.reset();
        let t = Instant::now();
        let out = self.sim.run(self.policy.as_mut(), obs);
        let ns = t.elapsed().as_nanos() as u64;
        out.map(|()| ns).map_err(|e| format!("{}: {e}", self.name))
    }

    /// Report of the last run.
    pub fn report(&self) -> FleetReport {
        self.sim.report()
    }

    /// Events the last run processed.
    pub fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    /// A fresh observer for this configuration in `mode`.
    pub fn observer(&self, mode: obs::ObsMode) -> SimObserver {
        let names: Vec<&str> = self.cfg.tiers.iter().map(|t| t.name.as_str()).collect();
        SimObserver::with_mode(mode, &names, &self.policy_kind.label(), 1 << 16)
    }

    /// The same configuration run once with Full records (exact
    /// percentiles, per-request outcomes).
    pub fn full_report(&self) -> Result<FleetReport, String> {
        let mut sim = FleetSim::new(&self.cfg, RecordMode::Full)
            .map_err(|e| format!("{}: {e}", self.name))?;
        sim.run(self.policy_kind.build().as_mut(), None)
            .map_err(|e| format!("{}: {e}", self.name))?;
        Ok(sim.report())
    }
}
