//! Serving workload/report types and the closed-form single-server loop —
//! the oracle of the discrete-event simulator in [`crate::fleet`].
//!
//! The paper evaluates batch inference (total time over a test set). Real
//! edge deployments serve a *stream* of requests, where early-exit variance
//! has a second-order effect the batch numbers hide: hard images hold the
//! device busy 5–10× longer than easy ones, so bursts of hard inputs build
//! queues. This module — an extension beyond the paper, flagged as such in
//! DESIGN.md — simulates serving under Poisson arrivals with per-request
//! service times drawn from a [`CostProfile`], and reports sojourn-time
//! percentiles and energy (busy power while serving, idle power otherwise).
//!
//! # One simulator, one closed-form oracle
//!
//! * [`simulate`] — the original closed-form single-server FIFO recurrence
//!   (`finish_i = max(arrival_i, finish_{i-1}) + service_i`). It is kept
//!   verbatim as the conformance baseline: a one-tier
//!   [`crate::fleet::FleetConfig`] with one FIFO server, unbounded
//!   admission and Poisson arrivals at the same rate and seed must
//!   reproduce its [`ServingReport`] **bit for bit**
//!   (`tests/trait_conformance.rs` and the edgesim proptests enforce this).
//! * [`crate::fleet::simulate_fleet`] — the discrete-event simulator that
//!   every serving sweep runs: N parallel servers per tier, a
//!   [`crate::fleet::SchedulerKind`] queue discipline (FIFO,
//!   shortest-expected-service, batch-accumulate with a max-wait deadline),
//!   [`crate::fleet::AdmissionPolicy`] load shedding with per-request drop
//!   accounting (reported as `drop_rate`, never silently), network links,
//!   pluggable [`crate::fleet::OffloadPolicy`] routing and non-Poisson
//!   [`crate::arrivals::ArrivalProcess`]es. A single serving pool is its
//!   one-tier configuration.
//!
//! # Where profiles come from
//!
//! The profile is the bridge to the model layer: `InferenceModel::
//! cost_profile()` prices a *trained* network on a device, and that exact
//! distribution drives the queue — no hand-picked service constants. For
//! measured workloads, `InferenceModel::sample_costs()` runs a real
//! evaluation batch and prices **each input by the execution path it
//! actually took** (e.g. which exit a BranchyNet sample left through);
//! [`CostProfile::empirical`] turns those per-sample latencies into a
//! replayable histogram, which is how the `serving` bench bin drives every
//! sweep.
//!
//! Both are deterministic given their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::CostProfile;
use crate::device::DeviceModel;
use crate::power::PowerModel;

/// Workload + service parameters for one simulation run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Mean arrival rate, requests per second (Poisson process).
    pub arrival_rate_hz: f64,
    /// Per-request service-time distribution (from a model's
    /// `cost_profile()` on the simulated device, or hand-built for what-if
    /// studies).
    pub profile: CostProfile,
    /// Number of requests to simulate.
    pub requests: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Aggregate results of one serving simulation.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Mean sojourn (queue + service) time, ms.
    pub mean_sojourn_ms: f64,
    /// Median sojourn, ms.
    pub p50_ms: f64,
    /// 95th percentile sojourn, ms.
    pub p95_ms: f64,
    /// 99th percentile sojourn, ms.
    pub p99_ms: f64,
    /// Fraction of wall-clock time the server was busy.
    pub utilization: f64,
    /// Total simulated wall-clock time, ms.
    pub makespan_ms: f64,
    /// Total energy over the run, joules (busy + idle power integrated).
    pub energy_j: f64,
}

/// Run the single-server FIFO simulation.
///
/// # Panics
/// Panics on a non-positive arrival rate, an invalid profile (see
/// [`CostProfile::assert_valid`]), or zero requests.
pub fn simulate(device: &DeviceModel, cfg: &ServingConfig) -> ServingReport {
    assert!(cfg.arrival_rate_hz > 0.0, "arrival rate must be positive");
    cfg.profile.assert_valid();
    assert!(cfg.requests > 0, "need at least one request");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mean_interarrival_ms = 1000.0 / cfg.arrival_rate_hz;

    let mut arrival = 0.0f64; // arrival time of the current request
    let mut server_free_at = 0.0f64;
    let mut busy_ms = 0.0f64;
    let mut sojourns: Vec<f64> = Vec::with_capacity(cfg.requests);

    for _ in 0..cfg.requests {
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        arrival += -mean_interarrival_ms * u.ln();
        let service = cfg.profile.sample(rng.gen::<f64>());
        let start = arrival.max(server_free_at);
        let finish = start + service;
        sojourns.push(finish - arrival);
        busy_ms += service;
        server_free_at = finish;
    }

    finalize_report(device, sojourns, busy_ms, server_free_at, 1)
}

/// Aggregate sojourn samples plus busy-time accounting into a
/// [`ServingReport`]. Shared by the closed-form loop and the discrete-event
/// simulator so the single-server FIFO configurations of the two stay
/// bit-identical: the sort, percentile indexing, mean summation and energy
/// arithmetic happen in exactly one place. `busy_ms` is summed
/// across all `servers`; capacity is `servers × makespan`.
pub(crate) fn finalize_report(
    device: &DeviceModel,
    mut sojourns: Vec<f64>,
    busy_ms: f64,
    makespan: f64,
    servers: usize,
) -> ServingReport {
    sojourns.sort_by(f64::total_cmp);
    let pct = |p: f64| percentile_sorted(&sojourns, p);
    let mean = if sojourns.is_empty() {
        0.0
    } else {
        sojourns.iter().sum::<f64>() / sojourns.len() as f64
    };
    report_from_quantiles(
        device,
        mean,
        pct(0.50),
        pct(0.95),
        pct(0.99),
        busy_ms,
        makespan,
        servers,
    )
}

/// Assemble a [`ServingReport`] from pre-computed sojourn statistics — the
/// shared tail of [`finalize_report`] (exact percentiles from a sorted
/// sample vector) and [`report_from_histogram`] (approximate percentiles
/// from a lean-mode histogram), so the utilization and energy arithmetic
/// exists in exactly one place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn report_from_quantiles(
    device: &DeviceModel,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    busy_ms: f64,
    makespan: f64,
    servers: usize,
) -> ServingReport {
    let capacity_ms = makespan * servers as f64;
    let power = PowerModel::for_device(device.device);
    let busy_w = power.watts(device.inference_utilization);
    let idle_w = power.idle_watts();
    let idle_ms = (capacity_ms - busy_ms).max(0.0);
    let energy_j = (busy_w * busy_ms + idle_w * idle_ms) / 1000.0;

    ServingReport {
        mean_sojourn_ms: mean,
        p50_ms: p50,
        p95_ms: p95,
        p99_ms: p99,
        utilization: if capacity_ms > 0.0 {
            (busy_ms / capacity_ms).min(1.0)
        } else {
            0.0
        },
        makespan_ms: makespan,
        energy_j,
    }
}

/// [`finalize_report`] for lean record mode: sojourn statistics come from a
/// preallocated [`obs::Histogram`] (mean exact from the running sum;
/// percentiles bucketed, documented ≈2% error at the default 4% bucket
/// growth) instead of an O(n) sample vector. Busy/energy/utilization
/// arithmetic is exact and identical to full mode via
/// [`report_from_quantiles`]. An empty histogram reports zeros, matching
/// [`percentile_sorted`]'s empty-slice convention.
pub(crate) fn report_from_histogram(
    device: &DeviceModel,
    sojourn_ms: &obs::Histogram,
    busy_ms: f64,
    makespan: f64,
    servers: usize,
) -> ServingReport {
    let (mean, p50, p95, p99) = if sojourn_ms.count() == 0 {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (
            sojourn_ms.sum() / sojourn_ms.count() as f64,
            sojourn_ms.quantile(0.50),
            sojourn_ms.quantile(0.95),
            sojourn_ms.quantile(0.99),
        )
    };
    report_from_quantiles(device, mean, p50, p95, p99, busy_ms, makespan, servers)
}

/// Percentile of an ascending-sorted sample set, in the simulators' shared
/// nearest-rank-by-rounding convention (`idx = round((len−1)·p)`). Every
/// report path (closed-form loop, fleet, reference loop) goes through this
/// one function
/// so their percentile semantics cannot drift apart, and
/// `obs::Histogram::quantile` pins its rank convention against it
/// (`tests/obs_conformance.rs`). Returns `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;

    fn base_cfg() -> ServingConfig {
        ServingConfig {
            arrival_rate_hz: 50.0,
            profile: CostProfile::bimodal(2.0, 13.0, 0.95),
            requests: 5_000,
            seed: 7,
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let d = DeviceModel::raspberry_pi4();
        let a = simulate(&d, &base_cfg());
        let b = simulate(&d, &base_cfg());
        assert_eq!(a.mean_sojourn_ms, b.mean_sojourn_ms);
        assert_eq!(a.p99_ms, b.p99_ms);
    }

    #[test]
    fn sojourn_at_least_service_time() {
        let d = DeviceModel::raspberry_pi4();
        let r = simulate(&d, &base_cfg());
        assert!(r.p50_ms >= 2.0 - 1e-9);
        assert!(r.mean_sojourn_ms >= 2.0);
        assert!(r.p99_ms >= r.p95_ms && r.p95_ms >= r.p50_ms);
    }

    #[test]
    fn light_load_has_no_queueing() {
        let d = DeviceModel::raspberry_pi4();
        let cfg = ServingConfig {
            arrival_rate_hz: 1.0, // mean gap 1000 ms ≫ service
            ..base_cfg()
        };
        let r = simulate(&d, &cfg);
        // Essentially every request is served immediately.
        assert!(r.p50_ms <= 13.0 + 1e-9);
        assert!(r.utilization < 0.05, "utilization {}", r.utilization);
    }

    #[test]
    fn hard_fraction_increases_tail_latency() {
        // The serving-level consequence of the paper's Fig. 3: more hard
        // images ⇒ longer busy periods ⇒ heavier tails.
        let d = DeviceModel::raspberry_pi4();
        let mostly_easy = simulate(
            &d,
            &ServingConfig {
                profile: CostProfile::bimodal(2.0, 13.0, 0.95),
                ..base_cfg()
            },
        );
        let mostly_hard = simulate(
            &d,
            &ServingConfig {
                profile: CostProfile::bimodal(2.0, 13.0, 0.60),
                ..base_cfg()
            },
        );
        assert!(
            mostly_hard.p95_ms > mostly_easy.p95_ms,
            "hard-heavy p95 {} should exceed easy-heavy p95 {}",
            mostly_hard.p95_ms,
            mostly_easy.p95_ms
        );
        assert!(mostly_hard.utilization > mostly_easy.utilization);
    }

    #[test]
    fn constant_profile_has_no_service_variance() {
        // A CBNet-style constant profile: every sojourn is queueing + the
        // same service time, so at light load all percentiles collapse.
        let d = DeviceModel::raspberry_pi4();
        let r = simulate(
            &d,
            &ServingConfig {
                arrival_rate_hz: 5.0,
                profile: CostProfile::constant(2.4),
                requests: 5_000,
                seed: 3,
            },
        );
        assert!((r.p50_ms - 2.4).abs() < 1e-9);
        assert!(
            r.p99_ms < 2.4 * 3.0,
            "p99 {} should stay near service",
            r.p99_ms
        );
    }

    #[test]
    fn overload_grows_queues() {
        let d = DeviceModel::raspberry_pi4();
        // Offered load ρ = λ·E[S] ≈ 200/s · 2.55 ms ≈ 0.51 vs 400/s ≈ 1.02.
        let stable = simulate(
            &d,
            &ServingConfig {
                arrival_rate_hz: 200.0,
                ..base_cfg()
            },
        );
        let overloaded = simulate(
            &d,
            &ServingConfig {
                arrival_rate_hz: 400.0,
                ..base_cfg()
            },
        );
        assert!(overloaded.mean_sojourn_ms > 2.0 * stable.mean_sojourn_ms);
        assert!(overloaded.utilization > 0.95);
    }

    #[test]
    fn energy_accounts_busy_and_idle() {
        let d = DeviceModel::raspberry_pi4();
        let r = simulate(&d, &base_cfg());
        // Bounds: everything at idle power vs everything at busy power.
        let lo = 2.7 * r.makespan_ms / 1000.0;
        let hi = 5.845 * r.makespan_ms / 1000.0;
        assert!(
            r.energy_j >= lo && r.energy_j <= hi,
            "energy {}",
            r.energy_j
        );
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn rejects_bad_rate() {
        let d = DeviceModel::raspberry_pi4();
        let _ = simulate(
            &d,
            &ServingConfig {
                arrival_rate_hz: 0.0,
                ..base_cfg()
            },
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_invalid_profile() {
        let d = DeviceModel::raspberry_pi4();
        let _ = simulate(
            &d,
            &ServingConfig {
                profile: CostProfile::Constant { service_ms: -1.0 },
                ..base_cfg()
            },
        );
    }
}
