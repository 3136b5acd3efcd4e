//! Tiered edge–cloud offload simulation over heterogeneous serving pools.
//!
//! The paper's early-exit premise — easy inputs exit locally, hard inputs
//! pay the full network — becomes, in deployment, *easy inputs exit at the
//! edge, hard inputs offload to a stronger tier*. This module models that
//! deployment: a [`FleetConfig`] is an ordered list of [`Tier`]s (tier 0 is
//! the local edge pool where every request first lands; higher tiers are
//! remote pools reached over a [`NetworkLink`]), each tier with its own
//! device, [`CostProfile`], server count, scheduler and admission policy.
//!
//! A pluggable [`OffloadPolicy`] decides per-request routing at the gateway:
//!
//! * [`AlwaysLocal`] — everything serves at tier 0. A single-tier fleet
//!   under this policy reproduces [`crate::engine::simulate_engine`]
//!   **bit for bit** (pinned by conformance tests here and in
//!   `tests/trait_conformance.rs`): the fleet is a strict superset of the
//!   engine, not a fork of it.
//! * [`ExitConfidence`] — offload the hard-path fraction. A request whose
//!   difficulty quantile falls past the local profile's
//!   [`CostProfile::easy_fraction`] (for a measured early-exit model, its
//!   observed exit rate) would have missed the early exit anyway, so it
//!   ships to the cheapest remote tier instead of occupying the edge.
//! * [`SloSojourn`] — offload on *predicted* latency: when the local
//!   backlog implies a sojourn beyond the SLO, route to whichever tier
//!   (network transfer included) predicts the smallest end-to-end sojourn.
//!
//! Requests carry a **difficulty quantile** drawn by the
//! [`ArrivalProcess`], and every tier prices the same quantile through its
//! own profile ([`CostProfile::sample`]): a hard input is hard on every
//! device — only the price differs. Offloaded requests pay the link's
//! transfer time before entering the remote queue, and their reported
//! sojourn is end-to-end (gateway arrival → remote completion).
//!
//! [`simulate_fleet`] returns a [`FleetReport`]: per-tier serving reports
//! (sojourn percentiles, utilization, energy on that tier's device), routing
//! and drop accounting with the conservation invariant
//! `completed + dropped == offered` (offloading re-routes a request, it
//! never loses one), and the SLO ledger — a *violation* is a completed
//! request whose end-to-end sojourn exceeds [`FleetConfig::slo_ms`], or a
//! dropped request (a shed request certainly missed its deadline).
//!
//! The loop itself is the flat-index core reified as [`FleetSim`]: requests
//! live in a [`crate::arena::RequestArena`] slab, dynamic events in a
//! preallocated [`crate::events::EventHeap`] (gateway arrivals merge from
//! the sorted workload slab through a cursor and never touch the heap),
//! per-tier queues are intrusive chains dispatched by monomorphized
//! [`crate::arena::Discipline`]s, and steady-state execution is
//! allocation-free. Per-request records are the default
//! ([`RecordMode::Full`]); [`RecordMode::Lean`] swaps the O(n) record and
//! sojourn vectors for preallocated streaming histograms so million-request
//! sweeps hold no per-request state beyond the workload itself.

use obs::{BucketSpec, Histogram};

use crate::arena::{Action, Chain, Discipline, IndexQueue, RequestArena, NIL};
use crate::arrivals::ArrivalProcess;
use crate::cost::CostProfile;
use crate::device::DeviceModel;
use crate::engine::{AdmissionPolicy, LeanStats, RecordMode, Request, SchedulerKind};
use crate::events::EventHeap;
use crate::observe::SimObserver;
use crate::pipeline::{finalize_report, percentile_sorted, report_from_histogram, ServingReport};

/// The uplink between the local gateway and a remote serving tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkLink {
    /// One-way latency (propagation + handshake), ms.
    pub latency_ms: f64,
    /// Uplink bandwidth, megabits per second.
    pub bandwidth_mbps: f64,
    /// Request payload shipped per offload (the model input), bytes.
    pub payload_bytes: u64,
}

impl NetworkLink {
    /// A link with explicit parameters.
    ///
    /// # Panics
    /// Panics on a non-finite/negative latency or non-positive bandwidth.
    pub fn new(latency_ms: f64, bandwidth_mbps: f64, payload_bytes: u64) -> Self {
        let l = NetworkLink {
            latency_ms,
            bandwidth_mbps,
            payload_bytes,
        };
        l.assert_valid();
        l
    }

    /// Wired LAN between co-located pools: sub-millisecond, ~1 Gb/s.
    pub fn lan(payload_bytes: u64) -> Self {
        NetworkLink::new(0.3, 1000.0, payload_bytes)
    }

    /// 802.11 uplink from an edge device: a few ms, tens of Mb/s.
    pub fn wifi(payload_bytes: u64) -> Self {
        NetworkLink::new(3.0, 50.0, payload_bytes)
    }

    /// WAN to a cloud region: tens of ms, uplink-constrained.
    pub fn wan(payload_bytes: u64) -> Self {
        NetworkLink::new(25.0, 20.0, payload_bytes)
    }

    /// Validate invariants, returning a description of the first violation.
    pub fn try_valid(&self) -> Result<(), String> {
        if !(self.latency_ms >= 0.0 && self.latency_ms.is_finite()) {
            return Err(format!(
                "link latency must be non-negative and finite, got {}",
                self.latency_ms
            ));
        }
        if !(self.bandwidth_mbps > 0.0 && self.bandwidth_mbps.is_finite()) {
            return Err(format!(
                "link bandwidth must be positive and finite, got {}",
                self.bandwidth_mbps
            ));
        }
        Ok(())
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with the [`NetworkLink::try_valid`] message on violation.
    pub fn assert_valid(&self) {
        if let Err(e) = self.try_valid() {
            // lint:allow(panic-in-lib, reason = "documented # Panics contract; try_valid is the non-panicking form")
            panic!("{e}");
        }
    }

    /// Time to ship one request over this link, ms: latency plus payload
    /// serialization at the uplink bandwidth.
    pub fn transfer_ms(&self) -> f64 {
        // bytes · 8 bits / (mbps · 10⁶ bit/s) in seconds → ms.
        self.latency_ms + self.payload_bytes as f64 * 8e-3 / self.bandwidth_mbps
    }
}

/// One serving pool of the fleet: a homogeneous group of servers on one
/// device, priced by one profile, behind one queue.
#[derive(Debug, Clone)]
pub struct Tier {
    /// Display name for tables/CSV (`edge`, `cloud-cpu`, …).
    pub name: String,
    /// The device this tier's servers run on (drives the energy model).
    pub device: DeviceModel,
    /// Parallel servers in the pool.
    pub servers: usize,
    /// Service-time distribution of the model **on this tier's device**
    /// (e.g. [`crate::cost::CostProfile::empirical`] measured via
    /// `ModelRegistry::empirical_profile` per device).
    pub profile: CostProfile,
    /// Queue discipline of the pool.
    pub scheduler: SchedulerKind,
    /// Admission control of the pool.
    pub admission: AdmissionPolicy,
    /// Link from the gateway: `None` for tier 0 (local), required for
    /// every remote tier.
    pub link: Option<NetworkLink>,
}

/// A fleet topology plus the workload that stresses it.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Serving pools; tier 0 is the local edge pool where every request
    /// first arrives.
    pub tiers: Vec<Tier>,
    /// When requests arrive at the gateway.
    pub arrivals: ArrivalProcess,
    /// Number of requests to simulate.
    pub requests: usize,
    /// RNG seed (workload generation).
    pub seed: u64,
    /// End-to-end latency SLO, ms: a completed request whose gateway→finish
    /// sojourn exceeds this counts as a violation (as does every drop).
    pub slo_ms: f64,
}

impl FleetConfig {
    /// The configuration that must reproduce the engine exactly: one local
    /// tier with the engine's topology, Poisson arrivals from the engine's
    /// workload, and (under [`AlwaysLocal`]) no offloading at all.
    pub fn single_tier(
        name: &str,
        device: DeviceModel,
        engine: &crate::engine::EngineConfig,
        slo_ms: f64,
    ) -> Self {
        FleetConfig {
            tiers: vec![Tier {
                name: name.to_string(),
                device,
                servers: engine.servers,
                profile: engine.workload.profile.clone(),
                scheduler: engine.scheduler,
                admission: engine.admission,
                link: None,
            }],
            arrivals: ArrivalProcess::poisson(engine.workload.arrival_rate_hz),
            requests: engine.workload.requests,
            seed: engine.workload.seed,
            slo_ms,
        }
    }

    /// Validate the whole configuration, returning a description of the
    /// first violation — sweep drivers call this up front so one bad cell
    /// reports an error instead of panicking mid-matrix.
    pub fn try_valid(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("fleet needs at least one tier".into());
        }
        if self.requests == 0 {
            return Err("need at least one request".into());
        }
        if !(self.slo_ms > 0.0 && self.slo_ms.is_finite()) {
            return Err(format!(
                "SLO must be positive and finite, got {} ms",
                self.slo_ms
            ));
        }
        self.arrivals.try_valid()?;
        for (i, tier) in self.tiers.iter().enumerate() {
            let ctx = |e: String| format!("tier {i} ({}): {e}", tier.name);
            if tier.name.is_empty() {
                return Err(format!("tier {i}: name must be non-empty"));
            }
            if tier.servers == 0 {
                return Err(ctx("need at least one server".into()));
            }
            tier.profile.try_valid().map_err(&ctx)?;
            match (i, &tier.link) {
                (0, Some(_)) => return Err(ctx("tier 0 is local and must not have a link".into())),
                (0, None) => {}
                (_, None) => return Err(ctx("remote tiers need a link".into())),
                (_, Some(link)) => link.try_valid().map_err(ctx)?,
            }
        }
        Ok(())
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics with the [`FleetConfig::try_valid`] message on violation.
    pub fn assert_valid(&self) {
        if let Err(e) = self.try_valid() {
            // lint:allow(panic-in-lib, reason = "documented # Panics contract; try_valid is the non-panicking form")
            panic!("{e}");
        }
    }

    /// Offered load per local server if nothing offloads,
    /// `ρ = λ̄·E[S₀] / N₀` — the [`AlwaysLocal`] stability estimate.
    pub fn local_load_per_server(&self) -> f64 {
        self.arrivals.mean_rate_hz() * self.tiers[0].profile.mean_ms()
            / 1000.0
            / self.tiers[0].servers as f64
    }

    /// Aggregate service capacity of the whole fleet, requests/second —
    /// each tier contributes `servers · 1000 / E[S]` at its own price.
    pub fn aggregate_capacity_hz(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.servers as f64 * 1000.0 / t.profile.mean_ms())
            .sum()
    }
}

/// One request at the gateway: when it arrived and how hard it is. The
/// difficulty quantile maps to a concrete service time per tier via that
/// tier's [`CostProfile::sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRequest {
    /// Arrival index (0-based, in gateway-arrival order).
    pub id: usize,
    /// Absolute arrival time at the gateway, ms.
    pub gateway_ms: f64,
    /// Difficulty quantile in `[0, 1)` shared across tiers.
    pub quantile: f64,
}

/// A read-only view of one tier's congestion at a routing decision.
#[derive(Debug, Clone, Copy)]
pub struct TierSnapshot {
    /// Requests waiting in the tier's queue (not in service).
    pub queue_len: usize,
    /// Total service time of the queued requests, ms.
    pub queued_work_ms: f64,
    /// Remaining service time of in-flight batches across servers, ms.
    pub in_flight_remaining_ms: f64,
    /// Servers in the pool.
    pub servers: usize,
}

impl TierSnapshot {
    /// Predicted queueing wait for a new arrival, ms: outstanding work
    /// spread over the pool's servers.
    pub fn predicted_wait_ms(&self) -> f64 {
        (self.queued_work_ms + self.in_flight_remaining_ms) / self.servers as f64
    }
}

/// Per-request routing: where should a gateway arrival serve?
///
/// `route` sees the request's difficulty quantile, the full topology, and a
/// congestion snapshot per tier; it returns a tier index (`0` = serve
/// locally). `&mut self` admits stateful policies (token buckets, learned
/// controllers) even though the shipped ones are stateless.
pub trait OffloadPolicy {
    /// Display name for tables/CSV (`local`, `exit_conf`, `slo`).
    fn name(&self) -> String;
    /// Does [`route`](OffloadPolicy::route) read the congestion snapshots?
    /// Return `false` (as the static policies do) to let the simulator skip
    /// building them — they cost a per-arrival scan of every tier's
    /// servers, pure overhead for routing that never looks at load.
    fn needs_snapshots(&self) -> bool {
        true
    }
    /// Choose the serving tier for a request arriving at the gateway.
    /// `snapshots` is empty when
    /// [`needs_snapshots`](OffloadPolicy::needs_snapshots) returned `false`.
    fn route(&mut self, quantile: f64, tiers: &[Tier], snapshots: &[TierSnapshot]) -> usize;
}

/// Serve everything at tier 0 — the no-offload baseline, and the policy
/// under which a single-tier fleet is bit-identical to the engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysLocal;

impl OffloadPolicy for AlwaysLocal {
    fn name(&self) -> String {
        "local".into()
    }
    fn needs_snapshots(&self) -> bool {
        false
    }
    fn route(&mut self, _quantile: f64, _tiers: &[Tier], _snapshots: &[TierSnapshot]) -> usize {
        0
    }
}

/// Offload the hard-path fraction: a request whose difficulty quantile
/// reaches past the local profile's measured easy fraction (an early-exit
/// model's observed exit rate) ships to the cheapest remote tier — it would
/// have paid the full local network anyway.
///
/// This policy routes on early-exit *structure*, so it needs a local
/// profile with measurable spread. A single-point profile — constant-cost
/// models like CBNet, but also a measured early-exit model whose exits
/// never fired — has `easy_fraction() == 1` and offloads nothing: with
/// every request priced identically there is no "hard path" to ship, and
/// whether that one price is too high is a latency question for
/// [`SloSojourn`], not an exit-rate one. Likewise with no remote tier,
/// everything serves locally.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExitConfidence;

impl OffloadPolicy for ExitConfidence {
    fn name(&self) -> String {
        "exit_conf".into()
    }
    fn needs_snapshots(&self) -> bool {
        false
    }
    fn route(&mut self, quantile: f64, tiers: &[Tier], _snapshots: &[TierSnapshot]) -> usize {
        if quantile < tiers[0].profile.easy_fraction() {
            return 0;
        }
        cheapest_remote(tiers).unwrap_or(0)
    }
}

/// The remote tier with the smallest static cost (transfer + mean service).
fn cheapest_remote(tiers: &[Tier]) -> Option<usize> {
    tiers
        .iter()
        .enumerate()
        .skip(1)
        .filter_map(|(i, t)| {
            // A validated config gives every remote tier a link; skipping a
            // linkless tier (rather than panicking) keeps routing total.
            let link = t.link.as_ref()?;
            Some((i, link.transfer_ms() + t.profile.mean_ms()))
        })
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
}

/// Offload on predicted latency: when the local backlog implies a sojourn
/// beyond `slo_ms`, route to whichever tier — network transfer included —
/// predicts the smallest end-to-end sojourn (tier 0 wins ties, so light
/// load never offloads). A tier whose admission policy would refuse the
/// request at its current queue length is infeasible: a full edge offloads
/// even under the SLO, and a full remote tier is never chosen. When no tier
/// admits, the request stays at tier 0 and is dropped there, without
/// paying a transfer.
#[derive(Debug, Clone, Copy)]
pub struct SloSojourn {
    /// The latency budget the prediction is checked against, ms.
    pub slo_ms: f64,
}

impl OffloadPolicy for SloSojourn {
    fn name(&self) -> String {
        "slo".into()
    }
    fn route(&mut self, quantile: f64, tiers: &[Tier], snapshots: &[TierSnapshot]) -> usize {
        let predict = |i: usize| -> f64 {
            let transfer = tiers[i].link.as_ref().map_or(0.0, |l| l.transfer_ms());
            transfer + snapshots[i].predicted_wait_ms() + tiers[i].profile.sample(quantile)
        };
        let admits = |i: usize| tiers[i].admission.admits(snapshots[i].queue_len);
        // One prediction per feasible tier, earliest minimum kept — tier 0
        // wins ties and light load never offloads. (A `min_by` over a
        // `predict(i)` closure picks the same tier but re-evaluates each
        // prediction per comparison, which is measurable at fleet event
        // rates.)
        let local = if admits(0) { predict(0) } else { f64::INFINITY };
        if local <= self.slo_ms {
            return 0;
        }
        let mut best = 0;
        let mut best_ms = local;
        for i in (1..tiers.len()).filter(|&i| admits(i)) {
            let p = predict(i);
            if p < best_ms {
                best = i;
                best_ms = p;
            }
        }
        best
    }
}

/// Declarative policy selection for sweeps/CSV (build one fresh per run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadPolicyKind {
    /// [`AlwaysLocal`].
    AlwaysLocal,
    /// [`ExitConfidence`].
    ExitConfidence,
    /// [`SloSojourn`] with this latency budget, ms.
    SloSojourn {
        /// Predicted-sojourn budget, ms.
        slo_ms: f64,
    },
}

impl OffloadPolicyKind {
    /// Instantiate a fresh policy of this kind.
    pub fn build(&self) -> Box<dyn OffloadPolicy> {
        match *self {
            OffloadPolicyKind::AlwaysLocal => Box::new(AlwaysLocal),
            OffloadPolicyKind::ExitConfidence => Box::new(ExitConfidence),
            OffloadPolicyKind::SloSojourn { slo_ms } => Box::new(SloSojourn { slo_ms }),
        }
    }

    /// Display name (matches the built policy's `name()`).
    pub fn label(&self) -> String {
        match self {
            OffloadPolicyKind::AlwaysLocal => "local".into(),
            OffloadPolicyKind::ExitConfidence => "exit_conf".into(),
            OffloadPolicyKind::SloSojourn { .. } => "slo".into(),
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetOutcome {
    /// Served to completion at its routed tier.
    Completed {
        /// Server within the tier that ran it.
        server: usize,
        /// Service start at the tier, ms.
        start_ms: f64,
        /// Completion, ms (end of the end-to-end sojourn).
        finish_ms: f64,
    },
    /// Rejected by the routed tier's admission control.
    Dropped,
}

/// Per-request trace entry: routing decision, pricing, and outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRecord {
    /// The request as generated.
    pub request: FleetRequest,
    /// Tier the offload policy routed it to.
    pub tier: usize,
    /// Service requirement at the routed tier, ms.
    pub service_ms: f64,
    /// Network transfer paid before entering the routed tier's queue, ms
    /// (0 for tier 0).
    pub transfer_ms: f64,
    /// How it ended.
    pub outcome: FleetOutcome,
}

/// One tier's share of a fleet run.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Tier display name.
    pub name: String,
    /// Sojourn/energy aggregates over requests **completed at this tier**
    /// (sojourns are end-to-end: gateway arrival → completion, network
    /// transfer included). Energy uses this tier's device over the fleet
    /// makespan.
    pub serving: ServingReport,
    /// Requests the policy routed here.
    pub routed: usize,
    /// Requests served to completion here.
    pub completed: usize,
    /// Requests this tier's admission control dropped.
    pub dropped: usize,
    /// Busy milliseconds accumulated per server.
    pub per_server_busy_ms: Vec<f64>,
    /// Busy fraction of the fleet makespan, per server.
    pub per_server_utilization: Vec<f64>,
}

/// Aggregate + per-tier + per-request results of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tier reports, in [`FleetConfig::tiers`] order.
    pub tiers: Vec<TierReport>,
    /// Requests generated at the gateway.
    pub offered: usize,
    /// Requests served to completion (at any tier).
    pub completed: usize,
    /// Requests dropped by admission control (at any tier).
    pub dropped: usize,
    /// Requests routed to a remote tier (a routing count, not a terminal
    /// outcome: `completed + dropped == offered` regardless).
    pub offloaded: usize,
    /// The SLO violations were counted against, ms.
    pub slo_ms: f64,
    /// Completed requests whose end-to-end sojourn exceeded the SLO, plus
    /// all dropped requests.
    pub slo_violations: usize,
    /// Fleet-wide aggregates: end-to-end sojourn percentiles over all
    /// completed requests, utilization over all servers of all tiers, and
    /// total energy (sum of the tiers' device-specific energies).
    pub end_to_end: ServingReport,
    /// One record per request, in gateway-arrival (id) order (empty for
    /// the report of a [`RecordMode::Lean`] [`FleetSim`]).
    pub records: Vec<FleetRecord>,
}

impl FleetReport {
    /// Fraction of offered requests routed to a remote tier.
    pub fn offload_rate(&self) -> f64 {
        self.offloaded as f64 / self.offered as f64
    }

    /// Fraction of offered requests dropped by admission control.
    pub fn drop_rate(&self) -> f64 {
        self.dropped as f64 / self.offered as f64
    }

    /// Fraction of offered requests that missed the SLO (completed late or
    /// dropped).
    pub fn slo_violation_rate(&self) -> f64 {
        self.slo_violations as f64 / self.offered as f64
    }
}

/// Dynamic (post-gateway) events of the fleet loop. Gateway arrivals are
/// not heap events at all: they merge from the sorted workload slab through
/// a cursor, carrying implicit seq `id` — below every dynamic seq, so ties
/// resolve exactly as the old all-in-one `BinaryHeap` did.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// An offloaded request reaches its remote tier after transfer.
    TierArrival { tier: u32, id: u32 },
    /// A server of `tier` finishes its batch.
    Completion { tier: u32, server: u32 },
    /// A batch-deadline timer of `tier`.
    Timer { tier: u32 },
    /// A scheduled model hot-swap (index into the swap schedule) reaches
    /// its switch time.
    Swap { swap: u32 },
}

/// When a scheduled [`TierSwap`] actually switches the tier over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPolicy {
    /// Switch at the scheduled time, between requests: arrivals priced
    /// strictly before the switch keep the old model, later ones get the
    /// new one.
    Immediate,
    /// Hold the switch until the tier fully drains (empty queue, all
    /// servers idle), then apply at the draining completion. Under
    /// sustained load the swap can stay pending to the end of the run —
    /// [`FleetSim::swaps_applied`] reports what actually switched.
    DrainFirst,
}

/// A scheduled mid-run model rollout for one tier: at `at_ms` the tier's
/// [`CostProfile`] (the serving-relevant summary of its model) and active
/// model version switch atomically between requests. In-flight and
/// already-priced requests keep the old model's pricing — pinned by the
/// hot-swap conformance tests.
#[derive(Debug, Clone)]
pub struct TierSwap {
    /// Tier to roll.
    pub tier: usize,
    /// Scheduled switch time, ms.
    pub at_ms: f64,
    /// The new model's cost profile. After the swap applies, this slot
    /// holds the *old* profile (the two are exchanged in place), which is
    /// how in-flight pricing stays reconstructable without copies.
    pub profile: CostProfile,
    /// Model version the tier serves after the swap (the registry's
    /// `ModelVersion`); surfaced by [`FleetSim::active_version`] and the
    /// observer's swap span.
    pub version: u64,
    /// When the switch is allowed to happen.
    pub policy: SwapPolicy,
}

/// Streaming statistics kept by a [`RecordMode::Lean`] fleet run: per-tier
/// sojourn/service/queue-depth histograms plus one fleet-wide end-to-end
/// sojourn histogram — the lean substitute for the O(n) per-request record
/// and sojourn vectors. All histograms are preallocated at construction and
/// recording is allocation-free.
pub struct FleetLeanStats {
    /// Per-tier histograms, in [`FleetConfig::tiers`] order.
    pub tiers: Vec<LeanStats>,
    /// End-to-end sojourns of every completed request, fleet-wide.
    pub end_to_end_ms: Histogram,
}

impl FleetLeanStats {
    /// Preallocate one histogram set per tier plus the fleet-wide sojourn
    /// histogram (cold path, once per simulator).
    fn new(cfg: &FleetConfig) -> FleetLeanStats {
        FleetLeanStats {
            tiers: cfg
                .tiers
                .iter()
                .enumerate()
                .map(|(i, t)| LeanStats::new(&format!("fleet.tier{i}.{}", t.name)))
                .collect(),
            end_to_end_ms: Histogram::standalone("fleet.end_to_end_ms", BucketSpec::latency_ms()),
        }
    }

    /// Zero every histogram (run-to-run reuse). Allocation-free.
    fn reset(&self) {
        for t in &self.tiers {
            t.reset();
        }
        self.end_to_end_ms.reset();
    }
}

/// Run a fleet simulation under a policy kind (fresh policy per run).
///
/// # Panics
/// Panics on an invalid configuration (see [`FleetConfig::try_valid`]).
/// [`try_simulate_fleet`] is the non-panicking form.
pub fn simulate_fleet(cfg: &FleetConfig, policy: OffloadPolicyKind) -> FleetReport {
    simulate_fleet_with(cfg, policy.build().as_mut())
}

/// [`simulate_fleet`] with an invalid configuration rejected as `Err`
/// instead of a panic — what sweep drivers use to skip a bad cell of a
/// parameter matrix and keep going.
pub fn try_simulate_fleet(
    cfg: &FleetConfig,
    policy: OffloadPolicyKind,
) -> Result<FleetReport, String> {
    try_simulate_fleet_with(cfg, policy.build().as_mut())
}

/// Run a fleet simulation under a caller-supplied (possibly stateful)
/// [`OffloadPolicy`].
///
/// # Panics
/// Panics on an invalid configuration, or if the policy routes to a
/// nonexistent tier. [`try_simulate_fleet_with`] is the non-panicking form.
pub fn simulate_fleet_with(cfg: &FleetConfig, policy: &mut dyn OffloadPolicy) -> FleetReport {
    match try_simulate_fleet_with(cfg, policy) {
        Ok(report) => report,
        // lint:allow(panic-in-lib, reason = "documented # Panics contract; try_simulate_fleet_with is the non-panicking form")
        Err(e) => panic!("{e}"),
    }
}

/// [`simulate_fleet_with`] with an invalid configuration or a policy that
/// routes to a nonexistent tier rejected as `Err` instead of a panic.
pub fn try_simulate_fleet_with(
    cfg: &FleetConfig,
    policy: &mut dyn OffloadPolicy,
) -> Result<FleetReport, String> {
    simulate_fleet_core(cfg, policy, None)
}

/// [`try_simulate_fleet`] with a [`SimObserver`] fed the event stream.
///
/// Observation is read-only: the report is bit-identical to the unobserved
/// run (pinned by `observed_fleet_matches_unobserved_bit_for_bit`); the
/// observer accumulates per-tier queue-depth gauges, sojourn/service/
/// transfer histograms, per-policy offload counters and a span-event trace
/// on the side.
pub fn try_simulate_fleet_observed(
    cfg: &FleetConfig,
    policy: OffloadPolicyKind,
    obs: &mut SimObserver,
) -> Result<FleetReport, String> {
    simulate_fleet_core(cfg, policy.build().as_mut(), Some(obs))
}

/// [`try_simulate_fleet_with`] with a [`SimObserver`] fed the event stream
/// (see [`try_simulate_fleet_observed`] for the read-only guarantee).
pub fn try_simulate_fleet_with_observed(
    cfg: &FleetConfig,
    policy: &mut dyn OffloadPolicy,
    obs: &mut SimObserver,
) -> Result<FleetReport, String> {
    simulate_fleet_core(cfg, policy, Some(obs))
}

/// [`try_simulate_fleet_with_observed`] plus a mid-run model-swap schedule:
/// each [`TierSwap`] atomically switches its tier's cost profile and active
/// model version between requests. Requests priced at the gateway before a
/// switch complete on the old model (pinned by the hot-swap conformance
/// tests); a swap whose profile equals the tier's current one leaves the
/// report bit-identical to a swap-free run. Returns the report and how many
/// swaps actually applied ([`SwapPolicy::DrainFirst`] swaps can stay
/// pending to the end of the run under sustained load).
pub fn try_simulate_fleet_with_swaps(
    cfg: &FleetConfig,
    policy: &mut dyn OffloadPolicy,
    swaps: &[TierSwap],
    obs: Option<&mut SimObserver>,
) -> Result<(FleetReport, usize), String> {
    let mut sim = FleetSim::new(cfg, RecordMode::Full)?;
    for s in swaps {
        sim.schedule_swap(s.clone())?;
    }
    sim.run(policy, obs)?;
    Ok((sim.report(), sim.swaps_applied()))
}

/// The one event loop behind every fleet entry point: build a Full-record
/// [`FleetSim`], run it once, report. `obs`, when present, is fed every
/// gateway/routing/admission/queue/service transition; it never feeds back
/// into routing or scheduling, so observed and unobserved runs are
/// bit-identical.
fn simulate_fleet_core(
    cfg: &FleetConfig,
    policy: &mut dyn OffloadPolicy,
    obs: Option<&mut SimObserver>,
) -> Result<FleetReport, String> {
    let mut sim = FleetSim::new(cfg, RecordMode::Full)?;
    sim.run(policy, obs)?;
    Ok(sim.report())
}

/// Reusable flat-index fleet simulator — [`crate::engine::EngineSim`]
/// lifted to a tiered topology. Construction validates the config,
/// generates the workload and preallocates every piece of mutable state;
/// [`FleetSim::run`] then executes allocation-free in steady state, and
/// [`FleetSim::reset`] rewinds for another run over the same workload
/// without releasing storage — what perf sweeps use to measure the loop
/// alone.
///
/// [`RecordMode::Full`] (what every `simulate_fleet*` entry point uses)
/// keeps per-request routing, outcomes and per-tier sojourn vectors and
/// produces the same [`FleetReport`] as the original `BinaryHeap` loop,
/// bit for bit. [`RecordMode::Lean`] replaces them with the streaming
/// histograms of [`FleetLeanStats`]; its report carries histogram-derived
/// percentiles and an empty `records` vector.
pub struct FleetSim {
    cfg: FleetConfig,
    mode: RecordMode,
    /// Workload slab sorted by gateway arrival (arrival processes emit
    /// cumulative times); gateway arrival `i` implicitly owns event seq `i`.
    requests: Vec<FleetRequest>,
    arena: RequestArena,
    heap: EventHeap<FleetEvent>,
    /// First flat-server index of each tier; the last entry is the fleet's
    /// total server count.
    server_offset: Vec<usize>,
    disciplines: Vec<Discipline>,
    queues: Vec<IndexQueue>,
    queued_work_ms: Vec<f64>,
    routed: Vec<usize>,
    tier_dropped: Vec<usize>,
    tier_completed: Vec<usize>,
    idle: Vec<bool>,
    busy_ms: Vec<f64>,
    /// The batch each busy server is running: (start, finish, chain).
    running: Vec<(f64, f64, Chain)>,
    /// Per-request routing decision (tier, service there, transfer paid).
    /// Full mode only — Lean re-derives the price on tier arrival (it is a
    /// pure function of tier and quantile) instead of holding an O(n) table.
    routing: Vec<(u32, f64, f64)>,
    /// Per-request outcomes, Full mode only.
    outcomes: Vec<Option<FleetOutcome>>,
    /// Per-tier end-to-end sojourns of completed requests, Full mode only.
    tier_sojourns: Vec<Vec<f64>>,
    lean: Option<FleetLeanStats>,
    /// Congestion-snapshot scratch, refilled in place per gateway event
    /// (the old loop allocated a fresh Vec per arrival).
    snapshots: Vec<TierSnapshot>,
    /// Scheduled mid-run model swaps, in schedule order. An applied swap's
    /// `profile` slot holds the *displaced* (old) profile — the two are
    /// exchanged in place — which is what `profile_at` consults to price
    /// requests that hit the gateway before the switch.
    swaps: Vec<TierSwap>,
    /// Per-swap application time; NaN while unapplied or pending.
    swap_applied_at: Vec<f64>,
    /// DrainFirst swaps whose switch is waiting for the tier to drain.
    swap_pending: Vec<bool>,
    /// Count of set bits in `swap_pending`, so the completion hot path can
    /// skip the pending scan with one compare.
    pending_swaps: usize,
    /// Indices into `swaps` in the order they actually applied; reset
    /// un-applies in reverse.
    swap_order: Vec<u32>,
    /// Per-tier active model version (0 until a swap applies).
    active_version: Vec<u64>,
    cursor: usize,
    seq: u64,
    dropped: usize,
    /// Completed-late count, streamed in Lean mode (Full counts at report).
    late: usize,
    makespan: f64,
    events: u64,
}

impl FleetSim {
    /// Validate the config, generate the workload (for Poisson arrivals
    /// this replays the engine's RNG draw order verbatim — the anchor of
    /// the single-tier conformance) and preallocate all simulation state.
    pub fn new(cfg: &FleetConfig, mode: RecordMode) -> Result<FleetSim, String> {
        cfg.try_valid()?;
        let n = cfg.requests;
        if n >= NIL as usize {
            return Err(format!("fleet is limited to {} requests, got {n}", NIL - 1));
        }
        let requests: Vec<FleetRequest> = cfg
            .arrivals
            .generate(n, cfg.seed)
            .into_iter()
            .enumerate()
            .map(|(id, (gateway_ms, quantile))| FleetRequest {
                id,
                gateway_ms,
                quantile,
            })
            .collect();
        debug_assert!(
            requests
                .windows(2)
                .all(|w| w[0].gateway_ms <= w[1].gateway_ms),
            "arrival processes emit non-decreasing times"
        );
        let tiers = cfg.tiers.len();
        let mut server_offset = Vec::with_capacity(tiers + 1);
        let mut total_servers = 0usize;
        for t in &cfg.tiers {
            server_offset.push(total_servers);
            total_servers += t.servers;
        }
        server_offset.push(total_servers);
        let disciplines = cfg
            .tiers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Discipline::from_kind(t.scheduler)
                    .map_err(|e| format!("tier {i} ({}): {e}", t.name))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetSim {
            mode,
            arena: RequestArena::with_capacity(n),
            // Outstanding dynamic events: at most one completion or timer
            // per server plus the offloads currently in transfer; the heap
            // grows to that high-water mark once and is then reused.
            heap: EventHeap::with_capacity(2 * total_servers + tiers + 8),
            server_offset,
            disciplines,
            queues: vec![IndexQueue::new(); tiers],
            queued_work_ms: vec![0.0; tiers],
            routed: vec![0; tiers],
            tier_dropped: vec![0; tiers],
            tier_completed: vec![0; tiers],
            idle: vec![true; total_servers],
            busy_ms: vec![0.0; total_servers],
            running: vec![(0.0, 0.0, Chain::EMPTY); total_servers],
            routing: match mode {
                RecordMode::Full => vec![(0, 0.0, 0.0); n],
                RecordMode::Lean => Vec::new(),
            },
            outcomes: match mode {
                RecordMode::Full => vec![None; n],
                RecordMode::Lean => Vec::new(),
            },
            tier_sojourns: vec![Vec::new(); tiers],
            lean: match mode {
                RecordMode::Full => None,
                RecordMode::Lean => Some(FleetLeanStats::new(cfg)),
            },
            snapshots: vec![
                TierSnapshot {
                    queue_len: 0,
                    queued_work_ms: 0.0,
                    in_flight_remaining_ms: 0.0,
                    servers: 0,
                };
                tiers
            ],
            swaps: Vec::new(),
            swap_applied_at: Vec::new(),
            swap_pending: Vec::new(),
            pending_swaps: 0,
            swap_order: Vec::new(),
            active_version: vec![0; tiers],
            cursor: 0,
            seq: n as u64,
            dropped: 0,
            late: 0,
            makespan: 0.0,
            events: 0,
            requests,
            cfg: cfg.clone(),
        })
    }

    /// Rewind to the pre-run state without releasing any storage, so sweeps
    /// can reuse one simulator across runs. Allocation-free.
    pub fn reset(&mut self) {
        self.heap.clear();
        for q in &mut self.queues {
            q.clear();
        }
        for w in &mut self.queued_work_ms {
            *w = 0.0;
        }
        for r in &mut self.routed {
            *r = 0;
        }
        for d in &mut self.tier_dropped {
            *d = 0;
        }
        for c in &mut self.tier_completed {
            *c = 0;
        }
        for i in &mut self.idle {
            *i = true;
        }
        for b in &mut self.busy_ms {
            *b = 0.0;
        }
        for r in &mut self.running {
            *r = (0.0, 0.0, Chain::EMPTY);
        }
        for r in &mut self.routing {
            *r = (0, 0.0, 0.0);
        }
        for o in &mut self.outcomes {
            *o = None;
        }
        for s in &mut self.tier_sojourns {
            s.clear();
        }
        if let Some(l) = &self.lean {
            l.reset();
        }
        // Un-apply swaps in reverse application order: each exchange puts
        // the displaced profile back, so the tier chain rewinds exactly.
        while let Some(k) = self.swap_order.pop() {
            let k = k as usize;
            let t = self.swaps[k].tier;
            std::mem::swap(&mut self.cfg.tiers[t].profile, &mut self.swaps[k].profile);
        }
        for a in &mut self.swap_applied_at {
            *a = f64::NAN;
        }
        for p in &mut self.swap_pending {
            *p = false;
        }
        self.pending_swaps = 0;
        for v in &mut self.active_version {
            *v = 0;
        }
        self.cursor = 0;
        self.seq = self.requests.len() as u64;
        self.dropped = 0;
        self.late = 0;
        self.makespan = 0.0;
        self.events = 0;
    }

    /// Events processed by the last [`FleetSim::run`] — gateway arrivals,
    /// tier arrivals, completions and batch timers; the numerator of the
    /// events/second throughput metric.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The streaming histograms of a [`RecordMode::Lean`] simulator
    /// (`None` in Full mode).
    pub fn lean_stats(&self) -> Option<&FleetLeanStats> {
        self.lean.as_ref()
    }

    /// The generated gateway workload, in arrival (id) order.
    pub fn requests(&self) -> &[FleetRequest] {
        &self.requests
    }

    /// Schedule a mid-run model swap; returns its index in schedule order.
    /// Must be called on a fresh (new or reset) simulator — the swap events
    /// are injected when [`FleetSim::run`] starts. Cold path: this is the
    /// only allocation the swap machinery performs; applying a swap during
    /// the run is allocation-free.
    pub fn schedule_swap(&mut self, swap: TierSwap) -> Result<usize, String> {
        if self.events != 0 {
            return Err("schedule_swap requires a fresh simulator: call reset() first".into());
        }
        if swap.tier >= self.cfg.tiers.len() {
            // lint:allow(hot-path-alloc, reason = "cold scheduling path: building the diagnostic for an out-of-range tier")
            return Err(format!(
                "swap targets nonexistent tier {} ({} tiers)",
                swap.tier,
                self.cfg.tiers.len()
            ));
        }
        if !(swap.at_ms.is_finite() && swap.at_ms >= 0.0) {
            // lint:allow(hot-path-alloc, reason = "cold scheduling path: building the diagnostic for a bad switch time")
            return Err(format!("swap time {} must be finite and >= 0", swap.at_ms));
        }
        swap.profile
            .try_valid()
            // lint:allow(hot-path-alloc, reason = "cold scheduling path: contextualizing the profile validation error")
            .map_err(|e| format!("swap for tier {}: {e}", swap.tier))?;
        self.swaps.push(swap);
        self.swap_applied_at.push(f64::NAN);
        self.swap_pending.push(false);
        // Reserve application-order capacity up front so the in-run
        // `swap_order.push` never allocates.
        if self.swap_order.capacity() < self.swaps.len() {
            let need = self.swaps.len() - self.swap_order.capacity();
            self.swap_order.reserve(need);
        }
        Ok(self.swaps.len() - 1)
    }

    /// The swap schedule, in schedule order. An applied swap's `profile`
    /// slot holds the profile it displaced.
    pub fn swaps(&self) -> &[TierSwap] {
        &self.swaps
    }

    /// How many scheduled swaps have applied so far this run (DrainFirst
    /// swaps can stay pending to the end under sustained load).
    pub fn swaps_applied(&self) -> usize {
        self.swap_order.len()
    }

    /// When swap `k` (schedule order) applied, or `None` while it has not.
    /// For [`SwapPolicy::DrainFirst`] this is the draining completion's
    /// time, not the scheduled `at_ms`.
    pub fn swap_applied_at(&self, k: usize) -> Option<f64> {
        self.swap_applied_at.get(k).copied().filter(|a| !a.is_nan())
    }

    /// The model version tier `t` currently serves — the last applied
    /// swap's version, or 0 before any swap (and for out-of-range `t`).
    pub fn active_version(&self, t: usize) -> u64 {
        self.active_version.get(t).copied().unwrap_or(0)
    }

    /// True when tier `t` holds no queued or in-flight work — the
    /// [`SwapPolicy::DrainFirst`] switch condition. Allocation-free.
    fn tier_drained(&self, t: usize) -> bool {
        if !self.queues[t].is_empty() {
            return false;
        }
        let base = self.server_offset[t];
        let servers = self.server_offset[t + 1] - base;
        self.idle[base..base + servers].iter().all(|&i| i)
    }

    /// Switch `swaps[k]`'s tier over: exchange the tier's cost profile with
    /// the swap's in place, adopt the new model version, and record the
    /// swap span. Makespan is deliberately untouched — a swap is a
    /// control-plane event, and a no-op swap must leave the report
    /// bit-identical to a swap-free run. Allocation-free.
    fn apply_swap(&mut self, k: usize, now: f64, obs: Option<&mut SimObserver>) {
        let t = self.swaps[k].tier;
        std::mem::swap(&mut self.cfg.tiers[t].profile, &mut self.swaps[k].profile);
        self.active_version[t] = self.swaps[k].version;
        self.swap_applied_at[k] = now;
        self.swap_order.push(k as u32);
        if let Some(o) = obs {
            o.on_swap(now, k, t, self.swaps[k].version);
        }
    }

    /// Apply any pending DrainFirst swaps of tier `t` whose drain condition
    /// now holds, in schedule order. Allocation-free.
    fn apply_pending_swaps(&mut self, t: usize, now: f64, mut obs: Option<&mut SimObserver>) {
        for k in 0..self.swaps.len() {
            if self.swap_pending[k] && self.swaps[k].tier == t && self.tier_drained(t) {
                self.swap_pending[k] = false;
                self.pending_swaps -= 1;
                self.apply_swap(k, now, obs.as_deref_mut());
            }
        }
    }

    /// The cost profile tier `t` was serving at gateway time `g_ms`: the
    /// current profile, unless a swap applied at or after `g_ms` — then the
    /// old profile that swap displaced (held in its schedule slot). Lean
    /// mode re-derives in-flight prices through this lookup so requests
    /// priced before a switch keep the old model's cost; Full mode reads
    /// the gateway-time routing table instead. Allocation-free.
    fn profile_at(&self, t: usize, g_ms: f64) -> &CostProfile {
        for &k in &self.swap_order {
            let k = k as usize;
            if self.swaps[k].tier == t && self.swap_applied_at[k] >= g_ms {
                return &self.swaps[k].profile;
            }
        }
        &self.cfg.tiers[t].profile
    }

    /// Refill the congestion-snapshot scratch for a routing decision at
    /// `now` — one [`TierSnapshot`] per tier, written in place.
    fn fill_snapshots(&mut self, now: f64) {
        for (t, tier) in self.cfg.tiers.iter().enumerate() {
            let base = self.server_offset[t];
            let mut in_flight = 0.0f64;
            for s in 0..tier.servers {
                if !self.idle[base + s] {
                    in_flight += (self.running[base + s].1 - now).max(0.0);
                }
            }
            self.snapshots[t] = TierSnapshot {
                queue_len: self.queues[t].len(),
                queued_work_ms: self.queued_work_ms[t].max(0.0),
                in_flight_remaining_ms: in_flight,
                servers: tier.servers,
            };
        }
    }

    /// Enqueue `id` at tier `t` at time `now` (post-transfer for remote
    /// tiers), subject to the tier's admission control.
    fn admit(
        &mut self,
        t: usize,
        id: u32,
        service_ms: f64,
        now: f64,
        obs: Option<&mut SimObserver>,
    ) {
        let queue_len = self.queues[t].len();
        if let Some(l) = &mut self.lean {
            l.tiers[t].queue_depth.observe_mut(queue_len as f64);
        }
        if self.cfg.tiers[t].admission.admits(queue_len) {
            self.arena.set(
                id,
                Request {
                    id: id as usize,
                    arrival_ms: now,
                    service_ms,
                },
            );
            self.queues[t].push_back(&mut self.arena, id);
            self.queued_work_ms[t] += service_ms;
            if let Some(o) = obs {
                o.on_admit(now, id as usize, t);
                o.on_queue_enter(now, id as usize, t);
            }
        } else {
            self.tier_dropped[t] += 1;
            self.dropped += 1;
            if self.mode == RecordMode::Full {
                self.outcomes[id as usize] = Some(FleetOutcome::Dropped);
            }
            if let Some(o) = obs {
                o.on_drop(now, id as usize, t, queue_len as f64);
            }
        }
    }

    /// Drain the workload: merge gateway arrivals (from the sorted slab,
    /// via `cursor`) with dynamic heap events in (time, seq) order and
    /// process each exactly as the original loop did. Steady-state
    /// execution is allocation-free. Errs if the policy routes to a
    /// nonexistent tier (partial state: call [`FleetSim::reset`] before
    /// reusing the simulator).
    pub fn run(
        &mut self,
        policy: &mut dyn OffloadPolicy,
        mut obs: Option<&mut SimObserver>,
    ) -> Result<(), String> {
        // Inject scheduled swaps on a fresh run. Their seqs n..n+k sit
        // below every dynamic seq minted later, so a swap at time T fires
        // before any completion/timer/tier-arrival at T — but after the
        // gateway arrival at T, whose implicit seq is below n. Shifting
        // every dynamic seq by a constant k preserves their relative order,
        // which is what makes a no-op swap bit-identical to no swap.
        if self.events == 0 {
            for k in 0..self.swaps.len() {
                self.heap.push(
                    self.swaps[k].at_ms,
                    self.seq,
                    FleetEvent::Swap { swap: k as u32 },
                );
                self.seq += 1;
            }
        }
        loop {
            let next_arrival = self.requests.get(self.cursor).map(|r| r.gateway_ms);
            let take_arrival = match (next_arrival, self.heap.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                // Gateway arrival `cursor` carries implicit seq `cursor`,
                // below every dynamic seq (those start at n) — so ties go
                // to the arrival, the old all-in-one heap's exact order.
                (Some(a), Some((t, _))) => !matches!(a.total_cmp(&t), std::cmp::Ordering::Greater),
            };
            self.events += 1;
            if take_arrival {
                let id = self.cursor as u32;
                self.cursor += 1;
                let req = self.requests[id as usize];
                let now = req.gateway_ms;
                self.makespan = self.makespan.max(now);
                // Congestion snapshots cost a scan of every tier's servers;
                // static policies opt out and receive an empty slice.
                let needs = policy.needs_snapshots();
                if needs {
                    self.fill_snapshots(now);
                }
                let snapshots: &[TierSnapshot] = if needs { &self.snapshots } else { &[] };
                let target = policy.route(req.quantile, &self.cfg.tiers, snapshots);
                if target >= self.cfg.tiers.len() {
                    // lint:allow(hot-path-alloc, reason = "cold abort path: a misrouting policy ends the run with an error, the steady-state loop never reaches this")
                    return Err(format!(
                        "offload policy routed to nonexistent tier {target} ({} tiers)",
                        self.cfg.tiers.len()
                    ));
                }
                let service_ms = self.cfg.tiers[target].profile.sample(req.quantile);
                let transfer_ms = self.cfg.tiers[target]
                    .link
                    .as_ref()
                    .map_or(0.0, |l| l.transfer_ms());
                if self.mode == RecordMode::Full {
                    self.routing[id as usize] = (target as u32, service_ms, transfer_ms);
                }
                self.routed[target] += 1;
                if let Some(o) = obs.as_deref_mut() {
                    o.on_arrival(now, req.id);
                    o.on_route(now, req.id, target, transfer_ms);
                }
                if target == 0 {
                    self.admit(0, id, service_ms, now, obs.as_deref_mut());
                    self.dispatch_tier(0, now, obs.as_deref_mut());
                } else {
                    self.heap.push(
                        now + transfer_ms,
                        self.seq,
                        FleetEvent::TierArrival {
                            tier: target as u32,
                            id,
                        },
                    );
                    self.seq += 1;
                }
            } else if let Some((now, _seq, kind)) = self.heap.pop() {
                match kind {
                    FleetEvent::TierArrival { tier, id } => {
                        let t = tier as usize;
                        self.makespan = self.makespan.max(now);
                        // The price was fixed at the gateway and is a pure
                        // function of (tier, quantile): Full reads it back,
                        // Lean re-derives it instead of holding the table.
                        let service_ms = match self.mode {
                            RecordMode::Full => self.routing[id as usize].1,
                            RecordMode::Lean => self
                                .profile_at(t, self.requests[id as usize].gateway_ms)
                                .sample(self.requests[id as usize].quantile),
                        };
                        self.admit(t, id, service_ms, now, obs.as_deref_mut());
                        self.dispatch_tier(t, now, obs.as_deref_mut());
                    }
                    FleetEvent::Completion { tier, server } => {
                        let t = tier as usize;
                        let s = server as usize;
                        self.makespan = self.makespan.max(now);
                        let flat = self.server_offset[t] + s;
                        let (start_ms, _, chain) = self.running[flat];
                        self.running[flat] = (0.0, 0.0, Chain::EMPTY);
                        let mut id = chain.head;
                        for _ in 0..chain.count {
                            let sojourn = now - self.requests[id as usize].gateway_ms;
                            match self.mode {
                                RecordMode::Full => {
                                    self.tier_sojourns[t].push(sojourn);
                                    self.outcomes[id as usize] = Some(FleetOutcome::Completed {
                                        server: s,
                                        start_ms,
                                        finish_ms: now,
                                    });
                                }
                                RecordMode::Lean => {
                                    if let Some(l) = &mut self.lean {
                                        l.tiers[t].sojourn_ms.observe_mut(sojourn);
                                        l.tiers[t]
                                            .service_ms
                                            .observe_mut(self.arena.get(id).service_ms);
                                        l.end_to_end_ms.observe_mut(sojourn);
                                    }
                                    if sojourn > self.cfg.slo_ms {
                                        self.late += 1;
                                    }
                                }
                            }
                            self.tier_completed[t] += 1;
                            if let Some(o) = obs.as_deref_mut() {
                                o.on_service_end(now, id as usize, t, s, now - start_ms);
                                o.on_complete(now, id as usize, t, sojourn);
                            }
                            id = self.arena.next_of(id);
                        }
                        self.idle[flat] = true;
                        self.dispatch_tier(t, now, obs.as_deref_mut());
                        // Only a completion can drain a tier, so this is
                        // the one place DrainFirst swaps are retried.
                        if self.pending_swaps > 0 {
                            self.apply_pending_swaps(t, now, obs.as_deref_mut());
                        }
                    }
                    FleetEvent::Timer { tier } => {
                        self.dispatch_tier(tier as usize, now, obs.as_deref_mut());
                    }
                    FleetEvent::Swap { swap } => {
                        // No makespan update: swaps are control-plane, and
                        // a swap past the last completion must not stretch
                        // the measured run.
                        let k = swap as usize;
                        let t = self.swaps[k].tier;
                        if self.swaps[k].policy == SwapPolicy::Immediate || self.tier_drained(t) {
                            self.apply_swap(k, now, obs.as_deref_mut());
                        } else {
                            self.swap_pending[k] = true;
                            self.pending_swaps += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Engine-identical dispatch loop, restricted to the one tier whose
    /// queue or servers the triggering event could have changed.
    fn dispatch_tier(&mut self, t: usize, now: f64, mut obs: Option<&mut SimObserver>) {
        let discipline = self.disciplines[t];
        let base = self.server_offset[t];
        let servers = self.server_offset[t + 1] - base;
        for s in 0..servers {
            if !self.idle[base + s] {
                continue;
            }
            match discipline.dispatch(&mut self.queues[t], &mut self.arena, now) {
                Action::Serve(chain) => {
                    debug_assert!(chain.count >= 1, "discipline dispatched an empty chain");
                    let mut service = f64::NEG_INFINITY;
                    let mut batch_work = 0.0f64;
                    let mut id = chain.head;
                    for _ in 0..chain.count {
                        let r = self.arena.get(id);
                        service = f64::max(service, r.service_ms);
                        batch_work += r.service_ms;
                        id = self.arena.next_of(id);
                    }
                    self.queued_work_ms[t] -= batch_work;
                    self.busy_ms[base + s] += service;
                    self.idle[base + s] = false;
                    if let Some(o) = obs.as_deref_mut() {
                        let mut id = chain.head;
                        for _ in 0..chain.count {
                            o.on_queue_leave(now, id as usize, t);
                            o.on_service_start(now, id as usize, t, s, chain.count as usize);
                            id = self.arena.next_of(id);
                        }
                    }
                    self.running[base + s] = (now, now + service, chain);
                    self.heap.push(
                        now + service,
                        self.seq,
                        FleetEvent::Completion {
                            tier: t as u32,
                            server: s as u32,
                        },
                    );
                    self.seq += 1;
                }
                Action::WaitUntil(tm) => {
                    self.heap
                        .push(tm, self.seq, FleetEvent::Timer { tier: t as u32 });
                    self.seq += 1;
                    break;
                }
                Action::Idle => break,
            }
        }
    }

    /// Assemble the [`FleetReport`] of the last run. In [`RecordMode::Full`]
    /// this is byte-for-byte the report the original `BinaryHeap` loop
    /// produced; in [`RecordMode::Lean`] sojourn percentiles come from the
    /// streaming histograms and `records` is empty.
    pub fn report(&self) -> FleetReport {
        let n = self.requests.len();
        let makespan = self.makespan;
        let records: Vec<FleetRecord> = match self.mode {
            RecordMode::Full => self
                .requests
                .iter()
                .map(|&request| {
                    let (tier, service_ms, transfer_ms) = self.routing[request.id];
                    // lint:allow(panic-in-lib, reason = "every admitted request completes and every rejected one is marked Dropped before the heap drains; a hole here is engine corruption, not user input")
                    let outcome = self.outcomes[request.id].expect("request resolves by drain");
                    FleetRecord {
                        request,
                        tier: tier as usize,
                        service_ms,
                        transfer_ms,
                        outcome,
                    }
                })
                .collect(),
            RecordMode::Lean => Vec::new(),
        };

        let mut tier_reports = Vec::with_capacity(self.cfg.tiers.len());
        let mut all_sojourns: Vec<f64> = Vec::new();
        let mut busy_all = 0.0f64;
        let mut energy_all = 0.0f64;
        for (t, tier_cfg) in self.cfg.tiers.iter().enumerate() {
            let base = self.server_offset[t];
            let busy = &self.busy_ms[base..base + tier_cfg.servers];
            let busy_total: f64 = busy.iter().sum();
            busy_all += busy_total;
            let (completed, serving) = if self.mode == RecordMode::Full {
                all_sojourns.extend_from_slice(&self.tier_sojourns[t]);
                (
                    self.tier_sojourns[t].len(),
                    finalize_report(
                        &tier_cfg.device,
                        self.tier_sojourns[t].clone(),
                        busy_total,
                        makespan,
                        tier_cfg.servers,
                    ),
                )
            } else {
                // lint:allow(panic-in-lib, reason = "a Lean simulator always carries its histograms; a hole here is engine corruption, not user input")
                let lean = self.lean.as_ref().expect("lean mode carries stats");
                (
                    self.tier_completed[t],
                    report_from_histogram(
                        &tier_cfg.device,
                        &lean.tiers[t].sojourn_ms,
                        busy_total,
                        makespan,
                        tier_cfg.servers,
                    ),
                )
            };
            energy_all += serving.energy_j;
            tier_reports.push(TierReport {
                name: tier_cfg.name.clone(),
                serving,
                routed: self.routed[t],
                completed,
                dropped: self.tier_dropped[t],
                per_server_utilization: busy
                    .iter()
                    .map(|&b| {
                        if makespan > 0.0 {
                            (b / makespan).min(1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect(),
                per_server_busy_ms: busy.to_vec(),
            });
        }

        let total_servers = self.server_offset[self.cfg.tiers.len()];
        let capacity_ms = makespan * total_servers as f64;
        let utilization = if capacity_ms > 0.0 {
            (busy_all / capacity_ms).min(1.0)
        } else {
            0.0
        };
        let (completed, late, end_to_end) = if self.mode == RecordMode::Full {
            let completed = all_sojourns.len();
            let late = all_sojourns
                .iter()
                .filter(|&&s| s > self.cfg.slo_ms)
                .count();
            all_sojourns.sort_by(f64::total_cmp);
            let end_to_end = ServingReport {
                mean_sojourn_ms: if all_sojourns.is_empty() {
                    0.0
                } else {
                    all_sojourns.iter().sum::<f64>() / all_sojourns.len() as f64
                },
                p50_ms: percentile_sorted(&all_sojourns, 0.50),
                p95_ms: percentile_sorted(&all_sojourns, 0.95),
                p99_ms: percentile_sorted(&all_sojourns, 0.99),
                utilization,
                makespan_ms: makespan,
                energy_j: energy_all,
            };
            (completed, late, end_to_end)
        } else {
            // lint:allow(panic-in-lib, reason = "a Lean simulator always carries its histograms; a hole here is engine corruption, not user input")
            let lean = self.lean.as_ref().expect("lean mode carries stats");
            let h = &lean.end_to_end_ms;
            let (mean, p50, p95, p99) = if h.count() == 0 {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                (
                    h.sum() / h.count() as f64,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                )
            };
            let end_to_end = ServingReport {
                mean_sojourn_ms: mean,
                p50_ms: p50,
                p95_ms: p95,
                p99_ms: p99,
                utilization,
                makespan_ms: makespan,
                energy_j: energy_all,
            };
            (self.tier_completed.iter().sum(), self.late, end_to_end)
        };
        let dropped = n - completed;
        let offloaded: usize = self.routed.iter().skip(1).sum();

        FleetReport {
            tiers: tier_reports,
            offered: n,
            completed,
            dropped,
            offloaded,
            slo_ms: self.cfg.slo_ms,
            slo_violations: late + dropped,
            end_to_end,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_engine, EngineConfig};
    use crate::pipeline::ServingConfig;

    fn rpi_tier(name: &str, servers: usize, profile: CostProfile) -> Tier {
        Tier {
            name: name.into(),
            device: DeviceModel::raspberry_pi4(),
            servers,
            profile,
            scheduler: SchedulerKind::Fifo,
            admission: AdmissionPolicy::Unbounded,
            link: None,
        }
    }

    fn cloud_tier(name: &str, servers: usize, profile: CostProfile, link: NetworkLink) -> Tier {
        Tier {
            name: name.into(),
            device: DeviceModel::gci_cpu(),
            servers,
            profile,
            scheduler: SchedulerKind::Fifo,
            admission: AdmissionPolicy::Unbounded,
            link: Some(link),
        }
    }

    fn two_tier(edge_profile: CostProfile, cloud_profile: CostProfile) -> FleetConfig {
        FleetConfig {
            tiers: vec![
                rpi_tier("edge", 2, edge_profile),
                cloud_tier("cloud", 2, cloud_profile, NetworkLink::wifi(3136)),
            ],
            arrivals: ArrivalProcess::poisson(200.0),
            requests: 8_000,
            seed: 17,
            slo_ms: 40.0,
        }
    }

    #[test]
    fn single_tier_always_local_matches_engine_bit_for_bit() {
        let d = DeviceModel::raspberry_pi4();
        for profile in [
            CostProfile::constant(2.4),
            CostProfile::bimodal(2.0, 13.0, 0.9),
            CostProfile::empirical(vec![1.0, 1.5, 2.0, 9.0, 12.5]),
        ] {
            for (servers, scheduler, admission) in [
                (1, SchedulerKind::Fifo, AdmissionPolicy::Unbounded),
                (
                    3,
                    SchedulerKind::ShortestService,
                    AdmissionPolicy::Bounded { max_queue: 32 },
                ),
                (
                    2,
                    SchedulerKind::Batch {
                        max_batch: 4,
                        max_wait_ms: 5.0,
                    },
                    AdmissionPolicy::Unbounded,
                ),
            ] {
                let engine_cfg = EngineConfig {
                    workload: ServingConfig {
                        arrival_rate_hz: 260.0,
                        profile: profile.clone(),
                        requests: 5_000,
                        seed: 42,
                    },
                    servers,
                    scheduler,
                    admission,
                };
                let engine = simulate_engine(&d, &engine_cfg);
                let fleet = simulate_fleet(
                    &FleetConfig::single_tier("edge", d, &engine_cfg, 50.0),
                    OffloadPolicyKind::AlwaysLocal,
                );
                let tier = &fleet.tiers[0];
                assert_eq!(tier.serving.mean_sojourn_ms, engine.serving.mean_sojourn_ms);
                assert_eq!(tier.serving.p50_ms, engine.serving.p50_ms);
                assert_eq!(tier.serving.p95_ms, engine.serving.p95_ms);
                assert_eq!(tier.serving.p99_ms, engine.serving.p99_ms);
                assert_eq!(tier.serving.utilization, engine.serving.utilization);
                assert_eq!(tier.serving.makespan_ms, engine.serving.makespan_ms);
                assert_eq!(tier.serving.energy_j, engine.serving.energy_j);
                assert_eq!(tier.per_server_busy_ms, engine.per_server_busy_ms);
                assert_eq!(tier.per_server_utilization, engine.per_server_utilization);
                assert_eq!(fleet.completed, engine.completed);
                assert_eq!(fleet.dropped, engine.dropped);
                assert_eq!(fleet.offloaded, 0);
                // End-to-end aggregates collapse to the tier's for one tier.
                assert_eq!(fleet.end_to_end.p99_ms, engine.serving.p99_ms);
                assert_eq!(fleet.end_to_end.utilization, engine.serving.utilization);
            }
        }
    }

    #[test]
    fn exit_confidence_offloads_exactly_the_hard_fraction() {
        let cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.8),
            CostProfile::bimodal(0.2, 1.3, 0.8),
        );
        let r = simulate_fleet(&cfg, OffloadPolicyKind::ExitConfidence);
        // Every request with quantile ≥ 0.8 — and only those — offloads.
        let hard = r
            .records
            .iter()
            .filter(|rec| rec.request.quantile >= 0.8)
            .count();
        assert_eq!(r.offloaded, hard);
        assert_eq!(r.tiers[1].routed, hard);
        assert!(
            (r.offload_rate() - 0.2).abs() < 0.02,
            "{}",
            r.offload_rate()
        );
        // Offloaded requests pay the link before the cloud queue.
        let transfer = NetworkLink::wifi(3136).transfer_ms();
        for rec in r.records.iter().filter(|rec| rec.tier == 1) {
            assert!((rec.transfer_ms - transfer).abs() < 1e-12);
            if let FleetOutcome::Completed { finish_ms, .. } = rec.outcome {
                let sojourn = finish_ms - rec.request.gateway_ms;
                assert!(sojourn >= transfer + rec.service_ms - 1e-9);
            }
        }
    }

    #[test]
    fn exit_confidence_never_offloads_constant_profiles() {
        // A CBNet-style constant local profile has easy fraction 1: every
        // request exits locally, so nothing ships.
        let cfg = two_tier(CostProfile::constant(2.4), CostProfile::constant(0.3));
        let r = simulate_fleet(&cfg, OffloadPolicyKind::ExitConfidence);
        assert_eq!(r.offloaded, 0);
        assert_eq!(r.tiers[1].routed, 0);
        assert_eq!(r.tiers[1].serving.utilization, 0.0);
    }

    #[test]
    fn slo_sojourn_sheds_load_and_cuts_violations_under_overload() {
        // One edge server at ρ ≈ 1.7 without offload: AlwaysLocal melts,
        // SloSojourn ships the overflow to the cloud pool.
        let mut cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.8),
            CostProfile::bimodal(0.2, 1.3, 0.8),
        );
        cfg.tiers[0].servers = 1;
        cfg.arrivals = ArrivalProcess::poisson(400.0);
        assert!(cfg.local_load_per_server() > 1.5);
        let local = simulate_fleet(&cfg, OffloadPolicyKind::AlwaysLocal);
        let slo = simulate_fleet(&cfg, OffloadPolicyKind::SloSojourn { slo_ms: cfg.slo_ms });
        assert!(slo.offloaded > 0);
        assert!(
            slo.slo_violation_rate() < 0.5 * local.slo_violation_rate(),
            "slo {} !< local {}",
            slo.slo_violation_rate(),
            local.slo_violation_rate()
        );
        assert!(slo.end_to_end.p99_ms < local.end_to_end.p99_ms);
    }

    #[test]
    fn slo_sojourn_offloads_instead_of_dropping_at_a_full_edge() {
        // A 16-slot edge whose queue fills before its predicted sojourn
        // reaches a 3×-slowest-service SLO, under MMPP bursts at 1.2× the
        // edge's capacity. Routing that ignored admission behaved like
        // `AlwaysLocal` here: it kept requests at the full edge, which
        // dropped ~40% of them while the cloud idled.
        let edge_profile = CostProfile::bimodal(2.0, 13.2, 0.93);
        let edge_hz = 4.0 * 1000.0 / edge_profile.mean_ms();
        let mut edge = rpi_tier("edge", 4, edge_profile.clone());
        edge.admission = AdmissionPolicy::Bounded { max_queue: 16 };
        let wifi = NetworkLink::wifi(3136);
        let mut gpu = cloud_tier("gpu", 1, CostProfile::bimodal(0.2, 1.3, 0.93), wifi);
        gpu.device = DeviceModel::gci_gpu();
        gpu.admission = AdmissionPolicy::Bounded { max_queue: 64 };
        let cfg = FleetConfig {
            tiers: vec![edge, gpu],
            arrivals: ArrivalProcess::mmpp(0.4 * 1.2 * edge_hz, 2.8 * 1.2 * edge_hz, 300.0, 100.0),
            requests: 20_000,
            seed: 15,
            slo_ms: 3.0 * edge_profile.max_ms(),
        };
        let local = simulate_fleet(&cfg, OffloadPolicyKind::AlwaysLocal);
        let slo = simulate_fleet(&cfg, OffloadPolicyKind::SloSojourn { slo_ms: cfg.slo_ms });
        assert!(
            local.tiers[0].dropped > local.offered / 5,
            "the config must overflow the edge: {} dropped",
            local.tiers[0].dropped
        );
        assert!(
            slo.tiers[0].dropped * 20 < local.tiers[0].dropped,
            "edge drops {} vs {} without offload",
            slo.tiers[0].dropped,
            local.tiers[0].dropped
        );
        assert!(
            slo.offloaded > slo.offered / 10,
            "offloaded {}",
            slo.offloaded
        );
        assert_eq!(slo.completed + slo.dropped, slo.offered);
        assert_eq!(
            slo.tiers.iter().map(|t| t.routed).sum::<usize>(),
            slo.offered
        );
        for t in &slo.tiers {
            assert_eq!(t.completed + t.dropped, t.routed);
        }
    }

    #[test]
    fn conservation_holds_with_bounded_remote_admission() {
        let mut cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.6),
            CostProfile::constant(5.0),
        );
        cfg.tiers[0].servers = 1;
        cfg.tiers[1].servers = 1;
        cfg.tiers[1].admission = AdmissionPolicy::Bounded { max_queue: 4 };
        cfg.arrivals = ArrivalProcess::mmpp(100.0, 1200.0, 300.0, 150.0);
        let r = simulate_fleet(&cfg, OffloadPolicyKind::ExitConfidence);
        assert_eq!(r.completed + r.dropped, r.offered);
        assert_eq!(
            r.tiers.iter().map(|t| t.routed).sum::<usize>(),
            r.offered,
            "every request routes to exactly one tier"
        );
        for t in &r.tiers {
            assert_eq!(t.completed + t.dropped, t.routed);
        }
        assert_eq!(r.offloaded, r.tiers[1].routed);
        assert!(
            r.dropped > 0,
            "a 4-deep remote queue under bursts must shed"
        );
    }

    #[test]
    fn bursty_arrivals_hurt_tails_at_equal_mean_rate() {
        let mk = |arrivals: ArrivalProcess| {
            let mut cfg = two_tier(
                CostProfile::bimodal(2.0, 13.0, 0.8),
                CostProfile::constant(0.4),
            );
            cfg.arrivals = arrivals;
            simulate_fleet(&cfg, OffloadPolicyKind::AlwaysLocal)
        };
        let mmpp = ArrivalProcess::mmpp(40.0, 900.0, 400.0, 120.0);
        let poisson = ArrivalProcess::poisson(mmpp.mean_rate_hz());
        let bursty = mk(mmpp);
        let steady = mk(poisson);
        assert!(
            bursty.end_to_end.p99_ms > steady.end_to_end.p99_ms,
            "bursty p99 {} !> steady p99 {}",
            bursty.end_to_end.p99_ms,
            steady.end_to_end.p99_ms
        );
    }

    #[test]
    fn trace_arrivals_replay_deterministically() {
        let mut cfg = two_tier(CostProfile::constant(2.0), CostProfile::constant(0.3));
        cfg.arrivals = ArrivalProcess::trace(vec![1.0, 1.0, 50.0]);
        cfg.requests = 600;
        let a = simulate_fleet(&cfg, OffloadPolicyKind::SloSojourn { slo_ms: 10.0 });
        let b = simulate_fleet(&cfg, OffloadPolicyKind::SloSojourn { slo_ms: 10.0 });
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_to_end.p99_ms, b.end_to_end.p99_ms);
    }

    #[test]
    fn network_link_transfer_arithmetic() {
        // 1 MB at 8 Mb/s = 1 s of serialization, plus 10 ms latency.
        let l = NetworkLink::new(10.0, 8.0, 1_000_000);
        assert!((l.transfer_ms() - 1010.0).abs() < 1e-9);
        // Presets are ordered: LAN < WiFi < WAN for the same payload.
        let (lan, wifi, wan) = (
            NetworkLink::lan(3136).transfer_ms(),
            NetworkLink::wifi(3136).transfer_ms(),
            NetworkLink::wan(3136).transfer_ms(),
        );
        assert!(lan < wifi && wifi < wan, "{lan} {wifi} {wan}");
    }

    #[test]
    fn config_validation_catches_topology_mistakes() {
        let good = two_tier(CostProfile::constant(1.0), CostProfile::constant(0.2));
        assert!(good.try_valid().is_ok());

        let mut no_link = good.clone();
        no_link.tiers[1].link = None;
        assert!(no_link.try_valid().unwrap_err().contains("need a link"));

        let mut local_link = good.clone();
        local_link.tiers[0].link = Some(NetworkLink::lan(100));
        assert!(local_link
            .try_valid()
            .unwrap_err()
            .contains("must not have a link"));

        let mut bad_profile = good.clone();
        bad_profile.tiers[1].profile = CostProfile::Constant { service_ms: -1.0 };
        assert!(bad_profile.try_valid().unwrap_err().contains("tier 1"));

        let mut bad_slo = good.clone();
        bad_slo.slo_ms = 0.0;
        assert!(bad_slo.try_valid().unwrap_err().contains("SLO"));

        let mut no_tiers = good.clone();
        no_tiers.tiers.clear();
        assert!(no_tiers
            .try_valid()
            .unwrap_err()
            .contains("at least one tier"));
    }

    #[test]
    fn policy_labels_match_built_names() {
        for kind in [
            OffloadPolicyKind::AlwaysLocal,
            OffloadPolicyKind::ExitConfidence,
            OffloadPolicyKind::SloSojourn { slo_ms: 25.0 },
        ] {
            assert_eq!(kind.label(), kind.build().name());
        }
    }

    #[test]
    fn capacity_helpers_are_consistent() {
        let cfg = two_tier(CostProfile::constant(2.0), CostProfile::constant(0.5));
        // edge: 2 servers · 500/s, cloud: 2 · 2000/s.
        assert!((cfg.aggregate_capacity_hz() - 5000.0).abs() < 1e-9);
        // 200/s · 2 ms / 2 servers = 0.2.
        assert!((cfg.local_load_per_server() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn observed_fleet_matches_unobserved_bit_for_bit() {
        use crate::observe::SimObserver;
        use obs::{ObsMode, SpanKind};
        let mut cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.8),
            CostProfile::bimodal(0.4, 1.8, 0.8),
        );
        cfg.tiers[0].admission = AdmissionPolicy::Bounded { max_queue: 24 };
        cfg.requests = 4_000;
        let policy = OffloadPolicyKind::ExitConfidence;

        let base = try_simulate_fleet(&cfg, policy).unwrap();
        let mut obs =
            SimObserver::with_mode(ObsMode::Trace, &["edge", "cloud"], &policy.label(), 1 << 16);
        let observed = try_simulate_fleet_observed(&cfg, policy, &mut obs).unwrap();

        assert_eq!(base.completed, observed.completed);
        assert_eq!(base.dropped, observed.dropped);
        assert_eq!(base.offloaded, observed.offloaded);
        assert_eq!(base.end_to_end.p99_ms, observed.end_to_end.p99_ms);
        assert_eq!(base.end_to_end.energy_j, observed.end_to_end.energy_j);
        for (a, b) in base.tiers.iter().zip(&observed.tiers) {
            assert_eq!(a.serving.mean_sojourn_ms, b.serving.mean_sojourn_ms);
            assert_eq!(a.routed, b.routed);
            assert_eq!(a.dropped, b.dropped);
        }

        // Per-tier ledger agrees with the report.
        let r = obs.registry();
        for (i, name) in ["edge", "cloud"].iter().enumerate() {
            assert_eq!(
                r.counter_by_name(&format!("tier.{name}.routed")),
                Some(observed.tiers[i].routed as u64)
            );
            assert_eq!(
                r.counter_by_name(&format!("tier.{name}.completed")),
                Some(observed.tiers[i].completed as u64)
            );
            assert_eq!(
                r.histogram_by_name(&format!("tier.{name}.sojourn_ms"))
                    .unwrap()
                    .count(),
                observed.tiers[i].completed as u64
            );
        }
        let label = policy.label();
        assert_eq!(
            r.counter_by_name(&format!("policy.{label}.decision.offload")),
            Some(observed.offloaded as u64)
        );
        assert_eq!(
            r.histogram_by_name("tier.cloud.transfer_ms")
                .unwrap()
                .count(),
            observed.offloaded as u64
        );

        // The trace reconstructs tier paths: every offloaded request has an
        // OffloadHop on the cloud tier before its ServiceEnd there.
        let offloaded_req = observed
            .records
            .iter()
            .find(|rec| rec.tier == 1)
            .expect("exit-confidence offloads the hard fraction")
            .request
            .id as u64;
        let path: Vec<SpanKind> = obs
            .trace()
            .iter()
            .filter(|e| e.request == offloaded_req)
            .map(|e| e.kind)
            .collect();
        assert_eq!(path[0], SpanKind::Arrival);
        assert!(path.contains(&SpanKind::OffloadHop));
        let hop = path
            .iter()
            .position(|k| *k == SpanKind::OffloadHop)
            .unwrap();
        let end = path.iter().position(|k| *k == SpanKind::ServiceEnd);
        assert!(end.is_none_or(|e| hop < e), "hop precedes remote service");
    }

    #[test]
    fn noop_swap_is_bit_identical_to_swap_free_run() {
        let cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.8),
            CostProfile::bimodal(0.4, 1.8, 0.8),
        );
        let mut base_policy = OffloadPolicyKind::ExitConfidence.build();
        let base = try_simulate_fleet_with(&cfg, base_policy.as_mut()).unwrap();
        // Swap the cloud tier to an identical profile mid-run: control-plane
        // noise only, the serving report must not move a bit.
        let swap = TierSwap {
            tier: 1,
            at_ms: 500.0,
            profile: cfg.tiers[1].profile.clone(),
            version: 1,
            policy: SwapPolicy::Immediate,
        };
        let mut policy = OffloadPolicyKind::ExitConfidence.build();
        let (swapped, applied) =
            try_simulate_fleet_with_swaps(&cfg, policy.as_mut(), &[swap], None).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(base.records, swapped.records);
        assert_eq!(base.end_to_end.p99_ms, swapped.end_to_end.p99_ms);
        assert_eq!(base.end_to_end.makespan_ms, swapped.end_to_end.makespan_ms);
        assert_eq!(base.end_to_end.energy_j, swapped.end_to_end.energy_j);
        for (a, b) in base.tiers.iter().zip(&swapped.tiers) {
            assert_eq!(a.per_server_busy_ms, b.per_server_busy_ms);
            assert_eq!(a.serving.mean_sojourn_ms, b.serving.mean_sojourn_ms);
        }
    }

    #[test]
    fn inflight_requests_complete_on_the_old_version() {
        // Deterministic arrivals, all work offloaded to the cloud tier with
        // a 10ms -> 1ms rollout halfway: anything priced at the gateway
        // before the switch must complete at the old 10ms cost even if it
        // reaches the tier (post-transfer) after the swap applied.
        let mut cfg = two_tier(CostProfile::constant(50.0), CostProfile::constant(10.0));
        cfg.arrivals = ArrivalProcess::trace(vec![2.0; 400]);
        cfg.requests = 400;
        let swap_at = 401.0; // between gateway arrivals 200 (t=400) and 201 (t=402)
        let swap = TierSwap {
            tier: 1,
            at_ms: swap_at,
            profile: CostProfile::constant(1.0),
            version: 2,
            policy: SwapPolicy::Immediate,
        };
        let mut policy = OffloadPolicyKind::SloSojourn { slo_ms: 0.001 }.build();
        let (r, applied) =
            try_simulate_fleet_with_swaps(&cfg, policy.as_mut(), std::slice::from_ref(&swap), None)
                .unwrap();
        assert_eq!(applied, 1);
        let transfer = NetworkLink::wifi(3136).transfer_ms();
        assert!(
            transfer > 2.0,
            "transfer keeps requests in flight across the swap"
        );
        for rec in r.records.iter().filter(|rec| rec.tier == 1) {
            let expected = if rec.request.gateway_ms < swap_at {
                10.0
            } else {
                1.0
            };
            assert_eq!(
                rec.service_ms, expected,
                "request {} priced at t={} straddled the swap wrong",
                rec.request.id, rec.request.gateway_ms
            );
        }
        assert!(r
            .records
            .iter()
            .any(|rec| rec.tier == 1 && rec.service_ms == 10.0));
        assert!(r
            .records
            .iter()
            .any(|rec| rec.tier == 1 && rec.service_ms == 1.0));

        // Lean mode re-derives prices at tier arrival; the gateway-time
        // profile lookup must reproduce Full's accounting exactly.
        let mut sim = FleetSim::new(&cfg, RecordMode::Lean).unwrap();
        sim.schedule_swap(swap).unwrap();
        let mut lean_policy = OffloadPolicyKind::SloSojourn { slo_ms: 0.001 }.build();
        sim.run(lean_policy.as_mut(), None).unwrap();
        let lean = sim.report();
        assert_eq!(lean.completed, r.completed);
        assert_eq!(lean.dropped, r.dropped);
        assert_eq!(
            lean.end_to_end.mean_sojourn_ms, r.end_to_end.mean_sojourn_ms,
            "lean re-derivation must price in-flight requests on the old version"
        );
        assert_eq!(sim.active_version(1), 2);
        assert_eq!(sim.active_version(0), 0);
    }

    #[test]
    fn swap_conservation_and_reset_replay() {
        let mut cfg = two_tier(
            CostProfile::bimodal(2.0, 13.0, 0.6),
            CostProfile::constant(5.0),
        );
        cfg.tiers[1].admission = AdmissionPolicy::Bounded { max_queue: 4 };
        let mut sim = FleetSim::new(&cfg, RecordMode::Full).unwrap();
        sim.schedule_swap(TierSwap {
            tier: 1,
            at_ms: 2_000.0,
            profile: CostProfile::constant(0.5),
            version: 7,
            policy: SwapPolicy::Immediate,
        })
        .unwrap();
        let mut policy = OffloadPolicyKind::ExitConfidence.build();
        sim.run(policy.as_mut(), None).unwrap();
        let first = sim.report();
        assert_eq!(first.completed + first.dropped, first.offered);
        for t in &first.tiers {
            assert_eq!(t.completed + t.dropped, t.routed);
        }
        assert_eq!(sim.swaps_applied(), 1);
        assert_eq!(sim.swap_applied_at(0), Some(2_000.0));

        // Reset un-applies the swap (profiles rewind in place); a replay
        // must reproduce the run bit for bit, swap and all.
        sim.reset();
        assert_eq!(sim.swaps_applied(), 0);
        assert_eq!(sim.active_version(1), 0);
        let mut policy2 = OffloadPolicyKind::ExitConfidence.build();
        sim.run(policy2.as_mut(), None).unwrap();
        let second = sim.report();
        assert_eq!(first.records, second.records);
        assert_eq!(first.end_to_end.p99_ms, second.end_to_end.p99_ms);
    }

    #[test]
    fn drain_first_defers_until_the_tier_drains() {
        // One slow edge server with a deep backlog at swap time: the
        // DrainFirst switch must wait for the draining completion, while an
        // Immediate switch fires at the scheduled instant.
        let mut cfg = two_tier(CostProfile::constant(30.0), CostProfile::constant(1.0));
        cfg.tiers[0].servers = 1;
        cfg.arrivals = ArrivalProcess::trace(vec![1.0; 64]);
        cfg.requests = 64;
        for (policy_kind, expect_deferred) in [
            (SwapPolicy::Immediate, false),
            (SwapPolicy::DrainFirst, true),
        ] {
            let mut sim = FleetSim::new(&cfg, RecordMode::Full).unwrap();
            sim.schedule_swap(TierSwap {
                tier: 0,
                at_ms: 10.0,
                profile: CostProfile::constant(30.0),
                version: 3,
                policy: policy_kind,
            })
            .unwrap();
            let mut policy = OffloadPolicyKind::AlwaysLocal.build();
            sim.run(policy.as_mut(), None).unwrap();
            assert_eq!(sim.swaps_applied(), 1, "{policy_kind:?}");
            let applied_at = sim.swap_applied_at(0).unwrap();
            if expect_deferred {
                // 64 requests x 30ms on one server: drained only at the end.
                assert!(applied_at >= 64.0 * 30.0, "{policy_kind:?} at {applied_at}");
            } else {
                assert_eq!(applied_at, 10.0);
            }
            assert_eq!(sim.active_version(0), 3);
        }
    }

    #[test]
    fn schedule_swap_rejects_bad_schedules() {
        let cfg = two_tier(CostProfile::constant(2.0), CostProfile::constant(0.5));
        let mut sim = FleetSim::new(&cfg, RecordMode::Full).unwrap();
        let good = TierSwap {
            tier: 0,
            at_ms: 1.0,
            profile: CostProfile::constant(1.0),
            version: 1,
            policy: SwapPolicy::Immediate,
        };
        let mut bad_tier = good.clone();
        bad_tier.tier = 9;
        assert!(sim
            .schedule_swap(bad_tier)
            .unwrap_err()
            .contains("nonexistent tier 9"));
        let mut bad_time = good.clone();
        bad_time.at_ms = f64::NAN;
        assert!(sim.schedule_swap(bad_time).unwrap_err().contains("finite"));
        let mut bad_profile = good.clone();
        bad_profile.profile = CostProfile::Constant { service_ms: -2.0 };
        assert!(sim
            .schedule_swap(bad_profile)
            .unwrap_err()
            .contains("tier 0"));
        // Mid-run scheduling is rejected until reset.
        sim.schedule_swap(good.clone()).unwrap();
        let mut policy = OffloadPolicyKind::AlwaysLocal.build();
        sim.run(policy.as_mut(), None).unwrap();
        assert!(sim.schedule_swap(good).unwrap_err().contains("reset"));
    }
}
