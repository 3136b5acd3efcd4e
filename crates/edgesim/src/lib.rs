//! # edgesim — analytical edge-device latency, power and energy models
//!
//! The paper's evaluation runs on three physical platforms: a Raspberry Pi 4
//! (Chameleon CHI@Edge), a Google Cloud N1 instance (2 vCPU), and the same
//! instance with an Nvidia Tesla K80. None of those are available here, so
//! this crate substitutes **calibrated analytical models**:
//!
//! * [`device`] — per-layer latency: `dispatch + flops / throughput(kind)`,
//!   with separate effective throughputs for convolution and dense layers
//!   (the paper's Keras stack runs small-image convolutions orders of
//!   magnitude less efficiently than BLAS GEMMs — that asymmetry is exactly
//!   why a 1M-parameter dense autoencoder can cost less than a 50k-parameter
//!   CNN, the fact CBNet exploits). Presets are calibrated to the paper's
//!   measured LeNet per-image latencies (12.735 ms RPi / 1.322 ms GCI /
//!   0.266 ms K80, Table II).
//! * [`power`] — the paper's own power models, implemented verbatim:
//!   Eq. (1) for the GCI (n/N scaling, β = 0.75, Haswell 40 W idle / 180 W
//!   peak) and Eq. (2) (PowerPi, 2.7 W idle / 6.4 W peak, β = 1) for the
//!   Raspberry Pi; constant measured averages for the GPU case (§IV-E:
//!   17.7 W CPU, 79 W GPU).
//! * [`energy`] — `E = P · Δt` accounting and savings-vs-baseline helpers.
//! * [`pipeline`] — serving workload/report types and the closed-form
//!   single-server FIFO recurrence [`pipeline::simulate`], kept as the
//!   conformance oracle of the event loop below: an extension beyond the
//!   paper's batch experiments that shows how exit-rate variance turns into
//!   queueing delay.
//! * [`fleet`] — the one discrete-event serving simulator. A
//!   [`FleetConfig`] is an ordered list of [`Tier`]s — serving pools, each
//!   with its own device, [`CostProfile`], server count, [`SchedulerKind`]
//!   (FIFO / shortest-expected-service / batch-accumulate) and
//!   [`AdmissionPolicy`] load shedding with drop accounting — connected by
//!   [`NetworkLink`]s, with pluggable per-request [`OffloadPolicy`] routing
//!   (always-local / exit-confidence / SLO-predicted-sojourn) and per-tier +
//!   end-to-end reports. A single serving pool is a one-tier config under
//!   [`fleet::AlwaysLocal`]; its 1-server FIFO form reproduces
//!   [`pipeline::simulate`] bit for bit. [`simulate_fleet`] is the one run
//!   function; [`FleetSim`], the flat-index event loop behind it (requests
//!   in a [`arena::RequestArena`] slab, dynamic events in a preallocated
//!   [`events::EventHeap`], queues as intrusive chains, disciplines
//!   monomorphized), is the reusable form for allocation-free sweeps,
//!   streaming-histogram [`RecordMode::Lean`] runs and mid-run model swaps.
//! * [`arena`] / [`events`] — the flat-index substrate: the request slab
//!   with its intrusive link array, detached batch [`arena::Chain`]s, and
//!   the Vec-backed binary event heap with the simulator's (time, seq)
//!   order.
//! * [`mod@reference`] — the original `BinaryHeap` + `Box<dyn Scheduler>`
//!   fleet loop, preserved verbatim as the conformance oracle and live perf
//!   baseline of the index rewrite.
//! * [`arrivals`] — pluggable arrival processes: Poisson (bit-identical to
//!   the closed-form loop's RNG draw order), two-state MMPP bursts, and
//!   deterministic trace replay, all yielding `(arrival, difficulty-quantile)`
//!   workloads.
//! * [`partition`] — Neurosurgeon-style DNN partitioning priced over the
//!   same [`NetworkLink`] model the fleet offloads through.
//! * [`observe`] — opt-in observability: a [`SimObserver`] fed the event
//!   stream records queue-depth gauges, sojourn/service/transfer
//!   histograms, offload counters and a per-request span-event trace
//!   (`CBNET_OBS=off|metrics|trace`), without perturbing the simulation —
//!   observed runs are bit-identical to unobserved ones.
//!
//! Because the paper reports *relative* speedups and savings, anchoring the
//! baseline latency and applying the same per-layer accounting to every
//! model preserves every comparison the paper makes while staying honest
//! about absolute numbers (see DESIGN.md §1).

#![forbid(unsafe_code)]

pub mod arena;
pub mod arrivals;
pub mod cost;
pub mod device;
pub mod energy;
pub mod events;
pub mod fleet;
pub mod observe;
pub mod partition;
pub mod pipeline;
pub mod power;
pub mod reference;

pub use arena::{Chain, Discipline, IndexQueue, Request, RequestArena, NIL};
pub use arrivals::ArrivalProcess;
pub use cost::CostProfile;
pub use device::{Device, DeviceModel, LatencyBreakdown};
pub use energy::{energy_joules, savings_percent, EnergyReport};
pub use events::EventHeap;
pub use fleet::{
    simulate_fleet, AdmissionPolicy, FleetConfig, FleetLeanStats, FleetReport, FleetSim, LeanStats,
    NetworkLink, OffloadPolicy, OffloadPolicyKind, RecordMode, SchedulerKind, SwapPolicy, Tier,
    TierReport, TierSwap,
};
pub use observe::SimObserver;
pub use partition::best_split;
pub use pipeline::percentile_sorted;
pub use power::PowerModel;
