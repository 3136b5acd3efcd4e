//! Simulator-side observability: a [`SimObserver`] instruments every
//! [`crate::fleet`] run, one-tier serving pools and tiered fleets alike.
//!
//! The observer is **read-only with respect to the simulation**: it is fed
//! the event stream the loop already produces and never influences
//! scheduling, admission or routing, which is why a run given an observer
//! ([`crate::fleet::simulate_fleet`], [`crate::fleet::FleetSim::run`])
//! returns a report bit-identical to the same run without one (pinned by
//! `observed_fleet_matches_unobserved_bit_for_bit`).
//!
//! # Allocation discipline
//!
//! Construction registers every metric and preallocates the span ring —
//! that is where all allocation happens. Every `on_*` recording method is
//! allocation-free: counter/gauge/histogram updates are atomics on
//! preallocated storage ([`obs::MetricsRegistry`]) and span recording is a
//! slot assignment in the preallocated ring ([`obs::TraceSink`]).
//! `tests/alloc_guard.rs` proves this by running the full recording surface
//! under a counting allocator.
//!
//! # Metric names
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `sim.arrivals` / `sim.admitted` / `sim.dropped` / `sim.completed` | counter | run-level totals |
//! | `sim.sojourn_ms` | histogram | end-to-end sojourn of completed requests |
//! | `tier.<name>.queue_depth` | gauge | live queue depth (max tracked) |
//! | `tier.<name>.service_ms` | histogram | in-service time per request |
//! | `tier.<name>.sojourn_ms` | histogram | end-to-end sojourn of requests completed at the tier |
//! | `tier.<name>.transfer_ms` | histogram | link transfer paid to reach the tier |
//! | `tier.<name>.routed` / `.dropped` / `.completed` | counter | per-tier outcomes |
//! | `policy.<label>.decision.local` / `.offload` | counter | routing decisions |
//! | `sim.swaps` | counter | model hot-swaps applied mid-run |

use obs::{
    BucketSpec, CounterId, GaugeId, HistogramId, MetricsRegistry, ObsMode, SpanKind, TraceSink,
};

/// Default span-ring capacity: enough for every event of the smoke-scale
/// sweeps; bigger runs overwrite oldest-first (the header reports how many).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Preregistered handles for one tier's metrics.
struct TierIds {
    queue_depth: GaugeId,
    service_ms: HistogramId,
    sojourn_ms: HistogramId,
    transfer_ms: HistogramId,
    routed: CounterId,
    dropped: CounterId,
    completed: CounterId,
}

/// Metrics registry + span ring wired to the simulator event loop.
///
/// Build once per run (allocates: registration and the ring), pass to
/// [`crate::fleet::simulate_fleet`] or [`crate::fleet::FleetSim::run`], then
/// export with [`SimObserver::metrics_json`]
/// / [`SimObserver::trace_jsonl`] or fold into a cross-run accumulator via
/// [`SimObserver::registry`] + [`obs::MetricsRegistry::merge_from`].
pub struct SimObserver {
    mode: ObsMode,
    registry: MetricsRegistry,
    trace: TraceSink,
    tier_names: Vec<String>,
    /// Observer-tracked live queue depth per tier (the scheduler is not
    /// consulted, so recording stays allocation-free).
    depths: Vec<i64>,
    arrivals: CounterId,
    admitted: CounterId,
    dropped: CounterId,
    completed: CounterId,
    sojourn_ms: HistogramId,
    decision_local: CounterId,
    decision_offload: CounterId,
    swaps: CounterId,
    tiers: Vec<TierIds>,
}

impl SimObserver {
    /// Build an observer for the named tiers under an explicit mode.
    ///
    /// `policy_label` names the routing policy in the
    /// `policy.<label>.decision.*` counters (`"local"` for one-tier runs
    /// under [`crate::fleet::AlwaysLocal`]). Cold path: registers every
    /// metric and preallocates `trace_capacity` span slots up front.
    pub fn with_mode(
        mode: ObsMode,
        tier_names: &[&str],
        policy_label: &str,
        trace_capacity: usize,
    ) -> SimObserver {
        let mut registry = MetricsRegistry::new();
        let arrivals = registry.register_counter("sim.arrivals");
        let admitted = registry.register_counter("sim.admitted");
        let dropped = registry.register_counter("sim.dropped");
        let completed = registry.register_counter("sim.completed");
        let sojourn_ms = registry.register_histogram("sim.sojourn_ms", BucketSpec::latency_ms());
        let decision_local =
            registry.register_counter(&format!("policy.{policy_label}.decision.local"));
        let decision_offload =
            registry.register_counter(&format!("policy.{policy_label}.decision.offload"));
        let swaps = registry.register_counter("sim.swaps");
        let tiers = tier_names
            .iter()
            .map(|name| TierIds {
                queue_depth: registry.register_gauge(&format!("tier.{name}.queue_depth")),
                service_ms: registry.register_histogram(
                    &format!("tier.{name}.service_ms"),
                    BucketSpec::latency_ms(),
                ),
                sojourn_ms: registry.register_histogram(
                    &format!("tier.{name}.sojourn_ms"),
                    BucketSpec::latency_ms(),
                ),
                transfer_ms: registry.register_histogram(
                    &format!("tier.{name}.transfer_ms"),
                    BucketSpec::latency_ms(),
                ),
                routed: registry.register_counter(&format!("tier.{name}.routed")),
                dropped: registry.register_counter(&format!("tier.{name}.dropped")),
                completed: registry.register_counter(&format!("tier.{name}.completed")),
            })
            .collect();
        SimObserver {
            mode,
            registry,
            // A trace ring exists in every mode so recording never branches
            // on buffer presence; `Off`/`Metrics` simply never write to it.
            trace: TraceSink::new(trace_capacity),
            tier_names: tier_names.iter().map(|s| s.to_string()).collect(),
            depths: vec![0; tier_names.len().max(1)],
            arrivals,
            admitted,
            dropped,
            completed,
            sojourn_ms,
            decision_local,
            decision_offload,
            swaps,
            tiers,
        }
    }

    /// Observer for a fleet run: one tier entry per [`crate::fleet::Tier`]
    /// in config order, under the process-wide [`ObsMode::resolve`] mode.
    pub fn for_fleet(cfg: &crate::fleet::FleetConfig, policy_label: &str) -> SimObserver {
        let names: Vec<&str> = cfg.tiers.iter().map(|t| t.name.as_str()).collect();
        SimObserver::with_mode(
            ObsMode::resolve(),
            &names,
            policy_label,
            DEFAULT_TRACE_CAPACITY,
        )
    }

    /// The mode this observer was constructed under (resolved once, like a
    /// `ForwardPlan`'s backend).
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// True when the observer records anything at all.
    pub fn enabled(&self) -> bool {
        self.mode.metrics_enabled()
    }

    #[inline]
    fn tracing(&self) -> bool {
        self.mode.trace_enabled()
    }

    /// A request reached the system boundary. Allocation-free.
    pub fn on_arrival(&mut self, now: f64, id: usize) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.arrivals, 1);
        if self.tracing() {
            self.trace
                .record(now, id as u64, SpanKind::Arrival, 0, 0, 0.0);
        }
    }

    /// The policy routed request `id` to `tier`, paying `transfer_ms` when
    /// remote. Allocation-free.
    pub fn on_route(&mut self, now: f64, id: usize, tier: usize, transfer_ms: f64) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.tiers[tier].routed, 1);
        if tier == 0 {
            self.registry.inc(self.decision_local, 1);
        } else {
            self.registry.inc(self.decision_offload, 1);
            self.registry
                .observe(self.tiers[tier].transfer_ms, transfer_ms);
        }
        if self.tracing() {
            if tier != 0 {
                self.trace.record(
                    now,
                    id as u64,
                    SpanKind::OffloadHop,
                    tier as u32,
                    0,
                    transfer_ms,
                );
            }
            // The tier depth a request's difficulty resolved to — the fleet
            // analogue of a BranchyNet exit index (0 = finished at the edge).
            self.trace.record(
                now,
                id as u64,
                SpanKind::ExitDepth,
                tier as u32,
                0,
                tier as f64,
            );
        }
    }

    /// Admission control accepted request `id` at `tier`. Allocation-free.
    pub fn on_admit(&mut self, now: f64, id: usize, tier: usize) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.admitted, 1);
        if self.tracing() {
            self.trace
                .record(now, id as u64, SpanKind::Admit, tier as u32, 0, 0.0);
        }
    }

    /// Admission control dropped request `id` at `tier`; `queue_len` is the
    /// depth it balked at. Allocation-free.
    pub fn on_drop(&mut self, now: f64, id: usize, tier: usize, queue_len: f64) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.dropped, 1);
        self.registry.inc(self.tiers[tier].dropped, 1);
        if self.tracing() {
            self.trace
                .record(now, id as u64, SpanKind::Drop, tier as u32, 0, queue_len);
        }
    }

    /// Request `id` entered `tier`'s scheduler queue. Allocation-free.
    pub fn on_queue_enter(&mut self, now: f64, id: usize, tier: usize) {
        if !self.enabled() {
            return;
        }
        self.depths[tier] += 1;
        let depth = self.depths[tier] as f64;
        self.registry.gauge_set(self.tiers[tier].queue_depth, depth);
        if self.tracing() {
            self.trace
                .record(now, id as u64, SpanKind::QueueEnter, tier as u32, 0, depth);
        }
    }

    /// Request `id` left `tier`'s queue for service. Allocation-free.
    pub fn on_queue_leave(&mut self, now: f64, id: usize, tier: usize) {
        if !self.enabled() {
            return;
        }
        self.depths[tier] -= 1;
        let depth = self.depths[tier] as f64;
        self.registry.gauge_set(self.tiers[tier].queue_depth, depth);
        if self.tracing() {
            self.trace
                .record(now, id as u64, SpanKind::QueueLeave, tier as u32, 0, depth);
        }
    }

    /// Service started for request `id` on `tier`/`server` in a batch of
    /// `batch_len`. Allocation-free.
    pub fn on_service_start(
        &mut self,
        now: f64,
        id: usize,
        tier: usize,
        server: usize,
        batch_len: usize,
    ) {
        if !self.enabled() {
            return;
        }
        if self.tracing() {
            self.trace.record(
                now,
                id as u64,
                SpanKind::ServiceStart,
                tier as u32,
                server as u32,
                batch_len as f64,
            );
        }
    }

    /// Service finished for request `id` after `service_ms` in service
    /// (batch start → completion). Allocation-free.
    pub fn on_service_end(
        &mut self,
        now: f64,
        id: usize,
        tier: usize,
        server: usize,
        service_ms: f64,
    ) {
        if !self.enabled() {
            return;
        }
        self.registry
            .observe(self.tiers[tier].service_ms, service_ms);
        if self.tracing() {
            self.trace.record(
                now,
                id as u64,
                SpanKind::ServiceEnd,
                tier as u32,
                server as u32,
                service_ms,
            );
        }
    }

    /// Request `id` completed at `tier` with end-to-end `sojourn_ms`.
    /// Allocation-free.
    pub fn on_complete(&mut self, _now: f64, _id: usize, tier: usize, sojourn_ms: f64) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.completed, 1);
        self.registry.inc(self.tiers[tier].completed, 1);
        self.registry.observe(self.sojourn_ms, sojourn_ms);
        self.registry
            .observe(self.tiers[tier].sojourn_ms, sojourn_ms);
    }

    /// An early-exit depth resolved for request `id` (model-level callers;
    /// the fleet emits its tier-depth analogue from
    /// [`SimObserver::on_route`]). Allocation-free.
    pub fn on_exit(&mut self, now: f64, id: usize, exit_index: usize) {
        if !self.enabled() || !self.tracing() {
            return;
        }
        self.trace
            .record(now, id as u64, SpanKind::ExitDepth, 0, 0, exit_index as f64);
    }

    /// Tier `tier`'s model was hot-swapped to `version`; `swap_index` is
    /// the swap's position in schedule order (it doubles as the span's
    /// request id, keeping trace request ids small and dense).
    /// Allocation-free.
    pub fn on_swap(&mut self, now: f64, swap_index: usize, tier: usize, version: u64) {
        if !self.enabled() {
            return;
        }
        self.registry.inc(self.swaps, 1);
        if self.tracing() {
            self.trace.record(
                now,
                swap_index as u64,
                SpanKind::Swap,
                tier as u32,
                0,
                version as f64,
            );
        }
    }

    /// Borrow the metrics registry (quantile queries, cross-run merges via
    /// [`obs::MetricsRegistry::merge_from`]).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Borrow the span ring (event counts, overwrite accounting).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Tier names in index order, as the trace exporter resolves them.
    pub fn tier_names(&self) -> &[String] {
        &self.tier_names
    }

    /// Encode the registry as the `METRICS.json` document. Cold path.
    pub fn metrics_json(&self) -> String {
        self.registry.write_json(self.mode)
    }

    /// Encode the span ring as the `TRACE.jsonl` document. Cold path.
    pub fn trace_jsonl(&self) -> String {
        let names: Vec<&str> = self.tier_names.iter().map(|s| s.as_str()).collect();
        self.trace.write_jsonl(&names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer(mode: ObsMode) -> SimObserver {
        SimObserver::with_mode(mode, &["edge", "cloud"], "exit_conf", 64)
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut o = observer(ObsMode::Off);
        o.on_arrival(0.0, 0);
        o.on_route(0.0, 0, 1, 2.5);
        o.on_complete(5.0, 0, 1, 5.0);
        assert!(!o.enabled());
        assert_eq!(o.registry().counter_value(o.arrivals), 0);
        assert!(o.trace().is_empty());
    }

    #[test]
    fn metrics_mode_counts_without_tracing() {
        let mut o = observer(ObsMode::Metrics);
        o.on_arrival(0.0, 0);
        o.on_route(0.0, 0, 1, 2.5);
        o.on_admit(2.5, 0, 1);
        o.on_queue_enter(2.5, 0, 1);
        o.on_queue_leave(3.0, 0, 1);
        o.on_service_start(3.0, 0, 1, 0, 1);
        o.on_service_end(8.0, 0, 1, 0, 5.0);
        o.on_complete(8.0, 0, 1, 8.0);
        assert_eq!(o.registry().counter_value(o.arrivals), 1);
        assert_eq!(o.registry().counter_value(o.decision_offload), 1);
        assert_eq!(o.registry().counter_value(o.tiers[1].routed), 1);
        assert_eq!(o.registry().histogram(o.tiers[1].service_ms).count(), 1);
        assert_eq!(o.registry().histogram(o.tiers[1].transfer_ms).count(), 1);
        assert_eq!(o.registry().gauge_value(o.tiers[1].queue_depth), 0.0);
        assert_eq!(o.registry().gauge_max(o.tiers[1].queue_depth), 1.0);
        assert!(o.trace().is_empty(), "metrics mode must not trace");
    }

    #[test]
    fn trace_mode_reconstructs_a_request_path() {
        let mut o = observer(ObsMode::Trace);
        o.on_arrival(0.0, 7);
        o.on_route(0.0, 7, 1, 2.5);
        o.on_admit(2.5, 7, 1);
        o.on_queue_enter(2.5, 7, 1);
        o.on_queue_leave(3.0, 7, 1);
        o.on_service_start(3.0, 7, 1, 0, 2);
        o.on_service_end(8.0, 7, 1, 0, 5.0);
        let kinds: Vec<SpanKind> = o.trace().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Arrival,
                SpanKind::OffloadHop,
                SpanKind::ExitDepth,
                SpanKind::Admit,
                SpanKind::QueueEnter,
                SpanKind::QueueLeave,
                SpanKind::ServiceStart,
                SpanKind::ServiceEnd,
            ]
        );
        assert!(o.trace().iter().all(|e| e.request == 7));
        let jsonl = o.trace_jsonl();
        assert!(jsonl
            .lines()
            .next()
            .unwrap()
            .contains("\"kind\": \"header\""));
        assert!(jsonl.contains("\"tier\": \"cloud\""));
    }

    #[test]
    fn drops_count_at_both_levels() {
        let mut o = observer(ObsMode::Metrics);
        o.on_arrival(0.0, 0);
        o.on_route(0.0, 0, 0, 0.0);
        o.on_drop(0.0, 0, 0, 32.0);
        assert_eq!(o.registry().counter_value(o.dropped), 1);
        assert_eq!(o.registry().counter_value(o.tiers[0].dropped), 1);
        assert_eq!(o.registry().counter_value(o.decision_local), 1);
    }
}
