//! The pre-arena fleet loop, preserved verbatim as an executable baseline.
//!
//! When the fleet core was rebuilt around flat indices ([`crate::arena`],
//! [`crate::events`]), the original `std::collections::BinaryHeap` +
//! `Box<dyn Scheduler>` + `Vec<Request>`-batch loop moved here unchanged
//! (observer plumbing removed — observation never fed back into scheduling,
//! so the event sequence is identical), together with the boxed queue
//! disciplines it dispatches through. It serves two purposes:
//!
//! 1. **Conformance oracle.** `tests/trait_conformance.rs` runs every
//!    scheduler × admission × arrival combination, one-tier and tiered,
//!    through both loops and requires bit-identical reports — the strongest
//!    possible pin that the index rewrite changed representation, not
//!    semantics.
//! 2. **Live perf baseline.** `bench/src/bin/fleet_perf.rs` measures this
//!    loop on the same workload as [`crate::fleet::FleetSim`], so the
//!    committed `BENCH_fleet.json` speedup factor is measured on the current
//!    machine rather than against a stale recorded number.
//!
//! This code is deliberately *not* optimized — do not "fix" its per-batch
//! allocations; that cost is the baseline being measured.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::arena::Request;
use crate::fleet::{
    FleetConfig, FleetOutcome, FleetRecord, FleetReport, FleetRequest, OffloadPolicy,
    SchedulerKind, TierReport, TierSnapshot,
};
use crate::pipeline::{finalize_report, percentile_sorted, ServingReport};

/// A scheduler's answer to "server is free at `now` — what should it run?".
#[derive(Debug)]
enum Dispatch {
    /// Run these requests as one batch (singleton for non-batching
    /// disciplines). Must be non-empty.
    Serve(Vec<Request>),
    /// Nothing ready yet, but something is queued: re-ask at this time
    /// (batch-accumulation deadline).
    WaitUntil(f64),
    /// Queue empty — nothing to do until the next arrival.
    Idle,
}

/// A boxed queue discipline. The loop owns arrivals and servers; the
/// scheduler owns the queue. `enqueue` is called once per admitted request,
/// `dispatch` whenever a server is idle, `queue_len` by admission control.
trait Scheduler {
    /// Accept an admitted request into the queue.
    fn enqueue(&mut self, req: Request);
    /// Decide what a server idle at `now_ms` should do.
    fn dispatch(&mut self, now_ms: f64) -> Dispatch;
    /// Requests currently waiting (not in service).
    fn queue_len(&self) -> usize;
}

/// [`SchedulerKind::Fifo`].
#[derive(Debug, Default)]
struct FifoScheduler {
    queue: VecDeque<Request>,
}

impl Scheduler for FifoScheduler {
    fn enqueue(&mut self, req: Request) {
        self.queue.push_back(req);
    }
    fn dispatch(&mut self, _now_ms: f64) -> Dispatch {
        match self.queue.pop_front() {
            Some(r) => Dispatch::Serve(vec![r]),
            None => Dispatch::Idle,
        }
    }
    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// [`SchedulerKind::ShortestService`]: smallest `(service_ms, id)` first.
#[derive(Debug, Default)]
struct ShortestServiceScheduler {
    queue: Vec<Request>,
}

impl Scheduler for ShortestServiceScheduler {
    fn enqueue(&mut self, req: Request) {
        self.queue.push(req);
    }
    fn dispatch(&mut self, _now_ms: f64) -> Dispatch {
        let best =
            self.queue.iter().enumerate().min_by(|(_, a), (_, b)| {
                a.service_ms.total_cmp(&b.service_ms).then(a.id.cmp(&b.id))
            });
        match best {
            Some((i, _)) => Dispatch::Serve(vec![self.queue.remove(i)]),
            None => Dispatch::Idle,
        }
    }
    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// [`SchedulerKind::Batch`]: launch when `max_batch` are queued or the
/// oldest has waited `max_wait_ms`.
#[derive(Debug)]
struct BatchScheduler {
    max_batch: usize,
    max_wait_ms: f64,
    queue: VecDeque<Request>,
}

impl Scheduler for BatchScheduler {
    fn enqueue(&mut self, req: Request) {
        self.queue.push_back(req);
    }
    fn dispatch(&mut self, now_ms: f64) -> Dispatch {
        let Some(oldest) = self.queue.front() else {
            return Dispatch::Idle;
        };
        let deadline = oldest.arrival_ms + self.max_wait_ms;
        if self.queue.len() >= self.max_batch || now_ms >= deadline {
            let k = self.queue.len().min(self.max_batch);
            Dispatch::Serve(self.queue.drain(..k).collect())
        } else {
            Dispatch::WaitUntil(deadline)
        }
    }
    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// A fresh boxed scheduler of `kind`. The caller has validated the batch
/// parameters ([`FleetConfig::try_valid`]).
fn build(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fifo => Box::<FifoScheduler>::default(),
        SchedulerKind::ShortestService => Box::<ShortestServiceScheduler>::default(),
        SchedulerKind::Batch {
            max_batch,
            max_wait_ms,
        } => Box::new(BatchScheduler {
            max_batch,
            max_wait_ms,
            queue: VecDeque::new(),
        }),
    }
}

#[derive(Debug)]
enum FleetEventKind {
    Gateway(usize),
    TierArrival { tier: usize, id: usize },
    Completion { tier: usize, server: usize },
    Timer { tier: usize },
}

#[derive(Debug)]
struct FleetEvent {
    time_ms: f64,
    seq: u64,
    kind: FleetEventKind,
}

impl PartialEq for FleetEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time_ms == other.time_ms && self.seq == other.seq
    }
}
impl Eq for FleetEvent {}
impl PartialOrd for FleetEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FleetEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_ms
            .total_cmp(&self.time_ms)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct TierState {
    scheduler: Box<dyn Scheduler>,
    idle: Vec<bool>,
    busy_ms: Vec<f64>,
    in_flight: Vec<(f64, f64, Vec<Request>)>,
    queued_work_ms: f64,
    routed: usize,
    dropped: usize,
    sojourns: Vec<f64>,
}

/// The original `simulate_fleet` loop, verbatim: all gateway arrivals seeded
/// into a `BinaryHeap`, per-tier boxed schedulers, per-arrival snapshot
/// `Vec`s. Same configuration contract and same report as
/// [`crate::fleet::simulate_fleet`] — bit for bit (the conformance suites
/// enforce it).
pub fn simulate_fleet_reference(
    cfg: &FleetConfig,
    policy: &mut dyn OffloadPolicy,
) -> Result<FleetReport, String> {
    cfg.try_valid()?;
    let n = cfg.requests;

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

    let mut heap: BinaryHeap<FleetEvent> = BinaryHeap::with_capacity(n + cfg.tiers.len());
    let mut seq = 0u64;
    for r in &requests {
        heap.push(FleetEvent {
            time_ms: r.gateway_ms,
            seq,
            kind: FleetEventKind::Gateway(r.id),
        });
        seq += 1;
    }

    let mut tiers: Vec<TierState> = cfg
        .tiers
        .iter()
        .map(|t| TierState {
            scheduler: build(t.scheduler),
            idle: vec![true; t.servers],
            busy_ms: vec![0.0; t.servers],
            in_flight: vec![(0.0, 0.0, Vec::new()); t.servers],
            queued_work_ms: 0.0,
            routed: 0,
            dropped: 0,
            sojourns: Vec::new(),
        })
        .collect();

    let mut routing: Vec<(usize, f64, f64)> = vec![(0, 0.0, 0.0); n];
    let mut outcomes: Vec<Option<FleetOutcome>> = vec![None; n];
    let mut makespan = 0.0f64;

    let admit = |tiers: &mut Vec<TierState>,
                 outcomes: &mut Vec<Option<FleetOutcome>>,
                 cfg: &FleetConfig,
                 routing: &[(usize, f64, f64)],
                 t: usize,
                 id: usize,
                 now: f64| {
        let state = &mut tiers[t];
        let queue_len = state.scheduler.queue_len();
        if cfg.tiers[t].admission.admits(queue_len) {
            let service_ms = routing[id].1;
            state.scheduler.enqueue(Request {
                id,
                arrival_ms: now,
                service_ms,
            });
            state.queued_work_ms += service_ms;
        } else {
            state.dropped += 1;
            outcomes[id] = Some(FleetOutcome::Dropped);
        }
    };

    while let Some(ev) = heap.pop() {
        let now = ev.time_ms;
        let dispatch_tier: Option<usize> = match ev.kind {
            FleetEventKind::Gateway(id) => {
                makespan = makespan.max(now);
                let req = requests[id];
                let snapshots: Vec<TierSnapshot> = if policy.needs_snapshots() {
                    cfg.tiers
                        .iter()
                        .zip(&tiers)
                        .map(|(t, s)| TierSnapshot {
                            queue_len: s.scheduler.queue_len(),
                            queued_work_ms: s.queued_work_ms.max(0.0),
                            in_flight_remaining_ms: s
                                .in_flight
                                .iter()
                                .zip(&s.idle)
                                .filter(|(_, idle)| !**idle)
                                .map(|((_, finish, _), _)| (finish - now).max(0.0))
                                .sum(),
                            servers: t.servers,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let target = policy.route(req.quantile, &cfg.tiers, &snapshots);
                if target >= cfg.tiers.len() {
                    return Err(format!(
                        "offload policy routed to nonexistent tier {target} ({} tiers)",
                        cfg.tiers.len()
                    ));
                }
                let service_ms = cfg.tiers[target].profile.sample(req.quantile);
                let transfer_ms = cfg.tiers[target]
                    .link
                    .as_ref()
                    .map_or(0.0, |l| l.transfer_ms());
                routing[id] = (target, service_ms, transfer_ms);
                tiers[target].routed += 1;
                if target == 0 {
                    admit(&mut tiers, &mut outcomes, cfg, &routing, 0, id, now);
                    Some(0)
                } else {
                    heap.push(FleetEvent {
                        time_ms: now + transfer_ms,
                        seq,
                        kind: FleetEventKind::TierArrival { tier: target, id },
                    });
                    seq += 1;
                    None
                }
            }
            FleetEventKind::TierArrival { tier, id } => {
                makespan = makespan.max(now);
                admit(&mut tiers, &mut outcomes, cfg, &routing, tier, id, now);
                Some(tier)
            }
            FleetEventKind::Completion { tier, server } => {
                makespan = makespan.max(now);
                let state = &mut tiers[tier];
                let (start_ms, _, batch) =
                    std::mem::replace(&mut state.in_flight[server], (0.0, 0.0, Vec::new()));
                for r in batch {
                    state.sojourns.push(now - requests[r.id].gateway_ms);
                    outcomes[r.id] = Some(FleetOutcome::Completed {
                        server,
                        start_ms,
                        finish_ms: now,
                    });
                }
                state.idle[server] = true;
                Some(tier)
            }
            FleetEventKind::Timer { tier } => Some(tier),
        };

        if let Some(t) = dispatch_tier {
            let state = &mut tiers[t];
            for s in 0..cfg.tiers[t].servers {
                if !state.idle[s] {
                    continue;
                }
                match state.scheduler.dispatch(now) {
                    Dispatch::Serve(batch) => {
                        assert!(!batch.is_empty(), "scheduler dispatched an empty batch");
                        let service = batch
                            .iter()
                            .map(|r| r.service_ms)
                            .fold(f64::NEG_INFINITY, f64::max);
                        state.queued_work_ms -= batch.iter().map(|r| r.service_ms).sum::<f64>();
                        state.busy_ms[s] += service;
                        state.idle[s] = false;
                        state.in_flight[s] = (now, now + service, batch);
                        heap.push(FleetEvent {
                            time_ms: now + service,
                            seq,
                            kind: FleetEventKind::Completion { tier: t, server: s },
                        });
                        seq += 1;
                    }
                    Dispatch::WaitUntil(tm) => {
                        heap.push(FleetEvent {
                            time_ms: tm,
                            seq,
                            kind: FleetEventKind::Timer { tier: t },
                        });
                        seq += 1;
                        break;
                    }
                    Dispatch::Idle => break,
                }
            }
        }
    }

    let records: Vec<FleetRecord> = requests
        .iter()
        .map(|&request| {
            let (tier, service_ms, transfer_ms) = routing[request.id];
            FleetRecord {
                request,
                tier,
                service_ms,
                transfer_ms,
                // lint:allow(panic-in-lib, reason = "every admitted request completes and every rejected one is marked Dropped before the heap drains; a hole here is engine corruption, not user input")
                outcome: outcomes[request.id].expect("every request resolves by drain"),
            }
        })
        .collect();

    let mut tier_reports = Vec::with_capacity(cfg.tiers.len());
    let mut all_sojourns: Vec<f64> = Vec::new();
    let mut busy_all = 0.0f64;
    let mut energy_all = 0.0f64;
    for (tier_cfg, state) in cfg.tiers.iter().zip(tiers) {
        let busy_total: f64 = state.busy_ms.iter().sum();
        busy_all += busy_total;
        all_sojourns.extend_from_slice(&state.sojourns);
        let completed = state.sojourns.len();
        let serving = finalize_report(
            &tier_cfg.device,
            state.sojourns,
            busy_total,
            makespan,
            tier_cfg.servers,
        );
        energy_all += serving.energy_j;
        tier_reports.push(TierReport {
            name: tier_cfg.name.clone(),
            serving,
            routed: state.routed,
            completed,
            dropped: state.dropped,
            per_server_utilization: state
                .busy_ms
                .iter()
                .map(|&b| {
                    if makespan > 0.0 {
                        (b / makespan).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            per_server_busy_ms: state.busy_ms,
        });
    }

    let completed = all_sojourns.len();
    let dropped = n - completed;
    let offloaded = records.iter().filter(|r| r.tier != 0).count();
    let late = all_sojourns.iter().filter(|&&s| s > cfg.slo_ms).count();

    all_sojourns.sort_by(f64::total_cmp);
    let total_servers: usize = cfg.tiers.iter().map(|t| t.servers).sum();
    let capacity_ms = makespan * total_servers as f64;
    let end_to_end = ServingReport {
        mean_sojourn_ms: if all_sojourns.is_empty() {
            0.0
        } else {
            all_sojourns.iter().sum::<f64>() / all_sojourns.len() as f64
        },
        p50_ms: percentile_sorted(&all_sojourns, 0.50),
        p95_ms: percentile_sorted(&all_sojourns, 0.95),
        p99_ms: percentile_sorted(&all_sojourns, 0.99),
        utilization: if capacity_ms > 0.0 {
            (busy_all / capacity_ms).min(1.0)
        } else {
            0.0
        },
        makespan_ms: makespan,
        energy_j: energy_all,
    };

    Ok(FleetReport {
        tiers: tier_reports,
        offered: n,
        completed,
        dropped,
        offloaded,
        slo_ms: cfg.slo_ms,
        slo_violations: late + dropped,
        end_to_end,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{Action, Discipline, IndexQueue, RequestArena};

    /// Requests `0..n` arriving every 0.5 ms with deliberate service-time
    /// ties (`i % 5`) to exercise the id tie-break, and an arena holding
    /// them.
    fn workload(n: usize) -> (Vec<Request>, RequestArena) {
        let requests: Vec<Request> = (0..n)
            .map(|i| Request {
                id: i,
                arrival_ms: i as f64 * 0.5,
                service_ms: 1.0 + (i % 5) as f64,
            })
            .collect();
        let mut arena = RequestArena::with_capacity(n);
        for r in &requests {
            arena.set(r.id as u32, *r);
        }
        (requests, arena)
    }

    #[test]
    fn remove_min_service_matches_boxed_ses_selection() {
        // Same workload through the boxed ShortestServiceScheduler and the
        // index queue: the drain orders must agree, including on ties.
        let (requests, mut arena) = workload(32);
        let mut boxed = build(SchedulerKind::ShortestService);
        let mut q = IndexQueue::new();
        for r in &requests {
            boxed.enqueue(*r);
            q.push_back(&mut arena, r.id as u32);
        }
        loop {
            let want = match boxed.dispatch(0.0) {
                Dispatch::Serve(batch) => Some(batch[0].id),
                Dispatch::Idle => None,
                Dispatch::WaitUntil(_) => unreachable!("ses never waits"),
            };
            let got = q.remove_min_service(&mut arena).map(|id| id as usize);
            assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    #[test]
    fn discipline_batch_matches_boxed_batch_scheduler() {
        // Feed identical arrival prefixes, then dispatch at a sweep of
        // `now` values: decisions (serve set, wait deadline, idle) must
        // match the boxed BatchScheduler's exactly.
        let kind = SchedulerKind::Batch {
            max_batch: 4,
            max_wait_ms: 3.0,
        };
        let disc = Discipline::from_kind(kind).unwrap();
        for enqueue_upto in 0..10 {
            for now in [0.0, 1.0, 2.49, 3.0, 7.5, 100.0] {
                let (requests, mut arena) = workload(10);
                let mut boxed = build(kind);
                let mut q = IndexQueue::new();
                for r in &requests[..enqueue_upto] {
                    boxed.enqueue(*r);
                    q.push_back(&mut arena, r.id as u32);
                }
                let want = boxed.dispatch(now);
                let got = disc.dispatch(&mut q, &mut arena, now);
                match (got, want) {
                    (Action::Idle, Dispatch::Idle) => {}
                    (Action::WaitUntil(a), Dispatch::WaitUntil(b)) => assert_eq!(a, b),
                    (Action::Serve(chain), Dispatch::Serve(batch)) => {
                        let got_ids: Vec<usize> =
                            chain.iter(&arena).map(|id| id as usize).collect();
                        let want_ids: Vec<usize> = batch.iter().map(|r| r.id).collect();
                        assert_eq!(got_ids, want_ids);
                    }
                    (g, w) => panic!("divergence at now={now}: {g:?} vs {w:?}"),
                }
            }
        }
    }
}
