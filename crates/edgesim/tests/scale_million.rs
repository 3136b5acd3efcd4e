//! Million-request scale properties — `#[ignore]` by default, run in
//! release mode by an explicit CI step (`cargo test --release -- --ignored`).
//!
//! These pin the invariants that only show up at fleet scale: conservation
//! (every one of 10⁶ offered requests is completed or dropped exactly
//! once), per-server FIFO order across a million dispatches, and that a
//! [`RecordMode::Lean`] run streams the same aggregate counts without
//! holding per-request records.

use edgesim::fleet::{AlwaysLocal, FleetOutcome, FleetSim, NetworkLink, Tier};
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, DeviceModel, FleetConfig, OffloadPolicyKind,
    RecordMode, SchedulerKind,
};
use proptest::prelude::*;

const MILLION: usize = 1_000_000;

proptest! {
    // Three seeds is plenty: each case replays a full 10⁶-request run.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    #[ignore = "million-request scale run; release-mode CI step executes it explicitly"]
    fn million_request_pool_conserves_and_keeps_fifo_order(seed in 0u64..1000) {
        // One pool of four FIFO servers behind a 48-slot queue, Full records.
        let cfg = FleetConfig {
            tiers: vec![Tier {
                name: "device".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 4,
                profile: CostProfile::bimodal(2.0, 13.0, 0.7),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 48 },
                link: None,
            }],
            arrivals: ArrivalProcess::poisson(900.0),
            requests: MILLION,
            seed,
            slo_ms: 50.0,
        };
        let mut sim = FleetSim::new(&cfg, RecordMode::Full).expect("valid pool config");
        sim.run(&mut AlwaysLocal, None).expect("routing stays in range");
        let report = sim.report();

        // Conservation: completed + dropped == offered, and the counters
        // agree with the per-request records.
        prop_assert_eq!(report.offered, MILLION);
        prop_assert_eq!(report.records.len(), MILLION);
        prop_assert_eq!(report.completed + report.dropped, MILLION);
        let completed = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, FleetOutcome::Completed { .. }))
            .count();
        prop_assert_eq!(completed, report.completed);

        // Per-server FIFO order: within any one server, service starts in
        // arrival (id) order — a million dispatches, zero reorderings.
        let mut last_id = [usize::MAX; 4];
        let mut last_start = [f64::NEG_INFINITY; 4];
        for rec in &report.records {
            let FleetOutcome::Completed { server, start_ms, .. } = rec.outcome else {
                continue;
            };
            if last_id[server] != usize::MAX {
                prop_assert!(
                    rec.request.id > last_id[server],
                    "server {server} reordered ids {} -> {}",
                    last_id[server],
                    rec.request.id
                );
                prop_assert!(start_ms >= last_start[server]);
            }
            last_id[server] = rec.request.id;
            last_start[server] = start_ms;
        }
    }

    #[test]
    #[ignore = "million-request scale run; release-mode CI step executes it explicitly"]
    fn million_request_fleet_lean_conserves_without_records(seed in 0u64..1000) {
        let cfg = FleetConfig {
            tiers: vec![
                Tier {
                    name: "edge".into(),
                    device: DeviceModel::raspberry_pi4(),
                    servers: 2,
                    profile: CostProfile::bimodal(4.0, 14.0, 0.7),
                    scheduler: SchedulerKind::Fifo,
                    admission: AdmissionPolicy::Bounded { max_queue: 32 },
                    link: None,
                },
                Tier {
                    name: "cloud-cpu".into(),
                    device: DeviceModel::gci_cpu(),
                    servers: 4,
                    profile: CostProfile::bimodal(1.0, 3.5, 0.7),
                    scheduler: SchedulerKind::Batch { max_batch: 8, max_wait_ms: 1.5 },
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
            ],
            arrivals: ArrivalProcess::poisson(1_500.0),
            requests: MILLION,
            seed,
            slo_ms: 30.0,
        };
        let mut policy = OffloadPolicyKind::SloSojourn { slo_ms: 18.0 }.build();
        let mut sim = FleetSim::new(&cfg, RecordMode::Lean).expect("valid fleet config");
        sim.run(policy.as_mut(), None).expect("routing stays in range");
        let report = sim.report();

        // Conservation from three independent accountings: the aggregate
        // counters, the per-tier sums, and the streamed histogram.
        prop_assert_eq!(report.offered, MILLION);
        prop_assert_eq!(report.completed + report.dropped, MILLION);
        let routed: usize = report.tiers.iter().map(|t| t.routed).sum();
        prop_assert_eq!(routed, MILLION);
        let tier_completed: usize = report.tiers.iter().map(|t| t.completed).sum();
        let tier_dropped: usize = report.tiers.iter().map(|t| t.dropped).sum();
        prop_assert_eq!(tier_completed, report.completed);
        prop_assert_eq!(tier_dropped, report.dropped);
        let lean = sim.lean_stats().expect("lean mode carries histograms");
        prop_assert_eq!(lean.end_to_end_ms.count() as usize, report.completed);

        // The point of Lean mode: no O(n) record storage at scale.
        prop_assert!(report.records.is_empty(), "lean run holds no per-request records");
    }
}
