//! Property-based tests for the tiered fleet simulator: request
//! conservation (`completed + dropped == offered`, per tier and fleet-wide,
//! with offloads counted as routing, never as loss) across heterogeneous
//! multi-tier topologies, offload policies and arrival processes.

use edgesim::fleet::{simulate_fleet, AlwaysLocal, FleetOutcome, NetworkLink, Tier};
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel, FleetConfig,
    OffloadPolicyKind, SchedulerKind,
};
use proptest::prelude::*;

fn arbitrary_profile() -> impl Strategy<Value = CostProfile> {
    prop_oneof![
        (0.1f64..20.0).prop_map(CostProfile::constant),
        (0.1f64..5.0, 5.0f64..25.0, 0.0f64..1.0)
            .prop_map(|(e, h, f)| CostProfile::bimodal(e, h, f)),
        proptest::collection::vec(0.1f64..20.0, 1..24).prop_map(CostProfile::empirical),
    ]
}

fn arbitrary_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Fifo),
        Just(SchedulerKind::ShortestService),
        (2usize..8, 0.0f64..10.0).prop_map(|(max_batch, max_wait_ms)| SchedulerKind::Batch {
            max_batch,
            max_wait_ms
        }),
    ]
}

fn arbitrary_admission() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Unbounded),
        (1usize..64).prop_map(|max_queue| AdmissionPolicy::Bounded { max_queue }),
    ]
}

fn arbitrary_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (10.0f64..800.0).prop_map(ArrivalProcess::poisson),
        (
            10.0f64..200.0,
            200.0f64..1500.0,
            10.0f64..500.0,
            10.0f64..500.0
        )
            .prop_map(|(b, p, db, dp)| ArrivalProcess::mmpp(b, p, db, dp)),
        // One appended strictly positive gap keeps any generated trace valid.
        (proptest::collection::vec(0.0f64..25.0, 1..40), 0.1f64..25.0).prop_map(
            |(mut gaps, extra)| {
                gaps.push(extra);
                ArrivalProcess::trace(gaps)
            }
        ),
    ]
}

fn arbitrary_policy() -> impl Strategy<Value = OffloadPolicyKind> {
    prop_oneof![
        Just(OffloadPolicyKind::AlwaysLocal),
        Just(OffloadPolicyKind::ExitConfidence),
        (1.0f64..100.0).prop_map(|slo_ms| OffloadPolicyKind::SloSojourn { slo_ms }),
    ]
}

fn arbitrary_tier(index: usize) -> impl Strategy<Value = Tier> {
    let device = match index % 3 {
        0 => Device::RaspberryPi4,
        1 => Device::GciCpu,
        _ => Device::GciGpu,
    };
    (
        1usize..4,
        arbitrary_profile(),
        arbitrary_scheduler(),
        arbitrary_admission(),
        0.0f64..30.0,
        1.0f64..200.0,
    )
        .prop_map(
            move |(servers, profile, scheduler, admission, latency, mbps)| Tier {
                name: format!("tier{index}"),
                device: DeviceModel::preset(device),
                servers,
                profile,
                scheduler,
                admission,
                link: (index > 0).then(|| NetworkLink::new(latency, mbps, 3136)),
            },
        )
}

fn arbitrary_fleet() -> impl Strategy<Value = FleetConfig> {
    (
        (arbitrary_tier(0), arbitrary_tier(1), arbitrary_tier(2)),
        1usize..=3,
        arbitrary_arrivals(),
        200usize..1200,
        0u64..u64::MAX,
        1.0f64..200.0,
    )
        .prop_map(
            |((t0, t1, t2), n_tiers, arrivals, requests, seed, slo_ms)| {
                let mut tiers = vec![t0, t1, t2];
                tiers.truncate(n_tiers);
                FleetConfig {
                    tiers,
                    arrivals,
                    requests,
                    seed,
                    slo_ms,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn requests_are_conserved_across_tiers(
        cfg in arbitrary_fleet(),
        policy in arbitrary_policy(),
    ) {
        prop_assert!(cfg.try_valid().is_ok());
        let r = simulate_fleet(&cfg, policy.build().as_mut(), None).unwrap();

        // Fleet-wide conservation: offloading re-routes, it never loses.
        prop_assert_eq!(r.offered, cfg.requests);
        prop_assert_eq!(r.completed + r.dropped, r.offered);
        prop_assert_eq!(r.records.len(), r.offered);

        // Every request routes to exactly one tier, and each tier conserves.
        prop_assert_eq!(r.tiers.iter().map(|t| t.routed).sum::<usize>(), r.offered);
        for t in &r.tiers {
            prop_assert_eq!(t.completed + t.dropped, t.routed);
        }
        prop_assert_eq!(
            r.offloaded,
            r.tiers.iter().skip(1).map(|t| t.routed).sum::<usize>()
        );
        prop_assert_eq!(
            r.completed,
            r.tiers.iter().map(|t| t.completed).sum::<usize>()
        );
        prop_assert_eq!(r.dropped, r.tiers.iter().map(|t| t.dropped).sum::<usize>());

        // SLO ledger: violations = late completions + every drop.
        let late = r.records.iter().filter(|rec| match rec.outcome {
            FleetOutcome::Completed { finish_ms, .. } =>
                finish_ms - rec.request.gateway_ms > r.slo_ms,
            FleetOutcome::Dropped => false,
        }).count();
        prop_assert_eq!(r.slo_violations, late + r.dropped);
    }

    #[test]
    fn completed_sojourns_cover_transfer_and_service(
        cfg in arbitrary_fleet(),
        policy in arbitrary_policy(),
    ) {
        let r = simulate_fleet(&cfg, policy.build().as_mut(), None).unwrap();
        for rec in &r.records {
            prop_assert!(rec.tier < cfg.tiers.len());
            // The routed tier prices the request by its own profile at the
            // request's difficulty quantile.
            let expect = cfg.tiers[rec.tier].profile.sample(rec.request.quantile);
            prop_assert_eq!(rec.service_ms, expect);
            if let FleetOutcome::Completed { start_ms, finish_ms, .. } = rec.outcome {
                let sojourn = finish_ms - rec.request.gateway_ms;
                // End-to-end time covers the link plus the tier's service
                // (batch fusion can only lengthen a member's stay).
                prop_assert!(sojourn >= rec.transfer_ms + rec.service_ms - 1e-9);
                prop_assert!(start_ms >= rec.request.gateway_ms + rec.transfer_ms - 1e-9);
                prop_assert!(finish_ms >= start_ms);
            }
        }
    }

    #[test]
    fn always_local_never_offloads_and_uses_only_tier0(
        cfg in arbitrary_fleet(),
    ) {
        let r = simulate_fleet(&cfg, &mut AlwaysLocal, None).unwrap();
        prop_assert_eq!(r.offloaded, 0);
        prop_assert_eq!(r.tiers[0].routed, r.offered);
        for t in r.tiers.iter().skip(1) {
            prop_assert_eq!(t.routed, 0);
            prop_assert_eq!(t.per_server_busy_ms.iter().sum::<f64>(), 0.0);
        }
    }
}
