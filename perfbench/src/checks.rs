//! Output checks. Each compares against a computation made apart from the
//! program or tests a property the method must have; none replays a
//! recorded output. Every check is shown failing on a corrupted input in
//! the tests below.

use edgesim::FleetReport;

/// Accuracy floor on streams at the family's default 5% hard share
/// (measured 96–97% for all three models).
pub const EASY_ACCURACY_FLOOR: f64 = 0.85;
/// Accuracy floor on the 80%-hard stream (measured 45–55%; chance is 10%).
pub const HARD_ACCURACY_FLOOR: f64 = 0.30;
/// Share of images whose batch-1 and batch-32 predictions must agree. The
/// slack admits near-tie flips from a reordered reduction; a broken batch
/// path flips far more.
pub const BATCH_AGREEMENT_FLOOR: f64 = 0.998;
/// Relative tolerance of the M/D/1 mean sojourn against Pollaczek–Khinchine.
pub const MD1_TOLERANCE: f64 = 0.03;
/// Absolute tolerance of the M/D/1 utilization against ρ.
pub const MD1_UTILIZATION_TOLERANCE: f64 = 0.01;

/// The Lean histograms' documented quantile error: `sqrt(growth) − 1` for
/// the default latency buckets.
pub fn lean_quantile_error() -> f64 {
    obs::BucketSpec::latency_ms().growth.sqrt() - 1.0
}

/// Share of predictions equal to the labels.
pub fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / labels.len().max(1) as f64
}

/// Positions where two prediction vectors differ; a length difference
/// counts every missing position.
pub fn mismatches(a: &[usize], b: &[usize]) -> usize {
    let differ = a.iter().zip(b).filter(|(x, y)| x != y).count();
    differ + a.len().abs_diff(b.len())
}

/// Share of positions where two prediction vectors agree.
pub fn agreement(a: &[usize], b: &[usize]) -> f64 {
    1.0 - mismatches(a, b) as f64 / a.len().max(b.len()).max(1) as f64
}

/// Images where the compacting early-exit path (`(prediction, exited
/// early)` per image) breaks the selection rule applied to `infer_full`'s
/// `(branch, main, entropy)`: exit when the entropy is under the threshold
/// and answer with the branch, otherwise answer with the main exit.
pub fn exit_rule_mismatches(
    infer: &[(usize, bool)],
    full: &[(usize, usize, f32)],
    threshold: f32,
) -> usize {
    let differ = infer
        .iter()
        .zip(full)
        .filter(|(&(pred, early), &(branch, main, entropy))| {
            let want_early = entropy < threshold;
            let want = if want_early { branch } else { main };
            early != want_early || pred != want
        })
        .count();
    differ + infer.len().abs_diff(full.len())
}

/// Requests the report accounts for at no tier: neither completed nor
/// dropped anywhere.
pub fn lost_requests(r: &FleetReport) -> usize {
    let settled: usize = r.tiers.iter().map(|t| t.completed + t.dropped).sum();
    r.offered.saturating_sub(settled)
}

/// Conservation: every offered request settles exactly once, fleet-wide
/// and per tier, and the fleet totals are the sums of the tier counts.
pub fn conservation(r: &FleetReport) -> Result<(), String> {
    let completed: usize = r.tiers.iter().map(|t| t.completed).sum();
    let dropped: usize = r.tiers.iter().map(|t| t.dropped).sum();
    let routed: usize = r.tiers.iter().map(|t| t.routed).sum();
    if r.completed + r.dropped != r.offered {
        return Err(format!(
            "completed {} + dropped {} != offered {}",
            r.completed, r.dropped, r.offered
        ));
    }
    if completed != r.completed || dropped != r.dropped || routed != r.offered {
        return Err(format!(
            "tier sums (completed {completed}, dropped {dropped}, routed {routed}) disagree \
             with the fleet totals (completed {}, dropped {}, offered {})",
            r.completed, r.dropped, r.offered
        ));
    }
    for t in &r.tiers {
        if t.routed != t.completed + t.dropped {
            return Err(format!(
                "tier {}: routed {} != completed {} + dropped {}",
                t.name, t.routed, t.completed, t.dropped
            ));
        }
    }
    Ok(())
}

/// A Lean run agrees with a Full-record run of the same configuration:
/// identical counts, and the exact p50/p99 within `rel_err` of the
/// histogram estimates.
pub fn lean_agrees_with_full(
    lean: &FleetReport,
    full: &FleetReport,
    rel_err: f64,
) -> Result<(), String> {
    let counts = |r: &FleetReport| {
        let tiers: Vec<(usize, usize)> = r.tiers.iter().map(|t| (t.completed, t.dropped)).collect();
        (r.completed, r.dropped, r.offloaded, tiers)
    };
    if counts(lean) != counts(full) {
        return Err(format!(
            "Lean counts {:?} != Full counts {:?} (completed, dropped, offloaded, per tier)",
            counts(lean),
            counts(full)
        ));
    }
    for (q, l, f) in [
        ("p50", lean.end_to_end.p50_ms, full.end_to_end.p50_ms),
        ("p99", lean.end_to_end.p99_ms, full.end_to_end.p99_ms),
    ] {
        if (l - f).abs() > rel_err * f + 1e-9 {
            return Err(format!(
                "{q}: Lean {l:.6} ms is more than {:.2}% from the exact {f:.6} ms",
                100.0 * rel_err
            ));
        }
    }
    Ok(())
}

/// Pollaczek–Khinchine mean sojourn of M/D/1: `s + ρs / (2(1 − ρ))`.
pub fn pk_mean_sojourn_ms(service_ms: f64, rho: f64) -> f64 {
    service_ms + rho * service_ms / (2.0 * (1.0 - rho))
}

/// A simulated M/D/1 mean sojourn and utilization agree with the theory.
pub fn md1_agrees(
    mean_sojourn_ms: f64,
    utilization: f64,
    service_ms: f64,
    rho: f64,
) -> Result<(), String> {
    let want = pk_mean_sojourn_ms(service_ms, rho);
    let rel = (mean_sojourn_ms - want) / want;
    if rel.abs() > MD1_TOLERANCE || !rel.is_finite() {
        return Err(format!(
            "M/D/1 mean sojourn {mean_sojourn_ms:.6} ms vs Pollaczek–Khinchine {want:.6} ms \
             ({:+.2}%, tolerance {:.0}%)",
            100.0 * rel,
            100.0 * MD1_TOLERANCE
        ));
    }
    if (utilization - rho).abs() > MD1_UTILIZATION_TOLERANCE {
        return Err(format!("M/D/1 utilization {utilization:.4} vs ρ = {rho}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;
    use edgesim::CostProfile;

    /// Round-robin labels as `datasets::generate` assigns them.
    fn labels(n: usize) -> Vec<usize> {
        (0..n).map(|i| i % 10).collect()
    }

    /// A prediction vector permuted by one position.
    fn rotated(v: &[usize]) -> Vec<usize> {
        let mut r = v.to_vec();
        r.rotate_left(1);
        r
    }

    #[test]
    fn accuracy_floor_fails_on_permuted_predictions() {
        let l = labels(1024);
        assert!(accuracy(&l, &l) >= EASY_ACCURACY_FLOOR);
        assert!(accuracy(&rotated(&l), &l) < HARD_ACCURACY_FLOOR);
    }

    #[test]
    fn exact_agreement_fails_on_permuted_predictions() {
        let l = labels(1024);
        assert_eq!(mismatches(&l, &l), 0);
        assert_eq!(mismatches(&rotated(&l), &l), 1024);
        assert_eq!(mismatches(&l[..1000], &l), 24);
    }

    #[test]
    fn batch_agreement_fails_beyond_near_tie_slack() {
        let l = labels(1024);
        let mut two_flips = l.clone();
        two_flips[3] = 9;
        two_flips[701] = 0;
        assert!(agreement(&two_flips, &l) >= BATCH_AGREEMENT_FLOOR);
        let mut three_flips = two_flips;
        three_flips[900] = 1;
        assert!(agreement(&three_flips, &l) < BATCH_AGREEMENT_FLOOR);
        assert!(agreement(&rotated(&l), &l) < BATCH_AGREEMENT_FLOOR);
    }

    #[test]
    fn exit_rule_fails_on_a_swapped_answer_or_exit() {
        let full = [(1, 2, 0.01f32), (3, 4, 0.5), (5, 6, 0.02)];
        let good = [(1, true), (4, false), (5, true)];
        assert_eq!(exit_rule_mismatches(&good, &full, 0.05), 0);
        let wrong_answer = [(1, true), (3, false), (5, true)];
        assert_eq!(exit_rule_mismatches(&wrong_answer, &full, 0.05), 1);
        let wrong_exit = [(1, true), (4, false), (5, false)];
        assert_eq!(exit_rule_mismatches(&wrong_exit, &full, 0.05), 1);
        assert_eq!(exit_rule_mismatches(&good[..2], &full, 0.05), 1);
    }

    fn small_case(fleet: bool) -> (sim::SimCase, FleetReport) {
        let profiles = vec![
            CostProfile::bimodal(2.0, 12.0, 0.7),
            CostProfile::bimodal(0.2, 1.3, 0.7),
            CostProfile::bimodal(0.1, 0.3, 0.7),
        ];
        let (cfg, policy) = if fleet {
            (
                sim::fleet_config(&profiles, 3136, 20_000, 5),
                sim::fleet_policy(&profiles),
            )
        } else {
            (
                sim::edge_config(&profiles, 20_000, 5),
                edgesim::OffloadPolicyKind::AlwaysLocal,
            )
        };
        let mut case = sim::SimCase::new("test", cfg, policy).expect("valid config");
        case.run(None).expect("run");
        let report = case.report();
        (case, report)
    }

    #[test]
    fn conservation_fails_when_a_request_leaves_the_accounting() {
        for fleet in [false, true] {
            let (_, report) = small_case(fleet);
            assert_eq!(conservation(&report), Ok(()));
            assert_eq!(lost_requests(&report), 0);
            let mut lost = report.clone();
            lost.tiers[0].completed -= 1;
            assert!(conservation(&lost).is_err());
            assert_eq!(lost_requests(&lost), 1);
            let mut misrouted = report;
            misrouted.tiers[0].routed += 1;
            assert!(conservation(&misrouted).is_err());
        }
    }

    #[test]
    fn fleet_config_offloads_and_drops() {
        let (_, report) = small_case(true);
        assert!(report.offloaded > 0, "the fleet config must offload");
        assert!(
            report.tiers.iter().all(|t| t.completed > 0),
            "every tier serves"
        );
        let (_, edge) = small_case(false);
        assert!(edge.dropped > 0, "the edge config must shed some load");
    }

    #[test]
    fn lean_check_fails_on_shifted_counts_or_quantiles() {
        let (case, lean) = small_case(true);
        let full = case.full_report().expect("full run");
        let err = lean_quantile_error();
        assert_eq!(lean_agrees_with_full(&lean, &full, err), Ok(()));
        let mut dropped = lean.clone();
        dropped.dropped += 1;
        assert!(lean_agrees_with_full(&dropped, &full, err).is_err());
        let mut slow = lean;
        slow.end_to_end.p99_ms *= 1.0 + 2.0 * err;
        assert!(lean_agrees_with_full(&slow, &full, err).is_err());
    }

    #[test]
    fn md1_check_fails_on_a_shifted_service_time() {
        let s = 4.0;
        let (mean, util) = sim::md1_run(s, sim::MD1_RHO, 400_000, 11).expect("md1 run");
        assert_eq!(md1_agrees(mean, util, s, sim::MD1_RHO), Ok(()));
        assert!(md1_agrees(mean, util, 1.1 * s, sim::MD1_RHO).is_err());
        assert!(md1_agrees(mean, util - 0.05, s, sim::MD1_RHO).is_err());
    }
}
