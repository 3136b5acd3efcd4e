//! Per-request service-time distributions.
//!
//! A [`CostProfile`] is *the* currency between trained models and the serving
//! layer: every `InferenceModel` prices itself on a device as a profile, and
//! the serving simulators ([`crate::pipeline`], [`crate::fleet`]) draw
//! per-request service times from it. Three shapes cover every model in
//! the paper and every measurement of one:
//!
//! * [`CostProfile::Constant`] — input-independent latency. LeNet, CBNet,
//!   AdaDeep and SubFlow pay the same cost for every image (the property the
//!   paper's Table II/Fig. 5 comparisons hinge on for CBNet).
//! * [`CostProfile::Bimodal`] — early-exit latency. A BranchyNet request is
//!   *easy* with the measured exit probability (paying trunk + branch), or
//!   *hard* (additionally paying the tail). The mixture weight comes from the
//!   trained network's measured exit rate, not an assumed one.
//! * [`CostProfile::Empirical`] — a histogram of **measured per-sample
//!   latencies** (`InferenceModel::sample_costs` prices each input of an
//!   evaluation batch by the execution path it actually took). Sampling is
//!   the inverse empirical CDF, so replaying the profile reproduces the
//!   exact per-sample variance the closed-form shapes summarise away.
//!   Measurement runs through the planned executor, so the samples price
//!   whichever compute backend (`tensor::backend`) is active — swapping
//!   scalar for SIMD kernels moves these profiles automatically.

/// A per-request service-time distribution on one device, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum CostProfile {
    /// Every request takes exactly `service_ms`.
    Constant {
        /// Per-request service time, ms.
        service_ms: f64,
    },
    /// A two-point easy/hard mixture (early-exit execution).
    Bimodal {
        /// Service time of an easy (early-exiting) request, ms.
        easy_ms: f64,
        /// Service time of a hard (full-path) request, ms.
        hard_ms: f64,
        /// Probability a request is easy (the measured exit rate).
        easy_fraction: f64,
    },
    /// Measured per-sample latencies (an empirical histogram; each stored
    /// sample is one equal-mass bin of the inverse CDF).
    Empirical {
        /// Per-sample service times, sorted ascending, all positive/finite.
        samples_ms: Vec<f64>,
    },
}

impl CostProfile {
    /// An input-independent profile.
    ///
    /// # Panics
    /// Panics unless `service_ms > 0`.
    pub fn constant(service_ms: f64) -> Self {
        let p = CostProfile::Constant { service_ms };
        p.assert_valid();
        p
    }

    /// An easy/hard mixture profile.
    ///
    /// # Panics
    /// Panics unless both times are positive and `easy_fraction ∈ [0, 1]`.
    pub fn bimodal(easy_ms: f64, hard_ms: f64, easy_fraction: f64) -> Self {
        let p = CostProfile::Bimodal {
            easy_ms,
            hard_ms,
            easy_fraction,
        };
        p.assert_valid();
        p
    }

    /// A measured profile from per-sample latencies (any order; sorted
    /// internally). This is how trained models feed the serving layer their
    /// real variance: one entry per evaluation input, priced by the
    /// execution path that input actually took.
    ///
    /// # Panics
    /// Panics when `samples_ms` is empty or contains a non-positive or
    /// non-finite value.
    pub fn empirical(mut samples_ms: Vec<f64>) -> Self {
        assert!(
            samples_ms.iter().all(|s| s.is_finite()),
            "service times must be positive and finite"
        );
        samples_ms.sort_by(f64::total_cmp);
        let p = CostProfile::Empirical { samples_ms };
        p.assert_valid();
        p
    }

    /// Validate invariants (service times positive and finite, mixture
    /// weight in `[0, 1]`, empirical samples sorted and non-empty),
    /// returning a description of the first violation instead of panicking —
    /// what sweep drivers use to reject a bad configuration up front and
    /// keep going, rather than dying mid-matrix.
    pub fn try_valid(&self) -> Result<(), String> {
        match *self {
            CostProfile::Constant { service_ms } => {
                if !(service_ms > 0.0 && service_ms.is_finite()) {
                    return Err(format!(
                        "service times must be positive and finite, got {service_ms}"
                    ));
                }
            }
            CostProfile::Bimodal {
                easy_ms,
                hard_ms,
                easy_fraction,
            } => {
                if !(easy_ms > 0.0 && easy_ms.is_finite() && hard_ms > 0.0 && hard_ms.is_finite()) {
                    return Err(format!(
                        "service times must be positive and finite, got easy {easy_ms} / hard {hard_ms}"
                    ));
                }
                if !(0.0..=1.0).contains(&easy_fraction) {
                    return Err(format!(
                        "easy fraction must be in [0, 1], got {easy_fraction}"
                    ));
                }
            }
            CostProfile::Empirical { ref samples_ms } => {
                if samples_ms.is_empty() {
                    return Err("empirical profile needs samples".into());
                }
                if let Some(bad) = samples_ms.iter().find(|s| !(**s > 0.0 && s.is_finite())) {
                    return Err(format!(
                        "service times must be positive and finite, got {bad}"
                    ));
                }
                if !samples_ms.windows(2).all(|w| w[0] <= w[1]) {
                    return Err("empirical samples must be sorted ascending".into());
                }
            }
        }
        Ok(())
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with the [`CostProfile::try_valid`] message on violation — the
    /// serving simulator calls this up front so a hand-constructed profile
    /// fails loudly rather than corrupting a run.
    pub fn assert_valid(&self) {
        if let Err(e) = self.try_valid() {
            // lint:allow(panic-in-lib, reason = "documented # Panics contract; try_valid is the non-panicking form")
            panic!("{e}");
        }
    }

    /// Mean service time, ms.
    pub fn mean_ms(&self) -> f64 {
        match self {
            CostProfile::Constant { service_ms } => *service_ms,
            CostProfile::Bimodal {
                easy_ms,
                hard_ms,
                easy_fraction,
            } => easy_fraction * easy_ms + (1.0 - easy_fraction) * hard_ms,
            CostProfile::Empirical { samples_ms } => {
                samples_ms.iter().sum::<f64>() / samples_ms.len() as f64
            }
        }
    }

    /// Smallest possible service time, ms.
    pub fn min_ms(&self) -> f64 {
        match self {
            CostProfile::Constant { service_ms } => *service_ms,
            CostProfile::Bimodal {
                easy_ms, hard_ms, ..
            } => easy_ms.min(*hard_ms),
            CostProfile::Empirical { samples_ms } => samples_ms[0],
        }
    }

    /// Largest possible service time, ms.
    pub fn max_ms(&self) -> f64 {
        match self {
            CostProfile::Constant { service_ms } => *service_ms,
            CostProfile::Bimodal {
                easy_ms, hard_ms, ..
            } => easy_ms.max(*hard_ms),
            CostProfile::Empirical { samples_ms } => samples_ms[samples_ms.len() - 1],
        }
    }

    /// Probability a request takes the cheap path: 1 for constant profiles,
    /// the mixture weight for bimodal ones, and the measured fraction of
    /// samples at the minimum latency for empirical ones (for an early-exit
    /// model measured per input, that *is* its observed exit rate).
    pub fn easy_fraction(&self) -> f64 {
        match self {
            CostProfile::Constant { .. } => 1.0,
            CostProfile::Bimodal { easy_fraction, .. } => *easy_fraction,
            CostProfile::Empirical { samples_ms } => {
                let min = samples_ms[0];
                samples_ms.iter().take_while(|&&s| s == min).count() as f64
                    / samples_ms.len() as f64
            }
        }
    }

    /// Draw one service time from the distribution via a uniform variate
    /// `u ∈ [0, 1)` (inverse-CDF sampling; callers own the RNG). For
    /// empirical profiles this indexes the sorted measurement histogram, so
    /// replayed workloads carry exactly the measured per-sample variance.
    ///
    /// # Panics
    /// Panics unless `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "uniform variate must be in [0, 1)");
        match self {
            CostProfile::Constant { service_ms } => *service_ms,
            CostProfile::Bimodal {
                easy_ms,
                hard_ms,
                easy_fraction,
            } => {
                if u < *easy_fraction {
                    *easy_ms
                } else {
                    *hard_ms
                }
            }
            CostProfile::Empirical { samples_ms } => {
                let idx = (u * samples_ms.len() as f64) as usize;
                samples_ms[idx.min(samples_ms.len() - 1)]
            }
        }
    }

    /// The offered-load utilization `ρ = λ · E[S]` this profile implies at an
    /// arrival rate (requests/s). `ρ ≥ 1` means the queue is unstable.
    pub fn offered_load(&self, arrival_rate_hz: f64) -> f64 {
        arrival_rate_hz * self.mean_ms() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_stats() {
        let p = CostProfile::constant(2.4);
        assert_eq!(p.mean_ms(), 2.4);
        assert_eq!(p.min_ms(), 2.4);
        assert_eq!(p.max_ms(), 2.4);
        assert_eq!(p.easy_fraction(), 1.0);
        assert_eq!(p.sample(0.0), 2.4);
        assert_eq!(p.sample(0.999), 2.4);
    }

    #[test]
    fn bimodal_profile_stats() {
        let p = CostProfile::bimodal(2.0, 12.0, 0.75);
        assert!((p.mean_ms() - (0.75 * 2.0 + 0.25 * 12.0)).abs() < 1e-12);
        assert_eq!(p.min_ms(), 2.0);
        assert_eq!(p.max_ms(), 12.0);
        assert_eq!(p.easy_fraction(), 0.75);
        assert_eq!(p.sample(0.5), 2.0);
        assert_eq!(p.sample(0.75), 12.0);
        assert_eq!(p.sample(0.9), 12.0);
    }

    #[test]
    fn empirical_profile_stats() {
        // Unsorted on purpose: the constructor sorts.
        let p = CostProfile::empirical(vec![4.0, 1.0, 1.0, 2.0]);
        assert_eq!(p.min_ms(), 1.0);
        assert_eq!(p.max_ms(), 4.0);
        assert!((p.mean_ms() - 2.0).abs() < 1e-12);
        assert!((p.easy_fraction() - 0.5).abs() < 1e-12);
        // Inverse empirical CDF: quartile boundaries hit the sorted samples.
        assert_eq!(p.sample(0.0), 1.0);
        assert_eq!(p.sample(0.49), 1.0);
        assert_eq!(p.sample(0.5), 2.0);
        assert_eq!(p.sample(0.75), 4.0);
        assert_eq!(p.sample(0.999999), 4.0);
    }

    #[test]
    fn empirical_single_sample_acts_constant() {
        let p = CostProfile::empirical(vec![3.25]);
        assert_eq!(p.mean_ms(), 3.25);
        assert_eq!(p.easy_fraction(), 1.0);
        assert_eq!(p.sample(0.9), 3.25);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn rejects_empty_empirical() {
        let _ = CostProfile::empirical(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_empirical_sample() {
        let _ = CostProfile::empirical(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn rejects_unsorted_hand_built_empirical() {
        // Direct construction bypasses the sorting constructor; assert_valid
        // must still catch it.
        CostProfile::Empirical {
            samples_ms: vec![2.0, 1.0],
        }
        .assert_valid();
    }

    #[test]
    fn try_valid_reports_errors_without_panicking() {
        assert!(CostProfile::constant(1.0).try_valid().is_ok());
        assert!(CostProfile::Constant { service_ms: -2.0 }
            .try_valid()
            .unwrap_err()
            .contains("positive"));
        assert!(CostProfile::Bimodal {
            easy_ms: 1.0,
            hard_ms: 2.0,
            easy_fraction: 1.5,
        }
        .try_valid()
        .unwrap_err()
        .contains("easy fraction"));
        assert!(CostProfile::Empirical { samples_ms: vec![] }
            .try_valid()
            .unwrap_err()
            .contains("needs samples"));
        assert!(CostProfile::Empirical {
            samples_ms: vec![2.0, 1.0],
        }
        .try_valid()
        .unwrap_err()
        .contains("sorted"));
    }

    #[test]
    fn offered_load_is_rate_times_mean() {
        let p = CostProfile::constant(5.0);
        assert!((p.offered_load(100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_service() {
        let _ = CostProfile::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "easy fraction")]
    fn rejects_bad_fraction() {
        let _ = CostProfile::bimodal(1.0, 2.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "uniform variate")]
    fn rejects_bad_variate() {
        let _ = CostProfile::constant(1.0).sample(1.0);
    }
}
