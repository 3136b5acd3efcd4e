//! Arrival processes for the serving simulators.
//!
//! The closed-form loop hardcodes Poisson arrivals. Real edge traffic is
//! rarely that kind: cameras upload in bursts, diurnal load swings by an
//! order of magnitude, and replayed production traces are the gold
//! standard for capacity planning. An [`ArrivalProcess`] abstracts the
//! "when does the next request show up" question so the [`crate::fleet`]
//! simulator can be stressed with non-stationary load:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant rate.
//!   Generation reproduces the legacy simulator's RNG draw order **exactly**
//!   (one inter-arrival uniform, then one service-quantile uniform, per
//!   request), which is what keeps the one-tier fleet bit-identical to the
//!   closed-form loop.
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson
//!   process: the rate alternates between a base state and a burst state,
//!   with exponentially distributed dwell times in each. Mean rate equal to
//!   a Poisson process, but arrivals clump — the workload shape that turns
//!   early-exit service variance into deep queues.
//! * [`ArrivalProcess::Trace`] — deterministic replay of recorded
//!   inter-arrival gaps (cycled when the run is longer than the trace).
//!   Service quantiles are still drawn per request, so the same trace can
//!   stress different cost profiles.
//!
//! Every process yields `(arrival_ms, quantile)` pairs via
//! [`ArrivalProcess::generate`]: the quantile `u ∈ [0, 1)` is the request's
//! *difficulty* draw, mapped to a service time by each serving tier's own
//! [`crate::cost::CostProfile::sample`]. Sharing the quantile across tiers
//! is deliberate — a hard input is hard on every device, only the price
//! differs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When requests arrive. See the module docs for the three shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (requests/second).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_hz: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponential inter-arrivals
    /// whose rate depends on a background state that alternates between
    /// `base` and `burst`, each held for an exponentially distributed dwell.
    ///
    /// A gap that straddles a state switch is drawn at the rate of the state
    /// it started in (the switch takes effect from the next arrival) — a
    /// standard discretisation that keeps one uniform draw per arrival.
    Mmpp {
        /// Arrival rate in the quiet state, requests per second.
        base_rate_hz: f64,
        /// Arrival rate in the burst state, requests per second.
        burst_rate_hz: f64,
        /// Mean dwell in the quiet state, ms (exponentially distributed).
        base_dwell_ms: f64,
        /// Mean dwell in the burst state, ms (exponentially distributed).
        burst_dwell_ms: f64,
    },
    /// Deterministic replay of recorded inter-arrival gaps, cycled when the
    /// run outlives the trace.
    Trace {
        /// Inter-arrival gaps in ms, in replay order. All finite and
        /// non-negative, with a positive mean (a trace of all-zero gaps has
        /// no usable rate).
        gaps_ms: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `rate_hz` requests/second.
    ///
    /// # Panics
    /// Panics unless the rate is positive and finite.
    pub fn poisson(rate_hz: f64) -> Self {
        let p = ArrivalProcess::Poisson { rate_hz };
        p.assert_valid();
        p
    }

    /// A two-state MMPP (see [`ArrivalProcess::Mmpp`]).
    ///
    /// # Panics
    /// Panics unless both rates and both dwell means are positive and finite.
    pub fn mmpp(
        base_rate_hz: f64,
        burst_rate_hz: f64,
        base_dwell_ms: f64,
        burst_dwell_ms: f64,
    ) -> Self {
        let p = ArrivalProcess::Mmpp {
            base_rate_hz,
            burst_rate_hz,
            base_dwell_ms,
            burst_dwell_ms,
        };
        p.assert_valid();
        p
    }

    /// A deterministic trace replay of inter-arrival gaps.
    ///
    /// # Panics
    /// Panics on an empty trace, a negative/non-finite gap, or an all-zero
    /// trace.
    pub fn trace(gaps_ms: Vec<f64>) -> Self {
        let p = ArrivalProcess::Trace { gaps_ms };
        p.assert_valid();
        p
    }

    /// Validate invariants, returning a description of the first violation.
    pub fn try_valid(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                if !(*rate_hz > 0.0 && rate_hz.is_finite()) {
                    return Err(format!(
                        "arrival rate must be positive and finite, got {rate_hz}"
                    ));
                }
            }
            ArrivalProcess::Mmpp {
                base_rate_hz,
                burst_rate_hz,
                base_dwell_ms,
                burst_dwell_ms,
            } => {
                for (what, v) in [
                    ("base arrival rate", *base_rate_hz),
                    ("burst arrival rate", *burst_rate_hz),
                    ("base dwell", *base_dwell_ms),
                    ("burst dwell", *burst_dwell_ms),
                ] {
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(format!("{what} must be positive and finite, got {v}"));
                    }
                }
            }
            ArrivalProcess::Trace { gaps_ms } => {
                if gaps_ms.is_empty() {
                    return Err("trace needs at least one inter-arrival gap".into());
                }
                if let Some(bad) = gaps_ms.iter().find(|g| !(**g >= 0.0 && g.is_finite())) {
                    return Err(format!(
                        "trace gaps must be non-negative and finite, got {bad}"
                    ));
                }
                if gaps_ms.iter().sum::<f64>() <= 0.0 {
                    return Err("trace must contain at least one positive gap".into());
                }
            }
        }
        Ok(())
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with the [`ArrivalProcess::try_valid`] message on violation.
    pub fn assert_valid(&self) {
        if let Err(e) = self.try_valid() {
            // lint:allow(panic-in-lib, reason = "documented # Panics contract; try_valid is the non-panicking form")
            panic!("{e}");
        }
    }

    /// Long-run mean arrival rate, requests per second — what stability
    /// estimates (`ρ = λ·E[S]`) should use. For MMPP the states are weighted
    /// by their mean dwell; for a trace it is the replay-cycle average.
    pub fn mean_rate_hz(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Mmpp {
                base_rate_hz,
                burst_rate_hz,
                base_dwell_ms,
                burst_dwell_ms,
            } => {
                (base_rate_hz * base_dwell_ms + burst_rate_hz * burst_dwell_ms)
                    / (base_dwell_ms + burst_dwell_ms)
            }
            ArrivalProcess::Trace { gaps_ms } => {
                1000.0 * gaps_ms.len() as f64 / gaps_ms.iter().sum::<f64>()
            }
        }
    }

    /// Display name for tables/CSV (`poisson`, `mmpp`, `trace`).
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson".into(),
            ArrivalProcess::Mmpp { .. } => "mmpp".into(),
            ArrivalProcess::Trace { .. } => "trace".into(),
        }
    }

    /// Generate a workload: `requests` pairs of `(arrival_ms, quantile)` in
    /// arrival order, where `quantile ∈ [0, 1)` is the request's service
    /// difficulty draw (feed it to [`crate::cost::CostProfile::sample`]).
    ///
    /// For [`ArrivalProcess::Poisson`] the RNG draw order is exactly the
    /// legacy simulator's — one inter-arrival uniform then one quantile
    /// uniform per request — so workloads generated here are bit-identical
    /// to what [`crate::pipeline::simulate`] consumes internally.
    ///
    /// # Panics
    /// Panics on an invalid process or zero requests.
    pub fn generate(&self, requests: usize, seed: u64) -> Vec<(f64, f64)> {
        self.assert_valid();
        assert!(requests > 0, "need at least one request");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(requests);
        let mut arrival = 0.0f64;
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                let mean_gap_ms = 1000.0 / rate_hz;
                for _ in 0..requests {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    arrival += -mean_gap_ms * u.ln();
                    out.push((arrival, rng.gen::<f64>()));
                }
            }
            ArrivalProcess::Mmpp {
                base_rate_hz,
                burst_rate_hz,
                base_dwell_ms,
                burst_dwell_ms,
            } => {
                let exp = |rng: &mut StdRng, mean: f64| -> f64 {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    -mean * u.ln()
                };
                // State 0 = quiet, state 1 = burst; start quiet.
                let mut burst = false;
                let mut dwell_left = exp(&mut rng, *base_dwell_ms);
                for _ in 0..requests {
                    let rate = if burst { *burst_rate_hz } else { *base_rate_hz };
                    let gap = exp(&mut rng, 1000.0 / rate);
                    arrival += gap;
                    dwell_left -= gap;
                    while dwell_left <= 0.0 {
                        burst = !burst;
                        let mean = if burst {
                            *burst_dwell_ms
                        } else {
                            *base_dwell_ms
                        };
                        dwell_left += exp(&mut rng, mean);
                    }
                    out.push((arrival, rng.gen::<f64>()));
                }
            }
            ArrivalProcess::Trace { gaps_ms } => {
                for i in 0..requests {
                    arrival += gaps_ms[i % gaps_ms.len()];
                    out.push((arrival, rng.gen::<f64>()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_matches_legacy_draw_order() {
        // The generate() stream must replay the legacy loop verbatim.
        let rate = 120.0;
        let generated = ArrivalProcess::poisson(rate).generate(500, 42);
        let mut rng = StdRng::seed_from_u64(42);
        let mean = 1000.0 / rate;
        let mut arrival = 0.0f64;
        for (a, q) in generated {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            arrival += -mean * u.ln();
            let quantile = rng.gen::<f64>();
            assert_eq!(a, arrival);
            assert_eq!(q, quantile);
        }
    }

    #[test]
    fn arrivals_are_monotone_and_quantiles_in_range() {
        for p in [
            ArrivalProcess::poisson(200.0),
            ArrivalProcess::mmpp(50.0, 800.0, 400.0, 80.0),
            ArrivalProcess::trace(vec![1.0, 0.0, 4.5, 2.0]),
        ] {
            let w = p.generate(2_000, 7);
            assert_eq!(w.len(), 2_000);
            for pair in w.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].0,
                    "{}: arrivals not monotone",
                    p.label()
                );
            }
            assert!(w.iter().all(|&(_, q)| (0.0..1.0).contains(&q)));
        }
    }

    #[test]
    fn mmpp_mean_rate_is_dwell_weighted() {
        let p = ArrivalProcess::mmpp(100.0, 900.0, 300.0, 100.0);
        assert!((p.mean_rate_hz() - (100.0 * 300.0 + 900.0 * 100.0) / 400.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_clumps_more_than_poisson() {
        // Same mean rate, but the MMPP's inter-arrival gaps have a higher
        // coefficient of variation than the exponential's ≈1.
        let cv = |w: &[(f64, f64)]| {
            let gaps: Vec<f64> = w.windows(2).map(|p| p[1].0 - p[0].0).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let mmpp = ArrivalProcess::mmpp(50.0, 950.0, 500.0, 500.0);
        let pois = ArrivalProcess::poisson(mmpp.mean_rate_hz());
        let n = 20_000;
        assert!(cv(&mmpp.generate(n, 3)) > 1.2 * cv(&pois.generate(n, 3)));
    }

    #[test]
    fn trace_replays_and_cycles() {
        let p = ArrivalProcess::trace(vec![2.0, 3.0]);
        let w = p.generate(5, 0);
        let arrivals: Vec<f64> = w.iter().map(|&(a, _)| a).collect();
        assert_eq!(arrivals, vec![2.0, 5.0, 7.0, 10.0, 12.0]);
        assert!((p.mean_rate_hz() - 1000.0 * 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn generation_is_deterministic() {
        for p in [
            ArrivalProcess::poisson(300.0),
            ArrivalProcess::mmpp(100.0, 600.0, 200.0, 50.0),
            ArrivalProcess::trace(vec![0.5, 1.5]),
        ] {
            assert_eq!(p.generate(1_000, 11), p.generate(1_000, 11));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArrivalProcess::poisson(1.0).label(), "poisson");
        assert_eq!(ArrivalProcess::mmpp(1.0, 2.0, 1.0, 1.0).label(), "mmpp");
        assert_eq!(ArrivalProcess::trace(vec![1.0]).label(), "trace");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_rate() {
        let _ = ArrivalProcess::poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one positive gap")]
    fn rejects_all_zero_trace() {
        let _ = ArrivalProcess::trace(vec![0.0, 0.0]);
    }

    #[test]
    fn try_valid_reports_errors_without_panicking() {
        assert!(ArrivalProcess::Poisson { rate_hz: -1.0 }
            .try_valid()
            .is_err());
        assert!(ArrivalProcess::Trace { gaps_ms: vec![] }
            .try_valid()
            .is_err());
        assert!(ArrivalProcess::Mmpp {
            base_rate_hz: 1.0,
            burst_rate_hz: f64::NAN,
            base_dwell_ms: 1.0,
            burst_dwell_ms: 1.0,
        }
        .try_valid()
        .is_err());
        assert!(ArrivalProcess::poisson(10.0).try_valid().is_ok());
    }
}
