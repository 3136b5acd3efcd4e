//! # bench — harness binaries and Criterion benches
//!
//! One binary per table/figure of the paper (`cargo run -p bench --release
//! --bin <name>`):
//!
//! | binary       | regenerates                                        |
//! |--------------|----------------------------------------------------|
//! | `table1`     | Table I — converting-AE architectures              |
//! | `table2`     | Table II — latency / energy / accuracy             |
//! | `fig3`       | Fig. 3 — BranchyNet speedup vs hard fraction       |
//! | `fig5`       | Fig. 5 — five-model comparison (MNIST, RPi 4)      |
//! | `fig6`       | Fig. 6 — scalability, MNIST × 3 devices            |
//! | `fig7`       | Fig. 7 — scalability, FMNIST × 3 devices           |
//! | `fig8`       | Fig. 8 — scalability, KMNIST × 3 devices           |
//! | `exit_rates` | §IV-D — exit rates + AE latency share              |
//! | `ablations`  | DESIGN.md §4 — design-choice ablations             |
//! | `serving`    | extension — queueing simulation under load         |
//! | `fleet`      | extension — tiered edge–cloud offload sweep        |
//!
//! Scale control: set `CBNET_SCALE=small` for a smoke run that still
//! trains working models (seconds per family), `CBNET_SCALE=full` or leave
//! it unset for the full-scale run the committed EXPERIMENTS.md numbers come
//! from. Any other value is an error, not a silent full-scale run.

#![forbid(unsafe_code)]

use cbnet::experiments::ExperimentScale;
use cbnet::{ModelKind, ModelRegistry};
use models::branchynet::ExitDecision;
use nn::{Activation, ActivationKind, Dense, Network};
use tensor::random::rng_from_seed;

/// Batch sizes the forward-pass perf surfaces sweep (`benches/forward_plan`
/// and `bin/forward_perf` share this list so their trajectories stay
/// comparable).
pub const FORWARD_BATCHES: [usize; 4] = [1, 8, 32, 128];

/// A Table-I-style dense MLP (the converting-autoencoder shape): the
/// dense-GEMM-dominated counterpoint to LeNet's conv-dominated stack, shared
/// by the forward-pass perf surfaces.
pub fn dense_mlp(seed: u64) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::new()
        .push(Dense::new(784, 784, &mut rng))
        .push(Activation::new(ActivationKind::Relu, 784))
        .push(Dense::new(784, 384, &mut rng))
        .push(Activation::new(ActivationKind::Relu, 384))
        .push(Dense::new(384, 32, &mut rng))
        .push(Dense::new(32, 784, &mut rng))
        .push(Activation::new(ActivationKind::Sigmoid, 784))
}

/// Parse a `CBNET_SCALE` value: `small`, `full`, or unset (full). Any
/// other value is an error that names it.
pub fn parse_scale(value: Option<&str>) -> Result<ExperimentScale, String> {
    match value {
        Some("small") => Ok(ExperimentScale::small()),
        Some("full") | None => Ok(ExperimentScale::full()),
        Some(other) => Err(format!(
            "CBNET_SCALE={other:?} is not a scale: use `small` or `full` (or leave it unset for full)"
        )),
    }
}

/// Resolve the experiment scale from the `CBNET_SCALE` environment
/// variable (see [`parse_scale`]). An unknown value prints the error and
/// exits with status 2, before any training starts.
pub fn scale_from_env() -> ExperimentScale {
    let value = std::env::var("CBNET_SCALE").ok();
    parse_scale(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("ERROR: {e}");
        std::process::exit(2)
    })
}

/// Lowest CBNet accuracy a smoke run accepts: twice chance on 10 classes.
pub const MIN_CBNET_ACCURACY: f32 = 0.2;

/// Check that a registry's trained models work on its test split:
/// BranchyNet must take its early exit on at least one image, and CBNet
/// must score at least [`MIN_CBNET_ACCURACY`]. Returns the exit rate and
/// the accuracy, or an error naming the broken model. The `serving` and
/// `fleet` binaries exit non-zero on an error, so a training budget that
/// yields a degenerate comparator cannot pass as a smoke run.
pub fn check_trained_models(reg: &mut ModelRegistry) -> Result<(f32, f32), String> {
    let test = reg.split().test.clone();
    let outputs = reg.trained_mut().artifacts.branchynet.infer(&test.images);
    let early = outputs
        .iter()
        .filter(|o| o.exit == ExitDecision::Early)
        .count();
    let exit_rate = early as f32 / outputs.len().max(1) as f32;
    let preds = reg.model(ModelKind::Cbnet).predict_batch(&test.images);
    let accuracy = models::metrics::accuracy(&preds, &test.labels);
    if early == 0 {
        return Err(format!(
            "BranchyNet exits no test image early (exit rate 0 of {}): its threshold is degenerate",
            outputs.len()
        ));
    }
    if accuracy < MIN_CBNET_ACCURACY {
        return Err(format!(
            "CBNet accuracy {:.1}% is under twice chance ({:.0}%)",
            100.0 * accuracy,
            100.0 * MIN_CBNET_ACCURACY
        ));
    }
    Ok((exit_rate, accuracy))
}

/// [`check_trained_models`] for a bench binary: print the result, and exit with
/// status 1 when a model is broken.
pub fn require_trained_models(reg: &mut ModelRegistry) {
    match check_trained_models(reg) {
        Ok((exit_rate, accuracy)) => println!(
            "trained models ({}): BranchyNet exit rate {exit_rate:.3}, CBNet accuracy {:.1}%",
            reg.family().name(),
            100.0 * accuracy
        ),
        Err(e) => {
            eprintln!("ERROR ({}): {e}", reg.family().name());
            std::process::exit(1);
        }
    }
}

/// Print a standard experiment banner.
pub fn banner(name: &str, what: &str) {
    println!("=== {name} — {what} ===");
    let s = scale_from_env();
    println!(
        "scale: {} train / {} test samples, {} epochs (CBNET_SCALE={})\n",
        s.n_train,
        s.n_test,
        s.epochs,
        std::env::var("CBNET_SCALE").unwrap_or_else(|_| "full".into())
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        // Only valid when the var is unset in the test environment; guard.
        if std::env::var("CBNET_SCALE").is_err() {
            let s = scale_from_env();
            assert_eq!(s.n_train, ExperimentScale::full().n_train);
        }
    }

    #[test]
    fn only_small_and_full_are_scales() {
        let n_train = |v| parse_scale(v).map(|s| s.n_train);
        assert_eq!(n_train(Some("small")), Ok(ExperimentScale::small().n_train));
        assert_eq!(n_train(Some("full")), Ok(ExperimentScale::full().n_train));
        assert_eq!(n_train(None), Ok(ExperimentScale::full().n_train));
        for typo in ["smal", "Small", "", "full "] {
            let err = parse_scale(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "{err}");
        }
    }
}
