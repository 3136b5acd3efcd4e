//! One driver per table/figure of the paper's evaluation, plus the
//! DESIGN.md §4 ablations.
//!
//! Every driver is parameterised by an [`ExperimentScale`] so the same code
//! runs as a fast integration test (hundreds of samples, 1–2 epochs) and as
//! the full harness (`cargo run -p bench --bin <exp>` with thousands of
//! samples). Results are returned as structured rows; the bench binaries
//! render them with [`crate::table`].

pub mod ablations;
pub mod exit_rates;
pub mod fig3;
pub mod fig5;
pub mod scalability;
pub mod table1;
pub mod table2;

use datasets::{generate_pair, Dataset, Family, Split};
use models::lenet::build_lenet;
use models::training::{train_classifier, TrainConfig};
use nn::Network;

use crate::pipeline::{train_pipeline, PipelineArtifacts, PipelineConfig};

/// Budget knobs shared by all experiment drivers.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Training samples per dataset.
    pub n_train: usize,
    /// Test samples per dataset.
    pub n_test: usize,
    /// Training epochs for every model.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Full-scale runs for the harness binaries (minutes of training).
    pub fn full() -> Self {
        ExperimentScale {
            n_train: 4000,
            n_test: 1500,
            epochs: 6,
            seed: 0xCBAE,
        }
    }

    /// Smoke runs (seconds per family) that still train working models:
    /// the benchmark's 2,000 × 3-epoch budget, which gives the MNIST-like
    /// CBNet 96–97% accuracy and BranchyNet an early-exit rate near 0.93.
    /// A smaller budget (500 × 2) left BranchyNet's tuned threshold at 0 and
    /// CBNet at chance.
    pub fn small() -> Self {
        ExperimentScale {
            n_train: 2000,
            n_test: 200,
            epochs: 3,
            seed: 0xCBAE,
        }
    }

    /// The shared training configuration this scale implies.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: self.seed ^ 0x7,
        }
    }
}

/// Everything trained for one dataset family: the CBNet pipeline artifacts
/// (which include the BranchyNet comparator), the LeNet baseline, and the
/// data. Training happens once here and is shared by Table II, Fig. 3,
/// Figs. 6–8 and the exit-rate report.
pub struct TrainedFamily {
    /// The dataset family.
    pub family: Family,
    /// Train/test data.
    pub split: Split,
    /// CBNet pipeline output (BranchyNet + converting AE + lightweight DNN).
    pub artifacts: PipelineArtifacts,
    /// The trained LeNet baseline.
    pub lenet: Network,
}

/// Generate data and train every model for one family.
pub fn prepare_family(family: Family, scale: &ExperimentScale) -> TrainedFamily {
    let split = generate_pair(family, scale.n_train, scale.n_test, scale.seed);
    let mut cfg = PipelineConfig::for_family(family);
    cfg.branchy_train = scale.train_config();
    cfg.ae_train = scale.train_config();
    cfg.seed = scale.seed ^ family.seed_offset();
    let artifacts = train_pipeline(&split.train, &cfg);

    let mut rng = tensor::random::rng_from_seed(cfg.seed ^ 0x1E4E7);
    let mut lenet = build_lenet(&mut rng);
    let _ = train_classifier(&mut lenet, &split.train, &scale.train_config());

    TrainedFamily {
        family,
        split,
        artifacts,
        lenet,
    }
}

/// Convenience: the held-out test set of a trained family.
pub fn test_set(tf: &TrainedFamily) -> &Dataset {
    &tf.split.test
}
