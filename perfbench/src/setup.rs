//! Set-up: data, training, checkpoint round trip, profile pricing and
//! simulator construction — everything between the process start and the
//! first timed call.

use cbnet::experiments::{ExperimentScale, TrainedFamily};
use cbnet::pipeline::{train_pipeline, PipelineConfig};
use cbnet::{ModelKind, ModelRegistry};
use datasets::{generate, Dataset, Family, GeneratorConfig, Split};
use edgesim::{CostProfile, Device, OffloadPolicyKind};
use models::lenet::build_lenet;
use models::training::train_classifier;
use tensor::Tensor;

use crate::sim::{self, SimCase};
use crate::trace::Tracer;

/// Training samples (MNIST-like, the family's default 5% hard share).
pub const TRAIN_SAMPLES: usize = 2000;
/// Training epochs of every model.
pub const TRAIN_EPOCHS: usize = 3;
/// Seed of the training data and weights. Fixed, so every run serves the
/// same models; `--seed` draws the streams and simulator workloads.
pub const TRAIN_SEED: u64 = 0xCBAE;
/// Images per stream.
pub const STREAM_LEN: usize = 1024;
/// Rows per batched call.
pub const BATCH: usize = 32;
/// The three models, in the order the metrics list them.
pub const MODELS: [ModelKind; 3] = [ModelKind::Cbnet, ModelKind::BranchyNet, ModelKind::LeNet];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Inference at the family's default 5% hard share.
    InferEasy,
    /// Inference at 80% hard.
    InferHard,
    /// The simulator configurations, priced on a default-share stream.
    FleetSim,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::InferEasy, Workload::InferHard, Workload::FleetSim];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferEasy => "infer_easy",
            Workload::InferHard => "infer_hard",
            Workload::FleetSim => "fleet_sim",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Hard share of the workload's stream.
    pub fn hard_fraction(self) -> f32 {
        match self {
            Workload::InferEasy | Workload::FleetSim => Family::MnistLike.default_hard_fraction(),
            Workload::InferHard => 0.80,
        }
    }

    /// Share of the timed window spent in the simulator; the rest runs
    /// inference passes.
    pub fn sim_share(self) -> f64 {
        match self {
            Workload::InferEasy | Workload::InferHard => 0.25,
            Workload::FleetSim => 0.75,
        }
    }

    /// The accuracy floor of the workload's stream.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::InferHard => crate::checks::HARD_ACCURACY_FLOOR,
            Workload::InferEasy | Workload::FleetSim => crate::checks::EASY_ACCURACY_FLOOR,
        }
    }
}

/// A stream laid out for serving: the batches and single-image tensors are
/// cut once, so timed calls pay for inference only.
pub struct Stream {
    /// Generator labels, one per image.
    pub labels: Vec<usize>,
    /// Whether the generator made each image hard.
    pub hard: Vec<bool>,
    /// All images, `[STREAM_LEN, 784]`.
    pub images: Tensor,
    /// Consecutive `[BATCH, 784]` batches.
    pub batches: Vec<Tensor>,
    /// One `[1, 784]` tensor per image.
    pub singles: Vec<Tensor>,
}

impl Stream {
    fn new(ds: &Dataset) -> Stream {
        let n = ds.len();
        let batches = (0..n / BATCH)
            .map(|b| {
                let rows: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
                ds.images.gather_rows(&rows)
            })
            .collect();
        Stream {
            labels: ds.labels.clone(),
            hard: ds.gen_hard.clone(),
            images: ds.images.clone(),
            batches,
            singles: (0..n).map(|i| ds.image(i)).collect(),
        }
    }
}

/// Everything the timed phase and the checks use.
pub struct Bench {
    /// The trained models, serving the weights reloaded from checkpoints.
    pub reg: ModelRegistry,
    /// The workload's stream.
    pub stream: Stream,
    /// Batch-32 predictions of the trained in-memory models, taken before
    /// the checkpoint round trip, in [`MODELS`] order.
    pub before_reload: Vec<Vec<usize>>,
    /// Checkpoint bytes written for the three models.
    pub checkpoint_bytes: usize,
    /// BranchyNet's per-image profile on each `Device::ALL` preset.
    pub profiles: Vec<CostProfile>,
    /// The `edge` configuration.
    pub edge: SimCase,
    /// The `fleet` configuration.
    pub fleet: SimCase,
}

/// Map `--seed` to the generator seed of the stream, far from the fixed
/// training seed's sample streams.
pub fn stream_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_57EA
}

/// Predictions of one model over the stream at batch 32.
pub fn predict_b32(reg: &mut ModelRegistry, kind: ModelKind, stream: &Stream) -> Vec<usize> {
    let mut model = reg.model(kind);
    stream
        .batches
        .iter()
        .flat_map(|b| model.predict_batch(b))
        .collect()
}

/// Run the set-up of `workload` for `seed`, recording spans into `tracer`.
pub fn build(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Bench, String> {
    let family = Family::MnistLike;
    let scale = ExperimentScale {
        n_train: TRAIN_SAMPLES,
        n_test: STREAM_LEN,
        epochs: TRAIN_EPOCHS,
        seed: TRAIN_SEED,
    };
    let g = tracer.group();
    let setup = tracer.begin("setup", g, 1);

    let train = tracer.span("datasets.generate", g, TRAIN_SAMPLES as u64, || {
        generate(&GeneratorConfig::new(family, TRAIN_SAMPLES, TRAIN_SEED))
    });
    let stream_ds = tracer.span("datasets.generate", g, STREAM_LEN as u64, || {
        generate(&GeneratorConfig {
            family,
            n: STREAM_LEN,
            hard_fraction: Some(workload.hard_fraction()),
            seed: stream_seed(seed),
        })
    });

    // The same budget and seeds `cbnet::experiments::prepare_family` uses,
    // with each training call timed on its own.
    let mut cfg = PipelineConfig::for_family(family);
    cfg.branchy_train = scale.train_config();
    cfg.ae_train = scale.train_config();
    cfg.seed = TRAIN_SEED ^ family.seed_offset();
    let artifacts = tracer.span("cbnet.train_pipeline", g, TRAIN_SAMPLES as u64, || {
        train_pipeline(&train, &cfg)
    });
    let mut lenet = build_lenet(&mut tensor::random::rng_from_seed(cfg.seed ^ 0x1E4E7));
    tracer.span("models.train_lenet", g, TRAIN_SAMPLES as u64, || {
        train_classifier(&mut lenet, &train, &scale.train_config())
    });

    let stream = Stream::new(&stream_ds);
    let tf = TrainedFamily {
        family,
        split: Split {
            train,
            test: stream_ds,
        },
        artifacts,
        lenet,
    };
    let mut reg = ModelRegistry::from_trained(tf, scale);

    // Checkpoint round trip: the timed phase serves the reloaded weights.
    let before_reload: Vec<Vec<usize>> = MODELS
        .iter()
        .map(|&k| predict_b32(&mut reg, k, &stream))
        .collect();
    let mut checkpoint_bytes = 0;
    let mut saved = Vec::with_capacity(MODELS.len());
    for kind in MODELS {
        let bytes = tracer.span("tensorstore.save", g, 1, || reg.save_model(kind));
        checkpoint_bytes += bytes.len();
        saved.push(bytes);
    }
    for (kind, bytes) in MODELS.into_iter().zip(saved) {
        tracer
            .span("tensorstore.load", g, 1, || reg.load_model(kind, bytes))
            .map_err(|e| format!("reloading {kind}: {e}"))?;
    }

    let profiles = tracer.span("edgesim.profile", g, STREAM_LEN as u64, || {
        reg.tier_profiles(ModelKind::BranchyNet, &stream.images, &Device::ALL)
    });
    let payload = reg
        .model(ModelKind::BranchyNet)
        .offload_payload_bytes(&stream.images);
    let edge = tracer.span("edgesim.build", g, sim::SIM_REQUESTS as u64, || {
        SimCase::new(
            "edge",
            sim::edge_config(&profiles, sim::SIM_REQUESTS, seed),
            OffloadPolicyKind::AlwaysLocal,
        )
    })?;
    let fleet = tracer.span("edgesim.build", g, sim::SIM_REQUESTS as u64, || {
        SimCase::new(
            "fleet",
            sim::fleet_config(&profiles, payload, sim::SIM_REQUESTS, seed ^ 0xF1EE7),
            sim::fleet_policy(&profiles),
        )
    })?;
    tracer.end(setup);

    Ok(Bench {
        reg,
        stream,
        before_reload,
        checkpoint_bytes,
        profiles,
        edge,
        fleet,
    })
}
