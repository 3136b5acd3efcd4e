//! The converting autoencoder — the paper's core contribution (§III-A).
//!
//! A converting autoencoder is trained to map *any* image (easy or hard) to
//! an **easy image of the same class**: "We design and train a converting
//! autoencoder model to encode a hard image into an efficient representation
//! that can be decoded into an easy image belonging to the same class."
//!
//! Architectures follow the paper's Table I exactly (sizes and hidden
//! activations per dataset). The output activation is configurable: Table I
//! prints `Softmax`, but a softmax across 784 pixels constrains outputs to
//! sum to 1 and makes MSE reconstruction degenerate — we default to
//! `Sigmoid` and keep `Softmax` available for the ablation bench
//! (DESIGN.md §4, ablation 1).
//!
//! Training (Fig. 4): every training image, easy or hard, is paired with a
//! randomly chosen *easy* image of its class as the regression target; the
//! loss is MSE plus an L1 activity penalty on the encoder output
//! (§III-A.3, coefficient 10e-8).

use nn::loss::{ActivityL1, MseLoss};
use nn::Loss;
use nn::{Activation, ActivationKind, Dense, Network};
use rand::Rng;
use tensor::Tensor;

use crate::storeutil;
use crate::training; // target assembly helpers live next to the train loops

/// Output-layer activation for the reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputActivation {
    /// Conventional autoencoder output for `[0,1]` images (default).
    Sigmoid,
    /// The literal Table I configuration (ablation).
    Softmax,
    /// No output nonlinearity (ablation).
    Linear,
}

impl OutputActivation {
    fn kind(self) -> ActivationKind {
        match self {
            OutputActivation::Sigmoid => ActivationKind::Sigmoid,
            OutputActivation::Softmax => ActivationKind::Softmax,
            OutputActivation::Linear => ActivationKind::Linear,
        }
    }
}

/// How the easy-image regression target is chosen for each input
/// (DESIGN.md §4, ablation 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicy {
    /// A uniformly random easy image of the same class — the paper's policy
    /// ("an easy image that belongs to the same class was randomly chosen",
    /// §III-A.2).
    RandomEasy,
    /// The easy image of the same class nearest in L2 — lower-variance
    /// targets.
    NearestEasy,
    /// The pixel-wise mean of all easy images of the class.
    ClassMeanEasy,
}

/// One hidden-layer description: width and activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiddenLayer {
    /// Feature-map size (Table I's "size of feature map").
    pub width: usize,
    /// Activation (Table I's "activation function").
    pub activation: ActivationKind,
}

/// Architecture + training configuration of a converting autoencoder.
#[derive(Debug, Clone)]
pub struct AutoencoderConfig {
    /// Input width (784 for the MNIST family).
    pub input: usize,
    /// The three hidden layers; the last one is the encoder bottleneck whose
    /// activations receive the L1 penalty.
    pub hidden: Vec<HiddenLayer>,
    /// Output activation (see [`OutputActivation`]).
    pub output_activation: OutputActivation,
    /// L1 activity-regularisation coefficient on the bottleneck.
    pub l1_lambda: f32,
    /// Target-selection policy.
    pub target_policy: TargetPolicy,
}

impl AutoencoderConfig {
    /// Table I, MNIST column: 784 → 784(relu) → 384(relu) → 32(linear) → 784.
    pub fn mnist() -> Self {
        AutoencoderConfig {
            input: 784,
            hidden: vec![
                HiddenLayer {
                    width: 784,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 384,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 32,
                    activation: ActivationKind::Linear,
                },
            ],
            output_activation: OutputActivation::Sigmoid,
            l1_lambda: ActivityL1::PAPER_LAMBDA,
            target_policy: TargetPolicy::RandomEasy,
        }
    }

    /// Table I, FMNIST column: 784 → 512(relu) → 256(relu) → 128(linear) → 784.
    pub fn fmnist() -> Self {
        AutoencoderConfig {
            input: 784,
            hidden: vec![
                HiddenLayer {
                    width: 512,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 256,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 128,
                    activation: ActivationKind::Linear,
                },
            ],
            output_activation: OutputActivation::Sigmoid,
            l1_lambda: ActivityL1::PAPER_LAMBDA,
            target_policy: TargetPolicy::RandomEasy,
        }
    }

    /// Table I, KMNIST column: 784 → 512(relu) → 384(linear) → 32(linear) → 784.
    pub fn kmnist() -> Self {
        AutoencoderConfig {
            input: 784,
            hidden: vec![
                HiddenLayer {
                    width: 512,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 384,
                    activation: ActivationKind::Linear,
                },
                HiddenLayer {
                    width: 32,
                    activation: ActivationKind::Linear,
                },
            ],
            output_activation: OutputActivation::Sigmoid,
            l1_lambda: ActivityL1::PAPER_LAMBDA,
            target_policy: TargetPolicy::RandomEasy,
        }
    }

    /// The Table I config for a dataset family.
    pub fn for_family(family: datasets::Family) -> Self {
        match family {
            datasets::Family::MnistLike => Self::mnist(),
            datasets::Family::FmnistLike => Self::fmnist(),
            datasets::Family::KmnistLike => Self::kmnist(),
        }
    }
}

/// The converting autoencoder: encoder (up to the bottleneck) + decoder.
pub struct ConvertingAutoencoder {
    encoder: Network,
    decoder: Network,
    l1: ActivityL1,
    config: AutoencoderConfig,
}

impl ConvertingAutoencoder {
    /// Build with fresh Glorot weights from a config.
    pub fn new(config: AutoencoderConfig, rng: &mut impl Rng) -> Self {
        assert_eq!(config.hidden.len(), 3, "the paper uses three hidden layers");
        let mut encoder = Network::new();
        let mut prev = config.input;
        for h in &config.hidden {
            encoder.push_boxed(Box::new(Dense::new(prev, h.width, rng)));
            encoder.push_boxed(Box::new(Activation::new(h.activation, h.width)));
            prev = h.width;
        }
        let decoder = Network::new()
            .push(Dense::new(prev, config.input, rng))
            .push(Activation::new(
                config.output_activation.kind(),
                config.input,
            ));
        ConvertingAutoencoder {
            encoder,
            decoder,
            l1: ActivityL1::new(config.l1_lambda),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoencoderConfig {
        &self.config
    }

    /// Bottleneck width (the encoder's output features).
    pub fn bottleneck_dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// Encode a batch to bottleneck codes.
    pub fn encode(&mut self, x: &Tensor) -> Tensor {
        self.encoder.predict_planned(x)
    }

    /// Full reconstruction: encode then decode (planned forward; repeated
    /// same-shaped batches do no per-layer allocation).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let z = self.encoder.predict_planned(x);
        self.decoder.predict_planned(&z)
    }

    /// Total parameters.
    pub fn param_count(&self) -> usize {
        self.encoder.param_count() + self.decoder.param_count()
    }

    /// Forward FLOPs per sample (for the device cost model).
    pub fn flops_per_sample(&self) -> u64 {
        self.encoder.flops_per_sample() + self.decoder.flops_per_sample()
    }

    /// Layer specs of encoder followed by decoder (Table I reporting).
    pub fn specs(&self) -> Vec<nn::LayerSpec> {
        let mut s = self.encoder.specs();
        s.extend(self.decoder.specs());
        s
    }

    /// One training step on `(input, target)` batches; returns the combined
    /// loss (reconstruction MSE + L1 activity penalty).
    pub fn train_batch(&mut self, x: &Tensor, target: &Tensor) -> f32 {
        self.encoder.zero_grads();
        self.decoder.zero_grads();
        let z = self.encoder.forward(x, true);
        let y = self.decoder.forward(&z, true);
        let (mse, g_y) = MseLoss.loss(&y, target);
        let (pen, g_pen) = self.l1.penalty(&z);
        let mut g_z = self.decoder.backward(&g_y);
        g_z.add_assign(&g_pen);
        let _ = self.encoder.backward(&g_z);
        mse + pen
    }

    /// Flattened `(param, grad)` list (encoder then decoder).
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        let mut v = self.encoder.params_and_grads();
        v.extend(self.decoder.params_and_grads());
        v
    }

    /// Visit all `(param, grad)` pairs in [`Self::params_and_grads`] order
    /// without allocating — the [`nn::step_with`] optimizer path.
    pub fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.encoder.visit_params_and_grads(f);
        self.decoder.visit_params_and_grads(f);
    }

    /// Round every dense weight matrix to the nearest f16 value, in place;
    /// the biases keep their f32 values. Afterwards each [`nn::Dense`]
    /// serves its exact f16 twin, so single-image inference streams half
    /// the weight bytes (see `nn::Dense`). The rounding is the only change
    /// to the outputs: the kernels compute bitwise the same results on the
    /// rounded weights with or without the twin.
    pub fn round_weights_to_f16(&mut self) {
        self.visit_params_and_grads(&mut |p, _| {
            if p.rank() == 2 {
                for w in p.data_mut() {
                    *w = tensor::half::round_f16(*w);
                }
            }
        });
    }

    /// Reconstruction MSE over a batch (no training).
    pub fn reconstruction_error(&mut self, x: &Tensor, target: &Tensor) -> f32 {
        let y = self.forward(x);
        let (mse, _) = MseLoss.loss(&y, target);
        mse
    }

    /// Serialize (config + both stages).
    pub fn save(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(b"CAE1");
        buf.put_u8(match self.config.output_activation {
            OutputActivation::Sigmoid => 0,
            OutputActivation::Softmax => 1,
            OutputActivation::Linear => 2,
        });
        buf.put_f32_le(self.config.l1_lambda);
        for stage in [&self.encoder, &self.decoder] {
            let b = stage.save();
            buf.put_u64_le(b.len() as u64);
            buf.put_slice(&b);
        }
        buf.freeze()
    }

    /// Load a checkpoint written by [`ConvertingAutoencoder::save`].
    pub fn load(mut buf: impl bytes::Buf) -> Result<Self, tensor::TensorError> {
        use tensor::TensorError;
        let err = |m: &str| TensorError::Deserialize(m.into());
        if buf.remaining() < 9 {
            return Err(err("checkpoint too short"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"CAE1" {
            return Err(err("bad autoencoder magic"));
        }
        let output_activation = match buf.get_u8() {
            0 => OutputActivation::Sigmoid,
            1 => OutputActivation::Softmax,
            2 => OutputActivation::Linear,
            _ => return Err(err("unknown output activation")),
        };
        let l1_lambda = buf.get_f32_le();
        let mut stages = Vec::with_capacity(2);
        for _ in 0..2 {
            if buf.remaining() < 8 {
                return Err(err("truncated stage"));
            }
            let len = buf.get_u64_le() as usize;
            if buf.remaining() < len {
                return Err(err("truncated stage body"));
            }
            stages.push(Network::load(buf.copy_to_bytes(len))?);
        }
        // lint:allow(panic-in-lib, reason = "the fixed-count loop above pushed exactly two stages")
        let decoder = stages.pop().unwrap();
        // lint:allow(panic-in-lib, reason = "the fixed-count loop above pushed exactly two stages")
        let encoder = stages.pop().unwrap();
        // Reconstruct the hidden-layer description from the encoder specs.
        let mut hidden = Vec::new();
        let mut specs = encoder.specs().into_iter();
        while let (
            Some(nn::LayerSpec::Dense { out_dim, .. }),
            Some(nn::LayerSpec::Activation { kind, .. }),
        ) = (specs.next(), specs.next())
        {
            hidden.push(HiddenLayer {
                width: out_dim,
                activation: kind,
            });
        }
        let config = AutoencoderConfig {
            input: encoder.in_dim(),
            hidden,
            output_activation,
            l1_lambda,
            target_policy: TargetPolicy::RandomEasy,
        };
        Ok(ConvertingAutoencoder {
            encoder,
            decoder,
            l1: ActivityL1::new(l1_lambda),
            config,
        })
    }

    /// Reconstruct an autoencoder from a parsed tensor file written by
    /// [`tensorstore::SerializeTensors::export_tensors`]: two sub-networks
    /// under `{prefix}encoder.` / `{prefix}decoder.` plus the
    /// `{prefix}config` metadata string. Allocating construction path; the
    /// in-place refill is [`tensorstore::SerializeTensors::import_tensors`].
    pub fn from_tensor_file(
        file: &tensorstore::TensorFile<'_>,
        prefix: &str,
    ) -> tensorstore::Result<Self> {
        let (output_activation, l1_lambda, target_policy) = read_config(file, prefix)?;
        let encoder = Network::from_tensor_file(file, &storeutil::scoped(prefix, "encoder."))?;
        let decoder = Network::from_tensor_file(file, &storeutil::scoped(prefix, "decoder."))?;
        if encoder.out_dim() != decoder.in_dim() || decoder.out_dim() != encoder.in_dim() {
            return Err(tensorstore::StoreError::Import(format!(
                "autoencoder stage shapes disagree: encoder {}→{}, decoder {}→{}",
                encoder.in_dim(),
                encoder.out_dim(),
                decoder.in_dim(),
                decoder.out_dim()
            )));
        }
        // Reconstruct the hidden-layer description from the encoder specs,
        // as the legacy CAE1 loader does.
        let mut hidden = Vec::new();
        let mut specs = encoder.specs().into_iter();
        while let (
            Some(nn::LayerSpec::Dense { out_dim, .. }),
            Some(nn::LayerSpec::Activation { kind, .. }),
        ) = (specs.next(), specs.next())
        {
            hidden.push(HiddenLayer {
                width: out_dim,
                activation: kind,
            });
        }
        let config = AutoencoderConfig {
            input: encoder.in_dim(),
            hidden,
            output_activation,
            l1_lambda,
            target_policy,
        };
        Ok(ConvertingAutoencoder {
            encoder,
            decoder,
            l1: ActivityL1::new(l1_lambda),
            config,
        })
    }
}

/// Parse the `{prefix}config` metadata string:
/// `{output_activation_tag};{l1_lambda_bits_hex};{target_policy_tag}`.
fn read_config(
    file: &tensorstore::TensorFile<'_>,
    prefix: &str,
) -> tensorstore::Result<(OutputActivation, f32, TargetPolicy)> {
    let raw = file
        .metadata(&storeutil::scoped(prefix, "config"))
        .ok_or_else(|| {
            tensorstore::StoreError::Import(format!(
                "file has no `{prefix}config` metadata entry for the autoencoder"
            ))
        })?;
    parse_config(raw).ok_or_else(|| {
        tensorstore::StoreError::Import(format!(
            "`{prefix}config` metadata (`{raw}`) is not `act;l1_bits;policy`"
        ))
    })
}

fn parse_config(s: &str) -> Option<(OutputActivation, f32, TargetPolicy)> {
    let mut it = s.split(';');
    let act = match it.next()? {
        "0" => OutputActivation::Sigmoid,
        "1" => OutputActivation::Softmax,
        "2" => OutputActivation::Linear,
        _ => return None,
    };
    let l1 = storeutil::hex_f32(it.next()?)?;
    let policy = match it.next()? {
        "0" => TargetPolicy::RandomEasy,
        "1" => TargetPolicy::NearestEasy,
        "2" => TargetPolicy::ClassMeanEasy,
        _ => return None,
    };
    it.next().is_none().then_some((act, l1, policy))
}

impl tensorstore::SerializeTensors for ConvertingAutoencoder {
    /// Export both stages under `{prefix}encoder.` / `{prefix}decoder.` plus
    /// a `{prefix}config` metadata string (`l1_lambda` as `f32::to_bits` hex
    /// for a bitwise-exact roundtrip).
    fn export_tensors(
        &self,
        out: &mut tensorstore::TensorWriter,
        prefix: &str,
    ) -> tensorstore::Result<()> {
        let act = match self.config.output_activation {
            OutputActivation::Sigmoid => 0,
            OutputActivation::Softmax => 1,
            OutputActivation::Linear => 2,
        };
        let policy = match self.config.target_policy {
            TargetPolicy::RandomEasy => 0,
            TargetPolicy::NearestEasy => 1,
            TargetPolicy::ClassMeanEasy => 2,
        };
        out.set_metadata(
            &storeutil::scoped(prefix, "config"),
            &format!("{act};{:08x};{policy}", self.config.l1_lambda.to_bits()),
        );
        self.encoder
            .export_tensors(out, &storeutil::scoped(prefix, "encoder."))?;
        self.decoder
            .export_tensors(out, &storeutil::scoped(prefix, "decoder."))
    }

    /// Refill both stages in place and adopt the checkpoint's config (the
    /// architecture gates guarantee the hidden-layer description still
    /// matches). With an empty `prefix` the success path performs zero
    /// allocations after the per-stage architecture gates.
    fn import_tensors(
        &mut self,
        file: &tensorstore::TensorFile<'_>,
        prefix: &str,
    ) -> tensorstore::Result<()> {
        let (output_activation, l1_lambda, target_policy) = read_config(file, prefix)?;
        self.encoder
            .import_tensors(file, &storeutil::scoped(prefix, "encoder."))?;
        self.decoder
            .import_tensors(file, &storeutil::scoped(prefix, "decoder."))?;
        self.config.output_activation = output_activation;
        self.config.l1_lambda = l1_lambda;
        self.config.target_policy = target_policy;
        self.l1 = ActivityL1::new(l1_lambda);
        Ok(())
    }
}

/// Build the per-sample regression targets for converting-AE training.
///
/// For each input sample, picks an easy image of the same class according to
/// `policy`. `easy_mask[i]` marks whether training sample `i` is easy (from
/// the BranchyNet exit labelling, Fig. 4).
///
/// # Panics
/// Panics if some class has no easy examples (the paper's procedure
/// implicitly requires at least one per class).
pub fn build_targets(
    images: &Tensor,
    labels: &[usize],
    easy_mask: &[bool],
    policy: TargetPolicy,
    rng: &mut impl Rng,
) -> Tensor {
    training::build_conversion_targets(images, labels, easy_mask, policy, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::rng_from_seed;

    #[test]
    fn table1_mnist_architecture() {
        let mut rng = rng_from_seed(0);
        let ae = ConvertingAutoencoder::new(AutoencoderConfig::mnist(), &mut rng);
        let specs = ae.specs();
        // FC 784 relu, FC 384 relu, FC 32 linear, FC 784 out.
        assert_eq!(specs[0].describe(), "Dense(784→784)");
        assert_eq!(specs[2].describe(), "Dense(784→384)");
        assert_eq!(specs[4].describe(), "Dense(384→32)");
        assert_eq!(specs[6].describe(), "Dense(32→784)");
        assert_eq!(ae.bottleneck_dim(), 32);
    }

    #[test]
    fn table1_fmnist_architecture() {
        let mut rng = rng_from_seed(1);
        let ae = ConvertingAutoencoder::new(AutoencoderConfig::fmnist(), &mut rng);
        assert_eq!(ae.bottleneck_dim(), 128);
        let widths: Vec<usize> = ae.config().hidden.iter().map(|h| h.width).collect();
        assert_eq!(widths, vec![512, 256, 128]);
    }

    #[test]
    fn table1_kmnist_architecture() {
        let mut rng = rng_from_seed(2);
        let ae = ConvertingAutoencoder::new(AutoencoderConfig::kmnist(), &mut rng);
        assert_eq!(ae.bottleneck_dim(), 32);
        let acts: Vec<ActivationKind> = ae.config().hidden.iter().map(|h| h.activation).collect();
        assert_eq!(
            acts,
            vec![
                ActivationKind::Relu,
                ActivationKind::Linear,
                ActivationKind::Linear
            ]
        );
    }

    #[test]
    fn forward_shape_and_range() {
        let mut rng = rng_from_seed(3);
        let mut ae = ConvertingAutoencoder::new(AutoencoderConfig::mnist(), &mut rng);
        let x = Tensor::rand_uniform(&[3, 784], 0.0, 1.0, &mut rng);
        let y = ae.forward(&x);
        assert_eq!(y.dims(), &[3, 784]);
        // Sigmoid output stays in (0, 1).
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut rng = rng_from_seed(4);
        // A small AE on a tiny identity task: map noisy patterns to clean.
        let cfg = AutoencoderConfig {
            input: 784,
            hidden: vec![
                HiddenLayer {
                    width: 64,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 32,
                    activation: ActivationKind::Relu,
                },
                HiddenLayer {
                    width: 16,
                    activation: ActivationKind::Linear,
                },
            ],
            output_activation: OutputActivation::Sigmoid,
            l1_lambda: 1e-7,
            target_policy: TargetPolicy::RandomEasy,
        };
        let mut ae = ConvertingAutoencoder::new(cfg, &mut rng);
        let target = Tensor::rand_bernoulli(&[8, 784], 0.3, &mut rng);
        let x = target.map(|v| (v * 0.8 + 0.1).clamp(0.0, 1.0));
        let mut opt = nn::Adam::with_defaults(0.003);
        use nn::Optimizer;
        let first = ae.train_batch(&x, &target);
        {
            let mut pg = ae.params_and_grads();
            opt.step(&mut pg);
        }
        let mut last = first;
        for _ in 0..60 {
            last = ae.train_batch(&x, &target);
            let mut pg = ae.params_and_grads();
            opt.step(&mut pg);
        }
        assert!(last < first * 0.5, "AE loss did not drop: {first} → {last}");
    }

    #[test]
    fn softmax_output_ablation_runs() {
        let mut rng = rng_from_seed(5);
        let mut cfg = AutoencoderConfig::mnist();
        cfg.output_activation = OutputActivation::Softmax;
        let mut ae = ConvertingAutoencoder::new(cfg, &mut rng);
        let x = Tensor::rand_uniform(&[2, 784], 0.0, 1.0, &mut rng);
        let y = ae.forward(&x);
        // Softmax rows sum to 1 — the degeneracy the default avoids.
        for row in y.data().chunks(784) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = rng_from_seed(6);
        let mut ae = ConvertingAutoencoder::new(AutoencoderConfig::kmnist(), &mut rng);
        let x = Tensor::rand_uniform(&[2, 784], 0.0, 1.0, &mut rng);
        let y = ae.forward(&x);
        let mut loaded = ConvertingAutoencoder::load(ae.save()).unwrap();
        assert!(loaded.forward(&x).allclose(&y, 1e-6));
        assert_eq!(loaded.config().l1_lambda, ae.config().l1_lambda);
        assert_eq!(loaded.config().hidden, ae.config().hidden);
    }

    #[test]
    fn tensor_store_roundtrip_is_bitwise() {
        use tensorstore::{AlignedBytes, SerializeTensors, TensorFile};
        let mut rng = rng_from_seed(7);
        let mut ae = ConvertingAutoencoder::new(AutoencoderConfig::kmnist(), &mut rng);
        let x = Tensor::rand_uniform(&[2, 784], 0.0, 1.0, &mut rng);
        let y = ae.forward(&x);
        let bytes = ae.save_tensors().unwrap();
        let buf = AlignedBytes::from_slice(&bytes);
        let file = TensorFile::parse(buf.as_slice()).unwrap();
        let mut loaded = ConvertingAutoencoder::from_tensor_file(&file, "").unwrap();
        assert_eq!(loaded.forward(&x).data(), y.data());
        assert_eq!(loaded.config().hidden, ae.config().hidden);
        assert_eq!(loaded.config().l1_lambda, ae.config().l1_lambda);
        // In-place refill of a same-architecture net with different weights.
        let mut other = ConvertingAutoencoder::new(AutoencoderConfig::kmnist(), &mut rng);
        other.import_tensors(&file, "").unwrap();
        assert_eq!(other.forward(&x).data(), y.data());
        // A different Table I architecture is rejected with context.
        let mut wrong = ConvertingAutoencoder::new(AutoencoderConfig::mnist(), &mut rng);
        let err = wrong.import_tensors(&file, "").unwrap_err().to_string();
        assert!(err.contains("arch mismatch"), "{err}");
    }

    #[test]
    fn family_configs_dispatch() {
        assert_eq!(
            AutoencoderConfig::for_family(datasets::Family::MnistLike).hidden[0].width,
            784
        );
        assert_eq!(
            AutoencoderConfig::for_family(datasets::Family::FmnistLike).hidden[2].width,
            128
        );
        assert_eq!(
            AutoencoderConfig::for_family(datasets::Family::KmnistLike).hidden[1].width,
            384
        );
    }
}
