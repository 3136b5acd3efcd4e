//! Inference measurement: the timed passes of untraced runs, and the
//! per-layer split of traced runs.

use std::sync::Arc;
use std::time::Instant;

use cbnet::{ModelKind, ModelRegistry};
use models::branchynet::ExitDecision;
use nn::{CostKind, LayerSpec, Network};
use obs::LayerProfile;
use tensor::backend::Backend;
use tensor::conv::Conv2dGeom;

use crate::checks::mismatches;
use crate::setup::{Stream, BATCH, MODELS};
use crate::trace::Tracer;

/// Single-image calls per batch-1 pass.
pub const B1_CALLS: usize = 32;

/// Operations attempted and failed: one classified image or one simulated
/// request each.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a per-item check.
    pub failed: u64,
}

impl Ops {
    /// Count `n` operations of which `failed` failed.
    pub fn add(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }
}

/// Predictions of the served (reloaded) models, taken before timing; every
/// timed call is checked against them image by image.
pub struct Reference {
    /// Batch-32 predictions over the stream, in [`MODELS`] order.
    pub b32: Vec<Vec<usize>>,
    /// Batch-1 predictions over the stream, in [`MODELS`] order.
    pub b1: Vec<Vec<usize>>,
}

impl Reference {
    /// Classify the whole stream at batch 32 and at batch 1 with each model
    /// (this also builds every forward plan before timing starts).
    pub fn take(reg: &mut ModelRegistry, stream: &Stream) -> Reference {
        let mut b32 = Vec::new();
        let mut b1 = Vec::new();
        for kind in MODELS {
            b32.push(crate::setup::predict_b32(reg, kind, stream));
            let mut model = reg.model(kind);
            b1.push(
                stream
                    .singles
                    .iter()
                    .flat_map(|x| model.predict_batch(x))
                    .collect(),
            );
        }
        Reference { b32, b1 }
    }
}

/// Timed samples of one model.
#[derive(Debug, Default)]
pub struct ModelSamples {
    /// Wall time of each batch-32 pass over the stream, s.
    pub pass_s: Vec<f64>,
    /// Fastest time seen for each of the stream's batch-32 calls, s.
    pub best_batch_s: Vec<f64>,
    /// Wall time of each one-image call, ms.
    pub b1_ms: Vec<f64>,
    /// Median call time of each batch-1 pass of [`B1_CALLS`] calls, ms.
    pub b1_pass_ms: Vec<f64>,
}

impl ModelSamples {
    /// Images per second through the stream's batch-32 calls, each call at
    /// the fastest time it was seen to take.
    pub fn best_img_per_s(&self, images: usize) -> f64 {
        images as f64 / self.best_batch_s.iter().sum::<f64>()
    }

    /// Median images per second of the whole-stream passes.
    pub fn median_img_per_s(&self, images: usize) -> f64 {
        images as f64 / crate::stats::median(&self.pass_s)
    }
}

/// Batch-1 passes per model per round.
const B1_PASSES: usize = 4;

/// One round: for each model, rotated by `round`, a batch-32 pass over the
/// whole stream, then [`B1_PASSES`] passes of [`B1_CALLS`] one-image calls.
/// Returns the round's wall time, s.
pub fn timed_round(
    reg: &mut ModelRegistry,
    stream: &Stream,
    reference: &Reference,
    round: usize,
    samples: &mut [ModelSamples],
    ops: &mut Ops,
) -> f64 {
    let start = Instant::now();
    let n = stream.singles.len();
    for k in 0..MODELS.len() {
        let m = (round + k) % MODELS.len();
        let s = &mut samples[m];
        let mut model = reg.model(MODELS[m]);
        s.best_batch_s.resize(stream.batches.len(), f64::INFINITY);
        let mut preds = Vec::with_capacity(n);
        let pass = Instant::now();
        for (b, best) in stream.batches.iter().zip(&mut s.best_batch_s) {
            let t = Instant::now();
            let p = model.predict_batch(b);
            *best = best.min(t.elapsed().as_secs_f64());
            preds.extend(p);
        }
        s.pass_s.push(pass.elapsed().as_secs_f64());
        ops.add(preds.len(), mismatches(&preds, &reference.b32[m]));

        for pass in 0..B1_PASSES {
            let first = (round * B1_PASSES + pass) * B1_CALLS;
            let calls = s.b1_ms.len();
            for i in 0..B1_CALLS {
                let idx = (first + i) % n;
                let t = Instant::now();
                let p = model.predict_batch(&stream.singles[idx]);
                s.b1_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ops.add(1, mismatches(&p, &reference.b1[m][idx..idx + 1]));
            }
            s.b1_pass_ms.push(crate::stats::median(&s.b1_ms[calls..]));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Buffers of the kernel probes: the autoencoder's 784×784 dense layer and
/// LeNet's costliest convolution.
struct Kernels {
    a: Vec<f32>,
    w: Vec<f32>,
    bias: Vec<f32>,
    c: Vec<f32>,
    geom: Conv2dGeom,
    out_channels: usize,
    conv_in: Vec<f32>,
    conv_w: Vec<f32>,
    conv_bias: Vec<f32>,
    conv_out: Vec<f32>,
    scratch: Vec<f32>,
}

/// Width of the autoencoder's first dense layer (784 → 784).
const DENSE: usize = 784;
/// Kernel calls per span.
const KERNEL_REPS: usize = 20;
/// Batch-1 dense calls per span (each is ~40× cheaper than batch 32).
const KERNEL_B1_REPS: usize = 200;

/// A deterministic fill in [-0.05, 0.05] (timing does not depend on the
/// values, but they must be ordinary floats).
fn fill(n: usize, salt: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|i| {
            let z = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            (z as f32 / (1u64 << 24) as f32 - 0.5) * 0.1
        })
        .collect()
}

impl Kernels {
    fn new(stream: &Stream, lenet: &Network) -> Kernels {
        let (geom, out_channels) = lenet
            .specs()
            .into_iter()
            .filter_map(|s| match s {
                LayerSpec::Conv2d { geom, out_channels } => Some((geom, out_channels)),
                _ => None,
            })
            .max_by_key(|(g, o)| o * g.patch_rows() * g.patch_cols())
            .expect("LeNet has convolutions");
        Kernels {
            a: stream.batches[0].data().to_vec(),
            w: fill(DENSE * DENSE, 1),
            bias: fill(DENSE, 2),
            c: vec![0.0; BATCH * DENSE],
            conv_in: fill(BATCH * geom.in_channels * geom.in_h * geom.in_w, 3),
            conv_w: fill(out_channels * geom.patch_cols(), 4),
            conv_bias: fill(out_channels, 5),
            conv_out: vec![0.0; BATCH * out_channels * geom.patch_rows()],
            scratch: vec![0.0; tensor::conv::conv2d_scratch_floats(&geom, BATCH)],
            geom,
            out_channels,
        }
    }

    fn conv_flops(&self) -> u64 {
        (2 * self.out_channels * self.geom.patch_rows() * self.geom.patch_cols() * BATCH) as u64
    }

    /// One span per kernel; the span's items are the operations (or
    /// weight bytes, for batch 1) its calls performed.
    fn round(&mut self, tracer: &mut Tracer) {
        let be = Backend::resolve();
        let g = tracer.group();
        let flops = (2 * BATCH * DENSE * DENSE * KERNEL_REPS) as u64;
        tracer.span("tensor.matmul_bt_bias", g, flops, || {
            for _ in 0..KERNEL_REPS {
                be.matmul_bt_bias_into(
                    &self.a,
                    &self.w,
                    Some(&self.bias),
                    &mut self.c,
                    BATCH,
                    DENSE,
                    DENSE,
                );
                std::hint::black_box(&mut self.c);
            }
        });
        let bytes = (DENSE * DENSE * 4 * KERNEL_B1_REPS) as u64;
        tracer.span("tensor.matmul_bt_bias_b1", g, bytes, || {
            for _ in 0..KERNEL_B1_REPS {
                be.matmul_bt_bias_into(
                    &self.a[..DENSE],
                    &self.w,
                    Some(&self.bias),
                    &mut self.c[..DENSE],
                    1,
                    DENSE,
                    DENSE,
                );
                std::hint::black_box(&mut self.c);
            }
        });
        let flops = self.conv_flops() * KERNEL_REPS as u64;
        tracer.span("tensor.conv2d_batch", g, flops, || {
            for _ in 0..KERNEL_REPS {
                be.conv2d_batch_into(
                    &self.conv_in,
                    &self.conv_w,
                    &self.conv_bias,
                    &self.geom,
                    self.out_channels,
                    BATCH,
                    &mut self.conv_out,
                    &mut self.scratch,
                );
                std::hint::black_box(&mut self.conv_out);
            }
        });
    }
}

/// State of the traced inference rounds.
pub struct Traced {
    trunk: Network,
    branch: Network,
    tail: Network,
    profile: Arc<LayerProfile>,
    lenet_kinds: Vec<CostKind>,
    kernels: Kernels,
    /// Images BranchyNet's `infer` let leave at the early exit.
    pub early: u64,
    /// Images BranchyNet's `infer` classified.
    pub rows: u64,
}

impl Traced {
    /// Copy BranchyNet's stages and size the kernel buffers.
    pub fn new(reg: &ModelRegistry, stream: &Stream) -> Traced {
        let (trunk, branch, tail) = reg.trained().artifacts.branchynet.stages();
        let lenet = &reg.trained().lenet;
        Traced {
            trunk: trunk.duplicate(),
            branch: branch.duplicate(),
            tail: tail.duplicate(),
            profile: Arc::new(LayerProfile::new()),
            lenet_kinds: lenet.specs().iter().map(LayerSpec::cost_kind).collect(),
            kernels: Kernels::new(stream, lenet),
            early: 0,
            rows: 0,
        }
    }

    /// LeNet's per-image time by layer kind, µs, from the plan probe.
    pub fn lenet_us(&self, kind: CostKind) -> f64 {
        (0..self.lenet_kinds.len())
            .filter(|&i| self.lenet_kinds[i] == kind)
            .filter_map(|i| self.profile.layer_ns_per_sample(i))
            .sum::<f64>()
            / 1e3
    }

    /// One traced round over every model and kernel.
    pub fn round(
        &mut self,
        reg: &mut ModelRegistry,
        stream: &Stream,
        reference: &Reference,
        tracer: &mut Tracer,
        round: usize,
        ops: &mut Ops,
    ) {
        self.cbnet(reg, stream, reference, tracer, round, ops);
        self.branchynet(reg, stream, reference, tracer, ops);
        self.lenet(reg, stream, reference, tracer, ops);
        self.kernels.round(tracer);
    }

    /// CBNet split into its two stages, at batch 32 and at batch 1.
    fn cbnet(
        &mut self,
        reg: &mut ModelRegistry,
        stream: &Stream,
        reference: &Reference,
        tracer: &mut Tracer,
        round: usize,
        ops: &mut Ops,
    ) {
        let cb = &mut reg.trained_mut().artifacts.cbnet;
        // Rebuild plans left stale by the LeNet probe's install/clear.
        cb.predict(&stream.batches[0]);
        cb.predict(&stream.singles[0]);
        for (bi, b) in stream.batches.iter().enumerate() {
            let g = tracer.group();
            let outer = tracer.begin("models.cbnet.predict", g, BATCH as u64);
            let z = tracer.span("models.cbnet.autoencoder", g, BATCH as u64, || {
                cb.autoencoder.forward(b)
            });
            let preds = tracer.span("models.cbnet.classifier", g, BATCH as u64, || {
                cb.lightweight.predict_planned(&z).argmax_rows()
            });
            tracer.end(outer);
            let want = &reference.b32[0][bi * BATCH..(bi + 1) * BATCH];
            ops.add(BATCH, mismatches(&preds, want));
        }
        let n = stream.singles.len();
        for i in 0..B1_CALLS {
            let idx = (round * B1_CALLS + i) % n;
            let x = &stream.singles[idx];
            let g = tracer.group();
            let outer = tracer.begin("models.cbnet.predict_b1", g, 1);
            let z = tracer.span("models.cbnet.autoencoder_b1", g, 1, || {
                cb.autoencoder.forward(x)
            });
            let preds = tracer.span("models.cbnet.classifier_b1", g, 1, || {
                cb.lightweight.predict_planned(&z).argmax_rows()
            });
            tracer.end(outer);
            ops.add(1, mismatches(&preds, &reference.b1[0][idx..idx + 1]));
        }
    }

    /// BranchyNet's compacting `infer`, then copies of its three stages on
    /// the same batch, the tail fed exactly the rows `infer` sent there.
    fn branchynet(
        &mut self,
        reg: &mut ModelRegistry,
        stream: &Stream,
        reference: &Reference,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) {
        let bn = &mut reg.trained_mut().artifacts.branchynet;
        let warm = bn.infer(&stream.batches[0]);
        let h = self.trunk.predict_planned(&stream.batches[0]);
        self.branch.predict_planned(&h);
        self.tail.predict_planned(&h);
        drop(warm);
        for (bi, b) in stream.batches.iter().enumerate() {
            let g = tracer.group();
            let outs = tracer.span("models.branchynet.infer", g, BATCH as u64, || bn.infer(b));
            let stages = tracer.begin("models.branchynet.stages", g, BATCH as u64);
            let h = tracer.span("models.branchynet.trunk", g, BATCH as u64, || {
                self.trunk.predict_planned(b)
            });
            tracer.span("models.branchynet.exit_head", g, BATCH as u64, || {
                self.branch.predict_planned(&h)
            });
            let tail_rows: Vec<usize> = (0..outs.len())
                .filter(|&i| outs[i].exit == ExitDecision::Main)
                .collect();
            let mut tail_failed = 0;
            if !tail_rows.is_empty() {
                let hard = h.gather_rows(&tail_rows);
                let logits =
                    tracer.span("models.branchynet.tail", g, tail_rows.len() as u64, || {
                        self.tail.predict_planned(&hard)
                    });
                let tail_preds = logits.argmax_rows();
                let infer_preds: Vec<usize> =
                    tail_rows.iter().map(|&i| outs[i].prediction).collect();
                tail_failed = mismatches(&tail_preds, &infer_preds);
            }
            tracer.end(stages);
            self.early += (outs.len() - tail_rows.len()) as u64;
            self.rows += outs.len() as u64;
            let preds: Vec<usize> = outs.iter().map(|o| o.prediction).collect();
            let want = &reference.b32[1][bi * BATCH..(bi + 1) * BATCH];
            ops.add(BATCH, mismatches(&preds, want).max(tail_failed));
        }
    }

    /// LeNet passes without and with the plan probe installed.
    fn lenet(
        &mut self,
        reg: &mut ModelRegistry,
        stream: &Stream,
        reference: &Reference,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) {
        let n = stream.singles.len() as u64;
        for (name, probed) in [("nn.lenet.pass", false), ("nn.lenet.pass_probed", true)] {
            if probed {
                obs::probe::install(self.profile.clone());
            }
            let mut model = reg.model(ModelKind::LeNet);
            model.predict_batch(&stream.batches[0]);
            let g = tracer.group();
            let preds: Vec<usize> = tracer.span(name, g, n, || {
                stream
                    .batches
                    .iter()
                    .flat_map(|b| model.predict_batch(b))
                    .collect()
            });
            ops.add(preds.len(), mismatches(&preds, &reference.b32[2]));
            obs::probe::clear();
        }
    }
}
