//! Fully connected layer.

use rand::Rng;
use tensor::half::F16Twin;
use tensor::Tensor;

use crate::init::glorot_uniform;
use crate::layer::Layer;
use crate::spec::LayerSpec;

/// A dense (fully connected) layer: `y = x·Wᵀ + b`.
///
/// Weights are stored `(out_dim, in_dim)` so the forward pass is a
/// `matmul_bt` with both operands traversed along contiguous rows, and the
/// backward input-gradient is a plain `matmul` — neither needs a transpose
/// copy.
///
/// # The f16 twin
///
/// The layer also owns an [`F16Twin`] of its weights, a 16-bit buffer
/// allocated at construction. When every weight is exactly representable
/// in f16 (for instance after [`tensor::half::round_f16`]; a NaN counts as
/// inexact), [`Layer::forward_into`] passes the twin to
/// [`tensor::backend::Backend::matmul_bt_bias_twin_into`], whose
/// bandwidth-bound leftover-row tiles (batch 1–3) then stream half the
/// weight bytes. The outputs are bitwise the same as without the twin.
/// Every `&mut` route to the weights ([`Dense::weights_mut`],
/// [`Layer::params_and_grads`], [`Layer::visit_params_and_grads`], and so
/// the optimizer step and `import_tensors`) marks the twin stale, and the
/// next `forward_into` re-derives it without allocating. Weights that are
/// not f16-exact cost that re-derivation a few conversions, then run the
/// f32 kernel as before.
pub struct Dense {
    weights: Tensor, // (out, in)
    bias: Tensor,    // (out)
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
    /// Exact f16 image of `weights`, when they have one.
    twin: F16Twin,
    /// Set by every `&mut` access to `weights`; cleared when `twin` is
    /// re-derived.
    twin_stale: bool,
}

impl Dense {
    /// New dense layer with Glorot-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "Dense dims must be positive");
        Dense {
            weights: glorot_uniform(&[out_dim, in_dim], in_dim, out_dim, rng),
            bias: Tensor::zeros(&[out_dim]),
            grad_w: Tensor::zeros(&[out_dim, in_dim]),
            grad_b: Tensor::zeros(&[out_dim]),
            cached_input: None,
            in_dim,
            out_dim,
            twin: F16Twin::new(out_dim * in_dim),
            twin_stale: true,
        }
    }

    /// Construct from explicit parameters (deserialisation, tests).
    ///
    /// # Panics
    /// Panics unless `weights` is `(out, in)` and `bias` is `(out)`.
    pub fn from_params(weights: Tensor, bias: Tensor) -> Self {
        assert_eq!(weights.rank(), 2, "weights must be rank 2");
        let (out_dim, in_dim) = (weights.dims()[0], weights.dims()[1]);
        assert_eq!(bias.dims(), &[out_dim], "bias must be (out_dim)");
        Dense {
            grad_w: Tensor::zeros(&[out_dim, in_dim]),
            grad_b: Tensor::zeros(&[out_dim]),
            cached_input: None,
            in_dim,
            out_dim,
            weights,
            bias,
            twin: F16Twin::new(out_dim * in_dim),
            twin_stale: true,
        }
    }

    /// Immutable view of the weight matrix `(out, in)`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Immutable view of the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable weight access (used by the SubFlow masker and pruning).
    /// Marks the f16 twin stale.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        self.twin_stale = true;
        &mut self.weights
    }

    /// True when the next [`Layer::forward_into`] serves the f16 twin,
    /// i.e. every weight is f16-exact. Re-derives a stale twin first (the
    /// same allocation-free step `forward_into` takes).
    pub fn serves_f16(&mut self) -> bool {
        self.sync_twin();
        self.twin.image().is_some()
    }

    /// Re-derive the f16 twin if a `&mut` access to the weights left it
    /// stale. Allocation-free.
    fn sync_twin(&mut self) {
        if self.twin_stale {
            self.twin.refresh(self.weights.data());
            self.twin_stale = false;
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        debug_assert_eq!(input.rank(), 2, "dense input must be a batch");
        debug_assert_eq!(input.dims()[1], self.in_dim, "dense input width mismatch");
        let mut out = input.matmul_bt(&self.weights); // (n, out)
        out.add_row_broadcast(&self.bias);
        self.cached_input = Some(input.clone());
        out
    }

    fn forward_into(
        &mut self,
        input: &[f32],
        batch: usize,
        out: &mut [f32],
        _scratch: &mut [f32],
        backend: tensor::backend::Backend,
    ) {
        debug_assert_eq!(input.len(), batch * self.in_dim);
        debug_assert_eq!(out.len(), batch * self.out_dim);
        // On the scalar backend, bit-identical to the allocating path (same
        // dot and bias addition per output), but on the cache-resident
        // schedule with the bias fused — two things the layer-local API
        // can't do, writing straight into the plan buffer. The SIMD backend
        // swaps in FMA microkernels (tolerance documented in
        // `tensor::backend`), and streams the f16 twin, when the weights
        // have one, on its bandwidth-bound tiles without changing a bit.
        self.sync_twin();
        let twin = self.twin.image().is_some().then_some(&self.twin);
        backend.matmul_bt_bias_twin_into(
            input,
            self.weights.data(),
            twin,
            Some(self.bias.data()),
            out,
            batch,
            self.in_dim,
            self.out_dim,
        );
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            // lint:allow(panic-in-lib, reason = "Layer contract: backward requires a prior forward; a missing cache is a trainer bug, not user input")
            .expect("backward called before forward");
        debug_assert_eq!(grad_out.dims()[0], input.dims()[0]);
        debug_assert_eq!(grad_out.dims()[1], self.out_dim);
        // dW = dYᵀ·X  (out × in), accumulated.
        let dw = grad_out.matmul_at(input);
        self.grad_w.add_assign(&dw);
        // db = column sums of dY.
        let db = grad_out.sum_rows();
        self.grad_b.add_assign(&db);
        // dX = dY·W  (n × in).
        grad_out.matmul(&self.weights)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.twin_stale = true;
        vec![
            (&mut self.weights, &mut self.grad_w),
            (&mut self.bias, &mut self.grad_b),
        ]
    }

    fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.twin_stale = true;
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weights, &self.bias]
    }

    fn zero_grads(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn flops_per_sample(&self) -> u64 {
        // out·in multiplies + out·in adds + out bias adds.
        (2 * self.in_dim * self.out_dim + self.out_dim) as u64
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::rng_from_seed;

    fn finite_diff_check(
        layer: &mut Dense,
        input: &Tensor,
        param_idx: usize,
        elem: usize,
    ) -> (f32, f32) {
        // Analytic gradient of L = sum(y) wrt one parameter element, compared
        // against central finite differences.
        let n_out = {
            let out = layer.forward(input, true);
            out.len()
        };
        let grad_out = Tensor::ones(&[input.dims()[0], layer.out_dim()]);
        layer.zero_grads();
        let _ = layer.forward(input, true);
        let _ = layer.backward(&grad_out);
        let analytic = {
            let pg = layer.params_and_grads();
            pg[param_idx].1.data()[elem]
        };
        let eps = 1e-3;
        let eval = |layer: &mut Dense, delta: f32, elem: usize, idx: usize| -> f32 {
            {
                let mut pg = layer.params_and_grads();
                pg[idx].0.data_mut()[elem] += delta;
            }
            let out = layer.forward(input, true);
            let s = out.sum();
            {
                let mut pg = layer.params_and_grads();
                pg[idx].0.data_mut()[elem] -= delta;
            }
            s
        };
        let plus = eval(layer, eps, elem, param_idx);
        let minus = eval(layer, -eps, elem, param_idx);
        let numeric = (plus - minus) / (2.0 * eps);
        let _ = n_out;
        (analytic, numeric)
    }

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_slice(&[0.0, 10.0, 100.0]);
        let mut d = Dense::from_params(w, b);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), &[2.0, 13.0, 105.0]);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(11);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        for elem in [0, 5, 11] {
            let (a, n) = finite_diff_check(&mut d, &x, 0, elem);
            assert!((a - n).abs() < 1e-2, "weight grad {a} vs numeric {n}");
        }
    }

    #[test]
    fn bias_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(12);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        for elem in 0..3 {
            let (a, n) = finite_diff_check(&mut d, &x, 1, elem);
            assert!((a - n).abs() < 1e-2, "bias grad {a} vs numeric {n}");
        }
    }

    #[test]
    fn input_gradient_is_dy_times_w() {
        let mut rng = rng_from_seed(13);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let _ = d.forward(&x, true);
        let dy = Tensor::rand_uniform(&[4, 2], -1.0, 1.0, &mut rng);
        let dx = d.backward(&dy);
        let expect = dy.matmul(d.weights());
        assert!(dx.allclose(&expect, 1e-5));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = rng_from_seed(14);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let dy = Tensor::ones(&[1, 2]);
        let _ = d.forward(&x, true);
        let _ = d.backward(&dy);
        let g1 = d.params_and_grads()[0].1.clone();
        let _ = d.forward(&x, true);
        let _ = d.backward(&dy);
        let g2 = d.params_and_grads()[0].1.clone();
        assert!(g2.allclose(&g1.scale(2.0), 1e-6), "grads must accumulate");
        d.zero_grads();
        assert_eq!(d.params_and_grads()[0].1.sum(), 0.0);
    }

    #[test]
    fn flops_and_spec() {
        let mut rng = rng_from_seed(15);
        let d = Dense::new(784, 512, &mut rng);
        assert_eq!(d.flops_per_sample(), (2 * 784 * 512 + 512) as u64);
        assert_eq!(
            d.spec(),
            LayerSpec::Dense {
                in_dim: 784,
                out_dim: 512
            }
        );
        assert_eq!(d.param_count(), 784 * 512 + 512);
        assert_eq!(d.in_dim(), 784);
        assert_eq!(d.out_dim(), 512);
        assert_eq!(d.name(), "dense");
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = rng_from_seed(16);
        let mut d = Dense::new(2, 2, &mut rng);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
    }
}
