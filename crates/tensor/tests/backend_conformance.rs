//! Kernel-level conformance between the scalar and SIMD compute backends.
//!
//! Two classes of guarantee, both stated in the `tensor::backend` docs:
//!
//! * **Bit-identical** kernels — `matmul_into`, `matmul_at_into`,
//!   `conv2d_batch_into` wiring (same operation order in both backends; the
//!   SIMD variants use separate multiply/add, no FMA) and the elementwise
//!   family (`relu_into` up to the sign of zero; sigmoid/tanh/softmax/
//!   unary_map delegate to the shared scalar kernels). Pinned with
//!   `assert_eq!` on the raw bits over ragged proptest shapes that exercise
//!   every masked-tail lane count.
//! * **Documented-reduction-order** kernels — `dot`, `matmul_bt_into`,
//!   `matmul_bt_bias_into`, `matvec_into` use 8-lane FMA accumulation on
//!   SIMD versus the scalar 4-lane separate-multiply/add contract, so the
//!   backends agree only to a relative tolerance. The tolerance is
//!   *principled*: each backend's exact accumulation order is modelled here
//!   in safe code (`f32::mul_add` matches FMA's single rounding) and pinned
//!   **bitwise**, so the cross-backend tolerance covers reduction-order
//!   divergence only — never an implementation bug.
//!
//! On hosts without AVX2+FMA, `Backend::simd()` is `None` and the SIMD side
//! degrades to the scalar kernels, making every check trivially exact — the
//! suite stays green (graceful-fallback acceptance criterion).

use proptest::prelude::*;
use tensor::backend::Backend;
use tensor::random::rng_from_seed;
use tensor::Tensor;

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    Tensor::rand_uniform(&[len.max(1)], -2.0, 2.0, &mut rng).into_vec()[..len].to_vec()
}

/// The SIMD backend handle when the CPU has AVX2+FMA, else scalar — mirrors
/// what `Backend::auto()` hands a plan, and keeps every test meaningful
/// (exact) on non-AVX2 hosts.
fn simd_or_scalar() -> Backend {
    Backend::simd().unwrap_or_else(Backend::scalar)
}

/// Relative-or-absolute agreement bound for dot-family kernels. The two
/// reduction orders differ in rounding sequence, not magnitude: for the
/// ≤ 1k-element reductions generated here, a handful of ULPs scaled by the
/// accumulated magnitude is ample headroom while still catching any indexing
/// or masking bug (those produce O(1) errors, not O(ε)).
fn close(a: f32, b: f32) -> bool {
    let diff = (a - b).abs();
    diff <= 1e-4 + 1e-4 * a.abs().max(b.abs())
}

/// Safe scalar model of the **scalar** backend's documented `dot` contract:
/// 4 round-robin lanes of separate multiply-then-add, combined
/// `((l0+l1)+l2)+l3`, then sequential tail adds.
fn model_scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        for l in 0..4 {
            acc[l] += a[i * 4 + l] * b[i * 4 + l];
        }
    }
    let mut s = ((acc[0] + acc[1]) + acc[2]) + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Safe scalar model of the **SIMD** backend's documented `dot` contract:
/// 8 round-robin FMA lanes (`f32::mul_add` = one rounding, exactly the
/// `vfmadd` lane semantics), a masked-tail `mul_add(0, 0, lane)` step when
/// `len % 8 != 0`, and the fixed combine tree
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
fn model_simd_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        lanes[i % 8] = x.mul_add(y, lanes[i % 8]);
    }
    if !a.len().is_multiple_of(8) {
        for lane in lanes.iter_mut() {
            *lane = 0.0f32.mul_add(0.0, *lane);
        }
    }
    ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
}

// ---------------------------------------------------------------------------
// Reduction-order contracts, pinned bitwise (the "small fix" satellite: the
// cross-backend tolerance is derived from these exact orders, not ad hoc).
// ---------------------------------------------------------------------------

#[test]
fn scalar_dot_contract_is_bitwise_exact() {
    for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 23, 100, 783, 784] {
        let a = rand_vec(len, 0x5ca1a + len as u64);
        let b = rand_vec(len, 0xb0b + len as u64);
        let got = Backend::scalar().dot(&a, &b);
        assert_eq!(
            got.to_bits(),
            model_scalar_dot(&a, &b).to_bits(),
            "scalar dot reduction order drifted at len {len}"
        );
    }
}

#[test]
fn simd_dot_contract_is_bitwise_exact() {
    let Some(simd) = Backend::simd() else {
        return; // no AVX2+FMA: nothing to pin, fallback covered elsewhere
    };
    for len in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 64, 100, 783, 784] {
        let a = rand_vec(len, 0xd07 + len as u64);
        let b = rand_vec(len, 0xfee + len as u64);
        let got = simd.dot(&a, &b);
        assert_eq!(
            got.to_bits(),
            model_simd_dot(&a, &b).to_bits(),
            "SIMD dot reduction order drifted at len {len}"
        );
    }
}

// ---------------------------------------------------------------------------
// Every SIMD dot-family output is one `simd::dot`, pinned bitwise. The SIMD
// kernels compute outputs in register tiles (4×3, 4×1, 1×4, 1×1), so shapes
// straddle those tile sizes, the 8-lane tail, the resident-budget loop-order
// switch and the layer widths the models use (25 = 5×5 conv patch, 783/784
// = the autoencoder).
// ---------------------------------------------------------------------------

/// Reduction lengths that hit each tail lane count and every model's width.
const K_CHOICES: [usize; 8] = [1, 7, 8, 9, 25, 200, 783, 784];

/// Check `matmul_bt_into`, `matmul_bt_bias_into` and `matvec_into` of the
/// SIMD backend against one `simd::dot` per output, bit for bit.
#[cfg(target_arch = "x86_64")]
fn check_dot_family_bitwise(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    use tensor::backend::simd::dot;
    let simd = simd_or_scalar();
    let a = rand_vec(m * k, seed);
    let b = rand_vec(n * k, seed ^ 1);
    let bias = rand_vec(n, seed ^ 2);
    fn row(x: &[f32], r: usize, k: usize) -> &[f32] {
        &x[r * k..(r + 1) * k]
    }

    let mut c = vec![f32::NAN; m * n];
    simd.matmul_bt_into(&a, &b, &mut c, m, k, n);
    let mut cb = vec![f32::NAN; m * n];
    simd.matmul_bt_bias_into(&a, &b, Some(&bias), &mut cb, m, k, n);
    for i in 0..m {
        for j in 0..n {
            let d = dot(row(&a, i, k), row(&b, j, k));
            if c[i * n + j].to_bits() != d.to_bits() {
                return Err(format!(
                    "bt ({m},{k},{n}) [{i},{j}]: {} vs dot {d}",
                    c[i * n + j]
                ));
            }
            let want = d + bias[j];
            if cb[i * n + j].to_bits() != want.to_bits() {
                return Err(format!(
                    "bt_bias ({m},{k},{n}) [{i},{j}]: {} vs {want}",
                    cb[i * n + j]
                ));
            }
        }
    }

    // matvec_into: y = B·x with x = A's first row.
    let x = row(&a, 0, k);
    let mut y = vec![f32::NAN; n];
    simd.matvec_into(&b, x, &mut y, n, k);
    for (j, &v) in y.iter().enumerate() {
        let d = dot(row(&b, j, k), x);
        if v.to_bits() != d.to_bits() {
            return Err(format!("matvec ({n},{k}) [{j}]: {v} vs dot {d}"));
        }
    }
    Ok(())
}

/// Shapes with `m·n` above `PAR_THRESHOLD` (64·64), so under
/// `TENSOR_NUM_THREADS=2` the row split hands each worker part of the
/// output; one keeps the j-outer schedule per worker, one falls back to
/// i-outer.
#[cfg(target_arch = "x86_64")]
#[test]
fn dot_family_above_par_threshold_is_bitwise_simd_dot() {
    for (m, k, n, seed) in [(67, 784, 71, 11), (130, 25, 40, 12), (33, 9, 130, 13)] {
        check_dot_family_bitwise(m, k, n, seed).unwrap();
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_family_outputs_are_bitwise_simd_dot(
        m in 1usize..=40,
        n in 1usize..=70,
        k_pick in 0usize..12,
        k_rand in 1usize..300,
        seed in 0u64..1000,
    ) {
        let k = K_CHOICES.get(k_pick).copied().unwrap_or(k_rand);
        if let Err(msg) = check_dot_family_bitwise(m, k, n, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn conv2d_outputs_are_bitwise_im2col_simd_dot(
        batch in 1usize..4,
        in_channels in 1usize..4,
        side in 4usize..15,
        kk in 1usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        out_channels in 1usize..10,
        seed in 0u64..1000,
    ) {
        use tensor::backend::simd::dot;
        use tensor::conv::{conv2d_scratch_floats, im2col, Conv2dGeom};
        let g = Conv2dGeom { in_channels, in_h: side, in_w: side, k_h: kk, k_w: kk, stride, pad };
        prop_assume!(g.validate().is_ok());
        let (p, k) = (g.patch_rows(), g.patch_cols());
        let in_f = in_channels * side * side;
        let out_f = out_channels * p;
        let input = rand_vec(batch * in_f, seed);
        let weights = rand_vec(out_channels * k, seed ^ 1);
        let bias = rand_vec(out_channels, seed ^ 2);
        let mut scratch = vec![0.0f32; conv2d_scratch_floats(&g, batch)];
        let mut out = vec![f32::NAN; batch * out_f];
        simd_or_scalar().conv2d_batch_into(
            &input, &weights, &bias, &g, out_channels, batch, &mut out, &mut scratch,
        );

        let mut patches = vec![0.0f32; p * k];
        for s in 0..batch {
            im2col(&input[s * in_f..(s + 1) * in_f], &g, &mut patches);
            for o in 0..out_channels {
                for q in 0..p {
                    let want = dot(&weights[o * k..(o + 1) * k], &patches[q * k..(q + 1) * k])
                        + bias[o];
                    let got = out[s * out_f + o * p + q];
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "conv sample {} channel {} patch {}: {} vs {}", s, o, q, got, want);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ragged-shape proptests. Dimension ranges deliberately straddle multiples
// of 8 (and 4, the register-block width) so the masked tail paths and the
// block-remainder loops are both exercised.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dot_family_agrees_to_documented_tolerance(
        m in 1usize..18,
        k in 1usize..70,
        n in 1usize..18,
        seed in 0u64..1000,
    ) {
        let simd = simd_or_scalar();
        let scalar = Backend::scalar();
        let a = rand_vec(m * k, seed);
        let b = rand_vec(n * k, seed ^ 1);
        let bias = rand_vec(n, seed ^ 2);

        // dot: both backends against their own bitwise model, and each other.
        let (ar, br) = (&a[..k], &b[..k]);
        prop_assert_eq!(scalar.dot(ar, br).to_bits(), model_scalar_dot(ar, br).to_bits());
        prop_assert_eq!(simd.dot(ar, br).to_bits(),
            if Backend::simd().is_some() { model_simd_dot(ar, br) } else { model_scalar_dot(ar, br) }.to_bits());
        prop_assert!(close(scalar.dot(ar, br), simd.dot(ar, br)));

        // matmul_bt_into + matmul_bt_bias_into: per-element tolerance.
        let mut cs = vec![0.0f32; m * n];
        let mut cv = vec![0.0f32; m * n];
        scalar.matmul_bt_into(&a, &b, &mut cs, m, k, n);
        simd.matmul_bt_into(&a, &b, &mut cv, m, k, n);
        for (i, (&x, &y)) in cs.iter().zip(&cv).enumerate() {
            prop_assert!(close(x, y), "bt[{}]: {} vs {}", i, x, y);
        }
        scalar.matmul_bt_bias_into(&a, &b, Some(&bias), &mut cs, m, k, n);
        simd.matmul_bt_bias_into(&a, &b, Some(&bias), &mut cv, m, k, n);
        for (i, (&x, &y)) in cs.iter().zip(&cv).enumerate() {
            prop_assert!(close(x, y), "bt_bias[{}]: {} vs {}", i, x, y);
        }

        // matvec_into: y = A·x with A = b (n×k), x = first row of a.
        let mut ys = vec![0.0f32; n];
        let mut yv = vec![0.0f32; n];
        scalar.matvec_into(&b, &a[..k], &mut ys, n, k);
        simd.matvec_into(&b, &a[..k], &mut yv, n, k);
        for (i, (&x, &y)) in ys.iter().zip(&yv).enumerate() {
            prop_assert!(close(x, y), "matvec[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn same_order_kernels_are_bit_identical(
        m in 1usize..14,
        k in 1usize..34,
        n in 1usize..34,
        seed in 0u64..1000,
    ) {
        let simd = simd_or_scalar();
        let scalar = Backend::scalar();
        let a = rand_vec(m * k, seed);
        let b = rand_vec(k * n, seed ^ 3);

        // matmul_into: separate multiply/add in both backends, zero-skip
        // preserved → identical bits.
        let mut cs = vec![0.0f32; m * n];
        let mut cv = vec![0.0f32; m * n];
        scalar.matmul_into(&a, &b, &mut cs, m, k, n);
        simd.matmul_into(&a, &b, &mut cv, m, k, n);
        prop_assert_eq!(&cs, &cv);

        // matmul_at_into: rank-1 update sweeps, same order. A is (k×m) here.
        let mut ds = vec![0.0f32; m * n];
        let mut dv = vec![0.0f32; m * n];
        scalar.matmul_at_into(&a, &b, &mut ds, m, k, n);
        simd.matmul_at_into(&a, &b, &mut dv, m, k, n);
        prop_assert_eq!(&ds, &dv);
    }

    #[test]
    fn elementwise_family_is_bit_identical(
        len in 1usize..600,
        cols in 1usize..20,
        seed in 0u64..1000,
    ) {
        let simd = simd_or_scalar();
        let scalar = Backend::scalar();
        let mut x = rand_vec(len, seed);
        // Plant exact zeros and a -0.0 to exercise the relu sign-of-zero
        // caveat and the zero-skip interplay.
        x[0] = 0.0;
        if len > 1 {
            x[1] = -0.0;
        }

        let mut os = vec![0.0f32; len];
        let mut ov = vec![0.0f32; len];
        scalar.relu_into(&x, &mut os);
        simd.relu_into(&x, &mut ov);
        for (i, (&a, &b)) in os.iter().zip(&ov).enumerate() {
            // Documented caveat: SIMD maps -0.0 → +0.0; otherwise exact bits.
            let same = a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
            prop_assert!(same, "relu[{}]: {:?} vs {:?}", i, a, b);
        }

        scalar.sigmoid_into(&x, &mut os);
        simd.sigmoid_into(&x, &mut ov);
        prop_assert_eq!(&os, &ov);

        scalar.tanh_into(&x, &mut os);
        simd.tanh_into(&x, &mut ov);
        prop_assert_eq!(&os, &ov);

        let rows = len / cols;
        if rows > 0 {
            let flat = rows * cols;
            scalar.softmax_rows_into(&x[..flat], &mut os[..flat], cols);
            simd.softmax_rows_into(&x[..flat], &mut ov[..flat], cols);
            prop_assert_eq!(&os[..flat], &ov[..flat]);
        }

        let f = |v: f32| v * 0.5 + 1.0;
        scalar.unary_map_into(&x, &mut os, &f);
        simd.unary_map_into(&x, &mut ov, &f);
        prop_assert_eq!(&os, &ov);
    }

    #[test]
    fn conv2d_agrees_to_documented_tolerance(
        batch in 1usize..5,
        in_channels in 1usize..3,
        side in 4usize..9,
        kk in 1usize..4,
        out_channels in 1usize..4,
        seed in 0u64..1000,
    ) {
        use tensor::conv::{conv2d_scratch_floats, Conv2dGeom};
        let g = Conv2dGeom {
            in_channels,
            in_h: side,
            in_w: side,
            k_h: kk,
            k_w: kk,
            stride: 1,
            pad: 0,
        };
        prop_assume!(g.validate().is_ok());
        let simd = simd_or_scalar();
        let scalar = Backend::scalar();
        let in_f = in_channels * side * side;
        let out_f = out_channels * g.patch_rows();
        let input = rand_vec(batch * in_f, seed);
        let weights = rand_vec(out_channels * g.patch_cols(), seed ^ 1);
        let bias = rand_vec(out_channels, seed ^ 2);
        let mut scratch = vec![0.0f32; conv2d_scratch_floats(&g, batch)];

        let mut os = vec![0.0f32; batch * out_f];
        let mut ov = vec![0.0f32; batch * out_f];
        scalar.conv2d_batch_into(&input, &weights, &bias, &g, out_channels, batch, &mut os, &mut scratch);
        simd.conv2d_batch_into(&input, &weights, &bias, &g, out_channels, batch, &mut ov, &mut scratch);
        // The im2col product is a bt (dot-family) kernel → tolerance.
        for (i, (&x, &y)) in os.iter().zip(&ov).enumerate() {
            prop_assert!(close(x, y), "conv[{}]: {} vs {}", i, x, y);
        }
    }
}
