//! Pluggable compute backends for the hot `_into` kernel set.
//!
//! Every FLOP in the planned forward path flows through a handful of slice
//! kernels (`matmul_bt_bias_into`, `conv2d_batch_into`, the elementwise
//! family, …). This module makes that choke point pluggable: the
//! [`ComputeBackend`] trait covers the kernel surface, [`ScalarBackend`]
//! is the existing portable implementation (the reference the conformance
//! suites pin against), and [`SimdBackend`] swaps the dense kernels for
//! explicit AVX2+FMA microkernels (see [`simd`]). Future backends (int8,
//! GPU offload) slot in behind the same trait: add a unit struct, a
//! [`BackendKind`] variant, and an arm in the private `Backend::imp`
//! dispatch table.
//!
//! # Selection
//!
//! [`Backend::resolve`] picks the backend once, in priority order:
//!
//! 1. A process-wide programmatic override ([`set_override`]) — used by
//!    tests and the bench sweep, immune to env-var races between threads.
//! 2. The `CBNET_BACKEND` environment variable (read once per process):
//!    `scalar`, `simd`, or `auto` (anything else falls back to `auto`).
//! 3. `auto` — SIMD when the CPU supports AVX2+FMA, scalar otherwise.
//!
//! Requesting `simd` on a CPU without AVX2+FMA degrades gracefully: the
//! handle still reports [`BackendKind::Simd`] but every wrapper in [`simd`]
//! detects the missing features and takes the scalar path, so results stay
//! correct everywhere.
//!
//! `nn::ForwardPlan` resolves its backend at construction and holds the
//! [`Backend`] handle by value — dispatch is a two-variant enum match onto
//! `&'static` unit structs, so the per-call path allocates nothing and boxes
//! nothing. `Network::predict_planned` rebuilds its cached plan when the
//! resolved backend changes, which is how `CBNET_BACKEND` reaches the five
//! comparator adapters and the serving/fleet empirical profiles without any
//! adapter code knowing backends exist.
//!
//! # Unsafe policy
//!
//! The workspace is `forbid(unsafe_code)` except this crate, which is
//! `deny(unsafe_code)` with a scoped `allow` on [`simd`] only. Every
//! `unsafe` block there carries a `// SAFETY:` comment; the `unsafe-audit`
//! cbnet-lint rule fails the build otherwise. The unsafety is confined to
//! executing AVX2/FMA instructions behind a runtime feature check — no raw
//! pointers cross a function boundary.
//!
//! # Reduction-order contracts
//!
//! Scalar `dot` (see [`crate::matmul::dot`]): 4 round-robin lanes of
//! separate multiply-then-add, combined `((l0+l1)+l2)+l3`, sequential tail.
//! SIMD `dot` (see [`simd`]): 8 round-robin FMA lanes, masked-tail
//! `fma(0,0,lane)`, combined `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
//! Both are pinned bitwise by `crates/tensor/tests/backend_conformance.rs`;
//! the difference is why dot-family kernels agree across backends only to a
//! documented ULP-scale tolerance, while `matmul_into`/`matmul_at_into`/
//! `relu_into` (same operation order in both backends) are bit-identical.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::conv::Conv2dGeom;
use crate::half::F16Twin;

#[cfg(target_arch = "x86_64")]
pub mod simd;

/// The kernel surface a compute backend must provide.
///
/// Object-safe on purpose: [`Backend`] dispatches through a `&'static dyn
/// ComputeBackend` resolved from a two-variant enum, and future backends
/// (int8, GPU) implement this same trait. All `_into` methods follow the
/// workspace buffer contract — the output slice is caller-owned and fully
/// overwritten, scratch is caller-owned, nothing allocates.
pub trait ComputeBackend: Sync {
    /// Short stable identifier (`"scalar"`, `"simd"`) used in bench output
    /// and reports.
    fn name(&self) -> &'static str;

    /// Dot product of two equal-length slices (this backend's documented
    /// reduction order — see the module docs).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `C = A·B`; `c` is the caller-owned output, fully overwritten.
    fn matmul_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `C = A·Bᵀ`; `c` is the caller-owned output, fully overwritten.
    fn matmul_bt_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `C = A·Bᵀ (+ bias broadcast)`; `c` is the caller-owned output, fully
    /// overwritten. The planned dense-layer kernel.
    #[allow(clippy::too_many_arguments)]
    fn matmul_bt_bias_into(
        &self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    );

    /// [`ComputeBackend::matmul_bt_bias_into`] with an optional
    /// [`F16Twin`] of `B`, which must be its exact image; `c` is the
    /// caller-owned output, fully overwritten. A backend may stream the
    /// twin's 16 bits instead of `B`'s 32 only where the outputs stay
    /// bitwise the same; the default ignores it.
    #[allow(clippy::too_many_arguments)]
    fn matmul_bt_bias_twin_into(
        &self,
        a: &[f32],
        b: &[f32],
        twin: Option<&F16Twin>,
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(
            twin.is_none_or(|t| t.is_image_of(b)),
            "the f16 twin does not widen back to B: it is stale"
        );
        self.matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }

    /// `C = Aᵀ·B`; `c` is the caller-owned output, fully overwritten.
    fn matmul_at_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `y = A·x`; `y` is the caller-owned output, fully overwritten.
    fn matvec_into(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize);

    /// Batched im2col convolution; `out` is the caller-owned output, fully
    /// overwritten, `scratch` holds per-worker patch matrices (size from
    /// [`crate::conv::conv2d_scratch_floats`]).
    #[allow(clippy::too_many_arguments)]
    fn conv2d_batch_into(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: &Conv2dGeom,
        out_channels: usize,
        batch: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    );

    /// `out = max(input, 0)` elementwise into the caller-owned `out`.
    fn relu_into(&self, input: &[f32], out: &mut [f32]);

    /// `out = sigmoid(input)` elementwise into the caller-owned `out`.
    fn sigmoid_into(&self, input: &[f32], out: &mut [f32]);

    /// `out = tanh(input)` elementwise into the caller-owned `out`.
    fn tanh_into(&self, input: &[f32], out: &mut [f32]);

    /// Row-wise softmax over a `(rows, cols)` matrix into the caller-owned
    /// `out`.
    fn softmax_rows_into(&self, input: &[f32], out: &mut [f32], cols: usize);

    /// Apply `f` elementwise from `input` into the caller-owned `out`.
    fn unary_map_into(&self, input: &[f32], out: &mut [f32], f: &(dyn Fn(f32) -> f32 + Sync));
}

/// The portable reference backend: delegates to the existing scalar kernels
/// in [`crate::matmul`], [`crate::ops`] and [`crate::conv`]. This is the
/// implementation every conformance suite pins against.
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        crate::matmul::dot(a, b)
    }

    fn matmul_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::matmul::matmul_into(a, b, c, m, k, n);
    }

    fn matmul_bt_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::matmul::matmul_bt_into(a, b, c, m, k, n);
    }

    fn matmul_bt_bias_into(
        &self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        crate::matmul::matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }

    fn matmul_at_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::matmul::matmul_at_into(a, b, c, m, k, n);
    }

    fn matvec_into(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
        crate::matmul::matvec_into(a, x, y, m, n);
    }

    fn conv2d_batch_into(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: &Conv2dGeom,
        out_channels: usize,
        batch: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        crate::conv::conv2d_batch_into(input, weights, bias, g, out_channels, batch, out, scratch);
    }

    fn relu_into(&self, input: &[f32], out: &mut [f32]) {
        crate::ops::relu_into(input, out);
    }

    fn sigmoid_into(&self, input: &[f32], out: &mut [f32]) {
        crate::ops::sigmoid_into(input, out);
    }

    fn tanh_into(&self, input: &[f32], out: &mut [f32]) {
        crate::ops::tanh_into(input, out);
    }

    fn softmax_rows_into(&self, input: &[f32], out: &mut [f32], cols: usize) {
        crate::ops::softmax_rows_into(input, out, cols);
    }

    fn unary_map_into(&self, input: &[f32], out: &mut [f32], f: &(dyn Fn(f32) -> f32 + Sync)) {
        crate::ops::unary_map_into(input, out, f);
    }
}

/// The explicit AVX2+FMA backend: dense and relu kernels route to the
/// [`simd`] microkernels (which themselves fall back to scalar when the CPU
/// lacks the features); transcendental elementwise kernels and softmax stay
/// scalar — they are `exp`/`tanh`-bound, not load-bound, and keeping them
/// shared keeps those outputs bit-identical across backends.
#[cfg(target_arch = "x86_64")]
pub struct SimdBackend;

#[cfg(target_arch = "x86_64")]
impl ComputeBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        simd::dot(a, b)
    }

    fn matmul_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        simd::matmul_into(a, b, c, m, k, n);
    }

    fn matmul_bt_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        simd::matmul_bt_into(a, b, c, m, k, n);
    }

    fn matmul_bt_bias_into(
        &self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        simd::matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }

    fn matmul_bt_bias_twin_into(
        &self,
        a: &[f32],
        b: &[f32],
        twin: Option<&F16Twin>,
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        simd::matmul_bt_bias_twin_into(a, b, twin, bias, c, m, k, n);
    }

    fn matmul_at_into(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        simd::matmul_at_into(a, b, c, m, k, n);
    }

    fn matvec_into(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
        simd::matvec_into(a, x, y, m, n);
    }

    fn conv2d_batch_into(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: &Conv2dGeom,
        out_channels: usize,
        batch: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        // Same batching/threading shell as scalar; only the inner im2col
        // product changes kernel.
        crate::conv::conv2d_batch_into_with(
            input,
            weights,
            bias,
            g,
            out_channels,
            batch,
            out,
            scratch,
            simd::matmul_bt_into,
        );
    }

    fn relu_into(&self, input: &[f32], out: &mut [f32]) {
        simd::relu_into(input, out);
    }

    fn sigmoid_into(&self, input: &[f32], out: &mut [f32]) {
        crate::ops::sigmoid_into(input, out);
    }

    fn tanh_into(&self, input: &[f32], out: &mut [f32]) {
        crate::ops::tanh_into(input, out);
    }

    fn softmax_rows_into(&self, input: &[f32], out: &mut [f32], cols: usize) {
        crate::ops::softmax_rows_into(input, out, cols);
    }

    fn unary_map_into(&self, input: &[f32], out: &mut [f32], f: &(dyn Fn(f32) -> f32 + Sync)) {
        crate::ops::unary_map_into(input, out, f);
    }
}

/// Which kernel set a [`Backend`] handle dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Portable scalar kernels (the conformance reference).
    Scalar,
    /// Explicit AVX2+FMA kernels; falls back to scalar per-call on CPUs
    /// without those features.
    Simd,
}

static SCALAR: ScalarBackend = ScalarBackend;
#[cfg(target_arch = "x86_64")]
static SIMD: SimdBackend = SimdBackend;

/// Programmatic backend override state: 0 = none, 1 = scalar, 2 = simd.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force every subsequent [`Backend::resolve`] in this process to return
/// `kind`, regardless of `CBNET_BACKEND`. Tests and the bench sweep use this
/// instead of mutating the environment, which would race between threads.
pub fn set_override(kind: BackendKind) {
    OVERRIDE.store(
        match kind {
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        },
        Ordering::SeqCst,
    );
}

/// Clear a [`set_override`], returning [`Backend::resolve`] to env/auto
/// selection.
pub fn clear_override() {
    OVERRIDE.store(0, Ordering::SeqCst);
}

/// `CBNET_BACKEND` parsed once per process: `Some(kind)` for an explicit
/// `scalar`/`simd`, `None` for `auto`, unset, or unrecognised values.
fn env_choice() -> Option<BackendKind> {
    static CHOICE: OnceLock<Option<BackendKind>> = OnceLock::new();
    *CHOICE.get_or_init(|| match std::env::var("CBNET_BACKEND") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => Some(BackendKind::Scalar),
        Ok(v) if v.eq_ignore_ascii_case("simd") => Some(BackendKind::Simd),
        _ => None,
    })
}

/// A resolved, `Copy` compute-backend handle.
///
/// This is what `nn::ForwardPlan` stores: selection happens once (at plan
/// construction), after which every kernel call is an enum match onto a
/// `&'static` unit struct — no allocation, no boxed vtable on the per-call
/// path. The inherent methods mirror the [`ComputeBackend`] surface so
/// callers never touch the trait object directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    kind: BackendKind,
}

impl Backend {
    /// The portable scalar backend (always available).
    pub fn scalar() -> Backend {
        Backend {
            kind: BackendKind::Scalar,
        }
    }

    /// The SIMD backend, or `None` when the CPU (or target arch) lacks
    /// AVX2+FMA. Use [`Backend::auto`] for pick-best-available.
    pub fn simd() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        {
            if simd::available() {
                return Some(Backend {
                    kind: BackendKind::Simd,
                });
            }
        }
        None
    }

    /// Best available backend: SIMD when the CPU supports AVX2+FMA, scalar
    /// otherwise.
    pub fn auto() -> Backend {
        Backend::simd().unwrap_or_else(Backend::scalar)
    }

    /// Resolve the process-wide backend selection (override, then
    /// `CBNET_BACKEND`, then auto-detection — see the module docs).
    pub fn resolve() -> Backend {
        match OVERRIDE.load(Ordering::SeqCst) {
            1 => return Backend::scalar(),
            2 => {
                return Backend {
                    kind: BackendKind::Simd,
                }
            }
            _ => {}
        }
        match env_choice() {
            Some(BackendKind::Scalar) => Backend::scalar(),
            // Explicit `simd` keeps the kind even without AVX2 — the simd
            // wrappers degrade to scalar per-call, so this stays correct.
            Some(BackendKind::Simd) => Backend {
                kind: BackendKind::Simd,
            },
            None => Backend::auto(),
        }
    }

    /// Which kernel set this handle dispatches to.
    pub fn kind(self) -> BackendKind {
        self.kind
    }

    /// Short stable identifier (`"scalar"` / `"simd"`).
    pub fn name(self) -> &'static str {
        self.imp().name()
    }

    /// The static implementation behind this handle. On non-x86-64 targets
    /// the Simd kind resolves to the scalar implementation.
    fn imp(self) -> &'static dyn ComputeBackend {
        match self.kind {
            BackendKind::Scalar => &SCALAR,
            #[cfg(target_arch = "x86_64")]
            BackendKind::Simd => &SIMD,
            #[cfg(not(target_arch = "x86_64"))]
            BackendKind::Simd => &SCALAR,
        }
    }

    /// Dot product in this backend's documented reduction order.
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        self.imp().dot(a, b)
    }

    /// `C = A·B`; `c` is the caller-owned output, fully overwritten.
    pub fn matmul_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        self.imp().matmul_into(a, b, c, m, k, n);
    }

    /// `C = A·Bᵀ`; `c` is the caller-owned output, fully overwritten.
    pub fn matmul_bt_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        self.imp().matmul_bt_into(a, b, c, m, k, n);
    }

    /// `C = A·Bᵀ (+ bias)`; `c` is the caller-owned output, fully
    /// overwritten.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bt_bias_into(
        self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.imp().matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }

    /// [`Backend::matmul_bt_bias_into`] with an optional [`F16Twin`] of
    /// `B`; `c` is the caller-owned output, fully overwritten. The twin
    /// must be the exact image of `b` — a `debug_assert` checks that it
    /// widens back to `b`, so a stale twin fails in tests. On the SIMD
    /// backend with F16C, when `m % 4 != 0`, the leftover-row tiles (batch
    /// 1–3, the last `m % 4` rows of a batch) stream the twin's 16-bit rows
    /// and widen them in registers; elsewhere the twin is ignored. Either way every
    /// output is bitwise that of [`Backend::matmul_bt_bias_into`]: the twin
    /// changes the bytes moved, never the bits.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bt_bias_twin_into(
        self,
        a: &[f32],
        b: &[f32],
        twin: Option<&F16Twin>,
        bias: Option<&[f32]>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.imp()
            .matmul_bt_bias_twin_into(a, b, twin, bias, c, m, k, n);
    }

    /// `C = Aᵀ·B`; `c` is the caller-owned output, fully overwritten.
    pub fn matmul_at_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        self.imp().matmul_at_into(a, b, c, m, k, n);
    }

    /// `y = A·x`; `y` is the caller-owned output, fully overwritten.
    pub fn matvec_into(self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
        self.imp().matvec_into(a, x, y, m, n);
    }

    /// Batched im2col convolution; `out` is fully overwritten, `scratch`
    /// holds the per-worker patch matrices.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_batch_into(
        self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: &Conv2dGeom,
        out_channels: usize,
        batch: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        self.imp()
            .conv2d_batch_into(input, weights, bias, g, out_channels, batch, out, scratch);
    }

    /// `out = max(input, 0)` into the caller-owned `out`.
    pub fn relu_into(self, input: &[f32], out: &mut [f32]) {
        self.imp().relu_into(input, out);
    }

    /// `out = sigmoid(input)` into the caller-owned `out`.
    pub fn sigmoid_into(self, input: &[f32], out: &mut [f32]) {
        self.imp().sigmoid_into(input, out);
    }

    /// `out = tanh(input)` into the caller-owned `out`.
    pub fn tanh_into(self, input: &[f32], out: &mut [f32]) {
        self.imp().tanh_into(input, out);
    }

    /// Row-wise softmax into the caller-owned `out`.
    pub fn softmax_rows_into(self, input: &[f32], out: &mut [f32], cols: usize) {
        self.imp().softmax_rows_into(input, out, cols);
    }

    /// Apply `f` elementwise from `input` into the caller-owned `out`.
    pub fn unary_map_into(self, input: &[f32], out: &mut [f32], f: &(dyn Fn(f32) -> f32 + Sync)) {
        self.imp().unary_map_into(input, out, f);
    }
}

impl Default for Backend {
    /// The default handle is [`Backend::resolve`] — what a `ForwardPlan`
    /// gets when the caller expresses no preference.
    fn default() -> Backend {
        Backend::resolve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_backend_matches_free_kernels() {
        let be = Backend::scalar();
        assert_eq!(be.name(), "scalar");
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let b = [0.5f32, -1.0, 2.0, 0.25, 3.0];
        assert_eq!(be.dot(&a, &b), crate::matmul::dot(&a, &b));
        let mut out = [0.0f32; 5];
        be.relu_into(&[-1.0, 2.0, -3.0, 4.0, 0.0], &mut out);
        assert_eq!(out, [0.0, 2.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn auto_is_simd_when_available() {
        match Backend::simd() {
            Some(s) => {
                assert_eq!(Backend::auto(), s);
                assert_eq!(s.name(), "simd");
            }
            None => assert_eq!(Backend::auto(), Backend::scalar()),
        }
    }

    #[test]
    fn override_beats_env_and_auto() {
        set_override(BackendKind::Scalar);
        assert_eq!(Backend::resolve().kind(), BackendKind::Scalar);
        set_override(BackendKind::Simd);
        assert_eq!(Backend::resolve().kind(), BackendKind::Simd);
        clear_override();
    }

    #[test]
    fn handle_is_copy_and_comparable() {
        let a = Backend::scalar();
        let b = a;
        assert_eq!(a, b);
        if let Some(s) = Backend::simd() {
            assert_ne!(a, s);
        }
    }
}
