//! Explicit AVX2+FMA kernels — the workspace's one sanctioned `unsafe`
//! island (see `crates/tensor/src/lib.rs` for the demotion from
//! `forbid(unsafe_code)` and the `unsafe-audit` lint rule that polices it).
//!
//! Every function here is either a safe wrapper (feature-detects, falls back
//! to the scalar kernel when AVX2/FMA is absent, splits work across threads)
//! or a `#[target_feature(enable = "avx2,fma")] unsafe fn` microkernel. The
//! unsafety is narrow: executing AVX2/FMA instructions, which is undefined
//! behaviour only on CPUs without those features — so every wrapper gates on
//! [`available`] before entering an `unsafe` block, and every `unsafe` block
//! carries a `// SAFETY:` justification (enforced by `cbnet-lint`).
//! No raw-pointer arithmetic escapes a kernel: tails shorter than one
//! 8-lane vector go through `_mm256_maskload_ps`/`_mm256_maskstore_ps`,
//! which touch exactly the masked lanes, so all memory access stays inside
//! the argument slices.
//!
//! # The dot-family tile kernel
//!
//! [`matmul_bt_bias_into`] (every planned dense layer), [`matmul_bt_into`]
//! (the im2col product of every convolution), [`matvec_into`] and [`dot`]
//! run through one driver over one const-generic register-tile kernel. A
//! tile computes an `R×C` block of outputs on `R·C` independent 8-lane FMA
//! chains. The main 4×3 tile holds 12 accumulators plus 3 registers for the
//! B rows and 1 for the streamed A row, so each 8-element step issues 12
//! FMAs for 7 loads and keeps enough chains in flight to hide the FMA
//! latency. Leftover columns take 4×1 tiles; the last `rows % 4` rows
//! (batch 1, the remainder of a compacted batch) take 1×4 and 1×1 tiles.
//! The accumulators are reduced in registers, four at a time: a
//! `permute2f128`/`insertf128` add folds the 128-bit halves, then two
//! `shuffle`/`permute` adds finish the tree. Each output keeps exactly the
//! [`dot`] reduction order below, so the tiling changes speed, never bits.
//!
//! # The f16 twin tiles
//!
//! [`matmul_bt_bias_twin_into`] runs the same tiles with an optional
//! [`F16Twin`] of B: an exact f16 image of every B element, which only an
//! f16-exact B has (the exactness gate lives in the twin's type, and a
//! `debug_assert` checks the twin still widens back to B). A 4-row tile
//! loads each B vector once for four A rows from L1, so it is
//! compute-bound and stays on f32. A leftover-row tile (1×4, 1×1: batch
//! 1–3, and the last `rows % 4` rows of any batch) loads each B vector for
//! one A row, so at batch 1 a large layer is bound by streaming B from
//! L3. Those tiles read the twin instead, and `vcvtph2ps` widens each
//! 8-half vector in a register. Widening is exact and the FMA sequence is
//! unchanged, so the outputs are bitwise those of the f32 tiles for half
//! the B bytes. A batch of `4k` rows has no leftover rows and runs the f32
//! entry as is, and without F16C the twin is ignored.
//!
//! # Reduction-order contract (what is and isn't bit-identical)
//!
//! * [`dot`] — lane `l` of an 8-lane accumulator sums elements
//!   `l, l+8, l+16, …` with one **fused** multiply-add per element
//!   (`f32::mul_add` semantics: a single rounding). When `len % 8 != 0`, one
//!   final masked step adds `mul_add(0, 0, lane)` to every lane. Lanes then
//!   combine in the fixed tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
//!   This is a *different* rounding sequence from the scalar dot (4-lane,
//!   separate multiply and add), so dot-family kernels (`matmul_bt_into`,
//!   `matmul_bt_bias_into`, `matvec_into`) agree with scalar only to
//!   documented tolerance. `crates/tensor/tests/backend_conformance.rs`
//!   pins `dot` **bitwise** against a safe `f32::mul_add` model, and every
//!   output of the other three (and of the SIMD convolution) bitwise
//!   against one `dot`.
//! * [`matmul_into`] / [`matmul_at_into`] — vectorised over the unit-stride
//!   output dimension with *separate* multiply and add (no FMA), preserving
//!   the scalar kernels' per-element operation sequence exactly, including
//!   the `a == 0.0` row-skip: **bit-identical** to scalar.
//! * [`relu_into`] — `_mm256_max_ps(x, 0)`: bit-identical to scalar except
//!   that a `-0.0` input maps to `+0.0` (the scalar `f32::max` may keep the
//!   sign); conformance tests compare zeros sign-insensitively.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128, __m256, __m256i, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cvtph_ps,
    _mm256_cvtps_ph, _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_insertf128_ps, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps, _mm256_mul_ps,
    _mm256_permute2f128_ps, _mm256_permute_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_shuffle_ps, _mm256_storeu_ps, _mm_blend_ps, _mm_loadu_si128, _mm_storeu_ps,
    _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
};
use std::sync::OnceLock;

use crate::half::F16Twin;
use crate::matmul::{PAR_THRESHOLD, RESIDENT_BUDGET};
use crate::ops::ELEMWISE_PAR_THRESHOLD;
use crate::parallel::{max_threads, par_chunks_mut, par_row_chunks_mut};

/// True when the running CPU supports AVX2 and FMA (cached after the first
/// call). Every safe wrapper in this module consults this before touching an
/// intrinsic; when it is false they delegate to the scalar kernels.
pub fn available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// True when the running CPU supports F16C on top of AVX2 and FMA (cached
/// after the first call). The f16 twin tiles of
/// [`matmul_bt_bias_twin_into`] need it; without it the twin is ignored.
pub(crate) fn f16c_available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| available() && std::arch::is_x86_feature_detected!("f16c"))
}

/// `MASK_TABLE[r]` enables the first `r` of 8 lanes (sign bit set) — the
/// mask operand `_mm256_maskload_ps`/`_mm256_maskstore_ps` use so tail
/// loads/stores touch exactly `len % 8` elements and never go out of bounds.
static MASK_TABLE: [[i32; 8]; 8] = {
    let mut table = [[0i32; 8]; 8];
    let mut r = 0;
    while r < 8 {
        let mut lane = 0;
        while lane < r {
            table[r][lane] = -1;
            lane += 1;
        }
        r += 1;
    }
    table
};

/// Load the lane mask for a tail of `rem` (1..=7) elements.
///
/// # Safety
/// Requires AVX2 — the safe wrappers check [`available`] first.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    debug_assert!(rem < 8);
    // SAFETY: `MASK_TABLE[rem]` is a 32-byte row and `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_si256(MASK_TABLE[rem].as_ptr().cast()) }
}

/// Reduce four 8-lane accumulators to their four sums without leaving
/// registers. Each sum keeps the fixed tree order
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` of the module docs: the 128-bit
/// halves add first (`lᵢ + lᵢ₊₄`), then lanes two apart, then neighbours.
///
/// # Safety
/// Requires AVX2 — the safe wrappers check [`available`] first.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce4(v0: __m256, v1: __m256, v2: __m256, v3: __m256) -> __m128 {
    // One accumulator per 128-bit half: (l0+l4, l1+l5, l2+l6, l3+l7).
    let s01 = _mm256_add_ps(
        _mm256_insertf128_ps::<1>(v0, _mm256_castps256_ps128(v1)),
        _mm256_permute2f128_ps::<0x31>(v0, v1),
    );
    let s23 = _mm256_add_ps(
        _mm256_insertf128_ps::<1>(v2, _mm256_castps256_ps128(v3)),
        _mm256_permute2f128_ps::<0x31>(v2, v3),
    );
    // Per half, lanes 0–1 hold (s0+s2, s1+s3) of v0|v1 and lanes 2–3 of v2|v3.
    let t = _mm256_add_ps(
        _mm256_shuffle_ps::<0x44>(s01, s23),
        _mm256_shuffle_ps::<0xEE>(s01, s23),
    );
    // Lanes 0 and 2 of each half: (s0+s2) + (s1+s3).
    let u = _mm256_add_ps(t, _mm256_permute_ps::<0xB1>(t));
    // The low half holds v0 and v2, the high half v1 and v3: interleave.
    _mm_blend_ps::<0b1010>(_mm256_castps256_ps128(u), _mm256_extractf128_ps::<1>(u))
}

/// The operands of one `C = A·Bᵀ (+ bias)` product: `a` is `(rows × k)` and
/// `b` is `(n × k)`, both row-major; `bias` has `n` entries.
#[derive(Clone, Copy)]
struct BtOperands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    bias: Option<&'a [f32]>,
    k: usize,
    n: usize,
}

/// The `R` consecutive length-`k` rows of `m` starting at row `first`.
#[inline]
fn rows_of<const R: usize>(m: &[f32], first: usize, k: usize) -> [&[f32]; R] {
    std::array::from_fn(|r| &m[(first + r) * k..(first + r + 1) * k])
}

/// The register-tile kernel: the `R×C` output block
/// `out[i+r][j+c] = A[i+r]·B[j+c] (+ bias[j+c])` on `R·C` independent
/// 8-lane FMA chains. Per 8 elements it loads the `C` B vectors once and
/// streams the `R` A vectors through one register, so a 4×3 tile uses 12
/// accumulators + 3 + 1 of the 16 vector registers. Every output keeps
/// [`dot`]'s exact reduction order: lane `l` sums elements `l, l+8, …`, a
/// ragged tail takes one masked FMA step, and [`reduce4`] combines the
/// lanes in registers, four outputs at a time.
///
/// # Safety
/// Requires AVX2+FMA — the safe wrappers check [`available`] first. Rows
/// and outputs are bounds-checked slices.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile<const R: usize, const C: usize>(
    op: BtOperands,
    out: &mut [f32],
    i: usize,
    j: usize,
) {
    const { assert!(R >= 1 && C >= 1 && R * C <= 12) };
    let a: [&[f32]; R] = rows_of(op.a, i, op.k);
    let b: [&[f32]; C] = rows_of(op.b, j, op.k);
    let chunks = op.k / 8;
    let rem = op.k % 8;
    let mut sums = [0.0f32; 12];
    // SAFETY: every row has length `k`, so full-vector loads read lanes
    // `8s..8s+8 <= k` and the tail's masked loads touch only the first `rem`
    // lanes past `8*chunks`. Sums are stored at `g..g+4 <= 12` because
    // `R·C <= 12` (asserted at compile time). AVX2+FMA is guaranteed by the
    // caller.
    unsafe {
        // Column-major: acc[c·R + r] accumulates output (r, c); the unused
        // tail of the array stays zero and pads the last reduce4 group.
        let mut acc = [_mm256_setzero_ps(); 12];
        let mut bv = [_mm256_setzero_ps(); C];
        for s in 0..chunks {
            for c in 0..C {
                bv[c] = _mm256_loadu_ps(b[c].as_ptr().add(s * 8));
            }
            for r in 0..R {
                let av = _mm256_loadu_ps(a[r].as_ptr().add(s * 8));
                for c in 0..C {
                    acc[c * R + r] = _mm256_fmadd_ps(av, bv[c], acc[c * R + r]);
                }
            }
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            for c in 0..C {
                bv[c] = _mm256_maskload_ps(b[c].as_ptr().add(base), mask);
            }
            for r in 0..R {
                let av = _mm256_maskload_ps(a[r].as_ptr().add(base), mask);
                for c in 0..C {
                    acc[c * R + r] = _mm256_fmadd_ps(av, bv[c], acc[c * R + r]);
                }
            }
        }
        for g in (0..R * C).step_by(4) {
            let v = reduce4(acc[g], acc[g + 1], acc[g + 2], acc[g + 3]);
            _mm_storeu_ps(sums.as_mut_ptr().add(g), v);
        }
    }
    for c in 0..C {
        for r in 0..R {
            let v = sums[c * R + r];
            out[(i + r) * op.n + j + c] = match op.bias {
                Some(bias) => v + bias[j + c],
                None => v,
            };
        }
    }
}

/// The f16 twin of [`tile`]`::<1, C>`: one A row against `C` B rows read
/// from `h`, the exact f16 image of `op.b`. Each 8-element step widens the
/// B vectors with `vcvtph2ps`, which is exact, so every FMA sees the same
/// f32 operands as in [`tile`], in the same order, and the lanes reduce
/// through the same [`reduce4`]: the outputs are bitwise those of the f32
/// tile, for half the B bytes. A ragged tail widens a zero-padded copy of
/// the last `rem` halves, matching the zeros a masked f32 load yields.
///
/// # Safety
/// Requires AVX2+FMA+F16C — the safe wrapper checks [`f16c_available`]
/// first. Rows and outputs are bounds-checked slices.
#[inline]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn tile_f16<const C: usize>(op: BtOperands, h: &[u16], out: &mut [f32], i: usize, j: usize) {
    const { assert!(C == 1 || C == 4) };
    let k = op.k;
    let a = &op.a[i * k..(i + 1) * k];
    let b: [&[u16]; C] = std::array::from_fn(|c| &h[(j + c) * k..(j + c + 1) * k]);
    let chunks = k / 8;
    let rem = k % 8;
    let mut sums = [0.0f32; 4];
    // SAFETY: every row has length `k`, so full-vector loads read elements
    // `8s..8s+8 <= k`; the tail reads A through a `rem`-lane mask and B
    // through a stack copy of its last `rem` halves. Four sums are stored
    // into a 4-element array. AVX2+FMA+F16C is guaranteed by the caller.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); 4];
        for s in 0..chunks {
            let av = _mm256_loadu_ps(a.as_ptr().add(s * 8));
            for c in 0..C {
                let bv = _mm256_cvtph_ps(_mm_loadu_si128(b[c].as_ptr().add(s * 8).cast()));
                acc[c] = _mm256_fmadd_ps(av, bv, acc[c]);
            }
        }
        if rem > 0 {
            let base = chunks * 8;
            let av = _mm256_maskload_ps(a.as_ptr().add(base), tail_mask(rem));
            for c in 0..C {
                let mut padded = [0u16; 8];
                padded[..rem].copy_from_slice(&b[c][base..]);
                let bv = _mm256_cvtph_ps(_mm_loadu_si128(padded.as_ptr().cast()));
                acc[c] = _mm256_fmadd_ps(av, bv, acc[c]);
            }
        }
        _mm_storeu_ps(sums.as_mut_ptr(), reduce4(acc[0], acc[1], acc[2], acc[3]));
    }
    for c in 0..C {
        out[i * op.n + j + c] = match op.bias {
            Some(bias) => sums[c] + bias[j + c],
            None => sums[c],
        };
    }
}

/// Narrow `src` to f16 bits with `vcvtps2ph` (round to nearest even).
///
/// # Safety
/// Requires F16C; `src` and `dst` must have equal lengths.
#[target_feature(enable = "avx,f16c")]
unsafe fn narrow_f16c(src: &[f32], dst: &mut [u16]) {
    for (s, d) in src.chunks(8).zip(dst.chunks_mut(8)) {
        let mut x = [0.0f32; 8];
        let mut y = [0u16; 8];
        x[..s.len()].copy_from_slice(s);
        // SAFETY: both stack buffers hold exactly one vector; F16C is
        // guaranteed by this fn's safety contract.
        unsafe {
            let v = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(x.as_ptr()));
            _mm_storeu_si128(y.as_mut_ptr().cast(), v);
        }
        d.copy_from_slice(&y[..d.len()]);
    }
}

/// Widen f16 bits in `src` to `f32` with `vcvtph2ps`.
///
/// # Safety
/// Requires F16C; `src` and `dst` must have equal lengths.
#[target_feature(enable = "avx,f16c")]
unsafe fn widen_f16c(src: &[u16], dst: &mut [f32]) {
    for (s, d) in src.chunks(8).zip(dst.chunks_mut(8)) {
        let mut x = [0u16; 8];
        let mut y = [0.0f32; 8];
        x[..s.len()].copy_from_slice(s);
        // SAFETY: both stack buffers hold exactly one vector; F16C is
        // guaranteed by this fn's safety contract.
        unsafe {
            let v = _mm256_cvtph_ps(_mm_loadu_si128(x.as_ptr().cast()));
            _mm256_storeu_ps(y.as_mut_ptr(), v);
        }
        d.copy_from_slice(&y[..d.len()]);
    }
}

/// `c_row[j] += s * b_row[j]` vectorised with *separate* multiply and add
/// (no FMA) — the exact operation sequence of the scalar ikj kernel, so
/// results stay bit-identical.
///
/// # Safety
/// Requires AVX2; `c_row` and `b_row` must have equal lengths.
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(c_row: &mut [f32], b_row: &[f32], s: f32) {
    debug_assert_eq!(c_row.len(), b_row.len());
    let len = c_row.len();
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: full-vector accesses stay within `8*chunks <= len`; the tail
    // masked load/store touches only the first `rem` lanes past that. AVX2
    // execution is guaranteed by this fn's safety contract.
    unsafe {
        let sv = _mm256_set1_ps(s);
        for i in 0..chunks {
            let cp = c_row.as_mut_ptr().add(i * 8);
            let bv = _mm256_loadu_ps(b_row.as_ptr().add(i * 8));
            let cv = _mm256_loadu_ps(cp);
            _mm256_storeu_ps(cp, _mm256_add_ps(cv, _mm256_mul_ps(sv, bv)));
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            let cp = c_row.as_mut_ptr().add(base);
            let bv = _mm256_maskload_ps(b_row.as_ptr().add(base), mask);
            let cv = _mm256_maskload_ps(cp, mask);
            _mm256_maskstore_ps(cp, mask, _mm256_add_ps(cv, _mm256_mul_ps(sv, bv)));
        }
    }
}

/// Serial ikj kernel over output rows `[row0, row0+rows)` — the AVX2 twin of
/// the scalar `matmul_rows`, bit-identical including the zero-row skip.
///
/// # Safety
/// Requires AVX2; slice dimensions must agree with `(row0, rows, k, n)`.
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(
    a: &[f32],
    b: &[f32],
    chunk: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    chunk.fill(0.0);
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let c_row = &mut chunk[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue; // same sparse-row skip as the scalar kernel
            }
            // SAFETY: AVX2 is guaranteed by this fn's safety contract;
            // `axpy_avx2` performs only in-bounds masked/unmasked accesses.
            unsafe { axpy_avx2(c_row, &b[p * n..(p + 1) * n], a_ip) };
        }
    }
}

/// `out = A·Bᵀ (+ bias)` for an `out` of `rows × n` — the one driver of
/// every dot-family kernel. Rows go in blocks of 4 and columns in blocks of
/// 3 ([`tile`]`::<4, 3>`), leftover columns in 4×1 tiles, and the last
/// `rows % 4` rows (batch 1, the rest of a compacted batch) in 1×4 and 1×1
/// tiles. The loop order is the resident-budget rule of the scalar
/// [`crate::matmul::matmul_bt_bias_into`]: when the A rows fit the budget
/// and are fewer than the B rows, column blocks go outermost, so each B
/// tile stays in L1 while the (cache-resident) A streams past it. Order
/// never changes an output's bits.
///
/// # Safety
/// Requires AVX2+FMA — the safe wrappers check [`available`] first. `n`
/// must be nonzero.
#[target_feature(enable = "avx2,fma")]
unsafe fn bt_avx2(op: BtOperands, out: &mut [f32]) {
    let (k, n) = (op.k, op.n);
    let rows = out.len() / n;
    let (rows4, n3, n4) = (rows - rows % 4, n - n % 3, n - n % 4);
    // SAFETY: AVX2+FMA is guaranteed by the caller.
    unsafe {
        if rows * k <= RESIDENT_BUDGET && rows * k < n * k {
            for j in (0..n3).step_by(3) {
                for i in (0..rows4).step_by(4) {
                    tile::<4, 3>(op, out, i, j);
                }
            }
            for j in n3..n {
                for i in (0..rows4).step_by(4) {
                    tile::<4, 1>(op, out, i, j);
                }
            }
        } else {
            for i in (0..rows4).step_by(4) {
                for j in (0..n3).step_by(3) {
                    tile::<4, 3>(op, out, i, j);
                }
                for j in n3..n {
                    tile::<4, 1>(op, out, i, j);
                }
            }
        }
        for i in rows4..rows {
            for j in (0..n4).step_by(4) {
                tile::<1, 4>(op, out, i, j);
            }
            for j in n4..n {
                tile::<1, 1>(op, out, i, j);
            }
        }
    }
}

/// [`bt_avx2`] with the leftover rows on `h`, the exact f16 image of
/// `op.b`. The blocks of 4 rows run through [`bt_avx2`] unchanged: each B
/// vector they load feeds four rows from L1, so they are compute-bound and
/// stay on f32. The last `rows % 4` rows (all of batch 1) stream every B
/// row once per A row, so they are bound by B's bytes and take the
/// [`tile_f16`] 1×4 and 1×1 tiles, which halve those bytes. Outputs are
/// bitwise those of [`bt_avx2`].
///
/// # Safety
/// Requires AVX2+FMA+F16C — the safe wrapper checks [`f16c_available`]
/// first. `n` must be nonzero and `h` must hold `n·k` halves.
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn bt_twin_avx2(op: BtOperands, h: &[u16], out: &mut [f32]) {
    let (k, n) = (op.k, op.n);
    let rows = out.len() / n;
    let (rows4, n4) = (rows - rows % 4, n - n % 4);
    // SAFETY: AVX2+FMA+F16C is guaranteed by the caller; the 4-row blocks
    // get their own rows of A and of the output, a multiple of 4, so
    // `bt_avx2` runs no leftover rows.
    unsafe {
        if rows4 > 0 {
            let blocks = BtOperands {
                a: &op.a[..rows4 * k],
                ..op
            };
            bt_avx2(blocks, &mut out[..rows4 * n]);
        }
        for i in rows4..rows {
            for j in (0..n4).step_by(4) {
                tile_f16::<4>(op, h, out, i, j);
            }
            for j in n4..n {
                tile_f16::<1>(op, h, out, i, j);
            }
        }
    }
}

/// `out[i] = max(input[i], 0)` 8 lanes at a time.
///
/// # Safety
/// Requires AVX2; `input` and `out` must have equal lengths.
#[target_feature(enable = "avx2")]
unsafe fn relu_avx2(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    let len = input.len();
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: full-vector accesses stay within `8*chunks <= len`; the tail
    // masked load/store touches only the first `rem` lanes past that. AVX2
    // execution is guaranteed by this fn's safety contract.
    unsafe {
        let zero = _mm256_setzero_ps();
        for i in 0..chunks {
            let v = _mm256_loadu_ps(input.as_ptr().add(i * 8));
            _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), _mm256_max_ps(v, zero));
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            let v = _mm256_maskload_ps(input.as_ptr().add(base), mask);
            _mm256_maskstore_ps(out.as_mut_ptr().add(base), mask, _mm256_max_ps(v, zero));
        }
    }
}

// --------------------------------------------------------------------------
// Safe wrappers: feature-gate, scalar fallback, thread splitting. These are
// what `SimdBackend` dispatches to; none of them allocate.
// --------------------------------------------------------------------------

/// FMA dot product of two equal-length slices (see the module docs for the
/// exact reduction order): one 1×1 register tile through
/// [`matmul_bt_bias_into`], which falls back to the scalar
/// [`crate::matmul::dot`] when AVX2/FMA is unavailable.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut out = [0.0f32];
    matmul_bt_bias_into(a, b, None, &mut out, 1, a.len(), 1);
    out[0]
}

/// `C = A · B`, written into the caller-owned `c` (fully overwritten) —
/// bit-identical to [`crate::matmul::matmul_into`] (separate multiply/add,
/// same zero-skip), 8 lanes wide, same row-parallel split.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_into(a, b, c, m, k, n);
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        // SAFETY: AVX2 availability checked at function entry; the kernel
        // performs only in-bounds masked/unmasked accesses.
        unsafe { matmul_rows_avx2(a, b, chunk, row0, rows, k, n) };
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// `C = A · Bᵀ`, written into the caller-owned `c` (fully overwritten) —
/// [`matmul_bt_bias_into`] without a bias, the kernel of every
/// convolution's im2col product. Each output is bit-identical to one
/// [`dot`] of its two rows; it agrees with the scalar kernel to the
/// documented tolerance, not bitwise.
pub fn matmul_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_bt_bias_into(a, b, None, c, m, k, n);
}

/// `C = A · Bᵀ` with an optionally fused bias row-broadcast, written into
/// the caller-owned `c` (fully overwritten) — the planned dense-layer
/// kernel and the one entry of the register-tile driver. Outputs are
/// computed in 4×3 register tiles (4×1, 1×4 and 1×1 at the edges), each
/// output on its own 8-lane FMA chain, reduced in registers; every output
/// is bit-identical to one [`dot`] of its two rows plus `bias[j]`. The
/// loop order follows the same resident-budget rule as the scalar
/// [`crate::matmul::matmul_bt_bias_into`], and large products split their
/// output rows across threads as the scalar kernel does.
pub fn matmul_bt_bias_into(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }
    if c.is_empty() {
        return;
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        let a = &a[row0 * k..(row0 + rows) * k];
        // SAFETY: AVX2+FMA availability checked at function entry; `a` holds
        // the chunk's `rows` rows, `b` holds `n` rows, and `n > 0` because
        // `c` is not empty.
        unsafe { bt_avx2(BtOperands { a, b, bias, k, n }, chunk) };
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// [`matmul_bt_bias_into`] with an optional [`F16Twin`] of `B`, written
/// into the caller-owned `c` (fully overwritten). The twin must be the
/// exact image of `b` (a `debug_assert` checks that it widens back to
/// `b`). When it has an image, `m % 4 != 0` and the CPU has F16C, the
/// leftover-row tiles (batch 1–3, and the last `m % 4` rows of a larger
/// batch, of each thread's chunk when the rows are split) stream the f16
/// rows and widen them in registers, halving the bytes those
/// bandwidth-bound tiles move; the 4-row tiles stay on f32. Widening is
/// exact and the FMA sequence is the same, so every output is bitwise that
/// of [`matmul_bt_bias_into`]: one [`dot`] of its two rows plus `bias[j]`.
/// Otherwise — no twin image of `b`'s length, a batch of `4k` rows, or no
/// F16C — this is [`matmul_bt_bias_into`].
#[allow(clippy::too_many_arguments)]
pub fn matmul_bt_bias_twin_into(
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
    // A batch of 4k rows has no leftover rows for the twin to serve.
    let leftover = !m.is_multiple_of(4);
    let image = twin.and_then(F16Twin::image);
    let Some(h) = image.filter(|h| h.len() == b.len() && leftover && f16c_available()) else {
        return matmul_bt_bias_into(a, b, bias, c, m, k, n);
    };
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if c.is_empty() {
        return;
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        let a = &a[row0 * k..(row0 + rows) * k];
        // SAFETY: AVX2+FMA+F16C availability checked at function entry; `a`
        // holds the chunk's `rows` rows, `b` and `h` hold `n` rows (the twin
        // is an image of `b`), and `n > 0` because `c` is not empty.
        unsafe { bt_twin_avx2(BtOperands { a, b, bias, k, n }, h, chunk) };
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// Narrow `src` to f16 bits with the F16C `vcvtps2ph` instruction (round
/// to nearest, ties to even) into the caller-owned `dst`, of the same
/// length. Returns `false`, leaving `dst` untouched, when the CPU lacks
/// F16C. The hardware reference [`crate::half::f32_to_f16_bits`] is pinned
/// against.
pub fn f16_narrow_hw(src: &[f32], dst: &mut [u16]) -> bool {
    assert_eq!(src.len(), dst.len(), "f16_narrow_hw: length mismatch");
    if !f16c_available() {
        return false;
    }
    // SAFETY: F16C availability checked above; lengths are equal.
    unsafe { narrow_f16c(src, dst) };
    true
}

/// Widen the f16 bits in `src` to `f32` with the F16C `vcvtph2ps`
/// instruction into the caller-owned `dst`, of the same length. Returns
/// `false`, leaving `dst` untouched, when the CPU lacks F16C. The hardware
/// reference [`crate::half::f16_bits_to_f32`] is pinned against.
pub fn f16_widen_hw(src: &[u16], dst: &mut [f32]) -> bool {
    assert_eq!(src.len(), dst.len(), "f16_widen_hw: length mismatch");
    if !f16c_available() {
        return false;
    }
    // SAFETY: F16C availability checked above; lengths are equal.
    unsafe { widen_f16c(src, dst) };
    true
}

/// `C = Aᵀ · B`, written into the caller-owned `c` (fully overwritten) —
/// bit-identical to [`crate::matmul::matmul_at_into`] (separate
/// multiply/add rank-1 sweeps, same zero-skip), 8 lanes wide.
pub fn matmul_at_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_at_into(a, b, c, m, k, n);
    }
    c.fill(0.0);
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_v) in a_row.iter().enumerate() {
            if a_v == 0.0 {
                continue;
            }
            // SAFETY: AVX2 availability checked at function entry; the
            // kernel performs only in-bounds masked/unmasked accesses.
            unsafe { axpy_avx2(&mut c[i * n..(i + 1) * n], b_row, a_v) };
        }
    }
}

/// `y = A·x`, written into the caller-owned `y` (fully overwritten): the
/// product `xᵀ·Aᵀ` through [`matmul_bt_bias_into`], a single row of 1×4
/// and 1×1 tiles. Each output is one FMA [`dot`], so it agrees with
/// [`matmul_bt_into`] bitwise and with the scalar kernel to the documented
/// tolerance.
pub fn matvec_into(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    matmul_bt_bias_into(x, a, None, y, 1, n, m);
}

/// `out = max(input, 0)` elementwise, written into the caller-owned `out`
/// (same thread-splitting policy as the scalar elementwise kernels;
/// bit-identical except `-0.0` inputs map to `+0.0`).
pub fn relu_into(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    if !available() {
        return crate::ops::relu_into(input, out);
    }
    if input.len() >= ELEMWISE_PAR_THRESHOLD && max_threads() > 1 {
        par_chunks_mut(out, 4096, |start, chunk| {
            // SAFETY: AVX2 availability checked at function entry; the
            // kernel performs only in-bounds masked/unmasked accesses.
            unsafe { relu_avx2(&input[start..start + chunk.len()], chunk) };
        });
    } else {
        // SAFETY: AVX2 availability checked at function entry.
        unsafe { relu_avx2(input, out) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 0.37 - 1.0) * scale)
            .collect()
    }

    /// Safe scalar model of the SIMD dot contract: 8 `mul_add` lanes, the
    /// masked-tail `mul_add(0, 0, lane)` step, and the fixed combine tree.
    fn model_dot(a: &[f32], b: &[f32]) -> f32 {
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

    #[test]
    fn dot_matches_documented_reduction_order_bitwise() {
        if !available() {
            return;
        }
        for len in [0, 1, 5, 7, 8, 9, 15, 16, 17, 64, 100, 783, 784] {
            let a = seq(len, 1.3);
            let b = seq(len, -0.7);
            assert_eq!(
                dot(&a, &b).to_bits(),
                model_dot(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn matmul_is_bit_identical_to_scalar() {
        if !available() {
            return;
        }
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 13, 9), (4, 8, 16)] {
            let a = seq(m * k, 0.9);
            let b = seq(k * n, 1.1);
            let mut simd_c = vec![0.0; m * n];
            let mut scalar_c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut simd_c, m, k, n);
            crate::matmul::matmul_into(&a, &b, &mut scalar_c, m, k, n);
            assert_eq!(simd_c, scalar_c, "({m},{k},{n})");
        }
    }
}
