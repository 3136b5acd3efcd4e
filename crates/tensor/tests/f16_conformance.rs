//! `tensor::half`'s software f16 conversions, pinned bit for bit to the
//! x86 F16C instructions (`vcvtph2ps` widening, `vcvtps2ph` narrowing with
//! round-to-nearest-even), reached through the safe entries in
//! `tensor::backend::simd`.
//!
//! The f16 twin tiles of the dense kernel widen weights in hardware, while
//! the twin itself is built and checked in software; the two agree only if
//! the conversions do. On CPUs without F16C the hardware checks skip, and
//! the named cases below still pin the software conversions.

use tensor::half::{f16_bits_to_f32, f32_to_f16_bits, round_f16};

/// Named narrowing cases: ties to even at the normal and subnormal
/// boundaries, the f16 range limits, and signed zeros.
#[test]
fn named_narrowing_cases() {
    let p = |e: i32| 2f32.powi(e);
    let cases: [(&str, f32, u16); 16] = [
        ("1 + 2^-11 ties to 1 (even)", 1.0 + p(-11), 0x3c00),
        (
            "1 + 3·2^-11 ties to 1 + 2^-9 (even)",
            1.0 + 3.0 * p(-11),
            0x3c02,
        ),
        (
            "2^-14 - 2^-25 ties up to the smallest normal",
            p(-14) - p(-25),
            0x0400,
        ),
        (
            "2^-14 - 3·2^-26 rounds to the largest subnormal",
            p(-14) - 3.0 * p(-26),
            0x03ff,
        ),
        ("1.5·2^-24 ties to 2 units (even)", 1.5 * p(-24), 0x0002),
        ("2.5·2^-24 ties to 2 units (even)", 2.5 * p(-24), 0x0002),
        ("65504 is the largest finite f16", 65504.0, 0x7bff),
        ("65519 rounds down to 65504", 65519.0, 0x7bff),
        ("65520 ties to infinity", 65520.0, 0x7c00),
        ("-65520 ties to -infinity", -65520.0, 0xfc00),
        ("2^-24 is the smallest subnormal", p(-24), 0x0001),
        ("2^-25 ties to zero (even)", p(-25), 0x0000),
        ("2^-25 + 2^-40 rounds up to 2^-24", p(-25) + p(-40), 0x0001),
        ("-2^-25 ties to -0", -p(-25), 0x8000),
        ("-0.0 keeps its sign", -0.0, 0x8000),
        ("an f32 subnormal flushes to zero", 1e-40, 0x0000),
    ];
    for (what, x, want) in cases {
        assert_eq!(f32_to_f16_bits(x), want, "{what}");
        let mut hw = [0u16];
        if tensor::backend::simd::f16_narrow_hw(&[x], &mut hw) {
            assert_eq!(hw[0], want, "{what} (F16C)");
        }
    }
    assert_eq!(round_f16(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(round_f16(0.1), f16_bits_to_f32(0x2e66));
}

#[cfg(target_arch = "x86_64")]
mod hardware {
    use super::*;
    use tensor::backend::simd::{f16_narrow_hw, f16_widen_hw};

    /// Every f16 encoding, NaNs included, widens bitwise like `vcvtph2ps`.
    #[test]
    fn widening_matches_vcvtph2ps_on_every_encoding() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let mut hw = vec![0.0f32; all.len()];
        if !f16_widen_hw(&all, &mut hw) {
            return; // no F16C: nothing to pin against
        }
        for (&h, &want) in all.iter().zip(&hw) {
            let got = f16_bits_to_f32(h);
            assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
        }
    }

    /// Compare software narrowing with `vcvtps2ph` on one batch of inputs.
    fn check_narrowing(xs: &[f32], hw: &mut [u16]) {
        assert!(f16_narrow_hw(xs, hw));
        for (&x, &want) in xs.iter().zip(hw.iter()) {
            assert_eq!(f32_to_f16_bits(x), want, "{x:e} ({:#010x})", x.to_bits());
        }
    }

    /// Every 64th f32 bit pattern (67 M inputs over every exponent, both
    /// signs, infinities and NaNs), then a random sample, narrows bitwise
    /// like `vcvtps2ph`.
    #[test]
    fn narrowing_matches_vcvtps2ph() {
        if !f16_narrow_hw(&[0.0], &mut [0u16]) {
            return; // no F16C: nothing to pin against
        }
        const BATCH: usize = 1 << 16;
        let mut xs = vec![0.0f32; BATCH];
        let mut hw = vec![0u16; BATCH];
        let mut pattern: u64 = 0;
        while pattern < 1 << 32 {
            for x in xs.iter_mut() {
                *x = f32::from_bits(pattern as u32);
                pattern += 64;
            }
            check_narrowing(&xs, &mut hw);
        }
        // A random sample of the patterns the stride skips (xorshift64).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            for x in xs.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *x = f32::from_bits((state >> 16) as u32);
            }
            check_narrowing(&xs, &mut hw);
        }
    }
}
