//! IEEE 754 binary16 (f16) conversions in safe code, and [`F16Twin`], an
//! exact f16 image of an f32 buffer.
//!
//! The dense kernels can stream a weight matrix as 16-bit values and widen
//! them to f32 in registers (see `backend::simd`). Widening f16 → f32 is
//! exact, so when every weight of a matrix is representable in f16, the
//! 16-bit copy feeds the FMA chains exactly the same f32 operands: half the
//! bytes move, no output bit changes. This module provides the conversions
//! that make such weights ([`round_f16`]) and the twin buffer that can hold
//! only an exact image ([`F16Twin`]).
//!
//! The conversions match the x86 F16C instructions bit for bit:
//! [`f32_to_f16_bits`] rounds to nearest, ties to even, like `vcvtps2ph`
//! with the round-to-nearest immediate, and [`f16_bits_to_f32`] is the
//! exact widening of `vcvtph2ps`. NaNs come out quiet with their payload
//! truncated (narrowing) or shifted (widening), as the hardware does.
//! `crates/tensor/tests/f16_conformance.rs` pins both against the hardware.

/// Narrow an `f32` to the bits of the nearest `f16`, ties to even.
///
/// Magnitudes of 65520 and above (and infinities) become infinity,
/// magnitudes of 2⁻²⁵ and below become a signed zero, and results under
/// 2⁻¹⁴ are f16 subnormals. A NaN stays a NaN: quiet, same sign, payload
/// truncated to its top 10 bits.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        return match man {
            0 => sign | 0x7c00,
            _ => sign | 0x7e00 | (man >> 13) as u16,
        };
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7c00;
    }
    if e >= -14 {
        // Normal range: keep 10 mantissa bits and round on the 13 dropped
        // ones. A carry out of the mantissa bumps the exponent, which is
        // also how 65520 rounds up to infinity.
        let h = (((e + 15) as u32) << 10) | (man >> 13);
        let dropped = man & 0x1fff;
        let up = dropped > 0x1000 || (dropped == 0x1000 && h & 1 == 1);
        return sign | (h + up as u32) as u16;
    }
    if e < -25 {
        return sign;
    }
    // Subnormal range: the value is `(man | 2²³) · 2^(e−23)` and the f16
    // unit is 2⁻²⁴, so shift the 24-bit significand right by `−e − 1`
    // (14..=24) and round on the bits shifted out.
    let sig = man | 0x0080_0000;
    let shift = (-e - 1) as u32;
    let h = sig >> shift;
    let dropped = sig & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let up = dropped > half || (dropped == half && h & 1 == 1);
    sign | (h + up as u32) as u16
}

/// Widen `f16` bits to the `f32` of the same value. Exact for every
/// encoding; a NaN comes out quiet with the same sign and payload.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from((h >> 10) & 0x1f);
    let man = u32::from(h & 0x03ff);
    let bits = match (exp, man) {
        (0, 0) => sign,
        (0, _) => {
            // Subnormal: normalise so the leading one becomes implicit.
            let shift = man.leading_zeros() - 21;
            sign | ((113 - shift) << 23) | (((man << shift) & 0x03ff) << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, _) => sign | 0x7fc0_0000 | (man << 13),
        _ => sign | ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// `x` rounded to the nearest `f16` value, as an `f32`: the one rounding
/// step that makes a weight matrix f16-exact.
pub fn round_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// True when `x` is a non-NaN value that survives the f16 round trip
/// bitwise (signed zeros and infinities included).
fn is_f16_exact(x: f32, h: u16) -> bool {
    !x.is_nan() && f16_bits_to_f32(h).to_bits() == x.to_bits()
}

/// An exact f16 image of an f32 buffer, or nothing.
///
/// The buffer is allocated once, by [`F16Twin::new`]; [`F16Twin::refresh`]
/// re-derives it from a source slice without allocating. The image is
/// readable ([`F16Twin::image`]) only when the last refresh found every
/// source element exactly representable in f16 (a NaN counts as inexact),
/// so a twin that is readable widens back to its source bit for bit. That
/// is the one invariant the f16 kernel tiles rely on. Keeping the twin in
/// step with later changes to the source is the owner's job (see
/// `nn::Dense`); the kernels check it with a `debug_assert`.
#[derive(Debug, Clone)]
pub struct F16Twin {
    bits: Vec<u16>,
    exact: bool,
}

impl F16Twin {
    /// A twin for a source of `len` elements, with its buffer allocated
    /// and no image yet.
    pub fn new(len: usize) -> F16Twin {
        F16Twin {
            bits: vec![0; len],
            exact: false,
        }
    }

    /// Re-derive the image from `src` without allocating. Returns whether
    /// the twin now holds an exact image; it stops at the first element
    /// that does not round-trip, so an f32-only source costs a few
    /// conversions, not a pass. A source of the wrong length leaves the
    /// twin without an image.
    pub fn refresh(&mut self, src: &[f32]) -> bool {
        self.exact = src.len() == self.bits.len()
            && src.iter().zip(self.bits.iter_mut()).all(|(&x, h)| {
                *h = f32_to_f16_bits(x);
                is_f16_exact(x, *h)
            });
        self.exact
    }

    /// The f16 bits, when the last [`F16Twin::refresh`] found its source
    /// f16-exact.
    pub fn image(&self) -> Option<&[u16]> {
        self.exact.then_some(self.bits.as_slice())
    }

    /// True when the twin holds an image that widens back to `src` bit for
    /// bit — the check that catches a twin left stale by a change to its
    /// source.
    pub(crate) fn is_image_of(&self, src: &[f32]) -> bool {
        self.image().is_some_and(|bits| {
            bits.len() == src.len()
                && bits
                    .iter()
                    .zip(src)
                    .all(|(&h, &x)| f16_bits_to_f32(h).to_bits() == x.to_bits())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_cases() {
        let cases: [(f32, u16); 14] = [
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (65504.0, 0x7bff),
            (65519.99, 0x7bff),
            (65520.0, 0x7c00),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (2f32.powi(-24), 0x0001),
            (2f32.powi(-25), 0x0000),
            (-(2f32.powi(-25)), 0x8000),
            (2f32.powi(-14), 0x0400),
            (1e-40, 0x0000),
        ];
        for (x, want) in cases {
            assert_eq!(f32_to_f16_bits(x), want, "{x:e}");
        }
    }

    #[test]
    fn ties_go_to_even() {
        // 1 + 2⁻¹¹ lies halfway between 1 and 1 + 2⁻¹⁰: even mantissa wins.
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11)), 0x3c00);
        // 1 + 3·2⁻¹¹ lies halfway between 1 + 2⁻¹⁰ (odd) and 1 + 2⁻⁹.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
        // Subnormal ties: 1.5 and 2.5 units of 2⁻²⁴ go to 2 units.
        assert_eq!(f32_to_f16_bits(1.5 * 2f32.powi(-24)), 0x0002);
        assert_eq!(f32_to_f16_bits(2.5 * 2f32.powi(-24)), 0x0002);
        // The tie between the largest subnormal and the smallest normal.
        assert_eq!(f32_to_f16_bits(2f32.powi(-14) - 2f32.powi(-25)), 0x0400);
    }

    #[test]
    fn widening_round_trips_every_non_nan_encoding() {
        for h in 0..=u16::MAX {
            let x = f16_bits_to_f32(h);
            if x.is_nan() {
                assert_eq!(h & 0x7c00, 0x7c00);
                continue;
            }
            assert_eq!(f32_to_f16_bits(x), h, "{h:#06x}");
        }
    }

    #[test]
    fn twin_holds_only_exact_images() {
        let exact = [0.5f32, -0.0, 1024.0, 2f32.powi(-24), f32::INFINITY];
        let mut twin = F16Twin::new(exact.len());
        assert!(twin.image().is_none(), "a new twin has no image");
        assert!(twin.refresh(&exact));
        assert!(twin.is_image_of(&exact));
        let mut moved = exact;
        moved[2] = 1025.0;
        assert!(!twin.is_image_of(&moved), "a stale twin is caught");
        for inexact in [0.1f32, f32::NAN, 1e6] {
            moved[2] = inexact;
            assert!(!twin.refresh(&moved), "{inexact} is not f16-exact");
            assert!(twin.image().is_none());
        }
        assert!(!twin.refresh(&exact[..2]), "wrong length has no image");
    }
}
