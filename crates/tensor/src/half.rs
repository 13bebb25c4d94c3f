use std::cmp::Ordering;
use std::fmt;

/// Software IEEE-754 binary16 ("half precision") value.
///
/// TorchSparse quantizes features to FP16 to halve DRAM traffic (§4.3.1).
/// The allowed dependency set has no `half` crate, so we implement the format
/// ourselves: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits, with
/// round-to-nearest-even conversion from `f32` — matching CUDA `__float2half_rn`.
///
/// Arithmetic is performed by converting to `f32`, operating, and rounding
/// back, which is exactly what FP16 storage + FP32 accumulate does on GPU.
///
/// # Example
///
/// ```
/// use torchsparse_tensor::Half;
///
/// let h = Half::from_f32(1.0 / 3.0);
/// // binary16 has ~3.3 decimal digits of precision
/// assert!((h.to_f32() - 1.0 / 3.0).abs() < 1e-3);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Half(u16);

impl Half {
    /// Positive zero.
    #[cfg(test)]
    pub(crate) const ZERO: Half = Half(0);
    /// One.
    #[cfg(test)]
    pub(crate) const ONE: Half = Half(0x3C00);
    /// Positive infinity.
    #[cfg(test)]
    pub(crate) const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    #[cfg(test)]
    pub(crate) const NEG_INFINITY: Half = Half(0xFC00);
    /// Largest finite value (65504).
    #[cfg(test)]
    pub(crate) const MAX: Half = Half(0x7BFF);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values whose magnitude exceeds 65504 become infinities; subnormal
    /// results are produced for tiny magnitudes; NaN payloads are canonicalized.
    pub fn from_f32(value: f32) -> Half {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if mantissa == 0 {
                Half(sign | 0x7C00)
            } else {
                Half(sign | 0x7E00) // canonical quiet NaN
            };
        }

        // Unbiased exponent in f32; re-bias for f16 (bias 15).
        let unbiased = exp - 127;
        let f16_exp = unbiased + 15;

        if f16_exp >= 0x1F {
            // Overflow to infinity.
            return Half(sign | 0x7C00);
        }

        if f16_exp <= 0 {
            // Subnormal or zero in f16.
            if f16_exp < -10 {
                return Half(sign); // rounds to signed zero
            }
            // Add the implicit leading 1 then shift into subnormal position.
            let full = mantissa | 0x0080_0000;
            let shift = (14 - f16_exp) as u32; // 14..24
            let half_mant = full >> shift;
            // Round to nearest even on the discarded bits.
            let round_bit = 1u32 << (shift - 1);
            let remainder = full & ((1u32 << shift) - 1);
            let mut h = half_mant as u16;
            if remainder > round_bit || (remainder == round_bit && (half_mant & 1) == 1) {
                h += 1; // may carry into the exponent, which is correct
            }
            return Half(sign | h);
        }

        // Normal case: keep top 10 mantissa bits, round-to-nearest-even.
        let mut h = (f16_exp as u16) << 10 | (mantissa >> 13) as u16;
        let remainder = mantissa & 0x1FFF;
        if remainder > 0x1000 || (remainder == 0x1000 && (h & 1) == 1) {
            h += 1; // carry propagates into exponent correctly (e.g. 2047.5 -> 2048)
        }
        Half(sign | h)
    }

    /// Converts back to `f32` (exact — every binary16 is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mantissa = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mantissa == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = mantissa * 2^-24. Normalize so the
                // implicit leading 1 lands at bit 10; each shift lowers the
                // exponent by one starting from the subnormal exponent -14.
                let mut e = -14i32;
                let mut m = mantissa;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                let f32_exp = ((e + 127) as u32) & 0xFF;
                sign | (f32_exp << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            if mantissa == 0 {
                sign | 0x7F80_0000 // infinity
            } else {
                sign | 0x7FC0_0000 // NaN
            }
        } else {
            let f32_exp = exp + 127 - 15;
            sign | (f32_exp << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }

    /// Raw bit pattern.
    #[cfg(test)]
    pub(crate) fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    pub(crate) fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// Whether the value is NaN.
    #[cfg(test)]
    pub(crate) fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Whether the value is positive or negative infinity.
    #[cfg(test)]
    pub(crate) fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

impl From<f32> for Half {
    fn from(v: f32) -> Half {
        Half::from_f32(v)
    }
}

impl From<Half> for f32 {
    fn from(h: Half) -> f32 {
        h.to_f32()
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Half) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl std::ops::Add for Half {
    type Output = Half;

    /// IEEE binary16 addition: compute in f32 (exact for two halves), round
    /// to nearest even — the semantics of CUDA `__hadd`.
    fn add(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl std::ops::Sub for Half {
    type Output = Half;

    fn sub(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl std::ops::Mul for Half {
    type Output = Half;

    /// Binary16 multiplication with a single rounding (f32 products of two
    /// halves are exact, so rounding once matches hardware `__hmul`).
    fn mul(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl std::ops::Neg for Half {
    type Output = Half;

    fn neg(self) -> Half {
        Half::from_bits(self.0 ^ 0x8000)
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Half({})", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let h = Half::from_f32(i as f32);
            assert_eq!(h.to_f32(), i as f32, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(Half::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f32(0.5).to_bits(), 0x3800);
        // 2^-14: smallest normal
        assert_eq!(Half::from_f32(6.103_515_6e-5).to_bits(), 0x0400);
        // 2^-24: smallest subnormal
        assert_eq!(Half::from_f32(5.960_464_5e-8).to_bits(), 0x0001);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(Half::from_f32(70000.0).is_infinite());
        assert!(Half::from_f32(-70000.0).is_infinite());
        assert_eq!(Half::from_f32(f32::INFINITY), Half::INFINITY);
        assert_eq!(Half::from_f32(f32::NEG_INFINITY), Half::NEG_INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!(Half::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(Half::from_f32(1e-10).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-1e-10).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 2049 is exactly between 2048 and 2050 in f16; ties to even -> 2048.
        assert_eq!(Half::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 is between 2050 and 2052; ties to even -> 2052.
        assert_eq!(Half::from_f32(2051.0).to_f32(), 2052.0);
        // Non-tie rounds to nearest.
        assert_eq!(Half::from_f32(2049.1).to_f32(), 2050.0);
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // Largest f16 below 2048 is 2047; 2047.9 must round up to 2048,
        // which requires the mantissa carry to propagate into the exponent.
        assert_eq!(Half::from_f32(2047.9).to_f32(), 2048.0);
        // Just under overflow threshold rounds to infinity.
        assert!(Half::from_f32(65520.0).is_infinite());
        assert_eq!(Half::from_f32(65519.0).to_f32(), 65504.0);
    }

    #[test]
    fn subnormal_roundtrip() {
        // All 1024 subnormal bit patterns should roundtrip through f32.
        for bits in 1u16..0x0400 {
            let h = Half::from_bits(bits);
            let back = Half::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "subnormal {bits:#06x} roundtrip");
        }
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip() {
        for bits in 0u16..=0xFFFF {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let rt = Half::from_f32(h.to_f32());
            assert_eq!(rt.to_bits(), bits, "bits {bits:#06x} must roundtrip exactly");
        }
    }

    #[test]
    fn relative_error_bound_for_normals() {
        // f16 has 11 bits of significand => relative error <= 2^-11.
        let mut x = 1.0f32;
        while x < 60000.0 {
            let h = Half::from_f32(x);
            let rel = ((h.to_f32() - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0, "x={x} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn ordering_matches_f32() {
        let a = Half::from_f32(1.5);
        let b = Half::from_f32(2.5);
        assert!(a < b);
        assert!(Half::from_f32(-1.0) < Half::ZERO);
    }

    #[test]
    fn arithmetic_exact_cases() {
        let one = Half::ONE;
        let two = Half::from_f32(2.0);
        assert_eq!(one + one, two);
        assert_eq!(two - one, one);
        assert_eq!(two * two, Half::from_f32(4.0));
        assert_eq!(-one, Half::from_f32(-1.0));
        assert_eq!(-(-one), one);
    }

    #[test]
    fn addition_rounds_to_precision() {
        // 2048 + 1 is not representable in binary16 (spacing is 2 there);
        // round-to-nearest-even keeps 2048.
        let big = Half::from_f32(2048.0);
        assert_eq!(big + Half::ONE, big);
        // 2048 + 2 is representable.
        assert_eq!(big + Half::from_f32(2.0), Half::from_f32(2050.0));
    }

    #[test]
    fn addition_overflow_saturates_to_infinity() {
        let max = Half::MAX;
        assert!((max + max).is_infinite());
    }

    #[test]
    fn neg_flips_sign_of_zero_and_infinity() {
        assert_eq!((-Half::ZERO).to_bits(), 0x8000);
        assert_eq!(-Half::INFINITY, Half::NEG_INFINITY);
    }

    #[test]
    fn commutativity_over_samples() {
        for i in 0..200u16 {
            let a = Half::from_bits(i.wrapping_mul(113));
            let b = Half::from_bits(i.wrapping_mul(331).wrapping_add(7));
            if a.is_nan() || b.is_nan() {
                continue;
            }
            assert_eq!((a + b).to_bits(), (b + a).to_bits());
            assert_eq!((a * b).to_bits(), (b * a).to_bits());
        }
    }
}
