//! Test oracle: an order-independent, correctly rounded `f32` sum.
//!
//! The engine accumulates each output row in plain FP32, in one canonical
//! order. This module is what `tests/exact_accumulation.rs` and
//! `core::dataflow`'s unit tests measure that against: [`ExactAccumulator`],
//! a fixed-point *superaccumulator*. Every
//! finite `f32` is an integer multiple of 2⁻¹⁴⁹ with magnitude below 2²⁷⁷,
//! so the sum of any number of them is held **exactly** in a wide
//! two's-complement integer. Integer addition is associative and
//! commutative, so the state after adding a multiset of values is
//! identical for *every* summation order and *every* split/merge
//! partitioning — and the single final conversion back to `f32`
//! ([`ExactAccumulator::round`]) is correctly rounded (round-to-nearest,
//! ties-to-even).
//!
//! # Special values
//!
//! Non-finite inputs are tracked by flags, mirroring what an IEEE-754
//! addition chain would produce regardless of order: any NaN — or both
//! +∞ and −∞ — yields the canonical quiet NaN; otherwise a seen infinity
//! wins. A zero integer sum rounds to −0.0 only when every addend was
//! −0.0 (the IEEE round-to-nearest rule for sums of zeros); any other
//! cancellation to zero yields +0.0. Overflow of the rounded magnitude
//! past the largest finite `f32` returns ±∞, exactly as a correctly
//! rounded conversion must.
//!
//! # Capacity
//!
//! The accumulator is 384 bits wide against a maximum addend magnitude
//! below 2²⁷⁷, leaving 2¹⁰⁶ addends of headroom before wraparound could
//! occur — unreachable in practice (the engine sums at most a few hundred
//! values per element; even a u64-indexed stream cannot exhaust it).

/// Number of 64-bit limbs in the superaccumulator (384 bits).
const LIMBS: usize = 6;

/// Exponent-field bias offset: a normal `f32` with biased exponent `e`
/// contributes its 24-bit significand shifted left by `e - 1` in units of
/// 2⁻¹⁴⁹; subnormals (`e == 0`) contribute their raw 23-bit mantissa with
/// shift 0.
const UNIT_EXP: i32 = -149;

/// A fixed-point superaccumulator: the exact sum of any multiset of `f32`
/// values, independent of addition order and of how the work is split
/// across [`merge`](ExactAccumulator::merge)d partial accumulators.
///
/// State is a 384-bit two's-complement integer counting units of 2⁻¹⁴⁹
/// (the smallest positive subnormal), plus flags for non-finite inputs and
/// the signed-zero rule. [`round`](ExactAccumulator::round) converts back
/// to the nearest `f32` (ties to even) in one correctly rounded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactAccumulator {
    /// Little-endian two's-complement integer value, in units of 2⁻¹⁴⁹.
    limbs: [u64; LIMBS],
    /// Any NaN addend was seen.
    saw_nan: bool,
    /// A +∞ addend was seen.
    saw_pos_inf: bool,
    /// A −∞ addend was seen.
    saw_neg_inf: bool,
    /// At least one addend was seen (empty sums round to +0.0).
    saw_any: bool,
    /// An addend other than −0.0 was seen (clears the all-negative-zeros
    /// rule that makes a zero sum round to −0.0).
    saw_non_neg_zero: bool,
}

impl ExactAccumulator {
    /// A fresh, empty accumulator (rounds to +0.0).
    #[must_use]
    pub const fn new() -> ExactAccumulator {
        ExactAccumulator {
            limbs: [0; LIMBS],
            saw_nan: false,
            saw_pos_inf: false,
            saw_neg_inf: false,
            saw_any: false,
            saw_non_neg_zero: false,
        }
    }

    /// Adds one `f32` value exactly.
    #[inline]
    pub fn add(&mut self, v: f32) {
        self.saw_any = true;
        let bits = v.to_bits();
        let negative = bits >> 31 == 1;
        let exp = (bits >> 23) & 0xFF;
        let mantissa = bits & 0x007F_FFFF;
        if exp == 0xFF {
            self.saw_non_neg_zero = true;
            if mantissa != 0 {
                self.saw_nan = true;
            } else if negative {
                self.saw_neg_inf = true;
            } else {
                self.saw_pos_inf = true;
            }
            return;
        }
        if exp == 0 && mantissa == 0 {
            // ±0.0 contributes nothing to the integer value; only the
            // signed-zero rule observes it.
            if !negative {
                self.saw_non_neg_zero = true;
            }
            return;
        }
        self.saw_non_neg_zero = true;
        // Finite nonzero: value = ±m * 2^(shift) units, m < 2^24.
        let (m, shift) = if exp == 0 {
            (u64::from(mantissa), 0u32)
        } else {
            (u64::from(mantissa | 0x0080_0000), exp - 1)
        };
        if negative {
            self.sub_magnitude(m, shift);
        } else {
            self.add_magnitude(m, shift);
        }
    }

    /// Folds another accumulator into this one. The combined state is
    /// bitwise identical to having added both accumulators' inputs to a
    /// single accumulator, in any order — the chunk-split invariance the
    /// parallel scatter relies on.
    pub fn merge(&mut self, other: &ExactAccumulator) {
        let mut carry = false;
        for (dst, &src) in self.limbs.iter_mut().zip(&other.limbs) {
            let (s, c1) = dst.overflowing_add(src);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *dst = s;
            carry = c1 || c2;
        }
        self.saw_nan |= other.saw_nan;
        self.saw_pos_inf |= other.saw_pos_inf;
        self.saw_neg_inf |= other.saw_neg_inf;
        self.saw_any |= other.saw_any;
        self.saw_non_neg_zero |= other.saw_non_neg_zero;
    }

    /// Adds `m << shift` to the integer value.
    #[inline]
    fn add_magnitude(&mut self, m: u64, shift: u32) {
        let limb = (shift / 64) as usize;
        let bit = shift % 64;
        let wide = u128::from(m) << bit;
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        let (s, mut carry) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = s;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < LIMBS && (extra != 0 || carry) {
            let (s, c1) = self.limbs[i].overflowing_add(extra);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            self.limbs[i] = s;
            carry = c1 || c2;
            extra = 0;
            i += 1;
        }
        // A carry out of the top limb wraps mod 2^384 — exactly
        // two's-complement addition against a negative running sum.
    }

    /// Subtracts `m << shift` from the integer value.
    #[inline]
    fn sub_magnitude(&mut self, m: u64, shift: u32) {
        let limb = (shift / 64) as usize;
        let bit = shift % 64;
        let wide = u128::from(m) << bit;
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        let (d, mut borrow) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = d;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < LIMBS && (extra != 0 || borrow) {
            let (d, b1) = self.limbs[i].overflowing_sub(extra);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            self.limbs[i] = d;
            borrow = b1 || b2;
            extra = 0;
            i += 1;
        }
    }

    /// Converts the exact sum to the nearest `f32` (round-to-nearest,
    /// ties-to-even) in one correctly rounded step.
    #[must_use]
    pub fn round(&self) -> f32 {
        if self.saw_nan || (self.saw_pos_inf && self.saw_neg_inf) {
            return f32::NAN;
        }
        if self.saw_pos_inf {
            return f32::INFINITY;
        }
        if self.saw_neg_inf {
            return f32::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            negate(&mut mag);
        }
        let Some(high_bit) = highest_set_bit(&mag) else {
            // Exact zero: −0.0 only if every addend was −0.0.
            return if self.saw_any && !self.saw_non_neg_zero { -0.0 } else { 0.0 };
        };
        let (mut mantissa, mut shift) = if high_bit <= 23 {
            // Fits in 24 bits: exact, no rounding (subnormal or the lowest
            // normal binade).
            (mag[0] as u32, 0u32)
        } else {
            let sh = high_bit - 23;
            let mantissa = extract_24_bits(&mag, sh);
            let round_up = {
                let guard = bit_at(&mag, sh - 1);
                guard && (mantissa & 1 == 1 || any_bit_below(&mag, sh - 1))
            };
            (mantissa + u32::from(round_up), sh)
        };
        if mantissa == 1 << 24 {
            // Rounding carried into the next binade.
            mantissa = 1 << 23;
            shift += 1;
        }
        // With the implicit bit folded in, the f32 bit pattern of
        // mantissa * 2^(shift + UNIT_EXP) is simply (shift << 23) + mantissa
        // — valid across the subnormal/normal boundary. Values past the
        // largest finite pattern overflow to infinity, as correct rounding
        // requires.
        let _ = UNIT_EXP;
        let pattern = (u64::from(shift) << 23) + u64::from(mantissa);
        if pattern >= 0x7F80_0000 {
            return if negative { f32::NEG_INFINITY } else { f32::INFINITY };
        }
        let pattern = pattern as u32 | if negative { 0x8000_0000 } else { 0 };
        f32::from_bits(pattern)
    }
}

/// Two's-complement negation of a multi-limb integer.
fn negate(limbs: &mut [u64; LIMBS]) {
    let mut carry = true;
    for limb in limbs.iter_mut() {
        let (v, c) = (!*limb).overflowing_add(u64::from(carry));
        *limb = v;
        carry = c;
    }
}

/// Index of the highest set bit, or `None` for zero.
fn highest_set_bit(limbs: &[u64; LIMBS]) -> Option<u32> {
    for (i, &limb) in limbs.iter().enumerate().rev() {
        if limb != 0 {
            return Some(i as u32 * 64 + 63 - limb.leading_zeros());
        }
    }
    None
}

/// The 24 bits starting at bit `sh` (the rounded-down significand). The
/// caller guarantees `sh + 23` is the highest set bit.
fn extract_24_bits(limbs: &[u64; LIMBS], sh: u32) -> u32 {
    let limb = (sh / 64) as usize;
    let bit = sh % 64;
    let mut v = limbs[limb] >> bit;
    if bit > 40 && limb + 1 < LIMBS {
        v |= limbs[limb + 1] << (64 - bit);
    }
    (v & 0x00FF_FFFF) as u32
}

/// Whether bit `pos` is set.
fn bit_at(limbs: &[u64; LIMBS], pos: u32) -> bool {
    limbs[(pos / 64) as usize] >> (pos % 64) & 1 == 1
}

/// Whether any bit strictly below `pos` is set.
fn any_bit_below(limbs: &[u64; LIMBS], pos: u32) -> bool {
    let limb = (pos / 64) as usize;
    let bit = pos % 64;
    if bit > 0 && limbs[limb] & ((1u64 << bit) - 1) != 0 {
        return true;
    }
    limbs[..limb].iter().any(|&l| l != 0)
}

/// Exact, order-independent sum of a slice (convenience wrapper).
#[must_use]
pub fn exact_sum(values: &[f32]) -> f32 {
    let mut acc = ExactAccumulator::new();
    for &v in values {
        acc.add(v);
    }
    acc.round()
}
