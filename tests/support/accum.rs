//! Test oracle: an order-independent, correctly rounded `f32` sum.
//!
//! The engine accumulates each output row in plain FP32, in one canonical
//! order. This module is what `tests/exact_accumulation.rs` measures that
//! against: [`ExactAccumulator`], a fixed-point *superaccumulator*. Every
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f32) -> u32 {
        v.to_bits()
    }

    #[test]
    fn exact_simple_sums() {
        assert_eq!(exact_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact_sum(&[]), 0.0);
        assert_eq!(exact_sum(&[0.5; 7]), 3.5);
        assert_eq!(exact_sum(&[-1.5, 1.0]), -0.5);
    }

    #[test]
    fn exact_catastrophic_cancellation() {
        // Naive summation returns 0.0 here; the exact sum is 1.0.
        assert_eq!(exact_sum(&[1.0e30, 1.0, -1.0e30]), 1.0);
        // Cancellation down to the smallest subnormal.
        let tiny = f32::from_bits(1); // 2^-149
        assert_eq!(bits(exact_sum(&[1.0, tiny, -1.0])), bits(tiny));
    }

    #[test]
    fn exact_subnormal_arithmetic() {
        let tiny = f32::from_bits(1);
        assert_eq!(bits(exact_sum(&[tiny, tiny, tiny])), bits(f32::from_bits(3)));
        assert_eq!(bits(exact_sum(&[tiny, -tiny])), bits(0.0));
        // Subnormals summing up into the normal range.
        let sub = f32::from_bits(0x007F_FFFF); // largest subnormal
        let sum2 = exact_sum(&[sub, sub]);
        assert_eq!(f64::from(sum2), 2.0 * f64::from(sub));
    }

    #[test]
    fn exact_ties_round_to_even() {
        // 2^24 + 1 is exactly halfway between 2^24 and 2^24 + 2: RN-even
        // keeps 2^24 (even mantissa).
        let big = (1u32 << 24) as f32;
        assert_eq!(exact_sum(&[big, 1.0]), big);
        // 2^24 + 2 + 1 rounds up to 2^24 + 4 (ties to even again).
        let odd = big + 2.0;
        assert_eq!(exact_sum(&[odd, 1.0]), big + 4.0);
        // A sticky bit below the guard breaks the tie upward.
        assert_eq!(exact_sum(&[big, 1.0, f32::from_bits(1)]), big + 2.0);
    }

    #[test]
    fn exact_overflow_to_infinity() {
        assert_eq!(exact_sum(&[f32::MAX, f32::MAX]), f32::INFINITY);
        assert_eq!(exact_sum(&[f32::MIN, f32::MIN]), f32::NEG_INFINITY);
        // MAX + MAX - MAX is exactly MAX again: no spurious overflow.
        assert_eq!(exact_sum(&[f32::MAX, f32::MAX, -f32::MAX]), f32::MAX);
        // Just past the rounding boundary overflows; exactly at MAX stays.
        let half_ulp = 2.0f32.powi(103); // 0.5 * ulp(MAX) = 2^103
        assert_eq!(exact_sum(&[f32::MAX, half_ulp]), f32::INFINITY, "tie rounds to even (inf)");
        assert_eq!(exact_sum(&[f32::MAX, half_ulp * 0.5]), f32::MAX);
    }

    #[test]
    fn exact_special_values() {
        assert!(exact_sum(&[f32::NAN, 1.0]).is_nan());
        assert!(exact_sum(&[f32::INFINITY, f32::NEG_INFINITY]).is_nan());
        assert_eq!(exact_sum(&[f32::INFINITY, -1.0e38]), f32::INFINITY);
        assert_eq!(exact_sum(&[f32::NEG_INFINITY, f32::MAX]), f32::NEG_INFINITY);
    }

    #[test]
    fn exact_signed_zero_rules() {
        assert_eq!(bits(exact_sum(&[-0.0, -0.0])), bits(-0.0));
        assert_eq!(bits(exact_sum(&[-0.0])), bits(-0.0));
        assert_eq!(bits(exact_sum(&[-0.0, 0.0])), bits(0.0));
        assert_eq!(bits(exact_sum(&[0.0, -0.0])), bits(0.0));
        assert_eq!(bits(exact_sum(&[1.0, -1.0])), bits(0.0), "cancellation yields +0");
        assert_eq!(bits(exact_sum(&[-0.0, 1.0, -1.0])), bits(0.0));
    }

    #[test]
    fn exact_order_independent_with_specials() {
        let vals = [f32::INFINITY, 1.0, -0.0, f32::MAX, -f32::MAX];
        let fwd = exact_sum(&vals);
        let rev: Vec<f32> = vals.iter().rev().copied().collect();
        assert_eq!(bits(fwd), bits(exact_sum(&rev)));
    }

    #[test]
    fn merge_matches_single_pass() {
        let vals = [3.5e12_f32, -1.0, 7.25e-30, 1.0e38, -9.9e37, 0.125];
        let mut whole = ExactAccumulator::new();
        for v in vals {
            whole.add(v);
        }
        for split in 0..=vals.len() {
            let mut a = ExactAccumulator::new();
            let mut b = ExactAccumulator::new();
            for &v in &vals[..split] {
                a.add(v);
            }
            for &v in &vals[split..] {
                b.add(v);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
            assert_eq!(bits(a.round()), bits(whole.round()));
        }
    }

    #[test]
    fn round_matches_f64_when_f64_is_exact() {
        // Sums whose exact value fits f64 round identically to the f64
        // route (f64 -> f32 of an exactly represented value is correctly
        // rounded by definition).
        let cases: &[&[f32]] = &[
            &[1.0e8, 1.0, 1.0, 1.0],
            &[0.1, 0.2, 0.3],
            &[1.5e-45, 1.0e-40, -2.0e-41],
            &[123456.78, -0.0012345, 9.0e-8],
        ];
        for vals in cases {
            let exact: f64 = vals.iter().map(|&v| f64::from(v)).sum();
            assert_eq!(bits(exact_sum(vals)), bits(exact as f32), "{vals:?}");
        }
    }
}
