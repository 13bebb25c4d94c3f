//! Unit tests of the superaccumulator oracle in `accum.rs`.

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
