//! Property tests for the powers-of-4 histogram (`rrfd_obs::hist`),
//! cross-checked against the exact sample-quantile definition every
//! bench binary uses (`rrfd_bench::quantile`).
//!
//! Two contracts:
//!
//! 1. **Bucket boundaries.** Every observation lands in the bucket whose
//!    inclusive upper bound is the smallest `4^k ≥ value`; boundary
//!    values `4^k` and `4^k + 1` fall on opposite sides.
//! 2. **Quantile bracketing.** For any sample, the histogram's
//!    `q`-quantile is exactly the smallest bucket bound at or above the
//!    exact ceiling-nearest-rank quantile of the raw sample — the
//!    tightest upper bound the bucket layout can express — and `None`
//!    precisely when the exact quantile overflows the largest bound.
//! 3. **Merging is observing.** Merging the histograms of any split of a
//!    sample equals observing the whole sample in one histogram — the
//!    property the recorder's stripe merge relies on.

use proptest::prelude::*;
use rrfd::obs::{Histogram, BUCKET_BOUNDS};
use rrfd_bench::quantile;

/// The smallest finite bucket bound at or above `value`, `None` when the
/// value overflows the layout.
fn tightest_bound(value: u64) -> Option<u64> {
    BUCKET_BOUNDS.iter().copied().find(|&b| value <= b)
}

#[test]
fn boundary_values_split_exactly_at_powers_of_four() {
    for (k, &bound) in BUCKET_BOUNDS.iter().enumerate() {
        // 4^k itself is the last value of bucket k…
        let mut h = Histogram::new();
        h.observe(bound);
        assert_eq!(h.snapshot().buckets, vec![(bound, 1)], "at bound {bound}");
        // …and 4^k + 1 is the first value of bucket k+1 (or overflow).
        let mut h = Histogram::new();
        h.observe(bound + 1);
        let snap = h.snapshot();
        match BUCKET_BOUNDS.get(k + 1) {
            Some(&next) => assert_eq!(snap.buckets, vec![(next, 1)], "past bound {bound}"),
            None => assert!(snap.buckets.is_empty(), "overflow past {bound}"),
        }
        assert_eq!(snap.count, 1);
    }
}

proptest! {
    #[test]
    fn every_observation_lands_in_its_tightest_bucket(value in any::<u64>()) {
        let mut h = Histogram::new();
        h.observe(value);
        let snap = h.snapshot();
        match tightest_bound(value) {
            Some(bound) => prop_assert_eq!(snap.buckets, vec![(bound, 1)]),
            None => prop_assert!(snap.buckets.is_empty(), "overflow bucket is implicit"),
        }
        prop_assert_eq!(snap.count, 1);
        prop_assert_eq!(snap.sum, value);
    }

    #[test]
    fn histogram_quantile_is_the_tightest_bound_on_the_exact_quantile(
        values in prop::collection::vec(0u64..(1u64 << 34), 1..120),
        q_pick in 0usize..=100,
    ) {
        let q = q_pick as f64 / 100.0;
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = quantile(&sorted, q);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        match snap.quantile(q) {
            Some(bound) => {
                // The bound brackets the exact quantile from above…
                prop_assert!(bound >= exact, "bound {bound} < exact {exact}");
                // …and is the tightest bound the layout can express.
                prop_assert_eq!(Some(bound), tightest_bound(exact));
            }
            None => prop_assert!(
                tightest_bound(exact).is_none(),
                "histogram reported overflow but exact quantile {exact} fits"
            ),
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        values in prop::collection::vec(0u64..(1u64 << 31), 1..80),
        lo_pick in 0usize..=100,
        hi_pick in 0usize..=100,
    ) {
        let (lo, hi) = if lo_pick <= hi_pick { (lo_pick, hi_pick) } else { (hi_pick, lo_pick) };
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        let q_lo = snap.quantile(lo as f64 / 100.0);
        let q_hi = snap.quantile(hi as f64 / 100.0);
        match (q_lo, q_hi) {
            (Some(a), Some(b)) => prop_assert!(a <= b, "q{lo}={a} > q{hi}={b}"),
            // Once a quantile falls in the overflow bucket, every higher
            // quantile must too.
            (None, Some(b)) => prop_assert!(false, "q{lo} overflowed but q{hi}={b} did not"),
            _ => {}
        }
    }

    #[test]
    fn merging_the_parts_of_any_split_equals_observing_the_whole(
        values in prop::collection::vec(any::<u64>(), 0..120),
        cuts in prop::collection::vec(0usize..=120, 0..6),
    ) {
        let mut whole = Histogram::new();
        for &v in &values {
            whole.observe(v);
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        let mut merged = Histogram::new();
        for pair in bounds.windows(2) {
            let mut part = Histogram::new();
            for &v in &values[pair[0]..pair[1]] {
                part.observe(v);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.snapshot(), whole.snapshot());
        prop_assert_eq!(merged, whole);
    }
}
