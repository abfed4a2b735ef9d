//! Property-based tests checking `BitSet` against a `BTreeSet<usize>` model.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tricluster_bitset::BitSet;

const UNIVERSE: usize = 257; // deliberately not a multiple of 64

fn model_pair() -> impl Strategy<Value = (BTreeSet<usize>, BTreeSet<usize>)> {
    let set = proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE);
    (set.clone(), set)
}

fn to_bitset(m: &BTreeSet<usize>) -> BitSet {
    BitSet::from_indices(UNIVERSE, m.iter().copied())
}

/// A universe of 1 to 1000 bits with a `self` set of at most `max_self`
/// elements (given the universe's block count) and an `other` set of any
/// density.
fn kernel_case(
    max_self: fn(usize) -> usize,
) -> impl Strategy<Value = (usize, BTreeSet<usize>, BTreeSet<usize>)> {
    (1usize..=1000).prop_flat_map(move |nbits| {
        let most = max_self(nbits.div_ceil(64)).min(nbits);
        let other = (0usize..=100).prop_flat_map(move |pct| {
            proptest::collection::btree_set(0..nbits, 0..=nbits * pct / 100)
        });
        (
            Just(nbits),
            proptest::collection::btree_set(0..nbits, 0..=most),
            other,
        )
    })
}

/// Checks the bounded-count kernels against `|a ∩ b| >= t` for one
/// threshold.
fn check_threshold(sa: &BitSet, sb: &BitSet, a_len: usize, n: usize, t: usize) -> TestCaseResult {
    let want = n >= t;
    prop_assert_eq!(sa.intersection_count_at_least(sb, t), want, "scan t={}", t);
    prop_assert_eq!(
        sa.intersection_count_at_least_sparse(sb, t, a_len),
        want,
        "walk t={}",
        t
    );
    prop_assert_eq!(
        sa.intersection_count_at_least_hinted(sb, t, a_len),
        want,
        "hinted t={}",
        t
    );
    Ok(())
}

proptest! {
    #[test]
    fn roundtrip_via_iter(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        let back: BTreeSet<usize> = s.iter().collect();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn count_matches_model(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        prop_assert_eq!(s.count(), m.len());
        prop_assert_eq!(s.is_empty(), m.is_empty());
    }

    #[test]
    fn intersection_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).intersection(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn union_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).union(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn difference_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).difference(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn symmetric_difference_matches_model((a, b) in model_pair()) {
        let mut s = to_bitset(&a);
        s.symmetric_difference_with(&to_bitset(&b));
        let got: BTreeSet<usize> = s.iter().collect();
        let want: BTreeSet<usize> = a.symmetric_difference(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn intersection_count_agrees((a, b) in model_pair()) {
        let sa = to_bitset(&a);
        let sb = to_bitset(&b);
        let n = a.intersection(&b).count();
        prop_assert_eq!(sa.intersection_count(&sb), n);
        // at_least is consistent at, below, and above the true count
        prop_assert!(sa.intersection_count_at_least(&sb, n));
        if n > 0 {
            prop_assert!(sa.intersection_count_at_least(&sb, n - 1));
        }
        prop_assert!(!sa.intersection_count_at_least(&sb, n + 1));
    }

    #[test]
    fn bounded_count_kernels_match_model_on_small_self(
        (nbits, a, b) in kernel_case(|blocks| 2 * blocks),
    ) {
        // `self` holds at most twice as many elements as the universe has
        // blocks, and the threshold sweeps every value from 0 to |a| + 1:
        // at, below and above the true count. The hinted test walks when
        // (|a| − t + 1) · K ≤ blocks, so the sweep's largest thresholds
        // walk on any universe of K blocks or more, and its smallest scan
        // once |a| · K exceeds the block count, as it does in most cases.
        let sa = BitSet::from_indices(nbits, a.iter().copied());
        let sb = BitSet::from_indices(nbits, b.iter().copied());
        let n = a.intersection(&b).count();
        for t in 0..=a.len() + 1 {
            check_threshold(&sa, &sb, a.len(), n, t)?;
        }
    }

    #[test]
    fn bounded_count_kernels_match_model_at_any_density(
        (nbits, a, b) in kernel_case(|_| usize::MAX),
        pick in 0usize..=1000,
    ) {
        let sa = BitSet::from_indices(nbits, a.iter().copied());
        let sb = BitSet::from_indices(nbits, b.iter().copied());
        let n = a.intersection(&b).count();
        let len = a.len();
        let random = pick * (len + 1) / 1000;
        for t in [0, 1, n.saturating_sub(1), n, n + 1, len, len + 1, random] {
            check_threshold(&sa, &sb, len, n, t)?;
        }
    }

    #[test]
    fn intersect_into_matches_model((a, b) in model_pair(), junk in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        // Scratch starts with arbitrary junk; intersect_into must fully
        // replace it and report the exact cardinality.
        let mut scratch = to_bitset(&junk);
        let n = scratch.intersect_into(&to_bitset(&a), &to_bitset(&b));
        let want: BTreeSet<usize> = a.intersection(&b).copied().collect();
        let got: BTreeSet<usize> = scratch.iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(n, want.len());
        prop_assert_eq!(scratch.capacity(), UNIVERSE);
        prop_assert_eq!(scratch, to_bitset(&a).intersection(&to_bitset(&b)));
    }

    #[test]
    fn subset_matches_model((a, b) in model_pair()) {
        prop_assert_eq!(to_bitset(&a).is_subset(&to_bitset(&b)), a.is_subset(&b));
        prop_assert_eq!(to_bitset(&a).is_disjoint(&to_bitset(&b)), a.is_disjoint(&b));
    }

    #[test]
    fn min_max_match_model(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        prop_assert_eq!(s.min(), m.iter().next().copied());
        prop_assert_eq!(s.max(), m.iter().next_back().copied());
    }

    #[test]
    fn complement_is_involution(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        let mut c = s.clone();
        c.complement_in_place();
        prop_assert_eq!(c.count(), UNIVERSE - s.count());
        prop_assert!(c.is_disjoint(&s));
        c.complement_in_place();
        prop_assert_eq!(c, s);
    }

    #[test]
    fn demorgan((a, b) in model_pair()) {
        // !(A ∪ B) == !A ∩ !B
        let sa = to_bitset(&a);
        let sb = to_bitset(&b);
        let mut lhs = sa.union(&sb);
        lhs.complement_in_place();
        let mut na = sa.clone();
        na.complement_in_place();
        let mut nb = sb.clone();
        nb.complement_in_place();
        prop_assert_eq!(lhs, na.intersection(&nb));
    }

    #[test]
    fn insert_remove_roundtrip(m in proptest::collection::btree_set(0..UNIVERSE, 1..UNIVERSE), idx in 0..UNIVERSE) {
        let mut s = to_bitset(&m);
        let present = m.contains(&idx);
        prop_assert_eq!(s.insert(idx), !present);
        prop_assert!(s.contains(idx));
        prop_assert!(s.remove(idx));
        prop_assert!(!s.contains(idx));
    }
}
