//! Property-based tests on the core invariants: range finding, span
//! algebra, miner soundness/maximality/determinism, and merge/prune.

use proptest::prelude::*;
use tricluster_bitset::BitSet;
use tricluster_core::obs::NullSink;
use tricluster_core::params::RangeExtension;
use tricluster_core::prune::merge_and_prune_observed;
use tricluster_core::range::{find_ranges, RangeKind, SignGroup};
use tricluster_core::validate::is_valid_cluster;
use tricluster_core::{mine, span, MergeParams, Params, Tricluster};
use tricluster_matrix::Matrix3;

// ---------- range finding ----------

fn ratio_inputs() -> impl Strategy<Value = Vec<(f64, usize)>> {
    proptest::collection::vec(0.1f64..100.0, 0..60).prop_map(|ratios| {
        ratios
            .into_iter()
            .enumerate()
            .map(|(g, r)| (r, g))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ranges_contain_only_and_all_in_interval_genes(
        ratios in ratio_inputs(),
        eps in 0.0f64..0.3,
        mx in 1usize..5,
    ) {
        let n = ratios.len().max(1);
        for ext in [RangeExtension::On, RangeExtension::Off] {
            let ranges = find_ranges(&ratios, SignGroup::Positive, eps, mx, n, ext);
            for (i, r) in ranges.iter().enumerate() {
                prop_assert!(
                    ranges[..i].iter().all(|q| q.genes != r.genes),
                    "gene set repeated: {r:?}"
                );
                prop_assert!(r.lo <= r.hi);
                prop_assert!(r.genes.count() >= mx, "range below mx: {r:?}");
                // a gene is in the range iff its ratio lies in [lo, hi]
                for &(ratio, g) in &ratios {
                    let inside = ratio >= r.lo && ratio <= r.hi;
                    prop_assert_eq!(
                        r.genes.contains(g),
                        inside,
                        "gene {} ratio {} vs [{}, {}]",
                        g, ratio, r.lo, r.hi
                    );
                }
            }
        }
    }

    #[test]
    fn valid_windows_respect_epsilon(
        ratios in ratio_inputs(),
        eps in 0.0f64..0.3,
        mx in 1usize..5,
    ) {
        let n = ratios.len().max(1);
        let ranges = find_ranges(&ratios, SignGroup::Positive, eps, mx, n, RangeExtension::On);
        for r in &ranges {
            match r.kind {
                RangeKind::Valid => {
                    prop_assert!(r.hi / r.lo - 1.0 <= eps + 1e-9, "{r:?}");
                }
                RangeKind::Extended | RangeKind::Split => {
                    prop_assert!(
                        r.hi / r.lo - 1.0 <= 2.0 * eps + 2e-9,
                        "wider than 2ε: {r:?}"
                    );
                }
                RangeKind::Patched => {
                    // patched blocks span [v/(1+ε), v·(1+ε)] around a split
                    // boundary: width (1+ε)² − 1 = 2ε + ε²
                    let bound = (1.0 + eps) * (1.0 + eps) - 1.0;
                    prop_assert!(
                        r.hi / r.lo - 1.0 <= bound + 2e-9,
                        "wider than (1+ε)²−1: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extension_on_covers_every_off_range(
        ratios in ratio_inputs(),
        eps in 0.001f64..0.3,
        mx in 1usize..5,
    ) {
        // every maximal valid window must be fully inside some ON-range
        // union (no genes are lost by chaining/splitting)
        let n = ratios.len().max(1);
        let off = find_ranges(&ratios, SignGroup::Positive, eps, mx, n, RangeExtension::Off);
        let on = find_ranges(&ratios, SignGroup::Positive, eps, mx, n, RangeExtension::On);
        let mut covered = BitSet::new(n);
        for r in &on {
            covered.union_with(&r.genes);
        }
        for r in &off {
            prop_assert!(
                r.genes.is_subset(&covered),
                "genes of a valid window lost with extension on"
            );
        }
    }
}

// ---------- span algebra ----------

fn arb_cluster() -> impl Strategy<Value = Tricluster> {
    (
        proptest::collection::btree_set(0usize..12, 1..6),
        proptest::collection::btree_set(0usize..8, 1..5),
        proptest::collection::btree_set(0usize..6, 1..4),
    )
        .prop_map(|(g, s, t)| {
            Tricluster::new(
                BitSet::from_indices(12, g),
                s.into_iter().collect(),
                t.into_iter().collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn span_formulas_match_enumeration(a in arb_cluster(), b in arb_cluster()) {
        let inter = a.cells().filter(|&(g, s, t)| b.contains_cell(g, s, t)).count();
        prop_assert_eq!(span::intersection_size(&a, &b), inter);
        prop_assert_eq!(span::difference_size(&b, &a), b.span_size() - inter);
        let bound = a.bounding(&b);
        prop_assert_eq!(span::bounding_size(&a, &b), bound.span_size());
        let extra = bound
            .cells()
            .filter(|&(g, s, t)| !a.contains_cell(g, s, t) && !b.contains_cell(g, s, t))
            .count();
        prop_assert_eq!(span::bounding_extra_size(&a, &b), extra);
    }

    #[test]
    fn subcluster_iff_all_cells_contained(a in arb_cluster(), b in arb_cluster()) {
        let by_cells = a.cells().all(|(g, s, t)| b.contains_cell(g, s, t));
        prop_assert_eq!(a.is_subcluster_of(&b), by_cells);
    }

    #[test]
    fn merge_prune_survivors_are_maximal(
        clusters in proptest::collection::vec(arb_cluster(), 0..8),
        eta in 0.0f64..0.5,
        gamma in 0.0f64..0.3,
    ) {
        let (out, _) = merge_and_prune_observed(clusters, &MergeParams { eta, gamma }, &NullSink);
        for (i, a) in out.iter().enumerate() {
            for (j, b) in out.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subcluster_of(b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn merge_prune_never_shrinks_coverage_below_any_survivor(
        clusters in proptest::collection::vec(arb_cluster(), 1..6),
        gamma in 0.0f64..0.3,
    ) {
        // with eta = 0 nothing is deleted, only merged: the union coverage
        // can only grow (bounding clusters are supersets)
        let before: std::collections::HashSet<(usize, usize, usize)> =
            clusters.iter().flat_map(|c| c.cells()).collect();
        let (out, _) = merge_and_prune_observed(clusters, &MergeParams { eta: 0.0, gamma }, &NullSink);
        let after: std::collections::HashSet<(usize, usize, usize)> =
            out.iter().flat_map(|c| c.cells()).collect();
        prop_assert!(after.is_superset(&before));
    }
}

// ---------- miner soundness / determinism ----------

fn arb_matrix() -> impl Strategy<Value = Matrix3> {
    proptest::collection::vec(0.2f64..50.0, 5 * 4 * 2).prop_map(|vals| {
        let mut m = Matrix3::zeros(5, 4, 2);
        m.as_mut_slice().copy_from_slice(&vals);
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mined_clusters_sound_and_maximal(m in arb_matrix(), eps in 0.01f64..0.4) {
        let params = Params::builder()
            .epsilon(eps)
            .min_size(2, 2, 2)
            .build()
            .unwrap();
        let result = mine(&m, &params).unwrap();
        // soundness at the widened tolerance (extension allows 2ε ranges)
        for c in &result.triclusters {
            prop_assert!(
                is_valid_cluster(&m, c, 2.0 * eps + 1e-9, 2.0 * eps + 1e-9, (2, 2, 2)),
                "invalid cluster: {c:?}"
            );
        }
        // mutual maximality
        for (i, a) in result.triclusters.iter().enumerate() {
            for (j, b) in result.triclusters.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subcluster_of(b));
                }
            }
        }
        // determinism
        let again = mine(&m, &params).unwrap();
        prop_assert_eq!(result.triclusters, again.triclusters);
    }

    #[test]
    fn permutation_soundness(m in arb_matrix(), eps in 0.05f64..0.3) {
        // Lemma 1 symmetry: clusters mined from the gene/time-permuted
        // matrix are valid clusters of the original once mapped back.
        // (Exact *count* equality is NOT guaranteed: the paper's own
        // time-extension pruning — intersecting with maximal per-slice
        // biclusters — is orientation-dependent, so different axis orders
        // can keep or drop different corner-case clusters.)
        use tricluster_matrix::Axis;
        let params = Params::builder()
            .epsilon(eps)
            .min_size(2, 2, 2)
            .build()
            .unwrap();
        let twisted = m.permuted([Axis::Time, Axis::Sample, Axis::Gene]);
        for c in &mine(&twisted, &params).unwrap().triclusters {
            // map back: twisted genes = original times, twisted times =
            // original genes
            let mapped = Tricluster::new(
                BitSet::from_indices(m.n_genes(), c.times.iter().copied()),
                c.samples.clone(),
                c.genes.to_vec(),
            );
            prop_assert!(
                is_valid_cluster(
                    &m,
                    &mapped,
                    2.0 * eps + 1e-9,
                    2.0 * eps + 1e-9,
                    (2, 2, 2)
                ),
                "permuted-mined cluster invalid in original coordinates: {mapped:?}"
            );
        }
    }
}
