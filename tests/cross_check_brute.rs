//! Cross-check: the TriCluster miner against the exact brute-force oracle
//! on small matrices.
//!
//! With `RangeExtension::Off` the miner's ranges use the exact `ε`
//! semantics of the cluster definition, so its output should match the
//! exhaustive enumeration:
//!
//! * **soundness** — every mined cluster is a valid maximal cluster (it
//!   appears in the brute-force set), and
//! * **completeness** — every brute-force cluster is mined.
//!
//! One known, paper-inherited incompleteness corner exists: when extending
//! along time, TriCluster intersects with *maximal* per-slice biclusters
//! and prunes the whole branch if the intersected region is temporally
//! incoherent, even if a gene/sample *subset* of it would have been
//! coherent ("If the extended bicluster has no such coherent values in the
//! intersection region, TRICLUSTER will prune it", §4.3). The seeds below
//! avoid that corner; `completeness_corner_documented` demonstrates it.

use tricluster::baselines::brute;
use tricluster::core::params::RangeExtension;
use tricluster::prelude::*;

fn view(cs: &[Tricluster]) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let mut v: Vec<_> = cs
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect();
    v.sort();
    v
}

fn exact_params(eps: f64, mx: usize, my: usize, mz: usize) -> Params {
    Params::builder()
        .epsilon(eps)
        .min_genes(mx)
        .min_samples(my)
        .min_times(mz)
        .range_extension(RangeExtension::Off)
        .build()
        .unwrap()
}

/// Deterministic pseudo-random matrix with a scaling cluster planted on
/// genes 0..3 × samples 0..3 × the first `slices` time slices.
fn random_matrix_with_cluster(
    seed: u64,
    ng: usize,
    ns: usize,
    nt: usize,
    slices: usize,
) -> Matrix3 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64 / 100.0 + 1.0 // 1.00 .. 101.00
    };
    let mut m = Matrix3::zeros(ng, ns, nt);
    for g in 0..ng {
        for s in 0..ns {
            for t in 0..nt {
                m.set(g, s, t, next());
            }
        }
    }
    for g in 0..3.min(ng) {
        for s in 0..3.min(ns) {
            for t in 0..slices.min(nt) {
                m.set(
                    g,
                    s,
                    t,
                    (g + 1) as f64 * [1.0, 2.5, 4.0][s] * (t + 1) as f64,
                );
            }
        }
    }
    m
}

#[test]
fn miner_matches_brute_force_on_planted_matrices() {
    for seed in 0..12u64 {
        let m = random_matrix_with_cluster(seed, 6, 4, 3, 2);
        let params = exact_params(0.02, 2, 2, 2);
        let mined = view(&mine(&m, &params).unwrap().triclusters);
        let brute = view(&brute::mine_exhaustive(&m, &params));
        assert_eq!(mined, brute, "mismatch at seed {seed}");
    }
}

#[test]
fn miner_matches_brute_force_with_loose_epsilon() {
    // larger ε makes random coincidences (and thus nontrivial clusters)
    // common — a stronger stress of the search. Seeds 400.. have 4–5
    // slices with the cluster planted on all of them: the time DFS reaches
    // the same region under many time subsets, so slice pairs are checked
    // for coherence many times over (unlike the 2–3-slice seeds).
    let three_slices = (100..108u64).map(|seed| (seed, 3, 2));
    let every_slice = (400..412u64).map(|seed| {
        let nt = 4 + seed as usize % 2;
        (seed, nt, nt)
    });
    for (seed, nt, slices) in three_slices.chain(every_slice) {
        let m = random_matrix_with_cluster(seed, 5, 4, nt, slices);
        let params = exact_params(0.25, 2, 2, 2);
        let mined = view(&mine(&m, &params).unwrap().triclusters);
        let brute = view(&brute::mine_exhaustive(&m, &params));
        assert_eq!(mined, brute, "mismatch at seed {seed}");
    }
}

/// The DFS size bounds at their extremes, with the cluster planted on
/// every slice and every sample. `mz` equal to the planted span lets the
/// time DFS's root expand only its first slice, and `my` equal to
/// `n_samples` leaves BICLUSTER one top-level branch; one below each, the
/// bounds cut at depth 1. The miner must still find exactly the brute
/// force's clusters.
#[test]
fn miner_matches_brute_force_at_the_size_bounds() {
    for seed in 400..412u64 {
        let nt = 4 + seed as usize % 2;
        let m = random_matrix_with_cluster(seed, 5, 3, nt, nt);
        for (eps, my, mz) in [
            (0.02, 2, nt),
            (0.02, 2, nt - 1),
            (0.02, 3, nt),
            (0.25, 3, 2),
            (0.25, 2, 2),
            (0.25, 3, nt - 1),
        ] {
            let params = exact_params(eps, 2, my, mz);
            let mined = view(&mine(&m, &params).unwrap().triclusters);
            let brute = view(&brute::mine_exhaustive(&m, &params));
            assert_eq!(
                mined, brute,
                "mismatch at seed {seed}, eps {eps}, my {my}, mz {mz}"
            );
        }
    }
}

#[test]
fn miner_matches_brute_force_with_deltas() {
    for seed in 200..206u64 {
        let m = random_matrix_with_cluster(seed, 5, 4, 2, 2);
        let params = Params::builder()
            .epsilon(0.1)
            .min_genes(2)
            .min_samples(2)
            .min_times(2)
            .delta_gene(40.0)
            .delta_sample(60.0)
            .delta_time(50.0)
            .range_extension(RangeExtension::Off)
            .build()
            .unwrap();
        let mined = view(&mine(&m, &params).unwrap().triclusters);
        let brute = view(&brute::mine_exhaustive(&m, &params));
        assert_eq!(mined, brute, "mismatch at seed {seed}");
    }
}

/// δ gates recording, not expansion: a candidate the δ check rejects is
/// not recorded, and the DFS does not look for its sub-regions that would
/// pass, so equality with the brute force can fail here by design (on
/// these seeds the miner keeps 2 of the brute force's 3 clusters). What
/// must hold is soundness. δ^z = 12 rejects candidates at the TRICLUSTER
/// recording step (the planted cluster's time fibers span up to 24), and
/// every mined cluster still meets the cluster definition and every δ.
#[test]
fn tricluster_delta_rejections_are_sound() {
    use tricluster::core::obs::names;
    use tricluster::core::validate::{deltas_ok, is_valid_cluster};
    let mut rejected = 0;
    for seed in 500..512u64 {
        let m = random_matrix_with_cluster(seed, 5, 4, 3, 3);
        let params = Params {
            delta_time: Some(12.0),
            ..exact_params(0.02, 2, 2, 2)
        };
        let result = mine(&m, &params).unwrap();
        rejected += result.report.counter(names::TC_REJECTED_DELTA);
        for c in &result.triclusters {
            assert!(
                deltas_ok(&m, c, None, None, params.delta_time),
                "seed {seed}: {c:?} breaks δ^z"
            );
            assert!(
                is_valid_cluster(&m, c, params.epsilon, params.epsilon_time, (2, 2, 2)),
                "seed {seed}: mined cluster invalid: {c:?}"
            );
        }
    }
    assert!(rejected > 0, "δ^z never rejected a candidate");
}

#[test]
fn mined_clusters_are_always_sound() {
    use tricluster::core::validate::is_valid_cluster;
    // soundness holds even with extension ON, at the extension's widened
    // tolerance (extended/split ranges span up to 2ε, and the 2x2 plane
    // conditions allow another factor-of-two of global drift)
    for seed in 300..310u64 {
        let m = random_matrix_with_cluster(seed, 7, 4, 3, 2);
        let params = Params::builder()
            .epsilon(0.05)
            .min_genes(2)
            .min_samples(2)
            .min_times(2)
            .build()
            .unwrap();
        let result = mine(&m, &params).unwrap();
        for c in &result.triclusters {
            assert!(
                is_valid_cluster(&m, c, 2.0 * 0.05 + 1e-9, 2.0 * 0.05 + 1e-9, (2, 2, 2)),
                "seed {seed}: mined cluster invalid at 2ε: {c:?}"
            );
        }
    }
}

/// The completeness corner inherited from the paper (§4.3 pruning): the
/// miner may drop a cluster whose *bicluster-intersection* region is
/// temporally incoherent even though a subset region is coherent. This test
/// documents the behavior rather than asserting equality.
#[test]
fn completeness_corner_documented() {
    // genes 0,1,2 × samples 0,1 are one bicluster in both slices (all rows
    // scale), but only genes {0,1} stay coherent across time; gene 2's time
    // ratio differs. Brute finds {0,1}x{0,1}x{0,1}; the miner intersects
    // with the maximal bicluster {0,1,2}x{0,1} first.
    let mut m = Matrix3::zeros(3, 2, 2);
    for g in 0..3 {
        for s in 0..2 {
            let v = (g + 1) as f64 * [1.0, 3.0][s];
            m.set(g, s, 0, v);
            let time_factor = if g == 2 { 7.0 } else { 2.0 };
            m.set(g, s, 1, v * time_factor);
        }
    }
    let params = exact_params(0.001, 2, 2, 2);
    let brute = view(&brute::mine_exhaustive(&m, &params));
    assert!(
        brute.contains(&(vec![0, 1], vec![0, 1], vec![0, 1])),
        "{brute:?}"
    );
    let mined = view(&mine(&m, &params).unwrap().triclusters);
    // Depending on the per-slice bicluster set, the miner either finds the
    // subset cluster or prunes it; both are acceptable TriCluster behavior.
    for c in &mined {
        assert!(brute.contains(c), "mined cluster not valid/maximal: {c:?}");
    }
}

/// Why dropping range edges without same-pair support in another slice is
/// not exact as it stands. On this 6 × 3 × 2 input the miner and the brute
/// force agree on one cluster, `{g3, g5} × {s0, s1} × {t0, t1}`. t0 holds
/// its region only in `{g1, g3, g5} × {s0, s1}`, and t1 in
/// `{g1..g5} × {s0, s1}` and `{g3, g5} × {s0, s1, s2}`. Through the first
/// t1 bicluster the time DFS meets `{g1, g3, g5} × {s0, s1}`, which is
/// incoherent across the slices, and prunes it (the §4.3 corner), so the
/// miner reaches the cluster only through the second. That one needs t1's
/// edge on `(s1, s2)` with genes `{g3, g5}`, which shares fewer than `mx`
/// genes with every t0 edge on `(s1, s2)`. A prune that keeps only edges
/// with same-pair support drops it; what is left of the bicluster,
/// `{g3, g5} × {s0, s1}`, is not maximal, and the corner loses the cluster.
#[test]
fn same_pair_support_is_not_enough_to_keep_an_edge() {
    use tricluster::bitset::BitSet;
    use tricluster::core::rangegraph::build_range_graph_observed;
    use tricluster::core::validate::is_valid_cluster;
    let rows = [
        [
            [3., 1., 3.],
            [1., 1., 2.],
            [3., 1., 3.],
            [3., 3., 1.],
            [2., 1., 1.],
            [2., 3., 2.],
        ],
        [
            [1., 3., 3.],
            [2., 2., 1.],
            [2., 2., 1.],
            [1., 1., 2.],
            [3., 3., 2.],
            [1., 1., 3.],
        ],
    ];
    let mut m = Matrix3::zeros(6, 3, 2);
    for (t, slice) in rows.iter().enumerate() {
        for (g, row) in slice.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                m.set(g, s, t, v);
            }
        }
    }
    let params = exact_params(0.5, 2, 2, 2);
    let want = vec![(vec![3, 5], vec![0, 1], vec![0, 1])];
    assert_eq!(view(&brute::mine_exhaustive(&m, &params)), want);
    let result = mine(&m, &params).unwrap();
    assert_eq!(view(&result.triclusters), want);

    let covering = |t: usize| -> Vec<_> {
        result.per_time_biclusters[t]
            .iter()
            .filter(|b| b.genes.contains(3) && b.genes.contains(5))
            .filter(|b| b.samples.starts_with(&[0, 1]))
            .map(|b| (b.genes.to_vec(), b.samples.clone()))
            .collect()
    };
    assert_eq!(covering(0), vec![(vec![1, 3, 5], vec![0, 1])]);
    assert_eq!(
        covering(1),
        vec![
            (vec![1, 2, 3, 4, 5], vec![0, 1]),
            (vec![3, 5], vec![0, 1, 2])
        ]
    );
    let pruned = Tricluster::new(BitSet::from_indices(6, [1, 3, 5]), vec![0, 1], vec![0, 1]);
    assert!(!is_valid_cluster(&m, &pruned, 0.5, 0.5, (2, 2, 2)));

    let edges = |t| build_range_graph_observed(&m, t, &params, &NullSink).0;
    let (t0, t1) = (edges(0), edges(1));
    let needed: Vec<_> = t1
        .ranges_between(1, 2)
        .iter()
        .filter(|r| r.genes.to_vec() == [3, 5])
        .collect();
    assert_eq!(needed.len(), 1);
    for r in t0.ranges_between(1, 2) {
        assert!(
            r.genes.intersection_count(&needed[0].genes) < params.min_genes,
            "t0 edge {:?} supports it",
            r.genes
        );
    }
}
