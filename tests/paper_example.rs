//! End-to-end reproduction of the paper's running example (Table 1,
//! Figures 1–5) — experiment E1/E2 in DESIGN.md.

use tricluster::core::testdata::{paper_table1, paper_table1_expected};
use tricluster::prelude::*;

fn paper_params() -> Params {
    Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .build()
        .unwrap()
}

fn view(cs: &[Tricluster]) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let mut v: Vec<_> = cs
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect();
    v.sort();
    v
}

/// §2: with mx=my=3, mz=2, ε=0.01 the dataset contains exactly the three
/// maximal clusters C1, C2, C3 spanning both time slices.
#[test]
fn clusters_c1_c2_c3_found_exactly() {
    let result = mine(&paper_table1(), &paper_params()).unwrap();
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(view(&result.triclusters), want);
}

/// §2: "if we set my = 2 we would find another maximal cluster C4 =
/// {g0,g2,g6,g7,g9} × {s1,s4}, which is subsumed by C2 and C3. We shall see
/// later that TRICLUSTER can optionally delete such a cluster in the final
/// steps."
#[test]
fn c4_appears_at_my2_and_merge_pass_deletes_it() {
    let m = paper_table1();
    let p_no_merge = Params::builder()
        .epsilon(0.01)
        .min_size(3, 2, 2)
        .build()
        .unwrap();
    let got = view(&mine(&m, &p_no_merge).unwrap().triclusters);
    let c4 = (vec![0, 2, 6, 7, 9], vec![1usize, 4], vec![0usize, 1]);
    assert!(got.contains(&c4), "C4 missing without merge pass: {got:?}");

    // With the multi-cover deletion rule enabled, C4 (fully covered by
    // C2 ∪ C3) is deleted, exactly as the paper describes.
    let p_merge = Params::builder()
        .epsilon(0.01)
        .min_size(3, 2, 2)
        .merge(MergeParams {
            eta: 0.05,
            gamma: 0.0,
        })
        .build()
        .unwrap();
    let result = mine(&m, &p_merge).unwrap();
    let got = view(&result.triclusters);
    assert!(!got.contains(&c4), "C4 should be deleted: {got:?}");
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(got, want, "C1–C3 survive the merge pass");
    assert!(result.prune_stats.deleted_multicover >= 1);
}

/// §5.2 metrics on the running example: three 24-cell clusters, 8 cells of
/// C2∩C3 overlap.
#[test]
fn metrics_match_hand_computation() {
    let m = paper_table1();
    let result = mine(&m, &paper_params()).unwrap();
    let met = cluster_metrics_observed(&m, &result.triclusters, &NullSink);
    assert_eq!(met.cluster_count, 3);
    assert_eq!(met.element_sum, 72);
    assert_eq!(met.coverage, 64);
    assert!((met.overlap - 0.125).abs() < 1e-12);
    // C2/C3 hold per-gene constants at each time -> zero gene-direction
    // variance would only hold if all genes shared a value; sample-direction
    // variance is 0 for C2/C3 but not C1.
    assert!(met.fluctuation_sample > 0.0);
}

/// The per-slice biclusters match the paper's Figure 5 (three biclusters in
/// each slice, identical index sets).
#[test]
fn per_slice_biclusters_match_figure5() {
    let m = paper_table1();
    let result = mine(&m, &paper_params()).unwrap();
    assert_eq!(result.per_time_biclusters.len(), 2);
    for bcs in &result.per_time_biclusters {
        let mut got: Vec<(Vec<usize>, Vec<usize>)> = bcs
            .iter()
            .map(|b| (b.genes.to_vec(), b.samples.clone()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (vec![0, 2, 6, 9], vec![1, 4, 6]),
                (vec![0, 7, 9], vec![1, 2, 4, 5]),
                (vec![1, 4, 8], vec![0, 1, 4, 6]),
            ]
        );
    }
}

/// Lemma 1 in action: mining the transposed matrix finds the transposed
/// clusters (mine_auto maps them back automatically).
#[test]
fn symmetry_lemma_via_mine_auto() {
    let m = paper_table1();
    let baseline = view(&mine(&m, &paper_params()).unwrap().triclusters);
    let auto = view(
        &mine_auto(&m, &paper_params(), &NullSink)
            .unwrap()
            .triclusters,
    );
    assert_eq!(baseline, auto);
}

/// Mining with mz=1 exposes the per-slice biclusters as triclusters.
#[test]
fn single_slice_mining() {
    let m = paper_table1();
    let p = Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 1)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    // all clusters span both times (they're coherent across slices), so the
    // maximal set is the same three clusters
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(view(&result.triclusters), want);
}
