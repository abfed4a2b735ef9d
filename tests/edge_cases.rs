//! Degenerate and boundary inputs through the public pipeline: the library
//! must behave sensibly (empty results, not panics) on the smallest and
//! emptiest matrices a caller can construct.

use tricluster::prelude::*;

fn loose_params() -> Params {
    Params::builder()
        .epsilon(0.1)
        .min_size(1, 1, 1)
        .build()
        .unwrap()
}

#[test]
fn single_cell_matrix() {
    let mut m = Matrix3::zeros(1, 1, 1);
    m.set(0, 0, 0, 5.0);
    let result = mine(&m, &loose_params()).unwrap();
    // one gene x one sample x one time is a (trivial) maximal cluster
    assert_eq!(result.triclusters.len(), 1);
    assert_eq!(result.triclusters[0].span_size(), 1);
}

#[test]
fn zero_genes() {
    let m = Matrix3::zeros(0, 3, 2);
    let result = mine(&m, &loose_params()).unwrap();
    assert!(result.triclusters.is_empty());
    assert!(!result.truncated);
}

#[test]
fn zero_samples() {
    let m = Matrix3::zeros(4, 0, 2);
    let result = mine(&m, &loose_params()).unwrap();
    assert!(result.triclusters.is_empty());
}

#[test]
fn zero_times() {
    let m = Matrix3::zeros(4, 3, 0);
    let result = mine(&m, &loose_params()).unwrap();
    assert!(result.triclusters.is_empty());
    assert!(result.per_time_biclusters.is_empty());
}

#[test]
fn single_time_slice() {
    let mut m = Matrix3::zeros(3, 3, 1);
    for g in 0..3 {
        for s in 0..3 {
            m.set(g, s, 0, (g + 1) as f64 * [1.0, 2.0, 3.0][s]);
        }
    }
    let p = Params::builder()
        .epsilon(0.001)
        .min_size(2, 2, 1)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    assert_eq!(result.triclusters.len(), 1);
    assert_eq!(result.triclusters[0].shape(), (3, 3, 1));
}

#[test]
fn all_zero_matrix_yields_nothing_beyond_trivial() {
    // zeros have no defined ratios; without preprocessing, no cluster with
    // ≥2 samples (which would need a ratio range) can exist. Single-column
    // single-slice regions are *vacuously* coherent — no 2x2 submatrix
    // exists — so with min sizes of 1 the miner correctly reports them.
    let m = Matrix3::zeros(4, 3, 2);
    let p = Params::builder()
        .epsilon(0.1)
        .min_size(2, 2, 1)
        .build()
        .unwrap();
    assert!(mine(&m, &p).unwrap().triclusters.is_empty());
    // and the vacuous case: each (sample, time) fiber of all genes
    let trivial = mine(&m, &loose_params()).unwrap();
    assert_eq!(trivial.triclusters.len(), 6, "3 samples x 2 times fibers");
    assert!(trivial.triclusters.iter().all(|c| c.samples.len() == 1));
}

#[test]
fn nan_cells_are_skipped() {
    let mut m = Matrix3::zeros(3, 3, 2);
    for g in 0..3 {
        for s in 0..3 {
            for t in 0..2 {
                m.set(g, s, t, (g + 1) as f64 * (s + 1) as f64 * (t + 1) as f64);
            }
        }
    }
    m.set(0, 0, 0, f64::NAN);
    let p = Params::builder()
        .epsilon(0.001)
        .min_size(2, 2, 2)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    // the NaN cell removes g0 from ranges involving (s0, t0); the clean
    // 2x3x2 block on genes 1,2 must still be found
    assert!(
        result
            .triclusters
            .iter()
            .any(|c| c.genes.contains(1) && c.genes.contains(2) && c.samples.len() == 3),
        "{:?}",
        result.triclusters
    );
}

#[test]
fn negative_only_matrix() {
    // all-negative values: ratios are positive, mining works unchanged
    let mut m = Matrix3::zeros(3, 3, 2);
    for g in 0..3 {
        for s in 0..3 {
            for t in 0..2 {
                m.set(g, s, t, -((g + 1) as f64 * (s + 1) as f64 * (t + 1) as f64));
            }
        }
    }
    let p = Params::builder()
        .epsilon(0.001)
        .min_size(3, 3, 2)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    assert_eq!(result.triclusters.len(), 1);
    assert_eq!(result.triclusters[0].shape(), (3, 3, 2));
}

#[test]
fn thresholds_larger_than_matrix() {
    let m = Matrix3::zeros(3, 3, 2);
    let p = Params::builder()
        .epsilon(0.1)
        .min_size(10, 10, 10)
        .build()
        .unwrap();
    assert!(mine(&m, &p).unwrap().triclusters.is_empty());
}

#[test]
fn duplicate_columns_cluster_together() {
    // two identical sample columns always form a ratio-1 range
    let mut m = Matrix3::zeros(4, 3, 1);
    for g in 0..4 {
        let v = 1.0 + g as f64 * 1.7;
        m.set(g, 0, 0, v);
        m.set(g, 1, 0, v);
        m.set(g, 2, 0, 100.0 + (g as f64 * 37.3) % 11.0);
    }
    let p = Params::builder()
        .epsilon(0.0)
        .min_size(4, 2, 1)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    assert_eq!(result.triclusters.len(), 1);
    assert_eq!(result.triclusters[0].samples, vec![0, 1]);
}

#[test]
fn metrics_on_empty_result() {
    let m = Matrix3::zeros(3, 3, 2);
    let p = Params::builder()
        .epsilon(0.1)
        .min_size(2, 2, 2)
        .build()
        .unwrap();
    let result = mine(&m, &p).unwrap();
    assert!(result.triclusters.is_empty());
    let met = cluster_metrics_observed(&m, &result.triclusters, &NullSink);
    assert_eq!(met.cluster_count, 0);
    assert_eq!(met.coverage, 0);
    assert_eq!(met.overlap, 0.0);
}

#[test]
fn epsilon_zero_requires_exact_ratios() {
    let mut m = Matrix3::zeros(2, 2, 1);
    m.set(0, 0, 0, 1.0);
    m.set(0, 1, 0, 2.0);
    m.set(1, 0, 0, 3.0);
    m.set(1, 1, 0, 6.000001); // ratio off by 1.7e-7
    let p = Params::builder()
        .epsilon(0.0)
        .min_size(2, 2, 1)
        .build()
        .unwrap();
    assert!(mine(&m, &p).unwrap().triclusters.is_empty());
    let p = Params::builder()
        .epsilon(1e-6)
        .min_size(2, 2, 1)
        .build()
        .unwrap();
    assert_eq!(mine(&m, &p).unwrap().triclusters.len(), 1);
}
