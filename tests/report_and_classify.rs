//! Cross-crate flows for cluster reporting, classification, and the
//! normalization preprocessing.

use tricluster::core::report;
use tricluster::core::testdata::paper_table1;
use tricluster::matrix::normalize;
use tricluster::prelude::*;

fn mined() -> (Matrix3, MiningResult) {
    let m = paper_table1();
    let params = Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .build()
        .unwrap();
    let r = mine(&m, &params).unwrap();
    (m, r)
}

#[test]
fn paper_clusters_classified_by_type() {
    let (m, result) = mined();
    let types: Vec<ClusterType> = result
        .triclusters
        .iter()
        .map(|c| classify(&m, c, 1e-9))
        .collect();
    // C1 (sorted first by gene list {0,2,6,9}) is sample-constant, as is
    // C3; the scaling cluster is {1,4,8}
    assert_eq!(
        types.iter().filter(|t| **t == ClusterType::Scaling).count(),
        1
    );
    assert_eq!(
        types
            .iter()
            .filter(|t| **t == ClusterType::SampleConstant)
            .count(),
        2
    );
}

#[test]
fn csv_report_roundtrips_through_parser() {
    let (m, result) = mined();
    let mut buf = Vec::new();
    report::write_csv(&mut buf, &m, &result.triclusters, 1e-9).unwrap();
    let parsed = report::parse_csv(buf.as_slice(), m.n_genes()).unwrap();
    assert_eq!(parsed, result.triclusters);
}

#[test]
fn text_report_names_everything() {
    let (m, result) = mined();
    let labels = Labels::default_for(10, 7, 2);
    let mut buf = Vec::new();
    report::write_text(&mut buf, &m, &result.triclusters, &labels, 1e-9).unwrap();
    let s = String::from_utf8(buf).unwrap();
    for needle in ["g1 g4 g8", "s1 s4 s6", "t0 t1", "Overlap"] {
        assert!(s.contains(needle), "report missing {needle:?}:\n{s}");
    }
}

/// Quantile normalization must not destroy ratio-coherent structure when
/// the columns already share a distribution shape — and mining still finds
/// clusters in standardized data via the shifting route.
#[test]
fn normalization_pipeline_compatibility() {
    let m = paper_table1();
    // log2 + shifting route finds C1's genes (scaling in raw space =
    // shifting in log space)
    let logm = normalize::log2_transform(&m);
    assert!(
        logm.as_slice().iter().all(|v| v.is_finite()),
        "fixture is positive"
    );
    let params = Params::builder()
        .epsilon(0.015)
        .min_size(3, 3, 2)
        .build()
        .unwrap();
    let shifting = Session::new(params)
        .shifting()
        .run(&logm, &NullSink)
        .unwrap()
        .triclusters;
    assert!(
        shifting.iter().any(|c| c.genes.to_vec() == vec![1, 4, 8]),
        "C1 should appear as a shifting cluster in log space: {:?}",
        shifting
            .iter()
            .map(|c| c.genes.to_vec())
            .collect::<Vec<_>>()
    );
}

#[test]
fn standardize_then_classify() {
    let m = paper_table1();
    let z = normalize::standardize_genes(&m);
    // standardized C2 rows become identical across samples within a slice
    // (they were constant per slice already), so the region stays
    // sample-constant under classification with a loose tolerance
    let c2 = &mined().1.triclusters[0];
    let t = classify(&z, c2, 1e-9);
    assert_eq!(t, ClusterType::SampleConstant, "{t:?}");
}
