//! Cross-crate flows: TSV round-trips feeding the miner, preprocessing,
//! and shifting-cluster mining (Lemma 2) end-to-end.

use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Write the paper matrix to stacked TSV, read it back, and mine: results
/// identical to mining the in-memory matrix.
#[test]
fn tsv_roundtrip_preserves_mining_results() {
    let m = paper_table1();
    let labels = Labels::default_for(10, 7, 2);
    let mut buf = Vec::new();
    io::write_stacked_tsv(&mut buf, &m, &labels).unwrap();
    let (back, back_labels) = io::read_stacked_tsv(buf.as_slice()).unwrap();
    assert_eq!(back, m);
    assert_eq!(back_labels, labels);
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(
        view(&mine(&back, &paper_params()).unwrap().triclusters),
        want
    );
}

/// Zeros in the raw file are replaced by preprocessing and the matrix
/// becomes minable (ratios defined everywhere).
#[test]
fn zero_replacement_enables_mining() {
    let mut m = paper_table1();
    // blank out some background cells with zeros, as raw exports do
    m.set(3, 3, 0, 0.0);
    m.set(5, 2, 1, 0.0);
    let mut rng = StdRng::seed_from_u64(5);
    let replaced =
        preprocess::replace_zeros(&mut m, preprocess::ZeroReplacement::default(), &mut rng);
    assert_eq!(replaced, 2);
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(view(&mine(&m, &paper_params()).unwrap().triclusters), want);
}

/// Lemma 2 end-to-end: a planted additive cluster is found by
/// `mine_shifting` and reported with its offsets; plain `mine` on the raw
/// matrix does not see it as a scaling cluster.
#[test]
fn shifting_cluster_pipeline() {
    let mut m = Matrix3::zeros(6, 5, 3);
    // background
    let mut v = 0.13;
    m.map_in_place(|_| {
        v = (v * 31.7) % 9.0 + 1.0;
        v
    });
    // genes 0..3 / samples 0..3 / all times: additive offsets per sample
    let offsets = [0.0, 0.9, -0.4, 1.7];
    for g in 0..4 {
        for (s, off) in offsets.iter().enumerate() {
            for t in 0..3 {
                m.set(g, s, t, 2.0 + g as f64 * 0.5 + t as f64 * 0.25 + off);
            }
        }
    }
    let params = Params::builder()
        .epsilon(0.001)
        .min_size(4, 4, 3)
        .build()
        .unwrap();
    let (shifting, _) = mine_shifting(&m, &params).unwrap();
    assert_eq!(shifting.len(), 1, "{shifting:?}");
    let c = &shifting[0];
    assert_eq!(c.cluster.genes.to_vec(), vec![0, 1, 2, 3]);
    assert_eq!(c.cluster.samples, vec![0, 1, 2, 3]);
    for (got, want) in c.sample_offsets.iter().zip(offsets) {
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
    // the same region is NOT multiplicative-coherent: plain mining at the
    // same ε finds nothing of that extent
    let plain = mine(&m, &params).unwrap();
    assert!(
        plain
            .triclusters
            .iter()
            .all(|c| c.genes.count() < 4 || c.samples.len() < 4),
        "additive cluster must not satisfy scaling coherence: {:?}",
        plain.triclusters
    );
}

/// `mine_auto` handles a matrix whose largest dimension is on the time
/// axis (e.g. long time-series with few genes).
#[test]
fn auto_transposition_on_time_heavy_matrix() {
    let m = paper_table1(); // 10 x 7 x 2
    let twisted = m.permuted([Axis::Sample, Axis::Time, Axis::Gene]); // 7 x 2 x 10
    let result = mine_auto(&twisted, &paper_params(), &NullSink).unwrap();
    // clusters in twisted coordinates: genes axis holds samples, samples
    // axis holds times, times axis holds genes
    let mut got: Vec<_> = result
        .triclusters
        .iter()
        .map(|c| (c.times.clone(), c.genes.to_vec(), c.samples.clone()))
        .collect();
    got.sort();
    let mut want = paper_table1_expected();
    want.sort();
    assert_eq!(got, want);
}
