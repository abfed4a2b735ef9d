//! End-to-end §5.2 reproduction on the simulated yeast elutriation data
//! (experiments E4/E5 in DESIGN.md), at test-friendly scale.

use tricluster::microarray::go::{self, CatalogSpec};
use tricluster::microarray::yeast::{self, YeastSpec};
use tricluster::prelude::*;
use tricluster::synth::recovery;

fn paper_params() -> Params {
    Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .epsilon_time(0.05) // the paper relaxes ε along the time dimension
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(yeast::PAPER_MIN_TIMES)
        .build()
        .unwrap()
}

#[test]
fn five_clusters_with_zero_overlap() {
    let ds = yeast::build(&YeastSpec::scaled(1200));
    let result = mine(&ds.matrix, &paper_params()).unwrap();
    // §5.2 table shape: 5 clusters, Coverage == Elements#, Overlap 0.00%
    assert_eq!(result.triclusters.len(), 5);
    let met = cluster_metrics_observed(&ds.matrix, &result.triclusters, &NullSink);
    assert_eq!(met.cluster_count, 5);
    assert_eq!(met.coverage, met.element_sum);
    assert_eq!(met.overlap, 0.0);
    // span sum: 4 samples x 5 times x (51+52+57+97+66) genes = 6460 cells
    // (paper reports 6520 with its cluster shapes)
    assert_eq!(met.element_sum, 6460);
    // recovery of the embedded groups is exact
    let report = recovery::score(&ds.embedded, &result.triclusters, 0.99);
    assert_eq!(report.recall, 1.0);
    assert_eq!(report.precision, 1.0);
}

#[test]
fn mined_clusters_have_paper_gene_counts() {
    let ds = yeast::build(&YeastSpec::scaled(1200));
    let result = mine(&ds.matrix, &paper_params()).unwrap();
    let mut sizes: Vec<usize> = result.triclusters.iter().map(|c| c.genes.count()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![51, 52, 57, 66, 97]);
}

#[test]
fn go_enrichment_identifies_marker_terms_per_cluster() {
    let spec = YeastSpec::scaled(1200);
    let ds = yeast::build(&spec);
    let result = mine(&ds.matrix, &paper_params()).unwrap();
    let groups: Vec<Vec<usize>> = ds.embedded.iter().map(|c| c.genes.to_vec()).collect();
    // at 1200 genes (vs the paper's 7679) the default 3-in/8-out markers
    // are not significant for the 97-gene group (expected overlap scales
    // with cluster/genome ratio); strengthen markers proportionally
    let catalog = go::simulate_catalog(
        &CatalogSpec {
            n_genes: spec.n_genes,
            marker_in_group: 5,
            marker_outside_group: 4,
            ..CatalogSpec::default()
        },
        &groups,
    );
    // match each mined cluster back to its embedded group index
    for c in &result.triclusters {
        let gi = groups
            .iter()
            .position(|g| {
                let set: std::collections::HashSet<_> = g.iter().collect();
                c.genes.iter().filter(|x| set.contains(x)).count() * 2 > g.len()
            })
            .expect("mined cluster matches some group");
        let report = go::enrich(&catalog, &c.genes.to_vec(), 0.01);
        assert!(
            report.iter().any(|e| e.term.ends_with(&format!("[C{gi}]"))),
            "cluster {gi}: no marker term significant: {report:?}"
        );
        // Table 2 shape: p-values ascending, all below the cutoff
        for w in report.windows(2) {
            assert!(w[0].p_value <= w[1].p_value);
        }
        for e in &report {
            assert!(e.p_value < 0.01);
            assert!(e.count >= 2);
        }
    }
}

#[test]
fn labels_resolve_mined_indices() {
    let ds = yeast::build(&YeastSpec::scaled(1200));
    let result = mine(&ds.matrix, &paper_params()).unwrap();
    let c = &result.triclusters[0];
    for g in c.genes.iter().take(3) {
        let name = ds.labels.gene(g);
        assert!(name.starts_with('Y'), "gene name {name}");
        assert_eq!(ds.labels.gene_index(&name), Some(g));
    }
    for &s in &c.samples {
        assert!(!ds.labels.sample(s).is_empty());
    }
    for &t in &c.times {
        assert!(ds.labels.time(t).ends_with("min"));
    }
}
