//! The paper's §5.2 real-data workflow on the simulated yeast cell-cycle
//! elutriation dataset: mine triclusters at the paper's parameters, print
//! the metrics table, and run GO-term enrichment on each cluster (Table 2).
//!
//! ```sh
//! cargo run --release --example yeast_cellcycle            # scaled (fast)
//! TRICLUSTER_FULL=1 cargo run --release --example yeast_cellcycle  # 7679 genes
//! ```

use tricluster::microarray::go::{self, CatalogSpec};
use tricluster::microarray::yeast::{self, YeastSpec};
use tricluster::prelude::*;

fn main() {
    let full = std::env::var("TRICLUSTER_FULL").is_ok();
    let spec = if full {
        YeastSpec::default() // 7679 x 13 x 14, the paper's shape
    } else {
        YeastSpec::scaled(1500)
    };
    println!(
        "building simulated elutriation dataset: {} genes x {} channels x {} times…",
        spec.n_genes, spec.n_samples, spec.n_times
    );
    let ds = yeast::build(&spec);

    // The paper's §5.2 parameters: mx=50, my=4, mz=5, eps=0.003 with the
    // ratio threshold relaxed along the time dimension.
    let params = Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .epsilon_time(0.05)
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(yeast::PAPER_MIN_TIMES)
        .build()
        .unwrap();

    let t0 = std::time::Instant::now();
    let result = mine(&ds.matrix, &params).unwrap();
    println!(
        "TriCluster output {} clusters in {:.1?} (paper: 5 clusters in 17.8 s)\n",
        result.triclusters.len(),
        t0.elapsed()
    );
    println!(
        "{}\n",
        cluster_metrics_observed(&ds.matrix, &result.triclusters, &NullSink)
    );

    // Cluster membership in input names.
    for (i, c) in result.triclusters.iter().enumerate() {
        let genes: Vec<String> = c.genes.iter().take(5).map(|g| ds.labels.gene(g)).collect();
        let channels: Vec<String> = c.samples.iter().map(|&s| ds.labels.sample(s)).collect();
        let times: Vec<String> = c.times.iter().map(|&t| ds.labels.time(t)).collect();
        println!(
            "C{i}: {} genes ({}…), channels [{}], times [{}]",
            c.genes.count(),
            genes.join(", "),
            channels.join(", "),
            times.join(", ")
        );
    }

    // GO enrichment per cluster (Table 2 shape).
    let groups: Vec<Vec<usize>> = ds.embedded.iter().map(|c| c.genes.to_vec()).collect();
    let catalog = go::simulate_catalog(
        &CatalogSpec {
            n_genes: spec.n_genes,
            ..CatalogSpec::default()
        },
        &groups,
    );
    println!("\nSignificant shared GO terms (p < 0.01):");
    for (i, c) in result.triclusters.iter().enumerate() {
        let report = go::enrich(&catalog, &c.genes.to_vec(), 0.01);
        println!("  C{i} ({} genes):", c.genes.count());
        for cat in go::GoCategory::ALL {
            let terms: Vec<String> = report
                .iter()
                .filter(|e| e.category == cat)
                .take(3)
                .map(|e| e.to_string())
                .collect();
            if !terms.is_empty() {
                println!("    {cat}: {}", terms.join(", "));
            }
        }
    }
}
