//! The merge/delete post-processing (paper §4.4) on the paper's own
//! running example: with `my = 2` the extra cluster
//! `C4 = {g0,g2,g6,g7,g9} × {s1,s4}` appears, fully covered by `C2 ∪ C3`;
//! the multi-cover deletion rule removes it.
//!
//! ```sh
//! cargo run --release --example overlap_merge
//! ```

use tricluster::core::testdata::paper_table1;
use tricluster::prelude::*;

fn describe(label: &str, clusters: &[Tricluster]) {
    println!("{label}: {} clusters", clusters.len());
    for c in clusters {
        println!(
            "  genes {:?} x samples {:?} x times {:?}  ({} cells)",
            c.genes.to_vec(),
            c.samples,
            c.times,
            c.span_size()
        );
    }
}

fn main() {
    let m = paper_table1();
    println!("Table 1 running example, mx=3, my=2, mz=2, ε=0.01\n");

    // Without the merge pass: C1, C2, C3 and the subsumed-in-spirit C4.
    let plain = Params::builder()
        .epsilon(0.01)
        .min_size(3, 2, 2)
        .build()
        .unwrap();
    let before = mine(&m, &plain).unwrap();
    describe("without merge/prune", &before.triclusters);

    // With the multi-cover deletion rule (η = 0.05): C4's 20 cells are all
    // inside C2 ∪ C3, so its uncovered fraction is 0 < η and it is deleted.
    let merged = Params::builder()
        .epsilon(0.01)
        .min_size(3, 2, 2)
        .merge(MergeParams {
            eta: 0.05,
            gamma: 0.0,
        })
        .build()
        .unwrap();
    let after = mine(&m, &merged).unwrap();
    println!();
    describe("with merge/prune (η = 0.05)", &after.triclusters);
    println!(
        "\nprune stats: {} merged, {} deleted pairwise, {} deleted multi-cover",
        after.prune_stats.merged,
        after.prune_stats.deleted_pairwise,
        after.prune_stats.deleted_multicover
    );

    // Metrics before and after: overlap drops.
    let met_before = cluster_metrics_observed(&m, &before.triclusters, &NullSink);
    let met_after = cluster_metrics_observed(&m, &after.triclusters, &NullSink);
    println!(
        "\noverlap before: {:.1}%   after: {:.1}%",
        met_before.overlap * 100.0,
        met_after.overlap * 100.0
    );
}
