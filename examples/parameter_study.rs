//! How the mining parameters shape the result set — a guided tour of
//! `ε`, `mx/my/mz`, the `δ` thresholds, and the merge pass on one noisy
//! synthetic dataset.
//!
//! ```sh
//! cargo run --release --example parameter_study
//! ```

use tricluster::prelude::*;

fn main() {
    let spec = SynthSpec {
        n_genes: 500,
        n_samples: 12,
        n_times: 6,
        n_clusters: 4,
        gene_range: (60, 60),
        sample_range: (5, 5),
        time_range: (3, 3),
        overlap_fraction: 0.25,
        noise: 0.02,
        seed: 99,
        ..SynthSpec::default()
    };
    let data = generate(&spec);
    let base_eps = spec.suggested_epsilon();
    println!(
        "dataset: {:?}, 4 embedded clusters of 60x5x3, 2% noise; suggested ε = {base_eps}\n",
        data.matrix.dims()
    );

    // --- ε sweep: too tight loses clusters, too loose blurs them ---
    println!("ε sweep (mx=40, my=4, mz=2):");
    println!(
        "{:>8}  {:>9} {:>7} {:>9}",
        "ε", "clusters", "recall", "overlap"
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let eps = base_eps * factor;
        let p = Params::builder()
            .epsilon(eps)
            .min_size(40, 4, 2)
            .build()
            .unwrap();
        let r = mine(&data.matrix, &p).unwrap();
        let rec = recovery::score(&data.truth, &r.triclusters, 0.7);
        let met = cluster_metrics_observed(&data.matrix, &r.triclusters, &NullSink);
        println!(
            "{eps:>8.4}  {:>9} {:>6.0}% {:>8.1}%",
            r.triclusters.len(),
            rec.recall * 100.0,
            met.overlap * 100.0
        );
    }

    // --- minimum-size sweep: smaller minima admit fragments ---
    println!("\nminimum-size sweep (ε = suggested):");
    println!("{:>12}  {:>9} {:>7}", "mx x my x mz", "clusters", "recall");
    for (mx, my, mz) in [(20, 3, 2), (30, 4, 2), (40, 4, 3), (55, 5, 3)] {
        let p = Params::builder()
            .epsilon(base_eps)
            .min_size(mx, my, mz)
            .build()
            .unwrap();
        let r = mine(&data.matrix, &p).unwrap();
        let rec = recovery::score(&data.truth, &r.triclusters, 0.7);
        println!(
            "{:>12}  {:>9} {:>6.0}%",
            format!("{mx}x{my}x{mz}"),
            r.triclusters.len(),
            rec.recall * 100.0
        );
    }

    // --- merge pass: the knob for decluttering overlapping output ---
    println!("\nmerge pass (η, γ) on a permissive run (mx=25):");
    let permissive = Params::builder()
        .epsilon(base_eps)
        .min_size(25, 3, 2)
        .build()
        .unwrap();
    let before = mine(&data.matrix, &permissive).unwrap();
    println!("  without merge: {} clusters", before.triclusters.len());
    for (eta, gamma) in [(0.1, 0.05), (0.3, 0.15), (0.5, 0.3)] {
        let p = Params::builder()
            .epsilon(base_eps)
            .min_size(25, 3, 2)
            .merge(MergeParams { eta, gamma })
            .build()
            .unwrap();
        let r = mine(&data.matrix, &p).unwrap();
        println!(
            "  η={eta:.2} γ={gamma:.2}: {} clusters ({} merged, {} deleted)",
            r.triclusters.len(),
            r.prune_stats.merged,
            r.prune_stats.deleted_pairwise + r.prune_stats.deleted_multicover
        );
    }

    // --- cluster types under delta constraints ---
    println!("\nδ^z constraint: keeping only clusters that are flat over time:");
    let flat_time = Params::builder()
        .epsilon(base_eps)
        .min_size(30, 3, 2)
        .delta_time(0.5)
        .build()
        .unwrap();
    let r = mine(&data.matrix, &flat_time).unwrap();
    println!(
        "  {} clusters survive δ^z = 0.5 (synthetic time factors vary, so few/none should)",
        r.triclusters.len()
    );
    for c in r.triclusters.iter().take(3) {
        println!(
            "    {}",
            tricluster::core::report::summary(&data.matrix, c, 1e-6)
        );
    }
}
