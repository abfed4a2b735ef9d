//! Quickstart: generate a synthetic 3D expression matrix with embedded
//! clusters, mine it, and inspect the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tricluster::prelude::*;

fn main() {
    // 1. A synthetic dataset: 600 genes x 12 samples x 6 time points with
    //    five embedded scaling clusters and 2% measurement noise.
    let spec = SynthSpec {
        n_genes: 600,
        n_samples: 12,
        n_times: 6,
        n_clusters: 5,
        gene_range: (60, 80),
        sample_range: (4, 6),
        time_range: (3, 4),
        overlap_fraction: 0.2,
        noise: 0.02,
        seed: 7,
        ..SynthSpec::default()
    };
    let data = generate(&spec);
    println!(
        "dataset: {} genes x {} samples x {} times, {} embedded clusters\n",
        data.matrix.n_genes(),
        data.matrix.n_samples(),
        data.matrix.n_times(),
        data.truth.len()
    );

    // 2. Mining parameters. `suggested_epsilon` sizes the ratio tolerance
    //    to the generator's noise; minimum cluster shape is 40 x 3 x 2.
    let params = Params::builder()
        .epsilon(spec.suggested_epsilon())
        .min_size(40, 3, 2)
        .build()
        .expect("valid parameters");

    // 3. Mine.
    let result = mine(&data.matrix, &params).unwrap();
    println!(
        "mined {} maximal triclusters in {:?}",
        result.triclusters.len(),
        result.timings.total()
    );
    for (i, c) in result.triclusters.iter().enumerate() {
        let (x, y, z) = c.shape();
        println!(
            "  cluster {i}: {x} genes x {y} samples x {z} times \
             (samples {:?}, times {:?})",
            c.samples, c.times
        );
    }

    // 4. The paper's quality metrics.
    println!(
        "\n{}",
        cluster_metrics_observed(&data.matrix, &result.triclusters, &NullSink)
    );

    // 5. Compare against the embedded ground truth.
    let report = recovery::score(&data.truth, &result.triclusters, 0.8);
    println!(
        "\nrecovery vs ground truth: recall {:.0}%, precision {:.0}%, F1 {:.2}",
        report.recall * 100.0,
        report.precision * 100.0,
        report.f1
    );
}
