//! E4 — the §5.2 real-data metrics table on the simulated yeast
//! elutriation dataset (`mx=50, my=4, mz=5, ε=0.003`, relaxed along time).
//!
//! ```sh
//! cargo run --release -p tricluster-bench --bin table_real          # scaled
//! TRICLUSTER_FULL=1 cargo run --release -p tricluster-bench --bin table_real
//! ```
//!
//! Paper reference (Spellman elutriation, 7679 x 13 x 14, 17.8 s):
//!
//! ```text
//! Clusters#    5
//! Elements#    6520
//! Coverage     6520
//! Overlap      0.00%
//! Fluctuation  T:626.53, S:163.05, G:407.3
//! ```

use tricluster_bench::full_scale;
use tricluster_core::obs::NullSink;
use tricluster_core::{cluster_metrics_observed, mine, Params};
use tricluster_microarray::yeast::{self, YeastSpec};

fn main() {
    let spec = if full_scale() {
        YeastSpec::default()
    } else {
        YeastSpec::scaled(1500)
    };
    println!(
        "# simulated yeast elutriation: {} genes x {} channels x {} times",
        spec.n_genes, spec.n_samples, spec.n_times
    );
    let ds = yeast::build(&spec);
    let params = Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .epsilon_time(0.05)
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(yeast::PAPER_MIN_TIMES)
        .build()
        .unwrap();
    let start = std::time::Instant::now();
    let result = mine(&ds.matrix, &params).expect("inputs are valid");
    let elapsed = start.elapsed();
    println!(
        "# mined in {:.2} s (paper: 17.8 s on a 1.4 GHz Pentium-M)\n",
        elapsed.as_secs_f64()
    );
    println!(
        "{}",
        cluster_metrics_observed(&ds.matrix, &result.triclusters, &NullSink)
    );
    println!("\n# per-cluster shapes:");
    for (i, c) in result.triclusters.iter().enumerate() {
        let (x, y, z) = c.shape();
        println!("#   C{i}: {x} genes x {y} samples x {z} times");
    }
}
