//! Bench behind E7: TriCluster's per-slice bicluster phase vs the pCluster
//! baseline on the same (simulated yeast) slice.

use tricluster_baselines::pcluster;
use tricluster_bench::harness::bench;
use tricluster_core::bicluster::mine_biclusters_profiled;
use tricluster_core::obs::NullSink;
use tricluster_core::rangegraph::build_range_graph_observed;
use tricluster_core::Params;
use tricluster_matrix::Matrix2;
use tricluster_microarray::yeast::{self, YeastSpec};

fn main() {
    let ds = yeast::build(&YeastSpec::scaled(1200));
    let params = Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(1)
        .build()
        .unwrap();
    let raw = ds.matrix.time_slice(0);
    let mut log_slice = Matrix2::zeros(raw.rows(), raw.cols());
    for r in 0..raw.rows() {
        for col in 0..raw.cols() {
            log_slice.set(r, col, raw.get(r, col).abs().max(1e-12).ln());
        }
    }
    let delta = (1.0 + yeast::PAPER_EPSILON).ln();

    bench("baseline_cmp/tricluster_slice", || {
        let rg = build_range_graph_observed(&ds.matrix, 0, &params, &NullSink).0;
        mine_biclusters_profiled(&ds.matrix, &rg, &params, false).0
    });
    bench("baseline_cmp/pcluster_slice", || {
        pcluster::mine_pclusters(
            &log_slice,
            delta,
            yeast::PAPER_MIN_GENES,
            yeast::PAPER_MIN_SAMPLES,
        )
    });
}
