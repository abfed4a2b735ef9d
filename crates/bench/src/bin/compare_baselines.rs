//! E7 — runtime comparison against the baselines (§3.3 / §5.2): TriCluster
//! vs pCluster on per-slice bicluster mining, plus Cheng–Church for
//! reference. The paper's claim to reproduce in shape: *"\[pCluster\] runs
//! much slower than TRICLUSTER on real microarray datasets."*
//!
//! Both miners get equivalent work: the same slice, thresholds chosen so
//! both mine the embedded structure (TriCluster multiplicative ε on raw
//! values; pCluster additive δ on log-values, which is the same pattern
//! class by Lemma 2).
//!
//! ```sh
//! cargo run --release -p tricluster-bench --bin compare_baselines
//! TRICLUSTER_FULL=1 cargo run --release -p tricluster-bench --bin compare_baselines
//! ```

use std::time::Instant;
use tricluster_baselines::chengchurch::{self, CcParams};
use tricluster_baselines::jiang::{self, JiangParams};
use tricluster_baselines::pcluster;
use tricluster_bench::full_scale;
use tricluster_core::bicluster::mine_biclusters_profiled;
use tricluster_core::obs::NullSink;
use tricluster_core::rangegraph::build_range_graph_observed;
use tricluster_core::Params;
use tricluster_matrix::Matrix2;
use tricluster_microarray::yeast::{self, YeastSpec};

fn main() {
    let spec = if full_scale() {
        YeastSpec::default()
    } else {
        YeastSpec::scaled(2000)
    };
    let ds = yeast::build(&spec);
    println!(
        "# yeast slice comparison: {} genes x {} channels, {} time slices",
        spec.n_genes, spec.n_samples, spec.n_times
    );

    let params = Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(1)
        .build()
        .unwrap();

    // pCluster mines additive windows; on ln-transformed values an additive
    // window of width delta equals a multiplicative window of ratio
    // e^delta ~ 1+delta, so delta = ln(1+eps) gives the same pattern class.
    let delta = (1.0 + yeast::PAPER_EPSILON).ln();

    println!("\nslice,tricluster_s,tricluster_found,pcluster_s,pcluster_found");
    let slices = if full_scale() { spec.n_times } else { 4 };
    let mut tri_total = 0.0;
    let mut pc_total = 0.0;
    for t in 0..slices {
        let t0 = Instant::now();
        let rg = build_range_graph_observed(&ds.matrix, t, &params, &NullSink).0;
        let bcs = mine_biclusters_profiled(&ds.matrix, &rg, &params, false).0;
        let tri_s = t0.elapsed().as_secs_f64();

        // pCluster input: the ln-transformed slice
        let raw = ds.matrix.time_slice(t);
        let mut log_slice = Matrix2::zeros(raw.rows(), raw.cols());
        for r in 0..raw.rows() {
            for c in 0..raw.cols() {
                log_slice.set(r, c, raw.get(r, c).abs().max(1e-12).ln());
            }
        }
        let t1 = Instant::now();
        let pcs = pcluster::mine_pclusters(
            &log_slice,
            delta,
            yeast::PAPER_MIN_GENES,
            yeast::PAPER_MIN_SAMPLES,
        );
        let pc_s = t1.elapsed().as_secs_f64();

        println!("{t},{tri_s:.3},{},{pc_s:.3},{}", bcs.len(), pcs.len());
        tri_total += tri_s;
        pc_total += pc_s;
    }
    println!(
        "\n# totals over {slices} slices: TriCluster {tri_total:.3} s, \
         pCluster {pc_total:.3} s ({}x)",
        (pc_total / tri_total.max(1e-9)).round()
    );

    // Jiang et al. (the prior gene-sample-time method) on a gene subset —
    // its pairwise-correlation table is O(n^2) in genes, so it cannot run
    // at full genome scale; that asymmetry is itself part of the story.
    let jiang_genes = 400.min(spec.n_genes);
    let sub = {
        use tricluster_matrix::Matrix3;
        let mut s = Matrix3::zeros(jiang_genes, spec.n_samples, spec.n_times);
        for g in 0..jiang_genes {
            for c in 0..spec.n_samples {
                for t in 0..spec.n_times {
                    s.set(g, c, t, ds.matrix.get(g, c, t));
                }
            }
        }
        s
    };
    let t3 = Instant::now();
    let jg = jiang::mine_gene_sample_clusters(
        &sub,
        &JiangParams {
            min_correlation: 0.95,
            min_genes: 5,
            min_samples: yeast::PAPER_MIN_SAMPLES,
        },
    );
    println!(
        "\n# Jiang et al. (gene-sample-time, full time dimension) on {jiang_genes} genes: \
         {} clusters in {:.3} s — time subsets not expressible",
        jg.len(),
        t3.elapsed().as_secs_f64()
    );

    // Cheng-Church for reference: greedy, finds one cluster per pass, and
    // cannot enumerate overlaps — report its runtime and residues.
    let slice = ds.matrix.time_slice(0);
    let t2 = Instant::now();
    let ccs = chengchurch::mine_delta_biclusters(
        &slice,
        &CcParams {
            delta: 50.0,
            n_clusters: 5,
            min_rows: yeast::PAPER_MIN_GENES,
            min_cols: yeast::PAPER_MIN_SAMPLES,
            mask_range: (0.0, 2000.0),
            ..CcParams::default()
        },
    );
    println!(
        "\n# Cheng-Church on slice 0: {} clusters in {:.3} s (greedy, \
         residues {:?})",
        ccs.len(),
        t2.elapsed().as_secs_f64(),
        ccs.iter().map(|c| c.residue.round()).collect::<Vec<_>>()
    );
}
