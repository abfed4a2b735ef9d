//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * range multigraph vs recomputing pair ranges at every DFS node,
//! * extended/split/patched ranges on vs off,
//! * the merge/prune pass cost.

use tricluster_bench::harness::bench;
use tricluster_bench::nocache;
use tricluster_core::bicluster::mine_biclusters_profiled;
use tricluster_core::obs::NullSink;
use tricluster_core::params::RangeExtension;
use tricluster_core::rangegraph::build_range_graph_observed;
use tricluster_core::{mine, MergeParams, Params};
use tricluster_synth::{generate, SynthSpec};

fn spec() -> SynthSpec {
    SynthSpec {
        n_genes: 300,
        n_samples: 10,
        n_times: 4,
        n_clusters: 4,
        gene_range: (40, 40),
        sample_range: (4, 4),
        time_range: (3, 3),
        overlap_fraction: 0.2,
        noise: 0.02,
        seed: 13,
        ..SynthSpec::default()
    }
}

fn bench_multigraph_vs_nocache() {
    let s = spec();
    let data = generate(&s);
    let params = Params::builder()
        .epsilon(s.suggested_epsilon())
        .min_size(20, 3, 2)
        .build()
        .unwrap();
    bench("ablation_multigraph/with_range_multigraph", || {
        let rg = build_range_graph_observed(&data.matrix, 0, &params, &NullSink).0;
        mine_biclusters_profiled(&data.matrix, &rg, &params, false).0
    });
    bench("ablation_multigraph/ranges_recomputed_per_node", || {
        nocache::mine_biclusters_nocache(&data.matrix, 0, &params)
    });
}

fn bench_range_extension() {
    let s = spec();
    let data = generate(&s);
    for (label, ext) in [
        ("extension_on", RangeExtension::On),
        ("extension_off", RangeExtension::Off),
    ] {
        let params = Params::builder()
            .epsilon(s.suggested_epsilon())
            .min_size(30, 4, 2)
            .range_extension(ext)
            .build()
            .unwrap();
        bench(&format!("ablation_extension/{label}"), || {
            mine(&data.matrix, &params)
        });
    }
}

fn bench_merge_prune() {
    let s = SynthSpec {
        overlap_fraction: 0.6,
        ..spec()
    };
    let data = generate(&s);
    let base = Params::builder()
        .epsilon(s.suggested_epsilon())
        .min_size(25, 3, 2);
    let without = base.clone().build().unwrap();
    let with = base
        .merge(MergeParams {
            eta: 0.25,
            gamma: 0.1,
        })
        .build()
        .unwrap();
    bench("ablation_merge/without_merge_pass", || {
        mine(&data.matrix, &without)
    });
    bench("ablation_merge/with_merge_pass", || {
        mine(&data.matrix, &with)
    });
}

fn main() {
    bench_multigraph_vs_nocache();
    bench_range_extension();
    bench_merge_prune();
}
