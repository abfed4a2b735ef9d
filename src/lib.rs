//! TriCluster — mining coherent clusters in 3D microarray data.
//!
//! A production-quality Rust reproduction of *"TRICLUSTER: An Effective
//! Algorithm for Mining Coherent Clusters in 3D Microarray Data"* (Zhao &
//! Zaki, SIGMOD 2005). This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the TriCluster algorithm: range multigraph, bicluster/tricluster mining, merge/prune, metrics |
//! | [`matrix`] | dense labeled 2D/3D matrices, TSV I/O, preprocessing |
//! | [`bitset`] | the gene-set bitset |
//! | [`graph`] | simple graph + maximal-clique substrate |
//! | [`synth`] | the paper's synthetic data generator + recovery scoring |
//! | [`microarray`] | simulated yeast cell-cycle data + GO enrichment |
//! | [`baselines`] | brute-force oracle, pCluster, Cheng–Church |
//!
//! # Quickstart
//!
//! ```
//! use tricluster::prelude::*;
//!
//! // Generate a small synthetic dataset with 3 embedded clusters…
//! let spec = SynthSpec {
//!     n_genes: 200, n_samples: 8, n_times: 4, n_clusters: 3,
//!     gene_range: (30, 30), sample_range: (4, 4), time_range: (3, 3),
//!     noise: 0.0, ..SynthSpec::default()
//! };
//! let data = generate(&spec);
//!
//! // …mine it…
//! let params = Params::builder()
//!     .epsilon(0.001)
//!     .min_size(20, 3, 2)
//!     .build()
//!     .unwrap();
//! let result = mine(&data.matrix, &params).unwrap();
//!
//! // …and every embedded cluster is recovered exactly.
//! let report = recovery::score(&data.truth, &result.triclusters, 0.99);
//! assert_eq!(report.recall, 1.0);
//! ```

pub use tricluster_baselines as baselines;
pub use tricluster_bitset as bitset;
pub use tricluster_core as core;
pub use tricluster_graph as graph;
pub use tricluster_matrix as matrix;
pub use tricluster_microarray as microarray;
pub use tricluster_synth as synth;

/// One-stop imports for typical use.
pub mod prelude {
    pub use tricluster_core::obs::{self, NullSink};
    pub use tricluster_core::{
        classify, cluster_metrics_observed, mine, Bicluster, ClusterType, FanoutLevel, MergeParams,
        Metrics, MineError, MiningResult, Params, Reported, Session, Tricluster, TruncationReason,
        WorkerFailure,
    };
    pub use tricluster_matrix::{io, preprocess, Axis, Labels, Matrix2, Matrix3};
    pub use tricluster_synth::{generate, recovery, SynthDataset, SynthSpec};
}
