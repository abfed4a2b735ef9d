//! TriCluster: mining coherent clusters in 3D microarray data.
//!
//! A from-scratch implementation of the SIGMOD 2005 algorithm by Zhao and
//! Zaki. TriCluster mines *maximal, arbitrarily positioned, possibly
//! overlapping* submatrices `X × Y × Z` of a `genes × samples × times`
//! expression matrix such that every 2×2 submatrix along any pair of
//! dimensions has an approximately constant expression-value ratio
//! (a *scaling* cluster; *shifting* clusters are mined through an
//! exponential transform, see [`shift`]).
//!
//! # Pipeline
//!
//! 1. [`rangegraph`] — per time slice, summarize all coherent gene behavior
//!    between sample-column pairs into a *range multigraph*: each maximal
//!    valid ratio range (found by [`range`]) becomes an edge carrying its
//!    gene-set.
//! 2. [`bicluster`] — depth-first constrained clique search over the sample
//!    columns of the range multigraph yields all maximal biclusters of each
//!    time slice.
//! 3. [`tricluster`] — the same set-enumeration over time points, using the
//!    per-slice biclusters as building blocks and checking inter-slice
//!    *temporal coherence*, yields the maximal triclusters.
//! 4. [`prune`] — optional merging/deletion of heavily overlapping clusters
//!    (thresholds `η`, `γ`).
//! 5. [`metrics`] — the paper's cluster-quality metrics.
//!
//! The high-level entry point is [`mine`]; a [`Session`] adds
//! instrumentation, cancellation, and the v2 run report
//! ([`Session::run_report`]):
//!
//! ```
//! use tricluster_core::{mine, Params};
//! use tricluster_matrix::Matrix3;
//!
//! // A tiny matrix where genes 0 and 1 scale together everywhere.
//! let mut m = Matrix3::zeros(3, 3, 2);
//! for t in 0..2 {
//!     for s in 0..3 {
//!         let base = (s + 1) as f64 * (t + 1) as f64;
//!         m.set(0, s, t, base);
//!         m.set(1, s, t, 2.0 * base);
//!         m.set(2, s, t, 7.0 + (s as f64) * (t as f64) + (s as f64 % 2.0) * 3.3);
//!     }
//! }
//! let params = Params::builder()
//!     .min_genes(2)
//!     .min_samples(3)
//!     .min_times(2)
//!     .epsilon(0.01)
//!     .build()
//!     .unwrap();
//! let result = mine(&m, &params).unwrap();
//! assert_eq!(result.triclusters.len(), 1);
//! assert_eq!(result.triclusters[0].genes.to_vec(), vec![0, 1]);
//! ```
//!
//! Fallible conditions (invalid parameters, infinite cells, a memory budget
//! smaller than the input) surface as a typed [`MineError`]; run budgets
//! ([`Params::max_candidates`], [`Params::deadline`], [`Params::max_memory`])
//! and isolated worker failures instead yield an `Ok` result flagged
//! [`truncated`](MiningResult::truncated) with a
//! [`TruncationReason`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bicluster;
pub mod cancel;
pub mod classify;
pub mod cluster;
pub mod coherence;
pub mod engine;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod miner;
pub mod params;
pub mod prune;
pub mod range;
pub mod rangegraph;
pub mod report;
pub mod runreport;
pub mod shift;
pub mod span;
pub mod testdata;
pub mod tricluster;
pub mod validate;

pub use cancel::{resolve_truncation, CancelHandle, CancelToken, TruncationReason};
pub use classify::{classify, ClusterType, Spreads};
pub use cluster::{Bicluster, Tricluster};
pub use engine::{Dataset, Engine, Reported, Session, TenantCaps};
pub use error::MineError;
pub use fault::{WorkerFailure, FAILPOINTS};
pub use metrics::{cluster_metrics_observed, Metrics};
pub use miner::{mine, mine_auto, FanoutDecision, FanoutLevel, MiningResult, Timings};
pub use params::{FanoutMode, MergeParams, Params, ParamsBuilder, ParamsError};
pub use shift::{mine_shifting, ShiftingCluster};

/// Re-export of the observability crate, so downstream users can name sinks
/// and reports without a separate dependency.
pub use tricluster_obs as obs;
