//! Graph substrate for TriCluster: a simple undirected graph and
//! maximal-clique enumeration.
//!
//! [`Graph`] stores adjacency as per-vertex bitsets, and
//! [`maximal_cliques`] enumerates its maximal cliques by Bron–Kerbosch with
//! pivoting (degeneracy ordering at the outer level). The miner itself does
//! not use it: the range multigraph is a range list per column pair
//! (`tricluster_core::rangegraph::RangeGraph`), searched by BICLUSTER's
//! constrained clique DFS. The enumerator is kept as the building block of
//! exact clique formulations, such as a region's slice-coherence graph, and
//! is pinned by this crate's property tests and the `micro` benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clique;
mod simple;

pub use clique::maximal_cliques;
pub use simple::Graph;
