//! Cluster-quality metrics (paper §5.2).
//!
//! For a set of mined clusters `C`:
//!
//! 1. **Cluster #** — `|C|`.
//! 2. **Element_Sum** — `Σ_C |L_C|`, the sum of spans.
//! 3. **Coverage** — `|L_{∪C}|`, distinct cells covered by any cluster.
//! 4. **Overlap** — `(Element_Sum − Coverage) / Coverage`.
//! 5. **Fluctuation** — the average variance across a given dimension: for
//!    each cluster and each 1-D fiber along that dimension (fixing the
//!    other two coordinates), the population variance of the fiber's
//!    values; averaged over fibers, then over clusters.

use crate::cluster::Tricluster;
use tricluster_matrix::Matrix3;
use tricluster_obs::{names, EventSink, SpanTimer};

/// The paper's five quality metrics (fluctuation reported per dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Number of clusters.
    pub cluster_count: usize,
    /// Sum of cluster spans (cells counted with multiplicity).
    pub element_sum: usize,
    /// Distinct cells covered by at least one cluster.
    pub coverage: usize,
    /// `(element_sum − coverage) / coverage`; `0` when coverage is 0.
    pub overlap: f64,
    /// Average variance along the gene dimension (columns of fixed
    /// sample/time).
    pub fluctuation_gene: f64,
    /// Average variance along the sample dimension.
    pub fluctuation_sample: f64,
    /// Average variance along the time dimension.
    pub fluctuation_time: f64,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Clusters#    {}", self.cluster_count)?;
        writeln!(f, "Elements#    {}", self.element_sum)?;
        writeln!(f, "Coverage     {}", self.coverage)?;
        writeln!(f, "Overlap      {:.2}%", self.overlap * 100.0)?;
        write!(
            f,
            "Fluctuation  T:{:.2}, S:{:.2}, G:{:.2}",
            self.fluctuation_time, self.fluctuation_sample, self.fluctuation_gene
        )
    }
}

/// Computes the metrics of `clusters` over the matrix they were mined
/// from, timing the computation as a `phase.metrics` span and publishing
/// cell counters to `sink`.
pub fn cluster_metrics_observed(
    m: &Matrix3,
    clusters: &[Tricluster],
    sink: &dyn EventSink,
) -> Metrics {
    let _span = SpanTimer::start(sink, names::SPAN_METRICS);
    let cluster_count = clusters.len();
    let element_sum: usize = clusters.iter().map(Tricluster::span_size).sum();

    // Coverage = distinct cells. Cells are packed into their linear matrix
    // index and sorted + deduped; for the dense cell lists clusters produce
    // this beats hashing each (g, s, t) triple (no per-cell hashing, one
    // cache-friendly sort) and is deterministic.
    let stride_t = m.n_times() as u64;
    let stride_s = m.n_samples() as u64 * stride_t;
    let mut covered: Vec<u64> = Vec::with_capacity(element_sum);
    for c in clusters {
        for (g, s, t) in c.cells() {
            covered.push(g as u64 * stride_s + s as u64 * stride_t + t as u64);
        }
    }
    covered.sort_unstable();
    covered.dedup();
    let coverage = covered.len();
    sink.counter(names::MX_CELLS, element_sum as u64);
    sink.counter(names::MX_COVERED, coverage as u64);
    let overlap = if coverage == 0 {
        0.0
    } else {
        (element_sum - coverage) as f64 / coverage as f64
    };

    let fluctuation_gene = average_fiber_variance(m, clusters, Fiber::Gene);
    let fluctuation_sample = average_fiber_variance(m, clusters, Fiber::Sample);
    let fluctuation_time = average_fiber_variance(m, clusters, Fiber::Time);

    Metrics {
        cluster_count,
        element_sum,
        coverage,
        overlap,
        fluctuation_gene,
        fluctuation_sample,
        fluctuation_time,
    }
}

#[derive(Clone, Copy)]
enum Fiber {
    Gene,
    Sample,
    Time,
}

/// Population variance of an iterator of values; `None` for empty input.
fn variance(values: impl Iterator<Item = f64>) -> Option<f64> {
    let vals: Vec<f64> = values.collect();
    if vals.is_empty() {
        return None;
    }
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    Some(vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
}

fn average_fiber_variance(m: &Matrix3, clusters: &[Tricluster], dim: Fiber) -> f64 {
    if clusters.is_empty() {
        return 0.0;
    }
    let mut per_cluster = Vec::with_capacity(clusters.len());
    for c in clusters {
        let mut fiber_vars: Vec<f64> = Vec::new();
        match dim {
            Fiber::Gene => {
                for &s in &c.samples {
                    for &t in &c.times {
                        if let Some(v) = variance(c.genes.iter().map(|g| m.get(g, s, t))) {
                            fiber_vars.push(v);
                        }
                    }
                }
            }
            Fiber::Sample => {
                for g in c.genes.iter() {
                    for &t in &c.times {
                        if let Some(v) = variance(c.samples.iter().map(|&s| m.get(g, s, t))) {
                            fiber_vars.push(v);
                        }
                    }
                }
            }
            Fiber::Time => {
                for g in c.genes.iter() {
                    for &s in &c.samples {
                        if let Some(v) = variance(c.times.iter().map(|&t| m.get(g, s, t))) {
                            fiber_vars.push(v);
                        }
                    }
                }
            }
        }
        if !fiber_vars.is_empty() {
            per_cluster.push(fiber_vars.iter().sum::<f64>() / fiber_vars.len() as f64);
        }
    }
    if per_cluster.is_empty() {
        0.0
    } else {
        per_cluster.iter().sum::<f64>() / per_cluster.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_bitset::BitSet;
    use tricluster_obs::NullSink;

    fn mk(g: &[usize], s: &[usize], t: &[usize]) -> Tricluster {
        Tricluster::new(
            BitSet::from_indices(10, g.iter().copied()),
            s.to_vec(),
            t.to_vec(),
        )
    }

    fn matrix() -> Matrix3 {
        let mut m = Matrix3::zeros(10, 4, 3);
        for g in 0..10 {
            for s in 0..4 {
                for t in 0..3 {
                    m.set(g, s, t, (g + 1) as f64 * (s + 1) as f64 * (t + 1) as f64);
                }
            }
        }
        m
    }

    #[test]
    fn empty_cluster_set() {
        let m = matrix();
        let met = cluster_metrics_observed(&m, &[], &NullSink);
        assert_eq!(met.cluster_count, 0);
        assert_eq!(met.element_sum, 0);
        assert_eq!(met.coverage, 0);
        assert_eq!(met.overlap, 0.0);
        assert_eq!(met.fluctuation_gene, 0.0);
    }

    #[test]
    fn disjoint_clusters_have_zero_overlap() {
        let m = matrix();
        let a = mk(&[0, 1], &[0, 1], &[0]);
        let b = mk(&[2, 3], &[2, 3], &[1]);
        let met = cluster_metrics_observed(&m, &[a, b], &NullSink);
        assert_eq!(met.cluster_count, 2);
        assert_eq!(met.element_sum, 8);
        assert_eq!(met.coverage, 8);
        assert_eq!(met.overlap, 0.0);
    }

    #[test]
    fn overlapping_clusters_counted_once_in_coverage() {
        let m = matrix();
        let a = mk(&[0, 1], &[0, 1], &[0]);
        let b = mk(&[0, 1], &[0, 1], &[0, 1]); // contains a
        let met = cluster_metrics_observed(&m, &[a, b], &NullSink);
        assert_eq!(met.element_sum, 4 + 8);
        assert_eq!(met.coverage, 8);
        assert!((met.overlap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fluctuation_zero_for_constant_fibers() {
        let mut m = Matrix3::zeros(4, 2, 2);
        m.map_in_place(|_| 5.0);
        let c = mk(&[0, 1, 2], &[0, 1], &[0, 1]);
        let met = cluster_metrics_observed(&m, &[c], &NullSink);
        assert_eq!(met.fluctuation_gene, 0.0);
        assert_eq!(met.fluctuation_sample, 0.0);
        assert_eq!(met.fluctuation_time, 0.0);
    }

    #[test]
    fn fluctuation_matches_hand_computation() {
        // matrix values g*(s+1): gene fiber at fixed (s,t) over genes {0,1}
        // with s=0: values 0,1 -> var 0.25; s=1: values 0,2 -> var 1.0
        let mut m = Matrix3::zeros(2, 2, 1);
        for g in 0..2 {
            for s in 0..2 {
                m.set(g, s, 0, (g * (s + 1)) as f64);
            }
        }
        let c = mk(&[0, 1], &[0, 1], &[0]);
        let met = cluster_metrics_observed(&m, &[c], &NullSink);
        assert!((met.fluctuation_gene - (0.25 + 1.0) / 2.0).abs() < 1e-12);
        // sample fibers: gene 0: (0,0) var 0; gene 1: (1,2) var 0.25
        assert!((met.fluctuation_sample - 0.125).abs() < 1e-12);
        // single time point: variance of a singleton fiber is 0
        assert_eq!(met.fluctuation_time, 0.0);
    }

    #[test]
    fn observed_publishes_cell_counters_and_span() {
        let m = matrix();
        let rec = tricluster_obs::Recorder::new();
        let a = mk(&[0, 1], &[0, 1], &[0]);
        let b = mk(&[0, 1], &[0, 1], &[0, 1]);
        let met = cluster_metrics_observed(&m, &[a, b], &rec);
        let report = rec.snapshot();
        assert_eq!(report.counter("metrics.cells"), met.element_sum as u64);
        assert_eq!(
            report.counter("metrics.cells_distinct"),
            met.coverage as u64
        );
        assert_eq!(report.spans["phase.metrics"].count, 1);
    }

    #[test]
    fn display_contains_all_rows() {
        let m = matrix();
        let met = cluster_metrics_observed(&m, &[mk(&[0, 1], &[0], &[0, 1])], &NullSink);
        let s = met.to_string();
        for needle in [
            "Clusters#",
            "Elements#",
            "Coverage",
            "Overlap",
            "Fluctuation",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
