//! Cluster-type classification (paper §2, cases (a)–(e)).
//!
//! Different `δ` threshold choices make TriCluster mine different cluster
//! *types*; conversely, a mined cluster can be classified after the fact by
//! measuring its value spreads:
//!
//! * **Constant** — identical values everywhere (case a: `δx=δy=δz=0`).
//! * **ApproximatelyConstant** — near-identical values (case b).
//! * **GeneConstant / SampleConstant / TimeConstant** — (case c/d family)
//!   values (approximately) constant along the named dimension's fibers
//!   while scaling freely along the others. E.g. *GeneConstant*: within any
//!   fixed (sample, time) column all genes agree — the cluster's variation
//!   lives in the sample/time dimensions.
//! * **Scaling** — full multiplicative behavior in all dimensions (case e).
//!
//! A cluster mined from `exp(D)` (Lemma 2) is a *shifting* cluster of `D`;
//! that classification lives with [`crate::shift`], not here, because it
//! depends on which matrix the values came from.

use crate::cluster::Tricluster;
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;

/// The cluster types of paper §2. Ordered from most to least constrained;
/// [`classify`] returns the most specific type that applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterType {
    /// All values identical (within `tolerance`).
    Constant,
    /// Values constant within each (sample, time) column — genes agree.
    GeneConstant,
    /// Values constant within each (gene, time) row — samples agree.
    SampleConstant,
    /// Values constant within each (gene, sample) fiber — times agree.
    TimeConstant,
    /// General scaling cluster (coherent ratios, unconstrained spreads).
    Scaling,
}

impl std::fmt::Display for ClusterType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ClusterType::Constant => "constant",
            ClusterType::GeneConstant => "gene-constant",
            ClusterType::SampleConstant => "sample-constant",
            ClusterType::TimeConstant => "time-constant",
            ClusterType::Scaling => "scaling",
        })
    }
}

/// Per-dimension value spreads of a cluster: the largest `max − min` over
/// all 1-D fibers along each dimension. These are exactly the quantities
/// the `δ^x/δ^y/δ^z` thresholds bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spreads {
    /// Largest spread across genes within a fixed (sample, time) column.
    pub gene: f64,
    /// Largest spread across samples within a fixed (gene, time) row.
    pub sample: f64,
    /// Largest spread across times within a fixed (gene, sample) fiber.
    pub time: f64,
}

/// Measures the per-dimension spreads of `c` over `m`.
pub fn spreads(m: &Matrix3, c: &Tricluster) -> Spreads {
    // No spread exceeds an infinite limit, so the walk never stops early.
    let unbounded = Some(f64::INFINITY);
    match fiber_spreads(m, &c.genes, &c.samples, &c.times, [unbounded; 3]) {
        Ok(s) | Err(s) => s,
    }
}

/// Walks the 1-D fibers of the region `genes × samples × times` along each
/// dimension whose limit in `[gene, sample, time]` is set, keeping each
/// dimension's largest spread (`max − min`); an unset dimension is not
/// walked and reads 0. Fibers are walked genes within each
/// `(sample, time)` column, then samples within each `(gene, time)` row,
/// then times within each `(gene, sample)` fiber.
///
/// This is the `δ^x`/`δ^y`/`δ^z` check both DFS phases record through
/// (BICLUSTER passes its slice as the only time and no `δ^z`): `Err` when a
/// fiber's spread exceeds its dimension's limit, holding the spreads walked
/// up to that fiber, where the walk stops.
pub(crate) fn fiber_spreads(
    m: &Matrix3,
    genes: &BitSet,
    samples: &[usize],
    times: &[usize],
    limits: [Option<f64>; 3],
) -> Result<Spreads, Spreads> {
    let mut out = Spreads {
        gene: 0.0,
        sample: 0.0,
        time: 0.0,
    };
    let [gene, sample, time] = limits;
    if let Some(limit) = gene {
        for &s in samples {
            for &t in times {
                let column = genes.iter().map(|g| m.get(g, s, t));
                if !widen(&mut out.gene, column, limit) {
                    return Err(out);
                }
            }
        }
    }
    if let Some(limit) = sample {
        for g in genes.iter() {
            for &t in times {
                let row = samples.iter().map(|&s| m.get(g, s, t));
                if !widen(&mut out.sample, row, limit) {
                    return Err(out);
                }
            }
        }
    }
    if let Some(limit) = time {
        for g in genes.iter() {
            for &s in samples {
                let fiber = times.iter().map(|&t| m.get(g, s, t));
                if !widen(&mut out.time, fiber, limit) {
                    return Err(out);
                }
            }
        }
    }
    Ok(out)
}

/// Raises `widest` to the spread of `values`; `false` when that spread
/// exceeds `limit`.
fn widen(widest: &mut f64, values: impl Iterator<Item = f64>, limit: f64) -> bool {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    *widest = widest.max(hi - lo);
    hi - lo <= limit
}

/// Classifies `c` by its spreads, treating a spread `≤ tolerance` as zero.
///
/// When exactly one dimension's spread exceeds the tolerance the cluster is
/// *not* constant along the two others — e.g. only the time spread nonzero
/// means each time slice of the cluster is a constant block that scales
/// over time, which this function reports as [`ClusterType::TimeConstant`]'s
/// *complement* family: constant along genes **and** samples. To keep the
/// taxonomy simple we report the dimension(s) of agreement:
///
/// * all spreads ≤ tol → `Constant`
/// * gene spread ≤ tol (others free) → `GeneConstant`
/// * sample spread ≤ tol → `SampleConstant`
/// * time spread ≤ tol → `TimeConstant`
/// * otherwise → `Scaling`
///
/// Ties (two dimensions within tolerance) pick the first in gene → sample →
/// time order, matching the paper's case ordering.
pub fn classify(m: &Matrix3, c: &Tricluster, tolerance: f64) -> ClusterType {
    let s = spreads(m, c);
    let g0 = s.gene <= tolerance;
    let s0 = s.sample <= tolerance;
    let t0 = s.time <= tolerance;
    match (g0, s0, t0) {
        (true, true, true) => ClusterType::Constant,
        (true, _, _) => ClusterType::GeneConstant,
        (_, true, _) => ClusterType::SampleConstant,
        (_, _, true) => ClusterType::TimeConstant,
        _ => ClusterType::Scaling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::paper_table1;
    use tricluster_bitset::BitSet;

    fn tri(g: &[usize], s: &[usize], t: &[usize]) -> Tricluster {
        Tricluster::new(
            BitSet::from_indices(10, g.iter().copied()),
            s.to_vec(),
            t.to_vec(),
        )
    }

    #[test]
    fn constant_block() {
        let mut m = Matrix3::zeros(3, 3, 2);
        m.map_in_place(|_| 4.0);
        let c = tri(&[0, 1, 2], &[0, 1, 2], &[0, 1]);
        assert_eq!(classify(&m, &c, 0.0), ClusterType::Constant);
        let s = spreads(&m, &c);
        assert_eq!((s.gene, s.sample, s.time), (0.0, 0.0, 0.0));
    }

    #[test]
    fn tolerance_absorbs_jitter() {
        let mut m = Matrix3::zeros(2, 2, 2);
        for g in 0..2 {
            for s in 0..2 {
                for t in 0..2 {
                    // constant 4.0 with ±0.01 jitter in every dimension
                    let jitter = [0.0, 0.01, -0.01, 0.0][(g * 2 + s + t) % 4];
                    m.set(g, s, t, 4.0 + jitter);
                }
            }
        }
        let c = tri(&[0, 1], &[0, 1], &[0, 1]);
        assert_eq!(classify(&m, &c, 0.03), ClusterType::Constant);
        assert_eq!(classify(&m, &c, 0.001), ClusterType::Scaling);
    }

    /// Paper case (c): every gene agrees within a column but the cluster
    /// scales across samples and times.
    #[test]
    fn gene_constant_block() {
        let mut m = Matrix3::zeros(3, 2, 2);
        for g in 0..3 {
            for s in 0..2 {
                for t in 0..2 {
                    // value depends only on (s, t), not on g
                    m.set(g, s, t, (s + 1) as f64 * (t + 1) as f64);
                }
            }
        }
        let c = tri(&[0, 1, 2], &[0, 1], &[0, 1]);
        assert_eq!(classify(&m, &c, 1e-12), ClusterType::GeneConstant);
    }

    #[test]
    fn sample_and_time_constant_blocks() {
        let mut m = Matrix3::zeros(2, 2, 2);
        for g in 0..2 {
            for s in 0..2 {
                for t in 0..2 {
                    m.set(g, s, t, (g + 1) as f64 * (t + 1) as f64); // no s
                }
            }
        }
        let c = tri(&[0, 1], &[0, 1], &[0, 1]);
        assert_eq!(classify(&m, &c, 1e-12), ClusterType::SampleConstant);

        let mut m2 = Matrix3::zeros(2, 2, 2);
        for g in 0..2 {
            for s in 0..2 {
                for t in 0..2 {
                    m2.set(g, s, t, (g + 1) as f64 * (s + 1) as f64); // no t
                }
            }
        }
        assert_eq!(classify(&m2, &c, 1e-12), ClusterType::TimeConstant);
    }

    /// The paper's clusters: C1 scales everywhere; C2/C3 hold per-gene
    /// constants within each slice (sample-constant) but scale over time.
    #[test]
    fn paper_clusters_classification() {
        let m = paper_table1();
        let c1 = tri(&[1, 4, 8], &[0, 1, 4, 6], &[0, 1]);
        assert_eq!(classify(&m, &c1, 1e-9), ClusterType::Scaling);
        let c2 = tri(&[0, 2, 6, 9], &[1, 4, 6], &[0, 1]);
        assert_eq!(classify(&m, &c2, 1e-9), ClusterType::SampleConstant);
        let c3 = tri(&[0, 7, 9], &[1, 2, 4, 5], &[0, 1]);
        assert_eq!(classify(&m, &c3, 1e-9), ClusterType::SampleConstant);
    }

    #[test]
    fn spreads_match_hand_computation() {
        let m = paper_table1();
        // C1's widest column is s0: 9.0 − 3.0; widest row is g4: 9.0 − 3.0
        // at t0 but 10.8 − 3.6 at t1; widest time fiber is g4/s0: 10.8 − 9.0
        let c1 = tri(&[1, 4, 8], &[0, 1, 4, 6], &[0, 1]);
        let s = spreads(&m, &c1);
        assert!(
            (s.gene - 7.2).abs() < 1e-9,
            "t1 column s0: 10.8-3.6 = 7.2, got {}",
            s.gene
        );
        assert!(
            (s.sample - 7.2).abs() < 1e-9,
            "t1 row g4: 10.8-3.6, got {}",
            s.sample
        );
        assert!((s.time - 1.8).abs() < 1e-9, "{}", s.time);
    }

    #[test]
    fn display_names() {
        assert_eq!(ClusterType::Constant.to_string(), "constant");
        assert_eq!(ClusterType::Scaling.to_string(), "scaling");
        assert_eq!(ClusterType::GeneConstant.to_string(), "gene-constant");
    }
}
