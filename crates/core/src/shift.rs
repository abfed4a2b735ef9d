//! Shifting-cluster mining via the exponential transform (paper Lemma 2).
//!
//! A *shifting* cluster has `c_ib = β_i + c_ia` with `|β_i − β_j| ≤ ε` —
//! rows differ by an approximately constant additive offset. Lemma 2: if
//! `e^C` is a scaling cluster then `C` is a shifting cluster, with
//! `β = ln(α)`. So mining scaling clusters on `exp(D)` finds exactly the
//! shifting clusters of `D`: [`Session::shifting`](crate::Session::shifting)
//! makes a run do that, and [`sample_offsets`] estimates a mined cluster's
//! offsets.
//!
//! Caveat carried over from the lemma: the ε tolerance applies to the
//! *exponentiated* ratios, i.e. offsets are compared as `|e^{β_i - β_j}| - 1
//! ≤ ε`, which for small ε is `|β_i − β_j| ≲ ε`.
//!
//! Values should be of moderate magnitude (`|v| ≲ 700`) or `exp` will
//! overflow; microarray log-expression data satisfies this by construction.
//! Values large enough to overflow `exp` surface as
//! [`MineError::NonFiniteInput`](crate::MineError::NonFiniteInput) on the
//! transformed matrix.

use crate::cluster::Tricluster;
use tricluster_matrix::Matrix3;

/// The additive offset `β` of each of `c`'s samples relative to its first
/// sample, estimated from `m` as `β_j = mean over (g,t) of
/// m[g][s_j][t] − m[g][s_0][t]`. Empty for a cluster without samples.
pub fn sample_offsets(m: &Matrix3, c: &Tricluster) -> Vec<f64> {
    let Some(&s0) = c.samples.first() else {
        return Vec::new();
    };
    c.samples
        .iter()
        .map(|&s| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for g in c.genes.iter() {
                for &t in &c.times {
                    sum += m.get(g, s, t) - m.get(g, s0, t);
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::Session;
    use tricluster_obs::NullSink;

    /// Mines the shifting clusters of `m` through a shifting session.
    fn shifting(m: &Matrix3) -> Vec<Tricluster> {
        Session::new(params())
            .shifting()
            .run(m, &NullSink)
            .unwrap()
            .triclusters
    }

    fn shifting_fixture() -> Matrix3 {
        // 4 genes x 4 samples x 2 times. Genes 0..=2 form a shifting
        // cluster over samples 0..=2: row g at time t = base(g,t) + offset(s)
        // with offsets (0, 1.5, -0.5). Gene 3 and sample 3 are noise.
        let mut m = Matrix3::zeros(4, 4, 2);
        let offsets = [0.0, 1.5, -0.5];
        for t in 0..2 {
            for g in 0..3 {
                let base = 2.0 + g as f64 * 0.7 + t as f64 * 0.3;
                for (s, off) in offsets.iter().enumerate() {
                    m.set(g, s, t, base + off);
                }
                m.set(g, 3, t, 40.0 + (g * 7 + t * 3) as f64 * 1.31);
            }
            for s in 0..4 {
                m.set(3, s, t, -(10.0 + (s * 5 + t) as f64 * 2.17));
            }
        }
        m
    }

    fn params() -> Params {
        Params::builder()
            .epsilon(0.001)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .build()
            .unwrap()
    }

    #[test]
    fn finds_embedded_shifting_cluster() {
        let m = shifting_fixture();
        let clusters = shifting(&m);
        assert_eq!(clusters.len(), 1, "{clusters:?}");
        let c = &clusters[0];
        assert_eq!(c.genes.to_vec(), vec![0, 1, 2]);
        assert_eq!(c.samples, vec![0, 1, 2]);
        assert_eq!(c.times, vec![0, 1]);
    }

    #[test]
    fn offsets_recovered() {
        let m = shifting_fixture();
        let clusters = shifting(&m);
        let offs = sample_offsets(&m, &clusters[0]);
        assert_eq!(offs.len(), 3);
        assert!((offs[0] - 0.0).abs() < 1e-9);
        assert!((offs[1] - 1.5).abs() < 1e-9);
        assert!((offs[2] + 0.5).abs() < 1e-9);
    }

    #[test]
    fn scaling_data_is_not_shifting() {
        // multiplicative rows are NOT additive-coherent unless constant
        let mut m = Matrix3::zeros(3, 3, 2);
        for t in 0..2 {
            for g in 0..3 {
                for s in 0..3 {
                    m.set(g, s, t, (g + 1) as f64 * [1.0, 2.0, 4.0][s] + t as f64);
                }
            }
        }
        let clusters = shifting(&m);
        assert!(
            clusters.is_empty(),
            "pure scaling rows must not appear as shifting clusters: {clusters:?}"
        );
    }

    #[test]
    fn empty_matrix_yields_nothing() {
        let m = Matrix3::zeros(3, 3, 2); // all zeros -> exp = 1 everywhere
        let clusters = shifting(&m);
        // a constant matrix is one big shifting cluster with offsets 0
        assert_eq!(clusters.len(), 1);
        assert!(sample_offsets(&m, &clusters[0])
            .iter()
            .all(|o| o.abs() < 1e-12));
    }
}
