//! Temporal coherence between time slices (paper §4.3).
//!
//! When the tricluster search extends the time set by a new slice `t_b`,
//! the region `X × Y` must be coherent *across* the pair of slices. The
//! cluster definition constrains every 2×2 submatrix of the `X × Z` planes
//! (fixed sample) and `Y × Z` planes (fixed gene), which for one time pair
//! `(t_a, t_b)` means:
//!
//! * for every fixed sample `s`: the ratios `d[g][s][t_b] / d[g][s][t_a]`
//!   across genes `g ∈ X` agree within `ε_time`, and
//! * for every fixed gene `g`: the ratios across samples `s ∈ Y` agree
//!   within `ε_time`,
//!
//! each with a consistent sign. (Note this is *weaker* than requiring all
//! `|X|·|Y|` ratios to agree globally — the 2×2 conditions allow a global
//! spread of up to `(1+ε)² − 1 ≈ 2ε` across the region; implementing the
//! global check would silently drop valid clusters, which the brute-force
//! cross-check tests catch.)
//!
//! In the paper's example the ratios between `t1` and `t0` are `1.2` for
//! `C1` and `0.5` for `C2`/`C3`; a region without such coherent values is
//! pruned.

use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;

/// Checks whether the region `genes × samples` is coherent between time
/// slices `ta` and `tb` (see module docs for the exact condition).
///
/// Returns `false` when any involved cell is zero or non-finite.
pub fn slice_pair_coherent(
    m: &Matrix3,
    genes: &BitSet,
    samples: &[usize],
    ta: usize,
    tb: usize,
    eps: f64,
) -> bool {
    let gene_list: Vec<usize> = genes.to_vec();
    if gene_list.is_empty() || samples.is_empty() {
        return false;
    }
    let ng = gene_list.len();
    let ns = samples.len();

    // ratio magnitudes, with one sign shared by the whole region
    let mut ratios = vec![0.0f64; ng * ns];
    let mut sign = 0i8;
    for (gi, &g) in gene_list.iter().enumerate() {
        for (si, &s) in samples.iter().enumerate() {
            let va = m.get(g, s, ta);
            let vb = m.get(g, s, tb);
            if !va.is_finite() || !vb.is_finite() || va == 0.0 {
                return false;
            }
            let r = vb / va;
            if r == 0.0 || !r.is_finite() {
                return false;
            }
            let r_sign = if r > 0.0 { 1 } else { -1 };
            if sign == 0 {
                sign = r_sign;
            } else if sign != r_sign {
                // a sign flip always breaks some 2x2 along the grid
                return false;
            }
            ratios[gi * ns + si] = r.abs();
        }
    }

    // per fixed sample: across genes
    for si in 0..ns {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for gi in 0..ng {
            let a = ratios[gi * ns + si];
            lo = lo.min(a);
            hi = hi.max(a);
        }
        if hi / lo - 1.0 > eps {
            return false;
        }
    }
    // per fixed gene: across samples
    for row in ratios.chunks_exact(ns) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &a in row {
            lo = lo.min(a);
            hi = hi.max(a);
        }
        if hi / lo - 1.0 > eps {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::paper_table1;

    fn genes(which: &[usize]) -> BitSet {
        BitSet::from_indices(10, which.iter().copied())
    }

    /// Paper: "the ratios between t1 and t0 are 1.2 (for C1) and 0.5 (for
    /// C2 and C3)", so each cluster is coherent across the slice pair.
    #[test]
    fn paper_slice_ratios() {
        let m = paper_table1();
        let coherent = |g: &[usize], s: &[usize]| slice_pair_coherent(&m, &genes(g), s, 0, 1, 0.01);
        assert!(coherent(&[1, 4, 8], &[0, 1, 4, 6]), "C1");
        assert!(coherent(&[0, 2, 6, 9], &[1, 4, 6]), "C2");
        assert!(coherent(&[0, 7, 9], &[1, 2, 4, 5]), "C3");
    }

    /// A region straddling C1 (ratio 1.2) and C2 (ratio 0.5) is incoherent.
    #[test]
    fn mixed_region_incoherent() {
        let m = paper_table1();
        assert!(!slice_pair_coherent(
            &m,
            &genes(&[1, 4, 8, 0]),
            &[1, 4, 6],
            0,
            1,
            0.01
        ));
    }

    #[test]
    fn relaxed_epsilon_tolerates_drift() {
        let mut m = Matrix3::zeros(2, 2, 2);
        for g in 0..2 {
            for s in 0..2 {
                m.set(g, s, 0, 1.0 + (g + s) as f64);
                // t1 ≈ 2x t0 with 3% drift on one cell
                let f = if g == 1 && s == 1 { 2.06 } else { 2.0 };
                m.set(g, s, 1, (1.0 + (g + s) as f64) * f);
            }
        }
        let all = BitSet::full(2);
        assert!(!slice_pair_coherent(&m, &all, &[0, 1], 0, 1, 0.01));
        assert!(slice_pair_coherent(&m, &all, &[0, 1], 0, 1, 0.05));
    }

    /// The 2x2 conditions are per-plane: a checkerboard-free gradient where
    /// each row and column stays within ε but the global spread is ~2ε must
    /// pass (this is exactly what a single global window would wrongly
    /// reject).
    #[test]
    fn per_plane_check_allows_two_eps_global_spread() {
        let mut m = Matrix3::zeros(2, 2, 2);
        // slice ratios: [[1.00, 1.009], [1.009, 1.018]] — each row/col
        // within 0.9%, corners within 1.8%
        let r = [[1.0, 1.009], [1.009, 1.018]];
        for (g, row) in r.iter().enumerate() {
            for (s, &factor) in row.iter().enumerate() {
                let base = 1.0 + (g * 2 + s) as f64;
                m.set(g, s, 0, base);
                m.set(g, s, 1, base * factor);
            }
        }
        let all = BitSet::full(2);
        assert!(slice_pair_coherent(&m, &all, &[0, 1], 0, 1, 0.01));
        // but a fiber violation fails: bump one cell so its row spreads 2%
        m.set(1, 1, 1, m.get(1, 1, 0) * 1.03);
        assert!(!slice_pair_coherent(&m, &all, &[0, 1], 0, 1, 0.01));
    }

    #[test]
    fn sign_flip_is_incoherent() {
        let mut m = Matrix3::zeros(2, 1, 2);
        m.set(0, 0, 0, 1.0);
        m.set(0, 0, 1, 2.0);
        m.set(1, 0, 0, 1.0);
        m.set(1, 0, 1, -2.0);
        assert!(!slice_pair_coherent(&m, &BitSet::full(2), &[0], 0, 1, 0.5));
    }

    #[test]
    fn negative_but_consistent_ratio_is_coherent() {
        let mut m = Matrix3::zeros(2, 1, 2);
        m.set(0, 0, 0, 1.0);
        m.set(0, 0, 1, -2.0);
        m.set(1, 0, 0, 3.0);
        m.set(1, 0, 1, -6.0);
        assert!(slice_pair_coherent(&m, &BitSet::full(2), &[0], 0, 1, 0.01));
    }

    #[test]
    fn zero_cell_fails() {
        let mut m = Matrix3::zeros(1, 1, 2);
        m.set(0, 0, 0, 0.0);
        m.set(0, 0, 1, 2.0);
        assert!(!slice_pair_coherent(&m, &BitSet::full(1), &[0], 0, 1, 1.0));
    }

    #[test]
    fn empty_region_fails() {
        let m = Matrix3::zeros(2, 2, 2);
        assert!(!slice_pair_coherent(&m, &BitSet::new(2), &[], 0, 1, 1.0));
    }
}
