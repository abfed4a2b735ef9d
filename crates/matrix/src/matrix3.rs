//! Dense time-major 3D matrix.

use crate::Matrix2;

/// The three axes of a [`Matrix3`].
///
/// The paper's convention: axis 0 = genes (G), axis 1 = samples (S),
/// axis 2 = times (T).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Genes (rows), usually the largest dimension.
    Gene,
    /// Biological samples (columns).
    Sample,
    /// Time points (or spatial regions) — the third dimension.
    Time,
}

impl Axis {
    /// All three axes in canonical (G, S, T) order.
    pub const ALL: [Axis; 3] = [Axis::Gene, Axis::Sample, Axis::Time];

    /// Canonical index of the axis: G=0, S=1, T=2.
    pub fn index(self) -> usize {
        match self {
            Axis::Gene => 0,
            Axis::Sample => 1,
            Axis::Time => 2,
        }
    }
}

/// A dense `genes × samples × times` matrix of expression values.
///
/// Storage is *time-major*: each `genes × samples` time slice is contiguous,
/// because the range-multigraph construction (the first TriCluster phase)
/// processes one time slice at a time.
///
/// TriCluster's symmetry property (paper Lemma 1) means the miner is free to
/// put the largest dimension on the gene axis; [`Matrix3::permuted`] performs
/// that transposition.
#[derive(Clone, PartialEq)]
pub struct Matrix3 {
    n_genes: usize,
    n_samples: usize,
    n_times: usize,
    /// `data[t * n_genes * n_samples + g * n_samples + s]`
    data: Vec<f64>,
}

impl std::fmt::Debug for Matrix3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Matrix3 {}x{}x{} (genes x samples x times)",
            self.n_genes, self.n_samples, self.n_times
        )
    }
}

impl Matrix3 {
    /// Creates a matrix of the given dimensions filled with zeros.
    pub fn zeros(n_genes: usize, n_samples: usize, n_times: usize) -> Self {
        Matrix3 {
            n_genes,
            n_samples,
            n_times,
            data: vec![0.0; n_genes * n_samples * n_times],
        }
    }

    /// Takes ownership of a buffer already in time-major order, as the TSV
    /// reader fills it: slice by slice, row by row.
    ///
    /// # Panics
    /// Panics if `data.len() != n_genes * n_samples * n_times`.
    pub(crate) fn from_time_major(
        n_genes: usize,
        n_samples: usize,
        n_times: usize,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(
            data.len(),
            n_genes * n_samples * n_times,
            "buffer length does not match {n_genes}x{n_samples}x{n_times}"
        );
        Matrix3 {
            n_genes,
            n_samples,
            n_times,
            data,
        }
    }

    /// Builds a 3D matrix from per-time 2D slices (each `genes × samples`).
    ///
    /// # Panics
    /// Panics if the slices have inconsistent dimensions or none are given.
    pub fn from_time_slices(slices: &[Matrix2]) -> Self {
        assert!(!slices.is_empty(), "at least one time slice required");
        let (n_genes, n_samples) = slices[0].dims();
        let mut m = Matrix3::zeros(n_genes, n_samples, slices.len());
        for (t, s) in slices.iter().enumerate() {
            assert_eq!(
                s.dims(),
                (n_genes, n_samples),
                "slice {t} has inconsistent dimensions"
            );
            let base = t * n_genes * n_samples;
            m.data[base..base + n_genes * n_samples].copy_from_slice(s.as_slice());
        }
        m
    }

    /// Number of genes (axis 0).
    #[inline]
    pub fn n_genes(&self) -> usize {
        self.n_genes
    }

    /// Number of samples (axis 1).
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of time points (axis 2).
    #[inline]
    pub fn n_times(&self) -> usize {
        self.n_times
    }

    /// `(genes, samples, times)` triple.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n_genes, self.n_samples, self.n_times)
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the matrix has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn idx(&self, g: usize, s: usize, t: usize) -> usize {
        debug_assert!(
            g < self.n_genes && s < self.n_samples && t < self.n_times,
            "index ({g},{s},{t}) out of bounds for {:?}",
            self.dims()
        );
        t * self.n_genes * self.n_samples + g * self.n_samples + s
    }

    /// Value at `(gene, sample, time)`.
    #[inline]
    pub fn get(&self, g: usize, s: usize, t: usize) -> f64 {
        self.data[self.idx(g, s, t)]
    }

    /// Sets the value at `(gene, sample, time)`.
    #[inline]
    pub fn set(&mut self, g: usize, s: usize, t: usize, v: f64) {
        let i = self.idx(g, s, t);
        self.data[i] = v;
    }

    /// Copies out the `genes × samples` slice at time `t`.
    pub fn time_slice(&self, t: usize) -> Matrix2 {
        assert!(
            t < self.n_times,
            "time {t} out of bounds ({})",
            self.n_times
        );
        let base = t * self.n_genes * self.n_samples;
        Matrix2::from_vec(
            self.n_genes,
            self.n_samples,
            self.data[base..base + self.n_genes * self.n_samples].to_vec(),
        )
    }

    /// Borrowed view of the raw `genes × samples` buffer at time `t`
    /// (row-major by gene). Zero-copy alternative to [`Matrix3::time_slice`].
    pub fn time_slice_raw(&self, t: usize) -> &[f64] {
        assert!(
            t < self.n_times,
            "time {t} out of bounds ({})",
            self.n_times
        );
        let base = t * self.n_genes * self.n_samples;
        &self.data[base..base + self.n_genes * self.n_samples]
    }

    /// Applies `f` to every cell in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with the axes permuted so that the axis given
    /// first becomes the gene axis, the second the sample axis, and the third
    /// the time axis.
    ///
    /// TriCluster transposes the input so that the largest-cardinality
    /// dimension is mined as "genes" (paper §4); use
    /// [`Matrix3::canonical_permutation`] to compute that ordering.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of the three axes.
    pub fn permuted(&self, order: [Axis; 3]) -> Matrix3 {
        let mut seen = [false; 3];
        for a in order {
            assert!(!seen[a.index()], "axis {a:?} repeated in permutation");
            seen[a.index()] = true;
        }
        let old_dims = [self.n_genes, self.n_samples, self.n_times];
        let new_dims = [
            old_dims[order[0].index()],
            old_dims[order[1].index()],
            old_dims[order[2].index()],
        ];
        let mut out = Matrix3::zeros(new_dims[0], new_dims[1], new_dims[2]);
        for g in 0..self.n_genes {
            for s in 0..self.n_samples {
                for t in 0..self.n_times {
                    let coords = [g, s, t];
                    let ng = coords[order[0].index()];
                    let ns = coords[order[1].index()];
                    let nt = coords[order[2].index()];
                    out.set(ng, ns, nt, self.get(g, s, t));
                }
            }
        }
        out
    }

    /// The axis ordering that puts the largest dimension first (as genes),
    /// then the next largest as samples, with ties broken in (G, S, T) order.
    pub fn canonical_permutation(&self) -> [Axis; 3] {
        let mut axes = [
            (Axis::Gene, self.n_genes),
            (Axis::Sample, self.n_samples),
            (Axis::Time, self.n_times),
        ];
        // stable sort keeps (G,S,T) order among equals
        axes.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
        [axes[0].0, axes[1].0, axes[2].0]
    }

    /// Whether the matrix is already in canonical (largest-first) order.
    pub fn is_canonical(&self) -> bool {
        self.n_genes >= self.n_samples && self.n_genes >= self.n_times
    }

    /// The raw buffer (time-major, then gene-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting(ng: usize, ns: usize, nt: usize) -> Matrix3 {
        let mut m = Matrix3::zeros(ng, ns, nt);
        for g in 0..ng {
            for s in 0..ns {
                for t in 0..nt {
                    m.set(g, s, t, (g * 100 + s * 10 + t) as f64);
                }
            }
        }
        m
    }

    #[test]
    fn dims_and_len() {
        let m = Matrix3::zeros(4, 3, 2);
        assert_eq!(m.dims(), (4, 3, 2));
        assert_eq!(m.len(), 24);
        assert!(!m.is_empty());
        assert!(Matrix3::zeros(0, 3, 2).is_empty());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix3::zeros(2, 2, 2);
        m.set(1, 0, 1, 3.25);
        assert_eq!(m.get(1, 0, 1), 3.25);
        assert_eq!(m.get(0, 0, 0), 0.0);
    }

    #[test]
    fn time_slice_matches_gets() {
        let m = counting(3, 4, 2);
        let s1 = m.time_slice(1);
        for g in 0..3 {
            for s in 0..4 {
                assert_eq!(s1.get(g, s), m.get(g, s, 1));
            }
        }
        assert_eq!(m.time_slice_raw(1), s1.as_slice());
    }

    #[test]
    fn from_time_slices_roundtrip() {
        let m = counting(3, 4, 3);
        let slices: Vec<Matrix2> = (0..3).map(|t| m.time_slice(t)).collect();
        let back = Matrix3::from_time_slices(&slices);
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensions")]
    fn from_time_slices_mismatched_panics() {
        Matrix3::from_time_slices(&[Matrix2::zeros(2, 2), Matrix2::zeros(3, 2)]);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let m = counting(2, 3, 4);
        let p = m.permuted([Axis::Gene, Axis::Sample, Axis::Time]);
        assert_eq!(p, m);
    }

    #[test]
    fn permutation_moves_values() {
        let m = counting(2, 3, 4);
        // make Time the gene axis: new (g,s,t) = old (t_axis val...)
        let p = m.permuted([Axis::Time, Axis::Sample, Axis::Gene]);
        assert_eq!(p.dims(), (4, 3, 2));
        for g in 0..2 {
            for s in 0..3 {
                for t in 0..4 {
                    assert_eq!(p.get(t, s, g), m.get(g, s, t));
                }
            }
        }
    }

    #[test]
    fn double_permutation_roundtrips() {
        let m = counting(2, 3, 4);
        let p = m.permuted([Axis::Sample, Axis::Time, Axis::Gene]);
        // inverse of (S,T,G) is (T,G,S): new axes hold S,T,G; to restore,
        // gene comes from new time axis, sample from new gene, time from new sample.
        let back = p.permuted([Axis::Time, Axis::Gene, Axis::Sample]);
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "repeated in permutation")]
    fn repeated_axis_panics() {
        counting(2, 2, 2).permuted([Axis::Gene, Axis::Gene, Axis::Time]);
    }

    #[test]
    fn canonical_permutation_largest_first() {
        let m = Matrix3::zeros(5, 10, 7);
        assert_eq!(
            m.canonical_permutation(),
            [Axis::Sample, Axis::Time, Axis::Gene]
        );
        assert!(!m.is_canonical());
        let c = m.permuted(m.canonical_permutation());
        assert_eq!(c.dims(), (10, 7, 5));
        assert!(c.is_canonical());
    }

    #[test]
    fn canonical_permutation_tie_keeps_order() {
        let m = Matrix3::zeros(4, 4, 4);
        assert_eq!(
            m.canonical_permutation(),
            [Axis::Gene, Axis::Sample, Axis::Time]
        );
        assert!(m.is_canonical());
    }

    #[test]
    fn map_in_place_applies() {
        let mut m = counting(2, 2, 1);
        m.map_in_place(|v| v + 1.0);
        assert_eq!(m.get(1, 1, 0), 111.0);
    }
}
