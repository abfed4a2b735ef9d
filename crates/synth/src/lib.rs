//! Synthetic 3D microarray generator with embedded ground-truth clusters
//! (paper §5) and recovery scoring.
//!
//! The generator follows the paper's recipe:
//!
//! > The input parameters to the generator are the total number of genes,
//! > samples and times; number of clusters to embed; percentage of
//! > overlapping clusters; dimensional ranges for the cluster sizes; and
//! > the amount of noise for the expression values. […] For generating the
//! > expression values within a cluster, we generate at random, base values
//! > (v_i, v_j and v_k) for each dimension in the cluster. Then the
//! > expression value is set as `d_ijk = v_i · v_j · v_k · (1 + ρ)`, where
//! > `ρ` doesn't exceed the random noise level. Once all clusters are
//! > generated, the non-cluster regions are assigned random values.
//!
//! Base values are assigned *per index, lazily and globally*: when two
//! overlapping clusters share a gene/sample/time, they share its base value,
//! so the multiplicative model stays consistent on the shared cells and
//! every embedded cluster is a genuine scaling tricluster.
//!
//! [`recovery`] scores mined clusters against the embedded truth by cell
//! Jaccard similarity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tricluster_bitset::BitSet;
use tricluster_core::Tricluster;
use tricluster_matrix::Matrix3;

/// Generator specification. Start from [`SynthSpec::default`] (a scaled-down
/// version of the paper's defaults) or [`SynthSpec::paper_default`] (the
/// full `4000 × 30 × 20` configuration) and adjust fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Total genes in the matrix.
    pub n_genes: usize,
    /// Total samples.
    pub n_samples: usize,
    /// Total time points.
    pub n_times: usize,
    /// Number of clusters to embed.
    pub n_clusters: usize,
    /// Fraction (0..=1) of clusters that overlap a previously placed
    /// cluster (sharing about half of each dimension's indices).
    pub overlap_fraction: f64,
    /// Inclusive range of cluster sizes along genes.
    pub gene_range: (usize, usize),
    /// Inclusive range of cluster sizes along samples.
    pub sample_range: (usize, usize),
    /// Inclusive range of cluster sizes along times.
    pub time_range: (usize, usize),
    /// Maximum relative noise `ρ`: cluster cells are
    /// `v_i·v_j·v_k·(1 + U(−ρ, ρ))`.
    pub noise: f64,
    /// Base values `v` are drawn uniformly from this range.
    pub base_value_range: (f64, f64),
    /// Background (non-cluster) cells are drawn uniformly from this range.
    pub background_range: (f64, f64),
    /// RNG seed (the generator is fully deterministic given the spec).
    pub seed: u64,
}

impl Default for SynthSpec {
    /// A laptop-friendly scale: `1000 × 15 × 8` matrix, 8 clusters of
    /// roughly `80 × 5 × 3`, 20% overlap, 3% noise.
    fn default() -> Self {
        SynthSpec {
            n_genes: 1000,
            n_samples: 15,
            n_times: 8,
            n_clusters: 8,
            overlap_fraction: 0.2,
            gene_range: (80, 80),
            sample_range: (5, 5),
            time_range: (3, 3),
            noise: 0.03,
            base_value_range: (1.0, 3.0),
            background_range: (0.5, 30.0),
            seed: 42,
        }
    }
}

impl SynthSpec {
    /// The paper's default synthetic configuration: `4000 × 30 × 20` matrix,
    /// 10 clusters of `150 × 6 × 4`, 20% overlap, 3% noise.
    pub fn paper_default() -> Self {
        SynthSpec {
            n_genes: 4000,
            n_samples: 30,
            n_times: 20,
            n_clusters: 10,
            gene_range: (150, 150),
            sample_range: (6, 6),
            time_range: (4, 4),
            ..SynthSpec::default()
        }
    }

    /// An `ε` for the miner that tolerates this spec's noise: ratios of two
    /// noisy cells drift by up to `(1+ρ)/(1−ρ) − 1 ≈ 2ρ` each way, so `4.5ρ`
    /// (floor `0.001`) covers the worst case with margin.
    pub fn suggested_epsilon(&self) -> f64 {
        (4.5 * self.noise).max(0.001)
    }

    /// Checks that [`generate`] can honour this spec, naming the field at
    /// fault: dimensions are non-zero, cluster-size ranges are ordered and
    /// fit the matrix, fractions and value ranges are in bounds, and the
    /// disjoint clusters fit the gene dimension. That last check counts the
    /// fresh genes `generate` draws at the upper end of `gene_range` (an
    /// overlapping cluster shares half its genes with its predecessor), so
    /// it is exact when the range is a single size. Draws no random numbers.
    ///
    /// # Errors
    ///
    /// A message naming the first field at fault.
    pub fn validate(&self) -> Result<(), String> {
        for (dim, (lo, hi), n) in [
            ("gene", self.gene_range, self.n_genes),
            ("sample", self.sample_range, self.n_samples),
            ("time", self.time_range, self.n_times),
        ] {
            if n == 0 {
                return Err(format!("n_{dim}s must be at least 1"));
            }
            if lo < 1 || lo > hi || hi > n {
                return Err(format!("{dim}_range ({lo}, {hi}) must lie within 1..={n}"));
            }
        }
        if !(0.0..=1.0).contains(&self.overlap_fraction) {
            return Err(format!(
                "overlap_fraction {} is not in [0, 1]",
                self.overlap_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.noise) {
            return Err(format!("noise {} is not in [0, 1)", self.noise));
        }
        for (name, (lo, hi)) in [
            ("base_value_range", self.base_value_range),
            ("background_range", self.background_range),
        ] {
            if !(lo > 0.0 && lo <= hi) {
                return Err(format!("{name} ({lo}, {hi}) must satisfy 0 < lo <= hi"));
            }
        }
        let gx = self.gene_range.1;
        let overlapping = self.overlap_flags().into_iter().filter(|&f| f).count();
        let fresh = (self.n_clusters - overlapping) * gx + overlapping * (gx - gx / 2);
        if fresh > self.n_genes {
            return Err(format!(
                "n_genes: not enough genes to place disjoint clusters: {fresh} needed, {} available",
                self.n_genes
            ));
        }
        Ok(())
    }

    /// Which clusters overlap their predecessor. Overlaps come in pairs: a
    /// cluster may overlap its predecessor only if that predecessor did not
    /// itself overlap (chains of shared indices would let base values leak
    /// across three clusters and break the multiplicative model on
    /// coincidentally shared samples/times).
    fn overlap_flags(&self) -> Vec<bool> {
        let n_overlapping = (self.overlap_fraction * self.n_clusters as f64).round() as usize;
        let mut overlaps_done = 0usize;
        let mut prev_overlapped = false;
        (0..self.n_clusters)
            .map(|i| {
                let flag = i > 0 && overlaps_done < n_overlapping && !prev_overlapped;
                overlaps_done += usize::from(flag);
                prev_overlapped = flag;
                flag
            })
            .collect()
    }
}

/// A generated dataset: the matrix plus the embedded ground truth.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// The generated expression matrix.
    pub matrix: Matrix3,
    /// The embedded clusters (ground truth), in placement order.
    pub truth: Vec<Tricluster>,
}

/// Generates a dataset according to `spec`. Deterministic in `spec.seed`.
///
/// # Panics
/// Panics with [`SynthSpec::validate`]'s message when the spec is
/// inconsistent (cluster sizes exceeding matrix dimensions, non-positive
/// value ranges, …) or when the requested *disjoint* clusters cannot fit in
/// the gene dimension.
pub fn generate(spec: &SynthSpec) -> SynthDataset {
    if let Err(e) = spec.validate() {
        panic!("invalid synth spec: {e}");
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // ---- place clusters ----
    let mut gene_pool: Vec<usize> = (0..spec.n_genes).collect();
    gene_pool.shuffle(&mut rng);
    let mut pool_next = 0usize;
    let mut take_fresh_genes = |count: usize, pool_next: &mut usize| -> Vec<usize> {
        assert!(
            *pool_next + count <= spec.n_genes,
            "not enough genes to place disjoint clusters: need {count} more, \
             {} unused of {}",
            spec.n_genes - *pool_next,
            spec.n_genes
        );
        let out = gene_pool[*pool_next..*pool_next + count].to_vec();
        *pool_next += count;
        out
    };

    let mut truth: Vec<Tricluster> = Vec::with_capacity(spec.n_clusters);
    let overlap_flags = spec.overlap_flags();
    for i in 0..spec.n_clusters {
        let gx = rng.gen_range(spec.gene_range.0..=spec.gene_range.1);
        let sy = rng.gen_range(spec.sample_range.0..=spec.sample_range.1);
        let tz = rng.gen_range(spec.time_range.0..=spec.time_range.1);

        let overlapping = overlap_flags[i];
        let (genes, samples, times) = if overlapping {
            // share about half of each dimension with the previous cluster
            let prev = &truth[i - 1];
            let genes = mix_with_prev(
                &prev.genes.to_vec(),
                gx,
                &mut take_fresh_genes,
                &mut pool_next,
                &mut rng,
            );
            let samples = mix_subset(&prev.samples, sy, spec.n_samples, &mut rng);
            let times = mix_subset(&prev.times, tz, spec.n_times, &mut rng);
            (genes, samples, times)
        } else {
            let genes = take_fresh_genes(gx, &mut pool_next);
            (
                genes,
                random_subset(spec.n_samples, sy, &mut rng),
                random_subset(spec.n_times, tz, &mut rng),
            )
        };
        truth.push(Tricluster::new(
            BitSet::from_indices(spec.n_genes, genes),
            samples,
            times,
        ));
    }

    // ---- assign values ----
    let mut m = Matrix3::zeros(spec.n_genes, spec.n_samples, spec.n_times);
    let (bg_lo, bg_hi) = spec.background_range;
    for v in m.as_mut_slice() {
        *v = rng.gen_range(bg_lo..=bg_hi);
    }
    // Base values are drawn *per cluster* (the paper: "we generate at
    // random, base values for each dimension in the cluster"), so disjoint
    // clusters never line up into accidental cross-cluster coherent boxes.
    // An overlapping cluster inherits the previous cluster's base values on
    // the shared indices, which keeps the multiplicative model consistent
    // on (and around) the shared cells.
    let (v_lo, v_hi) = spec.base_value_range;
    type BaseMaps = (
        std::collections::HashMap<usize, f64>, // gene
        std::collections::HashMap<usize, f64>, // sample
        std::collections::HashMap<usize, f64>, // time
    );
    let mut prev_bases: Option<BaseMaps> = None;
    let mut filled: std::collections::HashSet<(u32, u32, u32)> = std::collections::HashSet::new();
    for (i, c) in truth.iter().enumerate() {
        let mut gene_base: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        let mut sample_base: std::collections::HashMap<usize, f64> =
            std::collections::HashMap::new();
        let mut time_base: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        let overlapping = overlap_flags[i];
        if overlapping {
            if let Some((pg, ps, pt)) = &prev_bases {
                for g in c.genes.iter() {
                    if let Some(&v) = pg.get(&g) {
                        gene_base.insert(g, v);
                    }
                }
                for s in &c.samples {
                    if let Some(&v) = ps.get(s) {
                        sample_base.insert(*s, v);
                    }
                }
                for t in &c.times {
                    if let Some(&v) = pt.get(t) {
                        time_base.insert(*t, v);
                    }
                }
            }
        }
        for g in c.genes.iter() {
            gene_base
                .entry(g)
                .or_insert_with(|| rng.gen_range(v_lo..=v_hi));
        }
        for &s in &c.samples {
            sample_base
                .entry(s)
                .or_insert_with(|| rng.gen_range(v_lo..=v_hi));
        }
        for &t in &c.times {
            time_base
                .entry(t)
                .or_insert_with(|| rng.gen_range(v_lo..=v_hi));
        }
        for g in c.genes.iter() {
            let vi = gene_base[&g];
            for &s in &c.samples {
                let vj = sample_base[&s];
                for &t in &c.times {
                    if !filled.insert((g as u32, s as u32, t as u32)) {
                        continue; // keep the first cluster's noisy value
                    }
                    let vk = time_base[&t];
                    let rho = if spec.noise > 0.0 {
                        rng.gen_range(-spec.noise..=spec.noise)
                    } else {
                        0.0
                    };
                    m.set(g, s, t, vi * vj * vk * (1.0 + rho));
                }
            }
        }
        prev_bases = Some((gene_base, sample_base, time_base));
    }

    SynthDataset { matrix: m, truth }
}

fn random_subset(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx
}

/// Takes about half of `prev` (at most `k`) and fills up with fresh indices
/// outside `prev` from `0..n`.
fn mix_subset(prev: &[usize], k: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let shared = (k / 2).min(prev.len());
    let mut out: Vec<usize> = prev.to_vec();
    out.shuffle(rng);
    out.truncate(shared);
    let mut fresh: Vec<usize> = (0..n).filter(|i| !prev.contains(i)).collect();
    fresh.shuffle(rng);
    for f in fresh {
        if out.len() >= k {
            break;
        }
        out.push(f);
    }
    out
}

fn mix_with_prev(
    prev_genes: &[usize],
    k: usize,
    take_fresh: &mut impl FnMut(usize, &mut usize) -> Vec<usize>,
    pool_next: &mut usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let shared = (k / 2).min(prev_genes.len());
    let mut out: Vec<usize> = prev_genes.to_vec();
    out.shuffle(rng);
    out.truncate(shared);
    let fresh = take_fresh(k - out.len(), pool_next);
    out.extend(fresh);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_core::validate::is_coherent_region;

    fn small_spec() -> SynthSpec {
        SynthSpec {
            n_genes: 120,
            n_samples: 10,
            n_times: 6,
            n_clusters: 3,
            overlap_fraction: 0.0,
            gene_range: (20, 25),
            sample_range: (4, 5),
            time_range: (3, 4),
            noise: 0.0,
            seed: 7,
            ..SynthSpec::default()
        }
    }

    #[test]
    fn dimensions_and_truth_count() {
        let ds = generate(&small_spec());
        assert_eq!(ds.matrix.dims(), (120, 10, 6));
        assert_eq!(ds.truth.len(), 3);
        for c in &ds.truth {
            let (x, y, z) = c.shape();
            assert!((20..=25).contains(&x));
            assert!((4..=5).contains(&y));
            assert!((3..=4).contains(&z));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&small_spec());
        let b = generate(&small_spec());
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.truth, b.truth);
        let c = generate(&SynthSpec {
            seed: 8,
            ..small_spec()
        });
        assert_ne!(a.matrix, c.matrix);
    }

    #[test]
    fn noiseless_clusters_are_exactly_coherent() {
        let ds = generate(&small_spec());
        for c in &ds.truth {
            assert!(
                is_coherent_region(&ds.matrix, &c.genes, &c.samples, &c.times, 1e-9, 1e-9),
                "embedded cluster not coherent: {c:?}"
            );
        }
    }

    #[test]
    fn noisy_clusters_coherent_within_suggested_epsilon() {
        let spec = SynthSpec {
            noise: 0.03,
            ..small_spec()
        };
        let ds = generate(&spec);
        let eps = spec.suggested_epsilon();
        for c in &ds.truth {
            assert!(
                is_coherent_region(&ds.matrix, &c.genes, &c.samples, &c.times, eps, eps),
                "noisy cluster exceeds suggested epsilon {eps}: {c:?}"
            );
        }
    }

    #[test]
    fn disjoint_clusters_share_no_genes() {
        let ds = generate(&small_spec());
        for (i, a) in ds.truth.iter().enumerate() {
            for b in &ds.truth[i + 1..] {
                assert!(a.genes.is_disjoint(&b.genes));
            }
        }
    }

    #[test]
    fn overlapping_clusters_share_genes_and_stay_coherent() {
        let spec = SynthSpec {
            overlap_fraction: 0.5,
            n_clusters: 4,
            noise: 0.02,
            ..small_spec()
        };
        let ds = generate(&spec);
        // at least one consecutive pair shares genes
        let any_shared = ds
            .truth
            .windows(2)
            .any(|w| w[0].genes.intersection_count(&w[1].genes) > 0);
        assert!(any_shared);
        let eps = spec.suggested_epsilon();
        for c in &ds.truth {
            assert!(
                is_coherent_region(&ds.matrix, &c.genes, &c.samples, &c.times, eps, eps),
                "overlapping cluster broke coherence: {c:?}"
            );
        }
    }

    #[test]
    fn background_in_range() {
        let ds = generate(&small_spec());
        let in_cluster: std::collections::HashSet<(usize, usize, usize)> =
            ds.truth.iter().flat_map(|c| c.cells()).collect();
        let (lo, hi) = small_spec().background_range;
        for g in 0..120 {
            for s in 0..10 {
                for t in 0..6 {
                    if !in_cluster.contains(&(g, s, t)) {
                        let v = ds.matrix.get(g, s, t);
                        assert!((lo..=hi).contains(&v), "background {v} out of range");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not enough genes")]
    fn too_many_disjoint_clusters_panics() {
        generate(&SynthSpec {
            n_genes: 50,
            n_clusters: 3,
            gene_range: (20, 20),
            overlap_fraction: 0.0,
            ..small_spec()
        });
    }

    #[test]
    #[should_panic]
    fn cluster_bigger_than_matrix_panics() {
        generate(&SynthSpec {
            sample_range: (11, 11),
            ..small_spec()
        });
    }

    #[test]
    fn suggested_epsilon_scales_with_noise() {
        let mut spec = small_spec();
        spec.noise = 0.0;
        assert_eq!(spec.suggested_epsilon(), 0.001);
        spec.noise = 0.03;
        assert!((spec.suggested_epsilon() - 0.135).abs() < 1e-12);
    }

    #[test]
    fn paper_default_matches_paper() {
        let p = SynthSpec::paper_default();
        assert_eq!((p.n_genes, p.n_samples, p.n_times), (4000, 30, 20));
        assert_eq!(p.n_clusters, 10);
        assert_eq!(p.gene_range, (150, 150));
        assert_eq!(p.sample_range, (6, 6));
        assert_eq!(p.time_range, (4, 4));
        assert!((p.overlap_fraction - 0.2).abs() < 1e-12);
        assert!((p.noise - 0.03).abs() < 1e-12);
    }
}
