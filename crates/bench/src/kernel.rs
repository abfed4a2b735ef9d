//! `bench kernel` — stage-level microbenchmark of the range-graph pair
//! kernel.
//!
//! The range-graph build's cost is almost entirely the per-column-pair
//! kernel: classify each gene's ratio into a sign group, sort the group,
//! walk ε-windows, and dedupe the emitted gene-sets. The end-to-end
//! `fig7` sweep only reports the phase total, so when the phase needs
//! optimizing there is nothing attributing time *within* a pair. This
//! module synthesizes single-slice workloads at several gene counts and
//! times the kernel's stages in isolation, over every sample-column pair:
//!
//! - `transpose` — [`SliceColumns::from_slice`], the once-per-slice
//!   columnar copy (normalized per matrix cell);
//! - `pair` — the full production [`compute_pair`] (classify + divide +
//!   find-ranges + dedupe), exactly the closure the build hands to its
//!   workers;
//! - `classify` — the ratio classify/divide loop alone: [`compute_pair`]
//!   with `min_genes` above the gene count, so it divides and routes every
//!   gene and returns before finding any range;
//! - `ranges` — [`find_ranges_into`] alone on sign groups classified
//!   untimed with [`SignGroup::classify`] (packed-key sort, window walk,
//!   chain split/patch, dedupe);
//! - `intersect` — the chunked [`BitSet`] intersection kernels
//!   (`intersect_into` + `intersection_count_at_least_hinted`) over the
//!   gene-sets the workload actually emits, as the bicluster DFS drives
//!   them.
//!
//! [`measure_crossover`] then times the two paths of the range test
//! `|X ∩ G| ≥ mx` apart, on failing tests at a grid of
//! `(self_count − threshold, blocks)` points: the block scan
//! ([`BitSet::intersection_count_at_least`]) and the sparse walk
//! ([`BitSet::intersection_count_at_least_sparse`]). A failing test is the
//! miner's common case and each path's worst. The grid yields the `K` of
//! the hinted test's crossover rule `(self_count − threshold + 1) · K ≤
//! blocks` ([`SPARSE_STEP_BLOCKS`]) on the host at hand: the `K` whose
//! rule loses the least time over the grid.
//!
//! `pair − classify − ranges` is therefore the residual spent on group
//! bookkeeping, and `ranges` vs `pair` splits "sorting/windowing" from
//! "dividing/classifying" — the two candidate targets when the phase
//! regresses.
//!
//! Every stage reports **ns per gene unit** so points at different sizes
//! are comparable: a gene unit is one matrix cell for `transpose`, one
//! gene of one pair for the pair-shaped stages, and one universe gene of
//! one set pair for `intersect`. Timings are wall-clock on whatever core
//! the process lands on — treat cross-machine numbers as incomparable and
//! same-machine ratios as the signal.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tricluster_bitset::{BitSet, SPARSE_STEP_BLOCKS};
use tricluster_core::obs::json::Json;
use tricluster_core::range::{find_ranges_into, RangeScratch, RatioRange, SignGroup};
use tricluster_core::rangegraph::{compute_pair, PairScratch, SliceColumns};
use tricluster_core::Params;
use tricluster_synth::{generate, SynthSpec};

use crate::fig7_params;

/// One timed stage of a [`KernelPoint`].
#[derive(Debug, Clone)]
pub struct StageTime {
    /// Stage name (`transpose`, `pair`, `classify`, `ranges`, `intersect`).
    pub name: &'static str,
    /// Total wall-clock time across all sweeps.
    pub total_secs: f64,
    /// Number of timed sweeps over the whole workload.
    pub sweeps: u64,
    /// `total_secs / (sweeps × gene units per sweep)`, in nanoseconds.
    pub ns_per_gene: f64,
}

impl StageTime {
    fn new(name: &'static str, total_secs: f64, sweeps: u64, units_per_sweep: u64) -> Self {
        StageTime {
            name,
            total_secs,
            sweeps,
            ns_per_gene: total_secs * 1e9 / (sweeps as f64 * units_per_sweep as f64),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("stage", Json::Str(self.name.into()))
            .with("total_secs", Json::F64(self.total_secs))
            .with("sweeps", Json::U64(self.sweeps))
            .with("ns_per_gene", Json::F64(self.ns_per_gene))
    }
}

/// One measured workload size.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Gene count of the synthesized slice.
    pub n_genes: usize,
    /// Sample-column count of the synthesized slice.
    pub n_samples: usize,
    /// Column pairs per sweep (`n_samples choose 2`).
    pub pairs: usize,
    /// Ratio ranges the workload emits across all pairs (the `intersect`
    /// stage runs over these gene-sets).
    pub edges: usize,
    /// Per-stage timings.
    pub stages: Vec<StageTime>,
}

impl KernelPoint {
    /// Serializes the point for the `tricluster.kernel/v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("genes", Json::U64(self.n_genes as u64))
            .with("samples", Json::U64(self.n_samples as u64))
            .with("pairs", Json::U64(self.pairs as u64))
            .with("edges", Json::U64(self.edges as u64))
            .with(
                "stages",
                Json::Arr(self.stages.iter().map(StageTime::to_json).collect()),
            )
    }
}

/// The synthetic workload at `n_genes × n_samples`: one time slice with a
/// handful of disjoint embedded clusters, matching the fig7 sweep family's
/// noise and value ranges so kernel numbers track the sweep's regime.
pub fn kernel_spec(n_genes: usize, n_samples: usize) -> SynthSpec {
    let gene_block = (n_genes / 5).clamp(10, 80).min(n_genes);
    let sample_block = n_samples.min(5);
    SynthSpec {
        n_genes,
        n_samples,
        n_times: 1,
        n_clusters: (n_genes / (2 * gene_block)).max(1),
        overlap_fraction: 0.0,
        gene_range: (gene_block, gene_block),
        sample_range: (sample_block, sample_block),
        time_range: (1, 1),
        ..SynthSpec::default()
    }
}

/// Runs `sweep` repeatedly (after one untimed warm-up) until at least
/// `min_time` has elapsed; returns `(total_secs, sweeps)`.
fn run_timed(min_time: Duration, mut sweep: impl FnMut()) -> (f64, u64) {
    sweep();
    let mut sweeps = 0u64;
    let start = Instant::now();
    loop {
        sweep();
        sweeps += 1;
        let elapsed = start.elapsed();
        if elapsed >= min_time {
            return (elapsed.as_secs_f64(), sweeps);
        }
    }
}

/// The sign groups in `compute_pair`'s order.
const SIGNS: [SignGroup; 3] = [SignGroup::Positive, SignGroup::PosNeg, SignGroup::NegPos];

/// All `(a, b)` column pairs with `a < b`, in build order.
fn column_pairs(n_samples: usize) -> Vec<(usize, usize)> {
    (0..n_samples)
        .flat_map(|a| (a + 1..n_samples).map(move |b| (a, b)))
        .collect()
}

/// Measures every stage at one workload size. `min_time` is the timed
/// budget per stage (the sweep loop stops at the first boundary past it).
pub fn measure_point(spec: &SynthSpec, min_time: Duration) -> KernelPoint {
    let data = generate(spec);
    let m = &data.matrix;
    let (n_genes, n_samples) = (m.n_genes(), m.n_samples());
    let params: Params = fig7_params(spec);
    let slice = m.time_slice_raw(0);
    let cols = SliceColumns::from_slice(slice, n_genes, n_samples);
    let pairs = column_pairs(n_samples);
    let pair_units = (pairs.len() * n_genes) as u64;
    let mut stages = Vec::new();

    // transpose: the once-per-slice columnar copy.
    {
        let (secs, sweeps) = run_timed(min_time, || {
            black_box(SliceColumns::from_slice(slice, n_genes, n_samples));
        });
        stages.push(StageTime::new(
            "transpose",
            secs,
            sweeps,
            (n_genes * n_samples) as u64,
        ));
    }

    // pair: the full production kernel over every column pair.
    {
        let mut scratch = PairScratch::default();
        let mut out = Vec::new();
        let (secs, sweeps) = run_timed(min_time, || {
            for &(a, b) in &pairs {
                out.clear();
                black_box(compute_pair(&cols, a, b, &params, &mut scratch, &mut out));
            }
        });
        stages.push(StageTime::new("pair", secs, sweeps, pair_units));
    }

    // classify: the divide/route loop alone. With `min_genes` above the
    // gene count, `compute_pair` skips every sign group's range search.
    {
        let mut classify_only = params.clone();
        classify_only.min_genes = n_genes + 1;
        let mut scratch = PairScratch::default();
        let mut out = Vec::new();
        let (secs, sweeps) = run_timed(min_time, || {
            for &(a, b) in &pairs {
                black_box(compute_pair(
                    &cols,
                    a,
                    b,
                    &classify_only,
                    &mut scratch,
                    &mut out,
                ));
            }
        });
        stages.push(StageTime::new("classify", secs, sweeps, pair_units));
    }

    // ranges: find_ranges_into alone, on sign groups classified untimed.
    {
        let pre: Vec<[Vec<(f64, usize)>; 3]> = pairs
            .iter()
            .map(|&(a, b)| {
                let mut groups: [Vec<(f64, usize)>; 3] = Default::default();
                for (gene, (&va, &vb)) in cols.col(a).iter().zip(cols.col(b)).enumerate() {
                    if let Some(sign) = SignGroup::classify(va, vb) {
                        let gi = SIGNS.iter().position(|&s| s == sign).unwrap();
                        groups[gi].push(((va / vb).abs(), gene));
                    }
                }
                groups
            })
            .collect();
        let mut scratch = RangeScratch::default();
        let mut out: Vec<RatioRange> = Vec::new();
        let (secs, sweeps) = run_timed(min_time, || {
            for groups in &pre {
                out.clear();
                for (group, &sign) in groups.iter().zip(&SIGNS) {
                    if group.len() < params.min_genes {
                        continue;
                    }
                    find_ranges_into(
                        group,
                        sign,
                        params.epsilon,
                        params.min_genes,
                        n_genes,
                        params.range_extension,
                        &mut scratch,
                        &mut out,
                    );
                }
                black_box(&out);
            }
        });
        stages.push(StageTime::new("ranges", secs, sweeps, pair_units));
    }

    // intersect: the chunked bitset kernels over the emitted gene-sets.
    let mut all: Vec<RatioRange> = Vec::new();
    {
        let mut scratch = PairScratch::default();
        for &(a, b) in &pairs {
            compute_pair(&cols, a, b, &params, &mut scratch, &mut all);
        }
    }
    let edges = all.len();
    if edges >= 2 {
        let counts: Vec<usize> = all.iter().map(|r| r.genes.count()).collect();
        let mut inter = BitSet::new(n_genes);
        let (secs, sweeps) = run_timed(min_time, || {
            let mut acc = 0usize;
            for i in 0..edges - 1 {
                let (x, y) = (&all[i].genes, &all[i + 1].genes);
                acc += inter.intersect_into(x, y);
                acc += usize::from(x.intersection_count_at_least_hinted(
                    y,
                    params.min_genes,
                    counts[i],
                ));
            }
            black_box(acc);
        });
        stages.push(StageTime::new(
            "intersect",
            secs,
            sweeps,
            ((edges - 1) * n_genes) as u64,
        ));
    }

    KernelPoint {
        n_genes,
        n_samples,
        pairs: pairs.len(),
        edges,
        stages,
    }
}

/// Block counts of the crossover grid: a universe of 8 blocks up to 313
/// (20,000 genes). mine-wide's 4000 genes are 63 blocks; the paper's
/// 7679-gene yeast set is 120.
pub const CROSSOVER_BLOCKS: [usize; 6] = [8, 16, 32, 63, 120, 313];

/// Slacks (`self_count − threshold`) of the crossover grid. A failing walk
/// takes `slack + 1` misses.
pub const CROSSOVER_SLACKS: [usize; 8] = [0, 1, 3, 7, 15, 31, 63, 127];

/// The grid's range-test shape, after mine-wide's failing tests
/// (`mx = 40`, `|G(R)|` ≈ 210, `|X ∩ G(R)|` ≈ 5–11): the threshold, the
/// range gene-sets' size (at most half the universe), and the hits, which
/// keep every test failing.
const CROSSOVER_THRESHOLD: usize = 40;
const CROSSOVER_OTHER: usize = 210;
const CROSSOVER_HITS: usize = 10;

/// Range gene-sets per grid point. A BICLUSTER node tests one candidate
/// against many range gene-sets, so each point does the same, and with a
/// new set per test no branch pattern repeats.
const CROSSOVER_EDGES: usize = 2048;

/// One point of the crossover grid: nanoseconds per failing range test on
/// each path.
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Universe size in `u64` blocks.
    pub blocks: usize,
    /// `self_count − threshold`.
    pub slack: usize,
    /// The block scan, ns per test.
    pub scan_ns: f64,
    /// The sparse walk, ns per test.
    pub walk_ns: f64,
}

impl CrossoverPoint {
    /// Whether the crossover rule with walk-step cost `k` sends this point
    /// to the walk.
    pub fn walks_at(&self, k: usize) -> bool {
        (self.slack + 1) * k <= self.blocks
    }

    /// Time lost at this point by the path the rule picks at `k`, over the
    /// faster path.
    fn regret(&self, k: usize) -> f64 {
        let picked = if self.walks_at(k) {
            self.walk_ns
        } else {
            self.scan_ns
        };
        picked - self.scan_ns.min(self.walk_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("blocks", Json::U64(self.blocks as u64))
            .with("slack", Json::U64(self.slack as u64))
            .with("scan_ns", Json::F64(self.scan_ns))
            .with("walk_ns", Json::F64(self.walk_ns))
            .with("rule_walks", Json::Bool(self.walks_at(SPARSE_STEP_BLOCKS)))
    }
}

/// Largest walk-step cost [`Crossover::measured_k`] considers.
const MAX_K: usize = 64;

/// The crossover grid.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Every `(blocks, slack)` point of the grid.
    pub points: Vec<CrossoverPoint>,
}

impl Crossover {
    /// Nanoseconds lost over the whole grid when the crossover rule uses
    /// walk-step cost `k`: at each point, the picked path's time minus the
    /// faster path's.
    pub fn regret(&self, k: usize) -> f64 {
        self.points.iter().map(|p| p.regret(k)).sum()
    }

    /// The measured `K`: the walk-step cost in `1..=64` whose rule loses the
    /// least time over the grid (the smallest such on a tie).
    pub fn measured_k(&self) -> usize {
        (1..=MAX_K)
            .min_by(|&a, &b| self.regret(a).total_cmp(&self.regret(b)))
            .unwrap_or(1)
    }

    /// Serializes the grid for the `tricluster.kernel/v1` document.
    pub fn to_json(&self) -> Json {
        let k = self.measured_k();
        Json::obj()
            .with("threshold", Json::U64(CROSSOVER_THRESHOLD as u64))
            .with("hits", Json::U64(CROSSOVER_HITS as u64))
            .with("edges", Json::U64(CROSSOVER_EDGES as u64))
            .with("k", Json::U64(k as u64))
            .with("k_regret_ns", Json::F64(self.regret(k)))
            .with("k_used", Json::U64(SPARSE_STEP_BLOCKS as u64))
            .with(
                "k_used_regret_ns",
                Json::F64(self.regret(SPARSE_STEP_BLOCKS)),
            )
            .with(
                "points",
                Json::Arr(self.points.iter().map(CrossoverPoint::to_json).collect()),
            )
    }
}

/// One grid point's workload, shaped like a BICLUSTER node: a candidate
/// `X` of `threshold + slack` random genes over `blocks` blocks, and
/// `edges` range gene-sets of [`CROSSOVER_OTHER`] genes (at most half the
/// universe), each holding [`CROSSOVER_HITS`] of `X`'s genes.
fn crossover_workload(
    rng: &mut StdRng,
    blocks: usize,
    slack: usize,
    edges: usize,
) -> (BitSet, Vec<BitSet>) {
    let nbits = blocks * 64;
    let mut x = BitSet::new(nbits);
    let mut members = Vec::new();
    while members.len() < CROSSOVER_THRESHOLD + slack {
        let g = rng.gen_range(0..nbits);
        if x.insert(g) {
            members.push(g);
        }
    }
    let size = CROSSOVER_OTHER.min(nbits / 2);
    let sets = (0..edges)
        .map(|_| {
            let mut g = BitSet::new(nbits);
            let mut count = 0;
            while count < CROSSOVER_HITS {
                count += usize::from(g.insert(members[rng.gen_range(0..members.len())]));
            }
            while count < size {
                let i = rng.gen_range(0..nbits);
                count += usize::from(!x.contains(i) && g.insert(i));
            }
            g
        })
        .collect();
    (x, sets)
}

/// Times the block scan and the sparse walk apart on failing range tests
/// at every `(blocks, slack)` point of [`CROSSOVER_BLOCKS`] ×
/// [`CROSSOVER_SLACKS`], `min_time` per path and point.
pub fn measure_crossover(min_time: Duration) -> Crossover {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut points = Vec::new();
    for &blocks in &CROSSOVER_BLOCKS {
        for &slack in &CROSSOVER_SLACKS {
            let (x, sets) = crossover_workload(&mut rng, blocks, slack, CROSSOVER_EDGES);
            let count = CROSSOVER_THRESHOLD + slack;
            let per_test =
                |(secs, sweeps): (f64, u64)| secs * 1e9 / (sweeps as f64 * sets.len() as f64);
            let scan_ns = per_test(run_timed(min_time, || {
                for g in &sets {
                    black_box(x.intersection_count_at_least(g, CROSSOVER_THRESHOLD));
                }
            }));
            let walk_ns = per_test(run_timed(min_time, || {
                for g in &sets {
                    black_box(x.intersection_count_at_least_sparse(g, CROSSOVER_THRESHOLD, count));
                }
            }));
            points.push(CrossoverPoint {
                blocks,
                slack,
                scan_ns,
                walk_ns,
            });
        }
    }
    Crossover { points }
}

/// Assembles the `tricluster.kernel/v1` document from measured points and
/// the range-test crossover grid.
pub fn kernel_doc(points: &[KernelPoint], crossover: &Crossover) -> Json {
    Json::obj()
        .with("schema", Json::Str("tricluster.kernel/v1".into()))
        .with(
            "unit",
            Json::Str("ns_per_gene: nanoseconds per gene unit (see stage docs)".into()),
        )
        .with(
            "points",
            Json::Arr(points.iter().map(KernelPoint::to_json).collect()),
        )
        .with("crossover", crossover.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_point_times_every_stage() {
        let spec = kernel_spec(80, 5);
        let point = measure_point(&spec, Duration::from_millis(1));
        assert_eq!(point.n_genes, 80);
        assert_eq!(point.pairs, 10);
        let names: Vec<_> = point.stages.iter().map(|s| s.name).collect();
        assert!(names.starts_with(&["transpose", "pair", "classify", "ranges"]));
        for s in &point.stages {
            assert!(s.sweeps >= 1, "{}: at least one timed sweep", s.name);
            assert!(
                s.ns_per_gene.is_finite() && s.ns_per_gene > 0.0,
                "{}: sane ns/gene",
                s.name
            );
        }
        let crossover = measure_crossover(Duration::from_millis(1));
        assert_eq!(
            crossover.points.len(),
            CROSSOVER_BLOCKS.len() * CROSSOVER_SLACKS.len()
        );
        for p in &crossover.points {
            assert!(p.scan_ns > 0.0 && p.walk_ns > 0.0, "{p:?}");
        }
        let k = crossover.measured_k();
        assert!((1..=MAX_K).contains(&k), "{crossover:?}");
        let doc = kernel_doc(&[point], &crossover);
        assert!(doc.render().contains("tricluster.kernel/v1"));
        assert_eq!(
            doc.get_path(&["crossover", "k"]).and_then(Json::as_u64),
            Some(k as u64)
        );
    }

    #[test]
    fn crossover_workloads_fail_with_the_planted_hits() {
        let mut rng = StdRng::seed_from_u64(7);
        for &blocks in &CROSSOVER_BLOCKS {
            for &slack in &CROSSOVER_SLACKS {
                let (x, sets) = crossover_workload(&mut rng, blocks, slack, 4);
                let count = CROSSOVER_THRESHOLD + slack;
                assert_eq!(x.count(), count, "blocks {blocks} slack {slack}");
                for g in &sets {
                    assert_eq!(g.count(), CROSSOVER_OTHER.min(blocks * 32));
                    assert_eq!(x.intersection_count(g), CROSSOVER_HITS);
                    assert!(!x.intersection_count_at_least(g, CROSSOVER_THRESHOLD));
                    assert!(!x.intersection_count_at_least_sparse(g, CROSSOVER_THRESHOLD, count));
                }
            }
        }
    }

    #[test]
    fn kernel_spec_is_valid_at_extremes() {
        for genes in [10, 100, 1600, 5000] {
            for samples in [2, 10] {
                // generate() panics on an invalid spec; building the
                // dataset is the assertion.
                let spec = kernel_spec(genes, samples);
                let data = generate(&spec);
                assert_eq!(data.matrix.n_genes(), genes);
                assert_eq!(data.matrix.n_times(), 1);
            }
        }
    }

    #[test]
    fn kernel_spec_params_build() {
        let spec = kernel_spec(400, 10);
        let p = fig7_params(&spec);
        assert!(p.epsilon > 0.0);
        assert!(p.min_genes >= 2);
    }
}
