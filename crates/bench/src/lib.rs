//! Shared harness code for the benchmark binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation (§5) has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md's experiment index), and a
//! Criterion group in `benches/` for statistically sound timing. This
//! library holds the pieces they share: the Figure 7 sweep definitions, a
//! no-cache ablation miner, and small formatting helpers.

#![forbid(unsafe_code)]

pub mod harness;
pub mod kernel;

use std::time::{Duration, Instant};
use tricluster_core::obs::{alloc, json::Json, EventSink, NullSink};
use tricluster_core::{FanoutDecision, Params, Session, Timings};
use tricluster_synth::{generate, recovery, SynthSpec};

/// The determinism comparator under the path older callers import it
/// from; it lives in [`tricluster_core::runreport`].
pub mod regress {
    pub use tricluster_core::runreport::determinism_diff;
}

/// Whether to run at the paper's full scale (`TRICLUSTER_FULL=1`) or the
/// laptop-friendly default.
pub fn full_scale() -> bool {
    std::env::var("TRICLUSTER_FULL").is_ok_and(|v| v != "0")
}

/// The base synthetic spec for the Figure 7 sweeps: the paper's defaults
/// when `full` is set (4000×30×20 matrix, 10 clusters of 150×6×4, 20%
/// overlap, 3% noise), otherwise a scaled-down configuration with the same
/// proportions.
pub fn fig7_base(full: bool) -> SynthSpec {
    if full {
        SynthSpec::paper_default()
    } else {
        SynthSpec::default()
    }
}

/// Mining parameters used for the sweeps: ε sized to the spec's noise,
/// minimum shape at roughly half the embedded cluster shape (so recovery is
/// unambiguous but not tautological).
pub fn fig7_params(spec: &SynthSpec) -> Params {
    Params::builder()
        .epsilon(spec.suggested_epsilon())
        .min_genes(spec.gene_range.0 / 2)
        .min_samples(spec.sample_range.0.saturating_sub(1).max(2))
        .min_times(spec.time_range.0.saturating_sub(1).max(2))
        .build()
        .expect("valid sweep parameters")
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The varied parameter's value at this point.
    pub x: f64,
    /// Wall-clock mining time.
    pub time: Duration,
    /// Number of clusters found.
    pub clusters: usize,
    /// Recall of the embedded clusters at Jaccard ≥ 0.5.
    pub recall: f64,
    /// Per-phase breakdown of the mining run.
    pub timings: Timings,
    /// Peak live heap bytes during the mine; `None` unless the binary was
    /// built with the `track-alloc` feature (byte-accounting allocator).
    pub peak_live_bytes: Option<u64>,
    /// Bytes allocated during the mine; `None` without `track-alloc`.
    pub alloc_bytes: Option<u64>,
    /// Which fan-out granularity the scheduler chose for this run.
    pub fanout: FanoutDecision,
}

impl SweepPoint {
    /// JSON object for `--json` outputs: the headline numbers plus the
    /// per-phase breakdown (per-slice phases as summed CPU, see
    /// [`Timings`]) and — when the tracking allocator is installed —
    /// measured memory.
    pub fn to_json(&self) -> Json {
        let t = &self.timings;
        let secs = |d: Duration| Json::F64(d.as_secs_f64());
        let mut obj = Json::obj()
            .with("x", Json::F64(self.x))
            .with("seconds", secs(self.time))
            .with("clusters", Json::U64(self.clusters as u64))
            .with("recall", Json::F64(self.recall))
            .with(
                "phases",
                Json::obj()
                    .with("slices_wall_secs", secs(t.slices_wall))
                    .with("range_graphs_cpu_secs", secs(t.range_graphs))
                    .with("biclusters_cpu_secs", secs(t.biclusters))
                    .with("triclusters_secs", secs(t.triclusters))
                    .with("prune_secs", secs(t.prune)),
            );
        if let Some(peak) = self.peak_live_bytes {
            obj = obj.with("peak_live_bytes", Json::U64(peak));
        }
        if let Some(total) = self.alloc_bytes {
            obj = obj.with("alloc_bytes", Json::U64(total));
        }
        obj = obj.with(
            "fanout",
            Json::obj()
                .with(
                    "range_graph",
                    Json::Str(self.fanout.range_graph.as_str().into()),
                )
                .with(
                    "bicluster",
                    Json::Str(self.fanout.bicluster.as_str().into()),
                )
                .with("threads", Json::U64(self.fanout.threads as u64)),
        );
        obj
    }
}

/// Generates the spec's dataset, mines it, and measures the point.
pub fn measure(spec: &SynthSpec, x: f64) -> SweepPoint {
    measure_with(spec, x, fig7_params(spec))
}

/// Like [`measure`], but pinning the mining run to `threads` worker
/// threads and mining through `sink`; `x` is typically the thread count
/// itself (the `bench scaling` sweep). The sink lets a benchmark run carry
/// observability along — e.g. a [`Timeline`] sink to export a per-worker
/// trace of each scaling point.
///
/// [`Timeline`]: tricluster_core::obs::timeline::Timeline
pub fn measure_threads_observed(
    spec: &SynthSpec,
    x: f64,
    threads: usize,
    sink: &dyn EventSink,
) -> SweepPoint {
    let mut params = fig7_params(spec);
    params.threads = Some(threads);
    measure_with_observed(spec, x, params, sink)
}

fn measure_with(spec: &SynthSpec, x: f64, params: Params) -> SweepPoint {
    measure_with_observed(spec, x, params, &NullSink)
}

/// The fully general measurement: generates the spec's dataset and mines it
/// through `sink` with the given parameters.
pub fn measure_with_observed(
    spec: &SynthSpec,
    x: f64,
    params: Params,
    sink: &dyn EventSink,
) -> SweepPoint {
    let data = generate(spec);
    // Reset the allocator's high-water mark after generation so the peak
    // reflects the mine itself, not the dataset build. No-ops without the
    // tracking allocator installed.
    alloc::reset_peak();
    let before = alloc::snapshot();
    let start = Instant::now();
    let result = Session::new(params)
        .run(&data.matrix, sink)
        .expect("bench inputs are valid");
    let time = start.elapsed();
    let after = alloc::snapshot();
    let report = recovery::score(&data.truth, &result.triclusters, 0.5);
    SweepPoint {
        x,
        time,
        clusters: result.triclusters.len(),
        recall: report.recall,
        timings: result.timings,
        peak_live_bytes: after.as_ref().map(|s| s.peak_live_bytes),
        alloc_bytes: match (&before, &after) {
            (Some(b), Some(a)) => Some(a.bytes_since(b)),
            _ => None,
        },
        fanout: result.fanout,
    }
}

/// The six Figure 7 sweeps: returns `(figure label, x-axis label, specs)`
/// where each spec varies exactly one generator parameter.
/// A sweep: `(figure label, x-axis label, points)`.
pub type Sweep = (&'static str, &'static str, Vec<(f64, SynthSpec)>);

pub fn fig7_sweeps(full: bool) -> Vec<Sweep> {
    let base = fig7_base(full);
    let scale = |v: usize| if full { v } else { v / 2 };

    // (a) genes per cluster — and total genes proportionally, keeping the
    // cluster/background gene ratio fixed as the paper's generator does
    let a: Vec<(f64, SynthSpec)> = [scale(50), scale(100), scale(150), scale(200), scale(250)]
        .into_iter()
        .map(|gx| {
            let mut s = base.clone();
            s.gene_range = (gx, gx);
            s.n_genes = (gx * base.n_genes) / base.gene_range.0;
            (gx as f64, s)
        })
        .collect();

    // (b) samples in the matrix (cluster sample size fixed)
    let b: Vec<(f64, SynthSpec)> = [10, 14, 18, 22, 26]
        .into_iter()
        .map(|ns| {
            let mut s = base.clone();
            s.n_samples = ns;
            (ns as f64, s)
        })
        .collect();

    // (c) time slices in the matrix
    let c: Vec<(f64, SynthSpec)> = [6, 10, 14, 18, 22]
        .into_iter()
        .map(|nt| {
            let mut s = base.clone();
            s.n_times = nt;
            (nt as f64, s)
        })
        .collect();

    // (d) number of embedded clusters in a fixed-size matrix (cluster gene
    // size reduced so 20 disjoint clusters fit, as in the paper's fixed
    // 4000-gene genome)
    let d: Vec<(f64, SynthSpec)> = [4, 8, 12, 16, 20]
        .into_iter()
        .map(|k| {
            let mut s = base.clone();
            s.n_clusters = k;
            let gx = if full { 150 } else { 40 };
            s.gene_range = (gx, gx);
            (k as f64, s)
        })
        .collect();

    // (e) overlap percentage
    let e: Vec<(f64, SynthSpec)> = [0.0, 0.2, 0.4, 0.6, 0.8]
        .into_iter()
        .map(|f| {
            let mut s = base.clone();
            s.overlap_fraction = f;
            (f * 100.0, s)
        })
        .collect();

    // (f) noise level
    let f: Vec<(f64, SynthSpec)> = [0.00, 0.01, 0.02, 0.03, 0.04]
        .into_iter()
        .map(|n| {
            let mut s = base.clone();
            s.noise = n;
            (n * 100.0, s)
        })
        .collect();

    vec![
        ("fig7a", "genes per cluster", a),
        ("fig7b", "samples in matrix", b),
        ("fig7c", "time slices in matrix", c),
        ("fig7d", "number of clusters", d),
        ("fig7e", "overlap %", e),
        ("fig7f", "noise %", f),
    ]
}

/// The workload for `bench scaling`: a few-slice/many-gene shape (the case
/// the intra-slice fan-out exists for — at 2 time slices, slice-striping
/// can use at most 2 workers) sized to mine in roughly a second per run so
/// a 1/2/4/8-thread sweep stays affordable.
pub fn scaling_spec() -> SynthSpec {
    SynthSpec {
        n_genes: 4000,
        n_samples: 16,
        n_times: 2,
        n_clusters: 6,
        gene_range: (200, 200),
        sample_range: (5, 5),
        time_range: (2, 2),
        noise: 0.03,
        ..SynthSpec::default()
    }
}

/// Ablation: mining **without** the precomputed range multigraph — every
/// DFS extension recomputes the ratio ranges of the involved column pair
/// with the production pair kernel. Same output as the real miner;
/// measures the value of phase 1's compact summary.
pub mod nocache {
    use tricluster_bitset::BitSet;
    use tricluster_core::cluster::Bicluster;
    use tricluster_core::range::RatioRange;
    use tricluster_core::rangegraph::{compute_pair, PairScratch, SliceColumns};
    use tricluster_core::Params;
    use tricluster_matrix::Matrix3;

    /// Bicluster mining for slice `t` with ranges recomputed at every DFS
    /// extension (no multigraph), by the production pair kernel.
    pub fn mine_biclusters_nocache(m: &Matrix3, t: usize, params: &Params) -> Vec<Bicluster> {
        struct Ctx<'a> {
            cols: SliceColumns,
            scratch: PairScratch,
            t: usize,
            params: &'a Params,
            results: Vec<Bicluster>,
            samples: Vec<usize>,
        }
        impl Ctx<'_> {
            fn dfs(&mut self, genes: &BitSet, pending: &[usize]) {
                if self.samples.len() >= self.params.min_samples
                    && genes.count() >= self.params.min_genes
                {
                    let cand = Bicluster::new(genes.clone(), self.samples.clone(), self.t);
                    tricluster_core::cluster::insert_maximal(&mut self.results, cand);
                }
                for (i, &sb) in pending.iter().enumerate() {
                    let rest = &pending[i + 1..];
                    if self.samples.is_empty() {
                        self.samples.push(sb);
                        self.dfs(genes, rest);
                        self.samples.pop();
                        continue;
                    }
                    let mut per_sample: Vec<Vec<RatioRange>> = Vec::new();
                    let mut dead = false;
                    for &sa in &self.samples {
                        // the ablation: ranges recomputed here, every time
                        let mut ranges = Vec::new();
                        compute_pair(
                            &self.cols,
                            sa,
                            sb,
                            self.params,
                            &mut self.scratch,
                            &mut ranges,
                        );
                        ranges.retain(|r| {
                            r.genes
                                .intersection_count_at_least(genes, self.params.min_genes)
                        });
                        if ranges.is_empty() {
                            dead = true;
                            break;
                        }
                        per_sample.push(ranges);
                    }
                    if dead {
                        continue;
                    }
                    let mut combos: Vec<BitSet> = vec![genes.clone()];
                    for ranges in &per_sample {
                        let mut next = Vec::new();
                        for acc in &combos {
                            for r in ranges {
                                let inter = acc.intersection(&r.genes);
                                if inter.count() >= self.params.min_genes {
                                    next.push(inter);
                                }
                            }
                        }
                        combos = next;
                        if combos.is_empty() {
                            break;
                        }
                    }
                    combos.sort_by(|a, b| a.as_blocks().cmp(b.as_blocks()));
                    combos.dedup();
                    for new_genes in combos {
                        self.samples.push(sb);
                        self.dfs(&new_genes, rest);
                        self.samples.pop();
                    }
                }
            }
        }
        let mut ctx = Ctx {
            cols: SliceColumns::from_slice(m.time_slice_raw(t), m.n_genes(), m.n_samples()),
            scratch: PairScratch::default(),
            t,
            params,
            results: Vec::new(),
            samples: Vec::new(),
        };
        let order: Vec<usize> = (0..m.n_samples()).collect();
        ctx.dfs(&BitSet::full(m.n_genes()), &order);
        ctx.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_core::bicluster::mine_biclusters_profiled;
    use tricluster_core::obs::NullSink;
    use tricluster_core::rangegraph::build_range_graph_observed;
    use tricluster_core::testdata::paper_table1;

    #[test]
    fn sweeps_have_five_points_each() {
        let sweeps = fig7_sweeps(false);
        assert_eq!(sweeps.len(), 6);
        for (label, _, points) in &sweeps {
            assert_eq!(points.len(), 5, "{label}");
        }
    }

    #[test]
    fn sweep_point_json_has_phase_breakdown() {
        let spec = SynthSpec {
            n_genes: 120,
            n_samples: 8,
            n_times: 4,
            n_clusters: 2,
            gene_range: (20, 20),
            sample_range: (4, 4),
            time_range: (3, 3),
            ..SynthSpec::default()
        };
        let rendered = measure(&spec, 20.0).to_json().render();
        for needle in [
            "\"phases\"",
            "slices_wall_secs",
            "range_graphs_cpu_secs",
            "biclusters_cpu_secs",
            "triclusters_secs",
            "prune_secs",
        ] {
            assert!(rendered.contains(needle), "missing {needle}: {rendered}");
        }
    }

    #[test]
    fn measure_small_point_recovers() {
        let spec = SynthSpec {
            n_genes: 300,
            n_samples: 10,
            n_times: 5,
            n_clusters: 3,
            gene_range: (40, 40),
            sample_range: (4, 4),
            time_range: (3, 3),
            ..SynthSpec::default()
        };
        let point = measure(&spec, 40.0);
        assert!(point.recall >= 0.99, "{point:?}");
        assert!(point.clusters >= 3);
    }

    /// The no-cache ablation must produce the same biclusters as the real
    /// miner (it only removes caching, not logic).
    #[test]
    fn nocache_matches_real_miner() {
        let m = paper_table1();
        let params = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .build()
            .unwrap();
        for t in 0..2 {
            let rg = build_range_graph_observed(&m, t, &params, &NullSink).0;
            let mut real: Vec<_> = mine_biclusters_profiled(&m, &rg, &params, false)
                .0
                .into_iter()
                .map(|b| (b.genes.to_vec(), b.samples))
                .collect();
            let mut nocache: Vec<_> = nocache::mine_biclusters_nocache(&m, t, &params)
                .into_iter()
                .map(|b| (b.genes.to_vec(), b.samples))
                .collect();
            real.sort();
            nocache.sort();
            assert_eq!(real, nocache, "slice {t}");
        }
    }
}
