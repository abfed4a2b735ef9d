//! High-level mining pipeline (paper §4).
//!
//! The pipeline body wires the four phases together: per-slice range
//! multigraphs, per-slice bicluster mining (fanned out across threads —
//! slices are independent), tricluster enumeration, and the optional
//! merge/prune pass. Each phase runs through the one stage step,
//! `fault::stage`. [`Session::run`] is the one path into the pipeline;
//! [`mine`] is a one-shot session.

use crate::bicluster::{mine_biclusters_ctrl, BiclusterStats};
use crate::cancel::TruncationReason;
use crate::cluster::{Bicluster, Tricluster};
use crate::engine::Session;
use crate::error::MineError;
use crate::fault::{
    fail_point_panic, fan_out, isolate, stage, RunCtrl, Stage, WorkerFailure, SLICES,
};
use crate::params::Params;
use crate::prune::{merge_and_prune_observed, PruneStats};
use crate::range::RatioRange;
use crate::rangegraph::{build_range_graph_ctrl, RangeGraph, RangeGraphStats};
use crate::tricluster::mine_triclusters_ctrl;
use std::time::Duration;
use tricluster_bitset::BitSet;
use tricluster_matrix::{Axis, Matrix3};
use tricluster_obs::metrics::Registry;
use tricluster_obs::progress::Phase;
use tricluster_obs::{
    alloc, emit, names, timeline, Event, EventSink, Fanout, Histogram, NullSink, RunReport,
};

/// Granularity one phase actually fanned out at: slice-level while a run
/// has at least as many time slices as worker threads, intra-slice (pair
/// and branch) otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanoutLevel {
    /// Whole time slices spread across workers.
    Slice,
    /// `(slice, column-pair)` work items within each slice.
    Pair,
    /// Top-level sample-seed DFS branches within each slice.
    Branch,
}

impl FanoutLevel {
    /// Stable lowercase name for reports and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            FanoutLevel::Slice => "slice",
            FanoutLevel::Pair => "pair",
            FanoutLevel::Branch => "branch",
        }
    }
}

/// The schedule the miner chose for this run. Unlike everything in the
/// report's deterministic sections this depends on the thread count, so it
/// is exposed here (and as a trace event) rather than as a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutDecision {
    /// Fan-out level of range-graph construction.
    pub range_graph: FanoutLevel,
    /// Fan-out level of the bicluster DFS.
    pub bicluster: FanoutLevel,
    /// Worker threads the run was scheduled onto.
    pub threads: usize,
}

/// Everything produced by one mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The final maximal triclusters (after merge/prune when enabled).
    pub triclusters: Vec<Tricluster>,
    /// The biclusters mined from each time slice (before the tricluster
    /// phase), for diagnostics and for the paper's per-slice analyses.
    pub per_time_biclusters: Vec<Vec<Bicluster>>,
    /// Total ranges (multigraph edges) per time slice.
    pub ranges_per_time: Vec<usize>,
    /// Statistics of the merge/prune pass (zeros when disabled).
    pub prune_stats: PruneStats,
    /// `true` when the run was cut short — by a budget
    /// ([`Params::max_candidates`], [`Params::deadline`],
    /// [`Params::max_memory`]) or by an isolated worker failure. The
    /// clusters are sound but possibly incomplete (a subset of what the
    /// unconstrained run mines).
    pub truncated: bool,
    /// Why the run was cut short; `None` for a complete run. When several
    /// causes fired, the highest-precedence one is reported:
    /// deadline > memory > candidate budget > worker failure.
    pub truncation: Option<TruncationReason>,
    /// Isolated work units that panicked, sorted by (phase, unit, message).
    /// Their results are missing from the run; everything else merged
    /// deterministically.
    pub worker_failures: Vec<WorkerFailure>,
    /// Phase timings.
    pub timings: Timings,
    /// Structured run report: phase spans plus the counter taxonomy of
    /// [`tricluster_obs::names`]. Counter values are deterministic for a
    /// given input/parameters, independent of thread count.
    pub report: RunReport,
    /// Which fan-out granularity each per-slice phase ran at. Purely a
    /// scheduling artifact: it varies with [`Params::threads`] while
    /// clusters and report counters do not.
    pub fanout: FanoutDecision,
}

/// Duration of each pipeline phase: each field is the total of its phase's
/// span in the run report (`range_graphs` is the total of
/// `phase.range_graph`, and so on), so the report's `timings` section
/// repeats its `report.spans` totals by construction.
///
/// The per-slice phases are reported in two views: `range_graphs` and
/// `biclusters` are *summed CPU time* measured inside each worker (they can
/// exceed wall-clock when slices run in parallel), while `slices_wall` is
/// the wall-clock of the whole fan-out. Under intra-slice fan-out the
/// slices run sequentially and parallelize internally, so those two sums
/// are per-slice wall times and stay at or below `slices_wall`. A slice
/// whose BICLUSTER DFS panics still counts its range-graph time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Range multigraph construction, CPU time summed over slices.
    pub range_graphs: Duration,
    /// Bicluster mining, CPU time summed over slices.
    pub biclusters: Duration,
    /// Wall-clock of the parallel per-slice fan-out (phases 1+2 together).
    pub slices_wall: Duration,
    /// Tricluster enumeration.
    pub triclusters: Duration,
    /// Merge/prune pass.
    pub prune: Duration,
}

impl Timings {
    /// Total wall-clock of the pipeline.
    pub fn total(&self) -> Duration {
        self.slices_wall + self.triclusters + self.prune
    }

    /// The phase span totals of a run's report.
    fn from_spans(report: &RunReport) -> Timings {
        let total = |name| report.spans.get(name).map_or(Duration::ZERO, |s| s.total);
        Timings {
            range_graphs: total(names::SPAN_RANGE_GRAPH),
            biclusters: total(names::SPAN_BICLUSTER),
            slices_wall: total(names::SPAN_SLICES_WALL),
            triclusters: total(names::SPAN_TRICLUSTER),
            prune: total(names::SPAN_PRUNE),
        }
    }
}

/// Heap bytes of a bitset's block storage.
fn bitset_bytes(bits: &BitSet) -> u64 {
    std::mem::size_of_val(bits.as_blocks()) as u64
}

/// Logical size of a range multigraph: edge payloads plus their gene-set
/// blocks. Deterministic (derived from data-structure sizes, not the
/// allocator), so it can live in the report's memory section.
fn range_graph_bytes(rg: &RangeGraph) -> u64 {
    rg.ranges()
        .map(|r| std::mem::size_of::<RatioRange>() as u64 + bitset_bytes(&r.genes))
        .sum()
}

/// Logical size of a set of biclusters (gene blocks + sample indices).
fn biclusters_bytes(bcs: &[Bicluster]) -> u64 {
    bcs.iter()
        .map(|b| {
            std::mem::size_of::<Bicluster>() as u64
                + bitset_bytes(&b.genes)
                + (b.samples.len() * std::mem::size_of::<usize>()) as u64
        })
        .sum()
}

/// Logical size of a set of triclusters.
fn triclusters_bytes(cs: &[Tricluster]) -> u64 {
    cs.iter()
        .map(|c| {
            std::mem::size_of::<Tricluster>() as u64
                + bitset_bytes(&c.genes)
                + ((c.samples.len() + c.times.len()) * std::mem::size_of::<usize>()) as u64
        })
        .sum()
}

/// What one per-slice worker returns: the slice's biclusters plus its
/// locally accumulated stats.
struct SliceOutput {
    n_ranges: usize,
    biclusters: Vec<Bicluster>,
    truncated: bool,
    rg_stats: RangeGraphStats,
    bc_stats: BiclusterStats,
    /// Logical bytes of this slice's range multigraph (it is dropped before
    /// the worker returns; the caller keeps the per-run peak).
    rg_bytes: u64,
}

/// Runs phases 1+2 for one slice, each as a stage on the worker (this is
/// what makes the summed-CPU `Timings::range_graphs` view possible): their
/// spans and trace events go straight to `sink`; counters are accumulated
/// locally and merged by the caller in slice order, keeping them
/// deterministic under any thread schedule.
///
/// `workers` is how many threads the slice fans its column pairs and DFS
/// branches out over: `1` under slice-level fan-out (this slice shares the
/// machine with its siblings), all of them under intra-slice fan-out.
fn mine_slice(
    m: &Matrix3,
    t: usize,
    params: &Params,
    sink: &dyn EventSink,
    workers: usize,
    ctrl: &RunCtrl,
) -> SliceOutput {
    fail_point_panic("core.slice");
    let collect_hists = sink.wants_histograms();
    let ((rg, rg_stats), rg_time) = stage(sink, &Stage::RANGE_GRAPH, || {
        build_range_graph_ctrl(m, t, params, sink, workers, ctrl)
    });
    let n_ranges = rg.n_ranges();
    let rg_bytes = range_graph_bytes(&rg);
    let ((biclusters, truncated, bc_stats), bc_time) = stage(sink, &Stage::BICLUSTER, || {
        mine_biclusters_ctrl(m, &rg, params, collect_hists, workers, ctrl)
    });
    emit(sink, || {
        Event::new("miner.slice")
            .field("time", t)
            .field("ranges", n_ranges)
            .field("biclusters", biclusters.len())
            .field("range_graph_ns", rg_time.as_nanos() as u64)
            .field("bicluster_ns", bc_time.as_nanos() as u64)
    });
    SliceOutput {
        n_ranges,
        biclusters,
        truncated,
        rg_stats,
        bc_stats,
        rg_bytes,
    }
}

/// Runs the full TriCluster pipeline on `m` with the given parameters: a
/// one-shot [`Session`] without instrumentation.
///
/// The matrix is mined as-is (genes × samples × times); use
/// [`Session::auto_transpose`] to let the library apply the paper's
/// canonical transposition first, or [`Session::shifting`] to mine
/// shifting clusters.
///
/// # Errors
///
/// Returns a typed [`MineError`] for conditions detected at the front door
/// (invalid [`Params`], an explicit `±inf` cell, an all-`NaN` matrix, a
/// memory budget smaller than the input matrix) and for panics that escape
/// every isolation boundary. Exhausting a run budget mid-flight is *not* an
/// error: it yields `Ok` with [`MiningResult::truncation`] set.
pub fn mine(m: &Matrix3, params: &Params) -> Result<MiningResult, MineError> {
    Session::new(params.clone()).run(m, &NullSink)
}

/// Validates the inputs a run is about to work on; all checks are
/// deterministic scans, so the same input always fails the same way.
pub(crate) fn validate_input(m: &Matrix3, params: &Params) -> Result<(), MineError> {
    params.validate()?;
    let (ng, ns, nt) = m.dims();
    let mut finite = 0usize;
    for g in 0..ng {
        for s in 0..ns {
            for t in 0..nt {
                let v = m.get(g, s, t);
                if v.is_infinite() {
                    return Err(MineError::NonFiniteInput {
                        gene: g,
                        sample: s,
                        time: t,
                        value: v,
                    });
                }
                if !v.is_nan() {
                    finite += 1;
                }
            }
        }
    }
    // NaN is the missing-value marker and is skipped cell-by-cell, but a
    // matrix with cells and *no* values at all is unminable.
    if ng * ns * nt > 0 && finite == 0 {
        return Err(MineError::DegenerateInput {
            reason: "every cell is NaN (missing)".to_owned(),
        });
    }
    if let Some(budget) = params.max_memory {
        let matrix_bytes = (ng * ns * nt * std::mem::size_of::<f64>()) as u64;
        if matrix_bytes > budget {
            return Err(MineError::MemoryBudget {
                required: matrix_bytes,
                budget,
            });
        }
    }
    Ok(())
}

/// The pipeline body: phases 1–4 plus report assembly, under `ctrl`'s
/// budgets and fault collection.
pub(crate) fn mine_pipeline(
    m: &Matrix3,
    params: &Params,
    sink: &dyn EventSink,
    ctrl: &RunCtrl,
) -> MiningResult {
    let n_times = m.n_times();
    // Every signal reaches the caller's sink once and the run's own
    // registry once; the registry's snapshot is the run report.
    let registry = Registry::new();
    let fanout = Fanout(vec![&registry, sink]);
    let sink: &dyn EventSink = &fanout;
    // `None` unless the binary installed obs' tracking allocator; the
    // sequential stages attribute their own allocator deltas.
    let alloc_start = alloc::snapshot();
    // Timeline journaling for the coordinating thread (worker threads
    // attach inside their spawn closures); a `None` timeline keeps every
    // ambient record call a thread-local check.
    let _tl_main = ctrl.timeline.as_ref().map(|t| t.attach("main"));
    if let Some(p) = &ctrl.progress {
        p.set_phase(Phase::Slices);
    }

    // Phase 1+2 per slice, fanned out across worker threads. Each worker
    // runs its slice's phases as stages of their own, so range-graph vs
    // bicluster CPU time stays separable even in parallel.
    let mut per_time_biclusters: Vec<Vec<Bicluster>> = vec![Vec::new(); n_times];
    let mut ranges_per_time: Vec<usize> = vec![0; n_times];
    let mut truncated = false;
    let threads = params.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    // Two-level scheduler: with at least as many slices as workers, whole
    // slices keep every worker busy. When workers outnumber slices (the
    // common microarray shape: few time points, huge slices), slices run one
    // at a time and fan out internally over column pairs and sample-seed
    // branches instead.
    let intra = threads > 1 && threads > n_times;
    let (slice_workers, unit_workers) = if intra { (1, threads) } else { (threads, 1) };
    let fanout = FanoutDecision {
        range_graph: if intra {
            FanoutLevel::Pair
        } else {
            FanoutLevel::Slice
        },
        // A global `max_candidates` budget must be spent in branch order,
        // which keeps the DFS at one worker; see `mine_biclusters_ctrl`.
        bicluster: if intra && params.max_candidates.is_none() {
            FanoutLevel::Branch
        } else {
            FanoutLevel::Slice
        },
        threads,
    };
    emit(sink, || {
        Event::new("miner.fanout")
            .field("range_graph", fanout.range_graph.as_str())
            .field("bicluster", fanout.bicluster.as_str())
            .field("threads", threads)
    });
    let mut rg_total = RangeGraphStats::default();
    let mut bc_total = BiclusterStats::default();
    let collect_hists = sink.wants_histograms();
    let mut slice_hists = collect_hists.then(|| (Histogram::default(), Histogram::default()));
    let mut rg_peak_bytes = 0u64;
    let mut memory_truncated = false;
    // Slice outputs are absorbed in slice order: every counter below is
    // published from this single thread, so totals are identical
    // regardless of how the slices were scheduled.
    stage(sink, &Stage::SLICES, || {
        fan_out(
            ctrl,
            &SLICES,
            n_times,
            slice_workers,
            |t| format!("t={t}"),
            || (),
            |_, t| mine_slice(m, t, params, sink, unit_workers, ctrl),
            |t, out| {
                ranges_per_time[t] = out.n_ranges;
                truncated |= out.truncated;
                rg_total.absorb(&out.rg_stats);
                bc_total.absorb(&out.bc_stats);
                rg_peak_bytes = rg_peak_bytes.max(out.rg_bytes);
                if let Some((edges, bcs)) = slice_hists.as_mut() {
                    edges.record(out.n_ranges as u64);
                    bcs.record(out.biclusters.len() as u64);
                }
                // Memory budget: retained bicluster bytes are charged here, in
                // slice order, so which slices get dropped (this one and every
                // later one, once the budget tips) is identical across thread
                // counts and fan-out levels.
                if !memory_truncated && ctrl.charge(biclusters_bytes(&out.biclusters)) {
                    per_time_biclusters[t] = out.biclusters;
                } else {
                    memory_truncated = true;
                }
            },
        )
    });
    rg_total.publish(sink);
    bc_total.publish(sink);
    if let Some((edges, bcs)) = &slice_hists {
        sink.histogram(names::H_SLICE_EDGES, edges);
        sink.histogram(names::H_SLICE_BICLUSTERS, bcs);
    }

    if let Some(p) = &ctrl.progress {
        p.set_phase(Phase::Tricluster);
    }
    // The tricluster DFS has no intra-phase fan-out, so it is isolated at
    // phase granularity: a panic costs the whole phase (no triclusters) but
    // the per-slice biclusters and the report survive.
    let ((triclusters, tri_cut, tri_stats), _) = stage(sink, &Stage::TRICLUSTER, || {
        isolate(
            &ctrl.faults,
            "tricluster",
            || "phase".to_owned(),
            || {
                fail_point_panic("core.tricluster.phase");
                mine_triclusters_ctrl(m, &per_time_biclusters, params, collect_hists, ctrl, sink)
            },
        )
        .unwrap_or_default()
    });
    truncated |= tri_cut;
    tri_stats.publish(sink);

    if let Some(p) = &ctrl.progress {
        p.set_phase(Phase::Prune);
    }
    let ((mut triclusters, prune_stats), _) = stage(sink, &Stage::PRUNE, || match &params.merge {
        // merge_and_prune_observed publishes the prune counters itself. It
        // consumes the triclusters, so a panic mid-phase loses them — the
        // recorded WorkerFailure and the truncated flag say so.
        Some(merge) => isolate(
            &ctrl.faults,
            "prune",
            || "phase".to_owned(),
            || {
                fail_point_panic("core.prune.phase");
                merge_and_prune_observed(triclusters, merge, sink)
            },
        )
        .unwrap_or_default(),
        None => (triclusters, PruneStats::default()),
    });

    // Deterministic output order: by genes, then samples, then times.
    triclusters.sort_by(|a, b| {
        a.genes
            .to_vec()
            .cmp(&b.genes.to_vec())
            .then_with(|| a.samples.cmp(&b.samples))
            .then_with(|| a.times.cmp(&b.times))
    });

    // Logical memory accounting: sizes derived from the data structures
    // themselves, so these counters stay deterministic across thread counts.
    let (ng, ns, nt) = (m.n_genes() as u64, m.n_samples() as u64, n_times as u64);
    sink.counter(
        names::M_MATRIX_BYTES,
        ng * ns * nt * std::mem::size_of::<f64>() as u64,
    );
    sink.counter(names::M_RANGEGRAPH_BYTES, rg_peak_bytes);
    sink.counter(
        names::M_BICLUSTER_BYTES,
        per_time_biclusters
            .iter()
            .map(|b| biclusters_bytes(b))
            .sum(),
    );
    sink.counter(names::M_TRICLUSTER_BYTES, triclusters_bytes(&triclusters));
    // Measured allocator totals, only when a tracking allocator is
    // installed (feature-gated in the binaries). These are *not*
    // deterministic; default builds never emit them.
    if let Some((start, end)) = alloc_start.zip(alloc::snapshot()) {
        sink.counter(names::M_ALLOC_TOTAL_BYTES, end.bytes_since(&start));
        sink.counter(names::M_ALLOC_TOTAL_CALLS, end.allocs_since(&start));
        sink.counter(names::M_ALLOC_PEAK_BYTES, end.peak_live_bytes);
    }

    // Fault + truncation assembly. The deadline check reads the latched
    // flag, not the clock: a run that *finished* under its deadline is never
    // marked truncated by the act of checking.
    let worker_failures = ctrl.faults.take_sorted();
    if !worker_failures.is_empty() {
        sink.counter(names::F_WORKER_FAILURES, worker_failures.len() as u64);
    }
    let truncation = crate::cancel::resolve_truncation(
        ctrl.token.cancel_was_hit(),
        ctrl.token.deadline_was_hit(),
        memory_truncated,
        truncated,
        !worker_failures.is_empty(),
    );
    if let Some(reason) = truncation {
        timeline::instant_with(names::T_TRUNCATED, || reason.as_str().to_owned());
    }
    if let Some(p) = &ctrl.progress {
        p.set_phase(Phase::Done);
    }

    let report = registry.snapshot();
    MiningResult {
        triclusters,
        per_time_biclusters,
        ranges_per_time,
        prune_stats,
        truncated: truncation.is_some(),
        truncation,
        worker_failures,
        timings: Timings::from_spans(&report),
        report,
        fanout,
    }
}

/// Maps a result mined on `m.permuted(order)` back to `m`'s axes. The
/// per-time biclusters and range counts refer to the permuted axes, so they
/// are cleared rather than reported with misleading indices.
pub(crate) fn unpermute_result(
    mut result: MiningResult,
    m: &Matrix3,
    order: [Axis; 3],
) -> MiningResult {
    let n = [m.n_genes(), m.n_samples(), m.n_times()];
    result.triclusters = result
        .triclusters
        .into_iter()
        .map(|c| unpermute_cluster(&c, order, n))
        .collect();
    result.per_time_biclusters = Vec::new();
    result.ranges_per_time = Vec::new();
    result.triclusters.sort_by(|a, b| {
        a.genes
            .to_vec()
            .cmp(&b.genes.to_vec())
            .then_with(|| a.samples.cmp(&b.samples))
            .then_with(|| a.times.cmp(&b.times))
    });
    result
}

/// Maps a cluster mined in permuted coordinates back to the original axes.
///
/// `order[k]` names the original axis that served as mined axis `k`; so the
/// mined axis-`k` index set belongs to original axis `order[k]`.
fn unpermute_cluster(c: &Tricluster, order: [Axis; 3], orig_dims: [usize; 3]) -> Tricluster {
    let mined_sets: [Vec<usize>; 3] = [c.genes.to_vec(), c.samples.clone(), c.times.clone()];
    let mut per_axis: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (k, set) in mined_sets.into_iter().enumerate() {
        per_axis[order[k].index()] = set;
    }
    Tricluster::new(
        BitSet::from_indices(orig_dims[0], per_axis[0].iter().copied()),
        per_axis[1].clone(),
        per_axis[2].clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MergeParams;
    use crate::testdata::{paper_table1, paper_table1_expected};

    fn params() -> Params {
        Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .build()
            .unwrap()
    }

    fn view(cs: &[Tricluster]) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        cs.iter()
            .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
            .collect()
    }

    /// Mines `m` through a recording sink (which turns histograms on).
    fn recorded(m: &Matrix3, p: Params) -> MiningResult {
        Session::new(p)
            .run(m, &tricluster_obs::Recorder::new())
            .unwrap()
    }

    #[test]
    fn full_pipeline_on_paper_example() {
        let m = paper_table1();
        let result = mine(&m, &params()).unwrap();
        let mut want = paper_table1_expected();
        want.sort();
        assert_eq!(view(&result.triclusters), want);
        assert_eq!(result.per_time_biclusters.len(), 2);
        assert_eq!(result.per_time_biclusters[0].len(), 3);
        assert_eq!(result.per_time_biclusters[1].len(), 3);
        assert!(result.ranges_per_time.iter().all(|&n| n > 0));
    }

    #[test]
    fn metrics_of_paper_example() {
        let m = paper_table1();
        let result = mine(&m, &params()).unwrap();
        let met = crate::metrics::cluster_metrics_observed(&m, &result.triclusters, &NullSink);
        assert_eq!(met.cluster_count, 3);
        // C1: 3*4*2=24, C2: 4*3*2=24, C3: 3*4*2=24 -> 72 cells;
        // overlaps: C2∩C3 share g0,g9 x s1,s4 x 2t = 8 cells;
        // C1∩C2 share s1,s4,s6 but no genes -> 0; C1∩C3 no genes -> 0.
        assert_eq!(met.element_sum, 72);
        assert_eq!(met.coverage, 64);
        assert!((met.overlap - 8.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn merge_pass_runs_when_enabled() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .merge(MergeParams {
                eta: 0.01,
                gamma: 0.01,
            })
            .build()
            .unwrap();
        let result = mine(&m, &p).unwrap();
        // thresholds this small change nothing on the paper example
        assert_eq!(result.triclusters.len(), 3);
    }

    /// Mines `m` through [`Session::auto_transpose`].
    fn auto(m: &Matrix3, sink: &dyn EventSink) -> MiningResult {
        Session::new(params())
            .auto_transpose()
            .run(m, sink)
            .unwrap()
    }

    #[test]
    fn auto_transpose_matches_mine_on_canonical_input() {
        let m = paper_table1(); // 10 x 7 x 2 is already canonical
        assert_eq!(
            view(&auto(&m, &NullSink).triclusters),
            view(&mine(&m, &params()).unwrap().triclusters)
        );
    }

    #[test]
    fn auto_transpose_recovers_clusters_through_permutation() {
        // Put the paper matrix's gene axis on the *time* axis: dims 2x7x10.
        let m = paper_table1();
        let twisted = m.permuted([Axis::Time, Axis::Sample, Axis::Gene]);
        assert_eq!(twisted.dims(), (2, 7, 10));
        // Mine with thresholds transposed accordingly: mined genes = orig
        // genes again after canonical permutation (largest dim = 10).
        let result = auto(&twisted, &NullSink);
        // Clusters come back in *twisted* coordinates: genes axis of
        // `twisted` is original times, times axis is original genes.
        let mut got: Vec<_> = result
            .triclusters
            .iter()
            .map(|c| (c.times.clone(), c.samples.clone(), c.genes.to_vec()))
            .collect();
        got.sort();
        let mut want = paper_table1_expected();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn unlimited_search_is_not_truncated() {
        let m = paper_table1();
        assert!(!mine(&m, &params()).unwrap().truncated);
    }

    #[test]
    fn tiny_budget_truncates_but_stays_sound() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .max_candidates(2)
            .build()
            .unwrap();
        let result = mine(&m, &p).unwrap();
        assert!(result.truncated);
        // whatever was found is still a valid (possibly incomplete) subset
        let full = mine(&m, &params()).unwrap();
        for c in &result.triclusters {
            assert!(
                full.triclusters.iter().any(|f| c.is_subcluster_of(f)),
                "truncated result produced a cluster outside the full set: {c:?}"
            );
        }
    }

    #[test]
    fn generous_budget_matches_unlimited() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .max_candidates(1_000_000)
            .build()
            .unwrap();
        let limited = mine(&m, &p).unwrap();
        assert!(!limited.truncated);
        assert_eq!(
            limited.triclusters,
            mine(&m, &params()).unwrap().triclusters
        );
    }

    #[test]
    fn timings_are_populated() {
        let m = paper_table1();
        let result = mine(&m, &params()).unwrap();
        assert!(result.timings.total() > Duration::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let m = paper_table1();
        let a = mine(&m, &params()).unwrap();
        let b = mine(&m, &params()).unwrap();
        assert_eq!(view(&a.triclusters), view(&b.triclusters));
    }

    #[test]
    fn report_has_spans_and_nonzero_counters() {
        let m = paper_table1();
        let result = mine(&m, &params()).unwrap();
        let r = &result.report;
        for span in [
            tricluster_obs::names::SPAN_SLICES_WALL,
            tricluster_obs::names::SPAN_RANGE_GRAPH,
            tricluster_obs::names::SPAN_BICLUSTER,
            tricluster_obs::names::SPAN_TRICLUSTER,
            tricluster_obs::names::SPAN_PRUNE,
        ] {
            assert!(r.spans.contains_key(span), "missing span {span}");
        }
        // per-slice spans carry one record per slice
        assert_eq!(
            r.spans[tricluster_obs::names::SPAN_RANGE_GRAPH].count,
            m.n_times() as u64
        );
        for counter in [
            tricluster_obs::names::RG_RANGES_VALID,
            tricluster_obs::names::BC_NODES,
            tricluster_obs::names::BC_RECORDED,
            tricluster_obs::names::TC_NODES,
            tricluster_obs::names::TC_RECORDED,
        ] {
            assert!(r.counter(counter) > 0, "counter {counter} is zero");
        }
    }

    /// The ISSUE's headline determinism guarantee: the counter map is
    /// byte-identical across repeated runs *and* across thread counts.
    #[test]
    fn report_counters_identical_across_runs_and_thread_counts() {
        let m = paper_table1();
        let mk = |threads: usize| {
            Params::builder()
                .epsilon(0.01)
                .min_size(3, 3, 2)
                .threads(threads)
                .build()
                .unwrap()
        };
        let serial = mine(&m, &mk(1)).unwrap();
        let parallel = mine(&m, &mk(4)).unwrap();
        let serial_again = mine(&m, &mk(1)).unwrap();
        assert_eq!(
            serial.report.counter_map(),
            serial_again.report.counter_map()
        );
        assert_eq!(serial.report.counter_map(), parallel.report.counter_map());
        assert_eq!(
            view(&serial.triclusters),
            view(&parallel.triclusters),
            "thread count must not change the mined clusters"
        );
        // span *counts* are schedule-independent too (durations are not)
        let spans = |r: &tricluster_obs::RunReport| {
            r.spans
                .iter()
                .map(|(name, s)| (*name, s.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(spans(&serial.report), spans(&parallel.report));
    }

    /// Satellite of ISSUE 2: the value histograms (and the logical memory
    /// counters) are input-determined, so `--threads 1` and `--threads 4`
    /// produce byte-identical distributions on the paper's Table 1.
    #[test]
    fn report_histograms_identical_across_thread_counts() {
        let m = paper_table1();
        let mk = |threads: usize| {
            Params::builder()
                .epsilon(0.01)
                .min_size(3, 3, 2)
                .threads(threads)
                .build()
                .unwrap()
        };
        let serial = recorded(&m, mk(1));
        let parallel = recorded(&m, mk(4));
        assert!(
            !serial.report.histograms.is_empty(),
            "recording sink must trigger histogram collection"
        );
        assert_eq!(
            serial.report.histogram_map(),
            parallel.report.histogram_map()
        );
        assert_eq!(serial.report.counter_map(), parallel.report.counter_map());
        for name in [
            tricluster_obs::names::H_RG_EDGE_GENESET,
            tricluster_obs::names::H_BC_DEPTH,
            tricluster_obs::names::H_BC_FANOUT,
            tricluster_obs::names::H_TC_DEPTH,
            tricluster_obs::names::H_SLICE_EDGES,
            tricluster_obs::names::H_SLICE_BICLUSTERS,
        ] {
            assert!(
                serial.report.histogram(name).is_some(),
                "missing histogram {name}"
            );
        }
        for name in [
            tricluster_obs::names::M_MATRIX_BYTES,
            tricluster_obs::names::M_RANGEGRAPH_BYTES,
            tricluster_obs::names::M_BICLUSTER_BYTES,
            tricluster_obs::names::M_TRICLUSTER_BYTES,
        ] {
            assert!(serial.report.counter(name) > 0, "counter {name} is zero");
        }
        // matrix: 10 genes x 7 samples x 2 times x 8 bytes
        assert_eq!(
            serial.report.counter(tricluster_obs::names::M_MATRIX_BYTES),
            10 * 7 * 2 * 8
        );
        // the default NullSink path collects no histograms at all
        assert!(mine(&m, &mk(1)).unwrap().report.histograms.is_empty());
    }

    /// Intra-slice fan-out (pair-level range graphs, branch-level DFS)
    /// yields byte-identical clusters, counters, and histograms to
    /// slice-level fan-out, at every thread count. Table 1 has 2 slices, so
    /// up to 2 threads fan out by slice and more go intra-slice.
    #[test]
    fn fanout_levels_mine_identical_results() {
        let m = paper_table1();
        let mk = |threads: usize| {
            Params::builder()
                .epsilon(0.01)
                .min_size(3, 3, 2)
                .threads(threads)
                .build()
                .unwrap()
        };
        let baseline = recorded(&m, mk(1));
        for threads in [1, 2, 3, 8] {
            let r = recorded(&m, mk(threads));
            assert_eq!(
                view(&r.triclusters),
                view(&baseline.triclusters),
                "x{threads}"
            );
            assert_eq!(
                r.report.counter_map(),
                baseline.report.counter_map(),
                "x{threads}"
            );
            assert_eq!(
                r.report.histogram_map(),
                baseline.report.histogram_map(),
                "x{threads}"
            );
            let (range_graph, bicluster) = if threads > 2 {
                (FanoutLevel::Pair, FanoutLevel::Branch)
            } else {
                (FanoutLevel::Slice, FanoutLevel::Slice)
            };
            assert_eq!(r.fanout.range_graph, range_graph, "x{threads}");
            assert_eq!(r.fanout.bicluster, bicluster, "x{threads}");
            assert_eq!(r.fanout.threads, threads);
        }
    }

    /// A global candidate budget keeps the DFS at one worker (branch order
    /// is the spend order) but pair-level range graphs still apply.
    #[test]
    fn budget_keeps_dfs_serial_under_intra_fanout() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .threads(4)
            .max_candidates(1_000_000)
            .build()
            .unwrap();
        let r = mine(&m, &p).unwrap();
        assert_eq!(r.fanout.range_graph, FanoutLevel::Pair);
        assert_eq!(r.fanout.bicluster, FanoutLevel::Slice);
        assert!(!r.truncated);
        assert_eq!(
            view(&r.triclusters),
            view(&mine(&m, &params()).unwrap().triclusters)
        );
    }

    /// Under intra-slice fan-out the pair and branch workers journal on the
    /// run's timeline next to the coordinating thread.
    #[test]
    fn intra_fanout_journals_main_pair_and_branch_tracks() {
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .threads(3)
            .build()
            .unwrap();
        let tl = timeline::Timeline::new();
        let r = Session::new(p).run(&paper_table1(), &tl).unwrap();
        assert_eq!(r.fanout.bicluster, FanoutLevel::Branch);
        let tracks: std::collections::BTreeSet<&str> =
            tl.journals().iter().map(|j| j.label).collect();
        for track in ["main", "pair", "branch"] {
            assert!(tracks.contains(track), "no {track} track in {tracks:?}");
        }
    }

    /// Mining against a recording sink yields the same report as the one
    /// embedded in the result, and the default path stays on [`NullSink`].
    #[test]
    fn observed_report_matches_external_recorder() {
        let m = paper_table1();
        let rec = tricluster_obs::Recorder::new();
        let result = Session::new(params()).run(&m, &rec).unwrap();
        let external = rec.snapshot();
        assert_eq!(result.report.counter_map(), external.counter_map());
        let quiet = mine(&m, &params()).unwrap();
        assert_eq!(result.report.counter_map(), quiet.report.counter_map());
    }

    #[test]
    fn auto_transpose_reports_through_permutation() {
        let m = paper_table1();
        let twisted = m.permuted([Axis::Time, Axis::Sample, Axis::Gene]);
        let rec = tricluster_obs::Recorder::new();
        let result = auto(&twisted, &rec);
        assert!(!result.triclusters.is_empty());
        assert!(result.report.counter(tricluster_obs::names::TC_RECORDED) > 0);
        assert_eq!(
            rec.snapshot().counter_map(),
            result.report.counter_map(),
            "external sink sees the same counters"
        );
    }
}
