//! The counter, span and gauge taxonomy used across the pipeline.
//!
//! Names are dotted paths, grouped by phase. Keeping them in one place
//! makes the `--report-json` schema discoverable and greppable; the same
//! constants are referenced by the instrumented phases, the CLI renderer,
//! and the tests that pin determinism.

// ---- spans -------------------------------------------------------------

/// Wall-clock of the parallel per-slice fan-out (range graphs + biclusters).
pub const SPAN_SLICES_WALL: &str = "phase.slices.wall";
/// Summed per-slice range-graph construction time (CPU view; count = slices).
pub const SPAN_RANGE_GRAPH: &str = "phase.range_graph";
/// Summed per-slice bicluster DFS time (CPU view; count = slices).
pub const SPAN_BICLUSTER: &str = "phase.bicluster";
/// Tricluster DFS over time points.
pub const SPAN_TRICLUSTER: &str = "phase.tricluster";
/// Merge/delete post-processing.
pub const SPAN_PRUNE: &str = "phase.prune";
/// Quality-metric computation (only when metrics are requested; every
/// `Session::run_report` requests them).
pub const SPAN_METRICS: &str = "phase.metrics";

// ---- range graph -------------------------------------------------------

pub const RG_PAIRS: &str = "rangegraph.pairs";
pub const RG_RATIOS: &str = "rangegraph.ratios";
/// Ratios that reached the range finder's sort: the window prefilter drops
/// the ones that sit in no ε-window of `mx` genes.
pub const RG_KEYS_SORTED: &str = "rangegraph.keys_sorted";
pub const RG_EDGES: &str = "rangegraph.edges";
pub const RG_RANGES_VALID: &str = "rangegraph.ranges.valid";
pub const RG_RANGES_EXTENDED: &str = "rangegraph.ranges.extended";
pub const RG_RANGES_SPLIT: &str = "rangegraph.ranges.split";
pub const RG_RANGES_PATCHED: &str = "rangegraph.ranges.patched";

// ---- bicluster DFS ------------------------------------------------------

pub const BC_NODES: &str = "bicluster.dfs.nodes";
/// DFS states skipped because an identical sample-set was already expanded.
pub const BC_DEDUP_HITS: &str = "bicluster.dfs.dedup_hits";
pub const BC_BUDGET_SPENT: &str = "bicluster.dfs.budget_spent";
pub const BC_COMBOS: &str = "bicluster.dfs.gene_combos";
/// `|X ∩ G(R)| ≥ mx` tests run while filtering candidate edge lists: work
/// done, which candidate inheritance cuts (see `bicluster::Candidates`).
pub const BC_RANGE_TESTS: &str = "bicluster.dfs.range_tests";
pub const BC_RECORDED: &str = "bicluster.recorded";
pub const BC_REJECTED_DELTA: &str = "bicluster.rejected.delta";
pub const BC_REJECTED_SUBSUMED: &str = "bicluster.rejected.subsumed";
pub const BC_REPLACED: &str = "bicluster.replaced";
/// Branch-local survivors dropped at the cross-branch maximality merge
/// (subsumed by a cluster mined from an earlier sample-seed branch).
pub const BC_MERGE_SUBSUMED: &str = "bicluster.merge.subsumed";

// ---- tricluster DFS -----------------------------------------------------

pub const TC_NODES: &str = "tricluster.dfs.nodes";
/// DFS states skipped because an identical time-set was already expanded.
pub const TC_DEDUP_HITS: &str = "tricluster.dfs.dedup_hits";
pub const TC_BUDGET_SPENT: &str = "tricluster.dfs.budget_spent";
pub const TC_EXTENSIONS: &str = "tricluster.extensions";
pub const TC_COHERENCE_CHECKS: &str = "tricluster.coherence.checks";
/// Slice-pair coherence verdicts actually computed: the logical checks
/// minus the ones the phase's memo answered.
pub const TC_COHERENCE_COMPUTED: &str = "tricluster.coherence.computed";
pub const TC_REJECTED_INCOHERENT: &str = "tricluster.rejected.incoherent";
pub const TC_REJECTED_SMALL: &str = "tricluster.rejected.small";
/// Candidates the `δ^x`/`δ^y`/`δ^z` checks kept out of the result set.
pub const TC_REJECTED_DELTA: &str = "tricluster.rejected.delta";
pub const TC_RECORDED: &str = "tricluster.recorded";
pub const TC_REJECTED_SUBSUMED: &str = "tricluster.rejected.subsumed";
pub const TC_REPLACED: &str = "tricluster.replaced";

// ---- prune --------------------------------------------------------------

pub const PR_MERGED: &str = "prune.merged";
pub const PR_DELETED_PAIRWISE: &str = "prune.deleted.pairwise";
pub const PR_DELETED_MULTICOVER: &str = "prune.deleted.multicover";

// ---- metrics ------------------------------------------------------------

pub const MX_CELLS: &str = "metrics.cells";
pub const MX_COVERED: &str = "metrics.cells_distinct";

// ---- value histograms ---------------------------------------------------
//
// All histogram values are input-determined (never wall-clock), so the
// `histograms` report section is byte-identical across thread counts.

/// Ratio-range width as parts-per-million of the range's lower bound.
pub const H_RG_RANGE_WIDTH_PPM: &str = "rangegraph.range_width_ppm";
/// Gene-set size per retained range-graph edge.
pub const H_RG_EDGE_GENESET: &str = "rangegraph.edge_geneset_size";
/// Candidate sample-set size at each bicluster DFS expansion.
pub const H_BC_CANDIDATES: &str = "bicluster.dfs.candidate_set_size";
/// Bicluster DFS depth (|sample set|) at each expanded node.
pub const H_BC_DEPTH: &str = "bicluster.dfs.depth";
/// Children actually recursed into from each expanded bicluster node.
pub const H_BC_FANOUT: &str = "bicluster.dfs.fanout";
/// Candidate time-set size at each tricluster DFS expansion.
pub const H_TC_CANDIDATES: &str = "tricluster.dfs.candidate_set_size";
/// Tricluster DFS depth (|time set|) at each expanded node.
pub const H_TC_DEPTH: &str = "tricluster.dfs.depth";
/// Children actually recursed into from each expanded tricluster node.
pub const H_TC_FANOUT: &str = "tricluster.dfs.fanout";
/// Extra-cell percentage of the bounding box, for every cluster pair the
/// merge pass compared (low percentages are near-merges).
pub const H_PR_BOUNDING_EXTRA_PCT: &str = "prune.pair_bounding_extra_pct";
/// Biclusters found per slice (distribution over time slices).
pub const H_SLICE_BICLUSTERS: &str = "slice.biclusters";
/// Range-graph edges per slice (distribution over time slices).
pub const H_SLICE_EDGES: &str = "slice.edges";

// ---- logical memory accounting (deterministic, data-structure sizes) ----

/// Bytes of the loaded expression matrix (`n_genes * n_samples * n_times * 8`).
pub const M_MATRIX_BYTES: &str = "memory.matrix.bytes";
/// Peak bytes across per-slice range multigraphs (ranges + gene sets).
pub const M_RANGEGRAPH_BYTES: &str = "memory.rangegraph.bytes";
/// Bytes held by the final bicluster store across all slices.
pub const M_BICLUSTER_BYTES: &str = "memory.biclusters.bytes";
/// Bytes held by the final tricluster set.
pub const M_TRICLUSTER_BYTES: &str = "memory.triclusters.bytes";

// ---- measured allocator counters (only with a tracking allocator) -------

/// Cumulative bytes allocated during the whole mine.
pub const M_ALLOC_TOTAL_BYTES: &str = "memory.alloc.total_bytes";
/// Cumulative allocation calls during the whole mine.
pub const M_ALLOC_TOTAL_CALLS: &str = "memory.alloc.total_calls";
/// Peak live heap bytes observed during the mine.
pub const M_ALLOC_PEAK_BYTES: &str = "memory.alloc.peak_live_bytes";
// Each per-phase pair below covers exactly one pipeline stage: from before
// its timeline span opens until its report span has been published, so it
// includes what publishing that span allocates.

/// Bytes allocated during the parallel per-slice phases (1+2).
pub const M_ALLOC_SLICES_BYTES: &str = "memory.alloc.slices.bytes";
/// Allocation calls during the parallel per-slice phases (1+2).
pub const M_ALLOC_SLICES_CALLS: &str = "memory.alloc.slices.calls";
/// Bytes allocated during the tricluster DFS stage.
pub const M_ALLOC_TRICLUSTERS_BYTES: &str = "memory.alloc.triclusters.bytes";
/// Allocation calls during the tricluster DFS stage.
pub const M_ALLOC_TRICLUSTERS_CALLS: &str = "memory.alloc.triclusters.calls";
/// Bytes allocated during the merge/prune stage (not the accounting after
/// it).
pub const M_ALLOC_PRUNE_BYTES: &str = "memory.alloc.prune.bytes";
/// Allocation calls during the merge/prune stage (not the accounting after
/// it).
pub const M_ALLOC_PRUNE_CALLS: &str = "memory.alloc.prune.calls";

// ---- timeline event names (Chrome trace export; never in the report) ----
//
// Phase spans on the timeline reuse the `SPAN_*` names above so the trace
// and the aggregate report speak the same vocabulary; the names below are
// timeline-only (fine-grained work units and degradation instants).

/// One time slice's range-graph + bicluster work (span; detail `t=<idx>`).
pub const T_SLICE: &str = "miner.slice";
/// One range-graph sample-pair computation (span).
pub const T_RG_PAIR: &str = "rangegraph.pair";
/// One bicluster DFS root branch (span).
pub const T_BC_BRANCH: &str = "bicluster.branch";
/// Merge-to-fixpoint pass of the prune phase (span).
pub const T_PR_MERGE: &str = "prune.merge_fixpoint";
/// Deletion passes (rules 1+2) of the prune phase (span).
pub const T_PR_DELETE: &str = "prune.delete";
/// Run ended truncated (instant; detail names the reason).
pub const T_TRUNCATED: &str = "miner.truncated";
/// Deadline budget tripped (instant, emitted once).
pub const T_DEADLINE: &str = "cancel.deadline";
/// Memory budget tripped (instant, emitted once).
pub const T_MEMORY: &str = "cancel.max_memory";
/// External cancellation request observed (instant, emitted once).
pub const T_CANCELLED: &str = "cancel.cancelled";
/// An isolated work unit panicked and was dropped (instant; detail names
/// the unit).
pub const T_WORKER_FAILURE: &str = "fault.worker_failure";
/// An armed failpoint fired (instant; detail carries the message).
pub const T_FAILPOINT: &str = "fault.failpoint";

// ---- service layer (the daemon's process-lifetime Registry; never in reports)
//
// Counters, latency families, and gauges published by `tricluster serve`
// and exposed on the daemon's `GET /metrics`. These aggregate across jobs
// for the life of the process, unlike the per-run taxonomy above, and are
// kept strictly outside the deterministic report sections.

/// Jobs admitted past every admission check and enqueued.
pub const SV_JOBS_ACCEPTED: &str = "serve.jobs.accepted";
/// Submissions shed with 429 `queue_full`.
pub const SV_JOBS_REJECTED_QUEUE_FULL: &str = "serve.jobs.rejected_queue_full";
/// Submissions shed with 429 `memory_budget`.
pub const SV_JOBS_REJECTED_MEMORY: &str = "serve.jobs.rejected_memory";
/// Admitted jobs whose params were clamped under the tenant caps.
pub const SV_JOBS_CLAMPED: &str = "serve.jobs.clamped";
/// Jobs that finished with a report (possibly truncated).
pub const SV_JOBS_COMPLETED: &str = "serve.jobs.completed";
/// Jobs that finished with a structured error (panic or mine failure).
pub const SV_JOBS_FAILED: &str = "serve.jobs.failed";
/// Jobs cancelled while queued or running.
pub const SV_JOBS_CANCELLED: &str = "serve.jobs.cancelled";
/// HTTP requests answered by the daemon (any route, any status).
pub const SV_HTTP_REQUESTS: &str = "serve.http.requests";

// Latency families: rendered as `_seconds` histograms like the phase spans.

/// Time a job spent queued before a worker picked it up.
pub const SV_QUEUE_WAIT: &str = "serve.job.queue_wait";
/// Time a worker spent mining the job (including its report build).
pub const SV_RUN: &str = "serve.job.run";
/// Time spent archiving a finished job into the run ledger.
pub const SV_ARCHIVE: &str = "serve.job.archive";

// Gauges: sampled under the daemon lock at scrape time.

/// Jobs currently queued.
pub const SV_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Dataset bytes currently admitted (queued + running).
pub const SV_ADMITTED_BYTES: &str = "serve.admitted.bytes";
/// Workers currently running a job.
pub const SV_WORKERS_BUSY: &str = "serve.workers.busy";
/// Finished job records currently retained for `GET /jobs/<id>`.
pub const SV_JOBS_RETAINED: &str = "serve.jobs.retained";
/// Engine dataset-cache hits since daemon start.
pub const SV_CACHE_HITS: &str = "serve.cache.hits";
/// Engine dataset-cache misses since daemon start.
pub const SV_CACHE_MISSES: &str = "serve.cache.misses";
/// Engine dataset-cache entries evicted by MRU truncation.
pub const SV_CACHE_EVICTIONS: &str = "serve.cache.evictions";

// Job-lifecycle timeline instants (Chrome trace; never in the report).

/// Job admitted and pushed onto the queue (instant; on the HTTP thread).
pub const T_SV_ENQUEUED: &str = "serve.job.enqueued";
/// Worker dequeued the job and started mining (instant).
pub const T_SV_STARTED: &str = "serve.job.started";
/// Job reached a terminal state (instant; detail names it).
pub const T_SV_FINISHED: &str = "serve.job.finished";
/// Cancellation observed for the job (instant).
pub const T_SV_CANCELLED: &str = "serve.job.cancelled";

// ---- live gauges (a run's progress and budgets; never in reports) --------
//
// Published through `EventSink::gauge`. A `Registry` stores them beside its
// counters, but its `snapshot()` leaves them out, so no gauge reaches a run
// report. They feed the live views only: `/progress`, the heartbeat, a
// served job's `progress` object, and the exposition's progress and budget
// families.

/// The pipeline phase, as a `progress::Phase` index (`init` is 0).
pub const G_PHASE: &str = "progress.phase";
/// Time slices the slice fan-out attempted.
pub const G_SLICES_DONE: &str = "progress.slices.done";
/// Time slices the slice fan-out scheduled.
pub const G_SLICES_TOTAL: &str = "progress.slices.total";
/// Range-graph column pairs attempted.
pub const G_PAIRS_DONE: &str = "progress.pairs.done";
/// Range-graph column pairs scheduled.
pub const G_PAIRS_TOTAL: &str = "progress.pairs.total";
/// BICLUSTER sample-seed branches attempted.
pub const G_BRANCHES_DONE: &str = "progress.branches.done";
/// BICLUSTER sample-seed branches scheduled.
pub const G_BRANCHES_TOTAL: &str = "progress.branches.total";
/// Candidates recorded into a maximal store, by both DFS phases.
pub const G_CANDIDATES: &str = "progress.candidates";
/// Logical bytes charged against the memory budget so far.
pub const G_LOGICAL_BYTES: &str = "progress.logical_bytes";
/// Candidate-budget units spent so far.
pub const G_BUDGET_SPENT: &str = "budget.candidates.spent";
/// The run's deadline in nanoseconds. It saturates at `u64::MAX`, about
/// 584 years; a longer deadline shows as that.
pub const G_BUDGET_DEADLINE_NS: &str = "budget.deadline.limit_ns";
/// The run's logical-memory budget in bytes.
pub const G_BUDGET_MEMORY: &str = "budget.memory.limit_bytes";
/// The run's candidate budget.
pub const G_BUDGET_CANDIDATES: &str = "budget.candidates.limit";

// ---- fault accounting (only emitted when a run degrades) ----------------

/// Isolated worker units (slices, column pairs, DFS branches, phases) that
/// panicked and were dropped from the run. Absent from clean runs, so their
/// reports stay byte-identical to builds without the fault layer.
pub const F_WORKER_FAILURES: &str = "fault.worker_failures";

/// Every registered name, in declaration order. New constants must be
/// added here too — the uniqueness/charset test below guards the whole
/// taxonomy, and the metrics exposition derives its family names from
/// these strings (`.` → `_`), so a stray character or a collision would
/// corrupt scrapes silently.
pub const ALL: &[&str] = &[
    SPAN_SLICES_WALL,
    SPAN_RANGE_GRAPH,
    SPAN_BICLUSTER,
    SPAN_TRICLUSTER,
    SPAN_PRUNE,
    SPAN_METRICS,
    RG_PAIRS,
    RG_RATIOS,
    RG_KEYS_SORTED,
    RG_EDGES,
    RG_RANGES_VALID,
    RG_RANGES_EXTENDED,
    RG_RANGES_SPLIT,
    RG_RANGES_PATCHED,
    BC_NODES,
    BC_DEDUP_HITS,
    BC_BUDGET_SPENT,
    BC_COMBOS,
    BC_RANGE_TESTS,
    BC_RECORDED,
    BC_REJECTED_DELTA,
    BC_REJECTED_SUBSUMED,
    BC_REPLACED,
    BC_MERGE_SUBSUMED,
    TC_NODES,
    TC_DEDUP_HITS,
    TC_BUDGET_SPENT,
    TC_EXTENSIONS,
    TC_COHERENCE_CHECKS,
    TC_COHERENCE_COMPUTED,
    TC_REJECTED_INCOHERENT,
    TC_REJECTED_SMALL,
    TC_REJECTED_DELTA,
    TC_RECORDED,
    TC_REJECTED_SUBSUMED,
    TC_REPLACED,
    PR_MERGED,
    PR_DELETED_PAIRWISE,
    PR_DELETED_MULTICOVER,
    MX_CELLS,
    MX_COVERED,
    H_RG_RANGE_WIDTH_PPM,
    H_RG_EDGE_GENESET,
    H_BC_CANDIDATES,
    H_BC_DEPTH,
    H_BC_FANOUT,
    H_TC_CANDIDATES,
    H_TC_DEPTH,
    H_TC_FANOUT,
    H_PR_BOUNDING_EXTRA_PCT,
    H_SLICE_BICLUSTERS,
    H_SLICE_EDGES,
    M_MATRIX_BYTES,
    M_RANGEGRAPH_BYTES,
    M_BICLUSTER_BYTES,
    M_TRICLUSTER_BYTES,
    M_ALLOC_TOTAL_BYTES,
    M_ALLOC_TOTAL_CALLS,
    M_ALLOC_PEAK_BYTES,
    M_ALLOC_SLICES_BYTES,
    M_ALLOC_SLICES_CALLS,
    M_ALLOC_TRICLUSTERS_BYTES,
    M_ALLOC_TRICLUSTERS_CALLS,
    M_ALLOC_PRUNE_BYTES,
    M_ALLOC_PRUNE_CALLS,
    T_SLICE,
    T_RG_PAIR,
    T_BC_BRANCH,
    T_PR_MERGE,
    T_PR_DELETE,
    T_TRUNCATED,
    T_DEADLINE,
    T_MEMORY,
    T_CANCELLED,
    T_WORKER_FAILURE,
    T_FAILPOINT,
    SV_JOBS_ACCEPTED,
    SV_JOBS_REJECTED_QUEUE_FULL,
    SV_JOBS_REJECTED_MEMORY,
    SV_JOBS_CLAMPED,
    SV_JOBS_COMPLETED,
    SV_JOBS_FAILED,
    SV_JOBS_CANCELLED,
    SV_HTTP_REQUESTS,
    SV_QUEUE_WAIT,
    SV_RUN,
    SV_ARCHIVE,
    SV_QUEUE_DEPTH,
    SV_ADMITTED_BYTES,
    SV_WORKERS_BUSY,
    SV_JOBS_RETAINED,
    SV_CACHE_HITS,
    SV_CACHE_MISSES,
    SV_CACHE_EVICTIONS,
    T_SV_ENQUEUED,
    T_SV_STARTED,
    T_SV_FINISHED,
    T_SV_CANCELLED,
    G_PHASE,
    G_SLICES_DONE,
    G_SLICES_TOTAL,
    G_PAIRS_DONE,
    G_PAIRS_TOTAL,
    G_BRANCHES_DONE,
    G_BRANCHES_TOTAL,
    G_CANDIDATES,
    G_LOGICAL_BYTES,
    G_BUDGET_SPENT,
    G_BUDGET_DEADLINE_NS,
    G_BUDGET_MEMORY,
    G_BUDGET_CANDIDATES,
    F_WORKER_FAILURES,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    /// Names are unique and `[a-z0-9._]+` with `.`-separated non-empty
    /// segments: uniqueness keeps report keys and metric families from
    /// colliding; the charset keeps the OpenMetrics exposition's
    /// `.` → `_` mapping injective-enough and escape-free.
    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let mut sanitized = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate name {name:?}");
            assert!(
                sanitized.insert(name.replace('.', "_")),
                "{name:?} collides with another name after `.` → `_`"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name:?} strays outside [a-z0-9._]"
            );
            assert!(
                name.split('.').all(|segment| !segment.is_empty()),
                "{name:?} has an empty dotted segment"
            );
        }
    }
}
