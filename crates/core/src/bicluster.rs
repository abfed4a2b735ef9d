//! BICLUSTER: mining maximal biclusters from the range multigraph
//! (paper §4.2, Figure 3).
//!
//! The miner performs a depth-first set-enumeration over sample columns.
//! The candidate `C = X × Y` starts as `(all genes) × ∅`; extending `Y` by a
//! new column `s_b` requires choosing, for **every** `s_a ∈ Y`, one range
//! edge `(s_a, s_b)` of the multigraph whose gene-set keeps
//! `|X ∩ ⋂ G(R)| ≥ mx`. That makes every recorded `Y` a clique of the range
//! multigraph constrained by the gene threshold — exactly the paper's
//! "constrained maximal clique" search.
//!
//! Per the pseudo-code, the `δ^x`/`δ^y`/`my` checks gate only the
//! *recording* of a candidate (lines 2–6), never its expansion; `mx` prunes
//! expansion because gene-sets shrink monotonically along a DFS path.

use crate::cluster::Bicluster;
use crate::fault::{fail_point_panic, isolate, RunCtrl};
use crate::params::Params;
use crate::range::RatioRange;
use crate::rangegraph::RangeGraph;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;
use tricluster_obs::{names, timeline, EventSink, Histogram};

/// Value distributions of one bicluster search, collected only on request
/// (see [`mine_biclusters_profiled`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BiclusterHists {
    /// DFS depth (current sample-set size) at each expanded node.
    pub depth: Histogram,
    /// Remaining candidate sample count at each expanded node.
    pub candidate_set_size: Histogram,
    /// Children actually recursed into from each expanded node.
    pub fanout: Histogram,
}

/// Statistics of one per-slice bicluster search.
///
/// All fields are input-determined (DFS order is fixed), so they are
/// identical across runs and thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BiclusterStats {
    /// DFS nodes (candidate sample sets) visited.
    pub nodes: u64,
    /// Candidate-visit budget consumed (0 when [`Params::max_candidates`]
    /// is unset).
    pub budget_spent: u64,
    /// Gene-set combinations produced by edge-combination enumeration.
    pub gene_combos: u64,
    /// Edge combinations dropped because an identical gene-set was already
    /// enumerated at the same node.
    pub dedup_hits: u64,
    /// Candidates recorded into the (tentative) result set.
    pub recorded: u64,
    /// Candidates rejected by the `δ^x`/`δ^y` checks at record time.
    pub rejected_delta: u64,
    /// Candidates rejected because an existing cluster subsumes them.
    pub rejected_subsumed: u64,
    /// Previously recorded clusters displaced by a larger candidate.
    pub replaced: u64,
    /// Branch-local survivors dropped at the cross-branch merge because a
    /// cluster from an earlier branch subsumes them (see
    /// `mine_biclusters_ctrl`).
    pub merge_subsumed: u64,
    /// Value distributions; `None` unless requested, so the default path
    /// never pays for bucket arithmetic.
    pub hists: Option<Box<BiclusterHists>>,
}

impl BiclusterStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &BiclusterStats) {
        self.nodes += other.nodes;
        self.budget_spent += other.budget_spent;
        self.gene_combos += other.gene_combos;
        self.dedup_hits += other.dedup_hits;
        self.recorded += other.recorded;
        self.rejected_delta += other.rejected_delta;
        self.rejected_subsumed += other.rejected_subsumed;
        self.replaced += other.replaced;
        self.merge_subsumed += other.merge_subsumed;
        if let Some(o) = &other.hists {
            let h = self.hists.get_or_insert_with(Box::default);
            h.depth.merge(&o.depth);
            h.candidate_set_size.merge(&o.candidate_set_size);
            h.fanout.merge(&o.fanout);
        }
    }

    /// Mirrors the stats into counter increments (and histograms, when
    /// collected) on `sink`.
    pub fn publish(&self, sink: &dyn EventSink) {
        sink.counter(names::BC_NODES, self.nodes);
        sink.counter(names::BC_BUDGET_SPENT, self.budget_spent);
        sink.counter(names::BC_COMBOS, self.gene_combos);
        sink.counter(names::BC_DEDUP_HITS, self.dedup_hits);
        sink.counter(names::BC_RECORDED, self.recorded);
        sink.counter(names::BC_REJECTED_DELTA, self.rejected_delta);
        sink.counter(names::BC_REJECTED_SUBSUMED, self.rejected_subsumed);
        sink.counter(names::BC_REPLACED, self.replaced);
        sink.counter(names::BC_MERGE_SUBSUMED, self.merge_subsumed);
        if let Some(h) = &self.hists {
            sink.histogram(names::H_BC_DEPTH, &h.depth);
            sink.histogram(names::H_BC_CANDIDATES, &h.candidate_set_size);
            sink.histogram(names::H_BC_FANOUT, &h.fanout);
        }
    }
}

/// Mines all maximal biclusters of one time slice from its range
/// multigraph.
///
/// Returned biclusters satisfy `|X| ≥ mx`, `|Y| ≥ my`, the `δ^x`/`δ^y`
/// range thresholds (when set), and are mutually non-contained. Also
/// returns whether the search was cut short by [`Params::max_candidates`]
/// (`true` = truncated: the result is sound but possibly incomplete) and
/// the search statistics, which stay local to the call — no locking
/// happens on the DFS hot path. `collect_hists` adds DFS shape histograms
/// (depth, candidate-set size, fan-out) to the stats; collection costs a
/// few bucket increments per DFS node, so callers gate it on
/// [`EventSink::wants_histograms`].
pub fn mine_biclusters_profiled(
    m: &Matrix3,
    rg: &RangeGraph,
    params: &Params,
    collect_hists: bool,
) -> (Vec<Bicluster>, bool, BiclusterStats) {
    mine_biclusters_ctrl(m, rg, params, collect_hists, 1, &RunCtrl::unbounded())
}

/// Everything one top-level branch produced, keyed by its seed sample.
struct BranchOutput {
    branch: usize,
    results: MaximalStore,
    truncated: bool,
    /// Budget consumed inside the branch (for sequential budget threading).
    spent: u64,
    stats: BiclusterStats,
}

/// Mines the branch rooted at sample `order[branch]` into a local store.
#[allow(clippy::too_many_arguments)]
fn run_branch<'a>(
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    collect_hists: bool,
    all_genes: &BitSet,
    order: &[usize],
    branch: usize,
    budget: Option<u64>,
    ctrl: &'a RunCtrl,
) -> BranchOutput {
    fail_point_panic("core.bicluster.branch");
    let mut stats = BiclusterStats::default();
    if collect_hists {
        stats.hists = Some(Box::default());
    }
    let mut miner = BranchMiner {
        m,
        rg,
        params,
        t: rg.time,
        results: MaximalStore::new(),
        samples: vec![order[branch]],
        budget,
        truncated: false,
        stats,
        scratch: DfsScratch::default(),
        ctrl,
    };
    miner.dfs(all_genes, &order[branch + 1..]);
    let spent = miner.stats.budget_spent;
    BranchOutput {
        branch,
        results: miner.results,
        truncated: miner.truncated,
        spent,
        stats: miner.stats,
    }
}

/// [`mine_biclusters_profiled`] with the top-level sample-seed branches of
/// the set-enumeration tree distributed over up to `workers` threads, under
/// the run control of `ctrl`.
///
/// Every thread count — including 1 — runs the *same* algorithm: each branch
/// mines into a branch-local [`MaximalStore`], and the branch stores are
/// merged on the calling thread in ascending branch order with a final
/// cross-branch maximality pass. Parallelism therefore only changes
/// scheduling, never the traversal, so every statistic (and the result
/// vector, order included) is identical for all `workers` values.
///
/// Cross-branch maximality leans on a structural property: the branch seeded
/// at sample `i` only yields sample sets whose minimum is `i`, so a cluster
/// can only be subsumed by one from an *earlier* branch (`samples ⊆` forces
/// `min ≥`). Merge drops such clusters (counted as
/// [`BiclusterStats::merge_subsumed`]); displacement of an earlier branch's
/// cluster by a later branch is impossible.
///
/// When [`Params::max_candidates`] is set, the visit budget is global across
/// the whole DFS, so branches run sequentially and thread the remaining
/// budget in branch order — deterministic truncation, identical to the
/// pre-parallel implementation.
///
/// The deadline is polled at every DFS node, and — when `ctrl` collects faults —
/// a panic inside one top-level branch downgrades to a
/// [`WorkerFailure`](crate::WorkerFailure) costing only that branch's
/// clusters. The surviving branches still merge in ascending seed order, so
/// the output stays deterministic given the same set of survivors.
pub(crate) fn mine_biclusters_ctrl(
    m: &Matrix3,
    rg: &RangeGraph,
    params: &Params,
    collect_hists: bool,
    workers: usize,
    ctrl: &RunCtrl,
) -> (Vec<Bicluster>, bool, BiclusterStats) {
    let n_genes = m.n_genes();
    let n_samples = m.n_samples();
    let mut stats = BiclusterStats::default();
    if collect_hists {
        stats.hists = Some(Box::default());
    }
    let mut truncated = false;

    // Root node of the enumeration tree (empty sample set). Recording can
    // never fire here (`min_samples ≥ 1`), so only accounting happens.
    let mut budget = params.max_candidates;
    if let Some(b) = &mut budget {
        if *b == 0 {
            return (Vec::new(), true, stats);
        }
        *b -= 1;
        stats.budget_spent += 1;
    }
    stats.nodes += 1;
    if let Some(h) = stats.hists.as_deref_mut() {
        h.depth.record(0);
        h.candidate_set_size.record(n_samples as u64);
    }

    let all_genes = BitSet::full(n_genes);
    let order: Vec<usize> = (0..n_samples).collect();
    if let Some(p) = &ctrl.progress {
        p.add_branches_total(n_samples as u64);
    }
    let outputs: Vec<BranchOutput> = if budget.is_some() || workers <= 1 || n_samples <= 1 {
        let mut outs = Vec::with_capacity(n_samples);
        for branch in 0..n_samples {
            if ctrl.token.deadline_exceeded() {
                break;
            }
            let tl_branch = timeline::span(names::T_BC_BRANCH);
            let out = isolate(
                &ctrl.faults,
                "bicluster_branch",
                || format!("t={} branch={}", rg.time, branch),
                || {
                    run_branch(
                        m,
                        rg,
                        params,
                        collect_hists,
                        &all_genes,
                        &order,
                        branch,
                        budget,
                        ctrl,
                    )
                },
            );
            drop(tl_branch);
            if let Some(p) = &ctrl.progress {
                p.branch_done();
            }
            // A failed branch consumed an unknowable slice of the budget;
            // charge nothing so the surviving branches keep their shares.
            let Some(out) = out else { continue };
            if let Some(b) = &mut budget {
                *b -= out.spent;
            }
            if let Some(p) = &ctrl.progress {
                p.add_budget_spent(out.spent);
            }
            outs.push(out);
        }
        outs
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<BranchOutput>> = (0..n_samples).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(n_samples))
                .map(|_| {
                    scope.spawn(|| {
                        let _tl = ctrl.timeline.as_ref().map(|t| t.attach("branch"));
                        let mut outs = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_samples {
                                break;
                            }
                            if ctrl.token.deadline_exceeded() {
                                break;
                            }
                            let tl_branch = timeline::span(names::T_BC_BRANCH);
                            let out = isolate(
                                &ctrl.faults,
                                "bicluster_branch",
                                || format!("t={} branch={}", rg.time, i),
                                || {
                                    run_branch(
                                        m,
                                        rg,
                                        params,
                                        collect_hists,
                                        &all_genes,
                                        &order,
                                        i,
                                        None,
                                        ctrl,
                                    )
                                },
                            );
                            drop(tl_branch);
                            if let Some(p) = &ctrl.progress {
                                p.branch_done();
                            }
                            if let Some(out) = out {
                                outs.push(out);
                            }
                        }
                        outs
                    })
                })
                .collect();
            for h in handles {
                for out in h.join().expect("bicluster worker panicked") {
                    let b = out.branch;
                    slots[b] = Some(out);
                }
            }
        });
        // Skipped (post-deadline) and failed branches left their slot empty.
        slots.into_iter().flatten().collect()
    };

    // Root fan-out: one child per top-level sample, recursed unconditionally.
    if let Some(h) = stats.hists.as_deref_mut() {
        h.fanout.record(n_samples as u64);
    }

    // Deterministic merge: absorb branches in ascending seed order and fold
    // their survivors through a global maximality store.
    let mut store = MaximalStore::new();
    for out in outputs {
        truncated |= out.truncated;
        stats.absorb(&out.stats);
        for bc in out.results.into_vec() {
            match store.insert(bc) {
                InsertOutcome::Subsumed => stats.merge_subsumed += 1,
                InsertOutcome::Inserted { displaced } => {
                    debug_assert_eq!(displaced, 0, "later branches cannot subsume earlier ones");
                    stats.replaced += displaced as u64;
                }
            }
        }
    }
    (store.into_vec(), truncated, stats)
}

/// Reusable per-branch buffers for the DFS hot path. Each use-site fills the
/// slice it needs before reading, so sharing them across recursion levels is
/// safe: by the time a child (or the next extension) reuses a buffer, the
/// parent no longer needs its contents.
#[derive(Default)]
struct DfsScratch<'a> {
    /// Qualified edges per current sample, rebuilt for each extension; only
    /// the first `samples.len()` entries are live at any moment.
    per_sample: Vec<Vec<&'a RatioRange>>,
    /// One intersection accumulator per combination depth, written in-place
    /// by [`BitSet::intersect_into`] — no per-extension clones.
    levels: Vec<BitSet>,
    /// Gene-sets already produced at the current (node, extension) step.
    seen: HashSet<BitSet>,
}

struct BranchMiner<'a> {
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    t: usize,
    results: MaximalStore,
    /// Current candidate sample set (ascending; DFS extends in order).
    samples: Vec<usize>,
    /// Remaining candidate-visit budget, when limited.
    budget: Option<u64>,
    truncated: bool,
    stats: BiclusterStats,
    scratch: DfsScratch<'a>,
    /// Run control: only the deadline is polled here (per DFS node).
    ctrl: &'a RunCtrl,
}

impl<'a> BranchMiner<'a> {
    fn dfs(&mut self, genes: &BitSet, pending: &[usize]) {
        if self.ctrl.token.deadline_exceeded() {
            self.truncated = true;
            return;
        }
        if let Some(b) = &mut self.budget {
            if *b == 0 {
                self.truncated = true;
                return;
            }
            *b -= 1;
            self.stats.budget_spent += 1;
        }
        self.stats.nodes += 1;
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.depth.record(self.samples.len() as u64);
            h.candidate_set_size.record(pending.len() as u64);
        }
        let mut children = 0u64;
        self.try_record(genes);
        // population hint for the sparse-path qualification test below
        let genes_count = genes.count();
        for (i, &sb) in pending.iter().enumerate() {
            let rest = &pending[i + 1..];
            let depth = self.samples.len();
            let scratch = &mut self.scratch;
            while scratch.per_sample.len() < depth {
                scratch.per_sample.push(Vec::new());
            }
            while scratch.levels.len() < depth {
                scratch.levels.push(BitSet::new(0));
            }
            // Qualified edges from every existing sample to s_b; the
            // count-early-exit prunes extensions before any gene-set is
            // materialized.
            let mut dead_end = false;
            for (k, &sa) in self.samples.iter().enumerate() {
                let edges = &mut scratch.per_sample[k];
                edges.clear();
                for r in self.rg.ranges_between(sa, sb) {
                    if genes.intersection_count_at_least_hinted(
                        &r.genes,
                        self.params.min_genes,
                        genes_count,
                    ) {
                        edges.push(r);
                    }
                }
                if edges.is_empty() {
                    dead_end = true;
                    break;
                }
            }
            if dead_end {
                continue;
            }
            // Enumerate edge combinations (one edge per existing sample),
            // intersecting gene-sets in-place with mx pruning; recurse per
            // distinct resulting gene-set.
            scratch.seen.clear();
            let mut combos: Vec<BitSet> = Vec::new();
            intersect_combos(
                genes,
                &scratch.per_sample[..depth],
                &mut scratch.levels[..depth],
                self.params.min_genes,
                &mut scratch.seen,
                &mut combos,
                &mut self.stats.dedup_hits,
            );
            self.stats.gene_combos += combos.len() as u64;
            for new_genes in combos {
                children += 1;
                self.samples.push(sb);
                self.dfs(&new_genes, rest);
                self.samples.pop();
            }
        }
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }

    fn try_record(&mut self, genes: &BitSet) {
        if self.samples.len() < self.params.min_samples {
            return;
        }
        if genes.count() < self.params.min_genes {
            return;
        }
        if !self.deltas_ok(genes) {
            self.stats.rejected_delta += 1;
            return;
        }
        let candidate = Bicluster::new(genes.clone(), self.samples.clone(), self.t);
        match self.results.insert(candidate) {
            InsertOutcome::Subsumed => self.stats.rejected_subsumed += 1,
            InsertOutcome::Inserted { displaced } => {
                self.stats.recorded += 1;
                self.stats.replaced += displaced as u64;
                if let Some(p) = &self.ctrl.progress {
                    p.candidate_recorded();
                }
            }
        }
    }

    /// `δ^x`: within each sample column, gene values range at most `δ^x`;
    /// `δ^y`: within each gene row, sample values range at most `δ^y`.
    fn deltas_ok(&self, genes: &BitSet) -> bool {
        let p = self.params;
        if let Some(dx) = p.delta_gene {
            for &s in &self.samples {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for g in genes.iter() {
                    let v = self.m.get(g, s, self.t);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > dx {
                    return false;
                }
            }
        }
        if let Some(dy) = p.delta_sample {
            for g in genes.iter() {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &s in &self.samples {
                    let v = self.m.get(g, s, self.t);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > dy {
                    return false;
                }
            }
        }
        true
    }
}

/// Depth-first enumeration of one-edge-per-sample combinations, accumulating
/// the gene-set intersection and pruning as soon as it drops below `mx`.
/// `dedup_hits` counts combinations dropped because their gene-set was
/// already produced by an earlier edge choice at the same node.
///
/// The accumulator at each combination depth lives in `levels` (one slot per
/// remaining sample), written in place by [`BitSet::intersect_into`] — the
/// only allocations are the cloned gene-sets of *surviving* distinct combos.
fn intersect_combos(
    acc: &BitSet,
    per_sample: &[Vec<&RatioRange>],
    levels: &mut [BitSet],
    mx: usize,
    seen: &mut HashSet<BitSet>,
    out: &mut Vec<BitSet>,
    dedup_hits: &mut u64,
) {
    match per_sample.split_first() {
        None => {
            if seen.contains(acc) {
                *dedup_hits += 1;
            } else {
                let owned = acc.clone();
                seen.insert(owned.clone());
                out.push(owned);
            }
        }
        Some((edges, rest)) => {
            let (level, rest_levels) = levels
                .split_first_mut()
                .expect("one scratch level per remaining sample");
            for r in edges {
                if level.intersect_into(acc, &r.genes) >= mx {
                    intersect_combos(level, rest, rest_levels, mx, seen, out, dedup_hits);
                }
            }
        }
    }
}

/// What [`insert_maximal_bicluster_counted`] did with a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The candidate was contained in an existing cluster and dropped.
    Subsumed,
    /// The candidate was inserted, displacing `displaced` existing clusters
    /// it subsumes.
    Inserted {
        /// Existing clusters removed because the candidate contains them.
        displaced: usize,
    },
}

/// Inserts `candidate` into `results` keeping only maximal biclusters:
/// skipped when contained in an existing cluster; existing clusters contained
/// in it are removed.
pub fn insert_maximal_bicluster(results: &mut Vec<Bicluster>, candidate: Bicluster) {
    insert_maximal_bicluster_counted(results, candidate);
}

/// Like [`insert_maximal_bicluster`], reporting what happened (used by the
/// observability layer to count maximality rejections and replacements).
///
/// This is the O(results) reference implementation; the miner's hot path
/// uses [`MaximalStore`], which indexes clusters by size signature.
pub fn insert_maximal_bicluster_counted(
    results: &mut Vec<Bicluster>,
    candidate: Bicluster,
) -> InsertOutcome {
    if results.iter().any(|c| candidate.is_subcluster_of(c)) {
        return InsertOutcome::Subsumed;
    }
    let before = results.len();
    results.retain(|c| !c.is_subcluster_of(&candidate));
    let displaced = before - results.len();
    results.push(candidate);
    InsertOutcome::Inserted { displaced }
}

/// A set of mutually non-contained biclusters with a size-bucketed signature
/// index.
///
/// Containment (`genes ⊆ ∧ samples ⊆`) implies `|genes| ≤ ∧ |samples| ≤`,
/// so clusters are bucketed by `(|genes|, |samples|)`: a candidate can only
/// be subsumed by buckets ≥ in both dimensions and can only displace buckets
/// ≤ in both. Instead of the reference implementation's O(results) scan per
/// insert, only those candidate buckets are probed — near-constant for the
/// size-diverse stores the miner produces.
///
/// Insertion order is preserved: [`MaximalStore::into_vec`] yields survivors
/// exactly as [`insert_maximal_bicluster_counted`] would have left them in a
/// plain vector (displaced entries removed in place, survivors in first-
/// insert order).
#[derive(Debug, Clone, Default)]
pub struct MaximalStore {
    /// Insert-ordered slots; displaced clusters become `None`.
    slots: Vec<Option<Bicluster>>,
    /// `(gene count, sample count)` -> indices of live slots with that size.
    buckets: std::collections::BTreeMap<(usize, usize), Vec<usize>>,
    len: usize,
}

impl MaximalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the store holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `candidate` keeping only maximal clusters; same contract and
    /// outcome reporting as [`insert_maximal_bicluster_counted`].
    pub fn insert(&mut self, candidate: Bicluster) -> InsertOutcome {
        let key = (candidate.genes.count(), candidate.samples.len());
        // Subsumption: only clusters at least as large in both dimensions
        // can contain the candidate. (The equal-size bucket is probed here
        // first, so an exact duplicate reports Subsumed, like the reference.)
        for (&(_, sc), idxs) in self.buckets.range((key.0, 0)..) {
            if sc < key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if candidate.is_subcluster_of(c) {
                    return InsertOutcome::Subsumed;
                }
            }
        }
        // Displacement: only clusters at most as large in both dimensions
        // can be contained in the candidate.
        let mut doomed: Vec<(usize, (usize, usize))> = Vec::new();
        for (&(gc, sc), idxs) in self.buckets.range(..=(key.0, key.1)) {
            if sc > key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if c.is_subcluster_of(&candidate) {
                    doomed.push((i, (gc, sc)));
                }
            }
        }
        let displaced = doomed.len();
        for (i, bkey) in doomed {
            self.slots[i] = None;
            let bucket = self
                .buckets
                .get_mut(&bkey)
                .expect("doomed slot was bucketed");
            bucket.retain(|&x| x != i);
            if bucket.is_empty() {
                self.buckets.remove(&bkey);
            }
        }
        let idx = self.slots.len();
        self.slots.push(Some(candidate));
        self.buckets.entry(key).or_default().push(idx);
        self.len = self.len - displaced + 1;
        InsertOutcome::Inserted { displaced }
    }

    /// Consumes the store, yielding survivors in insertion order.
    pub fn into_vec(self) -> Vec<Bicluster> {
        self.slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rangegraph::build_range_graph_observed;
    use crate::testdata::paper_table1;
    use tricluster_obs::NullSink;

    fn params(eps: f64, mx: usize, my: usize) -> Params {
        Params::builder()
            .epsilon(eps)
            .min_genes(mx)
            .min_samples(my)
            .min_times(2)
            .build()
            .unwrap()
    }

    fn graph(m: &Matrix3, t: usize, p: &Params) -> RangeGraph {
        build_range_graph_observed(m, t, p, &NullSink).0
    }

    fn mine(m: &Matrix3, t: usize, p: &Params) -> Vec<Bicluster> {
        mine_biclusters_profiled(m, &graph(m, t, p), p, false).0
    }

    fn sorted_view(bcs: &[Bicluster]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut v: Vec<(Vec<usize>, Vec<usize>)> = bcs
            .iter()
            .map(|b| (b.genes.to_vec(), b.samples.clone()))
            .collect();
        v.sort();
        v
    }

    /// Paper §4.2 worked example: at t0 with mx=my=3, ε=0.01 the miner must
    /// find exactly C1, C2, C3.
    #[test]
    fn paper_example_t0_three_biclusters() {
        let m = paper_table1();
        let got = sorted_view(&mine(&m, 0, &params(0.01, 3, 3)));
        let want = vec![
            (vec![0, 2, 6, 9], vec![1, 4, 6]), // C2
            (vec![0, 7, 9], vec![1, 2, 4, 5]), // C3
            (vec![1, 4, 8], vec![0, 1, 4, 6]), // C1
        ];
        assert_eq!(got, want);
    }

    /// With my=2 the paper finds the extra cluster C4 = {g0,g2,g6,g7,g9} x
    /// {s1,s4}, which is not subsumed in 2D (its gene-set is strictly larger
    /// than C2's and C3's).
    #[test]
    fn paper_example_my2_reveals_c4() {
        let m = paper_table1();
        let got = sorted_view(&mine(&m, 0, &params(0.01, 3, 2)));
        assert!(
            got.contains(&(vec![0, 2, 6, 7, 9], vec![1, 4])),
            "C4 missing: {got:?}"
        );
        // C1..C3 still present
        assert!(got.contains(&(vec![1, 4, 8], vec![0, 1, 4, 6])));
        assert!(got.contains(&(vec![0, 2, 6, 9], vec![1, 4, 6])));
        assert!(got.contains(&(vec![0, 7, 9], vec![1, 2, 4, 5])));
    }

    /// Biclusters at t1 are the same index sets as t0 (the paper: "the
    /// clusters are identical").
    #[test]
    fn paper_example_t1_matches_t0() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        assert_eq!(sorted_view(&mine(&m, 0, &p)), sorted_view(&mine(&m, 1, &p)));
    }

    /// δ^x bounds the value spread across genes within a fixed column
    /// (paper §2 condition 3a: cells sharing sample and time). C1's widest
    /// column is s0 with 9.0 − 3.0 = 6.0, C2's is 5.0 − 1.0 = 4.0, C3's is
    /// 8.0 − 1.0 = 7.0; δ^x = 6 keeps C1 and C2, kills C3.
    ///
    /// (The paper's Table-1 narrative claims δ^x = 0 kills only C1, which
    /// contradicts its own formal condition — C2's columns also span 4.0.
    /// We follow the formal definition; see DESIGN.md.)
    #[test]
    fn delta_x_prunes_wide_columns() {
        let m = paper_table1();
        let mk = |dx: f64| {
            Params::builder()
                .epsilon(0.01)
                .min_genes(3)
                .min_samples(3)
                .min_times(2)
                .delta_gene(dx)
                .build()
                .unwrap()
        };
        let got = sorted_view(&mine(&m, 0, &mk(6.0)));
        assert_eq!(
            got,
            vec![
                (vec![0, 2, 6, 9], vec![1, 4, 6]),
                (vec![1, 4, 8], vec![0, 1, 4, 6]),
            ]
        );
        // δ^x = 0 demands identical values per column: nothing survives.
        assert!(mine(&m, 0, &mk(0.0)).is_empty());
    }

    /// δ^y bounds the value range along each gene row: C1's g4 row spans
    /// 9.0 − 3.0 = 6.0, so δ^y = 1 kills C1 but keeps the constant-row
    /// clusters.
    #[test]
    fn delta_y_kills_wide_rows() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .delta_sample(1.0)
            .build()
            .unwrap();
        let got = sorted_view(&mine(&m, 0, &p));
        assert!(!got.contains(&(vec![1, 4, 8], vec![0, 1, 4, 6])));
        assert!(got.contains(&(vec![0, 2, 6, 9], vec![1, 4, 6])));
    }

    #[test]
    fn results_are_mutually_maximal() {
        let m = paper_table1();
        let bcs = mine(&m, 0, &params(0.01, 3, 2));
        for (i, a) in bcs.iter().enumerate() {
            for (j, b) in bcs.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.is_subcluster_of(b),
                        "cluster {i} ⊆ cluster {j}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_genes_above_all_clusters_yields_nothing() {
        let m = paper_table1();
        assert!(mine(&m, 0, &params(0.01, 6, 3)).is_empty());
    }

    #[test]
    fn min_samples_above_all_clusters_yields_nothing() {
        let m = paper_table1();
        assert!(mine(&m, 0, &params(0.01, 3, 5)).is_empty());
    }

    #[test]
    fn insert_maximal_drops_subsumed() {
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(10, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut v = Vec::new();
        insert_maximal_bicluster(&mut v, mk(&[1, 2], &[0, 1]));
        insert_maximal_bicluster(&mut v, mk(&[1, 2, 3], &[0, 1])); // subsumes
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].genes.to_vec(), vec![1, 2, 3]);
        insert_maximal_bicluster(&mut v, mk(&[1, 2], &[0])); // subsumed
        assert_eq!(v.len(), 1);
        insert_maximal_bicluster(&mut v, mk(&[4, 5], &[2, 3])); // unrelated
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn observed_stats_are_deterministic_and_consistent() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        let rg = graph(&m, 0, &p);
        let (bcs, truncated, stats) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert!(!truncated);
        assert_eq!(bcs.len(), 3);
        assert!(stats.nodes > 0);
        assert_eq!(stats.budget_spent, 0, "no budget configured");
        // recorded − replaced − merge-dropped = surviving clusters
        assert_eq!(
            stats.recorded - stats.replaced - stats.merge_subsumed,
            bcs.len() as u64
        );
        let (_, _, again) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert_eq!(stats, again);
    }

    #[test]
    fn worker_counts_mine_identical_results() {
        let m = paper_table1();
        // my=2 exercises cross-branch subsumption (C4 lives in branch s1)
        for p in [params(0.01, 3, 3), params(0.01, 3, 2)] {
            let rg = graph(&m, 0, &p);
            let (bcs1, tr1, st1) =
                mine_biclusters_ctrl(&m, &rg, &p, true, 1, &RunCtrl::unbounded());
            for workers in [2usize, 4, 8] {
                let (bcs, tr, st) =
                    mine_biclusters_ctrl(&m, &rg, &p, true, workers, &RunCtrl::unbounded());
                assert_eq!(bcs, bcs1, "clusters differ at workers={workers}");
                assert_eq!(tr, tr1);
                assert_eq!(st, st1, "stats differ at workers={workers}");
            }
            // result-vector order itself is thread-invariant (not just the set)
            let (plain, _, st_plain) = mine_biclusters_profiled(&m, &rg, &p, false);
            assert_eq!(plain, bcs1);
            assert_eq!(
                st_plain.recorded - st_plain.replaced - st_plain.merge_subsumed,
                plain.len() as u64
            );
        }
    }

    #[test]
    fn maximal_store_matches_reference_implementation() {
        // Feed both stores the same pseudo-random candidate stream and check
        // outcome-by-outcome and final-sequence agreement.
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(12, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut state = 0x9e3779b97f4a7c15u64; // deterministic xorshift
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut reference: Vec<Bicluster> = Vec::new();
        let mut store = MaximalStore::new();
        for _ in 0..300 {
            let gbits = next();
            let sbits = next();
            let genes: Vec<usize> = (0..12).filter(|i| gbits >> i & 1 == 1).collect();
            let samples: Vec<usize> = (0..6).filter(|i| sbits >> i & 1 == 1).collect();
            if genes.is_empty() || samples.is_empty() {
                continue;
            }
            let cand = mk(&genes, &samples);
            let want = insert_maximal_bicluster_counted(&mut reference, cand.clone());
            let got = store.insert(cand);
            assert_eq!(got, want);
            assert_eq!(store.len(), reference.len());
        }
        assert_eq!(store.into_vec(), reference, "survivor order must match");
    }

    #[test]
    fn observed_budget_spent_tracks_truncation() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .max_candidates(5)
            .build()
            .unwrap();
        let rg = graph(&m, 0, &p);
        let (_, truncated, stats) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert!(truncated);
        assert_eq!(stats.budget_spent, 5);
        assert_eq!(stats.nodes, 5);
    }

    #[test]
    fn profiled_hists_describe_the_dfs() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        let rg = graph(&m, 0, &p);
        let (bcs, _, stats) = mine_biclusters_profiled(&m, &rg, &p, true);
        let h = stats.hists.as_ref().expect("collected");
        // one depth/candidate/fanout sample per DFS node
        assert_eq!(h.depth.count(), stats.nodes);
        assert_eq!(h.candidate_set_size.count(), stats.nodes);
        assert_eq!(h.fanout.count(), stats.nodes);
        // the root sees the full candidate set and depth 0
        assert_eq!(h.candidate_set_size.max(), m.n_samples() as u64);
        assert_eq!(h.depth.min(), 0);
        // fanout sums to nodes - 1 (every non-root node has one parent edge)
        assert_eq!(h.fanout.sum(), u128::from(stats.nodes - 1));
        // hist collection must not change the mined clusters or scalars
        let (plain_bcs, _, plain) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert_eq!(bcs, plain_bcs);
        assert_eq!(plain.nodes, stats.nodes);
        assert!(plain.hists.is_none());
        // deterministic across repeated profiled runs
        let (_, _, again) = mine_biclusters_profiled(&m, &rg, &p, true);
        assert_eq!(stats, again);
    }

    #[test]
    fn insert_counted_reports_outcomes() {
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(10, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut v = Vec::new();
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2], &[0, 1])),
            InsertOutcome::Inserted { displaced: 0 }
        );
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2, 3], &[0, 1])),
            InsertOutcome::Inserted { displaced: 1 }
        );
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2], &[0])),
            InsertOutcome::Subsumed
        );
    }

    /// A uniform matrix is one big bicluster covering everything.
    #[test]
    fn uniform_matrix_single_cluster() {
        let mut m = Matrix3::zeros(4, 3, 1);
        m.map_in_place(|_| 2.0);
        let p = Params::builder()
            .epsilon(0.0)
            .min_genes(2)
            .min_samples(2)
            .min_times(1)
            .build()
            .unwrap();
        let bcs = mine(&m, 0, &p);
        assert_eq!(bcs.len(), 1);
        assert_eq!(bcs[0].genes.count(), 4);
        assert_eq!(bcs[0].samples, vec![0, 1, 2]);
    }
}
