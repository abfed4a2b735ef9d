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
//! Per the pseudo-code, the `δ^x`/`δ^y` checks gate only the *recording* of
//! a candidate (lines 2–6), never its expansion; `mx` prunes expansion
//! because gene-sets shrink monotonically along a DFS path. `my` gates
//! recording too, and also bounds expansion exactly: a child is visited
//! only if its subtree can still reach `my` samples (`reaches`), so the
//! root fans out to the first `n_samples − my + 1` samples only, and a
//! node stops at the first live candidate with too few live candidates
//! after it.
//!
//! The same monotonicity lets each node hand its children the edges it has
//! already qualified (see `Candidates`): a child re-tests only those and
//! scans the multigraph only for its new column, and a candidate that has
//! run out of edges is never tested again below the node that found out.

use crate::classify::fiber_spreads;
use crate::cluster::{Bicluster, InsertOutcome, MaximalStore};
use crate::fault::{fail_point_panic, fan_out, RunCtrl, BRANCHES};
use crate::params::Params;
use crate::range::RatioRange;
use crate::rangegraph::RangeGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;
use tricluster_obs::{names, EventSink, Gauge, Histogram};

/// Value distributions of one DFS search (BICLUSTER's over sample sets,
/// TRICLUSTER's over time sets), collected only on request (see
/// [`mine_biclusters_profiled`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DfsHists {
    /// DFS depth (current sample- or time-set size) at each expanded node.
    pub depth: Histogram,
    /// Candidate count at each expanded node. BICLUSTER records the logical
    /// count `n_samples − 1 − last sample`, including candidates an
    /// ancestor already ruled out (the DFS tests only the live ones).
    pub candidate_set_size: Histogram,
    /// Children actually recursed into from each expanded node.
    pub fanout: Histogram,
}

impl DfsHists {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &DfsHists) {
        self.depth.merge(&other.depth);
        self.candidate_set_size.merge(&other.candidate_set_size);
        self.fanout.merge(&other.fanout);
    }

    /// Publishes the depth, candidate-set size and fan-out histograms on
    /// `sink` under the phase's `names`, in that order.
    pub fn publish(&self, sink: &dyn EventSink, names: [&'static str; 3]) {
        sink.histogram(names[0], &self.depth);
        sink.histogram(names[1], &self.candidate_set_size);
        sink.histogram(names[2], &self.fanout);
    }
}

/// The size bound of both DFS phases: whether a child that adds one element
/// to a node holding `held`, and may then add up to `later` more, can reach
/// the `min` the recording step requires.
///
/// Exact: a child's subtree only adds elements after the child's own, so a
/// subtree that fails the bound records nothing, and every node that can
/// pass the size gate is still visited in the same order. Later siblings
/// have fewer elements after theirs, so a DFS loop stops at the first child
/// that fails.
pub(crate) fn reaches(held: usize, later: usize, min: usize) -> bool {
    held + 1 + later >= min
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
    /// `|X ∩ G(R)| ≥ mx` tests run while filtering candidate edge lists
    /// (work done, so candidate inheritance makes it lower than a search
    /// that rescans every range at every node).
    pub range_tests: u64,
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
    pub hists: Option<Box<DfsHists>>,
}

impl BiclusterStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &BiclusterStats) {
        self.nodes += other.nodes;
        self.budget_spent += other.budget_spent;
        self.gene_combos += other.gene_combos;
        self.range_tests += other.range_tests;
        self.dedup_hits += other.dedup_hits;
        self.recorded += other.recorded;
        self.rejected_delta += other.rejected_delta;
        self.rejected_subsumed += other.rejected_subsumed;
        self.replaced += other.replaced;
        self.merge_subsumed += other.merge_subsumed;
        if let Some(o) = &other.hists {
            self.hists.get_or_insert_with(Box::default).merge(o);
        }
    }

    /// Mirrors the stats into counter increments (and histograms, when
    /// collected) on `sink`.
    pub fn publish(&self, sink: &dyn EventSink) {
        sink.counter(names::BC_NODES, self.nodes);
        sink.counter(names::BC_BUDGET_SPENT, self.budget_spent);
        sink.counter(names::BC_COMBOS, self.gene_combos);
        sink.counter(names::BC_RANGE_TESTS, self.range_tests);
        sink.counter(names::BC_DEDUP_HITS, self.dedup_hits);
        sink.counter(names::BC_RECORDED, self.recorded);
        sink.counter(names::BC_REJECTED_DELTA, self.rejected_delta);
        sink.counter(names::BC_REJECTED_SUBSUMED, self.rejected_subsumed);
        sink.counter(names::BC_REPLACED, self.replaced);
        sink.counter(names::BC_MERGE_SUBSUMED, self.merge_subsumed);
        if let Some(h) = &self.hists {
            h.publish(
                sink,
                [
                    names::H_BC_DEPTH,
                    names::H_BC_CANDIDATES,
                    names::H_BC_FANOUT,
                ],
            );
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
    mine_biclusters_ctrl(m, rg, params, 1, &RunCtrl::profiled(collect_hists))
}

/// Everything one top-level branch produced.
struct BranchOutput {
    results: MaximalStore<Bicluster>,
    truncated: bool,
    /// Budget consumed inside the branch (for sequential budget threading).
    spent: u64,
    stats: BiclusterStats,
}

/// Mines the branch seeded at sample `branch` (the child of `root`, the
/// enumeration tree's root, at that index) into a local store.
#[allow(clippy::too_many_arguments)]
fn run_branch<'a>(
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    all_genes: &BitSet,
    root: &Candidates<'a>,
    branch: usize,
    budget: Option<u64>,
    ctrl: &'a RunCtrl<'a>,
) -> BranchOutput {
    fail_point_panic("core.bicluster.branch");
    let mut miner = BranchMiner::new(m, rg, params, branch, budget, ctrl);
    miner.dfs(root, branch, all_genes, m.n_genes());
    let spent = miner.stats.budget_spent;
    BranchOutput {
        results: miner.results,
        truncated: miner.truncated,
        spent,
        stats: miner.stats,
    }
}

/// [`mine_biclusters_profiled`] with the top-level sample-seed branches of
/// the set-enumeration tree fanned out over up to `workers` threads (through
/// [`fan_out`]), under the run control of `ctrl`. DFS shape histograms are
/// collected when its sink [wants them](EventSink::wants_histograms).
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
/// the whole DFS, so branches run on one worker and thread the remaining
/// budget in branch order — deterministic truncation.
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
    workers: usize,
    ctrl: &RunCtrl,
) -> (Vec<Bicluster>, bool, BiclusterStats) {
    let n_genes = m.n_genes();
    let n_samples = m.n_samples();
    let mut stats = BiclusterStats::default();
    if ctrl.sink.wants_histograms() {
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
    let root = Candidates::root(n_samples);
    // Root fan-out: one child per top-level sample whose branch can still
    // reach `my` samples; branch `i` can add at most the samples after `i`.
    let branches = (0..n_samples)
        .take_while(|&i| reaches(0, n_samples - 1 - i, params.min_samples))
        .count();
    if let Some(h) = stats.hists.as_deref_mut() {
        h.fanout.record(branches as u64);
    }

    // A global budget is spent in branch order, so it keeps the DFS at one
    // worker, where each branch's output is absorbed before the next branch
    // starts from what is `left`.
    let left = AtomicU64::new(budget.unwrap_or(0));
    let workers = if budget.is_some() { 1 } else { workers };
    // Deterministic merge: absorb branches in ascending seed order and fold
    // their survivors through a global maximality store.
    let mut store = MaximalStore::default();
    fan_out(
        ctrl,
        &BRANCHES,
        branches,
        workers,
        |branch| format!("t={} branch={}", rg.time, branch),
        || (),
        |_, branch| {
            let budget = budget.map(|_| left.load(Ordering::Relaxed));
            run_branch(m, rg, params, &all_genes, &root, branch, budget, ctrl)
        },
        |_, out| {
            // A failed branch never gets here: it consumed an unknowable
            // slice of the budget, so it is charged nothing and the
            // surviving branches keep their shares.
            left.fetch_sub(out.spent, Ordering::Relaxed);
            ctrl.sink
                .gauge(names::G_BUDGET_SPENT, Gauge::Add(out.spent));
            truncated |= out.truncated;
            stats.absorb(&out.stats);
            for bc in out.results.into_vec() {
                match store.insert(bc) {
                    InsertOutcome::Subsumed => stats.merge_subsumed += 1,
                    InsertOutcome::Inserted { displaced } => {
                        debug_assert_eq!(
                            displaced, 0,
                            "later branches cannot subsume earlier ones"
                        );
                        stats.replaced += displaced as u64;
                    }
                }
            }
        },
    );
    (store.into_vec(), truncated, stats)
}

/// Reusable per-branch buffers for the DFS hot path.
///
/// `candidates` and `combos` hold one slot per DFS depth. The node at depth
/// `d` takes slot `d` out while it runs and puts it back when it returns,
/// so its next sibling refills the same allocations; its children use
/// slot `d + 1`. A branch never goes deeper than `n_samples`, which bounds
/// the slots. `acc` is shared by all depths: a node fills it for one
/// candidate and is done with it before it recurses.
#[derive(Default)]
struct DfsScratch<'a> {
    /// The live candidates and their qualified edge lists, per depth.
    candidates: Vec<Candidates<'a>>,
    /// The distinct child gene-sets of the candidate a node is extending
    /// by, per depth.
    combos: Vec<GeneSets>,
    /// One intersection accumulator per combination depth, written in-place
    /// by [`BitSet::intersect_into`] — no per-extension clones.
    acc: Vec<BitSet>,
}

/// The distinct gene-sets (with their counts) that one candidate's edge
/// combinations produce at a node, in first-seen order.
///
/// Slots past `len` keep their storage, so once a node's buffer has grown
/// to the most distinct sets one of its candidates produces, refilling it
/// neither hashes nor allocates. A new set is compared with the ones
/// already in by count first, and block by block only on equal counts; the
/// buffer is short (at most 37 sets per candidate on the benchmark's
/// inputs), so the scan costs less than hashing the set.
#[derive(Default)]
struct GeneSets {
    slots: Vec<(BitSet, usize)>,
    len: usize,
}

impl GeneSets {
    fn clear(&mut self) {
        self.len = 0;
    }

    fn as_slice(&self) -> &[(BitSet, usize)] {
        &self.slots[..self.len]
    }

    /// Appends `genes` (`count` genes) unless an equal set is already in;
    /// `false` when it was.
    fn insert(&mut self, genes: &BitSet, count: usize) -> bool {
        if self
            .as_slice()
            .iter()
            .any(|(g, c)| *c == count && g == genes)
        {
            return false;
        }
        match self.slots.get_mut(self.len) {
            Some((g, c)) => {
                g.copy_from(genes);
                *c = count;
            }
            None => self.slots.push((genes.clone(), count)),
        }
        self.len += 1;
        true
    }
}

/// The live extension candidates of one DFS node `X × Y` and their
/// qualified edges.
///
/// A candidate is a sample `s_b` after the node's last one that no list has
/// ruled out yet. It carries one list per `s_a ∈ Y` (in `Y` order) of the
/// range edges `(s_a, s_b)` with `|X ∩ G(R)| ≥ mx`, each in
/// [`RangeGraph::ranges_between`] order — exactly the lists a search that
/// rescans every range at every node would build for it.
#[derive(Default)]
struct Candidates<'a> {
    /// Lists per candidate: `|Y|` of the node that owns them.
    width: usize,
    /// Live candidate samples, ascending.
    samples: Vec<usize>,
    /// List boundaries into `edges`, starting at 0: list `k` of candidate
    /// `j` is `edges[bounds[j·width + k] .. bounds[j·width + k + 1]]`.
    bounds: Vec<usize>,
    /// Qualified edges, grouped by candidate, then by `s_a`.
    edges: Vec<&'a RatioRange>,
}

impl<'a> Candidates<'a> {
    /// The root of the enumeration tree: `Y = ∅`, so every sample is a
    /// candidate, with no lists yet.
    fn root(n_samples: usize) -> Self {
        Candidates {
            width: 0,
            samples: (0..n_samples).collect(),
            bounds: vec![0],
            edges: Vec::new(),
        }
    }

    /// The `width + 1` list boundaries of candidate `j`.
    fn bounds_of(&self, j: usize) -> &[usize] {
        &self.bounds[j * self.width..=(j + 1) * self.width]
    }

    /// Refills `self` with the candidates of the child that extends
    /// `parent`'s node by `parent.samples[at]`, with gene-set `genes`
    /// (`count` genes, a subset of the parent's).
    ///
    /// Along a DFS path `X` only shrinks, so an edge that fails `mx` at the
    /// parent fails here too: each inherited list only needs its survivors
    /// re-tested, and only the new column `(s_new, s_b)` is scanned in full.
    /// A candidate left with an empty list is dropped, and is never tested
    /// again below this node. Returns the number of range tests run.
    fn inherit(
        &mut self,
        parent: &Candidates<'a>,
        at: usize,
        genes: &BitSet,
        count: usize,
        rg: &'a RangeGraph,
        mx: usize,
    ) -> u64 {
        let s_new = parent.samples[at];
        self.width = parent.width + 1;
        self.samples.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.edges.clear();
        let qualifies =
            |r: &&RatioRange| genes.intersection_count_at_least_hinted(&r.genes, mx, count);
        let mut tests = 0;
        for (j, &s_b) in parent.samples.iter().enumerate().skip(at + 1) {
            let (edges_mark, bounds_mark) = (self.edges.len(), self.bounds.len());
            let live =
                parent.bounds_of(j).windows(2).all(|w| {
                    self.push_list(
                        parent.edges[w[0]..w[1]].iter().copied(),
                        qualifies,
                        &mut tests,
                    )
                }) && self.push_list(rg.ranges_between(s_new, s_b).iter(), qualifies, &mut tests);
            if live {
                self.samples.push(s_b);
            } else {
                self.edges.truncate(edges_mark);
                self.bounds.truncate(bounds_mark);
            }
        }
        tests
    }

    /// Appends the edges of `list` that pass `qualifies` as the next list,
    /// adding the tests run to `tests`; `false` when none passed.
    fn push_list(
        &mut self,
        list: impl ExactSizeIterator<Item = &'a RatioRange>,
        qualifies: impl FnMut(&&'a RatioRange) -> bool,
        tests: &mut u64,
    ) -> bool {
        *tests += list.len() as u64;
        let start = self.edges.len();
        self.edges.extend(list.filter(qualifies));
        self.bounds.push(self.edges.len());
        self.edges.len() > start
    }
}

struct BranchMiner<'a> {
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    t: usize,
    results: MaximalStore<Bicluster>,
    /// Current candidate sample set (ascending; DFS extends in order).
    samples: Vec<usize>,
    /// Remaining candidate-visit budget, when limited.
    budget: Option<u64>,
    truncated: bool,
    stats: BiclusterStats,
    scratch: DfsScratch<'a>,
    /// Run control: the deadline is polled per DFS node, and each recorded
    /// candidate bumps its progress gauge.
    ctrl: &'a RunCtrl<'a>,
}

impl<'a> BranchMiner<'a> {
    /// A miner for the branch seeded at sample `seed`.
    fn new(
        m: &'a Matrix3,
        rg: &'a RangeGraph,
        params: &'a Params,
        seed: usize,
        budget: Option<u64>,
        ctrl: &'a RunCtrl<'a>,
    ) -> Self {
        let mut stats = BiclusterStats::default();
        if ctrl.sink.wants_histograms() {
            stats.hists = Some(Box::default());
        }
        BranchMiner {
            m,
            rg,
            params,
            t: rg.time,
            results: MaximalStore::default(),
            samples: vec![seed],
            budget,
            truncated: false,
            stats,
            scratch: DfsScratch::default(),
            ctrl,
        }
    }

    /// Visits the node that extends `parent`'s node by `parent.samples[at]`
    /// (already pushed onto `self.samples`), with gene-set `genes` of
    /// `genes_count` genes.
    fn dfs(&mut self, parent: &Candidates<'a>, at: usize, genes: &BitSet, genes_count: usize) {
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
        let depth = self.samples.len();
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.depth.record(depth as u64);
            // The logical count, dead candidates included.
            let last = parent.samples[at];
            h.candidate_set_size
                .record((self.m.n_samples() - 1 - last) as u64);
        }
        self.try_record(genes, genes_count);
        let scratch = &mut self.scratch;
        if scratch.candidates.len() <= depth {
            scratch.candidates.resize_with(depth + 1, Default::default);
            scratch.combos.resize_with(depth + 1, Default::default);
            scratch.acc.resize_with(depth, || BitSet::new(0));
        }
        let mut cands = std::mem::take(&mut scratch.candidates[depth]);
        let mut combos = std::mem::take(&mut scratch.combos[depth]);
        self.stats.range_tests += cands.inherit(
            parent,
            at,
            genes,
            genes_count,
            self.rg,
            self.params.min_genes,
        );
        let mut children = 0u64;
        let live = cands.samples.len();
        for (j, &sb) in cands.samples.iter().enumerate() {
            // A child's subtree adds only live candidates after `sb`.
            if !reaches(depth, live - 1 - j, self.params.min_samples) {
                break;
            }
            // Enumerate edge combinations (one edge per existing sample),
            // intersecting gene-sets in-place with mx pruning; recurse per
            // distinct resulting gene-set.
            combos.clear();
            intersect_combos(
                genes,
                genes_count,
                &cands.edges,
                cands.bounds_of(j),
                &mut self.scratch.acc[..depth],
                self.params.min_genes,
                &mut combos,
                &mut self.stats.dedup_hits,
            );
            self.stats.gene_combos += combos.len as u64;
            for (new_genes, new_count) in combos.as_slice() {
                children += 1;
                self.samples.push(sb);
                self.dfs(&cands, j, new_genes, *new_count);
                self.samples.pop();
            }
        }
        self.scratch.candidates[depth] = cands;
        self.scratch.combos[depth] = combos;
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }

    /// The recording step (paper Fig. 3, lines 2–6): the size gate, the
    /// `δ^x`/`δ^y` check over this slice, then the maximal store.
    fn try_record(&mut self, genes: &BitSet, genes_count: usize) {
        let p = self.params;
        if self.samples.len() < p.min_samples || genes_count < p.min_genes {
            return;
        }
        let limits = [p.delta_gene, p.delta_sample, None];
        if fiber_spreads(self.m, genes, &self.samples, &[self.t], limits).is_err() {
            self.stats.rejected_delta += 1;
            return;
        }
        let candidate = Bicluster::new(genes.clone(), self.samples.clone(), self.t);
        match self.results.insert(candidate) {
            InsertOutcome::Subsumed => self.stats.rejected_subsumed += 1,
            InsertOutcome::Inserted { displaced } => {
                self.stats.recorded += 1;
                self.stats.replaced += displaced as u64;
                self.ctrl.sink.gauge(names::G_CANDIDATES, Gauge::Add(1));
            }
        }
    }
}

/// Depth-first enumeration of one-edge-per-list combinations of one
/// candidate's qualified edges (list `k` is `edges[bounds[k]..bounds[k + 1]]`),
/// accumulating the gene-set intersection from `acc` (`acc_count` genes) and
/// pruning as soon as it drops below `mx`. Each distinct gene-set is
/// appended to `out` with its count; `dedup_hits` counts combinations
/// dropped because their gene-set was already produced by an earlier edge
/// choice at the same node.
///
/// The accumulator at each combination depth lives in `levels` (one slot per
/// list), written in place by [`BitSet::intersect_into`], and `out` copies
/// a distinct gene-set into a slot it already holds, so the only
/// allocations are the slots `out` has not grown to yet.
#[allow(clippy::too_many_arguments)]
fn intersect_combos(
    acc: &BitSet,
    acc_count: usize,
    edges: &[&RatioRange],
    bounds: &[usize],
    levels: &mut [BitSet],
    mx: usize,
    out: &mut GeneSets,
    dedup_hits: &mut u64,
) {
    match (bounds, levels.split_first_mut()) {
        (&[start, end, ..], Some((level, rest_levels))) => {
            for r in &edges[start..end] {
                let count = level.intersect_into(acc, &r.genes);
                if count >= mx {
                    intersect_combos(
                        level,
                        count,
                        edges,
                        &bounds[1..],
                        rest_levels,
                        mx,
                        out,
                        dedup_hits,
                    );
                }
            }
        }
        _ => {
            if !out.insert(acc, acc_count) {
                *dedup_hits += 1;
            }
        }
    }
}

/// The bicluster DFS without candidate inheritance: every node re-tests
/// every range of every `(s_a, s_b)` against its gene-set, the buffers are
/// plain per-node vectors, and a hash set finds duplicate gene-sets. With
/// `bounded` it applies the search's size bound and is the reference the
/// inheriting search must reproduce exactly; without it, it walks every
/// branch and subtree, as the search did before the bound.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::HashSet;

    /// [`mine_biclusters_ctrl`]'s serial branch loop around the old DFS.
    pub(super) fn mine(
        m: &Matrix3,
        rg: &RangeGraph,
        params: &Params,
        collect_hists: bool,
        bounded: bool,
    ) -> (Vec<Bicluster>, bool, BiclusterStats) {
        let ctrl = RunCtrl::profiled(collect_hists);
        let n_samples = m.n_samples();
        let mut stats = BiclusterStats::default();
        if collect_hists {
            stats.hists = Some(Box::default());
        }
        let mut budget = params.max_candidates;
        if let Some(b) = &mut budget {
            if *b == 0 {
                return (Vec::new(), true, stats);
            }
            *b -= 1;
            stats.budget_spent += 1;
        }
        stats.nodes += 1;
        let branches = (0..n_samples)
            .filter(|&i| !bounded || reaches(0, n_samples - 1 - i, params.min_samples))
            .count();
        if let Some(h) = stats.hists.as_deref_mut() {
            h.depth.record(0);
            h.candidate_set_size.record(n_samples as u64);
            h.fanout.record(branches as u64);
        }
        let all_genes = BitSet::full(m.n_genes());
        let order: Vec<usize> = (0..n_samples).collect();
        let mut store = MaximalStore::default();
        let mut truncated = false;
        for branch in 0..branches {
            let mut miner = BranchMiner::new(m, rg, params, branch, budget, &ctrl);
            dfs(&mut miner, &all_genes, &order[branch + 1..], bounded);
            if let Some(b) = &mut budget {
                *b -= miner.stats.budget_spent;
            }
            truncated |= miner.truncated;
            stats.absorb(&miner.stats);
            for bc in miner.results.into_vec() {
                match store.insert(bc) {
                    InsertOutcome::Subsumed => stats.merge_subsumed += 1,
                    InsertOutcome::Inserted { displaced } => stats.replaced += displaced as u64,
                }
            }
        }
        (store.into_vec(), truncated, stats)
    }

    fn dfs<'a>(miner: &mut BranchMiner<'a>, genes: &BitSet, pending: &[usize], bounded: bool) {
        if miner.ctrl.token.deadline_exceeded() {
            miner.truncated = true;
            return;
        }
        if let Some(b) = &mut miner.budget {
            if *b == 0 {
                miner.truncated = true;
                return;
            }
            *b -= 1;
            miner.stats.budget_spent += 1;
        }
        miner.stats.nodes += 1;
        if let Some(h) = miner.stats.hists.as_deref_mut() {
            h.depth.record(miner.samples.len() as u64);
            h.candidate_set_size.record(pending.len() as u64);
        }
        let mut children = 0u64;
        miner.try_record(genes, genes.count());
        let genes_count = genes.count();
        let rg = miner.rg;
        let depth = miner.samples.len();
        // The live candidates (no empty list) with their qualified edge
        // lists, one per `s_a ∈ Y`.
        let mut live: Vec<(usize, Vec<Vec<&'a RatioRange>>)> = Vec::new();
        for (i, &sb) in pending.iter().enumerate() {
            let mut per_sample: Vec<Vec<&'a RatioRange>> = Vec::new();
            for &sa in &miner.samples {
                miner.stats.range_tests += rg.ranges_between(sa, sb).len() as u64;
                let edges: Vec<&'a RatioRange> = rg
                    .ranges_between(sa, sb)
                    .iter()
                    .filter(|r| {
                        genes.intersection_count_at_least_hinted(
                            &r.genes,
                            miner.params.min_genes,
                            genes_count,
                        )
                    })
                    .collect();
                if edges.is_empty() {
                    break;
                }
                per_sample.push(edges);
            }
            if per_sample.len() == depth {
                live.push((i, per_sample));
            }
        }
        let mut levels = vec![BitSet::new(0); depth];
        let mut seen = HashSet::new();
        for (j, (i, per_sample)) in live.iter().enumerate() {
            if bounded && !reaches(depth, live.len() - 1 - j, miner.params.min_samples) {
                break;
            }
            let (sb, rest) = (pending[*i], &pending[i + 1..]);
            seen.clear();
            let mut combos: Vec<BitSet> = Vec::new();
            intersect_combos(
                genes,
                per_sample,
                &mut levels,
                miner.params.min_genes,
                &mut seen,
                &mut combos,
                &mut miner.stats.dedup_hits,
            );
            miner.stats.gene_combos += combos.len() as u64;
            for new_genes in combos {
                children += 1;
                miner.samples.push(sb);
                dfs(miner, &new_genes, rest, bounded);
                miner.samples.pop();
            }
        }
        if let Some(h) = miner.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rangegraph::build_range_graph_observed;
    use crate::testdata::paper_table1;
    use proptest::prelude::*;
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
            let (bcs1, tr1, st1) = mine_biclusters_ctrl(&m, &rg, &p, 1, &RunCtrl::profiled(true));
            for workers in [2usize, 4, 8] {
                let (bcs, tr, st) =
                    mine_biclusters_ctrl(&m, &rg, &p, workers, &RunCtrl::profiled(true));
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

    /// Two different edge combinations of one node yield one gene-set. On
    /// a 6 × 3 slice, s1 is s0 doubled, so `(s0, s2)` and `(s1, s2)` have
    /// the same two overlapping ranges, `E1 = {g0..g3}` and `E2 = {g2..g5}`
    /// (s2 climbs 1.0, 1.05, 1.1 in gene pairs; ε 0.06, no extension).
    /// Node `{s0, s1}` extends by s2 through `(E1, E2)` and `(E2, E1)`,
    /// which both intersect to `{g2, g3}`: the second is a dedup hit.
    #[test]
    fn duplicate_gene_sets_are_dropped_as_the_oracle_drops_them() {
        let mut m = Matrix3::zeros(6, 3, 1);
        for g in 0..6 {
            m.set(g, 0, 0, 1.0);
            m.set(g, 1, 0, 2.0);
            m.set(g, 2, 0, [1.0, 1.05, 1.1][g / 2]);
        }
        let p = Params {
            range_extension: crate::params::RangeExtension::Off,
            ..params(0.06, 2, 2)
        };
        let rg = graph(&m, 0, &p);
        assert_eq!(rg.ranges_between(0, 2).len(), 2);
        let want = oracle::mine(&m, &rg, &p, true, true);
        assert!(want.2.dedup_hits > 0, "{:?}", want.2);
        for workers in [1, 2] {
            let got = mine_biclusters_ctrl(&m, &rg, &p, workers, &RunCtrl::profiled(true));
            assert_eq!(got, want, "workers={workers}");
        }
    }

    /// One `n_genes × n_samples` slice of background noise in `[10, 20)`
    /// with two overlapping planted scaling biclusters: genes `[0, n/2)`
    /// over samples 0–3, and genes `[n/3, n)` over samples 2 onwards. The
    /// noise gives every sample pair many ratio ranges, most of which fail
    /// `mx` once the gene-set has shrunk — the dead ends that candidate
    /// inheritance drops.
    fn noisy_slice() -> impl Strategy<Value = Matrix3> {
        (20usize..64, 5usize..9)
            .prop_flat_map(|(ng, ns)| {
                (
                    Just((ng, ns)),
                    proptest::collection::vec(10.0f64..20.0, ng * ns),
                    proptest::collection::vec(0.5f64..4.0, ns),
                )
            })
            .prop_map(|((ng, ns), vals, sf)| {
                let mut m = Matrix3::zeros(ng, ns, 1);
                for g in 0..ng {
                    for s in 0..ns {
                        m.set(g, s, 0, vals[g * ns + s]);
                    }
                }
                for g in 0..ng / 2 {
                    for (s, f) in sf.iter().enumerate().take(4) {
                        m.set(g, s, 0, (g + 1) as f64 * f);
                    }
                }
                for g in ng / 3..ng {
                    for s in 2..ns {
                        m.set(g, s, 0, (g + 2) as f64 * sf[ns - 1 - s]);
                    }
                }
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The inheriting search reproduces the oracle exactly (clusters in
        /// order, truncation, every statistic with histograms on): without
        /// a budget, under a candidate budget that may cut it short, with
        /// `δ^x`/`δ^y` gates on recording, and at one and two workers. The
        /// one statistic allowed to differ is the work: it runs no more
        /// range tests than the oracle.
        #[test]
        fn inherited_search_matches_oracle(
            m in noisy_slice(),
            eps in 0.01f64..0.2,
            mx in 2usize..5,
            my in 1usize..4,
            budget_frac in 0.0f64..1.5,
            delta_gene in 5.0f64..150.0,
            delta_sample in 5.0f64..150.0,
        ) {
            let base = params(eps, mx, my);
            let rg = graph(&m, 0, &base);
            let nodes = oracle::mine(&m, &rg, &base, true, true).2.nodes;
            let budgeted = Params {
                max_candidates: Some(((nodes as f64 * budget_frac) as u64).max(1)),
                ..base.clone()
            };
            let gated = Params {
                delta_gene: Some(delta_gene),
                delta_sample: Some(delta_sample),
                ..base.clone()
            };
            for p in [base, budgeted, gated] {
                let mut want = oracle::mine(&m, &rg, &p, true, true);
                let oracle_tests = std::mem::take(&mut want.2.range_tests);
                for workers in [1, 2] {
                    let mut got =
                        mine_biclusters_ctrl(&m, &rg, &p, workers, &RunCtrl::profiled(true));
                    let tests = std::mem::take(&mut got.2.range_tests);
                    prop_assert!(
                        tests <= oracle_tests,
                        "{} range tests, oracle {}", tests, oracle_tests
                    );
                    prop_assert_eq!(got, want.clone());
                }
            }
        }

        /// The size bound only skips work: against the oracle without it,
        /// the search records the same clusters in the same order with the
        /// same outcome counters, and no work counter is higher. Unbudgeted
        /// and with `δ^x`/`δ^y` gates on recording, at one and two workers;
        /// `my` up to 6 on 5 to 8 samples, so the bound also cuts whole
        /// top-level branches.
        #[test]
        fn size_bound_skips_only_work(
            m in noisy_slice(),
            eps in 0.01f64..0.2,
            mx in 2usize..5,
            my in 1usize..7,
            delta_gene in 5.0f64..150.0,
            delta_sample in 5.0f64..150.0,
        ) {
            let base = params(eps, mx, my);
            let rg = graph(&m, 0, &base);
            let gated = Params {
                delta_gene: Some(delta_gene),
                delta_sample: Some(delta_sample),
                ..base.clone()
            };
            let outcome = |s: &BiclusterStats| {
                [s.recorded, s.rejected_delta, s.rejected_subsumed, s.replaced, s.merge_subsumed]
            };
            let work = |s: &BiclusterStats| [s.nodes, s.gene_combos, s.range_tests, s.dedup_hits];
            for p in [base, gated] {
                let (want, want_cut, w) = oracle::mine(&m, &rg, &p, false, false);
                for workers in [1, 2] {
                    let (got, got_cut, g) =
                        mine_biclusters_ctrl(&m, &rg, &p, workers, &RunCtrl::profiled(false));
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(got_cut, want_cut);
                    prop_assert_eq!(outcome(&g), outcome(&w));
                    for (got, want) in work(&g).into_iter().zip(work(&w)) {
                        prop_assert!(
                            got <= want,
                            "work {:?} above the oracle's {:?}", work(&g), work(&w)
                        );
                    }
                }
            }
        }
    }
}
