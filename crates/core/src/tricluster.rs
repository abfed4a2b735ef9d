//! TRICLUSTER: mining maximal triclusters from per-slice biclusters
//! (paper §4.3, Figure 4).
//!
//! The search mirrors [BICLUSTER](crate::bicluster) one level up: a
//! depth-first set-enumeration over *time points*, where extending the
//! candidate `C = X × Y × Z` by a time `t_b` intersects `X` and `Y` with a
//! bicluster mined at `t_b`, subject to the cardinality thresholds and the
//! [temporal coherence](crate::coherence) between `t_b` and every slice
//! already in `Z`.
//!
//! As in the bicluster phase, `δ` checks gate recording only, and the
//! result set keeps only maximal clusters. `mz` gates recording and, like
//! BICLUSTER's `my`, bounds expansion exactly: a node stops at the first
//! slice `t_b` whose child could not reach `mz` slices, `|Z| + 1 +`
//! (slices after `t_b`) `< mz`.
//!
//! The enumeration reaches the same intersected region `X × Y` under many
//! time subsets, so each phase memoizes the coherence verdicts per
//! `(region, t_a, t_b)`.

use crate::bicluster::{reaches, DfsHists};
use crate::classify::fiber_spreads;
use crate::cluster::{sorted_intersection, Bicluster, InsertOutcome, MaximalStore, Tricluster};
use crate::coherence::slice_pair_coherent;
use crate::fault::RunCtrl;
use crate::params::Params;
use std::collections::{HashMap, HashSet};
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;
use tricluster_obs::{emit, names, Event, EventSink, NullSink};

/// Statistics of one tricluster search. Input-determined: identical across
/// runs and thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriclusterStats {
    /// DFS nodes (candidate time sets) visited.
    pub nodes: u64,
    /// Candidate-visit budget consumed (0 when [`Params::max_candidates`]
    /// is unset).
    pub budget_spent: u64,
    /// Bicluster-intersection extensions attempted.
    pub extensions: u64,
    /// Extensions rejected because the intersection fell below `mx`/`my`.
    pub rejected_small: u64,
    /// Slice-pair temporal-coherence checks performed: the logical count,
    /// including the ones answered from the phase's memo.
    pub coherence_checks: u64,
    /// Slice-pair coherence verdicts actually computed: at most
    /// `coherence_checks`, the rest being memo hits.
    pub coherence_computed: u64,
    /// Extensions rejected by temporal coherence.
    pub rejected_incoherent: u64,
    /// Extensions dropped because an identical `(genes, samples)` outcome
    /// was already expanded at the same node.
    pub dedup_hits: u64,
    /// Candidates recorded into the (tentative) result set.
    pub recorded: u64,
    /// Candidates rejected because an existing cluster subsumes them.
    pub rejected_subsumed: u64,
    /// Previously recorded clusters displaced by a larger candidate.
    pub replaced: u64,
    /// Candidates rejected by the `δ^x`/`δ^y`/`δ^z` checks at record time.
    pub rejected_delta: u64,
    /// Value distributions; `None` unless requested, so the default path
    /// never pays for bucket arithmetic.
    pub hists: Option<Box<DfsHists>>,
}

impl TriclusterStats {
    /// Mirrors the stats into counter increments (and histograms, when
    /// collected) on `sink`.
    pub fn publish(&self, sink: &dyn EventSink) {
        sink.counter(names::TC_NODES, self.nodes);
        sink.counter(names::TC_BUDGET_SPENT, self.budget_spent);
        sink.counter(names::TC_EXTENSIONS, self.extensions);
        sink.counter(names::TC_REJECTED_SMALL, self.rejected_small);
        sink.counter(names::TC_COHERENCE_CHECKS, self.coherence_checks);
        sink.counter(names::TC_COHERENCE_COMPUTED, self.coherence_computed);
        sink.counter(names::TC_REJECTED_INCOHERENT, self.rejected_incoherent);
        sink.counter(names::TC_DEDUP_HITS, self.dedup_hits);
        sink.counter(names::TC_RECORDED, self.recorded);
        sink.counter(names::TC_REJECTED_SUBSUMED, self.rejected_subsumed);
        sink.counter(names::TC_REPLACED, self.replaced);
        sink.counter(names::TC_REJECTED_DELTA, self.rejected_delta);
        if let Some(h) = &self.hists {
            h.publish(
                sink,
                [
                    names::H_TC_DEPTH,
                    names::H_TC_CANDIDATES,
                    names::H_TC_FANOUT,
                ],
            );
        }
    }
}

/// Mines all maximal triclusters given the biclusters of every time slice
/// (`per_time[t]` = biclusters of slice `t`).
///
/// Also returns whether the search was cut short by
/// [`Params::max_candidates`] and the search statistics; `collect_hists`
/// adds DFS shape histograms (depth, candidate-set size, fan-out) to them.
pub fn mine_triclusters_profiled(
    m: &Matrix3,
    per_time: &[Vec<Bicluster>],
    params: &Params,
    collect_hists: bool,
) -> (Vec<Tricluster>, bool, TriclusterStats) {
    mine_triclusters_ctrl(
        m,
        per_time,
        params,
        collect_hists,
        &RunCtrl::unbounded(),
        &NullSink,
    )
}

/// Like [`mine_triclusters_profiled`], under the run control of `ctrl`: the
/// deadline is polled at every DFS node, truncating the search exactly like
/// an exhausted candidate budget. Ends with one `tricluster.coherence` trace
/// event on `sink` reporting the memo's logical checks, computed checks and
/// interned regions.
pub(crate) fn mine_triclusters_ctrl(
    m: &Matrix3,
    per_time: &[Vec<Bicluster>],
    params: &Params,
    collect_hists: bool,
    ctrl: &RunCtrl,
    sink: &dyn EventSink,
) -> (Vec<Tricluster>, bool, TriclusterStats) {
    let mut miner = TriMiner::new(m, per_time, params, collect_hists, ctrl);
    let order: Vec<usize> = (0..m.n_times()).collect();
    let all_genes = BitSet::full(m.n_genes());
    let all_samples: Vec<usize> = (0..m.n_samples()).collect();
    miner.dfs(&all_genes, &all_samples, &order);
    if let Some(p) = &ctrl.progress {
        p.add_budget_spent(miner.stats.budget_spent);
    }
    emit(sink, || {
        Event::new("tricluster.coherence")
            .field("checks", miner.stats.coherence_checks)
            .field("computed", miner.stats.coherence_computed)
            .field("regions", miner.memo.regions.len())
    });
    (miner.results.into_vec(), miner.truncated, miner.stats)
}

/// Memo of [`slice_pair_coherent`] for one tricluster phase.
///
/// Exact: coherence is a pure function of the matrix, the region `X × Y`,
/// the slice pair and `ε_time`; the matrix and `ε_time` are fixed for the
/// phase and the key holds the rest. The maps hold one entry per distinct
/// size-passing region and one per computed check, and are dropped with
/// the phase.
#[derive(Default)]
struct CoherenceMemo {
    /// Region id by key: the gene blocks, then the sample indices. Every
    /// gene set of a phase has the same block count, so the split is
    /// unambiguous.
    regions: HashMap<Vec<u64>, u32>,
    /// Verdict by `(region, t_a, t_b)`.
    verdicts: HashMap<(u32, usize, usize), bool>,
    /// Reused lookup key, so finding a known region allocates nothing.
    key: Vec<u64>,
}

impl CoherenceMemo {
    /// The id of region `genes × samples`, interned on first sight.
    fn region(&mut self, genes: &BitSet, samples: &[usize]) -> u32 {
        self.key.clear();
        self.key.extend_from_slice(genes.as_blocks());
        self.key.extend(samples.iter().map(|&s| s as u64));
        if let Some(&id) = self.regions.get(self.key.as_slice()) {
            return id;
        }
        // Each region holds at least one heap block, so memory runs out
        // long before 2^32 of them.
        let id = u32::try_from(self.regions.len()).expect("fewer than 2^32 regions");
        self.regions.insert(self.key.clone(), id);
        id
    }
}

struct TriMiner<'a> {
    m: &'a Matrix3,
    per_time: &'a [Vec<Bicluster>],
    params: &'a Params,
    results: MaximalStore<Tricluster>,
    times: Vec<usize>,
    budget: Option<u64>,
    truncated: bool,
    stats: TriclusterStats,
    memo: CoherenceMemo,
    /// Run control: only the deadline is polled here (per DFS node).
    ctrl: &'a RunCtrl,
}

impl<'a> TriMiner<'a> {
    fn new(
        m: &'a Matrix3,
        per_time: &'a [Vec<Bicluster>],
        params: &'a Params,
        collect_hists: bool,
        ctrl: &'a RunCtrl,
    ) -> Self {
        assert_eq!(
            per_time.len(),
            m.n_times(),
            "need one bicluster set per time slice"
        );
        let mut stats = TriclusterStats::default();
        if collect_hists {
            stats.hists = Some(Box::default());
        }
        TriMiner {
            m,
            per_time,
            params,
            results: MaximalStore::default(),
            times: Vec::new(),
            budget: params.max_candidates,
            truncated: false,
            stats,
            memo: CoherenceMemo::default(),
            ctrl,
        }
    }

    fn dfs(&mut self, genes: &BitSet, samples: &[usize], pending: &[usize]) {
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
            h.depth.record(self.times.len() as u64);
            h.candidate_set_size.record(pending.len() as u64);
        }
        let mut children = 0u64;
        self.try_record(genes, samples);
        for (i, &tb) in pending.iter().enumerate() {
            let rest = &pending[i + 1..];
            if !reaches(self.times.len(), rest.len(), self.params.min_times) {
                break;
            }
            // Candidate intersections with each bicluster of slice t_b;
            // dedupe identical (X, Y) outcomes (equal region ids) at this
            // node.
            let mut seen: HashSet<u32> = HashSet::new();
            for bc in &self.per_time[tb] {
                self.stats.extensions += 1;
                if !bc
                    .genes
                    .intersection_count_at_least(genes, self.params.min_genes)
                {
                    self.stats.rejected_small += 1;
                    continue;
                }
                let new_samples = sorted_intersection(samples, &bc.samples);
                if new_samples.len() < self.params.min_samples {
                    self.stats.rejected_small += 1;
                    continue;
                }
                let mut new_genes = genes.clone();
                new_genes.intersect_with(&bc.genes);
                if new_genes.count() < self.params.min_genes {
                    self.stats.rejected_small += 1;
                    continue;
                }
                // Temporal coherence of the intersected region between t_b
                // and every slice already in Z, each verdict computed once
                // per phase.
                let region = self.memo.region(&new_genes, &new_samples);
                let (mut checks, mut computed) = (0u64, 0u64);
                let coherent = self.times.iter().all(|&ta| {
                    checks += 1;
                    *self
                        .memo
                        .verdicts
                        .entry((region, ta, tb))
                        .or_insert_with(|| {
                            computed += 1;
                            slice_pair_coherent(
                                self.m,
                                &new_genes,
                                &new_samples,
                                ta,
                                tb,
                                self.params.epsilon_time,
                            )
                        })
                });
                self.stats.coherence_checks += checks;
                self.stats.coherence_computed += computed;
                if !coherent {
                    self.stats.rejected_incoherent += 1;
                    continue;
                }
                if !seen.insert(region) {
                    self.stats.dedup_hits += 1;
                    continue;
                }
                children += 1;
                self.times.push(tb);
                self.dfs(&new_genes, &new_samples, rest);
                self.times.pop();
            }
        }
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }

    /// The recording step (paper Fig. 4), as in BICLUSTER: the size gate,
    /// the `δ^x`/`δ^y`/`δ^z` check, then the maximal store.
    fn try_record(&mut self, genes: &BitSet, samples: &[usize]) {
        let p = self.params;
        if self.times.len() < p.min_times
            || samples.len() < p.min_samples
            || genes.count() < p.min_genes
        {
            return;
        }
        let limits = [p.delta_gene, p.delta_sample, p.delta_time];
        if fiber_spreads(self.m, genes, samples, &self.times, limits).is_err() {
            self.stats.rejected_delta += 1;
            return;
        }
        let candidate = Tricluster::new(genes.clone(), samples.to_vec(), self.times.clone());
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
}

/// The time DFS without the coherence memo: every slice-pair check is
/// recomputed and `seen` keys on cloned `(X, Y)` sets. With `bounded` it
/// applies the search's size bound and is the reference the memoized search
/// must reproduce exactly; without it, it walks every subtree, as the
/// search did before the bound.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn mine(
        m: &Matrix3,
        per_time: &[Vec<Bicluster>],
        params: &Params,
        collect_hists: bool,
        bounded: bool,
    ) -> (Vec<Tricluster>, bool, TriclusterStats) {
        let ctrl = RunCtrl::unbounded();
        let mut miner = TriMiner::new(m, per_time, params, collect_hists, &ctrl);
        let order: Vec<usize> = (0..m.n_times()).collect();
        let all_genes = BitSet::full(m.n_genes());
        let all_samples: Vec<usize> = (0..m.n_samples()).collect();
        dfs(&mut miner, &all_genes, &all_samples, &order, bounded);
        (miner.results.into_vec(), miner.truncated, miner.stats)
    }

    fn dfs(
        miner: &mut TriMiner<'_>,
        genes: &BitSet,
        samples: &[usize],
        pending: &[usize],
        bounded: bool,
    ) {
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
            h.depth.record(miner.times.len() as u64);
            h.candidate_set_size.record(pending.len() as u64);
        }
        let mut children = 0u64;
        miner.try_record(genes, samples);
        for (i, &tb) in pending.iter().enumerate() {
            let rest = &pending[i + 1..];
            if bounded && !reaches(miner.times.len(), rest.len(), miner.params.min_times) {
                break;
            }
            let mut seen: HashSet<(Vec<u64>, Vec<usize>)> = HashSet::new();
            for bc in &miner.per_time[tb] {
                miner.stats.extensions += 1;
                if !bc
                    .genes
                    .intersection_count_at_least(genes, miner.params.min_genes)
                {
                    miner.stats.rejected_small += 1;
                    continue;
                }
                let new_samples = sorted_intersection(samples, &bc.samples);
                if new_samples.len() < miner.params.min_samples {
                    miner.stats.rejected_small += 1;
                    continue;
                }
                let mut new_genes = genes.clone();
                new_genes.intersect_with(&bc.genes);
                if new_genes.count() < miner.params.min_genes {
                    miner.stats.rejected_small += 1;
                    continue;
                }
                let mut checks = 0u64;
                let coherent = miner.times.iter().all(|&ta| {
                    checks += 1;
                    slice_pair_coherent(
                        miner.m,
                        &new_genes,
                        &new_samples,
                        ta,
                        tb,
                        miner.params.epsilon_time,
                    )
                });
                miner.stats.coherence_checks += checks;
                miner.stats.coherence_computed += checks;
                if !coherent {
                    miner.stats.rejected_incoherent += 1;
                    continue;
                }
                if !seen.insert((new_genes.as_blocks().to_vec(), new_samples.clone())) {
                    miner.stats.dedup_hits += 1;
                    continue;
                }
                children += 1;
                miner.times.push(tb);
                dfs(miner, &new_genes, &new_samples, rest, bounded);
                miner.times.pop();
            }
        }
        if let Some(h) = miner.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicluster::mine_biclusters_profiled;
    use crate::rangegraph::build_range_graph_observed;
    use crate::testdata::{paper_table1, paper_table1_expected};
    use proptest::prelude::*;
    use tricluster_obs::{Recorder, Value};

    fn params() -> Params {
        Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .build()
            .unwrap()
    }

    /// [`params`] at `eps`, with `(mx, my, mz) = (min_genes, 2, min_times)`.
    fn sized(eps: f64, min_genes: usize, min_times: usize) -> Params {
        Params {
            epsilon: eps,
            epsilon_time: eps,
            min_genes,
            min_samples: 2,
            min_times,
            ..params()
        }
    }

    /// The biclusters of every time slice.
    fn per_slice(m: &Matrix3, p: &Params) -> Vec<Vec<Bicluster>> {
        (0..m.n_times())
            .map(|t| {
                let rg = build_range_graph_observed(m, t, p, &NullSink).0;
                mine_biclusters_profiled(m, &rg, p, false).0
            })
            .collect()
    }

    fn mine_all(m: &Matrix3, p: &Params) -> Vec<Tricluster> {
        mine_triclusters_profiled(m, &per_slice(m, p), p, false).0
    }

    fn sorted_view(cs: &[Tricluster]) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let mut v: Vec<_> = cs
            .iter()
            .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
            .collect();
        v.sort();
        v
    }

    /// End-to-end on the paper's Table 1: exactly C1, C2, C3 spanning both
    /// time slices.
    #[test]
    fn paper_example_triclusters() {
        let m = paper_table1();
        let got = sorted_view(&mine_all(&m, &params()));
        let mut want = paper_table1_expected();
        want.sort();
        assert_eq!(got, want);
    }

    /// Breaking temporal coherence of C2 at t1 (perturbing one cell) must
    /// drop C2's 2-slice cluster while C1 and C3 survive.
    #[test]
    fn incoherent_slice_pair_is_pruned() {
        let mut m = paper_table1();
        // C2 cell (g2, s4) at t1: 2.5 -> 2.0 breaks the 0.5 slice ratio and
        // the within-slice coherence of C2 at t1.
        m.set(2, 4, 1, 2.0);
        let got = sorted_view(&mine_all(&m, &params()));
        assert!(
            !got.iter().any(|(g, _, _)| g == &vec![0, 2, 6, 9]),
            "C2 should be gone: {got:?}"
        );
        assert!(got.iter().any(|(g, _, _)| g == &vec![1, 4, 8]), "C1 kept");
        assert!(got.iter().any(|(g, _, _)| g == &vec![0, 7, 9]), "C3 kept");
    }

    /// mz larger than the number of coherent slices yields nothing.
    #[test]
    fn min_times_too_high_yields_nothing() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(3)
            .build()
            .unwrap();
        assert!(mine_all(&m, &p).is_empty());
    }

    /// δ^z = 0 requires identical values across time; the fixture scales
    /// slices by 1.2 / 0.5, so nothing survives.
    #[test]
    fn delta_z_zero_kills_time_scaling() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .delta_time(0.0)
            .build()
            .unwrap();
        assert!(mine_all(&m, &p).is_empty());
    }

    /// δ^z large enough keeps all clusters. The widest time fiber is C3's
    /// g7 (8.0 → 4.0, spread 4.0); δ^z = 4 keeps everything, δ^z = 2 keeps
    /// only C1 (largest drift 10.8 − 9.0 = 1.8).
    #[test]
    fn delta_z_thresholds() {
        let m = paper_table1();
        let mk = |dz: f64| {
            Params::builder()
                .epsilon(0.01)
                .min_genes(3)
                .min_samples(3)
                .min_times(2)
                .delta_time(dz)
                .build()
                .unwrap()
        };
        assert_eq!(mine_all(&m, &mk(4.0)).len(), 3);
        let tight = mine_all(&m, &mk(2.0));
        assert_eq!(tight.len(), 1, "{tight:?}");
        assert_eq!(tight[0].genes.to_vec(), vec![1, 4, 8]);
    }

    /// TRICLUSTER counts the candidates its `δ` check rejects, and the
    /// report's `delta_threshold` prune (and the `-vv` "pruned" line) sums
    /// both phases. δ^z = 0.5 keeps every Table 1 cluster out of the result;
    /// adding δ^x = 6 also rejects biclusters (C3's widest column is 7.0).
    #[test]
    fn delta_rejections_are_counted_in_both_phases() -> Result<(), crate::MineError> {
        let m = paper_table1();
        let p = Params {
            delta_time: Some(0.5),
            ..params()
        };
        let (cs, _, stats) = mine_triclusters_profiled(&m, &per_slice(&m, &p), &p, false);
        assert!(cs.is_empty());
        assert_eq!((stats.rejected_delta, stats.recorded), (3, 0));

        let p = Params {
            delta_gene: Some(6.0),
            ..p
        };
        let report = crate::Session::new(p).run(&m, &NullSink)?.report;
        let (bc, tc) = (
            report.counter(names::BC_REJECTED_DELTA),
            report.counter(names::TC_REJECTED_DELTA),
        );
        assert!(bc > 0 && tc > 0, "bicluster {bc}, tricluster {tc}");
        let search = crate::runreport::search_space_json(&report);
        let delta = search.get_path(&["prunes", "delta_threshold"]);
        assert_eq!(delta.and_then(|d| d.as_u64()), Some(bc + tc));
        let human = crate::runreport::render_search_space_human(&report);
        assert!(human.contains(&format!("(delta {}, ", bc + tc)), "{human}");
        Ok(())
    }

    #[test]
    fn observed_stats_are_deterministic_and_consistent() {
        let m = paper_table1();
        let p = params();
        let per_time = per_slice(&m, &p);
        let (cs, truncated, stats) = mine_triclusters_profiled(&m, &per_time, &p, false);
        assert!(!truncated);
        assert_eq!(cs.len(), 3);
        assert!(stats.nodes > 0);
        assert!(stats.extensions > 0);
        assert!(stats.coherence_checks > 0);
        assert_eq!(stats.recorded - stats.replaced, cs.len() as u64);
        let (_, _, again) = mine_triclusters_profiled(&m, &per_time, &p, false);
        assert_eq!(stats, again);
    }

    #[test]
    fn profiled_hists_describe_the_dfs() {
        let m = paper_table1();
        let p = params();
        let per_time = per_slice(&m, &p);
        let (cs, _, stats) = mine_triclusters_profiled(&m, &per_time, &p, true);
        let h = stats.hists.as_ref().expect("collected");
        assert_eq!(h.depth.count(), stats.nodes);
        assert_eq!(h.fanout.count(), stats.nodes);
        assert_eq!(h.fanout.sum(), u128::from(stats.nodes - 1));
        assert_eq!(h.candidate_set_size.max(), m.n_times() as u64);
        // collection changes neither the clusters nor the scalar stats
        let (plain_cs, _, plain) = mine_triclusters_profiled(&m, &per_time, &p, false);
        assert_eq!(cs, plain_cs);
        assert_eq!(plain.nodes, stats.nodes);
        assert!(plain.hists.is_none());
        let (_, _, again) = mine_triclusters_profiled(&m, &per_time, &p, true);
        assert_eq!(stats, again);
    }

    #[test]
    fn incoherence_is_counted() {
        let mut m = paper_table1();
        // Double C2's s4 column at t1. Within slice t1 ratios across genes
        // stay constant, so the bicluster still forms there — but the
        // t1/t0 ratio at s4 now differs from the other samples, so the
        // *temporal* coherence check must reject the extension.
        for g in [0usize, 2, 6, 9] {
            let v = m.get(g, 4, 1);
            m.set(g, 4, 1, v * 2.0);
        }
        let p = params();
        let per_time = per_slice(&m, &p);
        let (_, _, stats) = mine_triclusters_profiled(&m, &per_time, &p, false);
        assert!(stats.rejected_incoherent > 0);
    }

    #[test]
    #[should_panic(expected = "one bicluster set per time slice")]
    fn wrong_per_time_length_panics() {
        let m = paper_table1();
        mine_triclusters_profiled(&m, &[], &params(), false);
    }

    /// `vals` (10 × 5 × `nt` cells) with two planted scaling clusters that
    /// span 4–8 slices, so the time DFS reaches their regions under many
    /// time subsets: A = genes 0..4 × samples 0..3 on every slice, and
    /// B = genes 4..8 × samples 1..5 on slices 1.. (gene 8 joins B on even
    /// slices; gene 7 drifts on the last one, so some of B's intersections
    /// are incoherent).
    fn planted(vals: &[f64], tf_a: &[f64], tf_b: &[f64]) -> Matrix3 {
        let nt = tf_a.len();
        let mut m = Matrix3::zeros(10, 5, nt);
        m.as_mut_slice().copy_from_slice(vals);
        for t in 0..nt {
            for g in 0..4 {
                for (s, sf) in [1.0, 2.5, 4.0].into_iter().enumerate() {
                    m.set(g, s, t, (g + 1) as f64 * sf * tf_a[t]);
                }
            }
            if t == 0 {
                continue;
            }
            for g in if t % 2 == 0 { 4..9 } else { 4..8 } {
                let drift = if g == 7 && t == nt - 1 { 1.5 } else { 1.0 };
                for s in 1..5 {
                    m.set(g, s, t, (g - 2) as f64 * (s + 1) as f64 * tf_b[t] * drift);
                }
            }
        }
        m
    }

    fn planted_case() -> impl Strategy<Value = (Matrix3, f64)> {
        (4usize..9)
            .prop_flat_map(|nt| {
                (
                    proptest::collection::vec(1.0f64..100.0, 10 * 5 * nt),
                    proptest::collection::vec(0.5f64..4.0, nt),
                    proptest::collection::vec(0.5f64..4.0, nt),
                    0.005f64..0.1,
                )
            })
            .prop_map(|(vals, tf_a, tf_b, eps)| (planted(&vals, &tf_a, &tf_b), eps))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The memoized search reproduces the oracle exactly (clusters in
        /// order, truncation, every statistic with histograms on): without
        /// a budget, under a candidate budget that may cut it short, and
        /// with a `δ^z` gate on recording. The one statistic allowed to
        /// differ is the work: it computes no more verdicts than its logical
        /// checks, which the oracle computes one by one.
        #[test]
        fn memoized_search_matches_oracle(
            (m, eps) in planted_case(),
            min_genes in 2usize..4,
            min_times in 2usize..4,
            budget_frac in 0.0f64..1.5,
            delta_time in 5.0f64..300.0,
        ) {
            let base = sized(eps, min_genes, min_times);
            let per_time = per_slice(&m, &base);
            let nodes = mine_triclusters_profiled(&m, &per_time, &base, false).2.nodes;
            let budget = ((nodes as f64 * budget_frac) as u64).max(1);
            let budgeted = Params {
                max_candidates: Some(budget),
                ..base.clone()
            };
            let gated = Params {
                delta_time: Some(delta_time),
                ..base.clone()
            };
            for p in [base, budgeted, gated] {
                let mut got = mine_triclusters_profiled(&m, &per_time, &p, true);
                let mut want = oracle::mine(&m, &per_time, &p, true, true);
                let computed = std::mem::take(&mut got.2.coherence_computed);
                let checks = std::mem::take(&mut want.2.coherence_computed);
                prop_assert!(
                    computed <= checks,
                    "{} verdicts computed, {} checks", computed, checks
                );
                prop_assert_eq!(got, want);
            }
        }

        /// The size bound only skips work: against the oracle without it,
        /// the search records the same clusters in the same order with the
        /// same outcome counters, and no work counter is higher. Unbudgeted
        /// and with a `δ^z` gate on recording; `mz` up to 6 against planted
        /// spans of 4 to 8 slices, so the bound cuts at every depth.
        #[test]
        fn size_bound_skips_only_work(
            (m, eps) in planted_case(),
            min_genes in 2usize..4,
            min_times in 2usize..7,
            delta_time in 5.0f64..300.0,
        ) {
            let base = sized(eps, min_genes, min_times);
            let per_time = per_slice(&m, &base);
            let gated = Params {
                delta_time: Some(delta_time),
                ..base.clone()
            };
            for p in [base, gated] {
                let (got, got_cut, g) = mine_triclusters_profiled(&m, &per_time, &p, false);
                let (want, want_cut, w) = oracle::mine(&m, &per_time, &p, false, false);
                prop_assert_eq!(got, want);
                prop_assert_eq!(got_cut, want_cut);
                prop_assert_eq!(
                    (g.recorded, g.rejected_subsumed, g.replaced, g.rejected_delta),
                    (w.recorded, w.rejected_subsumed, w.replaced, w.rejected_delta)
                );
                let work = |s: &TriclusterStats| {
                    [
                        s.nodes,
                        s.extensions,
                        s.rejected_small,
                        s.coherence_checks,
                        s.coherence_computed,
                        s.rejected_incoherent,
                        s.dedup_hits,
                    ]
                };
                for (got, want) in work(&g).into_iter().zip(work(&w)) {
                    prop_assert!(got <= want, "work {:?} above the oracle's {:?}", work(&g), work(&w));
                }
            }
        }
    }

    /// A run emits one `tricluster.coherence` trace event whose logical
    /// check count is the counter's value; on a cluster spanning six slices
    /// the memo computes only a fraction of those checks.
    #[test]
    fn coherence_memo_is_traced_once_per_run() {
        let vals: Vec<f64> = (0..10 * 5 * 6)
            .map(|i| 1.0 + (i * 37 % 101) as f64)
            .collect();
        let m = planted(
            &vals,
            &[1.0, 1.5, 0.7, 2.0, 3.0, 1.2],
            &[0.8, 1.1, 2.2, 1.7, 0.9, 2.5],
        );
        let rec = Recorder::new();
        let result = crate::Session::new(params()).run(&m, &rec).unwrap();
        let events: Vec<_> = rec
            .take_events()
            .into_iter()
            .filter(|e| e.name == "tricluster.coherence")
            .collect();
        assert_eq!(events.len(), 1, "{events:?}");
        let field = |key: &str| match events[0].fields.iter().find(|(k, _)| *k == key) {
            Some((_, Value::U64(n))) => *n,
            other => panic!("{key}: {other:?}"),
        };
        let checks = result.report.counter(names::TC_COHERENCE_CHECKS);
        assert_eq!(field("checks"), checks);
        assert!(
            field("computed") * 4 < checks,
            "{} of {checks} checks computed",
            field("computed")
        );
        assert!(field("regions") > 0);
    }
}
