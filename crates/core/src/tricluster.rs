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
//! As in the bicluster phase, `δ`/`mz` checks gate recording only, and the
//! result set keeps only maximal clusters.

use crate::cluster::{sorted_intersection, Bicluster, Tricluster};
use crate::coherence::slice_pair_coherent;
use crate::fault::RunCtrl;
use crate::params::Params;
use std::collections::HashSet;
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;
use tricluster_obs::{names, EventSink, Histogram};

/// Value distributions of one tricluster search, collected only on request
/// (see [`mine_triclusters_profiled`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriclusterHists {
    /// DFS depth (current time-set size) at each expanded node.
    pub depth: Histogram,
    /// Remaining candidate time count at each expanded node.
    pub candidate_set_size: Histogram,
    /// Children actually recursed into from each expanded node.
    pub fanout: Histogram,
}

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
    /// Slice-pair temporal-coherence checks performed.
    pub coherence_checks: u64,
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
    /// Value distributions; `None` unless requested, so the default path
    /// never pays for bucket arithmetic.
    pub hists: Option<Box<TriclusterHists>>,
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
        sink.counter(names::TC_REJECTED_INCOHERENT, self.rejected_incoherent);
        sink.counter(names::TC_DEDUP_HITS, self.dedup_hits);
        sink.counter(names::TC_RECORDED, self.recorded);
        sink.counter(names::TC_REJECTED_SUBSUMED, self.rejected_subsumed);
        sink.counter(names::TC_REPLACED, self.replaced);
        if let Some(h) = &self.hists {
            sink.histogram(names::H_TC_DEPTH, &h.depth);
            sink.histogram(names::H_TC_CANDIDATES, &h.candidate_set_size);
            sink.histogram(names::H_TC_FANOUT, &h.fanout);
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
    mine_triclusters_ctrl(m, per_time, params, collect_hists, &RunCtrl::unbounded())
}

/// Like [`mine_triclusters_profiled`], under the run control of `ctrl`: the
/// deadline is polled at every DFS node, truncating the search exactly like
/// an exhausted candidate budget.
pub(crate) fn mine_triclusters_ctrl(
    m: &Matrix3,
    per_time: &[Vec<Bicluster>],
    params: &Params,
    collect_hists: bool,
    ctrl: &RunCtrl,
) -> (Vec<Tricluster>, bool, TriclusterStats) {
    assert_eq!(
        per_time.len(),
        m.n_times(),
        "need one bicluster set per time slice"
    );
    let mut stats = TriclusterStats::default();
    if collect_hists {
        stats.hists = Some(Box::default());
    }
    let mut miner = TriMiner {
        m,
        per_time,
        params,
        results: Vec::new(),
        times: Vec::new(),
        budget: params.max_candidates,
        truncated: false,
        stats,
        ctrl,
    };
    let order: Vec<usize> = (0..m.n_times()).collect();
    let all_genes = BitSet::full(m.n_genes());
    let all_samples: Vec<usize> = (0..m.n_samples()).collect();
    miner.dfs(&all_genes, &all_samples, &order);
    if let Some(p) = &ctrl.progress {
        p.add_budget_spent(miner.stats.budget_spent);
    }
    (miner.results, miner.truncated, miner.stats)
}

struct TriMiner<'a> {
    m: &'a Matrix3,
    per_time: &'a [Vec<Bicluster>],
    params: &'a Params,
    results: Vec<Tricluster>,
    times: Vec<usize>,
    budget: Option<u64>,
    truncated: bool,
    stats: TriclusterStats,
    /// Run control: only the deadline is polled here (per DFS node).
    ctrl: &'a RunCtrl,
}

impl TriMiner<'_> {
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
            // Candidate intersections with each bicluster of slice t_b;
            // dedupe identical (X, Y) outcomes at this node.
            let mut seen: HashSet<(Vec<u64>, Vec<usize>)> = HashSet::new();
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
                // and every slice already in Z.
                let mut checks = 0u64;
                let coherent = self.times.iter().all(|&ta| {
                    checks += 1;
                    slice_pair_coherent(
                        self.m,
                        &new_genes,
                        &new_samples,
                        ta,
                        tb,
                        self.params.epsilon_time,
                    )
                });
                self.stats.coherence_checks += checks;
                if !coherent {
                    self.stats.rejected_incoherent += 1;
                    continue;
                }
                if !seen.insert((new_genes.as_blocks().to_vec(), new_samples.clone())) {
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

    fn try_record(&mut self, genes: &BitSet, samples: &[usize]) {
        let p = self.params;
        if self.times.len() < p.min_times
            || samples.len() < p.min_samples
            || genes.count() < p.min_genes
        {
            return;
        }
        if !self.deltas_ok(genes, samples) {
            return;
        }
        let candidate = Tricluster::new(genes.clone(), samples.to_vec(), self.times.clone());
        match insert_maximal_tricluster_counted(&mut self.results, candidate) {
            TriInsertOutcome::Subsumed => self.stats.rejected_subsumed += 1,
            TriInsertOutcome::Inserted { displaced } => {
                self.stats.recorded += 1;
                self.stats.replaced += displaced as u64;
                if let Some(p) = &self.ctrl.progress {
                    p.candidate_recorded();
                }
            }
        }
    }

    /// 3D `δ` checks: `δ^x` bounds the value range within each
    /// `(sample, time)` column over genes; `δ^y` within each `(gene, time)`
    /// row over samples; `δ^z` within each `(gene, sample)` fiber over times.
    fn deltas_ok(&self, genes: &BitSet, samples: &[usize]) -> bool {
        let p = self.params;
        if let Some(dx) = p.delta_gene {
            for &s in samples {
                for &t in &self.times {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for g in genes.iter() {
                        let v = self.m.get(g, s, t);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    if hi - lo > dx {
                        return false;
                    }
                }
            }
        }
        if let Some(dy) = p.delta_sample {
            for g in genes.iter() {
                for &t in &self.times {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &s in samples {
                        let v = self.m.get(g, s, t);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    if hi - lo > dy {
                        return false;
                    }
                }
            }
        }
        if let Some(dz) = p.delta_time {
            for g in genes.iter() {
                for &s in samples {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &t in &self.times {
                        let v = self.m.get(g, s, t);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    if hi - lo > dz {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// What [`insert_maximal_tricluster_counted`] did with a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriInsertOutcome {
    /// The candidate was contained in an existing cluster and dropped.
    Subsumed,
    /// The candidate was inserted, displacing `displaced` existing clusters.
    Inserted {
        /// Existing clusters removed because the candidate contains them.
        displaced: usize,
    },
}

/// Inserts `candidate` into `results` keeping only maximal triclusters.
pub fn insert_maximal_tricluster(results: &mut Vec<Tricluster>, candidate: Tricluster) {
    insert_maximal_tricluster_counted(results, candidate);
}

/// Like [`insert_maximal_tricluster`], reporting what happened.
pub fn insert_maximal_tricluster_counted(
    results: &mut Vec<Tricluster>,
    candidate: Tricluster,
) -> TriInsertOutcome {
    if results.iter().any(|c| candidate.is_subcluster_of(c)) {
        return TriInsertOutcome::Subsumed;
    }
    let before = results.len();
    results.retain(|c| !c.is_subcluster_of(&candidate));
    let displaced = before - results.len();
    results.push(candidate);
    TriInsertOutcome::Inserted { displaced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicluster::mine_biclusters_profiled;
    use crate::rangegraph::build_range_graph_observed;
    use crate::testdata::{paper_table1, paper_table1_expected};
    use tricluster_obs::NullSink;

    fn params() -> Params {
        Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .build()
            .unwrap()
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

    #[test]
    fn insert_maximal_tricluster_behaviour() {
        let mk = |g: &[usize], s: &[usize], t: &[usize]| {
            Tricluster::new(
                BitSet::from_indices(10, g.iter().copied()),
                s.to_vec(),
                t.to_vec(),
            )
        };
        let mut v = Vec::new();
        insert_maximal_tricluster(&mut v, mk(&[1, 2], &[0], &[0]));
        insert_maximal_tricluster(&mut v, mk(&[1, 2], &[0], &[0, 1]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].times, vec![0, 1]);
        insert_maximal_tricluster(&mut v, mk(&[1], &[0], &[1]));
        assert_eq!(v.len(), 1, "subsumed candidate rejected");
        insert_maximal_tricluster(&mut v, mk(&[3], &[1], &[0]));
        assert_eq!(v.len(), 2);
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
}
