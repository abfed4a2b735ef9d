//! Merging and pruning of overlapping clusters (paper §4.4, Figure 6).
//!
//! Real data is noisy and users rarely know the perfect parameters, so many
//! mined clusters can overlap heavily. Three rules clean them up, driven by
//! user thresholds `η` (delete) and `γ` (merge):
//!
//! 1. **Delete (pairwise)** — if `|L_A| > |L_B|` and
//!    `|L_{B−A}| / |L_B| < η`, the smaller cluster `B` adds only a sliver
//!    beyond `A`: delete `B`.
//! 2. **Delete (multi-cover)** — if a set of other clusters `{B_i}` covers
//!    `A` so well that `|L_A − ∪_i L_{B_i}| / |L_A| < η`, delete `A`.
//! 3. **Merge** — if the bounding cluster of `A` and `B` adds few new cells,
//!    `|L_{(A+B)−A−B}| / |L_{A+B}| < γ`, replace both with the bounding
//!    cluster `(X_A∪X_B) × (Y_A∪Y_B) × (Z_A∪Z_B)`.
//!
//! Order of application: merges run to a fixpoint first (they can create
//! larger clusters that subsume others), then pairwise deletions, then
//! multi-cover deletions. Clusters are processed largest-span-first for
//! determinism.

use crate::cluster::Tricluster;
use crate::params::MergeParams;
use crate::span;
use tricluster_obs::{emit, names, timeline, Event, EventSink, Histogram};

/// Statistics of one [`merge_and_prune_observed`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Number of pairwise merges performed (rule 3).
    pub merged: usize,
    /// Clusters deleted by the pairwise rule 1.
    pub deleted_pairwise: usize,
    /// Clusters deleted by the multi-cover rule 2.
    pub deleted_multicover: usize,
}

/// Applies the three overlap rules and returns the surviving clusters along
/// with statistics. The input order does not affect the result beyond ties
/// broken by span size.
///
/// Decision counters are published to `sink`, with one trace event per
/// merge/delete decision ("prune.merge", "prune.delete.pairwise",
/// "prune.delete.multicover") carrying the spans and fractions that drove
/// it.
pub fn merge_and_prune_observed(
    clusters: Vec<Tricluster>,
    params: &MergeParams,
    sink: &dyn EventSink,
) -> (Vec<Tricluster>, PruneStats) {
    let mut stats = PruneStats::default();
    let mut clusters = clusters;
    // Distribution of how close compared pairs were to merging; only
    // collected when a sink asks for histograms.
    let mut extra_pct: Option<Histogram> = sink.wants_histograms().then(Histogram::default);

    // --- rule 3: merge to fixpoint ---
    let tl_merge = timeline::span(names::T_PR_MERGE);
    loop {
        let mut merged_any = false;
        'outer: for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let a = &clusters[i];
                let b = &clusters[j];
                let total = span::bounding_size(a, b);
                if total == 0 {
                    continue;
                }
                let extra = span::bounding_extra_size(a, b);
                if let Some(h) = extra_pct.as_mut() {
                    h.record((extra * 100 / total) as u64);
                }
                if (extra as f64) / (total as f64) < params.gamma {
                    emit(sink, || {
                        Event::new("prune.merge")
                            .field("span_a", a.span_size())
                            .field("span_b", b.span_size())
                            .field("bounding", total)
                            .field("extra_frac", extra as f64 / total as f64)
                    });
                    let merged = a.bounding(b);
                    clusters.swap_remove(j);
                    clusters[i] = merged;
                    stats.merged += 1;
                    merged_any = true;
                    break 'outer;
                }
            }
        }
        if !merged_any {
            break;
        }
    }
    // merging may have produced nested clusters; keep only maximal ones
    clusters = keep_maximal(clusters);
    drop(tl_merge);
    let _tl_delete = timeline::span(names::T_PR_DELETE);

    // largest-span-first for deterministic deletion order
    clusters.sort_by(|a, b| {
        b.span_size()
            .cmp(&a.span_size())
            .then_with(|| a.genes.to_vec().cmp(&b.genes.to_vec()))
            .then_with(|| a.samples.cmp(&b.samples))
            .then_with(|| a.times.cmp(&b.times))
    });

    // --- rule 1: pairwise deletion of slivers ---
    let mut alive = vec![true; clusters.len()];
    for i in 0..clusters.len() {
        if !alive[i] {
            continue;
        }
        for j in 0..clusters.len() {
            if i == j || !alive[j] || !alive[i] {
                continue;
            }
            let a = &clusters[i];
            let b = &clusters[j];
            if a.span_size() > b.span_size() {
                let frac = span::difference_size(b, a) as f64 / b.span_size() as f64;
                if frac < params.eta {
                    emit(sink, || {
                        Event::new("prune.delete.pairwise")
                            .field("span_kept", a.span_size())
                            .field("span_deleted", b.span_size())
                            .field("outside_frac", frac)
                    });
                    alive[j] = false;
                    stats.deleted_pairwise += 1;
                }
            }
        }
    }

    // --- rule 2: multi-cover deletion ---
    // Smallest clusters are tested first so that a cluster mostly covered by
    // its peers goes away before it can "cover" others.
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..clusters.len()).filter(|&i| alive[i]).collect();
        idx.sort_by_key(|&i| clusters[i].span_size());
        idx
    };
    for &i in &order {
        if !alive[i] {
            continue;
        }
        let others: Vec<&Tricluster> = (0..clusters.len())
            .filter(|&j| j != i && alive[j])
            .map(|j| &clusters[j])
            .collect();
        if others.is_empty() {
            continue;
        }
        let uncovered = span::uncovered_size(&clusters[i], &others);
        let frac = uncovered as f64 / clusters[i].span_size() as f64;
        if frac < params.eta {
            emit(sink, || {
                Event::new("prune.delete.multicover")
                    .field("span_deleted", clusters[i].span_size())
                    .field("covered_by", others.len())
                    .field("uncovered_frac", frac)
            });
            alive[i] = false;
            stats.deleted_multicover += 1;
        }
    }

    sink.counter(names::PR_MERGED, stats.merged as u64);
    sink.counter(names::PR_DELETED_PAIRWISE, stats.deleted_pairwise as u64);
    sink.counter(
        names::PR_DELETED_MULTICOVER,
        stats.deleted_multicover as u64,
    );
    if let Some(h) = &extra_pct {
        sink.histogram(names::H_PR_BOUNDING_EXTRA_PCT, h);
    }

    let survivors = clusters
        .into_iter()
        .zip(alive)
        .filter_map(|(c, keep)| keep.then_some(c))
        .collect();
    (survivors, stats)
}

fn keep_maximal(clusters: Vec<Tricluster>) -> Vec<Tricluster> {
    let mut out: Vec<Tricluster> = Vec::with_capacity(clusters.len());
    for c in clusters {
        crate::tricluster::insert_maximal_tricluster(&mut out, c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_bitset::BitSet;

    fn mk(g: &[usize], s: &[usize], t: &[usize]) -> Tricluster {
        Tricluster::new(
            BitSet::from_indices(30, g.iter().copied()),
            s.to_vec(),
            t.to_vec(),
        )
    }

    fn eta_gamma(eta: f64, gamma: f64) -> MergeParams {
        MergeParams { eta, gamma }
    }

    fn prune(clusters: Vec<Tricluster>, params: &MergeParams) -> (Vec<Tricluster>, PruneStats) {
        merge_and_prune_observed(clusters, params, &tricluster_obs::NullSink)
    }

    /// Figure 6(a): B barely pokes out of A -> delete B.
    #[test]
    fn rule1_deletes_sliver() {
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0, 1, 2, 3], &[0, 1]);
        // B: 10 of its 12 cells inside A -> |B−A|/|B| = 2/12 ≈ 0.17 < 0.2
        let b = mk(&[0, 1, 2, 3, 4, 10], &[0, 1], &[0]);
        assert_eq!(span::difference_size(&b, &a), 2);
        let (out, stats) = prune(vec![a.clone(), b], &eta_gamma(0.2, 0.0));
        assert_eq!(out, vec![a]);
        assert_eq!(stats.deleted_pairwise, 1);
        assert_eq!(stats.merged, 0);
    }

    #[test]
    fn rule1_keeps_substantial_overlap() {
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0, 1, 2, 3], &[0, 1]);
        let b = mk(&[0, 1, 10, 11], &[0, 1], &[0]); // half outside A
        let (out, stats) = prune(vec![a, b], &eta_gamma(0.2, 0.0));
        assert_eq!(out.len(), 2);
        assert_eq!(stats, PruneStats::default());
    }

    /// Figure 6(b): A mostly covered by several B_i -> delete A.
    #[test]
    fn rule2_deletes_multicovered() {
        // A = 10 genes x 2 samples x 1 time = 20 cells
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0, 1], &[0]);
        // two bigger clusters covering 9 of A's 10 genes (18 of 20 cells),
        // each extended along times so rule 1 doesn't fire first
        let b1 = mk(&[0, 1, 2, 3, 4], &[0, 1], &[0, 1, 2]);
        let b2 = mk(&[5, 6, 7, 8], &[0, 1], &[0, 1, 2]);
        let (out, stats) = prune(
            vec![a.clone(), b1.clone(), b2.clone()],
            &eta_gamma(0.15, 0.0),
        );
        assert_eq!(stats.deleted_multicover, 1, "{out:?}");
        assert!(out.contains(&b1) && out.contains(&b2));
        assert!(!out.contains(&a));
    }

    /// Figure 6(c): two clusters whose bounding box adds few cells merge.
    #[test]
    fn rule3_merges_near_boxes() {
        // A and B differ by one gene; bounding box adds that gene's cells
        // for the samples/times of the other -> small extra fraction.
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 1, 2], &[0, 1]);
        let b = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 9], &[0, 1, 2], &[0, 1]);
        // bounding: 10 genes -> 60 cells; A=54, B=54, inter=48 -> extra=0
        let (out, stats) = prune(vec![a, b], &eta_gamma(0.0, 0.05));
        assert_eq!(stats.merged, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].genes.count(), 10);
    }

    #[test]
    fn rule3_does_not_merge_distant_boxes() {
        let a = mk(&[0, 1], &[0], &[0]);
        let b = mk(&[10, 11], &[5], &[1]);
        let (out, stats) = prune(vec![a, b], &eta_gamma(0.0, 0.3));
        assert_eq!(out.len(), 2);
        assert_eq!(stats.merged, 0);
    }

    #[test]
    fn merge_chains_to_fixpoint() {
        // three near-identical boxes merge into one
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1], &[0]);
        let b = mk(&[0, 1, 2, 3, 4, 5, 6, 8], &[0, 1], &[0]);
        let c = mk(&[0, 1, 2, 3, 4, 5, 6, 9], &[0, 1], &[0]);
        let (out, stats) = prune(vec![a, b, c], &eta_gamma(0.0, 0.25));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(stats.merged, 2);
        assert_eq!(out[0].genes.count(), 10);
    }

    #[test]
    fn zero_thresholds_are_noop() {
        let a = mk(&[0, 1, 2], &[0, 1], &[0]);
        let b = mk(&[0, 1], &[0, 1], &[0, 1]);
        let (out, stats) = prune(vec![a, b], &eta_gamma(0.0, 0.0));
        assert_eq!(out.len(), 2);
        assert_eq!(stats, PruneStats::default());
    }

    #[test]
    fn empty_input() {
        let (out, stats) = prune(Vec::new(), &MergeParams::default());
        assert!(out.is_empty());
        assert_eq!(stats, PruneStats::default());
    }

    #[test]
    fn observed_emits_decision_events() {
        let rec = tricluster_obs::Recorder::new();
        let a = mk(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0, 1, 2, 3], &[0, 1]);
        let b = mk(&[0, 1, 2, 3, 4, 10], &[0, 1], &[0]);
        let (_, stats) = merge_and_prune_observed(vec![a, b], &eta_gamma(0.2, 0.0), &rec);
        assert_eq!(stats.deleted_pairwise, 1);
        let events = rec.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "prune.delete.pairwise");
        let report = rec.snapshot();
        assert_eq!(report.counter("prune.deleted.pairwise"), 1);
        assert_eq!(report.counter("prune.merged"), 0);
    }

    #[test]
    fn merge_pass_records_pair_closeness_histogram() {
        let rec = tricluster_obs::Recorder::new();
        let a = mk(&[0, 1, 2], &[0, 1], &[0]);
        let b = mk(&[10, 11], &[5], &[1]);
        let (_, _) = merge_and_prune_observed(vec![a, b], &eta_gamma(0.0, 0.3), &rec);
        let report = rec.snapshot();
        let h = report
            .histogram(names::H_PR_BOUNDING_EXTRA_PCT)
            .expect("one compared pair");
        assert_eq!(h.count(), 1);
        assert!(h.max() > 50, "distant boxes are mostly extra cells");
    }

    #[test]
    fn identical_twins_merge_or_delete() {
        let a = mk(&[0, 1, 2], &[0, 1], &[0]);
        let (out, _) = prune(vec![a.clone(), a.clone()], &eta_gamma(0.1, 0.1));
        assert_eq!(out, vec![a]);
    }
}
