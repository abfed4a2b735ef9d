//! Cluster types: [`Bicluster`] (one time slice) and [`Tricluster`], and
//! the maximal set both DFS phases and merge/prune record into
//! ([`MaximalStore`]).

use std::collections::BTreeMap;
use tricluster_bitset::BitSet;

/// A maximal bicluster `X × Y` mined from one time slice.
///
/// `genes` is a bitset over the gene universe; `samples` is a sorted list of
/// sample column indices. The time slice the bicluster came from is carried
/// alongside so the tricluster phase can index the right slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bicluster {
    /// Gene set `X`.
    pub genes: BitSet,
    /// Sample set `Y`, sorted ascending.
    pub samples: Vec<usize>,
    /// The time slice this bicluster belongs to.
    pub time: usize,
}

impl Bicluster {
    /// Creates a bicluster, sorting the samples.
    pub fn new(genes: BitSet, mut samples: Vec<usize>, time: usize) -> Self {
        samples.sort_unstable();
        samples.dedup();
        Bicluster {
            genes,
            samples,
            time,
        }
    }

    /// `(|X|, |Y|)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.genes.count(), self.samples.len())
    }

    /// Number of cells `|X| · |Y|`.
    pub fn span_size(&self) -> usize {
        self.genes.count() * self.samples.len()
    }

    /// `true` iff `self ⊆ other` (gene-set and sample-set containment,
    /// same time slice).
    pub fn is_subcluster_of(&self, other: &Bicluster) -> bool {
        self.time == other.time
            && self.genes.is_subset(&other.genes)
            && is_sorted_subset(&self.samples, &other.samples)
    }
}

impl std::fmt::Display for Bicluster {
    /// Compact form: `{g1,g4,g8} x {s0,s1} @ t0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.genes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "g{g}")?;
        }
        write!(f, "}} x {{")?;
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "s{s}")?;
        }
        write!(f, "}} @ t{}", self.time)
    }
}

/// A maximal tricluster `X × Y × Z`.
///
/// `genes` is a bitset over the gene universe; `samples` and `times` are
/// sorted index lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tricluster {
    /// Gene set `X`.
    pub genes: BitSet,
    /// Sample set `Y`, sorted ascending.
    pub samples: Vec<usize>,
    /// Time set `Z`, sorted ascending.
    pub times: Vec<usize>,
}

impl Tricluster {
    /// Creates a tricluster, sorting samples and times.
    pub fn new(genes: BitSet, mut samples: Vec<usize>, mut times: Vec<usize>) -> Self {
        samples.sort_unstable();
        samples.dedup();
        times.sort_unstable();
        times.dedup();
        Tricluster {
            genes,
            samples,
            times,
        }
    }

    /// `(|X|, |Y|, |Z|)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.genes.count(), self.samples.len(), self.times.len())
    }

    /// Number of cells `|X| · |Y| · |Z|` (the paper's span size `|L_C|`).
    pub fn span_size(&self) -> usize {
        self.genes.count() * self.samples.len() * self.times.len()
    }

    /// `true` iff the cell `(g, s, t)` lies in the cluster.
    pub fn contains_cell(&self, g: usize, s: usize, t: usize) -> bool {
        self.genes.contains(g)
            && self.samples.binary_search(&s).is_ok()
            && self.times.binary_search(&t).is_ok()
    }

    /// `true` iff `self ⊆ other` per the paper's definition
    /// (`X ⊆ X'`, `Y ⊆ Y'`, `Z ⊆ Z'`).
    pub fn is_subcluster_of(&self, other: &Tricluster) -> bool {
        self.genes.is_subset(&other.genes)
            && is_sorted_subset(&self.samples, &other.samples)
            && is_sorted_subset(&self.times, &other.times)
    }

    /// Iterates over all `(gene, sample, time)` cells of the cluster.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.genes.iter().flat_map(move |g| {
            self.samples
                .iter()
                .flat_map(move |&s| self.times.iter().map(move |&t| (g, s, t)))
        })
    }

    /// The bounding cluster `(X∪X') × (Y∪Y') × (Z∪Z')` (the paper's `A + B`).
    pub fn bounding(&self, other: &Tricluster) -> Tricluster {
        let genes = self.genes.union(&other.genes);
        let samples = sorted_union(&self.samples, &other.samples);
        let times = sorted_union(&self.times, &other.times);
        Tricluster {
            genes,
            samples,
            times,
        }
    }

    /// Per-dimension intersection sizes `(|X∩X'|, |Y∩Y'|, |Z∩Z'|)`.
    pub fn intersection_shape(&self, other: &Tricluster) -> (usize, usize, usize) {
        (
            self.genes.intersection_count(&other.genes),
            sorted_intersection_count(&self.samples, &other.samples),
            sorted_intersection_count(&self.times, &other.times),
        )
    }
}

impl std::fmt::Display for Tricluster {
    /// Compact form: `{g1,g4,g8} x {s0,s1} x {t0,t1}`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.genes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "g{g}")?;
        }
        write!(f, "}} x {{")?;
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "s{s}")?;
        }
        write!(f, "}} x {{")?;
        for (i, t) in self.times.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "t{t}")?;
        }
        write!(f, "}}")
    }
}

/// A cluster that can live in a maximal set: containment, plus a size key
/// that containment cannot shrink.
pub trait Cluster {
    /// Sizes such that `a ⊆ b` implies both coordinates of `a`'s key are
    /// at most those of `b`'s.
    fn size_key(&self) -> (usize, usize);

    /// `true` iff `self ⊆ other`.
    fn is_subcluster_of(&self, other: &Self) -> bool;
}

impl Cluster for Bicluster {
    /// `(|X|, |Y|)`.
    fn size_key(&self) -> (usize, usize) {
        self.shape()
    }

    fn is_subcluster_of(&self, other: &Self) -> bool {
        Bicluster::is_subcluster_of(self, other)
    }
}

impl Cluster for Tricluster {
    /// `(|X|, |Y| · |Z|)`.
    fn size_key(&self) -> (usize, usize) {
        (self.genes.count(), self.samples.len() * self.times.len())
    }

    fn is_subcluster_of(&self, other: &Self) -> bool {
        Tricluster::is_subcluster_of(self, other)
    }
}

/// What inserting a candidate into a maximal set did with it.
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

/// Inserts `candidate` into `results` keeping only maximal clusters:
/// skipped when contained in an existing cluster; existing clusters
/// contained in it are removed.
///
/// This is the O(results) reference implementation; the miner records
/// through [`MaximalStore`], which indexes clusters by size key.
pub fn insert_maximal<C: Cluster>(results: &mut Vec<C>, candidate: C) -> InsertOutcome {
    if results.iter().any(|c| candidate.is_subcluster_of(c)) {
        return InsertOutcome::Subsumed;
    }
    let before = results.len();
    results.retain(|c| !c.is_subcluster_of(&candidate));
    let displaced = before - results.len();
    results.push(candidate);
    InsertOutcome::Inserted { displaced }
}

/// A set of mutually non-contained clusters with a size-bucketed index.
///
/// Clusters are bucketed by [`Cluster::size_key`]: a candidate can only be
/// subsumed by buckets ≥ in both coordinates and can only displace buckets
/// ≤ in both. Instead of the reference implementation's O(results) scan
/// per insert, only those buckets are probed — near-constant for the
/// size-diverse sets the miner produces.
///
/// Insertion order is preserved: [`MaximalStore::into_vec`] yields
/// survivors exactly as [`insert_maximal`] would have left them in a plain
/// vector (displaced entries removed in place, survivors in first-insert
/// order).
#[derive(Debug, Clone)]
pub struct MaximalStore<C> {
    /// Insert-ordered slots; displaced clusters become `None`.
    slots: Vec<Option<C>>,
    /// Size key -> indices of live slots with that key.
    buckets: BTreeMap<(usize, usize), Vec<usize>>,
}

impl<C> Default for MaximalStore<C> {
    fn default() -> Self {
        MaximalStore {
            slots: Vec::new(),
            buckets: BTreeMap::new(),
        }
    }
}

impl<C: Cluster> MaximalStore<C> {
    /// Inserts `candidate` keeping only maximal clusters; same contract and
    /// outcome reporting as [`insert_maximal`].
    pub fn insert(&mut self, candidate: C) -> InsertOutcome {
        let key = candidate.size_key();
        // Subsumption: only clusters at least as large in both coordinates
        // can contain the candidate. (The equal-key bucket is probed here
        // first, so an exact duplicate reports Subsumed, like the reference.)
        for (&(_, k1), idxs) in self.buckets.range((key.0, 0)..) {
            if k1 < key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if candidate.is_subcluster_of(c) {
                    return InsertOutcome::Subsumed;
                }
            }
        }
        // Displacement: only clusters at most as large in both coordinates
        // can be contained in the candidate.
        let mut doomed: Vec<(usize, (usize, usize))> = Vec::new();
        for (&bkey, idxs) in self.buckets.range(..=key) {
            if bkey.1 > key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if c.is_subcluster_of(&candidate) {
                    doomed.push((i, bkey));
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
        InsertOutcome::Inserted { displaced }
    }

    /// Consumes the store, yielding survivors in insertion order.
    pub fn into_vec(self) -> Vec<C> {
        self.slots.into_iter().flatten().collect()
    }
}

/// `true` iff sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_sorted_subset(a: &[usize], b: &[usize]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Size of the intersection of two sorted slices.
pub(crate) fn sorted_intersection_count(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Union of two sorted slices, sorted and deduplicated.
pub(crate) fn sorted_union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Intersection of two sorted slices.
pub(crate) fn sorted_intersection(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genes(n: usize, which: &[usize]) -> BitSet {
        BitSet::from_indices(n, which.iter().copied())
    }

    #[test]
    fn bicluster_new_sorts_and_dedups() {
        let b = Bicluster::new(genes(5, &[0, 1]), vec![3, 1, 3], 0);
        assert_eq!(b.samples, vec![1, 3]);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.span_size(), 4);
    }

    #[test]
    fn bicluster_subset_requires_same_time() {
        let small = Bicluster::new(genes(5, &[1]), vec![2], 0);
        let big = Bicluster::new(genes(5, &[1, 2]), vec![2, 3], 0);
        let big_t1 = Bicluster::new(genes(5, &[1, 2]), vec![2, 3], 1);
        assert!(small.is_subcluster_of(&big));
        assert!(!big.is_subcluster_of(&small));
        assert!(!small.is_subcluster_of(&big_t1));
        assert!(small.is_subcluster_of(&small), "reflexive");
    }

    #[test]
    fn tricluster_shape_and_span() {
        let c = Tricluster::new(genes(10, &[0, 2, 4]), vec![1, 3], vec![0, 1]);
        assert_eq!(c.shape(), (3, 2, 2));
        assert_eq!(c.span_size(), 12);
        assert_eq!(c.cells().count(), 12);
    }

    #[test]
    fn tricluster_contains_cell() {
        let c = Tricluster::new(genes(10, &[0, 2]), vec![1], vec![5]);
        assert!(c.contains_cell(0, 1, 5));
        assert!(c.contains_cell(2, 1, 5));
        assert!(!c.contains_cell(1, 1, 5));
        assert!(!c.contains_cell(0, 2, 5));
        assert!(!c.contains_cell(0, 1, 4));
    }

    #[test]
    fn tricluster_subset() {
        let sub = Tricluster::new(genes(10, &[1, 2]), vec![0], vec![0, 1]);
        let sup = Tricluster::new(genes(10, &[1, 2, 3]), vec![0, 5], vec![0, 1, 2]);
        assert!(sub.is_subcluster_of(&sup));
        assert!(!sup.is_subcluster_of(&sub));
        let disjoint = Tricluster::new(genes(10, &[9]), vec![0], vec![0]);
        assert!(!disjoint.is_subcluster_of(&sup));
    }

    #[test]
    fn bounding_cluster_unions_each_dim() {
        let a = Tricluster::new(genes(10, &[1, 2]), vec![0, 1], vec![0]);
        let b = Tricluster::new(genes(10, &[2, 3]), vec![1, 2], vec![1]);
        let ab = a.bounding(&b);
        assert_eq!(ab.genes.to_vec(), vec![1, 2, 3]);
        assert_eq!(ab.samples, vec![0, 1, 2]);
        assert_eq!(ab.times, vec![0, 1]);
    }

    #[test]
    fn intersection_shape() {
        let a = Tricluster::new(genes(10, &[1, 2, 3]), vec![0, 1], vec![0, 2]);
        let b = Tricluster::new(genes(10, &[2, 3, 4]), vec![1, 5], vec![2]);
        assert_eq!(a.intersection_shape(&b), (2, 1, 1));
    }

    #[test]
    fn sorted_helpers() {
        assert!(is_sorted_subset(&[], &[1, 2]));
        assert!(is_sorted_subset(&[2], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[0], &[1, 2]));
        assert!(!is_sorted_subset(&[1, 4], &[1, 2, 3]));
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(sorted_union(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(sorted_intersection(&[1, 3, 5], &[3, 4, 5]), vec![3, 5]);
    }

    #[test]
    fn display_forms() {
        let b = Bicluster::new(genes(10, &[1, 4, 8]), vec![0, 1], 3);
        assert_eq!(b.to_string(), "{g1,g4,g8} x {s0,s1} @ t3");
        let c = Tricluster::new(genes(10, &[0, 9]), vec![2], vec![0, 1]);
        assert_eq!(c.to_string(), "{g0,g9} x {s2} x {t0,t1}");
    }

    #[test]
    fn cells_enumerates_cartesian_product() {
        let c = Tricluster::new(genes(5, &[0, 1]), vec![2], vec![0, 3]);
        let cells: Vec<_> = c.cells().collect();
        assert_eq!(cells, vec![(0, 2, 0), (0, 2, 3), (1, 2, 0), (1, 2, 3)]);
    }

    fn bi(g: &[usize], s: &[usize]) -> Bicluster {
        Bicluster::new(genes(10, g), s.to_vec(), 0)
    }

    fn tri(g: &[usize], s: &[usize], t: &[usize]) -> Tricluster {
        Tricluster::new(genes(10, g), s.to_vec(), t.to_vec())
    }

    #[test]
    fn insert_maximal_drops_subsumed() {
        let mut v = Vec::new();
        insert_maximal(&mut v, bi(&[1, 2], &[0, 1]));
        insert_maximal(&mut v, bi(&[1, 2, 3], &[0, 1])); // subsumes
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].genes.to_vec(), vec![1, 2, 3]);
        insert_maximal(&mut v, bi(&[1, 2], &[0])); // subsumed
        assert_eq!(v.len(), 1);
        insert_maximal(&mut v, bi(&[4, 5], &[2, 3])); // unrelated
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn insert_maximal_reports_outcomes() {
        let mut v = Vec::new();
        assert_eq!(
            insert_maximal(&mut v, bi(&[1, 2], &[0, 1])),
            InsertOutcome::Inserted { displaced: 0 }
        );
        assert_eq!(
            insert_maximal(&mut v, bi(&[1, 2, 3], &[0, 1])),
            InsertOutcome::Inserted { displaced: 1 }
        );
        assert_eq!(
            insert_maximal(&mut v, bi(&[1, 2], &[0])),
            InsertOutcome::Subsumed
        );
    }

    #[test]
    fn insert_maximal_tricluster_behaviour() {
        let mut v = Vec::new();
        insert_maximal(&mut v, tri(&[1, 2], &[0], &[0]));
        insert_maximal(&mut v, tri(&[1, 2], &[0], &[0, 1]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].times, vec![0, 1]);
        insert_maximal(&mut v, tri(&[1], &[0], &[1]));
        assert_eq!(v.len(), 1, "subsumed candidate rejected");
        insert_maximal(&mut v, tri(&[3], &[1], &[0]));
        assert_eq!(v.len(), 2);
    }

    /// Feeds a [`MaximalStore`] and the reference the same candidates and
    /// checks that every outcome and the survivors after every insert, in
    /// order, agree; the stream must exercise both subsumption and
    /// displacement.
    fn store_matches_reference<C: Cluster + Clone + PartialEq + std::fmt::Debug>(stream: Vec<C>) {
        let mut reference: Vec<C> = Vec::new();
        let mut store = MaximalStore::default();
        let (mut subsumed, mut displaced) = (0, 0);
        for cand in stream {
            let want = insert_maximal(&mut reference, cand.clone());
            let got = store.insert(cand);
            assert_eq!(got, want);
            assert_eq!(store.clone().into_vec(), reference, "survivor order");
            match got {
                InsertOutcome::Subsumed => subsumed += 1,
                InsertOutcome::Inserted { displaced: d } => displaced += d,
            }
        }
        assert!(subsumed > 0 && displaced > 0, "{subsumed} / {displaced}");
    }

    #[test]
    fn maximal_store_matches_reference_implementation() {
        let mut state = 0x9e3779b97f4a7c15u64; // deterministic xorshift
        let mut subset = move |n: usize| -> Vec<usize> {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (0..n).filter(|i| state >> i & 1 == 1).collect()
        };
        let (mut bis, mut tris) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            let (g, s, t) = (subset(12), subset(6), subset(4));
            if g.is_empty() || s.is_empty() || t.is_empty() {
                continue;
            }
            bis.push(Bicluster::new(genes(12, &g), s.clone(), 0));
            tris.push(Tricluster::new(genes(12, &g), s, t));
        }
        store_matches_reference(bis);
        store_matches_reference(tris);
    }
}
