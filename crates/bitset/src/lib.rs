//! Fixed-capacity bitset with fast set algebra.
//!
//! Gene-sets are the hot data structure in TriCluster mining: every candidate
//! extension intersects the gene-sets attached to range-multigraph edges with
//! the current candidate's gene-set. This crate provides [`BitSet`], a
//! `u64`-block bitset tuned for that workload:
//!
//! * in-place and allocating `and` / `or` / `subtract` / `xor`,
//! * popcount-based cardinality and *bounded* intersection counting
//!   (`intersection_count_at_least` short-circuits as soon as the `mx`
//!   threshold is reached, the common case in the miner),
//! * subset / superset / disjointness tests,
//! * iteration over set bits in ascending order.
//!
//! # The range-test kernel
//!
//! The miner's hottest call is the bounded test
//! [`BitSet::intersection_count_at_least_hinted`]. It has two paths with
//! the same answer. The block scan ANDs four `u64` lanes at a time and
//! popcounts them; x86_64 builds target `x86-64-v2` (the workspace's
//! `.cargo/config.toml`), so each `count_ones` is one `popcnt`
//! instruction, not a software bit-twiddle. The sparse walk probes `self`'s
//! elements in `other` and can fail after `self_count − threshold + 1`
//! misses. The walk runs only when those misses cost no more than the scan:
//! `(self_count − threshold + 1) · K ≤ blocks`, with `K` =
//! [`SPARSE_STEP_BLOCKS`] as measured by `bench kernel`.
//!
//! The universe size is fixed at construction; all binary operations require
//! both operands to share a universe (checked with `debug_assert!` in release
//! hot paths and a hard assert in the allocating constructors).
//!
//! # Example
//!
//! ```
//! use tricluster_bitset::BitSet;
//!
//! let mut a = BitSet::from_indices(10, [1, 3, 4, 8]);
//! let b = BitSet::from_indices(10, [3, 4, 9]);
//! a.intersect_with(&b);
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 4]);
//! assert!(a.is_subset(&b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod iter;
mod pool;

pub use iter::Ones;
pub use pool::BitSetPool;

const BITS: usize = 64;

/// Block width of the unrolled set-algebra kernels. Four independent `u64`
/// lanes per iteration give the autovectorizer a fixed-shape inner loop
/// (two 128-bit or one 256-bit op per AND/OR) while keeping the early-exit
/// checks of the bounded kernels at chunk granularity.
const LANES: usize = 4;

/// `K` in the crossover rule of [`BitSet::intersection_count_at_least_hinted`]:
/// the cost of one step of the sparse walk (find the next element, probe
/// it in the other set), in blocks of the hardware-popcount block scan.
/// `bench kernel`'s crossover grid measures it as the `K` whose rule loses
/// the least time over failing tests at 8 to 313 blocks; it read 10 on a
/// 2-vCPU x86-64 host. The walk is a serial loop with a data-dependent
/// branch per probe; the scan is branch-free within a chunk and works on
/// four lanes at once. See DESIGN.md.
pub const SPARSE_STEP_BLOCKS: usize = 10;

/// A fixed-capacity set of `usize` indices backed by `u64` blocks.
///
/// See the [crate-level documentation](crate) for the design rationale.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    /// Number of addressable bits (the universe size), not the population.
    nbits: usize,
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[inline]
fn block_count(nbits: usize) -> usize {
    nbits.div_ceil(BITS)
}

impl BitSet {
    /// Creates an empty set over a universe of `nbits` indices `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            blocks: vec![0; block_count(nbits)],
            nbits,
        }
    }

    /// Creates a set containing every index in `0..nbits`.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet::new(nbits);
        for b in &mut s.blocks {
            *b = !0;
        }
        s.clear_excess();
        s
    }

    /// Creates a set over `0..nbits` containing the given indices.
    ///
    /// # Panics
    /// Panics if any index is `>= nbits`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, indices: I) -> Self {
        let mut s = BitSet::new(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Creates a set over `0..nbits` from indices that are all known to be
    /// in range — the contract of a range finder handing over one contiguous
    /// window of its sorted ratio array. Skips the per-bit bounds assertion
    /// (and its formatting machinery) that [`BitSet::insert`] pays, setting
    /// each bit with two shifts and an OR.
    ///
    /// Out-of-range indices are a caller bug and panic in every build:
    /// debug builds at the offending index, release builds on the block
    /// access or, for an index that lands in the last block's unused bits,
    /// once all indices are set.
    pub fn from_sorted_range_indices<I: IntoIterator<Item = usize>>(
        nbits: usize,
        indices: I,
    ) -> Self {
        let mut s = BitSet::new(nbits);
        s.set_bits_unchecked(indices);
        s
    }

    /// Sets every index yielded by `indices` in a set whose bits above
    /// `nbits` are clear; all must be `< capacity`. Debug builds check each
    /// index. Release builds panic on the block bound, and one check after
    /// the loop catches an index in `[nbits, 64·blocks)`, which would
    /// otherwise set a bit outside the universe that every popcount and
    /// `==` then counts.
    #[inline]
    pub(crate) fn set_bits_unchecked<I: IntoIterator<Item = usize>>(&mut self, indices: I) {
        for i in indices {
            debug_assert!(
                i < self.nbits,
                "index {i} out of bounds for BitSet of capacity {}",
                self.nbits
            );
            self.blocks[i / BITS] |= 1u64 << (i % BITS);
        }
        let used = self.nbits % BITS;
        if used != 0 {
            assert!(
                self.blocks[self.blocks.len() - 1] >> used == 0,
                "index out of bounds for BitSet of capacity {}",
                self.nbits
            );
        }
    }

    /// Crate-internal: assembles a set directly from block storage. The
    /// blocks must already be exactly `block_count(nbits)` long and hold no
    /// bits above `nbits` — [`BitSetPool::alloc`] guarantees both by
    /// clearing and zero-resizing the buffer it reuses.
    #[inline]
    pub(crate) fn from_raw_parts(blocks: Vec<u64>, nbits: usize) -> Self {
        debug_assert_eq!(blocks.len(), block_count(nbits));
        debug_assert!(blocks.iter().all(|&b| b == 0), "pool buffers start empty");
        BitSet { blocks, nbits }
    }

    /// Crate-internal: surrenders the block storage for pooling.
    #[inline]
    pub(crate) fn into_raw_blocks(self) -> Vec<u64> {
        self.blocks
    }

    /// Zeroes the bits above `nbits` in the last block so that popcounts and
    /// equality remain exact after a whole-block operation such as `full` or
    /// `complement`.
    fn clear_excess(&mut self) {
        let used = self.nbits % BITS;
        if used != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// The universe size (number of addressable indices), **not** the number
    /// of elements; for that see [`BitSet::count`].
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Inserts `index` into the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.nbits,
            "index {index} out of bounds for BitSet of capacity {}",
            self.nbits
        );
        let block = &mut self.blocks[index / BITS];
        let mask = 1u64 << (index % BITS);
        let was_absent = *block & mask == 0;
        *block |= mask;
        was_absent
    }

    /// Removes `index` from the set. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        if index >= self.nbits {
            return false;
        }
        let block = &mut self.blocks[index / BITS];
        let mask = 1u64 << (index % BITS);
        let was_present = *block & mask != 0;
        *block &= !mask;
        was_present
    }

    /// Tests whether `index` is in the set. Out-of-universe indices are never
    /// members.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.nbits {
            return false;
        }
        self.blocks[index / BITS] & (1u64 << (index % BITS)) != 0
    }

    /// Number of elements in the set (population count).
    #[inline]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` iff the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements, keeping the universe size.
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Flips the membership of every index in the universe.
    pub fn complement_in_place(&mut self) {
        for b in &mut self.blocks {
            *b = !*b;
        }
        self.clear_excess();
    }

    #[inline]
    fn check_same_universe(&self, other: &BitSet) {
        debug_assert_eq!(
            self.nbits, other.nbits,
            "BitSet universe mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// In-place intersection: `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= *b;
        }
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= *b;
        }
    }

    /// In-place difference: `self −= other`.
    #[inline]
    pub fn subtract_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !*b;
        }
    }

    /// In-place symmetric difference: `self ⊕= other`.
    #[inline]
    pub fn symmetric_difference_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a ^= *b;
        }
    }

    /// Overwrites `self` with `a ∩ b` and returns the cardinality of the
    /// result, computed in the same pass over the blocks.
    ///
    /// `self` adopts `a`'s universe; its previous contents (and universe) are
    /// discarded, but its block allocation is reused when large enough. This
    /// is the miner's scratch-buffer intersection: a DFS that keeps one
    /// `BitSet` per depth level can intersect into it repeatedly without
    /// allocating per extension.
    #[inline]
    pub fn intersect_into(&mut self, a: &BitSet, b: &BitSet) -> usize {
        a.check_same_universe(b);
        self.nbits = a.nbits;
        self.blocks.clear();
        self.blocks.resize(a.blocks.len(), 0);
        let mut acc = [0usize; LANES];
        let mut dst = self.blocks.chunks_exact_mut(LANES);
        let mut sa = a.blocks.chunks_exact(LANES);
        let mut sb = b.blocks.chunks_exact(LANES);
        for ((d, x), y) in (&mut dst).zip(&mut sa).zip(&mut sb) {
            for l in 0..LANES {
                let v = x[l] & y[l];
                acc[l] += v.count_ones() as usize;
                d[l] = v;
            }
        }
        let tail = dst
            .into_remainder()
            .iter_mut()
            .zip(sa.remainder())
            .zip(sb.remainder());
        for ((d, x), y) in tail {
            let v = x & y;
            acc[0] += v.count_ones() as usize;
            *d = v;
        }
        acc.iter().sum()
    }

    /// Overwrites `self` with a copy of `other`, reusing `self`'s block
    /// allocation, so a scratch slot that already held a set of the same
    /// universe takes the copy without allocating (`clone` always
    /// allocates). Like the in-place operations, it requires both sets to
    /// share a universe (checked in debug builds).
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        self.nbits = other.nbits;
        self.blocks.clone_from(&other.blocks);
    }

    /// Allocating intersection.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Allocating union.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Allocating difference (`self − other`).
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.subtract_with(other);
        out
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.check_same_universe(other);
        let mut acc = [0usize; LANES];
        let mut ca = self.blocks.chunks_exact(LANES);
        let mut cb = other.blocks.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                acc[l] += (x[l] & y[l]).count_ones() as usize;
            }
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc[0] += (x & y).count_ones() as usize;
        }
        acc.iter().sum()
    }

    /// Returns `true` as soon as `|self ∩ other| >= threshold`, scanning as
    /// few blocks as possible. This is the miner's admission test
    /// (`|G(R) ∩ C.X| ≥ mx`), which usually succeeds early or fails with a
    /// near-empty intersection; either way most blocks are skipped. The
    /// early exit runs at `LANES`-chunk granularity: cheap enough to keep
    /// the loop body vectorizable, fine enough that a hit in the first
    /// blocks still skips the rest of the scan.
    #[inline]
    pub fn intersection_count_at_least(&self, other: &BitSet, threshold: usize) -> bool {
        self.check_same_universe(other);
        if threshold == 0 {
            return true;
        }
        let mut seen = 0usize;
        let mut ca = self.blocks.chunks_exact(LANES);
        let mut cb = other.blocks.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            let mut chunk = 0u32;
            for l in 0..LANES {
                chunk += (x[l] & y[l]).count_ones();
            }
            seen += chunk as usize;
            if seen >= threshold {
                return true;
            }
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            seen += (x & y).count_ones() as usize;
            if seen >= threshold {
                return true;
            }
        }
        false
    }

    /// Like [`BitSet::intersection_count_at_least`], but with the caller
    /// providing `self`'s population count, which lets the test pick the
    /// cheaper of two paths with the same answer:
    ///
    /// * the **sparse walk** ([`BitSet::intersection_count_at_least_sparse`])
    ///   membership-tests `self`'s elements in `other`. It fails at the
    ///   `self_count − threshold + 1`-th miss, so that many steps bound a
    ///   failing walk;
    /// * the **block scan** ([`BitSet::intersection_count_at_least`]) reads
    ///   every block of a failing test.
    ///
    /// The walk runs when `(self_count − threshold + 1) · K ≤ blocks`, where
    /// `K` = [`SPARSE_STEP_BLOCKS`] is one walk step's cost in block-scan
    /// units.
    #[inline]
    pub fn intersection_count_at_least_hinted(
        &self,
        other: &BitSet,
        threshold: usize,
        self_count: usize,
    ) -> bool {
        // Check the universes before any early return — previously a
        // zero-threshold or too-small-hint call skipped the check entirely
        // and a mismatched `other` fell through to the sparse path, where
        // `contains` silently treats out-of-universe indices as absent.
        self.check_same_universe(other);
        debug_assert_eq!(self_count, self.count(), "stale population hint");
        if threshold == 0 {
            return true;
        }
        if self_count < threshold {
            return false;
        }
        if (self_count - threshold + 1) * SPARSE_STEP_BLOCKS <= self.blocks.len() {
            self.intersection_count_at_least_sparse(other, threshold, self_count)
        } else {
            self.intersection_count_at_least(other, threshold)
        }
    }

    /// The sparse path of [`BitSet::intersection_count_at_least_hinted`]:
    /// walks `self`'s elements in ascending order and tests each in
    /// `other`, succeeding at the `threshold`-th hit and failing once more
    /// than `self_count − threshold` elements have missed. `self_count` must
    /// be `self`'s population count. Public so benchmarks can time it
    /// against the block scan at any point; the miner calls the hinted
    /// test.
    #[inline]
    pub fn intersection_count_at_least_sparse(
        &self,
        other: &BitSet,
        threshold: usize,
        self_count: usize,
    ) -> bool {
        self.check_same_universe(other);
        debug_assert_eq!(self_count, self.count(), "stale population hint");
        if threshold == 0 {
            return true;
        }
        let Some(mut misses_left) = self_count.checked_sub(threshold) else {
            return false;
        };
        let mut seen = 0usize;
        for i in self.iter() {
            if other.blocks[i / BITS] & (1u64 << (i % BITS)) != 0 {
                seen += 1;
                if seen == threshold {
                    return true;
                }
            } else if misses_left == 0 {
                return false;
            } else {
                misses_left -= 1;
            }
        }
        false
    }

    /// `true` iff every element of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff every element of `other` is in `self`.
    #[inline]
    pub fn is_superset(&self, other: &BitSet) -> bool {
        other.is_subset(self)
    }

    /// `true` iff the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// Smallest element, or `None` if empty.
    pub fn min(&self) -> Option<usize> {
        for (i, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(i * BITS + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Largest element, or `None` if empty.
    pub fn max(&self) -> Option<usize> {
        for (i, &b) in self.blocks.iter().enumerate().rev() {
            if b != 0 {
                return Some(i * BITS + (BITS - 1 - b.leading_zeros() as usize));
            }
        }
        None
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        Ones::new(&self.blocks)
    }

    /// Collects the elements into a `Vec<usize>` in ascending order.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Access to the raw blocks (for hashing / tests).
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Retains only the elements for which `f` returns `true`.
    pub fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        let doomed: Vec<usize> = self.iter().filter(|&i| !f(i)).collect();
        for i in doomed {
            self.remove(i);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose universe is `max + 1` of the yielded indices
    /// (or 0 when the iterator is empty). Prefer [`BitSet::from_indices`]
    /// when the universe is known.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let nbits = items.iter().copied().max().map_or(0, |m| m + 1);
        BitSet::from_indices(nbits, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.capacity(), 100);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.count(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(1000), "out of universe is never a member");
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(5000));
        assert_eq!(s.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn full_and_complement() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.complement_in_place();
        assert!(s.is_empty());
        s.complement_in_place();
        assert_eq!(s.count(), 70);
    }

    #[test]
    fn full_zero_capacity() {
        let s = BitSet::full(0);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(200, [1, 2, 3, 100, 150]);
        let b = BitSet::from_indices(200, [2, 3, 4, 150, 199]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3, 150]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 100, 150, 199]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 100]);
        let mut x = a.clone();
        x.symmetric_difference_with(&b);
        assert_eq!(x.to_vec(), vec![1, 4, 100, 199]);
    }

    #[test]
    fn intersection_count_matches_intersection() {
        let a = BitSet::from_indices(300, (0..300).step_by(3));
        let b = BitSet::from_indices(300, (0..300).step_by(5));
        assert_eq!(a.intersection_count(&b), a.intersection(&b).count());
    }

    #[test]
    fn intersection_count_at_least_threshold_edges() {
        let a = BitSet::from_indices(100, [1, 2, 3]);
        let b = BitSet::from_indices(100, [2, 3, 4]);
        assert!(a.intersection_count_at_least(&b, 0));
        assert!(a.intersection_count_at_least(&b, 1));
        assert!(a.intersection_count_at_least(&b, 2));
        assert!(!a.intersection_count_at_least(&b, 3));
    }

    #[test]
    fn intersect_into_matches_intersection_and_reuses_buffer() {
        let a = BitSet::from_indices(300, (0..300).step_by(3));
        let b = BitSet::from_indices(300, (0..300).step_by(5));
        let mut scratch = BitSet::new(0);
        let n = scratch.intersect_into(&a, &b);
        assert_eq!(scratch, a.intersection(&b));
        assert_eq!(n, scratch.count());
        assert_eq!(scratch.capacity(), 300);
        // Reuse with a different (smaller) universe: contents fully replaced.
        let c = BitSet::from_indices(64, [0, 1, 2]);
        let d = BitSet::from_indices(64, [2, 3]);
        let n2 = scratch.intersect_into(&c, &d);
        assert_eq!(n2, 1);
        assert_eq!(scratch.to_vec(), vec![2]);
        assert_eq!(scratch.capacity(), 64);
    }

    #[test]
    fn intersect_into_empty_universe() {
        let a = BitSet::new(0);
        let b = BitSet::new(0);
        let mut scratch = BitSet::from_indices(10, [3]);
        assert_eq!(scratch.intersect_into(&a, &b), 0);
        assert!(scratch.is_empty());
        assert_eq!(scratch.capacity(), 0);
    }

    #[test]
    fn copy_from_equals_source_and_keeps_storage() {
        let src = BitSet::from_indices(300, scatter(300, 9));
        let mut dst = BitSet::from_indices(300, [0, 299]);
        let storage = dst.as_blocks().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.count(), src.count());
        assert_eq!(dst.as_blocks().as_ptr(), storage, "reallocated");
        // An emptied slot of the same universe still has the capacity.
        dst.clear();
        dst.copy_from(&BitSet::full(300));
        assert_eq!(dst, BitSet::full(300));
        assert_eq!(dst.as_blocks().as_ptr(), storage, "reallocated");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "universe mismatch")]
    fn copy_from_checks_the_universe() {
        BitSet::new(64).copy_from(&BitSet::new(65));
    }

    #[test]
    fn subset_superset_disjoint() {
        let a = BitSet::from_indices(80, [10, 20]);
        let b = BitSet::from_indices(80, [10, 20, 30]);
        let c = BitSet::from_indices(80, [40]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.is_superset(&a));
        assert!(a.is_subset(&a), "subset is reflexive");
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn min_max() {
        let s = BitSet::from_indices(500, [77, 200, 499]);
        assert_eq!(s.min(), Some(77));
        assert_eq!(s.max(), Some(499));
        assert_eq!(BitSet::new(10).min(), None);
        assert_eq!(BitSet::new(10).max(), None);
    }

    #[test]
    fn iter_ascending_across_blocks() {
        let v = vec![0, 1, 63, 64, 65, 127, 128, 191];
        let s = BitSet::from_indices(192, v.clone());
        assert_eq!(s.to_vec(), v);
    }

    #[test]
    fn retain_keeps_matching() {
        let mut s = BitSet::from_indices(50, 0..50);
        s.retain(|i| i % 7 == 0);
        assert_eq!(s.to_vec(), vec![0, 7, 14, 21, 28, 35, 42, 49]);
    }

    #[test]
    fn from_iterator_infers_universe() {
        let s: BitSet = vec![3usize, 9, 4].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![3, 4, 9]);
        let empty: BitSet = std::iter::empty().collect();
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn debug_format_lists_elements() {
        let s = BitSet::from_indices(10, [1, 5]);
        assert_eq!(format!("{s:?}"), "{1, 5}");
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::from_indices(66, [0, 65]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 66);
    }

    /// Deterministic scatter of indices for the capacity-sweep tests: a
    /// multiplicative hash keeps bits in every block, including a partially
    /// used trailing block.
    fn scatter(nbits: usize, salt: usize) -> Vec<usize> {
        (0..nbits)
            .filter(|i| (i.wrapping_mul(2654435761) ^ salt).is_multiple_of(3))
            .collect()
    }

    /// Capacities chosen to exercise every shape the chunked kernels see:
    /// zero blocks, a single partial block, exactly one chunk (4×64), a
    /// chunk plus partial remainder blocks, and multi-chunk with a
    /// non-multiple-of-64 trailing block.
    const CAPS: [usize; 10] = [0, 1, 63, 64, 65, 255, 256, 257, 300, 777];

    #[test]
    fn chunked_intersection_count_matches_naive_all_capacities() {
        for nbits in CAPS {
            let a = BitSet::from_indices(nbits, scatter(nbits, 0));
            let b = BitSet::from_indices(nbits, scatter(nbits, 1));
            let naive = a.iter().filter(|&i| b.contains(i)).count();
            assert_eq!(a.intersection_count(&b), naive, "nbits={nbits}");
            assert_eq!(b.intersection_count(&a), naive, "nbits={nbits}");
        }
    }

    #[test]
    fn chunked_intersect_into_matches_naive_all_capacities() {
        let mut scratch = BitSet::new(0);
        for nbits in CAPS {
            let a = BitSet::from_indices(nbits, scatter(nbits, 2));
            let b = BitSet::from_indices(nbits, scatter(nbits, 3));
            let n = scratch.intersect_into(&a, &b);
            assert_eq!(scratch, a.intersection(&b), "nbits={nbits}");
            assert_eq!(n, scratch.count(), "nbits={nbits}");
        }
    }

    #[test]
    fn chunked_count_at_least_every_threshold_all_capacities() {
        for nbits in CAPS {
            let a = BitSet::from_indices(nbits, scatter(nbits, 4));
            let b = BitSet::from_indices(nbits, scatter(nbits, 5));
            let exact = a.intersection_count(&b);
            for t in [0, 1, exact.saturating_sub(1), exact, exact + 1, exact + 10] {
                assert_eq!(
                    a.intersection_count_at_least(&b, t),
                    exact >= t,
                    "nbits={nbits} t={t} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn hinted_matches_unhinted_all_capacities_and_thresholds() {
        for nbits in CAPS {
            // Sparse self (forces the membership-test path) and dense self
            // (forces the block-scan path), each against a mid-density other.
            let sparse: Vec<usize> = scatter(nbits, 6).into_iter().step_by(40).collect();
            let dense = scatter(nbits, 7);
            let other = BitSet::from_indices(nbits, scatter(nbits, 8));
            for elems in [sparse, dense] {
                let s = BitSet::from_indices(nbits, elems);
                let count = s.count();
                let exact = s.intersection_count(&other);
                for t in [0, 1, exact, exact + 1, count, count + 1] {
                    assert_eq!(
                        s.intersection_count_at_least_hinted(&other, t, count),
                        exact >= t,
                        "nbits={nbits} t={t} exact={exact} count={count}"
                    );
                }
            }
        }
    }

    #[test]
    fn hinted_zero_threshold_is_true_even_for_empty_sets() {
        let a = BitSet::new(100);
        let b = BitSet::new(100);
        assert!(a.intersection_count_at_least_hinted(&b, 0, 0));
        assert!(!a.intersection_count_at_least_hinted(&b, 1, 0));
    }

    #[test]
    fn from_sorted_range_indices_matches_from_indices() {
        for nbits in [1usize, 64, 65, 300] {
            let idx: Vec<usize> = (0..nbits).step_by(3).collect();
            assert_eq!(
                BitSet::from_sorted_range_indices(nbits, idx.iter().copied()),
                BitSet::from_indices(nbits, idx),
                "nbits={nbits}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn from_sorted_range_indices_debug_checks_bounds() {
        BitSet::from_sorted_range_indices(10, [10usize]);
    }

    /// 100 is outside a 70-bit universe but inside its last block: without
    /// the check after the loop, release builds set that bit and every
    /// count and `==` included it.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_sorted_range_indices_rejects_excess_bits_in_every_build() {
        BitSet::from_sorted_range_indices(70, [3usize, 69, 100]);
    }

    #[test]
    fn eq_and_hash_consistent() {
        use std::collections::HashSet;
        let a = BitSet::from_indices(100, [5, 6]);
        let b = BitSet::from_indices(100, [5, 6]);
        let c = BitSet::from_indices(100, [5, 7]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
