//! A free-list of block buffers backing short-lived gene-sets.
//!
//! The range-multigraph build materializes one [`BitSet`] per candidate
//! range, and most of those sets die within the same pair (deduped away or
//! absorbed into the graph and dropped at end of slice). Allocating and
//! freeing each through the global allocator dominates the build's
//! allocator traffic. [`BitSetPool`] keeps the retired `Vec<u64>` block
//! storage on a per-worker free list so the next `alloc` is a pop + zero
//! fill instead of a malloc.
//!
//! The pool is *not* an unsafe bump arena: pooled buffers are ordinary
//! `Vec<u64>`s, so a `TrackingAlloc`-style global allocator still sees
//! every byte the pool retains — `memory.phase_bytes` attribution stays
//! honest, it just stops seeing a free/alloc round-trip per gene-set.
//!
//! Recycling is cooperative: a `BitSet` that is never handed back simply
//! drops through the global allocator as usual, so the pool is safe to use
//! for sets whose ownership escapes (e.g. graph edges that outlive the
//! pair that built them).

use crate::{block_count, BitSet};

/// A free-list of `u64` block buffers for recycling [`BitSet`] storage.
///
/// Typical use is one pool per worker thread, living as long as the
/// worker's scratch state:
///
/// ```
/// use tricluster_bitset::BitSetPool;
///
/// let mut pool = BitSetPool::new();
/// let a = pool.alloc(100);
/// assert!(a.is_empty() && a.capacity() == 100);
/// pool.recycle(a); // storage returns to the pool
/// let b = pool.alloc(70); // reuses the same buffer, re-zeroed
/// assert!(b.is_empty() && b.capacity() == 70);
/// ```
#[derive(Debug, Default)]
pub struct BitSetPool {
    free: Vec<Vec<u64>>,
}

impl BitSetPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BitSetPool::default()
    }

    /// Returns an empty set over `0..nbits`, reusing pooled block storage
    /// when available. The returned set is indistinguishable from
    /// `BitSet::new(nbits)` (its spare `Vec` capacity may differ, which no
    /// `BitSet` operation observes).
    pub fn alloc(&mut self, nbits: usize) -> BitSet {
        let want = block_count(nbits);
        let mut blocks = self.free.pop().unwrap_or_default();
        blocks.clear();
        blocks.resize(want, 0);
        BitSet::from_raw_parts(blocks, nbits)
    }

    /// Like [`BitSetPool::alloc`] followed by setting every yielded index.
    /// All indices must be `< nbits`; an out-of-range index panics, as in
    /// [`BitSet::from_sorted_range_indices`].
    pub fn alloc_from_indices<I: IntoIterator<Item = usize>>(
        &mut self,
        nbits: usize,
        indices: I,
    ) -> BitSet {
        let mut s = self.alloc(nbits);
        s.set_bits_unchecked(indices);
        s
    }

    /// Reclaims a set's block storage for future `alloc` calls. The set's
    /// contents are discarded.
    pub fn recycle(&mut self, set: BitSet) {
        self.free.push(set.into_raw_blocks());
    }

    /// Number of buffers currently held on the free list (diagnostics /
    /// tests only — do **not** surface this as a report counter: pool
    /// occupancy depends on work interleaving and is not deterministic
    /// across thread counts).
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_matches_new() {
        let mut pool = BitSetPool::new();
        for nbits in [0, 1, 63, 64, 65, 100, 128, 1000] {
            let s = pool.alloc(nbits);
            assert_eq!(s, BitSet::new(nbits), "nbits={nbits}");
            assert_eq!(s.capacity(), nbits);
            pool.recycle(s);
        }
    }

    #[test]
    fn recycled_buffer_is_reused_and_rezeroed() {
        let mut pool = BitSetPool::new();
        let mut a = pool.alloc(200);
        a.insert(0);
        a.insert(199);
        pool.recycle(a);
        assert_eq!(pool.free_len(), 1);
        // Smaller universe: the larger buffer shrinks (len-wise) and every
        // surviving block is zeroed.
        let b = pool.alloc(70);
        assert_eq!(pool.free_len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 70);
        assert_eq!(b.as_blocks(), BitSet::new(70).as_blocks());
        pool.recycle(b);
        // Larger universe: the buffer grows back with zeroed new blocks.
        let c = pool.alloc(500);
        assert!(c.is_empty());
        assert_eq!(c.as_blocks().len(), 500usize.div_ceil(64));
    }

    #[test]
    fn alloc_from_indices_matches_from_indices() {
        let mut pool = BitSetPool::new();
        let idx = [0usize, 3, 63, 64, 65, 99];
        let a = pool.alloc_from_indices(100, idx.iter().copied());
        assert_eq!(a, BitSet::from_indices(100, idx));
        pool.recycle(a);
        // Reused buffer must not leak previous bits.
        let b = pool.alloc_from_indices(100, [7usize]);
        assert_eq!(b.to_vec(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn alloc_from_indices_rejects_excess_bits_in_every_build() {
        BitSetPool::new().alloc_from_indices(10, [2usize, 10]);
    }

    #[test]
    fn pool_is_optional() {
        // Sets that never come back simply drop; the pool holds nothing.
        let mut pool = BitSetPool::new();
        let _escaped = pool.alloc(64);
        assert_eq!(pool.free_len(), 0);
    }
}
