//! Iterator over the set bits of a block slice.

/// Iterator over the elements of a [`BitSet`](crate::BitSet) in ascending
/// order.
///
/// Produced by [`BitSet::iter`](crate::BitSet::iter). Internally walks the
/// `u64` blocks, peeling the lowest set bit of the current block with
/// `trailing_zeros` — O(population + blocks) total.
#[derive(Clone)]
pub struct Ones<'a> {
    blocks: &'a [u64],
    /// Remaining bits of the block currently being drained.
    current: u64,
    /// Index of the block `current` was loaded from.
    block_idx: usize,
}

impl<'a> Ones<'a> {
    pub(crate) fn new(blocks: &'a [u64]) -> Self {
        Ones {
            blocks,
            current: blocks.first().copied().unwrap_or(0),
            block_idx: 0,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.block_idx * 64 + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.current.count_ones() as usize
            + self.blocks[(self.block_idx + 1).min(self.blocks.len())..]
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Ones<'_> {}

impl std::iter::FusedIterator for Ones<'_> {}

#[cfg(test)]
mod tests {
    use crate::BitSet;

    #[test]
    fn size_hint_is_exact() {
        let s = BitSet::from_indices(200, [0, 64, 65, 130, 199]);
        let mut it = s.iter();
        assert_eq!(it.size_hint(), (5, Some(5)));
        it.next();
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn fused_after_exhaustion() {
        let s = BitSet::from_indices(70, [69]);
        let mut it = s.iter();
        assert_eq!(it.next(), Some(69));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn empty_blocks() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().next(), None);
    }
}
