//! Valid ratio ranges (paper §4.1, Figure 1).
//!
//! For a pair of sample columns `(s_a, s_b)` in one time slice, each gene
//! `g_x` has a ratio `r_x = d_xa / d_xb`. A *valid ratio range* `[r_l, r_u]`
//! is a maximal interval of ratios such that
//!
//! 1. `max(|r_u|,|r_l|)/min(|r_u|,|r_l|) − 1 ≤ ε`,
//! 2. it spans at least `mx` genes,
//! 3. negative ratios only group genes whose two column values have a
//!    consistent sign pattern,
//! 4. no further gene can be added while preserving the `ε` bound.
//!
//! Overlapping valid ranges are chained into *extended* ranges; an extended
//! range wider than `2ε` is re-covered by *split* blocks of width at most
//! `2ε` plus overlapping *patched* blocks offset by `ε`, so that no cluster
//! straddling a split boundary is lost (paper Figure 1(b)).
//!
//! ## Sign handling
//!
//! Per the paper's validity condition 2, a *negative* ratio is only
//! meaningful when the columns have consistent signs across the grouped
//! genes. We therefore partition genes into three groups before sorting:
//! positive ratios (covers both `(+,+)` and `(−,−)` value pairs — the paper
//! places no constraint on these), negative ratios with `(+,−)` values, and
//! negative ratios with `(−,+)` values. Ranges never span groups.

use crate::params::RangeExtension;
use tricluster_bitset::BitSet;

/// How a range was produced (paper Figure 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeKind {
    /// A maximal valid window (width ≤ ε).
    Valid,
    /// A chain of overlapping valid windows, total width ≤ 2ε.
    Extended,
    /// A block of width ≤ 2ε cut from a wide extended range.
    Split,
    /// An overlapping block offset by ε covering a split boundary.
    Patched,
}

/// Sign group of the ratios in a range (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignGroup {
    /// `d_xa` and `d_xb` share a sign, ratio positive.
    Positive,
    /// `d_xa > 0 > d_xb`, ratio negative.
    PosNeg,
    /// `d_xa < 0 < d_xb`, ratio negative.
    NegPos,
}

impl SignGroup {
    /// Classifies a value pair; `None` when either value is zero or
    /// non-finite (such cells are excluded from ranges — preprocessing
    /// replaces zeros beforehand).
    pub fn classify(va: f64, vb: f64) -> Option<SignGroup> {
        if !va.is_finite() || !vb.is_finite() || va == 0.0 || vb == 0.0 {
            return None;
        }
        Some(match (va > 0.0, vb > 0.0) {
            (true, true) | (false, false) => SignGroup::Positive,
            (true, false) => SignGroup::PosNeg,
            (false, true) => SignGroup::NegPos,
        })
    }
}

/// A ratio range between two sample columns, with the genes whose ratios
/// fall inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRange {
    /// Lower bound of `|ratio|`.
    pub lo: f64,
    /// Upper bound of `|ratio|`.
    pub hi: f64,
    /// Sign group of the grouped genes.
    pub sign: SignGroup,
    /// Provenance of the range.
    pub kind: RangeKind,
    /// Genes whose ratio lies in `[lo, hi]` (bitset over the gene universe).
    pub genes: BitSet,
}

impl RatioRange {
    /// The multigraph edge weight `w = r_u / r_l` from the paper.
    pub fn weight(&self) -> f64 {
        self.hi / self.lo
    }
}

// ------------------------------------------------------------ packed keys --
//
// The per-group ratio sort is the hottest comparison site in the miner.
// Ratios reaching the sort are always positive and finite (the finder
// filters first), and for positive finite floats the IEEE-754 bit pattern
// is monotone in the value: `a <= b  ⟺  a.to_bits() <= b.to_bits()`.
// Packing the ratio bits and the gene index into one `u128` key,
// `ratio_bits << 64 | gene`, turns the `(ratio, gene)` sort into a plain
// integer sort — no `total_cmp` callback per comparison — distributed into
// value buckets by [`bucket_sort`]. Ties break by gene index instead of
// input order, which cannot change any emitted range: every window
// boundary is a value comparison (`<=` / `<` on the ratio), so an
// equal-value run is always in or out of a window as a whole, and a
// window's gene-*set* and `lo`/`hi` bounds are order-free.
//
// A `u64` key, `(ratio_bits − min_bits) << gene_bits | gene`, would fit
// only when a group's ratios span fewer than `2^(64 − gene_bits)` bit
// patterns: at 4096 genes that is 2^52 patterns, one binade, a ratio
// spread under 2×. Column pairs spread far wider (336× and up on the
// synthetic workloads), so such a key almost never fits, and the module
// keeps the one key width.
//
// ------------------------------------------------------- window prefilter --
//
// Only ratios that sit in a window of `mx` genes can reach an emitted
// range, and on sparse inputs most cannot. So before packing, the finder
// can drop every ratio that provably sits in no such window, and sort and
// walk only the rest.
//
// *Reach.* The walk bounds the window at `v` by `fl(v · e)`, with
// `e = fl(1 + ε)`, so `fl(1 + ε)`'s own rounding is already in `e`. Let
// `2^k ≤ v < 2^(k+1)` (a subnormal `v` takes the lowest binade's `k`,
// whose spacing it shares). Doubles from `v` upward are at least
// `2^(k−52)` apart, one bit pattern each, and the exact product lies
// `v·(e − 1) < 2^(k+1)·(e − 1)` above `v`: fewer than `(e − 1)·2^53`
// patterns. That count is an integer (`e − 1` is computed exactly and is
// a multiple of `2^−52`), so the rounded product, one of the two doubles
// around the exact one, is at most that many patterns above `v`. A
// product that overflows to `+∞` admits only finite keys, all below the
// exact product. The filter takes `reach = (e − 1)·2^53 + 2`, two
// patterns of margin.
//
// *Buckets.* Key `k` goes to bucket `(bits(k) − min_bits) >> s`, with
// `2^s ≥ reach`, so a window's keys, within `reach` patterns of its
// start, lie in the start's bucket and at most the next one. A window of
// `mx` genes therefore holds at least `mx` keys in two adjacent buckets,
// and each of its keys sees it as its own bucket plus one neighbour. A key
// whose bucket count plus its larger neighbour's count is below `mx` lies
// in no window of `mx` genes, and is dropped.
//
// *Exactness.* Every key of a qualifying window survives. A window over
// the survivors holds the survivors of the window with the same start over
// all keys, a subset. So a start qualifies among survivors iff it
// qualified among all keys, with the same members, and those members are
// contiguous in both orders (every key between two of them is one of
// them). Maximality compares the windows' last members, chaining compares
// a window's first member with the chain's last, and a chain's values —
// all the split and patch fences read — are one contiguous run in both
// orders. So windows, chains, and split and patched blocks see the same
// values and genes in the same order, and the emitted ranges are
// byte-identical to the unfiltered finder's (`oracle::find_ranges`).
//
// *Gate.* Counting costs a pass over the ratios plus a table of `nb`
// buckets. It pays only where it drops keys, so the finder filters only
// when `nb ≤ 4n` and `2n < mx · nb`, i.e. an average pair of adjacent
// buckets holds fewer than `mx` keys. Otherwise it takes the unfiltered
// path. Dense inputs, where nearly every key survives, stay there.
//
// ---------------------------------------------- distinct by construction --
//
// One call gets each gene at most once (`compute_pair` puts every gene in
// exactly one sign group), so two emitted ranges share a gene set only if
// they share an index interval of the sorted array. The construction
// repeats an interval in one place only, so the finder needs no dedupe:
//
// * Windows strictly increase at both ends: `l` rises every step, and a
//   window is kept only when its `r` passes the last kept window's.
// * Chains are disjoint, and so are the split blocks within a chain. Each
//   chain emits either itself (one Valid or Extended range) or its blocks.
// * Patched blocks around different boundaries end at different indices.
//   The split block that starts at boundary `j` ends at the next boundary
//   `j′`, past every value `≤ fl(v_j · fl(1 + 2ε))`; the patched block
//   around `j` ends past every value `≤ fl(v_j · fl(1 + ε))`, so no later,
//   because `fl(1 + 2ε) ≥ fl(1 + ε)` and rounding is monotone. The patched
//   block around `j′` contains `j′`, so it ends later.
// * A patched block contains its centre (`fl(v / (1 + ε)) ≤ v ≤
//   fl(v · (1 + ε))`), and no split block straddles a boundary. So the
//   only split block a patched block can equal is the one that starts at
//   its centre `j`. It does when `fl(v_j / (1 + ε))` rounds above the
//   value before `j`: `split_and_patch` skips that patched block, and the
//   oracle's gene-set dedupe drops it too (the split block comes first).
//   When that split block is below `mx`, so is the equal patched block, and
//   neither is emitted.

#[inline]
fn pack_key(ratio_bits: u64, gene: u32) -> u128 {
    ((ratio_bits as u128) << 64) | gene as u128
}

#[inline]
fn key_value(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

#[inline]
fn key_gene(key: u128) -> usize {
    key as u64 as usize
}

/// Sorts packed keys by distributing them into `≈n` buckets via a monotone
/// linear map of the bit pattern, then fixing intra-bucket order locally.
/// For positive floats the bit pattern is roughly linear in `log2(value)`,
/// and the pair kernel's ratio arrays are near-uniform in log space, so
/// buckets stay small and the sort is ~O(n) with small constants —
/// measurably faster than `sort_unstable`'s pdqsort on packed keys.
///
/// `hi` must be a monotone map of the key onto the **full** `u64` scale
/// (range-normalized and shifted to the top bit); the bucket index keeps
/// the high half of its widening product with `nb` — one multiply per key,
/// no division.
///
/// Keys are unique (the rank/gene half differs), so a sorted array is
/// unique and this produces the byte-identical result to
/// `keys.sort_unstable()` — the skewed-input fallbacks below simply call
/// it directly.
fn bucket_sort<K: Copy + Ord + Default>(
    keys: &mut Vec<K>,
    scratch: &mut Vec<K>,
    counts: &mut Vec<u32>,
    hi: impl Fn(K) -> u64,
) {
    let n = keys.len();
    if n < 48 {
        keys.sort_unstable();
        return;
    }
    let nb = n;
    counts.clear();
    counts.resize(nb + 1, 0);
    let bucket = |k: K| -> usize { ((hi(k) as u128 * nb as u128) >> 64) as usize };
    for &k in keys.iter() {
        counts[bucket(k)] += 1;
    }
    bucket_scatter_fixup(keys, scratch, counts, hi);
}

/// The distribution half of [`bucket_sort`]: prefix sums, scatter, and
/// intra-bucket fix-up. `counts` must hold the per-bucket histogram over
/// `nb = counts.len() - 1` buckets of `bucket(k) = (hi(k)·nb) >> 64`. It
/// stays a function of its own: folded into [`bucket_sort`], the range
/// graph build measured slower.
fn bucket_scatter_fixup<K: Copy + Ord + Default>(
    keys: &mut Vec<K>,
    scratch: &mut Vec<K>,
    counts: &mut [u32],
    hi: impl Fn(K) -> u64,
) {
    let n = keys.len();
    let nb = counts.len() - 1;
    let bucket = |k: K| -> usize { ((hi(k) as u128 * nb as u128) >> 64) as usize };
    let mut acc = 0u32;
    let mut max_bucket = 0u32;
    for c in counts.iter_mut() {
        let v = *c;
        max_bucket = max_bucket.max(v);
        *c = acc;
        acc += v;
    }
    // Heavily tied or clumped inputs concentrate in few buckets; local
    // fix-up would degenerate there, and pdqsort handles such patterns well.
    if max_bucket as usize > 32 + n / 4 {
        keys.sort_unstable();
        return;
    }
    // Grow-only resize: every slot in 0..n is written by the scatter below
    // (the offsets are a permutation), so stale contents never survive.
    if scratch.len() < n {
        scratch.resize(n, K::default());
    }
    for &k in keys.iter() {
        let b = bucket(k);
        scratch[counts[b] as usize] = k;
        counts[b] += 1;
    }
    // Buckets are mutually ordered; only intra-bucket order is left to fix.
    let mut start = 0usize;
    for &c in counts.iter().take(nb) {
        let end = c as usize;
        let run = &mut scratch[start..end];
        if run.len() > 24 {
            run.sort_unstable();
        } else if run.len() > 1 {
            insertion_sort(run);
        }
        start = end;
    }
    scratch.truncate(n);
    std::mem::swap(keys, scratch);
}

/// Plain insertion sort for the short runs `bucket_sort` leaves behind —
/// no per-run `sort_unstable` call overhead.
fn insertion_sort<K: Copy + Ord>(run: &mut [K]) {
    for i in 1..run.len() {
        let k = run[i];
        let mut j = i;
        while j > 0 && run[j - 1] > k {
            run[j] = run[j - 1];
            j -= 1;
        }
        run[j] = k;
    }
}

/// Reusable buffers for [`find_ranges_into`].
///
/// Keep one per worker thread: the sort keys, sorted values and genes,
/// window list and chain list survive across calls. Each emitted range's
/// gene set is a fresh [`BitSet`] that the range owns.
#[derive(Debug, Default)]
pub struct RangeScratch {
    /// `(ratio_bits, gene)` sort keys (see the module comment on the
    /// monotone bit transform).
    keys: Vec<u128>,
    /// The sorted ratio values as plain doubles, so the window walk and
    /// split/patch fences compare `f64`s instead of packed keys.
    vals: Vec<f64>,
    /// Gene ids in sorted order — what range emission consumes.
    genes_sorted: Vec<u32>,
    /// Double-buffer for [`bucket_sort`]'s scatter pass.
    sort_scratch: Vec<u128>,
    /// Bucket offsets for [`bucket_sort`]; first the window prefilter's
    /// per-bucket key counts, when it runs.
    counts: Vec<u32>,
    windows: Vec<(usize, usize)>,
    chains: Vec<(usize, usize, usize)>,
}

/// Finds all ranges for one sign group.
///
/// `ratios` are `(|ratio|, gene)` pairs (all the same [`SignGroup`]); they do
/// not need to be pre-sorted. `n_genes` is the gene universe size for the
/// produced bitsets.
///
/// Each gene may appear in `ratios` at most once, as [`compute_pair`]
/// guarantees; debug builds check it. The emitted ranges then have
/// pairwise distinct gene sets (see the module comment).
///
/// Convenience wrapper over [`find_ranges_into`] with one-shot buffers.
///
/// [`compute_pair`]: crate::rangegraph::compute_pair
pub fn find_ranges(
    ratios: &[(f64, usize)],
    sign: SignGroup,
    epsilon: f64,
    mx: usize,
    n_genes: usize,
    extension: RangeExtension,
) -> Vec<RatioRange> {
    let mut scratch = RangeScratch::default();
    let mut out = Vec::new();
    find_ranges_into(
        ratios,
        sign,
        epsilon,
        mx,
        n_genes,
        extension,
        &mut scratch,
        &mut out,
    );
    out
}

/// Finds all ranges for one sign group, appending them to `out`, and
/// returns the number of keys that reached the sort: every usable ratio,
/// or only those the window prefilter kept (see the module comment), or 0
/// when fewer than `mx` remain.
///
/// Like [`find_ranges`], but reuses the caller's [`RangeScratch`] and output
/// vector; earlier contents of `out` are never touched. The same contract
/// holds: each gene at most once per call, checked in debug builds, so
/// the ranges one call appends have pairwise distinct gene sets.
#[allow(clippy::too_many_arguments)]
pub fn find_ranges_into(
    ratios: &[(f64, usize)],
    sign: SignGroup,
    epsilon: f64,
    mx: usize,
    n_genes: usize,
    extension: RangeExtension,
    scratch: &mut RangeScratch,
    out: &mut Vec<RatioRange>,
) -> usize {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    assert!(mx >= 1, "mx must be >= 1");
    debug_assert!(
        genes_distinct(ratios),
        "find_ranges: a gene appears more than once in one call"
    );
    let RangeScratch {
        keys,
        vals,
        genes_sorted,
        sort_scratch,
        counts,
        windows,
        chains,
    } = scratch;
    // Pass 1: count the finite positive ratios and find their bit-pattern
    // extremes for the bucket map — cheap (no stores), and it returns
    // before any packing when fewer than `mx` ratios qualify.
    let mut min_bits = u64::MAX;
    let mut max_bits = 0u64;
    let mut n = 0usize;
    for &(r, _) in ratios {
        if r.is_finite() && r > 0.0 {
            let b = r.to_bits();
            min_bits = min_bits.min(b);
            max_bits = max_bits.max(b);
            n += 1;
        }
    }
    if n < mx {
        return 0;
    }
    let usable = |&&(r, _): &&(f64, usize)| r.is_finite() && r > 0.0;
    let eps1 = 1.0 + epsilon;
    keys.clear();
    match window_buckets(max_bits - min_bits, n, mx, eps1) {
        None => keys.extend(
            ratios
                .iter()
                .filter(usable)
                .map(|&(r, g)| pack_key(r.to_bits(), g as u32)),
        ),
        Some((shift, nb)) => {
            // Pass 2: keys per bucket, with an empty bucket at each end so
            // every key has two neighbours.
            let bucket = |bits: u64| ((bits - min_bits) >> shift) as usize + 1;
            counts.clear();
            counts.resize(nb + 2, 0);
            for &(r, _) in ratios.iter().filter(usable) {
                counts[bucket(r.to_bits())] += 1;
            }
            // Pass 3: pack the keys that can sit in a window of `mx`, and
            // take the sort's bucket map over their extremes.
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &(r, g) in ratios.iter().filter(usable) {
                let bits = r.to_bits();
                let b = bucket(bits);
                if counts[b] as usize + counts[b - 1].max(counts[b + 1]) as usize >= mx {
                    lo = lo.min(bits);
                    hi = hi.max(bits);
                    keys.push(pack_key(bits, g as u32));
                }
            }
            if keys.len() < mx {
                return 0;
            }
            (min_bits, max_bits) = (lo, hi);
        }
    }
    let n = keys.len();
    let span = max_bits - min_bits;
    if span == 0 {
        // All ratios are equal, so genes alone order the keys; the bucket
        // map below needs a non-zero span to normalize.
        keys.sort_unstable();
    } else {
        let shift = span.leading_zeros();
        bucket_sort(keys, sort_scratch, counts, |k| {
            ((k >> 64) as u64 - min_bits) << shift
        });
    }
    vals.clear();
    genes_sorted.clear();
    vals.extend(keys.iter().map(|&k| key_value(k)));
    genes_sorted.extend(keys.iter().map(|&k| key_gene(k) as u32));

    // Maximal ε-windows. A window starting at `l` extends to the largest
    // `r` with ratio[r-1] <= ratio[l]*(1+ε) and must span at least `mx`
    // genes, so `vals[l + mx - 1] <= vals[l]*(1+ε)` is a one-compare
    // qualification test that skips the right-end scan for the (typically
    // dominant) share of `l` positions that cannot seed a window.
    //
    // Maximality — the window not being contained in the window at `l-1`,
    // i.e. `r(l) > r(l-1)` — reduces to `r(l) > r(last qualifying l')`:
    // if `r(l) == r(l-1)` then the window at `l-1` is strictly larger, so
    // it also spans ≥ mx genes and qualifies, making `l' = l-1`; and
    // conversely `r` is monotone in `l`, so `r(l') <= r(l-1)`.
    windows.clear(); // half-open [l, r)
    let mut r = 0usize;
    let mut last_r = 0usize;
    for l in 0..=n - mx {
        let bound = vals[l] * eps1;
        if vals[l + mx - 1] > bound {
            continue;
        }
        if r < l + mx {
            r = l + mx;
        }
        while r < n && vals[r] <= bound {
            r += 1;
        }
        if windows.is_empty() || r > last_r {
            windows.push((l, r));
            last_r = r;
        }
    }
    if windows.is_empty() {
        return n;
    }

    let genes_sorted: &[u32] = genes_sorted;
    let vals: &[f64] = vals;
    // Indices half-open [lo_i, hi_i); genes are in-universe by the
    // caller's contract (checked when the set is built).
    let make_range = |lo_i: usize, hi_i: usize, kind: RangeKind| RatioRange {
        lo: vals[lo_i],
        hi: vals[hi_i - 1],
        sign,
        kind,
        genes: BitSet::from_sorted_range_indices(
            n_genes,
            genes_sorted[lo_i..hi_i].iter().map(|&g| g as usize),
        ),
    };

    if extension == RangeExtension::Off {
        for &(l, r) in windows.iter() {
            out.push(make_range(l, r, RangeKind::Valid));
        }
        return n;
    }

    // Chain overlapping windows into extended ranges.
    chains.clear(); // (lo, hi, windows)
    let (mut lo, mut hi, mut count) = (windows[0].0, windows[0].1, 1usize);
    for &(l, r) in &windows[1..] {
        if l < hi {
            hi = hi.max(r);
            count += 1;
        } else {
            chains.push((lo, hi, count));
            lo = l;
            hi = r;
            count = 1;
        }
    }
    chains.push((lo, hi, count));

    for &(lo, hi, nwin) in chains.iter() {
        if nwin == 1 {
            out.push(make_range(lo, hi, RangeKind::Valid));
            continue;
        }
        let width = vals[hi - 1] / vals[lo] - 1.0;
        if width <= 2.0 * epsilon {
            out.push(make_range(lo, hi, RangeKind::Extended));
            continue;
        }
        // Wide extended range: cover with split blocks of width ≤ 2ε plus
        // patched blocks centered on the split boundaries.
        split_and_patch(&vals[lo..hi], lo, epsilon, mx, &make_range, out);
    }
    n
}

/// Whether no gene appears twice in `ratios` — the finder's input contract.
fn genes_distinct(ratios: &[(f64, usize)]) -> bool {
    let mut genes: Vec<usize> = ratios.iter().map(|&(_, g)| g).collect();
    genes.sort_unstable();
    genes.windows(2).all(|w| w[0] != w[1])
}

/// The window prefilter's bucket shift and bucket count for `n` usable
/// ratios spanning `span` bit patterns, or `None` when counting cannot pay
/// (see the module comment): `2^shift` covers the bit-pattern reach of one
/// window `[v, fl(v · eps1)]`.
fn window_buckets(span: u64, n: usize, mx: usize, eps1: f64) -> Option<(u32, usize)> {
    // `eps1 − 1` is exact and a multiple of 2^−52, so this product is an
    // exact integer; `as` saturates an absurd ε to u64::MAX.
    let reach = ((eps1 - 1.0) * (1u64 << 53) as f64) as u64;
    let reach = reach.saturating_add(2);
    let shift = u64::BITS - (reach - 1).leading_zeros();
    // `shift ≥ 1`, so adding the last bucket cannot overflow.
    let nb = usize::try_from(span.checked_shr(shift)?).ok()? + 1;
    (nb <= 4 * n && 2 * n < mx.saturating_mul(nb)).then_some((shift, nb))
}

/// Re-covers `segment` (a slice of the sorted ratio array starting at
/// absolute index `base`, forming one wide extended range) with:
///
/// * greedy *split* blocks — each anchored at the first uncovered ratio and
///   extending a multiplicative `2ε` — and
/// * one *patched* block per split boundary, spanning `[v/(1+ε), v·(1+ε)]`
///   (width `(1+ε)² − 1 = 2ε + ε²`)
///   around the boundary ratio `v`, so that any two genes within `ε` of each
///   other still co-occur in at least one range.
///
/// Blocks spanning fewer than `mx` genes cannot seed a cluster and are not
/// emitted, and neither is a patched block that repeats the split block
/// starting at its centre (see the module comment).
fn split_and_patch(
    segment: &[f64],
    base: usize,
    epsilon: f64,
    mx: usize,
    make_range: &dyn Fn(usize, usize, RangeKind) -> RatioRange,
    out: &mut Vec<RatioRange>,
) {
    debug_assert!(epsilon > 0.0, "wide chains require a positive epsilon");
    // All fences below are plain `f64` comparisons on the sorted values:
    // every segment value is positive and finite, and a bound can only
    // degenerate to `+inf` (overflowing upper bound — above every value) or
    // `0.0` (subnormal center divided by `1+ε` — below every value), both
    // of which compare exactly.
    let factor = 1.0 + 2.0 * epsilon;
    let mut boundaries: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < segment.len() {
        let hi = segment[i] * factor;
        let j = segment.partition_point(|&v| v <= hi);
        debug_assert!(j > i);
        if j - i >= mx {
            out.push(make_range(base + i, base + j, RangeKind::Split));
        }
        if j < segment.len() {
            boundaries.push(j);
        }
        i = j;
    }
    for (k, &j) in boundaries.iter().enumerate() {
        let center = segment[j];
        let lo_v = center / (1.0 + epsilon);
        let hi_v = center * (1.0 + epsilon);
        let a = segment.partition_point(|&v| v < lo_v);
        let b = segment.partition_point(|&v| v <= hi_v);
        // The split block at `j` ends at the next boundary.
        let split = (j, boundaries.get(k + 1).map_or(segment.len(), |&e| e));
        if b - a >= mx && (a, b) != split {
            out.push(make_range(base + a, base + b, RangeKind::Patched));
        }
    }
}

/// The pre-packed-key range finder, kept verbatim as a differential oracle:
/// property tests check that the packed-key hot path emits byte-identical
/// ranges for arbitrary inputs (ties, subnormals, negatives, all sign
/// groups). Compiled for tests only.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{RangeExtension, RangeKind, RatioRange, SignGroup};
    use tricluster_bitset::BitSet;

    /// Old `find_ranges`: comparison sort via `f64::total_cmp` (stable, so
    /// ties keep input order), per-call `HashSet` dedupe, per-range
    /// `BitSet::from_indices`.
    pub fn find_ranges(
        ratios: &[(f64, usize)],
        sign: SignGroup,
        epsilon: f64,
        mx: usize,
        n_genes: usize,
        extension: RangeExtension,
    ) -> Vec<RatioRange> {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        assert!(mx >= 1, "mx must be >= 1");
        let mut sorted: Vec<(f64, usize)> = ratios
            .iter()
            .copied()
            .filter(|(r, _)| r.is_finite() && *r > 0.0)
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = sorted.len();
        let mut out = Vec::new();
        if n < mx {
            return out;
        }

        let mut windows: Vec<(usize, usize)> = Vec::new();
        let mut r = 0usize;
        let mut prev_r = 0usize;
        for l in 0..n {
            if r < l {
                r = l;
            }
            let bound = sorted[l].0 * (1.0 + epsilon);
            while r < n && sorted[r].0 <= bound {
                r += 1;
            }
            let is_maximal = l == 0 || r > prev_r;
            if is_maximal && r - l >= mx {
                windows.push((l, r));
            }
            prev_r = r;
        }
        if windows.is_empty() {
            return out;
        }

        let sorted: &[(f64, usize)] = &sorted;
        let make_range = |lo_i: usize, hi_i: usize, kind: RangeKind| -> RatioRange {
            let genes = BitSet::from_indices(n_genes, sorted[lo_i..hi_i].iter().map(|&(_, g)| g));
            RatioRange {
                lo: sorted[lo_i].0,
                hi: sorted[hi_i - 1].0,
                sign,
                kind,
                genes,
            }
        };

        if extension == RangeExtension::Off {
            for &(l, r) in windows.iter() {
                out.push(make_range(l, r, RangeKind::Valid));
            }
            dedupe_by_genes(&mut out);
            return out;
        }

        let mut chains: Vec<(usize, usize, usize)> = Vec::new();
        let (mut lo, mut hi, mut count) = (windows[0].0, windows[0].1, 1usize);
        for &(l, r) in &windows[1..] {
            if l < hi {
                hi = hi.max(r);
                count += 1;
            } else {
                chains.push((lo, hi, count));
                lo = l;
                hi = r;
                count = 1;
            }
        }
        chains.push((lo, hi, count));

        for &(lo, hi, nwin) in chains.iter() {
            if nwin == 1 {
                out.push(make_range(lo, hi, RangeKind::Valid));
                continue;
            }
            let width = sorted[hi - 1].0 / sorted[lo].0 - 1.0;
            if width <= 2.0 * epsilon {
                out.push(make_range(lo, hi, RangeKind::Extended));
                continue;
            }
            split_and_patch(&sorted[lo..hi], lo, epsilon, mx, &make_range, &mut out);
        }
        dedupe_by_genes(&mut out);
        out
    }

    fn split_and_patch(
        segment: &[(f64, usize)],
        base: usize,
        epsilon: f64,
        mx: usize,
        make_range: &dyn Fn(usize, usize, RangeKind) -> RatioRange,
        out: &mut Vec<RatioRange>,
    ) {
        let factor = 1.0 + 2.0 * epsilon;
        let mut boundaries: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < segment.len() {
            let hi = segment[i].0 * factor;
            let j = segment.partition_point(|&(v, _)| v <= hi);
            if j - i >= mx {
                out.push(make_range(base + i, base + j, RangeKind::Split));
            }
            if j < segment.len() {
                boundaries.push(j);
            }
            i = j;
        }
        for &j in &boundaries {
            let center = segment[j].0;
            let lo_v = center / (1.0 + epsilon);
            let hi_v = center * (1.0 + epsilon);
            let a = segment.partition_point(|&(v, _)| v < lo_v);
            let b = segment.partition_point(|&(v, _)| v <= hi_v);
            if b - a >= mx {
                out.push(make_range(base + a, base + b, RangeKind::Patched));
            }
        }
    }

    fn dedupe_by_genes(ranges: &mut Vec<RatioRange>) {
        let keep: Vec<bool> = {
            let mut seen: std::collections::HashSet<&[u64]> =
                std::collections::HashSet::with_capacity(ranges.len());
            ranges
                .iter()
                .map(|r| seen.insert(r.genes.as_blocks()))
                .collect()
        };
        let mut idx = 0usize;
        ranges.retain(|_| {
            let keep_this = keep[idx];
            idx += 1;
            keep_this
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(
        ratios: &[(f64, usize)],
        eps: f64,
        mx: usize,
        ext: RangeExtension,
    ) -> Vec<RatioRange> {
        find_ranges(ratios, SignGroup::Positive, eps, mx, 64, ext)
    }

    /// Paper Figure 1(a): sorted ratios of column s0/s6 at time t0.
    /// g1,g4,g8 -> 3.0; g3,g5 -> 3.3; g0 -> 3.6.
    fn paper_fig1() -> Vec<(f64, usize)> {
        vec![(3.0, 1), (3.0, 4), (3.0, 8), (3.3, 3), (3.3, 5), (3.6, 0)]
    }

    #[test]
    fn paper_example_eps_001_single_range() {
        // ε=0.01, mx=3: only [3.0, 3.0] with genes {g1,g4,g8} is valid.
        let rs = ranges(&paper_fig1(), 0.01, 3, RangeExtension::On);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].lo, 3.0);
        assert_eq!(rs[0].hi, 3.0);
        assert_eq!(rs[0].genes.to_vec(), vec![1, 4, 8]);
        assert_eq!(rs[0].kind, RangeKind::Valid);
    }

    #[test]
    fn paper_example_eps_01_two_overlapping_ranges() {
        // ε=0.1: the paper reports [3.0,3.3] {g1,g4,g8,g3,g5} and
        // [3.3,3.6] {g3,g5,g0}. With mx=3 only the first window has ≥3
        // genes... the second has exactly 3.
        let rs = ranges(&paper_fig1(), 0.1, 3, RangeExtension::Off);
        assert_eq!(rs.len(), 2, "{rs:?}");
        assert_eq!(rs[0].genes.to_vec(), vec![1, 3, 4, 5, 8]);
        assert_eq!((rs[0].lo, rs[0].hi), (3.0, 3.3));
        assert_eq!(rs[1].genes.to_vec(), vec![0, 3, 5]);
        assert_eq!((rs[1].lo, rs[1].hi), (3.3, 3.6));
    }

    #[test]
    fn paper_example_eps_01_extension_merges() {
        // With extension on, the two overlapping windows chain into one
        // extended range [3.0,3.6]; width 0.2 ≤ 2ε, single Extended range.
        let rs = ranges(&paper_fig1(), 0.1, 3, RangeExtension::On);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, RangeKind::Extended);
        assert_eq!((rs[0].lo, rs[0].hi), (3.0, 3.6));
        assert_eq!(rs[0].genes.count(), 6);
    }

    #[test]
    fn too_few_genes_no_range() {
        let rs = ranges(&[(1.0, 0), (1.0, 1)], 0.01, 3, RangeExtension::On);
        assert!(rs.is_empty());
    }

    #[test]
    fn empty_input() {
        let rs = ranges(&[], 0.01, 1, RangeExtension::On);
        assert!(rs.is_empty());
    }

    #[test]
    fn far_apart_clusters_give_separate_ranges() {
        let data = vec![
            (1.0, 0),
            (1.0, 1),
            (1.005, 2),
            (5.0, 3),
            (5.0, 4),
            (5.02, 5),
        ];
        let rs = ranges(&data, 0.01, 3, RangeExtension::On);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].genes.to_vec(), vec![0, 1, 2]);
        assert_eq!(rs[1].genes.to_vec(), vec![3, 4, 5]);
        assert!(rs.iter().all(|r| r.kind == RangeKind::Valid));
    }

    #[test]
    fn maximality_no_window_contained_in_another() {
        // windows must not report [l+1, r) when [l, r) exists
        let data: Vec<(f64, usize)> = (0..6).map(|i| (1.0 + 0.001 * i as f64, i)).collect();
        let rs = ranges(&data, 0.01, 2, RangeExtension::Off);
        assert_eq!(rs.len(), 1, "one maximal window covering all: {rs:?}");
        assert_eq!(rs[0].genes.count(), 6);
    }

    #[test]
    fn eps_zero_groups_exact_ties_only() {
        let data = vec![(2.0, 0), (2.0, 1), (2.0, 2), (2.5, 3), (2.5, 4)];
        let rs = ranges(&data, 0.0, 2, RangeExtension::On);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].genes.to_vec(), vec![0, 1, 2]);
        assert_eq!(rs[1].genes.to_vec(), vec![3, 4]);
        assert!((rs[0].weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wide_chain_produces_split_and_patched() {
        // A dense arithmetic chain: every adjacent pair within ε but the
        // whole chain much wider than 2ε.
        let data: Vec<(f64, usize)> = (0..16)
            .map(|i| (1.0f64 * 1.04f64.powi(i), i as usize))
            .collect();
        let rs = ranges(&data, 0.05, 2, RangeExtension::On);
        assert!(
            rs.iter().any(|r| r.kind == RangeKind::Split),
            "expected split blocks: {rs:?}"
        );
        assert!(
            rs.iter().any(|r| r.kind == RangeKind::Patched),
            "expected patched blocks: {rs:?}"
        );
        // Every gene is covered by at least one emitted range.
        let mut covered = BitSet::new(64);
        for r in &rs {
            covered.union_with(&r.genes);
        }
        assert_eq!(covered.count(), 16, "no gene lost by splitting: {rs:?}");
        // Every block respects the 2ε width bound.
        for r in &rs {
            if matches!(r.kind, RangeKind::Split | RangeKind::Patched) {
                assert!(
                    r.hi / r.lo - 1.0 <= 2.0 * 0.05 + 1e-9,
                    "block too wide: {r:?}"
                );
            }
        }
    }

    #[test]
    fn adjacent_pairs_consecutive_blocks_share_genes_via_patching() {
        // Genes right at a split boundary must appear together in some range
        // (that is the point of patched ranges).
        let data: Vec<(f64, usize)> = (0..20)
            .map(|i| (1.0f64 * 1.03f64.powi(i), i as usize))
            .collect();
        let rs = ranges(&data, 0.05, 2, RangeExtension::On);
        for w in 0..19usize {
            let together = rs
                .iter()
                .any(|r| r.genes.contains(w) && r.genes.contains(w + 1));
            assert!(
                together,
                "adjacent genes {w},{} (ratio gap 3% < ε) never co-occur: {rs:?}",
                w + 1
            );
        }
    }

    #[test]
    fn duplicate_genesets_are_removed() {
        let data = vec![(1.0, 0), (1.0, 1), (1.0, 2)];
        let rs = ranges(&data, 0.5, 2, RangeExtension::On);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn find_ranges_into_reuses_scratch_and_appends() {
        // Same results as find_ranges when the scratch and output vec are
        // reused across calls with different inputs.
        let data1 = paper_fig1();
        let data2 = vec![(2.0, 10), (2.0, 11), (2.5, 12), (2.5, 13)];
        let mut scratch = RangeScratch::default();
        let mut out = Vec::new();
        find_ranges_into(
            &data1,
            SignGroup::Positive,
            0.1,
            3,
            64,
            RangeExtension::On,
            &mut scratch,
            &mut out,
        );
        let after_first = out.len();
        let first = find_ranges(&data1, SignGroup::Positive, 0.1, 3, 64, RangeExtension::On);
        assert_eq!(out, first);
        find_ranges_into(
            &data2,
            SignGroup::Positive,
            0.0,
            2,
            64,
            RangeExtension::On,
            &mut scratch,
            &mut out,
        );
        assert_eq!(
            out[after_first..],
            find_ranges(&data2, SignGroup::Positive, 0.0, 2, 64, RangeExtension::On)
        );
        // The second call appends only: the first call's ranges stay as
        // they were.
        assert_eq!(out[..after_first], first);
    }

    #[test]
    fn nonfinite_and_nonpositive_ratios_ignored() {
        let data = vec![
            (f64::NAN, 0),
            (f64::INFINITY, 1),
            (-1.0, 2),
            (0.0, 3),
            (2.0, 4),
            (2.0, 5),
        ];
        let rs = ranges(&data, 0.01, 2, RangeExtension::On);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].genes.to_vec(), vec![4, 5]);
    }

    // ---------------------------------------- differential oracle tests --

    use proptest::prelude::*;

    /// One generated ratio. The selector steers cases into the shapes the
    /// packed-key transform must survive: plain positives, exact ties,
    /// dense near-tie clusters, subnormals, huge/tiny normals, and the
    /// filtered-out kinds (negatives, zero, inf, NaN).
    fn ratio_value() -> impl Strategy<Value = f64> {
        (0usize..12, 1.0f64..4.0, 0usize..48).prop_map(|(sel, v, k)| match sel {
            0..=2 => v,                            // plain positive
            3 => 2.5,                              // exact tie value
            4 => 1.0 + (k % 7) as f64 * 1e-3,      // dense near-tie cluster
            5 => f64::MIN_POSITIVE / 4.0,          // subnormal
            6 => f64::MIN_POSITIVE,                // smallest normal
            7 => v * 1e300,                        // huge (bound hits +inf)
            8 => v * 1e-300,                       // tiny normal
            9 => -v,                               // negative -> filtered
            10 => 0.0,                             // zero -> filtered
            _ => [f64::INFINITY, f64::NAN][k % 2], // non-finite -> filtered
        })
    }

    /// The gene universe of the generated entries.
    const GENES: usize = 48;

    /// Up to `max_len` generated `(ratio, gene)` entries over distinct
    /// genes in random order, as `compute_pair` hands them over: one call
    /// never gets a gene twice.
    fn ratio_entries(max_len: usize) -> impl Strategy<Value = Vec<(f64, usize)>> {
        (
            proptest::collection::vec(ratio_value(), 0..=max_len.min(GENES)),
            proptest::collection::vec(0u64..u64::MAX, GENES),
        )
            .prop_map(|(ratios, draws)| {
                let mut genes: Vec<usize> = (0..GENES).collect();
                for i in (1..GENES).rev() {
                    genes.swap(i, (draws[i] % (i as u64 + 1)) as usize);
                }
                ratios.into_iter().zip(genes).collect()
            })
    }

    fn sign_strategy() -> impl Strategy<Value = SignGroup> {
        (0usize..3).prop_map(|s| match s {
            0 => SignGroup::Positive,
            1 => SignGroup::PosNeg,
            _ => SignGroup::NegPos,
        })
    }

    /// Runs the finder and the oracle on one input and fails unless they
    /// emit the same ranges bit for bit, with pairwise distinct gene sets.
    /// Returns the oracle's ranges.
    fn matches_oracle(
        ratios: &[(f64, usize)],
        sign: SignGroup,
        eps: f64,
        mx: usize,
        n_genes: usize,
        ext: RangeExtension,
    ) -> Result<Vec<RatioRange>, TestCaseError> {
        let new = find_ranges(ratios, sign, eps, mx, n_genes, ext);
        let old = oracle::find_ranges(ratios, sign, eps, mx, n_genes, ext);
        prop_assert_eq!(
            new.len(),
            old.len(),
            "range count diverged: eps={} mx={} ext={:?}",
            eps,
            mx,
            ext
        );
        for (i, (n, o)) in new.iter().zip(&old).enumerate() {
            prop_assert!(
                n.lo.to_bits() == o.lo.to_bits()
                    && n.hi.to_bits() == o.hi.to_bits()
                    && n.sign == o.sign
                    && n.kind == o.kind
                    && n.genes == o.genes,
                "range {} diverged at eps={} mx={}:\n  new {:?}\n  old {:?}",
                i,
                eps,
                mx,
                n,
                o
            );
        }
        for (i, a) in new.iter().enumerate() {
            prop_assert!(
                new[..i].iter().all(|b| b.genes != a.genes),
                "range {} repeats a gene set: {:?}",
                i,
                a
            );
        }
        Ok(old)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Tentpole safety net: the packed-key sort path must emit ranges
        /// byte-identical to the old `total_cmp` path — same values, kinds,
        /// gene-sets, and order — for arbitrary inputs in arbitrary order.
        #[test]
        fn packed_key_path_matches_totalcmp_oracle(
            ratios in ratio_entries(GENES),
            sign in sign_strategy(),
            eps_sel in 0usize..5,
            mx in 1usize..4,
            ext in proptest::bool::ANY,
        ) {
            let epsilon = [0.0, 0.005, 0.02, 0.1, 0.5][eps_sel];
            let extension = if ext { RangeExtension::On } else { RangeExtension::Off };
            // ε=0 exercises the exact-tie fast path (wide chains need ε>0).
            matches_oracle(&ratios, sign, epsilon, mx, GENES, extension)?;
        }

        /// The scratch-reusing entry point stays equivalent to the one-shot
        /// wrapper when called repeatedly with dirty buffers.
        #[test]
        fn scratch_reuse_never_leaks_state_between_calls(
            a in ratio_entries(39),
            b in ratio_entries(39),
        ) {
            let mut scratch = RangeScratch::default();
            let mut out = Vec::new();
            find_ranges_into(
                &a, SignGroup::Positive, 0.02, 2, GENES, RangeExtension::On,
                &mut scratch, &mut out,
            );
            let first = out.len();
            find_ranges_into(
                &b, SignGroup::NegPos, 0.1, 1, GENES, RangeExtension::On,
                &mut scratch, &mut out,
            );
            prop_assert_eq!(
                &out[..first],
                &find_ranges(&a, SignGroup::Positive, 0.02, 2, GENES, RangeExtension::On)[..]
            );
            prop_assert_eq!(
                &out[first..],
                &find_ranges(&b, SignGroup::NegPos, 0.1, 1, GENES, RangeExtension::On)[..]
            );
        }
    }

    /// A ladder: up to 40 ratios at exact `(1 + ε)` steps from a random
    /// base, `r(k + 1) = fl(r(k) · fl(1 + ε))` as the window walk computes
    /// its bound, each nudged by −1, 0 or +1 ulp, over distinct genes in
    /// random order. Windows, split and patched blocks all end within an
    /// ulp of a rung, so this is what reaches split and patched blocks and
    /// the one place a patched block repeats a split block. Returns the
    /// ratios with an ε and an `mx`.
    fn ladder(rng: &mut proptest::TestRng) -> (Vec<(f64, usize)>, f64, usize) {
        let eps = [0.001, 0.01, 0.0225, 0.1, 0.135, 0.5][rng.below(6) as usize];
        let eps1 = 1.0 + eps;
        let mut rungs = vec![(rng.next_f64() * 8.0 - 4.0).exp()];
        for _ in 0..1 + rng.below(12) {
            rungs.push(rungs[rungs.len() - 1] * eps1);
        }
        let n = 1 + rng.below(40) as usize;
        let mut genes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            genes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let ratios = genes
            .into_iter()
            .map(|g| {
                let rung = rungs[rng.below(rungs.len() as u64) as usize].to_bits();
                (f64::from_bits(rung + rng.below(3) - 1), g)
            })
            .collect();
        (ratios, eps, 1 + rng.below(3) as usize)
    }

    /// Checks `cases` ladders against the oracle, three in four with range
    /// extension on, and returns how many of them emitted a patched block.
    fn ladders_match_oracle(name: &str, cases: u32) -> u32 {
        let mut patched = 0u32;
        proptest::run_cases(ProptestConfig::with_cases(cases), name, |rng| {
            let (ratios, eps, mx) = ladder(rng);
            let ext = [RangeExtension::On, RangeExtension::Off][usize::from(rng.below(4) == 0)];
            let old = matches_oracle(&ratios, SignGroup::Positive, eps, mx, ratios.len(), ext)?;
            patched += u32::from(old.iter().any(|r| r.kind == RangeKind::Patched));
            Ok(())
        });
        patched
    }

    #[test]
    fn ladders_match_oracle_with_distinct_gene_sets() {
        const CASES: u32 = 2000;
        let patched = ladders_match_oracle("ladders", CASES);
        assert!(
            patched * 4 >= CASES,
            "{patched} of {CASES} ladders had patched blocks"
        );
    }

    /// The ladder comparison at scale, in release (`scripts/check.sh`):
    /// `cargo test --release -p tricluster-core --lib ladder_stress --
    /// --ignored`. Fixed seeds, like every `run_cases` test.
    #[test]
    #[ignore = "stress run; scripts/check.sh runs it in release"]
    fn ladder_stress_matches_oracle() {
        const CASES: u32 = 600_000;
        let patched = ladders_match_oracle("ladder_stress", CASES);
        assert!(
            patched * 4 >= CASES,
            "{patched} of {CASES} ladders had patched blocks"
        );
    }

    /// The one coincidence of the construction: `fl(v2 / 1.1)` rounds above
    /// `v1` while `v2 ≤ fl(v1 · 1.1)`, so the patched block around gene 2
    /// holds gene 2 alone, exactly the split block that starts there. The
    /// oracle keeps the split block only, and so must the finder.
    #[test]
    fn patched_block_equal_to_its_split_block_is_skipped() {
        let ratios: Vec<(f64, usize)> = [
            4610825060783023861u64,
            4611639684944061556,
            4612110894974295463,
        ]
        .iter()
        .enumerate()
        .map(|(g, &bits)| (f64::from_bits(bits), g))
        .collect();
        let genes_and_kinds = |rs: &[RatioRange]| -> Vec<(Vec<usize>, RangeKind)> {
            rs.iter().map(|r| (r.genes.to_vec(), r.kind)).collect()
        };
        let want = vec![(vec![0, 1], RangeKind::Split), (vec![2], RangeKind::Split)];
        let old = oracle::find_ranges(&ratios, SignGroup::Positive, 0.1, 1, 3, RangeExtension::On);
        assert_eq!(genes_and_kinds(&old), want);
        let new = find_ranges(&ratios, SignGroup::Positive, 0.1, 1, 3, RangeExtension::On);
        assert_eq!(new, old);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a gene appears more than once")]
    fn repeated_gene_breaks_the_contract() {
        find_ranges(
            &[(1.0, 0), (1.5, 1), (2.0, 0)],
            SignGroup::Positive,
            0.1,
            1,
            2,
            RangeExtension::On,
        );
    }

    /// 48 to 400 keys shaped to engage the window prefilter: tight clusters
    /// near a few centres, ε-spaced chains, exact ties and a background
    /// spread over up to `4n` window widths, in shuffled gene order, with a
    /// few unusable ratios (negative, zero, NaN) mixed in. At ε = 0 a window
    /// width is four bit patterns.
    fn windowed_ratios(rng: &mut proptest::TestRng, eps: f64) -> Vec<(f64, usize)> {
        let n = 48 + rng.below(353) as usize;
        let step = 1.0 + eps.max(4.0 * f64::EPSILON);
        let wide = 1 + rng.below(4 * n as u64);
        let base = (rng.next_f64() * 6.0 - 3.0).exp();
        let centres: Vec<f64> = (0..1 + rng.below(4))
            .map(|_| base * step.powi(rng.below(wide) as i32))
            .collect();
        let mut genes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            genes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        genes
            .into_iter()
            .map(|g| {
                let c = centres[rng.below(centres.len() as u64) as usize];
                let r = match rng.below(16) {
                    0..=5 => c * (1.0 + (step - 1.0) * rng.next_f64()),
                    6..=8 => c * step.powi(rng.below(12) as i32),
                    9 | 10 => c,
                    11..=13 => base * step.powf(rng.next_f64() * wide as f64),
                    14 => -c,
                    _ => [0.0, f64::NAN][g % 2],
                };
                (r, g)
            })
            .collect()
    }

    /// The window prefilter is exact: on inputs where it engages, the
    /// finder emits ranges byte-identical to the unfiltered oracle's, and
    /// it never reports more keys sorted than there are usable ratios. A
    /// good share of the cases must actually drop keys and still emit
    /// ranges, or the equality would prove little.
    #[test]
    fn window_prefilter_matches_unfiltered_oracle() {
        const CASES: u32 = 3000;
        let (mut filtered, mut filtered_with_ranges) = (0u32, 0u32);
        let config = ProptestConfig::with_cases(CASES);
        proptest::run_cases(config, "window_prefilter", |rng| {
            let eps = [0.0, 0.001, 0.005, 0.0225, 0.1, 0.5][rng.below(6) as usize];
            let ratios = windowed_ratios(rng, eps);
            let mx = 1 + rng.below(60) as usize;
            let ext = [RangeExtension::On, RangeExtension::Off][rng.below(2) as usize];
            let mut scratch = RangeScratch::default();
            let mut new = Vec::new();
            let sorted = find_ranges_into(
                &ratios,
                SignGroup::Positive,
                eps,
                mx,
                400,
                ext,
                &mut scratch,
                &mut new,
            );
            let old = oracle::find_ranges(&ratios, SignGroup::Positive, eps, mx, 400, ext);
            prop_assert_eq!(new.len(), old.len(), "eps={} mx={} ext={:?}", eps, mx, ext);
            for (i, (n, o)) in new.iter().zip(&old).enumerate() {
                prop_assert!(
                    n.lo.to_bits() == o.lo.to_bits()
                        && n.hi.to_bits() == o.hi.to_bits()
                        && n.kind == o.kind
                        && n.genes == o.genes,
                    "range {} diverged at eps={} mx={}:\n  new {:?}\n  old {:?}",
                    i,
                    eps,
                    mx,
                    n,
                    o
                );
            }
            let usable = ratios
                .iter()
                .filter(|&&(r, _)| r.is_finite() && r > 0.0)
                .count();
            prop_assert!(sorted <= usable);
            if usable >= mx && sorted < usable {
                filtered += 1;
                filtered_with_ranges += u32::from(!old.is_empty());
            }
            Ok(())
        });
        assert!(
            filtered * 2 >= CASES && filtered_with_ranges * 4 >= CASES,
            "{filtered} of {CASES} cases filtered, {filtered_with_ranges} of them with ranges"
        );
    }

    /// Pins the key path at a size that engages the bucket sort
    /// (`n >= 48`), on a tight span and on a subnormal next to a huge
    /// ratio.
    #[test]
    fn compact_and_wide_key_paths_match_oracle_at_bucket_size() {
        let tight: Vec<(f64, usize)> = (0..96).map(|g| (1.0 + (g % 37) as f64 * 0.01, g)).collect();
        let mut wide = tight.clone();
        wide.push((f64::MIN_POSITIVE / 2.0, 96));
        wide.push((1e300, 97));
        for ratios in [tight, wide] {
            for mx in [2, 25] {
                let new = find_ranges(
                    &ratios,
                    SignGroup::Positive,
                    0.05,
                    mx,
                    128,
                    RangeExtension::On,
                );
                let old = oracle::find_ranges(
                    &ratios,
                    SignGroup::Positive,
                    0.05,
                    mx,
                    128,
                    RangeExtension::On,
                );
                assert_eq!(new, old);
            }
        }
    }

    /// A group of 48 or more equal ratios reaches the bucket sort with a
    /// zero value span: one range holding every gene, as in the oracle.
    #[test]
    fn many_equal_ratios_form_one_range() {
        let ratios: Vec<(f64, usize)> = (0..64).rev().map(|g| (2.5, g)).collect();
        let new = find_ranges(&ratios, SignGroup::Positive, 0.0, 3, 64, RangeExtension::On);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].genes.count(), 64);
        let old = oracle::find_ranges(&ratios, SignGroup::Positive, 0.0, 3, 64, RangeExtension::On);
        assert_eq!(new, old);
    }

    #[test]
    fn sign_group_classification() {
        assert_eq!(SignGroup::classify(1.0, 2.0), Some(SignGroup::Positive));
        assert_eq!(SignGroup::classify(-1.0, -2.0), Some(SignGroup::Positive));
        assert_eq!(SignGroup::classify(1.0, -2.0), Some(SignGroup::PosNeg));
        assert_eq!(SignGroup::classify(-1.0, 2.0), Some(SignGroup::NegPos));
        assert_eq!(SignGroup::classify(0.0, 2.0), None);
        assert_eq!(SignGroup::classify(1.0, f64::NAN), None);
    }
}
