//! Pairwise list-intersection algorithms on the CPU (paper §2.1.2, §2.2).
//!
//! Three algorithms, matching the paper's CPU discussion. The engine picks
//! merge or skip search by the lists' length ratio
//! ([`crate::CpuEngine::intersect_step`]); plain binary search is only
//! Fig. 13's baseline.
//!
//! * [`merge_intersect`] — linear merge over decompressed lists; the
//!   right choice when lengths are comparable (ample spatial locality).
//!   Its matches come from the match walk it shares with the set
//!   operators, which charges the two-pointer merge's steps in closed
//!   form.
//! * [`skip_intersect`] — for each element of the short list, binary search
//!   the *skip pointers* of the compressed long list, decompress only the
//!   candidate block, and binary search inside it. When the ratio is large
//!   this skips most comparisons *and* most decompression.
//! * [`binary_intersect_decoded`] — plain binary search over a decompressed
//!   long list; the "CPU binary" baseline of Fig. 13.
//!
//! All functions produce [`Matches`]: the common docIDs plus, for each
//! match, the element's position in both inputs, so the engine can gather
//! term frequencies for scoring without re-searching.

use std::mem::MaybeUninit;
use std::ops::Range;

use griffin_codec::BlockedList;
use griffin_index::CompressedPostingList;

use crate::cost::WorkCounters;
use crate::decode::decode_block;
use crate::simd::KernelPath;

/// The result of a pairwise intersection, with provenance indices.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Matches {
    /// Common docIDs, ascending.
    pub docids: Vec<u32>,
    /// For each match, its index in the first (short) input.
    pub a_idx: Vec<u32>,
    /// For each match, its index in the second (long) input — a global
    /// element index for compressed inputs.
    pub b_idx: Vec<u32>,
}

impl Matches {
    pub fn len(&self) -> usize {
        self.docids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docids.is_empty()
    }

    fn push(&mut self, docid: u32, a: usize, b: usize) {
        self.docids.push(docid);
        self.a_idx.push(a as u32);
        self.b_idx.push(b as u32);
    }
}

/// Linear merge intersection of two sorted, decompressed lists.
///
/// Charges `merge_steps` as the two-pointer merge would, one per loop
/// iteration, in closed form from where that merge stops (`merge_stop`);
/// the walk that finds the matches (`match_walk`) is free to be faster.
pub fn merge_intersect(a: &[u32], b: &[u32], w: &mut WorkCounters) -> Matches {
    let out = match_walk(a, b);
    let (a_end, b_end) = merge_stop(a, b);
    w.merge_steps += (a_end + b_end - out.len()) as u64;
    w.emitted += out.len() as u64;
    out
}

/// Where the two-pointer merge of the strictly ascending `a` and `b`
/// stops: `(i, j)` when one side runs out. The merge consumes `a` up to
/// and including its last element `<=` the last of `b`, and `b` likewise,
/// and each iteration consumes one element of one side, or one of each
/// on a match, so it made `i + j - matches` iterations. Every set
/// operator charges its merge steps from this closed form.
pub(crate) fn merge_stop(a: &[u32], b: &[u32]) -> (usize, usize) {
    match (a.last(), b.last()) {
        (Some(&a_last), Some(&b_last)) => (
            a.partition_point(|&x| x <= b_last),
            b.partition_point(|&y| y <= a_last),
        ),
        _ => (0, 0),
    }
}

/// The one match walk behind [`merge_intersect`],
/// [`crate::setops::intersect_sets`] and [`crate::setops::difference`]:
/// every docID common to the strictly ascending `a` and `b`, with its
/// index in each, ascending. It charges nothing; its callers charge the
/// two-pointer merge's counts in closed form ([`merge_stop`]).
///
/// On AVX2, sides within [`crate::simd::BLOCK_RATIO`] of each other are
/// first walked eight by eight ([`crate::simd::match_blocks`]). What is
/// left is walked by two branch-free pointers when the sides are within
/// 2× of each other, and otherwise by ranking each element of the
/// shorter side in the longer one, skipping eight elements at a time.
pub(crate) fn match_walk(a: &[u32], b: &[u32]) -> Matches {
    match_walk_on(a, b, crate::simd::active_path())
}

/// [`match_walk`] on the given kernel path.
fn match_walk_on(a: &[u32], b: &[u32], path: KernelPath) -> Matches {
    // Every step stores its candidate before it knows whether it
    // matched, at slot `k` (eight slots from `k` in the AVX2 blocks), so
    // the slots reach eight past the most matches there can be.
    let cap = a.len().min(b.len()) + 8;
    let mut out = Matches {
        docids: Vec::with_capacity(cap),
        a_idx: Vec::with_capacity(cap),
        b_idx: Vec::with_capacity(cap),
    };
    let mut slots = Slots {
        docids: out.docids.spare_capacity_mut(),
        a_idx: out.a_idx.spare_capacity_mut(),
        b_idx: out.b_idx.spare_capacity_mut(),
    };
    let (i, j, k) = crate::simd::match_blocks(a, b, &mut slots, path);
    let (rest_a, rest_b) = (&a[i..], &b[j..]);
    let k = if rest_a.len().max(rest_b.len()) <= 2 * rest_a.len().min(rest_b.len()) {
        two_pointer_walk(rest_a, rest_b, (i, j), k, &mut slots)
    } else if rest_a.len() < rest_b.len() {
        skip_walk(rest_a, rest_b, (i, j), k, &mut slots)
    } else {
        let mut swapped = Slots {
            docids: &mut *slots.docids,
            a_idx: &mut *slots.b_idx,
            b_idx: &mut *slots.a_idx,
        };
        skip_walk(rest_b, rest_a, (j, i), k, &mut swapped)
    };
    // SAFETY: every walk writes slot `k` of all three before it counts
    // a match there, so slots `0..k` are initialised, and `k <= cap`.
    unsafe {
        out.docids.set_len(k);
        out.a_idx.set_len(k);
        out.b_idx.set_len(k);
    }
    out
}

/// The spare capacity a match walk stores into: one candidate per slot,
/// its docID and its index in each side.
pub(crate) struct Slots<'a> {
    pub(crate) docids: &'a mut [MaybeUninit<u32>],
    pub(crate) a_idx: &'a mut [MaybeUninit<u32>],
    pub(crate) b_idx: &'a mut [MaybeUninit<u32>],
}

impl Slots<'_> {
    /// The number of slots (the shortest of the three).
    pub(crate) fn len(&self) -> usize {
        self.docids
            .len()
            .min(self.a_idx.len())
            .min(self.b_idx.len())
    }

    fn put(&mut self, k: usize, docid: u32, a: usize, b: usize) {
        self.docids[k].write(docid);
        self.a_idx[k].write(a as u32);
        self.b_idx[k].write(b as u32);
    }
}

/// Branch-free two-pointer walk of `a` and `b`, whose first elements sit
/// at `at` in the caller's lists; stores matches from slot `k` and
/// returns the new match count.
fn two_pointer_walk(
    a: &[u32],
    b: &[u32],
    at: (usize, usize),
    mut k: usize,
    slots: &mut Slots<'_>,
) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        slots.put(k, x, at.0 + i, at.1 + j);
        k += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    k
}

/// Ranks each element of `short` in `long`: skips eight elements of
/// `long` at a time, then finds the rank within the next eight by a
/// branch-free binary search. `at` is where the two slices start in the
/// caller's lists (`slots.a_idx` takes `short`'s indices); stores
/// matches from slot `k` and returns the new match count.
fn skip_walk(
    short: &[u32],
    long: &[u32],
    at: (usize, usize),
    mut k: usize,
    slots: &mut Slots<'_>,
) -> usize {
    let mut j = 0usize;
    for (i, &x) in short.iter().enumerate() {
        while j + 8 <= long.len() && long[j + 7] < x {
            j += 8;
        }
        match long[j..].first_chunk::<8>() {
            // The eighth is >= x, so the rank is below eight.
            Some(eight) => {
                let mut p = 4 * usize::from(eight[3] < x);
                p += 2 * usize::from(eight[p + 1] < x);
                p += usize::from(eight[p] < x);
                j += p;
            }
            None => j += long[j..].iter().take_while(|&&y| y < x).count(),
        }
        let Some(&y) = long.get(j) else {
            break; // `x` and everything after it lie past `long`
        };
        slots.put(k, x, at.0 + i, at.1 + j);
        k += usize::from(x == y);
    }
    k
}

/// Counts probes of a manual binary search for `target` in
/// `hay[lo..hi)`; returns `Ok(pos)` on hit, `Err(insertion_pos)` on miss.
fn counted_binary_search(
    hay: &[u32],
    mut lo: usize,
    mut hi: usize,
    target: u32,
    probes: &mut u64,
) -> Result<usize, usize> {
    while lo < hi {
        *probes += 1;
        let mid = lo + (hi - lo) / 2;
        match hay[mid].cmp(&target) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Binary-search intersection over fully decompressed inputs ("CPU binary").
/// The search window's low bound advances monotonically since `a` is sorted.
pub fn binary_intersect_decoded(a: &[u32], b: &[u32], w: &mut WorkCounters) -> Matches {
    let mut out = Matches::default();
    let mut lo = 0usize;
    for (i, &v) in a.iter().enumerate() {
        match counted_binary_search(b, lo, b.len(), v, &mut w.probes) {
            Ok(pos) => {
                out.push(v, i, pos);
                lo = pos + 1;
            }
            Err(pos) => lo = pos,
        }
        if lo >= b.len() {
            break;
        }
    }
    w.emitted += out.len() as u64;
    out
}

/// Probes a binary-search halving loop would spend on an `n`-wide window:
/// `ceil(log2(n + 1))`. Used only to report how much galloping saved.
fn binary_probe_estimate(n: u64) -> u64 {
    (u64::BITS - n.leading_zeros()) as u64
}

/// Galloping (exponential-then-binary) search over `skips[start..hi_block)`
/// for the first block whose `last_docid >= v`; returns `hi_block` when no
/// such block exists in the range.
///
/// Because the short list is sorted, consecutive targets land in the same
/// or a nearby block, so the search probes `start` first and then doubles
/// its stride — O(log distance) instead of O(log window). Probes are
/// charged to `skip_probes` exactly like the plain binary search they
/// replace; the probes *avoided* relative to binary-searching the whole
/// window accumulate in `gallop_saved` (informational, not priced).
fn gallop_skip_search(
    skips: &[griffin_codec::SkipEntry],
    start: usize,
    hi_block: usize,
    v: u32,
    w: &mut WorkCounters,
) -> usize {
    debug_assert!(start < hi_block && hi_block <= skips.len());
    let window = (hi_block - start) as u64;
    let mut probes = 1u64;
    if skips[start].last_docid >= v {
        w.skip_probes += probes;
        w.gallop_saved += binary_probe_estimate(window).saturating_sub(probes);
        return start;
    }
    // skips[start] falls short: gallop forward with doubling strides until
    // a pointer at or past v brackets the answer.
    let mut step = 1usize;
    let mut lo = start + 1; // smallest index not yet known to be < v
    let mut hi = hi_block;
    loop {
        let idx = start + step;
        if idx >= hi_block {
            break;
        }
        probes += 1;
        if skips[idx].last_docid >= v {
            hi = idx;
            break;
        }
        lo = idx + 1;
        step *= 2;
    }
    while lo < hi {
        probes += 1;
        let mid = lo + (hi - lo) / 2;
        if skips[mid].last_docid < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    w.skip_probes += probes;
    w.gallop_saved += binary_probe_estimate(window).saturating_sub(probes);
    lo
}

/// Skip-pointer intersection: `short` (decompressed) against blocks
/// `blocks` of `long` (compressed), all of them or the CPU lane's range
/// of a co-executed split. Each element of `short` gallops the skip
/// pointers to its candidate block and binary-searches inside it.
///
/// A candidate block's docIDs come from `decoded`, the full decode of
/// `long` (what [`crate::decode::decode_list`] returns, the host tier's
/// copy), when it is given; otherwise the block is decompressed, once
/// while the sorted `short` stays in it. The walk charges the same
/// counters either way, minus the decode charges (`blocks_decoded`,
/// `bytes_touched`, codec element counts) on a decoded copy, so a copy
/// changes no bit and never raises the modelled time.
///
/// Returned `b_idx` are global element indices into `long`, so partial
/// results from disjoint ranges concatenate into exactly what the whole
/// range returns.
pub fn skip_intersect(
    short: &[u32],
    long: &BlockedList,
    blocks: Range<usize>,
    decoded: Option<&[u32]>,
    w: &mut WorkCounters,
) -> Matches {
    let mut out = Matches::default();
    let hi_block = blocks.end.min(long.num_blocks());
    if blocks.start >= hi_block {
        return out;
    }
    debug_assert!(
        decoded.is_none_or(|d| d.len() == long.len()),
        "decoded copy must be complete"
    );
    // Grown to one block by the first decode (every decoder reserves its
    // block's count), and not at all on a decoded copy.
    let mut block_buf = Vec::new();
    let mut cached_block = usize::MAX;
    let mut skip_lo = blocks.start; // blocks before this can't match (short sorted)

    for (i, &v) in short.iter().enumerate() {
        let lo = gallop_skip_search(&long.skips, skip_lo, hi_block, v, w);
        if lo >= hi_block {
            break; // v and everything after it is beyond the range
        }
        skip_lo = lo;
        let skip = &long.skips[lo];
        if v < skip.first_docid {
            continue; // falls in the gap before this block
        }
        let start = skip.elem_start as usize;
        let block = match decoded {
            Some(d) => &d[start..start + skip.count as usize],
            None => {
                if cached_block != lo {
                    block_buf.clear();
                    decode_block(long, lo, &mut block_buf, w);
                    cached_block = lo;
                }
                &block_buf[..]
            }
        };
        if let Ok(pos) = crate::simd::find_in_sorted_block(block, v, &mut w.probes) {
            out.push(v, i, start + pos);
        }
    }
    w.emitted += out.len() as u64;
    out
}

/// Gathers the term frequencies of `long`-side matches. `b_idx` must be
/// ascending (which [`skip_intersect`]/[`merge_intersect`] guarantee).
pub fn gather_tfs(list: &CompressedPostingList, b_idx: &[u32], w: &mut WorkCounters) -> Vec<u32> {
    let mut out = Vec::with_capacity(b_idx.len());
    let mut tf_buf = Vec::new();
    // The elements of the block in `tf_buf` (none yet).
    let mut cached = 0..0;
    for &gi in b_idx {
        let gi = gi as usize;
        if !cached.contains(&gi) {
            // Blocks are block_len-sized except the last, so integer
            // division is exact; it runs once per block, not per match.
            let blk = gi / list.docs.block_len;
            tf_buf.clear();
            list.decode_block_into_tfs_only(blk, &mut tf_buf);
            w.varint_elements += tf_buf.len() as u64;
            w.blocks_decoded += 1;
            let start = blk * list.docs.block_len;
            cached = start..start + tf_buf.len();
        }
        out.push(tf_buf[gi - cached.start]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Intermediate;
    use griffin_codec::{Codec, DEFAULT_BLOCK_LEN};
    use griffin_index::Posting;

    fn wc() -> WorkCounters {
        WorkCounters::default()
    }

    #[test]
    fn paper_example_intersection() {
        // ℓ(PPoPP) ∩ ℓ(Austria) ∩ ℓ(2018) from paper §2.1.2.
        let ppopp = vec![11u32, 15, 17, 38, 60];
        let austria = vec![3u32, 5, 8, 11, 13, 15, 17, 38, 46, 60, 65];
        let y2018 = vec![2u32, 4, 6, 11, 13, 14, 15, 19, 25, 33, 38, 60, 70];
        let mut w = wc();
        let m1 = merge_intersect(&ppopp, &austria, &mut w);
        assert_eq!(m1.docids, vec![11, 15, 17, 38, 60]);
        let m2 = merge_intersect(&m1.docids, &y2018, &mut w);
        assert_eq!(m2.docids, vec![11, 15, 38, 60]);
    }

    #[test]
    fn merge_indices_point_back() {
        let a = vec![1u32, 5, 9, 12];
        let b = vec![2u32, 5, 9, 13];
        let m = merge_intersect(&a, &b, &mut wc());
        assert_eq!(m.docids, vec![5, 9]);
        assert_eq!(m.a_idx, vec![1, 2]);
        assert_eq!(m.b_idx, vec![1, 2]);
    }

    #[test]
    fn merge_counts_steps() {
        let a = vec![1u32, 3, 5];
        let b = vec![2u32, 4, 6];
        let mut w = wc();
        merge_intersect(&a, &b, &mut w);
        assert!(w.merge_steps >= 5, "steps = {}", w.merge_steps);
    }

    #[test]
    fn binary_matches_merge() {
        let a: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let b: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let m1 = merge_intersect(&a, &b, &mut wc());
        let m2 = binary_intersect_decoded(&a, &b, &mut wc());
        assert_eq!(m1.docids, m2.docids);
        assert_eq!(m1.b_idx, m2.b_idx);
    }

    #[test]
    fn skip_intersect_matches_merge_and_skips_blocks() {
        let short: Vec<u32> = (0..50u32).map(|i| i * 4001 + 7).collect();
        let long: Vec<u32> = (0..100_000u32).map(|i| i * 2 + 1).collect();
        let compressed = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let nb = compressed.num_blocks();

        let mut w_merge = wc();
        let expect = merge_intersect(&short, &long, &mut w_merge);

        let mut w_skip = wc();
        let got = skip_intersect(&short, &compressed, 0..nb, None, &mut w_skip);
        assert_eq!(got.docids, expect.docids);
        assert_eq!(got.b_idx, expect.b_idx);

        // The whole point: far fewer blocks touched than exist.
        assert!(
            w_skip.blocks_decoded < nb as u64 / 4,
            "decoded {} of {nb} blocks",
            w_skip.blocks_decoded,
        );
    }

    #[test]
    fn skip_intersect_handles_gaps_and_overruns() {
        // Long list with docid gaps between blocks; short list probing the
        // gaps and beyond the end.
        let long: Vec<u32> = (0..300u32).map(|i| i * 10).collect();
        let compressed = BlockedList::compress(&long, Codec::PforDelta, 128);
        let short = vec![5u32, 15, 1275, 2990, 5000, 6000];
        let m = skip_intersect(
            &short,
            &compressed,
            0..compressed.num_blocks(),
            None,
            &mut wc(),
        );
        assert_eq!(m.docids, vec![2990]);
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = vec![];
        let some = vec![1u32, 2];
        assert!(merge_intersect(&empty, &some, &mut wc()).is_empty());
        assert!(binary_intersect_decoded(&empty, &some, &mut wc()).is_empty());
        let list = BlockedList::compress(&some, Codec::EliasFano, 128);
        assert!(skip_intersect(&empty, &list, 0..list.num_blocks(), None, &mut wc()).is_empty());
    }

    /// The pre-galloping skip search: a plain binary search over the full
    /// remaining skip window. Kept verbatim as the reference the galloping
    /// version must match element-for-element.
    fn reference_skip_intersect(
        short: &[u32],
        long: &BlockedList,
        w: &mut WorkCounters,
    ) -> Matches {
        let mut out = Matches::default();
        if long.num_blocks() == 0 {
            return out;
        }
        let mut cached_block = usize::MAX;
        let mut block_buf: Vec<u32> = Vec::new();
        let mut skip_lo = 0usize;
        for (i, &v) in short.iter().enumerate() {
            let mut lo = skip_lo;
            let mut hi = long.num_blocks();
            while lo < hi {
                w.skip_probes += 1;
                let mid = lo + (hi - lo) / 2;
                if long.skips[mid].last_docid < v {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo >= long.num_blocks() {
                break;
            }
            skip_lo = lo;
            let skip = &long.skips[lo];
            if v < skip.first_docid {
                continue;
            }
            if cached_block != lo {
                block_buf.clear();
                decode_block(long, lo, &mut block_buf, w);
                cached_block = lo;
            }
            if let Ok(pos) = counted_binary_search(&block_buf, 0, block_buf.len(), v, &mut w.probes)
            {
                out.push(v, i, skip.elem_start as usize + pos);
            }
        }
        w.emitted += out.len() as u64;
        out
    }

    /// SplitMix64 — deterministic pseudo-random stream for the property
    /// sweeps (no external rand dependency).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_sorted(rng: &mut u64, n: usize, max_gap: u64) -> Vec<u32> {
        let mut cur = 0u64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            cur += 1 + splitmix(rng) % max_gap;
            out.push(cur as u32);
        }
        out
    }

    /// The two-pointer merge the set operators ran before the match
    /// walk, one `merge_steps` per loop iteration: the intersection (with
    /// both indices and summed score bits), the union and the difference
    /// of `a` and `b`, each with the steps its operator charged (the loop,
    /// plus the tails `union` and `difference` append).
    #[derive(Default)]
    struct Lockstep {
        inter: (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, u64),
        union: (Vec<u32>, Vec<u32>, u64),
        diff: (Vec<u32>, Vec<u32>, u64),
    }

    fn lockstep(a: &Intermediate, b: &Intermediate) -> Lockstep {
        let mut r = Lockstep::default();
        let (mut i, mut j, mut steps) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            steps += 1;
            let (x, y) = (a.docids[i], b.docids[j]);
            let (sx, sy) = (a.scores[i], b.scores[j]);
            if x < y {
                r.union.0.push(x);
                r.union.1.push(sx.to_bits());
                r.diff.0.push(x);
                r.diff.1.push(sx.to_bits());
                i += 1;
            } else if x > y {
                r.union.0.push(y);
                r.union.1.push(sy.to_bits());
                j += 1;
            } else {
                r.inter.0.push(x);
                r.inter.1.push(i as u32);
                r.inter.2.push(j as u32);
                r.inter.3.push((sx + sy).to_bits());
                r.union.0.push(x);
                r.union.1.push((sx + sy).to_bits());
                i += 1;
                j += 1;
            }
        }
        r.inter.4 = steps;
        for (d, s) in a.docids[i..].iter().zip(&a.scores[i..]) {
            r.union.0.push(*d);
            r.union.1.push(s.to_bits());
            r.diff.0.push(*d);
            r.diff.1.push(s.to_bits());
        }
        for (d, s) in b.docids[j..].iter().zip(&b.scores[j..]) {
            r.union.0.push(*d);
            r.union.1.push(s.to_bits());
        }
        r.union.2 = steps + (a.len() - i + b.len() - j) as u64;
        r.diff.2 = steps + (a.len() - i) as u64;
        r
    }

    fn charged(merge_steps: u64, emitted: usize) -> WorkCounters {
        WorkCounters {
            merge_steps,
            emitted: emitted as u64,
            ..WorkCounters::default()
        }
    }

    /// Every operator built on the match walk against [`lockstep`]:
    /// docIDs, indices, score bits and every counter; and the walk itself
    /// on each kernel path this host has.
    fn assert_lockstep(a: &Intermediate, b: &Intermediate, what: &str) {
        use crate::setops;
        let r = lockstep(a, b);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

        let mut w = wc();
        let m = merge_intersect(&a.docids, &b.docids, &mut w);
        assert_eq!(m.docids, r.inter.0, "{what}: merge_intersect docids");
        assert_eq!(m.a_idx, r.inter.1, "{what}: merge_intersect a_idx");
        assert_eq!(m.b_idx, r.inter.2, "{what}: merge_intersect b_idx");
        assert_eq!(
            w,
            charged(r.inter.4, m.len()),
            "{what}: merge_intersect counters"
        );
        let mut paths = vec![KernelPath::Scalar];
        if crate::simd::avx2_available() {
            paths.push(KernelPath::Avx2);
        }
        for path in paths {
            // Also from unaligned starts: each side behind 1 to 7 junk
            // words, so no vector load can assume a 32-byte boundary.
            for off in 0..8 {
                let pad = |v: &[u32]| [&vec![u32::MAX; off][..], v].concat();
                let (pa, pb) = (pad(&a.docids), pad(&b.docids));
                assert_eq!(
                    match_walk_on(&pa[off..], &pb[off..], path),
                    m,
                    "{what}: {path:?} walk, offset {off}"
                );
            }
        }

        let mut w = wc();
        let got = setops::intersect_sets(a, b, &mut w);
        assert_eq!(got.docids, r.inter.0, "{what}: intersect_sets docids");
        assert_eq!(
            bits(&got.scores),
            r.inter.3,
            "{what}: intersect_sets scores"
        );
        assert_eq!(
            w,
            charged(r.inter.4, got.len()),
            "{what}: intersect_sets counters"
        );

        let mut w = wc();
        let got = setops::union(a, b, &mut w);
        assert_eq!(got.docids, r.union.0, "{what}: union docids");
        assert_eq!(bits(&got.scores), r.union.1, "{what}: union scores");
        assert_eq!(w, charged(r.union.2, got.len()), "{what}: union counters");

        let mut w = wc();
        let got = setops::difference(a, b, &mut w);
        assert_eq!(got.docids, r.diff.0, "{what}: difference docids");
        assert_eq!(bits(&got.scores), r.diff.1, "{what}: difference scores");
        assert_eq!(
            w,
            charged(r.diff.2, got.len()),
            "{what}: difference counters"
        );
    }

    fn scored(rng: &mut u64, docids: Vec<u32>) -> Intermediate {
        let scores = docids
            .iter()
            .map(|_| (splitmix(rng) % 10_000) as f32 / 7.0)
            .collect();
        Intermediate { docids, scores }
    }

    /// The match walk and the closed-form `merge_steps` of the four set
    /// operators equal the two-pointer merge, step for step, on sets the
    /// seed draws at length ratios 1 to 1000 and on the edges: empty,
    /// disjoint and identical sides, a final match on the last element of
    /// either side, and `u32::MAX`. Set `GRIFFIN_FAULT_SEED` to draw
    /// others. Fails if the closed form misses a match on a last element
    /// (`<` for `<=` in [`merge_stop`]), or if a skip or block reads past
    /// a side's end.
    #[test]
    fn match_walk_is_in_lockstep_with_the_two_pointer_merge() {
        let seed = std::env::var("GRIFFIN_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_3A7C);
        let mut rng = seed;
        let mut cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (
                (0..40).map(|i| 2 * i).collect(),
                (0..40).map(|i| 2 * i + 1).collect(),
            ),
            ((0..30).collect(), (100..400).collect()),
            (
                (0..100).map(|i| i * 3).collect(),
                (0..100).map(|i| i * 3).collect(),
            ),
            // A final match on the last element of one side, then the other.
            ((0..20).map(|i| i * 5).collect(), (0..200).collect()),
            ((0..17).map(|i| i * 9 + 4).collect(), vec![4, 50, 76, 148]),
            (
                vec![0, 7, u32::MAX - 1, u32::MAX],
                (0..64).chain([u32::MAX]).collect(),
            ),
            (
                (u32::MAX - 40..=u32::MAX).collect(),
                (u32::MAX - 90..=u32::MAX).step_by(3).collect(),
            ),
        ];
        for ratio in [1usize, 2, 3, 5, 8, 15, 16, 17, 24, 100, 1000] {
            for (short_max, hit_per_mille) in [(9usize, 500u64), (70, 0), (400, 200), (2_000, 900)]
            {
                let short_n = 1 + (splitmix(&mut rng) as usize % short_max).min(20_000 / ratio);
                let gap = 1 + splitmix(&mut rng) % 9;
                let long = random_sorted(&mut rng, short_n * ratio, gap);
                let mut short: Vec<u32> = random_sorted(&mut rng, short_n, 4 * ratio as u64)
                    .into_iter()
                    .map(|v| {
                        if splitmix(&mut rng) % 1000 < hit_per_mille {
                            long[splitmix(&mut rng) as usize % long.len()]
                        } else {
                            v
                        }
                    })
                    .collect();
                short.sort_unstable();
                short.dedup();
                cases.push((short, long));
            }
        }
        for (k, (x, y)) in cases.into_iter().enumerate() {
            let (x, y) = (scored(&mut rng, x), scored(&mut rng, y));
            assert_lockstep(&x, &y, &format!("seed {seed} case {k}"));
            assert_lockstep(&y, &x, &format!("seed {seed} case {k} swapped"));
        }
    }

    #[test]
    fn galloping_search_is_bit_exact_with_binary_search() {
        let mut rng = 0x5eed_u64;
        for (codec, short_n, long_n, short_gap, long_gap) in [
            (Codec::EliasFano, 40usize, 50_000usize, 5_000u64, 3u64),
            (Codec::EliasFano, 2_000, 50_000, 60, 3),
            (Codec::PforDelta, 500, 20_000, 7, 7), // dense overlap, tiny strides
            (Codec::EliasFano, 1, 10_000, 1, 9),
            (Codec::PforDelta, 3_000, 3_000, 4, 4), // comparable lengths
        ] {
            let long = random_sorted(&mut rng, long_n, long_gap);
            let mut short = random_sorted(&mut rng, short_n, short_gap);
            // Force some exact hits so the equal path is exercised too.
            for (k, s) in short.iter_mut().enumerate() {
                if k % 3 == 0 {
                    *s = long[(splitmix(&mut rng) as usize) % long.len()];
                }
            }
            short.sort_unstable();
            short.dedup();
            let compressed = BlockedList::compress(&long, codec, DEFAULT_BLOCK_LEN);
            let nb = compressed.num_blocks();

            let mut w_ref = wc();
            let expect = reference_skip_intersect(&short, &compressed, &mut w_ref);
            let mut w_gallop = wc();
            let got = skip_intersect(&short, &compressed, 0..nb, None, &mut w_gallop);

            assert_eq!(got, expect, "codec {codec:?} short_n {short_n}");
            // Same candidate blocks decoded, same in-block probes.
            assert_eq!(w_gallop.blocks_decoded, w_ref.blocks_decoded);
            assert_eq!(w_gallop.probes, w_ref.probes);
        }
    }

    #[test]
    fn galloping_saves_probes_on_clustered_short_lists() {
        // A dense short list marches block-to-block: galloping finds each
        // next block in O(1)-ish probes where binary search pays the full
        // log(window) every time.
        let long: Vec<u32> = (0..200_000u32).map(|i| i * 2).collect();
        let short: Vec<u32> = (0..4_000u32).map(|i| i * 7).collect();
        let compressed = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let nb = compressed.num_blocks();

        let mut w_ref = wc();
        reference_skip_intersect(&short, &compressed, &mut w_ref);
        let mut w_gallop = wc();
        skip_intersect(&short, &compressed, 0..nb, None, &mut w_gallop);

        assert!(
            w_gallop.skip_probes < w_ref.skip_probes,
            "gallop {} vs binary {}",
            w_gallop.skip_probes,
            w_ref.skip_probes
        );
        assert!(w_gallop.gallop_saved > 0);
    }

    #[test]
    fn range_partitions_concatenate_to_the_full_result() {
        let mut rng = 0xc0ffee_u64;
        let long = random_sorted(&mut rng, 60_000, 5);
        let short = random_sorted(&mut rng, 900, 300);
        let compressed = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let nb = compressed.num_blocks();

        let full = skip_intersect(&short, &compressed, 0..nb, None, &mut wc());
        for split in [0usize, 1, nb / 3, nb / 2, nb - 1, nb] {
            // Partition the short list at the boundary docid, mirroring the
            // engine's split: GPU lane takes blocks [0, split), CPU lane
            // [split, nb).
            let boundary = if split < nb {
                compressed.skips[split].first_docid
            } else {
                u32::MAX
            };
            let cut = short.partition_point(|&v| v < boundary);
            let lo_part = skip_intersect(&short[..cut], &compressed, 0..split, None, &mut wc());
            let hi_part = skip_intersect(&short[cut..], &compressed, split..nb, None, &mut wc());
            let mut docids = lo_part.docids.clone();
            docids.extend_from_slice(&hi_part.docids);
            let mut b_idx = lo_part.b_idx.clone();
            b_idx.extend_from_slice(&hi_part.b_idx);
            // a_idx from the high lane are relative to short[cut..].
            let mut a_idx = lo_part.a_idx.clone();
            a_idx.extend(hi_part.a_idx.iter().map(|&a| a + cut as u32));
            assert_eq!(docids, full.docids, "split at block {split}");
            assert_eq!(b_idx, full.b_idx, "split at block {split}");
            assert_eq!(a_idx, full.a_idx, "split at block {split}");
        }
    }

    #[test]
    fn cached_range_intersect_is_bit_exact_and_skips_decode() {
        let mut rng = 0xcafe_u64;
        let long = random_sorted(&mut rng, 60_000, 5);
        let short = random_sorted(&mut rng, 900, 300);
        for codec in [Codec::EliasFano, Codec::PforDelta] {
            let compressed = BlockedList::compress(&long, codec, DEFAULT_BLOCK_LEN);
            let nb = compressed.num_blocks();
            for (lo, hi) in [(0usize, nb), (0, nb / 2), (nb / 3, nb), (nb / 2, nb / 2)] {
                let mut w_dec = wc();
                let expect = skip_intersect(&short, &compressed, lo..hi, None, &mut w_dec);
                let mut w_cached = wc();
                let got = skip_intersect(&short, &compressed, lo..hi, Some(&long), &mut w_cached);
                assert_eq!(got, expect, "codec {codec:?} range {lo}..{hi}");
                // Identical search work, zero decode work: every counter
                // the decoding walk charges but the decode's own.
                let search_only = WorkCounters {
                    pfor_elements: 0,
                    pfor_exceptions: 0,
                    ef_elements: 0,
                    varint_elements: 0,
                    blocks_decoded: 0,
                    bytes_touched: 0,
                    ..w_dec
                };
                assert_eq!(w_cached, search_only, "codec {codec:?} range {lo}..{hi}");
                assert!(w_dec.blocks_decoded > 0 || lo == hi);
            }
        }
    }

    #[test]
    fn gather_tfs_aligns_with_matches() {
        let postings: Vec<Posting> = (0..400u32)
            .map(|i| Posting {
                docid: i * 3,
                tf: i % 7 + 1,
            })
            .collect();
        let list = CompressedPostingList::compress(&postings, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let b_idx = vec![0u32, 127, 128, 399];
        let tfs = gather_tfs(&list, &b_idx, &mut wc());
        assert_eq!(
            tfs,
            vec![
                postings[0].tf,
                postings[127].tf,
                postings[128].tf,
                postings[399].tf
            ]
        );
    }
}
