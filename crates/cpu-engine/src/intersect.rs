//! Pairwise list-intersection algorithms on the CPU (paper §2.1.2, §2.2).
//!
//! Three strategies, matching the paper's CPU discussion:
//!
//! * [`merge_intersect`] — linear two-pointer merge over decompressed
//!   lists; the right choice when lengths are comparable (ample spatial
//!   locality, predictable branches).
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

use griffin_codec::BlockedList;
use griffin_index::CompressedPostingList;

use crate::cost::WorkCounters;
use crate::decode::decode_block;

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
pub fn merge_intersect(a: &[u32], b: &[u32], w: &mut WorkCounters) -> Matches {
    let mut out = Matches::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        w.merge_steps += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i], i, j);
                i += 1;
                j += 1;
            }
        }
    }
    w.emitted += out.len() as u64;
    out
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

/// Reusable per-query decode scratch: the candidate-block buffer and the
/// tf-decode buffer that [`skip_intersect`]/[`gather_tfs`] would otherwise
/// allocate fresh on every pairwise operation. The hybrid engine keeps one
/// per query and threads it through the `_with` entry points; buffers are
/// cleared (not shrunk) between operations, so the high-water capacity is
/// paid once per query instead of once per op.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Decoded docids of the most recent candidate block.
    pub block_buf: Vec<u32>,
    /// Decoded term frequencies of the most recent tf block.
    pub tf_buf: Vec<u32>,
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

/// Skip-pointer intersection: `short` (decompressed) against `long`
/// (compressed). Only candidate blocks of `long` are decompressed; a
/// one-block cache exploits the monotone access pattern. Returned `b_idx`
/// are global element indices into `long`.
pub fn skip_intersect(short: &[u32], long: &BlockedList, w: &mut WorkCounters) -> Matches {
    skip_intersect_range(short, long, 0, long.num_blocks(), w)
}

/// [`skip_intersect`] restricted to blocks `[lo_block, hi_block)` of the
/// long list — the CPU lane of a co-executed split. `b_idx` stay *global*
/// element indices, so partial results from disjoint ranges concatenate
/// into exactly what the unrestricted call would return.
pub fn skip_intersect_range(
    short: &[u32],
    long: &BlockedList,
    lo_block: usize,
    hi_block: usize,
    w: &mut WorkCounters,
) -> Matches {
    let mut scratch = QueryScratch::default();
    skip_intersect_range_with(short, long, lo_block, hi_block, w, &mut scratch)
}

/// [`skip_intersect_range`] with a caller-provided decode scratch.
pub fn skip_intersect_range_with(
    short: &[u32],
    long: &BlockedList,
    lo_block: usize,
    hi_block: usize,
    w: &mut WorkCounters,
    scratch: &mut QueryScratch,
) -> Matches {
    let mut out = Matches::default();
    let hi_block = hi_block.min(long.num_blocks());
    if lo_block >= hi_block {
        return out;
    }
    let mut cached_block = usize::MAX;
    let block_buf = &mut scratch.block_buf;
    let mut skip_lo = lo_block; // blocks before this can't match (short sorted)

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
        if cached_block != lo {
            block_buf.clear();
            decode_block(long, lo, block_buf, w);
            cached_block = lo;
        }
        if let Ok(pos) = crate::simd::find_in_sorted_block(block_buf, v, &mut w.probes) {
            out.push(v, i, skip.elem_start as usize + pos);
        }
    }
    w.emitted += out.len() as u64;
    out
}

/// [`skip_intersect_range_with`] against a *host-cached decoded copy* of
/// the long list: identical galloping skip search and in-block binary
/// probes, but candidate "blocks" are slices of `decoded` instead of
/// being decompressed on demand.
///
/// `decoded` must be the full decode of `long` (what
/// [`crate::decode::decode_list`] returns). The probe sequence mirrors
/// the decoding variant exactly — same `skip_probes`, same in-block
/// `probes`, same `emitted` — and only the per-block decode charges
/// (`blocks_decoded`, `bytes_touched`, codec element counts) are
/// omitted, so the result is bit-identical and the modelled time is
/// provably never higher.
pub fn skip_intersect_range_cached(
    short: &[u32],
    long: &BlockedList,
    decoded: &[u32],
    lo_block: usize,
    hi_block: usize,
    w: &mut WorkCounters,
) -> Matches {
    let mut out = Matches::default();
    let hi_block = hi_block.min(long.num_blocks());
    if lo_block >= hi_block {
        return out;
    }
    debug_assert_eq!(decoded.len(), long.len(), "decoded copy must be complete");
    let mut skip_lo = lo_block; // blocks before this can't match (short sorted)

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
        let block = &decoded[start..start + skip.count as usize];
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
    let mut scratch = QueryScratch::default();
    gather_tfs_with(list, b_idx, w, &mut scratch)
}

/// [`gather_tfs`] with a caller-provided decode scratch.
pub fn gather_tfs_with(
    list: &CompressedPostingList,
    b_idx: &[u32],
    w: &mut WorkCounters,
    scratch: &mut QueryScratch,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(b_idx.len());
    let mut cached_block = usize::MAX;
    let tf_buf = &mut scratch.tf_buf;
    for &gi in b_idx {
        let gi = gi as usize;
        // Block index from the element index: blocks are block_len-sized
        // except the last, so integer division is exact.
        let blk = gi / list.docs.block_len;
        if blk != cached_block {
            tf_buf.clear();
            list.decode_block_into_tfs_only(blk, tf_buf);
            w.varint_elements += tf_buf.len() as u64;
            w.blocks_decoded += 1;
            cached_block = blk;
        }
        out.push(tf_buf[gi - blk * list.docs.block_len]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let mut w_merge = wc();
        let expect = merge_intersect(&short, &long, &mut w_merge);

        let mut w_skip = wc();
        let got = skip_intersect(&short, &compressed, &mut w_skip);
        assert_eq!(got.docids, expect.docids);
        assert_eq!(got.b_idx, expect.b_idx);

        // The whole point: far fewer blocks touched than exist.
        assert!(
            w_skip.blocks_decoded < compressed.num_blocks() as u64 / 4,
            "decoded {} of {} blocks",
            w_skip.blocks_decoded,
            compressed.num_blocks()
        );
    }

    #[test]
    fn skip_intersect_handles_gaps_and_overruns() {
        // Long list with docid gaps between blocks; short list probing the
        // gaps and beyond the end.
        let long: Vec<u32> = (0..300u32).map(|i| i * 10).collect();
        let compressed = BlockedList::compress(&long, Codec::PforDelta, 128);
        let short = vec![5u32, 15, 1275, 2990, 5000, 6000];
        let m = skip_intersect(&short, &compressed, &mut wc());
        assert_eq!(m.docids, vec![2990]);
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = vec![];
        let some = vec![1u32, 2];
        assert!(merge_intersect(&empty, &some, &mut wc()).is_empty());
        assert!(binary_intersect_decoded(&empty, &some, &mut wc()).is_empty());
        let list = BlockedList::compress(&some, Codec::EliasFano, 128);
        assert!(skip_intersect(&empty, &list, &mut wc()).is_empty());
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

            let mut w_ref = wc();
            let expect = reference_skip_intersect(&short, &compressed, &mut w_ref);
            let mut w_gallop = wc();
            let got = skip_intersect(&short, &compressed, &mut w_gallop);

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

        let mut w_ref = wc();
        reference_skip_intersect(&short, &compressed, &mut w_ref);
        let mut w_gallop = wc();
        skip_intersect(&short, &compressed, &mut w_gallop);

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

        let full = skip_intersect(&short, &compressed, &mut wc());
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
            let mut scratch = QueryScratch::default();
            let lo_part = skip_intersect_range_with(
                &short[..cut],
                &compressed,
                0,
                split,
                &mut wc(),
                &mut scratch,
            );
            let hi_part = skip_intersect_range_with(
                &short[cut..],
                &compressed,
                split,
                nb,
                &mut wc(),
                &mut scratch,
            );
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
                let mut scratch = QueryScratch::default();
                let expect = skip_intersect_range_with(
                    &short,
                    &compressed,
                    lo,
                    hi,
                    &mut w_dec,
                    &mut scratch,
                );
                let mut w_cached = wc();
                let got =
                    skip_intersect_range_cached(&short, &compressed, &long, lo, hi, &mut w_cached);
                assert_eq!(got, expect, "codec {codec:?} range {lo}..{hi}");
                // Identical search work, zero decode work.
                assert_eq!(w_cached.skip_probes, w_dec.skip_probes);
                assert_eq!(w_cached.probes, w_dec.probes);
                assert_eq!(w_cached.emitted, w_dec.emitted);
                assert_eq!(w_cached.blocks_decoded, 0);
                assert_eq!(w_cached.bytes_touched, 0);
                assert_eq!(w_cached.pfor_elements + w_cached.ef_elements, 0);
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
