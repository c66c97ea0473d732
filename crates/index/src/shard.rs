//! DocID-range sharding: slicing one index into N shard views whose
//! per-shard results merge back bit-exact.
//!
//! A shard is a contiguous docID range. Every posting list is sliced to
//! the range (docIDs stay global — no remapping), re-compressed with its
//! positions, and packaged as an [`InvertedIndex`] that carries the
//! *whole-corpus* [`CorpusMeta`](crate::document::CorpusMeta) and per-term scoring dfs (see
//! [`InvertedIndex::scoring_df`]). Because every document lives in
//! exactly one shard and every shard scores with global statistics, the
//! global top-k is a subset of the union of per-shard top-k's, and
//! merging with the engine's own comparator reproduces the unsharded
//! answer bit for bit. All query shapes shard cleanly: intersection,
//! union, difference, and phrase checks all distribute over a docID-range
//! restriction.

use griffin_codec::Codec;

use crate::posting::{CompressedPostingList, Posting};
use crate::storage::InvertedIndex;

/// How the docID space is cut into shards: contiguous, disjoint ranges
/// covering `0..num_docs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Exclusive upper docID bound of each shard; the last entry is
    /// `num_docs`. Shard `s` owns `bounds[s-1]..bounds[s]` (from 0 for
    /// the first).
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Cuts `0..num_docs` into `shards` near-equal contiguous ranges
    /// (the first `num_docs % shards` ranges get one extra document).
    pub fn even(num_docs: u32, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "at least one shard");
        let shards = shards as u32;
        let base = num_docs / shards;
        let extra = num_docs % shards;
        let mut bounds = Vec::with_capacity(shards as usize);
        let mut hi = 0u32;
        for s in 0..shards {
            hi += base + u32::from(s < extra);
            bounds.push(hi);
        }
        debug_assert_eq!(hi, num_docs);
        ShardPlan { bounds }
    }

    pub fn num_shards(&self) -> usize {
        self.bounds.len()
    }

    /// The docID range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<u32> {
        let lo = if s == 0 { 0 } else { self.bounds[s - 1] };
        lo..self.bounds[s]
    }

    /// Which shard a docID belongs to.
    pub fn shard_of(&self, docid: u32) -> usize {
        self.bounds.partition_point(|&hi| hi <= docid)
    }
}

/// Slices `index` into one shard view per [`ShardPlan`] range.
///
/// Each view holds only its range's postings (with term frequencies and
/// positions) but scores with the full corpus statistics, so running any
/// query against every shard and merging the top-k's is bit-exact with
/// running it unsharded. Construction cost is one decompress pass per
/// term (positions read forward once) and one re-compress per (term,
/// shard).
pub fn partition(index: &InvertedIndex, plan: &ShardPlan) -> Vec<InvertedIndex> {
    let codec: Codec = index.codec();
    let block_len = index.block_len();
    let num_terms = index.num_terms();
    let scoring_dfs: Vec<u32> = (0..num_terms)
        .map(|t| index.scoring_df(crate::dictionary::TermId(t as u32)) as u32)
        .collect();

    let mut shard_lists: Vec<Vec<CompressedPostingList>> = (0..plan.num_shards())
        .map(|_| Vec::with_capacity(num_terms))
        .collect();
    let (mut positions, mut counts, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..num_terms {
        let list = index.list(crate::dictionary::TermId(t as u32));
        let (docids, tfs) = list.decompress();
        // Every posting's positions, flat, in one forward pass: posting
        // `i` owns the `counts[i]` values from `positions[starts[i]]`.
        positions.clear();
        counts.clear();
        starts.clear();
        starts.push(0);
        let mut cursor = list.position_cursor();
        for i in 0..docids.len() {
            cursor.positions_into(i / block_len, i % block_len, &mut positions);
            counts.push((positions.len() - starts[i]) as u32);
            starts.push(positions.len());
        }
        for (s, shard) in shard_lists.iter_mut().enumerate() {
            let range = plan.range(s);
            let lo = docids.partition_point(|&d| d < range.start);
            let hi = docids.partition_point(|&d| d < range.end);
            let postings: Vec<Posting> = (lo..hi)
                .map(|i| Posting {
                    docid: docids[i],
                    tf: tfs[i],
                })
                .collect();
            shard.push(CompressedPostingList::compress_with_positions(
                &postings,
                &positions[starts[lo]..starts[hi]],
                &counts[lo..hi],
                codec,
                block_len,
            ));
        }
    }

    shard_lists
        .into_iter()
        .map(|lists| {
            InvertedIndex::with_scoring_dfs(
                index.dictionary().clone(),
                lists,
                index.meta().clone(),
                codec,
                block_len,
                Some(scoring_dfs.clone()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> InvertedIndex {
        let lists: Vec<Vec<u32>> = vec![
            (0..500u32).map(|i| i * 2).collect(),
            (0..200u32).map(|i| i * 5 + 1).collect(),
            vec![3, 999],
        ];
        InvertedIndex::from_docid_lists(&lists, 1000, Codec::EliasFano, 128)
    }

    #[test]
    fn even_plan_covers_and_partitions() {
        let plan = ShardPlan::even(10, 3);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..7);
        assert_eq!(plan.range(2), 7..10);
        for d in 0..10u32 {
            let s = plan.shard_of(d);
            assert!(plan.range(s).contains(&d));
        }
    }

    #[test]
    fn shards_slice_lists_and_keep_global_stats() {
        let index = sample_index();
        let plan = ShardPlan::even(index.num_docs(), 4);
        let shards = partition(&index, &plan);
        assert_eq!(shards.len(), 4);
        for t in 0..index.num_terms() {
            let term = crate::dictionary::TermId(t as u32);
            let (full_ids, full_tfs) = index.list(term).decompress();
            let mut seen_ids = Vec::new();
            let mut seen_tfs = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                assert!(shard.is_shard_view());
                // Global statistics survive the slice.
                assert_eq!(shard.num_docs(), index.num_docs());
                assert_eq!(shard.scoring_df(term), index.doc_freq(term));
                let (ids, tfs) = shard.list(term).decompress();
                assert_eq!(shard.doc_freq(term), ids.len());
                for &d in &ids {
                    assert!(plan.range(s).contains(&d), "docid {d} outside shard {s}");
                }
                seen_ids.extend(ids);
                seen_tfs.extend(tfs);
            }
            // The shards partition the list exactly (order preserved:
            // ranges are ascending and each list slice is ascending).
            assert_eq!(seen_ids, full_ids);
            assert_eq!(seen_tfs, full_tfs);
        }
    }

    #[test]
    fn shard_positions_survive_the_slice() {
        let index = sample_index();
        let plan = ShardPlan::even(index.num_docs(), 3);
        let shards = partition(&index, &plan);
        // from_docid_lists puts term t's postings at position t.
        let term = index.lookup("t1").unwrap();
        for shard in &shards {
            let list = shard.list(term);
            let mut cursor = list.position_cursor();
            let mut out = Vec::new();
            for i in 0..list.len() {
                out.clear();
                cursor.positions_into(i / shard.block_len(), i % shard.block_len(), &mut out);
                assert_eq!(out, vec![1]);
            }
        }
    }

    #[test]
    fn shard_block_ubs_use_global_idf() {
        let index = sample_index();
        let plan = ShardPlan::even(index.num_docs(), 4);
        let shards = partition(&index, &plan);
        let term = index.lookup("t0").unwrap();
        let bm = index.scorer(term);
        for shard in &shards {
            let (ids, tfs) = shard.list(term).decompress();
            let ubs = shard.block_ubs(term);
            for (i, (&d, &tf)) in ids.iter().zip(&tfs).enumerate() {
                let c = bm.contribution(tf, index.meta().doc_len(d));
                assert!(c <= ubs[i / shard.block_len()], "shard bound must hold");
            }
        }
    }
}
