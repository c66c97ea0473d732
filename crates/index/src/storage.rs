//! The in-memory inverted index ("we assume the whole dataset has been
//! loaded in the host main memory", paper §4.1).

use griffin_codec::Codec;

use crate::dictionary::{Dictionary, TermId};
use crate::document::CorpusMeta;
use crate::posting::CompressedPostingList;
use crate::rank::Bm25;

/// A searchable, compressed, in-memory inverted index.
///
/// Construction additionally bakes *block-max* metadata: for every
/// posting-list block, the largest BM25 contribution any posting in the
/// block can produce, under the term's own [`InvertedIndex::scorer`].
/// Top-k pruning compares these upper bounds against the current heap
/// floor to skip blocks that cannot change the result.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dictionary: Dictionary,
    lists: Vec<CompressedPostingList>,
    meta: CorpusMeta,
    codec: Codec,
    block_len: usize,
    /// Per term, per docID block: max BM25 contribution of any posting in
    /// the block (aligned with `lists[t].docs.skips`).
    block_ubs: Vec<Vec<f32>>,
    /// For a shard view (see [`crate::shard`]): the *whole corpus*
    /// document frequency of each term. BM25's idf — and the df-sorted
    /// plan order it implies — must see global statistics on every
    /// shard, or shard scores drift from the unsharded engine's.
    /// `None` for a complete index, where the list length is the df.
    scoring_dfs: Option<Vec<u32>>,
}

impl InvertedIndex {
    pub fn new(
        dictionary: Dictionary,
        lists: Vec<CompressedPostingList>,
        meta: CorpusMeta,
        codec: Codec,
        block_len: usize,
    ) -> Self {
        Self::with_scoring_dfs(dictionary, lists, meta, codec, block_len, None)
    }

    /// Builds a docID-range *shard view*: the lists hold only this
    /// shard's slice of each posting list (docIDs stay global), while
    /// `meta` and `scoring_dfs` carry whole-corpus statistics so idf,
    /// document lengths, and the df-sorted term order — and therefore
    /// every f32 score bit — match the unsharded index exactly. The
    /// block upper bounds are computed under the same global idf, so
    /// block-max pruning stays exact on the shard.
    pub fn with_scoring_dfs(
        dictionary: Dictionary,
        lists: Vec<CompressedPostingList>,
        meta: CorpusMeta,
        codec: Codec,
        block_len: usize,
        scoring_dfs: Option<Vec<u32>>,
    ) -> Self {
        if let Some(dfs) = &scoring_dfs {
            assert_eq!(dfs.len(), lists.len(), "one scoring df per term");
        }
        let mut index = InvertedIndex {
            dictionary,
            lists,
            meta,
            codec,
            block_len,
            block_ubs: Vec::new(),
            scoring_dfs,
        };
        index.block_ubs = index.compute_block_ubs();
        index
    }

    /// Builds an index directly from generated docID lists (synthetic
    /// workloads): list `i` becomes the posting list of a term named
    /// `t{i}`, with every posting at in-document position `i`. Term
    /// frequencies default to 1. The position convention makes a phrase
    /// over consecutive synthetic terms (`"t3 t4"`) equivalent to their
    /// intersection — a convenient testable identity.
    pub fn from_docid_lists(
        docid_lists: &[Vec<u32>],
        num_docs: u32,
        codec: Codec,
        block_len: usize,
    ) -> Self {
        let mut dictionary = Dictionary::new();
        let lists: Vec<CompressedPostingList> = docid_lists
            .iter()
            .enumerate()
            .map(|(i, ids)| {
                dictionary.intern(&format!("t{i}"));
                CompressedPostingList::from_docids_at_position(ids, i as u32, codec, block_len)
            })
            .collect();
        Self::new(
            dictionary,
            lists,
            CorpusMeta::uniform(num_docs, 300),
            codec,
            block_len,
        )
    }

    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.dictionary.lookup(term)
    }

    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The posting list of a term.
    pub fn list(&self, term: TermId) -> &CompressedPostingList {
        &self.lists[term.0 as usize]
    }

    /// Document frequency (list length) of a term. On a shard view this
    /// is the *local* posting count — the right signal for work and
    /// placement estimates, the wrong one for scoring (use
    /// [`InvertedIndex::scoring_df`]).
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.list(term).len()
    }

    /// The document frequency BM25 must score with: the whole-corpus df
    /// on a shard view, the list length otherwise. Everything that feeds
    /// idf — or decides the df-sorted fold order of a score — goes
    /// through here, so sharding never moves a score bit.
    pub fn scoring_df(&self, term: TermId) -> usize {
        match &self.scoring_dfs {
            Some(dfs) => dfs[term.0 as usize] as usize,
            None => self.doc_freq(term),
        }
    }

    /// `term`'s BM25 scorer: its idf from [`InvertedIndex::scoring_df`],
    /// so a shard view scores exactly as the whole index does.
    pub fn scorer(&self, term: TermId) -> Bm25 {
        Bm25::new(
            self.meta.num_docs,
            self.scoring_df(term) as u32,
            self.meta.avg_doc_len,
        )
    }

    /// The order a conjunction of `terms` runs in, and so the order its
    /// BM25 contributions add up in: ascending [`InvertedIndex::scoring_df`],
    /// stable (ties keep the caller's order). f32 addition is not
    /// associative, so this order is part of every score bit: the
    /// planner and every chain executor take it from here, and a shard
    /// view orders by the same whole-corpus dfs as the unsharded index.
    pub fn chain_order(&self, terms: &[TermId]) -> Vec<TermId> {
        let mut order = terms.to_vec();
        order.sort_by_key(|&t| self.scoring_df(t));
        order
    }

    /// Whether this index is a docID-range shard view of a larger corpus.
    pub fn is_shard_view(&self) -> bool {
        self.scoring_dfs.is_some()
    }

    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    pub fn num_docs(&self) -> u32 {
        self.meta.num_docs
    }

    pub fn meta(&self) -> &CorpusMeta {
        &self.meta
    }

    pub fn codec(&self) -> Codec {
        self.codec
    }

    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Per-block BM25 score upper bounds of a term's posting list,
    /// aligned with its docID blocks.
    pub fn block_ubs(&self, term: TermId) -> &[f32] {
        &self.block_ubs[term.0 as usize]
    }

    /// Total compressed size of all posting lists, in bits.
    pub fn size_bits(&self) -> u64 {
        self.lists.iter().map(|l| l.size_bits() as u64).sum()
    }

    /// One decompression pass per list: the exact max contribution per
    /// block. Scores with [`InvertedIndex::scorer`], as the engines do,
    /// so `exact_score <= partial + ub[block]` holds bit-for-bit (f32 max
    /// of the very values the engine will compute).
    fn compute_block_ubs(&self) -> Vec<Vec<f32>> {
        let mut docids: Vec<u32> = Vec::new();
        let mut tfs: Vec<u32> = Vec::new();
        self.lists
            .iter()
            .enumerate()
            .map(|(t, list)| {
                let scorer = self.scorer(TermId(t as u32));
                (0..list.num_blocks())
                    .map(|b| {
                        docids.clear();
                        tfs.clear();
                        list.decode_block_into(b, &mut docids, &mut tfs);
                        docids
                            .iter()
                            .zip(&tfs)
                            .map(|(&d, &tf)| scorer.contribution(tf, self.meta.doc_len(d)))
                            .fold(f32::NEG_INFINITY, f32::max)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_docid_lists_creates_terms() {
        let lists = vec![vec![1u32, 5, 9], vec![2u32, 5, 8, 9, 20]];
        let idx = InvertedIndex::from_docid_lists(&lists, 100, Codec::EliasFano, 128);
        assert_eq!(idx.num_terms(), 2);
        let t0 = idx.lookup("t0").unwrap();
        let t1 = idx.lookup("t1").unwrap();
        assert_eq!(idx.doc_freq(t0), 3);
        assert_eq!(idx.doc_freq(t1), 5);
        let (ids, _) = idx.list(t1).decompress();
        assert_eq!(ids, lists[1]);
        assert_eq!(idx.num_docs(), 100);
    }

    #[test]
    fn size_accounting() {
        let lists = vec![(1u32..=1000).map(|i| i * 2).collect::<Vec<_>>()];
        let idx = InvertedIndex::from_docid_lists(&lists, 2001, Codec::EliasFano, 128);
        assert!(idx.size_bits() > 0);
        assert!(idx.size_bits() < 1000 * 32);
    }

    #[test]
    fn block_ubs_bound_every_contribution() {
        let lists = vec![(0u32..1000).map(|i| i * 3 + 1).collect::<Vec<_>>()];
        let idx = InvertedIndex::from_docid_lists(&lists, 5000, Codec::EliasFano, 128);
        let t0 = idx.lookup("t0").unwrap();
        let list = idx.list(t0);
        let ubs = idx.block_ubs(t0);
        assert_eq!(ubs.len(), list.num_blocks());
        let bm = idx.scorer(t0);
        let (docids, tfs) = list.decompress();
        for (i, (&d, &tf)) in docids.iter().zip(&tfs).enumerate() {
            let c = bm.contribution(tf, idx.meta().doc_len(d));
            let block = i / idx.block_len();
            assert!(c <= ubs[block], "posting {i} exceeds its block bound");
        }
        // Uniform tf + uniform doc length → the bound is tight.
        assert!(ubs.iter().all(|&u| u > 0.0 && u.is_finite()));
    }

    #[test]
    fn chain_order_is_by_scoring_df_and_stable() {
        // List lengths 3, 1, 3, 2.
        let lists = [vec![1u32, 2, 3], vec![4], vec![5, 6, 7], vec![8, 9]];
        let idx = InvertedIndex::from_docid_lists(&lists, 100, Codec::EliasFano, 128);
        let t: Vec<TermId> = (0..4).map(TermId).collect();
        let order = idx.chain_order(&t);
        assert_eq!(order, [t[1], t[3], t[0], t[2]]);
        // Ties keep the caller's order.
        assert_eq!(idx.chain_order(&[t[2], t[0]]), [t[2], t[0]]);
        // A shard view orders by the whole-corpus dfs it was given.
        let shard = InvertedIndex::with_scoring_dfs(
            idx.dictionary().clone(),
            idx.lists.clone(),
            idx.meta().clone(),
            Codec::EliasFano,
            128,
            Some(vec![9, 8, 7, 6]),
        );
        assert_eq!(shard.chain_order(&t), [t[3], t[2], t[1], t[0]]);
    }

    #[test]
    fn synthetic_positions_follow_the_list_index() {
        let lists = vec![vec![4u32, 8], vec![4u32, 9]];
        let idx = InvertedIndex::from_docid_lists(&lists, 100, Codec::EliasFano, 128);
        let mut out = Vec::new();
        idx.list(idx.lookup("t1").unwrap())
            .position_cursor()
            .positions_into(0, 0, &mut out);
        assert_eq!(out, vec![1]);
    }
}
