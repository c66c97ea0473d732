//! Index construction from tokenized documents.

use std::collections::HashMap;

use griffin_codec::{Codec, DEFAULT_BLOCK_LEN};

use crate::dictionary::Dictionary;
use crate::document::{CorpusMeta, DocId};
use crate::posting::{CompressedPostingList, Posting};
use crate::storage::InvertedIndex;

/// Accumulates documents, then compresses everything into an
/// [`InvertedIndex`]. Documents must be added in increasing `DocId` order
/// (the standard crawl-order assignment that makes d-gaps small).
pub struct IndexBuilder {
    dictionary: Dictionary,
    postings: Vec<Vec<Posting>>,
    /// Token positions behind `postings`, flat per term: `postings[t][i]`
    /// owns the next `tf` values of `positions[t]` (phrase queries).
    positions: Vec<Vec<u32>>,
    doc_lens: Vec<u32>,
    next_docid: DocId,
    codec: Codec,
    block_len: usize,
}

impl IndexBuilder {
    pub fn new(codec: Codec) -> Self {
        IndexBuilder {
            dictionary: Dictionary::new(),
            postings: Vec::new(),
            positions: Vec::new(),
            doc_lens: Vec::new(),
            next_docid: 0,
            codec,
            block_len: DEFAULT_BLOCK_LEN,
        }
    }

    /// Overrides the block length (128 in the paper; the ablation benches
    /// sweep it).
    pub fn with_block_len(mut self, block_len: usize) -> Self {
        self.block_len = block_len;
        self
    }

    /// Adds a document; returns its assigned `DocId`.
    pub fn add_document(&mut self, tokens: &[&str]) -> DocId {
        let docid = self.next_docid;
        self.next_docid += 1;
        self.doc_lens.push(tokens.len() as u32);

        let mut occ: HashMap<&str, Vec<u32>> = HashMap::new();
        for (pos, &t) in tokens.iter().enumerate() {
            occ.entry(t).or_default().push(pos as u32);
        }
        // Deterministic posting order regardless of hash iteration order.
        let mut entries: Vec<(&str, Vec<u32>)> = occ.into_iter().collect();
        entries.sort_unstable();
        for (term, positions) in entries {
            let tid = self.dictionary.intern(term);
            if self.postings.len() <= tid.0 as usize {
                self.postings.resize_with(tid.0 as usize + 1, Vec::new);
                self.positions.resize_with(tid.0 as usize + 1, Vec::new);
            }
            self.postings[tid.0 as usize].push(Posting {
                docid,
                tf: positions.len() as u32,
            });
            self.positions[tid.0 as usize].extend_from_slice(&positions);
        }
        docid
    }

    /// Convenience for whitespace-tokenized text.
    pub fn add_text(&mut self, text: &str) -> DocId {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        self.add_document(&tokens)
    }

    /// Compresses all posting lists (with positions) and produces the
    /// final index.
    pub fn build(self) -> InvertedIndex {
        let lists: Vec<CompressedPostingList> = self
            .postings
            .iter()
            .zip(&self.positions)
            .map(|(ps, pos)| {
                let counts: Vec<u32> = ps.iter().map(|p| p.tf).collect();
                CompressedPostingList::compress_with_positions(
                    ps,
                    pos,
                    &counts,
                    self.codec,
                    self.block_len,
                )
            })
            .collect();
        InvertedIndex::new(
            self.dictionary,
            lists,
            CorpusMeta::from_doc_lens(self.doc_lens),
            self.codec,
            self.block_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_searchable_index() {
        let mut b = IndexBuilder::new(Codec::EliasFano);
        b.add_text("ppopp vienna austria 2018");
        b.add_text("vienna is in austria");
        b.add_text("ppopp 2018 deadline");
        let idx = b.build();

        assert_eq!(idx.num_docs(), 3);
        let austria = idx.lookup("austria").expect("term exists");
        let (docids, _) = idx.list(austria).decompress();
        assert_eq!(docids, vec![0, 1]);
        let ppopp = idx.lookup("ppopp").unwrap();
        let (docids, _) = idx.list(ppopp).decompress();
        assert_eq!(docids, vec![0, 2]);
        assert!(idx.lookup("munich").is_none());
    }

    #[test]
    fn term_frequencies_are_counted() {
        let mut b = IndexBuilder::new(Codec::PforDelta);
        b.add_text("data data data base");
        let idx = b.build();
        let data = idx.lookup("data").unwrap();
        let (_, tfs) = idx.list(data).decompress();
        assert_eq!(tfs, vec![3]);
        let base = idx.lookup("base").unwrap();
        let (_, tfs) = idx.list(base).decompress();
        assert_eq!(tfs, vec![1]);
    }

    #[test]
    fn doc_lens_recorded() {
        let mut b = IndexBuilder::new(Codec::EliasFano);
        b.add_text("a b c");
        b.add_text("a");
        let idx = b.build();
        assert_eq!(idx.meta().doc_len(0), Some(3));
        assert_eq!(idx.meta().doc_len(1), Some(1));
        assert_eq!(idx.meta().avg_doc_len, 2.0);
    }
}
