//! BM25 similarity (paper §2.1.3, following Robertson & Walker).
//!
//! BM25 is additive over query terms, which the engines exploit: the
//! intermediate result carries an accumulated partial score, and each
//! pairwise intersection adds the new term's contribution for the
//! surviving documents — no re-touching of earlier lists.
//!
//! The parameters live in this crate because the index builder bakes
//! per-block score upper bounds under them ([`crate::InvertedIndex::bm25`]);
//! pruning is only sound when engines score with the *same* parameters,
//! and they do: neither engine has parameters of its own to set.

use crate::document::CorpusMeta;

/// BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25 {
    pub k1: f32,
    pub b: f32,
}

impl Default for Bm25 {
    fn default() -> Self {
        Bm25 { k1: 1.2, b: 0.75 }
    }
}

impl Bm25 {
    /// Robertson–Sparck-Jones IDF with the +1 floor that keeps common terms
    /// non-negative.
    pub fn idf(&self, num_docs: u32, doc_freq: u32) -> f32 {
        let n = num_docs as f32;
        let df = doc_freq as f32;
        (((n - df + 0.5) / (df + 0.5)) + 1.0).ln()
    }

    /// One term's score contribution for a document.
    #[inline]
    pub fn contribution(&self, idf: f32, tf: u32, doc_len: f32, avg_doc_len: f32) -> f32 {
        let tf = tf as f32;
        let norm = if avg_doc_len > 0.0 {
            self.k1 * (1.0 - self.b + self.b * doc_len / avg_doc_len)
        } else {
            self.k1
        };
        idf * (tf * (self.k1 + 1.0)) / (tf + norm)
    }

    /// Convenience: contribution using corpus metadata.
    #[inline]
    pub fn score_one(&self, meta: &CorpusMeta, doc_freq: u32, docid: u32, tf: u32) -> f32 {
        let idf = self.idf(meta.num_docs, doc_freq);
        self.contribution(idf, tf, meta.doc_len(docid), meta.avg_doc_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_decreases_with_document_frequency() {
        let bm = Bm25::default();
        let rare = bm.idf(1_000_000, 10);
        let common = bm.idf(1_000_000, 500_000);
        assert!(rare > common);
        assert!(common > 0.0, "idf stays positive with the +1 floor");
    }

    #[test]
    fn contribution_saturates_in_tf() {
        let bm = Bm25::default();
        let idf = 2.0;
        let c1 = bm.contribution(idf, 1, 100.0, 100.0);
        let c2 = bm.contribution(idf, 2, 100.0, 100.0);
        let c3 = bm.contribution(idf, 3, 100.0, 100.0);
        let c100 = bm.contribution(idf, 100, 100.0, 100.0);
        assert!(c2 > c1);
        assert!(c100 < idf * (bm.k1 + 1.0), "bounded by idf * (k1+1)");
        assert!(c3 - c2 < c2 - c1, "diminishing marginal returns");
    }

    #[test]
    fn longer_documents_are_penalized() {
        let bm = Bm25::default();
        let short = bm.contribution(2.0, 3, 50.0, 100.0);
        let long = bm.contribution(2.0, 3, 500.0, 100.0);
        assert!(short > long);
    }

    #[test]
    fn uniform_corpus_scoring_is_stable() {
        let bm = Bm25::default();
        let meta = CorpusMeta::uniform(1000, 300);
        let s = bm.score_one(&meta, 50, 7, 2);
        assert!(s.is_finite() && s > 0.0);
    }
}
