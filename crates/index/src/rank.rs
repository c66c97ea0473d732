//! BM25 similarity (paper §2.1.3, following Robertson & Walker).
//!
//! BM25 is additive over query terms, which the engines exploit: the
//! intermediate result carries an accumulated partial score, and each
//! pairwise intersection adds the new term's contribution for the
//! surviving documents — no re-touching of earlier lists.
//!
//! Griffin moves single operations between the CPU and the GPU, so both
//! must build the same intermediate with the same score bits. Each input
//! of a score bit therefore has one owner, and every scorer calls it: the
//! parameters and the formula are this module's, a term's idf comes from
//! [`crate::InvertedIndex::scorer`] (its scoring df), and the fold order
//! of a conjunction from [`crate::InvertedIndex::chain_order`]. The CPU
//! steps, the pruned verifier, both device score kernels and the index's
//! block-max bounds all score through [`Bm25::contribution`].

/// BM25's `k1` and `b`, Robertson & Walker's defaults.
const K1: f32 = 1.2;
const B: f32 = 0.75;

/// One term's BM25 scorer: the term's idf and the corpus's average
/// document length, everything a contribution reads besides the tf and
/// the document's length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25 {
    idf: f32,
    avg_doc_len: f32,
}

impl Bm25 {
    /// The scorer of a term found in `doc_freq` of `num_docs` documents:
    /// Robertson–Sparck-Jones IDF with the +1 floor that keeps common
    /// terms non-negative.
    pub fn new(num_docs: u32, doc_freq: u32, avg_doc_len: f32) -> Bm25 {
        let n = num_docs as f32;
        let df = doc_freq as f32;
        Bm25 {
            idf: (((n - df + 0.5) / (df + 0.5)) + 1.0).ln(),
            avg_doc_len,
        }
    }

    /// The term's contribution to a document it occurs in `tf` times.
    /// `doc_len` is the document's entry in the length table
    /// ([`crate::CorpusMeta::doc_len`]); where the table has none (a
    /// uniform synthetic corpus, a docID past its end) the document
    /// counts as average.
    #[inline]
    pub fn contribution(self, tf: u32, doc_len: Option<u32>) -> f32 {
        let doc_len = doc_len.map_or(self.avg_doc_len, |len| len as f32);
        let tf = tf as f32;
        let norm = if self.avg_doc_len > 0.0 {
            K1 * (1.0 - B + B * doc_len / self.avg_doc_len)
        } else {
            K1
        };
        self.idf * (tf * (K1 + 1.0)) / (tf + norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusMeta;

    #[test]
    fn idf_decreases_with_document_frequency() {
        let rare = Bm25::new(1_000_000, 10, 100.0).contribution(1, None);
        let common = Bm25::new(1_000_000, 500_000, 100.0).contribution(1, None);
        assert!(rare > common);
        assert!(common > 0.0, "idf stays positive with the +1 floor");
    }

    #[test]
    fn contribution_saturates_in_tf() {
        let bm = Bm25::new(1_000, 100, 100.0);
        let c = |tf| bm.contribution(tf, Some(100));
        let (c1, c2, c3) = (c(1), c(2), c(3));
        assert!(c2 > c1);
        assert!(c(100) < bm.idf * (K1 + 1.0), "bounded by idf * (k1+1)");
        assert!(c3 - c2 < c2 - c1, "diminishing marginal returns");
    }

    #[test]
    fn longer_documents_are_penalized() {
        let bm = Bm25::new(1_000, 100, 100.0);
        assert!(bm.contribution(3, Some(50)) > bm.contribution(3, Some(500)));
    }

    /// Pins the bits of every contribution over tf 1..=1000, documents
    /// of length 0, short, average and long and one past the length
    /// table, dfs from 1 to the whole corpus, and a corpus of average
    /// length 0. Every engine and the reference score through this one
    /// formula, so an algebraic rewrite of it (a reordered product, a
    /// hoisted division) would pass every agreement test; this digest
    /// fails it. FNV-1a over the little-endian score bits.
    #[test]
    fn contribution_bits_match_the_golden_digest() {
        let metas = [
            CorpusMeta {
                num_docs: 1_000_000,
                doc_lens: vec![0, 10, 150, 440],
                avg_doc_len: 150.0,
            },
            CorpusMeta {
                num_docs: 1_000_000,
                doc_lens: Vec::new(),
                avg_doc_len: 0.0,
            },
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for meta in &metas {
            for df in [1, 2, 10, 1_000, 100_000, 500_000, 999_999, 1_000_000] {
                let bm = Bm25::new(meta.num_docs, df, meta.avg_doc_len);
                for d in 0..=4 {
                    for tf in 1..=1_000 {
                        let bits = bm.contribution(tf, meta.doc_len(d)).to_bits();
                        for byte in bits.to_le_bytes() {
                            digest ^= u64::from(byte);
                            digest = digest.wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x5cbe_0627_88d3_3eff);
    }
}
