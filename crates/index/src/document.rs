//! Documents and corpus-level metadata.

/// Document identifier. Sorted docID order is what makes d-gap compression
/// and merge-based intersection work.
pub type DocId = u32;

/// Corpus statistics needed by the BM25 ranking model (paper §2.1.3):
/// document count, per-document lengths, and the average document length.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusMeta {
    /// Number of documents in the corpus.
    pub num_docs: u32,
    /// Length (token count) of each document, indexed by `DocId`.
    pub doc_lens: Vec<u32>,
    /// Average document length.
    pub avg_doc_len: f32,
}

impl CorpusMeta {
    pub fn from_doc_lens(doc_lens: Vec<u32>) -> CorpusMeta {
        let num_docs = doc_lens.len() as u32;
        let avg = if doc_lens.is_empty() {
            0.0
        } else {
            doc_lens.iter().map(|&l| l as f64).sum::<f64>() / doc_lens.len() as f64
        };
        CorpusMeta {
            num_docs,
            doc_lens,
            avg_doc_len: avg as f32,
        }
    }

    /// Synthetic corpora (generated posting lists without real documents)
    /// use a uniform document length; BM25 then degrades gracefully to a
    /// tf/idf-style score, which is all the scheduling experiments need.
    pub fn uniform(num_docs: u32, doc_len: u32) -> CorpusMeta {
        CorpusMeta {
            num_docs,
            doc_lens: Vec::new(),
            avg_doc_len: doc_len as f32,
        }
    }

    /// Document `d`'s entry in the length table: `None` for a uniform
    /// corpus or a docID past the table, which BM25 scores as average
    /// ([`crate::Bm25::contribution`]).
    #[inline]
    pub fn doc_len(&self, d: DocId) -> Option<u32> {
        self.doc_lens.get(d as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_doc_lens_computes_average() {
        let m = CorpusMeta::from_doc_lens(vec![10, 20, 30]);
        assert_eq!(m.num_docs, 3);
        assert_eq!(m.avg_doc_len, 20.0);
        assert_eq!(m.doc_len(1), Some(20));
    }

    #[test]
    fn uniform_corpus_has_no_length_table() {
        let m = CorpusMeta::uniform(1_000_000, 250);
        assert_eq!(m.avg_doc_len, 250.0);
        assert_eq!(m.doc_len(0), None);
        assert_eq!(m.doc_len(999_999), None);
    }

    #[test]
    fn empty_corpus() {
        let m = CorpusMeta::from_doc_lens(vec![]);
        assert_eq!(m.num_docs, 0);
        assert_eq!(m.avg_doc_len, 0.0);
    }
}
