//! Synthetic corpora.
//!
//! Two levels: a small *text* corpus generator (Zipfian vocabulary,
//! lognormal-ish document lengths) that exercises the full tokenize →
//! build → compress path for the examples, and a *list-level* index
//! generator that synthesizes posting lists directly at the Fig. 10 scale
//! without materializing documents.

use griffin_codec::{Codec, DEFAULT_BLOCK_LEN};
use griffin_index::{
    CompressedPostingList, CorpusMeta, Dictionary, IndexBuilder, InvertedIndex, Posting,
};
use rand::Rng;

use crate::lists::sample_list_len;
use crate::zipf::Zipf;

/// Parameters for a small document corpus.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    pub num_docs: usize,
    pub vocab_size: usize,
    pub avg_doc_len: usize,
    pub codec: Codec,
    /// Word burstiness (Church & Gale): the probability that a token
    /// repeats a word already used in the same document instead of
    /// drawing fresh from the vocabulary. Real text is bursty — a word
    /// that appears once in a document tends to recur — which is what
    /// gives term frequencies their heavy within-document tail (and
    /// block-max scores something to discriminate on). 0 disables.
    pub burstiness: f64,
    /// Heavy-tailed document lengths (Pareto-ish, exponent `1/skew`)
    /// with docIDs assigned in *length order* — a stand-in for the
    /// URL-order docID assignment real indexes use, which clusters
    /// similar documents. Length clustering is what gives per-block
    /// score upper bounds their spread: BM25's length normalization
    /// pushes whole blocks of long documents below the top-k floor.
    /// 0 disables (uniform ±50% lengths, arrival-order docIDs).
    pub length_skew: f64,
    /// Posting-list block length. Block-max pruning trades index size
    /// for bound tightness: smaller blocks mean finer per-block upper
    /// bounds (the BMW literature favours 32-64 over the decode-friendly
    /// 128). Defaults to the codec's [`DEFAULT_BLOCK_LEN`].
    pub block_len: usize,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            num_docs: 2_000,
            vocab_size: 5_000,
            avg_doc_len: 120,
            codec: Codec::EliasFano,
            burstiness: 0.0,
            length_skew: 0.0,
            block_len: DEFAULT_BLOCK_LEN,
        }
    }
}

/// Builds a text-derived index: documents of Zipf-drawn words
/// ("w0", "w1", ...), doc lengths varying ±50% around the average.
/// With [`CorpusSpec::burstiness`] set, repeats are drawn uniformly
/// from the document's earlier tokens — a rich-get-richer process, so
/// within-document term frequencies come out power-law-ish like real
/// text rather than thin like independent draws.
pub fn build_text_index<R: Rng + ?Sized>(spec: &CorpusSpec, rng: &mut R) -> InvertedIndex {
    let zipf = Zipf::new(spec.vocab_size as u64, 1.0);
    let mut builder = IndexBuilder::new(spec.codec).with_block_len(spec.block_len);
    let mut docs: Vec<Vec<String>> = Vec::with_capacity(spec.num_docs);
    for _ in 0..spec.num_docs {
        let len = if spec.length_skew > 0.0 {
            // Pareto-ish tail: most documents short, a long tail of
            // template-heavy giants, capped at 8x the average.
            let u: f64 = rng.gen::<f64>().max(1e-9);
            let heavy = spec.avg_doc_len as f64 * u.powf(-spec.length_skew) / 2.0;
            (heavy as usize).clamp(spec.avg_doc_len / 4, spec.avg_doc_len * 8)
        } else {
            rng.gen_range(spec.avg_doc_len / 2..=spec.avg_doc_len * 3 / 2)
        };
        let mut tokens: Vec<String> = Vec::with_capacity(len);
        for _ in 0..len {
            if !tokens.is_empty() && rng.gen::<f64>() < spec.burstiness {
                let echo = rng.gen_range(0..tokens.len());
                tokens.push(tokens[echo].clone());
            } else {
                tokens.push(format!("w{}", zipf.sample(rng) - 1));
            }
        }
        docs.push(tokens);
    }
    if spec.length_skew > 0.0 {
        // URL-order stand-in: cluster similar (here: similar-length)
        // documents so per-block bounds stay tight.
        docs.sort_by_key(Vec::len);
    }
    for tokens in &docs {
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        builder.add_document(&refs);
    }
    builder.build()
}

/// Parameters for a list-level synthetic index (the experiment scale).
#[derive(Debug, Clone)]
pub struct ListIndexSpec {
    /// Terms (posting lists) to generate.
    pub num_terms: usize,
    /// Document universe size.
    pub num_docs: u32,
    /// Longest generated list (paper max: 26 M; experiments scale down).
    pub max_list_len: usize,
    pub codec: Codec,
    pub block_len: usize,
}

impl Default for ListIndexSpec {
    fn default() -> Self {
        ListIndexSpec {
            num_terms: 64,
            num_docs: 4_000_000,
            max_list_len: 2_000_000,
            codec: Codec::EliasFano,
            block_len: 128,
        }
    }
}

/// Generates posting lists with Fig. 10-shaped lengths, *correlated*
/// cross-list structure (shared dense docID regions, as crawl-ordered web
/// corpora have), returning both the compressed index and the raw lists
/// (benches reuse the raw docids as ground truth).
pub fn build_list_index<R: Rng + ?Sized>(
    spec: &ListIndexSpec,
    rng: &mut R,
) -> (InvertedIndex, Vec<Vec<u32>>) {
    let lists = gen_index_lists(spec, rng);
    let index = InvertedIndex::from_docid_lists(&lists, spec.num_docs, spec.codec, spec.block_len);
    (index, lists)
}

/// The docID lists [`build_list_index`] compresses, one per term.
fn gen_index_lists<R: Rng + ?Sized>(spec: &ListIndexSpec, rng: &mut R) -> Vec<Vec<u32>> {
    let lens: Vec<usize> = (0..spec.num_terms)
        .map(|_| {
            sample_list_len(rng, spec.max_list_len)
                .min(spec.num_docs as usize / 2)
                .max(100)
        })
        .collect();
    crate::lists::gen_correlated_lists(rng, &lens, spec.num_docs)
}

/// One uncompressed posting: a document and the term's positions in it,
/// ascending. Its tf is the number of positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawPosting {
    pub docid: u32,
    pub positions: Vec<u32>,
}

impl RawPosting {
    pub fn tf(&self) -> u32 {
        self.positions.len() as u32
    }
}

/// An index together with the uncompressed postings it was built from,
/// so a reference can compute answers without reading the index.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub index: InvertedIndex,
    /// Per term, in [`griffin_index::TermId`] order: its postings,
    /// docIDs ascending.
    pub postings: Vec<Vec<RawPosting>>,
}

impl Corpus {
    /// [`build_list_index`]'s lists (same shape, same draws), built by
    /// [`Corpus::draw`] with the tfs and document lengths drawn from a
    /// copy of `rng`: `rng` ends where `build_list_index` leaves it, so
    /// what the caller draws next (a query log) does not move when that
    /// drawing changes.
    pub fn from_spec<R: Rng + Clone>(spec: &ListIndexSpec, rng: &mut R) -> Corpus {
        let lists = gen_index_lists(spec, rng);
        let mut draw_rng = rng.clone();
        Corpus::draw(
            &lists,
            spec.num_docs,
            spec.codec,
            spec.block_len,
            &mut draw_rng,
        )
    }

    /// Builds an index over `lists` the way
    /// [`InvertedIndex::from_docid_lists`] does (list `i` is term `t{i}`),
    /// except that every posting draws its tf and its positions, and
    /// every document its length. A tf runs from 1 to 1 000, heavy-tailed
    /// (half are 1, P(tf >= k) = 1/k, so about one in 130 takes two VByte
    /// bytes), so a tf read from the wrong element or decoded from the
    /// wrong bytes changes a score's bits; a posting has that many
    /// positions `i + n·j` (`n` lists), the `j` ascending in steps of 1
    /// or 2 from 0 or 1. Only consecutive terms can form a phrase, and
    /// `"t3 t4"` matches in about two thirds of the documents holding
    /// both. Each of the `num_docs` documents then draws a length from 1
    /// to 600, so a length read for the wrong document changes a score's
    /// bits too; the tfs come first, so they are the ones the same `rng`
    /// gave before lengths were drawn.
    pub fn draw<R: Rng + ?Sized>(
        lists: &[Vec<u32>],
        num_docs: u32,
        codec: Codec,
        block_len: usize,
        rng: &mut R,
    ) -> Corpus {
        let stride = lists.len() as u32;
        let mut dictionary = Dictionary::new();
        let mut compressed = Vec::with_capacity(lists.len());
        let postings: Vec<Vec<RawPosting>> = lists
            .iter()
            .enumerate()
            .map(|(i, ids)| {
                dictionary.intern(&format!("t{i}"));
                let raw: Vec<RawPosting> = ids
                    .iter()
                    .map(|&docid| {
                        let tf = (1.0 / rng.gen::<f64>().max(0.001)) as u32;
                        let mut j = rng.gen_range(0..2u32);
                        let positions = (0..tf)
                            .map(|_| {
                                let p = i as u32 + stride * j;
                                j += rng.gen_range(1..=2);
                                p
                            })
                            .collect();
                        RawPosting { docid, positions }
                    })
                    .collect();
                let flat: Vec<u32> = raw
                    .iter()
                    .flat_map(|p| p.positions.iter().copied())
                    .collect();
                let counts: Vec<u32> = raw.iter().map(RawPosting::tf).collect();
                let tfs: Vec<Posting> = raw
                    .iter()
                    .map(|p| Posting {
                        docid: p.docid,
                        tf: p.tf(),
                    })
                    .collect();
                compressed.push(CompressedPostingList::compress_with_positions(
                    &tfs, &flat, &counts, codec, block_len,
                ));
                raw
            })
            .collect();
        let doc_lens = (0..num_docs).map(|_| rng.gen_range(1..=600)).collect();
        let meta = CorpusMeta::from_doc_lens(doc_lens);
        let index = InvertedIndex::new(dictionary, compressed, meta, codec, block_len);
        Corpus { index, postings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn text_index_is_searchable() {
        let spec = CorpusSpec {
            num_docs: 200,
            vocab_size: 300,
            avg_doc_len: 50,
            codec: Codec::EliasFano,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let idx = build_text_index(&spec, &mut rng);
        assert_eq!(idx.num_docs(), 200);
        // The most common word must exist and have a long list.
        let w0 = idx.lookup("w0").expect("rank-1 word present");
        assert!(idx.doc_freq(w0) > 50, "df(w0) = {}", idx.doc_freq(w0));
        // Fetch-and-decode works.
        let (ids, tfs) = idx.list(w0).decompress();
        assert_eq!(ids.len(), tfs.len());
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn list_index_has_fig10_spread() {
        let spec = ListIndexSpec {
            num_terms: 40,
            num_docs: 2_000_000,
            max_list_len: 500_000,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let (idx, lists) = build_list_index(&spec, &mut rng);
        assert_eq!(idx.num_terms(), 40);
        let min = lists.iter().map(Vec::len).min().unwrap();
        let max = lists.iter().map(Vec::len).max().unwrap();
        assert!(max > min * 10, "need spread: {min}..{max}");
        // Index agrees with raw lists.
        for (i, raw) in lists.iter().enumerate().take(3) {
            let t = idx.lookup(&format!("t{i}")).unwrap();
            let (ids, _) = idx.list(t).decompress();
            assert_eq!(&ids, raw);
        }
    }
}
