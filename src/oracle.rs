//! The one bit-exactness oracle the integration suites check answers
//! against.
//!
//! Every mode, tier, split, shard count, SIMD path and fault plan must
//! return the same top-k with the same score bits. The suites check that
//! promise here, against a naive reference, not against each other: a
//! fault that every mode shares would pass a mode-against-mode check.
//!
//! * [`seed`] reads `GRIFFIN_FAULT_SEED`, the one seed the suites draw
//!   corpora, queries and fault plans from;
//! * [`workload`] builds a drawn-tf [`Corpus`] (see [`Corpus::draw`]) and
//!   a query log over it, [`overlapping_lists`] draws lists that always
//!   intersect for [`overlapping_corpus`], and [`text_corpus`] indexes
//!   real texts;
//! * [`top_k`] evaluates a query over the corpus's uncompressed postings:
//!   set algebra, and BM25 folded in the order the planner fixes (see
//!   `griffin::plan`): a chain of terms adds its contributions
//!   left-associated in stable df order; an AND intersects its term chain
//!   with its complex children in AST order; an OR unions left to right,
//!   adding left + right where both match; a NOT keeps the left side's
//!   scores; a phrase scores as its chain, then keeps the documents where
//!   its terms occur at consecutive positions. Results rank by score
//!   descending, ties by ascending docID;
//! * [`expect`] is the reference's answer to a request as [`bits`].

use griffin::{GriffinOutput, Query, QueryRequest};
use griffin_codec::Codec;
use griffin_index::{Bm25, IndexBuilder, TermId};
use griffin_workload::{Corpus, ListIndexSpec, QueryLogSpec, RawPosting};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `GRIFFIN_FAULT_SEED`, or `0xC0FFEE` when it is unset.
pub fn seed() -> u64 {
    std::env::var("GRIFFIN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// `(docid, score bits)` of a top-k: answers agree to the last ulp.
pub fn bits(topk: &[(u32, f32)]) -> Vec<(u32, u32)> {
    topk.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// A drawn-tf corpus and a query log over it.
pub struct Workload {
    pub corpus: Corpus,
    pub queries: Vec<Vec<TermId>>,
}

/// 20 terms over `num_docs` documents, lists up to `max_list_len` long
/// ([`Corpus::from_spec`]), then `num_queries` Fig. 11-shaped
/// conjunctions, all drawn from `rng_seed`: the lists and the log are
/// the ones `build_list_index` and the same draws would give.
pub fn workload(num_docs: u32, max_list_len: usize, num_queries: usize, rng_seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let spec = ListIndexSpec {
        num_terms: 20,
        num_docs,
        max_list_len,
        ..Default::default()
    };
    let corpus = Corpus::from_spec(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries,
        ..Default::default()
    }
    .generate(&corpus.index, &mut rng);
    Workload { corpus, queries }
}

/// Two or three lists of 50 to 2 000 docIDs below 40 000, each holding
/// every third element of one shared pool of 200 to 800, so they always
/// intersect; and a seed for [`overlapping_corpus`]'s tfs.
pub fn overlapping_lists() -> impl Strategy<Value = (Vec<Vec<u32>>, u64)> {
    let pool = vec(0u32..40_000, 200..800);
    let lists = vec(vec(0u32..40_000, 50..2_000), 2..4);
    (pool, lists, any::<u64>()).prop_map(|(pool, mut lists, tf_seed)| {
        for l in &mut lists {
            l.extend(pool.iter().step_by(3));
            l.sort_unstable();
            l.dedup();
        }
        (lists, tf_seed)
    })
}

/// `lists` built by [`Corpus::draw`] over 50 000 documents, the tfs
/// drawn from `tf_seed`.
pub fn overlapping_corpus(lists: &[Vec<u32>], tf_seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(tf_seed);
    Corpus::draw(lists, 50_000, Codec::EliasFano, 128, &mut rng)
}

/// Whitespace-separated texts, one document each, indexed by
/// [`IndexBuilder`] in blocks of `block_len`: each word's tf and
/// positions are its own, and each document's length is its word count.
pub fn text_corpus<S: AsRef<str>>(texts: &[S], block_len: usize) -> Corpus {
    let mut builder = IndexBuilder::new(Codec::EliasFano).with_block_len(block_len);
    for text in texts {
        builder.add_text(text.as_ref());
    }
    let index = builder.build();
    let mut postings: Vec<Vec<RawPosting>> = vec![Vec::new(); index.num_terms()];
    for (docid, text) in (0u32..).zip(texts) {
        for (pos, word) in (0u32..).zip(text.as_ref().split_whitespace()) {
            let term = index.lookup(word).expect("every word is indexed");
            let list = &mut postings[term.0 as usize];
            match list.last_mut() {
                Some(p) if p.docid == docid => p.positions.push(pos),
                _ => list.push(RawPosting {
                    docid,
                    positions: vec![pos],
                }),
            }
        }
    }
    Corpus { index, postings }
}

/// The reference's answer to `req`, as [`bits`].
pub fn expect(corpus: &Corpus, req: &QueryRequest) -> Vec<(u32, u32)> {
    bits(&top_k(corpus, &req.query, req.k))
}

/// Panics with `ctx` unless `out` is the reference's answer to `req`.
pub fn assert_answer(corpus: &Corpus, req: &QueryRequest, out: &GriffinOutput, ctx: &str) {
    assert_eq!(
        bits(&out.topk),
        expect(corpus, req),
        "{ctx}: {:?}",
        req.query
    );
}

/// The `k` best matches of a normalized query, best first.
pub fn top_k(corpus: &Corpus, q: &Query, k: usize) -> Vec<(u32, f32)> {
    let mut items = eval(corpus, q);
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(k);
    items
}

/// Every match of a normalized query with its score, docIDs ascending.
pub fn eval(corpus: &Corpus, q: &Query) -> Vec<(u32, f32)> {
    match q {
        Query::Nothing => Vec::new(),
        Query::Term(t) => chain(corpus, &[*t]),
        Query::Phrase(ts) => phrase(corpus, ts),
        Query::And(children) => {
            let terms: Vec<TermId> = children
                .iter()
                .filter_map(|c| match c {
                    Query::Term(t) => Some(*t),
                    _ => None,
                })
                .collect();
            let mut parts = Vec::new();
            if !terms.is_empty() {
                parts.push(chain(corpus, &terms));
            }
            for c in children {
                if !matches!(c, Query::Term(_)) {
                    parts.push(eval(corpus, c));
                }
            }
            let mut acc = parts.remove(0);
            for part in &parts {
                if acc.is_empty() {
                    break;
                }
                acc = merge(&acc, part, false);
            }
            acc
        }
        Query::Or(children) => {
            let mut acc = eval(corpus, &children[0]);
            for c in &children[1..] {
                acc = merge(&acc, &eval(corpus, c), true);
            }
            acc
        }
        Query::Not(a, b) => {
            let left = eval(corpus, a);
            if left.is_empty() {
                return left;
            }
            let drop = eval(corpus, b);
            left.into_iter()
                .filter(|(d, _)| drop.binary_search_by_key(d, |&(e, _)| e).is_err())
                .collect()
        }
    }
}

/// The positions of `term` in document `d`, if it occurs there.
fn positions(corpus: &Corpus, term: TermId, d: u32) -> Option<&[u32]> {
    let list = &corpus.postings[term.0 as usize];
    let i = list.binary_search_by_key(&d, |p| p.docid).ok()?;
    Some(&list[i].positions)
}

/// Documents holding every term, each term's BM25 contribution added
/// left-associated in stable df order.
fn chain(corpus: &Corpus, terms: &[TermId]) -> Vec<(u32, f32)> {
    let mut order = terms.to_vec();
    order.sort_by_key(|t| corpus.postings[t.0 as usize].len());
    let index = &corpus.index;
    let meta = index.meta();
    let mut out = Vec::new();
    'doc: for first in &corpus.postings[order[0].0 as usize] {
        let d = first.docid;
        let mut score = 0.0f32;
        for (i, &t) in order.iter().enumerate() {
            let Some(pos) = positions(corpus, t, d) else {
                continue 'doc;
            };
            let df = corpus.postings[t.0 as usize].len() as u32;
            let bm25 = Bm25::new(index.num_docs(), df, meta.avg_doc_len);
            let c = bm25.contribution(pos.len() as u32, meta.doc_len(d));
            score = if i == 0 { c } else { score + c };
        }
        out.push((d, score));
    }
    out
}

/// The chain of a phrase's terms, kept where they occur at consecutive
/// positions in phrase order.
fn phrase(corpus: &Corpus, terms: &[TermId]) -> Vec<(u32, f32)> {
    let mut out = chain(corpus, terms);
    out.retain(|&(d, _)| {
        let at = |i: usize| positions(corpus, terms[i], d).expect("the chain holds every term");
        at(0)
            .iter()
            .any(|&p| (1..terms.len()).all(|i| at(i).contains(&(p + i as u32))))
    });
    out
}

/// Intersection (`union == false`) or union of two docID-sorted result
/// lists; where both hold a document its scores add, left + right.
fn merge(a: &[(u32, f32)], b: &[(u32, f32)], union: bool) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                if union {
                    out.push(a[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if union {
                    out.push(b[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    if union {
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }
    out
}
