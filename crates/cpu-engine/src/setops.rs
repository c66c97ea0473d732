//! Set-algebra kernels over scored intermediates — the CPU physical
//! operators behind the query-plan DAG's OR (union), NOT (difference),
//! AND-of-sets (intersection) and phrase (positional filter) nodes.
//!
//! All kernels are instrumented against the same [`WorkCounters`] the
//! conjunctive pipeline uses, so the cost model prices a plan's set
//! operators and its intersections in one currency.
//!
//! # Score semantics (the bit-exactness contract)
//!
//! * [`union`]: a docID present in both inputs scores `a + b` — one f32
//!   addition in argument order. The plan executor folds an OR's children
//!   left to right (`union(union(c0, c1), c2)`), so a document in every
//!   child accumulates `((s0 + s1) + s2)`, the same left-associated order
//!   the property-test reference mirrors.
//! * [`difference`]: survivors keep the left side's scores untouched.
//! * [`intersect_sets`]: survivors score `a + b` in argument order.
//! * [`phrase_filter`]: survivors keep their carried scores (a phrase is
//!   an AND whose extra positional predicate filters but never rescores).

use griffin_index::{InvertedIndex, TermId};

use crate::cost::WorkCounters;
use crate::engine::Intermediate;
use crate::intersect;

/// Union of two scored intermediates: every docID of either side, scores
/// added (left + right) where both sides contain the document.
///
/// Charges `merge_steps` as the two-pointer merge does, in closed form:
/// the loop's steps plus both tails, which is one per output document.
pub fn union(a: &Intermediate, b: &Intermediate, w: &mut WorkCounters) -> Intermediate {
    let mut out = Intermediate::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.docids[i].cmp(&b.docids[j]) {
            std::cmp::Ordering::Less => {
                out.docids.push(a.docids[i]);
                out.scores.push(a.scores[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.docids.push(b.docids[j]);
                out.scores.push(b.scores[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.docids.push(a.docids[i]);
                out.scores.push(a.scores[i] + b.scores[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.docids.extend_from_slice(&a.docids[i..]);
    out.scores.extend_from_slice(&a.scores[i..]);
    out.docids.extend_from_slice(&b.docids[j..]);
    out.scores.extend_from_slice(&b.scores[j..]);
    w.merge_steps += out.len() as u64;
    w.emitted += out.len() as u64;
    out
}

/// Difference `a \ b`: the left side's documents not present in the right
/// side, left scores carried unchanged (NOT filters, it never rescores).
///
/// Charges `merge_steps` as the two-pointer merge does, in closed form:
/// the loop's steps plus the left side's tail.
pub fn difference(a: &Intermediate, b: &Intermediate, w: &mut WorkCounters) -> Intermediate {
    let m = intersect::match_walk(&a.docids, &b.docids);
    let (_, b_end) = intersect::merge_stop(&a.docids, &b.docids);
    let mut out = Intermediate {
        docids: Vec::with_capacity(a.len() - m.len()),
        scores: Vec::with_capacity(a.len() - m.len()),
    };
    let mut from = 0usize;
    for &hit in m.a_idx.iter().chain(&[a.len() as u32]) {
        let hit = hit as usize;
        out.docids.extend_from_slice(&a.docids[from..hit]);
        out.scores.extend_from_slice(&a.scores[from..hit]);
        from = hit + 1;
    }
    w.merge_steps += (a.len() + b_end - m.len()) as u64;
    w.emitted += out.len() as u64;
    out
}

/// Intersection of two already-materialized scored sets (an AND whose
/// children are sub-plans rather than raw posting lists): common docIDs,
/// scores added (left + right). Charges `merge_steps` like
/// [`intersect::merge_intersect`].
pub fn intersect_sets(a: &Intermediate, b: &Intermediate, w: &mut WorkCounters) -> Intermediate {
    let m = intersect::merge_intersect(&a.docids, &b.docids, w);
    let scores = m
        .a_idx
        .iter()
        .zip(&m.b_idx)
        .map(|(&i, &j)| a.scores[i as usize] + b.scores[j as usize])
        .collect();
    Intermediate {
        docids: m.docids,
        scores,
    }
}

/// Positional phrase filter: keeps the candidates of `inter` in which
/// `phrase_terms` occur at consecutive token positions, in the order
/// given (which must be the *original* phrase order, not the df-sorted
/// plan order used for scoring). Scores are carried unchanged.
///
/// Per term `j` the filter intersects the surviving candidates against
/// the term's posting list (skip-pointer search — charged like any other
/// intersection), decodes the matched postings' position runs (charged as
/// VByte work), and narrows each candidate's set of viable phrase-start
/// positions: `P ∩= (positions_j − j)`. A candidate missing a term, or
/// left with no viable start, is dropped — so the filter is also correct
/// on candidate sets that are not already the conjunction of the phrase
/// terms.
pub fn phrase_filter(
    index: &InvertedIndex,
    phrase_terms: &[TermId],
    inter: &Intermediate,
    w: &mut WorkCounters,
) -> Intermediate {
    if inter.is_empty() || phrase_terms.len() <= 1 {
        // A 1-term phrase is just that term: every candidate containing it
        // (all of them, when `inter` came from the phrase's AND) passes.
        return inter.clone();
    }
    let mut cand = inter.docids.clone();
    let mut scores = inter.scores.clone();
    // Per surviving candidate: the phrase-start positions still viable
    // after the terms processed so far.
    let mut starts: Vec<Vec<u32>> = Vec::new();
    let mut pos_buf: Vec<u32> = Vec::new();
    for (j, &t) in phrase_terms.iter().enumerate() {
        if cand.is_empty() {
            break;
        }
        let list = index.list(t);
        let m = intersect::skip_intersect(&cand, &list.docs, 0..list.num_blocks(), None, w);
        let bl = list.docs.block_len;
        // `m.b_idx` ascends, so each block's positions are read once.
        let mut cursor = list.position_cursor();
        let mut next_cand = Vec::with_capacity(m.len());
        let mut next_scores = Vec::with_capacity(m.len());
        let mut next_starts = Vec::with_capacity(m.len());
        for (k, &gi) in m.b_idx.iter().enumerate() {
            let ai = m.a_idx[k] as usize;
            let gi = gi as usize;
            pos_buf.clear();
            let varints = cursor.positions_into(gi / bl, gi % bl, &mut pos_buf);
            w.varint_elements += varints as u64;
            let keep: Vec<u32> = if j == 0 {
                pos_buf.clone()
            } else {
                // Sorted-merge intersection of the carried start set with
                // this term's positions shifted back to start coordinates.
                let prev = &starts[ai];
                let mut out = Vec::new();
                let (mut x, mut y) = (0usize, 0usize);
                while x < prev.len() && y < pos_buf.len() {
                    w.merge_steps += 1;
                    let Some(shifted) = pos_buf[y].checked_sub(j as u32) else {
                        y += 1; // position earlier than the term's offset
                        continue;
                    };
                    match prev[x].cmp(&shifted) {
                        std::cmp::Ordering::Less => x += 1,
                        std::cmp::Ordering::Greater => y += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(prev[x]);
                            x += 1;
                            y += 1;
                        }
                    }
                }
                out
            };
            if !keep.is_empty() {
                next_cand.push(m.docids[k]);
                next_scores.push(scores[ai]);
                next_starts.push(keep);
            }
        }
        cand = next_cand;
        scores = next_scores;
        starts = next_starts;
    }
    w.emitted += cand.len() as u64;
    Intermediate {
        docids: cand,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_index::{IndexBuilder, InvertedIndex};

    fn wc() -> WorkCounters {
        WorkCounters::default()
    }

    fn inter(pairs: &[(u32, f32)]) -> Intermediate {
        Intermediate {
            docids: pairs.iter().map(|&(d, _)| d).collect(),
            scores: pairs.iter().map(|&(_, s)| s).collect(),
        }
    }

    #[test]
    fn union_adds_scores_on_overlap() {
        let a = inter(&[(1, 1.0), (3, 3.0), (5, 5.0)]);
        let b = inter(&[(2, 0.5), (3, 0.25), (9, 9.0)]);
        let u = union(&a, &b, &mut wc());
        assert_eq!(u.docids, vec![1, 2, 3, 5, 9]);
        assert_eq!(u.scores, vec![1.0, 0.5, 3.25, 5.0, 9.0]);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = inter(&[(4, 2.0), (7, 1.0)]);
        let e = Intermediate::default();
        assert_eq!(union(&a, &e, &mut wc()), a);
        assert_eq!(union(&e, &a, &mut wc()), a);
    }

    #[test]
    fn difference_keeps_left_scores() {
        let a = inter(&[(1, 1.0), (3, 3.0), (5, 5.0), (8, 8.0)]);
        let b = inter(&[(3, 99.0), (8, 99.0), (10, 99.0)]);
        let d = difference(&a, &b, &mut wc());
        assert_eq!(d.docids, vec![1, 5]);
        assert_eq!(d.scores, vec![1.0, 5.0]);
    }

    #[test]
    fn intersect_sets_adds_scores() {
        let a = inter(&[(1, 1.0), (3, 3.0), (5, 5.0)]);
        let b = inter(&[(3, 0.5), (5, 0.25), (7, 7.0)]);
        let m = intersect_sets(&a, &b, &mut wc());
        assert_eq!(m.docids, vec![3, 5]);
        assert_eq!(m.scores, vec![3.5, 5.25]);
    }

    #[test]
    fn kernels_charge_merge_work() {
        let a = inter(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let b = inter(&[(2, 1.0), (4, 4.0)]);
        let mut w = wc();
        union(&a, &b, &mut w);
        assert!(w.merge_steps >= 4, "steps = {}", w.merge_steps);
        assert_eq!(w.emitted, 4);
    }

    fn phrase_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(Codec::EliasFano);
        b.add_text("griffin unites cpu and gpu engines"); // 0: "cpu and gpu" ✓
        b.add_text("gpu and cpu is the reverse order"); // 1: ✗
        b.add_text("a cpu and gpu and cpu and gpu pipeline"); // 2: ✓ twice
        b.add_text("cpu gpu adjacency and nothing else"); // 3: ✗ ("and" not adjacent)
        b.build()
    }

    fn scored_candidates(idx: &InvertedIndex, terms: &[TermId]) -> Intermediate {
        // All docs containing every term, unit scores (scores are opaque
        // to the filter).
        let all: Vec<u32> = (0..idx.num_docs()).collect();
        let docids: Vec<u32> = all
            .into_iter()
            .filter(|&d| {
                terms.iter().all(|&t| {
                    let (ids, _) = idx.list(t).decompress();
                    ids.contains(&d)
                })
            })
            .collect();
        let scores = vec![1.0f32; docids.len()];
        Intermediate { docids, scores }
    }

    #[test]
    fn phrase_filter_requires_adjacency_in_order() {
        let idx = phrase_index();
        let terms: Vec<TermId> = ["cpu", "and", "gpu"]
            .iter()
            .map(|t| idx.lookup(t).unwrap())
            .collect();
        let cands = scored_candidates(&idx, &terms);
        assert_eq!(cands.docids, vec![0, 1, 2, 3]);
        let out = phrase_filter(&idx, &terms, &cands, &mut wc());
        assert_eq!(out.docids, vec![0, 2]);
        assert_eq!(out.scores, vec![1.0, 1.0]);
    }

    #[test]
    fn phrase_filter_drops_candidates_missing_a_term() {
        let idx = phrase_index();
        let terms: Vec<TermId> = ["cpu", "and"]
            .iter()
            .map(|t| idx.lookup(t).unwrap())
            .collect();
        // Hand the filter every document, including ones without "and".
        let cands = inter(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
        let out = phrase_filter(&idx, &terms, &cands, &mut wc());
        assert_eq!(out.docids, vec![0, 2]); // 1 has "cpu" after "and"; 3 not adjacent
    }

    #[test]
    fn synthetic_phrase_equals_intersection() {
        // from_docid_lists places list i's postings at position i, so a
        // phrase over consecutive synthetic terms is their intersection.
        let lists = vec![
            (0..500u32).map(|i| i * 3).collect::<Vec<_>>(),
            (0..700u32).map(|i| i * 2).collect::<Vec<_>>(),
        ];
        let idx = InvertedIndex::from_docid_lists(&lists, 2000, Codec::EliasFano, 128);
        let t0 = idx.lookup("t0").unwrap();
        let t1 = idx.lookup("t1").unwrap();
        let expect: Vec<u32> = lists[0]
            .iter()
            .copied()
            .filter(|d| lists[1].contains(d))
            .collect();
        let cands = Intermediate {
            docids: expect.clone(),
            scores: vec![0.5; expect.len()],
        };
        let out = phrase_filter(&idx, &[t0, t1], &cands, &mut wc());
        assert_eq!(out.docids, expect);
    }

    #[test]
    fn single_term_phrase_is_a_no_op() {
        let idx = phrase_index();
        let t = idx.lookup("cpu").unwrap();
        let cands = inter(&[(0, 1.0), (3, 2.0)]);
        let out = phrase_filter(&idx, &[t], &cands, &mut wc());
        assert_eq!(out, cands);
    }

    #[test]
    fn phrase_positions_charge_varint_work() {
        let idx = phrase_index();
        let terms: Vec<TermId> = ["cpu", "and", "gpu"]
            .iter()
            .map(|t| idx.lookup(t).unwrap())
            .collect();
        let cands = scored_candidates(&idx, &terms);
        let mut w = wc();
        phrase_filter(&idx, &terms, &cands, &mut w);
        assert!(w.varint_elements > 0, "position decode must be charged");
    }
}
