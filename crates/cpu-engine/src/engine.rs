//! The CPU query-processing pipeline (SvS + incremental BM25 + top-k).
//!
//! Exposed both as a whole-query engine ([`CpuEngine::process_query`]) and
//! as individual steps ([`CpuEngine::init_intermediate`],
//! [`CpuEngine::intersect_step`]) so Griffin's hybrid scheduler can run any
//! single step on the CPU while others run on the GPU.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use griffin_codec::BlockedList;
use griffin_gpu_sim::VirtualNanos;
use griffin_index::{InvertedIndex, TermId};

use crate::cost::{CpuCostModel, WorkCounters};
use crate::decode;
use crate::intersect::{self, Matches};
use crate::lru::{CacheStats, Lru};
use crate::simd;
use crate::topk;

/// The running state of a query between pairwise intersections: the
/// surviving docIDs and their accumulated partial BM25 scores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Intermediate {
    pub docids: Vec<u32>,
    pub scores: Vec<f32>,
}

impl Intermediate {
    pub fn len(&self) -> usize {
        self.docids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docids.is_empty()
    }
}

/// Result of a full query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Top-k (docid, score), best first.
    pub topk: Vec<(u32, f32)>,
    /// Modelled single-core execution time.
    pub time: VirtualNanos,
    /// The work that time was computed from.
    pub counters: WorkCounters,
}

/// What block-max pruning saved (and didn't) on one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Term-frequency blocks the unpruned scorer would have decoded:
    /// every block of the seed list plus, per chain step, the distinct
    /// blocks its matches' tf gathers touch.
    pub tf_blocks_total: u64,
    /// tf blocks the pruned verifier actually decoded.
    pub tf_blocks_decoded: u64,
    /// Candidates surviving the docID-only chain.
    pub candidates: u64,
    /// Candidates fully scored before the bound dropped below the floor.
    pub verified: u64,
}

impl PruneStats {
    /// Fraction of the unpruned tf-decode work that pruning skipped.
    pub fn blocks_skipped_fraction(&self) -> f64 {
        if self.tf_blocks_total == 0 {
            0.0
        } else {
            1.0 - self.tf_blocks_decoded as f64 / self.tf_blocks_total as f64
        }
    }

    pub fn add(&mut self, o: &PruneStats) {
        self.tf_blocks_total += o.tf_blocks_total;
        self.tf_blocks_decoded += o.tf_blocks_decoded;
        self.candidates += o.candidates;
        self.verified += o.verified;
    }
}

/// Result of a block-max pruned query: the same top-k the unpruned path
/// produces (bit-exact), plus what the pruning saved.
#[derive(Debug, Clone)]
pub struct PrunedOutput {
    pub topk: Vec<(u32, f32)>,
    pub time: VirtualNanos,
    pub counters: WorkCounters,
    pub stats: PruneStats,
}

/// The outcome of the docID-only intersection chain: surviving documents
/// with full per-list provenance, so deferred (score-at-the-end) paths can
/// gather term frequencies and block bounds without re-searching.
#[derive(Debug, Clone, Default)]
pub struct ChainResult {
    /// The terms the chain ran over, in [`InvertedIndex::chain_order`]
    /// (exact scores must fold contributions in this order to match the
    /// incremental pipeline bit-for-bit).
    pub planned: Vec<TermId>,
    /// Surviving docIDs, ascending.
    pub docids: Vec<u32>,
    /// `elem_idx[t][c]`: the global element index of candidate `c` inside
    /// `planned[t]`'s posting list.
    pub elem_idx: Vec<Vec<u32>>,
    /// Distinct tf blocks an unpruned scorer would decode for this chain.
    pub tf_blocks_total: u64,
}

/// The CPU query engine. Scores each term with the index's own scorer
/// ([`InvertedIndex::scorer`]), the one its block-max bounds were baked
/// with, so pruning stays sound.
#[derive(Debug, Clone, Default)]
pub struct CpuEngine {
    pub model: CpuCostModel,
    /// The host decoded-list tier: term → decoded docIDs, so a hit skips
    /// decompression entirely (merge intersects against the vector; skip
    /// search, the split path's CPU lane included, binary-searches slices
    /// of it). Off by default, and an off tier is invisible: an engine
    /// with it off is bit- and time-identical to one without it. On, bits
    /// are unchanged (the cached vector *is* the decode output) and every
    /// cached path charges exactly its decoding twin's counters minus the
    /// decode work (skip search reads it through
    /// [`intersect::skip_intersect`]). Interior-mutable because every
    /// query entry point takes `&self`.
    host_cache: RefCell<Lru<TermId, Arc<Vec<u32>>>>,
}

/// Per-entry bookkeeping a decoded list charges against the host budget
/// on top of its payload (map slot, `Arc` header, LRU stamp).
const HOST_ENTRY_OVERHEAD_BYTES: u64 = 64;

/// [`CpuEngine::intersect_step`] switches from merge to skip search at
/// this long/short length ratio.
const MERGE_RATIO_THRESHOLD: usize = 16;

impl CpuEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the host decoded-list cache's byte budget. 0 (the
    /// default) turns the tier off.
    pub fn set_host_cache_budget(&self, bytes: u64) {
        self.host_cache
            .borrow_mut()
            .set_budget((bytes > 0).then_some(bytes));
    }

    /// Non-counting residency probe for the cache-aware scheduler.
    pub fn host_cache_contains(&self, term: TermId) -> bool {
        self.host_cache.borrow().contains(&term)
    }

    /// Hit/miss/eviction/bytes accounting for the host tier.
    pub fn host_cache_stats(&self) -> CacheStats {
        self.host_cache.borrow().stats()
    }

    /// Drops every cached decoded list (index epoch change).
    pub fn clear_host_cache(&self) {
        self.host_cache.borrow_mut().clear();
    }

    /// Pre-decodes `term`'s docID list into the host cache without
    /// charging the work to any query (an offline warming step, like the
    /// device tier's prefetch). Returns whether the list is now resident.
    pub fn warm_host_cache(&self, index: &InvertedIndex, term: TermId) -> bool {
        if !self.host_cache.borrow().is_on() {
            return false;
        }
        if !self.host_cache_contains(term) {
            let mut w = WorkCounters::default();
            self.cache_decoded(term, decode::decode_list(&index.list(term).docs, &mut w));
        }
        self.host_cache_contains(term)
    }

    /// Offers a freshly decoded list to the host tier.
    fn cache_decoded(&self, term: TermId, decoded: Vec<u32>) -> Arc<Vec<u32>> {
        let bytes = (decoded.len() * std::mem::size_of::<u32>()) as u64 + HOST_ENTRY_OVERHEAD_BYTES;
        let decoded = Arc::new(decoded);
        self.host_cache
            .borrow_mut()
            .insert(term, Arc::clone(&decoded), bytes);
        decoded
    }

    /// Counting cache consult: hit bumps LRU, miss is recorded. Call only
    /// on paths that would otherwise decode the list.
    fn cached_decoded(&self, term: TermId) -> Option<Arc<Vec<u32>>> {
        self.host_cache.borrow_mut().get(&term).cloned()
    }

    /// The full decoded docID list for `term`: from the host cache on a
    /// hit (no decode charges), else decoded — charging `w` exactly as the
    /// pre-cache code did — and offered to the cache.
    fn decoded_list(
        &self,
        term: TermId,
        list: &BlockedList,
        w: &mut WorkCounters,
    ) -> Arc<Vec<u32>> {
        if let Some(d) = self.cached_decoded(term) {
            return d;
        }
        self.cache_decoded(term, decode::decode_list(list, w))
    }

    /// Decompresses the first (shortest) list into an [`Intermediate`] with
    /// the term's BM25 contributions as initial scores.
    pub fn init_intermediate(
        &self,
        index: &InvertedIndex,
        term: TermId,
        w: &mut WorkCounters,
    ) -> Intermediate {
        let list = index.list(term);
        let (docids, tfs) = {
            let mut ids = Vec::with_capacity(list.len());
            let mut tfs = Vec::with_capacity(list.len());
            for b in 0..list.num_blocks() {
                decode::decode_block(&list.docs, b, &mut ids, w);
                list.decode_block_into_tfs_only(b, &mut tfs);
            }
            w.varint_elements += tfs.len() as u64;
            (ids, tfs)
        };
        let (scorer, meta) = (index.scorer(term), index.meta());
        let scores: Vec<f32> = docids
            .iter()
            .zip(&tfs)
            .map(|(&d, &tf)| scorer.contribution(tf, meta.doc_len(d)))
            .collect();
        w.scored += docids.len() as u64;
        Intermediate { docids, scores }
    }

    /// Intersects the intermediate with `term`'s list, adding the term's
    /// BM25 contributions to the survivors' scores.
    pub fn intersect_step(
        &self,
        index: &InvertedIndex,
        inter: &Intermediate,
        term: TermId,
        w: &mut WorkCounters,
    ) -> Intermediate {
        let matches = self.matches(index, &inter.docids, term, w);
        self.score_matches(index, inter, term, matches, w)
    }

    /// Finds `short`'s members in `term`'s whole list: the one place the
    /// engine decides how to intersect. Skip search at a long/short ratio
    /// of [`MERGE_RATIO_THRESHOLD`] or more (an empty `short` counts as
    /// infinitely far apart), else a merge against the list from the host
    /// cache, or decoded and offered there.
    fn matches(
        &self,
        index: &InvertedIndex,
        short: &[u32],
        term: TermId,
        w: &mut WorkCounters,
    ) -> Matches {
        let list = index.list(term);
        let ratio = list.len().checked_div(short.len()).unwrap_or(usize::MAX);
        if ratio >= MERGE_RATIO_THRESHOLD {
            return self.skip_matches(index, short, term, 0..list.num_blocks(), w);
        }
        let long = self.decoded_list(term, &list.docs, w);
        intersect::merge_intersect(short, &long, w)
    }

    /// Skip search of `short` into the `blocks` sub-range of `term`'s
    /// list, binary-searching the host cache's decoded copy on a hit.
    /// Consult-only: a skip search decodes at most the blocks it probes,
    /// so a miss must not populate the cache.
    fn skip_matches(
        &self,
        index: &InvertedIndex,
        short: &[u32],
        term: TermId,
        blocks: Range<usize>,
        w: &mut WorkCounters,
    ) -> Matches {
        let decoded = self.cached_decoded(term);
        intersect::skip_intersect(
            short,
            &index.list(term).docs,
            blocks,
            decoded.as_deref().map(Vec::as_slice),
            w,
        )
    }

    /// The CPU lane of a co-executed split: intersects `inter` (already
    /// partitioned to this lane's docID range) against the `blocks`
    /// sub-range of `term`'s list. Always skip-binary — the range
    /// restriction *is* a skip-pointer seek. Scoring matches the
    /// unsplit path bit-for-bit (idf uses the full list's document
    /// frequency), so concatenating the two lanes' outputs reproduces the
    /// unsplit result exactly.
    pub fn intersect_step_range(
        &self,
        index: &InvertedIndex,
        inter: &Intermediate,
        term: TermId,
        blocks: Range<usize>,
        w: &mut WorkCounters,
    ) -> Intermediate {
        let matches = self.skip_matches(index, &inter.docids, term, blocks, w);
        self.score_matches(index, inter, term, matches, w)
    }

    /// Gathers the new term's tfs for the survivors and accumulates the
    /// term's BM25 contributions onto the carried partial scores.
    fn score_matches(
        &self,
        index: &InvertedIndex,
        inter: &Intermediate,
        term: TermId,
        matches: Matches,
        w: &mut WorkCounters,
    ) -> Intermediate {
        let list = index.list(term);
        let tfs = intersect::gather_tfs(list, &matches.b_idx, w);
        let (scorer, meta) = (index.scorer(term), index.meta());
        let scores: Vec<f32> = matches
            .docids
            .iter()
            .zip(matches.a_idx.iter())
            .zip(&tfs)
            .map(|((&d, &ai), &tf)| {
                inter.scores[ai as usize] + scorer.contribution(tf, meta.doc_len(d))
            })
            .collect();
        w.scored += matches.docids.len() as u64;
        Intermediate {
            docids: matches.docids,
            scores,
        }
    }

    /// Evaluates a conjunctive chain to a scored [`Intermediate`] without
    /// the final top-k — the building block the plan executor uses for
    /// AND and phrase nodes whose results feed further set operators.
    pub fn eval_chain(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        w: &mut WorkCounters,
    ) -> Intermediate {
        let planned = index.chain_order(terms);
        let Some((&first, rest)) = planned.split_first() else {
            return Intermediate::default();
        };
        let mut inter = self.init_intermediate(index, first, w);
        for &t in rest {
            if inter.is_empty() {
                break;
            }
            inter = self.intersect_step(index, &inter, t, w);
        }
        inter
    }

    /// The docID-only SvS chain: same intersections (same merge-or-skip
    /// choices, same docID-side work) as [`CpuEngine::process_query`], but
    /// no tf decoding and no scoring. Provenance indices are carried so a
    /// deferred scorer can reach any survivor's tf — and its block's score
    /// upper bound — by direct lookup.
    pub fn docid_chain(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        w: &mut WorkCounters,
    ) -> ChainResult {
        let planned = index.chain_order(terms);
        let Some((&first, rest)) = planned.split_first() else {
            return ChainResult::default();
        };
        let list0 = index.list(first);
        let mut docids = Vec::with_capacity(list0.len());
        for b in 0..list0.num_blocks() {
            decode::decode_block(&list0.docs, b, &mut docids, w);
        }
        // The unpruned init decodes every seed block's tfs alongside.
        let mut tf_blocks_total = list0.num_blocks() as u64;
        let mut elem_idx: Vec<Vec<u32>> = vec![(0..docids.len() as u32).collect()];
        for &t in rest {
            if docids.is_empty() {
                break;
            }
            // The same choice as the unpruned chain, so the docID-side
            // work counters match it exactly.
            let m = self.matches(index, &docids, t, w);
            // Distinct tf blocks the unpruned score_matches would decode
            // for this step's survivors (its gather is block-monotone).
            let bl = index.list(t).docs.block_len;
            let mut prev = usize::MAX;
            for &gi in &m.b_idx {
                let blk = gi as usize / bl;
                if blk != prev {
                    tf_blocks_total += 1;
                    prev = blk;
                }
            }
            for col in elem_idx.iter_mut() {
                *col = m.a_idx.iter().map(|&ai| col[ai as usize]).collect();
            }
            elem_idx.push(m.b_idx.clone());
            docids = m.docids;
        }
        ChainResult {
            planned,
            docids,
            elem_idx,
            tf_blocks_total,
        }
    }

    /// Full conjunctive query with block-max top-k pruning: the docID-only
    /// chain first, then candidates verified in descending order of an
    /// optimistic score bound (the sum of their blocks' BM25 upper
    /// bounds), stopping as soon as the bound falls below the k-th best
    /// exact score. Exact scores fold contributions in plan order, so the
    /// returned top-k is bit-identical to [`CpuEngine::process_query`] —
    /// pruning changes only how many tf blocks get decoded.
    pub fn process_query_pruned(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
    ) -> PrunedOutput {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;

        let mut w = WorkCounters::default();
        let chain = self.docid_chain(index, terms, &mut w);
        let n = chain.docids.len();
        let mut stats = PruneStats {
            tf_blocks_total: chain.tf_blocks_total,
            candidates: n as u64,
            ..Default::default()
        };
        if n == 0 || k == 0 {
            return PrunedOutput {
                topk: Vec::new(),
                time: self.model.time(&w),
                counters: w,
                stats,
            };
        }

        let nterms = chain.planned.len();
        let meta = index.meta();
        let scorers: Vec<_> = chain.planned.iter().map(|&t| index.scorer(t)).collect();
        // Optimistic bound per candidate: its blocks' upper bounds folded
        // in the same left-associated plan order as the exact scorer.
        // f32 addition is monotone, so exact <= bound holds bit-for-bit.
        // The fold runs term-by-term (a vectorizable gather + add per
        // pass), which keeps every candidate's addition order identical
        // to a candidate-by-candidate loop.
        let mut ubs: Vec<f32> = vec![0.0; n];
        for (t, &term) in chain.planned.iter().enumerate() {
            let bl = index.list(term).docs.block_len;
            simd::fold_term_bounds(
                &mut ubs,
                &chain.elem_idx[t],
                bl,
                index.block_ubs(term),
                t == 0,
            );
        }
        w.topk_scanned += (n * nterms) as u64; // the bound pass
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&x, &y| {
            ubs[y as usize]
                .total_cmp(&ubs[x as usize])
                .then(chain.docids[x as usize].cmp(&chain.docids[y as usize]))
        });
        w.topk_scanned += n as u64; // the ordering pass

        let mut heap: Vec<(u32, f32)> = Vec::with_capacity(k);
        let mut tf_cache: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        for &ci in &order {
            let c = ci as usize;
            w.topk_scanned += 1;
            if heap.len() == k && ubs[c] < heap[k - 1].1 {
                // Bounds only shrink from here (descending order) and the
                // floor only rises: nothing left can enter the top-k.
                // `<` is strict — a bound that ties the floor could hide
                // an exact tie that wins on docID, so ties verify.
                break;
            }
            stats.verified += 1;
            let d = chain.docids[c];
            let mut score = 0.0f32;
            for (t, &term) in chain.planned.iter().enumerate() {
                let list = index.list(term);
                let bl = list.docs.block_len;
                let gi = chain.elem_idx[t][c] as usize;
                let blk = gi / bl;
                let tfs = match tf_cache.entry((t, blk)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let mut buf = Vec::new();
                        list.decode_block_into_tfs_only(blk, &mut buf);
                        w.blocks_decoded += 1;
                        w.varint_elements += buf.len() as u64;
                        stats.tf_blocks_decoded += 1;
                        e.insert(buf)
                    }
                };
                let tf = tfs[gi - blk * bl];
                let contribution = scorers[t].contribution(tf, meta.doc_len(d));
                score = if t == 0 {
                    contribution
                } else {
                    score + contribution
                };
            }
            w.scored += nterms as u64;
            let cand = (d, score);
            if heap.len() < k {
                let pos = heap.partition_point(|e| topk::rank_order(e, &cand).is_lt());
                heap.insert(pos, cand);
            } else if topk::rank_order(&cand, &heap[k - 1]).is_lt() {
                heap.pop();
                let pos = heap.partition_point(|e| topk::rank_order(e, &cand).is_lt());
                heap.insert(pos, cand);
            }
        }
        w.emitted += heap.len() as u64;
        PrunedOutput {
            topk: heap,
            time: self.model.time(&w),
            counters: w,
            stats,
        }
    }

    /// Full conjunctive query: SvS over all terms, BM25, top-k.
    pub fn process_query(&self, index: &InvertedIndex, terms: &[TermId], k: usize) -> QueryOutput {
        let mut w = WorkCounters::default();
        let inter = self.eval_chain(index, terms, &mut w);
        let topk = topk::top_k(&inter.docids, &inter.scores, k, &mut w);
        QueryOutput {
            topk,
            time: self.model.time(&w),
            counters: w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_index::IndexBuilder;

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(Codec::EliasFano);
        b.add_text("ppopp vienna austria 2018 parallel");
        b.add_text("vienna austria travel");
        b.add_text("ppopp 2018 gpu paper austria");
        b.add_text("gpu parallel merge");
        b.add_text("austria 2018 ppopp vienna");
        b.build()
    }

    fn tids(idx: &InvertedIndex, terms: &[&str]) -> Vec<TermId> {
        terms.iter().map(|t| idx.lookup(t).unwrap()).collect()
    }

    #[test]
    fn conjunctive_query_finds_all_terms_docs() {
        let idx = small_index();
        let engine = CpuEngine::new();
        let q = tids(&idx, &["ppopp", "austria", "2018"]);
        let out = engine.process_query(&idx, &q, 10);
        let docs: Vec<u32> = out.topk.iter().map(|&(d, _)| d).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2, 4]);
        assert!(out.time.as_nanos() > 0);
    }

    #[test]
    fn empty_intersection_yields_no_results() {
        let idx = small_index();
        let engine = CpuEngine::new();
        let q = tids(&idx, &["travel", "merge"]);
        let out = engine.process_query(&idx, &q, 10);
        assert!(out.topk.is_empty());
    }

    #[test]
    fn scores_are_sums_of_term_contributions() {
        let idx = small_index();
        let engine = CpuEngine::new();
        let q = tids(&idx, &["ppopp", "austria"]);
        let out = engine.process_query(&idx, &q, 10);
        // Every returned score must exceed any single-term contribution
        // (two positive terms summed).
        for &(_, s) in &out.topk {
            assert!(s > 0.0);
        }
        // Determinism.
        let out2 = engine.process_query(&idx, &q, 10);
        assert_eq!(out.topk, out2.topk);
    }

    #[test]
    fn strategies_agree_on_results() {
        // Synthetic index with one short and one long list (ratio 128, so
        // the step takes skip search).
        let short: Vec<u32> = (0..64u32).map(|i| i * 97 + 5).collect();
        let long: Vec<u32> = (0..8192u32).map(|i| i * 2 + 1).collect();
        let idx = griffin_index::InvertedIndex::from_docid_lists(
            &[short.clone(), long.clone()],
            20_000,
            Codec::EliasFano,
            128,
        );
        let engine = CpuEngine::new();
        let t0 = idx.lookup("t0").unwrap();
        let t1 = idx.lookup("t1").unwrap();
        let mut w = WorkCounters::default();
        let inter = engine.init_intermediate(&idx, t0, &mut w);

        let step = engine.intersect_step(&idx, &inter, t1, &mut w);
        let docs = &idx.list(t1).docs;
        let skip = intersect::skip_intersect(&short, docs, 0..docs.num_blocks(), None, &mut w);
        let merge = intersect::merge_intersect(&short, &long, &mut w);
        let binary = intersect::binary_intersect_decoded(&short, &long, &mut w);
        assert!(!merge.is_empty());
        assert_eq!(step.docids, merge.docids);
        assert_eq!(skip, merge);
        assert_eq!(binary, merge);
    }

    #[test]
    fn default_engine_is_the_new_engine() {
        // A comparable-length pair (ratio 3): `Auto` must merge on both.
        let short: Vec<u32> = (0..2_000u32).map(|i| i * 9 + 4).collect();
        let long: Vec<u32> = (0..6_000u32).map(|i| i * 3 + 1).collect();
        let idx = InvertedIndex::from_docid_lists(&[short, long], 20_000, Codec::EliasFano, 128);
        let q = vec![idx.lookup("t0").unwrap(), idx.lookup("t1").unwrap()];
        let built = CpuEngine::new().process_query(&idx, &q, 10);
        let default = CpuEngine::default().process_query(&idx, &q, 10);
        let bits = |o: &QueryOutput| -> Vec<(u32, u32)> {
            o.topk.iter().map(|&(d, s)| (d, s.to_bits())).collect()
        };
        assert!(!built.topk.is_empty());
        assert_eq!(bits(&built), bits(&default));
        assert_eq!(built.time, default.time);
        assert_eq!(built.counters, default.counters);
    }

    #[test]
    fn skip_binary_is_cheaper_at_high_ratio() {
        let short: Vec<u32> = (0..32u32).map(|i| i * 50_000 + 3).collect();
        let long: Vec<u32> = (0..1_000_000u32).map(|i| i * 2).collect();
        let idx = griffin_index::InvertedIndex::from_docid_lists(
            &[short, long],
            2_000_001,
            Codec::EliasFano,
            128,
        );
        let engine = CpuEngine::new();
        let t0 = idx.lookup("t0").unwrap();
        let t1 = idx.lookup("t1").unwrap();
        let mut w0 = WorkCounters::default();
        let inter = engine.init_intermediate(&idx, t0, &mut w0);

        // The step takes skip search at this ratio; a merge decodes the
        // whole long list first.
        let mut w_skip = WorkCounters::default();
        engine.intersect_step(&idx, &inter, t1, &mut w_skip);
        let mut w_merge = WorkCounters::default();
        let long = decode::decode_list(&idx.list(t1).docs, &mut w_merge);
        intersect::merge_intersect(&inter.docids, &long, &mut w_merge);

        let t_merge = engine.model.time(&w_merge);
        let t_skip = engine.model.time(&w_skip);
        assert!(
            t_skip.as_nanos() * 20 < t_merge.as_nanos(),
            "skip {} vs merge {}",
            t_skip,
            t_merge
        );
    }

    /// Text corpus with real tf and doc-length variance — the regime where
    /// block-max pruning can actually discriminate. Small blocks keep the
    /// bound granularity meaningful at unit-test corpus size.
    fn varied_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(Codec::EliasFano).with_block_len(32);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..1200 {
            let len = 20 + (next() % 180) as usize;
            let mut tokens = Vec::with_capacity(len);
            for _ in 0..len {
                // Zipf-ish: low word IDs are much more frequent.
                let r = next() % 1000;
                let word = if r < 500 {
                    next() % 10
                } else if r < 850 {
                    10 + next() % 60
                } else {
                    70 + next() % 400
                };
                tokens.push(format!("w{word}"));
            }
            let refs: Vec<&str> = tokens.iter().map(|s| s.as_str()).collect();
            b.add_document(&refs);
        }
        b.build()
    }

    #[test]
    fn pruned_query_is_bit_exact_with_unpruned() {
        let idx = varied_index();
        let engine = CpuEngine::new();
        for terms in [
            vec!["w0", "w1"],
            vec!["w0", "w12", "w3"],
            vec!["w2", "w5", "w20"],
            vec!["w1"],
        ] {
            let Some(q) = terms
                .iter()
                .map(|t| idx.lookup(t))
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            for k in [1usize, 3, 10, 1000] {
                let plain = engine.process_query(&idx, &q, k);
                let pruned = engine.process_query_pruned(&idx, &q, k);
                assert_eq!(plain.topk, pruned.topk, "terms {terms:?} k {k}");
                assert!(
                    pruned.stats.tf_blocks_decoded <= pruned.stats.tf_blocks_total,
                    "decoded {} of {}",
                    pruned.stats.tf_blocks_decoded,
                    pruned.stats.tf_blocks_total
                );
            }
        }
    }

    /// A corpus where the top scores concentrate in a few docID blocks:
    /// every doc contains "hot" and "common" once, except one doc per 200
    /// where "hot" repeats 30×. Blocks without a high-tf doc get a low
    /// upper bound, so the verifier can stop after the hot blocks.
    fn skewed_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(Codec::EliasFano).with_block_len(32);
        for i in 0..2000u32 {
            let hot_tf = if i % 200 == 0 { 30 } else { 1 };
            let mut tokens = vec!["common"];
            tokens.extend(std::iter::repeat_n("hot", hot_tf));
            tokens.resize(40, "filler");
            b.add_document(&tokens);
        }
        b.build()
    }

    #[test]
    fn pruning_skips_tf_blocks_and_is_no_slower() {
        let idx = skewed_index();
        let engine = CpuEngine::new();
        // Both terms are everywhere → 2000 candidates; only the 10 hot
        // docs (and their block-mates) can beat the floor at k = 10.
        let q = vec![idx.lookup("hot").unwrap(), idx.lookup("common").unwrap()];
        let plain = engine.process_query(&idx, &q, 10);
        let pruned = engine.process_query_pruned(&idx, &q, 10);
        assert_eq!(plain.topk, pruned.topk);
        assert!(
            pruned.stats.verified < pruned.stats.candidates,
            "verified {} of {} candidates",
            pruned.stats.verified,
            pruned.stats.candidates
        );
        assert!(
            pruned.stats.blocks_skipped_fraction() > 0.0,
            "stats {:?}",
            pruned.stats
        );
        assert!(
            pruned.time.as_nanos() <= plain.time.as_nanos(),
            "pruned {} vs plain {}",
            pruned.time,
            plain.time
        );
    }

    #[test]
    fn pruned_handles_uniform_tf_ties() {
        // from_docid_lists: tf = 1 everywhere, uniform doc lengths — all
        // final scores identical, so nothing can be pruned and tie-breaks
        // carry the whole result. Must still match bit-for-bit.
        let lists = vec![
            (0..600u32).map(|i| i * 2).collect::<Vec<_>>(),
            (0..900u32).map(|i| i * 3).collect::<Vec<_>>(),
        ];
        let idx = InvertedIndex::from_docid_lists(&lists, 3000, Codec::EliasFano, 128);
        let engine = CpuEngine::new();
        let q = vec![idx.lookup("t0").unwrap(), idx.lookup("t1").unwrap()];
        for k in [1usize, 5, 50] {
            let plain = engine.process_query(&idx, &q, k);
            let pruned = engine.process_query_pruned(&idx, &q, k);
            assert_eq!(plain.topk, pruned.topk, "k = {k}");
        }
    }

    #[test]
    fn pruned_empty_and_degenerate_cases() {
        let idx = small_index();
        let engine = CpuEngine::new();
        let q = tids(&idx, &["travel", "merge"]); // empty intersection
        assert!(engine.process_query_pruned(&idx, &q, 10).topk.is_empty());
        let q = tids(&idx, &["austria"]);
        assert!(engine.process_query_pruned(&idx, &q, 0).topk.is_empty());
        assert!(engine.process_query_pruned(&idx, &[], 10).topk.is_empty());
    }

    #[test]
    fn docid_chain_provenance_points_back() {
        let idx = varied_index();
        let engine = CpuEngine::new();
        let q = vec![idx.lookup("w0").unwrap(), idx.lookup("w3").unwrap()];
        let mut w = WorkCounters::default();
        let chain = engine.docid_chain(&idx, &q, &mut w);
        assert_eq!(chain.elem_idx.len(), chain.planned.len());
        for (t, &term) in chain.planned.iter().enumerate() {
            let (ids, _) = idx.list(term).decompress();
            for (c, &d) in chain.docids.iter().enumerate() {
                assert_eq!(ids[chain.elem_idx[t][c] as usize], d, "term {t} cand {c}");
            }
        }
    }

    #[test]
    fn eval_chain_matches_process_query_prefix() {
        let idx = small_index();
        let engine = CpuEngine::new();
        let q = tids(&idx, &["ppopp", "austria", "2018"]);
        let mut w = WorkCounters::default();
        let inter = engine.eval_chain(&idx, &q, &mut w);
        let out = engine.process_query(&idx, &q, 100);
        // The whole query is the chain's work plus the ranking's.
        topk::top_k(&inter.docids, &inter.scores, 100, &mut w);
        assert_eq!(out.counters, w);
        let mut expect: Vec<(u32, f32)> = inter.docids.into_iter().zip(inter.scores).collect();
        expect.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(out.topk, expect);
    }
}
