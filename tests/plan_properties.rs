//! Property tests of the query-plan layer: every generated AST must be
//! bit-exact against a brute-force set-algebra reference.
//!
//! The reference evaluates queries directly over the raw token lists the
//! corpus was built from, mirroring the f32 fold orders the planner
//! fixes (see `griffin::plan`): chains accumulate BM25 contributions in
//! stable df-sorted order, mixed ANDs intersect the term chain with the
//! complex children in AST order, ORs union left-to-right (overlap
//! scores add left + right), NOT keeps the left side's scores, phrases
//! score like their term chain and then filter positionally. If any
//! executor — CPU, GPU, hybrid per-step, co-executed splits, or the
//! pruned conjunctive path — folds in a different order, these tests
//! catch the single-ULP drift.
//!
//! Set `GRIFFIN_FAULT_SEED` to vary the corpus, the generated queries,
//! and the armed fault plans (the CI `plan-invariants` job sweeps a
//! fixed set of seeds).

use std::collections::HashMap;
use std::sync::OnceLock;

use griffin_suite::griffin::{Query, QueryRequest, SplitConfig};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODES: [ExecMode; 3] = [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid];
const VOCAB: usize = 30;

fn fault_seed() -> u64 {
    std::env::var("GRIFFIN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

struct Fixture {
    index: InvertedIndex,
    /// The raw documents (word indices) — the reference's ground truth.
    docs: Vec<Vec<usize>>,
    /// word index -> TermId.
    term_of: Vec<TermId>,
    /// TermId -> word index.
    word_of: HashMap<TermId, usize>,
}

/// Corpus derived from the fault seed, so the CI seed sweep varies the
/// documents and queries as well as the fault schedules. The first
/// document contains every vocabulary word once, guaranteeing every
/// word resolves to a term.
fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(fault_seed() ^ 0x9E3779B9);
        let mut docs: Vec<Vec<usize>> = vec![(0..VOCAB).collect()];
        for _ in 0..240 {
            let len = rng.gen_range(10..=50);
            docs.push(
                (0..len)
                    .map(|_| {
                        // Rank-biased draw: low word indices are common,
                        // high ones rare — Zipf-ish df spread.
                        let u: f64 = rng.gen();
                        ((u * u * VOCAB as f64) as usize).min(VOCAB - 1)
                    })
                    .collect(),
            );
        }
        // Fine-grained blocks so chains span several blocks and the
        // pruned path's per-block bounds actually discriminate.
        let mut builder = IndexBuilder::new(Codec::EliasFano).with_block_len(32);
        for tokens in &docs {
            let words: Vec<String> = tokens.iter().map(|w| format!("w{w}")).collect();
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            builder.add_document(&refs);
        }
        let index = builder.build();
        let term_of: Vec<TermId> = (0..VOCAB)
            .map(|w| index.lookup(&format!("w{w}")).expect("vocab doc covers w"))
            .collect();
        let word_of = term_of.iter().enumerate().map(|(w, &t)| (t, w)).collect();
        Fixture {
            index,
            docs,
            term_of,
            word_of,
        }
    })
}

// ---------------------------------------------------------------------
// The brute-force reference.
// ---------------------------------------------------------------------

fn tf(fx: &Fixture, d: u32, word: usize) -> u32 {
    fx.docs[d as usize].iter().filter(|&&x| x == word).count() as u32
}

/// AND-chain of terms: documents containing every term, scores folded in
/// stable df-sorted order — one left-associated f32 addition per term.
fn chain_ref(fx: &Fixture, terms: &[TermId]) -> Vec<(u32, f32)> {
    if terms.is_empty() {
        return Vec::new();
    }
    let mut sorted = terms.to_vec();
    sorted.sort_by_key(|&t| fx.index.doc_freq(t));
    let bm = fx.index.bm25();
    let meta = fx.index.meta();
    let mut out = Vec::new();
    'doc: for d in 0..fx.docs.len() as u32 {
        let mut score = 0.0f32;
        for (i, &t) in sorted.iter().enumerate() {
            let tf = tf(fx, d, fx.word_of[&t]);
            if tf == 0 {
                continue 'doc;
            }
            let idf = bm.idf(fx.index.num_docs(), fx.index.doc_freq(t) as u32);
            let c = bm.contribution(idf, tf, meta.doc_len(d), meta.avg_doc_len);
            score = if i == 0 { c } else { score + c };
        }
        out.push((d, score));
    }
    out
}

/// Phrase: scored like its term chain, then filtered by consecutive
/// occurrence in the ORIGINAL phrase order (scores untouched).
fn phrase_ref(fx: &Fixture, terms: &[TermId]) -> Vec<(u32, f32)> {
    let words: Vec<usize> = terms.iter().map(|t| fx.word_of[t]).collect();
    chain_ref(fx, terms)
        .into_iter()
        .filter(|&(d, _)| {
            fx.docs[d as usize]
                .windows(words.len())
                .any(|win| win == words.as_slice())
        })
        .collect()
}

fn union_ref(a: &[(u32, f32)], b: &[(u32, f32)]) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn intersect_ref(a: &[(u32, f32)], b: &[(u32, f32)]) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn difference_ref(a: &[(u32, f32)], b: &[(u32, f32)]) -> Vec<(u32, f32)> {
    let keep: Vec<u32> = b.iter().map(|&(d, _)| d).collect();
    a.iter()
        .copied()
        .filter(|(d, _)| keep.binary_search(d).is_err())
        .collect()
}

/// Evaluates a NORMALIZED query tree, mirroring the planner's lowering:
/// an AND's term children form one chain evaluated first, then each
/// complex child intersects in AST order.
fn eval_ref(fx: &Fixture, q: &Query) -> Vec<(u32, f32)> {
    match q {
        Query::Nothing => Vec::new(),
        Query::Term(t) => chain_ref(fx, &[*t]),
        Query::Phrase(ts) => phrase_ref(fx, ts),
        Query::And(children) => {
            let mut terms = Vec::new();
            let mut nodes = Vec::new();
            for c in children {
                if let Query::Term(t) = c {
                    terms.push(*t);
                }
            }
            if !terms.is_empty() {
                nodes.push(chain_ref(fx, &terms));
            }
            for c in children {
                if !matches!(c, Query::Term(_)) {
                    nodes.push(eval_ref(fx, c));
                }
            }
            let mut acc = nodes.remove(0);
            for part in &nodes {
                if acc.is_empty() {
                    break;
                }
                acc = intersect_ref(&acc, part);
            }
            acc
        }
        Query::Or(children) => {
            let mut acc = eval_ref(fx, &children[0]);
            for c in &children[1..] {
                acc = union_ref(&acc, &eval_ref(fx, c));
            }
            acc
        }
        Query::Not(a, b) => {
            let l = eval_ref(fx, a);
            if l.is_empty() {
                return l;
            }
            difference_ref(&l, &eval_ref(fx, b))
        }
    }
}

/// Mirror of `griffin_cpu::topk::top_k`: descending `total_cmp` score,
/// ties broken by ascending docID.
fn topk_ref(mut items: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(k);
    items
}

// ---------------------------------------------------------------------
// Query generation.
// ---------------------------------------------------------------------

fn random_term(fx: &Fixture, rng: &mut StdRng) -> TermId {
    let u: f64 = rng.gen();
    fx.term_of[((u * u * VOCAB as f64) as usize).min(VOCAB - 1)]
}

/// A phrase that usually matches something: half the time a real window
/// of consecutive tokens from a random document, otherwise random words.
fn random_phrase(fx: &Fixture, rng: &mut StdRng) -> Query {
    let plen = rng.gen_range(2..=3usize);
    if rng.gen::<bool>() {
        let d = rng.gen_range(1..fx.docs.len());
        let doc = &fx.docs[d];
        if doc.len() > plen {
            let start = rng.gen_range(0..doc.len() - plen);
            return Query::Phrase(
                doc[start..start + plen]
                    .iter()
                    .map(|&w| fx.term_of[w])
                    .collect(),
            );
        }
    }
    Query::Phrase((0..plen).map(|_| random_term(fx, rng)).collect())
}

fn gen_query(fx: &Fixture, rng: &mut StdRng, depth: usize) -> Query {
    if depth == 0 {
        return if rng.gen_range(0..5) == 0 {
            random_phrase(fx, rng)
        } else {
            Query::Term(random_term(fx, rng))
        };
    }
    match rng.gen_range(0..100) {
        0..=29 => Query::Term(random_term(fx, rng)),
        30..=54 => Query::And(
            (0..rng.gen_range(2..=3))
                .map(|_| gen_query(fx, rng, depth - 1))
                .collect(),
        ),
        55..=74 => Query::Or(
            (0..rng.gen_range(2..=3))
                .map(|_| gen_query(fx, rng, depth - 1))
                .collect(),
        ),
        75..=87 => Query::Not(
            Box::new(gen_query(fx, rng, depth - 1)),
            Box::new(gen_query(fx, rng, depth - 1)),
        ),
        _ => random_phrase(fx, rng),
    }
}

fn step_sum(out: &GriffinOutput) -> VirtualNanos {
    out.steps.iter().map(|s| s.time).sum()
}

// ---------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated AST, in every execution mode, returns the
    /// reference's top-k — docIDs and scores bit-for-bit — and keeps the
    /// step-sum invariant.
    #[test]
    fn every_ast_matches_the_reference_in_every_mode(seed in 0u64..1 << 48) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed ^ fault_seed());
        let q = gen_query(fx, &mut rng, 3).normalize();
        let k = [1usize, 3, 10, 100][rng.gen_range(0..4)];
        let expect = topk_ref(eval_ref(fx, &q), k);

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        for mode in MODES {
            let req = QueryRequest::from_query(q.clone()).k(k).mode(mode);
            let out = griffin.run(&fx.index, &req);
            prop_assert_eq!(&out.topk, &expect, "{:?} diverged on {:?}", mode, q);
            prop_assert_eq!(out.gpu_faults, 0, "healthy device");
            prop_assert_eq!(step_sum(&out), out.time, "step sum diverged ({:?})", mode);
        }
        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0, "plan execution must not leak");
    }

    /// Co-executed splits and armed (no-op) fault plans are invisible:
    /// forced split fractions under an armed `GRIFFIN_FAULT_SEED` plan
    /// still return the reference's answer exactly.
    #[test]
    fn forced_splits_with_armed_fault_plans_stay_bit_exact(seed in 0u64..1 << 48) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed ^ fault_seed() ^ 0x5917);
        let q = gen_query(fx, &mut rng, 3).normalize();
        let expect = topk_ref(eval_ref(fx, &q), 10);
        let plan = FaultPlan::seeded(fault_seed());
        prop_assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");

        for fraction in [0.25, 0.75] {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            gpu.set_fault_plan(Some(plan.clone()));
            let mut griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
            griffin.scheduler.split = Some(SplitConfig::forced(fraction));
            let req = QueryRequest::from_query(q.clone()).k(10).mode(ExecMode::Hybrid);
            let out = griffin.run(&fx.index, &req);
            prop_assert_eq!(&out.topk, &expect, "fraction {} diverged on {:?}", fraction, q);
            prop_assert_eq!(out.gpu_faults, 0, "armed no-op plan must not fault");
            prop_assert_eq!(step_sum(&out), out.time);
            griffin.gpu.shutdown();
            prop_assert_eq!(gpu.mem_in_use(), 0);
        }
    }

    /// On a device tracing one warp in 16, where all but the first of a
    /// list's decode blocks run as the native twin, every mode still
    /// returns CpuOnly's top-k (and the reference's) bit for bit, keeps
    /// the step sum, and leaks nothing.
    #[test]
    fn a_device_tracing_one_warp_in_16_matches_cpu_only(seed in 0u64..1 << 48) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed ^ fault_seed() ^ 0x16);
        let q = gen_query(fx, &mut rng, 3).normalize();
        let expect = topk_ref(eval_ref(fx, &q), 10);

        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: 16,
            ..DeviceConfig::test_tiny()
        });
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        let run = |mode| griffin.run(&fx.index, &QueryRequest::from_query(q.clone()).k(10).mode(mode));
        let cpu = run(ExecMode::CpuOnly);
        prop_assert_eq!(&cpu.topk, &expect);
        for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
            let out = run(mode);
            let bits = |o: &GriffinOutput| o.topk.iter().map(|&(d, s)| (d, s.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&out), bits(&cpu), "{:?} diverged on {:?}", mode, q);
            prop_assert_eq!(step_sum(&out), out.time, "step sum diverged ({:?})", mode);
        }
        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0, "plan execution must not leak");
    }

    /// `parse(display(q)) == q` for every generated normalized AST.
    #[test]
    fn parser_round_trips_generated_asts(seed in 0u64..1 << 48) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed ^ fault_seed() ^ 0xD15B1A);
        let q = gen_query(fx, &mut rng, 3).normalize();
        prop_assert!(q != Query::Nothing, "generation never yields Nothing");
        let text = q.display(fx.index.dictionary());
        let again = Query::parse(&fx.index, &text, false)
            .unwrap_or_else(|e| panic!("{q:?} displayed as unparseable {text:?}: {e}"));
        prop_assert_eq!(again, q, "round-trip changed the tree for {:?}", text);
    }

    /// Block-max pruning never changes a single docID or score, in any
    /// mode, and reports its statistics; on non-conjunctive trees the
    /// flag is ignored.
    #[test]
    fn pruned_topk_is_bit_exact_with_unpruned(seed in 0u64..1 << 48) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed ^ fault_seed() ^ 0x9121);
        let terms: Vec<TermId> = (0..rng.gen_range(2..=4))
            .map(|_| random_term(fx, &mut rng))
            .collect();
        let k = [1usize, 10][rng.gen_range(0..2)];

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        for mode in MODES {
            let plain = QueryRequest::new(terms.clone()).k(k).mode(mode);
            let a = griffin.run(&fx.index, &plain);
            let b = griffin.run(&fx.index, &plain.clone().pruned(true));
            prop_assert_eq!(&a.topk, &b.topk, "pruning changed the top-k ({:?})", mode);
            prop_assert!(a.pruning.is_none(), "unpruned runs report no stats");
            let stats = b.pruning.expect("pruned conjunctions report stats");
            let f = stats.blocks_skipped_fraction();
            prop_assert!((0.0..=1.0).contains(&f), "skip fraction {} out of range", f);
            prop_assert_eq!(step_sum(&b), b.time);
        }

        // A non-conjunctive tree ignores the flag: identical output, no
        // pruning statistics.
        let q = Query::Or(vec![
            Query::Term(terms[0]),
            Query::And(terms[1..].iter().map(|&t| Query::Term(t)).collect()),
        ]);
        let req = QueryRequest::from_query(q).k(k);
        let a = griffin.run(&fx.index, &req);
        let b = griffin.run(&fx.index, &req.clone().pruned(true));
        prop_assert_eq!(&a.topk, &b.topk);
        prop_assert!(b.pruning.is_none(), "plan path reports no pruning stats");

        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0);
    }
}

/// The degenerate tree: `Nothing` runs to an empty, zero-cost output in
/// every mode.
#[test]
fn nothing_runs_to_an_empty_output() {
    let fx = fixture();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    for mode in MODES {
        let req = QueryRequest::from_query(Query::Nothing).mode(mode);
        let out = griffin.run(&fx.index, &req);
        assert!(out.topk.is_empty());
        assert_eq!(out.time, VirtualNanos::ZERO);
        assert!(out.steps.is_empty());
    }
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}
