//! Property tests of the query-plan layer: every generated AST, in every
//! mode, returns [`griffin_suite::oracle`]'s top-k bit for bit. If any
//! executor — CPU, GPU, hybrid per-step, co-executed splits, the host
//! list cache, or the pruned conjunctive path — folds scores in another
//! order than the planner fixes, these tests catch the single-ULP drift.

use std::sync::OnceLock;

use griffin_suite::griffin::{Query, QueryRequest, SplitConfig};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::griffin_workload::Corpus;
use griffin_suite::oracle;
use griffin_suite::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODES: [ExecMode; 3] = [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid];
const VOCAB: usize = 30;

/// 241 token documents drawn from the seed, each word `w` given as its
/// term `TermId(w)`: the first holds every word once, the other 240 hold
/// 10 to 50 words drawn rank-biased (`u²`), a Zipf-ish df spread.
fn docs() -> &'static [Vec<u32>] {
    static DOCS: OnceLock<Vec<Vec<u32>>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(oracle::seed() ^ 0x9E3779B9);
        let mut docs = vec![(0..VOCAB as u32).collect()];
        for _ in 0..240 {
            let len = rng.gen_range(10..=50);
            docs.push((0..len).map(|_| random_term(&mut rng).0).collect());
        }
        docs
    })
}

/// [`docs`] as an [`oracle::text_corpus`] of the words `w00` to `w29`
/// (the first document interns them in term order), so every document
/// has its own length and tfs and positions are the tokens' own. Blocks
/// of 32, so chains span several blocks and the pruned path's per-block
/// bounds discriminate.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let texts: Vec<String> = docs()
            .iter()
            .map(|d| d.iter().map(|w| format!("w{w:02} ")).collect())
            .collect();
        let c = oracle::text_corpus(&texts, 32);
        for w in 0..VOCAB as u32 {
            assert_eq!(c.index.lookup(&format!("w{w:02}")), Some(TermId(w)));
        }
        c
    })
}

// ---------------------------------------------------------------------
// Query generation.
// ---------------------------------------------------------------------

fn random_term(rng: &mut StdRng) -> TermId {
    let u: f64 = rng.gen();
    TermId(((u * u * VOCAB as f64) as usize).min(VOCAB - 1) as u32)
}

/// A phrase that usually matches something: half the time a window of
/// consecutive words from a random document, otherwise random words.
fn random_phrase(rng: &mut StdRng) -> Query {
    let plen = rng.gen_range(2..=3usize);
    if rng.gen::<bool>() {
        let doc = &docs()[rng.gen_range(1..docs().len())];
        if doc.len() > plen {
            let start = rng.gen_range(0..doc.len() - plen);
            return Query::Phrase(
                doc[start..start + plen]
                    .iter()
                    .map(|&w| TermId(w))
                    .collect(),
            );
        }
    }
    Query::Phrase((0..plen).map(|_| random_term(rng)).collect())
}

fn gen_query(rng: &mut StdRng, depth: usize) -> Query {
    if depth == 0 {
        return if rng.gen_range(0..5) == 0 {
            random_phrase(rng)
        } else {
            Query::Term(random_term(rng))
        };
    }
    match rng.gen_range(0..100) {
        0..=29 => Query::Term(random_term(rng)),
        30..=54 => Query::And(
            (0..rng.gen_range(2..=3))
                .map(|_| gen_query(rng, depth - 1))
                .collect(),
        ),
        55..=74 => Query::Or(
            (0..rng.gen_range(2..=3))
                .map(|_| gen_query(rng, depth - 1))
                .collect(),
        ),
        75..=87 => Query::Not(
            Box::new(gen_query(rng, depth - 1)),
            Box::new(gen_query(rng, depth - 1)),
        ),
        _ => random_phrase(rng),
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

    /// Every generated AST, in every execution mode, returns the oracle's
    /// top-k — docIDs and scores bit-for-bit — and keeps the step-sum
    /// invariant: cold, and again with every list in the host tier,
    /// where the CPU steps read the cached copies.
    #[test]
    fn every_ast_matches_the_reference_in_every_mode(seed in 0u64..1 << 48) {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ oracle::seed());
        let q = gen_query(&mut rng, 3).normalize();
        let k = [1usize, 3, 10, 100][rng.gen_range(0..4)];
        let expect = oracle::bits(&oracle::top_k(c, &q, k));

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, c.index.meta(), c.index.block_len());
        for cached in [false, true] {
            if cached {
                griffin.cpu.set_host_cache_budget(1 << 20);
                for t in 0..VOCAB as u32 {
                    prop_assert!(griffin.cpu.warm_host_cache(&c.index, TermId(t)));
                }
            }
            for mode in MODES {
                let req = QueryRequest::from_query(q.clone()).k(k).mode(mode);
                let out = griffin.run(&c.index, &req);
                prop_assert_eq!(oracle::bits(&out.topk), expect.clone(), "{:?} (cached {}) diverged on {:?}", mode, cached, q);
                prop_assert_eq!(out.gpu_faults, 0, "healthy device");
                prop_assert_eq!(step_sum(&out), out.time, "step sum diverged ({:?})", mode);
            }
        }
        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0, "plan execution must not leak");
    }

    /// Co-executed splits and armed (no-op) fault plans are invisible:
    /// forced split fractions under an armed `GRIFFIN_FAULT_SEED` plan
    /// still return the oracle's answer exactly.
    #[test]
    fn forced_splits_with_armed_fault_plans_stay_bit_exact(seed in 0u64..1 << 48) {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ oracle::seed() ^ 0x5917);
        let q = gen_query(&mut rng, 3).normalize();
        let expect = oracle::bits(&oracle::top_k(c, &q, 10));
        let plan = FaultPlan::seeded(oracle::seed());
        prop_assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");

        for fraction in [0.25, 0.75] {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            let mut griffin = Griffin::new(&gpu, c.index.meta(), c.index.block_len());
            gpu.set_fault_plan(Some(plan.clone()));
            griffin.scheduler.split = Some(SplitConfig::forced(fraction));
            let req = QueryRequest::from_query(q.clone()).k(10).mode(ExecMode::Hybrid);
            let out = griffin.run(&c.index, &req);
            prop_assert_eq!(oracle::bits(&out.topk), expect.clone(), "fraction {} diverged on {:?}", fraction, q);
            prop_assert_eq!(out.gpu_faults, 0, "armed no-op plan must not fault");
            prop_assert_eq!(step_sum(&out), out.time);
            griffin.gpu.shutdown();
            prop_assert_eq!(gpu.mem_in_use(), 0);
        }
    }

    /// On a device tracing one warp in 16, where all but the first of a
    /// list's decode blocks run as the native twin, every mode returns
    /// the oracle's top-k bit for bit, keeps the step sum, and leaks
    /// nothing.
    #[test]
    fn a_device_tracing_one_warp_in_16_matches_cpu_only(seed in 0u64..1 << 48) {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ oracle::seed() ^ 0x16);
        let q = gen_query(&mut rng, 3).normalize();
        let expect = oracle::bits(&oracle::top_k(c, &q, 10));

        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: 16,
            ..DeviceConfig::test_tiny()
        });
        let griffin = Griffin::new(&gpu, c.index.meta(), c.index.block_len());
        for mode in MODES {
            let out = griffin.run(&c.index, &QueryRequest::from_query(q.clone()).k(10).mode(mode));
            prop_assert_eq!(oracle::bits(&out.topk), expect.clone(), "{:?} diverged on {:?}", mode, q);
            prop_assert_eq!(step_sum(&out), out.time, "step sum diverged ({:?})", mode);
        }
        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0, "plan execution must not leak");
    }

    /// `parse(display(q)) == q` for every generated normalized AST.
    #[test]
    fn parser_round_trips_generated_asts(seed in 0u64..1 << 48) {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ oracle::seed() ^ 0xD15B1A);
        let q = gen_query(&mut rng, 3).normalize();
        prop_assert!(q != Query::Nothing, "generation never yields Nothing");
        let text = q.display(c.index.dictionary());
        let again = Query::parse(&c.index, &text, false)
            .unwrap_or_else(|e| panic!("{q:?} displayed as unparseable {text:?}: {e}"));
        prop_assert_eq!(again, q, "round-trip changed the tree for {:?}", text);
    }

    /// Block-max pruning never changes a single docID or score, in any
    /// mode, and reports its statistics; on non-conjunctive trees the
    /// flag is ignored.
    #[test]
    fn pruned_topk_is_bit_exact_with_unpruned(seed in 0u64..1 << 48) {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ oracle::seed() ^ 0x9121);
        let terms: Vec<TermId> = (0..rng.gen_range(2..=4))
            .map(|_| random_term(&mut rng))
            .collect();
        let k = [1usize, 10][rng.gen_range(0..2)];

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, c.index.meta(), c.index.block_len());
        for mode in MODES {
            let plain = QueryRequest::new(terms.clone()).k(k).mode(mode);
            let expect = oracle::expect(c, &plain);
            let a = griffin.run(&c.index, &plain);
            let b = griffin.run(&c.index, &plain.clone().pruned(true));
            prop_assert_eq!(oracle::bits(&a.topk), expect.clone(), "unpruned ({:?})", mode);
            prop_assert_eq!(oracle::bits(&b.topk), expect, "pruning changed the top-k ({:?})", mode);
            prop_assert!(a.pruning.is_none(), "unpruned runs report no stats");
            let stats = b.pruning.expect("pruned conjunctions report stats");
            let f = stats.blocks_skipped_fraction();
            prop_assert!((0.0..=1.0).contains(&f), "skip fraction {} out of range", f);
            prop_assert_eq!(step_sum(&b), b.time);
        }

        // A non-conjunctive tree ignores the flag: the same answer, no
        // pruning statistics.
        let q = Query::Or(vec![
            Query::Term(terms[0]),
            Query::And(terms[1..].iter().map(|&t| Query::Term(t)).collect()),
        ]);
        let req = QueryRequest::from_query(q).k(k);
        let expect = oracle::expect(c, &req);
        let a = griffin.run(&c.index, &req);
        let b = griffin.run(&c.index, &req.clone().pruned(true));
        prop_assert_eq!(oracle::bits(&a.topk), expect.clone());
        prop_assert_eq!(oracle::bits(&b.topk), expect);
        prop_assert!(b.pruning.is_none(), "plan path reports no pruning stats");

        griffin.gpu.shutdown();
        prop_assert_eq!(gpu.mem_in_use(), 0);
    }
}

/// The degenerate tree: `Nothing` runs to an empty, zero-cost output in
/// every mode.
#[test]
fn nothing_runs_to_an_empty_output() {
    let c = corpus();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, c.index.meta(), c.index.block_len());
    for mode in MODES {
        let req = QueryRequest::from_query(Query::Nothing).mode(mode);
        let out = griffin.run(&c.index, &req);
        assert!(out.topk.is_empty());
        assert_eq!(out.time, VirtualNanos::ZERO);
        assert!(out.steps.is_empty());
    }
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}
