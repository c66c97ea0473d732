//! Cross-crate integration: text → index → all three execution modes,
//! every answer checked against [`griffin_suite::oracle`].

use griffin_suite::oracle;
use griffin_suite::prelude::*;

const DOCS: [&str; 10] = [
    "the gpu accelerates query processing in search engines",
    "cpu query processing relies on skip pointers",
    "search engines compress inverted lists with elias fano",
    "the merge path algorithm balances gpu load",
    "query latency drops when the gpu and cpu cooperate",
    "inverted lists store document identifiers in sorted order",
    "tail latency matters for interactive search",
    "the cpu and gpu each win on different query shapes",
    "compression ratio and decompression speed trade off",
    "griffin schedules query operations dynamically",
];

fn query(idx: &InvertedIndex, words: &[&str]) -> Vec<TermId> {
    words
        .iter()
        .map(|w| idx.lookup(w).expect("word in vocab"))
        .collect()
}

/// Every mode returns the oracle's conjunctive, ranked, k-truncated
/// answer to the bit.
#[test]
fn all_modes_agree_on_text_corpus() {
    let corpus = oracle::text_corpus(&DOCS, DEFAULT_BLOCK_LEN);
    let idx = &corpus.index;
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());

    for words in [
        vec!["gpu", "query"],
        vec!["cpu", "query", "processing"],
        vec!["search", "engines"],
        vec!["the", "gpu", "cpu"],
        vec!["query", "latency"],
        vec!["the", "query"],
    ] {
        for k in [1usize, 2, 5, 100] {
            let req = QueryRequest::new(query(idx, &words)).k(k);
            for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
                let out = griffin.run(idx, &req.clone().mode(mode));
                oracle::assert_answer(&corpus, &req, &out, &format!("{words:?} k={k} {mode:?}"));
            }
        }
    }
}

/// The synthetic pipeline, cold and then with every list in the host
/// tier, where the CPU steps' skip searches read the cached copies.
#[test]
fn synthetic_workload_pipeline_runs_end_to_end() {
    let wl = oracle::workload(300_000, 60_000, 20, 99);
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    for cached in [false, true] {
        if cached {
            griffin.cpu.set_host_cache_budget(1 << 26);
            for t in 0..wl.corpus.index.num_terms() as u32 {
                assert!(griffin.cpu.warm_host_cache(&wl.corpus.index, TermId(t)));
            }
        }
        for q in &wl.queries {
            for mode in [ExecMode::CpuOnly, ExecMode::Hybrid] {
                let req = QueryRequest::new(q.clone()).mode(mode);
                let out = griffin.run(&wl.corpus.index, &req);
                let ctx = format!("{mode:?} cached {cached}");
                oracle::assert_answer(&wl.corpus, &req, &out, &ctx);
                assert!(out.time.as_nanos() > 0);
            }
        }
    }
}

#[test]
fn serving_simulation_consumes_hybrid_traces() {
    use griffin_server::{stages_of, PlannedQuery, ServerConfig, ServerSim};

    let corpus = oracle::text_corpus(&DOCS, DEFAULT_BLOCK_LEN);
    let idx = &corpus.index;
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
    let out = griffin.run(idx, &QueryRequest::new(query(idx, &["gpu", "query"])));

    let job = PlannedQuery {
        stages: stages_of(&out),
        ..Default::default()
    };
    let report = ServerSim::new(ServerConfig::default()).run(&[job], &[VirtualNanos::ZERO]);
    // Unloaded latency equals the sum of the stages.
    assert_eq!(report.queries[0].latency, Some(out.time));
}
