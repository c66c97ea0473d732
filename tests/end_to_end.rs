//! Cross-crate integration: text → index → all three execution modes.

use griffin_suite::prelude::*;

fn build_index() -> InvertedIndex {
    let docs = [
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
    let mut b = IndexBuilder::new(Codec::EliasFano);
    for d in docs {
        b.add_text(d);
    }
    b.build()
}

fn query(idx: &InvertedIndex, words: &[&str]) -> Vec<TermId> {
    words
        .iter()
        .map(|w| idx.lookup(w).expect("word in vocab"))
        .collect()
}

#[test]
fn all_modes_agree_on_text_corpus() {
    let idx = build_index();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());

    for words in [
        vec!["gpu", "query"],
        vec!["cpu", "query", "processing"],
        vec!["search", "engines"],
        vec!["the", "gpu", "cpu"],
        vec!["query", "latency"],
    ] {
        let q = query(&idx, &words);
        let cpu = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));
        let gpu_only = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::GpuOnly));
        let hybrid = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();
        assert_eq!(ids(&cpu), ids(&gpu_only), "{words:?}");
        assert_eq!(ids(&cpu), ids(&hybrid), "{words:?}");
        for ((_, a), (_, b)) in cpu.topk.iter().zip(&hybrid.topk) {
            assert!((a - b).abs() < 1e-4, "{words:?}: {a} vs {b}");
        }
    }
}

#[test]
fn results_are_actually_conjunctive() {
    let idx = build_index();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
    let q = query(&idx, &["gpu", "query"]);
    let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
    assert!(!out.topk.is_empty());
    // Verify each hit contains every term by checking the posting lists.
    for &(docid, _) in &out.topk {
        for &t in &q {
            let (ids, _) = idx.list(t).decompress();
            assert!(
                ids.binary_search(&docid).is_ok(),
                "doc {docid} missing term {t:?}"
            );
        }
    }
}

#[test]
fn ranking_is_descending_and_respects_k() {
    let idx = build_index();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
    let q = query(&idx, &["the", "query"]);
    for k in [1usize, 2, 5, 100] {
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()).k(k));
        assert!(out.topk.len() <= k);
        for w in out.topk.windows(2) {
            assert!(w[0].1 >= w[1].1, "scores must be non-increasing");
        }
    }
}

#[test]
fn synthetic_workload_pipeline_runs_end_to_end() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let spec = griffin_suite::griffin_workload::ListIndexSpec {
        num_terms: 16,
        num_docs: 300_000,
        max_list_len: 60_000,
        ..Default::default()
    };
    let (idx, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: 20,
        ..Default::default()
    }
    .generate(&idx, &mut rng);

    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
    for q in &queries {
        let cpu = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));
        let hyb = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();
        assert_eq!(ids(&cpu), ids(&hyb));
        assert!(cpu.time.as_nanos() > 0);
        assert!(hyb.time.as_nanos() > 0);
    }
}

#[test]
fn serving_simulation_consumes_hybrid_traces() {
    use griffin_server::{stages_of, PlannedQuery, ServerConfig, ServerSim};

    let idx = build_index();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
    let q = query(&idx, &["gpu", "query"]);
    let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));

    let job = PlannedQuery {
        stages: stages_of(&out),
        ..Default::default()
    };
    let report = ServerSim::new(ServerConfig::default()).run(&[job], &[VirtualNanos::ZERO]);
    // Unloaded latency equals the sum of the stages.
    assert_eq!(report.queries[0].latency, Some(out.time));
}
