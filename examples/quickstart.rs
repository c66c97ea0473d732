//! Quickstart: build a tiny index from text, run one query in all three
//! execution modes, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use griffin_suite::prelude::*;

fn main() {
    // 1. Build an index (Elias–Fano compression, 128-element blocks).
    let docs = [
        "griffin unites cpu and gpu for query processing",
        "gpu merge path intersection is load balanced",
        "cpu engines use skip pointers and binary search",
        "elias fano encoding compresses inverted lists well",
        "query processing intersects inverted lists of terms",
        "the gpu decompresses lists with parallel elias fano",
        "tail latency drops when heavy query stages move to the gpu",
        "cpu and gpu cooperate within a single query in griffin",
    ];
    let mut builder = IndexBuilder::new(Codec::EliasFano);
    for d in &docs {
        builder.add_text(d);
    }
    let index = builder.build();
    println!(
        "index: {} docs, {} terms, {:.1} bits/posting",
        index.num_docs(),
        index.num_terms(),
        index.size_bits() as f64
            / docs
                .iter()
                .map(|d| d.split_whitespace().count() as u64)
                .sum::<u64>() as f64,
    );

    // 2. Bring up the simulated Tesla K20 and the Griffin system.
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let griffin = Griffin::new(&gpu, index.meta(), index.block_len());

    // 3. A conjunctive query: documents containing all three terms.
    let query: Vec<TermId> = ["gpu", "query", "cpu"]
        .iter()
        .map(|t| index.lookup(t).expect("term in vocabulary"))
        .collect();

    for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
        let out = griffin.run(&index, &QueryRequest::new(query.to_vec()).k(5).mode(mode));
        println!("\n== {mode:?} ({}) ==", out.time);
        for (rank, (docid, score)) in out.topk.iter().enumerate() {
            println!(
                "  #{} doc{:<2} score {:.3}  \"{}\"",
                rank + 1,
                docid,
                score,
                docs[*docid as usize]
            );
        }
        if !out.steps.is_empty() {
            println!("  schedule:");
            for s in &out.steps {
                println!(
                    "    {:?} on {:?}: {} (intermediate -> {})",
                    s.op, s.proc, s.time, s.inter_len
                );
            }
        }
    }
}
