//! Web-scale-ish search scenario: a synthetic index with Fig. 10-shaped
//! posting lists, a Fig. 11-shaped query log, and a per-mode latency
//! comparison — a miniature of the paper's Fig. 14 experiment.
//!
//! ```text
//! cargo run --release --example web_search
//! ```

use std::collections::BTreeMap;

use griffin_suite::prelude::*;
use griffin_workload::LatencyStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2018);

    // A scaled-down ClueWeb stand-in: 48 terms, lists up to 400K postings.
    let spec = ListIndexSpec {
        num_terms: 48,
        num_docs: 2_000_000,
        max_list_len: 400_000,
        ..Default::default()
    };
    println!(
        "generating index ({} terms, {} docs)...",
        spec.num_terms, spec.num_docs
    );
    let (index, _) = build_list_index(&spec, &mut rng);

    let queries = QueryLogSpec {
        num_queries: 120,
        ..Default::default()
    }
    .generate(&index, &mut rng);

    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let griffin = Griffin::new(&gpu, index.meta(), index.block_len());

    // Group latencies by term count, as Fig. 14 does.
    let mut by_terms: BTreeMap<usize, [LatencyStats; 3]> = BTreeMap::new();
    for q in &queries {
        let bucket = by_terms.entry(q.len().min(7)).or_default();
        for (i, mode) in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid]
            .into_iter()
            .enumerate()
        {
            let out = griffin.run(&index, &QueryRequest::new(q.to_vec()).mode(mode));
            bucket[i].record(out.time);
        }
    }

    println!("\naverage query latency by number of terms (virtual ms):");
    println!(
        "{:>7} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "#terms", "n", "CPU-only", "GPU-only", "Griffin", "vs CPU", "vs GPU"
    );
    for (terms, stats) in &by_terms {
        let cpu = stats[0].mean();
        let gpu_t = stats[1].mean();
        let hyb = stats[2].mean();
        println!(
            "{:>7} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>8.1}x {:>8.1}x",
            if *terms >= 7 {
                ">6".to_string()
            } else {
                terms.to_string()
            },
            stats[0].len(),
            cpu.as_millis_f64(),
            gpu_t.as_millis_f64(),
            hyb.as_millis_f64(),
            hyb.speedup_over(cpu),
            hyb.speedup_over(gpu_t),
        );
    }

    println!("\n(the shape to look for: Griffin tracks the better of the two");
    println!(" engines per query and beats both on mixed workloads — Fig. 14)");
}
