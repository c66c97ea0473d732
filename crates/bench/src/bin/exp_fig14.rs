//! **Fig. 14** — end-to-end query latency by number of terms: CPU-only vs
//! GPU-only (Griffin-GPU alone) vs Griffin (hybrid).
//!
//! Paper: Griffin consistently beats both, averaging ~10× over the CPU
//! implementation and ~1.5× over Griffin-GPU — because early (low-ratio)
//! intersections belong on the GPU and late (high-ratio) ones on the CPU,
//! and only Griffin runs each where it wins.
//!
//! With `--metrics-json <path>` / `--trace-json <path>` the run leaves
//! machine-readable telemetry artifacts: scheduler decisions per `Proc`,
//! per-step latency histograms, GPU kernel aggregates, and the full
//! structured query trace.

use std::collections::BTreeMap;

use griffin::{ExecMode, Griffin, QueryRequest};
use griffin_bench::report::{ms, speedup, Table};
use griffin_bench::setup::{k20, scaled};
use griffin_bench::Artifacts;
use griffin_gpu_sim::Gpu;
use griffin_workload::{build_list_index, LatencyStats, ListIndexSpec, QueryLogSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let artifacts = Artifacts::from_args();
    let mut rng = StdRng::seed_from_u64(14);
    let spec = ListIndexSpec {
        num_terms: 64,
        num_docs: 12_000_000,
        max_list_len: 4_000_000,
        ..Default::default()
    };
    eprintln!("building index ({} terms)...", spec.num_terms);
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: scaled(100),
        ..Default::default()
    }
    .generate(&index, &mut rng);
    eprintln!("running {} queries x 3 modes...", queries.len());

    let gpu = Gpu::new(k20());
    let mut griffin = Griffin::new(&gpu, index.meta(), index.block_len());
    griffin.set_telemetry(artifacts.telemetry());

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

    let mut t = Table::new(
        "Fig. 14: End-to-End Query Latency (avg virtual ms by #terms)",
        &[
            "#terms", "n", "CPU only", "GPU only", "Griffin", "vs CPU", "vs GPU",
        ],
    );
    let mut overall = [0.0f64; 3];
    let mut total_n = 0usize;
    for (terms, stats) in &by_terms {
        let cpu = stats[0].mean();
        let gpu_t = stats[1].mean();
        let hyb = stats[2].mean();
        overall[0] += cpu.as_nanos() as f64 * stats[0].len() as f64;
        overall[1] += gpu_t.as_nanos() as f64 * stats[1].len() as f64;
        overall[2] += hyb.as_nanos() as f64 * stats[2].len() as f64;
        total_n += stats[0].len();
        t.row(&[
            if *terms >= 7 {
                "> 6".into()
            } else {
                terms.to_string()
            },
            stats[0].len().to_string(),
            ms(cpu),
            ms(gpu_t),
            ms(hyb),
            speedup(hyb.speedup_over(cpu)),
            speedup(hyb.speedup_over(gpu_t)),
        ]);
    }
    t.print();
    artifacts.write_table(&t);
    artifacts.write_metrics(griffin.telemetry());
    artifacts.write_trace(griffin.telemetry());
    println!(
        "\noverall: Griffin vs CPU-only = {}, Griffin vs GPU-only = {} (paper: ~10x, ~1.5x)",
        speedup(overall[0] / overall[2]),
        speedup(overall[1] / overall[2]),
    );
    artifacts.snapshot_metric("hybrid_mean_ns", overall[2] / total_n as f64);
    artifacts.snapshot_metric("vs_cpu_speedup", overall[0] / overall[2]);
    artifacts.snapshot_metric("vs_gpu_speedup", overall[1] / overall[2]);
    artifacts.write_snapshot("exp_fig14");
}
