//! Tail-latency study in miniature (paper §4.5, Fig. 15): stream queries
//! through the serving simulator (4 CPU cores + 1 GPU) under CPU-only and
//! Griffin execution and compare the latency percentiles.
//!
//! ```text
//! cargo run --release --example tail_latency
//! ```

use griffin::serving::{Resource, StageReq};
use griffin_server::{stages_of, PlannedQuery, ServerConfig, ServerSim};
use griffin_suite::prelude::*;
use griffin_workload::LatencyStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = ListIndexSpec {
        num_terms: 40,
        num_docs: 1_500_000,
        max_list_len: 300_000,
        ..Default::default()
    };
    println!("generating index...");
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: 200,
        ..Default::default()
    }
    .generate(&index, &mut rng);

    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let griffin = Griffin::new(&gpu, index.meta(), index.block_len());

    // Profile each query once per mode to get its stage structure.
    println!("profiling {} queries...", queries.len());
    let job = |stages: Vec<StageReq>| PlannedQuery {
        stages,
        ..Default::default()
    };
    let mut cpu_jobs = Vec::new();
    let mut hybrid_jobs = Vec::new();
    let mut arrivals = Vec::new();
    let mut arrival = VirtualNanos::ZERO;
    for q in &queries {
        // Poisson-ish arrivals: exponential inter-arrival, mean 2 ms.
        arrival += VirtualNanos::from_nanos_f64(-2_000_000.0 * (1.0 - rng.gen::<f64>()).ln());
        arrivals.push(arrival);

        let cpu_out = griffin.run(
            &index,
            &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly),
        );
        cpu_jobs.push(job(vec![StageReq::new(Resource::Cpu, cpu_out.time)]));

        // The trace → stage bridge: GPU kernels and PCIe migrations
        // occupy the GPU lane, everything else a CPU core.
        let hybrid_out = griffin.run(&index, &QueryRequest::new(q.to_vec()));
        hybrid_jobs.push(job(stages_of(&hybrid_out)));
    }

    println!("replaying through the serving simulator (4 CPU cores, 1 GPU)...");
    // The paper's plain model: unbounded admission, no batch packing.
    let sim = ServerSim::new(ServerConfig::default());
    let cpu = sim.run(&cpu_jobs, &arrivals);
    let hyb = sim.run(&hybrid_jobs, &arrivals);

    let mut cpu_stats = LatencyStats::new();
    let mut hyb_stats = LatencyStats::new();
    for (c, h) in cpu.queries.iter().zip(&hyb.queries) {
        cpu_stats.record(c.latency.expect("nothing is shed"));
        hyb_stats.record(h.latency.expect("nothing is shed"));
    }

    println!("\nlatency percentiles (virtual ms):");
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "pct", "CPU-only", "Griffin", "speedup"
    );
    for (p, cpu_p) in cpu_stats.tail_set() {
        let hyb_p = hyb_stats.percentile(p);
        println!(
            "{:>9}% {:>12.3} {:>12.3} {:>8.1}x",
            p,
            cpu_p.as_millis_f64(),
            hyb_p.as_millis_f64(),
            hyb_p.speedup_over(cpu_p),
        );
    }
    println!("\n(expect the speedup to GROW with the percentile — Fig. 15's");
    println!(" signature: Griffin unclogs the heavy queries that block the queue)");
}
