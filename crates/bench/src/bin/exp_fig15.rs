//! **Fig. 15** — tail-latency reduction under load: queries streamed
//! through 4 CPU cores + 1 GPU, CPU-only vs Griffin.
//!
//! Paper: Griffin speeds up p80/p90/p95/p99/p99.9 response times by
//! 6.6× / 8.3× / 10.4× / 16.1× / 26.8× — the win *grows* with the
//! percentile because Griffin offloads exactly the heavy queries that
//! cause head-of-line blocking on the CPU cores.
//!
//! With `--trace-json <path>` the hybrid serving replay exports its full
//! per-core schedule as Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing`); `--metrics-json <path>` dumps the profiling
//! phase's metrics registry and the result table as CSV.

use griffin::serving::{Resource, StageReq};
use griffin::{ExecMode, Griffin, QueryRequest};
use griffin_bench::report::{ms, speedup, Table};
use griffin_bench::setup::{k20, scaled};
use griffin_bench::Artifacts;
use griffin_gpu_sim::{Gpu, VirtualNanos};
use griffin_server::{resource_totals, stages_of, PlannedQuery, ServerConfig, ServerSim};
use griffin_workload::{build_list_index, LatencyStats, ListIndexSpec, QueryLogSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let artifacts = Artifacts::from_args();
    let mut rng = StdRng::seed_from_u64(15);
    let spec = ListIndexSpec {
        num_terms: 64,
        num_docs: 12_000_000,
        max_list_len: 4_000_000,
        ..Default::default()
    };
    eprintln!("building index...");
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: scaled(600),
        ..Default::default()
    }
    .generate(&index, &mut rng);

    let gpu = Gpu::new(k20());
    let mut griffin = Griffin::new(&gpu, index.meta(), index.block_len());
    griffin.set_telemetry(artifacts.telemetry());
    // Serving configuration: with one GPU shared by every in-flight query,
    // medium operations are not worth their fixed kernel/transfer costs in
    // *throughput* terms even when they win on single-query latency.
    // Reserve the GPU for the heavy operations (the scheduler extension
    // the paper's §5 discussion anticipates).
    griffin.scheduler.min_gpu_work = 64 * 1024;
    // In-query intermediates are member-dense (far more clustered than
    // Fig. 8's mixed short lists), which pulls the effective GPU/CPU
    // crossover down: the CPU's one-block cache makes ratio-16..128 ops
    // cheap. Use the measured in-query crossover.
    griffin.scheduler.ratio_threshold = 16;
    griffin.scheduler.hysteresis = 1.0;

    eprintln!("profiling {} queries...", queries.len());
    // Arrival process: open-loop Poisson. The rate is set relative to the
    // mean CPU service time so the system runs hot (~70% utilization of 4
    // cores under CPU-only execution) — tails need queueing to show.
    let mut cpu_times = Vec::with_capacity(queries.len());
    let mut hybrid_stages = Vec::with_capacity(queries.len());
    for q in &queries {
        let cpu_out = griffin.run(
            &index,
            &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly),
        );
        cpu_times.push(cpu_out.time);
        let hyb = griffin.run(&index, &QueryRequest::new(q.to_vec()));
        // The trace → stage bridge from griffin-server: GPU kernels and
        // PCIe migrations occupy the GPU lane, the rest a CPU core.
        hybrid_stages.push(stages_of(&hyb));
    }
    // Calibrate the arrival rate to the *hybrid* system's bottleneck (the
    // single GPU) at ~75% utilization — the operating point a deployment
    // would choose. The CPU-only system faces the same arrival process and
    // simply has to cope (that asymmetry is the experiment).
    let mean_gpu_stage: u64 = hybrid_stages
        .iter()
        .map(|stages| resource_totals(stages).1.as_nanos())
        .sum::<u64>()
        / hybrid_stages.len().max(1) as u64;
    // Run the CPU-only system at the edge of stability (~97% of its four
    // cores): the mean stays near the service time but the tail explodes
    // through queueing — while Griffin, needing far less machine for the
    // same stream, keeps the GPU comfortably below saturation.
    let mean_cpu: u64 =
        cpu_times.iter().map(|t| t.as_nanos()).sum::<u64>() / cpu_times.len().max(1) as u64;
    let mean_interarrival = (mean_cpu as f64 / 4.0 / 0.99).max(mean_gpu_stage as f64 / 0.65);
    eprintln!(
        "utilization at this arrival rate: GPU (hybrid) ~{:.0}%, CPU-only cores ~{:.0}%",
        mean_gpu_stage as f64 / mean_interarrival * 100.0,
        mean_cpu as f64 / 4.0 / mean_interarrival * 100.0,
    );

    let mut arrivals = Vec::with_capacity(queries.len());
    let mut now = VirtualNanos::ZERO;
    for _ in &queries {
        now += VirtualNanos::from_nanos_f64(-mean_interarrival * (1.0 - rng.gen::<f64>()).ln());
        arrivals.push(now);
    }

    let job = |stages: Vec<StageReq>| PlannedQuery {
        stages,
        ..Default::default()
    };
    let cpu_jobs: Vec<PlannedQuery> = cpu_times
        .iter()
        .map(|&t| job(vec![StageReq::new(Resource::Cpu, t)]))
        .collect();
    let hybrid_jobs: Vec<PlannedQuery> = hybrid_stages.into_iter().map(job).collect();

    eprintln!("replaying through the serving simulator (4 cores + 1 GPU)...");
    // The paper's plain model: unbounded admission, no batch packing.
    let sim = ServerSim::new(ServerConfig::default());
    let cpu = sim.run(&cpu_jobs, &arrivals);
    let hyb = sim.run(&hybrid_jobs, &arrivals);
    for u in hyb.timeline.utilization() {
        eprintln!(
            "  {}[{}]: {:.0}% busy",
            u.resource,
            u.lane,
            u.utilization * 100.0
        );
    }
    let mut cpu_stats = LatencyStats::new();
    let mut hyb_stats = LatencyStats::new();
    for (c, h) in cpu.queries.iter().zip(&hyb.queries) {
        cpu_stats.record(c.latency.expect("nothing is shed"));
        hyb_stats.record(h.latency.expect("nothing is shed"));
    }

    let mut t = Table::new(
        "Fig. 15: Tail Latency Reduction (virtual ms)",
        &["percentile", "CPU", "Griffin", "speedup", "paper"],
    );
    let paper = [6.6, 8.3, 10.4, 16.1, 26.8];
    for ((p, cpu_p), paper_s) in cpu_stats.tail_set().into_iter().zip(paper) {
        let hyb_p = hyb_stats.percentile(p);
        t.row(&[
            format!("{p}%"),
            ms(cpu_p),
            ms(hyb_p),
            speedup(hyb_p.speedup_over(cpu_p)),
            format!("{paper_s}x"),
        ]);
        // Latest wins: the snapshot keeps the highest percentile.
        artifacts.snapshot_duration("griffin_tail_ns", hyb_p);
        artifacts.snapshot_metric("tail_speedup", hyb_p.speedup_over(cpu_p));
    }
    t.print();
    artifacts.write_table(&t);
    artifacts.write_snapshot("exp_fig15");
    artifacts.write_metrics(griffin.telemetry());
    artifacts.write_chrome_trace(&hyb.timeline);
    println!("\n(the shape: speedup grows with percentile — Griffin unclogs the");
    println!(" heavy queries that block the CPU queue)");
}
