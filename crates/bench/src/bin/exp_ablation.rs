//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Block size ↔ crossover** — §3.2's analysis ties the GPU/CPU
//!    crossover ratio to the compression block size; sweeping the block
//!    size should move the crossover with it.
//! 2. **Scheduler placement-awareness** — the engine's own scheduler
//!    (hysteresis, the cost model's work floor, co-execution) vs the
//!    paper's bare ratio rule.
//! 3. **Device list cache** — our extension vs the paper-faithful
//!    per-query transfers.

use griffin::{ExecMode, Griffin, QueryRequest, Scheduler};
use griffin_bench::intersect_harness::{time_algo, Algo, Pair};
use griffin_bench::report::{ms, Table};
use griffin_bench::setup::{k20, scaled};
use griffin_cpu::CpuCostModel;
use griffin_gpu_sim::{Gpu, VirtualNanos};
use griffin_workload::{build_list_index, gen_ratio_pair, ListIndexSpec, QueryLogSpec, RatioGroup};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ablation 1: crossover vs block size. For each block size, find the
/// lowest ratio group where the CPU wins.
fn block_size_sweep() {
    let gpu = Gpu::new(k20());
    let model = CpuCostModel::default();
    let mut t = Table::new(
        "Ablation 1: crossover group vs compression block size",
        &["block size", "first CPU-winning ratio group"],
    );
    for block_len in [64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(91);
        let mut first_cpu_win = "none (GPU always)".to_string();
        // Coarser groups for speed: geometric ratio points.
        for ratio in [8usize, 32, 128, 512, 2048] {
            let group = RatioGroup {
                lo: ratio,
                hi: ratio + 1,
            };
            let mut gpu_total = VirtualNanos::ZERO;
            let mut cpu_total = VirtualNanos::ZERO;
            for _ in 0..scaled(3) {
                let (short, long) = gen_ratio_pair(&mut rng, group, 600_000, 0.3, 30_000_000);
                let mut pair = Pair::new(short, &long);
                // Re-frame with the swept block size.
                pair.long_pfor = griffin_codec::BlockedList::compress(
                    &long,
                    griffin_codec::Codec::PforDelta,
                    block_len,
                );
                pair.long_ef = griffin_codec::BlockedList::compress(
                    &long,
                    griffin_codec::Codec::EliasFano,
                    block_len,
                );
                gpu_total += time_algo(&gpu, &model, &pair, Algo::GpuMerge);
                cpu_total += time_algo(&gpu, &model, &pair, Algo::CpuAuto);
            }
            if cpu_total < gpu_total {
                first_cpu_win = format!("ratio ~{ratio}");
                break;
            }
        }
        t.row(&[block_len.to_string(), first_cpu_win]);
    }
    t.print();
    println!("(§3.2 predicts the crossover tracks the block size)");
}

/// Ablations 2 & 3: scheduler variants and the device cache, on the same
/// query stream.
fn scheduler_and_cache() {
    let mut rng = StdRng::seed_from_u64(92);
    let spec = ListIndexSpec {
        num_terms: 40,
        num_docs: 3_000_000,
        max_list_len: 800_000,
        ..Default::default()
    };
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: scaled(60),
        ..Default::default()
    }
    .generate(&index, &mut rng);

    let mut t = Table::new(
        "Ablations 2-3: scheduler and cache variants (mean virtual ms/query)",
        &["variant", "mean latency"],
    );

    // The engine's own scheduler (placement-aware, with its cost model's
    // floor, co-execution and residency override) vs the paper's bare
    // static rule.
    for (name, sched) in [
        ("placement-aware scheduler (default)", None),
        (
            "paper-static ratio rule",
            Some(Scheduler::paper_static(index.block_len())),
        ),
    ] {
        let gpu = Gpu::new(k20());
        let mut griffin = Griffin::new(&gpu, index.meta(), index.block_len());
        if let Some(sched) = sched {
            griffin.scheduler = sched;
        }
        let mut total = VirtualNanos::ZERO;
        for q in &queries {
            total += griffin.run(&index, &QueryRequest::new(q.to_vec())).time;
        }
        t.row(&[name.to_string(), ms(total / queries.len() as u64)]);
    }

    // Device cache on (default) vs off (paper-faithful transfers), under
    // GPU-only execution where transfers matter most.
    for (name, budget) in [
        ("GPU-only with device list cache", u64::MAX),
        ("GPU-only, per-query transfers (paper)", 0u64),
    ] {
        let gpu = Gpu::new(k20());
        let griffin = Griffin::new(&gpu, index.meta(), index.block_len());
        if budget == 0 {
            griffin.gpu.set_cache_budget(0);
        }
        let mut total = VirtualNanos::ZERO;
        for q in &queries {
            total += griffin
                .run(
                    &index,
                    &QueryRequest::new(q.to_vec()).mode(ExecMode::GpuOnly),
                )
                .time;
        }
        t.row(&[name.to_string(), ms(total / queries.len() as u64)]);
    }
    t.print();
}

/// Ablation 4: MergePath partition-size sweep (items per thread).
fn mergepath_partition_sweep() {
    let gpu = Gpu::new(k20());
    let mut rng = StdRng::seed_from_u64(93);
    let a: Vec<u32> = {
        let mut v: Vec<u32> = (0..400_000).map(|_| rng.gen_range(0..20_000_000)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let b: Vec<u32> = {
        let mut v: Vec<u32> = (0..400_000).map(|_| rng.gen_range(0..20_000_000)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let da = gpu.htod(&a).expect("device op");
    let db = gpu.htod(&b).expect("device op");

    let mut t = Table::new(
        "Ablation 4: MergePath items-per-partition sweep (virtual ms)",
        &["items/thread", "intersect time"],
    );
    // Larger partitions need a narrower block to fit K20 shared memory.
    for (ipp, block_dim) in [(8usize, 128u32), (16, 128), (32, 128), (64, 64)] {
        let cfg = griffin_gpu::mergepath::MergePathConfig {
            items_per_partition: ipp,
            block_dim,
        };
        let ((), time) = gpu.time(|g| {
            let m = griffin_gpu::mergepath::intersect(g, &da, a.len(), &db, b.len(), &cfg)
                .expect("device op");
            m.free(g);
        });
        t.row(&[ipp.to_string(), ms(time)]);
    }
    t.print();
}

fn main() {
    block_size_sweep();
    scheduler_and_cache();
    mergepath_partition_sweep();
}
