//! Crossover explorer: sweep the list-length ratio for one pair shape and
//! watch the scheduler's decision track the measured GPU/CPU costs — the
//! paper's §3.2 analysis made interactive.
//!
//! ```text
//! cargo run --release --example crossover_explorer
//! ```

use griffin::{Proc, Scheduler};
use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
use griffin_cpu::decode::decode_list;
use griffin_cpu::intersect::{merge_intersect, skip_intersect};
use griffin_cpu::{CpuCostModel, WorkCounters};
use griffin_gpu::mergepath::{self, MergePathConfig};
use griffin_gpu::para_ef;
use griffin_gpu::transfer::DeviceEfList;
use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
use griffin_workload::{gen_ratio_pair, RatioGroup};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let model = CpuCostModel::default();
    let scheduler = Scheduler::for_block_len(DEFAULT_BLOCK_LEN);
    let mut rng = StdRng::seed_from_u64(42);
    let long_len = 800_000;

    println!("long list: {long_len} elements; sweeping the ratio\n");
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>12}",
        "ratio", "GPU (ms)", "CPU (ms)", "faster", "scheduler"
    );

    for ratio in [2usize, 8, 24, 64, 96, 160, 320, 768] {
        let group = RatioGroup {
            lo: ratio,
            hi: ratio + 1,
        };
        let (short, long) = gen_ratio_pair(&mut rng, group, long_len, 0.3, 40_000_000);

        // CPU: the engine's auto choice (merge below ratio 16, skip above).
        let pfor = BlockedList::compress(&long, Codec::PforDelta, DEFAULT_BLOCK_LEN);
        let mut w = WorkCounters::default();
        if long.len() / short.len().max(1) < 16 {
            let decoded = decode_list(&pfor, &mut w);
            merge_intersect(&short, &decoded, &mut w);
        } else {
            skip_intersect(&short, &pfor, 0..pfor.num_blocks(), None, &mut w);
        }
        let cpu_time = model.time(&w);

        // GPU: upload + Para-EF + MergePath (Griffin-GPU's low-ratio path).
        let ef = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let ((), gpu_time) = gpu.time(|g| {
            let d_short = g.htod(&short).expect("device op");
            let d_long = DeviceEfList::upload(g, &ef).expect("device op");
            let ids = para_ef::decompress(g, &d_long).expect("device op");
            let cfg = MergePathConfig::for_device(g.config());
            let m = mergepath::intersect(g, &d_short, short.len(), &ids, d_long.len, &cfg)
                .expect("device op");
            m.free(g);
            g.free(ids);
            d_long.free(g);
            g.free(d_short);
        });

        let faster = if gpu_time <= cpu_time { "GPU" } else { "CPU" };
        let chosen = scheduler
            .decide_traced(short.len(), long.len(), Proc::Cpu)
            .chosen;
        let decision = match chosen.proc() {
            Proc::Gpu => "-> GPU",
            Proc::Cpu => "-> CPU",
        };
        let agree = if (faster == "GPU") == (decision == "-> GPU") {
            ""
        } else {
            "  (disagrees)"
        };
        println!(
            "{:>7} {:>12.3} {:>12.3} {:>10} {:>12}{}",
            ratio,
            gpu_time.as_millis_f64(),
            cpu_time.as_millis_f64(),
            faster,
            decision,
            agree
        );
        let _ = VirtualNanos::ZERO;
    }

    println!("\n(the ratio-128 rule approximates the measured crossover; the");
    println!(" disagreement band around it is what the hysteresis absorbs)");
}
