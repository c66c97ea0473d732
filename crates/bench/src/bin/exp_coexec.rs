//! **Co-execution** — range-partitioned CPU+GPU split intersection, the
//! intra-query parallelism the paper's title promises, measured as a
//! list-length-ratio × split-fraction sweep.
//!
//! Two views over the same cold term pairs (fresh lists per measurement,
//! so every GPU lane pays its real upload):
//!
//! 1. a **static grid** — every eligible intersection forced to split at
//!    a fixed GPU fraction (0 = all-CPU lane, 1 = all-GPU lane), which
//!    maps the cost surface and locates the empirical crossover ratio:
//!    the ratio whose degenerate *lanes* (not query totals, which share
//!    init and top-k) cost the same, judged by the log of the lane-time
//!    ratio so the comparison is scale-free;
//! 2. the **adaptive balancer** — the cost model solves the fraction so
//!    both lanes finish together, then per-engine feedback from measured
//!    lane imbalance refines it pair over pair. The model and the split
//!    band it runs under are this sweep's own, set from what view 1
//!    measured at the crossover (one counted, timed device step; the
//!    all-CPU lanes), not the engine's hand-set defaults.
//!
//! Asserted: at the empirical crossover the adaptive split beats the
//! best single-processor hybrid by >= 10% (both lanes contribute), and
//! at the ratio extremes — where one processor should simply own the
//! operation — co-execution costs at most 2% over the unsplit hybrid.
//!
//! `--smoke` trims the pair count; the list length stays at 2^20 in
//! both modes because the GPU's fixed per-step cost (kernel launches,
//! allocations, transfer latencies) only amortizes at full length —
//! shorter lists have no crossover for a split to win at.
//! `GRIFFIN_SCALE` applies to the full-size run.

use griffin::{CostModel, DeviceStepCounts, Griffin, QueryRequest, SplitConfig, StepOp};
use griffin_bench::report::{ms, Table};
use griffin_bench::setup::{k20, scaled};
use griffin_bench::Artifacts;
use griffin_codec::Codec;
use griffin_gpu_sim::{Gpu, VirtualNanos};
use griffin_index::{InvertedIndex, TermId};
use griffin_workload::gen_correlated_lists;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Long/short length ratios swept, from the benches' calibrated
/// `ratio_threshold` (below it the device owns the operation) up past
/// where the cold all-CPU and all-GPU lanes tie.
const RATIOS: [usize; 5] = [4, 16, 64, 256, 1024];
const RATIO_THRESHOLD: usize = 16;
const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// What one configuration's sweep produces: per-ratio totals, per-ratio
/// split-lane sums (for lane-based crossover detection), and every
/// query's top-k (for bit-exactness checks).
struct RunOut {
    totals: Vec<VirtualNanos>,
    lanes: Vec<(VirtualNanos, VirtualNanos)>,
    topks: Vec<Vec<(u32, f32)>>,
}

/// One engine per configuration, tuned like the other serving benches
/// (threshold 16, no hysteresis, 64K-element GPU floor).
enum Config {
    /// Co-execution disabled: the scheduler picks one processor.
    Unsplit,
    /// Every eligible intersection splits at exactly this GPU fraction.
    Forced(f64),
    /// Solver-chosen fraction + measured-imbalance feedback, under the
    /// experiment's own measured cost model and split band.
    Adaptive(CostModel, SplitConfig),
}

fn main() {
    let artifacts = Artifacts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let telemetry = artifacts.telemetry();

    let long_len: usize = 1 << 20;
    let pairs = if smoke { 2 } else { scaled(4).max(2) };

    // Fresh (short, long) term pairs per ratio: measurements stay cold.
    let mut rng = StdRng::seed_from_u64(23);
    let mut lens = Vec::new();
    for &r in &RATIOS {
        for _ in 0..pairs {
            lens.push((long_len / r).max(64));
            lens.push(long_len);
        }
    }
    let num_docs = (long_len as u32).saturating_mul(4);
    let lists = gen_correlated_lists(&mut rng, &lens, num_docs);
    let index = InvertedIndex::from_docid_lists(&lists, num_docs, Codec::EliasFano, 128);
    let terms_of = |ratio_idx: usize, pair: usize| -> [TermId; 2] {
        let base = ((ratio_idx * pairs + pair) * 2) as u32;
        [TermId(base), TermId(base + 1)]
    };

    // Per-ratio total time under one configuration (fresh device, so the
    // list cache and the balancer state start cold), plus the per-ratio
    // split-lane sums — the crossover is judged on the lanes, not the
    // totals, which share init and top-k — and the reference top-k to
    // pin bit-exactness across every configuration.
    let run = |config: &Config| -> RunOut {
        let gpu = Gpu::new(k20());
        let mut griffin = Griffin::new(&gpu, index.meta(), index.block_len());
        griffin.scheduler.min_gpu_work = 64 * 1024;
        griffin.scheduler.ratio_threshold = RATIO_THRESHOLD;
        griffin.scheduler.hysteresis = 1.0;
        match config {
            Config::Unsplit => griffin.scheduler.split = None,
            Config::Forced(f) => griffin.scheduler.split = Some(SplitConfig::forced(*f)),
            Config::Adaptive(model, split) => {
                // The work floor stays at 64K: only the model the solver
                // and the residency override read changes. The override
                // never fires here: the host list cache is off, and on a
                // fresh device with fresh pairs a list is device-resident
                // only once prefetched for a step already placed there.
                griffin.scheduler.model = Some(*model);
                griffin.scheduler.split = Some(*split);
                griffin.set_telemetry(telemetry.clone());
            }
        }
        let mut totals = Vec::new();
        let mut lanes = Vec::new();
        let mut topks = Vec::new();
        for (i, _) in RATIOS.iter().enumerate() {
            let mut total = VirtualNanos::ZERO;
            let (mut cpu_lane_sum, mut gpu_lane_sum) = (VirtualNanos::ZERO, VirtualNanos::ZERO);
            for p in 0..pairs {
                let out = griffin.run(&index, &QueryRequest::new(terms_of(i, p).to_vec()));
                assert_eq!(out.gpu_faults, 0, "healthy device");
                total += out.time;
                for s in &out.steps {
                    if let StepOp::SplitIntersect {
                        cpu_lane, gpu_lane, ..
                    } = s.op
                    {
                        cpu_lane_sum += cpu_lane;
                        gpu_lane_sum += gpu_lane;
                    }
                }
                topks.push(out.topk);
            }
            totals.push(total);
            lanes.push((cpu_lane_sum, gpu_lane_sum));
        }
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "co-execution must not leak");
        RunOut {
            totals,
            lanes,
            topks,
        }
    };

    // ---- 1. Static fraction grid. ------------------------------------
    let base = run(&Config::Unsplit);
    let (unsplit, reference) = (base.totals, base.topks);
    let mut grid: Vec<Vec<VirtualNanos>> = Vec::new(); // [fraction][ratio]
    let mut lane_grid = Vec::new(); // [fraction][ratio]
    for &f in &FRACTIONS {
        let forced = run(&Config::Forced(f));
        assert_eq!(forced.topks, reference, "fraction {f} changed results");
        grid.push(forced.totals);
        lane_grid.push(forced.lanes);
    }

    let mut t1 = Table::new(
        "Co-execution: forced split-fraction grid (total virtual ms per ratio group)",
        &[
            "long/short",
            "unsplit",
            "f=0.00",
            "f=0.25",
            "f=0.50",
            "f=0.75",
            "f=1.00",
            "best static",
        ],
    );
    for (i, &r) in RATIOS.iter().enumerate() {
        let best = (0..FRACTIONS.len()).map(|fi| grid[fi][i]).min().unwrap();
        let mut row = vec![format!("{r}x"), ms(unsplit[i])];
        row.extend((0..FRACTIONS.len()).map(|fi| ms(grid[fi][i])));
        row.push(ms(best));
        t1.row(&row);
    }
    t1.print();
    artifacts.write_table(&t1);

    // The empirical crossover: where the two degenerate lanes (the f=0
    // run's all-CPU lane vs the f=1 run's all-GPU lane) cost the same,
    // a split has the most to offer. Judged on the log of the lane-time
    // ratio — scale-free, so a 2x-off cheap ratio does not outweigh a
    // 1.5x-off expensive one the way an absolute difference would.
    let crossover = (0..RATIOS.len())
        .min_by(|&a, &b| {
            let imbalance = |i: usize| {
                let cpu = lane_grid[0][i].0.as_nanos().max(1) as f64;
                let gpu = lane_grid[FRACTIONS.len() - 1][i].1.as_nanos().max(1) as f64;
                (cpu / gpu).ln().abs()
            };
            imbalance(a).total_cmp(&imbalance(b))
        })
        .expect("non-empty grid");
    println!(
        "(empirical crossover at ratio {}x: the all-CPU and all-GPU lanes cost\n the same there, so that is where co-execution has the most to offer)",
        RATIOS[crossover]
    );

    // ---- 2. Adaptive balancer vs the single-processor bests. ---------
    // The balancer gets what this sweep measured at the crossover: a band
    // that reaches it, and a model with both degenerate lanes re-anchored
    // — the device lane on one counted, timed step (the all-GPU lane of a
    // fresh crossover pair), the CPU lane on the grid's all-CPU lanes.
    // The solver's job is the interior. The engine's defaults still price
    // a decoder with a serial floor; they are the scheduler's to change,
    // not this sweep's.
    let default = CostModel::from_device(&k20(), true);
    let (step, lane) = {
        let gpu = Gpu::new(k20());
        let mut griffin = Griffin::new(&gpu, index.meta(), index.block_len());
        griffin.scheduler.min_gpu_work = 64 * 1024;
        griffin.scheduler.split = Some(SplitConfig::forced(1.0));
        let terms = terms_of(crossover, 0);
        let (out, step) = DeviceStepCounts::of(&gpu, || {
            griffin.run(&index, &QueryRequest::new(terms.to_vec()))
        });
        let lanes = out.steps.iter().filter_map(|s| match s.op {
            StepOp::SplitIntersect { gpu_lane, .. } => Some(gpu_lane),
            _ => None,
        });
        (step, lanes.sum::<VirtualNanos>())
    };
    let probes = (pairs * long_len / RATIOS[crossover]) as f64;
    let model = default
        .with_measured_step(&k20(), &step, long_len, lane.as_nanos() as f64)
        .with_cpu_skip_ns_per_probe(lane_grid[0][crossover].0.as_nanos() as f64 / probes);
    let split = SplitConfig {
        band: (RATIOS[crossover] / RATIO_THRESHOLD) as f64,
        ..SplitConfig::default()
    };
    println!(
        "(one device step: {} launches, {} cudaMallocs + {} pool hits, {} transfers in {:.0} us, so {:.0} us fixed\n + {:.2} ns per posting — the engine's default prices {:.0} us + a {:.0} us serial floor + {:.2};\n CPU lane {:.0} ns per probe, default {:.0}; split band x{})",
        step.launches,
        step.mallocs,
        step.pool_hits,
        step.transfers,
        lane.as_micros_f64(),
        model.fixed_ns / 1e3,
        model.gpu_ns_per_elem.max(model.pcie_ns_per_elem),
        default.fixed_ns / 1e3,
        default.serial_decode_ns / 1e3,
        default.gpu_ns_per_elem.max(default.pcie_ns_per_elem),
        model.cpu_skip_ns_per_probe,
        default.cpu_skip_ns_per_probe,
        split.band
    );
    let adaptive_out = run(&Config::Adaptive(model, split));
    assert_eq!(
        adaptive_out.topks, reference,
        "adaptive split changed results"
    );
    let adaptive = adaptive_out.totals;

    let mut t2 = Table::new(
        "Co-execution: adaptive balancer vs single-processor hybrid",
        &[
            "long/short",
            "unsplit",
            "best single lane",
            "adaptive split",
            "vs best single %",
        ],
    );
    for (i, &r) in RATIOS.iter().enumerate() {
        // The better of the two degenerate lanes — what a perfect
        // pick-one scheduler would cost on these cold pairs.
        let best_single = grid[0][i].min(grid[FRACTIONS.len() - 1][i]);
        let gain = (1.0 - adaptive[i].as_nanos() as f64 / best_single.as_nanos() as f64) * 100.0;
        t2.row(&[
            format!("{r}x"),
            ms(unsplit[i]),
            ms(best_single),
            ms(adaptive[i]),
            format!("{gain:+.1}"),
        ]);
    }
    t2.print();
    artifacts.write_table(&t2);

    // At the crossover both lanes carry real work, so the split must
    // clearly beat either processor alone.
    let best_single = grid[0][crossover].min(grid[FRACTIONS.len() - 1][crossover]);
    let gain = 1.0 - adaptive[crossover].as_nanos() as f64 / best_single.as_nanos() as f64;
    assert!(
        gain >= 0.10,
        "adaptive split must beat the best single-processor hybrid by >= 10% \
         at the crossover ratio {}x, got {:.1}%",
        RATIOS[crossover],
        gain * 100.0
    );
    // At the extremes one processor should own the operation outright;
    // the split machinery must get out of the way.
    for i in [0, RATIOS.len() - 1] {
        let slowdown = adaptive[i].as_nanos() as f64 / unsplit[i].as_nanos() as f64 - 1.0;
        assert!(
            slowdown <= 0.02,
            "adaptive split must cost <= 2% over unsplit at ratio {}x, got {:.1}%",
            RATIOS[i],
            slowdown * 100.0
        );
    }
    println!(
        "\n(bit-exact in every cell; {:.1}% over the best single lane at the\n crossover, and within 2% of unsplit at both extremes)",
        gain * 100.0
    );

    artifacts.snapshot_metric("crossover_saved_pct", gain * 100.0);
    artifacts.snapshot_duration("adaptive_at_crossover_ns", adaptive[crossover]);
    artifacts.write_snapshot("exp_coexec");
    artifacts.write_metrics(&telemetry);
    artifacts.write_trace(&telemetry);
}
