//! Cross-crate invariants of range-partitioned CPU+GPU co-execution.
//!
//! Three pins hold the split layer together:
//!
//! 1. **Splitting is invisible** — for *every* forced GPU fraction
//!    (including the degenerate 0.0 and 1.0) and for the adaptive
//!    balancer, a co-executed query returns the same top-k bits as the
//!    unsplit hybrid, with or without an armed-but-no-op fault plan.
//! 2. **A split costs the slower lane** — every `SplitIntersect` step's
//!    duration is exactly `max(cpu_lane, gpu_lane)`, never the serial
//!    sum, and step durations still sum to the reported query total.
//! 3. **A fault mid-split degrades, never fails** — losing the device
//!    inside a split's GPU lane still yields the exact answer, with the
//!    wasted lane and the recovery re-run both accounted.

use griffin_suite::griffin::{SplitConfig, StepOp};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;
use griffin_telemetry::Telemetry;

const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

fn workload() -> Workload {
    oracle::workload(500_000, 100_000, 10, oracle::seed() ^ 0x5EED_C0DE)
}

fn step_sum(out: &GriffinOutput) -> VirtualNanos {
    out.steps.iter().map(|s| s.time).sum()
}

/// Runs every query in Hybrid mode under the given split configuration
/// (`None` disables co-execution entirely), checking each answer
/// against the oracle and the device for leaks.
fn run_hybrid(
    wl: &Workload,
    split: Option<SplitConfig>,
    plan: Option<FaultPlan>,
) -> Vec<GriffinOutput> {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(plan);
    griffin.scheduler.split = split;
    let outs = wl
        .queries
        .iter()
        .map(|q| {
            let req = QueryRequest::new(q.clone());
            let out = griffin.run(&wl.corpus.index, &req);
            oracle::assert_answer(&wl.corpus, &req, &out, &format!("split {split:?}"));
            out
        })
        .collect();
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "split must not leak device memory");
    outs
}

/// Per-output lane accounting: every split step costs exactly the slower
/// lane, and all steps still sum to the query total.
fn assert_lane_accounting(out: &GriffinOutput, ctx: &str) {
    assert_eq!(step_sum(out), out.time, "step sum diverged ({ctx})");
    for s in &out.steps {
        if let StepOp::SplitIntersect {
            cpu_lane, gpu_lane, ..
        } = s.op
        {
            assert_eq!(
                s.time,
                cpu_lane.max(gpu_lane),
                "a split costs max(lanes) ({ctx})"
            );
            assert!(
                s.time <= cpu_lane + gpu_lane,
                "a split can never exceed the serial lane sum ({ctx})"
            );
        }
    }
}

#[test]
fn every_forced_fraction_is_bit_exact_with_unsplit() {
    let wl = workload();
    for (out, q) in run_hybrid(&wl, None, None).iter().zip(&wl.queries) {
        assert!(
            !out.steps
                .iter()
                .any(|s| matches!(s.op, StepOp::SplitIntersect { .. })),
            "co-execution off must never split ({q:?})"
        );
    }

    let mut interior_split_seen = false;
    for f in FRACTIONS {
        for out in run_hybrid(&wl, Some(SplitConfig::forced(f)), None) {
            assert_eq!(out.gpu_faults, 0);
            assert_lane_accounting(&out, &format!("fraction {f}"));
            for s in &out.steps {
                if let StepOp::SplitIntersect {
                    cpu_lane, gpu_lane, ..
                } = s.op
                {
                    if f == 0.0 {
                        // An all-CPU split never touches the device.
                        assert_eq!(gpu_lane, VirtualNanos::ZERO);
                    }
                    if cpu_lane > VirtualNanos::ZERO && gpu_lane > VirtualNanos::ZERO {
                        interior_split_seen = true;
                    }
                }
            }
        }
    }
    assert!(
        interior_split_seen,
        "the fraction sweep must co-execute both lanes at least once"
    );
}

#[test]
fn adaptive_balancer_is_bit_exact_with_unsplit() {
    let wl = workload();
    // The default engine: solver-chosen fractions refined by the
    // balancer's measured-imbalance feedback between operations.
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    assert!(
        griffin.scheduler.split.is_some(),
        "co-execution defaults on"
    );
    for q in &wl.queries {
        let req = QueryRequest::new(q.clone());
        let out = griffin.run(&wl.corpus.index, &req);
        oracle::assert_answer(&wl.corpus, &req, &out, "adaptive split");
        assert_lane_accounting(&out, "adaptive");
    }
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn armed_noop_fault_plan_is_bit_exact_under_splits() {
    let wl = workload();
    let plan = FaultPlan::seeded(oracle::seed());
    assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");
    for f in FRACTIONS {
        let bare = run_hybrid(&wl, Some(SplitConfig::forced(f)), None);
        let armed = run_hybrid(&wl, Some(SplitConfig::forced(f)), Some(plan.clone()));
        for (a, b) in bare.iter().zip(&armed) {
            assert_eq!(a.time, b.time, "fraction {f}: armed plan changed timing");
            assert_eq!(a.steps, b.steps, "fraction {f}: armed plan changed steps");
            assert_eq!(b.gpu_faults, 0);
        }
    }
}

#[test]
fn device_loss_mid_split_degrades_but_never_fails() {
    let wl = workload();
    // Force aggressive splitting, then lose the device at a spread of
    // operation indices so the loss lands inside split GPU lanes. (The
    // query set issues some 190 fallible operations: scratch the device's
    // allocator serves from its free lists is no driver call.)
    let mut saw_split_fault = false;
    for lost_at in [0u64, 1, 3, 7, 15, 40, 99, 160] {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
        gpu.set_fault_plan(Some(
            FaultPlan::seeded(oracle::seed()).lose_device_at(lost_at),
        ));
        griffin.scheduler.split = Some(SplitConfig::forced(0.5));
        let mut saw_fault = false;
        for q in &wl.queries {
            let req = QueryRequest::new(q.clone());
            let out = griffin.run(&wl.corpus.index, &req);
            let ctx = format!("lost_at={lost_at}");
            oracle::assert_answer(&wl.corpus, &req, &out, &ctx);
            assert_lane_accounting(&out, &ctx);
            saw_fault |= out.gpu_faults > 0;
            // A fault inside a split leaves both the split step (its
            // gpu_lane recording the wasted attempts) and a recovery
            // step for the re-run of the device's range.
            if out.gpu_faults > 0
                && out
                    .steps
                    .iter()
                    .any(|s| matches!(s.op, StepOp::SplitIntersect { .. }))
                && out.steps.iter().any(|s| s.op == StepOp::FaultRecovery)
            {
                saw_split_fault = true;
            }
        }
        assert!(saw_fault, "device loss at {lost_at} must surface as faults");
        griffin.gpu.shutdown();
        assert_eq!(
            gpu.mem_in_use(),
            0,
            "no leaks under loss (lost_at={lost_at})"
        );
    }
    assert!(
        saw_split_fault,
        "the sweep must hit at least one fault inside a split query"
    );
}

#[test]
fn splits_surface_in_metrics_and_the_device_timeline() {
    let wl = workload();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let telemetry = Telemetry::enabled();
    gpu.set_observer(telemetry.device_observer(gpu.config().warp_size));
    let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    griffin.set_telemetry(telemetry.clone());
    griffin.scheduler.split = Some(SplitConfig::forced(0.5));
    let mut split_steps = 0usize;
    for q in &wl.queries {
        let out = griffin.run(&wl.corpus.index, &QueryRequest::new(q.clone()));
        split_steps += out
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s.op,
                    StepOp::SplitIntersect {
                        cpu_lane,
                        gpu_lane,
                        ..
                    } if cpu_lane > VirtualNanos::ZERO && gpu_lane > VirtualNanos::ZERO
                )
            })
            .count();
    }
    assert!(split_steps > 0, "forced 0.5 must co-execute something");
    let recorder = telemetry.recorder().expect("enabled");
    assert!(
        recorder.registry.counter("griffin_coexec_split_ops_total") >= split_steps as u64,
        "every split must count"
    );
    // Two-lane splits render their host lane in the Perfetto export.
    let timeline = telemetry.device_timeline().expect("enabled");
    let cpu_lanes = timeline
        .spans
        .iter()
        .filter(|s| s.resource == "cpu-lane")
        .count();
    assert!(cpu_lanes >= split_steps, "each split exports its CPU lane");
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}
