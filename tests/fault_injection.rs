//! Cross-crate fault-injection invariants.
//!
//! Two pins hold the whole robustness layer together:
//!
//! 1. **Off means off** — an armed-but-no-op fault plan is bit-exact with
//!    no plan at all: identical top-k, identical step traces, identical
//!    virtual clock.
//! 2. **Loss means degradation, never failure** — a sticky `DeviceLost`
//!    at *any* operation index leaves every query completing with the
//!    exact answer, and step durations (including the
//!    `FaultRecovery` steps) still summing to the reported total.

use griffin_suite::griffin::{Query, QueryRequest, StepOp};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;

/// The drawn-tf workload and its mode-less requests; every test stamps
/// the mode it runs under. The two shapes that take other operators
/// than the flat chain — a mixed AND/OR/NOT/phrase tree and a pruned
/// conjunction — come first, so low fault indices land inside them.
fn workload() -> (Workload, Vec<QueryRequest>) {
    let wl = oracle::workload(500_000, 100_000, 12, 7);
    let and = |q: &[TermId]| Query::And(q.iter().copied().map(Query::Term).collect());
    let (a, b) = (&wl.queries[0], &wl.queries[1]);
    // Only consecutive terms of a drawn corpus can form a phrase.
    let p = a[0].0.min(18);
    let phrase = Query::Phrase(vec![TermId(p), TermId(p + 1)]);
    let tree = Query::Or(vec![
        Query::Not(Box::new(and(a)), Box::new(Query::Term(b[0]))),
        Query::And(vec![and(b), Query::Or(vec![Query::Term(a[0]), phrase])]),
    ]);
    let mut requests = vec![
        QueryRequest::from_query(tree),
        QueryRequest::new(a.clone()).pruned(true),
    ];
    requests.extend(wl.queries.iter().cloned().map(QueryRequest::new));
    (wl, requests)
}

/// Runs every request in GpuOnly and Hybrid mode on `gpu` under `plan`,
/// armed once the engine is built, and checks each answer against the
/// oracle and its step accounting.
fn run_checked(
    gpu: &Gpu,
    plan: Option<FaultPlan>,
    wl: &Workload,
    requests: &[QueryRequest],
    ctx: &str,
) -> bool {
    let griffin = Griffin::new(gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(plan);
    let mut saw_fault = false;
    for r in requests {
        for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
            let out = griffin.run(&wl.corpus.index, &r.clone().mode(mode));
            let ctx = format!("{ctx} mode={mode:?}");
            oracle::assert_answer(&wl.corpus, r, &out, &ctx);
            assert_accounting(&out, &ctx);
            saw_fault |= out.gpu_faults > 0;
        }
    }
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "no leaks ({ctx})");
    saw_fault
}

/// The accounting every faulted run must keep: steps sum to the total,
/// and a recovery step appears iff a fault escalated past its retries.
fn assert_accounting(out: &GriffinOutput, ctx: &str) {
    assert_eq!(
        step_sum(out),
        out.time,
        "steps must sum to the total ({ctx})"
    );
    assert_eq!(
        out.steps.iter().any(|s| s.op == StepOp::FaultRecovery),
        out.gpu_abandoned,
        "a FaultRecovery step iff a fault escalated ({ctx})"
    );
}

fn step_sum(out: &GriffinOutput) -> VirtualNanos {
    out.steps.iter().map(|s| s.time).sum()
}

#[test]
fn armed_noop_plan_is_bit_exact_with_no_plan() {
    let (wl, requests) = workload();
    let run_all = |plan: Option<FaultPlan>| -> (Vec<GriffinOutput>, VirtualNanos) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
        gpu.set_fault_plan(plan);
        let mut outs = Vec::new();
        for r in &requests {
            for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
                let out = griffin.run(&wl.corpus.index, &r.clone().mode(mode));
                oracle::assert_answer(&wl.corpus, r, &out, &format!("{mode:?}"));
                assert_eq!(out.gpu_faults, 0);
                outs.push(out);
            }
        }
        let clock = gpu.now();
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
        (outs, clock)
    };

    let plan = FaultPlan::seeded(oracle::seed());
    assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");
    let (bare, clock_bare) = run_all(None);
    let (armed, clock_armed) = run_all(Some(plan));

    assert_eq!(clock_bare, clock_armed, "virtual clocks must agree");
    for (a, b) in bare.iter().zip(&armed) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.steps, b.steps);
    }
}

#[test]
fn sticky_device_loss_at_any_index_degrades_but_never_fails() {
    let (wl, requests) = workload();
    // Lose the device across the ~580 operations the tree and the pruned
    // conjunction span under the two modes (a prime stride, so every kind
    // of operation — allocation, upload, launch, download — is hit);
    // every GPU-capable run must still return the exact answer with
    // exact step accounting.
    for lost_at in (0u64..600).step_by(37) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let plan = FaultPlan::seeded(oracle::seed()).lose_device_at(lost_at);
        let ctx = format!("lost_at={lost_at}");
        let saw_fault = run_checked(&gpu, Some(plan), &wl, &requests, &ctx);
        assert!(saw_fault, "device loss at {lost_at} must surface as faults");
    }
}

#[test]
fn random_fault_storm_preserves_answers_and_accounting() {
    let (wl, requests) = workload();
    for rate in [0.001, 0.01, 0.2] {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let plan = FaultPlan::seeded(oracle::seed()).with_fault_rate(rate);
        run_checked(&gpu, Some(plan), &wl, &requests, &format!("rate={rate}"));
    }
}

/// The experiments' device traces one warp in 16, so most blocks of the
/// decode, merge and compaction launches run as native twins: healthy or
/// under a fault storm, the answers stay the oracle's to the bit, the
/// steps sum to the total, and nothing leaks.
#[test]
fn a_device_tracing_one_warp_in_16_keeps_answers_and_accounting() {
    let (wl, requests) = workload();
    for plan in [
        None,
        Some(FaultPlan::seeded(oracle::seed()).with_fault_rate(0.01)),
    ] {
        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: 16,
            ..DeviceConfig::test_tiny()
        });
        let ctx = format!("plan={plan:?}");
        run_checked(&gpu, plan, &wl, &requests, &ctx);
    }
}

#[test]
fn fault_recovery_steps_appear_exactly_when_faults_escalate() {
    let (wl, requests) = workload();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(Some(FaultPlan::seeded(oracle::seed()).lose_device_at(3)));
    let out = griffin.run(&wl.corpus.index, &requests[2]);
    oracle::assert_answer(&wl.corpus, &requests[2], &out, "lost_at=3");
    assert!(
        out.steps.iter().any(|s| s.op == StepOp::FaultRecovery),
        "an exhausted fault must leave a FaultRecovery step"
    );
    // Recovery steps carry real time: the wasted attempts plus the CPU
    // re-materialization are accounted, not hidden.
    let recovery: VirtualNanos = out
        .steps
        .iter()
        .filter(|s| s.op == StepOp::FaultRecovery)
        .map(|s| s.time)
        .sum();
    assert!(recovery.as_nanos() > 0);
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}
