//! Cross-crate fault-injection invariants.
//!
//! Two pins hold the whole robustness layer together:
//!
//! 1. **Off means off** — an armed-but-no-op fault plan is bit-exact with
//!    no plan at all: identical top-k, identical step traces, identical
//!    virtual clock.
//! 2. **Loss means degradation, never failure** — a sticky `DeviceLost`
//!    at *any* operation index leaves every query completing with the
//!    exact CPU-only answer, and step durations (including the
//!    `FaultRecovery` steps) still summing to the reported total.
//!
//! Set `GRIFFIN_FAULT_SEED` to explore other deterministic fault
//! schedules (the CI chaos job sweeps a fixed set of seeds).

use griffin_suite::griffin::{Query, QueryRequest, StepOp};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::prelude::*;

fn fault_seed() -> u64 {
    std::env::var("GRIFFIN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

struct Fixture {
    index: InvertedIndex,
    /// Mode-less requests; every test stamps the mode it runs under.
    /// The two shapes that take other operators than the flat chain — a
    /// mixed AND/OR/NOT/phrase tree and a pruned conjunction — come
    /// first, so low fault indices land inside them.
    requests: Vec<QueryRequest>,
}

fn fixture() -> Fixture {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let spec = ListIndexSpec {
        num_terms: 20,
        num_docs: 500_000,
        max_list_len: 100_000,
        ..Default::default()
    };
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: 12,
        ..Default::default()
    }
    .generate(&index, &mut rng);
    let and = |q: &[TermId]| Query::And(q.iter().copied().map(Query::Term).collect());
    let (a, b) = (&queries[0], &queries[1]);
    // Synthetic list indexes put term `i` at token position `i`, so a
    // phrase of consecutive term ids can match.
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
    requests.extend(queries.into_iter().map(QueryRequest::new));
    Fixture { index, requests }
}

/// (docid, score bits): answers must agree to the last ulp.
fn bits(out: &GriffinOutput) -> Vec<(u32, u32)> {
    out.topk.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// The CPU-only answers, computed once on a healthy device.
fn cpu_truth(fx: &Fixture) -> Vec<Vec<(u32, u32)>> {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    fx.requests
        .iter()
        .map(|r| bits(&griffin.run(&fx.index, &r.clone().mode(ExecMode::CpuOnly))))
        .collect()
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
    let fx = fixture();
    let seed = fault_seed();

    let run_all = |plan: Option<FaultPlan>| -> (Vec<GriffinOutput>, VirtualNanos) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_fault_plan(plan);
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        let outs: Vec<GriffinOutput> = fx
            .requests
            .iter()
            .flat_map(|r| {
                [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid]
                    .map(|mode| griffin.run(&fx.index, &r.clone().mode(mode)))
            })
            .collect();
        let clock = gpu.now();
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
        (outs, clock)
    };

    let plan = FaultPlan::seeded(seed);
    assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");
    let (bare, clock_bare) = run_all(None);
    let (armed, clock_armed) = run_all(Some(plan));

    assert_eq!(clock_bare, clock_armed, "virtual clocks must agree");
    for (a, b) in bare.iter().zip(&armed) {
        assert_eq!(a.topk, b.topk);
        assert_eq!(a.time, b.time);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.gpu_faults, 0);
        assert_eq!(b.gpu_faults, 0);
    }
}

#[test]
fn sticky_device_loss_at_any_index_degrades_but_never_fails() {
    let fx = fixture();
    let seed = fault_seed();

    let truth = cpu_truth(&fx);

    // Lose the device across the ~580 operations the tree and the pruned
    // conjunction span under the two modes (a prime stride, so every kind
    // of operation — allocation, upload, launch, download — is hit);
    // every GPU-capable run must still return the exact CPU answer with
    // exact step accounting.
    for lost_at in (0u64..600).step_by(37) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_fault_plan(Some(FaultPlan::seeded(seed).lose_device_at(lost_at)));
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        let mut saw_fault = false;
        for (r, expect) in fx.requests.iter().zip(&truth) {
            for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
                let out = griffin.run(&fx.index, &r.clone().mode(mode));
                let ctx = format!("lost_at={lost_at} mode={mode:?} query={:?}", r.query);
                assert_eq!(&bits(&out), expect, "{ctx}");
                assert_accounting(&out, &ctx);
                saw_fault |= out.gpu_faults > 0;
            }
        }
        assert!(saw_fault, "device loss at {lost_at} must surface as faults");
        griffin.gpu.shutdown();
        assert_eq!(
            gpu.mem_in_use(),
            0,
            "no leaks under device loss (lost_at={lost_at})"
        );
    }
}

#[test]
fn random_fault_storm_preserves_answers_and_accounting() {
    let fx = fixture();
    let seed = fault_seed();

    let truth = cpu_truth(&fx);

    for rate in [0.001, 0.01, 0.2] {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_fault_plan(Some(FaultPlan::seeded(seed).with_fault_rate(rate)));
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        for (r, expect) in fx.requests.iter().zip(&truth) {
            for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
                let out = griffin.run(&fx.index, &r.clone().mode(mode));
                let ctx = format!("rate={rate} mode={mode:?} query={:?}", r.query);
                assert_eq!(&bits(&out), expect, "{ctx}");
                assert_accounting(&out, &ctx);
            }
        }
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "no leaks at fault rate {rate}");
    }
}

/// The experiments' device traces one warp in 16, so most blocks of the
/// decode, merge and compaction launches run as native twins: healthy or
/// under a fault storm, the answers stay CPU-only's to the bit, the steps
/// sum to the total, and nothing leaks.
#[test]
fn a_device_tracing_one_warp_in_16_keeps_answers_and_accounting() {
    let fx = fixture();
    let truth = cpu_truth(&fx);
    for plan in [
        None,
        Some(FaultPlan::seeded(fault_seed()).with_fault_rate(0.01)),
    ] {
        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: 16,
            ..DeviceConfig::test_tiny()
        });
        gpu.set_fault_plan(plan.clone());
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        for (r, expect) in fx.requests.iter().zip(&truth) {
            for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
                let out = griffin.run(&fx.index, &r.clone().mode(mode));
                let ctx = format!("plan={plan:?} mode={mode:?} query={:?}", r.query);
                assert_eq!(&bits(&out), expect, "{ctx}");
                assert_accounting(&out, &ctx);
            }
        }
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "no leaks (plan={plan:?})");
    }
}

#[test]
fn fault_recovery_steps_appear_exactly_when_faults_escalate() {
    let fx = fixture();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.set_fault_plan(Some(FaultPlan::seeded(fault_seed()).lose_device_at(3)));
    let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    let out = griffin.run(&fx.index, &fx.requests[2]);
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
