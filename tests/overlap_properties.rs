//! Cross-crate invariants of the async-stream overlap layer.
//!
//! Three pins:
//!
//! 1. **Overlap is pure scheduling** — the pipeline on vs off is
//!    bit-exact (identical top-k and intersection traces) in every
//!    execution mode, including with an armed-but-no-op fault plan.
//! 2. **The clock is a critical path** — a pipelined query is never
//!    slower than its serial twin, and never faster than its busiest
//!    single engine (copy or compute): overlap hides time, it cannot
//!    invent it.
//! 3. **Streams serialize their own work** — the exported per-stream
//!    device timeline never overlaps two kernels on the compute engine
//!    (and never overlaps two transfers on the copy engine).
//!
//! Set `GRIFFIN_FAULT_SEED` to vary the workload and fault schedule (the
//! CI `overlap-invariants` job sweeps a fixed set of seeds).

use griffin_suite::griffin::StepOp;
use griffin_suite::griffin_gpu_sim::{FaultPlan, StreamKind};
use griffin_suite::prelude::*;
use griffin_telemetry::Telemetry;

fn fault_seed() -> u64 {
    std::env::var("GRIFFIN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

struct Fixture {
    index: InvertedIndex,
    queries: Vec<Vec<TermId>>,
}

/// Workload derived from the fault seed, so the CI seed sweep varies the
/// inputs as well as the fault schedule.
fn fixture() -> Fixture {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(fault_seed() ^ 0x9E37_79B9);
    let spec = ListIndexSpec {
        num_terms: 20,
        num_docs: 500_000,
        max_list_len: 100_000,
        ..Default::default()
    };
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: 10,
        ..Default::default()
    }
    .generate(&index, &mut rng);
    Fixture { index, queries }
}

fn run_all(fx: &Fixture, overlap: bool, plan: Option<FaultPlan>) -> Vec<GriffinOutput> {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.set_fault_plan(plan);
    let mut griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    griffin.set_overlap(overlap);
    let outs = fx
        .queries
        .iter()
        .flat_map(|q| {
            [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid]
                .map(|mode| griffin.run(&fx.index, &QueryRequest::new(q.to_vec()).mode(mode)))
        })
        .collect();
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "overlap must not leak device memory");
    outs
}

#[test]
fn overlap_on_and_off_are_bit_exact() {
    let fx = fixture();
    for plan in [None, Some(FaultPlan::seeded(fault_seed()))] {
        if let Some(p) = &plan {
            assert!(p.is_noop(), "a freshly seeded plan must inject nothing");
        }
        let on = run_all(&fx, true, plan.clone());
        let off = run_all(&fx, false, plan);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.topk, b.topk, "overlap changed results");
            assert_eq!(a.gpu_faults, 0);
            assert_eq!(b.gpu_faults, 0);
            // The traces agree on every functional quantity. Placement
            // may differ (the pipelined cost model moves the
            // profitability floor), so compare the intersection sizes —
            // those are properties of the query, not the schedule.
            // A co-executed split is still one intersection: its
            // post-step size matches the unsplit op's by construction.
            let sizes = |out: &GriffinOutput| -> Vec<usize> {
                out.steps
                    .iter()
                    .filter(|s| {
                        matches!(s.op, StepOp::Intersect(_) | StepOp::SplitIntersect { .. })
                    })
                    .map(|s| s.inter_len)
                    .collect()
            };
            assert_eq!(sizes(a), sizes(b), "intersection sizes diverged");
        }
    }
}

#[test]
fn pipelined_time_is_bounded_by_serial_sum_and_busiest_engine() {
    let fx = fixture();
    let gpu_serial = Gpu::new(DeviceConfig::test_tiny());
    let gpu_over = Gpu::new(DeviceConfig::test_tiny());
    let telemetry = Telemetry::enabled();
    gpu_over.set_observer(telemetry.device_observer(gpu_over.config().warp_size));
    let eng_serial = GpuEngine::new(&gpu_serial, fx.index.meta());
    let eng_over = GpuEngine::new(&gpu_over, fx.index.meta());
    eng_serial.set_overlap(false);

    for q in &fx.queries {
        let before: Vec<_> = telemetry
            .device_timeline()
            .expect("telemetry is enabled")
            .spans;
        let a = eng_serial
            .process_query(&fx.index, q, 10)
            .expect("healthy device");
        let b = eng_over
            .process_query(&fx.index, q, 10)
            .expect("healthy device");
        assert_eq!(a.topk, b.topk);
        assert!(
            b.time <= a.time,
            "pipelined {} > serial {} for {q:?}",
            b.time,
            a.time
        );
        // Lower bound: the critical path cannot undercut the busiest
        // single engine. Sum this query's spans per stream lane.
        let spans = telemetry.device_timeline().expect("enabled").spans;
        for lane in [StreamKind::Compute, StreamKind::Copy] {
            let busy: VirtualNanos = spans[before.len()..]
                .iter()
                .filter(|s| s.resource == lane.as_str())
                .map(|s| s.end - s.start)
                .sum();
            assert!(
                b.time >= busy,
                "pipelined {} < {} busy {} for {q:?}",
                b.time,
                lane.as_str(),
                busy
            );
        }
    }
    eng_serial.shutdown();
    eng_over.shutdown();
}

#[test]
fn exported_stream_timelines_never_overlap_within_an_engine() {
    let fx = fixture();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let telemetry = Telemetry::enabled();
    let mut griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    griffin.set_telemetry(telemetry.clone());
    for q in &fx.queries {
        for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
            griffin.run(&fx.index, &QueryRequest::new(q.to_vec()).mode(mode));
        }
    }
    let timeline = telemetry.device_timeline().expect("telemetry is enabled");
    // One engine per (stream, lane): the compute stream, and one DMA
    // lane per transfer direction (lane 0 htod, lane 1 dtoh).
    let engines = [
        (StreamKind::Compute, 0),
        (StreamKind::Copy, 0),
        (StreamKind::Copy, 1),
    ];
    let mut saw = [0usize; 3];
    for (i, (stream, lane)) in engines.into_iter().enumerate() {
        let mut spans: Vec<_> = timeline
            .spans
            .iter()
            .filter(|s| s.resource == stream.as_str() && s.lane == lane)
            .collect();
        spans.sort_by_key(|s| (s.start, s.end));
        saw[i] = spans.len();
        for w in spans.windows(2) {
            assert!(
                w[1].start >= w[0].end,
                "{}{} engine runs two ops at once: [{}, {}) then [{}, {})",
                stream.as_str(),
                lane,
                w[0].start,
                w[0].end,
                w[1].start,
                w[1].end
            );
        }
    }
    assert!(saw[0] > 0, "no kernels recorded on the compute lane");
    assert!(saw[1] > 0, "no uploads recorded on the copy lane");
    assert!(saw[2] > 0, "no downloads recorded on the copy lane");
    griffin.gpu.shutdown();
}
