//! Cross-crate invariants of the async-stream overlap layer.
//!
//! Three pins:
//!
//! 1. **Overlap is pure scheduling** — the pipeline on and off return
//!    the same top-k bits and intersection traces in every
//!    execution mode, including with an armed-but-no-op fault plan.
//! 2. **The clock is a critical path** — a pipelined query is never
//!    slower than its serial twin, and never faster than its busiest
//!    single engine (copy or compute): overlap hides time, it cannot
//!    invent it.
//! 3. **Streams serialize their own work** — the exported per-stream
//!    device timeline never overlaps two kernels on the compute engine
//!    (and never overlaps two transfers on the copy engine).

use griffin_suite::griffin::StepOp;
use griffin_suite::griffin_gpu_sim::{FaultPlan, StreamKind};
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;
use griffin_telemetry::Telemetry;

fn workload() -> Workload {
    oracle::workload(500_000, 100_000, 10, oracle::seed() ^ 0x9E37_79B9)
}

/// The tiny test device with `copy_engines` DMA engines; `0` is a serial
/// device.
fn tiny(copy_engines: u32) -> DeviceConfig {
    DeviceConfig {
        copy_engines,
        ..DeviceConfig::test_tiny()
    }
}

/// Every query in every mode, each answer checked against the oracle.
fn run_all(wl: &Workload, copy_engines: u32, plan: Option<FaultPlan>) -> Vec<GriffinOutput> {
    let gpu = Gpu::new(tiny(copy_engines));
    let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(plan);
    let mut outs = Vec::new();
    for q in &wl.queries {
        for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
            let req = QueryRequest::new(q.clone()).mode(mode);
            let out = griffin.run(&wl.corpus.index, &req);
            let ctx = format!("copy_engines {copy_engines}");
            oracle::assert_answer(&wl.corpus, &req, &out, &ctx);
            outs.push(out);
        }
    }
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "overlap must not leak device memory");
    outs
}

#[test]
fn overlap_on_and_off_are_bit_exact() {
    let wl = workload();
    for plan in [None, Some(FaultPlan::seeded(oracle::seed()))] {
        if let Some(p) = &plan {
            assert!(p.is_noop(), "a freshly seeded plan must inject nothing");
        }
        let on = run_all(&wl, 1, plan.clone());
        let off = run_all(&wl, 0, plan);
        for (a, b) in on.iter().zip(&off) {
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
    let wl = workload();
    let gpu_serial = Gpu::new(tiny(0));
    let gpu_over = Gpu::new(tiny(1));
    let telemetry = Telemetry::enabled();
    gpu_over.set_observer(telemetry.device_observer(gpu_over.config().warp_size));
    let eng_serial = GpuEngine::new(&gpu_serial, wl.corpus.index.meta());
    let eng_over = GpuEngine::new(&gpu_over, wl.corpus.index.meta());

    for q in &wl.queries {
        let before: Vec<_> = telemetry
            .device_timeline()
            .expect("telemetry is enabled")
            .spans;
        let a = eng_serial
            .process_query(&wl.corpus.index, q, 10)
            .expect("healthy device");
        let b = eng_over
            .process_query(&wl.corpus.index, q, 10)
            .expect("healthy device");
        let want = oracle::expect(&wl.corpus, &QueryRequest::new(q.clone()));
        assert_eq!(oracle::bits(&a.topk), want, "serial {q:?}");
        assert_eq!(oracle::bits(&b.topk), want, "pipelined {q:?}");
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
    let wl = workload();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let telemetry = Telemetry::enabled();
    let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    griffin.set_telemetry(telemetry.clone());
    for q in &wl.queries {
        for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
            griffin.run(&wl.corpus.index, &QueryRequest::new(q.clone()).mode(mode));
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
