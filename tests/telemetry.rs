//! Telemetry-layer properties, as integration tests over the full stack:
//!
//! * enabling tracing is *free of observable effect* — identical top-k
//!   and identical virtual timings vs. an untraced run (the recording
//!   path is strictly passive);
//! * a hybrid query's [`griffin::StepTrace`] durations sum exactly to
//!   [`griffin::GriffinOutput::time`];
//! * the serving-sim timeline is a faithful schedule: spans never
//!   overlap within a lane, and reproduce the latencies it reports;
//! * log-bucketed histogram quantiles stay within the bucketing's
//!   relative-error bound for arbitrary samples.

use griffin::serving::{Resource, StageReq};
use griffin::{ExecMode, Griffin, QueryRequest};
use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
use griffin_index::TermId;
use griffin_server::{PlannedQuery, ServerConfig, ServerSim};
use griffin_suite::griffin_workload::Corpus;
use griffin_suite::oracle;
use griffin_telemetry::metrics::Histogram;
use griffin_telemetry::Telemetry;
use proptest::collection::vec;
use proptest::prelude::*;

/// An [`oracle::overlapping_corpus`] and the conjunction of its terms.
fn build(lists: &[Vec<u32>], tf_seed: u64) -> (Corpus, Vec<TermId>) {
    let corpus = oracle::overlapping_corpus(lists, tf_seed);
    let terms = (0..corpus.index.num_terms() as u32).map(TermId).collect();
    (corpus, terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The engine-equivalence guarantee the tentpole promises: attaching
    /// a live telemetry session (trace recorder + device observer) to
    /// one of two otherwise-identical engines changes neither the top-k
    /// results nor any virtual timing, in any execution mode.
    #[test]
    fn enabled_tracing_changes_no_results_or_timings((lists, tf_seed) in oracle::overlapping_lists(), k in 1usize..=20) {
        let (corpus, terms) = build(&lists, tf_seed);
        let idx = &corpus.index;

        let gpu_plain = Gpu::new(DeviceConfig::test_tiny());
        let plain = Griffin::new(&gpu_plain, idx.meta(), idx.block_len());

        let gpu_traced = Gpu::new(DeviceConfig::test_tiny());
        let mut traced = Griffin::new(&gpu_traced, idx.meta(), idx.block_len());
        traced.set_telemetry(Telemetry::enabled());

        for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
            let req = QueryRequest::new(terms.clone()).k(k).mode(mode);
            let a = plain.run(idx, &req);
            let b = traced.run(idx, &req);
            let want = oracle::expect(&corpus, &req);
            prop_assert_eq!(oracle::bits(&a.topk), want.clone(), "untraced {:?}", mode);
            prop_assert_eq!(oracle::bits(&b.topk), want, "traced {:?}", mode);
            prop_assert_eq!(a.time, b.time, "total time diverged in {:?}", mode);
            prop_assert_eq!(a.steps.len(), b.steps.len());
            for (sa, sb) in a.steps.iter().zip(&b.steps) {
                prop_assert_eq!(sa.time, sb.time, "step time diverged in {:?}", mode);
                prop_assert_eq!(sa.proc, sb.proc);
                prop_assert_eq!(sa.op, sb.op);
            }
        }
        // ... and the traced engine actually recorded something.
        let rec = traced.telemetry().recorder().expect("enabled");
        prop_assert!(rec.event_count() > 0, "no trace events recorded");
        let metrics = traced.telemetry().metrics_json().expect("enabled");
        prop_assert!(metrics.contains("griffin_sched_decisions_total"));
        prop_assert!(metrics.contains("griffin_step_ns"));
        // The device allocator's totals arrive through the same observer
        // (every hit and miss precedes the launch that uses the buffer),
        // and being observed moved none of the device's own counts.
        let pool = gpu_traced.stats().pool;
        prop_assert!(pool.misses > 0, "{:?}", pool);
        prop_assert_eq!(rec.registry.counter("griffin_gpu_pool_hits_total"), pool.hits);
        prop_assert_eq!(rec.registry.counter("griffin_gpu_pool_misses_total"), pool.misses);
        prop_assert_eq!(rec.registry.counter("griffin_gpu_pool_trimmed_total"), pool.trimmed);
        prop_assert!(rec.registry.gauge("griffin_gpu_pool_cached_bytes").is_some());
        prop_assert_eq!(gpu_plain.stats(), gpu_traced.stats());
    }

    /// Hybrid accounting: the per-step durations in the trace sum
    /// exactly (integer virtual nanoseconds, no rounding slack) to the
    /// query's reported total.
    #[test]
    fn hybrid_step_durations_sum_to_total_time((lists, tf_seed) in oracle::overlapping_lists(), k in 1usize..=20) {
        let (corpus, terms) = build(&lists, tf_seed);
        let idx = &corpus.index;
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let out = griffin.run(idx, &QueryRequest::new(terms).k(k));
        let step_sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        prop_assert_eq!(step_sum, out.time);
        prop_assert!(!out.steps.is_empty());
    }

    /// Timeline faithfulness (default admission, no batching): the
    /// simulator's spans never overlap within a lane, every span starts
    /// no earlier than it became ready, and each job's last-stage end
    /// reproduces its reported latency.
    #[test]
    fn serving_timeline_is_a_valid_schedule(
        arrivals in vec(0u64..1_000_000, 1..40),
        stage_specs in vec(vec((0u8..2, 1u64..100_000), 0..4), 1..40),
        cores in 1usize..5,
    ) {
        let (arrivals, jobs): (Vec<VirtualNanos>, Vec<PlannedQuery>) = arrivals
            .iter()
            .zip(&stage_specs)
            .map(|(&arrival, stages)| {
                let stages = stages
                    .iter()
                    .map(|&(r, d)| {
                        let res = if r == 0 { Resource::Cpu } else { Resource::Gpu };
                        StageReq::new(res, VirtualNanos::from_nanos(d))
                    })
                    .collect();
                let job = PlannedQuery { stages, ..Default::default() };
                (VirtualNanos::from_nanos(arrival), job)
            })
            .unzip();

        let config = ServerConfig { cpu_workers: cores, ..Default::default() };
        let report = ServerSim::new(config).run(&jobs, &arrivals);
        let timeline = &report.timeline;
        let latencies: Vec<VirtualNanos> = report
            .queries
            .iter()
            .map(|q| q.latency.expect("default admission sheds nothing"))
            .collect();

        // One span per executed stage.
        let total_stages: usize = jobs.iter().map(|j| j.stages.len()).sum();
        prop_assert_eq!(timeline.spans.len(), total_stages);

        // Per-lane: sort by start, require end_i <= start_{i+1}.
        let mut lanes: std::collections::BTreeMap<(&str, usize), Vec<(VirtualNanos, VirtualNanos)>> =
            std::collections::BTreeMap::new();
        for s in &timeline.spans {
            prop_assert!(s.start >= s.ready, "span started before it was ready");
            prop_assert!(s.end >= s.start);
            lanes.entry((s.resource, s.lane)).or_default().push((s.start, s.end));
        }
        for ((resource, lane), mut spans) in lanes {
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0,
                    "overlapping spans on {resource}[{lane}]: {:?} then {:?}", w[0], w[1]
                );
            }
        }

        // Latency reproduction: completion of a job's last stage minus
        // its arrival equals the returned latency.
        for (j, job) in jobs.iter().enumerate() {
            if job.stages.is_empty() {
                prop_assert_eq!(latencies[j], VirtualNanos::ZERO);
                continue;
            }
            let last_end = timeline
                .spans
                .iter()
                .filter(|s| s.job == j)
                .map(|s| s.end)
                .max()
                .expect("job has spans");
            prop_assert_eq!(last_end - arrivals[j], latencies[j]);
        }
    }

    /// Log-bucketed quantiles: for arbitrary samples, every estimated
    /// quantile brackets the exact order statistic from above by at
    /// most one log sub-bucket (≤ 25 % relative error), never exceeds
    /// the observed max, and the histogram preserves count/min/max.
    #[test]
    fn histogram_quantiles_bound_relative_error(samples in vec(0u64..10_000_000_000, 1..500)) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());

        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            let est = h.quantile(q);
            // The histogram's convention: the rank-⌈q·n⌉ sample, 1-based.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            prop_assert!(est <= h.max());
            prop_assert!(
                est >= exact && est as f64 <= exact as f64 * 1.25,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
    }
}
