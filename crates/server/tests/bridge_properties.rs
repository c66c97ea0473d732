//! Property tests pinning the serving pipeline's exactness guarantees:
//!
//! * an **unloaded** single query replayed through the full pipeline
//!   (engine → trace → stage bridge → discrete-event simulator) finishes
//!   in exactly [`griffin::GriffinOutput::time`] — bit-exact, in every
//!   execution mode, with or without batch packing;
//! * the bridged stages' per-resource totals equal the step trace's
//!   per-processor sums (PCIe migrations on the GPU side).

use griffin::serving::Resource;
use griffin::{ExecMode, Griffin, Proc, QueryRequest, StepOp};
use griffin_codec::Codec;
use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
use griffin_index::{IndexBuilder, InvertedIndex, TermId};
use griffin_server::{
    resource_totals, stages_of, ArrivingQuery, BatchConfig, GriffinServer, ServerConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Small random corpora: each document is a list of small word ids.
fn corpora() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(0u8..30, 1..40), 2..40)
}

fn build_index(docs: &[Vec<u8>]) -> InvertedIndex {
    let mut b = IndexBuilder::new(Codec::EliasFano);
    for words in docs {
        let tokens: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        b.add_document(&refs);
    }
    b.build()
}

fn resolve(idx: &InvertedIndex, words: &[u8]) -> Vec<TermId> {
    let mut terms: Vec<TermId> = words
        .iter()
        .filter_map(|w| idx.lookup(&format!("w{w}")))
        .collect();
    terms.dedup();
    terms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end: one query served through the whole pipeline, with an
    /// idle system, completes in exactly the engine's measured latency
    /// and returns exactly the engine's results.
    #[test]
    fn unloaded_pipeline_latency_is_bit_exact(
        docs in corpora(),
        qwords in vec(0u8..30, 1..4),
        mode_idx in 0usize..3,
        batching in any::<bool>(),
    ) {
        let idx = build_index(&docs);
        let terms = resolve(&idx, &qwords);
        if terms.is_empty() {
            return Ok(()); // vocabulary miss — nothing to run
        }

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // The GPU list cache warms across runs; disable it so the
        // measurement run and the serve-phase run cost the same.
        engine.gpu.set_cache_budget(0);
        let mode = [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid][mode_idx];
        let req = QueryRequest::new(terms).k(5).mode(mode);
        let out = engine.run(&idx, &req);
        // So do the device allocator's free lists: hand the blocks back,
        // so that the serve-phase run starts as cold as this one did.
        gpu.trim_pool();

        let config = ServerConfig {
            cpu_workers: 4,
            batching: batching.then(|| BatchConfig::for_device(gpu.config())),
            ..Default::default()
        };
        let server = GriffinServer::new(config);
        let report = server.serve(
            &engine,
            &idx,
            &[ArrivingQuery { request: req, arrival: VirtualNanos::ZERO }],
        );
        prop_assert_eq!(report.queries[0].latency, Some(out.time));
    }

    /// The bridge preserves time exactly, split by resource: CPU stages
    /// total the CPU-processor steps, GPU stages total the GPU steps
    /// plus PCIe migrations, and together they are the engine latency.
    #[test]
    fn stage_totals_match_step_trace_per_proc_sums(
        docs in corpora(),
        qwords in vec(0u8..30, 1..4),
        mode_idx in 0usize..3,
    ) {
        let idx = build_index(&docs);
        let terms = resolve(&idx, &qwords);
        if terms.is_empty() {
            return Ok(()); // vocabulary miss — nothing to run
        }

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let mode = [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid][mode_idx];
        let out = engine.run(&idx, &QueryRequest::new(terms).k(5).mode(mode));

        // Independent per-processor sums straight off the step trace.
        let mut cpu_ref = VirtualNanos::ZERO;
        let mut gpu_ref = VirtualNanos::ZERO;
        for s in &out.steps {
            if s.proc == Proc::Gpu || s.op == StepOp::Migrate {
                gpu_ref += s.time;
            } else {
                cpu_ref += s.time;
            }
        }

        let stages = stages_of(&out);
        let (cpu_total, gpu_total) = resource_totals(&stages);
        prop_assert_eq!(cpu_total, cpu_ref);
        prop_assert_eq!(gpu_total, gpu_ref);
        prop_assert_eq!(cpu_total + gpu_total, out.time);
        // Merging means adjacent stages always alternate resources.
        for pair in stages.windows(2) {
            prop_assert_ne!(pair[0].resource, pair[1].resource);
        }
        let _ = Resource::Cpu; // used via resource_totals
    }
}
