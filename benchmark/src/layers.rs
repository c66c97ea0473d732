//! The per-layer table: direct probes of each crate's public functions,
//! and the arithmetic that turns the traced pass's spans, answers and
//! public stats structs into one named number per layer metric.

use crate::api::{self, CodecProbe, EngineProbe, FrontProbe, Prepared, Request, Session};
use crate::report::{Metrics, FAMILIES};
use crate::run::{run_pass, PassOut, PassPlan, ReferenceRung, GPU_PROBE_QUERIES};
use crate::spans::{self, Recorder, Span};
use crate::stats::{self, ratio, Rung};
use crate::workloads::{Kind, World, FLEET};

pub struct Probes {
    codec: CodecProbe,
    cpu: EngineProbe,
    gpu: EngineProbe,
    front: FrontProbe,
    merge_ns: f64,
    launch_floor_us: f64,
    probe_ns_per_thread: f64,
}

/// Calls each layer's public functions directly, one span per call.
pub fn probe(world: &World, kind: Kind, rec: &mut Recorder) -> Probes {
    // The stream's distinct requests, in first-use order.
    let mut seen = vec![false; world.pool.len()];
    let log: Vec<Request> = world
        .stream
        .iter()
        .filter(|&&i| !std::mem::replace(&mut seen[i], true))
        .map(|&i| world.pool[i].clone())
        .collect();
    let index = &world.index;
    let codec = rec.within("probe.codec.decode_encode", |_| {
        api::codec_probe(index, &index.terms_touched(&log))
    });
    let cpu = rec.within("probe.cpu-engine.process_query", |_| {
        api::cpu_engine_probe(index, &log)
    });
    let gpu = rec.within("probe.griffin-gpu.process_query", |_| {
        api::gpu_engine_probe(index, &log, GPU_PROBE_QUERIES)
    });
    let front = rec.within("probe.core.parse_plan_decide", |_| {
        api::front_probe(index, &log)
    });
    let shards = if kind == Kind::FleetFaults {
        FLEET.shards
    } else {
        1
    };
    let merge_ns = rec.within("probe.server.merge_topk", |_| api::merge_probe(shards));
    let (launch_floor_us, probe_ns_per_thread) =
        rec.within("probe.gpu-sim.launch", |_| api::sim_probe());
    Probes {
        codec,
        cpu,
        gpu,
        front,
        merge_ns,
        launch_floor_us,
        probe_ns_per_thread,
    }
}

#[derive(Default)]
pub struct TelemetryProbe {
    overhead_pct: f64,
    events_per_query: f64,
    export_ms: f64,
    profile_fold_us: f64,
    cache_flips: u64,
}

/// The first quarter of the stream with `Telemetry::enabled()` attached
/// against the same quarter detached, best of two each.
pub fn telemetry_probe(
    world: &World,
    kind: Kind,
    seed: u64,
    prepared: &[Prepared],
) -> TelemetryProbe {
    let quarter = (world.stream.len() / 4).max(1);
    let total = |session: Option<&Session>| {
        let plan = PassPlan {
            limit: Some(quarter),
            session,
            ..PassPlan::default()
        };
        run_pass(world, kind, seed, prepared, plan)
            .host_ns
            .iter()
            .sum::<u64>()
    };
    let mut detached = u64::MAX;
    let mut attached = u64::MAX;
    let mut last = None;
    for _ in 0..2 {
        detached = detached.min(total(None));
        let session = Session::enabled();
        attached = attached.min(total(Some(&session)));
        last = Some(session);
    }
    let session = last.expect("two repetitions ran");
    let folded = session.fold();
    TelemetryProbe {
        overhead_pct: (attached as f64 / detached.max(1) as f64 - 1.0) * 100.0,
        events_per_query: session.events() as f64 / quarter as f64,
        export_ms: session.export_ns() as f64 / 1e6,
        profile_fold_us: folded.fold_ns as f64 / 1e3 / folded.profiles.max(1) as f64,
        cache_flips: folded.cache_flips,
    }
}

pub struct Inputs<'a> {
    pub world: &'a World,
    pub spans: &'a [Span],
    /// The untraced passes of the traced run.
    pub plain: &'a [PassOut],
    pub traced: &'a PassOut,
    pub probes: &'a Probes,
    pub at_ref: &'a ReferenceRung,
    pub rung: &'a Rung,
    pub telemetry: &'a TelemetryProbe,
    /// (AVX2, all) CPU-kernel dispatches during the traced pass.
    pub simd: (u64, u64),
}

/// Host time, simulated time and work of a set of device spans.
#[derive(Default, Clone, Copy)]
struct DevSum {
    host_ns: u64,
    virt_ns: u64,
    work: u64,
    count: u64,
}

impl DevSum {
    fn add(&mut self, s: &Span) {
        self.host_ns += s.end_ns - s.start_ns;
        self.virt_ns += s.virt_ns;
        self.work += s.work;
        self.count += 1;
    }
}

/// Millions of integers per second.
fn mints_s(ints: u64, ns: u64) -> f64 {
    ratio(ints * 1_000, ns)
}

pub fn fill(m: &mut Metrics, x: &Inputs<'_>) {
    let world = x.world;
    let answers: Vec<&api::Answer> = x.traced.answers.iter().flatten().collect();
    let n = answers.len().max(1) as f64;
    let per_query_us = |ns: u64| ns as f64 / n / 1e3;

    // workload, index: the set-up spans and the index's own counts.
    let postings = world.index.postings();
    m.set("workload.gen_s", world.gen_s);
    let stream_postings: u64 = world
        .stream
        .iter()
        .map(|&i| world.index.postings_of(&world.pool[i]))
        .sum();
    m.set(
        "workload.postings_per_query",
        stream_postings as f64 / world.stream.len().max(1) as f64,
    );
    m.set("index.build_s", world.build_s);
    m.set("index.shard_s", world.shard_s);
    m.set("index.postings", postings as f64);
    m.set(
        "index.bytes_per_posting",
        ratio(world.index.bytes(), postings),
    );

    // codec: timed block decode / encode of every list the log touches.
    let c = &x.probes.codec;
    m.set("codec.decode_mints_s", mints_s(c.ints, c.decode_ns));
    m.set(
        "codec.decode_scalar_mints_s",
        mints_s(c.ints, c.decode_scalar_ns),
    );
    m.set("codec.encode_mints_s", mints_s(c.ints, c.encode_ns));
    m.set("codec.bits_per_int", c.bits_per_int);

    // cpu-engine: the direct probe, the pruning ledger of the traced
    // pass's answers, the host list cache and the SIMD dispatch counts.
    let p = &x.probes.cpu;
    m.set_n(
        "cpu-engine.host_ns_per_posting",
        ratio(p.host_ns, p.postings),
        Some(p.queries as usize),
        true,
    );
    m.set(
        "cpu-engine.virt_ns_per_posting",
        ratio(p.virt_ns, p.postings),
    );
    m.set("cpu-engine.blocks_decoded", p.blocks_decoded as f64);
    m.set("cpu-engine.skip_probes", p.skip_probes as f64);
    m.set("cpu-engine.merge_steps", p.merge_steps as f64);
    m.set("cpu-engine.scored", p.scored as f64);
    let tf_total: u64 = answers.iter().map(|a| a.tf_blocks_total).sum();
    let tf_decoded: u64 = answers.iter().map(|a| a.tf_blocks_decoded).sum();
    m.set(
        "cpu-engine.tf_blocks_decoded_ratio",
        if tf_total == 0 {
            1.0
        } else {
            ratio(tf_decoded, tf_total)
        },
    );
    let cache = &x.traced.cache;
    m.set(
        "cpu-engine.listcache_hit_ratio",
        ratio(cache.list_hits, cache.list_hits + cache.list_misses),
    );
    m.set(
        "cpu-engine.listcache_evictions",
        cache.list_evictions as f64,
    );
    m.set("cpu-engine.simd_share", ratio(x.simd.0, x.simd.1));

    // gpu-sim, griffin-gpu: the device spans of the traced pass.
    let own = spans::self_times(x.spans);
    let mut query_ns = 0u64;
    let mut query_self_ns = 0u64;
    let mut kernels = DevSum::default();
    let mut pcie = DevSum::default();
    let mut families = [DevSum::default(); FAMILIES.len()];
    for (s, &self_ns) in x.spans.iter().zip(&own) {
        if s.name == "query" {
            query_ns += s.end_ns - s.start_ns;
            query_self_ns += self_ns;
        } else if let Some(dev) = s.name.strip_prefix("dev.") {
            if dev.starts_with("pcie_") {
                pcie.add(s);
            } else {
                kernels.add(s);
                let family = dev.split('.').next().unwrap_or(dev);
                if let Some(i) = FAMILIES.iter().position(|&f| f == family) {
                    families[i].add(s);
                }
            }
        }
    }
    let share = |ns: u64| ratio(ns * 100, query_ns);
    m.set(
        "gpu-sim.host_share_pct",
        share(kernels.host_ns + pcie.host_ns),
    );
    m.set(
        "gpu-sim.host_ns_per_sim_thread",
        ratio(kernels.host_ns, kernels.work),
    );
    m.set("gpu-sim.launches", kernels.count as f64);
    m.set("gpu-sim.sim_threads", kernels.work as f64);
    m.set("gpu-sim.htod_bytes", x.traced.dev.htod_bytes as f64);
    m.set("gpu-sim.dtoh_bytes", x.traced.dev.dtoh_bytes as f64);
    m.set("gpu-sim.allocs", x.traced.dev.allocs as f64);
    m.set(
        "gpu-sim.peak_dev_mb",
        x.traced.dev.peak_bytes as f64 / (1 << 20) as f64,
    );
    m.set(
        "gpu-sim.faults_injected",
        answers.iter().map(|a| u64::from(a.gpu_faults)).sum::<u64>() as f64,
    );
    m.set("gpu-sim.virt_kernel_us", per_query_us(kernels.virt_ns));
    m.set("gpu-sim.virt_pcie_us", per_query_us(pcie.virt_ns));
    m.set("gpu-sim.launch_floor_us", x.probes.launch_floor_us);
    m.set("gpu-sim.probe_ns_per_thread", x.probes.probe_ns_per_thread);

    let g = &x.probes.gpu;
    m.set_n(
        "griffin-gpu.host_ns_per_posting",
        ratio(g.host_ns, g.postings),
        Some(g.queries as usize),
        true,
    );
    m.set(
        "griffin-gpu.virt_ns_per_posting",
        ratio(g.virt_ns, g.postings),
    );
    for (family, f) in FAMILIES.iter().zip(&families) {
        m.set(
            &format!("griffin-gpu.{family}.host_share_pct"),
            share(f.host_ns),
        );
        m.set(
            &format!("griffin-gpu.{family}.host_ns_per_thread"),
            ratio(f.host_ns, f.work),
        );
        m.set(
            &format!("griffin-gpu.{family}.virt_us"),
            per_query_us(f.virt_ns),
        );
    }
    m.set(
        "griffin-gpu.devcache_hit_ratio",
        ratio(cache.dev_hits, cache.dev_hits + cache.dev_misses),
    );
    m.set(
        "griffin-gpu.prefetch_used_ratio",
        ratio(cache.prefetch_consumed, cache.prefetch_issued),
    );

    // core: the step traces of the traced pass's answers, the query
    // spans' self time, the front-end probe and the result cache.
    let steps = |f: fn(&api::StepSums) -> u64| answers.iter().map(|a| f(&a.steps)).sum::<u64>();
    m.set("core.steps_cpu", steps(|s| u64::from(s.n_cpu)) as f64);
    m.set("core.steps_gpu", steps(|s| u64::from(s.n_gpu)) as f64);
    m.set("core.steps_split", steps(|s| u64::from(s.n_split)) as f64);
    m.set("core.migrations", steps(|s| u64::from(s.n_migrate)) as f64);
    m.set("core.virt_cpu_us", per_query_us(steps(|s| s.cpu_ns)));
    m.set("core.virt_gpu_us", per_query_us(steps(|s| s.gpu_ns)));
    m.set(
        "core.virt_migrate_us",
        per_query_us(steps(|s| s.migrate_ns)),
    );
    m.set(
        "core.virt_recovery_us",
        per_query_us(steps(|s| s.recovery_ns)),
    );
    m.set("core.host_self_us", per_query_us(query_self_ns));
    m.set("core.parse_ns", x.probes.front.parse_ns);
    m.set("core.plan_ns", x.probes.front.plan_ns);
    m.set("core.sched_decide_ns", x.probes.front.sched_decide_ns);
    m.set(
        "core.rescache_hit_ratio",
        ratio(cache.result_hits, cache.result_hits + cache.result_misses),
    );
    m.set("core.rescache_evictions", cache.result_evictions as f64);
    m.set("core.cache_flips", x.telemetry.cache_flips as f64);
    // Host time of a result-cache hit: each hit's least time over the
    // untraced passes.
    let hit_ns: Vec<u64> = x
        .traced
        .answers
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_ref().is_ok_and(|a| a.cache_hit))
        .map(|(pos, _)| x.plain.iter().map(|p| p.host_ns[pos]).min().unwrap_or(0))
        .collect();
    m.set_n(
        "core.rescache_hit_host_ns",
        if hit_ns.is_empty() {
            0.0
        } else {
            stats::mean(&hit_ns)
        },
        Some(hit_ns.len()),
        true,
    );
    m.set(
        "core.gpu_faults",
        answers.iter().filter(|a| a.gpu_faults > 0).count() as f64,
    );
    m.set(
        "core.gpu_abandoned",
        answers.iter().filter(|a| a.gpu_abandoned).count() as f64,
    );

    // server: phase B at the reference rate.
    let r = x.at_ref;
    m.set_n(
        "server.replay_jobs_per_s",
        ratio(r.arrivals as u64 * 1_000_000_000, r.host_ns),
        Some(r.arrivals),
        true,
    );
    let replay = r.replay.clone().unwrap_or_default();
    m.set(
        "server.queue_wait_mean_us",
        replay.queue_wait_mean_ns as f64 / 1e3,
    );
    m.set_n(
        "server.load_p99_us",
        x.rung.p99_ns as f64 / 1e3,
        Some(x.rung.n),
        x.rung.n >= 100 * stats::BEYOND,
    );
    m.set("server.batch_occupancy_mean", replay.batch_occupancy_mean);
    m.set(
        "server.gpu_queue_depth_max",
        replay.gpu_queue_depth_max as f64,
    );
    m.set(
        "server.gpu_time_saved_us",
        replay.gpu_time_saved_ns as f64 / 1e3,
    );
    m.set("server.shed", x.rung.shed as f64);
    m.set("server.degraded", replay.degraded as f64);
    m.set("server.fleet_hedges", r.fleet.hedges as f64);
    m.set(
        "server.fleet_hedge_win_ratio",
        ratio(r.fleet.hedge_wins, r.fleet.hedges),
    );
    m.set("server.fleet_coverage_mean", r.fleet.coverage_mean);
    m.set("server.fleet_degraded_cpu", r.fleet.degraded_cpu as f64);
    m.set(
        "server.fleet_busy_over_service",
        ratio(r.fleet.busy_ns, r.fleet.service_ns),
    );
    m.set("server.merge_ns", x.probes.merge_ns);

    let t = x.telemetry;
    m.set("telemetry.overhead_pct", t.overhead_pct);
    m.set("telemetry.events_per_query", t.events_per_query);
    m.set("telemetry.export_ms", t.export_ms);
    m.set("telemetry.profile_fold_us", t.profile_fold_us);

    // harness: what tracing costs the timed region, and how far two
    // identical untraced passes are apart.
    let totals: Vec<f64> = x.plain.iter().map(PassOut::total_s).collect();
    let least = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let most = totals.iter().copied().fold(0.0, f64::max);
    m.set(
        "harness.trace_overhead_pct",
        (x.traced.total_s() / least - 1.0) * 100.0,
    );
    m.set("harness.pass_spread_pct", (most / least - 1.0) * 100.0);
}
