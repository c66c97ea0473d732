//! Cross-crate invariants of the multi-tier cache stack — the device
//! list LRU, the host decoded-list cache, and the query result cache —
//! plus its serving hooks (single-flight coalescing, serve-stale).
//!
//! The pins:
//!
//! 1. **Off means off** — with every tier disabled, runs with
//!    armed-but-no-op fault plans and forced co-execution splits stay
//!    bit-exact with the plain engine: identical top-k, identical step
//!    traces, identical virtual clock.
//! 2. **On means same bits, never-worse time** — enabling the tiers
//!    changes *when*, never *what*: result bits are identical and the
//!    workload's total virtual time does not regress.
//! 3. **Bounded means bounded** — after every single query, no tier
//!    holds more bytes than its budget.
//! 4. **Flagged means flagged** — stale serves and coalesced queries
//!    are explicit in outcomes and counters, never silent.
//! 5. **LRU is a stack algorithm** — under a Zipf request mix the
//!    result-cache hit count is monotone in cache size.
//!
//! Set `GRIFFIN_FAULT_SEED` to vary the workload and fault schedule
//! (the CI `cache-invariants` job sweeps a fixed set of seeds).

use griffin_server::{AdmissionConfig, GriffinServer, Outcome, OverloadPolicy, ServerConfig};
use griffin_suite::griffin::{
    CachedResult, CostModel, QueryRequest, ResultCache, SplitConfig, RESULT_CACHE_LOOKUP,
};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::griffin_workload::Zipf;
use griffin_suite::prelude::*;

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

/// Workload derived from the fault seed, so the CI seed sweep varies
/// the inputs as well as the fault schedule.
fn fixture() -> Fixture {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(fault_seed() ^ 0xCAC4E);
    let spec = ListIndexSpec {
        num_terms: 20,
        num_docs: 400_000,
        max_list_len: 80_000,
        ..Default::default()
    };
    let (index, _) = build_list_index(&spec, &mut rng);
    let queries = QueryLogSpec {
        num_queries: 8,
        ..Default::default()
    }
    .generate(&index, &mut rng);
    Fixture { index, queries }
}

/// Each query three times over: caches must not change the answer of a
/// repeat, and warm tiers get something to hit.
fn repeated_requests(fx: &Fixture) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for _ in 0..3 {
        for q in &fx.queries {
            reqs.push(QueryRequest::new(q.clone()).k(10));
        }
    }
    reqs
}

/// Cache sizing for one run. `device_bytes: None` keeps the engine's
/// default device LRU; the all-off configuration zeroes every tier.
#[derive(Clone, Copy)]
struct Tiers {
    result: Option<(usize, u64)>,
    host_bytes: u64,
    device_bytes: Option<u64>,
}

const ALL_OFF: Tiers = Tiers {
    result: None,
    host_bytes: 0,
    device_bytes: Some(0),
};

const ALL_ON: Tiers = Tiers {
    result: Some((64, 1 << 20)),
    host_bytes: 1 << 20,
    device_bytes: None,
};

fn run_requests(
    fx: &Fixture,
    reqs: &[QueryRequest],
    tiers: Tiers,
    split: Option<SplitConfig>,
    plan: Option<FaultPlan>,
) -> (Vec<GriffinOutput>, VirtualNanos) {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.set_fault_plan(plan);
    let mut griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    if let Some((entries, bytes)) = tiers.result {
        griffin.set_result_cache(entries, bytes);
    }
    griffin.cpu.set_host_cache_budget(tiers.host_bytes);
    if let Some(bytes) = tiers.device_bytes {
        griffin.gpu.set_cache_budget(bytes);
    }
    if let Some(s) = split {
        griffin.scheduler.split = Some(s);
    }
    let outs: Vec<GriffinOutput> = reqs.iter().map(|r| griffin.run(&fx.index, r)).collect();
    let clock = gpu.now();
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "caching must not leak device memory");
    (outs, clock)
}

fn ids(out: &GriffinOutput) -> Vec<u32> {
    out.topk.iter().map(|&(d, _)| d).collect()
}

fn forced(fraction: f64) -> SplitConfig {
    let model = CostModel::from_device(&DeviceConfig::test_tiny(), true);
    SplitConfig::forced(model, fraction)
}

// ---------------------------------------------------------------- pin 1

#[test]
fn caches_off_with_noop_plans_and_forced_splits_stays_bit_exact() {
    let fx = fixture();
    let reqs = repeated_requests(&fx);
    let seed = fault_seed();

    let mut bits_baseline: Option<Vec<Vec<u32>>> = None;
    for split in [None, Some(forced(0.5))] {
        let (bare, clock_bare) = run_requests(&fx, &reqs, ALL_OFF, split, None);
        let plan = FaultPlan::seeded(seed);
        assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");
        let (armed, clock_armed) = run_requests(&fx, &reqs, ALL_OFF, split, Some(plan));

        assert_eq!(clock_bare, clock_armed, "virtual clocks must agree");
        for (a, b) in bare.iter().zip(&armed) {
            assert_eq!(a.topk, b.topk);
            assert_eq!(a.time, b.time);
            assert_eq!(a.steps, b.steps);
            assert!(!a.result_cache_hit && !b.result_cache_hit, "tier is off");
        }
        // Across split configurations only the bits are pinned (a split
        // legitimately reshapes the step timings).
        let bits: Vec<Vec<u32>> = bare.iter().map(ids).collect();
        match &bits_baseline {
            None => bits_baseline = Some(bits),
            Some(expect) => assert_eq!(&bits, expect, "forced split changed result bits"),
        }
    }
}

// ---------------------------------------------------------------- pin 2

#[test]
fn caches_on_keep_bits_identical_and_total_time_no_worse() {
    let fx = fixture();
    let reqs = repeated_requests(&fx);

    let (off, _) = run_requests(&fx, &reqs, ALL_OFF, None, None);
    let (on, _) = run_requests(&fx, &reqs, ALL_ON, None, None);

    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.topk, b.topk, "a cache tier changed result bits");
    }
    let total = |outs: &[GriffinOutput]| -> VirtualNanos { outs.iter().map(|o| o.time).sum() };
    assert!(
        total(&on) <= total(&off),
        "warm caches must never cost virtual time: on={:?} off={:?}",
        total(&on),
        total(&off)
    );
    // The repeats are exact duplicates, so the result cache must have
    // answered some of them — and flagged every one it did.
    assert!(
        on.iter().any(|o| o.result_cache_hit),
        "duplicate queries never hit the result cache"
    );
    assert!(
        off.iter().all(|o| !o.result_cache_hit),
        "a disabled result cache reported a hit"
    );
}

// ---------------------------------------------------------------- pin 3

#[test]
fn no_tier_ever_exceeds_its_byte_budget() {
    let fx = fixture();
    let reqs = repeated_requests(&fx);
    // Deliberately tight budgets so every tier is forced to evict.
    const RES_BYTES: u64 = 512;
    const HOST_BYTES: u64 = 64 * 1024;
    const DEV_BYTES: u64 = 128 * 1024;

    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    griffin.set_result_cache(64, RES_BYTES);
    griffin.cpu.set_host_cache_budget(HOST_BYTES);
    griffin.gpu.set_cache_budget(DEV_BYTES);

    for (i, req) in reqs.iter().enumerate() {
        griffin.run(&fx.index, req);
        let res = griffin.result_cache_stats().expect("tier enabled");
        assert!(
            res.bytes_resident <= RES_BYTES,
            "result cache over budget after query {i}: {} > {RES_BYTES}",
            res.bytes_resident
        );
        let host = griffin.cpu.host_cache_stats();
        assert!(
            host.bytes_resident <= HOST_BYTES,
            "host cache over budget after query {i}: {} > {HOST_BYTES}",
            host.bytes_resident
        );
        let dev = griffin.gpu.cache_stats();
        assert!(
            dev.bytes_resident <= DEV_BYTES,
            "device cache over budget after query {i}: {} > {DEV_BYTES}",
            dev.bytes_resident
        );
    }
    // The tight result-cache budget must actually have evicted.
    let res = griffin.result_cache_stats().expect("tier enabled");
    assert!(res.evictions > 0, "budget never forced an eviction");
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn result_cache_honours_both_bounds_directly() {
    let mut cache = ResultCache::new(4, 1_000);
    for i in 0..64u32 {
        let topk: Vec<(u32, f32)> = (0..(i % 7)).map(|d| (d, d as f32)).collect();
        cache.insert(
            format!("q{i}"),
            CachedResult {
                topk,
                time: VirtualNanos::from_nanos(u64::from(i) * 100),
            },
        );
        assert!(cache.len() <= 4, "entry bound violated at insert {i}");
        assert!(
            cache.stats().bytes_resident <= 1_000,
            "byte bound violated at insert {i}"
        );
    }
    assert!(cache.stats().evictions > 0);
}

// ---------------------------------------------------------------- pin 4

#[test]
fn concurrent_identical_queries_coalesce_in_the_serving_sim() {
    let fx = fixture();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    engine.set_result_cache(64, 1 << 20);

    // Five copies of one query land in the same instant: one leader
    // runs, four coalesce onto it instead of stampeding.
    let req = QueryRequest::new(fx.queries[0].clone()).k(10);
    let requests: Vec<QueryRequest> = (0..5).map(|_| req.clone()).collect();
    let server = GriffinServer::new(ServerConfig::default());
    let planned = server.plan(&engine, &fx.index, &requests);
    assert!(
        planned.iter().all(|p| p.coalesce_key.is_some()),
        "result cache on => every plan carries a single-flight key"
    );
    let arrivals = vec![VirtualNanos::ZERO; 5];
    let report = server.replay(&planned, &arrivals);

    assert_eq!(report.queries[0].outcome, Outcome::Completed);
    let coalesced = report
        .queries
        .iter()
        .filter(|q| q.outcome == Outcome::Coalesced)
        .count();
    assert_eq!(coalesced, 4, "four duplicates must coalesce on the leader");
    assert_eq!(report.stats.coalesced, 4);
    assert_eq!(report.stats.admitted, 1);
    // Followers finish exactly when the leader does.
    for q in &report.queries {
        assert_eq!(q.latency, report.queries[0].latency);
    }
    engine.gpu.shutdown();
}

#[test]
fn stale_serve_is_flagged_and_only_fires_under_the_policy() {
    let fx = fixture();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
    engine.set_result_cache(64, 1 << 20);

    // Plan order seeds the cache: A runs first, so the *second* A is
    // planned with a cached answer available. B differs from A, keeping
    // the single-flight key from short-circuiting the overload below.
    let a = QueryRequest::new(fx.queries[0].clone()).k(10);
    let b = fx
        .queries
        .iter()
        .skip(1)
        .map(|q| QueryRequest::new(q.clone()).k(10))
        .find(|r| r.query != a.query)
        .expect("the log holds a second distinct query");
    let requests = vec![a.clone(), b, a];
    let serve_stale_config = |on: bool| ServerConfig {
        cpu_workers: 1,
        admission: AdmissionConfig {
            capacity: 1,
            policy: OverloadPolicy::Shed,
            serve_stale: on,
            ..Default::default()
        },
        batching: None,
    };

    let server = GriffinServer::new(serve_stale_config(true));
    let planned = server.plan(&engine, &fx.index, &requests);
    assert_eq!(
        planned[0].stale_available, None,
        "nothing cached before A ran"
    );
    let expected_cost = planned[2]
        .stale_available
        .expect("second A planned with a cached answer");
    assert!(expected_cost <= RESULT_CACHE_LOOKUP);

    // A1 at t=0 finishes; B then occupies the single slot; A2 arrives
    // while B runs — its key has been released, capacity is full, and
    // the stale answer is served, explicitly flagged.
    let t0 = VirtualNanos::ZERO;
    let after_a = planned[0].service_time + VirtualNanos::from_nanos(1);
    let arrivals = vec![t0, after_a, after_a + VirtualNanos::from_nanos(1)];
    let report = server.replay(&planned, &arrivals);
    assert_eq!(report.queries[0].outcome, Outcome::Completed);
    assert_eq!(report.queries[1].outcome, Outcome::Completed);
    assert_eq!(report.queries[2].outcome, Outcome::ServedStale);
    assert_eq!(report.queries[2].latency, Some(expected_cost));
    assert_eq!(report.stats.served_stale, 1);
    assert_eq!(report.stats.shed, 0);

    // Same replay with the policy off: the query is shed outright —
    // stale answers are never served silently or by default.
    let server_off = GriffinServer::new(serve_stale_config(false));
    let report_off = server_off.replay(&planned, &arrivals);
    assert_eq!(report_off.queries[2].outcome, Outcome::Shed);
    assert_eq!(report_off.stats.served_stale, 0);
    assert_eq!(report_off.stats.shed, 1);
    engine.gpu.shutdown();
}

// ---------------------------------------------------------------- pin 5

#[test]
fn zipf_hit_count_is_monotone_in_result_cache_size() {
    use rand::SeedableRng;
    let fx = fixture();
    // A Zipf-weighted stream over a pool of 8 distinct queries: the
    // head queries recur heavily, the tail rarely.
    let mut rng = rand::rngs::StdRng::seed_from_u64(fault_seed() ^ 0x21bf);
    let zipf = Zipf::new(fx.queries.len() as u64, 1.1);
    let stream: Vec<QueryRequest> = (0..120)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as usize - 1;
            QueryRequest::new(fx.queries[rank].clone()).k(10)
        })
        .collect();

    // LRU is a stack algorithm: a larger cache's contents always
    // include a smaller one's, so hits can only grow with entries.
    let mut last_hits = 0u64;
    for entries in [1usize, 2, 4, 8] {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, fx.index.meta(), fx.index.block_len());
        griffin.set_result_cache(entries, 1 << 20);
        for req in &stream {
            griffin.run(&fx.index, req);
        }
        let stats = griffin.result_cache_stats().expect("tier enabled");
        assert!(
            stats.hits >= last_hits,
            "hit count fell from {last_hits} to {} at {entries} entries",
            stats.hits
        );
        last_hits = stats.hits;
        griffin.gpu.shutdown();
    }
    assert!(last_hits > 0, "the Zipf head never hit an 8-entry cache");
}

// ----------------------------------------------------- scratch drive-by

#[test]
fn mixed_cached_uncached_terms_keep_decode_scratch_flat() {
    use griffin_suite::griffin_cpu::engine::Strategy;
    use griffin_suite::griffin_cpu::{QueryScratch, WorkCounters};

    let fx = fixture();
    let cpu = CpuEngine::new();
    cpu.set_host_cache_budget(1 << 20);
    // The longest query gives the most intersect steps to mix over.
    let query = fx
        .queries
        .iter()
        .max_by_key(|q| q.len())
        .expect("non-empty log")
        .clone();
    assert!(query.len() >= 2, "need a multi-term query");
    let order = cpu.plan(&fx.index, &query);

    let run_once = |scratch: &mut QueryScratch| {
        let mut w = WorkCounters::default();
        let mut inter = cpu.init_intermediate(&fx.index, order[0], &mut w);
        for &t in &order[1..] {
            inter = cpu.intersect_step_with(&fx.index, &inter, t, Strategy::Auto, &mut w, scratch);
        }
        (inter.docids, inter.scores)
    };

    // Pass 1 misses the host cache on every term and sets the scratch
    // high-water mark.
    let mut scratch = QueryScratch::default();
    let cold = run_once(&mut scratch);
    let capacities =
        |s: &QueryScratch| -> (usize, usize) { (s.block_buf.capacity(), s.tf_buf.capacity()) };
    let high_water = capacities(&scratch);

    // Pass 2: every list host-cached — decode is skipped entirely, and
    // the scratch must be reused, never regrown.
    for &t in &order {
        assert!(cpu.warm_host_cache(&fx.index, t));
    }
    let warm = run_once(&mut scratch);
    assert_eq!(cold, warm, "host-cache hits changed the intersection");
    assert_eq!(
        capacities(&scratch),
        high_water,
        "an all-cached pass regrew the decode scratch"
    );

    // Pass 3: mixed — only the longest list is cached, the rest decode
    // through the scratch again. Bits and capacities both hold.
    cpu.clear_host_cache();
    assert!(cpu.warm_host_cache(&fx.index, order[order.len() - 1]));
    let mixed = run_once(&mut scratch);
    assert_eq!(cold, mixed, "a mixed cached/uncached pass changed bits");
    assert_eq!(
        capacities(&scratch),
        high_water,
        "a mixed cached/uncached pass regrew the decode scratch"
    );
}
