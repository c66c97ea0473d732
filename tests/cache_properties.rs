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
//! 6. **One LRU, checked against a naive one** — the LRU all three tiers
//!    share agrees, op by op, with a `Vec` kept in recency order: same
//!    answers, same victims in the same order, same stats; and the tiers'
//!    counts over `exp_cache`'s Zipf stream match a golden to the digit.

use griffin_server::{AdmissionConfig, GriffinServer, Outcome, OverloadPolicy, ServerConfig};
use std::rc::Rc;

use griffin_suite::griffin::{
    CachedResult, QueryRequest, ResultCache, SplitConfig, RESULT_CACHE_LOOKUP,
};
use griffin_suite::griffin_cpu::{CacheStats, Lru};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::griffin_workload::Zipf;
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;

fn workload() -> Workload {
    oracle::workload(400_000, 80_000, 8, oracle::seed() ^ 0xCAC4E)
}

/// Each query three times over: caches must not change the answer of a
/// repeat, and warm tiers get something to hit.
fn repeated_requests(wl: &Workload) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for _ in 0..3 {
        for q in &wl.queries {
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

/// Runs `reqs` in order, each answer checked against the oracle.
fn run_requests(
    wl: &Workload,
    reqs: &[QueryRequest],
    tiers: Tiers,
    split: Option<SplitConfig>,
    plan: Option<FaultPlan>,
) -> (Vec<GriffinOutput>, VirtualNanos) {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(plan);
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
    let outs: Vec<GriffinOutput> = reqs
        .iter()
        .map(|r| {
            let out = griffin.run(&wl.corpus.index, r);
            oracle::assert_answer(&wl.corpus, r, &out, &format!("split {split:?}"));
            out
        })
        .collect();
    let clock = gpu.now();
    griffin.gpu.shutdown();
    assert_eq!(gpu.mem_in_use(), 0, "caching must not leak device memory");
    (outs, clock)
}

// ---------------------------------------------------------------- pin 1

#[test]
fn caches_off_with_noop_plans_and_forced_splits_stays_bit_exact() {
    let wl = workload();
    let reqs = repeated_requests(&wl);
    for split in [None, Some(SplitConfig::forced(0.5))] {
        let (bare, clock_bare) = run_requests(&wl, &reqs, ALL_OFF, split, None);
        let plan = FaultPlan::seeded(oracle::seed());
        assert!(plan.is_noop(), "a freshly seeded plan must inject nothing");
        let (armed, clock_armed) = run_requests(&wl, &reqs, ALL_OFF, split, Some(plan));

        assert_eq!(clock_bare, clock_armed, "virtual clocks must agree");
        for (a, b) in bare.iter().zip(&armed) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.steps, b.steps);
            assert!(!a.result_cache_hit && !b.result_cache_hit, "tier is off");
        }
    }
}

// ---------------------------------------------------------------- pin 2

#[test]
fn caches_on_keep_bits_identical_and_total_time_no_worse() {
    let wl = workload();
    let reqs = repeated_requests(&wl);

    let (off, _) = run_requests(&wl, &reqs, ALL_OFF, None, None);
    let (on, _) = run_requests(&wl, &reqs, ALL_ON, None, None);
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
    let wl = workload();
    let reqs = repeated_requests(&wl);
    // Deliberately tight budgets so every tier is forced to evict.
    const RES_BYTES: u64 = 512;
    const HOST_BYTES: u64 = 64 * 1024;
    const DEV_BYTES: u64 = 128 * 1024;

    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    griffin.set_result_cache(64, RES_BYTES);
    griffin.cpu.set_host_cache_budget(HOST_BYTES);
    griffin.gpu.set_cache_budget(DEV_BYTES);

    for (i, req) in reqs.iter().enumerate() {
        let out = griffin.run(&wl.corpus.index, req);
        oracle::assert_answer(&wl.corpus, req, &out, &format!("query {i}"));
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

// ---------------------------------------------------------------- pin 4

#[test]
fn concurrent_identical_queries_coalesce_in_the_serving_sim() {
    let wl = workload();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    engine.set_result_cache(64, 1 << 20);

    // Five copies of one query land in the same instant: one leader
    // runs, four coalesce onto it instead of stampeding.
    let req = QueryRequest::new(wl.queries[0].clone()).k(10);
    let requests: Vec<QueryRequest> = (0..5).map(|_| req.clone()).collect();
    let server = GriffinServer::new(ServerConfig::default());
    let planned = server.plan(&engine, &wl.corpus.index, &requests);
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
    let wl = workload();
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    engine.set_result_cache(64, 1 << 20);

    // Plan order seeds the cache: A runs first, so the *second* A is
    // planned with a cached answer available. B differs from A, keeping
    // the single-flight key from short-circuiting the overload below.
    let a = QueryRequest::new(wl.queries[0].clone()).k(10);
    let b = wl
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
    let planned = server.plan(&engine, &wl.corpus.index, &requests);
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
    let wl = workload();
    // A Zipf-weighted stream over a pool of 8 distinct queries: the
    // head queries recur heavily, the tail rarely.
    let mut rng = rand::rngs::StdRng::seed_from_u64(oracle::seed() ^ 0x21bf);
    let zipf = Zipf::new(wl.queries.len() as u64, 1.1);
    let stream: Vec<QueryRequest> = (0..120)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as usize - 1;
            QueryRequest::new(wl.queries[rank].clone()).k(10)
        })
        .collect();

    // LRU is a stack algorithm: a larger cache's contents always
    // include a smaller one's, so hits can only grow with entries.
    let mut last_hits = 0u64;
    for entries in [1usize, 2, 4, 8] {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
        griffin.set_result_cache(entries, 1 << 20);
        for req in &stream {
            let out = griffin.run(&wl.corpus.index, req);
            oracle::assert_answer(&wl.corpus, req, &out, &format!("{entries} entries"));
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

// ----------------------------------------------- cached and decoding walks

/// A chain whose lists come from the host tier for none, all, or only
/// the longest of its terms returns the same bits, and charges the same
/// search, merge and scoring work: a decoded copy only removes decode
/// charges. Fails if the skip walk reads a cached copy at the wrong
/// offset, or searches it differently from a decoded block.
#[test]
fn mixed_cached_uncached_terms_keep_bits_and_search_work() {
    use griffin_suite::griffin_cpu::WorkCounters;

    let wl = workload();
    let index = &wl.corpus.index;
    let cpu = CpuEngine::new();
    // The longest query gives the most intersect steps to mix over.
    let query = wl
        .queries
        .iter()
        .max_by_key(|q| q.len())
        .expect("non-empty log")
        .clone();
    assert!(query.len() >= 2, "need a multi-term query");
    let order = index.chain_order(&query);

    // Each step by the engine's own choice, then every step by skip
    // search, which reads a cached list through the one skip walk; and
    // the docID-only chain, whose provenance is where each match sits in
    // each list. The workload's tfs are drawn, so a tf gathered from the
    // wrong element shows in the score bits too.
    let run_once = || {
        let mut w = WorkCounters::default();
        let provenance = cpu.docid_chain(index, &order, &mut w).elem_idx;
        let steps = [false, true].map(|all_skip| {
            let mut w = WorkCounters::default();
            let mut inter = cpu.init_intermediate(index, order[0], &mut w);
            for &t in &order[1..] {
                inter = if all_skip {
                    let blocks = 0..index.list(t).docs.num_blocks();
                    cpu.intersect_step_range(index, &inter, t, blocks, &mut w)
                } else {
                    cpu.intersect_step(index, &inter, t, &mut w)
                };
            }
            let bits: Vec<u32> = inter.scores.iter().map(|s| s.to_bits()).collect();
            let search = [w.merge_steps, w.probes, w.skip_probes, w.scored, w.emitted];
            ((inter.docids, bits), search)
        });
        (provenance, steps)
    };

    // Pass 1 with the host tier off: every list is decoded. Both chains
    // hold the oracle's every match, and passes 2 and 3 must equal it.
    let cold = run_once();
    assert!(cold.1[1].1[1] > 0, "no skip search probed a block");
    let matches = oracle::eval(&wl.corpus, &QueryRequest::new(query.clone()).query);
    let want: (Vec<u32>, Vec<u32>) = matches.iter().map(|&(d, s)| (d, s.to_bits())).unzip();
    for (chain, _) in &cold.1 {
        assert_eq!(chain, &want, "a cold chain is not the oracle's");
    }

    // Pass 2: every list host-cached — decode is skipped entirely.
    cpu.set_host_cache_budget(1 << 26);
    for &t in &order {
        assert!(cpu.warm_host_cache(index, t));
    }
    let warm = run_once();
    assert_eq!(cold, warm, "host-cache hits changed the intersection");

    // Pass 3: mixed — only the longest list is cached at first; the rest
    // decode (and merges offer theirs to the tier).
    cpu.clear_host_cache();
    assert!(cpu.warm_host_cache(index, order[order.len() - 1]));
    let mixed = run_once();
    assert_eq!(cold, mixed, "a mixed cached/uncached pass changed bits");
}

// ---------------------------------------------------------------- pin 6

/// The naive reference for the shared LRU: resident keys in a `Vec`,
/// least recently used first, with the accounting kept by hand.
struct Model<K> {
    order: Vec<(K, u64)>,
    budget: Option<u64>,
    max_entries: usize,
    stats: CacheStats,
}

impl<K: Clone + PartialEq> Model<K> {
    fn resident(&self) -> u64 {
        self.order.iter().map(|&(_, bytes)| bytes).sum()
    }

    fn get(&mut self, key: &K) -> bool {
        if self.budget.is_none() {
            return false;
        }
        let Some(i) = self.order.iter().position(|(k, _)| k == key) else {
            self.stats.misses += 1;
            return false;
        };
        let entry = self.order.remove(i);
        self.order.push(entry);
        self.stats.hits += 1;
        true
    }

    /// Drops the oldest unpinned key until `bytes` more bytes and `slots`
    /// more entries fit.
    fn evict(&mut self, bytes: u64, slots: usize, pinned: &dyn Fn(&K) -> bool) -> Vec<K> {
        let mut victims = Vec::new();
        while self.resident() + bytes > self.budget.unwrap_or(0)
            || self.order.len() + slots > self.max_entries
        {
            let Some(i) = self.order.iter().position(|(k, _)| !pinned(k)) else {
                break;
            };
            victims.push(self.order.remove(i).0);
        }
        self.stats.evictions += victims.len() as u64;
        victims
    }

    fn refuses(&self, bytes: u64) -> bool {
        self.budget.is_none_or(|b| bytes > b) || self.max_entries == 0
    }

    fn insert(&mut self, key: K, bytes: u64, pinned: &dyn Fn(&K) -> bool) -> Vec<K> {
        if self.refuses(bytes) {
            return Vec::new();
        }
        self.order.retain(|(k, _)| *k != key);
        let victims = self.evict(bytes, 1, pinned);
        self.order.push((key, bytes));
        victims
    }

    fn set_budget(&mut self, budget: Option<u64>, pinned: &dyn Fn(&K) -> bool) -> Vec<K> {
        self.budget = budget;
        if budget.is_none() {
            self.order.clear();
        }
        self.evict(0, 0, pinned)
    }
}

/// An [`Lru`] and its [`Model`] driven in lockstep; every operation
/// asserts they agree. `key_of` names an evicted value's key.
struct Lockstep<K, V> {
    lru: Lru<K, V>,
    model: Model<K>,
    key_of: fn(&V) -> K,
}

impl<K: std::hash::Hash + Eq + Clone + std::fmt::Debug, V> Lockstep<K, V> {
    fn new(lru: Lru<K, V>, budget: Option<u64>, max_entries: usize, key_of: fn(&V) -> K) -> Self {
        let model = Model {
            order: Vec::new(),
            budget,
            max_entries,
            stats: CacheStats::default(),
        };
        Lockstep { lru, model, key_of }
    }

    fn agree(&self, what: &str) {
        let stats = CacheStats {
            bytes_resident: self.model.resident(),
            ..self.model.stats
        };
        assert_eq!(self.lru.stats(), stats, "stats after {what}");
        assert_eq!(
            self.lru.len(),
            self.model.order.len(),
            "entries after {what}"
        );
        for (k, _) in &self.model.order {
            assert!(self.lru.contains(k), "{k:?} missing after {what}");
        }
    }

    fn victims(&self, evicted: Vec<V>, expect: Vec<K>, what: &str) {
        let got: Vec<K> = evicted.iter().map(self.key_of).collect();
        assert_eq!(got, expect, "victims of {what}");
        self.agree(what);
    }

    /// After an insert or a budget change the LRU is over budget only if
    /// everything it could have evicted is pinned (`spare` is the entry
    /// just inserted, which the insert itself never evicts).
    fn bounded(&self, spare: Option<&K>, pinned: &dyn Fn(&K) -> bool, what: &str) {
        if self.model.resident() > self.model.budget.unwrap_or(0) {
            let evictable = self
                .model
                .order
                .iter()
                .any(|(k, _)| Some(k) != spare && !pinned(k));
            assert!(
                !evictable,
                "over budget with an unpinned entry after {what}"
            );
        }
    }

    fn get(&mut self, key: &K) -> Option<&V> {
        let hit = self.model.get(key);
        assert_eq!(self.lru.get(key).is_some(), hit, "get {key:?}");
        self.agree("get");
        self.lru.peek(key)
    }

    fn insert(&mut self, key: K, value: V, bytes: u64, pinned: &dyn Fn(&K) -> bool) {
        let what = format!("insert {key:?} ({bytes} B)");
        let refused = self.model.refuses(bytes);
        let expect = self.model.insert(key.clone(), bytes, pinned);
        let evicted = self.lru.insert(key.clone(), value, bytes);
        self.victims(evicted, expect, &what);
        if !refused {
            self.bounded(Some(&key), pinned, &what);
        }
    }

    fn set_budget(&mut self, budget: Option<u64>, pinned: &dyn Fn(&K) -> bool) {
        let what = format!("set_budget {budget:?}");
        let expect = self.model.set_budget(budget, pinned);
        let evicted = self.lru.set_budget(budget);
        self.victims(evicted, expect, &what);
        self.bounded(None, pinned, &what);
    }
}

#[test]
fn lru_agrees_with_a_naive_model_on_seeded_op_sequences() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(oracle::seed() ^ 0x1A0);
    // The model's view of the pins: the keys of the values held outside.
    let pinned_by = |held: &[Rc<u32>]| {
        let keys: Vec<u32> = held.iter().map(|p| **p).collect();
        move |k: &u32| keys.contains(k)
    };
    for _ in 0..300 {
        // The device tier's shape: a value is pinned while anyone else
        // holds it. The entry bound is the result tier's.
        let budget = [0, 100, 400, 1_000][rng.gen_range(0..4usize)];
        let max_entries = [usize::MAX, usize::MAX, 1, 3, 6][rng.gen_range(0..5usize)];
        let lru = Lru::new(budget)
            .with_max_entries(max_entries)
            .with_pins(|v: &Rc<u32>| Rc::strong_count(v) > 1);
        let mut h = Lockstep::new(lru, Some(budget), max_entries, |v: &Rc<u32>| **v);
        let mut held: Vec<Rc<u32>> = Vec::new();
        for _ in 0..80 {
            let key = rng.gen_range(0..10u32);
            match rng.gen_range(0..100u32) {
                0..=29 => {
                    let value = h.get(&key).cloned();
                    assert_eq!(
                        value.map(|v| *v),
                        h.model.order.iter().any(|e| e.0 == key).then_some(key)
                    );
                }
                30..=37 => {
                    let before = h.lru.stats();
                    let expect = h.model.order.iter().any(|e| e.0 == key);
                    assert_eq!(h.lru.peek(&key).is_some(), expect, "peek {key}");
                    assert_eq!(h.lru.contains(&key), expect, "contains {key}");
                    assert_eq!(h.lru.stats(), before, "peek counted");
                }
                38..=69 => {
                    // Fresh, re-inserted or (one in eight) oversized.
                    held.retain(|p| **p != key);
                    let bytes = if rng.gen_range(0..8u32) == 0 {
                        budget + rng.gen_range(1..100u64)
                    } else {
                        rng.gen_range(1..250u64)
                    };
                    h.insert(key, Rc::new(key), bytes, &pinned_by(&held));
                }
                70..=79 => {
                    if let Some(v) = h.lru.peek(&key) {
                        held.push(Rc::clone(v));
                    }
                }
                80..=87 => held.retain(|p| **p != key),
                88..=95 => {
                    let shrink = [None, Some(0), Some(budget / 2), Some(budget)];
                    h.set_budget(shrink[rng.gen_range(0..4usize)], &pinned_by(&held));
                }
                _ => {
                    h.lru.clear();
                    h.model.order.clear();
                    h.agree("clear");
                }
            }
        }
    }

    // The result tier's own type and byte formula, both bounds binding:
    // four entries and 1 000 bytes.
    let key_of = |r: &CachedResult| format!("q{}", r.time.as_nanos() / 100);
    let mut h = Lockstep::new(
        ResultCache::new(1_000).with_max_entries(4),
        Some(1_000),
        4,
        key_of,
    );
    for i in 0..64u32 {
        let result = CachedResult {
            topk: (0..(i % 7)).map(|d| (d, d as f32)).collect(),
            time: VirtualNanos::from_nanos(u64::from(i) * 100),
        };
        let key = format!("q{i}");
        let bytes = result.bytes(&key);
        h.insert(key, result, bytes, &|_| false);
        assert!(h.lru.len() <= 4, "entry bound violated at insert {i}");
        assert!(
            h.lru.stats().bytes_resident <= 1_000,
            "byte bound violated at insert {i}"
        );
    }
    assert!(h.lru.stats().evictions > 0);
}

/// `exp_cache`'s Zipf stream at smoke size (same seed, index and log):
/// 40 Hybrid requests over 24 distinct queries.
fn exp_cache_stream() -> (InvertedIndex, Vec<QueryRequest>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAC4E);
    let spec = ListIndexSpec {
        num_terms: 48,
        num_docs: 2_000_000,
        max_list_len: 600_000,
        ..Default::default()
    };
    let (index, _) = build_list_index(&spec, &mut rng);
    let distinct = QueryLogSpec {
        num_queries: 24,
        ..Default::default()
    }
    .generate(&index, &mut rng);
    let zipf = Zipf::new(24, 1.1);
    let stream = (0..40)
        .map(|_| {
            let q = &distinct[zipf.sample(&mut rng) as usize - 1];
            QueryRequest::new(q.clone()).k(10).mode(ExecMode::Hybrid)
        })
        .collect();
    (index, stream)
}

#[test]
fn tier_counts_over_the_exp_cache_stream_match_the_golden() {
    // Per configuration: (result entries, result bytes, host bytes,
    // device bytes, passes) and then hits / misses / evictions /
    // bytes_resident of the result, host and device tiers, and the
    // device's prefetches issued / consumed. The first two rows are
    // `exp_cache`'s warm run and its 4-entry sweep point; the third is
    // tight enough that every tier evicts.
    type Golden = ((usize, u64, u64, u64, usize), [[u64; 4]; 3], [u64; 2]);
    const GOLDEN: [Golden; 3] = [
        (
            (256, 16 << 20, 64 << 20, 64 << 20, 2),
            [
                [67, 13, 0, 2_687],
                [0, 6, 0, 253_232],
                [10, 19, 0, 4_106_076],
            ],
            [18, 18],
        ),
        (
            (4, 16 << 20, 64 << 20, 64 << 20, 1),
            [
                [22, 18, 14, 835],
                [2, 6, 0, 253_232],
                [21, 19, 0, 4_106_076],
            ],
            [24, 24],
        ),
        (
            (8, 600, 220 << 10, 1 << 20, 1),
            [[12, 28, 26, 424], [3, 7, 2, 225_100], [4, 60, 57, 962_988]],
            [38, 38],
        ),
    ];
    let (index, stream) = exp_cache_stream();
    let k20 = DeviceConfig {
        trace_sample_stride: 16,
        ..DeviceConfig::tesla_k20()
    };
    let row = |s: CacheStats| [s.hits, s.misses, s.evictions, s.bytes_resident];
    for ((entries, res_bytes, host_bytes, dev_bytes, passes), tiers, prefetch) in GOLDEN {
        let gpu = Gpu::new(k20.clone());
        let griffin = Griffin::new(&gpu, index.meta(), index.block_len());
        griffin.set_result_cache(entries, res_bytes);
        griffin.cpu.set_host_cache_budget(host_bytes);
        griffin.gpu.set_cache_budget(dev_bytes);
        for _ in 0..passes {
            for req in &stream {
                griffin.run(&index, req);
            }
        }
        let dev = griffin.gpu.cache_stats();
        let got = [
            row(griffin.result_cache_stats().expect("tier enabled")),
            row(griffin.cpu.host_cache_stats()),
            row(dev.lru),
        ];
        assert_eq!(got, tiers, "result / host / device at {entries} entries");
        assert_eq!([dev.prefetch_issued, dev.prefetch_consumed], prefetch);
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
    }
}
