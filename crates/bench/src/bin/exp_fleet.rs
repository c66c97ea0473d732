//! **Fleet** — the sharded scatter–gather coordinator under load and
//! faults.
//!
//! The Fig. 15 Zipf query mix arrives open-loop at ~1.2× the bottleneck
//! shard's capacity — in bounded 50-query bursts with drain pauses, so
//! the worst-case backlog a query faces is scale-invariant — while the
//! fleet (docID-range shards × replicas, one engine + breaker per
//! replica) absorbs four regimes:
//!
//! * **fault-free** — every answer must be bit-exact with the unsharded
//!   CPU ground truth at coverage 1.0;
//! * **1% device faults** — retries, failover, and the CPU-only
//!   degraded lane keep every query answered with mean coverage ≥ 99%;
//! * **sticky shard loss** — both replicas of shard 0 die mid-run: every
//!   query still gets an answer, with coverage accounting switching to
//!   (S−1)/S and zero silent drops;
//! * **straggler stalls** — rare device faults whose recovery backoff
//!   stalls a request for many milliseconds on an otherwise-healthy
//!   replica; the same trace runs with hedged requests on and off, and
//!   hedging must cut the served p99 (the trace is floored at 40
//!   queries even under `--smoke` so the comparison has a sample to
//!   stand on).
//!
//! `GRIFFIN_FAULT_SEED` (default 202) picks fault schedules;
//! `GRIFFIN_SCALE` (or `--smoke`) scales the query count.

use griffin::{ExecMode, Griffin, QueryRequest, ShardOutcome, ShardedIndex};
use griffin_bench::report::{ms, Table};
use griffin_bench::setup::{k20, scaled};
use griffin_bench::Artifacts;
use griffin_gpu_sim::{FaultPlan, Gpu, VirtualNanos};
use griffin_index::TermId;
use griffin_server::{
    ArrivingQuery, BreakerConfig, Fleet, FleetConfig, FleetDevices, FleetReport, HedgeConfig,
};
use griffin_workload::{build_list_index, percentile, ListIndexSpec, QueryLogSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const REPLICAS: usize = 2;

fn fault_seed() -> u64 {
    std::env::var("GRIFFIN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(202)
}

/// Per-replica scheduler tuning that keeps the (smaller) shard slices
/// on the device often enough to exercise the GPU lanes.
fn tune(fleet: &mut Fleet<'_>) {
    fleet.tune(|g| {
        g.scheduler.min_gpu_work = 32 * 1024;
        g.scheduler.ratio_threshold = 1024;
        g.scheduler.hysteresis = 1.0;
    });
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        // The breaker knobs ride through FleetConfig so regimes can
        // sweep them; a shorter cooldown than the serving default lets
        // canaries re-probe within a bench-sized run.
        breaker: BreakerConfig {
            cooldown: VirtualNanos::from_millis(2),
            canary_successes: 2,
            ..BreakerConfig::default()
        },
        hedge: HedgeConfig {
            min_samples: 16,
            ..HedgeConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn requests(queries: &[Vec<TermId>], deadline: Option<VirtualNanos>) -> Vec<QueryRequest> {
    queries
        .iter()
        .map(|q| {
            let mut r = QueryRequest::new(q.clone()).k(10).mode(ExecMode::Hybrid);
            r.deadline = deadline;
            r
        })
        .collect()
}

/// Poisson arrivals with mean inter-arrival `mean_gap`.
fn arrivals(reqs: &[QueryRequest], mean_gap: VirtualNanos, rng: &mut StdRng) -> Vec<ArrivingQuery> {
    burst_arrivals(reqs, mean_gap, usize::MAX, VirtualNanos::ZERO, rng)
}

/// Poisson arrivals delivered in bursts of `wave` queries separated by
/// a `drain` pause. A queue offered sustained load above capacity has
/// no stationary backlog — its wait grows linearly with trace length,
/// so a fixed per-query deadline would fail at some scale no matter
/// where it is set. Bounded overload excursions keep the worst-case
/// backlog (and therefore the deadline-pressure a query can see)
/// independent of how many queries the bench replays.
fn burst_arrivals(
    reqs: &[QueryRequest],
    mean_gap: VirtualNanos,
    wave: usize,
    drain: VirtualNanos,
    rng: &mut StdRng,
) -> Vec<ArrivingQuery> {
    let mut t = 0.0f64;
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            if i > 0 && i % wave == 0 {
                t += drain.as_nanos() as f64;
            }
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() * mean_gap.as_nanos() as f64;
            ArrivingQuery {
                request: r.clone(),
                arrival: VirtualNanos::from_nanos_f64(t),
            }
        })
        .collect()
}

/// Unloaded mean answer latency of the bottleneck shard, measured on a
/// throwaway fault-free fleet: the capacity unit the offered load is
/// calibrated against.
fn calibrate(sharded: &ShardedIndex, queries: &[Vec<TermId>]) -> VirtualNanos {
    let devices = FleetDevices::new(SHARDS, REPLICAS, &k20());
    let mut fleet = Fleet::new(&devices, sharded, fleet_config());
    tune(&mut fleet);
    let sample = queries.len().min(32);
    let mut per_shard = [0u64; SHARDS];
    for q in &queries[..sample] {
        let out = fleet.run_query(&QueryRequest::new(q.clone()).k(10).mode(ExecMode::Hybrid));
        for st in &out.fleet.expect("fleet answer").shards {
            per_shard[st.shard] += st.latency.as_nanos();
        }
    }
    fleet.shutdown();
    let bottleneck = per_shard.iter().max().copied().unwrap_or(1);
    VirtualNanos::from_nanos((bottleneck / sample as u64).max(1))
}

struct RegimeResult {
    name: &'static str,
    answered: usize,
    total: usize,
    exact: usize,
    coverage: f64,
    p50: VirtualNanos,
    p99: VirtualNanos,
    hedges: u64,
    hedge_wins: u64,
    degraded_cpu: u64,
    missing: u64,
    dropped: u64,
}

fn summarize(
    name: &'static str,
    report: &FleetReport,
    truth: &[Vec<u32>],
    fleet: &Fleet<'_>,
) -> RegimeResult {
    let exact = report
        .queries
        .iter()
        .zip(truth)
        .filter(|(q, t)| {
            q.output.topk.len() == t.len()
                && q.output
                    .topk
                    .iter()
                    .zip(t.iter())
                    .all(|(&(d, _), &e)| d == e)
        })
        .count();
    let times = report.sorted_latencies();
    let stats = fleet.stats();
    RegimeResult {
        name,
        answered: report.queries.len(),
        total: truth.len(),
        exact,
        coverage: report.mean_coverage(),
        p50: percentile(&times, 50.0),
        p99: percentile(&times, 99.0),
        hedges: stats.hedges,
        hedge_wins: stats.hedge_wins,
        degraded_cpu: stats.degraded_cpu,
        missing: stats.missing_shards,
        dropped: stats.dropped_shards,
    }
}

fn main() {
    // `run_all` forwards --smoke; honor it standalone too.
    if std::env::args().any(|a| a == "--smoke") && std::env::var("GRIFFIN_SCALE").is_err() {
        std::env::set_var("GRIFFIN_SCALE", "0.1");
    }
    let artifacts = Artifacts::from_args();
    let telemetry = artifacts.telemetry();
    let seed = fault_seed();
    let mut rng = StdRng::seed_from_u64(42);
    let spec = ListIndexSpec {
        num_terms: 48,
        num_docs: 2_000_000,
        max_list_len: 800_000,
        ..Default::default()
    };
    eprintln!("building index and {SHARDS}-way shard views...");
    let (index, _) = build_list_index(&spec, &mut rng);
    let sharded = ShardedIndex::build(&index, SHARDS);
    let queries = QueryLogSpec {
        num_queries: scaled(200),
        ..Default::default()
    }
    .generate(&index, &mut rng);

    // Fault-free CPU-only ground truth on the unsharded index.
    let gpu = Gpu::new(k20());
    let single = Griffin::new(&gpu, index.meta(), index.block_len());
    let truth: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            single
                .run(
                    &index,
                    &QueryRequest::new(q.clone()).k(10).mode(ExecMode::CpuOnly),
                )
                .topk
                .iter()
                .map(|&(d, _)| d)
                .collect()
        })
        .collect();

    let unit = calibrate(&sharded, &queries);
    // Offered load: bottleneck-shard utilization ≈ 1.2 (each query
    // occupies one of the shard's `REPLICAS` lanes for ~`unit`).
    let overload_gap =
        VirtualNanos::from_nanos_f64(unit.as_nanos() as f64 / (1.2 * REPLICAS as f64));
    let deadline = VirtualNanos::from_nanos(unit.as_nanos() * 50);
    let drain = VirtualNanos::from_nanos(unit.as_nanos() * 40);
    eprintln!(
        "running {} queries per regime (unit {}, fault seed {seed})...",
        queries.len(),
        ms(unit),
    );

    let reqs = requests(&queries, Some(deadline));
    let mut results: Vec<RegimeResult> = Vec::new();

    // ---- Regime 1: fault-free at 1.2× ------------------------------
    {
        let trace = burst_arrivals(
            &reqs,
            overload_gap,
            50,
            drain,
            &mut StdRng::seed_from_u64(7),
        );
        let devices = FleetDevices::new(SHARDS, REPLICAS, &k20());
        let mut fleet = Fleet::new(&devices, &sharded, fleet_config());
        tune(&mut fleet);
        let report = fleet.serve(&trace);
        let r = summarize("fault-free", &report, &truth, &fleet);
        assert_eq!(r.answered, r.total, "every query must get a response");
        assert_eq!(
            r.exact, r.total,
            "fault-free fleet answers must be bit-exact"
        );
        assert_eq!(r.missing, 0);
        fleet.shutdown();
        assert_eq!(devices.mem_in_use(), 0, "fleet leaked device memory");
        results.push(r);
    }

    // ---- Regime 2: 1% device faults at 1.2× ------------------------
    {
        let trace = burst_arrivals(
            &reqs,
            overload_gap,
            50,
            drain,
            &mut StdRng::seed_from_u64(7),
        );
        let devices = FleetDevices::new(SHARDS, REPLICAS, &k20());
        for (i, gpu) in devices.iter().enumerate() {
            gpu.set_fault_plan(Some(
                FaultPlan::seeded(seed.wrapping_add(i as u64)).with_fault_rate(0.01),
            ));
        }
        let mut fleet = Fleet::new(&devices, &sharded, fleet_config());
        tune(&mut fleet);
        let report = fleet.serve(&trace);
        let r = summarize("1% faults", &report, &truth, &fleet);
        assert_eq!(r.answered, r.total, "every query must get a response");
        assert!(
            r.coverage >= 0.99,
            "failover + CPU lane must hold coverage ≥ 99% (got {:.4})",
            r.coverage
        );
        fleet.shutdown();
        results.push(r);
    }

    // ---- Regime 3: sticky shard loss mid-run -----------------------
    {
        let trace = burst_arrivals(
            &reqs,
            overload_gap,
            50,
            drain,
            &mut StdRng::seed_from_u64(7),
        );
        let half = trace.len() / 2;
        let devices = FleetDevices::new(SHARDS, REPLICAS, &k20());
        let mut fleet = Fleet::new(&devices, &sharded, fleet_config());
        tune(&mut fleet);
        let before = fleet.serve(&trace[..half]);
        for r in 0..REPLICAS {
            fleet.kill_replica(0, r);
        }
        let after = fleet.serve(&trace[half..]);
        let lost = sharded.range(0);
        let expected_cov = (SHARDS - 1) as f64 / SHARDS as f64;
        for q in &after.queries {
            let info = q.output.fleet.as_ref().expect("fleet answer");
            assert_eq!(
                info.coverage, expected_cov,
                "lost-shard coverage accounting"
            );
            assert_eq!(info.shards[0].outcome, ShardOutcome::Missing);
            assert!(
                q.output.topk.iter().all(|&(d, _)| !lost.contains(&d)),
                "a lost shard's docs cannot appear"
            );
        }
        let mut report = before;
        report.queries.extend(after.queries);
        let r = summarize("shard loss", &report, &truth, &fleet);
        assert_eq!(r.answered, r.total, "shard loss must not drop responses");
        fleet.shutdown();
        results.push(r);
    }

    // ---- Regime 4: straggler stalls, hedging on vs off -------------
    // The tail-at-scale setting (Dean & Barroso): identical healthy
    // replicas, light load (~0.25 utilization), and rare per-op device
    // faults (2e-4) whose recovery backoff — 16 ms, roughly eight times
    // the ~2 ms request cost — stalls whichever lane they strike.
    // Post-dispatch stalls are exactly what hedging rescues: the twin's
    // FIFO lane is almost surely clean, so re-issuing the overdue
    // request bounds the damage near the hedge deadline. Permanent
    // slowness is deliberately absent (that is the breaker's job, and
    // duplicating against a *persistently* slow replica only doubles
    // load); the trace is homogeneous — three mid-band terms per query —
    // so query-cost variance cannot masquerade as straggling; and the
    // breaker is held open-proof (threshold > 1.0) to isolate hedging.
    let band: Vec<TermId> = (0..index.num_terms() as u32)
        .map(TermId)
        .filter(|&t| (100_000..500_000).contains(&index.doc_freq(t)))
        .collect();
    // The p99-vs-p99 comparison needs a minimum sample size to be
    // meaningful — at 20 queries the p99 *is* one query — so this
    // regime floors its trace at 40 queries even under --smoke.
    let mut mid_rng = StdRng::seed_from_u64(4242);
    let mid_queries: Vec<Vec<TermId>> = (0..queries.len().max(40))
        .map(|_| {
            let mut q = Vec::new();
            while q.len() < 3 {
                let t = band[mid_rng.gen_range(0..band.len())];
                if !q.contains(&t) {
                    q.push(t);
                }
            }
            q
        })
        .collect();
    let mid_truth: Vec<Vec<u32>> = mid_queries
        .iter()
        .map(|q| {
            single
                .run(
                    &index,
                    &QueryRequest::new(q.clone()).k(10).mode(ExecMode::CpuOnly),
                )
                .topk
                .iter()
                .map(|&(d, _)| d)
                .collect()
        })
        .collect();
    let mid_unit = calibrate(&sharded, &mid_queries);
    let mid_gap =
        VirtualNanos::from_nanos_f64(mid_unit.as_nanos() as f64 / (0.25 * REPLICAS as f64));
    let mid_reqs = requests(
        &mid_queries,
        Some(VirtualNanos::from_nanos(mid_unit.as_nanos() * 50)),
    );
    let straggler = |hedge: bool| -> (RegimeResult, f64) {
        let trace = arrivals(&mid_reqs, mid_gap, &mut StdRng::seed_from_u64(7));
        let devices = FleetDevices::new(SHARDS, REPLICAS, &k20());
        for (i, gpu) in devices.iter().enumerate() {
            gpu.set_fault_plan(Some(
                FaultPlan::seeded(seed.wrapping_add(i as u64)).with_fault_rate(2e-4),
            ));
        }
        let mut config = fleet_config();
        config.breaker.failure_threshold = 1.1;
        config.hedge = HedgeConfig {
            enabled: hedge,
            quantile: 0.9,
            min_samples: 16,
        };
        config.budget.per_query = SHARDS as u32;
        config.budget.burst = 16.0;
        config.budget.refill_per_query = 1.0;
        let mut fleet = Fleet::new(&devices, &sharded, config);
        tune(&mut fleet);
        fleet.tune(|g| {
            g.recovery.initial_backoff = VirtualNanos::from_micros(16_000);
        });
        let report = fleet.serve(&trace);
        let name = if hedge {
            "straggler+hedge"
        } else {
            "straggler"
        };
        let r = summarize(name, &report, &mid_truth, &fleet);
        assert_eq!(r.answered, r.total, "every query must get a response");
        let stats = *fleet.stats();
        assert_eq!(
            stats.busy_total,
            stats.service_total - stats.hedge_cancelled_saved,
            "hedge cancellation accounting diverged"
        );
        let win_rate = if stats.hedges == 0 {
            0.0
        } else {
            stats.hedge_wins as f64 / stats.hedges as f64
        };
        fleet.shutdown();
        (r, win_rate)
    };
    let (no_hedge, _) = straggler(false);
    let (with_hedge, win_rate) = straggler(true);
    assert!(
        with_hedge.hedges > 0,
        "straggler regime must trigger hedges"
    );
    assert!(
        with_hedge.p99 < no_hedge.p99,
        "hedging must cut the straggler p99 ({} vs {})",
        ms(with_hedge.p99),
        ms(no_hedge.p99)
    );

    let hedge_p99 = with_hedge.p99;
    let nohedge_p99 = no_hedge.p99;
    let fault_coverage = results[1].coverage;
    results.push(no_hedge);
    results.push(with_hedge);

    let mut t = Table::new(
        "Fleet: scatter–gather under overload, faults, loss, and stragglers (virtual ms)",
        &[
            "regime",
            "answered%",
            "exact",
            "coverage",
            "p50",
            "p99",
            "hedges",
            "wins",
            "cpu-lane",
            "missing",
            "dropped",
        ],
    );
    for r in &results {
        t.row(&[
            r.name.to_string(),
            format!("{:.1}", 100.0 * r.answered as f64 / r.total as f64),
            format!("{}/{}", r.exact, r.total),
            format!("{:.4}", r.coverage),
            ms(r.p50),
            ms(r.p99),
            r.hedges.to_string(),
            r.hedge_wins.to_string(),
            r.degraded_cpu.to_string(),
            r.missing.to_string(),
            r.dropped.to_string(),
        ]);
        telemetry.counter_add(
            &format!("griffin_fleet_exp_answered_total{{regime=\"{}\"}}", r.name),
            r.answered as u64,
        );
    }
    t.print();
    artifacts.write_table(&t);
    artifacts.snapshot_duration("fleet_hedge_p99_ns", hedge_p99);
    artifacts.snapshot_duration("fleet_nohedge_p99_ns", nohedge_p99);
    artifacts.snapshot_metric(
        "fleet_hedge_p99_speedup",
        nohedge_p99.as_nanos() as f64 / hedge_p99.as_nanos().max(1) as f64,
    );
    artifacts.snapshot_metric("fleet_hedge_win_rate", win_rate);
    artifacts.snapshot_metric("fleet_fault_coverage", fault_coverage);
    artifacts.write_snapshot("exp_fleet");
    println!("\n(the shape: sharding is invisible when healthy — bit-exact merges at");
    println!(" coverage 1.0; faults cost latency and an occasional dropped shard,");
    println!(" never a silent one; losing a whole shard degrades coverage exactly by");
    println!(" 1/S; and hedged requests claw back the straggler tail without");
    println!(" double-billing device time)");

    artifacts.write_metrics(&telemetry);
}
