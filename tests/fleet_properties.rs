//! Fleet scatter–gather invariants.
//!
//! Four pins hold the fleet layer together:
//!
//! 1. **Sharding is invisible** — for every (shards, replicas, k, mode)
//!    combination, including forced co-execution splits and
//!    armed-but-no-op fault plans on every device, the merged top-k is
//!    bit-identical to the unsharded answer.
//! 2. **One replica is expendable** — killing any single replica before
//!    any query leaves every answer exact at coverage 1.0; failover is
//!    a latency event, never a results event.
//! 3. **Hedges are never double-billed** — across any regime,
//!    `busy_total == service_total − hedge_cancelled_saved`, and with
//!    hedging disabled nothing is ever saved.
//! 4. **Budget exhaustion degrades, never errors** — shrinking the
//!    retry budget under deadline pressure only moves coverage, with
//!    every shard still explicitly accounted in every answer.

use griffin_server::{
    ArrivingQuery, Fleet, FleetConfig, FleetDevices, HedgeConfig, RetryBudgetConfig,
};
use griffin_suite::griffin::{FleetInfo, QueryRequest, ShardOutcome, ShardedIndex, SplitConfig};
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;

fn workload(num_docs: u32, max_list_len: usize, num_queries: usize) -> Workload {
    oracle::workload(num_docs, max_list_len, num_queries, 11)
}

/// Each query as a request, with the oracle's answer to it.
fn requests(wl: &Workload, k: usize, mode: ExecMode) -> Vec<(QueryRequest, Vec<(u32, u32)>)> {
    wl.queries
        .iter()
        .map(|q| {
            let req = QueryRequest::new(q.clone()).k(k).mode(mode);
            let want = oracle::expect(&wl.corpus, &req);
            (req, want)
        })
        .collect()
}

fn assert_accounting(fleet: &Fleet<'_>, ctx: &str) {
    let stats = fleet.stats();
    assert_eq!(
        stats.busy_total,
        stats.service_total - stats.hedge_cancelled_saved,
        "hedge cancellation accounting diverged ({ctx})"
    );
}

fn assert_statuses_complete(info: &FleetInfo, shards: usize, ctx: &str) {
    assert_eq!(
        info.shards.len(),
        shards,
        "a shard went unaccounted ({ctx})"
    );
    for (s, st) in info.shards.iter().enumerate() {
        assert_eq!(st.shard, s, "shard statuses must be in shard order ({ctx})");
    }
}

// ---------------------------------------------------------------------
// Pin 1: sharding is invisible.
// ---------------------------------------------------------------------

#[test]
fn merged_topk_is_bit_exact_across_the_grid() {
    let wl = workload(200_000, 40_000, 10);
    let seed = oracle::seed();
    for &shards in &[1usize, 2, 3, 5] {
        let sharded = ShardedIndex::build(&wl.corpus.index, shards);
        for &replicas in &[1usize, 2] {
            for &(k, mode) in &[
                (1usize, ExecMode::Hybrid),
                (10, ExecMode::Hybrid),
                (10, ExecMode::CpuOnly),
                (100, ExecMode::GpuOnly),
            ] {
                let devices = FleetDevices::new(shards, replicas, &DeviceConfig::test_tiny());
                let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
                for gpu in devices.iter() {
                    // Armed but no-op: the RNG is consulted, nothing fires.
                    let plan = FaultPlan::seeded(seed);
                    assert!(plan.is_noop());
                    gpu.set_fault_plan(Some(plan));
                }
                for (req, want) in requests(&wl, k, mode) {
                    let out = fleet.run_query(&req);
                    assert_eq!(
                        oracle::bits(&out.topk),
                        want,
                        "fleet answer diverged (shards={shards} replicas={replicas} k={k} mode={mode:?})"
                    );
                    let info = out.fleet.expect("fleet answers carry coverage");
                    assert_eq!(info.coverage, 1.0);
                    assert_statuses_complete(&info, shards, "grid");
                }
                assert_accounting(&fleet, "grid");
            }
        }
    }
}

#[test]
fn forced_splits_do_not_perturb_the_merge() {
    let wl = workload(400_000, 80_000, 8);
    let sharded = ShardedIndex::build(&wl.corpus.index, 3);
    let reqs = requests(&wl, 10, ExecMode::Hybrid);
    for &fraction in &[0.0, 0.35, 1.0] {
        let devices = FleetDevices::new(3, 2, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
        fleet.tune(|g| g.scheduler.split = Some(SplitConfig::forced(fraction)));
        for (req, want) in &reqs {
            let out = fleet.run_query(req);
            assert_eq!(
                &oracle::bits(&out.topk),
                want,
                "split fraction {fraction} changed results"
            );
            assert_eq!(out.fleet.expect("coverage").coverage, 1.0);
        }
        assert_accounting(&fleet, "forced splits");
    }
}

// ---------------------------------------------------------------------
// Pin 2: one replica is expendable.
// ---------------------------------------------------------------------

#[test]
fn killing_any_single_replica_changes_no_docids() {
    let wl = workload(200_000, 40_000, 6);
    let shards = 3;
    let replicas = 2;
    let sharded = ShardedIndex::build(&wl.corpus.index, shards);
    let reqs = requests(&wl, 10, ExecMode::Hybrid);

    // Kill each (shard, replica) in turn at each query index: the
    // survivor must carry the shard with no visible change.
    for victim_s in 0..shards {
        for victim_r in 0..replicas {
            for kill_at in 0..reqs.len() {
                let devices = FleetDevices::new(shards, replicas, &DeviceConfig::test_tiny());
                let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
                for (i, (req, want)) in reqs.iter().enumerate() {
                    if i == kill_at {
                        fleet.kill_replica(victim_s, victim_r);
                    }
                    let out = fleet.run_query(req);
                    assert_eq!(
                        &oracle::bits(&out.topk),
                        want,
                        "kill ({victim_s},{victim_r}) at query {kill_at} changed results"
                    );
                    let info = out.fleet.expect("coverage");
                    assert_eq!(
                        info.coverage, 1.0,
                        "one dead replica must not cost coverage"
                    );
                    assert!(info.complete());
                }
                assert_accounting(&fleet, "single kill");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pin 3: hedges are never double-billed.
// ---------------------------------------------------------------------

#[test]
fn hedge_accounting_never_double_counts_device_time() {
    let wl = workload(400_000, 80_000, 64);
    let sharded = ShardedIndex::build(&wl.corpus.index, 2);
    let seed = oracle::seed();
    let arrivals: Vec<ArrivingQuery> = wl
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| ArrivingQuery {
            request: QueryRequest::new(q.clone()).k(10).mode(ExecMode::GpuOnly),
            arrival: VirtualNanos::from_nanos(i as u64 * 50_000),
        })
        .collect();

    let run = |hedge_enabled: bool| {
        let devices = FleetDevices::new(2, 2, &DeviceConfig::test_tiny());
        let config = FleetConfig {
            hedge: HedgeConfig {
                enabled: hedge_enabled,
                min_samples: 8,
                ..HedgeConfig::default()
            },
            budget: RetryBudgetConfig {
                per_query: 2,
                burst: 16.0,
                refill_per_query: 1.0,
            },
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&devices, &sharded, config);
        for s in 0..2 {
            // Replica 0 of each shard is the straggler: fault recovery
            // inflates its service times so hedges have something to win.
            devices
                .device(s, 0)
                .set_fault_plan(Some(FaultPlan::seeded(seed).with_fault_rate(0.4)));
        }
        let report = fleet.serve(&arrivals);
        let stats = *fleet.stats();
        assert_accounting(&fleet, "hedge regime");
        for (q, a) in report.queries.iter().zip(&arrivals) {
            let info = q.output.fleet.as_ref().expect("coverage");
            assert_eq!(info.coverage, 1.0, "hedging never drops a shard");
            oracle::assert_answer(&wl.corpus, &a.request, &q.output, "hedge regime");
        }
        stats
    };

    let hedged = run(true);
    let unhedged = run(false);
    assert_eq!(unhedged.hedges, 0);
    assert_eq!(
        unhedged.hedge_cancelled_saved,
        VirtualNanos::ZERO,
        "nothing to cancel with hedging off"
    );
    assert!(hedged.hedge_wins <= hedged.hedges);
    // The regime is built so hedging actually engages; a vacuous pass
    // here would mean the invariant was never exercised.
    assert!(hedged.hedges > 0, "straggler regime must trigger hedges");
}

// ---------------------------------------------------------------------
// Pin 4: budget exhaustion degrades, never errors.
// ---------------------------------------------------------------------

#[test]
fn retry_budget_exhaustion_degrades_coverage_not_correctness() {
    let wl = workload(400_000, 80_000, 48);
    let shards = 2;
    let sharded = ShardedIndex::build(&wl.corpus.index, shards);
    let seed = oracle::seed();
    let request = |q: &Vec<TermId>| QueryRequest::new(q.clone()).k(10).mode(ExecMode::GpuOnly);

    // Deadline and spacing follow the fixture's own unloaded answer times
    // on a healthy fleet, so the regime stays the one meant here however
    // fast the engines are. Arrivals come twice as fast as one replica per
    // shard answers them: both lanes of a shard are needed, and a retry
    // storm on the faulty one queues work behind it. The deadline is four
    // times the slowest healthy answer: queued-behind-a-straggler misses
    // it, the same request hedged to the twin in time does not. (Fixed at
    // 2 ms and 100 us, the fleet was once so overloaded that *no* shard
    // ever made the deadline — coverage 1.0 by the wait-for-all rule,
    // whatever the budget — and later, with faster engines, sat at the
    // edge of capacity where the budget decided which side it fell.)
    let unloaded: Vec<VirtualNanos> = {
        let devices = FleetDevices::new(shards, 2, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
        let times = wl.queries.iter().map(|q| fleet.run_query(&request(q)).time);
        times.collect()
    };
    let mean = unloaded.iter().copied().sum::<VirtualNanos>() / unloaded.len() as u64;
    let slowest = unloaded.iter().copied().max().expect("queries");
    let (spacing, deadline) = (mean / 2, slowest * 4);
    let arrivals: Vec<ArrivingQuery> = wl
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| ArrivingQuery {
            request: request(q).deadline(deadline),
            arrival: spacing * i as u64,
        })
        .collect();

    let coverage_for = |per_query: u32, burst: f64| {
        let devices = FleetDevices::new(shards, 2, &DeviceConfig::test_tiny());
        let config = FleetConfig {
            hedge: HedgeConfig {
                min_samples: 8,
                ..HedgeConfig::default()
            },
            budget: RetryBudgetConfig {
                per_query,
                burst,
                refill_per_query: if per_query == 0 { 0.0 } else { 1.0 },
            },
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&devices, &sharded, config);
        for s in 0..shards {
            devices
                .device(s, 0)
                .set_fault_plan(Some(FaultPlan::seeded(seed).with_fault_rate(0.5)));
        }
        let report = fleet.serve(&arrivals);
        assert_eq!(report.queries.len(), arrivals.len(), "every query answered");
        for q in &report.queries {
            let info = q.output.fleet.as_ref().expect("coverage");
            assert_statuses_complete(info, shards, "budget");
            for st in &info.shards {
                assert_ne!(
                    st.outcome,
                    ShardOutcome::Missing,
                    "replicas are alive; only deadline drops are allowed"
                );
            }
        }
        assert_accounting(&fleet, "budget");
        let st = fleet.stats();
        println!(
            "per_query {per_query} burst {burst}: coverage {:.3}, dropped {}, hedges {}, denied {}",
            report.mean_coverage(),
            st.dropped_shards,
            st.hedges,
            st.budget_denied
        );
        (report.mean_coverage(), st.dropped_shards)
    };

    let (starved, starved_drops) = coverage_for(0, 0.0);
    let (bounded, _) = coverage_for(1, 4.0);
    let (generous, _) = coverage_for(2, 16.0);
    // Without pressure the property below would hold vacuously.
    assert!(starved_drops > 0, "the deadline must bite without hedges");
    // Hedging only ever substitutes a faster answer, so more budget can
    // only help coverage (tolerance for histogram-feedback jitter).
    assert!(
        bounded + 0.05 >= starved && generous + 0.05 >= starved,
        "coverage must not collapse as budget grows (starved={starved:.3} bounded={bounded:.3} generous={generous:.3})"
    );
    assert!((0.0..=1.0).contains(&starved));
}
