//! Sharded scatter–gather fleet: hedged shard requests, replica
//! failover, and honest partial results.
//!
//! One engine per (shard, replica) pair serves a docID-range slice of
//! the corpus (see `griffin::fleet::ShardedIndex`); the [`Fleet`]
//! coordinator fans each [`QueryRequest`] out to one replica per shard
//! and merges the per-shard top-k's with the engine's own comparator,
//! so a complete answer is bit-identical to the unsharded engine's.
//! Everything else in this module is about what happens when a shard
//! does *not* answer promptly:
//!
//! * **Hedged requests** (the tail-at-scale defense): shard answer
//!   latencies feed a rolling fleet-wide histogram; once a shard's
//!   primary has been outstanding longer than a quantile-derived
//!   deadline ([`HedgeConfig`]), the same request is issued to a second
//!   replica and the first answer wins. Because every replica is its
//!   own FIFO lane, the hedge dodges both a slow execution *and* a
//!   backlogged queue on the primary. The loser is cancelled at the
//!   winner's finish instant and charged only for the device time it
//!   actually burned, so hedging never double-counts capacity:
//!   `busy_total == service_total − hedge_cancelled_saved` holds
//!   exactly ([`FleetStats`]).
//! * **Replica failover + fleet health**: every replica carries its own
//!   circuit breaker ([`GpuHealth`]) fed by per-query recovery
//!   outcomes — a fault the retry layer absorbed is not a breaker
//!   failure; an exhausted recovery or sticky device loss is.
//!   Routing skips dead replicas and replicas whose breaker is open;
//!   a shard whose every live replica is breaker-open degrades to a
//!   CPU-only lane (exact results, different latency) rather than
//!   dropping out.
//! * **Partial-result degradation**: when a query carries a deadline,
//!   shards answering after the deadline are left out of the merge — but
//!   never silently: every shard appears in the answer's [`FleetInfo`]
//!   with an explicit outcome, and `coverage` says exactly how much of the corpus the top-k reflects.
//!   A query is always answered; if no shard made the deadline the
//!   coordinator waits for all of them rather than returning nothing.
//! * **Retry budgets**: hedges spend from a per-query allowance and a
//!   fleet-wide token bucket ([`RetryBudgetConfig`]), bounding the
//!   extra load the tail defense may add during a brown-out.
//!
//! All timing is virtual and deterministic: replicas are FIFO lanes
//! (`busy_until`), service times come from the engines' own virtual
//! clocks, and a fixed fault-plan seed reproduces the same hedges,
//! trips, and coverage history run after run.

use griffin::{
    merge_topk, ExecMode, FleetInfo, Griffin, GriffinOutput, Proc, PruneStats, QueryRequest,
    ShardOutcome, ShardStatus, ShardedIndex, StepOp, StepTrace,
};
use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
use griffin_telemetry::{Histogram, Telemetry};

use crate::health::{BreakerConfig, GpuHealth};
use crate::server::ArrivingQuery;

/// Hedged-request policy. The hedge deadline is `quantile(latency)`,
/// floored at 1 µs so a warm cache of sub-microsecond answers cannot make
/// every query hedge; no hedging happens until the fleet has
/// `min_samples` observed shard answers.
///
/// The deadline tracks shard *answer latencies* (queue wait plus
/// service): each replica is an independent FIFO lane, so a request
/// stuck behind a straggling predecessor is exactly what a hedge to
/// the twin replica rescues — as is a slow execution on a sick device.
/// The histogram is pooled fleet-wide rather than per shard: docID-range
/// slices of one corpus are statistically exchangeable, and pooling
/// warms the deadline `shards ×` faster after a cold start, when the
/// tail is most exposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    pub enabled: bool,
    /// Latency quantile the deadline tracks (0.95 = hedge once the
    /// primary has been outstanding past the answer-latency p95).
    pub quantile: f64,
    /// Observed shard answers required before the deadline is defined.
    pub min_samples: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            quantile: 0.95,
            min_samples: 32,
        }
    }
}

/// The floor on the hedge deadline (see [`HedgeConfig`]).
const MIN_HEDGE_DEADLINE: VirtualNanos = VirtualNanos::from_micros(1);

/// Bounds on retry/hedge amplification.
///
/// Each query may hedge at most `per_query` shards; fleet-wide, hedges
/// spend from a token bucket holding at most `burst` tokens that
/// refills by `refill_per_query` per served query — i.e. in steady
/// state at most `refill_per_query` of queries hedge, with bursts of
/// up to `burst` absorbing transient stragglers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    pub per_query: u32,
    pub burst: f64,
    pub refill_per_query: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            per_query: 2,
            burst: 8.0,
            refill_per_query: 0.2,
        }
    }
}

/// Fleet coordinator tuning. The shard count comes from the
/// [`ShardedIndex`], the replica count from the [`FleetDevices`].
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Per-replica circuit-breaker tuning (every replica gets its own
    /// breaker built from this).
    pub breaker: BreakerConfig,
    pub hedge: HedgeConfig,
    pub budget: RetryBudgetConfig,
}

/// The fleet's devices: one simulated GPU per (shard, replica) pair,
/// shard-major. Owned separately from [`Fleet`] because each engine
/// borrows its device for the fleet's lifetime; build this first, then
/// attach fault plans to individual devices before constructing the
/// fleet.
pub struct FleetDevices {
    devices: Vec<Gpu>,
    replicas: usize,
}

impl FleetDevices {
    /// `shards × replicas` identical devices.
    pub fn new(shards: usize, replicas: usize, config: &DeviceConfig) -> FleetDevices {
        assert!(shards >= 1 && replicas >= 1, "need at least one device");
        let devices = (0..shards * replicas)
            .map(|_| Gpu::new(config.clone()))
            .collect();
        FleetDevices { devices, replicas }
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The device backing `(shard, replica)`.
    pub fn device(&self, shard: usize, replica: usize) -> &Gpu {
        assert!(replica < self.replicas);
        &self.devices[shard * self.replicas + replica]
    }

    pub fn iter(&self) -> impl Iterator<Item = &Gpu> {
        self.devices.iter()
    }

    /// Total device memory in use across the fleet (leak checking).
    pub fn mem_in_use(&self) -> u64 {
        self.devices.iter().map(|d| d.mem_in_use()).sum()
    }
}

/// One (shard, replica) lane: an engine over the shard view, its
/// breaker, and a FIFO availability horizon in fleet virtual time.
struct Replica<'g> {
    engine: Griffin<'g>,
    health: GpuHealth,
    alive: bool,
    busy_until: VirtualNanos,
}

/// Fleet-lifetime counters. The hedging invariant
/// `busy_total == service_total − hedge_cancelled_saved` is what "a
/// cancelled hedge is not billed" means, and is asserted by the
/// property tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    pub queries: u64,
    /// Hedged shard requests issued.
    pub hedges: u64,
    /// Hedges whose answer beat the primary's.
    pub hedge_wins: u64,
    /// Hedges suppressed by an exhausted per-query or fleet budget.
    pub budget_denied: u64,
    /// Shard requests served through the CPU-only degraded lane.
    pub degraded_cpu: u64,
    /// Shard slots with no live replica at all.
    pub missing_shards: u64,
    /// Shard answers excluded from a merge by the deadline policy.
    pub dropped_shards: u64,
    /// Device-lane occupancy actually billed (cancellation-adjusted).
    pub busy_total: VirtualNanos,
    /// Raw service time of every run issued, winners and losers alike.
    pub service_total: VirtualNanos,
    /// Service time the cancellation of losing hedges gave back.
    pub hedge_cancelled_saved: VirtualNanos,
    /// Sum of per-query coverage fractions.
    pub coverage_sum: f64,
}

impl FleetStats {
    /// Mean coverage over all served queries (1.0 when none served).
    pub fn mean_coverage(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.coverage_sum / self.queries as f64
        }
    }
}

/// One query's trip through the fleet, as returned by [`Fleet::serve`].
#[derive(Debug, Clone)]
pub struct FleetServedQuery {
    pub arrival: VirtualNanos,
    /// Answer instant − arrival (what the client saw).
    pub latency: VirtualNanos,
    /// The merged answer; `output.fleet` is always `Some`.
    pub output: GriffinOutput,
}

/// A served trace: every query answered, in submission order.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    pub queries: Vec<FleetServedQuery>,
}

impl FleetReport {
    /// Served latencies, ascending — feed to a percentile helper.
    pub fn sorted_latencies(&self) -> Vec<VirtualNanos> {
        let mut v: Vec<VirtualNanos> = self.queries.iter().map(|q| q.latency).collect();
        v.sort_unstable();
        v
    }

    /// Mean coverage across the trace.
    pub fn mean_coverage(&self) -> f64 {
        if self.queries.is_empty() {
            return 1.0;
        }
        let sum: f64 = self
            .queries
            .iter()
            .map(|q| q.output.fleet.as_ref().map_or(1.0, |f| f.coverage))
            .sum();
        sum / self.queries.len() as f64
    }
}

/// A per-shard answer before the gather step.
struct ShardAnswer {
    topk: Vec<(u32, f32)>,
    pruning: Option<PruneStats>,
    /// Absolute answer instant; `None` when the shard was missing.
    finish: Option<VirtualNanos>,
    gpu_abandoned: bool,
    status: ShardStatus,
}

/// The scatter–gather coordinator. See the module docs for the
/// policies; [`Fleet::run_query`] serves closed-loop (one query at a
/// time on the fleet clock), [`Fleet::serve`] replays an arrival trace.
pub struct Fleet<'g> {
    config: FleetConfig,
    index: &'g ShardedIndex,
    replicas_per_shard: usize,
    /// Shard-major: `replicas[s * replicas_per_shard + r]`.
    replicas: Vec<Replica<'g>>,
    /// Per-shard answer-latency histograms (telemetry, per-shard tail).
    shard_latency: Vec<Histogram>,
    /// Fleet-wide answer-latency histogram driving hedge deadlines
    /// (pooled across shards — see [`HedgeConfig`]).
    hedge_latency: Histogram,
    /// Fleet-wide hedge tokens (see [`RetryBudgetConfig`]).
    tokens: f64,
    clock: VirtualNanos,
    stats: FleetStats,
    telemetry: Telemetry,
}

impl<'g> Fleet<'g> {
    /// Builds one engine per (shard, replica) pair over `index`'s shard
    /// views. `devices` must hold exactly `num_shards × replicas`
    /// devices.
    pub fn new(
        devices: &'g FleetDevices,
        index: &'g ShardedIndex,
        config: FleetConfig,
    ) -> Fleet<'g> {
        let shards = index.num_shards();
        assert_eq!(
            devices.num_devices(),
            shards * devices.replicas(),
            "devices must match shards × replicas"
        );
        let replicas_per_shard = devices.replicas();
        let mut replicas = Vec::with_capacity(shards * replicas_per_shard);
        for s in 0..shards {
            let shard = index.shard(s);
            for r in 0..replicas_per_shard {
                replicas.push(Replica {
                    engine: Griffin::new(devices.device(s, r), shard.meta(), shard.block_len()),
                    health: GpuHealth::new(config.breaker),
                    alive: true,
                    busy_until: VirtualNanos::ZERO,
                });
            }
        }
        let tokens = config.budget.burst;
        Fleet {
            config,
            index,
            replicas_per_shard,
            replicas,
            shard_latency: (0..shards).map(|_| Histogram::default()).collect(),
            hedge_latency: Histogram::default(),
            tokens,
            clock: VirtualNanos::ZERO,
            stats: FleetStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Takes `(shard, replica)` out of the routing set (a crashed or
    /// drained process).
    pub fn kill_replica(&mut self, shard: usize, replica: usize) {
        self.replica_mut(shard, replica).alive = false;
    }

    /// Applies `f` to every replica engine (scheduler knobs, recovery
    /// policies) — the fleet analogue of configuring a single engine.
    pub fn tune<F: FnMut(&mut Griffin<'g>)>(&mut self, mut f: F) {
        for rep in &mut self.replicas {
            f(&mut rep.engine);
        }
    }

    /// Serves one query closed-loop: it arrives at the fleet clock and
    /// the clock advances to its answer instant.
    pub fn run_query(&mut self, req: &QueryRequest) -> GriffinOutput {
        let arrival = self.clock;
        let (output, answered_at) = self.submit(req, arrival);
        self.clock = self.clock.max(answered_at);
        output
    }

    /// Replays an arrival trace. Every query is answered — degradation
    /// shows up as coverage, never as a missing entry.
    ///
    /// # Panics
    /// When `arrival`s are not ascending: replica lanes are reserved in
    /// submission order, so an out-of-order trace would be served
    /// FIFO-by-submission rather than by arrival.
    pub fn serve(&mut self, queries: &[ArrivingQuery]) -> FleetReport {
        assert!(
            queries.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "Fleet::serve needs ascending arrivals"
        );
        let mut report = FleetReport::default();
        for aq in queries {
            let (output, answered_at) = self.submit(&aq.request, aq.arrival);
            self.clock = self.clock.max(answered_at);
            report.queries.push(FleetServedQuery {
                arrival: aq.arrival,
                latency: answered_at.saturating_sub(aq.arrival),
                output,
            });
        }
        report
    }

    /// Scatter to one replica per shard, gather, merge. Returns the
    /// merged output and the absolute answer instant.
    fn submit(
        &mut self,
        req: &QueryRequest,
        arrival: VirtualNanos,
    ) -> (GriffinOutput, VirtualNanos) {
        self.stats.queries += 1;
        self.tokens =
            (self.tokens + self.config.budget.refill_per_query).min(self.config.budget.burst);
        let mut per_query_hedges = self.config.budget.per_query;

        let shards = self.index.num_shards();
        let mut answers: Vec<ShardAnswer> = Vec::with_capacity(shards);
        for s in 0..shards {
            let answer = self.shard_request(s, req, arrival, &mut per_query_hedges);
            answers.push(answer);
        }

        // Gather: pick the answer instant, applying the partial-results
        // policy only when at least one shard made the deadline (a
        // query is never answered empty while a shard is still coming).
        let slowest = answers.iter().filter_map(|a| a.finish).max();
        let mut answered_at = slowest.unwrap_or(arrival);
        if let (Some(deadline), Some(slowest)) = (req.deadline, slowest) {
            let cutoff = arrival + deadline;
            let any_on_time = answers
                .iter()
                .any(|a| a.finish.is_some_and(|f| f <= cutoff));
            if slowest > cutoff && any_on_time {
                answered_at = cutoff;
                for a in &mut answers {
                    if a.finish.is_some_and(|f| f > cutoff) {
                        a.status.outcome = ShardOutcome::Dropped;
                        self.stats.dropped_shards += 1;
                        self.telemetry.counter_add("griffin_fleet_dropped_total", 1);
                    }
                }
            }
        }

        let latency = answered_at.saturating_sub(arrival);
        let mut gpu_faults = 0u32;
        let mut gpu_abandoned = false;
        let mut pruning: Option<PruneStats> = None;
        let mut parts: Vec<Vec<(u32, f32)>> = Vec::with_capacity(answers.len());
        for a in &mut answers {
            gpu_faults += a.status.gpu_faults;
            gpu_abandoned |= a.gpu_abandoned;
            if !a.status.outcome.covered() {
                continue;
            }
            parts.push(std::mem::take(&mut a.topk));
            if let Some(p) = a.pruning.take() {
                pruning.get_or_insert_with(PruneStats::default).add(&p);
            }
        }
        let topk = merge_topk(&parts, req.k);

        let statuses: Vec<ShardStatus> = answers.iter().map(|a| a.status).collect();
        let info = FleetInfo::from_statuses(statuses);
        self.stats.coverage_sum += info.coverage;
        if let Some(rec) = self.telemetry.recorder() {
            rec.registry.observe(
                "griffin_fleet_coverage_bp",
                (info.coverage * 10_000.0) as u64,
            );
        }

        let output = GriffinOutput {
            // One coarse coordinator step spanning the whole answer
            // keeps the step-sum invariant (steps sum to `time`).
            steps: vec![StepTrace {
                op: StepOp::Exec,
                proc: Proc::Cpu,
                time: latency,
                inter_len: topk.len(),
            }],
            topk,
            time: latency,
            gpu_faults,
            gpu_abandoned,
            pruning,
            fleet: Some(info),
            result_cache_hit: false,
        };
        (output, answered_at)
    }

    /// Runs one shard's slice of the query: route, hedge, account.
    fn shard_request(
        &mut self,
        s: usize,
        req: &QueryRequest,
        issue: VirtualNanos,
        per_query_hedges: &mut u32,
    ) -> ShardAnswer {
        let live: Vec<usize> = (0..self.replicas_per_shard)
            .filter(|&r| self.replica_ref(s, r).alive)
            .collect();
        if live.is_empty() {
            self.stats.missing_shards += 1;
            self.telemetry.counter_add("griffin_fleet_missing_total", 1);
            return ShardAnswer {
                topk: Vec::new(),
                pruning: None,
                finish: None,
                gpu_abandoned: false,
                status: ShardStatus {
                    shard: s,
                    replica: None,
                    outcome: ShardOutcome::Missing,
                    latency: VirtualNanos::ZERO,
                    hedged: false,
                    hedge_won: false,
                    gpu_faults: 0,
                },
            };
        }

        // Breaker gate: each live replica is probed at the instant it
        // would start this query, which is also what lets an open
        // breaker half-open once its cooldown has passed.
        let uses_gpu = req.mode != ExecMode::CpuOnly;
        let candidates: Vec<usize> = if uses_gpu {
            live.iter()
                .copied()
                .filter(|&r| {
                    let start = self.replica_ref(s, r).busy_until.max(issue);
                    self.replica_mut(s, r).health.allow_gpu(start)
                })
                .collect()
        } else {
            live.clone()
        };

        if candidates.is_empty() {
            // Every live replica's GPU lane is out: CPU-only degraded
            // lane. Results stay exact — only the latency differs.
            return self.run_degraded_cpu(s, req, issue, &live);
        }

        let primary = self.least_busy(s, &candidates);
        let (start_p, finish_p, out_p) = self.run_on(s, primary, req, issue);
        let latency_p = finish_p - issue;

        // Hedge decision: the primary's answer outstanding past the
        // fleet's latency deadline, budgets permitting, and a second
        // candidate exists. The hedge is issued the moment the request
        // becomes overdue (issue + deadline) on the twin's own FIFO
        // lane, so it dodges the primary's backlog as well as a slow
        // execution.
        let mut hedged = false;
        let mut hedge_won = false;
        let mut winner = (primary, start_p, finish_p, out_p);
        let mut loser: Option<(usize, VirtualNanos, VirtualNanos)> = None;
        if self.config.hedge.enabled && candidates.len() > 1 {
            if let Some(deadline) = self.hedge_deadline().filter(|&d| latency_p > d) {
                let others: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&r| r != primary)
                    .collect();
                let second = self.least_busy(s, &others);
                if !self.hedge_too_late(s, second, req, issue, deadline) {
                    if *per_query_hedges > 0 && self.tokens >= 1.0 {
                        *per_query_hedges -= 1;
                        self.tokens -= 1.0;
                        hedged = true;
                        self.stats.hedges += 1;
                        self.telemetry.counter_add("griffin_fleet_hedges_total", 1);
                        let (start_h, finish_h, out_h) =
                            self.run_on(s, second, req, issue + deadline);
                        if finish_h < finish_p {
                            hedge_won = true;
                            self.stats.hedge_wins += 1;
                            self.telemetry
                                .counter_add("griffin_fleet_hedge_wins_total", 1);
                            loser = Some((primary, start_p, finish_p - start_p));
                            winner = (second, start_h, finish_h, out_h);
                        } else {
                            loser = Some((second, start_h, finish_h - start_h));
                        }
                    } else {
                        self.stats.budget_denied += 1;
                        self.telemetry
                            .counter_add("griffin_fleet_budget_denied_total", 1);
                    }
                }
            }
        }

        // Winner billed in full; loser cancelled at the winner's finish
        // and billed only for time actually burned.
        let (win_r, win_start, win_finish, win_out) = winner;
        {
            let rep = self.replica_mut(s, win_r);
            rep.busy_until = win_finish;
            if uses_gpu {
                // The breaker keys on *exhausted* recovery — the engine
                // abandoning the device — not on transient faults the
                // retry layer absorbed. At a few-percent per-op fault
                // rate nearly every request sees a recovered hiccup;
                // tripping on those would collapse the fleet's GPU
                // capacity exactly when it still works.
                rep.health.record(win_finish, win_out.gpu_abandoned);
            }
        }
        self.stats.busy_total += win_finish - win_start;
        if let Some((lose_r, lose_start, lose_service)) = loser {
            let charged = if lose_start >= win_finish {
                VirtualNanos::ZERO
            } else {
                let c = win_finish - lose_start;
                self.replica_mut(s, lose_r).busy_until = win_finish;
                c
            };
            debug_assert!(
                charged <= lose_service,
                "a loser never bills past its own run"
            );
            self.stats.busy_total += charged;
            let saved = lose_service - charged;
            self.stats.hedge_cancelled_saved += saved;
            self.telemetry
                .counter_add("griffin_fleet_hedge_cancelled_ns_total", saved.as_nanos());
        }

        let status = ShardStatus {
            shard: s,
            replica: Some(win_r),
            outcome: ShardOutcome::Answered,
            latency: win_finish - issue,
            hedged,
            hedge_won,
            gpu_faults: win_out.gpu_faults,
        };
        self.answered(status, win_finish, win_out)
    }

    /// The all-breakers-open path: run the query CPU-only on the least
    /// busy live replica. Bit-exact with the GPU'd answer by the
    /// engine's mode-invariance contract.
    fn run_degraded_cpu(
        &mut self,
        s: usize,
        req: &QueryRequest,
        issue: VirtualNanos,
        live: &[usize],
    ) -> ShardAnswer {
        let r = self.least_busy(s, live);
        let cpu_req = req.clone().mode(ExecMode::CpuOnly);
        let (start, finish, out) = self.run_on(s, r, &cpu_req, issue);
        {
            let rep = self.replica_mut(s, r);
            rep.busy_until = finish;
            rep.health.note_degraded();
        }
        self.stats.busy_total += finish - start;
        self.stats.degraded_cpu += 1;
        self.telemetry
            .counter_add("griffin_fleet_degraded_cpu_total", 1);
        let status = ShardStatus {
            shard: s,
            replica: Some(r),
            outcome: ShardOutcome::AnsweredCpuOnly,
            latency: finish - issue,
            hedged: false,
            hedge_won: false,
            gpu_faults: out.gpu_faults,
        };
        self.answered(status, finish, out)
    }

    /// Records a shard's answer latency and wraps `out`, the run that
    /// answered it at `finish`, as the shard's answer.
    fn answered(
        &mut self,
        status: ShardStatus,
        finish: VirtualNanos,
        out: GriffinOutput,
    ) -> ShardAnswer {
        let (s, latency) = (status.shard, status.latency);
        self.shard_latency[s].record(latency.as_nanos());
        self.hedge_latency.record(latency.as_nanos());
        self.telemetry.with(|r| {
            let name = format!("griffin_fleet_shard_latency_ns{{shard=\"{s}\"}}");
            r.registry.observe_duration(&name, latency);
        });
        ShardAnswer {
            topk: out.topk,
            pruning: out.pruning,
            finish: Some(finish),
            gpu_abandoned: out.gpu_abandoned,
            status,
        }
    }

    /// Runs `req` on `(s, r)` starting no earlier than `not_before`
    /// (FIFO behind the replica's queue). Returns (start, finish, out)
    /// without committing `busy_until` — the caller decides billing.
    fn run_on(
        &mut self,
        s: usize,
        r: usize,
        req: &QueryRequest,
        not_before: VirtualNanos,
    ) -> (VirtualNanos, VirtualNanos, GriffinOutput) {
        let index = self.index;
        let rep = self.replica_ref(s, r);
        let start = rep.busy_until.max(not_before);
        let out = rep.engine.run(index.shard(s), req);
        self.stats.service_total += out.time;
        let finish = start + out.time;
        (start, finish, out)
    }

    /// The hedge deadline, once enough answer-latency samples exist
    /// (see [`HedgeConfig`]: fleet-wide pooled latencies).
    fn hedge_deadline(&self) -> Option<VirtualNanos> {
        let hist = &self.hedge_latency;
        if hist.count() < self.config.hedge.min_samples {
            return None;
        }
        let q = VirtualNanos::from_nanos(hist.quantile(self.config.hedge.quantile));
        Some(q.max(MIN_HEDGE_DEADLINE))
    }

    /// Whether a hedge of `req` on `(s, twin)` would, by the fleet's median
    /// answer latency, finish after the query's cutoff. Such a hedge buys
    /// the query nothing — the shard is dropped at the cutoff either way —
    /// while its reservation of the twin's lane pushes that lane's own
    /// primaries, which could have made their cutoffs, past them.
    fn hedge_too_late(
        &self,
        s: usize,
        twin: usize,
        req: &QueryRequest,
        issue: VirtualNanos,
        hedge_deadline: VirtualNanos,
    ) -> bool {
        let Some(deadline) = req.deadline else {
            return false;
        };
        let start = self
            .replica_ref(s, twin)
            .busy_until
            .max(issue + hedge_deadline);
        let service = VirtualNanos::from_nanos(self.hedge_latency.quantile(0.5));
        start + service > issue + deadline
    }

    fn least_busy(&self, s: usize, among: &[usize]) -> usize {
        *among
            .iter()
            .min_by_key(|&&r| (self.replica_ref(s, r).busy_until, r))
            .expect("candidate set is nonempty")
    }

    /// Tears every engine down, releasing cached device memory — after
    /// this, [`FleetDevices::mem_in_use`] must report zero (the benches
    /// use this as a leak check).
    pub fn shutdown(self) {
        for rep in self.replicas {
            rep.engine.gpu.shutdown();
        }
    }

    fn replica_ref(&self, s: usize, r: usize) -> &Replica<'g> {
        &self.replicas[s * self.replicas_per_shard + r]
    }

    fn replica_mut(&mut self, s: usize, r: usize) -> &mut Replica<'g> {
        &mut self.replicas[s * self.replicas_per_shard + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::FaultPlan;
    use griffin_index::{InvertedIndex, TermId};
    use griffin_workload::{build_list_index, ListIndexSpec, QueryLogSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (InvertedIndex, Vec<Vec<TermId>>) {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = ListIndexSpec {
            num_terms: 24,
            num_docs: 400_000,
            max_list_len: 80_000,
            ..Default::default()
        };
        let (index, _) = build_list_index(&spec, &mut rng);
        let queries = QueryLogSpec {
            num_queries: 24,
            ..Default::default()
        }
        .generate(&index, &mut rng);
        (index, queries)
    }

    fn docids(topk: &[(u32, f32)]) -> Vec<u32> {
        topk.iter().map(|&(d, _)| d).collect()
    }

    #[test]
    fn fleet_answers_match_the_unsharded_engine_bit_for_bit() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 3);
        let devices = FleetDevices::new(3, 2, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());

        let single_gpu = Gpu::new(DeviceConfig::test_tiny());
        let single = Griffin::new(&single_gpu, index.meta(), index.block_len());

        for q in &queries {
            let req = QueryRequest::new(q.clone()).k(10);
            let fleet_out = fleet.run_query(&req);
            let single_out = single.run(&index, &req);
            assert_eq!(
                fleet_out.topk, single_out.topk,
                "merged top-k must be bit-exact"
            );
            let info = fleet_out.fleet.expect("fleet answers carry coverage info");
            assert_eq!(info.coverage, 1.0);
            assert!(info.complete());
            assert_eq!(info.shards.len(), 3);
            // Step-sum invariant: the coordinator step spans the answer.
            let step_sum: VirtualNanos = fleet_out.steps.iter().map(|s| s.time).sum();
            assert_eq!(step_sum, fleet_out.time);
        }
        let stats = *fleet.stats();
        assert_eq!(stats.queries, queries.len() as u64);
        assert_eq!(
            stats.busy_total,
            stats.service_total - stats.hedge_cancelled_saved,
            "cancellation accounting must balance"
        );
    }

    #[test]
    #[should_panic(expected = "ascending arrivals")]
    fn serve_rejects_an_out_of_order_trace() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 2);
        let devices = FleetDevices::new(2, 1, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
        let at = |ns: u64| ArrivingQuery {
            request: QueryRequest::new(queries[0].clone()).k(10),
            arrival: VirtualNanos::from_nanos(ns),
        };
        fleet.serve(&[at(1_000), at(999)]);
    }

    #[test]
    fn losing_a_whole_shard_degrades_coverage_without_silent_drops() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 4);
        let devices = FleetDevices::new(4, 2, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());
        fleet.kill_replica(1, 0);
        fleet.kill_replica(1, 1);

        let lost = sharded.range(1);
        for q in &queries {
            let req = QueryRequest::new(q.clone()).k(10);
            let out = fleet.run_query(&req);
            let info = out.fleet.expect("coverage info");
            assert_eq!(info.coverage, 0.75);
            assert_eq!(info.shards[1].outcome, ShardOutcome::Missing);
            assert_eq!(info.shards[1].replica, None);
            assert!(
                info.shards.iter().all(|st| st.shard < 4),
                "every shard accounted"
            );
            for d in docids(&out.topk) {
                assert!(!lost.contains(&d), "a missing shard's docs cannot appear");
            }
        }
        assert_eq!(fleet.stats().missing_shards, queries.len() as u64);
    }

    #[test]
    fn open_breakers_degrade_a_shard_to_its_cpu_lane_with_exact_results() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 2);
        let devices = FleetDevices::new(2, 2, &DeviceConfig::test_tiny());
        // Both of shard 0's devices fault on every op: breakers trip,
        // then the shard must keep answering through the CPU lane.
        devices
            .device(0, 0)
            .set_fault_plan(Some(FaultPlan::seeded(3).with_fault_rate(1.0)));
        devices
            .device(0, 1)
            .set_fault_plan(Some(FaultPlan::seeded(4).with_fault_rate(1.0)));
        let config = FleetConfig {
            breaker: BreakerConfig {
                window: 4,
                failure_threshold: 0.5,
                min_samples: 2,
                cooldown: VirtualNanos::from_millis(500),
                canary_successes: 2,
            },
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&devices, &sharded, config);

        let single_gpu = Gpu::new(DeviceConfig::test_tiny());
        let single = Griffin::new(&single_gpu, index.meta(), index.block_len());
        let mut degraded_seen = false;
        for q in &queries {
            // GpuOnly keeps the scheduler from routing the (smaller)
            // shard slices to the CPU, so the faulting devices are hit.
            let req = QueryRequest::new(q.clone()).k(10).mode(ExecMode::GpuOnly);
            let out = fleet.run_query(&req);
            let cpu = single.run(&index, &req.clone().mode(ExecMode::CpuOnly));
            assert_eq!(
                docids(&out.topk),
                docids(&cpu.topk),
                "degraded lane stays exact"
            );
            let info = out.fleet.expect("coverage info");
            assert_eq!(info.coverage, 1.0, "breaker trips must not cost coverage");
            degraded_seen |= info.shards[0].outcome == ShardOutcome::AnsweredCpuOnly;
        }
        assert!(degraded_seen, "shard 0 should have hit the CPU-only lane");
        assert!(fleet.stats().degraded_cpu > 0);
    }

    #[test]
    fn a_hedge_that_cannot_land_before_the_cutoff_is_not_issued() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 2);
        // Replica 0 of each shard retries half its operations: stragglers.
        let hedges_with = |deadline: Option<VirtualNanos>| {
            let devices = FleetDevices::new(2, 2, &DeviceConfig::test_tiny());
            for s in 0..2 {
                devices
                    .device(s, 0)
                    .set_fault_plan(Some(FaultPlan::seeded(9).with_fault_rate(0.5)));
            }
            let config = FleetConfig {
                hedge: HedgeConfig {
                    min_samples: 4,
                    ..HedgeConfig::default()
                },
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&devices, &sharded, config);
            for q in &queries {
                let mut req = QueryRequest::new(q.clone()).k(10).mode(ExecMode::GpuOnly);
                req.deadline = deadline;
                let info = fleet.run_query(&req).fleet.expect("coverage info");
                assert_eq!(info.coverage, 1.0, "closed loop: nothing queues");
            }
            fleet.stats().hedges
        };
        assert!(hedges_with(None) > 0, "the stragglers must trigger hedges");
        // A hedge goes out once the primary is overdue by the fleet's own
        // latency quantile. Under a cutoff earlier than that, it would
        // start after the query was answered: all cost, no coverage.
        assert_eq!(hedges_with(Some(VirtualNanos::from_nanos(1))), 0);
    }

    #[test]
    fn deadline_pressure_yields_partial_answers_with_honest_coverage() {
        let (index, queries) = workload();
        let sharded = ShardedIndex::build(&index, 3);
        let devices = FleetDevices::new(3, 1, &DeviceConfig::test_tiny());
        let mut fleet = Fleet::new(&devices, &sharded, FleetConfig::default());

        // Warm once to learn typical latency, then set a deadline below
        // the straggler's answer time.
        let warm = fleet.run_query(&QueryRequest::new(queries[0].clone()).k(10));
        let tight = VirtualNanos::from_nanos((warm.time.as_nanos() / 2).max(1));
        let mut partials = 0;
        for q in &queries {
            let req = QueryRequest::new(q.clone()).k(10).deadline(tight);
            let out = fleet.run_query(&req);
            let info = out.fleet.expect("coverage info");
            assert!(
                !out.topk.is_empty() || info.coverage == 0.0,
                "always answer"
            );
            if info.coverage < 1.0 {
                partials += 1;
                assert!(info
                    .shards
                    .iter()
                    .any(|st| st.outcome == ShardOutcome::Dropped));
                assert!(out.time <= tight, "partial answers honor the deadline");
            }
        }
        assert_eq!(
            fleet.stats().dropped_shards > 0,
            partials > 0,
            "drops and partials must agree"
        );
    }
}
