//! The serving-pipeline discrete-event simulator.
//!
//! The paper's tail-latency setting (§4.5, Fig. 15): N CPU cores + one
//! GPU, each query a sequence of stages pinned to a resource, stages of
//! different queries interleaving in ready-time order. (This is why
//! Griffin's tail-latency win exceeds its mean win, Fig. 14: under
//! CPU-only execution the rare long queries monopolize a core for
//! hundreds of milliseconds and everything queued behind them stalls;
//! Griffin offloads precisely those heavy early intersections to the
//! GPU.) On top of that sit the three disciplines a single shared GPU
//! needs to survive concurrent load:
//!
//! * an **admission queue** — at most [`AdmissionConfig::capacity`]
//!   queries in flight, the rest shed;
//! * an **overload policy** — arrivals that would deepen an
//!   already-backlogged GPU queue are shed or degraded to their CPU-only
//!   schedule ([`OverloadPolicy`]);
//! * a **batch packer** — adjacent small GPU stages from different
//!   queries coalesce into one launch, amortizing the fixed per-stage
//!   overheads the device model charges ([`BatchConfig`]).
//!
//! With admission unbounded and batching disabled (the
//! [`ServerConfig`] default) the schedule is the plain one: greedy
//! earliest-available-core for CPU stages in (ready time, job, stage)
//! order, FIFO single-server GPU, and a co-executed split stage's host
//! lane ([`StageReq::cpu_shadow`]) holding the earliest-free core while
//! its device slice runs. One ordering rule is worth knowing:
//! the GPU dispatcher fires *after* every ARRIVE and READY event of the
//! same instant (so the batch packer sees everything that instant
//! queued). A zero-duration GPU stage therefore yields its successor
//! later than a zero-duration CPU stage would — behind the same-instant
//! READY events of other jobs (pinned by the
//! `zero_duration_gpu_stage_yields_after_same_instant_ready_events`
//! test). An unloaded single query finishes in exactly the sum of its
//! stage durations — the serving pipeline's bit-exactness guarantee.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use griffin::serving::{Resource, StageReq};
use griffin_gpu_sim::VirtualNanos;
use griffin_telemetry::{SpanEvent, Timeline};

use crate::admission::{AdmissionConfig, Outcome, OverloadPolicy, ServedQuery};
use crate::batch::BatchConfig;
use crate::server::{PlannedQuery, ServeReport};

/// Serving configuration: the simulated node and its scheduling
/// disciplines.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// CPU worker cores (paper testbed: 4).
    pub cpu_workers: usize,
    pub admission: AdmissionConfig,
    /// GPU batch packing; `None` launches every stage individually.
    pub batching: Option<BatchConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cpu_workers: 4,
            admission: AdmissionConfig::default(),
            batching: None,
        }
    }
}

/// Aggregate counters of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub admitted: usize,
    pub shed: usize,
    pub degraded: usize,
    /// Queries with a deadline that finished after it (shed queries with
    /// a deadline also count as missed).
    pub deadline_missed: usize,
    /// GPU launches issued (a batch is one launch).
    pub gpu_launches: u64,
    /// GPU stages executed (batched or not).
    pub gpu_stages: u64,
    /// Largest number of stages coalesced into one launch.
    pub max_batch_occupancy: usize,
    /// Device time saved by batching (sum of per-member overheads not
    /// paid).
    pub gpu_time_saved: VirtualNanos,
    /// Device time saved by copy/compute overlap inside batches: each
    /// member's upload ships on the copy engine while the previous
    /// member's kernels compute (see [`BatchConfig::copy_fraction`]).
    pub gpu_overlap_saved: VirtualNanos,
    /// Deepest GPU queue observed (waiting + running stages).
    pub max_gpu_queue_depth: usize,
    /// Host-core time consumed by the CPU lanes of co-executed split
    /// intersections running in the shadow of their GPU stages.
    pub cpu_shadow_busy: VirtualNanos,
    /// Queries that would have been shed but were answered (flagged)
    /// from the result cache instead ([`Outcome::ServedStale`]).
    pub served_stale: usize,
    /// Queries that coalesced onto an identical in-flight leader
    /// instead of executing ([`Outcome::Coalesced`]).
    pub coalesced: usize,
}

impl SimStats {
    /// Mean stages per GPU launch (1.0 when batching never coalesced).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.gpu_launches == 0 {
            0.0
        } else {
            self.gpu_stages as f64 / self.gpu_launches as f64
        }
    }
}

/// Event kinds, ordered so that at equal timestamps arrivals enqueue
/// first, freshly ready stages join the GPU queue second, and the GPU
/// dispatcher fires last — maximizing (deterministic) batching.
const EV_ARRIVE: u8 = 0;
const EV_READY: u8 = 1;
const EV_DISPATCH: u8 = 2;

/// One stage waiting in the GPU queue.
struct QueuedStage {
    job: usize,
    stage: usize,
    ready: VirtualNanos,
    duration: VirtualNanos,
    /// Concurrent host-lane time (a co-executed split's CPU slice).
    cpu_shadow: VirtualNanos,
}

/// The serving simulator. Holds only its configuration: every
/// [`ServerSim::run`] starts from an idle node.
pub struct ServerSim {
    config: ServerConfig,
}

impl ServerSim {
    pub fn new(config: ServerConfig) -> ServerSim {
        assert!(config.cpu_workers > 0, "need at least one CPU worker");
        if let Some(b) = &config.batching {
            assert!(b.max_batch >= 1, "max_batch of 0 would stall the GPU");
        }
        ServerSim { config }
    }

    /// Runs all jobs — `jobs[i]` arriving at `arrivals[i]` — to
    /// completion (or shedding) and reports per-query outcomes,
    /// aggregate stats, and the executed timeline. Of a
    /// [`PlannedQuery`] the simulator reads the stage schedule and the
    /// admission metadata (`cpu_fallback`, `deadline`, `stale_available`,
    /// `coalesce_key`).
    pub fn run(&self, jobs: &[PlannedQuery], arrivals: &[VirtualNanos]) -> ServeReport {
        assert_eq!(
            jobs.len(),
            arrivals.len(),
            "one arrival instant per planned query"
        );
        let mut heap: BinaryHeap<Reverse<(VirtualNanos, u8, usize, usize)>> = BinaryHeap::new();
        for (j, &arrival) in arrivals.iter().enumerate() {
            heap.push(Reverse((arrival, EV_ARRIVE, j, 0)));
        }

        // A degraded job runs this one CPU-only stage in place of its
        // measured schedule.
        let mut fallback: Vec<Option<StageReq>> = vec![None; jobs.len()];
        let mut results: Vec<ServedQuery> = jobs
            .iter()
            .map(|_| ServedQuery {
                outcome: Outcome::Shed,
                latency: None,
                deadline_met: None,
            })
            .collect();

        let mut cpu_free = vec![VirtualNanos::ZERO; self.config.cpu_workers];
        let mut gpu_free = VirtualNanos::ZERO;
        let mut gpu_queue: VecDeque<QueuedStage> = VecDeque::new();
        let mut running_batch = 0usize;
        let mut in_flight = 0usize;
        // Single-flight bookkeeping: which job currently leads each
        // coalesce key, and which followers ride on each leader.
        let mut leaders: HashMap<u64, usize> = HashMap::new();
        let mut followers: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];

        let mut stats = SimStats::default();
        let mut timeline = Timeline::default();

        while let Some(Reverse((now, kind, j, stage_idx))) = heap.pop() {
            match kind {
                EV_ARRIVE => {
                    let job = &jobs[j];
                    let gpu_depth =
                        gpu_queue.len() + if now < gpu_free { running_batch } else { 0 };
                    stats.max_gpu_queue_depth = stats.max_gpu_queue_depth.max(gpu_depth);
                    let wants_gpu = job.stages.iter().any(|s| s.resource == Resource::Gpu);

                    // Single-flight: an identical query already in
                    // flight absorbs this arrival — no capacity slot, no
                    // stages, no stampede. It completes when the leader
                    // does.
                    if let Some(key) = job.coalesce_key {
                        if let Some(&leader) = leaders.get(&key) {
                            followers[leader].push(j);
                            results[j].outcome = Outcome::Coalesced;
                            stats.coalesced += 1;
                            continue;
                        }
                    }

                    if in_flight >= self.config.admission.capacity {
                        Self::shed_or_stale(
                            &self.config.admission,
                            job,
                            &mut results[j],
                            &mut stats,
                        );
                        continue; // results[j] says Shed (or ServedStale).
                    }
                    let mut outcome = Outcome::Completed;
                    if wants_gpu && gpu_depth > self.config.admission.gpu_depth_threshold {
                        match (self.config.admission.policy, job.cpu_fallback) {
                            (OverloadPolicy::DegradeToCpuOnly, Some(cpu_only)) => {
                                fallback[j] = Some(StageReq::new(Resource::Cpu, cpu_only));
                                outcome = Outcome::Degraded;
                                stats.degraded += 1;
                            }
                            _ => {
                                Self::shed_or_stale(
                                    &self.config.admission,
                                    job,
                                    &mut results[j],
                                    &mut stats,
                                );
                                continue;
                            }
                        }
                    }
                    stats.admitted += 1;
                    in_flight += 1;
                    results[j].outcome = outcome;
                    if let Some(key) = job.coalesce_key {
                        leaders.insert(key, j);
                    }
                    heap.push(Reverse((now, EV_READY, j, 0)));
                }
                EV_READY => {
                    let schedule = match &fallback[j] {
                        Some(stage) => std::slice::from_ref(stage),
                        None => &jobs[j].stages[..],
                    };
                    if stage_idx >= schedule.len() {
                        // Job complete.
                        in_flight -= 1;
                        let latency = now - arrivals[j];
                        results[j].latency = Some(latency);
                        results[j].deadline_met = jobs[j].deadline.map(|d| latency <= d);
                        if results[j].deadline_met == Some(false) {
                            stats.deadline_missed += 1;
                        }
                        // Release the single-flight key and complete
                        // every coalesced follower at this instant.
                        if let Some(key) = jobs[j].coalesce_key {
                            if leaders.get(&key) == Some(&j) {
                                leaders.remove(&key);
                            }
                        }
                        for &f in &followers[j] {
                            let fl = now - arrivals[f];
                            results[f].latency = Some(fl);
                            results[f].deadline_met = jobs[f].deadline.map(|d| fl <= d);
                            if results[f].deadline_met == Some(false) {
                                stats.deadline_missed += 1;
                            }
                        }
                        continue;
                    }
                    let stage = schedule[stage_idx];
                    match stage.resource {
                        Resource::Cpu => {
                            let core = cpu_free
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, &t)| t)
                                .map(|(i, _)| i)
                                .expect("at least one core");
                            let start = now.max(cpu_free[core]);
                            let end = start + stage.duration;
                            cpu_free[core] = end;
                            timeline.push(SpanEvent {
                                resource: "cpu",
                                lane: core,
                                job: j,
                                stage: stage_idx,
                                ready: now,
                                start,
                                end,
                            });
                            heap.push(Reverse((end, EV_READY, j, stage_idx + 1)));
                        }
                        Resource::Gpu => {
                            gpu_queue.push_back(QueuedStage {
                                job: j,
                                stage: stage_idx,
                                ready: now,
                                duration: stage.duration,
                                cpu_shadow: stage.cpu_shadow,
                            });
                            heap.push(Reverse((now.max(gpu_free), EV_DISPATCH, 0, 0)));
                        }
                    }
                }
                EV_DISPATCH => {
                    if gpu_queue.is_empty() {
                        continue;
                    }
                    if now < gpu_free {
                        // Still executing an earlier launch; a dispatch is
                        // already scheduled at `gpu_free` by that launch.
                        continue;
                    }
                    stats.max_gpu_queue_depth = stats.max_gpu_queue_depth.max(gpu_queue.len());
                    let batch = self.take_batch(&mut gpu_queue);
                    running_batch = batch.len();
                    stats.gpu_launches += 1;
                    stats.gpu_stages += batch.len() as u64;
                    stats.max_batch_occupancy = stats.max_batch_occupancy.max(batch.len());
                    // Members execute within the one submission; every
                    // member after the first shaves its fixed per-stage
                    // overhead, and — with a copy fraction configured —
                    // ships its list on the copy engine while the
                    // previous member's kernels compute. Each member's
                    // result is ready when its own compute completes, so
                    // packing never delays anyone.
                    let mut copy_done = now;
                    let mut compute_end = now;
                    let mut serial_end = now;
                    for (i, member) in batch.into_iter().enumerate() {
                        let saved = match (&self.config.batching, i) {
                            (Some(b), 1..) => b.saving_for(member.duration),
                            _ => VirtualNanos::ZERO,
                        };
                        stats.gpu_time_saved += saved;
                        let effective = member.duration - saved;
                        let (copy, compute) = match &self.config.batching {
                            // A co-executed split ships only its GPU
                            // slice and pipelines that upload inside the
                            // engine's own streams, so the packer has no
                            // separate copy phase to overlap for it.
                            Some(b) if member.cpu_shadow == VirtualNanos::ZERO => {
                                b.split(effective)
                            }
                            _ => (VirtualNanos::ZERO, effective),
                        };
                        copy_done += copy;
                        let span_start = compute_end;
                        let end = copy_done.max(compute_end) + compute;
                        serial_end += effective;
                        timeline.push(SpanEvent {
                            resource: "gpu",
                            lane: 0,
                            job: member.job,
                            stage: member.stage,
                            ready: member.ready,
                            start: span_start,
                            end,
                        });
                        if member.cpu_shadow > VirtualNanos::ZERO {
                            // The split's host lane runs concurrently
                            // with its device slice on the earliest-free
                            // core. It never delays the stage itself (the
                            // recorded duration is already the max of the
                            // lanes), but under load it consumes core
                            // time other queries then queue behind.
                            let core = cpu_free
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, &t)| t)
                                .map(|(i, _)| i)
                                .expect("at least one core");
                            let s = span_start.max(cpu_free[core]);
                            let e = s + member.cpu_shadow;
                            cpu_free[core] = e;
                            stats.cpu_shadow_busy += member.cpu_shadow;
                            timeline.push(SpanEvent {
                                resource: "cpu",
                                lane: core,
                                job: member.job,
                                stage: member.stage,
                                ready: span_start,
                                start: s,
                                end: e,
                            });
                        }
                        heap.push(Reverse((end, EV_READY, member.job, member.stage + 1)));
                        compute_end = end;
                    }
                    stats.gpu_overlap_saved += serial_end - compute_end;
                    gpu_free = compute_end;
                    if !gpu_queue.is_empty() {
                        heap.push(Reverse((compute_end, EV_DISPATCH, 0, 0)));
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        ServeReport {
            queries: results,
            stats,
            timeline,
        }
    }

    /// Sheds one arrival — unless the serve-stale policy is on and the
    /// result cache held an answer at planning time, in which case the
    /// query is answered from the cache at its lookup cost, explicitly
    /// flagged [`Outcome::ServedStale`]. The latency is the lookup cost
    /// alone: the cache probe bypasses the queues that shed it.
    fn shed_or_stale(
        admission: &AdmissionConfig,
        job: &PlannedQuery,
        result: &mut ServedQuery,
        stats: &mut SimStats,
    ) {
        if admission.serve_stale {
            if let Some(cost) = job.stale_available {
                result.outcome = Outcome::ServedStale;
                result.latency = Some(cost);
                result.deadline_met = job.deadline.map(|d| cost <= d);
                stats.served_stale += 1;
                if result.deadline_met == Some(false) {
                    stats.deadline_missed += 1;
                }
                return;
            }
        }
        stats.shed += 1;
        if job.deadline.is_some() {
            stats.deadline_missed += 1;
        }
    }

    /// Pops the next launch off the queue head: a single stage, or — with
    /// batching enabled and a *small* stage at the head — the maximal run
    /// of adjacent small stages up to `max_batch`.
    fn take_batch(&self, queue: &mut VecDeque<QueuedStage>) -> Vec<QueuedStage> {
        let head = queue.pop_front().expect("checked non-empty");
        let Some(b) = &self.config.batching else {
            return vec![head];
        };
        if !b.is_small(head.duration) {
            return vec![head];
        }
        let mut batch = vec![head];
        while batch.len() < b.max_batch {
            match queue.front() {
                Some(next) if b.is_small(next.duration) => {
                    batch.push(queue.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    fn cpu(d: u64) -> StageReq {
        StageReq::new(Resource::Cpu, ns(d))
    }

    fn gpu(d: u64) -> StageReq {
        StageReq::new(Resource::Gpu, ns(d))
    }

    /// A co-executed split stage: GPU lane `d`, concurrent host lane
    /// `shadow` (`shadow <= d` by the engine's max-of-lanes accounting).
    fn split(d: u64, shadow: u64) -> StageReq {
        StageReq {
            resource: Resource::Gpu,
            duration: ns(d),
            cpu_shadow: ns(shadow),
        }
    }

    /// A hand-built job: its arrival instant and its stage schedule.
    fn job(arrival: u64, stages: Vec<StageReq>) -> (u64, PlannedQuery) {
        let plan = PlannedQuery {
            stages,
            ..Default::default()
        };
        (arrival, plan)
    }

    fn run(sim: &ServerSim, jobs: &[(u64, PlannedQuery)]) -> ServeReport {
        let (arrivals, plans): (Vec<VirtualNanos>, Vec<PlannedQuery>) =
            jobs.iter().map(|(a, p)| (ns(*a), p.clone())).unzip();
        sim.run(&plans, &arrivals)
    }

    fn latencies(report: &ServeReport) -> Vec<VirtualNanos> {
        report
            .queries
            .iter()
            .map(|q| q.latency.expect("all admitted"))
            .collect()
    }

    #[test]
    fn unloaded_query_latency_is_exact_stage_sum() {
        let sim = ServerSim::new(ServerConfig::default());
        let report = run(&sim, &[job(0, vec![gpu(1_000), cpu(500), gpu(250)])]);
        assert_eq!(report.queries[0].latency, Some(ns(1_750)));
        assert_eq!(report.queries[0].outcome, Outcome::Completed);
    }

    #[test]
    fn unloaded_exactness_survives_batching() {
        let sim = ServerSim::new(ServerConfig {
            batching: Some(BatchConfig {
                max_batch: 8,
                small_stage: ns(u64::MAX),
                per_stage_overhead: ns(10_000),
                copy_fraction: 0.5,
            }),
            ..Default::default()
        });
        // A lone query's stages are sequential — never in the queue
        // together — so batching must not alter its latency.
        let report = run(&sim, &[job(0, vec![gpu(1_000), cpu(500), gpu(250)])]);
        assert_eq!(report.queries[0].latency, Some(ns(1_750)));
        assert_eq!(report.stats.gpu_time_saved, VirtualNanos::ZERO);
        assert_eq!(report.stats.gpu_overlap_saved, VirtualNanos::ZERO);
    }

    #[test]
    fn batched_members_overlap_copy_with_previous_compute() {
        let b = BatchConfig {
            max_batch: 4,
            small_stage: ns(10_000),
            per_stage_overhead: ns(0),
            copy_fraction: 0.5,
        };
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig::default(),
            batching: Some(b),
        });
        // A long head stage parks the GPU; three 1µs members coalesce
        // behind it. Each member's 500ns copy ships under the previous
        // member's 500ns compute, so every member after the first adds
        // only its compute to the chain.
        let jobs = vec![
            job(0, vec![gpu(100_000)]),
            job(1, vec![gpu(1_000)]),
            job(2, vec![gpu(1_000)]),
            job(3, vec![gpu(1_000)]),
        ];
        let report = run(&sim, &jobs);
        assert_eq!(report.stats.gpu_launches, 2);
        assert_eq!(report.stats.max_batch_occupancy, 3);
        // Serial concatenation would take 3µs; the pipeline finishes the
        // batch in 2µs (1000 + 500 + 500).
        assert_eq!(report.stats.gpu_overlap_saved, ns(1_000));
        let ends = [101_000u64, 101_500, 102_000];
        for ((q, arrival), end) in report.queries[1..].iter().zip([1u64, 2, 3]).zip(ends) {
            assert_eq!(q.latency, Some(ns(end - arrival)));
        }
    }

    #[test]
    fn four_cores_run_four_jobs_in_parallel() {
        let sim = ServerSim::new(ServerConfig::default());
        let jobs: Vec<_> = (0..4).map(|_| job(0, vec![cpu(100)])).collect();
        assert_eq!(latencies(&run(&sim, &jobs)), vec![ns(100); 4]);
    }

    #[test]
    fn fifth_job_queues_behind_cores() {
        let sim = ServerSim::new(ServerConfig::default());
        let jobs: Vec<_> = (0..5).map(|_| job(0, vec![cpu(100)])).collect();
        let mut expect = vec![ns(100); 4];
        expect.push(ns(200));
        assert_eq!(latencies(&run(&sim, &jobs)), expect);
    }

    #[test]
    fn gpu_is_a_single_server() {
        let sim = ServerSim::new(ServerConfig::default());
        let jobs: Vec<_> = (0..3).map(|_| job(0, vec![gpu(100)])).collect();
        // FIFO by submission index on one device.
        assert_eq!(
            latencies(&run(&sim, &jobs)),
            vec![ns(100), ns(200), ns(300)]
        );
    }

    #[test]
    fn arrivals_respected() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            ..Default::default()
        });
        // The second job arrives after the first finished: no queueing.
        let report = run(&sim, &[job(0, vec![cpu(10)]), job(1_000, vec![cpu(10)])]);
        assert_eq!(latencies(&report), vec![ns(10), ns(10)]);
    }

    #[test]
    fn head_of_line_blocking_hurts_cpu_only_tails() {
        // One 10 ms whale then many 0.1 ms queries on one core: the tail
        // explodes. Offloading the whale's heavy stage to the GPU frees
        // the core — the Fig. 15 mechanism in miniature.
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            ..Default::default()
        });
        let tail_behind = |whale: Vec<StageReq>| {
            let mut jobs = vec![job(0, whale)];
            jobs.extend((0..20).map(|i| job(1_000 + i * 1_000, vec![cpu(100_000)])));
            latencies(&run(&sim, &jobs))
                .into_iter()
                .max()
                .expect("non-empty")
        };
        let max_cpu = tail_behind(vec![cpu(10_000_000)]);
        let max_hybrid = tail_behind(vec![gpu(1_000_000), cpu(100_000)]);
        assert!(
            max_hybrid.as_nanos() * 3 < max_cpu.as_nanos(),
            "hybrid tail {max_hybrid} vs cpu tail {max_cpu}"
        );
    }

    #[test]
    fn zero_duration_gpu_stage_yields_after_same_instant_ready_events() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            ..Default::default()
        });
        let latencies_with = |first: StageReq| {
            latencies(&run(
                &sim,
                &[job(0, vec![first, cpu(100)]), job(0, vec![cpu(100)])],
            ))
        };
        // A 0 ns CPU stage completes inside job 0's own READY event, so
        // job 0's next stage is queued ahead of job 1's first (same
        // instant, lower job index) and takes the core.
        assert_eq!(latencies_with(cpu(0)), vec![ns(100), ns(200)]);
        // A 0 ns GPU stage waits for the dispatcher, which fires after
        // every READY of the instant — job 1 has the core by then.
        assert_eq!(latencies_with(gpu(0)), vec![ns(200), ns(100)]);
    }

    #[test]
    fn capacity_sheds_excess_arrivals() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig {
                capacity: 2,
                ..Default::default()
            },
            batching: None,
        });
        // Three simultaneous arrivals into capacity 2.
        let jobs: Vec<_> = (0..3).map(|_| job(0, vec![cpu(100)])).collect();
        let report = run(&sim, &jobs);
        let shed = report
            .queries
            .iter()
            .filter(|q| q.outcome == Outcome::Shed)
            .count();
        assert_eq!(shed, 1);
        assert_eq!(report.stats.shed, 1);
        assert_eq!(report.stats.admitted, 2);
        assert_eq!(report.queries[2].latency, None);
    }

    #[test]
    fn gpu_backlog_degrades_to_cpu_fallback() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 2,
            admission: AdmissionConfig {
                capacity: usize::MAX,
                gpu_depth_threshold: 0,
                policy: OverloadPolicy::DegradeToCpuOnly,
                ..Default::default()
            },
            batching: None,
        });
        // First query parks a long stage on the GPU; the second arrives
        // while it runs and must degrade to its fallback.
        let mut second = job(10, vec![gpu(1_000_000)]);
        second.1.cpu_fallback = Some(ns(5_000_000));
        let report = run(&sim, &[job(0, vec![gpu(1_000_000)]), second]);
        assert_eq!(report.queries[0].outcome, Outcome::Completed);
        assert_eq!(report.queries[1].outcome, Outcome::Degraded);
        // Degraded latency is the fallback service time (idle cores).
        assert_eq!(report.queries[1].latency, Some(ns(5_000_000)));
        assert_eq!(report.stats.degraded, 1);
    }

    #[test]
    fn gpu_backlog_sheds_without_fallback() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 2,
            admission: AdmissionConfig {
                capacity: usize::MAX,
                gpu_depth_threshold: 0,
                policy: OverloadPolicy::Shed,
                ..Default::default()
            },
            batching: None,
        });
        let report = run(
            &sim,
            &[job(0, vec![gpu(1_000_000)]), job(10, vec![gpu(100)])],
        );
        assert_eq!(report.queries[1].outcome, Outcome::Shed);
        assert_eq!(report.stats.shed, 1);
    }

    #[test]
    fn serve_stale_answers_shed_queries_from_the_cache() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig {
                capacity: 1,
                serve_stale: true,
                ..Default::default()
            },
            batching: None,
        });
        // B arrives while A fills the only slot. With a cached answer
        // it is served stale at the lookup cost instead of shed.
        let mut b = job(10, vec![cpu(100)]);
        b.1.stale_available = Some(ns(2_000));
        b.1.deadline = Some(ns(5_000));
        let report = run(&sim, &[job(0, vec![cpu(1_000_000)]), b]);
        assert_eq!(report.queries[1].outcome, Outcome::ServedStale);
        assert_eq!(report.queries[1].latency, Some(ns(2_000)));
        assert_eq!(report.queries[1].deadline_met, Some(true));
        assert_eq!(report.stats.served_stale, 1);
        assert_eq!(report.stats.shed, 0);
    }

    #[test]
    fn serve_stale_needs_both_policy_and_cached_answer() {
        let capacity_one = |serve_stale| ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig {
                capacity: 1,
                serve_stale,
                ..Default::default()
            },
            batching: None,
        };
        // Policy off: a cached answer does not prevent the shed.
        let mut b = job(10, vec![cpu(100)]);
        b.1.stale_available = Some(ns(2_000));
        let whale = job(0, vec![cpu(1_000_000)]);
        let report = run(
            &ServerSim::new(capacity_one(false)),
            &[whale.clone(), b.clone()],
        );
        assert_eq!(report.queries[1].outcome, Outcome::Shed);
        // Policy on but no cached answer: still shed.
        b.1.stale_available = None;
        let report = run(&ServerSim::new(capacity_one(true)), &[whale, b]);
        assert_eq!(report.queries[1].outcome, Outcome::Shed);
        assert_eq!(report.stats.served_stale, 0);
    }

    #[test]
    fn identical_inflight_queries_coalesce_on_the_leader() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 4,
            ..Default::default()
        });
        // Three arrivals of the same query while the first is in
        // flight; a fourth arrives after completion and runs itself.
        let mut jobs = vec![
            job(0, vec![cpu(1_000)]),
            job(100, vec![cpu(1_000)]),
            job(200, vec![cpu(1_000)]),
            job(5_000, vec![cpu(1_000)]),
        ];
        for jb in &mut jobs {
            jb.1.coalesce_key = Some(42);
        }
        let report = run(&sim, &jobs);
        assert_eq!(report.queries[0].outcome, Outcome::Completed);
        assert_eq!(report.queries[1].outcome, Outcome::Coalesced);
        assert_eq!(report.queries[2].outcome, Outcome::Coalesced);
        // Followers complete at the leader's instant (t = 1000),
        // measured from their own arrivals.
        assert_eq!(report.queries[1].latency, Some(ns(900)));
        assert_eq!(report.queries[2].latency, Some(ns(800)));
        // The key was released at completion: the late arrival leads
        // its own flight.
        assert_eq!(report.queries[3].outcome, Outcome::Completed);
        assert_eq!(report.stats.coalesced, 2);
        assert_eq!(report.stats.admitted, 2);
    }

    #[test]
    fn coalesced_followers_consume_no_capacity() {
        // Capacity 1: the leader takes the slot, nine identical
        // followers still get answers; a *different* query is shed.
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig {
                capacity: 1,
                ..Default::default()
            },
            batching: None,
        });
        let mut jobs: Vec<_> = (0..11).map(|i| job(i, vec![cpu(10_000)])).collect();
        for jb in jobs.iter_mut() {
            jb.1.coalesce_key = Some(7);
        }
        jobs[10].1.coalesce_key = Some(8); // a different query: no slot left
        let report = run(&sim, &jobs);
        assert_eq!(report.stats.coalesced, 9);
        assert_eq!(report.stats.shed, 1);
        assert_eq!(report.queries[10].outcome, Outcome::Shed);
        assert!(report.queries[..10].iter().all(|q| q.latency.is_some()));
    }

    #[test]
    fn batching_coalesces_queued_small_stages() {
        let b = BatchConfig {
            max_batch: 4,
            small_stage: ns(1_000),
            per_stage_overhead: ns(100),
            copy_fraction: 0.0,
        };
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig::default(),
            batching: Some(b),
        });
        // A long stage occupies the GPU; three small stages queue behind
        // it and coalesce into one launch.
        let jobs = vec![
            job(0, vec![gpu(10_000)]),
            job(1, vec![gpu(500)]),
            job(2, vec![gpu(500)]),
            job(3, vec![gpu(500)]),
        ];
        let report = run(&sim, &jobs);
        assert_eq!(report.stats.gpu_launches, 2, "long launch + one batch");
        assert_eq!(report.stats.max_batch_occupancy, 3);
        assert_eq!(report.stats.gpu_time_saved, ns(200));
        // Members run concatenated from 10_000, the second and third
        // shaving the 100ns overhead; each completes at its own offset.
        let ends = [10_500u64, 10_900, 11_300];
        for ((q, arrival), end) in report.queries[1..].iter().zip([1u64, 2, 3]).zip(ends) {
            assert_eq!(q.latency, Some(ns(end - arrival)));
        }
    }

    #[test]
    fn large_stages_do_not_batch() {
        let b = BatchConfig {
            max_batch: 4,
            small_stage: ns(100),
            per_stage_overhead: ns(10),
            copy_fraction: 0.0,
        };
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            admission: AdmissionConfig::default(),
            batching: Some(b),
        });
        let jobs = vec![
            job(0, vec![gpu(10_000)]),
            job(1, vec![gpu(5_000)]),
            job(2, vec![gpu(5_000)]),
        ];
        let report = run(&sim, &jobs);
        assert_eq!(report.stats.gpu_launches, 3);
        assert_eq!(report.stats.max_batch_occupancy, 1);
        assert_eq!(report.stats.gpu_time_saved, VirtualNanos::ZERO);
    }

    #[test]
    fn split_shadow_occupies_a_core_without_delaying_the_stage() {
        let sim = ServerSim::new(ServerConfig {
            cpu_workers: 1,
            ..Default::default()
        });
        let report = run(
            &sim,
            &[
                job(0, vec![split(10_000, 8_000)]),
                // Arrives after the split dispatched: its CPU stage queues
                // behind the shadow on the single core.
                job(1, vec![cpu(1_000)]),
            ],
        );
        // The split's own latency is its recorded max-of-lanes duration —
        // the shadow runs inside the stage window, never extending it.
        assert_eq!(report.queries[0].latency, Some(ns(10_000)));
        assert_eq!(report.queries[1].latency, Some(ns(8_999)));
        assert_eq!(report.stats.cpu_shadow_busy, ns(8_000));
        let shadow: Vec<_> = report
            .timeline
            .spans
            .iter()
            .filter(|s| s.resource == "cpu" && s.job == 0)
            .collect();
        assert_eq!(shadow.len(), 1, "one host-lane span per split stage");
        assert_eq!((shadow[0].start, shadow[0].end), (ns(0), ns(8_000)));
    }

    #[test]
    fn deadlines_are_reported() {
        let sim = ServerSim::new(ServerConfig::default());
        let mut hit = job(0, vec![cpu(100)]);
        hit.1.deadline = Some(ns(200));
        let mut miss = job(0, vec![cpu(100_000)]);
        miss.1.deadline = Some(ns(200));
        let none = job(0, vec![cpu(100)]);
        let report = run(&sim, &[hit, miss, none]);
        assert_eq!(report.queries[0].deadline_met, Some(true));
        assert_eq!(report.queries[1].deadline_met, Some(false));
        assert_eq!(report.queries[2].deadline_met, None);
    }

    #[test]
    fn empty_schedule_completes_instantly() {
        let sim = ServerSim::new(ServerConfig::default());
        let report = run(&sim, &[job(5, vec![])]);
        assert_eq!(report.queries[0].latency, Some(ns(0)));
        assert_eq!(report.queries[0].outcome, Outcome::Completed);
    }
}
