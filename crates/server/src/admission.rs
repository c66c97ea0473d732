//! Admission control: capacity limits and GPU overload policies.
//!
//! A production retrieval node cannot queue unboundedly — the paper's
//! tail-latency study (Fig. 15) shows exactly what happens when it
//! tries. The admission queue bounds the number of in-flight queries,
//! and an overload policy decides what to do with a hybrid query when
//! the single shared GPU is already deep in backlog: reject it outright,
//! or *degrade* it to CPU-only execution (the co-processing discipline
//! from the fgssjoin line of work — when the accelerator is the
//! bottleneck, falling back to the host beats queueing behind it).

use griffin_gpu_sim::VirtualNanos;

/// What to do with a GPU-hungry query when the GPU queue is too deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Reject the query (it is counted, not simulated).
    Shed,
    /// Run it CPU-only instead, using its measured CPU-only schedule.
    DegradeToCpuOnly,
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries in flight (arrived, not yet finished). Arrivals
    /// beyond this are shed regardless of policy.
    pub capacity: usize,
    /// GPU queue depth (stages waiting or running on the device) above
    /// which the overload policy applies to newly arriving queries with
    /// GPU stages.
    pub gpu_depth_threshold: usize,
    /// The overload response.
    pub policy: OverloadPolicy,
    /// Answer queries that would otherwise be shed from the result
    /// cache when a (possibly stale) cached answer exists
    /// ([`crate::PlannedQuery::stale_available`]). The outcome is
    /// explicitly flagged [`Outcome::ServedStale`] — a client can always
    /// tell a stale answer from a fresh one; nothing is silently stale.
    pub serve_stale: bool,
}

impl Default for AdmissionConfig {
    /// Effectively-unbounded admission: nothing is shed or degraded.
    /// Serving experiments override these.
    fn default() -> Self {
        AdmissionConfig {
            capacity: usize::MAX,
            gpu_depth_threshold: usize::MAX,
            policy: OverloadPolicy::DegradeToCpuOnly,
            serve_stale: false,
        }
    }
}

/// What happened to one query at (and after) admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran its measured schedule to completion.
    Completed,
    /// Ran, but on its CPU-only fallback schedule.
    Degraded,
    /// Rejected at admission; never ran.
    Shed,
    /// Rejected at admission but answered from the result cache with a
    /// possibly stale entry ([`AdmissionConfig::serve_stale`]). The
    /// latency is the cache-lookup cost; the flag is the contract —
    /// staleness is always visible to the caller.
    ServedStale,
    /// Coalesced onto an identical in-flight query (single-flight): it
    /// consumed no execution resources and completed when its leader
    /// did.
    Coalesced,
}

/// Per-query serving result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedQuery {
    pub outcome: Outcome,
    /// Completion − arrival; `None` for shed queries.
    pub latency: Option<VirtualNanos>,
    /// Whether the latency met the request's deadline (`None` when the
    /// request had no deadline, or the query was shed).
    pub deadline_met: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{GriffinServer, PlannedQuery, ServeReport};
    use crate::sim::{ServerConfig, ServerSim};
    use griffin::serving::{Resource, StageReq};
    use griffin_telemetry::Telemetry;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    /// A hand-built job: its arrival instant and its plan.
    type Job = (u64, PlannedQuery);

    fn cpu_job(arrival: u64, dur: u64) -> Job {
        let plan = PlannedQuery {
            stages: vec![StageReq::new(Resource::Cpu, ns(dur))],
            ..Default::default()
        };
        (arrival, plan)
    }

    fn gpu_job(arrival: u64, dur: u64, fallback: Option<u64>) -> Job {
        let plan = PlannedQuery {
            stages: vec![StageReq::new(Resource::Gpu, ns(dur))],
            cpu_fallback: fallback.map(ns),
            ..Default::default()
        };
        (arrival, plan)
    }

    /// Two cores, no batching, the given admission policy.
    fn run(admission: AdmissionConfig, jobs: &[Job]) -> ServeReport {
        let (arrivals, plans): (Vec<VirtualNanos>, Vec<PlannedQuery>) =
            jobs.iter().map(|(a, p)| (ns(*a), p.clone())).unzip();
        ServerSim::new(ServerConfig {
            cpu_workers: 2,
            admission,
            batching: None,
        })
        .run(&plans, &arrivals)
    }

    #[test]
    fn default_admits_everything() {
        let a = AdmissionConfig::default();
        assert_eq!(a.capacity, usize::MAX);
        assert_eq!(a.gpu_depth_threshold, usize::MAX);
    }

    #[test]
    fn burst_beyond_capacity_sheds_exactly_the_overflow() {
        let admission = AdmissionConfig {
            capacity: 4,
            ..Default::default()
        };
        // Ten queries land in the same instant; the queue holds four.
        let jobs: Vec<Job> = (0..10).map(|_| cpu_job(0, 1_000)).collect();
        let report = run(admission, &jobs);
        assert_eq!(report.stats.admitted, 4);
        assert_eq!(report.stats.shed, 6);
        // Arrival order breaks the tie: the first four by submission
        // index win the slots, deterministically.
        for (j, q) in report.queries.iter().enumerate() {
            let expect = if j < 4 {
                Outcome::Completed
            } else {
                Outcome::Shed
            };
            assert_eq!(q.outcome, expect, "job {j}");
        }
    }

    #[test]
    fn capacity_bounds_in_flight_queries_not_total_volume() {
        let admission = AdmissionConfig {
            capacity: 1,
            ..Default::default()
        };
        // A runs [0, 100). B arrives while A is in flight: shed. C
        // arrives after A finished: the slot is free again.
        let jobs = vec![cpu_job(0, 100), cpu_job(50, 100), cpu_job(150, 100)];
        let report = run(admission, &jobs);
        assert_eq!(report.queries[0].outcome, Outcome::Completed);
        assert_eq!(report.queries[1].outcome, Outcome::Shed);
        assert_eq!(report.queries[2].outcome, Outcome::Completed);
        assert_eq!(report.stats.shed, 1);
        assert_eq!(report.stats.admitted, 2);
    }

    #[test]
    fn same_burst_sheds_or_degrades_by_policy() {
        // Four GPU queries in a burst behind a zero-depth threshold: the
        // first occupies the device, the rest are over the line.
        let burst = || {
            vec![
                gpu_job(0, 10_000, Some(50_000)),
                gpu_job(1, 10_000, Some(50_000)),
                gpu_job(2, 10_000, Some(50_000)),
                gpu_job(3, 10_000, Some(50_000)),
            ]
        };
        let overloaded = |policy| AdmissionConfig {
            capacity: usize::MAX,
            gpu_depth_threshold: 0,
            policy,
            ..Default::default()
        };

        let shed = run(overloaded(OverloadPolicy::Shed), &burst());
        assert_eq!(shed.queries[0].outcome, Outcome::Completed);
        assert_eq!(shed.stats.shed, 3, "shed policy rejects the backlog");
        assert_eq!(shed.stats.degraded, 0);

        let deg = run(overloaded(OverloadPolicy::DegradeToCpuOnly), &burst());
        assert_eq!(deg.stats.shed, 0, "degrade policy drops nothing");
        assert_eq!(deg.stats.degraded, 3);
        assert!(
            deg.queries.iter().all(|q| q.latency.is_some()),
            "every query is served under degrade"
        );
        // Degraded queries run their (slower) CPU-only schedule on the
        // idle cores instead of queueing behind the device.
        assert_eq!(deg.queries[1].latency, Some(ns(50_000)));
    }

    #[test]
    fn degrade_policy_sheds_when_no_fallback_exists() {
        let admission = AdmissionConfig {
            capacity: usize::MAX,
            gpu_depth_threshold: 0,
            policy: OverloadPolicy::DegradeToCpuOnly,
            ..Default::default()
        };
        // The second query has no measured CPU-only schedule (e.g. it
        // was planned GpuOnly), so degrade cannot apply.
        let jobs = vec![gpu_job(0, 10_000, None), gpu_job(1, 100, None)];
        let report = run(admission, &jobs);
        assert_eq!(report.queries[1].outcome, Outcome::Shed);
        assert_eq!(report.stats.shed, 1);
        assert_eq!(report.stats.degraded, 0);
    }

    #[test]
    fn shed_and_degrade_metrics_surface_through_server_telemetry() {
        let mut server = GriffinServer::new(ServerConfig {
            cpu_workers: 2,
            admission: AdmissionConfig {
                capacity: 1,
                ..Default::default()
            },
            batching: None,
        });
        server.set_telemetry(Telemetry::enabled());
        let planned: Vec<PlannedQuery> = (0..3)
            .map(|_| PlannedQuery {
                service_time: ns(1_000),
                stages: vec![StageReq::new(Resource::Cpu, ns(1_000))],
                deadline: Some(ns(10_000)),
                ..Default::default()
            })
            .collect();
        // All three arrive together into a single slot.
        let report = server.replay(&planned, &[ns(0), ns(0), ns(0)]);
        assert_eq!(report.stats.admitted, 1);
        assert_eq!(report.stats.shed, 2);

        let registry = &server.telemetry().recorder().expect("enabled").registry;
        assert_eq!(registry.counter("griffin_server_admitted_total"), 1);
        assert_eq!(registry.counter("griffin_server_shed_total"), 2);
        // Shed queries carried deadlines, so they count as missed.
        assert_eq!(registry.counter("griffin_server_deadline_missed_total"), 2);
    }
}
