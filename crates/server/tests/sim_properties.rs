//! Queueing sanity properties of the serving simulator with default
//! admission and no batching — the paper's plain N-cores-plus-one-GPU
//! model (Fig. 15).

use griffin::serving::{Resource, StageReq};
use griffin_gpu_sim::VirtualNanos;
use griffin_server::{PlannedQuery, ServerConfig, ServerSim};
use proptest::collection::vec;
use proptest::prelude::*;

fn plan(stages: Vec<StageReq>) -> PlannedQuery {
    PlannedQuery {
        stages,
        ..Default::default()
    }
}

fn latencies(
    workers: usize,
    jobs: &[PlannedQuery],
    arrivals: &[VirtualNanos],
) -> Vec<VirtualNanos> {
    let config = ServerConfig {
        cpu_workers: workers,
        ..Default::default()
    };
    ServerSim::new(config)
        .run(jobs, arrivals)
        .queries
        .iter()
        .map(|q| q.latency.expect("default admission sheds nothing"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Serving causality: no job finishes before its arrival plus its own
    /// service demand; work is conserved.
    #[test]
    fn serving_respects_causality(durations in vec(vec(1u64..10_000, 1..4), 1..40),
                                  gaps in vec(0u64..5_000, 1..40),
                                  workers in 1usize..6) {
        let n = durations.len().min(gaps.len());
        let mut arrival = VirtualNanos::ZERO;
        let mut arrivals = Vec::new();
        let mut jobs = Vec::new();
        for i in 0..n {
            arrival += VirtualNanos::from_nanos(gaps[i]);
            arrivals.push(arrival);
            jobs.push(plan(durations[i]
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    let r = if k % 2 == 0 { Resource::Cpu } else { Resource::Gpu };
                    StageReq::new(r, VirtualNanos::from_nanos(d))
                })
                .collect()));
        }
        let lat = latencies(workers, &jobs, &arrivals);
        prop_assert_eq!(lat.len(), jobs.len());
        for (job, &l) in jobs.iter().zip(&lat) {
            let service: VirtualNanos = job.stages.iter().map(|s| s.duration).sum();
            prop_assert!(l >= service, "latency {} below service {}", l, service);
        }
    }

    /// More workers never hurt: latencies under w+1 cores are <= under w
    /// for single-stage CPU jobs (a standard queueing sanity property).
    #[test]
    fn extra_workers_never_hurt(durations in vec(1u64..50_000, 2..60)) {
        let jobs: Vec<PlannedQuery> = durations
            .iter()
            .map(|&d| plan(vec![StageReq::new(Resource::Cpu, VirtualNanos::from_nanos(d))]))
            .collect();
        let arrivals: Vec<VirtualNanos> = (0..jobs.len() as u64)
            .map(|i| VirtualNanos::from_nanos(i * 500))
            .collect();
        let total = |workers| -> u64 {
            latencies(workers, &jobs, &arrivals).iter().map(|l| l.as_nanos()).sum()
        };
        let (few, many) = (total(2), total(4));
        prop_assert!(many <= few, "4 cores {many} vs 2 cores {few}");
    }
}
