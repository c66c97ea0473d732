//! Tail flight recorder: full forensics for the slowest queries only.
//!
//! Keeping a complete attribution tree for every query would dwarf the
//! index itself under load; keeping none makes a p99.9 spike
//! undebuggable. The flight recorder splits the difference the way
//! aircraft do: a bounded ring that retains the *interesting* flights —
//! queries whose latency breaches a rolling quantile threshold — each
//! with its profile and a one-line dominant-cause verdict
//! ([`griffin_telemetry::Verdict`]), so the on-call answer to "why was
//! that query slow?" is already recorded when the page fires.
//!
//! Retention policy:
//! * every served latency feeds a rolling [`Histogram`];
//! * until [`FlightConfig::min_samples`] latencies are seen the
//!   threshold is undefined and every query is retained (an empty
//!   recorder is worse than an over-full one at startup);
//! * afterwards only queries at or above the configured latency
//!   quantile are retained;
//! * the ring never exceeds [`FlightConfig::capacity`] — the oldest
//!   retained flight is evicted to admit a new one.

use std::collections::VecDeque;

use griffin::serving::{Resource, StageReq};
use griffin_gpu_sim::VirtualNanos;
use griffin_telemetry::{Cause, Histogram, QueryProfile, Verdict};

use crate::admission::Outcome;

/// Flight-recorder tuning.
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Maximum retained flights (ring bound).
    pub capacity: usize,
    /// Latency quantile a query must breach to be retained (0.0..=1.0).
    pub quantile: f64,
    /// Latency samples required before the threshold applies; until
    /// then every query is retained.
    pub min_samples: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 32,
            quantile: 0.95,
            min_samples: 64,
        }
    }
}

/// One retained flight: everything needed to explain a slow query
/// after the fact.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Index of the query in the replayed batch (submission order).
    pub query_index: usize,
    /// The engine-trace query id, when planning ran with telemetry —
    /// keys into the trace and the attribution profile.
    pub trace_query: Option<u64>,
    pub outcome: Outcome,
    /// Completion − arrival.
    pub latency: VirtualNanos,
    /// Time actually spent in service (the schedule that ran).
    pub service: VirtualNanos,
    /// `latency − service`: time lost to queueing and batching.
    pub queue_wait: VirtualNanos,
    /// Dominant-cause verdict for the latency.
    pub verdict: Verdict,
    /// Full attribution tree, when a trace was available at plan time.
    pub profile: Option<QueryProfile>,
}

/// Bounded ring of tail-latency flights.
#[derive(Default)]
pub struct FlightRecorder {
    config: FlightConfig,
    latencies: Histogram,
    ring: VecDeque<FlightRecord>,
    retained_total: u64,
    evicted_total: u64,
}

impl FlightRecorder {
    pub fn new(config: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            config,
            ..FlightRecorder::default()
        }
    }

    pub fn config(&self) -> &FlightConfig {
        &self.config
    }

    /// The current retention threshold; `None` while warming up.
    pub fn threshold(&self) -> Option<VirtualNanos> {
        if self.latencies.count() < self.config.min_samples {
            None
        } else {
            Some(VirtualNanos::from_nanos(
                self.latencies.quantile(self.config.quantile),
            ))
        }
    }

    /// Feed one served query. Returns true when the flight was retained.
    pub fn observe(&mut self, record: FlightRecord) -> bool {
        let latency = record.latency;
        let retain = match self.threshold() {
            None => true,
            Some(t) => latency >= t,
        };
        self.latencies.record(latency.as_nanos());
        if retain {
            if self.ring.len() >= self.config.capacity.max(1) {
                self.ring.pop_front();
                self.evicted_total += 1;
            }
            self.ring.push_back(record);
            self.retained_total += 1;
        }
        retain
    }

    /// Retained flights, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Flights retained over the recorder's lifetime (≥ `len()`).
    pub fn retained_total(&self) -> u64 {
        self.retained_total
    }

    /// Flights pushed out of the ring to admit newer ones.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Latencies observed so far (all queries, retained or not).
    pub fn observed_total(&self) -> u64 {
        self.latencies.count()
    }
}

/// Dominant-cause verdict from the serving schedule alone, for queries
/// planned without telemetry: attributes service time to the CPU/GPU
/// stages and weighs it against queue wait. Coarser than
/// [`QueryProfile::dominant_cause`] — it cannot separate PCIe from
/// kernels or see fault recovery — but it never misattributes queueing.
pub fn verdict_from_stages(
    stages: &[StageReq],
    queue_wait: VirtualNanos,
    latency: VirtualNanos,
) -> Verdict {
    let mut cpu = VirtualNanos::ZERO;
    let mut gpu = VirtualNanos::ZERO;
    for s in stages {
        match s.resource {
            Resource::Cpu => cpu += s.duration,
            Resource::Gpu => gpu += s.duration,
        }
    }
    let buckets = [
        (Cause::Queueing, queue_wait),
        (Cause::GpuCompute, gpu),
        (Cause::CpuCompute, cpu),
    ];
    let (cause, dominant) = buckets
        .into_iter()
        .reduce(|a, b| if b.1 > a.1 { b } else { a })
        .expect("buckets nonempty");
    Verdict {
        cause,
        dominant,
        total: latency,
        cache_flips: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    fn flight(i: usize, latency: u64) -> FlightRecord {
        let latency = ns(latency);
        FlightRecord {
            query_index: i,
            trace_query: None,
            outcome: Outcome::Completed,
            latency,
            service: latency,
            queue_wait: VirtualNanos::ZERO,
            verdict: verdict_from_stages(&[], VirtualNanos::ZERO, latency),
            profile: None,
        }
    }

    #[test]
    fn warmup_retains_everything_then_threshold_applies() {
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity: 100,
            quantile: 0.9,
            min_samples: 10,
        });
        for i in 0..10 {
            assert!(fr.observe(flight(i, 1_000)));
        }
        assert!(fr.threshold().is_some());
        // 1_000ns sits at the p100 of the warmup set; a faster query is
        // now below the p90 threshold and must be dropped.
        assert!(!fr.observe(flight(10, 10)));
        assert!(fr.observe(flight(11, 50_000)));
        assert_eq!(fr.len(), 11);
        assert_eq!(fr.observed_total(), 12);
    }

    #[test]
    fn ring_never_exceeds_capacity() {
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity: 4,
            quantile: 0.5,
            min_samples: 1_000_000, // stay in warmup: retain all
        });
        for i in 0..50 {
            fr.observe(flight(i, 100 + i as u64));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.retained_total(), 50);
        assert_eq!(fr.evicted_total(), 46);
        // Oldest evicted first: the ring holds the last four flights.
        let idx: Vec<usize> = fr.records().map(|r| r.query_index).collect();
        assert_eq!(idx, vec![46, 47, 48, 49]);
    }

    #[test]
    fn stage_verdict_blames_the_biggest_bucket() {
        let stages = [
            StageReq::new(Resource::Cpu, ns(100)),
            StageReq::new(Resource::Gpu, ns(700)),
        ];
        let v = verdict_from_stages(&stages, ns(50), ns(850));
        assert_eq!(v.cause, Cause::GpuCompute);
        let v = verdict_from_stages(&stages, ns(5_000), ns(5_800));
        assert_eq!(v.cause, Cause::Queueing);
        assert!(v.one_line().starts_with("queueing"));
    }
}
