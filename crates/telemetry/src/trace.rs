//! Structured query tracing.
//!
//! A [`Recorder`] accumulates [`TraceEvent`]s — one per engine step,
//! scheduler decision, kernel launch, and PCIe transfer — all stamped
//! with device virtual time. The engine tags events with a query id
//! handed out by [`Recorder::begin_query`]; device-level events (which
//! fire from inside the GPU simulator and know nothing about queries)
//! pick up the current query id automatically.
//!
//! Everything here lives behind the [`crate::Telemetry`] handle: when
//! telemetry is disabled no recorder exists and recording callsites
//! reduce to a single branch on an `Option`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use griffin_gpu_sim::VirtualNanos;

use crate::json;
use crate::metrics::Registry;

/// One structured trace record. Times are device virtual nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A query entered the engine.
    QueryStart { query: u64, terms: usize },
    /// One `Scheduler::decide` call, with every input that shaped it.
    SchedDecision {
        query: u64,
        short_len: usize,
        long_len: usize,
        /// `long_len / short_len` (0 when the intermediate is empty).
        ratio: f64,
        /// The threshold actually compared against (after hysteresis).
        effective_threshold: f64,
        /// Whether placement-aware hysteresis inflated the threshold (a
        /// multiplier other than 1.0 was applied).
        hysteresis_applied: bool,
        /// "cpu", "gpu", or "split" (co-execution on both).
        chosen: &'static str,
        /// The long operand's decoded docIDs sit in the host cache.
        host_cached: bool,
        /// The long operand is device-resident (LRU or prefetch).
        device_cached: bool,
        /// The cache-aware override changed the baseline decision —
        /// this operation was "won by cache".
        cache_flip: bool,
    },
    /// One engine step (Init / Intersect / Migrate / TopK).
    Step {
        query: u64,
        /// "init", "intersect", "split_intersect", "migrate", or "topk".
        op: &'static str,
        /// For "intersect": the planned term index; otherwise 0.
        arg: usize,
        /// "cpu" or "gpu".
        proc: &'static str,
        duration: VirtualNanos,
        /// Intermediate length after the step.
        inter_len: usize,
        /// Busy time of the host lane for "split_intersect" steps
        /// (zero for every other op). Carried on the step itself so the
        /// profiler can attribute the two concurrent lanes exactly,
        /// without reassembling them from neighbouring events.
        cpu_lane: VirtualNanos,
        /// Busy time of the device lane for "split_intersect" steps
        /// (zero for every other op).
        gpu_lane: VirtualNanos,
    },
    /// A GPU kernel launch retired (from the device observer).
    KernelLaunch {
        query: u64,
        name: &'static str,
        start: VirtualNanos,
        duration: VirtualNanos,
        total_warps: u64,
        divergence_rate: f64,
        coalescing_factor: f64,
        gmem_transactions: u64,
    },
    /// A PCIe transfer completed (from the device observer).
    PcieTransfer {
        query: u64,
        /// "htod" or "dtoh".
        direction: &'static str,
        bytes: u64,
        start: VirtualNanos,
        duration: VirtualNanos,
    },
    /// A CPU lane of a co-executed split ran concurrently with device
    /// work (the engine records it; the device observer cannot see host
    /// execution). `start` is in device virtual time, so the lane lines
    /// up with the kernels and transfers it overlapped.
    CpuLane {
        query: u64,
        /// The operation the lane belonged to (e.g. "split_intersect").
        op: &'static str,
        start: VirtualNanos,
        duration: VirtualNanos,
    },
    /// The query finished.
    QueryEnd {
        query: u64,
        total: VirtualNanos,
        results: usize,
    },
}

impl TraceEvent {
    /// Render one event as a JSON object with a `"type"` discriminant.
    pub fn to_json(&self) -> String {
        let mut o = json::Object::new();
        match self {
            TraceEvent::QueryStart { query, terms } => {
                o.str("type", "query_start")
                    .u64("query", *query)
                    .usize("terms", *terms);
            }
            TraceEvent::SchedDecision {
                query,
                short_len,
                long_len,
                ratio,
                effective_threshold,
                hysteresis_applied,
                chosen,
                host_cached,
                device_cached,
                cache_flip,
            } => {
                o.str("type", "sched_decision")
                    .u64("query", *query)
                    .usize("short_len", *short_len)
                    .usize("long_len", *long_len)
                    .f64("ratio", *ratio)
                    .f64("effective_threshold", *effective_threshold)
                    .bool("hysteresis_applied", *hysteresis_applied)
                    .str("chosen", chosen)
                    .bool("host_cached", *host_cached)
                    .bool("device_cached", *device_cached)
                    .bool("cache_flip", *cache_flip);
            }
            TraceEvent::Step {
                query,
                op,
                arg,
                proc,
                duration,
                inter_len,
                cpu_lane,
                gpu_lane,
            } => {
                o.str("type", "step")
                    .u64("query", *query)
                    .str("op", op)
                    .usize("arg", *arg)
                    .str("proc", proc)
                    .u64("duration_ns", duration.as_nanos())
                    .usize("inter_len", *inter_len);
                if *op == "split_intersect" {
                    o.u64("cpu_lane_ns", cpu_lane.as_nanos())
                        .u64("gpu_lane_ns", gpu_lane.as_nanos());
                }
            }
            TraceEvent::KernelLaunch {
                query,
                name,
                start,
                duration,
                total_warps,
                divergence_rate,
                coalescing_factor,
                gmem_transactions,
            } => {
                o.str("type", "kernel_launch")
                    .u64("query", *query)
                    .str("kernel", name)
                    .u64("start_ns", start.as_nanos())
                    .u64("duration_ns", duration.as_nanos())
                    .u64("total_warps", *total_warps)
                    .f64("divergence_rate", *divergence_rate)
                    .f64("coalescing_factor", *coalescing_factor)
                    .u64("gmem_transactions", *gmem_transactions);
            }
            TraceEvent::PcieTransfer {
                query,
                direction,
                bytes,
                start,
                duration,
            } => {
                o.str("type", "pcie_transfer")
                    .u64("query", *query)
                    .str("direction", direction)
                    .u64("bytes", *bytes)
                    .u64("start_ns", start.as_nanos())
                    .u64("duration_ns", duration.as_nanos());
            }
            TraceEvent::CpuLane {
                query,
                op,
                start,
                duration,
            } => {
                o.str("type", "cpu_lane")
                    .u64("query", *query)
                    .str("op", op)
                    .u64("start_ns", start.as_nanos())
                    .u64("duration_ns", duration.as_nanos());
            }
            TraceEvent::QueryEnd {
                query,
                total,
                results,
            } => {
                o.str("type", "query_end")
                    .u64("query", *query)
                    .u64("total_ns", total.as_nanos())
                    .usize("results", *results);
            }
        }
        o.finish()
    }
}

/// Accumulates metrics and trace events for one telemetry session.
#[derive(Default)]
pub struct Recorder {
    /// The metrics registry fed alongside the event stream.
    pub registry: Registry,
    events: Mutex<Vec<TraceEvent>>,
    next_query: AtomicU64,
    current_query: AtomicU64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Allocate the next query id and make it current (device events
    /// recorded until the next `begin_query` are tagged with it).
    pub fn begin_query(&self) -> u64 {
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.current_query.store(id, Ordering::Relaxed);
        id
    }

    /// The query id device-level events are currently attributed to.
    pub fn current_query(&self) -> u64 {
        self.current_query.load(Ordering::Relaxed)
    }

    /// Append one event to the trace.
    pub fn push(&self, event: TraceEvent) {
        self.events.lock().expect("trace event lock").push(event);
    }

    /// Snapshot of the event stream so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace event lock").clone()
    }

    pub fn event_count(&self) -> usize {
        self.events.lock().expect("trace event lock").len()
    }

    /// The whole trace as a JSON array of event objects.
    pub fn events_to_json(&self) -> String {
        let events = self.events.lock().expect("trace event lock");
        let mut arr = json::Array::new();
        for e in events.iter() {
            arr.raw(&e.to_json());
        }
        arr.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_sequential_and_current() {
        let r = Recorder::new();
        assert_eq!(r.begin_query(), 0);
        assert_eq!(r.begin_query(), 1);
        assert_eq!(r.current_query(), 1);
    }

    #[test]
    fn events_round_trip_to_json() {
        let r = Recorder::new();
        let q = r.begin_query();
        r.push(TraceEvent::QueryStart { query: q, terms: 3 });
        r.push(TraceEvent::SchedDecision {
            query: q,
            short_len: 100,
            long_len: 5_000,
            ratio: 50.0,
            effective_threshold: 128.0,
            hysteresis_applied: false,
            chosen: "gpu",
            host_cached: false,
            device_cached: true,
            cache_flip: true,
        });
        r.push(TraceEvent::QueryEnd {
            query: q,
            total: VirtualNanos::from_nanos(1234),
            results: 10,
        });
        let js = r.events_to_json();
        assert!(js.starts_with('[') && js.ends_with(']'));
        assert!(js.contains("\"type\":\"sched_decision\""));
        assert!(js.contains("\"chosen\":\"gpu\""));
        assert!(js.contains("\"total_ns\":1234"));
        assert_eq!(r.event_count(), 3);
    }
}
