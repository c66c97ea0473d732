//! # griffin-telemetry — unified observability for the Griffin stack
//!
//! One crate collects everything the reproduction can observe about
//! itself, in three layers:
//!
//! * [`metrics`] — a zero-dependency metrics registry: counters, gauges,
//!   and log-bucketed histograms (p50/p95/p99/p99.9 over virtual
//!   nanoseconds), exported as Prometheus text or JSON;
//! * [`trace`] — a structured per-query trace: every engine step, every
//!   scheduler decision with its inputs, every GPU kernel launch and
//!   PCIe transfer, stamped with device virtual time;
//! * [`timeline`] — per-stage spans from the serving simulation, with
//!   per-resource utilization, queue-depth curves, and Chrome
//!   trace-event export (loadable in Perfetto);
//! * [`profile`] — a hierarchical span profiler that folds one query's
//!   trace into an exact attribution tree (query → phase → processor →
//!   kernel) whose self-times sum to the query's total latency, with
//!   folded-stack/JSON export and a dominant-cause verdict.
//!
//! The entry point is the [`Telemetry`] handle. It is a cheap-clone
//! `Option<Arc<Recorder>>`: [`Telemetry::disabled`] (the default) makes
//! every recording call a single branch, so instrumented code pays
//! nothing when observability is off — and because recording is
//! strictly passive, enabling it never changes query results or virtual
//! timings (the engine test suite proves this).

pub mod json;
pub mod metrics;
pub mod profile;
pub mod timeline;
pub mod trace;

use std::sync::{Arc, Mutex};

use griffin_gpu_sim::observe::{DeviceEvent, DeviceObserver, PoolStats};
use griffin_gpu_sim::{StreamKind, VirtualNanos};

pub use metrics::{Histogram, Registry};
pub use profile::{Cause, ProfileNode, QueryProfile, Verdict};
pub use timeline::{LaneUtilization, SpanEvent, Timeline};
pub use trace::{Recorder, TraceEvent};

/// Opt-in handle to a telemetry session.
///
/// Cloning shares the underlying [`Recorder`]; the disabled handle
/// carries no recorder at all.
#[derive(Clone, Default)]
pub struct Telemetry {
    recorder: Option<Arc<Recorder>>,
}

impl Telemetry {
    /// The no-op handle: all recording calls return immediately.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A live handle with a fresh recorder.
    pub fn enabled() -> Telemetry {
        Telemetry {
            recorder: Some(Arc::new(Recorder::new())),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The shared recorder, if enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Record a trace event. The closure only runs when telemetry is
    /// enabled, so argument construction costs nothing when disabled.
    pub fn record(&self, make: impl FnOnce(&Recorder) -> TraceEvent) {
        if let Some(r) = &self.recorder {
            r.push(make(r));
        }
    }

    /// Run `f` against the recorder when enabled (registry updates,
    /// query bookkeeping).
    pub fn with(&self, f: impl FnOnce(&Recorder)) {
        if let Some(r) = &self.recorder {
            f(r);
        }
    }

    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(r) = &self.recorder {
            r.registry.counter_add(name, v);
        }
    }

    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(r) = &self.recorder {
            r.registry.gauge_set(name, v);
        }
    }

    pub fn observe_duration(&self, name: &str, d: VirtualNanos) {
        if let Some(r) = &self.recorder {
            r.registry.observe_duration(name, d);
        }
    }

    /// Metrics registry as JSON (None when disabled).
    pub fn metrics_json(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.registry.to_json())
    }

    /// Metrics registry in Prometheus text format (None when disabled).
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.registry.to_prometheus())
    }

    /// The structured trace as a JSON array (None when disabled).
    pub fn trace_json(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.events_to_json())
    }

    /// Latency-attribution trees ([`QueryProfile`]) for every query
    /// that completed in the trace, in query-id order (empty when
    /// disabled).
    pub fn query_profiles(&self) -> Vec<QueryProfile> {
        self.recorder
            .as_ref()
            .map(|r| QueryProfile::all_from_trace(&r.events()))
            .unwrap_or_default()
    }

    /// Rebuilds the device's two engine timelines from the recorded
    /// kernel-launch and PCIe-transfer events: one `"gpu-compute"` lane
    /// for kernels, one `"gpu-copy"` lane for transfers (the lane names
    /// are [`StreamKind::as_str`], tying the export to the simulator's
    /// stream model). Copy spans further split into one sub-lane per DMA
    /// direction — lane 0 for host-to-device, lane 1 for device-to-host —
    /// matching the per-direction copy engines of the modeled device.
    /// The CPU lanes of co-executed split intersections appear as a
    /// third `"cpu-lane"` resource (recorded by the engine — the device
    /// observer cannot see host execution), so a split renders as host
    /// and device work running side by side.
    /// Under overlap-enabled execution the copy lane's
    /// spans visibly run underneath the compute lane's; feed the result
    /// to [`Timeline::to_chrome_trace`] to inspect the pipeline in
    /// Perfetto. Spans carry the owning query as their job id and an
    /// issue-order stage index. `None` when telemetry is disabled.
    pub fn device_timeline(&self) -> Option<Timeline> {
        let recorder = self.recorder.as_ref()?;
        let mut timeline = Timeline::default();
        let mut stage_counters: Vec<(u64, usize)> = Vec::new();
        let mut next_stage = |query: u64| -> usize {
            match stage_counters.iter_mut().find(|(q, _)| *q == query) {
                Some((_, n)) => {
                    *n += 1;
                    *n - 1
                }
                None => {
                    stage_counters.push((query, 1));
                    0
                }
            }
        };
        for event in recorder.events() {
            let (query, resource, lane, start, duration) = match event {
                TraceEvent::KernelLaunch {
                    query,
                    start,
                    duration,
                    ..
                } => (query, StreamKind::Compute.as_str(), 0, start, duration),
                TraceEvent::PcieTransfer {
                    query,
                    direction,
                    start,
                    duration,
                    ..
                } => {
                    let lane = usize::from(direction == "dtoh");
                    (query, StreamKind::Copy.as_str(), lane, start, duration)
                }
                // The host lane of a co-executed split: rendered as its
                // own resource so Perfetto shows CPU work running under
                // the device's compute/copy lanes.
                TraceEvent::CpuLane {
                    query,
                    start,
                    duration,
                    ..
                } => (query, "cpu-lane", 0, start, duration),
                _ => continue,
            };
            timeline.push(SpanEvent {
                resource,
                lane,
                job: query as usize,
                stage: next_stage(query),
                ready: start,
                start,
                end: start + duration,
            });
        }
        Some(timeline)
    }

    /// Build the device-side observer bridging
    /// [`griffin_gpu_sim::Gpu::set_observer`] into this telemetry
    /// session: kernel launches and PCIe transfers become trace events
    /// tagged with the current query, and feed per-kernel aggregate
    /// metrics (launch counts, duration histograms, warp totals,
    /// divergence and coalescing inputs, global-memory transactions).
    /// The caching allocator's totals ride on every event: what they grew
    /// by since the observer's previous event goes to
    /// `griffin_gpu_pool_{hits,misses,trimmed}_total`, and
    /// `griffin_gpu_pool_cached_bytes` is the reporting device's latest.
    ///
    /// `warp_size` is the device's warp width (for the coalescing
    /// factor). Returns `None` when telemetry is disabled — pass the
    /// result straight to `set_observer`.
    pub fn device_observer(&self, warp_size: u32) -> Option<Arc<DeviceObserver>> {
        let recorder = self.recorder.clone()?;
        let pool_seen = Mutex::new(PoolStats::default());
        Some(Arc::new(move |event: &DeviceEvent<'_>| match *event {
            DeviceEvent::KernelLaunch {
                name,
                start,
                report,
                pool,
            } => {
                record_pool(&recorder.registry, &pool_seen, pool);
                let reg = &recorder.registry;
                let c = &report.counters;
                reg.counter_add(
                    &format!("griffin_gpu_kernel_launches_total{{kernel=\"{name}\"}}"),
                    1,
                );
                reg.observe_duration(
                    &format!("griffin_gpu_kernel_ns{{kernel=\"{name}\"}}"),
                    report.time,
                );
                reg.counter_add(
                    &format!("griffin_gpu_kernel_warps_total{{kernel=\"{name}\"}}"),
                    c.total_warps,
                );
                reg.counter_add(
                    &format!("griffin_gpu_gmem_transactions_total{{kernel=\"{name}\"}}"),
                    c.gmem_transactions,
                );
                reg.counter_add(
                    &format!("griffin_gpu_gmem_accesses_total{{kernel=\"{name}\"}}"),
                    c.gmem_accesses,
                );
                reg.counter_add(
                    &format!("griffin_gpu_branch_sites_total{{kernel=\"{name}\"}}"),
                    c.branch_sites,
                );
                reg.counter_add(
                    &format!("griffin_gpu_divergent_sites_total{{kernel=\"{name}\"}}"),
                    c.divergent_sites,
                );
                recorder.push(TraceEvent::KernelLaunch {
                    query: recorder.current_query(),
                    name,
                    start,
                    duration: report.time,
                    total_warps: c.total_warps,
                    divergence_rate: c.divergence_rate(),
                    coalescing_factor: c.coalescing_factor(warp_size),
                    gmem_transactions: c.gmem_transactions,
                });
            }
            DeviceEvent::Transfer {
                direction,
                bytes,
                start,
                duration,
                pool,
            } => {
                record_pool(&recorder.registry, &pool_seen, pool);
                let dir = direction.as_str();
                let reg = &recorder.registry;
                reg.counter_add(&format!("griffin_pcie_transfers_total{{dir=\"{dir}\"}}"), 1);
                reg.counter_add(&format!("griffin_pcie_bytes_total{{dir=\"{dir}\"}}"), bytes);
                reg.observe_duration(
                    &format!("griffin_pcie_transfer_ns{{dir=\"{dir}\"}}"),
                    duration,
                );
                recorder.push(TraceEvent::PcieTransfer {
                    query: recorder.current_query(),
                    direction: dir,
                    bytes,
                    start,
                    duration,
                });
            }
        }))
    }
}

/// Adds what the allocator's totals grew by since `seen` to the pool
/// counters. Silent while nothing changed, which is most events.
fn record_pool(reg: &Registry, seen: &Mutex<PoolStats>, now: PoolStats) {
    let mut seen = seen.lock().unwrap_or_else(|p| p.into_inner());
    if *seen == now {
        return;
    }
    reg.counter_add("griffin_gpu_pool_hits_total", now.hits - seen.hits);
    reg.counter_add("griffin_gpu_pool_misses_total", now.misses - seen.misses);
    reg.counter_add("griffin_gpu_pool_trimmed_total", now.trimmed - seen.trimmed);
    reg.gauge_set("griffin_gpu_pool_cached_bytes", now.cached_bytes as f64);
    *seen = now;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("x", 1);
        t.observe_duration("y", VirtualNanos::from_nanos(5));
        let mut ran = false;
        t.record(|_| {
            ran = true;
            TraceEvent::QueryStart { query: 0, terms: 0 }
        });
        assert!(!ran, "record closure must not run when disabled");
        assert!(t.metrics_json().is_none());
        assert!(t.trace_json().is_none());
        assert!(t.device_observer(32).is_none());
    }

    #[test]
    fn device_timeline_splits_streams_into_lanes() {
        let t = Telemetry::enabled();
        assert!(Telemetry::disabled().device_timeline().is_none());
        let ns = VirtualNanos::from_nanos;
        t.record(|_| TraceEvent::PcieTransfer {
            query: 1,
            direction: "htod",
            bytes: 4096,
            start: ns(0),
            duration: ns(500),
        });
        t.record(|_| TraceEvent::KernelLaunch {
            query: 1,
            name: "k",
            start: ns(100),
            duration: ns(300),
            total_warps: 1,
            divergence_rate: 0.0,
            coalescing_factor: 1.0,
            gmem_transactions: 0,
        });
        let tl = t.device_timeline().unwrap();
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.spans[0].resource, "gpu-copy");
        assert_eq!(tl.spans[1].resource, "gpu-compute");
        // Copy span [0,500) overlaps compute span [100,400): both lanes
        // appear independently in the export.
        assert_eq!(tl.spans[0].end, ns(500));
        assert_eq!(tl.spans[1].start, ns(100));
        assert_eq!(tl.spans[0].stage, 0);
        assert_eq!(tl.spans[1].stage, 1);
        let js = tl.to_chrome_trace();
        assert!(js.contains("\"name\":\"gpu-compute0\""));
        assert!(js.contains("\"name\":\"gpu-copy0\""));
    }

    #[test]
    fn enabled_handle_records_and_shares() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter_add("hits", 1);
        t2.counter_add("hits", 2);
        let r = t.recorder().unwrap();
        assert_eq!(r.registry.counter("hits"), 3);
        t.record(|r| TraceEvent::QueryStart {
            query: r.begin_query(),
            terms: 2,
        });
        assert_eq!(r.event_count(), 1);
        assert!(t.metrics_json().unwrap().contains("\"hits\":3"));
    }
}
