//! The serving front end: plan queries through the engine, replay them
//! through the serving simulator.
//!
//! Serving splits into two phases so that load sweeps stay cheap:
//!
//! 1. **Plan** ([`GriffinServer::plan`]): run every request through the
//!    hybrid engine once, bridge its measured step trace into serving
//!    stages, and (for degradable requests) measure the CPU-only
//!    fallback schedule. This is the expensive part — it simulates the
//!    actual index work — and it is load-independent.
//! 2. **Replay** ([`GriffinServer::replay`]): feed the planned schedules
//!    plus an arrival process into [`ServerSim`]. This is pure
//!    discrete-event simulation, so sweeping arrival rates or toggling
//!    batching re-runs only this phase.
//!
//! [`GriffinServer::serve`] does both in one call for the common case.

use std::cell::RefCell;

use griffin::serving::StageReq;
use griffin::{ExecMode, Griffin, QueryRequest, RESULT_CACHE_LOOKUP};
use griffin_gpu_sim::VirtualNanos;
use griffin_index::InvertedIndex;
use griffin_telemetry::Telemetry;

use crate::admission::{Outcome, OverloadPolicy, ServedQuery};
use crate::bridge::stages_of;
use crate::flight::{verdict_from_stages, FlightConfig, FlightRecord, FlightRecorder};
use crate::health::{BreakerConfig, BreakerState, BreakerStats, GpuHealth};
use crate::sim::{ServerConfig, ServerSim, SimStats};
use crate::slo::{SloConfig, SloMonitor};
use crate::Timeline;
use griffin_telemetry::QueryProfile;

/// FNV-1a over the cache-signature string: a tiny, dependency-free
/// hash whose values are stable run-to-run (std's SipHash keys are an
/// implementation detail), so single-flight keys are reproducible.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A query with its (virtual) arrival instant.
#[derive(Debug, Clone)]
pub struct ArrivingQuery {
    pub request: QueryRequest,
    pub arrival: VirtualNanos,
}

/// One planned query: the engine's answer plus the measured schedules
/// the simulator replays. The `Default` is an empty hand-built plan:
/// callers replaying stage lists they measured themselves set `stages`
/// (and what else they need) over it.
#[derive(Debug, Clone, Default)]
pub struct PlannedQuery {
    /// The engine's top-k result (doc id, score) — serving never changes
    /// *what* a query answers, only *when*.
    pub topk: Vec<(u32, f32)>,
    /// Unloaded service time; equals the stage-duration sum.
    pub service_time: VirtualNanos,
    /// Bridged serving stages in execution order.
    pub stages: Vec<StageReq>,
    /// Measured CPU-only service time, when the request could degrade
    /// (planned with a non-CpuOnly mode).
    pub cpu_fallback: Option<VirtualNanos>,
    /// Virtual cost of answering this request from the engine's result
    /// cache, when the cache held an entry at planning time (probed
    /// *before* the plan ran, so only an earlier identical request can
    /// have seeded it). Feeds the serve-stale overload policy
    /// ([`crate::AdmissionConfig::serve_stale`]). `None` while the result
    /// cache is off — the default, which keeps replay byte-identical.
    pub stale_available: Option<VirtualNanos>,
    /// Single-flight identity: a hash of the request's cache signature,
    /// populated only while the engine's result cache is enabled. Jobs
    /// sharing the key coalesce in the simulator instead of stampeding.
    pub coalesce_key: Option<u64>,
    /// Carried from the request.
    pub deadline: Option<VirtualNanos>,
    /// True when the GPU health breaker was open and the query was
    /// planned on its CPU-only schedule despite requesting the GPU.
    pub breaker_degraded: bool,
    /// The engine-trace query id this plan was measured under, when
    /// planning ran with telemetry — keys the flight recorder into the
    /// trace for latency attribution. `None` without telemetry (or for
    /// hand-built plans).
    pub trace_query: Option<u64>,
}

/// Everything one serving run produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<ServedQuery>,
    pub stats: SimStats,
    pub timeline: Timeline,
}

impl ServeReport {
    /// Latencies of queries that ran (completed or degraded), ascending.
    pub fn sorted_latencies(&self) -> Vec<VirtualNanos> {
        let mut v: Vec<VirtualNanos> = self.queries.iter().filter_map(|q| q.latency).collect();
        v.sort_unstable();
        v
    }

    /// The p-th percentile (0.0..=1.0) of served-query latency.
    pub fn latency_percentile(&self, p: f64) -> Option<VirtualNanos> {
        let v = self.sorted_latencies();
        if v.is_empty() {
            return None;
        }
        let idx = ((v.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// Fraction of served deadline-carrying queries that missed their
    /// deadline. Shed queries have no verdict here; `stats` counts their
    /// misses separately.
    pub fn deadline_miss_rate(&self) -> Option<f64> {
        let verdicts: Vec<bool> = self.queries.iter().filter_map(|q| q.deadline_met).collect();
        if verdicts.is_empty() {
            return None;
        }
        Some(verdicts.iter().filter(|&&met| !met).count() as f64 / verdicts.len() as f64)
    }
}

/// The serving front end. Holds the scheduling configuration and an
/// optional telemetry session; borrows an engine per `plan`/`serve`
/// call.
pub struct GriffinServer {
    config: ServerConfig,
    telemetry: Telemetry,
    /// GPU circuit breaker fed by per-query fault outcomes during
    /// planning. Interior mutability keeps `plan`/`serve` on `&self`.
    health: RefCell<GpuHealth>,
    /// Tail flight recorder, fed by `replay`. `None` until enabled.
    flight: RefCell<Option<FlightRecorder>>,
    /// SLO burn-rate monitor, fed by `replay`. `None` until enabled.
    slo: RefCell<Option<SloMonitor>>,
}

impl GriffinServer {
    pub fn new(config: ServerConfig) -> GriffinServer {
        GriffinServer {
            config,
            telemetry: Telemetry::disabled(),
            health: RefCell::new(GpuHealth::new(BreakerConfig::default())),
            flight: RefCell::new(None),
            slo: RefCell::new(None),
        }
    }

    /// Replace the GPU health breaker's tuning (resets its state).
    pub fn set_breaker(&mut self, config: BreakerConfig) {
        self.health = RefCell::new(GpuHealth::new(config));
    }

    /// The breaker's current position.
    pub fn breaker_state(&self) -> BreakerState {
        self.health.borrow().state()
    }

    /// The breaker's activity counters so far.
    pub fn breaker_stats(&self) -> BreakerStats {
        self.health.borrow().stats()
    }

    /// Attach a telemetry session; replay records queue, shed, and batch
    /// metrics into it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enable the tail flight recorder (resets any previous one).
    /// `replay` feeds every served query's latency into it and retains
    /// the tail per [`FlightConfig`], with an attribution profile and
    /// dominant-cause verdict for each retained flight.
    pub fn set_flight_recorder(&mut self, config: FlightConfig) {
        self.flight = RefCell::new(Some(FlightRecorder::new(config)));
    }

    /// Snapshot of the retained tail flights, oldest first (empty when
    /// the recorder is disabled).
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.flight
            .borrow()
            .as_ref()
            .map(|f| f.records().cloned().collect())
            .unwrap_or_default()
    }

    /// Enable the SLO burn-rate monitor (resets any previous one).
    /// `replay` classifies every query against the latency SLO in
    /// completion order and exports `griffin_slo_*` metrics.
    pub fn set_slo(&mut self, config: SloConfig) {
        self.slo = RefCell::new(Some(SloMonitor::new(config)));
    }

    /// Run `f` against the SLO monitor, if enabled — e.g. to poll
    /// [`SloMonitor::early_warning`] between replays.
    pub fn with_slo<T>(&self, f: impl FnOnce(&SloMonitor) -> T) -> Option<T> {
        self.slo.borrow().as_ref().map(f)
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Phase 1: run every request through the engine and bridge its
    /// measured trace into serving stages. When the admission policy can
    /// degrade and the request is not already CPU-only, the CPU-only
    /// fallback schedule is measured too.
    ///
    /// The GPU health breaker sits in front of this phase: each finished
    /// GPU-mode query reports whether it observed a device fault
    /// ([`griffin::GriffinOutput::gpu_faults`]), and once the windowed
    /// failure fraction trips the breaker, subsequent GPU-hungry
    /// requests are planned on their CPU-only schedule instead —
    /// *degraded, never dropped*. After the cooldown, canary queries
    /// probe the device and close the breaker again when it behaves.
    pub fn plan(
        &self,
        engine: &Griffin<'_>,
        index: &InvertedIndex,
        requests: &[QueryRequest],
    ) -> Vec<PlannedQuery> {
        let wants_fallback = self.config.admission.policy == OverloadPolicy::DegradeToCpuOnly
            && self.config.admission.gpu_depth_threshold != usize::MAX;
        let planned = requests
            .iter()
            .map(|req| {
                // Probe the result cache before planning runs the
                // query (which would seed its own entry): a Some here
                // means an earlier identical request already cached the
                // answer — exactly what an overloaded replay could
                // serve stale.
                let cache_on = engine.result_cache_enabled();
                let stale_available = engine
                    .result_cache_peek(req)
                    .map(|hit| hit.time.min(RESULT_CACHE_LOOKUP));
                let coalesce_key =
                    cache_on.then(|| fnv1a(&req.cache_signature(engine.index_epoch())));
                let wants_gpu = req.mode != ExecMode::CpuOnly;
                let gpu_allowed = !wants_gpu || self.breaker_allows(engine.device().now());
                let out = if gpu_allowed {
                    let out = engine.run(index, req);
                    if wants_gpu {
                        self.breaker_record(engine.device().now(), out.gpu_faults > 0);
                    }
                    out
                } else {
                    self.health.borrow_mut().note_degraded();
                    self.telemetry
                        .counter_add("griffin_fault_breaker_degraded_total", 1);
                    let mut degraded = req.clone();
                    degraded.mode = ExecMode::CpuOnly;
                    engine.run(index, &degraded)
                };
                // Key the plan to the trace id its measurement ran
                // under (the fallback run below mints its own id).
                let trace_query = engine.telemetry().recorder().map(|r| r.current_query());
                let cpu_fallback = if wants_fallback && wants_gpu && gpu_allowed {
                    let fb = req.clone().mode(ExecMode::CpuOnly);
                    Some(engine.run(index, &fb).time)
                } else {
                    None
                };
                PlannedQuery {
                    topk: out.topk.clone(),
                    service_time: out.time,
                    stages: stages_of(&out),
                    cpu_fallback,
                    stale_available,
                    coalesce_key,
                    deadline: req.deadline,
                    breaker_degraded: wants_gpu && !gpu_allowed,
                    trace_query,
                }
            })
            .collect();
        self.telemetry.gauge_set(
            "griffin_fault_breaker_state",
            self.health.borrow().state().gauge_value(),
        );
        planned
    }

    /// Asks the breaker whether the next GPU-hungry query may use the
    /// device, recording any state transition it causes.
    fn breaker_allows(&self, now: VirtualNanos) -> bool {
        let mut h = self.health.borrow_mut();
        let before = h.state();
        let allowed = h.allow_gpu(now);
        let after = h.state();
        drop(h);
        self.note_transition(before, after);
        allowed
    }

    /// Feeds one finished GPU-mode query's fault outcome to the breaker,
    /// recording any state transition it causes.
    fn breaker_record(&self, now: VirtualNanos, had_fault: bool) {
        let mut h = self.health.borrow_mut();
        let before = h.state();
        h.record(now, had_fault);
        let after = h.state();
        drop(h);
        self.note_transition(before, after);
    }

    fn note_transition(&self, before: BreakerState, after: BreakerState) {
        if before != after {
            self.telemetry.with(|r| {
                let to = after.label();
                let name = format!("griffin_fault_breaker_transitions_total{{to=\"{to}\"}}");
                r.registry.counter_add(&name, 1);
            });
        }
    }

    /// Phase 2: replay planned queries arriving at the given instants
    /// through the serving simulator. `arrivals` and `planned` pair up
    /// by index.
    pub fn replay(&self, planned: &[PlannedQuery], arrivals: &[VirtualNanos]) -> ServeReport {
        let report = ServerSim::new(self.config).run(planned, arrivals);
        self.record(&report);
        self.record_forensics(planned, arrivals, &report.queries);
        report
    }

    /// Feed the replayed outcomes to the flight recorder and SLO
    /// monitor, in completion order (virtual time), and export their
    /// metrics. Purely observational: scheduling already happened.
    fn record_forensics(
        &self,
        planned: &[PlannedQuery],
        arrivals: &[VirtualNanos],
        queries: &[ServedQuery],
    ) {
        let mut flight = self.flight.borrow_mut();
        let mut slo = self.slo.borrow_mut();
        if flight.is_none() && slo.is_none() {
            return;
        }
        // Completion instants: arrival + latency for ran queries, the
        // arrival itself for shed ones. Sort (stably, by index on ties)
        // so the rolling monitors see virtual time move forward.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let instant = |i: usize| arrivals[i] + queries[i].latency.unwrap_or(VirtualNanos::ZERO);
        order.sort_by_key(|&i| (instant(i), i));
        let trace = self
            .telemetry
            .recorder()
            .map(|r| r.events())
            .unwrap_or_default();
        let mut last = VirtualNanos::ZERO;
        for &i in &order {
            let q = &queries[i];
            let p = &planned[i];
            let now = instant(i);
            last = now;
            if let Some(m) = slo.as_mut() {
                m.record_latency(now, q.latency);
            }
            let (Some(f), Some(latency)) = (flight.as_mut(), q.latency) else {
                continue;
            };
            let service = match q.outcome {
                Outcome::Degraded => p.cpu_fallback.unwrap_or(p.service_time),
                _ => p.service_time,
            };
            let queue_wait = latency.saturating_sub(service);
            let profile = p
                .trace_query
                .and_then(|tq| QueryProfile::from_trace(tq, &trace));
            let verdict = match &profile {
                Some(prof) => prof.dominant_cause(queue_wait),
                None => verdict_from_stages(&p.stages, queue_wait, latency),
            };
            f.observe(FlightRecord {
                query_index: i,
                trace_query: p.trace_query,
                outcome: q.outcome,
                latency,
                service,
                queue_wait,
                verdict,
                profile,
            });
        }
        if let Some(f) = flight.as_ref() {
            self.telemetry
                .gauge_set("griffin_flight_ring_len", f.len() as f64);
            self.telemetry
                .gauge_set("griffin_flight_retained_total", f.retained_total() as f64);
            self.telemetry
                .gauge_set("griffin_flight_evicted_total", f.evicted_total() as f64);
            if let Some(t) = f.threshold() {
                self.telemetry
                    .gauge_set("griffin_flight_threshold_ns", t.as_nanos() as f64);
            }
        }
        if let Some(m) = slo.as_ref() {
            m.export(&self.telemetry, last);
        }
    }

    /// Plan + replay in one call.
    pub fn serve(
        &self,
        engine: &Griffin<'_>,
        index: &InvertedIndex,
        queries: &[ArrivingQuery],
    ) -> ServeReport {
        let requests: Vec<QueryRequest> = queries.iter().map(|q| q.request.clone()).collect();
        let arrivals: Vec<VirtualNanos> = queries.iter().map(|q| q.arrival).collect();
        let planned = self.plan(engine, index, &requests);
        self.replay(&planned, &arrivals)
    }

    fn record(&self, report: &ServeReport) {
        let s = &report.stats;
        self.telemetry
            .counter_add("griffin_server_admitted_total", s.admitted as u64);
        self.telemetry
            .counter_add("griffin_server_shed_total", s.shed as u64);
        self.telemetry
            .counter_add("griffin_server_degraded_total", s.degraded as u64);
        self.telemetry.counter_add(
            "griffin_server_deadline_missed_total",
            s.deadline_missed as u64,
        );
        self.telemetry
            .counter_add("griffin_server_served_stale_total", s.served_stale as u64);
        self.telemetry
            .counter_add("griffin_server_coalesced_total", s.coalesced as u64);
        self.telemetry
            .counter_add("griffin_server_gpu_launches_total", s.gpu_launches);
        self.telemetry
            .counter_add("griffin_server_gpu_stages_total", s.gpu_stages);
        self.telemetry.counter_add(
            "griffin_server_gpu_time_saved_ns_total",
            s.gpu_time_saved.as_nanos(),
        );
        self.telemetry.gauge_set(
            "griffin_server_batch_occupancy_mean",
            s.mean_batch_occupancy(),
        );
        self.telemetry.gauge_set(
            "griffin_server_batch_occupancy_max",
            s.max_batch_occupancy as f64,
        );
        self.telemetry.gauge_set(
            "griffin_server_gpu_queue_depth_max",
            s.max_gpu_queue_depth as f64,
        );
        for q in &report.queries {
            if let Some(latency) = q.latency {
                self.telemetry
                    .observe_duration("griffin_server_latency_ns", latency);
            }
        }
    }
}
