//! The hybrid query engine: one query, two processors, per-operation
//! migration (paper Fig. 1(d)).

use std::cell::{Cell, RefCell};

use griffin_cpu::{setops, CacheStats, CpuEngine, Intermediate, PruneStats, WorkCounters};
use griffin_gpu::{DeviceIntermediate, GpuEngine, GpuError, HullLedger};
use griffin_gpu_sim::{Gpu, Scope, StreamKind, VirtualNanos};
use griffin_index::{CorpusMeta, InvertedIndex, TermId};
use griffin_telemetry::{Telemetry, TraceEvent};

use crate::plan::{self, PlanNode};
use crate::query::Query;
use crate::request::{QueryError, QueryRequest};
use crate::rescache::{CachedResult, ResultCache, RESULT_CACHE_LOOKUP};
use crate::sched::{Decision, DecisionTrace, Proc, Residency, Scheduler, SplitBalancer};

/// How a query is executed (the paper's three evaluated configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The highly optimized CPU baseline (Fig. 1(a)).
    CpuOnly,
    /// Griffin-GPU running alone (Fig. 1(b)).
    GpuOnly,
    /// Griffin: dynamic per-operation scheduling (Fig. 1(d)).
    Hybrid,
}

/// One step in a query's execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    pub op: StepOp,
    pub proc: Proc,
    pub time: VirtualNanos,
    /// Intermediate length after the step.
    pub inter_len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Decompress + score the first list.
    Init,
    /// Pairwise intersection with the i-th planned term.
    Intersect(usize),
    /// Co-executed pairwise intersection with the i-th planned term: the
    /// long list was range-partitioned and both processors ran their
    /// slice concurrently. The step's `time` is `max(cpu_lane, gpu_lane)`
    /// — the lanes overlap — so step durations still sum to the query
    /// total. On an in-split GPU fault, `gpu_lane` records the wasted
    /// device attempts; the re-run of the device's range appears as a
    /// separate [`StepOp::FaultRecovery`] step.
    SplitIntersect {
        term: usize,
        cpu_lane: VirtualNanos,
        gpu_lane: VirtualNanos,
    },
    /// Intermediate migration across PCIe.
    Migrate,
    /// Final top-k ranking (always CPU, per the Fig. 7 finding).
    TopK,
    /// Opaque execution on a single processor, without per-operation
    /// detail: the whole query under [`ExecMode::CpuOnly`]; one chain
    /// operator (or the fused pruned ranking) placed wholesale on one
    /// engine otherwise, followed by its own CPU ranking step.
    Exec,
    /// Recovery from a device fault: the wasted GPU attempts (including
    /// retry backoff) plus the cost of re-establishing the intermediate
    /// on the host — by draining it over PCIe when the device still
    /// answers, or by re-running the completed prefix on the CPU when it
    /// does not. Recovery time is part of the query's latency, so these
    /// steps keep the step-sum == total invariant under faults.
    FaultRecovery,
    /// One pairwise union of two sub-plan results (an `OR` arm folding
    /// in). Set operators run on the host; see [`crate::plan`].
    Union,
    /// Subtraction of a negated sub-plan's docids (`-term` / `NOT`).
    Difference,
    /// One pairwise intersection of two *sub-plan results* (a mixed
    /// `AND`), as opposed to [`StepOp::Intersect`], which intersects the
    /// running chain with a posting list.
    IntersectSets,
    /// The positional adjacency filter of a quoted phrase, run over the
    /// phrase's term-intersection result.
    PhraseCheck,
}

/// Result of a query under any mode.
#[derive(Debug, Clone)]
pub struct GriffinOutput {
    /// Top-k (docid, score), best first.
    pub topk: Vec<(u32, f32)>,
    /// End-to-end virtual latency.
    pub time: VirtualNanos,
    /// Per-operation trace. Hybrid queries record every operation;
    /// the single-processor modes record coarse [`StepOp::Exec`] (and
    /// ranking) steps. In every mode the step durations sum exactly to
    /// [`GriffinOutput::time`], which is what lets the serving pipeline
    /// replay any query's schedule stage by stage.
    pub steps: Vec<StepTrace>,
    /// Number of GPU faults observed while executing this query (every
    /// failed attempt counts, including ones that a retry then absorbed).
    /// Zero when fault injection is off or the query never touched the
    /// device.
    pub gpu_faults: u32,
    /// True when GPU fault recovery was exhausted (or the device was
    /// lost outright) and the query abandoned the device, finishing on
    /// the CPU. Transient faults that a retry absorbed do *not* set
    /// this — it is the "this device is actually unusable" signal that
    /// circuit breakers should key on, as opposed to
    /// [`gpu_faults`](Self::gpu_faults), which counts every hiccup.
    pub gpu_abandoned: bool,
    /// Block-max pruning ledger, present when the query ran with
    /// [`QueryRequest::pruned`] set and ranked block-max. `None` for
    /// unpruned runs (and for query shapes pruning does not cover, which
    /// rank unpruned).
    pub pruning: Option<PruneStats>,
    /// Fleet coverage accounting, present only when the answer came
    /// through a scatter–gather coordinator (see [`crate::fleet`]). A
    /// single-engine answer is always complete, hence `None`.
    pub fleet: Option<crate::fleet::FleetInfo>,
    /// True when the answer came from the query result cache: the top-k
    /// bits are exactly what execution produced when the entry was
    /// stored, and [`GriffinOutput::time`] is the (much smaller) lookup
    /// charge. Always false with the result cache disabled — the
    /// default.
    pub result_cache_hit: bool,
}

/// Where the intermediate currently lives.
enum Inter {
    Host(Intermediate),
    Device(DeviceIntermediate),
}

impl Inter {
    fn len(&self) -> usize {
        match self {
            Inter::Host(h) => h.len(),
            Inter::Device(d) => d.len,
        }
    }

    fn loc(&self) -> Proc {
        match self {
            Inter::Host(_) => Proc::Cpu,
            Inter::Device(_) => Proc::Gpu,
        }
    }
}

/// How [`Griffin::run`] reacts to GPU faults.
///
/// Transient faults (failed launches, transfer errors, allocation
/// failures) are retried in place after a bounded virtual-time backoff;
/// a fault that survives every retry — or a sticky device loss — migrates
/// the query to the CPU for the rest of its execution. Both paths keep
/// the query's results identical to a fault-free run; only its latency
/// (and its [`StepOp::FaultRecovery`] trace entries) change.
///
/// A failing operation is retried [`RecoveryPolicy::MAX_RETRIES`] times,
/// each backoff [`RecoveryPolicy::BACKOFF_MULTIPLIER`] times the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Backoff charged to the virtual clock before the first retry.
    pub initial_backoff: VirtualNanos,
}

impl RecoveryPolicy {
    /// Retries per failing GPU operation before migrating to the CPU.
    pub const MAX_RETRIES: u32 = 2;
    /// Each further backoff is the previous one times this factor.
    pub const BACKOFF_MULTIPLIER: u64 = 2;
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            initial_backoff: VirtualNanos::from_micros(10),
        }
    }
}

/// Per-query fault bookkeeping.
#[derive(Default)]
struct FaultLog {
    /// Every failed GPU attempt, including retried ones.
    faults: u32,
    /// Latched once a fault exhausts its retries: the rest of the query
    /// runs CPU-only (a faulting device rarely deserves more traffic
    /// within the same query).
    gpu_disabled: bool,
}

/// Everything one query accumulates while its plan is walked.
#[derive(Default)]
struct Run {
    /// Set for [`ExecMode::CpuOnly`]: the whole tree's summed counters,
    /// ranking included, are priced as one [`StepOp::Exec`] step once the
    /// root has ranked. [`griffin_cpu::CpuCostModel::time`] is
    /// `max(compute, bandwidth floor)` rounded to whole nanoseconds, so
    /// it is not additive: pricing per operator would move the total.
    /// The GPU-capable modes flush one step per operator instead.
    coarse: bool,
    /// The step trace; durations sum to `total`.
    steps: Vec<StepTrace>,
    total: VirtualNanos,
    log: FaultLog,
    /// Host work done since the last priced step.
    host: WorkCounters,
    /// Ledger of a fused block-max ranking, if one ran.
    pruning: Option<PruneStats>,
}

/// The Griffin system: CPU engine + Griffin-GPU engine + scheduler.
pub struct Griffin<'g> {
    pub cpu: CpuEngine,
    pub gpu: GpuEngine<'g>,
    pub scheduler: Scheduler,
    /// Fault handling for GPU operations; see [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
    device: &'g Gpu,
    telemetry: Telemetry,
    /// Feedback controller for co-executed splits: refines the cost
    /// model's split fraction from measured lane imbalance, so repeated
    /// splits converge on lanes that finish together.
    balancer: RefCell<SplitBalancer>,
    /// The top cache tier: whole-query results keyed on the canonical
    /// request signature. Off by default; see [`Griffin::set_result_cache`].
    result_cache: RefCell<ResultCache>,
    /// Index generation stamped into every result-cache key, so bumping
    /// it ([`Griffin::set_index_epoch`]) invalidates all cached answers.
    index_epoch: Cell<u64>,
}

impl<'g> Griffin<'g> {
    /// A hybrid engine on `device` with copy/compute overlap on and the
    /// scheduler of [`Scheduler::for_device`]: the device's pipelined
    /// cost model, the work floor derived from it, and CPU+GPU
    /// co-execution on. Co-execution is the scheduler's `split` field;
    /// `None` turns it off.
    pub fn new(device: &'g Gpu, meta: &CorpusMeta, block_len: usize) -> Griffin<'g> {
        Griffin {
            cpu: CpuEngine::new(),
            gpu: GpuEngine::new(device, meta),
            scheduler: Scheduler::for_device(block_len, device.config(), true),
            recovery: RecoveryPolicy::default(),
            device,
            telemetry: Telemetry::disabled(),
            balancer: RefCell::new(SplitBalancer::default()),
            result_cache: RefCell::default(),
            index_epoch: Cell::new(0),
        }
    }

    /// Enables or disables copy/compute overlap for this engine's GPU
    /// work. With overlap on (the default), GPU-touching queries run in
    /// an async window — each list ships over PCIe while the previous
    /// operation's kernels execute; off, they run serially. Either way
    /// the scheduler's cost model is rebuilt for the mode (pipelined or
    /// serial, see [`crate::CostModel`]) and its work floor re-derived
    /// from it, so the floor, the split solver and the residency override
    /// all price the device lane the way the engine now runs it. The rest
    /// of the scheduler is left as it was. Results are bit-exact either
    /// way.
    pub fn set_overlap(&mut self, on: bool) {
        self.gpu.set_overlap(on);
        let Scheduler {
            min_gpu_work,
            model,
            ..
        } = Scheduler::for_device(self.scheduler.ratio_threshold, self.device.config(), on);
        self.scheduler.min_gpu_work = min_gpu_work;
        self.scheduler.model = model;
    }

    /// Attach a telemetry session. Every subsequent query records its
    /// steps and scheduler decisions; the device observer is installed
    /// so kernel launches and PCIe transfers are traced too. Recording
    /// is passive — results and virtual timings are unchanged (see the
    /// `telemetry_equivalence` integration test). Pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.device
            .set_observer(telemetry.device_observer(self.device.config().warp_size));
        self.telemetry = telemetry;
    }

    /// The currently attached telemetry session.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The simulated device this engine drives. Serving layers use its
    /// virtual clock (e.g. for health-breaker cooldowns) and its fault
    /// plan controls.
    pub fn device(&self) -> &'g Gpu {
        self.device
    }

    /// Enables the query result cache — the top tier of the cache
    /// hierarchy — bounded to `max_entries` results and `budget_bytes`
    /// total bytes, with fresh accounting. Passing zero for either bound
    /// turns the tier off (the construction default), restoring bit- and
    /// time-identical execution for every query. See [`crate::rescache`].
    pub fn set_result_cache(&self, max_entries: usize, budget_bytes: u64) {
        *self.result_cache.borrow_mut() = if max_entries == 0 || budget_bytes == 0 {
            ResultCache::default()
        } else {
            ResultCache::new(budget_bytes).with_max_entries(max_entries)
        };
    }

    /// Whether the query result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.result_cache.borrow().is_on()
    }

    /// Result-cache accounting, `None` while the tier is off.
    pub fn result_cache_stats(&self) -> Option<CacheStats> {
        let cache = self.result_cache.borrow();
        cache.is_on().then(|| cache.stats())
    }

    /// Non-perturbing result-cache probe: the cached answer for `req`
    /// at the current index epoch, without LRU or hit/miss effects.
    /// This is the admission queue's stale-serve path — an overloaded
    /// server may answer a shed query from here, explicitly flagged.
    pub fn result_cache_peek(&self, req: &QueryRequest) -> Option<CachedResult> {
        let key = self.result_key(req)?;
        self.result_cache.borrow().peek(&key).cloned()
    }

    /// `req`'s result-cache key, or `None` when the tier is off or the
    /// query is `Query::Nothing` (never cached: its execution is already
    /// free).
    fn result_key(&self, req: &QueryRequest) -> Option<String> {
        (self.result_cache.borrow().is_on() && req.query != Query::Nothing)
            .then(|| req.cache_signature(self.index_epoch.get()))
    }

    /// The index generation stamped into result-cache keys.
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch.get()
    }

    /// Declares a new index generation (segment merge, document
    /// ingest, …): every cached answer and decoded list is invalidated.
    /// The result cache keys on the epoch, so old entries can never be
    /// served again; the host decoded-list tier is flushed outright
    /// (its entries alias the old postings). The device LRU keys on
    /// [`TermId`] against live postings the engine re-uploads per
    /// query, so it is flushed by the serving layer when the device
    /// copy actually goes stale.
    pub fn set_index_epoch(&self, epoch: u64) {
        self.index_epoch.set(epoch);
        self.result_cache.borrow_mut().clear();
        self.cpu.clear_host_cache();
    }

    /// Where each of `term`'s copies currently lives, for cache-aware
    /// scheduling: the host decoded-list tier and the device LRU (or an
    /// in-flight prefetch) are probed without perturbing either.
    fn residency(&self, term: TermId) -> Residency {
        Residency {
            host_cached: self.cpu.host_cache_contains(term),
            device_cached: self.gpu.is_resident(term),
        }
    }

    /// Folds all three cache tiers' accounting into the attached
    /// telemetry registry under one naming scheme:
    /// `griffin_cache_{device,host,result}_{hits,misses,evictions,bytes_resident}`.
    /// Totals are process-cumulative, exported as gauges of the running
    /// value (the same race-tolerant pattern as the SIMD dispatch
    /// totals).
    pub fn export_cache_metrics(&self) {
        let tiers = [
            ("device", self.gpu.cache_stats().lru),
            ("host", self.cpu.host_cache_stats()),
            ("result", self.result_cache_stats().unwrap_or_default()),
        ];
        self.telemetry.with(|r| {
            for (tier, s) in tiers {
                for (stat, v) in [
                    ("hits", s.hits),
                    ("misses", s.misses),
                    ("evictions", s.evictions),
                    ("bytes_resident", s.bytes_resident),
                ] {
                    r.registry
                        .gauge_set(&format!("griffin_cache_{tier}_{stat}"), v as f64);
                }
            }
        });
    }

    /// Answers `req` from the result cache if it can: a hit returns the
    /// stored top-k bit-for-bit, charges `min(lookup, original)` virtual
    /// time as a single host step, and marks the output. `Query::Nothing`
    /// is never cached — its execution is already free.
    fn result_cache_lookup(&self, req: &QueryRequest) -> Option<GriffinOutput> {
        let key = self.result_key(req)?;
        let hit = self.result_cache.borrow_mut().get(&key)?.clone();
        let time = hit.time.min(RESULT_CACHE_LOOKUP);
        self.telemetry
            .counter_add("griffin_result_cache_served_total", 1);
        let mut run = Run::default();
        if time > VirtualNanos::ZERO {
            self.step(&mut run, StepOp::Exec, Proc::Cpu, time, hit.topk.len());
        }
        Some(GriffinOutput {
            topk: hit.topk,
            time,
            steps: run.steps,
            gpu_faults: 0,
            gpu_abandoned: false,
            pruning: None,
            fleet: None,
            result_cache_hit: true,
        })
    }

    /// Stores an executed answer for future repeats of `req`.
    fn result_cache_store(&self, req: &QueryRequest, out: &GriffinOutput) {
        if let Some(key) = self.result_key(req) {
            let result = CachedResult {
                topk: out.topk.clone(),
                time: out.time,
            };
            let bytes = result.bytes(&key);
            self.result_cache.borrow_mut().insert(key, result, bytes);
        }
    }

    /// Record one executed step into the trace and the step-latency
    /// histograms.
    fn record_step(&self, s: &StepTrace) {
        let (op, arg) = match s.op {
            StepOp::Init => ("init", 0),
            StepOp::Intersect(i) => ("intersect", i),
            StepOp::SplitIntersect { term, .. } => ("split_intersect", term),
            StepOp::Migrate => ("migrate", 0),
            StepOp::TopK => ("topk", 0),
            StepOp::Exec => ("exec", 0),
            StepOp::FaultRecovery => ("fault_recovery", 0),
            StepOp::Union => ("union", 0),
            StepOp::Difference => ("difference", 0),
            StepOp::IntersectSets => ("intersect_sets", 0),
            StepOp::PhraseCheck => ("phrase_check", 0),
        };
        let (cpu_lane, gpu_lane) = match s.op {
            StepOp::SplitIntersect {
                cpu_lane, gpu_lane, ..
            } => (cpu_lane, gpu_lane),
            _ => (VirtualNanos::ZERO, VirtualNanos::ZERO),
        };
        let proc = s.proc.label();
        self.telemetry.record(|r| TraceEvent::Step {
            query: r.current_query(),
            op,
            arg,
            proc,
            duration: s.time,
            inter_len: s.inter_len,
            cpu_lane,
            gpu_lane,
        });
        self.telemetry.with(|r| {
            let name = format!("griffin_step_ns{{op=\"{op}\",proc=\"{proc}\"}}");
            r.registry.observe_duration(&name, s.time);
        });
    }

    /// Record one scheduler decision.
    fn record_decision(&self, d: &DecisionTrace) {
        let chosen = d.chosen.label();
        self.telemetry.record(|r| TraceEvent::SchedDecision {
            query: r.current_query(),
            short_len: d.short_len,
            long_len: d.long_len,
            ratio: d.ratio,
            effective_threshold: d.effective_threshold,
            hysteresis_applied: d.hysteresis_applied,
            chosen,
            host_cached: d.residency.host_cached,
            device_cached: d.residency.device_cached,
            cache_flip: d.cache_flip,
        });
        self.telemetry.with(|r| {
            let name = format!("griffin_sched_decisions_total{{proc=\"{chosen}\"}}");
            r.registry.counter_add(&name, 1);
            if d.cache_flip {
                // "Won by cache": the residency override changed the
                // baseline placement for this operation.
                let from = d.baseline.label();
                let name =
                    format!("griffin_sched_cache_flips_total{{from=\"{from}\",to=\"{chosen}\"}}");
                r.registry.counter_add(&name, 1);
            }
        });
    }

    /// Fold CPU work counters into the registry, along with the
    /// cumulative kernel-dispatch totals (which SIMD path each CPU
    /// kernel actually took). Dispatch totals are process-wide monotone
    /// atomics, so they are folded as gauges of the running total —
    /// race-tolerant when engines run in parallel.
    fn record_cpu_work(&self, w: &WorkCounters) {
        self.telemetry.with(|r| {
            for (name, v) in w.named() {
                if v > 0 {
                    r.registry
                        .counter_add(&format!("griffin_cpu_work_total{{counter=\"{name}\"}}"), v);
                }
            }
            for (kernel, path, total) in griffin_cpu::simd::dispatch_totals() {
                if total > 0 {
                    r.registry.gauge_set(
                        &format!(
                            "griffin_simd_dispatch_total{{kernel=\"{kernel}\",path=\"{path}\"}}"
                        ),
                        total as f64,
                    );
                }
            }
        });
    }

    /// Appends one executed step to the query's trace, running total
    /// and step telemetry. Every step of every mode is built here.
    fn step(&self, run: &mut Run, op: StepOp, proc: Proc, time: VirtualNanos, inter_len: usize) {
        let s = StepTrace {
            op,
            proc,
            time,
            inter_len,
        };
        self.record_step(&s);
        run.total += time;
        run.steps.push(s);
    }

    /// Prices (and folds into telemetry) the host work pending since
    /// the last priced step.
    fn price_host(&self, run: &mut Run) -> VirtualNanos {
        let w = std::mem::take(&mut run.host);
        self.record_cpu_work(&w);
        self.cpu.model.time(&w)
    }

    /// Flushes the pending host work as one step. A coarse run keeps
    /// accumulating instead: its single step is priced once the root
    /// has ranked (see [`Run::coarse`]).
    fn host_step(&self, run: &mut Run, op: StepOp, inter_len: usize) {
        if !run.coarse {
            let t = self.price_host(run);
            self.step(run, op, Proc::Cpu, t, inter_len);
        }
    }

    /// Runs a GPU operation under the recovery policy: transient faults
    /// are retried with exponential virtual-time backoff; a fault that
    /// survives every retry (or a non-transient one) latches
    /// [`FaultLog::gpu_disabled`] and surfaces the error for the caller
    /// to migrate the work to the CPU.
    fn try_gpu<T>(
        &self,
        run: &mut Run,
        mut attempt: impl FnMut() -> Result<T, GpuError>,
    ) -> Result<T, GpuError> {
        let mut backoff = self.recovery.initial_backoff;
        let mut retries = 0u32;
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    run.log.faults += 1;
                    self.telemetry.with(|r| {
                        let kind = e.kind_label();
                        let name = format!("griffin_fault_gpu_errors_total{{kind=\"{kind}\"}}");
                        r.registry.counter_add(&name, 1);
                    });
                    if e.is_transient() && retries < RecoveryPolicy::MAX_RETRIES {
                        retries += 1;
                        self.telemetry.counter_add("griffin_fault_retries_total", 1);
                        self.device.advance(backoff);
                        backoff = backoff * RecoveryPolicy::BACKOFF_MULTIPLIER;
                        continue;
                    }
                    run.log.gpu_disabled = true;
                    return Err(e);
                }
            }
        }
    }

    /// Runs a whole fused operator (a device chain, a pruned device
    /// query) under [`Griffin::try_gpu`], returning its result and its
    /// device-side span — retry backoff included, so steps still sum to
    /// the total. `None` means the operator must run on the CPU from
    /// scratch: the device is disabled for this query, or it just gave
    /// up and the wasted attempts were billed as a
    /// [`StepOp::FaultRecovery`] step.
    fn on_device<T>(
        &self,
        run: &mut Run,
        attempt: impl FnMut() -> Result<T, GpuError>,
    ) -> Option<(T, VirtualNanos)> {
        if run.log.gpu_disabled {
            return None;
        }
        let start = self.device.now();
        match self.try_gpu(run, attempt) {
            Ok(v) => Some((v, self.device.now() - start)),
            Err(_) => {
                let wasted = self.device.now() - start;
                self.recovery_step(run, wasted, 0);
                None
            }
        }
    }

    /// Brings the query's intermediate back to the host after the GPU
    /// lane is abandoned. Prefers draining the intact device intermediate
    /// over PCIe (with retries); if the device no longer answers, re-runs
    /// the completed prefix on the CPU. Returns the host intermediate and
    /// the virtual time the recovery cost.
    fn salvage(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        dev: Option<DeviceIntermediate>,
    ) -> (Intermediate, VirtualNanos) {
        let mut spent = VirtualNanos::ZERO;
        if let Some(dev) = dev {
            let start = self.device.now();
            let drained = self.try_gpu(run, || self.gpu.download(&dev));
            dev.free(self.device);
            spent += self.device.now() - start;
            if let Ok(host) = drained {
                return (host, spent);
            }
        }
        // Re-run the completed prefix on the CPU: the init step plus
        // `completed` intersections. `planned` is already df-sorted, so
        // the host chain runs its prefix in the same order, and the
        // engines' bit-equivalence reproduces exactly the intermediate
        // the device held when it failed.
        let host = self
            .cpu
            .eval_chain(index, &planned[..=completed], &mut run.host);
        (host, spent + self.price_host(run))
    }

    /// Abandons the GPU lane after a failed device operation that
    /// started at `start`: drains (or re-runs) the intermediate as it
    /// stood after `completed` intersections and bills the wasted
    /// attempts plus that salvage as one recovery step.
    fn abandon(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        dev: Option<DeviceIntermediate>,
        start: VirtualNanos,
    ) -> Intermediate {
        let wasted = self.device.now() - start;
        let (host, t_rec) = self.salvage(run, index, planned, completed, dev);
        self.recovery_step(run, wasted + t_rec, host.len());
        host
    }

    /// Moves a device-resident intermediate to the host: a plain
    /// [`StepOp::Migrate`] when the download succeeds, a recovery step
    /// when it took the device down with it.
    fn bring_home(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        dev: DeviceIntermediate,
    ) -> Intermediate {
        let (host, t) = self.salvage(run, index, planned, completed, Some(dev));
        if run.log.gpu_disabled {
            self.recovery_step(run, t, host.len());
        } else {
            self.step(run, StepOp::Migrate, Proc::Cpu, t, host.len());
        }
        host
    }

    /// Record a completed fault recovery into the trace and telemetry.
    fn recovery_step(&self, run: &mut Run, time: VirtualNanos, inter_len: usize) {
        self.telemetry
            .counter_add("griffin_fault_migrations_total", 1);
        self.telemetry
            .observe_duration("griffin_fault_recovery_ns", time);
        self.step(run, StepOp::FaultRecovery, Proc::Cpu, time, inter_len);
    }

    /// Bracket one query's telemetry: QueryStart before, QueryEnd plus
    /// the per-mode latency histogram after.
    fn record_query<F: FnOnce() -> GriffinOutput>(
        &self,
        mode: ExecMode,
        terms: usize,
        run: F,
    ) -> GriffinOutput {
        self.telemetry.record(|r| TraceEvent::QueryStart {
            query: r.begin_query(),
            terms,
        });
        let out = run();
        let mode_label = match mode {
            ExecMode::CpuOnly => "cpu_only",
            ExecMode::GpuOnly => "gpu_only",
            ExecMode::Hybrid => "hybrid",
        };
        self.telemetry.with(|r| {
            let name = format!("griffin_queries_total{{mode=\"{mode_label}\"}}");
            r.registry.counter_add(&name, 1);
            let name = format!("griffin_query_ns{{mode=\"{mode_label}\"}}");
            r.registry.observe_duration(&name, out.time);
        });
        self.telemetry.record(|r| TraceEvent::QueryEnd {
            query: r.current_query(),
            total: out.time,
            results: out.topk.len(),
        });
        out
    }

    /// Starts a fluent text search: parses `text` with the query grammar
    /// (juxtaposition = `AND`, `OR`, `-word` / `NOT`, `"quoted phrases"`,
    /// parentheses — see [`Query::parse`]) and runs it. A word missing
    /// from the vocabulary is an error ([`QueryError::UnknownTerm`])
    /// unless [`Search::lenient`] is set.
    ///
    /// ```ignore
    /// let out = griffin.query(&idx, "gpu engine -legacy").k(10).lenient(true).run()?;
    /// ```
    ///
    /// The builder mirrors [`QueryRequest`]'s setters plus
    /// [`Search::lenient`], which controls how the parser treats
    /// out-of-vocabulary words.
    pub fn query<'a>(&'a self, index: &'a InvertedIndex, text: &'a str) -> Search<'a, 'g> {
        Search {
            griffin: self,
            index,
            text,
            k: 10,
            mode: ExecMode::Hybrid,
            deadline: None,
            pruned: false,
            lenient: false,
        }
    }

    /// The unified entry point: executes `req` and returns the top-k,
    /// the virtual latency, and the per-step trace. The request's
    /// `deadline` is carried for the serving layer; the engine itself
    /// always runs the query to completion.
    pub fn run(&self, index: &InvertedIndex, req: &QueryRequest) -> GriffinOutput {
        // GPU-touching modes run in the GPU engine's async window so
        // transfers and kernels pipeline across the device's copy and
        // compute streams. Every measured span ends at a synchronization
        // point, so step durations still sum exactly to the total.
        if req.mode == ExecMode::CpuOnly {
            return self.run_inner(index, req);
        }
        self.gpu.windowed(|| self.run_inner(index, req))
    }

    /// Every request takes the same route: result cache, planner, one
    /// walk of the plan, one `finish`.
    fn run_inner(&self, index: &InvertedIndex, req: &QueryRequest) -> GriffinOutput {
        self.record_query(req.mode, req.query.num_terms(), || {
            // Top cache tier first: a repeat of a cached request is
            // answered without touching the planner or either engine.
            if let Some(hit) = self.result_cache_lookup(req) {
                return hit;
            }
            let root = plan::lower(index, &req.query);
            let mut run = Run {
                coarse: req.mode == ExecMode::CpuOnly,
                ..Run::default()
            };
            let topk = match &root {
                // Nothing runs: zero time and zero steps in every mode.
                PlanNode::Empty => Vec::new(),
                root => self.rank(index, root, req, &mut run),
            };
            self.finish(req, run, topk)
        })
    }

    /// Closes a query: the one place an executed [`GriffinOutput`] is
    /// assembled, and where it enters the result cache.
    fn finish(&self, req: &QueryRequest, run: Run, topk: Vec<(u32, f32)>) -> GriffinOutput {
        let out = GriffinOutput {
            topk,
            time: run.total,
            steps: run.steps,
            gpu_faults: run.log.faults,
            gpu_abandoned: run.log.gpu_disabled,
            pruning: run.pruning,
            fleet: None,
            result_cache_hit: false,
        };
        self.result_cache_store(req, &out);
        out
    }

    /// The root ranking operator. A root conjunction with
    /// [`QueryRequest::pruned`] set runs the fused block-max operator;
    /// every other shape evaluates the tree and selects the top-k on the
    /// CPU (Fig. 7).
    fn rank(
        &self,
        index: &InvertedIndex,
        root: &PlanNode,
        req: &QueryRequest,
        run: &mut Run,
    ) -> Vec<(u32, f32)> {
        let topk = match root {
            PlanNode::Chain { terms } if req.pruned => self.rank_pruned(index, terms, req, run),
            _ => {
                let host = self.eval(index, root, req.mode, run);
                let topk =
                    griffin_cpu::topk::top_k(&host.docids, &host.scores, req.k, &mut run.host);
                self.host_step(run, StepOp::TopK, topk.len());
                topk
            }
        };
        if run.coarse {
            // Every operator deferred its flush to here: the summed
            // counters of the whole tree, ranking included, are one step.
            let time = self.price_host(run);
            if time > VirtualNanos::ZERO {
                self.step(run, StepOp::Exec, Proc::Cpu, time, topk.len());
            }
        }
        topk
    }

    /// Block-max pruned ranking of a term conjunction: the CPU operator
    /// defers tf decoding behind per-block BM25 upper bounds; the GPU
    /// operator restricts uploads to the candidate hull's blocks. Both
    /// are bit-exact with unpruned ranking (the property suite checks
    /// this); under [`ExecMode::Hybrid`] the scheduler cost-picks one of
    /// the two wholesale — deferred scoring does not compose with
    /// per-step migration, so a pruned query does not migrate
    /// mid-chain.
    fn rank_pruned(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        req: &QueryRequest,
        run: &mut Run,
    ) -> Vec<(u32, f32)> {
        let place = match req.mode {
            ExecMode::CpuOnly => Proc::Cpu,
            ExecMode::GpuOnly => Proc::Gpu,
            // `terms` is the chain in execution order. A split decision
            // maps to the host operator: pruned chains keep their
            // intermediate host-resident.
            ExecMode::Hybrid => self.place_chain(index, terms),
        };
        if place == Proc::Gpu {
            let attempt = self.on_device(run, || {
                let mut hull = HullLedger::default();
                let host = self.gpu.eval_chain(index, terms, Some(&mut hull));
                // As in `chain`: a prefetch the chain left in flight goes
                // back to the cache before the span closes.
                self.gpu.drain_prefetch();
                self.device.sync();
                Ok((host?, hull))
            });
            if let Some(((host, hull), exec_time)) = attempt {
                let topk =
                    griffin_cpu::topk::top_k(&host.docids, &host.scores, req.k, &mut run.host);
                let matches = topk.len() as u64;
                run.pruning = Some(PruneStats {
                    tf_blocks_total: hull.blocks_total,
                    tf_blocks_decoded: hull.blocks_resident,
                    candidates: matches,
                    verified: matches,
                });
                self.step(run, StepOp::Exec, Proc::Gpu, exec_time, topk.len());
                self.host_step(run, StepOp::TopK, topk.len());
                return topk;
            }
        }
        let out = self.cpu.process_query_pruned(index, terms, req.k);
        run.host.add(&out.counters);
        run.pruning = Some(out.stats);
        self.host_step(run, StepOp::Exec, out.topk.len());
        out.topk
    }

    /// Walks the plan. Chains (and the chain part of phrases) run where
    /// the mode allows — including the hybrid per-step scheduler with
    /// its migrations and co-executed splits — while set operators run
    /// on the host (see [`crate::plan`] for why), each flushed as its
    /// own step so durations still sum to the total.
    fn eval(
        &self,
        index: &InvertedIndex,
        node: &PlanNode,
        mode: ExecMode,
        run: &mut Run,
    ) -> Intermediate {
        match node {
            PlanNode::Empty => Intermediate::default(),
            PlanNode::Chain { terms } => self.chain(index, terms, mode, run),
            PlanNode::Phrase { terms } => {
                let inter = self.chain(index, terms, mode, run);
                let out = setops::phrase_filter(index, terms, &inter, &mut run.host);
                self.host_step(run, StepOp::PhraseCheck, out.len());
                out
            }
            PlanNode::Intersect { children } => {
                let mut acc = self.eval(index, &children[0], mode, run);
                for c in &children[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    let part = self.eval(index, c, mode, run);
                    acc = setops::intersect_sets(&acc, &part, &mut run.host);
                    self.host_step(run, StepOp::IntersectSets, acc.len());
                }
                acc
            }
            PlanNode::Union { children } => {
                let mut acc = self.eval(index, &children[0], mode, run);
                for c in &children[1..] {
                    let part = self.eval(index, c, mode, run);
                    acc = setops::union(&acc, &part, &mut run.host);
                    self.host_step(run, StepOp::Union, acc.len());
                }
                acc
            }
            PlanNode::Difference { left, right } => {
                let l = self.eval(index, left, mode, run);
                if l.is_empty() {
                    return l;
                }
                let r = self.eval(index, right, mode, run);
                let out = setops::difference(&l, &r, &mut run.host);
                self.host_step(run, StepOp::Difference, out.len());
                out
            }
        }
    }

    /// The chain operator: a term conjunction evaluated to a scored,
    /// host-resident intermediate. The mode is a placement constraint,
    /// not a code path: [`ExecMode::Hybrid`] schedules every
    /// intersection, [`ExecMode::GpuOnly`] places the whole chain on the
    /// device (the host chain is its fault fallback), and
    /// [`ExecMode::CpuOnly`] on the host.
    fn chain(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        mode: ExecMode,
        run: &mut Run,
    ) -> Intermediate {
        match mode {
            ExecMode::Hybrid => return self.hybrid_chain(index, terms, run),
            ExecMode::GpuOnly => {
                let attempt = self.on_device(run, || {
                    let host = self.gpu.eval_chain(index, terms, None);
                    // Close the span, fault or not: leftover prefetches
                    // (the chain can end early on an empty intermediate)
                    // return to the cache's custody and all scheduled
                    // work retires on the clock, so the step covers
                    // everything this chain issued.
                    self.gpu.drain_prefetch();
                    self.device.sync();
                    host
                });
                if let Some((host, t)) = attempt {
                    self.step(run, StepOp::Exec, Proc::Gpu, t, host.len());
                    return host;
                }
            }
            ExecMode::CpuOnly => {}
        }
        let host = self.cpu.eval_chain(index, terms, &mut run.host);
        self.host_step(run, StepOp::Exec, host.len());
        host
    }

    /// A chain's starting placement, decided on its first pairwise
    /// ratio (`by_len` is the chain in execution order); a lone list
    /// stays home on the CPU. A split keeps its intermediate
    /// host-resident, so its residency view is the CPU too.
    fn place_chain(&self, index: &InvertedIndex, by_len: &[TermId]) -> Proc {
        let [first, second, ..] = *by_len else {
            return Proc::Cpu;
        };
        let d = self.scheduler.decide_traced_resident(
            index.doc_freq(first),
            index.doc_freq(second),
            Proc::Cpu,
            self.residency(second),
        );
        self.record_decision(&d);
        d.chosen.proc()
    }

    /// Pipelining: ships `next`'s list on the copy stream while the
    /// kernels just scheduled run, if the scheduler will keep that
    /// operation on the device. The prediction takes the same
    /// (residency-aware) inputs as the next iteration's real decision.
    fn prefetch_if_staying(&self, index: &InvertedIndex, inter_len: usize, next: TermId) {
        let d = self.scheduler.decide_traced_resident(
            inter_len,
            index.doc_freq(next),
            Proc::Gpu,
            self.residency(next),
        );
        if d.chosen.proc() == Proc::Gpu {
            self.gpu.prefetch(index, next);
        }
    }

    /// One host-placed intersection of the hybrid chain.
    fn host_intersect(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        host: &Intermediate,
        term: TermId,
    ) -> (Inter, VirtualNanos, Proc) {
        let out = self.cpu.intersect_step(index, host, term, &mut run.host);
        (Inter::Host(out), self.price_host(run), Proc::Cpu)
    }

    /// Executes one intersection as a CPU+GPU co-executed split.
    ///
    /// The long list is partitioned by docID range at a block boundary:
    /// the device takes blocks `[0, split_block)` (shipping only that
    /// slice's blocks over PCIe), the host takes `[split_block, nb)`, and
    /// the short (host-resident) intermediate is cut at the boundary
    /// docID so each lane sees exactly the short elements that can match
    /// its range. Both lanes run concurrently — the GPU lane on the
    /// device's streams, the CPU lane priced by the host cost model — and
    /// the partial results concatenate into exactly the unsplit answer
    /// (every match lands in exactly one lane, both lanes emit in docID
    /// order, and BM25 sees the full list's document frequency on both
    /// sides).
    ///
    /// The step costs `max(cpu_lane, gpu_lane)`: the lanes overlap, so
    /// step durations still sum to the query total. A GPU fault inside
    /// the split wastes only the device lane: the CPU lane's result is
    /// kept and only the device's range is re-run on the host (recorded
    /// as a [`StepOp::FaultRecovery`] step).
    fn split_intersect(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        i: usize,
        term: TermId,
        host: Intermediate,
        gpu_fraction: f64,
    ) -> Intermediate {
        let list = index.list(term);
        let nb = list.docs.num_blocks();
        let forced = self
            .scheduler
            .split
            .as_ref()
            .is_some_and(|s| s.forced_fraction.is_some());
        let fraction = if forced {
            // Forced fractions (tests, the static-grid sweep) are taken
            // literally — no adaptive refinement.
            gpu_fraction.clamp(0.0, 1.0)
        } else {
            self.balancer.borrow().refine(gpu_fraction)
        };
        let split_block = ((fraction * nb as f64).round() as usize).min(nb);
        let boundary = if split_block < nb {
            list.docs.skips[split_block].first_docid
        } else {
            u32::MAX
        };
        let cut = host.docids.partition_point(|&d| d < boundary);
        let t0 = self.device.now();

        // GPU lane: blocks [0, split_block) against the short prefix.
        // Skipped when its range cannot match anything (an empty lane) or
        // the device is disabled for this query.
        let mut gpu_lane = VirtualNanos::ZERO;
        let mut gpu_wasted = VirtualNanos::ZERO;
        let mut gpu_part: Option<Intermediate> = None;
        let run_gpu = split_block > 0 && cut > 0 && !run.log.gpu_disabled;
        if run_gpu {
            let start = self.device.now();
            let attempt = self.try_gpu(run, || {
                // The lane's buffers are this attempt's: a fault at any
                // point frees what it had shipped or produced so far.
                let mut scope = Scope::new(self.device);
                let dev_short = self
                    .gpu
                    .upload_intermediate(&host.docids[..cut], &host.scores[..cut])?;
                scope.adopt(dev_short.docids.clone());
                scope.adopt(dev_short.scores.clone());
                // The range upload bypasses the list cache (a slice is
                // useless to other queries) and is freed before the lane
                // returns, fault or not.
                let postings = self.gpu.upload_range(index, term, 0, split_block)?;
                let out = self
                    .gpu
                    .intersect_step(&dev_short, &postings, index.block_len());
                postings.free(self.device);
                scope.free(dev_short.docids);
                scope.free(dev_short.scores);
                let out = out?;
                scope.adopt(out.docids.clone());
                scope.adopt(out.scores.clone());
                self.gpu.download(&out)
            });
            match attempt {
                Ok(part) => {
                    self.device.stream_sync(StreamKind::Compute);
                    gpu_lane = self.device.now() - start;
                    gpu_part = Some(part);
                }
                Err(_) => {
                    gpu_wasted = self.device.now() - start;
                }
            }
        }

        // CPU lane: blocks [split_block, nb) against the short suffix,
        // concurrent with the device lane on the host's own core.
        let cpu_part = if cut < host.len() && split_block < nb {
            let tail = Intermediate {
                docids: host.docids[cut..].to_vec(),
                scores: host.scores[cut..].to_vec(),
            };
            Some(
                self.cpu
                    .intersect_step_range(index, &tail, term, split_block..nb, &mut run.host),
            )
        } else {
            None
        };
        let cpu_lane = self.price_host(run);

        // An abandoned device lane is re-run on the host — only its
        // range; the CPU lane's work is kept.
        let gpu_failed = run_gpu && gpu_part.is_none();
        let mut recovery_time = VirtualNanos::ZERO;
        if gpu_failed {
            let head = Intermediate {
                docids: host.docids[..cut].to_vec(),
                scores: host.scores[..cut].to_vec(),
            };
            let rerun =
                self.cpu
                    .intersect_step_range(index, &head, term, 0..split_block, &mut run.host);
            recovery_time = self.price_host(run);
            gpu_part = Some(rerun);
        }

        // Concatenate: the lanes cover disjoint, ordered docID ranges.
        let mut out = gpu_part.unwrap_or_default();
        if let Some(mut tail) = cpu_part {
            out.docids.append(&mut tail.docids);
            out.scores.append(&mut tail.scores);
        }

        let gpu_busy = if gpu_failed { gpu_wasted } else { gpu_lane };
        let op = StepOp::SplitIntersect {
            term: i + 1,
            cpu_lane,
            gpu_lane: gpu_busy,
        };
        let proc = if run_gpu { Proc::Gpu } else { Proc::Cpu };
        self.step(run, op, proc, cpu_lane.max(gpu_busy), out.len());
        if gpu_failed {
            self.recovery_step(run, recovery_time, out.len());
        }

        // Feedback and observability. The balancer only learns from real
        // two-lane splits (zero lanes carry no signal; forced fractions
        // must stay reproducible).
        if !forced {
            self.balancer
                .borrow_mut()
                .observe(cpu_lane.as_nanos(), gpu_lane.as_nanos());
        }
        self.telemetry
            .counter_add("griffin_coexec_split_ops_total", 1);
        self.telemetry.with(|r| {
            r.registry.observe(
                "griffin_coexec_fraction_pct",
                (fraction * 100.0).round() as u64,
            );
        });
        if cpu_lane > VirtualNanos::ZERO && gpu_lane > VirtualNanos::ZERO {
            self.telemetry.gauge_set(
                "griffin_coexec_lane_imbalance",
                cpu_lane.as_nanos() as f64 / gpu_lane.as_nanos() as f64,
            );
        }
        if cpu_lane > VirtualNanos::ZERO {
            self.telemetry.record(|r| TraceEvent::CpuLane {
                query: r.current_query(),
                op: "split_intersect",
                start: t0,
                duration: cpu_lane,
            });
        }
        out
    }

    /// The per-step hybrid AND-chain — the engine's heart, run once per
    /// chain operator. Plans the terms by document frequency, then
    /// decides each pairwise intersection's processor (with migration,
    /// split co-execution, prefetch, and fault recovery), and always
    /// returns the intermediate host-resident (salvaging any device
    /// residency at the end, like final ranking always did).
    fn hybrid_chain(&self, index: &InvertedIndex, terms: &[TermId], run: &mut Run) -> Intermediate {
        let planned = index.chain_order(terms);
        let Some((&first, rest)) = planned.split_first() else {
            return Intermediate::default();
        };

        let mut inter: Inter = match self.place_chain(index, &planned) {
            Proc::Gpu => {
                let start = self.device.now();
                let attempt = self.try_gpu(run, || {
                    let postings = self.gpu.upload(index, first)?;
                    let dev = self.gpu.init_intermediate(&postings);
                    self.gpu.release(postings);
                    dev
                });
                match attempt {
                    Ok(dev_inter) => {
                        if let Some(&second) = rest.first() {
                            self.prefetch_if_staying(index, dev_inter.len, second);
                        }
                        // End the span at a sync point so its duration
                        // covers the kernels this step scheduled.
                        self.device.stream_sync(StreamKind::Compute);
                        let t_up = self.device.now() - start;
                        self.step(run, StepOp::Init, Proc::Gpu, t_up, dev_inter.len);
                        Inter::Device(dev_inter)
                    }
                    // Nothing materialized yet: the recovery is just the
                    // wasted attempts plus a CPU init.
                    Err(_) => Inter::Host(self.abandon(run, index, &planned, 0, None, start)),
                }
            }
            Proc::Cpu => {
                let host = self.cpu.init_intermediate(index, first, &mut run.host);
                self.host_step(run, StepOp::Init, host.len());
                Inter::Host(host)
            }
        };

        for (i, &term) in rest.iter().enumerate() {
            if inter.len() == 0 {
                break;
            }
            let long_len = index.doc_freq(term);
            let decision = if run.log.gpu_disabled {
                Decision::Cpu
            } else {
                let d = self.scheduler.decide_traced_resident(
                    inter.len(),
                    long_len,
                    inter.loc(),
                    self.residency(term),
                );
                self.record_decision(&d);
                d.chosen
            };

            // Co-execution: run this intersection on both processors at
            // once (no migration — splits only arise for host-resident
            // intermediates, and the result comes back host-resident).
            if let Decision::Split { gpu_fraction } = decision {
                let Inter::Host(host) = inter else {
                    unreachable!("split decisions require a host-resident intermediate")
                };
                let out = self.split_intersect(run, index, i, term, host, gpu_fraction);
                inter = Inter::Host(out);
                continue;
            }
            let mut target = decision.proc();

            // Migrate the intermediate if the scheduler moved the op.
            if target != inter.loc() {
                match (inter, target) {
                    (Inter::Host(h), Proc::Gpu) => {
                        let start = self.device.now();
                        let shipped = self
                            .try_gpu(run, || self.gpu.upload_intermediate(&h.docids, &h.scores));
                        // The upload ran on the copy stream; close the
                        // span on it so the migration is charged here and
                        // a later download sees the transfer retired.
                        if shipped.is_ok() {
                            self.device.stream_sync(StreamKind::Copy);
                        }
                        let t = self.device.now() - start;
                        match shipped {
                            Ok(dev) => {
                                self.step(run, StepOp::Migrate, target, t, dev.len);
                                inter = Inter::Device(dev);
                            }
                            Err(_) => {
                                // The intermediate never left the host:
                                // stay there and run the op on the CPU.
                                self.recovery_step(run, t, h.len());
                                inter = Inter::Host(h);
                                target = Proc::Cpu;
                            }
                        }
                    }
                    (Inter::Device(dev), Proc::Cpu) => {
                        inter = Inter::Host(self.bring_home(run, index, &planned, i, dev));
                    }
                    (other, _) => inter = other,
                }
            }

            let (next, t, ran_on) = match (inter, target) {
                (Inter::Device(dev), Proc::Gpu) => {
                    let start = self.device.now();
                    let attempt = self.try_gpu(run, || {
                        let postings = self.gpu.upload(index, term)?;
                        let out = self.gpu.intersect_step(&dev, &postings, index.block_len());
                        self.gpu.release(postings);
                        out
                    });
                    match attempt {
                        Ok(out) => {
                            dev.free(self.device);
                            if let Some(&next_term) = rest.get(i + 1) {
                                if out.len > 0 {
                                    self.prefetch_if_staying(index, out.len, next_term);
                                }
                            }
                            self.device.stream_sync(StreamKind::Compute);
                            (Inter::Device(out), self.device.now() - start, Proc::Gpu)
                        }
                        Err(_) => {
                            // Abandon the GPU lane: drain (or re-run) the
                            // pre-step intermediate, then run this
                            // intersection on the CPU.
                            let host = self.abandon(run, index, &planned, i, Some(dev), start);
                            self.host_intersect(run, index, &host, term)
                        }
                    }
                }
                (Inter::Host(host), Proc::Cpu) => self.host_intersect(run, index, &host, term),
                _ => unreachable!("intermediate was just migrated to the target"),
            };
            inter = next;
            self.step(run, StepOp::Intersect(i + 1), ran_on, t, inter.len());
        }

        // A prefetch predicted for a step that never ran on the device
        // (empty intermediate, fault migration) is returned to the list
        // cache's custody; its transfer already retires in the background
        // on the copy stream.
        self.gpu.drain_prefetch();

        // The intermediate comes home: whatever follows the chain —
        // set operations, phrase checks, or final ranking — runs on
        // the CPU (Fig. 7).
        match inter {
            Inter::Device(dev) => self.bring_home(run, index, &planned, rest.len(), dev),
            Inter::Host(h) => h,
        }
    }
}

/// A fluent text search, created by [`Griffin::query`]. Collects the
/// same knobs as [`QueryRequest`] plus the parser's lenient flag, then
/// [`Search::run`] parses the text and executes the request.
#[must_use = "a Search does nothing until .run() is called"]
pub struct Search<'a, 'g> {
    griffin: &'a Griffin<'g>,
    index: &'a InvertedIndex,
    text: &'a str,
    k: usize,
    mode: ExecMode,
    deadline: Option<VirtualNanos>,
    pruned: bool,
    lenient: bool,
}

impl Search<'_, '_> {
    /// How many results to return (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Which execution mode to run under (default [`ExecMode::Hybrid`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// A serving deadline, carried for the scheduler's benefit.
    pub fn deadline(mut self, d: VirtualNanos) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Opt into block-max top-k pruning (conjunctions only; other
    /// query shapes ignore the flag and rank unpruned).
    pub fn pruned(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }

    /// Forgive out-of-vocabulary words: the parser maps them to a
    /// match-nothing leaf instead of erroring, so a conjunction with an
    /// unknown word is empty. Syntax errors still error.
    pub fn lenient(mut self, lenient: bool) -> Self {
        self.lenient = lenient;
        self
    }

    /// Parses the text and runs the query.
    pub fn run(self) -> Result<GriffinOutput, QueryError> {
        let q = Query::parse(self.index, self.text, self.lenient)?;
        let mut req = QueryRequest::from_query(q)
            .k(self.k)
            .mode(self.mode)
            .pruned(self.pruned);
        if let Some(d) = self.deadline {
            req = req.deadline(d);
        }
        Ok(self.griffin.run(self.index, &req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_gpu_sim::DeviceConfig;
    use griffin_index::InvertedIndex;
    use griffin_workload::{gen_docid_list, GapProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_index(lens: &[usize], num_docs: u32) -> InvertedIndex {
        let mut rng = StdRng::seed_from_u64(11);
        let lists: Vec<Vec<u32>> = lens
            .iter()
            .map(|&len| gen_docid_list(&mut rng, len, num_docs, GapProfile::HeavyTailed))
            .collect();
        InvertedIndex::from_docid_lists(&lists, num_docs, Codec::EliasFano, 128)
    }

    fn terms(idx: &InvertedIndex, n: usize) -> Vec<TermId> {
        (0..n)
            .map(|i| idx.lookup(&format!("t{i}")).unwrap())
            .collect()
    }

    #[test]
    fn all_modes_return_identical_results() {
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);

        let cpu = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));
        let gpu_only = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::GpuOnly));
        let hybrid = griffin.run(&idx, &QueryRequest::new(q.to_vec()));

        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();
        assert_eq!(ids(&cpu), ids(&gpu_only));
        assert_eq!(ids(&cpu), ids(&hybrid));
        for ((_, a), (_, b)) in cpu.topk.iter().zip(&hybrid.topk) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(!cpu.topk.is_empty(), "test query should match something");
    }

    #[test]
    fn hybrid_trace_records_migration_when_ratio_flips() {
        // Comparable first pair (GPU) then a hugely longer list (CPU).
        let idx = test_index(&[10_000, 60_000, 1_500_000], 4_000_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));

        let procs: Vec<Proc> = out
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Init | StepOp::Intersect(_)))
            .map(|s| s.proc)
            .collect();
        assert_eq!(
            procs.first(),
            Some(&Proc::Gpu),
            "starts on GPU: {:?}",
            out.steps
        );
        assert_eq!(
            procs.last(),
            Some(&Proc::Cpu),
            "finishes on CPU: {:?}",
            out.steps
        );
        assert!(
            out.steps.iter().any(|s| s.op == StepOp::Migrate),
            "expected a migration step"
        );
        // Migration time must be accounted.
        let migrate_time: VirtualNanos = out
            .steps
            .iter()
            .filter(|s| s.op == StepOp::Migrate)
            .map(|s| s.time)
            .sum();
        assert!(migrate_time.as_nanos() > 0);
    }

    #[test]
    fn device_memory_reclaimed_after_hybrid_query() {
        let idx = test_index(&[1_000, 5_000, 20_000], 200_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);
        let _ = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
        // Only the engine-owned state (cached hot lists) may remain; all
        // per-query buffers are gone after shutdown.
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    fn single_term_query_runs_on_cpu() {
        let idx = test_index(&[5_000], 100_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 1);
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()).k(5));
        assert_eq!(out.topk.len(), 5);
        assert!(out.steps.iter().all(|s| s.proc == Proc::Cpu));
    }

    #[test]
    fn string_search_convenience() {
        let mut b = griffin_index::IndexBuilder::new(Codec::EliasFano);
        b.add_text("rust gpu simulator");
        b.add_text("rust cpu engine");
        b.add_text("gpu engine rust");
        let idx = b.build();
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let hits = griffin
            .query(&idx, "rust engine")
            .k(10)
            .run()
            .expect("all words known");
        let mut docs: Vec<u32> = hits.topk.iter().map(|&(d, _)| d).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 2]);
        // Unknown words are an error by default...
        let err = griffin.query(&idx, "rust nonexistent").run().unwrap_err();
        assert_eq!(err, QueryError::UnknownTerm("nonexistent".into()));
        // ...and an empty result from the lenient builder.
        let none = griffin
            .query(&idx, "rust nonexistent")
            .lenient(true)
            .run()
            .expect("lenient parses");
        assert!(none.topk.is_empty());
        assert_eq!(none.time, VirtualNanos::ZERO);
        // The full grammar: OR, negation, phrases.
        let planned = griffin
            .query(&idx, "\"rust gpu\" OR engine -cpu")
            .run()
            .expect("grammar parses");
        let mut docs: Vec<u32> = planned.topk.iter().map(|&(d, _)| d).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 2]);
    }

    #[test]
    fn run_accepts_a_query_request() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Disable the device list cache so the two runs below see
        // identical transfer costs.
        griffin.gpu.set_cache_budget(0);
        let q = terms(&idx, 2);
        // The deadline is the serving layer's: the engine runs the query
        // to completion either way.
        let req = QueryRequest::new(q.clone())
            .k(10)
            .mode(ExecMode::Hybrid)
            .deadline(VirtualNanos::from_millis(100));
        let with_deadline = griffin.run(&idx, &req);
        let without = griffin.run(&idx, &QueryRequest::new(q));
        assert!(!with_deadline.topk.is_empty());
        assert_eq!(with_deadline.topk, without.topk);
        assert_eq!(with_deadline.time, without.time);
    }

    #[test]
    fn non_hybrid_modes_trace_coarse_steps_that_sum_to_total() {
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);

        let cpu = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));
        assert_eq!(cpu.steps.len(), 1);
        assert_eq!(cpu.steps[0].op, StepOp::Exec);
        assert_eq!(cpu.steps[0].proc, Proc::Cpu);
        assert_eq!(cpu.steps[0].time, cpu.time);

        let gpu_only = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::GpuOnly));
        assert_eq!(gpu_only.steps.len(), 2);
        assert_eq!(gpu_only.steps[0].proc, Proc::Gpu);
        assert_eq!(gpu_only.steps[1].op, StepOp::TopK);
        assert_eq!(gpu_only.steps[1].proc, Proc::Cpu);
        let sum: VirtualNanos = gpu_only.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, gpu_only.time);
    }

    #[test]
    fn empty_query() {
        let idx = test_index(&[1_000], 50_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let out = griffin.run(&idx, &QueryRequest::new(vec![]));
        assert!(out.topk.is_empty());
        assert_eq!(out.time, VirtualNanos::ZERO);
    }

    #[test]
    fn hybrid_survives_sticky_device_loss_at_any_point() {
        use griffin_gpu_sim::FaultPlan;
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Pin the floor: this test is about the fault schedule, and the
        // pinned op indices assume these small lists reach the device.
        griffin.scheduler.min_gpu_work = 256;
        let q = terms(&idx, 3);
        let baseline = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));
        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();

        for at in [0u64, 1, 3, 9, 25] {
            gpu.set_fault_plan(Some(FaultPlan::seeded(7).lose_device_at(at)));
            let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
            assert_eq!(ids(&baseline), ids(&out), "loss at op {at}");
            assert!(out.gpu_faults > 0, "loss at op {at} should be observed");
            assert!(
                out.steps.iter().any(|s| s.op == StepOp::FaultRecovery),
                "loss at op {at} should leave a recovery step"
            );
            let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
            assert_eq!(sum, out.time, "steps must sum to total under faults");
            gpu.set_fault_plan(None);
        }
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "faulted queries must not leak");
    }

    #[test]
    fn transient_fault_is_retried_in_place() {
        use griffin_gpu_sim::{FaultKind, FaultPlan};
        let idx = test_index(&[3_000, 20_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Pin the floor so the pinned fault op index lands on device work.
        griffin.scheduler.min_gpu_work = 256;
        let q = terms(&idx, 2);
        let baseline = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));

        gpu.set_fault_plan(Some(
            FaultPlan::seeded(7).fail_at(2, FaultKind::KernelLaunchFailed),
        ));
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
        gpu.set_fault_plan(None);

        assert_eq!(out.gpu_faults, 1, "exactly the pinned fault fires");
        assert_eq!(
            baseline.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            out.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>()
        );
        // A successful retry keeps the query on the GPU: no recovery step.
        assert!(out.steps.iter().all(|s| s.op != StepOp::FaultRecovery));
        let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, out.time);
    }

    #[test]
    fn gpu_only_falls_back_to_cpu_on_device_loss() {
        use griffin_gpu_sim::FaultPlan;
        let idx = test_index(&[3_000, 20_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        let baseline = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::CpuOnly));

        gpu.set_fault_plan(Some(FaultPlan::seeded(7).lose_device_at(0)));
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(ExecMode::GpuOnly));
        gpu.set_fault_plan(None);

        assert_eq!(
            baseline.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            out.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>()
        );
        assert!(out.gpu_faults > 0);
        assert_eq!(out.steps[0].op, StepOp::FaultRecovery);
        let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, out.time);
    }

    #[test]
    fn fault_free_run_reports_zero_faults() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
            let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()).mode(mode));
            assert_eq!(out.gpu_faults, 0);
            assert!(out.steps.iter().all(|s| s.op != StepOp::FaultRecovery));
        }
    }

    #[test]
    fn pruned_device_lane_is_the_plain_chain_with_hull_uploads() {
        // t0 starts at docID 400 000; t1 spends 30 000 postings below that.
        let high: Vec<u32> = (0..3_000u32).map(|i| 400_000 + i * 5).collect();
        let prefix = (0..30_000u32).map(|i| i * 3);
        let prefixed: Vec<u32> = prefix.chain((0..8_000).map(|i| 400_000 + i * 2)).collect();
        let idx =
            InvertedIndex::from_docid_lists(&[high, prefixed], 500_000, Codec::EliasFano, 128);
        let q = terms(&idx, 2);
        let run = |pruned: bool| {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
            let req = QueryRequest::new(q.clone()).k(10).mode(ExecMode::GpuOnly);
            let out = griffin.run(&idx, &req.pruned(pruned));
            (out, gpu.stats().htod_bytes)
        };
        let (plain, plain_bytes) = run(false);
        let (pruned, pruned_bytes) = run(true);

        let bits = |o: &GriffinOutput| -> Vec<(u32, u32)> {
            o.topk.iter().map(|&(d, s)| (d, s.to_bits())).collect()
        };
        assert_eq!(plain.topk.len(), 10);
        assert_eq!(bits(&plain), bits(&pruned));
        // One device step and the host ranking, as for the plain chain.
        let shape = |o: &GriffinOutput| -> Vec<(StepOp, Proc, usize)> {
            o.steps
                .iter()
                .map(|s| (s.op, s.proc, s.inter_len))
                .collect()
        };
        let steps = vec![(StepOp::Exec, Proc::Gpu, 10), (StepOp::TopK, Proc::Cpu, 10)];
        assert_eq!(shape(&pruned), steps);
        assert_eq!(plain.steps[1], pruned.steps[1], "the same ranking step");
        let sum: VirtualNanos = pruned.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, pruned.time);
        // The hull took t1's prefix off the wire.
        let ledger = pruned.pruning.expect("pruned runs carry the ledger");
        assert!(ledger.tf_blocks_decoded < ledger.tf_blocks_total / 2);
        assert!(pruned_bytes < plain_bytes / 2);
        assert!(pruned.time < plain.time);
        assert!(plain.pruning.is_none());
    }

    #[test]
    fn pruned_hybrid_is_placed_by_the_pair_it_runs_first() {
        use griffin_index::shard::{partition, ShardPlan};
        use griffin_telemetry::TraceEvent;
        // Whole-corpus dfs order the chain t0, t1, t2. In the first shard
        // t2 is the shortest list (its postings are nearly all in the
        // second), so sorting by local length would put it first.
        let lists: Vec<Vec<u32>> = vec![
            (0..1_000u32).map(|i| i * 200).collect(),
            (0..4_000u32).map(|i| i * 50).collect(),
            (0..100u32)
                .map(|i| i * 1_000)
                .chain((0..9_900).map(|i| 100_000 + i * 10))
                .collect(),
        ];
        let whole = InvertedIndex::from_docid_lists(&lists, 200_000, Codec::EliasFano, 128);
        let shard = partition(&whole, &ShardPlan::even(200_000, 2)).swap_remove(0);
        let q = terms(&shard, 3);
        let local: Vec<usize> = q.iter().map(|&t| shard.doc_freq(t)).collect();
        assert_eq!(local, [500, 2_000, 100]);

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, shard.meta(), shard.block_len());
        griffin.set_telemetry(Telemetry::enabled());
        let req = QueryRequest::new(vec![q[2], q[0], q[1]]).k(10).pruned(true);
        let out = griffin.run(&shard, &req);
        assert_eq!(out.topk.len(), 10);
        let decided: Vec<(usize, usize)> = griffin
            .telemetry()
            .recorder()
            .expect("enabled")
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SchedDecision {
                    short_len,
                    long_len,
                    ..
                } => Some((*short_len, *long_len)),
                _ => None,
            })
            .collect();
        assert_eq!(decided, [(500, 2_000)], "t0 against t1, at local lengths");
    }

    #[test]
    fn times_are_positive_and_steps_sum_to_total() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        let out = griffin.run(&idx, &QueryRequest::new(q.to_vec()));
        let step_sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(step_sum, out.time);
        assert!(out.time.as_nanos() > 0);
    }
}
