//! The pinned surface: the only file of the benchmark that names items
//! of the repository. Everything the harness does to the system under
//! test goes through the functions below, and everything they return is
//! plain data, so a refactor of the crates has exactly one file here to
//! keep compiling. `README.md` lists the entry points this file relies
//! on; an issue that removes one of them is paired with a benchmark
//! issue.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use griffin::serving::StageReq;
use griffin::{
    merge_topk, ExecMode, Griffin, GriffinOutput, Planner, Proc, Query, QueryRequest, Scheduler,
    ShardedIndex, StepOp,
};
use griffin_codec::{BlockedList, CompressionStats};
use griffin_cpu::{decode, simd, CpuEngine, WorkCounters};
use griffin_gpu::GpuEngine;
use griffin_gpu_sim::{
    DeviceBuffer, DeviceConfig, DeviceEvent, FaultPlan, Gpu, Kernel, LaunchConfig, ThreadCtx,
    VirtualNanos,
};
use griffin_index::{InvertedIndex, TermId};
use griffin_server::{
    stages_of, ArrivingQuery, BatchConfig, BreakerConfig, Fleet, FleetConfig, FleetDevices,
    GriffinServer, HedgeConfig, Outcome, PlannedQuery, ServerConfig,
};
use griffin_telemetry::Telemetry;
use griffin_workload::{
    build_text_index, gen_correlated_lists, sample_list_len, CorpusSpec, MixedQuerySpec,
    QueryLogSpec,
};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Results returned per query.
pub const K: usize = 10;

// ---------------------------------------------------------------- rng

/// The benchmark's seeded generator (the repository's vendored `rand`).
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(StdRng::seed_from_u64(seed))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.gen()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }
}

// ------------------------------------------------------------- inputs

/// A compressed inverted index.
pub struct Index(InvertedIndex);

/// The generator's uncompressed docID lists, kept as ground truth.
pub struct RawLists(Vec<Vec<u32>>);

/// DocID-range shard views of one index.
pub struct Shards(ShardedIndex);

/// Shape of a list-level synthetic index. The list *lengths* are the
/// Fig. 10 sampler's draws under the constant `shape_seed`, times
/// `len_scale`; only the documents inside the lists come from the run's
/// seed. Every seed therefore measures the same amount of work on
/// different data, which is what keeps run-to-run spread inside the
/// bounds (drawing the lengths too moves total postings by 2x).
#[derive(Debug, Clone, Copy)]
pub struct ListShape {
    pub terms: usize,
    pub docs: u32,
    pub max_list: usize,
    pub len_scale: f64,
    pub shape_seed: u64,
}

/// Shape of a text corpus (documents of Zipf-drawn words).
#[derive(Debug, Clone, Copy)]
pub struct TextShape {
    pub docs: usize,
    pub vocab: usize,
    pub doc_len: usize,
    pub burstiness: f64,
    pub length_skew: f64,
    pub block_len: usize,
}

pub fn gen_lists(shape: &ListShape, seed: u64) -> RawLists {
    let mut shape_rng = StdRng::seed_from_u64(shape.shape_seed);
    let lens: Vec<usize> = (0..shape.terms)
        .map(|_| {
            let len = sample_list_len(&mut shape_rng, shape.max_list) as f64 * shape.len_scale;
            (len as usize).min(shape.docs as usize / 2).max(100)
        })
        .collect();
    RawLists(gen_correlated_lists(
        &mut StdRng::seed_from_u64(seed),
        &lens,
        shape.docs,
    ))
}

impl RawLists {
    pub fn list(&self, term: u32) -> &[u32] {
        &self.0[term as usize]
    }
}

/// Elias-Fano, 128-element blocks: the paper's GPU-side layout.
pub fn build_list_index(lists: &RawLists, docs: u32) -> Index {
    Index(InvertedIndex::from_docid_lists(
        &lists.0,
        docs,
        griffin_codec::Codec::EliasFano,
        128,
    ))
}

pub fn build_text(shape: &TextShape, seed: u64) -> Index {
    let spec = CorpusSpec {
        num_docs: shape.docs,
        vocab_size: shape.vocab,
        avg_doc_len: shape.doc_len,
        burstiness: shape.burstiness,
        length_skew: shape.length_skew,
        block_len: shape.block_len,
        ..Default::default()
    };
    Index(build_text_index(&spec, &mut StdRng::seed_from_u64(seed)))
}

pub fn shard(index: &Index, shards: usize) -> Shards {
    Shards(ShardedIndex::build(&index.0, shards))
}

impl Index {
    pub fn postings(&self) -> u64 {
        (0..self.0.num_terms() as u32)
            .map(|t| self.0.doc_freq(TermId(t)) as u64)
            .sum()
    }

    pub fn bytes(&self) -> u64 {
        self.0.size_bits() / 8
    }

    /// Postings in the lists a request names (its input size).
    pub fn postings_of(&self, req: &Request) -> u64 {
        fn walk(q: &Query, out: &mut Vec<TermId>) {
            match q {
                Query::Term(t) => out.push(*t),
                Query::And(qs) | Query::Or(qs) => qs.iter().for_each(|q| walk(q, out)),
                Query::Not(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Query::Phrase(ts) => out.extend(ts),
                Query::Nothing => {}
            }
        }
        let mut terms = Vec::new();
        match req {
            Request::Terms { terms: ts, .. } => terms.extend(ts.iter().map(|&t| TermId(t))),
            Request::Text(text) => {
                if let Ok(q) = Query::parse(&self.0, text, false) {
                    walk(&q, &mut terms);
                }
            }
        }
        terms.iter().map(|&t| self.0.doc_freq(t) as u64).sum()
    }

    /// The distinct terms a log of conjunctive requests touches.
    pub fn terms_touched(&self, log: &[Request]) -> Vec<u32> {
        let mut seen = vec![false; self.0.num_terms()];
        for req in log {
            if let Request::Terms { terms, .. } = req {
                for &t in terms {
                    seen[t as usize] = true;
                }
            }
        }
        (0..seen.len() as u32)
            .filter(|&t| seen[t as usize])
            .collect()
    }
}

// ----------------------------------------------------------- requests

/// One query of a log, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A conjunction of term ids, through `Griffin::run`.
    Terms { terms: Vec<u32>, pruned: bool },
    /// A query string, through `Griffin::query(..).run()` (parser,
    /// planner, plan executor).
    Text(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    CpuOnly,
    GpuOnly,
    Hybrid,
}

impl Mode {
    fn exec(self) -> ExecMode {
        match self {
            Mode::CpuOnly => ExecMode::CpuOnly,
            Mode::GpuOnly => ExecMode::GpuOnly,
            Mode::Hybrid => ExecMode::Hybrid,
        }
    }
}

/// The paper's Fig. 11 term-count histogram over df-ranked terms
/// (`QueryLogSpec::default()`), drawn under a constant seed: like the
/// list lengths, the log's shape is part of the workload's definition.
pub fn gen_term_queries(index: &Index, n: usize, shape_seed: u64, pruned: bool) -> Vec<Request> {
    QueryLogSpec {
        num_queries: n,
        ..Default::default()
    }
    .generate(&index.0, &mut StdRng::seed_from_u64(shape_seed))
    .into_iter()
    .map(|q| Request::Terms {
        terms: q.into_iter().map(|t| t.0).collect(),
        pruned,
    })
    .collect()
}

/// `MixedQuerySpec::default()` strings: AND / OR / NOT / phrase.
pub fn gen_mixed_queries(index: &Index, n: usize, shape_seed: u64) -> Vec<Request> {
    MixedQuerySpec {
        num_queries: n,
        ..Default::default()
    }
    .generate(&index.0, &mut StdRng::seed_from_u64(shape_seed))
    .into_iter()
    .map(Request::Text)
    .collect()
}

/// A request made ready outside the timed region.
pub enum Prepared {
    Request(QueryRequest),
    Text(String, ExecMode),
}

pub fn prepare(req: &Request, mode: Mode) -> Prepared {
    match req {
        Request::Terms { terms, pruned } => Prepared::Request(
            QueryRequest::new(terms.iter().map(|&t| TermId(t)).collect())
                .k(K)
                .mode(mode.exec())
                .pruned(*pruned),
        ),
        Request::Text(text) => Prepared::Text(text.clone(), mode.exec()),
    }
}

// ------------------------------------------------------------ answers

/// An engine's untouched output; convert with [`Raw::into_answer`]
/// after the clock has stopped.
pub struct Raw(GriffinOutput);

/// Step counts and simulated time by where the step ran. The four time
/// fields partition the steps, so they sum to the query's `virt_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepSums {
    pub n_cpu: u32,
    pub n_gpu: u32,
    pub n_split: u32,
    pub n_migrate: u32,
    pub cpu_ns: u64,
    pub gpu_ns: u64,
    pub migrate_ns: u64,
    pub recovery_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// (docID, score bits), best first.
    pub topk: Vec<(u32, u32)>,
    pub virt_ns: u64,
    pub steps: StepSums,
    /// Failed device attempts, retried ones included.
    pub gpu_faults: u32,
    pub gpu_abandoned: bool,
    pub cache_hit: bool,
    /// Block-max ledger: tf blocks an unpruned scorer decodes, and the
    /// ones this query did decode (both 0 when the query ran unpruned).
    pub tf_blocks_total: u64,
    pub tf_blocks_decoded: u64,
    /// Share of shards in the answer; 1.0 from a single engine.
    pub coverage: f64,
    stages: Vec<StageReq>,
}

impl Raw {
    pub fn into_answer(self) -> Answer {
        let out = self.0;
        let mut steps = StepSums::default();
        for s in &out.steps {
            let ns = s.time.as_nanos();
            match (s.op, s.proc) {
                (StepOp::FaultRecovery, _) => steps.recovery_ns += ns,
                (StepOp::Migrate, _) => {
                    steps.n_migrate += 1;
                    steps.migrate_ns += ns;
                }
                (StepOp::SplitIntersect { .. }, proc) => {
                    steps.n_split += 1;
                    match proc {
                        Proc::Gpu => steps.gpu_ns += ns,
                        Proc::Cpu => steps.cpu_ns += ns,
                    }
                }
                (_, Proc::Gpu) => {
                    steps.n_gpu += 1;
                    steps.gpu_ns += ns;
                }
                (_, Proc::Cpu) => {
                    steps.n_cpu += 1;
                    steps.cpu_ns += ns;
                }
            }
        }
        let (tf_blocks_total, tf_blocks_decoded) = out
            .pruning
            .map_or((0, 0), |p| (p.tf_blocks_total, p.tf_blocks_decoded));
        Answer {
            topk: out.topk.iter().map(|&(d, s)| (d, s.to_bits())).collect(),
            virt_ns: out.time.as_nanos(),
            steps,
            gpu_faults: out.gpu_faults,
            gpu_abandoned: out.gpu_abandoned,
            cache_hit: out.result_cache_hit,
            tf_blocks_total,
            tf_blocks_decoded,
            coverage: out.fleet.as_ref().map_or(1.0, |f| f.coverage),
            stages: stages_of(&out),
        }
    }
}

/// Runs an engine call, turning a panic into an error the harness
/// counts as a failed query instead of losing the whole run.
fn guarded(f: impl FnOnce() -> Result<GriffinOutput, String>) -> Result<Raw, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out.map(|o| Raw(black_box(o))),
        Err(_) => Err("panicked".into()),
    }
}

// ------------------------------------------------------------ devices

/// One device event, stamped on the host clock when the simulator
/// reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevEvent {
    /// Kernel name (`family.kernel`) or `pcie_htod` / `pcie_dtoh`.
    pub name: &'static str,
    /// Host nanoseconds since the log's epoch.
    pub host_ns: u64,
    /// Simulated duration.
    pub virt_ns: u64,
    /// Simulated threads (grid x block) of a kernel, bytes of a transfer.
    pub work: u64,
    /// Which device of a fleet (0 for a single engine).
    pub device: u32,
}

/// The benchmark's `DeviceObserver` sink. The simulator calls observers
/// after the virtual clock has advanced, so installing one cannot move
/// a simulated number.
#[derive(Clone)]
pub struct DevLog {
    epoch: Instant,
    events: Arc<Mutex<Vec<DevEvent>>>,
}

impl DevLog {
    pub fn new(epoch: Instant) -> DevLog {
        DevLog {
            epoch,
            events: Arc::default(),
        }
    }

    /// Takes the events recorded since the last call, in host order.
    pub fn drain(&self) -> Vec<DevEvent> {
        std::mem::take(&mut *self.events.lock().expect("device log lock"))
    }

    fn install(&self, gpu: &Gpu, device: u32) {
        let epoch = self.epoch;
        let events = Arc::clone(&self.events);
        gpu.set_observer(Some(Arc::new(move |event: &DeviceEvent<'_>| {
            let host_ns = epoch.elapsed().as_nanos() as u64;
            let (name, virt, work) = match *event {
                DeviceEvent::KernelLaunch { name, report, .. } => {
                    (name, report.time, report.config.total_threads())
                }
                DeviceEvent::Transfer {
                    direction,
                    bytes,
                    duration,
                    ..
                } => (
                    match direction.as_str() {
                        "htod" => "pcie_htod",
                        _ => "pcie_dtoh",
                    },
                    duration,
                    bytes,
                ),
            };
            events.lock().expect("device log lock").push(DevEvent {
                name,
                host_ns,
                virt_ns: virt.as_nanos(),
                work,
                device,
            });
        })));
    }
}

/// The simulator's public transfer and allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevCounters {
    pub allocs: u64,
    pub htod_bytes: u64,
    pub dtoh_bytes: u64,
    pub peak_bytes: u64,
}

impl DevCounters {
    fn add(&mut self, gpu: &Gpu) {
        let s = gpu.stats();
        self.allocs += s.allocs;
        self.htod_bytes += s.htod_bytes;
        self.dtoh_bytes += s.dtoh_bytes;
        self.peak_bytes += s.peak_bytes;
    }
}

/// Tesla K20 with one warp in 16 traced, as every experiment uses it.
fn k20() -> DeviceConfig {
    DeviceConfig {
        trace_sample_stride: 16,
        ..DeviceConfig::tesla_k20()
    }
}

pub struct Device(Gpu);

impl Device {
    pub fn k20() -> Device {
        Device(Gpu::new(k20()))
    }

    pub fn observe(&self, log: &DevLog) {
        log.install(&self.0, 0);
    }

    pub fn counters(&self) -> DevCounters {
        let mut c = DevCounters::default();
        c.add(&self.0);
        c
    }
}

// ------------------------------------------------------------- engine

/// Sizes of the two cache tiers above the device LRU.
#[derive(Debug, Clone, Copy)]
pub struct Tiers {
    pub result_entries: usize,
    pub result_bytes: u64,
    pub host_list_bytes: u64,
}

/// Hit / miss / eviction counts of the three cache tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub list_hits: u64,
    pub list_misses: u64,
    pub list_evictions: u64,
    pub dev_hits: u64,
    pub dev_misses: u64,
    pub prefetch_issued: u64,
    pub prefetch_consumed: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub result_evictions: u64,
}

impl CacheCounters {
    fn add(&mut self, g: &Griffin<'_>) {
        let host = g.cpu.host_cache_stats();
        let dev = g.gpu.cache_stats();
        let res = g.result_cache_stats().unwrap_or_default();
        self.list_hits += host.hits;
        self.list_misses += host.misses;
        self.list_evictions += host.evictions;
        self.dev_hits += dev.hits;
        self.dev_misses += dev.misses;
        self.prefetch_issued += dev.prefetch_issued;
        self.prefetch_consumed += dev.prefetch_consumed;
        self.result_hits += res.hits;
        self.result_misses += res.misses;
        self.result_evictions += res.evictions;
    }
}

pub struct Engine<'d>(Griffin<'d>);

impl<'d> Engine<'d> {
    /// Default scheduler, overlap and co-execution; cache tiers off
    /// unless `tiers` is given.
    pub fn new(device: &'d Device, index: &Index, tiers: Option<Tiers>) -> Engine<'d> {
        let g = Griffin::new(&device.0, index.0.meta(), index.0.block_len());
        if let Some(t) = tiers {
            g.set_result_cache(t.result_entries, t.result_bytes);
            g.cpu.set_host_cache_budget(t.host_list_bytes);
        }
        Engine(g)
    }

    pub fn run(&self, index: &Index, p: &Prepared) -> Result<Raw, String> {
        guarded(|| match p {
            Prepared::Request(req) => Ok(self.0.run(&index.0, req)),
            Prepared::Text(text, mode) => self
                .0
                .query(&index.0, text)
                .k(K)
                .mode(*mode)
                .run()
                .map_err(|e| e.to_string()),
        })
    }

    /// Declares a new index generation: every cached answer and decoded
    /// list is invalidated.
    pub fn bump_epoch(&self) {
        self.0.set_index_epoch(self.0.index_epoch() + 1);
    }

    pub fn cache_counters(&self) -> CacheCounters {
        let mut c = CacheCounters::default();
        c.add(&self.0);
        c
    }

    pub fn attach(&mut self, session: &Session) {
        self.0.set_telemetry(session.0.clone());
    }
}

// -------------------------------------------------------------- fleet

#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub shards: usize,
    pub replicas: usize,
    /// Per-operation device fault probability (0 disarms injection).
    pub fault_rate: f64,
}

/// Fleet activity counters (`FleetStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetCounters {
    pub hedges: u64,
    pub hedge_wins: u64,
    pub degraded_cpu: u64,
    pub coverage_mean: f64,
    pub busy_ns: u64,
    pub service_ns: u64,
}

/// The fleet's devices, owned apart from the fleet that borrows them.
pub struct FleetRig {
    devices: FleetDevices,
    spec: FleetSpec,
    seed: u64,
}

impl FleetRig {
    pub fn new(spec: FleetSpec, seed: u64) -> FleetRig {
        FleetRig {
            devices: FleetDevices::new(spec.shards, spec.replicas, &k20()),
            spec,
            seed,
        }
    }

    /// One observer per device, tagged with the device's index.
    pub fn observe(&self, log: &DevLog) {
        for (i, gpu) in self.devices.iter().enumerate() {
            log.install(gpu, i as u32);
        }
    }

    pub fn counters(&self) -> DevCounters {
        let mut c = DevCounters::default();
        for gpu in self.devices.iter() {
            c.add(gpu);
        }
        c
    }

    /// A fresh fleet over these devices with `exp_fleet`'s configuration
    /// and per-replica scheduler tuning; device `i` is armed with
    /// `FaultPlan::seeded(seed + i)` once the engines exist (engine
    /// set-up transfers are outside the recovery policy).
    pub fn fleet<'g>(&'g self, shards: &'g Shards) -> FleetHandle<'g> {
        let config = FleetConfig {
            breaker: BreakerConfig {
                cooldown: VirtualNanos::from_millis(2),
                canary_successes: 2,
                ..BreakerConfig::default()
            },
            hedge: HedgeConfig {
                min_samples: 16,
                ..HedgeConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&self.devices, &shards.0, config);
        fleet.tune(|g| {
            g.scheduler.min_gpu_work = 32 * 1024;
            g.scheduler.ratio_threshold = 1024;
            g.scheduler.hysteresis = 1.0;
        });
        for (i, gpu) in self.devices.iter().enumerate() {
            gpu.set_fault_plan((self.spec.fault_rate > 0.0).then(|| {
                FaultPlan::seeded(self.seed.wrapping_add(i as u64))
                    .with_fault_rate(self.spec.fault_rate)
            }));
        }
        FleetHandle(fleet)
    }
}

pub struct FleetHandle<'g>(Fleet<'g>);

impl FleetHandle<'_> {
    fn request(p: &Prepared) -> Result<&QueryRequest, String> {
        match p {
            Prepared::Request(req) => Ok(req),
            Prepared::Text(..) => Err("the fleet takes term requests".into()),
        }
    }

    /// Closed loop: the query arrives at the fleet clock.
    pub fn run(&mut self, p: &Prepared) -> Result<Raw, String> {
        let req = Self::request(p)?;
        guarded(|| Ok(self.0.run_query(req)))
    }

    /// Open loop, one arrival per call: the answer and its latency from
    /// the due arrival instant.
    pub fn serve_one(&mut self, p: &Prepared, arrival_ns: u64) -> Result<(Raw, u64), String> {
        let arriving = [ArrivingQuery {
            request: Self::request(p)?.clone(),
            arrival: VirtualNanos::from_nanos(arrival_ns),
        }];
        let mut latency = 0;
        let raw = guarded(|| {
            let mut report = self.0.serve(&arriving);
            let served = report.queries.pop().ok_or("no answer")?;
            latency = served.latency.as_nanos();
            Ok(served.output)
        })?;
        Ok((raw, latency))
    }

    pub fn counters(&self) -> FleetCounters {
        let s = self.0.stats();
        FleetCounters {
            hedges: s.hedges,
            hedge_wins: s.hedge_wins,
            degraded_cpu: s.degraded_cpu,
            coverage_mean: s.mean_coverage(),
            busy_ns: s.busy_total.as_nanos(),
            service_ns: s.service_total.as_nanos(),
        }
    }

    pub fn cache_counters(&mut self) -> CacheCounters {
        let mut c = CacheCounters::default();
        self.0.tune(|g| c.add(g));
        c
    }

    pub fn attach(&mut self, session: &Session) {
        self.0.set_telemetry(session.0.clone());
        self.0.tune(|g| g.set_telemetry(session.0.clone()));
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

// ------------------------------------------------------------- replay

/// What one `GriffinServer::replay` produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayOut {
    /// Latency from the due arrival per job, `None` when shed.
    pub latency_ns: Vec<Option<u64>>,
    pub shed: usize,
    pub degraded: usize,
    pub queue_wait_mean_ns: u64,
    pub batch_occupancy_mean: f64,
    pub gpu_queue_depth_max: usize,
    pub gpu_time_saved_ns: u64,
}

/// Measured answers as the serving simulator's jobs, in arrival order.
pub struct Jobs(Vec<PlannedQuery>);

pub fn jobs(answers: &[&Answer]) -> Jobs {
    Jobs(
        answers
            .iter()
            .map(|a| PlannedQuery {
                topk: Vec::new(),
                service_time: VirtualNanos::from_nanos(a.virt_ns),
                stages: a.stages.clone(),
                cpu_fallback: None,
                stale_available: None,
                coalesce_key: None,
                deadline: None,
                breaker_degraded: false,
                trace_query: None,
            })
            .collect(),
    )
}

/// Replays `jobs` arriving at `arrivals_ns` through the serving
/// simulator: 4 CPU workers and one GPU, the device's batch packer,
/// default (unbounded) admission.
pub fn replay(jobs: &Jobs, arrivals_ns: &[u64]) -> ReplayOut {
    let arrivals: Vec<VirtualNanos> = arrivals_ns
        .iter()
        .map(|&ns| VirtualNanos::from_nanos(ns))
        .collect();
    let server = GriffinServer::new(ServerConfig {
        cpu_workers: 4,
        batching: Some(BatchConfig::for_device(&k20())),
        ..ServerConfig::default()
    });
    let report = black_box(server.replay(&jobs.0, &arrivals));
    ReplayOut {
        latency_ns: report
            .queries
            .iter()
            .map(|q| match q.outcome {
                Outcome::Shed => None,
                _ => q.latency.map(VirtualNanos::as_nanos),
            })
            .collect(),
        shed: report.stats.shed,
        degraded: report.stats.degraded,
        queue_wait_mean_ns: report.timeline.mean_queue_wait().as_nanos(),
        batch_occupancy_mean: report.stats.mean_batch_occupancy(),
        gpu_queue_depth_max: report.stats.max_gpu_queue_depth,
        gpu_time_saved_ns: report.stats.gpu_time_saved.as_nanos(),
    }
}

// ---------------------------------------------------------- telemetry

/// A live telemetry session (`Telemetry::enabled()`).
pub struct Session(Telemetry);

/// What folding a session's trace into per-query profiles gave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    pub profiles: usize,
    pub cache_flips: u64,
    pub fold_ns: u64,
}

impl Session {
    pub fn enabled() -> Session {
        Session(Telemetry::enabled())
    }

    pub fn events(&self) -> usize {
        self.0.recorder().map_or(0, |r| r.event_count())
    }

    /// Host nanoseconds to export the registry and the trace as JSON.
    pub fn export_ns(&self) -> u64 {
        let t = Instant::now();
        black_box(self.0.metrics_json());
        black_box(self.0.trace_json());
        t.elapsed().as_nanos() as u64
    }

    /// Builds every query's attribution profile and its folded stacks.
    pub fn fold(&self) -> Folded {
        let t = Instant::now();
        let profiles = self.0.query_profiles();
        for p in &profiles {
            black_box(p.folded());
        }
        Folded {
            fold_ns: t.elapsed().as_nanos() as u64,
            cache_flips: profiles.iter().map(|p| u64::from(p.cache_flips)).sum(),
            profiles: profiles.len(),
        }
    }
}

// ------------------------------------------------------- layer probes

/// Best of `reps` timings of `f`, in nanoseconds.
fn best_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecProbe {
    pub ints: u64,
    /// Block decode through the runtime-dispatched (SIMD) kernels.
    pub decode_ns: u64,
    /// The codec's own scalar decode of the same blocks.
    pub decode_scalar_ns: u64,
    pub encode_ns: u64,
    pub bits_per_int: f64,
}

/// Decodes and re-encodes the docID lists of `terms`, best of three.
pub fn codec_probe(index: &Index, terms: &[u32]) -> CodecProbe {
    let lists: Vec<&BlockedList> = terms
        .iter()
        .map(|&t| &index.0.list(TermId(t)).docs)
        .collect();
    let mut stats = CompressionStats::new();
    lists.iter().for_each(|l| stats.add(l));
    let decode_ns = best_ns(3, || {
        let mut w = WorkCounters::default();
        lists
            .iter()
            .map(|l| decode::decode_list(l, &mut w).len())
            .sum::<usize>()
    });
    let decode_scalar_ns = best_ns(3, || {
        lists
            .iter()
            .map(|l| l.decompress().expect("index-built list decodes").len())
            .sum::<usize>()
    });
    let raw: Vec<Vec<u32>> = lists
        .iter()
        .map(|l| l.decompress().expect("index-built list decodes"))
        .collect();
    let encode_ns = best_ns(3, || {
        lists
            .iter()
            .zip(&raw)
            .map(|(l, ids)| BlockedList::compress(ids, l.codec, l.block_len).words.len())
            .sum::<usize>()
    });
    CodecProbe {
        ints: stats.elements,
        decode_ns,
        decode_scalar_ns,
        encode_ns,
        bits_per_int: stats.bits_per_int(),
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProbe {
    pub queries: u64,
    pub postings: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
    pub blocks_decoded: u64,
    pub skip_probes: u64,
    pub merge_steps: u64,
    pub scored: u64,
}

fn term_ids(req: &Request) -> Option<(Vec<TermId>, bool)> {
    match req {
        Request::Terms { terms, pruned } => {
            Some((terms.iter().map(|&t| TermId(t)).collect(), *pruned))
        }
        Request::Text(_) => None,
    }
}

/// `CpuEngine::process_query[_pruned]` called directly on the log's
/// conjunctive requests.
pub fn cpu_engine_probe(index: &Index, log: &[Request]) -> EngineProbe {
    let engine = CpuEngine::new();
    let mut p = EngineProbe::default();
    for req in log {
        let Some((terms, pruned)) = term_ids(req) else {
            continue;
        };
        let t = Instant::now();
        let (time, counters) = if pruned {
            let out = black_box(engine.process_query_pruned(&index.0, &terms, K));
            (out.time, out.counters)
        } else {
            let out = black_box(engine.process_query(&index.0, &terms, K));
            (out.time, out.counters)
        };
        p.host_ns += t.elapsed().as_nanos() as u64;
        p.virt_ns += time.as_nanos();
        p.queries += 1;
        p.postings += index.postings_of(req);
        p.blocks_decoded += counters.blocks_decoded;
        p.skip_probes += counters.skip_probes;
        p.merge_steps += counters.merge_steps;
        p.scored += counters.scored;
    }
    p
}

/// `GpuEngine::process_query` called directly on the first `limit`
/// conjunctive requests, on a device of its own.
pub fn gpu_engine_probe(index: &Index, log: &[Request], limit: usize) -> EngineProbe {
    let gpu = Gpu::new(k20());
    let engine = GpuEngine::new(&gpu, index.0.meta());
    let mut p = EngineProbe::default();
    for req in log.iter().filter(|r| term_ids(r).is_some()).take(limit) {
        let (terms, _) = term_ids(req).expect("filtered to term requests");
        let t = Instant::now();
        let out = black_box(engine.process_query(&index.0, &terms, K));
        p.host_ns += t.elapsed().as_nanos() as u64;
        if let Ok(out) = out {
            p.virt_ns += out.time.as_nanos();
            p.queries += 1;
            p.postings += index.postings_of(req);
        }
    }
    engine.shutdown();
    p
}

/// Mean host nanoseconds per call of the query front end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontProbe {
    pub parse_ns: f64,
    pub plan_ns: f64,
    pub sched_decide_ns: f64,
}

/// `Query::parse`, `Planner::plan` and `Scheduler::decide_traced` called
/// directly: every request as text (term requests are spelled with the
/// dictionary's words), and one decision per adjacent pair of its lists
/// in ascending length.
pub fn front_probe(index: &Index, log: &[Request]) -> FrontProbe {
    let dict = index.0.dictionary();
    let texts: Vec<String> = log
        .iter()
        .map(|req| match req {
            Request::Text(t) => t.clone(),
            Request::Terms { terms, .. } => {
                let words: Vec<&str> = terms.iter().map(|&t| dict.term(TermId(t))).collect();
                words.join(" ")
            }
        })
        .collect();
    let parse_ns = best_ns(3, || {
        texts
            .iter()
            .filter(|t| Query::parse(&index.0, t, false).is_ok())
            .count()
    });
    let queries: Vec<Query> = texts
        .iter()
        .filter_map(|t| Query::parse(&index.0, t, false).ok())
        .collect();
    let scheduler = Scheduler::for_block_len(index.0.block_len());
    let planner = Planner {
        index: &index.0,
        scheduler: &scheduler,
    };
    let plan_ns = best_ns(3, || {
        queries
            .iter()
            .map(|q| planner.plan(q).decisions.len())
            .sum::<usize>()
    });
    let pairs: Vec<(usize, usize)> = log
        .iter()
        .filter_map(term_ids)
        .flat_map(|(terms, _)| {
            let mut dfs: Vec<usize> = terms.iter().map(|&t| index.0.doc_freq(t)).collect();
            dfs.sort_unstable();
            dfs.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>()
        })
        .collect();
    let sched_ns = best_ns(3, || {
        pairs
            .iter()
            .filter(|&&(s, l)| scheduler.decide_traced(s, l, Proc::Cpu).cache_flip)
            .count()
    });
    let per = |ns: u64, n: usize| ns as f64 / n.max(1) as f64;
    FrontProbe {
        parse_ns: per(parse_ns, texts.len()),
        plan_ns: per(plan_ns, queries.len()),
        sched_decide_ns: per(sched_ns, pairs.len()),
    }
}

/// Mean host nanoseconds of `merge_topk` over `parts` shard answers.
pub fn merge_probe(parts: usize) -> f64 {
    let answers: Vec<Vec<(u32, f32)>> = (0..parts as u32)
        .map(|p| {
            (0..K as u32)
                .map(|i| (p + i * parts as u32, 1.0 / (1 + p + i) as f32))
                .collect()
        })
        .collect();
    const CALLS: usize = 2_000;
    best_ns(3, || {
        (0..CALLS)
            .map(|_| merge_topk(black_box(&answers), K).len())
            .sum::<usize>()
    }) as f64
        / CALLS as f64
}

struct EmptyKernel;

impl Kernel for EmptyKernel {
    type State = ();
    fn run_phase(&self, _phase: usize, _t: &mut ThreadCtx<'_>, _s: &mut ()) {}
}

struct CopyKernel {
    src: DeviceBuffer<u32>,
    dst: DeviceBuffer<u32>,
    n: usize,
}

impl Kernel for CopyKernel {
    type State = ();
    fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let v: u32 = t.ld(&self.src, i);
            t.alu(1);
            t.st(&self.dst, i, v.wrapping_add(1));
        }
    }
}

/// The benchmark's own kernels launched directly on a `Gpu`: the host
/// microseconds an empty one-warp launch costs (the simulator's launch
/// floor) and the host nanoseconds per simulated thread of a
/// load / add / store kernel over a million elements.
pub fn sim_probe() -> (f64, f64) {
    let gpu = Gpu::new(k20());
    let floor_ns = best_ns(200, || {
        gpu.launch(&EmptyKernel, LaunchConfig::new(1, 32)).is_ok()
    });
    const N: usize = 1 << 20;
    let data: Vec<u32> = (0..N as u32).collect();
    let kernel = CopyKernel {
        src: gpu.htod(&data).expect("probe upload"),
        dst: gpu.alloc::<u32>(N).expect("probe allocation"),
        n: N,
    };
    let lc = LaunchConfig::cover(N, 256);
    let copy_ns = best_ns(3, || gpu.launch(&kernel, lc).is_ok());
    (
        floor_ns as f64 / 1e3,
        copy_ns as f64 / lc.total_threads() as f64,
    )
}

/// Cumulative (AVX2, all) CPU-kernel dispatch counts of this process.
pub fn simd_dispatches() -> (u64, u64) {
    let totals = simd::dispatch_totals();
    let avx2 = totals.iter().filter(|t| t.1 == "avx2").map(|t| t.2).sum();
    (avx2, totals.iter().map(|t| t.2).sum())
}

/// The SIMD path the CPU kernels dispatch to on this host.
pub fn simd_path() -> &'static str {
    simd::active_path().name()
}
