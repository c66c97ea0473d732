//! The run protocol: set-up, reference answers, phase A (closed loop on
//! the host clock) and phase B (open loop on the virtual clock), for the
//! end-to-end run and for the traced run that fills the per-layer table.

use std::time::Instant;

use crate::api::{
    self, Answer, CacheCounters, DevCounters, DevLog, Device, Engine, FleetCounters, FleetRig,
    Mode, Prepared, Request, Rng, Session,
};
use crate::layers;
use crate::report::{Metrics, Record};
use crate::spans::{Recorder, Span};
use crate::stats::{self, Digest, Rung, Served};
use crate::workloads::{self, Kind, Workload, World, FLEET};

pub struct Opts {
    pub seed: u64,
    /// How long phase A measures, in host seconds.
    pub seconds: f64,
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace.
    pub out_dir: std::path::PathBuf,
}

/// Set-up is repeated and its median reported, so one slow allocation
/// does not decide `setup_s`: three times, and a set-up of a fraction of
/// a second (the `trec-*` index) until two seconds or seven repetitions
/// are spent.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=7;
const SETUP_SECONDS: f64 = 2.0;
/// Phase A makes at least this many passes however long one takes (a
/// query's host time is its least over the passes, and the least of one
/// is no filter), then whole passes while they fit into `--seconds`.
const MIN_PASSES: usize = 3;
/// Untraced passes a traced run makes for its overhead and spread rows.
const TRACED_RUN_PLAIN_PASSES: usize = 2;
/// Queries of the GpuOnly cross-check (`trec-cpu`) and of the direct
/// `GpuEngine` probe.
const GPU_SAMPLE: usize = 32;
pub const GPU_PROBE_QUERIES: usize = 50;

/// One pass over (a prefix of) the stream on freshly built engines.
pub struct PassOut {
    /// Host nanoseconds per stream position.
    pub host_ns: Vec<u64>,
    pub answers: Vec<Result<Answer, String>>,
    /// Latency under load per position (open-loop fleet passes only).
    pub served: Vec<Served>,
    pub dev: DevCounters,
    pub cache: CacheCounters,
    pub fleet: FleetCounters,
}

impl PassOut {
    pub fn total_s(&self) -> f64 {
        self.host_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Span recording for a traced pass: the recorder plus the device log
/// the benchmark's observers write to.
pub struct Tracer<'a> {
    pub rec: &'a mut Recorder,
    pub log: DevLog,
}

/// What a pass does besides issuing the stream one query at a time.
#[derive(Default)]
pub struct PassPlan<'a> {
    /// Stream positions to run (the whole stream when `None`).
    pub limit: Option<usize>,
    /// Open loop: the arrival instant of each position (fleet only).
    pub arrivals: Option<&'a [u64]>,
    pub tracer: Option<Tracer<'a>>,
    pub session: Option<&'a Session>,
}

/// Times one call, and in a traced pass wraps it in a `query#i` span
/// whose children are rebuilt from the device events the call caused:
/// each event's host interval starts where the previous one ended.
fn timed_query(
    pos: usize,
    tracer: &mut Option<Tracer<'_>>,
    call: impl FnOnce() -> Result<api::Raw, String>,
) -> (u64, Result<Answer, String>) {
    let span = tracer
        .as_mut()
        .map(|t| t.rec.open("query", Some(pos as u32)));
    let t0 = Instant::now();
    let raw = call();
    let host_ns = t0.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        let query_end = t.rec.now_ns();
        let mut boundary = t.rec.spans()[id].start_ns;
        for ev in t.log.drain() {
            let end_ns = ev.host_ns.max(boundary);
            t.rec.leaf(Span {
                name: format!("dev.{}", ev.name),
                start_ns: boundary,
                end_ns,
                parent: None,
                query: Some(pos as u32),
                lane: 1 + ev.device,
                virt_ns: ev.virt_ns,
                work: ev.work,
            });
            boundary = end_ns;
        }
        t.rec.close_at(id, query_end);
    }
    (host_ns, raw.map(api::Raw::into_answer))
}

pub fn run_pass(
    world: &World,
    kind: Kind,
    seed: u64,
    prepared: &[Prepared],
    mut plan: PassPlan<'_>,
) -> PassOut {
    let n = plan
        .limit
        .unwrap_or(world.stream.len())
        .min(world.stream.len());
    let mut out = PassOut {
        host_ns: Vec::with_capacity(n),
        answers: Vec::with_capacity(n),
        served: Vec::new(),
        dev: DevCounters::default(),
        cache: CacheCounters::default(),
        fleet: FleetCounters::default(),
    };
    if kind == Kind::FleetFaults {
        let rig = FleetRig::new(FLEET, seed);
        if let Some(t) = &plan.tracer {
            rig.observe(&t.log);
        }
        let shards = world.shards.as_ref().expect("fleet set-up builds shards");
        let mut fleet = rig.fleet(shards);
        if let Some(s) = plan.session {
            fleet.attach(s);
        }
        for pos in 0..n {
            let p = &prepared[world.stream[pos]];
            let mut latency = None;
            let (host_ns, answer) = timed_query(pos, &mut plan.tracer, || match plan.arrivals {
                Some(arrivals) => fleet.serve_one(p, arrivals[pos]).map(|(raw, l)| {
                    latency = Some(l);
                    raw
                }),
                None => fleet.run(p),
            });
            if plan.arrivals.is_some() {
                out.served.push(Served {
                    latency_ns: latency,
                    complete: answer.as_ref().is_ok_and(|a| a.coverage >= 1.0),
                });
            }
            out.host_ns.push(host_ns);
            out.answers.push(answer);
        }
        out.fleet = fleet.counters();
        out.cache = fleet.cache_counters();
        fleet.shutdown();
        out.dev = rig.counters();
    } else {
        let device = Device::k20();
        if let Some(t) = &plan.tracer {
            device.observe(&t.log);
        }
        let mut engine = Engine::new(&device, &world.index, kind.tiers());
        if let Some(s) = plan.session {
            engine.attach(s);
        }
        for pos in 0..n {
            if world.epoch_marks.contains(&pos) {
                engine.bump_epoch();
            }
            let p = &prepared[world.stream[pos]];
            let (host_ns, answer) =
                timed_query(pos, &mut plan.tracer, || engine.run(&world.index, p));
            out.host_ns.push(host_ns);
            out.answers.push(answer);
        }
        out.cache = engine.cache_counters();
        out.dev = device.counters();
    }
    out
}

/// Reference answers, computed by a different path than the subject.
pub enum Reference {
    /// Top-k bits per pool entry from a fresh CpuOnly, unpruned,
    /// tiers-off, unsharded engine.
    Engine(Vec<Vec<(u32, u32)>>),
    /// `trec-cpu` is itself that engine, so its reference is a
    /// brute-force intersection of the generator's raw lists (docID
    /// membership and count) plus GpuOnly score bits on a sample.
    Brute {
        matches: Vec<Vec<u32>>,
        gpu_sample: Vec<(usize, Vec<(u32, u32)>)>,
    },
}

fn engine_topk(world: &World, requests: &[Request], mode: Mode) -> Vec<Vec<(u32, u32)>> {
    let device = Device::k20();
    let engine = Engine::new(&device, &world.index, None);
    requests
        .iter()
        .map(|req| {
            let unpruned = match req {
                Request::Terms { terms, .. } => Request::Terms {
                    terms: terms.clone(),
                    pruned: false,
                },
                text => text.clone(),
            };
            engine
                .run(&world.index, &api::prepare(&unpruned, mode))
                .map(|raw| raw.into_answer().topk)
                .unwrap_or_default()
        })
        .collect()
}

pub fn reference(world: &World, kind: Kind) -> Reference {
    if kind != Kind::TrecCpu {
        return Reference::Engine(engine_topk(world, &world.pool, Mode::CpuOnly));
    }
    let raw = world
        .raw
        .as_ref()
        .expect("list workloads keep their raw lists");
    let matches = world
        .pool
        .iter()
        .map(|req| {
            let Request::Terms { terms, .. } = req else {
                return Vec::new();
            };
            let mut lists: Vec<&[u32]> = terms.iter().map(|&t| raw.list(t)).collect();
            lists.sort_by_key(|l| l.len());
            let (short, rest) = lists.split_first().expect("queries have terms");
            short
                .iter()
                .copied()
                .filter(|d| rest.iter().all(|l| l.binary_search(d).is_ok()))
                .collect()
        })
        .collect();
    let sample = world.pool.len().min(GPU_SAMPLE);
    let gpu_sample = engine_topk(world, &world.pool[..sample], Mode::GpuOnly)
        .into_iter()
        .enumerate()
        .collect();
    Reference::Brute {
        matches,
        gpu_sample,
    }
}

impl Reference {
    /// Why pool entry `idx`'s answer is wrong, if it is.
    fn check(&self, idx: usize, topk: &[(u32, u32)]) -> Option<&'static str> {
        match self {
            Reference::Engine(expect) => {
                (expect[idx] != topk).then_some("top-k differs from the reference engine")
            }
            Reference::Brute {
                matches,
                gpu_sample,
            } => {
                let m = &matches[idx];
                let mut docs: Vec<u32> = topk.iter().map(|&(d, _)| d).collect();
                docs.sort_unstable();
                docs.dedup();
                if docs.len() != topk.len() || docs.len() != m.len().min(api::K) {
                    Some("wrong number of results against the raw lists")
                } else if docs.iter().any(|d| m.binary_search(d).is_err()) {
                    Some("a result is not in the raw lists' intersection")
                } else if gpu_sample.iter().any(|(i, bits)| *i == idx && bits != topk) {
                    Some("score bits differ from GpuOnly")
                } else {
                    None
                }
            }
        }
    }
}

/// Failure accounting across passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    causes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, cause: String) {
        self.failed += 1;
        if self.causes.len() < 8 {
            self.causes.push(cause);
        }
    }

    /// Checks one pass's answers against the reference and, from the
    /// second pass on, against the first pass's virtual numbers.
    fn check_pass(
        &mut self,
        world: &World,
        reference: &Reference,
        pass: &PassOut,
        first: Option<&PassOut>,
        same_clock: bool,
    ) {
        for (pos, answer) in pass.answers.iter().enumerate() {
            self.attempted += 1;
            let idx = world.stream[pos];
            match answer {
                Err(e) => self.fail(format!("query {pos}: {e}")),
                Ok(a) => {
                    if let Some(why) = reference.check(idx, &a.topk) {
                        self.fail(format!("query {pos}: {why}"));
                    } else if a.coverage < 1.0 {
                        self.fail(format!("query {pos}: coverage {}", a.coverage));
                    } else if let Some(Ok(f)) = first.map(|f| &f.answers[pos]) {
                        if same_clock && (f.virt_ns != a.virt_ns || f.steps != a.steps) {
                            self.fail(format!("query {pos}: virtual time differs between passes"));
                        }
                    }
                }
            }
        }
    }
}

fn digest_of(pass: &PassOut) -> Digest {
    let mut d = Digest::default();
    for a in pass.answers.iter().flatten() {
        d.word(a.virt_ns);
        d.word(a.topk.len() as u64);
        for &(doc, bits) in &a.topk {
            d.word(u64::from(doc) << 32 | u64::from(bits));
        }
    }
    d
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What phase B hands to the per-layer table about the reference rung.
#[derive(Default)]
pub struct ReferenceRung {
    pub replay: Option<api::ReplayOut>,
    pub host_ns: u64,
    pub arrivals: usize,
    pub fleet: FleetCounters,
}

/// Phase B on the replay workloads: phase A's answers become jobs, the
/// log repeated in seeded shuffled order under a seeded Poisson arrival
/// pattern. Built once per ladder: every rung replays the same jobs in
/// the same pattern, only compressed in time.
struct ReplayLadder {
    jobs: api::Jobs,
    unit_arrivals: Vec<f64>,
}

impl ReplayLadder {
    fn new(first: &PassOut, seed: u64, arrivals: usize) -> ReplayLadder {
        let answers: Vec<&Answer> = first.answers.iter().flatten().collect();
        let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let order = stats::shuffled_repeats(answers.len(), arrivals, &mut rng);
        let in_order: Vec<&Answer> = order.iter().map(|&i| answers[i]).collect();
        ReplayLadder {
            jobs: api::jobs(&in_order),
            unit_arrivals: stats::unit_poisson(order.len(), &mut rng),
        }
    }

    /// One rung: every arrival's fate, the simulator's counters, and the
    /// host nanoseconds the replay took.
    fn rung(&self, qps: u64) -> (Vec<Served>, api::ReplayOut, u64) {
        let instants = stats::at_rate(&self.unit_arrivals, qps);
        let t = Instant::now();
        let out = api::replay(&self.jobs, &instants);
        let host_ns = t.elapsed().as_nanos() as u64;
        let served = out
            .latency_ns
            .iter()
            .map(|&latency_ns| Served {
                latency_ns,
                complete: true,
            })
            .collect();
        (served, out, host_ns)
    }
}

/// Phase B on the fleet: one open-loop pass on a fresh fleet, every
/// arrival executed.
fn fleet_rung(world: &World, seed: u64, prepared: &[Prepared], qps: u64) -> PassOut {
    let instants = stats::even_arrivals(world.stream.len(), qps);
    let plan = PassPlan {
        arrivals: Some(&instants),
        ..PassPlan::default()
    };
    run_pass(world, Kind::FleetFaults, seed, prepared, plan)
}

struct PhaseA {
    first: PassOut,
    /// Each position's least host time over the passes.
    best_ns: Vec<u64>,
    pass_host_s: Vec<f64>,
}

impl PhaseA {
    fn absorb(&mut self, pass: &PassOut) {
        for (b, &h) in self.best_ns.iter_mut().zip(&pass.host_ns) {
            *b = (*b).min(h);
        }
        self.pass_host_s.push(pass.total_s());
    }
}

fn prepare_pool(world: &World, kind: Kind) -> Vec<Prepared> {
    world
        .pool
        .iter()
        .map(|r| api::prepare(r, kind.mode()))
        .collect()
}

/// The end-to-end run: tracing off, every end-to-end metric.
pub fn end_to_end(w: Workload, opts: &Opts) -> Record {
    let kind = w.kind;
    let mut scratch = Recorder::new(Instant::now());
    let mut world = workloads::setup(kind, opts.seed, opts.smoke, &mut scratch);
    let mut setups = vec![world.setup_s()];
    let again = |setups: &[f64]| {
        !opts.smoke
            && (setups.len() < *SETUP_REPS.start()
                || (setups.len() < *SETUP_REPS.end() && setups.iter().sum::<f64>() < SETUP_SECONDS))
    };
    while again(&setups) {
        drop(world);
        world = workloads::setup(kind, opts.seed, opts.smoke, &mut scratch);
        setups.push(world.setup_s());
    }
    let reference = reference(&world, kind);
    let prepared = prepare_pool(&world, kind);
    let mut tally = Tally::default();

    // Phase A: whole passes until the time is used. The fleet's rungs
    // are passes too, so it makes one closed-loop pass here.
    let started = Instant::now();
    let first = run_pass(&world, kind, opts.seed, &prepared, PassPlan::default());
    tally.check_pass(&world, &reference, &first, None, true);
    let mut a = PhaseA {
        best_ns: first.host_ns.clone(),
        pass_host_s: vec![first.total_s()],
        first,
    };
    let another_fits = |passes: usize| {
        let spent = started.elapsed().as_secs_f64();
        passes < MIN_PASSES || spent + spent / passes as f64 <= opts.seconds
    };
    while kind != Kind::FleetFaults && another_fits(a.pass_host_s.len()) {
        let pass = run_pass(&world, kind, opts.seed, &prepared, PassPlan::default());
        tally.check_pass(&world, &reference, &pass, Some(&a.first), true);
        a.absorb(&pass);
    }

    // Read before phase B: 100 000 replayed jobs and their timeline would
    // otherwise be the peak, and their number is the harness's choice.
    let peak_rss_mb = peak_rss_mib();

    // Phase B.
    let ladder = kind.ladder(opts.smoke);
    let replays = (kind != Kind::FleetFaults)
        .then(|| ReplayLadder::new(&a.first, opts.seed, ladder.arrivals));
    let mut rungs: Vec<Rung> = Vec::new();
    for &qps in ladder.rungs {
        let served = match &replays {
            None => {
                let pass = fleet_rung(&world, opts.seed, &prepared, qps);
                tally.check_pass(&world, &reference, &pass, Some(&a.first), false);
                a.absorb(&pass);
                pass.served
            }
            Some(replays) => {
                let (served, _, _) = replays.rung(qps);
                if qps == ladder.reference {
                    tally.attempted += served.len() as u64;
                    let refused = served.iter().filter(|s| s.latency_ns.is_none()).count();
                    for _ in 0..refused {
                        tally.fail(format!("arrival shed at the reference rate of {qps} qps"));
                    }
                }
                served
            }
        };
        rungs.push(stats::judge_rung(qps, &served, ladder.limit_ns));
    }

    let mut m = Metrics::default();
    let n = a.best_ns.len();
    let sorted_host = stats::sorted(&a.best_ns);
    let virt: Vec<u64> = a
        .first
        .answers
        .iter()
        .flatten()
        .map(|x| x.virt_ns)
        .collect();
    let sorted_virt = stats::sorted(&virt);
    let pct = |m: &mut Metrics, name, sorted: &[u64], p| {
        let (v, ok) = stats::percentile(sorted, p);
        m.set_n(name, v as f64 / 1e3, Some(sorted.len()), ok);
    };
    m.set_n(
        "setup_s",
        stats::median_f64(&setups),
        Some(setups.len()),
        true,
    );
    m.set_n(
        "host_qps",
        n as f64 / (a.best_ns.iter().sum::<u64>() as f64 / 1e9),
        Some(n),
        true,
    );
    pct(&mut m, "host_p50_us", &sorted_host, 50.0);
    pct(&mut m, "host_p95_us", &sorted_host, 95.0);
    m.set_n(
        "virt_mean_us",
        stats::mean(&virt) / 1e3,
        Some(virt.len()),
        true,
    );
    pct(&mut m, "virt_p95_us", &sorted_virt, 95.0);
    let at_ref = rungs
        .iter()
        .find(|r| r.qps == ladder.reference)
        .expect("reference is a rung");
    let supported = at_ref.n >= 20 * stats::BEYOND;
    // The mean, not the median: more than half of mixed-cached's
    // arrivals are result-cache hits, whose latency is the constant
    // lookup charge, and a log of 200 distinct queries makes a loaded
    // median jump between neighbouring queries' service times.
    m.set_n(
        "virt_load_mean_us",
        at_ref.mean_ns / 1e3,
        Some(at_ref.n),
        true,
    );
    m.set_n(
        "virt_load_p95_us",
        at_ref.p95_ns as f64 / 1e3,
        Some(at_ref.n),
        supported,
    );
    m.set("virt_slo_qps", stats::slo_qps(&rungs) as f64);
    m.set("peak_rss_mb", peak_rss_mb);

    Record {
        workload: w.name,
        why: w.why,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.causes,
        metrics: m,
        virt_digest: digest_of(&a.first).hex(),
        queries_per_pass: n,
        pass_host_s: a.pass_host_s,
        rungs,
        constants: workloads::constants_json(kind),
        trace_file: None,
    }
}

/// The traced run: one phase-A pass under the span recorder and the
/// device observers, the direct layer probes, phase B at the reference
/// rate, and the per-layer table. End-to-end metrics are never taken
/// from this run.
pub fn traced(w: Workload, opts: &Opts) -> Record {
    let kind = w.kind;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let root = rec.open("workload", None);
    let world = rec.within("setup", |rec| {
        workloads::setup(kind, opts.seed, opts.smoke, rec)
    });
    let reference = reference(&world, kind);
    let prepared = prepare_pool(&world, kind);
    let mut tally = Tally::default();

    // Plain passes first: the baseline for the tracing-overhead row and
    // the spread between identical passes.
    let plain: Vec<PassOut> = (0..TRACED_RUN_PLAIN_PASSES)
        .map(|_| run_pass(&world, kind, opts.seed, &prepared, PassPlan::default()))
        .collect();
    for p in &plain {
        tally.check_pass(&world, &reference, p, Some(&plain[0]), true);
    }

    let log = DevLog::new(epoch);
    let (avx2_before, all_before) = api::simd_dispatches();
    let phase = rec.open("phaseA", None);
    let pass = run_pass(
        &world,
        kind,
        opts.seed,
        &prepared,
        PassPlan {
            tracer: Some(Tracer {
                rec: &mut rec,
                log: log.clone(),
            }),
            ..PassPlan::default()
        },
    );
    rec.close(phase);
    let (avx2_after, all_after) = api::simd_dispatches();
    tally.check_pass(&world, &reference, &pass, Some(&plain[0]), true);

    let probes = rec.within("probes", |rec| layers::probe(&world, kind, rec));

    // Phase B at the reference rate only; the ladder is the end-to-end
    // run's job.
    let ladder = kind.ladder(opts.smoke);
    let mut at_ref = ReferenceRung::default();
    let served = if kind == Kind::FleetFaults {
        let rung = rec.within("server.fleet_serve", |_| {
            fleet_rung(&world, opts.seed, &prepared, ladder.reference)
        });
        tally.check_pass(&world, &reference, &rung, Some(&plain[0]), false);
        at_ref.host_ns = rung.host_ns.iter().sum();
        at_ref.arrivals = rung.served.len();
        at_ref.fleet = rung.fleet;
        rung.served
    } else {
        let (served, out, host_ns) = rec.within("server.replay", |_| {
            ReplayLadder::new(&pass, opts.seed, ladder.arrivals).rung(ladder.reference)
        });
        at_ref.host_ns = host_ns;
        at_ref.arrivals = served.len();
        at_ref.replay = Some(out);
        served
    };
    let rung = stats::judge_rung(ladder.reference, &served, ladder.limit_ns);

    let telemetry = rec.within("probe.telemetry", |_| {
        layers::telemetry_probe(&world, kind, opts.seed, &prepared)
    });
    rec.close(root);

    let mut m = Metrics::default();
    layers::fill(
        &mut m,
        &layers::Inputs {
            world: &world,
            spans: rec.spans(),
            plain: &plain,
            traced: &pass,
            probes: &probes,
            at_ref: &at_ref,
            rung: &rung,
            telemetry: &telemetry,
            simd: (avx2_after - avx2_before, all_after - all_before),
        },
    );

    let file = opts.out_dir.join(format!("trace-{}.json", w.name));
    let trace_file = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, rec.to_chrome_trace()))
        .map(|()| file.display().to_string())
        .map_err(|e| eprintln!("could not write {}: {e}", file.display()))
        .ok();

    Record {
        workload: w.name,
        why: w.why,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.causes,
        metrics: m,
        virt_digest: digest_of(&pass).hex(),
        queries_per_pass: pass.host_ns.len(),
        pass_host_s: plain.iter().chain([&pass]).map(PassOut::total_s).collect(),
        rungs: vec![rung],
        constants: workloads::constants_json(kind),
        trace_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_numbers_follow_the_seed_and_nothing_else() {
        let w = workloads::by_name("trec-cpu").expect("a workload of the catalogue");
        let run = |seed| {
            let opts = Opts {
                seed,
                seconds: 0.01,
                smoke: true,
                out_dir: std::env::temp_dir(),
            };
            let r = end_to_end(w, &opts);
            assert_eq!(r.failed, 0, "{:?}", r.failures);
            let virt = |name| r.metrics.get(name).expect("reported").value;
            (
                r.virt_digest.clone(),
                virt("virt_mean_us"),
                virt("virt_load_p95_us"),
                virt("virt_slo_qps"),
            )
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a.0, run(12).0);
    }
}
