//! The four workloads: what each one's inputs are, why it exists, and
//! the frozen constants of its run protocol. Counts and rates are
//! literals here; nothing is derived from capacity measured at run time.

use crate::api::{
    self, FleetSpec, Index, ListShape, Mode, RawLists, Request, Rng, Shards, TextShape, Tiers,
};
use crate::spans::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrecHybrid,
    TrecCpu,
    MixedCached,
    FleetFaults,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One sentence on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::TrecHybrid,
        name: "trec-hybrid",
        why: "The paper's headline path: Fig. 11 conjunctions in Hybrid mode, where the simulator and the GPU kernels do nearly all host work and the GPU lane is the serving bottleneck.",
    },
    Workload {
        kind: Kind::TrecCpu,
        name: "trec-cpu",
        why: "The paper's baseline and the bypass for trec-hybrid: the same index and log in CpuOnly mode, so SIMD decode, skip intersection and ranking do all the work and the simulator launches nothing.",
    },
    Workload {
        kind: Kind::MixedCached,
        name: "mixed-cached",
        why: "The engine used differently: AND/OR/NOT/phrase strings and pruned conjunctions in a Zipf stream over cache tiers smaller than the working set: hits, fills, evictions and invalidations side by side.",
    },
    Workload {
        kind: Kind::FleetFaults,
        name: "fleet-faults",
        why: "Scatter-gather over 4 shards x 2 replicas with 1% device faults: the slowest shard sets the answer time, and retries, hedges and breakers use the simulator differently.",
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The Fig. 14 index of `exp_fig14` (64 terms, 12 M documents, lists to
/// 4 M under shape seed 14) at a quarter of its lengths: one Hybrid pass
/// over 200 queries then takes about 5 s of host time instead of 20 s,
/// which the run-time cap needs, while the device still does three
/// quarters of the simulated work.
const TREC_SHAPE: ListShape = ListShape {
    terms: 64,
    docs: 3_000_000,
    max_list: 4_000_000,
    len_scale: 0.25,
    shape_seed: 14,
};
const TREC_HYBRID_QUERIES: usize = 200;
const TREC_CPU_QUERIES: usize = 1_000;
const TREC_LOG_SEED: u64 = 1_411;

/// `exp_queries`' text corpus.
const MIXED_TEXT: TextShape = TextShape {
    docs: 20_000,
    vocab: 4_000,
    doc_len: 120,
    burstiness: 0.2,
    length_skew: 1.0,
    block_len: 32,
};
const MIXED_STRINGS: usize = 1_400;
const MIXED_PRUNED: usize = 600;
const MIXED_STREAM: usize = 10_000;
const MIXED_ZIPF: f64 = 1.0;
const MIXED_POOL_SEED: u64 = 61;
/// Both tiers are smaller than the working set (2 000 distinct requests,
/// about 6 MiB of decoded lists).
const MIXED_TIERS: Tiers = Tiers {
    result_entries: 256,
    result_bytes: 1 << 20,
    host_list_bytes: 2 << 20,
};
/// The stream is this many segments; the index epoch is bumped between
/// them (every 2 500 requests).
const MIXED_EPOCHS: usize = 4;

/// `exp_fleet`'s index (48 terms, 2 M documents, lists to 800 k under
/// shape seed 42) at 0.7 of its lengths. The device only takes lists
/// above 32 k postings per shard, so at half the lengths no shard ever
/// launches a kernel; 0.7 keeps a third of the steps on the device at
/// 70 % of the host cost.
const FLEET_SHAPE: ListShape = ListShape {
    terms: 48,
    docs: 1_400_000,
    max_list: 800_000,
    len_scale: 0.7,
    shape_seed: 42,
};
const FLEET_QUERIES: usize = 200;
const FLEET_LOG_SEED: u64 = 4_211;
pub const FLEET: FleetSpec = FleetSpec {
    shards: 4,
    replicas: 2,
    fault_rate: 0.01,
};

/// Replayed arrivals per rung: the log repeated ten times (mixed-cached)
/// or more in shuffled order. A replay costs under a microsecond of host
/// time per job, and 30 000 arrivals still let p95 near the knee move by
/// a factor of two between seeds.
const REPLAY_ARRIVALS: usize = 100_000;

/// Open-loop constants, measured on the seed commit and frozen.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Arrival rates in virtual queries per second, ascending.
    pub rungs: &'static [u64],
    /// The rung whose latencies are `virt_load_mean/p95_us`.
    pub reference: u64,
    /// p95 limit of the rung rule, in virtual nanoseconds.
    pub limit_ns: u64,
    /// Arrivals per rung.
    pub arrivals: usize,
}

impl Kind {
    pub fn mode(self) -> Mode {
        match self {
            Kind::TrecCpu => Mode::CpuOnly,
            _ => Mode::Hybrid,
        }
    }

    pub fn tiers(self) -> Option<Tiers> {
        (self == Kind::MixedCached).then_some(MIXED_TIERS)
    }

    /// The open-loop constants; `smoke` replays a tenth of the arrivals.
    pub fn ladder(self, smoke: bool) -> Ladder {
        let replayed = sized(REPLAY_ARRIVALS, smoke);
        // The replay ladders step through the knee, where p95 rises by
        // 2x or more per rung on every seed tried; each limit sits
        // between the p95 of the last rung that holds and of the first
        // that does not, about as far from both.
        const TREC_RUNGS: &[u64] = &[
            500, 600, 700, 800, 900, 1_000, 1_100, 1_200, 1_300, 1_400, 1_500,
        ];
        match self {
            // One ladder and limit for both, so the two rows compare as
            // Fig. 14 does. Hybrid holds 1 300 qps (p95 24 ms), not 1 400
            // (200+ ms); CpuOnly holds 1 100 (40 ms), not 1 200 (80+ ms).
            Kind::TrecHybrid | Kind::TrecCpu => Ladder {
                rungs: TREC_RUNGS,
                reference: 700,
                limit_ns: 60_000_000,
                arrivals: replayed,
            },
            // 2.4x the unloaded p95: holds 3 500 qps (1.4-1.75 ms), not
            // 4 000 (3-6 ms). The reference is low on the ladder because a
            // handful of 50-80 ms phrase queries make the loaded mean
            // swing by 11 % between seeds at 2 500 qps and by 5 % here.
            Kind::MixedCached => Ladder {
                rungs: &[1_000, 1_500, 2_000, 2_500, 3_000, 3_500, 4_000, 4_500],
                reference: 2_000,
                limit_ns: 2_250_000,
                arrivals: replayed,
            },
            // Every arrival is executed by eight engines, so the ladder
            // is three rungs of one pass each, a factor of two apart:
            // holds 800 qps (4.7-6.8 ms), not 1 600 (25+ ms).
            Kind::FleetFaults => Ladder {
                rungs: &[400, 800, 1_600],
                reference: 400,
                limit_ns: 12_000_000,
                arrivals: FLEET_QUERIES,
            },
        }
    }
}

/// Tenth-size counts for `--smoke`. The indexes keep their size, so a
/// smoke run still reaches the device and the cache tiers.
fn sized(n: usize, smoke: bool) -> usize {
    if smoke {
        (n / 10).max(8)
    } else {
        n
    }
}

/// Everything set-up produces for one workload and seed.
pub struct World {
    pub index: Index,
    /// The generator's raw lists (list-level workloads only).
    pub raw: Option<RawLists>,
    pub shards: Option<Shards>,
    /// The distinct requests.
    pub pool: Vec<Request>,
    /// Phase A's order: indices into `pool`.
    pub stream: Vec<usize>,
    /// Stream positions before which the index epoch is bumped.
    pub epoch_marks: Vec<usize>,
    pub gen_s: f64,
    pub build_s: f64,
    pub shard_s: f64,
}

impl World {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s + self.shard_s
    }
}

/// Set-up: generate the inputs from `seed`, build the index (and shard
/// views). Nothing is warmed. The three spans are children of whatever
/// span is open on `rec`.
pub fn setup(kind: Kind, seed: u64, smoke: bool, rec: &mut Recorder) -> World {
    /// Runs `f` inside a span and returns its seconds too.
    fn timed<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = rec.open(name, None);
        let out = f();
        (out, rec.close(id) as f64 / 1e9)
    }
    match kind {
        Kind::TrecHybrid | Kind::TrecCpu | Kind::FleetFaults => {
            let (shape, queries, log_seed) = match kind {
                Kind::TrecHybrid => (TREC_SHAPE, TREC_HYBRID_QUERIES, TREC_LOG_SEED),
                Kind::TrecCpu => (TREC_SHAPE, TREC_CPU_QUERIES, TREC_LOG_SEED),
                _ => (FLEET_SHAPE, FLEET_QUERIES, FLEET_LOG_SEED),
            };
            let (raw, gen_lists_s) = timed(rec, "workload.gen", || api::gen_lists(&shape, seed));
            let (index, build_s) = timed(rec, "index.build", || {
                api::build_list_index(&raw, shape.docs)
            });
            let (shards, shard_s) = timed(rec, "index.shard", || {
                (kind == Kind::FleetFaults).then(|| api::shard(&index, FLEET.shards))
            });
            let (pool, gen_log_s) = timed(rec, "workload.gen", || {
                api::gen_term_queries(&index, sized(queries, smoke), log_seed, false)
            });
            World {
                stream: (0..pool.len()).collect(),
                epoch_marks: Vec::new(),
                index,
                raw: Some(raw),
                shards,
                pool,
                gen_s: gen_lists_s + gen_log_s,
                build_s,
                shard_s,
            }
        }
        Kind::MixedCached => {
            let (index, build_s) = timed(rec, "index.build", || api::build_text(&MIXED_TEXT, seed));
            let ((pool, stream, epoch_marks), gen_s) = timed(rec, "workload.gen", || {
                let mut pool =
                    api::gen_mixed_queries(&index, sized(MIXED_STRINGS, smoke), MIXED_POOL_SEED);
                pool.extend(api::gen_term_queries(
                    &index,
                    sized(MIXED_PRUNED, smoke),
                    MIXED_POOL_SEED + 1,
                    true,
                ));
                // Popularity rank r draws pool entry r: the strings come
                // first, so the hottest requests go through the parser.
                let (stream, epoch_marks) = crate::stats::zipf_stream(
                    pool.len(),
                    MIXED_ZIPF,
                    sized(MIXED_STREAM, smoke),
                    MIXED_EPOCHS,
                    &mut Rng::new(seed ^ 0x5eed_57ea),
                );
                (pool, stream, epoch_marks)
            });
            World {
                index,
                raw: None,
                shards: None,
                pool,
                stream,
                epoch_marks,
                gen_s,
                build_s,
                shard_s: 0.0,
            }
        }
    }
}

/// The constants a result file carries so a run can be reproduced.
pub fn constants_json(kind: Kind) -> crate::json::Json {
    use crate::json::Json;
    let l = kind.ladder(false);
    Json::obj([
        (
            "ladder_qps",
            Json::Arr(l.rungs.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
        ("reference_qps", Json::Num(l.reference as f64)),
        ("limit_p95_us", Json::Num(l.limit_ns as f64 / 1e3)),
        ("arrivals_per_rung", Json::Num(l.arrivals as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn every_reference_rate_is_a_rung() {
        for w in WORKLOADS {
            let l = w.kind.ladder(false);
            assert!(l.rungs.contains(&l.reference), "{}", w.name);
            assert!(l.rungs.windows(2).all(|p| p[0] < p[1]), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let build = |seed| {
            let w = setup(
                Kind::MixedCached,
                seed,
                true,
                &mut Recorder::new(Instant::now()),
            );
            (w.pool, w.stream, w.index.postings())
        };
        let a = build(5);
        assert_eq!(a, build(5));
        let b = build(6);
        assert_ne!(a.1, b.1, "the Zipf stream follows the seed");
        assert_ne!(a.2, b.2, "and so do the documents");
    }
}
