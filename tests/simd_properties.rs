//! Scalar/SIMD kernel equivalence: the runtime-dispatched kernels in
//! `griffin_cpu::simd` must be *bit-exact* substitutes for their scalar
//! references — same decoded docids, same intersection results, same
//! `WorkCounters` (so virtual time never depends on which host ran the
//! query), same last-ulp top-k score bits under block-max pruning.
//!
//! The forced-path knob is process-global, so every test serializes on
//! one mutex and restores `ForceMode::Auto` on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use griffin_codec::{BlockedList, Codec};
use griffin_cpu::simd::{self, ForceMode};
use griffin_cpu::{decode, intersect, CpuEngine, WorkCounters};
use griffin_index::TermId;
use griffin_suite::griffin::QueryRequest;
use griffin_suite::griffin_workload::Corpus;
use griffin_suite::oracle;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The forced kernel path is a process-global; tests flipping it must
/// not interleave. Poisoning is survivable — the state is an atomic.
fn forced_path_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `op` under the given forced path, restoring `Auto` afterwards.
fn with_path<T>(mode: ForceMode, op: impl FnOnce() -> T) -> T {
    simd::set_forced(mode);
    let out = op();
    simd::set_forced(ForceMode::Auto);
    out
}

/// Decodes `list` fully on both paths and requires identical outputs
/// *and* identical work counters.
fn assert_decode_paths_agree(list: &BlockedList, what: &str) {
    let (scalar, ws) = with_path(ForceMode::Scalar, || {
        let mut w = WorkCounters::default();
        (decode::decode_list(list, &mut w), w)
    });
    let (simd_out, wv) = with_path(ForceMode::Auto, || {
        let mut w = WorkCounters::default();
        (decode::decode_list(list, &mut w), w)
    });
    assert_eq!(scalar, simd_out, "{what}: decoded docids diverged");
    assert_eq!(ws, wv, "{what}: work counters diverged across paths");
}

/// Block lengths that exercise SIMD group boundaries: below one group,
/// exactly one group, unaligned tails, and the default.
const BLOCK_LENS: [usize; 6] = [1, 7, 8, 33, 128, 200];

#[test]
fn decode_bit_exact_across_block_lengths_and_codecs() {
    let _g = forced_path_lock();
    let mut rng = StdRng::seed_from_u64(oracle::seed());
    for &block_len in &BLOCK_LENS {
        for len in [1usize, 2, 7, 31, 127, 128, 129, 500, 1000] {
            let mut ids: Vec<u32> = (0..len as u32)
                .map(|_| rng.gen_range(0..2_000_000))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
                let list = BlockedList::compress(&ids, codec, block_len);
                assert_decode_paths_agree(
                    &list,
                    &format!("{codec:?} len={len} block_len={block_len}"),
                );
            }
        }
    }
}

#[test]
fn decode_bit_exact_on_singletons_and_max_width_deltas() {
    let _g = forced_path_lock();
    // Singleton at zero, singleton at the top of the docid space.
    for &id in &[0u32, u32::MAX - 1] {
        for codec in [Codec::PforDelta, Codec::Varint] {
            let list = BlockedList::compress(&[id], codec, 128);
            assert_decode_paths_agree(&list, &format!("{codec:?} singleton {id}"));
        }
    }
    // Near-maximal deltas force 32-bit PforDelta slots (the raw-copy
    // path) and full-width varint bytes.
    let wide: Vec<u32> = vec![0, 1, u32::MAX / 2, u32::MAX - 2, u32::MAX - 1];
    for codec in [Codec::PforDelta, Codec::Varint] {
        let list = BlockedList::compress(&wide, codec, 3); // unaligned tail too
        assert_decode_paths_agree(&list, &format!("{codec:?} max-width deltas"));
    }
    // Elias–Fano with a clustered low range then a huge jump: stresses
    // the high-bits scan against the SIMD-unpacked low bits.
    let jump: Vec<u32> = (0..200u32).chain([1 << 30, (1 << 30) + 5]).collect();
    let list = BlockedList::compress(&jump, Codec::EliasFano, 64);
    assert_decode_paths_agree(&list, "EliasFano cluster+jump");
}

#[test]
fn skip_intersection_identical_results_and_counters() {
    let _g = forced_path_lock();
    let mut rng = StdRng::seed_from_u64(oracle::seed() ^ 0x5EED);
    let mut long: Vec<u32> = (0..50_000u32)
        .map(|_| rng.gen_range(0..1_000_000))
        .collect();
    long.sort_unstable();
    long.dedup();
    // Half the short list hits, half misses — both compare outcomes run.
    let mut short: Vec<u32> = long
        .iter()
        .step_by(97)
        .copied()
        .chain((0..300).map(|_| rng.gen_range(0..1_000_000)))
        .collect();
    short.sort_unstable();
    short.dedup();
    for codec in [Codec::PforDelta, Codec::EliasFano] {
        let list = BlockedList::compress(&long, codec, 128);
        let run = |mode| {
            with_path(mode, || {
                let mut w = WorkCounters::default();
                let m =
                    intersect::skip_intersect(&short, &list, 0..list.num_blocks(), None, &mut w);
                (m.docids, m.a_idx, m.b_idx, w)
            })
        };
        let a = run(ForceMode::Scalar);
        let b = run(ForceMode::Auto);
        assert_eq!(a, b, "{codec:?}: skip intersection diverged across paths");
    }
}

#[test]
fn pruned_query_bit_identical_across_paths() {
    let _g = forced_path_lock();
    let mut rng = StdRng::seed_from_u64(oracle::seed() ^ 0xB10C);
    let pool: Vec<u32> = (0..3_000).map(|_| rng.gen_range(0..60_000)).collect();
    let lists: Vec<Vec<u32>> = (0..3)
        .map(|_| {
            let mut l: Vec<u32> = (0..rng.gen_range(2_000..8_000))
                .map(|_| rng.gen_range(0..60_000))
                .chain(pool.iter().step_by(2).copied())
                .collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    for codec in [Codec::PforDelta, Codec::EliasFano] {
        let corpus = Corpus::draw(&lists, 70_000, codec, 128, &mut rng);
        let terms: Vec<TermId> = (0..lists.len() as u32).map(TermId).collect();
        let engine = CpuEngine::new();
        let run = |mode| {
            with_path(mode, || {
                let out = engine.process_query_pruned(&corpus.index, &terms, 10);
                (oracle::bits(&out.topk), out.time, out.counters, out.stats)
            })
        };
        let (topk_s, time_s, w_s, stats_s) = run(ForceMode::Scalar);
        let (topk_v, time_v, w_v, stats_v) = run(ForceMode::Auto);
        // Scores must match to the bit, not the epsilon: the SIMD bound
        // fold must preserve the exact f32 fold order.
        let want = oracle::expect(&corpus, &QueryRequest::new(terms.clone()));
        assert_eq!(topk_s, want, "{codec:?}: scalar pruned top-k");
        assert_eq!(topk_v, want, "{codec:?}: dispatched pruned top-k");
        assert_eq!(w_s, w_v, "{codec:?}: pruned counters diverged");
        assert_eq!(time_s, time_v, "{codec:?}: virtual time diverged");
        assert_eq!(stats_s, stats_v, "{codec:?}: prune stats diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn decode_paths_agree_on_arbitrary_lists(
        mut ids in vec(0u32..5_000_000, 1..1_200),
        block_len in 1usize..300,
    ) {
        ids.sort_unstable();
        ids.dedup();
        let _g = forced_path_lock();
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, block_len);
            let scalar = with_path(ForceMode::Scalar, || {
                decode::decode_list(&list, &mut WorkCounters::default())
            });
            let simd_out = with_path(ForceMode::Auto, || {
                decode::decode_list(&list, &mut WorkCounters::default())
            });
            prop_assert_eq!(&scalar, &ids, "{:?}: decode is not the identity", codec);
            prop_assert_eq!(scalar, simd_out, "{:?}: paths diverged", codec);
        }
    }
}
