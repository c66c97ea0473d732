//! Behavioural tests of the CPU engine: cost-model monotonicity, work
//! accounting of the different strategies, and property-based checks that
//! the instrumented algorithms match naive references.

use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
use griffin_cpu::decode::{decode_list, decode_postings};
use griffin_cpu::intersect::{
    binary_intersect_decoded, gather_tfs, merge_intersect, skip_intersect,
};
use griffin_cpu::{CpuCostModel, CpuEngine, WorkCounters};
use griffin_index::{CompressedPostingList, InvertedIndex, Posting, TermId};
use proptest::collection::vec;
use proptest::prelude::*;

fn sorted_unique() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..200_000, 1..900).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn reference_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter()
        .filter(|v| b.binary_search(v).is_ok())
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_intersections_match_reference(a in sorted_unique(), b in sorted_unique()) {
        let reference = reference_intersect(&a, &b);
        let mut w = WorkCounters::default();
        prop_assert_eq!(merge_intersect(&a, &b, &mut w).docids, reference.clone());
        prop_assert_eq!(binary_intersect_decoded(&a, &b, &mut w).docids, reference.clone());
        for codec in [Codec::PforDelta, Codec::EliasFano] {
            let long = BlockedList::compress(&b, codec, DEFAULT_BLOCK_LEN);
            prop_assert_eq!(skip_intersect(&a, &long, 0..long.num_blocks(), None, &mut w).docids, reference.clone());
        }
    }

    #[test]
    fn decode_counters_are_exact(ids in sorted_unique()) {
        let list = BlockedList::compress(&ids, Codec::PforDelta, DEFAULT_BLOCK_LEN);
        let mut w = WorkCounters::default();
        let out = decode_list(&list, &mut w);
        prop_assert_eq!(out, ids.clone());
        prop_assert_eq!(w.pfor_elements as usize, ids.len());
        prop_assert_eq!(w.blocks_decoded as usize, list.num_blocks());
    }

    #[test]
    fn gather_tfs_matches_full_decode(ids in sorted_unique()) {
        let postings: Vec<Posting> = ids
            .iter()
            .enumerate()
            .map(|(i, &d)| Posting { docid: d, tf: (i % 13 + 1) as u32 })
            .collect();
        let list = CompressedPostingList::compress(&postings, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let (_, all_tfs) = {
            let mut w = WorkCounters::default();
            decode_postings(&list, &mut w)
        };
        // Gather a strided subset.
        let idx: Vec<u32> = (0..ids.len()).step_by(5).map(|i| i as u32).collect();
        let mut w = WorkCounters::default();
        let got = gather_tfs(&list, &idx, &mut w);
        let expect: Vec<u32> = idx.iter().map(|&i| all_tfs[i as usize]).collect();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn skip_search_work_scales_with_short_list_not_long() {
    let long: Vec<u32> = (0..1_000_000u32).map(|i| i * 3).collect();
    let compressed = BlockedList::compress(&long, Codec::PforDelta, DEFAULT_BLOCK_LEN);
    let model = CpuCostModel::default();
    let mut times = Vec::new();
    for m in [100usize, 1_000] {
        let short: Vec<u32> = (0..m as u32)
            .map(|i| i * (3_000_000 / m as u32) + 1)
            .collect();
        let mut w = WorkCounters::default();
        skip_intersect(
            &short,
            &compressed,
            0..compressed.num_blocks(),
            None,
            &mut w,
        );
        times.push(model.time(&w).as_nanos() as f64);
    }
    let ratio = times[1] / times[0];
    assert!(
        (5.0..20.0).contains(&ratio),
        "10x more short elements should cost ~10x, got {ratio:.1}x"
    );
}

#[test]
fn merge_work_scales_with_combined_length() {
    let model = CpuCostModel::default();
    let mut times = Vec::new();
    for n in [100_000u32, 400_000] {
        let a: Vec<u32> = (0..n).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..n).map(|i| i * 2 + 1).collect();
        let mut w = WorkCounters::default();
        merge_intersect(&a, &b, &mut w);
        times.push(model.time(&w).as_nanos() as f64);
    }
    let ratio = times[1] / times[0];
    assert!(
        (3.0..5.0).contains(&ratio),
        "4x data should cost ~4x, got {ratio:.1}x"
    );
}

#[test]
fn query_over_different_codecs_returns_same_results() {
    let lists: Vec<Vec<u32>> = vec![
        (0..500u32).map(|i| i * 31 + 4).collect(),
        (0..4_000u32).map(|i| i * 4).collect(),
        (0..9_000u32).map(|i| i * 2).collect(),
    ];
    let mut outputs = Vec::new();
    for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
        let idx = InvertedIndex::from_docid_lists(&lists, 40_000, codec, 128);
        let terms: Vec<TermId> = (0..3)
            .map(|i| idx.lookup(&format!("t{i}")).unwrap())
            .collect();
        let engine = CpuEngine::new();
        outputs.push(engine.process_query(&idx, &terms, 10).topk);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

#[test]
fn cost_model_orders_strategies_sensibly() {
    // At very high ratio, skip must be cheaper than merge; at ratio ~1,
    // merge must be cheaper than per-element binary search.
    let model = CpuCostModel::default();
    let long: Vec<u32> = (0..500_000u32).map(|i| i * 2).collect();
    let compressed = BlockedList::compress(&long, Codec::PforDelta, DEFAULT_BLOCK_LEN);

    let tiny: Vec<u32> = (0..50u32).map(|i| i * 20_000).collect();
    let mut w_skip = WorkCounters::default();
    skip_intersect(
        &tiny,
        &compressed,
        0..compressed.num_blocks(),
        None,
        &mut w_skip,
    );
    let mut w_merge = WorkCounters::default();
    decode_list(&compressed, &mut w_merge);
    merge_intersect(&tiny, &long, &mut w_merge);
    assert!(model.time(&w_skip) < model.time(&w_merge) / 10);

    let similar: Vec<u32> = (0..400_000u32).map(|i| i * 2 + 1).collect();
    let mut w_m = WorkCounters::default();
    merge_intersect(&similar, &long, &mut w_m);
    let mut w_b = WorkCounters::default();
    binary_intersect_decoded(&similar, &long, &mut w_b);
    assert!(model.time(&w_m) < model.time(&w_b));
}
