//! Top-k selection: the `partial_sort`-style CPU ranking the paper found
//! fastest for the final (small) result lists (§3.1.3, Fig. 7).

use std::cmp::Ordering;

use crate::cost::WorkCounters;

/// The rank order of every result list: score descending by `total_cmp`
/// (so NaN has a fixed place), ties by ascending docID. `Less` ranks
/// first.
#[inline]
pub fn rank_order(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Selects the `k` highest-scoring documents in [`rank_order`].
/// Equivalent to C++ `std::partial_sort`: select-nth then sort the
/// prefix.
pub fn top_k(docids: &[u32], scores: &[f32], k: usize, w: &mut WorkCounters) -> Vec<(u32, f32)> {
    assert_eq!(docids.len(), scores.len());
    let n = docids.len();
    w.topk_scanned += n as u64;
    let mut items: Vec<(u32, f32)> = docids.iter().copied().zip(scores.iter().copied()).collect();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k < n {
        items.select_nth_unstable_by(k - 1, rank_order);
        items.truncate(k);
    }
    items.sort_unstable_by(rank_order);
    w.emitted += k as u64;
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc() -> WorkCounters {
        WorkCounters::default()
    }

    #[test]
    fn selects_highest_scores_in_order() {
        let docids = vec![10u32, 20, 30, 40, 50];
        let scores = vec![0.5f32, 2.0, 1.0, 3.0, 0.1];
        let top = top_k(&docids, &scores, 3, &mut wc());
        assert_eq!(top, vec![(40, 3.0), (20, 2.0), (30, 1.0)]);
    }

    #[test]
    fn k_larger_than_n_returns_all_sorted() {
        let docids = vec![1u32, 2];
        let scores = vec![1.0f32, 5.0];
        let top = top_k(&docids, &scores, 10, &mut wc());
        assert_eq!(top, vec![(2, 5.0), (1, 1.0)]);
    }

    #[test]
    fn ties_break_by_docid() {
        let docids = vec![9u32, 3, 7];
        let scores = vec![1.0f32, 1.0, 1.0];
        let top = top_k(&docids, &scores, 2, &mut wc());
        assert_eq!(top, vec![(3, 1.0), (7, 1.0)]);
    }

    #[test]
    fn zero_k_and_empty_input() {
        assert!(top_k(&[], &[], 10, &mut wc()).is_empty());
        assert!(top_k(&[1], &[1.0], 0, &mut wc()).is_empty());
    }

    #[test]
    fn nan_scores_order_deterministically() {
        // total_cmp gives NaN a fixed place in the order (positive NaN
        // sorts above +inf, so first in a descending sort), so a poisoned
        // score can never make the comparator inconsistent or the output
        // flicker run to run — the old partial_cmp fallback treated NaN
        // as equal to everything, which is not a total order.
        let docids = vec![1u32, 2, 3, 4];
        let scores = vec![1.0f32, f32::NAN, 2.0, f32::NAN];
        let a = top_k(&docids, &scores, 3, &mut wc());
        let b = top_k(&docids, &scores, 3, &mut wc());
        assert_eq!(a.iter().map(|e| e.0).collect::<Vec<_>>(), vec![2, 4, 3]);
        assert_eq!(
            a.iter().map(|e| e.0).collect::<Vec<_>>(),
            b.iter().map(|e| e.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn counters_reflect_scan() {
        let docids: Vec<u32> = (0..1000).collect();
        let scores: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut w = wc();
        let top = top_k(&docids, &scores, 10, &mut w);
        assert_eq!(w.topk_scanned, 1000);
        assert_eq!(w.emitted, 10);
        assert_eq!(top[0], (999, 999.0));
    }
}
