//! Fleet-side result types and the bit-exact scatter–gather merge.
//!
//! The coordinator itself (routing, hedging, failover, budgets) lives in
//! `griffin-server`; this module holds what the *engine* layer needs to
//! know about a fleet: the sharded index view ([`ShardedIndex`]), the
//! top-k merge whose comparator is byte-for-byte the engine's own
//! ([`merge_topk`]), and the coverage annotations a partial answer
//! carries in [`crate::GriffinOutput::fleet`].

use griffin_cpu::topk::rank_order;
use griffin_gpu_sim::VirtualNanos;
use griffin_index::{partition, InvertedIndex, ShardPlan};

/// A docID-range sharded view of one corpus: the shard plan plus one
/// [`InvertedIndex`] shard view per range (see `griffin_index::shard`).
/// Shard views score with whole-corpus statistics, which is what makes
/// [`merge_topk`] over per-shard answers bit-exact with the unsharded
/// engine.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    plan: ShardPlan,
    shards: Vec<InvertedIndex>,
}

impl ShardedIndex {
    /// Slices `index` into `num_shards` near-equal docID ranges.
    pub fn build(index: &InvertedIndex, num_shards: usize) -> ShardedIndex {
        let plan = ShardPlan::even(index.num_docs(), num_shards);
        let shards = partition(index, &plan);
        ShardedIndex { plan, shards }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    pub fn shard(&self, s: usize) -> &InvertedIndex {
        &self.shards[s]
    }

    /// The docID range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<u32> {
        self.plan.range(s)
    }
}

/// Merges per-shard top-k lists into the global top-k.
///
/// Sorts in the engine's own [`rank_order`], so for disjoint shards
/// (every doc in exactly one shard) the merged prefix is bit-identical to
/// the unsharded engine's `top_k`, NaN poisoning included.
pub fn merge_topk(parts: &[Vec<(u32, f32)>], k: usize) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = parts.iter().flat_map(|p| p.iter().copied()).collect();
    all.sort_unstable_by(rank_order);
    all.truncate(k);
    all
}

/// Why a shard's slot in a fleet answer looks the way it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard answered through its normal (requested-mode) lane.
    Answered,
    /// Every replica's breaker was open; the shard answered through its
    /// CPU-only lane. Results are still exact — only latency differs.
    AnsweredCpuOnly,
    /// The shard answered, but after the query's deadline; its results
    /// were left out of the merge under the partial-results policy.
    Dropped,
    /// No live replica existed; the shard contributed nothing.
    Missing,
}

impl ShardOutcome {
    /// Whether this shard's results are present in the merged top-k.
    pub fn covered(&self) -> bool {
        matches!(self, ShardOutcome::Answered | ShardOutcome::AnsweredCpuOnly)
    }

    /// Stable label for telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShardOutcome::Answered => "answered",
            ShardOutcome::AnsweredCpuOnly => "answered-cpu-only",
            ShardOutcome::Dropped => "dropped",
            ShardOutcome::Missing => "missing",
        }
    }
}

/// Per-shard status of one fleet answer: which replica served it, how
/// long it took, and whether the tail-latency machinery fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStatus {
    pub shard: usize,
    /// The replica whose answer was used (the hedge winner when one
    /// fired). For [`ShardOutcome::Missing`] there is none.
    pub replica: Option<usize>,
    pub outcome: ShardOutcome,
    /// Answer latency relative to the query's arrival at the
    /// coordinator (zero for a missing shard).
    pub latency: VirtualNanos,
    /// A hedged (second-replica) request was issued for this shard.
    pub hedged: bool,
    /// The hedge answered first.
    pub hedge_won: bool,
    /// Device faults observed by the serving replica.
    pub gpu_faults: u32,
}

/// Fleet coverage annotations on a [`crate::GriffinOutput`]: the
/// explicit accounting that makes partial degradation honest. Every
/// shard appears in `shards` with its outcome — a shard can be dropped
/// or missing, never silent.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetInfo {
    /// Fraction of shards whose results are in the merged top-k
    /// (1.0 = complete answer).
    pub coverage: f64,
    /// One entry per shard, in shard order, always `num_shards` long.
    pub shards: Vec<ShardStatus>,
}

impl FleetInfo {
    /// Builds the info from per-shard statuses, deriving coverage.
    pub fn from_statuses(shards: Vec<ShardStatus>) -> FleetInfo {
        let covered = shards.iter().filter(|s| s.outcome.covered()).count();
        let coverage = if shards.is_empty() {
            1.0
        } else {
            covered as f64 / shards.len() as f64
        };
        FleetInfo { coverage, shards }
    }

    /// Whether every shard's results made it into the merge.
    pub fn complete(&self) -> bool {
        self.shards.iter().all(|s| s.outcome.covered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    #[test]
    fn merge_matches_single_sorted_order() {
        let parts = vec![
            vec![(10u32, 2.0f32), (30, 1.0)],
            vec![(5u32, 3.0f32), (7, 1.0)],
            vec![],
        ];
        let merged = merge_topk(&parts, 3);
        assert_eq!(merged, vec![(5, 3.0), (10, 2.0), (7, 1.0)]);
        // Ties break by ascending docID across shards.
        let merged = merge_topk(&parts, 4);
        assert_eq!(merged[3], (30, 1.0));
    }

    #[test]
    fn merge_handles_nan_like_topk() {
        // total_cmp sorts positive NaN first, same as the engine's top_k.
        let parts = vec![vec![(1u32, 1.0f32)], vec![(2u32, f32::NAN)]];
        let merged = merge_topk(&parts, 2);
        assert_eq!(merged[0].0, 2);
    }

    #[test]
    fn coverage_counts_covered_outcomes() {
        let status = |s, outcome| ShardStatus {
            shard: s,
            replica: Some(0),
            outcome,
            latency: ns(10),
            hedged: false,
            hedge_won: false,
            gpu_faults: 0,
        };
        let info = FleetInfo::from_statuses(vec![
            status(0, ShardOutcome::Answered),
            status(1, ShardOutcome::AnsweredCpuOnly),
            status(2, ShardOutcome::Dropped),
            status(3, ShardOutcome::Missing),
        ]);
        assert_eq!(info.coverage, 0.5);
        assert!(!info.complete());
        assert_eq!(info.shards.len(), 4);
    }

    #[test]
    fn sharded_index_builds_views() {
        let lists: Vec<Vec<u32>> = vec![(0..100u32).collect(), (0..50u32).map(|i| i * 2).collect()];
        let index = InvertedIndex::from_docid_lists(&lists, 100, Codec::EliasFano, 16);
        let sharded = ShardedIndex::build(&index, 3);
        assert_eq!(sharded.num_shards(), 3);
        let total: usize = (0..3)
            .map(|s| sharded.shard(s).doc_freq(index.lookup("t0").unwrap()))
            .sum();
        assert_eq!(total, 100);
    }
}
