//! The query result cache: the top tier of Griffin's cache hierarchy
//! (host decoded-list cache and device LRU below).
//!
//! Under Zipf traffic the same hot queries arrive over and over; the
//! result cache answers a repeat in a constant-time lookup instead of
//! re-running the whole intersection pipeline. Entries are keyed by
//! [`crate::QueryRequest::cache_signature`] — the canonical query
//! rendering plus `(k, mode, pruned)` and the index epoch, so any knob
//! that changes the answer (or segment churn bumping the epoch) misses
//! naturally.
//!
//! The tier is the shared [`Lru`], bounded by *both* an entry count and a
//! byte budget. Off (the default — [`crate::Griffin`] constructs without
//! it), every query executes exactly as before the cache existed:
//! identical bits, identical virtual time. On, a hit returns the stored
//! top-k bit-for-bit and charges `min(lookup, original)` virtual time, so
//! cached serving is strictly no worse than recomputing.

use griffin_cpu::Lru;
use griffin_gpu_sim::VirtualNanos;

/// Virtual cost of a result-cache hit: one hash probe, a key compare,
/// and cloning the top-k. Hits charge `min` of this and the entry's
/// original execution time, preserving the strictly-no-worse guarantee
/// even for degenerate (near-zero-time) queries.
pub const RESULT_CACHE_LOOKUP: VirtualNanos = VirtualNanos::from_nanos(2_000);

/// Fixed per-entry bookkeeping charged against the byte budget on top
/// of the key and the top-k payload.
const ENTRY_OVERHEAD_BYTES: u64 = 96;

/// The result tier: request signature → cached answer.
pub type ResultCache = Lru<String, CachedResult>;

/// One cached answer: the exact top-k bits plus the virtual time the
/// original execution took (what a hit saves, and what stale serving
/// reports).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Top-k (docid, score), best first — bit-identical to execution.
    pub topk: Vec<(u32, f32)>,
    /// The original execution's end-to-end virtual time.
    pub time: VirtualNanos,
}

impl CachedResult {
    /// Bytes this answer charges against the tier's budget when stored
    /// under `key`: the key, the top-k payload and a fixed overhead.
    pub fn bytes(&self, key: &str) -> u64 {
        (key.len() + self.topk.len() * std::mem::size_of::<(u32, f32)>()) as u64
            + ENTRY_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_exact_stored_result() {
        let mut c = ResultCache::new(1 << 16).with_max_entries(16);
        let r = CachedResult {
            topk: (0..10u32).map(|d| (d, d as f32)).collect(),
            time: VirtualNanos::from_micros(50),
        };
        c.insert("q1".into(), r.clone(), r.bytes("q1"));
        assert_eq!(c.get("q1"), Some(&r));
        assert_eq!(c.get("q2"), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_resident, 2 + 10 * 8 + 96);
    }
}
