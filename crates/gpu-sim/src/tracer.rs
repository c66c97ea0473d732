//! Per-warp performance tracing.
//!
//! Performance counters are recorded on a sample of warps
//! (`DeviceConfig::trace_sample_stride`) and extrapolated, which keeps the
//! simulator fast on multi-million-thread launches while preserving the
//! statistics the timing model needs: instruction mix, branch-divergence
//! rate, and memory-coalescing behaviour. Functional execution is exact
//! whatever the sample: a block runs thread by thread or, when the kernel
//! has one, as its native twin ([`crate::Kernel::run_block_native`]),
//! which stores the same words and is never traced. In a traced block the
//! twin computes, only the sampled warps run thread by thread, for their
//! counters, reading at each barrier the shared memory the kernel's
//! [`crate::Kernel::barrier_images`] give. A launch the device has run
//! before under an equal key ([`crate::Kernel::memo_key`]) traces no warp
//! at all: its counters are the first run's.

/// Instruction classes a kernel can charge through [`crate::ThreadCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Simple integer/logic op (add, compare, shift, mask).
    Alu,
    /// Integer multiply / mad.
    Mul,
    /// Population count (`__popc`).
    Popc,
}

pub(crate) const OP_KINDS: usize = 3;

impl Op {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        match self {
            Op::Alu => 0,
            Op::Mul => 1,
            Op::Popc => 2,
        }
    }
}

/// Counters for one traced warp.
#[derive(Debug, Default, Clone)]
pub(crate) struct WarpCounters {
    /// Dynamic op counts summed over the warp's lanes.
    pub ops: [u64; OP_KINDS],
    /// Total branch sites executed (lane-summed).
    pub branches: u64,
    /// Branch sites where lanes of this warp disagreed.
    pub divergent_sites: u64,
    /// Total branch sites observed (per-warp, not lane-summed).
    pub branch_sites: u64,
    /// Global load/store *instructions* (lane-summed).
    pub gmem_accesses: u64,
    /// Memory transactions after coalescing (warp-level).
    pub gmem_transactions: u64,
    /// Shared-memory accesses (lane-summed).
    pub smem_accesses: u64,
    /// Block-local atomic operations (lane-summed).
    pub atomics: u64,
}

/// Scratch for one warp's branch outcomes and memory footprint. It is
/// reused from phase to phase and from block to block: the per-site line
/// vectors keep their capacity, only `live_mem_sites` of them hold data.
#[derive(Default)]
pub(crate) struct WarpTraceState {
    pub counters: WarpCounters,
    /// Per branch-site: (taken count, executed count) across lanes.
    branch_sites: Vec<(u32, u32)>,
    /// Per memory-site: sorted-on-demand list of touched transaction lines.
    mem_sites: Vec<MemSite>,
    /// Memory sites touched since the last flush; the rest are empty.
    live_mem_sites: usize,
}

#[derive(Default)]
struct MemSite {
    lines: Vec<u64>,
}

impl WarpTraceState {
    /// Starts a new warp: zero counters, no outstanding sites (a block that
    /// panicked half-way may have left some open; a finished one has not).
    pub(crate) fn reset(&mut self) {
        self.flush_sites();
        self.counters = WarpCounters::default();
    }

    /// Record a branch outcome for the lane currently executing.
    /// `site` is the per-lane branch sequence number within the phase.
    #[inline]
    pub(crate) fn record_branch(&mut self, site: usize, taken: bool) {
        if site >= self.branch_sites.len() {
            self.branch_sites.resize(site + 1, (0, 0));
        }
        let s = &mut self.branch_sites[site];
        if taken {
            s.0 += 1;
        }
        s.1 += 1;
        self.counters.branches += 1;
    }

    /// Record one lane's global access of `bytes` at byte address `addr`.
    /// `site` is the per-lane memory-op sequence number within the phase.
    #[inline]
    pub(crate) fn record_gmem(&mut self, site: usize, addr: u64, transaction_bytes: u32) {
        if site >= self.live_mem_sites {
            if site >= self.mem_sites.len() {
                self.mem_sites.resize_with(site + 1, MemSite::default);
            }
            self.live_mem_sites = site + 1;
        }
        let line = addr / u64::from(transaction_bytes);
        self.mem_sites[site].lines.push(line);
        self.counters.gmem_accesses += 1;
    }

    /// Fold per-site data into warp-level counters (divergence and
    /// transactions) and empty the sites. Called at every phase end.
    pub(crate) fn flush_sites(&mut self) {
        for &(taken, total) in &self.branch_sites {
            self.counters.branch_sites += 1;
            if taken != 0 && taken != total {
                self.counters.divergent_sites += 1;
            }
        }
        self.branch_sites.clear();
        for site in &mut self.mem_sites[..self.live_mem_sites] {
            site.lines.sort_unstable();
            site.lines.dedup();
            self.counters.gmem_transactions += site.lines.len() as u64;
            site.lines.clear();
        }
        self.live_mem_sites = 0;
    }
}

/// Aggregated, extrapolated counters for one kernel launch. These feed the
/// timing model and are surfaced in [`crate::LaunchReport`] for tests and
/// model ablations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LaunchCounters {
    /// Warps launched (grid × block, rounded up to warp granularity).
    pub total_warps: u64,
    /// Warps actually traced.
    pub traced_warps: u64,
    /// Extrapolated dynamic ops by class, lane-summed.
    pub ops: [u64; OP_KINDS],
    /// Extrapolated branch executions, lane-summed.
    pub branches: u64,
    /// Extrapolated branch sites (warp-level).
    pub branch_sites: u64,
    /// Extrapolated divergent branch sites (warp-level).
    pub divergent_sites: u64,
    /// Extrapolated global memory access instructions (lane-summed).
    pub gmem_accesses: u64,
    /// Extrapolated global memory transactions (warp-level, coalesced).
    pub gmem_transactions: u64,
    /// Extrapolated shared memory accesses.
    pub smem_accesses: u64,
    /// Extrapolated block-local atomics.
    pub atomics: u64,
    /// Global stores applied at retire (exact, not sampled).
    pub stores_applied: u64,
}

impl LaunchCounters {
    /// Fraction of branch sites that diverged (0 when no branches ran).
    pub fn divergence_rate(&self) -> f64 {
        if self.branch_sites == 0 {
            0.0
        } else {
            self.divergent_sites as f64 / self.branch_sites as f64
        }
    }

    /// Average transactions per global warp-access: 1.0 is perfectly
    /// coalesced, up to `warp_size` for fully scattered access.
    pub fn coalescing_factor(&self, warp_size: u32) -> f64 {
        if self.gmem_accesses == 0 {
            return 1.0;
        }
        // warp-level accesses ~= lane accesses / active lanes; approximate
        // with warp_size which under-counts for partially-active warps.
        let warp_accesses = (self.gmem_accesses as f64 / f64::from(warp_size)).max(1.0);
        (self.gmem_transactions as f64 / warp_accesses).max(1.0 / f64::from(warp_size))
    }

    /// Bytes moved through the memory system.
    pub fn gmem_bytes(&self, transaction_bytes: u32) -> u64 {
        self.gmem_transactions * u64::from(transaction_bytes)
    }

    /// Accumulate one traced warp.
    pub(crate) fn absorb(&mut self, w: &WarpCounters) {
        self.traced_warps += 1;
        for i in 0..OP_KINDS {
            self.ops[i] += w.ops[i];
        }
        self.branches += w.branches;
        self.branch_sites += w.branch_sites;
        self.divergent_sites += w.divergent_sites;
        self.gmem_accesses += w.gmem_accesses;
        self.gmem_transactions += w.gmem_transactions;
        self.smem_accesses += w.smem_accesses;
        self.atomics += w.atomics;
    }

    /// Scale sampled counters up to the full launch.
    pub(crate) fn extrapolate(&mut self) {
        if self.traced_warps == 0 || self.traced_warps >= self.total_warps {
            return;
        }
        let scale = self.total_warps as f64 / self.traced_warps as f64;
        let s = |v: u64| (v as f64 * scale).round() as u64;
        for op in &mut self.ops {
            *op = s(*op);
        }
        self.branches = s(self.branches);
        self.branch_sites = s(self.branch_sites);
        self.divergent_sites = s(self.divergent_sites);
        self.gmem_accesses = s(self.gmem_accesses);
        self.gmem_transactions = s(self.gmem_transactions);
        self.smem_accesses = s(self.smem_accesses);
        self.atomics = s(self.atomics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_divergence_detection() {
        let mut t = WarpTraceState::default();
        // Site 0: all 4 lanes take the branch -> uniform.
        for _ in 0..4 {
            t.record_branch(0, true);
        }
        // Site 1: split outcome -> divergent.
        t.record_branch(1, true);
        t.record_branch(1, false);
        t.flush_sites();
        assert_eq!(t.counters.branch_sites, 2);
        assert_eq!(t.counters.divergent_sites, 1);
        assert_eq!(t.counters.branches, 6);
    }

    #[test]
    fn coalesced_access_is_one_transaction() {
        let mut t = WarpTraceState::default();
        // 32 lanes touch consecutive u32s: one 128-byte transaction.
        for lane in 0..32u64 {
            t.record_gmem(0, lane * 4, 128);
        }
        t.flush_sites();
        assert_eq!(t.counters.gmem_transactions, 1);
        assert_eq!(t.counters.gmem_accesses, 32);
    }

    #[test]
    fn scattered_access_is_many_transactions() {
        let mut t = WarpTraceState::default();
        for lane in 0..32u64 {
            t.record_gmem(0, lane * 4096, 128);
        }
        t.flush_sites();
        assert_eq!(t.counters.gmem_transactions, 32);
    }

    #[test]
    fn extrapolation_scales_counts() {
        let mut c = LaunchCounters {
            total_warps: 100,
            ..Default::default()
        };
        let mut w = WarpCounters::default();
        w.ops[Op::Alu.idx()] = 10;
        w.gmem_transactions = 2;
        c.absorb(&w);
        c.extrapolate();
        assert_eq!(c.ops[Op::Alu.idx()], 1000);
        assert_eq!(c.gmem_transactions, 200);
    }

    #[test]
    fn divergence_rate_and_bytes() {
        let c = LaunchCounters {
            branch_sites: 10,
            divergent_sites: 3,
            gmem_transactions: 5,
            ..Default::default()
        };
        assert_eq!(c.divergence_rate(), 0.3);
        assert_eq!(c.gmem_bytes(128), 640);
    }
}
