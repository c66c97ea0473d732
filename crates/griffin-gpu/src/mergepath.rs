//! GPU MergePath list intersection (paper §3.1.2, Figs. 5–6; after Green,
//! McColl & Bader's GPU Merge Path).
//!
//! Merging two sorted lists A and B is a monotone path through the
//! |A|×|B| grid; drawing `p` equally spaced cross-diagonals and binary
//! searching *along each diagonal* for its crossing with the merge path
//! yields `p` perfectly even partitions (the load-balancing property
//! previous GPU IR systems lacked). Each partition is then intersected
//! serially by one thread, with both sub-lists staged in shared memory by
//! coalesced cooperative loads — no synchronization during the merge.
//!
//! Because docID lists are duplicate-free *sets*, we add the classic
//! boundary adjustment: when a diagonal lands between an equal pair
//! `A[a-1] == B[b]`, the B element is pulled into the earlier partition so
//! the match cannot straddle the boundary.
//!
//! Pipeline: partition kernel → merge kernel (matches to per-partition
//! slabs) → scan of per-partition counts → compaction kernel. The merge
//! and the compaction have native twins, which compute a block's stores in
//! plain Rust (`Kernel::run_block_native`), and the merge supplies its
//! shared memory at each barrier (`Kernel::barrier_images`), so that a
//! traced block runs only its sampled warps lane by lane.

use griffin_gpu_sim::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, DeviceError, Gpu, Kernel, LaunchConfig,
    Scope, ThreadCtx,
};

use crate::native;
use crate::scan::exclusive_scan;

/// Geometry of a MergePath launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePathConfig {
    /// Combined elements (from A and B) per partition / per thread.
    pub items_per_partition: usize,
    /// Threads per block; a block stages `block_dim * items_per_partition`
    /// elements in shared memory.
    pub block_dim: u32,
}

impl Default for MergePathConfig {
    fn default() -> Self {
        MergePathConfig {
            items_per_partition: 32,
            block_dim: 128,
        }
    }
}

impl MergePathConfig {
    /// Largest default-shaped config whose staging fits the device's
    /// shared memory.
    pub fn for_device(cfg: &DeviceConfig) -> Self {
        let mut c = MergePathConfig::default();
        while c.shared_words_needed() > cfg.shared_mem_words_per_block && c.block_dim > 32 {
            c.block_dim /= 2;
        }
        while c.shared_words_needed() > cfg.shared_mem_words_per_block && c.items_per_partition > 8
        {
            c.items_per_partition /= 2;
        }
        assert!(
            c.shared_words_needed() <= cfg.shared_mem_words_per_block,
            "device shared memory too small for MergePath staging"
        );
        c
    }

    /// Worst-case staged elements per block (+2 boundary-adjustment slack).
    fn shared_words_needed(&self) -> usize {
        2 * self.block_dim as usize * self.items_per_partition + 2
    }

    /// Max matches one partition can produce.
    fn partition_capacity(&self) -> usize {
        self.items_per_partition / 2 + 1
    }
}

/// Intersection output, resident on the device.
pub struct DeviceMatches {
    /// Common docIDs, ascending.
    pub docids: DeviceBuffer<u32>,
    /// Position of each match in A.
    pub a_idx: DeviceBuffer<u32>,
    /// Position of each match in B.
    pub b_idx: DeviceBuffer<u32>,
    pub len: usize,
}

impl DeviceMatches {
    pub fn free(self, gpu: &Gpu) {
        gpu.free(self.docids);
        gpu.free(self.a_idx);
        gpu.free(self.b_idx);
    }

    /// Allocates the three result buffers in `scope`, which frees them on a
    /// fault before [`DeviceMatches::keep`] hands them to the caller.
    pub(crate) fn alloc(scope: &mut Scope<'_>, len: usize) -> Result<DeviceMatches, DeviceError> {
        Ok(DeviceMatches {
            docids: scope.alloc(len)?,
            a_idx: scope.alloc(len)?,
            b_idx: scope.alloc(len)?,
            len,
        })
    }

    pub(crate) fn keep(self, scope: &mut Scope<'_>) -> DeviceMatches {
        DeviceMatches {
            docids: scope.keep(self.docids),
            a_idx: scope.keep(self.a_idx),
            b_idx: scope.keep(self.b_idx),
            len: self.len,
        }
    }

    pub(crate) fn empty(gpu: &Gpu) -> Result<DeviceMatches, DeviceError> {
        let mut scope = Scope::new(gpu);
        Ok(DeviceMatches::alloc(&mut scope, 0)?.keep(&mut scope))
    }
}

/// Finds the *block-level* partition boundaries: one thread per block
/// diagonal (spaced `block_dim * items_per_partition` elements apart).
/// Thread-level partitioning happens later, in shared memory — this
/// two-level scheme is what keeps the diagonal searches off global memory
/// (the moderngpu design the paper builds on).
struct PartitionKernel {
    a: DeviceBuffer<u32>,
    b: DeviceBuffer<u32>,
    a_bounds: DeviceBuffer<u32>,
    b_bounds: DeviceBuffer<u32>,
    m: usize,
    n: usize,
    ipp: usize,
    num_bounds: usize, // p + 1
}

impl Kernel for PartitionKernel {
    fn name(&self) -> &'static str {
        "mergepath.partition"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.num_bounds) {
            return;
        }
        let d = (i * self.ipp).min(self.m + self.n);
        // Binary search along the cross diagonal: smallest a in
        // [max(0, d-n), min(d, m)] with A[a] > B[d-a-1]
        // (out-of-range B reads as +inf: advancing a is forced).
        let mut lo = d.saturating_sub(self.n);
        let mut hi = d.min(self.m);
        while t.branch(lo < hi) {
            let mid = lo + (hi - lo) / 2;
            let bj = d - mid - 1;
            let av = t.ld(&self.a, mid);
            let bv = if t.branch(bj < self.n) {
                t.ld(&self.b, bj)
            } else {
                u32::MAX
            };
            t.alu(2);
            if t.branch(av <= bv) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let a = lo;
        let mut b = d - a;
        // Set-intersection boundary adjustment: keep an equal pair on the
        // same side of the cut.
        if t.branch(a > 0 && b < self.n) {
            let last_a = t.ld(&self.a, a - 1);
            let first_b = t.ld(&self.b, b);
            if t.branch(last_a == first_b) {
                b += 1;
            }
        }
        t.st(&self.a_bounds, i, a as u32);
        t.st(&self.b_bounds, i, b as u32);
    }
}

/// Stages each block's A/B ranges in shared memory, finds thread-level
/// partition boundaries by diagonal binary search *in shared memory*, then
/// each thread serially intersects its partition, writing matches to a
/// per-partition slab and its match count to `counts`.
///
/// Shared layout: `[A staged | B staged | a_cuts (bd+1) | b_cuts (bd+1)]`.
struct MergeKernel {
    a: DeviceBuffer<u32>,
    b: DeviceBuffer<u32>,
    a_bounds: DeviceBuffer<u32>,
    b_bounds: DeviceBuffer<u32>,
    temp_docid: DeviceBuffer<u32>,
    temp_aidx: DeviceBuffer<u32>,
    temp_bidx: DeviceBuffer<u32>,
    counts: DeviceBuffer<u32>,
    num_blocks: usize,
    n: usize,
    cfg: MergePathConfig,
}

/// Block `blk`'s staged ranges, as phase 0 leaves them in shared memory,
/// and the diagonal search phase 1 runs over them.
struct Staged<'a> {
    a_start: u32,
    b_start: u32,
    a: &'a [u32],
    b: &'a [u32],
    /// `b`'s length without the slack element: what the diagonals span.
    b_raw: usize,
    ipp: usize,
    bd: usize,
}

impl Staged<'_> {
    /// Thread `tid`'s cut (`tid == bd`: the sentinel, the staged ends), as
    /// phase 1 writes it: the diagonal search, then the equal-pair
    /// adjustment.
    fn cut(&self, tid: usize) -> (usize, usize) {
        let (a, b, b_raw) = (self.a, self.b, self.b_raw);
        if tid == self.bd {
            return (a.len(), b.len());
        }
        let d = (tid * self.ipp).min(a.len() + b_raw);
        let (mut lo, mut hi) = (d.saturating_sub(b_raw), d.min(a.len()));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let bj = d - mid - 1;
            let bv = if bj < b_raw { b[bj] } else { u32::MAX };
            if a[mid] <= bv {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut b_cut = d - lo;
        if lo > 0 && b_cut < b.len() && a[lo - 1] == b[b_cut] {
            b_cut += 1;
        }
        (lo, b_cut)
    }
}

impl MergeKernel {
    /// Block `blk`'s staged ranges, read as phase 0's lanes read them;
    /// `None` for bounds out of order or out of range, or more staged
    /// elements than the launch sized shared memory for.
    fn staged<'a>(&self, blk: usize, mem: &BlockMem<'a>) -> Option<Staged<'a>> {
        let (a_bounds, b_bounds) = (mem.words(&self.a_bounds), mem.words(&self.b_bounds));
        let (&[a_start, a_end], &[b_start, b_next]) =
            (a_bounds.get(blk..blk + 2)?, b_bounds.get(blk..blk + 2)?)
        else {
            return None;
        };
        let a_len = a_end.checked_sub(a_start)? as usize;
        let b_end = b_next.checked_add(1)?.min(self.n as u32).max(b_start);
        let b_len = (b_end - b_start) as usize;
        if a_len + b_len > self.cfg.shared_words_needed() {
            return None;
        }
        let bd = mem.block_dim() as usize;
        let ipp = self.cfg.items_per_partition;
        Some(Staged {
            a_start,
            b_start,
            a: mem
                .words(&self.a)
                .get(a_start as usize..a_start as usize + a_len)?,
            b: mem
                .words(&self.b)
                .get(b_start as usize..b_start as usize + b_len)?,
            b_raw: b_len.min(bd * ipp),
            ipp,
            bd,
        })
    }

    /// What block `blk`'s threads store, computed on the host: per
    /// partition (thread) its matches' docIDs, A and B positions appended
    /// to `docids`, `a_idx` and `b_idx`, and its match count to `counts`.
    /// Phase 1's cuts are found by the same diagonal searches over the
    /// same staged ranges, phase 2's merge walks them the same way. `false`
    /// for a block no valid partition produces, on which the lanes must
    /// run: see [`MergeKernel::staged`], or a store out of bounds.
    fn merge_natively(
        &self,
        blk: usize,
        mem: &BlockMem<'_>,
        [docids, a_idx, b_idx, counts]: &mut [Vec<u32>; 4],
    ) -> bool {
        let Some(staged) = self.staged(blk, mem) else {
            return false;
        };
        let (a, b) = (staged.a, staged.b);
        let bd = staged.bd;
        let cap = self.cfg.partition_capacity();
        let first = blk * bd;
        let (mut a_lo, mut b_lo) = staged.cut(0);
        for tid in 0..bd {
            let (a_hi, b_next) = staged.cut(tid + 1);
            let (mut ai, mut bi, b_hi) = (a_lo, b_lo, b_next.max(b_lo));
            let before = docids.len();
            while ai < a_hi && bi < b_hi {
                let (av, bv) = (a[ai], b[bi]);
                if av == bv {
                    docids.push(av);
                    a_idx.push(staged.a_start + ai as u32);
                    b_idx.push(staged.b_start + bi as u32);
                    ai += 1;
                    bi += 1;
                } else if av < bv {
                    ai += 1;
                } else {
                    bi += 1;
                }
            }
            let out = docids.len() - before;
            let end = (first + tid) * cap + out;
            if self.temps().iter().any(|temp| end > temp.len()) {
                return false;
            }
            counts.push(out as u32);
            (a_lo, b_lo) = (a_hi, b_next);
        }
        first + bd <= self.counts.len()
    }

    fn temps(&self) -> [&DeviceBuffer<u32>; 3] {
        [&self.temp_docid, &self.temp_aidx, &self.temp_bidx]
    }
}

#[derive(Default)]
struct MergeState {
    // Block-range info computed in phase 0 (register-resident in a real
    // kernel).
    a_start: u32,
    b_start: u32,
    a_len: u32,
    b_len: u32,
}

impl Kernel for MergeKernel {
    fn name(&self) -> &'static str {
        "mergepath.merge"
    }

    type State = MergeState;

    fn phases(&self) -> usize {
        3
    }

    fn shared_mem_words(&self, block_dim: u32) -> usize {
        self.cfg.shared_words_needed() + 2 * (block_dim as usize + 1)
    }

    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        Some(self)
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, s: &mut MergeState) {
        let bd = t.block_dim as usize;
        let blk = t.block_idx as usize;
        if blk >= self.num_blocks {
            return;
        }
        let ipp = self.cfg.items_per_partition;
        let cuts_base = self.cfg.shared_words_needed();

        if phase == 0 {
            // Every thread reads the block's range bounds (broadcast loads),
            // then the block cooperatively stages A and B.
            let a_start = t.ld(&self.a_bounds, blk);
            let a_end = t.ld(&self.a_bounds, blk + 1);
            let b_start = t.ld(&self.b_bounds, blk);
            // Stage one extra B element: a thread-level boundary adjusted
            // for an equal pair may reach one past the block's raw bound.
            let b_end = (t.ld(&self.b_bounds, blk + 1) + 1)
                .min(self.n as u32)
                .max(b_start);
            s.a_start = a_start;
            s.b_start = b_start;
            s.a_len = a_end - a_start;
            s.b_len = b_end - b_start;
            let a_len = s.a_len as usize;
            let b_len = s.b_len as usize;
            let tid = t.thread_idx as usize;
            // Strided, coalesced cooperative loads.
            let mut i = tid;
            while t.branch(i < a_len) {
                let v = t.ld(&self.a, a_start as usize + i);
                t.st_shared(i, v);
                i += bd;
            }
            let mut j = tid;
            while t.branch(j < b_len) {
                let v = t.ld(&self.b, b_start as usize + j);
                t.st_shared(a_len + j, v);
                j += bd;
            }
            return;
        }

        let a_len = s.a_len as usize;
        // The raw block B range (without the +1 slack) bounds the diagonal
        // search; the slack element is only readable by adjusted cuts.
        let b_raw = {
            // Recover the unslacked length: the diagonal space covers
            // exactly the elements this block owns.
            let total = bd * ipp;
            (s.b_len as usize).min(total)
        };

        if phase == 1 {
            // Thread-level diagonal binary search, entirely in shared
            // memory. Thread tid finds the cut for diagonal tid * ipp.
            let tid = t.thread_idx as usize;
            let d = (tid * ipp).min(a_len + b_raw);
            let mut lo = d.saturating_sub(b_raw);
            let mut hi = d.min(a_len);
            while t.branch(lo < hi) {
                let mid = lo + (hi - lo) / 2;
                let bj = d - mid - 1;
                let av = t.ld_shared(mid);
                let bv = if t.branch(bj < b_raw) {
                    t.ld_shared(a_len + bj)
                } else {
                    u32::MAX
                };
                t.alu(2);
                if t.branch(av <= bv) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let a_cut = lo;
            let mut b_cut = d - lo;
            // Set-intersection boundary adjustment (local).
            if t.branch(a_cut > 0 && b_cut < s.b_len as usize) {
                let last_a = t.ld_shared(a_cut - 1);
                let first_b = t.ld_shared(a_len + b_cut);
                if t.branch(last_a == first_b) {
                    b_cut += 1;
                }
            }
            t.st_shared(cuts_base + tid, a_cut as u32);
            t.st_shared(cuts_base + bd + 1 + tid, b_cut as u32);
            if t.branch(tid == bd - 1) {
                // Sentinel cut: the end of the block's staged data.
                t.st_shared(cuts_base + bd, a_len as u32);
                t.st_shared(cuts_base + bd + 1 + bd, s.b_len);
            }
            return;
        }

        // Phase 2: serial intersection of this thread's partition.
        let tid = t.thread_idx as usize;
        let pi = blk * bd + tid;
        let a_lo = t.ld_shared(cuts_base + tid) as usize;
        let a_hi = t.ld_shared(cuts_base + tid + 1) as usize;
        let b_lo = t.ld_shared(cuts_base + bd + 1 + tid) as usize;
        let b_hi = (t.ld_shared(cuts_base + bd + 1 + tid + 1) as usize).max(b_lo);
        let cap = self.cfg.partition_capacity();
        let slab = pi * cap;

        let mut ai = a_lo;
        let mut bi = b_lo;
        let mut out = 0usize;
        while t.branch(ai < a_hi && bi < b_hi) {
            let av = t.ld_shared(ai);
            let bv = t.ld_shared(a_len + bi);
            t.alu(2);
            if t.branch(av == bv) {
                t.st(&self.temp_docid, slab + out, av);
                t.st(&self.temp_aidx, slab + out, s.a_start + ai as u32);
                t.st(&self.temp_bidx, slab + out, s.b_start + bi as u32);
                out += 1;
                ai += 1;
                bi += 1;
            } else if t.branch(av < bv) {
                ai += 1;
            } else {
                bi += 1;
            }
        }
        t.st(&self.counts, pi, out as u32);
    }

    /// Each partition's slab in each array, partitions in thread order,
    /// then the counts: the arrays are distinct buffers and, per array,
    /// the stores keep the lanes' order, so the pool ends as theirs does.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let blk = block as usize;
        if blk >= self.num_blocks {
            return true; // the lanes return at once
        }
        native::with_scratch(|scratch| {
            if !self.merge_natively(blk, mem, scratch) {
                return false;
            }
            let [docids, a_idx, b_idx, counts] = &*scratch;
            let first = blk * mem.block_dim() as usize;
            let cap = self.cfg.partition_capacity();
            for (temp, words) in self.temps().into_iter().zip([docids, a_idx, b_idx]) {
                let mut at = 0;
                for (tid, &out) in counts.iter().enumerate() {
                    let out = out as usize;
                    mem.st_run(temp, (first + tid) * cap, &words[at..at + out]);
                    at += out;
                }
            }
            mem.st_run(&self.counts, first, counts);
            true
        })
    }
}

/// No lane reads a shared word another warp writes in the same phase:
/// phase 0 stages A and B, phase 1 reads them and writes the cuts, phase 2
/// reads both.
impl BarrierImages for MergeKernel {
    /// Phase 1's image: A's and B's staged ranges. Phase 2's: those and
    /// every thread's cut, from the twin's own diagonal search.
    fn image(&self, block: u32, phase: usize, mem: &BlockMem<'_>, shared: &mut [u32]) {
        let staged = ((block as usize) < self.num_blocks).then(|| {
            self.staged(block as usize, mem)
                .expect("an image is asked for only for a block the twin ran")
        });
        let Some(staged) = staged else {
            shared.fill(0); // the lanes return at once
            return;
        };
        let (data, cuts) = shared.split_at_mut(self.cfg.shared_words_needed());
        let (a, rest) = data.split_at_mut(staged.a.len());
        let (b, unused) = rest.split_at_mut(staged.b.len());
        a.copy_from_slice(staged.a);
        b.copy_from_slice(staged.b);
        unused.fill(0);
        if phase == 1 {
            cuts.fill(0);
            return;
        }
        let (a_cuts, b_cuts) = cuts.split_at_mut(staged.bd + 1);
        for (tid, (a_cut, b_cut)) in a_cuts.iter_mut().zip(b_cuts).enumerate() {
            let (a, b) = staged.cut(tid);
            (*a_cut, *b_cut) = (a as u32, b as u32);
        }
    }
}

/// Copies each partition's matches to its final, scan-assigned position.
struct CompactKernel {
    temp_docid: DeviceBuffer<u32>,
    temp_aidx: DeviceBuffer<u32>,
    temp_bidx: DeviceBuffer<u32>,
    counts: DeviceBuffer<u32>,
    offsets: DeviceBuffer<u32>,
    out_docid: DeviceBuffer<u32>,
    out_aidx: DeviceBuffer<u32>,
    out_bidx: DeviceBuffer<u32>,
    num_partitions: usize,
    cap: usize,
}

impl CompactKernel {
    fn temps(&self) -> [&DeviceBuffer<u32>; 3] {
        [&self.temp_docid, &self.temp_aidx, &self.temp_bidx]
    }

    fn outs(&self) -> [&DeviceBuffer<u32>; 3] {
        [&self.out_docid, &self.out_aidx, &self.out_bidx]
    }
}

impl Kernel for CompactKernel {
    fn name(&self) -> &'static str {
        "mergepath.compact"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let pi = t.global_thread_idx();
        if !t.branch(pi < self.num_partitions) {
            return;
        }
        let count = t.ld(&self.counts, pi) as usize;
        let dst = t.ld(&self.offsets, pi) as usize;
        let slab = pi * self.cap;
        let mut k = 0usize;
        while t.branch(k < count) {
            let d = t.ld(&self.temp_docid, slab + k);
            let a = t.ld(&self.temp_aidx, slab + k);
            let b = t.ld(&self.temp_bidx, slab + k);
            t.st(&self.out_docid, dst + k, d);
            t.st(&self.out_aidx, dst + k, a);
            t.st(&self.out_bidx, dst + k, b);
            k += 1;
        }
    }

    /// Each partition's slab copied to its place with one run per array,
    /// partitions in thread order (the output arrays are distinct
    /// buffers). Declines, before storing anything, a block any of whose
    /// lanes would load or store out of bounds.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let bd = mem.block_dim() as usize;
        let first = block as usize * bd;
        let parts = first.min(self.num_partitions)..(first + bd).min(self.num_partitions);
        let (Some(counts), Some(offsets)) = (
            mem.words(&self.counts).get(parts.clone()),
            mem.words(&self.offsets).get(parts),
        ) else {
            return false;
        };
        let temps = self.temps().map(|temp| mem.words(temp));
        let slabs = || {
            counts
                .iter()
                .zip(offsets)
                .enumerate()
                .map(|(k, (&count, &dst))| {
                    let slab = (first + k) * self.cap;
                    (slab..slab + count as usize, dst as usize)
                })
        };
        for (slab, dst) in slabs() {
            if temps.iter().any(|temp| slab.end > temp.len())
                || self.outs().iter().any(|out| dst + slab.len() > out.len())
            {
                return false;
            }
        }
        for (temp, out) in temps.into_iter().zip(self.outs()) {
            for (slab, dst) in slabs() {
                mem.st_run(out, dst, &temp[slab]);
            }
        }
        true
    }
}

/// Intersects two decompressed, device-resident sorted docID lists.
///
/// Scratch buffers are freed on both the success and the fault path, so
/// a faulted intersection leaves no device memory behind.
pub fn intersect(
    gpu: &Gpu,
    a: &DeviceBuffer<u32>,
    m: usize,
    b: &DeviceBuffer<u32>,
    n: usize,
    cfg: &MergePathConfig,
) -> Result<DeviceMatches, DeviceError> {
    if m == 0 || n == 0 {
        return DeviceMatches::empty(gpu);
    }
    let bd = cfg.block_dim as usize;
    // Two-level partitioning: the global kernel cuts block-sized diagonals;
    // threads refine within shared memory.
    let ipp_block = cfg.items_per_partition * bd;
    let p_blocks = (m + n).div_ceil(ipp_block);
    let num_bounds = p_blocks + 1;
    // Thread-level partitions (one per thread across all blocks).
    let p = p_blocks * bd;

    let mut scope = Scope::new(gpu);
    let a_bounds = scope.alloc::<u32>(num_bounds)?;
    let b_bounds = scope.alloc::<u32>(num_bounds)?;
    gpu.launch(
        &PartitionKernel {
            a: a.clone(),
            b: b.clone(),
            a_bounds: a_bounds.clone(),
            b_bounds: b_bounds.clone(),
            m,
            n,
            ipp: ipp_block,
            num_bounds,
        },
        LaunchConfig::cover(num_bounds, cfg.block_dim),
    )?;

    let cap = cfg.partition_capacity();
    let temp_docid = scope.alloc::<u32>(p * cap)?;
    let temp_aidx = scope.alloc::<u32>(p * cap)?;
    let temp_bidx = scope.alloc::<u32>(p * cap)?;
    let counts = scope.alloc::<u32>(p)?;
    gpu.launch(
        &MergeKernel {
            a: a.clone(),
            b: b.clone(),
            a_bounds,
            b_bounds,
            temp_docid: temp_docid.clone(),
            temp_aidx: temp_aidx.clone(),
            temp_bidx: temp_bidx.clone(),
            counts: counts.clone(),
            num_blocks: p_blocks,
            n,
            cfg: *cfg,
        },
        LaunchConfig::new(p_blocks as u32, cfg.block_dim),
    )?;

    let (offsets, total) = exclusive_scan(gpu, &counts, p)?;
    let offsets = scope.adopt(offsets);
    let out = DeviceMatches::alloc(&mut scope, total as usize)?;
    if out.len > 0 {
        gpu.launch(
            &CompactKernel {
                temp_docid,
                temp_aidx,
                temp_bidx,
                counts,
                offsets,
                out_docid: out.docids.clone(),
                out_aidx: out.a_idx.clone(),
                out_bidx: out.b_idx.clone(),
                num_partitions: p,
                cap,
            },
            LaunchConfig::cover(p, cfg.block_dim),
        )?;
    }
    Ok(out.keep(&mut scope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::DeviceConfig;
    use griffin_sim_conformance::{self as conformance, Case, Cases, Draw};

    fn host_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    fn check(a: Vec<u32>, b: Vec<u32>) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let cfg = MergePathConfig::for_device(gpu.config());
        let da = gpu.htod(&a).unwrap();
        let db = gpu.htod(&b).unwrap();
        let matches = intersect(&gpu, &da, a.len(), &db, b.len(), &cfg).unwrap();
        let got = gpu.dtoh_prefix(&matches.docids, matches.len).unwrap();
        let expect = host_intersect(&a, &b);
        assert_eq!(got, expect);
        // Provenance indices must point at the right elements.
        let a_idx = gpu.dtoh_prefix(&matches.a_idx, matches.len).unwrap();
        let b_idx = gpu.dtoh_prefix(&matches.b_idx, matches.len).unwrap();
        for (k, &d) in got.iter().enumerate() {
            assert_eq!(a[a_idx[k] as usize], d);
            assert_eq!(b[b_idx[k] as usize], d);
        }
    }

    #[test]
    fn paper_fig6_example() {
        // A = (1,3,4,6,7,9,15,25,31), B = (1,3,7,10,18,25,31) ->
        // intersection (1,3,7,25,31).
        check(
            vec![1, 3, 4, 6, 7, 9, 15, 25, 31],
            vec![1, 3, 7, 10, 18, 25, 31],
        );
    }

    #[test]
    fn disjoint_lists() {
        check(
            (0..500).map(|i| i * 2).collect(),
            (0..500).map(|i| i * 2 + 1).collect(),
        );
    }

    #[test]
    fn identical_lists() {
        let v: Vec<u32> = (0..1000).map(|i| i * 3 + 1).collect();
        check(v.clone(), v);
    }

    #[test]
    fn matches_on_partition_boundaries() {
        // Dense overlap so equal pairs land on many diagonal boundaries.
        let a: Vec<u32> = (0..4096).collect();
        let b: Vec<u32> = (0..4096).filter(|i| i % 3 != 1).collect();
        check(a, b);
    }

    #[test]
    fn very_different_lengths() {
        let a: Vec<u32> = (0..32).map(|i| i * 997).collect();
        let b: Vec<u32> = (0..20_000).collect();
        check(a, b);
    }

    #[test]
    fn empty_sides() {
        check(vec![], vec![1, 2, 3]);
        check(vec![1, 2, 3], vec![]);
    }

    #[test]
    fn pseudo_random_lists() {
        let mut state = 7u64;
        let mut next = |max: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % max
        };
        for trial in 0..5u32 {
            let mut a: Vec<u32> = (0..2000 + trial * 100).map(|_| next(50_000)).collect();
            let mut b: Vec<u32> = (0..1500).map(|_| next(50_000)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            check(a, b);
        }
    }

    #[test]
    fn temp_memory_is_released() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let cfg = MergePathConfig::for_device(gpu.config());
        let a: Vec<u32> = (0..3000).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..3000).map(|i| i * 3).collect();
        let da = gpu.htod(&a).unwrap();
        let db = gpu.htod(&b).unwrap();
        let before = gpu.mem_in_use();
        let matches = intersect(&gpu, &da, a.len(), &db, b.len(), &cfg).unwrap();
        let expect_extra = matches.docids.size_bytes() * 3;
        assert_eq!(gpu.mem_in_use(), before + expect_extra);
    }

    /// `n` distinct sorted docIDs below `universe`.
    fn set(draw: &mut Draw, n: usize, universe: u64) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).map(|_| draw.below(universe) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Equal pairs on partition boundaries, very different lengths,
    /// identical and disjoint lists, drawn ones, and two that span five or
    /// more K20 blocks (4 096 staged elements each) with matches in every
    /// partition (thread), so that a wrong cut in a barrier image moves the
    /// walk of the sampled warp that reads it.
    fn pairs() -> Cases<(Vec<u32>, Vec<u32>)> {
        let span = |n: u32, step: u32, first: u32| (0..n).map(|i| i * step + first).collect();
        let fig6 = (
            vec![1, 3, 4, 6, 7, 9, 15, 25, 31],
            vec![1, 3, 7, 10, 18, 25, 31],
        );
        let mut cases: Cases<_> = [
            ("paper Fig. 6", fig6),
            (
                "equal pairs on boundaries",
                (span(4096, 1, 0), (0..4096).filter(|i| i % 3 != 1).collect()),
            ),
            (
                "very different lengths",
                (span(32, 997, 0), span(20_000, 1, 0)),
            ),
            (
                "very different lengths, swapped",
                (span(20_000, 1, 0), span(32, 997, 0)),
            ),
            ("identical", (span(9_000, 3, 1), span(9_000, 3, 1))),
            ("disjoint", (span(5_000, 2, 1), span(5_000, 2, 0))),
            (
                "multiples of 2 and 3",
                (span(12_000, 2, 0), span(8_000, 3, 0)),
            ),
        ]
        .map(|(what, pair)| (what.to_string(), pair))
        .into();
        let mut draw = Draw::new(0x3E2E);
        for trial in 0..5 {
            let (universe, m, n) = match trial {
                // Half the universe each, over five or more K20 blocks.
                4 => {
                    let universe = 24_000 + draw.below(8_000);
                    (universe, universe / 2, universe / 2)
                }
                _ => (
                    10_000 + draw.below(60_000),
                    draw.below(12_000),
                    draw.below(12_000),
                ),
            };
            let a = set(&mut draw, m.max(1) as usize, universe);
            let b = set(&mut draw, n.max(1) as usize, universe);
            cases.push((format!("drawn {trial}"), (a, b)));
        }
        cases
    }

    /// The merge launch of `intersect(a, b)`, its partition run.
    fn merge(gpu: &Gpu, (a, b): &(Vec<u32>, Vec<u32>)) -> Case<MergeKernel> {
        let cfg = MergePathConfig::for_device(gpu.config());
        let (m, n, bd) = (a.len(), b.len(), cfg.block_dim as usize);
        let ipp = cfg.items_per_partition * bd;
        let blocks = (m + n).div_ceil(ipp);
        let (a, b) = (gpu.htod(a).unwrap(), gpu.htod(b).unwrap());
        let [a_bounds, b_bounds] = [(); 2].map(|()| gpu.alloc(blocks + 1).unwrap());
        let partition = PartitionKernel {
            a: a.clone(),
            b: b.clone(),
            a_bounds: a_bounds.clone(),
            b_bounds: b_bounds.clone(),
            m,
            n,
            ipp,
            num_bounds: blocks + 1,
        };
        let lc = LaunchConfig::cover(blocks + 1, cfg.block_dim);
        gpu.launch(&partition, lc).unwrap();
        let slots = blocks * bd * cfg.partition_capacity();
        let temps = [(); 3].map(|()| gpu.alloc(slots).unwrap());
        let counts = gpu.alloc(blocks * bd).unwrap();
        let mut outputs = temps.to_vec();
        outputs.push(counts.clone());
        let [temp_docid, temp_aidx, temp_bidx] = temps;
        let kernel = MergeKernel {
            a,
            b,
            a_bounds,
            b_bounds,
            temp_docid,
            temp_aidx,
            temp_bidx,
            counts,
            num_blocks: blocks,
            n,
            cfg,
        };
        let lc = LaunchConfig::new(blocks as u32, cfg.block_dim);
        (kernel, lc, outputs)
    }

    /// Mutations that fail it: the twin's cut skipping the equal-pair
    /// adjustment; the image without the cuts, or with thread 32's cut one
    /// off; a lane of a block the twin ran logging its store too
    /// (`stores_applied` doubles); every warp of a traced block the twin
    /// ran still running lane by lane.
    #[test]
    fn merge_conforms() {
        let tally = conformance::check(&pairs(), merge);
        assert!(tally.twin_blocks > 0 && tally.images > 0, "{tally:?}");
    }

    /// The compaction after the merge and the scan, of the pairs that
    /// match somewhere. Mutation that fails it: the twin copying from one
    /// slot past each partition's slab.
    #[test]
    fn compact_conforms() {
        let mut pairs = pairs();
        pairs.retain(|(_, (a, b))| !host_intersect(a, b).is_empty());
        let tally = conformance::check(&pairs, |gpu, pair| {
            let (kernel, launch, _) = merge(gpu, pair);
            gpu.launch(&kernel, launch).unwrap();
            let p = launch.total_threads() as usize;
            let (offsets, total) = exclusive_scan(gpu, &kernel.counts, p).unwrap();
            let outs = [(); 3].map(|()| gpu.alloc(total as usize).unwrap());
            let [out_docid, out_aidx, out_bidx] = outs.clone();
            let compact = CompactKernel {
                temp_docid: kernel.temp_docid,
                temp_aidx: kernel.temp_aidx,
                temp_bidx: kernel.temp_bidx,
                counts: kernel.counts,
                offsets,
                out_docid,
                out_aidx,
                out_bidx,
                num_partitions: p,
                cap: kernel.cfg.partition_capacity(),
            };
            let lc = LaunchConfig::cover(p, launch.block_dim);
            (compact, lc, outs.into())
        });
        assert!(tally.twin_blocks > 0, "{tally:?}");
    }
}
