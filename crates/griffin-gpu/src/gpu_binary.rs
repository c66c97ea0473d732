//! Parallel binary-search intersection over skip pointers (paper §3.1.2):
//! what `GpuEngine::intersect_step` runs when the two lists' lengths
//! differ widely (128× or more).
//!
//! "Griffin-GPU first does binary search over the skip pointers instead of
//! the long list to identify blocks that may contain the elements in the
//! short list. It then only transfers, decompresses, and processes those
//! blocks."
//!
//! Pipeline (all device-side; the only host synchronizations are the two
//! 4-byte count read-backs that size allocations, as in a CUDA build):
//!
//! 1. **Skip search** — one thread per short-list element binary searches
//!    the skip table and flags its candidate block.
//! 2. **Needed-block compaction** — scan + scatter produce the dense list
//!    of blocks to decompress.
//! 3. **Selective block decode** — [`para_ef`]'s block-local decode, one
//!    warp per needed list block, into a scratch slab.
//! 4. **In-block search** — one thread per short-list element binary
//!    searches its decoded block.
//! 5. **Match compaction** — scan + scatter into the dense result.

use griffin_gpu_sim::{DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, Scope, ThreadCtx};

use crate::mergepath::DeviceMatches;
use crate::para_ef;
use crate::scan::exclusive_scan;
use crate::transfer::DeviceEfList;

const BLOCK_DIM: u32 = 256;
const NO_BLOCK: u32 = u32::MAX;

/// Phase 1: map each short element to its candidate block.
struct SkipSearchKernel {
    short: DeviceBuffer<u32>,
    skip_first: DeviceBuffer<u32>,
    skip_last: DeviceBuffer<u32>,
    elem_block: DeviceBuffer<u32>,
    block_needed: DeviceBuffer<u32>,
    m: usize,
    num_blocks: usize,
}

impl Kernel for SkipSearchKernel {
    fn name(&self) -> &'static str {
        "gpu_binary.skip_search"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.m) {
            return;
        }
        let v = t.ld(&self.short, i);
        // First block with last_docid >= v.
        let mut lo = 0usize;
        let mut hi = self.num_blocks;
        while t.branch(lo < hi) {
            let mid = lo + (hi - lo) / 2;
            let last = t.ld(&self.skip_last, mid);
            t.alu(1);
            if t.branch(last < v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if t.branch(lo < self.num_blocks) {
            let first = t.ld(&self.skip_first, lo);
            if t.branch(v >= first) {
                t.st(&self.elem_block, i, lo as u32);
                // Conflicting stores of the same value: any winner is fine.
                t.st(&self.block_needed, lo, 1);
                return;
            }
        }
        t.st(&self.elem_block, i, NO_BLOCK);
    }
}

/// Phase 2b: scatter needed block ids into their scan-assigned slots.
struct ScatterBlocksKernel {
    block_needed: DeviceBuffer<u32>,
    block_slot: DeviceBuffer<u32>,
    needed_blocks: DeviceBuffer<u32>,
    num_blocks: usize,
}

impl Kernel for ScatterBlocksKernel {
    fn name(&self) -> &'static str {
        "gpu_binary.block_scatter"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let b = t.global_thread_idx();
        if !t.branch(b < self.num_blocks) {
            return;
        }
        let needed = t.ld(&self.block_needed, b) == 1;
        if t.branch(needed) {
            let slot = t.ld(&self.block_slot, b) as usize;
            t.st(&self.needed_blocks, slot, b as u32);
        }
    }
}

/// Phase 4: search each short element in its decoded block.
struct InBlockSearchKernel {
    short: DeviceBuffer<u32>,
    elem_block: DeviceBuffer<u32>,
    block_slot: DeviceBuffer<u32>,
    block_elem_start: DeviceBuffer<u32>,
    scratch: DeviceBuffer<u32>,
    match_flag: DeviceBuffer<u32>,
    match_bidx: DeviceBuffer<u32>,
    m: usize,
    num_blocks: usize,
    len: usize,
    block_len: usize,
}

impl Kernel for InBlockSearchKernel {
    fn name(&self) -> &'static str {
        "gpu_binary.in_block_search"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.m) {
            return;
        }
        let blk = t.ld(&self.elem_block, i);
        if t.branch(blk == NO_BLOCK) {
            t.st(&self.match_flag, i, 0);
            return;
        }
        let blk = blk as usize;
        let slot = t.ld(&self.block_slot, blk) as usize;
        let elem_start = t.ld(&self.block_elem_start, blk) as usize;
        let elem_end = if t.branch(blk + 1 < self.num_blocks) {
            t.ld(&self.block_elem_start, blk + 1) as usize
        } else {
            self.len
        };
        let count = elem_end - elem_start;
        let v = t.ld(&self.short, i);
        let base = slot * self.block_len;
        let mut lo = 0usize;
        let mut hi = count;
        let mut found = false;
        let mut pos = 0usize;
        while t.branch(lo < hi) {
            let mid = lo + (hi - lo) / 2;
            let x = t.ld(&self.scratch, base + mid);
            t.alu(1);
            if t.branch(x == v) {
                found = true;
                pos = mid;
                break;
            } else if t.branch(x < v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if t.branch(found) {
            t.st(&self.match_flag, i, 1);
            t.st(&self.match_bidx, i, (elem_start + pos) as u32);
        } else {
            t.st(&self.match_flag, i, 0);
        }
    }
}

/// Phase 5: compact flagged matches into the dense result.
struct MatchCompactKernel {
    short: DeviceBuffer<u32>,
    match_flag: DeviceBuffer<u32>,
    match_bidx: DeviceBuffer<u32>,
    offsets: DeviceBuffer<u32>,
    out_docid: DeviceBuffer<u32>,
    out_aidx: DeviceBuffer<u32>,
    out_bidx: DeviceBuffer<u32>,
    m: usize,
}

impl Kernel for MatchCompactKernel {
    fn name(&self) -> &'static str {
        "gpu_binary.match_compact"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.m) {
            return;
        }
        let matched = t.ld(&self.match_flag, i) == 1;
        if t.branch(matched) {
            let dst = t.ld(&self.offsets, i) as usize;
            let v = t.ld(&self.short, i);
            let b = t.ld(&self.match_bidx, i);
            t.st(&self.out_docid, dst, v);
            t.st(&self.out_aidx, dst, i as u32);
            t.st(&self.out_bidx, dst, b);
        }
    }
}

/// The *classic* parallel binary search of prior GPU IR systems (the
/// baseline the paper's §2.3 critiques): one thread per short element
/// binary searches the fully decompressed long list in global memory —
/// log2(N) divergent, uncoalesced probes per thread.
struct FullBinaryKernel {
    short: DeviceBuffer<u32>,
    long: DeviceBuffer<u32>,
    match_flag: DeviceBuffer<u32>,
    match_bidx: DeviceBuffer<u32>,
    m: usize,
    n: usize,
}

impl Kernel for FullBinaryKernel {
    fn name(&self) -> &'static str {
        "gpu_binary.full_binary"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.m) {
            return;
        }
        let v = t.ld(&self.short, i);
        let mut lo = 0usize;
        let mut hi = self.n;
        let mut found = false;
        let mut pos = 0usize;
        while t.branch(lo < hi) {
            let mid = lo + (hi - lo) / 2;
            let x = t.ld(&self.long, mid);
            t.alu(1);
            if t.branch(x == v) {
                found = true;
                pos = mid;
                break;
            } else if t.branch(x < v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if t.branch(found) {
            t.st(&self.match_flag, i, 1);
            t.st(&self.match_bidx, i, pos as u32);
        } else {
            t.st(&self.match_flag, i, 0);
        }
    }
}

/// Intersects a device-resident decompressed short list against a
/// device-resident decompressed long list by per-element binary search —
/// the prior-work baseline of Fig. 13's "GPU binary" series.
pub fn intersect_decompressed(
    gpu: &Gpu,
    short: &DeviceBuffer<u32>,
    m: usize,
    long: &DeviceBuffer<u32>,
    n: usize,
) -> Result<DeviceMatches, DeviceError> {
    if m == 0 || n == 0 {
        return DeviceMatches::empty(gpu);
    }
    let mut scope = Scope::new(gpu);
    let match_flag = scope.alloc::<u32>(m)?;
    let match_bidx = scope.alloc::<u32>(m)?;
    gpu.launch(
        &FullBinaryKernel {
            short: short.clone(),
            long: long.clone(),
            match_flag: match_flag.clone(),
            match_bidx: match_bidx.clone(),
            m,
            n,
        },
        LaunchConfig::cover(m, BLOCK_DIM),
    )?;
    compact_matches(gpu, &mut scope, short, m, match_flag, match_bidx)
}

/// Phase 5 of both drivers: scans the match flags and scatters the flagged
/// elements into the dense result, which leaves `scope` for the caller.
fn compact_matches(
    gpu: &Gpu,
    scope: &mut Scope<'_>,
    short: &DeviceBuffer<u32>,
    m: usize,
    match_flag: DeviceBuffer<u32>,
    match_bidx: DeviceBuffer<u32>,
) -> Result<DeviceMatches, DeviceError> {
    let (offsets, total) = exclusive_scan(gpu, &match_flag, m)?;
    let offsets = scope.adopt(offsets);
    let out = DeviceMatches::alloc(scope, total as usize)?;
    if out.len > 0 {
        gpu.launch(
            &MatchCompactKernel {
                short: short.clone(),
                match_flag,
                match_bidx,
                offsets,
                out_docid: out.docids.clone(),
                out_aidx: out.a_idx.clone(),
                out_bidx: out.b_idx.clone(),
                m,
            },
            LaunchConfig::cover(m, BLOCK_DIM),
        )?;
    }
    Ok(out.keep(scope))
}

/// Report of one parallel-binary intersection: the matches plus how many
/// blocks were decompressed (the quantity the ratio analysis in paper §3.2
/// is about).
pub struct GpuBinaryOutput {
    pub matches: DeviceMatches,
    pub blocks_decoded: usize,
}

/// Intersects a decompressed short list (`short`, `m` elements, device
/// resident) with a *compressed* long list, decompressing only the blocks
/// the skip search identifies. `b_idx` of the result are global element
/// indices into the long list.
pub fn intersect(
    gpu: &Gpu,
    short: &DeviceBuffer<u32>,
    m: usize,
    long: &DeviceEfList,
    block_len: usize,
) -> Result<GpuBinaryOutput, DeviceError> {
    if m == 0 || long.len == 0 {
        return Ok(GpuBinaryOutput {
            matches: DeviceMatches::empty(gpu)?,
            blocks_decoded: 0,
        });
    }
    let nb = long.num_blocks;
    let mut scope = Scope::new(gpu);

    // 1. Skip search.
    let elem_block = scope.alloc::<u32>(m)?;
    let block_needed = scope.alloc::<u32>(nb)?;
    gpu.launch(
        &SkipSearchKernel {
            short: short.clone(),
            skip_first: long.skip_first.clone(),
            skip_last: long.skip_last.clone(),
            elem_block: elem_block.clone(),
            block_needed: block_needed.clone(),
            m,
            num_blocks: nb,
        },
        LaunchConfig::cover(m, BLOCK_DIM),
    )?;

    // 2. Compact the needed blocks.
    let (block_slot, needed_count) = exclusive_scan(gpu, &block_needed, nb)?;
    let block_slot = scope.adopt(block_slot);
    let needed_count = needed_count as usize;
    let needed_blocks = scope.alloc::<u32>(needed_count.max(1))?;
    if needed_count > 0 {
        gpu.launch(
            &ScatterBlocksKernel {
                block_needed,
                block_slot: block_slot.clone(),
                needed_blocks: needed_blocks.clone(),
                num_blocks: nb,
            },
            LaunchConfig::cover(nb, BLOCK_DIM),
        )?;
    }

    // 3. Selective decode.
    let scratch = scope.alloc::<u32>((needed_count * block_len).max(1))?;
    para_ef::decompress_selected(
        gpu,
        long,
        para_ef::Selected {
            blocks: needed_blocks,
            count: needed_count,
            stride: block_len,
        },
        &scratch,
    )?;

    // 4. In-block search.
    let match_flag = scope.alloc::<u32>(m)?;
    let match_bidx = scope.alloc::<u32>(m)?;
    gpu.launch(
        &InBlockSearchKernel {
            short: short.clone(),
            elem_block,
            block_slot,
            block_elem_start: long.block_elem_start.clone(),
            scratch,
            match_flag: match_flag.clone(),
            match_bidx: match_bidx.clone(),
            m,
            num_blocks: nb,
            len: long.len,
            block_len,
        },
        LaunchConfig::cover(m, BLOCK_DIM),
    )?;

    // 5. Compact matches.
    Ok(GpuBinaryOutput {
        matches: compact_matches(gpu, &mut scope, short, m, match_flag, match_bidx)?,
        blocks_decoded: needed_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
    use griffin_gpu_sim::DeviceConfig;

    fn host_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        b.iter()
            .filter(|&&v| a.binary_search(&v).is_ok())
            .copied()
            .collect::<Vec<_>>()
            .into_iter()
            .collect()
    }

    fn check(short: Vec<u32>, long: Vec<u32>) -> usize {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let compressed = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let dlong = DeviceEfList::upload(&gpu, &compressed).unwrap();
        let dshort = gpu.htod(&short).unwrap();
        let out = intersect(&gpu, &dshort, short.len(), &dlong, DEFAULT_BLOCK_LEN).unwrap();
        let got = gpu
            .dtoh_prefix(&out.matches.docids, out.matches.len)
            .unwrap();
        let expect = host_intersect(&long, &short);
        assert_eq!(got, expect);
        // b_idx must index into the long list correctly.
        let b_idx = gpu
            .dtoh_prefix(&out.matches.b_idx, out.matches.len)
            .unwrap();
        for (k, &d) in got.iter().enumerate() {
            assert_eq!(long[b_idx[k] as usize], d);
        }
        out.blocks_decoded
    }

    #[test]
    fn sparse_short_list_skips_most_blocks() {
        let short: Vec<u32> = (0..40u32).map(|i| i * 5000 + 1).collect();
        let long: Vec<u32> = (0..50_000u32).collect();
        let decoded = check(short, long);
        let total_blocks = 50_000usize.div_ceil(DEFAULT_BLOCK_LEN);
        assert!(
            decoded <= 41 && decoded < total_blocks / 4,
            "decoded {decoded} of {total_blocks} blocks"
        );
    }

    #[test]
    fn no_matches() {
        let short: Vec<u32> = (0..20u32).map(|i| i * 2 + 1).collect();
        let long: Vec<u32> = (0..5_000u32).map(|i| i * 2).collect();
        check(short, long);
    }

    #[test]
    fn all_match() {
        let long: Vec<u32> = (0..3_000u32).map(|i| i * 3).collect();
        let short: Vec<u32> = long.iter().step_by(10).copied().collect();
        check(short, long);
    }

    #[test]
    fn short_elements_beyond_long_list() {
        let short = vec![10u32, 100, 9_999_999];
        let long: Vec<u32> = (0..1_000u32).map(|i| i * 10).collect();
        check(short, long);
    }

    #[test]
    fn elements_in_inter_block_gaps() {
        // Long list with large jumps at block boundaries.
        let mut long = Vec::new();
        for blk in 0..10u32 {
            for j in 0..128u32 {
                long.push(blk * 1_000_000 + j);
            }
        }
        let short = vec![500_000u32, 1_000_050, 2_500_000, 9_000_127];
        check(short, long);
    }

    #[test]
    fn full_binary_matches_skip_variant() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let long: Vec<u32> = (0..20_000u32).map(|i| i * 3).collect();
        let short: Vec<u32> = (0..900u32).map(|i| i * 61 + 3).collect();
        let compressed = BlockedList::compress(&long, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let dlong_c = DeviceEfList::upload(&gpu, &compressed).unwrap();
        let dlong = gpu.htod(&long).unwrap();
        let dshort = gpu.htod(&short).unwrap();

        let skip = intersect(&gpu, &dshort, short.len(), &dlong_c, DEFAULT_BLOCK_LEN).unwrap();
        let full = intersect_decompressed(&gpu, &dshort, short.len(), &dlong, long.len()).unwrap();
        let a = gpu
            .dtoh_prefix(&skip.matches.docids, skip.matches.len)
            .unwrap();
        let b = gpu.dtoh_prefix(&full.docids, full.len).unwrap();
        assert_eq!(a, b);
        let bi_a = gpu
            .dtoh_prefix(&skip.matches.b_idx, skip.matches.len)
            .unwrap();
        let bi_b = gpu.dtoh_prefix(&full.b_idx, full.len).unwrap();
        assert_eq!(bi_a, bi_b);
    }

    #[test]
    fn single_block_long_list() {
        let long: Vec<u32> = (0..100u32).map(|i| i * 2).collect();
        let short = vec![0u32, 50, 99, 198];
        check(short, long);
    }
}
