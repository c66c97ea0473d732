//! Device-wide exclusive prefix sum.
//!
//! The classic multi-kernel scan: each block scans a tile in shared memory
//! (Hillis–Steele, ping-pong buffers, one barrier per step), block sums are
//! scanned recursively, then a uniform-add kernel folds the scanned sums
//! back in. Para-EF's "synchronization point" (paper Algorithm 1, line 3)
//! is exactly this scan.
//!
//! The tile scan has a native twin (`Kernel::run_block_native`) and
//! supplies its shared memory at each barrier (`Kernel::barrier_images`),
//! both held to the lanes by the tests' conformance cases. The uniform add
//! runs lane by lane: a twin for it bought no host time outside noise.

use griffin_gpu_sim::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, Scope, ThreadCtx,
};

use crate::native;

/// Tile width == block_dim; one element per thread.
const BLOCK_DIM: u32 = 256;
const TILE: usize = BLOCK_DIM as usize;

/// Block-local exclusive scan of a tile, emitting per-block totals.
struct TileScanKernel {
    src: DeviceBuffer<u32>,
    dst: DeviceBuffer<u32>,
    block_sums: DeviceBuffer<u32>,
    n: usize,
}

#[derive(Default)]
struct TileState {
    value: u32,
}

impl Kernel for TileScanKernel {
    fn name(&self) -> &'static str {
        "scan.tile_scan"
    }

    type State = TileState;

    fn phases(&self) -> usize {
        // load, log2(BLOCK_DIM) scan steps, write-out
        2 + BLOCK_DIM.ilog2() as usize
    }

    fn shared_mem_words(&self, block_dim: u32) -> usize {
        2 * block_dim as usize // ping-pong buffers
    }

    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        Some(self)
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, s: &mut TileState) {
        let tid = t.thread_idx as usize;
        let gid = t.global_thread_idx();
        let bd = t.block_dim as usize;
        let steps = BLOCK_DIM.ilog2() as usize;

        if phase == 0 {
            // Load one element (0 beyond the end) into ping buffer.
            let v = if t.branch(gid < self.n) {
                t.ld(&self.src, gid)
            } else {
                0
            };
            s.value = v;
            t.st_shared(tid, v);
            return;
        }
        if phase <= steps {
            // Hillis–Steele inclusive step: read from previous buffer,
            // write to the other.
            let step = phase - 1;
            let offset = 1usize << step;
            let from = (step % 2) * bd;
            let to = ((step + 1) % 2) * bd;
            let mut v = t.ld_shared(from + tid);
            if t.branch(tid >= offset) {
                v = v.wrapping_add(t.ld_shared(from + tid - offset));
                t.alu(1);
            }
            t.st_shared(to + tid, v);
            return;
        }
        // Write-out phase: convert inclusive to exclusive.
        let from = (steps % 2) * bd;
        let inclusive = t.ld_shared(from + tid);
        let exclusive = inclusive.wrapping_sub(s.value);
        t.alu(1);
        if t.branch(gid < self.n) {
            t.st(&self.dst, gid, exclusive);
        }
        if t.branch(tid == bd - 1) {
            t.st(&self.block_sums, t.block_idx as usize, inclusive);
        }
    }

    /// The tile's exclusive scan as one run, then its total. The lanes add
    /// in another order, but wrapping addition is associative, so the words
    /// are theirs. Declines a block of another width than the phases are
    /// sized for, or one a lane would load or store out of bounds in.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let bd = mem.block_dim() as usize;
        let first = block as usize * bd;
        let rows = first.min(self.n)..(first + bd).min(self.n);
        let Some(src) = mem.words(&self.src).get(rows.clone()) else {
            return false;
        };
        if bd != TILE || rows.end > self.dst.len() || block as usize >= self.block_sums.len() {
            return false;
        }
        native::with_scratch(|[dst, ..]| {
            let mut total = 0u32;
            dst.extend(src.iter().map(|&v| {
                let before = total;
                total = total.wrapping_add(v);
                before
            }));
            mem.st_run(&self.dst, rows.start, dst);
            mem.st_run(&self.block_sums, block as usize, &[total]);
        });
        true
    }
}

/// No lane reads a shared word another warp writes in the same phase:
/// each scan step reads one ping-pong buffer and writes the other.
impl BarrierImages for TileScanKernel {
    /// Phase `q` writes buffer `q % 2` with each element's sum over the
    /// window of `2^q` elements ending at it (fewer at the tile's start),
    /// so before phase `p` one buffer holds the windows of `2^(p-1)` and
    /// the other those of `2^(p-2)` (zeros before phase 2): each window a
    /// difference of two of the tile's prefix sums, in wrapping arithmetic.
    fn image(&self, block: u32, phase: usize, mem: &BlockMem<'_>, shared: &mut [u32]) {
        let first = block as usize * TILE;
        let src = &mem.words(&self.src)[first.min(self.n)..(first + TILE).min(self.n)];
        // Inclusive sums of the tile, whose elements past `n` are zero.
        let mut prefix = [0u32; TILE + 1];
        let mut sum = 0u32;
        for (p, &v) in prefix[1..].iter_mut().zip(src) {
            sum = sum.wrapping_add(v);
            *p = sum;
        }
        prefix[1 + src.len()..].fill(sum);
        let (buf0, buf1) = shared.split_at_mut(TILE);
        let (last, other) = if phase % 2 == 1 {
            (buf0, buf1)
        } else {
            (buf1, buf0)
        };
        windows(&prefix, last, 1 << (phase - 1));
        match phase {
            1 => other.fill(0),
            _ => windows(&prefix, other, 1 << (phase - 2)),
        }
    }
}

/// `out[tid]`: the sum of the `width` elements ending at `tid` (fewer at
/// the tile's start), from the tile's inclusive sums after a leading zero.
fn windows(prefix: &[u32; TILE + 1], out: &mut [u32], width: usize) {
    let (head, tail) = out.split_at_mut(width - 1);
    head.copy_from_slice(&prefix[1..width]);
    for ((word, &hi), &lo) in tail.iter_mut().zip(&prefix[width..]).zip(prefix) {
        *word = hi.wrapping_sub(lo);
    }
}

/// Adds the scanned block sums back into each tile.
struct UniformAddKernel {
    dst: DeviceBuffer<u32>,
    scanned_sums: DeviceBuffer<u32>,
    n: usize,
}

impl Kernel for UniformAddKernel {
    fn name(&self) -> &'static str {
        "scan.uniform_add"
    }

    type State = ();

    fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let gid = t.global_thread_idx();
        if t.branch(gid < self.n) {
            let add = t.ld(&self.scanned_sums, t.block_idx as usize);
            let v = t.ld(&self.dst, gid);
            t.alu(1);
            t.st(&self.dst, gid, v.wrapping_add(add));
        }
    }
}

/// Exclusive scan of `src[..n]` into a fresh buffer. Also returns the total
/// sum (read back with a 4-byte transfer, as a real implementation must to
/// size downstream allocations).
pub fn exclusive_scan(
    gpu: &Gpu,
    src: &DeviceBuffer<u32>,
    n: usize,
) -> Result<(DeviceBuffer<u32>, u32), DeviceError> {
    let mut scope = Scope::new(gpu);
    let dst = scope.alloc::<u32>(n.max(1))?;
    if n == 0 {
        return Ok((scope.keep(dst), 0));
    }
    let num_blocks = n.div_ceil(TILE);
    let block_sums = scope.alloc::<u32>(num_blocks)?;
    gpu.launch(
        &TileScanKernel {
            src: src.clone(),
            dst: dst.clone(),
            block_sums: block_sums.clone(),
            n,
        },
        LaunchConfig::new(num_blocks as u32, BLOCK_DIM),
    )?;
    let total = if num_blocks == 1 {
        gpu.dtoh_prefix(&block_sums, 1)?[0]
    } else {
        // Recursively scan the block sums, then fold them back in.
        let (scanned, total) = exclusive_scan(gpu, &block_sums, num_blocks)?;
        let scanned = scope.adopt(scanned);
        gpu.launch(
            &UniformAddKernel {
                dst: dst.clone(),
                scanned_sums: scanned,
                n,
            },
            LaunchConfig::new(num_blocks as u32, BLOCK_DIM),
        )?;
        total
    };
    Ok((scope.keep(dst), total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::DeviceConfig;
    use griffin_sim_conformance::{check, Cases, Draw};

    fn check_scan(input: Vec<u32>) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let src = gpu.htod(&input).unwrap();
        let (dst, total) = exclusive_scan(&gpu, &src, input.len()).unwrap();
        let got = gpu.dtoh(&dst).unwrap();
        let mut acc = 0u32;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(got[i], acc, "position {i}");
            acc = acc.wrapping_add(v);
        }
        assert_eq!(total, acc, "total");
    }

    #[test]
    fn single_tile() {
        check_scan((1..=100).collect());
    }

    #[test]
    fn exactly_one_block() {
        check_scan(vec![3; 256]);
    }

    #[test]
    fn multi_block() {
        check_scan((0..5000).map(|i| i % 7).collect());
    }

    #[test]
    fn multi_level_recursion() {
        // > 256 * 256 elements forces two recursion levels.
        check_scan((0..70_000).map(|i| (i % 3) as u32).collect());
    }

    #[test]
    fn empty_and_single() {
        check_scan(vec![]);
        check_scan(vec![42]);
    }

    #[test]
    fn scan_charges_time() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let src = gpu.htod(&vec![1u32; 10_000]).unwrap();
        let t0 = gpu.now();
        let _ = exclusive_scan(&gpu, &src, 10_000);
        assert!(gpu.now() > t0);
    }

    /// Drawn words (the sums wrap): one, a tile less one, one and one
    /// more, and several tiles. Mutations that fail it: the twin storing an
    /// inclusive scan; the image one window too wide, or with one word
    /// flipped.
    #[test]
    fn tile_scan_conforms() {
        let mut draw = Draw::new(0x5CA7);
        let several = 1_000 + draw.below(9_000) as usize;
        let mut words = |n| (0..n).map(|_| draw.word() as u32).collect();
        let cases: Cases<Vec<u32>> = [1, 255, 256, 257, several]
            .map(|n| (format!("{n} words"), words(n)))
            .into();
        let tally = check(&cases, |gpu, words| {
            let n = words.len();
            let blocks = n.div_ceil(TILE);
            let (dst, block_sums) = (gpu.alloc(n).unwrap(), gpu.alloc(blocks).unwrap());
            let kernel = TileScanKernel {
                src: gpu.htod(words).unwrap(),
                dst: dst.clone(),
                block_sums: block_sums.clone(),
                n,
            };
            let lc = LaunchConfig::new(blocks as u32, BLOCK_DIM);
            (kernel, lc, vec![dst, block_sums])
        });
        assert!(tally.twin_blocks > 0 && tally.images > 0, "{tally:?}");
    }
}
