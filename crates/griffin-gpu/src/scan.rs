//! Device-wide exclusive prefix sum.
//!
//! The classic multi-kernel scan: each block scans a tile in shared memory
//! (Hillis–Steele, ping-pong buffers, one barrier per step), block sums are
//! scanned recursively, then a uniform-add kernel folds the scanned sums
//! back in. Para-EF's "synchronization point" (paper Algorithm 1, line 3)
//! is exactly this scan.

use griffin_gpu_sim::{DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, Scope, ThreadCtx};

/// Tile width == block_dim; one element per thread.
const BLOCK_DIM: u32 = 256;

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
    let num_blocks = n.div_ceil(BLOCK_DIM as usize);
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
}
