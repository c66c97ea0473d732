//! A launch in steady state allocates a constant, not per store. The
//! kernel has MergePath's store shape: each thread writes three output
//! buffers in turn, so no store extends the previous one's run. It also
//! has a native twin, which a device tracing one warp in 16 runs for most
//! blocks, and a barrier image, with which a traced block of four warps
//! runs its sampled one only; that launch must be as flat: the image goes
//! into the executor's shared memory, and nothing is allocated per block.
//!
//! One test only: the counter is process-wide. It ends by holding the
//! kernel's twin and image to its lanes with the conformance harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use griffin_gpu_sim::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, Gpu, Kernel, LaunchConfig, ThreadCtx,
};
use griffin_sim_conformance::check;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Small enough that the logs stay under the size a device keeps between
/// launches; a larger launch regrows its log by doubling instead.
const GRID: u32 = 10;
const BLOCK: u32 = 128;
const PER_THREAD: usize = 1;

struct ThreeWay {
    out: [DeviceBuffer<u32>; 3],
    /// Barrier images installed.
    images: Cell<usize>,
}

impl Kernel for ThreeWay {
    /// Not zero-sized, so the per-thread state vector is real.
    type State = u32;

    fn phases(&self) -> usize {
        2
    }

    fn shared_mem_words(&self, block_dim: u32) -> usize {
        block_dim as usize
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, carried: &mut u32) {
        let gid = t.global_thread_idx();
        if phase == 0 {
            t.st_shared(t.thread_idx as usize, gid as u32);
            *carried = 7;
            return;
        }
        let base = t.ld_shared(t.thread_idx as usize) + *carried;
        let mut k = 0;
        while t.branch(k < PER_THREAD) {
            for out in &self.out {
                t.st(out, gid * PER_THREAD + k, base + k as u32);
            }
            k += 1;
        }
    }

    /// The block's slots of each buffer as one run, from a stack array.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let first = (block * BLOCK) as usize;
        let mut words = [0u32; BLOCK as usize * PER_THREAD];
        for (tid, slots) in words.chunks_mut(PER_THREAD).enumerate() {
            for (k, word) in slots.iter_mut().enumerate() {
                *word = (first + tid + k) as u32 + 7;
            }
        }
        for out in &self.out {
            mem.st_run(out, first * PER_THREAD, &words);
        }
        true
    }

    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        Some(self)
    }
}

impl BarrierImages for ThreeWay {
    /// Each thread's global index, as phase 0 stages it.
    fn image(&self, block: u32, _phase: usize, _mem: &BlockMem<'_>, shared: &mut [u32]) {
        self.images.set(self.images.get() + 1);
        for (tid, word) in shared.iter_mut().enumerate() {
            *word = block * BLOCK + tid as u32;
        }
    }
}

/// Allocations the second launch may make. Measured: 1, the per-thread
/// state vector; the rest is room for a toolchain that allocates a little
/// differently. One allocation per store would be 3 840.
const ALLOWED: usize = 4;

#[test]
fn the_second_identical_launch_allocates_a_constant_not_per_store() {
    let words = (GRID * BLOCK) as usize * PER_THREAD;
    for stride in [1, 16] {
        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: stride,
            ..DeviceConfig::test_tiny()
        });
        let kernel = ThreeWay {
            out: [(); 3].map(|()| gpu.alloc::<u32>(words).unwrap()),
            images: Cell::new(0),
        };
        let lc = LaunchConfig::new(GRID, BLOCK);
        let first = gpu.launch(&kernel, lc).unwrap();
        assert_eq!(first.counters.stores_applied, 3 * words as u64);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let second = gpu.launch(&kernel, lc).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(second.counters, first.counters);
        assert!(
            allocations <= ALLOWED,
            "stride {stride}: {allocations} allocations for {} stores (allowed {ALLOWED})",
            3 * words
        );
        // At 16, blocks 0, 4 and 8 are traced, one warp of four each.
        let traced_blocks = if stride == 16 { 3 } else { 0 };
        assert_eq!(
            kernel.images.get(),
            2 * traced_blocks,
            "stride {stride}: images of the two launches"
        );
        let expected: Vec<u32> = (0..words as u32).map(|gid| gid + 7).collect();
        for out in &kernel.out {
            assert_eq!(gpu.dtoh(out).unwrap(), expected, "stride {stride}");
        }
    }

    let tally = check(&[("three-way".to_string(), ())], |gpu, ()| {
        let out = [(); 3].map(|()| gpu.alloc::<u32>(words).unwrap());
        let outputs = out.to_vec();
        let kernel = ThreeWay {
            out,
            images: Cell::new(0),
        };
        (kernel, LaunchConfig::new(GRID, BLOCK), outputs)
    });
    assert!(tally.twin_blocks > 0 && tally.images > 0, "{tally:?}");
}
