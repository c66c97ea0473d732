//! How a block runs on the host is a host matter: whether it runs lane by
//! lane or as the kernel's native twin, and whether a traced block the twin
//! ran runs only its sampled warps, device memory, every counter and the
//! virtual time must come out the same. Checked with the conformance
//! harness on a seeded kernel that does everything a block's path could
//! disturb (stores to several buffers in turn, conflicting stores to one
//! word, shared memory, barriers, divergent loops); so is that the
//! executor a device reuses from launch to launch carries nothing over,
//! from a faulted launch or a completed one.

use griffin_gpu_sim::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, DeviceError, FaultKind, FaultPlan, Gpu,
    Kernel, LaunchConfig, LaunchReport, ThreadCtx,
};
use griffin_sim_conformance::check;

const GRID: u32 = 7;
const BLOCK: u32 = 96; // three warps
const THREADS: usize = (GRID * BLOCK) as usize;
/// Each thread owns this many slots of every output buffer and fills one
/// to three of them.
const SLOTS: usize = 3;
const HOT_WORDS: usize = 4;

fn mix(seed: u64, i: usize) -> u32 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (x ^ (x >> 29)) as u32
}

#[derive(Clone)]
struct Scramble {
    seed: u64,
    src: DeviceBuffer<u32>,
    out: [DeviceBuffer<u32>; 3],
    /// Every thread stores its index to one of these few words: the last
    /// thread in block order must win.
    hot: DeviceBuffer<u32>,
    /// Whether the kernel supplies barrier images (without them every warp
    /// of a traced block runs).
    images: bool,
}

impl Scramble {
    /// The kernel with its twin and its images, its buffers uploaded to
    /// `gpu`, every output word a sentinel.
    fn upload(gpu: &Gpu, seed: u64) -> Scramble {
        let src: Vec<u32> = (0..THREADS).map(|i| mix(99, i)).collect();
        let sentinel = vec![0xDEAD_BEEF; THREADS * SLOTS];
        Scramble {
            seed,
            src: gpu.htod(&src).unwrap(),
            out: [(); 3].map(|()| gpu.htod(&sentinel).unwrap()),
            hot: gpu.htod(&[0xDEAD_BEEF; HOT_WORDS]).unwrap(),
            images: true,
        }
    }

    /// What phase 0 leaves in shared memory, but for the arrival count.
    fn staged(&self, block: u32, src: &[u32]) -> [u32; BLOCK as usize] {
        std::array::from_fn(|tid| {
            let gid = block as usize * BLOCK as usize + tid;
            src[gid] ^ src[mix(self.seed, gid) as usize % THREADS]
        })
    }

    /// What the three phases compute, per thread of block `block`: the
    /// accumulator phase 2 stores from.
    fn accumulators(&self, block: u32, src: &[u32]) -> [u32; BLOCK as usize] {
        let bd = BLOCK as usize;
        let gid = |tid: usize| block as usize * bd + tid;
        let shared = self.staged(block, src);
        std::array::from_fn(|tid| {
            let h = mix(self.seed, gid(tid));
            let neighbour = shared[(tid + 1 + h as usize % 5) % bd];
            if h.is_multiple_of(2) {
                neighbour.wrapping_mul(31)
            } else {
                neighbour.rotate_left(7)
            }
        })
    }
}

/// Phase 2's trip count: it follows the neighbour phase 1 read (through
/// the accumulator) and the arrival count, so a wrong barrier image changes
/// a sampled warp's branch and store counts.
fn slots(h: u32, acc: u32, arrived: u32) -> usize {
    1 + (h ^ acc ^ arrived) as usize % SLOTS
}

#[derive(Default)]
struct Acc(u32);

impl Kernel for Scramble {
    type State = Acc;

    fn phases(&self) -> usize {
        3
    }

    fn shared_mem_words(&self, block_dim: u32) -> usize {
        block_dim as usize + 1
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, acc: &mut Acc) {
        let gid = t.global_thread_idx();
        let tid = t.thread_idx as usize;
        let bd = t.block_dim as usize;
        let h = mix(self.seed, gid);
        match phase {
            0 => {
                // A scattered load next to a coalesced one.
                let v = t.ld(&self.src, gid) ^ t.ld(&self.src, h as usize % THREADS);
                t.st_shared(tid, v);
                t.atomic_add_shared(bd, 1);
            }
            1 => {
                let neighbour = t.ld_shared((tid + 1 + h as usize % 5) % bd);
                // Accumulates: a register left over from the block this
                // executor ran before would show.
                acc.0 = acc.0.wrapping_add(if t.branch(h.is_multiple_of(2)) {
                    neighbour.wrapping_mul(31)
                } else {
                    neighbour.rotate_left(7)
                });
                t.alu(2);
            }
            _ => {
                let arrived = t.ld_shared(bd); // == block_dim after the barrier
                let count = slots(h, acc.0, arrived);
                let mut k = 0;
                while t.branch(k < count) {
                    for (b, out) in self.out.iter().enumerate() {
                        let word = acc.0.wrapping_add(arrived).wrapping_add((k * 3 + b) as u32);
                        t.st(out, gid * SLOTS + k, word);
                    }
                    k += 1;
                }
                t.st(&self.hot, h as usize % HOT_WORDS, gid as u32);
            }
        }
    }

    /// Each output buffer's slots thread by thread, then the hot words one
    /// store at a time in thread order, so the same thread wins each.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let acc = self.accumulators(block, mem.words(&self.src));
        let gids = (0..BLOCK as usize).map(|tid| block as usize * BLOCK as usize + tid);
        for (b, out) in self.out.iter().enumerate() {
            for (gid, &acc) in gids.clone().zip(&acc) {
                let count = slots(mix(self.seed, gid), acc, BLOCK);
                let words: [u32; SLOTS] = std::array::from_fn(|k| {
                    acc.wrapping_add(BLOCK).wrapping_add((k * 3 + b) as u32)
                });
                mem.st_run(out, gid * SLOTS, &words[..count]);
            }
        }
        for gid in gids {
            let h = mix(self.seed, gid);
            mem.st_run(&self.hot, h as usize % HOT_WORDS, &[gid as u32]);
        }
        true
    }

    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        self.images.then_some(self)
    }
}

/// Phase 0 stages words and counts arrivals with an atomic whose result it
/// drops, phase 1 reads the staged words of other warps, phase 2 the count:
/// no word is read in the phase that writes it.
impl BarrierImages for Scramble {
    /// Both images: the staged words, then the count of every thread.
    fn image(&self, block: u32, _phase: usize, mem: &BlockMem<'_>, shared: &mut [u32]) {
        let (staged, count) = shared.split_at_mut(BLOCK as usize);
        staged.copy_from_slice(&self.staged(block, mem.words(&self.src)));
        count[0] = BLOCK;
    }
}

/// Mutations that fail it: the twin storing the hot words in reverse
/// thread order (another thread wins a hot word), or counting
/// `block_dim - 1` arrivals; the image omitting the arrival count; warps of
/// a traced block skipped though the kernel supplies no images.
#[test]
fn the_scramble_conforms_with_its_images_and_without() {
    let cases: Vec<_> = (0..3)
        .flat_map(|seed| {
            [true, false].map(|images| (format!("seed {seed} images {images}"), (seed, images)))
        })
        .collect();
    let tally = check(&cases, |gpu, &(seed, images)| {
        let kernel = Scramble {
            images,
            ..Scramble::upload(gpu, seed)
        };
        let mut outputs = kernel.out.to_vec();
        outputs.push(kernel.hot.clone());
        (kernel, LaunchConfig::new(GRID, BLOCK), outputs)
    });
    assert!(tally.twin_blocks > 0 && tally.images > 0, "{tally:?}");
}

/// One device and the kernel's buffers on it.
struct Rig {
    gpu: Gpu,
    kernel: Scramble,
}

/// Everything a launch may change that a caller can see.
#[derive(Debug, PartialEq)]
struct Visible {
    out: [Vec<u32>; 3],
    hot: Vec<u32>,
    clock_ns: u64,
}

impl Rig {
    fn new(stride: u32) -> Rig {
        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: stride,
            ..DeviceConfig::test_tiny()
        });
        let kernel = Scramble::upload(&gpu, 0);
        Rig { gpu, kernel }
    }

    fn kernel(&self, seed: u64, images: bool) -> Scramble {
        Scramble {
            seed,
            images,
            ..self.kernel.clone()
        }
    }

    /// Launches the kernel with its twin and its images.
    fn launch(&self, seed: u64) -> Result<LaunchReport, DeviceError> {
        self.launch_as(self.kernel(seed, true))
    }

    fn launch_as(&self, kernel: Scramble) -> Result<LaunchReport, DeviceError> {
        self.gpu.launch(&kernel, LaunchConfig::new(GRID, BLOCK))
    }

    fn visible(&self) -> Visible {
        let clock_ns = self.gpu.now().as_nanos();
        Visible {
            out: [0, 1, 2].map(|b| self.gpu.dtoh(&self.kernel.out[b]).unwrap()),
            hot: self.gpu.dtoh(&self.kernel.hot).unwrap(),
            clock_ns,
        }
    }
}

/// Mutation that fails it: the log of a faulted launch applied at retire.
#[test]
fn a_faulted_launch_shows_no_store_and_leaves_nothing_behind() {
    let reference = Rig::new(1);
    reference.launch(5).unwrap();
    let expected = reference.visible();
    // What the faulted launch would take, run without the fault.
    let fault_free = Rig::new(1).launch(6).unwrap().time;

    let rig = Rig::new(1);
    let before = rig.visible();
    rig.gpu.set_fault_plan(Some(
        FaultPlan::seeded(0).fail_at(0, FaultKind::KernelLaunchFailed),
    ));
    // The faulted launch runs another seed: were its log replayed by the
    // retry, the retry's output would differ from the reference.
    let submitted = rig.gpu.now();
    let err = rig.launch(6).unwrap_err();
    assert_eq!(err, DeviceError::KernelLaunchFailed { op_index: 0 });
    assert_eq!(rig.gpu.now() - submitted, fault_free, "charged in full");
    rig.gpu.set_fault_plan(None);
    let after = rig.visible();
    assert_eq!((&after.out, &after.hot), (&before.out, &before.hot));

    rig.launch(5).unwrap();
    let retried = rig.visible();
    assert_eq!((&retried.out, &retried.hot), (&expected.out, &expected.hot));
}

/// Mutation that fails it: shared memory not zeroed when a block starts
/// (the second launch's first block counts the first launch's arrivals).
#[test]
fn back_to_back_launches_see_nothing_of_each_other() {
    // At stride 2 every block is traced. The first launch runs as the twin
    // with its images, the second, without images, every warp lane by
    // lane, so the second's first block starts on the shared memory the
    // first's last block left. The reference is each launch
    // alone on a fresh device. The second fills different slots, so the
    // first's words legitimately show through where it stores nothing, and
    // only there.
    let kernel = |rig: &Rig, first: bool| rig.kernel(if first { 1 } else { 2 }, first);
    let alone = [true, false].map(|first| {
        let rig = Rig::new(2);
        let setup = rig.gpu.now();
        let report = rig.launch_as(kernel(&rig, first)).unwrap();
        (setup, report, rig.visible())
    });
    let [(setup, _, first), (_, expected_second, second)] = &alone;
    let merge = |a: &[u32], b: &[u32]| -> Vec<u32> {
        a.iter()
            .zip(b)
            .map(|(&a, &b)| if b == 0xDEAD_BEEF { a } else { b })
            .collect()
    };
    let expected = Visible {
        out: [0, 1, 2].map(|b| merge(&first.out[b], &second.out[b])),
        hot: merge(&first.hot, &second.hot),
        clock_ns: first.clock_ns + second.clock_ns - setup.as_nanos(),
    };

    let rig = Rig::new(2);
    rig.launch_as(kernel(&rig, true)).unwrap();
    let report = rig.launch_as(kernel(&rig, false)).unwrap();
    assert_eq!(report.counters, expected_second.counters);
    assert_eq!(report.time, expected_second.time);
    assert_eq!(rig.visible(), expected);
}
