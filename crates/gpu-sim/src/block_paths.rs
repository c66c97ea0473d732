//! How a block runs on the host is a host matter: whether it runs lane by
//! lane or as the kernel's native twin, and whether a traced block the twin
//! ran runs only its sampled warps, device memory, every counter and the
//! virtual time must come out the same. The reference runs every warp of
//! every block lane by lane. Checked on a seeded kernel that does
//! everything a block's path could disturb (stores to several buffers in
//! turn, conflicting stores to one word, shared memory, barriers, divergent
//! loops); so is that the executor a device reuses from launch to launch
//! carries nothing over, from a faulted launch or a completed one.

use crate::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, DeviceError, FaultKind, FaultPlan, Gpu,
    Kernel, LaunchConfig, LaunchReport, ThreadCtx,
};

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

struct Scramble {
    seed: u64,
    src: DeviceBuffer<u32>,
    out: [DeviceBuffer<u32>; 3],
    /// Every thread stores its index to one of these few words: the last
    /// thread in block order must win.
    hot: DeviceBuffer<u32>,
    /// Whether blocks may run as the native twin.
    twin: bool,
    /// Whether the kernel supplies barrier images (without them every warp
    /// of a traced block runs).
    images: bool,
}

impl Scramble {
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
        if !self.twin {
            return false;
        }
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

/// One device with the kernel's buffers, every word set to a sentinel.
struct Rig {
    gpu: Gpu,
    src: DeviceBuffer<u32>,
    out: [DeviceBuffer<u32>; 3],
    hot: DeviceBuffer<u32>,
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
        let src: Vec<u32> = (0..THREADS).map(|i| mix(99, i)).collect();
        let sentinel = vec![0xDEAD_BEEF; THREADS * SLOTS];
        Rig {
            src: gpu.htod(&src).unwrap(),
            out: [(); 3].map(|()| gpu.htod(&sentinel).unwrap()),
            hot: gpu.htod(&[0xDEAD_BEEF; HOT_WORDS]).unwrap(),
            gpu,
        }
    }

    fn kernel(&self, seed: u64, twin: bool, images: bool) -> Scramble {
        Scramble {
            seed,
            src: self.src.clone(),
            out: self.out.clone(),
            hot: self.hot.clone(),
            twin,
            images,
        }
    }

    /// Launches the kernel with its twin and its images.
    fn launch(&self, seed: u64) -> Result<LaunchReport, DeviceError> {
        self.launch_as(self.kernel(seed, true, true))
    }

    fn launch_as(&self, kernel: Scramble) -> Result<LaunchReport, DeviceError> {
        self.gpu.launch(&kernel, LaunchConfig::new(GRID, BLOCK))
    }

    fn visible(&self) -> Visible {
        let clock_ns = self.gpu.now().as_nanos();
        Visible {
            out: [0, 1, 2].map(|b| self.gpu.dtoh(&self.out[b]).unwrap()),
            hot: self.gpu.dtoh(&self.hot).unwrap(),
            clock_ns,
        }
    }
}

fn report_fields(r: &LaunchReport) -> (u64, &crate::LaunchCounters) {
    (r.time.as_nanos(), &r.counters)
}

/// Stride 1 traces every warp, so no block runs as the twin. At 2 every
/// three-warp block is traced, with one or two warps sampled, and runs
/// those only; at 5 five blocks of the seven do and two run as the twin
/// alone, at 16 two and five. The kernel runs with its images and without
/// (then a traced block runs every warp). Mutations that fail it: the twin
/// storing the hot words in reverse thread order (another thread wins a
/// hot word), or counting `block_dim - 1` arrivals; the image omitting the
/// arrival count; warps of a traced block skipped though the kernel
/// supplies no images.
#[test]
fn results_counters_and_time_do_not_depend_on_the_twin() {
    for stride in [1, 2, 5, 16] {
        for seed in 0..3 {
            let reference = Rig::new(stride);
            let lanes = reference.kernel(seed, false, false);
            let expected_report = reference.launch_as(lanes).unwrap();
            let expected = reference.visible();
            assert!(
                expected
                    .out
                    .iter()
                    .all(|o| o.contains(&0xDEAD_BEEF) && o.iter().any(|&w| w != 0xDEAD_BEEF)),
                "the kernel fills some slots and leaves others"
            );

            for images in [true, false] {
                let rig = Rig::new(stride);
                let report = rig.launch_as(rig.kernel(seed, true, images)).unwrap();
                let ctx = format!("stride {stride} seed {seed} images {images}");
                assert_eq!(
                    report_fields(&report),
                    report_fields(&expected_report),
                    "{ctx}"
                );
                assert_eq!(rig.visible(), expected, "{ctx}");
            }
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
    // The first launch runs as the twin with its images, the second every
    // warp lane by lane, so the second's first block starts on the shared
    // memory the first's last block left. The reference is each launch
    // alone on a fresh device. The second fills different slots, so the
    // first's words legitimately show through where it stores nothing, and
    // only there.
    let kernel = |rig: &Rig, first: bool| rig.kernel(if first { 1 } else { 2 }, first, first);
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
    assert_eq!(report_fields(&report), report_fields(expected_second));
    assert_eq!(rig.visible(), expected);
}
