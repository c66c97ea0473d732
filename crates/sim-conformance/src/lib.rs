//! The contract of the simulator's host shortcuts, checked in one place.
//!
//! A kernel's native twin ([`Kernel::run_block_native`]), its barrier
//! images ([`Kernel::barrier_images`]) and its replay key
//! ([`Kernel::memo_key`]) each promise the same stores, counters and
//! virtual time as running every lane. [`check`] holds a kernel to that on
//! a list of cases, each built on a fresh device per way and launched
//! twice on it (the pool trimmed between, so that a keyed launch replays):
//! with the twin, counting exactly the threads that run lane by lane; lane
//! by lane, the twin hidden; and, given images, lane by lane with every
//! image compared with the shared memory the lanes leave. The buffers,
//! every launch's name, time and counters, and the clock must agree run
//! for run (the imaged runs, whose probe reads shared memory through the
//! tracer, on the buffers only), and a replay must repeat its first run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use griffin_gpu_sim::{
    BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, DeviceEvent, Gpu, Kernel, LaunchConfig,
    LaunchCounters, LaunchKey, ThreadCtx,
};

/// One launch to check, built on a fresh device: the kernel, its
/// geometry, and the buffers whose words it decides.
pub type Case<K> = (K, LaunchConfig, Vec<DeviceBuffer<u32>>);

/// Named inputs, one case each.
pub type Cases<C> = Vec<(String, C)>;

/// What a list of cases exercised, over every device.
#[derive(Debug, Default)]
pub struct Tally {
    /// Blocks the twin ran in traced launches.
    pub twin_blocks: u64,
    /// Blocks the twin ran in replayed launches.
    pub replayed_blocks: u64,
    /// Barrier images compared with the shared memory the lanes left.
    pub images: u64,
}

/// Both device shapes, tracing every warp (no twin runs unless the launch
/// replays), one warp in 3 (the sampled warps of 4- and 8-warp blocks fall
/// on every warp index, so every warp of a block reads some barrier's
/// image), one warp in 16 (the experiments' device) and only the first
/// (every block runs as the twin, block 0 with its warp 0 lane by lane).
pub fn devices() -> Vec<DeviceConfig> {
    let mut all = Vec::new();
    for base in [DeviceConfig::test_tiny(), DeviceConfig::tesla_k20()] {
        for stride in [1, 3, 16, u32::MAX] {
            all.push(DeviceConfig {
                trace_sample_stride: stride,
                ..base.clone()
            });
        }
    }
    all
}

/// Runs every case every way on every device of [`devices`] (see the
/// crate doc) and panics, naming the case, where two disagree.
pub fn check<C, K: Kernel>(cases: &[(String, C)], build: impl Fn(&Gpu, &C) -> Case<K>) -> Tally {
    let mut tally = Tally::default();
    for (what, input) in cases {
        for cfg in devices() {
            let ctx = format!(
                "{what} on {} at stride {}",
                cfg.name, cfg.trace_sample_stride
            );
            let build = |gpu: &Gpu| build(gpu, input);
            let twin = twice(&cfg, Way::Twin, &build, &mut tally, &ctx);
            let lanes = twice(&cfg, Way::Lanes, &build, &mut tally, &ctx);
            let imaged = twice(&cfg, Way::Images, &build, &mut tally, &ctx);
            for (k, run) in lanes.iter().enumerate() {
                assert_eq!(run, &twin[k], "lanes, run {k}, {ctx}");
            }
            for (k, run) in imaged.iter().enumerate() {
                assert_eq!(run.outputs, twin[k].outputs, "imaged, run {k}, {ctx}");
            }
        }
    }
    tally
}

/// splitmix64 over `GRIFFIN_FAULT_SEED` (default `0xC0FFEE`) and a salt:
/// the numbers seeded cases are drawn from.
pub struct Draw(u64);

impl Draw {
    pub fn new(salt: u64) -> Draw {
        let seed = std::env::var("GRIFFIN_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        Draw(seed ^ salt)
    }

    pub fn word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.word() % n
    }
}

/// How [`Probe`] runs a kernel.
#[derive(Clone, Copy, PartialEq)]
enum Way {
    /// With its twin, counting the threads that run lane by lane.
    Twin,
    /// Lane by lane, the twin hidden.
    Lanes,
    /// Lane by lane, the twin only recording each offered block's images.
    Images,
}

/// What one launch of a case shows a caller.
#[derive(Debug, PartialEq)]
struct Run {
    outputs: Vec<Vec<u32>>,
    launches: Vec<(&'static str, u64, LaunchCounters)>,
    clock: u64,
}

/// Builds the case on a fresh device and launches it twice one `way`;
/// imaged, only a kernel with barrier images.
fn twice<K: Kernel>(
    cfg: &DeviceConfig,
    way: Way,
    build: &impl Fn(&Gpu) -> Case<K>,
    tally: &mut Tally,
    ctx: &str,
) -> Vec<Run> {
    let gpu = Gpu::new(cfg.clone());
    let (kernel, lc, outputs) = build(&gpu);
    if way == Way::Images && kernel.barrier_images().is_none() {
        return Vec::new();
    }
    let keyed = kernel.memo_key(&mut LaunchKey::default());
    let log: Arc<Mutex<Vec<_>>> = Arc::default();
    let sink = Arc::clone(&log);
    gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
        if let DeviceEvent::KernelLaunch { name, report, .. } = e {
            let launch = (*name, report.time.as_nanos(), report.counters.clone());
            sink.lock().unwrap().push(launch);
        }
    })));
    let runs = [false, true].map(|second| {
        gpu.trim_pool();
        let start = gpu.now();
        let probe = Probe {
            kernel: &kernel,
            way,
            warp_size: cfg.warp_size,
            stride: u64::from(cfg.trace_sample_stride.max(1)),
            lanes: Cell::new(0),
            twin: Cell::new([0; 3]),
            images: RefCell::default(),
            shared: RefCell::default(),
        };
        gpu.launch(&probe, lc).unwrap();
        let clock = (gpu.now() - start).as_nanos();
        probe.check(lc, second && keyed, tally, ctx);
        Run {
            outputs: outputs.iter().map(|b| gpu.dtoh(b).unwrap()).collect(),
            launches: std::mem::take(&mut *log.lock().unwrap()),
            clock,
        }
    });
    gpu.set_observer(None);
    if way == Way::Twin && keyed {
        assert_eq!(runs[1], runs[0], "a replay repeats its first run, {ctx}");
    }
    runs.into()
}

/// Per block and phase, shared memory at the barrier before it.
type Barriers = RefCell<BTreeMap<(u32, usize), Vec<u32>>>;

/// The kernel run one [`Way`]: every item delegates but the twin. Imaged,
/// thread 0 also records shared memory at the start of every phase after
/// the first, which is what the block's threads left at the barrier,
/// since it runs first; the images are computed over words that are none
/// of them.
struct Probe<'a, K> {
    kernel: &'a K,
    way: Way,
    warp_size: u32,
    stride: u64,
    /// Threads that ran phase 0.
    lanes: Cell<u64>,
    /// Blocks the twin ran, their threads, and their sampled warps'.
    twin: Cell<[u64; 3]>,
    images: Barriers,
    shared: Barriers,
}

impl<K: Kernel> Probe<'_, K> {
    /// With the twin, asserts the lane count exact: the threads of the
    /// blocks it declined, and of a traced launch the sampled warps' of
    /// the blocks it ran. Imaged, asserts every image equal to what its
    /// block's lanes left.
    fn check(&self, lc: LaunchConfig, replayed: bool, tally: &mut Tally, ctx: &str) {
        let [blocks, threads, sampled] = self.twin.get();
        match self.way {
            Way::Twin => {
                let sampled = if replayed { 0 } else { sampled };
                let expected = lc.total_threads() - threads + sampled;
                assert_eq!(self.lanes.get(), expected, "lanes, {ctx}");
                let ran = match replayed {
                    true => &mut tally.replayed_blocks,
                    false => &mut tally.twin_blocks,
                };
                *ran += blocks;
            }
            Way::Lanes => {}
            Way::Images => {
                let shared = self.shared.borrow();
                for (at, image) in self.images.borrow().iter() {
                    assert_eq!(Some(image), shared.get(at), "image {at:?}, {ctx}");
                    tally.images += 1;
                }
            }
        }
    }
}

impl<K: Kernel> Kernel for Probe<'_, K> {
    type State = K::State;
    fn phases(&self) -> usize {
        self.kernel.phases()
    }
    fn shared_mem_words(&self, block_dim: u32) -> usize {
        self.kernel.shared_mem_words(block_dim)
    }
    fn name(&self) -> &'static str {
        self.kernel.name()
    }
    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, state: &mut K::State) {
        if phase == 0 {
            self.lanes.set(self.lanes.get() + 1);
        } else if self.way == Way::Images && t.thread_idx == 0 {
            let words = self.shared_mem_words(t.block_dim);
            let shared = (0..words).map(|i| t.ld_shared(i)).collect();
            self.shared
                .borrow_mut()
                .insert((t.block_idx, phase), shared);
        }
        self.kernel.run_phase(phase, t, state)
    }
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let bd = mem.block_dim();
        match self.way {
            Way::Twin if self.kernel.run_block_native(block, mem) => {
                let warps = bd.div_ceil(self.warp_size);
                let sampled: u32 = (0..warps)
                    .filter(|&w| {
                        (u64::from(block) * u64::from(warps) + u64::from(w))
                            .is_multiple_of(self.stride)
                    })
                    .map(|w| self.warp_size.min(bd - w * self.warp_size))
                    .sum();
                let [blocks, threads, sampled_threads] = self.twin.get();
                let (bd, sampled) = (u64::from(bd), u64::from(sampled));
                self.twin
                    .set([blocks + 1, threads + bd, sampled_threads + sampled]);
                true
            }
            Way::Images => {
                let images = self.kernel.barrier_images().expect("a kernel with images");
                for phase in 1..self.phases() {
                    let mut shared = vec![0xA5A5_A5A5; self.shared_mem_words(bd)];
                    images.image(block, phase, mem, &mut shared);
                    self.images.borrow_mut().insert((block, phase), shared);
                }
                false
            }
            _ => false,
        }
    }
    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        self.kernel.barrier_images()
    }
    fn memo_key(&self, key: &mut LaunchKey) -> bool {
        self.kernel.memo_key(key)
    }
}
