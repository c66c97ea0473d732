//! What the kernels' native twins share: the launch they go through and
//! the host scratch they compute a block's stores in.
//!
//! A native twin ([`Kernel::run_block_native`]) computes the stores of a
//! block in plain Rust, from the launch-time snapshot; the lane-by-lane
//! body stays the definition. It runs for a block the tracer samples no
//! warp of, and for a traced block whose unsampled warps it can stand in
//! for: then only the sampled warps run lane by lane, for their counters.
//! That needs no more when the kernel has no shared memory; `merge` and
//! `tile_scan`, which have some, supply the block's shared memory at each
//! barrier ([`Kernel::barrier_images`]). Twins exist for
//! every kernel that takes at least 1 % of a `trec-hybrid` pass's
//! simulator host time: `para_ef.decode`, `mergepath.merge`,
//! `mergepath.compact`, `engine.score_accum`, `engine.score_init`,
//! `scan.tile_scan` and `scan.uniform_add` (DESIGN.md, "How a launch
//! executes on the host"). A replayed launch ([`Kernel::memo_key`]; only
//! `para_ef.decode` declares a key) sends every block to its twin, at any
//! stride.
//!
//! The tests here run every twin against its lane-by-lane body, launch
//! for launch, and every case twice on one device, so that a second run
//! replays what the first declared: the same output words, store counts,
//! counters and virtual time, at every stride. They count the threads that
//! run lane by lane, and compare every barrier image with the shared
//! memory the lanes leave there.

use std::cell::RefCell;

use griffin_gpu_sim::{DeviceError, Gpu, Kernel, LaunchConfig, LaunchReport};

thread_local! {
    static SCRATCH: RefCell<[Vec<u32>; 4]> = const { RefCell::new([const { Vec::new() }; 4]) };
}

/// Runs `f` on this host thread's four scratch vectors, emptied. Their
/// capacity lives as long as the thread, which is the launch's caller: a
/// twin allocates only while it first grows them.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut [Vec<u32>; 4]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.iter_mut().for_each(Vec::clear);
        f(scratch)
    })
}

/// [`Gpu::launch`] for a kernel with a native twin. Under test it goes
/// through a wrapper that hides the twin (the lane-by-lane side of a
/// differential test), checks its barrier images against the lanes, or
/// counts the blocks it runs and the threads that run lane by lane.
pub(crate) fn launch<K: Kernel>(
    gpu: &Gpu,
    kernel: &K,
    lc: LaunchConfig,
) -> Result<LaunchReport, DeviceError> {
    #[cfg(test)]
    return tests::launch(gpu, kernel, lc);
    #[cfg(not(test))]
    gpu.launch(kernel, lc)
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use std::sync::{Arc, Mutex};

    use griffin_codec::Codec;
    use griffin_gpu_sim::{
        BarrierImages, BlockMem, DeviceBuffer, DeviceConfig, DeviceError, DeviceEvent, Gpu, Kernel,
        LaunchConfig, LaunchCounters, LaunchKey, LaunchReport, ThreadCtx,
    };
    use griffin_index::{CompressedPostingList, Posting};

    use crate::engine::{ScoreAccumKernel, ScoreInitKernel, ScoreParams};
    use crate::mergepath::{self, MergePathConfig};
    use crate::para_ef::{self, Selected};
    use crate::scan;
    use crate::transfer::{DeviceEfList, DevicePostings};

    /// How this thread's launches run their kernels.
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        /// Through [`Counted`].
        Twin,
        /// Through [`LaneOnly`].
        Lanes,
        /// Through [`Imaged`].
        Images,
    }

    thread_local! {
        static MODE: Cell<Mode> = const { Cell::new(Mode::Twin) };
        static NATIVE_BLOCKS: RefCell<BTreeMap<&'static str, u64>> =
            const { RefCell::new(BTreeMap::new()) };
        static IMAGES_CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn launch<K: Kernel>(
        gpu: &Gpu,
        kernel: &K,
        lc: LaunchConfig,
    ) -> Result<LaunchReport, DeviceError> {
        match MODE.get() {
            Mode::Lanes => gpu.launch(&LaneOnly(kernel), lc),
            Mode::Twin => {
                let counted = Counted::new(kernel, gpu.config());
                let report = gpu.launch(&counted, lc)?;
                counted.check_lanes(lc);
                Ok(report)
            }
            Mode::Images => {
                let imaged = Imaged {
                    kernel,
                    images: RefCell::default(),
                    lanes: RefCell::default(),
                };
                let report = gpu.launch(&imaged, lc)?;
                imaged.check(lc);
                Ok(report)
            }
        }
    }

    /// A kernel with its native twin hidden: everything else delegates.
    struct LaneOnly<'a, K>(&'a K);

    impl<K: Kernel> Kernel for LaneOnly<'_, K> {
        type State = K::State;
        fn phases(&self) -> usize {
            self.0.phases()
        }
        fn shared_mem_words(&self, block_dim: u32) -> usize {
            self.0.shared_mem_words(block_dim)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, state: &mut K::State) {
            self.0.run_phase(phase, t, state)
        }
        fn memo_key(&self, key: &mut LaunchKey) -> bool {
            self.0.memo_key(key)
        }
    }

    /// A kernel whose twin runs, and is counted, per kernel name, when it
    /// does. It also counts the lanes that run and the threads of the
    /// blocks the twin ran that are not in a sampled warp.
    struct Counted<'a, K> {
        kernel: &'a K,
        warp_size: u32,
        stride: u64,
        lanes: Cell<u64>,
        skipped: Cell<u64>,
    }

    impl<'a, K: Kernel> Counted<'a, K> {
        fn new(kernel: &'a K, cfg: &DeviceConfig) -> Self {
            Counted {
                kernel,
                warp_size: cfg.warp_size,
                stride: u64::from(cfg.trace_sample_stride.max(1)),
                lanes: Cell::new(0),
                skipped: Cell::new(0),
            }
        }

        /// Exact: the threads that ran lane by lane are every thread of
        /// the blocks the twin declined and the sampled warps' threads of
        /// the blocks it ran. Not for a kernel that declares a key, whose
        /// replayed launches sample no warp.
        fn check_lanes(&self, lc: LaunchConfig) {
            if self.kernel.memo_key(&mut LaunchKey::default()) {
                return;
            }
            assert_eq!(
                self.lanes.get(),
                lc.total_threads() - self.skipped.get(),
                "threads run lane by lane by {}",
                self.kernel.name()
            );
        }
    }

    impl<K: Kernel> Kernel for Counted<'_, K> {
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
            }
            self.kernel.run_phase(phase, t, state)
        }
        fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
            let ran = self.kernel.run_block_native(block, mem);
            NATIVE_BLOCKS
                .with_borrow_mut(|n| *n.entry(self.kernel.name()).or_default() += u64::from(ran));
            if ran {
                let bd = mem.block_dim();
                let warps = bd.div_ceil(self.warp_size);
                let sampled: u32 = (0..warps)
                    .filter(|&w| {
                        (u64::from(block) * u64::from(warps) + u64::from(w))
                            .is_multiple_of(self.stride)
                    })
                    .map(|w| self.warp_size.min(bd - w * self.warp_size))
                    .sum();
                self.skipped
                    .set(self.skipped.get() + u64::from(bd - sampled));
            }
            ran
        }
        fn barrier_images(&self) -> Option<&dyn BarrierImages> {
            self.kernel.barrier_images()
        }
        fn memo_key(&self, key: &mut LaunchKey) -> bool {
            self.kernel.memo_key(key)
        }
    }

    /// Per block and phase, shared memory at the barrier before it.
    type Barriers = RefCell<BTreeMap<(u32, usize), Vec<u32>>>;

    /// A kernel with barrier images whose twin, offered every block, only
    /// records the images (over words that are none of them) and declines,
    /// so that every block runs lane by lane, and whose thread 0 records
    /// shared memory at the start of every phase after the first: what
    /// the block's threads left at the barrier, since it runs first.
    /// Other kernels pass through with their twin.
    struct Imaged<'a, K> {
        kernel: &'a K,
        images: Barriers,
        lanes: Barriers,
    }

    impl<K: Kernel> Imaged<'_, K> {
        /// Every block's every image equals what its lanes left.
        fn check(&self, lc: LaunchConfig) {
            if self.kernel.barrier_images().is_none() {
                return;
            }
            let images = self.images.borrow();
            let every: Vec<_> = (0..lc.grid_dim)
                .flat_map(|b| (1..self.phases()).map(move |p| (b, p)))
                .collect();
            let lanes = self.lanes.borrow();
            for barriers in [&images, &lanes] {
                assert!(barriers.keys().eq(&every), "{}: every barrier", self.name());
            }
            for (at, lanes) in lanes.iter() {
                assert_eq!(&images[at], lanes, "{}, (block, phase) {at:?}", self.name());
            }
            IMAGES_CHECKED.set(IMAGES_CHECKED.get() + every.len() as u64);
        }
    }

    impl<K: Kernel> Kernel for Imaged<'_, K> {
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
            if t.thread_idx == 0 && phase > 0 && self.kernel.barrier_images().is_some() {
                let words = self.shared_mem_words(t.block_dim);
                let shared = (0..words).map(|i| t.ld_shared(i)).collect();
                self.lanes.borrow_mut().insert((t.block_idx, phase), shared);
            }
            self.kernel.run_phase(phase, t, state)
        }
        fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
            let Some(images) = self.kernel.barrier_images() else {
                return self.kernel.run_block_native(block, mem);
            };
            let words = self.shared_mem_words(mem.block_dim());
            for phase in 1..self.phases() {
                let mut shared = vec![0xA5A5_A5A5; words];
                images.image(block, phase, mem, &mut shared);
                self.images.borrow_mut().insert((block, phase), shared);
            }
            false
        }
        fn barrier_images(&self) -> Option<&dyn BarrierImages> {
            self.kernel.barrier_images()
        }
        fn memo_key(&self, key: &mut LaunchKey) -> bool {
            self.kernel.memo_key(key)
        }
    }

    fn native_blocks(kernel: &str) -> u64 {
        NATIVE_BLOCKS.with_borrow(|n| n.get(kernel).copied().unwrap_or(0))
    }

    fn all_native_blocks() -> u64 {
        NATIVE_BLOCKS.with_borrow(|n| n.values().sum())
    }

    fn fault_seed() -> u64 {
        std::env::var("GRIFFIN_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE)
    }

    /// splitmix64: the cases' numbers, drawn from the fault seed.
    struct Draw(u64);

    impl Draw {
        fn new(salt: u64) -> Draw {
            Draw(fault_seed() ^ salt)
        }
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Devices the twins are checked on: both shapes, tracing every warp
    /// (no twin runs unless the launch replays), one warp in 3 (the
    /// sampled warps of 4- and 8-warp blocks fall on every warp index, so
    /// every warp of a block reads some barrier's image), one warp in 16
    /// (the experiments' device) and only the first (every block runs as
    /// the twin, block 0 with its warp 0 lane by lane).
    fn devices() -> Vec<DeviceConfig> {
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

    type Launches = Vec<(&'static str, u64, LaunchCounters)>;

    /// Records every launch's name, virtual time and counters
    /// (`stores_applied` among them).
    fn record(gpu: &Gpu) -> Arc<Mutex<Launches>> {
        let launches: Arc<Mutex<Launches>> = Arc::default();
        let log = Arc::clone(&launches);
        gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
            if let DeviceEvent::KernelLaunch { name, report, .. } = e {
                let entry = (*name, report.time.as_nanos(), report.counters.clone());
                log.lock().unwrap().push(entry);
            }
        })));
        launches
    }

    /// One run of a case: its output, its launches, the virtual time it
    /// took, and how many blocks ran as a twin.
    struct Run<R> {
        out: R,
        launches: Launches,
        clock: u64,
        native: u64,
    }

    /// `setup` on a fresh device, then `run` twice, the allocator's cache
    /// trimmed before each so that both pay the same `cudaMalloc`s. The
    /// second run finds on the device every launch of the first that
    /// declared a key.
    fn twice<S, R>(
        cfg: &DeviceConfig,
        setup: &impl Fn(&Gpu) -> S,
        run: &impl Fn(&Gpu, &S) -> R,
    ) -> [Run<R>; 2] {
        let gpu = Gpu::new(cfg.clone());
        let launches = record(&gpu);
        let state = setup(&gpu);
        let runs = [(); 2].map(|()| {
            gpu.trim_pool();
            launches.lock().unwrap().clear();
            let (start, native) = (gpu.now(), all_native_blocks());
            let out = run(&gpu, &state);
            Run {
                out,
                launches: launches.lock().unwrap().clone(),
                clock: (gpu.now() - start).as_nanos(),
                native: all_native_blocks() - native,
            }
        });
        gpu.set_observer(None);
        runs
    }

    /// Runs a case with the twins and with every block lane by lane, twice
    /// each, on every device of [`devices`]: the outputs, every launch's
    /// time and counters, and the clock must agree across the four runs.
    /// Returns how many blocks ran as a twin in the second runs at stride
    /// 1, where only a replayed launch runs any.
    fn differential<S, R: PartialEq + Debug>(
        what: &str,
        setup: impl Fn(&Gpu) -> S,
        run: impl Fn(&Gpu, &S) -> R,
    ) -> u64 {
        let mut replayed = 0;
        for cfg in devices() {
            let ctx = format!(
                "{what} on {} at stride {}",
                cfg.name, cfg.trace_sample_stride
            );
            let twin = twice(&cfg, &setup, &run);
            MODE.set(Mode::Lanes);
            let lanes = twice(&cfg, &setup, &run);
            MODE.set(Mode::Twin);
            let first = &twin[0];
            let others = [
                ("second run", &twin[1]),
                ("lanes", &lanes[0]),
                ("lanes, second run", &lanes[1]),
            ];
            for (side, r) in others {
                assert_eq!(r.out, first.out, "outputs, {side}, {ctx}");
                assert_eq!(r.launches, first.launches, "launches, {side}, {ctx}");
                assert_eq!(r.clock, first.clock, "clock, {side}, {ctx}");
            }
            if cfg.trace_sample_stride == 1 {
                assert_eq!(first.native, 0, "every block is traced, {ctx}");
                replayed += twin[1].native;
            }
        }
        replayed
    }

    /// A tf whose varint is 1, 2, 3 or 5 bytes long (the last straddles a
    /// word wherever it starts).
    fn tf(draw: &mut Draw) -> u32 {
        match draw.below(4) {
            0 => 1 + draw.below(127) as u32,
            1 => 128 + draw.below(16_000) as u32,
            2 => 20_000 + draw.below(2_000_000) as u32,
            _ => u32::MAX - draw.below(1000) as u32,
        }
    }

    /// `n` docIDs with gaps of 1 to `max_gap`, each with a drawn tf.
    fn postings(draw: &mut Draw, n: usize, max_gap: u64) -> Vec<Posting> {
        let mut docid = draw.below(max_gap) as u32;
        (0..n)
            .map(|_| {
                let p = Posting {
                    docid,
                    tf: tf(draw),
                };
                docid += 1 + draw.below(max_gap) as u32;
                p
            })
            .collect()
    }

    /// Decodes blocks `lo..hi` of `ps` (both outputs, and docIDs alone)
    /// and a drawn selection of the list's blocks, and reads all back.
    /// Returns the blocks the second runs replayed at stride 1.
    fn decode_case(ps: &[Posting], block_len: usize, lo: usize, hi: usize, select: &[u32]) -> u64 {
        let list = CompressedPostingList::compress(ps, Codec::EliasFano, block_len);
        let what = format!(
            "decode of {} postings, blocks of {block_len}, {lo}..{hi}",
            ps.len()
        );
        let setup = |gpu: &Gpu| {
            let dev = DevicePostings::upload_range(gpu, &list, lo, hi, ps.len() as u32).unwrap();
            let full = DeviceEfList::upload(gpu, &list.docs).unwrap();
            (dev, full, gpu.htod(select).unwrap())
        };
        differential(&what, setup, |gpu, (dev, full, blocks)| {
            let (docids, tfs) = para_ef::decode_postings(gpu, dev).unwrap();
            let alone = para_ef::decompress(gpu, &dev.docs).unwrap();
            let out = gpu.alloc::<u32>((select.len() * block_len).max(1)).unwrap();
            let selected = Selected {
                blocks: blocks.clone(),
                count: select.len(),
                stride: block_len,
            };
            para_ef::decompress_selected(gpu, full, selected, &out).unwrap();
            [&docids, &tfs, &alone, &out].map(|b| gpu.dtoh(b).unwrap())
        })
    }

    /// The Para-EF cases: block lengths 32, 64 and 128 with a last block
    /// of one posting; b = 0 and b = 31; tf runs beginning at every byte
    /// alignment with 5-byte varints straddling words; range images; and
    /// a selective decode. Every decode of a second run replays. Mutations
    /// that fail it: the twin dropping a block's last varint
    /// (`&tfs[..tfs.len() - 1]`); the decode's key leaving out
    /// `key.read(&self.block_base)` (the first runs load a buffer the key
    /// does not name).
    #[test]
    fn the_decode_twin_stores_what_the_lanes_store() {
        let mut draw = Draw::new(0xDEC0DE);
        let mut replayed = 0;
        for block_len in [32usize, 64, 128] {
            let max_gap = 1 + draw.below(3000);
            let ps = postings(&mut draw, 7 * block_len + 1, max_gap);
            let select: Vec<u32> = (0..8).filter(|_| draw.below(3) > 0).collect();
            replayed += decode_case(&ps, block_len, 0, 8, &select);
        }
        // b = 0: consecutive docIDs from 0.
        let dense: Vec<Posting> = (0..300)
            .map(|d| Posting {
                docid: d,
                tf: tf(&mut draw),
            })
            .collect();
        replayed += decode_case(&dense, 128, 0, 3, &[2, 0]);
        // b = 31: a last block of one posting 2^31 past its base.
        let mut wide: Vec<Posting> = postings(&mut draw, 64, 4);
        wide.push(Posting {
            docid: u32::MAX - 5,
            tf: 1,
        });
        replayed += decode_case(&wide, 64, 0, 2, &[1]);
        // Runs starting at every byte alignment, and range images.
        let n = 1_000 + draw.below(1_000) as usize;
        let ps = postings(&mut draw, n, 60);
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        let starts: Vec<u32> = list.tf_raw().1.iter().map(|o| o % 4).collect();
        assert!((1..4).all(|a| starts.contains(&a)), "{starts:?}");
        let blocks = ps.len().div_ceil(128);
        for (lo, hi) in [(0, blocks), (1, blocks - 1), (blocks - 1, blocks), (2, 2)] {
            replayed += decode_case(&ps, 128, lo, hi, &[]);
        }
        assert!(native_blocks("para_ef.decode") > 0, "the twin ran");
        assert!(replayed > 0, "second runs replayed");
    }

    /// Copies `src` over `dst`: a launch that rewrites a list in place.
    struct Overwrite {
        src: DeviceBuffer<u32>,
        dst: DeviceBuffer<u32>,
    }

    impl Kernel for Overwrite {
        type State = ();
        fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
            let i = t.global_thread_idx();
            if t.branch(i < self.src.len()) {
                let w = t.ld(&self.src, i);
                t.st(&self.dst, i, w);
            }
        }
    }

    /// Decodes a list, rewrites its words with those of another list of
    /// the same shape (one block: count, width and stream lengths equal,
    /// the ones spread otherwise) and decodes it again: the second decode
    /// must cost what a fresh device's decode of the other list costs.
    /// Mutation that fails it: `WriteLog::apply` not bumping the stamp of
    /// the buffer a run lands in (the decode replays the first list's
    /// counters).
    #[test]
    fn a_decode_of_a_rewritten_list_is_not_replayed() {
        let even: Vec<u32> = (0..128).map(|i| i * 3).collect();
        let mut clustered: Vec<u32> = (0..100).collect();
        clustered.extend((0..28).map(|i| 381 - 9 * (27 - i)));
        let [a, b] = [even, clustered].map(|ids| {
            let list = CompressedPostingList::from_docids(&ids, Codec::EliasFano, 128);
            (ids, list)
        });
        assert_eq!(a.1.docs.words.len(), b.1.docs.words.len(), "one shape");
        for cfg in devices() {
            let decode = |gpu: &Gpu, list: &DeviceEfList| {
                let launches = record(gpu);
                let out = para_ef::decompress(gpu, list).unwrap();
                gpu.set_observer(None);
                let launch = launches.lock().unwrap()[0].clone();
                (gpu.dtoh(&out).unwrap(), launch)
            };
            let fresh = |list: &CompressedPostingList| {
                let gpu = Gpu::new(cfg.clone());
                decode(&gpu, &DeviceEfList::upload(&gpu, &list.docs).unwrap())
            };
            let (want_ids, want) = fresh(&b.1);
            assert_eq!(want_ids, b.0);
            assert_ne!(fresh(&a.1).1, want, "the two lists cost differently");

            let gpu = Gpu::new(cfg.clone());
            let list = DeviceEfList::upload(&gpu, &a.1.docs).unwrap();
            assert_eq!(decode(&gpu, &list).0, a.0);
            let other = gpu.htod(&b.1.docs.words).unwrap();
            let n = other.len();
            let overwrite = Overwrite {
                src: other,
                dst: list.words.clone(),
            };
            gpu.launch(&overwrite, LaunchConfig::cover(n, 32)).unwrap();
            let (ids, launch) = decode(&gpu, &list);
            assert_eq!(ids, b.0, "{}", cfg.trace_sample_stride);
            assert_eq!(launch, want, "{}", cfg.trace_sample_stride);
        }
    }

    /// Intersects `a` and `b` and reads the three match arrays back;
    /// returns the blocks the second runs replayed at stride 1.
    fn intersect_case(what: &str, a: &[u32], b: &[u32]) -> u64 {
        let setup = |gpu: &Gpu| (gpu.htod(a).unwrap(), gpu.htod(b).unwrap());
        differential(what, setup, |gpu, (da, db)| {
            let cfg = MergePathConfig::for_device(gpu.config());
            let m = mergepath::intersect(gpu, da, a.len(), db, b.len(), &cfg).unwrap();
            [&m.docids, &m.a_idx, &m.b_idx].map(|buf| gpu.dtoh_prefix(buf, m.len).unwrap())
        })
    }

    /// `n` distinct sorted docIDs below `universe`.
    fn set(draw: &mut Draw, n: usize, universe: u64) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).map(|_| draw.below(universe) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The MergePath cases: equal pairs on partition boundaries, very
    /// different lengths, empty sides, identical and disjoint lists, drawn
    /// ones, and two that span five or more K20 blocks (4 096 staged
    /// elements each) with matches in every partition (thread), so that a
    /// wrong cut in a barrier image moves the walk of the sampled warp that
    /// reads it.
    fn merge_cases() -> Vec<(String, Vec<u32>, Vec<u32>)> {
        let mut draw = Draw::new(0x3E2E);
        let mut cases = vec![(
            "paper Fig. 6".to_string(),
            vec![1, 3, 4, 6, 7, 9, 15, 25, 31],
            vec![1, 3, 7, 10, 18, 25, 31],
        )];
        let mut case = |what: &str, a: Vec<u32>, b: Vec<u32>| cases.push((what.into(), a, b));
        let all: Vec<u32> = (0..4096).collect();
        let most: Vec<u32> = (0..4096).filter(|i| i % 3 != 1).collect();
        case("equal pairs on boundaries", all, most);
        let sparse: Vec<u32> = (0..32).map(|i| i * 997).collect();
        let dense: Vec<u32> = (0..20_000).collect();
        case("very different lengths", sparse.clone(), dense.clone());
        case("very different lengths, swapped", dense, sparse);
        case("empty A", vec![], vec![1, 2, 3]);
        case("empty B", vec![1, 2, 3], vec![]);
        let v: Vec<u32> = (0..9_000).map(|i| i * 3 + 1).collect();
        case("identical", v.clone(), v);
        let odd: Vec<u32> = (0..5_000).map(|i| i * 2 + 1).collect();
        let even: Vec<u32> = (0..5_000).map(|i| i * 2).collect();
        case("disjoint", odd, even);
        let twos: Vec<u32> = (0..12_000).map(|i| i * 2).collect();
        let threes: Vec<u32> = (0..8_000).map(|i| i * 3).collect();
        case("multiples of 2 and 3", twos, threes);
        for trial in 0..4 {
            let universe = 10_000 + draw.below(60_000);
            let (m, n) = (draw.below(12_000) as usize, draw.below(12_000) as usize);
            let (a, b) = (set(&mut draw, m, universe), set(&mut draw, n, universe));
            case(&format!("drawn {trial}"), a, b);
        }
        let universe = 24_000 + draw.below(8_000);
        let n = universe as usize / 2;
        let (a, b) = (set(&mut draw, n, universe), set(&mut draw, n, universe));
        case("drawn, half of the universe each", a, b);
        cases
    }

    /// Every MergePath case; the merge and the compaction twins both run,
    /// and no launch replays (they declare no key). Mutations that fail
    /// it: the merge twin skipping the equal-pair adjustment of a cut, the
    /// compaction twin copying from one slot past each partition's slab,
    /// the merge's image without the cuts, and a lane of a block the twin
    /// ran logging its store too (`stores_applied` doubles).
    #[test]
    fn the_merge_and_compaction_twins_store_what_the_lanes_store() {
        let mut replayed = 0;
        for (what, a, b) in merge_cases() {
            replayed += intersect_case(&what, &a, &b);
        }
        assert!(native_blocks("mergepath.merge") > 0, "the merge twin ran");
        assert!(
            native_blocks("mergepath.compact") > 0,
            "the compaction twin ran"
        );
        assert_eq!(replayed, 0, "nothing replays");
    }

    /// The scan cases, drawn words (the sums wrap): one element, a tile
    /// less one, one and one more, several tiles, and three levels (more
    /// than 65 536 elements: the block sums are themselves scanned in two
    /// levels).
    fn scan_cases() -> Vec<Vec<u32>> {
        let mut draw = Draw::new(0x5CA7);
        let several = 1_000 + draw.below(9_000) as usize;
        let three_levels = 65_537 + draw.below(20_000) as usize;
        [1, 255, 256, 257, several, three_levels]
            .map(|n| (0..n).map(|_| draw.next() as u32).collect())
            .into()
    }

    /// The scan of `input`, read back with its total.
    fn scan(gpu: &Gpu, input: &[u32], src: &DeviceBuffer<u32>) -> (Vec<u32>, u32) {
        let (dst, total) = scan::exclusive_scan(gpu, src, input.len()).unwrap();
        (gpu.dtoh(&dst).unwrap(), total)
    }

    /// Every scan case. Mutations that fail it: the tile twin storing an
    /// inclusive scan; the uniform-add twin adding the next block's sum.
    #[test]
    fn the_scan_twins_store_what_the_lanes_store() {
        let mut replayed = 0;
        for input in scan_cases() {
            let setup = |gpu: &Gpu| gpu.htod(&input).unwrap();
            let what = format!("scan of {}", input.len());
            replayed += differential(&what, setup, |gpu, src| scan(gpu, &input, src));
        }
        assert!(native_blocks("scan.tile_scan") > 0, "the tile twin ran");
        assert!(
            native_blocks("scan.uniform_add") > 0,
            "the uniform-add twin ran"
        );
        assert_eq!(replayed, 0, "nothing replays");
    }

    /// Every barrier image of every block of the MergePath and scan cases,
    /// on the K20 (four-warp merge blocks), equals word for word the shared
    /// memory the block's lanes leave at that barrier. Mutations that fail
    /// it: the merge's image without the cuts, or with thread 32's cut one
    /// off; the tile-scan image one window too wide, or one word flipped.
    #[test]
    fn the_barrier_images_are_what_the_lanes_leave() {
        let gpu = Gpu::new(DeviceConfig {
            trace_sample_stride: u32::MAX,
            ..DeviceConfig::tesla_k20()
        });
        let cfg = MergePathConfig::for_device(gpu.config());
        MODE.set(Mode::Images);
        let before = IMAGES_CHECKED.get();
        for (_, a, b) in merge_cases() {
            let (da, db) = (gpu.htod(&a).unwrap(), gpu.htod(&b).unwrap());
            mergepath::intersect(&gpu, &da, a.len(), &db, b.len(), &cfg).unwrap();
        }
        let merged = IMAGES_CHECKED.get() - before;
        for input in scan_cases() {
            scan(&gpu, &input, &gpu.htod(&input).unwrap());
        }
        let scanned = IMAGES_CHECKED.get() - before - merged;
        MODE.set(Mode::Twin);
        assert!(
            merged > 0 && scanned > 0,
            "{merged} merge, {scanned} scan images"
        );
    }

    /// Initial scores and both kinds of accumulation (`b_idx` set: tfs of
    /// the whole long list; unset: tfs already match-aligned), with and
    /// without a doc-length table, at lengths that are not multiples of
    /// the 256-thread block; half the docIDs lie beyond the table and take
    /// the average. Score bits are compared. Mutation that fails it: the
    /// accumulation twin reading `tfs[i]` where `b_idx` is set.
    #[test]
    fn the_scoring_twins_store_what_the_lanes_store() {
        let mut draw = Draw::new(0x5C0E);
        let p = ScoreParams {
            idf: 1.0 + draw.below(1000) as f32 / 300.0,
            k1: 1.2,
            b: 0.75,
            avg_doc_len: 250.5,
        };
        let mut replayed = 0;
        for n in [1, 300, 1_000 + draw.below(3_000) as usize] {
            let mut words = |len: usize, f: &mut dyn FnMut(&mut Draw) -> u32| -> Vec<u32> {
                (0..len).map(|_| f(&mut draw)).collect()
            };
            let docids = words(n, &mut |d| d.below(2 * n as u64) as u32);
            let tfs = words(n, &mut tf);
            let lens = words(n, &mut |d| 1 + d.below(1_000) as u32);
            let old = words(n, &mut |d| (d.below(100_000) as f32 / 7.0).to_bits());
            let a_idx = words(n, &mut |d| d.below(n as u64) as u32);
            let long_tfs = words(3 * n, &mut tf);
            let b_idx = words(n, &mut |d| d.below(3 * n as u64) as u32);
            for with_lens in [false, true] {
                let setup = |gpu: &Gpu| {
                    [&docids, &tfs, &lens, &old, &a_idx, &long_tfs, &b_idx]
                        .map(|w| gpu.htod(w).unwrap())
                };
                let what = format!("scoring of {n}, doc lengths {with_lens}");
                replayed += differential(&what, setup, |gpu, bufs| {
                    let [docids, tfs, lens, old, a_idx, long_tfs, b_idx] = bufs;
                    let doc_lens = with_lens.then(|| lens.clone());
                    let lc = LaunchConfig::cover(n, 256);
                    let scores = [(); 3].map(|()| gpu.alloc::<f32>(n).unwrap());
                    let init = ScoreInitKernel {
                        docids: docids.clone(),
                        tfs: tfs.clone(),
                        scores: scores[0].clone(),
                        doc_lens: doc_lens.clone(),
                        p,
                        n,
                    };
                    super::launch(gpu, &init, lc).unwrap();
                    for (out, b_idx) in [(&scores[1], None), (&scores[2], Some(b_idx))] {
                        let accum = ScoreAccumKernel {
                            docids: docids.clone(),
                            old_scores: old.cast(),
                            a_idx: a_idx.clone(),
                            tfs: if b_idx.is_some() { long_tfs } else { tfs }.clone(),
                            b_idx: b_idx.cloned(),
                            out_scores: out.clone(),
                            doc_lens: doc_lens.clone(),
                            p,
                            n,
                        };
                        super::launch(gpu, &accum, lc).unwrap();
                    }
                    scores.map(|s| gpu.dtoh(&s.cast::<u32>()).unwrap())
                });
            }
        }
        assert!(native_blocks("engine.score_init") > 0, "the init twin ran");
        assert!(
            native_blocks("engine.score_accum") > 0,
            "the accumulation twin ran"
        );
        assert_eq!(replayed, 0, "nothing replays");
    }
}
