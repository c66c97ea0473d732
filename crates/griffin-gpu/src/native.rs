//! What the kernels' native twins share: the launch they go through and
//! the host scratch they compute a block's stores in.
//!
//! A native twin ([`Kernel::run_block_native`]) computes the stores of a
//! block the tracer samples no warp of in plain Rust, from the launch-time
//! snapshot; the lane-by-lane body stays the definition. Twins exist for
//! the kernels that take at least 5 % of a `trec-hybrid` pass's simulator
//! host time: `para_ef.decode`, `mergepath.merge` and `mergepath.compact`
//! (DESIGN.md, "How a launch executes on the host").
//!
//! The tests here run every twin against its lane-by-lane body, launch
//! for launch: the same output words, store counts, counters and virtual
//! time at the strides where twins run.

use std::cell::RefCell;

use griffin_gpu_sim::{DeviceError, Gpu, Kernel, LaunchConfig, LaunchReport};

thread_local! {
    static SCRATCH: RefCell<[Vec<u32>; 4]> = const { RefCell::new([const { Vec::new() }; 4]) };
}

/// Runs `f` on this host thread's four scratch vectors, emptied. Their
/// capacity lives as long as the thread: on the launch's caller a twin
/// allocates only while it first grows them, while the helper threads of
/// a fanned-out launch are spawned per launch and grow fresh ones.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut [Vec<u32>; 4]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.iter_mut().for_each(Vec::clear);
        f(scratch)
    })
}

/// [`Gpu::launch`] for a kernel with a native twin. Under test it goes
/// through a wrapper that hides the twin (the lane-by-lane side of a
/// differential test) or counts the blocks it runs.
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
        BlockMem, DeviceConfig, DeviceError, DeviceEvent, Gpu, Kernel, LaunchConfig,
        LaunchCounters, LaunchReport, ThreadCtx,
    };
    use griffin_index::{CompressedPostingList, Posting};

    use crate::mergepath::{self, MergePathConfig};
    use crate::para_ef::{self, Selected};
    use crate::transfer::{DeviceEfList, DevicePostings};

    thread_local! {
        static LANES_ONLY: Cell<bool> = const { Cell::new(false) };
        static NATIVE_BLOCKS: RefCell<BTreeMap<&'static str, u64>> =
            const { RefCell::new(BTreeMap::new()) };
    }

    pub(super) fn launch<K: Kernel>(
        gpu: &Gpu,
        kernel: &K,
        lc: LaunchConfig,
    ) -> Result<LaunchReport, DeviceError> {
        if LANES_ONLY.get() {
            gpu.launch(&LaneOnly(kernel), lc)
        } else {
            gpu.launch(&Counted(kernel), lc)
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
    }

    /// A kernel whose twin runs, and is counted when it does on this
    /// thread (a launch fanned out over helpers counts the caller's share).
    struct Counted<'a, K>(&'a K);

    impl<K: Kernel> Kernel for Counted<'_, K> {
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
        fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
            let ran = self.0.run_block_native(block, mem);
            NATIVE_BLOCKS
                .with_borrow_mut(|n| *n.entry(self.0.name()).or_default() += u64::from(ran));
            ran
        }
    }

    fn native_blocks(kernel: &str) -> u64 {
        NATIVE_BLOCKS.with_borrow(|n| n.get(kernel).copied().unwrap_or(0))
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
    /// (no twin runs), one warp in 16 (the experiments' device) and only
    /// the first (every block but block 0 runs as the twin).
    fn devices() -> Vec<DeviceConfig> {
        let mut all = Vec::new();
        for base in [DeviceConfig::test_tiny(), DeviceConfig::tesla_k20()] {
            for stride in [1, 16, u32::MAX] {
                all.push(DeviceConfig {
                    trace_sample_stride: stride,
                    ..base.clone()
                });
            }
        }
        all
    }

    type Launches = Vec<(&'static str, u64, LaunchCounters)>;

    /// Runs `case` on a fresh device, recording each launch's name,
    /// virtual time and counters (`stores_applied` among them).
    fn observed<R>(cfg: &DeviceConfig, case: &impl Fn(&Gpu) -> R) -> (R, Launches, u64) {
        let gpu = Gpu::new(cfg.clone());
        let launches: Arc<Mutex<Launches>> = Arc::default();
        let log = Arc::clone(&launches);
        gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
            if let DeviceEvent::KernelLaunch { name, report, .. } = e {
                let entry = (*name, report.time.as_nanos(), report.counters.clone());
                log.lock().unwrap().push(entry);
            }
        })));
        let out = case(&gpu);
        gpu.set_observer(None);
        let launches = launches.lock().unwrap().clone();
        (out, launches, gpu.now().as_nanos())
    }

    /// Runs `case` with the twins and with every block lane by lane, on
    /// every device of [`devices`]: the outputs, every launch's time and
    /// counters and the final clock must agree.
    fn differential<R: PartialEq + Debug>(what: &str, case: impl Fn(&Gpu) -> R) {
        for cfg in devices() {
            let ctx = format!(
                "{what} on {} at stride {}",
                cfg.name, cfg.trace_sample_stride
            );
            let before = NATIVE_BLOCKS.with_borrow(|n| n.values().sum::<u64>());
            let twin = observed(&cfg, &case);
            let ran = NATIVE_BLOCKS.with_borrow(|n| n.values().sum::<u64>()) - before;
            LANES_ONLY.set(true);
            let lanes = observed(&cfg, &case);
            LANES_ONLY.set(false);
            assert_eq!(twin.0, lanes.0, "outputs, {ctx}");
            assert_eq!(twin.1, lanes.1, "launches, {ctx}");
            assert_eq!(twin.2, lanes.2, "clock, {ctx}");
            if cfg.trace_sample_stride == 1 {
                assert_eq!(ran, 0, "every block is traced, {ctx}");
            }
        }
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
    fn decode_case(ps: &[Posting], block_len: usize, lo: usize, hi: usize, select: &[u32]) {
        let list = CompressedPostingList::compress(ps, Codec::EliasFano, block_len);
        let what = format!(
            "decode of {} postings, blocks of {block_len}, {lo}..{hi}",
            ps.len()
        );
        differential(&what, |gpu| {
            let dev = DevicePostings::upload_range(gpu, &list, lo, hi, ps.len() as u32).unwrap();
            let (docids, tfs) = para_ef::decode_postings(gpu, &dev).unwrap();
            let alone = para_ef::decompress(gpu, &dev.docs).unwrap();
            let full = DeviceEfList::upload(gpu, &list.docs).unwrap();
            let out = gpu.alloc::<u32>((select.len() * block_len).max(1)).unwrap();
            let selected = Selected {
                blocks: gpu.htod(select).unwrap(),
                count: select.len(),
                stride: block_len,
            };
            para_ef::decompress_selected(gpu, &full, selected, &out).unwrap();
            [&docids, &tfs, &alone, &out].map(|b| gpu.dtoh(b).unwrap())
        });
    }

    /// The Para-EF cases: block lengths 32, 64 and 128 with a last block
    /// of one posting; b = 0 and b = 31; tf runs beginning at every byte
    /// alignment with 5-byte varints straddling words; range images; and
    /// a selective decode. Mutation that fails it: the twin dropping a
    /// block's last varint (`&tfs[..tfs.len() - 1]`).
    #[test]
    fn the_decode_twin_stores_what_the_lanes_store() {
        let mut draw = Draw::new(0xDEC0DE);
        for block_len in [32usize, 64, 128] {
            let max_gap = 1 + draw.below(3000);
            let ps = postings(&mut draw, 7 * block_len + 1, max_gap);
            let select: Vec<u32> = (0..8).filter(|_| draw.below(3) > 0).collect();
            decode_case(&ps, block_len, 0, 8, &select);
        }
        // b = 0: consecutive docIDs from 0.
        let dense: Vec<Posting> = (0..300)
            .map(|d| Posting {
                docid: d,
                tf: tf(&mut draw),
            })
            .collect();
        decode_case(&dense, 128, 0, 3, &[2, 0]);
        // b = 31: a last block of one posting 2^31 past its base.
        let mut wide: Vec<Posting> = postings(&mut draw, 64, 4);
        wide.push(Posting {
            docid: u32::MAX - 5,
            tf: 1,
        });
        decode_case(&wide, 64, 0, 2, &[1]);
        // Runs starting at every byte alignment, and range images.
        let n = 1_000 + draw.below(1_000) as usize;
        let ps = postings(&mut draw, n, 60);
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        let starts: Vec<u32> = list.tf_raw().1.iter().map(|o| o % 4).collect();
        assert!((1..4).all(|a| starts.contains(&a)), "{starts:?}");
        let blocks = ps.len().div_ceil(128);
        for (lo, hi) in [(0, blocks), (1, blocks - 1), (blocks - 1, blocks), (2, 2)] {
            decode_case(&ps, 128, lo, hi, &[]);
        }
        assert!(native_blocks("para_ef.decode") > 0, "the twin ran");
    }

    /// Intersects `a` and `b` and reads the three match arrays back.
    fn intersect_case(what: &str, a: &[u32], b: &[u32]) {
        differential(what, |gpu| {
            let cfg = MergePathConfig::for_device(gpu.config());
            let (da, db) = (gpu.htod(a).unwrap(), gpu.htod(b).unwrap());
            let m = mergepath::intersect(gpu, &da, a.len(), &db, b.len(), &cfg).unwrap();
            [&m.docids, &m.a_idx, &m.b_idx].map(|buf| gpu.dtoh_prefix(buf, m.len).unwrap())
        });
    }

    /// `n` distinct sorted docIDs below `universe`.
    fn set(draw: &mut Draw, n: usize, universe: u64) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).map(|_| draw.below(universe) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The MergePath cases: equal pairs on partition boundaries, very
    /// different lengths, empty sides, identical and disjoint lists, and
    /// drawn ones; the merge and the compaction twins both run. Mutations
    /// that fail it: the merge twin skipping the equal-pair adjustment of
    /// a cut, and the compaction twin copying from one slot past each
    /// partition's slab.
    #[test]
    fn the_merge_and_compaction_twins_store_what_the_lanes_store() {
        let mut draw = Draw::new(0x3E2E);
        intersect_case(
            "paper Fig. 6",
            &[1, 3, 4, 6, 7, 9, 15, 25, 31],
            &[1, 3, 7, 10, 18, 25, 31],
        );
        let all: Vec<u32> = (0..4096).collect();
        let most: Vec<u32> = (0..4096).filter(|i| i % 3 != 1).collect();
        intersect_case("equal pairs on boundaries", &all, &most);
        let sparse: Vec<u32> = (0..32).map(|i| i * 997).collect();
        let dense: Vec<u32> = (0..20_000).collect();
        intersect_case("very different lengths", &sparse, &dense);
        intersect_case("very different lengths, swapped", &dense, &sparse);
        intersect_case("empty A", &[], &[1, 2, 3]);
        intersect_case("empty B", &[1, 2, 3], &[]);
        let v: Vec<u32> = (0..9_000).map(|i| i * 3 + 1).collect();
        intersect_case("identical", &v, &v);
        let odd: Vec<u32> = (0..5_000).map(|i| i * 2 + 1).collect();
        let even: Vec<u32> = (0..5_000).map(|i| i * 2).collect();
        intersect_case("disjoint", &odd, &even);
        for trial in 0..4 {
            let universe = 10_000 + draw.below(60_000);
            let (m, n) = (draw.below(12_000) as usize, draw.below(12_000) as usize);
            let (a, b) = (set(&mut draw, m, universe), set(&mut draw, n, universe));
            intersect_case(&format!("drawn {trial}"), &a, &b);
        }
        assert!(native_blocks("mergepath.merge") > 0, "the merge twin ran");
        assert!(
            native_blocks("mergepath.compact") > 0,
            "the compaction twin ran"
        );
    }
}
