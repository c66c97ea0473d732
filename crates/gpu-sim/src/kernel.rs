//! The kernel programming model: grids, blocks, warps, phases, and the
//! [`ThreadCtx`] through which kernel code touches device state.

use crate::config::DeviceConfig;
use crate::mem::{BufferId, DeviceBuffer, DeviceWord, Pool, WriteLog};
use crate::tracer::{LaunchCounters, Op, WarpTraceState};

/// Launch geometry: a 1-D grid of 1-D blocks (all kernels in this
/// reproduction are naturally 1-D over list elements or partitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchConfig {
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        assert!(grid_dim > 0 && block_dim > 0, "empty launch");
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Enough `block_dim`-sized blocks to cover `n` elements, one thread
    /// per element (the CUDA `(n + b - 1) / b` idiom).
    pub fn cover(n: usize, block_dim: u32) -> Self {
        assert!(block_dim > 0, "zero block_dim");
        let grid = n.div_ceil(block_dim as usize).max(1);
        LaunchConfig::new(grid as u32, block_dim)
    }

    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }
}

/// A GPU kernel.
///
/// A kernel executes `phases()` phases; between consecutive phases there is
/// an implicit block-wide barrier (`__syncthreads`). Per-thread registers
/// that must survive a barrier live in `State`.
///
/// Global memory loads observe the launch-time snapshot; stores retire when
/// the launch completes. Shared memory is coherent across phases within a
/// block.
pub trait Kernel {
    /// Per-thread register state carried across phases.
    type State: Default;

    /// Number of phases (barrier-separated sections). Default 1 (no barrier).
    fn phases(&self) -> usize {
        1
    }

    /// Shared-memory words requested per block.
    fn shared_mem_words(&self, block_dim: u32) -> usize {
        let _ = block_dim;
        0
    }

    /// Human-readable kernel name, used by device observers (telemetry).
    /// Defaults to the implementing type's name with module path stripped.
    fn name(&self) -> &'static str {
        let full = std::any::type_name::<Self>();
        match full.rsplit("::").next() {
            Some(short) if !short.is_empty() => short,
            _ => full,
        }
    }

    /// Body of one thread for one phase.
    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, state: &mut Self::State);

    /// The native twin of one block: plain Rust that logs, through `mem`,
    /// every store the block's threads would make, computed from the
    /// launch-time snapshot in one pass. Called for a block the tracer
    /// samples no warp of, whose sole product is then its stores, and for
    /// a traced block some warp of which is not sampled, when the kernel
    /// has no shared memory or supplies [`Kernel::barrier_images`]: only
    /// the sampled warps then run lane by lane, for their counters, and
    /// their stores are checked and traced but not logged again. The
    /// default declines, and so runs every block lane by lane.
    ///
    /// A twin must leave the pool exactly as the block's threads would,
    /// with the same number of stores. On a block a valid input cannot
    /// produce it returns `false` *before logging anything*, and the
    /// lane-by-lane body, which stays the definition, runs instead, every
    /// warp of it.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let _ = (block, mem);
        false
    }

    /// The block's shared memory at each barrier, computed natively, or
    /// `None` (the default): what lets a traced block of a kernel with
    /// shared memory run only its sampled warps (see
    /// [`Kernel::run_block_native`]). Asked once per launch, before any
    /// block runs; without images every warp of a traced block runs.
    ///
    /// A kernel may supply images only if no lane reads, within a phase, a
    /// shared word that another warp writes in that phase: that is a race
    /// on hardware, which the simulator resolves by lane order, and the
    /// sampled warps would read the barrier's word instead.
    fn barrier_images(&self) -> Option<&dyn BarrierImages> {
        None
    }

    /// Declares, into `key`, what this launch's counters are a function
    /// of, and so makes it replayable: every buffer its threads load from
    /// ([`LaunchKey::read`]), every buffer they store to
    /// ([`LaunchKey::write`]) and every scalar they use
    /// ([`LaunchKey::param`]). A launch under a key the device has seen
    /// runs no lane through the tracer: every block goes to the native twin
    /// (a block the twin declines runs lane by lane, untraced), and the
    /// counters, the time and the clock come from the first run (DESIGN.md,
    /// "How a launch executes on the host"). The default declares nothing
    /// and returns `false`: the launch is never replayed.
    fn memo_key(&self, key: &mut LaunchKey) -> bool {
        let _ = key;
        false
    }
}

/// A kernel's shared memory as a block's threads leave it at each barrier
/// ([`Kernel::barrier_images`]).
pub trait BarrierImages {
    /// Overwrites `shared`, every word of it, with the shared memory block
    /// `block`'s threads leave at the barrier before `phase` (`phase >= 1`),
    /// word for word, from shared memory that starts each block zeroed.
    /// Called only for a block the twin accepted, before that phase runs,
    /// with `shared` holding what the sampled warps left.
    fn image(&self, block: u32, phase: usize, mem: &BlockMem<'_>, shared: &mut [u32]);
}

/// What one launch depends on, as its kernel declares it
/// ([`Kernel::memo_key`]). The device resolves it, with the pool locked,
/// into the full key: the kernel's type and the launch geometry, the
/// parameters, each buffer's length and which declared handles name the
/// same buffer, and each read buffer's write stamp.
#[derive(Default)]
pub struct LaunchKey {
    pub(crate) bufs: Vec<Declared>,
    pub(crate) params: Vec<u64>,
}

/// One declared handle.
pub(crate) struct Declared {
    pub(crate) id: BufferId,
    pub(crate) generation: u32,
    pub(crate) len: usize,
    pub(crate) read: bool,
}

impl LaunchKey {
    /// A buffer the launch loads from: its contents are part of the key.
    pub fn read<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>) {
        self.declare(buf, true);
    }

    /// A buffer the launch stores to: its length is part of the key, its
    /// contents are not (a buffer it also loads is declared both ways).
    pub fn write<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>) {
        self.declare(buf, false);
    }

    /// A scalar the threads use (an `f32` passes its bits).
    pub fn param(&mut self, value: u64) {
        self.params.push(value);
    }

    fn declare<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, read: bool) {
        self.bufs.push(Declared {
            id: buf.id,
            generation: buf.generation,
            len: buf.len,
            read,
        });
    }
}

/// Debug builds, the first run of a replayable launch: panics unless its
/// kernel declared buffer `id` for this access (`read`: a load).
#[inline]
fn guard(declared: Option<&LaunchKey>, id: BufferId, read: bool) {
    if let (true, Some(key)) = (cfg!(debug_assertions), declared) {
        assert!(
            key.bufs.iter().any(|d| d.id == id && d.read == read),
            "a replayable kernel {} buffer {id:?}, which it did not declare",
            if read { "loads" } else { "stores to" }
        );
    }
}

/// What a native block may touch: the launch-time snapshot, read a buffer
/// at a time, and its executor's write log, written a run at a time.
pub struct BlockMem<'a> {
    pool: &'a Pool,
    log: &'a mut WriteLog,
    block_dim: u32,
    declared: Option<&'a LaunchKey>,
}

impl<'a> BlockMem<'a> {
    /// Threads per block of the launch, as [`ThreadCtx::block_dim`].
    #[inline]
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// The launch-time words of `buf`. Panics on a stale handle, as a
    /// host-side read does; the check is once per call, not per element.
    #[inline]
    pub fn words(&self, buf: &DeviceBuffer<u32>) -> &'a [u32] {
        guard(self.declared, buf.id, true);
        self.pool.words_of(buf.id, buf.generation)
    }

    /// Stores `words` to `buf[start..]`, visible when the launch retires,
    /// as that many single stores would be.
    #[inline]
    pub fn st_run(&mut self, buf: &DeviceBuffer<u32>, start: usize, words: &[u32]) {
        guard(self.declared, buf.id, false);
        assert!(
            start + words.len() <= buf.len,
            "device store out of bounds: {start}..{} >= {} (buffer {:?})",
            start + words.len(),
            buf.len,
            buf.id
        );
        self.log.push_run(buf.id, buf.generation, start, words);
    }
}

/// Execution context of one thread (lane) during one phase.
///
/// All device-state access and all cost charging flows through this type.
pub struct ThreadCtx<'a> {
    /// Index of this thread's block within the grid.
    pub block_idx: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// This thread's index within its block.
    pub thread_idx: u32,
    /// Blocks in the grid.
    pub grid_dim: u32,

    pool: &'a Pool,
    /// `None` for a sampled warp of a block whose twin logged the stores.
    writes: Option<&'a mut WriteLog>,
    shared: &'a mut [u32],
    trace: Option<&'a mut WarpTraceState>,
    declared: Option<&'a LaunchKey>,
    transaction_bytes: u32,
    branch_site: usize,
    mem_site: usize,
}

impl<'a> ThreadCtx<'a> {
    /// Global linear thread index (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn global_thread_idx(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.thread_idx as usize
    }

    /// Total threads in the launch.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.grid_dim as usize * self.block_dim as usize
    }

    /// Load one element from global memory. Panics, in every build, on an
    /// index out of bounds and on a stale handle.
    #[inline]
    pub fn ld<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        guard(self.declared, buf.id, true);
        let w = self.pool.load(buf.id, buf.generation, idx);
        if let Some(tr) = self.trace.as_deref_mut() {
            let addr = (u64::from(buf.id.0) << 40) | (idx as u64 * 4);
            tr.record_gmem(self.mem_site, addr, self.transaction_bytes);
        }
        self.mem_site += 1;
        T::from_word(w)
    }

    /// Store one element to global memory (visible after the launch).
    /// Panics, in every build, on an index out of bounds.
    #[inline]
    pub fn st<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) {
        guard(self.declared, buf.id, false);
        assert!(
            idx < buf.len,
            "device store out of bounds: {idx} >= {} (buffer {:?})",
            buf.len,
            buf.id
        );
        if let Some(writes) = self.writes.as_deref_mut() {
            writes.push(buf.id, buf.generation, idx, v.to_word());
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            let addr = (u64::from(buf.id.0) << 40) | (idx as u64 * 4);
            tr.record_gmem(self.mem_site, addr, self.transaction_bytes);
        }
        self.mem_site += 1;
    }

    /// Load a word from block-shared memory.
    #[inline]
    pub fn ld_shared(&mut self, idx: usize) -> u32 {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.counters.smem_accesses += 1;
        }
        self.shared[idx]
    }

    /// Store a word to block-shared memory (visible to later phases; within
    /// a phase, visibility follows lane execution order as on real hardware
    /// without a barrier — don't rely on it).
    #[inline]
    pub fn st_shared(&mut self, idx: usize, v: u32) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.counters.smem_accesses += 1;
        }
        self.shared[idx] = v;
    }

    /// Block-local atomic add; returns the previous value.
    #[inline]
    pub fn atomic_add_shared(&mut self, idx: usize, v: u32) -> u32 {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.counters.atomics += 1;
        }
        let old = self.shared[idx];
        self.shared[idx] = old.wrapping_add(v);
        old
    }

    /// Charge `n` simple ALU ops.
    #[inline]
    pub fn alu(&mut self, n: u32) {
        self.op(Op::Alu, n);
    }

    /// Charge `n` ops of class `op`.
    #[inline]
    pub fn op(&mut self, op: Op, n: u32) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.counters.ops[op.idx()] += u64::from(n);
        }
    }

    /// Record a branch and return its condition, so kernel code reads
    /// naturally: `if t.branch(a < b) { ... }`. Divergence is detected by
    /// comparing outcomes across the warp's lanes at the same branch site.
    #[inline]
    pub fn branch(&mut self, cond: bool) -> bool {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record_branch(self.branch_site, cond);
        }
        self.branch_site += 1;
        cond
    }
}

/// What it takes to execute a launch's blocks: the write log and the
/// per-block scratch. The device owns one and reuses it from launch to
/// launch, so everything here is cleared where it is next used, never
/// reallocated (and never trusted to be clean: a kernel that panicked
/// mid-block leaves the executor as it was).
#[derive(Default)]
pub(crate) struct Executor {
    pub(crate) log: WriteLog,
    shared: Vec<u32>,
    /// One trace state per warp of a block; only sampled warps use theirs.
    traces: Vec<WarpTraceState>,
}

/// One launch, as its blocks see it.
pub(crate) struct Launch<'a, K> {
    pub(crate) kernel: &'a K,
    pub(crate) cfg: &'a DeviceConfig,
    pub(crate) lc: LaunchConfig,
    pub(crate) pool: &'a Pool,
    /// `false` for a replayed launch: no warp is sampled, so every block
    /// is offered to the native twin and one it declines runs untraced.
    pub(crate) traced: bool,
    /// The kernel's [`Kernel::barrier_images`], asked once per launch.
    pub(crate) images: Option<&'a dyn BarrierImages>,
    /// Debug builds, the first run of a replayable launch: the declaration
    /// every load and store is checked against.
    pub(crate) declared: Option<&'a LaunchKey>,
}

/// Panics unless the device can run `kernel` with this geometry.
pub(crate) fn check_launch<K: Kernel>(kernel: &K, cfg: &DeviceConfig, lc: LaunchConfig) {
    let bdim = lc.block_dim;
    assert!(
        bdim <= cfg.max_threads_per_block,
        "block_dim {bdim} exceeds device limit {}",
        cfg.max_threads_per_block
    );
    let smem_words = kernel.shared_mem_words(bdim);
    assert!(
        smem_words <= cfg.shared_mem_words_per_block,
        "kernel requests {smem_words} shared words, device has {}",
        cfg.shared_mem_words_per_block
    );
}

/// Runs all phases of the launch's kernel for every block, in block
/// order, appending stores to the executor's log, and returns the sampled
/// warps' counters, summed. A block with no sampled warp is first offered
/// to the kernel's native twin; so is a traced block some warp of which is
/// not sampled, if the kernel has no shared memory or supplies barrier
/// images, and when the twin accepts it only the sampled warps run, their
/// stores not logged (the twin logged the block's), with each barrier's
/// image installed before the phase after it.
pub(crate) fn run_blocks<K: Kernel>(l: &Launch<'_, K>, exec: &mut Executor) -> LaunchCounters {
    let (kernel, cfg, lc, pool) = (l.kernel, l.cfg, l.lc, l.pool);
    let bdim = lc.block_dim;
    let smem_words = kernel.shared_mem_words(bdim);
    let warp_size = cfg.warp_size;
    let warps_in_block = bdim.div_ceil(warp_size);
    let stride = u64::from(cfg.trace_sample_stride.max(1));
    let phases = kernel.phases();
    // Whether the sampled warps of a traced block can run without the
    // others: they share nothing but shared memory, whose state at each
    // barrier the images give.
    let images = l.images.filter(|_| smem_words > 0);
    let may_skip = smem_words == 0 || images.is_some();

    let Executor {
        log,
        shared,
        traces,
    } = exec;
    if traces.len() < warps_in_block as usize {
        traces.resize_with(warps_in_block as usize, WarpTraceState::default);
    }
    let mut states: Vec<K::State> = (0..bdim).map(|_| K::State::default()).collect();
    let mut counters = LaunchCounters::default();

    for block_idx in 0..lc.grid_dim {
        let sampled = |w: u32| {
            l.traced
                && (u64::from(block_idx) * u64::from(warps_in_block) + u64::from(w)) % stride == 0
        };
        let traced = (0..warps_in_block).any(sampled);
        let offered = !traced || (may_skip && !(0..warps_in_block).all(sampled));
        let native = offered && {
            let logged = log.stores();
            let mut mem = BlockMem {
                pool,
                log,
                block_dim: bdim,
                declared: l.declared,
            };
            let accepted = kernel.run_block_native(block_idx, &mut mem);
            assert!(
                accepted || log.stores() == logged,
                "a native twin that declines a block must not have logged stores"
            );
            accepted
        };
        if native && !traced {
            continue;
        }
        // The warps that run lane by lane: all of them, or the sampled ones
        // of a block the twin computed.
        let runs = |w: u32| !native || sampled(w);
        shared.clear();
        shared.resize(smem_words, 0);
        for w in (0..warps_in_block).filter(|&w| sampled(w)) {
            traces[w as usize].reset();
        }

        for phase in 0..phases {
            if let (true, 1.., Some(images)) = (native, phase, images) {
                let mem = BlockMem {
                    pool,
                    log,
                    block_dim: bdim,
                    declared: l.declared,
                };
                images.image(block_idx, phase, &mem, shared);
            }
            for w in (0..warps_in_block).filter(|&w| runs(w)) {
                let mut tr = if sampled(w) {
                    Some(&mut traces[w as usize])
                } else {
                    None
                };
                let first = w * warp_size;
                let last = (first + warp_size).min(bdim);
                for tid in first..last {
                    let mut ctx = ThreadCtx {
                        block_idx,
                        block_dim: bdim,
                        thread_idx: tid,
                        grid_dim: lc.grid_dim,
                        pool,
                        writes: if native { None } else { Some(&mut *log) },
                        shared,
                        trace: tr.as_deref_mut(),
                        declared: l.declared,
                        transaction_bytes: cfg.transaction_bytes,
                        branch_site: 0,
                        mem_site: 0,
                    };
                    kernel.run_phase(phase, &mut ctx, &mut states[tid as usize]);
                }
                if let Some(tr) = tr {
                    tr.flush_sites();
                }
            }
        }

        for w in (0..warps_in_block).filter(|&w| sampled(w)) {
            counters.absorb(&traces[w as usize].counters);
        }
        for state in &mut states {
            *state = K::State::default();
        }
    }
    counters
}
