//! The simulated device: memory management, transfers, kernel launches, and
//! the virtual clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::VirtualNanos;
use crate::config::DeviceConfig;
use crate::fault::{DeviceError, FaultKind, FaultPlan, FaultState, OpClass};
use crate::kernel::{check_launch, run_blocks, Executor, Kernel, Launch, LaunchConfig, LaunchKey};
use crate::mem::{class_bytes, DeviceBuffer, DeviceWord, MemStats, Pool};
use crate::observe::{DeviceEvent, DeviceObserver, PoolStats, TransferDir};
use crate::pcie::transfer_time;
use crate::stream::{StreamEvent, StreamKind, StreamTable};
use crate::timing::{kernel_time, TimeBreakdown};
use crate::tracer::LaunchCounters;

/// Result of one kernel launch: how long it took in virtual time, the
/// performance counters behind that number, and the timing breakdown.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    pub time: VirtualNanos,
    pub breakdown: TimeBreakdown,
    pub counters: LaunchCounters,
    pub config: LaunchConfig,
}

/// A simulated GPU.
///
/// All operations advance the device's virtual clock by their modelled
/// cost; callers read the clock with [`Gpu::now`] or measure spans with
/// [`Gpu::time`]. The functional results of kernels are bit-exact.
///
/// Allocations, transfers, and kernel launches are fallible: they return
/// [`DeviceError`] on real memory exhaustion and on faults injected by an
/// installed [`FaultPlan`]. Failed attempts still advance the virtual
/// clock by the cost of the attempt (see [`crate::fault`]).
pub struct Gpu {
    cfg: DeviceConfig,
    pool: Mutex<Pool>,
    clock_ns: AtomicU64,
    stats: MemStats,
    /// The write log and block scratch every launch runs its blocks with,
    /// on the calling thread, reused from launch to launch. Locked after
    /// `pool`, by launches only.
    executor: Mutex<Executor>,
    /// Passive telemetry hook (see [`crate::observe`]). The flag keeps the
    /// disabled-path cost to one relaxed atomic load per operation.
    observed: AtomicBool,
    observer: Mutex<Option<Arc<DeviceObserver>>>,
    /// Fallible operations issued since the fault plan was installed.
    /// Counted only while a plan is armed, so un-faulted runs pay a single
    /// relaxed load per operation.
    ops: AtomicU64,
    fault_armed: AtomicBool,
    faults: Mutex<Option<FaultState>>,
    /// Per-engine retire frontiers for async (stream) scheduling; see
    /// [`crate::stream`]. Disabled by default, in which case every
    /// operation is strictly serial on the host-visible clock.
    streams: Mutex<StreamTable>,
}

impl Gpu {
    pub fn new(cfg: DeviceConfig) -> Self {
        let plan = cfg.fault_plan.clone();
        let gpu = Gpu {
            cfg,
            pool: Mutex::new(Pool::default()),
            clock_ns: AtomicU64::new(0),
            stats: MemStats::default(),
            executor: Mutex::new(Executor::default()),
            observed: AtomicBool::new(false),
            observer: Mutex::new(None),
            ops: AtomicU64::new(0),
            fault_armed: AtomicBool::new(false),
            faults: Mutex::new(None),
            streams: Mutex::new(StreamTable::default()),
        };
        gpu.set_fault_plan(plan);
        gpu
    }

    /// Installs (or, with `None`, removes) a fault-injection plan, resetting
    /// the operation counter and any sticky device-lost state — the
    /// simulated equivalent of swapping in a healthy device.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.ops.store(0, Ordering::Relaxed);
        let mut slot = self.faults.lock().unwrap_or_else(|p| p.into_inner());
        self.fault_armed.store(plan.is_some(), Ordering::Release);
        *slot = plan.map(FaultState::new);
    }

    /// Decides whether the next fallible operation faults. Increments the
    /// operation counter only while a plan is armed.
    #[inline]
    fn fault_check(&self, class: OpClass) -> Option<(u64, FaultKind)> {
        if !self.fault_armed.load(Ordering::Acquire) {
            return None;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.faults.lock().unwrap_or_else(|p| p.into_inner());
        guard
            .as_mut()
            .and_then(|st| st.fire(op, class))
            .map(|k| (op, k))
    }

    /// Maps a fired fault to its error, charging the cost of the failed
    /// attempt: transient faults cost the full modelled operation (computed
    /// by the caller via `attempt_cost`), a lost device fails fast at the
    /// fixed submission overhead `submit_cost`.
    fn fault_error(
        &self,
        op: u64,
        kind: FaultKind,
        requested_bytes: u64,
        submit_cost: u64,
        attempt_cost: VirtualNanos,
    ) -> DeviceError {
        match kind {
            FaultKind::DeviceLost => {
                self.advance(VirtualNanos::from_nanos(submit_cost));
                DeviceError::DeviceLost { op_index: op }
            }
            FaultKind::KernelLaunchFailed => {
                self.advance(attempt_cost);
                DeviceError::KernelLaunchFailed { op_index: op }
            }
            FaultKind::TransferError { dir } => {
                self.advance(attempt_cost);
                DeviceError::TransferError { dir, op_index: op }
            }
            FaultKind::DeviceOom => {
                // An injected allocator failure costs the driver call, like
                // a real failed cudaMalloc.
                self.advance(VirtualNanos::from_nanos(submit_cost));
                DeviceError::DeviceOom {
                    requested_bytes,
                    in_use_bytes: self.mem_in_use(),
                    capacity_bytes: self.cfg.global_mem_bytes,
                }
            }
        }
    }

    /// Installs (or, with `None`, removes) a passive observer that is
    /// called after every kernel launch and PCIe transfer. Observers are
    /// read-only: they can never change functional results or the virtual
    /// clock, which is what makes tracing-on vs. tracing-off equivalence
    /// testable.
    pub fn set_observer(&self, observer: Option<Arc<DeviceObserver>>) {
        self.observed.store(observer.is_some(), Ordering::Release);
        *self.observer.lock().unwrap_or_else(|p| p.into_inner()) = observer;
    }

    /// Hands the observer, if there is one, the event `make` builds around
    /// the allocator's totals (read only when somebody is looking).
    #[inline]
    fn observe<'a>(&self, make: impl FnOnce(PoolStats) -> DeviceEvent<'a>) {
        if !self.observed.load(Ordering::Acquire) {
            return;
        }
        // The guard is dropped before the callback runs, so a panicking
        // observer can neither poison this mutex nor deadlock the device;
        // recover from poison anyway in case a past panic won a race.
        let obs = self
            .observer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(obs) = obs {
            obs(&make(self.pool_stats()));
        }
    }

    fn observe_transfer(
        &self,
        direction: TransferDir,
        bytes: u64,
        start: VirtualNanos,
        duration: VirtualNanos,
    ) {
        self.observe(|pool| DeviceEvent::Transfer {
            direction,
            bytes,
            start,
            duration,
            pool,
        });
    }

    fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.stats.pool_hits.load(Ordering::Relaxed),
            misses: self.stats.pool_misses.load(Ordering::Relaxed),
            trimmed: self.stats.pool_trimmed.load(Ordering::Relaxed),
            cached_bytes: self.mem_cached(),
        }
    }

    #[inline]
    pub(crate) fn lock_pool(&self) -> MutexGuard<'_, Pool> {
        // Recover from poison: the pool's structure is only mutated between
        // launches (kernel stores buffer in write logs and apply after
        // execution), so a panic mid-launch leaves it consistent. Poisoning
        // the device for every later query would turn one bad kernel or
        // observer into a permanent outage.
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Current virtual time on this device.
    pub fn now(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.clock_ns.load(Ordering::Relaxed))
    }

    /// Advance the clock by an externally computed cost (used by engines to
    /// charge work that happens "on" the device outside a kernel).
    pub fn advance(&self, by: VirtualNanos) {
        self.clock_ns.fetch_add(by.as_nanos(), Ordering::Relaxed);
    }

    #[inline]
    fn lock_streams(&self) -> MutexGuard<'_, StreamTable> {
        self.streams.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enables or disables asynchronous (stream) scheduling.
    ///
    /// Enabling seeds both stream frontiers from the current clock;
    /// disabling first synchronizes (the clock advances to the last
    /// retire frontier) so no scheduled work is ever silently dropped.
    /// Both directions are idempotent. See [`crate::stream`] for the
    /// timing and functional semantics.
    pub fn set_async(&self, enabled: bool) {
        let mut st = self.lock_streams();
        if st.enabled == enabled {
            return;
        }
        if enabled {
            let now = self.clock_ns.load(Ordering::Relaxed);
            st.busy_until = [now; crate::stream::NUM_STREAMS];
        } else {
            let f = st.frontier();
            self.clock_ns.fetch_max(f, Ordering::Relaxed);
        }
        st.enabled = enabled;
    }

    /// Whether asynchronous (stream) scheduling is currently enabled.
    pub fn async_enabled(&self) -> bool {
        self.lock_streams().enabled
    }

    /// Records an event on a stream: the virtual time at which everything
    /// issued on it so far retires (`cudaEventRecord`). In serial mode
    /// this is simply the current clock.
    pub fn record_event(&self, stream: StreamKind) -> StreamEvent {
        let st = self.lock_streams();
        let now = self.clock_ns.load(Ordering::Relaxed);
        let at = if st.enabled {
            st.busy_until[stream.index()].max(now)
        } else {
            now
        };
        StreamEvent::at(VirtualNanos::from_nanos(at))
    }

    /// Makes future work on `stream` start no earlier than `event`
    /// (`cudaStreamWaitEvent`). A no-op in serial mode, where issue order
    /// already implies completion order.
    pub fn stream_wait(&self, stream: StreamKind, event: StreamEvent) {
        let mut st = self.lock_streams();
        if !st.enabled {
            return;
        }
        let i = stream.index();
        st.busy_until[i] = st.busy_until[i].max(event.ready_at().as_nanos());
    }

    /// Blocks the host until `event` completes (`cudaEventSynchronize`):
    /// the clock advances to the event's retire time if it is in the
    /// future.
    pub fn wait_event(&self, event: StreamEvent) {
        self.clock_ns
            .fetch_max(event.ready_at().as_nanos(), Ordering::Relaxed);
    }

    /// Blocks the host until every stream is idle
    /// (`cudaDeviceSynchronize`). A no-op in serial mode.
    pub fn sync(&self) {
        let st = self.lock_streams();
        if st.enabled {
            self.clock_ns.fetch_max(st.frontier(), Ordering::Relaxed);
        }
    }

    /// The retire frontier of one stream (tests and property checks).
    pub fn stream_busy_until(&self, stream: StreamKind) -> VirtualNanos {
        VirtualNanos::from_nanos(self.lock_streams().busy_until[stream.index()])
    }

    /// Blocks the host until one stream is idle (`cudaStreamSynchronize`).
    pub fn stream_sync(&self, stream: StreamKind) {
        let ev = self.record_event(stream);
        self.wait_event(ev);
    }

    /// Schedules `duration` of work onto `stream` and returns its start
    /// time. Serial mode: the work starts now and the clock advances over
    /// it. Async mode: the work starts at `max(stream frontier, clock)`
    /// and occupies the stream until it retires — the clock does not move
    /// (that happens at a wait/sync).
    fn schedule_op(&self, stream: StreamKind, duration: VirtualNanos) -> VirtualNanos {
        let mut st = self.lock_streams();
        if !st.enabled {
            drop(st);
            let start = self.now();
            self.advance(duration);
            return start;
        }
        let clock = self.clock_ns.load(Ordering::Relaxed);
        let i = stream.index();
        let start = st.busy_until[i].max(clock);
        st.busy_until[i] = start.saturating_add(duration.as_nanos());
        VirtualNanos::from_nanos(start)
    }

    /// Error surfacing is a synchronization point, as with a real driver:
    /// before a failed attempt is charged to the host clock, all
    /// in-flight stream work retires. Keeps "failed attempt cost" visible
    /// to callers that measure spans around fallible operations, which is
    /// what makes step durations sum exactly to query totals even when
    /// faults land during overlapped execution.
    fn join_streams_for_error(&self) {
        self.sync();
    }

    /// Measure the virtual time consumed by `f`.
    pub fn time<R>(&self, f: impl FnOnce(&Gpu) -> R) -> (R, VirtualNanos) {
        let start = self.now();
        let r = f(self);
        (r, self.now() - start)
    }

    /// Bytes of the live device buffers, as requested.
    pub fn mem_in_use(&self) -> u64 {
        self.lock_pool().bytes_in_use
    }

    /// Device memory the caching allocator holds beyond
    /// [`Gpu::mem_in_use`]: blocks waiting on the free lists, plus what
    /// rounding up to the size class adds to the live scratch buffers.
    /// `mem_in_use() + mem_cached()` is what the driver has handed out and
    /// not got back, and is what counts against the device's capacity.
    pub fn mem_cached(&self) -> u64 {
        let pool = self.lock_pool();
        pool.bytes_reserved - pool.bytes_in_use
    }

    /// Gives every cached block back to the driver, each a charged,
    /// counted `cudaFree`. The allocator does this itself before it
    /// reports the device full.
    pub fn trim_pool(&self) {
        self.trim(&mut self.lock_pool());
    }

    fn trim(&self, pool: &mut Pool) {
        let blocks = pool.trim();
        self.stats.on_frees(blocks);
        self.stats.pool_trimmed.fetch_add(blocks, Ordering::Relaxed);
        self.advance(VirtualNanos::from_nanos(blocks * self.cfg.free_overhead_ns));
    }

    /// Obtains `bytes` from the driver: the capacity check, made *before*
    /// a buffer is created so a failed allocation leaves none behind. Cached
    /// blocks are given back first if that is what it takes to fit. The
    /// caller charges the successful `cudaMalloc`; the failed one is
    /// charged here.
    fn reserve(&self, pool: &mut Pool, bytes: u64) -> Result<(), DeviceError> {
        let capacity = self.cfg.global_mem_bytes;
        if pool.bytes_reserved.saturating_add(bytes) > capacity {
            self.trim(pool);
        }
        if pool.bytes_reserved.saturating_add(bytes) > capacity {
            self.advance(VirtualNanos::from_nanos(self.cfg.malloc_overhead_ns));
            return Err(DeviceError::DeviceOom {
                requested_bytes: bytes,
                in_use_bytes: pool.bytes_reserved,
                capacity_bytes: capacity,
            });
        }
        pool.bytes_reserved += bytes;
        self.stats.on_alloc();
        self.stats.track_peak(pool.bytes_reserved);
        Ok(())
    }

    /// Allocate a zeroed scratch buffer of `len` elements, from the
    /// device's caching allocator.
    ///
    /// The request is served by a block of its size class (the next power
    /// of two in words). If a freed block of that class is waiting, it is
    /// handed out again for `pool_hit_overhead_ns` of host bookkeeping: no
    /// driver call is made, so there is no `cudaMalloc` charge, no
    /// `stats().allocs` count and no [`FaultPlan`] draw. Otherwise this is
    /// a `cudaMalloc` of the block, charged `malloc_overhead_ns`, and
    /// fallible like one. Either way the buffer reads all-zero and its
    /// handle is new: a stale handle to the block's previous owner panics.
    pub fn alloc<T: DeviceWord>(&self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let mut pool = self.lock_pool();
        let hit = pool.take_cached(len);
        if !hit {
            drop(pool);
            let bytes = class_bytes(len);
            if let Some((op, kind)) = self.fault_check(OpClass::Alloc) {
                return Err(self.fault_error(
                    op,
                    kind,
                    bytes,
                    self.cfg.malloc_overhead_ns,
                    VirtualNanos::from_nanos(self.cfg.malloc_overhead_ns),
                ));
            }
            pool = self.lock_pool();
            self.reserve(&mut pool, bytes)?;
        }
        let (id, generation) = pool.alloc(vec![0u32; len], true);
        drop(pool);
        let (counter, cost) = if hit {
            (&self.stats.pool_hits, self.cfg.pool_hit_overhead_ns)
        } else {
            (&self.stats.pool_misses, self.cfg.malloc_overhead_ns)
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.advance(VirtualNanos::from_nanos(cost));
        Ok(DeviceBuffer::new(id, len, generation))
    }

    /// Fault draw of an upload of `bytes`: a transient fault costs the
    /// `cudaMalloc` and the DMA the wire carried.
    fn htod_fault(&self, bytes: u64) -> Result<(), DeviceError> {
        if let Some((op, kind)) = self.fault_check(OpClass::Transfer(TransferDir::HtoD)) {
            self.join_streams_for_error();
            let attempt = VirtualNanos::from_nanos(self.cfg.malloc_overhead_ns)
                + transfer_time(&self.cfg.pcie, bytes);
            return Err(self.fault_error(op, kind, bytes, self.cfg.pcie.latency_ns, attempt));
        }
        Ok(())
    }

    /// Shared tail of the upload paths: the `cudaMalloc` charge, and the
    /// DMA scheduled on the copy stream.
    fn finish_htod(&self, bytes: u64) {
        self.stats.htod_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.advance(VirtualNanos::from_nanos(self.cfg.malloc_overhead_ns));
        let duration = transfer_time(&self.cfg.pcie, bytes);
        let start = self.schedule_op(StreamKind::Copy, duration);
        self.observe_transfer(TransferDir::HtoD, bytes, start, duration);
    }

    /// Allocate and fill from host memory: `cudaMalloc` + host→device DMA.
    ///
    /// An upload's buffer is a driver allocation of its exact size and is
    /// given back to the driver when freed; it never enters the caching
    /// allocator. The DMA runs on the copy stream, so a recycled block
    /// handed to it could still be read by a kernel in flight on the
    /// compute stream; only scratch, which lives on the compute stream
    /// alone, is recycled.
    pub fn htod<T: DeviceWord>(&self, host: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = host.len() as u64 * 4;
        self.htod_fault(bytes)?;
        let words: Vec<u32> = host.iter().map(|v| v.to_word()).collect();
        let mut pool = self.lock_pool();
        self.reserve(&mut pool, bytes)?;
        let (id, generation) = pool.alloc(words, false);
        drop(pool);
        self.finish_htod(bytes);
        Ok(DeviceBuffer::new(id, host.len(), generation))
    }

    /// Allocate-and-fill several arrays with a *single* DMA transfer (one
    /// PCIe latency charge, one fault draw and one `cudaMalloc` for the
    /// combined payload) — models packing multiple arrays into one
    /// `cudaMemcpy`, which any serious implementation does for per-list
    /// metadata. The staged arrays are *moved* into the device pool, not
    /// copied; callers destructure the result:
    ///
    /// ```ignore
    /// let [hb, lb] = gpu.htod_packed([high_bits, low_bits])?;
    /// ```
    pub fn htod_packed<const N: usize>(
        &self,
        parts: [Vec<u32>; N],
    ) -> Result<[DeviceBuffer<u32>; N], DeviceError> {
        let total_bytes: u64 = parts.iter().map(|p| p.len() as u64 * 4).sum();
        self.htod_fault(total_bytes)?;
        let mut pool = self.lock_pool();
        self.reserve(&mut pool, total_bytes)?;
        let out = parts.map(|part| {
            let len = part.len();
            let (id, generation) = pool.alloc(part, false);
            DeviceBuffer::new(id, len, generation)
        });
        drop(pool);
        self.finish_htod(total_bytes);
        Ok(out)
    }

    /// One device→host DMA of `bytes`, its payload taken from the pool by
    /// `read`: the fault draw, the join, the charge and the event of every
    /// read-back (see [`Gpu::dtoh`]).
    fn read_back<R>(&self, bytes: u64, read: impl FnOnce(&Pool) -> R) -> Result<R, DeviceError> {
        if let Some((op, kind)) = self.fault_check(OpClass::Transfer(TransferDir::DtoH)) {
            self.join_streams_for_error();
            let attempt = transfer_time(&self.cfg.pcie, bytes);
            return Err(self.fault_error(op, kind, bytes, self.cfg.pcie.latency_ns, attempt));
        }
        self.stream_sync(StreamKind::Compute);
        let out = read(&self.lock_pool());
        self.stats.dtoh_bytes.fetch_add(bytes, Ordering::Relaxed);
        let start = self.now();
        let duration = transfer_time(&self.cfg.pcie, bytes);
        self.advance(duration);
        self.observe_transfer(TransferDir::DtoH, bytes, start, duration);
        Ok(out)
    }

    /// Copy a buffer back to the host: device→host DMA. Host-blocking —
    /// in async mode the clock first advances to the *compute* frontier
    /// (the data was produced by kernels), then the DMA is charged
    /// serially. The HtoD copy stream is deliberately not joined: the K20
    /// has a dedicated copy engine per direction, so a download never
    /// waits behind an in-flight upload/prefetch. Callers downloading a
    /// buffer that came straight from `htod` (no kernel in between) must
    /// [`Gpu::wait_event`] its upload first — the engines do.
    pub fn dtoh<T: DeviceWord>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, DeviceError> {
        self.dtoh_prefix(buf, buf.len())
    }

    /// Copy a prefix of a buffer back to the host (common after compaction
    /// kernels where only `len` of the allocation is meaningful).
    pub fn dtoh_prefix<T: DeviceWord>(
        &self,
        buf: &DeviceBuffer<T>,
        len: usize,
    ) -> Result<Vec<T>, DeviceError> {
        assert!(len <= buf.len());
        self.read_back(len as u64 * 4, |pool| prefix_of(pool, buf, len))
    }

    /// Copy the first `len` elements of two buffers back with a *single*
    /// DMA transfer — the read-back twin of [`Gpu::htod_packed`]: one join
    /// of the compute stream, one link latency and one fault draw for the
    /// combined payload (a result's docIDs and scores are one logical
    /// read).
    pub fn dtoh_packed_prefix<A: DeviceWord, B: DeviceWord>(
        &self,
        a: &DeviceBuffer<A>,
        b: &DeviceBuffer<B>,
        len: usize,
    ) -> Result<(Vec<A>, Vec<B>), DeviceError> {
        assert!(len <= a.len() && len <= b.len());
        self.read_back(len as u64 * 8, |pool| {
            (prefix_of(pool, a, len), prefix_of(pool, b, len))
        })
    }

    /// Read a single element without charging transfer time (host-side
    /// debugging/tests only).
    pub fn peek<T: DeviceWord>(&self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        let pool = self.lock_pool();
        T::from_word(pool.words_of(buf.id, buf.generation)[idx])
    }

    /// Release a buffer. Scratch from [`Gpu::alloc`] goes back to its size
    /// class's free list, at no charge and with no driver call; an
    /// upload's buffer is `cudaFree`d and charged.
    pub fn free<T: DeviceWord>(&self, buf: DeviceBuffer<T>) {
        let pooled = self.lock_pool().free(buf.id, buf.generation);
        if !pooled {
            self.stats.on_frees(1);
            self.advance(VirtualNanos::from_nanos(self.cfg.free_overhead_ns));
        }
    }

    /// Time to move `bytes` across PCIe (exposed for scheduler estimates).
    pub fn pcie_time(&self, bytes: u64) -> VirtualNanos {
        transfer_time(&self.cfg.pcie, bytes)
    }

    /// Launch a kernel and advance the clock by its modelled duration.
    ///
    /// An injected [`FaultKind::KernelLaunchFailed`] models a kernel that
    /// crashes at retire: the launch runs functionally (so its cost is the
    /// real modelled cost) and charges full virtual time, but none of its
    /// stores become visible and no observer event is emitted. A lost
    /// device fails at submission, charging only the launch overhead.
    ///
    /// A launch whose kernel declares a key ([`Kernel::memo_key`]) equal to
    /// one this device has run since is replayed: its blocks run untraced,
    /// and its counters come from that run, so its report, its time and
    /// the clock are what they were.
    pub fn launch<K: Kernel>(
        &self,
        kernel: &K,
        lc: LaunchConfig,
    ) -> Result<LaunchReport, DeviceError> {
        let fault = self.fault_check(OpClass::Kernel);
        if let Some((op, FaultKind::DeviceLost)) = fault {
            self.join_streams_for_error();
            self.advance(VirtualNanos::from_nanos(self.cfg.kernel_launch_overhead_ns));
            return Err(DeviceError::DeviceLost { op_index: op });
        }
        check_launch(kernel, &self.cfg, lc);

        let mut pool = self.lock_pool();
        // Recover from poison like `lock_pool`: the executor is cleared
        // where it is next used, so a launch that panicked (and so never
        // reached the clear at retire) leaves nothing a later one can see.
        let mut exec = self.executor.lock().unwrap_or_else(|p| p.into_inner());
        exec.log.clear();
        let warps_per_block = lc.block_dim.div_ceil(self.cfg.warp_size);
        let mut declared = LaunchKey::default();
        let replayable = kernel.memo_key(&mut declared);
        let memo = replayable
            .then(|| pool.resolve(std::any::type_name::<K>(), lc, &declared))
            .flatten();
        let replay = memo
            .as_ref()
            .and_then(|(home, key)| pool.recall(*home, key));

        let launch = Launch {
            kernel,
            cfg: &self.cfg,
            lc,
            pool: &pool,
            traced: replay.is_none(),
            images: kernel.barrier_images(),
            declared: (cfg!(debug_assertions) && replayable && replay.is_none())
                .then_some(&declared),
        };
        let mut counters = run_blocks(&launch, &mut exec);
        let stores = exec.log.stores() as u64;
        let counters = match replay {
            Some(replay) => {
                assert_eq!(
                    stores,
                    replay.stores_applied,
                    "a replayed launch of {} must store what its first run stored",
                    kernel.name()
                );
                replay
            }
            None => {
                counters.total_warps = u64::from(lc.grid_dim) * u64::from(warps_per_block);
                counters.stores_applied = stores;
                counters.extrapolate();
                if let Some((home, key)) = memo {
                    // Before the stores retire: a launch that writes the
                    // buffer keeping the entry drops it again.
                    pool.remember(home, key, counters.clone());
                }
                counters
            }
        };

        if fault.is_none() {
            exec.log.apply(&mut pool);
        }
        exec.log.clear();
        drop(exec);
        drop(pool);

        let breakdown = kernel_time(&self.cfg, &counters);
        let time = breakdown.total();

        if let Some((op, kind)) = fault {
            // A failed launch surfaces at a synchronization point: retire
            // in-flight stream work, then charge the wasted attempt to the
            // host clock (serial mode: plain clock advance, as before).
            self.join_streams_for_error();
            self.advance(time);
            return Err(match kind {
                FaultKind::TransferError { dir } => {
                    DeviceError::TransferError { dir, op_index: op }
                }
                FaultKind::DeviceOom => DeviceError::DeviceOom {
                    requested_bytes: 0,
                    in_use_bytes: self.mem_in_use(),
                    capacity_bytes: self.cfg.global_mem_bytes,
                },
                _ => DeviceError::KernelLaunchFailed { op_index: op },
            });
        }

        let start = self.schedule_op(StreamKind::Compute, time);
        let report = LaunchReport {
            time,
            breakdown,
            counters,
            config: lc,
        };
        self.observe(|pool| DeviceEvent::KernelLaunch {
            name: kernel.name(),
            start,
            report: &report,
            pool,
        });
        Ok(report)
    }

    /// Aggregate transfer/allocation statistics for reports.
    pub fn stats(&self) -> DeviceStatsSnapshot {
        DeviceStatsSnapshot {
            allocs: self.stats.allocs.load(Ordering::Relaxed),
            frees: self.stats.frees.load(Ordering::Relaxed),
            htod_bytes: self.stats.htod_bytes.load(Ordering::Relaxed),
            dtoh_bytes: self.stats.dtoh_bytes.load(Ordering::Relaxed),
            peak_bytes: self.stats.peak_bytes.load(Ordering::Relaxed),
            pool: self.pool_stats(),
        }
    }
}

/// The first `len` elements of the buffer `buf` names, generation-checked.
fn prefix_of<T: DeviceWord>(pool: &Pool, buf: &DeviceBuffer<T>, len: usize) -> Vec<T> {
    pool.words_of(buf.id, buf.generation)[..len]
        .iter()
        .map(|&w| T::from_word(w))
        .collect()
}

/// Point-in-time copy of device statistics. `allocs` and `frees` count
/// driver calls (`cudaMalloc`, `cudaFree`); what the caching allocator
/// served without one is in `pool`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStatsSnapshot {
    pub allocs: u64,
    pub frees: u64,
    pub htod_bytes: u64,
    pub dtoh_bytes: u64,
    pub peak_bytes: u64,
    pub pool: PoolStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ThreadCtx;

    struct AddOne {
        src: DeviceBuffer<u32>,
        dst: DeviceBuffer<u32>,
        n: usize,
    }

    impl Kernel for AddOne {
        type State = ();
        fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
            let i = t.global_thread_idx();
            if t.branch(i < self.n) {
                let v: u32 = t.ld(&self.src, i);
                t.alu(1);
                t.st(&self.dst, i, v + 1);
            }
        }
    }

    #[test]
    fn functional_roundtrip() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let data: Vec<u32> = (0..500).collect();
        let src = gpu.htod(&data).unwrap();
        let dst = gpu.alloc::<u32>(500).unwrap();
        gpu.launch(
            &AddOne {
                src,
                dst: dst.clone(),
                n: 500,
            },
            LaunchConfig::cover(500, 128),
        )
        .unwrap();
        let out = gpu.dtoh(&dst).unwrap();
        assert_eq!(out.len(), 500);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn a_store_through_a_stale_handle_panics_at_retire() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let a = gpu.htod(&[1u32, 2, 3]).unwrap();
        let stale = a.clone();
        gpu.free(a);
        let b = gpu.htod(&[4u32, 5, 6]).unwrap();
        assert_eq!(b.id, stale.id, "B took over A's slot");
        let kernel = AddOne {
            src: gpu.htod(&[7u32, 8, 9]).unwrap(),
            dst: stale,
            n: 3,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = gpu.launch(&kernel, LaunchConfig::cover(3, 32));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("stale device buffer handle"), "{msg}");
        assert_eq!(gpu.dtoh(&b).unwrap(), vec![4, 5, 6], "B is untouched");
    }

    /// In every build: before, the generation was compared in debug builds
    /// only, and a release build loaded the new owner's words.
    #[test]
    fn a_load_through_a_stale_handle_panics_in_every_build() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let a = gpu.htod(&[1u32, 2, 3]).unwrap();
        let stale = a.clone();
        gpu.free(a);
        let b = gpu.htod(&[4u32, 5, 6]).unwrap();
        assert_eq!(b.id, stale.id, "B took over A's slot");
        let kernel = AddOne {
            src: stale,
            dst: gpu.alloc::<u32>(3).unwrap(),
            n: 3,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = gpu.launch(&kernel, LaunchConfig::cover(3, 32));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("stale device buffer handle"), "{msg}");
        assert_eq!(gpu.dtoh(&kernel.dst).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn a_stale_handle_is_caught_once_its_slot_is_reused() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let a = gpu.htod(&[1u32, 2, 3]).unwrap();
        let stale = a.clone();
        gpu.free(a);
        let b = gpu.htod(&[4u32, 5, 6]).unwrap();
        assert_eq!(b.id, stale.id, "B took over A's slot");
        let caught = |f: &dyn Fn()| {
            let err = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("stale device buffer handle"), "{msg}");
        };
        caught(&|| {
            let _ = gpu.dtoh(&stale);
        });
        caught(&|| {
            let _ = gpu.dtoh_prefix(&stale, 1);
        });
        caught(&|| {
            let _ = gpu.peek(&stale, 0);
        });
        caught(&|| gpu.free(stale.clone()));
        // B is untouched by all of it.
        assert_eq!(gpu.dtoh(&b).unwrap(), vec![4, 5, 6]);
        gpu.free(b);
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    fn clock_advances_with_every_operation() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let t0 = gpu.now();
        let buf = gpu.htod(&[1u32, 2, 3]).unwrap();
        let t1 = gpu.now();
        assert!(t1 > t0, "htod must charge time");
        let _ = gpu.dtoh(&buf).unwrap();
        let t2 = gpu.now();
        assert!(t2 > t1, "dtoh must charge time");
        gpu.free(buf);
        assert!(gpu.now() > t2, "free must charge time");
    }

    #[test]
    fn alloc_free_accounting() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let a = gpu.alloc::<u32>(1000).unwrap();
        assert_eq!(gpu.mem_in_use(), 4000);
        let b = gpu.alloc::<u32>(500).unwrap();
        assert_eq!(gpu.mem_in_use(), 6000);
        gpu.free(a);
        assert_eq!(gpu.mem_in_use(), 2000);
        gpu.free(b);
        assert_eq!(gpu.mem_in_use(), 0);
        let s = gpu.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 0, "scratch goes back to the pool, not the driver");
        assert_eq!(s.peak_bytes, 4096 + 2048, "blocks, at their class size");
        assert_eq!(gpu.mem_cached(), s.peak_bytes);
    }

    #[test]
    fn oom_is_an_error_with_no_side_effects() {
        let gpu = Gpu::new(DeviceConfig::test_tiny()); // 64 MB
        let t0 = gpu.now();
        let res = gpu.alloc::<u32>(20 * 1024 * 1024); // 80 MB: a 128 MB block
        match res {
            Err(DeviceError::DeviceOom {
                requested_bytes,
                in_use_bytes,
                capacity_bytes,
            }) => {
                assert_eq!(requested_bytes, 128 * 1024 * 1024);
                assert_eq!(in_use_bytes, 0);
                assert_eq!(capacity_bytes, 64 * 1024 * 1024);
            }
            other => panic!("expected DeviceOom, got {other:?}"),
        }
        // The failed cudaMalloc costs time but allocates nothing.
        assert!(gpu.now() > t0);
        assert_eq!(gpu.mem_in_use(), 0);
        assert_eq!(gpu.stats().allocs, 0);
        // The device stays usable.
        let b = gpu.alloc::<u32>(16).unwrap();
        gpu.free(b);
    }

    #[test]
    fn time_helper_measures_span() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let (_, t) = gpu.time(|g| {
            let b = g.htod(&[0u32; 1024]).unwrap();
            g.free(b);
        });
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn dtoh_prefix_returns_prefix_and_charges_less() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let buf = gpu.htod(&(0u32..1000).collect::<Vec<_>>()).unwrap();
        let t0 = gpu.now();
        let few = gpu.dtoh_prefix(&buf, 10).unwrap();
        let t_few = gpu.now() - t0;
        assert_eq!(few, (0u32..10).collect::<Vec<_>>());
        let t1 = gpu.now();
        let _all = gpu.dtoh(&buf).unwrap();
        let t_all = gpu.now() - t1;
        assert!(t_all >= t_few);
    }

    /// Runs a fixed op sequence and returns (outputs, final clock).
    fn run_sequence(gpu: &Gpu) -> (Vec<u32>, u64) {
        let data: Vec<u32> = (0..500).collect();
        let src = gpu.htod(&data).expect("htod");
        let dst = gpu.alloc::<u32>(500).expect("alloc");
        gpu.launch(
            &AddOne {
                src: src.clone(),
                dst: dst.clone(),
                n: 500,
            },
            LaunchConfig::cover(500, 128),
        )
        .expect("launch");
        let out = gpu.dtoh(&dst).expect("dtoh");
        gpu.free(src);
        gpu.free(dst);
        (out, gpu.now().as_nanos())
    }

    #[test]
    fn armed_noop_plan_is_bit_exact() {
        let plain = Gpu::new(DeviceConfig::test_tiny());
        let mut cfg = DeviceConfig::test_tiny();
        cfg.fault_plan = Some(crate::fault::FaultPlan::seeded(1234));
        let armed = Gpu::new(cfg);
        assert_eq!(run_sequence(&plain), run_sequence(&armed));
    }

    #[test]
    fn injected_kernel_fault_charges_time_and_hides_stores() {
        let mut cfg = DeviceConfig::test_tiny();
        // Ops: 0 = htod, 1 = alloc, 2 = launch.
        cfg.fault_plan =
            Some(crate::fault::FaultPlan::seeded(0).fail_at(2, FaultKind::KernelLaunchFailed));
        let gpu = Gpu::new(cfg);
        let src = gpu.htod(&(0u32..500).collect::<Vec<_>>()).unwrap();
        let dst = gpu.alloc::<u32>(500).unwrap();
        let t0 = gpu.now();
        let err = gpu
            .launch(
                &AddOne {
                    src,
                    dst: dst.clone(),
                    n: 500,
                },
                LaunchConfig::cover(500, 128),
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::KernelLaunchFailed { op_index: 2 });
        assert!(err.is_transient());
        assert!(gpu.now() > t0, "a failed attempt still costs virtual time");
        // No stores became visible.
        let out = gpu.dtoh(&dst).unwrap();
        assert!(out.iter().all(|&v| v == 0), "stores must not be applied");
        // Retry succeeds (the fault was pinned to op 2 only).
        let src2 = gpu.htod(&(0u32..500).collect::<Vec<_>>()).unwrap();
        gpu.launch(
            &AddOne {
                src: src2,
                dst: dst.clone(),
                n: 500,
            },
            LaunchConfig::cover(500, 128),
        )
        .unwrap();
        let out = gpu.dtoh(&dst).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn failed_transfer_charges_the_attempt() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.fault_plan = Some(crate::fault::FaultPlan::seeded(0).fail_at(
            0,
            FaultKind::TransferError {
                dir: TransferDir::HtoD,
            },
        ));
        let gpu = Gpu::new(cfg);
        let data = vec![0u32; 1 << 20];
        let t0 = gpu.now();
        let err = gpu.htod(&data).unwrap_err();
        let charged = (gpu.now() - t0).as_nanos();
        assert!(matches!(err, DeviceError::TransferError { .. }));
        // Full attempt cost: malloc overhead + the DMA the wire carried.
        let modelled = gpu.pcie_time(1 << 22).as_nanos() + 50;
        assert_eq!(charged, modelled);
        assert_eq!(gpu.mem_in_use(), 0, "failed upload leaves no allocation");
    }

    #[test]
    fn device_loss_is_sticky_until_plan_reset() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.fault_plan = Some(crate::fault::FaultPlan::seeded(0).lose_device_at(1));
        let gpu = Gpu::new(cfg);
        let buf = gpu.htod(&[1u32, 2, 3]).unwrap(); // op 0: fine
        let err = gpu.dtoh(&buf).unwrap_err(); // op 1: lost
        assert_eq!(err, DeviceError::DeviceLost { op_index: 1 });
        assert!(!err.is_transient());
        // Everything afterwards fails fast...
        assert!(gpu.alloc::<u32>(4).is_err());
        assert!(gpu.htod(&[9u32]).is_err());
        // ...but free still works (host-side bookkeeping).
        gpu.free(buf);
        assert_eq!(gpu.mem_in_use(), 0);
        // Installing a fresh plan models swapping in a healthy device.
        gpu.set_fault_plan(None);
        let b = gpu.htod(&[7u32]).unwrap();
        assert_eq!(gpu.dtoh(&b).unwrap(), vec![7]);
    }

    #[test]
    fn probabilistic_faults_are_reproducible() {
        let run = |seed: u64| -> Vec<bool> {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.fault_plan =
                Some(crate::fault::FaultPlan::seeded(seed).with_transfer_fault_rate(0.3));
            let gpu = Gpu::new(cfg);
            (0..64).map(|_| gpu.htod(&[1u32, 2]).is_err()).collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        assert!(run(5).iter().any(|&f| f), "30% over 64 ops should fire");
    }

    #[test]
    fn panicking_observer_does_not_poison_the_device() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_observer(Some(Arc::new(|_e: &DeviceEvent<'_>| {
            panic!("observer bug")
        })));
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = gpu.htod(&[1u32, 2, 3]);
        }));
        assert!(r.is_err(), "the observer panic propagates to the caller");
        // A later query must not find a poisoned device.
        gpu.set_observer(None);
        let buf = gpu.htod(&[4u32, 5]).unwrap();
        assert_eq!(gpu.dtoh(&buf).unwrap(), vec![4, 5]);
        gpu.free(buf);
    }

    /// Stores, loads and branches like `AddOne`, then panics half-way
    /// through the grid: the executor is left with a part-filled log and
    /// open trace sites.
    struct PanicKernel(AddOne);
    impl Kernel for PanicKernel {
        type State = ();
        fn run_phase(&self, p: usize, t: &mut ThreadCtx<'_>, s: &mut ()) {
            self.0.run_phase(p, t, s);
            if t.block_idx == 1 && t.thread_idx == 40 {
                panic!("kernel bug");
            }
        }
    }

    #[test]
    fn panicking_kernel_poisons_neither_the_pool_nor_the_next_launch() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let add_one = |gpu: &Gpu| AddOne {
            src: gpu.htod(&(0u32..500).collect::<Vec<_>>()).unwrap(),
            dst: gpu.alloc::<u32>(500).unwrap(),
            n: 500,
        };
        let lc = LaunchConfig::cover(500, 128);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let doomed = PanicKernel(add_one(&gpu));
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = gpu.launch(&doomed, lc);
        }));
        assert!(r.is_err());
        assert!(
            gpu.dtoh(&doomed.0.dst).unwrap().iter().all(|&v| v == 0),
            "a launch that never retired stores nothing"
        );
        // The pool and executor locks were held across the panic; a later
        // launch must find neither poisoned, and nothing of the dead one.
        let kernel = add_one(&gpu);
        let report = gpu.launch(&kernel, lc).unwrap();
        let fresh = Gpu::new(DeviceConfig::test_tiny());
        let fresh_kernel = add_one(&fresh);
        let fresh_report = fresh.launch(&fresh_kernel, lc).unwrap();
        assert_eq!(report.counters, fresh_report.counters);
        assert_eq!(report.time, fresh_report.time);
        assert_eq!(
            gpu.dtoh(&kernel.dst).unwrap(),
            fresh.dtoh(&fresh_kernel.dst).unwrap()
        );
    }

    #[test]
    fn panicking_kernel_inside_a_scope_leaves_memory_where_it_started() {
        use crate::scope::Scope;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let survivor = gpu.htod(&[4u32, 5]).unwrap();
        let before = gpu.mem_in_use();
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut scope = Scope::new(&gpu);
            let doomed = PanicKernel(AddOne {
                src: scope.adopt(gpu.htod(&(0u32..500).collect::<Vec<_>>()).unwrap()),
                dst: scope.alloc::<u32>(500).unwrap(),
                n: 500,
            });
            let _ = gpu.launch(&doomed, LaunchConfig::cover(500, 128));
        }));
        assert!(r.is_err());
        assert_eq!(gpu.mem_in_use(), before, "the unwind ran the scope's drop");
        assert_eq!(gpu.stats().frees, 1, "the upload; the scratch is cached");
        assert_eq!(gpu.mem_cached(), 2048);
        assert_eq!(gpu.dtoh(&survivor).unwrap(), vec![4, 5]);
    }

    #[test]
    fn async_mode_is_bit_exact_and_never_slower() {
        let serial = Gpu::new(DeviceConfig::test_tiny());
        let (out_serial, t_serial) = run_sequence(&serial);

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_async(true);
        let (out_async, _) = run_sequence(&gpu);
        gpu.set_async(false); // syncs: clock covers all scheduled work
        let t_async = gpu.now().as_nanos();

        assert_eq!(out_serial, out_async, "results must not depend on overlap");
        assert!(
            t_async <= t_serial,
            "critical path ({t_async}) cannot exceed the serial sum ({t_serial})"
        );
    }

    #[test]
    fn stream_wait_orders_dependent_work_and_copies_overlap_compute() {
        use crate::stream::StreamKind;
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        gpu.set_async(true);
        let n = 200_000;
        let data: Vec<u32> = (0..n as u32).collect();
        let src = gpu.htod(&data).unwrap();
        let up = gpu.record_event(StreamKind::Copy);
        let dst = gpu.alloc::<u32>(n).unwrap();
        gpu.stream_wait(StreamKind::Compute, up);
        gpu.launch(
            &AddOne {
                src,
                dst: dst.clone(),
                n,
            },
            LaunchConfig::cover(n, 128),
        )
        .unwrap();
        let kernel_done = gpu.record_event(StreamKind::Compute);
        assert!(
            kernel_done.ready_at() >= up.ready_at(),
            "a kernel that waits on an upload cannot retire before it"
        );
        // A second (small) upload issued while the kernel runs finishes
        // under it: that is the copy/compute overlap the model exists for.
        let src2 = gpu.htod(&[1u32, 2, 3, 4]).unwrap();
        let up2 = gpu.record_event(StreamKind::Copy);
        assert!(
            up2.ready_at() < kernel_done.ready_at(),
            "the copy engine must be free while the compute engine is busy"
        );
        gpu.sync();
        assert_eq!(
            gpu.now(),
            kernel_done.ready_at().max(up2.ready_at()),
            "sync advances the clock to the last stream frontier"
        );
        // dtoh is host-blocking and sees the kernel's stores.
        let out = gpu.dtoh(&dst).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        gpu.free(dst);
        gpu.free(src2);
    }

    #[test]
    fn fault_during_async_work_charges_at_a_sync_point() {
        use crate::stream::StreamKind;
        let mut cfg = DeviceConfig::test_tiny();
        // Ops: 0 = htod, 1 = htod (faulted).
        cfg.fault_plan = Some(crate::fault::FaultPlan::seeded(0).fail_at(
            1,
            FaultKind::TransferError {
                dir: TransferDir::HtoD,
            },
        ));
        let gpu = Gpu::new(cfg);
        gpu.set_async(true);
        let big = vec![0u32; 1 << 20];
        let first = gpu.htod(&big).unwrap();
        let scheduled = gpu.stream_busy_until(StreamKind::Copy);
        assert!(
            gpu.now() < scheduled,
            "the first upload is still in flight on the copy stream"
        );
        let t0 = gpu.now();
        let err = gpu.htod(&[1u32, 2]).unwrap_err();
        assert!(matches!(err, DeviceError::TransferError { .. }));
        // The error joined the streams first, then charged the attempt:
        // everything scheduled so far is inside the measured clock.
        assert!(gpu.now() >= scheduled, "error surfacing synchronizes");
        assert!(gpu.now() > t0, "the failed attempt still costs time");
        gpu.free(first);
        gpu.set_async(false);
    }
}
