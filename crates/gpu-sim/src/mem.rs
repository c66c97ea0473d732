//! Device memory: a pool of word-addressed buffers plus the write log that
//! gives launches their "visible at retire" store semantics.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::kernel::{LaunchConfig, LaunchKey};
use crate::tracer::LaunchCounters;

/// Types that can live in device memory. Device buffers are word-addressed
/// (32-bit), matching how the kernels in this reproduction treat data
/// (docIDs, frequencies, compressed words, float scores via their bit
/// patterns).
pub trait DeviceWord: Copy + Send + Sync + 'static {
    fn to_word(self) -> u32;
    fn from_word(w: u32) -> Self;
}

impl DeviceWord for u32 {
    #[inline]
    fn to_word(self) -> u32 {
        self
    }
    #[inline]
    fn from_word(w: u32) -> Self {
        w
    }
}

impl DeviceWord for i32 {
    #[inline]
    fn to_word(self) -> u32 {
        self as u32
    }
    #[inline]
    fn from_word(w: u32) -> Self {
        w as i32
    }
}

impl DeviceWord for f32 {
    #[inline]
    fn to_word(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_word(w: u32) -> Self {
        f32::from_bits(w)
    }
}

/// Opaque identifier of a buffer within one device's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) u32);

/// A typed handle to device memory. Handles are cheap to clone and do not
/// own the storage: it is released by a [`crate::Scope`] when the function
/// that allocated it exits, or by [`crate::Gpu::free`] for an owner that
/// outlives one call. Where that happens decides which later request can
/// reuse the block and, for an upload's buffer, when its `cudaFree` is
/// charged; see [`crate::Scope`].
#[derive(Debug)]
pub struct DeviceBuffer<T: DeviceWord> {
    pub(crate) id: BufferId,
    pub(crate) len: usize,
    /// Generation guard: a handle whose buffer was freed, even if a new
    /// buffer took its slot, panics at every host entry point and when a
    /// launch's stores through it retire.
    pub(crate) generation: u32,
    _marker: PhantomData<T>,
}

impl<T: DeviceWord> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer {
            id: self.id,
            len: self.len,
            generation: self.generation,
            _marker: PhantomData,
        }
    }
}

impl<T: DeviceWord> DeviceBuffer<T> {
    pub(crate) fn new(id: BufferId, len: usize, generation: u32) -> Self {
        DeviceBuffer {
            id,
            len,
            generation,
            _marker: PhantomData,
        }
    }

    /// Number of `T` elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes (each element is one 32-bit word).
    pub fn size_bytes(&self) -> u64 {
        self.len as u64 * 4
    }

    /// Reinterprets the handle as a different word type (e.g. viewing a
    /// `DeviceBuffer<f32>` of scores as raw `u32` words for a radix pass).
    pub fn cast<U: DeviceWord>(&self) -> DeviceBuffer<U> {
        DeviceBuffer::new(self.id, self.len, self.generation)
    }
}

pub(crate) struct RawBuf {
    pub(crate) words: Vec<u32>,
    pub(crate) generation: u32,
    pub(crate) live: bool,
    /// Born in [`crate::Gpu::alloc`]: occupies a whole size-class block,
    /// which goes back to the class's free list when the buffer is freed.
    /// Upload-born buffers are exact-size driver allocations and never do.
    pooled: bool,
    /// Device-unique, set when the buffer is made and again whenever a
    /// launch's stores to it retire: those are the only two places its
    /// words change, so two equal stamps mean equal contents.
    stamp: u64,
    /// Replay entries of the launches whose youngest read buffer this is:
    /// dropped when it is written or freed, so an entry never outlives
    /// the contents it was keyed on (see [`crate::Kernel::memo_key`]).
    pub(crate) memo: Vec<Replay>,
}

/// The full key of a declared launch (see [`Pool::resolve`]).
#[derive(PartialEq, Eq)]
pub(crate) struct MemoKey {
    kernel: &'static str,
    words: Vec<u64>,
}

/// What a launch under a key counted; the stores are recomputed.
pub(crate) struct Replay {
    key: MemoKey,
    counters: LaunchCounters,
}

/// Size class of a request of `len` words: log2 of the words in the block
/// that serves it, the next power of two (a zero-length request takes a
/// one-word block).
fn class_of(len: usize) -> u32 {
    usize::BITS - len.saturating_sub(1).leading_zeros()
}

/// Bytes of the block that serves a request of `len` words. Saturates, so
/// an absurd request fails the capacity check instead of overflowing.
pub(crate) fn class_bytes(len: usize) -> u64 {
    1u64.checked_shl(class_of(len))
        .and_then(|words| words.checked_mul(4))
        .unwrap_or(u64::MAX)
}

/// The device memory pool. Immutable (`&Pool`) during a launch; write logs
/// are applied between launches.
///
/// Also the books of the caching allocator. A cached block has no content
/// anyone may read (a block is handed out zero-filled), so a free list is a
/// count per size class and the host keeps no storage behind it.
#[derive(Default)]
pub(crate) struct Pool {
    pub(crate) bufs: Vec<RawBuf>,
    free_slots: Vec<u32>,
    /// Bytes of the live buffers, as requested.
    pub(crate) bytes_in_use: u64,
    /// Bytes obtained from the driver and not returned: live buffers
    /// (pooled ones at their block size) plus the cached blocks. This is
    /// what counts against the device's capacity.
    pub(crate) bytes_reserved: u64,
    /// `cached[c]` blocks of class `c` (`4 << c` bytes) wait for reuse.
    cached: Vec<u32>,
    /// The last write stamp handed out.
    stamps: u64,
}

impl Pool {
    /// Takes a cached block that serves a request of `len` words off its
    /// free list, if there is one.
    pub(crate) fn take_cached(&mut self, len: usize) -> bool {
        match self.cached.get_mut(class_of(len) as usize) {
            Some(blocks) if *blocks > 0 => {
                *blocks -= 1;
                true
            }
            _ => false,
        }
    }

    /// Gives every cached block back to the driver; returns how many.
    pub(crate) fn trim(&mut self) -> u64 {
        let mut blocks = 0;
        for (class, cached) in self.cached.iter_mut().enumerate() {
            blocks += u64::from(*cached);
            self.bytes_reserved -= u64::from(*cached) * (4 << class);
            *cached = 0;
        }
        blocks
    }

    /// Makes `words` a live buffer. Its memory is already booked in
    /// `bytes_reserved`: by the caller, or, for a `pooled` buffer served
    /// from a free list, since the block was first obtained.
    pub(crate) fn alloc(&mut self, words: Vec<u32>, pooled: bool) -> (BufferId, u32) {
        self.bytes_in_use += words.len() as u64 * 4;
        let stamp = self.stamp();
        let made = |generation| RawBuf {
            words,
            generation,
            live: true,
            pooled,
            stamp,
            memo: Vec::new(),
        };
        // Reuse a dead slot if available to keep the pool compact.
        if let Some(slot) = self.free_slots.pop() {
            let b = &mut self.bufs[slot as usize];
            let generation = b.generation + 1;
            *b = made(generation);
            return (BufferId(slot), generation);
        }
        self.bufs.push(made(0));
        (BufferId((self.bufs.len() - 1) as u32), 0)
    }

    /// A write stamp no buffer of this pool has had.
    fn stamp(&mut self) -> u64 {
        self.stamps += 1;
        self.stamps
    }

    /// Panics unless `id` is live and is still the allocation the handle
    /// was made for. A stale handle (freed, or freed and the slot since
    /// reused) is a caller bug, and it must not read or free whatever lives
    /// in the slot now.
    fn check_handle(&self, id: BufferId, generation: u32) {
        let b = &self.bufs[id.0 as usize];
        assert!(
            b.live,
            "double free or use after free of device buffer {id:?}"
        );
        assert!(
            b.generation == generation,
            "stale device buffer handle (use-after-free) for {id:?}"
        );
    }

    /// Ends a buffer's life. A pooled buffer's block joins its class's free
    /// list and stays reserved (returns `true`: no driver call is due); any
    /// other buffer's bytes go back to the driver.
    pub(crate) fn free(&mut self, id: BufferId, generation: u32) -> bool {
        self.check_handle(id, generation);
        let b = &mut self.bufs[id.0 as usize];
        let len = b.words.len();
        b.live = false;
        b.words = Vec::new();
        b.memo = Vec::new();
        let pooled = b.pooled;
        self.free_slots.push(id.0);
        self.bytes_in_use -= len as u64 * 4;
        if pooled {
            let class = class_of(len) as usize;
            if self.cached.len() <= class {
                self.cached.resize(class + 1, 0);
            }
            self.cached[class] += 1;
        } else {
            self.bytes_reserved -= len as u64 * 4;
        }
        pooled
    }

    /// Words of a buffer, unchecked (tests).
    #[cfg(test)]
    pub(crate) fn words(&self, id: BufferId) -> &[u32] {
        &self.bufs[id.0 as usize].words
    }

    /// One word on the kernel load path, checked in every build at the
    /// cost of one compare on the slot the load reads anyway: a handle of
    /// another generation panics, and a freed buffer holds no words, so a
    /// load through a stale handle never returns the word of whatever
    /// buffer took its slot.
    #[inline]
    pub(crate) fn load(&self, id: BufferId, generation: u32, idx: usize) -> u32 {
        let b = &self.bufs[id.0 as usize];
        if b.generation != generation {
            self.check_handle(id, generation);
        }
        match b.words.get(idx) {
            Some(&w) => w,
            None => {
                self.check_handle(id, generation);
                panic!(
                    "device load out of bounds: {idx} >= {} (buffer {id:?})",
                    b.words.len()
                )
            }
        }
    }

    /// Words of the buffer a handle names, liveness- and generation-checked
    /// (host-side entry points, and a native block's loads).
    pub(crate) fn words_of(&self, id: BufferId, generation: u32) -> &[u32] {
        self.check_handle(id, generation);
        &self.bufs[id.0 as usize].words
    }

    /// The full key of a launch `kernel` declared as `decl`, and the
    /// buffer whose slot keeps its entry: the youngest it reads, so that
    /// the entry goes when that buffer is written or freed (`None` if it
    /// reads nothing). Per handle: its length, the first declared handle
    /// naming the same buffer (coalescing depends on which do), and, read,
    /// its stamp. Panics on a stale handle, as [`Pool::words_of`] does.
    pub(crate) fn resolve(
        &self,
        kernel: &'static str,
        lc: LaunchConfig,
        decl: &LaunchKey,
    ) -> Option<(BufferId, MemoKey)> {
        let mut words = vec![
            u64::from(lc.grid_dim),
            u64::from(lc.block_dim),
            decl.params.len() as u64,
        ];
        words.extend_from_slice(&decl.params);
        let mut home: Option<(u64, BufferId)> = None;
        for (i, d) in decl.bufs.iter().enumerate() {
            self.check_handle(d.id, d.generation);
            let alias = decl.bufs[..i].iter().position(|e| e.id == d.id);
            let stamp = if d.read {
                self.bufs[d.id.0 as usize].stamp
            } else {
                0
            };
            words.extend([d.len as u64, alias.unwrap_or(i) as u64, stamp]);
            if d.read && home.is_none_or(|(youngest, _)| stamp > youngest) {
                home = Some((stamp, d.id));
            }
        }
        home.map(|(_, id)| (id, MemoKey { kernel, words }))
    }

    /// The counters a launch under `key` made, if one did since `home`
    /// was last written.
    pub(crate) fn recall(&self, home: BufferId, key: &MemoKey) -> Option<LaunchCounters> {
        let memo = &self.bufs[home.0 as usize].memo;
        memo.iter()
            .find(|r| r.key == *key)
            .map(|r| r.counters.clone())
    }

    pub(crate) fn remember(&mut self, home: BufferId, key: MemoKey, counters: LaunchCounters) {
        self.bufs[home.0 as usize]
            .memo
            .push(Replay { key, counters });
    }
}

/// A log of global-memory stores performed by a launch's blocks: one word
/// arena plus run headers. A store that extends the previous run (next
/// index of the same buffer) costs one arena push; any other store opens a
/// new header. Nothing is allocated per run, and
/// [`WriteLog::clear`] keeps both vectors' capacity (up to a bound), so a
/// log that lives across launches stops allocating.
#[derive(Default)]
pub(crate) struct WriteLog {
    /// Stored words in program order; `words.len()` is the store count.
    words: Vec<u32>,
    runs: Vec<WriteRun>,
}

/// Most a cleared [`WriteLog`] keeps allocated.
const RETAINED_LOG_BYTES: usize = 256 << 10;

/// `len` consecutive words of `buf` from index `start`, held in the arena
/// from `offset`, stored through a handle of `generation`. Indices fit in
/// `u32` because a device buffer holds fewer than 2^32 words; the arena
/// offset is checked where a run is opened.
struct WriteRun {
    buf: BufferId,
    generation: u32,
    start: u32,
    offset: u32,
    len: u32,
}

impl WriteLog {
    #[inline]
    pub(crate) fn push(&mut self, buf: BufferId, generation: u32, idx: usize, word: u32) {
        self.head(buf, generation, idx, 1);
        self.words.push(word);
    }

    /// Logs stores of `words` to `buf[start..]`, in order: one header at
    /// most, whatever the length.
    pub(crate) fn push_run(&mut self, buf: BufferId, generation: u32, start: usize, words: &[u32]) {
        if words.is_empty() {
            return;
        }
        self.head(buf, generation, start, words.len());
        self.words.extend_from_slice(words);
    }

    /// Books `len` words about to be appended to the arena as stores to
    /// `buf[start..]`: the last run grows if they continue it (it always
    /// ends at the arena's tail, so its words stay contiguous), otherwise
    /// a run opens.
    #[inline]
    fn head(&mut self, buf: BufferId, generation: u32, start: usize, len: usize) {
        let narrow = |v: usize| u32::try_from(v).expect("device indices and store counts fit u32");
        match self.runs.last_mut() {
            Some(last)
                if last.buf == buf
                    && last.generation == generation
                    && start == (last.start + last.len) as usize =>
            {
                last.len += narrow(len)
            }
            _ => self.runs.push(WriteRun {
                buf,
                generation,
                start: narrow(start),
                offset: narrow(self.words.len()),
                len: narrow(len),
            }),
        }
    }

    /// Stores logged since the last [`WriteLog::clear`].
    pub(crate) fn stores(&self) -> usize {
        self.words.len()
    }

    /// Forgets every logged store. Capacity is kept up to
    /// [`RETAINED_LOG_BYTES`], which is what makes the launches of a small
    /// query allocation-free; a larger log is freed, as a fleet keeps many
    /// devices, each of which would otherwise sit on the log of the longest
    /// list it ever decoded.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.runs.clear();
        let held =
            self.words.capacity() * size_of::<u32>() + self.runs.capacity() * size_of::<WriteRun>();
        if held > RETAINED_LOG_BYTES {
            *self = WriteLog::default();
        }
    }

    /// Applies all logged stores to the pool. Later runs win on overlap,
    /// mirroring the "unspecified but some-thread-wins" CUDA semantics for
    /// conflicting unsynchronized stores. A run stored through a stale
    /// handle (its buffer freed, or freed and the slot since reused) panics
    /// here, before any word of it lands in whatever owns the slot now.
    /// Each buffer a run lands in gets a fresh write stamp and drops the
    /// replay entries it kept.
    pub(crate) fn apply(&self, pool: &mut Pool) {
        for run in &self.runs {
            pool.check_handle(run.buf, run.generation);
            let stamp = pool.stamp();
            let b = &mut pool.bufs[run.buf.0 as usize];
            b.stamp = stamp;
            b.memo.clear();
            let (start, len, offset) = (run.start as usize, run.len as usize, run.offset as usize);
            let end = start + len;
            assert!(
                end <= b.words.len(),
                "device store out of bounds: {start}..{end} in buffer of {} words",
                b.words.len()
            );
            b.words[start..end].copy_from_slice(&self.words[offset..offset + len]);
        }
    }
}

/// Device-wide statistics kept by the [`crate::Gpu`].
#[derive(Debug, Default)]
pub struct MemStats {
    /// `cudaMalloc` calls: uploads and [`crate::Gpu::alloc`] misses.
    pub allocs: AtomicU64,
    /// `cudaFree` calls: upload-born buffers freed and blocks trimmed.
    pub frees: AtomicU64,
    pub htod_bytes: AtomicU64,
    pub dtoh_bytes: AtomicU64,
    /// Most bytes ever held from the driver (live and cached).
    pub peak_bytes: AtomicU64,
    /// [`crate::Gpu::alloc`] calls served from a free list.
    pub pool_hits: AtomicU64,
    /// [`crate::Gpu::alloc`] calls that went to the driver.
    pub pool_misses: AtomicU64,
    /// Cached blocks given back to the driver.
    pub pool_trimmed: AtomicU64,
}

impl MemStats {
    pub(crate) fn on_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn on_frees(&self, n: u64) {
        self.frees.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn track_peak(&self, reserved: u64) {
        self.peak_bytes.fetch_max(reserved, Ordering::Relaxed);
    }
}

/// Shared, cloneable view of the stats for reporting.
pub type SharedMemStats = Arc<MemStats>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_word_roundtrips() {
        assert_eq!(u32::from_word(42u32.to_word()), 42);
        assert_eq!(i32::from_word((-7i32).to_word()), -7);
        let f = 3.25f32;
        assert_eq!(f32::from_word(f.to_word()), f);
    }

    #[test]
    fn pool_alloc_free_reuse() {
        let mut pool = Pool::default();
        pool.bytes_reserved += 12;
        let (a, _) = pool.alloc(vec![1, 2, 3], false);
        assert_eq!((pool.bytes_in_use, pool.bytes_reserved), (12, 12));
        assert!(!pool.free(a, 0), "an upload's bytes go back to the driver");
        assert_eq!((pool.bytes_in_use, pool.bytes_reserved), (0, 0));
        // Slot is reused with a bumped generation.
        pool.bytes_reserved += 4;
        let (b, gen) = pool.alloc(vec![9], false);
        assert_eq!(a, b);
        assert_eq!(gen, 1);
        assert_eq!(pool.words(b), &[9]);
    }

    #[test]
    fn a_pooled_block_waits_in_its_class_until_taken_or_trimmed() {
        assert_eq!(class_bytes(0), 4);
        assert_eq!(class_bytes(1), 4);
        assert_eq!(class_bytes(1000), 4096);
        assert_eq!(class_bytes(1024), 4096);
        assert_eq!(class_bytes(1025), 8192);
        assert_eq!(class_bytes(1 << 61), 1 << 63);
        assert_eq!(class_bytes((1 << 61) + 1), u64::MAX);
        assert_eq!(class_bytes(usize::MAX), u64::MAX);

        let mut pool = Pool::default();
        assert!(!pool.take_cached(1000), "a fresh pool has nothing cached");
        pool.bytes_reserved += class_bytes(1000);
        let (a, _) = pool.alloc(vec![0; 1000], true);
        assert_eq!((pool.bytes_in_use, pool.bytes_reserved), (4000, 4096));
        assert!(pool.free(a, 0), "the block stays with the pool");
        assert_eq!((pool.bytes_in_use, pool.bytes_reserved), (0, 4096));
        // Any request of the class takes it; no other class does.
        assert!(!pool.take_cached(1025));
        assert!(!pool.take_cached(512));
        assert!(pool.take_cached(513));
        assert!(!pool.take_cached(513), "one block, one taker");
        let (b, _) = pool.alloc(vec![0; 513], true);
        assert!(pool.free(b, 1));
        assert_eq!(pool.trim(), 1);
        assert_eq!(pool.bytes_reserved, 0);
        assert_eq!(pool.trim(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn pool_double_free_panics() {
        let mut pool = Pool::default();
        pool.bytes_reserved += 4;
        let (a, _) = pool.alloc(vec![1], false);
        pool.free(a, 0);
        pool.free(a, 0);
    }

    #[test]
    fn write_log_run_length_packs() {
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 8], false);
        let mut log = WriteLog::default();
        for i in 0..8 {
            log.push(a, 0, i, i as u32 * 10);
        }
        assert_eq!(
            log.runs.len(),
            1,
            "contiguous stores should pack into one run"
        );
        assert_eq!(log.stores(), 8);
        log.apply(&mut pool);
        assert_eq!(pool.words(a), &[0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn write_log_interleaved_buffers_share_one_arena() {
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 4], false);
        let (b, _) = pool.alloc(vec![0; 4], false);
        let mut log = WriteLog::default();
        for i in 0..4 {
            log.push(a, 0, i, 10 + i as u32);
            log.push(b, 0, i, 20 + i as u32);
        }
        assert_eq!(log.runs.len(), 8, "every store breaks the other's run");
        assert_eq!(log.words, [10, 20, 11, 21, 12, 22, 13, 23]);
        log.apply(&mut pool);
        assert_eq!(pool.words(a), &[10, 11, 12, 13]);
        assert_eq!(pool.words(b), &[20, 21, 22, 23]);
    }

    #[test]
    fn write_log_later_run_wins_on_overlap() {
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 4], false);
        let mut log = WriteLog::default();
        log.push(a, 0, 1, 5);
        log.push(a, 0, 3, 7); // breaks the run
        log.push(a, 0, 1, 9); // overlaps the first store
        log.apply(&mut pool);
        assert_eq!(pool.words(a), &[0, 9, 0, 7]);
    }

    #[test]
    fn write_log_clear_forgets_stores_and_keeps_capacity() {
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 4], false);
        let mut log = WriteLog::default();
        for i in 0..4 {
            log.push(a, 0, i, 7);
        }
        let capacity = log.words.capacity();
        log.clear();
        assert_eq!(log.stores(), 0);
        assert_eq!(log.words.capacity(), capacity);
        log.push(a, 0, 2, 1);
        log.apply(&mut pool);
        assert_eq!(pool.words(a), &[0, 0, 1, 0], "no stale word is replayed");

        // A log grown past the retention bound is given back.
        for _ in 0..RETAINED_LOG_BYTES / 4 + 1 {
            log.push(a, 0, 0, 7);
        }
        log.clear();
        assert_eq!(log.words.capacity() + log.runs.capacity(), 0);
    }

    #[test]
    fn a_bulk_run_is_one_header_and_extends_like_single_stores() {
        assert_eq!(size_of::<WriteRun>(), 20);
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 8], false);
        let mut log = WriteLog::default();
        log.push_run(a, 0, 1, &[1, 2, 3]);
        log.push_run(a, 0, 4, &[]);
        log.push(a, 0, 4, 4);
        log.push_run(a, 0, 5, &[5, 6]);
        assert_eq!((log.runs.len(), log.stores()), (1, 6));
        log.push_run(a, 0, 0, &[9]);
        assert_eq!(log.runs.len(), 2, "not contiguous: a new header");
        log.apply(&mut pool);
        assert_eq!(pool.words(a), &[9, 1, 2, 3, 4, 5, 6, 0]);
    }

    #[test]
    fn a_store_through_a_stale_handle_panics_before_touching_the_new_owner() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut pool = Pool::default();
        pool.bytes_reserved += 8;
        let (a, gen_a) = pool.alloc(vec![0; 2], false);
        pool.free(a, gen_a);
        let (b, gen_b) = pool.alloc(vec![0; 2], false);
        assert_eq!((a, gen_b), (b, gen_a + 1), "B took over A's slot");
        let mut log = WriteLog::default();
        log.push(a, gen_a, 0, 7);
        let err = catch_unwind(AssertUnwindSafe(|| log.apply(&mut pool))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("stale device buffer handle"), "{msg}");
        assert_eq!(pool.words(b), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_log_bounds_checked_on_apply() {
        let mut pool = Pool::default();
        let (a, _) = pool.alloc(vec![0; 2], false);
        let mut log = WriteLog::default();
        log.push(a, 0, 2, 1);
        log.apply(&mut pool);
    }

    #[test]
    fn buffer_handle_cast_preserves_identity() {
        let buf: DeviceBuffer<f32> = DeviceBuffer::new(BufferId(3), 10, 0);
        let as_u32: DeviceBuffer<u32> = buf.cast();
        assert_eq!(as_u32.id, buf.id);
        assert_eq!(as_u32.len(), 10);
        assert_eq!(as_u32.size_bytes(), 40);
    }
}
