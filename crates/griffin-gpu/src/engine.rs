//! The Griffin-GPU query engine: composes transfers, Para-EF, MergePath /
//! parallel binary search, and on-device BM25 accumulation into query
//! steps, mirroring the CPU engine's step API so Griffin's scheduler can
//! mix them freely.
//!
//! Like the paper's prototype, final ranking runs on the CPU
//! (`partial_sort` won the Fig. 7 study); the engine ships back only the
//! surviving (docid, score) pairs.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, Range};
use std::rc::Rc;

use griffin_cpu::cost::WorkCounters;
use griffin_cpu::{topk, CacheStats, Intermediate, Lru};
use griffin_gpu_sim::{
    BlockMem, DeviceBuffer, Gpu, Kernel, LaunchConfig, Op, Scope, StreamEvent, StreamKind,
    ThreadCtx, VirtualNanos,
};
use griffin_index::{Bm25, CorpusMeta, InvertedIndex, TermId};

use crate::error::GpuError;
use crate::gpu_binary;
use crate::mergepath::{self, MergePathConfig};
use crate::native;
use crate::para_ef;
use crate::transfer::DevicePostings;

const BLOCK_DIM: u32 = 256;

/// The query's running state on the device: surviving docIDs and their
/// accumulated partial BM25 scores.
pub struct DeviceIntermediate {
    pub docids: DeviceBuffer<u32>,
    pub scores: DeviceBuffer<f32>,
    pub len: usize,
}

impl DeviceIntermediate {
    pub fn free(self, gpu: &Gpu) {
        gpu.free(self.docids);
        gpu.free(self.scores);
    }
}

/// Result of a full GPU-only query ([`GpuEngine::process_query`]).
#[derive(Debug, Clone)]
pub struct GpuQueryOutput {
    /// Top-k (docid, score), best first.
    pub topk: Vec<(u32, f32)>,
    /// Virtual time spent on the device (transfers + kernels).
    pub time: VirtualNanos,
    /// CPU work counters of the final ranking step, for the caller's
    /// cost model (ranking runs on the host, per the Fig. 7 finding).
    pub rank_work: WorkCounters,
}

/// Block-granularity ledger of a hull-pruned chain (see
/// [`GpuEngine::eval_chain`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HullLedger {
    /// Blocks across every processed list (the unpruned upload volume).
    pub blocks_total: u64,
    /// Blocks that actually shipped (inside the candidate hull).
    pub blocks_resident: u64,
}

/// The docID range `[lo, hi]` every common document of a conjunction must
/// fall in: it is in every list, so it is >= every list's first docID and
/// <= every list's last. Read off the host-resident skip tables.
struct Hull {
    lo: u32,
    hi: u32,
}

impl Hull {
    /// `None` when some list is empty (and so is the conjunction).
    fn of(index: &InvertedIndex, terms: &[TermId]) -> Option<Hull> {
        let mut hull = Hull {
            lo: 0,
            hi: u32::MAX,
        };
        for &t in terms {
            let skips = &index.list(t).docs.skips;
            hull.lo = hull.lo.max(skips.first()?.first_docid);
            hull.hi = hull.hi.min(skips.last()?.last_docid);
        }
        Some(hull)
    }

    /// Blocks of `term` overlapping the hull; every block outside is
    /// pruned before decode (it never ships).
    fn blocks(&self, index: &InvertedIndex, term: TermId) -> (usize, usize) {
        let skips = &index.list(term).docs.skips;
        let lo = skips.partition_point(|s| s.last_docid < self.lo);
        let hi = skips.partition_point(|s| s.first_docid <= self.hi);
        (lo, hi.max(lo))
    }

    /// Whether the hull covers at least half of `term`'s blocks: such a
    /// list ships whole, through the cache (see
    /// [`GpuEngine::upload_hull`]).
    fn covers_half(&self, index: &InvertedIndex, term: TermId) -> bool {
        let (lo, hi) = self.blocks(index, term);
        (hi - lo) * 2 >= index.list(term).docs.num_blocks()
    }
}

/// A device list obtained for one chain step: either the full list under
/// the LRU cache's custody, or a hull slice this query owns (see
/// [`GpuEngine::upload_hull`] for the choice).
enum ChainList {
    Cached(Rc<DevicePostings>),
    Slice(Box<DevicePostings>),
}

impl ChainList {
    fn postings(&self) -> &DevicePostings {
        match self {
            ChainList::Cached(p) => p,
            ChainList::Slice(p) => p,
        }
    }
}

/// Initial scoring: `scores[i] = contribution(tf[i], doc_len(docids[i]))`.
struct ScoreInitKernel {
    docids: DeviceBuffer<u32>,
    tfs: DeviceBuffer<u32>,
    scores: DeviceBuffer<f32>,
    doc_lens: Option<DeviceBuffer<u32>>,
    p: Bm25,
    n: usize,
}

/// A lane's BM25 term contribution to document `d`, charged: the
/// document's length loads from the table where the table holds `d`.
/// Scores through the index's [`Bm25::contribution`], the CPU steps'
/// own, so both processors build the same score bits.
#[inline]
fn contribution(
    t: &mut ThreadCtx<'_>,
    p: Bm25,
    doc_lens: &Option<DeviceBuffer<u32>>,
    d: u32,
    tf: u32,
) -> f32 {
    let len = match doc_lens {
        Some(buf) if (d as usize) < buf.len() => Some(t.ld(buf, d as usize)),
        _ => None,
    };
    t.op(Op::Mul, 6);
    p.contribution(tf, len)
}

/// What a lane's [`contribution`] loads for document `d`, from the
/// launch-time words of the length table.
#[inline]
fn doc_len(lens: Option<&[u32]>, d: u32) -> Option<u32> {
    lens.and_then(|lens| lens.get(d as usize)).copied()
}

/// The elements block `block` of a one-thread-per-element launch over `n`
/// covers.
fn rows(block: u32, block_dim: u32, n: usize) -> Range<usize> {
    let first = block as usize * block_dim as usize;
    first.min(n)..(first + block_dim as usize).min(n)
}

impl Kernel for ScoreInitKernel {
    fn name(&self) -> &'static str {
        "engine.score_init"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let d = t.ld(&self.docids, i);
            let tf = t.ld(&self.tfs, i);
            let s = contribution(t, self.p, &self.doc_lens, d, tf);
            t.st(&self.scores, i, s);
        }
    }

    /// The block's scores as one run. Declines a block a lane would load
    /// or store out of bounds in.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let rows = rows(block, mem.block_dim(), self.n);
        let (Some(docids), Some(tfs)) = (
            mem.words(&self.docids).get(rows.clone()),
            mem.words(&self.tfs).get(rows.clone()),
        ) else {
            return false;
        };
        if rows.end > self.scores.len() {
            return false;
        }
        let lens = self.doc_lens.as_ref().map(|lens| mem.words(lens));
        native::with_scratch(|[scores, ..]| {
            scores.extend(
                docids
                    .iter()
                    .zip(tfs)
                    .map(|(&d, &tf)| self.p.contribution(tf, doc_len(lens, d)).to_bits()),
            );
            mem.st_run(&self.scores.cast(), rows.start, scores);
        });
        true
    }
}

/// Score accumulation after an intersection:
/// `out[i] = old[a_idx[i]] + contribution(tf[b_idx[i]], doc_len)`.
struct ScoreAccumKernel {
    docids: DeviceBuffer<u32>,
    old_scores: DeviceBuffer<f32>,
    a_idx: DeviceBuffer<u32>,
    /// Indexed by `b_idx` (full) or by match (gathered).
    tfs: DeviceBuffer<u32>,
    /// `None`: `tfs` is already match-aligned.
    b_idx: Option<DeviceBuffer<u32>>,
    out_scores: DeviceBuffer<f32>,
    doc_lens: Option<DeviceBuffer<u32>>,
    p: Bm25,
    n: usize,
}

impl Kernel for ScoreAccumKernel {
    fn name(&self) -> &'static str {
        "engine.score_accum"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let d = t.ld(&self.docids, i);
            let ai = t.ld(&self.a_idx, i) as usize;
            let old = t.ld(&self.old_scores, ai);
            let tf = match &self.b_idx {
                Some(bidx) => {
                    let bi = t.ld(bidx, i) as usize;
                    t.ld(&self.tfs, bi)
                }
                None => t.ld(&self.tfs, i),
            };
            let s = old + contribution(t, self.p, &self.doc_lens, d, tf);
            t.alu(1);
            t.st(&self.out_scores, i, s);
        }
    }

    /// The block's scores as one run. Declines, before storing anything, a
    /// block a lane would load or store out of bounds in.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        let rows = rows(block, mem.block_dim(), self.n);
        let (Some(docids), Some(a_idx)) = (
            mem.words(&self.docids).get(rows.clone()),
            mem.words(&self.a_idx).get(rows.clone()),
        ) else {
            return false;
        };
        let b_idx = match &self.b_idx {
            Some(b_idx) => match mem.words(b_idx).get(rows.clone()) {
                Some(b_idx) => Some(b_idx),
                None => return false,
            },
            None => None,
        };
        if rows.end > self.out_scores.len() {
            return false;
        }
        let (old, tfs) = (mem.words(&self.old_scores.cast()), mem.words(&self.tfs));
        let lens = self.doc_lens.as_ref().map(|lens| mem.words(lens));
        native::with_scratch(|[scores, ..]| {
            for (k, (&d, &ai)) in docids.iter().zip(a_idx).enumerate() {
                let tf_at = b_idx.map_or(rows.start + k, |b_idx| b_idx[k] as usize);
                let (Some(&old), Some(&tf)) = (old.get(ai as usize), tfs.get(tf_at)) else {
                    return false;
                };
                let c = self.p.contribution(tf, doc_len(lens, d));
                scores.push((f32::from_bits(old) + c).to_bits());
            }
            mem.st_run(&self.out_scores.cast(), rows.start, scores);
            true
        })
    }
}

/// Gathers the tf of each match by decoding its block's VByte run up to
/// the match position (used on the binary-search path, where only a few
/// blocks were touched and a full tf decode would be wasted work).
struct TfGatherKernel {
    tf_words: DeviceBuffer<u32>,
    tf_offsets: DeviceBuffer<u32>,
    b_idx: DeviceBuffer<u32>,
    out: DeviceBuffer<u32>,
    block_len: usize,
    n: usize,
}

impl Kernel for TfGatherKernel {
    fn name(&self) -> &'static str {
        "engine.tf_gather"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.n) {
            return;
        }
        let gi = t.ld(&self.b_idx, i) as usize;
        let blk = gi / self.block_len;
        let within = gi - blk * self.block_len;
        let mut byte = t.ld(&self.tf_offsets, blk) as usize;
        let mut value = 0u32;
        for _ in 0..=within {
            value = 0;
            let mut shift = 0u32;
            loop {
                let w = t.ld(&self.tf_words, byte / 4);
                let bv = (w >> (8 * (byte % 4))) & 0xFF;
                byte += 1;
                value |= (bv & 0x7F) << shift;
                t.alu(3);
                if !t.branch(bv & 0x80 != 0) {
                    break;
                }
                shift += 7;
            }
        }
        t.st(&self.out, i, value);
    }
}

/// [`GpuEngine::intersect_step`] switches from MergePath to binary search
/// at this long/short ratio: the block size (§3.2).
const BINARY_RATIO_THRESHOLD: usize = 128;

/// The Griffin-GPU engine.
pub struct GpuEngine<'g> {
    pub gpu: &'g Gpu,
    mp_config: MergePathConfig,
    doc_lens: Option<DeviceBuffer<u32>>,
    avg_doc_len: f32,
    num_docs: u32,
    /// LRU of device-resident posting lists. The paper's prototype
    /// re-ships lists per query; its related-work section criticizes
    /// caching *everything* on the 5 GB device as unscalable, and its
    /// future work calls for "more advanced scheduling and data transfer
    /// management". This bounded LRU is that extension: hot lists
    /// (Zipf-distributed query terms hit few lists) stay resident, cold
    /// lists are evicted and freed. A list a query step still holds is
    /// pinned. Budget 0 ([`GpuEngine::set_cache_budget`]) is the
    /// paper-faithful per-query transfer: nothing stays resident and every
    /// upload is a counted miss.
    cache: RefCell<Lru<TermId, Rc<DevicePostings>>>,
    /// The prefetch half of [`DeviceCacheStats`].
    prefetch_issued: Cell<u64>,
    prefetch_consumed: Cell<u64>,
    /// Whether [`GpuEngine::windowed`] opens an async window: copy/compute
    /// overlap (async streams + list prefetch). On by default; results
    /// are bit-exact either way, only the modeled latency changes.
    overlap: Cell<bool>,
    /// Lists whose upload has been issued on the copy stream but not yet
    /// consumed by an intersection. The LRU cache is the landing buffer
    /// (a prefetched list is cached like any other upload); this slot
    /// additionally holds the upload's completion event and — crucially —
    /// any *fault* the in-flight transfer hit, so the error surfaces at
    /// the operation that consumes the data.
    prefetched: RefCell<Vec<Prefetched>>,
}

/// One in-flight prefetch; see [`GpuEngine::prefetch`].
struct Prefetched {
    term: TermId,
    result: Result<Rc<DevicePostings>, GpuError>,
    uploaded: StreamEvent,
}

/// Device list-cache and prefetch counters (reset never; snapshot with
/// [`GpuEngine::cache_stats`]). Dereferences to the list LRU's
/// [`CacheStats`]: `hits` are uploads answered from the device cache,
/// `misses` uploads that went over PCIe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// The list LRU's own counts.
    pub lru: CacheStats,
    /// Prefetches issued on the copy stream.
    pub prefetch_issued: u64,
    /// Prefetches consumed by a later operation (the rest were wasted).
    pub prefetch_consumed: u64,
}

impl Deref for DeviceCacheStats {
    type Target = CacheStats;

    fn deref(&self) -> &CacheStats {
        &self.lru
    }
}

impl<'g> GpuEngine<'g> {
    /// Creates an engine over `meta`'s corpus; its document-length table,
    /// when it has one, ships to the device here.
    ///
    /// Setup-time transfers are outside the per-query fault-recovery
    /// policy: install fault plans (via [`Gpu::set_fault_plan`]) *after*
    /// constructing the engine. A fault injected into this one-off upload
    /// panics rather than limping along without the doc-length table.
    pub fn new(gpu: &'g Gpu, meta: &CorpusMeta) -> GpuEngine<'g> {
        let doc_lens = if meta.doc_lens.is_empty() {
            None
        } else {
            Some(
                gpu.htod(&meta.doc_lens)
                    .expect("doc-length table upload at engine setup"),
            )
        };
        GpuEngine {
            gpu,
            mp_config: MergePathConfig::for_device(gpu.config()),
            doc_lens,
            avg_doc_len: meta.avg_doc_len,
            num_docs: meta.num_docs,
            cache: RefCell::new(
                Lru::new(gpu.config().global_mem_bytes * 3 / 4)
                    .with_pins(|p: &Rc<DevicePostings>| Rc::strong_count(p) > 1),
            ),
            prefetch_issued: Cell::new(0),
            prefetch_consumed: Cell::new(0),
            overlap: Cell::new(true),
            prefetched: RefCell::new(Vec::new()),
        }
    }

    /// Enables or disables copy/compute overlap in
    /// [`GpuEngine::windowed`]. Results are identical either way; see
    /// [`griffin_gpu_sim::stream`].
    pub fn set_overlap(&self, on: bool) {
        self.overlap.set(on);
    }

    /// Runs `f` in an async window on the device when overlap is on: each
    /// list ships on the copy stream while the previous operation's
    /// kernels run on the compute stream (and prefetches are accepted).
    /// A window the caller already opened is left open; one this call
    /// opened is closed again. Every whole-query entry point runs its
    /// device work through here.
    pub fn windowed<R>(&self, f: impl FnOnce() -> R) -> R {
        let open = self.overlap.get() && !self.gpu.async_enabled();
        if open {
            self.gpu.set_async(true);
        }
        let out = f();
        if open {
            self.gpu.set_async(false);
        }
        out
    }

    /// Snapshot of the list-cache and prefetch counters. `bytes_resident`
    /// reflects the cache's custody at snapshot time.
    pub fn cache_stats(&self) -> DeviceCacheStats {
        DeviceCacheStats {
            lru: self.cache.borrow().stats(),
            prefetch_issued: self.prefetch_issued.get(),
            prefetch_consumed: self.prefetch_consumed.get(),
        }
    }

    /// Non-counting residency probe for the cache-aware scheduler: does
    /// this term's full list sit in the device cache right now? Does not
    /// bump LRU order or touch the hit/miss ledger. An unconsumed
    /// prefetch counts — the list is (or will be) device-resident before
    /// any kernel the current decision schedules.
    pub fn is_resident(&self, term: TermId) -> bool {
        self.cache.borrow().contains(&term)
            || self
                .prefetched
                .borrow()
                .iter()
                .any(|p| p.term == term && p.result.is_ok())
    }

    /// Sets the device-cache budget in bytes (0 disables caching and
    /// restores the paper's per-query transfer behaviour).
    pub fn set_cache_budget(&self, bytes: u64) {
        let victims = self.cache.borrow_mut().set_budget(Some(bytes));
        self.free_evicted(victims);
    }

    /// Frees lists the LRU evicted, in eviction order: each is a charged,
    /// counted `cudaFree`.
    fn free_evicted(&self, victims: Vec<Rc<DevicePostings>>) {
        for postings in victims {
            Rc::try_unwrap(postings)
                .expect("the LRU evicts only unpinned lists")
                .free(self.gpu);
        }
    }

    /// The scorer of a list with scoring df `doc_freq`: what
    /// [`InvertedIndex::scorer`] gives the CPU steps for its term.
    fn scorer(&self, doc_freq: u32) -> Bm25 {
        Bm25::new(self.num_docs, doc_freq, self.avg_doc_len)
    }

    /// Returns the term's device-resident posting list, shipping it over
    /// PCIe on a cache miss (and possibly evicting cold lists).
    ///
    /// On a faulted transfer nothing is cached and no device memory is
    /// left behind (the partial upload is rolled back by
    /// [`DevicePostings::upload`]).
    pub fn upload(
        &self,
        index: &InvertedIndex,
        term: TermId,
    ) -> Result<Rc<DevicePostings>, GpuError> {
        let slot = {
            let prefetched = self.prefetched.borrow();
            prefetched.iter().position(|p| p.term == term)
        };
        if let Some(pos) = slot {
            let p = self.prefetched.borrow_mut().remove(pos);
            // A fault that hit the in-flight transfer surfaces here, at
            // the operation that consumes the list.
            let postings = p.result?;
            self.gpu.stream_wait(StreamKind::Compute, p.uploaded);
            self.prefetch_consumed.set(self.prefetch_consumed.get() + 1);
            return Ok(postings);
        }
        let (postings, uploaded) = self.upload_nowait(index, term)?;
        // Kernels issued after this point see the list as resident.
        self.gpu.stream_wait(StreamKind::Compute, uploaded);
        Ok(postings)
    }

    /// Ships only blocks `[lo_block, hi_block)` of `term`'s list — the GPU
    /// slice of a co-executed split intersection. Range uploads bypass the
    /// LRU cache (a slice is useless to any other query); the caller owns
    /// the result and must free it with [`DevicePostings::free`].
    pub fn upload_range(
        &self,
        index: &InvertedIndex,
        term: TermId,
        lo_block: usize,
        hi_block: usize,
    ) -> Result<DevicePostings, GpuError> {
        let postings = DevicePostings::upload_range(
            self.gpu,
            index.list(term),
            lo_block,
            hi_block,
            index.scoring_df(term) as u32,
        )?;
        let uploaded = self.gpu.record_event(StreamKind::Copy);
        self.gpu.stream_wait(StreamKind::Compute, uploaded);
        Ok(postings)
    }

    /// Issues the upload without ordering it before subsequent compute:
    /// the returned event marks when the copy-stream transfer retires.
    fn upload_nowait(
        &self,
        index: &InvertedIndex,
        term: TermId,
    ) -> Result<(Rc<DevicePostings>, StreamEvent), GpuError> {
        if let Some(postings) = self.cache.borrow_mut().get(&term) {
            // Resident data: any earlier upload of this list was already
            // ordered before compute when it was first consumed.
            return Ok((Rc::clone(postings), StreamEvent::READY));
        }
        let postings = Rc::new(DevicePostings::upload(
            self.gpu,
            index.list(term),
            index.scoring_df(term) as u32,
        )?);
        let uploaded = self.gpu.record_event(StreamKind::Copy);
        let bytes = postings.docs.bytes_shipped
            + postings.tf_words.size_bytes()
            + postings.tf_offsets.size_bytes();
        let victims = self
            .cache
            .borrow_mut()
            .insert(term, Rc::clone(&postings), bytes);
        self.free_evicted(victims);
        Ok((postings, uploaded))
    }

    /// Starts shipping `term`'s list on the copy stream so it lands on
    /// the device while earlier kernels run on the compute stream. The
    /// LRU cache is the landing buffer; a later [`GpuEngine::upload`] of
    /// the same term consumes the slot and waits on the transfer event
    /// instead of the whole device. A fault on the in-flight transfer is
    /// held in the slot and charged to the consuming operation.
    ///
    /// No-op when the device is executing serially.
    pub fn prefetch(&self, index: &InvertedIndex, term: TermId) {
        if !self.gpu.async_enabled() {
            return;
        }
        if self.prefetched.borrow().iter().any(|p| p.term == term) {
            return;
        }
        let (result, uploaded) = match self.upload_nowait(index, term) {
            Ok((postings, ev)) => (Ok(postings), ev),
            Err(e) => (Err(e), StreamEvent::READY),
        };
        self.prefetch_issued.set(self.prefetch_issued.get() + 1);
        self.prefetched.borrow_mut().push(Prefetched {
            term,
            result,
            uploaded,
        });
    }

    /// Drops every unconsumed prefetch, returning its list to the cache's
    /// custody (or freeing it if over budget). Pending transfer faults
    /// are discarded with the slot. Called on every query exit path.
    pub fn drain_prefetch(&self) {
        let drained: Vec<Prefetched> = self.prefetched.borrow_mut().drain(..).collect();
        for p in drained {
            if let Ok(postings) = p.result {
                self.release(postings);
            }
        }
    }

    /// Releases a list obtained from [`GpuEngine::upload`]: cached lists
    /// stay resident; uncached (over-budget) ones are freed immediately.
    pub fn release(&self, postings: Rc<DevicePostings>) {
        if let Ok(p) = Rc::try_unwrap(postings) {
            p.free(self.gpu);
        }
    }

    /// Decompresses the first (shortest) list and scores it.
    ///
    /// A device fault leaves no intermediate buffers allocated.
    pub fn init_intermediate(
        &self,
        postings: &DevicePostings,
    ) -> Result<DeviceIntermediate, GpuError> {
        let gpu = self.gpu;
        let n = postings.len();
        let mut scope = Scope::new(gpu);
        let (docids, tfs) = para_ef::decode_postings(gpu, postings)?;
        let (docids, tfs) = (scope.adopt(docids), scope.adopt(tfs));
        let scores = scope.alloc::<f32>(n)?;
        if n > 0 {
            gpu.launch(
                &ScoreInitKernel {
                    docids: docids.clone(),
                    tfs,
                    scores: scores.clone(),
                    doc_lens: self.doc_lens.clone(),
                    p: self.scorer(postings.df),
                    n,
                },
                LaunchConfig::cover(n, BLOCK_DIM),
            )?;
        }
        Ok(DeviceIntermediate {
            docids: scope.keep(docids),
            scores: scope.keep(scores),
            len: n,
        })
    }

    /// One pairwise intersection step: MergePath below a long/short
    /// length ratio of `BINARY_RATIO_THRESHOLD`, parallel binary search
    /// over the skip pointers at or above it (§3.1.2). Borrows the old
    /// intermediate so a fault mid-step leaves it intact (the caller can
    /// re-materialize it on the CPU); on success the caller frees the old
    /// intermediate.
    pub fn intersect_step(
        &self,
        inter: &DeviceIntermediate,
        postings: &DevicePostings,
        block_len: usize,
    ) -> Result<DeviceIntermediate, GpuError> {
        let gpu = self.gpu;
        let long_len = postings.len();
        let ratio = long_len.checked_div(inter.len).unwrap_or(usize::MAX);
        let merge_path = ratio < BINARY_RATIO_THRESHOLD;
        let mut scope = Scope::new(gpu);
        if inter.len == 0 || long_len == 0 {
            let (docids, scores) = (scope.alloc(0)?, scope.alloc(0)?);
            return Ok(DeviceIntermediate {
                docids: scope.keep(docids),
                scores: scope.keep(scores),
                len: 0,
            });
        }
        // The two kernels differ in how the matches are found, and in where
        // a match's tf comes from: MergePath decompresses the whole long
        // list (comparable lengths: every block is needed anyway), tfs
        // included; binary search touches few blocks and gathers the
        // matched tfs afterwards.
        let (found, long_tfs) = if merge_path {
            let (long_docids, long_tfs) = para_ef::decode_postings(gpu, postings)?;
            let (long_docids, long_tfs) = (scope.adopt(long_docids), scope.adopt(long_tfs));
            let found = mergepath::intersect(
                gpu,
                &inter.docids,
                inter.len,
                &long_docids,
                long_len,
                &self.mp_config,
            )?;
            (found, Some(long_tfs))
        } else {
            let found =
                gpu_binary::intersect(gpu, &inter.docids, inter.len, &postings.docs, block_len)?;
            (found.matches, None)
        };
        let n = found.len;
        let docids = scope.adopt(found.docids);
        let (a_idx, b_idx) = (scope.adopt(found.a_idx), scope.adopt(found.b_idx));
        let scores = scope.alloc::<f32>(n)?;
        if n > 0 {
            let (tfs, b_idx) = match long_tfs {
                Some(tfs) => (tfs, Some(b_idx)),
                None => {
                    let tfs = scope.alloc::<u32>(n)?;
                    gpu.launch(
                        &TfGatherKernel {
                            tf_words: postings.tf_words.clone(),
                            tf_offsets: postings.tf_offsets.clone(),
                            b_idx,
                            out: tfs.clone(),
                            block_len,
                            n,
                        },
                        LaunchConfig::cover(n, BLOCK_DIM),
                    )?;
                    (tfs, None)
                }
            };
            gpu.launch(
                &ScoreAccumKernel {
                    docids: docids.clone(),
                    old_scores: inter.scores.clone(),
                    a_idx,
                    tfs,
                    b_idx,
                    out_scores: scores.clone(),
                    doc_lens: self.doc_lens.clone(),
                    // idf from the list's document frequency —
                    // `postings.df`, not the resident element count, which
                    // is smaller for a range upload.
                    p: self.scorer(postings.df),
                    n,
                },
                LaunchConfig::cover(n, BLOCK_DIM),
            )?;
        }
        Ok(DeviceIntermediate {
            docids: scope.keep(docids),
            scores: scope.keep(scores),
            len: n,
        })
    }

    /// Ships a host intermediate's (docid, score) pairs to the device in
    /// one packed DMA — the inverse of [`GpuEngine::download`].
    pub fn upload_intermediate(
        &self,
        docids: &[u32],
        scores: &[f32],
    ) -> Result<DeviceIntermediate, GpuError> {
        let score_bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        let [docids, scores] = self.gpu.htod_packed([docids.to_vec(), score_bits])?;
        Ok(DeviceIntermediate {
            len: docids.len(),
            docids,
            scores: scores.cast::<f32>(),
        })
    }

    /// Ships the intermediate's (docid, score) pairs back to the host.
    /// Borrows the intermediate: the caller frees it (on success *and* on
    /// a faulted transfer, where it is still needed for CPU migration).
    pub fn download(&self, inter: &DeviceIntermediate) -> Result<Intermediate, GpuError> {
        let (docids, scores) =
            self.gpu
                .dtoh_packed_prefix(&inter.docids, &inter.scores, inter.len)?;
        Ok(Intermediate { docids, scores })
    }

    /// Full GPU-only query ("Griffin-GPU running alone" in the paper's
    /// evaluation): all intersections on the device, final ranking on the
    /// CPU via `partial_sort` (the Fig. 7 winner).
    ///
    /// With overlap enabled (the default) this opens an async window on
    /// the device: each term's list ships on the copy stream while the
    /// previous term's decode + intersection run on the compute stream,
    /// so `time` reflects the pipeline's critical path rather than the
    /// serial sum. Results are bit-exact with overlap disabled.
    pub fn process_query(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
    ) -> Result<GpuQueryOutput, GpuError> {
        let gpu = self.gpu;
        let start = gpu.now();
        let host = self.windowed(|| {
            let host = self.eval_chain(index, terms, None);
            // Close the window: leftover prefetches are returned to the
            // cache's custody and all scheduled work retires on the
            // clock, so `time` covers everything this query issued.
            self.drain_prefetch();
            gpu.sync();
            host
        })?;
        let time = gpu.now() - start;
        let mut rank_work = WorkCounters::default();
        let topk = topk::top_k(&host.docids, &host.scores, k, &mut rank_work);
        Ok(GpuQueryOutput {
            topk,
            time,
            rank_work,
        })
    }

    /// Runs the conjunctive chain entirely on the device and ships the
    /// surviving (docid, score) pairs home — [`GpuEngine::process_query`]
    /// minus the final ranking. This is the plan executor's building
    /// block for GPU-placed chain and phrase operators, whose results
    /// feed further (host-side) set operations.
    ///
    /// With a `hull` ledger the chain is block-pruned: before any list
    /// ships, the host intersects the lists' *skip tables* to find the
    /// docID hull every common document must fall in, and each step takes
    /// its list from `upload_hull`, which may ship only the
    /// blocks overlapping the hull (a range upload, like a co-executed
    /// split's device lane; blocks outside never cross PCIe). BM25 sees
    /// each list's full document frequency, so the scores are bit-exact
    /// with the plain chain. Without one, each step's list comes through
    /// the LRU cache. Either way the next step's list is prefetched behind
    /// the current one when it ships whole.
    ///
    /// The caller owns the async window and stream synchronization; any
    /// prefetch left in flight (the chain can end early on an empty
    /// intermediate) stays in the engine's custody until
    /// [`GpuEngine::drain_prefetch`].
    pub fn eval_chain(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        hull: Option<&mut HullLedger>,
    ) -> Result<Intermediate, GpuError> {
        let planned = index.chain_order(terms);
        if planned.is_empty() {
            return Ok(Intermediate::default());
        }
        let mut pruned = None;
        if let Some(ledger) = hull {
            let Some(range) = Hull::of(index, &planned) else {
                return Ok(Intermediate::default());
            };
            if range.lo > range.hi {
                // The lists' ranges don't even overlap: the intersection
                // is empty and nothing ships at all.
                let blocks = |&t: &TermId| index.list(t).docs.num_blocks() as u64;
                ledger.blocks_total += planned.iter().map(blocks).sum::<u64>();
                return Ok(Intermediate::default());
            }
            pruned = Some((range, ledger));
        }
        // The list for step `i`, from the one place the chain gets them,
        // with the next step's list shipping behind it if that one comes
        // through the cache (a slice is cut when its step needs it).
        let mut list = |i: usize| -> Result<ChainList, GpuError> {
            let next = planned.get(i + 1).copied();
            let (list, next) = match &mut pruned {
                Some((range, ledger)) => (
                    self.upload_hull(index, planned[i], range, ledger)?,
                    next.filter(|&t| range.covers_half(index, t)),
                ),
                None => (ChainList::Cached(self.upload(index, planned[i])?), next),
            };
            if let Some(next) = next {
                self.prefetch(index, next);
            }
            Ok(list)
        };

        let first = list(0)?;
        let inter = self.init_intermediate(first.postings());
        self.release_list(first);
        // The running intermediate is this call's: a fault at any later
        // step frees it on the way out.
        let mut scope = Scope::new(self.gpu);
        let mut inter = inter?;
        scope.adopt(inter.docids.clone());
        scope.adopt(inter.scores.clone());
        for i in 1..planned.len() {
            if inter.len == 0 {
                break;
            }
            let postings = list(i)?;
            let next = self.intersect_step(&inter, postings.postings(), index.block_len());
            self.release_list(postings);
            let next = next?;
            scope.free(inter.docids);
            scope.free(inter.scores);
            scope.adopt(next.docids.clone());
            scope.adopt(next.scores.clone());
            inter = next;
        }
        self.download(&inter)
    }

    /// Ships a list for the pruned chain, weighing the hull restriction
    /// against the LRU cache:
    ///
    /// * already device-resident → use the cached full list (a hit costs
    ///   nothing; a slice would re-cross PCIe);
    /// * hull covers at least half the blocks → normal cached upload:
    ///   the slice's saving is small and a full upload stays resident
    ///   for the workload's later queries (Zipf reuse is exactly where
    ///   the cache earns its keep);
    /// * narrow hull → range upload of just the overlapping blocks,
    ///   owned by this query and freed after its intersection.
    ///
    /// Correctness never depends on the choice: blocks outside the hull
    /// contain no common docIDs, and BM25 sees the full-list document
    /// frequency either way.
    fn upload_hull(
        &self,
        index: &InvertedIndex,
        term: TermId,
        hull: &Hull,
        ledger: &mut HullLedger,
    ) -> Result<ChainList, GpuError> {
        let num_blocks = index.list(term).docs.num_blocks();
        ledger.blocks_total += num_blocks as u64;
        let (lo, hi) = hull.blocks(index, term);
        let cached = self.cache.borrow().contains(&term);
        if cached || hull.covers_half(index, term) {
            ledger.blocks_resident += num_blocks as u64;
            return Ok(ChainList::Cached(self.upload(index, term)?));
        }
        ledger.blocks_resident += (hi - lo) as u64;
        Ok(ChainList::Slice(Box::new(
            self.upload_range(index, term, lo, hi)?,
        )))
    }

    /// Returns a [`ChainList`] to its owner: cached lists to the LRU
    /// cache's custody, slices to the allocator.
    fn release_list(&self, list: ChainList) {
        match list {
            ChainList::Cached(p) => self.release(p),
            ChainList::Slice(p) => p.free(self.gpu),
        }
    }

    /// Frees engine-owned device state (the list cache and the doc-length
    /// table).
    pub fn shutdown(self) {
        self.drain_prefetch();
        for postings in self.cache.into_inner().into_values() {
            Rc::try_unwrap(postings)
                .expect("no query steps outstanding at shutdown")
                .free(self.gpu);
        }
        if let Some(b) = self.doc_lens {
            self.gpu.free(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_cpu::CpuEngine;
    use griffin_gpu_sim::{DeviceConfig, DeviceEvent};
    use griffin_index::InvertedIndex;
    use griffin_sim_conformance::{check, Cases, Draw};
    use griffin_workload::Corpus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    /// The lists as terms `t0`, `t1`, … with a tf drawn per posting, so
    /// a tf gathered from the wrong element changes a score's bits.
    fn synthetic_index(lists: &[Vec<u32>], num_docs: u32) -> InvertedIndex {
        let mut rng = StdRng::seed_from_u64(u64::from(num_docs));
        Corpus::draw(lists, num_docs, Codec::EliasFano, 128, &mut rng).index
    }

    fn term(idx: &InvertedIndex, i: usize) -> TermId {
        idx.lookup(&format!("t{i}")).expect("term exists")
    }

    #[test]
    fn gpu_query_matches_cpu_query() {
        let lists = vec![
            (0..400u32).map(|i| i * 31 + 5).collect::<Vec<_>>(),
            (0..3000u32).map(|i| i * 4 + 1).collect::<Vec<_>>(),
            (0..8000u32).map(|i| i * 2 + 1).collect::<Vec<_>>(),
        ];
        let idx = synthetic_index(&lists, 20_000);
        let terms: Vec<TermId> = (0..3).map(|i| term(&idx, i)).collect();

        let cpu = CpuEngine::new();
        let cpu_out = cpu.process_query(&idx, &terms, 10);

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let gpu_out = engine.process_query(&idx, &terms, 10).unwrap();

        let bits = |topk: &[(u32, f32)]| {
            topk.iter()
                .map(|&(d, s)| (d, s.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&gpu_out.topk), bits(&cpu_out.topk));
        assert!(gpu_out.time.as_nanos() > 0);
    }

    /// What `f` returns, and the kernels it launched on `gpu`, in order.
    fn launched<T>(gpu: &Gpu, f: impl FnOnce() -> T) -> (T, Vec<&'static str>) {
        let names = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&names);
        gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
            if let DeviceEvent::KernelLaunch { name, .. } = e {
                seen.lock().unwrap().push(*name);
            }
        })));
        let out = f();
        gpu.set_observer(None);
        let names = names.lock().unwrap().clone();
        (out, names)
    }

    #[test]
    fn strategies_produce_identical_intermediates() {
        // 400 against 20 000 is 50×, under the 128× switch, so the step
        // runs MergePath; 150 against it is 133×, so it searches the skip
        // pointers and gathers each match's tf on the device. Each kernel
        // must reproduce the CPU step's bits.
        let long: Vec<u32> = (0..20_000u32).map(|i| i * 2 + 1).collect();
        let near: Vec<u32> = (0..400u32).map(|i| i * 47 + 7).collect();
        let far: Vec<u32> = (0..150u32).map(|i| i * 262 + 7).collect();
        let idx = synthetic_index(&[long, near, far.clone()], 50_000);
        let (ids, tfs) = idx.list(term(&idx, 0)).decompress();
        assert!(
            ids.iter()
                .zip(&tfs)
                .any(|(d, &tf)| tf >= 128 && far.contains(d)),
            "the gather must meet a tf of two VByte bytes"
        );
        let cpu = CpuEngine::new();

        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let t0 = engine.upload(&idx, term(&idx, 0)).unwrap();
        for (short, kernel, other) in [
            (1, "mergepath.merge", "gpu_binary.skip_search"),
            (2, "gpu_binary.skip_search", "mergepath.merge"),
        ] {
            let s = engine.upload(&idx, term(&idx, short)).unwrap();
            let inter = engine.init_intermediate(&s).unwrap();
            let (next, kernels) = launched(&gpu, || {
                engine.intersect_step(&inter, &t0, idx.block_len()).unwrap()
            });
            assert!(kernels.contains(&kernel), "{kernels:?}");
            assert!(!kernels.contains(&other), "{kernels:?}");
            inter.free(&gpu);
            let got = engine.download(&next).unwrap();
            next.free(&gpu);
            engine.release(s);

            let mut w = WorkCounters::default();
            let host = cpu.init_intermediate(&idx, term(&idx, short), &mut w);
            let want = cpu.intersect_step(&idx, &host, term(&idx, 0), &mut w);
            assert!(!want.is_empty(), "test needs a non-empty intersection");
            assert_eq!(got.docids, want.docids);
            let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.scores), bits(&want.scores));
        }
    }

    #[test]
    fn empty_intersection_handled() {
        let evens: Vec<u32> = (0..1000u32).map(|i| i * 2).collect();
        let odds: Vec<u32> = (0..1000u32).map(|i| i * 2 + 1).collect();
        let idx = synthetic_index(&[evens, odds], 3_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let terms = vec![term(&idx, 0), term(&idx, 1)];
        let out = engine.process_query(&idx, &terms, 10).unwrap();
        assert!(out.topk.is_empty());
    }

    #[test]
    fn hull_chain_matches_the_plain_chain_and_a_narrow_hull_ships_a_slice() {
        // t0 lies wholly above docID 1 000 000. t1 has 20 000 postings
        // below that and 3 000 from there on: the hull cuts the prefix off
        // (a slice of 24 blocks out of 180). t2 has 2 000 below and 5 900
        // from there on: more than half its blocks are in, so it ships
        // whole, through the cache.
        let high: Vec<u32> = (0..2_000u32).map(|i| 1_000_000 + i * 3).collect();
        let prefixed = |below: u32, inside: u32, stride: u32| -> Vec<u32> {
            let prefix = (0..below).map(|i| i * 7);
            let inside = (0..inside).map(|i| 1_000_000 + i * stride);
            prefix.chain(inside).collect()
        };
        let lists = [high, prefixed(20_000, 3_000, 2), prefixed(2_000, 5_900, 1)];
        let idx = synthetic_index(&lists, 2_000_000);
        let terms: Vec<TermId> = (0..3).map(|i| term(&idx, i)).collect();
        let blocks = |i: usize| idx.list(terms[i]).docs.num_blocks() as u64;

        let run = |pruned: bool| {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            let engine = GpuEngine::new(&gpu, idx.meta());
            gpu.set_async(true); // the caller's window: prefetches are live
            let mut ledger = HullLedger::default();
            let hull = pruned.then_some(&mut ledger);
            let out = engine.eval_chain(&idx, &terms, hull).unwrap();
            engine.drain_prefetch();
            let (stats, shipped) = (engine.cache_stats(), gpu.stats().htod_bytes);
            engine.shutdown();
            assert_eq!(gpu.mem_in_use(), 0, "pruned: {pruned}");
            (out, ledger, stats, shipped)
        };
        let (plain, untouched, plain_stats, plain_bytes) = run(false);
        let (pruned, ledger, pruned_stats, pruned_bytes) = run(true);

        assert!(!plain.is_empty(), "the test needs a non-empty intersection");
        assert_eq!(plain.docids, pruned.docids);
        let bits = |i: &Intermediate| i.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&pruned), "same scores to the bit");

        assert_eq!(untouched, HullLedger::default());
        assert_eq!(ledger.blocks_total, blocks(0) + blocks(1) + blocks(2));
        assert_eq!(ledger.blocks_resident, blocks(0) + 24 + blocks(2));
        // The slice never entered the LRU cache, and fewer bytes shipped.
        assert_eq!((plain_stats.misses, pruned_stats.misses), (3, 2));
        assert!(
            pruned_bytes < plain_bytes,
            "{pruned_bytes} >= {plain_bytes}"
        );
        // The plain chain prefetches behind each step; the hull chain only
        // a list that ships whole (t2, behind t0's step), never a slice.
        assert_eq!(plain_stats.prefetch_issued, 2);
        assert_eq!(pruned_stats.prefetch_issued, 1);
    }

    #[test]
    fn hull_chain_ships_nothing_when_the_lists_cannot_meet() {
        let low: Vec<u32> = (0..1_000u32).map(|i| i * 3).collect();
        let high: Vec<u32> = (0..1_000u32).map(|i| 50_000 + i * 3).collect();
        let idx = synthetic_index(&[low, high], 100_000);
        let terms = vec![term(&idx, 0), term(&idx, 1)];
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let shipped = gpu.stats().htod_bytes;
        let mut ledger = HullLedger::default();
        let out = engine.eval_chain(&idx, &terms, Some(&mut ledger)).unwrap();
        assert!(out.is_empty());
        assert_eq!(gpu.stats().htod_bytes, shipped);
        assert_eq!((ledger.blocks_total, ledger.blocks_resident), (16, 0));
        let plain = engine.eval_chain(&idx, &terms, None).unwrap();
        assert!(plain.is_empty());
        engine.shutdown();
    }

    #[test]
    fn overlap_is_bit_exact_and_no_slower_than_serial() {
        // Three long lists so the pipeline has transfers to hide.
        let lists: Vec<Vec<u32>> = vec![
            (0..4_000u32).map(|i| i * 7 + 3).collect(),
            (0..30_000u32).map(|i| i * 2 + 1).collect(),
            (0..50_000u32).map(|i| i + 1).collect(),
        ];
        let idx = synthetic_index(&lists, 120_000);
        let terms = vec![term(&idx, 0), term(&idx, 1), term(&idx, 2)];

        let run = |overlap: bool| {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            let engine = GpuEngine::new(&gpu, idx.meta());
            engine.set_overlap(overlap);
            let out = engine.process_query(&idx, &terms, 20).unwrap();
            let stats = engine.cache_stats();
            engine.shutdown();
            assert_eq!(gpu.mem_in_use(), 0);
            (out, stats)
        };
        let (serial, _) = run(false);
        let (pipelined, stats) = run(true);

        assert_eq!(serial.topk, pipelined.topk, "overlap must be bit-exact");
        assert!(
            pipelined.time <= serial.time,
            "pipelined ({:?}) must not exceed serial ({:?})",
            pipelined.time,
            serial.time
        );
        assert_eq!(stats.prefetch_issued, 2);
        assert_eq!(stats.prefetch_consumed, 2);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn repeated_query_hits_the_device_cache() {
        let lists: Vec<Vec<u32>> = vec![
            (0..1_000u32).map(|i| i * 5).collect(),
            (0..10_000u32).map(|i| i * 2).collect(),
        ];
        let idx = synthetic_index(&lists, 40_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let terms = vec![term(&idx, 0), term(&idx, 1)];
        let a = engine.process_query(&idx, &terms, 10).unwrap();
        let b = engine.process_query(&idx, &terms, 10).unwrap();
        assert_eq!(a.topk, b.topk);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "second query should be all hits");
        assert!(stats.hits >= 2);
        assert!(stats.hit_rate() > 0.0);
        assert!(
            b.time <= a.time,
            "cache-hot query must not be slower than the cold one"
        );
        engine.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    fn device_memory_is_reclaimed_after_query() {
        let lists = vec![
            (0..500u32).map(|i| i * 13).collect::<Vec<_>>(),
            (0..5_000u32).map(|i| i * 3).collect::<Vec<_>>(),
        ];
        let idx = synthetic_index(&lists, 20_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let engine = GpuEngine::new(&gpu, idx.meta());
        let terms = vec![term(&idx, 0), term(&idx, 1)];
        let _ = engine.process_query(&idx, &terms, 10);
        // Cached lists persist across queries; shutdown drains them.
        engine.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "all device buffers must be freed");
    }

    /// A scorer with idf about 2.66 over an average length of 250.5.
    fn p() -> Bm25 {
        Bm25::new(1_000_000, 70_000, 250.5)
    }

    /// Drawn scoring inputs at lengths that are not multiples of the
    /// 256-thread block: docIDs, tfs, doc lengths, old score bits, match
    /// indices, and the tfs of a list three times longer with indices into
    /// it; each with and without the doc-length table, which half the
    /// docIDs lie beyond (they take the average).
    fn scoring() -> Cases<([Vec<u32>; 7], bool)> {
        let mut draw = Draw::new(0x5C0E);
        let mut cases = Vec::new();
        for n in [1, 300, 1_000 + draw.below(3_000) as usize] {
            let mut words = |len: usize, f: &dyn Fn(u64) -> u32| -> Vec<u32> {
                (0..len).map(|_| f(draw.word())).collect()
            };
            let n64 = n as u64;
            let inputs = [
                words(n, &|d| (d % (2 * n64)) as u32),
                words(n, &|d| 1 + (d % 2_000_000) as u32),
                words(n, &|d| 1 + (d % 1_000) as u32),
                words(n, &|d| ((d % 100_000) as f32 / 7.0).to_bits()),
                words(n, &|d| (d % n64) as u32),
                words(3 * n, &|d| 1 + (d % 2_000_000) as u32),
                words(n, &|d| (d % (3 * n64)) as u32),
            ];
            for lens in [false, true] {
                cases.push((format!("{n}, doc lengths {lens}"), (inputs.clone(), lens)));
            }
        }
        cases
    }

    /// Score bits are compared.
    #[test]
    fn score_init_conforms() {
        let tally = check(&scoring(), |gpu, (words, lens)| {
            let [docids, tfs, doc_lens, ..] = words.each_ref().map(|w| gpu.htod(w).unwrap());
            let n = docids.len();
            let scores = gpu.alloc::<f32>(n).unwrap();
            let outputs = vec![scores.cast()];
            let doc_lens = lens.then_some(doc_lens);
            let kernel = ScoreInitKernel {
                docids,
                tfs,
                scores,
                doc_lens,
                p: p(),
                n,
            };
            (kernel, LaunchConfig::cover(n, BLOCK_DIM), outputs)
        });
        assert!(tally.twin_blocks > 0, "{tally:?}");
    }

    /// Both kinds of accumulation (`b_idx` set: tfs of the whole long
    /// list; unset: tfs already match-aligned); score bits are compared.
    /// Mutation that fails it: the twin reading `tfs[i]` where `b_idx` is
    /// set.
    #[test]
    fn score_accum_conforms() {
        let cases: Vec<_> = scoring()
            .into_iter()
            .flat_map(|(what, c)| {
                [false, true].map(|long| (format!("{what}, {long}"), (c.clone(), long)))
            })
            .collect();
        let tally = check(&cases, |gpu, ((words, lens), long)| {
            let [docids, tfs, doc_lens, old, a_idx, long_tfs, b_idx] =
                words.each_ref().map(|w| gpu.htod(w).unwrap());
            let n = docids.len();
            let out_scores = gpu.alloc::<f32>(n).unwrap();
            let outputs = vec![out_scores.cast()];
            let kernel = ScoreAccumKernel {
                docids,
                old_scores: old.cast(),
                a_idx,
                tfs: if *long { long_tfs } else { tfs },
                b_idx: long.then_some(b_idx),
                out_scores,
                doc_lens: lens.then_some(doc_lens),
                p: p(),
                n,
            };
            (kernel, LaunchConfig::cover(n, BLOCK_DIM), outputs)
        });
        assert!(tally.twin_blocks > 0, "{tally:?}");
    }
}
