//! Para-EF: parallel Elias–Fano decompression (paper §3.1.1, Algorithm 1),
//! run block-locally: one launch per list, **one warp per posting block**.
//!
//! The paper's prefix sum is a device-wide "synchronization point" because
//! its lists are one Elias–Fano sequence. Ours are partitioned into
//! posting blocks and the index stores where each block's output starts
//! (`elem_start`), so no thread ever needs a popcount from another block:
//! Algorithm 1 runs inside the block, over its handful of high-bits
//! words, with block barriers where the paper has kernel boundaries.
//!
//! 0. **Stage** — a few lanes fetch the block's scalars (where its words
//!    start, its header, where its output goes, its base, its tf run)
//!    into shared memory, once.
//! 1. **Popcount** — lanes stride over the block's high-bits words
//!    (coalesced) and count the elements each encodes (`__popc`); the
//!    VByte run of term frequencies is staged in shared memory the same
//!    way, counting the varints that end in each word.
//! 2. **Prefix sum** — over the block's few counts, in shared memory.
//! 3. **Scatter (scheduling)** — each word's lane enumerates its set bits
//!    and writes each element's high part to the element's slot
//!    (Algorithm 1 lines 4–8); each tf word's lane decodes the varints
//!    that start in it, straight to `tfs[elem_start + k]`.
//! 4. **Recover** — lanes stride over the block's elements, fetch the low
//!    bits, concatenate and store `docids[elem_start + j]` (lines 9–10),
//!    coalesced.
//!
//! [`gpu_binary`](crate::gpu_binary) runs the same kernel over the blocks
//! its skip search selected, into a slab instead of the list's positions.
//!
//! A block no warp of which is traced runs as the kernel's native twin:
//! the device image is the index's codec words, so the codec's own
//! decoders ([`EfBlockRef`], [`varint::decode_words_n`]) compute its
//! stores. The decode is the one kernel that declares a replay key
//! ([`Kernel::memo_key`]): a decode of a list the device has decoded
//! before, unchanged, runs every block as the twin and reports the first
//! run's counters.

use griffin_codec::{varint, EfBlockRef};
use griffin_gpu_sim::{
    BlockMem, DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, LaunchKey, Op, Scope, ThreadCtx,
};

use crate::native;
use crate::transfer::{DeviceEfList, DevicePostings};

/// Lanes per posting block: one warp, so a 128-element block gives each
/// lane four elements and the per-lane set-up is paid once for the four.
const LANES: u32 = 32;

// Shared-memory slots of the per-block scalars.
const WORD_START: usize = 0;
const HEADER: usize = 1;
const OUT_START: usize = 2;
const BASE: usize = 3;
const TF_LO: usize = 4;
const TF_HI: usize = 5;
const SCALARS: usize = 6;

/// The term-frequency side of a decode: the VByte stream and where the
/// decoded values go.
struct TfSide {
    words: DeviceBuffer<u32>,
    offsets: DeviceBuffer<u32>,
    out: DeviceBuffer<u32>,
    max_block_words: usize,
}

/// The blocks a selective decode covers: GPU block `g < count` decodes
/// list block `blocks[g]` into `out[g * stride ..]`.
pub(crate) struct Selected {
    pub blocks: DeviceBuffer<u32>,
    pub count: usize,
    pub stride: usize,
}

struct DecodeKernel {
    words: DeviceBuffer<u32>,
    block_word_start: DeviceBuffer<u32>,
    block_elem_start: DeviceBuffer<u32>,
    block_base: DeviceBuffer<u32>,
    max_hb_words: usize,
    max_block_len: usize,
    /// `None`: GPU block `g` decodes list block `g` to its own position.
    select: Option<Selected>,
    out: DeviceBuffer<u32>,
    tf: Option<TfSide>,
}

/// A lane's registers: the block's scalars, read from shared memory once.
#[derive(Default)]
struct Lane {
    hb_start: usize,
    hb_words: usize,
    count: usize,
    b: u32,
    out_start: usize,
    base: u32,
    tf_lo: usize,
    tf_hi: usize,
}

impl Lane {
    /// Index of the first staged tf word in the stream, and how many the
    /// block's run touches.
    fn tf_words(&self) -> (usize, usize) {
        let first = self.tf_lo / 4;
        (first, self.tf_hi.div_ceil(4) - first)
    }
}

/// Bit `8i + 7` is set for each byte `i` of stream word `w` that lies in
/// the run `[lo, hi)` and ends a varint (no continuation bit). `w` touches
/// the run, so the shifts stay below 32.
#[inline]
fn varint_ends(word: u32, w: usize, lo: usize, hi: usize) -> u32 {
    let mut ends = !word & 0x8080_8080 & (u32::MAX << (8 * lo.saturating_sub(4 * w)));
    if hi - 4 * w < 4 {
        ends &= (1 << (8 * (hi - 4 * w))) - 1;
    }
    ends
}

impl DecodeKernel {
    // Shared-memory areas behind the scalars.
    fn hb_counts(&self) -> usize {
        SCALARS
    }
    fn highs(&self) -> usize {
        self.hb_counts() + self.max_hb_words
    }
    fn tf_staged(&self) -> usize {
        self.highs() + self.max_block_len
    }
    fn tf_counts(&self, tf: &TfSide) -> usize {
        self.tf_staged() + tf.max_block_words
    }

    /// Phase 0: one lane per scalar (two for the lane that chases the
    /// header through `block_word_start`).
    fn stage(&self, t: &mut ThreadCtx<'_>) {
        let lane = t.thread_idx;
        if !t.branch(lane < 4) {
            return;
        }
        let g = t.block_idx as usize;
        let blk = match &self.select {
            Some(select) => t.ld(&select.blocks, g) as usize,
            None => g,
        };
        match (lane, &self.select, &self.tf) {
            (0, _, _) => {
                let start = t.ld(&self.block_word_start, blk);
                t.st_shared(WORD_START, start);
                let header = t.ld(&self.words, start as usize);
                t.st_shared(HEADER, header);
            }
            (1, Some(select), _) => t.st_shared(OUT_START, (g * select.stride) as u32),
            (1, None, _) => {
                let start = t.ld(&self.block_elem_start, blk);
                t.st_shared(OUT_START, start);
            }
            (2, _, _) => {
                let base = t.ld(&self.block_base, blk);
                t.st_shared(BASE, base);
            }
            (3, _, Some(tf)) => {
                let lo = t.ld(&tf.offsets, blk);
                t.st_shared(TF_LO, lo);
                let hi = t.ld(&tf.offsets, blk + 1);
                t.st_shared(TF_HI, hi);
            }
            _ => {}
        }
    }

    /// Phase 1: scalars into registers; count what each word holds.
    fn count(&self, t: &mut ThreadCtx<'_>, s: &mut Lane) {
        s.hb_start = t.ld_shared(WORD_START) as usize + 1;
        // `count:16 | b:6 | hb_len:10`, as `EfBlock::to_words` packs it.
        let header = t.ld_shared(HEADER);
        s.count = (header & 0xFFFF) as usize;
        s.b = (header >> 16) & 0x3F;
        s.hb_words = (header >> 22) as usize;
        s.out_start = t.ld_shared(OUT_START) as usize;
        s.base = t.ld_shared(BASE);
        t.alu(4);
        let lane = t.thread_idx as usize;
        for w in (lane..s.hb_words).step_by(LANES as usize) {
            let word = t.ld(&self.words, s.hb_start + w);
            t.op(Op::Popc, 1);
            t.alu(1);
            t.st_shared(self.hb_counts() + w, word.count_ones());
        }
        let Some(tf) = &self.tf else { return };
        s.tf_lo = t.ld_shared(TF_LO) as usize;
        s.tf_hi = t.ld_shared(TF_HI) as usize;
        let (first, n) = s.tf_words();
        for i in (lane..n).step_by(LANES as usize) {
            let word = t.ld(&tf.words, first + i);
            t.st_shared(self.tf_staged() + i, word);
            let ends = varint_ends(word, first + i, s.tf_lo, s.tf_hi);
            t.op(Op::Popc, 1);
            t.alu(5);
            t.st_shared(self.tf_counts(tf) + i, ends.count_ones());
        }
    }

    /// Phase 2: exclusive prefix sums, in place — lane 0 over the
    /// high-bits counts, lane 1 over the tf counts. A few dozen words at
    /// most; a real kernel would shuffle-scan them at about this cost.
    fn scan(&self, t: &mut ThreadCtx<'_>, s: &Lane) {
        let lane = t.thread_idx;
        if !t.branch(lane < 2) {
            return;
        }
        let (counts, n) = match (lane, &self.tf) {
            (0, _) => (self.hb_counts(), s.hb_words),
            (_, Some(tf)) => (self.tf_counts(tf), s.tf_words().1),
            _ => return,
        };
        let mut before = 0u32;
        for slot in counts..counts + n {
            let c = t.ld_shared(slot);
            t.st_shared(slot, before);
            before += c;
            t.alu(1);
        }
    }

    /// Phase 3: the scatter. A lane's loop lengths follow its words'
    /// contents — the divergence the tracer records here is real and the
    /// timing model charges for it.
    fn scatter(&self, t: &mut ThreadCtx<'_>, s: &Lane) {
        let lane = t.thread_idx as usize;
        for w in (lane..s.hb_words).step_by(LANES as usize) {
            let mut bits = t.ld(&self.words, s.hb_start + w);
            let mut j = t.ld_shared(self.hb_counts() + w);
            // Element j is the j-th one of the unary stream; the zeros
            // before it are its high part.
            while t.branch(bits != 0) {
                let bitpos = w as u32 * 32 + bits.trailing_zeros();
                t.st_shared(self.highs() + j as usize, bitpos - j);
                bits &= bits - 1;
                j += 1;
                t.op(Op::Popc, 1);
                t.alu(3);
            }
        }
        let Some(tf) = &self.tf else { return };
        let (first, n) = s.tf_words();
        for i in (lane..n).step_by(LANES as usize) {
            let word = t.ld_shared(self.tf_staged() + i);
            let mut k = t.ld_shared(self.tf_counts(tf) + i) as usize;
            // A varint starts at the run's first byte and after every
            // byte that ends one; the word before says which it is here.
            let lo = s.tf_lo.max(4 * (first + i));
            let hi = s.tf_hi.min(4 * (first + i) + 4);
            let mut open = lo > s.tf_lo && t.ld_shared(self.tf_staged() + i - 1) >> 31 == 1;
            for at in lo..hi {
                let byte = word >> (8 * (at % 4));
                if t.branch(!open) {
                    // Decode the varint that starts here, following it
                    // into later words if it runs on.
                    let (mut v, mut shift) = (byte & 0x7F, 7);
                    let (mut next, mut cur, mut more) = (at + 1, word, byte & 0x80 != 0);
                    while t.branch(more) {
                        if next % 4 == 0 {
                            cur = t.ld_shared(self.tf_staged() + next / 4 - first);
                        }
                        let c = cur >> (8 * (next % 4));
                        v |= (c & 0x7F) << shift;
                        more = c & 0x80 != 0;
                        shift += 7;
                        next += 1;
                        t.alu(5);
                    }
                    t.st(&tf.out, s.out_start + k, v);
                }
                open = byte & 0x80 != 0;
                k += usize::from(!open);
                t.alu(3);
            }
        }
    }

    /// Phase 4: one element per lane per round.
    fn recover(&self, t: &mut ThreadCtx<'_>, s: &Lane) {
        let lane = t.thread_idx as usize;
        let lb_bit = (s.hb_start + s.hb_words) * 32;
        for j in (lane..s.count).step_by(LANES as usize) {
            let high = t.ld_shared(self.highs() + j);
            // `b` is one value for the whole block: no lane diverges here.
            let low = if s.b > 0 {
                let bit = lb_bit + j * s.b as usize;
                let off = (bit % 32) as u32;
                let have = 32 - off;
                let mut v = t.ld(&self.words, bit / 32) >> off;
                if t.branch(s.b > have) {
                    v |= t.ld(&self.words, bit / 32 + 1) << have;
                }
                t.alu(4);
                // The codec never emits b >= 32 (upload rejects it).
                v & ((1u32 << s.b) - 1)
            } else {
                0
            };
            t.alu(3);
            t.st(&self.out, s.out_start + j, s.base + ((high << s.b) | low));
        }
    }

    /// What GPU block `g` stores, computed on the host: its docIDs into
    /// `docids` and, with a tf side, its term frequencies into `tfs`;
    /// returns where both go. `None` for a block no valid upload produces,
    /// on which the lanes must run: a stream shorter than its header says,
    /// high bits whose popcount is not the header's count, a shape beyond
    /// the shared memory the launch sized, a docID past `u32::MAX`, or a
    /// tf run that does not hold exactly `count` whole varints. Every load
    /// and store the lanes would make is in bounds when this succeeds.
    fn decode_natively(
        &self,
        g: usize,
        mem: &BlockMem<'_>,
        docids: &mut Vec<u32>,
        tfs: &mut Vec<u32>,
    ) -> Option<usize> {
        let blk = match &self.select {
            Some(select) => *mem.words(&select.blocks).get(g)? as usize,
            None => g,
        };
        let start = *mem.words(&self.block_word_start).get(blk)? as usize;
        let ef = EfBlockRef::parse(mem.words(&self.words).get(start..)?).ok()?;
        let count = ef.count as usize;
        let ones: u32 = ef.hb_words.iter().map(|w| w.count_ones()).sum();
        if ones as usize != count
            || count > self.max_block_len
            || ef.hb_words.len() > self.max_hb_words
        {
            return None;
        }
        // Staged through a shared word, as the lanes stage it.
        let out_start = match &self.select {
            Some(select) => u32::try_from(g * select.stride).ok()? as usize,
            None => *mem.words(&self.block_elem_start).get(blk)? as usize,
        };
        let base = *mem.words(&self.block_base).get(blk)?;
        ef.decode_into(0, docids).ok()?;
        for v in docids.iter_mut() {
            *v = base.checked_add(*v)?;
        }
        if out_start + count > self.out.len() {
            return None;
        }
        if let Some(tf) = &self.tf {
            let offsets = mem.words(&tf.offsets);
            let lo = *offsets.get(blk)? as usize;
            let hi = *offsets.get(blk + 1)? as usize;
            let stream = mem.words(&tf.words);
            if hi < lo
                || hi.div_ceil(4) > stream.len()
                || hi.div_ceil(4) - lo / 4 > tf.max_block_words
                || out_start + count > tf.out.len()
                || varint::decode_words_n(stream, lo, hi, count, tfs).ok()? != hi
            {
                return None;
            }
        }
        Some(out_start)
    }
}

impl Kernel for DecodeKernel {
    fn name(&self) -> &'static str {
        "para_ef.decode"
    }

    type State = Lane;

    fn phases(&self) -> usize {
        5
    }

    fn shared_mem_words(&self, _block_dim: u32) -> usize {
        match &self.tf {
            Some(tf) => self.tf_counts(tf) + tf.max_block_words,
            None => self.tf_staged(),
        }
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, s: &mut Lane) {
        match phase {
            0 => self.stage(t),
            1 => self.count(t, s),
            2 => self.scan(t, s),
            3 => self.scatter(t, s),
            _ => self.recover(t, s),
        }
    }

    /// The scatter's tf stores, then the recover's docID stores: each
    /// index once, so one run per array leaves what the lanes leave.
    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        native::with_scratch(|[docids, tfs, ..]| {
            let Some(out_start) = self.decode_natively(block as usize, mem, docids, tfs) else {
                return false;
            };
            if let Some(tf) = &self.tf {
                mem.st_run(&tf.out, out_start, tfs);
            }
            mem.st_run(&self.out, out_start, docids);
            true
        })
    }

    /// Replayable: a decode reads a device-resident list, and the device
    /// list cache keeps one upload of a hot list, whose stamps therefore
    /// recur from query to query (DESIGN.md, "How a launch executes on the
    /// host").
    fn memo_key(&self, key: &mut LaunchKey) -> bool {
        key.read(&self.words);
        key.read(&self.block_word_start);
        key.read(&self.block_elem_start);
        key.read(&self.block_base);
        key.param(self.max_hb_words as u64);
        key.param(self.max_block_len as u64);
        key.write(&self.out);
        match &self.select {
            Some(select) => {
                key.read(&select.blocks);
                key.param(select.stride as u64);
            }
            None => key.param(u64::MAX),
        }
        match &self.tf {
            Some(tf) => {
                key.read(&tf.words);
                key.read(&tf.offsets);
                key.write(&tf.out);
                key.param(tf.max_block_words as u64);
            }
            None => key.param(u64::MAX),
        }
        true
    }
}

fn launch(
    gpu: &Gpu,
    list: &DeviceEfList,
    select: Option<Selected>,
    out: &DeviceBuffer<u32>,
    tf: Option<TfSide>,
) -> Result<(), DeviceError> {
    let blocks = select.as_ref().map_or(list.num_blocks, |s| s.count);
    if blocks == 0 {
        return Ok(());
    }
    gpu.launch(
        &DecodeKernel {
            words: list.words.clone(),
            block_word_start: list.block_word_start.clone(),
            block_elem_start: list.block_elem_start.clone(),
            block_base: list.block_base.clone(),
            max_hb_words: list.max_block_hb_words,
            max_block_len: list.max_block_len,
            select,
            out: out.clone(),
            tf,
        },
        LaunchConfig::new(blocks as u32, LANES),
    )?;
    Ok(())
}

/// Decompresses a device-resident EF list into a dense docID buffer: one
/// allocation, one launch, nothing else. A fault frees the output.
pub fn decompress(gpu: &Gpu, list: &DeviceEfList) -> Result<DeviceBuffer<u32>, DeviceError> {
    let mut scope = Scope::new(gpu);
    let out = scope.alloc::<u32>(list.len)?;
    launch(gpu, list, None, &out, None)?;
    Ok(scope.keep(out))
}

/// Decompresses the selected blocks of `list` into `out`, block
/// `select.blocks[g]` at `out[g * select.stride ..]`.
pub(crate) fn decompress_selected(
    gpu: &Gpu,
    list: &DeviceEfList,
    select: Selected,
    out: &DeviceBuffer<u32>,
) -> Result<(), DeviceError> {
    launch(gpu, list, Some(select), out, None)
}

/// Decompresses a posting list into dense, aligned `(docids, tfs)` buffers
/// in the same single launch. A fault leaves neither allocated.
pub fn decode_postings(
    gpu: &Gpu,
    postings: &DevicePostings,
) -> Result<(DeviceBuffer<u32>, DeviceBuffer<u32>), DeviceError> {
    let mut scope = Scope::new(gpu);
    let docids = scope.alloc::<u32>(postings.len())?;
    let tfs = scope.alloc::<u32>(postings.len())?;
    let tf = TfSide {
        words: postings.tf_words.clone(),
        offsets: postings.tf_offsets.clone(),
        out: tfs.clone(),
        max_block_words: postings.max_block_tf_words,
    };
    launch(gpu, &postings.docs, None, &docids, Some(tf))?;
    Ok((scope.keep(docids), scope.keep(tfs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuError;
    use griffin_codec::{BlockedList, Codec, CodecError, DEFAULT_BLOCK_LEN};
    use griffin_gpu_sim::{DeviceConfig, DeviceEvent, FaultKind, FaultPlan, LaunchCounters};
    use griffin_index::{CompressedPostingList, Posting};
    use griffin_sim_conformance::{check, devices, Case, Draw};
    use std::sync::{Arc, Mutex};

    /// Term frequencies whose varints are 1, 2, 3 and 5 bytes long in a
    /// cycle of seven, so runs start and end at every byte alignment and
    /// long varints straddle word boundaries.
    fn mixed_tf(i: u32) -> u32 {
        [1, 200, 3, 70_000, 1, u32::MAX, 127][i as usize % 7]
    }

    fn postings(ids: &[u32], tf: impl Fn(u32) -> u32) -> Vec<Posting> {
        let with_tf = |(i, &docid)| Posting {
            docid,
            tf: tf(i as u32),
        };
        ids.iter().enumerate().map(with_tf).collect()
    }

    /// Uploads blocks `lo..hi` of the list and checks both entry points
    /// against the host decode of the same blocks.
    fn check_range(ps: &[Posting], block_len: usize, lo: usize, hi: usize) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let list = CompressedPostingList::compress(ps, Codec::EliasFano, block_len);
        let dev = DevicePostings::upload_range(&gpu, &list, lo, hi, ps.len() as u32).unwrap();
        let want = &ps[(lo * block_len).min(ps.len())..(hi * block_len).min(ps.len())];
        let want_ids: Vec<u32> = want.iter().map(|p| p.docid).collect();
        let want_tfs: Vec<u32> = want.iter().map(|p| p.tf).collect();
        let (docids, tfs) = decode_postings(&gpu, &dev).unwrap();
        assert_eq!(gpu.dtoh(&docids).unwrap(), want_ids, "docids, {block_len}");
        assert_eq!(gpu.dtoh(&tfs).unwrap(), want_tfs, "tfs, {block_len}");
        let alone = decompress(&gpu, &dev.docs).unwrap();
        assert_eq!(gpu.dtoh(&alone).unwrap(), want_ids, "docids alone");
    }

    fn roundtrip(ids: &[u32]) {
        let ps = postings(ids, mixed_tf);
        check_range(
            &ps,
            DEFAULT_BLOCK_LEN,
            0,
            ids.len().div_ceil(DEFAULT_BLOCK_LEN),
        );
    }

    #[test]
    fn single_block() {
        roundtrip(&(0..100u32).map(|i| i * 9 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn multi_block() {
        roundtrip(&(0..5_000u32).map(|i| i * 3 + 2).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_list_with_large_gaps() {
        roundtrip(&(0..1_000u32).map(|i| i * 40_000 + 17).collect::<Vec<_>>());
    }

    #[test]
    fn irregular_gap_pattern() {
        let mut ids = Vec::new();
        let mut cur = 0u32;
        let mut state = 99u64;
        for _ in 0..3_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cur += 1 + (state >> 33) as u32 % 1000;
            ids.push(cur);
        }
        roundtrip(&ids);
    }

    #[test]
    fn empty_list() {
        roundtrip(&[]);
    }

    #[test]
    fn every_block_len_with_a_last_block_of_one_posting() {
        for block_len in [32usize, 64, 128] {
            let n = 7 * block_len as u32 + 1;
            let ids: Vec<u32> = (0..n).map(|i| i * 11 + i % 5).collect();
            check_range(&postings(&ids, mixed_tf), block_len, 0, 8);
        }
    }

    #[test]
    fn tf_runs_meet_mid_word_and_varints_straddle_words() {
        // 128 tfs of the seven-cycle take 252 or 253 bytes, so block runs
        // begin at every alignment; so do the 5-byte varints inside them.
        let ids: Vec<u32> = (0..1_000u32).map(|i| i * 4 + 1).collect();
        let ps = postings(&ids, mixed_tf);
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        let (_, offsets) = list.tf_raw();
        let starts: Vec<u32> = offsets.iter().map(|o| o % 4).collect();
        assert!((1..4).all(|a| starts.contains(&a)), "{starts:?}");
        check_range(&ps, 128, 0, 8);
        // All tfs three bytes long: no varint ever sits inside one word.
        check_range(&postings(&ids, |i| 20_000 + i), 128, 0, 8);
    }

    #[test]
    fn narrowest_and_widest_low_bits() {
        // Consecutive docIDs from 0: every block has b == 0.
        let dense: Vec<u32> = (0..300).collect();
        let list = CompressedPostingList::from_docids(&dense, Codec::EliasFano, 128);
        let b_of = |l: &CompressedPostingList, blk: usize| {
            (l.docs.words[l.docs.skips[blk].word_start as usize] >> 16) & 0x3F
        };
        assert_eq!(b_of(&list, 0), 0);
        check_range(&postings(&dense, mixed_tf), 128, 0, 3);
        // A last block of one posting 2^31 beyond its base: b == 31, the
        // widest `low_bits_for` can return.
        let mut wide: Vec<u32> = (0..64).map(|i| i * 3).collect();
        wide.push(u32::MAX - 5);
        let list = CompressedPostingList::from_docids(&wide, Codec::EliasFano, 64);
        assert_eq!(b_of(&list, 1), 31);
        check_range(&postings(&wide, mixed_tf), 64, 0, 2);
    }

    #[test]
    fn range_images_decode_to_range_local_positions() {
        let ids: Vec<u32> = (0..1_000u32).map(|i| i * 13 + 7).collect();
        let ps = postings(&ids, mixed_tf);
        for (lo, hi) in [(0, 3), (2, 5), (5, 8), (7, 8), (4, 4)] {
            check_range(&ps, 128, lo, hi);
        }
    }

    #[test]
    fn a_fault_at_any_step_leaves_device_memory_as_it_was() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let ids: Vec<u32> = (0..2_000u32).map(|i| i * 5).collect();
        let list = CompressedPostingList::from_docids(&ids, Codec::EliasFano, 128);
        let dev = DevicePostings::upload(&gpu, &list, 2_000).unwrap();
        let before = gpu.mem_in_use();
        // A decode is two allocations and one launch, in that order — on a
        // cold pool: a request the allocator serves from a block an earlier
        // attempt gave back is no driver call and has no fault index.
        let faults = [
            FaultKind::DeviceOom,
            FaultKind::DeviceOom,
            FaultKind::KernelLaunchFailed,
        ];
        for (op, kind) in faults.into_iter().enumerate() {
            gpu.trim_pool();
            gpu.set_fault_plan(Some(FaultPlan::seeded(0).fail_at(op as u64, kind)));
            assert!(decode_postings(&gpu, &dev).is_err(), "op {op}");
            assert_eq!(gpu.mem_in_use(), before, "op {op}");
        }
        gpu.set_fault_plan(None);
        let (docids, tfs) = decode_postings(&gpu, &dev).unwrap();
        // Only the two outputs remain beyond the list itself.
        assert_eq!(
            gpu.mem_in_use(),
            before + docids.size_bytes() + tfs.size_bytes()
        );
    }

    /// The decode's whole cost on the paper's device, every warp traced:
    /// one launch, two allocations, no read-back, and per posting at most
    /// 4 global accesses and 15 simulator calls (measured 3.5 and 13.8;
    /// the parent's seven launches made 14.9 and 23.4). Mutations that
    /// break each bound: launching `decompress` and a tf kernel separately
    /// (2 launches); giving the counts or the high parts a device buffer
    /// instead of shared memory (3 allocations); reading a total back to
    /// size anything (1 transfer); every lane loading the block's scalars
    /// from global memory instead of phase 0 staging them once (5.0 global
    /// accesses per posting); `LANES = 128`, one element per thread, which
    /// pays the per-lane set-up four times as often (19.8 calls).
    #[test]
    fn full_decode_is_one_launch_and_a_handful_of_calls_per_posting() {
        let n = 200_000u32;
        let ids: Vec<u32> = (0..n).map(|i| i * 9 + i % 7).collect();
        let ps = postings(&ids, |i| if i % 50 == 0 { 300 } else { 1 + i % 3 });
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let gpu = Gpu::new(DeviceConfig::tesla_k20());
        assert_eq!(gpu.config().trace_sample_stride, 1);
        let dev = DevicePostings::upload(&gpu, &list, n).unwrap();

        let launches: Arc<Mutex<Vec<LaunchCounters>>> = Arc::default();
        let transfers = Arc::new(Mutex::new(0u32));
        let (l, x) = (Arc::clone(&launches), Arc::clone(&transfers));
        gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| match e {
            DeviceEvent::KernelLaunch { report, .. } => {
                l.lock().unwrap().push(report.counters.clone())
            }
            DeviceEvent::Transfer { .. } => *x.lock().unwrap() += 1,
        })));
        let stats = gpu.stats();
        let (docids, tfs) = decode_postings(&gpu, &dev).unwrap();
        gpu.set_observer(None);

        assert_eq!(gpu.stats().allocs - stats.allocs, 2, "allocations");
        assert_eq!(gpu.stats().dtoh_bytes, stats.dtoh_bytes, "read-backs");
        assert_eq!(*transfers.lock().unwrap(), 0, "transfers");
        let launches = launches.lock().unwrap();
        assert_eq!(launches.len(), 1, "launches");
        let c = &launches[0];
        let per_posting = |calls: u64| calls as f64 / f64::from(n);
        let global = per_posting(c.gmem_accesses);
        let calls = per_posting(c.gmem_accesses + c.smem_accesses + c.branches);
        assert!(global <= 4.0, "{global} global accesses per posting");
        assert!(calls <= 15.0, "{calls} simulator calls per posting");

        let want_tfs: Vec<u32> = ps.iter().map(|p| p.tf).collect();
        assert_eq!(gpu.dtoh(&docids).unwrap(), ids);
        assert_eq!(gpu.dtoh(&tfs).unwrap(), want_tfs);
    }

    #[test]
    fn decompression_time_grows_sublinearly_per_element() {
        // Bigger lists amortize launch overhead: ns/element must drop.
        let gpu = Gpu::new(DeviceConfig::tesla_k20());
        let mut per_elem = Vec::new();
        for n in [1_000u32, 100_000] {
            let ids: Vec<u32> = (0..n).map(|i| i * 7 + 3).collect();
            let list = CompressedPostingList::from_docids(&ids, Codec::EliasFano, 128);
            let dev = DeviceEfList::upload(&gpu, &list.docs).unwrap();
            let (_, t) = gpu.time(|g| decompress(g, &dev).unwrap());
            per_elem.push(t.as_nanos() as f64 / f64::from(n));
        }
        assert!(
            per_elem[1] < per_elem[0] / 2.0,
            "per-element cost should fall with size: {per_elem:?}"
        );
    }

    /// A tf whose varint is 1, 2, 3 or 5 bytes long (the last straddles a
    /// word wherever it starts).
    fn drawn_tf(draw: &mut Draw) -> u32 {
        match draw.below(4) {
            0 => 1 + draw.below(127) as u32,
            1 => 128 + draw.below(16_000) as u32,
            2 => 20_000 + draw.below(2_000_000) as u32,
            _ => u32::MAX - draw.below(1000) as u32,
        }
    }

    /// `n` docIDs with gaps of 1 to `max_gap`, each with a drawn tf.
    fn drawn(draw: &mut Draw, n: usize, max_gap: u64) -> Vec<Posting> {
        let mut docid = draw.below(max_gap) as u32;
        (0..n)
            .map(|_| {
                let tf = drawn_tf(draw);
                let p = Posting { docid, tf };
                docid += 1 + draw.below(max_gap) as u32;
                p
            })
            .collect()
    }

    /// What a decode case decodes: blocks `lo..hi` of a list with their
    /// tfs, or of its docIDs, or the selected blocks of its docIDs.
    enum Decode {
        Postings(CompressedPostingList, usize, usize),
        Docids(BlockedList, usize, usize),
        Selected(BlockedList, Vec<u32>),
    }

    fn decode_case(gpu: &Gpu, how: &Decode) -> Case<DecodeKernel> {
        let (docs, select, tf) = match how {
            Decode::Postings(list, lo, hi) => {
                let n = list.len() as u32;
                let dev = DevicePostings::upload_range(gpu, list, *lo, *hi, n).unwrap();
                let tf = TfSide {
                    words: dev.tf_words,
                    offsets: dev.tf_offsets,
                    out: gpu.alloc(dev.docs.len).unwrap(),
                    max_block_words: dev.max_block_tf_words,
                };
                (dev.docs, None, Some(tf))
            }
            Decode::Docids(list, lo, hi) => {
                let docs = DeviceEfList::upload_range(gpu, list, *lo, *hi).unwrap();
                (docs, None, None)
            }
            Decode::Selected(list, blocks) => {
                let select = Selected {
                    blocks: gpu.htod(blocks).unwrap(),
                    count: blocks.len(),
                    stride: list.block_len,
                };
                let docs = DeviceEfList::upload(gpu, list).unwrap();
                (docs, Some(select), None)
            }
        };
        let blocks = select.as_ref().map_or(docs.num_blocks, |s| s.count);
        let len = select.as_ref().map_or(docs.len, |s| s.count * s.stride);
        let out = gpu.alloc::<u32>(len).unwrap();
        let mut outputs = vec![out.clone()];
        outputs.extend(tf.as_ref().map(|tf| tf.out.clone()));
        let kernel = DecodeKernel {
            words: docs.words,
            block_word_start: docs.block_word_start,
            block_elem_start: docs.block_elem_start,
            block_base: docs.block_base,
            max_hb_words: docs.max_block_hb_words,
            max_block_len: docs.max_block_len,
            select,
            out,
            tf,
        };
        (kernel, LaunchConfig::new(blocks as u32, LANES), outputs)
    }

    /// Block lengths 32, 64 and 128 with a last block of one posting;
    /// b = 0 and b = 31; tf runs beginning at every byte alignment, with
    /// 5-byte varints straddling words; range images; and selective
    /// decodes. Every decode replays on its second launch. Mutations that
    /// fail it: the twin dropping a block's last varint
    /// (`&tfs[..tfs.len() - 1]`); the decode's key leaving out
    /// `key.read(&self.block_base)` (debug builds: the first launch loads a
    /// buffer the key does not name).
    #[test]
    fn decode_conforms() {
        let mut cases = Vec::new();
        let mut add = |what: &str, ps: &[Posting], block_len, ranges: &[_], select: Vec<u32>| {
            let list = CompressedPostingList::compress(ps, Codec::EliasFano, block_len);
            for &(lo, hi) in ranges {
                let docs = Decode::Docids(list.docs.clone(), lo, hi);
                cases.push((format!("{what}, {lo}..{hi} docIDs"), docs));
                let postings = Decode::Postings(list.clone(), lo, hi);
                cases.push((format!("{what}, {lo}..{hi}"), postings));
            }
            if !select.is_empty() {
                let selected = Decode::Selected(list.docs, select);
                cases.push((format!("{what}, selected"), selected));
            }
        };
        let mut draw = Draw::new(0xDEC0DE);
        for block_len in [32usize, 64, 128] {
            let max_gap = 1 + draw.below(3000);
            let ps = drawn(&mut draw, 7 * block_len + 1, max_gap);
            let select = (0..8).filter(|_| draw.below(3) > 0).collect();
            add(
                &format!("blocks of {block_len}"),
                &ps,
                block_len,
                &[(0, 8)],
                select,
            );
        }
        let tf = |docid| Posting {
            docid,
            tf: drawn_tf(&mut draw),
        };
        let dense: Vec<Posting> = (0..300).map(tf).collect();
        add("b = 0", &dense, 128, &[(0, 3)], vec![2, 0]);
        // A last block of one posting 2^31 past its base.
        let mut wide = drawn(&mut draw, 64, 4);
        wide.push(Posting {
            docid: u32::MAX - 5,
            tf: 1,
        });
        add("b = 31", &wide, 64, &[(0, 2)], vec![1]);
        let n = 1_000 + draw.below(1_000) as usize;
        let ps = drawn(&mut draw, n, 60);
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        let starts: Vec<u32> = list.tf_raw().1.iter().map(|o| o % 4).collect();
        assert!((1..4).all(|a| starts.contains(&a)), "{starts:?}");
        let b = n.div_ceil(128);
        add(
            "range images",
            &ps,
            128,
            &[(0, b), (1, b - 1), (b - 1, b)],
            vec![],
        );
        let tally = check(&cases, decode_case);
        assert!(
            tally.twin_blocks > 0 && tally.replayed_blocks > 0,
            "{tally:?}"
        );
    }

    /// Every truncation and single-bit flip of the last block of seeded EF
    /// lists, their skips intact, is refused at upload as corrupt, with
    /// nothing left on the device and the codec's reader refusing the
    /// block with the same error, or decodes, on every path alike, to what
    /// the codec's reader returns. Mutations that fail it: the upload
    /// checking only that the block parses (a flipped high bit then panics
    /// in the lanes or decodes to other docIDs), and
    /// `EfBlockRef::check_streams` accepting more ones than elements (the
    /// CPU then decodes a block the upload refuses).
    #[test]
    fn a_corrupt_block_is_refused_or_decodes_as_the_codec_reads_it() {
        let mut draw = Draw::new(0xEF_B10C);
        for block_len in [32usize, 128] {
            let max_gap = 1 + draw.below(5000);
            let ids: Vec<u32> = drawn(&mut draw, 3 * block_len, max_gap)
                .iter()
                .map(|p| p.docid)
                .collect();
            let list = BlockedList::compress(&ids, Codec::EliasFano, block_len);
            let last = *list.skips.last().unwrap();
            let (start, len) = (last.word_start as usize, last.word_len as usize);
            let mut bad = Vec::new();
            for cut in 0..len {
                let mut l = list.clone();
                l.words.truncate(start + cut);
                bad.push((format!("{block_len}: cut {cut}"), l));
            }
            for (w, bit) in (start..start + len).flat_map(|w| (0..32).map(move |bit| (w, bit))) {
                let mut l = list.clone();
                l.words[w] ^= 1 << bit;
                bad.push((format!("{block_len}: word {w} bit {bit}"), l));
            }
            let mut accepted = Vec::new();
            for (what, l) in bad {
                let gpu = Gpu::new(DeviceConfig::test_tiny());
                match DeviceEfList::upload(&gpu, &l) {
                    Err(GpuError::Corrupt(e)) => {
                        assert_eq!(gpu.mem_in_use(), 0, "{what}");
                        let host = l
                            .words
                            .get(start..start + len)
                            .ok_or(CodecError::Truncated)
                            .and_then(EfBlockRef::parse)
                            .and_then(|b| b.decode_into(0, &mut Vec::new()));
                        assert_eq!(host, Err(e), "{what}");
                    }
                    Err(e) => panic!("{what}: {e}"),
                    Ok(dev) => {
                        let mut want = Vec::new();
                        for (i, s) in l.skips.iter().enumerate() {
                            let words = &l.words[s.word_start as usize..][..s.word_len as usize];
                            let blk = EfBlockRef::parse(words).unwrap();
                            blk.decode_into(l.block_base(i), &mut want).unwrap();
                        }
                        let out = decompress(&gpu, &dev).unwrap();
                        assert_eq!(gpu.dtoh(&out).unwrap(), want, "{what}");
                        accepted.push((what, Decode::Docids(l, 0, 3)));
                    }
                }
            }
            assert!(!accepted.is_empty());
            check(&accepted, decode_case);
        }
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
        // Each decode pays one `cudaMalloc` for its output.
        let decode = |gpu: &Gpu, list: &DeviceEfList| {
            let (out, time) = gpu.time(|gpu| decompress(gpu, list).unwrap());
            (gpu.dtoh(&out).unwrap(), time)
        };
        for cfg in devices() {
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
            let (ids, time) = decode(&gpu, &list);
            assert_eq!(ids, b.0, "{}", cfg.trace_sample_stride);
            assert_eq!(time, want, "{}", cfg.trace_sample_stride);
        }
    }
}
