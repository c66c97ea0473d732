//! Device-resident layouts of compressed posting lists, and the transfers
//! that put them there.
//!
//! A [`DeviceEfList`] is the GPU image of an Elias–Fano [`BlockedList`]:
//! the blocks' codec words exactly as the index stores them (header,
//! high bits, low bits), where each block starts in them and in the
//! output, its decode base, and the skip table (first/last docID per
//! block) for the parallel binary-search path. Everything is shipped in a
//! single packed DMA.

use griffin_codec::{BlockedList, Codec, CodecError, EfBlockRef};
use griffin_gpu_sim::{DeviceBuffer, Gpu, Scope};
use griffin_index::CompressedPostingList;

use crate::error::GpuError;

/// GPU image of one EF-compressed docID list.
#[derive(Debug)]
pub struct DeviceEfList {
    /// Total elements.
    pub len: usize,
    pub num_blocks: usize,
    /// The blocks' codec words back to back: per block its header
    /// (`count:16 | b:6 | hb_len:10`, see `EfBlock::to_words`), its
    /// high-bits words, then its low-bits words.
    pub words: DeviceBuffer<u32>,
    /// Per block: index of its header in `words`.
    pub block_word_start: DeviceBuffer<u32>,
    /// Per block: index of its first element in the list.
    pub block_elem_start: DeviceBuffer<u32>,
    /// Per block: decode base (docID preceding the block).
    pub block_base: DeviceBuffer<u32>,
    /// Skip table: per block first docID.
    pub skip_first: DeviceBuffer<u32>,
    /// Skip table: per block last docID.
    pub skip_last: DeviceBuffer<u32>,
    /// Largest per-block high-bits word count and element count (they
    /// size the block-local decoder's shared memory).
    pub max_block_hb_words: usize,
    pub max_block_len: usize,
    /// Bytes shipped over PCIe for this list.
    pub bytes_shipped: u64,
}

/// Host-side staging of the flattened arrays (kept separate so tests can
/// inspect the layout without a device).
pub struct EfListImage {
    pub words: Vec<u32>,
    pub block_word_start: Vec<u32>,
    pub block_elem_start: Vec<u32>,
    pub block_base: Vec<u32>,
    pub skip_first: Vec<u32>,
    pub skip_last: Vec<u32>,
    pub max_block_hb_words: usize,
    pub max_block_len: usize,
    pub len: usize,
}

impl EfListImage {
    /// Flattens an EF [`BlockedList`] into the device layout.
    ///
    /// Returns `Err` if any block fails validation (truncated or
    /// malformed words, or high bits set other than one per element) —
    /// corrupt data must not reach the device.
    /// Passing a non-EF list is a programming error and panics.
    pub fn build(list: &BlockedList) -> Result<EfListImage, CodecError> {
        EfListImage::build_range(list, 0, list.num_blocks())
    }

    /// Flattens blocks `[lo_block, hi_block)` of an EF [`BlockedList`]
    /// into a self-contained device layout — the GPU lane of a
    /// co-executed split ships only its slice's blocks over PCIe.
    ///
    /// All intra-image indices (`block_word_start`, `block_elem_start`)
    /// are rebased to the range, so every kernel operates on the image
    /// exactly as if it were a complete list; only `block_base` stays
    /// global, because decode needs the true docID preceding each block.
    /// Element positions produced by kernels are therefore range-local.
    pub fn build_range(
        list: &BlockedList,
        lo_block: usize,
        hi_block: usize,
    ) -> Result<EfListImage, CodecError> {
        assert!(
            matches!(list.codec, Codec::EliasFano),
            "device lists must be Elias–Fano compressed (got {:?})",
            list.codec
        );
        assert!(
            lo_block <= hi_block && hi_block <= list.num_blocks(),
            "block range {lo_block}..{hi_block} out of bounds ({} blocks)",
            list.num_blocks()
        );
        let nb = hi_block - lo_block;
        let elem_base = list
            .skips
            .get(lo_block)
            .map(|s| s.elem_start)
            .unwrap_or(list.len() as u32);
        let elem_end = if hi_block < list.num_blocks() {
            list.skips[hi_block].elem_start
        } else {
            list.len() as u32
        };
        let range_words = list.skips[lo_block..hi_block]
            .iter()
            .map(|s| s.word_len as usize);
        let mut img = EfListImage {
            words: Vec::with_capacity(range_words.sum()),
            block_word_start: Vec::with_capacity(nb),
            block_elem_start: Vec::with_capacity(nb),
            block_base: Vec::with_capacity(nb),
            skip_first: Vec::with_capacity(nb),
            skip_last: Vec::with_capacity(nb),
            max_block_hb_words: 0,
            max_block_len: 0,
            len: (elem_end - elem_base) as usize,
        };
        for (i, skip) in list.skips.iter().enumerate().take(hi_block).skip(lo_block) {
            let words = list
                .words
                .get(skip.word_start as usize..(skip.word_start + skip.word_len) as usize)
                .ok_or(CodecError::Truncated)?;
            let blk = EfBlockRef::parse(words)?;
            // The lanes place one element per high bit set, and the
            // streams hold exactly `count` of them.
            blk.check_streams()?;
            img.block_word_start.push(img.words.len() as u32);
            img.block_elem_start.push(skip.elem_start - elem_base);
            img.block_base.push(list.block_base(i));
            img.words
                .extend_from_slice(&words[..1 + blk.hb_words.len() + blk.lb_words.len()]);
            img.skip_first.push(skip.first_docid);
            img.skip_last.push(skip.last_docid);
            img.max_block_hb_words = img.max_block_hb_words.max(blk.hb_words.len());
            img.max_block_len = img.max_block_len.max(blk.count as usize);
        }
        Ok(img)
    }
}

impl DeviceEfList {
    /// Ships the list to the device in one packed transfer.
    ///
    /// Fails on corrupt list data (validated host-side before the DMA)
    /// and on device faults during the transfer.
    pub fn upload(gpu: &Gpu, list: &BlockedList) -> Result<DeviceEfList, GpuError> {
        DeviceEfList::upload_image(gpu, EfListImage::build(list)?)
    }

    /// Ships only blocks `[lo_block, hi_block)` — the GPU slice of a
    /// range-partitioned co-executed intersection.
    pub fn upload_range(
        gpu: &Gpu,
        list: &BlockedList,
        lo_block: usize,
        hi_block: usize,
    ) -> Result<DeviceEfList, GpuError> {
        DeviceEfList::upload_image(gpu, EfListImage::build_range(list, lo_block, hi_block)?)
    }

    fn upload_image(gpu: &Gpu, img: EfListImage) -> Result<DeviceEfList, GpuError> {
        // The staging arrays are moved into the device pool (no per-part
        // copy): they were built for this upload and die here anyway.
        let EfListImage {
            words,
            block_word_start,
            block_elem_start,
            block_base,
            skip_first,
            skip_last,
            max_block_hb_words,
            max_block_len,
            len,
        } = img;
        let num_blocks = block_word_start.len();
        // The codec words plus the five per-block arrays.
        let bytes_shipped = (words.len() + num_blocks * 5) as u64 * 4;
        let [words, block_word_start, block_elem_start, block_base, skip_first, skip_last] = gpu
            .htod_packed([
                words,
                block_word_start,
                block_elem_start,
                block_base,
                skip_first,
                skip_last,
            ])?;
        Ok(DeviceEfList {
            len,
            num_blocks,
            words,
            block_word_start,
            block_elem_start,
            block_base,
            skip_first,
            skip_last,
            max_block_hb_words,
            max_block_len,
            bytes_shipped,
        })
    }

    /// The six device buffers behind this list, in upload order.
    fn buffers(&self) -> [&DeviceBuffer<u32>; 6] {
        [
            &self.words,
            &self.block_word_start,
            &self.block_elem_start,
            &self.block_base,
            &self.skip_first,
            &self.skip_last,
        ]
    }

    /// Releases all device memory of this list.
    pub fn free(self, gpu: &Gpu) {
        for b in self.buffers() {
            gpu.free(b.clone());
        }
    }
}

/// GPU image of a full posting list: EF docIDs plus the VByte term
/// frequencies (packed bytes + per-block offsets) for on-device scoring.
#[derive(Debug)]
pub struct DevicePostings {
    pub docs: DeviceEfList,
    /// VByte tf stream packed into words (4 bytes per word, LE).
    pub tf_words: DeviceBuffer<u32>,
    /// Per block: byte offset of its tf run (num_blocks + 1 entries).
    pub tf_offsets: DeviceBuffer<u32>,
    /// Most `tf_words` any one block's run touches (sizes the decoder's
    /// shared memory).
    pub max_block_tf_words: usize,
    /// Document frequency BM25 scores this list with — the *full* list's
    /// df even when only a block range is resident (idf must not depend
    /// on where a co-execution split landed), and the whole-corpus df
    /// when the list belongs to a shard view (idf must not depend on
    /// where the shard boundary landed either).
    pub df: u32,
}

impl DevicePostings {
    /// Ships docIDs and term frequencies to the device; a fault during
    /// the tf transfer releases the already-resident docID image. `df`
    /// is the document frequency the scorer must use — pass the index's
    /// scoring df, which differs from `list.len()` on shard views.
    pub fn upload(
        gpu: &Gpu,
        list: &CompressedPostingList,
        df: u32,
    ) -> Result<DevicePostings, GpuError> {
        DevicePostings::upload_range(gpu, list, 0, list.docs.num_blocks(), df)
    }

    /// Ships only blocks `[lo_block, hi_block)`: the EF docID slice plus
    /// the matching window of the VByte tf stream (offsets rebased to the
    /// slice). `df` still reports the scoring df of the whole list.
    pub fn upload_range(
        gpu: &Gpu,
        list: &CompressedPostingList,
        lo_block: usize,
        hi_block: usize,
        df: u32,
    ) -> Result<DevicePostings, GpuError> {
        // The docID image is this call's until the tf upload has landed too.
        let mut scope = Scope::new(gpu);
        let docs = DeviceEfList::upload_range(gpu, &list.docs, lo_block, hi_block)?;
        for b in docs.buffers() {
            scope.adopt(b.clone());
        }
        let (tf_bytes, tf_offsets) = list.tf_raw();
        let byte_lo = tf_offsets[lo_block] as usize;
        let byte_hi = tf_offsets[hi_block] as usize;
        let tf_bytes = &tf_bytes[byte_lo..byte_hi];
        let local_offsets: Vec<u32> = tf_offsets[lo_block..=hi_block]
            .iter()
            .map(|&o| o - byte_lo as u32)
            .collect();
        let max_block_tf_words = local_offsets
            .windows(2)
            .map(|w| (w[1] as usize).div_ceil(4) - w[0] as usize / 4)
            .max()
            .unwrap_or(0);
        let mut tf_words = Vec::with_capacity(tf_bytes.len().div_ceil(4));
        for chunk in tf_bytes.chunks(4) {
            let mut w = 0u32;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u32::from(b) << (8 * i);
            }
            tf_words.push(w);
        }
        // Both staging arrays were built for this upload: move them into
        // the device pool rather than copying.
        let [tf_words, tf_offsets] = gpu.htod_packed([tf_words, local_offsets])?;
        for b in docs.buffers() {
            scope.keep(b.clone());
        }
        Ok(DevicePostings {
            docs,
            tf_words,
            tf_offsets,
            max_block_tf_words,
            df,
        })
    }

    pub fn len(&self) -> usize {
        self.docs.len
    }

    pub fn is_empty(&self) -> bool {
        self.docs.len == 0
    }

    pub fn free(self, gpu: &Gpu) {
        self.docs.free(gpu);
        gpu.free(self.tf_words);
        gpu.free(self.tf_offsets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::DEFAULT_BLOCK_LEN;
    use griffin_gpu_sim::DeviceConfig;

    fn docids(n: u32) -> Vec<u32> {
        (0..n).map(|i| i * 6 + 3).collect()
    }

    #[test]
    fn image_layout_is_consistent() {
        let ids = docids(500);
        let list = BlockedList::compress(&ids, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let img = EfListImage::build(&list).unwrap();
        assert_eq!(img.len, 500);
        assert_eq!(img.block_word_start.len(), 4);
        assert_eq!(img.max_block_len, DEFAULT_BLOCK_LEN);
        // Every block's words start with the header the codec wrote, and
        // the blocks tile `words` with nothing between them.
        let mut next = 0;
        for (b, &start) in img.block_word_start.iter().enumerate() {
            assert_eq!(start as usize, next);
            let blk = EfBlockRef::parse(&img.words[next..]).unwrap();
            assert_eq!(blk.count, list.skips[b].count);
            assert!(blk.hb_words.len() <= img.max_block_hb_words);
            next += 1 + blk.hb_words.len() + blk.lb_words.len();
        }
        assert_eq!(next, img.words.len());
        assert_eq!(img.skip_first[0], ids[0]);
        assert_eq!(*img.skip_last.last().unwrap(), *ids.last().unwrap());
    }

    #[test]
    fn range_image_is_a_rebased_slice_of_the_full_image() {
        let ids = docids(500); // 4 blocks at the default block length
        let list = BlockedList::compress(&ids, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let full = EfListImage::build(&list).unwrap();
        let (lo, hi) = (1, 3);
        let img = EfListImage::build_range(&list, lo, hi).unwrap();
        let elem_base = list.skips[lo].elem_start;
        assert_eq!(img.len, (list.skips[hi].elem_start - elem_base) as usize);
        assert_eq!(img.block_word_start.len(), hi - lo);
        // Rebased: element and word starts are range-local…
        assert_eq!(img.block_elem_start[0], 0);
        assert_eq!(img.block_word_start[0], 0);
        // …while per-block payloads and the global decode bases match the
        // corresponding window of the full image.
        let (w_lo, w_hi) = (full.block_word_start[lo], full.block_word_start[hi]);
        assert_eq!(img.words[..], full.words[w_lo as usize..w_hi as usize]);
        assert_eq!(img.block_base[..], full.block_base[lo..hi]);
        assert_eq!(img.skip_first[..], full.skip_first[lo..hi]);
        assert_eq!(img.skip_last[..], full.skip_last[lo..hi]);
        // An empty range is valid and carries nothing.
        let empty = EfListImage::build_range(&list, 2, 2).unwrap();
        assert_eq!(empty.len, 0);
        assert!(empty.words.is_empty() && empty.block_base.is_empty());
    }

    #[test]
    fn range_upload_ships_fewer_bytes_and_keeps_full_df() {
        let ids = docids(2000);
        let list = CompressedPostingList::from_docids(&ids, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let full = DevicePostings::upload(&gpu, &list, list.len() as u32).unwrap();
        let full_bytes = full.docs.bytes_shipped;
        full.free(&gpu);
        let nb = list.docs.num_blocks();
        let part =
            DevicePostings::upload_range(&gpu, &list, nb / 2, nb, list.len() as u32).unwrap();
        assert!(part.docs.bytes_shipped < full_bytes);
        assert_eq!(part.df, list.len() as u32, "idf must see the whole list");
        assert_eq!(part.docs.num_blocks, nb - nb / 2);
        part.free(&gpu);
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "Elias–Fano")]
    fn rejects_non_ef_lists() {
        let list = BlockedList::compress(&docids(10), Codec::PforDelta, 128);
        let _ = EfListImage::build(&list);
    }

    #[test]
    fn corrupt_list_is_rejected_before_the_dma() {
        let ids = docids(500);
        let mut list = BlockedList::compress(&ids, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        list.words.truncate(list.words.len() - 1);
        list.skips.last_mut().unwrap().word_len -= 1;
        assert!(EfListImage::build(&list).is_err());
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let err = DeviceEfList::upload(&gpu, &list).unwrap_err();
        assert!(matches!(err, GpuError::Corrupt(_)));
        assert_eq!(gpu.mem_in_use(), 0, "nothing may reach the device");
    }

    #[test]
    fn faulted_upload_leaves_no_device_memory() {
        use griffin_gpu_sim::{FaultKind, FaultPlan, TransferDir};
        let ids = docids(2000);
        let list = CompressedPostingList::from_docids(&ids, Codec::EliasFano, DEFAULT_BLOCK_LEN);
        // Fail the second packed DMA (op 1: the tf upload).
        let mut cfg = DeviceConfig::test_tiny();
        cfg.fault_plan = Some(FaultPlan::seeded(0).fail_at(
            1,
            FaultKind::TransferError {
                dir: TransferDir::HtoD,
            },
        ));
        let gpu = Gpu::new(cfg);
        let err = DevicePostings::upload(&gpu, &list, list.len() as u32).unwrap_err();
        assert!(matches!(err, GpuError::Device(_)));
        assert_eq!(
            gpu.mem_in_use(),
            0,
            "the docID image must be released when the tf DMA faults"
        );
    }

    #[test]
    fn upload_charges_transfer_and_allocates() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let list = BlockedList::compress(&docids(1000), Codec::EliasFano, 128);
        let t0 = gpu.now();
        let dev = DeviceEfList::upload(&gpu, &list).unwrap();
        assert!(gpu.now() > t0);
        assert!(dev.bytes_shipped > 0);
        assert!(gpu.mem_in_use() > 0);
        dev.free(&gpu);
        assert_eq!(gpu.mem_in_use(), 0);
    }
}
