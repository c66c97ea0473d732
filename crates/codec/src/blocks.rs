//! Blocked compressed lists with skip pointers (paper Fig. 2).
//!
//! A [`BlockedList`] stores a sorted docID sequence as independently
//! compressed fixed-size blocks plus one [`SkipEntry`] per block holding the
//! block's first/last docID and its offset into the word stream. Skip
//! entries support binary search to locate the block that may contain a
//! docID without decompressing anything else — the operation the paper's
//! ratio-128 analysis (§3.2) is built on.

use crate::dgap;
use crate::ef::{EfBlock, EfBlockRef};
use crate::error::CodecError;
use crate::pfordelta::{PforBlock, PforBlockRef};
use crate::varint;

/// The block size used throughout the paper (and tied to its choice of 128
/// as the GPU/CPU crossover ratio).
pub const DEFAULT_BLOCK_LEN: usize = 128;

/// Which compression scheme a list uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// PforDelta over d-gaps (paper Fig. 3) — the CPU scheme.
    PforDelta,
    /// Partitioned Elias–Fano over base-relative values (paper Fig. 4) —
    /// the Griffin-GPU scheme.
    EliasFano,
    /// Byte-aligned VByte over d-gaps — baseline.
    Varint,
}

impl Codec {
    /// Compresses one block of docIDs (strictly increasing, all > `base`
    /// except that base 0 with docids starting at 0 is also accepted for
    /// the first block) into `out`.
    pub fn encode_block(&self, docids: &[u32], base: u32, out: &mut Vec<u32>) {
        match self {
            Codec::PforDelta => {
                let mut gaps = Vec::new();
                dgap::to_gaps(docids, base, &mut gaps);
                PforBlock::encode(&gaps).to_words(out);
            }
            Codec::EliasFano => {
                let rel: Vec<u32> = docids.iter().map(|&d| d - base).collect();
                EfBlock::encode(&rel).to_words(out);
            }
            Codec::Varint => {
                let mut gaps = Vec::new();
                dgap::to_gaps(docids, base, &mut gaps);
                let mut bytes = Vec::new();
                varint::encode_slice(&gaps, &mut bytes);
                out.push(docids.len() as u32);
                out.push(bytes.len() as u32);
                // Pack bytes into words, little-endian.
                for chunk in bytes.chunks(4) {
                    let mut w = 0u32;
                    for (i, &b) in chunk.iter().enumerate() {
                        w |= u32::from(b) << (8 * i);
                    }
                    out.push(w);
                }
            }
        }
    }

    /// Decompresses one block (produced by [`Codec::encode_block`] with the
    /// same `base`), appending absolute docIDs to `out`.
    ///
    /// Corrupt or truncated `words` yield an [`Err`] and leave `out` exactly
    /// as it was; this path never panics on bad input.
    pub fn decode_block(
        &self,
        words: &[u32],
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        match self {
            Codec::PforDelta => {
                let blk = PforBlockRef::parse(words)?;
                let start = out.len();
                blk.decode_into(out)?;
                dgap::prefix_sum_in_place(&mut out[start..], base);
            }
            Codec::EliasFano => {
                let blk = EfBlockRef::parse(words)?;
                blk.decode_into(base, out)?;
            }
            Codec::Varint => {
                if words.len() < 2 {
                    return Err(CodecError::Truncated);
                }
                let count = words[0] as usize;
                let nbytes = words[1] as usize;
                // Each value takes at least one byte, and the bytes must fit
                // in the words that follow the two header words — bounds a
                // corrupt header before any allocation happens.
                if nbytes > (words.len() - 2) * 4 || count > nbytes {
                    return Err(CodecError::Truncated);
                }
                let start = out.len();
                varint::decode_words_n(&words[2..], 0, nbytes, count, out)?;
                dgap::prefix_sum_in_place(&mut out[start..], base);
            }
        }
        Ok(())
    }
}

/// Skip pointer for one block: "the offset and the first value of each
/// inverted list block" (paper Fig. 2), plus the last value and element
/// offset, which the intersection algorithms need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// First docID stored in the block.
    pub first_docid: u32,
    /// Last docID stored in the block (inclusive).
    pub last_docid: u32,
    /// Offset of the block's words within [`BlockedList::words`].
    pub word_start: u32,
    /// Number of words the block occupies.
    pub word_len: u32,
    /// Index of the block's first element within the whole list.
    pub elem_start: u32,
    /// Elements in the block (== block_len except possibly the last).
    pub count: u32,
}

/// A compressed, blocked, skip-indexed docID list.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedList {
    pub codec: Codec,
    pub block_len: usize,
    /// Concatenated compressed blocks.
    pub words: Vec<u32>,
    /// One entry per block, ordered by docID.
    pub skips: Vec<SkipEntry>,
    /// Total number of docIDs.
    len: usize,
}

impl BlockedList {
    /// Compresses `docids` (strictly increasing) into `block_len`-element
    /// blocks.
    pub fn compress(docids: &[u32], codec: Codec, block_len: usize) -> BlockedList {
        assert!(block_len > 0, "block_len must be positive");
        debug_assert!(
            docids.windows(2).all(|w| w[0] < w[1]),
            "docids must be strictly increasing"
        );
        let mut words = Vec::new();
        let mut skips = Vec::with_capacity(docids.len().div_ceil(block_len));
        let mut base = 0u32;
        let mut elem_start = 0u32;
        for chunk in docids.chunks(block_len) {
            let word_start = words.len() as u32;
            codec.encode_block(chunk, base, &mut words);
            skips.push(SkipEntry {
                first_docid: chunk[0],
                last_docid: *chunk.last().expect("chunks are non-empty"),
                word_start,
                word_len: words.len() as u32 - word_start,
                elem_start,
                count: chunk.len() as u32,
            });
            base = *chunk.last().expect("chunks are non-empty");
            elem_start += chunk.len() as u32;
        }
        BlockedList {
            codec,
            block_len,
            words,
            skips,
            len: docids.len(),
        }
    }

    /// Number of docIDs in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn num_blocks(&self) -> usize {
        self.skips.len()
    }

    /// Base docID for decoding block `i` (the docID preceding the block).
    pub fn block_base(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.skips[i - 1].last_docid
        }
    }

    /// Decompresses block `i`, appending its docIDs to `out`. Fails when
    /// the stored words are corrupt or a skip entry points outside them.
    pub fn decode_block_into(&self, i: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        let s = &self.skips[i];
        let words = self
            .words
            .get(s.word_start as usize..(s.word_start + s.word_len) as usize)
            .ok_or(CodecError::Truncated)?;
        self.codec.decode_block(words, self.block_base(i), out)
    }

    /// Decompresses the entire list. Fails on the first corrupt block.
    pub fn decompress(&self) -> Result<Vec<u32>, CodecError> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.num_blocks() {
            self.decode_block_into(i, &mut out)?;
        }
        Ok(out)
    }

    /// Binary search over skip pointers: index of the first block whose
    /// `last_docid >= docid`, i.e. the only block that could contain
    /// `docid`. `None` if `docid` is beyond the list.
    pub fn find_block(&self, docid: u32) -> Option<usize> {
        let idx = self.skips.partition_point(|s| s.last_docid < docid);
        (idx < self.skips.len()).then_some(idx)
    }

    /// Streaming decoder: yields docIDs in order, decompressing one block
    /// at a time (O(block_len) memory regardless of list length). This is
    /// the access pattern a merge-based intersection over compressed
    /// inputs uses.
    ///
    /// Panics on corrupt blocks: streaming iteration is reserved for lists
    /// built in-memory by [`Self::compress`], which are valid by
    /// construction. Untrusted words should go through the fallible
    /// [`Self::decode_block_into`] / [`Self::decompress`] instead.
    pub fn iter(&self) -> BlockedListIter<'_> {
        BlockedListIter {
            list: self,
            block: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Compressed size in bits (words + skip entries, the format as
    /// shipped; matches what Table 1 measures).
    pub fn size_bits(&self) -> usize {
        // Each skip entry costs two words in a practical layout
        // (first_docid + packed offsets); count them honestly.
        (self.words.len() + 2 * self.skips.len()) * 32
    }

    /// Uncompressed size in bits (32-bit docIDs).
    pub fn raw_bits(&self) -> usize {
        self.len * 32
    }
}

/// Streaming iterator over a [`BlockedList`]'s docIDs.
pub struct BlockedListIter<'a> {
    list: &'a BlockedList,
    block: usize,
    buf: Vec<u32>,
    pos: usize,
}

impl Iterator for BlockedListIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.buf.len() {
            if self.block >= self.list.num_blocks() {
                return None;
            }
            self.buf.clear();
            self.list
                .decode_block_into(self.block, &mut self.buf)
                .expect("compressed-in-memory list is valid by construction");
            self.block += 1;
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Remaining = undecoded blocks' elements + what's left in the buf.
        let remaining_in_buf = self.buf.len() - self.pos;
        let undecoded: usize = self.list.skips[self.block.min(self.list.num_blocks())..]
            .iter()
            .map(|s| s.count as usize)
            .sum();
        let n = remaining_in_buf + undecoded;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockedListIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_docids(n: usize, stride: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i * stride + (i % 3)).collect()
    }

    #[test]
    fn roundtrip_all_codecs() {
        let ids = sample_docids(1000, 7);
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, DEFAULT_BLOCK_LEN);
            assert_eq!(list.len(), 1000);
            assert_eq!(list.num_blocks(), 8); // ceil(1000/128)
            assert_eq!(list.decompress().unwrap(), ids, "{codec:?}");
        }
    }

    #[test]
    fn partial_last_block() {
        let ids = sample_docids(300, 5);
        let list = BlockedList::compress(&ids, Codec::EliasFano, 128);
        assert_eq!(list.skips[2].count, 44);
        assert_eq!(list.decompress().unwrap(), ids);
    }

    #[test]
    fn single_block_decoding() {
        let ids = sample_docids(256, 11);
        let list = BlockedList::compress(&ids, Codec::PforDelta, 128);
        let mut blk1 = Vec::new();
        list.decode_block_into(1, &mut blk1).unwrap();
        assert_eq!(blk1, &ids[128..256]);
    }

    #[test]
    fn find_block_semantics() {
        let ids: Vec<u32> = (0..512).map(|i| i * 10).collect(); // 4 blocks
        let list = BlockedList::compress(&ids, Codec::EliasFano, 128);
        // docid 0 is in block 0.
        assert_eq!(list.find_block(0), Some(0));
        // Last docid of block 0 is 1270.
        assert_eq!(list.find_block(1270), Some(0));
        assert_eq!(list.find_block(1271), Some(1));
        // Beyond the list.
        assert_eq!(list.find_block(ids.last().unwrap() + 1), None);
        // A docid that falls in a gap still maps to its covering block.
        assert_eq!(list.find_block(1275), Some(1));
    }

    #[test]
    fn skip_entries_are_consistent() {
        let ids = sample_docids(1000, 13);
        let list = BlockedList::compress(&ids, Codec::Varint, 128);
        let mut elem = 0u32;
        for (i, s) in list.skips.iter().enumerate() {
            assert_eq!(s.elem_start, elem);
            elem += s.count;
            let mut blk = Vec::new();
            list.decode_block_into(i, &mut blk).unwrap();
            assert_eq!(blk[0], s.first_docid);
            assert_eq!(*blk.last().unwrap(), s.last_docid);
        }
        assert_eq!(elem as usize, list.len());
    }

    #[test]
    fn block_len_is_configurable() {
        let ids = sample_docids(1000, 3);
        for bl in [64, 128, 256] {
            let list = BlockedList::compress(&ids, Codec::EliasFano, bl);
            assert_eq!(list.num_blocks(), 1000usize.div_ceil(bl));
            assert_eq!(list.decompress().unwrap(), ids);
        }
    }

    #[test]
    fn compression_beats_raw_on_dense_lists() {
        let ids: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, 128);
            assert!(
                list.size_bits() < list.raw_bits() / 2,
                "{codec:?}: {} vs {}",
                list.size_bits(),
                list.raw_bits()
            );
        }
    }

    #[test]
    fn streaming_iterator_matches_bulk_decode() {
        let ids = sample_docids(1000, 9);
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, 128);
            let streamed: Vec<u32> = list.iter().collect();
            assert_eq!(streamed, ids, "{codec:?}");
            // size_hint is exact at every step.
            let mut it = list.iter();
            assert_eq!(it.len(), 1000);
            it.next();
            assert_eq!(it.len(), 999);
            for _ in 0..500 {
                it.next();
            }
            assert_eq!(it.len(), 499);
        }
    }

    #[test]
    fn empty_list_iterator() {
        let list = BlockedList::compress(&[], Codec::EliasFano, 128);
        assert_eq!(list.iter().count(), 0);
    }

    #[test]
    fn corrupt_lists_error_instead_of_panicking() {
        let ids = sample_docids(512, 13);
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, 128);
            // Truncating the word stream must never panic.
            for cut in [0, 1, list.words.len() / 2, list.words.len() - 1] {
                let mut short = list.clone();
                short.words.truncate(cut);
                assert!(short.decompress().is_err(), "{codec:?} cut={cut}");
            }
            // Single-bit flips either still decode or report an error.
            for bit in 0..64u32 {
                let mut flipped = list.clone();
                let w = (bit as usize * 37) % flipped.words.len();
                flipped.words[w] ^= 1 << (bit % 32);
                let _ = flipped.decompress();
            }
        }
    }

    #[test]
    fn docids_starting_at_zero() {
        let ids: Vec<u32> = (0..200).collect();
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, 128);
            assert_eq!(list.decompress().unwrap(), ids, "{codec:?}");
        }
    }
}
