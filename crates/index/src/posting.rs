//! Posting lists: docIDs compressed with the configured codec, term
//! frequencies VByte-compressed block-aligned with the docID blocks, and
//! an optional in-document position stream (for phrase queries) with the
//! same block alignment.

use griffin_codec::{varint, BlockedList, Codec, CodecError};

use crate::document::DocId;

/// One posting: a document containing the term, with its in-document term
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    pub docid: DocId,
    pub tf: u32,
}

/// A compressed posting list: the docID side is a skip-indexed
/// [`BlockedList`]; term frequencies are a VByte stream with one byte-range
/// per docID block so a block decode yields matching (docid, tf) pairs.
/// In-document positions ride in a third block-aligned stream: per posting
/// a VByte count followed by delta-encoded positions (first absolute).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedPostingList {
    pub docs: BlockedList,
    /// VByte-encoded term frequencies for all postings, block-aligned.
    tf_bytes: Vec<u8>,
    /// Byte offset of each block's tf run (length = num_blocks + 1).
    tf_offsets: Vec<u32>,
    /// VByte position stream: per posting `count, pos_0, Δpos_1, …`.
    pos_bytes: Vec<u8>,
    /// Byte offset of each block's position run (length = num_blocks + 1).
    pos_offsets: Vec<u32>,
}

impl CompressedPostingList {
    /// Compresses `postings` (sorted by docid, strictly increasing).
    /// Every posting gets the single synthetic position 0; use
    /// [`CompressedPostingList::compress_with_positions`] when real token
    /// positions are known.
    pub fn compress(postings: &[Posting], codec: Codec, block_len: usize) -> Self {
        Self::compress_at_position(postings, 0, codec, block_len)
    }

    /// Compresses `postings` giving every posting the single constant
    /// position `pos` (synthetic workloads: list `i` at position `i`
    /// makes a phrase over consecutive synthetic terms behave exactly
    /// like their intersection — a testable identity).
    pub fn compress_at_position(
        postings: &[Posting],
        pos: u32,
        codec: Codec,
        block_len: usize,
    ) -> Self {
        Self::compress_runs(postings, codec, block_len, |_, out| {
            varint::encode_u32(1, out);
            varint::encode_u32(pos, out);
        })
    }

    /// Compresses `postings` with their in-document positions, given flat:
    /// posting `i` owns the next `counts[i]` values of `positions`, its
    /// strictly increasing token offsets in its document.
    pub fn compress_with_positions(
        postings: &[Posting],
        positions: &[u32],
        counts: &[u32],
        codec: Codec,
        block_len: usize,
    ) -> Self {
        assert_eq!(
            postings.len(),
            counts.len(),
            "one position count per posting"
        );
        assert_eq!(
            counts.iter().map(|&c| c as usize).sum::<usize>(),
            positions.len(),
            "the counts cover the positions exactly"
        );
        let mut at = 0usize;
        Self::compress_runs(postings, codec, block_len, |i, out| {
            let run = &positions[at..at + counts[i] as usize];
            at += run.len();
            varint::encode_u32(run.len() as u32, out);
            let mut prev = 0u32;
            for (j, &pos) in run.iter().enumerate() {
                debug_assert!(j == 0 || pos > prev, "positions strictly increasing");
                varint::encode_u32(pos - prev, out);
                prev = pos;
            }
        })
    }

    /// The one encoder behind both constructors: `encode_run(i, out)`
    /// appends posting `i`'s position run (count, first position, deltas);
    /// it is called once per posting, in order.
    fn compress_runs(
        postings: &[Posting],
        codec: Codec,
        block_len: usize,
        mut encode_run: impl FnMut(usize, &mut Vec<u8>),
    ) -> Self {
        let docids: Vec<u32> = postings.iter().map(|p| p.docid).collect();
        let docs = BlockedList::compress(&docids, codec, block_len);
        let mut tf_bytes = Vec::new();
        let mut tf_offsets = Vec::with_capacity(docs.num_blocks() + 1);
        let mut pos_bytes = Vec::new();
        let mut pos_offsets = Vec::with_capacity(docs.num_blocks() + 1);
        tf_offsets.push(0);
        pos_offsets.push(0);
        for (b, chunk) in postings.chunks(block_len).enumerate() {
            for (k, p) in chunk.iter().enumerate() {
                varint::encode_u32(p.tf, &mut tf_bytes);
                encode_run(b * block_len + k, &mut pos_bytes);
            }
            tf_offsets.push(tf_bytes.len() as u32);
            pos_offsets.push(pos_bytes.len() as u32);
        }
        CompressedPostingList {
            docs,
            tf_bytes,
            tf_offsets,
            pos_bytes,
            pos_offsets,
        }
    }

    /// Builds from bare docIDs with tf = 1 for every posting (synthetic
    /// workloads generate docID lists directly).
    pub fn from_docids(docids: &[u32], codec: Codec, block_len: usize) -> Self {
        Self::from_docids_at_position(docids, 0, codec, block_len)
    }

    /// Like [`CompressedPostingList::from_docids`] but placing every
    /// posting at the constant position `pos`.
    pub fn from_docids_at_position(
        docids: &[u32],
        pos: u32,
        codec: Codec,
        block_len: usize,
    ) -> Self {
        let postings: Vec<Posting> = docids
            .iter()
            .map(|&d| Posting { docid: d, tf: 1 })
            .collect();
        Self::compress_at_position(&postings, pos, codec, block_len)
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    pub fn num_blocks(&self) -> usize {
        self.docs.num_blocks()
    }

    /// Decodes block `i`, appending its docIDs and tfs.
    ///
    /// Infallible by contract: the list was built in-memory by
    /// [`CompressedPostingList::compress`], so its blocks are valid by
    /// construction. Untrusted words must go through the fallible
    /// `griffin-codec` APIs before ever reaching an index.
    pub fn decode_block_into(&self, i: usize, docids: &mut Vec<u32>, tfs: &mut Vec<u32>) {
        self.docs
            .decode_block_into(i, docids)
            .expect("index-built list is valid by construction");
        let range = self.tf_offsets[i] as usize..self.tf_offsets[i + 1] as usize;
        let count = self.docs.skips[i].count as usize;
        varint::decode_n(&self.tf_bytes[range], 0, count, tfs)
            .expect("index-built tf side file is valid by construction");
    }

    /// Decodes only the term frequencies of block `i` (used when the docID
    /// side was decoded through an instrumented path).
    pub fn decode_block_into_tfs_only(&self, i: usize, tfs: &mut Vec<u32>) {
        let range = self.tf_offsets[i] as usize..self.tf_offsets[i + 1] as usize;
        let count = self.docs.skips[i].count as usize;
        griffin_codec::varint::decode_n(&self.tf_bytes[range], 0, count, tfs)
            .expect("index-built tf side file is valid by construction");
    }

    /// A forward reader of this list's position runs (see
    /// [`PositionCursor`]).
    pub fn position_cursor(&self) -> PositionCursor<'_> {
        PositionCursor {
            list: self,
            block: usize::MAX,
            next: 0,
            byte: 0,
            varints: 0,
            #[cfg(test)]
            runs: 0,
        }
    }

    /// Decodes the entire list into (docids, tfs).
    pub fn decompress(&self) -> (Vec<u32>, Vec<u32>) {
        let mut docids = Vec::with_capacity(self.len());
        let mut tfs = Vec::with_capacity(self.len());
        for i in 0..self.num_blocks() {
            self.decode_block_into(i, &mut docids, &mut tfs);
        }
        (docids, tfs)
    }

    /// Raw access to the tf side file (VByte bytes + per-block offsets),
    /// used to ship term frequencies to the GPU.
    pub fn tf_raw(&self) -> (&[u8], &[u32]) {
        (&self.tf_bytes, &self.tf_offsets)
    }

    /// Total compressed size in bits (docs + tf side file). Positions are
    /// accounted separately by [`CompressedPostingList::pos_size_bits`] so
    /// historical size metrics stay comparable.
    pub fn size_bits(&self) -> usize {
        self.docs.size_bits() + self.tf_bytes.len() * 8 + self.tf_offsets.len() * 32
    }

    /// Size of the position side file, in bits.
    pub fn pos_size_bits(&self) -> usize {
        self.pos_bytes.len() * 8 + self.pos_offsets.len() * 32
    }
}

/// Reads a list's position runs forward: it remembers the block it is
/// in, the next posting and the byte that posting's run starts at, so the
/// postings of a block read in ascending order cost one pass over the
/// block's position bytes. A backward posting or another block restarts
/// at the block's start.
#[derive(Debug)]
pub struct PositionCursor<'a> {
    list: &'a CompressedPostingList,
    /// The block the cursor is in (`usize::MAX` before the first read).
    block: usize,
    /// The posting whose run starts at `byte`.
    next: usize,
    /// Offset of posting `next`'s run within the block's position bytes.
    byte: usize,
    /// VByte values read or skipped from the block's start up to `byte`.
    varints: usize,
    /// Runs parsed (read or skipped) since the cursor was made.
    #[cfg(test)]
    runs: usize,
}

impl PositionCursor<'_> {
    /// Appends the in-document positions of the posting at `idx` within
    /// block `block` to `out`. Returns the number of VByte values read or
    /// skipped from the block's start through posting `idx` — what a
    /// reader starting at the block's start would parse, however far
    /// this cursor had already read — so instrumented callers charge the
    /// same decode work whatever order they read in.
    ///
    /// Infallible by contract, like
    /// [`CompressedPostingList::decode_block_into`]: panics, naming the
    /// block and posting, on a corrupt run.
    pub fn positions_into(&mut self, block: usize, idx: usize, out: &mut Vec<u32>) -> usize {
        let list = self.list;
        let bytes =
            &list.pos_bytes[list.pos_offsets[block] as usize..list.pos_offsets[block + 1] as usize];
        if block != self.block || idx < self.next {
            self.block = block;
            self.next = 0;
            self.byte = 0;
            self.varints = 0;
        }
        while self.next <= idx {
            let (count, values_at) = varint::decode_u32(bytes, self.byte)
                .unwrap_or_else(|e| corrupt(block, self.next, e));
            let count = count as usize;
            self.byte = if self.next == idx {
                let start = out.len();
                let end = varint::decode_n(bytes, values_at, count, out)
                    .unwrap_or_else(|e| corrupt(block, self.next, e));
                let mut acc = 0u32;
                for v in &mut out[start..] {
                    acc += *v;
                    *v = acc;
                }
                end
            } else {
                skip_varints(bytes, values_at, count)
                    .unwrap_or_else(|e| corrupt(block, self.next, e))
            };
            self.varints += 1 + count;
            self.next += 1;
            #[cfg(test)]
            {
                self.runs += 1;
            }
        }
        self.varints
    }
}

#[cold]
fn corrupt(block: usize, posting: usize, e: CodecError) -> ! {
    panic!("valid position stream: block {block}, posting {posting}: {e}")
}

/// Moves past `n` VByte values starting at `pos` by counting their
/// terminator bytes; returns the position after the last. Fails like
/// [`varint::decode_u32`] would: on a value past the 32-bit range (a
/// fifth byte above `0x0F`) or one that runs past the end of `bytes`.
fn skip_varints(bytes: &[u8], pos: usize, n: usize) -> Result<usize, CodecError> {
    let mut p = pos;
    for _ in 0..n {
        let mut width = 0;
        loop {
            let byte = *bytes.get(p).ok_or(CodecError::Truncated)?;
            p += 1;
            if width == 4 && byte > 0x0F {
                return Err(CodecError::MalformedVarint);
            }
            if byte & 0x80 == 0 {
                break;
            }
            width += 1;
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn postings(n: u32) -> Vec<Posting> {
        (0..n)
            .map(|i| Posting {
                docid: i * 7 + 1,
                tf: 1 + (i % 9),
            })
            .collect()
    }

    #[test]
    fn roundtrip_docids_and_tfs() {
        let ps = postings(500);
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = CompressedPostingList::compress(&ps, codec, 128);
            let (docids, tfs) = list.decompress();
            assert_eq!(docids.len(), 500);
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(docids[i], p.docid, "{codec:?} docid {i}");
                assert_eq!(tfs[i], p.tf, "{codec:?} tf {i}");
            }
        }
    }

    #[test]
    fn block_decode_is_aligned() {
        let ps = postings(300);
        let list = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        let mut docids = Vec::new();
        let mut tfs = Vec::new();
        list.decode_block_into(2, &mut docids, &mut tfs);
        assert_eq!(docids.len(), 44);
        assert_eq!(tfs.len(), 44);
        assert_eq!(docids[0], ps[256].docid);
        assert_eq!(tfs[0], ps[256].tf);
    }

    #[test]
    fn from_docids_sets_unit_tf() {
        let ids: Vec<u32> = (1..=100).map(|i| i * 3).collect();
        let list = CompressedPostingList::from_docids(&ids, Codec::PforDelta, 128);
        let (docids, tfs) = list.decompress();
        assert_eq!(docids, ids);
        assert!(tfs.iter().all(|&t| t == 1));
    }

    #[test]
    fn empty_list() {
        let list = CompressedPostingList::compress(&[], Codec::EliasFano, 128);
        assert!(list.is_empty());
        assert_eq!(list.num_blocks(), 0);
        let (d, t) = list.decompress();
        assert!(d.is_empty() && t.is_empty());
    }

    #[test]
    fn positions_roundtrip_across_blocks() {
        let ps = postings(300);
        let runs: Vec<Vec<u32>> = (0..300u32)
            .map(|i| (0..(1 + i % 4)).map(|j| i + j * 5 + 1).collect())
            .collect();
        let (flat, counts) = flatten(&runs);
        let list = CompressedPostingList::compress_with_positions(
            &ps,
            &flat,
            &counts,
            Codec::EliasFano,
            128,
        );
        let mut cursor = list.position_cursor();
        let mut out = Vec::new();
        for (i, want) in runs.iter().enumerate() {
            out.clear();
            let varints = cursor.positions_into(i / 128, i % 128, &mut out);
            assert_eq!(&out, want, "posting {i}");
            assert!(varints >= want.len());
        }
    }

    #[test]
    fn default_positions_are_a_constant_zero() {
        let list = CompressedPostingList::from_docids(&[3, 9, 27], Codec::Varint, 128);
        let mut out = Vec::new();
        list.position_cursor().positions_into(0, 1, &mut out);
        assert_eq!(out, vec![0]);
        let at = CompressedPostingList::from_docids_at_position(&[3, 9, 27], 5, Codec::Varint, 128);
        out.clear();
        at.position_cursor().positions_into(0, 2, &mut out);
        assert_eq!(out, vec![5]);
    }

    fn flatten(runs: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let flat = runs.iter().flatten().copied().collect();
        let counts = runs.iter().map(|r| r.len() as u32).collect();
        (flat, counts)
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

    /// `n` postings with random runs: 0–40 positions each, the first and
    /// every delta in `1..=2^20`, and a tf that need not match the count.
    fn random_runs(d: &mut Draw, n: usize) -> (Vec<Posting>, Vec<Vec<u32>>) {
        let ps = (0..n as u32)
            .map(|i| Posting {
                docid: i * 3 + d.below(3) as u32,
                tf: 1 + d.below(50) as u32,
            })
            .collect();
        let runs = (0..n)
            .map(|_| {
                let mut at = 0u32;
                (0..d.below(41))
                    .map(|_| {
                        at += 1 + d.below(1 << 20) as u32;
                        at
                    })
                    .collect()
            })
            .collect();
        (ps, runs)
    }

    /// The reader the cursor replaced: parses runs `0..=idx` from the
    /// block's start. Returns the VByte values it read or skipped.
    fn from_block_start(
        list: &CompressedPostingList,
        block: usize,
        idx: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let bytes =
            &list.pos_bytes[list.pos_offsets[block] as usize..list.pos_offsets[block + 1] as usize];
        let (mut at, mut varints) = (0usize, 0usize);
        for j in 0..=idx {
            let (count, after) = varint::decode_u32(bytes, at).unwrap();
            let mut values = Vec::new();
            at = varint::decode_n(bytes, after, count as usize, &mut values).unwrap();
            varints += 1 + count as usize;
            if j == idx {
                let mut acc = 0u32;
                out.extend(values.iter().map(|&v| {
                    acc += v;
                    acc
                }));
            }
        }
        varints
    }

    /// Kills: a cursor that does not restart on a backward or repeated
    /// posting; one that returns the values it parsed in this call in
    /// place of the count from the block's start; one whose skip does not
    /// charge a run's count varint.
    #[test]
    fn position_cursor_matches_the_from_start_reader() {
        let mut d = Draw::new(0x9051_7105);
        for case in 0..48 {
            let block_len = [32, 128][d.below(2) as usize];
            let n = 1 + d.below(400) as usize;
            let (ps, runs) = random_runs(&mut d, n);
            let (flat, counts) = flatten(&runs);
            let list = CompressedPostingList::compress_with_positions(
                &ps,
                &flat,
                &counts,
                Codec::EliasFano,
                block_len,
            );
            // Ascending, each posting twice in a row, descending, and
            // random (across blocks, in both directions).
            let order: Vec<usize> = match case % 4 {
                0 => (0..n).collect(),
                1 => (0..n).flat_map(|i| [i, i]).collect(),
                2 => (0..n).rev().collect(),
                _ => (0..2 * n).map(|_| d.below(n as u64) as usize).collect(),
            };
            let mut cursor = list.position_cursor();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for &i in &order {
                let (block, idx) = (i / block_len, i % block_len);
                got.clear();
                want.clear();
                let got_n = cursor.positions_into(block, idx, &mut got);
                let want_n = from_block_start(&list, block, idx, &mut want);
                assert_eq!(
                    want, runs[i],
                    "case {case}: the reference reads posting {i}"
                );
                assert_eq!(got, want, "case {case}: positions of posting {i}");
                assert_eq!(got_n, want_n, "case {case}: varints through posting {i}");
            }
        }
    }

    /// Kills a cursor that re-reads the block from its start per posting.
    #[test]
    fn position_cursor_reads_a_block_in_one_pass() {
        let ids: Vec<u32> = (0..128).collect();
        let list = CompressedPostingList::from_docids_at_position(&ids, 7, Codec::Varint, 128);
        let mut cursor = list.position_cursor();
        let mut out = Vec::new();
        let from_start_runs: usize = (0..128).map(|idx| idx + 1).sum();
        for idx in 0..128 {
            assert_eq!(cursor.positions_into(0, idx, &mut out), 2 * (idx + 1));
        }
        assert_eq!(out, vec![7; 128]);
        assert_eq!(cursor.runs, 128);
        assert_eq!(from_start_runs, 8_256);
    }

    /// A list with one block whose posting 1 has the run `run`.
    fn with_run_1(run: &[u8]) -> CompressedPostingList {
        let mut list = CompressedPostingList::from_docids(&[3, 9, 27], Codec::Varint, 128);
        list.pos_bytes = [&[1, 0][..], run, &[1, 0]].concat();
        list.pos_offsets = vec![0, list.pos_bytes.len() as u32];
        list
    }

    #[test]
    #[should_panic(expected = "block 0, posting 1")]
    fn position_cursor_names_an_overlong_varint_it_skips() {
        let list = with_run_1(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
        list.position_cursor().positions_into(0, 2, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "block 0, posting 1")]
    fn position_cursor_names_a_count_past_the_block() {
        // Count u32::MAX: the read fails on the bytes, not on an allocation.
        let list = with_run_1(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 4]);
        list.position_cursor().positions_into(0, 1, &mut Vec::new());
    }

    #[test]
    fn skip_fails_where_decode_fails() {
        let mut bytes = Vec::new();
        varint::encode_slice(&[0, 127, 128, 1 << 20, u32::MAX], &mut bytes);
        assert_eq!(skip_varints(&bytes, 0, 5), Ok(bytes.len()));
        assert_eq!(skip_varints(&bytes, 0, 6), Err(CodecError::Truncated));
        for overlong in [
            &[0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01][..],
            &[0x80, 0x80, 0x80, 0x80, 0x10],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
        ] {
            assert_eq!(
                skip_varints(overlong, 0, 1),
                Err(CodecError::MalformedVarint)
            );
            assert_eq!(
                varint::decode_u32(overlong, 0),
                Err(CodecError::MalformedVarint)
            );
        }
    }

    /// The encoder before positions were passed flat: one `Vec` per
    /// posting.
    fn nested_encoder(
        postings: &[Posting],
        positions: &[Vec<u32>],
        codec: Codec,
        block_len: usize,
    ) -> CompressedPostingList {
        let docids: Vec<u32> = postings.iter().map(|p| p.docid).collect();
        let docs = BlockedList::compress(&docids, codec, block_len);
        let (mut tf_bytes, mut tf_offsets) = (Vec::new(), vec![0]);
        let (mut pos_bytes, mut pos_offsets) = (Vec::new(), vec![0]);
        for (chunk, pos_chunk) in postings.chunks(block_len).zip(positions.chunks(block_len)) {
            for (p, ps) in chunk.iter().zip(pos_chunk) {
                varint::encode_u32(p.tf, &mut tf_bytes);
                varint::encode_u32(ps.len() as u32, &mut pos_bytes);
                let mut prev = 0u32;
                for (j, &pos) in ps.iter().enumerate() {
                    varint::encode_u32(pos - if j == 0 { 0 } else { prev }, &mut pos_bytes);
                    prev = pos;
                }
            }
            tf_offsets.push(tf_bytes.len() as u32);
            pos_offsets.push(pos_bytes.len() as u32);
        }
        CompressedPostingList {
            docs,
            tf_bytes,
            tf_offsets,
            pos_bytes,
            pos_offsets,
        }
    }

    #[test]
    fn flat_and_constant_encoders_match_the_nested_one() {
        let mut d = Draw::new(0xE4C0_DE55);
        for case in 0..24 {
            let block_len = [32, 128][d.below(2) as usize];
            let n = d.below(300) as usize;
            let (ps, runs) = random_runs(&mut d, n);
            let (flat, counts) = flatten(&runs);
            let codec = [Codec::EliasFano, Codec::PforDelta, Codec::Varint][case % 3];
            assert_eq!(
                CompressedPostingList::compress_with_positions(
                    &ps, &flat, &counts, codec, block_len
                ),
                nested_encoder(&ps, &runs, codec, block_len),
                "case {case}: flat positions"
            );
            let pos = d.below(1 << 20) as u32;
            assert_eq!(
                CompressedPostingList::compress_at_position(&ps, pos, codec, block_len),
                nested_encoder(&ps, &vec![vec![pos]; n], codec, block_len),
                "case {case}: constant position {pos}"
            );
        }
    }

    #[test]
    fn position_size_is_separate_from_core_size() {
        let ps = postings(200);
        let a = CompressedPostingList::compress(&ps, Codec::EliasFano, 128);
        assert!(a.pos_size_bits() > 0);
        assert!(a.size_bits() > 0);
    }
}
