//! Property-based tests of the compression substrate: every codec must be
//! lossless for every sorted docID sequence, under every block size.

use griffin_codec::pfordelta::PforBlock;
use griffin_codec::{varint, BlockedList, Codec, CodecError, EfBlock};
use griffin_suite::oracle;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: sorted, deduplicated docID lists with wildly mixed gaps.
fn docid_lists() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..50_000_000, 1..600).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_list_roundtrips_all_codecs(ids in docid_lists(),
                                          block_len in prop::sample::select(vec![32usize, 128, 256])) {
        for codec in [Codec::PforDelta, Codec::EliasFano, Codec::Varint] {
            let list = BlockedList::compress(&ids, codec, block_len);
            prop_assert_eq!(list.decompress().expect("intact list"), ids.clone(), "{:?}", codec);
            prop_assert_eq!(list.len(), ids.len());
        }
    }

    #[test]
    fn find_block_locates_every_member(ids in docid_lists()) {
        let list = BlockedList::compress(&ids, Codec::EliasFano, 128);
        for &d in ids.iter().step_by(7) {
            let blk = list.find_block(d).expect("member docid has a block");
            let mut decoded = Vec::new();
            list.decode_block_into(blk, &mut decoded).expect("intact block");
            prop_assert!(decoded.binary_search(&d).is_ok());
        }
        // Anything beyond the maximum maps to no block.
        prop_assert!(list.find_block(ids.last().unwrap().saturating_add(1)).is_none()
                     || *ids.last().unwrap() == u32::MAX);
    }

    #[test]
    fn ef_block_roundtrip_and_random_access(values in vec(0u32..100_000_000, 1..300)) {
        let mut sorted = values;
        sorted.sort_unstable();
        let blk = EfBlock::encode(&sorted);
        let mut out = Vec::new();
        blk.decode_into(0, &mut out).expect("intact block");
        prop_assert_eq!(&out, &sorted);
        // Random access agrees with sequential decode.
        let idx = sorted.len() / 2;
        prop_assert_eq!(blk.get(idx), sorted[idx]);
        // Word serialization is stable.
        let mut words = Vec::new();
        blk.to_words(&mut words);
        prop_assert_eq!(EfBlock::from_words(&words).expect("intact words"), blk);
    }

    #[test]
    fn pfordelta_block_roundtrips_any_values(values in vec(0u32..=u32::MAX, 0..300)) {
        let blk = PforBlock::encode(&values);
        let mut out = Vec::new();
        blk.decode_into(&mut out).expect("intact block");
        prop_assert_eq!(out, values);
    }

    #[test]
    fn compression_never_corrupts_skip_metadata(ids in docid_lists()) {
        let list = BlockedList::compress(&ids, Codec::PforDelta, 128);
        let mut elem = 0u32;
        for (i, s) in list.skips.iter().enumerate() {
            prop_assert_eq!(s.elem_start, elem);
            elem += s.count;
            prop_assert_eq!(s.first_docid, ids[s.elem_start as usize]);
            prop_assert_eq!(s.last_docid, ids[(elem - 1) as usize]);
            prop_assert_eq!(list.block_base(i),
                            if i == 0 { 0 } else { list.skips[i - 1].last_docid });
        }
        prop_assert_eq!(elem as usize, ids.len());
    }
}

/// Byte-at-a-time VByte reader: the reference the fast reader behind
/// `varint::decode_n` and `varint::decode_words_n` must equal, value for
/// value and error for error. A value may take five bytes and must fit
/// in 32 bits.
fn vbyte_reference(bytes: &[u8], pos: usize, n: usize) -> Result<(Vec<u32>, usize), CodecError> {
    let mut out = Vec::new();
    let mut p = pos;
    for _ in 0..n {
        let mut v = 0u64;
        for width in 0.. {
            let byte = *bytes.get(p).ok_or(CodecError::Truncated)?;
            p += 1;
            v |= u64::from(byte & 0x7F) << (7 * width);
            if byte & 0x80 == 0 {
                break;
            }
            if width == 4 {
                return Err(CodecError::MalformedVarint);
            }
        }
        out.push(u32::try_from(v).map_err(|_| CodecError::MalformedVarint)?);
    }
    Ok((out, p))
}

/// Both fast readers (bytes, and bytes packed little-endian into words)
/// against [`vbyte_reference`]: the same `Result`, and on `Err` an
/// untouched `out`.
fn assert_vbyte_readers_agree(bytes: &[u8], pos: usize, n: usize, what: &str) {
    let expect = vbyte_reference(bytes, pos, n);
    let words: Vec<u32> = bytes
        .chunks(4)
        .map(|c| c.iter().rev().fold(0u32, |w, &b| w << 8 | u32::from(b)))
        .collect();
    let sentinel = vec![0xDEAD_BEEF_u32];
    for framing in ["bytes", "words"] {
        let mut out = sentinel.clone();
        let got = match framing {
            "bytes" => varint::decode_n(bytes, pos, n, &mut out),
            _ => varint::decode_words_n(&words, pos, bytes.len(), n, &mut out),
        };
        match (&got, &expect) {
            (Ok(end), Ok((values, ref_end))) => {
                assert_eq!(end, ref_end, "{what}: {framing} end");
                assert_eq!(&out[1..], &values[..], "{what}: {framing} values");
            }
            _ => {
                assert_eq!(got.err(), expect.clone().err(), "{what}: {framing} result");
                assert_eq!(out, sentinel, "{what}: {framing} touched out on Err");
            }
        }
    }
}

/// Values of every VByte width, drawn from the seed: mostly one byte,
/// as term frequencies are.
fn vbyte_values(rng: &mut StdRng, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => rng.gen_range(128..1 << 14),
            1 => rng.gen_range(1 << 14..=u32::MAX),
            _ => rng.gen_range(0..128),
        })
        .collect()
}

/// The fast VByte reader takes eight one-byte values per load: it must
/// read exactly what a byte-at-a-time reader does on one-byte runs that
/// start at every byte of the word framing, on a five-byte value at every
/// offset of the eight-byte window, cut at every byte, and with each
/// continuation bit flipped. Set `GRIFFIN_FAULT_SEED` to draw others.
#[test]
fn vbyte_fast_reader_matches_the_byte_reader() {
    let mut rng = StdRng::seed_from_u64(oracle::seed());
    // One-byte runs at every alignment, after a lead of any bytes.
    for lead in 0..12 {
        for run in [0usize, 1, 7, 8, 9, 16, 17, 31] {
            let mut bytes: Vec<u8> = (0..lead).map(|_| rng.gen_range(0..=255u8)).collect();
            bytes.extend((0..run).map(|_| rng.gen_range(0..128u8)));
            varint::encode_slice(&vbyte_values(&mut rng, 3), &mut bytes);
            for n in [run, run + 1, run + 3, run + 4] {
                assert_vbyte_readers_agree(
                    &bytes,
                    lead,
                    n,
                    &format!("lead {lead} run {run} n {n}"),
                );
            }
        }
    }
    // A five-byte value at every offset of the eight-byte window.
    for off in 0..16 {
        for big in [1u32 << 28, u32::MAX, rng.gen_range(1 << 28..=u32::MAX)] {
            let mut values: Vec<u32> = (0..off).map(|_| rng.gen_range(0..128)).collect();
            values.push(big);
            values.extend((0..12).map(|_| rng.gen_range(0..128u32)));
            let mut bytes = Vec::new();
            varint::encode_slice(&values, &mut bytes);
            for pos in 0..3.min(bytes.len()) {
                assert_vbyte_readers_agree(
                    &bytes,
                    pos,
                    values.len(),
                    &format!("off {off} pos {pos}"),
                );
            }
        }
    }
    // Cut at every byte, and every continuation bit flipped.
    for _ in 0..4 {
        let values = vbyte_values(&mut rng, 40);
        let mut bytes = Vec::new();
        varint::encode_slice(&values, &mut bytes);
        for cut in 0..=bytes.len() {
            assert_vbyte_readers_agree(&bytes[..cut], 0, values.len(), &format!("cut {cut}"));
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x80;
            assert_vbyte_readers_agree(&flipped, 0, values.len(), &format!("flip {at}"));
        }
    }
}
