//! Elias–Fano (quasi-succinct) encoding — paper Fig. 4 and §3.1.1.
//!
//! For a non-decreasing sequence of `n` values bounded by `U`, each value is
//! split into `b = floor(log2(U/n))` low bits, stored verbatim in the
//! *low-bits array*, and its remaining high bits, stored as a unary-coded
//! gap stream in the *high-bits array*: each element contributes
//! `high[i] - high[i-1]` zeros and one terminating `1`.
//!
//! Decompression recovers `high[i]` as `(bit position of the i-th one) - i`
//! — a pure function of popcounts over the high-bits words, which is what
//! makes the scheme parallel-friendly (Griffin-GPU's Para-EF exploits
//! exactly this; see `griffin-gpu::para_ef`).

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// One Elias–Fano-encoded block of values (relative to an external base).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EfBlock {
    /// Number of encoded values.
    pub count: u32,
    /// Low bits per value.
    pub b: u32,
    /// Unary-coded high-bits stream, 32-bit words, LSB-first.
    pub hb_words: Vec<u32>,
    /// Packed low-bits stream, `count * b` bits.
    pub lb_words: Vec<u32>,
}

/// A borrowed view of an encoded Elias–Fano block: the [`EfBlock`] header
/// fields with the high- and low-bits streams pointing into the serialized
/// word stream. Parsing one is allocation-free — [`EfBlock::from_words`]
/// copies both streams into fresh `Vec`s, which the per-block decode hot
/// path cannot afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EfBlockRef<'a> {
    /// Number of encoded values.
    pub count: u32,
    /// Low bits per value.
    pub b: u32,
    /// Unary-coded high-bits stream, 32-bit words, LSB-first.
    pub hb_words: &'a [u32],
    /// Packed low-bits stream, `count * b` bits.
    pub lb_words: &'a [u32],
}

impl<'a> EfBlockRef<'a> {
    /// Zero-copy inverse of [`EfBlock::to_words`]. Fails when the header
    /// is impossible (low-bit width ≥ 32) or the stream is shorter than
    /// the header claims.
    pub fn parse(words: &'a [u32]) -> Result<EfBlockRef<'a>, CodecError> {
        let header = *words.first().ok_or(CodecError::Truncated)?;
        let count = header & 0xFFFF;
        let b = (header >> 16) & 0x3F;
        if b >= 32 {
            return Err(CodecError::BadHeader);
        }
        let hb_len = (header >> 22) as usize;
        let lb_len = ((count as usize) * b as usize).div_ceil(32);
        if words.len() < 1 + hb_len + lb_len {
            return Err(CodecError::Truncated);
        }
        Ok(EfBlockRef {
            count,
            b,
            hb_words: &words[1..1 + hb_len],
            lb_words: &words[1 + hb_len..1 + hb_len + lb_len],
        })
    }

    /// Decodes all values, appending them to `out` with `base` added;
    /// same semantics as [`EfBlock::decode_into`] (failure leaves `out`
    /// untouched).
    ///
    /// Word at a time: the `k`-th one of the high-bits stream, at bit `p`,
    /// has `p - k` zeros before it, which is the element's high part, and
    /// its low part is one packed read. Element `i` is what a bit-serial
    /// reader produces reading its unary code, then its `b` low bits; so
    /// both streams are sized first ([`EfBlockRef::check_streams`]).
    pub fn decode_into(&self, base: u32, out: &mut Vec<u32>) -> Result<(), CodecError> {
        self.check_streams()?;
        let count = self.count as usize;
        let b = self.b;
        out.reserve(count);
        let mut k = 0usize;
        for (wi, &word) in self.hb_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 && k < count {
                let high = (wi * 32 + bits.trailing_zeros() as usize - k) as u32;
                let low = if b == 0 { 0 } else { self.low(k) };
                out.push(base.wrapping_add((high << b) | low));
                bits &= bits - 1;
                k += 1;
            }
            if k == count {
                break;
            }
        }
        Ok(())
    }

    /// Whether both streams hold `count` elements, and the high-bits
    /// stream exactly `count` ones. The first element they cannot supply
    /// names the error: [`CodecError::UnaryOverrun`] if the high-bits
    /// stream is short of its one, else [`CodecError::Truncated`]. A one
    /// past the last element is [`CodecError::BadHeader`]: an encoder
    /// writes none, so the block is damaged and its elements cannot be
    /// trusted. Every EF decoder, on the host and on the device, checks
    /// this before it writes, so all of them fail alike on a corrupt
    /// block.
    pub fn check_streams(&self) -> Result<(), CodecError> {
        let count = self.count as usize;
        let ones: usize = self.hb_words.iter().map(|w| w.count_ones() as usize).sum();
        let lows = match self.b {
            0 => usize::MAX,
            b => self.lb_words.len() * 32 / b as usize,
        };
        if ones.min(lows) < count {
            return Err(if ones <= lows {
                CodecError::UnaryOverrun
            } else {
                CodecError::Truncated
            });
        }
        if ones > count {
            return Err(CodecError::BadHeader);
        }
        Ok(())
    }

    /// The low bits of element `i`, which the caller has checked the
    /// stream holds (`b > 0`).
    #[inline]
    fn low(&self, i: usize) -> u32 {
        let bit = i * self.b as usize;
        let (word, off) = (bit / 32, (bit % 32) as u32);
        let mut v = self.lb_words[word] >> off;
        if off + self.b > 32 {
            v |= self.lb_words[word + 1] << (32 - off);
        }
        if self.b >= 32 {
            v
        } else {
            v & ((1u32 << self.b) - 1)
        }
    }
}

/// Chooses the low-bit width for `n` values in universe `[0, u]`.
pub fn low_bits_for(n: usize, u: u32) -> u32 {
    if n == 0 || u == 0 {
        return 0;
    }
    let ratio = u as u64 / n as u64;
    if ratio <= 1 {
        0
    } else {
        63 - ratio.leading_zeros() // floor(log2(ratio))
    }
}

impl EfBlock {
    /// Encodes `values`, which must be non-decreasing. Values are typically
    /// docIDs relative to the block base.
    pub fn encode(values: &[u32]) -> EfBlock {
        let n = values.len();
        if n == 0 {
            return EfBlock {
                count: 0,
                b: 0,
                hb_words: Vec::new(),
                lb_words: Vec::new(),
            };
        }
        let max = *values.last().expect("non-empty");
        debug_assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "values must be sorted"
        );
        let b = low_bits_for(n, max);

        let mut hb = BitWriter::new();
        let mut lb = BitWriter::new();
        let mut prev_high = 0u32;
        for &v in values {
            let high = v >> b;
            hb.write_unary(high - prev_high);
            prev_high = high;
            if b > 0 {
                lb.write_bits(v, b);
            }
        }
        EfBlock {
            count: n as u32,
            b,
            hb_words: hb.finish(),
            lb_words: lb.finish(),
        }
    }

    /// A borrowed view of this block (see [`EfBlockRef`]).
    pub fn as_ref(&self) -> EfBlockRef<'_> {
        EfBlockRef {
            count: self.count,
            b: self.b,
            hb_words: &self.hb_words,
            lb_words: &self.lb_words,
        }
    }

    /// Decodes all values, appending them to `out` with `base` added.
    ///
    /// Fails (leaving `out` exactly as it was) when the high- or low-bits
    /// streams end before `count` values have been recovered — a corrupt or
    /// truncated block. Arithmetic wraps so bit-flipped input cannot panic
    /// on overflow; valid blocks are unaffected (encode never overflows).
    pub fn decode_into(&self, base: u32, out: &mut Vec<u32>) -> Result<(), CodecError> {
        self.as_ref().decode_into(base, out)
    }

    /// Random access to the `i`-th value (relative). Linear in the high-bits
    /// stream; used by tests and by binary search *within* a decoded block
    /// the CPU engine performs on skipped lookups.
    /// Panics on corrupt blocks; random access is only used on blocks that
    /// came out of [`Self::encode`] (the bulk decode path is fallible).
    pub fn get(&self, i: usize) -> u32 {
        assert!((i as u32) < self.count, "index {i} out of {}", self.count);
        let mut hb = BitReader::new(&self.hb_words);
        let mut high = 0u32;
        for _ in 0..=i {
            high += hb.read_unary().expect("encoded block is self-consistent");
        }
        let low = if self.b > 0 {
            let mut lb = BitReader::at(&self.lb_words, i * self.b as usize);
            lb.read_bits(self.b)
                .expect("encoded block is self-consistent")
        } else {
            0
        };
        (high << self.b) | low
    }

    /// Size of the encoded block in bits (excluding framing).
    pub fn size_bits(&self) -> usize {
        // The high-bits stream logically ends at the last terminator; use
        // word-granular size since that is what we store and ship.
        (self.hb_words.len() + self.lb_words.len()) * 32
    }

    /// Serializes into a word stream: `[header, hb_words..., lb_words...]`.
    ///
    /// Header layout: `count:16 | b:6 | hb_len:10`.
    pub fn to_words(&self, out: &mut Vec<u32>) {
        assert!(self.count < (1 << 16));
        assert!(self.b < (1 << 6));
        assert!(
            self.hb_words.len() < (1 << 10),
            "high-bits array too long: {}",
            self.hb_words.len()
        );
        out.push(self.count | (self.b << 16) | ((self.hb_words.len() as u32) << 22));
        out.extend_from_slice(&self.hb_words);
        out.extend_from_slice(&self.lb_words);
    }

    /// Inverse of [`Self::to_words`]. Fails when the header is impossible
    /// (low-bit width ≥ 32) or the stream is shorter than the header claims.
    pub fn from_words(words: &[u32]) -> Result<EfBlock, CodecError> {
        let r = EfBlockRef::parse(words)?;
        Ok(EfBlock {
            count: r.count,
            b: r.b,
            hb_words: r.hb_words.to_vec(),
            lb_words: r.lb_words.to_vec(),
        })
    }

    /// Number of words [`Self::to_words`] produces.
    pub fn words_len(&self) -> usize {
        1 + self.hb_words.len() + self.lb_words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig4_example() {
        // Paper Fig. 4: sequence (5,6,8,15,18,33), U=36, b = floor(log2(36/6)) = 2.
        let values = [5u32, 6, 8, 15, 18, 33];
        let blk = EfBlock::encode(&values);
        // Our b uses max value (33): floor(log2(33/6)) = 2, same as paper.
        assert_eq!(blk.b, 2);
        let mut out = Vec::new();
        blk.decode_into(0, &mut out).unwrap();
        assert_eq!(out, values);
        // Low bits of each value (paper's low-bits array 01,10,00,11,10,01).
        let lows: Vec<u32> = values.iter().map(|v| v & 0b11).collect();
        assert_eq!(lows, vec![1, 2, 0, 3, 2, 1]);
    }

    #[test]
    fn roundtrip_various_shapes() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0], // duplicates allowed (non-decreasing)
            vec![1, 2, 3, 4, 5],
            (0..128).map(|i| i * 1000).collect(),
            (0..128).collect(),
            vec![u32::MAX / 2, u32::MAX / 2 + 1],
        ];
        for values in cases {
            let blk = EfBlock::encode(&values);
            let mut out = Vec::new();
            blk.decode_into(0, &mut out).unwrap();
            assert_eq!(out, values, "roundtrip failed for {values:?}");
        }
    }

    #[test]
    fn decode_applies_base() {
        let values = [3u32, 10, 20];
        let blk = EfBlock::encode(&values);
        let mut out = Vec::new();
        blk.decode_into(100, &mut out).unwrap();
        assert_eq!(out, vec![103, 110, 120]);
    }

    #[test]
    fn random_access_matches_decode() {
        let values: Vec<u32> = (0..200).map(|i| i * 37 + (i % 5)).collect();
        let blk = EfBlock::encode(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(blk.get(i), v, "get({i})");
        }
    }

    #[test]
    fn word_serialization_roundtrip() {
        let values: Vec<u32> = (0..128).map(|i| i * 321).collect();
        let blk = EfBlock::encode(&values);
        let mut words = Vec::new();
        blk.to_words(&mut words);
        assert_eq!(words.len(), blk.words_len());
        let back = EfBlock::from_words(&words).unwrap();
        assert_eq!(back, blk);
    }

    #[test]
    fn dense_lists_compress_below_32_bits() {
        // 128 consecutive-ish docids: EF should be far below 32 bits/int.
        let values: Vec<u32> = (0..128).map(|i| i * 3).collect();
        let blk = EfBlock::encode(&values);
        let bits_per_int = blk.size_bits() as f64 / 128.0;
        assert!(bits_per_int < 8.0, "{bits_per_int} bits/int");
    }

    #[test]
    fn corrupt_words_decode_to_err_not_panic() {
        let values: Vec<u32> = (0..128).map(|i| i * 57).collect();
        let blk = EfBlock::encode(&values);
        let mut words = Vec::new();
        blk.to_words(&mut words);
        // Truncations at every length either fail in from_words or decode.
        for len in 0..words.len() {
            let mut out = Vec::new();
            if let Ok(b) = EfBlock::from_words(&words[..len]) {
                let _ = b.decode_into(0, &mut out);
            }
        }
        // A failed decode leaves the output buffer untouched.
        let short = EfBlock {
            hb_words: Vec::new(),
            ..blk.clone()
        };
        let mut out = vec![7u32];
        assert!(short.decode_into(0, &mut out).is_err());
        assert_eq!(out, vec![7]);
        // Impossible low-bit width in the header.
        let mut bad = words.clone();
        bad[0] = (bad[0] & !0x003F_0000) | (40 << 16);
        assert_eq!(EfBlock::from_words(&bad), Err(CodecError::BadHeader));
    }

    /// The bit-serial reader the word-at-a-time decoder replaced: element
    /// by element, its unary code, then its low bits, wrapping; then no
    /// unary code may follow the last element.
    fn decode_bit_serial(blk: &EfBlockRef<'_>, base: u32) -> Result<Vec<u32>, CodecError> {
        let mut hb = BitReader::new(blk.hb_words);
        let mut lb = BitReader::new(blk.lb_words);
        let mut high = 0u32;
        let out = (0..blk.count)
            .map(|_| {
                high = high.wrapping_add(hb.read_unary()?);
                let low = if blk.b > 0 { lb.read_bits(blk.b)? } else { 0 };
                Ok(base.wrapping_add((high << blk.b) | low))
            })
            .collect::<Result<Vec<u32>, CodecError>>()?;
        match hb.read_unary() {
            Ok(_) => Err(CodecError::BadHeader),
            Err(_) => Ok(out),
        }
    }

    /// Same values and the same error as the bit-serial reader on intact
    /// blocks, on every pair of truncations of the two streams, on every
    /// single bit flipped, and on counts the streams cannot supply.
    /// Mutation that fails it: naming the error by the high-bits stream
    /// alone (`UnaryOverrun` whenever it is short, also where a low read
    /// fails first).
    #[test]
    fn word_at_a_time_decode_agrees_with_the_bit_serial_reader() {
        let check = |blk: &EfBlockRef<'_>| {
            let mut out = vec![7u32];
            let got = blk.decode_into(0xFFFF_FF00, &mut out);
            match decode_bit_serial(blk, 0xFFFF_FF00) {
                Ok(want) => {
                    assert_eq!(got, Ok(()), "{blk:?}");
                    assert_eq!(out[1..], want[..], "{blk:?}");
                }
                Err(e) => {
                    assert_eq!(got, Err(e), "{blk:?}");
                    assert_eq!(out, [7], "{blk:?}");
                }
            }
        };
        let shapes: Vec<Vec<u32>> = vec![
            vec![0, 0, 0],
            (0..128).collect(),
            (0..128).map(|i| i * 57).collect(),
            (0..100).map(|i| i * i * 1000).collect(),
            vec![5, 6, 8, 15, 18, 33],
            vec![1 << 31],
        ];
        for values in shapes {
            let blk = EfBlock::encode(&values);
            for hb in 0..=blk.hb_words.len() {
                for lb in 0..=blk.lb_words.len() {
                    check(&EfBlockRef {
                        hb_words: &blk.hb_words[..hb],
                        lb_words: &blk.lb_words[..lb],
                        ..blk.as_ref()
                    });
                }
            }
            for count in [blk.count + 1, blk.count + 40] {
                check(&EfBlockRef {
                    count,
                    ..blk.as_ref()
                });
            }
            for bit in 0..32 * (blk.hb_words.len() + blk.lb_words.len()) {
                let mut flipped = blk.clone();
                let (word, mask) = (bit / 32, 1u32 << (bit % 32));
                match flipped.hb_words.get_mut(word) {
                    Some(w) => *w ^= mask,
                    None => flipped.lb_words[word - blk.hb_words.len()] ^= mask,
                }
                check(&flipped.as_ref());
            }
        }
    }

    /// Each 0→1 flip of a high-bits stream is refused. A decoder that
    /// reads only the first `count` ones returns `Ok` on every one of
    /// these 224 flips, and other values on 222 of them.
    #[test]
    fn an_extra_high_bit_is_refused() {
        let values: Vec<u32> = (0..128).map(|i| i * 7).collect();
        let blk = EfBlock::encode(&values);
        let mut flips = 0;
        for bit in 0..32 * blk.hb_words.len() {
            let (word, mask) = (bit / 32, 1u32 << (bit % 32));
            if blk.hb_words[word] & mask != 0 {
                continue;
            }
            let mut flipped = blk.clone();
            flipped.hb_words[word] |= mask;
            let mut out = vec![7u32];
            assert_eq!(
                flipped.decode_into(0, &mut out),
                Err(CodecError::BadHeader),
                "bit {bit}"
            );
            assert_eq!(out, [7], "bit {bit}");
            flips += 1;
        }
        assert_eq!(flips, 224);
    }

    #[test]
    fn low_bits_formula() {
        assert_eq!(low_bits_for(6, 36), 2);
        assert_eq!(low_bits_for(128, 128), 0);
        assert_eq!(low_bits_for(1, 1 << 20), 20);
        assert_eq!(low_bits_for(0, 100), 0);
    }
}
