//! Byte-aligned variable-length integers (VByte) — the simple baseline
//! codec, also used for the term-frequency side files in the index.

use crate::error::CodecError;

/// Appends `v` as 1–5 VByte bytes (7 data bits per byte, high bit = more).
pub fn encode_u32(v: u32, out: &mut Vec<u8>) {
    let mut v = v;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one VByte value starting at `pos`; returns (value, new_pos).
///
/// Fails when the byte stream ends before a terminating byte
/// ([`CodecError::Truncated`]) or a value runs past the 32-bit range
/// ([`CodecError::MalformedVarint`]): a fifth byte carries the top four
/// bits, so one above `0x0F` is malformed.
pub fn decode_u32(bytes: &[u8], pos: usize) -> Result<(u32, usize), CodecError> {
    read_one(&bytes, pos)
}

/// Encodes a slice of values.
pub fn encode_slice(values: &[u32], out: &mut Vec<u8>) {
    for &v in values {
        encode_u32(v, out);
    }
}

/// Decodes exactly `n` values starting at `pos`; returns the new position.
/// On failure `out` is left exactly as it was.
pub fn decode_n(
    bytes: &[u8],
    pos: usize,
    n: usize,
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    read_n(&bytes, pos, n, out)
}

/// Decodes exactly `n` values starting at byte `pos` of a byte stream
/// packed little-endian into 32-bit words (the [`crate::blocks`] framing),
/// without materializing the byte array; returns the position after the
/// last. Bytes from `nbytes` on are not readable. On failure `out` is left
/// exactly as it was.
pub fn decode_words_n(
    words: &[u32],
    pos: usize,
    nbytes: usize,
    n: usize,
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    let len = nbytes.min(words.len() * 4);
    read_n(&Words { words, len }, pos, n, out)
}

/// A readable VByte stream: a byte slice, or bytes packed little-endian
/// into words.
trait Stream {
    /// Bytes readable from the start.
    fn len(&self) -> usize;
    /// Byte `p`; `p < len()`.
    fn byte(&self, p: usize) -> u8;
    /// Bytes `p..p + 8` as a little-endian word, when all are readable.
    fn eight(&self, p: usize) -> Option<u64>;
}

impl Stream for &[u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn byte(&self, p: usize) -> u8 {
        self[p]
    }

    fn eight(&self, p: usize) -> Option<u64> {
        let eight = self.get(p..)?.first_chunk::<8>()?;
        Some(u64::from_le_bytes(*eight))
    }
}

/// The [`crate::blocks`] framing: byte `p` is byte `p % 4` of word `p / 4`.
struct Words<'a> {
    words: &'a [u32],
    /// Readable bytes, at most `4 * words.len()`.
    len: usize,
}

impl Stream for Words<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn byte(&self, p: usize) -> u8 {
        (self.words[p / 4] >> (8 * (p % 4))) as u8
    }

    fn eight(&self, p: usize) -> Option<u64> {
        if p.checked_add(8)? > self.len {
            return None;
        }
        // Three words hold the eight bytes at any alignment; the third
        // is past the end only when `p` is word-aligned.
        let w = p / 4;
        let word = |i: usize| u128::from(self.words.get(w + i).copied().unwrap_or(0));
        let three = word(0) | word(1) << 32 | word(2) << 64;
        Some((three >> (8 * (p % 4))) as u64)
    }
}

/// The continuation bits of eight VByte bytes.
const MORE: u64 = 0x8080_8080_8080_8080;

/// The one VByte reader behind [`decode_n`] and [`decode_words_n`]: while
/// eight readable bytes hold no continuation bit, they are eight
/// one-byte values, taken at once; otherwise one value is read byte by
/// byte ([`read_one`]). Reserves no more than one slot per readable byte,
/// as `n` may come off the stream; on failure `out` is left as it was.
fn read_n<S: Stream>(s: &S, pos: usize, n: usize, out: &mut Vec<u32>) -> Result<usize, CodecError> {
    let start = out.len();
    out.reserve(n.min(s.len().saturating_sub(pos)));
    let mut p = pos;
    let mut left = n;
    while left > 0 {
        if left >= 8 {
            if let Some(eight) = s.eight(p).filter(|x| x & MORE == 0) {
                out.extend_from_slice(&eight.to_le_bytes().map(u32::from));
                p += 8;
                left -= 8;
                continue;
            }
        }
        match read_one(s, p) {
            Ok((v, next)) => {
                out.push(v);
                p = next;
                left -= 1;
            }
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    Ok(p)
}

/// Reads one value byte by byte (see [`decode_u32`]).
fn read_one<S: Stream>(s: &S, pos: usize) -> Result<(u32, usize), CodecError> {
    let byte_at = |p: usize| {
        (p < s.len())
            .then(|| s.byte(p))
            .ok_or(CodecError::Truncated)
    };
    let mut v = 0u32;
    for (k, shift) in [0, 7, 14, 21].into_iter().enumerate() {
        let byte = byte_at(pos + k)?;
        v |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, pos + k + 1));
        }
    }
    // The fifth byte holds the top four bits, and ends the value.
    match byte_at(pos + 4)? {
        top @ 0..=0x0F => Ok((v | u32::from(top) << 28, pos + 5)),
        _ => Err(CodecError::MalformedVarint),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_values() {
        for v in [0u32, 1, 127] {
            let mut buf = Vec::new();
            encode_u32(v, &mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!(decode_u32(&buf, 0).unwrap(), (v, 1));
        }
    }

    #[test]
    fn boundary_widths() {
        let cases = [
            (127u32, 1usize),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX, 5),
        ];
        for (v, len) in cases {
            let mut buf = Vec::new();
            encode_u32(v, &mut buf);
            assert_eq!(buf.len(), len, "width of {v}");
            assert_eq!(decode_u32(&buf, 0).unwrap().0, v);
        }
    }

    #[test]
    fn slice_roundtrip() {
        let values: Vec<u32> = (0..1000).map(|i| i * 31 % 70_000).collect();
        let mut buf = Vec::new();
        encode_slice(&values, &mut buf);
        let mut out = Vec::new();
        let end = decode_n(&buf, 0, values.len(), &mut out).unwrap();
        assert_eq!(end, buf.len());
        assert_eq!(out, values);
    }

    #[test]
    fn corrupt_bytes_decode_to_err_not_panic() {
        // Continuation bit set on the last byte: truncated.
        assert_eq!(decode_u32(&[0x80], 0), Err(CodecError::Truncated));
        assert_eq!(decode_u32(&[], 0), Err(CodecError::Truncated));
        // Six continuation bytes overflow a u32.
        let overlong = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(decode_u32(&overlong, 0), Err(CodecError::MalformedVarint));
        // decode_n leaves out untouched on failure.
        let mut out = vec![5u32];
        assert!(decode_n(&[0x01, 0x80], 0, 2, &mut out).is_err());
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn a_fifth_byte_past_32_bits_is_malformed() {
        let words = |b: &[u8]| -> Vec<u32> {
            b.chunks(4)
                .map(|c| c.iter().rev().fold(0u32, |w, &x| w << 8 | u32::from(x)))
                .collect()
        };
        for bytes in [
            [0x80u8, 0x80, 0x80, 0x80, 0x10],
            [0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
        ] {
            assert_eq!(decode_u32(&bytes, 0), Err(CodecError::MalformedVarint));
            let mut out = vec![5u32];
            assert_eq!(
                decode_n(&bytes, 0, 1, &mut out),
                Err(CodecError::MalformedVarint)
            );
            assert_eq!(
                decode_words_n(&words(&bytes), 0, 5, 1, &mut out),
                Err(CodecError::MalformedVarint)
            );
            assert_eq!(out, vec![5]);
        }
        // The largest fifth byte is u32::MAX's.
        let top = [0xFFu8, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(decode_u32(&top, 0), Ok((u32::MAX, 5)));
        let mut out = Vec::new();
        assert_eq!(decode_words_n(&words(&top), 0, 5, 1, &mut out), Ok(5));
        assert_eq!(out, vec![u32::MAX]);
    }

    #[test]
    fn a_count_past_the_bytes_is_truncated_not_an_allocation() {
        // Reserving `n` up front would ask for 16 GiB and abort.
        let mut out = vec![5u32];
        assert_eq!(
            decode_n(&[0x01, 0x02], 0, u32::MAX as usize, &mut out),
            Err(CodecError::Truncated)
        );
        assert_eq!(out, vec![5]);
    }
}
