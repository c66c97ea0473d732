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
/// ([`CodecError::MalformedVarint`]).
pub fn decode_u32(bytes: &[u8], pos: usize) -> Result<(u32, usize), CodecError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    let mut p = pos;
    loop {
        let byte = *bytes.get(p).ok_or(CodecError::Truncated)?;
        p += 1;
        v |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, p));
        }
        shift += 7;
        if shift >= 35 {
            return Err(CodecError::MalformedVarint);
        }
    }
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
    let start = out.len();
    let mut p = pos;
    // `n` may come off the stream: every value takes at least one byte.
    out.reserve(n.min(bytes.len().saturating_sub(pos)));
    for _ in 0..n {
        match decode_u32(bytes, p) {
            Ok((v, np)) => {
                out.push(v);
                p = np;
            }
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    Ok(p)
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
    let start = out.len();
    out.reserve(n);
    let mut p = pos;
    'values: for _ in 0..n {
        let mut v = 0u32;
        let mut shift = 0u32;
        loop {
            if p >= nbytes || p / 4 >= words.len() {
                out.truncate(start);
                return Err(CodecError::Truncated);
            }
            let byte = (words[p / 4] >> (8 * (p % 4))) as u8;
            p += 1;
            v |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                out.push(v);
                continue 'values;
            }
            shift += 7;
            if shift >= 35 {
                out.truncate(start);
                return Err(CodecError::MalformedVarint);
            }
        }
    }
    Ok(p)
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
