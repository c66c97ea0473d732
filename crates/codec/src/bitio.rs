//! Bit-granular writer/reader over 32-bit words, LSB-first.
//!
//! 32-bit words (rather than bytes) because the GPU kernels consume the
//! compressed streams word-wise — `__popc` over the Elias–Fano high-bits
//! array operates on exactly these words.

use crate::error::CodecError;

/// Appends bit fields into a growing `Vec<u32>`, least-significant bit of
/// word 0 first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    words: Vec<u32>,
    /// Bits used in the last word (0..=31; 0 also means "no partial word").
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> usize {
        if self.used == 0 {
            self.words.len() * 32
        } else {
            (self.words.len() - 1) * 32 + self.used as usize
        }
    }

    /// Writes the low `n` bits of `v` (`n <= 32`).
    pub fn write_bits(&mut self, v: u32, n: u32) {
        assert!(n <= 32, "write_bits supports at most 32 bits, got {n}");
        if n == 0 {
            return;
        }
        let v = if n == 32 { v } else { v & ((1u32 << n) - 1) };
        if self.used == 0 {
            self.words.push(v);
            self.used = n % 32;
            return;
        }
        let last = self.words.last_mut().expect("used != 0 implies a word");
        *last |= v << self.used;
        let fit = 32 - self.used;
        if n < fit {
            self.used += n;
        } else if n == fit {
            self.used = 0;
        } else {
            let spill = v >> fit;
            self.words.push(spill);
            self.used = n - fit;
        }
    }

    /// Writes `gap` zeros followed by a terminating one — the unary code
    /// used by the Elias–Fano high-bits array (paper Fig. 4).
    pub fn write_unary(&mut self, gap: u32) {
        let mut remaining = gap;
        while remaining >= 32 {
            self.write_bits(0, 32);
            remaining -= 32;
        }
        // `remaining` zeros then a one: the value 1 << remaining in
        // remaining+1 bits.
        self.write_bits(1u32 << remaining, remaining + 1);
    }

    /// Pads to a word boundary and returns the words.
    pub fn finish(self) -> Vec<u32> {
        self.words
    }
}

/// Reads bit fields from a `&[u32]`, LSB-first, mirroring [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u32],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(words: &'a [u32]) -> Self {
        BitReader { words, pos: 0 }
    }

    /// Starts reading at an absolute bit offset.
    pub fn at(words: &'a [u32], bit_pos: usize) -> Self {
        BitReader {
            words,
            pos: bit_pos,
        }
    }

    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Reads `n <= 32` bits. Fails with [`CodecError::Truncated`] when the
    /// read would run past the end of the word stream (the cursor is not
    /// advanced in that case).
    pub fn read_bits(&mut self, n: u32) -> Result<u32, CodecError> {
        assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        let word = self.pos / 32;
        let off = (self.pos % 32) as u32;
        let end_word = (self.pos + n as usize - 1) / 32;
        if end_word >= self.words.len() {
            return Err(CodecError::Truncated);
        }
        self.pos += n as usize;
        let lo = self.words[word] >> off;
        let have = 32 - off;
        let v = if n <= have {
            lo
        } else {
            lo | (self.words[word + 1] << have)
        };
        if n == 32 {
            Ok(v)
        } else {
            Ok(v & ((1u32 << n) - 1))
        }
    }

    /// Reads a unary code: returns the number of zeros before the next one
    /// bit, consuming the terminator. Fails with [`CodecError::UnaryOverrun`]
    /// when the stream ends before a terminating one bit.
    pub fn read_unary(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0u32;
        loop {
            let word = self.pos / 32;
            let off = (self.pos % 32) as u32;
            if word >= self.words.len() {
                return Err(CodecError::UnaryOverrun);
            }
            let chunk = self.words[word] >> off;
            if chunk == 0 {
                zeros += 32 - off;
                self.pos += (32 - off) as usize;
            } else {
                let tz = chunk.trailing_zeros();
                zeros += tz;
                self.pos += tz as usize + 1;
                return Ok(zeros);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_fields() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 5);
        w.write_bits(42, 32);
        let words = w.finish();
        let mut r = BitReader::new(&words);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(5).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 42);
    }

    #[test]
    fn write_bits_masks_excess() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits should land
        w.write_bits(0, 4);
        let words = w.finish();
        assert_eq!(words[0], 0x0F);
    }

    #[test]
    fn cross_word_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(0x3FFFFFFF, 30);
        w.write_bits(0b1011, 4); // straddles word 0/1
        let words = w.finish();
        let mut r = BitReader::new(&words);
        assert_eq!(r.read_bits(30).unwrap(), 0x3FFFFFFF);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
    }

    #[test]
    fn unary_roundtrip() {
        let gaps = [0u32, 1, 5, 31, 32, 33, 100, 0, 0, 64];
        let mut w = BitWriter::new();
        for &g in &gaps {
            w.write_unary(g);
        }
        let words = w.finish();
        let mut r = BitReader::new(&words);
        for &g in &gaps {
            assert_eq!(r.read_unary().unwrap(), g);
        }
    }

    #[test]
    fn len_bits_tracks_position() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bits(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.len_bits(), 1);
        w.write_bits(0, 31);
        assert_eq!(w.len_bits(), 32);
        w.write_bits(0, 32);
        assert_eq!(w.len_bits(), 64);
        w.write_bits(3, 2);
        assert_eq!(w.len_bits(), 66);
    }

    #[test]
    fn reader_at_offset() {
        let mut w = BitWriter::new();
        w.write_bits(0b111, 3);
        w.write_bits(0b1010, 4);
        let words = w.finish();
        let mut r = BitReader::at(&words, 3);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
    }

    #[test]
    fn truncated_reads_are_reported() {
        let words = [0xFFFF_FFFFu32];
        let mut r = BitReader::new(&words);
        assert_eq!(r.read_bits(32).unwrap(), u32::MAX);
        assert_eq!(r.read_bits(1), Err(CodecError::Truncated));
        // A failed read leaves the cursor in place.
        assert_eq!(r.bit_pos(), 32);
        // Straddling reads past the end fail too.
        let mut r = BitReader::at(&words, 30);
        assert_eq!(r.read_bits(4), Err(CodecError::Truncated));
        // Unary over all-zero words never finds a terminator.
        let zeros = [0u32, 0];
        let mut r = BitReader::new(&zeros);
        assert_eq!(r.read_unary(), Err(CodecError::UnaryOverrun));
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        w.write_bits(7, 3);
        let words = w.finish();
        let mut r = BitReader::new(&words);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(3).unwrap(), 7);
    }
}
