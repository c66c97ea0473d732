//! SIMD kernel layer with runtime feature detection.
//!
//! Every hot kernel of the CPU engine — PforDelta/Elias–Fano bit-unpacking,
//! d-gap prefix sums, in-block membership search, the block-max bound
//! fold, and the match walk's 8×8 blocks — exists here in two
//! implementations: a scalar path that is the always-available
//! reference, and an AVX2 path selected once per process via
//! `is_x86_feature_detected!`. The paths are **bit-exact**: same
//! outputs, same [`WorkCounters`](crate::cost::WorkCounters) charges, so
//! virtual time stays host- and path-independent (Lemire, Boytsov & Kurz,
//! "SIMD Compression and the Intersection of Sorted Integers", shifts
//! wall-clock constants 2–5× — which is exactly why wall-clock measurement
//! lives in the `benchmark/` package, not here).
//!
//! Dispatch control: [`set_forced`] pins the scalar path for the whole
//! process, or returns it to feature detection (tests flip paths
//! in-process to exercise both).
//!
//! Which path actually ran is observable through [`dispatch_totals`]
//! (cumulative, process-wide, relaxed atomics — race-tolerant by design so
//! parallel tests never see torn readings).

use griffin_codec::dgap;
use griffin_codec::ef::EfBlockRef;
use griffin_codec::pfordelta::{patch_exceptions, PforBlockRef};
use griffin_codec::CodecError;

use crate::intersect::Slots;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which kernel implementation a dispatch resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar reference path.
    Scalar,
    /// 256-bit AVX2 path (x86-64 only, runtime-detected).
    Avx2,
}

impl KernelPath {
    pub fn name(&self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
        }
    }
}

/// Programmatic dispatch override (see [`set_forced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForceMode {
    /// Take the SIMD path when the host supports it (scalar when it does
    /// not — never unsound).
    #[default]
    Auto,
    /// Always take the scalar path.
    Scalar,
}

static FORCED: AtomicU8 = AtomicU8::new(0);

pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Overrides kernel dispatch for the whole process. `Auto` restores the
/// feature-detection default.
pub fn set_forced(mode: ForceMode) {
    FORCED.store(mode as u8, Ordering::Relaxed);
}

/// The path the next kernel dispatch will take.
pub fn active_path() -> KernelPath {
    if FORCED.load(Ordering::Relaxed) == ForceMode::Auto as u8 && avx2_available() {
        KernelPath::Avx2
    } else {
        KernelPath::Scalar
    }
}

/// Kernels whose dispatches are counted (order = counter layout), each
/// under the path that ran it. `match_blocks` counts the merges of sides
/// within 16× of each other: under `avx2` when its blocks walked them, under
/// `scalar` when the match walk's scalar walk did; merges farther apart
/// have no block phase and are not counted.
pub const KERNEL_NAMES: [&str; 5] = [
    "decode_pfor",
    "decode_ef",
    "block_search",
    "bound_fold",
    "match_blocks",
];

const K_PFOR: usize = 0;
const K_EF: usize = 1;
const K_SEARCH: usize = 2;
const K_FOLD: usize = 3;
const K_MATCH: usize = 4;

static DISPATCHES: [[AtomicU64; 2]; 5] = [const { [const { AtomicU64::new(0) }; 2] }; 5];

#[inline]
fn note_dispatch(kernel: usize, path: KernelPath) {
    let p = match path {
        KernelPath::Scalar => 0,
        KernelPath::Avx2 => 1,
    };
    DISPATCHES[kernel][p].fetch_add(1, Ordering::Relaxed);
}

/// Cumulative process-wide dispatch counts: `(kernel, path, total)`.
/// Totals only grow; readers fold them as gauges, never as deltas.
pub fn dispatch_totals() -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::with_capacity(2 * KERNEL_NAMES.len());
    for (k, name) in KERNEL_NAMES.iter().enumerate() {
        out.push((*name, "scalar", DISPATCHES[k][0].load(Ordering::Relaxed)));
        out.push((*name, "avx2", DISPATCHES[k][1].load(Ordering::Relaxed)));
    }
    out
}

// ---------------------------------------------------------------------------
// b-bit unpack
// ---------------------------------------------------------------------------

/// Reads the `b`-bit slot starting at bit `bitpos` of an LSB-first packed
/// word stream — the branch-free scalar twin of `BitReader::read_bits`.
#[inline]
fn read_packed(words: &[u32], bitpos: usize, b: u32) -> u32 {
    let w = bitpos / 32;
    let s = (bitpos % 32) as u32;
    let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
    let lo = words[w] >> s;
    if s + b <= 32 {
        lo & mask
    } else {
        (lo | (words[w + 1] << (32 - s))) & mask
    }
}

/// Appends `count` `b`-bit values unpacked from `words` to `out`.
/// Precondition (guaranteed by block parse): `words` holds at least
/// `count * b` bits.
fn unpack_bits_into(words: &[u32], count: usize, b: u32, out: &mut Vec<u32>, path: KernelPath) {
    if count == 0 {
        return;
    }
    if b == 0 {
        out.resize(out.len() + count, 0);
        return;
    }
    if b == 32 {
        out.extend_from_slice(&words[..count]);
        return;
    }
    out.reserve(count);
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Full 8-value groups whose second gather word stays in bounds.
        // The last group may straddle the final word; it goes scalar.
        while i + 8 <= count && ((i + 7) * b as usize) / 32 + 1 < words.len() {
            // SAFETY: AVX2 presence is the dispatch precondition; the
            // loop guard bounds every gathered word index.
            unsafe { unpack8_avx2(words, i, b, out) };
            i += 8;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    let mut bitpos = i * b as usize;
    while i < count {
        out.push(read_packed(words, bitpos, b));
        bitpos += b as usize;
        i += 1;
    }
}

/// Unpacks values `i..i+8` (width `b`, `0 < b < 32`) in one shot: gather
/// the straddled word pair per lane, variable-shift, mask. Shift counts of
/// 32 yield 0 under `vpsllvd`/`vpsrlvd`, which makes the `s == 0` lane
/// (no straddle) come out right without a branch.
///
/// # Safety
///
/// The CPU supports AVX2. `0 < b < 32`, and both words of every lane's
/// pair are in bounds: `((i + 7) * b) / 32 + 1 < words.len()` (the gathers
/// are unchecked, and read their indices as `i32`). `out` has spare
/// capacity for eight more values: they are stored past its length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack8_avx2(words: &[u32], i: usize, b: u32, out: &mut Vec<u32>) {
    use std::arch::x86_64::*;
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let bitpos = _mm256_add_epi32(
        _mm256_set1_epi32((i as u32 * b) as i32),
        _mm256_mullo_epi32(lane, _mm256_set1_epi32(b as i32)),
    );
    let w = _mm256_srli_epi32::<5>(bitpos);
    let s = _mm256_and_si256(bitpos, _mm256_set1_epi32(31));
    let base = words.as_ptr() as *const i32;
    let w0 = _mm256_i32gather_epi32::<4>(base, w);
    let w1 = _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(w, _mm256_set1_epi32(1)));
    let lo = _mm256_srlv_epi32(w0, s);
    let hi = _mm256_sllv_epi32(w1, _mm256_sub_epi32(_mm256_set1_epi32(32), s));
    let mask = _mm256_set1_epi32(((1u32 << b) - 1) as i32);
    let v = _mm256_and_si256(_mm256_or_si256(lo, hi), mask);
    let len = out.len();
    debug_assert!(out.capacity() >= len + 8);
    _mm256_storeu_si256(out.as_mut_ptr().add(len) as *mut __m256i, v);
    out.set_len(len + 8);
}

// ---------------------------------------------------------------------------
// prefix sum
// ---------------------------------------------------------------------------

/// In-place inclusive prefix sum with carry-in `base`, wrapping u32
/// addition — semantically identical to `dgap::prefix_sum_in_place`
/// (wrapping addition is associative, so the in-register scan regroups
/// freely without changing any output bit).
fn prefix_sum(buf: &mut [u32], base: u32, path: KernelPath) {
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 && buf.len() >= 8 {
        // SAFETY: AVX2 presence is the dispatch precondition.
        unsafe { prefix_sum_avx2(buf, base) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    dgap::prefix_sum_in_place(buf, base);
}

/// Hillis–Steele scan per 8-lane chunk: two in-lane shifted adds, one
/// cross-lane fix (add element 3's running total to the upper lane), then
/// the carry from the previous chunk broadcast-added on top.
///
/// # Safety
///
/// The CPU supports AVX2. Nothing else: every vector load and store lies
/// within `buf`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn prefix_sum_avx2(buf: &mut [u32], base: u32) {
    use std::arch::x86_64::*;
    let mut carry = _mm256_set1_epi32(base as i32);
    let mut i = 0usize;
    while i + 8 <= buf.len() {
        let p = buf.as_mut_ptr().add(i) as *mut __m256i;
        let mut v = _mm256_loadu_si256(p as *const __m256i);
        v = _mm256_add_epi32(v, _mm256_slli_si256::<4>(v));
        v = _mm256_add_epi32(v, _mm256_slli_si256::<8>(v));
        let lane_total = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(3));
        let upper_fix = _mm256_blend_epi32::<0b1111_0000>(_mm256_setzero_si256(), lane_total);
        v = _mm256_add_epi32(v, upper_fix);
        v = _mm256_add_epi32(v, carry);
        _mm256_storeu_si256(p, v);
        carry = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
        i += 8;
    }
    if i < buf.len() {
        let acc = if i == 0 { base } else { buf[i - 1] };
        dgap::prefix_sum_in_place(&mut buf[i..], acc);
    }
}

// ---------------------------------------------------------------------------
// block decode kernels
// ---------------------------------------------------------------------------

/// Decodes a parsed PforDelta block (unpack → exception patch → prefix
/// sum with `base`), appending absolute docIDs to `out`. Errors leave
/// `out` exactly as it was.
pub fn decode_pfor(
    blk: &PforBlockRef<'_>,
    base: u32,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let path = active_path();
    note_dispatch(K_PFOR, path);
    decode_pfor_with(blk, base, out, path)
}

fn decode_pfor_with(
    blk: &PforBlockRef<'_>,
    base: u32,
    out: &mut Vec<u32>,
    path: KernelPath,
) -> Result<(), CodecError> {
    let start = out.len();
    unpack_bits_into(blk.slot_words, blk.count as usize, blk.b, out, path);
    // The exception chain is inherently serial (each slot points at the
    // next) — the very data dependency the paper cites when rejecting
    // PforDelta for the GPU. It stays scalar on every path.
    if let Err(e) = patch_exceptions(&mut out[start..], blk.first_exception, blk.exceptions) {
        out.truncate(start);
        return Err(e);
    }
    prefix_sum(&mut out[start..], base, path);
    Ok(())
}

/// Decodes a parsed Elias–Fano block, appending `base`-relative absolute
/// values to `out`. Low bits unpack vectorized; the unary high-bits scan
/// runs word-at-a-time via `trailing_zeros` (itself a 32× win over the
/// bit-serial reference reader). Errors leave `out` exactly as it was.
pub fn decode_ef(blk: &EfBlockRef<'_>, base: u32, out: &mut Vec<u32>) -> Result<(), CodecError> {
    let path = active_path();
    note_dispatch(K_EF, path);
    decode_ef_with(blk, base, out, path)
}

fn decode_ef_with(
    blk: &EfBlockRef<'_>,
    base: u32,
    out: &mut Vec<u32>,
    path: KernelPath,
) -> Result<(), CodecError> {
    if path == KernelPath::Scalar {
        return blk.decode_into(base, out);
    }
    // Sized first, as the scalar reader does, so a corrupt block fails
    // with the same error on both paths and `out` is never written.
    blk.check_streams()?;
    let count = blk.count as usize;
    let start = out.len();
    unpack_bits_into(blk.lb_words, count, blk.b, out, path);
    // k-th set bit at absolute unary position p encodes high value p - k
    // (p+1 bits consumed = k+1 terminators + (p-k) zero gaps). Combining:
    // value = base + ((high << b) | low) = base +w (high << b) +w low,
    // exact because low < 2^b keeps the bit ranges disjoint.
    let mut k = 0usize;
    for (wi, &word) in blk.hb_words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 && k < count {
            let tz = bits.trailing_zeros();
            let p = (wi * 32) as u32 + tz;
            let high = p - k as u32;
            out[start + k] = out[start + k].wrapping_add(base.wrapping_add(high << blk.b));
            bits &= bits - 1;
            k += 1;
        }
        if k == count {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// in-block membership search
// ---------------------------------------------------------------------------

/// Probes a manual binary search of `hay[lo..hi)` for `target` would make,
/// replayed purely on indices. For sorted `hay` with distinct elements,
/// `hay[mid] < target ⟺ mid < p` and (on a hit) `hay[mid] == target ⟺
/// mid == p`, so the count is exact without touching memory.
fn binary_probe_count(len: usize, outcome: Result<usize, usize>) -> u64 {
    let (mut lo, mut hi) = (0usize, len);
    let mut probes = 0u64;
    match outcome {
        Ok(p) => {
            while lo < hi {
                probes += 1;
                let mid = lo + (hi - lo) / 2;
                match mid.cmp(&p) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => return probes,
                }
            }
            probes
        }
        Err(p) => {
            while lo < hi {
                probes += 1;
                let mid = lo + (hi - lo) / 2;
                if mid < p {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            probes
        }
    }
}

/// Membership search in one decoded block (sorted, distinct docIDs):
/// `Ok(pos)` on a hit, `Err(insertion_pos)` on a miss. Charges `probes`
/// exactly as the scalar binary search would, whichever path executes —
/// the invariant that keeps virtual time path-independent.
pub fn find_in_sorted_block(hay: &[u32], target: u32, probes: &mut u64) -> Result<usize, usize> {
    let path = active_path();
    note_dispatch(K_SEARCH, path);
    find_in_sorted_block_with(hay, target, probes, path)
}

fn find_in_sorted_block_with(
    hay: &[u32],
    target: u32,
    probes: &mut u64,
    path: KernelPath,
) -> Result<usize, usize> {
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // SAFETY: AVX2 presence is the dispatch precondition.
        let outcome = unsafe { partition_point_avx2(hay, target) };
        *probes += binary_probe_count(hay.len(), outcome);
        return outcome;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    let (mut lo, mut hi) = (0usize, hay.len());
    while lo < hi {
        *probes += 1;
        let mid = lo + (hi - lo) / 2;
        match hay[mid].cmp(&target) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Branch-light linear scan, 8 lanes per step: unsigned compare via the
/// sign-bias trick, movemask, early-exit on the first lane `>= target`.
/// On a 128-element block this trades ~7 mispredicted binary-search
/// branches for ≤16 predictable vector compares over contiguous memory.
///
/// # Safety
///
/// The CPU supports AVX2. Nothing else: every vector load lies within
/// `hay`. (An unsorted `hay` gives a wrong position, never a read out of
/// bounds.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn partition_point_avx2(hay: &[u32], target: u32) -> Result<usize, usize> {
    use std::arch::x86_64::*;
    let bias = _mm256_set1_epi32(i32::MIN);
    let t = _mm256_xor_si256(_mm256_set1_epi32(target as i32), bias);
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let v = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
        let lt = _mm256_cmpgt_epi32(t, _mm256_xor_si256(v, bias));
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
        if mask != 0xFF {
            // hay is sorted, so `lt` lanes form a low-bit run; the first
            // non-lt lane is the partition point.
            let p = i + mask.trailing_ones() as usize;
            return if hay[p] == target { Ok(p) } else { Err(p) };
        }
        i += 8;
    }
    while i < hay.len() {
        if hay[i] >= target {
            return if hay[i] == target { Ok(i) } else { Err(i) };
        }
        i += 1;
    }
    Err(hay.len())
}

// ---------------------------------------------------------------------------
// match walk blocks
// ---------------------------------------------------------------------------

/// Longer side over shorter side up to which the match walk's AVX2
/// block phase runs: farther apart, ranking the shorter side's elements
/// in the longer one is faster (measured crossover between 24 and 32;
/// the engine merges only below 16).
pub(crate) const BLOCK_RATIO: usize = 16;

/// The block phase of the match walk over two strictly ascending lists
/// within [`BLOCK_RATIO`] of each other: while both sides have eight
/// elements left, compares eight of `a` with eight of `b` all-pairs and
/// steps the side whose eighth element is smaller (both on a tie).
/// Matches go to `slots` from slot 0; returns `(i, j, k)`: where each
/// side's walk stopped and how many matches were stored. The scalar
/// path, and sides farther apart, have no block phase: `(0, 0, 0)`.
/// Counts a dispatch, under the path that walks the lists, only for
/// sides within [`BLOCK_RATIO`] (see [`KERNEL_NAMES`]).
///
/// A match lies in exactly one compared pair of blocks, and each pair
/// holds only values above the previous pair's matches, so matches come
/// out ascending, each once; what is left uncompared is exactly `a[i..]`
/// against `b[j..]`.
pub(crate) fn match_blocks(
    a: &[u32],
    b: &[u32],
    slots: &mut Slots<'_>,
    path: KernelPath,
) -> (usize, usize, usize) {
    assert!(slots.len() >= a.len().min(b.len()) + 8);
    if a.len().max(b.len()) > BLOCK_RATIO * a.len().min(b.len()) {
        return (0, 0, 0);
    }
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 && avx2_available() {
        note_dispatch(K_MATCH, KernelPath::Avx2);
        // SAFETY: AVX2 is present, checked just above; the assert above
        // gives the stores their slots.
        return unsafe { match_blocks_avx2(a, b, slots) };
    }
    note_dispatch(K_MATCH, KernelPath::Scalar);
    (0, 0, 0)
}

/// For each 8-bit mask, the lane numbers of its set bits, ascending, one
/// per byte from the low byte: the permutation that packs a vector's
/// masked lanes to its front.
#[cfg(target_arch = "x86_64")]
const PACK_LANES: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut packed, mut n, mut lane) = (0u64, 0, 0);
        while lane < 8 {
            if mask >> lane & 1 == 1 {
                packed |= (lane as u64) << (8 * n);
                n += 1;
            }
            lane += 1;
        }
        table[mask] = packed;
        mask += 1;
    }
    table
};

/// [`match_blocks`] on AVX2. The `b` block is rotated within each
/// 128-bit half and with its halves swapped: eight rotations put every
/// `b` element beside every `a` lane once, and the greater compares sum
/// to each `a` lane's rank in the `b` block (unsigned order, compared as
/// signed after flipping the sign bit). An `a` lane matched when the `b`
/// element at its rank equals it (a rank of eight wraps to `b`'s first,
/// which is below it). The matched lanes, their ranks and indices are
/// packed to the front with [`PACK_LANES`] and stored eight at a time.
///
/// # Safety
///
/// The CPU supports AVX2, and `slots` holds at least
/// `min(a.len(), b.len()) + 8` slots: the stores write eight lanes from
/// the match count, which never exceeds that minimum.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn match_blocks_avx2(a: &[u32], b: &[u32], slots: &mut Slots<'_>) -> (usize, usize, usize) {
    use std::arch::x86_64::*;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let bias = _mm256_set1_epi32(i32::MIN);
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i + 8 <= a.len() && j + 8 <= b.len() {
        let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
        let sa = _mm256_xor_si256(va, bias);
        let sb = _mm256_xor_si256(vb, bias);
        let sw = _mm256_permute2x128_si256::<0x01>(sb, sb);
        let mut below = _mm256_setzero_si256();
        for r in [
            sb,
            _mm256_shuffle_epi32::<0b00_11_10_01>(sb),
            _mm256_shuffle_epi32::<0b01_00_11_10>(sb),
            _mm256_shuffle_epi32::<0b10_01_00_11>(sb),
            sw,
            _mm256_shuffle_epi32::<0b00_11_10_01>(sw),
            _mm256_shuffle_epi32::<0b01_00_11_10>(sw),
            _mm256_shuffle_epi32::<0b10_01_00_11>(sw),
        ] {
            // -1 in each lane whose `a` is above this rotation's `b`.
            below = _mm256_add_epi32(below, _mm256_cmpgt_epi32(sa, r));
        }
        let rank = _mm256_sub_epi32(_mm256_setzero_si256(), below);
        let eq = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rank));
        let hit = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as usize;
        let pack = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(PACK_LANES[hit] as i64));
        for (dst, v) in [
            (slots.docids.as_mut_ptr(), va),
            (
                slots.a_idx.as_mut_ptr(),
                _mm256_add_epi32(lanes, _mm256_set1_epi32(i as i32)),
            ),
            (
                slots.b_idx.as_mut_ptr(),
                _mm256_add_epi32(rank, _mm256_set1_epi32(j as i32)),
            ),
        ] {
            _mm256_storeu_si256(
                dst.add(k) as *mut __m256i,
                _mm256_permutevar8x32_epi32(v, pack),
            );
        }
        k += hit.count_ones() as usize;
        let (a_top, b_top) = (a[i + 7], b[j + 7]);
        i += 8 * usize::from(a_top <= b_top);
        j += 8 * usize::from(b_top <= a_top);
    }
    (i, j, k)
}

// ---------------------------------------------------------------------------
// block-max bound fold
// ---------------------------------------------------------------------------

/// One term's pass of the block-max bound fold: for every candidate `c`,
/// look up the BM25 upper bound of the block holding that candidate's
/// element (`elem_idx[c] / block_len`) and fold it into `ubs[c]` — assign
/// on the first term, IEEE f32 add after. Folding term-by-term keeps each
/// candidate's per-term addition order identical to the scalar
/// candidate-by-candidate loop, so bounds are bit-exact either way.
pub fn fold_term_bounds(
    ubs: &mut [f32],
    elem_idx: &[u32],
    block_len: usize,
    block_ubs: &[f32],
    first_term: bool,
) {
    assert_eq!(ubs.len(), elem_idx.len());
    let path = active_path();
    note_dispatch(K_FOLD, path);
    fold_term_bounds_with(ubs, elem_idx, block_len, block_ubs, first_term, path)
}

fn fold_term_bounds_with(
    ubs: &mut [f32],
    elem_idx: &[u32],
    block_len: usize,
    block_ubs: &[f32],
    first_term: bool,
    path: KernelPath,
) {
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 && block_len.is_power_of_two() && elem_idx.len() >= 8 {
        // SAFETY: AVX2 presence is the dispatch precondition; every
        // gathered index is a valid block number for this term's list.
        unsafe {
            i = fold_term_bounds_avx2(
                ubs,
                elem_idx,
                block_len.trailing_zeros(),
                block_ubs,
                first_term,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    for c in i..elem_idx.len() {
        let u = block_ubs[elem_idx[c] as usize / block_len];
        ubs[c] = if first_term { u } else { ubs[c] + u };
    }
}

/// Vector body of the fold (power-of-two `block_len` only: the divide
/// becomes a logical shift). Returns how many candidates were handled;
/// the scalar tail finishes the rest.
///
/// # Safety
///
/// The CPU supports AVX2. `ubs` is at least as long as `elem_idx`, and
/// every `elem_idx[c] >> shift` is an index into `block_ubs`: the gather is
/// unchecked, and reads its indices as `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_term_bounds_avx2(
    ubs: &mut [f32],
    elem_idx: &[u32],
    shift: u32,
    block_ubs: &[f32],
    first_term: bool,
) -> usize {
    use std::arch::x86_64::*;
    let count = _mm_cvtsi32_si128(shift as i32);
    let mut i = 0usize;
    while i + 8 <= elem_idx.len() {
        let idx = _mm256_loadu_si256(elem_idx.as_ptr().add(i) as *const __m256i);
        let blk = _mm256_srl_epi32(idx, count);
        let u = _mm256_i32gather_ps::<4>(block_ubs.as_ptr(), blk);
        let dst = ubs.as_mut_ptr().add(i);
        let v = if first_term {
            u
        } else {
            _mm256_add_ps(_mm256_loadu_ps(dst), u)
        };
        _mm256_storeu_ps(dst, v);
        i += 8;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::bitio::BitWriter;
    use griffin_codec::pfordelta::PforBlock;
    use griffin_codec::{Codec, EfBlock};

    /// SplitMix64 — deterministic stream, no external rand.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn both_paths() -> Vec<KernelPath> {
        let mut p = vec![KernelPath::Scalar];
        if avx2_available() {
            p.push(KernelPath::Avx2);
        }
        p
    }

    /// `v` behind `off` junk words: `&padded(v, off)[off..]` is `v` at a
    /// start `4 * off` bytes past an allocation's, so offsets 1 to 7 put
    /// it off every 32-byte boundary a vector load could assume.
    fn padded<T: Copy>(v: &[T], off: usize, junk: T) -> Vec<T> {
        let mut out = vec![junk; off];
        out.extend_from_slice(v);
        out
    }

    #[test]
    fn unpack_matches_reference_for_every_width() {
        let mut rng = 7u64;
        for b in 0u32..=32 {
            for count in [0usize, 1, 5, 7, 8, 9, 16, 31, 100, 128] {
                let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
                let values: Vec<u32> = (0..count)
                    .map(|_| splitmix(&mut rng) as u32 & mask)
                    .collect();
                let mut wtr = BitWriter::new();
                for &v in &values {
                    wtr.write_bits(v, b);
                }
                let words = wtr.finish();
                for (path, off) in both_paths()
                    .into_iter()
                    .flat_map(|p| (0..8).map(move |o| (p, o)))
                {
                    let words = padded(&words, off, u32::MAX);
                    let mut out = vec![42u32]; // pre-existing content survives
                    unpack_bits_into(&words[off..], count, b, &mut out, path);
                    assert_eq!(out[0], 42);
                    let what = format!("b={b} count={count} {path:?} offset {off}");
                    assert_eq!(&out[1..], &values[..], "{what}");
                }
            }
        }
    }

    #[test]
    fn prefix_sum_paths_agree_including_wraparound() {
        let mut rng = 11u64;
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 100, 128, 1000] {
            for base in [0u32, 1, u32::MAX - 3] {
                let gaps: Vec<u32> = (0..n)
                    .map(|i| {
                        if i % 17 == 0 {
                            u32::MAX - (splitmix(&mut rng) as u32 % 5)
                        } else {
                            splitmix(&mut rng) as u32 % 1000
                        }
                    })
                    .collect();
                let mut expect = gaps.clone();
                dgap::prefix_sum_in_place(&mut expect, base);
                for path in both_paths() {
                    for off in 0..8 {
                        let mut got = padded(&gaps, off, 7);
                        prefix_sum(&mut got[off..], base, path);
                        let what = format!("n={n} base={base} {path:?} offset {off}");
                        assert_eq!(got[..off], vec![7; off], "{what}: wrote before the start");
                        assert_eq!(got[off..], expect, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn pfor_decode_paths_match_codec_reference() {
        let mut rng = 13u64;
        for n in [1usize, 3, 8, 100, 128, 200] {
            // Mix small gaps with huge outliers to force exceptions.
            let gaps: Vec<u32> = (0..n)
                .map(|i| {
                    if i % 9 == 3 {
                        1 << 30
                    } else {
                        1 + splitmix(&mut rng) as u32 % 60
                    }
                })
                .collect();
            let blk = PforBlock::encode(&gaps);
            let mut words = Vec::new();
            blk.to_words(&mut words);
            let parsed = PforBlockRef::parse(&words).unwrap();
            for base in [0u32, 1000] {
                let mut expect = Vec::new();
                Codec::PforDelta
                    .decode_block(&words, base, &mut expect)
                    .unwrap();
                for path in both_paths() {
                    let mut got = Vec::new();
                    decode_pfor_with(&parsed, base, &mut got, path).unwrap();
                    assert_eq!(got, expect, "n={n} base={base} {path:?}");
                }
            }
        }
    }

    #[test]
    fn ef_decode_paths_match_codec_reference() {
        let mut rng = 17u64;
        for n in [1usize, 2, 8, 100, 128, 300] {
            let mut cur = 0u64;
            let rel: Vec<u32> = (0..n)
                .map(|_| {
                    cur += 1 + splitmix(&mut rng) % 700;
                    cur as u32
                })
                .collect();
            let blk = EfBlock::encode(&rel);
            let mut words = Vec::new();
            blk.to_words(&mut words);
            let parsed = EfBlockRef::parse(&words).unwrap();
            for base in [0u32, 77] {
                let mut expect = Vec::new();
                Codec::EliasFano
                    .decode_block(&words, base, &mut expect)
                    .unwrap();
                for path in both_paths() {
                    let mut got = Vec::new();
                    decode_ef_with(&parsed, base, &mut got, path).unwrap();
                    assert_eq!(got, expect, "n={n} base={base} {path:?}");
                }
            }
        }
    }

    /// Decodes `words` as a `codec` block through the codec's reader and,
    /// when the block parses, through [`decode_pfor_with`] /
    /// [`decode_ef_with`] on every kernel path, each into an `out` that
    /// already holds one value: all must return the same `Result` and
    /// leave the same `out`, and an `Err` must leave `out` untouched.
    fn assert_decodes_alike(codec: Codec, words: &[u32], base: u32, what: &str) {
        const BEFORE: u32 = 0xDEAD_BEEF;
        let mut expect = vec![BEFORE];
        let expect_result = codec.decode_block(words, base, &mut expect);
        if expect_result.is_err() {
            assert_eq!(expect, [BEFORE], "{what}: codec reader wrote on Err");
        }
        for path in both_paths() {
            let mut got = vec![BEFORE];
            let result = match codec {
                Codec::PforDelta => match PforBlockRef::parse(words) {
                    Ok(blk) => decode_pfor_with(&blk, base, &mut got, path),
                    Err(_) => return,
                },
                Codec::EliasFano => match EfBlockRef::parse(words) {
                    Ok(blk) => decode_ef_with(&blk, base, &mut got, path),
                    Err(_) => return,
                },
                Codec::Varint => unreachable!("VByte has its own reader tests"),
            };
            assert_eq!(result, expect_result, "{what}: {path:?} result");
            assert_eq!(got, expect, "{what}: {path:?} out");
        }
    }

    /// Every truncation of PforDelta and Elias–Fano blocks the seed draws,
    /// and every single-bit flip of every word, decodes alike on both
    /// kernel paths and through the codec's reader, without a panic
    /// ([`assert_decodes_alike`]). Set `GRIFFIN_FAULT_SEED` to draw
    /// others. Every flip that adds a one to an EF block's high bits is
    /// refused as `BadHeader`, as the device upload refuses it. Fails if
    /// the AVX2 EF decode reports a block short of a one as `Truncated`
    /// where the scalar reader says `UnaryOverrun`, writes `out` before it
    /// knows the block is whole, or if `EfBlockRef::check_streams` accepts
    /// more ones than elements.
    #[test]
    fn corrupt_blocks_decode_alike_on_every_path() {
        let seed = std::env::var("GRIFFIN_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0DE_B10C);
        let mut rng = seed;
        for codec in [Codec::PforDelta, Codec::EliasFano] {
            for case in 0..6 {
                let n = 1 + splitmix(&mut rng) as usize % 128;
                let max_gap = [1u64, 3, 700, 1 << 20][case % 4];
                let mut words = Vec::new();
                match codec {
                    Codec::PforDelta => {
                        // Gaps with rare outliers, so blocks carry
                        // exceptions.
                        let gaps: Vec<u32> = (0..n)
                            .map(|_| match splitmix(&mut rng) % 16 {
                                0 => 1 << 28,
                                _ => 1 + (splitmix(&mut rng) % max_gap) as u32,
                            })
                            .collect();
                        PforBlock::encode(&gaps).to_words(&mut words);
                    }
                    _ => {
                        let mut cur = 0u64;
                        let rel: Vec<u32> = (0..n)
                            .map(|_| {
                                cur += 1 + splitmix(&mut rng) % max_gap;
                                cur as u32
                            })
                            .collect();
                        EfBlock::encode(&rel).to_words(&mut words);
                    }
                }
                let base = splitmix(&mut rng) as u32 % 1000;
                let what = |how: String| format!("seed {seed} {codec:?} case {case} {how}");
                assert_decodes_alike(codec, &words, base, &what("intact".into()));
                for len in 0..words.len() {
                    assert_decodes_alike(codec, &words[..len], base, &what(format!("cut {len}")));
                }
                // The EF high-bits words follow the header word.
                let high_words = match codec {
                    Codec::EliasFano => 1..1 + EfBlockRef::parse(&words).unwrap().hb_words.len(),
                    _ => 0..0,
                };
                for wi in 0..words.len() {
                    for bit in 0..32 {
                        let mut bad = words.clone();
                        bad[wi] ^= 1 << bit;
                        let how = format!("word {wi} bit {bit}");
                        if high_words.contains(&wi) && bad[wi] & (1 << bit) != 0 {
                            let mut out = Vec::new();
                            let got = codec.decode_block(&bad, base, &mut out);
                            assert_eq!(got, Err(CodecError::BadHeader), "{}", what(how.clone()));
                        }
                        assert_decodes_alike(codec, &bad, base, &what(how));
                    }
                }
            }
        }
    }

    #[test]
    fn block_search_paths_agree_on_result_and_probes() {
        let mut rng = 19u64;
        for n in [0usize, 1, 2, 7, 8, 9, 64, 127, 128] {
            let mut cur = 0u64;
            let hay: Vec<u32> = (0..n)
                .map(|_| {
                    cur += 1 + splitmix(&mut rng) % 9;
                    cur as u32
                })
                .collect();
            let mut targets: Vec<u32> = hay.clone(); // every hit
            targets.extend([0u32, 1, u32::MAX]); // edges
            for _ in 0..40 {
                targets.push(splitmix(&mut rng) as u32 % (cur as u32 + 10).max(10));
            }
            for &t in &targets {
                let mut p_scalar = 0u64;
                let scalar = find_in_sorted_block_with(&hay, t, &mut p_scalar, KernelPath::Scalar);
                if !avx2_available() {
                    continue;
                }
                for off in 0..8 {
                    let hay = padded(&hay, off, u32::MAX);
                    let mut p_simd = 0u64;
                    let simd =
                        find_in_sorted_block_with(&hay[off..], t, &mut p_simd, KernelPath::Avx2);
                    assert_eq!(simd, scalar, "n={n} t={t} offset {off}");
                    assert_eq!(p_simd, p_scalar, "probe parity n={n} t={t} offset {off}");
                }
            }
        }
    }

    #[test]
    fn bound_fold_paths_are_bit_exact() {
        let mut rng = 23u64;
        for block_len in [1usize, 64, 128, 100] {
            // 100: non-power-of-two → SIMD path must fall back internally.
            let nblocks = 50usize;
            let block_ubs: Vec<f32> = (0..nblocks)
                .map(|_| (splitmix(&mut rng) % 1000) as f32 / 64.0)
                .collect();
            for n in [0usize, 1, 8, 9, 100, 1000] {
                let elem_idx: Vec<u32> = (0..n)
                    .map(|_| (splitmix(&mut rng) as usize % (nblocks * block_len)) as u32)
                    .collect();
                for first in [true, false] {
                    let mut expect = vec![0.5f32; n];
                    fold_term_bounds_with(
                        &mut expect,
                        &elem_idx,
                        block_len,
                        &block_ubs,
                        first,
                        KernelPath::Scalar,
                    );
                    if !avx2_available() {
                        continue;
                    }
                    for off in 0..8 {
                        let mut got = padded(&vec![0.5f32; n], off, -1.0);
                        let elem_idx = padded(&elem_idx, off, u32::MAX);
                        fold_term_bounds_with(
                            &mut got[off..],
                            &elem_idx[off..],
                            block_len,
                            &block_ubs,
                            first,
                            KernelPath::Avx2,
                        );
                        let what =
                            format!("block_len={block_len} n={n} first={first} offset {off}");
                        assert_eq!(
                            got[..off],
                            vec![-1.0; off],
                            "{what}: wrote before the start"
                        );
                        assert_eq!(
                            got[off..].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                            expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_mode_controls_dispatch() {
        set_forced(ForceMode::Scalar);
        assert_eq!(active_path(), KernelPath::Scalar);
        set_forced(ForceMode::Auto);
        if avx2_available() {
            assert_eq!(active_path(), KernelPath::Avx2);
        } else {
            assert_eq!(active_path(), KernelPath::Scalar);
        }
    }

    #[test]
    fn dispatch_totals_grow_monotonically() {
        let before: u64 = dispatch_totals().iter().map(|(_, _, n)| n).sum();
        let hay: Vec<u32> = (0..128).map(|i| i * 3).collect();
        let mut probes = 0u64;
        let _ = find_in_sorted_block(&hay, 33, &mut probes);
        let after: u64 = dispatch_totals().iter().map(|(_, _, n)| n).sum();
        assert!(after > before);
        assert_eq!(dispatch_totals().len(), 2 * KERNEL_NAMES.len());
    }
}
