//! GPU bucketSelect — the parallel k-selection algorithm of the paper's
//! Fig. 7 ranking study (after Alabi et al., "Fast K-selection algorithms
//! for graphics processing units").
//!
//! MSD-radix–style refinement: histogram the candidate keys by their
//! current byte (per-block shared-memory histograms, device reduction),
//! read the 256 counts back, identify the bucket containing the k-th
//! largest, compact that bucket's candidates, and recurse one byte deeper.
//! After (at most) four levels the k-th value is pinned exactly; a final
//! flag-scan-scatter selects everything above it plus enough ties.
//!
//! The many small kernel launches, reductions, and 1-KB read-backs are the
//! point: for the few-thousand-element result lists real queries produce,
//! this machinery cannot amortize, which is why the paper's Fig. 7 crowns
//! CPU `partial_sort`.

use griffin_gpu_sim::{DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, Scope, ThreadCtx};

use crate::radix_sort::{float_to_sortable, sortable_to_float};
use crate::scan::exclusive_scan;

const BLOCK_DIM: u32 = 256;
const RADIX: usize = 256;

/// Maps scores to sortable keys and seeds the candidate index set.
struct SeedKernel {
    scores: DeviceBuffer<f32>,
    keys: DeviceBuffer<u32>,
    cand: DeviceBuffer<u32>,
    n: usize,
}

impl Kernel for SeedKernel {
    fn name(&self) -> &'static str {
        "bucket_select.seed"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let bits = t.ld(&self.scores.cast::<u32>(), i);
            t.alu(2);
            t.st(&self.keys, i, float_to_sortable(bits));
            t.st(&self.cand, i, i as u32);
        }
    }
}

/// Histograms the candidates' keys by the byte at `shift`, restricted to
/// candidates whose higher bytes match `prefix`.
struct BucketHistKernel {
    keys: DeviceBuffer<u32>,
    cand: DeviceBuffer<u32>,
    hist: DeviceBuffer<u32>, // digit-major: [digit * num_blocks + block]
    n_cand: usize,
    shift: u32,
    num_blocks: usize,
}

impl Kernel for BucketHistKernel {
    fn name(&self) -> &'static str {
        "bucket_select.hist"
    }

    type State = ();

    fn phases(&self) -> usize {
        3
    }

    fn shared_mem_words(&self, _bd: u32) -> usize {
        RADIX
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let tid = t.thread_idx as usize;
        match phase {
            0 => {
                if tid < RADIX {
                    t.st_shared(tid, 0);
                }
            }
            1 => {
                let i = t.global_thread_idx();
                if t.branch(i < self.n_cand) {
                    let idx = t.ld(&self.cand, i) as usize;
                    let key = t.ld(&self.keys, idx);
                    let digit = ((key >> self.shift) & 0xFF) as usize;
                    t.alu(2);
                    t.atomic_add_shared(digit, 1);
                }
            }
            _ => {
                if tid < RADIX {
                    let c = t.ld_shared(tid);
                    t.st(&self.hist, tid * self.num_blocks + t.block_idx as usize, c);
                }
            }
        }
    }
}

/// Sums each digit's per-block counts: one thread per digit.
struct HistReduceKernel {
    hist: DeviceBuffer<u32>,
    totals: DeviceBuffer<u32>,
    num_blocks: usize,
}

impl Kernel for HistReduceKernel {
    fn name(&self) -> &'static str {
        "bucket_select.hist_reduce"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let d = t.global_thread_idx();
        if !t.branch(d < RADIX) {
            return;
        }
        let mut sum = 0u32;
        let mut b = 0usize;
        while t.branch(b < self.num_blocks) {
            sum += t.ld(&self.hist, d * self.num_blocks + b);
            t.alu(1);
            b += 1;
        }
        t.st(&self.totals, d, sum);
    }
}

/// Flags candidates whose byte at `shift` equals `digit` (the surviving
/// bucket).
struct BucketFlagKernel {
    keys: DeviceBuffer<u32>,
    cand: DeviceBuffer<u32>,
    flags: DeviceBuffer<u32>,
    n_cand: usize,
    shift: u32,
    digit: u32,
}

impl Kernel for BucketFlagKernel {
    fn name(&self) -> &'static str {
        "bucket_select.flag"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n_cand) {
            let idx = t.ld(&self.cand, i) as usize;
            let key = t.ld(&self.keys, idx);
            let hit = ((key >> self.shift) & 0xFF) == self.digit;
            t.alu(2);
            t.st(&self.flags, i, u32::from(hit));
        }
    }
}

/// Scatters flagged candidates into the next candidate set.
struct BucketCompactKernel {
    cand_in: DeviceBuffer<u32>,
    flags: DeviceBuffer<u32>,
    offsets: DeviceBuffer<u32>,
    cand_out: DeviceBuffer<u32>,
    n_cand: usize,
}

impl Kernel for BucketCompactKernel {
    fn name(&self) -> &'static str {
        "bucket_select.compact"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n_cand) {
            let flagged = t.ld(&self.flags, i) == 1;
            if t.branch(flagged) {
                let dst = t.ld(&self.offsets, i) as usize;
                let v = t.ld(&self.cand_in, i);
                t.st(&self.cand_out, dst, v);
            }
        }
    }
}

/// Flags elements with `key > threshold` (strict winners) or
/// `key == threshold` (ties), by mode.
struct SelectFlagKernel {
    keys: DeviceBuffer<u32>,
    flags: DeviceBuffer<u32>,
    n: usize,
    threshold: u32,
    equal_mode: bool,
}

impl Kernel for SelectFlagKernel {
    fn name(&self) -> &'static str {
        "bucket_select.select_flag"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let key = t.ld(&self.keys, i);
            let hit = if self.equal_mode {
                key == self.threshold
            } else {
                key > self.threshold
            };
            t.alu(1);
            t.st(&self.flags, i, u32::from(hit));
        }
    }
}

/// Gathers flagged (docid, key) pairs; `limit` bounds tie over-selection.
struct SelectGatherKernel {
    docids: DeviceBuffer<u32>,
    keys: DeviceBuffer<u32>,
    flags: DeviceBuffer<u32>,
    offsets: DeviceBuffer<u32>,
    out_docid: DeviceBuffer<u32>,
    out_key: DeviceBuffer<u32>,
    n: usize,
    base: usize,
    limit: usize,
}

impl Kernel for SelectGatherKernel {
    fn name(&self) -> &'static str {
        "bucket_select.select_gather"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let flagged = t.ld(&self.flags, i) == 1;
            if t.branch(flagged) {
                let slot = t.ld(&self.offsets, i) as usize;
                if t.branch(slot < self.limit) {
                    let d = t.ld(&self.docids, i);
                    let key = t.ld(&self.keys, i);
                    t.st(&self.out_docid, self.base + slot, d);
                    t.st(&self.out_key, self.base + slot, key);
                }
            }
        }
    }
}

/// Fig. 7's "GPU bucket select" ranker: returns the `k` highest-scoring
/// (docid, score) pairs, best first.
pub fn top_k_by_bucket_select(
    gpu: &Gpu,
    docids: &DeviceBuffer<u32>,
    scores: &DeviceBuffer<f32>,
    n: usize,
    k: usize,
) -> Result<Vec<(u32, f32)>, DeviceError> {
    if n == 0 || k == 0 {
        return Ok(Vec::new());
    }
    let k = k.min(n);
    // Every allocation lives until the function returns, on the success
    // path and on a device fault alike.
    let mut scope = Scope::new(gpu);
    let keys = scope.alloc::<u32>(n)?;
    let mut cand = scope.alloc::<u32>(n)?;
    gpu.launch(
        &SeedKernel {
            scores: scores.clone(),
            keys: keys.clone(),
            cand: cand.clone(),
            n,
        },
        LaunchConfig::cover(n, BLOCK_DIM),
    )?;

    // Locate the k-th largest key, byte by byte (MSD first).
    let mut n_cand = n;
    let mut remaining_k = k; // rank of the target within the candidates
    let mut kth_key = 0u32;
    for level in 0..4u32 {
        let shift = 8 * (3 - level);
        let num_blocks = n_cand.div_ceil(BLOCK_DIM as usize);
        let hist = scope.alloc::<u32>(RADIX * num_blocks)?;
        gpu.launch(
            &BucketHistKernel {
                keys: keys.clone(),
                cand: cand.clone(),
                hist: hist.clone(),
                n_cand,
                shift,
                num_blocks,
            },
            LaunchConfig::new(num_blocks as u32, BLOCK_DIM),
        )?;
        let totals = scope.alloc::<u32>(RADIX)?;
        gpu.launch(
            &HistReduceKernel {
                hist: hist.clone(),
                totals: totals.clone(),
                num_blocks,
            },
            LaunchConfig::cover(RADIX, BLOCK_DIM),
        )?;
        // The 1-KB read-back that steers the recursion.
        let counts = gpu.dtoh(&totals)?;

        let mut digit = RADIX - 1;
        loop {
            let c = counts[digit] as usize;
            if c >= remaining_k {
                break;
            }
            remaining_k -= c;
            assert!(digit > 0, "rank exhausted the histogram");
            digit -= 1;
        }
        kth_key |= (digit as u32) << shift;
        let bucket_size = counts[digit] as usize;

        if level == 3 || bucket_size <= 1 {
            break;
        }

        // Compact the surviving bucket into the next candidate set.
        let flags = scope.alloc::<u32>(n_cand)?;
        gpu.launch(
            &BucketFlagKernel {
                keys: keys.clone(),
                cand: cand.clone(),
                flags: flags.clone(),
                n_cand,
                shift,
                digit: digit as u32,
            },
            LaunchConfig::cover(n_cand, BLOCK_DIM),
        )?;
        let (offsets, total) = exclusive_scan(gpu, &flags, n_cand)?;
        let offsets = scope.adopt(offsets);
        debug_assert_eq!(total as usize, bucket_size);
        let cand_next = scope.alloc::<u32>(bucket_size)?;
        gpu.launch(
            &BucketCompactKernel {
                cand_in: cand.clone(),
                flags: flags.clone(),
                offsets: offsets.clone(),
                cand_out: cand_next.clone(),
                n_cand,
            },
            LaunchConfig::cover(n_cand, BLOCK_DIM),
        )?;
        cand = cand_next;
        n_cand = bucket_size;
    }

    // Select: strict winners first, then enough ties at the threshold.
    let out_docid = scope.alloc::<u32>(k)?;
    let out_key = scope.alloc::<u32>(k)?;
    let flags = scope.alloc::<u32>(n)?;
    gpu.launch(
        &SelectFlagKernel {
            keys: keys.clone(),
            flags: flags.clone(),
            n,
            threshold: kth_key,
            equal_mode: false,
        },
        LaunchConfig::cover(n, BLOCK_DIM),
    )?;
    let (offsets, winners) = exclusive_scan(gpu, &flags, n)?;
    let offsets = scope.adopt(offsets);
    let winners = winners as usize;
    // With a full 4-level descent the threshold is exactly the k-th
    // key, so winners <= k-1; an early break (singleton bucket) zeroes
    // the low bytes, which can pull the k-th element itself above the
    // threshold.
    debug_assert!(
        winners <= k,
        "strict winners ({winners}) must be <= k ({k})"
    );
    if winners > 0 {
        gpu.launch(
            &SelectGatherKernel {
                docids: docids.clone(),
                keys: keys.clone(),
                flags: flags.clone(),
                offsets: offsets.clone(),
                out_docid: out_docid.clone(),
                out_key: out_key.clone(),
                n,
                base: 0,
                limit: winners,
            },
            LaunchConfig::cover(n, BLOCK_DIM),
        )?;
    }
    // Ties at the threshold fill the remaining slots.
    if winners < k {
        gpu.launch(
            &SelectFlagKernel {
                keys: keys.clone(),
                flags: flags.clone(),
                n,
                threshold: kth_key,
                equal_mode: true,
            },
            LaunchConfig::cover(n, BLOCK_DIM),
        )?;
        let (offsets, _ties) = exclusive_scan(gpu, &flags, n)?;
        let offsets = scope.adopt(offsets);
        gpu.launch(
            &SelectGatherKernel {
                docids: docids.clone(),
                keys: keys.clone(),
                flags: flags.clone(),
                offsets: offsets.clone(),
                out_docid: out_docid.clone(),
                out_key: out_key.clone(),
                n,
                base: winners,
                limit: k - winners,
            },
            LaunchConfig::cover(n, BLOCK_DIM),
        )?;
    }

    let (docid_host, key_host) = gpu.dtoh_packed_prefix(&out_docid, &out_key, k)?;
    let mut out: Vec<(u32, f32)> = docid_host
        .into_iter()
        .zip(key_host)
        .map(|(d, key)| (d, f32::from_bits(sortable_to_float(key))))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::DeviceConfig;

    fn check(scores_host: Vec<f32>, k: usize) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let n = scores_host.len();
        let docids_host: Vec<u32> = (0..n as u32).collect();
        let docids = gpu.htod(&docids_host).unwrap();
        let scores = gpu.htod(&scores_host).unwrap();
        let got = top_k_by_bucket_select(&gpu, &docids, &scores, n, k).unwrap();
        let mut expect: Vec<f32> = scores_host.clone();
        expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(k.min(n));
        let got_scores: Vec<f32> = got.iter().map(|&(_, s)| s).collect();
        assert_eq!(got_scores, expect);
        // Every returned docid carries its own score.
        for &(d, s) in &got {
            assert_eq!(scores_host[d as usize], s);
        }
    }

    #[test]
    fn distinct_scores() {
        check((0..2000).map(|i| (i as f32) * 0.5 + 1.0).collect(), 10);
    }

    #[test]
    fn heavy_ties() {
        check((0..3000).map(|i| (i % 5) as f32).collect(), 25);
    }

    #[test]
    fn k_equals_n() {
        check((0..100).map(|i| i as f32).collect(), 100);
    }

    #[test]
    fn pseudo_random_scores() {
        let mut state = 11u64;
        let scores: Vec<f32> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32) / 1000.0
            })
            .collect();
        check(scores, 10);
    }

    #[test]
    fn empty_and_zero_k() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let docids = gpu.alloc::<u32>(0).unwrap();
        let scores = gpu.alloc::<f32>(0).unwrap();
        assert!(top_k_by_bucket_select(&gpu, &docids, &scores, 0, 10)
            .unwrap()
            .is_empty());
        let d2 = gpu.htod(&[1u32]).unwrap();
        let s2 = gpu.htod(&[1.0f32]).unwrap();
        assert!(top_k_by_bucket_select(&gpu, &d2, &s2, 1, 0)
            .unwrap()
            .is_empty());
    }
}
