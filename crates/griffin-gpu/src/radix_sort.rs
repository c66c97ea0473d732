//! GPU LSD radix sort — the brute-force ranking baseline of the paper's
//! Fig. 7 study ("sorts all values in the list, and we pick the first K").
//!
//! Classic four-pass (8 bits per digit) least-significant-digit sort with
//! key/payload pairs:
//! per-block shared-memory histograms → device-wide scan of the
//! digit-major histogram → stable per-block scatter. Float scores are
//! pre-mapped to order-preserving u32 keys.

use griffin_gpu_sim::{DeviceBuffer, DeviceError, Gpu, Kernel, LaunchConfig, Scope, ThreadCtx};

use crate::scan::exclusive_scan;

const BLOCK_DIM: u32 = 256;
const RADIX: usize = 256;

/// Order-preserving map from f32 to u32 (IEEE-754 total order).
#[inline]
pub fn float_to_sortable(bits: u32) -> u32 {
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000
    }
}

/// Inverse of [`float_to_sortable`].
#[inline]
pub fn sortable_to_float(key: u32) -> u32 {
    if key & 0x8000_0000 != 0 {
        key ^ 0x8000_0000
    } else {
        !key
    }
}

/// Maps raw f32 bit patterns to sortable keys and copies the payloads
/// (the sort must not mutate the caller's buffers).
struct PrepKernel {
    scores: DeviceBuffer<f32>,
    docids: DeviceBuffer<u32>,
    keys: DeviceBuffer<u32>,
    vals: DeviceBuffer<u32>,
    n: usize,
}

impl Kernel for PrepKernel {
    fn name(&self) -> &'static str {
        "radix_sort.prep"
    }

    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let bits = t.ld(&self.scores.cast::<u32>(), i);
            let d = t.ld(&self.docids, i);
            t.alu(2);
            // Complemented key: ascending sort ⇒ descending score, so the
            // top k land in the prefix and only k pairs cross PCIe back.
            t.st(&self.keys, i, !float_to_sortable(bits));
            t.st(&self.vals, i, d);
        }
    }
}

/// Per-block digit histogram, written digit-major
/// (`hist[digit * num_blocks + block]`) so one scan yields scatter bases.
/// Three phases: zero the shared counters, accumulate, emit.
struct Hist3Kernel {
    keys: DeviceBuffer<u32>,
    hist: DeviceBuffer<u32>,
    n: usize,
    shift: u32,
    num_blocks: usize,
}

impl Kernel for Hist3Kernel {
    fn name(&self) -> &'static str {
        "radix_sort.hist3"
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
                if t.branch(i < self.n) {
                    let key = t.ld(&self.keys, i);
                    let digit = ((key >> self.shift) & 0xFF) as usize;
                    t.alu(2);
                    t.atomic_add_shared(digit, 1);
                }
            }
            _ => {
                if tid < RADIX {
                    let count = t.ld_shared(tid);
                    t.st(
                        &self.hist,
                        tid * self.num_blocks + t.block_idx as usize,
                        count,
                    );
                }
            }
        }
    }
}

/// Stable scatter: threads compute their element's rank among equal digits
/// in the block (shared-memory cursor per digit, lane order = thread order
/// gives stability), then write to `base + rank`.
struct ScatterKeysKernel {
    keys_in: DeviceBuffer<u32>,
    vals_in: DeviceBuffer<u32>,
    keys_out: DeviceBuffer<u32>,
    vals_out: DeviceBuffer<u32>,
    bases: DeviceBuffer<u32>, // scanned digit-major histogram
    n: usize,
    shift: u32,
    num_blocks: usize,
}

impl Kernel for ScatterKeysKernel {
    fn name(&self) -> &'static str {
        "radix_sort.scatter"
    }

    type State = ();

    fn phases(&self) -> usize {
        2
    }

    fn shared_mem_words(&self, _bd: u32) -> usize {
        RADIX
    }

    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let tid = t.thread_idx as usize;
        if phase == 0 {
            if tid < RADIX {
                t.st_shared(tid, 0);
            }
            return;
        }
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let key = t.ld(&self.keys_in, i);
            let val = t.ld(&self.vals_in, i);
            let digit = ((key >> self.shift) & 0xFF) as usize;
            t.alu(2);
            let rank = t.atomic_add_shared(digit, 1);
            let base = t.ld(&self.bases, digit * self.num_blocks + t.block_idx as usize);
            let dst = (base + rank) as usize;
            t.st(&self.keys_out, dst, key);
            t.st(&self.vals_out, dst, val);
        }
    }
}

/// Sorts `(keys, vals)` ascending by key; returns new buffers (inputs are
/// freed).
pub fn sort_pairs(
    gpu: &Gpu,
    keys: DeviceBuffer<u32>,
    vals: DeviceBuffer<u32>,
    n: usize,
) -> Result<(DeviceBuffer<u32>, DeviceBuffer<u32>), DeviceError> {
    if n == 0 {
        return Ok((keys, vals));
    }
    let num_blocks = n.div_ceil(BLOCK_DIM as usize);
    let mut scope = Scope::new(gpu);
    let (mut keys, mut vals) = (scope.adopt(keys), scope.adopt(vals));
    let mut keys_alt = scope.alloc::<u32>(n)?;
    let mut vals_alt = scope.alloc::<u32>(n)?;
    for pass in 0..4u32 {
        let shift = pass * 8;
        let hist = scope.alloc::<u32>(RADIX * num_blocks)?;
        gpu.launch(
            &Hist3Kernel {
                keys: keys.clone(),
                hist: hist.clone(),
                n,
                shift,
                num_blocks,
            },
            LaunchConfig::new(num_blocks as u32, BLOCK_DIM),
        )?;
        let (bases, _total) = exclusive_scan(gpu, &hist, RADIX * num_blocks)?;
        let bases = scope.adopt(bases);
        gpu.launch(
            &ScatterKeysKernel {
                keys_in: keys.clone(),
                vals_in: vals.clone(),
                keys_out: keys_alt.clone(),
                vals_out: vals_alt.clone(),
                bases: bases.clone(),
                n,
                shift,
                num_blocks,
            },
            LaunchConfig::new(num_blocks as u32, BLOCK_DIM),
        )?;
        // Per-pass scratch dies with the pass, not with the sort.
        scope.free(bases);
        scope.free(hist);
        std::mem::swap(&mut keys, &mut keys_alt);
        std::mem::swap(&mut vals, &mut vals_alt);
    }
    Ok((scope.keep(keys), scope.keep(vals)))
}

/// Fig. 7's "GPU radix sort" ranker: sorts the full result list by score
/// and returns the top `k` (docid, score) pairs, best first.
pub fn top_k_by_sort(
    gpu: &Gpu,
    docids: &DeviceBuffer<u32>,
    scores: &DeviceBuffer<f32>,
    n: usize,
    k: usize,
) -> Result<Vec<(u32, f32)>, DeviceError> {
    if n == 0 || k == 0 {
        return Ok(Vec::new());
    }
    let mut scope = Scope::new(gpu);
    let keys = scope.alloc::<u32>(n)?;
    let vals = scope.alloc::<u32>(n)?;
    gpu.launch(
        &PrepKernel {
            scores: scores.clone(),
            docids: docids.clone(),
            keys: keys.clone(),
            vals: vals.clone(),
            n,
        },
        LaunchConfig::cover(n, BLOCK_DIM),
    )?;
    // The sort takes its inputs over and hands back two others.
    let (keys, vals) = sort_pairs(gpu, scope.keep(keys), scope.keep(vals), n)?;
    let (keys, vals) = (scope.adopt(keys), scope.adopt(vals));
    // Only the winning prefix crosses PCIe back.
    let k = k.min(n);
    let (keys_host, vals_host) = gpu.dtoh_packed_prefix(&keys, &vals, k)?;
    Ok(keys_host
        .into_iter()
        .zip(vals_host)
        .map(|(key, docid)| (docid, f32::from_bits(sortable_to_float(!key))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::DeviceConfig;

    #[test]
    fn sortable_mapping_preserves_order() {
        let vals = [-1000.0f32, -1.5, -0.0, 0.0, 0.25, 3.0, 1e30];
        let keys: Vec<u32> = vals
            .iter()
            .map(|v| float_to_sortable(v.to_bits()))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for (&v, &k) in vals.iter().zip(&keys) {
            let back = f32::from_bits(sortable_to_float(k));
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn sorts_random_keys() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut state = 3u64;
        let keys_host: Vec<u32> = (0..5000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 32) as u32
            })
            .collect();
        let vals_host: Vec<u32> = (0..5000).collect();
        let keys = gpu.htod(&keys_host).unwrap();
        let vals = gpu.htod(&vals_host).unwrap();
        let (sk, sv) = sort_pairs(&gpu, keys, vals, 5000).unwrap();
        let got_keys = gpu.dtoh(&sk).unwrap();
        let got_vals = gpu.dtoh(&sv).unwrap();
        let mut expect = keys_host.clone();
        expect.sort_unstable();
        assert_eq!(got_keys, expect);
        // Payloads must follow their keys.
        for (k, v) in got_keys.iter().zip(&got_vals) {
            assert_eq!(keys_host[*v as usize], *k);
        }
    }

    #[test]
    fn top_k_matches_host_ranking() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let n = 3000;
        let docids_host: Vec<u32> = (0..n as u32).collect();
        let scores_host: Vec<f32> = (0..n).map(|i| ((i * 37) % 501) as f32 * 0.25).collect();
        let docids = gpu.htod(&docids_host).unwrap();
        let scores = gpu.htod(&scores_host).unwrap();
        let top = top_k_by_sort(&gpu, &docids, &scores, n, 10).unwrap();
        assert_eq!(top.len(), 10);
        let mut expect: Vec<(u32, f32)> = docids_host
            .iter()
            .copied()
            .zip(scores_host.iter().copied())
            .collect();
        expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for i in 0..10 {
            assert_eq!(top[i].1, expect[i].1, "score rank {i}");
        }
    }

    #[test]
    fn sort_empty() {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let keys = gpu.alloc::<u32>(0).unwrap();
        let vals = gpu.alloc::<u32>(0).unwrap();
        let (k, v) = sort_pairs(&gpu, keys, vals, 0).unwrap();
        assert_eq!(k.len(), 0);
        assert_eq!(v.len(), 0);
    }
}
