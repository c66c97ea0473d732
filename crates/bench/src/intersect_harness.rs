//! Shared pairwise-intersection timing harness for the Fig. 8 and Fig. 13
//! experiments.
//!
//! A pair is (short list, long list). The short side plays the role of the
//! query's intermediate result (decompressed, host-resident at the start);
//! the long side is a compressed posting list — PforDelta for the CPU
//! engine, Elias–Fano for Griffin-GPU, matching what each system stores.

use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
use griffin_cpu::decode::decode_list;
use griffin_cpu::intersect::{binary_intersect_decoded, merge_intersect, skip_intersect};
use griffin_cpu::{CpuCostModel, WorkCounters};
use griffin_gpu::mergepath::MergePathConfig;
use griffin_gpu::transfer::DeviceEfList;
use griffin_gpu::{gpu_binary, mergepath, para_ef};
use griffin_gpu_sim::{Gpu, VirtualNanos};

/// Which algorithm to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    CpuMerge,
    CpuBinary,
    CpuSkip,
    /// The CPU engine's production rule: merge below ratio 16, skip above.
    CpuAuto,
    GpuMerge,
    /// Griffin-GPU's skip-pointer binary search with selective block
    /// decompression (its high-ratio strategy).
    GpuBinary,
    /// The prior-work baseline: binary search over the fully decompressed
    /// long list (Fig. 13's "GPU binary" series).
    GpuFullBinary,
    /// Griffin-GPU's production rule: MergePath below ratio 128,
    /// parallel binary search above.
    GpuAuto,
    /// Pure-kernel variants: inputs already decompressed and resident
    /// (host memory for CPU, device memory for GPU). These isolate the
    /// intersection *algorithm* costs — the regime of the paper's Fig. 13
    /// microbenchmark (where GPU merge reaches 87× over CPU merge, which
    /// is impossible if every run re-pays transfer + decompression).
    CpuMergeResident,
    CpuBinaryResident,
    GpuMergeResident,
    GpuBinaryResident,
}

/// A compressed pair ready for timing.
pub struct Pair {
    pub short: Vec<u32>,
    pub long_pfor: BlockedList,
    pub long_ef: BlockedList,
    pub expected: usize,
}

impl Pair {
    pub fn new(short: Vec<u32>, long: &[u32]) -> Pair {
        let expected = short
            .iter()
            .filter(|v| long.binary_search(v).is_ok())
            .count();
        Pair {
            short,
            long_pfor: BlockedList::compress(long, Codec::PforDelta, DEFAULT_BLOCK_LEN),
            long_ef: BlockedList::compress(long, Codec::EliasFano, DEFAULT_BLOCK_LEN),
            expected,
        }
    }

    pub fn ratio(&self) -> f64 {
        self.long_pfor.len() as f64 / self.short.len().max(1) as f64
    }
}

/// Times one algorithm on one pair; panics if the result size is wrong
/// (every timing is also a correctness check).
pub fn time_algo(gpu: &Gpu, model: &CpuCostModel, pair: &Pair, algo: Algo) -> VirtualNanos {
    match algo {
        Algo::CpuMerge => {
            let mut w = WorkCounters::default();
            let long = decode_list(&pair.long_pfor, &mut w);
            let m = merge_intersect(&pair.short, &long, &mut w);
            assert_eq!(m.len(), pair.expected);
            model.time(&w)
        }
        Algo::CpuBinary => {
            let mut w = WorkCounters::default();
            let long = decode_list(&pair.long_pfor, &mut w);
            let m = binary_intersect_decoded(&pair.short, &long, &mut w);
            assert_eq!(m.len(), pair.expected);
            model.time(&w)
        }
        Algo::CpuSkip => {
            let mut w = WorkCounters::default();
            let m = skip_intersect(
                &pair.short,
                &pair.long_pfor,
                0..pair.long_pfor.num_blocks(),
                None,
                &mut w,
            );
            assert_eq!(m.len(), pair.expected);
            model.time(&w)
        }
        Algo::CpuAuto => {
            let algo = if pair.ratio() >= 16.0 {
                Algo::CpuSkip
            } else {
                Algo::CpuMerge
            };
            time_algo(gpu, model, pair, algo)
        }
        Algo::GpuMerge => {
            let ((), t) = gpu.time(|g| {
                let d_short = g.htod(&pair.short).expect("device op");
                let d_long = DeviceEfList::upload(g, &pair.long_ef).expect("device op");
                let long_ids = para_ef::decompress(g, &d_long).expect("device op");
                let cfg = MergePathConfig::for_device(g.config());
                let m = mergepath::intersect(
                    g,
                    &d_short,
                    pair.short.len(),
                    &long_ids,
                    d_long.len,
                    &cfg,
                )
                .expect("device op");
                assert_eq!(m.len, pair.expected);
                m.free(g);
                g.free(long_ids);
                d_long.free(g);
                g.free(d_short);
            });
            t
        }
        Algo::GpuBinary => {
            let ((), t) = gpu.time(|g| {
                let d_short = g.htod(&pair.short).expect("device op");
                let d_long = DeviceEfList::upload(g, &pair.long_ef).expect("device op");
                let out = gpu_binary::intersect(
                    g,
                    &d_short,
                    pair.short.len(),
                    &d_long,
                    DEFAULT_BLOCK_LEN,
                )
                .expect("device op");
                assert_eq!(out.matches.len, pair.expected);
                out.matches.free(g);
                d_long.free(g);
                g.free(d_short);
            });
            t
        }
        Algo::GpuFullBinary => {
            let ((), t) = gpu.time(|g| {
                let d_short = g.htod(&pair.short).expect("device op");
                let d_long = DeviceEfList::upload(g, &pair.long_ef).expect("device op");
                let long_ids = para_ef::decompress(g, &d_long).expect("device op");
                let m = gpu_binary::intersect_decompressed(
                    g,
                    &d_short,
                    pair.short.len(),
                    &long_ids,
                    d_long.len,
                )
                .expect("device op");
                assert_eq!(m.len, pair.expected);
                m.free(g);
                g.free(long_ids);
                d_long.free(g);
                g.free(d_short);
            });
            t
        }
        Algo::GpuAuto => {
            let algo = if pair.ratio() >= 128.0 {
                Algo::GpuBinary
            } else {
                Algo::GpuMerge
            };
            time_algo(gpu, model, pair, algo)
        }
        Algo::CpuMergeResident => {
            let mut w0 = WorkCounters::default();
            let long = decode_list(&pair.long_pfor, &mut w0); // not charged
            let mut w = WorkCounters::default();
            let m = merge_intersect(&pair.short, &long, &mut w);
            assert_eq!(m.len(), pair.expected);
            model.time(&w)
        }
        Algo::CpuBinaryResident => {
            let mut w0 = WorkCounters::default();
            let long = decode_list(&pair.long_pfor, &mut w0); // not charged
            let mut w = WorkCounters::default();
            let m = binary_intersect_decoded(&pair.short, &long, &mut w);
            assert_eq!(m.len(), pair.expected);
            model.time(&w)
        }
        Algo::GpuMergeResident => {
            // Stage inputs outside the timed span.
            let d_short = gpu.htod(&pair.short).expect("device op");
            let d_long_c = DeviceEfList::upload(gpu, &pair.long_ef).expect("device op");
            let long_ids = para_ef::decompress(gpu, &d_long_c).expect("device op");
            let n = d_long_c.len;
            let ((), t) = gpu.time(|g| {
                let cfg = MergePathConfig::for_device(g.config());
                let m = mergepath::intersect(g, &d_short, pair.short.len(), &long_ids, n, &cfg)
                    .expect("device op");
                assert_eq!(m.len, pair.expected);
                m.free(g);
            });
            gpu.free(long_ids);
            d_long_c.free(gpu);
            gpu.free(d_short);
            t
        }
        Algo::GpuBinaryResident => {
            let d_short = gpu.htod(&pair.short).expect("device op");
            let d_long_c = DeviceEfList::upload(gpu, &pair.long_ef).expect("device op");
            let long_ids = para_ef::decompress(gpu, &d_long_c).expect("device op");
            let n = d_long_c.len;
            let ((), t) = gpu.time(|g| {
                let m =
                    gpu_binary::intersect_decompressed(g, &d_short, pair.short.len(), &long_ids, n)
                        .expect("device op");
                assert_eq!(m.len, pair.expected);
                m.free(g);
            });
            gpu.free(long_ids);
            d_long_c.free(gpu);
            gpu.free(d_short);
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_gpu_sim::DeviceConfig;

    #[test]
    fn all_algorithms_agree_and_charge_time() {
        let short: Vec<u32> = (0..200u32).map(|i| i * 37).collect();
        let long: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let pair = Pair::new(short, &long);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let model = CpuCostModel::default();
        for algo in [
            Algo::CpuMerge,
            Algo::CpuBinary,
            Algo::CpuSkip,
            Algo::CpuAuto,
            Algo::GpuMerge,
            Algo::GpuBinary,
            Algo::GpuFullBinary,
            Algo::GpuAuto,
        ] {
            let t = time_algo(&gpu, &model, &pair, algo);
            assert!(t.as_nanos() > 0, "{algo:?} must cost time");
        }
        assert_eq!(gpu.mem_in_use(), 0, "harness must not leak device memory");
    }
}
