//! Analytic GPU-step cost model for the hybrid planner.
//!
//! The scheduler's ratio rule (paper §3.2) picks the *processor* for a
//! pairwise intersection; the `min_gpu_work` floor keeps tiny operations
//! off the device because launch, allocation, and PCIe overheads occur
//! once per operation and need enough work to amortize. How much work is
//! "enough" depends on whether those PCIe transfers are *serialized*
//! with compute or *pipelined* behind it (see [`griffin_gpu_sim::stream`]):
//! with copy/compute overlap the next list ships while the previous step's
//! kernels run, so the per-step cost drops from `fixed + transfer +
//! compute` to `fixed + max(transfer, compute)` and the profitable-work
//! crossover moves down.
//!
//! [`CostModel`] captures both estimates from a [`DeviceConfig`] and
//! prices a step the way that device runs it: pipelined when it has a
//! copy engine ([`DeviceConfig::copy_engines`] ≥ 1), serial otherwise. A
//! scheduler holds one ([`crate::Scheduler::model`], built by
//! [`crate::Scheduler::for_device`]) and every model-based rule reads
//! that one: the floor is its smallest profitable long-list length, the
//! split solver balances co-executed lanes with it, and the residency
//! override prices cached lists with it. The model is deliberately
//! coarse — a handful of calibrated constants, not a re-simulation —
//! because the planner only needs the crossover's order of magnitude.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use griffin_gpu_sim::{DeviceConfig, DeviceEvent, Gpu};

/// Approximate bytes shipped over PCIe per long-list element: Elias-Fano
/// docids (~1.3 B/elem at realistic densities) plus packed term
/// frequencies and block metadata.
const BYTES_PER_ELEM: f64 = 2.5;

/// Device-memory traffic per long-list element across the step's passes
/// (decompress + decode + merge + score), used for the bandwidth-bound
/// compute estimate.
const DEVICE_TRAFFIC_BYTES_PER_ELEM: f64 = 24.0;

/// Kernel launches charged per intersection step. Counted when the
/// decompress was four kernels, a list-wide scan and a separate tf
/// decoder; it is one launch now, and a real MergePath step makes 8
/// (the decode, merge-path partition/merge/compact, the compaction's
/// two-level scan, the score accumulator). The value is held — it feeds
/// `min_gpu_work` and the split solver, and placement moves in its own
/// change — so it over-states launches by 5;
/// `crates/core/tests/model_drift.rs` pins both numbers.
const LAUNCHES_PER_STEP: u64 = 13;

/// Device allocations charged per intersection step (decoded docids/tfs,
/// partition diagonals, match buffers, the compacted result and its
/// scores), each at the `cudaMalloc` price. A real step asks for 18,
/// uploads included, but 16 of them are scratch, which a device that has
/// run a step before serves from its allocator's free lists at 0.5 us
/// each: a warm step makes 2 `cudaMalloc`s and this over-states them by
/// 8 (a cold step makes 17 and this under-states; same test). Held, as
/// above.
const MALLOCS_PER_STEP: u64 = 10;

/// PCIe transactions per step: the range upload (docids + tf side file +
/// block metadata ship as separate buffers) plus the result download
/// (matched docids, scores, and the length word). Each pays the link's
/// fixed latency even when pipelining hides the bandwidth term. A real
/// step makes 4: two packed uploads, the match count, and the result's
/// docids and scores in one packed read-back. Held, as above.
const TRANSFERS_PER_STEP: u64 = 7;

/// Dependent global-memory accesses on the tf side-file decoder's
/// critical path, as it was when one thread per 128-element compression
/// block walked the varint bytes: ~4 serially dependent global accesses
/// per varint pinned the kernel at `128 x 4` un-hideable memory latencies
/// *no matter how many blocks decoded in parallel* — a per-step floor,
/// not a per-element slope. The block-local decoder stages the bytes in
/// shared memory and has no such chain, so this now over-states every
/// device step by the whole floor (363 us on the K20 profile, more than
/// the 321 us a whole warm 120 000-posting step takes); held for the same
/// reason as `LAUNCHES_PER_STEP`.
const SERIAL_DECODE_GMEM_ACCESSES: f64 = 512.0;

/// Fraction of the host's per-probe skip cost that a host-cached decoded
/// list removes. A skip probe is roughly half navigation (gallop over the
/// skip array + in-block binary search) and half candidate-block decode;
/// with the decoded list resident in the host cache the decode half
/// vanishes (see `griffin_cpu::intersect::skip_intersect`, which reads
/// candidate blocks from that copy instead of decoding them).
const CACHED_SKIP_DISCOUNT: f64 = 0.5;

/// Issue/latency-bound device cycles per long-list element across the
/// decompress + merge passes. The kernels are not bandwidth-bound at
/// these list sizes (calibrated against the simulator: ~0.5 ns/elem on
/// the 706 MHz K20, i.e. ~0.35 cycles once the serial floor is peeled
/// off), so the compute estimate takes the max of this and the
/// bandwidth bound. Fitted to the kernels before Para-EF became one
/// block-local launch (0.14 ns/elem measured since); held with the rest.
const DEVICE_CYCLES_PER_ELEM: f64 = 0.35;

/// What a stretch of device work did, counted from outside the engine —
/// the measured twin of `LAUNCHES_PER_STEP`, `MALLOCS_PER_STEP` and
/// `TRANSFERS_PER_STEP`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStepCounts {
    pub launches: u64,
    /// Driver allocations (`cudaMalloc`): uploads and allocator misses.
    pub mallocs: u64,
    /// Scratch allocations the device's caching allocator served from a
    /// free list, with no driver call.
    pub pool_hits: u64,
    /// Driver frees (`cudaFree`): upload-born buffers and trimmed blocks.
    pub frees: u64,
    pub transfers: u64,
}

impl DeviceStepCounts {
    /// Counts what `f` makes `gpu` do. Takes over the device's observer
    /// for the duration, so use a device no telemetry is attached to.
    pub fn of<R>(gpu: &Gpu, f: impl FnOnce() -> R) -> (R, DeviceStepCounts) {
        let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let counters = Arc::clone(&seen);
        gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
            let transfer = matches!(e, DeviceEvent::Transfer { .. });
            counters[usize::from(transfer)].fetch_add(1, Ordering::Relaxed);
        })));
        let before = gpu.stats();
        let out = f();
        let after = gpu.stats();
        gpu.set_observer(None);
        let counts = DeviceStepCounts {
            launches: seen[0].load(Ordering::Relaxed),
            mallocs: after.allocs - before.allocs,
            pool_hits: after.pool.hits - before.pool.hits,
            frees: after.frees - before.frees,
            transfers: seen[1].load(Ordering::Relaxed),
        };
        (out, counts)
    }

    /// The fixed overhead these operations cost on `cfg`, as
    /// [`CostModel::fixed_ns`] prices it: every launch and allocation
    /// (a pool hit at its bookkeeping cost), and each transfer's link
    /// latency beyond the one [`CostModel::transfer_ns`] carries. (Frees
    /// are counted but, like the hand-set model, not priced.)
    pub fn fixed_ns(&self, cfg: &DeviceConfig) -> f64 {
        (self.launches * cfg.kernel_launch_overhead_ns
            + self.mallocs * cfg.malloc_overhead_ns
            + self.pool_hits * cfg.pool_hit_overhead_ns
            + self.transfers.saturating_sub(1) * cfg.pcie.latency_ns) as f64
    }
}

/// Per-step cost estimates for one GPU pairwise intersection, serial and
/// pipelined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-step overhead (launches + allocations + the extra
    /// per-transfer link latencies beyond the one priced into
    /// [`CostModel::transfer_ns`]), ns.
    pub fixed_ns: f64,
    /// Serially dependent decode latency per step, ns — the former tf
    /// side-file decoder's critical path (see
    /// `SERIAL_DECODE_GMEM_ACCESSES`). A floor on every
    /// full-decompression device step, independent of list length.
    pub serial_decode_ns: f64,
    /// Fixed per-transfer PCIe latency, ns.
    pub pcie_latency_ns: f64,
    /// PCIe transfer cost per long-list element, ns.
    pub pcie_ns_per_elem: f64,
    /// Device compute per long-list element, ns: the max of the
    /// bandwidth bound and the issue/latency bound
    /// (`DEVICE_CYCLES_PER_ELEM`).
    pub gpu_ns_per_elem: f64,
    /// Host cost per long-list element for a *merge* intersection
    /// (decode the whole list, linear merge): ~30 cycles/element at the
    /// paper CPU's 2.5 GHz. Override with
    /// [`CostModel::with_cpu_ns_per_elem`] if measurements disagree.
    pub cpu_ns_per_elem: f64,
    /// The decode share of `cpu_ns_per_elem` — what a host-cached
    /// (already-decoded) list saves per element in the merge regime.
    /// The hand-set default is a third of the merge-regime total.
    pub cpu_decode_ns_per_elem: f64,
    /// Host cost per *short-list* element for a skip-pointer
    /// intersection (gallop over skips + one in-block binary search per
    /// probe): ~250 cycles at 2.5 GHz. The skip strategy's cost scales
    /// with the short list, which is what makes the CPU competitive at
    /// high length ratios.
    pub cpu_skip_ns_per_probe: f64,
    /// Whether transfers pipeline behind the previous step's compute:
    /// the device has a copy engine.
    pub overlap: bool,
}

impl CostModel {
    /// Derives the model from a device configuration, pipelined on a
    /// device with a copy engine and serial on one without.
    pub fn from_device(cfg: &DeviceConfig) -> CostModel {
        let ns_per_cycle = cfg.ns_per_cycle();
        CostModel {
            fixed_ns: DeviceStepCounts {
                launches: LAUNCHES_PER_STEP,
                mallocs: MALLOCS_PER_STEP,
                pool_hits: 0,
                frees: 0,
                transfers: TRANSFERS_PER_STEP,
            }
            .fixed_ns(cfg),
            serial_decode_ns: SERIAL_DECODE_GMEM_ACCESSES
                * cfg.costs.gmem_latency_cycles
                * ns_per_cycle,
            pcie_latency_ns: cfg.pcie.latency_ns as f64,
            pcie_ns_per_elem: BYTES_PER_ELEM / cfg.pcie.bandwidth_bytes_per_sec * 1.0e9,
            gpu_ns_per_elem: (DEVICE_TRAFFIC_BYTES_PER_ELEM / cfg.global_bandwidth_bytes_per_sec
                * 1.0e9)
                .max(DEVICE_CYCLES_PER_ELEM * ns_per_cycle),
            cpu_ns_per_elem: 12.0,
            cpu_decode_ns_per_elem: 4.0,
            cpu_skip_ns_per_probe: 100.0,
            overlap: cfg.copy_engines > 0,
        }
    }

    /// Replaces the host-side per-element merge estimate.
    pub fn with_cpu_ns_per_elem(mut self, ns: f64) -> CostModel {
        self.cpu_ns_per_elem = ns;
        self
    }

    /// Replaces the host-side per-probe skip estimate.
    pub fn with_cpu_skip_ns_per_probe(mut self, ns: f64) -> CostModel {
        self.cpu_skip_ns_per_probe = ns;
        self
    }

    /// Re-anchors the device lane on one measured device step:
    /// `fixed_ns` is what the step's counted operations cost on
    /// `cfg`; the rest of its measured duration `lane_ns` (against a
    /// `long_len` list) rescales the per-element terms — PCIe and compute
    /// by one factor, one step cannot tell them apart — so the model
    /// prices that step as measured, to within the one link latency that
    /// does not scale. No serial-decode floor is assumed: a decoder with
    /// one shows up in the factor.
    pub fn with_measured_step(
        mut self,
        cfg: &DeviceConfig,
        step: &DeviceStepCounts,
        long_len: usize,
        lane_ns: f64,
    ) -> CostModel {
        self.fixed_ns = step.fixed_ns(cfg);
        self.serial_decode_ns = 0.0;
        let per_elem_ns = self.gpu_step_ns(long_len) - self.fixed_ns;
        let scale = ((lane_ns - self.fixed_ns) / per_elem_ns).max(0.0);
        self.pcie_ns_per_elem *= scale;
        self.gpu_ns_per_elem *= scale;
        self
    }

    /// PCIe cost of shipping a `long_len`-element list, ns.
    pub fn transfer_ns(&self, long_len: usize) -> f64 {
        self.pcie_latency_ns + self.pcie_ns_per_elem * long_len as f64
    }

    /// Device compute cost of one step against a `long_len` list, ns.
    pub fn compute_ns(&self, long_len: usize) -> f64 {
        self.gpu_ns_per_elem * long_len as f64
    }

    /// Serial step estimate: transfer, then compute, on top of the
    /// fixed overheads and the serial-decode floor.
    pub fn gpu_step_serial_ns(&self, long_len: usize) -> f64 {
        self.fixed_ns
            + self.serial_decode_ns
            + self.transfer_ns(long_len)
            + self.compute_ns(long_len)
    }

    /// Pipelined step estimate: the upload hides behind the previous
    /// step's compute, so only the longer of the two engines bounds the
    /// steady-state step. The fixed overheads and the serial-decode
    /// floor do not pipeline away.
    pub fn gpu_step_pipelined_ns(&self, long_len: usize) -> f64 {
        self.fixed_ns
            + self.serial_decode_ns
            + self.transfer_ns(long_len).max(self.compute_ns(long_len))
    }

    /// The estimate matching this model's `overlap` mode.
    pub fn gpu_step_ns(&self, long_len: usize) -> f64 {
        if self.overlap {
            self.gpu_step_pipelined_ns(long_len)
        } else {
            self.gpu_step_serial_ns(long_len)
        }
    }

    /// Host estimate for a whole-list *merge* intersection, ns. This is
    /// the regime the `min_gpu_work` floor compares against: at the low
    /// ratios where GPU placement is in question, the host decodes the
    /// whole list and merges.
    pub fn cpu_step_ns(&self, long_len: usize) -> f64 {
        self.cpu_ns_per_elem * long_len as f64
    }

    /// Host estimate for one intersection of `short_len` probes against
    /// a `long_len` list, ns: the cheaper of the merge strategy (decode
    /// everything, cost follows the long list) and the skip strategy
    /// (one gallop + in-block binary search per probe, cost follows the
    /// short list) — mirroring the CPU engine's own strategy choice.
    pub fn cpu_intersect_ns(&self, short_len: usize, long_len: usize) -> f64 {
        let merge = self.cpu_ns_per_elem * long_len as f64;
        let skip = self.cpu_skip_ns_per_probe * short_len as f64;
        merge.min(skip)
    }

    /// Host merge-regime estimate when the long list's decoded form is
    /// resident in the host cache: the decode slope drops out, only the
    /// linear merge remains. Never more than [`CostModel::cpu_step_ns`].
    pub fn cpu_step_host_resident_ns(&self, long_len: usize) -> f64 {
        (self.cpu_ns_per_elem - self.cpu_decode_ns_per_elem).max(0.0) * long_len as f64
    }

    /// [`CostModel::cpu_intersect_ns`] when the long list is host-cached:
    /// the merge arm loses its decode slope and the skip arm loses its
    /// candidate-block-decode share (`CACHED_SKIP_DISCOUNT`). Never more
    /// than the non-resident estimate.
    pub fn cpu_intersect_host_resident_ns(&self, short_len: usize, long_len: usize) -> f64 {
        let merge = self.cpu_step_host_resident_ns(long_len);
        let skip = self.cpu_skip_ns_per_probe * CACHED_SKIP_DISCOUNT * short_len as f64;
        merge.min(skip)
    }

    /// Device step estimate when the long list is already device-resident
    /// (in the LRU cache or landing via prefetch): the PCIe terms drop
    /// out entirely; launch, allocation, and the serial-decode floor
    /// remain. Identical in serial and pipelined modes — there is no
    /// transfer left to hide. Never more than [`CostModel::gpu_step_ns`].
    pub fn gpu_step_device_resident_ns(&self, long_len: usize) -> f64 {
        self.fixed_ns + self.serial_decode_ns + self.compute_ns(long_len)
    }

    /// Solves for the GPU share of a docID-range split so that both
    /// lanes of a co-executed intersection finish together.
    ///
    /// A split hands the first `f·L` long-list elements to the device
    /// and the remaining `(1−f)·L` — carrying `(1−f)` of the short
    /// list's probes, since docIDs are roughly uniform across the range
    /// — to the host. The step costs `max(gpu_step(f·L),
    /// cpu_intersect((1−f)·S, (1−f)·L))`, which is minimized where the
    /// two curves meet. `g(f) = gpu − cpu` is monotone increasing in
    /// `f` (the GPU term grows, the CPU term shrinks), so the root is
    /// found by bisection. Returns 0.0 when even an empty GPU slice
    /// cannot amortize the fixed launch/transfer/decode overheads (the
    /// whole operation belongs on the CPU) and 1.0 when the device
    /// beats the host even carrying the full list.
    pub fn split_fraction(&self, short_len: usize, long_len: usize) -> f64 {
        self.balance(short_len, long_len, CostModel::cpu_intersect_ns)
    }

    /// [`CostModel::split_fraction`] when the long list's decoded form
    /// is host-cached. The CPU lane intersects against the resident
    /// vector (no decode), so its curve drops and the balanced device
    /// share shrinks — or collapses to 0 when the resident host beats
    /// even an empty device slice's fixed overheads. The device lane is
    /// *not* discounted: a split's range upload bypasses the device LRU
    /// cache, so it pays full PCIe either way. Same bisection; `g(f)`
    /// stays monotone because only the CPU curve's slope changed.
    pub fn split_fraction_host_resident(&self, short_len: usize, long_len: usize) -> f64 {
        self.balance(
            short_len,
            long_len,
            CostModel::cpu_intersect_host_resident_ns,
        )
    }

    /// The bisection behind both split solvers, with `cpu(model, probes,
    /// elems)` the host lane's curve.
    fn balance(
        &self,
        short_len: usize,
        long_len: usize,
        cpu: fn(&CostModel, usize, usize) -> f64,
    ) -> f64 {
        if long_len == 0 {
            return 0.0;
        }
        let l = long_len as f64;
        let s = short_len as f64;
        let g = |f: f64| {
            let gpu_elems = (f * l).round() as usize;
            let cpu_elems = long_len - gpu_elems.min(long_len);
            let cpu_probes = ((1.0 - f) * s).round() as usize;
            self.gpu_step_ns(gpu_elems) - cpu(self, cpu_probes, cpu_elems)
        };
        if g(0.0) >= 0.0 {
            return 0.0; // fixed GPU overhead alone exceeds the CPU's whole-list cost
        }
        if g(1.0) <= 0.0 {
            return 1.0; // the device wins even carrying the entire list
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if g(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let f = 0.5 * (lo + hi);
        // A lane owed less than one element of either list is no lane at
        // all (no short element means no possible match): snap to the
        // degenerate single-processor answer.
        if f * l < 1.0 || f * s < 1.0 {
            0.0
        } else if (1.0 - f) * l < 1.0 || (1.0 - f) * s < 1.0 {
            1.0
        } else {
            f
        }
    }

    /// Smallest long-list length at which the GPU step beats the CPU
    /// step under this model — the overlap-aware `min_gpu_work` floor.
    ///
    /// Solved by doubling scan (the curves cross once: GPU has higher
    /// fixed cost, lower slope). Clamped to `[256, 1 << 22]`; the upper
    /// clamp also covers configs where the GPU never wins.
    pub fn min_profitable_long_len(&self) -> usize {
        const LO: usize = 256;
        const HI: usize = 1 << 22;
        let mut len = LO;
        while len <= HI {
            if self.gpu_step_ns(len) < self.cpu_step_ns(len) {
                return len;
            }
            len *= 2;
        }
        HI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cfg`'s model on a device with no copy engine.
    fn serial_model(cfg: &DeviceConfig) -> CostModel {
        CostModel::from_device(&DeviceConfig {
            copy_engines: 0,
            ..cfg.clone()
        })
    }

    #[test]
    fn pipelined_step_is_never_slower_than_serial() {
        for cfg in [DeviceConfig::tesla_k20(), DeviceConfig::test_tiny()] {
            let serial = serial_model(&cfg);
            let pipelined = CostModel::from_device(&cfg);
            assert!(pipelined.overlap && !serial.overlap);
            for len in [0usize, 100, 10_000, 1_000_000] {
                assert!(pipelined.gpu_step_ns(len) <= serial.gpu_step_ns(len));
            }
        }
    }

    #[test]
    fn overlap_lowers_the_profitable_work_floor() {
        let cfg = DeviceConfig::tesla_k20();
        let serial = serial_model(&cfg);
        let pipelined = CostModel::from_device(&cfg);
        assert!(
            pipelined.min_profitable_long_len() <= serial.min_profitable_long_len(),
            "hiding transfers must not raise the crossover"
        );
    }

    #[test]
    fn split_fraction_balances_the_lanes() {
        let cfg = DeviceConfig::tesla_k20();
        let m = CostModel::from_device(&cfg);
        // Well above the profitable floor, at the crossover ratio, the
        // split should be interior and the two lanes should land within
        // a few percent of each other at the solved fraction.
        let long_len = 4 * m.min_profitable_long_len();
        let short_len = long_len / 64;
        let f = m.split_fraction(short_len, long_len);
        assert!((0.0..=1.0).contains(&f));
        if f > 0.0 && f < 1.0 {
            let gpu_elems = (f * long_len as f64).round() as usize;
            let gpu = m.gpu_step_ns(gpu_elems);
            let cpu_probes = ((1.0 - f) * short_len as f64).round() as usize;
            let cpu = m.cpu_intersect_ns(cpu_probes, long_len - gpu_elems);
            let imbalance = (gpu - cpu).abs() / gpu.max(cpu);
            assert!(imbalance < 0.05, "lanes off by {imbalance:.3}");
        }
    }

    #[test]
    fn split_fraction_degenerates_sensibly() {
        let cfg = DeviceConfig::tesla_k20();
        let m = CostModel::from_device(&cfg);
        assert_eq!(m.split_fraction(4, 0), 0.0);
        // Tiny lists cannot amortize the fixed device overheads at all.
        assert_eq!(m.split_fraction(4, 16), 0.0);
        // A host so slow the device should take everything.
        let slow_cpu = m
            .with_cpu_ns_per_elem(1.0e6)
            .with_cpu_skip_ns_per_probe(1.0e7);
        assert_eq!(slow_cpu.split_fraction(1 << 16, 1 << 20), 1.0);
        // A host so fast the device earns nothing.
        let fast_cpu = m.with_cpu_ns_per_elem(1.0e-6);
        assert_eq!(fast_cpu.split_fraction(1 << 16, 1 << 20), 0.0);
    }

    #[test]
    fn skip_regime_shrinks_the_device_share_at_high_ratios() {
        let cfg = DeviceConfig::tesla_k20();
        let m = CostModel::from_device(&cfg);
        let long_len = 1 << 20;
        // The shorter the probe side, the cheaper the host's skip
        // search, and the less long-list the device deserves.
        let f_lo = m.split_fraction(long_len / 16, long_len);
        let f_hi = m.split_fraction(long_len / 256, long_len);
        assert!(
            f_hi <= f_lo,
            "device share must not grow as the host gets cheaper ({f_lo} -> {f_hi})"
        );
        // And at an extreme ratio the skip search wins outright.
        assert_eq!(m.split_fraction(64, long_len), 0.0);
    }

    #[test]
    fn resident_costs_never_exceed_cold_costs() {
        for cfg in [DeviceConfig::tesla_k20(), DeviceConfig::test_tiny()] {
            for m in [serial_model(&cfg), CostModel::from_device(&cfg)] {
                for len in [0usize, 100, 10_000, 1 << 20] {
                    assert!(m.cpu_step_host_resident_ns(len) <= m.cpu_step_ns(len));
                    assert!(m.gpu_step_device_resident_ns(len) <= m.gpu_step_ns(len));
                    let short = len / 16;
                    assert!(
                        m.cpu_intersect_host_resident_ns(short, len)
                            <= m.cpu_intersect_ns(short, len)
                    );
                }
            }
        }
    }

    #[test]
    fn host_residency_shrinks_the_device_share() {
        let cfg = DeviceConfig::tesla_k20();
        let m = CostModel::from_device(&cfg);
        let long_len = 4 * m.min_profitable_long_len();
        for short_len in [long_len / 16, long_len / 64, long_len / 256] {
            let cold = m.split_fraction(short_len, long_len);
            let resident = m.split_fraction_host_resident(short_len, long_len);
            assert!(
                resident <= cold,
                "a cheaper host lane must not grow the device share \
                 ({cold} -> {resident} at short={short_len})"
            );
        }
    }

    /// FNV-1a over the bits of every split fraction on a grid: serial and
    /// pipelined (no copy engine, then `cfg`'s own); CPU lanes from 1/16×
    /// to 4096× the default speed (so interior, zero and snapped answers
    /// all occur); long lengths 2^12 … 2^22; short lists at ratios
    /// 4 … 1024.
    fn split_grid_digest(cfg: &DeviceConfig, host_resident: bool) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for base in [serial_model(cfg), CostModel::from_device(cfg)] {
            for k in [1.0 / 16.0, 1.0, 16.0, 256.0, 4096.0] {
                let m = base
                    .with_cpu_ns_per_elem(base.cpu_ns_per_elem * k)
                    .with_cpu_skip_ns_per_probe(base.cpu_skip_ns_per_probe * k);
                for long in (12..=22).map(|lg| 1usize << lg) {
                    for short in (2..=10).map(|r| long >> r) {
                        let f = if host_resident {
                            m.split_fraction_host_resident(short, long)
                        } else {
                            m.split_fraction(short, long)
                        };
                        for b in f.to_bits().to_le_bytes() {
                            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        h
    }

    #[test]
    fn split_solvers_match_their_pinned_grid_to_the_bit() {
        // Pinned: any change to the solvers' f64 operation order moves them.
        let k20 = DeviceConfig::tesla_k20();
        let tiny = DeviceConfig::test_tiny();
        assert_eq!(split_grid_digest(&k20, false), 0xa823_174e_28f0_76ec);
        assert_eq!(split_grid_digest(&k20, true), 0xe0db_949d_7e07_9bc1);
        assert_eq!(split_grid_digest(&tiny, false), 0x35e1_7b58_c8d8_f727);
        assert_eq!(split_grid_digest(&tiny, true), 0x1626_f2b4_4b39_f1ab);
    }

    #[test]
    fn crossover_is_finite_and_clamped() {
        let cfg = DeviceConfig::test_tiny();
        let m = CostModel::from_device(&cfg);
        let floor = m.min_profitable_long_len();
        assert!((256..=1 << 22).contains(&floor));
        // A CPU so fast the GPU never wins hits the upper clamp.
        let never = m.with_cpu_ns_per_elem(0.0);
        assert_eq!(never.min_profitable_long_len(), 1 << 22);
    }
}
