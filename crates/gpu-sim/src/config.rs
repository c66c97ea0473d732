//! Device and cost-model configuration.
//!
//! The default configuration models the NVIDIA Tesla K20 used in the paper's
//! evaluation (Section 4.1): 13 SMX units × 192 CUDA cores at 706 MHz, 5 GB
//! of GDDR5 at 208 GB/s, attached over 16-lane PCIe 2.0 (8 GB/s).

use crate::fault::FaultPlan;

/// PCIe link model: a fixed per-transfer latency plus a bandwidth term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieConfig {
    /// Sustained bandwidth in bytes per second (paper: 8 GB/s, PCIe 2.0 x16).
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed overhead per DMA transfer (driver + doorbell + DMA setup).
    pub latency_ns: u64,
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig {
            bandwidth_bytes_per_sec: 8.0e9,
            latency_ns: 10_000, // ~10us per cudaMemcpy, typical for this era
        }
    }
}

/// Cycle costs of the abstract operations a kernel can charge.
///
/// These are *issue* costs per warp-instruction; memory latency and
/// bandwidth are modelled separately in [`crate::timing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Simple integer/logic op (add, sub, and, or, shift, compare).
    pub alu_cpi: f64,
    /// Integer multiply / multiply-add.
    pub mul_cpi: f64,
    /// Population count (`__popc`), one hardware instruction on Kepler.
    pub popc_cpi: f64,
    /// Branch instruction issue cost.
    pub branch_cpi: f64,
    /// Extra serialization factor applied to a warp's dynamic instructions
    /// when a branch diverges (both sides execute). 1.0 means a divergent
    /// branch doubles the cost of the instructions it guards on average.
    pub divergence_penalty: f64,
    /// Shared-memory access issue cost (conflict-free).
    pub smem_cpi: f64,
    /// Issue cost of a global load/store instruction (latency modelled
    /// separately).
    pub gmem_issue_cpi: f64,
    /// Global memory latency in cycles (Kepler: ~400–800; hidden by
    /// occupancy when enough warps are resident).
    pub gmem_latency_cycles: f64,
    /// Block-local atomic cost per *conflicting* access.
    pub atomic_cpi: f64,
    /// Outstanding memory transactions a warp overlaps (memory-level
    /// parallelism). Kepler sustains many in-flight loads per warp; this
    /// divides the per-warp latency term in the under-occupancy floor.
    pub mem_level_parallelism: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            alu_cpi: 1.0,
            mul_cpi: 2.0,
            popc_cpi: 1.0,
            branch_cpi: 1.0,
            divergence_penalty: 1.0,
            smem_cpi: 1.0,
            gmem_issue_cpi: 2.0,
            gmem_latency_cycles: 500.0,
            atomic_cpi: 8.0,
            mem_level_parallelism: 16.0,
        }
    }
}

/// Full device model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name (appears in experiment output headers).
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM. `cores_per_sm / warp_size` warps can issue per
    /// cycle per SM.
    pub cores_per_sm: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// SIMD width of a warp. The paper's ratio analysis assumes 32.
    pub warp_size: u32,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: u32,
    /// Maximum warps resident per SM (occupancy ceiling; K20/Kepler: 64).
    pub max_resident_warps_per_sm: u32,
    /// Shared memory per block, in 32-bit words (K20: 48 KB -> 12288 words).
    pub shared_mem_words_per_block: usize,
    /// Total device memory in bytes (K20: 5 GB).
    pub global_mem_bytes: u64,
    /// Device memory bandwidth in bytes per second (K20: 208 GB/s).
    pub global_bandwidth_bytes_per_sec: f64,
    /// Width of one memory transaction in bytes (L2 line / segment size).
    pub transaction_bytes: u32,
    /// Fixed kernel-launch overhead in nanoseconds (driver + dispatch).
    pub kernel_launch_overhead_ns: u64,
    /// `cudaMalloc` overhead in nanoseconds.
    pub malloc_overhead_ns: u64,
    /// `cudaFree` overhead in nanoseconds.
    pub free_overhead_ns: u64,
    /// Host bookkeeping of an allocation served from the caching
    /// allocator's free list (a lock and a list pop in user space, no
    /// driver call), in nanoseconds.
    pub pool_hit_overhead_ns: u64,
    /// Independent DMA (copy) engines. The K20 has two (one per
    /// direction); the simulator models one copy timeline because `dtoh`
    /// is host-blocking (see [`crate::stream`]), so this is informational
    /// for cost models and reports.
    pub copy_engines: u32,
    /// PCIe link to the host.
    pub pcie: PcieConfig,
    /// Per-instruction-class issue costs.
    pub costs: CostParams,
    /// Track performance counters on roughly one warp in `sample_stride`
    /// (1 = trace every warp). Functional execution is always exact.
    pub trace_sample_stride: u32,
    /// Optional deterministic fault-injection schedule (see
    /// [`crate::fault`]). `None` — and any plan where
    /// [`FaultPlan::is_noop`] holds — leaves the device bit-identical to a
    /// fault-free build.
    pub fault_plan: Option<FaultPlan>,
}

impl DeviceConfig {
    /// The NVIDIA Tesla K20 configuration from the paper's testbed.
    pub fn tesla_k20() -> Self {
        DeviceConfig {
            name: "Tesla K20 (simulated)",
            num_sms: 13,
            cores_per_sm: 192,
            clock_hz: 706.0e6,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_resident_warps_per_sm: 64,
            shared_mem_words_per_block: 48 * 1024 / 4,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
            global_bandwidth_bytes_per_sec: 208.0e9,
            transaction_bytes: 128,
            kernel_launch_overhead_ns: 6_000,
            malloc_overhead_ns: 10_000,
            free_overhead_ns: 4_000,
            pool_hit_overhead_ns: 500,
            copy_engines: 2,
            pcie: PcieConfig::default(),
            costs: CostParams::default(),
            trace_sample_stride: 1,
            fault_plan: None,
        }
    }

    /// A deliberately tiny device for unit tests: 2 SMs, small shared
    /// memory, negligible overheads, full tracing.
    pub fn test_tiny() -> Self {
        DeviceConfig {
            name: "test-tiny",
            num_sms: 2,
            cores_per_sm: 64,
            clock_hz: 1.0e9,
            warp_size: 32,
            max_threads_per_block: 256,
            max_resident_warps_per_sm: 16,
            shared_mem_words_per_block: 4096,
            global_mem_bytes: 64 * 1024 * 1024,
            global_bandwidth_bytes_per_sec: 100.0e9,
            transaction_bytes: 128,
            kernel_launch_overhead_ns: 100,
            malloc_overhead_ns: 50,
            free_overhead_ns: 20,
            pool_hit_overhead_ns: 5,
            copy_engines: 1,
            pcie: PcieConfig {
                bandwidth_bytes_per_sec: 8.0e9,
                latency_ns: 100,
            },
            costs: CostParams::default(),
            trace_sample_stride: 1,
            fault_plan: None,
        }
    }

    /// Warps that can issue simultaneously across the whole device.
    pub fn issue_width_warps(&self) -> f64 {
        f64::from(self.num_sms) * f64::from(self.cores_per_sm) / f64::from(self.warp_size)
    }

    /// Maximum warps resident device-wide (occupancy ceiling).
    pub fn max_resident_warps(&self) -> u64 {
        u64::from(self.num_sms) * u64::from(self.max_resident_warps_per_sm)
    }

    /// Nanoseconds per core cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1.0e9 / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_matches_paper_specs() {
        let c = DeviceConfig::tesla_k20();
        // 2496 CUDA cores total
        assert_eq!(c.num_sms * c.cores_per_sm, 2496);
        // 208 GB/s inner bandwidth (paper Section 2.3)
        assert_eq!(c.global_bandwidth_bytes_per_sec, 208.0e9);
        // 5 GB device memory
        assert_eq!(c.global_mem_bytes, 5 * 1024 * 1024 * 1024);
        // 8 GB/s PCIe 2.0 x16 (paper Section 4.1)
        assert_eq!(c.pcie.bandwidth_bytes_per_sec, 8.0e9);
    }

    #[test]
    fn derived_quantities() {
        let c = DeviceConfig::tesla_k20();
        assert_eq!(c.issue_width_warps(), 78.0); // 13 SMs * 6 warps/cycle
        assert_eq!(c.max_resident_warps(), 13 * 64);
        let ns = c.ns_per_cycle();
        assert!((ns - 1.416).abs() < 0.01, "{ns}");
    }
}
