//! The analytic CPU cost model.
//!
//! The real implementations run and count their actual work (elements
//! decoded, blocks touched, probes, merge steps); this module converts the
//! counters into virtual nanoseconds for a single core of the paper's
//! 4-core Intel Xeon E5-2609v2 @ 2.5 GHz. Using *measured work × calibrated
//! per-unit cost* (rather than closed-form formulas) means data-dependent
//! effects — how many blocks a skip search actually avoided, how many
//! exceptions a block really had — flow into the timing automatically.

use griffin_gpu_sim::VirtualNanos;

/// Per-unit cycle costs, calibrated to the paper's measured CPU behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Core clock (Xeon E5-2609v2: 2.5 GHz).
    pub clock_hz: f64,
    /// Decode cost per regular PforDelta element (bit-unpack + prefix sum).
    pub pfor_cycles_per_elem: f64,
    /// Extra cost per exception patched (chain walk, data-dependent load).
    pub pfor_cycles_per_exception: f64,
    /// Decode cost per Elias–Fano element (unary scan + low-bit fetch).
    pub ef_cycles_per_elem: f64,
    /// Decode cost per VByte element.
    pub varint_cycles_per_elem: f64,
    /// Fixed overhead per block touched (header parse, bounds, cache line).
    pub cycles_per_block: f64,
    /// Cost per merge step (compare + advance; mostly predictable branches
    /// with excellent spatial locality).
    pub merge_cycles_per_step: f64,
    /// Cost per binary-search probe (compare + ~50% mispredicted branch +
    /// likely cache miss on the random access).
    pub probe_cycles: f64,
    /// Cost per skip-pointer probe (binary search over the skip array,
    /// which is small and usually cached).
    pub skip_probe_cycles: f64,
    /// Cost per BM25 term-contribution evaluation.
    pub score_cycles_per_elem: f64,
    /// Cost per element inspected during top-k selection.
    pub topk_cycles_per_elem: f64,
    /// Cost per result element materialized (copy out).
    pub emit_cycles_per_elem: f64,
    /// Sustained single-core memory bandwidth (bytes/s); the streaming
    /// floor for large scans.
    pub mem_bandwidth_bytes_per_sec: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            clock_hz: 2.5e9,
            pfor_cycles_per_elem: 20.0,
            pfor_cycles_per_exception: 14.0,
            ef_cycles_per_elem: 24.0,
            varint_cycles_per_elem: 14.0,
            cycles_per_block: 60.0,
            // ~50% mispredicted compare branches on in-order-ish cores
            // make the merge loop expensive per step.
            merge_cycles_per_step: 18.0,
            probe_cycles: 18.0,
            skip_probe_cycles: 10.0,
            score_cycles_per_elem: 24.0,
            topk_cycles_per_elem: 4.0,
            emit_cycles_per_elem: 2.0,
            mem_bandwidth_bytes_per_sec: 12.0e9,
        }
    }
}

/// Work actually performed by the instrumented CPU implementations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// PforDelta elements decoded (regular slots).
    pub pfor_elements: u64,
    /// PforDelta exceptions patched.
    pub pfor_exceptions: u64,
    /// Elias–Fano elements decoded.
    pub ef_elements: u64,
    /// VByte elements decoded.
    pub varint_elements: u64,
    /// Compressed blocks touched (decoded or header-parsed).
    pub blocks_decoded: u64,
    /// Merge-loop steps (pointer advances).
    pub merge_steps: u64,
    /// In-data binary-search probes.
    pub probes: u64,
    /// Skip-pointer probes.
    pub skip_probes: u64,
    /// Skip-pointer probes *avoided* by galloping search relative to a
    /// full-window binary search (informational — galloping's actual
    /// probes are already charged via `skip_probes`, so this counter is
    /// deliberately not priced by the cost model).
    pub gallop_saved: u64,
    /// BM25 contributions evaluated.
    pub scored: u64,
    /// Elements inspected by top-k selection.
    pub topk_scanned: u64,
    /// Result elements materialized.
    pub emitted: u64,
    /// Bytes streamed through memory (compressed input + decoded output).
    pub bytes_touched: u64,
}

impl WorkCounters {
    /// Every counter with its field name, in declaration order — the
    /// stable enumeration telemetry uses to fold CPU work into a
    /// metrics registry without this crate knowing about telemetry.
    pub fn named(&self) -> [(&'static str, u64); 13] {
        [
            ("pfor_elements", self.pfor_elements),
            ("pfor_exceptions", self.pfor_exceptions),
            ("ef_elements", self.ef_elements),
            ("varint_elements", self.varint_elements),
            ("blocks_decoded", self.blocks_decoded),
            ("merge_steps", self.merge_steps),
            ("probes", self.probes),
            ("skip_probes", self.skip_probes),
            ("gallop_saved", self.gallop_saved),
            ("scored", self.scored),
            ("topk_scanned", self.topk_scanned),
            ("emitted", self.emitted),
            ("bytes_touched", self.bytes_touched),
        ]
    }

    pub fn add(&mut self, o: &WorkCounters) {
        self.pfor_elements += o.pfor_elements;
        self.pfor_exceptions += o.pfor_exceptions;
        self.ef_elements += o.ef_elements;
        self.varint_elements += o.varint_elements;
        self.blocks_decoded += o.blocks_decoded;
        self.merge_steps += o.merge_steps;
        self.probes += o.probes;
        self.skip_probes += o.skip_probes;
        self.gallop_saved += o.gallop_saved;
        self.scored += o.scored;
        self.topk_scanned += o.topk_scanned;
        self.emitted += o.emitted;
        self.bytes_touched += o.bytes_touched;
    }
}

/// Converts [`WorkCounters`] into virtual time.
#[derive(Debug, Clone, Default)]
pub struct CpuCostModel {
    pub cfg: CpuConfig,
}

impl CpuCostModel {
    pub fn new(cfg: CpuConfig) -> Self {
        CpuCostModel { cfg }
    }

    /// Total cycles implied by the counters.
    pub fn cycles(&self, w: &WorkCounters) -> f64 {
        let c = &self.cfg;
        w.pfor_elements as f64 * c.pfor_cycles_per_elem
            + w.pfor_exceptions as f64 * c.pfor_cycles_per_exception
            + w.ef_elements as f64 * c.ef_cycles_per_elem
            + w.varint_elements as f64 * c.varint_cycles_per_elem
            + w.blocks_decoded as f64 * c.cycles_per_block
            + w.merge_steps as f64 * c.merge_cycles_per_step
            + w.probes as f64 * c.probe_cycles
            + w.skip_probes as f64 * c.skip_probe_cycles
            + w.scored as f64 * c.score_cycles_per_elem
            + w.topk_scanned as f64 * c.topk_cycles_per_elem
            + w.emitted as f64 * c.emit_cycles_per_elem
    }

    /// Virtual time: max of the compute term and the streaming-bandwidth
    /// floor.
    pub fn time(&self, w: &WorkCounters) -> VirtualNanos {
        let compute_ns = self.cycles(w) / self.cfg.clock_hz * 1e9;
        let mem_ns = w.bytes_touched as f64 / self.cfg.mem_bandwidth_bytes_per_sec * 1e9;
        VirtualNanos::from_nanos_f64(compute_ns.max(mem_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = WorkCounters {
            merge_steps: 10,
            probes: 3,
            ..Default::default()
        };
        let b = WorkCounters {
            merge_steps: 5,
            ef_elements: 100,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.merge_steps, 15);
        assert_eq!(a.probes, 3);
        assert_eq!(a.ef_elements, 100);
    }

    #[test]
    fn time_scales_linearly_with_work() {
        let model = CpuCostModel::default();
        let w1 = WorkCounters {
            merge_steps: 1_000_000,
            ..Default::default()
        };
        let w2 = WorkCounters {
            merge_steps: 2_000_000,
            ..Default::default()
        };
        let t1 = model.time(&w1).as_nanos() as f64;
        let t2 = model.time(&w2).as_nanos() as f64;
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn bandwidth_floor_kicks_in_for_pure_streaming() {
        let model = CpuCostModel::default();
        let w = WorkCounters {
            bytes_touched: 12_000_000_000, // 1 virtual second at 12 GB/s
            ..Default::default()
        };
        let t = model.time(&w);
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn default_decode_rates_are_plausible() {
        // 1M PforDelta elements at default rates should land in single-digit
        // milliseconds — the regime Fig. 12's CPU curve implies.
        let model = CpuCostModel::default();
        let w = WorkCounters {
            pfor_elements: 1_000_000,
            pfor_exceptions: 100_000,
            blocks_decoded: 7813,
            ..Default::default()
        };
        let ms = model.time(&w).as_millis_f64();
        assert!(ms > 1.0 && ms < 20.0, "{ms} ms");
    }
}
