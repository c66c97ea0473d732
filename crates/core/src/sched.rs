//! The dynamic intra-query scheduler (paper §3.2).
//!
//! Before each pairwise intersection, Griffin compares the long list's
//! length to the intermediate result's length. If the ratio is below the
//! crossover threshold the operation runs on the GPU, otherwise on the
//! CPU. The threshold defaults to the compression block size: the paper
//! proves that at ratio = block size the short list has fewer elements
//! than the long list has blocks, so skippable blocks are guaranteed to
//! exist — exactly when the CPU's skip search starts beating brute-force
//! parallel decompression ("the value of 128 is closely related to the
//! fact that we compress the list in 128-element blocks").
//!
//! The placement-aware refinement adds hysteresis: when the intermediate
//! already lives on the device, a borderline operation stays there, since
//! migrating costs a PCIe round trip that a marginal CPU win cannot repay.

use griffin_gpu_sim::DeviceConfig;

use crate::cost::CostModel;

/// Which processor an operation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proc {
    Cpu,
    Gpu,
}

impl Proc {
    /// Stable lowercase label, used as a metric/trace dimension.
    pub fn label(self) -> &'static str {
        match self {
            Proc::Cpu => "cpu",
            Proc::Gpu => "gpu",
        }
    }
}

/// What the scheduler chose for one pairwise intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Run the whole operation on the CPU.
    Cpu,
    /// Run the whole operation on the GPU.
    Gpu,
    /// Co-execute: partition the long list by docID range, hand the
    /// first `gpu_fraction` of it to the device and the rest to the
    /// host, run both lanes concurrently, and concatenate the partial
    /// results. Only emitted for host-resident intermediates near the
    /// crossover ratio (see [`SplitConfig`]).
    Split {
        /// Share of the long list's blocks assigned to the GPU lane,
        /// solved from the scheduler's cost model so the lanes finish
        /// together ([`CostModel::split_fraction`]). The engine's
        /// adaptive balancer refines it per query before executing.
        gpu_fraction: f64,
    },
}

impl Decision {
    /// Stable lowercase label, used as a metric/trace dimension.
    pub fn label(self) -> &'static str {
        match self {
            Decision::Cpu => "cpu",
            Decision::Gpu => "gpu",
            Decision::Split { .. } => "split",
        }
    }

    /// The processor that must hold the *intermediate* for this decision:
    /// a split runs its lanes from a host-resident intermediate, so it
    /// maps to [`Proc::Cpu`] (the engine's placement and prefetch logic
    /// key off residency, not device involvement).
    pub fn proc(self) -> Proc {
        match self {
            Decision::Gpu => Proc::Gpu,
            Decision::Cpu | Decision::Split { .. } => Proc::Cpu,
        }
    }
}

/// Cache residency of the long list at decision time, probed from the
/// host decoded-list cache and the device LRU. The scheduler folds this
/// into its cost comparison: a host-cached list loses its CPU decode
/// term, a device-cached list loses its PCIe term.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// The long list's decoded docIDs sit in the host decoded-list cache.
    pub host_cached: bool,
    /// The long list is device-resident (LRU cache or in-flight prefetch).
    pub device_cached: bool,
}

impl Residency {
    /// No tier holds the list — the residency-blind decision stands.
    pub fn cold() -> Residency {
        Residency::default()
    }
}

/// Everything that went into (and came out of) one scheduling decision,
/// surfaced for telemetry and the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    pub short_len: usize,
    pub long_len: usize,
    /// `long_len / short_len` (0 when the intermediate is empty).
    pub ratio: f64,
    /// The threshold the ratio was compared against, after any
    /// placement-aware hysteresis.
    pub effective_threshold: f64,
    /// Whether hysteresis inflated the threshold for this decision.
    pub hysteresis_applied: bool,
    /// The long list's cache residency at decision time (all-cold for
    /// residency-blind calls).
    pub residency: Residency,
    /// What the residency-blind rule chose — the decision every run
    /// makes when the caches are off.
    pub baseline: Decision,
    /// Whether residency changed the outcome: a processor flip or a
    /// split-fraction shift "won by cache".
    pub cache_flip: bool,
    pub chosen: Decision,
}

/// Co-execution configuration: when (and how) the scheduler splits an
/// intersection across both processors instead of picking one.
///
/// A split is considered only when the intermediate is host-resident
/// (both lanes start from the host copy; migrating first would pay the
/// PCIe round trip the split is trying to avoid), the long list clears
/// the `min_gpu_work` floor, and the length ratio falls inside the
/// *split band* — the CPU-owned side of the crossover, `[threshold,
/// threshold * band]`. The band is one-sided on purpose: below the
/// threshold the device wins the operation outright *and* holds the
/// intermediate, so a split there would only drag the preceding work
/// onto the host; far above the band the CPU's skip search is so cheap
/// the device's fixed per-step overheads can never pay for themselves.
///
/// The GPU-lane share is solved from the scheduler's own
/// [`Scheduler::model`]; a model-less scheduler splits only at a forced
/// fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitConfig {
    /// Width of the split band, as a multiplier: ratios in
    /// `[threshold, threshold * band]` co-execute.
    pub band: f64,
    /// Overrides the solved fraction (tests and the fraction-sweep
    /// bench force specific splits, including the degenerate 0.0/1.0).
    pub forced_fraction: Option<f64>,
}

impl Default for SplitConfig {
    /// Co-execution with the solver-chosen fraction and the default band.
    fn default() -> SplitConfig {
        SplitConfig {
            band: 4.0,
            forced_fraction: None,
        }
    }
}

impl SplitConfig {
    /// Forces every eligible operation to split at exactly `fraction`,
    /// regardless of ratio (the band test is bypassed). Used by the
    /// equivalence tests and the static-grid sweep.
    pub fn forced(fraction: f64) -> SplitConfig {
        SplitConfig {
            band: f64::INFINITY,
            forced_fraction: Some(fraction),
        }
    }
}

/// Per-query feedback controller for the split fraction.
///
/// The cost models predict lane times from element counts alone; real
/// lanes diverge (data-dependent skip behaviour, cache-resident blocks,
/// retry backoff). After every split the engine reports the measured
/// lane times; the balancer nudges a multiplicative bias toward the lane
/// that finished late, so the *next* split converges on equal finish
/// times — classic multiplicative-increase feedback, clamped so a single
/// pathological operation cannot wedge the controller.
#[derive(Debug, Clone)]
pub struct SplitBalancer {
    /// Multiplier applied to the solver's fraction (1.0 = trust the
    /// model).
    pub bias: f64,
}

impl Default for SplitBalancer {
    fn default() -> SplitBalancer {
        SplitBalancer { bias: 1.0 }
    }
}

impl SplitBalancer {
    /// Exponent on the observed lane-time ratio per update (0.5 = move
    /// halfway in log space; smaller is more damped).
    const GAIN: f64 = 0.5;
    /// `bias` is clamped to `[1/LIMIT, LIMIT]`.
    const LIMIT: f64 = 4.0;

    /// The fraction to actually execute, given the solver's estimate.
    pub fn refine(&self, solved: f64) -> f64 {
        (solved * self.bias).clamp(0.02, 0.98)
    }

    /// Feed back one measured split: `cpu_lane` and `gpu_lane` are the
    /// two lanes' busy times in nanoseconds. A late CPU lane
    /// (`cpu > gpu`) grows the bias so the device takes more next time;
    /// a late GPU lane shrinks it.
    pub fn observe(&mut self, cpu_lane_ns: u64, gpu_lane_ns: u64) {
        if cpu_lane_ns == 0 || gpu_lane_ns == 0 {
            return; // a degenerate (empty-lane) split carries no signal
        }
        let imbalance = cpu_lane_ns as f64 / gpu_lane_ns as f64;
        self.bias = (self.bias * imbalance.powf(Self::GAIN)).clamp(1.0 / Self::LIMIT, Self::LIMIT);
    }
}

/// The ratio-crossover scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// GPU/CPU crossover ratio (paper default: the block size, 128).
    pub ratio_threshold: usize,
    /// Hysteresis: the threshold's multiplier when the data is already
    /// device-resident, so borderline ops stay on the processor holding
    /// it. 1.0 turns it off.
    pub hysteresis: f64,
    /// Operations whose long list is shorter than this always run on the
    /// CPU: tiny kernels cannot amortize launch/allocation/PCIe overheads
    /// ("these costs occur just once, so running larger, more complex
    /// query operations can amortize them" — paper §2.3). The paper's
    /// crossover study itself only measures lists of 1M–2M elements.
    /// [`Scheduler::for_device`] sets it to the model's
    /// [`CostModel::min_profitable_long_len`] (65 536 on the K20
    /// profile, with or without a copy engine); the model-less
    /// constructors hand-set it. That model still prices 10 `cudaMalloc`s
    /// and a serial decode floor; a step on a device whose allocator is
    /// warm makes 2 and has none, so the floor is several times too high.
    /// It is held until placement moves in its own change.
    pub min_gpu_work: usize,
    /// Co-execution: `Some` lets borderline operations split across both
    /// processors ([`Decision::Split`]); `None` restores the pure
    /// pick-one behaviour. The model-less constructors leave this off;
    /// [`Scheduler::for_device`] (and so [`crate::Griffin`]) turns it on.
    pub split: Option<SplitConfig>,
    /// The one cost model every model-based rule reads: the
    /// `min_gpu_work` floor is derived from it, the split solver solves
    /// the GPU-lane share with it, and the residency override
    /// ([`Scheduler::decide_traced_resident`]) prices resident lists with
    /// it. `None` (the model-less constructors) makes residency a no-op
    /// and lets only forced fractions split.
    pub model: Option<CostModel>,
}

impl Scheduler {
    /// Model-less scheduler for an index compressed in
    /// `block_len`-element blocks, with a hand-set work floor.
    pub fn for_block_len(block_len: usize) -> Scheduler {
        Scheduler {
            ratio_threshold: block_len,
            hysteresis: 2.0,
            min_gpu_work: 8_192,
            split: None,
            model: None,
        }
    }

    /// A paper-faithful static scheduler (no hysteresis, no work floor),
    /// for the ablation study.
    pub fn paper_static(block_len: usize) -> Scheduler {
        Scheduler {
            ratio_threshold: block_len,
            hysteresis: 1.0,
            min_gpu_work: 0,
            split: None,
            model: None,
        }
    }

    /// The scheduler [`crate::Griffin`] runs: [`Scheduler::for_block_len`]'s
    /// ratio rule and hysteresis, plus the device's cost model — serial
    /// or pipelined as its copy engines say ([`CostModel::from_device`])
    /// — with the work floor derived from it and co-execution on the
    /// default band. With overlap the per-step transfer hides behind
    /// compute, so smaller operations can become profitable on the
    /// device; the ratio threshold itself encodes the block-skipping
    /// argument, which overlap does not change.
    pub fn for_device(block_len: usize, cfg: &DeviceConfig) -> Scheduler {
        let model = CostModel::from_device(cfg);
        Scheduler {
            min_gpu_work: model.min_profitable_long_len(),
            split: Some(SplitConfig::default()),
            model: Some(model),
            ..Scheduler::for_block_len(block_len)
        }
    }

    /// Decides where the next pairwise intersection should run, with the
    /// full [`DecisionTrace`] record (inputs, ratio, effective threshold,
    /// hysteresis) for telemetry.
    ///
    /// * `short_len` — current intermediate length (or the shortest list
    ///   for the first operation);
    /// * `long_len` — the next list's length;
    /// * `current` — where the intermediate currently lives.
    ///
    /// `chosen.proc()` is the processor that must end up holding the
    /// intermediate; a [`Decision::Split`] maps to [`Proc::Cpu`]
    /// (host-resident lanes).
    pub fn decide_traced(&self, short_len: usize, long_len: usize, current: Proc) -> DecisionTrace {
        let hysteresis_applied = current == Proc::Gpu && self.hysteresis != 1.0;
        let mut threshold = self.ratio_threshold as f64;
        if hysteresis_applied {
            threshold *= self.hysteresis;
        }
        let (ratio, chosen) = if short_len == 0 {
            // Empty intermediate: nothing to do anywhere; prefer where the
            // data is to avoid a pointless transfer.
            (
                0.0,
                match current {
                    Proc::Cpu => Decision::Cpu,
                    Proc::Gpu => Decision::Gpu,
                },
            )
        } else if long_len < self.min_gpu_work {
            (long_len as f64 / short_len as f64, Decision::Cpu)
        } else {
            let ratio = long_len as f64 / short_len as f64;
            let chosen = match self.split_decision(ratio, short_len, long_len, current) {
                Some(split) => split,
                None if ratio < threshold => Decision::Gpu,
                None => Decision::Cpu,
            };
            (ratio, chosen)
        };
        DecisionTrace {
            short_len,
            long_len,
            ratio,
            effective_threshold: threshold,
            hysteresis_applied,
            residency: Residency::cold(),
            baseline: chosen,
            cache_flip: false,
            chosen,
        }
    }

    /// [`Scheduler::decide_traced`], then a residency-gated override: the
    /// baseline (residency-blind) decision is computed first with the
    /// rules above, and only when a cache tier actually holds the long
    /// list is it re-examined under the resident cost curves —
    ///
    /// * baseline **GPU** + host-cached: flip to CPU when the resident
    ///   host cost (no decode) undercuts the device step;
    /// * baseline **CPU** + device-cached: flip to GPU when the resident
    ///   device step (no PCIe) undercuts the host;
    /// * baseline **Split** + host-cached: re-solve the fraction with the
    ///   resident CPU-lane curve — the device share shrinks, possibly to
    ///   a pure-CPU decision. (Device residency leaves splits alone: a
    ///   split's range upload bypasses the device cache.)
    ///
    /// With an all-cold [`Residency`], no cost model, or a forced split
    /// fraction, the baseline stands untouched — so every caches-off run
    /// decides exactly as [`Scheduler::decide_traced`].
    pub fn decide_traced_resident(
        &self,
        short_len: usize,
        long_len: usize,
        current: Proc,
        residency: Residency,
    ) -> DecisionTrace {
        let mut trace = self.decide_traced(short_len, long_len, current);
        trace.residency = residency;
        let Some(model) = &self.model else {
            return trace;
        };
        if (!residency.host_cached && !residency.device_cached) || short_len == 0 || long_len == 0 {
            return trace;
        }
        let overridden = match trace.baseline {
            Decision::Gpu if residency.host_cached => {
                let cpu = model.cpu_intersect_host_resident_ns(short_len, long_len);
                let gpu = if residency.device_cached {
                    model.gpu_step_device_resident_ns(long_len)
                } else {
                    model.gpu_step_ns(long_len)
                };
                (cpu < gpu).then_some(Decision::Cpu)
            }
            Decision::Cpu if residency.device_cached => {
                let gpu = model.gpu_step_device_resident_ns(long_len);
                let cpu = if residency.host_cached {
                    model.cpu_intersect_host_resident_ns(short_len, long_len)
                } else {
                    model.cpu_intersect_ns(short_len, long_len)
                };
                (gpu < cpu).then_some(Decision::Gpu)
            }
            Decision::Split { gpu_fraction } if residency.host_cached => {
                let forced = self
                    .split
                    .as_ref()
                    .is_some_and(|s| s.forced_fraction.is_some());
                if forced {
                    None
                } else {
                    let f = model.split_fraction_host_resident(short_len, long_len);
                    if f <= 0.01 {
                        Some(Decision::Cpu)
                    } else if f >= 0.99 {
                        Some(Decision::Gpu)
                    } else if (f - gpu_fraction).abs() > 1e-9 {
                        Some(Decision::Split { gpu_fraction: f })
                    } else {
                        None
                    }
                }
            }
            _ => None,
        };
        if let Some(chosen) = overridden {
            trace.chosen = chosen;
            trace.cache_flip = true;
        }
        trace
    }

    /// Evaluates the co-execution rule: `Some(Decision::Split)` when this
    /// operation should run on both processors at once. Splits require a
    /// host-resident intermediate (device-resident data already enjoys
    /// hysteresis, and both lanes start from the host copy) and a ratio
    /// inside the configured band — at or above the crossover, where the
    /// pick-one scheduler would choose the CPU (see [`SplitConfig`]) —
    /// and either a forced fraction or a cost model to solve one from.
    fn split_decision(
        &self,
        ratio: f64,
        short_len: usize,
        long_len: usize,
        current: Proc,
    ) -> Option<Decision> {
        let split = self.split.as_ref()?;
        if current != Proc::Cpu {
            return None;
        }
        let threshold = self.ratio_threshold as f64;
        if split.forced_fraction.is_none()
            && !(ratio >= threshold && ratio <= threshold * split.band)
        {
            return None;
        }
        let gpu_fraction = match split.forced_fraction {
            Some(f) => f.clamp(0.0, 1.0),
            None => {
                let f = self.model.as_ref()?.split_fraction(short_len, long_len);
                // A near-degenerate solution means one processor should
                // just take the whole operation.
                if f <= 0.01 {
                    return Some(Decision::Cpu);
                }
                if f >= 0.99 {
                    return Some(Decision::Gpu);
                }
                f
            }
        };
        Some(Decision::Split { gpu_fraction })
    }

    /// The paper's block-skipping guarantee (§3.2, Fig. 9): with ratio
    /// above the block size, the short list has fewer elements than the
    /// long list has blocks, so at least one block is skippable.
    pub fn skippable_blocks_guaranteed(
        &self,
        short_len: usize,
        long_len: usize,
        block_len: usize,
    ) -> bool {
        let blocks = long_len.div_ceil(block_len);
        short_len < blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_ratio_goes_to_gpu() {
        let s = Scheduler::for_block_len(128);
        assert_eq!(
            s.decide_traced(10_000, 100_000, Proc::Cpu).chosen.proc(),
            Proc::Gpu
        ); // ratio 10
        assert_eq!(
            s.decide_traced(10_000, 1_000_000, Proc::Cpu).chosen.proc(),
            Proc::Gpu
        ); // ratio 100
    }

    #[test]
    fn high_ratio_goes_to_cpu() {
        let s = Scheduler::for_block_len(128);
        assert_eq!(
            s.decide_traced(1_000, 1_000_000, Proc::Cpu).chosen.proc(),
            Proc::Cpu
        ); // ratio 1000
        assert_eq!(
            s.decide_traced(1_000, 128_000, Proc::Cpu).chosen.proc(),
            Proc::Cpu
        ); // exactly 128
    }

    #[test]
    fn hysteresis_keeps_borderline_ops_on_gpu() {
        let s = Scheduler::for_block_len(128);
        // Ratio 150: above 128 but below 256.
        assert_eq!(
            s.decide_traced(1_000, 150_000, Proc::Gpu).chosen.proc(),
            Proc::Gpu
        );
        assert_eq!(
            s.decide_traced(1_000, 150_000, Proc::Cpu).chosen.proc(),
            Proc::Cpu
        );
        // Far above the threshold migrates regardless.
        assert_eq!(
            s.decide_traced(1_000, 500_000, Proc::Gpu).chosen.proc(),
            Proc::Cpu
        );
    }

    #[test]
    fn static_scheduler_ignores_placement() {
        let s = Scheduler::paper_static(128);
        assert_eq!(
            s.decide_traced(1_000, 150_000, Proc::Gpu).chosen.proc(),
            Proc::Cpu
        );
    }

    #[test]
    fn threshold_follows_block_size() {
        let s64 = Scheduler::paper_static(64);
        let s256 = Scheduler::paper_static(256);
        // Ratio 100: above 64's threshold, below 256's.
        assert_eq!(
            s64.decide_traced(1_000, 100_000, Proc::Cpu).chosen.proc(),
            Proc::Cpu
        );
        assert_eq!(
            s256.decide_traced(1_000, 100_000, Proc::Cpu).chosen.proc(),
            Proc::Gpu
        );
    }

    #[test]
    fn skippable_block_guarantee_matches_fig9() {
        let s = Scheduler::for_block_len(128);
        // λ > 128 ⇒ |R| < |S|/128 = #blocks ⇒ skippable blocks exist.
        assert!(s.skippable_blocks_guaranteed(100, 128_000, 128)); // 1000 blocks
                                                                   // λ = 1: every block relevant (short maps into all of them).
        assert!(!s.skippable_blocks_guaranteed(128_000, 128_000, 128));
    }

    #[test]
    fn tiny_operations_stay_on_cpu() {
        let s = Scheduler::for_block_len(128);
        // Ratio 2 would favour the GPU, but 100-element lists cannot
        // amortize launch overheads.
        assert_eq!(s.decide_traced(50, 100, Proc::Cpu).chosen.proc(), Proc::Cpu);
        assert_eq!(s.decide_traced(50, 100, Proc::Gpu).chosen.proc(), Proc::Cpu);
        // The paper-static ablation has no floor.
        let p = Scheduler::paper_static(128);
        assert_eq!(p.decide_traced(50, 100, Proc::Cpu).chosen.proc(), Proc::Gpu);
    }

    #[test]
    fn empty_intermediate_stays_put() {
        let s = Scheduler::for_block_len(128);
        assert_eq!(
            s.decide_traced(0, 1_000_000, Proc::Gpu).chosen.proc(),
            Proc::Gpu
        );
        assert_eq!(
            s.decide_traced(0, 1_000_000, Proc::Cpu).chosen.proc(),
            Proc::Cpu
        );
    }

    /// The engine's scheduler on the paper's device: pipelined model,
    /// derived floor, co-execution on.
    fn k20_scheduler() -> Scheduler {
        Scheduler::for_device(128, &DeviceConfig::tesla_k20())
    }

    #[test]
    fn in_band_host_resident_ops_split() {
        let s = k20_scheduler();
        // Ratio exactly at the crossover, well above the work floor, and
        // host-resident: prime split territory.
        let d = s.decide_traced(1 << 13, (1 << 13) * 128, Proc::Cpu);
        match d.chosen {
            Decision::Split { gpu_fraction } => {
                assert!(gpu_fraction > 0.0 && gpu_fraction < 1.0);
            }
            other => panic!("expected a split, got {other:?}"),
        }
        // The residency view of a split is the host.
        assert_eq!(d.chosen.proc(), Proc::Cpu);
        assert_eq!(d.chosen.label(), "split");
    }

    #[test]
    fn out_of_band_ratios_do_not_split() {
        let s = k20_scheduler();
        // Ratio 4: far below the crossover — the GPU takes it whole.
        assert!(matches!(
            s.decide_traced(100_000, 400_000, Proc::Cpu).chosen,
            Decision::Gpu
        ));
        // Ratio 10_000: far above — the CPU's skip search wins outright.
        assert!(matches!(
            s.decide_traced(100, 1_000_000, Proc::Cpu).chosen,
            Decision::Cpu
        ));
    }

    #[test]
    fn device_resident_intermediates_never_split() {
        let s = k20_scheduler();
        let d = s.decide_traced(1 << 13, (1 << 13) * 128, Proc::Gpu);
        assert!(!matches!(d.chosen, Decision::Split { .. }));
    }

    #[test]
    fn forced_fraction_bypasses_the_band() {
        // A forced fraction needs no cost model.
        let mut s = Scheduler::for_block_len(128);
        s.split = Some(SplitConfig::forced(0.25));
        // Ratio 4 is way out of the default band, but forcing splits it
        // anyway (as the equivalence tests need).
        let d = s.decide_traced(100_000, 400_000, Proc::Cpu);
        assert_eq!(d.chosen, Decision::Split { gpu_fraction: 0.25 });
    }

    #[test]
    fn a_model_less_scheduler_only_splits_when_forced() {
        let s = Scheduler {
            split: Some(SplitConfig::default()),
            ..Scheduler::for_block_len(128)
        };
        let d = s.decide_traced(1 << 13, (1 << 13) * 128, Proc::Cpu);
        assert_eq!(d.chosen, Decision::Cpu);
    }

    #[test]
    fn split_respects_the_work_floor() {
        let mut s = k20_scheduler();
        s.min_gpu_work = 1 << 20;
        let d = s.decide_traced(4_096, 4_096 * 128, Proc::Cpu);
        assert!(matches!(d.chosen, Decision::Cpu));
    }

    #[test]
    fn cold_residency_is_the_baseline() {
        let s = k20_scheduler();
        for (short, long, cur) in [
            (10_000, 100_000, Proc::Cpu),
            (1_000, 1_000_000, Proc::Cpu),
            (1 << 13, (1 << 13) * 128, Proc::Cpu),
            (1_000, 150_000, Proc::Gpu),
            (0, 1_000_000, Proc::Gpu),
        ] {
            let blind = s.decide_traced(short, long, cur);
            let cold = s.decide_traced_resident(short, long, cur, Residency::cold());
            assert_eq!(
                blind, cold,
                "cold residency must not perturb ({short},{long})"
            );
            assert!(!cold.cache_flip);
            assert_eq!(cold.baseline, cold.chosen);
        }
    }

    #[test]
    fn host_residency_can_flip_gpu_to_cpu() {
        let s = k20_scheduler();
        // Find a low-ratio operation the blind rule sends to the GPU but
        // whose resident host cost undercuts the device step: at ratio 8
        // the host merge pays decode + merge, so dropping the decode
        // share swings the comparison for modest list lengths.
        let mut flipped = None;
        for exp in 13..24 {
            let long = 1usize << exp;
            let short = long / 8;
            let t = s.decide_traced(short, long, Proc::Cpu);
            if t.chosen != Decision::Gpu {
                continue;
            }
            let r = s.decide_traced_resident(
                short,
                long,
                Proc::Cpu,
                Residency {
                    host_cached: true,
                    device_cached: false,
                },
            );
            if r.cache_flip {
                assert_eq!(r.chosen, Decision::Cpu);
                assert_eq!(r.baseline, Decision::Gpu);
                flipped = Some((short, long));
                break;
            }
        }
        assert!(
            flipped.is_some(),
            "no Gpu→Cpu flip found across the sweep — residency override inert"
        );
    }

    #[test]
    fn device_residency_can_flip_cpu_to_gpu() {
        let s = k20_scheduler();
        // An operation the floor keeps off the device despite a low
        // ratio: resident, the PCIe term is gone and the device wins.
        // The window sits just under `min_gpu_work` (the floor's doubling
        // scan overshoots the true crossover), so scan densely below it.
        let floor = s.min_gpu_work;
        let step = (floor / 256).max(1);
        let mut flipped = false;
        let mut long = floor.saturating_sub(1);
        while long >= 256 {
            let short = long / 4;
            let t = s.decide_traced(short, long, Proc::Cpu);
            assert_eq!(t.chosen, Decision::Cpu, "below the floor is CPU-only");
            let r = s.decide_traced_resident(
                short,
                long,
                Proc::Cpu,
                Residency {
                    host_cached: false,
                    device_cached: true,
                },
            );
            if r.cache_flip {
                assert_eq!(r.chosen, Decision::Gpu);
                flipped = true;
                break;
            }
            long -= step;
        }
        assert!(flipped, "no Cpu→Gpu flip found below the work floor");
    }

    #[test]
    fn host_residency_shrinks_split_fractions() {
        let s = k20_scheduler();
        let (short, long) = (1 << 13, (1 << 13) * 128);
        let blind = s.decide_traced(short, long, Proc::Cpu);
        let Decision::Split { gpu_fraction: cold } = blind.chosen else {
            panic!("expected a baseline split, got {:?}", blind.chosen);
        };
        let r = s.decide_traced_resident(
            short,
            long,
            Proc::Cpu,
            Residency {
                host_cached: true,
                device_cached: false,
            },
        );
        match r.chosen {
            Decision::Split { gpu_fraction } => {
                assert!(
                    gpu_fraction <= cold,
                    "resident host lane must not grow the device share ({cold} -> {gpu_fraction})"
                );
                assert!(r.cache_flip == (gpu_fraction != cold));
            }
            Decision::Cpu => assert!(r.cache_flip),
            other => panic!("host residency produced {other:?}"),
        }
    }

    #[test]
    fn forced_fractions_ignore_residency() {
        let s = Scheduler {
            split: Some(SplitConfig::forced(0.25)),
            ..k20_scheduler()
        };
        let r = s.decide_traced_resident(
            100_000,
            400_000,
            Proc::Cpu,
            Residency {
                host_cached: true,
                device_cached: true,
            },
        );
        assert_eq!(r.chosen, Decision::Split { gpu_fraction: 0.25 });
        assert!(!r.cache_flip);
    }

    #[test]
    fn balancer_shifts_work_toward_the_late_lane() {
        let mut b = SplitBalancer::default();
        // CPU lane twice as slow: the device should take more next time.
        b.observe(2_000, 1_000);
        assert!(b.bias > 1.0);
        assert!(b.refine(0.5) > 0.5);
        // Symmetric correction pulls it back.
        b.observe(1_000, 2_000);
        assert!((b.bias - 1.0).abs() < 1e-9);
        // Degenerate lanes carry no signal.
        b.observe(0, 5_000);
        assert!((b.bias - 1.0).abs() < 1e-9);
        // The bias and the refined fraction are clamped.
        for _ in 0..64 {
            b.observe(1_000_000, 1);
        }
        assert!(b.bias <= SplitBalancer::LIMIT);
        assert!(b.refine(1.0) <= 0.98);
    }
}
