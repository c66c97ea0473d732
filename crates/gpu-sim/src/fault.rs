//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] — armed on a built device with
//! [`crate::Gpu::set_fault_plan`] — makes device operations
//! fail on a seeded, reproducible schedule. Faults can be pinned to exact
//! operation indices (`fail_at`) or drawn per-class from a seeded RNG
//! (`*_fault_rate`); [`FaultPlan::lose_device_at`] drops the device off the
//! bus *stickily*, failing every subsequent operation.
//!
//! Failed attempts still cost virtual time: a kernel that aborts at retire
//! charges its full modelled duration, a failed DMA charges the transfer
//! time, and only a lost device fails fast (the fixed submission overhead).
//! This keeps recovery experiments honest — retries are not free.
//!
//! With no plan installed (or a plan where [`FaultPlan::is_noop`] holds),
//! the device behaves bit-identically to a build without this module:
//! same outputs, same virtual timings, same observer events.
//!
//! ## Faults under asynchronous streams
//!
//! Fault decisions are made at *issue* time in program order, so an op's
//! index is the same whether overlap ([`crate::Gpu::windowed`]) is on or
//! off — a chaos schedule reproduces identically in both modes. Error
//! *surfacing* is a synchronization point (as with a real driver): the
//! clock first advances over all in-flight stream work, then the failed
//! attempt is charged, so spans measured around fallible operations stay
//! exact. A fault injected into an in-flight *prefetch* is held by the
//! engine and charged to the operation that consumes the prefetched data
//! (see `griffin-gpu`'s prefetch pipeline).

use std::error::Error;
use std::fmt;

use crate::observe::TransferDir;

/// The ways a device operation can fail.
///
/// `op_index` is the zero-based index of the failing operation among all
/// fallible operations (allocations, transfers, kernel launches) issued
/// since the fault plan was installed — useful for correlating an error
/// with a [`FaultPlan`] schedule in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// A kernel launch aborted before its stores became visible.
    KernelLaunchFailed { op_index: u64 },
    /// A PCIe DMA transfer failed; no data reached the other side.
    TransferError { dir: TransferDir, op_index: u64 },
    /// The allocation did not fit in device memory (real exhaustion or an
    /// injected allocator failure).
    DeviceOom {
        requested_bytes: u64,
        in_use_bytes: u64,
        capacity_bytes: u64,
    },
    /// The device dropped off the bus. Sticky: every later operation fails
    /// with this error until a new fault plan resets the device.
    DeviceLost { op_index: u64 },
}

impl DeviceError {
    /// Transient errors may succeed on retry; a lost device never comes
    /// back (within one plan's lifetime).
    pub fn is_transient(&self) -> bool {
        !matches!(self, DeviceError::DeviceLost { .. })
    }

    /// Stable label for metrics (`griffin_fault_*` counter tags).
    pub fn kind_label(&self) -> &'static str {
        match self {
            DeviceError::KernelLaunchFailed { .. } => "kernel_launch_failed",
            DeviceError::TransferError { .. } => "transfer_error",
            DeviceError::DeviceOom { .. } => "device_oom",
            DeviceError::DeviceLost { .. } => "device_lost",
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::KernelLaunchFailed { op_index } => {
                write!(f, "kernel launch failed (device op #{op_index})")
            }
            DeviceError::TransferError { dir, op_index } => {
                write!(
                    f,
                    "{} transfer failed (device op #{op_index})",
                    dir.as_str()
                )
            }
            DeviceError::DeviceOom {
                requested_bytes,
                in_use_bytes,
                capacity_bytes,
            } => write!(
                f,
                "device out of memory: requested {requested_bytes} B with \
                 {in_use_bytes}/{capacity_bytes} B in use"
            ),
            DeviceError::DeviceLost { op_index } => {
                write!(f, "device lost (since device op #{op_index})")
            }
        }
    }
}

impl Error for DeviceError {}

/// Fault classes a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    KernelLaunchFailed,
    TransferError {
        dir: TransferDir,
    },
    DeviceOom,
    /// Sticky: once fired, every subsequent operation fails.
    DeviceLost,
}

/// A deterministic schedule of device faults.
///
/// The same plan (same seed, same rates, same pinned indices) always
/// produces the same fault sequence for the same operation stream — the
/// property the chaos test suite and `exp_faults` rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-class probability draws.
    pub seed: u64,
    /// Probability in `[0, 1]` that a kernel launch fails.
    pub kernel_fault_rate: f64,
    /// Probability in `[0, 1]` that a PCIe transfer fails.
    pub transfer_fault_rate: f64,
    /// Probability in `[0, 1]` that an allocation fails with OOM.
    pub oom_fault_rate: f64,
    /// Faults pinned to exact operation indices (fired regardless of the
    /// probability draws). A pinned `DeviceLost` becomes sticky.
    pub at: Vec<(u64, FaultKind)>,
    /// Lose the device at this operation index (sticky from there on).
    pub lost_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (until rates or pinned faults are added).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            kernel_fault_rate: 0.0,
            transfer_fault_rate: 0.0,
            oom_fault_rate: 0.0,
            at: Vec::new(),
            lost_at: None,
        }
    }

    pub fn with_kernel_fault_rate(mut self, rate: f64) -> Self {
        self.kernel_fault_rate = rate;
        self
    }

    pub fn with_transfer_fault_rate(mut self, rate: f64) -> Self {
        self.transfer_fault_rate = rate;
        self
    }

    pub fn with_oom_fault_rate(mut self, rate: f64) -> Self {
        self.oom_fault_rate = rate;
        self
    }

    /// Applies `rate` to kernels, transfers, and allocations alike.
    pub fn with_fault_rate(self, rate: f64) -> Self {
        self.with_kernel_fault_rate(rate)
            .with_transfer_fault_rate(rate)
            .with_oom_fault_rate(rate)
    }

    /// Pins a fault of `kind` to operation index `op`.
    pub fn fail_at(mut self, op: u64, kind: FaultKind) -> Self {
        self.at.push((op, kind));
        self
    }

    /// Loses the device stickily at operation index `op`.
    pub fn lose_device_at(mut self, op: u64) -> Self {
        self.lost_at = Some(op);
        self
    }

    /// True when the plan can never fire a fault. An armed no-op plan is
    /// observationally identical to no plan at all.
    pub fn is_noop(&self) -> bool {
        self.kernel_fault_rate <= 0.0
            && self.transfer_fault_rate <= 0.0
            && self.oom_fault_rate <= 0.0
            && self.at.is_empty()
            && self.lost_at.is_none()
    }
}

/// SplitMix64 — tiny, deterministic, dependency-free. Each fallible device
/// operation whose class has a nonzero rate consumes exactly one draw, so
/// the stream is stable under changes to *other* classes' rates.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The operation class a fault check is made for (determines which rate
/// applies and what error an unpinned fault maps to).
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpClass {
    Kernel,
    Transfer(TransferDir),
    Alloc,
}

/// Mutable state behind a running fault plan.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    lost: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultState {
            plan,
            rng,
            lost: false,
        }
    }

    /// Decides whether operation `op_index` of class `class` faults, and
    /// with what kind. Pinned faults win over probability draws; a lost
    /// device wins over everything.
    pub(crate) fn fire(&mut self, op_index: u64, class: OpClass) -> Option<FaultKind> {
        if self.lost {
            return Some(FaultKind::DeviceLost);
        }
        if self.plan.lost_at.is_some_and(|at| op_index >= at) {
            self.lost = true;
            return Some(FaultKind::DeviceLost);
        }
        if let Some(&(_, kind)) = self.plan.at.iter().find(|&&(i, _)| i == op_index) {
            if kind == FaultKind::DeviceLost {
                self.lost = true;
            }
            return Some(kind);
        }
        let rate = match class {
            OpClass::Kernel => self.plan.kernel_fault_rate,
            OpClass::Transfer(_) => self.plan.transfer_fault_rate,
            OpClass::Alloc => self.plan.oom_fault_rate,
        };
        if rate > 0.0 && self.rng.next_f64() < rate {
            return Some(match class {
                OpClass::Kernel => FaultKind::KernelLaunchFailed,
                OpClass::Transfer(dir) => FaultKind::TransferError { dir },
                OpClass::Alloc => FaultKind::DeviceOom,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn pinned_faults_fire_at_their_index() {
        let plan = FaultPlan::seeded(1)
            .fail_at(3, FaultKind::KernelLaunchFailed)
            .fail_at(5, FaultKind::DeviceOom);
        let mut st = FaultState::new(plan);
        for op in 0..8u64 {
            let fired = st.fire(op, OpClass::Kernel);
            match op {
                3 => assert_eq!(fired, Some(FaultKind::KernelLaunchFailed)),
                5 => assert_eq!(fired, Some(FaultKind::DeviceOom)),
                _ => assert_eq!(fired, None),
            }
        }
    }

    #[test]
    fn device_loss_is_sticky() {
        let mut st = FaultState::new(FaultPlan::seeded(7).lose_device_at(2));
        assert_eq!(st.fire(0, OpClass::Kernel), None);
        assert_eq!(st.fire(1, OpClass::Alloc), None);
        for op in 2..10u64 {
            assert_eq!(
                st.fire(op, OpClass::Transfer(TransferDir::HtoD)),
                Some(FaultKind::DeviceLost),
                "op {op}"
            );
        }
    }

    #[test]
    fn pinned_device_lost_is_sticky_too() {
        let mut st = FaultState::new(FaultPlan::seeded(7).fail_at(4, FaultKind::DeviceLost));
        assert_eq!(st.fire(3, OpClass::Kernel), None);
        assert_eq!(st.fire(4, OpClass::Kernel), Some(FaultKind::DeviceLost));
        assert_eq!(st.fire(5, OpClass::Alloc), Some(FaultKind::DeviceLost));
    }

    #[test]
    fn rates_draw_deterministically_per_seed() {
        let fired = |seed: u64| -> Vec<u64> {
            let mut st = FaultState::new(FaultPlan::seeded(seed).with_kernel_fault_rate(0.25));
            (0..100u64)
                .filter(|&op| st.fire(op, OpClass::Kernel).is_some())
                .collect()
        };
        assert_eq!(fired(9), fired(9));
        assert_ne!(fired(9), fired(10), "different seeds, different schedule");
        let n = fired(9).len();
        assert!(
            (10..=45).contains(&n),
            "~25% of 100 ops should fire, got {n}"
        );
    }

    #[test]
    fn class_rates_are_independent_streams() {
        // A transfer-only rate must not consume draws on kernel ops.
        let mut st = FaultState::new(FaultPlan::seeded(3).with_transfer_fault_rate(0.5));
        for op in 0..50u64 {
            assert_eq!(st.fire(op, OpClass::Kernel), None);
        }
        let mut st2 = FaultState::new(FaultPlan::seeded(3).with_transfer_fault_rate(0.5));
        let hits: usize = (0..50u64)
            .filter(|&op| st2.fire(op, OpClass::Transfer(TransferDir::DtoH)).is_some())
            .count();
        assert!(hits > 5, "a 50% rate must actually fire ({hits})");
    }

    #[test]
    fn noop_plans_are_recognized() {
        assert!(FaultPlan::seeded(0).is_noop());
        assert!(!FaultPlan::seeded(0).with_fault_rate(0.01).is_noop());
        assert!(!FaultPlan::seeded(0).lose_device_at(0).is_noop());
        assert!(!FaultPlan::seeded(0)
            .fail_at(1, FaultKind::DeviceOom)
            .is_noop());
    }
}
