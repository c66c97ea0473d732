//! Passive observation hooks for the simulated device.
//!
//! Telemetry lives *outside* this crate; the device only exposes a
//! callback installed with [`crate::Gpu::set_observer`]. Observers are
//! strictly read-only: they run after the virtual clock has already
//! advanced and receive borrowed event data, so installing one can never
//! change functional results or virtual timings.

use crate::clock::VirtualNanos;
use crate::device::LaunchReport;
use crate::stream::StreamKind;

/// Direction of a PCIe transfer, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host → device (upload).
    HtoD,
    /// Device → host (download).
    DtoH,
}

impl TransferDir {
    pub fn as_str(self) -> &'static str {
        match self {
            TransferDir::HtoD => "htod",
            TransferDir::DtoH => "dtoh",
        }
    }
}

/// What the device's caching allocator has done since the device was
/// created (see [`crate::Gpu::alloc`]). Allocations and frees are not
/// events of their own; every event carries the totals as they stood when
/// it was emitted, so an observer that wants rates takes differences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list: no driver call.
    pub hits: u64,
    /// Allocations that went to `cudaMalloc`.
    pub misses: u64,
    /// Cached blocks given back to the driver (`cudaFree`) to make room or
    /// by [`crate::Gpu::trim_pool`].
    pub trimmed: u64,
    /// [`crate::Gpu::mem_cached`] at that moment.
    pub cached_bytes: u64,
}

/// One observable device operation.
#[derive(Debug)]
pub enum DeviceEvent<'a> {
    /// A kernel launch retired.
    KernelLaunch {
        /// Kernel name (see [`crate::Kernel::name`]).
        name: &'static str,
        /// Device virtual time when the launch started.
        start: VirtualNanos,
        /// Full launch report: duration, breakdown, warp counters.
        report: &'a LaunchReport,
        pool: PoolStats,
    },
    /// A PCIe DMA transfer completed.
    Transfer {
        direction: TransferDir,
        bytes: u64,
        /// Device virtual time when the transfer started.
        start: VirtualNanos,
        duration: VirtualNanos,
        pool: PoolStats,
    },
}

impl DeviceEvent<'_> {
    /// The stream (engine timeline) this event executed on: kernels run
    /// on the compute engine, PCIe transfers on the copy engine. Exports
    /// use this to put each event on its own trace lane so copy/compute
    /// overlap is visible.
    pub fn stream(&self) -> StreamKind {
        match self {
            DeviceEvent::KernelLaunch { .. } => StreamKind::Compute,
            DeviceEvent::Transfer { .. } => StreamKind::Copy,
        }
    }
}

/// Callback type for [`crate::Gpu::set_observer`].
pub type DeviceObserver = dyn Fn(&DeviceEvent<'_>) + Send + Sync;
