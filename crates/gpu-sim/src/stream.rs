//! Asynchronous streams: per-engine virtual timelines.
//!
//! A real Kepler-class device has (at least) two independent engines — a
//! copy engine driving the PCIe DMA and a compute engine executing
//! kernels — and CUDA exposes them through *streams*: work items in one
//! stream execute in issue order, work items in different streams may
//! overlap. Griffin's biggest modeled-latency win (paper Figs. 10–11) is
//! hiding the next operation's long-list upload behind the current
//! operation's Para-EF decode + MergePath intersection, which requires
//! exactly this model.
//!
//! ## Timing semantics
//!
//! The device keeps one `busy_until` frontier per [`StreamKind`] alongside
//! the host-visible clock ([`crate::Gpu::now`]). Whether it may overlap
//! at all is a fact of the device: [`crate::Gpu::windowed`] opens an
//! async window only on a device with a copy engine
//! ([`crate::config::DeviceConfig::copy_engines`] ≥ 1, CUDA's
//! `asyncEngineCount`); with none, everything runs serially. Inside a
//! window:
//!
//! * an operation issued on stream `s` *starts* at
//!   `max(busy_until[s], host clock, waited events)` and occupies the
//!   stream until `start + duration` — two operations on the same stream
//!   can never overlap, operations on different streams can;
//! * [`crate::Gpu::record_event`] captures a stream's current frontier as
//!   a [`StreamEvent`];
//! * [`crate::Gpu::stream_wait`] raises another stream's floor to an
//!   event (`cudaStreamWaitEvent`): later work on that stream starts no
//!   earlier than the event;
//! * [`crate::Gpu::wait_event`] / [`crate::Gpu::sync`] advance the host
//!   clock to the event / to every stream's frontier (`cudaEventSynchronize`
//!   / `cudaDeviceSynchronize`). Completion time is therefore the **max
//!   over dependency chains** — the critical path — instead of the serial
//!   sum.
//!
//! ## Functional semantics
//!
//! Functional execution stays *issue-ordered*: a transfer's bytes land in
//! device memory and a kernel's stores are applied at issue time, exactly
//! as in serial mode. Only the *timing* is scheduled onto the stream
//! timelines. Since engines always issue a transfer before the kernel
//! that consumes it (and declare the dependency with
//! [`crate::Gpu::stream_wait`] so the timing respects it too), results
//! are bit-exact with overlap on or off — by construction, not by luck.

use crate::clock::VirtualNanos;

/// The hardware engine a stream schedules onto.
///
/// The simulator models the two engines relevant to Griffin: the PCIe
/// copy engine and the SMX compute engine. (A K20 actually has two copy
/// engines, one per direction; `dtoh` is host-blocking in this model so a
/// single copy timeline suffices — see [`crate::config::DeviceConfig::copy_engines`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Kernel launches.
    Compute,
    /// PCIe DMA transfers.
    Copy,
}

/// Total number of stream timelines the device keeps.
pub const NUM_STREAMS: usize = 2;

impl StreamKind {
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            StreamKind::Compute => 0,
            StreamKind::Copy => 1,
        }
    }

    /// Stable label for telemetry lanes ("gpu-compute" / "gpu-copy").
    pub fn as_str(self) -> &'static str {
        match self {
            StreamKind::Compute => "gpu-compute",
            StreamKind::Copy => "gpu-copy",
        }
    }
}

/// Completion marker of asynchronously issued work (`cudaEventRecord`).
///
/// An event is just a point on the virtual timeline: the time at which
/// everything issued on its stream so far has retired. Events are `Copy`
/// and totally ordered, so "max over dependency chains" is literally
/// `Iterator::max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StreamEvent {
    ready: VirtualNanos,
}

impl StreamEvent {
    /// An event that is already complete at time zero — the identity for
    /// dependency maxes.
    pub const READY: StreamEvent = StreamEvent {
        ready: VirtualNanos::ZERO,
    };

    #[inline]
    pub(crate) fn at(ready: VirtualNanos) -> StreamEvent {
        StreamEvent { ready }
    }

    /// The virtual time at which the recorded work completes.
    #[inline]
    pub fn ready_at(self) -> VirtualNanos {
        self.ready
    }
}

/// Per-device stream state, guarded by one mutex on the [`crate::Gpu`].
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    /// Whether async scheduling is on. Off (the default) reproduces the
    /// historical strictly serial clock bit-for-bit.
    pub enabled: bool,
    /// Retire frontier of each stream, in ns (indexed by
    /// [`StreamKind::index`]).
    pub busy_until: [u64; NUM_STREAMS],
}

impl StreamTable {
    /// Max retire frontier across all streams.
    #[inline]
    pub fn frontier(&self) -> u64 {
        self.busy_until[0].max(self.busy_until[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_order_by_time() {
        let a = StreamEvent::at(VirtualNanos::from_nanos(10));
        let b = StreamEvent::at(VirtualNanos::from_nanos(30));
        assert!(a < b);
        assert_eq!([a, b, StreamEvent::READY].iter().max(), Some(&b));
        assert_eq!(b.ready_at().as_nanos(), 30);
    }

    #[test]
    fn stream_labels_are_lane_names() {
        assert_eq!(StreamKind::Compute.as_str(), "gpu-compute");
        assert_eq!(StreamKind::Copy.as_str(), "gpu-copy");
        assert_ne!(StreamKind::Compute.index(), StreamKind::Copy.index());
    }
}
