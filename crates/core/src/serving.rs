//! The serving vocabulary (paper §4.4–4.5): a query under load is a
//! sequence of *stages*, each pinned to a shared resource (a CPU core or
//! the single GPU).
//!
//! The paper's end-to-end and tail-latency numbers come from streaming
//! 10 000 real queries through the system; latency includes queueing on
//! those shared resources. The discrete-event scheduler that interleaves
//! the stages of concurrent queries lives in `griffin-server`
//! (`ServerSim`); this module only defines what it schedules, so the
//! engine-side trace → stage bridge and the scheduler agree on one type.

use griffin_gpu_sim::VirtualNanos;

/// A serving resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// One of the CPU worker cores.
    Cpu,
    /// The single GPU.
    Gpu,
}

/// One stage of a query's execution: run for `duration` on `resource`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReq {
    pub resource: Resource,
    pub duration: VirtualNanos,
    /// Host-core time that runs *concurrently* with this stage — the CPU
    /// lane of a co-executed split intersection shadowing its GPU lane.
    /// Always `<= duration` (the engine records a split step as the max
    /// of its lanes). The `griffin-server` scheduler occupies a CPU core
    /// for the shadow so co-execution's host-side pressure shows up
    /// under load.
    pub cpu_shadow: VirtualNanos,
}

impl StageReq {
    /// A stage with no concurrent host shadow (every stage except a
    /// co-executed split intersection).
    pub fn new(resource: Resource, duration: VirtualNanos) -> StageReq {
        StageReq {
            resource,
            duration,
            cpu_shadow: VirtualNanos::ZERO,
        }
    }
}
