//! # griffin-gpu-sim — a software SIMT GPU simulator
//!
//! This crate is the hardware substrate for the Griffin reproduction. The
//! original paper runs CUDA kernels on an NVIDIA Tesla K20; this crate
//! provides a *software* device with the same programming model so that the
//! paper's kernels (Para-EF decompression, MergePath intersection, parallel
//! binary search, bucket-select, radix sort) can be implemented, executed
//! bit-exactly, and *timed* under a calibrated analytic model.
//!
//! ## Execution model
//!
//! A [`Gpu`] owns device memory (a pool of word-addressed buffers) and a
//! virtual clock. Kernels implement the [`Kernel`] trait: a grid of blocks,
//! each block a set of threads grouped into 32-lane warps. A kernel runs in
//! one or more *phases*; a phase boundary is a block-wide barrier
//! (`__syncthreads`). Per-thread registers live in `Kernel::State` and
//! persist across phases.
//!
//! Functional semantics:
//! * global reads observe the state of device memory *at launch time*
//!   (CUDA offers no global coherence within a launch either);
//! * global writes are logged and applied when the launch retires;
//! * shared memory is per-block and coherent across phases;
//! * block-local atomics (`atomic_add_shared`) are sequentially consistent.
//!
//! Blocks are independent. A launch runs them in block order on the calling
//! thread, and its stores retire in that order (DESIGN.md, "How a launch
//! executes on the host").
//!
//! ## Timing model
//!
//! Every memory access, charged ALU op, and branch flows through
//! [`ThreadCtx`], which records per-warp counters on a *sample* of warps
//! (exact functional execution, sampled performance tracing — the standard
//! trick for fast performance models). A block with no sampled warp
//! contributes only its stores, so a kernel may compute them with a
//! block-level native twin ([`Kernel::run_block_native`], through
//! [`BlockMem`]) instead of thread by thread; in a traced block the twin
//! computes, only the sampled warps then run, given the block's shared
//! memory at each barrier ([`Kernel::barrier_images`]) when it has some.
//! A launch the device has run before under an exact key
//! ([`Kernel::memo_key`], [`LaunchKey`]) is replayed: every block runs as
//! the twin, and the counters are the first run's.
//! [`timing`] converts the extrapolated
//! counters into virtual nanoseconds using an occupancy/roofline model:
//! kernel-launch overhead, issue-throughput-bound compute time,
//! bandwidth-bound memory time with measured coalescing, a latency floor for
//! under-occupied launches, and branch-divergence serialization.
//!
//! Host↔device traffic goes through the [`pcie`] model (fixed latency +
//! bandwidth), and `cudaMalloc` and `cudaFree` charge an overhead — exactly
//! the overheads the paper's scheduler must amortize. Scratch comes from a
//! caching allocator ([`Gpu::alloc`]): a freed block is handed out again
//! without a driver call, so a device pays for its working set once. A
//! [`Scope`] owns what one call allocates and frees it on every exit path
//! (DESIGN.md, "Who frees device memory").
//!
//! ## Fault injection
//!
//! Allocations, transfers, and launches are fallible — they return
//! [`DeviceError`] on memory exhaustion and on faults injected by a
//! seeded, deterministic [`FaultPlan`] armed on a built device with
//! [`Gpu::set_fault_plan`]. A failed attempt still advances the virtual
//! clock by its modelled cost, so recovery policies pay realistic retry
//! latency. With no plan installed the fallible paths cost one relaxed
//! atomic load and behave bit-identically to a fault-free build. See
//! [`fault`] for the fault taxonomy and determinism guarantees.
//!
//! ## Quick example
//!
//! ```
//! use griffin_gpu_sim::{Gpu, DeviceConfig, Kernel, ThreadCtx, LaunchConfig};
//!
//! /// Doubles every element of a buffer.
//! struct DoubleKernel {
//!     src: griffin_gpu_sim::DeviceBuffer<u32>,
//!     dst: griffin_gpu_sim::DeviceBuffer<u32>,
//!     n: usize,
//! }
//! impl Kernel for DoubleKernel {
//!     type State = ();
//!     fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
//!         let i = t.global_thread_idx();
//!         if t.branch(i < self.n) {
//!             let v: u32 = t.ld(&self.src, i);
//!             t.alu(1);
//!             t.st(&self.dst, i, v * 2);
//!         }
//!     }
//! }
//!
//! let gpu = Gpu::new(DeviceConfig::tesla_k20());
//! let data: Vec<u32> = (0..1000).collect();
//! let src = gpu.htod(&data).expect("upload");
//! let dst = gpu.alloc::<u32>(1000).expect("alloc");
//! let k = DoubleKernel { src: src.clone(), dst: dst.clone(), n: 1000 };
//! let report = gpu.launch(&k, LaunchConfig::cover(1000, 256)).expect("launch");
//! assert!(report.time.as_nanos() > 0);
//! let out = gpu.dtoh(&dst).expect("download");
//! assert_eq!(out[7], 14);
//! ```

pub mod clock;
pub mod config;
pub mod device;
pub mod fault;
pub mod kernel;
pub mod mem;
pub mod observe;
pub mod pcie;
#[cfg(test)]
mod replay;
pub mod scope;
pub mod stream;
pub mod timing;
pub mod tracer;

pub use clock::VirtualNanos;
pub use config::{CostParams, DeviceConfig, PcieConfig};
pub use device::{Gpu, LaunchReport};
pub use fault::{DeviceError, FaultKind, FaultPlan};
pub use kernel::{BarrierImages, BlockMem, Kernel, LaunchConfig, LaunchKey, ThreadCtx};
pub use mem::{DeviceBuffer, DeviceWord};
pub use observe::{DeviceEvent, DeviceObserver, PoolStats, TransferDir};
pub use scope::Scope;
pub use stream::{StreamEvent, StreamKind};
pub use tracer::{LaunchCounters, Op};
