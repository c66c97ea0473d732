//! # griffin-gpu — the Griffin-GPU search engine (paper §3.1)
//!
//! The GPU side of Griffin, running on the [`griffin_gpu_sim`] device. Two
//! key algorithms:
//!
//! * **Para-EF decompression** ([`para_ef`], paper Algorithm 1): popcount
//!   over the Elias–Fano high-bits words, a prefix sum, a scatter phase
//!   that schedules one slot per decompressed element, and a recover phase
//!   that reconstructs each value independently — all inside the posting
//!   block, one warp per block, docIDs and term frequencies in one launch.
//! * **MergePath intersection** ([`mergepath`], paper Figs. 5–6, after
//!   Green et al.): diagonal binary searches find perfectly load-balanced
//!   partitions of the two lists; each partition is merged serially in
//!   shared memory, with no inter-thread synchronization.
//!
//! Plus the supporting cast: parallel binary search over skip pointers with
//! selective block decompression ([`gpu_binary`]), device-wide scan
//! ([`scan`]), GPU bucket-select and radix-sort rankers for the Fig. 7
//! study ([`bucket_select`], [`radix_sort`]), device list layouts and
//! transfers ([`transfer`]), and the query-step engine ([`engine`]).
//!
//! Every driver here owns the device memory it allocates through a
//! [`griffin_gpu_sim::Scope`]: a device fault is a `?`, and nothing the
//! faulted step allocated outlives it. Temporaries that die mid-function
//! are released there with `Scope::free`, because a free's position is
//! part of the modelled time (DESIGN.md, "Who frees device memory").

pub mod bucket_select;
pub mod engine;
pub mod error;
pub mod gpu_binary;
pub mod mergepath;
mod native;
pub mod para_ef;
pub mod radix_sort;
pub mod scan;
pub mod transfer;

pub use engine::{DeviceCacheStats, DeviceIntermediate, GpuEngine, GpuQueryOutput, HullLedger};
pub use error::GpuError;
pub use transfer::{DeviceEfList, DevicePostings};
