//! # griffin-suite — the Griffin workspace umbrella
//!
//! Re-exports the public API of every Griffin crate so the examples and
//! cross-crate integration tests have a single import root. Library users
//! should depend on the individual crates:
//!
//! * [`griffin`] — the hybrid engine and scheduler (start here);
//! * [`griffin_cpu`] / [`griffin_gpu`] — the two execution engines;
//! * [`griffin_index`] / [`griffin_codec`] — index and compression;
//! * [`griffin_gpu_sim`] — the simulated device;
//! * [`griffin_workload`] — synthetic corpora, queries, statistics;
//! * [`oracle`] — the naive reference the integration suites check every
//!   answer against.

pub mod oracle;

pub use griffin;
pub use griffin_codec;
pub use griffin_cpu;
pub use griffin_gpu;
pub use griffin_gpu_sim;
pub use griffin_index;
pub use griffin_workload;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use griffin::{ExecMode, Griffin, GriffinOutput, Proc, QueryRequest, Scheduler};
    pub use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
    pub use griffin_cpu::CpuEngine;
    pub use griffin_gpu::GpuEngine;
    pub use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
    pub use griffin_index::{IndexBuilder, InvertedIndex, TermId};
    pub use griffin_workload::{
        build_list_index, build_text_index, CorpusSpec, ListIndexSpec, QueryLogSpec,
    };
}
