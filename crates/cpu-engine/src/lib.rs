//! # griffin-cpu — the state-of-the-art CPU query engine
//!
//! Implements the paper's CPU baseline (§2.2, §3 "The CPU query processing
//! component implements state-of-the-art CPU query algorithms"):
//!
//! * block-wise decompression of PforDelta / Elias–Fano / VByte lists;
//! * **SvS** conjunctive query processing — pairwise intersections from the
//!   two shortest lists outward;
//! * two pairwise intersection strategies, chosen by list-length ratio:
//!   linear **merge** when lengths are comparable (great locality) and
//!   **skip-pointer binary search** when they differ widely (skips both
//!   comparisons and block decompression);
//! * **BM25** scoring accumulated incrementally through the intersections,
//!   and `partial_sort`-style top-k selection.
//!
//! All operations run for real (bit-exact results) while recording
//! [`WorkCounters`]; the [`cost`] model converts the counters into virtual
//! nanoseconds on a calibrated Xeon E5-2609v2-like core, putting the CPU
//! engine in the same time domain as the simulated GPU.

pub mod cost;
pub mod decode;
pub mod engine;
pub mod intersect;
pub mod lru;
pub mod setops;
pub mod simd;
pub mod topk;

pub use cost::{CpuConfig, CpuCostModel, WorkCounters};
pub use engine::{ChainResult, CpuEngine, Intermediate, PruneStats, PrunedOutput, QueryOutput};
pub use intersect::Matches;
pub use lru::{CacheStats, Lru};
pub use simd::{ForceMode, KernelPath};
