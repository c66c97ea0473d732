//! # griffin-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p griffin-bench --release --bin exp_<id>`).
//!
//! Experiment binaries print *virtual-time* results from the calibrated
//! device/CPU models — deterministic and host-independent; see
//! EXPERIMENTS.md for the paper-vs-measured record. Wall-clock speed is
//! measured by the stand-alone `benchmark/` package, not here.
//!
//! Scale: every experiment accepts `GRIFFIN_SCALE` (float, default 1.0)
//! to grow/shrink sample counts, and `GRIFFIN_FULL=1` to include the
//! largest (10M-element) size points.

pub mod artifacts;
pub mod intersect_harness;
pub mod report;
pub mod setup;
pub mod snapshot;

pub use artifacts::Artifacts;
pub use report::Table;
pub use setup::{full_scale, k20, scale};
pub use snapshot::Snapshot;
