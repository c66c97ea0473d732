//! # griffin — uniting CPU and GPU for intra-query parallelism
//!
//! The paper's primary contribution (PPoPP'18): an information-retrieval
//! query engine that processes *parts of a single query* on whichever
//! processor suits the operation's current characteristics, migrating
//! execution between a state-of-the-art CPU engine ([`griffin_cpu`]) and
//! the Griffin-GPU engine ([`griffin_gpu`]) as the query's list-length
//! ratios drift.
//!
//! The key observation (paper §3.2): as SvS processing proceeds, the
//! intermediate result shrinks monotonically while the remaining lists
//! grow, so the length ratio of each pairwise intersection rises. Below a
//! crossover ratio tied to the 128-element block size, the GPU's
//! parallel decompression + MergePath intersection wins; above it, the
//! CPU's skip-pointer binary search — which avoids decompressing skipped
//! blocks entirely — wins. Griffin's [`sched::Scheduler`] applies this
//! rule *per operation*, accounting for where the data currently lives
//! (PCIe transfers are charged by the device model).
//!
//! [`engine::Griffin`] is the entry point; [`serving`] defines the
//! per-query stage vocabulary that `griffin-server`'s multi-query event
//! simulation replays for the paper's tail-latency (Fig. 15) study.

pub mod cost;
pub mod engine;
pub mod fleet;
pub mod plan;
pub mod query;
pub mod request;
pub mod rescache;
pub mod sched;
pub mod serving;

pub use cost::{CostModel, DeviceStepCounts};
pub use engine::{ExecMode, Griffin, GriffinOutput, RecoveryPolicy, Search, StepOp, StepTrace};
pub use fleet::{merge_topk, FleetInfo, ShardOutcome, ShardStatus, ShardedIndex};
pub use griffin_cpu::{CacheStats, PruneStats};
pub use plan::{Plan, PlanNode, Planner};
pub use query::Query;
pub use request::{QueryError, QueryRequest};
pub use rescache::{CachedResult, ResultCache, RESULT_CACHE_LOOKUP};
pub use sched::{Decision, DecisionTrace, Proc, Residency, Scheduler, SplitBalancer, SplitConfig};
pub use serving::{Resource, StageReq};
