//! # griffin-server — the end-to-end serving pipeline
//!
//! The engine crates answer *one query at a time*; this crate answers a
//! *stream*. It takes each query through the hybrid engine, converts
//! the engine's measured per-operation schedule (its [`StepTrace`]
//! sequence) into serving stages, and replays the stream through a
//! discrete-event simulator modelling N CPU cores sharing one GPU —
//! the paper's tail-latency setting (Fig. 15), extended with the three
//! disciplines a loaded node needs:
//!
//! * **Admission control** ([`AdmissionConfig`]): a bounded in-flight
//!   queue, with load-shedding or degrade-to-CPU-only when the GPU
//!   backlog crosses a threshold.
//! * **GPU batch packing** ([`BatchConfig`]): adjacent small device
//!   stages from different queries coalesce into one launch, paying the
//!   fixed kernel-launch/allocation overhead once per batch instead of
//!   once per stage.
//! * **Deadlines**: [`QueryRequest::deadline`](griffin::QueryRequest) is carried through and
//!   every served query reports whether it met its budget.
//! * **GPU health breaker** ([`GpuHealth`]): a circuit breaker over
//!   per-query device-fault outcomes. A sliding window of faulting
//!   queries trips the GPU lane to CPU-only *degraded* planning (zero
//!   drops); after a virtual-time cooldown, canary probes close it
//!   again once the device behaves.
//! * **Latency forensics** ([`FlightRecorder`], [`SloMonitor`]): a tail
//!   flight recorder that retains the slowest queries with their
//!   attribution profiles and one-line dominant-cause verdicts, and a
//!   multi-window SLO burn-rate monitor whose early-warning signal the
//!   admission/breaker layers can consume.
//! * **Sharded scatter–gather fleet** ([`Fleet`]): docID-range shards ×
//!   replicas, each an engine with its own device and breaker; hedged
//!   shard requests, replica failover, a CPU-only degraded lane, retry
//!   budgets, and partial results past a deadline with explicit per-shard
//!   coverage. Complete answers are bit-exact with the unsharded engine.
//!
//! The pipeline is **bit-exact when unloaded**: a single query replayed
//! through the simulator finishes in exactly
//! [`GriffinOutput::time`](griffin::GriffinOutput), because the bridge
//! preserves the engine's step durations and a singleton batch packs to
//! its exact duration. The `bridge_properties` test suite pins this
//! down with property tests.
//!
//! ## Quick start
//!
//! ```
//! use griffin::{ExecMode, Griffin, QueryRequest};
//! use griffin_codec::Codec;
//! use griffin_gpu_sim::{DeviceConfig, Gpu, VirtualNanos};
//! use griffin_index::IndexBuilder;
//! use griffin_server::{ArrivingQuery, BatchConfig, GriffinServer, ServerConfig};
//!
//! // A toy corpus and engine.
//! let mut builder = IndexBuilder::new(Codec::EliasFano);
//! builder.add_text("fast retrieval on the cpu");
//! builder.add_text("fast retrieval on the gpu");
//! let index = builder.build();
//! let device = Gpu::new(DeviceConfig::test_tiny());
//! let engine = Griffin::new(&device, index.meta(), index.block_len());
//!
//! // A server with batching on and otherwise-unbounded admission.
//! let config = ServerConfig {
//!     batching: Some(BatchConfig::for_device(device.config())),
//!     ..Default::default()
//! };
//! let server = GriffinServer::new(config);
//!
//! let terms: Vec<_> = ["fast", "retrieval"]
//!     .iter()
//!     .map(|w| index.lookup(w).unwrap())
//!     .collect();
//! let queries = vec![ArrivingQuery {
//!     request: QueryRequest::new(terms)
//!         .k(10)
//!         .mode(ExecMode::Hybrid)
//!         .deadline(VirtualNanos::from_millis(50)),
//!     arrival: VirtualNanos::ZERO,
//! }];
//! let report = server.serve(&engine, &index, &queries);
//! assert_eq!(report.queries[0].deadline_met, Some(true));
//! ```
//!
//! [`StepTrace`]: griffin::StepTrace

pub mod admission;
pub mod batch;
pub mod bridge;
pub mod fleet;
pub mod flight;
pub mod health;
pub mod server;
pub mod sim;
pub mod slo;

pub use admission::{AdmissionConfig, Outcome, OverloadPolicy, ServedQuery};
pub use batch::BatchConfig;
pub use bridge::{cpu_shadow_of, gpu_copy_fraction, resource_of, resource_totals, stages_of};
pub use fleet::{
    Fleet, FleetConfig, FleetDevices, FleetReport, FleetServedQuery, FleetStats, HedgeConfig,
    RetryBudgetConfig,
};
pub use flight::{verdict_from_stages, FlightConfig, FlightRecord, FlightRecorder};
pub use health::{BreakerConfig, BreakerState, BreakerStats, GpuHealth};
pub use server::{ArrivingQuery, GriffinServer, PlannedQuery, ServeReport};
pub use sim::{ServerConfig, ServerSim, SimStats};
pub use slo::{BurnWindow, SloConfig, SloMonitor};

pub use griffin_telemetry::Timeline;
