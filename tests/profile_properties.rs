//! Latency-forensics invariants, over the full stack:
//!
//! * **Attribution is exact** — a [`griffin_telemetry::QueryProfile`]
//!   folded from the trace has self-times that sum *exactly* (integer
//!   nanoseconds, no epsilon) to the engine-reported query total, in
//!   every execution mode, under forced CPU+GPU splits, and under armed
//!   fault plans (transient faults, mid-query device loss);
//! * **The flight ring is bounded** — the tail recorder never retains
//!   more than its configured capacity, whatever the latency stream,
//!   and its retained/evicted accounting stays consistent;
//! * **Burn rate is monotone** — making strictly more events bad can
//!   never lower the SLO monitor's burn rate over any window.

use griffin_suite::griffin::SplitConfig;
use griffin_suite::griffin_gpu_sim::FaultPlan;
use griffin_suite::oracle::{self, Workload};
use griffin_suite::prelude::*;
use griffin_telemetry::Telemetry;
use proptest::collection::vec;
use proptest::prelude::*;

fn workload() -> Workload {
    oracle::workload(500_000, 100_000, 10, oracle::seed() ^ 0x9E3779B9)
}

/// Runs every workload query in `mode` with telemetry (trace recorder +
/// device observer) attached, checks each answer against the oracle,
/// then checks each query's attribution tree sums exactly to the
/// engine-reported total.
fn assert_exact_attribution(
    wl: &Workload,
    mode: ExecMode,
    split: Option<SplitConfig>,
    plan: Option<FaultPlan>,
    ctx: &str,
) {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let telemetry = Telemetry::enabled();
    gpu.set_observer(telemetry.device_observer(gpu.config().warp_size));
    let mut griffin = Griffin::new(&gpu, wl.corpus.index.meta(), wl.corpus.index.block_len());
    gpu.set_fault_plan(plan);
    griffin.set_telemetry(telemetry.clone());
    if let Some(s) = split {
        griffin.scheduler.split = Some(s);
    }

    let mut expected = Vec::new();
    for q in &wl.queries {
        let req = QueryRequest::new(q.clone()).mode(mode);
        let out = griffin.run(&wl.corpus.index, &req);
        oracle::assert_answer(&wl.corpus, &req, &out, ctx);
        let tq = telemetry.recorder().expect("enabled").current_query();
        expected.push((tq, out.time));
    }

    let profiles = telemetry.query_profiles();
    assert_eq!(
        profiles.len(),
        expected.len(),
        "one profile per query ({ctx})"
    );
    for (tq, time) in expected {
        let p = profiles
            .iter()
            .find(|p| p.query == tq)
            .unwrap_or_else(|| panic!("no profile for query {tq} ({ctx})"));
        assert_eq!(
            p.total, time,
            "profile total must equal GriffinOutput::time ({ctx})"
        );
        assert_eq!(
            p.attributed(),
            p.total,
            "self-times must sum exactly to the total ({ctx})"
        );
        // The folded export re-derives the same sum line by line.
        let folded_sum: u64 = p
            .folded()
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(_, ns)| ns.parse::<u64>().expect("folded self-time"))
            .sum();
        assert_eq!(
            folded_sum,
            p.total.as_nanos(),
            "folded-stack lines must sum to the total ({ctx})"
        );
    }
}

#[test]
fn attribution_exact_in_every_mode() {
    let wl = workload();
    for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
        assert_exact_attribution(&wl, mode, None, None, &format!("{mode:?}"));
    }
}

#[test]
fn attribution_exact_under_forced_splits() {
    let wl = workload();
    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_exact_attribution(
            &wl,
            ExecMode::Hybrid,
            Some(SplitConfig::forced(fraction)),
            None,
            &format!("split {fraction}"),
        );
    }
}

#[test]
fn attribution_exact_under_faults() {
    let wl = workload();
    let seed = oracle::seed();
    for (plan, ctx) in [
        (
            FaultPlan::seeded(seed).with_fault_rate(0.05),
            "5% transient",
        ),
        (FaultPlan::seeded(seed).lose_device_at(3), "device loss"),
    ] {
        for mode in [ExecMode::GpuOnly, ExecMode::Hybrid] {
            assert_exact_attribution(
                &wl,
                mode,
                None,
                Some(plan.clone()),
                &format!("{ctx} / {mode:?}"),
            );
        }
        assert_exact_attribution(
            &wl,
            ExecMode::Hybrid,
            Some(SplitConfig::forced(0.5)),
            Some(plan.clone()),
            &format!("{ctx} / split 0.5"),
        );
    }
}

// ---- Flight-ring and burn-rate properties (pure data structures). ----

use griffin_server::{FlightConfig, FlightRecord, FlightRecorder, SloConfig, SloMonitor};
use griffin_telemetry::{Cause, Verdict};

fn record(i: usize, latency_ns: u64) -> FlightRecord {
    let latency = VirtualNanos::from_nanos(latency_ns);
    FlightRecord {
        query_index: i,
        trace_query: None,
        outcome: griffin_server::Outcome::Completed,
        latency,
        service: latency,
        queue_wait: VirtualNanos::ZERO,
        verdict: Verdict {
            cause: Cause::CpuCompute,
            dominant: latency,
            total: latency,
            cache_flips: 0,
        },
        profile: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However adversarial the latency stream, the ring never holds more
    /// than `capacity` flights and its accounting identities hold.
    #[test]
    fn flight_ring_never_exceeds_capacity(
        latencies in vec(0u64..10_000_000, 1..200),
        capacity in 1usize..32,
        min_samples in 0u64..64,
    ) {
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity,
            quantile: 0.9,
            min_samples,
        });
        for (i, &l) in latencies.iter().enumerate() {
            fr.observe(record(i, l));
            prop_assert!(fr.len() <= capacity, "ring exceeded its bound");
        }
        prop_assert_eq!(fr.observed_total(), latencies.len() as u64);
        prop_assert_eq!(fr.retained_total(), fr.evicted_total() + fr.len() as u64);
    }

    /// Flipping good events to bad can only raise (never lower) the burn
    /// rate, over every alert window.
    #[test]
    fn burn_rate_is_monotone_in_badness(
        goods in vec(any::<bool>(), 1..150),
        extra_bad in vec(any::<bool>(), 1..150),
    ) {
        let config = SloConfig::default();
        let windows: Vec<VirtualNanos> = config
            .windows
            .iter()
            .flat_map(|w| [w.long, w.short])
            .collect();
        let mut base = SloMonitor::new(config.clone());
        let mut worse = SloMonitor::new(config);
        let step = VirtualNanos::from_nanos(1_000);
        let mut now = VirtualNanos::ZERO;
        for (i, &good) in goods.iter().enumerate() {
            now += step;
            let flip = extra_bad.get(i).copied().unwrap_or(false);
            base.record(now, good);
            worse.record(now, good && !flip);
        }
        for w in windows {
            prop_assert!(
                worse.burn_rate(now, w) >= base.burn_rate(now, w),
                "more badness must not lower the burn rate (window {w:?})"
            );
        }
    }
}
