//! SLO monitor: rolling good/bad windows and multi-window burn-rate
//! alerts.
//!
//! A query is *good* when it completes within the configured latency
//! SLO (shed queries are always bad). The monitor keeps a rolling
//! window of outcomes in virtual time and reports **burn rate** per
//! window: the observed bad fraction divided by the SLO's error budget
//! (`1 − objective`). Burn rate 1.0 means the error budget is being
//! consumed exactly at the sustainable rate; 10× means ten times too
//! fast.
//!
//! Alerting follows the SRE multi-window recipe: a [`BurnWindow`] fires
//! only when *both* its long window (resistant to blips) and its short
//! window (proof the problem is still happening) exceed the factor.
//! [`SloMonitor::early_warning`] is true while any window fires — the
//! admission queue and the GPU health breaker consume it as an
//! early-warning signal before deadline misses pile up.
//!
//! The monitor is deterministic and passive: it only observes the
//! replayed outcomes, in virtual time, and never changes scheduling.

use std::collections::VecDeque;

use griffin_gpu_sim::VirtualNanos;
use griffin_telemetry::Telemetry;

/// One multi-window burn-rate alert rule.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindow {
    /// The long (paging) window.
    pub long: VirtualNanos,
    /// The short (still-happening) window; a fraction of `long`.
    pub short: VirtualNanos,
    /// Burn-rate factor both windows must exceed to fire.
    pub factor: f64,
}

/// SLO-monitor configuration.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Per-query latency SLO: completing within this is *good*.
    pub latency_slo: VirtualNanos,
    /// Availability objective (fraction of queries that should be
    /// good, e.g. 0.99). The error budget is `1 − objective`.
    pub objective: f64,
    /// Alert rules, typically fast-burn first.
    pub windows: Vec<BurnWindow>,
}

impl SloConfig {
    /// Default rules scaled to a window length: a fast-burn rule over
    /// `window` at 10× and a slow-burn rule over `4 × window` at 2×,
    /// each with a 1/12 short window (the classic 1h/5m shape).
    pub fn with_windows(latency_slo: VirtualNanos, objective: f64, window: VirtualNanos) -> Self {
        let short = VirtualNanos::from_nanos((window.as_nanos() / 12).max(1));
        SloConfig {
            latency_slo,
            objective,
            windows: vec![
                BurnWindow {
                    long: window,
                    short,
                    factor: 10.0,
                },
                BurnWindow {
                    long: VirtualNanos::from_nanos(window.as_nanos().saturating_mul(4)),
                    short: window,
                    factor: 2.0,
                },
            ],
        }
    }
}

impl Default for SloConfig {
    /// 10ms latency SLO at a 99% objective, burn windows over 1s/4s of
    /// virtual time — sized for the serving experiments, override for
    /// anything else.
    fn default() -> Self {
        SloConfig::with_windows(
            VirtualNanos::from_millis(10),
            0.99,
            VirtualNanos::from_millis(1_000),
        )
    }
}

/// Rolling good/bad monitor with burn-rate queries.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    config: SloConfig,
    /// `(instant, good)` outcomes, oldest first, pruned beyond the
    /// longest configured window.
    events: VecDeque<(VirtualNanos, bool)>,
    good_total: u64,
    bad_total: u64,
}

impl SloMonitor {
    pub fn new(config: SloConfig) -> SloMonitor {
        SloMonitor {
            config,
            events: VecDeque::new(),
            good_total: 0,
            bad_total: 0,
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Longest window any rule looks back over.
    fn horizon(&self) -> VirtualNanos {
        self.config
            .windows
            .iter()
            .map(|w| w.long)
            .fold(VirtualNanos::ZERO, VirtualNanos::max)
    }

    /// Record one query outcome at virtual instant `now`. Instants must
    /// be non-decreasing (the replay feeds completions in time order).
    pub fn record(&mut self, now: VirtualNanos, good: bool) {
        if good {
            self.good_total += 1;
        } else {
            self.bad_total += 1;
        }
        self.events.push_back((now, good));
        let cutoff = now.saturating_sub(self.horizon());
        while let Some(&(t, _)) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Convenience: classify a latency against the SLO and record it.
    /// `None` (a shed query) is always bad.
    pub fn record_latency(&mut self, now: VirtualNanos, latency: Option<VirtualNanos>) {
        let good = matches!(latency, Some(l) if l <= self.config.latency_slo);
        self.record(now, good);
    }

    pub fn good_total(&self) -> u64 {
        self.good_total
    }

    pub fn bad_total(&self) -> u64 {
        self.bad_total
    }

    /// Fraction of bad outcomes in `(now − window, now]`; 0.0 when the
    /// window holds no events.
    pub fn bad_fraction(&self, now: VirtualNanos, window: VirtualNanos) -> f64 {
        let cutoff = now.saturating_sub(window);
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(t, g) in self.events.iter().rev() {
            if t < cutoff || t > now {
                if t < cutoff {
                    break;
                }
                continue;
            }
            if g {
                good += 1;
            } else {
                bad += 1;
            }
        }
        let total = good + bad;
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Burn rate over `window`: bad fraction divided by the error
    /// budget. 1.0 = sustainable; higher = burning too fast.
    pub fn burn_rate(&self, now: VirtualNanos, window: VirtualNanos) -> f64 {
        let budget = (1.0 - self.config.objective).max(f64::EPSILON);
        self.bad_fraction(now, window) / budget
    }

    /// The first configured rule whose long *and* short windows both
    /// exceed their factor at `now`, if any.
    pub fn alerting(&self, now: VirtualNanos) -> Option<&BurnWindow> {
        self.config.windows.iter().find(|w| {
            self.burn_rate(now, w.long) >= w.factor && self.burn_rate(now, w.short) >= w.factor
        })
    }

    /// True while any burn-rate rule fires — the signal the admission
    /// queue and health breaker consume.
    pub fn early_warning(&self, now: VirtualNanos) -> bool {
        self.alerting(now).is_some()
    }

    /// Export `griffin_slo_*` gauges/counters as of `now`.
    pub fn export(&self, telemetry: &Telemetry, now: VirtualNanos) {
        telemetry.gauge_set("griffin_slo_objective", self.config.objective);
        telemetry.gauge_set(
            "griffin_slo_latency_slo_ns",
            self.config.latency_slo.as_nanos() as f64,
        );
        telemetry.gauge_set("griffin_slo_good_total", self.good_total as f64);
        telemetry.gauge_set("griffin_slo_bad_total", self.bad_total as f64);
        telemetry.with(|r| {
            for w in &self.config.windows {
                let ms = w.long.as_nanos() / 1_000_000;
                let name = format!("griffin_slo_burn_rate{{window=\"{ms}ms\"}}");
                r.registry.gauge_set(&name, self.burn_rate(now, w.long));
            }
        });
        telemetry.gauge_set(
            "griffin_slo_early_warning",
            if self.early_warning(now) { 1.0 } else { 0.0 },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    fn monitor(objective: f64) -> SloMonitor {
        SloMonitor::new(SloConfig::with_windows(ns(1_000), objective, ns(10_000)))
    }

    #[test]
    fn burn_rate_scales_with_bad_fraction() {
        let mut m = monitor(0.99);
        for i in 0..90 {
            m.record(ns(i * 100), true);
        }
        for i in 90..100 {
            m.record(ns(i * 100), false);
        }
        let now = ns(10_000);
        // 10% bad over a 1% budget = 10× burn.
        assert!((m.burn_rate(now, ns(10_000)) - 10.0).abs() < 1e-9);
        assert_eq!(m.good_total(), 90);
        assert_eq!(m.bad_total(), 10);
    }

    #[test]
    fn multi_window_needs_both_windows_hot() {
        let mut m = monitor(0.99);
        // Old badness only: long window hot, short window clean.
        for i in 0..50 {
            m.record(ns(i * 10), false);
        }
        for i in 0..50 {
            m.record(ns(5_000 + i * 10), true);
        }
        // By 15_000ns the badness has aged out of both rules' short
        // windows (833ns and 10_000ns) while still inside the slow
        // rule's 40_000ns long window: long hot, short clean, no page.
        let now = ns(15_000);
        assert!(m.burn_rate(now, ns(40_000)) > 10.0);
        assert!(m.burn_rate(now, ns(10_000)) < 1.0);
        assert!(!m.early_warning(now), "stale badness must not page");
        // Fresh badness: both windows hot.
        for i in 0..50 {
            m.record(ns(15_600 + i), false);
        }
        assert!(m.early_warning(ns(15_700)));
    }

    #[test]
    fn events_prune_beyond_horizon() {
        let mut m = monitor(0.99);
        for i in 0..1_000 {
            m.record(ns(i * 1_000), i % 2 == 0);
        }
        // Horizon is 4×10_000ns; the deque cannot hold all 1000 events.
        assert!(m.events.len() < 100);
    }

    #[test]
    fn shed_queries_are_bad() {
        let mut m = monitor(0.5);
        m.record_latency(ns(0), None);
        m.record_latency(ns(1), Some(ns(500)));
        m.record_latency(ns(2), Some(ns(5_000)));
        assert_eq!(m.good_total(), 1);
        assert_eq!(m.bad_total(), 2);
    }
}
