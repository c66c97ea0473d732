//! The metric catalogue (names, units, bounds), the per-run record, the
//! result file and `--compare`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Rung;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// What a user of the system sees. Each bound covers every workload, so
/// the noisiest one sets it. Host-clock rows: the 2-core build host has
/// slow and fast phases of minutes, 10-20 % apart, which no filter inside
/// a 15 s run removes, so they take the contract's largest bound. Virtual-clock
/// rows repeat exactly for a fixed seed; their bounds cover the spread
/// *between* seeds, which fleet-faults sets (200 queries under 1 % device
/// faults). `virt_slo_qps` is a rung of a ladder: any rung lost is out of
/// bound. README has the measured spreads.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "host_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "host_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "host_p95_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.25 },
    EndToEnd { name: "virt_mean_us", unit: "us", better: Lower, bound: 0.1 },
    EndToEnd { name: "virt_p95_us", unit: "us", better: Lower, bound: 0.15 },
    EndToEnd { name: "virt_load_mean_us", unit: "us", better: Lower, bound: 0.15 },
    EndToEnd { name: "virt_load_p95_us", unit: "us", better: Lower, bound: 0.15 },
    EndToEnd { name: "virt_slo_qps", unit: "1/s", better: Higher, bound: 0.05 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Kernel families of `griffin-gpu` (the prefix of a kernel's name).
pub const FAMILIES: [&str; 5] = ["para_ef", "mergepath", "scan", "gpu_binary", "engine"];

/// Single-layer metrics, prefixed with the crate's directory. For a
/// plain count "better" names the direction that means less work.
pub const PER_LAYER: [PerLayer; 90] = [
    layer("workload.gen_s", "s", Lower),
    layer("workload.postings_per_query", "count", Lower),
    layer("codec.decode_mints_s", "Mint/s", Higher),
    layer("codec.decode_scalar_mints_s", "Mint/s", Higher),
    layer("codec.encode_mints_s", "Mint/s", Higher),
    layer("codec.bits_per_int", "bits", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.shard_s", "s", Lower),
    layer("index.postings", "count", Lower),
    layer("index.bytes_per_posting", "B", Lower),
    layer("cpu-engine.host_ns_per_posting", "ns", Lower),
    layer("cpu-engine.virt_ns_per_posting", "ns", Lower),
    layer("cpu-engine.blocks_decoded", "count", Lower),
    layer("cpu-engine.skip_probes", "count", Lower),
    layer("cpu-engine.merge_steps", "count", Lower),
    layer("cpu-engine.scored", "count", Lower),
    layer("cpu-engine.tf_blocks_decoded_ratio", "ratio", Lower),
    layer("cpu-engine.listcache_hit_ratio", "ratio", Higher),
    layer("cpu-engine.listcache_evictions", "count", Lower),
    layer("cpu-engine.simd_share", "ratio", Higher),
    layer("gpu-sim.host_share_pct", "%", Lower),
    layer("gpu-sim.host_ns_per_sim_thread", "ns", Lower),
    layer("gpu-sim.launches", "count", Lower),
    layer("gpu-sim.sim_threads", "count", Lower),
    layer("gpu-sim.htod_bytes", "B", Lower),
    layer("gpu-sim.dtoh_bytes", "B", Lower),
    layer("gpu-sim.allocs", "count", Lower),
    layer("gpu-sim.peak_dev_mb", "MiB", Lower),
    layer("gpu-sim.faults_injected", "count", Lower),
    layer("gpu-sim.virt_kernel_us", "us", Lower),
    layer("gpu-sim.virt_pcie_us", "us", Lower),
    layer("gpu-sim.launch_floor_us", "us", Lower),
    layer("gpu-sim.probe_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.host_ns_per_posting", "ns", Lower),
    layer("griffin-gpu.virt_ns_per_posting", "ns", Lower),
    layer("griffin-gpu.para_ef.host_share_pct", "%", Lower),
    layer("griffin-gpu.para_ef.host_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.para_ef.virt_us", "us", Lower),
    layer("griffin-gpu.mergepath.host_share_pct", "%", Lower),
    layer("griffin-gpu.mergepath.host_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.mergepath.virt_us", "us", Lower),
    layer("griffin-gpu.scan.host_share_pct", "%", Lower),
    layer("griffin-gpu.scan.host_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.scan.virt_us", "us", Lower),
    layer("griffin-gpu.gpu_binary.host_share_pct", "%", Lower),
    layer("griffin-gpu.gpu_binary.host_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.gpu_binary.virt_us", "us", Lower),
    layer("griffin-gpu.engine.host_share_pct", "%", Lower),
    layer("griffin-gpu.engine.host_ns_per_thread", "ns", Lower),
    layer("griffin-gpu.engine.virt_us", "us", Lower),
    layer("griffin-gpu.devcache_hit_ratio", "ratio", Higher),
    layer("griffin-gpu.prefetch_used_ratio", "ratio", Higher),
    layer("core.steps_cpu", "count", Lower),
    layer("core.steps_gpu", "count", Lower),
    layer("core.steps_split", "count", Lower),
    layer("core.migrations", "count", Lower),
    layer("core.virt_cpu_us", "us", Lower),
    layer("core.virt_gpu_us", "us", Lower),
    layer("core.virt_migrate_us", "us", Lower),
    layer("core.virt_recovery_us", "us", Lower),
    layer("core.host_self_us", "us", Lower),
    layer("core.parse_ns", "ns", Lower),
    layer("core.plan_ns", "ns", Lower),
    layer("core.sched_decide_ns", "ns", Lower),
    layer("core.rescache_hit_ratio", "ratio", Higher),
    layer("core.rescache_evictions", "count", Lower),
    layer("core.cache_flips", "count", Higher),
    layer("core.rescache_hit_host_ns", "ns", Lower),
    layer("core.gpu_faults", "count", Lower),
    layer("core.gpu_abandoned", "count", Lower),
    layer("server.replay_jobs_per_s", "1/s", Higher),
    layer("server.queue_wait_mean_us", "us", Lower),
    layer("server.load_p99_us", "us", Lower),
    layer("server.batch_occupancy_mean", "ratio", Higher),
    layer("server.gpu_queue_depth_max", "count", Lower),
    layer("server.gpu_time_saved_us", "us", Higher),
    layer("server.shed", "count", Lower),
    layer("server.degraded", "count", Lower),
    layer("server.fleet_hedges", "count", Lower),
    layer("server.fleet_hedge_win_ratio", "ratio", Higher),
    layer("server.fleet_coverage_mean", "ratio", Higher),
    layer("server.fleet_degraded_cpu", "count", Lower),
    layer("server.fleet_busy_over_service", "ratio", Lower),
    layer("server.merge_ns", "ns", Lower),
    layer("telemetry.overhead_pct", "%", Lower),
    layer("telemetry.events_per_query", "count", Lower),
    layer("telemetry.export_ms", "ms", Lower),
    layer("telemetry.profile_fold_us", "us", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.pass_spread_pct", "%", Lower),
];

/// One measured value. `n` is the sample count behind a percentile or a
/// mean; `supported` is false for a percentile with fewer than ten
/// samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub n: Option<usize>,
    pub supported: bool,
}

/// Named values in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, None, true);
    }

    /// Stores a value under the catalogue's own spelling of `name`; a
    /// name the catalogue does not have is a bug in the harness.
    pub fn set_n(&mut self, name: &str, value: f64, n: Option<usize>, supported: bool) {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&known| known == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.insert(
            known,
            Metric {
                value,
                n,
                supported,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.get(name)
    }
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct Record {
    pub workload: &'static str,
    pub why: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failures by cause, for the human-readable lines.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub virt_digest: String,
    pub queries_per_pass: usize,
    pub pass_host_s: Vec<f64>,
    pub rungs: Vec<Rung>,
    pub constants: Json,
    pub trace_file: Option<String>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// (name, unit, better) of the metrics this kind of run reports.
    fn catalogue(&self) -> Vec<(&'static str, &'static str, Better)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        }
    }

    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// `metrics` and nothing else.
    pub fn result_line(&self) -> String {
        let metrics = self.catalogue().into_iter().map(|(name, unit, _)| {
            let value = self.metrics.get(name).map_or(0.0, |m| m.value);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Every metric by name with its unit, and what makes the run
    /// reproducible, for people.
    pub fn print_table(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced run, per-layer"
            } else {
                "end-to-end"
            }
        );
        for (name, unit, _) in self.catalogue() {
            let Some(m) = self.metrics.get(name) else {
                println!("  {name:<44} {:>16} {unit}", "-");
                continue;
            };
            let n = m.n.map_or(String::new(), |n| format!("  n={n}"));
            let flag = if m.supported {
                ""
            } else {
                "  (fewer than ten samples beyond)"
            };
            println!("  {name:<44} {:>16.4} {unit}{n}{flag}", m.value);
        }
        println!(
            "  {:<44} {:>16.6} ratio  ({} failed of {} attempted)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("    failure: {f}");
        }
        println!("  {:<44} {:>16}", "virt_digest", self.virt_digest);
        let mut passes = self.pass_host_s.clone();
        passes.sort_by(f64::total_cmp);
        println!(
            "  passes: {} x {} queries, host seconds per pass min {:.3} / median {:.3} / max {:.3}; generator lateness 0 (arrivals are virtual)",
            passes.len(),
            self.queries_per_pass,
            passes.first().copied().unwrap_or(0.0),
            passes.get(passes.len() / 2).copied().unwrap_or(0.0),
            passes.last().copied().unwrap_or(0.0),
        );
        for r in &self.rungs {
            println!(
                "  rung {:>6} qps: n={} mean {:.1} us  p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  shed {}  partial {}  backlog x{:.2}  {}",
                r.qps,
                r.n,
                r.mean_ns / 1e3,
                r.p50_ns as f64 / 1e3,
                r.p95_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.shed,
                r.incomplete,
                r.backlog_ratio,
                if r.meets { "meets" } else { "misses" }
            );
        }
        if let Some(f) = &self.trace_file {
            println!("  trace written to {f}");
        }
    }

    /// The record as it goes into a result file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .catalogue()
            .into_iter()
            .filter_map(|(name, unit, better)| {
                let m = self.metrics.get(name)?;
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(unit)),
                    ("better", Json::str(better.as_str())),
                ];
                if let Some(n) = m.n {
                    fields.push(("n", Json::Num(n as f64)));
                    fields.push(("ten_beyond", Json::Bool(m.supported)));
                }
                Some((name, Json::obj(fields)))
            });
        let rungs = self.rungs.iter().map(|r| {
            Json::obj([
                ("qps", Json::Num(r.qps as f64)),
                ("n", Json::Num(r.n as f64)),
                ("mean_us", Json::Num(r.mean_ns / 1e3)),
                ("p50_us", Json::Num(r.p50_ns as f64 / 1e3)),
                ("p95_us", Json::Num(r.p95_ns as f64 / 1e3)),
                ("shed", Json::Num(r.shed as f64)),
                ("backlog_ratio", Json::Num(r.backlog_ratio)),
                ("meets", Json::Bool(r.meets)),
            ])
        });
        Json::obj([
            ("why", Json::str(self.why)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            ("virt_digest", Json::str(self.virt_digest.as_str())),
            ("queries_per_pass", Json::Num(self.queries_per_pass as f64)),
            (
                "pass_host_s",
                Json::Arr(self.pass_host_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("rungs", Json::Arr(rungs.collect())),
            ("constants", self.constants.clone()),
            (
                if self.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                },
                Json::obj(metrics),
            ),
        ])
    }
}

/// What identifies the host a result file was measured on.
pub fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("cpu_model", Json::str(cpu_model)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("simd", Json::str(crate::api::simd_path())),
    ])
}

/// The checked-out commit, read from `.git` without starting a process
/// ("unknown" outside a git checkout).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// `--compare A B`: per workload and end-to-end metric, both values, the
/// change and the bound. Returns the lines to print and whether every
/// row is inside its bound and no more queries failed.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    for key in ["seed", "smoke", "host"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare: the runs differ in `{key}` ({} vs {})",
                a.get(key).map_or("-".into(), Json::render),
                b.get(key).map_or("-".into(), Json::render)
            ));
        }
    }
    if a.get("smoke").and_then(Json::as_bool) == Some(true) {
        return Err("refusing to compare: smoke runs are never a baseline".into());
    }
    let workloads = |j: &Json| j.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = workloads(a)
        .zip(workloads(b))
        .ok_or("not a result file: no `workloads`")?;
    let mut lines = Vec::new();
    let mut ok = true;
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            lines.push(format!("{name}: missing from the second file"));
            ok = false;
            continue;
        };
        lines.push(format!(
            "{name:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
            "metric", "A", "B", "worse by", "bound"
        ));
        for m in END_TO_END {
            let value = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                lines.push(format!("  {:<31} missing", m.name));
                ok = false;
                continue;
            };
            // Positive when B is worse than A, as a share of A.
            let worse = match m.better {
                Lower => (vb - va) / va.abs().max(f64::MIN_POSITIVE),
                Higher => (va - vb) / va.abs().max(f64::MIN_POSITIVE),
            };
            let bad = worse > m.bound;
            ok &= !bad;
            lines.push(format!(
                "  {:<31} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if bad { "  OUT OF BOUND" } else { "" }
            ));
        }
        let digest = |r: &Json| {
            r.get("virt_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        // Not a failure by itself: a change to the timing model or the
        // scheduler is meant to move them. A host-only optimisation is not.
        if digest(ra) != digest(rb) {
            lines.push(format!(
                "  virtual numbers changed: virt_digest {} vs {}",
                digest(ra).unwrap_or_default(),
                digest(rb).unwrap_or_default()
            ));
        }
        let fails = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if fails(rb) > fails(ra) {
            lines.push(format!("  failed rose from {} to {}", fails(ra), fails(rb)));
            ok = false;
        }
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: f64, qps: f64, virt: f64, digest: &str) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        let e2e = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "host_qps" => qps,
                "virt_mean_us" => virt,
                _ => 1.0,
            };
            (m.name, metric(v))
        });
        Json::obj([
            ("seed", Json::Num(seed)),
            ("smoke", Json::Bool(false)),
            ("host", Json::str("h")),
            (
                "workloads",
                Json::obj([(
                    "trec-cpu",
                    Json::obj([
                        ("end_to_end", Json::obj(e2e)),
                        ("virt_digest", Json::str(digest)),
                        ("failed", Json::Num(0.0)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_applies_bounds_digest_and_identity() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (qps, virt) = (bound("host_qps"), bound("virt_mean_us"));
        let base = file(1.0, 100.0, 5.0, "aa");
        let verdict = |other: &Json| compare(&base, other).unwrap().1;
        assert!(
            verdict(&file(1.0, 100.0 * (1.0 - qps / 2.0), 5.0, "aa")),
            "half the bound slower"
        );
        assert!(
            !verdict(&file(1.0, 100.0 * (1.0 - qps * 1.5), 5.0, "aa")),
            "past the bound"
        );
        assert!(verdict(&file(1.0, 140.0, 5.0, "aa")), "faster is fine");
        let (lines, ok) = compare(&base, &file(1.0, 100.0, 5.0, "bb")).unwrap();
        assert!(ok && lines.iter().any(|l| l.contains("virtual numbers changed")));
        assert!(
            !verdict(&file(1.0, 100.0, 5.0 * (1.0 + virt * 1.5), "bb")),
            "more virtual time"
        );
        assert!(
            compare(&base, &file(2.0, 100.0, 5.0, "aa")).is_err(),
            "different seed"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |name: &str, unit: &str, better: Better| {
            (name.to_owned(), unit.to_owned(), better.as_str().to_owned())
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END
                .iter()
                .map(|m| ours(m.name, m.unit, m.better))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER
                .iter()
                .map(|m| ours(m.name, m.unit, m.better))
                .collect::<Vec<_>>()
        );
        let bounds: Vec<f64> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );
        let names: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_owned();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(names, ours);
    }
}
