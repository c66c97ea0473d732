//! Perf snapshots (`BENCH_v<N>.json`) and the regression-diff logic
//! behind the `bench_diff` binary.
//!
//! Every experiment can dump its headline numbers as a small JSON
//! snapshot (`Artifacts::snapshot_metric` + `--snapshot <path>`);
//! `run_all` merges the per-experiment snapshots, the active cost-model
//! constants, and the run's scale into one `BENCH_v<N>.json` — the
//! cross-PR perf record the ROADMAP asks for. `bench_diff` compares two
//! snapshots metric-by-metric with a tolerance band and direction
//! awareness (a `_ns` metric regresses *up*, a `speedup` regresses
//! *down*), exiting nonzero on regression.
//!
//! The build has no crates.io access, so this module carries its own
//! minimal JSON parser — the write side reuses
//! [`griffin_telemetry::json`].

use std::collections::BTreeMap;

use griffin_telemetry::json;

/// A parsed JSON value (just enough for snapshot files).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a JSON document. Covers the full value grammar with the
/// escapes the telemetry writer emits; rejects trailing garbage.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// One `BENCH_v<N>.json` perf snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Schema version (currently 1).
    pub version: u64,
    /// Free-form label, e.g. `"v001"`.
    pub label: String,
    /// The `GRIFFIN_SCALE` multiplier the run used.
    pub scale: f64,
    /// Whether the run was a `--smoke` run.
    pub smoke: bool,
    /// Active cost-model constants (informational in diffs).
    pub cost_model: BTreeMap<String, f64>,
    /// experiment → metric → headline value.
    pub experiments: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Snapshot {
    pub fn to_json(&self) -> String {
        let mut cm = json::Object::new();
        for (k, v) in &self.cost_model {
            cm.f64(k, *v);
        }
        let mut exps = json::Object::new();
        for (name, metrics) in &self.experiments {
            let mut m = json::Object::new();
            for (k, v) in metrics {
                m.f64(k, *v);
            }
            exps.raw(name, &m.finish());
        }
        let mut root = json::Object::new();
        root.u64("version", self.version)
            .str("label", &self.label)
            .f64("scale", self.scale)
            .bool("smoke", self.smoke)
            .raw("cost_model", &cm.finish())
            .raw("experiments", &exps.finish());
        root.finish()
    }

    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = parse_json(text)?;
        let num_map = |key: &str| -> BTreeMap<String, f64> {
            match v.get(key) {
                Some(JsonValue::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        let mut experiments = BTreeMap::new();
        if let Some(JsonValue::Obj(exps)) = v.get("experiments") {
            for (name, metrics) in exps {
                let JsonValue::Obj(fields) = metrics else {
                    continue;
                };
                experiments.insert(
                    name.clone(),
                    fields
                        .iter()
                        .filter_map(|(k, m)| m.as_f64().map(|m| (k.clone(), m)))
                        .collect(),
                );
            }
        }
        Ok(Snapshot {
            version: v.get("version").and_then(JsonValue::as_f64).unwrap_or(1.0) as u64,
            label: v
                .get("label")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_owned(),
            scale: v.get("scale").and_then(JsonValue::as_f64).unwrap_or(1.0),
            smoke: v.get("smoke").and_then(JsonValue::as_bool).unwrap_or(false),
            cost_model: num_map("cost_model"),
            experiments,
        })
    }
}

/// Which direction of change regresses a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, durations, miss rates: regression is *up*.
    LowerIsBetter,
    /// Speedups, ratios, savings: regression is *down*.
    HigherIsBetter,
    /// No preferred direction: drift beyond band still fails (a perf
    /// constant silently changing is worth a red build).
    TwoSided,
}

/// Classify a metric name by suffix/keyword convention.
pub fn direction_of(metric: &str) -> Direction {
    const LOWER: [&str; 8] = [
        "_ns",
        "_ms",
        "latency",
        "miss",
        "waste",
        "dropped",
        "shed",
        "imbalance",
    ];
    const HIGHER: [&str; 7] = [
        "speedup",
        "ratio",
        "saved",
        "throughput",
        "skipped",
        "crossover",
        "qps",
    ];
    if LOWER.iter().any(|k| metric.contains(k)) {
        Direction::LowerIsBetter
    } else if HIGHER.iter().any(|k| metric.contains(k)) {
        Direction::HigherIsBetter
    } else {
        Direction::TwoSided
    }
}

/// One metric's comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    Ok,
    /// Changed in the *good* direction beyond the band.
    Improved,
    /// Changed in the *bad* direction (or drifted, for two-sided)
    /// beyond the band.
    Regressed,
    /// Present in only one snapshot.
    MissingInCandidate,
    NewInCandidate,
}

/// One row of a snapshot diff.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    pub experiment: String,
    pub metric: String,
    pub baseline: Option<f64>,
    pub candidate: Option<f64>,
    /// Relative change in percent (`(cand − base) / |base| · 100`).
    pub delta_pct: Option<f64>,
    pub status: DiffStatus,
}

/// Compare `candidate` against `baseline` with a relative tolerance
/// band of `tolerance_pct` percent per metric. Cost-model constants are
/// compared informationally (never regress); experiment metrics are
/// enforced by direction.
pub fn diff(baseline: &Snapshot, candidate: &Snapshot, tolerance_pct: f64) -> Vec<DiffEntry> {
    let tol = tolerance_pct / 100.0;
    let mut out = Vec::new();
    for (exp, base_metrics) in &baseline.experiments {
        let cand_metrics = candidate.experiments.get(exp);
        for (metric, &base) in base_metrics {
            let cand = cand_metrics.and_then(|m| m.get(metric)).copied();
            out.push(compare_one(exp, metric, Some(base), cand, tol));
        }
        if let Some(cand_metrics) = cand_metrics {
            for (metric, &cand) in cand_metrics {
                if !base_metrics.contains_key(metric) {
                    out.push(compare_one(exp, metric, None, Some(cand), tol));
                }
            }
        }
    }
    for (exp, cand_metrics) in &candidate.experiments {
        if !baseline.experiments.contains_key(exp) {
            for (metric, &cand) in cand_metrics {
                out.push(compare_one(exp, metric, None, Some(cand), tol));
            }
        }
    }
    out
}

fn compare_one(
    experiment: &str,
    metric: &str,
    baseline: Option<f64>,
    candidate: Option<f64>,
    tol: f64,
) -> DiffEntry {
    let (status, delta_pct) = match (baseline, candidate) {
        (Some(base), Some(cand)) => {
            let denom = base.abs().max(f64::MIN_POSITIVE);
            let delta = (cand - base) / denom;
            let status = if delta.abs() <= tol {
                DiffStatus::Ok
            } else {
                match direction_of(metric) {
                    Direction::LowerIsBetter if delta > 0.0 => DiffStatus::Regressed,
                    Direction::HigherIsBetter if delta < 0.0 => DiffStatus::Regressed,
                    Direction::TwoSided => DiffStatus::Regressed,
                    _ => DiffStatus::Improved,
                }
            };
            (status, Some(delta * 100.0))
        }
        (Some(_), None) => (DiffStatus::MissingInCandidate, None),
        (None, Some(_)) => (DiffStatus::NewInCandidate, None),
        (None, None) => (DiffStatus::Ok, None),
    };
    DiffEntry {
        experiment: experiment.to_owned(),
        metric: metric.to_owned(),
        baseline,
        candidate,
        delta_pct,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(metrics: &[(&str, &str, f64)]) -> Snapshot {
        let mut s = Snapshot {
            version: 1,
            label: "test".into(),
            scale: 100.0,
            smoke: true,
            ..Snapshot::default()
        };
        for &(exp, m, v) in metrics {
            s.experiments
                .entry(exp.to_owned())
                .or_default()
                .insert(m.to_owned(), v);
        }
        s
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut s = snap(&[
            ("exp_fig12", "gpu_speedup_1m", 11.5),
            ("exp_fig12", "cpu_decode_ns", 120_000.0),
            ("exp_serving", "p99_latency_ns", 4.5e6),
        ]);
        s.cost_model.insert("gpu_ns_per_elem".into(), 0.15);
        let text = s.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"s":"x\"\nA","b":true,"n":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"\nA"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        match v.get("a") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items[2].as_f64(), Some(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(parse_json("{\"a\":1} garbage").is_err());
        assert!(parse_json("{\"a\":}").is_err());
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap(&[("e", "x_ns", 100.0), ("e", "speedup", 2.0)]);
        let d = diff(&s, &s, 5.0);
        assert!(d.iter().all(|e| e.status == DiffStatus::Ok));
    }

    #[test]
    fn ten_percent_slowdown_is_flagged() {
        let base = snap(&[("e", "query_ns", 1_000.0)]);
        let cand = snap(&[("e", "query_ns", 1_100.0)]);
        let d = diff(&base, &cand, 5.0);
        assert_eq!(d[0].status, DiffStatus::Regressed);
        // A 10% *speedup* on a lower-is-better metric is an improvement.
        let faster = snap(&[("e", "query_ns", 900.0)]);
        assert_eq!(diff(&base, &faster, 5.0)[0].status, DiffStatus::Improved);
    }

    #[test]
    fn direction_awareness() {
        assert_eq!(direction_of("p99_latency_ns"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("hybrid_speedup_vs_cpu"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("ef_compression_ratio"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_of("num_lists"), Direction::TwoSided);
        // A speedup that *drops* regresses; one that rises improves.
        let base = snap(&[("e", "speedup", 10.0)]);
        assert_eq!(
            diff(&base, &snap(&[("e", "speedup", 8.0)]), 5.0)[0].status,
            DiffStatus::Regressed
        );
        assert_eq!(
            diff(&base, &snap(&[("e", "speedup", 12.0)]), 5.0)[0].status,
            DiffStatus::Improved
        );
    }

    #[test]
    fn missing_and_new_metrics_are_reported() {
        let base = snap(&[("e", "a_ns", 1.0), ("e", "b_ns", 2.0)]);
        let cand = snap(&[("e", "a_ns", 1.0), ("e", "c_ns", 3.0)]);
        let d = diff(&base, &cand, 5.0);
        let status = |m: &str| d.iter().find(|e| e.metric == m).map(|e| e.status).unwrap();
        assert_eq!(status("a_ns"), DiffStatus::Ok);
        assert_eq!(status("b_ns"), DiffStatus::MissingInCandidate);
        assert_eq!(status("c_ns"), DiffStatus::NewInCandidate);
    }
}
