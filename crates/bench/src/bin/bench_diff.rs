//! Perf-regression sentinel: compare two `BENCH_v<N>.json` snapshots.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--tolerance-pct N]
//! ```
//!
//! Every experiment metric present in either snapshot is compared with
//! a relative tolerance band (default 5%), direction-aware: `_ns`-style
//! metrics regress *upward*, `speedup`/`ratio`-style metrics regress
//! *downward*, anything else fails on drift in either direction.
//! Metrics present in only one snapshot are *skipped with a note*, never
//! failed (experiments and metrics come and go across PRs); cost-model
//! constants are printed informationally when they change. Exits 1 when
//! any metric regressed beyond the band, 2 on usage/parse errors.

use griffin_bench::report::Table;
use griffin_bench::snapshot::{diff, DiffStatus, Snapshot};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance_pct = 5.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance-pct" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => tolerance_pct = v,
                _ => usage("--tolerance-pct requires a non-negative number"),
            },
            p if !p.starts_with("--") => paths.push(p.to_owned()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two snapshot paths");
    }
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);

    println!(
        "comparing {} (label {:?}, scale {}) vs {} (label {:?}, scale {}), tolerance ±{tolerance_pct}%",
        paths[0], baseline.label, baseline.scale, paths[1], candidate.label, candidate.scale,
    );
    if baseline.scale != candidate.scale || baseline.smoke != candidate.smoke {
        println!(
            "warning: snapshots ran at different scales (scale {} smoke {} vs scale {} smoke {}) — deltas may be meaningless",
            baseline.scale, baseline.smoke, candidate.scale, candidate.smoke
        );
    }

    // Cost-model constants: informational — a change means the perf
    // model itself moved and the baseline likely needs regenerating.
    for (k, &b) in &baseline.cost_model {
        let c = candidate.cost_model.get(k).copied();
        if c != Some(b) {
            println!(
                "note: cost-model constant {k} changed: {b} -> {}",
                c.map(|v| v.to_string()).unwrap_or_else(|| "absent".into())
            );
        }
    }

    let entries = diff(&baseline, &candidate, tolerance_pct);
    let mut t = Table::new(
        "Perf snapshot diff",
        &[
            "experiment",
            "metric",
            "baseline",
            "candidate",
            "delta",
            "status",
        ],
    );
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut skipped = 0usize;
    for e in &entries {
        let fmt = |v: Option<f64>| v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into());
        let (label, interesting) = match e.status {
            DiffStatus::Ok => ("ok", false),
            DiffStatus::Improved => {
                improvements += 1;
                ("IMPROVED", true)
            }
            DiffStatus::Regressed => {
                regressions += 1;
                ("REGRESSED", true)
            }
            DiffStatus::MissingInCandidate => {
                skipped += 1;
                ("skipped (baseline only)", true)
            }
            DiffStatus::NewInCandidate => {
                skipped += 1;
                ("skipped (candidate only)", true)
            }
        };
        // Keep the table readable: print every non-ok row, skip the
        // (many) in-band rows.
        if interesting {
            t.row(&[
                e.experiment.clone(),
                e.metric.clone(),
                fmt(e.baseline),
                fmt(e.candidate),
                e.delta_pct
                    .map(|d| format!("{d:+.1}%"))
                    .unwrap_or_else(|| "-".into()),
                label.to_string(),
            ]);
        }
    }
    let in_band = entries
        .iter()
        .filter(|e| e.status == DiffStatus::Ok)
        .count();
    t.print();
    println!(
        "\n{} metrics compared: {in_band} in band, {improvements} improved, {regressions} regressed, \
         {skipped} skipped (present in only one snapshot — not a failure)",
        entries.len()
    );
    if regressions > 0 {
        println!("PERF REGRESSION detected (tolerance ±{tolerance_pct}%)");
        std::process::exit(1);
    }
    println!("no regression beyond ±{tolerance_pct}%");
}

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Snapshot::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: bench_diff <baseline.json> <candidate.json> [--tolerance-pct N]");
    std::process::exit(2);
}
