//! Runs every experiment binary in paper order. Equivalent to invoking
//! each `exp_*` binary; honours `GRIFFIN_SCALE` / `GRIFFIN_FULL` /
//! `GRIFFIN_FAULT_SEED`.
//!
//! Experiments run **in parallel** across a worker pool (default: the
//! machine's available parallelism, override with `GRIFFIN_JOBS`) with
//! their output captured, then printed strictly in paper order — the
//! transcript is byte-identical to a serial run, only the wall clock
//! shrinks. The experiments themselves are virtual-time simulations, so
//! concurrent runs cannot perturb each other's results.
//!
//! Launch failures and nonzero exits don't abort the sweep: every
//! experiment runs, the summary reports which succeeded or failed, and
//! the process exits nonzero if any failed.
//!
//! ```text
//! cargo run -p griffin-bench --release --bin run_all -- \
//!     [--smoke] [--out-dir <dir>] [--snapshot <path>]
//! ```
//!
//! * `--smoke` — forwarded to every child: shrunken workloads for CI.
//! * `--out-dir <dir>` — per-experiment artifacts land in `<dir>`:
//!   `<exp>.metrics.json`, `<exp>.trace.json`, `<exp>.snapshot.json`.
//! * `--snapshot <path>` — merge the per-experiment headline numbers
//!   plus the active cost-model constants into one perf snapshot (the
//!   `BENCH_v<N>.json` format `bench_diff` compares). Implies
//!   per-child snapshot fragments (in `--out-dir` if given, else a
//!   temp directory).

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use griffin::CostModel;
use griffin_bench::setup::{k20, scale};
use griffin_bench::Snapshot;

fn main() {
    let exps = [
        "exp_table1",
        "exp_fig7",
        "exp_fig8",
        "exp_fig9",
        "exp_fig10",
        "exp_fig11",
        "exp_fig12",
        "exp_fig13",
        "exp_fig14",
        "exp_fig15",
        "exp_overlap",
        "exp_serving",
        "exp_faults",
        "exp_coexec",
        "exp_queries",
        "exp_profile",
        "exp_fleet",
        "exp_cache",
        // No snapshot rows: its tables are design ablations, not paper figures.
        "exp_ablation",
    ];
    let opts = Options::from_args();
    // Smoke runs shrink the sample counts too (children inherit the
    // env); an explicit GRIFFIN_SCALE always wins.
    if opts.smoke && std::env::var("GRIFFIN_SCALE").is_err() {
        std::env::set_var("GRIFFIN_SCALE", "0.1");
    }
    // Experiment binaries live next to this one.
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary directory").to_path_buf();

    // Where per-experiment snapshot fragments go: the out dir when the
    // user asked for one, a scratch dir when only `--snapshot` is set.
    let frag_dir: Option<PathBuf> = match (&opts.out_dir, &opts.snapshot) {
        (Some(d), _) => Some(d.clone()),
        (None, Some(_)) => {
            Some(std::env::temp_dir().join(format!("griffin_run_all_{}", std::process::id())))
        }
        (None, None) => None,
    };
    if let Some(d) = &frag_dir {
        std::fs::create_dir_all(d).unwrap_or_else(|e| {
            eprintln!("error: cannot create artifact dir {}: {e}", d.display());
            std::process::exit(2);
        });
    }

    let workers = std::env::var("GRIFFIN_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(exps.len());
    eprintln!(
        "running {} experiments on {workers} workers{}",
        exps.len(),
        if opts.smoke { " (smoke)" } else { "" }
    );

    // Workers pull the next experiment index from a shared counter and
    // send back (index, captured output); the printer drains the channel
    // and emits transcripts in index order, streaming each as soon as
    // all earlier ones are out.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<Output, String>)>();
    let mut failures: Vec<(&str, String)> = Vec::new();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let dir = &dir;
            let opts = &opts;
            let frag_dir = &frag_dir;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= exps.len() {
                    break;
                }
                let mut cmd = Command::new(dir.join(exps[i]));
                if opts.smoke {
                    cmd.arg("--smoke");
                }
                if let Some(d) = &opts.out_dir {
                    cmd.arg("--metrics-json")
                        .arg(d.join(format!("{}.metrics.json", exps[i])));
                    cmd.arg("--trace-json")
                        .arg(d.join(format!("{}.trace.json", exps[i])));
                }
                if let Some(d) = frag_dir {
                    cmd.arg("--snapshot")
                        .arg(d.join(format!("{}.snapshot.json", exps[i])));
                }
                let result = cmd.output().map_err(|e| format!("failed to launch: {e}"));
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut pending: Vec<Option<Result<Output, String>>> = exps.iter().map(|_| None).collect();
        let mut printed = 0;
        for (i, result) in rx {
            pending[i] = Some(result);
            while printed < exps.len() {
                let Some(result) = pending[printed].take() else {
                    break;
                };
                let exp = exps[printed];
                println!("\n################ {exp} ################");
                match result {
                    Ok(out) => {
                        // Progress went to the child's stderr, tables to
                        // its stdout; replay both on our streams.
                        std::io::stderr().write_all(&out.stderr).expect("stderr");
                        std::io::stdout().write_all(&out.stdout).expect("stdout");
                        if !out.status.success() {
                            failures.push((exp, format!("exited with {}", out.status)));
                        }
                    }
                    Err(why) => failures.push((exp, why)),
                }
                printed += 1;
            }
        }
    });

    if let Some(path) = &opts.snapshot {
        let frag_dir = frag_dir.as_ref().expect("snapshot implies fragment dir");
        let mut snap = merge_snapshot(&exps, frag_dir, opts.smoke);
        snap.label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => eprintln!(
                "wrote perf snapshot ({} experiments) to {}",
                snap.experiments.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: failed to write snapshot {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if opts.out_dir.is_none() {
            std::fs::remove_dir_all(frag_dir).ok();
        }
    }

    println!("\n################ summary ################");
    for exp in exps {
        match failures.iter().find(|(name, _)| *name == exp) {
            Some((_, why)) => println!("FAIL  {exp}: {why}"),
            None => println!("ok    {exp}"),
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", exps.len());
    } else {
        println!("\n{} of {} experiments failed", failures.len(), exps.len());
        std::process::exit(1);
    }
}

#[derive(Default)]
struct Options {
    smoke: bool,
    out_dir: Option<PathBuf>,
    snapshot: Option<PathBuf>,
}

impl Options {
    fn from_args() -> Options {
        let mut opts = Options::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--out-dir" => match args.next() {
                    Some(v) => opts.out_dir = Some(PathBuf::from(v)),
                    None => usage("--out-dir requires a <dir> value"),
                },
                "--snapshot" => match args.next() {
                    Some(v) => opts.snapshot = Some(PathBuf::from(v)),
                    None => usage("--snapshot requires a <path> value"),
                },
                other => usage(&format!("unknown argument {other}")),
            }
        }
        opts
    }
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: run_all [--smoke] [--out-dir <dir>] [--snapshot <path>]");
    std::process::exit(2);
}

/// Collects the per-experiment snapshot fragments
/// (`{"experiment": ..., "metrics": {...}}`) into one [`Snapshot`]
/// stamped with the run's scale and the active cost-model constants.
/// Missing fragments (failed or artifact-less experiments) are skipped.
fn merge_snapshot(exps: &[&str], frag_dir: &std::path::Path, smoke: bool) -> Snapshot {
    use griffin_bench::snapshot::{parse_json, JsonValue};

    let mut snap = Snapshot {
        version: 1,
        label: String::new(),
        scale: scale(),
        smoke,
        cost_model: Default::default(),
        experiments: Default::default(),
    };
    let cm = CostModel::from_device(&k20(), true);
    snap.cost_model.insert("fixed_ns".into(), cm.fixed_ns);
    snap.cost_model
        .insert("serial_decode_ns".into(), cm.serial_decode_ns);
    snap.cost_model
        .insert("pcie_latency_ns".into(), cm.pcie_latency_ns);
    snap.cost_model
        .insert("pcie_ns_per_elem".into(), cm.pcie_ns_per_elem);
    snap.cost_model
        .insert("gpu_ns_per_elem".into(), cm.gpu_ns_per_elem);
    snap.cost_model
        .insert("cpu_ns_per_elem".into(), cm.cpu_ns_per_elem);
    snap.cost_model
        .insert("cpu_skip_ns_per_probe".into(), cm.cpu_skip_ns_per_probe);
    snap.cost_model
        .insert("cpu_decode_ns_per_elem".into(), cm.cpu_decode_ns_per_elem);

    for exp in exps {
        let path = frag_dir.join(format!("{exp}.snapshot.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("note: no snapshot fragment for {exp} (skipped)");
            continue;
        };
        let v = match parse_json(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("note: bad snapshot fragment for {exp}: {e} (skipped)");
                continue;
            }
        };
        let name = v
            .get("experiment")
            .and_then(JsonValue::as_str)
            .unwrap_or(exp)
            .to_owned();
        let mut metrics = std::collections::BTreeMap::new();
        if let Some(JsonValue::Obj(fields)) = v.get("metrics") {
            for (k, m) in fields {
                if let Some(m) = m.as_f64() {
                    metrics.insert(k.clone(), m);
                }
            }
        }
        snap.experiments.insert(name, metrics);
    }
    snap
}
