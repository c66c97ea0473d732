//! The repository benchmark. See `README.md` for the protocol, the
//! metric glossary and the pinned surface.
//!
//! ```text
//! griffin-benchmark [--seed S] [--seconds N] [--smoke] [--trace] [--out F]   every workload, one child process each
//! griffin-benchmark --workload W --seed S --seconds N --trace 0|1            one workload; last line is the result JSON
//! griffin-benchmark --compare A.json B.json
//! ```

mod api;
mod json;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;

/// The default seed: the paper's conference date.
const DEFAULT_SEED: u64 = 20_180_224;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: griffin-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE] [--out-dir DIR]\n       griffin-benchmark --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        out_dir: PathBuf::from(OUT_DIR),
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ));
            }
            // `--trace 0|1` from the driver, bare `--trace` from people.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let (lines, ok) = report::compare(&read_json(a)?, &read_json(b)?)?;
    lines.iter().for_each(|l| println!("{l}"));
    println!(
        "{}",
        if ok {
            "every row is inside its bound"
        } else {
            "OUT OF BOUND"
        }
    );
    Ok(ok)
}

/// One workload in this process. The contract's result line is the last
/// line of standard output.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let opts = run::Opts {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS }),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    let record = if args.trace {
        run::traced(workload, &opts)
    } else {
        run::end_to_end(workload, &opts)
    };
    record.print_table();
    if let Some(out) = &args.out {
        std::fs::write(out, record.to_json().render())
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", record.result_line());
    Ok(())
}

/// Every workload, each in a child process of its own (so peak memory
/// and allocator state are the workload's alone), then the result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut per_workload = Vec::new();
    let mut ok = true;
    for w in workloads::WORKLOADS {
        let mut merged = std::collections::BTreeMap::new();
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let part = args
                .out_dir
                .join(format!(".part-{}-{}.json", w.name, u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .arg("--out-dir")
                .arg(&args.out_dir);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = cmd
                .status()
                .map_err(|e| format!("starting {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", w.name));
            }
            let record = read_json(&part)?;
            let _ = std::fs::remove_file(&part);
            ok &= record.get("failed").and_then(Json::as_f64) == Some(0.0);
            if let Some(fields) = record.as_obj() {
                for (k, v) in fields {
                    // The end-to-end run's accounting wins where both
                    // runs report a field.
                    merged.entry(k.clone()).or_insert_with(|| v.clone());
                }
            }
        }
        per_workload.push((w.name, Json::Obj(merged)));
    }
    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "seconds",
            Json::Num(args.seconds.unwrap_or(DEFAULT_SECONDS)),
        ),
        ("git_commit", Json::str(report::git_commit())),
        ("host", report::host_json()),
        ("workloads", Json::obj(per_workload)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        args.out_dir.join(format!(
            "result-{}{}.json",
            args.seed,
            if args.smoke { "-smoke" } else { "" }
        ))
    });
    std::fs::write(&out, file.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "result file: {}{}",
        out.display(),
        if args.smoke {
            "  (smoke: never a baseline)"
        } else {
            ""
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare(a, b),
        (None, Some(name)) => run_one(&args, name).map(|()| true),
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
