//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from the seed, sets the system up,
//! measures for about `--seconds`, checks every answer it can, and prints
//! its environment, one line per metric, and as its last line a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, taken from spans the benchmark records around
//! its calls into each layer. `README.md` beside this crate lists the
//! workloads and metrics.

mod common;
mod data;
mod inproc;
mod report;
mod routed;
mod run;
mod served;
mod stats;
mod trace;

use mmdr_json::Value;
use run::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["knn-resident", "knn-paged", "served-mixed", "routed-knn"];

/// Where runs keep their files, relative to the working directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected all or one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

fn run_one(args: &Args) -> ExitCode {
    let dir = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let mut run = match Run::new(args.seed, args.seconds, args.trace, dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.env("workload", args.workload.as_str());
    run.env("seed", args.seed);
    run.env("run_seconds", args.seconds);
    run.env("trace", args.trace);
    run.env("nproc", threads);
    let inputs = data::generate(args.seed);
    run.env(
        "inputs",
        Value::object(vec![
            ("base_rows", data::N_BASE.into()),
            ("held_out_rows", data::N_HELD.into()),
            ("dim", data::DIM.into()),
            ("clusters", data::CLUSTERS.into()),
            ("queries", data::N_QUERIES.into()),
            ("k", data::K.into()),
        ]),
    );
    let result = match args.workload.as_str() {
        "knn-resident" => inproc::run(&mut run, &inputs, inproc::Mode::Resident),
        "knn-paged" => inproc::run(&mut run, &inputs, inproc::Mode::Paged),
        "served-mixed" => served::run(&mut run, &inputs),
        "routed-knn" => routed::run(&mut run, &inputs),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    if let Err(e) = result {
        eprintln!("error: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    let failed_frac = run.tally.failed_frac();
    if run.traced() {
        run.set("failed_frac", failed_frac);
        let path = PathBuf::from(WORK_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => run.env("trace_file", path.display().to_string()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        for (name, count, self_ns) in run.tracer.self_time_by_name() {
            eprintln!(
                "span {name:<24} {count:>8} spans {:>12.3} ms self",
                self_ns as f64 / 1e6
            );
        }
    }
    run.env("failed_frac", failed_frac);
    let correct = run.tally.mismatched == 0;
    for m in run.mismatches() {
        eprintln!("mismatch: {m}");
    }
    let metrics = run.metrics();
    println!("env {}", run.env_value().to_json());
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(correct, run.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {}: correctness check failed", args.workload);
        ExitCode::from(1)
    }
}

/// Runs every workload, each in its own process, one after another. The
/// last line sums the tallies and prefixes each metric with its workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().and_then(|l| mmdr_json::parse(l).ok());
        let Some(result) = last.filter(|_| out.status.success()) else {
            eprintln!("error: {w} failed ({})", out.status);
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Object(fields)) = result.get("metrics") {
            for (name, v) in fields {
                metrics.push((format!("{w}.{name}"), v.clone()));
            }
        }
    }
    let summary = Value::object(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", summary.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
