//! `tpperf`: one layer-attributed benchmark for the simulator, the sweep
//! runner and the `tpserve` service.
//!
//! ```text
//! tpperf --workload <irregular-1c|regular-4c|serve-open> --seed <n>
//!        --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the workload untraced and then traced, and reports the
//! per-layer metrics and the tracing overhead. Every simulated output
//! is checked; the last stdout line is the JSON result, and any
//! correctness failure exits non-zero. See `benchmark/README.md`.

mod attribution;
mod layers;
mod metrics;
mod names;
mod serve;
mod sweep;

use metrics::Metrics;
use std::process::{Command, ExitCode};

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Metrics measured by the workload.
    pub metrics: Metrics,
    /// Operations attempted (jobs, cache lookups, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, expired or failed audit.
    pub failed: u64,
    /// Correctness-gate failures; any one fails the run.
    pub problems: Vec<String>,
    /// The traced run's span log, written out at the end.
    pub spans: Option<layers::Spans>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the working directory, when it is a git checkout's
/// root (the benchmark may run from an exported tree without one).
fn git_commit() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize);
    match (std::fs::canonicalize(&top), here) {
        (Ok(top), Ok(here)) if top == here => command_line("git", &["rev-parse", "HEAD"]),
        _ => "none (not a git checkout)".into(),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpperf: {e}");
            eprintln!(
                "usage: tpperf --workload <irregular-1c|regular-4c|serve-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# tpperf workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# nproc={workers} profile={} rustc=\"{}\" commit={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        command_line("rustc", &["-V"]),
        git_commit()
    );

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "irregular-1c" => {
            let w = sweep::irregular_1c(args.seed);
            sweep::run(
                &args.workload,
                &w,
                args.seed,
                args.seconds,
                args.trace,
                workers,
                &mut out,
            )
        }
        "regular-4c" => {
            let w = sweep::regular_4c(args.seed);
            sweep::run(
                &args.workload,
                &w,
                args.seed,
                args.seconds,
                args.trace,
                workers,
                &mut out,
            )
        }
        "serve-open" => serve::run(args.seed, args.seconds, args.trace, workers, &mut out),
        other => {
            eprintln!("tpperf: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }

    let listed = if args.trace {
        names::per_layer()
    } else {
        names::end_to_end()
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => out.metrics.put("peak_rss_mb", mb, "MiB"),
            None => out
                .problems
                .push("cannot read VmHWM from /proc/self/status".into()),
        }
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.put_noted(
            "ok_share",
            ok,
            "ratio",
            format!("{} of {} operations failed", out.failed, out.attempted),
        );
    }
    let metrics = order(&out.metrics, listed, args.trace, &mut out.problems);
    if let Err(e) = metrics.validate() {
        out.problems.push(e);
    }

    if let Some(spans) = &out.spans {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("tpperf: writing {}: {e}", path.display()),
        }
    }
    for m in metrics.items() {
        println!("{:<44} {:>16.6} {:<12} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &out.problems {
        println!("# FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The emitted metrics in listed order. Per-layer names a workload did
/// not reach are filled with 0; a missing end-to-end metric or an
/// unlisted name is a benchmark bug and fails the run.
fn order(
    emitted: &Metrics,
    listed: &'static [names::Listed],
    fill_zero: bool,
    problems: &mut Vec<String>,
) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in listed {
        let unit = unit.as_str();
        match emitted.items().iter().find(|m| m.name == *name) {
            Some(m) if m.unit == unit => out.put_noted(name, m.value, unit, m.note.clone()),
            Some(m) => problems.push(format!("{name} emitted in {} not {unit}", m.unit)),
            None if fill_zero => {
                out.put_noted(name, 0.0, unit, "not reached by this workload".into())
            }
            None => problems.push(format!("{name} was not measured")),
        }
    }
    for m in emitted.items() {
        if !listed.iter().any(|(n, _)| *n == m.name) {
            problems.push(format!("{} is not a listed metric", m.name));
        }
    }
    out
}
