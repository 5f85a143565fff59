//! One benchmark for the NELA serving pipeline.
//!
//! ```text
//! benchmark --workload cold|warm|netsim|mobility [--seed S] [--seconds N]
//!           [--trace 0|1] [--trace-dir DIR] [--repeat N --out FILE]
//! benchmark --compare A B
//! benchmark --smoke
//! ```
//!
//! A run prints a table of its metrics (name, value, unit, samples), a
//! provenance line, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also writes
//! the run's spans to `DIR/<workload>.jsonl`). It exits non-zero when any
//! correctness gate fails. See README.md for the workloads and metrics.

mod calibrate;
mod compare;
mod metrics;
mod mobility;
mod pipeline;
mod plan;
mod serve;
mod stats;
mod trace;

use metrics::{Outcome, Report};
use plan::{Plan, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: benchmark --workload cold|warm|netsim|mobility|all [--seed S] \
[--seconds N] [--trace 0|1] [--trace-dir DIR] [--repeat N --out FILE]\n       \
benchmark --compare A B\n       benchmark --smoke";

/// The benchmark's declaration, read from the directory it runs in.
const SPEC: &str = "BENCHMARK.json";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_dir: PathBuf,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: plan::ALL.to_vec(),
        seed: 1,
        seconds: 25,
        traced: false,
        trace_dir: PathBuf::from(".bench_trace"),
        repeat: 1,
        out: None,
        compare: None,
        smoke: false,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let v = value(arg, &mut it)?;
                cli.workloads = if v == "all" {
                    plan::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => cli.seed = number(arg, value(arg, &mut it)?)?,
            "--seconds" => {
                cli.seconds = number(arg, value(arg, &mut it)?)?;
                if !(1..=600).contains(&cli.seconds) {
                    return Err("--seconds must lie in 1..=600".into());
                }
            }
            "--trace" => {
                cli.traced = match value(arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--trace-dir" => cli.trace_dir = PathBuf::from(value(arg, &mut it)?),
            "--repeat" => {
                cli.repeat = number(arg, value(arg, &mut it)?)? as usize;
                if !(1..=100).contains(&cli.repeat) {
                    return Err("--repeat must lie in 1..=100".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--compare" => {
                let a = value(arg, &mut it)?;
                let b = value(arg, &mut it)?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--smoke" => cli.smoke = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// The checkout's git revision, read from `.git` without running git
/// ("unknown" outside a repository).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cli: &Cli, w: Workload, seed: u64, smoke: bool, traced: bool, o: &Outcome) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let s = |v: &str| Value::Str(v.to_string());
    Value::Map(vec![
        ("git_rev".into(), s(&git_rev())),
        ("cores".into(), Value::UInt(cores as u64)),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload".into(), s(w.name())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(cli.seconds)),
        ("trace".into(), Value::Bool(traced)),
        ("smoke".into(), Value::Bool(smoke)),
        ("calibration_s".into(), Value::Float(o.calibration.0)),
        (
            "calibration_samples".into(),
            Value::UInt(o.calibration.1 as u64),
        ),
        (
            "speed_factor".into(),
            Value::Float(o.calibration.0 / calibrate::REFERENCE_S),
        ),
        ("threads".into(), Value::UInt(o.threads as u64)),
        (
            "threads_exceed_cores".into(),
            Value::Bool(o.threads > cores),
        ),
        (
            "knobs".into(),
            Value::Map(o.knobs.iter().map(|(k, v)| (k.to_string(), s(v))).collect()),
        ),
    ])
}

/// Runs one workload once and prints its table and provenance.
fn run_once(cli: &Cli, w: Workload, seed: u64, smoke: bool, traced: bool) -> (Outcome, Value) {
    let plan = Plan::new(w, cli.seconds, smoke);
    let trace_path = traced.then(|| cli.trace_dir.join(format!("{}.jsonl", w.name())));
    println!(
        "== {} seed {seed}{}{}",
        w.name(),
        if traced { " traced" } else { "" },
        if smoke { " smoke" } else { "" }
    );
    let started = Instant::now();
    let mut outcome = match w {
        Workload::Mobility => mobility::run(&plan, seed, traced, trace_path.as_deref()),
        _ => serve::run(&plan, seed, traced, trace_path.as_deref()),
    };
    if Path::new(SPEC).exists() {
        match compare::load_spec(Path::new(SPEC)) {
            Ok(spec) => compare::check_spec(&spec, &mut outcome.gates),
            Err(e) => outcome.gates.check(false, || e),
        }
    }
    let set = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    outcome.report.restrict_to(set);
    // Every end-to-end metric must be measured; a per-layer one may be 0
    // with 0 samples where the workload never enters its layer.
    for (name, v) in outcome.report.values() {
        let measured = v.samples > 0 || traced;
        outcome.gates.check(measured && v.value.is_finite(), || {
            format!("{name} was not measured as a finite number")
        });
    }
    outcome.report.print_table();
    println!(
        "attempted {} failed {} correct {} in {:.1}s",
        outcome.attempted,
        outcome.failed,
        outcome.gates.passed(),
        started.elapsed().as_secs_f64()
    );
    let prov = provenance(cli, w, seed, smoke, traced, &outcome);
    println!(
        "provenance {}",
        serde_json::to_string(&prov).expect("a JSON tree always serializes")
    );
    (outcome, prov)
}

/// Medians over repeated runs of every metric.
fn median_report(outcomes: &[Outcome]) -> Value {
    let mut report = Report::default();
    let first = &outcomes[0].report;
    for (name, v) in first.values() {
        let col: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.report.get(name).map(|m| m.value))
            .collect();
        report.set(name, stats::median(&col), v.samples);
    }
    report.to_json()
}

fn run(cli: &Cli) -> Result<i32, String> {
    if let Some((a, b)) = &cli.compare {
        let spec = compare::load_spec(Path::new(SPEC))?;
        let regressed = compare::compare(&spec, a, b)?;
        println!("{regressed} regressed");
        return Ok(i32::from(regressed > 0));
    }
    if cli.smoke {
        return Ok(smoke(cli));
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lines: Vec<(String, Value)> = Vec::new();
    for &w in &cli.workloads {
        let mut outcomes = Vec::new();
        let mut logged = Vec::new();
        for rep in 0..cli.repeat {
            let seed = cli.seed.wrapping_add(rep as u64);
            let (o, prov) = run_once(cli, w, seed, false, cli.traced);
            correct &= o.gates.passed();
            attempted += o.attempted;
            failed += o.failed;
            logged.push(compare::LoggedRun {
                workload: w.name().into(),
                traced: cli.traced,
                seed,
                correct: o.gates.passed(),
                attempted: o.attempted,
                failed: o.failed,
                provenance: prov,
                metrics: o
                    .report
                    .values()
                    .map(|(k, v)| (k.to_string(), v.value))
                    .collect(),
            });
            outcomes.push(o);
        }
        if let Some(out) = &cli.out {
            compare::append_log(out, logged)?;
            println!("runs appended to {}", out.display());
        }
        lines.push((w.name().to_string(), median_report(&outcomes)));
    }
    let metrics = if let [(_, only)] = lines.as_slice() {
        only.clone()
    } else {
        // Several workloads: prefix each metric with its workload.
        Value::Map(
            lines
                .into_iter()
                .flat_map(|(w, m)| match m {
                    Value::Map(pairs) => pairs
                        .into_iter()
                        .map(|(k, v)| (format!("{w}/{k}"), v))
                        .collect::<Vec<_>>(),
                    _ => Vec::new(),
                })
                .collect(),
        )
    };
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Every workload at n = 5,000 with one session, untraced then traced. The
/// per-run gates already require `BENCHMARK.json` to name exactly the
/// emitted metrics and every value to be finite.
fn smoke(cli: &Cli) -> i32 {
    let started = Instant::now();
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &w in &cli.workloads {
        for traced in [false, true] {
            let (o, _) = run_once(cli, w, cli.seed, true, traced);
            ok &= o.gates.passed();
            attempted += o.attempted;
            failed += o.failed;
        }
    }
    println!("smoke finished in {:.1}s", started.elapsed().as_secs_f64());
    println!(
        "{}",
        metrics::result_line(ok, attempted, failed, Value::Map(Vec::new()))
    );
    i32::from(!ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args).and_then(|cli| run(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
