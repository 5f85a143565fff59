//! `nela` — command-line front end for the Non-Exposure Location Anonymity
//! system.
//!
//! ```text
//! nela inspect   [--users N] [--seed S] [--m M]         WPG statistics
//! nela cloak     [--users N] [--k K] [--host ID] ...    one cloaking request
//! nela simulate  [--users N] [--requests S] [--algo A]  full workload + stats
//! nela query     [--users N] [--k K] [--knn Q]          cloak + LBS roundtrip
//! nela attack    [--users N] [--requests S]             adversary evaluation
//! nela mobility  [--users N] [--ticks T] [--rate R]     continuous cloaking under motion
//! nela serve     [--users N] [--rate R] [--threads T]   open-loop serving session
//! nela robustness [--users N] [--k K] [--requests S]    adversary scenario matrix
//! nela stats     --file PATH                             render a --metrics snapshot
//! ```
//!
//! All subcommands accept `--json` for machine-readable output.

mod args;
mod commands;

use args::ArgError;

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let rest: Vec<String> = argv.collect();
    let outcome = match command.as_str() {
        "inspect" => commands::inspect(rest),
        "cloak" => commands::cloak(rest),
        "simulate" => commands::simulate(rest),
        "query" => commands::query(rest),
        "attack" => commands::attack(rest),
        "mobility" => commands::mobility(rest),
        "serve" => commands::serve(rest),
        "robustness" => commands::robustness(rest),
        "stats" => commands::stats(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn usage() -> &'static str {
    "nela — non-exposure location anonymity (Hu & Xu, ICDE 2009)

USAGE: nela <command> [flags]

COMMANDS:
  inspect    build the proximity graph and print its statistics
  cloak      serve a single cloaking request end to end
  simulate   run a request workload and print the paper's metrics
  query      cloak, then run a real LBS query over the cloaked region
  attack     evaluate an intercepting adversary over a workload
  mobility   run the continuous pipeline: motion, incremental WPG
             maintenance, cluster invalidation, Poisson requests
             (--ticks T, --rate R, --stationary F; --rebuild also
             times a from-scratch WPG rebuild per tick for the speedup)
  serve      run a bounded serving session under open-loop Poisson load:
             cloak, LBS query, refine per request, end-to-end latency
             (--rate R req/s, --requests N, --query range|knn|mix,
             --radius F, --knn K, --queue C, --deadline-ms D;
             --threads sets the worker pool)
  robustness run the adversary & heterogeneity scenario matrix: {uniform,
             personalized} k x {honest, colluders, liars, crash} x
             {uniform, rush-hour} geography, each cell ending in a
             machine-checked privacy verdict (--colluders C, --liars L,
             --crash-peers P, --crash-round R, --leak-floor F; exits
             non-zero if any cell fails its expectation)
  stats      render a metrics snapshot written by --metrics
             (--file PATH, --json to echo the raw snapshot)
  help       show this help

COMMON FLAGS:
  --users N      population size (default 20000; paper: 104770)
  --seed S       master seed (default 1)
  --k K          anonymity level (default 10)
  --m M          max connected peers (default 10)
  --algo A       clustering: tconn | central | knn       (default tconn)
  --bounding B   bounding: secure | optimal | linear | exp (default secure)
  --requests S   workload size (default: scaled Table I)
  --host ID      specific host user id
  --threads T    worker threads for build + batched serving (default 1;
                 the built system is bit-identical to the serial run)
  --metrics P    record per-stage latency histograms and counters, writing
                 the JSON snapshot to P on exit (render with `nela stats`)
  --json         machine-readable output"
}
