//! Continuous cloaking under mobility (beyond the paper's static snapshot).
//!
//! **Part A — continuous pipeline.** Runs `nela-mobility`: the population
//! moves under a seeded waypoint/Gauss–Markov/stationary mixture, the WPG's
//! rank rows are maintained incrementally over the region-sharded grid,
//! broken clusters are retired by the epoch audit, and a Poisson stream of
//! requests is served from the rank rows with the cluster registry carried
//! across ticks. Reports per-tick and aggregate cluster-reuse rate,
//! invalidation counts, anonymity validity, and the incremental-vs-rebuild
//! speedup, where a tick's incremental time is its `apply_moves`: all the
//! maintenance a served tick pays.
//!
//! **Part B — maintenance sweep.** Times what a served tick pays for
//! maintenance, one `apply_moves` (staged moves folded into the sharded
//! grid and pushed into the candidate lists, or every user re-probed past
//! the mover crossover), against a from-scratch `WpgBuilder::build` across
//! populations and move fractions. Each cell runs three times over the
//! same moves and reports the median run with the min/median/max spread of
//! both timings. Every tick asserts, outside the timed regions, that each
//! maintained rank row reproduces the rebuild's CSR row. The default
//! fractions fall on both sides of the crossover.
//!
//! A default run writes `BENCH_mobility.json` at the repository root, with
//! a `provenance` block (git rev, cores, profile, knobs). A run that sets
//! any of the knobs below prints its tables and leaves that file alone.
//!
//! Environment: `NELA_USERS` (Part A population, default 20,000),
//! `NELA_TICKS` (default 25), `NELA_RATE` (requests/tick, default 40),
//! `NELA_STATIONARY` (stationary fraction, default 0.9), `NELA_THREADS`,
//! `NELA_SWEEP_USERS` (comma-separated Part B populations, default
//! `10000,100000`), `NELA_SWEEP_FRACTIONS` (comma-separated move fractions,
//! default `0.01,0.05,0.1,0.15,0.2,0.25,0.5,1.0`), `NELA_SWEEP_TICKS`
//! (timed ticks per cell, default 8), `NELA_RESULTS_DIR` (optional JSON
//! dump, not a knob).
//!
//! Flags: `--metrics` enables the `nela-obs` recorder and writes its
//! snapshot to `BENCH_obs.json` under the same provenance; `--smoke` runs a
//! small CI-sized sweep (equality asserts intact, no files written) and
//! exits.

use nela::{BoundingAlgo, ClusteringAlgo, Params};
use nela_bench::{fmt, print_table, write_obs_snapshot, ExpConfig, Knob, Provenance, Spread};
use nela_geo::{DatasetSpec, Point};
use nela_mobility::{run_continuous, DriverConfig, MobilityConfig};
use nela_wpg::{IncrementalWpg, InverseDistanceRss, WpgBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// The environment knobs of a full run; setting any of them keeps the run
/// from rewriting the committed `BENCH_mobility.json`.
const KNOBS: &[&str] = &[
    "NELA_USERS",
    "NELA_TICKS",
    "NELA_RATE",
    "NELA_STATIONARY",
    "NELA_THREADS",
    "NELA_SWEEP_USERS",
    "NELA_SWEEP_FRACTIONS",
    "NELA_SWEEP_TICKS",
];

/// Part B's default move fractions: both sides of the mover crossover.
const SWEEP_FRACTIONS: [f64; 8] = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0];
/// Timed runs per Part B cell, each over the same moves.
const RUNS: usize = 3;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), fmt)
}

/// One cell of the Part B sweep.
#[derive(Debug, Clone, Serialize)]
struct SweepRow {
    n: usize,
    move_fraction: f64,
    ticks: usize,
    movers_per_tick: usize,
    /// Mean users whose candidate list a tick touched (every user on a tick
    /// past the mover crossover).
    mean_dirty: f64,
    /// Mean users whose rank list actually changed per tick.
    mean_changed: f64,
    /// Median over the cell's runs of the mean incremental and rebuild
    /// nanoseconds per tick.
    mean_incremental_ns: u64,
    mean_rebuild_ns: u64,
    /// `mean_rebuild_ns / mean_incremental_ns`.
    speedup: f64,
    /// Milliseconds per tick over the cell's [`RUNS`] runs.
    incremental_ms: Spread,
    rebuild_ms: Spread,
    /// Edges in the final rebuilt graph (the maintained rank rows reproduce
    /// its every CSR row — asserted every tick).
    edges: usize,
}

/// One timed run of a cell: mean nanoseconds per tick, plus the counters
/// every run must repeat.
struct CellRun {
    incremental_ns: u64,
    rebuild_ns: u64,
    dirty: usize,
    changed: usize,
    edges: usize,
}

/// Times `ticks` maintenance rounds at one (n, fraction) cell. Movers are
/// seeded draws; targets drift up to ±2δ (clamped to the unit square), the
/// bounded-speed regime the mobility models produce — far enough to cross
/// grid cells and change neighborhoods, near enough that motion stays
/// local. Every tick asserts that the maintained rank rows reproduce a
/// rebuild's CSR, outside the timed regions.
fn run_cell(points: &[Point], params: &Params, fraction: f64, ticks: usize, seed: u64) -> CellRun {
    let n = points.len();
    let builder = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss);
    let mut inc = IncrementalWpg::new(builder.clone(), points);
    let mut edges = 0;
    let movers = ((n as f64 * fraction) as usize).clamp(1, n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let drift = 2.0 * params.delta;
    let mut moves: Vec<(u32, Point)> = Vec::with_capacity(movers);
    let (mut inc_ns, mut reb_ns) = (0u64, 0u64);
    let (mut dirty, mut changed) = (0usize, 0usize);
    for _ in 0..ticks {
        moves.clear();
        for _ in 0..movers {
            let id = rng.gen_range(0..n as u32);
            let p = inc.points()[id as usize];
            moves.push((
                id,
                Point::new(
                    (p.x + rng.gen_range(-drift..drift)).clamp(0.0, 1.0),
                    (p.y + rng.gen_range(-drift..drift)).clamp(0.0, 1.0),
                ),
            ));
        }

        let t0 = Instant::now();
        let stats = inc.apply_moves(&moves);
        inc_ns += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let rebuilt = builder.build(inc.points());
        reb_ns += t1.elapsed().as_nanos() as u64;

        assert!(
            inc.rows().matches_csr(&rebuilt),
            "rank rows diverged from the rebuild at n={n} f={fraction}"
        );
        edges = rebuilt.m();
        dirty += stats.dirty;
        changed += stats.changed;
    }
    let t = ticks as u64;
    CellRun {
        incremental_ns: inc_ns / t,
        rebuild_ns: reb_ns / t,
        dirty,
        changed,
        edges,
    }
}

/// Runs one cell [`RUNS`] times over the same seeded moves; the runs must
/// agree on every counter.
fn sweep_cell(n: usize, fraction: f64, ticks: usize, seed: u64) -> SweepRow {
    let params = Params::scaled(n);
    let spec = DatasetSpec {
        n,
        seed: params.seed,
        distribution: params.distribution.clone(),
    };
    let points = spec.generate();
    let runs: Vec<CellRun> = (0..RUNS)
        .map(|_| run_cell(&points, &params, fraction, ticks, seed))
        .collect();
    let first = &runs[0];
    assert!(
        runs.iter()
            .all(|r| (r.dirty, r.changed, r.edges) == (first.dirty, first.changed, first.edges)),
        "runs over the same moves disagree at n={n} f={fraction}"
    );
    let ms = |f: fn(&CellRun) -> u64| {
        Spread::of(runs.iter().map(|r| Some(f(r) as f64 / 1e6))).expect("at least one run")
    };
    let (incremental_ms, rebuild_ms) = (ms(|r| r.incremental_ns), ms(|r| r.rebuild_ns));
    let (inc_ns, reb_ns) = (
        (incremental_ms.median * 1e6).round() as u64,
        (rebuild_ms.median * 1e6).round() as u64,
    );
    SweepRow {
        n,
        move_fraction: fraction,
        ticks,
        movers_per_tick: ((n as f64 * fraction) as usize).clamp(1, n),
        mean_dirty: first.dirty as f64 / ticks as f64,
        mean_changed: first.changed as f64 / ticks as f64,
        mean_incremental_ns: inc_ns,
        mean_rebuild_ns: reb_ns,
        speedup: reb_ns as f64 / inc_ns.max(1) as f64,
        incremental_ms,
        rebuild_ms,
        edges: first.edges,
    }
}

fn run_sweep(populations: &[usize], fractions: &[f64], ticks: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &n in populations {
        for &f in fractions {
            eprintln!("[sweep] n={n} fraction={f} ({ticks} ticks)");
            rows.push(sweep_cell(n, f, ticks, 0x5EED_2009 ^ n as u64));
        }
    }
    rows
}

fn print_sweep(rows: &[SweepRow]) {
    print_table(
        &format!(
            "Incremental maintenance vs from-scratch rebuild (ms per tick, median of {RUNS} runs)"
        ),
        &[
            "users",
            "moved",
            "dirty",
            "changed",
            "inc ms",
            "inc range",
            "full ms",
            "full range",
            "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                let range = |s: &Spread| format!("{}–{}", fmt(s.min), fmt(s.max));
                vec![
                    format!("{} @{:.0}%", r.n, r.move_fraction * 100.0),
                    r.movers_per_tick.to_string(),
                    fmt(r.mean_dirty),
                    fmt(r.mean_changed),
                    fmt(r.incremental_ms.median),
                    range(&r.incremental_ms),
                    fmt(r.rebuild_ms.median),
                    range(&r.rebuild_ms),
                    format!("{}x", fmt(r.speedup)),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn smoke() -> i32 {
    // CI-sized: a tiny population, fractions on both sides of the mover
    // crossover, equality asserted inside sweep_cell every tick.
    let rows = run_sweep(&[2_000], &[0.05, 0.1, 0.25, 0.5, 1.0], 3);
    print_sweep(&rows);
    println!("\nsmoke OK: {} cells, equality held every tick", rows.len());
    0
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let record_metrics = std::env::args().any(|a| a == "--metrics");
    if record_metrics {
        nela_obs::enable();
    }
    let cfg = ExpConfig::from_env();
    let overrides: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();

    // ---- Part A: the continuous pipeline.
    let params = Params {
        k: 10,
        ..Params::scaled(cfg.users)
    };
    let mobility = MobilityConfig::with_stationary(env_or("NELA_STATIONARY", 0.9));
    let driver = DriverConfig {
        ticks: env_or("NELA_TICKS", 25),
        rate: env_or("NELA_RATE", 40.0),
        seed: 20090329,
        measure_rebuild: true,
        threads: env_or("NELA_THREADS", 1usize),
    };
    eprintln!(
        "[mobility] {} users, {} ticks, λ={}/tick, δ={:.2e}",
        params.n_users, driver.ticks, driver.rate, params.delta
    );

    let summary = run_continuous(
        &params,
        &mobility,
        &driver,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );

    let rows: Vec<Vec<String>> = summary
        .per_tick
        .iter()
        .map(|m| {
            vec![
                m.tick.to_string(),
                m.moved.to_string(),
                m.dirty.to_string(),
                m.changed.to_string(),
                fmt(m.incremental_ns as f64 / 1e6),
                fmt(m.rebuild_ns as f64 / 1e6),
                m.invalidated.to_string(),
                m.active_clusters.to_string(),
                m.requests.to_string(),
                m.reused.to_string(),
                m.failed.to_string(),
                m.valid_served.to_string(),
            ]
        })
        .collect();
    print_table(
        "Continuous cloaking under mobility (per tick)",
        &[
            "tick", "moved", "dirty", "chngd", "inc ms", "full ms", "invald", "active", "reqs",
            "reused", "failed", "valid",
        ],
        &rows,
    );

    print_table(
        "Aggregate",
        &[
            "requests",
            "served",
            "reuse rate",
            "validity",
            "invalidated",
            "released",
            "speedup",
        ],
        &[vec![
            summary.requests.to_string(),
            summary.served.to_string(),
            fmt_opt(summary.reuse_rate),
            fmt_opt(summary.validity_rate),
            summary.invalidated.to_string(),
            summary.released.to_string(),
            format!("{}x", fmt_opt(summary.mean_speedup)),
        ]],
    );

    // ---- Part B: incremental-vs-rebuild maintenance sweep.
    let populations: Vec<usize> = std::env::var("NELA_SWEEP_USERS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000]);
    let fractions: Vec<f64> = std::env::var("NELA_SWEEP_FRACTIONS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| SWEEP_FRACTIONS.to_vec());
    let sweep_ticks = env_or("NELA_SWEEP_TICKS", 8usize);
    let sweep = run_sweep(&populations, &fractions, sweep_ticks);
    print_sweep(&sweep);

    #[derive(Serialize)]
    struct Report {
        provenance: Provenance,
        continuous: nela_mobility::RunSummary,
        sweep: Vec<SweepRow>,
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let provenance = Provenance::of_run(
        &root,
        vec![
            Knob::new("NELA_USERS", params.n_users),
            Knob::new("NELA_TICKS", driver.ticks),
            Knob::new("NELA_RATE", driver.rate),
            Knob::new("NELA_STATIONARY", mobility.stationary_frac),
            Knob::new("NELA_THREADS", driver.threads),
            Knob::new("NELA_SWEEP_USERS", format!("{populations:?}")),
            Knob::new("NELA_SWEEP_FRACTIONS", format!("{fractions:?}")),
            Knob::new("NELA_SWEEP_TICKS", sweep_ticks),
        ],
        false,
    );
    let report = Report {
        provenance,
        continuous: summary,
        sweep,
    };
    // Only a run at every default backs the committed file.
    if overrides.is_empty() {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        let path = root.join("BENCH_mobility.json");
        std::fs::write(&path, &json).expect("write BENCH_mobility.json");
        eprintln!("[results] wrote {}", path.display());
    } else {
        eprintln!(
            "[results] {overrides:?} override the defaults; BENCH_mobility.json left unchanged"
        );
    }
    cfg.write_json("exp_mobility", &report);

    if record_metrics {
        write_obs_snapshot(&root, report.provenance);
    }
}
