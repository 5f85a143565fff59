//! Continuous cloaking under mobility (beyond the paper's static snapshot).
//!
//! **Part A — continuous pipeline.** Runs `nela-mobility`: the population
//! moves under a seeded waypoint/Gauss–Markov/stationary mixture, the WPG is
//! maintained incrementally over the region-sharded grid, broken clusters
//! are retired by the epoch audit, and a Poisson stream of requests is
//! served with the cluster registry carried across ticks. Reports per-tick
//! and aggregate cluster-reuse rate, invalidation counts, anonymity
//! validity, and the incremental-vs-rebuild speedup.
//!
//! **Part B — maintenance sweep.** Times one incremental tick (staged moves
//! folded into the sharded grid and pushed into the candidate lists, or
//! every user re-probed past the mover crossover, plus the in-place graph
//! refill) against a from-scratch `WpgBuilder::build` across populations
//! and move fractions, asserting graph equality outside the timed region
//! every tick. The default fractions fall on both sides of the crossover.
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
//! Flags: `--metrics` enables the `nela-obs` recorder and writes
//! `BENCH_obs.json`; `--smoke` runs a small CI-sized sweep (equality
//! asserts intact, no files written) and exits.

use nela::{BoundingAlgo, ClusteringAlgo, Params};
use nela_bench::{fmt, print_table, ExpConfig, Knob, Provenance};
use nela_geo::{DatasetSpec, Point};
use nela_mobility::{run_continuous, DriverConfig, MobilityConfig};
use nela_wpg::{IncrementalWpg, InverseDistanceRss, Wpg, WpgBuilder};
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
    mean_incremental_ns: u64,
    mean_rebuild_ns: u64,
    /// `mean_rebuild_ns / mean_incremental_ns`.
    speedup: f64,
    /// Edges in the final maintained graph (equal to the rebuilt graph's —
    /// asserted every tick).
    edges: usize,
}

/// Times `ticks` maintenance rounds at one (n, fraction) cell. Movers are
/// seeded draws; targets drift up to ±2δ (clamped to the unit square), the
/// bounded-speed regime the mobility models produce — far enough to cross
/// grid cells and change neighborhoods, near enough that motion stays
/// local. Every tick asserts the maintained graph equals a rebuild, outside
/// the timed regions.
fn sweep_cell(n: usize, fraction: f64, ticks: usize, seed: u64) -> SweepRow {
    let params = Params::scaled(n);
    let spec = DatasetSpec {
        n,
        seed: params.seed,
        distribution: params.distribution.clone(),
    };
    let points = spec.generate();
    let builder = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss);
    let mut inc = IncrementalWpg::new(builder.clone(), &points);
    let mut reused: Wpg = inc.snapshot();
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
        inc.snapshot_into(&mut reused);
        inc_ns += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let rebuilt = builder.build(inc.points());
        reb_ns += t1.elapsed().as_nanos() as u64;

        assert_eq!(
            reused.m(),
            rebuilt.m(),
            "incremental diverged at n={n} f={fraction}"
        );
        assert!(
            reused.edges().eq(rebuilt.edges()),
            "edge mismatch at n={n} f={fraction}"
        );
        dirty += stats.dirty;
        changed += stats.changed;
    }
    let t = ticks as u64;
    SweepRow {
        n,
        move_fraction: fraction,
        ticks,
        movers_per_tick: movers,
        mean_dirty: dirty as f64 / ticks as f64,
        mean_changed: changed as f64 / ticks as f64,
        mean_incremental_ns: inc_ns / t,
        mean_rebuild_ns: reb_ns / t,
        speedup: (reb_ns / t) as f64 / (inc_ns / t).max(1) as f64,
        edges: reused.m(),
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
        "Incremental maintenance vs from-scratch rebuild (per tick)",
        &[
            "users", "moved", "dirty", "changed", "inc ms", "full ms", "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{} @{:.0}%", r.n, r.move_fraction * 100.0),
                    r.movers_per_tick.to_string(),
                    fmt(r.mean_dirty),
                    fmt(r.mean_changed),
                    fmt(r.mean_incremental_ns as f64 / 1e6),
                    fmt(r.mean_rebuild_ns as f64 / 1e6),
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
        let obs_path = root.join("BENCH_obs.json");
        std::fs::write(&obs_path, nela_obs::snapshot().to_json()).expect("write BENCH_obs.json");
        eprintln!("[results] wrote {}", obs_path.display());
    }
}
