//! Parallel cloaking pipeline: scaling and bit-identity of the threaded
//! build paths (grid fill, WPG construction, connected components, batched
//! request serving) against their serial baselines.
//!
//! Full mode sweeps n ∈ {10k, 50k, 100k} × threads ∈ {1, 2, 4, 8}, runs
//! every cell [`RUNS`] times over the same inputs, checks every run's
//! result against the single-threaded one, and writes the timing series to
//! `BENCH_parallel.json` at the repository root, under a `provenance` block
//! (git rev, cores, profile, the sweep's knobs). A cell reports each
//! stage's median over its runs with the stage's spread (median, min,
//! max): single runs on a small shared host swing by up to half. Speedups
//! require real cores (the block records how many were available); on any
//! machine the bit-identity checks are exact.
//!
//! `--smoke` runs a small population with 2 threads and exits non-zero on
//! any parallel/serial divergence — the CI guard for the determinism
//! contract.
//!
//! `--metrics` additionally replays an instrumented pipeline (plus a
//! lossy-network clustering stage, so the RPC retransmission counters are
//! populated) and writes the `nela-obs` snapshot to `BENCH_obs.json` at the
//! repository root, under the same `provenance` block. `nela stats --file
//! BENCH_obs.json` renders it.
//!
//! Environment: `NELA_RESULTS_DIR` (optional extra JSON dump location).

use nela::{
    auto_shard_axis, BoundingAlgo, CloakingEngine, CloakingResult, ClusteringAlgo, Params,
    RequestError, System,
};
use nela_bench::{fmt, print_table, write_obs_snapshot, ExpConfig, Knob, Provenance, Spread};
use nela_geo::{DatasetSpec, GridIndex, Point};
use nela_wpg::connectivity::{components_under, components_under_threads, nothing_removed};
use nela_wpg::{Edge, InverseDistanceRss, Wpg, WpgBuilder};
use serde::Serialize;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const POPULATIONS: [usize; 3] = [10_000, 50_000, 100_000];
/// `--metrics`: the instrumented pipeline replay's population, and the
/// lossy-network clustering stage's.
const REPLAY_USERS: usize = 10_000;
const NETSIM_USERS: usize = 2_000;
/// Runs per (n, threads) cell.
const RUNS: usize = 3;

#[derive(Debug, Clone, Serialize)]
struct Cell {
    n: usize,
    threads: usize,
    /// Registry shards used by the batch stage (0 when it ran serially).
    shards: usize,
    /// The median of each stage over the cell's runs.
    grid_ms: f64,
    wpg_ms: f64,
    components_ms: f64,
    request_many_ms: f64,
    /// The median over the runs of their totals over the four stages.
    total_ms: f64,
    /// Speedup of `total_ms` relative to the 1-thread row at the same n.
    speedup: f64,
    /// Every run's parallel artifacts equalled the serial ones bit for bit.
    identical: bool,
    spread: CellSpread,
}

/// Every timed stage of one cell over its runs.
#[derive(Debug, Clone, Serialize)]
struct CellSpread {
    runs: usize,
    grid_ms: Spread,
    wpg_ms: Spread,
    components_ms: Spread,
    request_many_ms: Spread,
    total_ms: Spread,
}

/// One run's stage times: grid, WPG, components, batch.
type Times = [f64; 4];

/// The artifacts of one run that the identity check compares: the WPG's
/// edge list, the components, and how many requests were served.
type Artifacts = (Vec<Edge>, Vec<Vec<nela_geo::UserId>>, usize);

#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Where the numbers came from; `cores` are the logical CPUs available
    /// to the run (speedups need > 1).
    provenance: Provenance,
    rows: Vec<Cell>,
}

fn edges_of(g: &Wpg) -> Vec<Edge> {
    g.edges().collect()
}

/// One timed run of the four stages at `threads`.
fn run_once(points: &[Point], params: &Params, threads: usize) -> (Times, Artifacts) {
    let n = points.len();
    let t0 = Instant::now();
    let grid = GridIndex::build_threads(points, params.delta, threads);
    let grid_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(points, &grid, threads);
    let wpg_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let comps = components_under_threads(&wpg, 3, &nothing_removed, threads);
    let components_ms = t2.elapsed().as_secs_f64() * 1e3;

    // Batched serving over a fixed host sample (scaled with n, capped so the
    // sweep stays tractable at 100k).
    let system = System::with_parts(params.clone(), points.to_vec(), grid, wpg.clone());
    let hosts = system.host_sequence((n / 50).clamp(100, 1_000), 7);
    let t3 = Instant::now();
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let outcomes = engine.request_many(&hosts, threads);
    let request_many_ms = t3.elapsed().as_secs_f64() * 1e3;
    let served = outcomes.iter().filter(|o| o.is_ok()).count();
    (
        [grid_ms, wpg_ms, components_ms, request_many_ms],
        (edges_of(&wpg), comps, served),
    )
}

/// One (n, threads) cell: [`RUNS`] runs over the same inputs, each checked
/// against `reference`, the serial artifacts (`None` when this cell *is*
/// the serial one: its first run becomes the reference of the others).
/// Returns the cell and its first run's artifacts.
fn measure(
    points: &[Point],
    params: &Params,
    threads: usize,
    reference: Option<&Artifacts>,
) -> (Cell, Artifacts) {
    let mut times = Vec::with_capacity(RUNS);
    let mut first: Option<Artifacts> = None;
    let mut identical = true;
    for _ in 0..RUNS {
        let (t, artifacts) = run_once(points, params, threads);
        times.push(t);
        // `served` can differ across thread counts only through contention
        // retries; edge lists and components are hard guarantees.
        if let Some(r) = reference.or(first.as_ref()) {
            identical &= r.0 == artifacts.0 && r.1 == artifacts.1;
        }
        first.get_or_insert(artifacts);
    }
    let stage = |i: usize| Spread::of(times.iter().map(|t| Some(t[i]))).expect("runs > 0");
    let total = Spread::of(times.iter().map(|t| Some(t.iter().sum()))).expect("runs > 0");
    let spread = CellSpread {
        runs: RUNS,
        grid_ms: stage(0),
        wpg_ms: stage(1),
        components_ms: stage(2),
        request_many_ms: stage(3),
        total_ms: total,
    };
    (
        Cell {
            n: points.len(),
            threads,
            shards: if threads <= 1 {
                0
            } else {
                auto_shard_axis(threads).pow(2)
            },
            grid_ms: spread.grid_ms.median,
            wpg_ms: spread.wpg_ms.median,
            components_ms: spread.components_ms.median,
            request_many_ms: spread.request_many_ms.median,
            total_ms: spread.total_ms.median,
            speedup: 1.0, // filled in by the caller from the serial row
            identical,
            spread,
        },
        first.expect("runs > 0"),
    )
}

fn population(n: usize) -> (Vec<Point>, Params) {
    let params = Params::scaled(n);
    let points = DatasetSpec {
        n,
        seed: params.seed,
        distribution: params.distribution.clone(),
    }
    .generate();
    (points, params)
}

fn smoke() -> i32 {
    let (points, params) = population(5_000);
    eprintln!("[smoke] 5,000 users, serial vs 2 threads");
    let serial_grid = GridIndex::build(&points, params.delta);
    let serial_wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(&points, &serial_grid, 1);
    let serial_comps = components_under(&serial_wpg, 3, &nothing_removed);

    let par_grid = GridIndex::build_threads(&points, params.delta, 2);
    let par_wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(&points, &par_grid, 2);
    let par_comps = components_under_threads(&par_wpg, 3, &nothing_removed, 2);

    if edges_of(&serial_wpg) != edges_of(&par_wpg) {
        eprintln!("[smoke] FAIL: parallel WPG edge list diverged from serial");
        return 1;
    }
    if serial_comps != par_comps {
        eprintln!("[smoke] FAIL: parallel components diverged from serial");
        return 1;
    }

    // Batched serving: the single-thread batch must equal the request loop;
    // the 2-thread batch must keep the registry consistent.
    let system = System::with_parts(params.clone(), points, par_grid, par_wpg);
    let hosts = system.host_sequence(100, 7);
    let engine = || {
        CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        )
    };
    let same = |a: &Result<CloakingResult, RequestError>,
                b: &Result<CloakingResult, RequestError>| {
        match (a, b) {
            (Ok(x), Ok(y)) => x.region == y.region && x.reused == y.reused,
            (Err(_), Err(_)) => true,
            _ => false,
        }
    };
    let mut loop_engine = engine();
    let looped: Vec<_> = hosts.iter().map(|&h| loop_engine.request(h)).collect();
    let batched = engine().request_many(&hosts, 1);
    if !looped.iter().zip(&batched).all(|(a, b)| same(a, b)) {
        eprintln!("[smoke] FAIL: single-thread request_many diverged from request loop");
        return 1;
    }
    // A one-worker session must also equal the loop, for more than one
    // shard layout.
    for axis in [1usize, 3] {
        let session = engine().into_session(axis);
        if !hosts
            .iter()
            .zip(&looped)
            .all(|(&h, a)| same(a, &session.request(h)))
        {
            eprintln!("[smoke] FAIL: 1-worker session (axis {axis}) diverged from request loop");
            return 1;
        }
    }
    let mut par_engine = engine();
    let outcomes = par_engine.request_many(&hosts, 2);
    if outcomes.iter().filter(|o| o.is_ok()).count() == 0 {
        eprintln!("[smoke] FAIL: 2-thread batch served nothing");
        return 1;
    }
    if par_engine.registry().reciprocity_violation().is_some() {
        eprintln!("[smoke] FAIL: 2-thread batch corrupted the registry");
        return 1;
    }
    eprintln!("[smoke] OK: parallel pipeline is bit-identical to serial");
    0
}

/// Runs the distributed clustering protocol over a lossy simulated radio so
/// the metrics snapshot also carries the `net.rpc.*` retransmission and
/// timeout counters alongside the pipeline stage histograms.
fn netsim_stage() {
    use nela::cluster::distributed::distributed_k_clustering_with;
    use nela::netsim::network::{Network, NetworkConfig};
    use nela::netsim::proto::SimFetch;

    let (points, params) = population(NETSIM_USERS);
    let grid = GridIndex::build(&points, params.delta);
    let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(&points, &grid, 1);
    let system = System::with_parts(params.clone(), points, grid, wpg);
    for (i, &host) in system.host_sequence(40, 7).iter().enumerate() {
        let mut net = Network::new(NetworkConfig {
            loss: 0.3,
            max_retries: 5,
            seed: i as u64,
            ..Default::default()
        })
        .expect("config is valid");
        let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
        let _ = distributed_k_clustering_with(&mut fetch, host, params.k, &|_| false);
        net.stats().record();
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    // NOTE: metrics are enabled only *after* the timed sweep below —
    // enabling here used to make every span in the hot loops record real
    // histogram samples during `measure()`, so the wall times written to
    // BENCH_parallel.json depended on whether `--metrics` was passed. The
    // sweep now always runs uninstrumented; `--metrics` replays an
    // instrumented (untimed) pipeline afterwards to populate the snapshot.
    let record_metrics = std::env::args().any(|a| a == "--metrics");
    let cfg = ExpConfig::from_env();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let provenance = Provenance::of_run(
        &root,
        vec![
            Knob::new("users", format!("{POPULATIONS:?}")),
            Knob::new("threads", format!("{THREADS:?}")),
            Knob::new("runs_per_cell", RUNS),
        ],
        false,
    );
    let cores = provenance.cores;
    let mut rows = Vec::new();
    for n in POPULATIONS {
        let (points, params) = population(n);
        eprintln!("[parallel] n = {n}, sweeping {THREADS:?} threads");
        let mut reference = None;
        let mut serial_total = 0.0;
        for threads in THREADS {
            let (mut cell, artifacts) = measure(&points, &params, threads, reference.as_ref());
            if threads == 1 {
                serial_total = cell.total_ms;
                reference = Some(artifacts);
            }
            cell.speedup = serial_total / cell.total_ms;
            assert!(
                cell.identical,
                "parallel output diverged from serial at n = {n}, {threads} threads"
            );
            rows.push(cell);
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|c| {
            vec![
                c.n.to_string(),
                c.threads.to_string(),
                c.shards.to_string(),
                fmt(c.grid_ms),
                fmt(c.wpg_ms),
                fmt(c.components_ms),
                fmt(c.request_many_ms),
                fmt(c.total_ms),
                format!(
                    "{}-{}",
                    fmt(c.spread.total_ms.min),
                    fmt(c.spread.total_ms.max)
                ),
                format!("{}x", fmt(c.speedup)),
                if c.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Parallel pipeline scaling, median of {RUNS} runs ({cores} cores available)"),
        &[
            "n",
            "threads",
            "shards",
            "grid ms",
            "wpg ms",
            "comps ms",
            "batch ms",
            "total ms",
            "total min-max",
            "speedup",
            "identical",
        ],
        &table,
    );

    let report = Report {
        provenance: provenance.clone(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = root.join("BENCH_parallel.json");
    std::fs::write(&path, &json).expect("write BENCH_parallel.json");
    eprintln!("[results] wrote {}", path.display());
    cfg.write_json("exp_parallel", &report);

    if record_metrics {
        nela_obs::enable();
        // Instrumented replay of one mid-size pipeline so the snapshot
        // carries the stage histograms the timed sweep no longer records.
        eprintln!("[parallel] instrumented pipeline replay for stage histograms");
        let (points, params) = population(REPLAY_USERS);
        let _ = run_once(&points, &params, cores);
        eprintln!("[parallel] lossy-network clustering stage for RPC counters");
        netsim_stage();
        let knobs = vec![
            Knob::new("replay_users", REPLAY_USERS),
            Knob::new("replay_threads", cores),
            Knob::new("netsim_users", NETSIM_USERS),
        ];
        write_obs_snapshot(
            &root,
            Provenance {
                knobs,
                ..provenance
            },
        );
    }
}
