//! End-to-end serving benchmark: sustained throughput and per-stage latency
//! of the anonymized LBS serving subsystem (`nela-serve`) under open-loop
//! Poisson load.
//!
//! Full mode builds one system (`NELA_USERS`, default 20,000), then runs
//! four sections into `BENCH_serve.json` at the repository root:
//!
//! 1. **Baseline sweep** — query type ∈ {range, krnn} × workers ∈
//!    {1, 2, 4, 8} × offered load, a fresh in-process serving session per
//!    cell, exact per-stage p50/p95/p99 plus backpressure accounting.
//! 2. **Netsim transport** — the same serving loop with both protocol
//!    phases carried by the simulated radio (5% per-transmission loss):
//!    per-session RPC retransmit/timeout totals and the virtual time the
//!    requests spent on the air.
//! 3. **Carry-over chain** — three sessions chained through
//!    [`nela_serve::run_session`] checkpoints against a cold baseline:
//!    the region-reuse rate each session starts with.
//! 4. **Capacity** — per worker count (1, 2, 4), the sweep's kRNN session
//!    drained: every arrival is due at t = 0, the queue holds the whole
//!    session and there is no deadline, so the sustained rate is the
//!    service's own and not the pace of an arrival schedule. This is how
//!    the repository's benchmark measures `capacity_rps`. The capacity
//!    figure is the drains' median sustained rate, with its spread.
//!
//! `--smoke` runs a small population and exits non-zero unless (a) two
//! same-seed single-worker sessions replay bit-identically — in-process
//! *and* over a lossy netsim transport, (b) a 2-worker session with
//! covering queue capacity serves requests with zero shed, (c) a
//! single-worker drain serves requests and sheds and expires nothing — the
//! precondition the capacity figure rests on, (d) the shedding accounting
//! identities hold, and (e) a carried checkpoint lifts the reuse rate over
//! a cold start — the CI guard for the serving determinism, liveness, and
//! carry-over contracts.
//!
//! Every timed cell (sections 1, 2 and 4) runs three times. The file keeps
//! the run with the median e2e p50 and, beside it, the median, min and max
//! of the cell's timed metrics: single runs on a small shared host swing by
//! up to half.
//!
//! The root file records its provenance (git revision, cores, profile,
//! knobs). A run whose `NELA_USERS` overrides the default population
//! prints its tables and leaves the root file alone.
//!
//! Environment: `NELA_USERS`, `NELA_RESULTS_DIR` (optional JSON dump).

use nela::netsim::NetworkConfig;
use nela_bench::{fmt, print_table, ExpConfig, Knob, Provenance, Spread, DEFAULT_USERS};
use nela_serve::{run_session, run_with_system, QueryMix, ServeConfig, ServeReport, Transport};
use serde::Serialize;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Offered loads swept per (query, workers) cell, in requests per second.
const RATES: [f64; 2] = [500.0, 2_000.0];
/// Requests per serving session (each cell is one bounded session).
const REQUESTS: usize = 400;
/// Range-query radius (unit square) and kRNN size for the workload.
const RADIUS: f64 = 0.02;
const K: usize = 5;
/// Per-transmission loss of the netsim section's radio.
const NET_LOSS: f64 = 0.05;
/// Offered load of a capacity drain: the whole session is due at t = 0.
const DRAIN_RATE: f64 = 1e12;
/// Runs per timed cell.
const RUNS: usize = 3;

/// The timed metrics of one cell over its [`RUNS`] runs.
#[derive(Debug, Clone, Serialize)]
struct CellSpread {
    runs: usize,
    sustained_rps: Option<Spread>,
    e2e_p50_ms: Option<Spread>,
    e2e_p99_ms: Option<Spread>,
    lbs_p50_ms: Option<Spread>,
}

/// Runs `cfg` [`RUNS`] times. Returns the run with the median e2e p50 and
/// the spread of every timed metric.
fn timed_cell(system: &nela::System, cfg: &ServeConfig) -> (ServeReport, CellSpread) {
    let mut runs: Vec<ServeReport> = (0..RUNS)
        .map(|_| run_with_system(system, cfg).expect("cell config is valid"))
        .collect();
    let spread = CellSpread {
        runs: RUNS,
        sustained_rps: Spread::of(runs.iter().map(|r| Some(r.sustained_rps))),
        e2e_p50_ms: Spread::of(runs.iter().map(|r| ms(r.e2e.p50_ns))),
        e2e_p99_ms: Spread::of(runs.iter().map(|r| ms(r.e2e.p99_ns))),
        lbs_p50_ms: Spread::of(runs.iter().map(|r| ms(r.lbs.p50_ns))),
    };
    runs.sort_by_key(|r| r.e2e.p50_ns);
    (runs.swap_remove(RUNS / 2), spread)
}

#[derive(Debug, Clone, Serialize)]
struct Row {
    query: String,
    /// The cell's kept run (see [`timed_cell`]).
    report: ServeReport,
    spread: CellSpread,
}

/// One session of the carry-over chain (or its cold baseline).
#[derive(Debug, Clone, Serialize)]
struct CarryRow {
    /// Position in the chain (0 = first, cold by construction).
    session: usize,
    /// `"cold"` or `"carried"` — whether a prior checkpoint seeded it.
    mode: String,
    carried_clusters: usize,
    served: usize,
    reused: usize,
    reuse_rate: Option<f64>,
}

/// The serving capacity of one worker count: the median sustained rate of
/// the drains of one session (see [`drain_capacity`]).
#[derive(Debug, Clone, Serialize)]
struct Capacity {
    workers: usize,
    capacity_rps: f64,
    /// The kept drain's outcome counts. A drain that shed and expired
    /// nothing took every request at the service's own pace.
    served: usize,
    shed: usize,
    expired: usize,
    /// The drains' timed metrics; `sustained_rps.median` is `capacity_rps`.
    spread: CellSpread,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    /// The run's git revision, cores (sustained throughput needs real
    /// cores), profile and knobs.
    provenance: Provenance,
    population: usize,
    rows: Vec<Row>,
    netsim_rows: Vec<Row>,
    carry_over: Vec<CarryRow>,
    capacity: Vec<Capacity>,
}

fn cell_config(query: QueryMix, workers: usize, rate: f64) -> ServeConfig {
    ServeConfig {
        requests: REQUESTS,
        rate,
        workers,
        queue_capacity: 1_024,
        query,
        seed: 42,
        ..ServeConfig::default()
    }
}

/// Milliseconds of an optional nanosecond percentile, `None` when the stage
/// recorded no samples.
fn ms(ns: Option<u64>) -> Option<f64> {
    ns.map(|n| n as f64 / 1e6)
}

/// Table cell for an optional millisecond value (`n/a` when absent).
fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), fmt)
}

/// Table cell for a spread's min and max (`n/a` when absent).
fn range(v: Option<Spread>) -> String {
    v.map_or_else(
        || "n/a".to_string(),
        |s| format!("{}-{}", fmt(s.min), fmt(s.max)),
    )
}

fn smoke() -> i32 {
    let cfg = ExpConfig {
        users: 2_500,
        results_dir: None,
    };
    let system = cfg.build(&cfg.params());
    let replay_cfg = ServeConfig {
        requests: 60,
        rate: 20_000.0,
        workers: 1,
        queue_capacity: 128,
        seed: 9,
        query: QueryMix::Mixed {
            radius: RADIUS,
            k: K,
            range_frac: 0.5,
        },
        ..ServeConfig::default()
    };
    eprintln!("[smoke] replay: two single-worker sessions, same seed");
    let a = run_with_system(&system, &replay_cfg).expect("valid config");
    let b = run_with_system(&system, &replay_cfg).expect("valid config");
    if (a.served, a.shed, a.failed, a.expired) != (b.served, b.shed, b.failed, b.expired) {
        eprintln!(
            "[smoke] FAIL: outcome counts diverged across replays \
             ({}/{}/{}/{} vs {}/{}/{}/{})",
            a.served, a.shed, a.failed, a.expired, b.served, b.shed, b.failed, b.expired
        );
        return 1;
    }
    if a.answers_digest != b.answers_digest {
        eprintln!(
            "[smoke] FAIL: answer digests diverged across replays \
             ({:#x} vs {:#x})",
            a.answers_digest, b.answers_digest
        );
        return 1;
    }
    if a.served == 0 {
        eprintln!("[smoke] FAIL: single-worker session served nothing");
        return 1;
    }

    eprintln!("[smoke] netsim replay: lossy transport, same seed twice");
    let net_cfg = ServeConfig {
        transport: Transport::Netsim(NetworkConfig {
            loss: NET_LOSS,
            seed: 7,
            ..NetworkConfig::default()
        }),
        ..replay_cfg.clone()
    };
    let na = run_with_system(&system, &net_cfg).expect("valid config");
    let nb = run_with_system(&system, &net_cfg).expect("valid config");
    if na.answers_digest != nb.answers_digest || (na.served, na.failed) != (nb.served, nb.failed) {
        eprintln!("[smoke] FAIL: netsim replay diverged at a fixed seed");
        return 1;
    }
    let net_a = na.net.expect("netsim totals");
    let net_b = nb.net.expect("netsim totals");
    if (net_a.transmissions, net_a.retransmits, net_a.timeouts)
        != (net_b.transmissions, net_b.retransmits, net_b.timeouts)
    {
        eprintln!("[smoke] FAIL: netsim network accounting diverged across replays");
        return 1;
    }
    if net_a.transmissions == 0 || net_a.retransmits == 0 {
        eprintln!(
            "[smoke] FAIL: lossy netsim session recorded no traffic/retransmits \
             ({} transmissions, {} retransmits)",
            net_a.transmissions, net_a.retransmits
        );
        return 1;
    }

    eprintln!("[smoke] liveness: 2 workers, covering queue capacity");
    let pool_cfg = ServeConfig {
        workers: 2,
        ..replay_cfg.clone()
    };
    let pooled = run_with_system(&system, &pool_cfg).expect("valid config");
    if pooled.served == 0 {
        eprintln!("[smoke] FAIL: 2-worker session served nothing");
        return 1;
    }
    if pooled.shed != 0 {
        eprintln!(
            "[smoke] FAIL: shed {} requests with capacity covering the whole schedule",
            pooled.shed
        );
        return 1;
    }
    eprintln!("[smoke] drain: one worker, every arrival due at t = 0");
    let drain_cfg = ServeConfig {
        rate: DRAIN_RATE,
        ..replay_cfg.clone()
    };
    let drained = run_with_system(&system, &drain_cfg).expect("valid config");
    if drained.served == 0 || drained.shed != 0 || drained.expired != 0 {
        eprintln!(
            "[smoke] FAIL: a drain must serve requests and shed and expire nothing \
             (served {}, shed {}, expired {})",
            drained.served, drained.shed, drained.expired
        );
        return 1;
    }
    for (label, r) in [
        ("replay", &a),
        ("netsim", &na),
        ("pooled", &pooled),
        ("drain", &drained),
    ] {
        if r.admitted + r.shed != r.requests || r.served + r.failed + r.expired != r.admitted {
            eprintln!("[smoke] FAIL: {label} session broke the accounting identities");
            return 1;
        }
    }

    eprintln!("[smoke] carry-over: a checkpoint must lift the reuse rate");
    let chain_cfg = ServeConfig {
        requests: 200,
        ..replay_cfg
    };
    let first = run_session(&system, &chain_cfg, None).expect("valid config");
    let cold = run_session(&system, &chain_cfg, None).expect("valid config");
    let carried = run_session(&system, &chain_cfg, Some(first.checkpoint)).expect("valid config");
    if carried.report.carried_clusters == 0 {
        eprintln!("[smoke] FAIL: nothing carried over an unmoved population");
        return 1;
    }
    if carried.report.reused <= cold.report.reused {
        eprintln!(
            "[smoke] FAIL: carry-over did not lift reuse ({} vs cold {})",
            carried.report.reused, cold.report.reused
        );
        return 1;
    }
    eprintln!(
        "[smoke] OK: replay identical (digest {:#x}), netsim identical \
         ({} retransmits), carry-over reuse {} > cold {}",
        a.answers_digest, net_a.retransmits, carried.report.reused, cold.report.reused
    );
    0
}

/// Section 3: three chained sessions vs a cold baseline, same config.
fn carry_over_chain(system: &nela::System) -> Vec<CarryRow> {
    let cfg = cell_config(QueryMix::Knn { k: K }, 2, 2_000.0);
    let row = |session: usize, mode: &str, r: &ServeReport| CarryRow {
        session,
        mode: mode.to_string(),
        carried_clusters: r.carried_clusters,
        served: r.served,
        reused: r.reused,
        reuse_rate: r.reuse_rate,
    };
    let mut rows = Vec::new();
    // Cold baseline: what a session starting from nothing reuses.
    let cold = run_session(system, &cfg, None).expect("valid config");
    rows.push(row(0, "cold", &cold.report));
    // The chain: each session resumes from its predecessor's checkpoint.
    let mut checkpoint = None;
    for session in 0..3 {
        eprintln!("[carry] chained session {session}");
        let outcome = run_session(system, &cfg, checkpoint).expect("valid config");
        rows.push(row(
            session,
            if session == 0 { "cold" } else { "carried" },
            &outcome.report,
        ));
        checkpoint = Some(outcome.checkpoint);
    }
    rows
}

/// Section 4: per worker count, the sweep's kRNN session drained [`RUNS`]
/// times.
fn drain_capacity(system: &nela::System) -> Vec<Capacity> {
    [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            eprintln!("[capacity] workers = {workers}, every arrival due at t = 0");
            let cfg = cell_config(QueryMix::Knn { k: K }, workers, DRAIN_RATE);
            let (r, spread) = timed_cell(system, &cfg);
            Capacity {
                workers,
                capacity_rps: spread.sustained_rps.map_or(r.sustained_rps, |s| s.median),
                served: r.served,
                shed: r.shed,
                expired: r.expired,
                spread,
            }
        })
        .collect()
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let cfg = ExpConfig::from_env();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let provenance = Provenance::of_run(
        &root,
        vec![
            Knob::new("NELA_USERS", cfg.users),
            Knob::new("runs_per_cell", RUNS),
            Knob::new("requests", REQUESTS),
            Knob::new("rates", format!("{RATES:?}")),
            Knob::new("workers", format!("{WORKERS:?}")),
            Knob::new("net_loss", NET_LOSS),
        ],
        false,
    );
    let cores = provenance.cores;
    let system = cfg.build(&cfg.params());
    let mut rows = Vec::new();
    for (label, query) in [
        ("range", QueryMix::Range { radius: RADIUS }),
        ("krnn", QueryMix::Knn { k: K }),
    ] {
        for workers in WORKERS {
            for rate in RATES {
                eprintln!("[serve] query = {label}, workers = {workers}, rate = {rate} req/s");
                let (report, spread) = timed_cell(&system, &cell_config(query, workers, rate));
                rows.push(Row {
                    query: label.to_string(),
                    report,
                    spread,
                });
            }
        }
    }

    // Netsim transport: both protocol phases over a 5%-loss radio.
    let mut netsim_rows = Vec::new();
    for workers in [1usize, 2] {
        eprintln!("[netsim] workers = {workers}, loss = {NET_LOSS}");
        let config = ServeConfig {
            transport: Transport::Netsim(NetworkConfig {
                loss: NET_LOSS,
                seed: 7,
                ..NetworkConfig::default()
            }),
            ..cell_config(QueryMix::Knn { k: K }, workers, 500.0)
        };
        let (report, spread) = timed_cell(&system, &config);
        netsim_rows.push(Row {
            query: "krnn".to_string(),
            report,
            spread,
        });
    }

    let carry_over = carry_over_chain(&system);
    let capacity = drain_capacity(&system);

    let table: Vec<Vec<String>> = rows
        .iter()
        .chain(netsim_rows.iter())
        .map(|r| {
            vec![
                format!("{}/{}", r.query, r.report.transport),
                r.report.workers.to_string(),
                fmt(r.report.offered_rps),
                fmt(r.report.sustained_rps),
                format!("{}/{}", r.report.served, r.report.requests),
                r.report.shed.to_string(),
                cell(ms(r.report.e2e.p50_ns)),
                cell(ms(r.report.e2e.p95_ns)),
                cell(ms(r.report.e2e.p99_ns)),
                range(r.spread.e2e_p99_ms),
                cell(ms(r.report.cloak.p50_ns)),
                cell(ms(r.report.lbs.p50_ns)),
                cell(ms(r.report.refine.p50_ns)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Serving under open-loop load, {} users ({cores} cores available)",
            system.points.len()
        ),
        &[
            "query",
            "workers",
            "offered/s",
            "sustained/s",
            "served",
            "shed",
            "e2e p50 ms",
            "e2e p95 ms",
            "e2e p99 ms",
            "p99 min-max",
            "cloak p50",
            "lbs p50",
            "refine p50",
        ],
        &table,
    );

    let carry_table: Vec<Vec<String>> = carry_over
        .iter()
        .map(|c| {
            vec![
                c.session.to_string(),
                c.mode.clone(),
                c.carried_clusters.to_string(),
                c.served.to_string(),
                c.reused.to_string(),
                cell(c.reuse_rate),
            ]
        })
        .collect();
    print_table(
        "Cross-session cluster carry-over (chained checkpoints vs cold)",
        &[
            "session",
            "mode",
            "carried",
            "served",
            "reused",
            "reuse rate",
        ],
        &carry_table,
    );

    let capacity_table: Vec<Vec<String>> = capacity
        .iter()
        .map(|c| {
            vec![
                c.workers.to_string(),
                fmt(c.capacity_rps),
                range(c.spread.sustained_rps),
                c.served.to_string(),
                c.shed.to_string(),
                c.expired.to_string(),
            ]
        })
        .collect();
    print_table(
        "Capacity (median sustained rate of drains, every arrival due at t = 0)",
        &[
            "workers",
            "capacity/s",
            "min-max",
            "served",
            "shed",
            "expired",
        ],
        &capacity_table,
    );

    let report = Report {
        provenance,
        population: system.points.len(),
        rows,
        netsim_rows,
        carry_over,
        capacity,
    };
    // Only the default population backs the committed file.
    if cfg.users == DEFAULT_USERS {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        let path = root.join("BENCH_serve.json");
        std::fs::write(&path, &json).expect("write BENCH_serve.json");
        eprintln!("[results] wrote {}", path.display());
    } else {
        eprintln!(
            "[results] NELA_USERS={} overrides the default {DEFAULT_USERS}; \
             BENCH_serve.json left unchanged",
            cfg.users
        );
    }
    cfg.write_json("exp_serve", &report);
}
