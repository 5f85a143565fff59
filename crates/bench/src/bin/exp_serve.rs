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
//! 4. **Saturation ramp** — per worker count, the offered rate doubles
//!    (small queue, 5 ms deadline) until a rung sheds at a median
//!    sustained rate below the best rung median so far: the ramp is past
//!    its peak, and rungs beyond it only shed more. A rung that sheds
//!    *and* expires requests is flagged as the knee. The capacity figure
//!    is the peak of the rungs' median sustained rates, with that rung's
//!    spread: the knee moves with noise, the peak much less.
//!
//! `--smoke` runs a small population and exits non-zero unless (a) two
//! same-seed single-worker sessions replay bit-identically — in-process
//! *and* over a lossy netsim transport, (b) a 2-worker session with
//! covering queue capacity serves requests with zero shed, (c) the
//! shedding accounting identities hold, and (d) a carried checkpoint lifts
//! the reuse rate over a cold start — the CI guard for the serving
//! determinism, liveness, and carry-over contracts.
//!
//! Every timed cell (sections 1, 2 and each rung of 4) runs three times.
//! The file keeps one run and, beside it, the median, min and max of the
//! cell's timed metrics: single runs on a small shared host swing by up to
//! half. The kept run is the one with the median e2e p50 when no run shed,
//! and the one with the median sustained throughput otherwise. A rung of
//! the ramp whose runs' sustained rates differ by more than
//! [`SAT_DISAGREE`]× was disturbed by the host; it runs again, up to
//! [`SAT_RERUNS`] more times, and records how often it did.
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
use std::time::Duration;

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
/// Saturation ramp: queue depth, per-request deadline, and the rate ladder
/// bounds (the rate doubles until the ramp is past its peak or the cap).
const SAT_QUEUE: usize = 64;
const SAT_DEADLINE: Duration = Duration::from_millis(5);
const SAT_START_RATE: f64 = 1_000.0;
const SAT_MAX_RATE: f64 = 1_024_000.0;
/// A rung whose runs' sustained rates spread wider than this (max over
/// min) is run again: on the same config the rates of runs that shed stay
/// within a few tens of percent of each other.
const SAT_DISAGREE: f64 = 2.0;
/// How many more times a disagreeing rung runs before its last runs are
/// kept as they are.
const SAT_RERUNS: usize = 2;
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

/// Runs `cfg` [`RUNS`] times. Returns one run and the spread of every timed
/// metric. When no run shed, the sustained rate is pinned to the offered
/// rate and differs between runs only by noise, so the kept run is the one
/// with the median e2e p50; when a run shed, the rate is the service's
/// capacity and the kept run is the one with the median sustained rate.
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
    if runs.iter().all(|r| r.shed == 0) {
        runs.sort_by_key(|r| r.e2e.p50_ns);
    } else {
        runs.sort_by(|a, b| a.sustained_rps.total_cmp(&b.sustained_rps));
    }
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

/// One rung of the saturation ramp: its kept run (see [`timed_cell`]), and
/// the spread over the rung's runs.
#[derive(Debug, Clone, Serialize)]
struct SatRow {
    workers: usize,
    offered_rps: f64,
    sustained_rps: f64,
    served: usize,
    shed: usize,
    expired: usize,
    e2e_p50_ms: Option<f64>,
    e2e_p99_ms: Option<f64>,
    /// True on a rung whose kept run sheds and expires. A flag only: the
    /// capacity figure is [`Capacity`], and the ramp stops past the peak.
    at_knee: bool,
    /// Times the rung ran again because its runs disagreed (see
    /// [`SAT_DISAGREE`]); the kept run and `spread` are the last attempt's.
    reruns: usize,
    spread: CellSpread,
}

/// The serving capacity of one worker count: the peak over its ramp's
/// rungs of the median sustained rate.
#[derive(Debug, Clone, Serialize)]
struct Capacity {
    workers: usize,
    capacity_rps: f64,
    /// The offered rate of the rung the peak was read on.
    offered_rps: f64,
    /// That rung's sustained rates over its runs (`median` is
    /// `capacity_rps`).
    spread: Spread,
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
    saturation: Vec<SatRow>,
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
    for (label, r) in [("replay", &a), ("netsim", &na), ("pooled", &pooled)] {
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

/// True when the sustained rates of a rung's runs differ by more than
/// [`SAT_DISAGREE`]×.
fn disagrees(sustained: Option<Spread>) -> bool {
    sustained.is_some_and(|s| s.max > SAT_DISAGREE * s.min)
}

/// Per worker count, the rung of `rows` with the highest median sustained
/// rate.
fn capacities(rows: &[SatRow]) -> Vec<Capacity> {
    let mut peaks: Vec<Capacity> = Vec::new();
    for row in rows {
        let Some(spread) = row.spread.sustained_rps else {
            continue;
        };
        let rung = Capacity {
            workers: row.workers,
            capacity_rps: spread.median,
            offered_rps: row.offered_rps,
            spread,
        };
        match peaks.iter_mut().find(|c| c.workers == row.workers) {
            Some(peak) if peak.capacity_rps >= rung.capacity_rps => {}
            Some(peak) => *peak = rung,
            None => peaks.push(rung),
        }
    }
    peaks
}

/// Section 4: double the offered rate until a rung sheds at a median
/// sustained rate below the best of the rungs before it.
fn saturation_ramp(system: &nela::System) -> Vec<SatRow> {
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut rate = SAT_START_RATE;
        let mut best = f64::NEG_INFINITY;
        loop {
            eprintln!("[saturate] workers = {workers}, rate = {rate} req/s");
            let cfg = ServeConfig {
                requests: 300,
                rate,
                workers,
                queue_capacity: SAT_QUEUE,
                deadline: Some(SAT_DEADLINE),
                query: QueryMix::Knn { k: K },
                seed: 42,
                ..ServeConfig::default()
            };
            let (mut r, mut spread) = timed_cell(system, &cfg);
            let mut reruns = 0;
            while reruns < SAT_RERUNS && disagrees(spread.sustained_rps) {
                eprintln!(
                    "[saturate] runs disagree ({} req/s), running the rung again",
                    range(spread.sustained_rps)
                );
                (r, spread) = timed_cell(system, &cfg);
                reruns += 1;
            }
            let at_knee = r.shed > 0 && r.expired > 0;
            let median = spread.sustained_rps.map_or(r.sustained_rps, |s| s.median);
            let past_peak = r.shed > 0 && median < best;
            best = best.max(median);
            rows.push(SatRow {
                workers,
                offered_rps: rate,
                sustained_rps: r.sustained_rps,
                served: r.served,
                shed: r.shed,
                expired: r.expired,
                e2e_p50_ms: ms(r.e2e.p50_ns),
                e2e_p99_ms: ms(r.e2e.p99_ns),
                at_knee,
                reruns,
                spread,
            });
            if past_peak || rate >= SAT_MAX_RATE {
                break;
            }
            rate *= 2.0;
        }
    }
    rows
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
            Knob::new("sat_queue", SAT_QUEUE),
            Knob::new("sat_deadline_ms", SAT_DEADLINE.as_millis()),
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
    let saturation = saturation_ramp(&system);
    let capacity = capacities(&saturation);

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

    let sat_table: Vec<Vec<String>> = saturation
        .iter()
        .map(|s| {
            vec![
                s.workers.to_string(),
                fmt(s.offered_rps),
                fmt(s.sustained_rps),
                s.served.to_string(),
                s.shed.to_string(),
                s.expired.to_string(),
                cell(s.e2e_p50_ms),
                cell(s.e2e_p99_ms),
                range(s.spread.sustained_rps),
                s.reruns.to_string(),
                if s.at_knee { "<- knee" } else { "" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Saturation ramp (rate doubles until a shedding rung falls below the best median)",
        &[
            "workers",
            "offered/s",
            "sustained/s",
            "served",
            "shed",
            "expired",
            "e2e p50 ms",
            "e2e p99 ms",
            "sustained min-max",
            "reruns",
            "",
        ],
        &sat_table,
    );

    let capacity_table: Vec<Vec<String>> = capacity
        .iter()
        .map(|c| {
            vec![
                c.workers.to_string(),
                fmt(c.capacity_rps),
                range(Some(c.spread)),
                fmt(c.offered_rps),
            ]
        })
        .collect();
    print_table(
        "Capacity (peak of the rungs' median sustained rates)",
        &["workers", "capacity/s", "min-max", "at offered/s"],
        &capacity_table,
    );

    let report = Report {
        provenance,
        population: system.points.len(),
        rows,
        netsim_rows,
        carry_over,
        saturation,
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
