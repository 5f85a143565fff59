//! The CLI subcommands.

use crate::args::{ArgError, Args};
use nela::cluster::knn::TieBreak;
use nela::geo::UserId;
use nela::lbs::{refine_knn, CloakedQuery, LbsServer, PoiStore};
use nela::metrics::run_workload_threads;
use nela::netsim::NetworkConfig;
use nela::{
    anonymity_of, audit_result, center_attack, intersection_attack, BoundingAlgo, CloakingEngine,
    ClusteringAlgo, Params, System,
};
use nela_serve::{QueryMix, ServeConfig, Transport};

const COMMON: &[&str] = &[
    "users", "seed", "k", "m", "algo", "bounding", "requests", "host", "json", "knn", "threads",
    "shards", "metrics",
];

/// `--metrics <path>` support: enables the global recorder on construction
/// (so every stage from `System::build` onward is captured) and writes the
/// snapshot on drop — covering every exit path of a subcommand.
struct MetricsSink(Option<String>);

impl MetricsSink {
    fn from(args: &Args) -> Self {
        let path = args.get("metrics").map(str::to_string);
        if path.is_some() {
            nela_obs::enable();
        }
        MetricsSink(path)
    }
}

impl Drop for MetricsSink {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let snapshot = nela_obs::snapshot();
            if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                eprintln!("warning: could not write metrics to {path}: {e}");
            }
        }
    }
}

/// The one parameter reader of every subcommand that builds a deployment.
/// A zero population, k or M is a usage error; the default request count
/// is capped at the population.
fn build_params(args: &Args) -> Result<Params, ArgError> {
    let users: usize = args.num_or("users", 20_000)?;
    let mut params = Params::scaled(users);
    params.k = args.num_or("k", params.k)?;
    params.max_peers = args.num_or("m", params.max_peers)?;
    for (flag, value) in [
        ("users", params.n_users),
        ("k", params.k),
        ("m", params.max_peers),
    ] {
        if value == 0 {
            return Err(ArgError(format!("--{flag} 0: must be at least 1")));
        }
    }
    params.seed = args.num_or("seed", 1u64)?;
    params.requests = args.num_or("requests", params.requests.min(users))?;
    params.threads = args.num_or("threads", 1usize)?.max(1);
    params.shards = args.num_or("shards", 0usize)?; // 0 = auto (≈4 per worker)
    Ok(params)
}

/// `simulate` and `attack` issue one request per distinct host, so
/// `--requests` may not exceed `--users`.
fn check_distinct_hosts(params: &Params) -> Result<(), ArgError> {
    if params.requests > params.n_users {
        return Err(ArgError(format!(
            "--requests {}: more than the {} users (one request per distinct host)",
            params.requests, params.n_users
        )));
    }
    Ok(())
}

fn clustering_algo(args: &Args) -> Result<ClusteringAlgo, ArgError> {
    match args.get_or("algo", "tconn") {
        "tconn" => Ok(ClusteringAlgo::TConnDistributed),
        "central" => Ok(ClusteringAlgo::TConnCentralized),
        "knn" => Ok(ClusteringAlgo::Knn(TieBreak::Id)),
        "hilbasr" => Ok(ClusteringAlgo::HilbAsr),
        other => Err(ArgError(format!(
            "--algo {other}: expected tconn | central | knn | hilbasr"
        ))),
    }
}

fn bounding_algo(args: &Args) -> Result<BoundingAlgo, ArgError> {
    match args.get_or("bounding", "secure") {
        "secure" => Ok(BoundingAlgo::Secure),
        "optimal" => Ok(BoundingAlgo::Optimal),
        "linear" => Ok(BoundingAlgo::Linear),
        "exp" | "exponential" => Ok(BoundingAlgo::Exponential),
        other => Err(ArgError(format!(
            "--bounding {other}: expected secure | optimal | linear | exp"
        ))),
    }
}

/// Picks the requested host or the first servable one.
fn choose_host(system: &System, args: &Args) -> Result<UserId, ArgError> {
    if let Some(h) = args
        .num_or::<i64>("host", -1)?
        .try_into()
        .ok()
        .filter(|&h: &u32| (h as usize) < system.points.len())
    {
        return Ok(h);
    }
    system
        .host_sequence(system.points.len().min(500), 7)
        .into_iter()
        .find(|&h| {
            nela::cluster::distributed_k_clustering(&system.wpg, h, system.params.k, &|_| false)
                .is_ok()
        })
        .ok_or_else(|| ArgError("no servable host found in sample".into()))
}

/// `nela inspect`
pub fn inspect(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, COMMON)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    let system = System::build(&params);
    let g = &system.wpg;
    let mut degrees: Vec<usize> = (0..g.n() as UserId).map(|u| g.degree(u)).collect();
    degrees.sort_unstable();
    let global = nela::cluster::centralized_k_clustering(g, params.k);
    if args.flag("json") {
        println!(
            "{}",
            serde_json::json!({
                "users": g.n(),
                "edges": g.m(),
                "avg_degree": g.avg_degree(),
                "degree_p50": degrees[g.n() / 2],
                "degree_max": degrees[g.n() - 1],
                "isolated_users": degrees.iter().filter(|&&d| d == 0).count(),
                "clusters": global.clusters.len(),
                "clustered_users": global.clusters.iter().map(|c| c.len()).sum::<usize>(),
                "underfilled_components": global.underfilled.len(),
            })
        );
        return Ok(());
    }
    println!("population      : {} users (seed {})", g.n(), params.seed);
    println!("radio range δ   : {:.3e}", params.delta);
    println!("peer cap M      : {}", params.max_peers);
    println!(
        "WPG             : {} edges, avg degree {:.2}",
        g.m(),
        g.avg_degree()
    );
    println!(
        "degrees         : p50 {}, max {}, isolated {}",
        degrees[g.n() / 2],
        degrees[g.n() - 1],
        degrees.iter().filter(|&&d| d == 0).count()
    );
    println!(
        "k-clustering    : {} clusters cover {} users at k = {}; {} components below k",
        global.clusters.len(),
        global.clusters.iter().map(|c| c.len()).sum::<usize>(),
        params.k,
        global.underfilled.len()
    );
    Ok(())
}

/// `nela cloak`
pub fn cloak(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, COMMON)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    let system = System::build(&params);
    let mut engine = CloakingEngine::new(&system, clustering_algo(&args)?, bounding_algo(&args)?);
    let host = choose_host(&system, &args)?;
    let result = engine
        .request(host)
        .map_err(|e| ArgError(format!("request failed: {e}")))?;
    let audit = audit_result(&system, &result);
    let anon = anonymity_of(&system, &result.region);
    if args.flag("json") {
        println!(
            "{}",
            serde_json::json!({
                "host": result.host,
                "region": result.region,
                "area": result.region.area(),
                "cluster_size": result.cluster_size,
                "clustering_messages": result.clustering_messages,
                "bounding_messages": result.bounding_messages,
                "bounding_rounds": result.bounding_rounds,
                "audit_passed": audit.passed(),
                "candidates_in_region": anon.candidates,
                "entropy_bits": anon.entropy_bits,
            })
        );
        return Ok(());
    }
    println!("host            : {}", result.host);
    println!(
        "cloaked region  : [{:.6}, {:.6}] × [{:.6}, {:.6}]",
        result.region.min_x, result.region.max_x, result.region.min_y, result.region.max_y
    );
    println!("area            : {:.4e}", result.region.area());
    println!("cluster size    : {}", result.cluster_size);
    println!(
        "messages        : {} clustering + {} bounding ({} rounds)",
        result.clustering_messages, result.bounding_messages, result.bounding_rounds
    );
    println!(
        "anonymity       : {} candidate users in region ({:.2} bits), audit {}",
        anon.candidates,
        anon.entropy_bits,
        if audit.passed() { "PASS" } else { "FAIL" }
    );
    Ok(())
}

/// `nela simulate`
pub fn simulate(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, COMMON)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    check_distinct_hosts(&params)?;
    let system = System::build(&params);
    let hosts = system.host_sequence(params.requests, 1);
    let stats = run_workload_threads(
        &system,
        clustering_algo(&args)?,
        bounding_algo(&args)?,
        &hosts,
        params.threads,
    );
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("serialize")
        );
        return Ok(());
    }
    println!(
        "requests        : {} ({} served, {} failed, {} reused)",
        hosts.len(),
        stats.served,
        stats.failed,
        stats.reused
    );
    if stats.failed > 0 {
        println!(
            "failure rate    : {:.1}% ({} of {} requests failed)",
            stats.failure_rate * 100.0,
            stats.failed,
            stats.served + stats.failed
        );
    }
    let avg = |v: Option<f64>, fmt: fn(f64) -> String| match v {
        Some(v) => fmt(v),
        None => "n/a (no request served)".to_string(),
    };
    println!(
        "clustering msgs : {}",
        avg(stats.avg_clustering_messages, |v| format!(
            "{v:.2} per request"
        ))
    );
    println!(
        "bounding msgs   : {}",
        avg(stats.avg_bounding_messages, |v| format!(
            "{v:.2} per request"
        ))
    );
    println!(
        "cloaked area    : {}",
        avg(stats.avg_cloaked_area, |v| format!("{v:.4e} average"))
    );
    println!(
        "request cost    : {}",
        avg(stats.avg_request_cost, |v| format!("{v:.1} units average"))
    );
    println!(
        "cluster size    : {}",
        avg(stats.avg_cluster_size, |v| format!("{v:.1} average"))
    );
    println!(
        "bounding CPU    : {}",
        avg(stats.avg_bounding_cpu_ms, |v| format!("{v:.4} ms average"))
    );
    Ok(())
}

/// `nela query`
pub fn query(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, COMMON)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    let system = System::build(&params);
    let server = LbsServer::new(PoiStore::from_points(&system.points, params.cr as u32));
    let mut engine = CloakingEngine::new(&system, clustering_algo(&args)?, bounding_algo(&args)?);
    let host = choose_host(&system, &args)?;
    let result = engine
        .request(host)
        .map_err(|e| ArgError(format!("request failed: {e}")))?;
    let k: usize = args.num_or("knn", 5)?;
    let response = server.handle(&result.region, &CloakedQuery::Knn { k });
    let me = system.points[host as usize];
    let refined = refine_knn(server.store(), &response.candidates, me, k);
    let exact = server.store().knn(me, k);
    if args.flag("json") {
        println!(
            "{}",
            serde_json::json!({
                "host": host,
                "region_area": result.region.area(),
                "candidates": response.candidates.len(),
                "transfer_units": response.transfer_units,
                "answer": refined,
                "exact": refined == exact,
            })
        );
        return Ok(());
    }
    println!("host            : {host}");
    println!("region area     : {:.4e}", result.region.area());
    println!(
        "server returned : {} candidate POIs ({} transfer units) — it saw only the region",
        response.candidates.len(),
        response.transfer_units
    );
    println!("refined answer  : {refined:?}");
    println!(
        "matches the non-private exact query: {}",
        if refined == exact { "yes" } else { "NO" }
    );
    Ok(())
}

/// `nela attack`
pub fn attack(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, COMMON)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    check_distinct_hosts(&params)?;
    let system = System::build(&params);
    let mut engine = CloakingEngine::new(&system, clustering_algo(&args)?, bounding_algo(&args)?);
    let hosts = system.host_sequence(params.requests, 1);
    let (mut served, mut min_cand, mut violations) = (0usize, usize::MAX, 0usize);
    let mut sum_entropy = 0.0;
    let mut sum_err_ratio = 0.0;
    let (mut leaks, mut trials) = (0usize, 0usize);
    for &h in &hosts {
        let Ok(first) = engine.request(h) else {
            continue;
        };
        served += 1;
        let anon = anonymity_of(&system, &first.region);
        min_cand = min_cand.min(anon.candidates);
        violations += usize::from(!anon.meets_k);
        sum_entropy += anon.entropy_bits;
        let atk = center_attack(&system, &first);
        if atk.half_diagonal > 0.0 {
            sum_err_ratio += atk.guess_error / atk.half_diagonal;
        }
        if served % 5 == 0 {
            if let Ok(second) = engine.request(h) {
                trials += 1;
                if intersection_attack(&system, &[first.region, second.region]).len() < params.k {
                    leaks += 1;
                }
            }
        }
    }
    if args.flag("json") {
        println!(
            "{}",
            serde_json::json!({
                "served": served,
                "min_candidates": min_cand,
                "k_violations": violations,
                "mean_entropy_bits": sum_entropy / served.max(1) as f64,
                "mean_center_error_ratio": sum_err_ratio / served.max(1) as f64,
                "intersection_leaks": leaks,
                "intersection_trials": trials,
            })
        );
        return Ok(());
    }
    println!("served          : {served}");
    println!("k-anonymity     : min {min_cand} candidates, {violations} violations");
    println!(
        "entropy         : {:.2} bits mean",
        sum_entropy / served.max(1) as f64
    );
    println!(
        "center attack   : error/half-diagonal {:.2} mean",
        sum_err_ratio / served.max(1) as f64
    );
    println!("intersection    : {leaks}/{trials} repeat-request leaks below k");
    Ok(())
}

/// `nela mobility`
pub fn mobility(raw: Vec<String>) -> Result<(), ArgError> {
    const FLAGS: &[&str] = &[
        "users",
        "seed",
        "k",
        "m",
        "algo",
        "bounding",
        "json",
        "ticks",
        "rate",
        "stationary",
        "threads",
        "metrics",
        "rebuild",
    ];
    let args = Args::parse(raw, FLAGS)?;
    let mut params = build_params(&args)?;
    params.requests = 0; // requests arrive as a Poisson stream, not a batch
    let stationary: f64 = args.num_or("stationary", 0.9)?;
    if !(0.0..=1.0).contains(&stationary) {
        return Err(ArgError(format!(
            "--stationary {stationary}: expected a fraction in [0, 1]"
        )));
    }
    let mobility_cfg = nela_mobility::MobilityConfig {
        seed: params.seed ^ 0x6d_6f_62,
        ..nela_mobility::MobilityConfig::with_stationary(stationary)
    };
    let driver = nela_mobility::DriverConfig {
        ticks: args.num_or("ticks", 20)?,
        rate: args.num_or("rate", 25.0)?,
        seed: params.seed ^ 0xC0_FF_EE,
        // A from-scratch rebuild per tick costs more than the tick and
        // flushes the caches the next stages run on, so only a run that
        // asks for the speedup times one.
        measure_rebuild: args.flag("rebuild"),
        threads: params.threads,
    };
    // "--rate 800 must be finite and in [0, 700)".
    driver.validate().map_err(|e| ArgError(format!("--{e}")))?;
    let _metrics = MetricsSink::from(&args);
    let summary = nela_mobility::run_continuous(
        &params,
        &mobility_cfg,
        &driver,
        clustering_algo(&args)?,
        bounding_algo(&args)?,
    );
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).expect("serialize")
        );
        return Ok(());
    }
    println!(
        "population      : {} users ({} mobile), {} ticks",
        summary.population, summary.mobile_users, summary.ticks
    );
    println!(
        "requests        : {} ({} served, {} failed, {} reused)",
        summary.requests, summary.served, summary.failed, summary.reused
    );
    // Rates are `None` (printed "n/a") when nothing was served or the
    // rebuild was never timed — absent data, not a zero rate.
    let rate3 = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}"));
    println!("reuse rate      : {}", rate3(summary.reuse_rate));
    println!(
        "validity        : {} of served regions still cover k users",
        rate3(summary.validity_rate)
    );
    println!(
        "invalidations   : {} clusters retired, {} users released",
        summary.invalidated, summary.released
    );
    match summary.mean_speedup {
        Some(s) => println!("wpg maintenance : {s:.1}x faster than rebuild (mean per tick)"),
        None => println!("wpg maintenance : rebuild not timed (--rebuild times it)"),
    }
    Ok(())
}

/// `nela serve` — bounded serving sessions under open-loop Poisson load:
/// admit requests at the offered rate, cloak each (cluster + secure
/// bounding, optionally over the simulated radio), answer it at the LBS
/// over the cloaked region, refine at the true position, and report
/// end-to-end latency and backpressure. With `--sessions N` the sessions
/// are chained through checkpoints, carrying still-valid clusters forward.
pub fn serve(raw: Vec<String>) -> Result<(), ArgError> {
    const FLAGS: &[&str] = &[
        "users",
        "seed",
        "k",
        "m",
        "threads",
        "shards",
        "requests",
        "rate",
        "query",
        "radius",
        "knn",
        "queue",
        "deadline-ms",
        "transport",
        "net-loss",
        "net-seed",
        "sessions",
        "json",
        "metrics",
    ];
    let args = Args::parse(raw, FLAGS)?;
    let _metrics = MetricsSink::from(&args);
    let params = build_params(&args)?;
    let radius: f64 = args.num_or("radius", 0.02)?;
    let k: usize = args.num_or("knn", 5)?;
    let query = match args.get_or("query", "knn") {
        "range" => QueryMix::Range { radius },
        "knn" => QueryMix::Knn { k },
        "mix" | "mixed" => QueryMix::Mixed {
            radius,
            k,
            range_frac: 0.5,
        },
        other => {
            return Err(ArgError(format!(
                "--query {other}: expected range | knn | mix"
            )))
        }
    };
    let transport = match args.get_or("transport", "in-process") {
        "in-process" | "inproc" => Transport::InProcess,
        "netsim" => Transport::Netsim(NetworkConfig {
            loss: args.num_or("net-loss", 0.05f64)?,
            seed: args.num_or("net-seed", 7u64)?,
            ..NetworkConfig::default()
        }),
        other => {
            return Err(ArgError(format!(
                "--transport {other}: expected in-process | netsim"
            )))
        }
    };
    let sessions: usize = args.num_or("sessions", 1usize)?;
    if sessions == 0 {
        return Err(ArgError("--sessions must be at least 1".into()));
    }
    let deadline_ms: u64 = args.num_or("deadline-ms", 0u64)?;
    let config = ServeConfig {
        requests: args.num_or("requests", 200usize)?,
        rate: args.num_or("rate", 500.0f64)?,
        workers: params.threads,
        shards: params.shards,
        queue_capacity: args.num_or("queue", 1_024usize)?,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        seed: params.seed,
        query,
        transport,
    };
    config
        .validate()
        .map_err(|e| ArgError(format!("invalid serve configuration: {e}")))?;
    let system = System::build(&params);
    let mut checkpoint = None;
    let mut reports = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let outcome = nela_serve::run_session(&system, &config, checkpoint.take())
            .map_err(|e| ArgError(format!("invalid serve configuration: {e}")))?;
        checkpoint = Some(outcome.checkpoint);
        reports.push(outcome.report);
    }
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
        return Ok(());
    }
    // Stage percentiles are `None` when the stage saw no samples (a
    // deadline-heavy session can legitimately serve nothing).
    let ms = |ns: Option<u64>| match ns {
        Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
        None => "n/a".to_string(),
    };
    for (i, report) in reports.iter().enumerate() {
        if sessions > 1 {
            println!("--- session {i} ---");
        }
        println!(
            "workload        : {} requests offered at {:.0} req/s ({} workers, {} shards, {} transport)",
            report.requests, report.offered_rps, report.workers, report.shards, report.transport
        );
        println!(
            "admission       : {} admitted, {} shed (queue depth peaked at {})",
            report.admitted, report.shed, report.max_queue_depth
        );
        println!(
            "outcomes        : {} served, {} failed, {} expired",
            report.served, report.failed, report.expired
        );
        println!(
            "carry-over      : {} clusters carried in, {} served from reused regions ({})",
            report.carried_clusters,
            report.reused,
            report
                .reuse_rate
                .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0))
        );
        println!(
            "throughput      : {:.1} req/s sustained over {:.2} s",
            report.sustained_rps, report.wall_s
        );
        println!(
            "e2e latency     : p50 {}, p95 {}, p99 {}, max {}",
            ms(report.e2e.p50_ns),
            ms(report.e2e.p95_ns),
            ms(report.e2e.p99_ns),
            ms(report.e2e.max_ns)
        );
        println!(
            "stage p50       : queue {}, cloak {}, lbs {}, refine {}",
            ms(report.queue_wait.p50_ns),
            ms(report.cloak.p50_ns),
            ms(report.lbs.p50_ns),
            ms(report.refine.p50_ns)
        );
        if let Some(net) = &report.net {
            println!(
                "network         : {} transmissions, {} retransmits, {} timeouts, {} failed rpcs, {:.3} s virtual",
                net.transmissions, net.retransmits, net.timeouts, net.rpcs_failed, net.virtual_s
            );
        }
        let avg = |v: Option<f64>, unit: &str| match v {
            Some(v) => format!("{v:.1} {unit}"),
            None => "n/a (no request served)".to_string(),
        };
        println!(
            "per query       : {} candidates, {} transferred",
            avg(report.mean_candidates, "mean"),
            avg(report.mean_transfer_units, "units mean")
        );
    }
    Ok(())
}

/// `nela stats` — render a metrics snapshot written by `--metrics <path>`.
pub fn stats(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(raw, &["file", "json"])?;
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("--file <path> is required".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("--file {path}: {e}")))?;
    let snapshot = nela_obs::MetricsSnapshot::from_json(&text)
        .map_err(|e| ArgError(format!("--file {path}: not a metrics snapshot: {e}")))?;
    if args.flag("json") {
        println!("{}", snapshot.to_json());
        return Ok(());
    }
    print!("{}", snapshot.render());
    Ok(())
}

/// `nela robustness` — the adversary & heterogeneity scenario matrix with
/// machine-checked privacy verdicts (see `nela::scenario`).
pub fn robustness(raw: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(
        raw,
        &[
            "users",
            "k",
            "requests",
            "seed",
            "colluders",
            "liars",
            "crash-peers",
            "crash-round",
            "leak-floor",
            "json",
        ],
    )?;
    let base = nela::MatrixConfig::bench();
    let cfg = nela::MatrixConfig {
        n_users: args.num_or("users", base.n_users)?,
        k: args.num_or("k", base.k)?,
        requests: args.num_or("requests", base.requests)?,
        colluders: args.num_or("colluders", base.colluders)?,
        liars: args.num_or("liars", base.liars)?,
        crash_peers: args.num_or("crash-peers", base.crash_peers)?,
        crash_round: args.num_or("crash-round", base.crash_round)?,
        leak_floor: args.num_or("leak-floor", base.leak_floor)?,
        seed: args.num_or("seed", base.seed)?,
    };
    let cells = nela::scenario_matrix(&cfg).map_err(|e| ArgError(e.to_string()))?;
    if args.flag("json") {
        let report = serde_json::json!({ "config": cfg, "cells": cells });
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
        return Ok(());
    }
    println!(
        "scenario matrix: {} users, k = {}, {} requests/cell",
        cfg.n_users, cfg.k, cfg.requests
    );
    let mut passed = 0usize;
    for c in &cells {
        let v = &c.verdict;
        println!(
            "  {:<42} served {:>3}/{:<3} degraded {:>3}  k-anon {}  leak {}  cover {}  collusion {}  recovery {}  {}",
            c.spec.name,
            v.served,
            v.requests,
            v.degraded,
            mark(v.k_anonymity_held),
            mark(v.leak_floor_held),
            mark(v.truthful_coverage),
            mark(v.collusion_bounded_by_transcript),
            mark(v.recovery_sound),
            if c.passed { "PASS" } else { "FAIL" },
        );
        passed += usize::from(c.passed);
    }
    println!(
        "{passed}/{} cells met their adversary's expectation",
        cells.len()
    );
    if passed < cells.len() {
        return Err(ArgError(format!(
            "{} cell(s) failed their privacy verdict",
            cells.len() - passed
        )));
    }
    Ok(())
}

fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_rejects_bad_driver_values_as_arg_errors() {
        for (flag, value) in [
            ("rate", "800"),
            ("rate", "-1"),
            ("rate", "nan"),
            ("m", "0"),
            ("k", "0"),
            ("users", "0"),
        ] {
            let raw = vec![format!("--{flag}"), value.to_string()];
            let err = mobility(raw).expect_err("bad value must be rejected");
            assert!(
                err.0.starts_with(&format!("--{flag} ")),
                "--{flag} {value}: {}",
                err.0
            );
        }
    }

    #[test]
    fn every_deployment_subcommand_rejects_a_zero_population_k_or_m() {
        type Subcommand = fn(Vec<String>) -> Result<(), ArgError>;
        let subcommands: [(&str, Subcommand); 7] = [
            ("inspect", inspect),
            ("cloak", cloak),
            ("simulate", simulate),
            ("query", query),
            ("attack", attack),
            ("mobility", mobility),
            ("serve", serve),
        ];
        for (name, run) in subcommands {
            for flag in ["users", "k", "m"] {
                let err = run(vec![format!("--{flag}"), "0".into()])
                    .expect_err("a zero value must be rejected");
                assert_eq!(err.0, format!("--{flag} 0: must be at least 1"), "{name}");
            }
        }
    }

    #[test]
    fn cloak_and_query_serve_a_population_below_the_host_sample() {
        for run in [cloak, query] {
            run(vec!["--users".into(), "400".into(), "--json".into()])
                .expect("a 400-user population is served");
        }
    }

    #[test]
    fn batch_subcommands_reject_more_requests_than_users() {
        for run in [simulate, attack] {
            let raw = ["--users", "3000", "--requests", "5000"].map(String::from);
            let err = run(raw.to_vec()).expect_err("5000 distinct hosts of 3000 users");
            assert!(err.0.starts_with("--requests 5000: "), "{}", err.0);
        }
    }

    #[test]
    fn robustness_rejects_bad_matrix_values_as_arg_errors() {
        for (flag, value, field) in [
            ("crash-round", "0", "crash_round "),
            ("k", "0", "k "),
            ("users", "0", "n_users "),
            ("leak-floor", "-1", "leak_floor "),
            ("leak-floor", "nan", "leak_floor "),
        ] {
            let raw = vec![format!("--{flag}"), value.to_string()];
            let err = robustness(raw).expect_err("bad value must be rejected");
            assert!(err.0.starts_with(field), "--{flag} {value}: {}", err.0);
        }
    }
}
