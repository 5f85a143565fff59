//! Fig. 13 — bounding algorithms under various anonymity levels k.
//!
//! Phase 1 is fixed to the distributed t-connectivity algorithm; phase 2
//! sweeps the four bounding algorithms of §VI-D over k ∈ {5..50}:
//!
//! - **Fig. 13(a)**: average bounding communication cost,
//! - **Fig. 13(b)**: average service-request cost, as a ratio to optimal
//!   bounding (the paper plots this ratio),
//! - **Fig. 13(c)**: average total communication cost,
//! - **Fig. 13(d)**: average bounding CPU time (ms) one host pays. A
//!   serving process shares one increment table per cost model across all
//!   of its engines and runs, so an engine's own `bounding_cpu` mostly
//!   times table lookups. A device solves its own increments, so the
//!   Secure column re-times every freshly bounded cluster's four runs, each
//!   from an empty table.

use nela::bounding::bbox::bounding_box;
use nela::bounding::distribution::Uniform;
use nela::bounding::nbound::SecurePolicy;
use nela::bounding::protocol::progressive_upper_bound;
use nela::geo::{Point, Rect, UserId};
use nela::metrics::{run_workload, StatsCollector};
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, System, WorkloadStats};
use nela_bench::{fmt, print_table, ExpConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    k: usize,
    bounding: [f64; 4],
    request_ratio: [f64; 4],
    total: [f64; 4],
    cpu_ms: [f64; 4],
}

const ALGOS: [(&str, BoundingAlgo); 4] = [
    ("Linear", BoundingAlgo::Linear),
    ("Exponential", BoundingAlgo::Exponential),
    ("Secure", BoundingAlgo::Secure),
    ("Optimal", BoundingAlgo::Optimal),
];

/// The Secure workload with each served request's `bounding_cpu` replaced
/// by what one host pays to bound its cluster: the four directional runs,
/// each solving its increments into a table that starts empty.
fn secure_workload_per_device(system: &System, hosts: &[UserId]) -> WorkloadStats {
    let params = &system.params;
    let mut engine = CloakingEngine::new(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let mut stats = StatsCollector::new();
    for &host in hosts {
        let Ok(mut r) = engine.request(host) else {
            stats.push_failure();
            continue;
        };
        if r.bounding_rounds > 0 {
            let members = &engine
                .registry()
                .cluster_of(host)
                .expect("a bounded host is registered")
                .cluster
                .members;
            let points: Vec<Point> = members.iter().map(|&m| system.points[m as usize]).collect();
            let model = Uniform::new(params.uniform_span(members.len()));
            let mut values = Vec::with_capacity(points.len());
            let started = Instant::now();
            bounding_box(
                system.points[host as usize],
                Rect::UNIT,
                |dir, x0, domain_min| {
                    values.clear();
                    values.extend(points.iter().map(|p| dir.value(p)));
                    let table = params.increment_table();
                    let mut policy = SecurePolicy::new(&table, model);
                    progressive_upper_bound(&values, x0, domain_min, &mut policy)
                },
            )
            .expect("the engine bounded this cluster");
            r.bounding_cpu = started.elapsed();
        }
        stats.push(&r, params);
    }
    stats.finish()
}

fn main() {
    let cfg = ExpConfig::from_env();
    let base = cfg.params();
    let system = cfg.build(&base);
    let hosts = system.host_sequence(base.requests, 1);

    let mut rows = Vec::new();
    for k in [5usize, 10, 20, 30, 40, 50] {
        let mut params = base.clone();
        params.k = k;
        let system_k = nela::System {
            params: params.clone(),
            points: system.points.clone(),
            grid: system.grid.clone(),
            wpg: system.wpg.clone(),
        };
        let stats: Vec<WorkloadStats> = ALGOS
            .iter()
            .map(|&(_, b)| match b {
                BoundingAlgo::Secure => secure_workload_per_device(&system_k, &hosts),
                _ => run_workload(&system_k, ClusteringAlgo::TConnDistributed, b, &hosts),
            })
            .collect();
        let bounding_msgs = |i: usize| stats[i].avg_bounding_messages.expect("workload served");
        let request_cost = |i: usize| stats[i].avg_request_cost.expect("workload served");
        let opt_request = request_cost(3).max(f64::MIN_POSITIVE);
        rows.push(Row {
            k,
            bounding: std::array::from_fn(bounding_msgs),
            request_ratio: std::array::from_fn(|i| request_cost(i) / opt_request),
            total: std::array::from_fn(|i| bounding_msgs(i) + request_cost(i)),
            cpu_ms: std::array::from_fn(|i| stats[i].avg_bounding_cpu_ms.expect("workload served")),
        });
    }

    let table = |title: &str, f: &dyn Fn(&Row) -> [f64; 4]| {
        print_table(
            title,
            &["k", "Linear", "Exponential", "Secure", "Optimal"],
            &rows
                .iter()
                .map(|r| {
                    let v = f(r);
                    vec![r.k.to_string(), fmt(v[0]), fmt(v[1]), fmt(v[2]), fmt(v[3])]
                })
                .collect::<Vec<_>>(),
        );
    };
    table("Fig. 13(a) — avg. bounding comm. cost vs. k", &|r| {
        r.bounding
    });
    table(
        "Fig. 13(b) — avg. request cost (ratio to optimal) vs. k",
        &|r| r.request_ratio,
    );
    table("Fig. 13(c) — avg. total comm. cost vs. k", &|r| r.total);
    table("Fig. 13(d) — avg. bounding CPU time (ms) vs. k", &|r| {
        r.cpu_ms
    });
    cfg.write_json("fig13", &rows);
}
