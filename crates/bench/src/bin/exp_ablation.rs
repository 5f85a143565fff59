//! Ablation: the two readings of Algorithm 1 (see `DESIGN.md`, fidelity
//! decision #1) and the two N-bounding optimizers (Equation 5 approximation
//! vs. the exact dynamic program of Equation 3).
//!
//! Quantifies (a) the single-linkage chaining pathology that rules out the
//! literal pseudocode reading on rank-weighted WPGs, and (b) how close the
//! paper's CPU-cheap increment approximation is to the exact optimum.

use nela::bounding::cost::RequestCost;
use nela::bounding::distribution::{ExcessDistribution, Uniform};
use nela::bounding::nbound::{exact_dp_increment, n_bounding_increment};
use nela::cluster::centralized::{centralized_k_clustering, single_linkage_k_clustering};
use nela::{Params, System};
use nela_bench::{fmt, print_table, ExpConfig};
use nela_geo::Rect;
use serde::Serialize;

#[derive(Serialize)]
struct ClusteringRow {
    algo: String,
    clusters: usize,
    size_p50: usize,
    size_p90: usize,
    size_max: usize,
    area_mean: f64,
    area_p90: f64,
}

fn clustering_row(
    name: &str,
    system: &System,
    r: &nela::cluster::GlobalClustering,
) -> ClusteringRow {
    let mut sizes: Vec<usize> = r.clusters.iter().map(|c| c.len()).collect();
    sizes.sort_unstable();
    let mut areas: Vec<f64> = r
        .clusters
        .iter()
        .map(|c| {
            let pts: Vec<_> = c
                .members
                .iter()
                .map(|&m| system.points[m as usize])
                .collect();
            Rect::bounding(&pts).expect("non-empty").area()
        })
        .collect();
    areas.sort_by(f64::total_cmp);
    let n = sizes.len();
    ClusteringRow {
        algo: name.to_string(),
        clusters: n,
        size_p50: sizes[n / 2],
        size_p90: sizes[n * 9 / 10],
        size_max: sizes[n - 1],
        area_mean: areas.iter().sum::<f64>() / n as f64,
        area_p90: areas[n * 9 / 10],
    }
}

fn main() {
    let cfg = ExpConfig::from_env();
    let params = Params {
        k: 10,
        ..cfg.params()
    };
    let system = cfg.build(&params);

    // ---- Part A: Algorithm 1 readings.
    let level = centralized_k_clustering(&system.wpg, params.k);
    let single = single_linkage_k_clustering(&system.wpg, params.k);
    let rows = vec![
        clustering_row("level-based (+packing)", &system, &level),
        clustering_row("single-linkage (literal)", &system, &single),
    ];
    print_table(
        "Ablation A — Algorithm 1 readings on the rank-weighted WPG (k = 10)",
        &[
            "algorithm",
            "clusters",
            "size p50",
            "p90",
            "max",
            "area mean",
            "area p90",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.algo.clone(),
                    r.clusters.to_string(),
                    r.size_p50.to_string(),
                    r.size_p90.to_string(),
                    r.size_max.to_string(),
                    fmt(r.area_mean),
                    fmt(r.area_p90),
                ]
            })
            .collect::<Vec<_>>(),
    );
    cfg.write_json("ablation_clustering", &rows);

    // ---- Part B: N-bounding optimizers.
    #[derive(Serialize)]
    struct BoundRow {
        n: usize,
        approx_x: f64,
        exact_x: f64,
        approx_cost: f64,
        exact_cost: f64,
        overhead_pct: f64,
    }
    let dist = Uniform::new(10.0 / params.n_users as f64);
    let cost = params.area_cost();
    let dp = exact_dp_increment(20, &dist, &cost, params.cb);
    let eval = |x: f64, n: usize| -> f64 {
        // Expected cost of taking increment x in state n and then playing
        // optimally (the exact DP's continuation values) — isolates the
        // quality of the first-step choice.
        let p = dist.cdf(x);
        let q = 1.0 - p;
        let qn = q.powi(n as i32);
        let mut expect = 0.0;
        let mut term = n as f64 * q * p.powi(n as i32 - 1);
        for i in 1..n {
            expect += term * dp.cost[i];
            term *= (n - i) as f64 / (i + 1) as f64 * q / p.max(1e-300);
        }
        (n as f64 * params.cb + cost.r(x) + expect) / (1.0 - qn)
    };
    let mut brows = Vec::new();
    for n in [2usize, 5, 10, 20] {
        let approx_x = n_bounding_increment(n, &dist, &cost, params.cb);
        let exact_x = dp.increment[n];
        let approx_cost = eval(approx_x, n);
        let exact_cost = dp.cost[n];
        brows.push(BoundRow {
            n,
            approx_x,
            exact_x,
            approx_cost,
            exact_cost,
            overhead_pct: 100.0 * (approx_cost / exact_cost - 1.0),
        });
    }
    print_table(
        "Ablation B — Eq. 5 approximation vs. exact DP (Eq. 3)",
        &[
            "N",
            "approx x",
            "exact x",
            "approx cost",
            "exact cost",
            "overhead %",
        ],
        &brows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    fmt(r.approx_x),
                    fmt(r.exact_x),
                    fmt(r.approx_cost),
                    fmt(r.exact_cost),
                    fmt(r.overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    cfg.write_json("ablation_bounding", &brows);
}
