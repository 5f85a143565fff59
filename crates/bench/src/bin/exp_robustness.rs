//! Robustness sweeps beyond the paper's figures:
//!
//! - **RSS noise** — real WiFi RSS fluctuates (paper Fig. 1); rank
//!   inversions change the WPG. How do cluster quality and cost hold up
//!   under a log-distance model with growing shadowing noise?
//! - **Message loss** — the distributed protocol over the simulated radio
//!   with growing loss rates: success rate, retransmission overhead.
//! - **Topology families** — clustering quality on the abstract topologies
//!   of the small-world literature the paper cites (§IV).
//! - **Adversary & heterogeneity matrix** — the full scenario matrix of
//!   `nela::scenario`: {uniform, personalized} k × {honest, colluders,
//!   liars, crash} × {uniform, rush-hour} geography, every cell ending in
//!   a machine-checked [`nela::PrivacyVerdict`]. A run of the unmodified
//!   `MatrixConfig::bench()` (`NELA_USERS` ≥ 10,000, the default 20,000
//!   included) writes `BENCH_robustness.json` at the repository root.
//!
//! `--smoke` runs a reduced matrix and exits non-zero unless every cell
//! accounts for all its requests and every honest (control) cell passes
//! its verdict — the CI guard for the adversary-model contracts.

use nela::cluster::distributed::{distributed_k_clustering, distributed_k_clustering_with};
use nela::netsim::network::{Network, NetworkConfig};
use nela::netsim::proto::SimFetch;
use nela::wpg::{topology, LogDistanceRss, WpgBuilder};
use nela::{scenario_matrix, Adversary, CellOutcome, MatrixConfig, Params, System};
use nela_bench::{fmt, print_table, ExpConfig};
use nela_geo::{Rect, UserId};
use serde::Serialize;

/// Prints the matrix as a table and returns whether the control cells and
/// request accounting hold (the smoke criteria).
fn report_matrix(cells: &[CellOutcome]) -> bool {
    let mut ok = true;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let v = &c.verdict;
            vec![
                c.spec.name.clone(),
                format!("{}/{}", v.served, v.requests),
                v.degraded.to_string(),
                if v.k_anonymity_held { "y" } else { "N" }.to_string(),
                if v.leak_floor_held { "y" } else { "N" }.to_string(),
                if v.truthful_coverage { "y" } else { "N" }.to_string(),
                if v.collusion_bounded_by_transcript {
                    "y"
                } else {
                    "N"
                }
                .to_string(),
                if v.recovery_sound { "y" } else { "N" }.to_string(),
                fmt(v.worst_leak_width),
                if c.passed { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Robustness D — adversary & heterogeneity scenario matrix",
        &[
            "cell",
            "served",
            "degr",
            "k-anon",
            "floor",
            "cover",
            "collu",
            "recov",
            "worst leak",
            "verdict",
        ],
        &rows,
    );
    for c in cells {
        let v = &c.verdict;
        if v.served + v.degraded != v.requests {
            eprintln!("[matrix] FAIL: {} left requests unaccounted", c.spec.name);
            ok = false;
        }
        if c.spec.adversary == Adversary::Honest && !c.passed {
            eprintln!("[matrix] FAIL: control cell {} failed: {v:?}", c.spec.name);
            ok = false;
        }
    }
    ok
}

#[derive(Serialize)]
struct MatrixReport {
    config: MatrixConfig,
    cells: Vec<CellOutcome>,
}

fn smoke() -> i32 {
    let cells = scenario_matrix(&MatrixConfig::smoke()).expect("smoke config is valid");
    if cells.len() != 16 {
        eprintln!("[smoke] FAIL: expected 16 cells, got {}", cells.len());
        return 1;
    }
    if !report_matrix(&cells) {
        return 1;
    }
    let passed = cells.iter().filter(|c| c.passed).count();
    eprintln!("[smoke] OK: 16 cells ran, {passed} passed, controls clean");
    0
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let cfg = ExpConfig::from_env();
    let params = Params {
        k: 10,
        ..Params::scaled(cfg.users.min(20_000))
    };

    // ---- Part A: RSS shadowing noise.
    #[derive(Serialize)]
    struct NoiseRow {
        shadowing_db: f64,
        avg_degree: f64,
        served: usize,
        empty_clusters: usize,
        mean_cost: f64,
        mean_area: f64,
    }
    let base = System::build(&params); // noise-free positions reused throughout
    let mut noise_rows = Vec::new();
    for shadowing in [0.0f64, 1.0, 2.0, 4.0, 8.0] {
        let rss = LogDistanceRss {
            shadowing_db: shadowing,
            seed: 11,
            ..Default::default()
        };
        let wpg = WpgBuilder::new(params.delta, params.max_peers, rss).build_with_index_threads(
            &base.points,
            &base.grid,
            1,
        );
        let none = |_: UserId| false;
        let mut served = 0;
        let mut with_area = 0usize;
        let mut empty_clusters = 0usize;
        let mut cost = 0u64;
        let mut area = 0.0;
        for h in base.host_sequence(200, 5) {
            if let Ok(out) = distributed_k_clustering(&wpg, h, params.k, &none) {
                served += 1;
                cost += out.involved_users as u64;
                let pts: Vec<_> = out
                    .host_cluster
                    .members
                    .iter()
                    .map(|&m| base.points[m as usize])
                    .collect();
                // A memberless cluster cannot happen from a successful run,
                // but a sweep must not die on one degenerate row: skip it
                // and report the count instead of unwrapping.
                match Rect::bounding(&pts) {
                    Some(r) => {
                        area += r.area();
                        with_area += 1;
                    }
                    None => empty_clusters += 1,
                }
            }
        }
        noise_rows.push(NoiseRow {
            shadowing_db: shadowing,
            avg_degree: wpg.avg_degree(),
            served,
            empty_clusters,
            mean_cost: cost as f64 / served.max(1) as f64,
            mean_area: area / with_area.max(1) as f64,
        });
    }
    print_table(
        "Robustness A — RSS shadowing noise (log-distance model)",
        &[
            "σ (dB)",
            "avg degree",
            "served/200",
            "mean cost",
            "mean area",
        ],
        &noise_rows
            .iter()
            .map(|r| {
                vec![
                    fmt(r.shadowing_db),
                    fmt(r.avg_degree),
                    r.served.to_string(),
                    fmt(r.mean_cost),
                    fmt(r.mean_area),
                ]
            })
            .collect::<Vec<_>>(),
    );
    cfg.write_json("robustness_noise", &noise_rows);

    // ---- Part B: message loss.
    #[derive(Serialize)]
    struct LossRow {
        loss: f64,
        ok: usize,
        aborted: usize,
        transmissions_per_ok: f64,
    }
    let none = |_: UserId| false;
    let hosts: Vec<UserId> = base
        .host_sequence(400, 7)
        .into_iter()
        .filter(|&h| distributed_k_clustering(&base.wpg, h, params.k, &none).is_ok())
        .take(50)
        .collect();
    let mut loss_rows = Vec::new();
    for loss in [0.0f64, 0.05, 0.1, 0.2, 0.35] {
        let mut ok = 0;
        let mut aborted = 0;
        let mut transmissions = 0u64;
        for (i, &h) in hosts.iter().enumerate() {
            let mut net = Network::new(NetworkConfig {
                loss,
                max_retries: 5,
                seed: i as u64,
                ..Default::default()
            })
            .expect("config is valid");
            let mut fetch = SimFetch::new(&mut net, &base.wpg, h);
            match distributed_k_clustering_with(&mut fetch, h, params.k, &none) {
                Ok(_) => {
                    ok += 1;
                    transmissions += net.stats().transmissions;
                }
                Err(_) => aborted += 1,
            }
        }
        loss_rows.push(LossRow {
            loss,
            ok,
            aborted,
            transmissions_per_ok: transmissions as f64 / ok.max(1) as f64,
        });
    }
    print_table(
        "Robustness B — distributed clustering under message loss (5 retries)",
        &["loss", "completed", "aborted", "transmissions/success"],
        &loss_rows
            .iter()
            .map(|r| {
                vec![
                    fmt(r.loss),
                    r.ok.to_string(),
                    r.aborted.to_string(),
                    fmt(r.transmissions_per_ok),
                ]
            })
            .collect::<Vec<_>>(),
    );
    cfg.write_json("robustness_loss", &loss_rows);

    // ---- Part C: abstract topologies.
    #[derive(Serialize)]
    struct TopoRow {
        topology: String,
        served: usize,
        mean_cost: f64,
        mean_cluster: f64,
    }
    let n = 2_000;
    let topologies: Vec<(String, nela::wpg::Wpg)> = vec![
        (
            "ring lattice (d=6)".into(),
            topology::ring_lattice(n, 6, 10, 1),
        ),
        (
            "small world (β=0.1)".into(),
            topology::small_world(n, 6, 0.1, 10, 1),
        ),
        (
            "small world (β=0.5)".into(),
            topology::small_world(n, 6, 0.5, 10, 1),
        ),
        (
            "random regular (d=6)".into(),
            topology::random_regular(n, 6, 10, 1),
        ),
        ("grid 40×50".into(), topology::grid_graph(40, 50, 10, 1)),
    ];
    let mut topo_rows = Vec::new();
    for (name, g) in &topologies {
        let none = |_: UserId| false;
        let mut served = 0;
        let mut cost = 0u64;
        let mut cluster = 0usize;
        for h in (0..g.n() as UserId).step_by(97) {
            if let Ok(out) = distributed_k_clustering(g, h, params.k, &none) {
                served += 1;
                cost += out.involved_users as u64;
                cluster += out.host_cluster.len();
            }
        }
        topo_rows.push(TopoRow {
            topology: name.clone(),
            served,
            mean_cost: cost as f64 / served.max(1) as f64,
            mean_cluster: cluster as f64 / served.max(1) as f64,
        });
    }
    print_table(
        "Robustness C — distributed t-Conn across proximity topologies (k = 10)",
        &["topology", "served", "mean cost", "mean |cluster|"],
        &topo_rows
            .iter()
            .map(|r| {
                vec![
                    r.topology.clone(),
                    r.served.to_string(),
                    fmt(r.mean_cost),
                    fmt(r.mean_cluster),
                ]
            })
            .collect::<Vec<_>>(),
    );
    cfg.write_json("robustness_topology", &topo_rows);

    // ---- Part D: adversary & heterogeneity scenario matrix.
    let bench = MatrixConfig::bench();
    let matrix_cfg = MatrixConfig {
        n_users: cfg.users.min(bench.n_users),
        ..bench
    };
    let cells = scenario_matrix(&matrix_cfg).expect("bench matrix config is valid");
    report_matrix(&cells);
    let report = MatrixReport {
        config: matrix_cfg,
        cells,
    };
    // Only the unmodified bench() configuration backs the committed file; a
    // smaller NELA_USERS prints the matrix and leaves the file alone.
    if matrix_cfg == bench {
        let json = serde_json::to_string_pretty(&report).expect("serialize matrix report");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_robustness.json");
        std::fs::write(&root, &json).expect("write BENCH_robustness.json");
        // The repo-relative name keeps the committed transcript
        // (`results/exp_robustness.txt`) the same in every checkout.
        eprintln!("[results] wrote BENCH_robustness.json");
    }
    cfg.write_json("robustness_matrix", &report);
}
