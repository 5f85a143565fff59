//! Secure bounding in isolation: compare the optimal-increment protocol
//! against the linear, exponential and (non-private) optimal baselines on a
//! single cluster, including the privacy-leak accounting of the paper's
//! future-work discussion (§VII).
//!
//! ```sh
//! cargo run --release --example secure_bounding_demo
//! ```

use nela::bounding::baselines::{optimal_bound, ExponentialPolicy, LinearPolicy};
use nela::bounding::distribution::Uniform;
use nela::bounding::nbound::SecurePolicy;
use nela::bounding::privacy::leak_report;
use nela::bounding::protocol::{progressive_upper_bound, IncrementPolicy};
use nela::cluster::distributed_k_clustering;
use nela::{Params, System};

fn main() {
    let params = Params::scaled(20_000);
    let system = System::build(&params);

    // Form one k-cluster so the demo bounds realistic coordinates.
    let host = system
        .host_sequence(300, 5)
        .into_iter()
        .find(|&h| distributed_k_clustering(&system.wpg, h, params.k, &|_| false).is_ok())
        .expect("no servable host");
    let outcome = distributed_k_clustering(&system.wpg, host, params.k, &|_| false).unwrap();
    let xs: Vec<f64> = outcome
        .host_cluster
        .members
        .iter()
        .map(|&m| system.points[m as usize].x)
        .collect();
    let x0 = system.points[host as usize].x;
    let true_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "cluster of {} users; upper-bounding x from the host anchor {x0:.6}",
        xs.len()
    );
    println!("true maximum (never revealed to anyone): {true_max:.6}\n");

    let span = params.uniform_span(xs.len());
    let table = params.increment_table();
    let mut policies: Vec<(&str, Box<dyn IncrementPolicy>)> = vec![
        ("linear", Box::new(LinearPolicy::new(span))),
        ("exponential", Box::new(ExponentialPolicy::new(span))),
        (
            "secure",
            Box::new(SecurePolicy::new(&table, Uniform::new(span))),
        ),
    ];

    println!(
        "{:>12} | {:>7} {:>9} {:>12} {:>12} {:>14}",
        "algorithm", "rounds", "messages", "bound", "slack", "mean leak width"
    );
    for (name, policy) in policies.iter_mut() {
        let run = progressive_upper_bound(&xs, x0, 0.0, policy.as_mut()).expect("valid cluster");
        let leak = leak_report(&run, 0.0);
        println!(
            "{name:>12} | {:>7} {:>9} {:>12.6} {:>12.2e} {:>14.2e}",
            run.rounds,
            run.messages,
            run.bound,
            run.slack(&xs),
            leak.mean_width,
        );
    }
    let opt = optimal_bound(&xs);
    println!(
        "{:>12} | {:>7} {:>9} {:>12.6} {:>12.2e} {:>14}",
        "optimal", 1, opt.messages, opt.bound, 0.0, "0 (full leak)"
    );

    println!(
        "\nLinear pays many rounds for a tight bound and leaks narrow\n\
         intervals; exponential is the opposite; secure bounding balances\n\
         the two by sizing each increment from the communication-cost model\n\
         (Equation 5)."
    );
}
