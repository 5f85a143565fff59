//! Continuous cloaking under mobility.
//!
//! The paper evaluates NELA on a static population snapshot: positions are
//! drawn once, the WPG is built once, and a workload of S requests is
//! served. This crate extends the reproduction into a *continuous* system,
//! the regime the paper's §III system model implies but never measures:
//!
//! - [`model`] — seeded mobility models (random waypoint, Gauss–Markov, and
//!   a stationary share) stepping the population tick by tick, reproducible
//!   per seed exactly like `nela_geo::dataset`;
//! - [`world`] — [`MobileWorld`], which folds each tick's moves into an
//!   incrementally maintained [`nela_wpg::IncrementalWpg`] (over its
//!   region-sharded [`nela_geo::ShardedDynamicGrid`]) with an
//!   exact-equivalence guarantee against a from-scratch build;
//! - [`lifetime`] — cluster lifetime management: registered clusters whose
//!   t-connectivity certificate no longer holds in the current WPG (a
//!   member drifted out of δ-range, or an internal edge's weight rose above
//!   the cluster's MEW) are retired, releasing their members;
//! - [`driver`] — [`run_continuous`], the end-to-end workload: tick the
//!   world, audit cluster lifetimes, and serve a Poisson stream of cloaking
//!   requests through the standard [`nela::CloakingEngine`] with the
//!   registry carried across ticks, reporting cluster-reuse rate,
//!   incremental-vs-rebuild speedup, and anonymity validity over time. A
//!   tick serves straight from the maintained state: the audit and phase 1
//!   read the incremental WPG's rank rows, and the engine borrows the
//!   current positions.
//!
//! Surfaces: the `exp_mobility` binary and `bench_mobility` criterion bench
//! in `nela-bench`, and the `mobility` subcommand of the `nela` CLI.

pub mod driver;
pub mod lifetime;
pub mod model;
pub mod world;

pub use driver::{run_continuous, DriverConfig, DriverConfigError, RunSummary, TickMetrics};
pub use lifetime::{
    cluster_still_valid, invalidate_broken_clusters, CertificateGraph, InvalidationReport,
};
pub use model::{MobilityConfig, MobilityField};
pub use world::MobileWorld;
