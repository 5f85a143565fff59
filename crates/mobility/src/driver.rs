//! Continuous cloaking workload driver.
//!
//! Ties the pieces into the pipeline the paper's static evaluation lacks:
//! every tick the population moves ([`crate::MobileWorld`]), the WPG is
//! maintained incrementally over the `DynamicGrid`, clusters touched
//! by a changed rank list are re-audited ([`crate::lifetime`]), and a
//! Poisson stream of cloaking requests is served through the standard
//! [`nela::CloakingEngine`] with the cluster registry carried across ticks.
//!
//! A tick serves straight from the maintained state, as Algorithm 2's host
//! learns the WPG one peer's list at a time: the audit walks the members'
//! rank rows, phase 1 fetches each list from the rows
//! ([`nela::CloakingEngine::over_rows`]), the engine borrows the current
//! positions, and validity is counted on the maintained grid. No tick builds
//! a WPG snapshot, freezes a `GridIndex` or copies a position. The run
//! reports, per tick and in aggregate:
//!
//! - **cluster-reuse rate** — how often a request is answered from a still-
//!   valid registered cluster (the paper's zero-cost ® path) despite motion,
//! - **incremental-vs-rebuild speedup** — wall-clock of the mover-driven
//!   WPG update against a from-scratch `WpgBuilder::build`,
//! - **anonymity validity** — whether served regions still cover ≥ k users
//!   at the positions current when they were served.

use crate::lifetime::invalidate_clusters_of_users;
use crate::model::MobilityConfig;
use crate::world::MobileWorld;
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Params};
use nela_cluster::registry::ClusterRegistry;
use nela_geo::UserId;
use nela_wpg::{InverseDistanceRss, WpgBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Configuration of a continuous run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Simulation length in ticks.
    pub ticks: usize,
    /// Mean cloaking requests per tick (Poisson).
    pub rate: f64,
    /// Seed for the request stream. Arrival counts and host choices draw
    /// from separate derived streams (`seed ^ tag`), so changing the rate
    /// does not reshuffle which users request.
    pub seed: u64,
    /// Also time a from-scratch WPG rebuild each tick for the speedup
    /// metric (doubles the per-tick cost; disable for long runs).
    pub measure_rebuild: bool,
    /// Worker threads for the incremental maintenance (the whole-population
    /// probes of a tick past the mover crossover). `1` (the default) runs
    /// serially; higher counts produce bit-identical rank rows in parallel,
    /// so the run stays deterministic for any value.
    pub threads: usize,
}

impl DriverConfig {
    /// Checks the knobs `run_continuous` cannot run with: the per-tick
    /// request rate must be finite and in `[0, 700)` (the Poisson sampler's
    /// `e^{−rate}` underflows past that).
    pub fn validate(&self) -> Result<(), DriverConfigError> {
        if !(self.rate.is_finite() && (0.0..MAX_RATE).contains(&self.rate)) {
            return Err(DriverConfigError::BadRate(self.rate));
        }
        Ok(())
    }
}

/// Exclusive upper bound of [`DriverConfig::rate`].
const MAX_RATE: f64 = 700.0;

/// A rejected [`DriverConfig`] with the offending field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriverConfigError {
    /// `rate` was negative, NaN, infinite or at least 700.
    BadRate(f64),
}

impl std::fmt::Display for DriverConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverConfigError::BadRate(r) => {
                write!(f, "rate {r} must be finite and in [0, {MAX_RATE})")
            }
        }
    }
}

impl std::error::Error for DriverConfigError {}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ticks: 20,
            rate: 10.0,
            seed: 0xC0_FF_EE,
            measure_rebuild: true,
            threads: 1,
        }
    }
}

/// Per-tick measurements.
#[derive(Debug, Clone, Serialize)]
pub struct TickMetrics {
    pub tick: usize,
    /// Unique users that moved.
    pub moved: usize,
    /// Users whose candidate list the incremental WPG update touched (every
    /// user on a tick past the mover crossover).
    pub dirty: usize,
    /// Users whose rank list actually changed.
    pub changed: usize,
    /// Nanoseconds for the incremental update: `apply_moves` folding the
    /// tick's moves into the grid and the rank rows, which is all the
    /// maintenance a served tick pays (serving reads the rows in place, no
    /// snapshot is built). Drawing the moves is not counted. Nanosecond
    /// resolution keeps sub-microsecond ticks (common at small n) in the
    /// speedup statistics instead of flooring them to zero.
    pub incremental_ns: u64,
    /// Nanoseconds for the from-scratch rebuild of the CSR (0 when not
    /// measured).
    pub rebuild_ns: u64,
    /// Clusters retired by the lifetime audit this tick.
    pub invalidated: usize,
    /// Users released by the audit.
    pub released: usize,
    /// Live clusters after the audit.
    pub active_clusters: usize,
    /// Requests that arrived.
    pub requests: usize,
    /// Requests answered (not failed).
    pub served: usize,
    /// Served requests answered from a registered cluster with zero
    /// clustering cost (the ® path).
    pub reused: usize,
    /// Requests whose host could not reach k users.
    pub failed: usize,
    /// Served requests whose region covers ≥ k users at current positions.
    pub valid_served: usize,
}

/// Aggregate of a whole run.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    pub ticks: usize,
    pub population: usize,
    pub mobile_users: usize,
    pub requests: usize,
    pub served: usize,
    pub reused: usize,
    pub failed: usize,
    pub valid_served: usize,
    pub invalidated: usize,
    pub released: usize,
    /// Fraction of served requests answered by cluster reuse; `None` when
    /// nothing was served (a run with no served requests has no rate, it
    /// does not have a rate of zero).
    pub reuse_rate: Option<f64>,
    /// Fraction of served requests still covering ≥ k users when served;
    /// `None` when nothing was served.
    pub validity_rate: Option<f64>,
    /// Mean of per-tick `rebuild_ns / incremental_ns` over every measured
    /// tick; `None` when the rebuild was never measured.
    pub mean_speedup: Option<f64>,
    pub per_tick: Vec<TickMetrics>,
}

/// `num / den` as a rate, or `None` when the denominator is empty.
fn rate_of(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Stream tag for Poisson arrival counts.
const ARRIVAL_STREAM: u64 = 0x4152_5249_5645; // "ARRIVE"
/// Stream tag for request host choices.
const HOST_STREAM: u64 = 0x484f_5354; // "HOST"

/// Knuth's product method; exact for the small per-tick rates used here.
/// `rate` is checked by [`DriverConfig::validate`].
fn poisson(rng: &mut ChaCha8Rng, rate: f64) -> usize {
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Runs the continuous workload. Fully deterministic for fixed
/// `params.seed`, `mobility.seed`, and `config.seed`.
///
/// # Panics
/// Panics if `config` fails [`DriverConfig::validate`], or if `params` has
/// no users, `k = 0` or `max_peers = 0`; callers holding untrusted values
/// check them first (the CLI turns them into usage errors).
pub fn run_continuous(
    params: &Params,
    mobility: &MobilityConfig,
    config: &DriverConfig,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
) -> RunSummary {
    if let Err(e) = config.validate() {
        panic!("run_continuous: {e}");
    }
    let mut world = MobileWorld::new(params, mobility);
    world.set_threads(config.threads);
    let mut registry = ClusterRegistry::new(params.n_users);
    let mut arrival_rng = ChaCha8Rng::seed_from_u64(config.seed ^ ARRIVAL_STREAM);
    let mut host_rng = ChaCha8Rng::seed_from_u64(config.seed ^ HOST_STREAM);
    let rebuild_builder = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss);
    let mut per_tick = Vec::with_capacity(config.ticks);

    for tick in 0..config.ticks {
        // 1. Move the population; fold the moves into the grid and the rank
        // rows incrementally.
        let moves = world.draw_moves();
        let t0 = Instant::now();
        let stats = world.apply_moves(&moves);
        let incremental_ns = t0.elapsed().as_nanos() as u64;
        nela_obs::observe(nela_obs::stage::MOBILITY_INCREMENTAL, incremental_ns);

        // 2. Reference rebuild for the speedup series.
        let rebuild_ns = if config.measure_rebuild {
            let t1 = Instant::now();
            let rebuilt = rebuild_builder.build(world.points());
            let ns = t1.elapsed().as_nanos() as u64;
            debug_assert!(
                world.rows().matches_csr(&rebuilt),
                "incremental update diverged: a rank row differs from the rebuild's CSR row"
            );
            nela_obs::observe(nela_obs::stage::MOBILITY_REBUILD, ns);
            ns
        } else {
            0
        };

        // 3. Epoch-scoped lifetime audit: every edge that changed this tick
        // has an endpoint whose rank list changed, so only clusters holding
        // such a user can have lost their certificate, and only those are
        // checked, over the members' rank rows.
        let audit_span = nela_obs::span(nela_obs::stage::MOBILITY_AUDIT);
        let audit =
            invalidate_clusters_of_users(&mut registry, &world.rows(), world.changed_users());
        drop(audit_span);

        // 4. Serve this tick's Poisson batch through the standard engine,
        // over the maintained positions and rank rows as they stand.
        let serve_span = nela_obs::span(nela_obs::stage::MOBILITY_SERVE);
        let mut engine = CloakingEngine::over_rows(
            params,
            world.points(),
            world.rows(),
            clustering,
            bounding,
            registry,
        );
        let requests = poisson(&mut arrival_rng, config.rate);
        let mut m = TickMetrics {
            tick,
            moved: stats.moved,
            dirty: stats.dirty,
            changed: stats.changed,
            incremental_ns,
            rebuild_ns,
            invalidated: audit.invalidated,
            released: audit.released,
            active_clusters: 0,
            requests,
            served: 0,
            reused: 0,
            failed: 0,
            valid_served: 0,
        };
        for _ in 0..requests {
            let host: UserId = host_rng.gen_range(0..params.n_users as u32);
            match engine.request(host) {
                Ok(r) => {
                    m.served += 1;
                    if r.reused {
                        m.reused += 1;
                    }
                    if world.count_in_rect(&r.region) >= params.k {
                        m.valid_served += 1;
                    }
                }
                Err(_) => m.failed += 1,
            }
        }
        registry = engine.into_registry();
        drop(serve_span);
        m.active_clusters = registry.active_cluster_count();
        per_tick.push(m);
    }

    let sum = |f: fn(&TickMetrics) -> usize| per_tick.iter().map(f).sum::<usize>();
    let served = sum(|m| m.served);
    // Every measured tick counts (`rebuild_ns > 0` marks "was measured" —
    // a real rebuild never rounds to 0 ns); sub-microsecond incremental
    // ticks are kept, not filtered, so the mean is not biased toward
    // rebuild-friendly ticks.
    let speedups: Vec<f64> = per_tick
        .iter()
        .filter(|m| m.rebuild_ns > 0)
        .map(|m| m.rebuild_ns as f64 / m.incremental_ns.max(1) as f64)
        .collect();
    RunSummary {
        ticks: config.ticks,
        population: params.n_users,
        mobile_users: world.mobile_users(),
        requests: sum(|m| m.requests),
        served,
        reused: sum(|m| m.reused),
        failed: sum(|m| m.failed),
        valid_served: sum(|m| m.valid_served),
        invalidated: sum(|m| m.invalidated),
        released: sum(|m| m.released),
        reuse_rate: rate_of(sum(|m| m.reused), served),
        validity_rate: rate_of(sum(|m| m.valid_served), served),
        mean_speedup: (!speedups.is_empty())
            .then(|| speedups.iter().sum::<f64>() / speedups.len() as f64),
        per_tick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::invalidate_broken_clusters;
    use nela_cluster::knn::TieBreak;

    fn small_run(seed: u64) -> RunSummary {
        small_run_threads(seed, 1)
    }

    fn small_run_threads(seed: u64, threads: usize) -> RunSummary {
        let params = Params {
            k: 5,
            ..Params::scaled(1_000)
        };
        let config = DriverConfig {
            ticks: 6,
            rate: 8.0,
            seed,
            measure_rebuild: false,
            threads,
        };
        run_continuous(
            &params,
            &MobilityConfig::default(),
            &config,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
        )
    }

    #[test]
    fn every_baseline_serves_across_ticks() {
        // The baselines re-enter the engine every tick over the carried
        // registry: the partition must skip the carried clusters.
        let params = Params {
            k: 5,
            ..Params::scaled(1_000)
        };
        let config = DriverConfig {
            ticks: 4,
            rate: 8.0,
            seed: 3,
            measure_rebuild: false,
            threads: 1,
        };
        for clustering in [
            ClusteringAlgo::TConnCentralized,
            ClusteringAlgo::HilbAsr,
            ClusteringAlgo::Knn(TieBreak::Id),
        ] {
            let s = run_continuous(
                &params,
                &MobilityConfig::default(),
                &config,
                clustering,
                BoundingAlgo::Optimal,
            );
            assert_eq!(s.requests, s.served + s.failed, "{clustering:?}");
            assert!(s.served > 0, "{clustering:?} served nothing");
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let a = small_run(7);
        let b = small_run(7);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.served, b.served);
        assert_eq!(a.reused, b.reused);
        assert_eq!(a.invalidated, b.invalidated);
        for (x, y) in a.per_tick.iter().zip(&b.per_tick) {
            assert_eq!(
                (x.moved, x.dirty, x.changed, x.served, x.reused),
                (y.moved, y.dirty, y.changed, y.served, y.reused)
            );
        }
    }

    #[test]
    fn threaded_maintenance_keeps_run_identical() {
        // The `threads` knob only parallelizes whole-population probes and
        // snapshots, which are bit-identical to serial — so the whole run
        // must be too.
        let serial = small_run_threads(7, 1);
        for threads in [2usize, 4] {
            let par = small_run_threads(7, threads);
            assert_eq!(serial.served, par.served, "{threads} threads");
            assert_eq!(serial.reused, par.reused, "{threads} threads");
            assert_eq!(serial.invalidated, par.invalidated, "{threads} threads");
            assert_eq!(serial.valid_served, par.valid_served, "{threads} threads");
            for (x, y) in serial.per_tick.iter().zip(&par.per_tick) {
                assert_eq!(
                    (
                        x.moved,
                        x.dirty,
                        x.changed,
                        x.served,
                        x.reused,
                        x.valid_served
                    ),
                    (
                        y.moved,
                        y.dirty,
                        y.changed,
                        y.served,
                        y.reused,
                        y.valid_served
                    ),
                    "tick diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn epoch_audit_matches_full_audit_across_run() {
        // Replay the same world and registry evolution, auditing with the
        // full sweep instead of the epoch-scoped one: the retirement
        // decisions must be identical (the driver itself uses the epoch
        // audit, so `invalidated`/`released` already come from it).
        let params = Params {
            k: 5,
            ..Params::scaled(1_000)
        };
        let mobility = MobilityConfig::default();
        let mut world = MobileWorld::new(&params, &mobility);
        let mut reg_epoch = ClusterRegistry::new(params.n_users);
        let mut reg_full = ClusterRegistry::new(params.n_users);
        let mut reg_rows = ClusterRegistry::new(params.n_users);
        // Seed both registries with identical clusters from a one-tick run.
        let system = world.system_snapshot();
        let mut engine = CloakingEngine::with_registry(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
            std::mem::replace(&mut reg_epoch, ClusterRegistry::new(0)),
        );
        for host in (0..1000u32).step_by(29) {
            let _ = engine.request(host);
        }
        reg_epoch = engine.into_registry();
        for (_, rc) in reg_epoch.active_clusters() {
            reg_full.register(rc.cluster.clone());
            reg_rows.register(rc.cluster.clone());
        }
        for _ in 0..4 {
            world.tick();
            let wpg = world.wpg_snapshot();
            let a = invalidate_clusters_of_users(&mut reg_epoch, &wpg, world.changed_users());
            let b = invalidate_broken_clusters(&mut reg_full, &wpg);
            // The same epoch audit over the rank rows the driver walks.
            let c =
                invalidate_clusters_of_users(&mut reg_rows, &world.rows(), world.changed_users());
            assert_eq!(a.invalidated, b.invalidated);
            assert_eq!(a.released, b.released);
            assert!(a.checked <= b.checked, "epoch audit checked more");
            assert_eq!(a, c, "rank-row audit differs from the CSR audit");
            assert_eq!(
                reg_epoch.active_cluster_count(),
                reg_full.active_cluster_count()
            );
        }
        assert!(
            reg_full.retired_count() > 0,
            "the run must retire clusters to mean much"
        );
    }

    #[test]
    fn accounting_is_consistent() {
        let s = small_run(3);
        assert_eq!(s.ticks, s.per_tick.len());
        assert_eq!(s.requests, s.served + s.failed);
        assert!(s.reused <= s.served);
        assert!(s.valid_served <= s.served);
        assert!(s.served > 0);
        let reuse = s.reuse_rate.expect("served > 0 must yield a rate");
        assert!((0.0..=1.0).contains(&reuse));
        // Rebuild unmeasured → no speedup claim, not a fake 0.0.
        assert_eq!(s.mean_speedup, None);
    }

    #[test]
    fn zero_traffic_reports_no_rates() {
        let params = Params {
            k: 5,
            ..Params::scaled(500)
        };
        let config = DriverConfig {
            ticks: 2,
            rate: 0.0,
            seed: 5,
            measure_rebuild: true,
            threads: 1,
        };
        let s = run_continuous(
            &params,
            &MobilityConfig::default(),
            &config,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
        );
        assert_eq!(s.served, 0);
        assert_eq!(s.reuse_rate, None, "no served requests → no reuse rate");
        assert_eq!(s.validity_rate, None);
        // The rebuild was measured, so the speedup series exists.
        assert!(s.mean_speedup.is_some());
        assert!(s.per_tick.iter().all(|m| m.rebuild_ns > 0));
    }

    #[test]
    fn validate_rejects_rates_the_sampler_cannot_draw() {
        for rate in [700.0, 800.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = DriverConfig {
                rate,
                ..DriverConfig::default()
            };
            assert!(
                matches!(config.validate(), Err(DriverConfigError::BadRate(_))),
                "rate {rate} accepted"
            );
        }
        for rate in [0.0, 25.0, 699.5] {
            let config = DriverConfig {
                rate,
                ..DriverConfig::default()
            };
            assert_eq!(config.validate(), Ok(()), "rate {rate} rejected");
        }
    }

    #[test]
    fn served_regions_are_mostly_valid() {
        let s = small_run(11);
        assert!(s.served > 0, "no requests served");
        // Motion erodes some regions, but the audit keeps the bulk valid.
        let validity = s.validity_rate.expect("served > 0 must yield a rate");
        assert!(validity > 0.5, "validity collapsed: {validity}");
    }

    #[test]
    fn static_population_never_invalidates() {
        let params = Params {
            k: 5,
            ..Params::scaled(800)
        };
        let mobility = MobilityConfig {
            stationary_frac: 1.0,
            waypoint_frac: 0.0,
            ..MobilityConfig::default()
        };
        let config = DriverConfig {
            ticks: 4,
            rate: 6.0,
            seed: 2,
            measure_rebuild: false,
            threads: 1,
        };
        let s = run_continuous(
            &params,
            &mobility,
            &config,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
        );
        assert_eq!(s.invalidated, 0);
        assert_eq!(s.released, 0);
    }

    #[test]
    fn mobile_population_reuses_and_invalidates() {
        let s = small_run(19);
        // Across 6 ticks at rate 8 over 1k users, some requests land on
        // already-clustered users (reuse) and motion breaks some clusters.
        assert!(s.invalidated > 0, "no cluster ever invalidated");
        assert!(s.reused > 0, "no request ever reused a cluster");
    }
}
