//! `run_continuous` serves every tick straight from the maintained state:
//! the lifetime audit and phase 1 read the incremental WPG's rank rows, the
//! engine borrows the current positions, and validity is counted on the
//! maintained grid. This test runs the tick loop it replaced beside it —
//! a WPG snapshot per tick, the audit over that CSR, a frozen grid and a
//! copied position array in a fresh `System` — and requires every logical
//! `TickMetrics` field to match on every tick, for every clustering
//! algorithm.

use nela::cluster::knn::TieBreak;
use nela::cluster::ClusterRegistry;
use nela::geo::UserId;
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use nela_mobility::lifetime::invalidate_clusters_of_users;
use nela_mobility::{run_continuous, DriverConfig, MobileWorld, MobilityConfig, TickMetrics};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The driver's request-stream tags (`seed ^ tag`), so the old loop draws
/// exactly the driver's arrivals and hosts.
const ARRIVAL_STREAM: u64 = 0x4152_5249_5645;
const HOST_STREAM: u64 = 0x484f_5354;

/// Knuth's product method, as the driver draws its per-tick arrivals.
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

/// Every logical field of a tick: all but the wall-clock ones.
fn logical(m: &TickMetrics) -> [usize; 12] {
    [
        m.tick,
        m.moved,
        m.dirty,
        m.changed,
        m.invalidated,
        m.released,
        m.active_clusters,
        m.requests,
        m.served,
        m.reused,
        m.failed,
        m.valid_served,
    ]
}

/// The tick loop `run_continuous` ran before it served from the rank rows.
fn snapshot_tick_loop(
    params: &Params,
    mobility: &MobilityConfig,
    config: &DriverConfig,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
) -> Vec<[usize; 12]> {
    let mut world = MobileWorld::new(params, mobility);
    let mut registry = ClusterRegistry::new(params.n_users);
    let mut arrival_rng = ChaCha8Rng::seed_from_u64(config.seed ^ ARRIVAL_STREAM);
    let mut host_rng = ChaCha8Rng::seed_from_u64(config.seed ^ HOST_STREAM);
    let mut ticks = Vec::new();
    for tick in 0..config.ticks {
        let stats = world.tick();
        let wpg = world.wpg_snapshot();
        let audit = invalidate_clusters_of_users(&mut registry, &wpg, world.changed_users());
        let system = System::with_parts(
            params.clone(),
            world.points().to_vec(),
            world.grid_index(),
            wpg,
        );
        let mut engine = CloakingEngine::with_registry(&system, clustering, bounding, registry);
        let requests = poisson(&mut arrival_rng, config.rate);
        let (mut served, mut reused, mut failed, mut valid) = (0, 0, 0, 0);
        for _ in 0..requests {
            let host: UserId = host_rng.gen_range(0..params.n_users as u32);
            match engine.request(host) {
                Ok(r) => {
                    served += 1;
                    reused += usize::from(r.reused);
                    valid += usize::from(system.grid.count_in_rect(&r.region) >= params.k);
                }
                Err(_) => failed += 1,
            }
        }
        registry = engine.into_registry();
        ticks.push([
            tick,
            stats.moved,
            stats.dirty,
            stats.changed,
            audit.invalidated,
            audit.released,
            registry.active_cluster_count(),
            requests,
            served,
            reused,
            failed,
            valid,
        ]);
    }
    ticks
}

#[test]
fn rank_row_ticks_match_the_snapshot_tick_loop() {
    let params = Params {
        k: 5,
        ..Params::scaled(2_000)
    };
    let mobility = MobilityConfig::default();
    let config = DriverConfig {
        ticks: 8,
        rate: 20.0,
        seed: 29,
        measure_rebuild: true,
        threads: 1,
    };
    for clustering in [
        ClusteringAlgo::TConnDistributed,
        ClusteringAlgo::TConnCentralized,
        ClusteringAlgo::Knn(TieBreak::Id),
        ClusteringAlgo::HilbAsr,
    ] {
        let summary = run_continuous(
            &params,
            &mobility,
            &config,
            clustering,
            BoundingAlgo::Secure,
        );
        let expect = snapshot_tick_loop(
            &params,
            &mobility,
            &config,
            clustering,
            BoundingAlgo::Secure,
        );
        let got: Vec<[usize; 12]> = summary.per_tick.iter().map(logical).collect();
        assert_eq!(got, expect, "{clustering:?}");
        assert!(summary.served > 0, "{clustering:?} served nothing");
        if clustering != ClusteringAlgo::Knn(TieBreak::Id) {
            assert!(
                summary.invalidated > 0 && summary.reused > 0,
                "{clustering:?}: the run must retire and reuse clusters to mean much"
            );
        }
    }
}
