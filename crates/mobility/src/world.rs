//! A population whose grid index and WPG track its motion incrementally.

use crate::model::{MobilityConfig, MobilityField};
use nela::{Params, System};
use nela_geo::{DatasetSpec, GridIndex, Point, Rect, UserId};
use nela_wpg::{IncrementalWpg, InverseDistanceRss, RankRows, UpdateStats, Wpg, WpgBuilder};

/// The live state of a mobile deployment: positions, the maintained grid,
/// and the incrementally maintained WPG, all stepped together.
pub struct MobileWorld {
    params: Params,
    field: MobilityField,
    wpg: IncrementalWpg<InverseDistanceRss>,
}

impl MobileWorld {
    /// Generates the initial population from `params` (same seeded dataset
    /// path as [`System::build`]) and attaches the mobility mixture.
    pub fn new(params: &Params, mobility: &MobilityConfig) -> Self {
        let spec = DatasetSpec {
            n: params.n_users,
            seed: params.seed,
            distribution: params.distribution.clone(),
        };
        let points = spec.generate();
        Self::from_points(params, mobility, &points)
    }

    /// Attaches motion and incremental maintenance to an existing snapshot.
    /// `params.threads` picks the workers of whole-population probes, which
    /// only affects performance, never the maintained graph.
    pub fn from_points(params: &Params, mobility: &MobilityConfig, points: &[Point]) -> Self {
        let builder = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss);
        MobileWorld {
            params: params.clone(),
            field: MobilityField::new(points.len(), mobility),
            wpg: IncrementalWpg::with_threads(builder, points, params.threads),
        }
    }

    /// Current positions.
    pub fn points(&self) -> &[Point] {
        self.wpg.points()
    }

    /// The parameters this world runs under.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Users that can ever move.
    pub fn mobile_users(&self) -> usize {
        self.field.mobile_users()
    }

    /// Sets the incremental-maintenance worker-thread count (bit-identical
    /// results for any value).
    pub fn set_threads(&mut self, threads: usize) {
        self.wpg.set_threads(threads);
    }

    /// Advances the population one tick and folds the moves into the grid
    /// and WPG incrementally: [`MobileWorld::draw_moves`], then
    /// [`MobileWorld::apply_moves`].
    pub fn tick(&mut self) -> UpdateStats {
        let moves = self.draw_moves();
        self.apply_moves(&moves)
    }

    /// Draws the next tick's moves from the mobility mixture without
    /// applying them; apply them with [`MobileWorld::apply_moves`] before
    /// drawing again.
    pub fn draw_moves(&mut self) -> Vec<(UserId, Point)> {
        self.field.step(self.wpg.points())
    }

    /// Folds a batch of moves into the grid and WPG incrementally.
    pub fn apply_moves(&mut self, moves: &[(UserId, Point)]) -> UpdateStats {
        self.wpg.apply_moves(moves)
    }

    /// Users whose rank list changed in the last tick — the audit set for
    /// epoch-based cluster reuse (a cluster can only break when a member's
    /// list changed; see [`IncrementalWpg::changed_users`]).
    pub fn changed_users(&self) -> &[UserId] {
        self.wpg.changed_users()
    }

    /// The maintained rank rows, borrowed: the current WPG read one vertex
    /// at a time (each row is the snapshot's CSR row), with no snapshot
    /// built.
    pub fn rows(&self) -> RankRows<'_> {
        self.wpg.rows()
    }

    /// Users currently inside `rect`, counted on the maintained grid (the
    /// count a frozen [`MobileWorld::grid_index`] would give).
    pub fn count_in_rect(&self, rect: &Rect) -> usize {
        self.wpg.grid().count_in_rect(rect)
    }

    /// Materializes the current WPG (exactly the from-scratch graph, see
    /// `nela_wpg::incremental`).
    pub fn wpg_snapshot(&self) -> Wpg {
        self.wpg.snapshot()
    }

    /// Freezes the maintained cell structure into a static [`GridIndex`] —
    /// a pure concatenation of the shard CSRs, bit-identical to
    /// `GridIndex::build` over the current positions (no re-bucketing).
    pub fn grid_index(&self) -> GridIndex {
        self.wpg.grid().to_grid_index()
    }

    /// Freezes the current state into a [`System`] the cloaking engine can
    /// serve from.
    pub fn system_snapshot(&self) -> System {
        System::with_parts(
            self.params.clone(),
            self.wpg.points().to_vec(),
            self.grid_index(),
            self.wpg.snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params {
            k: 5,
            ..Params::scaled(1_000)
        }
    }

    #[test]
    fn tick_moves_mobile_users_only() {
        let params = small_params();
        let cfg = MobilityConfig {
            stationary_frac: 0.6,
            ..MobilityConfig::default()
        };
        let mut world = MobileWorld::new(&params, &cfg);
        let stats = world.tick();
        assert_eq!(stats.moved, world.mobile_users());
        assert!(stats.dirty >= stats.moved);
        assert!(stats.changed <= stats.dirty);
    }

    #[test]
    fn snapshot_matches_full_rebuild_after_ticks() {
        let params = small_params();
        let mut world = MobileWorld::new(&params, &MobilityConfig::default());
        for _ in 0..3 {
            world.tick();
        }
        let rebuilt = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
            .build(world.points());
        let a: Vec<_> = world.wpg_snapshot().edges().collect();
        let b: Vec<_> = rebuilt.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn maintained_grid_index_matches_fresh_build() {
        let params = small_params();
        let mut world = MobileWorld::new(&params, &MobilityConfig::default());
        for _ in 0..3 {
            world.tick();
        }
        let maintained = world.grid_index();
        let fresh = GridIndex::build(world.points(), params.delta);
        assert_eq!(maintained.len(), fresh.len());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for q in (0..1000u32).step_by(37) {
            maintained.neighbors_within(q, params.delta, &mut a);
            fresh.neighbors_within(q, params.delta, &mut b);
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn system_snapshot_is_servable() {
        let params = small_params();
        let mut world = MobileWorld::new(&params, &MobilityConfig::default());
        world.tick();
        let system = world.system_snapshot();
        assert_eq!(system.points.len(), 1_000);
        assert_eq!(system.wpg.n(), 1_000);
        assert_eq!(system.grid.len(), 1_000);
    }

    #[test]
    fn worlds_are_seed_deterministic() {
        let params = small_params();
        let cfg = MobilityConfig::default();
        let mut a = MobileWorld::new(&params, &cfg);
        let mut b = MobileWorld::new(&params, &cfg);
        for _ in 0..4 {
            assert_eq!(a.tick(), b.tick());
        }
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn sharded_and_threaded_worlds_stay_bit_identical() {
        let cfg = MobilityConfig::default();
        let base = small_params();
        for threads in [1usize, 2, 4] {
            let params = Params {
                threads,
                ..base.clone()
            };
            let mut world = MobileWorld::new(&params, &cfg);
            for _ in 0..3 {
                world.tick();
            }
            let mut ref2 = MobileWorld::new(&base, &cfg);
            for _ in 0..3 {
                ref2.tick();
            }
            assert_eq!(world.points(), ref2.points());
            let a: Vec<_> = world.wpg_snapshot().edges().collect();
            let b: Vec<_> = ref2.wpg_snapshot().edges().collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }
}
