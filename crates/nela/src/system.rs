//! The deployed system: population, spatial index, and proximity graph.

use crate::params::Params;
use nela_geo::{DatasetSpec, GridIndex, Point, UserId};
use nela_wpg::{InverseDistanceRss, Wpg, WpgBuilder};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An instantiated NELA deployment: the user population (ground truth,
/// known only to each user individually), the grid index used to *build*
/// the proximity graph (standing in for the radio medium), and the WPG
/// the protocols actually operate on.
#[derive(Debug, Clone)]
pub struct System {
    /// Parameters this system was built from.
    pub params: Params,
    /// Ground-truth positions (index = user id). The protocols never read
    /// these except through RSS ranks and yes/no bound verifications.
    pub points: Vec<Point>,
    /// Spatial index over the population (used for WPG construction and for
    /// k-anonymity audits).
    pub grid: GridIndex,
    /// The weighted proximity graph.
    pub wpg: Wpg,
}

impl System {
    /// Generates the population and builds the WPG.
    pub fn build(params: &Params) -> System {
        let spec = DatasetSpec {
            n: params.n_users,
            seed: params.seed,
            distribution: params.distribution.clone(),
        };
        let threads = params.threads.max(1);
        let points = spec.generate();
        let grid = GridIndex::build(&points, params.delta);
        let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
            .build_with_index_threads(&points, &grid, threads);
        System {
            params: params.clone(),
            points,
            grid,
            wpg,
        }
    }

    /// Assembles a system from pre-built parts. Used by the continuous
    /// mobility pipeline, which maintains positions, grid, and WPG
    /// incrementally across ticks instead of regenerating them.
    pub fn with_parts(params: Params, points: Vec<Point>, grid: GridIndex, wpg: Wpg) -> System {
        assert_eq!(points.len(), grid.len(), "grid does not match points");
        assert_eq!(points.len(), wpg.n(), "wpg does not match points");
        System {
            params,
            points,
            grid,
            wpg,
        }
    }

    /// A reproducible sequence of `s` distinct host users (the paper's
    /// workload: S users out of the population request cloaking).
    ///
    /// # Panics
    /// Panics if `s` exceeds the population ("more hosts than users").
    pub fn host_sequence(&self, s: usize, seed: u64) -> Vec<UserId> {
        assert!(s <= self.points.len(), "more hosts than users");
        let mut ids: Vec<UserId> = (0..self.points.len() as UserId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ seed);
        ids.shuffle(&mut rng);
        ids.truncate(s);
        ids
    }

    /// Average vertex degree of the WPG (the x-axis of Fig. 9).
    pub fn avg_degree(&self) -> f64 {
        self.wpg.avg_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> System {
        System::build(&Params::scaled(2_000))
    }

    #[test]
    fn build_produces_consistent_sizes() {
        let s = small();
        assert_eq!(s.points.len(), 2_000);
        assert_eq!(s.wpg.n(), 2_000);
        assert_eq!(s.grid.len(), 2_000);
    }

    #[test]
    fn degree_bounded_by_max_peers() {
        let s = small();
        for u in 0..s.wpg.n() as UserId {
            assert!(s.wpg.degree(u) <= s.params.max_peers);
        }
    }

    #[test]
    fn host_sequence_is_distinct_and_reproducible() {
        let s = small();
        let a = s.host_sequence(100, 5);
        let b = s.host_sequence(100, 5);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
        let c = s.host_sequence(100, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn rebuild_is_deterministic() {
        let p = Params::scaled(1_000);
        let a = System::build(&p);
        let b = System::build(&p);
        assert_eq!(a.points, b.points);
        assert_eq!(a.wpg.m(), b.wpg.m());
    }

    #[test]
    fn threaded_build_matches_serial() {
        let serial = System::build(&Params::scaled(1_500));
        for threads in [2, 4, 8] {
            let p = Params {
                threads,
                ..Params::scaled(1_500)
            };
            let par = System::build(&p);
            assert_eq!(serial.points, par.points);
            assert_eq!(
                serial.wpg.edges().collect::<Vec<_>>(),
                par.wpg.edges().collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }
}
