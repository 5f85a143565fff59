//! Neighbor discovery: the beaconing process that *produces* the weighted
//! proximity graph.
//!
//! The paper assumes each device already knows its peers' RSS (§III,
//! Fig. 1). This module simulates how that knowledge arises: every device
//! periodically broadcasts a beacon; every device within radio range
//! receives it — or loses it to fading/collisions — and records an RSS
//! sample perturbed by per-beacon measurement noise. After the discovery
//! phase each device ranks the peers it actually heard by mean measured
//! RSS, keeps its strongest M, and the WPG is assembled exactly as the
//! builder does from ideal knowledge (mutual membership, min-rank weights).
//!
//! Comparing the discovered WPG against the ideal one quantifies how beacon
//! loss and RSS noise distort the substrate the cloaking algorithms stand
//! on (`exp_robustness` uses the same machinery at the algorithm level).

use crate::event::EventQueue;
use crate::network::ConfigError;
use nela_geo::{GridIndex, Point, UserId};
use nela_wpg::{keep_strongest, Edge, Wpg};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Discovery-phase configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Radio range δ.
    pub delta: f64,
    /// Peer cap M.
    pub max_peers: usize,
    /// Beacon rounds (each device beacons once per round).
    pub rounds: u32,
    /// Probability an individual reception is lost.
    pub beacon_loss: f64,
    /// Standard deviation of per-beacon RSS measurement noise, in the same
    /// (monotone-in-distance) units the ranking uses.
    pub rss_noise: f64,
    /// Beacon period in virtual seconds.
    pub period: f64,
    /// Master seed. Jitter, loss, and noise each draw from their own
    /// derived stream (`seed ^ tag`), so e.g. enabling RSS noise does not
    /// reshuffle which beacons are lost.
    pub seed: u64,
}

/// Stream tag for beacon-schedule jitter.
const JITTER_STREAM: u64 = 0x4a49_5454; // "JITT"
/// Stream tag for reception-loss draws.
const LOSS_STREAM: u64 = 0x4c4f_5353; // "LOSS"
/// Stream tag for RSS measurement noise.
const NOISE_STREAM: u64 = 0x4e4f_4953; // "NOIS"

impl DiscoveryConfig {
    /// Checks every field against its domain. [`run_discovery`] calls this
    /// at entry, so a malformed config is a typed error up front instead of
    /// a mid-run panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.delta.is_finite() || self.delta <= 0.0 {
            return Err(ConfigError::new("delta", self.delta, "finite and > 0"));
        }
        if self.max_peers < 1 {
            return Err(ConfigError::new("max_peers", self.max_peers as f64, ">= 1"));
        }
        if self.rounds < 1 {
            return Err(ConfigError::new("rounds", self.rounds as f64, ">= 1"));
        }
        if !(0.0..1.0).contains(&self.beacon_loss) {
            return Err(ConfigError::new(
                "beacon_loss",
                self.beacon_loss,
                "in [0, 1)",
            ));
        }
        if !self.rss_noise.is_finite() || self.rss_noise < 0.0 {
            return Err(ConfigError::new(
                "rss_noise",
                self.rss_noise,
                "finite and >= 0",
            ));
        }
        if !self.period.is_finite() || self.period <= 0.0 {
            return Err(ConfigError::new("period", self.period, "finite and > 0"));
        }
        Ok(())
    }
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            delta: 2e-3,
            max_peers: 10,
            rounds: 8,
            beacon_loss: 0.0,
            rss_noise: 0.0,
            period: 1.0,
            seed: 0,
        }
    }
}

/// Aggregate discovery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiscoveryStats {
    /// Beacons broadcast.
    pub beacons: u64,
    /// Successful receptions.
    pub receptions: u64,
    /// Receptions lost.
    pub lost: u64,
    /// Virtual time at completion.
    pub finished_at: f64,
}

/// One scheduled transmission.
#[derive(Debug, Clone, Copy)]
struct Beacon {
    sender: UserId,
}

/// Runs the discovery phase and assembles the discovered WPG.
///
/// # Errors
/// [`ConfigError`] when any [`DiscoveryConfig`] field is outside its domain
/// (see [`DiscoveryConfig::validate`]).
///
/// # Panics
/// Panics if `grid` does not index `points` — a programming error at the
/// call site, not a configuration problem.
pub fn run_discovery(
    points: &[Point],
    grid: &GridIndex,
    cfg: &DiscoveryConfig,
) -> Result<(Wpg, DiscoveryStats), ConfigError> {
    assert_eq!(points.len(), grid.len(), "grid must index the population");
    cfg.validate()?;
    let n = points.len();
    let mut jitter_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ JITTER_STREAM);
    let mut loss_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ LOSS_STREAM);
    let mut noise_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ NOISE_STREAM);
    let mut queue: EventQueue<Beacon> = EventQueue::new();
    // Jittered beacon schedule: round r, device u beacons at
    // r·period + jitter(u, r) — the jitter decorrelates collisions.
    for round in 0..cfg.rounds {
        for u in 0..n as UserId {
            let jitter: f64 = jitter_rng.gen::<f64>() * cfg.period * 0.9;
            queue.schedule(round as f64 * cfg.period + jitter, Beacon { sender: u });
        }
    }

    // Per-receiver accumulated RSS samples: (sum, count) per heard sender.
    let mut samples: Vec<std::collections::HashMap<UserId, (f64, u32)>> =
        vec![std::collections::HashMap::new(); n];
    let mut stats = DiscoveryStats::default();
    let mut in_range = Vec::new();
    while let Some((_, beacon)) = queue.pop() {
        stats.beacons += 1;
        grid.neighbors_within(beacon.sender, cfg.delta, &mut in_range);
        for &(receiver, d_sq) in &in_range {
            if loss_rng.gen::<f64>() < cfg.beacon_loss {
                stats.lost += 1;
                continue;
            }
            stats.receptions += 1;
            // The ranking only needs a strictly distance-decreasing signal;
            // use −distance plus measurement noise (cf. nela-wpg's RSS
            // models).
            let rss = -d_sq.sqrt() + cfg.rss_noise * standard_normal(&mut noise_rng);
            let entry = samples[receiver as usize]
                .entry(beacon.sender)
                .or_insert((0.0, 0));
            entry.0 += rss;
            entry.1 += 1;
        }
    }
    stats.finished_at = queue.now();

    // Rank heard peers by mean RSS; keep the strongest M.
    let mut rank_of: Vec<Vec<(UserId, u32)>> = vec![Vec::new(); n];
    for u in 0..n {
        let mut scored: Vec<(f64, UserId)> = samples[u]
            .iter()
            .map(|(&peer, &(sum, count))| (sum / count as f64, peer))
            .collect();
        keep_strongest(&mut scored, cfg.max_peers);
        rank_of[u] = scored
            .iter()
            .enumerate()
            .map(|(i, &(_, v))| (v, i as u32 + 1))
            .collect();
    }
    // Mutual edges with min-rank weights (same rule as `WpgBuilder`).
    let mut edges = Vec::new();
    for u in 0..n as UserId {
        for &(v, rank_v_at_u) in &rank_of[u as usize] {
            if v <= u {
                continue;
            }
            if let Some(&(_, rank_u_at_v)) = rank_of[v as usize].iter().find(|&&(x, _)| x == u) {
                edges.push(Edge::new(u, v, rank_v_at_u.min(rank_u_at_v)));
            }
        }
    }
    Ok((Wpg::from_edges(n, &edges), stats))
}

/// Measures how much of the reference WPG's edge set survives in the
/// discovered one (edge recall, ignoring weights).
pub fn edge_recall(reference: &Wpg, discovered: &Wpg) -> f64 {
    if reference.m() == 0 {
        return 1.0;
    }
    let found: std::collections::HashSet<(UserId, UserId)> =
        discovered.edges().map(|e| (e.u, e.v)).collect();
    let hit = reference
        .edges()
        .filter(|e| found.contains(&(e.u, e.v)))
        .count();
    hit as f64 / reference.m() as f64
}

fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_geo::DatasetSpec;
    use nela_wpg::{InverseDistanceRss, WpgBuilder};

    fn population(n: usize, seed: u64) -> (Vec<Point>, GridIndex) {
        let points = DatasetSpec::small_uniform(n, seed).generate();
        let grid = GridIndex::build(&points, 0.05);
        (points, grid)
    }

    fn cfg() -> DiscoveryConfig {
        DiscoveryConfig {
            delta: 0.05,
            max_peers: 6,
            rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn lossless_noiseless_discovery_matches_ideal_wpg() {
        let (points, grid) = population(400, 1);
        let (discovered, stats) = run_discovery(&points, &grid, &cfg()).unwrap();
        let ideal = WpgBuilder::new(0.05, 6, InverseDistanceRss).build_with_index(&points, &grid);
        let a: Vec<_> = discovered.edges().collect();
        let b: Vec<_> = ideal.edges().collect();
        assert_eq!(a, b, "perfect channel must reproduce the ideal WPG");
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.beacons, 400 * 4);
    }

    #[test]
    fn loss_removes_edges_gracefully() {
        let (points, grid) = population(400, 2);
        let ideal = WpgBuilder::new(0.05, 6, InverseDistanceRss).build_with_index(&points, &grid);
        let lossy = DiscoveryConfig {
            beacon_loss: 0.6,
            rounds: 1, // single round: losses directly erase peers
            ..cfg()
        };
        let (discovered, stats) = run_discovery(&points, &grid, &lossy).unwrap();
        assert!(stats.lost > 0);
        let recall = edge_recall(&ideal, &discovered);
        assert!(recall < 1.0, "60% loss with one round must lose edges");
        assert!(recall > 0.05, "but not everything");
    }

    #[test]
    fn more_rounds_recover_lossy_channels() {
        let (points, grid) = population(400, 3);
        let ideal = WpgBuilder::new(0.05, 6, InverseDistanceRss).build_with_index(&points, &grid);
        let one = DiscoveryConfig {
            beacon_loss: 0.5,
            rounds: 1,
            ..cfg()
        };
        let many = DiscoveryConfig {
            beacon_loss: 0.5,
            rounds: 12,
            ..cfg()
        };
        let (d1, _) = run_discovery(&points, &grid, &one).unwrap();
        let (d12, _) = run_discovery(&points, &grid, &many).unwrap();
        assert!(
            edge_recall(&ideal, &d12) > edge_recall(&ideal, &d1),
            "redundant beaconing must improve recall"
        );
        assert!(edge_recall(&ideal, &d12) > 0.95);
    }

    #[test]
    fn noise_perturbs_ranks_but_keeps_the_graph_similar() {
        let (points, grid) = population(400, 4);
        let ideal = WpgBuilder::new(0.05, 6, InverseDistanceRss).build_with_index(&points, &grid);
        let noisy = DiscoveryConfig {
            rss_noise: 0.005, // 10% of the radio range per beacon
            rounds: 6,        // averaging tames it
            ..cfg()
        };
        let (discovered, _) = run_discovery(&points, &grid, &noisy).unwrap();
        let recall = edge_recall(&ideal, &discovered);
        assert!(recall > 0.7, "recall {recall}");
    }

    #[test]
    fn discovery_is_deterministic_per_seed() {
        let (points, grid) = population(200, 5);
        let noisy = DiscoveryConfig {
            beacon_loss: 0.3,
            rss_noise: 0.002,
            ..cfg()
        };
        let (a, sa) = run_discovery(&points, &grid, &noisy).unwrap();
        let (b, sb) = run_discovery(&points, &grid, &noisy).unwrap();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(sa, sb);
    }

    #[test]
    fn rejects_malformed_configs_with_typed_errors() {
        let (points, grid) = population(20, 7);
        let bad_loss = DiscoveryConfig {
            beacon_loss: 1.0,
            ..cfg()
        };
        let err = run_discovery(&points, &grid, &bad_loss).unwrap_err();
        assert_eq!(err.field, "beacon_loss");
        assert_eq!(
            err.to_string(),
            "invalid beacon_loss = 1: must be in [0, 1)"
        );

        let err = DiscoveryConfig { rounds: 0, ..cfg() }
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "rounds");

        let err = DiscoveryConfig {
            delta: f64::NAN,
            ..cfg()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "delta");

        let err = DiscoveryConfig {
            max_peers: 0,
            ..cfg()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "max_peers");

        let err = DiscoveryConfig {
            rss_noise: -0.1,
            ..cfg()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "rss_noise");

        let err = DiscoveryConfig {
            period: 0.0,
            ..cfg()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "period");

        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn degree_cap_is_respected() {
        let (points, grid) = population(300, 6);
        let (discovered, _) = run_discovery(&points, &grid, &cfg()).unwrap();
        for u in 0..discovered.n() as UserId {
            assert!(discovered.degree(u) <= 6);
        }
    }
}
