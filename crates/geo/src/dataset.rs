//! Seeded synthetic spatial dataset generators.
//!
//! The paper evaluates on the USGS California POI dataset (104,770 points
//! normalized to the unit square). That dataset is not redistributable here,
//! so this module generates synthetic populations whose *spatial clustering
//! statistics* drive the same behaviour in the proximity graph: real POI data
//! is heavily clustered (cities, road corridors) over a sparse background,
//! which is what produces the paper's reported average vertex degrees of
//! 3.8–22.8 for peer caps M = 4–64.
//!
//! Three generators are provided:
//!
//! - [`SpatialDistribution::Uniform`] — i.i.d. uniform points; a smoke-test
//!   topology with near-constant local density.
//! - [`SpatialDistribution::GaussianClusters`] — equal-weight isotropic
//!   Gaussian blobs; a controlled clustered topology.
//! - [`SpatialDistribution::CaliforniaLike`] — the default substitute for the
//!   paper's dataset: Zipf-sized Gaussian clusters whose centers lie along a
//!   few linear "corridors" (mimicking coastline/highway urbanization), plus
//!   a uniform rural background.
//!
//! Everything is parameterized by a `u64` seed through ChaCha8, so any figure
//! in `EXPERIMENTS.md` regenerates bit-identically. Generators with more than
//! one random component (cluster/street layout vs. point sampling) draw each
//! component from its own derived stream (`seed ^ component_tag`), so editing
//! one component's draw count never silently reshuffles the others.

use crate::point::Point;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Number of points in the paper's California POI dataset; the default
/// population size throughout the evaluation.
pub const CALIFORNIA_POI_COUNT: usize = 104_770;

/// The spatial law a synthetic population is drawn from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpatialDistribution {
    /// Independent uniform points in the unit square.
    Uniform,
    /// `clusters` isotropic Gaussian blobs of standard deviation `sigma`,
    /// equal weight, centers uniform in the unit square.
    GaussianClusters { clusters: usize, sigma: f64 },
    /// Skewed corridor-clustered mixture standing in for the USGS California
    /// POI dataset. `background` is the fraction of points drawn uniformly
    /// (rural noise), the rest fall into Zipf-weighted corridor clusters.
    CaliforniaLike { background: f64 },
    /// Rush-hour skew: `hot_frac` of the population is packed into a few
    /// tight "downtown" hotspots (Zipf-weighted, σ ≈ 0.01) while the rest
    /// spreads uniformly as a sparse suburban background. The extreme-skew
    /// geography of the scenario matrix — dense cores where clusters are
    /// cheap next to a periphery where the disconnected problem dominates.
    RushHour { hotspots: usize, hot_frac: f64 },
}

impl SpatialDistribution {
    /// The default stand-in for the paper's dataset.
    pub fn california() -> Self {
        SpatialDistribution::CaliforniaLike { background: 0.10 }
    }

    /// The default rush-hour skew of the scenario matrix: 4 downtown
    /// hotspots holding 80% of the population.
    pub fn rush_hour() -> Self {
        SpatialDistribution::RushHour {
            hotspots: 4,
            hot_frac: 0.80,
        }
    }
}

/// A reproducible dataset specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Number of users/points.
    pub n: usize,
    /// PRNG seed; equal specs generate equal datasets.
    pub seed: u64,
    /// Spatial law.
    pub distribution: SpatialDistribution,
}

impl DatasetSpec {
    /// A small uniform spec for tests.
    pub fn small_uniform(n: usize, seed: u64) -> Self {
        DatasetSpec {
            n,
            seed,
            distribution: SpatialDistribution::Uniform,
        }
    }

    /// Materializes the dataset. Every point lies in the unit square.
    pub fn generate(&self) -> Vec<Point> {
        match &self.distribution {
            SpatialDistribution::Uniform => {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
                (0..self.n)
                    .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
                    .collect()
            }
            SpatialDistribution::GaussianClusters { clusters, sigma } => {
                gaussian_clusters(self.n, *clusters, *sigma, self.seed)
            }
            SpatialDistribution::CaliforniaLike { background } => {
                california_like(self.n, *background, self.seed)
            }
            SpatialDistribution::RushHour { hotspots, hot_frac } => {
                rush_hour(self.n, *hotspots, *hot_frac, self.seed)
            }
        }
    }
}

/// Stream tag for the layout component (cluster centers, street geometry).
const LAYOUT_STREAM: u64 = 0x4c41_594f_5554; // "LAYOUT"
/// Stream tag for the point-sampling component.
const SAMPLE_STREAM: u64 = 0x5341_4d50_4c45; // "SAMPLE"

/// A standard normal draw via Box–Muller (keeps us off `rand_distr`, which
/// is not in the approved dependency set). A uniform draw of exactly 0 is
/// drawn again. Every Gaussian in the workspace samples through this one
/// function.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

fn gaussian_clusters(n: usize, clusters: usize, sigma: f64, seed: u64) -> Vec<Point> {
    assert!(clusters > 0, "need at least one cluster");
    let mut layout_rng = ChaCha8Rng::seed_from_u64(seed ^ LAYOUT_STREAM);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SAMPLE_STREAM);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(layout_rng.gen::<f64>(), layout_rng.gen::<f64>()))
        .collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..clusters)];
            Point::new(
                c.x + sigma * standard_normal(&mut rng),
                c.y + sigma * standard_normal(&mut rng),
            )
            .clamp_unit()
        })
        .collect()
}

/// Corridor endpoints roughly tracing a coastal arc and two inland highways,
/// chosen once so the layout (and thus the degree distribution) is stable
/// across seeds; only the sampling along them is random.
const CORRIDORS: [(Point, Point); 3] = [
    (Point::new(0.05, 0.95), Point::new(0.45, 0.30)), // "coast"
    (Point::new(0.45, 0.30), Point::new(0.90, 0.05)), // "south corridor"
    (Point::new(0.20, 0.85), Point::new(0.85, 0.55)), // "central valley"
];

/// A "street": a line segment POIs scatter along with small perpendicular
/// jitter. Real POI data is dominated by such quasi-1-D structures (roads,
/// commercial strips), which is what makes neighborhood depletion costly:
/// the nearest free user along a street is far when the local stretch is
/// taken.
struct Street {
    anchor: Point,
    dir: (f64, f64),
    half_len: f64,
    jitter: f64,
}

fn california_like(n: usize, background: f64, seed: u64) -> Vec<Point> {
    assert!(
        (0.0..=1.0).contains(&background),
        "background fraction must be in [0,1]"
    );
    let mut layout_rng = ChaCha8Rng::seed_from_u64(seed ^ LAYOUT_STREAM);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SAMPLE_STREAM);
    // Street anchors distributed along the corridors with jitter; street
    // orientation is biased toward the corridor's own direction.
    const N_STREETS: usize = 800;
    let mut streets = Vec::with_capacity(N_STREETS);
    for i in 0..N_STREETS {
        let (a, b) = CORRIDORS[i % CORRIDORS.len()];
        let t: f64 = layout_rng.gen();
        let anchor = Point::new(
            a.x + t * (b.x - a.x) + 0.04 * standard_normal(&mut layout_rng),
            a.y + t * (b.y - a.y) + 0.04 * standard_normal(&mut layout_rng),
        )
        .clamp_unit();
        let corridor_angle = (b.y - a.y).atan2(b.x - a.x);
        let angle = corridor_angle
            + if layout_rng.gen::<f64>() < 0.5 {
                std::f64::consts::FRAC_PI_2 // cross street
            } else {
                0.0
            }
            + 0.3 * standard_normal(&mut layout_rng);
        streets.push(Street {
            anchor,
            dir: (angle.cos(), angle.sin()),
            // Street half-lengths: ~0.01 (block) to ~0.06 (arterial).
            half_len: 0.01 + 0.05 * layout_rng.gen::<f64>().powi(2),
            jitter: 0.0008,
        });
    }
    // Mildly skewed weights (1/√(i+1)): arterials hold more POIs than side
    // streets, but density spreads enough that typical along-street POI
    // spacing is commensurate with a short radio range — the regime of the
    // USGS California dataset.
    let weights: Vec<f64> = (0..N_STREETS)
        .map(|i| 1.0 / ((i + 1) as f64).sqrt())
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(N_STREETS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cdf.push(acc);
    }

    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < background {
                Point::new(rng.gen::<f64>(), rng.gen::<f64>())
            } else {
                let u: f64 = rng.gen();
                let si = cdf.partition_point(|&c| c < u).min(N_STREETS - 1);
                let s = &streets[si];
                let along = (2.0 * rng.gen::<f64>() - 1.0) * s.half_len;
                let across = s.jitter * standard_normal(&mut rng);
                Point::new(
                    s.anchor.x + along * s.dir.0 - across * s.dir.1,
                    s.anchor.y + along * s.dir.1 + across * s.dir.0,
                )
                .clamp_unit()
            }
        })
        .collect()
}

fn rush_hour(n: usize, hotspots: usize, hot_frac: f64, seed: u64) -> Vec<Point> {
    assert!(hotspots > 0, "need at least one hotspot");
    assert!(
        (0.0..=1.0).contains(&hot_frac),
        "hot fraction must be in [0,1]"
    );
    let mut layout_rng = ChaCha8Rng::seed_from_u64(seed ^ LAYOUT_STREAM);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SAMPLE_STREAM);
    // Hotspot centers kept away from the domain edge so the dense cores stay
    // (mostly) inside the unit square instead of piling up on the boundary.
    let centers: Vec<Point> = (0..hotspots)
        .map(|_| {
            Point::new(
                0.1 + 0.8 * layout_rng.gen::<f64>(),
                0.1 + 0.8 * layout_rng.gen::<f64>(),
            )
        })
        .collect();
    // Zipf-weighted hotspot popularity: downtown #1 dominates.
    let weights: Vec<f64> = (0..hotspots).map(|i| 1.0 / (i + 1) as f64).collect();
    let total_w: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(hotspots);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cdf.push(acc);
    }
    const SIGMA: f64 = 0.01;
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < hot_frac {
                let u: f64 = rng.gen();
                let hi = cdf.partition_point(|&c| c < u).min(hotspots - 1);
                let c = centers[hi];
                Point::new(
                    c.x + SIGMA * standard_normal(&mut rng),
                    c.y + SIGMA * standard_normal(&mut rng),
                )
                .clamp_unit()
            } else {
                Point::new(rng.gen::<f64>(), rng.gen::<f64>())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = DatasetSpec {
            n: 1000,
            seed: 7,
            distribution: SpatialDistribution::california(),
        };
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::small_uniform(100, 1).generate();
        let b = DatasetSpec::small_uniform(100, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn all_points_in_unit_square() {
        for dist in [
            SpatialDistribution::Uniform,
            SpatialDistribution::GaussianClusters {
                clusters: 5,
                sigma: 0.3,
            },
            SpatialDistribution::california(),
            SpatialDistribution::rush_hour(),
        ] {
            let pts = DatasetSpec {
                n: 2000,
                seed: 11,
                distribution: dist.clone(),
            }
            .generate();
            assert_eq!(pts.len(), 2000);
            assert!(
                pts.iter().all(Point::in_unit_square),
                "escaped unit square under {dist:?}"
            );
        }
    }

    #[test]
    fn california_is_more_clustered_than_uniform() {
        // Compare mean nearest-neighbor distances: clustering shrinks them.
        let nn_mean = |pts: &[Point]| {
            let idx = crate::grid::GridIndex::build(pts, 0.01);
            let mut total = 0.0;
            let mut counted = 0usize;
            let mut buf = Vec::new();
            for i in 0..pts.len() as u32 {
                idx.neighbors_within(i, 0.05, &mut buf);
                if let Some(min) = buf.iter().map(|&(_, d)| d).min_by(f64::total_cmp) {
                    total += min.sqrt();
                    counted += 1;
                }
            }
            total / counted.max(1) as f64
        };
        let uni = DatasetSpec::small_uniform(5000, 3).generate();
        let cal = DatasetSpec {
            n: 5000,
            seed: 3,
            distribution: SpatialDistribution::california(),
        }
        .generate();
        assert!(
            nn_mean(&cal) < nn_mean(&uni) * 0.8,
            "california-like mixture should be markedly denser locally"
        );
    }

    #[test]
    fn rush_hour_is_extremely_skewed() {
        // With 80% of mass in 4 tight hotspots, a small neighborhood around
        // the densest point must hold far more than its uniform share.
        let pts = DatasetSpec {
            n: 4000,
            seed: 9,
            distribution: SpatialDistribution::rush_hour(),
        }
        .generate();
        let idx = crate::grid::GridIndex::build(&pts, 0.05);
        let mut buf = Vec::new();
        let max_local = (0..pts.len() as u32)
            .map(|i| {
                idx.neighbors_within(i, 0.05, &mut buf);
                buf.len()
            })
            .max()
            .unwrap();
        // Uniform expectation within r=0.05 of a point: n * πr² ≈ 31.
        assert!(
            max_local > 300,
            "rush-hour core should be crowded, saw max {max_local} neighbors"
        );
    }

    #[test]
    fn zero_background_still_generates() {
        let pts = DatasetSpec {
            n: 500,
            seed: 5,
            distribution: SpatialDistribution::CaliforniaLike { background: 0.0 },
        }
        .generate();
        assert_eq!(pts.len(), 500);
    }
}
