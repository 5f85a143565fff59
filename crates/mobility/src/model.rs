//! Seeded mobility models.
//!
//! The paper evaluates a static population snapshot; this module supplies
//! the motion side of the continuous extension. Three standard models from
//! the ad-hoc-network literature, mixed per user:
//!
//! - **Random waypoint** — pick a uniform destination and a uniform speed,
//!   travel in a straight line, repeat on arrival. The classic baseline.
//! - **Gauss–Markov** — a velocity process with tunable memory `α`:
//!   `v' = α·v + (1−α)·μ + σ·√(1−α²)·z`, giving smooth, temporally
//!   correlated motion without random-waypoint's sharp turns. Users reflect
//!   off the unit-square walls.
//! - **Stationary** — a fraction of users never moves (parked devices),
//!   which keeps per-tick move fractions realistic and gives the
//!   incremental WPG maintenance its locality.
//!
//! All randomness flows from `cfg.seed`, exactly like `nela_geo::dataset` —
//! every trajectory is reproducible per seed. The model *assignment* and the
//! per-tick *stepping* draw from separate derived streams (`seed ^ tag`), so
//! changing the mixture fractions (which changes how many draws assignment
//! consumes) never reshuffles the motion noise of users that kept their
//! model.

use nela_geo::{standard_normal, Point, UserId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Mixture weights and model parameters for a mobile population.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Fraction of users that never move.
    pub stationary_frac: f64,
    /// Fraction of users following random waypoint (the rest, after the
    /// stationary share, follow Gauss–Markov).
    pub waypoint_frac: f64,
    /// Waypoint speed range, in unit-square lengths per tick.
    pub speed_min: f64,
    pub speed_max: f64,
    /// Gauss–Markov memory `α` in `[0, 1)`: 0 = memoryless, →1 = inertial.
    pub gm_alpha: f64,
    /// Gauss–Markov mean speed per tick (per axis magnitude scale).
    pub gm_mean_speed: f64,
    /// Gauss–Markov per-axis velocity noise σ.
    pub gm_sigma: f64,
    /// Seed for the population's motion stream.
    pub seed: u64,
}

impl Default for MobilityConfig {
    /// A mix matched to the paper's pedestrian scenario: half the devices
    /// parked, speeds on the order of the radio range δ per tick.
    fn default() -> Self {
        MobilityConfig {
            stationary_frac: 0.5,
            waypoint_frac: 0.3,
            speed_min: 5e-4,
            speed_max: 4e-3,
            gm_alpha: 0.85,
            gm_mean_speed: 1e-3,
            gm_sigma: 5e-4,
            seed: 0x6d_6f_62, // "mob"
        }
    }
}

impl MobilityConfig {
    /// The default mix with a different stationary fraction; the mobile
    /// remainder keeps the default waypoint : Gauss–Markov ratio (3 : 2).
    pub fn with_stationary(frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "stationary fraction must be a probability"
        );
        let base = Self::default();
        let waypoint_share = base.waypoint_frac / (1.0 - base.stationary_frac);
        MobilityConfig {
            stationary_frac: frac,
            waypoint_frac: (1.0 - frac) * waypoint_share,
            ..base
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.stationary_frac)
                && (0.0..=1.0).contains(&self.waypoint_frac)
                && self.stationary_frac + self.waypoint_frac <= 1.0 + 1e-12,
            "mixture fractions must be probabilities summing to at most 1"
        );
        assert!(
            self.speed_min > 0.0 && self.speed_min <= self.speed_max,
            "waypoint speed range must be positive and ordered"
        );
        assert!(
            (0.0..1.0).contains(&self.gm_alpha),
            "Gauss–Markov α must be in [0, 1)"
        );
    }
}

/// Stream tag for the one-time model assignment.
const ASSIGN_STREAM: u64 = 0x4153_5349_474e; // "ASSIGN"
/// Stream tag for per-tick motion draws.
const STEP_STREAM: u64 = 0x5354_4550; // "STEP"

/// Motion state of one mobile user.
#[derive(Debug, Clone)]
enum Motion {
    Waypoint { target: Point, speed: f64 },
    GaussMarkov { vx: f64, vy: f64 },
}

/// The motion state of an entire population, stepped one tick at a time.
#[derive(Debug, Clone)]
pub struct MobilityField {
    /// Users under the field.
    n: usize,
    /// The mobile users, ascending by id, with their motion state; the
    /// stationary users hold none.
    mobile: Vec<(UserId, Motion)>,
    rng: ChaCha8Rng,
    gm_alpha: f64,
    gm_mean_speed: f64,
    gm_sigma: f64,
    speed_min: f64,
    speed_max: f64,
}

impl MobilityField {
    /// Assigns a motion model to each of `n` users according to `cfg`. The
    /// assignment and all future steps are functions of `cfg.seed` alone.
    pub fn new(n: usize, cfg: &MobilityConfig) -> Self {
        cfg.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ASSIGN_STREAM);
        let mut mobile = Vec::new();
        for id in 0..n as UserId {
            let roll: f64 = rng.gen();
            let motion = if roll < cfg.stationary_frac {
                continue;
            } else if roll < cfg.stationary_frac + cfg.waypoint_frac {
                Motion::Waypoint {
                    target: Point::new(rng.gen(), rng.gen()),
                    speed: rng.gen_range(cfg.speed_min..=cfg.speed_max),
                }
            } else {
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                Motion::GaussMarkov {
                    vx: cfg.gm_mean_speed * angle.cos(),
                    vy: cfg.gm_mean_speed * angle.sin(),
                }
            };
            mobile.push((id, motion));
        }
        MobilityField {
            n,
            mobile,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ STEP_STREAM),
            gm_alpha: cfg.gm_alpha,
            gm_mean_speed: cfg.gm_mean_speed,
            gm_sigma: cfg.gm_sigma,
            speed_min: cfg.speed_min,
            speed_max: cfg.speed_max,
        }
    }

    /// Number of users under this field.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the field drives no users.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of users that can ever move (non-stationary).
    pub fn mobile_users(&self) -> usize {
        self.mobile.len()
    }

    /// Advances every mobile user one tick from `positions`, returning the
    /// moves as `(id, new position)` in ascending id order — the exact
    /// input shape of `IncrementalWpg::apply_moves`. Only the mobile users
    /// are walked; stationary users are omitted.
    pub fn step(&mut self, positions: &[Point]) -> Vec<(UserId, Point)> {
        assert_eq!(positions.len(), self.n, "population mismatch");
        let mut moves = Vec::with_capacity(self.mobile.len());
        for (id, motion) in &mut self.mobile {
            let p = positions[*id as usize];
            let next = match motion {
                Motion::Waypoint { target, speed } => {
                    let d = p.dist(target);
                    if d <= *speed {
                        // Arrived: adopt the target, pick the next leg.
                        let arrived = *target;
                        *target = Point::new(self.rng.gen(), self.rng.gen());
                        *speed = self.rng.gen_range(self.speed_min..=self.speed_max);
                        arrived
                    } else {
                        let f = *speed / d;
                        Point::new(p.x + (target.x - p.x) * f, p.y + (target.y - p.y) * f)
                    }
                }
                Motion::GaussMarkov { vx, vy } => {
                    let a = self.gm_alpha;
                    let noise = self.gm_sigma * (1.0 - a * a).sqrt();
                    // Mean velocity keeps the current heading's magnitude so
                    // users drift rather than collapse to a halt.
                    let speed = (*vx * *vx + *vy * *vy).sqrt().max(1e-12);
                    let (mx, my) = (
                        self.gm_mean_speed * *vx / speed,
                        self.gm_mean_speed * *vy / speed,
                    );
                    *vx = a * *vx + (1.0 - a) * mx + noise * standard_normal(&mut self.rng);
                    *vy = a * *vy + (1.0 - a) * my + noise * standard_normal(&mut self.rng);
                    let (mut x, mut y) = (p.x + *vx, p.y + *vy);
                    // Reflect off the unit-square walls, flipping velocity.
                    if !(0.0..=1.0).contains(&x) {
                        *vx = -*vx;
                        x = x.clamp(0.0, 1.0);
                    }
                    if !(0.0..=1.0).contains(&y) {
                        *vy = -*vy;
                        y = y.clamp(0.0, 1.0);
                    }
                    Point::new(x, y)
                }
            };
            moves.push((*id, next.clamp_unit()));
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
    }

    #[test]
    fn with_stationary_rescales_the_mobile_split() {
        let cfg = MobilityConfig::with_stationary(0.9);
        cfg.validate();
        assert!((cfg.stationary_frac - 0.9).abs() < 1e-12);
        // Default mobile split is 0.3 waypoint / 0.2 Gauss–Markov (3:2).
        assert!((cfg.waypoint_frac - 0.06).abs() < 1e-12);
        // Degenerate ends stay valid probabilities.
        MobilityConfig::with_stationary(0.0).validate();
        MobilityConfig::with_stationary(1.0).validate();
    }

    #[test]
    fn stationary_users_never_move() {
        let cfg = MobilityConfig {
            stationary_frac: 1.0,
            waypoint_frac: 0.0,
            ..MobilityConfig::default()
        };
        let mut field = MobilityField::new(50, &cfg);
        assert_eq!(field.mobile_users(), 0);
        assert!(field.step(&uniform_points(50, 1)).is_empty());
    }

    #[test]
    fn steps_are_seed_deterministic() {
        let cfg = MobilityConfig::default();
        let pts = uniform_points(200, 2);
        let mut a = MobilityField::new(200, &cfg);
        let mut b = MobilityField::new(200, &cfg);
        for _ in 0..5 {
            assert_eq!(a.step(&pts), b.step(&pts));
        }
    }

    #[test]
    fn positions_stay_in_unit_square() {
        let cfg = MobilityConfig {
            stationary_frac: 0.0,
            waypoint_frac: 0.5,
            gm_mean_speed: 0.05, // fast, to provoke wall hits
            gm_sigma: 0.02,
            ..MobilityConfig::default()
        };
        let mut field = MobilityField::new(100, &cfg);
        let mut pts = uniform_points(100, 3);
        for _ in 0..200 {
            for (id, p) in field.step(&pts) {
                assert!(p.in_unit_square(), "escaped: {p:?}");
                pts[id as usize] = p;
            }
        }
    }

    #[test]
    fn waypoint_moves_toward_target_by_speed() {
        let cfg = MobilityConfig {
            stationary_frac: 0.0,
            waypoint_frac: 1.0,
            speed_min: 1e-3,
            speed_max: 1e-3,
            ..MobilityConfig::default()
        };
        let mut field = MobilityField::new(20, &cfg);
        let pts = uniform_points(20, 4);
        for (id, p) in field.step(&pts) {
            let step = pts[id as usize].dist(&p);
            assert!(step <= 1e-3 + 1e-12, "step {step} exceeds speed");
        }
    }

    #[test]
    fn mixture_fractions_roughly_respected() {
        let cfg = MobilityConfig {
            stationary_frac: 0.5,
            waypoint_frac: 0.25,
            ..MobilityConfig::default()
        };
        let field = MobilityField::new(4000, &cfg);
        let mobile = field.mobile_users() as f64 / 4000.0;
        assert!((mobile - 0.5).abs() < 0.05, "mobile fraction {mobile}");
    }

    #[test]
    #[should_panic(expected = "mixture fractions")]
    fn rejects_bad_fractions() {
        MobilityField::new(
            10,
            &MobilityConfig {
                stationary_frac: 0.8,
                waypoint_frac: 0.5,
                ..MobilityConfig::default()
            },
        );
    }
}
