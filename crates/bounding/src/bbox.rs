//! The 2-D cloaked rectangle from four directional 1-D secure bounds.
//!
//! The paper presents the protocol for a scalar attribute ξ and notes the
//! identifier is "without loss of generality" scalar (§V). A rectangular
//! cloaked region needs four scalar bounds: upper bounds on `x` and `y`, and
//! lower bounds obtained by upper-bounding the *negated* coordinates. Each
//! directional run starts from the host's own coordinate — the region must
//! cover the host anyway, so this anchor reveals nothing beyond the final
//! region itself.
//!
//! The assembly is written once, over a [`DirectionalTransport`] that hands
//! out one [`VerifyTransport`] per run: [`LocalDirections`] asks in-memory
//! values, and `nela-netsim`'s `SimDirections` asks peers over the simulated
//! radio.

use crate::protocol::{
    progressive_upper_bound_with, BoundingError, BoundingRun, IncrementPolicy, LocalValues,
    VerifyTransport,
};
use nela_geo::{Point, Rect};

/// One of the four directional runs of a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Upper bound on `x`.
    XHigh,
    /// Upper bound on `-x` (the region's lower `x` edge).
    XLow,
    /// Upper bound on `y`.
    YHigh,
    /// Upper bound on `-y` (the region's lower `y` edge).
    YLow,
}

impl Direction {
    /// The scalar this run bounds from above: a coordinate of `p`, negated
    /// for the low runs.
    pub fn value(self, p: &Point) -> f64 {
        match self {
            Direction::XHigh => p.x,
            Direction::XLow => -p.x,
            Direction::YHigh => p.y,
            Direction::YLow => -p.y,
        }
    }
}

/// Carries the verification questions of the four directional runs: one
/// [`VerifyTransport`] per run, whose participant `i` answers about
/// member `i`'s [`Direction::value`].
pub trait DirectionalTransport {
    /// The transport of one run; it may borrow the carrier mutably (a
    /// network), so runs are handed out one at a time.
    type Run<'r>: VerifyTransport
    where
        Self: 'r;

    /// The transport asking every member about `dir`'s value.
    fn run(&mut self, dir: Direction) -> Self::Run<'_>;
}

/// In-memory [`DirectionalTransport`]: each run is a [`LocalValues`] over
/// the members' coordinates (one reused value buffer for all four runs).
pub struct LocalDirections<'a> {
    points: &'a [Point],
    values: Vec<f64>,
}

impl<'a> LocalDirections<'a> {
    /// Wraps the members' positions.
    pub fn new(points: &'a [Point]) -> Self {
        LocalDirections {
            points,
            values: Vec::with_capacity(points.len()),
        }
    }
}

impl DirectionalTransport for LocalDirections<'_> {
    type Run<'r>
        = LocalValues<'r>
    where
        Self: 'r;

    fn run(&mut self, dir: Direction) -> LocalValues<'_> {
        self.values.clear();
        self.values.extend(self.points.iter().map(|p| dir.value(p)));
        LocalValues::new(&self.values)
    }
}

/// The four directional runs and the assembled region.
#[derive(Debug, Clone)]
pub struct BboxOutcome {
    /// The cloaked region (clipped to the domain rectangle).
    pub rect: Rect,
    /// Total verification messages across the four runs.
    pub messages: u64,
    /// Total rounds across the four runs.
    pub rounds: usize,
    /// The individual runs: `[x-high, x-low, y-high, y-low]` (the low runs
    /// operate on negated coordinates).
    pub runs: [BoundingRun; 4],
}

/// Runs secure bounding in all four directions over the cluster members'
/// `points`, anchored at the host's own position, and assembles the cloaked
/// rectangle. `policy_factory` builds a fresh increment policy per direction
/// (policies may carry per-run state).
///
/// # Errors
/// As [`bounding_box`].
pub fn secure_bounding_box(
    points: &[Point],
    host: Point,
    domain: Rect,
    policy_factory: impl FnMut() -> Box<dyn IncrementPolicy>,
) -> Result<BboxOutcome, BoundingError> {
    bounding_box(
        &mut LocalDirections::new(points),
        host,
        domain,
        policy_factory,
    )
}

/// Four directional progressive bounding runs over `transports`, each
/// anchored at the host's own coordinate, assembled into the cloaked
/// rectangle clipped to `domain`. The assembly is transport-independent,
/// so any two transports whose participants answer identically (a lossless
/// network and local values) yield bit-identical boxes.
///
/// # Errors
/// [`BoundingError::EmptyCluster`] on an empty member list, plus any failure
/// of the four directional runs (an unreachable participant included) — a
/// malformed cluster degrades the single request instead of aborting the
/// process.
pub fn bounding_box<D: DirectionalTransport>(
    transports: &mut D,
    host: Point,
    domain: Rect,
    mut policy_factory: impl FnMut() -> Box<dyn IncrementPolicy>,
) -> Result<BboxOutcome, BoundingError> {
    let mut run = |dir: Direction, domain_min: f64| {
        progressive_upper_bound_with(
            &mut transports.run(dir),
            dir.value(&host),
            domain_min,
            &mut *policy_factory(),
        )
    };
    let x_hi = run(Direction::XHigh, domain.min_x)?;
    let x_lo = run(Direction::XLow, -domain.max_x)?;
    let y_hi = run(Direction::YHigh, domain.min_y)?;
    let y_lo = run(Direction::YLow, -domain.max_y)?;

    let rect = Rect::new(
        (-x_lo.bound).clamp(domain.min_x, domain.max_x),
        (-y_lo.bound).clamp(domain.min_y, domain.max_y),
        x_hi.bound.clamp(domain.min_x, domain.max_x),
        y_hi.bound.clamp(domain.min_y, domain.max_y),
    );
    let messages = x_hi.messages + x_lo.messages + y_hi.messages + y_lo.messages;
    let rounds = x_hi.rounds + x_lo.rounds + y_hi.rounds + y_lo.rounds;
    Ok(BboxOutcome {
        rect,
        messages,
        rounds,
        runs: [x_hi, x_lo, y_hi, y_lo],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::LinearPolicy;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.30, 0.40),
            Point::new(0.35, 0.42),
            Point::new(0.28, 0.47),
            Point::new(0.33, 0.38),
        ]
    }

    #[test]
    fn region_covers_every_member() {
        let pts = cluster();
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.01))
        })
        .unwrap();
        for p in &pts {
            assert!(out.rect.contains(p), "{p:?} outside {:?}", out.rect);
        }
    }

    #[test]
    fn region_contains_tight_bbox_with_bounded_slack() {
        let pts = cluster();
        let step = 0.005;
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(step))
        })
        .unwrap();
        let tight = Rect::bounding(&pts).unwrap();
        assert!(out.rect.contains_rect(&tight));
        assert!(out.rect.width() <= tight.width() + 2.0 * step + 1e-12);
        assert!(out.rect.height() <= tight.height() + 2.0 * step + 1e-12);
    }

    #[test]
    fn region_clipped_to_domain() {
        let pts = vec![Point::new(0.99, 0.99), Point::new(0.97, 0.98)];
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.05))
        })
        .unwrap();
        assert!(out.rect.max_x <= 1.0 && out.rect.max_y <= 1.0);
        assert!(Rect::UNIT.contains_rect(&out.rect));
    }

    #[test]
    fn messages_are_summed_over_four_runs() {
        let pts = cluster();
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.5))
        })
        .unwrap();
        // Step 0.5 covers each direction in one round of 4 messages.
        assert_eq!(out.rounds, 4);
        assert_eq!(out.messages, 16);
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let err = secure_bounding_box(&[], Point::new(0.5, 0.5), Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.05))
        })
        .unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    #[test]
    fn host_is_always_inside() {
        let pts = cluster();
        let host = pts[2];
        let out = secure_bounding_box(&pts, host, Rect::UNIT, || Box::new(LinearPolicy::new(0.02)))
            .unwrap();
        assert!(out.rect.contains(&host));
    }
}
