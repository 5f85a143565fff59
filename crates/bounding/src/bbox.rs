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
//! The assembly is written once, in [`bounding_box`]. The caller supplies
//! the directional run as a closure, so in-memory values, the simulated
//! radio and adversarial peers all reach the same anchors, run order and
//! clamp. The assembly reads only each run's [`RunSummary`]: a caller that
//! needs the runs' transcripts keeps them from its closure.

use crate::protocol::{BoundingError, RunSummary};
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

/// The region the four directional runs assemble, and what they cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BboxOutcome {
    /// The cloaked region (clipped to the domain rectangle).
    pub rect: Rect,
    /// Total verification messages across the four runs.
    pub messages: u64,
    /// Total rounds across the four runs.
    pub rounds: usize,
}

/// Four directional progressive bounding runs, each anchored at the host's
/// own coordinate, assembled into the cloaked rectangle clipped to `domain`.
///
/// `run(dir, x0, domain_min)` performs one run: it bounds every member's
/// [`Direction::value`] from above starting at `x0`, with `domain_min` the
/// public lower end of that value's domain, and returns its
/// [`RunSummary`] or a whole [`crate::protocol::BoundingRun`]. The runs go
/// XHigh, XLow, YHigh, YLow. The assembly never looks at the members, so
/// any two runs whose participants answer identically (a lossless network
/// and local values) yield bit-identical boxes.
///
/// # Errors
/// The first run's error, unchanged; later runs are not started. An empty
/// member list surfaces as the run's [`BoundingError::EmptyCluster`], an
/// unreachable participant as its [`BoundingError::Unreachable`] — a
/// malformed cluster degrades the single request instead of aborting the
/// process.
pub fn bounding_box<R: Into<RunSummary>>(
    host: Point,
    domain: Rect,
    mut run: impl FnMut(Direction, f64, f64) -> Result<R, BoundingError>,
) -> Result<BboxOutcome, BoundingError> {
    let mut run =
        |dir: Direction, domain_min: f64| run(dir, dir.value(&host), domain_min).map(Into::into);
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::LinearPolicy;
    use crate::protocol::progressive_upper_bound;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.30, 0.40),
            Point::new(0.35, 0.42),
            Point::new(0.28, 0.47),
            Point::new(0.33, 0.38),
        ]
    }

    /// The box over in-memory values under a linear policy of `step`.
    fn local_box(pts: &[Point], host: Point, step: f64) -> Result<BboxOutcome, BoundingError> {
        bounding_box(host, Rect::UNIT, |dir, x0, domain_min| {
            let values: Vec<f64> = pts.iter().map(|p| dir.value(p)).collect();
            progressive_upper_bound(&values, x0, domain_min, &mut LinearPolicy::new(step))
        })
    }

    #[test]
    fn region_covers_every_member() {
        let pts = cluster();
        let out = local_box(&pts, pts[0], 0.01).unwrap();
        for p in &pts {
            assert!(out.rect.contains(p), "{p:?} outside {:?}", out.rect);
        }
    }

    #[test]
    fn region_contains_tight_bbox_with_bounded_slack() {
        let pts = cluster();
        let step = 0.005;
        let out = local_box(&pts, pts[0], step).unwrap();
        let tight = Rect::bounding(&pts).unwrap();
        assert!(out.rect.contains_rect(&tight));
        assert!(out.rect.width() <= tight.width() + 2.0 * step + 1e-12);
        assert!(out.rect.height() <= tight.height() + 2.0 * step + 1e-12);
    }

    #[test]
    fn region_clipped_to_domain() {
        let pts = vec![Point::new(0.99, 0.99), Point::new(0.97, 0.98)];
        let out = local_box(&pts, pts[0], 0.05).unwrap();
        assert!(out.rect.max_x <= 1.0 && out.rect.max_y <= 1.0);
        assert!(Rect::UNIT.contains_rect(&out.rect));
    }

    #[test]
    fn messages_are_summed_over_four_runs() {
        let pts = cluster();
        let out = local_box(&pts, pts[0], 0.5).unwrap();
        // Step 0.5 covers each direction in one round of 4 messages.
        assert_eq!(out.rounds, 4);
        assert_eq!(out.messages, 16);
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let err = local_box(&[], Point::new(0.5, 0.5), 0.05).unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    #[test]
    fn host_is_always_inside() {
        let pts = cluster();
        let host = pts[2];
        let out = local_box(&pts, host, 0.02).unwrap();
        assert!(out.rect.contains(&host));
    }

    #[test]
    fn runs_follow_the_direction_order_anchors_and_floors() {
        let host = Point::new(0.3, 0.6);
        let domain = Rect::new(0.1, 0.2, 0.9, 0.8);
        let mut calls = Vec::new();
        let out = bounding_box(host, domain, |dir, x0, domain_min| {
            calls.push((dir, x0, domain_min));
            progressive_upper_bound(&[x0], x0, domain_min, &mut LinearPolicy::new(0.01))
        })
        .unwrap();
        assert_eq!(
            calls,
            vec![
                (Direction::XHigh, 0.3, 0.1),
                (Direction::XLow, -0.3, -0.9),
                (Direction::YHigh, 0.6, 0.2),
                (Direction::YLow, -0.6, -0.8),
            ]
        );
        assert!(out.rect.contains(&host));

        // The first error is returned as is and stops the later runs.
        let mut started = Vec::new();
        let err = bounding_box(host, domain, |dir, x0, domain_min| {
            started.push(dir);
            if dir == Direction::XLow {
                return Err(BoundingError::Unreachable { index: 3 });
            }
            progressive_upper_bound(&[x0], x0, domain_min, &mut LinearPolicy::new(0.01))
        })
        .unwrap_err();
        assert_eq!(err, BoundingError::Unreachable { index: 3 });
        assert_eq!(started, vec![Direction::XHigh, Direction::XLow]);
    }
}
