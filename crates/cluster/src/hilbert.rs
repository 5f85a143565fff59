//! The hilbASR baseline (Ghinita et al., paper reference \[7\]) — the
//! strongest *position-exposing* prior work.
//!
//! hilbASR sorts all users along a Hilbert space-filling curve and groups
//! every k consecutive users into an anonymizing spatial region. The Hilbert
//! ordering's locality makes the groups spatially tight, and fixed-offset
//! bucketing gives the reciprocity property by construction. The catch — and
//! the motivation of the NELA paper — is that building the ordering requires
//! every user's **exact coordinates**.
//!
//! This module implements it as the privacy-vs-quality reference: what
//! cloaked-region quality is achievable *if* one gives up non-exposure. It
//! includes a from-scratch Hilbert curve (coordinates → d index) since no
//! external dependency is used.

use crate::Cluster;
use nela_geo::{Point, UserId};

/// Order of the Hilbert curve used for indexing (2^16 cells per axis —
/// ample resolution below the radio range for any realistic population).
const ORDER: u32 = 16;

/// Maps a unit-square point to its Hilbert curve index at `ORDER` (16) bits
/// per axis, using the classic rotate-and-accumulate construction.
pub fn hilbert_index(p: Point) -> u64 {
    let side = 1u32 << ORDER;
    let clamp = |v: f64| -> u32 {
        let scaled = (v.clamp(0.0, 1.0) * side as f64) as u32;
        scaled.min(side - 1)
    };
    let (mut x, mut y) = (clamp(p.x), clamp(p.y));
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s = side / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant (canonical xy2d rotation).
        if ry == 0 {
            if rx == 1 {
                x = (side - 1) - x;
                y = (side - 1) - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Partitions the whole population into clusters of k consecutive users in
/// Hilbert order (the final bucket absorbs the remainder, as in hilbASR).
/// Requires every user's exact position — the assumption NELA removes.
pub fn hilb_asr_partition(points: &[Point], k: usize) -> Vec<Cluster> {
    assert!(k >= 1, "anonymity level must be at least 1");
    let mut order: Vec<(u64, UserId)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (hilbert_index(p), i as UserId))
        .collect();
    order.sort_unstable();
    let n = points.len();
    if n < k {
        return Vec::new();
    }
    let buckets = n / k; // final bucket takes n % k extras
    let mut clusters = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let start = b * k;
        let end = if b + 1 == buckets { n } else { start + k };
        let mut members: Vec<UserId> = order[start..end].iter().map(|&(_, u)| u).collect();
        members.sort_unstable();
        clusters.push(Cluster {
            members,
            connectivity: 0, // not defined for a coordinate-based scheme
        });
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ClusterRegistry;

    #[test]
    fn hilbert_index_is_injective_on_distinct_cells() {
        let pts = [
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.1),
            Point::new(0.1, 0.9),
            Point::new(0.9, 0.9),
            Point::new(0.5, 0.5),
        ];
        let mut idx: Vec<u64> = pts.iter().map(|&p| hilbert_index(p)).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), pts.len());
    }

    #[test]
    fn hilbert_curve_is_local() {
        // Nearby points get nearby indices far more often than far points —
        // check the classic locality property statistically.
        let step = 1.0 / (1u32 << ORDER) as f64;
        let base = Point::new(0.3712, 0.6183);
        let near = Point::new(base.x + step, base.y);
        let far = Point::new(0.93, 0.08);
        let d_near = hilbert_index(base).abs_diff(hilbert_index(near));
        let d_far = hilbert_index(base).abs_diff(hilbert_index(far));
        assert!(d_near < d_far);
    }

    #[test]
    fn curve_visits_each_quadrant_contiguously_at_order_one() {
        // The four quadrant representatives must occupy the four quarters of
        // the index range in curve order.
        let q = [
            Point::new(0.25, 0.25),
            Point::new(0.25, 0.75),
            Point::new(0.75, 0.75),
            Point::new(0.75, 0.25),
        ];
        let total = 1u64 << (2 * ORDER);
        for (i, p) in q.iter().enumerate() {
            let d = hilbert_index(*p);
            let quarter = (d / (total / 4)) as usize;
            assert_eq!(quarter, i, "{p:?} landed in quarter {quarter}");
        }
    }

    #[test]
    fn partition_covers_everyone_with_buckets_of_k() {
        let pts: Vec<Point> = (0..103)
            .map(|i| Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.71) % 1.0))
            .collect();
        let clusters = hilb_asr_partition(&pts, 10);
        assert_eq!(clusters.len(), 10);
        let mut all: Vec<UserId> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<UserId>>());
        for (i, c) in clusters.iter().enumerate() {
            if i + 1 < clusters.len() {
                assert_eq!(c.len(), 10);
            } else {
                assert_eq!(c.len(), 13, "last bucket absorbs the remainder");
            }
        }
    }

    #[test]
    fn registry_reciprocity_holds() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i as f64 * 0.13) % 1.0, (i as f64 * 0.29) % 1.0))
            .collect();
        let mut registry = ClusterRegistry::new(pts.len());
        for c in hilb_asr_partition(&pts, 5) {
            registry.register(c);
        }
        assert_eq!(registry.reciprocity_violation(), None);
        assert_eq!(registry.clustered_users(), 50);
    }

    #[test]
    fn tiny_population_yields_nothing() {
        let pts = vec![Point::new(0.5, 0.5); 3];
        assert!(hilb_asr_partition(&pts, 5).is_empty());
    }

    #[test]
    fn hilbert_buckets_are_spatially_tighter_than_random_buckets() {
        // The whole point of hilbASR: curve-order groups beat arbitrary
        // groups on bounding-box area.
        let mut pts = Vec::new();
        let mut s: u64 = 99;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..400 {
            pts.push(Point::new(next(), next()));
        }
        let area_of = |members: &[UserId]| {
            let mpts: Vec<Point> = members.iter().map(|&m| pts[m as usize]).collect();
            nela_geo::Rect::bounding(&mpts).unwrap().area()
        };
        let hilb: f64 = hilb_asr_partition(&pts, 10)
            .iter()
            .map(|c| area_of(&c.members))
            .sum::<f64>()
            / 40.0;
        let random: f64 = (0..40)
            .map(|b| {
                area_of(
                    &(b * 10..(b + 1) * 10)
                        .map(|i| i as UserId)
                        .collect::<Vec<_>>(),
                )
            })
            .sum::<f64>()
            / 40.0;
        assert!(
            hilb < random / 2.0,
            "hilbert {hilb} should be far tighter than id-order {random}"
        );
    }
}
