//! Cloaked-region query processing and client-side refinement.
//!
//! The server receives only a cloaked rectangle and must return a candidate
//! set that is a superset of the exact answer for *any* possible user
//! position inside the rectangle (Casper-style processing, paper \[3\]). The
//! client — who alone knows the true position — refines locally.

use crate::store::PoiStore;
use crate::topk::TopK;
use nela_geo::{Point, Rect};
use std::cell::RefCell;

/// Server-side range query over a cloaked region: a user anywhere in
/// `region` asking for POIs within `radius` of itself is answered by the
/// POIs within `radius` of the *region* (its Minkowski expansion) — the
/// minimal position-oblivious superset for this query class.
///
/// # Panics
/// Panics if `radius` is negative or NaN. [`LbsServer::handle`], which
/// takes its query from a client, answers such a radius with no candidates
/// instead.
///
/// [`LbsServer::handle`]: crate::LbsServer::handle
pub fn cloaked_range(store: &PoiStore, region: &Rect, radius: f64) -> Vec<u32> {
    assert!(radius >= 0.0, "radius must be non-negative");
    range_query(store, region, radius).0
}

/// [`cloaked_range`] for a non-negative `radius`, plus the number of grid
/// entries the kernel read.
pub(crate) fn range_query(store: &PoiStore, region: &Rect, radius: f64) -> (Vec<u32>, usize) {
    let _span = nela_obs::span(nela_obs::stage::LBS_RANGE);
    SCRATCH.with(|s| range_candidates(store, region, radius, &mut s.borrow_mut()))
}

/// Server-side k-range-nearest-neighbor (kRNN) query: a candidate set
/// guaranteed to contain the k nearest POIs of every point in `region`.
///
/// Bound: let `d_max` be the largest k-th-NN distance over the region's four
/// corners. For any point p in the region and its nearest corner c,
/// `|pc| ≤ diag(region)`, so p's k-th NN lies within `|pc| + kth(c) ≤ diag +
/// d_max`. All POIs within that distance of the region are returned — a
/// correct, conservative superset (the classic corner bound).
///
/// # Panics
/// Panics if `k` is 0. [`LbsServer::handle`], which takes its query from a
/// client, answers k = 0 with no candidates instead.
///
/// [`LbsServer::handle`]: crate::LbsServer::handle
pub fn cloaked_krnn(store: &PoiStore, region: &Rect, k: usize) -> Vec<u32> {
    assert!(k >= 1, "k must be positive");
    krnn_query(store, region, k).0
}

/// [`cloaked_krnn`] for a positive `k`, plus the number of grid entries
/// the kernel read: the corners' counts and windows, then the range rows.
///
/// Only the largest corner distance matters, so only a corner that could
/// raise it is resolved exactly. The first corner is; `bound` keeps the
/// largest squared k-th distance so far. A later corner with k POIs within
/// `bound` ([`PoiStore::holds_within`]) has its squared k-th distance
/// within `bound` too and is skipped; any other is resolved and may raise
/// `bound`. A count that comes out low only costs the exact selection.
/// `sqrt` is monotone, so `sqrt(bound)` is the largest of the corners'
/// roots, bit for bit.
pub(crate) fn krnn_query(store: &PoiStore, region: &Rect, k: usize) -> (Vec<u32>, usize) {
    let _span = nela_obs::span(nela_obs::stage::LBS_KRNN);
    let corners = [
        Point::new(region.min_x, region.min_y),
        Point::new(region.min_x, region.max_y),
        Point::new(region.max_x, region.min_y),
        Point::new(region.max_x, region.max_y),
    ];
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        // One selection buffer serves all four corners.
        let (mut bound, mut scanned) = (0.0f64, 0);
        for (i, &c) in corners.iter().enumerate() {
            if i > 0 {
                let (covered, read) = store.holds_within(c, bound, k);
                scanned += read;
                if covered {
                    continue;
                }
            }
            let (d_sq, read) = store.kth_nn_dist_sq(c, k, &mut s.top);
            bound = bound.max(d_sq);
            scanned += read;
        }
        let diag = region.width().hypot(region.height());
        let (candidates, read) = range_candidates(store, region, bound.sqrt() + diag, s);
        (candidates, scanned + read)
    })
}

thread_local! {
    /// The kernel's buffers, kept per thread and reused by every query on
    /// it, so a warm query allocates only the candidate list it returns.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    /// The range scan's survivors, compacted in scan order.
    survivors: Vec<u32>,
    /// The radix sort's second buffer.
    spare: Vec<u32>,
    /// The top-k selection of the kRNN corners and of [`refine_knn`].
    top: TopK,
}

/// The body of [`range_query`], without its span, so [`krnn_query`]
/// records one kRNN sample and no range sample. Returns the candidates and
/// the number of grid entries read.
///
/// One pass over the grid rows the expanded region overlaps applies the
/// rectangle pre-filter and then the exact distance-to-rectangle test
/// ([`WithinRadius`]), so the candidate set is tight for the query
/// semantics. Every entry is written to the survivor buffer and the write
/// position advances only past the kept ones, so no write branches on the
/// predicate. The survivors are then put in id order
/// ([`sort_ids`]) and copied once into the returned `Vec`, its only
/// allocation. The expansion is not clipped to the unit square: clipping
/// changes no answer (every POI lies in the square), and the unclipped
/// rectangle stays valid for a region outside it.
fn range_candidates(
    store: &PoiStore,
    region: &Rect,
    radius: f64,
    s: &mut Scratch,
) -> (Vec<u32>, usize) {
    let expanded = Rect::new(
        region.min_x - radius,
        region.min_y - radius,
        region.max_x + radius,
        region.max_y + radius,
    );
    let within = WithinRadius::new(radius);
    let (mut n, mut scanned) = (0, 0);
    for (ids, xs, ys) in store.grid().rect_cells(&expanded) {
        scanned += ids.len();
        if s.survivors.len() < n + ids.len() {
            s.survivors.resize(n + ids.len(), 0);
        }
        let out = &mut s.survivors[n..n + ids.len()];
        let mut kept = 0;
        for ((&id, &x), &y) in ids.iter().zip(xs).zip(ys) {
            let p = Point::new(x, y);
            out[kept] = id;
            kept += usize::from(expanded.contains(&p) && within.of_rect(p, region));
        }
        n += kept;
    }
    let sorted = sort_ids(&mut s.survivors[..n], &mut s.spare, store.id_bits());
    (sorted.to_vec(), scanned)
}

/// Bits of the id one radix pass orders by: 512 buckets, so two passes
/// cover ids below 2¹⁸.
const DIGIT_BITS: u32 = 9;

/// Sorts `ids`, each below 2^`bits`, ascending by an LSD radix sort of
/// ⌈bits / 9⌉ counting passes that alternate between `ids` and `spare`.
/// Returns the sorted run — in `ids` after an even number of passes, in
/// `spare` after an odd one.
fn sort_ids<'a>(ids: &'a mut [u32], spare: &'a mut Vec<u32>, bits: u32) -> &'a [u32] {
    if spare.len() < ids.len() {
        spare.resize(ids.len(), 0);
    }
    let len = ids.len();
    let (mut src, mut dst) = (ids, &mut spare[..len]);
    let mut starts = [0u32; 1 << DIGIT_BITS];
    let mut shift = 0;
    while shift < bits {
        let width = (bits - shift).min(DIGIT_BITS);
        let mask = (1u32 << width) - 1;
        let starts = &mut starts[..1 << width];
        starts.fill(0);
        for &id in src.iter() {
            starts[((id >> shift) & mask) as usize] += 1;
        }
        let mut at = 0;
        for slot in starts.iter_mut() {
            let count = *slot;
            *slot = at;
            at += count;
        }
        for &id in src.iter() {
            let digit = ((id >> shift) & mask) as usize;
            dst[starts[digit] as usize] = id;
            starts[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        shift += width;
    }
    src
}

/// Client-side refinement of a range candidate set: keep candidates within
/// `radius` of the true position.
pub fn refine_range(
    store: &PoiStore,
    candidates: &[u32],
    position: Point,
    radius: f64,
) -> Vec<u32> {
    let _span = nela_obs::span(nela_obs::stage::LBS_REFINE);
    // Every candidate is written and the write position advances only past
    // the kept ones, as in the server's scan: no branch on the predicate,
    // and one buffer sized to the candidates instead of a regrown one.
    let mut kept = vec![0; candidates.len()];
    let mut n = 0;
    for &id in candidates {
        kept[n] = id;
        n += usize::from(store.get(id).position.dist(&position) <= radius);
    }
    kept.truncate(n);
    kept
}

/// Client-side refinement of a kRNN candidate set: the exact k nearest
/// among the candidates (ascending by distance, ties by id).
///
/// Selects in the thread's kernel `TopK`, whose buffer the kRNN corners
/// already grew, so once it is warm a call allocates only the list it
/// returns.
pub fn refine_knn(store: &PoiStore, candidates: &[u32], position: Point, k: usize) -> Vec<u32> {
    let _span = nela_obs::span(nela_obs::stage::LBS_REFINE);
    SCRATCH.with(|s| {
        let top = &mut s.borrow_mut().top;
        top.reset(k);
        for &id in candidates {
            top.offer(store.get(id).position.dist_sq(&position), id);
        }
        top.take_ids()
    })
}

/// Relative half-width of the band around `radius²` inside which
/// [`WithinRadius`] defers to `hypot`. The squared offset `dx² + dy²` is
/// within 2 ulps of its exact value and `radius²` within 1, and a libm
/// `hypot` is within a few ulps of the exact distance. Outside a band of
/// 10⁻¹² (about 4500 ulps) the exact distance, and with it `hypot`'s result,
/// is therefore on the same side of `radius` as the squared comparison says.
const HYPOT_BAND: f64 = 1e-12;

/// The range predicate `hypot(dx, dy) <= radius`, where `(dx, dy)` is a
/// point's offset from a rectangle (zero inside it), decided without the
/// libm call wherever the squared offset settles it.
///
/// `hypot` costs about 20 ns a call; most scanned points lie far enough
/// inside or outside the radius that `dx² + dy²` against `radius²` gives the
/// same answer, so only points within [`HYPOT_BAND`] of the boundary — and
/// every point when `radius²` is too small or too large for the error bound
/// (no band) — reach `hypot`. The answer is bit-for-bit the `hypot`
/// comparison's.
struct WithinRadius {
    radius: f64,
    /// Squared offsets below this are within the radius.
    accept_below: f64,
    /// Squared offsets above this are outside it.
    reject_above: f64,
}

impl WithinRadius {
    /// The test for a non-negative `radius` (every caller guarantees it:
    /// `cloaked_range` asserts it, `handle` answers any other radius
    /// without a scan, and a kRNN radius is a sum of distances).
    fn new(radius: f64) -> Self {
        let r_sq = radius * radius;
        let (accept_below, reject_above) = if (1e-300..=1e300).contains(&r_sq) {
            (r_sq * (1.0 - HYPOT_BAND), r_sq * (1.0 + HYPOT_BAND))
        } else {
            (0.0, f64::INFINITY)
        };
        WithinRadius {
            radius,
            accept_below,
            reject_above,
        }
    }

    /// True when `p` lies within the radius of `r`.
    #[inline]
    fn of_rect(&self, p: Point, r: &Rect) -> bool {
        let dx = (r.min_x - p.x).max(0.0).max(p.x - r.max_x);
        let dy = (r.min_y - p.y).max(0.0).max(p.y - r.max_y);
        let d_sq = dx * dx + dy * dy;
        if d_sq < self.accept_below {
            true
        } else if d_sq > self.reject_above {
            false
        } else {
            dx.hypot(dy) <= self.radius
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn store(n: usize, seed: u64) -> PoiStore {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        PoiStore::from_points(&points, 1000)
    }

    fn random_inner_points(region: &Rect, n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    region.min_x + rng.gen::<f64>() * region.width(),
                    region.min_y + rng.gen::<f64>() * region.height(),
                )
            })
            .collect()
    }

    #[test]
    fn cloaked_range_is_superset_for_any_inner_position() {
        let s = store(800, 1);
        let region = Rect::new(0.4, 0.4, 0.48, 0.46);
        let radius = 0.05;
        let candidates = cloaked_range(&s, &region, radius);
        for p in random_inner_points(&region, 25, 9) {
            let exact: Vec<u32> = (0..s.len() as u32)
                .filter(|&i| s.get(i).position.dist(&p) <= radius)
                .collect();
            for id in exact {
                assert!(candidates.contains(&id), "missing POI {id} for {p:?}");
            }
        }
    }

    #[test]
    fn refined_range_equals_direct_query() {
        let s = store(600, 2);
        let region = Rect::new(0.2, 0.7, 0.3, 0.78);
        let radius = 0.04;
        let candidates = cloaked_range(&s, &region, radius);
        for p in random_inner_points(&region, 10, 5) {
            let refined = refine_range(&s, &candidates, p, radius);
            let exact: Vec<u32> = (0..s.len() as u32)
                .filter(|&i| s.get(i).position.dist(&p) <= radius)
                .collect();
            assert_eq!(refined, exact);
        }
    }

    #[test]
    fn cloaked_krnn_contains_knn_of_every_inner_position() {
        let s = store(700, 3);
        let region = Rect::new(0.55, 0.3, 0.62, 0.37);
        for k in [1usize, 5, 10] {
            let candidates = cloaked_krnn(&s, &region, k);
            for p in random_inner_points(&region, 20, 11) {
                let exact = s.knn(p, k);
                for id in &exact {
                    assert!(candidates.contains(id), "k={k}: missing {id} for {p:?}");
                }
                assert_eq!(refine_knn(&s, &candidates, p, k), exact);
            }
        }
    }

    #[test]
    fn krnn_candidates_are_not_everything() {
        // The superset must stay far smaller than the dataset for a small
        // region — otherwise cloaking would be pointless.
        let s = store(2000, 4);
        let region = Rect::new(0.5, 0.5, 0.52, 0.52);
        let candidates = cloaked_krnn(&s, &region, 5);
        assert!(
            candidates.len() < s.len() / 4,
            "{} of {} returned",
            candidates.len(),
            s.len()
        );
    }

    #[test]
    fn within_radius_agrees_with_hypot_at_and_near_the_boundary() {
        let r = Rect::new(0.25, 0.25, 0.5, 0.5);
        let hypot_says = |p: Point, radius: f64| {
            let dx = (r.min_x - p.x).max(0.0).max(p.x - r.max_x);
            let dy = (r.min_y - p.y).max(0.0).max(p.y - r.max_y);
            dx.hypot(dy) <= radius
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for radius in [0.0, 1e-160, 1e-9, 0.02, 0.3125, 1.7] {
            let within = WithinRadius::new(radius);
            for _ in 0..2000 {
                // A point at distance radius·(1 + ε) from a random spot of
                // the boundary, with ε spanning the band and beyond.
                let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                let eps = [0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-11, -1e-11, 0.3, -0.3]
                    [rng.gen_range(0..9usize)];
                let d = radius * (1.0 + eps);
                let base = Point::new(r.max_x, 0.25 + 0.25 * rng.gen::<f64>());
                let corner = Point::new(r.max_x, r.max_y);
                for from in [base, corner] {
                    let p = Point::new(from.x + d * angle.cos().abs(), from.y + d * angle.sin());
                    assert_eq!(
                        within.of_rect(p, &r),
                        hypot_says(p, radius),
                        "{p:?} r={radius}"
                    );
                }
            }
        }
        // Exact dyadic distances: a 3-4-5 triangle off the corner, an axis
        // offset off the edge, and a point inside.
        let within = WithinRadius::new(0.3125);
        assert!(within.of_rect(Point::new(0.5 + 0.1875, 0.5 + 0.25), &r));
        assert!(within.of_rect(Point::new(0.5 + 0.3125, 0.375), &r));
        assert!(within.of_rect(Point::new(0.375, 0.375), &r));
        assert!(!within.of_rect(Point::new(0.5 + 0.3125, 0.5 + 1.0 / 1024.0), &r));
    }

    #[test]
    fn zero_radius_range_returns_pois_inside_region_only() {
        let s = store(400, 6);
        let region = Rect::new(0.1, 0.1, 0.5, 0.5);
        let got = cloaked_range(&s, &region, 0.0);
        let expect = s.range(&region);
        assert_eq!(got, expect);
    }
}
