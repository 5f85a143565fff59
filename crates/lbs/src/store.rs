//! Grid-indexed POI storage with exact spatial queries.

use crate::topk::TopK;
use nela_geo::{GridIndex, Point, Rect};
use serde::{Deserialize, Serialize};

/// One point of interest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Poi {
    /// Dense id (index into the store).
    pub id: u32,
    /// Location in the unit square.
    pub position: Point,
    /// Category tag (restaurant, gas station, …) for filtered queries.
    pub category: u16,
    /// Content size in message units (the paper's Cr: a POI's content is
    /// ~1000 bounding messages).
    pub content_units: u32,
}

/// An immutable POI dataset with a uniform-grid index.
#[derive(Debug, Clone)]
pub struct PoiStore {
    pois: Vec<Poi>,
    grid: GridIndex,
}

impl PoiStore {
    /// Builds a store over the given POIs. `grid_cell` controls the index
    /// resolution (use the typical query radius).
    pub fn new(pois: Vec<Poi>, grid_cell: f64) -> Self {
        assert!(!pois.is_empty(), "empty POI dataset");
        for (i, p) in pois.iter().enumerate() {
            assert_eq!(p.id as usize, i, "POI ids must be dense indices");
        }
        let points: Vec<Point> = pois.iter().map(|p| p.position).collect();
        PoiStore {
            grid: GridIndex::build(&points, grid_cell),
            pois,
        }
    }

    /// Builds a store where every position is a POI with uniform content
    /// size and a cycling category — the evaluation setup ("each POI
    /// represents a user standing right at its coordinates" and queries run
    /// over the same dataset).
    pub fn from_points(points: &[Point], content_units: u32) -> Self {
        let pois = points
            .iter()
            .enumerate()
            .map(|(i, &position)| Poi {
                id: i as u32,
                position,
                category: (i % 7) as u16,
                content_units,
            })
            .collect();
        PoiStore::new(pois, 5e-3)
    }

    /// Number of POIs.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// True when the store is empty (never constructible; for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// All POIs.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// POI by id.
    pub fn get(&self, id: u32) -> &Poi {
        &self.pois[id as usize]
    }

    /// Exact range query: ids of POIs inside `rect`, ascending.
    pub fn range(&self, rect: &Rect) -> Vec<u32> {
        self.grid.ids_in_rect(rect)
    }

    /// The grid index over the POI positions.
    pub(crate) fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// Bits needed to write the largest id, `len() - 1`: the number of bits
    /// the candidate radix sort orders by.
    pub(crate) fn id_bits(&self) -> u32 {
        u32::BITS - (self.pois.len() as u32 - 1).leading_zeros()
    }

    /// The k nearest POIs to `p` (ascending by distance, ties by id),
    /// via expanding-square search over the grid.
    pub fn knn(&self, p: Point, k: usize) -> Vec<u32> {
        let mut top = TopK::default();
        self.select_knn(p, k, &mut top);
        top.take_ids()
    }

    /// Distance from `p` to its k-th nearest POI.
    pub fn kth_nn_dist(&self, p: Point, k: usize) -> f64 {
        self.kth_nn_dist_sq(p, k, &mut TopK::default()).0.sqrt()
    }

    /// The squared distance from `p` to its k-th nearest POI (+∞ for
    /// k = 0), selecting into a caller-owned `top` so repeated calls reuse
    /// one buffer, plus the number of grid entries the selection read.
    pub(crate) fn kth_nn_dist_sq(&self, p: Point, k: usize, top: &mut TopK) -> (f64, usize) {
        let scanned = self.select_knn(p, k, top);
        (top.kth().map_or(f64::INFINITY, |s| s.0), scanned)
    }

    /// True when at least k POIs (all of them, for k above the store size)
    /// lie within squared distance `d_sq` of `p`, by the `dist_sq` operand
    /// order [`PoiStore::select_knn`] ranks by; plus the number of grid
    /// entries read. Then `p`'s squared k-th-NN distance is at most `d_sq`.
    ///
    /// Counts over the cells of the square of half-width √`d_sq` around `p`
    /// and stops at the row that reaches k. Every POI counted is within
    /// `d_sq`, so a POI the square's rounding leaves out can only make the
    /// answer false, never wrongly true.
    pub(crate) fn holds_within(&self, p: Point, d_sq: f64, k: usize) -> (bool, usize) {
        let k = k.min(self.pois.len());
        self.count_reaches(&square(p, d_sq.sqrt()), k, |q| q.dist_sq(&p) <= d_sq)
    }

    /// Selects the k nearest POIs to `p` into `top` and returns the number of
    /// grid entries it read.
    ///
    /// Grows a square window, one grid cell wide at first and doubling until
    /// it holds ≥ k POIs, then widens it once more to the half-diagonal —
    /// POIs within Chebyshev distance `half` lie within Euclidean `half·√2`,
    /// so no closer POI outside the square is missed — and ranks that cover
    /// exactly. Where the growth starts changes only how much is read: the
    /// cover holds every POI within the k-th distance, and the ranking is a
    /// total order, so the selection, and the k-th distance with it, is the
    /// same from any start. The windows are not clipped to the unit square:
    /// clipping changes no in-square answer (every POI lies in the square),
    /// and an unclipped window stays a valid rectangle for a query point
    /// outside it. Growth stops once the window spans the whole square from
    /// `p`, where it already holds every POI.
    fn select_knn(&self, p: Point, k: usize, top: &mut TopK) -> usize {
        let k = k.min(self.pois.len());
        top.reset(k);
        let reach =
            p.x.abs()
                .max((1.0 - p.x).abs())
                .max(p.y.abs())
                .max((1.0 - p.y).abs());
        let mut scanned = 0;
        let mut half = self.grid.cell_side() / 2.0;
        while half < reach {
            let window = square(p, half);
            let (holds, read) = self.count_reaches(&window, k, |q| window.contains(&q));
            scanned += read;
            if holds {
                break;
            }
            half *= 2.0;
        }
        let cover = square(p, half * std::f64::consts::SQRT_2);
        for (ids, xs, ys) in self.grid.rect_cells(&cover) {
            scanned += ids.len();
            for ((&id, &x), &y) in ids.iter().zip(xs).zip(ys) {
                let q = Point::new(x, y);
                let d_sq = q.dist_sq(&p);
                if top.admits(d_sq) && cover.contains(&q) {
                    top.offer(d_sq, id);
                }
            }
        }
        scanned
    }

    /// True when at least `k` POIs of the cells `window` overlaps pass
    /// `counts`, plus the number of grid entries read to find out; stops
    /// counting at the row that reaches `k`.
    fn count_reaches(
        &self,
        window: &Rect,
        k: usize,
        counts: impl Fn(Point) -> bool,
    ) -> (bool, usize) {
        let (mut n, mut read) = (0, 0);
        for (_, xs, ys) in self.grid.rect_cells(window) {
            if n >= k {
                break;
            }
            read += xs.len();
            n += xs
                .iter()
                .zip(ys)
                .filter(|&(&x, &y)| counts(Point::new(x, y)))
                .count();
        }
        (n >= k, read)
    }

    /// Total content units of the given POIs — the transfer cost of
    /// returning them.
    pub fn transfer_units(&self, ids: &[u32]) -> u64 {
        ids.iter()
            .map(|&id| self.pois[id as usize].content_units as u64)
            .sum()
    }
}

/// The square of half-width `half` around `p`. A struct literal rather than
/// `Rect::new`: a NaN query point then gives a window that contains nothing
/// instead of tripping the inverted-rectangle assertion.
fn square(p: Point, half: f64) -> Rect {
    Rect {
        min_x: p.x - half,
        min_y: p.y - half,
        max_x: p.x + half,
        max_y: p.y + half,
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

    #[test]
    fn range_matches_linear_scan() {
        let s = store(500, 1);
        for rect in [
            Rect::new(0.1, 0.1, 0.3, 0.25),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.45, 0.45, 0.46, 0.46),
        ] {
            let got = s.range(&rect);
            let expect: Vec<u32> = (0..s.len() as u32)
                .filter(|&i| rect.contains(&s.get(i).position))
                .collect();
            assert_eq!(got, expect, "rect {rect:?}");
        }
    }

    #[test]
    fn knn_is_sorted_and_correct() {
        let s = store(300, 2);
        let q = Point::new(0.5, 0.5);
        let ids = s.knn(q, 10);
        assert_eq!(ids.len(), 10);
        let mut dists: Vec<f64> = ids.iter().map(|&id| s.get(id).position.dist(&q)).collect();
        let sorted = dists.clone();
        dists.sort_by(f64::total_cmp);
        assert_eq!(dists, sorted, "ascending by distance");
        // The 10th distance bounds every non-member.
        let kth = dists[9];
        for i in 0..s.len() as u32 {
            if !ids.contains(&i) {
                assert!(s.get(i).position.dist(&q) >= kth - 1e-15);
            }
        }
    }

    #[test]
    fn transfer_units_sum_contents() {
        let s = store(10, 4);
        assert_eq!(s.transfer_units(&[0, 1, 2]), 3000);
        assert_eq!(s.transfer_units(&[]), 0);
    }

    #[test]
    fn kth_nn_dist_matches_knn() {
        let s = store(100, 5);
        let q = Point::new(0.4, 0.6);
        let ids = s.knn(q, 5);
        let expect = s.get(*ids.last().unwrap()).position.dist(&q);
        assert_eq!(s.kth_nn_dist(q, 5), expect);
    }

    #[test]
    fn holds_within_counts_a_poi_at_exactly_the_bound() {
        // Dyadic offsets: the squared distances are exact.
        let at = Point::new(0.5, 0.5);
        let points = [
            Point::new(0.5 + 1.0 / 16.0, 0.5),
            Point::new(0.5, 0.5 + 1.0 / 32.0),
            Point::new(0.9, 0.1),
        ];
        let s = PoiStore::from_points(&points, 1);
        let bound = 1.0 / 256.0;
        assert!(s.holds_within(at, bound, 2).0);
        let below = f64::from_bits(bound.to_bits() - 1);
        assert!(!s.holds_within(at, below, 2).0);
        // k above the store size needs every POI.
        assert!(!s.holds_within(at, bound, 5).0);
        assert!(s.holds_within(at, 1.0, 5).0);
    }

    #[test]
    #[should_panic(expected = "dense indices")]
    fn rejects_non_dense_ids() {
        let poi = Poi {
            id: 5,
            position: Point::new(0.1, 0.1),
            category: 0,
            content_units: 1,
        };
        PoiStore::new(vec![poi], 0.01);
    }
}
