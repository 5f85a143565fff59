//! The cloaked-query kernel against the collect-sort-filter algorithms it
//! replaced, copied into [`oracle`] unchanged. Over uniform, California-like
//! and duplicate-heavy stores, `handle` must return bit-identical candidates
//! and transfer units, and `knn` / `refine_knn` the same ids in the same
//! order (ties included). Queries outside the unit square, which the old
//! code could not answer, are checked against linear scans instead.

use nela_geo::{DatasetSpec, GridIndex, Point, Rect, SpatialDistribution};
use nela_lbs::query::refine_knn;
use nela_lbs::{CloakedQuery, LbsServer, Poi, PoiStore};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The original algorithms. `ids_in_rect` / `count_in_rect` are linear
/// scans: the grid versions returned exactly the ascending ids of the
/// points the rectangle contains.
mod oracle {
    use super::*;

    pub fn ids_in_rect(store: &PoiStore, rect: &Rect) -> Vec<u32> {
        (0..store.len() as u32)
            .filter(|&i| rect.contains(&store.get(i).position))
            .collect()
    }

    pub fn count_in_rect(store: &PoiStore, rect: &Rect) -> usize {
        ids_in_rect(store, rect).len()
    }

    pub fn knn(store: &PoiStore, p: Point, k: usize) -> Vec<u32> {
        let k = k.min(store.len());
        let mut half = 0.01f64;
        loop {
            let window = Rect::new(
                (p.x - half).max(0.0),
                (p.y - half).max(0.0),
                (p.x + half).min(1.0),
                (p.y + half).min(1.0),
            );
            if count_in_rect(store, &window) >= k || half >= 2.0 {
                break;
            }
            half *= 2.0;
        }
        let cover = half * std::f64::consts::SQRT_2;
        let window = Rect::new(
            (p.x - cover).max(0.0),
            (p.y - cover).max(0.0),
            (p.x + cover).min(1.0),
            (p.y + cover).min(1.0),
        );
        let mut scored: Vec<(f64, u32)> = ids_in_rect(store, &window)
            .into_iter()
            .map(|id| (store.get(id).position.dist_sq(&p), id))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    pub fn kth_nn_dist(store: &PoiStore, p: Point, k: usize) -> f64 {
        let ids = knn(store, p, k);
        ids.last()
            .map(|&id| store.get(id).position.dist(&p))
            .unwrap_or(f64::INFINITY)
    }

    pub fn dist_to_rect(p: Point, r: &Rect) -> f64 {
        let dx = (r.min_x - p.x).max(0.0).max(p.x - r.max_x);
        let dy = (r.min_y - p.y).max(0.0).max(p.y - r.max_y);
        dx.hypot(dy)
    }

    pub fn cloaked_range(store: &PoiStore, region: &Rect, radius: f64) -> Vec<u32> {
        let expanded = Rect::new(
            (region.min_x - radius).max(0.0),
            (region.min_y - radius).max(0.0),
            (region.max_x + radius).min(1.0),
            (region.max_y + radius).min(1.0),
        );
        ids_in_rect(store, &expanded)
            .into_iter()
            .filter(|&id| dist_to_rect(store.get(id).position, region) <= radius)
            .collect()
    }

    pub fn cloaked_krnn(store: &PoiStore, region: &Rect, k: usize) -> Vec<u32> {
        let corners = [
            Point::new(region.min_x, region.min_y),
            Point::new(region.min_x, region.max_y),
            Point::new(region.max_x, region.min_y),
            Point::new(region.max_x, region.max_y),
        ];
        let d_max = corners
            .iter()
            .map(|&c| kth_nn_dist(store, c, k))
            .fold(0.0f64, f64::max);
        let diag = region.width().hypot(region.height());
        cloaked_range(store, region, d_max + diag)
    }

    pub fn refine_knn(store: &PoiStore, candidates: &[u32], position: Point, k: usize) -> Vec<u32> {
        let mut scored: Vec<(f64, u32)> = candidates
            .iter()
            .map(|&id| (store.get(id).position.dist_sq(&position), id))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// Exact k nearest by a full scan, for queries the old code could not
    /// answer.
    pub fn linear_knn(store: &PoiStore, p: Point, k: usize) -> Vec<u32> {
        let all: Vec<u32> = (0..store.len() as u32).collect();
        refine_knn(store, &all, p, k)
    }
}

/// A store over `points` with per-POI content sizes, so transfer units
/// depend on which POIs are returned, not only on how many.
fn store_of(points: &[Point], units: &[u32], cell: f64) -> PoiStore {
    let pois = points
        .iter()
        .enumerate()
        .map(|(i, &position)| Poi {
            id: i as u32,
            position,
            category: 0,
            content_units: units[i % units.len()],
        })
        .collect();
    PoiStore::new(pois, cell)
}

/// Grid cell sides. At 0.1 and 0.7 the kNN selection's first window, one
/// cell wide, is wider than the oracle's 0.02: the growth starts past the
/// oracle's start, or skips straight to the cover.
const CELLS: [f64; 4] = [5e-3, 0.03, 0.1, 0.7];

/// The three kinds of store: uniform, California-like, and duplicate-heavy
/// — points on the 1/16 lattice of the closed unit square, so many exact
/// duplicates (id tie-breaks), many POIs on the 0/1 edges, and many exact
/// distances to lattice-aligned regions.
fn build_store(kind: u8, n: usize, seed: u64, cell: usize, units: &[u32]) -> PoiStore {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points: Vec<Point> = match kind {
        0 => (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect(),
        1 => DatasetSpec {
            n: 8 * n,
            seed,
            distribution: SpatialDistribution::california(),
        }
        .generate(),
        _ => (0..n)
            .map(|_| {
                let (i, j) = (rng.gen_range(0..17u32), rng.gen_range(0..17u32));
                Point::new(i as f64 / 16.0, j as f64 / 16.0)
            })
            .collect(),
    };
    store_of(&points, units, CELLS[cell])
}

fn arb_store() -> impl Strategy<Value = PoiStore> {
    (
        0u8..3,
        1usize..400,
        0u64..u64::MAX,
        0usize..CELLS.len(),
        collection::vec(1u32..5000, 1..8),
    )
        .prop_map(|(kind, n, seed, cell, units)| build_store(kind, n, seed, cell, &units))
}

/// Regions inside the closed unit square: free-form, zero-area, and
/// lattice-aligned (often touching the 0/1 edges).
fn arb_region() -> impl Strategy<Value = Rect> {
    (0u8..3, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.3, 0.0f64..0.3).prop_map(|(kind, x, y, w, h)| {
        match kind {
            0 => Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
            1 => Rect::from_point(Point::new(x, y)),
            _ => {
                let at = |v: f64, extra: f64| {
                    ((v * 17.0) as u32 + (extra * 20.0) as u32).min(16) as f64 / 16.0
                };
                Rect::new(at(x, 0.0), at(y, 0.0), at(x, w), at(y, h))
            }
        }
    })
}

/// Zero, free-form, or a multiple of 1/16 up to 1/2.
fn arb_radius() -> impl Strategy<Value = f64> {
    (0u8..3, 0.0f64..0.3).prop_map(|(kind, r)| match kind {
        0 => 0.0,
        1 => r,
        _ => (r * 30.0).floor() / 16.0,
    })
}

/// Small k, k at or above the store size, and the largest k.
fn arb_k() -> impl Strategy<Value = usize> {
    (0u8..3, 1usize..12, 250usize..450).prop_map(|(kind, small, large)| match kind {
        0 => small,
        1 => large,
        _ => usize::MAX,
    })
}

/// A position inside `region` from two unit fractions.
fn inside(region: &Rect, fx: f64, fy: f64) -> Point {
    Point::new(
        (region.min_x + fx * region.width()).min(region.max_x),
        (region.min_y + fy * region.height()).min(region.max_y),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn handle_matches_the_original_kernel(
        store in arb_store(),
        region in arb_region(),
        radius in arb_radius(),
        k in arb_k(),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let server = LbsServer::new(store);
        let store = server.store();

        let got = server.handle(&region, &CloakedQuery::Range { radius });
        let expect = oracle::cloaked_range(store, &region, radius);
        prop_assert_eq!(got.transfer_units, store.transfer_units(&expect));
        prop_assert_eq!(&got.candidates, &expect);

        let got = server.handle(&region, &CloakedQuery::Knn { k });
        let expect = oracle::cloaked_krnn(store, &region, k);
        prop_assert_eq!(got.transfer_units, store.transfer_units(&expect));
        prop_assert_eq!(&got.candidates, &expect);

        let p = inside(&region, fx, fy);
        prop_assert_eq!(
            refine_knn(store, &got.candidates, p, k),
            oracle::refine_knn(store, &expect, p, k)
        );
    }

    #[test]
    fn knn_matches_the_original_selection(
        store in arb_store(),
        qx in 0.0f64..1.0,
        qy in 0.0f64..1.0,
        lattice in 0u8..2,
        k in arb_k(),
    ) {
        // Lattice query points put many POIs at exactly equal distances.
        let snap = |v: f64| if lattice == 1 { (v * 16.0).round() / 16.0 } else { v };
        let p = Point::new(snap(qx), snap(qy));
        prop_assert_eq!(store.knn(p, k), oracle::knn(&store, p, k));
        prop_assert_eq!(
            store.kth_nn_dist(p, k).to_bits(),
            oracle::kth_nn_dist(&store, p, k).to_bits()
        );
        let all: Vec<u32> = (0..store.len() as u32).rev().collect();
        prop_assert_eq!(
            refine_knn(&store, &all, p, k),
            oracle::refine_knn(&store, &all, p, k)
        );
    }

    #[test]
    fn rect_scans_are_unchanged(store in arb_store(), rect in arb_region(), cell in 0usize..CELLS.len()) {
        let points: Vec<Point> = store.pois().iter().map(|p| p.position).collect();
        let grid = GridIndex::build(&points, CELLS[cell]);
        let expect = oracle::ids_in_rect(&store, &rect);
        prop_assert_eq!(grid.count_in_rect(&rect), oracle::count_in_rect(&store, &rect));
        prop_assert_eq!(grid.ids_in_rect(&rect), expect.clone());
        prop_assert_eq!(store.range(&rect), expect);
    }

    #[test]
    fn queries_outside_the_unit_square_are_exact(
        store in arb_store(),
        (x0, y0, x1, y1) in (-1.0f64..2.0, -1.0f64..2.0, -1.0f64..2.0, -1.0f64..2.0),
        radius in arb_radius(),
        k in 1usize..12,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let region = Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1));
        let p = Point::new(x0, y0);
        prop_assert_eq!(store.knn(p, k), oracle::linear_knn(&store, p, k));
        let kth = oracle::linear_knn(&store, p, k)
            .last()
            .map_or(f64::INFINITY, |&id| store.get(id).position.dist(&p));
        prop_assert_eq!(store.kth_nn_dist(p, k).to_bits(), kth.to_bits());

        let server = LbsServer::new(store);
        let store = server.store();
        let got = server.handle(&region, &CloakedQuery::Range { radius });
        let expect: Vec<u32> = (0..store.len() as u32)
            .filter(|&i| oracle::dist_to_rect(store.get(i).position, &region) <= radius)
            .collect();
        prop_assert_eq!(got.candidates, expect);

        let got = server.handle(&region, &CloakedQuery::Knn { k });
        let q = inside(&region, fx, fy);
        prop_assert_eq!(
            refine_knn(store, &got.candidates, q, k),
            oracle::linear_knn(store, q, k)
        );
    }
}

/// POIs at exactly `radius` from a region corner (a 3-4-5 triangle and an
/// axis offset, all dyadic, so every distance is exact in f64) stay in the
/// candidate set, and POIs one step further stay out.
#[test]
fn pois_exactly_radius_from_a_corner_are_candidates() {
    let region = Rect::new(0.25, 0.25, 0.5, 0.5);
    let radius = 0.3125; // 5/16
    let points = [
        Point::new(0.5 + 0.1875, 0.5 + 0.25), // (3/16, 4/16) from (max, max)
        Point::new(0.25 - 0.25, 0.25 - 0.1875), // (4/16, 3/16) from (min, min)
        Point::new(0.5 + radius, 0.375),      // axis offset from the right edge
        Point::new(0.5 + 0.1875, 0.5 + 0.25 + 1.0 / 1024.0),
        Point::new(0.5 + radius + 1.0 / 1024.0, 0.375),
        Point::new(0.375, 0.375),
    ];
    for cell in [5e-3, 0.1, 0.7] {
        let server = LbsServer::new(store_of(&points, &[7, 11, 13], cell));
        let got = server.handle(&region, &CloakedQuery::Range { radius });
        assert_eq!(got.candidates, vec![0, 1, 2, 5], "cell {cell}");
        assert_eq!(
            got.candidates,
            oracle::cloaked_range(server.store(), &region, radius)
        );
        assert_eq!(got.transfer_units, 7 + 11 + 13 + 13);
    }
}

/// A point far outside the square (x = 5) gets its true nearest neighbours;
/// the clipped windows of the old code inverted there.
#[test]
fn far_query_point_gets_true_neighbours() {
    let points: Vec<Point> = (0..50)
        .map(|i| Point::new((i % 10) as f64 / 9.0, (i / 10) as f64 / 4.0))
        .collect();
    let store = store_of(&points, &[1], 0.05);
    let p = Point::new(5.0, 0.5);
    assert_eq!(store.knn(p, 3), oracle::linear_knn(&store, p, 3));
    assert_eq!(store.kth_nn_dist(p, 1), 4.0);
    let region = Rect::new(4.0, 0.2, 5.0, 0.6);
    let server = LbsServer::new(store);
    let got = server.handle(&region, &CloakedQuery::Knn { k: 2 });
    let q = Point::new(4.5, 0.4);
    assert_eq!(
        refine_knn(server.store(), &got.candidates, q, 2),
        oracle::linear_knn(server.store(), q, 2)
    );
}

/// `n` POIs on a square lattice, with ids scattered over it: id `i` sits at
/// lattice slot `i · 100003 mod n` (100003 is prime and exceeds no test's
/// `n`, so the map is a bijection). The POIs near any spot then carry ids
/// from the whole range, so every radix digit of an answer varies. Also
/// returns the lattice spacing.
fn scattered_lattice(n: usize) -> (Vec<Point>, f64) {
    let side = (n as f64).sqrt().ceil() as usize;
    let spacing = 1.0 / side as f64;
    let points = (0..n)
        .map(|i| {
            let slot = i * 100_003 % n;
            Point::new(
                ((slot % side) as f64 + 0.5) * spacing,
                ((slot / side) as f64 + 0.5) * spacing,
            )
        })
        .collect();
    (points, spacing)
}

/// The square of half-width `half` around `p`, as the kNN windows are.
fn window(p: Point, half: f64) -> Rect {
    Rect::new(p.x - half, p.y - half, p.x + half, p.y + half)
}

/// Answers of hundreds of candidates over stores whose largest id needs 9,
/// 12 and 19 bits, so the candidate order takes one, two and three radix
/// passes. The last store's answer includes id 2¹⁸, the only id with a
/// nineteenth bit.
#[test]
fn candidates_are_ordered_over_one_two_and_three_radix_passes() {
    for (n, bits) in [(300usize, 9u32), (3_000, 12), ((1 << 18) + 1, 19)] {
        assert_eq!(u32::BITS - ((n - 1) as u32).leading_zeros(), bits);
        let (points, spacing) = scattered_lattice(n);
        let server = LbsServer::new(store_of(&points, &[3, 5, 7, 11], 5e-3));
        let store = server.store();
        for at in [0, n / 3, n - 1] {
            let p = store.get(at as u32).position;
            // Clipped to the unit square, where the oracle's kNN answers.
            let w = window(p, 3.0 * spacing);
            let region = Rect::new(
                w.min_x.max(0.0),
                w.min_y.max(0.0),
                w.max_x.min(1.0),
                w.max_y.min(1.0),
            );
            let radius = 8.0 * spacing;
            let got = server.handle(&region, &CloakedQuery::Range { radius });
            let expect = oracle::cloaked_range(store, &region, radius);
            assert!(expect.len() >= 100, "n={n}: {} candidates", expect.len());
            assert!(got.candidates.contains(&(at as u32)));
            assert_eq!(got.candidates, expect, "n={n}, around POI {at}");
            assert_eq!(got.transfer_units, store.transfer_units(&expect));
            for k in [5, 40] {
                let got = server.handle(&region, &CloakedQuery::Knn { k });
                let expect = oracle::cloaked_krnn(store, &region, k);
                assert!(expect.len() >= 100, "n={n}, k={k}: {}", expect.len());
                assert_eq!(got.candidates, expect, "n={n}, k={k}, around POI {at}");
                assert_eq!(got.transfer_units, store.transfer_units(&expect));
            }
        }
    }
}

/// A dense cluster whose first window, one grid cell wide, already holds
/// k = 5 POIs, all near its corners, while three POIs just outside the
/// window's edges are nearer: only the √2 cover around the first window
/// finds them.
#[test]
fn knn_whose_first_window_already_holds_k() {
    let cell = 0.03;
    let side = GridIndex::build(&[Point::new(0.5, 0.5)], cell).cell_side();
    let p = Point::new(0.5 + side / 2.0, 0.5 + side / 2.0);
    let h = side / 2.0;
    let mut points = vec![
        Point::new(p.x - 0.95 * h, p.y - 0.95 * h),
        Point::new(p.x - 0.95 * h, p.y + 0.95 * h),
        Point::new(p.x + 0.95 * h, p.y - 0.95 * h),
        Point::new(p.x + 0.95 * h, p.y + 0.95 * h),
        Point::new(p.x + 0.9 * h, p.y + 0.97 * h),
        Point::new(p.x + 1.05 * h, p.y),
        Point::new(p.x, p.y - 1.05 * h),
        Point::new(p.x - 1.1 * h, p.y + 0.1 * h),
    ];
    // Background POIs far from the cluster.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    while points.len() < 300 {
        let q = Point::new(rng.gen(), rng.gen());
        if q.dist(&p) > 0.2 {
            points.push(q);
        }
    }
    let server = LbsServer::new(store_of(&points, &[1, 4], cell));
    let store = server.store();
    let k = 5;
    assert!(oracle::count_in_rect(store, &window(p, h)) >= k);
    let nearest = store.knn(p, k);
    assert_eq!(nearest, oracle::knn(store, p, k));
    for axis in [5, 6, 7] {
        assert!(nearest.contains(&axis), "POI {axis} outside the window");
    }
    assert_eq!(
        store.kth_nn_dist(p, k).to_bits(),
        oracle::kth_nn_dist(store, p, k).to_bits()
    );
    let region = window(p, h / 4.0);
    let got = server.handle(&region, &CloakedQuery::Knn { k });
    assert_eq!(got.candidates, oracle::cloaked_krnn(store, &region, k));
}

/// A sparse store whose first three windows hold fewer than k POIs, so the
/// selection doubles its window several times before ranking.
#[test]
fn knn_on_a_sparse_store_doubles_its_window() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let points: Vec<Point> = (0..24).map(|_| Point::new(rng.gen(), rng.gen())).collect();
    let cell = 5e-3;
    let start = GridIndex::build(&points, cell).cell_side() / 2.0;
    let server = LbsServer::new(store_of(&points, &[6, 10, 15], cell));
    let store = server.store();
    let k = 3;
    for (x, y) in [(0.5, 0.5), (0.1, 0.85), (0.93, 0.07), (0.0, 1.0)] {
        let p = Point::new(x, y);
        assert!(oracle::count_in_rect(store, &window(p, 4.0 * start)) < k);
        assert_eq!(store.knn(p, k), oracle::knn(store, p, k), "{p:?}");
        assert_eq!(
            store.kth_nn_dist(p, k).to_bits(),
            oracle::kth_nn_dist(store, p, k).to_bits()
        );
        let region = window(p, 0.01);
        let got = server.handle(&region, &CloakedQuery::Knn { k });
        let expect = oracle::cloaked_krnn(store, &region, k);
        assert_eq!(got.candidates, expect, "{p:?}");
        assert_eq!(got.transfer_units, store.transfer_units(&expect));
    }
}

/// One point per offset from `at`.
fn around(at: Point, offsets: &[(f64, f64)]) -> impl Iterator<Item = Point> + '_ {
    offsets
        .iter()
        .map(move |&(dx, dy)| Point::new(at.x + dx, at.y + dy))
}

/// The kRNN bound comes from the one later corner whose k-th distance lies
/// just above the first corner's: 0.4% further, so its square is 0.8%
/// above. The first corner sits in a dense patch, the two middle corners
/// hold k POIs well inside its k-th distance, and the opposite corner is
/// sparse. A POI lies between the two bounds' range radii, so the answer
/// changes if that corner is skipped: by a count over a bound inflated by
/// 1%, or by a count that comes out low without the exact selection after
/// it.
#[test]
fn a_later_corner_just_above_the_bound_raises_it() {
    let region = Rect::new(0.40, 0.40, 0.44, 0.44);
    // In the order the kernel visits them.
    let (c0, c1, c2, c3) = (
        Point::new(region.min_x, region.min_y),
        Point::new(region.min_x, region.max_y),
        Point::new(region.max_x, region.min_y),
        Point::new(region.max_x, region.max_y),
    );
    let k = 4;
    let diag = region.width().hypot(region.height());
    let mut points: Vec<Point> = Vec::new();
    // Dense patch: the 4th nearest POI of c0 at 0.01.
    points.extend(around(
        c0,
        &[
            (-0.002, -0.001),
            (-0.004, 0.0),
            (0.0, -0.006),
            (-0.006, -0.008),
        ],
    ));
    // The middle corners hold k POIs within 0.005.
    let near = [(-0.001, 0.002), (0.003, 0.0), (0.0, -0.004), (0.002, 0.002)];
    points.extend(around(c1, &near));
    points.extend(around(c2, &near));
    // Sparse corner: its 4th nearest POI at 0.01004.
    points.extend(around(
        c3,
        &[(0.003, 0.0), (0.0, 0.005), (0.007, 0.004), (0.01004, 0.0)],
    ));
    // Between the range radii of the two bounds.
    points.push(Point::new(region.max_x + diag + 0.01002, 0.42));
    // Background POIs at least 0.1 from the region.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    while points.len() < 250 {
        let q = Point::new(rng.gen(), rng.gen());
        if oracle::dist_to_rect(q, &region) > 0.1 {
            points.push(q);
        }
    }
    for cell in CELLS {
        let server = LbsServer::new(store_of(&points, &[3, 8, 21], cell));
        let store = server.store();
        let kth = |c| oracle::kth_nn_dist(store, c, k);
        assert!(kth(c1) < kth(c0) && kth(c2) < kth(c0));
        assert!(kth(c3) > kth(c0));
        assert!(kth(c3).powi(2) < 1.01 * kth(c0).powi(2));
        let expect = oracle::cloaked_krnn(store, &region, k);
        assert_ne!(
            oracle::cloaked_range(store, &region, kth(c0) + diag),
            expect,
            "the sparse corner must change the answer"
        );
        let got = server.handle(&region, &CloakedQuery::Knn { k });
        assert_eq!(got.candidates, expect, "cell {cell}");
        assert_eq!(got.transfer_units, store.transfer_units(&expect));
    }
}

/// A later corner whose k-th POI lies exactly at the first corner's k-th
/// distance (dyadic offsets, so every distance is exact): the count's `<=`
/// includes it, the corner is skipped, and the answer is unchanged.
#[test]
fn a_later_corner_tied_with_the_bound_keeps_it() {
    let region = Rect::new(0.25, 0.25, 0.5, 0.5);
    let (s, h) = (1.0 / 16.0, 1.0 / 32.0);
    let mut points: Vec<Point> = Vec::new();
    points.extend(around(Point::new(0.25, 0.25), &[(-s, 0.0), (0.0, -s)]));
    points.extend(around(Point::new(0.25, 0.5), &[(-h, 0.0), (0.0, h)]));
    points.extend(around(Point::new(0.5, 0.25), &[(h, 0.0), (0.0, -h)]));
    points.extend(around(Point::new(0.5, 0.5), &[(s, 0.0), (0.0, h)]));
    points.extend((0..40).map(|i| Point::new((i % 8) as f64 / 8.0, 0.875 + (i / 8) as f64 / 64.0)));
    let k = 2;
    for cell in CELLS {
        let server = LbsServer::new(store_of(&points, &[5, 9], cell));
        let store = server.store();
        assert_eq!(oracle::kth_nn_dist(store, Point::new(0.25, 0.25), k), s);
        assert_eq!(oracle::kth_nn_dist(store, Point::new(0.5, 0.5), k), s);
        let expect = oracle::cloaked_krnn(store, &region, k);
        let got = server.handle(&region, &CloakedQuery::Knn { k });
        assert_eq!(got.candidates, expect, "cell {cell}");
        assert_eq!(got.transfer_units, store.transfer_units(&expect));
    }
}

/// k above the store size: every corner's k-th POI is its farthest, and
/// the count must reach the store size, not k, to skip a corner.
#[test]
fn krnn_with_k_above_the_store_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let points: Vec<Point> = (0..30).map(|_| Point::new(rng.gen(), rng.gen())).collect();
    let server = LbsServer::new(store_of(&points, &[2, 7, 4], 0.1));
    let store = server.store();
    for region in [
        Rect::new(0.1, 0.1, 0.2, 0.15),
        Rect::new(0.45, 0.3, 0.9, 0.95),
        Rect::from_point(Point::new(0.0, 1.0)),
    ] {
        for k in [30, 31, 1000, usize::MAX] {
            let expect = oracle::cloaked_krnn(store, &region, k);
            let got = server.handle(&region, &CloakedQuery::Knn { k });
            assert_eq!(got.candidates, expect, "{region:?}, k={k}");
            assert_eq!(got.transfer_units, store.transfer_units(&expect));
        }
    }
}
