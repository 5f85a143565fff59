//! Differential tests pinning the SoA/arena fast paths to scalar references.
//!
//! The cache-conscious refactor (blocked distance kernel in the grid, flat
//! rank table in the builder, `rss_from_dist_sq` fast path) must be
//! *observably invisible*: every output is pinned bit-identical to a naive
//! scalar reference at fixed population sizes — including the degenerate
//! shapes (all-coincident points, a single grid cell) where blocked loops
//! and tie-breaks are most likely to drift.

use nela_geo::{GridIndex, Point, UserId};
use nela_wpg::{Edge, InverseDistanceRss, LogDistanceRss, RssModel, Wpg, WpgBuilder};
use proptest::prelude::*;

/// A build with the grid and the WPG both split across `threads` workers.
fn build_threads<R: RssModel>(builder: WpgBuilder<R>, points: &[Point], threads: usize) -> Wpg {
    let grid = GridIndex::build_threads(points, builder.delta, threads);
    builder.build_with_index_threads(points, &grid, threads)
}

/// Deterministic quasi-random points via SplitMix64 — the tests need pinned
/// populations, not a rand dependency.
fn splitmix_points(n: usize, mut seed: u64) -> Vec<Point> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) >> 11
    };
    (0..n)
        .map(|_| {
            let x = next() as f64 / (1u64 << 53) as f64;
            let y = next() as f64 / (1u64 << 53) as f64;
            Point::new(x, y)
        })
        .collect()
}

/// O(n) scalar reference for one δ-range query: same operand order as the
/// grid kernel (`query.dist_sq(&candidate)`), sorted by id for comparison.
fn brute_neighbors(points: &[Point], q: UserId, radius: f64) -> Vec<(UserId, u64)> {
    let r_sq = radius * radius;
    let qp = points[q as usize];
    (0..points.len() as UserId)
        .filter(|&v| v != q)
        .map(|v| (v, qp.dist_sq(&points[v as usize])))
        .filter(|&(_, d_sq)| d_sq <= r_sq)
        .map(|(v, d_sq)| (v, d_sq.to_bits()))
        .collect()
}

fn sorted_by_id(raw: &[(UserId, f64)]) -> Vec<(UserId, u64)> {
    let mut v: Vec<(UserId, u64)> = raw.iter().map(|&(u, d)| (u, d.to_bits())).collect();
    v.sort_by_key(|&(u, _)| u);
    v
}

/// Grid queries through the blocked SoA kernel equal the scalar reference
/// bit-for-bit at n ∈ {1, 2, 1000, 10000}, and the serial and threaded
/// grids agree entry-for-entry (same cell-grouped emission order).
#[test]
fn grid_matches_scalar_reference_at_pinned_sizes() {
    for &(n, delta, stride) in &[
        (1usize, 0.9f64, 1usize),
        (2, 0.9, 1),
        (1_000, 0.05, 1),
        (10_000, 0.05, 97), // sampled queries keep the O(n²) reference cheap
    ] {
        let points = splitmix_points(n, 0x5EED ^ n as u64);
        let serial = GridIndex::build(&points, delta);
        let par = GridIndex::build_threads(&points, delta, 4);
        let mut sbuf = Vec::new();
        let mut pbuf = Vec::new();
        for q in (0..n as UserId).step_by(stride) {
            serial.neighbors_within(q, delta, &mut sbuf);
            par.neighbors_within(q, delta, &mut pbuf);
            assert_eq!(sbuf, pbuf, "serial/threaded grid diverged at n={n} q={q}");
            assert_eq!(
                sorted_by_id(&sbuf),
                brute_neighbors(&points, q, delta),
                "grid diverged from scalar reference at n={n} q={q}"
            );
        }
    }
}

/// Full WPG builds are bit-identical across thread counts at the pinned
/// sizes, for both the pure-distance model and the noisy log-distance model
/// (which exercises the `rss_from_dist_sq` override).
#[test]
fn wpg_build_bit_identical_across_threads_at_pinned_sizes() {
    for &(n, delta) in &[(1usize, 0.9f64), (2, 0.9), (1_000, 0.05), (10_000, 0.05)] {
        let points = splitmix_points(n, 0xF00D ^ n as u64);
        let serial = WpgBuilder::new(delta, 6, InverseDistanceRss)
            .build(&points)
            .edges()
            .collect::<Vec<_>>();
        for threads in [2usize, 8] {
            let par = build_threads(
                WpgBuilder::new(delta, 6, InverseDistanceRss),
                &points,
                threads,
            )
            .edges()
            .collect::<Vec<_>>();
            assert_eq!(serial, par, "edge list diverged at n={n} threads={threads}");
        }
        if n == 1_000 {
            let noisy_serial = WpgBuilder::new(delta, 6, LogDistanceRss::default())
                .build(&points)
                .edges()
                .collect::<Vec<_>>();
            let noisy_par = build_threads(
                WpgBuilder::new(delta, 6, LogDistanceRss::default()),
                &points,
                4,
            )
            .edges()
            .collect::<Vec<_>>();
            assert_eq!(
                noisy_serial, noisy_par,
                "log-distance edges diverged at n={n}"
            );
        }
    }
}

/// All-coincident points: every pairwise distance is exactly 0, so every
/// comparison in the rank sort is an equal-score tie — the output is defined
/// purely by the id tie-break. The blocked kernel must also report the full
/// bucket (d_sq = 0 ≤ r²) without dropping or duplicating entries.
#[test]
fn degenerate_all_coincident_points() {
    let n = 100usize;
    let points = vec![Point::new(0.5, 0.5); n];
    let grid = GridIndex::build(&points, 0.1);
    let mut buf = Vec::new();
    grid.neighbors_within(7, 0.1, &mut buf);
    let got = sorted_by_id(&buf);
    let want: Vec<(UserId, u64)> = (0..n as UserId)
        .filter(|&v| v != 7)
        .map(|v| (v, 0.0f64.to_bits()))
        .collect();
    assert_eq!(
        got, want,
        "coincident bucket scan lost or duplicated entries"
    );

    // With m ≥ n−1 every tie-ordered peer survives: the WPG is the complete
    // graph, and edge (u,v) carries the id-rank of the later endpoint.
    let g = WpgBuilder::new(0.1, n, InverseDistanceRss).build(&points);
    assert_eq!(g.m(), n * (n - 1) / 2, "coincident WPG must be complete");
    for threads in [2usize, 8] {
        let par = build_threads(
            WpgBuilder::new(0.1, n, InverseDistanceRss),
            &points,
            threads,
        );
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            par.edges().collect::<Vec<_>>(),
            "coincident build diverged at {threads} threads"
        );
    }
    // Peers of 0 in tie-break order are 1,2,…; peers of 1 are 0,2,…:
    // rank(1 at 0) = 1 and rank(0 at 1) = 1, so edge (0,1) has weight 1.
    let e01 = g
        .edges()
        .find(|e| e.u == 0 && e.v == 1)
        .expect("edge (0,1)");
    assert_eq!(e01.w, 1, "tie-break rank of the (0,1) pair");
}

/// A δ larger than the domain puts the whole population in one grid cell —
/// the blocked kernel must walk a single long bucket (several KERNEL_BLOCK
/// chunks plus a ragged tail) and still match the scalar reference.
#[test]
fn degenerate_single_cell() {
    let n = 150usize; // > 2 × KERNEL_BLOCK so the tail path is exercised
    let points = splitmix_points(n, 0xCE11);
    let delta = 1.5;
    let grid = GridIndex::build(&points, delta);
    let mut buf = Vec::new();
    for q in 0..n as UserId {
        grid.neighbors_within(q, delta, &mut buf);
        assert_eq!(
            sorted_by_id(&buf),
            brute_neighbors(&points, q, delta),
            "single-cell scan diverged at q={q}"
        );
    }
}

/// Satellite regression for the comparator contract: peers with exactly
/// equal RSS scores must rank by ascending id, deterministically, on both
/// the serial and threaded paths. Five users in a cross — the four arms are
/// equidistant from the center, and each arm ties with its two diagonal
/// neighbors — so every ranking in the instance contains a tie.
#[test]
fn equal_score_ties_rank_by_ascending_id() {
    let points = vec![
        Point::new(0.5, 0.5), // 0: center
        Point::new(0.6, 0.5), // 1: east
        Point::new(0.4, 0.5), // 2: west
        Point::new(0.5, 0.6), // 3: north
        Point::new(0.5, 0.4), // 4: south
    ];
    // Hand-computed min-rank weights under the id tie-break. E.g. user 0
    // sees all four arms at distance 0.1 → ranks 1,2,3,4 by id; user 1
    // sees 3 and 4 tie at √0.02 → 3 gets rank 2, 4 gets rank 3.
    let want = vec![
        Edge::new(0, 1, 1),
        Edge::new(0, 2, 1),
        Edge::new(0, 3, 1),
        Edge::new(0, 4, 1),
        Edge::new(1, 2, 4),
        Edge::new(1, 3, 2),
        Edge::new(1, 4, 2),
        Edge::new(2, 3, 2),
        Edge::new(2, 4, 3),
        Edge::new(3, 4, 4),
    ];
    for threads in [1usize, 2, 4] {
        let g = build_threads(
            WpgBuilder::new(0.5, 4, InverseDistanceRss),
            &points,
            threads,
        );
        let mut got = g.edges().collect::<Vec<_>>();
        got.sort_by_key(|e| (e.u, e.v));
        assert_eq!(got, want, "tie-break ranks diverged at {threads} threads");
    }
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena reuse never leaks state between consecutive builds or queries:
    /// a builder that has already built one population produces the same
    /// graph for a second population as a fresh builder, and a grid query
    /// buffer carried from a larger query does not contaminate a smaller
    /// one.
    #[test]
    fn arena_reuse_across_builds_never_leaks(
        a in arb_points(150),
        b in arb_points(150),
        delta in 0.05f64..0.4,
    ) {
        let builder = WpgBuilder::new(delta, 5, InverseDistanceRss);
        let _warmup = builder.build(&a);
        let reused = builder.build(&b);
        let fresh = WpgBuilder::new(delta, 5, InverseDistanceRss).build(&b);
        prop_assert_eq!(
            reused.edges().collect::<Vec<_>>(),
            fresh.edges().collect::<Vec<_>>(),
            "builder scratch leaked across consecutive builds"
        );

        let grid_a = GridIndex::build(&a, delta);
        let grid_b = GridIndex::build(&b, delta);
        let mut carried = Vec::new();
        // Warm the buffer on every user of `a`, then replay `b`'s queries
        // through the same buffer and through a fresh one.
        for q in 0..a.len() as UserId {
            grid_a.neighbors_within(q, delta, &mut carried);
        }
        let mut fresh_buf = Vec::new();
        for q in 0..b.len() as UserId {
            grid_b.neighbors_within(q, delta, &mut carried);
            grid_b.neighbors_within(q, delta, &mut fresh_buf);
            prop_assert_eq!(&carried, &fresh_buf, "query buffer leaked prior results");
        }
    }
}
