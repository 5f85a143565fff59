//! Property tests pinning the parallel build paths to the serial ones.
//!
//! The contract of every `*_threads` entry point is *bit-identical output*:
//! for any population and any thread count, the grid buckets, WPG edge list,
//! and connected components must equal the single-threaded result exactly —
//! parallelism is an implementation detail, never an observable one.

use nela_geo::{GridIndex, Point, UserId};
use nela_wpg::connectivity::{components_under, components_under_threads, nothing_removed};
use nela_wpg::{Edge, InverseDistanceRss, Wpg, WpgBuilder};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..200)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// A deduplicated undirected edge list over `n` vertices.
fn arb_edges(n: usize) -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec((0..n as UserId, 0..n as UserId, 1u32..12), 0..400).prop_map(|raw| {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|&(a, b, _)| a != b)
            .map(|(a, b, w)| Edge::new(a, b, w))
            .filter(|e| seen.insert((e.u, e.v)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_build_matches_serial(
        points in arb_points(),
        m in 1usize..8,
        delta in 0.05f64..0.4,
    ) {
        let serial = WpgBuilder::new(delta, m, InverseDistanceRss).build(&points);
        for threads in [1usize, 2, 4, 8] {
            let grid = GridIndex::build_threads(&points, delta, threads);
            let par = WpgBuilder::new(delta, m, InverseDistanceRss)
                .build_with_index_threads(&points, &grid, threads);
            prop_assert_eq!(
                serial.edges().collect::<Vec<_>>(),
                par.edges().collect::<Vec<_>>(),
                "edge list diverged at {} threads", threads
            );
        }
    }

    #[test]
    fn counting_sort_csr_matches_serial(
        edges in arb_edges(60),
    ) {
        // The counting-sort CSR assembly must reproduce the serial
        // `from_edges` layout exactly: same neighbor order per vertex, for
        // any thread count (including more threads than edges).
        let n = 60usize;
        let serial = Wpg::from_edges(n, &edges);
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let par = Wpg::from_edges_threads(n, &edges, threads);
            prop_assert_eq!(par.m(), serial.m());
            for u in 0..n as UserId {
                prop_assert_eq!(
                    par.neighbors(u).collect::<Vec<_>>(),
                    serial.neighbors(u).collect::<Vec<_>>(),
                    "neighbor slice of {} diverged at {} threads", u, threads
                );
            }
        }
    }

    #[test]
    fn parallel_grid_matches_serial(
        points in arb_points(),
        delta in 0.02f64..0.4,
    ) {
        let serial = GridIndex::build(&points, delta);
        let mut sbuf = Vec::new();
        let mut pbuf = Vec::new();
        for threads in [2usize, 3, 8] {
            let par = GridIndex::build_threads(&points, delta, threads);
            // The public probe surface must agree exactly for every user.
            for u in 0..points.len() as UserId {
                serial.neighbors_within(u, delta, &mut sbuf);
                par.neighbors_within(u, delta, &mut pbuf);
                prop_assert_eq!(&sbuf, &pbuf, "neighbors diverged at {} threads", threads);
            }
        }
    }

    #[test]
    fn parallel_components_match_serial(
        points in arb_points(),
        t in 1u32..6,
    ) {
        let g = WpgBuilder::new(0.2, 5, InverseDistanceRss).build(&points);
        let serial = components_under(&g, t, &nothing_removed);
        let removed = |u: UserId| u % 5 == 0;
        let serial_removed = components_under(&g, t, &removed);
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &serial,
                &components_under_threads(&g, t, &nothing_removed, threads),
                "components diverged at {} threads", threads
            );
            prop_assert_eq!(
                &serial_removed,
                &components_under_threads(&g, t, &removed, threads),
                "components with removals diverged at {} threads", threads
            );
        }
    }
}
