//! Property-based invariants spanning the workspace, driven by proptest.

use nela::bounding::baselines::LinearPolicy;
use nela::bounding::cost::AreaCost;
use nela::bounding::distribution::Uniform;
use nela::bounding::nbound::{IncrementTable, SecurePolicy};
use nela::bounding::protocol::progressive_upper_bound;
use nela::bounding::unary::{unary_optimal, unary_uniform_area};
use nela::cluster::centralized::centralized_k_clustering;
use nela::cluster::distributed::distributed_k_clustering;
use nela::wpg::connectivity::{are_t_connected, nothing_removed};
use nela::wpg::{Edge, Wpg};
use nela_geo::{Point, Rect, UserId};
use proptest::prelude::*;

/// Strategy: a random undirected weighted graph with `n ≤ 24` vertices and
/// deduplicated edges with weights 1..=6.
fn arb_wpg() -> impl Strategy<Value = Wpg> {
    (4usize..24).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(
            (0..n as UserId, 0..n as UserId, 1u32..=6),
            0..max_edges.min(60),
        )
        .prop_map(move |raw| {
            let mut seen = std::collections::HashSet::new();
            let edges: Vec<Edge> = raw
                .into_iter()
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, w)| Edge::new(a, b, w))
                .filter(|e| seen.insert((e.u, e.v)))
                .collect();
            Wpg::from_edges(n, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_is_a_valid_partition(g in arb_wpg(), k in 1usize..6) {
        let r = centralized_k_clustering(&g, k);
        prop_assert!(r.is_partition_of(g.n()));
        for c in &r.clusters {
            prop_assert!(c.len() >= k, "undersized cluster {:?}", c.members);
        }
        for u in &r.underfilled {
            prop_assert!(u.len() < k);
        }
    }

    #[test]
    fn packing_never_produces_undersized_or_oversplit_groups(
        g in arb_wpg(),
        k in 2usize..5,
    ) {
        // The packing pass divides unsplittable t-classes into groups of
        // size ≥ k; no group may fall below k, every group must stay
        // t-connected, and packing must not lose or duplicate members
        // (is_partition_of covers the latter).
        let r = centralized_k_clustering(&g, k);
        prop_assert!(r.is_partition_of(g.n()));
        for c in &r.clusters {
            prop_assert!(c.len() >= k);
            // Groups larger than 2k−1 are only legitimate when the spanning
            // tree had no residual subtree of size ≥ k to carve — accept but
            // sanity-bound against runaway sizes relative to the component.
            let set: std::collections::HashSet<UserId> =
                c.members.iter().copied().collect();
            let outside = |u: UserId| !set.contains(&u);
            for &m in &c.members[1..] {
                prop_assert!(are_t_connected(&g, c.members[0], m, c.connectivity, &outside));
            }
        }
    }

    #[test]
    fn clusters_are_internally_t_connected(g in arb_wpg(), k in 1usize..5) {
        let r = centralized_k_clustering(&g, k);
        for c in &r.clusters {
            let set: std::collections::HashSet<UserId> =
                c.members.iter().copied().collect();
            let outside = |u: UserId| !set.contains(&u);
            for &m in &c.members[1..] {
                prop_assert!(
                    are_t_connected(&g, c.members[0], m, c.connectivity, &outside),
                    "members {} and {} not {}-connected inside the cluster",
                    c.members[0], m, c.connectivity
                );
            }
        }
    }

    #[test]
    fn t_connected_is_an_equivalence_relation(g in arb_wpg(), t in 1u32..7) {
        let n = g.n() as UserId;
        let none = nothing_removed;
        for a in 0..n.min(8) {
            prop_assert!(are_t_connected(&g, a, a, t, &none));
            for b in 0..n.min(8) {
                let ab = are_t_connected(&g, a, b, t, &none);
                prop_assert_eq!(ab, are_t_connected(&g, b, a, t, &none));
                if ab {
                    for c in 0..n.min(8) {
                        if are_t_connected(&g, b, c, t, &none) {
                            prop_assert!(are_t_connected(&g, a, c, t, &none));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_outcome_is_always_valid(g in arb_wpg(), k in 1usize..5, host_raw in 0u32..24) {
        let host = host_raw % g.n() as UserId;
        let none = |_: UserId| false;
        if let Ok(out) = distributed_k_clustering(&g, host, k, &none) {
            prop_assert!(out.host_cluster.contains(host));
            prop_assert!(out.host_cluster.len() >= k);
            // Every produced cluster is valid and inside the super-cluster.
            let mut all: Vec<UserId> = out
                .all_clusters
                .iter()
                .flat_map(|c| c.members.clone())
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, out.super_cluster);
        }
    }

    #[test]
    fn bounding_always_covers_and_terminates(
        values in proptest::collection::vec(0.0f64..1.0, 1..20),
        step in 0.01f64..0.5,
    ) {
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut LinearPolicy::new(step)).unwrap();
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(run.bound >= max);
        prop_assert!(run.slack(&values) <= step + 1e-12);
        prop_assert_eq!(run.records.len(), values.len());
        for r in &run.records {
            prop_assert!(values[r.index] <= r.upper);
            prop_assert!(values[r.index] > r.lower - 1e-12 || r.round == 1);
        }
    }

    #[test]
    fn secure_policy_bounding_covers(
        values in proptest::collection::vec(0.0f64..0.05, 2..30),
        span_exp in 1u32..8,
    ) {
        let span = 2f64.powi(-(span_exp as i32)); // 0.5 .. 0.0078
        let table = IncrementTable::new(AreaCost { cr: 1.0e7 }, 1.0);
        let mut policy = SecurePolicy::new(&table, Uniform::new(span));
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut policy).unwrap();
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(run.bound >= max);
        prop_assert!(run.rounds < 10_000);
    }

    #[test]
    fn unary_closed_form_is_stationary(
        cb in 0.1f64..10.0,
        cr in 1.0f64..10_000.0,
        span in 0.001f64..1.0,
    ) {
        let closed = unary_uniform_area(cb, cr, span);
        let numeric = unary_optimal(&Uniform::new(span), &AreaCost { cr }, cb);
        prop_assert!((closed.cost - numeric.cost).abs() / numeric.cost < 1e-4,
            "closed {} vs numeric {}", closed.cost, numeric.cost);
    }

    #[test]
    fn rect_bounding_is_tight_and_covering(
        pts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let r = Rect::bounding(&points).unwrap();
        for p in &points {
            prop_assert!(r.contains(p));
        }
        // Tightness: every edge of the rectangle touches some point.
        let eps = 1e-12;
        prop_assert!(points.iter().any(|p| (p.x - r.min_x).abs() < eps));
        prop_assert!(points.iter().any(|p| (p.x - r.max_x).abs() < eps));
        prop_assert!(points.iter().any(|p| (p.y - r.min_y).abs() < eps));
        prop_assert!(points.iter().any(|p| (p.y - r.max_y).abs() < eps));
    }

    #[test]
    fn grid_index_agrees_with_linear_scan(
        pts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..60),
        radius in 0.01f64..0.3,
        q in 0usize..60,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let q = q % points.len();
        let idx = nela_geo::GridIndex::build(&points, radius.min(0.2));
        let mut got: Vec<UserId> = idx
            .neighbors_within_sorted(q as UserId, radius)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<UserId> = (0..points.len())
            .filter(|&i| i != q && points[q].dist_sq(&points[i]) < radius * radius)
            .map(|i| i as UserId)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
