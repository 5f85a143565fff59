//! The kNN clustering baseline (paper §IV, Fig. 4, §VI).
//!
//! kNN clusters the host vertex with its k−1 nearest not-yet-clustered
//! neighbors in the WPG, where "nearest" is by shortest weighted path
//! (multi-hop spanning is explicitly required in the paper when immediate
//! peers are exhausted: "the algorithm has to further span the WPG to find
//! k − 1 un-clustered users, which might be far away", §VI-A).
//!
//! The revised variant of Fig. 4(b) breaks distance ties by the smaller
//! vertex degree, which makes the algorithm cluster-isolated on that figure's
//! WPG — but not in general, which is the paper's motivation for the
//! t-connectivity algorithm. Both tie-break rules are provided.
//!
//! Already-clustered users cannot *join* the group, but they still *relay*
//! multi-hop paths — radio hops do not care about cluster membership. This
//! is what lets a host whose whole neighborhood has been consumed by earlier
//! requests still "find k−1 un-clustered users … far away" (§VI-C), which is
//! the mechanism behind kNN's region-size degradation as clustering
//! requests accumulate (Figs. 9(b), 11(b), 12(b)).
//!
//! Communication accounting matches the t-connectivity algorithm's: the host
//! fetches the adjacency list of every vertex it settles during the Dijkstra
//! expansion, so the cost equals the number of settled vertices (host
//! excluded).

use crate::fetch::{AdjCache, LocalFetch, PeerFetch, ADJ_TABLES};
use crate::{Cluster, ClusterError};
use nela_geo::UserId;
use nela_wpg::Wpg;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Distance-tie handling for the kNN expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Plain kNN: ties broken by vertex id (deterministic stand-in for the
    /// unspecified order of the naive algorithm in Fig. 4(a)).
    #[default]
    Id,
    /// Revised kNN of Fig. 4(b): ties broken by the smaller vertex degree,
    /// then id.
    SmallestDegree,
}

/// Result of a kNN clustering request.
#[derive(Debug, Clone)]
pub struct KnnOutcome {
    /// The cluster: host plus its k−1 nearest unclustered users.
    pub cluster: Cluster,
    /// Number of peers whose adjacency the host fetched (settled vertices).
    pub involved_users: usize,
    /// The largest shortest-path distance among the chosen members — a
    /// dispersion indicator (grows as the neighborhood gets exhausted).
    pub max_distance: u64,
}

/// Clusters `host` with its k−1 nearest unclustered peers by weighted
/// shortest-path distance over an in-memory WPG. See [`knn_cluster_with`]
/// for the transport-generic version.
pub fn knn_cluster(
    g: &Wpg,
    host: UserId,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
    tie: TieBreak,
) -> Result<KnnOutcome, ClusterError> {
    let mut fetch = LocalFetch::new(g);
    knn_cluster_with(&mut fetch, host, k, removed, tie)
}

/// Clusters `host` with its k−1 nearest unclustered peers, fetching
/// adjacency through `fetch`. Vertices with `removed(v) == true` cannot join
/// the cluster but still relay multi-hop paths.
///
/// # Errors
/// - [`ClusterError::ComponentTooSmall`] when fewer than k unclustered users
///   (host included) are reachable at all.
/// - [`ClusterError::PeerUnreachable`] when a required peer cannot be
///   contacted (only possible with fallible transports).
/// - [`ClusterError::Inconsistent`] when the host or a listed peer lies
///   outside the transport's population.
pub fn knn_cluster_with(
    fetch: &mut dyn PeerFetch,
    host: UserId,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
    tie: TieBreak,
) -> Result<KnnOutcome, ClusterError> {
    assert!(k >= 1, "anonymity level must be at least 1");
    if host as usize >= fetch.population() {
        return Err(ClusterError::Inconsistent { user: host });
    }
    assert!(!removed(host), "host must not be already clustered");
    crate::with_scratch(&ADJ_TABLES, |tables| {
        let adj = AdjCache::new(fetch, host, tables);
        knn_cluster_cached(adj, host, k, removed, tie)
    })
}

/// The body of [`knn_cluster_with`] over its host-side cache.
fn knn_cluster_cached(
    mut adj: AdjCache<'_>,
    host: UserId,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
    tie: TieBreak,
) -> Result<KnnOutcome, ClusterError> {
    let mut dist: HashMap<UserId, u64> = HashMap::from([(host, 0)]);
    let mut settled: HashSet<UserId> = HashSet::new();
    // The degree tie-break needs the candidate's adjacency; by the time a
    // vertex is pushed, its *predecessor*'s list is cached, but its own may
    // not be. Fetching it at push time matches the real protocol (a peer's
    // single message carries its adjacency, hence its degree).
    let mut heap: BinaryHeap<Reverse<(u64, u64, UserId)>> = BinaryHeap::new();
    let host_key = match tie {
        TieBreak::Id => (0u64, 0u64, host),
        TieBreak::SmallestDegree => (0, adj.get(host)?.len() as u64, host),
    };
    heap.push(Reverse(host_key));

    let mut members: Vec<UserId> = Vec::with_capacity(k);
    let mut max_distance = 0u64;

    while let Some(Reverse((d, _, v))) = heap.pop() {
        if settled.contains(&v) {
            continue;
        }
        if dist.get(&v).copied().unwrap_or(u64::MAX) < d {
            continue; // stale entry
        }
        settled.insert(v);
        if !removed(v) {
            members.push(v);
            max_distance = d;
            if members.len() == k {
                break;
            }
        }
        // By index: the tie-break's fetches grow the arena under `v`'s list.
        for i in 0..adj.get(v)?.len() {
            let (y, w) = adj.get(v)?[i];
            let nd = d + w as u64;
            if nd < dist.get(&y).copied().unwrap_or(u64::MAX) {
                dist.insert(y, nd);
                let key = match tie {
                    TieBreak::Id => (nd, 0, y),
                    TieBreak::SmallestDegree => (nd, adj.get(y)?.len() as u64, y),
                };
                heap.push(Reverse(key));
            }
        }
    }

    if members.len() < k {
        return Err(ClusterError::ComponentTooSmall {
            reachable: members.len(),
        });
    }
    members.sort_unstable();
    let connectivity = internal_mew(&mut adj, &members)?;
    Ok(KnnOutcome {
        cluster: Cluster {
            members,
            connectivity,
        },
        involved_users: adj.contacted(),
        max_distance,
    })
}

/// Maximum edge weight among edges internal to `members` (0 when the set has
/// no internal edges — kNN clusters are not necessarily connected through
/// internal edges once the neighborhood is depleted).
fn internal_mew(adj: &mut AdjCache<'_>, members: &[UserId]) -> Result<u32, ClusterError> {
    let set: HashSet<UserId> = members.iter().copied().collect();
    let mut mew = 0;
    for &m in members {
        for &(v, w) in adj.get(m)? {
            if set.contains(&v) {
                mew = mew.max(w);
            }
        }
    }
    Ok(mew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_wpg::{topology, Edge};

    fn no_removed(_: UserId) -> bool {
        false
    }

    /// Paper Fig. 4's 6-vertex WPG (u1..u6 → ids 0..5) with the weights of
    /// Fig. 4(b): (u2,u1)=1, (u2,u3)=2, (u1,u3)=2, (u3,u4)=2, (u4,u5)=1,
    /// (u4,u6)=2, (u5,u6)=1.
    fn fig4_graph() -> Wpg {
        Wpg::from_edges(
            6,
            &[
                Edge::new(1, 0, 1),
                Edge::new(1, 2, 2),
                Edge::new(0, 2, 2),
                Edge::new(2, 3, 2),
                Edge::new(3, 4, 1),
                Edge::new(3, 5, 2),
                Edge::new(4, 5, 1),
            ],
        )
    }

    #[test]
    fn revised_knn_reproduces_fig4b() {
        // Host u4 (id 3), k=3. Nearest is u5 (w=1). Then u3 and u6 tie at
        // distance 2; u6 (degree 2) beats u3 (degree 3) under the revised
        // tie-break, giving {u4, u5, u6}.
        let g = fig4_graph();
        let out = knn_cluster(&g, 3, 3, &no_removed, TieBreak::SmallestDegree).unwrap();
        assert_eq!(out.cluster.members, vec![3, 4, 5]);
    }

    #[test]
    fn naive_knn_may_choose_differently_on_fig4() {
        // Under id tie-break, u3 (id 2) wins the tie instead of u6 (id 5).
        let g = fig4_graph();
        let out = knn_cluster(&g, 3, 3, &no_removed, TieBreak::Id).unwrap();
        assert_eq!(out.cluster.members, vec![2, 3, 4]);
    }

    #[test]
    fn multi_hop_distances_are_used() {
        // Path 0-1 (1), 1-2 (1), 0-3 (5): the 3-cluster of 0 takes the
        // 2-hop vertex 2 (distance 2) over the direct heavy neighbor 3.
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 3, 5)],
        );
        let out = knn_cluster(&g, 0, 3, &no_removed, TieBreak::Id).unwrap();
        assert_eq!(out.cluster.members, vec![0, 1, 2]);
        assert_eq!(out.max_distance, 2);
    }

    #[test]
    fn clustered_users_relay_but_cannot_join() {
        // Path 0-1-2 plus heavy edge 0-3. With vertex 1 clustered, vertex 2
        // is still reachable *through* 1 (distance 2 < direct 5 to vertex
        // 3), so the 3-cluster is {0, 2, 3}.
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 3, 5)],
        );
        let removed = |u: UserId| u == 1;
        let out = knn_cluster(&g, 0, 3, &removed, TieBreak::Id).unwrap();
        assert_eq!(out.cluster.members, vec![0, 2, 3]);
    }

    #[test]
    fn depletion_forces_farther_members() {
        // Ring 0..5 (weight 1). With 1 and 5 clustered, 0's 3-cluster must
        // take users two hops out on both sides.
        let g = topology::ring_lattice(6, 2, 1, 0);
        let fresh = knn_cluster(&g, 0, 3, &no_removed, TieBreak::Id).unwrap();
        assert_eq!(fresh.max_distance, 1); // one neighbor on each side
        let removed = |u: UserId| u == 1 || u == 5;
        let depleted = knn_cluster(&g, 0, 3, &removed, TieBreak::Id).unwrap();
        assert_eq!(depleted.cluster.members, vec![0, 2, 4]);
        assert_eq!(depleted.max_distance, 2);
    }

    #[test]
    fn errors_when_not_enough_unclustered() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
        let removed = |u: UserId| u == 2;
        let err = knn_cluster(&g, 0, 3, &removed, TieBreak::Id).unwrap_err();
        assert_eq!(err, ClusterError::ComponentTooSmall { reachable: 2 });
    }

    #[test]
    fn cluster_always_contains_host_and_is_size_k() {
        let g = topology::small_world(50, 4, 0.2, 6, 8);
        for host in [0u32, 13, 49] {
            for k in [2usize, 5, 10] {
                let out = knn_cluster(&g, host, k, &no_removed, TieBreak::SmallestDegree).unwrap();
                assert_eq!(out.cluster.len(), k);
                assert!(out.cluster.contains(host));
            }
        }
    }

    #[test]
    fn involved_users_at_least_k_minus_one() {
        let g = topology::ring_lattice(30, 4, 5, 2);
        let out = knn_cluster(&g, 5, 6, &no_removed, TieBreak::Id).unwrap();
        assert!(out.involved_users >= 5);
    }

    #[test]
    fn exhausted_neighborhood_spans_farther() {
        // Ring: after clustering most of the ring, the host must span far to
        // find unclustered users, raising max_distance.
        let g = topology::ring_lattice(20, 2, 1, 0);
        let near = knn_cluster(&g, 0, 3, &no_removed, TieBreak::Id).unwrap();
        let removed = |u: UserId| u != 0 && u < 8; // ids 1..7 taken
        let far = knn_cluster(&g, 0, 3, &removed, TieBreak::Id).unwrap();
        assert!(far.max_distance > near.max_distance);
        assert!(far.involved_users >= near.involved_users);
    }
}
