//! Peer adjacency transport abstraction.
//!
//! In the distributed protocols the host learns the WPG incrementally: each
//! involved peer sends *one* message carrying its adjacency list and edge
//! weights (paper §VI). The algorithms in this crate are written against
//! [`PeerFetch`] so the same code runs over an in-memory graph (analysis,
//! tests) or over `nela-netsim`'s simulated radio network (latency, loss,
//! peer failures).

use nela_geo::UserId;
use nela_wpg::{Edge, Weight, Wpg};
use std::collections::hash_map::Entry;

/// Source of peer adjacency lists. One `fetch` per distinct peer corresponds
/// to one protocol message; the algorithms cache internally, so
/// implementations need not deduplicate.
pub trait PeerFetch {
    /// The adjacency list of `u` as `(neighbor, weight)` pairs, or `None`
    /// when the peer is unreachable (crashed, out of range, messages lost
    /// beyond retry).
    fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>>;
}

/// Infallible in-memory fetch straight from a [`Wpg`].
pub struct LocalFetch<'a> {
    g: &'a Wpg,
}

impl<'a> LocalFetch<'a> {
    /// Wraps a graph.
    pub fn new(g: &'a Wpg) -> Self {
        LocalFetch { g }
    }
}

impl PeerFetch for LocalFetch<'_> {
    fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>> {
        Some(self.g.neighbors(u).collect())
    }
}

/// Host-side adjacency cache: first access to a peer costs a fetch (one
/// message), later accesses are free. Tracks the distinct peers contacted —
/// the paper's communication-cost metric.
pub struct AdjCache<'f> {
    fetch: &'f mut dyn PeerFetch,
    host: UserId,
    map: std::collections::HashMap<UserId, Vec<(UserId, Weight)>>,
}

impl<'f> AdjCache<'f> {
    /// Creates a cache for a protocol run by `host`.
    pub fn new(fetch: &'f mut dyn PeerFetch, host: UserId) -> Self {
        AdjCache {
            fetch,
            host,
            map: std::collections::HashMap::new(),
        }
    }

    /// The adjacency of `u`, fetching on first use.
    pub fn get(&mut self, u: UserId) -> Result<&[(UserId, Weight)], crate::ClusterError> {
        match self.map.entry(u) {
            Entry::Occupied(cached) => Ok(cached.into_mut()),
            Entry::Vacant(slot) => {
                let adj = self
                    .fetch
                    .fetch(u)
                    .ok_or(crate::ClusterError::PeerUnreachable { peer: u })?;
                Ok(slot.insert(adj))
            }
        }
    }

    /// Number of peers whose adjacency was fetched, excluding the host's own
    /// (local, free) list — the per-request communication cost.
    pub fn contacted(&self) -> usize {
        self.map.len() - usize::from(self.map.contains_key(&self.host))
    }

    /// Every undirected edge among `members` known to the cache, each once,
    /// taken from the list of its smaller endpoint. Endpoints are positions
    /// in `members`, which must be strictly ascending — the local indices
    /// [`crate::centralized::centralized_k_clustering_edges`] takes.
    pub fn internal_edges(&self, members: &[UserId]) -> Vec<Edge> {
        let mut edges = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let Some(adj) = self.map.get(&m) else {
                continue;
            };
            let above = &members[i + 1..];
            for &(v, w) in adj {
                if let Ok(j) = above.binary_search(&v) {
                    edges.push(Edge::new(i as UserId, (i + 1 + j) as UserId, w));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fetches_once_and_counts() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut cache = AdjCache::new(&mut local, 0);
        assert_eq!(cache.get(0).unwrap().len(), 1);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.contacted(), 1, "host's own list is free");
    }

    #[test]
    fn internal_edges_are_deduplicated() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut cache = AdjCache::new(&mut local, 0);
        for u in 0..3 {
            cache.get(u).unwrap();
        }
        let edges = cache.internal_edges(&[0, 1, 2]);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn internal_edges_name_members_by_position() {
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 1), Edge::new(1, 3, 2), Edge::new(2, 3, 4)],
        );
        let mut local = LocalFetch::new(&g);
        let mut cache = AdjCache::new(&mut local, 1);
        for u in [1, 2, 3] {
            cache.get(u).unwrap();
        }
        assert_eq!(
            cache.internal_edges(&[1, 2, 3]),
            vec![Edge::new(0, 2, 2), Edge::new(1, 2, 4)]
        );
    }

    /// A fetch that fails for a chosen peer.
    struct FailingFetch<'a> {
        inner: LocalFetch<'a>,
        dead: UserId,
    }
    impl PeerFetch for FailingFetch<'_> {
        fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>> {
            if u == self.dead {
                None
            } else {
                self.inner.fetch(u)
            }
        }
    }

    #[test]
    fn unreachable_peer_surfaces_as_error() {
        let g = Wpg::from_edges(2, &[Edge::new(0, 1, 1)]);
        let mut f = FailingFetch {
            inner: LocalFetch::new(&g),
            dead: 1,
        };
        let mut cache = AdjCache::new(&mut f, 0);
        assert!(cache.get(0).is_ok());
        assert_eq!(
            cache.get(1).unwrap_err(),
            crate::ClusterError::PeerUnreachable { peer: 1 }
        );
    }
}
