//! Peer adjacency transport abstraction.
//!
//! In the distributed protocols the host learns the WPG incrementally: each
//! involved peer sends *one* message carrying its adjacency list and edge
//! weights (paper §VI). The algorithms in this crate are written against
//! [`PeerFetch`] so the same code runs over an in-memory graph (analysis,
//! tests) or over `nela-netsim`'s simulated radio network (latency, loss,
//! peer failures).

use crate::Stamped;
use nela_geo::UserId;
use nela_wpg::{Edge, RankRows, Weight, Wpg};
use std::cell::RefCell;

/// Source of peer adjacency lists. One `fetch_into` per distinct peer
/// corresponds to one protocol message; the algorithms cache internally, so
/// implementations need not deduplicate.
pub trait PeerFetch {
    /// The number of users the transport serves. Every id it names — the
    /// host's and every neighbor in a fetched list — must lie in
    /// `0..population()`; the algorithms reject a list naming any other id
    /// as [`crate::ClusterError::Inconsistent`], so a peer can never size a
    /// host-side table.
    fn population(&self) -> usize;

    /// Appends the adjacency list of `u` to `out` as `(neighbor, weight)`
    /// pairs and returns true, or returns false when the peer is
    /// unreachable (crashed, out of range, messages lost beyond retry).
    /// The caller keeps nothing a failed fetch appended, so the host's
    /// arena is the list's only copy.
    fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool;
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
    fn population(&self) -> usize {
        self.g.n()
    }

    fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
        out.extend(self.g.neighbors(u));
        true
    }
}

/// Infallible in-memory fetch straight from an incremental WPG's rank rows:
/// each list is the snapshot's CSR row, computed from the two endpoints'
/// rows ([`RankRows::row_into`]), so serving a few hosts per tick never
/// builds the whole graph.
impl PeerFetch for RankRows<'_> {
    fn population(&self) -> usize {
        self.n()
    }

    fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
        self.row_into(u, out);
        true
    }
}

/// A borrowed transport is a transport, so wrappers such as the simulated
/// radio can take the in-memory fetch they answer from by reference.
impl<F: PeerFetch + ?Sized> PeerFetch for &mut F {
    fn population(&self) -> usize {
        (**self).population()
    }

    fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
        (**self).fetch_into(u, out)
    }
}

/// Host-side adjacency tables, reused across requests: one arena holds
/// every list fetched by the current request, reached through a per-user
/// slot. A request starts by emptying the stamped slots at once, so
/// nothing a request fetched is visible to the next.
#[derive(Default)]
pub(crate) struct AdjTables {
    /// Where each fetched list sits in the arena, `(start, end)`.
    slots: Stamped<(u32, u32)>,
    arena: Vec<(UserId, Weight)>,
    fetched: usize,
}

fn range((start, end): (u32, u32)) -> std::ops::Range<usize> {
    start as usize..end as usize
}

thread_local! {
    /// One set of adjacency tables per thread running phase 1.
    pub(crate) static ADJ_TABLES: RefCell<AdjTables> = RefCell::new(AdjTables::default());
}

/// Host-side adjacency cache: first access to a peer costs a fetch (one
/// message), later accesses are free. Tracks the distinct peers contacted —
/// the paper's communication-cost metric.
pub(crate) struct AdjCache<'a> {
    fetch: &'a mut dyn PeerFetch,
    host: UserId,
    population: usize,
    t: &'a mut AdjTables,
}

impl<'a> AdjCache<'a> {
    /// Creates a cache for a protocol run by `host` over `tables`, emptied
    /// of whatever an earlier run left there and sized to the transport's
    /// population. The caller checks that `host` lies in that population.
    pub(crate) fn new(
        fetch: &'a mut dyn PeerFetch,
        host: UserId,
        tables: &'a mut AdjTables,
    ) -> Self {
        let population = fetch.population();
        debug_assert!((host as usize) < population, "host outside the population");
        tables.slots.reset(population);
        tables.arena.clear();
        tables.fetched = 0;
        AdjCache {
            fetch,
            host,
            population,
            t: tables,
        }
    }

    /// The adjacency of `u`, fetching on first use: the transport appends
    /// the list to the arena, where it is checked in place.
    ///
    /// # Errors
    /// [`crate::ClusterError::PeerUnreachable`] when the fetch fails, and
    /// [`crate::ClusterError::Inconsistent`] at `u` when its list names an id
    /// outside the population (or more entries than the arena can address).
    /// Either way the arena drops what the fetch appended.
    pub(crate) fn get(&mut self, u: UserId) -> Result<&[(UserId, Weight)], crate::ClusterError> {
        let t = &mut *self.t;
        let slot = match t.slots.get(u) {
            Some(slot) => slot,
            None => {
                let start = t.arena.len();
                let inconsistent = crate::ClusterError::Inconsistent { user: u };
                let checked = if !self.fetch.fetch_into(u, &mut t.arena) {
                    Err(crate::ClusterError::PeerUnreachable { peer: u })
                } else if t.arena[start..]
                    .iter()
                    .any(|&(v, _)| v as usize >= self.population)
                {
                    Err(inconsistent)
                } else {
                    u32::try_from(start)
                        .and_then(|s| Ok((s, u32::try_from(t.arena.len())?)))
                        .map_err(|_| inconsistent)
                };
                let slot = match checked {
                    Ok(slot) => slot,
                    Err(e) => {
                        t.arena.truncate(start);
                        return Err(e);
                    }
                };
                t.slots.insert(u, slot);
                t.fetched += 1;
                slot
            }
        };
        Ok(&t.arena[range(slot)])
    }

    /// The adjacency of `u` if this run has already fetched it.
    fn cached(&self, u: UserId) -> Option<&[(UserId, Weight)]> {
        let slot = self.t.slots.get(u)?;
        Some(&self.t.arena[range(slot)])
    }

    /// Number of peers whose adjacency was fetched, excluding the host's own
    /// (local, free) list — the per-request communication cost.
    pub(crate) fn contacted(&self) -> usize {
        self.t.fetched - usize::from(self.cached(self.host).is_some())
    }

    /// Fills `edges` with every undirected edge among `members` known to
    /// the cache, each once, taken from the list of its smaller endpoint.
    /// Endpoints are positions in `members`, which must be strictly
    /// ascending — the local indices
    /// [`crate::centralized::centralized_k_clustering_edges`] takes.
    /// `position(v)` is `v`'s index in `members`, `None` for a non-member:
    /// a slot lookup, where a search of `members` per list entry would cost
    /// a logarithm.
    pub(crate) fn internal_edges(
        &self,
        members: &[UserId],
        position: impl Fn(UserId) -> Option<u32>,
        edges: &mut Vec<Edge>,
    ) {
        edges.clear();
        for (i, &m) in members.iter().enumerate() {
            let Some(adj) = self.cached(m) else {
                continue;
            };
            let i = i as u32;
            for &(v, w) in adj {
                match position(v) {
                    Some(j) if j > i => edges.push(Edge { u: i, v: j, w }),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position of `v` in the ascending `members`.
    fn position_in(members: &[UserId]) -> impl Fn(UserId) -> Option<u32> + '_ {
        |v| members.binary_search(&v).ok().map(|j| j as u32)
    }

    #[test]
    fn cache_fetches_once_and_counts() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut tables = AdjTables::default();
        let mut cache = AdjCache::new(&mut local, 0, &mut tables);
        assert_eq!(cache.get(0).unwrap().len(), 1);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.contacted(), 1, "host's own list is free");
    }

    #[test]
    fn internal_edges_are_deduplicated() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut tables = AdjTables::default();
        let mut cache = AdjCache::new(&mut local, 0, &mut tables);
        for u in 0..3 {
            cache.get(u).unwrap();
        }
        let members = [0, 1, 2];
        let mut edges = Vec::new();
        cache.internal_edges(&members, position_in(&members), &mut edges);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn internal_edges_name_members_by_position() {
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 1), Edge::new(1, 3, 2), Edge::new(2, 3, 4)],
        );
        let mut local = LocalFetch::new(&g);
        let mut tables = AdjTables::default();
        let mut cache = AdjCache::new(&mut local, 1, &mut tables);
        for u in [1, 2, 3] {
            cache.get(u).unwrap();
        }
        let members = [1, 2, 3];
        let mut edges = Vec::new();
        cache.internal_edges(&members, position_in(&members), &mut edges);
        assert_eq!(edges, vec![Edge::new(0, 2, 2), Edge::new(1, 2, 4)]);
    }

    #[test]
    fn reused_tables_forget_the_previous_run() {
        // A second run over the same tables, on a smaller graph, must fetch
        // afresh and see none of the first run's lists.
        let big = Wpg::from_edges(5, &[Edge::new(0, 1, 1), Edge::new(3, 4, 2)]);
        let small = Wpg::from_edges(2, &[Edge::new(0, 1, 7)]);
        let mut tables = AdjTables::default();
        let mut local = LocalFetch::new(&big);
        let mut cache = AdjCache::new(&mut local, 3, &mut tables);
        cache.get(0).unwrap();
        cache.get(3).unwrap();
        assert_eq!(cache.contacted(), 1);
        let mut local = LocalFetch::new(&small);
        let mut cache = AdjCache::new(&mut local, 1, &mut tables);
        assert_eq!(cache.contacted(), 0);
        assert_eq!(cache.get(0).unwrap(), &[(1, 7)]);
        assert_eq!(cache.contacted(), 1);
    }

    /// A fetch that fails for a chosen peer.
    struct FailingFetch<'a> {
        inner: LocalFetch<'a>,
        dead: UserId,
    }
    impl PeerFetch for FailingFetch<'_> {
        fn population(&self) -> usize {
            self.inner.population()
        }
        fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
            u != self.dead && self.inner.fetch_into(u, out)
        }
    }

    #[test]
    fn unreachable_peer_surfaces_as_error() {
        let g = Wpg::from_edges(2, &[Edge::new(0, 1, 1)]);
        let mut f = FailingFetch {
            inner: LocalFetch::new(&g),
            dead: 1,
        };
        let mut tables = AdjTables::default();
        let mut cache = AdjCache::new(&mut f, 0, &mut tables);
        assert!(cache.get(0).is_ok());
        assert_eq!(
            cache.get(1).unwrap_err(),
            crate::ClusterError::PeerUnreachable { peer: 1 }
        );
    }

    #[test]
    fn a_refused_list_leaves_nothing_in_the_arena() {
        // Peer 1 appends half a list and then fails; peer 2's list names a
        // user outside the population. Neither may leave an entry behind.
        struct Partial;
        impl PeerFetch for Partial {
            fn population(&self) -> usize {
                3
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                match u {
                    0 => out.extend_from_slice(&[(1, 1), (2, 2)]),
                    1 => out.push((0, 1)),
                    _ => out.extend_from_slice(&[(0, 2), (9, 1)]),
                }
                u != 1
            }
        }
        let (mut partial, mut tables) = (Partial, AdjTables::default());
        let mut cache = AdjCache::new(&mut partial, 0, &mut tables);
        assert!(cache.get(1).is_err());
        assert!(cache.get(2).is_err());
        assert_eq!(cache.get(0).unwrap(), &[(1, 1), (2, 2)]);
        assert_eq!(cache.contacted(), 0, "refused lists are not contacts");
        assert_eq!(tables.arena, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn out_of_population_neighbor_is_inconsistent() {
        struct Wide;
        impl PeerFetch for Wide {
            fn population(&self) -> usize {
                2
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                out.extend_from_slice(if u == 0 { &[(1, 1), (2, 1)] } else { &[(0, 1)] });
                true
            }
        }
        let (mut wide, mut tables) = (Wide, AdjTables::default());
        let mut cache = AdjCache::new(&mut wide, 1, &mut tables);
        assert!(cache.get(1).is_ok());
        assert_eq!(
            cache.get(0).unwrap_err(),
            crate::ClusterError::Inconsistent { user: 0 }
        );
    }
}
