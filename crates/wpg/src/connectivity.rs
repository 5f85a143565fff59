//! t-connectivity primitives (paper Definition 4.1) and union-find.
//!
//! Two vertices are *t-connected* when a path joins them whose every edge
//! weight is ≤ t. t-connectedness is an equivalence relation (paper Theorem
//! 4.3); its classes are the connected components of the subgraph keeping
//! only edges of weight ≤ t. The clustering algorithms repeatedly ask:
//!
//! - "what is the t-connectivity cluster of u?"              → [`t_cluster_of`]
//! - "does u have a t-connectivity cluster of size ≥ k?"     → [`has_t_cluster_of_size`]
//! - "partition everything by t-connectivity"                → [`components_under`]
//!
//! All functions take a `removed` predicate so they can operate on the
//! "remaining WPG" after earlier clusters were carved out — the situation the
//! cluster-isolation property (Property 4.1) reasons about — without ever
//! materializing subgraphs.

use crate::graph::Wpg;
use crate::Weight;
use nela_geo::UserId;

/// Classic union-find with path halving and union by size.
#[derive(Debug, Clone, Default)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        let mut ds = DisjointSets::default();
        ds.reset(n);
        ds
    }

    /// Makes this `n` singleton sets again, reusing the allocations — for
    /// callers that keep one union-find across many runs.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `false` when already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }

    /// Size of `x`'s set.
    pub fn size_of(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }

    /// True when `a` and `b` share a set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The t-connectivity cluster (equivalence class) of `u`: all vertices
/// reachable from `u` through edges of weight ≤ `t`, skipping vertices for
/// which `removed` returns true. Returns vertices in BFS order starting at
/// `u`; returns just `[u]` when `u` itself is removed-free but isolated.
pub fn t_cluster_of(
    g: &Wpg,
    u: UserId,
    t: Weight,
    removed: &dyn Fn(UserId) -> bool,
) -> Vec<UserId> {
    let (cluster, _) = t_cluster_bounded(g, u, t, removed, usize::MAX);
    cluster
}

/// BFS as in [`t_cluster_of`] but stops expanding once `limit` vertices are
/// collected. Returns the collected vertices and whether the limit was hit
/// (i.e. the true cluster is at least `limit` large).
pub fn t_cluster_bounded(
    g: &Wpg,
    u: UserId,
    t: Weight,
    removed: &dyn Fn(UserId) -> bool,
    limit: usize,
) -> (Vec<UserId>, bool) {
    debug_assert!(!removed(u), "seed vertex must be present");
    let mut visited = std::collections::HashSet::new();
    visited.insert(u);
    let mut queue = std::collections::VecDeque::from([u]);
    let mut cluster = vec![u];
    if cluster.len() >= limit {
        return (cluster, true);
    }
    while let Some(x) = queue.pop_front() {
        for (y, w) in g.neighbors(x) {
            if w <= t && !removed(y) && visited.insert(y) {
                cluster.push(y);
                if cluster.len() >= limit {
                    return (cluster, true);
                }
                queue.push_back(y);
            }
        }
    }
    (cluster, false)
}

/// True when `u`'s t-connectivity cluster (under `removed`) reaches size ≥ k.
/// This is the "valid t-connectivity cluster" test in the border-vertex check
/// of the distributed algorithm (paper Theorem 4.4); bounded BFS makes it
/// O(k·deg) instead of exploring the whole class.
pub fn has_t_cluster_of_size(
    g: &Wpg,
    u: UserId,
    t: Weight,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
) -> bool {
    t_cluster_bounded(g, u, t, removed, k).1
}

/// True when `a` and `b` are t-connected (under `removed`).
pub fn are_t_connected(
    g: &Wpg,
    a: UserId,
    b: UserId,
    t: Weight,
    removed: &dyn Fn(UserId) -> bool,
) -> bool {
    if a == b {
        return true; // reflexivity holds trivially (empty path)
    }
    let mut visited = std::collections::HashSet::new();
    visited.insert(a);
    let mut stack = vec![a];
    while let Some(x) = stack.pop() {
        for (y, w) in g.neighbors(x) {
            if w <= t && !removed(y) && visited.insert(y) {
                if y == b {
                    return true;
                }
                stack.push(y);
            }
        }
    }
    false
}

/// Partitions all non-removed vertices into t-connectivity classes.
/// Classes are returned with members sorted, ordered by smallest member.
pub fn components_under(g: &Wpg, t: Weight, removed: &dyn Fn(UserId) -> bool) -> Vec<Vec<UserId>> {
    let mut ds = DisjointSets::new(g.n());
    for e in g.edges() {
        if e.w <= t && !removed(e.u) && !removed(e.v) {
            ds.union(e.u, e.v);
        }
    }
    group_by_root(g, &mut ds, removed)
}

/// Groups non-removed vertices by union-find root into the canonical class
/// order (members sorted, classes ordered by smallest member).
///
/// Vertices are visited in ascending id order and roots are mapped to class
/// slots through a dense `u32` table (no hashing), so members arrive in each
/// class already sorted and classes appear in order of smallest member — the
/// canonical form falls out of the scan with no sort passes.
fn group_by_root(
    g: &Wpg,
    ds: &mut DisjointSets,
    removed: &(dyn Fn(UserId) -> bool + '_),
) -> Vec<Vec<UserId>> {
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of_root = vec![NO_SLOT; g.n()];
    let mut comps: Vec<Vec<UserId>> = Vec::new();
    for u in 0..g.n() as UserId {
        if removed(u) {
            continue;
        }
        let root = ds.find(u) as usize;
        let slot = if slot_of_root[root] == NO_SLOT {
            slot_of_root[root] = comps.len() as u32;
            comps.push(Vec::new());
            comps.len() - 1
        } else {
            slot_of_root[root] as usize
        };
        comps[slot].push(u);
    }
    comps
}

/// No vertex removed; convenience for whole-graph queries.
pub fn nothing_removed(_: UserId) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, Wpg};

    /// Paper Fig. 6(a): the 10-vertex example used for centralized
    /// 2-clustering. Vertices 0..=4 form the left pentagon-ish cluster,
    /// 5..=9 the right one; weights as printed.
    pub(crate) fn fig6_graph() -> Wpg {
        Wpg::from_edges(
            10,
            &[
                // left component (weights 6,7,5,3 inside; 8 bridges right)
                Edge::new(0, 1, 6),
                Edge::new(1, 2, 7),
                Edge::new(2, 3, 5),
                Edge::new(3, 4, 3),
                Edge::new(4, 0, 7),
                // bridge
                Edge::new(2, 5, 8),
                // right component (weights 6,4,3,6,6)
                Edge::new(5, 6, 6),
                Edge::new(6, 7, 4),
                Edge::new(7, 8, 3),
                Edge::new(8, 9, 6),
                Edge::new(9, 5, 6),
            ],
        )
    }

    #[test]
    fn union_find_merges_and_counts() {
        let mut ds = DisjointSets::new(5);
        assert!(ds.union(0, 1));
        assert!(ds.union(1, 2));
        assert!(!ds.union(0, 2));
        assert_eq!(ds.size_of(2), 3);
        assert_eq!(ds.size_of(3), 1);
        assert!(ds.same(0, 2));
        assert!(!ds.same(0, 4));
    }

    #[test]
    fn t_cluster_respects_threshold() {
        let g = fig6_graph();
        // At t=7 the bridge (w=8) is cut: cluster of 0 is the left half.
        let mut c = t_cluster_of(&g, 0, 7, &nothing_removed);
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2, 3, 4]);
        // At t=8 everything is one class.
        assert_eq!(t_cluster_of(&g, 0, 8, &nothing_removed).len(), 10);
        // At t=3 only the single light edge (3,4) joins anything to 0's side.
        let mut c3 = t_cluster_of(&g, 3, 3, &nothing_removed);
        c3.sort_unstable();
        assert_eq!(c3, vec![3, 4]);
    }

    #[test]
    fn removed_vertices_block_paths() {
        let g = fig6_graph();
        // Removing vertex 2 disconnects 0's side from the bridge at any t.
        let removed = |u: UserId| u == 2;
        let mut c = t_cluster_of(&g, 0, 8, &removed);
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 3, 4]);
    }

    #[test]
    fn bounded_bfs_stops_early() {
        let g = fig6_graph();
        let (c, hit) = t_cluster_bounded(&g, 0, 8, &nothing_removed, 3);
        assert_eq!(c.len(), 3);
        assert!(hit);
        let (c, hit) = t_cluster_bounded(&g, 0, 8, &nothing_removed, 100);
        assert_eq!(c.len(), 10);
        assert!(!hit);
    }

    #[test]
    fn has_t_cluster_of_size_matches_full_bfs() {
        let g = fig6_graph();
        for u in 0..10 {
            for t in [2, 3, 5, 6, 7, 8] {
                for k in [1usize, 2, 4, 6, 11] {
                    let full = t_cluster_of(&g, u, t, &nothing_removed).len() >= k;
                    assert_eq!(
                        has_t_cluster_of_size(&g, u, t, k, &nothing_removed),
                        full,
                        "u={u} t={t} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn are_t_connected_is_equivalence() {
        let g = fig6_graph();
        let none = nothing_removed;
        for t in [3, 5, 6, 7, 8] {
            // reflexive
            for u in 0..10 {
                assert!(are_t_connected(&g, u, u, t, &none));
            }
            // symmetric + transitive (spot check over all triples)
            for a in 0..10 {
                for b in 0..10 {
                    let ab = are_t_connected(&g, a, b, t, &none);
                    assert_eq!(ab, are_t_connected(&g, b, a, t, &none));
                    for c in 0..10 {
                        if ab && are_t_connected(&g, b, c, t, &none) {
                            assert!(are_t_connected(&g, a, c, t, &none));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn components_partition_vertices() {
        let g = fig6_graph();
        let comps = components_under(&g, 7, &nothing_removed);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(comps[1], vec![5, 6, 7, 8, 9]);
        // At t=8 a single class.
        assert_eq!(components_under(&g, 8, &nothing_removed).len(), 1);
        // Under removal, removed vertices vanish from the partition.
        let comps = components_under(&g, 8, &|u| u < 5);
        let all: Vec<UserId> = comps.concat();
        assert_eq!(all, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn isolated_vertex_is_singleton_class() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1)]);
        let comps = components_under(&g, 5, &nothing_removed);
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
        assert_eq!(t_cluster_of(&g, 2, 5, &nothing_removed), vec![2]);
    }
}
