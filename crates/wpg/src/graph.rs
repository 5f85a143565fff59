//! Compact storage for weighted proximity graphs.

use crate::Weight;
use nela_geo::UserId;

/// An undirected weighted edge. `u < v` is maintained by [`Wpg::from_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    pub u: UserId,
    pub v: UserId,
    pub w: Weight,
}

/// Ceiling on vertex count for the parallel CSR fill: above this the
/// per-thread degree histograms (`threads × n` u32 counters) outweigh the
/// scatter win and [`Wpg::from_edges_threads`] falls back to the serial
/// path. Same shape as the grid fill's cell guard.
const PARALLEL_CSR_MAX_VERTICES: usize = 1 << 22;

impl Edge {
    /// Creates an edge, normalizing endpoint order so `u < v`.
    #[inline]
    pub fn new(a: UserId, b: UserId, w: Weight) -> Self {
        debug_assert_ne!(a, b, "self loops are not allowed in a WPG");
        if a < b {
            Edge { u: a, v: b, w }
        } else {
            Edge { u: b, v: a, w }
        }
    }
}

/// A weighted proximity graph in CSR (compressed sparse row) form.
///
/// Vertices are dense `0..n` user ids. Each undirected edge is stored twice
/// (once per endpoint) so neighbor iteration is a contiguous slice scan; the
/// graphs built in the evaluation have ~10⁵ vertices and ≤ M·n/2 edges, so
/// this stays well within cache-friendly sizes.
#[derive(Debug, Clone)]
pub struct Wpg {
    offsets: Vec<u32>,
    nbr_ids: Vec<UserId>,
    nbr_weights: Vec<Weight>,
    n_edges: usize,
}

impl Wpg {
    /// Builds a WPG over `n` vertices from an undirected edge list: a
    /// [`Wpg::refill_from_edges`] of an empty graph.
    ///
    /// Duplicate edges are rejected in debug builds; callers (the builder and
    /// the topology generators) construct deduplicated lists.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut g = Wpg {
            offsets: Vec::new(),
            nbr_ids: Vec::new(),
            nbr_weights: Vec::new(),
            n_edges: 0,
        };
        g.refill_from_edges(n, edges);
        g
    }

    /// Rebuilds this graph in place over `n` vertices from an undirected
    /// edge list, reusing the existing CSR buffers — allocation-free once
    /// they reach steady size. A counting sort: each vertex's neighbors
    /// land in edge-list order. There is no cursor scratch: the scatter
    /// advances `offsets[v]` through `v`'s slice, which leaves `offsets[v]`
    /// holding `v+1`'s start, so one right-shift restores the offset array
    /// afterwards.
    pub fn refill_from_edges(&mut self, n: usize, edges: &[Edge]) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for e in edges {
            debug_assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge out of range"
            );
            self.offsets[e.u as usize + 1] += 1;
            self.offsets[e.v as usize + 1] += 1;
        }
        for i in 1..=n {
            self.offsets[i] += self.offsets[i - 1];
        }
        let total = self.offsets[n] as usize;
        self.nbr_ids.clear();
        self.nbr_ids.resize(total, 0);
        self.nbr_weights.clear();
        self.nbr_weights.resize(total, 0);
        for e in edges {
            let cu = &mut self.offsets[e.u as usize];
            self.nbr_ids[*cu as usize] = e.v;
            self.nbr_weights[*cu as usize] = e.w;
            *cu += 1;
            let cv = &mut self.offsets[e.v as usize];
            self.nbr_ids[*cv as usize] = e.u;
            self.nbr_weights[*cv as usize] = e.w;
            *cv += 1;
        }
        // Each offsets[v] now holds v's old end = v+1's start; shift right.
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        self.offsets[0] = 0;
        self.n_edges = edges.len();
        debug_assert!(self.check_no_duplicates(), "duplicate edges in WPG input");
    }

    /// Builds the same CSR as [`Wpg::from_edges`] with the degree count and
    /// the neighbor scatter split across `threads` scoped worker threads, as
    /// a parallel counting sort: per-chunk degree histograms, an exclusive prefix over (vertex, chunk) turning
    /// the histograms into disjoint write cursors, and a parallel scatter
    /// through `nela_par::ScatterWriter`. Chunk `t`'s entries for a vertex
    /// land after every earlier chunk's, in chunk-local edge order — exactly
    /// the serial emission order — so the result is **bit-identical** to
    /// [`Wpg::from_edges`] for any thread count. `threads <= 1` runs the
    /// serial path on the caller's thread.
    pub fn from_edges_threads(n: usize, edges: &[Edge], threads: usize) -> Self {
        let m = edges.len();
        let threads = nela_par::effective_threads(threads, m);
        if threads <= 1 || n > PARALLEL_CSR_MAX_VERTICES {
            return Self::from_edges(n, edges);
        }
        // Pass 1 (parallel): per-chunk degree histograms; every edge counts
        // once at each endpoint.
        let ranges = nela_par::chunk_ranges(m, threads);
        let mut chunk_deg: Vec<Vec<u32>> = nela_par::map_chunks(threads, m, |range| {
            let mut deg = vec![0u32; n];
            for e in &edges[range] {
                debug_assert!(
                    (e.u as usize) < n && (e.v as usize) < n,
                    "edge out of range"
                );
                deg[e.u as usize] += 1;
                deg[e.v as usize] += 1;
            }
            deg
        });
        // Exclusive prefix over (vertex, chunk): chunk_deg[t][v] becomes the
        // first write cursor of chunk t inside v's neighbor slice.
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            let mut acc = 0u32;
            for deg in chunk_deg.iter_mut() {
                let here = deg[v];
                deg[v] = acc;
                acc += here;
            }
            offsets[v + 1] = acc;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        let total = offsets[n] as usize;
        let mut nbr_ids = vec![0 as UserId; total];
        let mut nbr_weights = vec![0 as Weight; total];
        // Pass 2 (parallel): scatter both directed copies of every edge into
        // the disjoint cursor ranges.
        {
            let ids = nela_par::ScatterWriter::new(&mut nbr_ids);
            let weights = nela_par::ScatterWriter::new(&mut nbr_weights);
            let offsets_ref = &offsets;
            std::thread::scope(|scope| {
                for (range, mut cursors) in ranges.into_iter().zip(chunk_deg) {
                    let ids = &ids;
                    let weights = &weights;
                    scope.spawn(move || {
                        for e in &edges[range] {
                            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                                let a = a as usize;
                                let at = (offsets_ref[a] + cursors[a]) as usize;
                                cursors[a] += 1;
                                // SAFETY: cursor ranges are disjoint per
                                // (vertex, chunk) by the prefix-sum
                                // construction, so every index is written
                                // exactly once.
                                unsafe {
                                    ids.write(at, b);
                                    weights.write(at, e.w);
                                }
                            }
                        }
                    });
                }
            });
        }
        let g = Wpg {
            offsets,
            nbr_ids,
            nbr_weights,
            n_edges: m,
        };
        debug_assert!(g.check_no_duplicates(), "duplicate edges in WPG input");
        g
    }

    fn check_no_duplicates(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        for u in 0..self.n() as UserId {
            seen.clear();
            for (v, _) in self.neighbors(u) {
                if v == u || !seen.insert(v) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.n_edges
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: UserId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Average vertex degree — the x-axis of the paper's Fig. 9.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Iterates `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn neighbors(&self, u: UserId) -> impl Iterator<Item = (UserId, Weight)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.nbr_ids[lo..hi]
            .iter()
            .copied()
            .zip(self.nbr_weights[lo..hi].iter().copied())
    }

    /// Weight of edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: UserId, v: UserId) -> Option<Weight> {
        self.neighbors(u).find(|&(x, _)| x == v).map(|(_, w)| w)
    }

    /// Iterates every undirected edge exactly once (as `u < v`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n() as UserId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| Edge { u, v, w })
        })
    }

    /// Maximum edge weight (MEW) over the whole graph; `None` when edgeless.
    pub fn max_weight(&self) -> Option<Weight> {
        self.nbr_weights.iter().copied().max()
    }

    /// True when every vertex in `members` can reach every other through
    /// edges whose *both* endpoints are in `members` (ignoring weights).
    pub fn is_connected_subset(&self, members: &[UserId]) -> bool {
        if members.is_empty() {
            return true;
        }
        let member_set: std::collections::HashSet<UserId> = members.iter().copied().collect();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![members[0]];
        visited.insert(members[0]);
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if member_set.contains(&v) && visited.insert(v) {
                    stack.push(v);
                }
            }
        }
        visited.len() == members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Wpg {
        // 0-1 (w1), 1-2 (w2), 2-3 (w3), 3-0 (w4), 0-2 (w5)
        Wpg::from_edges(
            4,
            &[
                Edge::new(0, 1, 1),
                Edge::new(1, 2, 2),
                Edge::new(2, 3, 3),
                Edge::new(3, 0, 4),
                Edge::new(0, 2, 5),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        assert!((g.avg_degree() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn neighbors_and_weights() {
        let g = diamond();
        let mut n0: Vec<_> = g.neighbors(0).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![(1, 1), (2, 5), (3, 4)]);
    }

    #[test]
    fn edge_weight_lookup_both_directions() {
        let g = diamond();
        assert_eq!(g.edge_weight(0, 2), Some(5));
        assert_eq!(g.edge_weight(2, 0), Some(5));
        assert_eq!(g.edge_weight(1, 3), None);
    }

    #[test]
    fn edges_iterated_once_each() {
        let g = diamond();
        let mut es: Vec<_> = g.edges().map(|e| (e.u, e.v, e.w)).collect();
        es.sort_unstable();
        assert_eq!(
            es,
            vec![(0, 1, 1), (0, 2, 5), (0, 3, 4), (1, 2, 2), (2, 3, 3)]
        );
    }

    #[test]
    fn max_and_distinct_weights() {
        let g = diamond();
        assert_eq!(g.max_weight(), Some(5));
    }

    #[test]
    fn empty_graph() {
        let g = Wpg::from_edges(3, &[]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_weight(), None);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn from_edges_threads_is_bit_identical_to_serial() {
        // A messy edge set: skewed degrees, duplicated endpoints across many
        // chunks, weights out of order.
        let n = 50usize;
        let mut edges = Vec::new();
        for i in 0..n as UserId {
            for j in 1..=3u32 {
                let v = (i + j * 7) % n as UserId;
                if v != i && i < v {
                    edges.push(Edge::new(i, v, (i + j) % 9 + 1));
                }
            }
        }
        let serial = Wpg::from_edges(n, &edges);
        for threads in [1usize, 2, 3, 4, 8] {
            let par = Wpg::from_edges_threads(n, &edges, threads);
            assert_eq!(par.offsets, serial.offsets, "threads={threads}");
            assert_eq!(par.nbr_ids, serial.nbr_ids, "threads={threads}");
            assert_eq!(par.nbr_weights, serial.nbr_weights, "threads={threads}");
            assert_eq!(par.m(), serial.m());
        }
        // Empty edge lists must not spawn or misbuild.
        let empty = Wpg::from_edges_threads(4, &[], 8);
        assert_eq!(empty.n(), 4);
        assert_eq!(empty.m(), 0);
    }

    #[test]
    fn refill_is_bit_identical_to_from_edges() {
        let n = 40usize;
        let mut edges = Vec::new();
        for i in 0..n as UserId {
            for j in 1..=2u32 {
                let v = (i + j * 11) % n as UserId;
                if i < v {
                    edges.push(Edge::new(i, v, (i + j) % 6 + 1));
                }
            }
        }
        let fresh = Wpg::from_edges(n, &edges);
        // Refill a graph that previously held something else entirely.
        let mut reused = Wpg::from_edges(7, &[Edge::new(0, 3, 2), Edge::new(1, 2, 1)]);
        reused.refill_from_edges(n, &edges);
        assert_eq!(reused.offsets, fresh.offsets);
        assert_eq!(reused.nbr_ids, fresh.nbr_ids);
        assert_eq!(reused.nbr_weights, fresh.nbr_weights);
        assert_eq!(reused.m(), fresh.m());
        // Refilling with an empty edge list over fewer vertices also works.
        reused.refill_from_edges(3, &[]);
        assert_eq!(reused.n(), 3);
        assert_eq!(reused.m(), 0);
    }

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(5, 2, 7);
        assert_eq!((e.u, e.v), (2, 5));
    }

    #[test]
    fn connected_subset() {
        let g = diamond();
        assert!(g.is_connected_subset(&[0, 1, 2]));
        assert!(g.is_connected_subset(&[0, 1, 2, 3]));
        // 1 and 3 are not adjacent: the subset {1,3} is disconnected.
        assert!(!g.is_connected_subset(&[1, 3]));
        assert!(g.is_connected_subset(&[]));
        assert!(g.is_connected_subset(&[2]));
    }
}
