//! Construction of a WPG from user positions.
//!
//! Mirrors the paper's §VI setup: each user can hear peers within the radio
//! range δ, keeps at most the `M` strongest of them, and the weight of edge
//! `(a, b)` is `min(rank of a in b's RSS-sorted peer list, rank of b in a's
//! list)` — the minimum makes the weight symmetric and "agreed by both"
//! (§IV). An edge exists only when each endpoint appears in the other's
//! retained top-M list, which is what "each user can connect to at most M
//! peers" implies for point-to-point links.

use crate::graph::{Edge, Wpg};
use crate::rss::RssModel;
use nela_geo::{GridIndex, Point, UserId};
use std::cmp::Ordering;

/// The rank order of scored peers: strongest RSS first, ties to the lower
/// id. A total order over `(rss, id)` keys with distinct ids, so the rank
/// list it sorts is unique.
#[inline]
pub(crate) fn rank_order(a: &(f64, UserId), b: &(f64, UserId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Cuts `scored` (distinct ids) down to its `keep` strongest entries, sorted
/// strongest first in `(rss desc, id asc)` order, and returns the strongest
/// entry it cut, if any.
///
/// The order is total, so selecting the top `keep` and sorting only them
/// gives the same list as stably sorting everything and truncating — in
/// place, without the merge sort's buffer for lists longer than 20.
pub fn keep_strongest(scored: &mut Vec<(f64, UserId)>, keep: usize) -> Option<(f64, UserId)> {
    let cut = (scored.len() > keep).then(|| {
        let (_, &mut cut, _) = scored.select_nth_unstable_by(keep, rank_order);
        scored.truncate(keep);
        cut
    });
    scored.sort_unstable_by(rank_order);
    cut
}

/// Flat CSR-style per-user rank lists: user `u`'s retained peers are
/// `peers[offsets[u]..offsets[u+1]]`, strongest first, and a peer's 1-based
/// RSS rank is its position in that slice plus one. Storing ranks implicitly
/// replaces the previous `Vec<Vec<(UserId, u32)>>` (one heap allocation per
/// user and 8 bytes per entry of redundant rank) with two flat arrays the
/// edge pass scans sequentially.
#[derive(Debug, Clone)]
pub(crate) struct RankLists {
    offsets: Vec<u32>,
    peers: Vec<UserId>,
}

impl RankLists {
    /// `u`'s retained peers, strongest first.
    #[inline]
    pub(crate) fn peers_of(&self, u: UserId) -> &[UserId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.peers[lo..hi]
    }

    /// 1-based rank of `x` in `u`'s list, or `None` when not retained.
    /// Linear scan over at most M entries — the lists are tiny.
    #[inline]
    pub(crate) fn rank_of(&self, u: UserId, x: UserId) -> Option<u32> {
        self.peers_of(u)
            .iter()
            .position(|&p| p == x)
            .map(|i| i as u32 + 1)
    }
}

/// Builder of weighted proximity graphs. See module docs for semantics.
#[derive(Debug, Clone)]
pub struct WpgBuilder<R: RssModel> {
    /// Radio range δ: peers farther than this are never heard.
    pub delta: f64,
    /// Peer cap M: each device retains only its M strongest peers.
    pub max_peers: usize,
    /// The RSS measurement model.
    pub rss: R,
}

impl<R: RssModel> WpgBuilder<R> {
    /// Creates a builder with the given radio range, peer cap, and RSS model.
    pub fn new(delta: f64, max_peers: usize, rss: R) -> Self {
        assert!(delta > 0.0, "radio range must be positive");
        assert!(max_peers > 0, "peer cap must be positive");
        WpgBuilder {
            delta,
            max_peers,
            rss,
        }
    }

    /// Builds the WPG over `points`. `O(n · m log m)` where `m` is the mean
    /// in-range peer count.
    pub fn build(&self, points: &[Point]) -> Wpg {
        let index = GridIndex::build(points, self.delta);
        self.build_with_index(points, &index)
    }

    /// Builds the WPG reusing an existing grid index over the same `points`.
    pub fn build_with_index(&self, points: &[Point], index: &GridIndex) -> Wpg {
        self.build_with_index_threads(points, index, 1)
    }

    /// Builds the WPG over `points` splitting the grid build, the per-user
    /// rank lists, and the mutual-edge pass across `threads` scoped worker
    /// threads. Bit-identical to the serial [`WpgBuilder::build`] for any
    /// thread count (see [`WpgBuilder::build_with_index_threads`]).
    pub fn build_threads(&self, points: &[Point], threads: usize) -> Wpg {
        let index = GridIndex::build_threads(points, self.delta, threads);
        self.build_with_index_threads(points, &index, threads)
    }

    /// Builds the WPG reusing an existing grid index, with the per-user rank
    /// lists and the mutual-edge pass split across `threads` scoped worker
    /// threads.
    ///
    /// Every per-user computation is independent and the deterministic
    /// tie-breaks (RSS descending, then id ascending) fix each rank list
    /// uniquely, so chunked execution reassembled in index order yields a
    /// graph **bit-identical** to the serial build for any thread count.
    /// `threads = 1` runs the exact serial loops on the caller's thread.
    pub fn build_with_index_threads(
        &self,
        points: &[Point],
        index: &GridIndex,
        threads: usize,
    ) -> Wpg {
        assert_eq!(points.len(), index.len(), "index does not match points");
        let _build_span = nela_obs::span(nela_obs::stage::WPG_BUILD);
        let n = points.len();
        // Per-user top-M peer lists, chunked over users. Each chunk appends
        // into one flat arena (`peers` + per-user lengths) instead of
        // allocating a Vec per user; the δ-query and score scratch buffers
        // are likewise reused across every user of the chunk, so a chunk's
        // allocation count is O(1) after the buffers reach steady size.
        let rank_span = nela_obs::span(nela_obs::stage::WPG_RANK);
        let chunk_lists: Vec<(Vec<UserId>, Vec<u32>)> = nela_par::map_chunks(threads, n, |range| {
            let mut buf: Vec<(UserId, f64)> = Vec::new();
            let mut scored: Vec<(f64, UserId)> = Vec::new();
            let mut peers: Vec<UserId> = Vec::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            for u in range {
                let u = u as UserId;
                index.neighbors_within(u, self.delta, &mut buf);
                scored.clear();
                scored.extend(buf.iter().map(|&(v, d_sq)| {
                    // The grid already computed the squared distance;
                    // distance-driven models skip recomputing it.
                    (
                        self.rss.rss_from_dist_sq(
                            u,
                            points[u as usize],
                            v,
                            points[v as usize],
                            d_sq,
                        ),
                        v,
                    )
                }));
                // Strongest first; tie-break on id so the build is
                // deterministic.
                keep_strongest(&mut scored, self.max_peers);
                peers.extend(scored.iter().map(|&(_, v)| v));
                lens.push(scored.len() as u32);
            }
            (peers, lens)
        });
        // Stitch the chunk arenas into one CSR in chunk (= user) order.
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        offsets.push(0);
        let total: usize = chunk_lists.iter().map(|(p, _)| p.len()).sum();
        let mut peers: Vec<UserId> = Vec::with_capacity(total);
        let mut acc = 0u32;
        for (chunk_peers, lens) in chunk_lists {
            for len in lens {
                acc += len;
                offsets.push(acc);
            }
            peers.extend(chunk_peers);
        }
        let rank_of = RankLists { offsets, peers };
        drop(rank_span);
        // Mutual edges with min-rank weights: each chunk emits the edges
        // whose lower endpoint falls in its range; concatenating in chunk
        // order reproduces the serial emission order exactly. Ranks are the
        // (position + 1) of a peer in the flat list, so iterating a slice in
        // order recovers exactly the ranks the old (id, rank) pairs stored.
        let edge_span = nela_obs::span(nela_obs::stage::WPG_EDGES);
        let rank_of_ref = &rank_of;
        let edge_chunks: Vec<Vec<Edge>> = nela_par::map_chunks(threads, n, move |range| {
            let mut edges = Vec::new();
            for u in range {
                let u = u as UserId;
                for (i, &v) in rank_of_ref.peers_of(u).iter().enumerate() {
                    if v <= u {
                        continue; // handle each unordered pair once, from the lower id
                    }
                    let rank_v_at_u = i as u32 + 1;
                    if let Some(rank_u_at_v) = rank_of_ref.rank_of(v, u) {
                        edges.push(Edge::new(u, v, rank_v_at_u.min(rank_u_at_v)));
                    }
                }
            }
            edges
        });
        let mut edges = Vec::new();
        for chunk in edge_chunks {
            edges.extend(chunk);
        }
        drop(edge_span);
        // CSR assembly was the build's last serial stage; the counting-sort
        // fill is bit-identical to the serial `from_edges`.
        let _csr_span = nela_obs::span(nela_obs::stage::WPG_CSR);
        Wpg::from_edges_threads(n, &edges, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rss::InverseDistanceRss;

    fn line_points() -> Vec<Point> {
        // Users on a line at x = 0.1, 0.2, ..., 0.5.
        (1..=5).map(|i| Point::new(i as f64 * 0.1, 0.5)).collect()
    }

    #[test]
    fn ranks_are_mutual_minimum() {
        let pts = line_points();
        // δ large enough to hear everyone, M = 2.
        let g = WpgBuilder::new(1.0, 2, InverseDistanceRss).build(&pts);
        // User 0 (x=0.1) hears 1 (rank 1) and 2 (rank 2).
        // User 2 (x=0.3) hears 1 and 3 (ranks 1,2 by tie-break on id).
        // Edge (0,1): rank of 1 at 0 is 1; rank of 0 at 1 is 1 (distance tie
        // between 0 and 2 at distance 0.1 broken toward lower id). Weight 1.
        assert_eq!(g.edge_weight(0, 1), Some(1));
        // Edge (0,2) requires mutual membership: 2 keeps {1,3}, not 0 → absent.
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn degree_bounded_by_m() {
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                let a = i as f64 / 40.0 * std::f64::consts::TAU;
                Point::new(0.5 + 0.01 * a.cos(), 0.5 + 0.01 * a.sin())
            })
            .collect();
        let m = 5;
        let g = WpgBuilder::new(1.0, m, InverseDistanceRss).build(&pts);
        for u in 0..g.n() as UserId {
            assert!(g.degree(u) <= m, "degree of {u} exceeds M");
        }
    }

    #[test]
    fn delta_limits_edges() {
        let pts = line_points();
        // δ = 0.15 only reaches immediate line neighbors (0.1 apart).
        let g = WpgBuilder::new(0.15, 10, InverseDistanceRss).build(&pts);
        assert_eq!(g.m(), 4); // a path graph
        assert_eq!(g.edge_weight(0, 2), None);
        assert!(g.edge_weight(1, 2).is_some());
    }

    #[test]
    fn weights_bounded_by_m() {
        let pts = nela_geo::DatasetSpec::small_uniform(300, 9).generate();
        let m = 6;
        let g = WpgBuilder::new(0.1, m, InverseDistanceRss).build(&pts);
        assert!(g.m() > 0);
        for e in g.edges() {
            assert!(e.w >= 1 && e.w <= m as u32);
        }
    }

    #[test]
    fn deterministic_for_same_input() {
        let pts = nela_geo::DatasetSpec::small_uniform(200, 4).generate();
        let b = WpgBuilder::new(0.08, 8, InverseDistanceRss);
        let g1 = b.build(&pts);
        let g2 = b.build(&pts);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn isolated_users_have_no_edges() {
        let pts = vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.9),
            Point::new(0.1, 0.9),
        ];
        let g = WpgBuilder::new(0.01, 4, InverseDistanceRss).build(&pts);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        let pts = nela_geo::DatasetSpec::small_uniform(600, 21).generate();
        let b = WpgBuilder::new(0.08, 6, InverseDistanceRss);
        let serial = b.build(&pts);
        let serial_edges: Vec<_> = serial.edges().collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let par = b.build_threads(&pts, threads);
            let par_edges: Vec<_> = par.edges().collect();
            assert_eq!(par_edges, serial_edges, "threads={threads}");
        }
    }

    #[test]
    fn keep_strongest_matches_stable_sort_and_truncate() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [0usize, 1, 5, 19, 20, 21, 64] {
            // Few distinct scores (ties resolve by id) plus a negative zero.
            let scored: Vec<(f64, UserId)> = (0..len)
                .map(|i| {
                    let rss = match next() % 5 {
                        0 => -0.0,
                        k => -(k as f64),
                    };
                    (rss, (next() % 1000) as UserId * 100 + i as UserId)
                })
                .collect();
            for keep in [0usize, 1, 3, 10, 20, 70] {
                let mut expect = scored.clone();
                expect.sort_by(rank_order);
                let cut = expect.get(keep).copied();
                expect.truncate(keep);
                let mut got = scored.clone();
                let got_cut = keep_strongest(&mut got, keep);
                assert_eq!(got, expect, "len {len} keep {keep}");
                assert_eq!(got_cut, cut, "len {len} keep {keep}");
            }
        }
    }

    #[test]
    fn larger_m_never_decreases_degree() {
        let pts = nela_geo::DatasetSpec::small_uniform(500, 12).generate();
        let g4 = WpgBuilder::new(0.1, 4, InverseDistanceRss).build(&pts);
        let g16 = WpgBuilder::new(0.1, 16, InverseDistanceRss).build(&pts);
        assert!(g16.avg_degree() >= g4.avg_degree());
    }
}
