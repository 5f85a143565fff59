//! Construction of a WPG from user positions.
//!
//! Mirrors the paper's §VI setup: each user can hear peers within the radio
//! range δ, keeps at most the `M` strongest of them, and the weight of edge
//! `(a, b)` is `min(rank of a in b's RSS-sorted peer list, rank of b in a's
//! list)` — the minimum makes the weight symmetric and "agreed by both"
//! (§IV). An edge exists only when each endpoint appears in the other's
//! retained top-M list, which is what "each user can connect to at most M
//! peers" implies for point-to-point links.
//!
//! That rule is written once, in [`RankRows`]: a per-user table of kept
//! peers, strongest first, read as the graph it defines. The builder fills
//! one from positions, [`crate::IncrementalWpg`] maintains one under
//! mobility, and the netsim crate's neighbor discovery fills one from
//! beacons; all three build their graph through the same edge pass.

use crate::graph::{Edge, Wpg};
use crate::rss::RssModel;
use crate::Weight;
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
        self.build_with_index_threads(points, &index, 1)
    }

    /// Builds the WPG reusing an existing grid index over the same `points`,
    /// with the per-user rank lists and the mutual-edge pass split across
    /// `threads` scoped worker threads.
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
        let chunks: Vec<(Vec<UserId>, Vec<u32>)> = nela_par::map_chunks(threads, n, |range| {
            let mut buf: Vec<(UserId, f64)> = Vec::new();
            let mut scored: Vec<(f64, UserId)> = Vec::new();
            let mut peers: Vec<UserId> = Vec::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            for u in range {
                let u = u as UserId;
                index.neighbors_within(u, self.delta, &mut buf);
                self.rank_peers(points, u, &buf, self.max_peers, &mut scored);
                peers.extend(scored.iter().map(|&(_, v)| v));
                lens.push(scored.len() as u32);
            }
            (peers, lens)
        });
        // The rank table: one slot per user, as wide as the longest kept
        // list. That is at most M, and at most the largest in-range count
        // however large M is set.
        let width = chunks
            .iter()
            .flat_map(|(_, lens)| lens)
            .max()
            .map_or(0, |&w| w as usize);
        let mut ids: Vec<UserId> = vec![0; n * width];
        let mut lens: Vec<u32> = Vec::with_capacity(n);
        for (peers, chunk_lens) in chunks {
            let mut at = 0;
            for len in chunk_lens {
                let (slot, len) = (lens.len() * width, len as usize);
                ids[slot..slot + len].copy_from_slice(&peers[at..at + len]);
                at += len;
                lens.push(len as u32);
            }
        }
        drop(rank_span);
        let edge_span = nela_obs::span(nela_obs::stage::WPG_EDGES);
        let edges = RankRows::new(&ids, &lens, width).edges_threads(threads);
        drop(edge_span);
        // CSR assembly was the build's last serial stage; the counting-sort
        // fill is bit-identical to the serial `from_edges`.
        let _csr_span = nela_obs::span(nela_obs::stage::WPG_CSR);
        Wpg::from_edges_threads(n, &edges, threads)
    }

    /// Ranks `u`'s δ-probe, its in-range `(peer, d²)` pairs: scores each
    /// peer with `u` as receiver into `scored`, cuts the list to the `keep`
    /// strongest ([`keep_strongest`]) and returns the strongest entry cut.
    /// The grid already computed each squared distance, so distance-driven
    /// models skip recomputing it. The builder's rank pass and every
    /// [`crate::IncrementalWpg`] probe rank through here.
    #[inline]
    pub(crate) fn rank_peers(
        &self,
        points: &[Point],
        u: UserId,
        probe: &[(UserId, f64)],
        keep: usize,
        scored: &mut Vec<(f64, UserId)>,
    ) -> Option<(f64, UserId)> {
        let pu = points[u as usize];
        scored.clear();
        scored.extend(probe.iter().map(|&(v, d_sq)| {
            (
                self.rss
                    .rss_from_dist_sq(u, pu, v, points[v as usize], d_sq),
                v,
            )
        }));
        keep_strongest(scored, keep)
    }
}

/// A borrowed per-user rank table, read as the WPG it defines. It is the
/// one layout every WPG is built from: [`WpgBuilder`] and the netsim
/// crate's neighbor discovery fill a table and read it through
/// [`RankRows::new`], and [`crate::IncrementalWpg::rows`] lends its
/// candidate lists as one.
///
/// An edge `(u, v)` exists when each lists the other, with weight the
/// smaller of the two ranks ([`RankRows::mutual_weight`]). The edge pass
/// ([`RankRows::emit_edges`]) emits each edge from its lower endpoint,
/// lower endpoints ascending and each one's peers in rank order, and the
/// CSR fill appends every edge to both endpoints' rows in emission order.
/// So [`RankRows::row_into`] returns `u`'s CSR row of
/// [`RankRows::to_wpg`] exactly, in order: first the edges it received from
/// lower peers, ascending by id, then the edges it emitted to higher peers,
/// in `u`'s rank order.
#[derive(Debug, Clone, Copy)]
pub struct RankRows<'a> {
    /// User `u`'s peers, strongest first, are the first min(m, `lens[u]`)
    /// ids of its slot, `ids[u·stride ..]`.
    pub(crate) ids: &'a [UserId],
    pub(crate) lens: &'a [u32],
    pub(crate) stride: usize,
    pub(crate) m: usize,
}

impl<'a> RankRows<'a> {
    /// The rows of a table with one `width`-wide slot per user: user `u`'s
    /// kept peers, strongest first, are the first `lens[u]` ids of
    /// `ids[u·width .. (u+1)·width]` (a length past `width` reads as
    /// `width`).
    ///
    /// # Panics
    /// Panics unless `ids` holds exactly `lens.len() · width` ids.
    pub fn new(ids: &'a [UserId], lens: &'a [u32], width: usize) -> Self {
        assert_eq!(ids.len(), lens.len() * width, "not one slot per user");
        RankRows {
            ids,
            lens,
            stride: width,
            m: width,
        }
    }

    /// Number of users.
    #[inline]
    pub fn n(&self) -> usize {
        self.lens.len()
    }

    /// `u`'s retained peers, strongest first; a peer's 1-based RSS rank is
    /// its position in the slice plus one.
    #[inline]
    pub fn peers_of(&self, u: UserId) -> &'a [UserId] {
        let lo = u as usize * self.stride;
        &self.ids[lo..lo + self.m.min(self.lens[u as usize] as usize)]
    }

    /// The weight of the edge between `u` and `v = peers_of(u)[i]`: the
    /// smaller of the two mutual ranks, or `None` when `v` does not list
    /// `u` (no edge). The reverse rank is a linear probe of `v`'s ≤ M-entry
    /// row.
    #[inline]
    pub fn mutual_weight(&self, u: UserId, i: usize, v: UserId) -> Option<Weight> {
        let at = self.peers_of(v).iter().position(|&p| p == u)?;
        Some((i as Weight + 1).min(at as Weight + 1))
    }

    /// Appends to `out` `u`'s `(neighbor, weight)` row exactly as the
    /// graph's CSR holds it: peers below `u` ascending by id, then peers
    /// above `u` in `u`'s rank order (see the type docs for why). What
    /// `out` held before is left as it was, so a caller can gather rows
    /// into one arena.
    pub fn row_into(&self, u: UserId, out: &mut Vec<(UserId, Weight)>) {
        let start = out.len();
        let row = self.peers_of(u);
        for (i, &v) in row.iter().enumerate() {
            if v < u {
                if let Some(w) = self.mutual_weight(u, i, v) {
                    out.push((v, w));
                }
            }
        }
        out[start..].sort_unstable_by_key(|&(v, _)| v);
        for (i, &v) in row.iter().enumerate() {
            if v > u {
                if let Some(w) = self.mutual_weight(u, i, v) {
                    out.push((v, w));
                }
            }
        }
    }

    /// Emits the mutual min-rank edges whose lower endpoint lies in `users`,
    /// `u` ascending and each `u`'s peers in rank order. This is the one
    /// edge pass of every WPG build.
    pub fn emit_edges(&self, users: std::ops::Range<usize>, edges: &mut Vec<Edge>) {
        for u in users {
            let u = u as UserId;
            for (i, &v) in self.peers_of(u).iter().enumerate() {
                if v <= u {
                    continue; // handle each unordered pair once, from the lower id
                }
                if let Some(w) = self.mutual_weight(u, i, v) {
                    edges.push(Edge::new(u, v, w));
                }
            }
        }
    }

    /// Every edge, emitted in chunks of lower endpoints over `threads`
    /// scoped workers. Chunks are concatenated in user order, so the list
    /// equals the serial emission for any thread count.
    pub fn edges_threads(&self, threads: usize) -> Vec<Edge> {
        let chunks = nela_par::map_chunks(threads, self.n(), |users| {
            let mut edges = Vec::new();
            self.emit_edges(users, &mut edges);
            edges
        });
        let mut chunks = chunks.into_iter();
        let mut edges = chunks.next().unwrap_or_default();
        for chunk in chunks {
            edges.extend(chunk);
        }
        edges
    }

    /// True when `g` covers the same users and every CSR row of `g` equals
    /// this view's row, in order and with weights — the check a rebuild
    /// must pass against the maintained rows.
    pub fn matches_csr(&self, g: &Wpg) -> bool {
        let mut row = Vec::new();
        g.n() == self.n()
            && (0..g.n() as UserId).all(|u| {
                row.clear();
                self.row_into(u, &mut row);
                row.iter().copied().eq(g.neighbors(u))
            })
    }

    /// Materializes the whole graph as a CSR, serially.
    pub fn to_wpg(&self) -> Wpg {
        Wpg::from_edges(self.n(), &self.edges_threads(1))
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
            let grid = GridIndex::build(&pts, b.delta);
            let par = b.build_with_index_threads(&pts, &grid, threads);
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

    /// Five users in a three-wide table. Slots past a row's length hold
    /// ids that would add edges (1–3 and 0–3) if a row were read past it.
    fn hand_table() -> (Vec<UserId>, Vec<u32>) {
        let ids = vec![
            2, 1, 3, // 0
            0, 3, 2, // 1: lists only 0
            3, 0, 4, // 2
            1, 2, 0, // 3: lists 1 and 2, not 0
            3, 2, 1, // 4: lists 3 and 2
        ];
        (ids, vec![3, 1, 3, 2, 2])
    }

    #[test]
    fn rank_rows_emit_mutual_min_rank_edges_in_order() {
        let (ids, lens) = hand_table();
        let rows = RankRows::new(&ids, &lens, 3);
        // 0 lists 3 (rank 3) but 3 does not list 0, and 3 lists 1 but 1
        // does not list 3: one-sided listings give no edge. Each weight is
        // the smaller rank: (0, 2) ranks 1 at 0 and 2 at 2; (0, 1) ranks 2
        // at 0 and 1 at 1; (2, 4) ranks 3 at 2 and 2 at 4. Edges leave
        // their lower endpoint, ascending, in that endpoint's rank order.
        let want = vec![
            Edge::new(0, 2, 1),
            Edge::new(0, 1, 1),
            Edge::new(2, 3, 1),
            Edge::new(2, 4, 2),
        ];
        let mut got = Vec::new();
        rows.emit_edges(0..rows.n(), &mut got);
        assert_eq!(got, want);
        for threads in [1usize, 2, 3, 5, 8] {
            assert_eq!(rows.edges_threads(threads), want, "threads={threads}");
        }
        assert_eq!(rows.peers_of(1), &[0]);
        assert_eq!(rows.mutual_weight(0, 2, 3), None);
        // Chunks split anywhere concatenate to the serial emission.
        let mut split = Vec::new();
        rows.emit_edges(0..2, &mut split);
        rows.emit_edges(2..5, &mut split);
        assert_eq!(split, want);
        let g = rows.to_wpg();
        assert_eq!(g.edges().collect::<Vec<_>>(), want);
        assert!(rows.matches_csr(&g));
        let mut row = Vec::new();
        rows.row_into(2, &mut row);
        assert_eq!(row, vec![(0, 1), (3, 1), (4, 2)]);
    }

    #[test]
    fn rank_table_is_sized_by_the_longest_kept_list() {
        // A peer cap far above any in-range count builds the same graph as
        // a cap of n − 1; a table with M-wide slots could not be allocated.
        let pts = nela_geo::DatasetSpec::small_uniform(300, 31).generate();
        let all = WpgBuilder::new(0.2, pts.len() - 1, InverseDistanceRss).build(&pts);
        assert!(all.m() > 0);
        for threads in [1usize, 2] {
            let grid = GridIndex::build(&pts, 0.2);
            let huge = WpgBuilder::new(0.2, 1 << 40, InverseDistanceRss)
                .build_with_index_threads(&pts, &grid, threads);
            assert_eq!(
                huge.edges().collect::<Vec<_>>(),
                all.edges().collect::<Vec<_>>(),
                "threads={threads}"
            );
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
