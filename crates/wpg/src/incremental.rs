//! Incremental WPG maintenance under user mobility.
//!
//! [`crate::WpgBuilder`] recomputes every user's δ-range query, RSS scores,
//! and top-M rank list on each call. When only a fraction of the population
//! moves between snapshots, almost all of that work is redundant: a user's
//! in-range peer set changes only by the movers that left or entered its
//! radio range, and every other peer keeps its RSS.
//!
//! [`IncrementalWpg`] therefore maintains the graph from the movers. Beside
//! its published top-M row, each user keeps a **candidate list** of up to 2M
//! `(id, rss)` pairs in `(rss desc, id asc)` order plus an optional
//! **floor** key, under one invariant: the list holds exactly the user's
//! in-range peers that rank above the floor (with no floor, the whole
//! in-range set). A list with a floor and at least M entries thus starts
//! with the user's top M. On [`IncrementalWpg::apply_moves`]:
//!
//! 1. every move is staged in the [`nela_geo::ShardedDynamicGrid`] and the
//!    batch is committed in one pass; the first staging of an id returns its
//!    tick-start position;
//! 2. **departures** — a δ-probe around each unique mover's tick-start
//!    position removes the mover from every non-mover's list;
//! 3. **arrivals** — a δ-probe around each mover's new position rebuilds the
//!    mover's own list and inserts the mover into each in-range non-mover's
//!    list if it ranks above that list's floor; a full list evicts its tail
//!    entry, which becomes the new floor;
//! 4. **underflow** — a non-mover with a floor left holding fewer than M
//!    entries is re-probed in full;
//! 5. **publish** — each touched user's top-M row is written, and the user
//!    enters [`IncrementalWpg::changed_users`] only if its ids changed.
//!
//! A tick's work thus follows the movers, not the density around them. When
//! many users move, two probes per mover cost more than one per user: a tick
//! with at least `n /` [`REPROBE_ALL_DIVISOR`] unique movers runs the
//! constructor's own loop over every user instead, chunked over `threads`
//! workers and bit-identical to serial.
//!
//! **Exactness.** A pushed RSS has the same bits as the receiver's own
//! probe: the kernel's squared distance is the same bits from either end
//! (`dx = qx − x` negates exactly), and the [`RssModel`] contract makes
//! `rss_from_dist_sq` equal `rss` at that distance, computed with the
//! non-mover as receiver. For the same reason a probe around a mover finds
//! exactly the non-movers whose own probe finds it, so the two probes see
//! every pair whose range or RSS changed; a pair of non-movers keeps both.
//! The final lists do not depend on the order movers are processed in:
//! every departure runs before any arrival and only removes, and inserting a
//! set of keys into a capped list leaves the same top entries and the same
//! floor (the strongest key ever evicted) in any order. The rank key is a
//! total order, so every published row equals `WpgBuilder::build`'s at the
//! current positions and [`IncrementalWpg::snapshot`] reconstructs the same
//! graph (vertices, edges, weights); `tests/incremental_equivalence.rs`
//! checks every CSR row and the changed set on every tick.
//!
//! **Serving from the rows.** [`IncrementalWpg::rows`] lends the published
//! rows as a [`RankRows`] view that answers one vertex at a time with
//! exactly the snapshot's CSR row, so a reader that needs a few rows per
//! tick (Algorithm 2's host fetches, the lifetime audit) never pays for a
//! snapshot of the whole graph.

use crate::builder::{keep_strongest, rank_order, WpgBuilder};
use crate::graph::{Edge, Wpg};
use crate::rss::RssModel;
use crate::Weight;
use nela_geo::{GridError, Point, ShardedDynamicGrid, UserId};

/// Counters describing one [`IncrementalWpg::apply_moves`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Unique users moved (duplicate ids in the batch count once; the last
    /// position per id wins).
    pub moved: usize,
    /// Users whose candidate list this tick touched: the movers plus every
    /// non-mover whose list lost or gained a mover or raised its floor — or
    /// every user, on a tick that re-probes everyone.
    pub dirty: usize,
    /// Users whose rank list actually changed (see
    /// [`IncrementalWpg::changed_users`]).
    pub changed: usize,
}

/// A tick whose unique movers reach `n / REPROBE_ALL_DIVISOR` re-probes every
/// user instead of pushing the movers: past that point two probes per mover
/// cost more than one probe per user (the sweep in DESIGN.md, "Mover-driven
/// WPG maintenance", puts the crossover there).
pub const REPROBE_ALL_DIVISOR: usize = 3;

/// Candidate-list capacity in units of M. Spare room past M lets departures
/// shrink a list without a re-probe: at 2M underflow re-probes are rare
/// (DESIGN.md) while the lists cost 12 bytes per entry.
const CAPACITY_PER_PEER: usize = 2;

/// Length and floor of one candidate list.
#[derive(Debug, Clone, Copy, Default)]
struct ListHead {
    /// Entries in use.
    len: u32,
    /// Every in-range peer missing from the list ranks at or below this
    /// `(rss, id)` key; `None` when the list holds the whole in-range set.
    floor: Option<(f64, UserId)>,
}

/// Every user's candidate list in flat arenas: user `u`'s list is
/// `ids/rss[u·cap .. u·cap + heads[u].len]`, strongest first.
#[derive(Debug, Clone)]
struct Candidates {
    cap: usize,
    ids: Vec<UserId>,
    rss: Vec<f64>,
    heads: Vec<ListHead>,
}

/// Writes a strongest-first list and its floor into one user's slots.
fn write_list(
    ids: &mut [UserId],
    rss: &mut [f64],
    head: &mut ListHead,
    list: &[(f64, UserId)],
    floor: Option<(f64, UserId)>,
) {
    for (i, &(r, v)) in list.iter().enumerate() {
        ids[i] = v;
        rss[i] = r;
    }
    *head = ListHead {
        len: list.len() as u32,
        floor,
    };
}

impl Candidates {
    fn new(n: usize, cap: usize) -> Self {
        Candidates {
            cap,
            ids: vec![0; n * cap],
            rss: vec![0.0; n * cap],
            heads: vec![ListHead::default(); n],
        }
    }

    /// Replaces `u`'s list.
    fn set(&mut self, u: UserId, list: &[(f64, UserId)], floor: Option<(f64, UserId)>) {
        let lo = u as usize * self.cap;
        write_list(
            &mut self.ids[lo..lo + self.cap],
            &mut self.rss[lo..lo + self.cap],
            &mut self.heads[u as usize],
            list,
            floor,
        );
    }

    /// Removes `v` from `u`'s list; true when it was there.
    fn remove(&mut self, u: UserId, v: UserId) -> bool {
        let lo = u as usize * self.cap;
        let head = &mut self.heads[u as usize];
        let hi = lo + head.len as usize;
        let Some(at) = self.ids[lo..hi].iter().position(|&p| p == v) else {
            return false;
        };
        self.ids.copy_within(lo + at + 1..hi, lo + at);
        self.rss.copy_within(lo + at + 1..hi, lo + at);
        head.len -= 1;
        true
    }

    /// Inserts `key` into `u`'s list if it ranks above the floor; a full
    /// list's tail becomes the new floor. True when the list or its floor
    /// changed.
    fn insert(&mut self, u: UserId, key: (f64, UserId)) -> bool {
        let head = &mut self.heads[u as usize];
        if head.floor.is_some_and(|f| rank_order(&key, &f).is_ge()) {
            return false;
        }
        let lo = u as usize * self.cap;
        let ids = &mut self.ids[lo..lo + self.cap];
        let rss = &mut self.rss[lo..lo + self.cap];
        let len = head.len as usize;
        let at = (0..len)
            .find(|&i| rank_order(&key, &(rss[i], ids[i])).is_lt())
            .unwrap_or(len);
        let last = self.cap - 1;
        if len == self.cap {
            if at == self.cap {
                head.floor = Some(key);
                return true;
            }
            head.floor = Some((rss[last], ids[last]));
            ids.copy_within(at..last, at + 1);
            rss.copy_within(at..last, at + 1);
        } else {
            ids.copy_within(at..len, at + 1);
            rss.copy_within(at..len, at + 1);
            head.len += 1;
        }
        ids[at] = key.1;
        rss[at] = key.0;
        true
    }

    /// `u`'s top `m` peers, strongest first. Exact when the list has no
    /// floor or holds at least `m` entries.
    fn top(&self, u: UserId, m: usize) -> &[UserId] {
        let lo = u as usize * self.cap;
        &self.ids[lo..lo + m.min(self.heads[u as usize].len as usize)]
    }
}

/// `u`'s full δ-probe: every in-range peer scored with `u` as receiver (the
/// grid's squared distance feeds the RSS fast path, as in the builder), cut
/// to the `cap` strongest in `scored`. Returns the list's floor; `buf` keeps
/// the probe's `(peer, d_sq)` pairs.
fn probe<R: RssModel>(
    grid: &ShardedDynamicGrid,
    builder: &WpgBuilder<R>,
    u: UserId,
    cap: usize,
    buf: &mut Vec<(UserId, f64)>,
    scored: &mut Vec<(f64, UserId)>,
) -> Option<(f64, UserId)> {
    grid.neighbors_within(u, builder.delta, buf);
    let points = grid.points();
    let pu = points[u as usize];
    scored.clear();
    scored.extend(buf.iter().map(|&(v, d_sq)| {
        (
            builder
                .rss
                .rss_from_dist_sq(u, pu, v, points[v as usize], d_sq),
            v,
        )
    }));
    keep_strongest(scored, cap)
}

/// One mover's effect on a non-mover's candidate list.
#[derive(Debug, Clone, Copy)]
enum Push {
    /// The mover left the receiver's range from its tick-start position.
    Depart(UserId),
    /// The mover is in range at its new position, with this `(rss, id)` key
    /// at the receiver.
    Arrive((f64, UserId)),
}

/// A WPG kept up to date under a stream of position updates.
#[derive(Debug, Clone)]
pub struct IncrementalWpg<R: RssModel> {
    builder: WpgBuilder<R>,
    grid: ShardedDynamicGrid,
    /// Worker threads for whole-population probes and threaded snapshots.
    threads: usize,
    /// Flat rank arena: user `u`'s published peers, strongest first, are
    /// `rank_peers[u·M .. u·M + rank_len[u]]`; a peer's 1-based rank is its
    /// position in that row plus one (`M = builder.max_peers`).
    rank_peers: Vec<UserId>,
    rank_len: Vec<u32>,
    /// Candidate lists behind the published rows (see the module docs).
    lists: Candidates,
    /// This tick's unique movers with their tick-start positions.
    movers: Vec<(UserId, Point)>,
    /// This tick's `(receiver, push)` records, then the pushes grouped by
    /// receiver: `u`'s run ends at `push_ends[u]`.
    pushes: Vec<(UserId, Push)>,
    grouped: Vec<Push>,
    push_ends: Vec<u32>,
    /// Scratch buffers reused across updates.
    buf: Vec<(UserId, f64)>,
    scored: Vec<(f64, UserId)>,
    changed_ids: Vec<UserId>,
    edges_scratch: Vec<Edge>,
    /// Epoch-stamped per-user mark: moved this tick.
    mover_mark: Vec<u32>,
    epoch: u32,
}

impl<R: RssModel> IncrementalWpg<R> {
    /// Builds the initial state from scratch over `points` with the default
    /// shard layout, probing serially.
    pub fn new(builder: WpgBuilder<R>, points: &[Point]) -> Self {
        Self::with_topology(builder, points, nela_geo::sharded::DEFAULT_SHARDS, 1)
    }

    /// Builds the initial state with an explicit region-shard count and
    /// probe thread count. Both only affect performance: the maintained
    /// graph is bit-identical for every `(shards, threads)` combination.
    pub fn with_topology(
        builder: WpgBuilder<R>,
        points: &[Point],
        shards: usize,
        threads: usize,
    ) -> Self {
        let grid = ShardedDynamicGrid::build_with_shards(points, builder.delta, shards);
        let n = points.len();
        let m = builder.max_peers;
        let mut this = IncrementalWpg {
            builder,
            grid,
            threads: threads.max(1),
            rank_peers: vec![0; n * m],
            rank_len: vec![0; n],
            lists: Candidates::new(n, CAPACITY_PER_PEER * m),
            movers: Vec::new(),
            pushes: Vec::new(),
            grouped: Vec::new(),
            push_ends: Vec::new(),
            buf: Vec::new(),
            scored: Vec::new(),
            changed_ids: Vec::new(),
            edges_scratch: Vec::new(),
            mover_mark: vec![0; n],
            epoch: 0,
        };
        this.reprobe_all();
        this.changed_ids.clear();
        this
    }

    /// Number of users.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank_len.len()
    }

    /// True when the population is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rank_len.is_empty()
    }

    /// Current positions, indexed by id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.grid.points()
    }

    /// The underlying sharded grid (for δ-queries against current state).
    #[inline]
    pub fn grid(&self) -> &ShardedDynamicGrid {
        &self.grid
    }

    /// The radio range δ this graph is maintained under.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.builder.delta
    }

    /// Sets the worker-thread count of whole-population probes (construction
    /// and ticks that re-probe everyone) and snapshots (1 = serial; results
    /// are bit-identical for any value).
    #[inline]
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// `u`'s current retained peers, strongest first; a peer's 1-based RSS
    /// rank is its position in the slice plus one.
    #[inline]
    pub fn peers_of(&self, u: UserId) -> &[UserId] {
        self.rows().peers_of(u)
    }

    /// The published rank rows, borrowed: the current graph read one vertex
    /// at a time, with no snapshot built.
    #[inline]
    pub fn rows(&self) -> RankRows<'_> {
        RankRows {
            peers: &self.rank_peers,
            len: &self.rank_len,
            m: self.builder.max_peers,
        }
    }

    /// Users whose rank list changed in the last [`IncrementalWpg::apply_moves`]
    /// batch. Every WPG edge that appeared, vanished or changed weight has
    /// an endpoint here: an edge's weight is the smaller of its endpoints'
    /// mutual ranks, so it can only change when one endpoint's list did. The
    /// converse does not hold: a user outside this set keeps its own list,
    /// yet its CSR row changes when a peer's list shifts its rank (moving
    /// the edge's weight) or drops it (removing the edge).
    #[inline]
    pub fn changed_users(&self) -> &[UserId] {
        &self.changed_ids
    }

    /// Writes `u`'s top-M row from its candidate list if its ids differ from
    /// the published row, recording `u` as changed.
    fn publish(&mut self, u: UserId) {
        let m = self.builder.max_peers;
        let row = self.lists.top(u, m);
        let lo = u as usize * m;
        let old_len = self.rank_len[u as usize] as usize;
        if old_len == row.len() && self.rank_peers[lo..lo + old_len] == *row {
            return;
        }
        self.rank_peers[lo..lo + row.len()].copy_from_slice(row);
        self.rank_len[u as usize] = row.len() as u32;
        self.changed_ids.push(u);
    }

    /// Re-probes every user (chunked over `self.threads`, bit-identical to
    /// serial since each list reads only the committed grid) and publishes
    /// every row.
    fn reprobe_all(&mut self) {
        let cap = self.lists.cap;
        let (grid, builder) = (&self.grid, &self.builder);
        let Candidates {
            ids, rss, heads, ..
        } = &mut self.lists;
        let mut users: Vec<_> = ids
            .chunks_mut(cap)
            .zip(rss.chunks_mut(cap))
            .zip(heads.iter_mut())
            .collect();
        nela_par::for_each_chunk_mut(self.threads, &mut users, |first, chunk| {
            let mut buf = Vec::new();
            let mut scored = Vec::new();
            for (i, ((ids, rss), head)) in chunk.iter_mut().enumerate() {
                let u = (first + i) as UserId;
                let floor = probe(grid, builder, u, cap, &mut buf, &mut scored);
                write_list(ids, rss, head, &scored, floor);
            }
        });
        for u in 0..self.len() as UserId {
            self.publish(u);
        }
    }

    /// The push passes of one tick (module docs, steps 2–5) over
    /// `self.movers`. Returns the number of users whose candidate list it
    /// touched.
    ///
    /// The two probe passes only record each mover's effect on the
    /// non-movers around it; one merge pass then visits each receiver once,
    /// in id order, applying its departures before its arrivals. Lists are
    /// independent, so this is the order the module docs describe, while
    /// every list is touched once per tick and the arena is swept in
    /// address order instead of hit at random once per mover.
    fn push_moves(&mut self) -> usize {
        let delta = self.builder.delta;
        let cap = self.lists.cap;
        let mut movers = std::mem::take(&mut self.movers);
        let mut pushes = std::mem::take(&mut self.pushes);
        let mut buf = std::mem::take(&mut self.buf);
        pushes.clear();
        // Row-major cell order keeps consecutive probes on neighbouring
        // grid rows.
        movers.sort_unstable_by_key(|&(v, _)| (self.grid.cell_of(v), v));
        let mut touched = movers.len();

        let depart_span = nela_obs::span(nela_obs::stage::INC_DEPART);
        for &(v, start) in &movers {
            self.grid.neighbors_of_point(start, v, delta, &mut buf);
            pushes.extend(
                buf.iter()
                    .filter(|&&(u, _)| self.mover_mark[u as usize] != self.epoch)
                    .map(|&(u, _)| (u, Push::Depart(v))),
            );
        }
        drop(depart_span);

        let arrive_span = nela_obs::span(nela_obs::stage::INC_ARRIVE);
        for &(v, _) in &movers {
            let floor = probe(
                &self.grid,
                &self.builder,
                v,
                cap,
                &mut buf,
                &mut self.scored,
            );
            self.lists.set(v, &self.scored, floor);
            self.publish(v);
            let points = self.grid.points();
            let pv = points[v as usize];
            for &(w, d_sq) in &buf {
                if self.mover_mark[w as usize] != self.epoch {
                    // `w` is the receiver, exactly as in its own probe.
                    let rss = self
                        .builder
                        .rss
                        .rss_from_dist_sq(w, points[w as usize], v, pv, d_sq);
                    pushes.push((w, Push::Arrive((rss, v))));
                }
            }
        }
        drop(arrive_span);

        let _merge_span = nela_obs::span(nela_obs::stage::INC_MERGE);
        // Counting sort by receiver. Scattering in record order keeps each
        // receiver's departures (recorded first) ahead of its arrivals.
        let n = self.len();
        let ends = &mut self.push_ends;
        ends.clear();
        ends.resize(n + 1, 0);
        for &(u, _) in &pushes {
            ends[u as usize + 1] += 1;
        }
        for u in 0..n {
            ends[u + 1] += ends[u];
        }
        let grouped = &mut self.grouped;
        grouped.clear();
        grouped.resize(pushes.len(), Push::Depart(0));
        for &(u, push) in &pushes {
            grouped[ends[u as usize] as usize] = push;
            ends[u as usize] += 1;
        }
        // `ends[u]` is now the end of `u`'s run, which starts where `u − 1`'s
        // ends.
        let m = self.builder.max_peers;
        let mut lo = 0;
        for u in 0..n {
            let hi = self.push_ends[u] as usize;
            if hi == lo {
                continue;
            }
            let u = u as UserId;
            let mut changed = false;
            for &push in &self.grouped[lo..hi] {
                changed |= match push {
                    Push::Depart(v) => self.lists.remove(u, v),
                    Push::Arrive(key) => self.lists.insert(u, key),
                };
            }
            lo = hi;
            if !changed {
                continue;
            }
            let head = self.lists.heads[u as usize];
            if head.floor.is_some() && (head.len as usize) < m {
                let floor = probe(
                    &self.grid,
                    &self.builder,
                    u,
                    cap,
                    &mut buf,
                    &mut self.scored,
                );
                self.lists.set(u, &self.scored, floor);
            }
            touched += 1;
            self.publish(u);
        }
        self.buf = buf;
        self.pushes = pushes;
        self.movers = movers;
        touched
    }

    /// Applies a batch of position updates and restores WPG exactness.
    ///
    /// When the same id appears multiple times in `moves`, positions are
    /// applied in order and the last one wins (and the id counts once in
    /// `moved`). Returns the batch counters.
    ///
    /// # Panics
    /// Panics if a move names an id outside the population; use
    /// [`IncrementalWpg::try_apply_moves`] for untrusted batches.
    pub fn apply_moves(&mut self, moves: &[(UserId, Point)]) -> UpdateStats {
        self.try_apply_moves(moves)
            .expect("apply_moves: id outside population")
    }

    /// [`IncrementalWpg::apply_moves`] that rejects out-of-range ids with a
    /// typed error. Moves preceding the offending entry are already staged
    /// and are committed (with the graph updated for them) before returning
    /// the error, so the graph stays exact for the applied prefix.
    pub fn try_apply_moves(&mut self, moves: &[(UserId, Point)]) -> Result<UpdateStats, GridError> {
        // Stage every move. Staging updates positions immediately; the
        // δ-range structure is committed once below, so every probe runs
        // against final positions.
        let stage_span = nela_obs::span(nela_obs::stage::INC_STAGE);
        self.grid.begin_tick();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mover_mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.movers.clear();
        let mut first_error: Option<GridError> = None;
        for &(id, pos) in moves {
            match self.grid.try_stage_move(id, pos) {
                Ok(start) => {
                    // The first staging of an id returns its tick-start
                    // position: the one its old neighbours listed it at.
                    if self.mover_mark[id as usize] != self.epoch {
                        self.mover_mark[id as usize] = self.epoch;
                        self.movers.push((id, start));
                    }
                }
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        drop(stage_span);
        let commit_span = nela_obs::span(nela_obs::stage::INC_COMMIT);
        self.grid.commit_moves();
        drop(commit_span);

        self.changed_ids.clear();
        let moved = self.movers.len();
        let dirty = if moved * REPROBE_ALL_DIVISOR >= self.len() {
            let _span = nela_obs::span(nela_obs::stage::INC_REPROBE);
            self.reprobe_all();
            self.len()
        } else {
            self.push_moves()
        };
        let stats = UpdateStats {
            moved,
            dirty,
            changed: self.changed_ids.len(),
        };
        match first_error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Materializes the current graph. Runs only the mutual min-rank edge
    /// pass (O(n · M log M)); the expensive δ-query/sort work is already
    /// folded into the maintained rank lists.
    pub fn snapshot(&self) -> Wpg {
        self.snapshot_threads(1)
    }

    /// [`IncrementalWpg::snapshot`] with the edge emission and CSR fill
    /// chunked over `threads` workers — bit-identical to the serial snapshot
    /// for any thread count (chunk concatenation reproduces the serial
    /// emission order; `Wpg::from_edges_threads` is pinned bit-identical).
    pub fn snapshot_threads(&self, threads: usize) -> Wpg {
        let rows = self.rows();
        let n = rows.n();
        if threads <= 1 {
            return rows.to_wpg();
        }
        let chunks: Vec<Vec<Edge>> = nela_par::map_chunks(threads, n, |range| {
            let mut edges = Vec::new();
            rows.emit_edges(range, &mut edges);
            edges
        });
        let mut edges = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            edges.extend(chunk);
        }
        Wpg::from_edges_threads(n, &edges, threads)
    }

    /// Rebuilds `wpg` in place from the current rank lists, reusing both the
    /// edge scratch owned by `self` and `wpg`'s CSR buffers — the alloc-free
    /// steady-state snapshot for per-tick serving. The result is
    /// bit-identical to [`IncrementalWpg::snapshot`].
    pub fn snapshot_into(&mut self, wpg: &mut Wpg) {
        let n = self.rank_len.len();
        let mut edges = std::mem::take(&mut self.edges_scratch);
        edges.clear();
        let emit_span = nela_obs::span(nela_obs::stage::INC_EMIT);
        self.rows().emit_edges(0..n, &mut edges);
        drop(emit_span);
        let refill_span = nela_obs::span(nela_obs::stage::INC_REFILL);
        wpg.refill_from_edges(n, &edges);
        drop(refill_span);
        self.edges_scratch = edges;
    }
}

/// A borrowed view of an [`IncrementalWpg`]'s published rank rows: the
/// graph [`IncrementalWpg::snapshot`] would build, read one vertex at a
/// time.
///
/// An edge `(u, v)` exists when each lists the other, with weight the
/// smaller of the two ranks ([`RankRows::mutual_weight`], which the
/// snapshot's edge pass uses too). [`RankRows::row_into`] returns `u`'s CSR
/// row of the snapshot exactly, in order: the snapshot's edge pass emits
/// each edge from its lower endpoint, lower endpoints ascending and each
/// one's peers in rank order, and the CSR fill appends every edge to both
/// endpoints' rows in emission order. So `u`'s row holds first the edges it
/// received from lower peers, ascending by id, then the edges it emitted to
/// higher peers, in `u`'s rank order.
#[derive(Debug, Clone, Copy)]
pub struct RankRows<'a> {
    /// User `u`'s peers, strongest first, are `peers[u·m .. u·m + len[u]]`.
    peers: &'a [UserId],
    len: &'a [u32],
    m: usize,
}

impl<'a> RankRows<'a> {
    /// Number of users.
    #[inline]
    pub fn n(&self) -> usize {
        self.len.len()
    }

    /// `u`'s retained peers, strongest first; a peer's 1-based RSS rank is
    /// its position in the slice plus one.
    #[inline]
    pub fn peers_of(&self, u: UserId) -> &'a [UserId] {
        let lo = u as usize * self.m;
        &self.peers[lo..lo + self.len[u as usize] as usize]
    }

    /// The weight of the edge between `u` and `v = peers_of(u)[i]`: the
    /// smaller of the two mutual ranks, or `None` when `v` does not list
    /// `u` (no edge). The reverse rank is a linear probe of `v`'s ≤ M-entry
    /// row, the same scan the builder's `rank_of` uses.
    #[inline]
    pub fn mutual_weight(&self, u: UserId, i: usize, v: UserId) -> Option<Weight> {
        let at = self.peers_of(v).iter().position(|&p| p == u)?;
        Some((i as Weight + 1).min(at as Weight + 1))
    }

    /// Fills `out` with `u`'s `(neighbor, weight)` row exactly as the
    /// snapshot's CSR holds it: peers below `u` ascending by id, then peers
    /// above `u` in `u`'s rank order (see the type docs for why).
    pub fn row_into(&self, u: UserId, out: &mut Vec<(UserId, Weight)>) {
        out.clear();
        let row = self.peers_of(u);
        for (i, &v) in row.iter().enumerate() {
            if v < u {
                if let Some(w) = self.mutual_weight(u, i, v) {
                    out.push((v, w));
                }
            }
        }
        out.sort_unstable_by_key(|&(v, _)| v);
        for (i, &v) in row.iter().enumerate() {
            if v > u {
                if let Some(w) = self.mutual_weight(u, i, v) {
                    out.push((v, w));
                }
            }
        }
    }

    /// Emits the mutual min-rank edges whose lower endpoint lies in `users`
    /// — the exact emission order of `WpgBuilder`'s edge pass (u ascending,
    /// peers in rank order).
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

    /// True when `g` covers the same users and every CSR row of `g` equals
    /// this view's row, in order and with weights — the check a rebuild
    /// must pass against the maintained rows.
    pub fn matches_csr(&self, g: &Wpg) -> bool {
        let mut row = Vec::new();
        g.n() == self.n()
            && (0..g.n() as UserId).all(|u| {
                self.row_into(u, &mut row);
                row.iter().copied().eq(g.neighbors(u))
            })
    }

    /// Materializes the whole graph as a CSR — bit-identical to
    /// [`IncrementalWpg::snapshot`], for readers of the whole graph.
    pub fn to_wpg(&self) -> Wpg {
        let mut edges = Vec::new();
        self.emit_edges(0..self.n(), &mut edges);
        Wpg::from_edges(self.n(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rss::{InverseDistanceRss, LogDistanceRss};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
    }

    fn assert_graphs_equal(a: &Wpg, b: &Wpg) {
        assert_eq!(a.n(), b.n());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn fresh_state_matches_builder() {
        let pts = random_points(300, 11);
        let builder = WpgBuilder::new(0.08, 6, InverseDistanceRss);
        let inc = IncrementalWpg::new(builder.clone(), &pts);
        assert_graphs_equal(&inc.snapshot(), &builder.build(&pts));
    }

    #[test]
    fn single_move_matches_rebuild() {
        let pts = random_points(200, 3);
        let builder = WpgBuilder::new(0.1, 5, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let stats = inc.apply_moves(&[(17, Point::new(0.5, 0.5))]);
        assert!(stats.dirty >= 1);
        assert_eq!(stats.moved, 1);
        assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
    }

    #[test]
    fn batched_moves_match_rebuild_across_ticks() {
        let pts = random_points(400, 8);
        let builder = WpgBuilder::new(0.07, 6, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _tick in 0..10 {
            let moves: Vec<(UserId, Point)> = (0..40)
                .map(|_| (rng.gen_range(0..400u32), Point::new(rng.gen(), rng.gen())))
                .collect();
            inc.apply_moves(&moves);
            assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
        }
    }

    #[test]
    fn works_with_noisy_rss_model() {
        // Exactness must not depend on the RSS model being distance-monotone.
        let pts = random_points(250, 5);
        let builder = WpgBuilder::new(0.09, 5, LogDistanceRss::default());
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let moves: Vec<(UserId, Point)> = (0..25)
            .map(|_| (rng.gen_range(0..250u32), Point::new(rng.gen(), rng.gen())))
            .collect();
        inc.apply_moves(&moves);
        assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
    }

    #[test]
    fn duplicate_ids_in_batch_last_position_wins() {
        let pts = random_points(100, 9);
        let builder = WpgBuilder::new(0.1, 4, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        inc.apply_moves(&[
            (3, Point::new(0.2, 0.2)),
            (3, Point::new(0.9, 0.9)),
            (3, Point::new(0.4, 0.6)),
        ]);
        assert_eq!(inc.points()[3], Point::new(0.4, 0.6));
        assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
    }

    #[test]
    fn moved_counts_unique_ids_not_batch_entries() {
        // Regression: `moved` must be the deduplicated mover count the field
        // doc promises, not `moves.len()`.
        let pts = random_points(120, 13);
        let builder = WpgBuilder::new(0.1, 4, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let stats = inc.apply_moves(&[
            (3, Point::new(0.2, 0.2)),
            (7, Point::new(0.8, 0.1)),
            (3, Point::new(0.9, 0.9)),
            (7, Point::new(0.3, 0.3)),
            (3, Point::new(0.4, 0.6)),
        ]);
        assert_eq!(stats.moved, 2, "5 batch entries over 2 unique ids");
        // And the dedup state resets between batches.
        let stats = inc.apply_moves(&[(3, Point::new(0.1, 0.1))]);
        assert_eq!(stats.moved, 1);
        assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pts = random_points(120, 2);
        let builder = WpgBuilder::new(0.1, 4, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let before: Vec<_> = inc.snapshot().edges().collect();
        let stats = inc.apply_moves(&[]);
        assert_eq!(
            stats,
            UpdateStats {
                moved: 0,
                dirty: 0,
                changed: 0
            }
        );
        let after: Vec<_> = inc.snapshot().edges().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn out_of_range_move_is_rejected_typed() {
        let pts = random_points(50, 4);
        let builder = WpgBuilder::new(0.1, 4, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let err = inc
            .try_apply_moves(&[(2, Point::new(0.5, 0.5)), (50, Point::new(0.1, 0.1))])
            .unwrap_err();
        assert_eq!(
            err,
            GridError::UnknownId {
                id: 50,
                population: 50
            }
        );
        // The valid prefix was applied and the graph is still exact.
        assert_eq!(inc.points()[2], Point::new(0.5, 0.5));
        assert_graphs_equal(&inc.snapshot(), &builder.build(inc.points()));
    }

    #[test]
    fn dirty_set_is_local_for_small_moves() {
        // A single short move in a sparse corner must not dirty the whole
        // population.
        let pts = random_points(1000, 14);
        let builder = WpgBuilder::new(0.03, 6, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder, &pts);
        let from = inc.points()[0];
        let nudged = Point::new(
            (from.x + 0.001).clamp(0.0, 1.0),
            (from.y + 0.001).clamp(0.0, 1.0),
        );
        let stats = inc.apply_moves(&[(0, nudged)]);
        assert!(
            stats.dirty < 100,
            "a 0.001 nudge dirtied {} of 1000 users",
            stats.dirty
        );
        assert!(stats.changed <= stats.dirty);
    }

    #[test]
    fn changed_users_is_exact_for_far_teleport() {
        // Teleporting an isolated corner user far away changes its own list
        // (and any users gaining/losing it as a peer) but no one else's.
        let mut pts = random_points(300, 17);
        pts[0] = Point::new(0.001, 0.001);
        let builder = WpgBuilder::new(0.05, 6, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let before: Vec<Vec<UserId>> = (0..300).map(|u| inc.peers_of(u).to_vec()).collect();
        let stats = inc.apply_moves(&[(0, Point::new(0.5, 0.5))]);
        let changed: std::collections::HashSet<UserId> =
            inc.changed_users().iter().copied().collect();
        assert_eq!(changed.len(), stats.changed);
        for u in 0..300u32 {
            let now = inc.peers_of(u);
            if changed.contains(&u) {
                assert_ne!(now, &before[u as usize][..], "user {u} marked but equal");
            } else {
                assert_eq!(now, &before[u as usize][..], "user {u} changed unmarked");
            }
        }
    }

    #[test]
    fn threaded_rescore_and_snapshot_are_bit_identical() {
        let pts = random_points(500, 23);
        let builder = WpgBuilder::new(0.06, 6, InverseDistanceRss);
        let mut serial = IncrementalWpg::with_topology(builder.clone(), &pts, 4, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let ticks: Vec<Vec<(UserId, Point)>> = (0..5)
            .map(|_| {
                (0..120)
                    .map(|_| (rng.gen_range(0..500u32), Point::new(rng.gen(), rng.gen())))
                    .collect()
            })
            .collect();
        for threads in [2usize, 4] {
            let mut par = IncrementalWpg::with_topology(builder.clone(), &pts, 4, threads);
            for moves in &ticks {
                let a = serial.apply_moves(moves);
                let b = par.apply_moves(moves);
                assert_eq!(a, b, "threads={threads}");
                assert_eq!(serial.rank_peers, par.rank_peers, "threads={threads}");
                assert_eq!(serial.rank_len, par.rank_len, "threads={threads}");
                assert_graphs_equal(&par.snapshot_threads(threads), &serial.snapshot());
            }
            // Rewind the serial instance for the next thread count.
            serial = IncrementalWpg::with_topology(builder.clone(), &pts, 4, 1);
        }
    }

    #[test]
    fn rows_view_reproduces_every_csr_row_in_order() {
        let pts = random_points(400, 37);
        let builder = WpgBuilder::new(0.08, 6, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder, &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(39);
        let mut row = Vec::new();
        for _ in 0..4 {
            let moves: Vec<(UserId, Point)> = (0..50)
                .map(|_| (rng.gen_range(0..400u32), Point::new(rng.gen(), rng.gen())))
                .collect();
            inc.apply_moves(&moves);
            let snap = inc.snapshot();
            let rows = inc.rows();
            assert_eq!(rows.n(), snap.n());
            for u in 0..400u32 {
                rows.row_into(u, &mut row);
                assert!(row.iter().copied().eq(snap.neighbors(u)), "row {u}");
            }
            assert_graphs_equal(&rows.to_wpg(), &snap);
            assert!(rows.matches_csr(&snap));
        }
        // One edge's weight off, or one user short, is a mismatch.
        let snap = inc.snapshot();
        let mut edges: Vec<Edge> = snap.edges().collect();
        edges[0].w += 1;
        assert!(!inc.rows().matches_csr(&Wpg::from_edges(400, &edges)));
        assert!(!inc.rows().matches_csr(&Wpg::from_edges(399, &[])));
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches() {
        let pts = random_points(250, 29);
        let builder = WpgBuilder::new(0.07, 5, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut wpg = inc.snapshot();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for _ in 0..5 {
            let moves: Vec<(UserId, Point)> = (0..60)
                .map(|_| (rng.gen_range(0..250u32), Point::new(rng.gen(), rng.gen())))
                .collect();
            inc.apply_moves(&moves);
            inc.snapshot_into(&mut wpg);
            assert_graphs_equal(&wpg, &inc.snapshot());
            assert_graphs_equal(&wpg, &builder.build(inc.points()));
        }
    }
}
