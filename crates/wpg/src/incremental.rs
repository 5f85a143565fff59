//! Incremental WPG maintenance under user mobility.
//!
//! [`crate::WpgBuilder`] recomputes every user's δ-range query, RSS scores,
//! and top-M rank list on each call. When only a fraction of the population
//! moves between snapshots, almost all of that work is redundant: a user's
//! in-range peer set changes only by the movers that left or entered its
//! radio range, and every other peer keeps its RSS.
//!
//! [`IncrementalWpg`] therefore maintains the graph from the movers. Each
//! user keeps a **candidate list** of up to 2M `(id, rss)` pairs in
//! `(rss desc, id asc)` order plus an optional **floor** key, under one
//! invariant: the list holds exactly the user's in-range peers that rank
//! above the floor (with no floor, the whole in-range set). A user's rank
//! row is the first min(M, len) ids of its list, which is exact when the
//! list has no floor or holds at least M entries; every tick ends with no
//! list that has a floor and fewer than M entries. On
//! [`IncrementalWpg::apply_moves`]:
//!
//! 1. every move is staged in the [`nela_geo::DynamicGrid`] and the
//!    batch is committed in one merge; the first staging of an id returns
//!    its tick-start position;
//! 2. **one pass per mover**, in cell order: the mover records a departure
//!    for every non-mover in range of its tick-start position, rebuilds its
//!    own list with a δ-probe around its new position and records an
//!    arrival for every non-mover that probe finds. A tick-start list with
//!    no floor *is* that in-range set, so its departures are read off the
//!    list; only a mover whose list has a floor probes around its start;
//! 3. **merge** — the records are grouped by receiver, departures first,
//!    and each receiver's list drops its departed movers and takes each
//!    arrival that ranks above its floor (a full list evicts its tail entry,
//!    which becomes the new floor). A list left with a floor and fewer than
//!    M entries (underflow) is re-probed in full, and the user enters
//!    [`IncrementalWpg::changed_users`] only if its row's ids changed.
//!
//! A tick's work thus follows the movers, not the density around them. When
//! many users move, pushing them costs as much as one probe per user: a
//! tick with at least `n /` [`REPROBE_ALL_DIVISOR`] unique movers runs the
//! constructor's own loop over every user instead, chunked over `threads`
//! workers and bit-identical to serial.
//!
//! **Exactness.** A pushed RSS has the same bits as the receiver's own
//! probe: the kernel's squared distance is the same bits from either end
//! (`dx = qx − x` negates exactly), and the [`RssModel`] contract makes
//! `rss_from_dist_sq` equal `rss` at that distance, computed with the
//! non-mover as receiver. For the same reason a probe around a mover finds
//! exactly the non-movers whose own probe finds it, and a floorless list
//! read at the tick start holds exactly the peers a probe around the
//! mover's start would find, so the mover pass sees every pair whose range
//! or RSS changed; a pair of non-movers keeps both. The final lists do not
//! depend on the order movers are processed in: every departure is applied
//! before any arrival and only removes, and inserting a set of keys into a
//! capped list leaves the same top entries and the same floor (the
//! strongest key ever evicted) in any order. The rank key is a total order,
//! so every row equals `WpgBuilder::build`'s at the current positions and
//! [`IncrementalWpg::snapshot`] reconstructs the same graph (vertices,
//! edges, weights); `tests/incremental_equivalence.rs` checks every CSR
//! row and the changed set on every tick.
//!
//! **Serving from the rows.** [`IncrementalWpg::rows`] lends the rank rows
//! as a [`RankRows`] view that answers one vertex at a time with exactly
//! the snapshot's CSR row, so a reader that needs a few rows per tick
//! (Algorithm 2's host fetches, the lifetime audit) never pays for a
//! snapshot of the whole graph.

use crate::builder::{rank_order, RankRows, WpgBuilder};
use crate::graph::{Edge, Wpg};
use crate::rss::RssModel;
use nela_geo::{DynamicGrid, GridError, Point, UserId};

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
/// user instead of pushing the movers: past that point pushing costs as much
/// as one probe per user (the sweep in DESIGN.md, "Mover-driven WPG
/// maintenance", puts the crossover near half the users).
pub const REPROBE_ALL_DIVISOR: usize = 2;

/// Candidate-list capacity in units of M. Spare room past M lets departures
/// shrink a list without a re-probe: at 2M underflow re-probes are rare
/// (DESIGN.md) while the lists cost 12 bytes per entry.
const CAPACITY_PER_PEER: usize = 2;

/// A list's floor: every in-range peer missing from the list ranks at or
/// below this `(rss, id)` key; `None` when the list holds the whole
/// in-range set.
type Floor = Option<(f64, UserId)>;

/// Every user's candidate list in flat arenas: user `u`'s list is
/// `ids/rss[u·cap .. u·cap + lens[u]]`, strongest first, under
/// `floors[u]`. The lengths sit in an array of their own, the one a rows
/// reader needs beside the ids.
#[derive(Debug, Clone)]
struct Candidates {
    cap: usize,
    ids: Vec<UserId>,
    rss: Vec<f64>,
    lens: Vec<u32>,
    floors: Vec<Floor>,
}

/// Writes a strongest-first list and its floor into one user's slots.
fn write_list(
    (ids, rss): (&mut [UserId], &mut [f64]),
    (len, floor): (&mut u32, &mut Floor),
    list: &[(f64, UserId)],
    cut: Floor,
) {
    for (i, &(r, v)) in list.iter().enumerate() {
        ids[i] = v;
        rss[i] = r;
    }
    *len = list.len() as u32;
    *floor = cut;
}

impl Candidates {
    fn new(n: usize, cap: usize) -> Self {
        Candidates {
            cap,
            ids: vec![0; n * cap],
            rss: vec![0.0; n * cap],
            lens: vec![0; n],
            floors: vec![None; n],
        }
    }

    /// `u`'s list ids, strongest first.
    #[inline]
    fn list(&self, u: UserId) -> &[UserId] {
        let lo = u as usize * self.cap;
        &self.ids[lo..lo + self.lens[u as usize] as usize]
    }

    /// Replaces `u`'s list.
    fn set(&mut self, u: UserId, list: &[(f64, UserId)], floor: Floor) {
        let lo = u as usize * self.cap;
        write_list(
            (
                &mut self.ids[lo..lo + self.cap],
                &mut self.rss[lo..lo + self.cap],
            ),
            (&mut self.lens[u as usize], &mut self.floors[u as usize]),
            list,
            floor,
        );
    }

    /// Removes `v` from `u`'s list; true when it was there.
    fn remove(&mut self, u: UserId, v: UserId) -> bool {
        let lo = u as usize * self.cap;
        let len = &mut self.lens[u as usize];
        let hi = lo + *len as usize;
        let Some(at) = self.ids[lo..hi].iter().position(|&p| p == v) else {
            return false;
        };
        self.ids.copy_within(lo + at + 1..hi, lo + at);
        self.rss.copy_within(lo + at + 1..hi, lo + at);
        *len -= 1;
        true
    }

    /// Inserts `key` into `u`'s list if it ranks above the floor; a full
    /// list's tail becomes the new floor. True when the list or its floor
    /// changed.
    fn insert(&mut self, u: UserId, key: (f64, UserId)) -> bool {
        let floor = &mut self.floors[u as usize];
        if floor.is_some_and(|f| rank_order(&key, &f).is_ge()) {
            return false;
        }
        let lo = u as usize * self.cap;
        let ids = &mut self.ids[lo..lo + self.cap];
        let rss = &mut self.rss[lo..lo + self.cap];
        let len = self.lens[u as usize] as usize;
        let at = (0..len)
            .find(|&i| rank_order(&key, &(rss[i], ids[i])).is_lt())
            .unwrap_or(len);
        let last = self.cap - 1;
        if len == self.cap {
            if at == self.cap {
                *floor = Some(key);
                return true;
            }
            *floor = Some((rss[last], ids[last]));
            ids.copy_within(at..last, at + 1);
            rss.copy_within(at..last, at + 1);
        } else {
            ids.copy_within(at..len, at + 1);
            rss.copy_within(at..len, at + 1);
            self.lens[u as usize] += 1;
        }
        ids[at] = key.1;
        rss[at] = key.0;
        true
    }

    /// Hints the cache to load `u`'s list: its length, floor, ids and RSS.
    #[inline]
    fn prefetch(&self, u: UserId) {
        let lo = u as usize * self.cap;
        prefetch(self.lens.as_ptr().wrapping_add(u as usize));
        prefetch(self.floors.as_ptr().wrapping_add(u as usize));
        prefetch_span(self.ids.as_ptr().wrapping_add(lo), self.cap);
        prefetch_span(self.rss.as_ptr().wrapping_add(lo), self.cap);
    }

    /// `u`'s top `m` peers, strongest first: its rank row. Exact when the
    /// list has no floor or holds at least `m` entries.
    #[inline]
    fn top(&self, u: UserId, m: usize) -> &[UserId] {
        let list = self.list(u);
        &list[..m.min(list.len())]
    }
}

/// Hints the cache to load the line holding `at`; a no-op off x86_64. A
/// prefetch reads nothing and never faults, so `at` may point anywhere.
#[inline(always)]
fn prefetch<T>(at: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch only hints the cache and cannot fault.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(at.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// [`prefetch`] of every line of the `len` values from `at`.
#[inline(always)]
fn prefetch_span<T>(at: *const T, len: usize) {
    let per_line = (64 / std::mem::size_of::<T>()).max(1);
    for i in (0..len).step_by(per_line) {
        prefetch(at.wrapping_add(i));
    }
    prefetch(at.wrapping_add(len.saturating_sub(1)));
}

/// How many movers or receivers ahead a pass prefetches their lists.
const PREFETCH_AHEAD: usize = 4;

/// `u`'s full δ-probe: every in-range peer ranked with `u` as receiver, as
/// in the builder's rank pass, cut to the `cap` strongest in `scored`.
/// Returns the list's floor; `buf` keeps the probe's `(peer, d_sq)` pairs.
fn probe<R: RssModel>(
    grid: &DynamicGrid,
    builder: &WpgBuilder<R>,
    u: UserId,
    cap: usize,
    buf: &mut Vec<(UserId, f64)>,
    scored: &mut Vec<(f64, UserId)>,
) -> Floor {
    grid.neighbors_within(u, builder.delta, buf);
    builder.rank_peers(grid.points(), u, buf, cap, scored)
}

/// One mover's effect on a non-mover's candidate list.
#[derive(Debug, Clone, Copy, Default)]
struct Push {
    /// `receiver << 1`, plus one for an arrival: sorting by the tag groups
    /// the pushes by receiver, departures first.
    tag: u32,
    /// The mover.
    mover: UserId,
    /// An arrival's RSS at the receiver (unused by a departure).
    rss: f64,
}

impl Push {
    /// The mover left the receiver's range from its tick-start position.
    fn depart(receiver: UserId, mover: UserId) -> Self {
        Push {
            tag: receiver << 1,
            mover,
            rss: 0.0,
        }
    }

    /// The mover is in range at its new position with this RSS at the
    /// receiver.
    fn arrive(receiver: UserId, mover: UserId, rss: f64) -> Self {
        Push {
            tag: receiver << 1 | 1,
            mover,
            rss,
        }
    }

    /// The receiver.
    #[inline]
    fn receiver(&self) -> UserId {
        self.tag >> 1
    }
}

/// Radix digits of at most this many bits.
const RADIX_BITS: u32 = 11;

/// Sorts `pushes` by their low `bits` tag bits with a stable LSD radix sort,
/// ping-ponging through `scratch`. One read pass counts every digit.
fn sort_by_tag(pushes: &mut Vec<Push>, scratch: &mut Vec<Push>, bits: u32) {
    let len = pushes.len();
    let passes = bits.div_ceil(RADIX_BITS).max(1) as usize;
    let width = bits.div_ceil(passes as u32);
    let mask = (1u32 << width) - 1;
    let buckets = mask as usize + 1;
    let mut counts = [0u32; 3 << RADIX_BITS];
    let counts = &mut counts[..passes * buckets];
    for p in pushes.iter() {
        for pass in 0..passes {
            counts[pass * buckets + ((p.tag >> (pass as u32 * width)) & mask) as usize] += 1;
        }
    }
    if scratch.len() < len {
        scratch.resize(len, Push::default());
    }
    for (pass, counts) in counts.chunks_mut(buckets).enumerate() {
        let mut at = 0;
        for c in counts.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        let shift = pass as u32 * width;
        let dst = &mut scratch[..len];
        for &p in &pushes[..len] {
            let c = &mut counts[((p.tag >> shift) & mask) as usize];
            dst[*c as usize] = p;
            *c += 1;
        }
        std::mem::swap(pushes, scratch);
    }
    pushes.truncate(len);
}

/// A WPG kept up to date under a stream of position updates.
#[derive(Debug, Clone)]
pub struct IncrementalWpg<R: RssModel> {
    builder: WpgBuilder<R>,
    grid: DynamicGrid,
    /// Worker threads for whole-population probes.
    threads: usize,
    /// Candidate lists; their first M ids are the rank rows (module docs).
    lists: Candidates,
    /// This tick's unique movers with their tick-start positions, keyed by
    /// id, then by `(cell << 32) | id` once the batch is committed.
    movers: Vec<(u64, Point)>,
    /// Bit `u` is set while `u` is one of this tick's movers.
    moved: Vec<u64>,
    /// This tick's pushes into non-movers' lists, then grouped by receiver
    /// (`push_scratch` is the sort's second buffer).
    pushes: Vec<Push>,
    push_scratch: Vec<Push>,
    /// Scratch buffers reused across updates.
    buf: Vec<(UserId, f64)>,
    scored: Vec<(f64, UserId)>,
    /// A user's row before this tick's edit of its list.
    row_before: Vec<UserId>,
    changed_ids: Vec<UserId>,
    edges_scratch: Vec<Edge>,
}

impl<R: RssModel> IncrementalWpg<R> {
    /// Builds the initial state from scratch over `points`, probing
    /// serially.
    pub fn new(builder: WpgBuilder<R>, points: &[Point]) -> Self {
        Self::with_threads(builder, points, 1)
    }

    /// Builds the initial state with `threads` probe workers. The count
    /// only affects performance: the maintained graph is bit-identical for
    /// every value.
    ///
    /// # Panics
    /// Panics past 2³¹ users (a push tags its receiver id with one bit).
    pub fn with_threads(builder: WpgBuilder<R>, points: &[Point], threads: usize) -> Self {
        let n = points.len();
        assert!(n <= 1 << 31, "population of {n} exceeds 2^31 users");
        let grid = DynamicGrid::build(points, builder.delta);
        let cap = CAPACITY_PER_PEER * builder.max_peers;
        let mut this = IncrementalWpg {
            builder,
            grid,
            threads: threads.max(1),
            lists: Candidates::new(n, cap),
            movers: Vec::new(),
            moved: vec![0; n.div_ceil(64)],
            pushes: Vec::new(),
            push_scratch: Vec::new(),
            buf: Vec::new(),
            scored: Vec::new(),
            row_before: Vec::new(),
            changed_ids: Vec::new(),
            edges_scratch: Vec::new(),
        };
        this.reprobe_all();
        this.changed_ids.clear();
        this
    }

    /// [`IncrementalWpg::with_threads`]; `shards` is unused. Kept because
    /// the benchmark under `benchmark/` names it.
    pub fn with_topology(
        builder: WpgBuilder<R>,
        points: &[Point],
        _shards: usize,
        threads: usize,
    ) -> Self {
        Self::with_threads(builder, points, threads)
    }

    /// Number of users.
    #[inline]
    pub fn len(&self) -> usize {
        self.lists.lens.len()
    }

    /// True when the population is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lists.lens.is_empty()
    }

    /// Current positions, indexed by id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.grid.points()
    }

    /// The underlying maintained grid (for δ-queries against current
    /// state).
    #[inline]
    pub fn grid(&self) -> &DynamicGrid {
        &self.grid
    }

    /// The radio range δ this graph is maintained under.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.builder.delta
    }

    /// Sets the worker-thread count of whole-population probes (construction
    /// and ticks that re-probe everyone; 1 = serial, and results are
    /// bit-identical for any value).
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

    /// The rank rows, borrowed: the current graph read one vertex at a
    /// time, with no snapshot built. Each user's row is the first M ids of
    /// its candidate list's slot.
    #[inline]
    pub fn rows(&self) -> RankRows<'_> {
        RankRows {
            ids: &self.lists.ids,
            lens: &self.lists.lens,
            stride: self.lists.cap,
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

    #[inline]
    fn is_mover(&self, u: UserId) -> bool {
        self.moved[u as usize / 64] >> (u % 64) & 1 == 1
    }

    /// Saves `u`'s row before an edit of its list.
    fn save_row(&mut self, u: UserId) {
        self.row_before.clear();
        let row = self.lists.top(u, self.builder.max_peers);
        self.row_before.extend_from_slice(row);
    }

    /// Records `u` as changed if its row differs from the saved one.
    fn note_if_changed(&mut self, u: UserId) {
        if *self.lists.top(u, self.builder.max_peers) != self.row_before[..] {
            self.changed_ids.push(u);
        }
    }

    /// Re-probes every user (chunked over `self.threads`, bit-identical to
    /// serial since each list reads only the committed grid) and records the
    /// users whose row changed, in id order.
    fn reprobe_all(&mut self) {
        let (cap, m) = (self.lists.cap, self.builder.max_peers);
        let (grid, builder) = (&self.grid, &self.builder);
        let Candidates {
            ids,
            rss,
            lens,
            floors,
            ..
        } = &mut self.lists;
        let mut changed = vec![false; lens.len()];
        let mut users: Vec<_> = ids
            .chunks_mut(cap)
            .zip(rss.chunks_mut(cap))
            .zip(lens.iter_mut().zip(floors.iter_mut()))
            .zip(changed.iter_mut())
            .collect();
        nela_par::for_each_chunk_mut(self.threads, &mut users, |first, chunk| {
            let mut buf = Vec::new();
            let mut scored = Vec::new();
            for (i, ((list, (len, floor)), changed)) in chunk.iter_mut().enumerate() {
                let u = (first + i) as UserId;
                let cut = probe(grid, builder, u, cap, &mut buf, &mut scored);
                let row = &list.0[..m.min(**len as usize)];
                **changed = !row
                    .iter()
                    .copied()
                    .eq(scored.iter().take(m).map(|&(_, v)| v));
                write_list((list.0, list.1), (len, floor), &scored, cut);
            }
        });
        self.changed_ids
            .extend((0..changed.len() as UserId).filter(|&u| changed[u as usize]));
    }

    /// The push passes of one tick (module docs, steps 2–3) over
    /// `self.movers`. Returns the number of users whose candidate list it
    /// touched.
    ///
    /// The mover pass only records each mover's effect on the non-movers
    /// around it; the merge then visits each receiver once, in id order,
    /// applying its departures before its arrivals. Lists are independent,
    /// so this is the order the module docs describe, while every list is
    /// touched once per tick and the arena is swept in address order
    /// instead of hit at random once per mover.
    fn push_moves(&mut self) -> usize {
        let delta = self.builder.delta;
        let cap = self.lists.cap;
        let mut movers = std::mem::take(&mut self.movers);
        let mut pushes = std::mem::take(&mut self.pushes);
        let mut buf = std::mem::take(&mut self.buf);
        let mut scored = std::mem::take(&mut self.scored);
        pushes.clear();
        // Row-major cell order keeps consecutive probes on neighbouring
        // grid rows.
        for (key, _) in &mut movers {
            *key |= (self.grid.cell_of(*key as UserId) as u64) << 32;
        }
        movers.sort_unstable_by_key(|&(key, _)| key);
        let mut touched = movers.len();

        let movers_span = nela_obs::span(nela_obs::stage::INC_MOVERS);
        for (i, &(key, start)) in movers.iter().enumerate() {
            if let Some(&(ahead, _)) = movers.get(i + PREFETCH_AHEAD) {
                self.lists.prefetch(ahead as UserId);
            }
            let v = key as UserId;
            self.save_row(v);
            if self.lists.floors[v as usize].is_none() {
                // The whole in-range set at the tick start.
                let list = self.lists.list(v);
                pushes.extend(
                    list.iter()
                        .filter(|&&u| !self.is_mover(u))
                        .map(|&u| Push::depart(u, v)),
                );
            } else {
                self.grid.neighbors_of_point(start, v, delta, &mut buf);
                pushes.extend(
                    buf.iter()
                        .filter(|&&(u, _)| !self.is_mover(u))
                        .map(|&(u, _)| Push::depart(u, v)),
                );
            }
            let floor = probe(&self.grid, &self.builder, v, cap, &mut buf, &mut scored);
            self.lists.set(v, &scored, floor);
            self.note_if_changed(v);
            let points = self.grid.points();
            let pv = points[v as usize];
            for &(w, d_sq) in &buf {
                if !self.is_mover(w) {
                    // `w` is the receiver, exactly as in its own probe.
                    let rss = self
                        .builder
                        .rss
                        .rss_from_dist_sq(w, points[w as usize], v, pv, d_sq);
                    pushes.push(Push::arrive(w, v, rss));
                }
            }
        }
        drop(movers_span);

        let _merge_span = nela_obs::span(nela_obs::stage::INC_MERGE);
        let bits = u64::BITS - (2 * self.len() as u64).leading_zeros();
        sort_by_tag(&mut pushes, &mut self.push_scratch, bits);
        let m = self.builder.max_peers;
        let mut at = 0;
        let mut prefetched = u32::MAX;
        while let Some(first) = pushes.get(at) {
            // A receiver takes a few pushes: prefetch the list of the one
            // about PREFETCH_AHEAD receivers on.
            if let Some(ahead) = pushes.get(at + 4 * PREFETCH_AHEAD) {
                if ahead.receiver() != prefetched {
                    prefetched = ahead.receiver();
                    self.lists.prefetch(prefetched);
                }
            }
            let u = first.receiver();
            let len = pushes[at..]
                .iter()
                .take_while(|p| p.receiver() == u)
                .count();
            let group = &pushes[at..at + len];
            at += len;
            self.save_row(u);
            let mut changed = false;
            for p in group {
                changed |= if p.tag & 1 == 0 {
                    self.lists.remove(u, p.mover)
                } else {
                    self.lists.insert(u, (p.rss, p.mover))
                };
            }
            if !changed {
                continue;
            }
            if self.lists.floors[u as usize].is_some() && (self.lists.lens[u as usize] as usize) < m
            {
                let floor = probe(&self.grid, &self.builder, u, cap, &mut buf, &mut scored);
                self.lists.set(u, &scored, floor);
            }
            touched += 1;
            self.note_if_changed(u);
        }
        debug_assert!(
            (self.lists.lens.iter().zip(&self.lists.floors))
                .all(|(&len, floor)| floor.is_none() || len as usize >= m),
            "a list with a floor ended the tick under M entries"
        );
        self.buf = buf;
        self.scored = scored;
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
        self.movers.clear();
        let mut first_error: Option<GridError> = None;
        for &(id, pos) in moves {
            match self.grid.try_stage_move(id, pos) {
                Ok(start) => {
                    // The first staging of an id returns its tick-start
                    // position: the one its old neighbours listed it at.
                    if !self.is_mover(id) {
                        self.moved[id as usize / 64] |= 1 << (id % 64);
                        self.movers.push((id.into(), start));
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
        for &(key, _) in &self.movers {
            let v = key as UserId;
            self.moved[v as usize / 64] &= !(1 << (v % 64));
        }
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
        self.rows().to_wpg()
    }

    /// Rebuilds `wpg` in place from the current rank lists, reusing both the
    /// edge scratch owned by `self` and `wpg`'s CSR buffers — the alloc-free
    /// steady-state snapshot for per-tick serving. The result is
    /// bit-identical to [`IncrementalWpg::snapshot`].
    pub fn snapshot_into(&mut self, wpg: &mut Wpg) {
        let n = self.len();
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
        let mut serial = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let ticks: Vec<Vec<(UserId, Point)>> = (0..5)
            .map(|_| {
                (0..120)
                    .map(|_| (rng.gen_range(0..500u32), Point::new(rng.gen(), rng.gen())))
                    .collect()
            })
            .collect();
        for threads in [2usize, 4] {
            let mut par = IncrementalWpg::with_threads(builder.clone(), &pts, threads);
            for moves in &ticks {
                let a = serial.apply_moves(moves);
                let b = par.apply_moves(moves);
                assert_eq!(a, b, "threads={threads}");
                for u in 0..500u32 {
                    assert_eq!(serial.peers_of(u), par.peers_of(u), "threads={threads}");
                }
                let edges = par.rows().edges_threads(threads);
                let snap = Wpg::from_edges_threads(par.len(), &edges, threads);
                assert_graphs_equal(&snap, &serial.snapshot());
            }
            // Rewind the serial instance for the next thread count.
            serial = IncrementalWpg::new(builder.clone(), &pts);
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
                row.clear();
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

    #[test]
    fn underflow_reprobes_the_list_in_full() {
        // User 0 hears peers 1..=10 at distances 0.01..0.10; M = 3 keeps a
        // 6-slot list [1..=6] with peer 7 as its floor. Peers 1..=5 leave
        // its range in one tick: the departures drop the list to [6], under
        // M with a floor, so the merge must re-probe user 0 in full. Far
        // fillers keep the movers under the re-probe-everyone crossover.
        let mut pts = vec![Point::new(0.5, 0.5)];
        pts.extend((1..=10).map(|i| Point::new(0.5 + 0.01 * i as f64 - 0.001, 0.5)));
        pts.extend((0..30).map(|i| Point::new(0.05 + 0.03 * i as f64, 0.05)));
        let builder = WpgBuilder::new(0.1, 3, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        assert_eq!(inc.lists.list(0), &[1, 2, 3, 4, 5, 6]);
        assert!(inc.lists.floors[0].is_some());
        let moves: Vec<(UserId, Point)> = (1..=5)
            .map(|i| (i, Point::new(0.5 - 0.02 * i as f64, 0.9)))
            .collect();
        inc.apply_moves(&moves);
        // The re-probe left the whole in-range set, with no floor.
        assert_eq!(inc.lists.list(0), &[6, 7, 8, 9, 10]);
        assert!(inc.lists.floors[0].is_none());
        let rebuilt = builder.build(inc.points());
        let mut row = Vec::new();
        inc.rows().row_into(0, &mut row);
        assert!(row.iter().copied().eq(rebuilt.neighbors(0)));
        assert!(inc.rows().matches_csr(&rebuilt));
        assert!(inc.changed_users().contains(&0));
    }
}
