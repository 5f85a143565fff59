//! Region-sharded mutable grid for batched moves.
//!
//! Under mobility a full O(n) grid rebuild per tick wastes work when only
//! some users move. [`ShardedDynamicGrid`] is the maintained grid behind
//! `nela_wpg::IncrementalWpg`, built for batches of moves (one shard covers
//! the unsharded case):
//!
//! - The cell geometry is identical to [`GridIndex`] (cell side ≥ δ, per-axis
//!   count clamped to 1..4096), and the grid is split into **shards**: bands
//!   of consecutive cell rows, the same grid-region sharding the cluster
//!   registry uses. Each shard owns a CSR (offsets / entries / coordinate
//!   mirror) over its own cells, so range scans stream the same three
//!   sequential arrays a [`GridIndex`] scan does.
//! - Position updates are **staged** ([`ShardedDynamicGrid::stage_move`]) and
//!   then **committed** in one pass ([`ShardedDynamicGrid::commit_moves`]).
//!   Only shards whose membership or cell structure changed rebuild their
//!   CSR (O(shard members + shard cells)); shards whose movers stayed inside
//!   their cells refresh coordinates in place; untouched shards do nothing —
//!   a tick's structural cost is proportional to the regions containing
//!   movers, not to the grid.
//! - A δ-probe ([`ShardedDynamicGrid::neighbors_of_point`]) walks one run
//!   per cell row: a row's cells are adjacent in its shard's CSR, so each
//!   row of the probe's cell block is one contiguous slice, scanned by the
//!   same kernel as [`GridIndex::neighbors_within`].
//!
//! Entries within a cell are kept in ascending id order (members are sorted
//! and each rebuild scatters them in order), which makes
//! [`ShardedDynamicGrid::to_grid_index`] a pure concatenation that is
//! **bit-identical** to `GridIndex::build` over the same positions, and
//! every probe bit-identical to the same probe of that index — pinned by
//! the tests below.

use crate::grid::{ball_block, scan_runs, GridIndex};
use crate::point::Point;
use crate::soa::PointsSoA;
use crate::UserId;

/// Typed rejection of an out-of-range user id. Ids are dense indices fixed
/// at build time, so an id `>= population` is a caller bug or untrusted
/// input — the fallible `try_*` APIs surface it as this typed error instead
/// of an index panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// `id` is not part of the indexed population of `population` points.
    UnknownId { id: UserId, population: usize },
}

impl GridError {
    #[inline]
    pub(crate) fn unknown(id: UserId, population: usize) -> Self {
        GridError::UnknownId { id, population }
    }
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::UnknownId { id, population } => {
                write!(f, "user id {id} outside indexed population of {population}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Default number of row-band shards (clamped to the number of cell rows).
pub const DEFAULT_SHARDS: usize = 16;

/// One band of consecutive cell rows with its own CSR.
#[derive(Debug, Clone)]
struct Shard {
    /// First global cell id covered by this shard.
    cell_base: usize,
    /// Number of cells covered.
    n_cells: usize,
    /// Resident user ids, ascending.
    members: Vec<UserId>,
    /// Local CSR: `offsets[c]..offsets[c+1]` slices `entries` for local
    /// cell `c` (= global cell − `cell_base`).
    offsets: Vec<u32>,
    /// User ids grouped by cell, ascending within each cell.
    entries: Vec<UserId>,
    /// Coordinates of `entries[i]`, the cell-grouped SoA mirror.
    coords: PointsSoA,
    /// Membership or cell assignment changed: the CSR must be rebuilt.
    needs_rebuild: bool,
    /// Movers that stayed in their cell: only their mirror coords refresh.
    coord_moves: Vec<UserId>,
    /// Ids staged into this shard this tick (may hold transients and
    /// duplicates; filtered against `cell_of` at commit).
    incoming: Vec<UserId>,
    /// Members may have left or arrived: run the membership repair pass.
    membership_dirty: bool,
}

/// A mutable uniform-grid index sharded into row bands. See the module docs
/// for the maintenance contract.
#[derive(Debug, Clone)]
pub struct ShardedDynamicGrid {
    /// Cells per axis.
    cells: usize,
    /// Side length of one cell.
    cell_side: f64,
    /// The `min_cell_side` this grid was built with (snapshot geometry).
    min_cell_side: f64,
    /// Cell rows per shard (last shard may cover fewer).
    rows_per_shard: usize,
    /// Current position of every point, indexed by id.
    points: Vec<Point>,
    /// Current cell of every point, indexed by id.
    cell_of: Vec<u32>,
    shards: Vec<Shard>,
    /// Tick epoch; `departed_mark` compares against it.
    epoch: u32,
    /// Scratch write cursors for shard rebuilds (sized to the largest shard).
    cursor_scratch: Vec<u32>,
    /// Per-user epoch stamp: user left its tick-start shard this epoch.
    /// Cleared on re-insertion by the commit, which also dedups multi-hop
    /// arrival queue entries.
    departed_mark: Vec<u32>,
    /// Staged moves not yet committed (queries are invalid while true).
    staged: bool,
}

impl ShardedDynamicGrid {
    /// Builds a sharded grid with [`DEFAULT_SHARDS`] row bands. Same cell
    /// geometry as [`GridIndex::build`].
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build(points: &[Point], min_cell_side: f64) -> Self {
        Self::build_with_shards(points, min_cell_side, DEFAULT_SHARDS)
    }

    /// Builds a sharded grid with `shards` row bands (clamped to
    /// `1..=cell rows`, so any value is safe).
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build_with_shards(points: &[Point], min_cell_side: f64, shards: usize) -> Self {
        assert!(
            min_cell_side.is_finite() && min_cell_side > 0.0,
            "cell side must be positive, got {min_cell_side}"
        );
        let cells = ((1.0 / min_cell_side).floor() as usize).clamp(1, 4096);
        let cell_side = 1.0 / cells as f64;
        let shards = shards.clamp(1, cells);
        let rows_per_shard = cells.div_ceil(shards);
        let n_shards = cells.div_ceil(rows_per_shard);
        let cell_of: Vec<u32> = points
            .iter()
            .map(|p| crate::grid::cell_id_of(p, cell_side, cells) as u32)
            .collect();
        let mut shard_vec: Vec<Shard> = (0..n_shards)
            .map(|s| {
                let first_row = s * rows_per_shard;
                let rows = rows_per_shard.min(cells - first_row);
                Shard {
                    cell_base: first_row * cells,
                    n_cells: rows * cells,
                    members: Vec::new(),
                    offsets: Vec::new(),
                    entries: Vec::new(),
                    coords: PointsSoA::default(),
                    needs_rebuild: true,
                    coord_moves: Vec::new(),
                    incoming: Vec::new(),
                    membership_dirty: false,
                }
            })
            .collect();
        // Ascending id iteration keeps every member list sorted.
        for (i, &c) in cell_of.iter().enumerate() {
            let s = (c as usize / cells) / rows_per_shard;
            shard_vec[s].members.push(i as UserId);
        }
        let max_shard_cells = shard_vec.iter().map(|s| s.n_cells).max().unwrap_or(0);
        let mut grid = ShardedDynamicGrid {
            cells,
            cell_side,
            min_cell_side,
            rows_per_shard,
            points: points.to_vec(),
            cell_of,
            shards: shard_vec,
            // Epoch 0 is the "never" stamp of `departed_mark`; starting at 1
            // keeps a stage/commit batch correct even before the first
            // `begin_tick`.
            epoch: 1,
            cursor_scratch: vec![0; max_shard_cells],
            departed_mark: vec![0; points.len()],
            staged: false,
        };
        grid.commit_moves();
        grid
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The current positions, indexed by id. Staged moves are already
    /// reflected here (positions update eagerly; only the cell structure
    /// waits for [`ShardedDynamicGrid::commit_moves`]).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of row-band shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cells per axis (same formula as `GridIndex::build`).
    #[inline]
    pub fn cells_per_axis(&self) -> usize {
        self.cells
    }

    /// The `min_cell_side` (typically δ) this grid was built with.
    #[inline]
    pub fn min_cell_side(&self) -> f64 {
        self.min_cell_side
    }

    /// The flat (row-major) cell id of `id`'s current position — its staged
    /// position between a stage and the commit.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cell_of(&self, id: UserId) -> usize {
        self.cell_of[id as usize] as usize
    }

    /// Current position of `id`, or [`GridError::UnknownId`] when `id` is not
    /// part of the indexed population.
    #[inline]
    pub fn try_position(&self, id: UserId) -> Result<Point, GridError> {
        self.points
            .get(id as usize)
            .copied()
            .ok_or_else(|| GridError::unknown(id, self.points.len()))
    }

    /// Current position of `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use
    /// [`ShardedDynamicGrid::try_position`] for untrusted ids.
    #[inline]
    pub fn position(&self, id: UserId) -> Point {
        debug_assert!(
            (id as usize) < self.points.len(),
            "position: id {id} out of range"
        );
        self.points[id as usize]
    }

    #[inline]
    fn shard_of_cell(&self, cell: usize) -> usize {
        (cell / self.cells) / self.rows_per_shard
    }

    /// Opens a new tick: advances the epoch. Call once before a batch of
    /// [`ShardedDynamicGrid::stage_move`]s.
    pub fn begin_tick(&mut self) {
        // Epoch 0 is the "never marked" state of `departed_mark`; skip it on
        // wraparound so stale stamps can never alias a live epoch.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.departed_mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
    }

    /// Stages a move of `id` to `new_pos`: the position updates immediately
    /// and the structural work is deferred to
    /// [`ShardedDynamicGrid::commit_moves`]. Returns the previous position.
    ///
    /// Range queries are **stale** between a stage and the commit (they scan
    /// the pre-move cell structure); debug builds assert that no query runs
    /// on a staged grid.
    pub fn try_stage_move(&mut self, id: UserId, new_pos: Point) -> Result<Point, GridError> {
        let Some(slot) = self.points.get_mut(id as usize) else {
            return Err(GridError::unknown(id, self.points.len()));
        };
        let old = *slot;
        *slot = new_pos;
        self.staged = true;
        let old_cell = self.cell_of[id as usize];
        let new_cell = crate::grid::cell_id_of(&new_pos, self.cell_side, self.cells) as u32;
        if old_cell == new_cell {
            let s = self.shard_of_cell(old_cell as usize);
            let shard = &mut self.shards[s];
            if !shard.needs_rebuild {
                shard.coord_moves.push(id);
            }
            return Ok(old);
        }
        self.cell_of[id as usize] = new_cell;
        let old_shard = self.shard_of_cell(old_cell as usize);
        let new_shard = self.shard_of_cell(new_cell as usize);
        self.shards[old_shard].needs_rebuild = true;
        if old_shard != new_shard {
            // Membership surgery is deferred to the commit (an eager sorted
            // remove/insert costs an O(shard) memmove per mover). The commit
            // derives final membership from `cell_of`, so intermediate hops
            // of a multi-staged id need no bookkeeping beyond the queues.
            self.departed_mark[id as usize] = self.epoch;
            self.shards[new_shard].needs_rebuild = true;
            self.shards[old_shard].membership_dirty = true;
            self.shards[new_shard].membership_dirty = true;
            self.shards[new_shard].incoming.push(id);
        }
        Ok(old)
    }

    /// [`ShardedDynamicGrid::try_stage_move`] for trusted ids.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn stage_move(&mut self, id: UserId, new_pos: Point) -> Point {
        debug_assert!(
            (id as usize) < self.points.len(),
            "stage_move: id {id} out of range"
        );
        self.try_stage_move(id, new_pos)
            .expect("stage_move: id out of range")
    }

    /// Applies every staged move to the cell structure. Shards with membership
    /// or cell changes rebuild their CSR; shards whose movers stayed in place
    /// refresh mirror coordinates; untouched shards are skipped. No
    /// allocation once the per-shard buffers reach steady size.
    ///
    /// Call once per [`ShardedDynamicGrid::begin_tick`] batch — the deferred
    /// membership repair resolves each staged id against its *final* cell, so
    /// a batch must be committed in one piece.
    pub fn commit_moves(&mut self) {
        // Phase 1 — departures: drop every member that staged a cross-shard
        // hop this epoch. O(shard members) per membership-dirty shard, in
        // place of an O(shard) memmove per mover staged eagerly.
        let epoch = self.epoch;
        for shard in &mut self.shards {
            if shard.membership_dirty {
                let departed = &self.departed_mark;
                shard.members.retain(|&id| departed[id as usize] != epoch);
            }
        }
        // Phase 2 — arrivals: re-insert each departed id into the shard
        // owning its final cell. The queues may hold transient hops and
        // duplicates; the final-cell check drops transients and clearing the
        // departure mark on acceptance dedups repeats. Runs strictly after
        // every departure so a later shard's retain cannot see a cleared
        // mark.
        let cells = self.cells;
        let rows_per_shard = self.rows_per_shard;
        for s in 0..self.shards.len() {
            let mut incoming = std::mem::take(&mut self.shards[s].incoming);
            let mut appended = false;
            for &id in &incoming {
                let final_shard = (self.cell_of[id as usize] as usize / cells) / rows_per_shard;
                if final_shard == s && self.departed_mark[id as usize] == epoch {
                    self.departed_mark[id as usize] = 0;
                    self.shards[s].members.push(id);
                    appended = true;
                }
            }
            incoming.clear();
            self.shards[s].incoming = incoming;
            if appended {
                // Mostly-sorted (ascending survivors + appended tail).
                self.shards[s].members.sort_unstable();
            }
            self.shards[s].membership_dirty = false;
        }
        // Phase 3 — cell structure.
        for shard in &mut self.shards {
            if shard.needs_rebuild {
                shard.coord_moves.clear();
                let nc = shard.n_cells;
                shard.offsets.clear();
                shard.offsets.resize(nc + 1, 0);
                for &id in &shard.members {
                    let lc = self.cell_of[id as usize] as usize - shard.cell_base;
                    shard.offsets[lc + 1] += 1;
                }
                for c in 1..=nc {
                    shard.offsets[c] += shard.offsets[c - 1];
                }
                let m = shard.members.len();
                shard.entries.clear();
                shard.entries.resize(m, 0);
                shard.coords.xs.clear();
                shard.coords.xs.resize(m, 0.0);
                shard.coords.ys.clear();
                shard.coords.ys.resize(m, 0.0);
                let cursor = &mut self.cursor_scratch[..nc];
                cursor.iter_mut().for_each(|c| *c = 0);
                // Members ascend, so entries within each cell ascend too —
                // the invariant `to_grid_index` relies on.
                for &id in &shard.members {
                    let lc = self.cell_of[id as usize] as usize - shard.cell_base;
                    let at = (shard.offsets[lc] + cursor[lc]) as usize;
                    cursor[lc] += 1;
                    let p = self.points[id as usize];
                    shard.entries[at] = id;
                    shard.coords.xs[at] = p.x;
                    shard.coords.ys[at] = p.y;
                }
                shard.needs_rebuild = false;
            } else if !shard.coord_moves.is_empty() {
                for &id in &shard.coord_moves {
                    let lc = self.cell_of[id as usize] as usize - shard.cell_base;
                    let lo = shard.offsets[lc] as usize;
                    let hi = shard.offsets[lc + 1] as usize;
                    let at = lo
                        + shard.entries[lo..hi]
                            .binary_search(&id)
                            .expect("in-place mover must sit in its cell slice");
                    let p = self.points[id as usize];
                    shard.coords.xs[at] = p.x;
                    shard.coords.ys[at] = p.y;
                }
                shard.coord_moves.clear();
            }
        }
        self.staged = false;
    }

    /// All point ids within Euclidean distance `radius` (inclusive) of
    /// `center`, excluding `exclude` (pass an out-of-range id such as
    /// `u32::MAX` to exclude nothing). Results are appended to `out` (cleared
    /// first) as `(id, squared distance)` pairs — the same contract, scan
    /// order, and blocked distance kernel as [`GridIndex::neighbors_within`],
    /// so results are bit-identical to a query against
    /// [`ShardedDynamicGrid::to_grid_index`].
    pub fn neighbors_of_point(
        &self,
        center: Point,
        exclude: UserId,
        radius: f64,
        out: &mut Vec<(UserId, f64)>,
    ) {
        debug_assert!(!self.staged, "range query on a staged grid");
        out.clear();
        if let Some((cols, rows)) = ball_block(center, radius, self.cell_side, self.cells) {
            scan_runs(self.row_runs(cols, rows), center, radius, exclude, out);
        }
    }

    /// One run per row of the inclusive cell block `cols × rows`: a row's
    /// cells all live in one shard and are adjacent in its CSR.
    fn row_runs(
        &self,
        (lo_cx, hi_cx): (usize, usize),
        (lo_cy, hi_cy): (usize, usize),
    ) -> impl Iterator<Item = (&[UserId], &[f64], &[f64])> + '_ {
        (lo_cy..=hi_cy).map(move |cy| {
            let shard = &self.shards[cy / self.rows_per_shard];
            let row = cy * self.cells - shard.cell_base;
            let lo = shard.offsets[row + lo_cx] as usize;
            let hi = shard.offsets[row + hi_cx + 1] as usize;
            (
                &shard.entries[lo..hi],
                &shard.coords.xs[lo..hi],
                &shard.coords.ys[lo..hi],
            )
        })
    }

    /// All point ids within distance `radius` (inclusive) of point
    /// `query_id`, excluding `query_id` itself — the contract of
    /// [`GridIndex::neighbors_within`].
    #[inline]
    pub fn neighbors_within(&self, query_id: UserId, radius: f64, out: &mut Vec<(UserId, f64)>) {
        self.neighbors_of_point(self.points[query_id as usize], query_id, radius, out);
    }

    /// Freezes the current cell structure into a [`GridIndex`] by
    /// concatenating the shard CSRs — a pure O(n + cells) copy, no
    /// re-bucketing. Bit-identical to `GridIndex::build(self.points(), δ)`
    /// because shards cover consecutive global cell ranges and entries ascend
    /// within each cell.
    pub fn to_grid_index(&self) -> GridIndex {
        debug_assert!(!self.staged, "to_grid_index on a staged grid");
        let n_cells = self.cells * self.cells;
        let n = self.points.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(n_cells + 1);
        offsets.push(0);
        let mut entries: Vec<UserId> = Vec::with_capacity(n);
        let mut coords = PointsSoA::with_capacity(n);
        for shard in &self.shards {
            let base = *offsets.last().expect("offsets starts non-empty");
            offsets.extend(shard.offsets[1..].iter().map(|&o| base + o));
            entries.extend_from_slice(&shard.entries);
            coords.xs.extend_from_slice(&shard.coords.xs);
            coords.ys.extend_from_slice(&shard.coords.ys);
        }
        GridIndex::assemble(
            self.cells,
            self.cell_side,
            offsets,
            entries,
            coords,
            self.points.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sample_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
    }

    fn ids(mut v: Vec<(UserId, f64)>) -> Vec<UserId> {
        v.sort_by_key(|&(id, _)| id);
        v.into_iter().map(|(id, _)| id).collect()
    }

    fn assert_index_identical(a: &GridIndex, b: &GridIndex) {
        assert_eq!(a.raw_parts(), b.raw_parts());
    }

    #[test]
    fn fresh_build_matches_static_index_bitwise() {
        let pts = sample_points(400, 9);
        for shards in [1usize, 2, 5, 16, 1000] {
            let sharded = ShardedDynamicGrid::build_with_shards(&pts, 0.05, shards);
            assert_index_identical(&sharded.to_grid_index(), &GridIndex::build(&pts, 0.05));
        }
    }

    #[test]
    fn queries_match_static_index_bitwise() {
        let pts = sample_points(500, 3);
        let sharded = ShardedDynamicGrid::build(&pts, 0.04);
        let fixed = GridIndex::build(&pts, 0.04);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for q in (0..500u32).step_by(13) {
            sharded.neighbors_within(q, 0.04, &mut a);
            fixed.neighbors_within(q, 0.04, &mut b);
            // Same order, same ids, bit-equal distances.
            assert_eq!(a.len(), b.len(), "query {q}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0, "query {q}");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "query {q}");
            }
        }
    }

    #[test]
    fn staged_commit_matches_rebuilt_static_index() {
        let pts = sample_points(300, 4);
        let mut g = ShardedDynamicGrid::build_with_shards(&pts, 0.04, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _tick in 0..20 {
            g.begin_tick();
            for _ in 0..40 {
                let id = rng.gen_range(0..300u32);
                g.stage_move(id, Point::new(rng.gen(), rng.gen()));
            }
            g.commit_moves();
            assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.04));
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_panicking() {
        let mut g = ShardedDynamicGrid::build(&sample_points(10, 1), 0.05);
        assert_eq!(
            g.try_stage_move(10, Point::new(0.5, 0.5)),
            Err(GridError::UnknownId {
                id: 10,
                population: 10
            })
        );
        assert_eq!(
            g.try_position(99),
            Err(GridError::UnknownId {
                id: 99,
                population: 10
            })
        );
        // Valid ids still work through the fallible API.
        assert!(g.try_stage_move(3, Point::new(0.4, 0.4)).is_ok());
        g.commit_moves();
        assert_eq!(g.try_position(3), Ok(Point::new(0.4, 0.4)));
    }

    #[test]
    fn boundary_and_out_of_square_coordinates_stay_queryable() {
        let mut g =
            ShardedDynamicGrid::build(&[Point::new(0.5, 0.5), Point::new(0.999, 0.999)], 0.01);
        g.begin_tick();
        g.stage_move(0, Point::new(1.0, 1.0));
        g.commit_moves();
        let mut out = Vec::new();
        g.neighbors_within(0, 0.01, &mut out);
        assert_eq!(ids(out.clone()), vec![1]);
        g.begin_tick();
        g.stage_move(0, Point::new(-0.002, 0.5));
        g.stage_move(1, Point::new(0.01, 0.5));
        g.commit_moves();
        g.neighbors_within(1, 0.05, &mut out);
        assert_eq!(ids(out), vec![0]);
    }

    #[test]
    fn peer_at_exactly_delta_is_in_range() {
        let delta = 0.125;
        let g = ShardedDynamicGrid::build(
            &[Point::new(0.25, 0.5), Point::new(0.25 + delta, 0.5)],
            delta,
        );
        let mut out = Vec::new();
        g.neighbors_within(0, delta, &mut out);
        assert_eq!(ids(out.clone()), vec![1]);
        g.neighbors_within(1, delta, &mut out);
        assert_eq!(ids(out), vec![0]);
    }

    #[test]
    fn multi_hop_cross_shard_stages_resolve_to_final_cell() {
        // With 0.05 cells there are 20 rows; 10 shards → 2 rows each, so
        // y ∈ {0.05, 0.45, 0.95} land in three distinct shards. One batch
        // stages A→B→C for user 0 and A→B→A for user 1; the deferred
        // membership repair must leave each exactly once, in its final shard.
        let pts = sample_points(120, 21);
        let mut g = ShardedDynamicGrid::build_with_shards(&pts, 0.05, 10);
        g.begin_tick();
        g.stage_move(0, Point::new(0.5, 0.45));
        g.stage_move(0, Point::new(0.5, 0.95));
        let home = g.position(1);
        g.stage_move(1, Point::new(0.5, 0.45));
        g.stage_move(1, home);
        g.commit_moves();
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
        let total: usize = (0..g.shard_count())
            .map(|s| g.shards[s].members.len())
            .sum();
        assert_eq!(total, 120, "membership repair lost or duplicated users");
    }

    #[test]
    fn duplicate_stages_last_position_wins() {
        let pts = sample_points(50, 2);
        let mut g = ShardedDynamicGrid::build(&pts, 0.05);
        g.begin_tick();
        g.stage_move(7, Point::new(0.1, 0.1));
        g.stage_move(7, Point::new(0.9, 0.9));
        g.stage_move(7, Point::new(0.3, 0.7));
        g.commit_moves();
        assert_eq!(g.position(7), Point::new(0.3, 0.7));
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
    }
}
