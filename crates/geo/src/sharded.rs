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
//!   The first staging of an id records its tick-start cell. The commit
//!   sorts the batch's cell changes into removals and insertions keyed by
//!   `(cell, id)` and rebuilds each shard they touch by one merge of its old
//!   CSR with them: runs of unedited cells are bulk-copied, edited cells
//!   merge their old ids with the edits. A mover that ends in its start cell
//!   only refreshes its mirror coordinates; untouched shards do nothing.
//! - A δ-probe ([`ShardedDynamicGrid::neighbors_of_point`]) walks one run
//!   per cell row: a row's cells are adjacent in its shard's CSR, so each
//!   row of the probe's cell block is one contiguous slice, scanned by the
//!   same kernel as [`GridIndex::neighbors_within`].
//!
//! Entries within a cell are kept in ascending id order (the build inherits
//! `GridIndex::build`'s order and every merge keeps it), which makes
//! [`ShardedDynamicGrid::to_grid_index`] a pure concatenation that is
//! **bit-identical** to `GridIndex::build` over the same positions, and
//! every probe bit-identical to the same probe of that index — pinned by
//! the tests below.

use crate::grid::{ball_block, count_in_runs, rect_block, scan_runs, GridIndex};
use crate::point::Point;
use crate::rect::Rect;
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

/// A cell-grouped CSR: `offsets[c]..offsets[c+1]` slices `entries` (ids
/// ascending within each cell) and its coordinate mirror for local cell `c`.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    entries: Vec<UserId>,
    coords: PointsSoA,
}

impl Csr {
    fn clear(&mut self) {
        self.offsets.clear();
        self.entries.clear();
        self.coords.clear();
    }

    /// Appends the entries `lo..hi` of `from`. A short run is copied entry
    /// by entry: a batch that moves most users leaves runs of one or two
    /// entries between its edits, where three slice copies cost more.
    fn extend_from(&mut self, from: &Csr, lo: usize, hi: usize) {
        if hi - lo <= 4 {
            for i in lo..hi {
                self.push(from.entries[i], from.coords.xs[i], from.coords.ys[i]);
            }
            return;
        }
        self.entries.extend_from_slice(&from.entries[lo..hi]);
        self.coords.xs.extend_from_slice(&from.coords.xs[lo..hi]);
        self.coords.ys.extend_from_slice(&from.coords.ys[lo..hi]);
    }

    fn push(&mut self, id: UserId, x: f64, y: f64) {
        self.entries.push(id);
        self.coords.xs.push(x);
        self.coords.ys.push(y);
    }
}

/// One band of consecutive cell rows with its own CSR.
#[derive(Debug, Clone)]
struct Shard {
    /// First global cell id covered by this shard.
    cell_base: usize,
    /// Number of cells covered.
    n_cells: usize,
    /// CSR over local cells (= global cell − `cell_base`).
    csr: Csr,
}

/// An edit of the commit: `(cell << 32) | id`, so sorting the keys orders
/// the edits by cell, then id.
#[inline]
fn edit_key(cell: u32, id: UserId) -> u64 {
    (u64::from(cell) << 32) | u64::from(id)
}

/// The cell of an edit key.
#[inline]
fn edit_cell(key: u64) -> usize {
    (key >> 32) as usize
}

/// Rebuilds `old` into `out` as one merge with the sorted edit keys `gone`
/// (ids that left a cell, each in its old slice) and `added` (ids that
/// entered one, none in it, with their new positions), all inside the
/// shard's `n_cells` cells from global cell `base`. Old entries are in
/// `(cell, id)` order, so the new ones are the old minus `gone`, merged
/// with `added`: the runs between edits are bulk-copied. The offsets shift
/// by the edits in the cells before them.
fn merge_shard(
    old: &Csr,
    out: &mut Csr,
    (base, n_cells): (usize, usize),
    (gone, added): (&[u64], &[(u64, Point)]),
) {
    out.clear();
    // An edit's place among the old entries: a removed id's slot, or the
    // slot an added id goes before.
    let place = |key: u64| {
        let c = edit_cell(key) - base;
        let (lo, hi) = (old.offsets[c] as usize, old.offsets[c + 1] as usize);
        lo + old.entries[lo..hi].partition_point(|&id| id < key as UserId)
    };
    let (mut g, mut a, mut i) = (0, 0, 0);
    let (mut gone_at, mut added_at) = (
        gone.first().map(|&k| place(k)),
        added.first().map(|&(k, _)| place(k)),
    );
    loop {
        let at = gone_at
            .into_iter()
            .chain(added_at)
            .min()
            .unwrap_or(old.entries.len());
        out.extend_from(old, i, at);
        i = at;
        if added_at == Some(at) {
            // An insertion goes before a removal at the same place: the
            // added id is below the removed one, which sits there.
            let (key, p) = added[a];
            out.push(key as UserId, p.x, p.y);
            a += 1;
            added_at = added.get(a).map(|&(k, _)| place(k));
        } else if gone_at == Some(at) {
            debug_assert_eq!(
                old.entries[at], gone[g] as UserId,
                "a removed id was not in its cell"
            );
            i += 1;
            g += 1;
            gone_at = gone.get(g).map(|&k| place(k));
        } else {
            break;
        }
    }
    let (mut gone, mut added) = (gone, added);
    let (mut c, mut shift) = (0, 0i64);
    loop {
        let next = gone
            .first()
            .into_iter()
            .chain(added.first().map(|(k, _)| k))
            .map(|&k| edit_cell(k) - base)
            .min();
        // Cells `c..=next` start after the same edits.
        let end = next.unwrap_or(n_cells);
        out.offsets.extend(
            old.offsets[c..=end]
                .iter()
                .map(|&o| (i64::from(o) + shift) as u32),
        );
        let Some(cell) = next else {
            break;
        };
        let in_cell = |k: u64| edit_cell(k) - base == cell;
        let left = gone.iter().take_while(|&&k| in_cell(k)).count();
        let entered = added.iter().take_while(|&&(k, _)| in_cell(k)).count();
        shift += entered as i64 - left as i64;
        gone = &gone[left..];
        added = &added[entered..];
        c = cell + 1;
    }
    debug_assert_eq!(out.offsets.last().copied(), Some(out.entries.len() as u32));
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
    /// Ids staged since the last commit, each with its tick-start cell, in
    /// first-staging order. Queries are invalid while it is non-empty.
    staged: Vec<(UserId, u32)>,
    /// Bit `id` is set while `id` is in `staged`.
    staged_bits: Vec<u64>,
    /// Commit scratch: the batch's removals and insertions (sorted) and
    /// in-cell moves as [`edit_key`]s, the last two with their new
    /// positions, and the CSR a shard's merge writes before it is swapped
    /// in.
    gone: Vec<u64>,
    added: Vec<(u64, Point)>,
    moved: Vec<(u64, Point)>,
    spare: Csr,
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
    /// `1..=cell rows`, so any value is safe): [`GridIndex::build`]'s CSR,
    /// cut into bands.
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build_with_shards(points: &[Point], min_cell_side: f64, shards: usize) -> Self {
        let (cells, cell_side, offsets, entries, coords, points) =
            GridIndex::build(points, min_cell_side).into_parts();
        let shards = shards.clamp(1, cells);
        let rows_per_shard = cells.div_ceil(shards);
        let n_shards = cells.div_ceil(rows_per_shard);
        let shards = (0..n_shards)
            .map(|s| {
                let first_row = s * rows_per_shard;
                let rows = rows_per_shard.min(cells - first_row);
                let (cell_base, n_cells) = (first_row * cells, rows * cells);
                let band = &offsets[cell_base..=cell_base + n_cells];
                let (lo, hi) = (band[0] as usize, band[n_cells] as usize);
                Shard {
                    cell_base,
                    n_cells,
                    csr: Csr {
                        offsets: band.iter().map(|&o| o - band[0]).collect(),
                        entries: entries[lo..hi].to_vec(),
                        coords: PointsSoA {
                            xs: coords.xs[lo..hi].to_vec(),
                            ys: coords.ys[lo..hi].to_vec(),
                        },
                    },
                }
            })
            .collect();
        let cell_of = points
            .iter()
            .map(|p| crate::grid::cell_id_of(p, cell_side, cells) as u32)
            .collect();
        ShardedDynamicGrid {
            cells,
            cell_side,
            min_cell_side,
            rows_per_shard,
            staged_bits: vec![0; points.len().div_ceil(64)],
            points,
            cell_of,
            shards,
            staged: Vec::new(),
            gone: Vec::new(),
            added: Vec::new(),
            moved: Vec::new(),
            spare: Csr::default(),
        }
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

    /// Stages a move of `id` to `new_pos`: the position and the cell
    /// assignment update immediately and the structural work is deferred to
    /// [`ShardedDynamicGrid::commit_moves`]. Returns the previous position,
    /// so the first staging of an id in a batch returns its tick-start
    /// position.
    ///
    /// Range queries are **stale** between a stage and the commit (they scan
    /// the pre-move cell structure); debug builds assert that no query runs
    /// on a staged grid.
    pub fn try_stage_move(&mut self, id: UserId, new_pos: Point) -> Result<Point, GridError> {
        let Some(slot) = self.points.get_mut(id as usize) else {
            return Err(GridError::unknown(id, self.points.len()));
        };
        let old = std::mem::replace(slot, new_pos);
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.staged_bits[word] & bit == 0 {
            self.staged_bits[word] |= bit;
            self.staged.push((id, self.cell_of[id as usize]));
        }
        self.cell_of[id as usize] =
            crate::grid::cell_id_of(&new_pos, self.cell_side, self.cells) as u32;
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

    /// Applies every staged move to the cell structure and opens the next
    /// batch. Each staged id whose final cell differs from its tick-start
    /// cell becomes one removal and one insertion, and every shard holding
    /// one is rebuilt by one merge of its old CSR with them
    /// (`merge_shard`); untouched shards are skipped. An id that ended in
    /// its start cell keeps its slot and only refreshes its coordinates. No
    /// allocation once the scratch buffers reach steady size.
    pub fn commit_moves(&mut self) {
        let mut gone = std::mem::take(&mut self.gone);
        let mut added = std::mem::take(&mut self.added);
        let mut moved = std::mem::take(&mut self.moved);
        gone.clear();
        added.clear();
        moved.clear();
        // Gathered in staging order, usually ascending ids, so the
        // merges read no position at random.
        for &(id, start) in &self.staged {
            self.staged_bits[id as usize / 64] &= !(1u64 << (id % 64));
            let (now, p) = (self.cell_of[id as usize], self.points[id as usize]);
            if now == start {
                moved.push((edit_key(now, id), p));
            } else {
                gone.push(edit_key(start, id));
                added.push((edit_key(now, id), p));
            }
        }
        self.staged.clear();
        gone.sort_unstable();
        added.sort_unstable_by_key(|&(k, _)| k);
        let (mut left, mut entered) = (&gone[..], &added[..]);
        for shard in &mut self.shards {
            let end = shard.cell_base + shard.n_cells;
            let g = left.partition_point(|&k| edit_cell(k) < end);
            let a = entered.partition_point(|&(k, _)| edit_cell(k) < end);
            if g + a > 0 {
                merge_shard(
                    &shard.csr,
                    &mut self.spare,
                    (shard.cell_base, shard.n_cells),
                    (&left[..g], &entered[..a]),
                );
                std::mem::swap(&mut shard.csr, &mut self.spare);
            }
            left = &left[g..];
            entered = &entered[a..];
        }
        for &(key, p) in &moved {
            let (cell, id) = (edit_cell(key), key as UserId);
            let shard = &mut self.shards[(cell / self.cells) / self.rows_per_shard];
            let csr = &mut shard.csr;
            let lc = cell - shard.cell_base;
            let (lo, hi) = (csr.offsets[lc] as usize, csr.offsets[lc + 1] as usize);
            let at = lo
                + csr.entries[lo..hi]
                    .binary_search(&id)
                    .expect("an in-cell mover sits in its cell slice");
            csr.coords.xs[at] = p.x;
            csr.coords.ys[at] = p.y;
        }
        self.gone = gone;
        self.added = added;
        self.moved = moved;
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
        debug_assert!(self.staged.is_empty(), "range query on a staged grid");
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
            let csr = &shard.csr;
            let lo = csr.offsets[row + lo_cx] as usize;
            let hi = csr.offsets[row + hi_cx + 1] as usize;
            (
                &csr.entries[lo..hi],
                &csr.coords.xs[lo..hi],
                &csr.coords.ys[lo..hi],
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

    /// Count of points inside `rect` (inclusive bounds): the same cells,
    /// coordinate mirror and predicate as [`GridIndex::count_in_rect`] over
    /// [`ShardedDynamicGrid::to_grid_index`], so the same count, without
    /// freezing the grid.
    pub fn count_in_rect(&self, rect: &Rect) -> usize {
        debug_assert!(self.staged.is_empty(), "count_in_rect on a staged grid");
        let (cols, rows) = rect_block(rect, self.cell_side, self.cells);
        if cols.0 > cols.1 {
            return 0;
        }
        count_in_runs(self.row_runs(cols, rows), rect)
    }

    /// Freezes the current cell structure into a [`GridIndex`] by
    /// concatenating the shard CSRs — a pure O(n + cells) copy, no
    /// re-bucketing. Bit-identical to `GridIndex::build(self.points(), δ)`
    /// because shards cover consecutive global cell ranges and entries ascend
    /// within each cell.
    pub fn to_grid_index(&self) -> GridIndex {
        debug_assert!(self.staged.is_empty(), "to_grid_index on a staged grid");
        let n_cells = self.cells * self.cells;
        let n = self.points.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(n_cells + 1);
        offsets.push(0);
        let mut entries: Vec<UserId> = Vec::with_capacity(n);
        let mut coords = PointsSoA::with_capacity(n);
        for Shard { csr, .. } in &self.shards {
            let base = *offsets.last().expect("offsets starts non-empty");
            offsets.extend(csr.offsets[1..].iter().map(|&o| base + o));
            entries.extend_from_slice(&csr.entries);
            coords.xs.extend_from_slice(&csr.coords.xs);
            coords.ys.extend_from_slice(&csr.coords.ys);
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
    use proptest::prelude::*;
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
            for _ in 0..40 {
                let id = rng.gen_range(0..300u32);
                g.stage_move(id, Point::new(rng.gen(), rng.gen()));
            }
            g.commit_moves();
            assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.04));
        }
    }

    #[test]
    fn count_in_rect_matches_the_frozen_index_across_ticks() {
        let pts = sample_points(600, 6);
        let mut g = ShardedDynamicGrid::build_with_shards(&pts, 0.04, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _tick in 0..10 {
            for _ in 0..60 {
                let id = rng.gen_range(0..600u32);
                g.stage_move(id, Point::new(rng.gen(), rng.gen()));
            }
            g.commit_moves();
            let frozen = g.to_grid_index();
            for _ in 0..30 {
                let (x, y): (f64, f64) = (rng.gen_range(-0.1..1.0), rng.gen_range(-0.1..1.0));
                let (w, h): (f64, f64) = (rng.gen_range(0.0..0.4), rng.gen_range(0.0..0.4));
                let r = Rect::new(x, y, x + w, y + h);
                let expect = g.points().iter().filter(|p| r.contains(p)).count();
                assert_eq!(g.count_in_rect(&r), frozen.count_in_rect(&r));
                assert_eq!(g.count_in_rect(&r), expect);
            }
            // The whole square, a point-sized box, and a box off the square.
            for r in [
                Rect::UNIT,
                Rect::new(0.5, 0.5, 0.5, 0.5),
                Rect::new(1.2, 1.2, 1.5, 1.5),
            ] {
                assert_eq!(g.count_in_rect(&r), frozen.count_in_rect(&r));
            }
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
        g.stage_move(0, Point::new(1.0, 1.0));
        g.commit_moves();
        let mut out = Vec::new();
        g.neighbors_within(0, 0.01, &mut out);
        assert_eq!(ids(out.clone()), vec![1]);
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
        // stages A→B→C for user 0 and A→B→A for user 1; the merged commit
        // must leave each exactly once, in its final shard.
        let pts = sample_points(120, 21);
        let mut g = ShardedDynamicGrid::build_with_shards(&pts, 0.05, 10);
        g.stage_move(0, Point::new(0.5, 0.45));
        g.stage_move(0, Point::new(0.5, 0.95));
        let home = g.position(1);
        g.stage_move(1, Point::new(0.5, 0.45));
        g.stage_move(1, home);
        g.commit_moves();
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
        let total: usize = g.shards.iter().map(|s| s.csr.entries.len()).sum();
        assert_eq!(total, 120, "the commit lost or duplicated users");
    }

    #[test]
    fn duplicate_stages_last_position_wins() {
        let pts = sample_points(50, 2);
        let mut g = ShardedDynamicGrid::build(&pts, 0.05);
        g.stage_move(7, Point::new(0.1, 0.1));
        g.stage_move(7, Point::new(0.9, 0.9));
        g.stage_move(7, Point::new(0.3, 0.7));
        g.commit_moves();
        assert_eq!(g.position(7), Point::new(0.3, 0.7));
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
    }

    /// A point drawn inside `p`'s cell of `g`, away from its upper edges.
    fn in_cell(g: &ShardedDynamicGrid, p: Point, rng: &mut ChaCha8Rng) -> Point {
        let side = g.cell_side;
        let lo = |v: f64| crate::grid::cell_coord(v, side, g.cells) as f64 * side;
        Point::new(
            lo(p.x) + side * rng.gen_range(0.0..0.999),
            lo(p.y) + side * rng.gen_range(0.0..0.999),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random batches of every kind of staging the commit resolves:
        /// teleports (mostly cross-shard), in-cell drift, A→B→A returns,
        /// repeated stagings of one id and one-row hops across band edges.
        /// After every commit the frozen index is bit-identical to a fresh
        /// build, for shard counts from one band to one band per cell row.
        #[test]
        fn merged_commit_matches_a_fresh_build(
            seed in 0u64..1_000_000,
            n in 40usize..300,
            shard_sel in 0usize..5,
            side in 0.04f64..0.2,
            batches in 1usize..6,
            stagings in 0usize..80,
        ) {
            let shards = [1usize, 2, 7, 16, 4096][shard_sel];
            let pts = sample_points(n, seed);
            let mut g = ShardedDynamicGrid::build_with_shards(&pts, side, shards);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0117);
            for _ in 0..batches {
                for _ in 0..stagings {
                    let id = rng.gen_range(0..n as u32);
                    let p = g.position(id);
                    match rng.gen_range(0..5) {
                        0 => {
                            g.stage_move(id, Point::new(rng.gen(), rng.gen()));
                        }
                        1 => {
                            let to = in_cell(&g, p, &mut rng);
                            g.stage_move(id, to);
                        }
                        2 => {
                            g.stage_move(id, Point::new(rng.gen(), rng.gen()));
                            g.stage_move(id, p);
                        }
                        3 => {
                            for _ in 0..rng.gen_range(2..5) {
                                g.stage_move(id, Point::new(rng.gen(), rng.gen()));
                            }
                        }
                        _ => {
                            let dy = if rng.gen() { side } else { -side };
                            g.stage_move(id, Point::new(p.x, (p.y + dy).clamp(0.0, 1.0)));
                        }
                    }
                }
                g.commit_moves();
                let (frozen, fresh) = (g.to_grid_index(), GridIndex::build(g.points(), side));
                prop_assert_eq!(frozen.raw_parts(), fresh.raw_parts());
            }
        }
    }

    #[test]
    fn in_cell_batch_refreshes_coordinates_only() {
        // Every mover ends in its start cell: in-cell drift, repeated
        // in-cell stagings and A→B→A returns through another shard. The
        // commit must leave every shard's offsets and entries as they were
        // and only rewrite the movers' mirror coordinates.
        let pts = sample_points(500, 12);
        let mut g = ShardedDynamicGrid::build_with_shards(&pts, 0.05, 7);
        let before: Vec<(Vec<u32>, Vec<UserId>)> = g
            .shards
            .iter()
            .map(|s| (s.csr.offsets.clone(), s.csr.entries.clone()))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for id in (0..500u32).step_by(3) {
            let p = g.position(id);
            let to = in_cell(&g, p, &mut rng);
            g.stage_move(id, to);
            if id % 2 == 0 {
                let q = g.position(id);
                g.stage_move(id, Point::new(1.0 - q.x, 1.0 - q.y));
                let back = in_cell(&g, q, &mut rng);
                g.stage_move(id, back);
            }
        }
        g.commit_moves();
        let after: Vec<(Vec<u32>, Vec<UserId>)> = g
            .shards
            .iter()
            .map(|s| (s.csr.offsets.clone(), s.csr.entries.clone()))
            .collect();
        assert_eq!(before, after, "an in-cell batch edited the cell structure");
        assert_ne!(g.points(), &pts[..]);
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
    }
}
