//! The maintained grid for batched moves.
//!
//! Under mobility a full O(n) grid rebuild per tick wastes work when only
//! some users move. [`DynamicGrid`] is the maintained grid behind
//! `nela_wpg::IncrementalWpg`: one [`GridIndex`] plus the state its
//! batched commit needs.
//!
//! - Position updates are **staged** ([`DynamicGrid::try_stage_move`]) and
//!   then **committed** in one pass ([`DynamicGrid::commit_moves`]). The
//!   first staging of an id records its tick-start cell. The commit sorts
//!   the batch's cell changes into removals and insertions keyed by
//!   `(cell, id)` and rebuilds the index's CSR by one merge with them: runs
//!   of unedited cells are bulk-copied, edited cells merge their old ids
//!   with the edits. A mover that ends in its start cell only refreshes its
//!   mirror coordinates.
//! - Every δ-probe ([`DynamicGrid::neighbors_of_point`]) and rectangle count
//!   ([`DynamicGrid::count_in_rect`]) is the index's own.
//!
//! Entries within a cell are kept in ascending id order (the build inherits
//! `GridIndex::build`'s order and every merge keeps it), so the maintained
//! index is **bit-identical** to `GridIndex::build` over the same positions
//! — pinned by the tests below. The module keeps its name for
//! [`DEFAULT_SHARDS`].

use crate::grid::{cell_id_of, GridIndex};
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

/// Unused by the workspace; kept because the benchmark under `benchmark/`
/// names it (as the `shards` argument `IncrementalWpg::with_topology`
/// ignores).
pub const DEFAULT_SHARDS: usize = 16;

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

/// Writes `old`'s CSR merged with the sorted edit keys `gone` (ids that
/// left a cell, each in its old slice) and `added` (ids that entered one,
/// none in it, with their new positions) into `offsets`, `entries` and
/// `coords`. Old entries are in `(cell, id)` order, so the new ones are the
/// old minus `gone`, merged with `added`: the runs between edits are
/// bulk-copied. The offsets shift by the edits in the cells before them.
fn merge_edits(
    old: &GridIndex,
    (offsets, entries, coords): (&mut Vec<u32>, &mut Vec<UserId>, &mut PointsSoA),
    (gone, added): (&[u64], &[(u64, Point)]),
) {
    offsets.clear();
    entries.clear();
    coords.clear();
    let (old_offsets, old_entries) = (&old.bucket_offsets, &old.entries);
    // Appends the old entries `lo..hi`. A short run is copied entry by
    // entry: a batch that moves most users leaves runs of one or two
    // entries between its edits, where three slice copies cost more.
    let copy = |entries: &mut Vec<UserId>, coords: &mut PointsSoA, lo: usize, hi: usize| {
        let (ids, xs, ys) = (
            &old_entries[lo..hi],
            &old.entry_coords.xs[lo..hi],
            &old.entry_coords.ys[lo..hi],
        );
        if hi - lo <= 4 {
            for ((&id, &x), &y) in ids.iter().zip(xs).zip(ys) {
                entries.push(id);
                coords.xs.push(x);
                coords.ys.push(y);
            }
            return;
        }
        entries.extend_from_slice(ids);
        coords.xs.extend_from_slice(xs);
        coords.ys.extend_from_slice(ys);
    };
    // An edit's place among the old entries: a removed id's slot, or the
    // slot an added id goes before.
    let place = |key: u64| {
        let c = edit_cell(key);
        let (lo, hi) = (old_offsets[c] as usize, old_offsets[c + 1] as usize);
        lo + old_entries[lo..hi].partition_point(|&id| id < key as UserId)
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
            .unwrap_or(old_entries.len());
        copy(entries, coords, i, at);
        i = at;
        if added_at == Some(at) {
            // An insertion goes before a removal at the same place: the
            // added id is below the removed one, which sits there.
            let (key, p) = added[a];
            entries.push(key as UserId);
            coords.push(p);
            a += 1;
            added_at = added.get(a).map(|&(k, _)| place(k));
        } else if gone_at == Some(at) {
            debug_assert_eq!(
                old_entries[at], gone[g] as UserId,
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
            .map(|&k| edit_cell(k))
            .min();
        // Cells `c..=next` start after the same edits.
        let end = next.unwrap_or(old_offsets.len() - 1);
        offsets.extend(
            old_offsets[c..=end]
                .iter()
                .map(|&o| (i64::from(o) + shift) as u32),
        );
        let Some(cell) = next else {
            break;
        };
        let in_cell = |k: u64| edit_cell(k) == cell;
        let left = gone.iter().take_while(|&&k| in_cell(k)).count();
        let entered = added.iter().take_while(|&&(k, _)| in_cell(k)).count();
        shift += entered as i64 - left as i64;
        gone = &gone[left..];
        added = &added[entered..];
        c = cell + 1;
    }
    debug_assert_eq!(offsets.last().copied(), Some(entries.len() as u32));
}

/// A [`GridIndex`] maintained under batches of staged moves. See the
/// module docs for the maintenance contract.
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    /// Current positions and the committed cell structure. Staging updates
    /// the positions at once; the cells wait for the commit.
    index: GridIndex,
    /// Current cell of every point, indexed by id.
    cell_of: Vec<u32>,
    /// Ids staged since the last commit, each with its tick-start cell, in
    /// first-staging order. Queries are invalid while it is non-empty.
    staged: Vec<(UserId, u32)>,
    /// Bit `id` is set while `id` is in `staged`.
    staged_bits: Vec<u64>,
    /// Commit scratch: the batch's removals and insertions (sorted) and
    /// in-cell moves as [`edit_key`]s, the last two with their new
    /// positions, and the offsets, entries and coordinate mirror the merge
    /// writes before they are swapped into the index.
    gone: Vec<u64>,
    added: Vec<(u64, Point)>,
    moved: Vec<(u64, Point)>,
    spare_offsets: Vec<u32>,
    spare_entries: Vec<UserId>,
    spare_coords: PointsSoA,
}

impl DynamicGrid {
    /// Builds the grid: [`GridIndex::build`]'s index with no staged moves.
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build(points: &[Point], min_cell_side: f64) -> Self {
        let (index, cell_of) = GridIndex::build_with_cells(points, min_cell_side);
        DynamicGrid {
            index,
            cell_of,
            staged: Vec::new(),
            staged_bits: vec![0; points.len().div_ceil(64)],
            gone: Vec::new(),
            added: Vec::new(),
            moved: Vec::new(),
            spare_offsets: Vec::new(),
            spare_entries: Vec::new(),
            spare_coords: PointsSoA::default(),
        }
    }

    /// The current positions, indexed by id. Staged moves are already
    /// reflected here (positions update eagerly; only the cell structure
    /// waits for [`DynamicGrid::commit_moves`]).
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.index.points()
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

    /// Stages a move of `id` to `new_pos`: the position and the cell
    /// assignment update immediately and the structural work is deferred to
    /// [`DynamicGrid::commit_moves`]. Returns the previous position, so the
    /// first staging of an id in a batch returns its tick-start position,
    /// or [`GridError::UnknownId`] when `id` is not part of the indexed
    /// population.
    ///
    /// Range queries are **stale** between a stage and the commit (they scan
    /// the pre-move cell structure); debug builds assert that no query runs
    /// on a staged grid.
    pub fn try_stage_move(&mut self, id: UserId, new_pos: Point) -> Result<Point, GridError> {
        let population = self.index.points.len();
        let Some(slot) = self.index.points.get_mut(id as usize) else {
            return Err(GridError::unknown(id, population));
        };
        let old = std::mem::replace(slot, new_pos);
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.staged_bits[word] & bit == 0 {
            self.staged_bits[word] |= bit;
            self.staged.push((id, self.cell_of[id as usize]));
        }
        self.cell_of[id as usize] =
            cell_id_of(&new_pos, self.index.cell_side, self.index.cells) as u32;
        Ok(old)
    }

    /// Applies every staged move to the cell structure and opens the next
    /// batch. Each staged id whose final cell differs from its tick-start
    /// cell becomes one removal and one insertion, and a batch with any
    /// rebuilds the CSR by one merge with them (`merge_edits`). An id that
    /// ended in its start cell keeps its slot and only refreshes its
    /// coordinates. No allocation once the scratch buffers reach steady
    /// size.
    pub fn commit_moves(&mut self) {
        let mut gone = std::mem::take(&mut self.gone);
        let mut added = std::mem::take(&mut self.added);
        let mut moved = std::mem::take(&mut self.moved);
        gone.clear();
        added.clear();
        moved.clear();
        // Gathered in staging order, usually ascending ids, so the
        // merge reads no position at random.
        for &(id, start) in &self.staged {
            self.staged_bits[id as usize / 64] &= !(1u64 << (id % 64));
            let (now, p) = (self.cell_of[id as usize], self.index.points[id as usize]);
            if now == start {
                moved.push((edit_key(now, id), p));
            } else {
                gone.push(edit_key(start, id));
                added.push((edit_key(now, id), p));
            }
        }
        self.staged.clear();
        if !gone.is_empty() {
            gone.sort_unstable();
            added.sort_unstable_by_key(|&(k, _)| k);
            merge_edits(
                &self.index,
                (
                    &mut self.spare_offsets,
                    &mut self.spare_entries,
                    &mut self.spare_coords,
                ),
                (&gone, &added),
            );
            let index = &mut self.index;
            std::mem::swap(&mut index.bucket_offsets, &mut self.spare_offsets);
            std::mem::swap(&mut index.entries, &mut self.spare_entries);
            std::mem::swap(&mut index.entry_coords, &mut self.spare_coords);
        }
        let index = &mut self.index;
        for &(key, p) in &moved {
            let (cell, id) = (edit_cell(key), key as UserId);
            let (lo, hi) = (
                index.bucket_offsets[cell] as usize,
                index.bucket_offsets[cell + 1] as usize,
            );
            let at = lo
                + index.entries[lo..hi]
                    .binary_search(&id)
                    .expect("an in-cell mover sits in its cell slice");
            index.entry_coords.xs[at] = p.x;
            index.entry_coords.ys[at] = p.y;
        }
        self.gone = gone;
        self.added = added;
        self.moved = moved;
    }

    /// [`GridIndex::neighbors_of_point`] over the committed grid.
    #[inline]
    pub fn neighbors_of_point(
        &self,
        center: Point,
        exclude: UserId,
        radius: f64,
        out: &mut Vec<(UserId, f64)>,
    ) {
        debug_assert!(self.staged.is_empty(), "range query on a staged grid");
        self.index.neighbors_of_point(center, exclude, radius, out);
    }

    /// [`GridIndex::neighbors_within`] over the committed grid.
    #[inline]
    pub fn neighbors_within(&self, query_id: UserId, radius: f64, out: &mut Vec<(UserId, f64)>) {
        debug_assert!(self.staged.is_empty(), "range query on a staged grid");
        self.index.neighbors_within(query_id, radius, out);
    }

    /// [`GridIndex::count_in_rect`] over the committed grid.
    #[inline]
    pub fn count_in_rect(&self, rect: &Rect) -> usize {
        debug_assert!(self.staged.is_empty(), "count_in_rect on a staged grid");
        self.index.count_in_rect(rect)
    }

    /// A copy of the maintained index: bit-identical to
    /// `GridIndex::build(self.points(), δ)`.
    pub fn to_grid_index(&self) -> GridIndex {
        debug_assert!(self.staged.is_empty(), "to_grid_index on a staged grid");
        self.index.clone()
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

    /// Stages a move of an id known to be in range.
    fn stage(g: &mut DynamicGrid, id: UserId, to: Point) {
        g.try_stage_move(id, to).expect("id in range");
    }

    #[test]
    fn fresh_build_matches_static_index_bitwise() {
        let pts = sample_points(400, 9);
        let g = DynamicGrid::build(&pts, 0.05);
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(&pts, 0.05));
    }

    #[test]
    fn queries_match_static_index_bitwise() {
        let pts = sample_points(500, 3);
        let g = DynamicGrid::build(&pts, 0.04);
        let fixed = GridIndex::build(&pts, 0.04);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for q in (0..500u32).step_by(13) {
            g.neighbors_within(q, 0.04, &mut a);
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
        let mut g = DynamicGrid::build(&pts, 0.04);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _tick in 0..20 {
            for _ in 0..40 {
                let id = rng.gen_range(0..300u32);
                stage(&mut g, id, Point::new(rng.gen(), rng.gen()));
            }
            g.commit_moves();
            assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.04));
        }
    }

    #[test]
    fn count_in_rect_matches_the_frozen_index_across_ticks() {
        let pts = sample_points(600, 6);
        let mut g = DynamicGrid::build(&pts, 0.04);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _tick in 0..10 {
            for _ in 0..60 {
                let id = rng.gen_range(0..600u32);
                stage(&mut g, id, Point::new(rng.gen(), rng.gen()));
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
        let mut g = DynamicGrid::build(&sample_points(10, 1), 0.05);
        assert_eq!(
            g.try_stage_move(10, Point::new(0.5, 0.5)),
            Err(GridError::UnknownId {
                id: 10,
                population: 10
            })
        );
        // Valid ids still work through the fallible API.
        assert!(g.try_stage_move(3, Point::new(0.4, 0.4)).is_ok());
        g.commit_moves();
        assert_eq!(g.points()[3], Point::new(0.4, 0.4));
    }

    #[test]
    fn boundary_and_out_of_square_coordinates_stay_queryable() {
        let mut g = DynamicGrid::build(&[Point::new(0.5, 0.5), Point::new(0.999, 0.999)], 0.01);
        stage(&mut g, 0, Point::new(1.0, 1.0));
        g.commit_moves();
        let mut out = Vec::new();
        g.neighbors_within(0, 0.01, &mut out);
        assert_eq!(ids(out.clone()), vec![1]);
        stage(&mut g, 0, Point::new(-0.002, 0.5));
        stage(&mut g, 1, Point::new(0.01, 0.5));
        g.commit_moves();
        g.neighbors_within(1, 0.05, &mut out);
        assert_eq!(ids(out), vec![0]);
    }

    #[test]
    fn peer_at_exactly_delta_is_in_range() {
        let delta = 0.125;
        let g = DynamicGrid::build(
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
        // With 0.05 cells there are 20 rows, and y ∈ {0.05, 0.45, 0.95}
        // land in rows far apart. One batch stages A→B→C for user 0 and
        // A→B→A for user 1; the merged commit must leave each exactly once,
        // in its final cell.
        let pts = sample_points(120, 21);
        let mut g = DynamicGrid::build(&pts, 0.05);
        stage(&mut g, 0, Point::new(0.5, 0.45));
        stage(&mut g, 0, Point::new(0.5, 0.95));
        let home = g.points()[1];
        stage(&mut g, 1, Point::new(0.5, 0.45));
        stage(&mut g, 1, home);
        g.commit_moves();
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
        assert_eq!(
            g.index.entries.len(),
            120,
            "the commit lost or duplicated users"
        );
    }

    #[test]
    fn duplicate_stages_last_position_wins() {
        let pts = sample_points(50, 2);
        let mut g = DynamicGrid::build(&pts, 0.05);
        stage(&mut g, 7, Point::new(0.1, 0.1));
        stage(&mut g, 7, Point::new(0.9, 0.9));
        stage(&mut g, 7, Point::new(0.3, 0.7));
        g.commit_moves();
        assert_eq!(g.points()[7], Point::new(0.3, 0.7));
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
    }

    /// A point drawn inside `p`'s cell of `g`, away from its upper edges.
    fn in_cell(g: &DynamicGrid, p: Point, rng: &mut ChaCha8Rng) -> Point {
        let side = g.index.cell_side;
        let lo = |v: f64| crate::grid::cell_coord(v, side, g.index.cells) as f64 * side;
        Point::new(
            lo(p.x) + side * rng.gen_range(0.0..0.999),
            lo(p.y) + side * rng.gen_range(0.0..0.999),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random batches of every kind of staging the commit resolves:
        /// teleports, in-cell drift, A→B→A returns, repeated stagings of one
        /// id and one-row hops. After every commit the frozen index is
        /// bit-identical to a fresh build.
        #[test]
        fn merged_commit_matches_a_fresh_build(
            seed in 0u64..1_000_000,
            n in 40usize..300,
            side in 0.04f64..0.2,
            batches in 1usize..6,
            stagings in 0usize..80,
        ) {
            let pts = sample_points(n, seed);
            let mut g = DynamicGrid::build(&pts, side);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0117);
            for _ in 0..batches {
                for _ in 0..stagings {
                    let id = rng.gen_range(0..n as u32);
                    let p = g.points()[id as usize];
                    match rng.gen_range(0..5) {
                        0 => stage(&mut g, id, Point::new(rng.gen(), rng.gen())),
                        1 => {
                            let to = in_cell(&g, p, &mut rng);
                            stage(&mut g, id, to);
                        }
                        2 => {
                            stage(&mut g, id, Point::new(rng.gen(), rng.gen()));
                            stage(&mut g, id, p);
                        }
                        3 => {
                            for _ in 0..rng.gen_range(2..5) {
                                stage(&mut g, id, Point::new(rng.gen(), rng.gen()));
                            }
                        }
                        _ => {
                            let dy = if rng.gen() { side } else { -side };
                            stage(&mut g, id, Point::new(p.x, (p.y + dy).clamp(0.0, 1.0)));
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
        // in-cell stagings and A→B→A returns through a far cell. The commit
        // must leave the offsets and entries as they were and only rewrite
        // the movers' mirror coordinates.
        let pts = sample_points(500, 12);
        let mut g = DynamicGrid::build(&pts, 0.05);
        let cells = |g: &DynamicGrid| (g.index.bucket_offsets.clone(), g.index.entries.clone());
        let before = cells(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for id in (0..500u32).step_by(3) {
            let p = g.points()[id as usize];
            let to = in_cell(&g, p, &mut rng);
            stage(&mut g, id, to);
            if id % 2 == 0 {
                let q = g.points()[id as usize];
                stage(&mut g, id, Point::new(1.0 - q.x, 1.0 - q.y));
                let back = in_cell(&g, q, &mut rng);
                stage(&mut g, id, back);
            }
        }
        g.commit_moves();
        assert_eq!(
            before,
            cells(&g),
            "an in-cell batch edited the cell structure"
        );
        assert_ne!(g.points(), &pts[..]);
        assert_index_identical(&g.to_grid_index(), &GridIndex::build(g.points(), 0.05));
    }
}
