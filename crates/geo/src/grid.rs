//! Uniform-grid spatial index for δ-range neighbor queries.
//!
//! Building a weighted proximity graph over ~10⁵ users requires, for every
//! user, all peers within the radio range δ. A uniform grid whose cell side
//! equals δ answers such a query by scanning at most the 3×3 cell block
//! around the query point, which is optimal for the short, fixed radii used
//! in the paper (δ = 2×10⁻³ in the unit square).
//!
//! The index is built once over the full population (users do not move during
//! an experiment, matching the paper's static snapshot model) and stores
//! point indices bucketed per cell in a flat CSR-style layout to keep the
//! ~10⁵-point index allocation-light.
//!
//! **Boundary semantics:** a peer at *exactly* distance δ is in range
//! (`d ≤ δ`), matching the paper's "each user can hear peers within the
//! radio range δ" and the RSS model docs in `nela-wpg`. Coordinates
//! marginally outside `[0, 1)` (mobility reflection can land exactly on
//! `1.0`; numeric drift can dip below `0.0`) are clamped onto the border
//! cells rather than relying on float-to-int cast saturation.

use crate::point::Point;
use crate::rect::Rect;
use crate::soa::{dist_sq_block, PointsSoA, KERNEL_BLOCK};
use crate::UserId;

/// Cells per axis for a given minimum cell side: at least one cell; at most
/// what keeps memory reasonable for the unit square (1/δ cells per axis,
/// capped to avoid pathological tiny δ).
#[inline]
fn cells_per_axis(min_cell_side: f64) -> usize {
    ((1.0 / min_cell_side).floor() as usize).clamp(1, 4096)
}

/// Cell coordinate of a scalar position, clamped into `[0, cells)`.
/// Negative coordinates land on cell 0 and coordinates ≥ 1 on the last
/// cell — explicitly, not via `as usize` saturation.
#[inline]
pub(crate) fn cell_coord(v: f64, cell_side: f64, cells: usize) -> usize {
    if v <= 0.0 {
        return 0;
    }
    ((v / cell_side) as usize).min(cells - 1)
}

/// Flat cell id of a point (shared by build and the dynamic grid).
#[inline]
pub(crate) fn cell_id_of(p: &Point, cell_side: f64, cells: usize) -> usize {
    cell_coord(p.y, cell_side, cells) * cells + cell_coord(p.x, cell_side, cells)
}

/// The inclusive cell block `(cols, rows)` a ball of `radius` around `q`
/// overlaps on a `cells × cells` grid, or `None` for a radius of minus one
/// cell or less.
#[inline]
pub(crate) fn ball_block(
    q: Point,
    radius: f64,
    cell_side: f64,
    cells: usize,
) -> Option<((usize, usize), (usize, usize))> {
    let span = usize::try_from((radius / cell_side).ceil() as isize).ok()?;
    let qcx = cell_coord(q.x, cell_side, cells);
    let qcy = cell_coord(q.y, cell_side, cells);
    let last = cells - 1;
    Some((
        (qcx.saturating_sub(span), qcx.saturating_add(span).min(last)),
        (qcy.saturating_sub(span), qcy.saturating_add(span).min(last)),
    ))
}

/// The inclusive cell block `(cols, rows)` that `rect` overlaps on a
/// `cells × cells` grid. Out-of-square bounds clamp onto the border cells,
/// like the points themselves; an inverted rectangle gives an inverted
/// range.
#[inline]
pub(crate) fn rect_block(
    rect: &Rect,
    cell_side: f64,
    cells: usize,
) -> ((usize, usize), (usize, usize)) {
    let axis = |v: f64| ((v / cell_side) as isize).clamp(0, cells as isize - 1) as usize;
    (
        (axis(rect.min_x), axis(rect.max_x)),
        (axis(rect.min_y), axis(rect.max_y)),
    )
}

/// The number of points of `runs` that `rect` contains (inclusive bounds):
/// the count both grids' `count_in_rect` share.
pub(crate) fn count_in_runs<'a>(
    runs: impl Iterator<Item = (&'a [UserId], &'a [f64], &'a [f64])>,
    rect: &Rect,
) -> usize {
    runs.map(|(_, xs, ys)| {
        xs.iter()
            .zip(ys)
            .filter(|&(&x, &y)| rect.contains(&Point::new(x, y)))
            .count()
    })
    .sum()
}

/// The δ-probe kernel both grids share: appends to `out` every
/// `(id, squared distance)` of `runs` within `radius` of `q`, skipping
/// `exclude`, in run order.
///
/// Each run is split into blocks: a branch-free squared-distance kernel over
/// the SoA streams (which autovectorizes), then a compare-and-select pass
/// over the distances. Both the per-lane arithmetic and the push order
/// match the fused scalar loop exactly, so results are bit-identical to it.
pub(crate) fn scan_runs<'a>(
    runs: impl Iterator<Item = (&'a [UserId], &'a [f64], &'a [f64])>,
    q: Point,
    radius: f64,
    exclude: UserId,
    out: &mut Vec<(UserId, f64)>,
) {
    let r_sq = radius * radius;
    // Stack scratch for one block of squared distances — no heap.
    let mut d = [0.0f64; KERNEL_BLOCK];
    for (ids, xs, ys) in runs {
        let mut base = 0;
        while base < ids.len() {
            let m = (ids.len() - base).min(KERNEL_BLOCK);
            dist_sq_block(
                q.x,
                q.y,
                &xs[base..base + m],
                &ys[base..base + m],
                &mut d[..m],
            );
            for (j, &d_sq) in d[..m].iter().enumerate() {
                let id = ids[base + j];
                if d_sq <= r_sq && id != exclude {
                    out.push((id, d_sq));
                }
            }
            base += m;
        }
    }
}

/// A static uniform-grid index over a set of points in the unit square.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Number of cells per axis.
    cells: usize,
    /// Side length of one cell.
    cell_side: f64,
    /// CSR offsets: `bucket[c]..bucket[c+1]` slices `entries` for cell `c`.
    bucket_offsets: Vec<u32>,
    /// Point ids, grouped by cell.
    entries: Vec<UserId>,
    /// Coordinates of `entries[i]` at position `i` — the cell-grouped SoA
    /// mirror of `points`. Range scans read these two sequential streams
    /// instead of gathering `points[entries[i]]`, which keeps the
    /// squared-distance kernel branch-free and autovectorizable.
    entry_coords: PointsSoA,
    /// The indexed points (owned copy so queries need no external lookup).
    points: Vec<Point>,
}

/// Above this cell count the per-thread count arrays of the parallel build
/// would dominate memory; fall back to a serial counting pass (the cell-id
/// computation stays parallel).
const PARALLEL_FILL_MAX_CELLS: usize = 1 << 22;

impl GridIndex {
    /// Builds an index whose cell side is at least `min_cell_side` (typically
    /// the radio range δ, so any δ-ball is covered by a 3×3 cell block).
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build(points: &[Point], min_cell_side: f64) -> Self {
        Self::build_threads(points, min_cell_side, 1)
    }

    /// Builds the index splitting the counting and bucket-fill passes over
    /// `threads` scoped worker threads. The result is bit-identical to the
    /// serial [`GridIndex::build`] for any thread count: entries stay
    /// grouped by cell and ordered by point index within each cell.
    ///
    /// # Panics
    /// Panics if `min_cell_side` is not finite and positive.
    pub fn build_threads(points: &[Point], min_cell_side: f64, threads: usize) -> Self {
        assert!(
            min_cell_side.is_finite() && min_cell_side > 0.0,
            "cell side must be positive, got {min_cell_side}"
        );
        let _span = nela_obs::span(nela_obs::stage::GRID_BUILD);
        let cells = cells_per_axis(min_cell_side);
        let cell_side = 1.0 / cells as f64;
        let n = points.len();
        let n_cells = cells * cells;
        let threads = nela_par::effective_threads(threads, n);

        // Pass 0 (parallel): flat cell id of every point.
        let cell_ids: Vec<u32> = nela_par::map_indexed(threads, n, |i| {
            cell_id_of(&points[i], cell_side, cells) as u32
        });

        let mut offsets = vec![0u32; n_cells + 1];
        let mut entries = vec![0 as UserId; n];
        if threads > 1 && n_cells <= PARALLEL_FILL_MAX_CELLS {
            // Pass 1 (parallel): per-chunk cell histograms.
            let ranges = nela_par::chunk_ranges(n, threads);
            let cell_ids_ref = &cell_ids;
            let mut chunk_counts: Vec<Vec<u32>> = nela_par::map_chunks(threads, n, move |range| {
                let mut counts = vec![0u32; n_cells];
                for i in range {
                    counts[cell_ids_ref[i] as usize] += 1;
                }
                counts
            });
            // Exclusive prefix over (cell, chunk): chunk_counts[t][c] becomes
            // the first write cursor of chunk t inside cell c's bucket.
            for c in 0..n_cells {
                let mut acc = 0u32;
                for counts in chunk_counts.iter_mut() {
                    let here = counts[c];
                    counts[c] = acc;
                    acc += here;
                }
                offsets[c + 1] = acc;
            }
            for c in 1..=n_cells {
                offsets[c] += offsets[c - 1];
            }
            // Pass 2 (parallel): scatter ids into disjoint cursor ranges.
            let writer = nela_par::ScatterWriter::new(&mut entries);
            let offsets_ref = &offsets;
            std::thread::scope(|scope| {
                for (range, mut cursors) in ranges.into_iter().zip(chunk_counts) {
                    let writer = &writer;
                    let cell_ids = &cell_ids;
                    scope.spawn(move || {
                        for i in range {
                            let c = cell_ids[i] as usize;
                            let at = offsets_ref[c] + cursors[c];
                            cursors[c] += 1;
                            // SAFETY: cursor ranges are disjoint per (cell,
                            // chunk) by the prefix-sum construction, so every
                            // index is written exactly once.
                            unsafe { writer.write(at as usize, i as UserId) };
                        }
                    });
                }
            });
        } else {
            for &c in &cell_ids {
                offsets[c as usize + 1] += 1;
            }
            for c in 1..=n_cells {
                offsets[c] += offsets[c - 1];
            }
            let mut cursor = offsets.clone();
            for (i, &c) in cell_ids.iter().enumerate() {
                entries[cursor[c as usize] as usize] = i as UserId;
                cursor[c as usize] += 1;
            }
        }
        // Gather the cell-grouped coordinate streams once at build time so
        // every later range scan is sequential.
        let mut entry_coords = PointsSoA::with_capacity(n);
        for &id in &entries {
            entry_coords.push(points[id as usize]);
        }
        GridIndex {
            cells,
            cell_side,
            bucket_offsets: offsets,
            entries,
            entry_coords,
            points: points.to_vec(),
        }
    }

    /// Assembles an index from pre-built CSR parts (used by
    /// `ShardedDynamicGrid::to_grid_index` to freeze a maintained grid
    /// without re-bucketing). Callers must uphold the build invariants:
    /// `bucket_offsets` is a valid CSR over `cells²` cells, `entries` are
    /// grouped by cell and ascend within each cell, and `entry_coords[i]`
    /// mirrors `points[entries[i]]`.
    pub(crate) fn assemble(
        cells: usize,
        cell_side: f64,
        bucket_offsets: Vec<u32>,
        entries: Vec<UserId>,
        entry_coords: PointsSoA,
        points: Vec<Point>,
    ) -> Self {
        debug_assert_eq!(bucket_offsets.len(), cells * cells + 1);
        debug_assert_eq!(bucket_offsets.last().copied(), Some(entries.len() as u32));
        debug_assert_eq!(entry_coords.len(), entries.len());
        GridIndex {
            cells,
            cell_side,
            bucket_offsets,
            entries,
            entry_coords,
            points,
        }
    }

    /// The index taken apart: `(cells, cell_side, bucket_offsets, entries,
    /// entry_coords, points)`, the parts `ShardedDynamicGrid` cuts into
    /// row bands.
    pub(crate) fn into_parts(self) -> (usize, f64, Vec<u32>, Vec<UserId>, PointsSoA, Vec<Point>) {
        (
            self.cells,
            self.cell_side,
            self.bucket_offsets,
            self.entries,
            self.entry_coords,
            self.points,
        )
    }

    /// The raw CSR parts, for bit-identity assertions in in-crate tests.
    #[cfg(test)]
    pub(crate) fn raw_parts(&self) -> (usize, f64, &[u32], &[UserId], &PointsSoA, &[Point]) {
        (
            self.cells,
            self.cell_side,
            &self.bucket_offsets,
            &self.entries,
            &self.entry_coords,
            &self.points,
        )
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

    /// The indexed points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Side length of one cell, `1 / cells`: at least the requested minimum
    /// unless the cap of 4096 cells per axis applies.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// All point ids within Euclidean distance `radius` (inclusive: peers at
    /// exactly `radius` are in range) of point `query_id`, excluding
    /// `query_id` itself. Results are appended to `out` (cleared first) as
    /// `(id, squared distance)` pairs in arbitrary order.
    ///
    /// One run per cell row of the ball's cell block feeds the shared
    /// blocked distance kernel ([`scan_runs`]).
    pub fn neighbors_within(&self, query_id: UserId, radius: f64, out: &mut Vec<(UserId, f64)>) {
        out.clear();
        let q = self.points[query_id as usize];
        if let Some((cols, rows)) = ball_block(q, radius, self.cell_side, self.cells) {
            scan_runs(self.row_runs(cols, rows), q, radius, query_id, out);
        }
    }

    /// Convenience wrapper around [`GridIndex::neighbors_within`] returning a
    /// freshly allocated, distance-sorted vector. Prefer the buffer-reusing
    /// variant in hot loops.
    pub fn neighbors_within_sorted(&self, query_id: UserId, radius: f64) -> Vec<(UserId, f64)> {
        let mut out = Vec::new();
        self.neighbors_within(query_id, radius, &mut out);
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The entries of every cell `rect` overlaps, as one `(ids, xs, ys)` run
    /// per grid row: the cells of a row are adjacent in the CSR layout, so a
    /// row's overlapped cells are one contiguous slice of each stream.
    ///
    /// Runs hold every point of the overlapped cells, not only those inside
    /// `rect` — callers apply their own predicate. Every point `rect`
    /// contains is in exactly one run (out-of-square bounds clamp onto the
    /// border cells, like the points themselves). Rows come bottom to top;
    /// within a run, entries are grouped by cell left to right and ascend
    /// by id within a cell.
    pub fn rect_cells<'a>(
        &'a self,
        rect: &Rect,
    ) -> impl Iterator<Item = (&'a [UserId], &'a [f64], &'a [f64])> + 'a {
        let (cols, rows) = rect_block(rect, self.cell_side, self.cells);
        self.row_runs(cols, rows)
    }

    /// One run per row of the inclusive cell block `cols × rows`; nothing
    /// when either range is inverted.
    fn row_runs(
        &self,
        (lo_cx, hi_cx): (usize, usize),
        (lo_cy, hi_cy): (usize, usize),
    ) -> impl Iterator<Item = (&[UserId], &[f64], &[f64])> + '_ {
        let rows = if lo_cx <= hi_cx {
            lo_cy..hi_cy + 1
        } else {
            0..0
        };
        rows.map(move |cy| {
            let lo = self.bucket_offsets[cy * self.cells + lo_cx] as usize;
            let hi = self.bucket_offsets[cy * self.cells + hi_cx + 1] as usize;
            (
                &self.entries[lo..hi],
                &self.entry_coords.xs[lo..hi],
                &self.entry_coords.ys[lo..hi],
            )
        })
    }

    /// Ids of all points inside `rect` (inclusive bounds), ascending.
    pub fn ids_in_rect(&self, rect: &Rect) -> Vec<UserId> {
        let mut out = Vec::new();
        for (ids, xs, ys) in self.rect_cells(rect) {
            for ((&id, &x), &y) in ids.iter().zip(xs).zip(ys) {
                if rect.contains(&Point::new(x, y)) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Count of points inside `rect` (inclusive bounds). Used to evaluate how
    /// many users a cloaked region actually covers (k-anonymity audit).
    pub fn count_in_rect(&self, rect: &Rect) -> usize {
        count_in_runs(self.rect_cells(rect), rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn brute_neighbors(points: &[Point], q: usize, radius: f64) -> Vec<UserId> {
        let r_sq = radius * radius;
        let mut v: Vec<UserId> = (0..points.len())
            .filter(|&i| i != q && points[q].dist_sq(&points[i]) <= r_sq)
            .map(|i| i as UserId)
            .collect();
        v.sort_unstable();
        v
    }

    fn sample_points() -> Vec<Point> {
        // Deterministic pseudo-grid jittered by a simple LCG.
        let mut s: u64 = 42;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..500).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn matches_brute_force_range_query() {
        let pts = sample_points();
        let idx = GridIndex::build(&pts, 0.05);
        for q in [0usize, 7, 123, 499] {
            let mut got: Vec<UserId> = idx
                .neighbors_within_sorted(q as UserId, 0.05)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_neighbors(&pts, q, 0.05), "query {q}");
        }
    }

    #[test]
    fn radius_larger_than_cell_side_still_correct() {
        let pts = sample_points();
        // cell side ends up 0.02 but we query with radius 0.1 (5 cells).
        let idx = GridIndex::build(&pts, 0.02);
        let mut got: Vec<UserId> = idx
            .neighbors_within_sorted(3, 0.1)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_neighbors(&pts, 3, 0.1));
    }

    #[test]
    fn sorted_output_is_distance_ordered() {
        let pts = sample_points();
        let idx = GridIndex::build(&pts, 0.05);
        let res = idx.neighbors_within_sorted(10, 0.2);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn excludes_query_point() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
        let idx = GridIndex::build(&pts, 0.01);
        let res = idx.neighbors_within_sorted(0, 0.1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, 1);
    }

    #[test]
    fn peer_at_exactly_delta_is_in_range() {
        // Regression for the δ-boundary semantics: two points exactly δ
        // apart must hear each other ("within the radio range δ" is
        // inclusive), in both the straddling-cells and same-cell layouts.
        // Power-of-two coordinates so the distance is exactly δ in f64.
        let delta = 0.125;
        let pts = vec![Point::new(0.25, 0.5), Point::new(0.25 + delta, 0.5)];
        let idx = GridIndex::build(&pts, delta);
        assert_eq!(idx.neighbors_within_sorted(0, delta).len(), 1);
        assert_eq!(idx.neighbors_within_sorted(1, delta).len(), 1);
        // And just beyond δ stays out of range.
        let far = vec![
            Point::new(0.25, 0.5),
            Point::new(0.25 + delta * 1.0001, 0.5),
        ];
        let idx_far = GridIndex::build(&far, delta);
        assert!(idx_far.neighbors_within_sorted(0, delta).is_empty());
    }

    #[test]
    fn count_in_rect_matches_linear_scan() {
        let pts = sample_points();
        let idx = GridIndex::build(&pts, 0.05);
        let r = Rect::new(0.25, 0.25, 0.75, 0.5);
        let expect = pts.iter().filter(|p| r.contains(p)).count();
        assert_eq!(idx.count_in_rect(&r), expect);
    }

    #[test]
    fn ids_in_rect_matches_linear_scan() {
        let pts = sample_points();
        let idx = GridIndex::build(&pts, 0.05);
        for r in [
            Rect::new(0.25, 0.25, 0.75, 0.5),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.9, 0.9, 0.91, 0.91),
        ] {
            let expect: Vec<UserId> = (0..pts.len() as UserId)
                .filter(|&i| r.contains(&pts[i as usize]))
                .collect();
            assert_eq!(idx.ids_in_rect(&r), expect);
        }
    }

    #[test]
    fn boundary_coordinates_are_indexed() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(0.999, 0.999)];
        let idx = GridIndex::build(&pts, 0.01);
        let res = idx.neighbors_within_sorted(0, 0.01);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn out_of_square_coordinates_clamp_to_border_cells() {
        // Mobility reflection can land exactly on 1.0, and numeric drift can
        // produce slightly negative coordinates; both must index and query
        // without panicking, landing on the border cells.
        let pts = vec![
            Point::new(-0.001, 0.5),
            Point::new(0.0, 0.5),
            Point::new(1.0, 1.0),
            Point::new(1.002, 0.999),
        ];
        let idx = GridIndex::build(&pts, 0.05);
        assert_eq!(idx.len(), 4);
        let near_origin = idx.neighbors_within_sorted(0, 0.05);
        assert_eq!(near_origin.len(), 1);
        assert_eq!(near_origin[0].0, 1);
        let near_corner = idx.neighbors_within_sorted(2, 0.05);
        assert_eq!(near_corner.len(), 1);
        assert_eq!(near_corner[0].0, 3);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let pts = sample_points();
        let serial = GridIndex::build(&pts, 0.03);
        for threads in [2usize, 3, 4, 8] {
            let par = GridIndex::build_threads(&pts, 0.03, threads);
            assert_eq!(par.bucket_offsets, serial.bucket_offsets, "t={threads}");
            assert_eq!(par.entries, serial.entries, "t={threads}");
            assert_eq!(par.entry_coords, serial.entry_coords, "t={threads}");
            assert_eq!(par.points, serial.points, "t={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "cell side must be positive")]
    fn rejects_zero_cell_side() {
        GridIndex::build(&[Point::ORIGIN], 0.0);
    }
}
