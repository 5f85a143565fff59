//! Property test: incremental WPG maintenance is *exactly* equivalent to a
//! from-scratch rebuild — same vertices, same edges, same weights — after
//! any seeded batch of moves. This is the correctness contract the
//! `nela-mobility` continuous pipeline relies on.
//!
//! The clustered cases below move a California-like population with the
//! mobility crate's models and compare every CSR row, every row of the
//! rank-rows view served in its place, and the changed set on every tick,
//! on both sides of the mover crossover.

use nela_geo::{DatasetSpec, Point, SpatialDistribution, UserId};
use nela_mobility::{MobilityConfig, MobilityField};
use nela_wpg::incremental::REPROBE_ALL_DIVISOR;
use nela_wpg::{
    IncrementalWpg, InverseDistanceRss, LogDistanceRss, RssModel, Weight, Wpg, WpgBuilder,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

fn edges_of(g: &nela_wpg::Wpg) -> Vec<nela_wpg::Edge> {
    g.edges().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After an arbitrary seeded batch of moves (arbitrary size, arbitrary
    /// targets, duplicates allowed via modulo), the maintained graph equals
    /// the rebuilt one.
    #[test]
    fn incremental_equals_rebuild(
        seed in 0u64..1_000_000,
        n in 50usize..300,
        batches in 1usize..5,
        moves_per_batch in 1usize..60,
        delta in 0.03f64..0.12,
        m in 3usize..9,
    ) {
        let pts = random_points(n, seed);
        let builder = WpgBuilder::new(delta, m, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF);
        for _ in 0..batches {
            let moves: Vec<(u32, Point)> = (0..moves_per_batch)
                .map(|_| {
                    (
                        rng.gen_range(0..n as u32),
                        Point::new(rng.gen(), rng.gen()),
                    )
                })
                .collect();
            inc.apply_moves(&moves);
            let rebuilt = builder.build(inc.points());
            let snap = inc.snapshot();
            prop_assert_eq!(snap.n(), rebuilt.n());
            prop_assert_eq!(edges_of(&snap), edges_of(&rebuilt));
        }
    }

    /// High-churn ticks — 50% and 100% of the population moving every tick
    /// — stay exactly equivalent to a rebuild across thread counts, with
    /// every variant bit-identical to the serial snapshot.
    #[test]
    fn high_move_fraction_equals_rebuild_across_shards_and_threads(
        seed in 0u64..1_000_000,
        n in 60usize..250,
        full_move in 0usize..2,
        delta in 0.03f64..0.1,
        m in 3usize..8,
    ) {
        let fraction_pct = if full_move == 1 { 100 } else { 50 };
        let pts = random_points(n, seed);
        let builder = WpgBuilder::new(delta, m, InverseDistanceRss);
        let movers = (n * fraction_pct / 100).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5AD5);
        let ticks: Vec<Vec<(u32, Point)>> = (0..3)
            .map(|_| {
                (0..movers)
                    .map(|_| {
                        (
                            rng.gen_range(0..n as u32),
                            Point::new(rng.gen(), rng.gen()),
                        )
                    })
                    .collect()
            })
            .collect();
        // Serial reference plus threaded variants.
        let mut reference = IncrementalWpg::new(builder.clone(), &pts);
        let mut variants: Vec<IncrementalWpg<InverseDistanceRss>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| IncrementalWpg::with_threads(builder.clone(), &pts, threads))
            .collect();
        for moves in &ticks {
            let ref_stats = reference.apply_moves(moves);
            let rebuilt = builder.build(reference.points());
            let ref_edges = edges_of(&reference.snapshot());
            prop_assert_eq!(&ref_edges, &edges_of(&rebuilt));
            for (vi, inc) in variants.iter_mut().enumerate() {
                let stats = inc.apply_moves(moves);
                // Mover accounting is thread-count-independent.
                prop_assert_eq!(stats.moved, ref_stats.moved, "variant {}", vi);
                prop_assert_eq!(inc.points(), reference.points(), "variant {}", vi);
                // Serial, threaded, and in-place snapshots all bit-match the
                // serial reference.
                prop_assert_eq!(edges_of(&inc.snapshot()), ref_edges.clone(), "variant {}", vi);
                let threaded = Wpg::from_edges_threads(inc.len(), &inc.rows().edges_threads(4), 4);
                prop_assert_eq!(edges_of(&threaded), ref_edges.clone(), "variant {}", vi);
                let mut reused = inc.snapshot();
                inc.snapshot_into(&mut reused);
                prop_assert_eq!(edges_of(&reused), ref_edges.clone(), "variant {}", vi);
            }
        }
    }

    /// Duplicate-heavy batches (every id appears several times, last position
    /// wins) stay exact and count each mover once.
    #[test]
    fn duplicate_heavy_batches_stay_exact(
        seed in 0u64..1_000_000,
        n in 40usize..150,
        unique_movers in 2usize..20,
        repeats in 2usize..6,
    ) {
        let pts = random_points(n, seed);
        let builder = WpgBuilder::new(0.06, 5, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD0D0);
        let ids: Vec<u32> = (0..unique_movers)
            .map(|_| rng.gen_range(0..n as u32))
            .collect();
        let mut moves: Vec<(u32, Point)> = Vec::new();
        for _ in 0..repeats {
            for &id in &ids {
                moves.push((id, Point::new(rng.gen(), rng.gen())));
            }
        }
        let stats = inc.apply_moves(&moves);
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(stats.moved, distinct.len());
        // Final position is the last one staged per id.
        for &id in &distinct {
            let last = moves.iter().rev().find(|&&(i, _)| i == id).unwrap().1;
            prop_assert_eq!(inc.points()[id as usize], last);
        }
        let rebuilt = builder.build(inc.points());
        prop_assert_eq!(edges_of(&inc.snapshot()), edges_of(&rebuilt));
    }

    /// Small local drifts (the common mobility-model case) also stay exact,
    /// exercising the dirty-set path where old and new δ-balls overlap.
    #[test]
    fn local_drift_equals_rebuild(
        seed in 0u64..1_000_000,
        n in 100usize..400,
        step in 0.0005f64..0.02,
    ) {
        let pts = random_points(n, seed);
        let builder = WpgBuilder::new(0.05, 6, InverseDistanceRss);
        let mut inc = IncrementalWpg::new(builder.clone(), &pts);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(3) ^ 0xBEEF);
        let moves: Vec<(u32, Point)> = (0..n / 10)
            .map(|_| {
                let id = rng.gen_range(0..n as u32);
                let p = inc.points()[id as usize];
                let q = Point::new(
                    (p.x + rng.gen_range(-step..step)).clamp(0.0, 1.0),
                    (p.y + rng.gen_range(-step..step)).clamp(0.0, 1.0),
                );
                (id, q)
            })
            .collect();
        inc.apply_moves(&moves);
        let rebuilt = builder.build(inc.points());
        prop_assert_eq!(edges_of(&inc.snapshot()), edges_of(&rebuilt));
    }
}

/// A California-like clustered population of `n` users.
fn clustered_points(n: usize, seed: u64) -> Vec<Point> {
    DatasetSpec {
        n,
        seed,
        distribution: SpatialDistribution::california(),
    }
    .generate()
}

/// The paper's radio range (δ = 2×10⁻³ at 104,770 users) scaled to `n`
/// users at the same density.
fn scaled_delta(n: usize) -> f64 {
    2e-3 * (104_770.0 / n as f64).sqrt()
}

/// Asserts that every CSR row of `inc`'s snapshot, and every row of its
/// rank-rows view, equals the rebuild's CSR row, in order and with weights.
fn assert_rows_match_rebuild<R: RssModel + Clone>(
    inc: &IncrementalWpg<R>,
    builder: &WpgBuilder<R>,
    what: &str,
) {
    let snap = inc.snapshot();
    let rebuilt = builder.build(inc.points());
    let rows = inc.rows();
    assert_eq!(snap.n(), rebuilt.n(), "{what}");
    assert_eq!(rows.n(), rebuilt.n(), "{what}");
    let mut row = Vec::new();
    for u in 0..snap.n() as UserId {
        assert!(
            snap.neighbors(u).eq(rebuilt.neighbors(u)),
            "{what}: row {u} differs: {:?} vs rebuilt {:?}",
            snap.neighbors(u).collect::<Vec<_>>(),
            rebuilt.neighbors(u).collect::<Vec<_>>()
        );
        row.clear();
        rows.row_into(u, &mut row);
        assert!(
            row.iter().copied().eq(rebuilt.neighbors(u)),
            "{what}: rank-rows view of {u} differs: {row:?} vs rebuilt {:?}",
            rebuilt.neighbors(u).collect::<Vec<_>>()
        );
    }
}

/// Asserts that `changed_users()` is exactly the set of users whose rank
/// row differs from `before`, then refreshes `before`.
fn assert_changed_exact<R: RssModel>(
    inc: &IncrementalWpg<R>,
    before: &mut [Vec<UserId>],
    what: &str,
) {
    let mut changed = inc.changed_users().to_vec();
    changed.sort_unstable();
    let len = changed.len();
    changed.dedup();
    assert_eq!(changed.len(), len, "{what}: a user reported twice");
    let mut expect = Vec::new();
    for (u, row) in before.iter_mut().enumerate() {
        let now = inc.peers_of(u as UserId);
        if now != &row[..] {
            expect.push(u as UserId);
            row.clear();
            row.extend_from_slice(now);
        }
    }
    assert_eq!(
        changed, expect,
        "{what}: changed_users is not the changed set"
    );
}

/// One tick's batch from `field`, with duplicate ids mixed in: every fifth
/// mover is first staged at a detour, so its last staged position differs
/// from its tick-start one and the last position wins.
fn batch_with_duplicates(field: &mut MobilityField, points: &[Point]) -> Vec<(UserId, Point)> {
    let mut moves = Vec::new();
    for (i, (id, to)) in field.step(points).into_iter().enumerate() {
        if i % 5 == 0 {
            let from = points[id as usize];
            moves.push((id, Point::new((from.x + to.x) * 0.5, 1.0 - from.y)));
        }
        moves.push((id, to));
    }
    moves
}

/// Runs ≥ 10 mobility ticks over a clustered population under `rss`, for
/// every M ∈ {3, 5, 10} and stationary share ∈ {0.9, 0.5, 0.2}. Each tick's
/// batch goes to one instance whole (the stationary shares fall on both
/// sides of the crossover) and to another in slices below the crossover
/// (the push path under heavy churn); every tick, both must match the
/// rebuild row by row and report exactly the changed users.
fn clustered_mobility_matches_rebuild<R: RssModel + Clone>(rss: R) {
    let n = 3_000;
    let points = clustered_points(n, 41);
    let slice = n.div_ceil(REPROBE_ALL_DIVISOR) - 1;
    for m in [3usize, 5, 10] {
        for stationary in [0.9, 0.5, 0.2] {
            let builder = WpgBuilder::new(scaled_delta(n), m, rss.clone());
            let mut whole = IncrementalWpg::new(builder.clone(), &points);
            let mut sliced = IncrementalWpg::new(builder.clone(), &points);
            let mut whole_rows: Vec<Vec<UserId>> = (0..n as UserId)
                .map(|u| whole.peers_of(u).to_vec())
                .collect();
            let mut sliced_rows = whole_rows.clone();
            let mut field = MobilityField::new(
                n,
                &MobilityConfig {
                    seed: 7 + m as u64,
                    ..MobilityConfig::with_stationary(stationary)
                },
            );
            for tick in 0..10 {
                let what = format!("M={m} stationary={stationary} tick {tick}");
                let moves = batch_with_duplicates(&mut field, whole.points());
                whole.apply_moves(&moves);
                assert_rows_match_rebuild(&whole, &builder, &what);
                assert_changed_exact(&whole, &mut whole_rows, &what);
                for part in moves.chunks(slice) {
                    let stats = sliced.apply_moves(part);
                    assert!(stats.dirty < n, "{what}: slice took the full path");
                    assert_changed_exact(&sliced, &mut sliced_rows, &what);
                }
                assert_eq!(sliced.points(), whole.points(), "{what}");
                assert_rows_match_rebuild(&sliced, &builder, &format!("{what} (sliced)"));
            }
        }
    }
}

#[test]
fn clustered_mobility_matches_rebuild_inverse_distance() {
    clustered_mobility_matches_rebuild(InverseDistanceRss);
}

#[test]
fn clustered_mobility_matches_rebuild_log_distance() {
    clustered_mobility_matches_rebuild(LogDistanceRss::default());
}

/// A batch one mover below the crossover (push path) and the same batch
/// plus one user staged at its own position (every user re-probed) reach
/// the same positions, so they must give identical graphs and changed sets.
#[test]
fn one_below_and_at_the_crossover_agree() {
    let n = 3_000;
    let points = clustered_points(n, 43);
    let builder = WpgBuilder::new(scaled_delta(n), 5, InverseDistanceRss);
    let at = n.div_ceil(REPROBE_ALL_DIVISOR);
    let mut below_inc = IncrementalWpg::new(builder.clone(), &points);
    let mut at_inc = IncrementalWpg::new(builder.clone(), &points);
    let mut field = MobilityField::new(n, &MobilityConfig::with_stationary(0.2));
    for tick in 0..6 {
        let mut below: Vec<(UserId, Point)> = field.step(below_inc.points());
        below.truncate(at - 1);
        let mut moved: Vec<bool> = vec![false; n];
        below.iter().for_each(|&(id, _)| moved[id as usize] = true);
        let still = (0..n as UserId).find(|&u| !moved[u as usize]).unwrap();
        let mut at_batch = below.clone();
        at_batch.push((still, at_inc.points()[still as usize]));

        let below_stats = below_inc.apply_moves(&below);
        let at_stats = at_inc.apply_moves(&at_batch);
        assert_eq!(below_stats.moved, at - 1, "tick {tick}");
        assert_eq!(at_stats.moved, at, "tick {tick}");
        assert!(
            below_stats.dirty < n,
            "tick {tick}: below took the full path"
        );
        assert_eq!(at_stats.dirty, n, "tick {tick}: at pushed movers");
        assert_eq!(below_inc.points(), at_inc.points(), "tick {tick}");
        let (a, b) = (below_inc.snapshot(), at_inc.snapshot());
        for u in 0..n as UserId {
            assert!(a.neighbors(u).eq(b.neighbors(u)), "tick {tick} row {u}");
        }
        let mut ca = below_inc.changed_users().to_vec();
        let mut cb = at_inc.changed_users().to_vec();
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb, "tick {tick}: changed sets differ");
        assert_rows_match_rebuild(&below_inc, &builder, &format!("tick {tick}"));
    }
}

/// Every edge of `g` as `(u, v) → w` with `u < v`.
fn edge_map(g: &Wpg) -> BTreeMap<(UserId, UserId), Weight> {
    g.edges().map(|e| ((e.u, e.v), e.w)).collect()
}

/// `changed_users()` is the lifetime audit's set: every edge that appeared,
/// vanished or changed weight in a tick has an endpoint in it. The
/// converse does not hold, and this test shows it: a user outside the set
/// keeps its own rank list, yet its CSR row changes when a peer's list
/// shifts its rank (moving the edge's weight) or drops it (removing the
/// edge). Drifting movers below the crossover, on every tick.
#[test]
fn every_changed_edge_has_an_endpoint_in_the_changed_set() {
    let n = 3_000;
    let points = clustered_points(n, 47);
    let delta = scaled_delta(n);
    let builder = WpgBuilder::new(delta, 10, InverseDistanceRss);
    let mut inc = IncrementalWpg::new(builder, &points);
    let mut rng = ChaCha8Rng::seed_from_u64(49);
    let mut before = inc.snapshot();
    let (mut rows_moved, mut sets_moved) = (0usize, 0usize);
    for tick in 0..10 {
        let moves: Vec<(UserId, Point)> = (0..300)
            .map(|_| {
                let id = rng.gen_range(0..n as UserId);
                let p = inc.points()[id as usize];
                let q = Point::new(
                    (p.x + rng.gen_range(-delta..delta)).clamp(0.0, 1.0),
                    (p.y + rng.gen_range(-delta..delta)).clamp(0.0, 1.0),
                );
                (id, q)
            })
            .collect();
        let stats = inc.apply_moves(&moves);
        assert!(stats.dirty < n, "tick {tick}: took the full path");
        let after = inc.snapshot();
        let mut changed = vec![false; n];
        for &u in inc.changed_users() {
            changed[u as usize] = true;
        }
        let (old, new) = (edge_map(&before), edge_map(&after));
        for (&(u, v), w) in old.iter().chain(&new) {
            if old.get(&(u, v)) != new.get(&(u, v)) {
                assert!(
                    changed[u as usize] || changed[v as usize],
                    "tick {tick}: edge ({u}, {v}) w {w} changed with neither endpoint in changed_users()"
                );
            }
        }
        for u in (0..n as UserId).filter(|&u| !changed[u as usize]) {
            if !before.neighbors(u).eq(after.neighbors(u)) {
                rows_moved += 1;
                let mut a: Vec<UserId> = before.neighbors(u).map(|(v, _)| v).collect();
                let mut b: Vec<UserId> = after.neighbors(u).map(|(v, _)| v).collect();
                a.sort_unstable();
                b.sort_unstable();
                sets_moved += usize::from(a != b);
            }
        }
        before = after;
    }
    assert!(
        rows_moved > 0,
        "no user outside changed_users() saw its row change"
    );
    assert!(
        sets_moved > 0,
        "no user outside changed_users() gained or lost an edge"
    );
}
