//! Stage and counter accounting of the cloaked queries. The metrics
//! recorder is global, so this file holds a single test: nothing else in the
//! process records.

use nela_geo::{GridIndex, Point, Rect};
use nela_lbs::query::{cloaked_krnn, cloaked_range};
use nela_lbs::{CloakedQuery, LbsServer, PoiStore};
use nela_obs::counter::{LBS_CANDIDATES, LBS_SCANNED};
use nela_obs::stage::{LBS_KRNN, LBS_RANGE};

fn samples(stage: &str) -> u64 {
    nela_obs::snapshot().histogram(stage).map_or(0, |h| h.count)
}

#[test]
fn each_query_records_one_sample_of_its_own_stage() {
    let points: Vec<Point> = (0..400)
        .map(|i| Point::new((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0))
        .collect();
    let store = PoiStore::from_points(&points, 1);
    let region = Rect::new(0.4, 0.4, 0.45, 0.5);
    nela_obs::enable();
    nela_obs::reset();

    // The kRNN query's inner range step must not count as a range query.
    assert!(!cloaked_krnn(&store, &region, 5).is_empty());
    assert_eq!(samples(LBS_KRNN), 1);
    assert_eq!(samples(LBS_RANGE), 0);

    assert!(!cloaked_range(&store, &region, 0.1).is_empty());
    assert_eq!(samples(LBS_KRNN), 1);
    assert_eq!(samples(LBS_RANGE), 1);

    // `handle` counts the grid entries its kernel read beside the
    // candidates it returned. A range query reads the whole grid rows its
    // expanded region overlaps; a kRNN query reads its corners' windows too.
    let grid = GridIndex::build(&points, 5e-3);
    let radius = 0.1;
    let expanded = Rect::new(
        region.min_x - radius,
        region.min_y - radius,
        region.max_x + radius,
        region.max_y + radius,
    );
    let rows: usize = grid
        .rect_cells(&expanded)
        .map(|(ids, _, _)| ids.len())
        .sum();
    let server = LbsServer::new(store);
    for query in [CloakedQuery::Range { radius }, CloakedQuery::Knn { k: 5 }] {
        nela_obs::reset();
        let got = server.handle(&region, &query);
        let snap = nela_obs::snapshot();
        let candidates = snap.counter(LBS_CANDIDATES).unwrap_or(0);
        let scanned = snap.counter(LBS_SCANNED).unwrap_or(0);
        assert_eq!(candidates, got.candidates.len() as u64);
        assert!(
            scanned > candidates && candidates > 0,
            "{query:?}: {scanned}, {candidates}"
        );
        if let CloakedQuery::Range { .. } = query {
            assert_eq!(scanned, rows as u64);
        }
    }
    nela_obs::disable();
}
