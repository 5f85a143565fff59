//! Stage accounting of the cloaked queries. The metrics recorder is global,
//! so this file holds a single test: nothing else in the process records.

use nela_geo::{Point, Rect};
use nela_lbs::query::{cloaked_krnn, cloaked_range};
use nela_lbs::PoiStore;
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
    nela_obs::disable();
}
