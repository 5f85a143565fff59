//! The LBS server façade with transfer accounting.

use crate::query::{krnn_query, range_query};
use crate::store::PoiStore;
use nela_geo::Rect;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A service request as the server sees it: a cloaked region and a query —
/// never a position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CloakedQuery {
    /// "POIs within `radius` of me."
    Range { radius: f64 },
    /// "My `k` nearest POIs."
    Knn { k: usize },
}

/// A server response: candidate POI ids plus the transfer cost of shipping
/// their content.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Candidate POI ids (a guaranteed superset of the exact answer for any
    /// position inside the requested region).
    pub candidates: Vec<u32>,
    /// Total content units transferred (the paper's service-request
    /// communication cost).
    pub transfer_units: u64,
}

/// The untrusted LBS server: holds the POI dataset, answers cloaked
/// queries, and keeps aggregate accounting.
///
/// The store is immutable and the accounting is atomic, so one server can
/// be shared by any number of concurrent workers ([`LbsServer::handle`]
/// takes `&self`) — the serving subsystem drives it from a worker pool.
#[derive(Debug)]
pub struct LbsServer {
    store: PoiStore,
    queries_served: AtomicU64,
    total_transfer: AtomicU64,
}

impl LbsServer {
    /// Creates a server over a POI dataset.
    pub fn new(store: PoiStore) -> Self {
        LbsServer {
            store,
            queries_served: AtomicU64::new(0),
            total_transfer: AtomicU64::new(0),
        }
    }

    /// The underlying dataset.
    pub fn store(&self) -> &PoiStore {
        &self.store
    }

    /// Handles one cloaked query.
    ///
    /// The query comes from an untrusted client, so no query panics: a
    /// range radius that is negative or NaN, and `Knn { k: 0 }`, have an
    /// empty exact answer at every position, and are served with no
    /// candidates and no transfer units.
    pub fn handle(&self, region: &Rect, query: &CloakedQuery) -> Response {
        let _span = nela_obs::span(nela_obs::stage::LBS_HANDLE);
        let (candidates, scanned) = match *query {
            CloakedQuery::Range { radius } if radius >= 0.0 => {
                range_query(&self.store, region, radius)
            }
            CloakedQuery::Knn { k } if k >= 1 => krnn_query(&self.store, region, k),
            _ => (Vec::new(), 0),
        };
        let transfer_units = self.store.transfer_units(&candidates);
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        self.total_transfer
            .fetch_add(transfer_units, Ordering::Relaxed);
        nela_obs::add(nela_obs::counter::LBS_QUERIES, 1);
        nela_obs::add(nela_obs::counter::LBS_CANDIDATES, candidates.len() as u64);
        nela_obs::add(nela_obs::counter::LBS_SCANNED, scanned as u64);
        Response {
            candidates,
            transfer_units,
        }
    }

    /// Queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Total content units transferred across all queries.
    pub fn total_transfer(&self) -> u64 {
        self.total_transfer.load(Ordering::Relaxed)
    }

    /// Mean transfer units per query, `None` before any query was served —
    /// an idle server has no average to report (a `0.0/0` here would be NaN,
    /// and fabricating `0.0` would make an unused server look free).
    pub fn mean_transfer(&self) -> Option<f64> {
        let served = self.queries_served();
        (served > 0).then(|| self.total_transfer() as f64 / served as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{refine_knn, refine_range};
    use nela_geo::Point;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn server(n: usize, seed: u64) -> LbsServer {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        LbsServer::new(PoiStore::from_points(&points, 1000))
    }

    #[test]
    fn end_to_end_range_roundtrip() {
        let srv = server(1000, 1);
        let position = Point::new(0.33, 0.61);
        let region = Rect::new(0.30, 0.58, 0.36, 0.64); // cloak around it
        let radius = 0.03;
        let resp = srv.handle(&region, &CloakedQuery::Range { radius });
        let refined = refine_range(srv.store(), &resp.candidates, position, radius);
        let exact: Vec<u32> = (0..srv.store().len() as u32)
            .filter(|&i| srv.store().get(i).position.dist(&position) <= radius)
            .collect();
        assert_eq!(refined, exact);
        assert_eq!(resp.transfer_units, 1000 * resp.candidates.len() as u64);
    }

    #[test]
    fn end_to_end_knn_roundtrip() {
        let srv = server(1000, 2);
        let position = Point::new(0.7, 0.2);
        let region = Rect::new(0.68, 0.18, 0.73, 0.23);
        let resp = srv.handle(&region, &CloakedQuery::Knn { k: 7 });
        let refined = refine_knn(srv.store(), &resp.candidates, position, 7);
        assert_eq!(refined, srv.store().knn(position, 7));
    }

    #[test]
    fn larger_region_costs_more() {
        let srv = server(2000, 3);
        let small = Rect::new(0.5, 0.5, 0.52, 0.52);
        let large = Rect::new(0.4, 0.4, 0.62, 0.62);
        let a = srv.handle(&small, &CloakedQuery::Range { radius: 0.01 });
        let b = srv.handle(&large, &CloakedQuery::Range { radius: 0.01 });
        assert!(b.transfer_units > a.transfer_units);
        assert_eq!(srv.queries_served(), 2);
        assert_eq!(srv.total_transfer(), a.transfer_units + b.transfer_units);
        assert!(srv.mean_transfer().unwrap() > 0.0);
    }

    #[test]
    fn queries_with_an_empty_exact_answer_are_served_empty() {
        let srv = server(300, 6);
        let region = Rect::new(0.2, 0.2, 0.3, 0.3);
        for query in [
            CloakedQuery::Knn { k: 0 },
            CloakedQuery::Range { radius: -0.01 },
            CloakedQuery::Range { radius: f64::NAN },
        ] {
            let resp = srv.handle(&region, &query);
            assert_eq!(resp.candidates, Vec::<u32>::new(), "{query:?}");
            assert_eq!(resp.transfer_units, 0, "{query:?}");
        }
        assert_eq!(srv.queries_served(), 3);
        assert_eq!(srv.total_transfer(), 0);
        assert_eq!(srv.mean_transfer(), Some(0.0));
    }

    #[test]
    fn infinite_radius_returns_every_poi() {
        let srv = server(300, 7);
        let region = Rect::new(0.2, 0.2, 0.3, 0.3);
        let resp = srv.handle(
            &region,
            &CloakedQuery::Range {
                radius: f64::INFINITY,
            },
        );
        let all: Vec<u32> = (0..300).collect();
        assert_eq!(resp.candidates, all);
        assert_eq!(resp.transfer_units, 300 * 1000);
        let position = Point::new(0.25, 0.25);
        assert_eq!(
            refine_range(srv.store(), &resp.candidates, position, f64::INFINITY),
            all
        );
    }

    #[test]
    fn idle_server_has_no_mean_transfer() {
        let srv = server(100, 4);
        assert_eq!(srv.queries_served(), 0);
        assert_eq!(srv.mean_transfer(), None);
    }

    #[test]
    fn shared_server_accounts_exactly_under_concurrency() {
        let srv = server(500, 5);
        let region = Rect::new(0.4, 0.4, 0.5, 0.5);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        srv.handle(&region, &CloakedQuery::Knn { k: 3 });
                    }
                });
            }
        });
        assert_eq!(srv.queries_served(), 100);
        // Same region + query every time: the mean is one query's cost.
        let one = srv.handle(&region, &CloakedQuery::Knn { k: 3 });
        assert_eq!(srv.mean_transfer(), Some(one.transfer_units as f64));
    }
}
