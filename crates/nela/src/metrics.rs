//! Workload metrics matching the paper's §VI measurements.

use crate::engine::{BoundingAlgo, CloakingEngine, CloakingResult, ClusteringAlgo};
use crate::params::Params;
use crate::system::System;
use nela_geo::UserId;
use serde::Serialize;

/// Expected service-request transfer cost over a cloaked region of the
/// given `area`, in bounding-message units: the region returns about
/// `area · n_users` POIs, each `Cr` messages large (paper §VI: "the
/// communication cost is (approximately) proportional to \[the\] area of the
/// bound").
pub fn service_request_cost(area: f64, params: &Params) -> f64 {
    params.area_cost().cr * area
}

/// Aggregated metrics over a workload of cloaking requests — the quantities
/// plotted in Figs. 9–13, all averaged over the total number of requests
/// (including zero-cost reuses, as the paper does).
///
/// Averages are `None` when no request was served: an all-failed workload
/// must not report fabricated `0.0` costs, it must report its failure count.
/// The message *totals* are exact and defined for every workload, so they
/// are the quantities to compare across runs (serial vs. parallel).
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkloadStats {
    /// Requests served (including reuses).
    pub served: usize,
    /// Requests that failed (host could not reach k users).
    pub failed: usize,
    /// Fraction of the workload that failed: `failed / (served + failed)`,
    /// `0.0` for an empty workload.
    pub failure_rate: f64,
    /// Requests answered entirely from the registry.
    pub reused: usize,
    /// Total phase-1 messages across all served requests.
    pub clustering_messages_total: u64,
    /// Total phase-2 verification messages across all served requests.
    pub bounding_messages_total: u64,
    /// Average phase-1 messages per served request.
    pub avg_clustering_messages: Option<f64>,
    /// Average cloaked-region area per served request.
    pub avg_cloaked_area: Option<f64>,
    /// Average phase-2 verification messages per served request.
    pub avg_bounding_messages: Option<f64>,
    /// Average service-request transfer cost per served request.
    pub avg_request_cost: Option<f64>,
    /// Average phase-2 CPU time per served request, in milliseconds.
    pub avg_bounding_cpu_ms: Option<f64>,
    /// Average cluster size per served request.
    pub avg_cluster_size: Option<f64>,
}

/// Accumulator for [`WorkloadStats`].
#[derive(Debug, Default, Clone)]
pub struct StatsCollector {
    served: usize,
    failed: usize,
    reused: usize,
    clustering_messages: u64,
    area: f64,
    bounding_messages: u64,
    request_cost: f64,
    cpu_ms: f64,
    cluster_size: f64,
}

impl StatsCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Records one successful request.
    pub fn push(&mut self, r: &CloakingResult, params: &Params) {
        self.served += 1;
        self.reused += usize::from(r.reused);
        self.clustering_messages += r.clustering_messages;
        self.area += r.region.area();
        self.bounding_messages += r.bounding_messages;
        self.request_cost += service_request_cost(r.region.area(), params);
        self.cpu_ms += r.bounding_cpu.as_secs_f64() * 1e3;
        self.cluster_size += r.cluster_size as f64;
    }

    /// Records one failed request.
    pub fn push_failure(&mut self) {
        self.failed += 1;
    }

    /// Finalizes the averages (over served requests). With zero served
    /// requests every average is `None` — there is nothing to average, and
    /// reporting `0.0` would make a fully failed run look free.
    pub fn finish(self) -> WorkloadStats {
        let avg = |sum: f64| (self.served > 0).then(|| sum / self.served as f64);
        let total = self.served + self.failed;
        WorkloadStats {
            served: self.served,
            failed: self.failed,
            failure_rate: if total > 0 {
                self.failed as f64 / total as f64
            } else {
                0.0
            },
            reused: self.reused,
            clustering_messages_total: self.clustering_messages,
            bounding_messages_total: self.bounding_messages,
            avg_clustering_messages: avg(self.clustering_messages as f64),
            avg_cloaked_area: avg(self.area),
            avg_bounding_messages: avg(self.bounding_messages as f64),
            avg_request_cost: avg(self.request_cost),
            avg_bounding_cpu_ms: avg(self.cpu_ms),
            avg_cluster_size: avg(self.cluster_size),
        }
    }
}

/// Runs a full request workload and aggregates the paper's metrics.
pub fn run_workload(
    system: &System,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
    hosts: &[UserId],
) -> WorkloadStats {
    run_workload_threads(system, clustering, bounding, hosts, 1)
}

/// [`run_workload`] over a batched engine: with `threads > 1` the
/// distributed algorithm's requests are served concurrently through
/// [`CloakingEngine::request_many`] (the baselines stay serial). The
/// aggregate counters (served / failed / reuse and message totals) match the
/// serial run whenever the requests are independent; per-request attribution
/// of a reuse may differ, since whichever racing host registers the cluster
/// first pays its clustering messages.
pub fn run_workload_threads(
    system: &System,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
    hosts: &[UserId],
    threads: usize,
) -> WorkloadStats {
    let mut engine = CloakingEngine::new(system, clustering, bounding);
    let mut stats = StatsCollector::new();
    for outcome in engine.request_many(hosts, threads) {
        match outcome {
            Ok(r) => stats.push(&r, &system.params),
            Err(_) => stats.push_failure(),
        }
    }
    stats.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_cluster::knn::TieBreak;

    fn small_system() -> System {
        System::build(&Params {
            k: 5,
            ..Params::scaled(2_000)
        })
    }

    #[test]
    fn request_cost_scales_with_area() {
        let p = Params::table1();
        let c1 = service_request_cost(1e-4, &p);
        let c2 = service_request_cost(2e-4, &p);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
        // Table I numbers: 1e-4 · 104770 · 1000 ≈ 10477.
        assert!((c1 - 10_477.0).abs() < 1.0);
    }

    #[test]
    fn workload_stats_are_populated() {
        let s = small_system();
        let hosts = s.host_sequence(40, 9);
        let stats = run_workload(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
            &hosts,
        );
        assert!(stats.served + stats.failed == 40);
        assert!(stats.avg_cloaked_area.unwrap() > 0.0);
        assert!(stats.avg_cluster_size.unwrap() >= 5.0);
        assert!(stats.clustering_messages_total > 0);
    }

    #[test]
    fn all_failed_workload_reports_failures_not_zero_averages() {
        // Ask for a cluster larger than the whole population: every request
        // fails, so no average is defined — the stats must say so instead of
        // fabricating 0.0 costs.
        let s = System::build(&Params {
            k: 5_000,
            ..Params::scaled(2_000)
        });
        let hosts = s.host_sequence(10, 7);
        let stats = run_workload(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
            &hosts,
        );
        assert_eq!(stats.served, 0);
        assert_eq!(stats.failed, 10);
        assert_eq!(stats.failure_rate, 1.0);
        assert!(stats.avg_cloaked_area.is_none());
        assert!(stats.avg_request_cost.is_none());
        assert!(stats.avg_cluster_size.is_none());
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"failed\": 10") || json.contains("\"failed\":10"));
        assert!(
            json.contains("null"),
            "averages must serialize as null: {json}"
        );
        assert!(
            !json.contains("\"avg_cloaked_area\": 0") && !json.contains("\"avg_cloaked_area\":0"),
            "no fabricated zero average: {json}"
        );
    }

    #[test]
    fn tconn_stays_flat_while_knn_degrades_under_sustained_load() {
        // The mechanism behind Figs. 9(b)/11(b)/12(b): as cloaking requests
        // accumulate, kNN's regions grow (free users must be found farther
        // away) while t-Conn's stay flat (cluster-isolation), so under a
        // sustained workload t-Conn ends up with the tighter regions.
        let s = small_system();
        let light = s.host_sequence(40, 11);
        let heavy = s.host_sequence(340, 11); // ~85% of users consumed by kNN groups
        let run =
            |algo, hosts: &[nela_geo::UserId]| run_workload(&s, algo, BoundingAlgo::Optimal, hosts);
        let area = |st: &WorkloadStats| st.avg_cloaked_area.unwrap();
        let knn_light = area(&run(ClusteringAlgo::Knn(TieBreak::Id), &light));
        let knn_heavy = area(&run(ClusteringAlgo::Knn(TieBreak::Id), &heavy));
        let tconn_light = area(&run(ClusteringAlgo::TConnDistributed, &light));
        let tconn_heavy = area(&run(ClusteringAlgo::TConnDistributed, &heavy));
        assert!(
            knn_heavy > 1.3 * knn_light,
            "kNN should degrade: light {knn_light} heavy {knn_heavy}"
        );
        assert!(
            tconn_heavy < 1.3 * tconn_light,
            "t-Conn should stay flat: light {tconn_light} heavy {tconn_heavy}"
        );
        assert!(
            tconn_heavy < knn_heavy,
            "under sustained load t-Conn must win: {tconn_heavy} vs {knn_heavy}"
        );
    }

    #[test]
    fn reuse_rate_grows_with_workload_size() {
        let s = small_system();
        let short = run_workload(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
            &s.host_sequence(20, 13),
        );
        let long = run_workload(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Optimal,
            &s.host_sequence(400, 13),
        );
        let rate = |st: &WorkloadStats| st.reused as f64 / st.served.max(1) as f64;
        assert!(rate(&long) > rate(&short));
    }
}
