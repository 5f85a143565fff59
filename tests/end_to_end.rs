//! End-to-end integration tests: every clustering × bounding combination
//! over a realistic workload, audited against ground truth.

use nela::cluster::knn::TieBreak;
use nela::{audit_result, BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};

fn system() -> System {
    System::build(&Params {
        k: 5,
        ..Params::scaled(3_000)
    })
}

#[test]
fn every_algorithm_combination_passes_audit() {
    let system = system();
    let hosts = system.host_sequence(25, 3);
    let clusterings = [
        ClusteringAlgo::TConnDistributed,
        ClusteringAlgo::TConnCentralized,
        ClusteringAlgo::HilbAsr,
        ClusteringAlgo::Knn(TieBreak::Id),
        ClusteringAlgo::Knn(TieBreak::SmallestDegree),
    ];
    let boundings = [
        BoundingAlgo::Optimal,
        BoundingAlgo::Secure,
        BoundingAlgo::Linear,
        BoundingAlgo::Exponential,
    ];
    for c in clusterings {
        for b in boundings {
            let mut engine = CloakingEngine::new(&system, c, b);
            let mut served = 0;
            for &h in &hosts {
                let Ok(result) = engine.request(h) else {
                    continue;
                };
                served += 1;
                let audit = audit_result(&system, &result);
                assert!(
                    audit.passed(),
                    "audit failed for {c:?}/{b:?} host {h}: {audit:?}"
                );
                assert!(result.cluster_size >= system.params.k);
                assert!(audit.users_in_region >= result.cluster_size);
            }
            assert!(served > 0, "{c:?}/{b:?}: nothing served");
        }
    }
}

#[test]
fn cluster_members_share_the_exact_region() {
    // Reciprocity at the region level: every member of a served cluster
    // requesting later receives byte-identical cloaking.
    let system = system();
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let mut checked = 0;
    for h in system.host_sequence(40, 11) {
        let Ok(first) = engine.request(h) else {
            continue;
        };
        let members = engine
            .registry()
            .cluster_of(h)
            .expect("host registered")
            .cluster
            .members
            .clone();
        for m in members {
            let again = engine.request(m).expect("member request must succeed");
            assert_eq!(
                again.region, first.region,
                "member {m} got a different region"
            );
            assert_eq!(again.clustering_messages, 0);
            assert_eq!(again.bounding_messages, 0);
        }
        checked += 1;
        if checked >= 5 {
            break;
        }
    }
    assert!(checked > 0);
}

#[test]
fn secure_bounding_never_undershoots_any_member() {
    let system = system();
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    for h in system.host_sequence(60, 5) {
        let Ok(result) = engine.request(h) else {
            continue;
        };
        let members = &engine.registry().cluster_of(h).unwrap().cluster.members;
        for &m in members {
            assert!(
                result.region.contains(&system.points[m as usize]),
                "member {m} outside its own cloaked region"
            );
        }
    }
}

#[test]
fn stats_accounting_is_internally_consistent() {
    let system = system();
    let hosts = system.host_sequence(80, 7);
    let stats = nela::metrics::run_workload(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
        &hosts,
    );
    assert_eq!(stats.served + stats.failed, hosts.len());
    assert!(stats.reused <= stats.served);
    let area = stats.avg_cloaked_area.unwrap();
    let request_cost = stats.avg_request_cost.unwrap();
    assert!(stats.avg_cluster_size.unwrap() >= system.params.k as f64);
    assert!(area > 0.0);
    assert!(request_cost > 0.0);
    assert!((stats.failure_rate - stats.failed as f64 / hosts.len() as f64).abs() < 1e-12);
    // Request cost is area-proportional by definition.
    let expected = nela::service_request_cost(area, &system.params);
    assert!(
        (request_cost - expected).abs() / expected < 1e-9,
        "request cost must be the area-proportional model"
    );
}

#[test]
fn same_seed_same_everything() {
    let params = Params {
        k: 5,
        ..Params::scaled(2_000)
    };
    let run = || {
        let system = System::build(&params);
        let hosts = system.host_sequence(30, 1);
        let mut engine = CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        );
        hosts
            .iter()
            .filter_map(|&h| engine.request(h).ok())
            .map(|r| (r.host, r.region, r.clustering_messages, r.bounding_messages))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1, y.1);
        assert_eq!(x.2, y.2);
        assert_eq!(x.3, y.3);
    }
}
