//! Cross-crate integration: the clustering and bounding protocols running
//! over the simulated radio network (`nela-netsim`) must agree with their
//! analytic counterparts, and degrade gracefully under loss, crashes and
//! concurrency (an `EngineSession` served from scoped workers).

use nela::bounding::baselines::LinearPolicy;
use nela::bounding::protocol::{progressive_upper_bound, progressive_upper_bound_with};
use nela::cluster::distributed::{distributed_k_clustering, distributed_k_clustering_with};
use nela::netsim::network::{Network, NetworkConfig};
use nela::netsim::proto::{SimFetch, SimVerify};
use nela::{auto_shard_axis, BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use nela_geo::UserId;

fn system() -> System {
    System::build(&Params {
        k: 5,
        ..Params::scaled(3_000)
    })
}

fn servable_hosts(system: &System, want: usize) -> Vec<UserId> {
    let none = |_: UserId| false;
    system
        .host_sequence(500, 9)
        .into_iter()
        .filter(|&h| distributed_k_clustering(&system.wpg, h, system.params.k, &none).is_ok())
        .take(want)
        .collect()
}

#[test]
fn simulated_clustering_equals_analytic_clustering() {
    let system = system();
    let none = |_: UserId| false;
    for host in servable_hosts(&system, 5) {
        let analytic = distributed_k_clustering(&system.wpg, host, system.params.k, &none).unwrap();
        let mut net = Network::reliable();
        let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
        let simulated =
            distributed_k_clustering_with(&mut fetch, host, system.params.k, &none).unwrap();
        assert_eq!(analytic.host_cluster, simulated.host_cluster);
        assert_eq!(analytic.involved_users, simulated.involved_users);
        assert_eq!(net.stats().rpcs_ok as usize, simulated.involved_users);
        assert_eq!(net.stats().lost, 0);
    }
}

#[test]
fn lossy_network_changes_cost_but_not_result() {
    let system = system();
    let none = |_: UserId| false;
    let host = servable_hosts(&system, 1)[0];
    let analytic = distributed_k_clustering(&system.wpg, host, system.params.k, &none).unwrap();
    let mut net = Network::new(NetworkConfig {
        loss: 0.2,
        max_retries: 8,
        seed: 5,
        ..Default::default()
    })
    .expect("config is valid");
    let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
    let simulated =
        distributed_k_clustering_with(&mut fetch, host, system.params.k, &none).unwrap();
    assert_eq!(
        analytic.host_cluster, simulated.host_cluster,
        "loss affects transmissions, never the protocol outcome"
    );
    assert!(net.stats().lost > 0, "20% loss should have lost something");
    assert!(net.stats().transmissions > 2 * net.stats().rpcs_ok);
}

#[test]
fn simulated_bounding_equals_local_bounding() {
    let system = system();
    let none = |_: UserId| false;
    let host = servable_hosts(&system, 1)[0];
    let cluster = distributed_k_clustering(&system.wpg, host, system.params.k, &none)
        .unwrap()
        .host_cluster;
    let participants: Vec<(UserId, f64)> = cluster
        .members
        .iter()
        .map(|&m| (m, system.points[m as usize].x))
        .collect();
    let values: Vec<f64> = participants.iter().map(|&(_, v)| v).collect();
    let x0 = system.points[host as usize].x;

    let local = progressive_upper_bound(&values, x0, 0.0, &mut LinearPolicy::new(1e-3)).unwrap();
    let mut net = Network::reliable();
    let mut transport = SimVerify::new(&mut net, host, &participants);
    let simulated =
        progressive_upper_bound_with(&mut transport, x0, 0.0, &mut LinearPolicy::new(1e-3))
            .unwrap();
    assert_eq!(local.bound, simulated.bound);
    assert_eq!(local.rounds, simulated.rounds);
    assert_eq!(local.messages, simulated.messages);
    // The host's own verifications are local; everyone else's cost an RPC.
    assert!(net.stats().rpcs_ok <= local.messages);
}

#[test]
fn concurrent_workload_matches_reciprocity_and_k() {
    let system = system();
    let hosts = servable_hosts(&system, 20);
    let workers = 4;
    let session = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    )
    .into_session(auto_shard_axis(workers));
    let results: Vec<_> = std::thread::scope(|scope| {
        let session = &session;
        let handles: Vec<_> = hosts
            .chunks(hosts.len().div_ceil(workers))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&h| (h, session.request(h)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let engine = session.finish();
    let registry = engine.registry();
    assert_eq!(registry.reciprocity_violation(), None);
    for (host, res) in &results {
        // Failures (unservable, contention) are legitimate; every served
        // host sits in a registered cluster of at least k members.
        if let Ok(r) = res {
            let cluster = &registry
                .cluster_of(*host)
                .expect("served host is registered")
                .cluster;
            assert!(cluster.contains(*host));
            assert!(cluster.len() >= system.params.k);
            assert_eq!(r.cluster_size, cluster.len());
        }
    }
}

#[test]
fn crashed_peer_is_survivable_when_alternatives_exist() {
    // Crash one arbitrary non-neighbor peer: the host's protocol must be
    // unaffected (it never contacts it).
    let system = system();
    let none = |_: UserId| false;
    let host = servable_hosts(&system, 1)[0];
    let analytic = distributed_k_clustering(&system.wpg, host, system.params.k, &none).unwrap();
    // A peer far from the host: the last user id not in the super-cluster.
    let far = (0..system.wpg.n() as UserId)
        .rev()
        .find(|u| analytic.super_cluster.binary_search(u).is_err() && *u != host)
        .unwrap();
    let mut net = Network::reliable();
    net.crash_peer(far);
    let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
    let simulated = distributed_k_clustering_with(&mut fetch, host, system.params.k, &none);
    // Either the protocol never needed the crashed peer (equal result), or
    // it legitimately aborted because the peer was on its contact path.
    if let Ok(sim) = simulated {
        assert_eq!(sim.host_cluster, analytic.host_cluster);
    }
}
