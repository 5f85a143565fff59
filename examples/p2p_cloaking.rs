//! Peer-to-peer cloaking over an unreliable radio network, plus concurrent
//! host requests — the robustness scenarios of the paper's §VII.
//!
//! ```sh
//! cargo run --release --example p2p_cloaking
//! ```

use nela::cluster::distributed::distributed_k_clustering_with;
use nela::netsim::network::{Network, NetworkConfig};
use nela::netsim::proto::SimFetch;
use nela::{
    auto_shard_axis, BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, RequestError, System,
};
use nela_geo::UserId;

fn main() {
    let params = Params::scaled(10_000);
    let system = System::build(&params);
    println!(
        "system: {} users, avg degree {:.1}\n",
        params.n_users,
        system.avg_degree()
    );

    // ---- Part 1: one host clusters over increasingly lossy radio.
    println!("== clustering under message loss ==");
    let host: UserId = system
        .host_sequence(200, 3)
        .into_iter()
        .find(|&h| {
            nela::cluster::distributed_k_clustering(&system.wpg, h, params.k, &|_| false).is_ok()
        })
        .expect("no servable host");
    for loss in [0.0, 0.05, 0.15, 0.30] {
        let mut net = Network::new(NetworkConfig {
            loss,
            max_retries: 6,
            seed: 1,
            ..Default::default()
        })
        .expect("config is valid");
        let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
        let outcome = distributed_k_clustering_with(&mut fetch, host, params.k, &|_| false);
        let stats = net.stats();
        match outcome {
            Ok(o) => println!(
                "loss {:>4.0}%: cluster of {:>2}, {} peers contacted, \
                 {} transmissions ({} lost), {:.0} ms virtual time",
                loss * 100.0,
                o.host_cluster.len(),
                o.involved_users,
                stats.transmissions,
                stats.lost,
                net.now() * 1e3,
            ),
            Err(e) => println!("loss {:>4.0}%: request failed: {e}", loss * 100.0),
        }
    }

    // ---- Part 2: a peer crashes mid-protocol.
    println!("\n== peer crash ==");
    let mut net = Network::reliable();
    // Crash the host's strongest peer.
    let victim = system
        .wpg
        .neighbors(host)
        .min_by_key(|&(_, w)| w)
        .map(|(v, _)| v)
        .expect("host has neighbors");
    net.crash_peer(victim);
    let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
    match distributed_k_clustering_with(&mut fetch, host, params.k, &|_| false) {
        Ok(o) => println!(
            "peer {victim} down: still served with cluster of {} (routed around)",
            o.host_cluster.len()
        ),
        Err(e) => println!("peer {victim} down: aborted — {e}"),
    }

    // ---- Part 3: forty hosts race concurrently for overlapping users.
    println!("\n== concurrent requests (optimistic validate-and-claim) ==");
    let hosts = system.host_sequence(40, 9);
    let workers = 8;
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
                        .map(|&h| session.request(h))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let registry = session.finish().into_registry();
    let mut served = 0;
    let mut reused = 0;
    let mut unservable = 0;
    let mut starved = 0;
    for r in &results {
        match r {
            Ok(r) if r.reused => reused += 1,
            Ok(_) => served += 1,
            Err(RequestError::Contention { .. }) => starved += 1,
            Err(_) => unservable += 1,
        }
    }
    println!("{served} served, {reused} reused, {unservable} unservable, {starved} starved");
    println!(
        "final registry: {} clusters / {} users, reciprocity violations: {:?}",
        registry.cluster_count(),
        registry.clustered_users(),
        registry.reciprocity_violation(),
    );
}
