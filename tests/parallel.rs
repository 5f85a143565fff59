//! Batched-request equivalence: `request_many` and `EngineSession` (one or
//! many scoped workers) against the serial `request` loop, and safety
//! invariants of the concurrent paths.

use nela::cluster::registry::ClusterRegistry;
use nela::geo::UserId;
use nela::netsim::NetworkConfig;
use nela::{
    auto_shard_axis, BoundingAlgo, CloakingEngine, CloakingResult, ClusteringAlgo, EngineSession,
    Params, RequestError, System,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn system() -> System {
    System::build(&Params {
        k: 5,
        ..Params::scaled(2_000)
    })
}

/// One shared system for the property tests — building it per case would
/// dominate the suite's runtime.
fn shared_system() -> &'static System {
    static SYSTEM: OnceLock<System> = OnceLock::new();
    SYSTEM.get_or_init(system)
}

/// Canonical view of the live registry state: each active cluster's sorted
/// membership plus its published region, sorted for order-independence.
type Snapshot = Vec<(Vec<UserId>, Option<(f64, f64, f64, f64)>)>;

fn registry_snapshot(reg: &ClusterRegistry) -> Snapshot {
    let mut snap: Vec<_> = reg
        .active_clusters()
        .map(|(_, c)| {
            let mut members = c.cluster.members.clone();
            members.sort_unstable();
            let region = c.region.map(|r| (r.min_x, r.min_y, r.max_x, r.max_y));
            (members, region)
        })
        .collect();
    snap.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

/// Serves `hosts` on `session` from `workers` scoped threads, one
/// contiguous chunk each, returning the results in `hosts` order.
fn serve_chunked(
    session: &EngineSession<'_>,
    hosts: &[UserId],
    workers: usize,
) -> Vec<Result<CloakingResult, RequestError>> {
    let chunk = hosts.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = hosts
            .chunks(chunk)
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
            .flat_map(|h| h.join().expect("session worker panicked"))
            .collect()
    })
}

/// A fresh distributed/secure engine served through `into_session(axis)`
/// by `workers` scoped threads; returns the results and the engine
/// `finish` folds back.
fn session_batch<'s>(
    s: &'s System,
    hosts: &[UserId],
    workers: usize,
    axis: usize,
) -> (
    Vec<Result<CloakingResult, RequestError>>,
    CloakingEngine<'s>,
) {
    let session = CloakingEngine::new(s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
        .into_session(axis);
    let results = serve_chunked(&session, hosts, workers);
    (results, session.finish())
}

#[test]
fn single_thread_request_many_matches_request_loop() {
    let s = system();
    let hosts = s.host_sequence(80, 9);

    let mut serial_engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
    let serial: Vec<_> = hosts.iter().map(|&h| serial_engine.request(h)).collect();

    let mut batched_engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
    let batched = batched_engine.request_many(&hosts, 1);

    assert_eq!(serial.len(), batched.len());
    for (a, b) in serial.iter().zip(&batched) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.host, y.host);
                assert_eq!(x.region, y.region);
                assert_eq!(x.cluster_size, y.cluster_size);
                assert_eq!(x.clustering_messages, y.clustering_messages);
                assert_eq!(x.bounding_messages, y.bounding_messages);
                assert_eq!(x.reused, y.reused);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("outcome diverged: {a:?} vs {b:?}"),
        }
    }
    assert_eq!(
        registry_snapshot(serial_engine.registry()),
        registry_snapshot(batched_engine.registry()),
        "single-thread batch must leave the registry exactly as the loop"
    );
}

#[test]
fn concurrent_request_many_preserves_cloaking_invariants() {
    let s = system();
    let hosts = s.host_sequence(120, 17);

    for threads in [2usize, 4, 8] {
        let mut engine =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let outcomes = engine.request_many(&hosts, threads);
        assert_eq!(outcomes.len(), hosts.len());

        let mut served = 0usize;
        for (h, outcome) in hosts.iter().zip(&outcomes) {
            if let Ok(r) = outcome {
                served += 1;
                assert_eq!(r.host, *h);
                assert!(r.cluster_size >= s.params.k, "cluster below k");
                assert!(
                    r.region.contains(&s.points[*h as usize]),
                    "region must cover its host"
                );
            }
        }
        assert!(served > 0, "no request served at {threads} threads");
        // The shared registry must stay mutually consistent: reciprocity
        // (every member of a cluster maps back to it) and no user in two
        // live clusters.
        assert_eq!(
            engine.registry().reciprocity_violation(),
            None,
            "registry corrupted at {threads} threads"
        );
    }
}

/// Field-by-field equality of two result vectors (errors must match in
/// presence, not necessarily in kind — phase-1 failures are deterministic,
/// so in practice the kinds agree too).
fn assert_results_match(
    serial: &[Result<nela::CloakingResult, RequestError>],
    other: &[Result<nela::CloakingResult, RequestError>],
    label: &str,
) {
    assert_eq!(serial.len(), other.len(), "{label}: length diverged");
    for (a, b) in serial.iter().zip(other) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.host, y.host, "{label}");
                assert_eq!(x.region, y.region, "{label}");
                assert_eq!(x.cluster_size, y.cluster_size, "{label}");
                assert_eq!(x.clustering_messages, y.clustering_messages, "{label}");
                assert_eq!(x.bounding_messages, y.bounding_messages, "{label}");
                assert_eq!(x.reused, y.reused, "{label}");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{label}: outcome diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn sharded_one_worker_matches_serial_loop_across_shard_counts() {
    let s = system();
    let hosts = s.host_sequence(80, 9);

    let mut serial_engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
    let serial: Vec<_> = hosts.iter().map(|&h| serial_engine.request(h)).collect();
    let serial_snap = registry_snapshot(serial_engine.registry());

    // The sharded machinery at one worker must be bit-identical to the
    // serial loop for ANY shard layout — sharding only changes who holds
    // which lock, never what is computed.
    for axis in [1usize, 2, 3, 8] {
        let (batched, engine) = session_batch(&s, &hosts, 1, axis);
        assert_results_match(&serial, &batched, &format!("axis={axis}"));
        assert_eq!(
            serial_snap,
            registry_snapshot(engine.registry()),
            "registry diverged at axis={axis}"
        );
    }
}

#[test]
fn session_and_request_many_agree_under_concurrency() {
    let s = system();
    let hosts = s.host_sequence(120, 31);
    for threads in [2usize, 4] {
        let (_, session) = session_batch(&s, &hosts, threads, auto_shard_axis(threads));
        let mut batched =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let _ = batched.request_many(&hosts, threads);
        // Concurrent interleavings may attribute work differently, but both
        // entry points must uphold the same safety contract.
        assert_eq!(session.registry().reciprocity_violation(), None);
        assert_eq!(batched.registry().reciprocity_violation(), None);
    }
}

#[test]
fn heavy_contention_on_one_neighborhood_terminates() {
    // Forty hosts from one dense neighborhood, all racing from eight
    // workers: no deadlock, the folded-back registry stays reciprocal, and
    // at most a couple of hosts exhaust their retry budget.
    let s = System::build(&Params {
        k: 6,
        ..Params::scaled(2_000)
    });
    let center = (0..s.points.len() as UserId)
        .max_by_key(|&u| s.wpg.degree(u))
        .expect("non-empty population");
    let c = s.points[center as usize];
    let mut by_distance: Vec<UserId> = (0..s.points.len() as UserId).collect();
    by_distance.sort_by(|&a, &b| {
        let (pa, pb) = (s.points[a as usize], s.points[b as usize]);
        pa.dist_sq(&c).total_cmp(&pb.dist_sq(&c))
    });
    let hosts = &by_distance[..40];
    let session = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
        .into_session(auto_shard_axis(8));
    let results = serve_chunked(&session, hosts, 8);
    assert_eq!(results.len(), 40);
    let engine = session.finish();
    assert_eq!(engine.registry().reciprocity_violation(), None);
    let starved = results
        .iter()
        .filter(|r| matches!(r, Err(RequestError::Contention { .. })))
        .count();
    assert!(starved <= 2, "{starved} hosts starved");
    for (h, r) in hosts.iter().zip(&results) {
        if let Ok(r) = r {
            assert_eq!(r.host, *h);
            assert!(r.cluster_size >= s.params.k);
        }
    }
}

#[test]
fn depleted_neighborhood_yields_typed_errors_not_panics() {
    // Serve hosts until their neighborhoods deplete (everyone around them
    // is clustered), then keep requesting: every failure must surface as a
    // typed RequestError — never a panic — and the engine must keep serving
    // afterwards.
    let s = System::build(&Params {
        k: 8,
        ..Params::scaled(600)
    });
    let mut engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
    let mut served = 0usize;
    let mut failed = 0usize;
    for h in 0..s.points.len() as UserId {
        match engine.request(h) {
            Ok(r) => {
                served += 1;
                assert!(r.cluster_size >= s.params.k);
            }
            Err(
                RequestError::Cluster(_)
                | RequestError::Bounding(_)
                | RequestError::HostNotClustered,
            ) => failed += 1,
            Err(e) => panic!("unexpected error kind from serial request: {e:?}"),
        }
    }
    assert!(served > 0, "nothing served before depletion");
    assert!(failed > 0, "population never depleted — test is vacuous");
    // The depleted registry must also survive a batch round on both paths.
    let hosts: Vec<UserId> = (0..200).collect();
    for result in engine.request_many(&hosts, 4) {
        if let Err(e) = result {
            assert!(
                matches!(
                    e,
                    RequestError::Cluster(_)
                        | RequestError::Bounding(_)
                        | RequestError::HostNotClustered
                        | RequestError::Contention { .. }
                ),
                "unexpected error kind from batch: {e:?}"
            );
        }
    }
    assert_eq!(engine.registry().reciprocity_violation(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any host sample and shard layout, one sharded worker reproduces
    /// the serial loop exactly; any worker count preserves the invariants.
    #[test]
    fn sharded_batches_equiv_serial_and_safe(
        seed in 0u64..1_000,
        count in 10usize..60,
        axis in 1usize..9,
        threads in 2usize..6,
    ) {
        let s = shared_system();
        let hosts = s.host_sequence(count, seed);

        let mut serial_engine =
            CloakingEngine::new(s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let serial: Vec<_> = hosts.iter().map(|&h| serial_engine.request(h)).collect();

        let (batched, one) = session_batch(s, &hosts, 1, axis);
        assert_results_match(&serial, &batched, &format!("seed={seed} axis={axis}"));
        prop_assert_eq!(
            registry_snapshot(serial_engine.registry()),
            registry_snapshot(one.registry())
        );

        let (outcomes, many) = session_batch(s, &hosts, threads, axis);
        prop_assert_eq!(outcomes.len(), hosts.len());
        for (h, outcome) in hosts.iter().zip(&outcomes) {
            if let Ok(r) = outcome {
                prop_assert_eq!(r.host, *h);
                prop_assert!(r.cluster_size >= s.params.k);
                prop_assert!(r.region.contains(&s.points[*h as usize]));
            }
        }
        prop_assert_eq!(many.registry().reciprocity_violation(), None);
    }
}

/// Differential test for the thread-count invariance promised by
/// `run_workload_threads`: with one host per t-connectivity component the
/// requests touch pairwise disjoint user sets, so no interleaving can change
/// what is computed — served / failed / reused and the exact message totals
/// must be bit-equal to the serial run at every worker count.
/// One host per t-connectivity component, largest components first so most
/// sampled hosts can actually reach k users. Their requests touch pairwise
/// disjoint user sets, so no interleaving can change what is computed.
fn independent_hosts(s: &System) -> Vec<UserId> {
    use nela::wpg::connectivity::{components_under, nothing_removed};
    use nela::wpg::Weight;

    let mut comps = components_under(&s.wpg, s.params.max_peers as Weight, &nothing_removed);
    comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let hosts: Vec<UserId> = comps.iter().take(32).map(|c| c[0]).collect();
    assert!(
        hosts.len() >= 4,
        "graph too connected for a meaningful differential sample"
    );
    hosts
}

#[test]
fn aggregate_stats_are_thread_count_invariant_for_independent_hosts() {
    use nela::metrics::run_workload_threads;

    let s = system();
    let hosts = independent_hosts(&s);

    let run = |threads| {
        run_workload_threads(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            &hosts,
            threads,
        )
    };
    let serial = run(1);
    assert!(serial.served > 0, "differential baseline served nothing");
    for threads in [2usize, 4, 8] {
        let par = run(threads);
        assert_eq!(serial.served, par.served, "served diverged at {threads}");
        assert_eq!(serial.failed, par.failed, "failed diverged at {threads}");
        assert_eq!(serial.reused, par.reused, "reused diverged at {threads}");
        assert_eq!(
            serial.clustering_messages_total, par.clustering_messages_total,
            "clustering messages diverged at {threads} threads"
        );
        assert_eq!(
            serial.bounding_messages_total, par.bounding_messages_total,
            "bounding messages diverged at {threads} threads"
        );
    }
}

/// The netsim transport seeds each request's network from `(seed, host)`,
/// so over independent hosts a lossy session's per-request outcomes and its
/// network totals must not depend on how many workers serve it.
#[test]
fn netsim_session_outcomes_are_worker_count_invariant() {
    let s = system();
    let hosts = independent_hosts(&s);
    let cfg = NetworkConfig {
        loss: 0.05,
        seed: 7,
        ..NetworkConfig::default()
    };
    let run = |workers: usize| {
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(auto_shard_axis(workers))
                .with_network(cfg)
                .expect("config is valid");
        let outcomes: Vec<_> = serve_chunked(&session, &hosts, workers)
            .into_iter()
            .map(|r| {
                r.map(|c| {
                    let messages = c.clustering_messages + c.bounding_messages;
                    (c.region, c.reused, messages)
                })
            })
            .collect();
        (outcomes, session.net_stats().expect("netsim session"))
    };
    let (serial, serial_net) = run(1);
    assert!(serial.iter().any(|r| r.is_ok()), "baseline served nothing");
    assert!(
        serial_net.retransmits > 0,
        "5% loss produced no retransmits"
    );
    let (parallel, parallel_net) = run(4);
    assert_eq!(serial, parallel, "per-host outcomes diverged at 4 workers");
    assert_eq!(
        serial_net, parallel_net,
        "network totals diverged at 4 workers"
    );
}

#[test]
fn non_tconn_batches_fall_back_to_serial_order() {
    let s = system();
    let hosts = s.host_sequence(40, 23);
    let mut loop_engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Optimal);
    let serial: Vec<_> = hosts.iter().map(|&h| loop_engine.request(h)).collect();
    let mut batch_engine =
        CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Optimal);
    let batched = batch_engine.request_many(&hosts, 8);
    for (a, b) in serial.iter().zip(&batched) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.region, y.region);
                assert_eq!(x.reused, y.reused);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("fallback diverged: {a:?} vs {b:?}"),
        }
    }
}
