//! Steady-state allocation guard for the request paths.
//!
//! The cache-conscious refactor's contract is that a *warm* engine serves
//! region-reuse requests without touching the heap: the sharded path fills a
//! per-worker scratch (`lookup_into` + thread-local buffers) instead of
//! cloning member lists, and the serial path reads the registry in place.
//! This harness swaps in a counting [`GlobalAlloc`] and pins that contract —
//! a regression reintroducing a per-request `clone()`/`collect()` fails here
//! long before it shows up in a benchmark.
//!
//! The counter is process-global, so everything runs inside ONE `#[test]`
//! (the default harness would interleave allocations from sibling tests).

use nela::cluster::distributed::distributed_k_clustering_with;
use nela::cluster::{LocalFetch, PeerFetch};
use nela::geo::{Point, Rect, UserId};
use nela::lbs::{refine_knn, refine_range, CloakedQuery, LbsServer, PoiStore};
use nela::wpg::{IncrementalWpg, InverseDistanceRss, WpgBuilder};
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the std system allocator unchanged;
// the counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_request_paths_do_not_allocate() {
    let system = System::build(&Params {
        k: 5,
        ..Params::scaled(2_000)
    });
    let hosts = system.host_sequence(200, 3);

    // --- Serial path: request_many(threads = 1) -------------------------
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let warm = engine.request_many(&hosts, 1);
    // Hosts in underfilled components fail (and re-cluster) every time;
    // the steady-state contract only covers servable hosts.
    let steady: Vec<UserId> = hosts
        .iter()
        .zip(&warm)
        .filter(|(_, r)| r.is_ok())
        .map(|(&h, _)| h)
        .collect();
    assert!(
        steady.len() >= 50,
        "need a meaningful steady set, got {}",
        steady.len()
    );
    let repeat = engine.request_many(&steady, 1);
    assert!(repeat.iter().all(|r| r.as_ref().is_ok_and(|c| c.reused)));

    let before = allocs();
    let results = engine.request_many(&steady, 1);
    let batch_allocs = allocs() - before;
    assert!(results.iter().all(|r| r.as_ref().is_ok_and(|c| c.reused)));
    let regions: Vec<Rect> = results.iter().flatten().map(|c| c.region).collect();
    drop(results);
    // The whole batch may allocate its result Vec (exact-size collect) and
    // nothing else — i.e. zero allocations *per request*.
    assert!(
        batch_allocs <= 2,
        "serial warm batch of {} requests performed {batch_allocs} allocations \
         (expected at most the result Vec)",
        steady.len()
    );

    // --- Sharded path: EngineSession::request ---------------------------
    let engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let session = engine.into_session(2);
    // Warm-up claims every cluster, publishes its region, and grows this
    // thread's scratch to the largest member list.
    for &h in &steady {
        let r = session.request(h);
        assert!(r.is_ok(), "warm-up request failed for host {h}");
    }
    let before = allocs();
    let mut all_reused = true;
    for &h in &steady {
        match session.request(h) {
            Ok(c) => all_reused &= c.reused,
            Err(_) => all_reused = false,
        }
    }
    let session_allocs = allocs() - before;
    assert!(all_reused, "a warm session request missed the reuse path");
    assert_eq!(
        session_allocs,
        0,
        "warm EngineSession served {} requests with {session_allocs} allocations \
         (contract: zero per request)",
        steady.len()
    );

    // --- Phase 2 alone: claimed siblings with no region yet -------------
    // A host's request registers every piece of its super-cluster; the
    // first request by a member of another piece only bounds it. Linear
    // bounding reads no increment table (whose misses store a solve), so
    // this counts the request path and the bounding loop alone. A first
    // engine bounds every such piece once, growing this thread's buffers to
    // the largest; a second one, in the same state, must then bound each
    // with zero allocations.
    let linear = || {
        CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Linear,
        )
    };
    let unbounded = |engine: &mut CloakingEngine<'_>| -> Vec<UserId> {
        for &h in &steady {
            drop(engine.request(h));
        }
        engine
            .registry()
            .active_clusters()
            .filter(|(_, rc)| rc.region.is_none())
            .map(|(_, rc)| rc.cluster.members[0])
            .collect()
    };
    let mut warm_engine = linear();
    let pending = unbounded(&mut warm_engine);
    assert!(
        pending.len() >= 10,
        "need unbounded siblings, got {}",
        pending.len()
    );
    for &h in &pending {
        drop(warm_engine.request(h));
    }
    let mut engine = linear();
    assert_eq!(unbounded(&mut engine), pending);
    for &h in &pending {
        let before = allocs();
        let result = engine.request(h);
        let bound_allocs = allocs() - before;
        let r = result.expect("a registered sibling bounds");
        assert!(
            !r.reused && r.clustering_messages == 0 && r.bounding_rounds > 0,
            "host {h} did more than bound: {r:?}"
        );
        assert_eq!(
            bound_allocs, 0,
            "bounding host {h}'s registered cluster made {bound_allocs} allocations \
             (contract: none)"
        );
    }

    // --- Phase 1: no allocation per fetched list ------------------------
    // A warm run's allocations build its outcome: the super-cluster, the
    // pieces and their member lists. Every fetched list lands in the
    // thread's arena, over the CSR and over the rank rows alike.
    let removed = |_: UserId| false;
    let phase1 = |fetch: &mut dyn PeerFetch, host: UserId| {
        let before = allocs();
        let out = distributed_k_clustering_with(fetch, host, system.params.k, &removed)
            .expect("a steady host clusters");
        (allocs() - before, out)
    };
    let widest = *steady
        .iter()
        .max_by_key(|&&h| {
            phase1(&mut LocalFetch::new(&system.wpg), h)
                .1
                .involved_users
        })
        .expect("steady hosts");
    let builder = WpgBuilder::new(
        system.params.delta,
        system.params.max_peers,
        InverseDistanceRss,
    );
    let inc = IncrementalWpg::new(builder, &system.points);
    for fetch in [
        &mut LocalFetch::new(&system.wpg) as &mut dyn PeerFetch,
        &mut inc.rows(),
    ] {
        drop(phase1(fetch, widest));
        let (phase1_allocs, out) = phase1(fetch, widest);
        let outcome_allocs = 2 * out.all_clusters.len() as u64 + 8;
        assert!(
            out.involved_users as u64 > outcome_allocs,
            "host {widest} fetched only {} lists",
            out.involved_users
        );
        assert!(
            phase1_allocs <= outcome_allocs,
            "a warm phase 1 fetching {} lists into {} pieces made {phase1_allocs} \
             allocations (contract: at most {outcome_allocs}, none per list)",
            out.involved_users,
            out.all_clusters.len()
        );
    }

    // --- LBS: LbsServer::handle -----------------------------------------
    // The kernel's buffers live per thread. One warm-up call over the whole
    // square grows them to the population; after it each call allocates
    // only the candidate list it returns.
    let server = LbsServer::new(PoiStore::from_points(&system.points, 1000));
    for query in [
        CloakedQuery::Range { radius: 0.02 },
        CloakedQuery::Knn { k: 5 },
    ] {
        drop(server.handle(&Rect::new(0.0, 0.0, 1.0, 1.0), &query));
        for region in &regions {
            let before = allocs();
            let response = server.handle(region, &query);
            let handle_allocs = allocs() - before;
            assert!(
                !response.candidates.is_empty(),
                "{query:?} answered nothing"
            );
            assert_eq!(
                handle_allocs, 1,
                "{query:?} over {region:?} made {handle_allocs} allocations \
                 (contract: the returned candidate list only)"
            );
        }
    }

    // --- Client: refine_range ------------------------------------------
    // One buffer sized to the candidates: a collect that regrows its
    // buffer allocates again past four kept ids, so the radius keeps more.
    let radius = 0.1;
    for region in &regions {
        let candidates = server
            .handle(region, &CloakedQuery::Range { radius })
            .candidates;
        let centre = Point::new(
            (region.min_x + region.max_x) / 2.0,
            (region.min_y + region.max_y) / 2.0,
        );
        let before = allocs();
        let refined = refine_range(server.store(), &candidates, centre, radius);
        let refine_allocs = allocs() - before;
        assert!(refined.len() > 4, "{region:?} kept {}", refined.len());
        assert_eq!(
            refine_allocs, 1,
            "refine_range over {region:?} made {refine_allocs} allocations \
             (contract: the returned list only)"
        );
    }

    // --- Client: refine_knn --------------------------------------------
    // Selects in the thread's kernel buffer, warm from the kRNN `handle`
    // calls above: a fresh heap would regrow for k = 5 before its ids are
    // collected.
    let k = 5;
    for region in &regions {
        let candidates = server.handle(region, &CloakedQuery::Knn { k }).candidates;
        let corner = Point::new(region.min_x, region.max_y);
        let before = allocs();
        let refined = refine_knn(server.store(), &candidates, corner, k);
        let refine_allocs = allocs() - before;
        assert_eq!(refined.len(), k, "{region:?} kept {}", refined.len());
        assert_eq!(
            refine_allocs, 1,
            "refine_knn over {region:?} made {refine_allocs} allocations \
             (contract: the returned list only)"
        );
    }
}
