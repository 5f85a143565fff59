//! Phase-2 equivalence: the engine's shared increment table against the
//! per-run memoized secure policy it replaced.
//!
//! [`oracle::SecurePolicy`] is that policy verbatim: a `HashMap` memo that
//! starts empty for every directional run, generic over the excess and cost
//! models. Increments, boxes, round counts and message counts of the
//! table-backed policy must match it bit for bit — from a cold table, from
//! a table warmed by other cluster sizes, from a table two threads share,
//! and through every serving path of the engine.

use nela::bounding::bbox::bounding_box;
use nela::bounding::cost::AreaCost;
use nela::bounding::distribution::Uniform;
use nela::bounding::nbound::{IncrementTable, SecurePolicy};
use nela::bounding::protocol::{progressive_upper_bound_with, IncrementPolicy, LocalValues};
use nela::geo::{Point, Rect, UserId};
use nela::{
    auto_shard_axis, personalized_k_levels, run_scenario_on, scenario_system, Adversary,
    BoundingAlgo, CloakingEngine, CloakingResult, ClusteringAlgo, GeoAxis, KAxis, Params,
    RequestError, ScenarioSpec, System,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Barrier;

mod oracle {
    use nela::bounding::cost::RequestCost;
    use nela::bounding::distribution::ExcessDistribution;
    use nela::bounding::nbound::n_bounding_increment;
    use nela::bounding::protocol::IncrementPolicy;

    /// The secure bounding increment policy (paper Algorithm 4): each round's
    /// increment is the N-bounding optimum for the current number of disagreeing
    /// users.
    ///
    /// The paper models the excesses with a fixed span U = N/|D|; real cluster
    /// extents routinely exceed that (clusters in sparse areas span several
    /// radio ranges). A model-faithful policy would then crawl: every round
    /// proposes at most the modeled span while nobody agrees. The policy
    /// therefore *recalibrates*: whenever a round ends with zero new agreements
    /// (the count of disagreeing users did not drop), the modeled span doubles
    /// and increments are re-derived — the optimal-increment structure is kept,
    /// anchored to a span consistent with the evidence. Increments are memoized
    /// per (N, recalibration level).
    pub struct SecurePolicy<D, R> {
        dist: D,
        cost: R,
        cb: f64,
        /// Doublings applied so far.
        widenings: u32,
        /// `n_disagreeing` seen in the previous round (zero-progress detector).
        last_n: Option<usize>,
        memo: std::collections::HashMap<(usize, u32), f64>,
    }

    impl<D: ExcessDistribution, R: RequestCost> SecurePolicy<D, R> {
        /// Creates the policy from the excess model and cost model.
        pub fn new(dist: D, cost: R, cb: f64) -> Self {
            SecurePolicy {
                dist,
                cost,
                cb,
                widenings: 0,
                last_n: None,
                memo: std::collections::HashMap::new(),
            }
        }
    }

    impl<D: ExcessDistribution, R: RequestCost> IncrementPolicy for SecurePolicy<D, R> {
        fn increment(&mut self, n_disagreeing: usize, _round: usize, _current_excess: f64) -> f64 {
            if self.last_n == Some(n_disagreeing) {
                // No one agreed last round: the modeled span is too small.
                self.widenings += 1;
            }
            self.last_n = Some(n_disagreeing);
            let dist = self.dist.widened(f64::powi(2.0, self.widenings as i32));
            let floor = dist.effective_span() * 1e-3;
            let inc = *self
                .memo
                .entry((n_disagreeing, self.widenings))
                .or_insert_with(|| n_bounding_increment(n_disagreeing, &dist, &self.cost, self.cb));
            inc.max(floor)
        }
    }
}

/// The oracle for one run of a cluster of `size` under `p`'s cost model,
/// built the way the engine built its policy before the shared table.
fn oracle_policy(p: &Params, size: usize) -> oracle::SecurePolicy<Uniform, AreaCost> {
    oracle::SecurePolicy::new(
        Uniform::new(p.uniform_span(size)),
        AreaCost {
            cr: p.cr * p.n_users as f64,
        },
        p.cb,
    )
}

/// Disagreeing counts one run of a cluster of `size` can present, round by
/// round: N starts at `size`; each round either stalls (N repeats, so the
/// policy widens its model) or some users agree. Runs of up to four stalls
/// reach four widenings, and stalls are likeliest at the start and at
/// N = 1, as in real runs.
fn n_sequence(size: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut n = size;
    let mut seq = vec![n];
    while n > 0 {
        let stall = if n == size || n == 1 { 0.6 } else { 0.3 };
        if rng.gen_bool(stall) {
            for _ in 0..rng.gen_range(1..=4) {
                seq.push(n);
            }
        }
        n -= rng.gen_range(1..=n.div_ceil(3));
        if n > 0 {
            seq.push(n);
        }
    }
    seq
}

/// Every (size, N-sequence) case of the policy-level sweep: sizes 2..=60,
/// three sequences each.
fn cases(seed: u64) -> Vec<(usize, Vec<usize>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (2..=60)
        .flat_map(|size| (0..3).map(move |_| size))
        .map(|size| (size, n_sequence(size, &mut rng)))
        .collect()
}

/// Drives the table-backed policy and the oracle through one sequence and
/// asserts equal increment bits at every round.
fn assert_case_matches(p: &Params, table: &IncrementTable, size: usize, seq: &[usize]) {
    let mut oracle = oracle_policy(p, size);
    let mut policy = SecurePolicy::new(table, Uniform::new(p.uniform_span(size)));
    let mut excess = 0.0;
    for (r, &n) in seq.iter().enumerate() {
        let want = oracle.increment(n, r + 1, excess);
        let got = policy.increment(n, r + 1, excess);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "size {size}, round {}, N {n}: table {got} vs oracle {want} (sequence {seq:?})",
            r + 1
        );
        excess += want;
    }
}

fn params() -> Params {
    Params::scaled(5_000)
}

#[test]
fn table_policy_matches_oracle_from_a_cold_table() {
    let p = params();
    for (size, seq) in cases(1) {
        assert_case_matches(&p, &p.increment_table(), size, &seq);
    }
}

#[test]
fn table_policy_matches_oracle_from_a_table_warmed_by_other_sizes() {
    let p = params();
    let table = p.increment_table();
    // Warm with every size in reverse, then replay: each size's lookups
    // meet entries that other sizes' widened spans and counts stored.
    let mut all = cases(2);
    all.reverse();
    for (size, seq) in &all {
        assert_case_matches(&p, &table, *size, seq);
    }
    let warmed = table.entries();
    for (size, seq) in cases(3) {
        assert_case_matches(&p, &table, size, &seq);
    }
    assert!(warmed > 0 && table.entries() >= warmed);
}

#[test]
fn table_policy_matches_oracle_when_two_threads_share_the_table() {
    let p = params();
    let table = p.increment_table();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for seed in [4u64, 5] {
            let (p, table, start) = (&p, &table, &start);
            scope.spawn(move || {
                let mut all = cases(seed);
                if seed % 2 == 1 {
                    all.reverse();
                }
                start.wait();
                for (size, seq) in &all {
                    assert_case_matches(p, table, *size, seq);
                }
            });
        }
    });
}

/// The oracle's box for `host`'s cluster: the four directional runs over
/// in-memory values, each with a fresh per-run memo.
fn oracle_box(system: &System, host: UserId, members: &[UserId]) -> (Rect, usize, u64) {
    let points: Vec<Point> = members.iter().map(|&m| system.points[m as usize]).collect();
    let mut values = Vec::with_capacity(points.len());
    let out = bounding_box(
        system.points[host as usize],
        Rect::UNIT,
        |dir, x0, domain_min| {
            values.clear();
            values.extend(points.iter().map(|p| dir.value(p)));
            let mut policy = oracle_policy(&system.params, members.len());
            progressive_upper_bound_with(
                &mut LocalValues::new(&values),
                x0,
                domain_min,
                &mut policy,
            )
        },
    )
    .expect("oracle bounds a registered cluster");
    (out.rect, out.rounds, out.messages)
}

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.min_x, r.min_y, r.max_x, r.max_y].map(f64::to_bits)
}

/// Checks every freshly bounded result against the oracle, taking each
/// host's members from the engine's registry. Returns how many it checked.
fn assert_fresh_bounds_match(
    engine: &CloakingEngine<'_>,
    system: &System,
    results: &[Result<CloakingResult, RequestError>],
) -> usize {
    let mut checked = 0;
    for r in results.iter().flatten() {
        if r.bounding_rounds == 0 {
            continue; // served from a stored region
        }
        let members = &engine
            .registry()
            .cluster_of(r.host)
            .expect("a bounded host is registered")
            .cluster
            .members;
        let (rect, rounds, messages) = oracle_box(system, r.host, members);
        assert_eq!(rect_bits(&r.region), rect_bits(&rect), "host {}", r.host);
        assert_eq!(r.bounding_rounds, rounds, "host {}", r.host);
        assert_eq!(r.bounding_messages, messages, "host {}", r.host);
        checked += 1;
    }
    checked
}

fn engine_system() -> System {
    System::build(&params())
}

fn secure_engine(system: &System) -> CloakingEngine<'_> {
    CloakingEngine::new(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    )
}

#[test]
fn serial_requests_bound_like_the_oracle() {
    let system = engine_system();
    let mut engine = secure_engine(&system);
    let results: Vec<_> = system
        .host_sequence(400, 11)
        .into_iter()
        .map(|h| engine.request(h))
        .collect();
    let checked = assert_fresh_bounds_match(&engine, &system, &results);
    assert!(checked > 100, "only {checked} fresh bounds");
}

#[test]
fn two_worker_session_bounds_like_the_oracle() {
    let system = engine_system();
    let hosts = system.host_sequence(400, 12);
    let session = secure_engine(&system).into_session(auto_shard_axis(2));
    let results: Vec<_> = std::thread::scope(|scope| {
        let session = &session;
        let workers: Vec<_> = hosts
            .chunks(hosts.len().div_ceil(2))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&h| session.request(h))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    let engine = session.finish();
    let checked = assert_fresh_bounds_match(&engine, &system, &results);
    assert!(checked > 100, "only {checked} fresh bounds");
}

#[test]
fn personalized_k_requests_bound_like_the_oracle() {
    let system = engine_system();
    let levels = personalized_k_levels(system.points.len(), system.params.k, 13);
    let mut engine = secure_engine(&system).with_personalized_k(levels).unwrap();
    let results: Vec<_> = system
        .host_sequence(400, 13)
        .into_iter()
        .map(|h| engine.request(h))
        .collect();
    let checked = assert_fresh_bounds_match(&engine, &system, &results);
    assert!(checked > 50, "only {checked} fresh bounds");
}

/// The crash cell's verdict under the per-run memo, recorded before the
/// shared table. Its restarts now re-bound the survivors from the engine's
/// table.
const CRASH_CELL_VERDICT: &str = "PrivacyVerdict { requests: 60, served: 38, reused: 7, \
degraded: 22, k_anonymity_held: true, no_non_member_exposure: true, leak_floor_held: true, \
truthful_coverage: true, collusion_bounded_by_transcript: true, recovery_sound: true, \
worst_leak_width: 0.0009128709303592997, collusion_worst_width: inf }";

#[test]
fn crash_cell_restarts_keep_the_per_run_memo_verdict() {
    let system = scenario_system(GeoAxis::Uniform, 1_200, 4, 7);
    let spec = ScenarioSpec::new(
        KAxis::Uniform,
        GeoAxis::Uniform,
        Adversary::Crash { peers: 1, round: 2 },
        60,
        0.0,
        7,
    );
    let cell = run_scenario_on(&system, &spec).expect("valid cell");
    assert!(cell.passed);
    assert_eq!(format!("{:?}", cell.verdict), CRASH_CELL_VERDICT);
}
