//! Privacy property suite: collusion monotonicity, exposure-threshold
//! monotonicity, and the personalized-k ≡ uniform-k differential.
//!
//! These pin the adversary-model contracts the scenario matrix relies on:
//!
//! - growing a coalition of colluding peers never *widens* the interval it
//!   pins a victim into (knowledge pooling is monotone), and the victim's
//!   true value always stays inside the pooled interval;
//! - exposure counts are monotone in the reporting threshold;
//! - a personalized-k run where every user carries the same `k_i` is
//!   bit-identical to the uniform-k run — same clusters, same regions,
//!   same digests — all the way through the concurrent `EngineSession`.

use nela::bounding::{
    collusion_exposed_interval, collusion_leak_report, leak_report, progressive_upper_bound,
    LinearPolicy,
};
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use proptest::prelude::*;

const EPS: f64 = 1e-12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-victim collusion monotonicity: for any coalition C ⊆ C', the
    /// interval C' pins a victim into is nested inside C's interval, and
    /// the victim's true value lies in both.
    #[test]
    fn growing_a_coalition_never_widens_a_victim_interval(
        values in collection::vec(0.0f64..1.0, 3..24),
        m1 in collection::vec(0u32..2, 24..25),
        m2 in collection::vec(0u32..2, 24..25),
        step in 0.005f64..0.2,
    ) {
        let n = values.len();
        let small: Vec<usize> = (0..n).filter(|&i| m1[i] == 1).collect();
        let big: Vec<usize> = (0..n).filter(|&i| m1[i] == 1 || m2[i] == 1).collect();
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut LinearPolicy::new(step))
            .expect("honest run succeeds");
        for (v, &value) in values.iter().enumerate() {
            if big.contains(&v) {
                continue;
            }
            let (lo_s, hi_s) = collusion_exposed_interval(&run, &small, v)
                .expect("victim is in the transcript");
            let (lo_b, hi_b) = collusion_exposed_interval(&run, &big, v)
                .expect("victim is in the transcript");
            prop_assert!(
                lo_b >= lo_s - EPS && hi_b <= hi_s + EPS,
                "superset coalition widened victim {v}: ({lo_s}, {hi_s}] -> ({lo_b}, {hi_b}]"
            );
            prop_assert!(
                value <= hi_b + EPS,
                "victim {v} value {value} escaped pooled interval ({lo_b}, {hi_b}]"
            );
            if lo_b.is_finite() {
                prop_assert!(
                    value > lo_b - EPS,
                    "victim {v} value {value} below pooled interval ({lo_b}, {hi_b}]"
                );
            }
        }
    }

    /// The aggregate report's worst width never falls below the narrowest
    /// individual transcript interval — collusion pools knowledge but
    /// cannot mint new precision.
    #[test]
    fn coalition_worst_width_is_transcript_bounded(
        values in collection::vec(0.0f64..1.0, 3..24),
        mask in collection::vec(0u32..2, 24..25),
        step in 0.005f64..0.2,
    ) {
        let n = values.len();
        let coalition: Vec<usize> = (0..n).filter(|&i| mask[i] == 1).collect();
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut LinearPolicy::new(step))
            .expect("honest run succeeds");
        let lr = leak_report(&run, 0.0);
        let cr = collusion_leak_report(&run, &coalition, 0.0);
        prop_assert!(
            cr.worst_width >= lr.min_width - EPS,
            "coalition width {} beat transcript floor {}",
            cr.worst_width,
            lr.min_width
        );
    }

    /// Exposure counts are monotone in the threshold, for both the
    /// per-user and the coalition report.
    #[test]
    fn exposure_counts_are_monotone_in_threshold(
        values in collection::vec(0.0f64..1.0, 2..24),
        mask in collection::vec(0u32..2, 24..25),
        step in 0.005f64..0.2,
        t1 in 0.0f64..0.6,
        t2 in 0.0f64..0.6,
    ) {
        let n = values.len();
        let (lo_t, hi_t) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let coalition: Vec<usize> = (0..n).filter(|&i| mask[i] == 1).collect();
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut LinearPolicy::new(step))
            .expect("honest run succeeds");
        prop_assert!(
            leak_report(&run, lo_t).exposed_below_threshold
                <= leak_report(&run, hi_t).exposed_below_threshold
        );
        prop_assert!(
            collusion_leak_report(&run, &coalition, lo_t).exposed_below_threshold
                <= collusion_leak_report(&run, &coalition, hi_t).exposed_below_threshold
        );
    }
}

/// FNV-1a over the bit patterns of a served workload, so "bit-identical"
/// is checked as a single number per run.
fn digest(results: &[Option<nela::CloakingResult>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for r in results {
        match r {
            None => mix(u64::MAX),
            Some(r) => {
                mix(r.host as u64);
                mix(r.region.min_x.to_bits());
                mix(r.region.min_y.to_bits());
                mix(r.region.max_x.to_bits());
                mix(r.region.max_y.to_bits());
                mix(r.cluster_size as u64);
                mix(r.required_k as u64);
                mix(r.reused as u64);
            }
        }
    }
    h
}

/// Runs a fixed workload through a concurrent `EngineSession` (single
/// caller, so the serial determinism contract applies) and returns the
/// per-request results.
fn session_workload(
    system: &System,
    k_of: Option<Vec<usize>>,
) -> Vec<Option<nela::CloakingResult>> {
    let mut engine = CloakingEngine::new(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    if let Some(k_of) = k_of {
        engine = engine.with_personalized_k(k_of).unwrap();
    }
    let session = engine.into_session(2);
    let results = system
        .host_sequence(50, 23)
        .into_iter()
        .map(|h| session.request(h).ok())
        .collect();
    session.finish();
    results
}

/// A personalized-k engine where every user carries the same `k_i` must be
/// bit-identical to the uniform-k engine: same serve/degrade pattern, same
/// regions, same required_k, same digest — through the full concurrent
/// session path.
#[test]
fn personalized_all_equal_is_bit_identical_to_uniform_through_session() {
    for seed in [1u64, 9, 77] {
        let params = Params {
            k: 6,
            seed,
            ..Params::scaled(2_000)
        };
        let system = System::build(&params);
        let uniform = session_workload(&system, None);
        let personalized = session_workload(&system, Some(vec![params.k; 2_000]));
        assert_eq!(
            uniform.len(),
            personalized.len(),
            "workload lengths diverged at seed {seed}"
        );
        for (i, (u, p)) in uniform.iter().zip(&personalized).enumerate() {
            match (u, p) {
                (None, None) => {}
                (Some(u), Some(p)) => {
                    assert_eq!(
                        u.region, p.region,
                        "region diverged at request {i}, seed {seed}"
                    );
                    assert_eq!(
                        u.cluster_size, p.cluster_size,
                        "cluster size diverged at {i}"
                    );
                    assert_eq!(u.required_k, p.required_k, "required_k diverged at {i}");
                    assert_eq!(u.reused, p.reused, "reuse flag diverged at {i}");
                }
                _ => panic!("serve/degrade pattern diverged at request {i}, seed {seed}"),
            }
        }
        assert_eq!(
            digest(&uniform),
            digest(&personalized),
            "digest diverged at seed {seed}"
        );
    }
}

/// Personalized levels genuinely above the uniform k must produce clusters
/// that are audited against the strict member — required_k of a served
/// request is at least the host's own level.
#[test]
fn personalized_required_k_reflects_the_strict_member() {
    let params = Params {
        k: 4,
        seed: 3,
        ..Params::scaled(2_000)
    };
    let system = System::build(&params);
    let levels = nela::personalized_k_levels(2_000, params.k, 5);
    let engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    )
    .with_personalized_k(levels.clone())
    .unwrap();
    let session = engine.into_session(2);
    let mut served = 0;
    let mut strict_served = 0;
    for h in system.host_sequence(60, 29) {
        if let Ok(r) = session.request(h) {
            served += 1;
            assert!(
                r.required_k >= levels[h as usize],
                "host {h} (k_i = {}) served with required_k {}",
                levels[h as usize],
                r.required_k
            );
            assert!(r.cluster_size >= r.required_k);
            strict_served += usize::from(levels[h as usize] > params.k);
        }
    }
    session.finish();
    assert!(served > 0, "no request served");
    assert!(
        strict_served > 0,
        "workload never exercised a stricter-than-default host"
    );
}
