//! Property-based tests for the bounding protocols and optimizers.

use nela_bounding::adversary::{CrashingValues, LieMode, LyingValues};
use nela_bounding::baselines::{ExponentialPolicy, LinearPolicy};
use nela_bounding::cost::{AreaCost, LengthCost, RequestCost};
use nela_bounding::distribution::{ExcessDistribution, Exponential, Uniform};
use nela_bounding::nbound::{n_bounding_increment, IncrementTable, SecurePolicy};
use nela_bounding::protocol::{
    progressive_bound, progressive_upper_bound, progressive_upper_bound_with, AgreementRecord,
    IncrementPolicy, LocalValues, Transcript, VerifyTransport,
};
use nela_bounding::unary::{unary_exponential_length, unary_optimal};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exponential_unary_newton_is_stationary(
        cb in 0.1f64..5.0,
        cr in 0.5f64..500.0,
        lambda in 0.1f64..50.0,
    ) {
        let o = unary_exponential_length(cb, cr, lambda);
        let lhs = (lambda * o.x).exp();
        let rhs = 1.0 + lambda * cb / cr + lambda * o.x;
        prop_assert!((lhs - rhs).abs() / rhs < 1e-6, "lhs {lhs} rhs {rhs}");
        prop_assert!(o.x > 0.0 && o.cost >= cb);
    }

    #[test]
    fn exponential_numeric_optimum_beats_perturbations(
        cb in 0.1f64..5.0,
        cr in 0.5f64..100.0,
        lambda in 0.2f64..20.0,
    ) {
        let dist = Exponential::new(lambda);
        let cost = LengthCost { cr };
        let o = unary_optimal(&dist, &cost, cb);
        let c = |x: f64| (cb + cost.r(x)) / dist.cdf(x).max(1e-300);
        for factor in [0.8, 0.9, 1.1, 1.25] {
            let x = (o.x * factor).min(dist.effective_span());
            prop_assert!(o.cost <= c(x) + 1e-6 * o.cost, "{} beaten at ×{factor}", o.cost);
        }
    }

    #[test]
    fn increments_are_positive_and_capped(
        n in 1usize..40,
        span in 1e-4f64..1.0,
        cr in 1.0f64..1e8,
    ) {
        let dist = Uniform::new(span);
        let cost = AreaCost { cr };
        let x = n_bounding_increment(n, &dist, &cost, 1.0);
        prop_assert!(x > 0.0);
        prop_assert!(x <= span * (1.0 + 1e-9));
    }

    #[test]
    fn all_policies_cover_and_terminate(
        values in proptest::collection::vec(0.0f64..0.2, 1..25),
        span in 1e-3f64..0.1,
    ) {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let table = IncrementTable::new(AreaCost { cr: 1e6 }, 1.0);
        let mut policies: Vec<Box<dyn nela_bounding::protocol::IncrementPolicy>> = vec![
            Box::new(LinearPolicy::new(span / 4.0)),
            Box::new(ExponentialPolicy::new(span)),
            Box::new(SecurePolicy::new(&table, Uniform::new(span))),
        ];
        for p in policies.iter_mut() {
            let run = progressive_upper_bound(&values, 0.0, 0.0, p.as_mut()).unwrap();
            prop_assert!(run.bound >= max);
            prop_assert!(run.rounds >= 1);
            prop_assert_eq!(run.records.len(), values.len());
        }
    }

    #[test]
    fn messages_equal_sum_of_round_participants(
        values in proptest::collection::vec(0.0f64..0.3, 1..30),
        step in 0.005f64..0.1,
    ) {
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut LinearPolicy::new(step)).unwrap();
        // Each user is asked once per round from round 1 through the round it
        // agreed in: total messages = Σ_user round(user).
        let expected: u64 = run.records.iter().map(|r| r.round as u64).sum();
        prop_assert_eq!(run.messages, expected);
    }

    #[test]
    fn widened_distributions_stretch_consistently(
        span in 1e-3f64..1.0,
        rate in 0.1f64..50.0,
        factor in 1.0f64..16.0,
    ) {
        let u = Uniform::new(span).widened(factor);
        prop_assert!((u.span - span * factor).abs() < 1e-12);
        let e = Exponential::new(rate).widened(factor);
        // Widening divides the rate → multiplies the mean.
        prop_assert!((e.rate - rate / factor).abs() < 1e-12);
        // CDF mass moves right: at any x, the widened CDF is ≤ the original.
        for x in [span * 0.5, span, span * 2.0] {
            prop_assert!(e.cdf(x) <= Exponential::new(rate).cdf(x) + 1e-12);
            prop_assert!(u.cdf(x) <= Uniform::new(span).cdf(x) + 1e-12);
        }
    }
}

/// The three increment policies the engine serves with, fresh for one run.
fn policies(table: &IncrementTable, span: f64) -> Vec<Box<dyn IncrementPolicy + '_>> {
    vec![
        Box::new(SecurePolicy::new(table, Uniform::new(span))),
        Box::new(LinearPolicy::new(span / 4.0)),
        Box::new(ExponentialPolicy::new(span)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A run without a transcript agrees with the run that keeps one: the
    /// same bound bits, rounds and messages, or the same error, under every
    /// policy, over honest, crashing and lying peers. A transcript asked of
    /// the one loop, into dirty buffers, equals the one the transcript
    /// entry point returns.
    #[test]
    fn a_run_without_a_transcript_matches_the_run_with_one(
        values in proptest::collection::vec(-0.2f64..0.3, 0..25),
        x0 in -0.1f64..0.1,
        span in 1e-3f64..0.1,
        adversary in 0usize..3,
        role in 0usize..25,
        crash_round in 1usize..6,
    ) {
        let roles = [role];
        let transport = || -> Box<dyn VerifyTransport + '_> {
            match adversary {
                0 => Box::new(LocalValues::new(&values)),
                1 => Box::new(CrashingValues::new(&values, &roles, crash_round)),
                _ => Box::new(LyingValues::new(&values, &roles, LieMode::AgreeEarly)),
            }
        };
        let table = IncrementTable::new(AreaCost { cr: 1e6 }, 1.0);
        for i in 0..3 {
            let kept = progressive_upper_bound_with(
                transport().as_mut(),
                x0,
                -1.0,
                policies(&table, span)[i].as_mut(),
            );
            let mut disagreeing = vec![7; 3];
            let bare = progressive_bound(
                transport().as_mut(),
                x0,
                -1.0,
                policies(&table, span)[i].as_mut(),
                &mut disagreeing,
                None,
            );
            let mut transcript = Transcript {
                records: vec![AgreementRecord { index: 99, round: 1, lower: 0.0, upper: 0.0 }],
                bounds: vec![9.0],
            };
            let asked = progressive_bound(
                transport().as_mut(),
                x0,
                -1.0,
                policies(&table, span)[i].as_mut(),
                &mut disagreeing,
                Some(&mut transcript),
            );
            match kept {
                Ok(run) => {
                    let bare = bare.expect("the bare run fails where the kept one did not");
                    prop_assert_eq!(bare.bound.to_bits(), run.bound.to_bits());
                    prop_assert_eq!(bare.rounds, run.rounds);
                    prop_assert_eq!(bare.messages, run.messages);
                    prop_assert_eq!(asked, Ok(bare));
                    prop_assert_eq!(&transcript.records, &run.records);
                    prop_assert_eq!(&transcript.bounds, &run.bounds);
                    // The transcript itself: records in input order, each
                    // accepting its round's broadcast bound.
                    prop_assert!(run.records.windows(2).all(|p| p[0].index < p[1].index));
                    prop_assert!(run.records.iter().all(|r| r.upper == run.bounds[r.round - 1]));
                }
                Err(e) => {
                    prop_assert_eq!(bare, Err(e));
                    prop_assert_eq!(asked, Err(e));
                }
            }
        }
    }
}
