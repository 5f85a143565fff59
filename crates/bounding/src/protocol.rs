//! The progressive bounding engine (paper Algorithms 3–4).
//!
//! The host maintains a hypothesis bound `X`, initially a reference value
//! `X₀` (the host's own coordinate in the cloaking pipeline — the region must
//! cover the host anyway, so this reveals nothing extra). Each round the
//! bound grows by a policy-chosen increment and every still-disagreeing user
//! is asked to verify `ξ ≤ X`; a user answers only yes/no, never a value.
//! The round costs one fixed-size round-trip (`Cb`) per asked user. The
//! protocol ends when nobody disagrees.
//!
//! The engine is strategy-agnostic: secure bounding, the linear and
//! exponential baselines of §VI-D, and any user-supplied policy plug in via
//! [`IncrementPolicy`].

/// Chooses the bound increment for the next round.
pub trait IncrementPolicy {
    /// The (strictly positive) increment to add to the current bound.
    ///
    /// * `n_disagreeing` — number of users who rejected the previous bound
    ///   (all users before the first round),
    /// * `round` — 1-based round number about to execute,
    /// * `current_excess` — how far the bound has already traveled from X₀
    ///   (what the exponential baseline doubles).
    fn increment(&mut self, n_disagreeing: usize, round: usize, current_excess: f64) -> f64;
}

/// What one user's participation in a bounding run revealed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgreementRecord {
    /// Index into the input `values`.
    pub index: usize,
    /// Round at which the user first agreed (1-based).
    pub round: usize,
    /// The protocol transcript pins the user's value into `(lower, upper]`.
    /// For round-1 agreers `lower` is the public domain minimum — nothing
    /// tighter is learned about them.
    pub lower: f64,
    /// Upper end of the revealed interval (the bound the user accepted).
    pub upper: f64,
}

/// Outcome of one 1-D progressive bounding run.
#[derive(Debug, Clone)]
pub struct BoundingRun {
    /// The agreed bound: an upper bound of every input value.
    pub bound: f64,
    /// Number of hypothesis–verification rounds.
    pub rounds: usize,
    /// Total verification messages: Σ over rounds of the number of users
    /// asked that round (each costs `Cb`).
    pub messages: u64,
    /// Per-user agreement transcript (one record per input value), in input
    /// order.
    pub records: Vec<AgreementRecord>,
    /// The hypothesis bound broadcast each round: `bounds[r - 1]` is the
    /// `X` of round `r` (1-based). A peer that participated through round
    /// `r` has observed exactly the prefix `bounds[..r]` — this is the raw
    /// material of the collusion model in [`crate::privacy`].
    pub bounds: Vec<f64>,
}

impl BoundingRun {
    /// Slack between the agreed bound and the true maximum (≥ 0).
    pub fn slack(&self, values: &[f64]) -> f64 {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.bound - max
    }

    /// The bound and the cost, without the transcript.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            bound: self.bound,
            rounds: self.rounds,
            messages: self.messages,
        }
    }
}

/// What every run returns: the agreed bound and what reaching it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// The agreed bound: an upper bound of every input value.
    pub bound: f64,
    /// Number of hypothesis–verification rounds.
    pub rounds: usize,
    /// Total verification messages (see [`BoundingRun::messages`]).
    pub messages: u64,
}

impl From<BoundingRun> for RunSummary {
    fn from(run: BoundingRun) -> Self {
        run.summary()
    }
}

/// What a run revealed, kept only for a caller that asks for it: the
/// [`BoundingRun::records`] (in input order) and [`BoundingRun::bounds`]
/// that the leak and collusion reports read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transcript {
    /// One record per user that agreed, in input order once the run ends.
    pub records: Vec<AgreementRecord>,
    /// The hypothesis bound broadcast each round.
    pub bounds: Vec<f64>,
}

/// Hard cap on rounds; a policy producing vanishing increments is a bug and
/// is reported loudly instead of hanging.
const MAX_ROUNDS: usize = 100_000;

/// Transport carrying the per-round yes/no verification question to a user.
/// Implementations range from a local value array to `nela-netsim`'s
/// simulated radio network with loss and retries.
pub trait VerifyTransport {
    /// Number of participating users.
    fn len(&self) -> usize;
    /// True when no users participate.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Ask user `index` whether its private value is ≤ `bound`. `None` means
    /// the user is unreachable (crashed, messages lost beyond retry).
    fn verify(&mut self, index: usize, bound: f64) -> Option<bool>;
}

/// In-memory transport over a slice of values.
pub struct LocalValues<'a> {
    values: &'a [f64],
}

impl<'a> LocalValues<'a> {
    /// Wraps a value slice.
    pub fn new(values: &'a [f64]) -> Self {
        LocalValues { values }
    }
}

impl VerifyTransport for LocalValues<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn verify(&mut self, index: usize, bound: f64) -> Option<bool> {
        Some(self.values[index] <= bound)
    }
}

/// Typed failure of a bounding run. Clusters are caller-supplied (a
/// malformed one must degrade the single request, not abort the process), so
/// none of these conditions panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundingError {
    /// The cluster has no participants to bound.
    EmptyCluster,
    /// A participant stopped answering verifications (crashed, messages lost
    /// beyond retry). Carries the index into the input values.
    Unreachable {
        /// Index of the user that never answered.
        index: usize,
    },
    /// The increment policy produced a non-positive or non-finite step.
    InvalidIncrement {
        /// The offending increment.
        increment: f64,
        /// 1-based round at which it was produced.
        round: usize,
    },
    /// The run exceeded the internal round cap (a policy producing vanishing
    /// increments would otherwise hang the protocol).
    RoundLimitExceeded {
        /// The cap that was hit.
        rounds: usize,
    },
}

impl std::fmt::Display for BoundingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundingError::EmptyCluster => write!(f, "cannot bound an empty cluster"),
            BoundingError::Unreachable { index } => {
                write!(f, "bounding participant {index} is unreachable")
            }
            BoundingError::InvalidIncrement { increment, round } => {
                write!(
                    f,
                    "policy produced invalid increment {increment} at round {round}"
                )
            }
            BoundingError::RoundLimitExceeded { rounds } => {
                write!(f, "bounding did not terminate within {rounds} rounds")
            }
        }
    }
}

impl std::error::Error for BoundingError {}

/// Runs progressive upper bounding of `values` starting from `x0`.
///
/// `domain_min` is the public lower end of the value domain (used only for
/// the leak transcript of round-1 agreers). Values at or below `x0` are
/// covered by the first accepted bound like everyone else.
///
/// # Errors
/// [`BoundingError::EmptyCluster`] on empty input,
/// [`BoundingError::InvalidIncrement`]/[`BoundingError::RoundLimitExceeded`]
/// on a misbehaving policy. (Local values are always reachable.)
pub fn progressive_upper_bound(
    values: &[f64],
    x0: f64,
    domain_min: f64,
    policy: &mut dyn IncrementPolicy,
) -> Result<BoundingRun, BoundingError> {
    let mut transport = LocalValues::new(values);
    progressive_upper_bound_with(&mut transport, x0, domain_min, policy)
}

/// Transport-generic progressive upper bounding (Algorithms 3–4), with
/// its transcript.
///
/// # Errors
/// [`BoundingError`]: empty cluster, unreachable participant, or a policy
/// producing invalid/vanishing increments.
pub fn progressive_upper_bound_with(
    transport: &mut dyn VerifyTransport,
    x0: f64,
    domain_min: f64,
    policy: &mut dyn IncrementPolicy,
) -> Result<BoundingRun, BoundingError> {
    let mut transcript = Transcript {
        records: Vec::with_capacity(transport.len()),
        bounds: Vec::new(),
    };
    let run = progressive_bound(
        transport,
        x0,
        domain_min,
        policy,
        &mut Vec::new(),
        Some(&mut transcript),
    )?;
    Ok(BoundingRun {
        bound: run.bound,
        rounds: run.rounds,
        messages: run.messages,
        records: transcript.records,
        bounds: transcript.bounds,
    })
}

/// The bounding loop every entry point runs (Algorithms 3–4).
///
/// `disagreeing` is the loop's work list: whatever it holds is replaced, so
/// a caller that keeps one per thread bounds without allocating once it has
/// grown to the cluster size. `transcript`, when given, is emptied and then
/// filled with what the run revealed; without one the run builds no
/// per-user or per-round record. Either way the summary, or the error, is
/// the same.
///
/// # Errors
/// As [`progressive_upper_bound_with`].
pub fn progressive_bound(
    transport: &mut dyn VerifyTransport,
    x0: f64,
    domain_min: f64,
    policy: &mut dyn IncrementPolicy,
    disagreeing: &mut Vec<usize>,
    mut transcript: Option<&mut Transcript>,
) -> Result<RunSummary, BoundingError> {
    if transport.is_empty() {
        return Err(BoundingError::EmptyCluster);
    }
    disagreeing.clear();
    disagreeing.extend(0..transport.len());
    if let Some(t) = transcript.as_deref_mut() {
        t.records.clear();
        t.bounds.clear();
    }
    let mut x = x0;
    let mut rounds = 0usize;
    let mut messages = 0u64;

    while !disagreeing.is_empty() {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(BoundingError::RoundLimitExceeded { rounds: MAX_ROUNDS });
        }
        let inc = policy.increment(disagreeing.len(), rounds, x - x0);
        if !(inc.is_finite() && inc > 0.0) {
            return Err(BoundingError::InvalidIncrement {
                increment: inc,
                round: rounds,
            });
        }
        let prev = x;
        x += inc;
        if let Some(t) = transcript.as_deref_mut() {
            t.bounds.push(x);
        }
        messages += disagreeing.len() as u64;
        // Compact the still-disagreeing users to the front, in order.
        let mut still = 0;
        for j in 0..disagreeing.len() {
            let i = disagreeing[j];
            match transport.verify(i, x) {
                Some(true) => {
                    if let Some(t) = transcript.as_deref_mut() {
                        t.records.push(AgreementRecord {
                            index: i,
                            round: rounds,
                            lower: if rounds == 1 { domain_min } else { prev },
                            upper: x,
                        });
                    }
                }
                Some(false) => {
                    disagreeing[still] = i;
                    still += 1;
                }
                None => return Err(BoundingError::Unreachable { index: i }),
            }
        }
        disagreeing.truncate(still);
    }
    if let Some(t) = transcript {
        t.records.sort_by_key(|r| r.index);
    }
    Ok(RunSummary {
        bound: x,
        rounds,
        messages,
    })
}

/// Result of a crash-resilient bounding run: the final successful run plus
/// the peers dropped along the way.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The successful run over the surviving participants. Record indices
    /// refer to the **original** input indexing, so transcripts stay
    /// attributable after drops.
    pub run: BoundingRun,
    /// Original indices of participants dropped as unreachable, in drop
    /// order.
    pub dropped: Vec<usize>,
    /// Number of restarts performed (equals `dropped.len()`).
    pub restarts: usize,
    /// Verification messages across *all* attempts, including the aborted
    /// ones (`run.messages` only counts the final attempt).
    pub total_messages: u64,
}

/// Counts every verification question sent through the underlying
/// transport, across restarts.
struct CountingTransport<'a> {
    inner: &'a mut dyn VerifyTransport,
    asked: u64,
}

impl VerifyTransport for CountingTransport<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn verify(&mut self, index: usize, bound: f64) -> Option<bool> {
        self.asked += 1;
        self.inner.verify(index, bound)
    }
}

/// Presents the surviving subset of a transport under dense indices
/// `0..map.len()`, translating back to original indices on every question.
struct SurvivorView<'a, 'b> {
    inner: &'a mut CountingTransport<'b>,
    map: &'a [usize],
}

impl VerifyTransport for SurvivorView<'_, '_> {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn verify(&mut self, index: usize, bound: f64) -> Option<bool> {
        self.inner.verify(self.map[index], bound)
    }
}

/// Crash-resilient progressive bounding: whenever a participant becomes
/// unreachable mid-run, it is dropped and the protocol **restarts over the
/// survivors** (with a fresh clone of `policy`) instead of aborting the
/// whole request. The returned bound covers every survivor; the dropped
/// peers are reported so the caller can decide whether the shrunken
/// cluster still meets its anonymity requirement.
///
/// # Errors
/// [`BoundingError::EmptyCluster`] when the input is empty or every
/// participant crashed; policy errors ([`BoundingError::InvalidIncrement`],
/// [`BoundingError::RoundLimitExceeded`]) propagate unchanged. Never
/// returns [`BoundingError::Unreachable`] and never panics.
pub fn progressive_upper_bound_resilient<P: IncrementPolicy + Clone>(
    transport: &mut dyn VerifyTransport,
    x0: f64,
    domain_min: f64,
    policy: &P,
) -> Result<ResilientOutcome, BoundingError> {
    let mut alive: Vec<usize> = (0..transport.len()).collect();
    let mut dropped: Vec<usize> = Vec::new();
    let mut counting = CountingTransport {
        inner: transport,
        asked: 0,
    };
    loop {
        if alive.is_empty() {
            return Err(BoundingError::EmptyCluster);
        }
        let mut view = SurvivorView {
            inner: &mut counting,
            map: &alive,
        };
        let mut attempt = policy.clone();
        match progressive_upper_bound_with(&mut view, x0, domain_min, &mut attempt) {
            Ok(mut run) => {
                for r in &mut run.records {
                    r.index = alive[r.index];
                }
                // Final-attempt message count reflects the survivor run;
                // re-sorting keeps the in-input-order record contract.
                run.records.sort_by_key(|r| r.index);
                let restarts = dropped.len();
                return Ok(ResilientOutcome {
                    run,
                    dropped,
                    restarts,
                    total_messages: counting.asked,
                });
            }
            Err(BoundingError::Unreachable { index }) => {
                let original = alive.remove(index);
                dropped.push(original);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-step policy for tests.
    #[derive(Clone)]
    struct Step(f64);
    impl IncrementPolicy for Step {
        fn increment(&mut self, _n: usize, _round: usize, _excess: f64) -> f64 {
            self.0
        }
    }

    #[test]
    fn bound_covers_all_values() {
        let values = [0.31, 0.12, 0.48, 0.05];
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.1)).unwrap();
        assert!(run.bound >= 0.48);
        assert_eq!(run.records.len(), 4);
    }

    #[test]
    fn rounds_and_messages_accounting() {
        // Values 0.05, 0.15, 0.25 with step 0.1 from 0:
        // round 1 (X=0.1): 3 asked, one agrees; round 2 (X=0.2): 2 asked,
        // one agrees; round 3 (X=0.3): 1 asked, agrees. 3+2+1 = 6 messages.
        let values = [0.05, 0.15, 0.25];
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.1)).unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(run.messages, 6);
        assert!((run.bound - 0.3).abs() < 1e-12);
    }

    #[test]
    fn transcript_intervals_contain_true_values() {
        let values = [0.07, 0.33, 0.18, 0.0, 0.51];
        let run = progressive_upper_bound(&values, 0.0, -1.0, &mut Step(0.08)).unwrap();
        for r in &run.records {
            let v = values[r.index];
            assert!(
                v > r.lower || (r.round == 1 && v >= r.lower),
                "{r:?} vs {v}"
            );
            assert!(v <= r.upper, "{r:?} vs {v}");
        }
    }

    #[test]
    fn round1_agreers_leak_only_domain_floor() {
        let values = [0.01, 0.9];
        let run = progressive_upper_bound(&values, 0.0, -2.5, &mut Step(0.5)).unwrap();
        let r0 = run.records.iter().find(|r| r.index == 0).unwrap();
        assert_eq!(r0.round, 1);
        assert_eq!(r0.lower, -2.5);
    }

    #[test]
    fn values_below_x0_agree_in_round_one() {
        let values = [-0.3, 0.2];
        let run = progressive_upper_bound(&values, 0.0, -1.0, &mut Step(0.25)).unwrap();
        let r0 = run.records.iter().find(|r| r.index == 0).unwrap();
        assert_eq!(r0.round, 1);
    }

    #[test]
    fn slack_is_nonnegative() {
        let values = [0.2, 0.6];
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.07)).unwrap();
        assert!(run.slack(&values) >= 0.0);
        assert!(run.slack(&values) < 0.07 + 1e-12);
    }

    #[test]
    fn zero_increment_is_a_typed_error() {
        let err = progressive_upper_bound(&[0.5], 0.0, 0.0, &mut Step(0.0)).unwrap_err();
        assert_eq!(
            err,
            BoundingError::InvalidIncrement {
                increment: 0.0,
                round: 1
            }
        );
    }

    #[test]
    fn empty_values_are_a_typed_error() {
        let err = progressive_upper_bound(&[], 0.0, 0.0, &mut Step(0.1)).unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    #[test]
    fn vanishing_policy_hits_round_cap_as_error() {
        /// Returns a finite positive increment too small to ever cover the
        /// gap, so the run must trip the round cap instead of hanging.
        struct Vanishing;
        impl IncrementPolicy for Vanishing {
            fn increment(&mut self, _n: usize, _round: usize, _excess: f64) -> f64 {
                1e-12
            }
        }
        let err = progressive_upper_bound(&[1.0], 0.0, 0.0, &mut Vanishing).unwrap_err();
        assert!(matches!(err, BoundingError::RoundLimitExceeded { .. }));
    }

    #[test]
    fn single_round_when_step_covers_everything() {
        let values = [0.1, 0.2, 0.3];
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(1.0)).unwrap();
        assert_eq!(run.rounds, 1);
        assert_eq!(run.messages, 3);
    }

    #[test]
    fn bounds_trace_one_hypothesis_per_round() {
        let values = [0.05, 0.15, 0.25];
        let run = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.1)).unwrap();
        assert_eq!(run.bounds.len(), run.rounds);
        assert!(run.bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*run.bounds.last().unwrap(), run.bound);
        // Every record's upper is the broadcast bound of its round.
        for r in &run.records {
            assert_eq!(r.upper, run.bounds[r.round - 1]);
        }
    }

    #[test]
    fn resilient_run_without_crashes_matches_plain_run() {
        let values = [0.31, 0.12, 0.48, 0.05];
        let plain = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.1)).unwrap();
        let mut transport = LocalValues::new(&values);
        let out = progressive_upper_bound_resilient(&mut transport, 0.0, 0.0, &Step(0.1)).unwrap();
        assert!(out.dropped.is_empty());
        assert_eq!(out.restarts, 0);
        assert_eq!(out.run.bound, plain.bound);
        assert_eq!(out.run.records, plain.records);
        assert_eq!(out.total_messages, plain.messages);
    }

    #[test]
    fn resilient_drops_crasher_and_rebounds_survivors() {
        use crate::adversary::CrashingValues;
        let values = [0.05, 0.95, 0.15];
        // Index 1 (the largest value) crashes at round 2: the re-run covers
        // the two survivors only.
        let mut transport = CrashingValues::new(&values, &[1], 2);
        let out = progressive_upper_bound_resilient(&mut transport, 0.0, 0.0, &Step(0.1)).unwrap();
        assert_eq!(out.dropped, vec![1]);
        assert_eq!(out.restarts, 1);
        assert_eq!(out.run.records.len(), 2);
        assert!(out.run.bound >= 0.15 && out.run.bound < 0.95);
        assert!(
            out.total_messages > out.run.messages,
            "aborted attempt messages are accounted"
        );
        // Records carry original indices.
        let idx: Vec<usize> = out.run.records.iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn resilient_all_crashed_is_typed_empty_cluster() {
        use crate::adversary::CrashingValues;
        let values = [0.3, 0.6];
        let mut transport = CrashingValues::new(&values, &[0, 1], 1);
        let err =
            progressive_upper_bound_resilient(&mut transport, 0.0, 0.0, &Step(0.1)).unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    /// Satellite: a peer going `Unreachable` at *every* round index `r` of
    /// a run either yields a successful re-run over the survivors or a
    /// typed `BoundingError` — never a panic, never a silently-wrong box.
    #[test]
    fn crash_at_every_round_recovers_or_errors_typed() {
        use crate::adversary::CrashingValues;
        let values = [0.07, 0.33, 0.18, 0.02, 0.51, 0.44];
        let honest = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.05)).unwrap();
        // One past the honest round count: the crash never fires there and
        // the run must complete with nobody dropped.
        for r in 1..=honest.rounds + 1 {
            for crasher in 0..values.len() {
                let crashers = [crasher];
                let mut transport = CrashingValues::new(&values, &crashers, r);
                let out = progressive_upper_bound_resilient(&mut transport, 0.0, 0.0, &Step(0.05))
                    .unwrap_or_else(|e| panic!("crash@{r} of {crasher}: unexpected {e}"));
                if out.dropped.is_empty() {
                    // Crasher agreed before round r: full honest outcome.
                    assert_eq!(out.run.bound, honest.bound, "crash@{r} of {crasher}");
                    assert_eq!(out.run.records.len(), values.len());
                } else {
                    assert_eq!(out.dropped, vec![crasher], "crash@{r}");
                    assert_eq!(out.run.records.len(), values.len() - 1);
                    // The survivor bound covers every survivor value.
                    for (i, &v) in values.iter().enumerate() {
                        if i != crasher {
                            assert!(out.run.bound >= v, "crash@{r}: {v} uncovered");
                        }
                    }
                }
            }
        }
    }

    /// The non-resilient entry point stays typed (no panic) for the same
    /// exhaustive crash sweep.
    #[test]
    fn plain_run_crash_at_every_round_is_typed_unreachable() {
        use crate::adversary::CrashingValues;
        let values = [0.07, 0.33, 0.18, 0.02, 0.51];
        let honest = progressive_upper_bound(&values, 0.0, 0.0, &mut Step(0.05)).unwrap();
        for r in 1..=honest.rounds {
            for crasher in 0..values.len() {
                let crashers = [crasher];
                let mut transport = CrashingValues::new(&values, &crashers, r);
                match progressive_upper_bound_with(&mut transport, 0.0, 0.0, &mut Step(0.05)) {
                    Ok(run) => assert_eq!(run.bound, honest.bound),
                    Err(e) => assert_eq!(e, BoundingError::Unreachable { index: crasher }),
                }
            }
        }
    }
}
