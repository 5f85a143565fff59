//! Adversary & heterogeneity scenario matrix with machine-checked privacy
//! verdicts.
//!
//! The paper's evaluation assumes a uniform anonymity level `k` and
//! semi-honest peers. This module stress-tests the pipeline outside those
//! assumptions along three axes:
//!
//! - **k heterogeneity** — every user shares `Params::k`, or each carries a
//!   personalized `k_i` ([`personalized_k_levels`]) and clusters must honor
//!   the strictest member.
//! - **adversary** — honest peers, a coalition of `c` semi-honest colluders
//!   pooling bounding transcripts, `l` actively lying peers (agree-early),
//!   or peers that crash mid-bounding at a chosen round.
//! - **geography** — a uniform population, or the extreme rush-hour skew of
//!   [`SpatialDistribution::rush_hour`].
//!
//! Each cell serves its requests through one [`CloakingEngine`] — the
//! library's one request loop (distributed clustering with the registry's
//! cluster-isolation bookkeeping, then secure bounding assembled by
//! [`bounding_box`]) — over an engine transport whose phase 2 runs under
//! the cell's adversary. Every request folds into a
//! [`PrivacyVerdict`]: k-anonymity audited against ground truth, transcript
//! leak widths against a floor, coalition knowledge against the
//! per-transcript bound, and crash recovery against the typed-degrade
//! contract. [`CellOutcome::passed`] applies the expectation appropriate to
//! the cell's adversary — a lying peer is *allowed* to shrink the box out
//! from under itself, but truthful members must stay covered; a crash must
//! end in a served-and-audited region over the survivors or a typed
//! degrade, never a panic or a silently wrong box.

use crate::engine::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Transport};
use crate::params::Params;
use crate::system::System;
use crate::verify::audit_result;
use nela_bounding::{
    bounding_box, collusion_leak_report, leak_report, progressive_upper_bound_resilient,
    progressive_upper_bound_with, BboxOutcome, BoundingError, CrashingValues, IncrementPolicy,
    LieMode, LocalValues, LyingValues,
};
use nela_cluster::KPolicy;
use nela_geo::{Point, Rect, SpatialDistribution, UserId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Anonymity-requirement axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KAxis {
    /// Every user requires the global `Params::k` (the paper's setting).
    Uniform,
    /// Each user carries its own `k_i` from [`personalized_k_levels`].
    Personalized,
}

/// Geography axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GeoAxis {
    /// Independent uniform positions.
    Uniform,
    /// Extreme skew: dense downtown hotspots over a sparse background.
    RushHour,
}

/// Adversary axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Adversary {
    /// Semi-honest peers, no collusion — the paper's threat model.
    Honest,
    /// `c` semi-honest peers per cluster pool their bounding transcripts
    /// after the fact (they still answer honestly).
    Colluders { c: usize },
    /// `l` peers per cluster answer "yes" to every verification, agreeing
    /// before their true value is covered.
    Liars { l: usize },
    /// `peers` peers per cluster stop answering from bounding round
    /// `round` on; the protocol must recover over the survivors or degrade
    /// with a typed error.
    Crash { peers: usize, round: usize },
}

/// One cell of the matrix: the axes plus workload knobs.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSpec {
    /// Human-readable cell label (stable across runs).
    pub name: String,
    /// Anonymity-requirement axis.
    pub k_axis: KAxis,
    /// Geography axis.
    pub geo: GeoAxis,
    /// Adversary axis.
    pub adversary: Adversary,
    /// Number of host requests to drive through the cell.
    pub requests: usize,
    /// Minimum tolerated transcript interval width: any party pinning any
    /// user into an interval of width ≤ this floor fails the cell. `0.0`
    /// asserts "no exact coordinate disclosure, ever".
    pub leak_floor: f64,
    /// Seed for host selection, personalized levels, and role assignment.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Builds a spec with a derived stable name.
    pub fn new(
        k_axis: KAxis,
        geo: GeoAxis,
        adversary: Adversary,
        requests: usize,
        leak_floor: f64,
        seed: u64,
    ) -> ScenarioSpec {
        let k_label = match k_axis {
            KAxis::Uniform => "uniform-k".to_string(),
            KAxis::Personalized => "personalized-k".to_string(),
        };
        let geo_label = match geo {
            GeoAxis::Uniform => "uniform-geo",
            GeoAxis::RushHour => "rush-hour",
        };
        let adv_label = match adversary {
            Adversary::Honest => "honest".to_string(),
            Adversary::Colluders { c } => format!("colluders-{c}"),
            Adversary::Liars { l } => format!("liars-{l}"),
            Adversary::Crash { peers, round } => format!("crash-{peers}@r{round}"),
        };
        ScenarioSpec {
            name: format!("{geo_label}/{k_label}/{adv_label}"),
            k_axis,
            geo,
            adversary,
            requests,
            leak_floor,
            seed,
        }
    }
}

/// Machine-checked privacy assertions aggregated over every request of a
/// cell. Booleans start `true` and latch `false` on the first violation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PrivacyVerdict {
    /// Requests driven through the cell.
    pub requests: usize,
    /// Requests that ended with a cloaked region (includes reuses).
    pub served: usize,
    /// Served requests answered from a previously bounded cluster region.
    pub reused: usize,
    /// Requests that degraded with a typed error (component too small,
    /// bounding failure, or crash recovery below the anonymity level).
    pub degraded: usize,
    /// Every served region contained at least the request's `required_k`
    /// ground-truth users and lay inside the service domain.
    pub k_anonymity_held: bool,
    /// Bounding transcripts named only cluster members — nobody outside
    /// the cluster ever answered (or was asked) a verification.
    pub no_non_member_exposure: bool,
    /// No per-user transcript interval was as narrow as the leak floor.
    pub leak_floor_held: bool,
    /// Every truthful, non-crashed member's true position lay inside the
    /// served region (liars may talk themselves out of coverage; that is
    /// their own loss, not a protocol failure).
    pub truthful_coverage: bool,
    /// No coalition pinned a victim tighter than the narrowest individual
    /// transcript interval of the same run — collusion pools knowledge but
    /// cannot mint new precision.
    pub collusion_bounded_by_transcript: bool,
    /// Crash recovery never surfaced a raw `Unreachable` and only served
    /// when the survivors still met the anonymity requirement.
    pub recovery_sound: bool,
    /// Narrowest finite per-user transcript interval seen anywhere in the
    /// cell (the cell's worst single-party leak; `INFINITY` if none).
    pub worst_leak_width: f64,
    /// Narrowest finite coalition interval over any victim (`INFINITY`
    /// when the cell has no colluders or no finite coalition interval).
    pub collusion_worst_width: f64,
}

impl PrivacyVerdict {
    fn fresh(requests: usize) -> PrivacyVerdict {
        PrivacyVerdict {
            requests,
            served: 0,
            reused: 0,
            degraded: 0,
            k_anonymity_held: true,
            no_non_member_exposure: true,
            leak_floor_held: true,
            truthful_coverage: true,
            collusion_bounded_by_transcript: true,
            recovery_sound: true,
            worst_leak_width: f64::INFINITY,
            collusion_worst_width: f64::INFINITY,
        }
    }
}

/// A finished cell: its spec, verdict, and the expectation-aware pass/fail.
#[derive(Debug, Clone, Serialize)]
pub struct CellOutcome {
    /// The cell that ran.
    pub spec: ScenarioSpec,
    /// Aggregated machine-checked assertions.
    pub verdict: PrivacyVerdict,
    /// Whether the verdict meets the expectation for the cell's adversary.
    pub passed: bool,
}

/// The pass criteria appropriate to each adversary. Every cell must serve
/// at least one request, never leak to a non-member, and keep typed-degrade
/// discipline; what else is *expected to survive* depends on who attacks:
/// liars are allowed to break their own k-anonymity (the box shrinks around
/// the truthful members), crashes are allowed to degrade requests, but
/// colluders must never beat the transcript bound and honest cells must be
/// clean on every axis.
fn expectation_met(adversary: Adversary, v: &PrivacyVerdict) -> bool {
    let base = v.served > 0 && v.no_non_member_exposure;
    match adversary {
        Adversary::Honest => base && v.k_anonymity_held && v.leak_floor_held && v.truthful_coverage,
        Adversary::Colluders { .. } => {
            base && v.k_anonymity_held && v.leak_floor_held && v.collusion_bounded_by_transcript
        }
        Adversary::Liars { .. } => base && v.truthful_coverage && v.leak_floor_held,
        Adversary::Crash { .. } => base && v.k_anonymity_held && v.recovery_sound,
    }
}

/// Personalized anonymity levels: a seeded three-tier mix around `base_k`
/// (roughly 60% at `base_k`, 25% at `⌈1.5·base_k⌉`, 15% at `2·base_k`),
/// modeling a population where most users accept the default and a privacy-
/// conscious minority demands more.
pub fn personalized_k_levels(n: usize, base_k: usize, seed: u64) -> Vec<usize> {
    let base_k = base_k.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4b4c_4556); // "KLEV"
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.60 {
                base_k
            } else if r < 0.85 {
                (base_k * 3).div_ceil(2)
            } else {
                base_k * 2
            }
        })
        .collect()
}

/// Builds the system for one geography cell (same density scaling as
/// [`Params::scaled`], distribution swapped per the axis).
pub fn scenario_system(geo: GeoAxis, n_users: usize, k: usize, seed: u64) -> System {
    let mut p = Params::scaled(n_users);
    p.k = k;
    p.seed = seed;
    p.distribution = match geo {
        GeoAxis::Uniform => SpatialDistribution::Uniform,
        GeoAxis::RushHour => SpatialDistribution::rush_hour(),
    };
    // `Params::scaled` sizes δ for the clustered California-like density; a
    // uniform population of the same size would be nearly edgeless under
    // it. Size δ so the expected number of in-range peers reaches the 2k
    // personalized tier with headroom (rush-hour cores are far denser —
    // there the interesting failure mode is the sparse periphery).
    let target_peers = (2 * k).max(8) as f64;
    p.delta = (target_peers / (n_users as f64 * std::f64::consts::PI)).sqrt();
    System::build(&p)
}

/// Runs one cell against a pre-built system (build it once per geography
/// with [`scenario_system`] and share it across the cells of that column).
///
/// # Errors
/// Rejects a system built with `k = 0`, a crash round of 0 (rounds are
/// 1-based) and a negative or NaN leak floor before any request runs.
pub fn run_scenario_on(
    system: &System,
    spec: &ScenarioSpec,
) -> Result<CellOutcome, MatrixConfigError> {
    check_cell(system.params.k, spec.adversary, spec.leak_floor)?;
    let n = system.points.len();
    let levels = match spec.k_axis {
        KAxis::Uniform => None,
        KAxis::Personalized => Some(personalized_k_levels(n, system.params.k, spec.seed)),
    };
    let mut engine = CloakingEngine::new(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let kp = match &levels {
        None => KPolicy::Uniform(system.params.k),
        Some(ls) => {
            engine = engine
                .with_personalized_k(ls.clone())
                .expect("one level of at least 1 per user on the distributed engine");
            KPolicy::PerUser(ls)
        }
    };
    let hosts = system.host_sequence(spec.requests.min(n), spec.seed ^ 0x5343_454e); // "SCEN"

    let mut transport = Adversarial {
        spec,
        kp,
        verdict: PrivacyVerdict::fresh(hosts.len()),
    };
    for &host in &hosts {
        let result = engine.request_over(&mut transport, host);
        let v = &mut transport.verdict;
        match result {
            Ok(r) => {
                v.served += 1;
                v.reused += usize::from(r.reused);
                let audit = audit_result(system, &r);
                v.k_anonymity_held &= audit.k_satisfied && audit.within_domain;
            }
            // Typed degrade (component too small in the remaining WPG, a
            // bounding failure, or crash recovery below the anonymity
            // level) — counted, never fatal.
            Err(_) => v.degraded += 1,
        }
    }

    let verdict = transport.verdict;
    Ok(CellOutcome {
        spec: spec.clone(),
        verdict,
        passed: expectation_met(spec.adversary, &verdict),
    })
}

/// The scenario's engine transport: the in-memory phase 1, and a phase 2
/// that bounds the box under the cell's adversary and folds every
/// transcript into the cell's verdict.
struct Adversarial<'a> {
    spec: &'a ScenarioSpec,
    /// The engine's anonymity policy (crash recovery must keep
    /// `required_k` survivors).
    kp: KPolicy<'a>,
    verdict: PrivacyVerdict,
}

impl Transport for Adversarial<'_> {
    /// Returns the box, or the error the request must degrade with: a
    /// typed bounding failure, or [`BoundingError::Unreachable`] naming the
    /// first dropped member when crash recovery left fewer survivors than
    /// the anonymity requirement.
    fn bound_box<P: IncrementPolicy + Clone>(
        &mut self,
        host: UserId,
        host_point: Point,
        members: &[UserId],
        points: &[Point],
        policy: &P,
    ) -> Result<BboxOutcome, BoundingError> {
        let adversary = self.spec.adversary;
        let cluster_size = members.len();
        // Adversary roles: the lowest-indexed non-host members take them
        // (deterministic, so reruns replay bit-identically).
        let role_count = match adversary {
            Adversary::Honest => 0,
            Adversary::Colluders { c } => c,
            Adversary::Liars { l } => l,
            Adversary::Crash { peers, .. } => peers,
        };
        let roles: Vec<usize> = (0..cluster_size)
            .filter(|&i| members[i] != host)
            .take(role_count)
            .collect();

        let mut values = Vec::with_capacity(cluster_size);
        let mut dropped = vec![false; cluster_size];
        // The verdict reads every run's transcript.
        let mut runs = Vec::with_capacity(4);
        let boxed = bounding_box(host_point, Rect::UNIT, |dir, x0, domain_min| {
            values.clear();
            values.extend(points.iter().map(|p| dir.value(p)));
            let run = match adversary {
                Adversary::Honest | Adversary::Colluders { .. } => {
                    let mut t = LocalValues::new(&values);
                    progressive_upper_bound_with(&mut t, x0, domain_min, &mut policy.clone())?
                }
                Adversary::Liars { .. } => {
                    let mut t = LyingValues::new(&values, &roles, LieMode::AgreeEarly);
                    progressive_upper_bound_with(&mut t, x0, domain_min, &mut policy.clone())?
                }
                Adversary::Crash { round, .. } => {
                    let mut t = CrashingValues::new(&values, &roles, round);
                    let out = progressive_upper_bound_resilient(&mut t, x0, domain_min, policy)?;
                    for &i in &out.dropped {
                        dropped[i] = true;
                    }
                    out.run
                }
            };
            let summary = run.summary();
            runs.push(run);
            Ok(summary)
        });
        let v = &mut self.verdict;
        let out = boxed.map_err(|e| {
            // The resilient path must absorb crashes; a raw Unreachable
            // escaping it is a recovery bug the verdict pins.
            if let (Adversary::Crash { .. }, BoundingError::Unreachable { .. }) = (adversary, e) {
                v.recovery_sound = false;
            }
            e
        })?;

        for run in &runs {
            // No non-member exposure: every transcript record names a member,
            // and (crash drops aside) exactly the members.
            v.no_non_member_exposure &= run.records.iter().all(|r| r.index < cluster_size);
            let expected = match adversary {
                Adversary::Crash { .. } => run.records.len() <= cluster_size,
                _ => run.records.len() == cluster_size,
            };
            v.no_non_member_exposure &= expected;

            // Leak accounting: no transcript interval at or below the floor,
            // and (for collusion cells) the coalition never beats the
            // transcript bound.
            let lr = leak_report(run, self.spec.leak_floor);
            if lr.min_width.is_finite() {
                v.worst_leak_width = v.worst_leak_width.min(lr.min_width);
            }
            v.leak_floor_held &= lr.min_width > self.spec.leak_floor;
            if matches!(adversary, Adversary::Colluders { .. }) && !roles.is_empty() {
                let cr = collusion_leak_report(run, &roles, self.spec.leak_floor);
                if cr.worst_width.is_finite() {
                    v.collusion_worst_width = v.collusion_worst_width.min(cr.worst_width);
                }
                v.collusion_bounded_by_transcript &= cr.worst_width >= lr.min_width - 1e-12;
            }
        }

        // Crash recovery below the anonymity requirement must degrade, not
        // serve a region that only covers too few survivors.
        if let Some(first) = dropped.iter().position(|&d| d) {
            let survivors = dropped.iter().filter(|&&d| !d).count();
            if survivors < self.kp.required(members.iter().copied()) {
                return Err(BoundingError::Unreachable { index: first });
            }
        }

        // Truthful, non-crashed members must be covered by the region they
        // agreed to share; liars and crashers forfeit their own coverage.
        let liars: &[usize] = match adversary {
            Adversary::Liars { .. } => &roles,
            _ => &[],
        };
        for (i, pt) in points.iter().enumerate() {
            if liars.contains(&i) || dropped[i] {
                continue;
            }
            v.truthful_coverage &= out.rect.contains(pt);
        }

        Ok(out)
    }
}

/// A rejected [`MatrixConfig`] (or scenario cell) with the offending field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixConfigError {
    /// `n_users` was zero.
    NoUsers,
    /// `k` was zero.
    ZeroK,
    /// `crash_round` was zero (rounds are 1-based).
    ZeroCrashRound,
    /// `leak_floor` was negative or NaN.
    BadLeakFloor(f64),
}

impl std::fmt::Display for MatrixConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixConfigError::NoUsers => write!(f, "n_users must be positive"),
            MatrixConfigError::ZeroK => write!(f, "k must be at least 1"),
            MatrixConfigError::ZeroCrashRound => {
                write!(f, "crash_round must be at least 1 (rounds are 1-based)")
            }
            MatrixConfigError::BadLeakFloor(x) => {
                write!(f, "leak_floor {x} must be non-negative")
            }
        }
    }
}

impl std::error::Error for MatrixConfigError {}

/// The checks one cell needs: a positive `k`, a 1-based crash round and a
/// non-negative leak floor.
fn check_cell(k: usize, adversary: Adversary, leak_floor: f64) -> Result<(), MatrixConfigError> {
    if k == 0 {
        return Err(MatrixConfigError::ZeroK);
    }
    if let Adversary::Crash { round: 0, .. } = adversary {
        return Err(MatrixConfigError::ZeroCrashRound);
    }
    if leak_floor.is_nan() || leak_floor < 0.0 {
        return Err(MatrixConfigError::BadLeakFloor(leak_floor));
    }
    Ok(())
}

/// Workload knobs shared by every cell of one matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MatrixConfig {
    /// Population size per system.
    pub n_users: usize,
    /// Base anonymity level (uniform k; personalized tiers scale off it).
    pub k: usize,
    /// Host requests per cell.
    pub requests: usize,
    /// Coalition size for the collusion cells.
    pub colluders: usize,
    /// Lying peers per cluster for the liar cells.
    pub liars: usize,
    /// Crashing peers per cluster for the crash cells.
    pub crash_peers: usize,
    /// 1-based bounding round the crashers stop answering at.
    pub crash_round: usize,
    /// Leak floor for every cell (see [`ScenarioSpec::leak_floor`]).
    pub leak_floor: f64,
    /// Seed for systems, hosts, levels, and roles.
    pub seed: u64,
}

impl MatrixConfig {
    /// The benchmark configuration (`exp_robustness` Part D, which writes
    /// `BENCH_robustness.json`).
    pub fn bench() -> MatrixConfig {
        MatrixConfig {
            n_users: 10_000,
            k: 8,
            requests: 100,
            colluders: 3,
            liars: 1,
            crash_peers: 2,
            crash_round: 2,
            leak_floor: 0.0,
            seed: 42,
        }
    }

    /// A fast configuration for smoke tests and CI.
    pub fn smoke() -> MatrixConfig {
        MatrixConfig {
            n_users: 1_500,
            k: 5,
            requests: 30,
            colluders: 2,
            liars: 1,
            crash_peers: 1,
            crash_round: 2,
            leak_floor: 0.0,
            seed: 42,
        }
    }

    /// Validates every field, returning the first offender.
    pub fn validate(&self) -> Result<(), MatrixConfigError> {
        if self.n_users == 0 {
            return Err(MatrixConfigError::NoUsers);
        }
        let crash = Adversary::Crash {
            peers: self.crash_peers,
            round: self.crash_round,
        };
        check_cell(self.k, crash, self.leak_floor)
    }
}

/// Runs the full 2×2×4 matrix: {uniform, rush-hour} geography ×
/// {uniform, personalized} k × {honest, colluders, liars, crash}. Systems
/// are built once per geography and shared across their column's cells.
///
/// # Errors
/// [`MatrixConfig::validate`]'s, before any system is built.
pub fn scenario_matrix(cfg: &MatrixConfig) -> Result<Vec<CellOutcome>, MatrixConfigError> {
    cfg.validate()?;
    let adversaries = [
        Adversary::Honest,
        Adversary::Colluders { c: cfg.colluders },
        Adversary::Liars { l: cfg.liars },
        Adversary::Crash {
            peers: cfg.crash_peers,
            round: cfg.crash_round,
        },
    ];
    let mut cells = Vec::with_capacity(16);
    for geo in [GeoAxis::Uniform, GeoAxis::RushHour] {
        let system = scenario_system(geo, cfg.n_users, cfg.k, cfg.seed);
        for k_axis in [KAxis::Uniform, KAxis::Personalized] {
            for adversary in adversaries {
                let spec = ScenarioSpec::new(
                    k_axis,
                    geo,
                    adversary,
                    cfg.requests,
                    cfg.leak_floor,
                    cfg.seed,
                );
                cells.push(run_scenario_on(&system, &spec)?);
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RequestError;

    fn small_system(geo: GeoAxis) -> System {
        scenario_system(geo, 1_200, 4, 7)
    }

    fn spec(adversary: Adversary) -> ScenarioSpec {
        ScenarioSpec::new(KAxis::Uniform, GeoAxis::Uniform, adversary, 20, 0.0, 7)
    }

    #[test]
    fn honest_uniform_cell_passes() {
        let system = small_system(GeoAxis::Uniform);
        let cell = run_scenario_on(&system, &spec(Adversary::Honest)).unwrap();
        assert!(cell.passed, "honest cell failed: {:?}", cell.verdict);
        assert!(cell.verdict.served > 0);
        assert!(cell.verdict.worst_leak_width > 0.0);
    }

    #[test]
    fn every_request_is_accounted_for() {
        let system = small_system(GeoAxis::Uniform);
        for adversary in [
            Adversary::Honest,
            Adversary::Colluders { c: 2 },
            Adversary::Liars { l: 1 },
            Adversary::Crash { peers: 1, round: 2 },
        ] {
            let cell = run_scenario_on(&system, &spec(adversary)).unwrap();
            let v = cell.verdict;
            assert_eq!(
                v.served + v.degraded,
                v.requests,
                "unaccounted requests under {adversary:?}"
            );
        }
    }

    #[test]
    fn colluders_never_beat_the_transcript_bound() {
        let system = small_system(GeoAxis::Uniform);
        let cell = run_scenario_on(&system, &spec(Adversary::Colluders { c: 2 })).unwrap();
        assert!(cell.passed, "collusion cell failed: {:?}", cell.verdict);
        assert!(cell.verdict.collusion_bounded_by_transcript);
        // A coalition pools strictly less than the host knows, so its worst
        // interval is at least as wide as the cell's worst transcript leak.
        assert!(cell.verdict.collusion_worst_width >= cell.verdict.worst_leak_width - 1e-12);
    }

    #[test]
    fn liar_cell_keeps_truthful_members_covered() {
        let system = small_system(GeoAxis::Uniform);
        let cell = run_scenario_on(&system, &spec(Adversary::Liars { l: 1 })).unwrap();
        assert!(cell.passed, "liar cell failed: {:?}", cell.verdict);
        assert!(cell.verdict.truthful_coverage);
    }

    #[test]
    fn crash_cell_recovers_or_degrades_typed() {
        let system = small_system(GeoAxis::Uniform);
        let cell =
            run_scenario_on(&system, &spec(Adversary::Crash { peers: 1, round: 1 })).unwrap();
        assert!(cell.passed, "crash cell failed: {:?}", cell.verdict);
        assert!(cell.verdict.recovery_sound);
        assert!(cell.verdict.k_anonymity_held);
    }

    #[test]
    fn personalized_levels_are_deterministic_and_tiered() {
        let a = personalized_k_levels(5_000, 4, 9);
        let b = personalized_k_levels(5_000, 4, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k == 4 || k == 6 || k == 8));
        assert!(a.contains(&4) && a.contains(&6) && a.contains(&8));
        let c = personalized_k_levels(5_000, 4, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn personalized_cells_audit_against_the_strict_member() {
        let system = small_system(GeoAxis::Uniform);
        let spec = ScenarioSpec::new(
            KAxis::Personalized,
            GeoAxis::Uniform,
            Adversary::Honest,
            20,
            0.0,
            7,
        );
        let cell = run_scenario_on(&system, &spec).unwrap();
        assert!(cell.passed, "personalized cell failed: {:?}", cell.verdict);
    }

    #[test]
    fn matrix_covers_all_sixteen_cells() {
        let cfg = MatrixConfig {
            n_users: 600,
            k: 3,
            requests: 8,
            colluders: 1,
            liars: 1,
            crash_peers: 1,
            crash_round: 1,
            leak_floor: 0.0,
            seed: 11,
        };
        let cells = scenario_matrix(&cfg).unwrap();
        assert_eq!(cells.len(), 16);
        let mut names: Vec<&str> = cells.iter().map(|c| c.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "cell names must be distinct");
        // Honest cells are the control group: they must pass everywhere.
        for cell in cells
            .iter()
            .filter(|c| c.spec.adversary == Adversary::Honest)
        {
            assert!(
                cell.passed,
                "honest cell {} failed: {:?}",
                cell.spec.name, cell.verdict
            );
        }
    }

    #[test]
    fn crashers_beyond_every_slack_degrade_every_request_typed() {
        let system = small_system(GeoAxis::Uniform);
        let mut engine = CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        );
        // Every non-host member crashes from round 1, so recovery keeps
        // only the host: below any cluster's anonymity level.
        let crash = spec(Adversary::Crash {
            peers: usize::MAX,
            round: 1,
        });
        let mut transport = Adversarial {
            spec: &crash,
            kp: KPolicy::Uniform(system.params.k),
            verdict: PrivacyVerdict::fresh(0),
        };
        let mut bounded = 0;
        for host in system.host_sequence(20, 7) {
            match engine.request_over(&mut transport, host) {
                Err(RequestError::Bounding(BoundingError::Unreachable { .. })) => bounded += 1,
                Err(RequestError::Cluster(_)) => {}
                other => panic!("host {host}: expected a typed degrade, got {other:?}"),
            }
        }
        assert!(bounded > 0, "no request reached phase 2");
        assert!(
            engine
                .registry()
                .active_clusters()
                .all(|(_, rc)| rc.region.is_none()),
            "a degraded request published a region"
        );
        assert!(transport.verdict.recovery_sound);

        let v = run_scenario_on(&system, &crash).unwrap().verdict;
        assert_eq!((v.served, v.degraded), (0, v.requests));
        assert!(v.recovery_sound && v.k_anonymity_held);
    }

    fn bad(f: impl FnOnce(&mut MatrixConfig)) -> MatrixConfigError {
        let mut cfg = MatrixConfig::smoke();
        f(&mut cfg);
        scenario_matrix(&cfg).unwrap_err()
    }

    #[test]
    fn matrix_rejects_zero_users() {
        assert_eq!(bad(|c| c.n_users = 0), MatrixConfigError::NoUsers);
    }

    #[test]
    fn matrix_rejects_zero_k() {
        assert_eq!(bad(|c| c.k = 0), MatrixConfigError::ZeroK);
        let system = scenario_system(GeoAxis::Uniform, 300, 0, 7);
        assert_eq!(
            run_scenario_on(&system, &spec(Adversary::Honest)).unwrap_err(),
            MatrixConfigError::ZeroK
        );
    }

    #[test]
    fn matrix_rejects_zero_crash_round() {
        assert_eq!(
            bad(|c| c.crash_round = 0),
            MatrixConfigError::ZeroCrashRound
        );
        let system = small_system(GeoAxis::Uniform);
        let cell = spec(Adversary::Crash { peers: 1, round: 0 });
        assert_eq!(
            run_scenario_on(&system, &cell).unwrap_err(),
            MatrixConfigError::ZeroCrashRound
        );
    }

    #[test]
    fn matrix_rejects_negative_or_nan_leak_floor() {
        assert_eq!(
            bad(|c| c.leak_floor = -1.0),
            MatrixConfigError::BadLeakFloor(-1.0)
        );
        assert!(matches!(
            bad(|c| c.leak_floor = f64::NAN),
            MatrixConfigError::BadLeakFloor(x) if x.is_nan()
        ));
        let system = small_system(GeoAxis::Uniform);
        let cell = ScenarioSpec::new(
            KAxis::Uniform,
            GeoAxis::Uniform,
            Adversary::Honest,
            20,
            -0.5,
            7,
        );
        assert_eq!(
            run_scenario_on(&system, &cell).unwrap_err(),
            MatrixConfigError::BadLeakFloor(-0.5)
        );
    }
}
