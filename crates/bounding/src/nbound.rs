//! N-bounding: the optimal increment when N users disagree (paper §V-B).
//!
//! The exact formulation (Equation 3) sums over every possible number of
//! still-disagreeing users and requires a dynamic program with one
//! differential-equation solve per N — CPU-heavy for a mobile device. The
//! paper therefore derives the approximation of Equations 4–5,
//!
//! ```text
//! R'(x) = (C* − R*) · N · p(x)
//! ```
//!
//! whose solutions are closed-form for the evaluation's uniform/area case
//! (Example 5.3: `x = N(C*−R*) / (2·Cr·U)`). Both the approximation and the
//! exact bottom-up DP are implemented; the test suite validates the
//! approximation against the DP at small N.

use crate::cost::{AreaCost, RequestCost};
use crate::distribution::{ExcessDistribution, Uniform};
use crate::protocol::IncrementPolicy;
use crate::unary::{golden_section_min, unary_optimal};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};

/// Approximate optimal N-bounding increment (Equation 5), solved generically
/// by minimizing the approximate cost of Equation 4 over `(0, span]`.
/// For `n == 1` this reduces to the unary optimum.
pub fn n_bounding_increment(
    n: usize,
    dist: &dyn ExcessDistribution,
    cost: &dyn RequestCost,
    cb: f64,
) -> f64 {
    assert!(n >= 1, "need at least one disagreeing user");
    let u = unary_optimal(dist, cost, cb);
    if n == 1 {
        return u.x;
    }
    let span = dist.effective_span();
    let c_minus_r = (u.cost - u.request_cost).max(0.0);
    // Equation 4 objective (terms constant in x dropped):
    //   R(x) + N(1−P(x))(1−P(x)^N)(C*−R*)
    let objective = |x: f64| -> f64 {
        let p = dist.cdf(x);
        cost.r(x) + n as f64 * (1.0 - p) * (1.0 - p.powi(n as i32)) * c_minus_r
    };
    golden_section_min(objective, span * 1e-9, span).min(span)
}

/// Example 5.3 closed form for the uniform/area case:
/// `x = N(C*−R*) / (2·Cr·U)`, capped at U. (The cap corresponds to proposing
/// the whole remaining span, after which every modeled user agrees.)
pub fn n_bounding_uniform_area_closed_form(n: usize, cb: f64, cr: f64, span: f64) -> f64 {
    assert!(n >= 1);
    let u = crate::unary::unary_uniform_area(cb, cr, span);
    if n == 1 {
        return u.x;
    }
    (n as f64 * (u.cost - u.request_cost) / (2.0 * cr * span)).min(span)
}

/// Example 5.4 closed form for the exponential/length case:
/// `x = ln(λ·N·(C*−R*) / Cr) / λ` (clamped into `(0, span]`).
pub fn n_bounding_exponential_length_closed_form(n: usize, cb: f64, cr: f64, lambda: f64) -> f64 {
    assert!(n >= 1);
    let u = crate::unary::unary_exponential_length(cb, cr, lambda);
    if n == 1 {
        return u.x;
    }
    let arg = lambda * n as f64 * (u.cost - u.request_cost) / cr;
    let span = (1000f64).ln() / lambda;
    if arg <= 1.0 {
        // Verification is so cheap relative to the request cost that the
        // stationary point falls at (or below) zero: take a minimal step.
        span * 1e-6
    } else {
        (arg.ln() / lambda).min(span)
    }
}

/// The exact bottom-up dynamic program over Equation 3. `cost[i]` is the
/// optimal expected total cost of i-bounding and `increment[i]` the optimal
/// first increment, for `i ∈ 0..=n_max`.
///
/// For a candidate increment x with failure probability `q = 1 − P(x)`:
///
/// ```text
/// C(x, N) · (1 − q^N) = N·Cb + R(x) + Σ_{i=1}^{N−1} B(N,i) q^i (1−q)^{N−i} C*(i)
/// ```
///
/// (the i = N term re-enters state N and is folded to the left-hand side —
/// conditional on total failure the protocol faces N disagreeing users
/// again). The minimization per N is a grid-plus-golden-section search.
#[derive(Debug, Clone)]
pub struct ExactDp {
    pub cost: Vec<f64>,
    pub increment: Vec<f64>,
}

/// Runs the exact DP up to `n_max` users.
pub fn exact_dp_increment(
    n_max: usize,
    dist: &dyn ExcessDistribution,
    cost_fn: &dyn RequestCost,
    cb: f64,
) -> ExactDp {
    assert!(n_max >= 1);
    let span = dist.effective_span();
    let mut cost = vec![0.0; n_max + 1];
    let mut increment = vec![0.0; n_max + 1];
    for n in 1..=n_max {
        let objective = |x: f64| -> f64 {
            let p = dist.cdf(x).clamp(0.0, 1.0);
            let q = 1.0 - p;
            let qn = q.powi(n as i32);
            if 1.0 - qn <= 1e-12 {
                return f64::INFINITY;
            }
            // Binomial expectation over 1..n−1 surviving disagree-ers.
            let mut expect = 0.0;
            // B(n,i) q^i p^(n−i), built iteratively.
            let mut term = (n as f64) * q * p.powi(n as i32 - 1); // i = 1
            for (i, &c_i) in cost.iter().enumerate().take(n).skip(1) {
                expect += term * c_i;
                // term(i+1) = term(i) · (n−i)/(i+1) · q/p
                if p > 0.0 {
                    term *= (n - i) as f64 / (i + 1) as f64 * q / p;
                } else {
                    term = 0.0;
                }
            }
            (n as f64 * cb + cost_fn.r(x) + expect) / (1.0 - qn)
        };
        // Grid scan to bracket the global minimum, then refine.
        let mut best_x = span;
        let mut best_c = objective(span);
        const GRID: usize = 256;
        for g in 1..GRID {
            let x = span * g as f64 / GRID as f64;
            let c = objective(x);
            if c < best_c {
                best_c = c;
                best_x = x;
            }
        }
        let lo = (best_x - span / GRID as f64).max(span * 1e-9);
        let hi = (best_x + span / GRID as f64).min(span);
        let x = golden_section_min(objective, lo, hi);
        increment[n] = x;
        cost[n] = objective(x);
    }
    ExactDp { cost, increment }
}

/// The shared table of secure-bounding increments for one cost model: the
/// floored Equation 4–5 optimum per (widened span, disagreeing count).
///
/// Every input of a solve is public — the modeled span U·2^w, the
/// disagreeing count N, `Cr` and `Cb` — so every host bounding a cluster of
/// the same size solves the same optimizations. One table per cost model
/// ([`IncrementTable::shared`]) serves every directional run, request,
/// worker and engine of the process. The key is the exact input of the
/// solve (the widened span's bits and N) and [`n_bounding_increment`] is a
/// pure function, so a hit returns the bits a fresh solve would.
///
/// The table fills lazily and is safe to share across threads. No lock is
/// held while solving: racing writers of one key compute equal bits, and
/// the first one stored wins.
#[derive(Debug)]
pub struct IncrementTable {
    cost: AreaCost,
    cb: f64,
    solved: RwLock<HashMap<(u64, usize), f64>>,
}

impl IncrementTable {
    /// An empty table for the request cost `cost` and per-user verification
    /// cost `cb`.
    pub fn new(cost: AreaCost, cb: f64) -> Self {
        IncrementTable {
            cost,
            cb,
            solved: RwLock::new(HashMap::new()),
        }
    }

    /// The process's table for the request cost `cost` and per-user
    /// verification cost `cb`: the first caller creates it, and every later
    /// caller with bit-equal `cost.cr` and `cb` gets the same table, with
    /// the solves earlier callers stored. A process leaks one table per
    /// distinct cost model it bounds under.
    pub fn shared(cost: AreaCost, cb: f64) -> &'static IncrementTable {
        type Registry = Mutex<HashMap<(u64, u64), &'static IncrementTable>>;
        static TABLES: OnceLock<Registry> = OnceLock::new();
        // Every write inserts one finished table, so a map behind a
        // poisoned lock is still whole.
        TABLES
            .get_or_init(Registry::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((cost.cr.to_bits(), cb.to_bits()))
            .or_insert_with(|| Box::leak(Box::new(IncrementTable::new(cost, cb))))
    }

    /// The increment for `n_disagreeing` users under `model` widened
    /// `widenings` times: the Equation 5 optimum, floored at a thousandth
    /// of the widened span.
    pub fn increment(&self, model: Uniform, widenings: u32, n_disagreeing: usize) -> f64 {
        let dist = model.widened(f64::powi(2.0, widenings as i32));
        let key = (dist.span.to_bits(), n_disagreeing);
        // Every write inserts one finished value, so a map behind a
        // poisoned lock is still whole.
        let cached = self
            .solved
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(inc) = cached {
            return inc;
        }
        let inc = n_bounding_increment(n_disagreeing, &dist, &self.cost, self.cb)
            .max(dist.effective_span() * 1e-3);
        *self
            .solved
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(inc)
    }

    /// Number of distinct solves stored so far.
    pub fn entries(&self) -> usize {
        self.solved
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

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
/// anchored to a span consistent with the evidence. The policy keeps only
/// that per-run state; the increments come from a shared
/// [`IncrementTable`]. A clone of a new policy starts a fresh run.
#[derive(Debug, Clone)]
pub struct SecurePolicy<'t> {
    table: &'t IncrementTable,
    /// The run's unwidened excess model.
    model: Uniform,
    /// Doublings applied so far.
    widenings: u32,
    /// `n_disagreeing` seen in the previous round (zero-progress detector).
    last_n: Option<usize>,
}

impl<'t> SecurePolicy<'t> {
    /// Creates the policy for one run under the excess model `model`,
    /// reading its increments from `table`.
    pub fn new(table: &'t IncrementTable, model: Uniform) -> Self {
        SecurePolicy {
            table,
            model,
            widenings: 0,
            last_n: None,
        }
    }
}

impl IncrementPolicy for SecurePolicy<'_> {
    fn increment(&mut self, n_disagreeing: usize, _round: usize, _current_excess: f64) -> f64 {
        if self.last_n == Some(n_disagreeing) {
            // No one agreed last round: the modeled span is too small.
            self.widenings += 1;
        }
        self.last_n = Some(n_disagreeing);
        self.table
            .increment(self.model, self.widenings, n_disagreeing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AreaCost, LengthCost};
    use crate::distribution::{Exponential, Uniform};

    #[test]
    fn n1_reduces_to_unary() {
        let dist = Uniform::new(0.2);
        let cost = AreaCost { cr: 100.0 };
        let u = unary_optimal(&dist, &cost, 1.0);
        let x1 = n_bounding_increment(1, &dist, &cost, 1.0);
        assert_eq!(u.x, x1);
    }

    #[test]
    fn closed_form_matches_example_5_3_formula() {
        // Uncapped regime: make the formula produce an interior value.
        let (cb, cr, span) = (1.0, 5000.0, 0.5);
        let u = crate::unary::unary_uniform_area(cb, cr, span);
        for n in [2usize, 5, 10] {
            let x = n_bounding_uniform_area_closed_form(n, cb, cr, span);
            let expect = (n as f64 * (u.cost - u.request_cost) / (2.0 * cr * span)).min(span);
            assert!((x - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn increment_grows_with_n() {
        // More disagreeing users → each round is costlier → larger steps.
        let dist = Uniform::new(0.3);
        let cost = AreaCost { cr: 500.0 };
        let x2 = n_bounding_increment(2, &dist, &cost, 1.0);
        let x8 = n_bounding_increment(8, &dist, &cost, 1.0);
        assert!(x8 >= x2, "x8 {x8} < x2 {x2}");
    }

    #[test]
    fn exact_dp_monotone_cost_in_n() {
        let dist = Uniform::new(0.2);
        let cost = AreaCost { cr: 300.0 };
        let dp = exact_dp_increment(10, &dist, &cost, 1.0);
        for n in 2..=10 {
            assert!(
                dp.cost[n] >= dp.cost[n - 1],
                "bounding more users cannot be cheaper: C*({n}) = {} < C*({}) = {}",
                dp.cost[n],
                n - 1,
                dp.cost[n - 1]
            );
        }
    }

    #[test]
    fn exact_dp_n1_matches_unary() {
        let dist = Uniform::new(0.2);
        let cost = AreaCost { cr: 300.0 };
        let dp = exact_dp_increment(3, &dist, &cost, 1.0);
        let u = unary_optimal(&dist, &cost, 1.0);
        assert!((dp.cost[1] - u.cost).abs() / u.cost < 1e-3);
        assert!((dp.increment[1] - u.x).abs() < 1e-3 * dist.span);
    }

    #[test]
    fn approximation_is_near_exact_dp_for_small_n() {
        // The paper's claim behind Eq. 5: the cheap approximation tracks the
        // exact DP. Compare the *costs achieved* when using each increment
        // in the exact recursion (costs are flat near the optimum, so
        // comparing x directly would be too strict).
        let dist = Uniform::new(0.25);
        let cost = AreaCost { cr: 400.0 };
        let dp = exact_dp_increment(6, &dist, &cost, 1.0);
        for n in 2..=6usize {
            let x_approx = n_bounding_increment(n, &dist, &cost, 1.0);
            let eval = |x: f64| -> f64 {
                let p = dist.cdf(x);
                let q = 1.0 - p;
                let qn = q.powi(n as i32);
                let mut expect = 0.0;
                let mut term = (n as f64) * q * p.powi(n as i32 - 1);
                for i in 1..n {
                    expect += term * dp.cost[i];
                    term *= (n - i) as f64 / (i + 1) as f64 * q / p.max(1e-300);
                }
                (n as f64 * 1.0 + cost.r(x) + expect) / (1.0 - qn)
            };
            let c_approx = eval(x_approx);
            assert!(
                c_approx <= dp.cost[n] * 1.25,
                "n={n}: approx increment {x_approx} costs {c_approx}, exact {}",
                dp.cost[n]
            );
        }
    }

    #[test]
    fn exponential_closed_form_is_positive_and_bounded() {
        for n in [1usize, 2, 10, 50] {
            let x = n_bounding_exponential_length_closed_form(n, 1.0, 10.0, 4.0);
            assert!(x > 0.0);
            assert!(x <= (1000f64).ln() / 4.0);
        }
    }

    #[test]
    fn exponential_generic_close_to_closed_form() {
        let (cb, cr, lambda) = (1.0, 3.0, 2.0);
        let dist = Exponential::new(lambda);
        let cost = LengthCost { cr };
        for n in [2usize, 4, 8] {
            let generic = n_bounding_increment(n, &dist, &cost, cb);
            let closed = n_bounding_exponential_length_closed_form(n, cb, cr, lambda);
            // Both should land in the same cost basin: compare Eq.4 values.
            let u = unary_optimal(&dist, &cost, cb);
            let cmr = u.cost - u.request_cost;
            let obj = |x: f64| {
                let p = dist.cdf(x);
                cost.r(x) + n as f64 * (1.0 - p) * (1.0 - p.powi(n as i32)) * cmr
            };
            assert!(
                obj(generic) <= obj(closed) * 1.05 + 1e-9,
                "n={n}: generic {generic} vs closed {closed}"
            );
        }
    }

    #[test]
    fn secure_policy_widens_on_stall_and_floors() {
        let table = IncrementTable::new(AreaCost { cr: 100.0 }, 1.0);
        let mut p = SecurePolicy::new(&table, Uniform::new(0.2));
        let a = p.increment(4, 1, 0.0);
        assert!(a >= 0.2 * 1e-3, "floored increment");
        // Same N again = nobody agreed: the span doubles, increments grow.
        let b = p.increment(4, 2, a);
        assert!(b > a, "stalled round must widen the model: {a} -> {b}");
        // Progress (smaller N) does not widen further; the increment is the
        // table's solve against the widened model.
        let c1 = p.increment(2, 3, a + b);
        let c2 = {
            let dist = Uniform::new(0.2).widened(2.0);
            n_bounding_increment(2, &dist, &AreaCost { cr: 100.0 }, 1.0)
                .max(dist.effective_span() * 1e-3)
        };
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(table.entries(), 3);
    }

    #[test]
    fn table_hits_return_the_solved_bits() {
        let table = IncrementTable::new(AreaCost { cr: 2.0e7 }, 1.0);
        let model = Uniform::new(1e-4);
        let first = table.increment(model, 1, 7);
        assert_eq!(table.entries(), 1);
        assert_eq!(table.increment(model, 1, 7).to_bits(), first.to_bits());
        assert_eq!(table.entries(), 1, "a hit solves nothing new");
        // The key is the widened span: U widened once is 2U unwidened.
        let doubled = table.increment(Uniform::new(2e-4), 0, 7);
        assert_eq!(doubled.to_bits(), first.to_bits());
        assert_eq!(table.entries(), 1);
        // Another N or another span is another solve.
        table.increment(model, 1, 6);
        table.increment(model, 0, 7);
        assert_eq!(table.entries(), 3);
    }

    #[test]
    fn shared_tables_are_one_per_cost_model() {
        // A cost model no other test bounds under, so nothing else writes
        // these tables.
        let (cost, cb) = (AreaCost { cr: 3.25e6 }, 1.75);
        let table = IncrementTable::shared(cost, cb);
        assert!(std::ptr::eq(table, IncrementTable::shared(cost, cb)));
        let model = Uniform::new(3e-4);
        let first = table.increment(model, 0, 5);
        let again = IncrementTable::shared(cost, cb).increment(model, 0, 5);
        assert_eq!(again.to_bits(), first.to_bits());
        assert_eq!(table.entries(), 1, "a later caller reads the stored solve");
        // Another Cr or another Cb is another table.
        let other_cr = IncrementTable::shared(AreaCost { cr: 6.5e6 }, cb);
        let other_cb = IncrementTable::shared(cost, 3.5);
        assert!(!std::ptr::eq(table, other_cr));
        assert!(!std::ptr::eq(table, other_cb));
        assert!(!std::ptr::eq(other_cr, other_cb));
        assert_eq!(other_cr.entries(), 0);
        assert_eq!(other_cb.entries(), 0);
    }
}
