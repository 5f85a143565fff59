//! Secure bounding — phase 2 of non-exposure location cloaking (paper §V).
//!
//! After phase 1 identifies a k-anonymity cluster, the cloaked region — a
//! bounding box of the members' coordinates — must be computed **without any
//! member revealing a coordinate**. Full secure multi-party computation is
//! rejected by the paper as impractical on mobile devices, so a progressive
//! "hypothesis–verification" protocol is used instead: the host proposes a
//! bound, every disagreeing member says only "not yet", and the bound grows
//! by an increment optimized against a communication-cost model until
//! everyone agrees.
//!
//! Modules:
//!
//! - [`distribution`] — models of the "excess" random variable ξ − X₀
//!   (uniform and exponential, Examples 5.1–5.4),
//! - [`cost`] — the communication-cost model: per-round verification cost
//!   `Cb` and service-request cost `R(x)` (area- or length-proportional),
//! - [`unary`] — the single-user optimal bound (Equation 2): closed forms
//!   plus Newton's method for the exponential transcendental case,
//! - [`nbound`] — N-user optimal increments: the paper's approximation
//!   (Equation 5) and the exact bottom-up dynamic program over Equation 3
//!   used to validate it,
//! - [`protocol`] — the progressive bounding engine (Algorithms 3–4) with
//!   message accounting and per-user agreement transcripts,
//! - [`baselines`] — the linear, exponential, and (non-private) optimal
//!   bounding competitors of §VI-D,
//! - [`bbox`] — the 2-D cloaked rectangle assembled from four directional
//!   1-D bounds,
//! - [`privacy`] — the privacy-loss accounting sketched in the paper's
//!   future work: the interval of ξ each user's transcript exposes, and
//!   what a coalition of colluding peers can pool out of it,
//! - [`adversary`] — crashing and lying verification transports for the
//!   scenario matrix's stronger-than-semi-honest adversaries.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod baselines;
pub mod bbox;
pub mod cost;
pub mod distribution;
pub mod nbound;
pub mod privacy;
pub mod protocol;
pub mod unary;

pub use adversary::{CrashingValues, LieMode, LyingValues};
pub use baselines::{optimal_bound, ExponentialPolicy, LinearPolicy};
pub use bbox::{bounding_box, BboxOutcome};
pub use cost::{AreaCost, CostParams, LengthCost, RequestCost};
pub use distribution::{ExcessDistribution, Exponential, Uniform};
pub use nbound::{exact_dp_increment, n_bounding_increment, IncrementTable, SecurePolicy};
pub use privacy::{
    collusion_exposed_interval, collusion_leak_report, leak_report, CollusionLeakReport, LeakReport,
};
pub use protocol::{
    progressive_bound, progressive_upper_bound, progressive_upper_bound_resilient,
    progressive_upper_bound_with, BoundingError, BoundingRun, IncrementPolicy, LocalValues,
    ResilientOutcome, RunSummary, Transcript, VerifyTransport,
};
pub use unary::{unary_optimal, UnaryOptimum};
