//! # NELA — Non-Exposure Location Anonymity
//!
//! A full implementation of *"Non-Exposure Location Anonymity"* (Hu & Xu,
//! ICDE 2009): location cloaking that never exposes any user's accurate
//! coordinates to any party — not to an anonymizer, and not to peer users.
//!
//! Cloaking runs in two phases over a *weighted proximity graph* (WPG) whose
//! edge weights are relative RSS ranks, not distances:
//!
//! 1. **Proximity minimum k-clustering** (`nela-cluster`): find ≥ k users
//!    including the host, minimizing the cluster's maximum edge weight,
//!    while preserving other users' future clusters (cluster-isolation).
//! 2. **Secure bounding** (`nela-bounding`): compute a rectangle covering
//!    all members through a progressive yes/no protocol with
//!    cost-model-optimal increments — no member ever states a coordinate.
//!
//! This crate ties the phases into an end-to-end engine:
//!
//! ```
//! use nela::{CloakingEngine, ClusteringAlgo, BoundingAlgo, Params, System};
//!
//! let system = System::build(&Params::scaled(2_000));
//! let mut engine = CloakingEngine::new(
//!     &system,
//!     ClusteringAlgo::TConnDistributed,
//!     BoundingAlgo::Secure,
//! );
//! // Some random hosts sit in underfilled regions and cannot reach k users;
//! // take the first servable one.
//! let result = system
//!     .host_sequence(100, 42)
//!     .into_iter()
//!     .find_map(|h| engine.request(h).ok())
//!     .expect("a servable host exists");
//! assert!(result.region.contains(&system.points[result.host as usize]));
//! ```
//!
//! The evaluation harness in `crates/bench` regenerates every figure of the
//! paper's §VI from this API; `EXPERIMENTS.md` records the outcomes.

#![forbid(unsafe_code)]

pub mod attack;
pub mod engine;
pub mod metrics;
pub mod params;
pub mod scenario;
pub mod system;
pub mod verify;

pub use attack::{anonymity_of, center_attack, intersection_attack};
pub use engine::{
    auto_shard_axis, shard_axis_for_total, BoundingAlgo, CarryOver, CloakingEngine, CloakingResult,
    ClusteringAlgo, EngineSession, PersonalizedKError, RequestError, SessionCheckpoint,
    SessionNetStats,
};
pub use metrics::{service_request_cost, WorkloadStats};
pub use params::Params;
pub use scenario::{
    personalized_k_levels, run_scenario_on, scenario_matrix, scenario_system, Adversary,
    CellOutcome, GeoAxis, KAxis, MatrixConfig, MatrixConfigError, PrivacyVerdict, ScenarioSpec,
};
pub use system::System;
pub use verify::{audit_result, AuditReport};

// Re-export the sub-crates so downstream users need only one dependency.
pub use nela_bounding as bounding;
pub use nela_cluster as cluster;
pub use nela_geo as geo;
pub use nela_lbs as lbs;
pub use nela_netsim as netsim;
pub use nela_wpg as wpg;
