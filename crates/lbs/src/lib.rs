//! Location-based-service (LBS) server substrate.
//!
//! The cloaking pipeline exists so a user can ask an *untrusted* LBS server
//! for location-dependent content. The paper's evaluation models the
//! service request as "a range query on the same POI dataset" whose
//! transfer cost is proportional to the cloaked region's area (§VI); the
//! Casper line of work it builds on (paper \[3\]) has the server evaluate
//! queries over cloaked regions and return a *candidate superset* that the
//! client refines locally against its true position — the server never
//! learns more than the region.
//!
//! This crate implements that server and client side:
//!
//! - [`store`] — a grid-indexed POI store with exact range and
//!   nearest-neighbor queries,
//! - [`query`] — cloaked-region query processing: range queries over a
//!   region and the k-range-nearest-neighbor (kRNN) operator (Hu & Lee,
//!   cited in the paper's related work) that returns a candidate set
//!   guaranteed to contain the k nearest POIs of *every* point in the
//!   region, plus client-side refinement,
//! - [`server`] — the request/response façade with transfer-cost
//!   accounting, used by the experiments to validate the paper's analytic
//!   `Cr · |D| · area` cost model against an actually executed query.

pub mod query;
pub mod server;
pub mod store;
mod topk;

pub use query::{refine_knn, refine_range};
pub use server::{CloakedQuery, LbsServer, Response};
pub use store::{Poi, PoiStore};
