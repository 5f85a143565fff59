//! Geometric substrate for the NELA (Non-Exposure Location Anonymity) system.
//!
//! This crate provides the spatial primitives that the rest of the workspace
//! builds on:
//!
//! - [`Point`] and [`Rect`] with the distance/area kernels used throughout the
//!   paper's evaluation (cloaked regions are axis-aligned bounding boxes in a
//!   unit square),
//! - [`grid::GridIndex`], a uniform-grid spatial index supporting the
//!   δ-range neighbor queries needed to construct weighted proximity graphs
//!   over ~10⁵ users, and [`DynamicGrid`], the same index maintained under
//!   batches of moves,
//! - [`dataset`], seeded synthetic spatial dataset generators, including a
//!   "California-POI-like" skewed mixture that substitutes for the USGS
//!   California POI dataset used in the paper (see `DESIGN.md` for the
//!   substitution rationale).
//!
//! All randomness is driven by caller-provided seeds through ChaCha8 so every
//! experiment in the repository is exactly reproducible.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod grid;
pub mod point;
pub mod rect;
pub mod sharded;
pub mod soa;

pub use dataset::{standard_normal, DatasetSpec, SpatialDistribution};
pub use grid::GridIndex;
pub use point::Point;
pub use rect::Rect;
pub use sharded::{DynamicGrid, GridError};
pub use soa::PointsSoA;

/// Identifier of a user (vertex) in the system. Users are dense indices into
/// the population vector, so a bare `u32` keeps adjacency structures compact.
pub type UserId = u32;
