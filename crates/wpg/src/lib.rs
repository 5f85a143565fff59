//! Weighted Proximity Graph (WPG) substrate.
//!
//! The paper performs location cloaking on *proximity* information instead of
//! coordinates: each mobile device ranks its radio peers by received signal
//! strength (RSS), and the rank — not any coordinate — becomes the edge
//! weight of an undirected weighted graph, the WPG (§III–IV of the paper).
//!
//! This crate provides:
//!
//! - [`rss`] — RSS measurement models (the paper's distance-monotone model
//!   plus a noisy log-distance model used for robustness testing),
//! - [`graph`] — a compact CSR representation of the WPG ([`Wpg`]),
//! - [`builder`] — construction of a WPG from user positions under a radio
//!   range δ and a peer cap M, with the paper's mutual-rank edge weights,
//! - [`incremental`] — incremental maintenance of the WPG under mobility:
//!   rank lists are updated from the users who moved, with an
//!   exact-equivalence guarantee against a from-scratch build,
//! - [`connectivity`] — t-connectivity primitives (Definition 4.1) and a
//!   union-find used by the clustering algorithms,
//! - [`topology`] — synthetic graph topologies (ring lattice, small world,
//!   random regular) for evaluating the clustering algorithms under the
//!   "various proximity topologies" of the paper's abstract.

pub mod builder;
pub mod connectivity;
pub mod graph;
pub mod incremental;
pub mod rss;
pub mod topology;

pub use builder::{keep_strongest, WpgBuilder};
pub use connectivity::DisjointSets;
pub use graph::{Edge, Wpg};
pub use incremental::{IncrementalWpg, UpdateStats};
pub use rss::{InverseDistanceRss, LogDistanceRss, RssModel};

/// Edge weights are small positive integers: RSS ranks (1..=M) in built
/// graphs, arbitrary positive values in synthetic topologies.
pub type Weight = u32;
