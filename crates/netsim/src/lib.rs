//! Simulated peer-to-peer radio network for the NELA protocols.
//!
//! The paper's evaluation counts messages analytically; its future-work
//! section (§VII) calls for handling "undesired scenarios": communication
//! failures during clustering or bounding, and concurrency control when
//! several users request cloaking at the same time. This crate supplies the
//! substrate for both:
//!
//! - [`event`] — a deterministic discrete-event simulation core,
//! - [`discovery`] — the beaconing phase that produces the proximity graph
//!   in the first place: jittered broadcast rounds, per-beacon loss and RSS
//!   measurement noise, rank assembly, and recall metrics against the ideal
//!   WPG,
//! - [`network`] — a virtual-time point-to-point network with a latency
//!   model, i.i.d. message loss, bounded retransmission, per-message
//!   accounting and peer crash injection,
//! - [`proto`] — adapters that run the *actual* protocol implementations
//!   (`nela-cluster`'s Algorithm 2 / kNN, `nela-bounding`'s progressive
//!   bounding) over the simulated network instead of an in-memory graph.
//!
//! Concurrency control for simultaneous host requests lives with the
//! request path itself (`nela::EngineSession` over
//! `nela_cluster::registry::ShardedRegistry`), which runs over this crate's
//! network when a session is built `with_network`.

pub mod discovery;
pub mod event;
pub mod network;
pub mod proto;

pub use discovery::{edge_recall, run_discovery, DiscoveryConfig, DiscoveryStats};
pub use event::EventQueue;
pub use network::{ConfigError, LatencyModel, Network, NetworkConfig, NetworkStats, RpcError};
pub use proto::{SimFetch, SimVerify};
