//! Proximity minimum k-clustering — phase 1 of non-exposure location
//! cloaking (paper §IV).
//!
//! Given a weighted proximity graph, a host user and an anonymity level `k`,
//! find a cluster of ≥ k users containing the host with minimum maximum edge
//! weight (MEW — the paper's surrogate for cluster diameter, Corollary 4.2),
//! such that carving the cluster out of the graph does not change any other
//! user's future cluster (*cluster-isolation*, Property 4.1).
//!
//! Modules:
//!
//! - [`centralized`] — Algorithm 1, the centralized t-connectivity
//!   k-clustering that partitions a whole WPG (a fast Kruskal-forest level
//!   cut, plus the pseudocode's single-linkage reading for the chaining
//!   ablation).
//! - [`distributed`] — Algorithm 2, the distributed, cluster-isolated
//!   t-connectivity k-clustering run by a host vertex, with per-request
//!   communication accounting (number of involved users, §VI).
//! - [`knn`] — the kNN baseline (and its smallest-degree tie-break revision
//!   from Fig. 4(b)) the paper compares against.
//! - [`registry`] — cluster membership bookkeeping across a sequence of host
//!   requests, enforcing the reciprocity property.
//! - [`isolation`] — an executable checker of the cluster-isolation property
//!   used by the test suite.

#![forbid(unsafe_code)]

pub mod centralized;
pub mod distributed;
pub mod fetch;
pub mod hilbert;
pub mod isolation;
pub mod knn;
pub mod registry;

pub use centralized::{centralized_k_clustering, GlobalClustering};
pub use distributed::{
    distributed_k_clustering, distributed_k_clustering_with, distributed_k_clustering_with_policy,
    DistributedOutcome,
};
pub use fetch::{LocalFetch, PeerFetch};
pub use knn::{knn_cluster, knn_cluster_with, KnnOutcome, TieBreak};
pub use registry::{ClaimOutcome, ClusterRegistry, ShardedRegistry};

use nela_geo::UserId;
use nela_wpg::Weight;
use std::cell::RefCell;
use std::thread::LocalKey;

/// Runs `f` on this thread's instance of the scratch `key`. A thread whose
/// instance is already borrowed (a transport that re-enters the algorithm
/// from inside a fetch) gets a fresh one, so reuse never changes an output.
pub(crate) fn with_scratch<T: Default + 'static, R>(
    key: &'static LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut T::default()),
    })
}

/// Per-user entries that empty all at once, for tables reused across
/// requests: `u`'s entry is present only while its stamp equals the
/// table's epoch, so raising the epoch empties the table without touching
/// it. The stamps are zeroed only when the epoch would wrap.
#[derive(Default)]
pub(crate) struct Stamped<T> {
    epoch: u32,
    entries: Vec<(u32, T)>,
}

impl<T: Copy + Default> Stamped<T> {
    /// Empties the table and makes room for the users `0..len`.
    pub(crate) fn reset(&mut self, len: usize) {
        if self.entries.len() < len {
            self.entries.resize(len, (0, T::default()));
        }
        if self.epoch == u32::MAX {
            self.entries.fill((0, T::default()));
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// `u`'s entry, if present.
    pub(crate) fn get(&self, u: UserId) -> Option<T> {
        let (stamp, value) = self.entries[u as usize];
        (stamp == self.epoch).then_some(value)
    }

    pub(crate) fn contains(&self, u: UserId) -> bool {
        self.entries[u as usize].0 == self.epoch
    }

    pub(crate) fn insert(&mut self, u: UserId, value: T) {
        self.entries[u as usize] = (self.epoch, value);
    }
}

/// A finished k-anonymity cluster: its members (sorted) and its connectivity
/// `t` — the smallest threshold under which the members are mutually
/// t-connected through internal edges (equals the cluster's MEW in its
/// minimum spanning tree; `0` for singleton clusters, which only arise for
/// `k = 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    pub members: Vec<UserId>,
    pub connectivity: Weight,
}

impl Cluster {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members (never produced by the
    /// algorithms; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when the cluster meets the anonymity requirement `k`.
    pub fn is_valid(&self, k: usize) -> bool {
        self.members.len() >= k
    }

    /// The anonymity requirement this cluster must meet under `kp`: the
    /// strictest (maximum) `k_i` of its members.
    pub fn required_k(&self, kp: KPolicy<'_>) -> usize {
        kp.required(self.members.iter().copied())
    }

    /// True when the cluster meets the per-member requirement of `kp` —
    /// size at least the max `k_i` over its members. Reduces to
    /// [`Cluster::is_valid`] under [`KPolicy::Uniform`].
    pub fn is_valid_for(&self, kp: KPolicy<'_>) -> bool {
        self.members.len() >= self.required_k(kp)
    }

    /// True when `u` is a member (members are sorted, so binary search).
    pub fn contains(&self, u: UserId) -> bool {
        self.members.binary_search(&u).is_ok()
    }
}

/// Per-user anonymity requirement. The paper assumes one global `k`
/// ([`KPolicy::Uniform`]); personalized privacy (à la MeshCloak) lets each
/// user carry its own `k_i` ([`KPolicy::PerUser`]). A cluster satisfies the
/// policy when its size reaches the **max** `k_i` of its members — every
/// member gets at least the anonymity it asked for.
#[derive(Debug, Clone, Copy)]
pub enum KPolicy<'a> {
    /// Every user requires the same k (the paper's setting).
    Uniform(usize),
    /// `per_user[u]` is user `u`'s personal requirement `k_i` (each ≥ 1).
    /// The slice must cover every user id the algorithm can touch.
    PerUser(&'a [usize]),
}

impl KPolicy<'_> {
    /// User `u`'s own requirement.
    pub fn of(&self, u: UserId) -> usize {
        match self {
            KPolicy::Uniform(k) => *k,
            KPolicy::PerUser(ks) => ks[u as usize],
        }
    }

    /// The requirement a cluster with exactly `members` must meet: the max
    /// `k_i` over them (the uniform k regardless of membership for
    /// [`KPolicy::Uniform`]; at least 1 always).
    pub fn required<I: IntoIterator<Item = UserId>>(&self, members: I) -> usize {
        match self {
            KPolicy::Uniform(k) => (*k).max(1),
            KPolicy::PerUser(_) => members
                .into_iter()
                .map(|u| self.of(u))
                .max()
                .unwrap_or(1)
                .max(1),
        }
    }
}

/// Why a clustering request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The host's connected component in the remaining WPG has fewer than k
    /// users — the "disconnected problem" of paper Fig. 5: no algorithm can
    /// reach k-anonymity for this host.
    ComponentTooSmall { reachable: usize },
    /// A peer required by the protocol never answered (crashed or all
    /// retransmissions lost). Only produced by fallible transports.
    PeerUnreachable { peer: UserId },
    /// The adjacency gathered from peers is internally inconsistent at
    /// `user` — e.g. a member reports an edge its endpoint denies, a peer
    /// lists an id outside the transport's population (or the host itself
    /// lies outside it), or the final partition fails to cover the host.
    /// Impossible over an honest in-memory graph; only produced when a
    /// lying or corrupting transport feeds the algorithm contradictory
    /// views.
    Inconsistent { user: UserId },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ComponentTooSmall { reachable } => write!(
                f,
                "host's component has only {reachable} reachable users, below the anonymity level"
            ),
            ClusterError::PeerUnreachable { peer } => {
                write!(f, "peer {peer} is unreachable")
            }
            ClusterError::Inconsistent { user } => {
                write!(f, "peer-reported adjacency is inconsistent at user {user}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::Stamped;

    #[test]
    fn stamped_entries_stay_empty_across_an_epoch_wrap() {
        // An entry written in epoch 1 and never touched again must not
        // reappear when the epoch wraps around to 1.
        let mut t = Stamped::<u32>::default();
        t.reset(4);
        t.insert(2, 7);
        t.epoch = u32::MAX - 1;
        t.reset(4);
        t.insert(3, 9);
        assert_eq!(t.get(3), Some(9));
        t.reset(4);
        assert_eq!(t.epoch, 1);
        assert_eq!(t.get(2), None);
        assert!(!t.contains(3));
    }
}
