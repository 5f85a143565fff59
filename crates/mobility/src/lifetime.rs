//! Cluster lifetime management under mobility.
//!
//! A registered cluster was built as a t-connected set of the WPG at some
//! past tick: every member reached every other through edges of weight at
//! most the cluster's connectivity `t` (its MEW). Motion erodes that
//! certificate in two ways:
//!
//! - a member drifts out of radio range δ of its cluster peers, deleting
//!   the edges that connected it, or
//! - RSS ranks shift so an internal edge's weight rises above `t` (the MEW
//!   constraint breaks), cutting the t-connectivity path.
//!
//! Either way the cluster no longer certifies k-anonymity-by-proximity and
//! must not be reused. [`invalidate_broken_clusters`] audits every live
//! cluster against the *current* WPG and retires the broken ones through
//! [`ClusterRegistry::invalidate`], releasing their members to re-request;
//! [`invalidate_clusters_of_users`] audits only the clusters a tick can
//! have broken.
//!
//! Every audit is generic over the [`CertificateGraph`] it walks: a built
//! CSR ([`Wpg`]) or an incremental WPG's published rank rows
//! ([`RankRows`]), which give the same edges and weights, so the same
//! verdicts. Over the rows, a member's edge is probed (the peer's row
//! scanned for the reverse rank) only after the registry confirmed the
//! peer is a member.

use nela_cluster::registry::{ClusterId, ClusterRegistry};
use nela_geo::UserId;
use nela_wpg::{RankRows, Weight, Wpg};

/// Outcome of one lifetime audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Live clusters examined.
    pub checked: usize,
    /// Clusters retired this audit.
    pub invalidated: usize,
    /// Users released back to the unclustered pool.
    pub released: usize,
}

/// A WPG as a certificate audit reads it, one member at a time: a built
/// CSR or an incremental WPG's rank rows.
pub trait CertificateGraph {
    /// Calls `f(v)` for every edge `(u, v)` of weight at most `t` whose far
    /// endpoint `v` passes `keep`.
    fn for_each_light_edge(
        &self,
        u: UserId,
        t: Weight,
        keep: impl Fn(UserId) -> bool,
        f: impl FnMut(UserId),
    );
}

impl CertificateGraph for Wpg {
    fn for_each_light_edge(
        &self,
        u: UserId,
        t: Weight,
        keep: impl Fn(UserId) -> bool,
        mut f: impl FnMut(UserId),
    ) {
        for (v, w) in self.neighbors(u) {
            if w <= t && keep(v) {
                f(v);
            }
        }
    }
}

/// Over the rows, `keep` runs before the edge is probed, so a rejected peer
/// costs no scan of its row. The edge to `v = peers_of(u)[i]` weighs
/// `min(i + 1, rank of u at v)`: at `i < t` it is light whenever `v` lists
/// `u` at all, and otherwise only if `u` is among `v`'s first `t` peers, so
/// the probe scans no further than that.
impl CertificateGraph for RankRows<'_> {
    fn for_each_light_edge(
        &self,
        u: UserId,
        t: Weight,
        keep: impl Fn(UserId) -> bool,
        mut f: impl FnMut(UserId),
    ) {
        let t = t as usize;
        for (i, &v) in self.peers_of(u).iter().enumerate() {
            if keep(v) {
                let row = self.peers_of(v);
                let probe = if i < t { row } else { &row[..row.len().min(t)] };
                if probe.contains(&u) {
                    f(v);
                }
            }
        }
    }
}

/// Scratch of one certificate walk, reused across the clusters of an audit.
#[derive(Default)]
struct Walk {
    /// `reached[i]`: the walk has reached `members[i]`.
    reached: Vec<bool>,
    stack: Vec<UserId>,
}

/// True when `members` (ascending, as a registered cluster holds them) are
/// t-connected in `graph`: every member reaches every other through edges
/// of weight ≤ `t` between members. `is_member(v)` must hold exactly for
/// the members.
fn certified<G: CertificateGraph + ?Sized>(
    graph: &G,
    members: &[UserId],
    t: Weight,
    is_member: impl Fn(UserId) -> bool,
    walk: &mut Walk,
) -> bool {
    if members.len() <= 1 {
        return true;
    }
    let Walk { reached, stack } = walk;
    reached.clear();
    reached.resize(members.len(), false);
    reached[0] = true;
    stack.clear();
    stack.push(members[0]);
    let mut count = 1;
    while let Some(u) = stack.pop() {
        graph.for_each_light_edge(u, t, &is_member, |v| {
            if let Ok(i) = members.binary_search(&v) {
                if !reached[i] {
                    reached[i] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        });
    }
    count == members.len()
}

/// True when `members` (ascending) still form a t-connected set in
/// `graph`: every member reaches every other through member-internal edges
/// of weight ≤ `t`.
pub fn cluster_still_valid<G: CertificateGraph + ?Sized>(
    graph: &G,
    members: &[UserId],
    t: Weight,
) -> bool {
    let is_member = |v: UserId| members.binary_search(&v).is_ok();
    certified(graph, members, t, is_member, &mut Walk::default())
}

/// Audits live cluster `id` of `registry` against `graph`, retiring it
/// when its certificate broke. A peer counts as a member when the registry
/// assigns it to `id` — exactly the members of a live cluster.
fn audit_one<G: CertificateGraph + ?Sized>(
    registry: &mut ClusterRegistry,
    graph: &G,
    id: ClusterId,
    walk: &mut Walk,
    report: &mut InvalidationReport,
) {
    let rc = registry.get(id);
    report.checked += 1;
    let is_member = |v: UserId| registry.cluster_id_of(v) == Some(id);
    if !certified(
        graph,
        &rc.cluster.members,
        rc.cluster.connectivity,
        is_member,
        walk,
    ) {
        report.released += registry.invalidate(id);
        report.invalidated += 1;
    }
}

/// Retires every live cluster whose t-connectivity certificate no longer
/// holds in `graph`.
pub fn invalidate_broken_clusters<G: CertificateGraph + ?Sized>(
    registry: &mut ClusterRegistry,
    graph: &G,
) -> InvalidationReport {
    let live: Vec<ClusterId> = registry.active_clusters().map(|(id, _)| id).collect();
    let mut report = InvalidationReport::default();
    let mut walk = Walk::default();
    for id in live {
        audit_one(registry, graph, id, &mut walk, &mut report);
    }
    report
}

/// Epoch-based audit: re-checks only the live clusters containing a user in
/// `changed` (the users whose WPG rank list changed this tick, e.g.
/// `MobileWorld::changed_users`) and retires the broken ones.
///
/// **Exactness.** An edge's weight is the smaller of its endpoints' mutual
/// ranks, so an edge can only appear, vanish, or change weight when one of
/// its endpoints' rank lists changed: every changed edge has an endpoint in
/// `changed`. (The other endpoint need not be there: its own list can stay
/// as it was while the edge moves or goes.) A cluster's certificate depends
/// only on edges between members, and a changed edge between two members
/// puts one of them in `changed`. So a cluster with no member in `changed`
/// has exactly the internal edges, and the certificate, it had last tick,
/// when it was valid. Auditing only the touched clusters therefore retires
/// exactly the clusters [`invalidate_broken_clusters`] would.
pub fn invalidate_clusters_of_users<G: CertificateGraph + ?Sized>(
    registry: &mut ClusterRegistry,
    graph: &G,
    changed: &[UserId],
) -> InvalidationReport {
    let mut touched: Vec<ClusterId> = changed
        .iter()
        .filter_map(|&u| registry.cluster_id_of(u))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let mut report = InvalidationReport::default();
    let mut walk = Walk::default();
    for id in touched {
        if !registry.get(id).retired {
            audit_one(registry, graph, id, &mut walk, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_cluster::Cluster;
    use nela_wpg::{Edge, Wpg};

    fn path_graph(weights: &[u32]) -> Wpg {
        let edges: Vec<Edge> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Edge::new(i as UserId, i as UserId + 1, w))
            .collect();
        Wpg::from_edges(weights.len() + 1, &edges)
    }

    #[test]
    fn connected_cluster_is_valid() {
        let g = path_graph(&[1, 2, 1]);
        assert!(cluster_still_valid(&g, &[0, 1, 2, 3], 2));
    }

    #[test]
    fn raised_edge_weight_breaks_validity() {
        // Same membership, but the middle edge's weight exceeds t.
        let g = path_graph(&[1, 3, 1]);
        assert!(!cluster_still_valid(&g, &[0, 1, 2, 3], 2));
    }

    #[test]
    fn missing_member_edge_breaks_validity() {
        // Member 3 is isolated from {0,1} in the current graph.
        let g = Wpg::from_edges(4, &[Edge::new(0, 1, 1)]);
        assert!(!cluster_still_valid(&g, &[0, 1, 3], 2));
        assert!(cluster_still_valid(&g, &[0, 1], 2));
    }

    #[test]
    fn connectivity_must_be_internal_to_the_cluster() {
        // 0 and 2 are connected only through 1, which is not a member.
        let g = path_graph(&[1, 1]);
        assert!(!cluster_still_valid(&g, &[0, 2], 2));
    }

    #[test]
    fn audit_retires_only_broken_clusters() {
        let g = path_graph(&[1, 3, 1]); // edges: 0-1 w1, 1-2 w3, 2-3 w1
        let mut reg = ClusterRegistry::new(4);
        let ok = reg.register(Cluster {
            members: vec![0, 1],
            connectivity: 1,
        });
        let broken = reg.register(Cluster {
            members: vec![2, 3],
            connectivity: 1,
        });
        // Break the second cluster by auditing against a graph without its
        // edge.
        let g2 = Wpg::from_edges(4, &[Edge::new(0, 1, 1)]);
        let _ = g;
        let report = invalidate_broken_clusters(&mut reg, &g2);
        assert_eq!(
            report,
            InvalidationReport {
                checked: 2,
                invalidated: 1,
                released: 2
            }
        );
        assert!(!reg.get(ok).retired);
        assert!(reg.get(broken).retired);
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn epoch_audit_retires_same_clusters_as_full_audit() {
        // Two clusters; the current graph breaks only the second. The
        // epoch-scoped audit fed the changed member must retire exactly what
        // the full sweep retires, and skip untouched clusters entirely.
        let build = || {
            let mut reg = ClusterRegistry::new(4);
            let ok = reg.register(Cluster {
                members: vec![0, 1],
                connectivity: 1,
            });
            let broken = reg.register(Cluster {
                members: vec![2, 3],
                connectivity: 1,
            });
            (reg, ok, broken)
        };
        let g2 = Wpg::from_edges(4, &[Edge::new(0, 1, 1)]);
        let (mut full_reg, _, _) = build();
        let full = invalidate_broken_clusters(&mut full_reg, &g2);
        let (mut epoch_reg, ok, broken) = build();
        // Only users 2 and 3 changed (their edge vanished — mutuality puts
        // both in the changed set). Duplicates must not double-audit.
        let report = invalidate_clusters_of_users(&mut epoch_reg, &g2, &[3, 2, 3]);
        assert_eq!(report.checked, 1, "untouched cluster must not be audited");
        assert_eq!(report.invalidated, full.invalidated);
        assert_eq!(report.released, full.released);
        assert!(!epoch_reg.get(ok).retired);
        assert!(epoch_reg.get(broken).retired);
        // An empty changed set audits nothing.
        let report = invalidate_clusters_of_users(&mut epoch_reg, &g2, &[]);
        assert_eq!(report, InvalidationReport::default());
        // Changed users without a cluster are ignored.
        let report = invalidate_clusters_of_users(&mut epoch_reg, &g2, &[0]);
        assert_eq!(report.checked, 1);
        assert_eq!(report.invalidated, 0);
    }

    #[test]
    fn audit_is_stable_when_nothing_breaks() {
        let g = path_graph(&[1, 1, 1]);
        let mut reg = ClusterRegistry::new(4);
        reg.register(Cluster {
            members: vec![0, 1, 2, 3],
            connectivity: 1,
        });
        let report = invalidate_broken_clusters(&mut reg, &g);
        assert_eq!(report.invalidated, 0);
        assert_eq!(reg.active_cluster_count(), 1);
    }
}
