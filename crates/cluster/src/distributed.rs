//! Distributed t-connectivity k-clustering (paper Algorithm 2).
//!
//! Run by a host vertex that discovers the WPG incrementally by asking peers
//! for their adjacency lists. Three steps:
//!
//! 1. **Span** (lines 1–6): grow a cluster from the host through edges in
//!    increasing weight order (Prim-style) until it holds exactly k vertices;
//!    the spanning bottleneck is the connectivity t. (The Prim bottleneck
//!    equals the minimum threshold at which the host's t-connectivity class
//!    reaches size k, so C is a size-k certificate of the smallest valid
//!    t-connectivity cluster. C is deliberately *not* expanded to the full
//!    equivalence class here: under coarse rank weights the class can
//!    percolate to thousands of users, and the paper's reported costs —
//!    ≈ |C| + |border(C)| messages — only arise for the size-k cluster.)
//! 2. **Border validation** (lines 7–15): every external border vertex must
//!    itself own a valid t-connectivity k-cluster in the remaining WPG
//!    (Theorem 4.4's sufficient condition for isolation). A failing border
//!    vertex is absorbed, t grows to the lightest edge joining it to C, the
//!    cluster is then *spanned with the new t* (closed under t-reachability,
//!    per line 14), and newly exposed border vertices join the queue. A
//!    vertex that passed once is not rechecked (t only increases).
//! 3. **Partition** (lines 16–17): the absorbed super-cluster is cut by the
//!    centralized algorithm (over the adjacency the host has already
//!    gathered — no further messages); the host's piece is its k-anonymity
//!    cluster, and *every* piece is returned so the caller can register them
//!    all — subsequent requests by any super-cluster member are then served
//!    with zero communication (paper §VI-C).
//!
//! Communication accounting follows §VI: "if a user is involved in the
//! k-clustering process, only a single message containing the adjacent
//! vertices as well as the edge weights is sent to the host vertex", so the
//! cost equals the number of distinct users whose adjacency the host
//! fetched (the host's own list is local and free). The algorithm is written
//! against [`crate::fetch::PeerFetch`], so the identical code runs over an
//! in-memory graph or over `nela-netsim`'s simulated radio network.
//!
//! The host works on flat per-user tables kept per thread and reused by
//! every request (`AdjTables` in [`crate::fetch`] and `Growing` here), sized to
//! the transport's population: membership, the border queue's history and
//! each border check's visits are epoch stamps, so a request clears them by
//! raising its epoch, never by touching the population.

use crate::centralized::centralized_k_clustering_edges;
use crate::fetch::{AdjCache, LocalFetch, PeerFetch, ADJ_TABLES};
use crate::{Cluster, ClusterError, KPolicy, Stamped};
use nela_geo::UserId;
use nela_wpg::{Edge, Weight, Wpg};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Result of a distributed clustering request.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The host's k-anonymity cluster (a piece of the super-cluster).
    pub host_cluster: Cluster,
    /// Every cluster produced by partitioning the super-cluster, including
    /// the host's. All are valid (size ≥ the partition requirement — `k`
    /// under a uniform policy, the super-cluster's max `k_i` otherwise).
    pub all_clusters: Vec<Cluster>,
    /// The super-cluster: the host's spanned cluster after border
    /// absorption (sorted).
    pub super_cluster: Vec<UserId>,
    /// Final connectivity threshold t of the super-cluster.
    pub connectivity: Weight,
    /// Number of peers whose adjacency list the host had to fetch — the
    /// per-request communication cost of §VI.
    pub involved_users: usize,
    /// The anonymity requirement the host's cluster had to meet: `k` under
    /// a uniform policy, the max `k_i` over `host_cluster`'s members under
    /// a personalized one.
    pub required_k: usize,
}

/// Runs Algorithm 2 for `host` on an in-memory WPG. See
/// [`distributed_k_clustering_with`] for the transport-generic version.
pub fn distributed_k_clustering(
    g: &Wpg,
    host: UserId,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<DistributedOutcome, ClusterError> {
    let mut fetch = LocalFetch::new(g);
    distributed_k_clustering_with(&mut fetch, host, k, removed)
}

/// Runs Algorithm 2 for `host`, fetching peer adjacency through `fetch`.
/// Vertices with `removed(v) == true` (previously clustered users) are
/// treated as absent from the remaining WPG.
///
/// # Errors
/// - [`ClusterError::ComponentTooSmall`] when fewer than k users are
///   reachable from the host in the remaining WPG.
/// - [`ClusterError::PeerUnreachable`] when a required peer cannot be
///   contacted (only possible with fallible transports).
/// - [`ClusterError::Inconsistent`] when peer lists contradict each other,
///   or the host or a listed peer lies outside the transport's population.
pub fn distributed_k_clustering_with(
    fetch: &mut dyn PeerFetch,
    host: UserId,
    k: usize,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<DistributedOutcome, ClusterError> {
    assert!(k >= 1, "anonymity level must be at least 1");
    distributed_k_clustering_with_policy(fetch, host, KPolicy::Uniform(k), removed)
}

/// Transport-generic Algorithm 2 under a per-user anonymity policy.
///
/// Under [`KPolicy::Uniform`] this is **bit-identical** to the original
/// single-`k` algorithm: the requirement below is constant, so every heap
/// pop, border check and partition decision is unchanged. Under
/// [`KPolicy::PerUser`] the requirement is a moving target — the max `k_i`
/// of the members gathered so far — so absorbing a high-`k_i` user can
/// demand further spanning; the outer loop below re-spans until the
/// cluster satisfies every member it holds.
///
/// # Errors
/// As [`distributed_k_clustering_with`]; `ComponentTooSmall` fires when
/// the host's component cannot reach the (possibly raised) requirement.
pub fn distributed_k_clustering_with_policy(
    fetch: &mut dyn PeerFetch,
    host: UserId,
    kp: KPolicy<'_>,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<DistributedOutcome, ClusterError> {
    let population = fetch.population();
    if host as usize >= population {
        return Err(ClusterError::Inconsistent { user: host });
    }
    assert!(kp.of(host) >= 1, "anonymity level must be at least 1");
    assert!(!removed(host), "host must not be already clustered");
    crate::with_scratch(&ADJ_TABLES, |adj_tables| {
        crate::with_scratch(&GROWING, |c| {
            c.begin(population, host);
            algorithm2(AdjCache::new(fetch, host, adj_tables), c, host, kp, removed)
        })
    })
}

/// Algorithm 2 over the host's emptied tables.
fn algorithm2(
    mut adj: AdjCache<'_>,
    c: &mut Growing,
    host: UserId,
    kp: KPolicy<'_>,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<DistributedOutcome, ClusterError> {
    let mut t: Weight = 0;
    loop {
        // ---- Step 1: Prim-style span to the current requirement (exactly
        // k in the uniform case; the max k_i of the members so far in the
        // personalized one).
        span_to_requirement(&mut adj, c, &mut t, kp, removed)?;

        // ---- Step 2: border validation loop. A vertex that passed once is
        // not rechecked within one pass (t only increases).
        c.border.clear();
        collect_border(&mut adj, c, removed)?;

        while let Some(v) = c.border.pop_front() {
            if c.contains(v) {
                continue; // absorbed since it was enqueued
            }
            if border_has_valid_cluster(&mut adj, v, t, kp, removed, c)? {
                continue; // passes now, passes forever (t only increases)
            }
            // Absorb v; t rises to the lightest edge joining v to C. A border
            // vertex was enqueued because some member listed it, so its own list
            // must name a member back — unless the transport lied.
            let join_w = adj
                .get(v)?
                .iter()
                .filter(|&&(y, _)| c.contains(y))
                .map(|&(_, w)| w)
                .min()
                .ok_or(ClusterError::Inconsistent { user: v })?;
            c.insert(v);
            t = t.max(join_w);
            close_under_t(&mut adj, c, t, v, removed)?;
            collect_border(&mut adj, c, removed)?;
        }

        // Uniform policy: step 1 reached k and absorption only grows the
        // cluster, so this always holds and the loop runs exactly once.
        // Personalized: an absorbed member may have raised the requirement
        // past the current size — re-span with the enlarged border state.
        if c.len() >= kp.required(c.members.iter().copied()) {
            break;
        }
    }

    // ---- Step 3: centralized partition of the super-cluster, over the
    // adjacency already gathered (every member's list is cached). The
    // partition must satisfy the strictest member, so it cuts at the
    // super-cluster's own requirement. Each member's slot records its
    // position, which names it in the partition's edge list.
    let mut super_cluster = c.members.clone();
    super_cluster.sort_unstable();
    let k_part = kp.required(super_cluster.iter().copied());
    for (i, &m) in super_cluster.iter().enumerate() {
        c.pos[m as usize] = i as u32;
    }
    let Growing {
        member, pos, edges, ..
    } = c;
    let position = |v: UserId| member.contains(v).then(|| pos[v as usize]);
    adj.internal_edges(&super_cluster, position, edges);
    let partition = centralized_k_clustering_edges(&super_cluster, edges, k_part);
    // Over an honest transport the super-cluster is connected and ≥ k, so
    // its partition covers everyone, host included. Peer lists are outside
    // input, and contradictory ones can leave pieces underfilled.
    let host_idx = partition
        .cluster_of(host)
        .ok_or(ClusterError::Inconsistent { user: host })?;
    if let Some(piece) = partition.underfilled.first() {
        return Err(ClusterError::Inconsistent { user: piece[0] });
    }
    let host_cluster = partition.clusters[host_idx].clone();
    let required_k = kp.required(host_cluster.members.iter().copied());

    Ok(DistributedOutcome {
        host_cluster,
        all_clusters: partition.clusters,
        super_cluster,
        connectivity: t,
        involved_users: adj.contacted(),
        required_k,
    })
}

/// The super-cluster C as it grows, in per-user tables reused across
/// requests: membership, the order members joined, and how far closure
/// and border collection have already looked, so neither re-walks members
/// it has seen — plus the work lists of the span, the closure, the border
/// queue and the border checks.
#[derive(Default)]
struct Growing {
    /// The members of C.
    member: Stamped<()>,
    /// Every user ever put on the border queue (one that passed its check
    /// is not rechecked: t only increases).
    queued: Stamped<()>,
    /// The users the current border check has reached.
    visited: Stamped<()>,
    /// A member's index in the sorted super-cluster, written for step 3
    /// and read only for members.
    pos: Vec<u32>,
    members: Vec<UserId>,
    /// The t of the last full closure. While t stays there, `members` is
    /// closed under t-reachability: the span never breaks that, because a
    /// closed C's external edges are all heavier than t, so anything the
    /// span adds raises t.
    closed_at: Option<Weight>,
    /// `members[..bordered]` have had their border vertices collected.
    bordered: usize,
    /// Work list of the span, the closure and the border collection.
    work: Vec<UserId>,
    /// Border vertices awaiting their check.
    border: VecDeque<UserId>,
    /// Breadth-first queue of one border check (every vertex it visited).
    bfs: Vec<UserId>,
    /// The span's frontier, keyed `w << 32 | v` (the order of `(w, v)`).
    heap: BinaryHeap<Reverse<u64>>,
    /// The super-cluster's internal edges for step 3.
    edges: Vec<Edge>,
}

thread_local! {
    /// One super-cluster table per thread running phase 1.
    static GROWING: RefCell<Growing> = RefCell::new(Growing::default());
}

impl Growing {
    /// Starts a request by `host` over `population` users: C and the
    /// border history empty without touching the tables.
    fn begin(&mut self, population: usize, host: UserId) {
        self.member.reset(population);
        self.queued.reset(population);
        if self.pos.len() < population {
            self.pos.resize(population, 0);
        }
        self.members.clear();
        self.closed_at = None;
        self.bordered = 0;
        self.insert(host);
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, u: UserId) -> bool {
        self.member.contains(u)
    }

    /// Adds `u`; false when it already was a member.
    fn insert(&mut self, u: UserId) -> bool {
        let fresh = !self.contains(u);
        if fresh {
            self.member.insert(u, ());
            self.members.push(u);
        }
        fresh
    }

    /// True when `u` is neither in C nor ever queued for a border check.
    fn unqueued(&self, u: UserId) -> bool {
        !self.contains(u) && !self.queued.contains(u)
    }

    /// Starts a border check from `v`: the visited set empties and then
    /// holds `v` alone.
    fn begin_check(&mut self, v: UserId) {
        // `pos` spans every user `begin` made room for.
        self.visited.reset(self.pos.len());
        self.visited.insert(v, ());
        self.bfs.clear();
        self.bfs.push(v);
    }

    /// True when `u` is neither in C nor visited by the current check.
    fn unseen(&self, u: UserId) -> bool {
        !self.contains(u) && !self.visited.contains(u)
    }

    /// Marks `u` visited by the current check.
    fn visit(&mut self, u: UserId) {
        self.visited.insert(u, ());
    }
}

/// The span's heap key of edge weight `w` to vertex `v`.
fn heap_key(w: Weight, v: UserId) -> u64 {
    (u64::from(w) << 32) | u64::from(v)
}

/// Grows C Prim-style through edges in increasing weight order until its
/// size meets the policy requirement of its own members (Algorithm 2
/// lines 1–6). The heap is seeded from every current member's external
/// edges; on the first call C is just the host, reproducing the original
/// span exactly.
fn span_to_requirement(
    adj: &mut AdjCache<'_>,
    c: &mut Growing,
    t: &mut Weight,
    kp: KPolicy<'_>,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<(), ClusterError> {
    let mut need = kp.required(c.members.iter().copied());
    if c.len() >= need {
        return Ok(());
    }
    c.work.clear();
    c.work.extend_from_slice(&c.members);
    c.work.sort_unstable();
    c.heap.clear();
    for i in 0..c.work.len() {
        for &(v, w) in adj.get(c.work[i])? {
            if !c.contains(v) && !removed(v) {
                c.heap.push(Reverse(heap_key(w, v)));
            }
        }
    }
    while c.len() < need {
        let Some(Reverse(key)) = c.heap.pop() else {
            return Err(ClusterError::ComponentTooSmall { reachable: c.len() });
        };
        let (w, v) = ((key >> 32) as Weight, key as UserId);
        if !c.insert(v) {
            continue;
        }
        need = need.max(kp.of(v));
        *t = (*t).max(w);
        for &(y, wy) in adj.get(v)? {
            if !c.contains(y) && !removed(y) {
                c.heap.push(Reverse(heap_key(wy, y)));
            }
        }
    }
    Ok(())
}

/// Adds every not-yet-enqueued border vertex of C to the check queue. The
/// adjacency of C members is already cached at the host, so this costs no
/// new messages. A member scanned by an earlier call has already enqueued
/// every border vertex it lists (C only grows), so only the members added
/// since are scanned; visiting them in id order gives the queue the order a
/// rescan of all members in id order would — and with it a deterministic
/// absorption sequence.
fn collect_border(
    adj: &mut AdjCache<'_>,
    c: &mut Growing,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<(), ClusterError> {
    c.work.clear();
    c.work.extend_from_slice(&c.members[c.bordered..]);
    c.work.sort_unstable();
    c.bordered = c.members.len();
    for i in 0..c.work.len() {
        for &(v, _) in adj.get(c.work[i])? {
            if c.unqueued(v) && !removed(v) {
                c.queued.insert(v, ());
                c.border.push_back(v);
            }
        }
    }
    Ok(())
}

/// Expands C to its t-reachability closure ("span C with new t",
/// Algorithm 2 line 14) after `newcomer` joined, fetching the adjacency of
/// every vertex that enters. While t is unchanged since the last full
/// closure, C without the newcomer is already closed, so the walk starts
/// from the newcomer alone; after t rises it starts from every member —
/// at most once per distinct t.
fn close_under_t(
    adj: &mut AdjCache<'_>,
    c: &mut Growing,
    t: Weight,
    newcomer: UserId,
    removed: &dyn Fn(UserId) -> bool,
) -> Result<(), ClusterError> {
    c.work.clear();
    if c.closed_at == Some(t) {
        c.work.push(newcomer);
    } else {
        c.work.extend_from_slice(&c.members);
        c.closed_at = Some(t);
    }
    while let Some(x) = c.work.pop() {
        for &(y, w) in adj.get(x)? {
            if w <= t && !c.contains(y) && !removed(y) {
                c.insert(y);
                c.work.push(y);
            }
        }
    }
    Ok(())
}

/// Does border vertex `v` own a t-connectivity cluster satisfying the
/// policy in the remaining WPG (previous removals plus the current
/// super-cluster)? Under a uniform policy the BFS stops as soon as k
/// vertices are seen (the common passing case contacts only ~k peers);
/// under a personalized one the target is the max `k_i` of the *whole*
/// t-component — a partial count could miss a strict member beyond the
/// horizon — so the component is walked in full.
fn border_has_valid_cluster(
    adj: &mut AdjCache<'_>,
    v: UserId,
    t: Weight,
    kp: KPolicy<'_>,
    removed: &dyn Fn(UserId) -> bool,
    c: &mut Growing,
) -> Result<bool, ClusterError> {
    c.begin_check(v);
    // Every visited vertex sits in `bfs`; those before `head` are expanded.
    let mut head = 0;
    match kp {
        KPolicy::Uniform(k) => {
            if k <= 1 {
                return Ok(true);
            }
            while let Some(&x) = c.bfs.get(head) {
                head += 1;
                for &(y, w) in adj.get(x)? {
                    if w <= t && c.unseen(y) && !removed(y) {
                        c.visit(y);
                        if c.bfs.len() + 1 >= k {
                            return Ok(true);
                        }
                        c.bfs.push(y);
                    }
                }
            }
            Ok(false)
        }
        KPolicy::PerUser(_) => {
            let mut need = kp.of(v);
            while let Some(&x) = c.bfs.get(head) {
                head += 1;
                for &(y, w) in adj.get(x)? {
                    if w <= t && c.unseen(y) && !removed(y) {
                        c.visit(y);
                        need = need.max(kp.of(y));
                        c.bfs.push(y);
                    }
                }
            }
            Ok(c.bfs.len() >= need.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_wpg::{topology, Edge};
    use std::collections::HashSet;

    fn no_removed(_: UserId) -> bool {
        false
    }

    /// Paper Fig. 7's walk-through graph: host u spans {u, v} at t = 5;
    /// border vertex w fails the 2-cluster check and is absorbed; border
    /// vertex x passes. Reconstructed with ids:
    /// u=0, v=1, w=2, x=3, plus two more vertices forming x's 2-cluster and
    /// a vertex completing the border of {u,v}.
    fn fig7_like() -> Wpg {
        Wpg::from_edges(
            6,
            &[
                Edge::new(0, 1, 5), // u-v: the initial 2-cluster at t=5
                Edge::new(0, 2, 7), // u-w
                Edge::new(1, 4, 8), // v-(another border vertex)
                Edge::new(2, 3, 6), // w-x
                Edge::new(3, 5, 3), // x and 5 form a 2-cluster at t=5
                Edge::new(4, 5, 4), // 4 and 5 connected under t=5 too
            ],
        )
    }

    #[test]
    fn fig7_walkthrough() {
        let g = fig7_like();
        let out = distributed_k_clustering(&g, 0, 2, &no_removed).unwrap();
        // w(=2) has no 5-connected companion once {0,1} is carved out, so it
        // must be absorbed; t rises to 7 (edge u-w), and the closure under 7
        // pulls in the rest of the graph, whose partition still gives the
        // host the tight {u, v} cluster.
        assert!(out.super_cluster.contains(&2), "w must be absorbed");
        assert!(out.host_cluster.contains(0));
        assert!(out.host_cluster.is_valid(2));
        assert!(out.involved_users > 0);
    }

    #[test]
    fn spans_minimum_weight_first() {
        // Star around 0 with distinct weights: 2-cluster takes the lightest.
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 3), Edge::new(0, 2, 1), Edge::new(0, 3, 2)],
        );
        let out = distributed_k_clustering(&g, 0, 2, &no_removed).unwrap();
        assert!(out.host_cluster.contains(2), "lightest neighbor chosen");
    }

    #[test]
    fn unreachable_k_errors() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1)]);
        let err = distributed_k_clustering(&g, 0, 3, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::ComponentTooSmall { reachable: 2 });
    }

    #[test]
    fn host_cluster_is_valid_and_contains_host() {
        let g = topology::small_world(60, 4, 0.2, 8, 21);
        for host in [0u32, 7, 33, 59] {
            let out = distributed_k_clustering(&g, host, 5, &no_removed).unwrap();
            assert!(out.host_cluster.contains(host));
            assert!(out.host_cluster.is_valid(5));
            // host cluster is inside the super-cluster
            for m in &out.host_cluster.members {
                assert!(out.super_cluster.binary_search(m).is_ok());
            }
        }
    }

    #[test]
    fn all_clusters_partition_super_cluster() {
        let g = topology::small_world(80, 6, 0.3, 10, 5);
        let out = distributed_k_clustering(&g, 11, 6, &no_removed).unwrap();
        let mut all: Vec<UserId> = out
            .all_clusters
            .iter()
            .flat_map(|c| c.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, out.super_cluster);
        for c in &out.all_clusters {
            assert!(c.is_valid(6));
        }
    }

    #[test]
    fn removed_users_are_never_clustered() {
        let g = topology::ring_lattice(30, 4, 5, 3);
        let removed = |u: UserId| u % 3 == 0 && u != 6; // host 6 stays
        let out = distributed_k_clustering(&g, 6, 3, &removed).unwrap();
        for &m in &out.super_cluster {
            assert!(!(removed)(m), "clustered a removed user {m}");
        }
    }

    #[test]
    fn super_cluster_is_internally_t_connected() {
        // C must be mutually t-connected through internal edges at the
        // reported connectivity (it was spanned through edges ≤ t).
        let g = topology::small_world(50, 4, 0.25, 7, 13);
        let out = distributed_k_clustering(&g, 3, 4, &no_removed).unwrap();
        let set: HashSet<UserId> = out.super_cluster.iter().copied().collect();
        let outside = |u: UserId| !set.contains(&u);
        let mut reached = nela_wpg::connectivity::t_cluster_of(&g, 3, out.connectivity, &outside);
        reached.sort_unstable();
        assert_eq!(reached, out.super_cluster);
    }

    #[test]
    fn no_failure_case_keeps_cluster_at_exactly_k() {
        // Dense unit-weight lattice: t = 1 spans everything, so every border
        // vertex trivially has a valid cluster and C stays at the k vertices
        // Prim found (the paper's common case, cost ≈ |C| + |border|) —
        // independent of the weight stream.
        let g = topology::ring_lattice(60, 6, 1, 4);
        let out = distributed_k_clustering(&g, 10, 5, &no_removed).unwrap();
        assert_eq!(out.super_cluster.len(), 5);
        assert_eq!(out.host_cluster.len(), 5);
    }

    #[test]
    fn border_condition_holds_at_termination() {
        // Theorem 4.4's sufficient condition: every border vertex has a
        // valid t-connectivity cluster in the remaining WPG.
        let g = topology::small_world(60, 4, 0.2, 6, 17);
        let out = distributed_k_clustering(&g, 20, 4, &no_removed).unwrap();
        let set: HashSet<UserId> = out.super_cluster.iter().copied().collect();
        let mut border: HashSet<UserId> = HashSet::new();
        for &c in &out.super_cluster {
            for (v, _) in g.neighbors(c) {
                if !set.contains(&v) {
                    border.insert(v);
                }
            }
        }
        for &b in &border {
            let removed = |u: UserId| set.contains(&u);
            assert!(
                nela_wpg::connectivity::has_t_cluster_of_size(&g, b, out.connectivity, 4, &removed),
                "border vertex {b} lacks a valid cluster"
            );
        }
    }

    #[test]
    fn involved_users_at_least_cluster_size() {
        let g = topology::ring_lattice(40, 4, 5, 1);
        let out = distributed_k_clustering(&g, 0, 5, &no_removed).unwrap();
        // The host contacted at least every other super-cluster member.
        assert!(out.involved_users >= out.super_cluster.len() - 1);
    }

    #[test]
    fn k1_returns_quickly() {
        let g = Wpg::from_edges(2, &[Edge::new(0, 1, 1)]);
        let out = distributed_k_clustering(&g, 0, 1, &no_removed).unwrap();
        assert!(out.host_cluster.contains(0));
    }

    #[test]
    fn personalized_all_equal_is_bit_identical_to_uniform() {
        // KPolicy::PerUser with every k_i == k must reproduce the uniform
        // outcome exactly — same clusters, same t, same message count —
        // even though the border check walks a different code path.
        let g = topology::small_world(80, 6, 0.25, 9, 42);
        let ks = vec![5usize; 80];
        for host in [0u32, 7, 23, 61, 79] {
            let uni = distributed_k_clustering(&g, host, 5, &no_removed).unwrap();
            let per = distributed_k_clustering_with_policy(
                &mut LocalFetch::new(&g),
                host,
                KPolicy::PerUser(&ks),
                &no_removed,
            )
            .unwrap();
            assert_eq!(per.host_cluster, uni.host_cluster, "host {host}");
            assert_eq!(per.all_clusters, uni.all_clusters);
            assert_eq!(per.super_cluster, uni.super_cluster);
            assert_eq!(per.connectivity, uni.connectivity);
            assert_eq!(per.involved_users, uni.involved_users);
            assert_eq!(per.required_k, uni.required_k);
            assert_eq!(uni.required_k, 5);
        }
    }

    #[test]
    fn strict_member_raises_the_cluster_requirement() {
        // Everyone asks for k=2 except one strict user asking for 6: any
        // cluster that captures the strict user must reach 6 members.
        let g = topology::ring_lattice(30, 4, 5, 3);
        let mut ks = vec![2usize; 30];
        ks[11] = 6;
        let kp = KPolicy::PerUser(&ks);
        let out =
            distributed_k_clustering_with_policy(&mut LocalFetch::new(&g), 11, kp, &no_removed)
                .unwrap();
        assert!(out.host_cluster.contains(11));
        assert!(out.required_k >= 6);
        assert!(
            out.host_cluster.len() >= 6,
            "strict member underserved: {:?}",
            out.host_cluster
        );
        for c in &out.all_clusters {
            assert!(c.is_valid_for(kp), "piece violates its members: {c:?}");
        }
    }

    #[test]
    fn absorbing_a_strict_user_triggers_respan() {
        // Host 0 asks for 2 and spans {0, 1} at t=1. Isolated strict user
        // 2 (k_i = 5) fails its border check and is absorbed; the other
        // border vertex passes, so the queue drains with only 3 members —
        // below the absorbed user's requirement. The outer loop must then
        // re-span from the enlarged cluster until all 5 vertices are in.
        let g = Wpg::from_edges(
            5,
            &[
                Edge::new(0, 1, 1), // host's 2-cluster at t=1
                Edge::new(0, 2, 3), // strict user 2, no other neighbors
                Edge::new(1, 3, 4), // border vertex 3...
                Edge::new(3, 4, 2), // ...passes: {3, 4} is a 2-cluster
            ],
        );
        let mut ks = vec![2usize; 5];
        ks[2] = 5;
        let kp = KPolicy::PerUser(&ks);
        let out =
            distributed_k_clustering_with_policy(&mut LocalFetch::new(&g), 0, kp, &no_removed)
                .unwrap();
        assert!(out.super_cluster.contains(&2), "strict user absorbed");
        assert_eq!(out.super_cluster.len(), 5, "{:?}", out.super_cluster);
        assert_eq!(out.required_k, 5);
        for c in &out.all_clusters {
            assert!(c.is_valid_for(kp));
        }
    }

    #[test]
    fn personalized_component_too_small_is_typed() {
        // The strict user demands more anonymity than its component holds.
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let ks = vec![5usize, 1, 1];
        let err = distributed_k_clustering_with_policy(
            &mut LocalFetch::new(&g),
            0,
            KPolicy::PerUser(&ks),
            &no_removed,
        )
        .unwrap_err();
        assert_eq!(err, ClusterError::ComponentTooSmall { reachable: 3 });
    }

    #[test]
    fn lying_peer_yields_typed_inconsistency_not_panic() {
        // Peer 1 reports an edge to 2, but 2 denies every edge its peers
        // claim. 2 fails the border check, must be absorbed, and has no
        // joining edge — a state that used to panic and now surfaces as a
        // typed error the engine can degrade on.
        struct Liar;
        impl PeerFetch for Liar {
            fn population(&self) -> usize {
                3
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                out.extend_from_slice(match u {
                    0 => &[(1, 5)],
                    1 => &[(0, 5), (2, 9)],
                    _ => &[],
                });
                true
            }
        }
        let err = distributed_k_clustering_with(&mut Liar, 0, 2, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::Inconsistent { user: 2 });
    }

    /// Peer 1 lists a neighbor outside the two-user population. Without the
    /// population bound the span would fetch that id's list and absorb it
    /// into the super-cluster `[0, 1, u32::MAX]`.
    struct OutOfPopulation;
    impl PeerFetch for OutOfPopulation {
        fn population(&self) -> usize {
            2
        }
        fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
            out.extend_from_slice(match u {
                0 => &[(1, 5)],
                1 => &[(0, 5), (UserId::MAX, 9)],
                _ => &[(1, 9)],
            });
            true
        }
    }

    #[test]
    fn out_of_population_peer_yields_typed_inconsistency_under_uniform_k() {
        let err =
            distributed_k_clustering_with(&mut OutOfPopulation, 0, 2, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::Inconsistent { user: 1 });
    }

    #[test]
    fn out_of_population_peer_yields_typed_inconsistency_under_personalized_k() {
        // The personalized policy must not look the stray id up in `ks`.
        let ks = vec![2usize; 2];
        let err = distributed_k_clustering_with_policy(
            &mut OutOfPopulation,
            0,
            KPolicy::PerUser(&ks),
            &no_removed,
        )
        .unwrap_err();
        assert_eq!(err, ClusterError::Inconsistent { user: 1 });
    }

    #[test]
    fn a_transport_that_reenters_phase_1_runs_it_on_fresh_tables() {
        // Every fetch runs a whole request of its own on the same thread,
        // while the outer request holds the thread's tables.
        struct Reentrant<'a> {
            inner: LocalFetch<'a>,
            g: &'a Wpg,
        }
        impl PeerFetch for Reentrant<'_> {
            fn population(&self) -> usize {
                self.inner.population()
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                let _ = distributed_k_clustering(self.g, u, 3, &no_removed);
                self.inner.fetch_into(u, out)
            }
        }
        let g = topology::small_world(60, 4, 0.2, 8, 21);
        let plain = distributed_k_clustering(&g, 7, 5, &no_removed).unwrap();
        let mut f = Reentrant {
            inner: LocalFetch::new(&g),
            g: &g,
        };
        let nested = distributed_k_clustering_with(&mut f, 7, 5, &no_removed).unwrap();
        assert_eq!(nested.all_clusters, plain.all_clusters);
        assert_eq!(nested.super_cluster, plain.super_cluster);
        assert_eq!(nested.involved_users, plain.involved_users);
    }

    #[test]
    fn host_outside_the_population_is_typed() {
        let g = topology::ring_lattice(20, 2, 3, 2);
        let err = distributed_k_clustering(&g, 20, 2, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::Inconsistent { user: 20 });
    }

    #[test]
    fn one_sided_edge_yields_typed_inconsistency_in_every_build() {
        // Host 1 lists an edge to 0 that 0 denies. The span takes 0 through
        // the host's list, but the partition sees only edges listed by their
        // smaller endpoint, so both users end up underfilled: the error must
        // be typed in debug builds too, not an assertion.
        struct OneSided;
        impl PeerFetch for OneSided {
            fn population(&self) -> usize {
                2
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                if u == 1 {
                    out.push((0, 5));
                }
                true
            }
        }
        let err = distributed_k_clustering_with(&mut OneSided, 1, 2, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::Inconsistent { user: 1 });
    }

    #[test]
    fn dead_peer_aborts_with_unreachable() {
        struct DeadPeer<'a> {
            inner: LocalFetch<'a>,
            dead: UserId,
        }
        impl PeerFetch for DeadPeer<'_> {
            fn population(&self) -> usize {
                self.inner.population()
            }
            fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
                u != self.dead && self.inner.fetch_into(u, out)
            }
        }
        let g = topology::ring_lattice(20, 2, 3, 2);
        let mut f = DeadPeer {
            inner: LocalFetch::new(&g),
            dead: 1,
        };
        // Host 0 needs its ring neighbors; peer 1 never answers.
        let err = distributed_k_clustering_with(&mut f, 0, 5, &no_removed);
        assert!(matches!(
            err,
            Err(ClusterError::PeerUnreachable { .. }) | Ok(_)
        ));
        if let Err(ClusterError::PeerUnreachable { peer }) = err {
            assert_eq!(peer, 1);
        }
    }
}
