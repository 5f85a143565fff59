//! Centralized t-connectivity k-clustering (paper Algorithm 1).
//!
//! The algorithm partitions each connected component into *smallest valid
//! t-connectivity clusters*: clusters of ≥ k users whose internal maximum
//! edge weight (MEW) cannot be reduced without invalidating some cluster.
//!
//! # The two readings of Algorithm 1, and which one this module ships
//!
//! The paper's pseudocode removes edges *one at a time* in descending weight
//! order and stops a cluster's partition at the first disconnection whose
//! sides are not all valid. On graphs with many equal weights — exactly what
//! the evaluation's RSS-rank weights (1..M) produce — that binary rule
//! suffers classic single-linkage *chaining*: the first disconnection almost
//! always splits off a tiny straggler (< k), so the partition aborts and
//! clusters degenerate to near-whole components (thousands of users), which
//! contradicts the cluster sizes and cloaked-region areas the paper reports.
//!
//! The reading consistent with the paper's own evaluation treats weights as
//! *levels*: partitioning a cluster at level t removes **all** edges of
//! weight t, recurses into every resulting component that is still valid,
//! and re-attaches each undersized component to its graph-nearest surviving
//! cluster (the attachment edge has weight t, so the receiving cluster's
//! connectivity stays t — exactly the level that was being cut). Every
//! produced cluster is a t-connectivity class (plus stragglers glued at its
//! own connectivity level) that cannot be validly partitioned further.
//!
//! A final *packing* pass then serves the minimum-k-clustering objective
//! (clusters of size **at least** k with minimum connectivity, §IV): a
//! t-class whose sub-classes are all undersized cannot be split by levels,
//! but it can still be divided into several t-connected groups of ≥ k users
//! along a spanning tree of its ≤ t edges. Packing leaves each group's
//! connectivity at t while shrinking group sizes toward k — which is what
//! keeps cloaked regions near the k-user neighborhood scale the paper
//! reports.
//!
//! This module provides:
//!
//! - [`centralized_k_clustering`] — the production *level-based* algorithm
//!   (fast: counting passes order the edges by weight, one Kruskal pass
//!   builds the class-merge forest, a top-down cut and an ascending
//!   attachment scan finish in `O(E α(V))`, and packing is one `O(V + E)`
//!   pass); [`centralized_k_clustering_edges`] runs it on a super-cluster's
//!   local indices,
//! - [`single_linkage_k_clustering`] — the fast binary-dendrogram cut
//!   implementing the pseudocode's one-edge-at-a-time reading (kept for the
//!   chaining ablation in `nela-bench`).
//!
//! The slow oracles both are checked against — a literal-minded
//! implementation of the level semantics and the O(E²) transcription of
//! the pseudocode — live in this module's tests.

use crate::Cluster;
use nela_geo::UserId;
use nela_wpg::{DisjointSets, Edge, Weight, Wpg};
use std::cell::RefCell;

/// The result of clustering an entire WPG (or an induced subgraph).
#[derive(Debug, Clone)]
pub struct GlobalClustering {
    /// Valid clusters, each of size ≥ k.
    pub clusters: Vec<Cluster>,
    /// Connected components smaller than k: their users cannot reach
    /// k-anonymity at all (paper Fig. 5's "disconnected problem").
    pub underfilled: Vec<Vec<UserId>>,
}

impl GlobalClustering {
    /// Index of the valid cluster containing `u`, if any.
    pub fn cluster_of(&self, u: UserId) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(u))
    }

    /// Every user appears in exactly one cluster or underfilled component;
    /// used by the property tests.
    pub fn is_partition_of(&self, n: usize) -> bool {
        let mut seen = vec![false; n];
        for m in self
            .clusters
            .iter()
            .flat_map(|c| &c.members)
            .chain(self.underfilled.iter().flatten())
        {
            let i = *m as usize;
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

// ---------------------------------------------------------------------------
// Level-based algorithm (production).
// ---------------------------------------------------------------------------

/// "No node / vertex / group" in the index arrays below.
const NONE: u32 = u32::MAX;

/// Node of the class-merge forest: a t-connectivity class formed at `level`,
/// merging the classes of strictly lower levels chained from `first`
/// through their `next` links. Nodes `0..n` are the leaves: node `v` is
/// vertex `v`.
#[derive(Clone, Copy)]
struct ClassNode {
    level: u32,
    size: u32,
    /// First and last child, `NONE` for a leaf.
    first: u32,
    last: u32,
    /// The next child of this node's parent.
    next: u32,
    /// True for nodes created (and possibly extended) at the level
    /// currently being processed; reset between levels.
    open: bool,
}

impl ClassNode {
    const LEAF: ClassNode = ClassNode {
        level: 0,
        size: 1,
        first: NONE,
        last: NONE,
        next: NONE,
        open: false,
    };
}

/// Appends `child` to `parent`'s children.
fn adopt(nodes: &mut [ClassNode], parent: u32, child: u32) {
    nodes[child as usize].next = NONE;
    match nodes[parent as usize].last {
        NONE => nodes[parent as usize].first = child,
        last => nodes[last as usize].next = child,
    }
    nodes[parent as usize].last = child;
    nodes[parent as usize].size += nodes[child as usize].size;
}

/// The children of node `ni`, in the order they joined.
fn children(nodes: &[ClassNode], ni: u32) -> impl Iterator<Item = u32> + '_ {
    let first = nodes[ni as usize].first;
    std::iter::successors((first != NONE).then_some(first), move |&c| {
        let next = nodes[c as usize].next;
        (next != NONE).then_some(next)
    })
}

/// Working memory of the level-based algorithm, kept per thread and reused
/// by every run: a phase-1 host partitions one super-cluster per request,
/// and fresh forest, union-find and packing arrays per call cost as much
/// as the work on them. Every buffer is refilled for the run's `n` before
/// it is read.
#[derive(Default)]
struct LevelScratch {
    nodes: Vec<ClassNode>,
    node_of_root: Vec<u32>,
    ds: DisjointSets,
    opened: Vec<u32>,
    seen: Vec<bool>,
    finals: Vec<u32>,
    stragglers: Vec<u32>,
    underfilled_nodes: Vec<u32>,
    stack: Vec<u32>,
    ds2: DisjointSets,
    settled: Vec<bool>,
    connectivity: Vec<u32>,
    leaves: Vec<UserId>,
    in_underfilled: Vec<bool>,
    cluster_of_root: Vec<u32>,
    /// The run's edges in `(w, u, v)` order, the counting passes' second
    /// buffer and their bucket counts.
    by_weight: Vec<Edge>,
    spare: Vec<Edge>,
    counts: Vec<usize>,
    pack: PackScratch,
}

thread_local! {
    /// One scratch per thread running the level-based algorithm.
    static LEVEL_SCRATCH: RefCell<LevelScratch> = RefCell::new(LevelScratch::default());
}

/// Runs the level-based Algorithm 1 over the whole graph.
pub fn centralized_k_clustering(g: &Wpg, k: usize) -> GlobalClustering {
    assert!(k >= 1, "anonymity level must be at least 1");
    let mut edges: Vec<Edge> = g.edges().collect();
    crate::with_scratch(&LEVEL_SCRATCH, |s| {
        level_cluster_edge_list(g.n(), &mut edges, k, s)
    })
}

/// Level-based Algorithm 1 over an explicit vertex set and edge list — the
/// partition step of the distributed algorithm (Algorithm 2, line 16),
/// whose host only holds the adjacency it gathered over the network.
///
/// Edges name vertices by their position in `members` (dense local indices
/// `0..members.len()`, as the distributed host's `internal_edges` emits
/// them), so work and memory grow with `members`, not with the largest user
/// id. The returned clusters name users by id. Because `members` ascends,
/// local order is id order: every tie-break, and so the whole output, is
/// the one the same clustering over user ids would produce.
///
/// Each edge must name its smaller endpoint `u` first, and the list must be
/// grouped by ascending `u`, in any order within a `u` — the order
/// `internal_edges` and [`Wpg::edges`] emit. The algorithm sorts each `u`'s
/// run by `v` in place and orders the list by weight with counting passes
/// (see `order_edges`), so no comparison sort runs over the whole list.
///
/// # Panics
/// If `k == 0`, if `members` is not strictly ascending, if an edge
/// endpoint is not a position in `members`, or if the edges are not
/// grouped by ascending smaller endpoint.
pub fn centralized_k_clustering_edges(
    members: &[UserId],
    edges: &mut [Edge],
    k: usize,
) -> GlobalClustering {
    assert!(k >= 1, "anonymity level must be at least 1");
    assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must be strictly ascending"
    );
    let n = members.len();
    assert!(
        edges
            .iter()
            .all(|e| (e.u as usize) < n && (e.v as usize) < n),
        "edge endpoints must be positions in members"
    );
    let mut out = crate::with_scratch(&LEVEL_SCRATCH, |s| level_cluster_edge_list(n, edges, k, s));
    let to_id = |i: &mut UserId| *i = members[*i as usize];
    for c in &mut out.clusters {
        c.members.iter_mut().for_each(to_id);
    }
    out.underfilled.iter_mut().flatten().for_each(to_id);
    out
}

/// Orders `edges` by `(w, u, v)` into `out` without a comparison sort.
///
/// `edges` must be grouped by ascending `u`, with `u < v` on every edge.
/// Each `u`'s run (a vertex's degree, at most `M` in a WPG) is sorted by `v`
/// in place, which leaves `edges` in `(u, v)` order. Stable counting passes
/// over the weight then carry that order into `out`: one pass per byte of
/// the weight range `max − min`, so one for the rank weights `1..=M`.
/// `spare` and `counts` are the passes' working memory.
///
/// # Panics
/// If an edge has `u >= v` or a run of some `u` follows a larger `u`.
fn order_edges(
    edges: &mut [Edge],
    out: &mut Vec<Edge>,
    spare: &mut Vec<Edge>,
    counts: &mut Vec<usize>,
) {
    let mut start = 0;
    while let Some(first) = edges.get(start) {
        let u = first.u;
        let len = edges[start..].iter().take_while(|e| e.u == u).count();
        let end = start + len;
        assert!(
            edges[start..end].iter().all(|e| e.u < e.v) && edges.get(end).map_or(true, |e| e.u > u),
            "edges must be grouped by ascending smaller endpoint"
        );
        edges[start..end].sort_unstable_by_key(|e| e.v);
        start = end;
    }
    let lo = edges.iter().map(|e| e.w).min().unwrap_or(0);
    let range = edges.iter().map(|e| e.w - lo).max().unwrap_or(0);
    counting_pass(edges, out, counts, lo, range, 0);
    let mut shift = 8;
    while shift < Weight::BITS && range >> shift != 0 {
        counting_pass(out, spare, counts, lo, range, shift);
        std::mem::swap(out, spare);
        shift += 8;
    }
}

/// One stable counting pass of [`order_edges`]: `src` into `dst` by the
/// byte of `w − lo` at `shift`.
fn counting_pass(
    src: &[Edge],
    dst: &mut Vec<Edge>,
    counts: &mut Vec<usize>,
    lo: Weight,
    range: Weight,
    shift: u32,
) {
    let digit = |e: &Edge| ((e.w - lo) >> shift & 0xff) as usize;
    counts.clear();
    counts.resize((range >> shift).min(0xff) as usize + 2, 0);
    for e in src {
        counts[digit(e) + 1] += 1;
    }
    for d in 1..counts.len() {
        counts[d] += counts[d - 1];
    }
    dst.clear();
    dst.resize(src.len(), Edge { u: 0, v: 0, w: 0 });
    for e in src {
        let slot = &mut counts[digit(e)];
        dst[*slot] = *e;
        *slot += 1;
    }
}

/// Shared core of the level-based algorithm, over the vertices `0..n`.
/// `edges` come as [`order_edges`] takes them and leave in `(u, v)` order.
fn level_cluster_edge_list(
    n: usize,
    edges: &mut [Edge],
    k: usize,
    s: &mut LevelScratch,
) -> GlobalClustering {
    let mut by_weight = std::mem::take(&mut s.by_weight);
    order_edges(edges, &mut by_weight, &mut s.spare, &mut s.counts);
    let out = level_cluster_ordered(n, &by_weight, edges, k, s);
    s.by_weight = by_weight;
    out
}

/// [`level_cluster_edge_list`] over the same edges twice: `edges` in
/// `(w, u, v)` order and `by_endpoint` in `(u, v)` order.
fn level_cluster_ordered(
    n: usize,
    edges: &[Edge],
    by_endpoint: &[Edge],
    k: usize,
    s: &mut LevelScratch,
) -> GlobalClustering {
    // ---- Pass 1: build the class-merge forest by ascending weight levels.
    // Leaf node `v` is vertex `v`.
    let nodes = &mut s.nodes;
    nodes.clear();
    nodes.resize(n, ClassNode::LEAF);
    let node_of_root = &mut s.node_of_root;
    node_of_root.clear();
    node_of_root.extend(0..n as u32);
    let ds = &mut s.ds;
    ds.reset(n);
    s.opened.clear();
    let mut level_start = 0;
    while level_start < edges.len() {
        let w = edges[level_start].w;
        let mut i = level_start;
        while i < edges.len() && edges[i].w == w {
            let e = edges[i];
            i += 1;
            let (ru, rv) = (ds.find(e.u), ds.find(e.v));
            if ru == rv {
                continue;
            }
            let (nu, nv) = (node_of_root[ru as usize], node_of_root[rv as usize]);
            ds.union(e.u, e.v);
            let r = ds.find(e.u);
            let merged = match (nodes[nu as usize].open, nodes[nv as usize].open) {
                (true, false) => {
                    adopt(nodes, nu, nv);
                    nu
                }
                (false, true) => {
                    adopt(nodes, nv, nu);
                    nv
                }
                (true, true) => {
                    // Two open level-w nodes fuse: move nv's children into nu.
                    let ClassNode {
                        first, last, size, ..
                    } = nodes[nv as usize];
                    let tail = nodes[nu as usize].last;
                    nodes[tail as usize].next = first;
                    nodes[nu as usize].last = last;
                    nodes[nu as usize].size += size;
                    nodes[nv as usize].first = NONE;
                    nodes[nv as usize].open = false;
                    nu
                }
                (false, false) => {
                    let id = nodes.len() as u32;
                    nodes.push(ClassNode {
                        level: w,
                        size: 0,
                        open: true,
                        ..ClassNode::LEAF
                    });
                    adopt(nodes, id, nu);
                    adopt(nodes, id, nv);
                    s.opened.push(id);
                    id
                }
            };
            node_of_root[r as usize] = merged;
        }
        for &o in &s.opened {
            nodes[o as usize].open = false;
        }
        s.opened.clear();
        level_start = i;
    }
    let nodes = &*nodes;

    // ---- Pass 2: top-down cut — recurse into valid children only.
    // Forest roots in order of their smallest vertex.
    let valid = |ni: u32| nodes[ni as usize].size as usize >= k;
    s.seen.clear();
    s.seen.resize(n, false);
    s.finals.clear();
    s.stragglers.clear();
    s.underfilled_nodes.clear();
    s.stack.clear();
    for v in 0..n as u32 {
        let r = ds.find(v) as usize;
        if std::mem::replace(&mut s.seen[r], true) {
            continue;
        }
        let root = node_of_root[r];
        if !valid(root) {
            s.underfilled_nodes.push(root);
            continue;
        }
        s.stack.push(root);
        while let Some(ni) = s.stack.pop() {
            if !children(nodes, ni).any(valid) {
                s.finals.push(ni);
                continue;
            }
            for c in children(nodes, ni) {
                if valid(c) {
                    s.stack.push(c);
                } else {
                    s.stragglers.push(c);
                }
            }
        }
    }

    // ---- Pass 3: attach stragglers to their graph-nearest final cluster.
    // Group id per vertex via a second union-find; a group is "settled" when
    // it contains a final cluster. Scanning edges ascending and unioning any
    // pair not both-settled glues every straggler chain to the lightest
    // reachable final cluster deterministically.
    let ds2 = &mut s.ds2;
    ds2.reset(n);
    let settled = &mut s.settled; // indexed by ds2 root (maintained on union)
    settled.clear();
    settled.resize(n, false);
    let connectivity = &mut s.connectivity; // per ds2 root: internal MEW so far
    connectivity.clear();
    connectivity.resize(n, 0);
    let finals = s.finals.iter().map(|&f| (f, true));
    let stragglers = s.stragglers.iter().map(|&f| (f, false));
    for (ni, is_final) in finals.chain(stragglers) {
        s.leaves.clear();
        collect_leaves(nodes, n, ni, &mut s.stack, &mut s.leaves);
        let first = s.leaves[0];
        for &m in &s.leaves[1..] {
            ds2.union(first, m);
        }
        let r = ds2.find(first) as usize;
        settled[r] = is_final;
        connectivity[r] = nodes[ni as usize].level;
    }
    let mut unsettled_groups = s.stragglers.len();
    // Vertices of underfilled components have no seeded group; their edges
    // must not perturb the unsettled-group accounting.
    let in_underfilled = &mut s.in_underfilled;
    in_underfilled.clear();
    in_underfilled.resize(n, false);
    let mut underfilled = Vec::with_capacity(s.underfilled_nodes.len());
    for &u in &s.underfilled_nodes {
        let mut members = Vec::new();
        collect_leaves(nodes, n, u, &mut s.stack, &mut members);
        members.sort_unstable();
        for &m in &members {
            in_underfilled[m as usize] = true;
        }
        underfilled.push(members);
    }
    if unsettled_groups > 0 {
        for e in edges {
            if in_underfilled[e.u as usize] {
                continue; // edges never cross components
            }
            let (ra, rb) = (ds2.find(e.u), ds2.find(e.v));
            if ra == rb || (settled[ra as usize] && settled[rb as usize]) {
                continue;
            }
            let was_settled = settled[ra as usize] || settled[rb as usize];
            let conn = connectivity[ra as usize]
                .max(connectivity[rb as usize])
                .max(e.w);
            let both_unsettled = !settled[ra as usize] && !settled[rb as usize];
            ds2.union(e.u, e.v);
            let r = ds2.find(e.u);
            settled[r as usize] = was_settled;
            connectivity[r as usize] = conn;
            // Either a straggler group joined a settled one, or two
            // straggler groups fused: one fewer unsettled group either way.
            if was_settled || both_unsettled {
                unsettled_groups -= 1;
            }
            if unsettled_groups == 0 {
                break;
            }
        }
    }

    // ---- Collect output. Visiting vertices in ascending order yields each
    // cluster's members sorted and the clusters ordered by smallest member.
    let cluster_of_root = &mut s.cluster_of_root;
    cluster_of_root.clear();
    cluster_of_root.resize(n, NONE);
    let mut clusters: Vec<Cluster> = Vec::new();
    for v in 0..n as UserId {
        if in_underfilled[v as usize] {
            continue;
        }
        let root = ds2.find(v);
        match cluster_of_root[root as usize] {
            NONE => {
                cluster_of_root[root as usize] = clusters.len() as u32;
                let mut members = Vec::with_capacity(ds2.size_of(root));
                members.push(v);
                clusters.push(Cluster {
                    members,
                    connectivity: connectivity[root as usize],
                });
            }
            ci => clusters[ci as usize].members.push(v),
        }
    }
    debug_assert!(
        clusters.iter().all(|c| c.members.len() >= k),
        "straggler attachment left an undersized cluster"
    );
    underfilled.sort();
    let clusters = pack_oversized_clusters(n, clusters, by_endpoint, k, &mut s.pack);
    GlobalClustering {
        clusters,
        underfilled,
    }
}

/// Appends the vertices under forest node `root` to `out`.
fn collect_leaves(
    nodes: &[ClassNode],
    n: usize,
    root: u32,
    stack: &mut Vec<u32>,
    out: &mut Vec<UserId>,
) {
    stack.clear();
    stack.push(root);
    while let Some(ni) = stack.pop() {
        if (ni as usize) < n {
            out.push(ni);
        } else {
            stack.extend(children(nodes, ni));
        }
    }
}

/// Working memory of [`pack_oversized_clusters`], part of [`LevelScratch`].
#[derive(Default)]
struct PackScratch {
    owner: Vec<u32>,
    offsets: Vec<u32>,
    fill: Vec<u32>,
    nbrs: Vec<UserId>,
    parent: Vec<u32>,
    residual: Vec<u32>,
    group: Vec<u32>,
    order: Vec<UserId>,
    carved: Vec<UserId>,
}

/// Divides every cluster of size ≥ 2k into t-connected groups of size ≥ k
/// (the packing pass; see module docs). Groups are carved bottom-up along a
/// BFS spanning tree of the cluster's ≤ t edges, taken from the smallest
/// member with neighbors in ascending order: whenever a residual subtree
/// reaches k vertices it becomes a group, and the undersized root remainder
/// merges into the group of the smallest carved child of any remainder
/// vertex.
///
/// `clusters` cover vertices of `0..n` and are ordered by smallest member.
/// One pass over `edges`, which come in `(u, v)` order with `u < v`,
/// buckets the ≤ t internal edges of every oversized cluster into a single
/// CSR whose neighbor lists come out ascending: a vertex receives its
/// smaller neighbors, ascending, from the runs before its own, then its
/// larger ones from its own run. Every cluster is then carved with
/// vertex-indexed parent, residual and group arrays, so the pass is
/// O(V + E). The output equals the per-cluster hash-map packing of the
/// test oracle on the same input.
fn pack_oversized_clusters(
    n: usize,
    clusters: Vec<Cluster>,
    edges: &[Edge],
    k: usize,
    s: &mut PackScratch,
) -> Vec<Cluster> {
    let oversized = |c: &Cluster| c.members.len() >= 2 * k;
    if !clusters.iter().any(oversized) {
        return clusters;
    }
    let owner = &mut s.owner;
    owner.clear();
    owner.resize(n, NONE);
    for (ci, c) in clusters.iter().enumerate().filter(|(_, c)| oversized(c)) {
        for &m in &c.members {
            owner[m as usize] = ci as u32;
        }
    }
    let packed = |e: &&Edge| {
        let c = owner[e.u as usize];
        c != NONE && c == owner[e.v as usize] && e.w <= clusters[c as usize].connectivity
    };
    let offsets = &mut s.offsets;
    offsets.clear();
    offsets.resize(n + 1, 0);
    for e in edges.iter().filter(packed) {
        offsets[e.u as usize + 1] += 1;
        offsets[e.v as usize + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let nbrs = &mut s.nbrs;
    nbrs.clear();
    nbrs.resize(offsets[n] as usize, 0);
    let fill = &mut s.fill;
    fill.clear();
    fill.extend_from_slice(offsets);
    for e in edges.iter().filter(packed) {
        nbrs[fill[e.u as usize] as usize] = e.v;
        fill[e.u as usize] += 1;
        nbrs[fill[e.v as usize] as usize] = e.u;
        fill[e.v as usize] += 1;
    }
    let adj = |v: UserId| &nbrs[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];

    // Each vertex lies in one cluster, so these are written once per run.
    let (parent, residual, group) = (&mut s.parent, &mut s.residual, &mut s.group);
    parent.clear();
    parent.resize(n, NONE);
    residual.clear();
    residual.resize(n, 1);
    group.clear();
    group.resize(n, NONE);
    let (order, carved) = (&mut s.order, &mut s.carved); // group g is rooted at carved[g]
    let mut out = Vec::with_capacity(clusters.len());
    for cluster in clusters {
        if !oversized(&cluster) {
            out.push(cluster);
            continue;
        }
        let root = cluster.members[0];
        parent[root as usize] = root;
        order.clear();
        order.push(root);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &y in adj(v) {
                if parent[y as usize] == NONE {
                    parent[y as usize] = v;
                    order.push(y);
                }
            }
        }
        debug_assert_eq!(
            order.len(),
            cluster.members.len(),
            "cluster not t-connected"
        );

        // Carve in reverse BFS order: a residual subtree that reaches k
        // becomes a group and detaches from its parent.
        carved.clear();
        for &v in order[1..].iter().rev() {
            if residual[v as usize] as usize >= k {
                group[v as usize] = carved.len() as u32;
                carved.push(v);
            } else {
                residual[parent[v as usize] as usize] += residual[v as usize];
            }
        }
        // Everything else joins its nearest carved ancestor; the root
        // remainder provisionally forms group `remainder`.
        let remainder = carved.len() as u32;
        group[root as usize] = remainder;
        for &v in &order[1..] {
            if group[v as usize] == NONE {
                group[v as usize] = group[parent[v as usize] as usize];
            }
        }
        // An undersized remainder merges into the group of the smallest
        // carved vertex hanging off it (none is undersized when nothing was
        // carved: the cluster holds ≥ 2k).
        let target = if residual[root as usize] as usize >= k || carved.is_empty() {
            remainder
        } else {
            let child = carved
                .iter()
                .filter(|&&c| group[parent[c as usize] as usize] == remainder)
                .min()
                .expect("tree connectivity guarantees an adjacent group");
            group[*child as usize]
        };
        // Ascending members leave every group sorted. A carved vertex's
        // residual is its group's size, the root's the remainder's.
        let mut groups: Vec<Vec<UserId>> = carved
            .iter()
            .map(|&c| Vec::with_capacity(residual[c as usize] as usize))
            .chain([Vec::new()])
            .collect();
        groups[target as usize].reserve_exact(residual[root as usize] as usize);
        for &m in &cluster.members {
            let g = group[m as usize];
            groups[if g == remainder { target } else { g } as usize].push(m);
        }
        groups.retain(|g| !g.is_empty());
        debug_assert!(groups.iter().all(|g| g.len() >= k));
        out.extend(groups.into_iter().map(|members| Cluster {
            members,
            connectivity: cluster.connectivity,
        }));
    }
    out.sort_by_key(|c| c.members[0]);
    out
}

// ---------------------------------------------------------------------------
// Single-linkage (one-edge-at-a-time) reading of the pseudocode, kept for
// the chaining ablation.
// ---------------------------------------------------------------------------

/// Dendrogram node for the binary single-linkage cut.
struct MergeNode {
    weight: u32,
    size: u32,
    children: Option<(u32, u32)>,
    vertex: UserId,
}

/// The fast binary-dendrogram implementation of the pseudocode's literal
/// one-edge-at-a-time reading: removing edges in descending `(w, u, v)`
/// order and stopping at the first disconnection is the time-reverse of an
/// ascending Kruskal pass, so the recursion equals a top-down cut of the
/// Kruskal merge tree where a node splits only when **both** children hold
/// ≥ k vertices. Suffers chaining on tie-heavy weights (see module docs).
pub fn single_linkage_k_clustering(g: &Wpg, k: usize) -> GlobalClustering {
    assert!(k >= 1, "anonymity level must be at least 1");
    let mut edges: Vec<Edge> = g.edges().collect();
    edges.sort_unstable_by_key(|e| (e.w, e.u, e.v));

    let n = g.n();
    let mut nodes: Vec<MergeNode> = Vec::with_capacity(2 * n);
    let mut node_of_root = vec![u32::MAX; n];
    for v in 0..n as UserId {
        node_of_root[v as usize] = nodes.len() as u32;
        nodes.push(MergeNode {
            weight: 0,
            size: 1,
            children: None,
            vertex: v,
        });
    }
    let mut ds = DisjointSets::new(n);
    for e in &edges {
        let (ru, rv) = (ds.find(e.u), ds.find(e.v));
        if ru == rv {
            continue;
        }
        let (nu, nv) = (node_of_root[ru as usize], node_of_root[rv as usize]);
        let mi = nodes.len() as u32;
        nodes.push(MergeNode {
            weight: e.w,
            size: nodes[nu as usize].size + nodes[nv as usize].size,
            children: Some((nu, nv)),
            vertex: UserId::MAX,
        });
        ds.union(e.u, e.v);
        node_of_root[ds.find(e.u) as usize] = mi;
    }

    let mut roots: Vec<u32> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for v in 0..n as UserId {
        let r = ds.find(v);
        if seen.insert(r) {
            roots.push(node_of_root[r as usize]);
        }
    }
    let mut clusters = Vec::new();
    let mut underfilled = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let collect = |nodes: &[MergeNode], root: u32| -> Vec<UserId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(ni) = stack.pop() {
            match nodes[ni as usize].children {
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
                None => out.push(nodes[ni as usize].vertex),
            }
        }
        out.sort_unstable();
        out
    };
    for root in roots {
        if (nodes[root as usize].size as usize) < k {
            underfilled.push(collect(&nodes, root));
            continue;
        }
        stack.push(root);
        while let Some(ni) = stack.pop() {
            let node = &nodes[ni as usize];
            match node.children {
                Some((a, b))
                    if nodes[a as usize].size as usize >= k
                        && nodes[b as usize].size as usize >= k =>
                {
                    stack.push(a);
                    stack.push(b);
                }
                _ => clusters.push(Cluster {
                    members: collect(&nodes, ni),
                    connectivity: node.weight,
                }),
            }
        }
    }
    clusters.sort_by_key(|c| c.members[0]);
    underfilled.sort();
    GlobalClustering {
        clusters,
        underfilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_wpg::topology;
    use oracle::{components_of, level_reference_k_clustering, reference_k_clustering};

    /// The slow oracles of the differential tests: a literal-minded
    /// implementation of the level semantics (with the original per-cluster
    /// packing) and the O(E²) transcription of the pseudocode.
    mod oracle {
        use crate::{Cluster, GlobalClustering};
        use nela_geo::UserId;
        use nela_wpg::{DisjointSets, Edge, Wpg};

        /// A slow, direct implementation of the level-based semantics used as the
        /// differential-testing oracle for `centralized_k_clustering`: recompute
        /// connectivity components per weight level by BFS, recurse, then attach
        /// stragglers by ascending edge scan.
        pub(super) fn level_reference_k_clustering(g: &Wpg, k: usize) -> GlobalClustering {
            assert!(k >= 1, "anonymity level must be at least 1");
            let all_edges: Vec<Edge> = g.edges().collect();
            let comps = components_of(&(0..g.n() as UserId).collect::<Vec<_>>(), &all_edges);
            let mut finals: Vec<(Vec<UserId>, u32)> = Vec::new();
            let mut stragglers: Vec<(Vec<UserId>, u32)> = Vec::new();
            let mut underfilled: Vec<Vec<UserId>> = Vec::new();
            let mut queue: Vec<Vec<UserId>> = Vec::new();
            for c in comps {
                if c.len() < k {
                    underfilled.push(c);
                } else {
                    queue.push(c);
                }
            }
            while let Some(members) = queue.pop() {
                let set: std::collections::HashSet<UserId> = members.iter().copied().collect();
                let internal: Vec<Edge> = all_edges
                    .iter()
                    .copied()
                    .filter(|e| set.contains(&e.u) && set.contains(&e.v))
                    .collect();
                // The class formation level is the MST bottleneck, not the raw MEW:
                // heavier cycle edges never decide connectivity.
                let t = min_spanning_mew(&members, &internal);
                if t == 0 {
                    finals.push((members, 0));
                    continue;
                }
                // Removing every edge of weight ≥ t disconnects (the MST needs a
                // weight-t edge), so the recursion strictly descends.
                let below: Vec<Edge> = internal.iter().copied().filter(|e| e.w < t).collect();
                let sub = components_of(&members, &below);
                debug_assert!(sub.len() >= 2, "bottleneck removal must disconnect");
                if sub.iter().all(|c| c.len() < k) {
                    finals.push((members, t));
                    continue;
                }
                for c in sub {
                    if c.len() >= k {
                        queue.push(c);
                    } else {
                        let cset: std::collections::HashSet<UserId> = c.iter().copied().collect();
                        let cedges: Vec<Edge> = below
                            .iter()
                            .copied()
                            .filter(|e| cset.contains(&e.u) && cset.contains(&e.v))
                            .collect();
                        let own_level = min_spanning_mew(&c, &cedges);
                        stragglers.push((c, own_level));
                    }
                }
            }
            // Attach stragglers: ascending edge scan, never merging two finals.
            let n = g.n();
            let mut ds = DisjointSets::new(n);
            let mut settled = vec![false; n];
            let mut conn = vec![0u32; n];
            let mut unsettled = stragglers.len();
            let seed = |members: &[UserId],
                        level: u32,
                        is_final: bool,
                        ds: &mut DisjointSets,
                        settled: &mut [bool],
                        conn: &mut [u32]| {
                for w in members.windows(2) {
                    ds.union(w[0], w[1]);
                }
                let r = ds.find(members[0]);
                settled[r as usize] = is_final;
                conn[r as usize] = level;
            };
            for (m, l) in &finals {
                seed(m, *l, true, &mut ds, &mut settled, &mut conn);
            }
            for (m, l) in &stragglers {
                seed(m, *l, false, &mut ds, &mut settled, &mut conn);
            }
            if unsettled > 0 {
                let mut sorted = all_edges.clone();
                sorted.sort_unstable_by_key(|e| (e.w, e.u, e.v));
                let underfilled_set: std::collections::HashSet<UserId> =
                    underfilled.iter().flatten().copied().collect();
                for e in sorted {
                    if underfilled_set.contains(&e.u) {
                        continue;
                    }
                    let (ra, rb) = (ds.find(e.u), ds.find(e.v));
                    if ra == rb || (settled[ra as usize] && settled[rb as usize]) {
                        continue;
                    }
                    let was = settled[ra as usize] || settled[rb as usize];
                    let c = conn[ra as usize].max(conn[rb as usize]).max(e.w);
                    let both_un = !settled[ra as usize] && !settled[rb as usize];
                    ds.union(e.u, e.v);
                    let r = ds.find(e.u);
                    settled[r as usize] = was;
                    conn[r as usize] = c;
                    if was || both_un {
                        unsettled -= 1;
                    }
                    if unsettled == 0 {
                        break;
                    }
                }
            }
            let underfilled_set: std::collections::HashSet<UserId> =
                underfilled.iter().flatten().copied().collect();
            let mut by_root: std::collections::HashMap<u32, Vec<UserId>> =
                std::collections::HashMap::new();
            for v in 0..n as UserId {
                if !underfilled_set.contains(&v) {
                    by_root.entry(ds.find(v)).or_default().push(v);
                }
            }
            let mut clusters: Vec<Cluster> = by_root
                .into_iter()
                .map(|(root, mut members)| {
                    members.sort_unstable();
                    Cluster {
                        members,
                        connectivity: conn[root as usize],
                    }
                })
                .collect();
            clusters.sort_by_key(|c| c.members[0]);
            underfilled.sort();
            let clusters = reference_pack_oversized_clusters(clusters, &all_edges, k);
            GlobalClustering {
                clusters,
                underfilled,
            }
        }

        /// The original per-cluster packing: builds each oversized cluster's
        /// adjacency by scanning every edge through hash maps. It is the packing
        /// of the `level_reference_k_clustering` oracle, so the differential tests
        /// also check `pack_oversized_clusters`.
        fn reference_pack_oversized_clusters(
            clusters: Vec<Cluster>,
            edges: &[Edge],
            k: usize,
        ) -> Vec<Cluster> {
            let mut out = Vec::with_capacity(clusters.len());
            for cluster in clusters {
                if cluster.members.len() < 2 * k {
                    out.push(cluster);
                    continue;
                }
                for members in pack_one(&cluster, edges, k) {
                    out.push(Cluster {
                        members,
                        connectivity: cluster.connectivity,
                    });
                }
            }
            out.sort_by_key(|c| c.members[0]);
            out
        }

        /// Packs a single oversized cluster; returns ≥ 1 groups, each of size ≥ k,
        /// each connected through the cluster's ≤ t edges.
        fn pack_one(cluster: &Cluster, edges: &[Edge], k: usize) -> Vec<Vec<UserId>> {
            use std::collections::{HashMap, HashSet, VecDeque};
            let set: HashSet<UserId> = cluster.members.iter().copied().collect();
            let mut adj: HashMap<UserId, Vec<UserId>> = HashMap::new();
            for e in edges {
                if e.w <= cluster.connectivity && set.contains(&e.u) && set.contains(&e.v) {
                    adj.entry(e.u).or_default().push(e.v);
                    adj.entry(e.v).or_default().push(e.u);
                }
            }
            for nbrs in adj.values_mut() {
                nbrs.sort_unstable();
            }
            // BFS spanning tree from the smallest member.
            let root = cluster.members[0];
            let mut parent: HashMap<UserId, UserId> = HashMap::from([(root, root)]);
            let mut order: Vec<UserId> = vec![root];
            let mut queue: VecDeque<UserId> = VecDeque::from([root]);
            while let Some(v) = queue.pop_front() {
                if let Some(nbrs) = adj.get(&v) {
                    for &y in nbrs {
                        if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(y) {
                            slot.insert(v);
                            order.push(y);
                            queue.push_back(y);
                        }
                    }
                }
            }
            debug_assert_eq!(
                order.len(),
                cluster.members.len(),
                "cluster not t-connected"
            );

            // Carve in reverse BFS order: when a residual subtree reaches k, it
            // becomes a group and detaches.
            let mut residual: HashMap<UserId, usize> = order.iter().map(|&v| (v, 1)).collect();
            let mut group_of: HashMap<UserId, u32> = HashMap::new();
            // Children still attached, per vertex (built reverse so carves prune).
            let mut attached_children: HashMap<UserId, Vec<UserId>> = HashMap::new();
            for &v in order.iter().skip(1) {
                attached_children.entry(parent[&v]).or_default().push(v);
            }
            let mut groups: Vec<Vec<UserId>> = Vec::new();
            for &v in order.iter().rev() {
                let size: usize = 1 + attached_children
                    .get(&v)
                    .map(|cs| cs.iter().map(|c| residual[c]).sum())
                    .unwrap_or(0);
                residual.insert(v, size);
                if size >= k && v != root {
                    // Carve the residual subtree rooted at v.
                    let gid = groups.len() as u32;
                    let mut grp = Vec::with_capacity(size);
                    let mut stack = vec![v];
                    while let Some(x) = stack.pop() {
                        grp.push(x);
                        group_of.insert(x, gid);
                        if let Some(cs) = attached_children.get(&x) {
                            stack.extend(cs.iter().copied());
                        }
                    }
                    groups.push(grp);
                    // Detach from parent.
                    if let Some(cs) = attached_children.get_mut(&parent[&v]) {
                        cs.retain(|&c| c != v);
                    }
                    residual.insert(v, 0);
                }
            }
            // Root remainder.
            let mut leftover: Vec<UserId> = Vec::new();
            {
                let mut stack = vec![root];
                while let Some(x) = stack.pop() {
                    leftover.push(x);
                    if let Some(cs) = attached_children.get(&x) {
                        stack.extend(cs.iter().copied());
                    }
                }
            }
            if leftover.len() >= k || groups.is_empty() {
                groups.push(leftover);
            } else {
                // Merge the undersized remainder into the adjacent group reached by
                // the smallest carved child of any leftover vertex.
                let leftover_set: HashSet<UserId> = leftover.iter().copied().collect();
                let target = order
                    .iter()
                    .filter(|&&v| !leftover_set.contains(&v) && leftover_set.contains(&parent[&v]))
                    .min()
                    .map(|&v| group_of[&v])
                    .expect("tree connectivity guarantees an adjacent group");
                groups[target as usize].extend(leftover);
            }
            for g in &mut groups {
                g.sort_unstable();
            }
            groups.sort_by_key(|g| g[0]);
            debug_assert!(groups.iter().all(|g| g.len() >= k));
            groups
        }

        /// The O(E²) literal transcription of the paper's Algorithm 1 pseudocode:
        /// repeated descending-order single-edge removal with a connectivity check
        /// after every removal. Differential oracle for
        /// `single_linkage_k_clustering`.
        pub(super) fn reference_k_clustering(g: &Wpg, k: usize) -> GlobalClustering {
            assert!(k >= 1, "anonymity level must be at least 1");
            let mut all_edges: Vec<Edge> = g.edges().collect();
            all_edges.sort_unstable_by_key(|e| std::cmp::Reverse((e.w, e.u, e.v)));

            let comps = nela_wpg::connectivity::components_under(
                g,
                g.max_weight().unwrap_or(0),
                &nela_wpg::connectivity::nothing_removed,
            );
            let mut clusters = Vec::new();
            let mut underfilled = Vec::new();
            let mut queue: Vec<(Vec<UserId>, Vec<Edge>)> = comps
                .into_iter()
                .map(|members| {
                    let set: std::collections::HashSet<UserId> = members.iter().copied().collect();
                    let edges: Vec<Edge> = all_edges
                        .iter()
                        .copied()
                        .filter(|e| set.contains(&e.u) && set.contains(&e.v))
                        .collect();
                    (members, edges)
                })
                .collect();

            while let Some((members, edges)) = queue.pop() {
                if members.len() < k {
                    underfilled.push(members);
                    continue;
                }
                let mut split = None;
                for removed_prefix in 1..=edges.len() {
                    let remaining = &edges[removed_prefix..];
                    let comps = components_of(&members, remaining);
                    if comps.len() > 1 {
                        split = Some((removed_prefix, comps));
                        break;
                    }
                }
                match split {
                    Some((prefix, comps)) if comps.iter().all(|c| c.len() >= k) => {
                        for part in comps {
                            let set: std::collections::HashSet<UserId> =
                                part.iter().copied().collect();
                            let part_edges: Vec<Edge> = edges[prefix..]
                                .iter()
                                .copied()
                                .filter(|e| set.contains(&e.u) && set.contains(&e.v))
                                .collect();
                            queue.push((part, part_edges));
                        }
                    }
                    _ => {
                        let connectivity = min_spanning_mew(&members, &edges);
                        let mut members = members;
                        members.sort_unstable();
                        clusters.push(Cluster {
                            members,
                            connectivity,
                        });
                    }
                }
            }
            clusters.sort_by_key(|c| c.members[0]);
            underfilled.sort();
            GlobalClustering {
                clusters,
                underfilled,
            }
        }

        /// Connected components of `members` under the given edge list.
        pub(super) fn components_of(members: &[UserId], edges: &[Edge]) -> Vec<Vec<UserId>> {
            let mut index: std::collections::HashMap<UserId, u32> =
                std::collections::HashMap::new();
            for (i, &m) in members.iter().enumerate() {
                index.insert(m, i as u32);
            }
            let mut ds = DisjointSets::new(members.len());
            for e in edges {
                ds.union(index[&e.u], index[&e.v]);
            }
            let mut by_root: std::collections::HashMap<u32, Vec<UserId>> =
                std::collections::HashMap::new();
            for (i, &m) in members.iter().enumerate() {
                by_root.entry(ds.find(i as u32)).or_default().push(m);
            }
            let mut comps: Vec<Vec<UserId>> = by_root.into_values().collect();
            for c in &mut comps {
                c.sort_unstable();
            }
            comps.sort_by_key(|c| c[0]);
            comps
        }

        /// Bottleneck (maximum) weight of a minimum spanning tree over `members`;
        /// 0 for singletons.
        fn min_spanning_mew(members: &[UserId], edges: &[Edge]) -> u32 {
            if members.len() <= 1 {
                return 0;
            }
            let mut index: std::collections::HashMap<UserId, u32> =
                std::collections::HashMap::new();
            for (i, &m) in members.iter().enumerate() {
                index.insert(m, i as u32);
            }
            let mut sorted: Vec<Edge> = edges.to_vec();
            sorted.sort_unstable_by_key(|e| (e.w, e.u, e.v));
            let mut ds = DisjointSets::new(members.len());
            let mut mew = 0;
            let mut merges = 0;
            for e in &sorted {
                if ds.union(index[&e.u], index[&e.v]) {
                    mew = mew.max(e.w);
                    merges += 1;
                    if merges == members.len() - 1 {
                        break;
                    }
                }
            }
            mew
        }
    }

    /// The worked example of paper Fig. 6 (reconstructed so the 2-clustering
    /// flows exactly as described in §IV-A): a left pentagon, a bridge of
    /// weight 8, and a right pentagon that splits once more.
    fn fig6_like() -> Wpg {
        Wpg::from_edges(
            10,
            &[
                Edge::new(0, 1, 6),
                Edge::new(1, 2, 7),
                Edge::new(2, 3, 5),
                Edge::new(3, 4, 3),
                Edge::new(4, 0, 7),
                Edge::new(2, 5, 8),
                Edge::new(5, 6, 6),
                Edge::new(6, 7, 4),
                Edge::new(7, 8, 3),
                Edge::new(8, 9, 6),
                Edge::new(9, 5, 6),
            ],
        )
    }

    #[test]
    fn two_clustering_of_fig6_like_graph() {
        let g = fig6_like();
        let r = centralized_k_clustering(&g, 2);
        assert!(r.underfilled.is_empty());
        assert!(r.is_partition_of(10));
        for c in &r.clusters {
            assert!(c.len() >= 2);
        }
        // The bridge edge (weight 8) must never be inside a cluster: 0..=4
        // and 5..=9 must not share one.
        let left = r.cluster_of(2).unwrap();
        let right = r.cluster_of(5).unwrap();
        assert_ne!(left, right);
    }

    #[test]
    fn cluster_connectivity_is_internal_mew() {
        // Path 0-1-2-3 with weights 1,5,2: 2-clustering splits at 5 into
        // {0,1} (t=1) and {2,3} (t=2).
        let g = Wpg::from_edges(
            4,
            &[Edge::new(0, 1, 1), Edge::new(1, 2, 5), Edge::new(2, 3, 2)],
        );
        let r = centralized_k_clustering(&g, 2);
        assert_eq!(r.clusters.len(), 2);
        assert_eq!(r.clusters[0].members, vec![0, 1]);
        assert_eq!(r.clusters[0].connectivity, 1);
        assert_eq!(r.clusters[1].members, vec![2, 3]);
        assert_eq!(r.clusters[1].connectivity, 2);
    }

    #[test]
    fn straggler_is_attached_not_blocking() {
        // Path a-b:1, b-c:2 with k=2: level-2 cut leaves {a,b} valid and {c}
        // a straggler, which is re-attached — one cluster of all three, with
        // connectivity 2 (the attachment level).
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let r = centralized_k_clustering(&g, 2);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].members, vec![0, 1, 2]);
        assert_eq!(r.clusters[0].connectivity, 2);
    }

    #[test]
    fn level_cut_beats_single_linkage_on_tie_heavy_graph() {
        // Two weight-1 blobs of 4 vertices joined by a few weight-2 edges
        // and a weight-2 pendant: single linkage chains, the level cut
        // separates the blobs.
        let mut edges = vec![
            // blob A: 0-3 (clique-ish at weight 1)
            Edge::new(0, 1, 1),
            Edge::new(1, 2, 1),
            Edge::new(2, 3, 1),
            Edge::new(3, 0, 1),
            // blob B: 4-7
            Edge::new(4, 5, 1),
            Edge::new(5, 6, 1),
            Edge::new(6, 7, 1),
            Edge::new(7, 4, 1),
            // weight-2 bridges and pendant 8
            Edge::new(3, 4, 2),
            Edge::new(0, 7, 2),
            Edge::new(8, 2, 2),
        ];
        edges.sort_unstable_by_key(|e| (e.w, e.u, e.v));
        let g = Wpg::from_edges(9, &edges);
        let level = centralized_k_clustering(&g, 4);
        assert_eq!(level.clusters.len(), 2, "{:?}", level.clusters);
        // Pendant 8 joins blob A (attached via its weight-2 edge to 2).
        let a = level.cluster_of(0).unwrap();
        assert_eq!(level.cluster_of(8).unwrap(), a);
        assert_eq!(level.clusters[a].connectivity, 2);
        let b = level.cluster_of(4).unwrap();
        assert_eq!(level.clusters[b].connectivity, 1);
        // Single linkage cannot split: first disconnection strands a tiny
        // side (the pendant), so everything stays one cluster.
        let sl = single_linkage_k_clustering(&g, 4);
        assert_eq!(sl.clusters.len(), 1);
    }

    #[test]
    fn underfilled_components_are_reported() {
        let g = Wpg::from_edges(5, &[Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
        // Vertices 3 and 4 are isolated; k=3.
        let r = centralized_k_clustering(&g, 3);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].members, vec![0, 1, 2]);
        assert_eq!(r.underfilled.len(), 2);
        assert!(r.is_partition_of(5));
    }

    #[test]
    fn k_equal_one_yields_singletons_where_possible() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let r = centralized_k_clustering(&g, 1);
        assert_eq!(r.clusters.len(), 3);
        for c in &r.clusters {
            assert_eq!(c.len(), 1);
            assert_eq!(c.connectivity, 0);
        }
    }

    #[test]
    fn subset_clustering_ignores_outside_vertices() {
        // The right pentagon of fig6_like, its edges named by position in
        // `members`: the clustering must cover exactly those users and equal
        // the whole-graph clustering of the induced subgraph, relabeled.
        let g = fig6_like();
        let members: Vec<UserId> = vec![5, 6, 7, 8, 9];
        let local = |u: UserId| members.binary_search(&u).ok().map(|i| i as UserId);
        let mut edges: Vec<Edge> = g
            .edges()
            .filter_map(|e| Some(Edge::new(local(e.u)?, local(e.v)?, e.w)))
            .collect();
        let r = centralized_k_clustering_edges(&members, &mut edges, 2);
        let mut clustered: Vec<UserId> = r
            .clusters
            .iter()
            .flat_map(|c| c.members.clone())
            .chain(r.underfilled.iter().flatten().copied())
            .collect();
        clustered.sort_unstable();
        assert_eq!(clustered, members);
        let mut induced = centralized_k_clustering(&Wpg::from_edges(members.len(), &edges), 2);
        for c in &mut induced.clusters {
            c.members.iter_mut().for_each(|i| *i = members[*i as usize]);
        }
        assert_eq!(r.clusters, induced.clusters);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn edge_list_clustering_rejects_unsorted_members() {
        centralized_k_clustering_edges(
            &[3, 1, 2],
            &mut [Edge::new(0, 1, 1), Edge::new(1, 2, 1)],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "positions in members")]
    fn edge_list_clustering_rejects_an_endpoint_outside_members() {
        // Endpoint 4 names none of the three members: the partition must
        // refuse it before any per-thread table is indexed with it.
        centralized_k_clustering_edges(
            &[0, 1, 2],
            &mut [Edge::new(0, 4, 1), Edge::new(1, 2, 1)],
            2,
        );
    }

    #[test]
    fn fast_level_algorithm_matches_slow_reference() {
        for seed in 0..8u64 {
            let g = topology::small_world(30, 4, 0.3, 5, seed);
            for k in [2usize, 3, 5] {
                let fast = centralized_k_clustering(&g, k);
                let slow = level_reference_k_clustering(&g, k);
                assert_eq!(fast.clusters, slow.clusters, "seed={seed} k={k}");
                assert_eq!(fast.underfilled, slow.underfilled, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn fast_level_matches_reference_on_grids() {
        for seed in 0..4u64 {
            let g = topology::grid_graph(5, 6, 4, seed);
            for k in [2usize, 4] {
                let fast = centralized_k_clustering(&g, k);
                let slow = level_reference_k_clustering(&g, k);
                assert_eq!(fast.clusters, slow.clusters, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn single_linkage_matches_literal_pseudocode() {
        let g = fig6_like();
        for k in 1..=5 {
            let fast = single_linkage_k_clustering(&g, k);
            let slow = reference_k_clustering(&g, k);
            assert_eq!(fast.clusters, slow.clusters, "k={k}");
        }
        for seed in 0..6u64 {
            let g = topology::small_world(24, 4, 0.3, 6, seed);
            for k in [2usize, 3, 5] {
                let fast = single_linkage_k_clustering(&g, k);
                let slow = reference_k_clustering(&g, k);
                assert_eq!(fast.clusters, slow.clusters, "seed={seed} k={k}");
                assert_eq!(fast.underfilled, slow.underfilled, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn all_level_clusters_are_connected_at_reported_t() {
        let g = topology::small_world(40, 4, 0.2, 8, 9);
        let r = centralized_k_clustering(&g, 4);
        assert!(r.is_partition_of(40));
        for c in &r.clusters {
            let set: std::collections::HashSet<UserId> = c.members.iter().copied().collect();
            let internal: Vec<Edge> = g
                .edges()
                .filter(|e| set.contains(&e.u) && set.contains(&e.v) && e.w <= c.connectivity)
                .collect();
            let comps = components_of(&c.members, &internal);
            assert_eq!(comps.len(), 1, "cluster not t-connected at reported t");
        }
    }

    #[test]
    fn level_clusters_never_smaller_than_k() {
        for seed in 0..5u64 {
            let g = topology::random_regular(40, 4, 6, seed);
            for k in [2usize, 5, 10] {
                let r = centralized_k_clustering(&g, k);
                for c in &r.clusters {
                    assert!(c.len() >= k, "seed {seed} k {k}: {:?}", c.members);
                }
                assert!(r.is_partition_of(40));
            }
        }
    }

    #[test]
    fn empty_graph_clusters_nothing() {
        let g = Wpg::from_edges(0, &[]);
        let r = centralized_k_clustering(&g, 2);
        assert!(r.clusters.is_empty());
        assert!(r.underfilled.is_empty());
    }

    /// `order_edges` over `edges`: the `(w, u, v)` order it writes, and the
    /// caller's buffer it leaves behind.
    fn ordered(mut edges: Vec<Edge>) -> (Vec<Edge>, Vec<Edge>) {
        let (mut out, mut spare, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        order_edges(&mut edges, &mut out, &mut spare, &mut counts);
        (out, edges)
    }

    #[test]
    fn edge_order_of_nothing_is_empty() {
        assert_eq!(ordered(Vec::new()), (Vec::new(), Vec::new()));
    }

    #[test]
    #[should_panic(expected = "grouped by ascending smaller endpoint")]
    fn edge_order_rejects_a_run_after_a_larger_endpoint() {
        ordered(vec![Edge::new(2, 3, 1), Edge::new(0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "grouped by ascending smaller endpoint")]
    fn edge_order_rejects_a_larger_endpoint_first() {
        ordered(vec![Edge { u: 3, v: 1, w: 1 }]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The counting order equals the comparison sort it replaced, on
        /// lists grouped by smaller endpoint as the partition takes them:
        /// one weight, a few weights in long equal runs, rank weights, and
        /// ranges of two and four bytes (duplicate pairs included), over up
        /// to a few hundred vertices. The caller's buffer is left in
        /// `(u, v)` order.
        #[test]
        fn edge_order_equals_the_comparison_sort(
            n in 2u32..300,
            mode in 0u32..5,
            raw in proptest::collection::vec((0u32..300, 0u32..300, 0u32..u32::MAX), 0..1500),
        ) {
            let weight = |w: u32| match mode {
                0 => 1,
                1 => 1 + w % 3,
                2 => 1 + w % 20,
                3 => 70_000 + w % 300,
                _ => w,
            };
            let mut edges: Vec<Edge> = raw
                .iter()
                .map(|&(a, b, w)| (a % n, b % n, weight(w)))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, w)| Edge::new(a, b, w))
                .collect();
            // Grouped by u, each run in generation order.
            edges.sort_by_key(|e| e.u);
            let mut expected = edges.clone();
            expected.sort_unstable_by_key(|e| (e.w, e.u, e.v));
            let (out, by_endpoint) = ordered(edges);
            proptest::prop_assert_eq!(out, expected);
            proptest::prop_assert!(by_endpoint.windows(2).all(|p| (p[0].u, p[0].v) <= (p[1].u, p[1].v)));
        }
    }
}
