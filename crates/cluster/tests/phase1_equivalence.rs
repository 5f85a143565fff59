//! Phase 1 against the Algorithm 2 and super-cluster partition it
//! replaced, copied into [`oracle`] unchanged. The kernel now runs the
//! partition on super-cluster-local indices, packs every oversized cluster
//! in one pass, closes C and collects its border incrementally, and keeps
//! its adjacency, membership and partition state in flat per-thread tables
//! reused across requests; none of that may change an output. Every
//! request must return the same outcome — super-cluster, pieces, host
//! cluster, t, message count and requirement, or the same error — and
//! fetch the same set of peers, since the simulated radio draws its
//! outcomes in call order and only the same fetched set replays the same
//! radio. Covered: the `topology` generators under random removed sets and
//! k ∈ {2, 5, 10}, personalized k, a dead peer, a cold request stream over
//! a 20k-user geometric WPG, one thread alternating between a small graph
//! and that WPG, and whole-graph `centralized_k_clustering` on that WPG.
//!
//! The rank rows an incremental WPG maintains are a transport too: fetched
//! through them, Algorithm 2 and the kNN baseline must give the outcome and
//! the fetch sequence of `LocalFetch` over the same tick's snapshot.

use nela_cluster::centralized::centralized_k_clustering;
use nela_cluster::distributed::{distributed_k_clustering_with_policy, DistributedOutcome};
use nela_cluster::{
    knn_cluster_with, Cluster, ClusterError, KPolicy, LocalFetch, PeerFetch, TieBreak,
};
use nela_geo::{DatasetSpec, Point, SpatialDistribution, UserId};
use nela_wpg::{topology, IncrementalWpg, InverseDistanceRss, Weight, Wpg, WpgBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// The original algorithms, verbatim apart from paths: the host-side
/// adjacency cache (whose `internal_edges` named users by id), Algorithm 2,
/// and the level-based partition with its per-cluster packing.
mod oracle {
    use nela_cluster::PeerFetch;
    use nela_cluster::{Cluster, ClusterError, DistributedOutcome, GlobalClustering, KPolicy};
    use nela_geo::UserId;
    use nela_wpg::{DisjointSets, Edge, Weight, Wpg};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet, VecDeque};

    /// Host-side adjacency cache: first access to a peer costs a fetch (one
    /// message), later accesses are free. Tracks the distinct peers contacted —
    /// the paper's communication-cost metric.
    pub struct AdjCache<'f> {
        fetch: &'f mut dyn PeerFetch,
        host: UserId,
        map: std::collections::HashMap<UserId, Vec<(UserId, Weight)>>,
    }

    impl<'f> AdjCache<'f> {
        /// Creates a cache for a protocol run by `host`.
        pub fn new(fetch: &'f mut dyn PeerFetch, host: UserId) -> Self {
            AdjCache {
                fetch,
                host,
                map: std::collections::HashMap::new(),
            }
        }

        /// The adjacency of `u`, fetching on first use.
        pub fn get(&mut self, u: UserId) -> Result<&[(UserId, Weight)], ClusterError> {
            if !self.map.contains_key(&u) {
                let mut adj = Vec::new();
                if !self.fetch.fetch_into(u, &mut adj) {
                    return Err(ClusterError::PeerUnreachable { peer: u });
                }
                self.map.insert(u, adj);
            }
            Ok(self.map.get(&u).expect("just inserted"))
        }

        /// Number of peers whose adjacency was fetched, excluding the host's own
        /// (local, free) list — the per-request communication cost.
        pub fn contacted(&self) -> usize {
            self.map.len() - usize::from(self.map.contains_key(&self.host))
        }

        /// Every undirected edge among `members` known to the cache, each once.
        pub fn internal_edges(&self, members: &[UserId]) -> Vec<nela_wpg::Edge> {
            let set: std::collections::HashSet<UserId> = members.iter().copied().collect();
            let mut edges = Vec::new();
            for &m in members {
                if let Some(adj) = self.map.get(&m) {
                    for &(v, w) in adj {
                        if m < v && set.contains(&v) {
                            edges.push(nela_wpg::Edge::new(m, v, w));
                        }
                    }
                }
            }
            edges
        }
    }

    /// Transport-generic Algorithm 2 under a per-user anonymity policy.
    pub fn distributed_k_clustering_with_policy(
        fetch: &mut dyn PeerFetch,
        host: UserId,
        kp: KPolicy<'_>,
        removed: &dyn Fn(UserId) -> bool,
    ) -> Result<DistributedOutcome, ClusterError> {
        assert!(kp.of(host) >= 1, "anonymity level must be at least 1");
        assert!(!removed(host), "host must not be already clustered");
        let mut adj = AdjCache::new(fetch, host);
        let mut in_c: HashSet<UserId> = HashSet::from([host]);
        let mut t: Weight = 0;
        let mut enqueued: HashSet<UserId> = HashSet::new();

        loop {
            // ---- Step 1: Prim-style span to the current requirement (exactly
            // k in the uniform case; the max k_i of the members so far in the
            // personalized one).
            span_to_requirement(&mut adj, &mut in_c, &mut t, kp, removed)?;

            // ---- Step 2: border validation loop. A vertex that passed once is
            // not rechecked within one pass (t only increases).
            let mut queue: VecDeque<UserId> = VecDeque::new();
            collect_border(&mut adj, &in_c, removed, &mut queue, &mut enqueued)?;

            while let Some(v) = queue.pop_front() {
                if in_c.contains(&v) {
                    continue; // absorbed since it was enqueued
                }
                if border_has_valid_cluster(&mut adj, v, t, kp, removed, &in_c)? {
                    continue; // passes now, passes forever (t only increases)
                }
                // Absorb v; t rises to the lightest edge joining v to C. A border
                // vertex was enqueued because some member listed it, so its own list
                // must name a member back — unless the transport lied.
                let join_w = adj
                    .get(v)?
                    .iter()
                    .filter(|(y, _)| in_c.contains(y))
                    .map(|&(_, w)| w)
                    .min()
                    .ok_or(ClusterError::Inconsistent { user: v })?;
                in_c.insert(v);
                t = t.max(join_w);
                close_under_t(&mut adj, &mut in_c, t, removed)?;
                collect_border(&mut adj, &in_c, removed, &mut queue, &mut enqueued)?;
            }

            // Uniform policy: step 1 reached k and absorption only grows the
            // cluster, so this always holds and the loop runs exactly once.
            // Personalized: an absorbed member may have raised the requirement
            // past the current size — re-span with the enlarged border state.
            if in_c.len() >= kp.required(in_c.iter().copied()) {
                break;
            }
        }

        // ---- Step 3: centralized partition of the super-cluster, over the
        // adjacency already gathered (every member's list is cached). The
        // partition must satisfy the strictest member, so it cuts at the
        // super-cluster's own requirement.
        let mut super_cluster: Vec<UserId> = in_c.iter().copied().collect();
        super_cluster.sort_unstable();
        let k_part = kp.required(super_cluster.iter().copied());
        let edges = adj.internal_edges(&super_cluster);
        let partition = centralized_k_clustering_edges(&super_cluster, &edges, k_part);
        debug_assert!(
            partition.underfilled.is_empty(),
            "super-cluster is connected and ≥ k, its partition cannot underfill"
        );
        // The host is in the super-cluster and a connected super-cluster of
        // size ≥ k cannot underfill, so over an honest transport the partition
        // always covers the host; a corrupted adjacency view can break that.
        let host_idx = partition
            .cluster_of(host)
            .ok_or(ClusterError::Inconsistent { user: host })?;
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

    /// Grows `in_c` Prim-style through edges in increasing weight order until
    /// its size meets the policy requirement of its own members (Algorithm 2
    /// lines 1–6). The heap is seeded from every current member's external
    /// edges; on the first call `in_c` is just the host, reproducing the
    /// original span exactly.
    fn span_to_requirement(
        adj: &mut AdjCache<'_>,
        in_c: &mut HashSet<UserId>,
        t: &mut Weight,
        kp: KPolicy<'_>,
        removed: &dyn Fn(UserId) -> bool,
    ) -> Result<(), ClusterError> {
        let mut need = kp.required(in_c.iter().copied());
        if in_c.len() >= need {
            return Ok(());
        }
        let mut members: Vec<UserId> = in_c.iter().copied().collect();
        members.sort_unstable();
        let mut heap: BinaryHeap<Reverse<(Weight, UserId)>> = BinaryHeap::new();
        for c in members {
            for &(v, w) in adj.get(c)? {
                if !removed(v) && !in_c.contains(&v) {
                    heap.push(Reverse((w, v)));
                }
            }
        }
        while in_c.len() < need {
            let Some(Reverse((w, v))) = heap.pop() else {
                return Err(ClusterError::ComponentTooSmall {
                    reachable: in_c.len(),
                });
            };
            if in_c.contains(&v) {
                continue;
            }
            in_c.insert(v);
            need = need.max(kp.of(v));
            *t = (*t).max(w);
            for &(y, wy) in adj.get(v)? {
                if !removed(y) && !in_c.contains(&y) {
                    heap.push(Reverse((wy, y)));
                }
            }
        }
        Ok(())
    }

    /// Adds every not-yet-enqueued border vertex of C to the check queue. The
    /// adjacency of C members is already cached at the host, so this costs no
    /// new messages. Members are visited in id order so the border queue — and
    /// with it the whole absorption sequence — is deterministic.
    fn collect_border(
        adj: &mut AdjCache<'_>,
        in_c: &HashSet<UserId>,
        removed: &dyn Fn(UserId) -> bool,
        queue: &mut VecDeque<UserId>,
        enqueued: &mut HashSet<UserId>,
    ) -> Result<(), ClusterError> {
        let mut members: Vec<UserId> = in_c.iter().copied().collect();
        members.sort_unstable();
        for c in members {
            for &(v, _) in adj.get(c)? {
                if !in_c.contains(&v) && !removed(v) && enqueued.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        Ok(())
    }

    /// Expands `in_c` to its t-reachability closure ("span C with new t",
    /// Algorithm 2 line 14), fetching adjacency of every vertex that enters.
    fn close_under_t(
        adj: &mut AdjCache<'_>,
        in_c: &mut HashSet<UserId>,
        t: Weight,
        removed: &dyn Fn(UserId) -> bool,
    ) -> Result<(), ClusterError> {
        let mut stack: Vec<UserId> = in_c.iter().copied().collect();
        while let Some(x) = stack.pop() {
            let nbrs: Vec<(UserId, Weight)> = adj.get(x)?.to_vec();
            for (y, w) in nbrs {
                if w <= t && !removed(y) && !in_c.contains(&y) {
                    in_c.insert(y);
                    stack.push(y);
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
        in_c: &HashSet<UserId>,
    ) -> Result<bool, ClusterError> {
        let mut visited: HashSet<UserId> = HashSet::from([v]);
        let mut queue: VecDeque<UserId> = VecDeque::from([v]);
        match kp {
            KPolicy::Uniform(k) => {
                if k <= 1 {
                    return Ok(true);
                }
                while let Some(x) = queue.pop_front() {
                    let nbrs: Vec<(UserId, Weight)> = adj.get(x)?.to_vec();
                    for (y, w) in nbrs {
                        if w <= t && !removed(y) && !in_c.contains(&y) && visited.insert(y) {
                            if visited.len() >= k {
                                return Ok(true);
                            }
                            queue.push_back(y);
                        }
                    }
                }
                Ok(false)
            }
            KPolicy::PerUser(_) => {
                let mut need = kp.of(v);
                while let Some(x) = queue.pop_front() {
                    let nbrs: Vec<(UserId, Weight)> = adj.get(x)?.to_vec();
                    for (y, w) in nbrs {
                        if w <= t && !removed(y) && !in_c.contains(&y) && visited.insert(y) {
                            need = need.max(kp.of(y));
                            queue.push_back(y);
                        }
                    }
                }
                Ok(visited.len() >= need.max(1))
            }
        }
    }

    /// Node of the class-merge forest: a t-connectivity class formed at `level`,
    /// merging `children` classes of strictly lower levels.
    struct ClassNode {
        level: u32,
        size: u32,
        children: Vec<u32>,
        /// Leaf vertex id (leaves only).
        vertex: UserId,
        /// True for nodes created (and possibly extended) at the level
        /// currently being processed; reset between levels.
        open: bool,
    }

    /// Runs the level-based Algorithm 1 over the whole graph.
    pub fn centralized_k_clustering(g: &Wpg, k: usize) -> GlobalClustering {
        assert!(k >= 1, "anonymity level must be at least 1");
        let mut edges: Vec<Edge> = g.edges().collect();
        level_cluster_edge_list(g.n(), None, &mut edges, k)
    }

    /// Level-based Algorithm 1 over an explicit vertex set and edge list — used
    /// by the distributed algorithm, whose host only holds the adjacency it
    /// gathered over the network. Every edge must join two members.
    pub fn centralized_k_clustering_edges(
        members: &[UserId],
        edges: &[Edge],
        k: usize,
    ) -> GlobalClustering {
        assert!(k >= 1, "anonymity level must be at least 1");
        let n = members
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let mut edges = edges.to_vec();
        level_cluster_edge_list(n, Some(members), &mut edges, k)
    }

    /// Shared core of the level-based algorithm.
    fn level_cluster_edge_list(
        n: usize,
        vertices: Option<&[UserId]>,
        edges: &mut [Edge],
        k: usize,
    ) -> GlobalClustering {
        edges.sort_unstable_by_key(|e| (e.w, e.u, e.v));
        let vertex_list: Vec<UserId> = match vertices {
            Some(vs) => vs.to_vec(),
            None => (0..n as UserId).collect(),
        };

        // ---- Pass 1: build the class-merge forest by ascending weight levels.
        let mut nodes: Vec<ClassNode> = Vec::with_capacity(2 * vertex_list.len());
        let mut node_of_root = vec![u32::MAX; n];
        for &v in &vertex_list {
            node_of_root[v as usize] = nodes.len() as u32;
            nodes.push(ClassNode {
                level: 0,
                size: 1,
                children: Vec::new(),
                vertex: v,
                open: false,
            });
        }
        let mut ds = DisjointSets::new(n);
        let mut level_start = 0;
        let mut opened: Vec<u32> = Vec::new();
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
                        nodes[nu as usize].children.push(nv);
                        nodes[nu as usize].size += nodes[nv as usize].size;
                        nu
                    }
                    (false, true) => {
                        nodes[nv as usize].children.push(nu);
                        nodes[nv as usize].size += nodes[nu as usize].size;
                        nv
                    }
                    (true, true) => {
                        // Two open level-w nodes fuse: move nv's children into nu.
                        let moved = std::mem::take(&mut nodes[nv as usize].children);
                        let moved_size = nodes[nv as usize].size;
                        nodes[nu as usize].children.extend(moved);
                        nodes[nu as usize].size += moved_size;
                        nodes[nv as usize].open = false;
                        nu
                    }
                    (false, false) => {
                        let id = nodes.len() as u32;
                        let size = nodes[nu as usize].size + nodes[nv as usize].size;
                        nodes.push(ClassNode {
                            level: w,
                            size,
                            children: vec![nu, nv],
                            vertex: UserId::MAX,
                            open: true,
                        });
                        opened.push(id);
                        id
                    }
                };
                node_of_root[r as usize] = merged;
            }
            for &o in &opened {
                nodes[o as usize].open = false;
            }
            opened.clear();
            level_start = i;
        }

        // ---- Pass 2: top-down cut — recurse into valid children only.
        let mut roots: Vec<u32> = Vec::new();
        {
            let mut seen = std::collections::HashSet::new();
            for &v in &vertex_list {
                let r = ds.find(v);
                if seen.insert(r) {
                    roots.push(node_of_root[r as usize]);
                }
            }
        }
        let mut finals: Vec<u32> = Vec::new(); // final cluster nodes
        let mut stragglers: Vec<u32> = Vec::new(); // undersized side branches
        let mut underfilled_nodes: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for root in roots {
            if (nodes[root as usize].size as usize) < k {
                underfilled_nodes.push(root);
                continue;
            }
            stack.push(root);
            while let Some(ni) = stack.pop() {
                let node = &nodes[ni as usize];
                let any_valid = node
                    .children
                    .iter()
                    .any(|&c| nodes[c as usize].size as usize >= k);
                if !any_valid {
                    finals.push(ni);
                    continue;
                }
                for &c in &node.children {
                    if nodes[c as usize].size as usize >= k {
                        stack.push(c);
                    } else {
                        stragglers.push(c);
                    }
                }
            }
        }

        // ---- Pass 3: attach stragglers to their graph-nearest final cluster.
        // Group id per vertex via a second union-find; a group is "settled" when
        // it contains a final cluster. Scanning edges ascending and unioning any
        // pair not both-settled glues every straggler chain to the lightest
        // reachable final cluster deterministically.
        let mut ds2 = DisjointSets::new(n);
        let mut settled = vec![false; n]; // indexed by ds2 root (maintained on union)
        let mut connectivity = vec![0u32; n]; // per ds2 root: internal MEW so far
        let mut members_buf: Vec<UserId> = Vec::new();
        let mut unsettled_groups = 0usize;
        let seed_group = |nodes: &[ClassNode],
                          ni: u32,
                          is_final: bool,
                          ds2: &mut DisjointSets,
                          settled: &mut [bool],
                          connectivity: &mut [u32],
                          members_buf: &mut Vec<UserId>| {
            members_buf.clear();
            collect_leaves(nodes, ni, members_buf);
            let first = members_buf[0];
            for &m in members_buf.iter().skip(1) {
                ds2.union(first, m);
            }
            let r = ds2.find(first);
            settled[r as usize] = is_final;
            connectivity[r as usize] = nodes[ni as usize].level;
        };
        for &f in &finals {
            seed_group(
                &nodes,
                f,
                true,
                &mut ds2,
                &mut settled,
                &mut connectivity,
                &mut members_buf,
            );
        }
        for &s in &stragglers {
            seed_group(
                &nodes,
                s,
                false,
                &mut ds2,
                &mut settled,
                &mut connectivity,
                &mut members_buf,
            );
            unsettled_groups += 1;
        }
        // Vertices of underfilled components have no seeded group; their edges
        // must not perturb the unsettled-group accounting.
        let mut in_underfilled = vec![false; n];
        for &u in &underfilled_nodes {
            members_buf.clear();
            collect_leaves(&nodes, u, &mut members_buf);
            for &m in &members_buf {
                in_underfilled[m as usize] = true;
            }
        }
        if unsettled_groups > 0 {
            for e in edges.iter() {
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

        // ---- Collect output.
        let mut underfilled = Vec::new();
        for &u in &underfilled_nodes {
            members_buf.clear();
            collect_leaves(&nodes, u, &mut members_buf);
            let mut m = members_buf.clone();
            m.sort_unstable();
            underfilled.push(m);
        }
        let mut by_root: std::collections::HashMap<u32, Vec<UserId>> =
            std::collections::HashMap::new();
        let underfilled_set: std::collections::HashSet<UserId> =
            underfilled.iter().flatten().copied().collect();
        for &v in &vertex_list {
            if !underfilled_set.contains(&v) {
                by_root.entry(ds2.find(v)).or_default().push(v);
            }
        }
        let mut clusters: Vec<Cluster> = by_root
            .into_iter()
            .map(|(root, mut members)| {
                members.sort_unstable();
                Cluster {
                    members,
                    connectivity: connectivity[root as usize],
                }
            })
            .collect();
        clusters.sort_by_key(|c| c.members[0]);
        debug_assert!(
            clusters.iter().all(|c| c.members.len() >= k),
            "straggler attachment left an undersized cluster"
        );
        underfilled.sort();
        let clusters = pack_oversized_clusters(clusters, edges, k);
        GlobalClustering {
            clusters,
            underfilled,
        }
    }

    /// Divides every cluster of size ≥ 2k into t-connected groups of size ≥ k
    /// (the packing pass; see module docs). Groups are carved bottom-up along a
    /// BFS spanning tree of the cluster's ≤ t edges: whenever a residual subtree
    /// reaches k vertices it becomes a group, and the undersized root remainder
    /// merges into an adjacent group. Deterministic for a fixed edge order.
    fn pack_oversized_clusters(clusters: Vec<Cluster>, edges: &[Edge], k: usize) -> Vec<Cluster> {
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

    fn collect_leaves(nodes: &[ClassNode], root: u32, out: &mut Vec<UserId>) {
        let mut stack = vec![root];
        while let Some(ni) = stack.pop() {
            let node = &nodes[ni as usize];
            if node.children.is_empty() {
                out.push(node.vertex);
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
    }
}

/// Records every fetch, and fails the ones for `dead`.
struct Recording<F> {
    inner: F,
    dead: Option<UserId>,
    fetched: Vec<UserId>,
}

impl<'a> Recording<LocalFetch<'a>> {
    fn new(g: &'a Wpg, dead: Option<UserId>) -> Self {
        Recording::over(LocalFetch::new(g), dead)
    }
}

impl<F: PeerFetch> Recording<F> {
    fn over(inner: F, dead: Option<UserId>) -> Self {
        Recording {
            inner,
            dead,
            fetched: Vec::new(),
        }
    }

    /// The peers fetched, ascending (a peer fetched twice shows twice).
    fn fetched_set(mut self) -> Vec<UserId> {
        self.fetched.sort_unstable();
        self.fetched
    }
}

impl<F: PeerFetch> PeerFetch for Recording<F> {
    fn population(&self) -> usize {
        self.inner.population()
    }

    fn fetch_into(&mut self, u: UserId, out: &mut Vec<(UserId, Weight)>) -> bool {
        self.fetched.push(u);
        Some(u) != self.dead && self.inner.fetch_into(u, out)
    }
}

/// Every field of an outcome, comparable.
type Outcome = Result<(Cluster, Vec<Cluster>, Vec<UserId>, Weight, usize, usize), ClusterError>;

fn outcome(r: Result<DistributedOutcome, ClusterError>) -> Outcome {
    r.map(|o| {
        (
            o.host_cluster,
            o.all_clusters,
            o.super_cluster,
            o.connectivity,
            o.involved_users,
            o.required_k,
        )
    })
}

/// Runs both implementations for one request; asserts equal outcomes and,
/// over a live transport, equal fetched sets. Returns the outcome.
fn check(
    g: &Wpg,
    host: UserId,
    kp: KPolicy<'_>,
    removed: &dyn Fn(UserId) -> bool,
    dead: Option<UserId>,
    ctx: &str,
) -> Outcome {
    let mut new_fetch = Recording::new(g, dead);
    let new = outcome(distributed_k_clustering_with_policy(
        &mut new_fetch,
        host,
        kp,
        removed,
    ));
    let mut old_fetch = Recording::new(g, dead);
    let old = outcome(oracle::distributed_k_clustering_with_policy(
        &mut old_fetch,
        host,
        kp,
        removed,
    ));
    assert_eq!(new, old, "{ctx} host {host}");
    // Before a dead peer fails the request, the old closure may have walked
    // members in hash order and fetched a different prefix; only a live
    // transport pins the whole set.
    if dead.is_none() {
        assert_eq!(
            new_fetch.fetched_set(),
            old_fetch.fetched_set(),
            "{ctx} host {host}: fetched peers differ"
        );
    }
    new
}

/// The generator graphs: small, tie-heavy and sparse enough to absorb
/// border vertices and pack oversized clusters.
fn topologies(seed: u64) -> Vec<(String, Wpg)> {
    vec![
        (
            format!("ring_lattice seed {seed}"),
            topology::ring_lattice(120, 4, 6, seed),
        ),
        (
            format!("small_world seed {seed}"),
            topology::small_world(150, 4, 0.2, 8, seed),
        ),
        (
            format!("random_regular seed {seed}"),
            topology::random_regular(120, 3, 5, seed),
        ),
        (
            format!("grid_graph seed {seed}"),
            topology::grid_graph(10, 12, 4, seed),
        ),
    ]
}

/// A random removed set holding about `frac` of the users.
fn removed_set(n: usize, frac: f64, rng: &mut ChaCha8Rng) -> Vec<bool> {
    (0..n).map(|_| rng.gen::<f64>() < frac).collect()
}

#[test]
fn topologies_match_under_random_removed_sets() {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut served = 0usize;
    for seed in 0..2u64 {
        for (name, g) in topologies(seed) {
            for frac in [0.0, 0.15, 0.4] {
                let taken = removed_set(g.n(), frac, &mut rng);
                let removed = |u: UserId| taken[u as usize];
                for k in [2usize, 5, 10] {
                    let ctx = format!("{name} k {k} removed {frac}");
                    // Every other host, alternating with the seed.
                    let hosts = (0..g.n() as UserId).filter(|&h| u64::from(h) % 2 == seed % 2);
                    for host in hosts.filter(|&h| !taken[h as usize]) {
                        let r = check(&g, host, KPolicy::Uniform(k), &removed, None, &ctx);
                        served += usize::from(r.is_ok());
                    }
                }
            }
        }
    }
    assert!(
        served > 1_000,
        "too few served requests to mean much: {served}"
    );
}

#[test]
fn personalized_k_matches() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    for seed in 0..3u64 {
        for (name, g) in topologies(seed) {
            let ks: Vec<usize> = (0..g.n()).map(|_| rng.gen_range(1..=8)).collect();
            let taken = removed_set(g.n(), 0.1, &mut rng);
            let removed = |u: UserId| taken[u as usize];
            let ctx = format!("{name} personalized");
            for host in (0..g.n() as UserId).filter(|&h| !taken[h as usize]) {
                let _ = check(&g, host, KPolicy::PerUser(&ks), &removed, None, &ctx);
            }
        }
    }
}

#[test]
fn a_dead_peer_fails_the_same_requests() {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    for (name, g) in topologies(3) {
        for k in [2usize, 5, 10] {
            let ctx = format!("{name} k {k} dead peer");
            for host in 0..g.n() as UserId {
                let dead = rng.gen_range(0..g.n() as UserId);
                let _ = check(&g, host, KPolicy::Uniform(k), &|_| false, Some(dead), &ctx);
            }
        }
    }
}

/// A 20k-user WPG from the paper's setting: California-like positions, the
/// Table I radio range scaled to keep the expected peer count, M = 10.
/// Built once and shared by the tests that use it.
fn geometric_wpg() -> &'static Wpg {
    static WPG: OnceLock<Wpg> = OnceLock::new();
    WPG.get_or_init(|| {
        let n = 20_000;
        let delta = 2e-3 * (104_770.0f64 / n as f64).sqrt();
        let points = DatasetSpec {
            n,
            seed: 20090329,
            distribution: SpatialDistribution::california(),
        }
        .generate();
        WpgBuilder::new(delta, 10, InverseDistanceRss).build(&points)
    })
}

#[test]
fn geometric_cold_stream_and_whole_graph_match() {
    let g = geometric_wpg();
    let k = 10;
    // A cold stream: random hosts against an empty registry. A served
    // request registers every piece of its super-cluster; a host already
    // registered reuses its cluster and runs no phase 1.
    let mut taken = vec![false; g.n()];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (mut calls, mut absorbed) = (0usize, 0usize);
    while calls < 400 {
        let host = rng.gen_range(0..g.n() as UserId);
        if taken[host as usize] {
            continue;
        }
        calls += 1;
        let removed = |u: UserId| u != host && taken[u as usize];
        let r = check(g, host, KPolicy::Uniform(k), &removed, None, "geometric");
        if let Ok((_, pieces, sc, ..)) = r {
            absorbed += usize::from(sc.len() > k);
            for m in pieces.iter().flat_map(|c| &c.members) {
                taken[*m as usize] = true;
            }
        }
    }
    assert!(
        absorbed > 20,
        "the stream must exercise absorption: {absorbed}"
    );

    let new = centralized_k_clustering(g, k);
    let old = oracle::centralized_k_clustering(g, k);
    assert_eq!(new.clusters, old.clusters);
    assert_eq!(new.underfilled, old.underfilled);
}

#[test]
fn one_thread_alternating_populations_leaks_no_state() {
    // Phase 1 keeps its host tables and partition scratch per thread and
    // reuses them across requests. Here one thread alternates a 120-user
    // generator graph (random removed sets, k ∈ {2, 5, 10}, plus a
    // whole-graph clustering) with a cold stream over the 20k-user WPG, so
    // every request inherits tables last sized and filled for the other
    // population; anything a request reads before writing shows up as a
    // differing outcome or fetched set.
    let small = topology::small_world(120, 4, 0.2, 8, 9);
    let big = geometric_wpg();
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let mut big_taken = vec![false; big.n()];
    let (mut small_served, mut big_served) = (0usize, 0usize);
    for round in 0..160 {
        if round % 2 == 0 {
            let taken = removed_set(small.n(), 0.15, &mut rng);
            let removed = |u: UserId| taken[u as usize];
            let k = [2usize, 5, 10][round / 2 % 3];
            let Some(host) =
                (0..small.n() as UserId).find(|&h| !taken[h as usize] && rng.gen_bool(0.1))
            else {
                continue;
            };
            let ctx = format!("alternating small k {k} round {round}");
            let r = check(&small, host, KPolicy::Uniform(k), &removed, None, &ctx);
            small_served += usize::from(r.is_ok());
            // Whole-graph clustering shares the partition scratch; with k
            // above the population every vertex lands in an underfilled
            // component, which Algorithm 2's partitions never produce.
            let k_all = small.n() + 1;
            let new = centralized_k_clustering(&small, k_all);
            let old = oracle::centralized_k_clustering(&small, k_all);
            assert_eq!(new.clusters, old.clusters, "{ctx} whole graph");
            assert_eq!(new.underfilled, old.underfilled, "{ctx} whole graph");
        } else {
            let host = rng.gen_range(0..big.n() as UserId);
            if big_taken[host as usize] {
                continue;
            }
            let removed = |u: UserId| u != host && big_taken[u as usize];
            let ctx = format!("alternating geometric round {round}");
            let r = check(big, host, KPolicy::Uniform(10), &removed, None, &ctx);
            if let Ok((_, pieces, ..)) = r {
                big_served += 1;
                for m in pieces.iter().flat_map(|c| &c.members) {
                    big_taken[*m as usize] = true;
                }
            }
        }
    }
    assert!(
        small_served > 20 && big_served > 20,
        "too few served requests: {small_served} small, {big_served} geometric"
    );
}

#[test]
fn rank_row_fetch_matches_the_snapshot_across_mobility_ticks() {
    // A clustered population whose incremental WPG follows drifting movers.
    // Each tick, a cold request stream runs Algorithm 2 and the kNN
    // baseline twice: fetching from the rank rows, and from `LocalFetch`
    // over that tick's snapshot. Outcomes and fetch sequences (in call
    // order, since the radio draws in that order) must be equal.
    let n = 6_000;
    let delta = 2e-3 * (104_770.0f64 / n as f64).sqrt();
    let points = DatasetSpec {
        n,
        seed: 20090331,
        distribution: SpatialDistribution::california(),
    }
    .generate();
    let mut inc = IncrementalWpg::new(WpgBuilder::new(delta, 10, InverseDistanceRss), &points);
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let (mut served, mut absorbed, mut knn_served) = (0usize, 0usize, 0usize);
    for tick in 0..4 {
        if tick > 0 {
            let moves: Vec<(UserId, Point)> = (0..n / 10)
                .map(|_| {
                    let id = rng.gen_range(0..n as UserId);
                    let p = inc.points()[id as usize];
                    let q = Point::new(
                        (p.x + rng.gen_range(-delta..delta)).clamp(0.0, 1.0),
                        (p.y + rng.gen_range(-delta..delta)).clamp(0.0, 1.0),
                    );
                    (id, q)
                })
                .collect();
            inc.apply_moves(&moves);
        }
        let snap = inc.snapshot();
        let mut taken = vec![false; n];
        for request in 0..120 {
            let host = rng.gen_range(0..n as UserId);
            if taken[host as usize] {
                continue;
            }
            let ctx = format!("tick {tick} request {request} host {host}");
            let removed = |u: UserId| u != host && taken[u as usize];
            let mut rows = Recording::over(inc.rows(), None);
            let mut csr = Recording::new(&snap, None);
            let kp = KPolicy::Uniform(10);
            let by_rows = outcome(distributed_k_clustering_with_policy(
                &mut rows, host, kp, &removed,
            ));
            let by_csr = outcome(distributed_k_clustering_with_policy(
                &mut csr, host, kp, &removed,
            ));
            assert_eq!(by_rows, by_csr, "{ctx}");
            assert_eq!(rows.fetched, csr.fetched, "{ctx}: fetch sequences differ");

            let mut rows = Recording::over(inc.rows(), None);
            let mut csr = Recording::new(&snap, None);
            let knn = |f: &mut dyn PeerFetch| {
                knn_cluster_with(f, host, 10, &removed, TieBreak::SmallestDegree)
                    .map(|o| (o.cluster, o.involved_users, o.max_distance))
            };
            let knn_rows = knn(&mut rows);
            assert_eq!(knn_rows, knn(&mut csr), "{ctx} kNN");
            assert_eq!(
                rows.fetched, csr.fetched,
                "{ctx} kNN: fetch sequences differ"
            );
            knn_served += usize::from(knn_rows.is_ok());

            if let Ok((_, pieces, sc, ..)) = by_rows {
                served += 1;
                absorbed += usize::from(sc.len() > 10);
                for m in pieces.iter().flat_map(|c| &c.members) {
                    taken[*m as usize] = true;
                }
            }
        }
    }
    assert!(
        served > 100 && absorbed > 5 && knn_served > 100,
        "too little exercised: {served} served, {absorbed} absorbed, {knn_served} kNN"
    );
}
