//! Cluster membership bookkeeping across a sequence of host requests.
//!
//! The system model (paper §III, Fig. 3) makes the cluster — and later its
//! cloaked region — shared state: once a user is a member of any cluster,
//! every future service request by that user reuses the same cluster/region
//! with zero cloaking cost (workflow arrow ®), and the *reciprocity*
//! property requires all members to map to the same set. The registry is
//! that shared state.
//!
//! Under mobility a registered cluster does not stay valid forever: a member
//! can drift out of radio range of its peers, breaking the proximity
//! constraints the cluster was built from. [`ClusterRegistry::invalidate`]
//! retires such a cluster — its members become unassigned (their next
//! request pays full cloaking cost again) while the retired entry stays in
//! place as a tombstone so previously issued [`ClusterId`]s never dangle.
//!
//! For concurrent batch serving, [`ShardedRegistry`] overlays a frozen
//! registry with a region-sharded write path and a lock-free membership
//! table, then folds back into a plain [`ClusterRegistry`] when the batch
//! ends.

use crate::Cluster;
use nela_geo::{Point, Rect, UserId};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identifier of a registered cluster.
pub type ClusterId = u32;

/// A cluster as stored in the registry, optionally with its cloaked region
/// (filled in once phase 2 has run for the cluster).
#[derive(Debug, Clone)]
pub struct RegisteredCluster {
    pub cluster: Cluster,
    pub region: Option<Rect>,
    /// True once the cluster has been invalidated (a tombstone: kept for id
    /// stability, never served again).
    pub retired: bool,
}

/// Tracks which users belong to which cluster over a request workload.
#[derive(Debug, Clone)]
pub struct ClusterRegistry {
    assignment: Vec<Option<ClusterId>>,
    clusters: Vec<RegisteredCluster>,
    /// Lifetime count of invalidated clusters (tombstones).
    retired_count: usize,
}

impl ClusterRegistry {
    /// An empty registry over a population of `n` users.
    pub fn new(n: usize) -> Self {
        ClusterRegistry {
            assignment: vec![None; n],
            clusters: Vec::new(),
            retired_count: 0,
        }
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.assignment.len()
    }

    /// Number of registered clusters, including retired tombstones.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of clusters still live (not retired).
    pub fn active_cluster_count(&self) -> usize {
        self.clusters.len() - self.retired_count
    }

    /// Lifetime number of invalidated clusters.
    pub fn retired_count(&self) -> usize {
        self.retired_count
    }

    /// Number of users currently assigned to some cluster.
    pub fn clustered_users(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// True when `u` already belongs to a cluster.
    pub fn is_clustered(&self, u: UserId) -> bool {
        self.assignment[u as usize].is_some()
    }

    /// The cluster id of `u`, if assigned.
    pub fn cluster_id_of(&self, u: UserId) -> Option<ClusterId> {
        self.assignment[u as usize]
    }

    /// The registered cluster of `u`, if assigned.
    pub fn cluster_of(&self, u: UserId) -> Option<&RegisteredCluster> {
        self.assignment[u as usize].map(|id| &self.clusters[id as usize])
    }

    /// Look up a registered cluster by id.
    pub fn get(&self, id: ClusterId) -> &RegisteredCluster {
        &self.clusters[id as usize]
    }

    /// Registers a cluster, assigning every member to it.
    ///
    /// # Panics
    /// Panics if any member is already assigned — clusters must be disjoint
    /// (a user joins exactly one cluster; reciprocity breaks otherwise).
    pub fn register(&mut self, cluster: Cluster) -> ClusterId {
        let id = self.clusters.len() as ClusterId;
        for &m in &cluster.members {
            assert!(
                self.assignment[m as usize].is_none(),
                "user {m} is already in cluster {:?}",
                self.assignment[m as usize]
            );
            self.assignment[m as usize] = Some(id);
        }
        self.clusters.push(RegisteredCluster {
            cluster,
            region: None,
            retired: false,
        });
        id
    }

    /// Stores the cloaked region computed for cluster `id` by phase 2.
    pub fn set_region(&mut self, id: ClusterId, region: Rect) {
        self.clusters[id as usize].region = Some(region);
    }

    /// Retires cluster `id`: every member becomes unassigned and the entry
    /// turns into a tombstone. Returns the number of users released.
    /// Idempotent — retiring a tombstone releases nobody.
    pub fn invalidate(&mut self, id: ClusterId) -> usize {
        let rc = &mut self.clusters[id as usize];
        if rc.retired {
            return 0;
        }
        rc.retired = true;
        self.retired_count += 1;
        let members = rc.cluster.members.clone();
        let mut released = 0;
        for m in members {
            // A member may already sit in a *newer* cluster (it re-requested
            // after an earlier invalidation); only release it if it still
            // points at the cluster being retired.
            if self.assignment[m as usize] == Some(id) {
                self.assignment[m as usize] = None;
                released += 1;
            }
        }
        released
    }

    /// Iterates over live (non-retired) clusters.
    pub fn active_clusters(&self) -> impl Iterator<Item = (ClusterId, &RegisteredCluster)> {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, rc)| !rc.retired)
            .map(|(id, rc)| (id as ClusterId, rc))
    }

    /// Verifies the reciprocity property: every member of every *live*
    /// cluster maps back to that same cluster (tombstones are exempt — their
    /// members were released). Returns the first violating user, if any.
    pub fn reciprocity_violation(&self) -> Option<UserId> {
        for (id, rc) in self.clusters.iter().enumerate() {
            if rc.retired {
                continue;
            }
            for &m in &rc.cluster.members {
                if self.assignment[m as usize] != Some(id as ClusterId) {
                    return Some(m);
                }
            }
        }
        None
    }
}

/// The registry operations one cloaking request needs: membership probes,
/// lookup, an atomic validate-and-register claim, and region publication.
/// Two implementations: a plain [`ClusterRegistry`] (serial requests — with
/// no rival writer, a clustering computed against it never conflicts) and a
/// shared [`ShardedRegistry`] (lock-free probes, shard-locked claims that
/// conflict when a rival won a member first).
pub trait ClaimSurface {
    /// True when `u` currently belongs to a cluster.
    fn is_clustered(&self, u: UserId) -> bool;

    /// The cluster of `u` — id and published region — with its members
    /// copied into `members_out` (cleared first), so a warm buffer absorbs
    /// the copy and the region-reuse path never allocates.
    fn lookup_into(
        &self,
        u: UserId,
        members_out: &mut Vec<UserId>,
    ) -> Option<(ClusterId, Option<Rect>)>;

    /// Validates that the host and every member of every produced cluster
    /// are unassigned, then registers all produced clusters in order.
    fn try_claim(&mut self, host: UserId, produced: Vec<Cluster>) -> ClaimOutcome;

    /// Publishes cluster `id`'s phase-2 region.
    fn set_region(&mut self, id: ClusterId, region: Rect);
}

impl ClaimSurface for ClusterRegistry {
    fn is_clustered(&self, u: UserId) -> bool {
        ClusterRegistry::is_clustered(self, u)
    }

    fn lookup_into(
        &self,
        u: UserId,
        members_out: &mut Vec<UserId>,
    ) -> Option<(ClusterId, Option<Rect>)> {
        let id = self.assignment[u as usize]?;
        let rc = &self.clusters[id as usize];
        members_out.clear();
        members_out.extend_from_slice(&rc.cluster.members);
        Some((id, rc.region))
    }

    fn try_claim(&mut self, host: UserId, produced: Vec<Cluster>) -> ClaimOutcome {
        let Some(host_idx) = produced.iter().position(|c| c.contains(host)) else {
            return ClaimOutcome::HostMissing;
        };
        if self.is_clustered(host)
            || produced
                .iter()
                .flat_map(|c| &c.members)
                .any(|&m| self.is_clustered(m))
        {
            return ClaimOutcome::Conflict;
        }
        let first = self.clusters.len() as ClusterId;
        let members = produced[host_idx].members.clone();
        for c in produced {
            self.register(c);
        }
        ClaimOutcome::Claimed {
            id: first + host_idx as ClusterId,
            members,
        }
    }

    fn set_region(&mut self, id: ClusterId, region: Rect) {
        ClusterRegistry::set_region(self, id, region)
    }
}

impl ClaimSurface for &ShardedRegistry {
    fn is_clustered(&self, u: UserId) -> bool {
        ShardedRegistry::is_clustered(self, u)
    }

    fn lookup_into(
        &self,
        u: UserId,
        members_out: &mut Vec<UserId>,
    ) -> Option<(ClusterId, Option<Rect>)> {
        ShardedRegistry::lookup_into(self, u, members_out)
    }

    fn try_claim(&mut self, host: UserId, produced: Vec<Cluster>) -> ClaimOutcome {
        ShardedRegistry::try_claim(self, host, produced)
    }

    fn set_region(&mut self, id: ClusterId, region: Rect) {
        ShardedRegistry::set_region(self, id, region)
    }
}

/// Sentinel for "no cluster" in [`ShardedRegistry`]'s atomic assignment
/// table.
const UNASSIGNED: u32 = u32::MAX;

/// Outcome of [`ClaimSurface::try_claim`].
#[derive(Debug)]
pub enum ClaimOutcome {
    /// Every produced cluster was registered atomically; the host's cluster
    /// id and members are returned for phase 2.
    Claimed { id: ClusterId, members: Vec<UserId> },
    /// A rival claimed the host or one of the produced members between the
    /// caller's computation and this claim; nothing was registered — look
    /// the host up again (it may now be served by reuse) or recompute.
    Conflict,
    /// No produced cluster contains the host; nothing was registered. Only
    /// possible when the clustering algorithm returns an inconsistent
    /// cluster set (lying or fallible transports).
    HostMissing,
}

/// A region-sharded concurrent view of a [`ClusterRegistry`] for batch
/// serving.
///
/// A single lock around the registry would serialize every request and
/// force an O(n) membership snapshot per attempt. This type avoids both:
///
/// - **Membership reads are lock-free.** A flat `AtomicU32` table holds
///   every user's current cluster id; the clustering algorithms' `removed`
///   predicate is a single atomic load per probed user.
/// - **Writes lock only the affected shards.** The unit square is cut into
///   `axis × axis` regions; each shard owns the clusters whose *home cell*
///   (the position of the cluster's lowest member id) falls in its region.
///   A claim locks the home shards of every member of every produced
///   cluster — neighbor shards included when a cluster straddles a region
///   boundary — **in ascending shard order**, so overlapping claims always
///   acquire their common shards in the same order and cannot deadlock.
///   Requests in disjoint regions share no lock at all.
///
/// The sharded state is a batch-scoped overlay: the pre-batch registry is
/// frozen (reads need no lock), new clusters accumulate per shard, and
/// [`ShardedRegistry::into_registry`] folds everything back into a plain
/// [`ClusterRegistry`] — cluster ids issued during the batch are private to
/// it, which is sound because served results never expose cluster ids.
pub struct ShardedRegistry {
    base: ClusterRegistry,
    base_count: u32,
    /// Home shard of every user, from its position in the shard grid.
    shard_of_user: Vec<u32>,
    /// Current cluster id per user ([`UNASSIGNED`] when free). Writers hold
    /// the user's home-shard lock; lock-free readers see a claim only once
    /// it is certain (stores happen after validation, under the locks).
    assignment: Vec<AtomicU32>,
    /// One write-once region slot per base cluster, filled only for those
    /// that had no region when the batch started. Reads take no lock.
    base_regions: Vec<OnceLock<Rect>>,
    shards: Vec<Mutex<Shard>>,
}

#[derive(Default)]
struct Shard {
    /// Clusters registered during this batch and homed here, each with its
    /// write-once published region.
    clusters: Vec<(Cluster, Option<Rect>)>,
}

impl ShardedRegistry {
    /// Wraps `base` for a concurrent batch over users at `points`,
    /// sharding the unit square `shards_per_axis × shards_per_axis` ways.
    ///
    /// # Panics
    /// Panics if `points` does not match the registry population.
    pub fn new(base: ClusterRegistry, points: &[Point], shards_per_axis: usize) -> Self {
        assert_eq!(
            base.population(),
            points.len(),
            "points do not match registry population"
        );
        let axis = shards_per_axis.clamp(1, 1 << 10);
        let shard_of_user = points
            .iter()
            .map(|p| {
                let sx = ((p.x * axis as f64) as usize).min(axis - 1);
                let sy = ((p.y * axis as f64) as usize).min(axis - 1);
                (sy * axis + sx) as u32
            })
            .collect();
        let assignment = base
            .assignment
            .iter()
            .map(|a| AtomicU32::new(a.unwrap_or(UNASSIGNED)))
            .collect();
        let base_count = base.cluster_count() as u32;
        let base_regions = (0..base_count).map(|_| OnceLock::new()).collect();
        let mut shards = Vec::with_capacity(axis * axis);
        shards.resize_with(axis * axis, || Mutex::new(Shard::default()));
        ShardedRegistry {
            base,
            base_count,
            shard_of_user,
            assignment,
            base_regions,
            shards,
        }
    }

    /// Lock-free: true when `u` currently belongs to a cluster. The
    /// predicate the clustering algorithms probe — one atomic load instead
    /// of a per-attempt O(n) snapshot copy.
    #[inline]
    pub fn is_clustered(&self, u: UserId) -> bool {
        self.assignment[u as usize].load(Ordering::Acquire) != UNASSIGNED
    }

    /// The cluster of `u` — id and published region — if `u` is assigned,
    /// with its members copied into `members_out` (cleared first). Locks
    /// the home shard of a cluster registered during the batch, nothing for
    /// a base cluster. A serving worker's scratch buffer absorbs the copy:
    /// once its capacity reaches the largest cluster size it never
    /// reallocates — this is what makes the engine's region-reuse fast path
    /// zero-allocation per request.
    pub fn lookup_into(
        &self,
        u: UserId,
        members_out: &mut Vec<UserId>,
    ) -> Option<(ClusterId, Option<Rect>)> {
        let id = self.assignment[u as usize].load(Ordering::Acquire);
        if id == UNASSIGNED {
            return None;
        }
        Some(self.view_into(id, members_out))
    }

    fn view_into(&self, id: ClusterId, members_out: &mut Vec<UserId>) -> (ClusterId, Option<Rect>) {
        members_out.clear();
        if id < self.base_count {
            let rc = self.base.get(id);
            members_out.extend_from_slice(&rc.cluster.members);
            let region = rc
                .region
                .or_else(|| self.base_regions[id as usize].get().copied());
            (id, region)
        } else {
            let (shard, local) = self.decode(id);
            let guard = self.shards[shard].lock();
            let (c, region) = &guard.clusters[local];
            members_out.extend_from_slice(&c.members);
            (id, *region)
        }
    }

    /// Atomically validates that the host and every member of every
    /// produced cluster are still unclaimed, then registers all produced
    /// clusters. Locks the home shards of all members in ascending order
    /// (see the type docs for the deadlock argument).
    pub fn try_claim(&self, host: UserId, produced: Vec<Cluster>) -> ClaimOutcome {
        if !produced.iter().any(|c| c.contains(host)) {
            return ClaimOutcome::HostMissing;
        }
        let touched: BTreeSet<usize> = produced
            .iter()
            .flat_map(|c| &c.members)
            .map(|&m| self.shard_of_user[m as usize] as usize)
            .collect();
        let order: Vec<usize> = touched.into_iter().collect();
        let mut guards: Vec<_> = if nela_obs::enabled() {
            let started = Instant::now();
            let guards: Vec<_> = order.iter().map(|&s| self.shards[s].lock()).collect();
            let waited = nela_obs::saturating_ns(started.elapsed());
            nela_obs::observe(nela_obs::stage::REGISTRY_LOCK_WAIT, waited);
            guards
        } else {
            order.iter().map(|&s| self.shards[s].lock()).collect()
        };
        // Under the locks every touched slot is stable: a writer must hold
        // the member's home-shard lock, and we hold all of them.
        let claimed = |m: UserId| self.assignment[m as usize].load(Ordering::Acquire) != UNASSIGNED;
        if claimed(host)
            || produced
                .iter()
                .flat_map(|c| &c.members)
                .any(|&m| claimed(m))
        {
            nela_obs::add(nela_obs::counter::CLAIM_CONFLICTS, 1);
            return ClaimOutcome::Conflict;
        }
        let mut host_claim = None;
        for c in produced {
            let home = self.home_shard_of_members(&c.members);
            let slot = order.binary_search(&home).expect("home shard is locked");
            let guard = &mut guards[slot];
            let id = self.encode(home, guard.clusters.len());
            for &m in &c.members {
                self.assignment[m as usize].store(id, Ordering::Release);
            }
            if c.contains(host) {
                host_claim = Some((id, c.members.clone()));
            }
            guard.clusters.push((c, None));
        }
        let (id, members) = host_claim.expect("coverage checked above");
        ClaimOutcome::Claimed { id, members }
    }

    /// Publishes the phase-2 region of cluster `id`, first writer wins —
    /// bounding is deterministic per cluster, so rivals compute the
    /// identical rectangle. Locks the home shard of a cluster registered
    /// during the batch; a base cluster's write-once slot needs no shard lock.
    pub fn set_region(&self, id: ClusterId, region: Rect) {
        if id < self.base_count {
            if self.base.get(id).region.is_none() {
                // A rival that published first keeps its region.
                let _ = self.base_regions[id as usize].set(region);
            }
        } else {
            let (shard, local) = self.decode(id);
            let mut guard = self.shards[shard].lock();
            let slot = &mut guard.clusters[local].1;
            if slot.is_none() {
                *slot = Some(region);
            }
        }
    }

    /// Folds the batch back into a plain registry: base-cluster region
    /// publications are applied, then every new cluster is registered
    /// (shards in ascending order, registration order within each). The
    /// batch-scoped cluster ids die here; the returned registry satisfies
    /// reciprocity by construction.
    pub fn into_registry(self) -> ClusterRegistry {
        let mut reg = self.base;
        for (id, slot) in self.base_regions.into_iter().enumerate() {
            if let Some(region) = slot.into_inner() {
                reg.set_region(id as ClusterId, region);
            }
        }
        for shard in self.shards {
            for (cluster, region) in shard.into_inner().clusters {
                let id = reg.register(cluster);
                if let Some(r) = region {
                    reg.set_region(id, r);
                }
            }
        }
        reg
    }

    /// A cluster's home shard: the shard of its lowest member id's position
    /// (members are sorted). Deterministic, so every claimer computes the
    /// same home for the same cluster.
    fn home_shard_of_members(&self, members: &[UserId]) -> usize {
        self.shard_of_user[members[0] as usize] as usize
    }

    /// Batch-scoped id of the `local`-th cluster homed in `shard`; decodable
    /// and collision-free across shards.
    fn encode(&self, shard: usize, local: usize) -> ClusterId {
        self.base_count + (local * self.shards.len() + shard) as u32
    }

    fn decode(&self, id: ClusterId) -> (usize, usize) {
        let r = (id - self.base_count) as usize;
        (r % self.shards.len(), r / self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(members: &[UserId]) -> Cluster {
        Cluster {
            members: members.to_vec(),
            connectivity: 1,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = ClusterRegistry::new(10);
        let id = reg.register(cluster(&[1, 2, 3]));
        assert!(reg.is_clustered(2));
        assert!(!reg.is_clustered(4));
        assert_eq!(reg.cluster_id_of(3), Some(id));
        assert_eq!(reg.cluster_of(1).unwrap().cluster.members, vec![1, 2, 3]);
        assert_eq!(reg.clustered_users(), 3);
        assert_eq!(reg.cluster_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already in cluster")]
    fn double_registration_panics() {
        let mut reg = ClusterRegistry::new(5);
        reg.register(cluster(&[0, 1]));
        reg.register(cluster(&[1, 2]));
    }

    #[test]
    fn region_storage() {
        let mut reg = ClusterRegistry::new(5);
        let id = reg.register(cluster(&[0, 1]));
        assert!(reg.get(id).region.is_none());
        reg.set_region(id, Rect::new(0.0, 0.0, 0.5, 0.5));
        assert_eq!(reg.cluster_of(1).unwrap().region.unwrap().area(), 0.25);
    }

    #[test]
    fn is_clustered_reflects_assignment() {
        let mut reg = ClusterRegistry::new(5);
        reg.register(cluster(&[3, 4]));
        assert!(reg.is_clustered(3));
        assert!(!reg.is_clustered(0));
    }

    #[test]
    fn reciprocity_holds_for_registered_clusters() {
        let mut reg = ClusterRegistry::new(8);
        reg.register(cluster(&[0, 1, 2]));
        reg.register(cluster(&[5, 6]));
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn invalidate_releases_members_and_tombstones() {
        let mut reg = ClusterRegistry::new(8);
        let a = reg.register(cluster(&[0, 1, 2]));
        let b = reg.register(cluster(&[5, 6]));
        assert_eq!(reg.invalidate(a), 3);
        assert!(!reg.is_clustered(1));
        assert!(reg.is_clustered(5));
        assert!(reg.get(a).retired);
        assert_eq!(reg.cluster_count(), 2);
        assert_eq!(reg.active_cluster_count(), 1);
        assert_eq!(reg.retired_count(), 1);
        let active: Vec<ClusterId> = reg.active_clusters().map(|(id, _)| id).collect();
        assert_eq!(active, vec![b]);
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut reg = ClusterRegistry::new(4);
        let id = reg.register(cluster(&[0, 1]));
        assert_eq!(reg.invalidate(id), 2);
        assert_eq!(reg.invalidate(id), 0);
        assert_eq!(reg.retired_count(), 1);
    }

    #[test]
    fn released_users_can_rejoin_new_clusters() {
        let mut reg = ClusterRegistry::new(6);
        let a = reg.register(cluster(&[0, 1, 2]));
        reg.invalidate(a);
        let b = reg.register(cluster(&[1, 3]));
        assert_eq!(reg.cluster_id_of(1), Some(b));
        // Retiring the old tombstone's id again must not steal 1 from b.
        assert_eq!(reg.invalidate(a), 0);
        assert_eq!(reg.cluster_id_of(1), Some(b));
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn plain_claim_registers_in_order_and_looks_up() {
        let mut reg = ClusterRegistry::new(8);
        match reg.try_claim(5, vec![cluster(&[0, 1]), cluster(&[4, 5, 6])]) {
            ClaimOutcome::Claimed { id, members } => {
                assert_eq!((id, members), (1, vec![4, 5, 6]));
            }
            other => panic!("claim failed: {other:?}"),
        }
        assert_eq!(reg.cluster_id_of(0), Some(0));
        let mut members = vec![99];
        assert_eq!(reg.lookup_into(6, &mut members), Some((1, None)));
        assert_eq!(members, vec![4, 5, 6]);
        ClaimSurface::set_region(&mut reg, 1, Rect::new(0.0, 0.0, 0.5, 0.5));
        assert!(reg.lookup_into(4, &mut members).unwrap().1.is_some());
        assert_eq!(reg.lookup_into(7, &mut members), None);
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn plain_claim_rejects_taken_members_and_missing_hosts() {
        let mut reg = ClusterRegistry::new(8);
        reg.register(cluster(&[1, 2]));
        assert!(matches!(
            reg.try_claim(3, vec![cluster(&[2, 3])]),
            ClaimOutcome::Conflict
        ));
        assert!(matches!(
            reg.try_claim(7, vec![cluster(&[5, 6])]),
            ClaimOutcome::HostMissing
        ));
        assert_eq!(reg.cluster_count(), 1, "rejected claims register nothing");
    }

    /// Users 0..4 in the lower-left region, 4..8 in the upper-right — two
    /// distinct shards at any axis ≥ 2.
    fn two_region_points() -> Vec<Point> {
        (0..8)
            .map(|i| {
                if i < 4 {
                    Point::new(0.1 + i as f64 * 0.01, 0.1)
                } else {
                    Point::new(0.9, 0.9 - (i - 4) as f64 * 0.01)
                }
            })
            .collect()
    }

    #[test]
    fn sharded_claim_and_lookup() {
        let pts = two_region_points();
        let sharded = ShardedRegistry::new(ClusterRegistry::new(8), &pts, 2);
        assert!(!sharded.is_clustered(1));
        match sharded.try_claim(1, vec![cluster(&[0, 1, 2])]) {
            ClaimOutcome::Claimed { id, members } => {
                assert_eq!(members, vec![0, 1, 2]);
                assert!(sharded.is_clustered(0));
                assert!(!sharded.is_clustered(3));
                let mut lmembers = Vec::new();
                assert_eq!(sharded.lookup_into(2, &mut lmembers), Some((id, None)));
                assert_eq!(lmembers, vec![0, 1, 2]);
                sharded.set_region(id, Rect::new(0.0, 0.0, 0.3, 0.3));
                // First writer wins: a rival's identical publish is a no-op.
                sharded.set_region(id, Rect::new(0.0, 0.0, 0.9, 0.9));
                let (_, region) = sharded.lookup_into(0, &mut lmembers).unwrap();
                assert_eq!(region.unwrap().area(), 0.09);
            }
            other => panic!("claim failed: {other:?}"),
        }
        let reg = sharded.into_registry();
        assert_eq!(reg.clustered_users(), 3);
        assert_eq!(reg.reciprocity_violation(), None);
        assert_eq!(reg.cluster_of(1).unwrap().region.unwrap().area(), 0.09);
    }

    #[test]
    fn sharded_conflict_leaves_nothing_registered() {
        let pts = two_region_points();
        let sharded = ShardedRegistry::new(ClusterRegistry::new(8), &pts, 2);
        assert!(matches!(
            sharded.try_claim(0, vec![cluster(&[0, 1])]),
            ClaimOutcome::Claimed { .. }
        ));
        // 1 is taken: the whole rival claim must be rejected atomically.
        assert!(matches!(
            sharded.try_claim(2, vec![cluster(&[1, 2]), cluster(&[3, 4])]),
            ClaimOutcome::Conflict
        ));
        assert!(!sharded.is_clustered(3));
        assert!(!sharded.is_clustered(4));
        let reg = sharded.into_registry();
        assert_eq!(reg.cluster_count(), 1);
        assert_eq!(reg.reciprocity_violation(), None);
    }

    #[test]
    fn sharded_cluster_straddling_a_boundary_claims_cleanly() {
        let pts = two_region_points();
        let sharded = ShardedRegistry::new(ClusterRegistry::new(8), &pts, 2);
        // Members span both regions: the claim locks both home shards (in
        // ascending order) and still lands in one piece.
        match sharded.try_claim(5, vec![cluster(&[2, 3, 5, 6])]) {
            ClaimOutcome::Claimed { members, .. } => {
                assert_eq!(members, vec![2, 3, 5, 6]);
            }
            other => panic!("straddling claim failed: {other:?}"),
        }
        assert!(sharded.is_clustered(6));
        assert_eq!(sharded.into_registry().reciprocity_violation(), None);
    }

    #[test]
    fn sharded_host_missing_registers_nothing() {
        let pts = two_region_points();
        let sharded = ShardedRegistry::new(ClusterRegistry::new(8), &pts, 2);
        assert!(matches!(
            sharded.try_claim(7, vec![cluster(&[0, 1])]),
            ClaimOutcome::HostMissing
        ));
        assert!(!sharded.is_clustered(0));
        assert_eq!(sharded.into_registry().cluster_count(), 0);
    }

    #[test]
    fn sharded_base_clusters_survive_with_regions() {
        let pts = two_region_points();
        let mut base = ClusterRegistry::new(8);
        let a = base.register(cluster(&[0, 1]));
        base.set_region(a, Rect::new(0.0, 0.0, 0.5, 0.5));
        let b = base.register(cluster(&[4, 5]));
        let sharded = ShardedRegistry::new(base, &pts, 4);
        // Pre-batch assignments are visible lock-free.
        assert!(sharded.is_clustered(0));
        let mut members = Vec::new();
        let (_, region) = sharded.lookup_into(1, &mut members).unwrap();
        assert_eq!(region.unwrap().area(), 0.25);
        assert_eq!(members, vec![0, 1]);
        // A base cluster without a region gets a write-once publication.
        assert_eq!(sharded.lookup_into(4, &mut members), Some((b, None)));
        sharded.set_region(b, Rect::new(0.8, 0.8, 1.0, 1.0));
        sharded.set_region(b, Rect::UNIT); // loses: first writer won
        let (_, region) = sharded.lookup_into(5, &mut members).unwrap();
        assert!((region.unwrap().area() - 0.04).abs() < 1e-12);
        // A new cluster on top of the frozen base folds back consistently.
        assert!(matches!(
            sharded.try_claim(2, vec![cluster(&[2, 3])]),
            ClaimOutcome::Claimed { .. }
        ));
        let reg = sharded.into_registry();
        assert_eq!(reg.cluster_count(), 3);
        assert_eq!(reg.reciprocity_violation(), None);
        assert!((reg.get(b).region.unwrap().area() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn racing_publications_of_a_base_region_leave_one_region() {
        let pts = two_region_points();
        let mut base = ClusterRegistry::new(8);
        let id = base.register(cluster(&[4, 5, 6]));
        let sharded = ShardedRegistry::new(base, &pts, 2);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        // Every thread publishes a region of its own, then reads one back.
        let seen: Vec<Rect> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (sharded, barrier) = (&sharded, &barrier);
                    scope.spawn(move || {
                        let side = 0.05 + 0.01 * t as f64;
                        barrier.wait();
                        sharded.set_region(id, Rect::new(0.8, 0.8, 0.8 + side, 0.8 + side));
                        let mut members = Vec::new();
                        let host = 4 + (t % 3) as UserId;
                        let (_, region) = sharded.lookup_into(host, &mut members).unwrap();
                        region.expect("a region was published before this read")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let winner = seen[0];
        assert!(
            seen.iter().all(|r| *r == winner),
            "lookups disagree: {seen:?}"
        );
        let mut members = Vec::new();
        for host in [4, 5, 6] {
            assert_eq!(
                sharded.lookup_into(host, &mut members),
                Some((id, Some(winner)))
            );
        }
        let reg = sharded.into_registry();
        assert_eq!(reg.get(id).region, Some(winner));
    }

    #[test]
    fn sharded_concurrent_claims_in_disjoint_regions() {
        // Claims racing from many threads must keep the registry sound:
        // every user in at most one cluster, reciprocity preserved.
        let n = 64usize;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 8) as f64 / 8.0 + 0.05, (i / 8) as f64 / 8.0 + 0.05))
            .collect();
        let sharded = ShardedRegistry::new(ClusterRegistry::new(n), &pts, 4);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let sharded = &sharded;
                scope.spawn(move || {
                    // Thread t claims clusters over overlapping id windows so
                    // some claims genuinely conflict.
                    for start in (0..56).step_by(4) {
                        let members: Vec<UserId> =
                            (start..start + 4 + (t % 2)).map(|i| i as UserId).collect();
                        let _ = sharded.try_claim(members[0], vec![cluster(&members)]);
                    }
                });
            }
        });
        let reg = sharded.into_registry();
        assert_eq!(reg.reciprocity_violation(), None);
        assert!(reg.cluster_count() > 0);
    }
}
