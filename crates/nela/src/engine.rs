//! The end-to-end cloaking engine (paper Fig. 3's workflow).
//!
//! A [`CloakingEngine`] owns the shared cluster registry and serves a
//! sequence of host requests:
//!
//! 1. If the host already belongs to a registered cluster, its cloaked
//!    region is reused — zero clustering cost (workflow arrow ®); if the
//!    cluster exists but was never bounded (it was a by-product of another
//!    host's request), only phase 2 runs.
//! 2. Otherwise phase 1 runs under the configured [`ClusteringAlgo`]
//!    (distributed t-connectivity ¶, or the anonymizer's partition of the
//!    whole population: centralized t-connectivity ¬ or hilbASR), and all
//!    produced clusters are registered.
//! 3. Phase 2 (secure bounding, workflow arrow ­) computes the cloaked
//!    rectangle under the configured [`BoundingAlgo`].
//!
//! Every request — serial, batched, in a concurrent [`EngineSession`],
//! in-process, over the simulated radio or under the scenario matrix's
//! adversarial peers — enters through `CloakingEngine::request_on`. For
//! every algorithm but kNN it runs the one loop in `CloakingEngine::serve`:
//! lookup/reuse → phase 1 → claim (retry on conflict) → phase 2 → publish.
//! The loop is generic over the registry's claim surface
//! (`ClusterRegistry` serially, `ShardedRegistry` in a session) and over
//! the transport carrying the protocol phases (in-process or a per-request
//! simulated network). The kNN baseline forms a fresh, possibly overlapping
//! group per request, so it skips the registry and only shares phase 2.
//!
//! The engine borrows what it serves from: the parameters, the positions
//! and phase 1's graph, which is either a [`System`]'s CSR or the rank rows
//! an incremental WPG maintains ([`CloakingEngine::over_rows`]). Both give
//! every fetch the same list, so the outcome does not depend on which one
//! an engine holds; a mobility tick serves from the rows without building a
//! snapshot or copying a position.

use crate::params::Params;
use crate::system::System;
use nela_bounding::baselines::{ExponentialPolicy, LinearPolicy};
use nela_bounding::bbox::{bounding_box, BboxOutcome};
use nela_bounding::distribution::Uniform;
use nela_bounding::nbound::{IncrementTable, SecurePolicy};
use nela_bounding::protocol::{progressive_bound, BoundingError, IncrementPolicy, LocalValues};
use nela_cluster::centralized::centralized_k_clustering;
use nela_cluster::distributed::{distributed_k_clustering_with_policy, DistributedOutcome};
use nela_cluster::knn::{knn_cluster_with, TieBreak};
use nela_cluster::registry::{
    ClaimOutcome, ClaimSurface, ClusterId, ClusterRegistry, ShardedRegistry,
};
use nela_cluster::{Cluster, ClusterError, KPolicy, LocalFetch, PeerFetch};
use nela_geo::{Point, Rect, UserId};
use nela_netsim::{ConfigError, Network, NetworkConfig, NetworkStats, SimFetch, SimVerify};
use nela_wpg::{RankRows, Wpg};
use serde::Serialize;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Typed failure of one cloaking request: either phase can fail, and under
/// concurrent serving a request can additionally starve on contention. A
/// failed request degrades gracefully — the engine and its registry stay
/// usable for subsequent requests.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// Phase 1 failed: the host cannot reach k users in the remaining WPG
    /// (paper Fig. 5's disconnected problem) or a required peer is down.
    Cluster(ClusterError),
    /// Phase 2 failed: the cluster could not be bounded (empty or malformed
    /// cluster, unreachable participant, misbehaving increment policy).
    Bounding(BoundingError),
    /// Concurrent serving only: the retry budget was exhausted because rival
    /// requests kept claiming members of every computed cluster.
    Contention {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Phase 1 produced a partition that does not cover the host — a
    /// protocol-level inconsistency (impossible over an honest in-memory
    /// graph). The request fails; nothing is registered, so the engine
    /// stays usable.
    HostNotClustered,
    /// The host id names no user of the engine's system. Rejected before
    /// any registry probe or protocol message.
    UnknownHost {
        /// The id that was asked for.
        host: UserId,
    },
}

impl From<ClusterError> for RequestError {
    fn from(e: ClusterError) -> Self {
        RequestError::Cluster(e)
    }
}

impl From<BoundingError> for RequestError {
    fn from(e: BoundingError) -> Self {
        RequestError::Bounding(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Cluster(e) => write!(f, "clustering failed: {e}"),
            RequestError::Bounding(e) => write!(f, "bounding failed: {e}"),
            RequestError::Contention { attempts } => {
                write!(f, "request starved after {attempts} contended attempts")
            }
            RequestError::HostNotClustered => {
                write!(f, "clustering returned a partition that misses the host")
            }
            RequestError::UnknownHost { host } => {
                write!(f, "host {host} is not a user of this system")
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Cluster(e) => Some(e),
            RequestError::Bounding(e) => Some(e),
            RequestError::Contention { .. }
            | RequestError::HostNotClustered
            | RequestError::UnknownHost { .. } => None,
        }
    }
}

/// Why [`CloakingEngine::with_personalized_k`] refused a set of levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersonalizedKError {
    /// The engine does not run [`ClusteringAlgo::TConnDistributed`]; the
    /// baselines have no per-member requirement.
    NotDistributed(ClusteringAlgo),
    /// The levels do not hold exactly one `k_i` per user.
    WrongLength {
        /// Levels given.
        levels: usize,
        /// Users in the engine's system.
        population: usize,
    },
    /// A user's level is 0; every `k_i` must be at least 1.
    ZeroLevel {
        /// The first user with level 0.
        user: UserId,
    },
}

impl std::fmt::Display for PersonalizedKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersonalizedKError::NotDistributed(algo) => write!(
                f,
                "personalized k requires the distributed clustering algorithm, not {algo:?}"
            ),
            PersonalizedKError::WrongLength { levels, population } => {
                write!(f, "{levels} levels given for {population} users")
            }
            PersonalizedKError::ZeroLevel { user } => write!(f, "user {user} has level 0"),
        }
    }
}

impl std::error::Error for PersonalizedKError {}

/// Claim attempts per request before it reports
/// [`RequestError::Contention`]. Only rival claims make an attempt fail, so
/// a serial engine always succeeds or fails on its first attempt.
const MAX_CONCURRENT_ATTEMPTS: u32 = 16;

/// Phase-1 algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringAlgo {
    /// Distributed t-connectivity k-clustering (Algorithm 2) — the paper's
    /// proposal.
    TConnDistributed,
    /// Centralized t-connectivity k-clustering at an anonymizer that holds
    /// the full WPG (Algorithm 1): the whole population is clustered on the
    /// first lookup miss, and the request that registers the partition pays
    /// one message per user.
    TConnCentralized,
    /// The kNN baseline with the given tie-break. Modeled after Chow et
    /// al.'s peer-to-peer grouping (the paper's reference \[8\]): **every**
    /// request forms a fresh group of the host plus its k−1 nearest
    /// not-yet-clustered users — there is no cluster reuse, which is why the
    /// paper's Fig. 12(a) shows kNN's cost flat in S while its region size
    /// deteriorates (hosts inside depleted neighborhoods must span far).
    Knn(TieBreak),
    /// hilbASR (Ghinita et al., the paper's reference \[7\]): every user
    /// submits its **exact coordinates** to the anonymizer, which sorts the
    /// population along a Hilbert curve and buckets every k consecutive
    /// users. The quality ceiling of position-exposing schemes — the very
    /// exposure NELA exists to eliminate. Included as the privacy-tradeoff
    /// reference, never as a recommendation.
    HilbAsr,
}

/// Phase-2 algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundingAlgo {
    /// Non-private exact bounding box (benchmark only).
    Optimal,
    /// The paper's secure bounding: cost-model-optimal N-bounding increments.
    Secure,
    /// Fixed fine increments (one quarter of the model span U per round) —
    /// the most conservative progressive baseline: most rounds, tightest
    /// bound.
    Linear,
    /// First increment U, then doubling — the most aggressive baseline:
    /// fewest rounds, loosest bound.
    Exponential,
}

/// Outcome of one cloaking request.
#[derive(Debug, Clone)]
pub struct CloakingResult {
    /// The requesting host.
    pub host: UserId,
    /// The cloaked region sent with the service request.
    pub region: Rect,
    /// Members in the host's k-anonymity cluster.
    pub cluster_size: usize,
    /// Phase-1 messages (0 when the cluster was reused).
    pub clustering_messages: u64,
    /// Phase-2 verification messages (0 when the region was reused).
    pub bounding_messages: u64,
    /// Phase-2 rounds across the four directional runs.
    pub bounding_rounds: usize,
    /// The anonymity requirement this request had to meet: `Params::k`
    /// under the uniform policy, the max personalized `k_i` over the
    /// host's cluster members otherwise (what `verify::audit_result`
    /// checks the region against).
    pub required_k: usize,
    /// True when both phases were skipped entirely.
    pub reused: bool,
    /// The serving process's phase-2 CPU time for this request: the
    /// protocol logic plus the increments, read from (or solved into) the
    /// process's increment table for the deployment's cost model, which
    /// every engine over that model shares. One device solving its own
    /// increments pays more; that per-device cost is the paper's
    /// Fig. 13(d) metric, which `exp_fig13` times separately.
    pub bounding_cpu: Duration,
}

/// The graph phase 1 reads, borrowed: a built CSR, or the rank rows an
/// incremental WPG maintains. Both answer every fetch with the same list
/// (`RankRows::row_into` returns the snapshot's CSR row), so an engine's
/// outcomes do not depend on which it holds.
#[derive(Clone, Copy)]
enum Graph<'a> {
    Csr(&'a Wpg),
    Rows(RankRows<'a>),
}

impl<'a> Graph<'a> {
    /// Runs `f` over an in-memory fetch of this graph.
    fn with_fetch<R>(self, f: impl FnOnce(&mut dyn PeerFetch) -> R) -> R {
        match self {
            Graph::Csr(g) => f(&mut LocalFetch::new(g)),
            Graph::Rows(mut rows) => f(&mut rows),
        }
    }

    /// The whole graph as a CSR, for the baselines that partition all of
    /// it; built from the rows when those are what the engine holds.
    fn csr(self) -> Cow<'a, Wpg> {
        match self {
            Graph::Csr(g) => Cow::Borrowed(g),
            Graph::Rows(rows) => Cow::Owned(rows.to_wpg()),
        }
    }
}

/// The engine serving a request workload over one deployment: a
/// [`System`], or a mobility tick's maintained positions and rank rows.
pub struct CloakingEngine<'a> {
    params: &'a Params,
    /// Ground-truth positions, index = user id.
    points: &'a [Point],
    /// Phase 1's graph.
    graph: Graph<'a>,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
    registry: ClusterRegistry,
    /// Centralized and hilbASR only: the anonymizer's partition of the
    /// population, built on the first lookup miss without the clusters
    /// that overlap one the registry already held (so centralized
    /// t-connectivity builds its CSR at most once per engine). Its first
    /// claim registers it whole.
    partition: OnceLock<Vec<Cluster>>,
    /// kNN mode only: users consumed by earlier groups (the kNN baseline
    /// has no shared registry — each request forms a fresh group). Locked
    /// for phase 1 only.
    knn_taken: Mutex<Vec<bool>>,
    /// Personalized per-user anonymity levels (`k_of[u]` is user u's
    /// `k_i`); `None` serves everyone at the uniform `Params::k`.
    k_of: Option<Vec<usize>>,
    /// The process's secure-bounding increment table for this deployment's
    /// cost model, shared by every directional run, request, session worker
    /// and engine over that model (so a mobility tick's engine starts from
    /// the solves earlier ticks stored).
    increments: &'static IncrementTable,
}

/// Per-thread scratch reused across requests: the lookup fills `members`
/// in place instead of cloning the member list, and phase 2 gathers
/// `member_points` into a reused buffer — so a warmed thread serves
/// region-reuse requests with zero heap allocations (the alloc-guard test
/// pins this).
#[derive(Default)]
struct RequestScratch {
    members: Vec<UserId>,
    member_points: Vec<Point>,
}

thread_local! {
    /// One scratch per serving thread. [`EngineSession::request`] takes
    /// `&self` from arbitrary caller threads, so the scratch cannot live in
    /// the session (or engine) without a lock — thread-local storage gives
    /// each worker its own warm buffers for free.
    static REQUEST_SCRATCH: std::cell::RefCell<RequestScratch> =
        std::cell::RefCell::new(RequestScratch::default());
}

/// Per-thread buffers of the in-process and radio phase 2: one direction's
/// values, as `LocalValues` and `SimVerify` read them, and the bounding
/// loop's work list. The engine asks for no transcript, so a warm call
/// bounds without allocating.
#[derive(Default)]
struct BoundScratch {
    values: Vec<f64>,
    participants: Vec<(UserId, f64)>,
    disagreeing: Vec<usize>,
}

thread_local! {
    /// One phase-2 scratch per serving thread.
    static BOUND_SCRATCH: std::cell::RefCell<BoundScratch> =
        std::cell::RefCell::new(BoundScratch::default());
}

/// How one request's protocol phases reach its peers. Three
/// implementations: [`Local`] (in-memory adjacency and values), [`Radio`]
/// (RPCs over a simulated network) and the scenario matrix's adversarial
/// transport (in-memory phase 1, phase 2 under crashing, lying or
/// colluding peers).
pub(crate) trait Transport {
    /// Phase 1: Algorithm 2 for `host` over the remaining WPG, whose
    /// in-memory adjacency `local` serves; by default straight from it.
    fn cluster(
        &mut self,
        local: &mut dyn PeerFetch,
        host: UserId,
        kp: KPolicy<'_>,
        removed: &dyn Fn(UserId) -> bool,
    ) -> Result<DistributedOutcome, ClusterError> {
        distributed_k_clustering_with_policy(local, host, kp, removed)
    }

    /// Phase 2: the four directional bounding runs over the members
    /// (`members[i]` sits at `points[i]`), anchored at the host and
    /// assembled by [`bounding_box`]. Every run bounds with its own copy of
    /// `policy`.
    fn bound_box<P: IncrementPolicy + Clone>(
        &mut self,
        host: UserId,
        host_point: Point,
        members: &[UserId],
        points: &[Point],
        policy: &P,
    ) -> Result<BboxOutcome, BoundingError>;

    /// Ends one claim attempt; the next attempt's phases start afresh.
    fn end_attempt(&mut self) {}
}

/// The in-process transport: in-memory adjacency and `LocalValues`
/// verifications.
struct Local;

impl Transport for Local {
    fn bound_box<P: IncrementPolicy + Clone>(
        &mut self,
        _host: UserId,
        host_point: Point,
        _members: &[UserId],
        points: &[Point],
        policy: &P,
    ) -> Result<BboxOutcome, BoundingError> {
        BOUND_SCRATCH.with(|scratch| {
            let BoundScratch {
                values,
                disagreeing,
                ..
            } = &mut *scratch.borrow_mut();
            bounding_box(host_point, Rect::UNIT, |dir, x0, domain_min| {
                values.clear();
                values.extend(points.iter().map(|p| dir.value(p)));
                let mut transport = LocalValues::new(values);
                let mut policy = policy.clone();
                progressive_bound(
                    &mut transport,
                    x0,
                    domain_min,
                    &mut policy,
                    disagreeing,
                    None,
                )
            })
        })
    }
}

/// The netsim transport of one request: `SimFetch` adjacency (each RPC
/// answered from the engine's in-memory fetch) and `SimVerify`
/// verifications on a fresh [`Network`] per attempt, seeded
/// with `mix_seed(session seed, host)` so every outcome is a pure function
/// of the request — independent of worker count and interleaving. Phase 2
/// runs on the same network as its attempt's phase 1. The network comes up
/// on first use, so a request served from a stored region never touches
/// the radio.
struct Radio<'s> {
    state: &'s NetState,
    host: UserId,
    /// The current attempt's network, once a phase has used it.
    net: Option<Network>,
    /// Traffic and virtual seconds of the request's finished attempts;
    /// `None` until an attempt used the radio.
    tally: Option<(NetworkStats, f64)>,
}

impl<'s> Radio<'s> {
    fn new(state: &'s NetState, host: UserId) -> Self {
        Radio {
            state,
            host,
            net: None,
            tally: None,
        }
    }

    fn net(&mut self) -> &mut Network {
        let (state, host) = (self.state, self.host);
        self.net
            .get_or_insert_with(|| state.template.with_seed(mix_seed(state.seed, host)))
    }

    /// Drains the request's tally into the session accumulator and the
    /// per-request `net.request.*` stages, once per request.
    fn settle(mut self) {
        self.end_attempt();
        let Some((tally, virtual_secs)) = self.tally else {
            return;
        };
        self.state.acc.absorb(&tally, virtual_secs);
        nela_obs::observe(nela_obs::stage::NET_RETRANS_PER_REQ, tally.retransmits);
        nela_obs::observe(nela_obs::stage::NET_TIMEOUTS_PER_REQ, tally.timeouts);
        nela_obs::observe(
            nela_obs::stage::NET_VIRTUAL_TIME,
            (virtual_secs * 1e9) as u64,
        );
    }
}

impl Transport for Radio<'_> {
    fn cluster(
        &mut self,
        local: &mut dyn PeerFetch,
        host: UserId,
        kp: KPolicy<'_>,
        removed: &dyn Fn(UserId) -> bool,
    ) -> Result<DistributedOutcome, ClusterError> {
        let mut fetch = SimFetch::over(self.net(), local, host);
        distributed_k_clustering_with_policy(&mut fetch, host, kp, removed)
    }

    fn bound_box<P: IncrementPolicy + Clone>(
        &mut self,
        host: UserId,
        host_point: Point,
        members: &[UserId],
        points: &[Point],
        policy: &P,
    ) -> Result<BboxOutcome, BoundingError> {
        let net = self.net();
        BOUND_SCRATCH.with(|scratch| {
            let BoundScratch {
                participants,
                disagreeing,
                ..
            } = &mut *scratch.borrow_mut();
            bounding_box(host_point, Rect::UNIT, |dir, x0, domain_min| {
                participants.clear();
                participants.extend(members.iter().zip(points).map(|(&u, p)| (u, dir.value(p))));
                let mut transport = SimVerify::new(&mut *net, host, participants);
                let mut policy = policy.clone();
                progressive_bound(
                    &mut transport,
                    x0,
                    domain_min,
                    &mut policy,
                    disagreeing,
                    None,
                )
            })
        })
    }

    fn end_attempt(&mut self) {
        let Some(net) = self.net.take() else {
            return;
        };
        let (tally, virtual_secs) = self.tally.get_or_insert_with(Default::default);
        let s = net.stats();
        s.record();
        tally.transmissions += s.transmissions;
        tally.rpcs_ok += s.rpcs_ok;
        tally.rpcs_failed += s.rpcs_failed;
        tally.lost += s.lost;
        tally.retransmits += s.retransmits;
        tally.timeouts += s.timeouts;
        *virtual_secs += net.now();
    }
}

impl<'a> CloakingEngine<'a> {
    /// Creates an engine with empty shared state.
    pub fn new(system: &'a System, clustering: ClusteringAlgo, bounding: BoundingAlgo) -> Self {
        Self::with_registry(
            system,
            clustering,
            bounding,
            ClusterRegistry::new(system.points.len()),
        )
    }

    /// Creates an engine that continues serving over an existing registry:
    /// cluster assignments (minus invalidated ones) survive into a new
    /// [`System`], as they do across mobility ticks (where
    /// [`CloakingEngine::over_rows`] serves the maintained state without
    /// building a `System`). The centralized and hilbASR modes partition
    /// the new population and keep only the clusters disjoint from the
    /// carried ones.
    ///
    /// # Panics
    /// Panics if the registry population differs from the system's.
    pub fn with_registry(
        system: &'a System,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        registry: ClusterRegistry,
    ) -> Self {
        Self::assemble(
            &system.params,
            &system.points,
            Graph::Csr(&system.wpg),
            clustering,
            bounding,
            registry,
        )
    }

    /// Creates an engine over a mobility tick's maintained state, borrowed
    /// as it stands: `points` are the current positions and `rows` the
    /// published rank rows of the incremental WPG over them. Phase 1
    /// fetches each list from the rows (the snapshot's CSR row, exactly),
    /// so serving builds no snapshot and copies no position; outcomes equal
    /// those of [`CloakingEngine::with_registry`] over a [`System`] holding
    /// the same positions and the snapshot. The centralized baseline builds
    /// the CSR it partitions once per engine.
    ///
    /// # Panics
    /// Panics if `rows` or the registry covers a different population than
    /// `points`.
    pub fn over_rows(
        params: &'a Params,
        points: &'a [Point],
        rows: RankRows<'a>,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        registry: ClusterRegistry,
    ) -> Self {
        assert_eq!(rows.n(), points.len(), "rank rows do not match points");
        Self::assemble(
            params,
            points,
            Graph::Rows(rows),
            clustering,
            bounding,
            registry,
        )
    }

    fn assemble(
        params: &'a Params,
        points: &'a [Point],
        graph: Graph<'a>,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        registry: ClusterRegistry,
    ) -> Self {
        assert_eq!(
            registry.population(),
            points.len(),
            "registry population does not match system"
        );
        CloakingEngine {
            params,
            points,
            graph,
            clustering,
            bounding,
            registry,
            partition: OnceLock::new(),
            knn_taken: Mutex::new(vec![false; points.len()]),
            k_of: None,
            increments: params.shared_increment_table(),
        }
    }

    /// Installs personalized per-user anonymity levels: `k_of[u]` is user
    /// `u`'s own `k_i`, and every produced cluster must reach the max
    /// `k_i` of its members. With all levels equal to `Params::k` the
    /// engine is bit-identical to the uniform path (the differential
    /// tests pin this). Only meaningful for the distributed algorithm —
    /// the centralized, hilbASR, and kNN baselines have no notion of a
    /// per-member requirement.
    ///
    /// # Errors
    /// [`PersonalizedKError`] when the engine does not run
    /// [`ClusteringAlgo::TConnDistributed`], when `k_of` does not hold one
    /// level per user, or when a level is 0.
    pub fn with_personalized_k(mut self, k_of: Vec<usize>) -> Result<Self, PersonalizedKError> {
        if self.clustering != ClusteringAlgo::TConnDistributed {
            return Err(PersonalizedKError::NotDistributed(self.clustering));
        }
        let population = self.points.len();
        if k_of.len() != population {
            return Err(PersonalizedKError::WrongLength {
                levels: k_of.len(),
                population,
            });
        }
        if let Some(user) = k_of.iter().position(|&k| k == 0) {
            return Err(PersonalizedKError::ZeroLevel {
                user: user as UserId,
            });
        }
        self.k_of = Some(k_of);
        Ok(self)
    }

    /// The effective anonymity policy of this engine.
    fn kp(&self) -> KPolicy<'_> {
        match &self.k_of {
            Some(ks) => KPolicy::PerUser(ks),
            None => KPolicy::Uniform(self.params.k),
        }
    }

    /// Read access to the shared registry (audits, tests).
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// Consumes the engine, returning the registry so it can be carried into
    /// the next tick's engine via [`CloakingEngine::with_registry`].
    pub fn into_registry(self) -> ClusterRegistry {
        self.registry
    }

    /// Serves one cloaking request.
    ///
    /// # Errors
    /// [`RequestError::Cluster`] when the host cannot reach k users in the
    /// remaining WPG (paper Fig. 5's disconnected problem);
    /// [`RequestError::Bounding`] when phase 2 fails on a malformed cluster;
    /// [`RequestError::UnknownHost`] when `host` is not a user of the system.
    pub fn request(&mut self, host: UserId) -> Result<CloakingResult, RequestError> {
        self.request_over(&mut Local, host)
    }

    /// [`CloakingEngine::request`] with `transport` carrying the protocol
    /// phases — the scenario matrix's entry for its adversarial transport.
    pub(crate) fn request_over<T: Transport>(
        &mut self,
        transport: &mut T,
        host: UserId,
    ) -> Result<CloakingResult, RequestError> {
        // Lend the registry out so the entry can borrow the rest of the
        // engine immutably.
        let mut registry = std::mem::replace(&mut self.registry, ClusterRegistry::new(0));
        let result = self.request_on(&mut registry, transport, host);
        self.registry = registry;
        result
    }

    /// Serves a batch of cloaking requests, returning one result per host in
    /// `hosts` order.
    ///
    /// With `threads <= 1`, or for any clustering algorithm other than the
    /// distributed one, this is exactly the serial
    /// `for h in hosts { engine.request(h) }` loop, result for result. With
    /// more threads and [`ClusteringAlgo::TConnDistributed`], the registry
    /// is lent to a [`ShardedRegistry`] with [`auto_shard_axis`]-many
    /// shards per axis (or the count pinned by
    /// [`Params::shards`](crate::Params::shards)), and one scoped worker
    /// serves each contiguous chunk of hosts: requests lock only the grid
    /// shards their cluster touches, conflicts trigger a bounded recompute,
    /// and a starved request reports [`RequestError::Contention`] instead
    /// of deadlocking.
    pub fn request_many(
        &mut self,
        hosts: &[UserId],
        threads: usize,
    ) -> Vec<Result<CloakingResult, RequestError>> {
        let threads = nela_par::effective_threads(threads, hosts.len());
        // The baselines' outcomes depend on request order (kNN's groups, and
        // which request pays the partition's setup), and two runs of an
        // experiment must agree: they serve serially.
        if threads <= 1 || self.clustering != ClusteringAlgo::TConnDistributed {
            return hosts.iter().map(|&h| self.request(h)).collect();
        }
        let axis = match self.params.shards {
            0 => auto_shard_axis(threads),
            shards => shard_axis_for_total(shards),
        };
        let base = std::mem::replace(&mut self.registry, ClusterRegistry::new(0));
        let sharded = ShardedRegistry::new(base, self.points, axis);
        let engine = &*self;
        let results = std::thread::scope(|scope| {
            let sharded = &sharded;
            let workers: Vec<_> = nela_par::chunk_ranges(hosts.len(), threads)
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        hosts[range]
                            .iter()
                            .map(|&h| engine.request_on(&mut &*sharded, &mut Local, h))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        self.registry = sharded.into_registry();
        results
    }

    /// The one entry behind every request — serial, batched or in a
    /// session: rejects an unknown host, serves kNN on its own path and
    /// every other algorithm through [`CloakingEngine::serve`], and records
    /// the outcome once.
    fn request_on<R: ClaimSurface, T: Transport>(
        &self,
        reg: &mut R,
        transport: &mut T,
        host: UserId,
    ) -> Result<CloakingResult, RequestError> {
        let result = match self.clustering {
            _ if host as usize >= self.points.len() => Err(RequestError::UnknownHost { host }),
            ClusteringAlgo::Knn(tie) => self.request_knn(transport, host, tie),
            _ => self.serve(reg, transport, host),
        };
        record_outcome(&result);
        result
    }

    /// The one request loop behind every request but kNN's:
    /// lookup/reuse → phase 1 → claim (retry on conflict, up to
    /// [`MAX_CONCURRENT_ATTEMPTS`]) → phase 2 → publish.
    fn serve<R: ClaimSurface, T: Transport>(
        &self,
        reg: &mut R,
        transport: &mut T,
        host: UserId,
    ) -> Result<CloakingResult, RequestError> {
        REQUEST_SCRATCH.with(|scratch| {
            let RequestScratch {
                members,
                member_points,
            } = &mut *scratch.borrow_mut();
            for _attempt in 1..=MAX_CONCURRENT_ATTEMPTS {
                let step = self.attempt(reg, transport, host, members, member_points);
                transport.end_attempt();
                match step {
                    Some(result) => return result,
                    None => nela_obs::add(nela_obs::counter::CLAIM_RETRIES, 1),
                }
            }
            Err(RequestError::Contention {
                attempts: MAX_CONCURRENT_ATTEMPTS,
            })
        })
    }

    /// One attempt of [`CloakingEngine::serve`]; `None` when a rival won a
    /// member of the computed clusters and the request must recompute.
    ///
    /// Membership probes during phase 1 may go stale (a rival can claim a
    /// probed user mid-computation); safety never rests on them, because
    /// the claim re-validates every member and reports a conflict. The host
    /// is force-read as present: a rival may claim it between the lookup and
    /// the first probe, and the algorithm (correctly) asserts its host is
    /// never removed — the claim-time check catches that rival too.
    fn attempt<R: ClaimSurface, T: Transport>(
        &self,
        reg: &mut R,
        transport: &mut T,
        host: UserId,
        members: &mut Vec<UserId>,
        points_scratch: &mut Vec<Point>,
    ) -> Option<Result<CloakingResult, RequestError>> {
        // Reuse path: the host is already in a cluster (possibly claimed by
        // a rival since the last attempt).
        if let Some((id, region)) = reg.lookup_into(host, members) {
            return Some(self.finish(reg, transport, host, id, members, region, 0, points_scratch));
        }
        let cluster_span = nela_obs::span(nela_obs::stage::CLUSTERING);
        let outcome = match self.clustering {
            ClusteringAlgo::TConnDistributed => {
                let removed = |u: UserId| u != host && reg.is_clustered(u);
                self.graph
                    .with_fetch(|local| transport.cluster(local, host, self.kp(), &removed))
                    .map(|out| (out.all_clusters, out.involved_users))
            }
            _ => self.partition_phase1(reg, host),
        };
        drop(cluster_span);
        let (clusters, involved_users) = match outcome {
            Ok(out) => out,
            Err(e) => return Some(Err(e.into())),
        };
        let claim_span = nela_obs::span(nela_obs::stage::REGISTRY_CLAIM);
        let claim = reg.try_claim(host, clusters);
        drop(claim_span);
        match claim {
            ClaimOutcome::Claimed { id, members } => {
                let messages = involved_users as u64;
                Some(self.finish(
                    reg,
                    transport,
                    host,
                    id,
                    &members,
                    None,
                    messages,
                    points_scratch,
                ))
            }
            ClaimOutcome::Conflict => None,
            ClaimOutcome::HostMissing => Some(Err(RequestError::HostNotClustered)),
        }
    }

    /// Completes a request whose cluster id is known: reuses the stored
    /// region, or runs phase 2 (no locks held) and publishes the region —
    /// first writer wins, and bounding is deterministic per cluster, so
    /// rivals compute the identical rectangle.
    #[allow(clippy::too_many_arguments)]
    fn finish<R: ClaimSurface, T: Transport>(
        &self,
        reg: &mut R,
        transport: &mut T,
        host: UserId,
        id: ClusterId,
        members: &[UserId],
        region: Option<Rect>,
        clustering_messages: u64,
        points_scratch: &mut Vec<Point>,
    ) -> Result<CloakingResult, RequestError> {
        if let Some(region) = region {
            return Ok(CloakingResult {
                host,
                region,
                cluster_size: members.len(),
                clustering_messages,
                bounding_messages: 0,
                bounding_rounds: 0,
                required_k: self.kp().required(members.iter().copied()),
                reused: clustering_messages == 0,
                bounding_cpu: Duration::ZERO,
            });
        }
        let result = self.bound(
            transport,
            host,
            members,
            clustering_messages,
            points_scratch,
        )?;
        reg.set_region(id, result.region);
        Ok(result)
    }

    /// Phase 1 of the centralized and hilbASR baselines: the anonymizer's
    /// whole partition when it covers the host, at one message per user
    /// (every user submits its proximity information — hilbASR: its exact
    /// coordinates, the exposure that is the point of that baseline). Only
    /// the claim that registers the partition pays; every later request by
    /// a member is served through the lookup.
    fn partition_phase1<R: ClaimSurface>(
        &self,
        reg: &R,
        host: UserId,
    ) -> Result<(Vec<Cluster>, usize), ClusterError> {
        let partition = self.partition.get_or_init(|| {
            let k = self.params.k;
            let mut clusters = match self.clustering {
                ClusteringAlgo::HilbAsr => {
                    nela_cluster::hilbert::hilb_asr_partition(self.points, k)
                }
                _ => centralized_k_clustering(&self.graph.csr(), k).clusters,
            };
            // Clusters carried into the engine keep their members.
            clusters.retain(|c| !c.members.iter().any(|&m| reg.is_clustered(m)));
            clusters
        });
        if !partition.iter().any(|c| c.contains(host)) {
            // The host sits in an underfilled component (hilbASR: the
            // population is below k) or in a dropped cluster.
            return Err(ClusterError::ComponentTooSmall { reachable: 0 });
        }
        Ok((partition.clone(), self.points.len()))
    }

    /// Runs phase 2 over `host`'s cluster `members` (their points gathered
    /// into `points`) under the configured algorithm over `transport`.
    ///
    /// [`BoundingAlgo::Optimal`] has no per-round protocol (its single exact
    /// message is an analytic fiction), so it never touches the transport.
    fn bound<T: Transport>(
        &self,
        transport: &mut T,
        host: UserId,
        members: &[UserId],
        clustering_messages: u64,
        points: &mut Vec<Point>,
    ) -> Result<CloakingResult, RequestError> {
        points.clear();
        points.extend(members.iter().map(|&m| self.points[m as usize]));
        let started = Instant::now();
        let span = self.params.uniform_span(members.len());
        let host_point = self.points[host as usize];
        let totals = |b: BboxOutcome| (b.rect, b.messages, b.rounds);
        let (region, bounding_messages, bounding_rounds) = match self.bounding {
            BoundingAlgo::Optimal => {
                let rect = Rect::bounding(points).ok_or(BoundingError::EmptyCluster)?;
                (rect, members.len() as u64, 1)
            }
            BoundingAlgo::Secure => {
                let policy = SecurePolicy::new(self.increments, Uniform::new(span));
                totals(transport.bound_box(host, host_point, members, points, &policy)?)
            }
            BoundingAlgo::Linear => {
                let policy = LinearPolicy::new(span / 4.0);
                totals(transport.bound_box(host, host_point, members, points, &policy)?)
            }
            BoundingAlgo::Exponential => {
                let policy = ExponentialPolicy::new(span);
                totals(transport.bound_box(host, host_point, members, points, &policy)?)
            }
        };
        let bounding_cpu = started.elapsed();
        nela_obs::observe_duration(nela_obs::stage::BOUNDING, bounding_cpu);
        Ok(CloakingResult {
            host,
            region,
            cluster_size: members.len(),
            clustering_messages,
            bounding_messages,
            bounding_rounds,
            required_k: self.kp().required(members.iter().copied()),
            reused: false,
            bounding_cpu,
        })
    }

    /// Serves a kNN-baseline request: a fresh group of the host plus its
    /// k−1 nearest users not consumed by earlier groups, bounded over
    /// `transport`. Nothing is reused, and groups overlap (a host already
    /// in a group forms a fresh one), so they never enter the registry,
    /// which holds one cluster per user.
    fn request_knn<T: Transport>(
        &self,
        transport: &mut T,
        host: UserId,
        tie: TieBreak,
    ) -> Result<CloakingResult, RequestError> {
        let out = {
            // Every update leaves `taken` valid, so a poisoned lock is safe
            // to recover.
            let mut taken = self
                .knn_taken
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let removed = |u: UserId| u != host && taken[u as usize];
            let k = self.params.k;
            let out = self
                .graph
                .with_fetch(|local| knn_cluster_with(local, host, k, &removed, tie))?;
            for &m in &out.cluster.members {
                taken[m as usize] = true;
            }
            out
        };
        let messages = out.involved_users as u64;
        self.bound(
            transport,
            host,
            &out.cluster.members,
            messages,
            &mut Vec::new(),
        )
    }
}

/// Decorrelates the per-request network seed from the session seed
/// (splitmix64 finalizer): adjacent hosts must not produce correlated loss
/// patterns, and the mix keeps outcomes a pure function of `(seed, host)`.
fn mix_seed(seed: u64, host: UserId) -> u64 {
    let mut z = seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A long-lived concurrent cloaking session over the sharded registry — the
/// engine glue for service front-ends (`nela-serve`) that admit requests one
/// at a time from a worker pool. Every [`ClusteringAlgo`] opens one.
///
/// [`EngineSession::request`] takes `&self` and is safe to call from any
/// number of threads, while the caller decides threading and lifetime.
/// [`EngineSession::finish`] returns the engine with every cluster claimed
/// during the session folded back into its registry.
///
/// With one calling thread the session is exactly the serial `request` loop,
/// result for result — the determinism contract the replay tests pin.
pub struct EngineSession<'a> {
    engine: CloakingEngine<'a>,
    sharded: ShardedRegistry,
    /// When set, every request's two protocol phases run over the simulated
    /// network instead of in-memory structures (see
    /// [`EngineSession::with_network`]).
    net: Option<NetState>,
}

/// Session-wide network state for netsim-backed serving: a validated
/// template [`Network`] cloned (re-seeded) per request, plus the shared
/// accumulator the per-request tallies drain into.
struct NetState {
    template: Network,
    /// The session-level seed requests are mixed against ([`mix_seed`]).
    seed: u64,
    acc: NetAccumulator,
}

/// Lock-free tally of network activity across a whole session. Workers add
/// their per-request [`NetworkStats`] here once per request; relaxed
/// ordering suffices because the fields are independent monotone counters
/// read only after the workers join.
#[derive(Default)]
struct NetAccumulator {
    transmissions: AtomicU64,
    rpcs_ok: AtomicU64,
    rpcs_failed: AtomicU64,
    lost: AtomicU64,
    retransmits: AtomicU64,
    timeouts: AtomicU64,
    virtual_ns: AtomicU64,
}

impl NetAccumulator {
    fn absorb(&self, tally: &NetworkStats, virtual_secs: f64) {
        self.transmissions
            .fetch_add(tally.transmissions, Ordering::Relaxed);
        self.rpcs_ok.fetch_add(tally.rpcs_ok, Ordering::Relaxed);
        self.rpcs_failed
            .fetch_add(tally.rpcs_failed, Ordering::Relaxed);
        self.lost.fetch_add(tally.lost, Ordering::Relaxed);
        self.retransmits
            .fetch_add(tally.retransmits, Ordering::Relaxed);
        self.timeouts.fetch_add(tally.timeouts, Ordering::Relaxed);
        self.virtual_ns
            .fetch_add((virtual_secs * 1e9) as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SessionNetStats {
        SessionNetStats {
            transmissions: self.transmissions.load(Ordering::Relaxed),
            rpcs_ok: self.rpcs_ok.load(Ordering::Relaxed),
            rpcs_failed: self.rpcs_failed.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            virtual_s: self.virtual_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Aggregate network activity of a netsim-backed session — the sum of every
/// request's per-request [`NetworkStats`] (reuse fast-path requests
/// contribute nothing: they never touch the radio).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct SessionNetStats {
    /// Transmissions put on the air (requests + replies, lost included).
    pub transmissions: u64,
    /// Completed request/reply exchanges.
    pub rpcs_ok: u64,
    /// RPCs abandoned after the full retry budget.
    pub rpcs_failed: u64,
    /// Transmissions that were lost.
    pub lost: u64,
    /// RPC attempts beyond the first.
    pub retransmits: u64,
    /// Timeouts charged for lost transmissions.
    pub timeouts: u64,
    /// Total simulated seconds requests spent on the radio.
    pub virtual_s: f64,
}

impl<'a> CloakingEngine<'a> {
    /// Opens a concurrent serving session with `shards_per_axis`² grid
    /// shards (see [`auto_shard_axis`] for a worker-count-derived choice),
    /// consuming the engine; its registry seeds the session.
    pub fn into_session(mut self, shards_per_axis: usize) -> EngineSession<'a> {
        let base = std::mem::replace(&mut self.registry, ClusterRegistry::new(0));
        let sharded = ShardedRegistry::new(base, self.points, shards_per_axis);
        EngineSession {
            engine: self,
            sharded,
            net: None,
        }
    }
}

impl<'a> EngineSession<'a> {
    /// Routes every subsequent request's protocol phases through a
    /// simulated network built from `cfg`: phase-1 adjacency fetches and
    /// phase-2 verification rounds each become RPCs subject to the config's
    /// loss, latency, and retry budget. Per-request RPC retransmit/timeout
    /// counts flow into the `net.request.*` stage histograms, and the
    /// session-wide totals are readable via [`EngineSession::net_stats`].
    ///
    /// Determinism: each request's network is seeded from `(cfg.seed,
    /// host)`, so at a fixed config seed the outcome of every request is
    /// independent of worker count and scheduling — replay-stable.
    ///
    /// # Errors
    /// Rejects an invalid network config (same rules as
    /// [`NetworkConfig::validate`]) before any request runs.
    pub fn with_network(mut self, cfg: NetworkConfig) -> Result<Self, ConfigError> {
        let template = Network::new(cfg)?;
        self.net = Some(NetState {
            template,
            seed: cfg.seed,
            acc: NetAccumulator::default(),
        });
        Ok(self)
    }

    /// Aggregate network activity so far, or `None` for in-process
    /// sessions. Safe to call while workers are still serving (the totals
    /// are monotone counters), but meant for after they join.
    pub fn net_stats(&self) -> Option<SessionNetStats> {
        self.net.as_ref().map(|n| n.acc.snapshot())
    }

    /// Serves one cloaking request. Thread-safe: membership probes are
    /// lock-free atomic reads, clustering and bounding run with no locks
    /// held (kNN's phase 1 excepted: it holds the engine's group lock),
    /// and only the claim itself takes the shard locks the produced
    /// clusters touch.
    ///
    /// # Errors
    /// The same failures as [`CloakingEngine::request`], plus
    /// [`RequestError::Contention`] when rival requests kept claiming
    /// members of every computed cluster, plus — on netsim-backed sessions
    /// — clustering/bounding failures caused by exhausted RPC retries.
    pub fn request(&self, host: UserId) -> Result<CloakingResult, RequestError> {
        match &self.net {
            None => self.engine.request_on(&mut &self.sharded, &mut Local, host),
            Some(net) => {
                let mut radio = Radio::new(net, host);
                let result = self.engine.request_on(&mut &self.sharded, &mut radio, host);
                radio.settle();
                result
            }
        }
    }

    /// Ends the session, folding all claimed clusters back into the
    /// engine's registry (audits, reciprocity checks, carry-over).
    pub fn finish(self) -> CloakingEngine<'a> {
        let mut engine = self.engine;
        engine.registry = self.sharded.into_registry();
        engine
    }
}

/// What one serving session leaves behind for the next: its folded-back
/// registry plus the exact positions it clustered against. The positions
/// are the audit baseline — [`CloakingEngine::resume_session`] re-publishes
/// a carried cluster only if **every** member still sits where the
/// checkpoint recorded it, so a stale region can never serve a moved user.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint {
    registry: ClusterRegistry,
    positions: Vec<Point>,
}

impl SessionCheckpoint {
    /// Number of users the checkpointed session served.
    pub fn population(&self) -> usize {
        self.positions.len()
    }

    /// Number of live (non-tombstone) clusters in the checkpoint.
    pub fn active_clusters(&self) -> usize {
        self.registry.active_cluster_count()
    }
}

/// Outcome of the epoch audit a resumed session runs over its checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryOver {
    /// Clusters re-published into the new session (all members unmoved).
    pub carried: usize,
    /// Clusters dropped by the audit (a member moved, or the population
    /// changed shape entirely).
    pub dropped: usize,
    /// Users covered by the carried clusters — they will hit the region
    /// reuse fast path on their first request of the new session.
    pub carried_users: usize,
}

impl<'a> CloakingEngine<'a> {
    /// Consumes the engine into a [`SessionCheckpoint`] carrying its
    /// registry and the positions it was built over. Typically called on
    /// the engine returned by [`EngineSession::finish`].
    pub fn checkpoint(self) -> SessionCheckpoint {
        SessionCheckpoint {
            positions: self.points.to_vec(),
            registry: self.registry,
        }
    }

    /// Opens a serving session that carries forward the previous session's
    /// still-valid clusters. Each active checkpoint cluster is audited
    /// against the new system's positions: if any member moved (bitwise
    /// position inequality — mobility epochs re-sample coordinates, so an
    /// unmoved user is bit-identical), the cluster is invalidated before
    /// the session opens. A checkpoint whose population does not match the
    /// system is unusable and degrades to a cold start.
    ///
    /// Returns the session plus the audit's [`CarryOver`] accounting.
    pub fn resume_session(
        system: &'a System,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        checkpoint: SessionCheckpoint,
        shards_per_axis: usize,
    ) -> (EngineSession<'a>, CarryOver) {
        let SessionCheckpoint {
            mut registry,
            positions,
        } = checkpoint;
        let mut carry = CarryOver::default();
        if positions.len() != system.points.len() {
            carry.dropped = registry.active_cluster_count();
            registry = ClusterRegistry::new(system.points.len());
        }
        let moved = |u: UserId| {
            let u = u as usize;
            // Bitwise, not epsilon: an unmoved user's coordinates are the
            // exact same floats; any perturbation must fail the audit.
            positions[u].x != system.points[u].x || positions[u].y != system.points[u].y
        };
        let stale: Vec<ClusterId> = registry
            .active_clusters()
            .filter(|(_, rc)| rc.cluster.members.iter().any(|&m| moved(m)))
            .map(|(id, _)| id)
            .collect();
        carry.dropped += stale.len();
        for id in stale {
            registry.invalidate(id);
        }
        for (_, rc) in registry.active_clusters() {
            carry.carried += 1;
            carry.carried_users += rc.cluster.members.len();
        }
        let session = CloakingEngine::with_registry(system, clustering, bounding, registry)
            .into_session(shards_per_axis);
        (session, carry)
    }
}

/// Tallies one request outcome into the global obs counters. Called exactly
/// once per request, by `CloakingEngine::request_on`.
fn record_outcome(result: &Result<CloakingResult, RequestError>) {
    if !nela_obs::enabled() {
        return;
    }
    for name in outcome_counters(result) {
        nela_obs::add(name, 1);
    }
}

/// The request counters one outcome adds 1 to: every error — an unknown
/// host included — is a failure.
fn outcome_counters(result: &Result<CloakingResult, RequestError>) -> &'static [&'static str] {
    use nela_obs::counter::{REQ_CONTENTION, REQ_FAILED, REQ_REUSED, REQ_SERVED};
    match result {
        Ok(r) if r.reused => &[REQ_SERVED, REQ_REUSED],
        Ok(_) => &[REQ_SERVED],
        Err(RequestError::Contention { .. }) => &[REQ_FAILED, REQ_CONTENTION],
        Err(_) => &[REQ_FAILED],
    }
}

/// Shards-per-axis chosen for a worker count: about four shards per worker
/// (so rival claims rarely meet in one shard), laid out on a square grid —
/// axis = ⌈√(4·threads)⌉, clamped to \[1, 64\] so shards never get smaller
/// than a few radio ranges on the unit square.
pub fn auto_shard_axis(threads: usize) -> usize {
    (((4 * threads.max(1)) as f64).sqrt().ceil() as usize).clamp(1, 64)
}

/// Shards-per-axis for a user-pinned *total* shard count
/// ([`Params::shards`](crate::Params::shards)): the smallest square grid
/// with at least that many shards.
pub fn shard_axis_for_total(shards: usize) -> usize {
    ((shards.max(1) as f64).sqrt().ceil() as usize).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use nela_cluster::distributed::distributed_k_clustering;

    fn small_system() -> System {
        System::build(&Params {
            k: 5,
            ..Params::scaled(2_000)
        })
    }

    /// First host in the sequence that can actually reach k users (random
    /// hosts may sit in underfilled components — paper Fig. 5).
    fn servable_host(s: &System, seed: u64) -> UserId {
        s.host_sequence(300, seed)
            .into_iter()
            .find(|&h| distributed_k_clustering(&s.wpg, h, s.params.k, &|_| false).is_ok())
            .unwrap_or_else(|| {
                panic!(
                    "no servable host in 300-host sample (n={}, k={}, seed={seed})",
                    s.points.len(),
                    s.params.k
                )
            })
    }

    #[test]
    fn request_produces_covering_region() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let host = servable_host(&s, 1);
        let r = e.request(host).unwrap();
        assert!(r.cluster_size >= 5);
        assert!(r.region.contains(&s.points[host as usize]));
        // Every cluster member is inside the region.
        let rc = e.registry().cluster_of(host).unwrap();
        for &m in &rc.cluster.members {
            assert!(r.region.contains(&s.points[m as usize]));
        }
        assert!(r.clustering_messages > 0);
        assert!(r.bounding_messages > 0);
    }

    #[test]
    fn second_request_by_cluster_member_reuses() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let host = servable_host(&s, 2);
        let first = e.request(host).unwrap();
        let peer = e
            .registry()
            .cluster_of(host)
            .unwrap()
            .cluster
            .members
            .iter()
            .copied()
            .find(|&m| m != host)
            .unwrap();
        let second = e.request(peer).unwrap();
        assert!(second.reused);
        assert_eq!(second.region, first.region);
        assert_eq!(second.clustering_messages + second.bounding_messages, 0);
    }

    #[test]
    fn centralized_pays_population_once() {
        let s = small_system();
        // Some hosts may be unservable; the N-message setup cost must be
        // attributed exactly once across the successful requests. The first
        // host is servable at seed 3 and unservable at seeds 2, 4 and 8.
        for seed in [3, 2, 4, 8] {
            let mut e =
                CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Optimal);
            let mut total = 0u64;
            let mut successes = 0;
            for h in s.host_sequence(30, seed) {
                if let Ok(r) = e.request(h) {
                    total += r.clustering_messages;
                    successes += 1;
                }
            }
            assert!(successes > 1, "seed {seed}");
            assert_eq!(total, s.points.len() as u64, "seed {seed}");
        }
    }

    #[test]
    fn partition_fills_only_users_free_of_carried_clusters() {
        let s = small_system();
        let mut first =
            CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Optimal);
        let host = s
            .host_sequence(30, 3)
            .into_iter()
            .find(|&h| first.request(h).is_ok())
            .expect("a servable host");
        let mut carried = first.into_registry();
        let active = carried.active_cluster_count();
        carried.invalidate(carried.cluster_id_of(host).unwrap());
        let mut next = CloakingEngine::with_registry(
            &s,
            ClusteringAlgo::TConnCentralized,
            BoundingAlgo::Optimal,
            carried,
        );
        // Only the released cluster is free of carried members, so the
        // claim registers it alone and still pays the setup.
        let r = next.request(host).unwrap();
        assert_eq!(r.clustering_messages, s.points.len() as u64);
        assert_eq!(next.registry().active_cluster_count(), active);
        assert_eq!(next.registry().reciprocity_violation(), None);
    }

    #[test]
    fn knn_cluster_is_exactly_k() {
        let s = small_system();
        let mut e =
            CloakingEngine::new(&s, ClusteringAlgo::Knn(TieBreak::Id), BoundingAlgo::Optimal);
        let host = servable_host(&s, 4);
        let r = e.request(host).unwrap();
        assert_eq!(r.cluster_size, 5);
    }

    #[test]
    fn optimal_region_is_subset_of_secure_region() {
        let s = small_system();
        let host = servable_host(&s, 5);
        let mut opt =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Optimal);
        let mut sec =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let ro = opt.request(host).unwrap();
        let rs = sec.request(host).unwrap();
        assert_eq!(ro.cluster_size, rs.cluster_size, "same phase 1");
        assert!(rs.region.contains_rect(&ro.region));
        assert!(rs.region.area() >= ro.region.area());
    }

    #[test]
    fn linear_bound_tighter_than_exponential() {
        let s = small_system();
        let host = servable_host(&s, 6);
        let mut lin =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Linear);
        let mut exp = CloakingEngine::new(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Exponential,
        );
        let rl = lin.request(host).unwrap();
        let re = exp.request(host).unwrap();
        assert!(rl.region.area() <= re.region.area());
        assert!(rl.bounding_messages >= re.bounding_messages);
    }

    #[test]
    fn hilb_asr_serves_everyone_and_is_tight_where_both_serve() {
        // The exposure baseline buckets the whole population — it never
        // fails — and on a uniform population its exact-coordinate ordering
        // yields tighter regions than proximity-only clustering. (On skewed
        // street data its fixed buckets straddle sparse gaps and can lose;
        // the exp_attack experiment shows both regimes.)
        let s = System::build(&Params {
            k: 5,
            distribution: nela_geo::SpatialDistribution::Uniform,
            // Uniform data has no dense streets: widen the radio range so
            // the expected in-range peer count stays ~10.
            delta: 0.04,
            ..Params::scaled(2_000)
        });
        let hosts = s.host_sequence(60, 8);
        let mut hilb = CloakingEngine::new(&s, ClusteringAlgo::HilbAsr, BoundingAlgo::Optimal);
        let mut tconn =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Optimal);
        let mut hilb_area = 0.0;
        let mut tconn_area = 0.0;
        let mut both = 0;
        for &h in &hosts {
            let hr = hilb.request(h);
            assert!(hr.is_ok(), "hilbASR must serve every host");
            if let (Ok(a), Ok(b)) = (hr, tconn.request(h)) {
                hilb_area += a.region.area();
                tconn_area += b.region.area();
                both += 1;
            }
        }
        assert!(both > 20, "too few commonly served hosts");
        assert!(
            hilb_area < tconn_area,
            "on uniform data exact positions must win: {} vs {}",
            hilb_area / both as f64,
            tconn_area / both as f64
        );
    }

    #[test]
    fn session_equals_serial_loop_single_threaded() {
        let s = small_system();
        let hosts = s.host_sequence(60, 9);
        for clustering in [
            ClusteringAlgo::TConnDistributed,
            ClusteringAlgo::TConnCentralized,
            ClusteringAlgo::HilbAsr,
            ClusteringAlgo::Knn(TieBreak::Id),
        ] {
            let mut serial = CloakingEngine::new(&s, clustering, BoundingAlgo::Secure);
            let looped: Vec<_> = hosts.iter().map(|&h| serial.request(h)).collect();
            assert!(
                looped.iter().any(Result::is_ok),
                "{clustering:?} served nothing"
            );
            for axis in [1usize, 3] {
                let session =
                    CloakingEngine::new(&s, clustering, BoundingAlgo::Secure).into_session(axis);
                for (&h, expect) in hosts.iter().zip(&looped) {
                    let at = format!("{clustering:?}, axis {axis}, host {h}");
                    match (expect, &session.request(h)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.region, b.region, "{at}");
                            assert_eq!(a.reused, b.reused, "{at}");
                            assert_eq!(a.clustering_messages, b.clustering_messages, "{at}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{at}"),
                        (a, b) => {
                            panic!("session diverged from serial loop at {at}: {a:?} vs {b:?}")
                        }
                    }
                }
                let engine = session.finish();
                assert_eq!(engine.registry().reciprocity_violation(), None);
            }
        }
    }

    #[test]
    fn session_serves_concurrently_and_folds_back() {
        let s = small_system();
        let hosts = s.host_sequence(80, 10);
        let workers = 4;
        for clustering in [
            ClusteringAlgo::TConnDistributed,
            ClusteringAlgo::TConnCentralized,
            ClusteringAlgo::HilbAsr,
            ClusteringAlgo::Knn(TieBreak::Id),
        ] {
            let session = CloakingEngine::new(&s, clustering, BoundingAlgo::Secure)
                .into_session(auto_shard_axis(workers));
            // The workers start together, so their first requests race on
            // the partition's build and claim.
            let start = std::sync::Barrier::new(workers);
            let served: Vec<CloakingResult> = std::thread::scope(|scope| {
                let (session, start) = (&session, &start);
                let handles: Vec<_> = hosts
                    .chunks(hosts.len().div_ceil(workers))
                    .map(|chunk| {
                        scope.spawn(move || {
                            start.wait();
                            chunk
                                .iter()
                                .filter_map(|&h| session.request(h).ok())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            assert!(!served.is_empty(), "{clustering:?} served nothing");
            if matches!(
                clustering,
                ClusteringAlgo::TConnCentralized | ClusteringAlgo::HilbAsr
            ) {
                // A losing claim retries through the lookup: the setup is
                // paid once.
                let setup: u64 = served.iter().map(|r| r.clustering_messages).sum();
                assert_eq!(setup, s.points.len() as u64, "{clustering:?}");
            }
            let engine = session.finish();
            assert_eq!(engine.registry().reciprocity_violation(), None);
            let registers = !matches!(clustering, ClusteringAlgo::Knn(_));
            assert_eq!(
                engine.registry().active_cluster_count() > 0,
                registers,
                "{clustering:?}"
            );
        }
    }

    #[test]
    fn personalized_k_rejects_a_baseline_engine() {
        let s = small_system();
        let levels = vec![5; s.points.len()];
        for clustering in [
            ClusteringAlgo::TConnCentralized,
            ClusteringAlgo::HilbAsr,
            ClusteringAlgo::Knn(TieBreak::Id),
        ] {
            let got = CloakingEngine::new(&s, clustering, BoundingAlgo::Secure)
                .with_personalized_k(levels.clone());
            assert_eq!(
                got.err(),
                Some(PersonalizedKError::NotDistributed(clustering))
            );
        }
    }

    #[test]
    fn personalized_k_rejects_levels_of_the_wrong_length() {
        let s = small_system();
        let n = s.points.len();
        for len in [0, n - 1, n + 1] {
            let got =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                    .with_personalized_k(vec![5; len]);
            assert_eq!(
                got.err(),
                Some(PersonalizedKError::WrongLength {
                    levels: len,
                    population: n
                })
            );
        }
    }

    #[test]
    fn personalized_k_names_the_first_user_with_level_zero() {
        let s = small_system();
        let mut levels = vec![5; s.points.len()];
        levels[17] = 0;
        levels[40] = 0;
        let got = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
            .with_personalized_k(levels);
        assert_eq!(got.err(), Some(PersonalizedKError::ZeroLevel { user: 17 }));
    }

    #[test]
    fn reciprocity_holds_through_workload() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        for h in s.host_sequence(50, 7) {
            let _ = e.request(h);
        }
        assert_eq!(e.registry().reciprocity_violation(), None);
    }

    #[test]
    fn lossless_netsim_session_equals_in_process_session() {
        let s = small_system();
        let hosts = s.host_sequence(60, 11);
        let plain = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
            .into_session(2);
        let simmed =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2)
                .with_network(NetworkConfig::default())
                .unwrap();
        for &h in &hosts {
            match (plain.request(h), simmed.request(h)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.region, b.region, "host {h}");
                    assert_eq!(a.cluster_size, b.cluster_size, "host {h}");
                    assert_eq!(a.reused, b.reused, "host {h}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("netsim session diverged from in-process at host {h}"),
            }
        }
        let net = simmed.net_stats().unwrap();
        assert!(net.transmissions > 0, "no traffic recorded");
        assert_eq!(net.retransmits, 0, "lossless network retransmitted");
        assert_eq!(net.timeouts, 0);
        assert_eq!(net.rpcs_failed, 0);
        assert!(net.virtual_s > 0.0);
        assert!(plain.net_stats().is_none());
    }

    #[test]
    fn lossy_netsim_session_replays_identically() {
        let s = small_system();
        let hosts = s.host_sequence(60, 12);
        let cfg = NetworkConfig {
            loss: 0.3,
            max_retries: 2,
            seed: 42,
            ..NetworkConfig::default()
        };
        let run = || {
            let session =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                    .into_session(2)
                    .with_network(cfg)
                    .unwrap();
            let results: Vec<_> = hosts
                .iter()
                .map(|&h| session.request(h).map(|r| (r.region, r.reused)))
                .collect();
            (results, session.net_stats().unwrap())
        };
        let (a, stats_a) = run();
        let (b, stats_b) = run();
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Ok(p), Ok(q)) => assert_eq!(p, q),
                (Err(_), Err(_)) => {}
                _ => panic!("lossy replay diverged"),
            }
        }
        assert_eq!(stats_a, stats_b, "network accounting diverged on replay");
        assert!(stats_a.retransmits > 0, "30% loss produced no retransmits");
        assert!(stats_a.timeouts > 0);
    }

    #[test]
    fn checkpoint_resume_carries_unmoved_clusters() {
        let s = small_system();
        let hosts = s.host_sequence(40, 13);
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2);
        for &h in &hosts {
            let _ = session.request(h);
        }
        let checkpoint = session.finish().checkpoint();
        let active = checkpoint.active_clusters();
        assert!(active > 0, "workload registered no clusters");

        // Nothing moved: every cluster survives the audit, and a member of
        // a carried cluster reuses its region on the first request.
        let (resumed, carry) = CloakingEngine::resume_session(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint.clone(),
            2,
        );
        assert_eq!(carry.carried, active);
        assert_eq!(carry.dropped, 0);
        assert!(carry.carried_users > 0);
        let member = hosts
            .iter()
            .copied()
            .find(|&h| resumed.request(h).map(|r| r.reused).unwrap_or(false))
            .expect("no carried member hit the reuse path");
        let _ = member;

        // Move one member of one carried cluster: exactly that cluster is
        // dropped, the rest still carry. (The reuse probes above may have
        // registered new clusters, so recount before the second resume.)
        let mut moved = s.clone();
        let engine = resumed.finish();
        let active2 = engine.registry().active_cluster_count();
        let victim = engine
            .registry()
            .active_clusters()
            .next()
            .map(|(_, rc)| rc.cluster.members[0])
            .unwrap();
        moved.points[victim as usize].x += 1e-9;
        let (_, carry2) = CloakingEngine::resume_session(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            engine.checkpoint(),
            2,
        );
        assert_eq!(carry2.dropped, 1, "exactly the victim's cluster drops");
        assert_eq!(carry2.carried, active2 - 1);
    }

    #[test]
    fn resume_with_zero_survivors_serves_like_cold() {
        let s = small_system();
        let hosts = s.host_sequence(40, 14);
        let warm = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
            .into_session(2);
        for &h in &hosts {
            let _ = warm.request(h);
        }
        let checkpoint = warm.finish().checkpoint();

        // Every user moved: the audit drops everything...
        let mut moved = s.clone();
        for p in &mut moved.points {
            p.x = (p.x + 0.25) % 1.0;
        }
        let (resumed, carry) = CloakingEngine::resume_session(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint,
            2,
        );
        assert_eq!(carry.carried, 0);
        assert_eq!(carry.carried_users, 0);
        assert!(carry.dropped > 0);

        // ...and the resumed session serves exactly like a cold one.
        let cold = CloakingEngine::new(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        )
        .into_session(2);
        for &h in &hosts {
            match (cold.request(h), resumed.request(h)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.region, b.region, "host {h}");
                    assert_eq!(a.reused, b.reused, "host {h}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("zero-survivor resume diverged from cold at host {h}"),
            }
        }
    }

    /// Asserts `r` is the typed unknown-host error for `host`.
    fn assert_unknown(r: &Result<CloakingResult, RequestError>, host: UserId) {
        assert!(
            matches!(r, Err(RequestError::UnknownHost { host: h }) if *h == host),
            "host {host}: {r:?}"
        );
    }

    #[test]
    fn unknown_host_is_typed_on_the_serial_path() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let n = s.points.len() as UserId;
        for host in [n, UserId::MAX] {
            assert_unknown(&e.request(host), host);
        }
        for clustering in [
            ClusteringAlgo::TConnCentralized,
            ClusteringAlgo::HilbAsr,
            ClusteringAlgo::Knn(TieBreak::Id),
        ] {
            let mut other = CloakingEngine::new(&s, clustering, BoundingAlgo::Optimal);
            assert_unknown(&other.request(n), n);
        }
        // The engine stays usable.
        assert!(e.request(servable_host(&s, 16)).is_ok());
    }

    #[test]
    fn unknown_host_is_typed_in_request_many() {
        let s = small_system();
        let host = servable_host(&s, 17);
        let n = s.points.len() as UserId;
        for threads in [1, 2] {
            let mut e =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
            let results = e.request_many(&[n, host, UserId::MAX], threads);
            assert_unknown(&results[0], n);
            assert!(results[1].is_ok(), "threads {threads}");
            assert_unknown(&results[2], UserId::MAX);
        }
    }

    #[test]
    fn unknown_host_is_typed_in_a_session() {
        let s = small_system();
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2);
        assert_unknown(&session.request(UserId::MAX), UserId::MAX);
        assert!(session.request(servable_host(&s, 18)).is_ok());
        assert_eq!(session.finish().registry().reciprocity_violation(), None);
    }

    #[test]
    fn unknown_host_is_typed_over_netsim_without_radio_traffic() {
        let s = small_system();
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2)
                .with_network(NetworkConfig::default())
                .unwrap();
        let n = s.points.len() as UserId;
        assert_unknown(&session.request(n), n);
        assert_eq!(session.net_stats().unwrap().transmissions, 0);
        assert!(session.request(servable_host(&s, 19)).is_ok());
    }

    #[test]
    fn unknown_host_counts_as_a_failed_request() {
        let unknown = Err(RequestError::UnknownHost { host: 7 });
        assert_eq!(outcome_counters(&unknown), &[nela_obs::counter::REQ_FAILED]);
    }

    #[test]
    fn resume_with_mismatched_population_degrades_to_cold_start() {
        let s = small_system();
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2);
        let host = servable_host(&s, 15);
        session.request(host).unwrap();
        let checkpoint = session.finish().checkpoint();
        let other = System::build(&Params {
            k: 5,
            ..Params::scaled(1_000)
        });
        let (_, carry) = CloakingEngine::resume_session(
            &other,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint,
            2,
        );
        assert_eq!(carry.carried, 0);
        assert!(carry.dropped > 0);
    }

    #[test]
    fn engines_over_one_cost_model_share_one_increment_table() {
        // Cb = 1.375 is a cost model no other test bounds under, so only
        // this test writes its table.
        let params = Params {
            k: 5,
            cb: 1.375,
            ..Params::scaled(2_000)
        };
        let s = System::build(&params);
        let mut first = CloakingEngine::with_registry(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            ClusterRegistry::new(s.points.len()),
        );
        let served: Vec<CloakingResult> = s
            .host_sequence(200, 9)
            .into_iter()
            .filter_map(|h| first.request(h).ok())
            .collect();
        assert!(served.iter().filter(|r| r.bounding_rounds > 0).count() > 20);
        let table = first.increments;
        let stored = table.entries();
        assert!(stored > 0);

        // An engine over the maintained rows of the same deployment reads
        // the same table, and replaying the served hosts solves nothing new.
        let maintained = nela_wpg::IncrementalWpg::new(
            nela_wpg::WpgBuilder::new(params.delta, params.max_peers, nela_wpg::InverseDistanceRss),
            &s.points,
        );
        let mut second = CloakingEngine::over_rows(
            &params,
            &s.points,
            maintained.rows(),
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            ClusterRegistry::new(s.points.len()),
        );
        assert!(std::ptr::eq(second.increments, table));
        for want in &served {
            let got = second.request(want.host).unwrap();
            assert_eq!(got.region, want.region, "host {}", want.host);
            assert_eq!(got.bounding_messages, want.bounding_messages);
        }
        assert_eq!(table.entries(), stored, "a replay solves nothing new");

        // Another Cb is another cost model, and another table.
        let other = Params {
            cb: 2.75,
            ..params.clone()
        };
        let third = CloakingEngine::over_rows(
            &other,
            &s.points,
            maintained.rows(),
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            ClusterRegistry::new(s.points.len()),
        );
        assert!(!std::ptr::eq(third.increments, table));
        assert!(std::ptr::eq(
            third.increments,
            other.shared_increment_table()
        ));
    }
}
