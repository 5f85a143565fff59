//! Observability substrate for the NELA pipeline: latency histograms,
//! monotonic counters, and scoped span timers behind a recorder that is a
//! no-op until explicitly enabled.
//!
//! The serving pipeline's hot paths (grid fill, WPG assembly, per-request
//! clustering/bounding, registry claims, netsim RPCs) cannot afford an
//! always-on metrics layer, and the workload averages in
//! `nela::metrics::WorkloadStats` cannot explain *distributions* — why p99
//! differs from p50, where a batch spends its time, or how contended the
//! sharded registry actually is. This crate closes that gap:
//!
//! - [`Histogram`] — lock-free log2-bucketed latency histogram with
//!   count/sum/max and bucket-resolution quantiles.
//! - [`Registry`] — a name → histogram/counter map; [`Registry::snapshot`]
//!   freezes it into a serializable [`MetricsSnapshot`].
//! - A process-global recorder ([`enable`], [`span`], [`observe`], [`add`])
//!   guarded by one relaxed atomic load: while disabled (the default) every
//!   recording call returns immediately, [`span`] never reads the clock, and
//!   the global registry is never even allocated.
//!
//! Values are dimensionless `u64`s; by convention the pipeline records
//! **nanoseconds** into every `*` stage histogram (see [`stage`]) and plain
//! event counts into the [`counter`] names.

mod hist;
mod registry;
mod snapshot;

pub use hist::{bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, N_BUCKETS};
pub use registry::Registry;
pub use snapshot::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Canonical stage-histogram names recorded by the pipeline (values in
/// nanoseconds unless noted). Shared constants so producers and consumers
/// (CLI `stats` render, CI smoke checks) cannot drift apart.
pub mod stage {
    /// One `GridIndex::build_threads` call (serial or parallel).
    pub const GRID_BUILD: &str = "grid.build";
    /// One whole `WpgBuilder::build_with_index_threads` call.
    pub const WPG_BUILD: &str = "wpg.build";
    /// WPG sub-stage: per-user top-M rank lists.
    pub const WPG_RANK: &str = "wpg.build.rank";
    /// WPG sub-stage: mutual-edge emission.
    pub const WPG_EDGES: &str = "wpg.build.edges";
    /// WPG sub-stage: CSR assembly.
    pub const WPG_CSR: &str = "wpg.build.csr";
    /// Phase 1 of one request: k-clustering (per attempt on retry paths).
    pub const CLUSTERING: &str = "engine.phase1.cluster";
    /// Phase 2 of one request: secure bounding CPU time.
    pub const BOUNDING: &str = "engine.phase2.bound";
    /// One `ShardedRegistry::try_claim` call, end to end.
    pub const REGISTRY_CLAIM: &str = "registry.claim";
    /// Shard-lock acquisition wait inside one claim.
    pub const REGISTRY_LOCK_WAIT: &str = "registry.claim.lock_wait";
    /// One mobility tick's incremental WPG maintenance (`apply_moves`).
    pub const MOBILITY_INCREMENTAL: &str = "mobility.tick.incremental";
    /// One mobility tick's lifetime audit of the clusters its changed
    /// users belong to.
    pub const MOBILITY_AUDIT: &str = "mobility.tick.audit";
    /// One mobility tick's serving: the engine over the maintained state,
    /// every request of the tick and the validity counts.
    pub const MOBILITY_SERVE: &str = "mobility.tick.serve";
    /// Incremental sub-stage: staging the move batch into the sharded grid.
    pub const INC_STAGE: &str = "wpg.inc.stage";
    /// Incremental sub-stage: committing the staged shards (CSR rebuild).
    pub const INC_COMMIT: &str = "wpg.inc.commit";
    /// Incremental push tick, the mover pass: each mover's departures (read
    /// off its tick-start list, or probed around its tick-start position),
    /// its list rebuilt at its new position and its arrivals.
    pub const INC_MOVERS: &str = "wpg.inc.movers";
    /// Incremental push tick, the merge: grouping the pushes by receiver
    /// and applying each receiver's departures and arrivals, with underflow
    /// re-probes and the changed-row check.
    pub const INC_MERGE: &str = "wpg.inc.merge";
    /// Incremental tick past the mover crossover: every user re-probed.
    pub const INC_REPROBE: &str = "wpg.inc.reprobe";
    /// Incremental snapshot: mutual-edge emission from maintained ranks.
    pub const INC_EMIT: &str = "wpg.inc.emit";
    /// Incremental snapshot: in-place CSR refill.
    pub const INC_REFILL: &str = "wpg.inc.refill";
    /// One mobility tick's from-scratch rebuild (when measured).
    pub const MOBILITY_REBUILD: &str = "mobility.tick.rebuild";
    /// One `LbsServer::handle` call (query evaluation + transfer accounting).
    pub const LBS_HANDLE: &str = "lbs.handle";
    /// One server-side cloaked range query (`cloaked_range`). A kRNN query
    /// records none: its inner range step belongs to `LBS_KRNN`.
    pub const LBS_RANGE: &str = "lbs.query.range";
    /// One server-side kRNN query (`cloaked_krnn`), its corner selections
    /// and inner range step included.
    pub const LBS_KRNN: &str = "lbs.query.krnn";
    /// One client-side refinement (`refine_range` / `refine_knn`).
    pub const LBS_REFINE: &str = "lbs.refine";
    /// Serve mode: time a request spent queued before a worker picked it up.
    pub const SERVE_QUEUE_WAIT: &str = "serve.queue.wait";
    /// Serve mode: the cloaking leg of one request (cluster + bounding,
    /// claim retries included).
    pub const SERVE_CLOAK: &str = "serve.cloak";
    /// Serve mode: one request end to end — admission to refined answer.
    pub const SERVE_E2E: &str = "serve.request.e2e";
    /// Netsim-backed sessions: RPC retransmissions per cloaking request
    /// (dimensionless count, not nanoseconds).
    pub const NET_RETRANS_PER_REQ: &str = "net.request.retransmits";
    /// Netsim-backed sessions: RPC timeouts per cloaking request
    /// (dimensionless count, not nanoseconds).
    pub const NET_TIMEOUTS_PER_REQ: &str = "net.request.timeouts";
    /// Netsim-backed sessions: virtual network time one cloaking request
    /// spent on the radio (nanoseconds of simulated time).
    pub const NET_VIRTUAL_TIME: &str = "net.request.virtual";
}

/// Canonical counter names recorded by the pipeline (plain event counts).
pub mod counter {
    /// Requests served successfully (reuse included).
    pub const REQ_SERVED: &str = "engine.request.served";
    /// Requests that failed with a typed error.
    pub const REQ_FAILED: &str = "engine.request.failed";
    /// Served requests answered entirely from the registry.
    pub const REQ_REUSED: &str = "engine.request.reused";
    /// Extra clustering attempts forced by claim conflicts.
    pub const CLAIM_RETRIES: &str = "engine.claim.retries";
    /// Requests that starved on contention (retry budget exhausted).
    pub const REQ_CONTENTION: &str = "engine.request.contention";
    /// `try_claim` calls rejected because a rival won a member.
    pub const CLAIM_CONFLICTS: &str = "registry.claim.conflicts";
    /// RPC attempts beyond the first (netsim retransmissions).
    pub const RPC_RETRANSMITS: &str = "net.rpc.retransmits";
    /// Timeouts charged for lost transmissions (request or reply leg).
    pub const RPC_TIMEOUTS: &str = "net.rpc.timeouts";
    /// RPCs that completed.
    pub const RPC_OK: &str = "net.rpc.ok";
    /// RPCs abandoned after the full retry budget.
    pub const RPC_FAILED: &str = "net.rpc.failed";
    /// Cloaked LBS queries evaluated by the server.
    pub const LBS_QUERIES: &str = "lbs.query.served";
    /// Candidate POIs returned across all cloaked queries.
    pub const LBS_CANDIDATES: &str = "lbs.query.candidates";
    /// Grid entries the cloaked-query kernel read to find those candidates:
    /// the range rows, plus each kRNN corner's growth windows and cover
    /// square. Candidates over scanned is the kernel's useful fraction.
    pub const LBS_SCANNED: &str = "lbs.query.scanned";
    /// Serve mode: requests admitted into the queue.
    pub const SERVE_ADMITTED: &str = "serve.request.admitted";
    /// Serve mode: arrivals dropped because the queue was full.
    pub const SERVE_SHED: &str = "serve.request.shed";
    /// Serve mode: requests answered end to end (cloak + query + refine).
    pub const SERVE_SERVED: &str = "serve.request.served";
    /// Serve mode: admitted requests whose cloaking leg failed.
    pub const SERVE_FAILED: &str = "serve.request.failed";
    /// Serve mode: admitted requests dropped because their deadline passed
    /// while they waited in the queue.
    pub const SERVE_EXPIRED: &str = "serve.request.expired";
}

/// Whether the global recorder is live. Relaxed is enough: recording is
/// advisory — a racing `enable` may miss a few events, never corrupt state.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The global registry, allocated on first `enable()` — never while the
/// recorder stays disabled (the "allocates nothing" guarantee).
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// True when the global recorder is live. One relaxed load — the only cost
/// instrumented hot paths pay while metrics are off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True once the global registry has been allocated (it never is unless
/// [`enable`] ran). Exposed for the disabled-recorder guard tests.
pub fn initialized() -> bool {
    GLOBAL.get().is_some()
}

/// The global registry, allocating it on first use. Prefer the free
/// functions ([`add`], [`observe`], [`span`]) on hot paths — they skip the
/// allocation entirely while disabled.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turns the global recorder on (idempotent).
pub fn enable() {
    let _ = global();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the global recorder off. Already-started spans still record their
/// duration; new recording calls become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clears every histogram and counter in the global registry (keeps the
/// enabled/disabled state).
pub fn reset() {
    if let Some(r) = GLOBAL.get() {
        r.reset();
    }
}

/// Snapshot of the global registry. While the recorder was never enabled
/// this is an empty snapshot with `enabled: false`.
pub fn snapshot() -> MetricsSnapshot {
    match GLOBAL.get() {
        Some(r) => {
            let mut s = r.snapshot();
            s.enabled = enabled();
            s
        }
        None => MetricsSnapshot {
            enabled: false,
            histograms: Vec::new(),
            counters: Vec::new(),
        },
    }
}

/// Adds `delta` to the global counter `name` (no-op while disabled).
#[inline]
pub fn add(name: &str, delta: u64) {
    if enabled() {
        global().add(name, delta);
    }
}

/// Records `value` into the global histogram `name` (no-op while disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Records a duration, in nanoseconds, into the global histogram `name`.
#[inline]
pub fn observe_duration(name: &str, d: Duration) {
    if enabled() {
        global().observe(name, saturating_ns(d));
    }
}

/// Clamps a duration to u64 nanoseconds (saturating far beyond any span
/// this pipeline produces).
#[inline]
pub fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A scoped timer: records the elapsed nanoseconds into histogram `name`
/// when dropped. While the recorder is disabled the span is inert — it
/// holds no name, never reads the clock, and drops for free.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span(Option<(&'static str, Instant)>);

impl Span {
    /// True when this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, started)) = self.0.take() {
            observe(name, saturating_ns(started.elapsed()));
        }
    }
}

/// Starts a scoped timer over histogram `name`. Returns an inert span while
/// the recorder is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span(Some((name, Instant::now())))
    } else {
        Span(None)
    }
}
