//! `nela-serve` — the end-to-end anonymized LBS serving subsystem.
//!
//! Everything before this crate evaluates the pipeline in *batches*: a host
//! list goes in, a result list comes out, and no single number ever says how
//! long one request took from arrival to answer. This crate is the missing
//! front-end: a long-running, channel-based service that admits host
//! requests from an **open-loop Poisson workload** and drives each through
//! the whole paper pipeline —
//!
//! 1. proximity k-clustering + secure bounding
//!    ([`nela::EngineSession`], the lock-free sharded-registry path),
//! 2. the cloaked-region LBS query
//!    ([`nela_lbs::LbsServer::handle`] — `cloaked_range` / `cloaked_krnn`),
//! 3. client-side refinement (`refine_range` / `refine_knn`)
//!
//! — and reports **one end-to-end latency per request**, plus per-stage
//! latency distributions, sustained throughput, and backpressure accounting
//! (admitted / shed / served / failed / expired).
//!
//! Open loop means arrivals never wait for completions: the arrival times
//! are drawn up front from a seeded exponential inter-arrival stream
//! ([`arrivals`]), the producer enqueues each request at its scheduled
//! instant, and a full queue *sheds* the arrival instead of slowing the
//! generator — the honest way to measure a service under offered load.
//! Deterministic seeded streams (the `seed ^ tag` stream-decoupling
//! convention) keep the workload replayable: with one worker the whole run
//! — served/shed counts and every per-request answer — is bit-identical
//! across runs, which the replay tests pin.
//!
//! Every stage is instrumented with `nela-obs` spans (`serve.request.e2e`,
//! `serve.queue.wait`, `serve.cloak`, the `lbs.*` stages recorded inside
//! `nela-lbs`), so a `--metrics` snapshot of a serve session shows the full
//! path. The `exp_serve` bench binary sweeps offered load × workers ×
//! query type into `BENCH_serve.json`; the `nela serve` CLI subcommand runs
//! one session interactively.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod config;
pub mod queue;
pub mod report;
pub mod run;

pub use arrivals::{schedule, Arrival, QueryKind};
pub use config::{QueryMix, ServeConfig, ServeConfigError, Transport};
/// The report's network totals under their former name.
pub use nela::SessionNetStats as NetReport;
pub use queue::{Pop, Push, RequestQueue};
pub use report::{ServeReport, StageStats};
pub use run::{run_session, run_with_system, SessionOutcome};
