//! What the serving replays and the mobility replica share: answering a
//! cloaked region at the LBS exactly as `nela-serve` does, checking that
//! answer against the exact one, and turning per-request records into the
//! metrics of the nela, cluster, bounding and lbs layers.

use crate::metrics::Report;
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use nela::geo::{Point, Rect};
use nela::lbs::{refine_knn, refine_range, CloakedQuery, LbsServer, PoiStore};
use nela_obs::MetricsSnapshot;
use nela_serve::QueryKind;
use std::time::Instant;

/// One request as a replay saw it.
#[derive(Clone, Debug, Default)]
pub struct ReqRec {
    /// Time inside the cloaking call (`EngineSession::request` or
    /// `CloakingEngine::request`).
    pub cloak_ns: u64,
    pub served: bool,
    pub reused: bool,
    pub clustering_messages: u64,
    pub bounding_messages: u64,
    pub bounding_rounds: usize,
    pub lbs_ns: u64,
    pub refine_ns: u64,
    pub candidates: usize,
    pub answer_len: usize,
    /// Simulated radio seconds this request spent (netsim only).
    pub virtual_s: f64,
}

/// Where a replay's spans hang: request id, session, parent span.
#[derive(Clone, Copy)]
pub struct SpanAt {
    pub req: u32,
    pub session: u32,
    pub parent: u32,
}

fn ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one cloaking call inside a `nela.request` span and times it.
pub fn timed<T>(tracer: &mut Tracer, at: SpanAt, call: impl FnOnce() -> T) -> (T, u64) {
    tracer.scope(
        "nela.request",
        Some(at.req),
        at.session,
        Some(at.parent),
        || {
            let t = Instant::now();
            let out = call();
            (out, ns(t))
        },
    )
}

/// Queries the LBS over `region` and refines at the true `position` — the
/// same calls, in the same order, as the `nela-serve` worker. Returns the
/// refined answer and fills the LBS fields of `rec`.
pub fn answer(
    tracer: &mut Tracer,
    at: SpanAt,
    server: &LbsServer,
    region: &Rect,
    position: Point,
    query: QueryKind,
    rec: &mut ReqRec,
) -> Vec<u32> {
    let (resp, lbs_ns) = tracer.scope(
        "lbs.handle",
        Some(at.req),
        at.session,
        Some(at.parent),
        || {
            let t = Instant::now();
            let q = match query {
                QueryKind::Range(radius) => CloakedQuery::Range { radius },
                QueryKind::Knn(k) => CloakedQuery::Knn { k },
            };
            let resp = server.handle(region, &q);
            (resp, ns(t))
        },
    );
    let (refined, refine_ns) = tracer.scope(
        "lbs.refine",
        Some(at.req),
        at.session,
        Some(at.parent),
        || {
            let t = Instant::now();
            let refined = match query {
                QueryKind::Range(radius) => {
                    refine_range(server.store(), &resp.candidates, position, radius)
                }
                QueryKind::Knn(k) => refine_knn(server.store(), &resp.candidates, position, k),
            };
            (refined, ns(t))
        },
    );
    rec.lbs_ns = lbs_ns;
    rec.refine_ns = refine_ns;
    rec.candidates = resp.candidates.len();
    rec.answer_len = refined.len();
    refined
}

/// True when `refined` is the exact answer at `position`: the same POI set
/// as `PoiStore::range` filtered to the radius, or for kNN the same
/// distance sequence as `PoiStore::knn` (equal-distance ties may pick
/// different ids, so they compare by distance).
pub fn exact_answer_ok(
    store: &PoiStore,
    position: Point,
    query: QueryKind,
    refined: &[u32],
) -> bool {
    match query {
        QueryKind::Range(r) => {
            let window = Rect::new(
                (position.x - r).max(0.0),
                (position.y - r).max(0.0),
                (position.x + r).min(1.0),
                (position.y + r).min(1.0),
            );
            let mut exact: Vec<u32> = store
                .range(&window)
                .into_iter()
                .filter(|&id| store.get(id).position.dist(&position) <= r)
                .collect();
            let mut got = refined.to_vec();
            exact.sort_unstable();
            got.sort_unstable();
            got == exact
        }
        QueryKind::Knn(k) => {
            let dists = |ids: &[u32]| -> Vec<f64> {
                ids.iter()
                    .map(|&id| store.get(id).position.dist_sq(&position))
                    .collect()
            };
            dists(refined) == dists(&store.knn(position, k))
        }
    }
}

/// Per served request: microseconds from the cloaking call to the refined
/// answer (cloak + LBS + refine), with no queue in front — the latency one
/// user sees from an otherwise idle pipeline.
pub fn answer_us(recs: &[ReqRec]) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.served)
        .map(|r| (r.cloak_ns + r.lbs_ns + r.refine_ns) as f64 / 1e3)
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us_of(values: impl Iterator<Item = u64>) -> Vec<f64> {
    values.map(|v| v as f64 / 1e3).collect()
}

/// The nela, cluster, bounding and lbs rows from the traced replay's
/// records (one `Vec` per replayed session) and the `nela-obs` stages the
/// program recorded meanwhile. Busy times and counts are per session.
pub fn request_layers(report: &mut Report, sessions: &[Vec<ReqRec>], obs: &MetricsSnapshot) {
    let per = sessions.len().max(1) as f64;
    let all: Vec<&ReqRec> = sessions.iter().flatten().collect();
    let n = all.len();
    let served: Vec<&ReqRec> = all.iter().copied().filter(|r| r.served).collect();
    let failed: Vec<&ReqRec> = all.iter().copied().filter(|r| !r.served).collect();

    let cloak = us_of(all.iter().map(|r| r.cloak_ns));
    report.set("nela.request_us_p50", percentile(&cloak, 0.50), n);
    report.set("nela.request_us_p99", percentile(&cloak, 0.99), n);
    report.set("nela.request_us_max", percentile(&cloak, 1.0), n);
    report.set(
        "nela.request_busy_ms",
        ms(all.iter().map(|r| r.cloak_ns).sum()) / per,
        n,
    );
    let first100: Vec<f64> = sessions
        .iter()
        .map(|s| ms(s.iter().take(100).map(|r| r.cloak_ns).sum()))
        .collect();
    report.set("nela.first100_busy_ms", median(&first100), first100.len());
    report.set(
        "nela.reuse_frac",
        ratio(
            served.iter().filter(|r| r.reused).count() as f64,
            served.len() as f64,
        ),
        served.len(),
    );
    report.set("nela.fail_frac", ratio(failed.len() as f64, n as f64), n);
    report.set(
        "nela.fail_busy_ms",
        ms(failed.iter().map(|r| r.cloak_ns).sum()) / per,
        failed.len(),
    );

    let stage = |name: &str| {
        obs.histogram(name)
            .map_or((0u64, 0u64), |h| (h.count, h.sum_ns))
    };
    let counter = |name: &str| obs.counter(name).unwrap_or(0) as f64;
    let (p1_calls, p1_ns) = stage(nela_obs::stage::CLUSTERING);
    let (claims, claim_ns) = stage(nela_obs::stage::REGISTRY_CLAIM);
    let (p2_calls, p2_ns) = stage(nela_obs::stage::BOUNDING);
    let p1 = p1_calls as usize;
    report.set("cluster.phase1_calls", p1_calls as f64 / per, p1);
    report.set("cluster.phase1_busy_ms", ms(p1_ns) / per, p1);
    report.set("cluster.claim_busy_ms", ms(claim_ns) / per, claims as usize);
    report.set(
        "cluster.claim_conflicts",
        counter(nela_obs::counter::CLAIM_CONFLICTS) / per,
        claims as usize,
    );
    report.set(
        "cluster.claim_retries",
        counter(nela_obs::counter::CLAIM_RETRIES) / per,
        claims as usize,
    );
    let clustered: Vec<f64> = served
        .iter()
        .filter(|r| r.clustering_messages > 0)
        .map(|r| r.clustering_messages as f64)
        .collect();
    report.set("cluster.messages_mean", mean(&clustered), clustered.len());

    let p2 = p2_calls as usize;
    report.set("bounding.phase2_calls", p2_calls as f64 / per, p2);
    report.set("bounding.phase2_busy_ms", ms(p2_ns) / per, p2);
    let bounded: Vec<&&ReqRec> = served.iter().filter(|r| r.bounding_rounds > 0).collect();
    let rounds: Vec<f64> = bounded.iter().map(|r| r.bounding_rounds as f64).collect();
    let msgs: Vec<f64> = bounded.iter().map(|r| r.bounding_messages as f64).collect();
    report.set("bounding.rounds_mean", mean(&rounds), rounds.len());
    report.set("bounding.messages_mean", mean(&msgs), msgs.len());

    let s = served.len();
    let handle = us_of(served.iter().map(|r| r.lbs_ns));
    let refine = us_of(served.iter().map(|r| r.refine_ns));
    report.set("lbs.handle_us_p50", percentile(&handle, 0.50), s);
    report.set("lbs.handle_us_p99", percentile(&handle, 0.99), s);
    report.set(
        "lbs.handle_busy_ms",
        ms(served.iter().map(|r| r.lbs_ns).sum()) / per,
        s,
    );
    let candidates: usize = served.iter().map(|r| r.candidates).sum();
    report.set("lbs.candidates_mean", ratio(candidates as f64, s as f64), s);
    report.set(
        "lbs.useful_frac",
        ratio(
            served.iter().map(|r| r.answer_len).sum::<usize>() as f64,
            candidates as f64,
        ),
        s,
    );
    report.set("lbs.refine_us_p50", percentile(&refine, 0.50), s);
    report.set(
        "lbs.refine_busy_ms",
        ms(served.iter().map(|r| r.refine_ns).sum()) / per,
        s,
    );
}

/// Prints each span name's wall and self time, then the share of the run
/// no layer span accounts for, and returns that share.
pub fn print_self_times(tracer: &Tracer) -> f64 {
    let st = crate::trace::self_times(tracer.spans());
    let roots: u64 = st.values().filter(|s| s.root).map(|s| s.total_ns).sum();
    println!(
        "{:<20} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, s) in &st {
        println!(
            "{name:<20} {:>9} {:>12.3} {:>12.3} {:>6.2}%",
            s.count,
            ms(s.total_ns),
            ms(s.self_ns),
            100.0 * ratio(s.self_ns as f64, roots as f64)
        );
    }
    let unattributed: u64 = st.values().filter(|s| s.root).map(|s| s.self_ns).sum();
    println!(
        "{:<20} {:>9} {:>12} {:>12.3} {:>6.2}%",
        "unattributed",
        "",
        "",
        ms(unattributed),
        100.0 * ratio(unattributed as f64, roots as f64)
    );
    ratio(unattributed as f64, roots as f64)
}
