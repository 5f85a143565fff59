//! The `mobility` workload: `nela_mobility::run_continuous` over a
//! population with ~10% movers per tick, plus a serial replica of its tick
//! loop built from the same public calls, which the benchmark can time
//! call by call and which must reproduce the driver's per-tick counters.
//!
//! The replica also answers every served request at an LBS whose POIs are
//! the population's starting positions (places stay put while users move),
//! so a mobile request has an answer latency and a transfer cost like a
//! served one. Its queued latency runs from the start of the request's
//! tick: the engine serves against the maintained snapshot, so a request
//! waits for that tick's maintenance.

use crate::calibrate::Calibration;
use crate::metrics::{Gates, Outcome, Report};
use crate::pipeline::{self, ReqRec, SpanAt};
use crate::plan::{self, Plan};
use crate::stats::{median, ms_since, percentile, ratio};
use crate::trace::Tracer;
use nela::cluster::{ClusterError, ClusterRegistry};
use nela::geo::{DatasetSpec, Point, UserId};
use nela::lbs::{LbsServer, PoiStore};
use nela::wpg::{IncrementalWpg, InverseDistanceRss, Wpg, WpgBuilder};
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, RequestError, System};
use nela_mobility::lifetime::invalidate_clusters_of_users;
use nela_mobility::{run_continuous, DriverConfig, MobilityConfig, MobilityField, TickMetrics};
use nela_serve::QueryKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// The driver's request-stream tags (`seed ^ tag`), so the replica draws
/// exactly the driver's arrivals and hosts; the per-tick gate catches any
/// drift.
const ARRIVAL_STREAM: u64 = 0x4152_5249_5645;
const HOST_STREAM: u64 = 0x484f_5354;
/// The replica issues the serving workloads' query mix; the kind alternates
/// by request so it draws nothing from the driver's streams.
const RANGE: QueryKind = QueryKind::Range(0.02);
const KNN: QueryKind = QueryKind::Knn(5);
/// The traced replica rebuilds the WPG from scratch on every tenth tick, as
/// a reference for the incremental maintenance (kept off the tick spans).
const REBUILD_EVERY: usize = 10;

const ALGO: ClusteringAlgo = ClusteringAlgo::TConnDistributed;
const BOUND: BoundingAlgo = BoundingAlgo::Secure;

/// Knuth's product method, as the driver draws its per-tick arrivals.
fn poisson(rng: &mut ChaCha8Rng, rate: f64) -> usize {
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn mobility_config(seed: u64) -> MobilityConfig {
    MobilityConfig {
        seed,
        ..MobilityConfig::with_stationary(plan::STATIONARY)
    }
}

fn driver_config(plan: &Plan, seed: u64) -> DriverConfig {
    DriverConfig {
        ticks: plan.ticks,
        rate: plan.rate,
        seed,
        measure_rebuild: false,
        threads: 1,
    }
}

/// The state `run_continuous` builds before its first tick.
struct World {
    inc: IncrementalWpg<InverseDistanceRss>,
    field: MobilityField,
    wpg: Wpg,
    initial: Vec<Point>,
}

struct Setup {
    world: World,
    total_s: f64,
    dataset_ms: f64,
    wpg_ms: f64,
}

/// `MobileWorld::new` one part at a time, then the first snapshot. The
/// sharded grid is built inside `IncrementalWpg::with_topology`, so its
/// cost is part of `wpg.build_ms` here.
fn set_up(plan: &Plan, seed: u64) -> Setup {
    let p = &plan.params;
    let start = Instant::now();
    let t = Instant::now();
    let initial = DatasetSpec {
        n: p.n_users,
        seed: p.seed,
        distribution: p.distribution.clone(),
    }
    .generate();
    let dataset_ms = ms_since(t);
    let t = Instant::now();
    let shards = if p.shards > 0 {
        p.shards
    } else {
        nela::geo::sharded::DEFAULT_SHARDS
    };
    let builder = WpgBuilder::new(p.delta, p.max_peers, InverseDistanceRss);
    let inc = IncrementalWpg::with_topology(builder, &initial, shards, p.threads.max(1));
    let wpg_ms = ms_since(t);
    let field = MobilityField::new(initial.len(), &mobility_config(seed));
    let wpg = inc.snapshot();
    Setup {
        world: World {
            inc,
            field,
            wpg,
            initial,
        },
        total_s: start.elapsed().as_secs_f64(),
        dataset_ms,
        wpg_ms,
    }
}

/// One replica tick: the driver's counters plus the benchmark's timings.
struct TickRec {
    counters: [usize; 11],
    step_ms: f64,
    apply_ms: f64,
    snapshot_ms: f64,
    audit_ms: f64,
    freeze_ms: f64,
    serve_ms: f64,
}

fn driver_counters(m: &TickMetrics) -> [usize; 11] {
    [
        m.moved,
        m.dirty,
        m.changed,
        m.invalidated,
        m.released,
        m.active_clusters,
        m.requests,
        m.served,
        m.reused,
        m.failed,
        m.valid_served,
    ]
}

struct Replica {
    ticks: Vec<TickRec>,
    recs: Vec<ReqRec>,
    /// Per served request: latency and wait from the start of its tick.
    e2e_us: Vec<f64>,
    wait_us: Vec<f64>,
    max_depth: usize,
    host_outside: usize,
    unjustified: usize,
    transfer_mean: f64,
    rebuild_ms: Vec<f64>,
    /// Wall time of the tick loop, reference rebuilds excluded.
    wall_s: f64,
}

/// True when the host's component in the remaining WPG (clustered users
/// removed) holds fewer than k users — the one condition under which the
/// distributed algorithm refuses with `ComponentTooSmall`.
fn remaining_component_below_k(
    wpg: &Wpg,
    registry: &ClusterRegistry,
    host: UserId,
    k: usize,
) -> bool {
    let mut seen = HashSet::from([host]);
    let mut stack = vec![host];
    while let Some(u) = stack.pop() {
        for (v, _) in wpg.neighbors(u) {
            if !registry.is_clustered(v) && seen.insert(v) {
                if seen.len() >= k {
                    return false;
                }
                stack.push(v);
            }
        }
    }
    seen.len() < k
}

fn replica(
    plan: &Plan,
    seed: u64,
    world: World,
    tracer: &mut Tracer,
    rebuild: bool,
    gates: &mut Gates,
) -> Replica {
    let p = &plan.params;
    let n = p.n_users;
    let World {
        mut inc,
        mut field,
        mut wpg,
        initial,
    } = world;
    let server = LbsServer::new(PoiStore::from_points(&initial, p.cr as u32));
    let builder = WpgBuilder::new(p.delta, p.max_peers, InverseDistanceRss);
    let mut registry = ClusterRegistry::new(n);
    let mut arrival_rng = ChaCha8Rng::seed_from_u64(seed ^ ARRIVAL_STREAM);
    let mut host_rng = ChaCha8Rng::seed_from_u64(seed ^ HOST_STREAM);
    let mut out = Replica {
        ticks: Vec::with_capacity(plan.ticks),
        recs: Vec::new(),
        e2e_us: Vec::new(),
        wait_us: Vec::new(),
        max_depth: 0,
        host_outside: 0,
        unjustified: 0,
        transfer_mean: 0.0,
        rebuild_ms: Vec::new(),
        wall_s: 0.0,
    };
    let mut next_req = 0u32;
    let mut rebuild_s = 0.0;
    let start = Instant::now();
    for tick in 0..plan.ticks {
        let tick_span = tracer.open("tick", None, 0, None);
        let tick_start = Instant::now();
        let stage = |tracer: &mut Tracer, name: &'static str| {
            let id = tracer.open(name, None, 0, Some(tick_span));
            (id, Instant::now())
        };
        let end = |tracer: &mut Tracer, (id, t): (u32, Instant)| {
            tracer.close(id);
            ms_since(t)
        };

        let s = stage(tracer, "mobility.step");
        let moves = field.step(inc.points());
        let step_ms = end(tracer, s);
        let s = stage(tracer, "wpg.apply_moves");
        let stats = inc.apply_moves(&moves);
        let apply_ms = end(tracer, s);
        let s = stage(tracer, "wpg.snapshot");
        inc.snapshot_into(&mut wpg);
        let snapshot_ms = end(tracer, s);
        let s = stage(tracer, "mobility.audit");
        let audit = invalidate_clusters_of_users(&mut registry, &wpg, inc.changed_users());
        let audit_ms = end(tracer, s);
        let s = stage(tracer, "geo.freeze");
        let grid = inc.grid().to_grid_index();
        let freeze_ms = end(tracer, s);
        let s = stage(tracer, "nela.with_parts");
        let system = System::with_parts(p.clone(), inc.points().to_vec(), grid, wpg);
        end(tracer, s);

        let serve = stage(tracer, "mobility.serve");
        let mut engine = CloakingEngine::with_registry(&system, ALGO, BOUND, registry);
        let requests = poisson(&mut arrival_rng, plan.rate);
        out.max_depth = out.max_depth.max(requests);
        let (mut served, mut reused, mut failed, mut valid) = (0, 0, 0, 0);
        for _ in 0..requests {
            let host: UserId = host_rng.gen_range(0..n as u32);
            let id = next_req;
            next_req += 1;
            let root = tracer.open("request", Some(id), 0, Some(serve.0));
            let at = SpanAt {
                req: id,
                session: 0,
                parent: root,
            };
            let waited = tick_start.elapsed();
            let (result, cloak_ns) = pipeline::timed(tracer, at, || engine.request(host));
            let mut rec = ReqRec {
                cloak_ns,
                ..ReqRec::default()
            };
            match result {
                Ok(r) => {
                    served += 1;
                    reused += usize::from(r.reused);
                    valid += usize::from(system.grid.count_in_rect(&r.region) >= p.k);
                    let position = system.points[host as usize];
                    let query = if id.is_multiple_of(2) { RANGE } else { KNN };
                    let refined =
                        pipeline::answer(tracer, at, &server, &r.region, position, query, &mut rec);
                    out.e2e_us.push(tick_start.elapsed().as_secs_f64() * 1e6);
                    out.wait_us.push(waited.as_secs_f64() * 1e6);
                    rec.served = true;
                    rec.reused = r.reused;
                    rec.clustering_messages = r.clustering_messages;
                    rec.bounding_messages = r.bounding_messages;
                    rec.bounding_rounds = r.bounding_rounds;
                    // The LBS guarantees a superset only for positions inside
                    // the region; a host that left a reused region is counted,
                    // not checked.
                    if r.region.contains(&position) {
                        let exact = tracer.scope("bench.audit", Some(id), 0, Some(root), || {
                            pipeline::exact_answer_ok(server.store(), position, query, &refined)
                        });
                        gates.check(exact, || {
                            format!("tick {tick} request {id}: refined answer differs from the exact answer")
                        });
                    } else {
                        out.host_outside += 1;
                    }
                }
                Err(e) => {
                    failed += 1;
                    let justified =
                        matches!(
                            e,
                            RequestError::Cluster(ClusterError::ComponentTooSmall { .. })
                        ) && remaining_component_below_k(&system.wpg, engine.registry(), host, p.k);
                    if !justified {
                        out.unjustified += 1;
                        eprintln!("tick {tick} request {id}: unjustified refusal: {e}");
                    }
                }
            }
            out.recs.push(rec);
            tracer.close(root);
        }
        registry = engine.into_registry();
        let serve_ms = end(tracer, serve);
        let System { wpg: recovered, .. } = system;
        wpg = recovered;
        tracer.close(tick_span);

        out.ticks.push(TickRec {
            counters: [
                stats.moved,
                stats.dirty,
                stats.changed,
                audit.invalidated,
                audit.released,
                registry.active_cluster_count(),
                requests,
                served,
                reused,
                failed,
                valid,
            ],
            step_ms,
            apply_ms,
            snapshot_ms,
            audit_ms,
            freeze_ms,
            serve_ms,
        });
        if rebuild && tick % REBUILD_EVERY == 0 {
            let t = Instant::now();
            std::hint::black_box(builder.build(inc.points()));
            rebuild_s += t.elapsed().as_secs_f64();
            out.rebuild_ms.push(ms_since(t));
        }
    }
    out.wall_s = start.elapsed().as_secs_f64() - rebuild_s;
    out.transfer_mean = server.mean_transfer().unwrap_or(0.0);
    out
}

pub fn run(plan: &Plan, seed: u64, traced: bool, trace_path: Option<&Path>) -> Outcome {
    let mut gates = Gates::default();
    let mut report = Report::default();
    let mut cal = Calibration::new();

    let setups: Vec<(Setup, f64)> = (0..plan.setups)
        .map(|_| cal.around(|| set_up(plan, seed)))
        .collect();
    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
    let setup_s: Vec<(f64, f64)> = setups.iter().map(|(s, f)| (s.total_s, *f)).collect();
    report.set("geo.dataset_ms", med(|s| s.dataset_ms), setups.len());
    report.set("wpg.build_ms", med(|s| s.wpg_ms), setups.len());
    let world = setups
        .into_iter()
        .last()
        .expect("at least one set-up")
        .0
        .world;

    let ((summary, driver_s), driver_f) = cal.around(|| {
        let t = Instant::now();
        let summary = run_continuous(
            &plan.params,
            &mobility_config(seed),
            &driver_config(plan, seed),
            ALGO,
            BOUND,
        );
        (summary, t.elapsed().as_secs_f64())
    });

    let mut untraced = Tracer::new(false);
    let (base, base_f) =
        cal.around(|| replica(plan, seed, world, &mut untraced, false, &mut gates));
    gates.check(summary.per_tick.len() == base.ticks.len(), || {
        "replica ran a different number of ticks than run_continuous".into()
    });
    for (m, r) in summary.per_tick.iter().zip(&base.ticks) {
        gates.check(driver_counters(m) == r.counters, || {
            format!(
                "tick {}: replica counters {:?} != run_continuous {:?}",
                m.tick,
                r.counters,
                driver_counters(m)
            )
        });
    }
    let mut attempted = (summary.requests + base.recs.len()) as u64;
    // run_continuous refused exactly the replica's requests (gated above).
    let mut failed = 2 * base.unjustified as u64;

    if !traced {
        let answer = pipeline::answer_us(&base.recs);
        report.set_scaled("setup_s", &setup_s, plan.setups);
        report.set_scaled(
            "capacity_rps",
            &[(summary.served as f64 / driver_s, driver_f)],
            summary.served,
        );
        report.set_scaled(
            "answer_us_p50",
            &[(percentile(&answer, 0.50), base_f)],
            answer.len(),
        );
        report.set(
            "served_frac",
            ratio(summary.served as f64, summary.requests as f64),
            summary.requests,
        );
        report.set("transfer_units_mean", base.transfer_mean, summary.served);
        report.set(
            "valid_frac",
            summary.validity_rate.unwrap_or(0.0),
            summary.served,
        );
    } else {
        let served = base.e2e_us.len();
        report.set("serve.e2e_p50_us", percentile(&base.e2e_us, 0.50), served);
        report.set("serve.e2e_p99_us", percentile(&base.e2e_us, 0.99), served);
        report.set(
            "serve.queue_wait_us_p50",
            percentile(&base.wait_us, 0.50),
            served,
        );
        report.set(
            "serve.queue_wait_us_p99",
            percentile(&base.wait_us, 0.99),
            served,
        );
        report.set(
            "serve.max_queue_depth",
            base.max_depth as f64,
            base.ticks.len(),
        );
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        report.set(
            "serve.residual_us_mean",
            mean(&base.e2e_us) - mean(&base.wait_us) - mean(&pipeline::answer_us(&base.recs)),
            served,
        );
        report.set("serve.shed_frac", 0.0, base.recs.len());
        report.set("serve.expired_frac", 0.0, base.recs.len());
        report.set(
            "mobility.host_outside_frac",
            ratio(base.host_outside as f64, served as f64),
            served,
        );
        report.set(
            "mobility.ticks_per_s",
            plan.ticks as f64 / driver_s,
            plan.ticks,
        );

        let mut tracer = Tracer::new(true);
        let world = set_up(plan, seed).world;
        nela_obs::reset();
        nela_obs::enable();
        let traced_run = replica(plan, seed, world, &mut tracer, true, &mut gates);
        nela_obs::disable();
        let obs = nela_obs::snapshot();
        attempted += traced_run.recs.len() as u64;
        failed += traced_run.unjustified as u64;
        for (a, b) in base.ticks.iter().zip(&traced_run.ticks) {
            gates.check(a.counters == b.counters, || {
                "traced replica diverged from the untraced one".into()
            });
        }
        pipeline::request_layers(&mut report, std::slice::from_ref(&traced_run.recs), &obs);
        tick_rows(&mut report, &traced_run);
        report.set(
            "trace.overhead_frac",
            traced_run.wall_s / base.wall_s - 1.0,
            2,
        );
        println!("-- self time of the traced replica ({} ticks)", plan.ticks);
        let unattributed = pipeline::print_self_times(&tracer);
        report.set(
            "trace.unattributed_frac",
            unattributed,
            tracer.spans().len(),
        );
        if let Some(path) = trace_path {
            match tracer.write_jsonl(path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => gates.check(false, || format!("writing {}: {e}", path.display())),
            }
        }
    }

    Outcome {
        report,
        attempted,
        failed,
        gates,
        knobs: plan.knobs(),
        calibration: (cal.seconds(), cal.samples()),
        threads: 1,
    }
}

/// The mobility, wpg and geo tick rows from the traced replica.
fn tick_rows(report: &mut Report, r: &Replica) {
    let t = r.ticks.len();
    let col = |f: fn(&TickRec) -> f64| r.ticks.iter().map(f).collect::<Vec<f64>>();
    let sum = |i: usize| r.ticks.iter().map(|x| x.counters[i]).sum::<usize>() as f64;
    let per_tick = |i: usize| ratio(sum(i), t as f64);
    report.set(
        "mobility.step_ms_p50",
        percentile(&col(|x| x.step_ms), 0.50),
        t,
    );
    let apply = col(|x| x.apply_ms);
    report.set("wpg.apply_moves_ms_p50", percentile(&apply, 0.50), t);
    report.set("wpg.apply_moves_ms_p95", percentile(&apply, 0.95), t);
    report.set(
        "wpg.snapshot_ms_p50",
        percentile(&col(|x| x.snapshot_ms), 0.50),
        t,
    );
    report.set(
        "geo.freeze_ms_p50",
        percentile(&col(|x| x.freeze_ms), 0.50),
        t,
    );
    report.set(
        "mobility.audit_ms_p50",
        percentile(&col(|x| x.audit_ms), 0.50),
        t,
    );
    report.set(
        "mobility.serve_ms_p50",
        percentile(&col(|x| x.serve_ms), 0.50),
        t,
    );
    report.set(
        "wpg.rebuild_ms_p50",
        percentile(&r.rebuild_ms, 0.50),
        r.rebuild_ms.len(),
    );
    report.set("mobility.moved_per_tick", per_tick(0), t);
    report.set("wpg.dirty_per_tick", per_tick(1), t);
    report.set("wpg.changed_per_tick", per_tick(2), t);
    report.set("wpg.rescore_useful_frac", ratio(sum(2), sum(1)), t);
    report.set("mobility.invalidated_per_tick", per_tick(3), t);
}
