//! The serving workloads: `cold`, `warm` and `netsim`.
//!
//! A run sets the system up `setups` times (the parts of `System::build`,
//! plus the warm checkpoint chain for `warm`), then for each session seed
//! runs one nominal-rate session and one capacity drain through
//! `nela_serve::run_session` (one producer plus one worker), then replays
//! every session serially with every answer audited. A traced run skips
//! the drains and replays every session a second time with spans around
//! each public call and the `nela-obs` recorder on.

use crate::calibrate::Calibration;
use crate::metrics::{Gates, Outcome, Report};
use crate::pipeline::{self, ReqRec, SpanAt};
use crate::plan::{self, Plan, Workload};
use crate::stats::{median, ms_since, percentile, ratio};
use crate::trace::Tracer;
use nela::bounding::protocol::BoundingError;
use nela::cluster::ClusterError;
use nela::geo::{DatasetSpec, GridIndex, UserId};
use nela::lbs::{LbsServer, PoiStore};
use nela::wpg::{DisjointSets, InverseDistanceRss, Wpg, WpgBuilder};
use nela::{
    audit_result, auto_shard_axis, BoundingAlgo, CloakingEngine, ClusteringAlgo, RequestError,
    SessionCheckpoint, SessionNetStats, System,
};
use nela_serve::report::answer_hash;
use nela_serve::{run_session, schedule, ServeConfig, ServeReport, Transport};
use std::path::Path;
use std::time::Instant;

/// One set-up: the timed parts of `System::build`, and the warm chain.
struct Setup {
    system: System,
    checkpoint: Option<SessionCheckpoint>,
    total_s: f64,
    dataset_ms: f64,
    grid_ms: f64,
    wpg_ms: f64,
}

fn config(plan: &Plan, seed: u64, rate: f64) -> ServeConfig {
    ServeConfig {
        requests: plan.requests,
        rate,
        workers: 1,
        shards: 0,
        // Holds the whole session, so nothing is shed at any rate.
        queue_capacity: plan.requests,
        deadline: None,
        seed,
        query: plan::QUERY,
        transport: match plan.workload {
            Workload::Netsim => Transport::Netsim(plan::netsim_config()),
            _ => Transport::InProcess,
        },
    }
}

fn session(
    plan: &Plan,
    seed: u64,
    rate: f64,
    system: &System,
    prior: Option<SessionCheckpoint>,
) -> nela_serve::SessionOutcome {
    run_session(system, &config(plan, seed, rate), prior)
        .expect("the benchmark's serving configs are valid")
}

/// `System::build`, one part at a time (the same calls, in order), then —
/// for `warm` — a chain of capacity drains over the run's session seeds so
/// every host those sessions will ask for is already clustered and bounded.
fn set_up(plan: &Plan, seed: u64) -> Setup {
    let p = &plan.params;
    let threads = p.threads.max(1);
    let start = Instant::now();
    let t = Instant::now();
    let points = DatasetSpec {
        n: p.n_users,
        seed: p.seed,
        distribution: p.distribution.clone(),
    }
    .generate();
    let dataset_ms = ms_since(t);
    let t = Instant::now();
    let grid = GridIndex::build_threads(&points, p.delta, threads);
    let grid_ms = ms_since(t);
    let t = Instant::now();
    let wpg = WpgBuilder::new(p.delta, p.max_peers, InverseDistanceRss)
        .build_with_index_threads(&points, &grid, threads);
    let wpg_ms = ms_since(t);
    let system = System::with_parts(p.clone(), points, grid, wpg);
    let checkpoint = (plan.workload == Workload::Warm).then(|| {
        let mut chain = None;
        for i in 0..plan.sessions {
            let s = Plan::session_seed(seed, i);
            chain = Some(session(plan, s, plan::DRAIN_RATE, &system, chain.take()).checkpoint);
        }
        chain.expect("a run has at least one session")
    });
    Setup {
        system,
        checkpoint,
        total_s: start.elapsed().as_secs_f64(),
        dataset_ms,
        grid_ms,
        wpg_ms,
    }
}

/// Size of each user's connected component in the WPG. A host whose
/// component holds fewer than k users can never be cloaked — the paper's
/// disconnected-host problem — so refusing it is the correct outcome.
fn component_sizes(wpg: &Wpg) -> Vec<u32> {
    let mut sets = DisjointSets::new(wpg.n());
    for e in wpg.edges() {
        sets.union(e.u, e.v);
    }
    (0..wpg.n() as UserId)
        .map(|u| sets.size_of(u) as u32)
        .collect()
}

/// What the audited replay of one session saw.
struct Replay {
    recs: Vec<ReqRec>,
    digest: u64,
    served: usize,
    refused: usize,
    /// Refusals the audit could not justify.
    unjustified: usize,
    /// Served requests whose region passed `nela::audit_result`.
    audited_ok: usize,
    wall_s: f64,
}

/// Replays one session serially through the same public calls the
/// `nela-serve` worker makes — same session type, shard layout, transport
/// and LBS server — and audits every outcome: each served region must pass
/// `audit_result` and each refined answer must equal the exact answer at
/// the host's true position; each refusal must be justified.
#[allow(clippy::too_many_arguments)]
fn replay(
    plan: &Plan,
    system: &System,
    seed: u64,
    prior: Option<SessionCheckpoint>,
    comp: &[u32],
    tracer: &mut Tracer,
    session_idx: u32,
    gates: &mut Gates,
) -> Replay {
    let cfg = config(plan, seed, plan.rate);
    let arrivals = schedule(&cfg, system.points.len());
    let axis = auto_shard_axis(cfg.workers);
    let (algo, bound) = (ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
    let session = match prior {
        Some(c) => CloakingEngine::resume_session(system, algo, bound, c, axis).0,
        None => CloakingEngine::new(system, algo, bound).into_session(axis),
    };
    let netsim = matches!(cfg.transport, Transport::Netsim(_));
    let session = match cfg.transport {
        Transport::InProcess => session,
        Transport::Netsim(net) => session
            .with_network(net)
            .expect("the netsim workload's network config is valid"),
    };
    let server = LbsServer::new(PoiStore::from_points(
        &system.points,
        system.params.cr as u32,
    ));
    let k = system.params.k;
    let virtual_s = |s: Option<SessionNetStats>| s.map_or(0.0, |s| s.virtual_s);
    let mut out = Replay {
        recs: Vec::with_capacity(arrivals.len()),
        digest: 0,
        served: 0,
        refused: 0,
        unjustified: 0,
        audited_ok: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    for a in &arrivals {
        let root = tracer.open("request", Some(a.id), session_idx, None);
        let at = SpanAt {
            req: a.id,
            session: session_idx,
            parent: root,
        };
        let radio_before = virtual_s(session.net_stats());
        let (result, cloak_ns) = pipeline::timed(tracer, at, || session.request(a.host));
        let mut rec = ReqRec {
            cloak_ns,
            virtual_s: virtual_s(session.net_stats()) - radio_before,
            ..ReqRec::default()
        };
        match result {
            Ok(r) => {
                let position = system.points[a.host as usize];
                let refined =
                    pipeline::answer(tracer, at, &server, &r.region, position, a.query, &mut rec);
                out.digest ^= answer_hash(a.id, &refined);
                out.served += 1;
                rec.served = true;
                rec.reused = r.reused;
                rec.clustering_messages = r.clustering_messages;
                rec.bounding_messages = r.bounding_messages;
                rec.bounding_rounds = r.bounding_rounds;
                let (audit_ok, exact_ok) =
                    tracer.scope("bench.audit", Some(a.id), session_idx, Some(root), || {
                        (
                            audit_result(system, &r).passed(),
                            pipeline::exact_answer_ok(server.store(), position, a.query, &refined),
                        )
                    });
                out.audited_ok += usize::from(audit_ok);
                gates.check(audit_ok, || {
                    format!("seed {seed} request {}: region failed audit_result", a.id)
                });
                gates.check(exact_ok, || {
                    format!(
                        "seed {seed} request {}: refined answer differs from the exact answer",
                        a.id
                    )
                });
            }
            Err(e) => {
                out.refused += 1;
                let justified = match e {
                    RequestError::Cluster(ClusterError::ComponentTooSmall { .. }) => {
                        (comp[a.host as usize] as usize) < k
                    }
                    RequestError::Cluster(ClusterError::PeerUnreachable { .. })
                    | RequestError::Bounding(BoundingError::Unreachable { .. }) => netsim,
                    _ => false,
                };
                if !justified {
                    out.unjustified += 1;
                    eprintln!("seed {seed} request {}: unjustified refusal: {e}", a.id);
                }
            }
        }
        out.recs.push(rec);
        tracer.close(root);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The hosts of a session whose component is below k: each must be refused.
fn doomed_hosts(plan: &Plan, seed: u64, n: usize, comp: &[u32]) -> usize {
    let k = plan.params.k;
    schedule(&config(plan, seed, plan.rate), n)
        .iter()
        .filter(|a| (comp[a.host as usize] as usize) < k)
        .count()
}

/// Checks one session report and returns its failed requests: shed,
/// expired, and refusals beyond the justified ones (hosts below k, and on
/// the lossy radio up to one refusal per abandoned RPC).
fn check_report(r: &ServeReport, doomed: usize, what: &str, gates: &mut Gates) -> u64 {
    gates.check(r.admitted + r.shed == r.requests, || {
        format!("{what}: admitted + shed != requests")
    });
    gates.check(r.served + r.failed + r.expired == r.admitted, || {
        format!("{what}: served + failed + expired != admitted")
    });
    gates.check(r.failed >= doomed, || {
        format!(
            "{what}: {} refusals but {doomed} hosts cannot reach k — a host below k was served",
            r.failed
        )
    });
    let lossy = r.net.as_ref().map_or(0, |n| n.rpcs_failed as usize);
    let unjustified = r.failed.saturating_sub(doomed + lossy);
    (r.shed + r.expired + unjustified) as u64
}

pub fn run(plan: &Plan, seed: u64, traced: bool, trace_path: Option<&Path>) -> Outcome {
    let mut gates = Gates::default();
    let mut report = Report::default();
    let mut cal = Calibration::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let setups: Vec<(Setup, f64)> = (0..plan.setups)
        .map(|_| cal.around(|| set_up(plan, seed)))
        .collect();
    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
    let setup_s: Vec<(f64, f64)> = setups.iter().map(|(s, f)| (s.total_s, *f)).collect();
    report.set("geo.dataset_ms", med(|s| s.dataset_ms), setups.len());
    report.set("geo.grid_build_ms", med(|s| s.grid_ms), setups.len());
    report.set("wpg.build_ms", med(|s| s.wpg_ms), setups.len());
    let (
        Setup {
            system, checkpoint, ..
        },
        _,
    ) = setups.into_iter().last().expect("at least one set-up");
    if plan.workload == Workload::Warm {
        // The chain itself served requests.
        attempted += (plan.sessions * plan.requests * plan.setups) as u64;
    }
    let comp = component_sizes(&system.wpg);
    let n = system.points.len();

    let mut nominal: Vec<ServeReport> = Vec::new();
    let mut caps: Vec<(f64, f64)> = Vec::new();
    for i in 0..plan.sessions {
        let s = Plan::session_seed(seed, i);
        let doomed = doomed_hosts(plan, s, n, &comp);
        let r = session(plan, s, plan.rate, &system, checkpoint.clone()).report;
        failed += check_report(&r, doomed, &format!("seed {s} nominal"), &mut gates);
        attempted += r.requests as u64;
        if plan.workload == Workload::Warm {
            gates.check(r.reuse_rate == Some(1.0), || {
                format!("seed {s}: warm session reuse {:?} != 1.0", r.reuse_rate)
            });
        }
        if !traced {
            let (d, f) = cal
                .around(|| session(plan, s, plan::DRAIN_RATE, &system, checkpoint.clone()).report);
            failed += check_report(&d, doomed, &format!("seed {s} drain"), &mut gates);
            attempted += d.requests as u64;
            gates.check(
                d.answers_digest == r.answers_digest
                    && (d.served, d.failed, d.reused) == (r.served, r.failed, r.reused),
                || format!("seed {s}: capacity drain and nominal session disagree"),
            );
            caps.push((d.sustained_rps, f));
        }
        nominal.push(r);
    }
    let served: usize = nominal.iter().map(|r| r.served).sum();
    let reused: usize = nominal.iter().map(|r| r.reused).sum();
    if plan.workload != Workload::Warm {
        gates.check(ratio(reused as f64, served as f64) < 0.5, || {
            format!("cold-start workload reused {reused} of {served} served requests")
        });
    }

    // Audited serial replays of every session. A traced run replays each
    // session twice, untraced and traced in alternating order, so the
    // tracing overhead compares like with like.
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(traced);
    nela_obs::reset();
    let (mut off_s, mut on_s) = (0.0, 0.0);
    let mut audited: Vec<(Replay, f64)> = Vec::new();
    let mut traced_recs: Vec<Vec<ReqRec>> = Vec::new();
    for (i, r) in nominal.iter().enumerate() {
        let s = Plan::session_seed(seed, i);
        let passes: &[bool] = match (traced, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &on in passes {
            if on {
                nela_obs::enable();
            }
            let t = if on { &mut tracer } else { &mut off };
            let (rep, f) = cal.around(|| {
                replay(
                    plan,
                    &system,
                    s,
                    checkpoint.clone(),
                    &comp,
                    t,
                    i as u32,
                    &mut gates,
                )
            });
            nela_obs::disable();
            attempted += rep.recs.len() as u64;
            failed += rep.unjustified as u64;
            gates.check(
                rep.digest == r.answers_digest && (rep.served, rep.refused) == (r.served, r.failed),
                || format!("seed {s}: serial replay disagrees with the served session"),
            );
            if on {
                on_s += rep.wall_s;
                traced_recs.push(rep.recs);
            } else {
                off_s += rep.wall_s;
                audited.push((rep, f));
            }
        }
    }

    if !traced {
        let requests: usize = nominal.iter().map(|r| r.requests).sum();
        let transfer: f64 = nominal
            .iter()
            .map(|r| r.mean_transfer_units.unwrap_or(0.0) * r.served as f64)
            .sum();
        let replay_served: usize = audited.iter().map(|(r, _)| r.served).sum();
        let audited_ok: usize = audited.iter().map(|(r, _)| r.audited_ok).sum();
        let answer_p50: Vec<(f64, f64)> = audited
            .iter()
            .map(|(r, f)| (percentile(&pipeline::answer_us(&r.recs), 0.50), *f))
            .collect();
        report.set_scaled("setup_s", &setup_s, plan.setups);
        report.set_scaled("capacity_rps", &caps, caps.len());
        report.set_scaled("answer_us_p50", &answer_p50, replay_served);
        report.set(
            "served_frac",
            ratio(served as f64, requests as f64),
            requests,
        );
        report.set(
            "transfer_units_mean",
            ratio(transfer, served as f64),
            served,
        );
        report.set(
            "valid_frac",
            ratio(audited_ok as f64, replay_served as f64),
            replay_served,
        );
    } else {
        serve_row(&mut report, &nominal);
        netsim_row(&mut report, &nominal);
        let obs = nela_obs::snapshot();
        pipeline::request_layers(&mut report, &traced_recs, &obs);
        if plan.workload == Workload::Netsim {
            let radio: Vec<f64> = traced_recs
                .iter()
                .flatten()
                .map(|r| r.virtual_s * 1e3)
                .collect();
            report.set(
                "netsim.virtual_ms_p50",
                percentile(&radio, 0.50),
                radio.len(),
            );
            report.set(
                "netsim.virtual_ms_p99",
                percentile(&radio, 0.99),
                radio.len(),
            );
        }
        report.set("trace.overhead_frac", on_s / off_s - 1.0, 2 * nominal.len());
        println!(
            "-- self time of the traced replay ({} sessions)",
            nominal.len()
        );
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
        threads: 2,
    }
}

/// The serve row: medians over the nominal sessions of their reports.
fn serve_row(report: &mut Report, nominal: &[ServeReport]) {
    let k = nominal.len();
    let us = |v: Option<u64>| v.map_or(0.0, |v| v as f64 / 1e3);
    let med = |f: &dyn Fn(&ServeReport) -> f64| median(&nominal.iter().map(f).collect::<Vec<_>>());
    let served: usize = nominal.iter().map(|r| r.served).sum();
    let admitted: usize = nominal.iter().map(|r| r.admitted).sum();
    let requests: usize = nominal.iter().map(|r| r.requests).sum();
    report.set("serve.e2e_p50_us", med(&|r| us(r.e2e.p50_ns)), served);
    report.set("serve.e2e_p99_us", med(&|r| us(r.e2e.p99_ns)), served);
    report.set(
        "serve.queue_wait_us_p50",
        med(&|r| us(r.queue_wait.p50_ns)),
        admitted,
    );
    report.set(
        "serve.queue_wait_us_p99",
        med(&|r| us(r.queue_wait.p99_ns)),
        admitted,
    );
    report.set(
        "serve.max_queue_depth",
        med(&|r| r.max_queue_depth as f64),
        k,
    );
    let mean = |s: &nela_serve::StageStats| s.mean_ns.unwrap_or(0.0) / 1e3;
    report.set(
        "serve.residual_us_mean",
        med(&|r| {
            mean(&r.e2e) - (mean(&r.queue_wait) + mean(&r.cloak) + mean(&r.lbs) + mean(&r.refine))
        }),
        served,
    );
    let shed: usize = nominal.iter().map(|r| r.shed).sum();
    let expired: usize = nominal.iter().map(|r| r.expired).sum();
    report.set(
        "serve.shed_frac",
        ratio(shed as f64, requests as f64),
        requests,
    );
    report.set(
        "serve.expired_frac",
        ratio(expired as f64, admitted as f64),
        admitted,
    );
}

/// The netsim row's session totals (0 samples in-process).
fn netsim_row(report: &mut Report, nominal: &[ServeReport]) {
    let nets: Vec<_> = nominal.iter().filter_map(|r| r.net.as_ref()).collect();
    if nets.is_empty() {
        return;
    }
    let admitted: usize = nominal.iter().map(|r| r.admitted).sum();
    let per_req = |f: fn(&nela_serve::NetReport) -> f64| {
        ratio(nets.iter().map(|n| f(n)).sum(), admitted as f64)
    };
    report.set(
        "netsim.radio_ms_mean",
        per_req(|n| n.virtual_s * 1e3),
        admitted,
    );
    report.set(
        "netsim.transmissions_per_req",
        per_req(|n| n.transmissions as f64),
        admitted,
    );
    report.set(
        "netsim.retransmits_per_req",
        per_req(|n| n.retransmits as f64),
        admitted,
    );
    report.set(
        "netsim.timeouts_per_req",
        per_req(|n| n.timeouts as f64),
        admitted,
    );
    let rpcs_failed: u64 = nets.iter().map(|n| n.rpcs_failed).sum();
    let rpcs: u64 = nets.iter().map(|n| n.rpcs_ok + n.rpcs_failed).sum();
    report.set(
        "netsim.rpc_fail_frac",
        ratio(rpcs_failed as f64, rpcs as f64),
        rpcs as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela::wpg::Edge;

    #[test]
    fn component_sizes_follow_edges() {
        let g = Wpg::from_edges(
            5,
            &[Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(3, 4, 2)],
        );
        assert_eq!(component_sizes(&g), vec![3, 3, 3, 2, 2]);
    }
}
