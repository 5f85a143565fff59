//! Workloads and how much work one run does.
//!
//! Every run sizes its work from `--seconds` with fixed per-unit costs
//! (a nominal session lasts `requests / rate` seconds of real time by
//! construction; the other costs were measured on a 2-core x86-64 sandbox),
//! never from a clock reading, so a run's inputs are a function of its
//! flags and seed alone.

use nela::netsim::NetworkConfig;
use nela::Params;
use nela_serve::QueryMix;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold sessions: empty registry, open-loop Poisson at 1000 req/s.
    Cold,
    /// Sessions resumed from a warmed checkpoint chain at 2000 req/s.
    Warm,
    /// `Cold` over the simulated radio with 5% loss.
    Netsim,
    /// `run_continuous` over a moving population.
    Mobility,
}

pub const ALL: [Workload; 4] = [
    Workload::Cold,
    Workload::Warm,
    Workload::Netsim,
    Workload::Mobility,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Netsim => "netsim",
            Workload::Mobility => "mobility",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Population of every full run — close to the paper's 104,770 users.
const POPULATION: usize = 100_000;
const SMOKE_POPULATION: usize = 5_000;
/// Requests per serving session: at ~86% served, over 3000 served requests,
/// so 30 samples lie beyond each session's p99.
const REQUESTS: usize = 4_000;
const SMOKE_REQUESTS: usize = 400;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Per-session cost used for sizing: the nominal session's real-time length
/// plus a capacity drain and an audited replay (cold and netsim serve
/// ~4k req/s back to back, warm ~9k req/s). Warm also re-runs its checkpoint
/// chain, one drain per session, in each of its set-ups.
const COLD_SESSION_S: f64 = 4.0 + 1.0 + 1.2;
const WARM_SESSION_S: f64 = 2.0 + 0.45 + 0.5 + SETUPS as f64 * 0.45;
/// One incremental tick at 100k users with 10% movers costs ~0.12 s; a run
/// replays each tick two or three times (driver, replica, traced replica).
const TICKS_PER_SECOND: u64 = 3;
const SMOKE_TICKS: usize = 4;

/// Offered loads of the nominal-rate sessions.
const COLD_RATE: f64 = 1_000.0;
const WARM_RATE: f64 = 2_000.0;
/// Offered load of a capacity drain: the whole session is due at t = 0.
pub const DRAIN_RATE: f64 = 1e12;

/// The query mix every serving workload issues.
pub const QUERY: QueryMix = QueryMix::Mixed {
    radius: 0.02,
    k: 5,
    range_frac: 0.5,
};

/// The lossy radio of the `netsim` workload (fixed net seed: the workload
/// seed varies the requests, not the channel).
pub fn netsim_config() -> NetworkConfig {
    NetworkConfig {
        loss: 0.05,
        seed: 7,
        ..NetworkConfig::default()
    }
}

/// Mobility: ~90% of users stationary, so ~10k movers per tick at 100k.
pub const STATIONARY: f64 = 0.9;
/// Mean cloaking requests per tick.
pub const TICK_RATE: f64 = 50.0;

#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub params: Params,
    pub setups: usize,
    /// Serving sessions (seeds S, S+1, ...); 1 for mobility.
    pub sessions: usize,
    pub requests: usize,
    pub rate: f64,
    pub ticks: usize,
}

impl Plan {
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Plan {
        let secs = seconds as f64;
        let sessions = |per_session: f64| {
            if smoke {
                1
            } else {
                ((secs / per_session).floor() as usize).max(1)
            }
        };
        let (sessions, rate) = match workload {
            Workload::Cold | Workload::Netsim => (sessions(COLD_SESSION_S), COLD_RATE),
            Workload::Warm => (sessions(WARM_SESSION_S), WARM_RATE),
            Workload::Mobility => (1, TICK_RATE),
        };
        let ticks = if smoke {
            SMOKE_TICKS
        } else {
            ((seconds * TICKS_PER_SECOND) as usize).max(2)
        };
        Plan {
            workload,
            params: Params::scaled(if smoke { SMOKE_POPULATION } else { POPULATION }),
            setups: SETUPS,
            sessions,
            requests: if smoke { SMOKE_REQUESTS } else { REQUESTS },
            rate,
            ticks,
        }
    }

    /// Seed of session `i` of a run started with `seed`.
    pub fn session_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add(i as u64)
    }

    /// The sizing knobs, for the provenance block.
    pub fn knobs(&self) -> Vec<(&'static str, String)> {
        let mut k = vec![
            ("population", self.params.n_users.to_string()),
            ("k", self.params.k.to_string()),
            ("setups", self.setups.to_string()),
        ];
        match self.workload {
            Workload::Mobility => {
                k.push(("ticks", self.ticks.to_string()));
                k.push(("requests_per_tick", self.rate.to_string()));
                k.push(("stationary", STATIONARY.to_string()));
            }
            _ => {
                k.push(("sessions", self.sessions.to_string()));
                k.push(("requests", self.requests.to_string()));
                k.push(("rate", self.rate.to_string()));
                k.push(("query", format!("{QUERY:?}")));
            }
        }
        if self.workload == Workload::Netsim {
            k.push(("net", format!("{:?}", netsim_config())));
        }
        k
    }
}
