//! Virtual-time point-to-point network with loss, latency and crashes.
//!
//! Protocol interactions in NELA are strictly request/reply (a host asks a
//! peer for its adjacency list, or asks "is your ξ ≤ X?"). The network
//! therefore exposes a blocking [`Network::rpc`] that advances a virtual
//! clock by the sampled latencies, loses each transmission independently
//! with probability `loss`, retransmits up to `max_retries` times, and fails
//! permanently against crashed peers. Every transmission — including lost
//! ones and unanswered requests to dead peers — is counted in
//! [`NetworkStats`]: radios spend energy regardless of delivery.

use nela_geo::UserId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One-way latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed base latency (virtual seconds).
    pub base: f64,
    /// Uniform jitter added on top: `U(0, jitter)`.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // 10 ms base, up to 5 ms jitter — typical short-range radio.
        LatencyModel {
            base: 0.010,
            jitter: 0.005,
        }
    }
}

/// A rejected configuration value: which field, what it held, and what it
/// must satisfy. Returned by the `validate()` entry points instead of
/// panicking mid-run, so callers can surface bad configs as ordinary errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// The offending field, e.g. `"loss"` or `"beacon_loss"`.
    pub field: &'static str,
    /// The rejected value (integer fields are widened to f64).
    pub value: f64,
    /// What the field must satisfy, e.g. `"in [0, 1)"`.
    pub requirement: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} = {}: must be {}",
            self.field, self.value, self.requirement
        )
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    pub(crate) fn new(field: &'static str, value: f64, requirement: &'static str) -> Self {
        ConfigError {
            field,
            value,
            requirement,
        }
    }
}

/// Network configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Probability each individual transmission is lost.
    pub loss: f64,
    /// Retransmissions after the first attempt before giving up.
    pub max_retries: u32,
    /// Timeout charged to the clock per lost round-trip.
    pub timeout: f64,
    /// Latency model.
    pub latency: LatencyModel,
    /// RNG seed (loss and jitter are reproducible).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            loss: 0.0,
            max_retries: 3,
            timeout: 0.1,
            latency: LatencyModel::default(),
            seed: 0,
        }
    }
}

impl NetworkConfig {
    /// Checks every field against its domain. [`Network::new`] calls this,
    /// so a malformed config is rejected at construction with a typed error
    /// instead of silently mis-simulating (`loss = 1.5` used to drop every
    /// packet; a negative `timeout` ran the clock backwards).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.loss) {
            return Err(ConfigError::new("loss", self.loss, "in [0, 1)"));
        }
        if !self.timeout.is_finite() || self.timeout < 0.0 {
            return Err(ConfigError::new("timeout", self.timeout, "finite and >= 0"));
        }
        if !self.latency.base.is_finite() || self.latency.base < 0.0 {
            return Err(ConfigError::new(
                "latency.base",
                self.latency.base,
                "finite and >= 0",
            ));
        }
        if !self.latency.jitter.is_finite() || self.latency.jitter < 0.0 {
            return Err(ConfigError::new(
                "latency.jitter",
                self.latency.jitter,
                "finite and >= 0",
            ));
        }
        Ok(())
    }
}

/// Message and timing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Transmissions put on the air (requests + replies, incl. lost ones).
    pub transmissions: u64,
    /// Completed request/reply exchanges.
    pub rpcs_ok: u64,
    /// RPCs abandoned after all retries.
    pub rpcs_failed: u64,
    /// Transmissions that were lost.
    pub lost: u64,
    /// RPC attempts beyond the first, scoped to this network instance:
    /// per-request aggregation needs the local view, and
    /// [`NetworkStats::record`] adds it to the process-global
    /// `net.rpc.retransmits` once the network is done.
    pub retransmits: u64,
    /// Timeouts charged for lost transmissions (request or reply leg).
    pub timeouts: u64,
}

impl NetworkStats {
    /// Adds these totals to the recorder's `net.rpc.{ok,failed,
    /// retransmits,timeouts}` counters (no-op while it is disabled). A
    /// network's owner calls it once, when done with the network:
    /// [`Network::rpc`] adds nothing itself, because each add looks its
    /// counter up by name, a cost a traced lossy session would pay on
    /// every transmission. A zero total adds nothing, so an untouched
    /// counter stays absent.
    pub fn record(&self) {
        use nela_obs::counter::{RPC_FAILED, RPC_OK, RPC_RETRANSMITS, RPC_TIMEOUTS};
        if !nela_obs::enabled() {
            return;
        }
        for (name, total) in [
            (RPC_OK, self.rpcs_ok),
            (RPC_FAILED, self.rpcs_failed),
            (RPC_RETRANSMITS, self.retransmits),
            (RPC_TIMEOUTS, self.timeouts),
        ] {
            if total > 0 {
                nela_obs::add(name, total);
            }
        }
    }
}

/// Why an RPC failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The destination peer has crashed.
    PeerDown(UserId),
    /// Every attempt (original + retries) lost a message.
    RetriesExhausted(UserId),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::PeerDown(p) => write!(f, "peer {p} is down"),
            RpcError::RetriesExhausted(p) => write!(f, "retries exhausted contacting peer {p}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// The simulated network.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    rng: ChaCha8Rng,
    clock: f64,
    down: std::collections::HashSet<UserId>,
    stats: NetworkStats,
}

impl Network {
    /// Creates a network with the given configuration.
    ///
    /// # Errors
    /// [`ConfigError`] when any field is outside its domain (see
    /// [`NetworkConfig::validate`]).
    pub fn new(cfg: NetworkConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Network {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cfg,
            clock: 0.0,
            down: std::collections::HashSet::new(),
            stats: NetworkStats::default(),
        })
    }

    /// A lossless, crash-free network (analysis parity).
    pub fn reliable() -> Self {
        Network::new(NetworkConfig::default()).expect("default config is valid")
    }

    /// A fresh network sharing this one's (already validated) configuration
    /// and crash set, but reseeded and with clock and counters zeroed.
    /// Serving sessions derive one network per request this way — the seed
    /// mixes in the request identity, so loss and latency outcomes depend
    /// only on the request, never on worker interleaving.
    pub fn with_seed(&self, seed: u64) -> Network {
        let mut cfg = self.cfg;
        cfg.seed = seed;
        Network {
            rng: ChaCha8Rng::seed_from_u64(seed),
            cfg,
            clock: 0.0,
            down: self.down.clone(),
            stats: NetworkStats::default(),
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Marks a peer as crashed; subsequent RPCs to it fail after the full
    /// retry budget (the caller cannot distinguish a crash from loss).
    pub fn crash_peer(&mut self, peer: UserId) {
        self.down.insert(peer);
    }

    fn one_way_latency(&mut self) -> f64 {
        self.cfg.latency.base + self.rng.gen::<f64>() * self.cfg.latency.jitter
    }

    /// Executes a blocking request/reply exchange from `from` to `to`.
    /// On success the clock has advanced by the attempt latencies; on
    /// failure by the full retry budget's timeouts.
    pub fn rpc(&mut self, _from: UserId, to: UserId) -> Result<(), RpcError> {
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                self.stats.retransmits += 1;
            }
            // Request leg.
            self.stats.transmissions += 1;
            let request_lost = self.rng.gen::<f64>() < self.cfg.loss || self.down.contains(&to);
            if request_lost {
                self.stats.lost += 1;
                self.stats.timeouts += 1;
                self.clock += self.cfg.timeout;
                continue;
            }
            self.clock += self.one_way_latency();
            // Reply leg.
            self.stats.transmissions += 1;
            let reply_lost = self.rng.gen::<f64>() < self.cfg.loss;
            if reply_lost {
                self.stats.lost += 1;
                self.stats.timeouts += 1;
                self.clock += self.cfg.timeout;
                continue;
            }
            self.clock += self.one_way_latency();
            self.stats.rpcs_ok += 1;
            return Ok(());
        }
        self.stats.rpcs_failed += 1;
        if self.down.contains(&to) {
            Err(RpcError::PeerDown(to))
        } else {
            Err(RpcError::RetriesExhausted(to))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_rpc_always_succeeds_and_advances_clock() {
        let mut net = Network::reliable();
        for _ in 0..10 {
            net.rpc(0, 1).unwrap();
        }
        assert_eq!(net.stats().rpcs_ok, 10);
        assert_eq!(net.stats().transmissions, 20);
        assert_eq!(net.stats().lost, 0);
        assert!(net.now() >= 10.0 * 2.0 * 0.010);
    }

    #[test]
    fn crashed_peer_fails_after_retries() {
        let mut net = Network::reliable();
        net.crash_peer(7);
        let err = net.rpc(0, 7).unwrap_err();
        assert_eq!(err, RpcError::PeerDown(7));
        // 1 original + 3 retries, each one request transmission.
        assert_eq!(net.stats().transmissions, 4);
        assert_eq!(net.stats().rpcs_failed, 1);
    }

    #[test]
    fn lossy_network_still_mostly_delivers_with_retries() {
        let mut net = Network::new(NetworkConfig {
            loss: 0.2,
            max_retries: 5,
            seed: 42,
            ..Default::default()
        })
        .unwrap();
        let mut ok = 0;
        for i in 0..200 {
            if net.rpc(0, (i % 10) + 1).is_ok() {
                ok += 1;
            }
        }
        // P(all 6 attempts fail) = (1−0.8²)^6 ≈ 2e-3 per RPC.
        assert!(ok >= 197, "only {ok}/200 RPCs succeeded");
        assert!(net.stats().lost > 0, "loss never triggered at 20%");
    }

    #[test]
    fn loss_accounting_is_consistent() {
        let mut net = Network::new(NetworkConfig {
            loss: 0.5,
            max_retries: 2,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..50 {
            let _ = net.rpc(0, 1);
        }
        let s = net.stats();
        assert_eq!(s.rpcs_ok + s.rpcs_failed, 50);
        assert!(s.lost > 0 && s.lost < s.transmissions);
        // Every loss is charged exactly one timeout, and every loss except a
        // failed RPC's final one triggers a retransmission.
        assert_eq!(s.timeouts, s.lost);
        assert_eq!(s.retransmits, s.lost - s.rpcs_failed);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = Network::new(NetworkConfig {
                loss: 0.3,
                seed,
                ..Default::default()
            })
            .unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(net.rpc(0, 1).is_ok());
            }
            (outcomes, net.now())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn rejects_malformed_configs_with_typed_errors() {
        let err = Network::new(NetworkConfig {
            loss: 1.0,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "loss");
        assert_eq!(err.to_string(), "invalid loss = 1: must be in [0, 1)");

        let err = Network::new(NetworkConfig {
            loss: -0.1,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "loss");

        let err = Network::new(NetworkConfig {
            timeout: -1.0,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "timeout");

        let err = Network::new(NetworkConfig {
            timeout: f64::NAN,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "timeout");

        let err = Network::new(NetworkConfig {
            latency: LatencyModel {
                base: f64::INFINITY,
                jitter: 0.0,
            },
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "latency.base");

        let err = Network::new(NetworkConfig {
            latency: LatencyModel {
                base: 0.01,
                jitter: -0.5,
            },
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.field, "latency.jitter");

        // The boundary values are accepted.
        assert!(NetworkConfig {
            loss: 0.0,
            timeout: 0.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }
}
