//! The serving-session report: backpressure accounting, sustained
//! throughput, and exact per-stage latency distributions.
//!
//! Stage latencies here are computed from the raw per-request samples
//! (nearest-rank percentiles over the sorted values), not from the log₂
//! `nela-obs` histograms — the obs snapshot is the always-on production
//! view, this report is the measurement harness, and keeping the two
//! independent means each can validate the other.

use serde::Serialize;

/// Exact latency summary of one pipeline stage, in nanoseconds.
///
/// Every statistic is `Option`: a stage with no samples has no percentiles,
/// and fabricating `0` would read as "this stage was instantaneous" in a
/// report (deadline-heavy runs legitimately serve nothing, so empty stages
/// occur in practice). Empty stages render as `n/a` in text and `null` in
/// JSON.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StageStats {
    /// Samples recorded.
    pub count: usize,
    /// Arithmetic mean, `None` when no sample was recorded.
    pub mean_ns: Option<f64>,
    /// Nearest-rank median, `None` when no sample was recorded.
    pub p50_ns: Option<u64>,
    /// 95th percentile.
    pub p95_ns: Option<u64>,
    /// 99th percentile.
    pub p99_ns: Option<u64>,
    /// Largest sample.
    pub max_ns: Option<u64>,
}

impl StageStats {
    /// Summarizes a sample set (consumed: the samples are sorted in place).
    pub fn from_samples(mut samples: Vec<u64>) -> StageStats {
        if samples.is_empty() {
            return StageStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        StageStats {
            count: n,
            mean_ns: Some(samples.iter().sum::<u64>() as f64 / n as f64),
            p50_ns: Some(rank(0.50)),
            p95_ns: Some(rank(0.95)),
            p99_ns: Some(rank(0.99)),
            max_ns: Some(samples[n - 1]),
        }
    }
}

/// Everything one serving session measured.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Population size served.
    pub population: usize,
    /// Worker threads.
    pub workers: usize,
    /// Registry shards used by the cloaking session.
    pub shards: usize,
    /// Message transport of the cloaking protocols (`"in-process"` or
    /// `"netsim"`).
    pub transport: String,
    /// Offered load (requests per second of the arrival process).
    pub offered_rps: f64,
    /// Scheduled arrivals.
    pub requests: usize,
    /// Arrivals admitted into the queue.
    pub admitted: usize,
    /// Arrivals shed because the queue was full.
    pub shed: usize,
    /// Admitted requests answered end to end.
    pub served: usize,
    /// Admitted requests whose cloaking leg failed (typed engine error).
    pub failed: usize,
    /// Admitted requests dropped because their deadline passed in queue.
    pub expired: usize,
    /// Served requests answered from an already-bounded cluster region
    /// (no clustering, no bounding — the reuse fast path).
    pub reused: usize,
    /// `reused / served`, `None` when nothing was served.
    pub reuse_rate: Option<f64>,
    /// Clusters re-published from a previous session's checkpoint (0 for
    /// cold sessions).
    pub carried_clusters: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Wall-clock from session start to the last completion, in seconds.
    pub wall_s: f64,
    /// Served requests per wall-clock second.
    pub sustained_rps: f64,
    /// End-to-end latency (admission → refined answer).
    pub e2e: StageStats,
    /// Queue wait (admission → worker pickup).
    pub queue_wait: StageStats,
    /// Cloaking leg (clustering + secure bounding, retries included).
    pub cloak: StageStats,
    /// LBS leg (`LbsServer::handle` over the cloaked region).
    pub lbs: StageStats,
    /// Client-side refinement leg.
    pub refine: StageStats,
    /// Mean candidate POIs per served query, `None` when nothing was served.
    pub mean_candidates: Option<f64>,
    /// Mean transfer units per served query (the paper's service-request
    /// cost), `None` when nothing was served.
    pub mean_transfer_units: Option<f64>,
    /// Network totals when the transport is netsim, `None` in-process.
    pub net: Option<nela::SessionNetStats>,
    /// Order-independent digest of every served request's refined answer
    /// set — two runs of the same single-worker config must agree exactly
    /// (the replay contract).
    pub answers_digest: u64,
}

/// FNV-1a over one request's id and refined answer ids. Per-request hashes
/// are XOR-combined into [`ServeReport::answers_digest`], so the digest is
/// independent of worker interleaving.
pub fn answer_hash(id: u32, answer: &[u32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(id);
    eat(answer.len() as u32);
    for &a in answer {
        eat(a);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stage_has_no_statistics_at_all() {
        let s = StageStats::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ns, None);
        // The old behaviour fabricated 0 here — an empty stage must not
        // masquerade as an instantaneous one.
        assert_eq!(
            (s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns),
            (None, None, None, None)
        );
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains("\"p50_ns\":null"),
            "empty stage must serialize null, got {json}"
        );
        assert!(json.contains("\"max_ns\":null"));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = StageStats::from_samples(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, Some(50));
        assert_eq!(s.p95_ns, Some(95));
        assert_eq!(s.p99_ns, Some(99));
        assert_eq!(s.max_ns, Some(100));
        assert_eq!(s.mean_ns, Some(50.5));
        let one = StageStats::from_samples(vec![42]);
        assert_eq!(
            (one.p50_ns, one.p99_ns, one.max_ns),
            (Some(42), Some(42), Some(42))
        );
    }

    #[test]
    fn answer_hash_separates_requests_and_answers() {
        assert_ne!(answer_hash(1, &[2, 3]), answer_hash(2, &[2, 3]));
        assert_ne!(answer_hash(1, &[2, 3]), answer_hash(1, &[3, 2]));
        assert_ne!(answer_hash(1, &[]), answer_hash(1, &[0]));
        assert_eq!(answer_hash(9, &[7]), answer_hash(9, &[7]));
    }
}
