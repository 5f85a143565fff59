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

/// Multiply chains [`answer_hash`] reads an answer into: the id at position
/// `i` goes to lane `i % LANES`, so the lanes' multiplies overlap instead of
/// each waiting on the one before.
const LANES: usize = 4;

/// ⌊2⁶⁴/φ⌋: odd, so multiplying by it is a bijection, with well-spread bits.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds `word` into `lane`. Each of the three operations is a bijection of
/// the lane, so a changed word always changes the lane; the rotation brings
/// the product's high bits back down for the next step.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(GOLDEN).rotate_left(23)
}

/// The SplitMix64 finalizer: every input bit flips each output bit with
/// probability about ½, so XORs of per-request hashes stay uniform.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of one request's id and refined answer ids, read a whole id at a
/// time into four independent chains seeded with the request id and the
/// answer's length, then folded in lane order and finished with the
/// SplitMix64 finalizer. It depends on the id, the length and the order of
/// the answer. Per-request hashes are XOR-combined into
/// [`ServeReport::answers_digest`], so the digest is independent of worker
/// interleaving. It checks replay equality and is no commitment: nothing
/// stops a deliberate collision.
pub fn answer_hash(id: u32, answer: &[u32]) -> u64 {
    let seed = (u64::from(id) << 32) ^ answer.len() as u64;
    let mut lanes: [u64; LANES] =
        std::array::from_fn(|i| seed.wrapping_add(GOLDEN.wrapping_mul(i as u64)));
    let mut words = answer.chunks_exact(LANES);
    for chunk in &mut words {
        for (lane, &w) in lanes.iter_mut().zip(chunk) {
            *lane = absorb(*lane, u64::from(w));
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(words.remainder()) {
        *lane = absorb(*lane, u64::from(w));
    }
    avalanche(lanes.iter().fold(0, |h, &lane| absorb(h, lane)))
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

    /// Pinned values: a change here changes every `answers_digest`, so
    /// `results/serve_answers.json` must be re-pinned with it.
    #[test]
    fn answer_hash_known_answers() {
        let long: Vec<u32> = (0..510).map(|i| i * 37).collect();
        assert_eq!(answer_hash(1, &[]), 0xcd0e_c267_a90e_5b7d);
        assert_eq!(answer_hash(1, &[4_242]), 0xd507_318f_14e5_171d);
        assert_eq!(answer_hash(1, &long), 0x2d10_3183_449a_e14e);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Every edit a replay could make to one answer changes its hash:
        /// swapping two distinct ids (in the same lane or not), dropping or
        /// appending one, or serving it under another request id.
        #[test]
        fn answer_hash_sees_every_edit(
            id in 0u32..u32::MAX,
            answer in proptest::collection::vec(0u32..1 << 18, 2..600),
            picks in (0usize..600, 0usize..600),
            extra in 0u32..1 << 18,
        ) {
            let h = answer_hash(id, &answer);
            let (i, j) = (picks.0 % answer.len(), picks.1 % answer.len());
            if answer[i] != answer[j] {
                let mut swapped = answer.clone();
                swapped.swap(i, j);
                proptest::prop_assert_ne!(answer_hash(id, &swapped), h);
            }
            let mut dropped = answer.clone();
            dropped.remove(i);
            proptest::prop_assert_ne!(answer_hash(id, &dropped), h);
            let mut appended = answer.clone();
            appended.push(extra);
            proptest::prop_assert_ne!(answer_hash(id, &appended), h);
            proptest::prop_assert_ne!(answer_hash(id.wrapping_add(1 + extra), &answer), h);
        }

        /// The session digest is an XOR of per-request hashes, so it does
        /// not depend on the order workers finish in.
        #[test]
        fn session_digest_ignores_request_order(
            answers in proptest::collection::vec(
                proptest::collection::vec(0u32..1 << 18, 0..40),
                1..30,
            ),
            rotate in 0usize..30,
        ) {
            let digest = |order: &[(u32, &Vec<u32>)]| {
                order.iter().fold(0, |d, &(id, a)| d ^ answer_hash(id, a))
            };
            let requests: Vec<(u32, &Vec<u32>)> = (0..).zip(&answers).collect();
            let mut reordered = requests.clone();
            reordered.reverse();
            reordered.rotate_left(rotate % requests.len());
            proptest::prop_assert_eq!(digest(&reordered), digest(&requests));
        }
    }
}
