//! Received-signal-strength models.
//!
//! The clustering algorithms never consume coordinates — only each device's
//! *ranking* of its peers by RSS. Any RSS model that is strictly decreasing
//! in distance therefore yields the exact proximity semantics the paper
//! assumes (§VI: "a simple RSS model that is reversely correlated to the
//! distance"). The noisy log-distance model additionally exercises rank
//! inversions caused by shadowing, which real WiFi measurements exhibit
//! (paper Fig. 1).

use nela_geo::{Point, UserId};

/// A model mapping a transmitter/receiver pair to a signal strength.
/// Larger return values mean *stronger* signal (closer peer).
///
/// `Sync` is a supertrait so WPG builds can score users from multiple
/// threads ([`crate::builder::WpgBuilder::build_with_index_threads`]);
/// models are immutable parameter bundles, so this costs implementors
/// nothing.
pub trait RssModel: Sync {
    /// Signal strength measured at `receiver` for a beacon from `sender`.
    ///
    /// The ids are provided so noisy models can derive deterministic per-pair
    /// fading; pure-distance models ignore them.
    fn rss(&self, receiver_id: UserId, receiver: Point, sender_id: UserId, sender: Point) -> f64;

    /// [`RssModel::rss`] with the squared receiver→sender distance already
    /// in hand. The grid's δ-range scan computes `receiver.dist_sq(&sender)`
    /// as a byproduct, so the WPG rank pass calls this to spare
    /// distance-driven models the recomputation.
    ///
    /// Overrides **must** return a value bit-identical to `rss` for
    /// `dist_sq == receiver.dist_sq(&sender)` — the serial/threaded
    /// equivalence contract of the builders depends on it. The default
    /// ignores the hint and delegates.
    #[inline]
    fn rss_from_dist_sq(
        &self,
        receiver_id: UserId,
        receiver: Point,
        sender_id: UserId,
        sender: Point,
        dist_sq: f64,
    ) -> f64 {
        let _ = dist_sq;
        self.rss(receiver_id, receiver, sender_id, sender)
    }
}

/// The paper's evaluation model: strength strictly decreasing in distance,
/// no noise. Implemented as `-distance` — any strictly decreasing transform
/// produces identical rankings, so the simplest one is used.
#[derive(Debug, Clone, Copy, Default)]
pub struct InverseDistanceRss;

impl RssModel for InverseDistanceRss {
    #[inline]
    fn rss(&self, _rid: UserId, receiver: Point, _sid: UserId, sender: Point) -> f64 {
        -receiver.dist(&sender)
    }

    #[inline]
    fn rss_from_dist_sq(
        &self,
        _rid: UserId,
        _receiver: Point,
        _sid: UserId,
        _sender: Point,
        dist_sq: f64,
    ) -> f64 {
        // `Point::dist` is defined as `dist_sq().sqrt()`, so this is the
        // same IEEE operation sequence as `rss` — bit-identical.
        -dist_sq.sqrt()
    }
}

/// Log-distance path-loss with deterministic per-pair shadowing noise:
///
/// `rss(d) = -10·n·log10(d/d0) + X(pair)`,  `X ~ N(0, σ²)` derived from a
/// hash of the (unordered) pair so both directions see the same fade and the
/// model stays reproducible without storing per-pair state.
#[derive(Debug, Clone, Copy)]
pub struct LogDistanceRss {
    /// Path-loss exponent (2 = free space, 3–4 = indoor/urban).
    pub path_loss_exp: f64,
    /// Shadowing standard deviation in dB.
    pub shadowing_db: f64,
    /// Reference distance `d0`.
    pub reference_dist: f64,
    /// Seed folded into the per-pair fade.
    pub seed: u64,
}

impl Default for LogDistanceRss {
    fn default() -> Self {
        LogDistanceRss {
            path_loss_exp: 3.0,
            shadowing_db: 2.0,
            reference_dist: 1e-4,
            seed: 0,
        }
    }
}

impl LogDistanceRss {
    /// Deterministic standard-normal-ish variate for an unordered id pair,
    /// via a SplitMix64 hash mapped through a 12-uniform-sum approximation.
    fn pair_fade(&self, a: UserId, b: UserId) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut z = self
            .seed
            .wrapping_add((lo as u64) << 32 | hi as u64)
            .wrapping_mul(0x9E3779B97F4A7C15);
        let mut sum = 0.0;
        // Irwin–Hall with n=12: sum of 12 U(0,1) minus 6 ≈ N(0,1).
        for _ in 0..12 {
            z ^= z >> 30;
            z = z.wrapping_mul(0xBF58476D1CE4E5B9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            sum += (z >> 11) as f64 / (1u64 << 53) as f64;
            z = z.wrapping_add(0x9E3779B97F4A7C15);
        }
        sum - 6.0
    }
}

impl RssModel for LogDistanceRss {
    fn rss(&self, rid: UserId, receiver: Point, sid: UserId, sender: Point) -> f64 {
        let d = receiver.dist(&sender).max(self.reference_dist);
        let path_loss = 10.0 * self.path_loss_exp * (d / self.reference_dist).log10();
        -path_loss + self.shadowing_db * self.pair_fade(rid, sid)
    }

    fn rss_from_dist_sq(
        &self,
        rid: UserId,
        _receiver: Point,
        sid: UserId,
        _sender: Point,
        dist_sq: f64,
    ) -> f64 {
        // Same operation sequence as `rss` with `receiver.dist(&sender)`
        // replaced by its definition `dist_sq.sqrt()` — bit-identical.
        let d = dist_sq.sqrt().max(self.reference_dist);
        let path_loss = 10.0 * self.path_loss_exp * (d / self.reference_dist).log10();
        -path_loss + self.shadowing_db * self.pair_fade(rid, sid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_distance_orders_by_distance() {
        let m = InverseDistanceRss;
        let me = Point::new(0.5, 0.5);
        let near = Point::new(0.5, 0.51);
        let far = Point::new(0.5, 0.6);
        assert!(m.rss(0, me, 1, near) > m.rss(0, me, 2, far));
    }

    #[test]
    fn inverse_distance_is_symmetric() {
        let m = InverseDistanceRss;
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.4, 0.9);
        assert_eq!(m.rss(0, a, 1, b), m.rss(1, b, 0, a));
    }

    #[test]
    fn log_distance_fade_is_pair_symmetric() {
        let m = LogDistanceRss::default();
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.4, 0.9);
        // Same unordered pair → same fade → same RSS both directions
        // (distance part is symmetric too).
        assert_eq!(m.rss(3, a, 9, b), m.rss(9, b, 3, a));
    }

    #[test]
    fn log_distance_monotone_without_noise() {
        let m = LogDistanceRss {
            shadowing_db: 0.0,
            ..Default::default()
        };
        let me = Point::new(0.5, 0.5);
        let near = Point::new(0.5, 0.502);
        let far = Point::new(0.5, 0.53);
        assert!(m.rss(0, me, 1, near) > m.rss(0, me, 2, far));
    }

    #[test]
    fn log_distance_noise_depends_on_pair_and_seed() {
        let m1 = LogDistanceRss::default();
        let m2 = LogDistanceRss {
            seed: 99,
            ..Default::default()
        };
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.4, 0.9);
        assert_ne!(m1.rss(0, a, 1, b), m2.rss(0, a, 1, b));
        assert_ne!(m1.pair_fade(0, 1), m1.pair_fade(0, 2));
    }

    #[test]
    fn dist_sq_fast_path_is_bit_identical() {
        // The rank pass feeds the grid's precomputed squared distance into
        // `rss_from_dist_sq`; both built-in models must reproduce `rss`
        // exactly or the serial/threaded equivalence contract breaks.
        let pairs = [
            (Point::new(0.1, 0.2), Point::new(0.4, 0.9)),
            (Point::new(0.5, 0.5), Point::new(0.5, 0.5)), // coincident
            (Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            (Point::new(0.25, 0.75), Point::new(0.2500001, 0.75)),
        ];
        let log = LogDistanceRss::default();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let d_sq = a.dist_sq(&b);
            assert_eq!(
                InverseDistanceRss.rss(0, a, 1, b).to_bits(),
                InverseDistanceRss
                    .rss_from_dist_sq(0, a, 1, b, d_sq)
                    .to_bits(),
                "inverse-distance pair {i}"
            );
            assert_eq!(
                log.rss(0, a, 1, b).to_bits(),
                log.rss_from_dist_sq(0, a, 1, b, d_sq).to_bits(),
                "log-distance pair {i}"
            );
        }
    }

    #[test]
    fn fade_is_roughly_standard_normal() {
        let m = LogDistanceRss::default();
        let n = 10_000u32;
        let mut mean = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            let f = m.pair_fade(i, i + 1);
            mean += f;
            var += f * f;
        }
        mean /= n as f64;
        var = var / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
