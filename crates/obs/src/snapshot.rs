//! Serializable freeze of a [`Registry`](crate::Registry).

use crate::counter;
use crate::hist::{quantile_from_buckets, Histogram, N_BUCKETS};
use serde::{Deserialize, Serialize};

/// One histogram, frozen. All `*_ns` fields are nanoseconds by the
/// pipeline's recording convention; quantiles are bucket-resolution upper
/// bounds clamped to `max_ns` (they may overstate, never understate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Freezes `h` under `name`.
    pub fn of(name: &str, h: &Histogram) -> Self {
        let buckets = h.buckets();
        let max = h.max();
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            p50_ns: quantile_from_buckets(&buckets, 0.50, max),
            p95_ns: quantile_from_buckets(&buckets, 0.95, max),
            p99_ns: quantile_from_buckets(&buckets, 0.99, max),
            max_ns: max,
            buckets: buckets.to_vec(),
        }
    }

    /// Mean of the recorded values, `None` when the histogram is empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// Re-derives a quantile from the frozen buckets (e.g. for renders that
    /// want more than the precomputed p50/p95/p99).
    pub fn quantile(&self, q: f64) -> u64 {
        let mut buckets = [0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = *src;
        }
        quantile_from_buckets(&buckets, q, self.max_ns)
    }
}

/// One counter, frozen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Everything the recorder saw, sorted by name, ready for JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether the recorder was live when the snapshot was taken.
    pub enabled: bool,
    pub histograms: Vec<HistogramSnapshot>,
    pub counters: Vec<CounterSnapshot>,
}

impl MetricsSnapshot {
    /// The histogram named `name`, if any values were recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The counter named `name` (`None` when it was never touched).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        // Invariant, not a fallible operation: the snapshot is a tree of
        // strings and integers (no maps with non-string keys, no NaN floats,
        // no recursion), which `serde_json` can always encode — a `Result`
        // here would force every caller to invent an unreachable error path.
        serde_json::to_string_pretty(self).expect("snapshot is always serializable")
    }

    /// Parses a snapshot previously written with [`MetricsSnapshot::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde::DeError> {
        serde_json::from_str(s)
    }

    /// Renders a fixed-width text table (the `nela stats` view). Durations
    /// are scaled to the most readable unit per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics snapshot (recorder {})\n",
            if self.enabled { "enabled" } else { "disabled" }
        ));
        if self.histograms.is_empty() && self.counters.is_empty() {
            out.push_str("  (empty — nothing was recorded)\n");
            return out;
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n  {:<28} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
                "stage", "count", "p50", "p95", "p99", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<28} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p95_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n  {:<28} {:>9}\n", "counter", "value"));
            for c in &self.counters {
                out.push_str(&format!("  {:<28} {:>9}\n", c.name, c.value));
            }
        }
        if let (Some(candidates), Some(scanned)) = (
            self.counter(counter::LBS_CANDIDATES),
            self.counter(counter::LBS_SCANNED),
        ) {
            out.push_str(&format!(
                "\n  {:<28} {:>9.3}  (candidates / scanned)\n",
                "lbs.query.scan_yield",
                candidates as f64 / scanned.max(1) as f64
            ));
        }
        out
    }
}

/// Human-readable nanosecond rendering: `420ns`, `3.2us`, `1.5ms`, `2.1s`.
pub fn fmt_ns(ns: u64) -> String {
    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;
    const S: u64 = 1_000_000_000;
    if ns < US {
        format!("{ns}ns")
    } else if ns < MS {
        format!("{:.1}us", ns as f64 / US as f64)
    } else if ns < S {
        format!("{:.1}ms", ns as f64 / MS as f64)
    } else {
        format!("{:.2}s", ns as f64 / S as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        MetricsSnapshot {
            enabled: true,
            histograms: vec![HistogramSnapshot::of("stage.x", &h)],
            counters: vec![CounterSnapshot {
                name: "ctr.y".to_string(),
                value: 42,
            }],
        }
    }

    #[test]
    fn accessors_find_by_name() {
        let s = sample();
        assert_eq!(s.histogram("stage.x").unwrap().count, 4);
        assert!(s.histogram("stage.z").is_none());
        assert_eq!(s.counter("ctr.y"), Some(42));
        assert_eq!(s.counter("ctr.z"), None);
    }

    #[test]
    fn mean_is_none_when_empty() {
        let empty = HistogramSnapshot::of("e", &Histogram::new());
        assert_eq!(empty.mean_ns(), None);
        let s = sample();
        let mean = s.histogram("stage.x").unwrap().mean_ns().unwrap();
        assert!((mean - 25_175.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_every_instrument() {
        let text = sample().render();
        assert!(text.contains("stage.x"));
        assert!(text.contains("ctr.y"));
        assert!(text.contains("42"));
    }

    #[test]
    fn render_derives_the_lbs_scan_yield() {
        let ctr = |name: &str, value| CounterSnapshot {
            name: name.to_string(),
            value,
        };
        let mut snap = MetricsSnapshot {
            enabled: true,
            histograms: vec![],
            counters: vec![ctr(counter::LBS_CANDIDATES, 300)],
        };
        assert!(!snap.render().contains("scan_yield"));
        snap.counters.push(ctr(counter::LBS_SCANNED, 400));
        assert!(snap
            .render()
            .contains("lbs.query.scan_yield             0.750"));
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(420), "420ns");
        assert_eq!(fmt_ns(3_200), "3.2us");
        assert_eq!(fmt_ns(1_500_000), "1.5ms");
        assert_eq!(fmt_ns(2_100_000_000), "2.10s");
    }
}
