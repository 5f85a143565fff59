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

    /// The difference `self - baseline`: what was recorded *after* the
    /// baseline was taken. Counts, sums, and buckets subtract (saturating,
    /// so a reset between snapshots degrades to "everything since reset"
    /// instead of underflowing); quantiles are recomputed from the delta
    /// buckets, so they describe only the window's values. Instruments with
    /// nothing recorded in the window are dropped; instruments absent from
    /// the baseline carry over whole. `max_ns` is inherited from `self` — a
    /// bucket histogram cannot recover the window max exactly, so it may
    /// overstate (never understate), matching the quantile convention.
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let base = baseline.histograms.iter().find(|b| b.name == h.name);
                let count = h.count.saturating_sub(base.map_or(0, |b| b.count));
                if count == 0 {
                    return None;
                }
                let mut buckets = [0u64; N_BUCKETS];
                for (i, dst) in buckets.iter_mut().enumerate() {
                    let cur = h.buckets.get(i).copied().unwrap_or(0);
                    let old = base.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0);
                    *dst = cur.saturating_sub(old);
                }
                Some(HistogramSnapshot {
                    name: h.name.clone(),
                    count,
                    sum_ns: h.sum_ns.saturating_sub(base.map_or(0, |b| b.sum_ns)),
                    p50_ns: quantile_from_buckets(&buckets, 0.50, h.max_ns),
                    p95_ns: quantile_from_buckets(&buckets, 0.95, h.max_ns),
                    p99_ns: quantile_from_buckets(&buckets, 0.99, h.max_ns),
                    max_ns: h.max_ns,
                    buckets: buckets.to_vec(),
                })
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let old = baseline.counter(&c.name).unwrap_or(0);
                let value = c.value.saturating_sub(old);
                (value > 0).then(|| CounterSnapshot {
                    name: c.name.clone(),
                    value,
                })
            })
            .collect();
        MetricsSnapshot {
            enabled: self.enabled,
            histograms,
            counters,
        }
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

/// A rolling window over the global recorder: each [`MetricsWindow::rotate`]
/// returns only what was recorded since the previous rotation (or since
/// construction), as a normal [`MetricsSnapshot`]. This is how long-running
/// drivers (e.g. the mobility loop) report per-interval latency
/// distributions without resetting the global registry — cumulative totals
/// stay intact for the end-of-run snapshot.
#[derive(Debug, Clone)]
pub struct MetricsWindow {
    baseline: MetricsSnapshot,
}

impl MetricsWindow {
    /// Opens a window starting at the recorder's current state.
    pub fn start() -> Self {
        MetricsWindow {
            baseline: crate::snapshot(),
        }
    }

    /// Opens a window starting at an explicit baseline (e.g. a snapshot
    /// taken around a phase boundary).
    pub fn from_baseline(baseline: MetricsSnapshot) -> Self {
        MetricsWindow { baseline }
    }

    /// What was recorded since the last rotation; advances the window.
    pub fn rotate(&mut self) -> MetricsSnapshot {
        let now = crate::snapshot();
        let delta = now.delta_since(&self.baseline);
        self.baseline = now;
        delta
    }

    /// What was recorded since the last rotation, without advancing.
    pub fn peek(&self) -> MetricsSnapshot {
        crate::snapshot().delta_since(&self.baseline)
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
    fn delta_since_isolates_the_window() {
        let h = Histogram::new();
        for v in [100u64, 200] {
            h.record(v);
        }
        let before = MetricsSnapshot {
            enabled: true,
            histograms: vec![HistogramSnapshot::of("stage.x", &h)],
            counters: vec![CounterSnapshot {
                name: "ctr.y".to_string(),
                value: 10,
            }],
        };
        // Window records two more values into stage.x, a fresh stage.z, and
        // bumps the counter.
        for v in [1_000_000u64, 2_000_000] {
            h.record(v);
        }
        let z = Histogram::new();
        z.record(500);
        let after = MetricsSnapshot {
            enabled: true,
            histograms: vec![
                HistogramSnapshot::of("stage.x", &h),
                HistogramSnapshot::of("stage.z", &z),
            ],
            counters: vec![CounterSnapshot {
                name: "ctr.y".to_string(),
                value: 17,
            }],
        };
        let delta = after.delta_since(&before);
        let x = delta.histogram("stage.x").unwrap();
        assert_eq!(x.count, 2);
        assert_eq!(x.sum_ns, 3_000_000);
        // Quantiles describe only the window's two millisecond-scale values,
        // not the baseline's sub-microsecond ones.
        assert!(x.p50_ns >= 1_000_000, "p50 {} reflects baseline", x.p50_ns);
        let z = delta.histogram("stage.z").unwrap();
        assert_eq!(z.count, 1, "baseline-absent histogram carries over");
        assert_eq!(delta.counter("ctr.y"), Some(7));
        // An idle instrument vanishes from the delta.
        let idle = after.delta_since(&after);
        assert!(idle.histograms.is_empty());
        assert!(idle.counters.is_empty());
    }

    #[test]
    fn delta_since_survives_a_reset_between_snapshots() {
        let before = sample();
        // A reset shrinks counts; the delta saturates to the post-reset view
        // instead of underflowing.
        let h = Histogram::new();
        h.record(300);
        let after = MetricsSnapshot {
            enabled: true,
            histograms: vec![HistogramSnapshot::of("stage.x", &h)],
            counters: vec![],
        };
        let delta = after.delta_since(&before);
        assert!(delta.histogram("stage.x").is_none(), "1 - 4 saturates to 0");
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(420), "420ns");
        assert_eq!(fmt_ns(3_200), "3.2us");
        assert_eq!(fmt_ns(1_500_000), "1.5ms");
        assert_eq!(fmt_ns(2_100_000_000), "2.10s");
    }
}
