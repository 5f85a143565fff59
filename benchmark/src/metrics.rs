//! The metric catalogue, one run's report, correctness gates and the result
//! line the benchmark prints last.

use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark emits. `exact` marks values that are a pure
/// function of the seed (counts and ratios of deterministic outcomes): two
/// builds of the same program must report them bit-for-bit equal.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload (`--trace 0`). The
/// wall-clock ones are scaled to the reference machine speed (see
/// `calibrate`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("capacity_rps", "1/s", Higher),
    m("answer_us_p50", "us", Lower),
    exact("served_frac", "ratio", Higher),
    exact("transfer_units_mean", "units", Lower),
    exact("valid_frac", "ratio", Higher),
];

/// Single-layer attribution from the traced run (`--trace 1`). A layer a
/// workload never enters reports 0 with 0 samples.
pub const PER_LAYER: &[MetricDef] = &[
    m("serve.e2e_p50_us", "us", Lower),
    m("serve.e2e_p99_us", "us", Lower),
    m("serve.queue_wait_us_p50", "us", Lower),
    m("serve.queue_wait_us_p99", "us", Lower),
    m("serve.max_queue_depth", "count", Lower),
    m("serve.residual_us_mean", "us", Lower),
    m("serve.shed_frac", "ratio", Lower),
    m("serve.expired_frac", "ratio", Lower),
    m("nela.request_us_p50", "us", Lower),
    m("nela.request_us_p99", "us", Lower),
    m("nela.request_us_max", "us", Lower),
    m("nela.request_busy_ms", "ms", Lower),
    m("nela.first100_busy_ms", "ms", Lower),
    exact("nela.reuse_frac", "ratio", Higher),
    exact("nela.fail_frac", "ratio", Lower),
    m("nela.fail_busy_ms", "ms", Lower),
    exact("cluster.phase1_calls", "count", Lower),
    m("cluster.phase1_busy_ms", "ms", Lower),
    m("cluster.claim_busy_ms", "ms", Lower),
    exact("cluster.claim_conflicts", "count", Lower),
    exact("cluster.claim_retries", "count", Lower),
    exact("cluster.messages_mean", "count", Lower),
    exact("bounding.phase2_calls", "count", Lower),
    m("bounding.phase2_busy_ms", "ms", Lower),
    exact("bounding.rounds_mean", "count", Lower),
    exact("bounding.messages_mean", "count", Lower),
    m("lbs.handle_us_p50", "us", Lower),
    m("lbs.handle_us_p99", "us", Lower),
    m("lbs.handle_busy_ms", "ms", Lower),
    exact("lbs.candidates_mean", "count", Lower),
    exact("lbs.useful_frac", "ratio", Higher),
    m("lbs.refine_us_p50", "us", Lower),
    m("lbs.refine_busy_ms", "ms", Lower),
    exact("netsim.radio_ms_mean", "ms", Lower),
    exact("netsim.transmissions_per_req", "count", Lower),
    exact("netsim.retransmits_per_req", "count", Lower),
    exact("netsim.timeouts_per_req", "count", Lower),
    exact("netsim.rpc_fail_frac", "ratio", Lower),
    exact("netsim.virtual_ms_p50", "ms", Lower),
    exact("netsim.virtual_ms_p99", "ms", Lower),
    m("geo.dataset_ms", "ms", Lower),
    m("geo.grid_build_ms", "ms", Lower),
    m("wpg.build_ms", "ms", Lower),
    m("mobility.ticks_per_s", "1/s", Higher),
    m("mobility.step_ms_p50", "ms", Lower),
    m("wpg.apply_moves_ms_p50", "ms", Lower),
    m("wpg.apply_moves_ms_p95", "ms", Lower),
    m("wpg.snapshot_ms_p50", "ms", Lower),
    m("geo.freeze_ms_p50", "ms", Lower),
    m("mobility.audit_ms_p50", "ms", Lower),
    m("mobility.serve_ms_p50", "ms", Lower),
    m("wpg.rebuild_ms_p50", "ms", Lower),
    exact("mobility.moved_per_tick", "count", Lower),
    exact("wpg.dirty_per_tick", "count", Lower),
    exact("wpg.changed_per_tick", "count", Lower),
    exact("wpg.rescore_useful_frac", "ratio", Higher),
    exact("mobility.invalidated_per_tick", "count", Lower),
    exact("mobility.host_outside_frac", "ratio", Lower),
    m("trace.overhead_frac", "ratio", Lower),
    m("trace.unattributed_frac", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value and the number of samples behind it (0 marks a layer
/// the workload does not enter). `raw` is the wall-clock value before
/// scaling to the reference machine speed, for the metrics that are scaled.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
    pub raw: Option<f64>,
}

/// The metrics of one run, keyed by catalogue name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

impl Report {
    /// Records `name`.
    ///
    /// # Panics
    /// On a name missing from the catalogue — a typo in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(
            name,
            Measured {
                value,
                samples,
                raw: None,
            },
        );
    }

    /// Records a wall-clock metric from per-measurement `(raw, factor)`
    /// pairs, `factor` being how much slower than the reference the machine
    /// ran around that measurement: each time is divided by its factor and
    /// each rate multiplied, and the metric is the median of the scaled
    /// values (the raw median is kept for the table).
    pub fn set_scaled(&mut self, name: &'static str, measured: &[(f64, f64)], samples: usize) {
        let rate = find(name).is_some_and(|d| d.better == Better::Higher);
        let scaled: Vec<f64> = measured
            .iter()
            .map(|&(raw, f)| if rate { raw * f } else { raw / f })
            .collect();
        let raw: Vec<f64> = measured.iter().map(|&(raw, _)| raw).collect();
        self.set(name, median(&scaled), samples);
        if let Some(m) = self.values.get_mut(name) {
            m.raw = Some(median(&raw));
        }
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// Keeps exactly the metrics of `set`, filling the ones this workload
    /// never measured with 0 and 0 samples.
    pub fn restrict_to(&mut self, set: &[MetricDef]) {
        self.values.retain(|k, _| set.iter().any(|d| d.name == *k));
        for d in set {
            self.values.entry(d.name).or_insert(Measured {
                value: 0.0,
                samples: 0,
                raw: None,
            });
        }
    }

    /// The human-readable table: one row per metric with unit, samples and,
    /// for scaled metrics, the raw wall-clock value.
    pub fn print_table(&self) {
        println!(
            "{:<32} {:>16} {:>6} {:>9} {:>16}",
            "metric", "value", "unit", "samples", "raw"
        );
        for (name, v) in &self.values {
            let unit = find(name).map_or("", |d| d.unit);
            let value = if v.samples == 0 {
                "n/a".to_string()
            } else {
                format!("{:.6}", v.value)
            };
            let raw = v.raw.map_or_else(String::new, |r| format!("{r:.6}"));
            println!(
                "{name:<32} {value:>16} {unit:>6} {:>9} {raw:>16}",
                v.samples
            );
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the result line wants it.
    pub fn to_json(&self) -> Value {
        Value::Map(
            self.values
                .iter()
                .map(|(name, v)| {
                    let unit = find(name).map_or("", |d| d.unit);
                    (
                        name.to_string(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(v.value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn values(&self) -> impl Iterator<Item = (&'static str, Measured)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Correctness checks collected over a run; any failure makes the run
/// incorrect and the process exit non-zero.
#[derive(Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("gate failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    pub report: Report,
    /// Requests issued to the program (sessions, drains, replays, ticks).
    pub attempted: u64,
    /// Requests that ended without a correct outcome: shed, expired, or
    /// refused for a reason the audit could not justify.
    pub failed: u64,
    pub gates: Gates,
    /// Sizing knobs of the run, for the provenance block.
    pub knobs: Vec<(&'static str, String)>,
    /// Median calibration pass of the run, in seconds, and its sample count.
    pub calibration: (f64, usize),
    /// Threads the run kept busy at once (producer plus workers).
    pub threads: usize,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&v).expect("a JSON tree always serializes")
}
