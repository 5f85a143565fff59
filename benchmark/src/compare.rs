//! `BENCHMARK.json`, the run log `--repeat N --out FILE` appends to, and
//! `--compare A B`, which applies the bounds of `BENCHMARK.json` to two
//! logs metric by metric and workload by workload.

use crate::metrics::{self, Better, Gates, MetricDef};
use crate::plan;
use crate::stats::{median, quartiles, ratio};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

fn str_of(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Seq(items)) => Ok(items),
        _ => Err(format!("missing list {key:?}")),
    }
}

pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let metrics_of = |key: &str| -> Result<Vec<SpecMetric>, String> {
        list(&root, key)?
            .iter()
            .map(|m| {
                Ok(SpecMetric {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    better: str_of(m, "better")?,
                    bound: m.get("bound").and_then(Value::as_float),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list(&root, "workloads")?
            .iter()
            .map(|w| str_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics_of("end_to_end")?,
        per_layer: metrics_of("per_layer")?,
    })
}

/// `BENCHMARK.json` must declare exactly the workloads and metrics this
/// binary emits, with the same units and directions.
pub fn check_spec(spec: &Spec, gates: &mut Gates) {
    let names: Vec<&str> = plan::ALL.iter().map(|w| w.name()).collect();
    gates.check(spec.workloads == names, || {
        format!("BENCHMARK.json workloads {:?} != {names:?}", spec.workloads)
    });
    for (declared, emitted, label) in [
        (&spec.end_to_end, metrics::END_TO_END, "end_to_end"),
        (&spec.per_layer, metrics::PER_LAYER, "per_layer"),
    ] {
        gates.check(declared.len() == emitted.len(), || {
            format!(
                "BENCHMARK.json {label} lists {} metrics, the benchmark emits {}",
                declared.len(),
                emitted.len()
            )
        });
        for d in emitted {
            let found = declared.iter().find(|m| m.name == d.name);
            gates.check(
                found.is_some_and(|m| m.unit == d.unit && m.better == d.better.as_str()),
                || {
                    format!(
                        "BENCHMARK.json {label} entry for {} is missing or differs",
                        d.name
                    )
                },
            );
        }
    }
}

/// One run as the log records it.
pub struct LoggedRun {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub provenance: Value,
    pub metrics: BTreeMap<String, f64>,
}

impl LoggedRun {
    fn key(&self) -> String {
        if self.traced {
            format!("{}/trace", self.workload)
        } else {
            self.workload.clone()
        }
    }

    fn to_json(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("trace".into(), Value::Bool(self.traced)),
            ("seed".into(), Value::UInt(self.seed)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("provenance".into(), self.provenance.clone()),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<LoggedRun, String> {
        let int = |key: &str| {
            v.get(key)
                .and_then(Value::as_integer)
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("run without integer {key:?}"))
        };
        let flag = |key: &str| matches!(v.get(key), Some(Value::Bool(true)));
        let metrics = match v.get("metrics") {
            Some(Value::Map(pairs)) => pairs
                .iter()
                .filter_map(|(k, x)| x.as_float().map(|f| (k.clone(), f)))
                .collect(),
            _ => return Err("run without metrics".into()),
        };
        Ok(LoggedRun {
            workload: str_of(v, "workload")?,
            traced: flag("trace"),
            seed: int("seed")?,
            correct: flag("correct"),
            attempted: int("attempted")?,
            failed: int("failed")?,
            provenance: v.get("provenance").cloned().unwrap_or(Value::Null),
            metrics,
        })
    }
}

fn read_log(path: &Path) -> Result<Vec<LoggedRun>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    list(&root, "runs")?
        .iter()
        .map(LoggedRun::from_json)
        .collect()
}

fn group(runs: &[LoggedRun]) -> BTreeMap<String, Vec<&LoggedRun>> {
    let mut out: BTreeMap<String, Vec<&LoggedRun>> = BTreeMap::new();
    for r in runs {
        out.entry(r.key()).or_default().push(r);
    }
    out
}

fn column(runs: &[&LoggedRun], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Appends `new` to the log at `path` and rewrites it with, per workload
/// and metric, the median and quartiles over every logged run.
pub fn append_log(path: &Path, new: Vec<LoggedRun>) -> Result<(), String> {
    let mut runs = read_log(path)?;
    runs.extend(new);
    let summary = group(&runs)
        .into_iter()
        .map(|(key, rs)| {
            let names: Vec<&String> = rs[0].metrics.keys().collect();
            let stats = names
                .into_iter()
                .map(|name| {
                    let col = column(&rs, name);
                    let (q1, q3) = quartiles(&col);
                    let unit = metrics::find(name).map_or("", |d| d.unit);
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("median".into(), Value::Float(median(&col))),
                            ("q1".into(), Value::Float(q1)),
                            ("q3".into(), Value::Float(q3)),
                            ("runs".into(), Value::UInt(col.len() as u64)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect();
            (key, Value::Map(stats))
        })
        .collect();
    let root = Value::Map(vec![
        (
            "runs".into(),
            Value::Seq(runs.iter().map(LoggedRun::to_json).collect()),
        ),
        ("summary".into(), Value::Map(summary)),
    ]);
    let text = serde_json::to_string_pretty(&root).expect("a JSON tree always serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Interquartile range as a share of the median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    ratio(q3 - q1, median(v).abs())
}

/// How much worse `b` reads than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let d = ratio(b - a, a.abs());
    match def.better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

fn verdict(def: &MetricDef, bound: Option<f64>, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    if def.exact {
        return if ma == mb {
            "unchanged"
        } else if worsening(def, ma, mb) > 0.0 {
            "regressed"
        } else {
            "improved"
        };
    }
    let Some(bound) = bound else {
        return "info";
    };
    let better = |x: f64, y: f64| worsening(def, y, x) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread(a) > bound || spread(b) > bound {
        return if all_better { "improved" } else { "unresolved" };
    }
    let w = worsening(def, ma, mb);
    if w > bound {
        "regressed"
    } else if -w > bound && all_better {
        "improved"
    } else {
        "unchanged"
    }
}

/// Prints one row per (workload, metric) and returns how many regressed.
pub fn compare(spec: &Spec, a_path: &Path, b_path: &Path) -> Result<usize, String> {
    let (a, b) = (read_log(a_path)?, read_log(b_path)?);
    let (ga, gb) = (group(&a), group(&b));
    let bound_of = |name: &str| {
        spec.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    };
    let mut regressed = 0;
    println!(
        "{:<16} {:<30} {:>6} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A iqr%",
        "B median",
        "B iqr%",
        "change%",
        "bound"
    );
    for (key, ra) in &ga {
        let Some(rb) = gb.get(key) else {
            println!("{key}: only in {}", a_path.display());
            continue;
        };
        let seeds = |rs: &[&LoggedRun]| {
            let mut s: Vec<u64> = rs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        if seeds(ra) != seeds(rb) {
            println!("{key}: the two logs ran different seeds; exact metrics may differ");
        }
        if ra.iter().chain(rb.iter()).any(|r| !r.correct) {
            println!("{key}: a logged run failed its correctness gates");
        }
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let (ca, cb) = (column(ra, def.name), column(rb, def.name));
            if ca.is_empty() || cb.is_empty() {
                continue;
            }
            let bound = bound_of(def.name);
            let v = verdict(def, bound, &ca, &cb);
            regressed += usize::from(v == "regressed");
            let (ma, mb) = (median(&ca), median(&cb));
            println!(
                "{key:<16} {:<30} {:>6} {ma:>14.6} {:>8.2} {mb:>14.6} {:>8.2} {:>8.2} {:>6}  {v}",
                def.name,
                def.unit,
                100.0 * spread(&ca),
                100.0 * spread(&cb),
                100.0 * ratio(mb - ma, ma.abs()),
                bound.map_or_else(|| "-".to_string(), |x| format!("{:.0}%", 100.0 * x)),
            );
        }
    }
    for key in gb.keys().filter(|k| !ga.contains_key(*k)) {
        println!("{key}: only in {}", b_path.display());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).expect("catalogued")
    }

    #[test]
    fn verdicts_apply_bound_direction_and_spread() {
        let lat = def("answer_us_p50");
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(lat, Some(0.1), &base, &[100.0, 102.0, 98.0, 101.0]),
            "unchanged"
        );
        assert_eq!(
            verdict(lat, Some(0.1), &base, &[130.0, 131.0, 129.0, 130.0]),
            "regressed"
        );
        assert_eq!(
            verdict(lat, Some(0.1), &base, &[70.0, 71.0, 69.0, 70.0]),
            "improved"
        );
        assert_eq!(
            verdict(lat, Some(0.1), &[50.0, 100.0, 150.0, 200.0], &base),
            "unresolved"
        );
        let cap = def("capacity_rps");
        assert_eq!(
            verdict(cap, Some(0.1), &base, &[70.0, 71.0, 69.0, 70.0]),
            "regressed"
        );
        let frac = def("served_frac");
        assert_eq!(
            verdict(frac, Some(0.05), &[0.8, 0.8], &[0.8, 0.8]),
            "unchanged"
        );
        assert_eq!(
            verdict(frac, Some(0.05), &[0.8, 0.8], &[0.79, 0.79]),
            "regressed"
        );
    }
}
