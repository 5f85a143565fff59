//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's §VI (see `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for recorded outcomes).
//!
//! Each `src/bin/exp_*.rs` binary prints the paper-matching series as an
//! aligned table on stdout and, when `NELA_RESULTS_DIR` is set, also writes
//! machine-readable JSON there (consumed when updating `EXPERIMENTS.md`).
//!
//! Scaling: the full paper population (104,770 users) is expensive to sweep
//! repeatedly; by default experiments run a proportionally scaled system
//! (`NELA_USERS`, default 20,000) with δ and S adjusted to preserve the WPG
//! density and the request fraction. Run with `NELA_USERS=104770` for the
//! full-size reproduction.

use nela::{Params, System};
use serde::Serialize;
use std::path::Path;

/// Population of an experiment run when `NELA_USERS` is unset.
pub const DEFAULT_USERS: usize = 20_000;

/// Experiment-wide configuration from the environment.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Population size (`NELA_USERS`, default 20,000).
    pub users: usize,
    /// Directory for JSON result dumps (`NELA_RESULTS_DIR`, optional).
    pub results_dir: Option<std::path::PathBuf>,
}

impl ExpConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let users = std::env::var("NELA_USERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_USERS);
        let results_dir = std::env::var_os("NELA_RESULTS_DIR").map(Into::into);
        ExpConfig { users, results_dir }
    }

    /// Baseline parameters at this scale (Table I, proportionally scaled).
    pub fn params(&self) -> Params {
        Params::scaled(self.users)
    }

    /// Builds a system, echoing its shape.
    pub fn build(&self, params: &Params) -> System {
        eprintln!(
            "[build] {} users, δ={:.2e}, M={}, k={} ...",
            params.n_users, params.delta, params.max_peers, params.k
        );
        let system = System::build(params);
        eprintln!(
            "[build] WPG: {} edges, avg degree {:.2}",
            system.wpg.m(),
            system.avg_degree()
        );
        system
    }

    /// Writes a JSON result dump when `NELA_RESULTS_DIR` is set.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        let Some(dir) = &self.results_dir else {
            return;
        };
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        std::fs::write(&path, json).expect("write results");
        eprintln!("[results] wrote {}", path.display());
    }
}

/// One knob of a run: an environment variable or a constant of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Knob {
    /// The variable's or constant's name.
    pub name: String,
    /// Its value as the run used it.
    pub value: String,
}

impl Knob {
    /// A knob from its name and displayed value.
    pub fn new(name: &str, value: impl std::fmt::Display) -> Self {
        Knob {
            name: name.to_string(),
            value: value.to_string(),
        }
    }
}

/// Where a committed `BENCH_*.json` came from: the fields the serving
/// benchmark's provenance line prints.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// Git revision of the checkout (`unknown` outside a repository).
    pub git_rev: String,
    /// Logical CPUs available to the run.
    pub cores: usize,
    /// Build profile, `release` or `debug`.
    pub profile: String,
    /// The run's knobs.
    pub knobs: Vec<Knob>,
    /// True for a `--smoke` run.
    pub smoke: bool,
}

impl Provenance {
    /// The provenance of this process's run of the repository at `root`.
    pub fn of_run(root: &Path, knobs: Vec<Knob>, smoke: bool) -> Self {
        Provenance {
            git_rev: git_rev(root),
            cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            knobs,
            smoke,
        }
    }
}

/// `BENCH_obs.json`: the global recorder's snapshot under the run's
/// provenance. `MetricsSnapshot::from_json` skips the extra block, so
/// `nela stats --file BENCH_obs.json` still renders the file.
#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    provenance: Provenance,
    enabled: bool,
    histograms: Vec<nela_obs::HistogramSnapshot>,
    counters: Vec<nela_obs::CounterSnapshot>,
}

/// Writes the global recorder's snapshot to `BENCH_obs.json` at `root`,
/// under `provenance`.
pub fn write_obs_snapshot(root: &Path, provenance: Provenance) {
    let snapshot = nela_obs::snapshot();
    let report = ObsReport {
        provenance,
        enabled: snapshot.enabled,
        histograms: snapshot.histograms,
        counters: snapshot.counters,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize snapshot");
    let path = root.join("BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    eprintln!("[results] wrote {}", path.display());
}

/// The revision `root`'s git checkout has out, read from `.git` without
/// running git (`unknown` outside a repository).
fn git_rev(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One timed metric over a cell's repeated runs: single runs on a small
/// shared host swing by up to half, so a timed cell runs several times and
/// reports the median with the range.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `values`, `None` when there is none or a run recorded
    /// no value.
    pub fn of(values: impl IntoIterator<Item = Option<f64>>) -> Option<Spread> {
        let mut v: Vec<f64> = values.into_iter().collect::<Option<_>>()?;
        v.sort_by(f64::total_cmp);
        Some(Spread {
            median: *v.get(v.len() / 2)?,
            min: v[0],
            max: v[v.len() - 1],
        })
    }
}

/// Prints an aligned table: a title line, a header row, then rows of
/// preformatted cells.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float in short scientific or fixed form for table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.2}")
    }
}
