//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span is opened just before the benchmark calls a layer's public
//! function and closed when the call returns; its parent is the span that
//! was open around it (the request or the mobility tick). Spans stay in
//! memory until the run ends and are then written as JSON lines, one file
//! per workload. The program itself records nothing new: the only spans
//! inside the program are its existing `nela-obs` stages, which the traced
//! run reads as sums and counts.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Request id within its session; `None` for spans that belong to no
    /// single request (a mobility tick and its maintenance steps).
    pub req: Option<u32>,
    /// Session index (serving) or 0 (mobility).
    pub session: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every call is a no-op that
/// still runs the wrapped closure, so traced and untraced replays execute
/// the same program calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (meaningless while disabled). The
    /// span is recorded when [`Tracer::close`] is called with that id.
    pub fn open(
        &mut self,
        name: &'static str,
        req: Option<u32>,
        session: u32,
        parent: Option<u32>,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            session,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        req: Option<u32>,
        session: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, session, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"session\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.req),
                s.session,
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of a span set: wall time and self time (the span's
/// duration minus the part its children cover). Serial code nests children
/// strictly inside their parent, so subtracting their durations is exact.
#[derive(Clone, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// True for spans with no parent: their self time is the part of the
    /// run no layer span accounts for.
    pub root: bool,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(*children);
        e.root = s.parent.is_none();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("request", Some(0), 0, None);
        t.scope("child", Some(0), 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let st = self_times(t.spans());
        let (r, c) = (&st["request"], &st["child"]);
        assert!(r.root && !c.root);
        assert_eq!(r.total_ns, r.self_ns + c.total_ns);
        assert!(c.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.scope("x", None, 0, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
