//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id handed out by a disabled tracer.
    pub const NONE: SpanId = SpanId(usize::MAX);

    /// Position in [`Tracer::spans`]; `None` for [`SpanId::NONE`].
    pub fn index(self) -> Option<usize> {
        (self != SpanId::NONE).then_some(self.0)
    }
}

/// One closed span, times in microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or phase name, e.g. `collect.weekly`.
    pub name: String,
    /// Start offset.
    pub start_us: u64,
    /// End offset (equal to start while the span is open).
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder; disabled tracers cost one branch per span.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Opens a span under `parent` (`None` for a root).
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now_us();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: parent.filter(|p| *p != SpanId::NONE).map(|p| p.0),
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.now_us();
        self.spans.lock().expect("tracer lock poisoned")[id.0].end_us = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                serde_json::to_string(&s.name).expect("a string serializes"),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Microseconds of span `i` covered by its direct children.
pub fn child_coverage_us(spans: &[Span], i: usize) -> u64 {
    let kids = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    union_len(kids, spans[i].start_us, spans[i].end_us)
}

/// Per-name aggregate: `(count, total_us, self_us)`, where a span's
/// self time is its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_us - s.start_us;
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - child_coverage_us(spans, i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a (two threads)
            span("c", 70, 80, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(child_coverage_us(&spans, 0), 60);
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 40));
        assert_eq!(t["a"], (1, 30, 22));
        assert_eq!(t["a.inner"], (1, 8, 8));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, |id| {
            assert_eq!(id, SpanId::NONE);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        on.span("root", None, |r| on.span("leaf", Some(r), |_| ()));
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].end_us >= s[1].end_us);
    }
}
