//! In-memory span recorder for the traced run: name, start, end, parent
//! and unit id per span, written out as JSONL when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub unit: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans of this thread (innermost last) — the parent of a new span.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Spans of one traced run, times relative to `origin`.
pub struct Spans {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Pops the span off the thread's stack and records it, even on unwind.
struct Open<'a> {
    spans: &'a Spans,
    id: u64,
    parent: u64,
    name: &'static str,
    unit: u64,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.spans.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            unit: self.unit,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        self.spans
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for unit `unit`; the span's
    /// parent is the innermost span open on this thread.
    pub fn time<R>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let _open = Open {
            spans: self,
            id,
            parent,
            name,
            unit,
            start_ns: self.now_ns(),
        };
        f()
    }

    /// Records a root span observed from outside (e.g. from polling).
    pub fn record(&self, name: &'static str, unit: u64, start_ns: u64, end_ns: u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let thread = THREAD.with(|t| *t);
        let rec = SpanRec {
            id,
            parent: 0,
            name,
            unit,
            thread,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.snapshot();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"unit\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.unit, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name self time (duration minus the time its children cover) and
/// span count, over the spans that start inside `[from_ns, to_ns)`.
pub fn self_times(
    spans: &[SpanRec],
    from_ns: u64,
    to_ns: u64,
) -> BTreeMap<&'static str, (f64, u64)> {
    let inside = |s: &SpanRec| s.start_ns >= from_ns && s.start_ns < to_ns;
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| inside(s) && s.parent != 0) {
        // Children run nested on their parent's thread, so they never
        // overlap one another: their durations add up to what they cover.
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| inside(s)) {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own as f64 / 1e9;
        e.1 += 1;
    }
    out
}

/// Wall time in `[from_ns, to_ns)` that no span covers, on any thread.
pub fn uncovered_s(spans: &[SpanRec], from_ns: u64, to_ns: u64) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.end_ns > from_ns && s.start_ns < to_ns)
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (to_ns - from_ns).saturating_sub(covered) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            unit: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_merges_threads() {
        let spans = vec![
            rec(1, 0, "oracle", 0, 100),
            rec(2, 1, "trace", 10, 40),
            rec(3, 0, "compile", 50, 150),
            rec(4, 0, "compile", 300, 400),
        ];
        let st = self_times(&spans, 0, 1000);
        assert_eq!(st["oracle"], (70e-9, 1));
        assert_eq!(st["trace"], (30e-9, 1));
        assert_eq!(st["compile"].1, 2);
        // Covered: [0,150) and [300,400) → 250 of 1000 ns.
        assert!((uncovered_s(&spans, 0, 1000) - 750e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let spans = Spans::new();
        spans.time("outer", 1, || spans.time("inner", 2, || ()));
        let recs = spans.snapshot();
        let outer = recs.iter().find(|s| s.name == "outer").unwrap();
        let inner = recs.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
    }
}
