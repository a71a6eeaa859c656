//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps a span around every call it makes into a library
//! crate; the library itself records nothing. A span is named
//! `layer::function`, carries the id of the span that was open on the
//! calling thread when it started (or an explicitly adopted parent, for work
//! fanned out to pool workers) and an operation id shared by every span of
//! one cell or query batch. Spans stay in memory until the run ends.
//!
//! A disabled tracer records nothing: the untraced runs execute the same
//! code with only a branch per span.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `::`
    /// (`"bisim::impute"` → `"bisim"`).
    pub fn layer(&self) -> &'static str {
        self.name.split("::").next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The benchmark's wall clock.
pub fn now() -> Instant {
    // rm-lint: allow(no-wallclock-in-deterministic-path): the benchmark harness measures wall time; library results never see it
    Instant::now()
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. The span's
    /// parent is the span currently open on this thread.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        let start_ns = self.elapsed_ns();
        let out = f();
        let end_ns = self.elapsed_ns();
        CURRENT.with(|c| c.set(parent));
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            thread: thread_index(),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// The span open on the calling thread, to hand to work that another
    /// thread runs on its behalf (see [`Tracer::adopt`]).
    pub fn current(&self) -> Option<u64> {
        if self.enabled {
            CURRENT.with(Cell::get)
        } else {
            None
        }
    }

    /// Runs `f` with `parent` as this thread's open span, so spans `f`
    /// records on a pool worker attach to the span that fanned it out.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let previous = CURRENT.with(|c| c.replace(parent));
        let out = f();
        CURRENT.with(|c| c.set(previous));
        out
    }

    /// Removes and returns every span recorded so far, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children on other threads included; overlapping
/// children count once). Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map(|c| covered_ns(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        open = match open {
            Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
            Some((oa, ob)) => {
                total += ob - oa;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((oa, ob)) = open {
        total += ob - oa;
    }
    total
}

/// Total self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.layer()).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

/// Durations (seconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // core [0,100] ⊃ imputers [10,60] ⊃ bisim [20,50]; positioning [70,90].
        let spans = vec![
            span(1, None, "core::cell", 0, 100),
            span(2, Some(1), "imputers::impute", 10, 60),
            span(3, Some(2), "bisim::impute", 20, 50),
            span(4, Some(1), "positioning::fit", 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
        let layers = layer_self_seconds(&spans);
        assert!((layers["core"] - 30e-9).abs() < 1e-15);
        assert!((layers["bisim"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn parallel_children_covering_the_same_time_count_once() {
        // Two children on different threads overlap; one pokes past the end.
        let spans = vec![
            span(1, None, "runtime::par_map", 0, 100),
            span(2, Some(1), "core::cell", 10, 80),
            span(3, Some(1), "core::cell", 40, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 70, 80]);
    }

    #[test]
    fn recorded_spans_nest_and_adopt_parents() {
        let tracer = Tracer::new(true);
        tracer.span("core::cell", 7, || {
            let parent = tracer.current();
            tracer.span("differentiator::differentiate", 7, || {});
            tracer.adopt(parent, || tracer.span("imputers::impute", 7, || {}));
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        let cell = spans.iter().find(|s| s.name == "core::cell").unwrap();
        assert_eq!(cell.parent, None);
        for child in spans.iter().filter(|s| s.name != "core::cell") {
            assert_eq!(child.parent, Some(cell.id));
            assert_eq!(child.op, 7);
            assert!(child.start_ns >= cell.start_ns && child.end_ns <= cell.end_ns);
        }
        assert_eq!(tracer.current(), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("core::cell", 0, || 5), 5);
        assert!(tracer.take().is_empty());
    }
}
