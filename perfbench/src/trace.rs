//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name, a start and end (nanoseconds since the run
//! started), the span that was open around it, and the request (unit)
//! it belongs to. Spans are kept in memory and written out as JSONL at
//! exit. With tracing off, [`Tracer::span`] only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder of one run (single driver thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Per-name totals of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub calls: u64,
    pub ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Nanoseconds since the tracer's origin.
    fn clock_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let parent = st.open.last().copied();
            let idx = st.spans.len();
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            st.open.push(idx);
            idx
        };
        let start = self.clock_ns();
        let out = f();
        let end = self.clock_ns();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let s = &mut st.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Calls and total (inclusive) nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.state.borrow().spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.ns += s.ns();
        }
        out
    }

    /// Total nanoseconds covered by top-level spans. Every span's self
    /// time is its duration minus its children's, so the self times of
    /// all spans sum to exactly this.
    pub fn top_level_ns(&self) -> u64 {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// All spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.state.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_times_add_up() {
        let t = Tracer::new(true);
        t.span("outer", 1, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let st = t.state.borrow();
        assert_eq!(st.spans.len(), 2);
        assert_eq!(st.spans[1].parent, Some(0));
        assert!(st.spans[0].ns() >= st.spans[1].ns());
        drop(st);
        let totals = t.totals();
        assert_eq!(totals["outer"].calls, 1);
        assert_eq!(t.top_level_ns(), totals["outer"].ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.totals().is_empty());
    }
}
