//! Structured event spans: a begin/end tree with parent IDs, monotonic
//! timestamps, and per-span counters.
//!
//! A [`SpanSet`] is a cheap, single-threaded recorder: [`SpanSet::begin`]
//! opens a span nested under whatever span is currently open, returns its
//! ID, and [`SpanSet::end`] closes it. The finished [`Span`] records carry
//! start offsets and durations relative to the set's origin, so a whole run
//! renders as one aligned tree ([`render_tree`]) and serializes into the
//! `metadis.trace.v3` schema's `spans` array.
//!
//! ```
//! use obs::span::SpanSet;
//!
//! let mut s = SpanSet::new();
//! let root = s.begin("pipeline");
//! let child = s.begin("superset");
//! s.counter(child, "items", 42);
//! s.end(child);
//! s.end(root);
//! let spans = s.finish();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, Some(spans[0].id));
//! ```

use crate::Stopwatch;
use crate::TextTable;

/// One closed (or force-closed) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within its [`SpanSet`] (and kept unique across
    /// merges by offsetting).
    pub id: u32,
    /// Enclosing span's ID, `None` for roots.
    pub parent: Option<u32>,
    /// Stable span name (phase names reuse the trace contract).
    pub name: &'static str,
    /// Monotonic nanoseconds from the set's origin to `begin`.
    pub start_ns: u64,
    /// Nanoseconds between `begin` and `end`.
    pub wall_ns: u64,
    /// Per-span counters, in record order.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Nesting depth of this span within `all` (0 for roots). Walks parent
    /// links; malformed links terminate at the root.
    pub fn depth(&self, all: &[Span]) -> usize {
        let mut d = 0;
        let mut cur = self.parent;
        while let Some(p) = cur {
            d += 1;
            if d > all.len() {
                break; // defensive: cyclic parent links
            }
            cur = all.iter().find(|s| s.id == p).and_then(|s| s.parent);
        }
        d
    }
}

/// A single-threaded span recorder (see the module docs).
///
/// When allocation accounting is active ([`crate::alloc::is_active`]),
/// every span additionally opens an attribution window and closes with two
/// extra counters: `alloc_bytes` (bytes allocated while the span was open)
/// and `alloc_peak` (high-water mark of live bytes above the level at span
/// begin). Disabled, spans carry no allocation counters and pay one atomic
/// load per begin.
///
/// When the flight recorder is on ([`crate::timeline::enabled`]), every
/// begin/end additionally emits a timeline event on the recording thread's
/// lane, so pipeline phases show up in Chrome traces without separate
/// instrumentation. Off, that mirror costs one relaxed atomic load.
#[derive(Debug, Default)]
pub struct SpanSet {
    origin: Option<Stopwatch>,
    spans: Vec<Span>,
    /// Indices into `spans` of currently-open spans, innermost last.
    stack: Vec<usize>,
    /// Allocation windows of the open spans, parallel to `stack` (`None`
    /// when accounting was inactive at begin).
    marks: Vec<Option<crate::alloc::Mark>>,
}

impl SpanSet {
    /// New recorder; the origin clock starts at the first [`SpanSet::begin`].
    pub fn new() -> SpanSet {
        SpanSet::default()
    }

    fn now_ns(&mut self) -> u64 {
        self.origin
            .get_or_insert_with(Stopwatch::start)
            .elapsed_ns()
    }

    /// Open a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            wall_ns: 0,
            counters: Vec::new(),
        });
        self.stack.push(id as usize);
        self.marks
            .push(crate::alloc::is_active().then(crate::alloc::mark));
        crate::timeline::begin(name);
        id
    }

    /// Close the innermost open span: duration, then the allocation window
    /// (innermost-first order is what lets nested peaks fold correctly).
    fn close_top(&mut self, now: u64) -> Option<u32> {
        let top = self.stack.pop()?;
        let mark = self.marks.pop().flatten();
        let s = &mut self.spans[top];
        s.wall_ns = now.saturating_sub(s.start_ns);
        if let Some(m) = mark {
            let (alloc_bytes, alloc_peak) = m.measure();
            s.counters.push(("alloc_bytes", alloc_bytes));
            s.counters.push(("alloc_peak", alloc_peak));
        }
        let (id, name) = (s.id, s.name);
        crate::timeline::end(name);
        Some(id)
    }

    /// Close span `id` (and any still-open spans nested inside it) and
    /// return its wall time in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        while let Some(closed) = self.close_top(now) {
            if closed == id {
                break;
            }
        }
        self.spans.get(id as usize).map_or(0, |s| s.wall_ns)
    }

    /// Attach (or bump) a counter on span `id`.
    pub fn counter(&mut self, id: u32, name: &'static str, v: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            match s.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, cur)) => *cur += v,
                None => s.counters.push((name, v)),
            }
        }
    }

    /// Close any open spans and return the records in begin order.
    pub fn finish(mut self) -> Vec<Span> {
        let now = self.now_ns();
        while self.close_top(now).is_some() {}
        self.spans
    }
}

/// Render spans as an indented tree table (`span`, `start ms`, `wall ms`,
/// `counters`). Spans print in begin order, indented by nesting depth.
pub fn render_tree(spans: &[Span]) -> String {
    let mut t = TextTable::new(["span", "start ms", "wall ms", "counters"]);
    for s in spans {
        let indent = "  ".repeat(s.depth(spans));
        let counters = s
            .counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            format!("{indent}{}", s.name),
            format!("{:.3}", s.start_ns as f64 / 1e6),
            format!("{:.3}", s.wall_ns as f64 / 1e6),
            counters,
        ]);
    }
    t.render()
}

/// Write spans as a JSON array value: `[{id, parent, name, start_ns,
/// wall_ns, counters: {..}}, ...]` — the `spans` field of
/// `metadis.trace.v3`.
pub fn write_spans_json(w: &mut crate::json::JsonWriter, spans: &[Span]) {
    w.begin_arr();
    for s in spans {
        w.begin_obj();
        w.field_u64("id", s.id as u64);
        match s.parent {
            Some(p) => w.field_u64("parent", p as u64),
            None => {
                w.key("parent");
                w.str_val("none");
            }
        }
        w.field_str("name", s.name);
        w.field_u64("start_ns", s.start_ns);
        w.field_u64("wall_ns", s.wall_ns);
        w.key("counters");
        w.begin_obj();
        for (n, v) in &s.counters {
            w.field_u64(n, *v);
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_parents() {
        let mut s = SpanSet::new();
        let a = s.begin("a");
        let b = s.begin("b");
        s.end(b);
        let c = s.begin("c");
        s.end(c);
        s.end(a);
        let spans = s.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(a));
        assert_eq!(spans[2].parent, Some(a));
        assert_eq!(spans[1].depth(&spans), 1);
        assert_eq!(spans[0].depth(&spans), 0);
        // children start no earlier than the parent and end within finish
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn end_closes_nested_open_spans() {
        let mut s = SpanSet::new();
        let a = s.begin("a");
        let _b = s.begin("b"); // never explicitly ended
        s.end(a);
        let spans = s.finish();
        assert_eq!(spans.len(), 2);
        // both got a duration
        assert!(spans.iter().all(|s| s.wall_ns <= spans[0].wall_ns + 1));
    }

    #[test]
    fn counters_accumulate() {
        let mut s = SpanSet::new();
        let a = s.begin("a");
        s.counter(a, "items", 2);
        s.counter(a, "items", 3);
        s.counter(a, "bytes", 7);
        s.end(a);
        let spans = s.finish();
        assert_eq!(spans[0].counters, vec![("items", 5), ("bytes", 7)]);
    }

    #[test]
    fn tree_render_and_json() {
        let mut s = SpanSet::new();
        let a = s.begin("pipeline");
        let b = s.begin("superset");
        s.counter(b, "items", 9);
        s.end(b);
        s.end(a);
        let spans = s.finish();
        let tree = render_tree(&spans);
        assert!(tree.contains("pipeline"), "{tree}");
        assert!(tree.contains("  superset"), "{tree}");
        assert!(tree.contains("items=9"), "{tree}");
        let mut w = crate::json::JsonWriter::new();
        write_spans_json(&mut w, &spans);
        let json = w.finish();
        assert!(
            json.starts_with(r#"[{"id":0,"parent":"none","name":"pipeline""#),
            "{json}"
        );
        assert!(json.contains(r#""counters":{"items":9}"#), "{json}");
        // parses back
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn finish_closes_everything() {
        let mut s = SpanSet::new();
        s.begin("never-ended");
        let spans = s.finish();
        assert_eq!(spans.len(), 1);
    }
}
