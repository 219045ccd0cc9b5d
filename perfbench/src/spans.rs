//! In-memory span recorder for the traced pass: one span per call the
//! harness makes into a layer, plus the pipeline's own phase spans hung
//! under the `disassemble` call. Written out once, at the end of the run.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> &Span {
        self.spans[id].end_ns = self.now_ns();
        &self.spans[id]
    }

    /// Time `f` as a span named `name` under `parent`; returns its result
    /// and the span's wall time in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let out = std::hint::black_box(f());
        (out, self.end(id).ms())
    }

    /// Hang the pipeline's own spans (offsets relative to the pipeline's
    /// start) under the harness span `parent`.
    pub fn adopt(&mut self, parent: usize, inner: &[obs::Span]) {
        let base = self.spans[parent].start_ns;
        let first = self.spans.len();
        for s in inner {
            let parent = s
                .parent
                .and_then(|p| inner.iter().position(|o| o.id == p))
                .map_or(parent, |i| first + i);
            self.spans.push(Span {
                name: s.name.to_string(),
                start_ns: base + s.start_ns,
                end_ns: base + s.start_ns + s.wall_ns,
                parent: Some(parent),
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            );
        }
        out.push_str("]}\n");
        out
    }
}
