//! In-memory spans around the benchmark's calls into each layer, written
//! out as a Chrome trace-event file when the traced pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, host-time interval, and the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`layer.function`).
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder. Spans nest by call structure: a span opened inside
/// another's closure is its child.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's index.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, usize) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.to_owned(), start_ns, end_ns: start_ns, parent });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        (r, idx)
    }

    /// A recorded span.
    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Every span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (complete events, one
    /// track; the parent index rides in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        out
    }
}
