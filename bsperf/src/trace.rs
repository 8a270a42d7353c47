//! In-memory spans for the traced run. Spans are recorded only by this
//! benchmark, around its calls into the program's public functions; the
//! program itself is not instrumented. With tracing off every call is a
//! branch on a bool, so the untraced loops run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `parent` is the span open when it began, `op` the op
/// it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

/// Handle of an open span (`None` when tracing is off).
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new op: spans begun from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        }
    }

    /// Adds `v` to the counter `name` (traced runs only).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the counter `name` to at least `v` (traced runs only).
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let e = self.counts.entry(name).or_insert(v);
            *e = e.max(v);
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per span: the summed durations of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Per span name: (calls, summed self seconds). Self time is a span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Self seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.self_times().get(name).map(|e| e.1).unwrap_or(0.0)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map(|e| e.0 as f64)
            .unwrap_or(0.0)
    }

    /// The spans as JSON lines: name, start, end, parent, op, self time.
    pub fn to_jsonl(&self) -> String {
        let child_ns = self.child_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i])
            ));
        }
        out
    }
}
