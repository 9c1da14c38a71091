//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the run's
//! origin), the span that caused it, and the id of the request it belongs
//! to. Spans are kept in memory and written out once, at the end of the
//! run. A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `btree.seek`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by one request's spans (0 outside requests).
    pub req: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. A disabled tracer records nothing and
/// only runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
    next_req: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer sharing `origin` with others (one per load thread), so
    /// their spans can be merged onto one time line.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            next_req: 1,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording off or on (for an untraced pass inside a traced
    /// run). Spans already open keep their place.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The shared clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Request ids start at `first` (load threads use disjoint ranges).
    pub fn set_request_base(&mut self, first: u64) {
        self.next_req = first;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one request: a fresh request id, with a root span named
    /// `name` around it.
    pub fn request<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let outer = self.req;
        self.req = self.next_req;
        self.next_req += 1;
        let r = self.span(name, f);
        self.req = outer;
        r
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.enter(name);
        let r = f(self);
        self.exit(open);
        r
    }

    /// Opens a span named `name` (for code that cannot run inside a
    /// closure); close it with [`exit`](Self::exit). `None` when disabled.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the innermost span, which `entered` must name.
    pub fn exit(&mut self, entered: Option<usize>) {
        if let Some(idx) = entered {
            assert_eq!(
                self.open.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Moves another tracer's spans into this one, keeping their parent
    /// links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Wall durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut totals: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            let e = totals.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        totals.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, parent, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval.
/// Overlapping children (work fanned out to threads) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children covering 10..60 and 40..80 cover 70 ns together.
        let spans = vec![
            span("root", 0, 100, None),
            span("t1", 10, 60, Some(0)),
            span("t2", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 70, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 30]);
    }

    #[test]
    fn recorded_spans_nest_and_share_request_ids() {
        let mut t = Tracer::new(true);
        t.request("req", |t| {
            t.span("outer", |t| t.span("inner", |_| ()));
        });
        t.request("req", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[0].req, s[1].req, s[2].req, s[3].req), (1, 1, 1, 2));
        let self_ns = t.self_times_ns();
        let total: u64 = self_ns[..3].iter().sum();
        assert_eq!(total, s[0].duration_ns(), "self times tile the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.request("req", |t| t.span("x", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(true, origin);
        a.span("a", |_| ());
        let mut b = Tracer::with_origin(true, origin);
        b.span("b", |t| t.span("b.child", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
