//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API: a name, a start and end on one monotonic
//! clock, the span that caused it, and the request it served (a pass
//! index or a session query id). Nothing is written until the run ends.
//! When the recorder is disabled a span costs one branch plus the call
//! it wraps, so the untraced run measures the program alone.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The request the span served.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The layer a span name belongs to: its first component (`graph`,
/// `engines`, `sim`, `algos`, or `bench` for the benchmark's own code),
/// or its first two under `core` (`core.runner`, `core.session`, ...).
pub fn layer_of(name: &str) -> &str {
    let mut parts = name.splitn(3, '.');
    let first = parts.next().unwrap_or(name);
    match (first, parts.next()) {
        ("core", Some(second)) => &name[..first.len() + 1 + second.len()],
        _ => first,
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name` serving `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Record an already-measured child of the innermost open span (for
    /// timings taken where the tracer cannot be borrowed, such as inside
    /// a backend the session service owns).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}, \"request\": {}}}{sep}",
                s.name, s.start, s.end, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of `[lo, hi]` covered by the union of `intervals`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Indices of `root` and every span below it.
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    // Parents are always recorded before their children.
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            inside[i] = inside[p];
        }
    }
    (0..spans.len()).filter(|&i| inside[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span("bench.pass", 0.0, 10.0, None),
            span("core.session.run_next", 1.0, 5.0, Some(0)),
            span("algos.execute", 2.0, 4.5, Some(1)),
            span("core.session.submit", 6.0, 7.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![10.0 - 4.0 - 1.0, 4.0 - 2.5, 2.5, 1.0]);
        let total: f64 = st.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("bench.pass", 0.0, 10.0, None),
            span("a.x", 1.0, 4.0, Some(0)),
            span("a.y", 3.0, 6.0, Some(0)),
            span("a.z", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 5.0 - 1.0);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("bench.pass", 3, |t| t.span("core.runner.run.pr", 3, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(subtree(t.spans(), 0), vec![0, 1]);
        let mut off = Tracer::new(false);
        off.span("bench.pass", 0, |t| t.record("x", 0, Instant::now(), Instant::now()));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layers_keep_two_components_under_core() {
        assert_eq!(layer_of("core.runner.run.pr"), "core.runner");
        assert_eq!(layer_of("core.runner.new"), "core.runner");
        assert_eq!(layer_of("core.select"), "core.select");
        assert_eq!(layer_of("algos.execute"), "algos");
        assert_eq!(layer_of("graph.generate"), "graph");
        assert_eq!(layer_of("bench.pass"), "bench");
    }
}
