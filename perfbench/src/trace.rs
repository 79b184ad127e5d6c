//! In-memory spans and counters for the traced run, and span self time.
//!
//! A span records one call into a layer's public functions: its name, the
//! layer it belongs to, start and end, the span that was open when it
//! began, and the search it served. Spans stay in memory until the run
//! ends and are then written out in Chrome trace-event form.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers a span can belong to, named after the crates they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Grouping spans of the benchmark itself (a pass, a pair, a replay).
    Bench,
    /// `cuda-frontend`.
    Frontend,
    /// `hfuse-analysis`.
    Analysis,
    /// `hfuse-core` fusion (`horizontal_fuse`).
    Fuse,
    /// `thread-ir`.
    Ir,
    /// `gpu-sim`.
    Sim,
    /// `hfuse-core` search.
    Search,
}

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Frontend => "frontend",
            Layer::Analysis => "analysis",
            Layer::Fuse => "fuse",
            Layer::Ir => "ir",
            Layer::Sim => "sim",
            Layer::Search => "search",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `ir.lower`.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: Layer,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The search this span served, if any.
    pub search: Option<u32>,
    /// Set on spans that re-measure work another span already covers (an
    /// unoptimized lowering next to the optimized one, a decode or a
    /// functional run next to the timed run); they are left out of layer
    /// self time.
    pub probe: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counters when on; does nothing but run the timed
/// closures when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    search: Option<u32>,
    counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            search: None,
            counters: BTreeMap::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans begun from now on with a search id.
    pub fn set_search(&mut self, search: Option<u32>) {
        self.search = search;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin_span(&mut self, name: &'static str, layer: Layer, probe: bool) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            search: self.search,
            probe,
        });
        self.open.push(id);
        Some(id)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        self.begin_span(name, layer, false)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` inside a probe span (see [`Span::probe`]).
    pub fn probe<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.begin_span(name, layer, true);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `v` to a counter (when on).
    pub fn add(&mut self, counter: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(counter).or_default() += v;
        }
    }

    /// A counter's value (0 when never added to).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Seconds of self time of a layer's spans, probes left out.
    pub fn layer_self_s(&self, layer: Layer) -> f64 {
        let own = self_times(&self.spans);
        let ns: u64 = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.layer == layer && !s.probe)
            .map(|(_, t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// The spans in Chrome trace-event JSON (one complete event each).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\
                     \"search\":{},\"probe\":{}}}}}",
                    s.name,
                    s.layer.name(),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.search.map_or("null".to_owned(), |p| p.to_string()),
                    s.probe,
                )
            })
            .collect();
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Checks that every span lies inside its parent and that its children's
/// total time never exceeds its own.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} lies outside its parent {}",
                    s.name, parent.name
                ));
            }
            child_ns[p] += s.dur_ns();
        }
    }
    for (s, c) in spans.iter().zip(child_ns) {
        if c > s.dur_ns() {
            return Err(format!("children of span {} exceed it", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer: Layer::Bench,
            start_ns,
            end_ns,
            parent,
            search: None,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_once() {
        // 0..100 with children 10..30 and 20..50 (overlapping: 40 covered)
        // and 90..120 (clipped to the parent: 10 covered).
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 30]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn nesting_check_rejects_children_outside_the_parent() {
        assert!(check_nesting(&[span(0, 10, None), span(2, 8, Some(0))]).is_ok());
        assert!(check_nesting(&[span(0, 10, None), span(5, 12, Some(0))]).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_count() {
        let mut tr = Tracer::new(true);
        tr.set_search(Some(3));
        let outer = tr.begin("outer", Layer::Bench);
        let x = tr.time("inner", Layer::Ir, || 2 + 2);
        tr.probe("inner", Layer::Ir, || ());
        tr.end(outer);
        tr.add("ir.insts", 7.0);
        assert_eq!(x, 4);
        assert_eq!(tr.count("inner"), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].search, Some(3));
        assert_eq!(tr.counter("ir.insts"), 7.0);
        assert!(check_nesting(tr.spans()).is_ok());
        assert!(tr.total_s("outer") >= tr.total_s("inner"));
        assert!(tr.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.time("x", Layer::Sim, || 1), 1);
        tr.add("c", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.counter("c"), 0.0);
    }
}
