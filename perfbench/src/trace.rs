//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around every public call it makes into
//! the library; the batch number is the id shared by all spans of one
//! batch. The engine's own per-stage tree (`BatchReport::spans`, or the
//! follower registry's span totals) is attached under the call that
//! produced it. Engine trees carry durations but no start times; their
//! stages run one after another, so siblings are laid end to end from
//! the parent's start. Spans stay in memory until the run ends.

use crate::stats::{json_number, json_string};
use mdbgp_stream::SpanNode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are µs since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Batch number (0 for set-up and evaluation).
    pub batch: u64,
}

/// Identifies an open or finished span; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, batch: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: start,
            end_us: start,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, batch: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, batch);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches a finished tree under `parent`, starting at `start_us`
    /// (siblings end to end); returns where the tree ends.
    pub fn attach(&mut self, parent: SpanId, start_us: f64, node: &SpanNode, batch: u64) -> f64 {
        let Some(parent) = parent else {
            return start_us;
        };
        let end = start_us + node.total_ms * 1e3;
        self.spans.push(Span {
            name: node.name.to_string(),
            start_us,
            end_us: end,
            parent: Some(parent),
            batch,
        });
        let me = Some(self.spans.len() - 1);
        let mut cursor = start_us;
        for child in &node.children {
            cursor = self.attach(me, cursor, child, batch);
        }
        end
    }

    /// Start of span `id`.
    pub fn start_of(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| self.spans[i].start_us)
    }

    /// The spans as a JSON array (written at exit).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \
                 \"batch\": {}}}{}",
                json_string(&s.name),
                json_number(s.start_us),
                json_number(s.end_us),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.batch,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of a span over `[start, end]`: its length minus the part of
/// it that the union of its children's intervals covers.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Totals of one layer: every span with the same path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Per-layer totals keyed by span path (`parent/child/...`).
pub fn layers(spans: &[Span]) -> BTreeMap<String, Layer> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut out: BTreeMap<String, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p], s.name),
            None => s.name.clone(),
        };
        let layer = out.entry(path.clone()).or_default();
        layer.count += 1;
        layer.total_ms += (s.end_us - s.start_us) / 1e3;
        layer.self_ms += self_time(s.start_us, s.end_us, &children[i]) / 1e3;
        paths.push(path);
    }
    out
}

/// Share of the time of spans named `name` that their children cover.
pub fn named_share(spans: &[Span], name: &str) -> f64 {
    let (mut total, mut own) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let kids: Vec<(f64, f64)> = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_us, c.end_us))
            .collect();
        total += s.end_us - s.start_us;
        own += self_time(s.start_us, s.end_us, &kids);
    }
    if total > 0.0 {
        1.0 - own / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping and nested children count once.
        assert_eq!(
            self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0), (2.5, 3.0)]),
            6.0
        );
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Fully covered.
        assert_eq!(self_time(0.0, 4.0, &[(0.0, 4.0)]), 0.0);
    }

    #[test]
    fn attached_trees_lay_siblings_end_to_end() {
        let mut t = Tracer::new(true);
        let root = t.enter("call", 3);
        let tree = SpanNode {
            name: "ingest",
            total_ms: 4.0,
            count: 1,
            children: vec![
                SpanNode {
                    name: "split",
                    total_ms: 1.0,
                    count: 1,
                    children: vec![],
                },
                SpanNode {
                    name: "refine",
                    total_ms: 2.5,
                    count: 1,
                    children: vec![],
                },
            ],
        };
        let start = t.start_of(root);
        assert_eq!(t.attach(root, start, &tree, 3), start + 4000.0);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(s[2].start_us - start, 0.0) && close(s[2].end_us - start, 1000.0));
        assert!(close(s[3].start_us - start, 1000.0) && close(s[3].end_us - start, 3500.0));
        let by_path = layers(s);
        let ingest = &by_path["call/ingest"];
        assert!((ingest.self_ms - 0.5).abs() < 1e-9, "{ingest:?}");
        assert_eq!(by_path["call/ingest/refine"].count, 1);
        assert!(s.iter().all(|x| x.batch == 3));
    }

    #[test]
    fn named_share_is_the_covered_fraction() {
        let span = |name: &str, start_us, end_us, parent| Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            batch: 1,
        };
        let spans = vec![
            span("call", 0.0, 100.0, None),
            span("a", 0.0, 60.0, Some(0)),
            span("b", 50.0, 90.0, Some(0)),
            span("call", 200.0, 300.0, None),
        ];
        // Covered: 90 of the first call, 0 of the second.
        assert!((named_share(&spans, "call") - 0.45).abs() < 1e-12);
        assert_eq!(named_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 1);
        assert_eq!(id, None);
        t.exit(id);
        assert_eq!(t.span("y", 1, || 5), 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }
}
