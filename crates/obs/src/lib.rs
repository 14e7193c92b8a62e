//! `mdbgp-obs` — zero-dependency observability core for the mdbgp stack.
//!
//! Three cooperating pieces, all allocation-light and offline-buildable:
//!
//! * [`MetricsRegistry`] — named **counters** (monotonic `u64`), **gauges**
//!   (`f64` last-write-wins), and fixed-log2-bucket **histograms** with
//!   p50/p90/p99/max summaries.
//! * [`SpanTree`] + [`SpanGuard`] — RAII wall-clock span timers. Guards nest:
//!   opening `"refine"` while `"ingest"` is open produces the dotted path
//!   `ingest.refine` when the tree is flattened. Repeated spans with the same
//!   name under the same parent merge (count += 1, time accumulates).
//!   [`SpanTree::add`] merges time measured elsewhere (worker threads)
//!   under the open span the same way.
//! * Event **journal** — a bounded ring buffer of structured events with
//!   monotonic sequence numbers; once full, the oldest events are dropped and
//!   counted, never silently lost.
//!
//! # Metric naming scheme
//!
//! Names are dotted `subsystem.stage.metric` paths, e.g.
//! `stream.place.conflicts` or `core.gd.refine_iterations`. Span-derived
//! latency histograms are auto-named `span.<dotted.path>_us`.
//!
//! # Determinism
//!
//! A metric allowlist pairs every metric name with whether its value is
//! **deterministic**: a function of the input alone, identical across
//! thread counts and reruns. Wall-clock series and counts of concurrent
//! reader traffic are not. [`MetricsRegistry::deterministic_json`] renders
//! exactly the names the allowlist marks deterministic, and
//! [`validate_dump`] checks dump names against the same list (the stream
//! crate property-tests both).
//!
//! # Histogram bucket layout
//!
//! Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values whose bit length
//! is `i`, i.e. the range `[2^(i-1), 2^i - 1]`. `quantile(q)` returns the
//! upper bound of the bucket containing the q-th ranked observation, clamped
//! to the exact observed maximum — so `p50 ≤ p90 ≤ p99 ≤ max` holds by
//! construction and a histogram never over-reports its tail.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of log2 buckets: one for zero plus one per possible bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Ring-buffer capacity of the event journal.
pub const JOURNAL_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Fixed-log2-bucket histogram over `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Point-in-time quantile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds every observation of `other`: bucket counts, count and sum
    /// add (the sum saturating, as in [`Self::observe`]) and the max is
    /// the larger one, so the result is the histogram that observed both
    /// streams. Lets each thread record into a histogram of its own and
    /// fold it into a shared one now and then.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-upper-bound quantile, clamped to the exact observed max.
    /// `q` is in `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

// ---------------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------------

/// One flattened node of a finished span tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanNode {
    pub name: &'static str,
    pub total_ms: f64,
    pub count: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total time of the direct child named `name`, or 0 if absent.
    pub fn child_ms(&self, name: &str) -> f64 {
        self.children
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.total_ms)
            .unwrap_or(0.0)
    }

    /// Calls `f` on every node of the tree with its dotted path
    /// (`ingest.refine.gd`), parents before children. A default (unnamed)
    /// node visits nothing.
    pub fn visit(&self, f: &mut impl FnMut(&str, &SpanNode)) {
        fn walk(node: &SpanNode, path: String, f: &mut impl FnMut(&str, &SpanNode)) {
            f(&path, node);
            for child in &node.children {
                walk(child, format!("{path}.{}", child.name), f);
            }
        }
        if !self.name.is_empty() {
            walk(self, self.name.to_string(), f);
        }
    }
}

struct RawNode {
    name: &'static str,
    total_ms: f64,
    count: u64,
    children: Vec<usize>,
}

struct TreeInner {
    nodes: Vec<RawNode>,
    /// Indices of root nodes in `nodes`.
    roots: Vec<usize>,
    /// Currently-open span stack (indices into `nodes`).
    stack: Vec<usize>,
}

impl TreeInner {
    /// The node `name` under the open span (or among the roots), created
    /// on first use.
    fn child(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&i) = siblings.iter().find(|&&c| self.nodes[c].name == name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(RawNode {
            name,
            total_ms: 0.0,
            count: 0,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(i),
            None => self.roots.push(i),
        }
        i
    }
}

/// Per-batch span collector. Interior-mutable so guards borrow the tree
/// shared (`&SpanTree`), letting callers keep `&mut self` on their own
/// state while spans are open.
pub struct SpanTree {
    inner: RefCell<TreeInner>,
}

impl Default for SpanTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTree {
    pub fn new() -> Self {
        SpanTree {
            inner: RefCell::new(TreeInner {
                nodes: Vec::new(),
                roots: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// Opens a span named `name` nested under the currently-open span (or as
    /// a root). Repeated names under the same parent merge into one node.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.child(name);
            inner.stack.push(idx);
            idx
        };
        SpanGuard {
            tree: self,
            idx,
            start: Instant::now(),
        }
    }

    /// Adds `count` finished activations totalling `total_ms` to the span
    /// `name` under the currently-open span (or to the root `name`),
    /// merging by name as [`Self::span`] does. For time measured
    /// elsewhere, such as inside worker threads, and billed to the open
    /// span at a barrier.
    pub fn add(&self, name: &'static str, count: u64, total_ms: f64) {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.child(name);
        let node = &mut inner.nodes[idx];
        node.count += count;
        node.total_ms += total_ms;
    }

    fn finish(&self, idx: usize, elapsed_ms: f64) {
        let mut inner = self.inner.borrow_mut();
        // Defensive: pop until we pop our own index, so a guard dropped out
        // of LIFO order cannot wedge the stack.
        while let Some(top) = inner.stack.pop() {
            if top == idx {
                break;
            }
        }
        let node = &mut inner.nodes[idx];
        node.total_ms += elapsed_ms;
        node.count += 1;
    }

    /// Snapshot of all finished root spans (open spans report time-so-far 0
    /// for the in-flight activation).
    pub fn snapshot(&self) -> Vec<SpanNode> {
        let inner = self.inner.borrow();
        fn build(inner: &TreeInner, idx: usize) -> SpanNode {
            let raw = &inner.nodes[idx];
            SpanNode {
                name: raw.name,
                total_ms: raw.total_ms,
                count: raw.count,
                children: raw.children.iter().map(|&c| build(inner, c)).collect(),
            }
        }
        inner.roots.iter().map(|&r| build(&inner, r)).collect()
    }
}

/// RAII timer: records elapsed wall-clock into its node on drop.
pub struct SpanGuard<'a> {
    tree: &'a SpanTree,
    idx: usize,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed_ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.tree.finish(self.idx, elapsed_ms);
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// One structured journal event. `fields` are small numeric payloads
/// (`("conflicts", 3.0)`); a time-valued field names its unit (`_secs`,
/// `_ms`).
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    pub seq: u64,
    pub event: &'static str,
    pub fields: Vec<(&'static str, f64)>,
}

#[derive(Debug, Default)]
struct Journal {
    events: VecDeque<JournalEvent>,
    next_seq: u64,
    dropped: u64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Histogram>),
}

/// Flattened per-path span statistics accumulated across batches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ms: f64,
}

/// Central sink for counters, gauges, histograms, absorbed span trees, and
/// journal events. All maps are ordered so rendered dumps are byte-stable.
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
    spans: BTreeMap<String, SpanStat>,
    journal: Journal,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: BTreeMap::new(),
            spans: BTreeMap::new(),
            journal: Journal::default(),
        }
    }

    // -- recording ---------------------------------------------------------

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.entry(name, || MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Sets a counter to an absolute value — for mirroring an externally
    /// maintained monotonic count (e.g. the store's lookup counter).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        match self.entry(name, || MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c = value,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.entry(name, || MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = value,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    pub fn observe(&mut self, name: &str, value: u64) {
        match self.entry(name, || MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => h.observe(value),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Overwrites histogram `name` with an externally maintained state —
    /// the histogram analogue of [`Self::counter_set`], used to mirror a
    /// histogram recorded outside the registry (e.g. serving threads'
    /// lookup latencies, merged into one by their store) into the
    /// single-threaded dump. The source is authoritative: call with its
    /// current state at sync points.
    pub fn histogram_set(&mut self, name: &str, value: &Histogram) {
        match self.entry(name, || MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => **h = value.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    fn entry(&mut self, name: &str, init: impl FnOnce() -> MetricValue) -> &mut MetricValue {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), init());
        }
        self.metrics.get_mut(name).unwrap()
    }

    /// Merges a finished span tree: accumulates per-dotted-path totals and
    /// feeds each node's per-activation mean into the `span.<path>_us`
    /// latency histogram.
    pub fn absorb_spans(&mut self, root: &SpanNode) {
        root.visit(&mut |path, node| {
            let stat = self.spans.entry(path.to_string()).or_default();
            stat.count += node.count;
            stat.total_ms += node.total_ms;
            if node.count > 0 {
                let mean_us = (node.total_ms / node.count as f64 * 1e3).round().max(0.0) as u64;
                let hist_name = format!("span.{path}_us");
                for _ in 0..node.count {
                    self.observe(&hist_name, mean_us);
                }
            }
        });
    }

    pub fn journal_event(&mut self, event: &'static str, fields: &[(&'static str, f64)]) {
        if self.journal.events.len() == JOURNAL_CAPACITY {
            self.journal.events.pop_front();
            self.journal.dropped += 1;
        }
        let seq = self.journal.next_seq;
        self.journal.next_seq += 1;
        self.journal.events.push_back(JournalEvent {
            seq,
            event,
            fields: fields.to_vec(),
        });
    }

    // -- reading -----------------------------------------------------------

    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    pub fn summary(&self, name: &str) -> Option<HistogramSummary> {
        self.histogram(name).map(Histogram::summary)
    }

    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.spans.get(path).copied()
    }

    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.journal.events.iter()
    }

    pub fn journal_len(&self) -> usize {
        self.journal.events.len()
    }

    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped
    }

    /// All registered metric names (counters, gauges, histograms), sorted.
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    // -- rendering ---------------------------------------------------------

    /// Full JSON dump. One metric per line, sorted keys — byte-stable for a
    /// given registry state, and line-scannable by [`validate_dump`].
    pub fn render_json(&self) -> String {
        self.render_json_filtered(|_| true)
    }

    /// JSON dump restricted to the deterministic subset: the counters,
    /// gauges and histograms that `allowlist` marks deterministic
    /// (`(name, true)`); every other name, the spans and the journal are
    /// excluded.
    pub fn deterministic_json(&self, allowlist: &[(&str, bool)]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        self.render_metric_sections(&mut out, |name| {
            allowlist.iter().any(|&(n, det)| det && n == name)
        });
        // Trim the trailing comma of the last section.
        trim_trailing_comma(&mut out);
        out.push_str("}\n");
        out
    }

    fn render_json_filtered(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        self.render_metric_sections(&mut out, keep);
        // Spans.
        out.push_str("  \"spans\": {\n");
        let mut first = true;
        for (path, stat) in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    \"{path}\": {{\"count\": {}, \"total_ms\": {}}}",
                stat.count,
                json_f64(stat.total_ms)
            );
        }
        if !first {
            out.push('\n');
        }
        out.push_str("  },\n");
        // Journal.
        out.push_str("  \"journal\": {\n");
        let _ = write!(
            out,
            "    \"next_seq\": {},\n    \"dropped\": {},\n    \"events\": [\n",
            self.journal.next_seq, self.journal.dropped
        );
        let mut first = true;
        for ev in &self.journal.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "      {{\"seq\": {}, \"event\": \"{}\"",
                ev.seq, ev.event
            );
            for (k, v) in &ev.fields {
                let _ = write!(out, ", \"{k}\": {}", json_f64(*v));
            }
            out.push('}');
        }
        if !first {
            out.push('\n');
        }
        out.push_str("    ]\n  }\n");
        out.push_str("}\n");
        out
    }

    fn render_metric_sections(&self, out: &mut String, keep: impl Fn(&str) -> bool) {
        let section = |out: &mut String, title: &str, entries: Vec<(&String, String)>| {
            let _ = writeln!(out, "  \"{title}\": {{");
            let mut first = true;
            for (name, val) in entries {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(out, "    \"{name}\": {val}");
            }
            if !first {
                out.push('\n');
            }
            out.push_str("  },\n");
        };
        let counters: Vec<_> = self
            .metrics
            .iter()
            .filter(|(n, _)| keep(n))
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) => Some((n, c.to_string())),
                _ => None,
            })
            .collect();
        section(out, "counters", counters);
        let gauges: Vec<_> = self
            .metrics
            .iter()
            .filter(|(n, _)| keep(n))
            .filter_map(|(n, v)| match v {
                MetricValue::Gauge(g) => Some((n, json_f64(*g))),
                _ => None,
            })
            .collect();
        section(out, "gauges", gauges);
        let hists: Vec<_> = self
            .metrics
            .iter()
            .filter(|(n, _)| keep(n))
            .filter_map(|(n, v)| match v {
                MetricValue::Histogram(h) => {
                    let s = h.summary();
                    Some((
                        n,
                        format!(
                            "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                            s.count, s.sum, s.p50, s.p90, s.p99, s.max
                        ),
                    ))
                }
                _ => None,
            })
            .collect();
        section(out, "histograms", hists);
    }

    /// Prometheus-style plain-text exposition: dots become underscores,
    /// histograms expand into `_count`/`_sum`/quantile-labelled lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let prom = |name: &str| name.replace('.', "_");
        for (name, val) in &self.metrics {
            let p = prom(name);
            match val {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {p} counter");
                    let _ = writeln!(out, "{p} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {p} gauge");
                    let _ = writeln!(out, "{p} {}", json_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let s = h.summary();
                    let _ = writeln!(out, "# TYPE {p} summary");
                    let _ = writeln!(out, "{p}{{quantile=\"0.5\"}} {}", s.p50);
                    let _ = writeln!(out, "{p}{{quantile=\"0.9\"}} {}", s.p90);
                    let _ = writeln!(out, "{p}{{quantile=\"0.99\"}} {}", s.p99);
                    let _ = writeln!(out, "{p}_max {}", s.max);
                    let _ = writeln!(out, "{p}_sum {}", s.sum);
                    let _ = writeln!(out, "{p}_count {}", s.count);
                }
            }
        }
        for (path, stat) in &self.spans {
            let p = format!("span_{}", prom(path));
            let _ = writeln!(out, "{p}_total_ms {}", json_f64(stat.total_ms));
            let _ = writeln!(out, "{p}_count {}", stat.count);
        }
        out
    }
}

/// Shortest-round-trip float formatting; non-finite values render as null
/// (JSON has no NaN/Inf). Bitwise-equal floats format identically, which is
/// what makes deterministic dumps byte-comparable.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep valid-but-obvious
        // float formatting for consumers.
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn trim_trailing_comma(out: &mut String) {
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
}

// ---------------------------------------------------------------------------
// Dump validation
// ---------------------------------------------------------------------------

/// Summary returned by [`validate_dump`] for CI assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DumpStats {
    pub counters: usize,
    pub gauges: usize,
    pub histograms: usize,
    pub spans: usize,
    pub journal_events: usize,
}

/// Schema-validates a [`MetricsRegistry::render_json`] dump:
///
/// 1. the required sections (`counters`, `gauges`, `histograms`, `spans`,
///    `journal`) are all present;
/// 2. every histogram's quantiles are monotone (`p50 ≤ p90 ≤ p99 ≤ max`);
/// 3. for every span path, the summed time of its direct children does not
///    exceed the parent's total (small tolerance for float accumulation) —
///    in particular the per-stage tree sums to ≤ the batch wall-clock;
/// 4. every metric name is either in `allowlist` (names paired with their
///    determinism, as [`MetricsRegistry::deterministic_json`] takes them) or
///    a `span.*` derived histogram whose dotted path appears in the spans
///    section — so a typo'd metric name fails CI instead of silently forking
///    a new time series.
///
/// The validator is a line scanner over the registry's one-entry-per-line
/// rendering, not a general JSON parser.
pub fn validate_dump(json: &str, allowlist: &[(&str, bool)]) -> Result<DumpStats, String> {
    let mut stats = DumpStats::default();
    let mut section = String::new();
    let mut seen_sections: Vec<String> = Vec::new();
    let mut span_totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut span_names: Vec<String> = Vec::new();
    let mut metric_names: Vec<String> = Vec::new();

    for (lineno, raw) in json.lines().enumerate() {
        let line = raw.trim();
        // Section headers look like `"counters": {` (two-space indent in the
        // rendering; detect by suffix).
        for sec in ["counters", "gauges", "histograms", "spans", "journal"] {
            if line.starts_with(&format!("\"{sec}\":")) {
                section = sec.to_string();
                seen_sections.push(sec.to_string());
            }
        }
        let Some(name) = leading_quoted_key(line) else {
            continue;
        };
        if ["counters", "gauges", "histograms", "spans", "journal"].contains(&name.as_str()) {
            continue;
        }
        match section.as_str() {
            "counters" => {
                stats.counters += 1;
                metric_names.push(name);
            }
            "gauges" => {
                stats.gauges += 1;
                metric_names.push(name);
            }
            "histograms" => {
                stats.histograms += 1;
                let p50 = field_u64(line, "p50")
                    .ok_or_else(|| format!("line {}: histogram without p50: {line}", lineno + 1))?;
                let p90 = field_u64(line, "p90")
                    .ok_or_else(|| format!("line {}: histogram without p90: {line}", lineno + 1))?;
                let p99 = field_u64(line, "p99")
                    .ok_or_else(|| format!("line {}: histogram without p99: {line}", lineno + 1))?;
                let max = field_u64(line, "max")
                    .ok_or_else(|| format!("line {}: histogram without max: {line}", lineno + 1))?;
                if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
                    return Err(format!(
                        "histogram {name:?}: quantiles not monotone (p50={p50} p90={p90} p99={p99} max={max})"
                    ));
                }
                metric_names.push(name);
            }
            "spans" => {
                stats.spans += 1;
                let total = field_f64(line, "total_ms")
                    .ok_or_else(|| format!("line {}: span without total_ms: {line}", lineno + 1))?;
                span_totals.insert(name.clone(), total);
                span_names.push(name);
            }
            // Journal scalars (next_seq/dropped/events) are section
            // metadata, not metric names; events are counted below.
            "journal" => {}
            _ => {}
        }
    }
    // Count journal events: lines shaped `{"seq": N, "event": ...}`.
    stats.journal_events = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"seq\":"))
        .count();

    for sec in ["counters", "gauges", "histograms", "spans", "journal"] {
        if !seen_sections.iter().any(|s| s == sec) {
            return Err(format!("missing required section {sec:?}"));
        }
    }

    // Child-sum ≤ parent for every span path.
    for (path, &total) in &span_totals {
        let child_sum: f64 = span_totals
            .iter()
            .filter(|(p, _)| {
                p.len() > path.len()
                    && p.starts_with(path.as_str())
                    && p.as_bytes()[path.len()] == b'.'
                    && !p[path.len() + 1..].contains('.')
            })
            .map(|(_, &t)| t)
            .sum();
        let tolerance = 0.01 * total.max(1.0) + 0.5;
        if child_sum > total + tolerance {
            return Err(format!(
                "span {path:?}: children sum {child_sum:.3} ms exceeds parent total {total:.3} ms"
            ));
        }
    }

    // Allowlist: metric names must be known, or span-derived histograms whose
    // path is present in the spans section.
    for name in &metric_names {
        if allowlist.iter().any(|&(n, _)| n == name) {
            continue;
        }
        if let Some(stem) = name
            .strip_prefix("span.")
            .and_then(|s| s.strip_suffix("_us"))
        {
            if span_names.iter().any(|s| s == stem) {
                continue;
            }
            return Err(format!(
                "span histogram {name:?} has no matching span path {stem:?}"
            ));
        }
        return Err(format!("unknown metric name {name:?} (not in allowlist)"));
    }
    Ok(stats)
}

/// Extracts `key` from a line starting `"key": ...` or `{"key": ...`.
fn leading_quoted_key(line: &str) -> Option<String> {
    let rest = line.strip_prefix('{').unwrap_or(line);
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    let key = &rest[..end];
    let after = rest[end + 1..].trim_start();
    after.starts_with(':').then(|| key.to_string())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_raw(line, key)?.parse().ok()
}

fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles_are_monotone() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 7, 8, 100, 1000, 65535] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 9);
        assert_eq!(s.max, 65535);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p99 of 9 samples is the top sample's bucket, clamped to exact max.
        assert_eq!(s.p99, 65535);
        // Zero goes to its own bucket.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_upper(2), 3);
    }

    #[test]
    fn histogram_quantile_clamps_to_observed_max() {
        let mut h = Histogram::default();
        h.observe(1025); // bucket upper bound 2047
        assert_eq!(h.quantile(0.99), 1025);
        assert_eq!(h.quantile(0.5), 1025);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn spans_nest_and_merge_by_name() {
        let tree = SpanTree::new();
        {
            let _root = tree.span("ingest");
            {
                let _a = tree.span("place");
            }
            {
                let _a = tree.span("place"); // merges with the first
            }
            {
                let _b = tree.span("refine");
                let _c = tree.span("gd");
            }
        }
        let roots = tree.snapshot();
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "ingest");
        assert_eq!(root.count, 1);
        assert_eq!(root.children.len(), 2);
        let place = &root.children[0];
        assert_eq!((place.name, place.count), ("place", 2));
        let refine = &root.children[1];
        assert_eq!(refine.name, "refine");
        assert_eq!(refine.children[0].name, "gd");
        // Children are inside the parent, so they can't exceed it.
        let child_sum: f64 = root.children.iter().map(|c| c.total_ms).sum();
        assert!(child_sum <= root.total_ms + 1e-6);
    }

    #[test]
    fn added_spans_nest_under_the_open_span_and_merge_by_name() {
        let tree = SpanTree::new();
        {
            let _root = tree.span("pairs");
            {
                let _timed = tree.span("judge");
            }
            tree.add("judge", 3, 1.5); // merges with the timed activation
            tree.add("matvec", 2, 0.25);
            tree.add("matvec", 1, 0.5);
        }
        tree.add("replay", 4, 2.0); // nothing open: a root
        let roots = tree.snapshot();
        let names: Vec<_> = roots.iter().map(|r| r.name).collect();
        assert_eq!(names, ["pairs", "replay"]);
        assert_eq!((roots[1].count, roots[1].total_ms), (4, 2.0));
        let pairs = &roots[0];
        assert_eq!(pairs.count, 1);
        let kids: Vec<_> = pairs.children.iter().map(|c| (c.name, c.count)).collect();
        assert_eq!(kids, [("judge", 4), ("matvec", 3)]);
        assert!(pairs.child_ms("judge") >= 1.5);
        assert_eq!(pairs.child_ms("matvec"), 0.75);
    }

    #[test]
    fn journal_ring_drops_oldest_and_keeps_monotonic_seq() {
        let mut r = MetricsRegistry::new();
        for _ in 0..JOURNAL_CAPACITY + 10 {
            r.journal_event("tick", &[("x", 1.0)]);
        }
        assert_eq!(r.journal_len(), JOURNAL_CAPACITY);
        assert_eq!(r.journal_dropped(), 10);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs[0], 10);
        assert_eq!(*seqs.last().unwrap(), (JOURNAL_CAPACITY + 10 - 1) as u64);
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn deterministic_filter_excludes_time_valued_names() {
        let allow = [
            ("stream.balance.max_imbalance", true),
            ("stream.compact.parallel_ms", false),
            ("stream.ingest.batches", true),
            ("stream.store.lookups", false),
        ];
        let mut r = MetricsRegistry::new();
        r.counter_add("stream.ingest.batches", 3);
        r.counter_add("stream.store.lookups", 17);
        r.gauge_set("stream.compact.parallel_ms", 2.5);
        r.observe("span.ingest_us", 1234);
        r.gauge_set("stream.balance.max_imbalance", 0.05);
        let det = r.deterministic_json(&allow);
        assert!(det.contains("stream.ingest.batches"));
        assert!(det.contains("stream.balance.max_imbalance"));
        // Marked non-deterministic: a wall-clock and a traffic count.
        assert!(!det.contains("stream.compact.parallel_ms"));
        assert!(!det.contains("stream.store.lookups"));
        // Not on the allowlist at all: a span-derived latency histogram.
        assert!(!det.contains("span.ingest_us"));
        assert!(!det.contains("\"spans\""));
        assert!(!det.contains("\"journal\""));
        // The full dump keeps every name.
        assert!(r.render_json().contains("stream.store.lookups"));
    }

    #[test]
    fn render_json_round_trips_through_validate_dump() {
        let mut r = MetricsRegistry::new();
        r.counter_add("stream.ingest.batches", 2);
        r.gauge_set("stream.balance.max_imbalance", 0.031);
        r.observe("core.gd.refine_iterations", 12);
        r.observe("core.gd.refine_iterations", 30);
        let tree = SpanTree::new();
        {
            let _root = tree.span("ingest");
            let _p = tree.span("place");
        }
        r.absorb_spans(&tree.snapshot()[0]);
        r.journal_event("refine.pass", &[("moves", 4.0)]);
        r.journal_event("compact.purge", &[("live", 100.0)]);

        let json = r.render_json();
        let allow = [
            ("stream.ingest.batches", true),
            ("stream.balance.max_imbalance", true),
            ("core.gd.refine_iterations", true),
        ];
        let stats = validate_dump(&json, &allow).expect("dump validates");
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.gauges, 1);
        // core.gd.refine_iterations + span.ingest_us + span.ingest.place_us
        assert_eq!(stats.histograms, 3);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.journal_events, 2);
    }

    #[test]
    fn validate_dump_rejects_unknown_metric_typos() {
        let mut r = MetricsRegistry::new();
        r.counter_add("stream.ingset.batches", 1); // typo
        let err = validate_dump(&r.render_json(), &[("stream.ingest.batches", true)]).unwrap_err();
        assert!(err.contains("ingset"), "unexpected error: {err}");
    }

    #[test]
    fn validate_dump_rejects_child_sum_exceeding_parent() {
        // Hand-craft a dump whose children exceed the parent by more than the
        // tolerance.
        let json = r#"{
  "counters": {
  },
  "gauges": {
  },
  "histograms": {
  },
  "spans": {
    "ingest": {"count": 1, "total_ms": 10.0},
    "ingest.place": {"count": 1, "total_ms": 8.0},
    "ingest.refine": {"count": 1, "total_ms": 9.0}
  },
  "journal": {
    "next_seq": 0,
    "dropped": 0,
    "events": [
    ]
  }
}
"#;
        let err = validate_dump(json, &[]).unwrap_err();
        assert!(err.contains("exceeds parent"), "unexpected error: {err}");
    }

    #[test]
    fn validate_dump_requires_all_sections() {
        let err = validate_dump("{\n  \"counters\": {\n  }\n}\n", &[]).unwrap_err();
        assert!(err.contains("missing required section"));
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let mut r = MetricsRegistry::new();
        r.counter_add("stream.ingest.batches", 7);
        r.observe("core.gd.refine_iterations", 5);
        let text = r.render_text();
        assert!(text.contains("# TYPE stream_ingest_batches counter"));
        assert!(text.contains("stream_ingest_batches 7"));
        assert!(text.contains("core_gd_refine_iterations{quantile=\"0.99\"} 5"));
        assert!(text.contains("core_gd_refine_iterations_count 1"));
    }

    #[test]
    fn counter_set_mirrors_absolute_values() {
        let mut r = MetricsRegistry::new();
        r.counter_set("stream.store.lookups", 42);
        r.counter_set("stream.store.lookups", 99);
        assert_eq!(r.counter("stream.store.lookups"), 99);
    }

    #[test]
    fn json_floats_are_finite_or_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn merged_histograms_match_one_histogram() {
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        let mut whole = Histogram::default();
        for (i, v) in [0u64, 1, 3, 7, 120, 120, 4096, u64::MAX]
            .into_iter()
            .enumerate()
        {
            let part = if i % 3 == 0 { &mut left } else { &mut right };
            part.observe(v);
            whole.observe(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.sum(), u64::MAX, "the sum saturates");
        assert_eq!(left.summary(), whole.summary());
        // An empty histogram is the merge's identity.
        left.merge(&Histogram::default());
        assert_eq!(left.summary(), whole.summary());
    }

    #[test]
    fn histograms_recorded_per_thread_merge_exactly() {
        let parts: Vec<Histogram> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        let mut h = Histogram::default();
                        for i in 0..1000u64 {
                            h.observe(t * 1000 + i);
                        }
                        h
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut merged = Histogram::default();
        for h in &parts {
            merged.merge(h);
        }
        assert_eq!(merged.count(), 4000);
        assert_eq!(merged.max(), 3999);
        assert_eq!(merged.sum(), (0..4000u64).sum::<u64>());
    }

    #[test]
    fn histogram_set_mirrors_external_state() {
        let mut external = Histogram::default();
        external.observe(10);
        external.observe(500);
        let mut r = MetricsRegistry::new();
        r.histogram_set("stream.store.lookup_ns", &external);
        let s = r.summary("stream.store.lookup_ns").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 500);
        // Set semantics: a later sync overwrites, never accumulates.
        external.observe(9000);
        r.histogram_set("stream.store.lookup_ns", &external);
        let s = r.summary("stream.store.lookup_ns").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 9000);
    }
}
