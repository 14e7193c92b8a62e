//! Perf-regression gate for the `stream_online` bench.
//!
//! CI compares every run against a committed baseline (`BENCH_stream.json`
//! and its siblings at the workspace root). Raw wall-clock is useless
//! across heterogeneous runners, so the gated metric is the run's
//! **normalized wall-clock**: incremental maintenance time divided by the
//! from-scratch GD time *measured in the same process on the same
//! machine* (the reciprocal of the bench's headline speedup). A >30%
//! regression of that ratio — the incremental path getting slower relative
//! to the hardware's own scratch solve — fails the gate, as does any ε
//! violation or a collapse in edge locality (quality regressions are not
//! an acceptable way to buy speed).
//!
//! [`PerfRecord`] has one versionless schema: [`PerfRecord::to_json`]
//! writes every key, and [`PerfRecord::from_json`] requires every key and
//! rejects unknown ones, so a baseline either describes a run of today's
//! bench or fails to load with the offending key named. The JSON is a
//! small subset (numbers, booleans, plain strings, objects, arrays) read
//! back by the parser below instead of a vendored serde.

use mdbgp_obs::MetricsRegistry;
use mdbgp_stream::StageTimings;
use std::collections::BTreeMap;

/// Per-batch measurements of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPerf {
    pub batch: usize,
    /// Incremental ingest wall-clock for this batch, milliseconds.
    pub inc_ms: f64,
    /// From-scratch GD wall-clock after this batch, ms (0 on batches the
    /// run did not anchor; see [`PerfRecord::scratch_total_ms`]).
    pub scratch_ms: f64,
    /// Cut edges of the incremental partition after the batch.
    pub cut_edges: usize,
    /// Post-batch max imbalance of the incremental partition.
    pub imbalance: f64,
    /// Post-batch edge locality of the incremental partition.
    pub locality: f64,
}

/// The batch script a run drives (`stream_online --shape`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every batch brings the full arrival count; `churn` removes that
    /// fraction of the arrivals and extra edges.
    Uniform,
    /// Odd batches shrink — an eighth of the arrivals and more vertex
    /// removals than arrivals, so tombstones outlive id recycling and
    /// compactions purge — and even batches grow like [`Shape::Uniform`].
    GrowShrink,
}

impl Shape {
    /// The `--shape` value naming this script.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Uniform => "uniform",
            Shape::GrowShrink => "grow-shrink",
        }
    }

    /// Parses a `--shape` value.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "uniform" => Ok(Shape::Uniform),
            "grow-shrink" => Ok(Shape::GrowShrink),
            other => Err(format!(
                "unknown shape '{other}' (expected uniform or grow-shrink)"
            )),
        }
    }
}

/// The workload a record measured: every flag that shapes the update
/// stream, the engine's thread count and the modes that run beside the
/// stream. Two records compare only if their specs are equal.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    pub shape: Shape,
    /// Bootstrap vertex count.
    pub n: usize,
    pub batches: usize,
    /// Arrivals per (growing) batch.
    pub arrivals: usize,
    pub extra_edges: usize,
    /// Weight-drift updates per batch, concentrated on shard 0.
    pub drift: usize,
    /// Removals per batch as a fraction of arrivals and extra edges.
    pub churn: f64,
    /// [`mdbgp_stream::StreamConfig::compact_slack`].
    pub compact_slack: f64,
    pub k: usize,
    pub eps: f64,
    pub seed: u64,
    pub threads: usize,
    /// Kill-and-resume every N batches (0 = never).
    pub snapshot_every: usize,
    /// Reader threads serving lookups during ingest.
    pub readers: usize,
    /// In-process followers replaying the leader's log.
    pub followers: usize,
    /// Log rotation period in batches (0 without followers).
    pub rotate_every: usize,
}

impl WorkloadSpec {
    /// `(key, JSON value)` in record order: the one list the writer and
    /// the mismatch check walk.
    fn entries(&self) -> [(&'static str, String); 16] {
        [
            ("shape", format!("\"{}\"", self.shape.name())),
            ("n", self.n.to_string()),
            ("batches", self.batches.to_string()),
            ("arrivals", self.arrivals.to_string()),
            ("extra_edges", self.extra_edges.to_string()),
            ("drift", self.drift.to_string()),
            ("churn", self.churn.to_string()),
            ("compact_slack", self.compact_slack.to_string()),
            ("k", self.k.to_string()),
            ("eps", self.eps.to_string()),
            ("seed", self.seed.to_string()),
            ("threads", self.threads.to_string()),
            ("snapshot_every", self.snapshot_every.to_string()),
            ("readers", self.readers.to_string()),
            ("followers", self.followers.to_string()),
            ("rotate_every", self.rotate_every.to_string()),
        ]
    }

    /// Every key whose value differs, as `key (self vs other)`.
    pub fn mismatches(&self, other: &Self) -> Vec<String> {
        self.entries()
            .into_iter()
            .zip(other.entries())
            .filter(|(a, b)| a.1 != b.1)
            .map(|((key, a), (_, b))| format!("{key} ({a} vs {b})"))
            .collect()
    }

    fn from_fields(mut f: Fields) -> Result<Self, String> {
        let spec = Self {
            shape: Shape::parse(&f.text("shape")?)?,
            n: f.count("n")?,
            batches: f.count("batches")?,
            arrivals: f.count("arrivals")?,
            extra_edges: f.count("extra_edges")?,
            drift: f.count("drift")?,
            churn: f.num("churn")?,
            compact_slack: f.num("compact_slack")?,
            k: f.count("k")?,
            eps: f.num("eps")?,
            seed: f.count("seed")? as u64,
            threads: f.count("threads")?,
            snapshot_every: f.count("snapshot_every")?,
            readers: f.count("readers")?,
            followers: f.count("followers")?,
            rotate_every: f.count("rotate_every")?,
        };
        f.finish()?;
        Ok(spec)
    }
}

/// Floor (milliseconds) below which a scratch leg cannot anchor the
/// normalized wall-clock: the record serializes at millisecond precision,
/// so a sub-floor denominator is mostly rounding noise — and a runner fast
/// enough to get there turns the ratio into `inf`/NaN garbage that poisons
/// every later `--check-against`. [`check_regression`] rejects such
/// records with a named error instead of gating on the poisoned ratio.
pub const MIN_SCRATCH_MS: f64 = 0.5;

/// One `stream_online` run: the workload, its quality, the timings the
/// gates read, the engine's counters and the per-batch rows.
#[derive(Clone, Debug)]
pub struct PerfRecord {
    pub spec: WorkloadSpec,
    /// Logical CPUs of the host that ran the record. Host information,
    /// never compared: it explains a scaling check on a small host.
    pub nproc: usize,
    /// Whether every batch ended within ε.
    pub eps_ok: bool,
    /// Edge locality after the final batch.
    pub final_locality: f64,
    /// Max imbalance after the final batch.
    pub final_imbalance: f64,
    /// Total incremental wall-clock across batches, ms.
    pub inc_total_ms: f64,
    /// Total from-scratch GD wall-clock, ms: one solve after every batch
    /// on ingest-only runs, one after the last batch with readers or
    /// followers.
    pub scratch_total_ms: f64,
    /// Ingest wall-clock per pipeline stage, summed across batches.
    pub stages: StageTimings,
    /// Per-batch refine-stage p99 (`span.ingest.refine_us`), ms.
    pub refine_p99_ms: f64,
    /// GD iterations per pair solve (`core.gd.refine_iterations`), p50.
    pub refine_iters_p50: u64,
    /// GD iterations per pair solve, p99.
    pub refine_iters_p99: u64,
    /// Kill-and-resume cycles the run performed.
    pub snapshots: usize,
    pub snapshot_save_total_ms: f64,
    pub snapshot_restore_total_ms: f64,
    /// p99 lookup latency on the published-view read path
    /// (`stream.store.lookup_us`), µs; 0 without readers.
    pub lookup_p99_us: f64,
    /// Log records replayed across every follower.
    pub replay_batches: usize,
    /// Follower replay wall-clock summed over followers and batches, ms.
    pub replay_total_ms: f64,
    /// Every counter of the engine's metrics registry (the leader's with
    /// followers), by name. A counter the registry never recorded reads
    /// 0, as it does in the registry: see [`Self::counter`].
    pub counters: BTreeMap<String, u64>,
    pub batches: Vec<BatchPerf>,
}

/// Copies every counter of `m` by name — the [`PerfRecord::counters`]
/// source.
pub fn registry_counters(m: &MetricsRegistry) -> BTreeMap<String, u64> {
    m.metric_names()
        .into_iter()
        .filter(|name| m.gauge(name).is_none() && m.histogram(name).is_none())
        .map(|name| (name.to_string(), m.counter(name)))
        .collect()
}

impl PerfRecord {
    /// Normalized wall-clock: incremental time per unit of scratch time on
    /// the same machine (lower is better; `1 / speedup`). The denominator
    /// is clamped to [`MIN_SCRATCH_MS`] so a degenerate record can never
    /// produce `inf`/NaN — but [`check_regression`] refuses to gate on a
    /// clamped record at all (see [`MIN_SCRATCH_MS`]).
    pub fn normalized_wallclock(&self) -> f64 {
        self.inc_total_ms / self.scratch_total_ms.max(MIN_SCRATCH_MS)
    }

    /// Headline speedup `scratch_total_ms / inc_total_ms`.
    pub fn speedup(&self) -> f64 {
        self.scratch_total_ms / self.inc_total_ms.max(1e-9)
    }

    /// Counter `name`, 0 when the registry never recorded it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes every key (stable order, 2-space indent, one key per
    /// line) so baselines diff cleanly in review.
    pub fn to_json(&self) -> String {
        let s = &self.stages;
        let top = [
            ("spec", object(2, self.spec.entries())),
            ("nproc", self.nproc.to_string()),
            ("eps_ok", self.eps_ok.to_string()),
            ("final_locality", format!("{:.4}", self.final_locality)),
            ("final_imbalance", format!("{:.6}", self.final_imbalance)),
            ("inc_total_ms", format!("{:.3}", self.inc_total_ms)),
            ("scratch_total_ms", format!("{:.3}", self.scratch_total_ms)),
            ("validate_total_ms", format!("{:.3}", s.validate_ms)),
            ("split_total_ms", format!("{:.3}", s.split_ms)),
            ("place_total_ms", format!("{:.3}", s.place_ms)),
            ("repair_total_ms", format!("{:.3}", s.repair_ms)),
            ("commit_total_ms", format!("{:.3}", s.commit_ms)),
            ("refine_total_ms", format!("{:.3}", s.refine_ms)),
            ("refine_p99_ms", format!("{:.3}", self.refine_p99_ms)),
            ("refine_iters_p50", self.refine_iters_p50.to_string()),
            ("refine_iters_p99", self.refine_iters_p99.to_string()),
            ("snapshots", self.snapshots.to_string()),
            (
                "snapshot_save_total_ms",
                format!("{:.3}", self.snapshot_save_total_ms),
            ),
            (
                "snapshot_restore_total_ms",
                format!("{:.3}", self.snapshot_restore_total_ms),
            ),
            ("lookup_p99_us", format!("{:.3}", self.lookup_p99_us)),
            ("replay_batches", self.replay_batches.to_string()),
            ("replay_total_ms", format!("{:.3}", self.replay_total_ms)),
            (
                "counters",
                object(2, self.counters.iter().map(|(k, v)| (k, v.to_string()))),
            ),
            ("batches", {
                let rows: Vec<String> = self
                    .batches
                    .iter()
                    .map(|b| {
                        format!(
                            "    {{\"batch\": {}, \"inc_ms\": {:.3}, \"scratch_ms\": {:.3}, \
                             \"cut_edges\": {}, \"imbalance\": {:.6}, \"locality\": {:.4}}}",
                            b.batch, b.inc_ms, b.scratch_ms, b.cut_edges, b.imbalance, b.locality
                        )
                    })
                    .collect();
                format!("[\n{}\n  ]", rows.join(",\n"))
            }),
        ];
        object(0, top) + "\n"
    }

    /// Parses the schema written by [`Self::to_json`]. Every key is
    /// required and unknown keys are errors; whitespace and key order are
    /// free.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut f = Fields::new("record", Json::parse(text)?)?;
        let spec = WorkloadSpec::from_fields(f.object("spec")?)?;
        let mut record = Self {
            spec,
            nproc: f.count("nproc")?,
            eps_ok: f.flag("eps_ok")?,
            final_locality: f.num("final_locality")?,
            final_imbalance: f.num("final_imbalance")?,
            inc_total_ms: f.num("inc_total_ms")?,
            scratch_total_ms: f.num("scratch_total_ms")?,
            stages: StageTimings {
                validate_ms: f.num("validate_total_ms")?,
                split_ms: f.num("split_total_ms")?,
                place_ms: f.num("place_total_ms")?,
                repair_ms: f.num("repair_total_ms")?,
                commit_ms: f.num("commit_total_ms")?,
                refine_ms: f.num("refine_total_ms")?,
            },
            refine_p99_ms: f.num("refine_p99_ms")?,
            refine_iters_p50: f.count("refine_iters_p50")? as u64,
            refine_iters_p99: f.count("refine_iters_p99")? as u64,
            snapshots: f.count("snapshots")?,
            snapshot_save_total_ms: f.num("snapshot_save_total_ms")?,
            snapshot_restore_total_ms: f.num("snapshot_restore_total_ms")?,
            lookup_p99_us: f.num("lookup_p99_us")?,
            replay_batches: f.count("replay_batches")?,
            replay_total_ms: f.num("replay_total_ms")?,
            counters: BTreeMap::new(),
            batches: Vec::new(),
        };
        let mut counters = f.object("counters")?;
        while let Some(name) = counters.entries.first().map(|(k, _)| k.clone()) {
            let value = counters.count(&name)?;
            record.counters.insert(name, value as u64);
        }
        let Json::Arr(rows) = f.take("batches")? else {
            return Err("\"batches\" is not an array".into());
        };
        for row in rows {
            let mut b = Fields::new("batch entry", row)?;
            record.batches.push(BatchPerf {
                batch: b.count("batch")?,
                inc_ms: b.num("inc_ms")?,
                scratch_ms: b.num("scratch_ms")?,
                cut_edges: b.count("cut_edges")?,
                imbalance: b.num("imbalance")?,
                locality: b.num("locality")?,
            });
            b.finish()?;
        }
        f.finish()?;
        Ok(record)
    }
}

/// Renders `"key": value` entries as a JSON object, one entry per line,
/// closing at `indent` spaces.
fn object<K: std::fmt::Display>(
    indent: usize,
    entries: impl IntoIterator<Item = (K, String)>,
) -> String {
    let pad = " ".repeat(indent + 2);
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{pad}\"{k}\": {v}"))
        .collect();
    if body.is_empty() {
        return "{}".into();
    }
    format!("{{\n{}\n{}}}", body.join(",\n"), " ".repeat(indent))
}

/// A parsed JSON value of the subset the record uses (strings carry no
/// escapes).
#[derive(Debug)]
enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut rest = text;
        let value = Self::value(&mut rest)?;
        match rest.trim() {
            "" => Ok(value),
            tail => Err(format!("trailing text '{}'", &tail[..tail.len().min(16)])),
        }
    }

    /// Consumes `c`, after any whitespace, if it comes next.
    fn eat(rest: &mut &str, c: char) -> bool {
        let tail = rest.trim_start().strip_prefix(c);
        *rest = tail.unwrap_or(rest);
        tail.is_some()
    }

    fn value(rest: &mut &str) -> Result<Json, String> {
        if Self::eat(rest, '"') {
            let end = rest.find('"').ok_or("unterminated string")?;
            let text = rest[..end].to_string();
            *rest = &rest[end + 1..];
            return Ok(Json::Str(text));
        }
        let close = match () {
            () if Self::eat(rest, '{') => '}',
            () if Self::eat(rest, '[') => ']',
            () => {
                *rest = rest.trim_start();
                let end = rest
                    .find(|c: char| matches!(c, ',' | '}' | ']') || c.is_whitespace())
                    .unwrap_or(rest.len());
                let token = &rest[..end];
                *rest = &rest[end..];
                return match token {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    _ => token
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("malformed value '{token}'")),
                };
            }
        };
        let mut items = Vec::new();
        while !Self::eat(rest, close) {
            if !items.is_empty() && !Self::eat(rest, ',') {
                return Err(format!("expected ',' or '{close}'"));
            }
            let key = match close {
                '}' => match Self::value(rest)? {
                    Json::Str(key) if Self::eat(rest, ':') => key,
                    other => return Err(format!("expected a \"key\": pair, got {other:?}")),
                },
                _ => String::new(),
            };
            items.push((key, Self::value(rest)?));
        }
        Ok(match close {
            '}' => Json::Obj(items),
            _ => Json::Arr(items.into_iter().map(|(_, v)| v).collect()),
        })
    }
}

/// A parsed JSON object whose keys are consumed as they are read, so
/// [`Fields::finish`] can reject the ones no reader asked for.
struct Fields {
    what: String,
    entries: Vec<(String, Json)>,
}

impl Fields {
    fn new(what: &str, value: Json) -> Result<Self, String> {
        match value {
            Json::Obj(entries) => Ok(Self {
                what: what.to_string(),
                entries,
            }),
            _ => Err(format!("{what} is not an object")),
        }
    }

    fn take(&mut self, key: &str) -> Result<Json, String> {
        let at = self
            .entries
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("{} is missing \"{key}\"", self.what))?;
        Ok(self.entries.remove(at).1)
    }

    fn num(&mut self, key: &str) -> Result<f64, String> {
        match self.take(key)? {
            Json::Num(v) => Ok(v),
            other => Err(format!("\"{key}\" is not a number: {other:?}")),
        }
    }

    fn count(&mut self, key: &str) -> Result<usize, String> {
        match self.num(key)? {
            v if v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
            v => Err(format!("\"{key}\" is not a count: {v}")),
        }
    }

    fn flag(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key)? {
            Json::Bool(v) => Ok(v),
            other => Err(format!("\"{key}\" is not a boolean: {other:?}")),
        }
    }

    fn text(&mut self, key: &str) -> Result<String, String> {
        match self.take(key)? {
            Json::Str(v) => Ok(v),
            other => Err(format!("\"{key}\" is not a string: {other:?}")),
        }
    }

    fn object(&mut self, key: &str) -> Result<Fields, String> {
        let value = self.take(key)?;
        Fields::new(&format!("\"{key}\""), value)
    }

    fn finish(self) -> Result<(), String> {
        match self.entries.first() {
            Some((key, _)) => Err(format!("{} has unknown key \"{key}\"", self.what)),
            None => Ok(()),
        }
    }
}

/// Allowed regression of the placement-stage normalized wall-clock.
/// Wider than the total-wall-clock band: the stage totals are a few
/// milliseconds, so scheduler jitter moves them proportionally more —
/// while the regressions this gate exists for (a serialized chunk fan-out,
/// an accidentally quadratic scoring sweep) cost well over 2×.
pub const PLACE_STAGE_REGRESSION: f64 = 0.75;

/// Baseline stage wall-clock (ms) below which the stage, refine-tail and
/// replay gates stay silent — a sub-millisecond total is rounding noise.
pub const MIN_STAGE_MS: f64 = 1.0;

/// Allowed regression of the snapshot save+restore normalized wall-clock
/// (the kill-and-resume CI leg's committed bound). Like the placement
/// band, wider than the total-wall-clock budget: the snapshot totals are
/// small and jittery, while the regressions the gate exists for — an
/// accidentally quadratic serializer, a restore that re-solves instead of
/// deserializing — cost multiples.
pub const SNAPSHOT_REGRESSION: f64 = 1.0;

/// Allowed regression of the machine-normalized p99 lookup latency (the
/// serving leg's committed bound). Wide like the other small-quantity
/// bands: a single lookup is microseconds, so scheduler jitter moves the
/// p99 proportionally more than it moves the totals — while the
/// regressions this gate exists for (a lock on the lookup path, a re-pin
/// per call, a view rebuilt per lookup) cost well over 2×.
pub const LOOKUP_REGRESSION: f64 = 1.0;

/// Allowed regression of the machine-normalized follower replay lag (the
/// replication leg's committed bound). Replay is ingest re-run, so its
/// wall-clock inherits all of ingest's jitter on a small leg — hence the
/// wide band, like the other small-quantity gates. The regressions it
/// exists for (a follower that re-verifies the whole log per record, a
/// wire decode gone quadratic) cost well over 2×.
pub const REPLAY_REGRESSION: f64 = 1.0;

/// Floor (µs) a baseline p99 lookup latency is clamped to before the
/// lookup gate compares. The serving histogram quantizes at microsecond
/// resolution and a healthy lookup is tens of nanoseconds, so committed
/// baselines routinely record a p99 of 0 — clamping (rather than
/// disabling, as the stage gates do) keeps the gate armed against the
/// regressions it exists for, which cost tens of microseconds.
pub const MIN_LOOKUP_P99_US: f64 = 1.0;

/// Gate verdict: `Err` carries the human-readable failure reasons.
///
/// * ε violated in the current run → fail (regardless of the baseline);
/// * any [`WorkloadSpec`] key differs from the baseline's → fail, naming
///   every differing key (a different workload, not a comparison);
/// * a scratch leg under [`MIN_SCRATCH_MS`] on either side → fail with a
///   named error (the normalized ratio would be rounding noise);
/// * normalized wall-clock (`1/speedup`) regressed more than
///   `max_regression` (e.g. `0.30`) relative to the baseline → fail;
/// * final edge locality dropped more than 10 points below baseline →
///   fail (don't let the gate reward trading quality for speed);
/// * `stream.refine.full_scans` exceeded the baseline's count (the count
///   is deterministic for a fixed workload) → fail — the composite
///   relief-key heaps must not regress toward full rescans;
/// * the **snapshot** normalized wall-clock (`(save + restore) /
///   scratch`) regressed more than [`SNAPSHOT_REGRESSION`] → fail, so the
///   kill-and-resume leg's warm-restart cost stays bounded (engaged only
///   when the baseline recorded a measurable snapshot total);
/// * the **placement-stage** normalized wall-clock
///   (`(place + repair) / scratch`) regressed more than
///   [`PLACE_STAGE_REGRESSION`] → fail. The total gate alone cannot catch
///   this: on a refinement-heavy leg a 4× placement slowdown hides inside
///   the 30% total budget, which is exactly how a serialized speculative
///   stage would ship. Engaged only when the baseline's placement stage
///   is at least [`MIN_STAGE_MS`];
/// * the **refine-stage p99** (machine-normalized) regressed more than
///   `max_regression` → fail. Stage totals let one pathological batch
///   average away; the p99 catches the tail. Engaged only when the
///   baseline tail is at least [`MIN_STAGE_MS`];
/// * with readers on both sides, the **p99 lookup latency**
///   (machine-normalized) regressed more than [`LOOKUP_REGRESSION`] →
///   fail; a sub-floor baseline tail is clamped to [`MIN_LOOKUP_P99_US`]
///   rather than silencing the gate;
/// * with followers on both sides, the **follower replay lag**
///   (machine-normalized) regressed more than [`REPLAY_REGRESSION`] →
///   fail, engaged only when the baseline's replay total is at least
///   [`MIN_STAGE_MS`].
pub fn check_regression(
    current: &PerfRecord,
    baseline: &PerfRecord,
    max_regression: f64,
) -> Result<(), String> {
    let mut reasons = Vec::new();
    let mismatches = current.spec.mismatches(&baseline.spec);
    if !mismatches.is_empty() {
        reasons.push(format!(
            "workload mismatch, run vs baseline: {} — gate a run only against a baseline \
             recorded with the same stream flags",
            mismatches.join(", ")
        ));
    }
    for (who, rec) in [("current run", current), ("baseline", baseline)] {
        if rec.scratch_total_ms < MIN_SCRATCH_MS {
            reasons.push(format!(
                "unusable scratch reference: {who}'s scratch leg took {:.4} ms, below the \
                 {MIN_SCRATCH_MS} ms floor — the normalized wall-clock denominator is \
                 rounding noise on this runner; rerun with a larger --n/--batches",
                rec.scratch_total_ms
            ));
        }
    }
    if !current.eps_ok {
        reasons.push("current run violated the ε guarantee".to_string());
    }
    let (cur, base) = (
        current.normalized_wallclock(),
        baseline.normalized_wallclock(),
    );
    if cur > base * (1.0 + max_regression) {
        reasons.push(format!(
            "normalized wall-clock regressed {:.0}% (limit {:.0}%): \
             {:.4} vs baseline {:.4} (speedup {:.1}x vs {:.1}x)",
            (cur / base - 1.0) * 100.0,
            max_regression * 100.0,
            cur,
            base,
            current.speedup(),
            baseline.speedup(),
        ));
    }
    if current.final_locality < baseline.final_locality - 0.10 {
        reasons.push(format!(
            "final locality collapsed: {:.1}% vs baseline {:.1}%",
            current.final_locality * 100.0,
            baseline.final_locality * 100.0
        ));
    }
    // Every timing band below compares a quantity per unit of the same
    // record's scratch time, so machine speed cancels out.
    let band = |what: &str, unit: &str, cur: f64, base: f64, limit: f64| -> Option<String> {
        let cur_ratio = cur / current.scratch_total_ms.max(MIN_SCRATCH_MS);
        let base_ratio = base / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
        (cur_ratio > base_ratio * (1.0 + limit)).then(|| {
            format!(
                "{what} regressed {:.0}% (limit {:.0}%): {cur:.1} {unit} ({cur_ratio:.6} \
                 normalized) vs baseline {base:.1} {unit} ({base_ratio:.6})",
                (cur_ratio / base_ratio - 1.0) * 100.0,
                limit * 100.0,
            )
        })
    };
    let place = |r: &PerfRecord| r.stages.place_ms + r.stages.repair_ms;
    if place(baseline) >= MIN_STAGE_MS && place(current) > 0.0 {
        reasons.extend(band(
            "placement stage (place+repair)",
            "ms",
            place(current),
            place(baseline),
            PLACE_STAGE_REGRESSION,
        ));
    }
    let snap = |r: &PerfRecord| r.snapshot_save_total_ms + r.snapshot_restore_total_ms;
    if snap(baseline) >= MIN_STAGE_MS && snap(current) > 0.0 {
        reasons.extend(band(
            "snapshot overhead (save+restore)",
            "ms",
            snap(current),
            snap(baseline),
            SNAPSHOT_REGRESSION,
        ));
    }
    if baseline.refine_p99_ms >= MIN_STAGE_MS && current.refine_p99_ms > 0.0 {
        reasons.extend(
            band(
                "refine-stage p99",
                "ms",
                current.refine_p99_ms,
                baseline.refine_p99_ms,
                max_regression,
            )
            .map(|r| {
                format!(
                    "{r} (refine_iters p99 {} vs baseline {})",
                    current.refine_iters_p99, baseline.refine_iters_p99
                )
            }),
        );
    }
    if current.spec.readers > 0 && baseline.spec.readers > 0 {
        // A sub-floor baseline *clamps* instead of disarming: a healthy
        // read path measures 0 µs at histogram resolution, and a lock or
        // per-call rebuild must still fire against that baseline.
        reasons.extend(band(
            "lookup p99",
            "µs",
            current.lookup_p99_us,
            baseline.lookup_p99_us.max(MIN_LOOKUP_P99_US),
            LOOKUP_REGRESSION,
        ));
    }
    if current.spec.followers > 0
        && baseline.spec.followers > 0
        && baseline.replay_total_ms >= MIN_STAGE_MS
        && current.replay_total_ms > 0.0
    {
        reasons.extend(band(
            "follower replay lag",
            "ms",
            current.replay_total_ms,
            baseline.replay_total_ms,
            REPLAY_REGRESSION,
        ));
    }
    const FULL_SCANS: &str = "stream.refine.full_scans";
    let (cur, base) = (current.counter(FULL_SCANS), baseline.counter(FULL_SCANS));
    if cur > base {
        // Deterministic for a fixed workload (seeded, thread-invariant),
        // so any increase is a real candidate-quality regression of the
        // rebalance heaps, not noise.
        reasons.push(format!(
            "rebalance full scans increased: {cur} vs baseline {base} — the composite \
             relief-key heaps are letting more steps fall back to full membership rescans"
        ));
    }
    if reasons.is_empty() {
        Ok(())
    } else {
        Err(reasons.join("; "))
    }
}

/// Same-machine parallel-scaling check: the multi-threaded run's
/// incremental wall-clock must beat the serial run's by at least
/// `min_speedup` (e.g. `1.2`), and the two runs must have driven the same
/// stream — their specs may differ only in `threads`. Both records come
/// from the same CI job, so raw wall-clock *is* comparable here. This is
/// what catches a silently serialized `par_map` / round scheduler — the
/// baseline gate alone cannot, because it never compares thread counts.
pub fn check_parallel_speedup(
    parallel: &PerfRecord,
    serial: &PerfRecord,
    min_speedup: f64,
) -> Result<(), String> {
    let same_threads = WorkloadSpec {
        threads: parallel.spec.threads,
        ..serial.spec.clone()
    };
    let mismatches = parallel.spec.mismatches(&same_threads);
    if !mismatches.is_empty() {
        return Err(format!(
            "the records ran different streams: {} (parallel vs serial) — a scaling check \
             compares runs that differ only in threads",
            mismatches.join(", ")
        ));
    }
    if parallel.spec.threads <= serial.spec.threads {
        return Err(format!(
            "parallel record uses {} threads, serial record {} — nothing to compare",
            parallel.spec.threads, serial.spec.threads
        ));
    }
    let achieved = serial.inc_total_ms / parallel.inc_total_ms.max(1e-9);
    if achieved < min_speedup {
        return Err(format!(
            "threads={} incremental path is only {achieved:.2}x the threads={} run \
             (need >= {min_speedup:.2}x): {:.1}ms vs {:.1}ms on a host with {} CPUs",
            parallel.spec.threads,
            serial.spec.threads,
            parallel.inc_total_ms,
            serial.inc_total_ms,
            parallel.nproc
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            shape: Shape::Uniform,
            n: 20_000,
            batches: 5,
            arrivals: 400,
            extra_edges: 300,
            drift: 150,
            churn: 0.0,
            compact_slack: 0.15,
            k: 8,
            eps: 0.05,
            seed: 42,
            threads: 1,
            snapshot_every: 3,
            readers: 4,
            followers: 2,
            rotate_every: 4,
        }
    }

    /// Every time-valued field derives from `inc` so a slower machine
    /// (`inc` and `scratch` scaled together) cancels out of every gate;
    /// counts are machine-independent and stay fixed.
    fn record(inc: f64, scratch: f64, eps_ok: bool, locality: f64) -> PerfRecord {
        PerfRecord {
            spec: spec(),
            nproc: 2,
            eps_ok,
            final_locality: locality,
            final_imbalance: 0.048,
            inc_total_ms: inc,
            scratch_total_ms: scratch,
            stages: StageTimings {
                validate_ms: inc * 0.05,
                split_ms: inc * 0.2,
                place_ms: inc * 0.4,
                repair_ms: inc * 0.05,
                commit_ms: inc * 0.1,
                refine_ms: inc * 0.2,
            },
            refine_p99_ms: inc * 0.3,
            refine_iters_p50: 8,
            refine_iters_p99: 24,
            snapshots: 2,
            snapshot_save_total_ms: inc * 0.1,
            snapshot_restore_total_ms: inc * 0.15,
            lookup_p99_us: inc * 0.4,
            replay_batches: 16,
            replay_total_ms: inc * 0.5,
            counters: [
                ("core.gd.grad_full_recomputes", 40),
                ("stream.place.conflicts", 17),
                ("stream.refine.full_scans", 2),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            batches: vec![
                BatchPerf {
                    batch: 1,
                    inc_ms: inc,
                    scratch_ms: scratch,
                    cut_edges: 1234,
                    imbalance: 0.048,
                    locality,
                },
                BatchPerf {
                    batch: 2,
                    inc_ms: inc,
                    scratch_ms: 0.0,
                    cut_edges: 1240,
                    imbalance: 0.047,
                    locality,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.spec.shape = Shape::GrowShrink;
        r.spec.churn = 0.4;
        let text = r.to_json();
        let parsed = PerfRecord::from_json(&text).unwrap();
        // The text is a fixed point, so every written key survives.
        assert_eq!(parsed.to_json(), text);
        assert_eq!(parsed.spec, r.spec);
        assert_eq!(parsed.counters, r.counters);
        assert_eq!(parsed.batches, r.batches);
        assert_eq!(parsed.counter("stream.refine.full_scans"), 2);
        assert_eq!(parsed.counter("never.recorded"), 0);
        assert!((parsed.speedup() - 60.0).abs() < 1e-3);
        assert!((parsed.stages.place_ms - 5.0).abs() < 1e-9);
        // An empty counters map and batch list still round-trip.
        r.counters.clear();
        r.batches.clear();
        let text = r.to_json();
        assert_eq!(PerfRecord::from_json(&text).unwrap().to_json(), text);
    }

    #[test]
    fn parser_rejects_missing_and_malformed_fields() {
        assert!(PerfRecord::from_json("{}").is_err());
        assert!(PerfRecord::from_json("{\"threads\": 1}").is_err());
        let text = record(10.0, 600.0, true, 0.6).to_json();
        // Every schema key — top level, spec and batch row — is required:
        // renaming any one of them is an error that names it. Counter
        // names (dotted registry names) are data, not schema.
        let pieces: Vec<&str> = text.split("\":").collect();
        let keys: std::collections::BTreeSet<&str> = pieces[..pieces.len() - 1]
            .iter()
            .map(|p| p.rsplit('"').next().unwrap())
            .filter(|k| !k.contains('.'))
            .collect();
        assert_eq!(keys.len(), 23 + 16 + 6, "{keys:?}");
        for key in keys {
            let renamed = text.replace(&format!("\"{key}\":"), &format!("\"{key}_x\":"));
            let err = PerfRecord::from_json(&renamed).unwrap_err();
            assert!(err.contains(&format!("missing \"{key}\"")), "{key}: {err}");
        }
        // Malformed values and unknown keys are errors too.
        let corrupted = text.replace("\"threads\": 1", "\"threads\": \"x\"");
        let err = PerfRecord::from_json(&corrupted).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        let corrupted = text.replace("\"eps_ok\": true", "\"eps_ok\": 1");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("eps_ok"));
        let corrupted = text.replace("\"shape\": \"uniform\"", "\"shape\": \"spiky\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("spiky"));
        let extra = text.replace("\"nproc\"", "\"legacy_key\": 0,\n  \"nproc\"");
        assert!(PerfRecord::from_json(&extra)
            .unwrap_err()
            .contains("unknown key \"legacy_key\""));
    }

    /// `r`'s JSON without the lines holding any of `keys` (none may be the
    /// last key of its object): a baseline written before the keys existed
    /// must fail to load naming one of them, not load with defaults.
    fn assert_refused_without(r: &PerfRecord, keys: &[&str]) {
        let older = r
            .to_json()
            .lines()
            .filter(|l| keys.iter().all(|k| !l.contains(&format!("\"{k}\":"))))
            .collect::<Vec<_>>()
            .join("\n");
        let err = PerfRecord::from_json(&older).unwrap_err();
        let named = keys
            .iter()
            .any(|k| err.contains(&format!("missing \"{k}\"")));
        assert!(named, "{keys:?}: {err}");
    }

    /// Replacing `key`'s value in `r`'s JSON by a string is an error that
    /// names `key`, not a default.
    fn assert_malformed_rejected(r: &PerfRecord, key: &str) {
        let text = r.to_json();
        let pat = format!("\"{key}\": ");
        let at = text.find(&pat).expect("key written") + pat.len();
        let end = at + text[at..].find([',', '\n']).unwrap();
        let corrupted = format!("{}\"x\"{}", &text[..at], &text[end..]);
        let err = PerfRecord::from_json(&corrupted).unwrap_err();
        assert!(err.contains(key), "{key}: {err}");
    }

    /// A record whose registry never counted `names`: they read 0 after a
    /// round trip, as in the registry, and are not written.
    fn assert_uncounted_read_zero(r: &PerfRecord, names: &[&str]) {
        let mut older = r.clone();
        older.counters.retain(|k, _| !names.contains(&k.as_str()));
        let parsed = PerfRecord::from_json(&older.to_json()).unwrap();
        for name in names {
            assert_eq!(parsed.counter(name), 0, "{name}");
            assert!(!parsed.to_json().contains(name), "{name}");
        }
    }

    #[test]
    fn churn_field_round_trips_and_defaults() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.spec.churn = 0.2;
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.spec.churn - 0.2).abs() < 1e-9);
        // A pre-churn baseline (no "churn" key) is refused instead of
        // defaulting to an add-only run; a malformed churn is an error.
        assert_refused_without(&r, &["churn"]);
        assert_malformed_rejected(&r, "churn");
    }

    #[test]
    fn pipeline_fields_round_trip_and_default_on_legacy_baselines() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.counters.insert("stream.place.repair_passes".into(), 3);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.stages.place_ms - 5.0).abs() < 1e-9);
        assert!((parsed.stages.repair_ms - 0.625).abs() < 1e-9);
        assert_eq!(parsed.counter("stream.place.conflicts"), 17);
        assert_eq!(parsed.counter("stream.place.repair_passes"), 3);
        assert_eq!(parsed.counter("stream.refine.full_scans"), 2);
        // A legacy baseline without stage totals is refused; pipeline
        // counters the registry never recorded read 0.
        assert_refused_without(
            &r,
            &[
                "validate_total_ms",
                "split_total_ms",
                "place_total_ms",
                "repair_total_ms",
                "commit_total_ms",
                "refine_total_ms",
            ],
        );
        assert_uncounted_read_zero(
            &r,
            &[
                "stream.place.conflicts",
                "stream.place.repair_passes",
                "stream.refine.full_scans",
            ],
        );
        assert_malformed_rejected(&r, "place_total_ms");
        assert_malformed_rejected(&r, "stream.place.conflicts");
    }

    #[test]
    fn snapshot_fields_round_trip_and_default_on_v2_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.snapshot_save_total_ms - 1.25).abs() < 1e-9);
        assert!((parsed.snapshot_restore_total_ms - 1.875).abs() < 1e-9);
        assert_eq!(parsed.snapshots, 2);
        assert_eq!(parsed.spec.snapshot_every, 3);
        let keys = [
            "snapshot_every",
            "snapshots",
            "snapshot_save_total_ms",
            "snapshot_restore_total_ms",
        ];
        assert_refused_without(&r, &keys[1..]);
        assert_refused_without(&r, &keys);
        assert_malformed_rejected(&r, "snapshot_save_total_ms");
    }

    #[test]
    fn quantiles_round_trip_and_default_on_v3_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.refine_iters_p50, 8);
        assert_eq!(parsed.refine_iters_p99, 24);
        assert!((parsed.refine_p99_ms - 3.75).abs() < 1e-9);
        assert_refused_without(
            &r,
            &["refine_p99_ms", "refine_iters_p50", "refine_iters_p99"],
        );
        assert_malformed_rejected(&r, "refine_p99_ms");
        assert_malformed_rejected(&r, "refine_iters_p99");
    }

    #[test]
    fn gd_counters_round_trip_and_default_on_v4_baselines() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.counters.insert("core.gd.grad_delta_iters".into(), 360);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.counter("core.gd.grad_full_recomputes"), 40);
        assert_eq!(parsed.counter("core.gd.grad_delta_iters"), 360);
        assert_uncounted_read_zero(
            &r,
            &["core.gd.grad_full_recomputes", "core.gd.grad_delta_iters"],
        );
        assert_malformed_rejected(&r, "core.gd.grad_delta_iters");
        // The counters live in the map now: the old top-level key is an
        // unknown key, so an old-schema baseline cannot load.
        let old = r
            .to_json()
            .replace("\"nproc\"", "\"gd_delta_iters\": 360,\n  \"nproc\"");
        assert!(PerfRecord::from_json(&old)
            .unwrap_err()
            .contains("unknown key \"gd_delta_iters\""));
    }

    #[test]
    fn lookup_fields_round_trip_and_default_on_v5_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.lookup_p99_us - 5.0).abs() < 1e-9);
        assert_eq!(parsed.spec.readers, 4);
        assert_refused_without(&r, &["lookup_p99_us"]);
        assert_refused_without(&r, &["readers", "lookup_p99_us"]);
        assert_malformed_rejected(&r, "lookup_p99_us");
        assert_malformed_rejected(&r, "readers");
    }

    #[test]
    fn stage_parallelism_fields_round_trip_and_default_on_v6_baselines() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.counters.insert("stream.split.parallel_ranges".into(), 12);
        r.counters.insert("stream.repair.spec_rounds".into(), 2);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.counter("stream.split.parallel_ranges"), 12);
        assert_eq!(parsed.counter("stream.repair.spec_rounds"), 2);
        assert_uncounted_read_zero(
            &r,
            &["stream.split.parallel_ranges", "stream.repair.spec_rounds"],
        );
        assert_malformed_rejected(&r, "stream.repair.spec_rounds");
        let old = r
            .to_json()
            .replace("\"nproc\"", "\"repair_spec_rounds\": 2,\n  \"nproc\"");
        assert!(PerfRecord::from_json(&old)
            .unwrap_err()
            .contains("unknown key \"repair_spec_rounds\""));
    }

    #[test]
    fn replication_fields_round_trip_and_default_on_v7_baselines() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.counters.insert("stream.log.bytes".into(), 8192);
        r.counters.insert("stream.log.rotations".into(), 2);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.replay_total_ms - 6.25).abs() < 1e-9);
        assert_eq!(parsed.replay_batches, 16);
        assert_eq!(parsed.spec.followers, 2);
        assert_eq!(parsed.spec.rotate_every, 4);
        assert_eq!(parsed.counter("stream.log.bytes"), 8192);
        assert_eq!(parsed.counter("stream.log.rotations"), 2);
        assert_refused_without(&r, &["replay_total_ms", "replay_batches", "followers"]);
        assert_uncounted_read_zero(&r, &["stream.log.bytes", "stream.log.rotations"]);
        assert_malformed_rejected(&r, "replay_total_ms");
        assert_malformed_rejected(&r, "followers");
    }

    #[test]
    fn committed_baselines_are_canonical_records() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for leg in [
            "",
            "_churn",
            "_place",
            "_refine",
            "_replicate",
            "_serve",
            "_snapshot",
        ] {
            let path = format!("{root}/BENCH_stream{leg}.json");
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            let record = PerfRecord::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(record.to_json(), text, "{path} is not in canonical form");
        }
    }

    #[test]
    fn gate_passes_equal_and_better_runs() {
        let base = record(10.0, 600.0, true, 0.60);
        assert!(check_regression(&base, &base, 0.30).is_ok());
        // 2x faster incremental path: obviously fine.
        let faster = record(5.0, 600.0, true, 0.60);
        assert!(check_regression(&faster, &base, 0.30).is_ok());
        // 25% slower: inside the 30% budget.
        let slower = record(12.5, 600.0, true, 0.60);
        assert!(check_regression(&slower, &base, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_regressions() {
        let base = record(10.0, 600.0, true, 0.60);
        // 50% slower normalized wall-clock.
        let slow = record(15.0, 600.0, true, 0.60);
        let err = check_regression(&slow, &base, 0.30).unwrap_err();
        assert!(err.contains("normalized wall-clock"), "{err}");
        // ε violation fails even when fast.
        let broken = record(1.0, 600.0, false, 0.60);
        assert!(check_regression(&broken, &base, 0.30)
            .unwrap_err()
            .contains("ε"));
        // Quality collapse fails even when fast.
        let hollow = record(1.0, 600.0, true, 0.40);
        assert!(check_regression(&hollow, &base, 0.30)
            .unwrap_err()
            .contains("locality"));
    }

    #[test]
    fn gate_catches_placement_stage_regression() {
        let base = record(10.0, 600.0, true, 0.60); // place+repair = 4.5 ms
                                                    // Total wall-clock within the 30% budget, but the placement stage
                                                    // alone blew up ~3.7x — exactly the shape of a serialized
                                                    // speculative fan-out on a refinement-heavy leg.
        let mut slow_place = record(12.0, 600.0, true, 0.60);
        slow_place.stages.place_ms = 16.0;
        assert!(check_regression(&slow_place, &base, 0.30)
            .unwrap_err()
            .contains("placement stage (place+repair) regressed"));
        // Machine speed cancels: a 3x slower machine scales the stage
        // totals and the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // A baseline whose placement stage is under the floor (zero
        // stage totals) skips the stage gate.
        let mut untimed = record(10.0, 600.0, true, 0.60);
        untimed.stages.place_ms = 0.0;
        untimed.stages.repair_ms = 0.0;
        assert!(check_regression(&slow_place, &untimed, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_snapshot_overhead_regression() {
        let base = record(10.0, 600.0, true, 0.60); // save+restore = 2.5 ms
        let mut bloated = record(10.0, 600.0, true, 0.60);
        bloated.snapshot_save_total_ms = 4.0;
        bloated.snapshot_restore_total_ms = 3.0; // 7.0 ms, 2.8x the baseline
        let err = check_regression(&bloated, &base, 0.30).unwrap_err();
        assert!(
            err.contains("snapshot overhead (save+restore) regressed"),
            "{err}"
        );
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.snapshot_save_total_ms = 2.0;
        ok.snapshot_restore_total_ms = 2.0;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels out: 3x slower machine scales everything.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // A snapshot-free current run (totals 0) skips the gate, as does a
        // baseline whose totals are under the measurement floor.
        let mut snapless = record(10.0, 600.0, true, 0.60);
        snapless.snapshot_save_total_ms = 0.0;
        snapless.snapshot_restore_total_ms = 0.0;
        snapless.snapshots = 0;
        assert!(check_regression(&snapless, &base, 0.30).is_ok());
        assert!(check_regression(&bloated, &snapless, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_when_full_scans_increase() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut worse = record(10.0, 600.0, true, 0.60);
        worse
            .counters
            .insert("stream.refine.full_scans".to_string(), 5);
        let err = check_regression(&worse, &base, 0.30).unwrap_err();
        assert!(err.contains("full scans increased"), "{err}");
        // Equal or fewer scans pass.
        let mut better = record(10.0, 600.0, true, 0.60);
        better
            .counters
            .insert("stream.refine.full_scans".to_string(), 0);
        assert!(check_regression(&better, &base, 0.30).is_ok());
        // A registry that never counted a full scan reads 0, so a run
        // without the counter passes and a baseline without it pins 0.
        let mut never = record(10.0, 600.0, true, 0.60);
        never.counters.remove("stream.refine.full_scans");
        assert!(check_regression(&never, &base, 0.30).is_ok());
        assert!(check_regression(&base, &never, 0.30)
            .unwrap_err()
            .contains("2 vs baseline 0"));
    }

    #[test]
    fn gate_rejects_thread_count_mismatch() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut four = record(5.0, 600.0, true, 0.60);
        four.spec.threads = 4;
        let err = check_regression(&four, &base, 0.30).unwrap_err();
        assert!(err.contains("workload mismatch"), "{err}");
        assert!(err.contains("threads (4 vs 1)"), "{err}");
    }

    #[test]
    fn gate_rejects_churn_mismatch() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut churned = record(10.0, 600.0, true, 0.60);
        churned.spec.churn = 0.2;
        let err = check_regression(&churned, &base, 0.30).unwrap_err();
        assert!(err.contains("churn (0.2 vs 0)"), "{err}");
        // Matching churn fractions gate normally.
        let mut churn_base = base.clone();
        churn_base.spec.churn = 0.2;
        assert!(check_regression(&churned, &churn_base, 0.30).is_ok());
    }

    #[test]
    fn gate_names_every_mismatched_spec_key() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut drifted = base.clone();
        drifted.spec.n = 30_000;
        drifted.spec.k = 16;
        drifted.spec.eps = 0.1;
        drifted.spec.arrivals = 100;
        drifted.spec.drift = 300;
        drifted.spec.shape = Shape::GrowShrink;
        drifted.spec.compact_slack = 0.05;
        drifted.spec.followers = 3;
        let err = check_regression(&drifted, &base, 0.30).unwrap_err();
        for key in [
            "n (30000 vs 20000)",
            "k (16 vs 8)",
            "eps (0.1 vs 0.05)",
            "arrivals (100 vs 400)",
            "drift (300 vs 150)",
            "shape (\"grow-shrink\" vs \"uniform\")",
            "compact_slack (0.05 vs 0.15)",
            "followers (3 vs 2)",
        ] {
            assert!(err.contains(key), "{key} missing from: {err}");
        }
        assert!(!err.contains("batches ("), "{err}");
        // Host information is never compared.
        let mut other_host = base.clone();
        other_host.nproc = 64;
        assert!(check_regression(&other_host, &base, 0.30).is_ok());
    }

    #[test]
    fn gate_names_a_sub_floor_scratch_leg() {
        // A sub-millisecond scratch leg serializes as ~0.000 ms; the gate
        // must refuse with a named error instead of comparing inf/NaN.
        let base = record(10.0, 600.0, true, 0.60);
        let degenerate = record(0.01, 0.0, true, 0.60);
        assert!(degenerate.normalized_wallclock().is_finite());
        let err = check_regression(&degenerate, &base, 0.30).unwrap_err();
        assert!(err.contains("unusable scratch reference"), "{err}");
        assert!(err.contains("current run"), "{err}");
        // Same for a poisoned committed baseline.
        let err = check_regression(&base, &degenerate, 0.30).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // And round-tripping the degenerate record through JSON keeps the
        // verdict (0.0 stays 0.0, not NaN).
        let reparsed = PerfRecord::from_json(&degenerate.to_json()).unwrap();
        assert!(check_regression(&reparsed, &base, 0.30).is_err());
    }

    #[test]
    fn parallel_speedup_check() {
        let serial = record(100.0, 600.0, true, 0.60);
        let mut par = record(60.0, 600.0, true, 0.60);
        par.spec.threads = 4;
        assert!(check_parallel_speedup(&par, &serial, 1.2).is_ok());
        // 1.05x is below the 1.2x bar, and the failure names the host size.
        par.inc_total_ms = 95.0;
        let err = check_parallel_speedup(&par, &serial, 1.2).unwrap_err();
        assert!(err.contains("only 1.05x"), "{err}");
        assert!(err.contains("on a host with 2 CPUs"), "{err}");
        // Equal thread counts are a misuse, not a pass.
        let same = record(1.0, 600.0, true, 0.60);
        assert!(check_parallel_speedup(&same, &serial, 1.2).is_err());
    }

    #[test]
    fn parallel_check_requires_specs_differing_only_in_threads() {
        let serial = record(100.0, 600.0, true, 0.60);
        let mut par = record(60.0, 600.0, true, 0.60);
        par.spec.threads = 4;
        par.nproc = 8; // host information is not part of the stream
        assert!(check_parallel_speedup(&par, &serial, 1.2).is_ok());
        for change in [
            |s: &mut WorkloadSpec| s.arrivals = 3000,
            |s: &mut WorkloadSpec| s.k = 32,
            |s: &mut WorkloadSpec| s.seed = 7,
            |s: &mut WorkloadSpec| s.churn = 0.2,
        ] {
            let mut other = par.clone();
            change(&mut other.spec);
            let err = check_parallel_speedup(&other, &serial, 1.2).unwrap_err();
            assert!(err.contains("ran different streams"), "{err}");
            assert!(!err.contains("threads ("), "{err}");
        }
    }

    #[test]
    fn gate_catches_replay_lag_regression() {
        let base = record(10.0, 600.0, true, 0.60); // replay_total = 5.0 ms
        let mut lagging = record(10.0, 600.0, true, 0.60);
        lagging.replay_total_ms = 15.0; // 3x the baseline, past the 2x band
        let err = check_regression(&lagging, &base, 0.30).unwrap_err();
        assert!(err.contains("follower replay lag regressed"), "{err}");
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.replay_total_ms = 9.0;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales replay and
        // the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Follower-less records on both sides → gate off, even against a
        // regressed replay total.
        let mut solo = base.clone();
        solo.spec.followers = 0;
        let mut solo_lagging = lagging.clone();
        solo_lagging.spec.followers = 0;
        assert!(check_regression(&solo_lagging, &solo, 0.30).is_ok());
        // A follower-count mismatch is a workload mismatch, not a
        // comparison.
        let mut three = record(10.0, 600.0, true, 0.60);
        three.spec.followers = 3;
        let err = check_regression(&three, &base, 0.30).unwrap_err();
        assert!(err.contains("followers (3 vs 2)"), "{err}");
        // A sub-floor baseline replay total disarms the lag band.
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.replay_total_ms = 0.4;
        assert!(check_regression(&lagging, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_lookup_p99_regression() {
        let base = record(10.0, 600.0, true, 0.60); // lookup_p99 = 4.0 µs
        let mut slow = record(10.0, 600.0, true, 0.60);
        slow.lookup_p99_us = 12.0; // 3x the baseline, past the 2x band
        let err = check_regression(&slow, &base, 0.30).unwrap_err();
        assert!(err.contains("lookup p99 regressed"), "{err}");
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.lookup_p99_us = 7.0;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales the lookup
        // tail and the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Reader-less records on both sides → gate off, even when the
        // current side regressed.
        let mut unserved = base.clone();
        unserved.spec.readers = 0;
        let mut unserved_slow = slow.clone();
        unserved_slow.spec.readers = 0;
        assert!(check_regression(&unserved_slow, &unserved, 0.30).is_ok());
        // A sub-floor baseline (a healthy run measures p99 = 0 µs at
        // histogram resolution) clamps to the floor instead of disarming:
        // 12 µs against a clamped 1 µs baseline still fires…
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.lookup_p99_us = 0.0;
        let err = check_regression(&slow, &tiny, 0.30).unwrap_err();
        assert!(err.contains("lookup p99 regressed"), "{err}");
        // …while staying inside the clamped band passes (0 µs vs 0 µs is
        // the steady state of every healthy baseline comparison).
        let mut still_fast = record(10.0, 600.0, true, 0.60);
        still_fast.lookup_p99_us = 1.8;
        assert!(check_regression(&still_fast, &tiny, 0.30).is_ok());
        assert!(check_regression(&tiny, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_refine_tail_regression() {
        let base = record(10.0, 600.0, true, 0.60); // refine_p99 = 3.0 ms
                                                    // Totals unchanged — one pathological batch hides in the averages —
                                                    // but the refine tail blew up 2x, past the 30% budget.
        let mut tail = record(10.0, 600.0, true, 0.60);
        tail.refine_p99_ms = 6.0;
        let err = check_regression(&tail, &base, 0.30).unwrap_err();
        assert!(err.contains("refine-stage p99 regressed"), "{err}");
        assert!(err.contains("refine_iters p99 24 vs baseline 24"), "{err}");
        // Inside the budget passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.refine_p99_ms = 3.5;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales the tail and
        // the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // A baseline tail under the measurement floor → gate off.
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.refine_p99_ms = 0.4;
        assert!(check_regression(&tail, &tiny, 0.30).is_ok());
    }

    #[test]
    fn machine_speed_cancels_out() {
        // A 3x slower machine scales both inc and scratch: the gate must
        // not fire.
        let base = record(10.0, 600.0, true, 0.60);
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
    }
}
