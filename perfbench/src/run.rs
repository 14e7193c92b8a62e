//! One run of a workload: set-up, the closed loop, the checks, and the
//! metrics.
//!
//! One process, one writer client, closed loop: each batch is resolved,
//! ingested by the [`Leader`], replayed by one in-process [`Follower`],
//! and then served — a reader re-pins the follower's view and answers a
//! fixed number of route requests — before the next batch is submitted.
//! Only one thread is ever busy: serving never overlaps ingest, since
//! two threads on a small shared host do not give two threads of
//! throughput and the read path ticks shared atomics.
//!
//! The end-to-end timings read the thread CPU clock ([`crate::clock`]),
//! except a route request's latency, which is what its caller waits
//! (wall-clock); the per-layer engine stages come from the engine's own
//! wall-clock spans and are set against the wall-clock of the same calls.
//!
//! A run is one or more episodes. Each restores the leader from the
//! bootstrap snapshot (restore is byte-identical), bootstraps a follower
//! from it, and plays a stream of its own: the timed batches sample many
//! streams from one known state instead of one ever-older state.

use crate::clock::CpuTimer;
use crate::stats::{median, percentile, tail_percentile, Metric};
use crate::trace::{named_share, Tracer};
use crate::workload::{self, ScriptBatch, Spec, EPSILON, K, ROUTE_IDS};
use mdbgp_bench::churn::{verify_arrival_ids, IdTracker};
use mdbgp_bsp::{apps::PageRank, BspEngine, CostModel};
use mdbgp_graph::{Graph, InducedSubgraph, Partition, VertexId, VertexWeights};
use mdbgp_stream::wire::{read_log_header, read_record, write_record, LogRecord};
use mdbgp_stream::{
    BatchReport, Follower, Leader, MetricsRegistry, ReadHandle, ReadView, ReplicaError, SpanNode,
    StreamConfig, StreamingPartitioner,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one run does.
#[derive(Debug)]
pub struct Params {
    pub spec: &'static Spec,
    /// Seeds the update stream and the serving requests.
    pub seed: u64,
    /// Seeds the history graph and the engine.
    pub dataset_seed: u64,
    pub timed: usize,
    /// Bootstrap prefix and arrival pool of the history graph.
    pub boot_n: usize,
    pub tail_n: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub trace: bool,
}

/// Operations attempted and failed, with every violation by name.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub violations: BTreeMap<&'static str, u64>,
}

/// A broken check: its name and what was seen.
pub type Violation = (&'static str, String);

impl Ledger {
    /// Records one attempted operation and the checks it broke. It counts
    /// as one failure however many checks it broke; each violation is
    /// printed and counted by name. Returns whether the operation passed.
    pub fn record(&mut self, broken: Vec<Violation>) -> bool {
        self.attempted += 1;
        for (name, detail) in &broken {
            println!("VIOLATION {name}: {detail}");
            *self.violations.entry(name).or_default() += 1;
        }
        if !broken.is_empty() {
            self.failed += 1;
        }
        broken.is_empty()
    }
}

/// Checks one leader batch: it succeeded, ended within ε, and reported
/// the arrival ids `tracker` predicted (`end` is the original id one
/// past the batch's arrivals; apply the report's remap first).
pub fn check_batch(
    result: &Result<BatchReport, ReplicaError>,
    tracker: &IdTracker,
    end: VertexId,
) -> Vec<Violation> {
    let report = match result {
        Ok(r) => r,
        Err(e) => return vec![("batch_error", e.to_string())],
    };
    let mut broken = Vec::new();
    if report.max_imbalance > EPSILON + 1e-9 {
        broken.push((
            "epsilon_breach",
            format!(
                "imbalance {:.4} % > ε = {} %",
                report.max_imbalance * 100.0,
                EPSILON * 100.0
            ),
        ));
    }
    if let Err(e) = verify_arrival_ids(tracker, end, &report.arrival_ids) {
        broken.push(("arrival_ids", e));
    }
    broken
}

/// Checks one follower replay: `wanted` records applied, and the
/// follower publishes the leader's stamp and checksum.
pub fn check_replay(
    result: &Result<u64, ReplicaError>,
    wanted: u64,
    leader: &ReadView,
    follower: &ReadView,
) -> Vec<Violation> {
    let mut broken = Vec::new();
    match result {
        Ok(n) if *n == wanted => {}
        Ok(n) => broken.push((
            "replay_count",
            format!("applied {n} records, wanted {wanted}"),
        )),
        Err(e @ ReplicaError::Divergence { .. }) => {
            broken.push(("replay_divergence", e.to_string()))
        }
        Err(e) => broken.push(("replay_error", e.to_string())),
    }
    if follower.epoch() != leader.epoch() || follower.checksum() != leader.checksum() {
        broken.push((
            "replica_stamp",
            format!(
                "follower at {:?} / {:#018x}, leader at {:?} / {:#018x}",
                follower.epoch(),
                follower.checksum(),
                leader.epoch(),
                leader.checksum()
            ),
        ));
    }
    broken
}

pub fn stream_config(spec: &Spec, seed: u64) -> StreamConfig {
    let mut cfg = StreamConfig::new(K, EPSILON);
    cfg.seed = seed;
    cfg.refine_every = spec.refine_every;
    cfg
}

/// The bootstrap prefix of the history graph with vertex + degree
/// weights (the paper's vertex–edge policy).
pub fn prefix(history: &Graph, boot_n: usize) -> (Graph, VertexWeights) {
    let ids: Vec<VertexId> = (0..boot_n as VertexId).collect();
    let graph = InducedSubgraph::extract(history, &ids).graph;
    let weights = VertexWeights::vertex_edge(&graph);
    (graph, weights)
}

struct SetupTimes {
    bootstrap_s: f64,
    save_s: f64,
    restore_s: f64,
}

fn setup(
    graph: &Graph,
    weights: &VertexWeights,
    cfg: StreamConfig,
    tracer: &mut Tracer,
) -> Result<(Leader, Follower, SetupTimes), String> {
    let (graph, weights) = (graph.clone(), weights.clone());
    let span = tracer.enter("setup", 0);
    let t = CpuTimer::start();
    let engine = tracer
        .span("bootstrap", 0, || {
            StreamingPartitioner::bootstrap(graph, weights, cfg)
        })
        .map_err(|e| format!("bootstrap: {e}"))?;
    let bootstrap_s = t.secs();
    let t = CpuTimer::start();
    let leader = tracer
        .span("leader.new", 0, || Leader::new(engine))
        .map_err(|e| format!("leader: {e}"))?;
    let save_s = t.secs();
    let t = CpuTimer::start();
    let follower = tracer
        .span("follower.bootstrap", 0, || {
            Follower::bootstrap(leader.snapshot_bytes())
        })
        .map_err(|e| format!("follower bootstrap: {e}"))?;
    let restore_s = t.secs();
    tracer.exit(span);
    Ok((
        leader,
        follower,
        SetupTimes {
            bootstrap_s,
            save_s,
            restore_s,
        },
    ))
}

/// Leader registry values read before and after the timed window.
const LEADER_COUNTERS: [&str; 14] = [
    "core.gd.pairs_applied",
    "core.gd.pairs_rejected_cut",
    "core.gd.pairs_rejected_balance",
    "core.gd.pairs_degenerate",
    "core.gd.grad_full_recomputes",
    "core.gd.grad_delta_iters",
    "stream.compact.merges",
    "stream.compact.purges",
    "stream.store.heap_pops",
    "stream.refine.full_scans",
    "stream.log.records",
    "stream.log.bytes",
    "stream.snapshot.saves",
    "stream.refine.drift_triggers",
];

fn read_leader(reg: &MetricsRegistry) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LEADER_COUNTERS
        .iter()
        .map(|&name| (name, reg.counter(name) as f64))
        .collect();
    out.insert(
        "core.gd.refine_iterations",
        reg.histogram("core.gd.refine_iterations")
            .map_or(0.0, |h| h.sum() as f64),
    );
    out.insert(
        "stream.compact.parallel_ms",
        reg.gauge("stream.compact.parallel_ms").unwrap_or(0.0),
    );
    out
}

/// The engine's ingest span paths, as its registry totals them.
const INGEST_PATHS: [&str; 11] = [
    "ingest",
    "ingest.validate",
    "ingest.split",
    "ingest.place",
    "ingest.repair",
    "ingest.commit",
    "ingest.refine",
    "ingest.refine.compact",
    "ingest.refine.rebalance",
    "ingest.refine.gd",
    "ingest.refine.recount",
];

/// `(total_ms, count)` of every [`INGEST_PATHS`] entry.
fn ingest_span_totals(reg: &MetricsRegistry) -> Vec<(f64, u64)> {
    INGEST_PATHS
        .iter()
        .map(|p| reg.span_stat(p).map_or((0.0, 0), |s| (s.total_ms, s.count)))
        .collect()
}

/// The follower's ingest tree of one replay, from the difference of its
/// registry's span totals (spans that did not run are left out).
fn follower_tree(before: &[(f64, u64)], after: &[(f64, u64)]) -> SpanNode {
    fn node(i: usize, before: &[(f64, u64)], after: &[(f64, u64)]) -> SpanNode {
        let path = INGEST_PATHS[i];
        let children = (0..INGEST_PATHS.len())
            .filter(|&j| {
                INGEST_PATHS[j]
                    .rsplit_once('.')
                    .is_some_and(|(up, _)| up == path)
            })
            .map(|j| node(j, before, after))
            .filter(|child| child.count > 0)
            .collect();
        SpanNode {
            name: path.rsplit('.').next().unwrap_or(path),
            total_ms: after[i].0 - before[i].0,
            count: after[i].1 - before[i].1,
            children,
        }
    }
    node(0, before, after)
}

/// What the timed batches measured.
#[derive(Default)]
struct Samples {
    ingest_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    route_us: Vec<f64>,
    /// Updates and leader busy time (ingest + rotation) of the current
    /// episode's timed batches.
    updates: usize,
    leader_busy_s: f64,
    /// Updates per second of leader busy time, one per episode.
    episode_rates: Vec<f64>,
    lookups: u64,
    /// Lookups the follower's store counted (the engine's own tally).
    lookups_counted: u64,
    serve_s: f64,
    stage_ms: BTreeMap<&'static str, f64>,
    refine_ms: BTreeMap<&'static str, f64>,
    publish_ms: f64,
    post_ms: f64,
    refine_passes: usize,
    gd_pass_ms: Vec<f64>,
    arrivals: usize,
    conflicts: usize,
    spec_rounds: usize,
    view_bytes: usize,
    adoptions: usize,
    repin_ms: f64,
    bytes_decoded: usize,
    records_skipped: u64,
    divergences: usize,
    encode_ms: f64,
    decode_ms: f64,
    replay_wall_ms: f64,
    apply_ms: f64,
    rotations: usize,
    rotate_ms: f64,
    rotate_bytes: usize,
    adopt_ms: f64,
}

const STAGES: [&str; 6] = ["validate", "split", "place", "repair", "commit", "refine"];
const REFINE_STAGES: [&str; 4] = ["compact", "rebalance", "gd", "recount"];

impl Samples {
    /// `cpu_ms` is the ingest call's thread CPU time, `wall_ms` its
    /// wall-clock, which the engine's own spans are comparable with.
    fn absorb_report(&mut self, report: &BatchReport, cpu_ms: f64, wall_ms: f64, updates: usize) {
        let root = &report.spans;
        self.ingest_ms.push(cpu_ms);
        self.updates += updates;
        for stage in STAGES {
            *self.stage_ms.entry(stage).or_default() += root.child_ms(stage);
        }
        let children: f64 = root.children.iter().map(|c| c.total_ms).sum();
        self.publish_ms += root.total_ms - children;
        self.post_ms += wall_ms - root.total_ms;
        if let Some(refine) = root.children.iter().find(|c| c.name == "refine") {
            for stage in REFINE_STAGES {
                *self.refine_ms.entry(stage).or_default() += refine.child_ms(stage);
            }
        }
        if report.refined {
            self.refine_passes += 1;
            let gd = root
                .children
                .iter()
                .find(|c| c.name == "refine")
                .map_or(0.0, |r| r.child_ms("gd"));
            self.gd_pass_ms.push(gd);
        }
        self.arrivals += report.vertices_added;
        self.conflicts += report.placement_conflicts;
        self.spec_rounds += report.repair_spec_rounds;
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub ledger: Ledger,
    /// Checksum of the leader's final published view.
    pub final_checksum: u64,
    pub tracer: Tracer,
    /// Summary lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The values two runs of one seed must agree on exactly: quality,
    /// the final view, and every count-valued per-layer metric.
    pub fn fingerprint(&self) -> Vec<(String, String)> {
        let mut out = vec![(
            "final_checksum".to_string(),
            format!("{:#018x}", self.final_checksum),
        )];
        for m in &self.e2e {
            if matches!(m.name, "edge_locality" | "pagerank_cost") {
                out.push((m.name.to_string(), format!("{:?}", m.value)));
            }
        }
        for m in &self.layers {
            if matches!(m.unit, "count" | "bytes") {
                out.push((m.name.to_string(), format!("{:?}", m.value)));
            }
        }
        out
    }
}

/// Edge locality and PageRank cost of the leader's final state, computed
/// from scratch on the live graph (a check on the store's incremental
/// locality as well).
fn quality(engine: &StreamingPartitioner, tracer: &mut Tracer) -> (f64, f64) {
    let (graph, _, live_ids) = tracer.span("live_snapshot", 0, || engine.graph().live_snapshot());
    let view = engine.read_view();
    let parts: Vec<u32> = live_ids.iter().map(|&v| view.shard_of(v)).collect();
    let partition = Partition::new(parts, K);
    let (stats, _) = tracer.span("pagerank", 0, || {
        BspEngine::new(&graph, &partition, CostModel::default()).run(&PageRank::default())
    });
    (
        partition.edge_locality(&graph),
        stats.total_time() / stats.num_supersteps().max(1) as f64,
    )
}

/// Fills `out` with `count` uniformly drawn live ids, in current ids.
fn request_ids(rng: &mut StdRng, tracker: &IdTracker, count: usize, out: &mut Vec<VertexId>) {
    out.clear();
    let originals = tracker.len() as VertexId;
    while out.len() < count {
        if let Some(cur) = tracker.current(rng.gen_range(0..originals)) {
            out.push(cur);
        }
    }
}

/// Wire encode time of one record, re-encoded by a shadow writer.
fn shadow_encode(batch: &mdbgp_stream::UpdateBatch, view: &ReadView) -> f64 {
    let record = LogRecord {
        stamp: view.epoch(),
        view_checksum: view.checksum(),
        batch: batch.clone(),
    };
    let mut buf = Vec::new();
    let t = Instant::now();
    write_record(&mut buf, &record).expect("writing to memory cannot fail");
    t.elapsed().as_secs_f64() * 1e3
}

/// Wire decode time of a whole segment, parsed by a shadow reader the way
/// a replay parses it: header, then every record.
fn shadow_decode(log: &[u8]) -> f64 {
    let t = Instant::now();
    let mut r = log;
    read_log_header(&mut r).expect("the leader's own segment parses");
    while read_record(&mut r)
        .expect("the leader's own segment parses")
        .is_some()
    {}
    t.elapsed().as_secs_f64() * 1e3
}

fn leaf(name: &'static str, ms: f64) -> SpanNode {
    SpanNode {
        name,
        total_ms: ms,
        count: 1,
        children: Vec::new(),
    }
}

/// The serving client: its request generator and reusable buffers.
struct Serve {
    rng: StdRng,
    ids: Vec<VertexId>,
    answers: Vec<Option<u32>>,
    route_us: Vec<f64>,
}

impl Serve {
    fn new(seed: u64, requests: usize) -> Self {
        Serve {
            rng: StdRng::seed_from_u64(seed ^ 0x5E47_E000_0000_0001),
            ids: Vec::with_capacity(requests * ROUTE_IDS),
            answers: vec![None; requests * ROUTE_IDS],
            route_us: vec![0.0; requests],
        }
    }
}

/// One batch of the closed loop: resolve, leader ingest, follower
/// replay, serve, and rotation when due. Returns `false` when the batch
/// failed in a way the run cannot continue from.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    p: &Params,
    k: &mut Kit,
    sb: &ScriptBatch,
    bno: u64,
    timed: bool,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    s: &mut Samples,
    serve: &mut Serve,
) -> bool {
    let batch = {
        let view = k.leader.engine().read_view();
        let (tracker, hot) = (&mut k.tracker, &mut k.hot);
        let graph = k.leader.engine().graph();
        tracer.span("resolve", bno, || {
            workload::resolve(sb, tracker, graph, &view, hot)
        })
    };

    let ingest_span = tracer.enter("leader.ingest", bno);
    let (wall, cpu) = (Instant::now(), CpuTimer::start());
    let result = k.leader.ingest(&batch);
    let (ingest_ms, ingest_wall_ms) = (cpu.ms(), wall.elapsed().as_secs_f64() * 1e3);
    tracer.exit(ingest_span);
    if let Ok(Some(remap)) = result.as_ref().map(|r| &r.remap) {
        k.tracker.apply_remap(remap);
    }
    ledger.record(check_batch(&result, &k.tracker, sb.end()));
    let Ok(report) = result else {
        return false;
    };
    let leader_view = k.leader.engine().read_view();
    if timed {
        s.absorb_report(&report, ingest_ms, ingest_wall_ms, batch.len());
        s.leader_busy_s += ingest_ms / 1e3;
    }
    if p.trace {
        let start = tracer.start_of(ingest_span);
        let end = tracer.attach(ingest_span, start, &report.spans, bno);
        let encode_ms = shadow_encode(&batch, &leader_view);
        tracer.attach(ingest_span, end, &leaf("wire.encode", encode_ms), bno);
        if timed {
            s.encode_ms += encode_ms;
        }
    }

    let log_len = k.leader.log_bytes().len();
    let segment_records = k.leader.segment_records();
    let before = ingest_span_totals(k.follower.metrics_mut());
    let replay_span = tracer.enter("follower.replay", bno);
    let (wall, cpu) = (Instant::now(), CpuTimer::start());
    let applied = k.follower.replay(k.leader.log_bytes());
    let (replay_ms, replay_wall_ms) = (cpu.ms(), wall.elapsed().as_secs_f64() * 1e3);
    tracer.exit(replay_span);
    let follower_view = k.follower.view();
    ledger.record(check_replay(&applied, 1, &leader_view, &follower_view));
    if timed {
        s.replay_ms.push(replay_ms);
        s.replay_wall_ms += replay_wall_ms;
        s.bytes_decoded += log_len;
        s.records_skipped += segment_records - *applied.as_ref().unwrap_or(&0);
        s.divergences += usize::from(matches!(applied, Err(ReplicaError::Divergence { .. })));
        s.view_bytes += 4 * (leader_view.num_vertices() + follower_view.num_vertices());
    }
    if p.trace {
        let after = ingest_span_totals(k.follower.metrics_mut());
        let decode_ms = shadow_decode(k.leader.log_bytes());
        let start = tracer.start_of(replay_span);
        let end = tracer.attach(replay_span, start, &leaf("wire.decode", decode_ms), bno);
        tracer.attach(replay_span, end, &follower_tree(&before, &after), bno);
        if timed {
            s.decode_ms += decode_ms;
        }
    }
    if applied.is_err() {
        return false;
    }

    // Serve: re-pin, then the request block, with ingest paused.
    let count = serve.answers.len();
    request_ids(&mut serve.rng, &k.tracker, count, &mut serve.ids);
    let handle = &mut k.handle;
    let serve_span = tracer.enter("serve", bno);
    let t = CpuTimer::start();
    let repin_span = tracer.enter("repin", bno);
    let moved = handle.refresh();
    let intact = !moved || handle.view().verify_checksum();
    let adopt = handle.needs_adoption();
    if adopt {
        handle.adopt();
    }
    tracer.exit(repin_span);
    let repin_ms = t.ms();
    let stale = handle.needs_adoption();
    let requests_span = tracer.enter("requests", bno);
    for ((chunk, answers), us) in serve
        .ids
        .chunks(ROUTE_IDS)
        .zip(serve.answers.chunks_mut(ROUTE_IDS))
        .zip(serve.route_us.iter_mut())
    {
        // A request's latency is what its caller waits: wall-clock.
        let rt = Instant::now();
        for (slot, &v) in answers.iter_mut().zip(chunk) {
            *slot = handle.lookup(v);
        }
        *us = rt.elapsed().as_secs_f64() * 1e6;
    }
    tracer.exit(requests_span);
    let serve_s = t.secs();
    tracer.exit(serve_span);

    let mut repin = Vec::new();
    if !intact {
        repin.push((
            "repin_checksum",
            format!("view {:?} failed verify_checksum", handle.view().epoch()),
        ));
    }
    if handle.view().epoch() != leader_view.epoch() {
        repin.push((
            "repin_stale_view",
            format!(
                "pinned {:?}, leader at {:?}",
                handle.view().epoch(),
                leader_view.epoch()
            ),
        ));
    }
    ledger.record(repin);
    for (r, (chunk, answers)) in serve
        .ids
        .chunks(ROUTE_IDS)
        .zip(serve.answers.chunks(ROUTE_IDS))
        .enumerate()
    {
        let mut broken = Vec::new();
        if stale {
            broken.push((
                "stale_epoch_request",
                format!("request {r} of batch {bno} served from a non-adopted epoch"),
            ));
        }
        let wrong = chunk
            .iter()
            .zip(answers)
            .filter(|&(&v, &a)| a.is_none() || a != leader_view.get(v))
            .count();
        if wrong > 0 {
            broken.push((
                "route_answer",
                format!("request {r} of batch {bno}: {wrong} of {ROUTE_IDS} answers differ from the leader's view"),
            ));
        }
        ledger.record(broken);
    }
    if timed {
        s.route_us.extend_from_slice(&serve.route_us);
        s.lookups += count as u64;
        s.serve_s += serve_s;
        s.repin_ms += repin_ms;
        s.adoptions += usize::from(adopt);
    }

    if bno.is_multiple_of(p.spec.rotate_every as u64) {
        let t = CpuTimer::start();
        let rotated = tracer.span("leader.rotate", bno, || k.leader.rotate());
        let rotate_s = t.secs();
        let ok = ledger.record(match &rotated {
            Ok(()) => Vec::new(),
            Err(e) => vec![("rotation_error", e.to_string())],
        });
        if timed {
            s.rotations += 1;
            s.rotate_ms += rotate_s * 1e3;
            s.rotate_bytes += k.leader.snapshot_bytes().len();
            s.leader_busy_s += rotate_s;
        }
        if !ok {
            return false;
        }
        // The follower adopts the fresh segment as soon as the leader
        // publishes it (its header alone), so re-keying its heaps for the
        // new segment is not billed to the next record's replay.
        let t = CpuTimer::start();
        let adopted = tracer.span("follower.adopt", bno, || {
            k.follower.replay(k.leader.log_bytes())
        });
        let adopt_ms = t.ms();
        let leader_view = k.leader.engine().read_view();
        ledger.record(check_replay(&adopted, 0, &leader_view, &k.follower.view()));
        if timed {
            s.adopt_ms += adopt_ms;
        }
        return adopted.is_ok();
    }
    true
}

/// One episode's replica pair and the client state that goes with it.
struct Kit {
    leader: Leader,
    follower: Follower,
    handle: ReadHandle,
    tracker: IdTracker,
    /// Original ids the previous batch spiked.
    hot: Vec<VertexId>,
}

/// Starts an episode from the bootstrap snapshot: restore is
/// byte-identical, so every episode starts from the same state.
fn start_episode(snapshot: &[u8], boot_n: usize) -> Result<Kit, String> {
    let engine = StreamingPartitioner::restore(snapshot).map_err(|e| format!("restore: {e}"))?;
    let leader = Leader::new(engine).map_err(|e| format!("leader: {e}"))?;
    let follower =
        Follower::bootstrap(leader.snapshot_bytes()).map_err(|e| format!("follower: {e}"))?;
    let handle = follower.reader();
    Ok(Kit {
        leader,
        follower,
        handle,
        tracker: IdTracker::identity(boot_n),
        hot: Vec::new(),
    })
}

/// Script seed of episode `e`; episode 0 uses the run's seed itself.
fn episode_seed(seed: u64, e: usize) -> u64 {
    seed ^ (e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Registry values of an episode's engines, read at the edges of its
/// timed window.
struct Reading {
    leader: BTreeMap<&'static str, f64>,
    follower_ingest_ms: f64,
    follower_lookups: u64,
}

fn read(kit: &mut Kit) -> Reading {
    Reading {
        leader: read_leader(kit.leader.metrics_mut()),
        follower_ingest_ms: ingest_span_totals(kit.follower.metrics_mut())[0].0,
        follower_lookups: kit.follower.engine().store().lookup_count(),
    }
}

/// Runs one workload end to end. `Err` only when set-up fails; a failed
/// batch or replay ends the run early and shows in the ledger.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let spec = p.spec;
    let mut tracer = Tracer::new(p.trace);
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();

    // Inputs, all built before anything is timed: one script per episode.
    let t = Instant::now();
    let history = workload::history_of(p.boot_n + p.tail_n, p.dataset_seed);
    let per_episode = p.timed.min(spec.episode_batches);
    let episodes = p.timed.div_ceil(per_episode);
    let scripts: Vec<Vec<ScriptBatch>> = (0..episodes)
        .map(|e| {
            let seed = episode_seed(p.seed, e);
            workload::script(spec, &history, p.boot_n, seed, spec.warmup + per_episode)
        })
        .collect::<Result<_, _>>()?;
    let (boot_graph, boot_weights) = prefix(&history, p.boot_n);
    drop(history);
    notes.push(format!(
        "inputs: history {} + {} vertices, {} boot edges, {episodes} episode(s) of {} warm-up + \
         {per_episode} timed batches, built in {:.2} s",
        p.boot_n,
        p.tail_n,
        boot_graph.num_edges(),
        spec.warmup,
        t.elapsed().as_secs_f64()
    ));

    // Set-up, repeated; episodes start from the last set-up's snapshot.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(p.setup_reps);
    let mut snapshot = Vec::new();
    for _ in 0..p.setup_reps.max(1) {
        let cfg = stream_config(spec, p.dataset_seed);
        let (leader, _follower, times) = setup(&boot_graph, &boot_weights, cfg, &mut tracer)?;
        setups.push(times);
        snapshot = leader.snapshot_bytes().to_vec();
    }
    drop((boot_graph, boot_weights));

    let mut serve = Serve::new(p.seed, spec.requests);
    let mut s = Samples::default();
    let mut deltas: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut bno = 0u64;
    let mut kit: Option<Kit> = None;
    let mut aborted = false;

    for script in &scripts {
        drop(kit.take());
        let k =
            kit.insert(tracer.span("episode.start", bno, || start_episode(&snapshot, p.boot_n))?);
        let mut before = read(k);
        for (i, sb) in script.iter().enumerate() {
            let timed = i >= spec.warmup;
            if i == spec.warmup {
                before = read(k);
            }
            bno += 1;
            let batch_span = tracer.enter("batch", bno);
            let ok = run_batch(
                p,
                k,
                sb,
                bno,
                timed,
                &mut tracer,
                &mut ledger,
                &mut s,
                &mut serve,
            );
            tracer.exit(batch_span);
            if !ok {
                aborted = true;
                break;
            }
        }
        if s.leader_busy_s > 0.0 {
            s.episode_rates.push(s.updates as f64 / s.leader_busy_s);
        }
        (s.updates, s.leader_busy_s) = (0, 0.0);
        let after = read(k);
        for (name, v) in &after.leader {
            *deltas.entry(name).or_default() += v - before.leader.get(name).copied().unwrap_or(0.0);
        }
        s.apply_ms += after.follower_ingest_ms - before.follower_ingest_ms;
        s.lookups_counted += after.follower_lookups - before.follower_lookups;

        // End of episode: the follower holds the leader's assignment and
        // no read was served from a stale epoch.
        let mut broken = Vec::new();
        if k.follower.view().as_slice() != k.leader.engine().read_view().as_slice() {
            broken.push((
                "final_assignment",
                "follower assignment differs from the leader's".to_string(),
            ));
        }
        let stale_reads = k.follower.engine().store().stale_epoch_read_count();
        if stale_reads > 0 {
            broken.push((
                "stale_epoch_reads",
                format!("{stale_reads} lookups served from a non-adopted epoch"),
            ));
        }
        ledger.record(broken);
        if aborted {
            break;
        }
    }
    let k = kit.expect("at least one episode ran");

    // Quality of the final state, with the store's incremental locality
    // checked against a recount from scratch.
    let leader_view = k.leader.engine().read_view();
    let quality_span = tracer.enter("quality", 0);
    let (edge_locality, pagerank_cost) = quality(k.leader.engine(), &mut tracer);
    tracer.exit(quality_span);
    let store_locality = k.leader.engine().store().edge_locality();
    ledger.record(if (store_locality - edge_locality).abs() > 1e-9 {
        vec![(
            "edge_locality",
            format!("store reports {store_locality}, a recount gives {edge_locality}"),
        )]
    } else {
        Vec::new()
    });
    let d = |name: &str| deltas.get(name).copied().unwrap_or(0.0);
    if s.ingest_ms.is_empty() {
        return Err("no timed batch completed".into());
    }

    let setup_s: Vec<f64> = setups
        .iter()
        .map(|t| t.bootstrap_s + t.save_s + t.restore_s)
        .collect();
    let p90 = |xs: &[f64]| tail_percentile(xs, 90).unwrap_or(f64::NAN);
    let e2e = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s).unwrap_or(0.0),
            setup_s.len(),
        ),
        Metric::new(
            "ingest_ms.p50",
            "ms",
            median(&s.ingest_ms).unwrap_or(0.0),
            s.ingest_ms.len(),
        ),
        Metric::new("ingest_ms.p90", "ms", p90(&s.ingest_ms), s.ingest_ms.len()),
        Metric::new(
            "updates_per_s",
            "1/s",
            median(&s.episode_rates).unwrap_or(0.0),
            s.episode_rates.len(),
        ),
        Metric::new(
            "replay_ms.p50",
            "ms",
            median(&s.replay_ms).unwrap_or(0.0),
            s.replay_ms.len(),
        ),
        Metric::new("replay_ms.p90", "ms", p90(&s.replay_ms), s.replay_ms.len()),
        Metric::new(
            "lookups_per_s",
            "1/s",
            s.lookups as f64 / s.serve_s,
            s.ingest_ms.len(),
        ),
        Metric::new(
            "route_us.p99",
            "us",
            tail_percentile(&s.route_us, 99).unwrap_or(f64::NAN),
            s.route_us.len(),
        ),
        Metric::new("edge_locality", "ratio", edge_locality, 1),
        Metric::new("pagerank_cost", "cost/superstep", pagerank_cost, 1),
        Metric::new(
            "peak_rss_mb",
            "MB",
            crate::host::peak_rss_mb().unwrap_or(0.0),
            1,
        ),
    ];

    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pair_solves = d("core.gd.pairs_applied")
        + d("core.gd.pairs_rejected_cut")
        + d("core.gd.pairs_rejected_balance")
        + d("core.gd.pairs_degenerate");
    let full = d("core.gd.grad_full_recomputes");
    let delta = d("core.gd.grad_delta_iters");
    let log_bytes = d("stream.log.bytes");
    let setup_ms = |f: fn(&SetupTimes) -> f64| {
        let xs: Vec<f64> = setups.iter().map(|t| f(t) * 1e3).collect();
        median(&xs).unwrap_or(0.0)
    };
    let n = s.ingest_ms.len();
    let stage = |name: &str| s.stage_ms.get(name).copied().unwrap_or(0.0);
    let refine = |name: &str| s.refine_ms.get(name).copied().unwrap_or(0.0);
    let spans = tracer.spans();
    let layers = vec![
        Metric::new("engine.validate_ms", "ms", stage("validate"), n),
        Metric::new("engine.split_ms", "ms", stage("split"), n),
        Metric::new("engine.place_ms", "ms", stage("place"), n),
        Metric::new("engine.repair_ms", "ms", stage("repair"), n),
        Metric::new("engine.commit_ms", "ms", stage("commit"), n),
        Metric::new("engine.refine_ms", "ms", stage("refine"), n),
        Metric::new("engine.publish_ms", "ms", s.publish_ms, n),
        Metric::new("engine.post_ms", "ms", s.post_ms, n),
        Metric::new(
            "refine.compact_ms",
            "ms",
            refine("compact"),
            s.refine_passes,
        ),
        Metric::new(
            "refine.rebalance_ms",
            "ms",
            refine("rebalance"),
            s.refine_passes,
        ),
        Metric::new("refine.gd_ms", "ms", refine("gd"), s.refine_passes),
        Metric::new(
            "refine.recount_ms",
            "ms",
            refine("recount"),
            s.refine_passes,
        ),
        Metric::new("refine.passes", "count", s.refine_passes as f64, n),
        Metric::new(
            "refine.share",
            "ratio",
            share(s.refine_passes as f64, n as f64),
            n,
        ),
        Metric::new(
            "refine.drift_triggers",
            "count",
            d("stream.refine.drift_triggers"),
            n,
        ),
        Metric::new(
            "refine.gd_ms.p90",
            "ms",
            percentile(&s.gd_pass_ms, 90).unwrap_or(0.0),
            s.gd_pass_ms.len(),
        ),
        Metric::new("gd.pair_solves", "count", pair_solves, s.refine_passes),
        Metric::new(
            "gd.applied_share",
            "ratio",
            share(d("core.gd.pairs_applied"), pair_solves),
            pair_solves as usize,
        ),
        Metric::new(
            "gd.iterations",
            "count",
            d("core.gd.refine_iterations"),
            pair_solves as usize,
        ),
        Metric::new("gd.full_recomputes", "count", full, pair_solves as usize),
        Metric::new("gd.delta_iters", "count", delta, pair_solves as usize),
        Metric::new(
            "gd.full_share",
            "ratio",
            share(full, full + delta),
            (full + delta) as usize,
        ),
        Metric::new(
            "bootstrap.partition_ms",
            "ms",
            setup_ms(|t| t.bootstrap_s),
            setups.len(),
        ),
        Metric::new("place.arrivals", "count", s.arrivals as f64, n),
        Metric::new("place.conflicts", "count", s.conflicts as f64, n),
        Metric::new(
            "place.conflict_share",
            "ratio",
            share(s.conflicts as f64, s.arrivals as f64),
            s.arrivals,
        ),
        Metric::new("place.spec_rounds", "count", s.spec_rounds as f64, n),
        Metric::new(
            "dynamic.compactions",
            "count",
            d("stream.compact.merges"),
            n,
        ),
        Metric::new("dynamic.purges", "count", d("stream.compact.purges"), n),
        Metric::new(
            "dynamic.compact_ms",
            "ms",
            d("stream.compact.parallel_ms"),
            d("stream.compact.merges") as usize,
        ),
        Metric::new("store.view_bytes", "bytes", s.view_bytes as f64, 2 * n),
        Metric::new("store.heap_pops", "count", d("stream.store.heap_pops"), n),
        Metric::new(
            "store.full_scans",
            "count",
            d("stream.refine.full_scans"),
            n,
        ),
        Metric::new("store.lookups", "count", s.lookups_counted as f64, n),
        Metric::new("store.adoptions", "count", s.adoptions as f64, n),
        Metric::new("store.repin_ms", "ms", s.repin_ms, n),
        Metric::new("wire.records", "count", d("stream.log.records"), n),
        Metric::new("wire.log_bytes", "bytes", log_bytes, n),
        Metric::new("wire.bytes_decoded", "bytes", s.bytes_decoded as f64, n),
        Metric::new(
            "wire.reread_share",
            "ratio",
            share(s.bytes_decoded as f64, log_bytes),
            log_bytes as usize,
        ),
        Metric::new("wire.encode_ms", "ms", s.encode_ms, n),
        Metric::new("wire.decode_ms", "ms", s.decode_ms, n),
        Metric::new("replica.apply_ms", "ms", s.apply_ms, n),
        Metric::new(
            "replica.overhead_ms",
            "ms",
            s.replay_wall_ms - s.apply_ms,
            n,
        ),
        Metric::new(
            "replica.records_skipped",
            "count",
            s.records_skipped as f64,
            n,
        ),
        Metric::new("replica.divergences", "count", s.divergences as f64, n),
        Metric::new("replica.adopt_ms", "ms", s.adopt_ms, s.rotations),
        Metric::new(
            "snapshot.saves",
            "count",
            d("stream.snapshot.saves"),
            s.rotations,
        ),
        Metric::new("snapshot.save_ms", "ms", s.rotate_ms, s.rotations),
        Metric::new(
            "snapshot.bytes",
            "bytes",
            s.rotate_bytes as f64,
            s.rotations,
        ),
        Metric::new(
            "snapshot.restore_ms",
            "ms",
            setup_ms(|t| t.restore_s),
            setups.len(),
        ),
        Metric::new(
            "trace.ingest_named_share",
            "ratio",
            named_share(spans, "leader.ingest"),
            n,
        ),
        Metric::new(
            "trace.replay_named_share",
            "ratio",
            named_share(spans, "follower.replay"),
            n,
        ),
    ];
    notes.push(format!(
        "run: {} timed batches, {} refine passes, {} purges, {} rotations, {} lookups, setup bootstrap/save/restore {:.0}/{:.0}/{:.0} ms (median of {})",
        n,
        s.refine_passes,
        d("stream.compact.purges"),
        s.rotations,
        s.lookups,
        setup_ms(|t| t.bootstrap_s),
        setup_ms(|t| t.save_s),
        setup_ms(|t| t.restore_s),
        setups.len()
    ));
    let ingest_total: f64 = s.ingest_ms.iter().sum();
    notes.push(format!(
        "ingest shares: refine {:.1} %, split + publish {:.1} % of {:.0} ms leader ingest wall-clock",
        100.0 * share(stage("refine"), ingest_total),
        100.0 * share(stage("split") + s.publish_ms, ingest_total),
        ingest_total
    ));
    Ok(Outcome {
        e2e,
        layers,
        ledger,
        final_checksum: leader_view.checksum(),
        tracer,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CHURN_SERVE;
    use mdbgp_stream::wire::write_log_header;
    use mdbgp_stream::UpdateBatch;

    fn small_leader() -> Leader {
        let history = workload::history_of(2_000, 11);
        let (g, w) = prefix(&history, 1_200);
        let engine =
            StreamingPartitioner::bootstrap(g, w, stream_config(&CHURN_SERVE, 11)).unwrap();
        Leader::new(engine).unwrap()
    }

    /// The first churn-serve batch against `leader`, and the original id
    /// one past its arrivals.
    fn first_batch(leader: &Leader, tracker: &mut IdTracker) -> (UpdateBatch, VertexId) {
        let history = workload::history_of(2_000, 11);
        let script = workload::script(&CHURN_SERVE, &history, 1_200, 11, 1).unwrap();
        let view = leader.engine().read_view();
        let batch = workload::resolve(
            &script[0],
            tracker,
            leader.engine().graph(),
            &view,
            &mut Vec::new(),
        );
        (batch, script[0].end())
    }

    #[test]
    fn a_healthy_batch_and_replay_pass_every_check() {
        let mut leader = small_leader();
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        let mut tracker = IdTracker::identity(1_200);
        let (batch, end) = first_batch(&leader, &mut tracker);
        let result = leader.ingest(&batch);
        if let Ok(Some(remap)) = result.as_ref().map(|r| &r.remap) {
            tracker.apply_remap(remap);
        }
        let mut ledger = Ledger::default();
        assert!(ledger.record(check_batch(&result, &tracker, end)));
        let applied = follower.replay(leader.log_bytes());
        let (lv, fv) = (leader.engine().read_view(), follower.view());
        assert!(ledger.record(check_replay(&applied, 1, &lv, &fv)));
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));
    }

    #[test]
    fn a_forced_epsilon_breach_counts_once() {
        let mut leader = small_leader();
        let mut tracker = IdTracker::identity(1_200);
        let (batch, end) = first_batch(&leader, &mut tracker);
        let mut result = leader.ingest(&batch);
        if let Ok(report) = &mut result {
            if let Some(remap) = &report.remap {
                tracker.apply_remap(remap);
            }
            report.max_imbalance = 2.0 * EPSILON;
        }
        let mut ledger = Ledger::default();
        assert!(!ledger.record(check_batch(&result, &tracker, end)));
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
        assert_eq!(ledger.violations.get("epsilon_breach"), Some(&1));
        assert_eq!(ledger.violations.len(), 1);
    }

    #[test]
    fn a_forged_follower_stamp_counts_once() {
        let mut leader = small_leader();
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        let mut tracker = IdTracker::identity(1_200);
        let (batch, _) = first_batch(&leader, &mut tracker);
        leader.ingest(&batch).unwrap();
        // Re-frame the leader's one record with a stamp one batch ahead.
        let mut src = leader.log_bytes();
        let header = read_log_header(&mut src).unwrap();
        let mut record = read_record(&mut src).unwrap().unwrap();
        record.stamp.batch_seq += 1;
        let mut forged = Vec::new();
        write_log_header(
            &mut forged,
            header.k,
            header.dims,
            header.segment,
            header.base,
        )
        .unwrap();
        write_record(&mut forged, &record).unwrap();
        let applied = follower.replay(&forged[..]);
        let (lv, fv) = (leader.engine().read_view(), follower.view());
        let mut ledger = Ledger::default();
        assert!(!ledger.record(check_replay(&applied, 1, &lv, &fv)));
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
        assert_eq!(ledger.violations.get("replay_divergence"), Some(&1));
        assert_eq!(ledger.violations.len(), 1);
    }

    #[test]
    fn follower_tree_is_the_difference_of_span_totals() {
        let before = vec![(1.0, 1); INGEST_PATHS.len()];
        let mut after = before.clone();
        after[0] = (11.0, 2); // ingest
        after[2] = (4.0, 2); // ingest.split
        after[6] = (5.0, 2); // ingest.refine
        after[9] = (3.0, 2); // ingest.refine.gd
        let tree = follower_tree(&before, &after);
        assert_eq!((tree.name, tree.total_ms, tree.count), ("ingest", 10.0, 1));
        let names: Vec<&str> = tree.children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["split", "refine"]);
        assert_eq!(tree.children[1].children[0].name, "gd");
        assert_eq!(tree.children[1].children[0].total_ms, 2.0);
    }

    #[test]
    fn a_small_run_is_correct_and_deterministic() {
        let params = Params {
            spec: &crate::workload::CHURN_SERVE,
            seed: 3,
            dataset_seed: 5,
            timed: 12,
            boot_n: 3_000,
            tail_n: 8_000,
            setup_reps: 1,
            trace: true,
        };
        let a = run(&params).unwrap();
        assert_eq!(a.ledger.failed, 0, "{:?}", a.ledger.violations);
        assert!(a.ledger.attempted > 12);
        let b = run(&Params {
            trace: false,
            ..params
        })
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.tracer.spans().is_empty() && b.tracer.spans().is_empty());
        // Every metric a run prints is declared in BENCHMARK.json, in the
        // section it is printed in, and uses the allowed name charset.
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let section = |key: &str| {
            let start = declared.find(key).unwrap();
            let end = declared[start..].find(']').unwrap() + start;
            declared[start..end].to_string()
        };
        let (e2e, per_layer) = (section("\"end_to_end\""), section("\"per_layer\""));
        for (metrics, section) in [(&a.e2e, &e2e), (&a.layers, &per_layer)] {
            for m in metrics {
                assert!(crate::stats::valid_name(m.name), "{}", m.name);
                let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
                assert!(
                    section.contains(&entry),
                    "{} ({}) is not declared",
                    m.name,
                    m.unit
                );
            }
        }
        assert_eq!(e2e.matches("\"name\"").count(), a.e2e.len());
        assert_eq!(per_layer.matches("\"name\"").count(), a.layers.len());
    }
}
