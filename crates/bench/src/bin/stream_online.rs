//! `stream_online` — the streaming bench: incremental maintenance
//! (`mdbgp-stream`) of a scripted update stream, timed against re-running
//! the offline GD partitioner from scratch, optionally while reader
//! threads serve lookups or followers replicate the stream.
//!
//! Scenario: a community graph bootstrapped at `--n` vertices receives
//! `--batches` update batches. `--shape uniform` (the default) gives every
//! batch `--arrivals` new vertices (with their backward edges),
//! `--extra-edges` fresh edges between existing vertices, correlated
//! activity drift on `--drift` vertices of one shard (a hot-shard spike,
//! so the refinement machinery actually runs) and — with `--churn F` —
//! mixed deletions: `F · extra-edges` random live edges and
//! `F · arrivals` random live vertices leave per batch. `--shape
//! grow-shrink` makes every odd batch shrink: an eighth of the arrivals
//! and more vertex removals than arrivals, so tombstones survive
//! arrival-id recycling and a tight `--compact-slack` forces purging
//! compactions, which renumber the id space mid-stream. The harness tracks
//! the id remaps purges report and fails on any ε violation.
//!
//! Modes, at most one per run (a combination no CI leg runs is rejected by
//! name):
//!
//! * none — ingest only. A from-scratch GD solve of the live graph after
//!   every batch anchors the timing, and the incremental path must beat
//!   it ≥ 5× add-only, ≥ 2× under churn.
//! * `--snapshot-every N` — every N batches the engine is saved, discarded
//!   and restored from the bytes; the stream continues on the restored
//!   instance and save/restore wall-clock lands in the record.
//! * `--arrivals-heavy true` — a placement-bound preset (3000 arrivals,
//!   100 extra edges, drift 30) whose ingest wall-clock is carried by the
//!   speculative placement and conflict-repair stages.
//! * `--readers R` (with `--shape grow-shrink`) — R reader threads spin
//!   lock-free lookups on the engine's published views throughout, each
//!   re-pinning, checksum-verifying and adopting id epochs as views land.
//!   The run fails on a torn view, a stale-epoch read, a reader that
//!   served no lookup, or fewer than two purges crossed.
//! * `--followers F [--rotate-every N]` (with `--shape grow-shrink`) — a
//!   `Leader` ingests while F in-process `Follower`s bootstrap from its
//!   shipped snapshot, replay every log record (checked against the
//!   leader's `(id_epoch, batch_seq)` stamp and view checksum, then the
//!   full assignment at the end) and serve a lookup burst from their own
//!   views; the log rotates every N batches (default 4). The run fails on
//!   any divergence, a torn read, a follower that served no lookup, no
//!   rotation, or fewer than two purges.
//!
//! With readers or followers the scratch solve runs once, after the last
//! batch, and anchors the timing without a speedup bar.
//!
//! Outputs: `--json-out FILE` writes the [`mdbgp_bench::perfgate`] record,
//! `--metrics-out FILE` the metrics dump (`.prom`/`.txt`: Prometheus text;
//! otherwise the JSON `metrics_check` validates) and `--metrics-det-out
//! FILE` its deterministic subset. With followers both take a PREFIX and
//! write `PREFIX.leader.json` plus one `PREFIX.fI.json` per follower
//! (followers replay identical records, so their deterministic dumps must
//! be byte-identical; the leader's carries the bootstrap and log counters
//! too). `--stamps-out PREFIX` writes the leader's and each follower's
//! stamp stream (`PREFIX.leader.txt`, `PREFIX.fI.txt`, one `id_epoch
//! batch_seq checksum` line per batch).
//!
//! Gates: `--check-against BASELINE` runs
//! [`mdbgp_bench::perfgate::check_regression`] against a committed record
//! with `--max-regress` (default 0.30) as the wall-clock band;
//! `--expect-speedup-over SERIAL` with `--min-par-speedup X` (default 1.2)
//! asserts same-machine parallel scaling over a serial run's record.

use mdbgp_bench::churn::{queue_arrivals, queue_removals, verify_arrival_ids, IdTracker};
use mdbgp_bench::perfgate::{
    add_span, add_span_tree, check_parallel_speedup, check_regression, registry_counters,
    BatchPerf, PerfRecord, Shape, WorkloadSpec,
};
use mdbgp_bench::policies::timed;
use mdbgp_bench::table::Table;
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::{gen, Graph, InducedSubgraph, Partitioner, VertexWeights};
use mdbgp_obs::{Histogram, SpanStat};
use mdbgp_stream::{
    BatchReport, Follower, HistogramSummary, Leader, MetricsRegistry, ReadHandle, StreamConfig,
    StreamingPartitioner, UpdateBatch, ViewEpoch, METRIC_ALLOWLIST,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: stream_online [--n N] [--batches B] [--arrivals A] \
    [--extra-edges E] [--drift D] [--churn F] [--shape uniform|grow-shrink] \
    [--compact-slack S] [--k K] [--eps EPS] [--seed S] [--threads T] \
    [--snapshot-every N | --arrivals-heavy true | --readers R | --followers F [--rotate-every N]] \
    [--json-out FILE] [--metrics-out FILE] [--metrics-det-out FILE] [--stamps-out PREFIX] \
    [--check-against BASELINE] [--max-regress FRAC] [--expect-speedup-over FILE] \
    [--min-par-speedup X]";

struct Args {
    spec: WorkloadSpec,
    json_out: Option<String>,
    metrics_out: Option<String>,
    metrics_det_out: Option<String>,
    stamps_out: Option<String>,
    check_against: Option<String>,
    max_regress: f64,
    expect_speedup_over: Option<String>,
    min_par_speedup: f64,
}

/// `--key value` pairs. Every read consumes its key, so whatever is left
/// once parsing is done is a flag the bench does not know.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn new(argv: &[String]) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for pair in argv.chunks(2) {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", pair[0]))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given twice"));
            }
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let at = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(at).1)
    }

    fn get<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.take(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse '{v}'"))
            })
            .transpose()
    }

    fn or<T: FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some((key, _)) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut f = Flags::new(argv)?;
    let arrivals_heavy = match f.take("arrivals-heavy").as_deref() {
        None | Some("false") | Some("0") => false,
        Some("true") | Some("1") => true,
        Some(v) => return Err(format!("--arrivals-heavy: expected true/false, got '{v}'")),
    };
    // The placement-bound preset: large arrival batches, few extra edges,
    // low drift, so the speculative placement stage dominates ingest and
    // the CI scaling check measures *it*. Individual flags still override.
    let (d_arrivals, d_extra, d_drift) = if arrivals_heavy {
        (3000, 100, 30)
    } else {
        (500, 500, 150)
    };
    let followers = f.or("followers", 0)?;
    let rotate_every: Option<usize> = f.get("rotate-every")?;
    let spec = WorkloadSpec {
        shape: Shape::parse(&f.or("shape", "uniform".to_string())?)?,
        n: f.or("n", 50_000)?,
        batches: f.or("batches", 10)?,
        arrivals: f.or("arrivals", d_arrivals)?,
        extra_edges: f.or("extra-edges", d_extra)?,
        // Drift is concentrated on one shard (see the batch script), so
        // the default 150 updates/batch trigger refinement on roughly half
        // the batches — enough to exercise the path without drowning the
        // placement numbers.
        drift: f.or("drift", d_drift)?,
        churn: f.or("churn", 0.0)?,
        // Defaults to the engine's own slack; the serving and replication
        // legs pass a tight one so the shrinking batches purge.
        compact_slack: f.or("compact-slack", StreamConfig::new(2, 0.05).compact_slack)?,
        k: f.or("k", 8)?,
        eps: f.or("eps", 0.05)?,
        seed: f.or("seed", 42)?,
        threads: f.or("threads", 1)?,
        snapshot_every: f.or("snapshot-every", 0)?,
        readers: f.or("readers", 0)?,
        followers,
        rotate_every: rotate_every.unwrap_or(if followers > 0 { 4 } else { 0 }),
    };
    let args = Args {
        spec,
        json_out: f.take("json-out"),
        metrics_out: f.take("metrics-out"),
        metrics_det_out: f.take("metrics-det-out"),
        stamps_out: f.take("stamps-out"),
        check_against: f.take("check-against"),
        max_regress: f.or("max-regress", 0.30)?,
        expect_speedup_over: f.take("expect-speedup-over"),
        // Conservative default: CI runners have few cores and the
        // refinement rounds bound the useful parallelism, so the bar
        // catches a serialized parallel path without flaking on a busy
        // runner.
        min_par_speedup: f.or("min-par-speedup", 1.2)?,
    };
    f.finish()?;

    let s = &args.spec;
    if !(0.0..1.0).contains(&s.churn) {
        return Err(format!("--churn must be in [0, 1), got {}", s.churn));
    }
    if !(1..=GdConfig::MAX_THREADS).contains(&s.threads) {
        return Err(format!(
            "--threads must be in 1..={}, got {}",
            GdConfig::MAX_THREADS,
            s.threads
        ));
    }
    let modes: Vec<&str> = [
        (s.snapshot_every > 0, "--snapshot-every"),
        (arrivals_heavy, "--arrivals-heavy"),
        (s.readers > 0, "--readers"),
        (s.followers > 0, "--followers"),
    ]
    .into_iter()
    .filter_map(|(on, name)| on.then_some(name))
    .collect();
    if modes.len() > 1 {
        return Err(format!(
            "unsupported mode combination {}: no CI leg runs these together",
            modes.join(" + ")
        ));
    }
    let serving = s.readers > 0 || s.followers > 0;
    if serving != (s.shape == Shape::GrowShrink) {
        return Err(
            "--readers and --followers run only with --shape grow-shrink, and grow-shrink \
             only with one of them: no CI leg runs the other combinations"
                .into(),
        );
    }
    if s.followers == 0 && (rotate_every.is_some() || args.stamps_out.is_some()) {
        return Err("--rotate-every and --stamps-out need --followers".into());
    }
    if s.followers > 0 && s.rotate_every == 0 {
        return Err("--rotate-every must be positive".into());
    }
    Ok(args)
}

/// The engine under test: alone, or led and replicated to followers.
/// Both boxed, so neither variant dwarfs the other.
enum Engine {
    Solo(Box<StreamingPartitioner>),
    Replicated(Box<Replicated>),
}

impl Engine {
    fn get(&self) -> &StreamingPartitioner {
        match self {
            Engine::Solo(sp) => sp,
            Engine::Replicated(r) => r.leader.engine(),
        }
    }

    fn ingest(&mut self, batch: &UpdateBatch) -> Result<BatchReport, String> {
        match self {
            Engine::Solo(sp) => sp.ingest(batch).map_err(|e| e.to_string()),
            Engine::Replicated(r) => r.leader.ingest(batch).map_err(|e| e.to_string()),
        }
    }

    /// The engine's registry; the leader's when replicated.
    fn metrics(&mut self) -> &MetricsRegistry {
        match self {
            Engine::Solo(sp) => sp.metrics(),
            Engine::Replicated(r) => r.leader.metrics_mut(),
        }
    }
}

/// `((id_epoch, batch_seq), checksum)` of a published view.
type Stamp = (ViewEpoch, u64);

/// One serving step: re-pin a newly published view (verifying its
/// checksum and adopting its id epoch), then answer `count` lookups drawn
/// from the pinned view's own id space by the LCG `state`. Returns the
/// lookups served and whether the re-pinned view was torn.
fn serve_burst(h: &mut ReadHandle, state: &mut u64, count: usize) -> (u64, bool) {
    let mut torn = false;
    if h.refresh() {
        torn = !h.view().verify_checksum();
        if h.needs_adoption() {
            h.adopt();
        }
    }
    let n = h.view().num_vertices();
    let mut served = 0;
    for _ in 0..count {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if n > 0 {
            // Tombstoned ids answer None; both are valid.
            let _ = h.lookup(((*state >> 33) as usize % n) as u32);
            served += 1;
        }
    }
    (served, torn)
}

/// `--followers F`: the leader, its followers with their serving handles,
/// and the bench-side bookkeeping.
struct Replicated {
    leader: Leader,
    followers: Vec<Follower>,
    handles: Vec<ReadHandle>,
    leader_stamps: Vec<Stamp>,
    stamps: Vec<Vec<Stamp>>,
}

impl Replicated {
    /// Bootstraps `count` followers from the leader's shipped snapshot —
    /// the same bytes a remote replica would receive.
    fn bootstrap(leader: Leader, count: usize) -> Result<Self, String> {
        let followers = (0..count)
            .map(|i| {
                Follower::bootstrap(leader.snapshot_bytes())
                    .map_err(|e| format!("follower {i} bootstrap: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            leader,
            handles: followers.iter().map(Follower::reader).collect(),
            followers,
            leader_stamps: Vec::new(),
            stamps: vec![Vec::new(); count],
        })
    }

    /// Every follower replays the segment (skipping already-applied
    /// stamps, as a resumed tailer would) and must apply exactly the new
    /// record and match the leader's stamp; then it serves a lookup burst
    /// through its own handle, counted into `served[i]` and `torn_reads`.
    /// Each replay call is timed into `spans` as one `follower.replay`.
    /// The log rotates after batches divisible by `rotate_every`.
    fn follow(
        &mut self,
        batch_no: usize,
        rotate_every: usize,
        served: &[AtomicU64],
        torn_reads: &AtomicU64,
        spans: &mut BTreeMap<String, SpanStat>,
    ) -> Result<(), String> {
        let leader = &mut self.leader;
        let view = leader.engine().read_view();
        let lv = (view.epoch(), view.checksum());
        self.leader_stamps.push(lv);
        for (i, follower) in self.followers.iter_mut().enumerate() {
            let (applied, t) = timed(|| follower.replay(leader.log_bytes()));
            add_span(spans, "follower.replay", 1, t.as_secs_f64() * 1e3);
            match applied {
                Ok(1) => {}
                Ok(n) => return Err(format!("follower {i} applied {n} records, wanted 1")),
                Err(e) => return Err(format!("follower {i} replay: {e}")),
            }
            let view = follower.view();
            let fv = (view.epoch(), view.checksum());
            if fv != lv {
                return Err(format!(
                    "follower {i} diverged at batch {batch_no}: {fv:?} vs leader {lv:?}"
                ));
            }
            self.stamps[i].push(fv);
            let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(batch_no as u64);
            let (n, torn) = serve_burst(&mut self.handles[i], &mut lcg, 256);
            served[i].fetch_add(n, Ordering::Relaxed);
            torn_reads.fetch_add(u64::from(torn), Ordering::Relaxed);
        }
        // Rotate after the tailers caught up, as a retention policy would;
        // followers adopt the fresh segment on their next replay.
        if batch_no.is_multiple_of(rotate_every) {
            let rotated = leader.rotate().map_err(|e| e.to_string());
            rotated
                .and_then(|()| check_rotated(leader))
                .map_err(|e| format!("log rotation after batch {batch_no}: {e}"))?;
        }
        Ok(())
    }

    /// Final byte-level check: every follower's full assignment equals
    /// the leader's, not just its stamps. (Equal stamp streams follow
    /// from [`Self::follow`], which matches each one to the leader's.)
    fn verify_final(&self) -> Result<(), String> {
        let lv = self.leader.engine().read_view();
        for (i, follower) in self.followers.iter().enumerate() {
            if follower.view().as_slice() != lv.as_slice() {
                return Err(format!(
                    "follower {i} assignment differs from the leader's despite matching stamps"
                ));
            }
        }
        Ok(())
    }
}

/// A rotated snapshot must hold the leader's state, whether the rotation
/// kept its prefix up to the base CSR or encoded everything: a throwaway
/// engine restored from it publishes the leader's stamp, checksum and
/// assignment, and saves the same bytes back. Runs outside every timed
/// section.
fn check_rotated(leader: &Leader) -> Result<(), String> {
    let bytes = leader.snapshot_bytes();
    let mut restored = StreamingPartitioner::restore(bytes)
        .map_err(|e| format!("the rotated snapshot does not restore: {e}"))?;
    let (lv, rv) = (leader.engine().read_view(), restored.read_view());
    if (lv.epoch(), lv.checksum()) != (rv.epoch(), rv.checksum()) {
        return Err(format!(
            "the rotated snapshot restores to {:?} {:#018x}, the leader is at {:?} {:#018x}",
            rv.epoch(),
            rv.checksum(),
            lv.epoch(),
            lv.checksum()
        ));
    }
    if rv.as_slice() != lv.as_slice() {
        return Err("the rotated snapshot restores to another assignment".into());
    }
    let mut saved = Vec::with_capacity(bytes.len());
    restored
        .save_snapshot(&mut saved)
        .map_err(|e| format!("re-saving the restored snapshot failed: {e}"))?;
    if saved != bytes {
        return Err("re-saving the restored snapshot does not reproduce its bytes".into());
    }
    Ok(())
}

/// The scripted update stream: the history graph whose prefix was
/// bootstrapped, the script's RNG, and the original→current id
/// translation (purges remap engine ids, so the script addresses the
/// engine through it).
struct Script {
    full: Graph,
    rng: StdRng,
    tracker: IdTracker,
    arrived: u32,
}

impl Script {
    /// Assembles batch `batch_no` against the engine's current state:
    /// arrivals with their backward edges, extra edges, activity drift,
    /// then removals.
    fn batch(
        &mut self,
        spec: &WorkloadSpec,
        sp: &StreamingPartitioner,
        batch_no: usize,
    ) -> Result<UpdateBatch, String> {
        // Arrivals recycle tombstoned ids before extending the id space,
        // so only a batch whose removals exceed its arrivals leaves
        // tombstones for a compaction to purge: the shrinking batches
        // drive the stream across id epochs.
        let shrink = spec.shape == Shape::GrowShrink && batch_no % 2 == 1;
        let (arrivals, vertex_removals) = if shrink {
            (spec.arrivals / 8, spec.arrivals / 8 + spec.arrivals / 2)
        } else {
            (spec.arrivals, (spec.arrivals as f64 * spec.churn) as usize)
        };
        let (from, to) = (self.arrived, self.arrived + arrivals as u32);
        let mut batch = UpdateBatch::new();
        queue_arrivals(
            &mut batch,
            &self.full,
            sp.graph(),
            &mut self.tracker,
            from,
            to,
        );
        for _ in 0..spec.extra_edges {
            let u = self.tracker.current(self.rng.gen_range(0..from));
            let v = self.tracker.current(self.rng.gen_range(0..from));
            if let (Some(u), Some(v)) = (u, v) {
                batch.add_edge(u, v);
            }
        }
        // Correlated activity spike: drift concentrates on shard 0 so
        // balance actually erodes and the refinement path (heap rebalance
        // + pairwise GD) is exercised — uniform drift cancels out in
        // expectation and never crosses the trigger band. Members are
        // collected up front: rejection sampling would hang, not fail,
        // should the shard end up empty.
        if spec.drift > 0 {
            let shard0: Vec<u32> = (0..from)
                .filter_map(|o| self.tracker.current(o))
                .filter(|&c| sp.shard_of(c) == 0)
                .collect();
            if shard0.is_empty() {
                return Err("shard 0 is empty; cannot apply the drift spike".into());
            }
            for _ in 0..spec.drift {
                let v = shard0[self.rng.gen_range(0..shard0.len())];
                batch.set_weight(v, 0, self.rng.gen_range(1.5..3.0));
            }
        }
        let edge_removals = (spec.extra_edges as f64 * spec.churn) as usize;
        queue_removals(
            &mut batch,
            sp.graph(),
            &mut self.tracker,
            &mut self.rng,
            edge_removals,
            vertex_removals,
        );
        self.arrived = to;
        Ok(batch)
    }

    /// Follows the batch's purge remap, then checks the arrival ids the
    /// script predicted against the report's (the authority, post-remap).
    fn settle(&mut self, report: &BatchReport) -> Result<(), String> {
        if let Some(remap) = &report.remap {
            self.tracker.apply_remap(remap);
        }
        verify_arrival_ids(&self.tracker, self.arrived, &report.arrival_ids)
    }
}

/// Kill-and-resume: serializes the engine, restores a new one from the
/// bytes and continues on it, so every later batch (and ε check) runs on
/// a warm-restarted engine. A snapshot preserves the id space (and epoch)
/// exactly, so the script needs no adjustment. Returns the save and
/// restore wall-clocks.
fn kill_and_resume(sp: &mut StreamingPartitioner) -> Result<(Duration, Duration), String> {
    let (bytes, save) = timed(|| {
        let mut buf = Vec::new();
        sp.save_snapshot(&mut buf).map(|_| buf)
    });
    let bytes = bytes.map_err(|e| format!("snapshot save failed: {e}"))?;
    let (restored, restore) = timed(|| StreamingPartitioner::restore(&bytes[..]));
    let restored = restored.map_err(|e| format!("restore failed: {e}"))?;
    if restored.store().as_slice() != sp.store().as_slice() {
        return Err("restored engine's assignment diverged from the saver".into());
    }
    *sp = restored;
    Ok((save, restore))
}

fn load_record(path: &str) -> Result<PerfRecord, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| PerfRecord::from_json(&text))
        .map_err(|e| format!("cannot load {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(summary) => {
            println!("PASS: {summary}");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for failure in failures {
                eprintln!("FAIL: {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, Vec<String>> {
    let spec = &args.spec;
    // With readers or followers the run's wall-clock is shared with the
    // serving side, so one scratch solve after the last batch anchors it.
    let anchor_every_batch = spec.readers == 0 && spec.followers == 0;
    println!("stream_online: {spec:?}");

    // Full history graph; the prefix is the bootstrap snapshot.
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let total_n = spec.n + spec.batches * spec.arrivals;
    let full = gen::community_graph(&gen::CommunityGraphConfig::social(total_n), &mut rng).graph;
    let boot = InducedSubgraph::extract(&full, &(0..spec.n as u32).collect::<Vec<_>>());
    let boot_weights = VertexWeights::vertex_edge(&boot.graph);
    let mut script = Script {
        full,
        rng,
        tracker: IdTracker::identity(spec.n),
        arrived: spec.n as u32,
    };

    let mut cfg = StreamConfig::new(spec.k, spec.eps).with_threads(spec.threads);
    cfg.gd = GdConfig {
        iterations: 60,
        // The scratch reference must use the same thread count as the
        // incremental path, or the normalized wall-clock gate compares a
        // parallel numerator against a serial denominator and goes soft
        // exactly on the multi-threaded CI leg.
        threads: spec.threads,
        ..GdConfig::with_epsilon(spec.eps)
    };
    cfg.seed = spec.seed;
    cfg.compact_slack = spec.compact_slack;
    let gd_cfg = cfg.gd.clone();
    let (sp, boot_time) =
        timed(|| StreamingPartitioner::bootstrap(boot.graph.clone(), boot_weights, cfg));
    let sp = sp.map_err(|e| vec![format!("bootstrap partition failed: {e}")])?;
    println!(
        "bootstrap: {:.2}s, locality {:.1}%, imbalance {:.2}%\n",
        boot_time.as_secs_f64(),
        sp.store().edge_locality() * 100.0,
        sp.max_imbalance() * 100.0
    );
    let mut engine = if spec.followers > 0 {
        let leader = Leader::new(sp)
            .map_err(|e| vec![format!("cannot open the leader's first log segment: {e}")])?;
        let replicated = Replicated::bootstrap(leader, spec.followers).map_err(|e| vec![e])?;
        Engine::Replicated(Box::new(replicated))
    } else {
        Engine::Solo(Box::new(sp))
    };

    // Scratch path: full GD on the live graph and weights (snapshot
    // construction is not charged to the solver). Returns the wall-clock
    // and whether the scratch partition held ε.
    let scratch = |sp: &StreamingPartitioner, seed: u64| -> Result<(Duration, bool), String> {
        let (snapshot, weights, _) = sp.graph().live_snapshot();
        let (partition, time) = timed(|| {
            GdPartitioner::new(gd_cfg.clone()).partition(&snapshot, &weights, spec.k, seed)
        });
        let partition = partition.map_err(|e| format!("scratch partition failed: {e}"))?;
        Ok((time, partition.max_imbalance(&weights) <= spec.eps + 1e-9))
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let (mut inc_total, mut scratch_total) = (Duration::ZERO, Duration::ZERO);
    let (mut eps_ok, mut scratch_eps_ok) = (true, true);
    // Summed from each batch's own span tree, not read from the registry:
    // a restore starts a fresh registry, and with followers it holds only
    // the leader's spans. The refine tail likewise takes one observation
    // per batch, in whole µs as the registry's `span.ingest.refine_us`.
    let mut spans = BTreeMap::new();
    let mut refine_us = Histogram::default();
    let mut batches: Vec<BatchPerf> = Vec::with_capacity(spec.batches);

    let stop = AtomicBool::new(false);
    let torn_reads = AtomicU64::new(0);
    let servers = spec.readers.max(spec.followers);
    let served: Vec<AtomicU64> = (0..servers).map(|_| AtomicU64::new(0)).collect();
    let handles: Vec<ReadHandle> = (0..spec.readers).map(|_| engine.get().reader()).collect();
    let serve_start = Instant::now();
    let streamed = std::thread::scope(|scope| {
        for (t, mut h) in handles.into_iter().enumerate() {
            let (stop, torn_reads, served) = (&stop, &torn_reads, &served[t]);
            scope.spawn(move || {
                let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    let (n, torn) = serve_burst(&mut h, &mut lcg, 64);
                    torn_reads.fetch_add(u64::from(torn), Ordering::Relaxed);
                    served.fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        let result = (|| -> Result<(), String> {
            for batch_no in 1..=spec.batches {
                let batch = script.batch(spec, engine.get(), batch_no)?;
                let (report, inc_time) = timed(|| engine.ingest(&batch));
                let report = report?;
                script.settle(&report)?;
                inc_total += inc_time;
                add_span_tree(&mut spans, &report.spans);
                refine_us.observe((report.spans.child_ms("refine") * 1e3).round() as u64);
                eps_ok &= report.max_imbalance <= spec.eps + 1e-9;
                match &mut engine {
                    Engine::Solo(sp)
                        if spec.snapshot_every > 0 && batch_no % spec.snapshot_every == 0 =>
                    {
                        let (save, restore) = kill_and_resume(sp)?;
                        add_span(&mut spans, "snapshot.save", 1, ms(save));
                        add_span(&mut spans, "snapshot.restore", 1, ms(restore));
                    }
                    Engine::Replicated(r) => {
                        r.follow(
                            batch_no,
                            spec.rotate_every,
                            &served,
                            &torn_reads,
                            &mut spans,
                        )?;
                    }
                    Engine::Solo(_) => {}
                }
                let mut scratch_ms = 0.0;
                if anchor_every_batch {
                    let (time, balanced) = scratch(engine.get(), spec.seed + batch_no as u64)?;
                    (scratch_total, scratch_ms) = (scratch_total + time, ms(time));
                    scratch_eps_ok &= balanced;
                }
                batches.push(BatchPerf {
                    batch: batch_no,
                    inc_ms: ms(inc_time),
                    scratch_ms,
                    cut_edges: engine.get().store().cut_edges(),
                    imbalance: report.max_imbalance,
                    locality: report.edge_locality,
                });
            }
            Ok(())
        })();
        // Stop the readers only once each has served (bounded, so a
        // reader that cannot serve fails the run instead of hanging it).
        let deadline = Instant::now() + Duration::from_secs(10);
        let readers = &served[..spec.readers];
        while readers.iter().any(|c| c.load(Ordering::Relaxed) == 0) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        result.map(|()| serve_start.elapsed().as_secs_f64())
    });
    let serve_secs = streamed.map_err(|e| vec![e])?;
    if let Engine::Replicated(r) = &engine {
        r.verify_final().map_err(|e| vec![e])?;
    }
    if !anchor_every_batch {
        // One solve of the final graph, once the readers have stopped.
        let (time, balanced) = scratch(engine.get(), spec.seed + 1).map_err(|e| vec![e])?;
        scratch_total += time;
        scratch_eps_ok &= balanced;
        if let Some(last) = batches.last_mut() {
            last.scratch_ms = ms(time);
        }
    }

    let mut table = Table::new([
        "batch",
        "inc ms",
        "scratch ms",
        "cut edges",
        "imb %",
        "loc %",
    ]);
    for b in &batches {
        table.row([
            b.batch.to_string(),
            format!("{:.1}", b.inc_ms),
            format!("{:.1}", b.scratch_ms),
            b.cut_edges.to_string(),
            format!("{:.2}", b.imbalance * 100.0),
            format!("{:.1}", b.locality * 100.0),
        ]);
    }
    println!("{table}");

    let (final_locality, final_imbalance, stale_reads) = {
        let sp = engine.get();
        (
            sp.store().edge_locality(),
            sp.max_imbalance(),
            sp.store().stale_epoch_read_count(),
        )
    };
    let m = engine.metrics();
    let quantile =
        |name: &str, q: fn(&HistogramSummary) -> u64| m.summary(name).map_or(0, |s| q(&s));
    let record = PerfRecord {
        spec: spec.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        eps_ok,
        final_locality,
        final_imbalance,
        inc_total_ms: ms(inc_total),
        scratch_total_ms: ms(scratch_total),
        refine_p99_ms: refine_us.quantile(0.99) as f64 / 1000.0,
        // The iteration histogram counts GD iterations per pair solve.
        refine_iters_p50: quantile("core.gd.refine_iterations", |s| s.p50),
        refine_iters_p99: quantile("core.gd.refine_iterations", |s| s.p99),
        // The serving histogram records ns; the record keeps µs, printed
        // to three decimals, so ns resolution survives.
        lookup_p99_us: quantile("stream.store.lookup_ns", |s| s.p99) as f64 / 1000.0,
        counters: registry_counters(m),
        spans,
        batches,
    };

    let speedup = record.speedup();
    let counter = |name: &str| record.counter(name);
    let remaps = counter("stream.compact.purges");
    let stages = ["validate", "split", "place", "repair", "commit", "refine"]
        .map(|s| format!("{s} {:.1}", record.span_ms(&format!("ingest.{s}"))));
    println!(
        "totals: incremental {:.1} ms vs scratch {:.1} ms -> {speedup:.1}x; stages (ms): {}",
        record.inc_total_ms,
        record.scratch_total_ms,
        stages.join(", ")
    );
    let shown = [
        "stream.ingest.arrivals",
        "stream.ingest.removals",
        "stream.compact.purges",
        "stream.refine.passes",
        "stream.place.conflicts",
        "stream.refine.full_scans",
        "core.gd.grad_full_recomputes",
        "core.gd.grad_delta_iters",
    ];
    println!(
        "counters: {}",
        shown.map(|n| format!("{n} {}", counter(n))).join(", ")
    );
    let snapshots = record.span_count("snapshot.save");
    if snapshots > 0 {
        println!(
            "snapshots: {snapshots} kill-and-resume cycles, save {:.1} ms, restore {:.1} ms",
            record.span_ms("snapshot.save"),
            record.span_ms("snapshot.restore")
        );
    }
    // Every reader thread, or every follower, counts the lookups it served
    // itself: the checks below need each one's count, and the store's
    // counter is one total (a follower's sits in the follower's engine).
    let lookups: Vec<u64> = served.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let torn_reads = torn_reads.load(Ordering::Relaxed);
    let server = if spec.readers > 0 {
        "reader"
    } else {
        "follower"
    };
    if spec.readers > 0 {
        let total: u64 = lookups.iter().sum();
        println!(
            "serving: {total} lookups over {serve_secs:.2}s by readers {lookups:?} -> {:.0} \
             lookups/s, p99 {:.0} ns, {stale_reads} stale-epoch reads, {torn_reads} torn",
            total as f64 / serve_secs.max(1e-9),
            record.lookup_p99_us * 1000.0
        );
    }
    if spec.followers > 0 {
        println!(
            "replication: {} records replayed in {:.1} ms (leader ingest {:.1} ms), {} log \
             bytes, {} rotations; follower lookups {lookups:?}, {torn_reads} torn",
            record.span_count("follower.replay"),
            record.span_ms("follower.replay"),
            record.inc_total_ms,
            counter("stream.log.bytes"),
            counter("stream.log.rotations")
        );
    }

    // Outputs first, so a failing run still leaves its evidence.
    let mut files: Vec<(String, String)> = Vec::new();
    if let Some(path) = &args.json_out {
        files.push((path.clone(), record.to_json()));
    }
    if let Engine::Replicated(r) = &mut engine {
        // One file per registry and stamp stream: PREFIX.leader.* and
        // PREFIX.fI.* per follower.
        let registries = std::iter::once(("leader".to_string(), r.leader.metrics_mut())).chain(
            (r.followers.iter_mut().enumerate()).map(|(i, f)| (format!("f{i}"), f.metrics_mut())),
        );
        for (who, m) in registries {
            if let Some(prefix) = &args.metrics_out {
                files.push((format!("{prefix}.{who}.json"), m.render_json()));
            }
            if let Some(prefix) = &args.metrics_det_out {
                files.push((
                    format!("{prefix}.{who}.json"),
                    m.deterministic_json(METRIC_ALLOWLIST),
                ));
            }
        }
        if let Some(prefix) = &args.stamps_out {
            let streams = std::iter::once(("leader".to_string(), &r.leader_stamps))
                .chain((r.stamps.iter().enumerate()).map(|(i, s)| (format!("f{i}"), s)));
            for (who, stamps) in streams {
                let mut text = String::new();
                for (epoch, checksum) in stamps {
                    let (id_epoch, batch_seq) = (epoch.id_epoch, epoch.batch_seq);
                    let _ = writeln!(text, "{id_epoch} {batch_seq} {checksum:#018x}");
                }
                files.push((format!("{prefix}.{who}.txt"), text));
            }
        }
    } else {
        let m = engine.metrics();
        if let Some(path) = &args.metrics_out {
            // `.prom`/`.txt` gets the Prometheus text exposition;
            // everything else the JSON dump `metrics_check` validates.
            let prom = path.ends_with(".prom") || path.ends_with(".txt");
            let dump = if prom {
                m.render_text()
            } else {
                m.render_json()
            };
            files.push((path.clone(), dump));
        }
        if let Some(path) = &args.metrics_det_out {
            files.push((path.clone(), m.deterministic_json(METRIC_ALLOWLIST)));
        }
    }
    let mut failures = Vec::new();
    for (path, text) in files {
        if let Err(e) = std::fs::write(&path, text) {
            failures.push(format!("cannot write {path}: {e}"));
        }
    }

    // Acceptance: ε everywhere, and each mode's own invariants. Deletion
    // batches refine (and purge) far more often than add-only ones, so
    // the churn speedup bar is "still clearly beating scratch".
    let speedup_bar = if spec.churn > 0.0 { 2.0 } else { 5.0 };
    let mut fail = |failed: bool, why: String| {
        if failed {
            failures.push(why);
        }
    };
    fail(!eps_ok, "incremental path violated ε".into());
    fail(!scratch_eps_ok, "scratch reference solve violated ε".into());
    if anchor_every_batch {
        fail(
            speedup < speedup_bar,
            format!("speedup {speedup:.1}x below the {speedup_bar}x acceptance bar"),
        );
    } else {
        fail(
            remaps < 2,
            format!("run crossed only {remaps} purges (need >= 2) — not a cross-epoch test"),
        );
        fail(
            torn_reads > 0,
            format!("{torn_reads} torn view reads (checksum mismatches)"),
        );
        fail(
            stale_reads > 0,
            format!("{stale_reads} lookups served across an unadopted epoch"),
        );
        if let Some(i) = lookups.iter().position(|&c| c == 0) {
            fail(true, format!("{server} {i} served no lookups"));
        }
    }
    if spec.followers > 0 {
        fail(
            counter("stream.log.rotations") < 1,
            "the log never rotated — segment adoption went untested".into(),
        );
    }
    if !failures.is_empty() {
        return Err(failures);
    }

    if let Some(path) = &args.check_against {
        let baseline = load_record(path).map_err(|e| vec![e])?;
        check_regression(&record, &baseline, args.max_regress)
            .map_err(|reasons| vec![format!("perf gate: {reasons}")])?;
        println!(
            "perf gate: normalized wall-clock {:.4} vs baseline {:.4} — within {:.0}%",
            record.normalized_wallclock(),
            baseline.normalized_wallclock(),
            args.max_regress * 100.0
        );
    }
    // Parallel-scaling check: same-machine comparison against a serial
    // run's record from the same CI job.
    if let Some(path) = &args.expect_speedup_over {
        let serial = load_record(path).map_err(|e| vec![e])?;
        check_parallel_speedup(&record, &serial, args.min_par_speedup)
            .map_err(|reason| vec![format!("parallel scaling: {reason}")])?;
        println!(
            "parallel scaling: {:.2}x over the threads={} run (bar {:.2}x)",
            serial.inc_total_ms / record.inc_total_ms.max(1e-9),
            serial.spec.threads,
            args.min_par_speedup
        );
    }
    Ok(if anchor_every_batch {
        format!("ε held after every batch, speedup {speedup:.1}x >= {speedup_bar}x")
    } else {
        format!("ε held, {remaps} purges crossed, every {server} served, 0 torn reads")
    })
}
