//! `stream_replicate` — replicated-serving bench: one
//! [`mdbgp_stream::Leader`] ingests churn-heavy update batches while
//! `--followers F` in-process [`mdbgp_stream::Follower`]s bootstrap from
//! its shipped snapshot, tail the batch log record-by-record, publish
//! their own [`mdbgp_stream::ReadView`]s, and serve lookups from them —
//! across purging compactions and `--rotate-every` log rotations.
//!
//! Scenario: the same grow/shrink shape as `stream_serve` — even batches
//! grow (full `--arrivals` plus extra edges and a hot-shard drift
//! spike), odd batches shrink (arrivals cut to an eighth, removals above
//! the arrival count) so tombstones survive arrival-id recycling and the
//! tight `--compact-slack` forces purging compactions *inside ingest*,
//! where the log can replay them. After every leader batch each follower
//! replays the new log record, its published view is checked against the
//! leader's stamp (`(id_epoch, batch_seq)` + view checksum, then the
//! full assignment byte-for-byte), and it serves a burst of lookups
//! through its own [`mdbgp_stream::ReadHandle`] — verifying checksums
//! and adopting epochs exactly like a remote replica would.
//!
//! The run fails (non-zero exit) if the leader violates ε, if fewer than
//! two purges happened (the log would not be covering remaps), if no
//! rotation happened, if any follower diverges from the leader's stamp
//! stream or assignment, if any follower saw a torn view, or if the
//! followers' own stamp streams disagree with each other.
//!
//! CI hooks: `--json-out FILE` dumps a v8 perf record carrying the
//! replay-lag fields (`replay_total_ms`, `replay_batches`, `log_bytes`,
//! `log_rotations`, `followers`) next to the leader's stage totals, each
//! summed from its batches' [`mdbgp_stream::BatchReport::timings`];
//! `--check-against BASELINE` gates it
//! against the committed `BENCH_stream_replicate.json` — replay lag is
//! machine-normalized against a same-process scratch GD solve of the
//! final graph, like every other wall-clock gate (see
//! [`mdbgp_bench::perfgate`]). `--stamps-out PREFIX` writes one
//! `PREFIX.leader.txt` plus one `PREFIX.fI.txt` per follower, each line
//! `id_epoch batch_seq checksum` for one applied batch, so CI can diff
//! the streams byte-for-byte. `--metrics-det-out PREFIX` writes each
//! follower's deterministic metrics dump (`PREFIX.fI.json`) — followers
//! replay identical records, so the dumps must be byte-identical
//! follower-to-follower (the *leader's* registry legitimately differs:
//! it carries the bootstrap GD counters and the leader-only `stream.log`
//! counters). `--metrics-out PREFIX` writes full dumps for the leader
//! and follower 0 (`PREFIX.leader.json`, `PREFIX.f0.json`) for
//! `metrics_check` schema validation.

use mdbgp_bench::churn::{predict_arrival_ids, queue_removals, verify_arrival_ids, IdTracker};
use mdbgp_bench::perfgate::{check_regression, BatchPerf, PerfQuantiles, PerfRecord};
use mdbgp_bench::policies::timed;
use mdbgp_bench::table::Table;
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::{gen, InducedSubgraph, Partitioner, VertexWeights};
use mdbgp_stream::{
    Follower, Leader, StageTimings, StreamConfig, StreamingPartitioner, UpdateBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    n: usize,
    batches: usize,
    arrivals: usize,
    extra_edges: usize,
    drift: usize,
    churn: f64,
    k: usize,
    eps: f64,
    seed: u64,
    threads: usize,
    followers: usize,
    rotate_every: usize,
    compact_slack: f64,
    json_out: Option<String>,
    stamps_out: Option<String>,
    metrics_out: Option<String>,
    metrics_det_out: Option<String>,
    check_against: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    let num = |key: &str, default: usize| -> Result<usize, String> {
        map.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'"))
        })
    };
    let fnum = |key: &str, default: f64| -> Result<f64, String> {
        map.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'"))
        })
    };
    Ok(Args {
        n: num("n", 20_000)?,
        batches: num("batches", 8)?,
        arrivals: num("arrivals", 400)?,
        extra_edges: num("extra-edges", 400)?,
        drift: num("drift", 120)?,
        churn: match fnum("churn", 0.4)? {
            c if (0.0..1.0).contains(&c) => c,
            c => return Err(format!("--churn must be in [0, 1), got {c}")),
        },
        k: num("k", 8)?,
        eps: fnum("eps", 0.05)?,
        seed: num("seed", 42)? as u64,
        threads: match num("threads", 1)? {
            0 => return Err("--threads must be positive".into()),
            t => t,
        },
        followers: match num("followers", 2)? {
            0 => return Err("--followers must be positive".into()),
            f => f,
        },
        rotate_every: match num("rotate-every", 4)? {
            0 => return Err("--rotate-every must be positive".into()),
            r => r,
        },
        // Tight by default: the leg exists to replicate *across purges*,
        // so compactions must fire on the shrinking batches.
        compact_slack: fnum("compact-slack", 0.05)?,
        json_out: map.get("json-out").cloned(),
        stamps_out: map.get("stamps-out").cloned(),
        metrics_out: map.get("metrics-out").cloned(),
        metrics_det_out: map.get("metrics-det-out").cloned(),
        check_against: map.get("check-against").cloned(),
        max_regress: fnum("max-regress", 0.30)?,
    })
}

/// One replica plus its bench-side bookkeeping: the serving handle, the
/// stamp stream it published, and how long its replays took.
struct Replica {
    follower: Follower,
    stamps: Vec<(u64, u64, u64)>,
    replay_time: Duration,
    torn: u64,
    lookups: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: stream_replicate [--n N] [--batches B] [--arrivals A] \
                 [--extra-edges E] [--drift D] [--churn F] [--k K] [--eps EPS] [--seed S] \
                 [--threads T] [--followers F] [--rotate-every R] [--compact-slack S] \
                 [--json-out FILE] [--stamps-out PREFIX] [--metrics-out PREFIX] \
                 [--metrics-det-out PREFIX] [--check-against BASELINE] [--max-regress FRAC]"
            );
            return ExitCode::FAILURE;
        }
    };
    let total_n = args.n + args.batches * args.arrivals;
    println!(
        "stream_replicate: n={} (+<={} arrivals/batch x {} batches), k={}, eps={}, threads={}, \
         followers={}, churn={}, rotate every {}",
        args.n,
        args.arrivals,
        args.batches,
        args.k,
        args.eps,
        args.threads,
        args.followers,
        args.churn,
        args.rotate_every
    );

    let mut rng = StdRng::seed_from_u64(args.seed);
    let cg = gen::community_graph(&gen::CommunityGraphConfig::social(total_n), &mut rng);
    let full = cg.graph;
    let prefix: Vec<u32> = (0..args.n as u32).collect();
    let boot = InducedSubgraph::extract(&full, &prefix);
    let boot_weights = VertexWeights::vertex_edge(&boot.graph);

    let mut cfg = StreamConfig::new(args.k, args.eps).with_threads(args.threads);
    cfg.gd = GdConfig {
        iterations: 60,
        threads: args.threads,
        ..GdConfig::with_epsilon(args.eps)
    };
    cfg.seed = args.seed;
    cfg.compact_slack = args.compact_slack;
    let gd_cfg = cfg.gd.clone();

    let (sp, boot_time) = timed(|| {
        StreamingPartitioner::bootstrap(boot.graph.clone(), boot_weights, cfg)
            .expect("bootstrap partition failed")
    });
    let mut leader = match Leader::new(sp) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("FAIL: cannot open the leader's first log segment: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bootstrap: {:.2}s, locality {:.1}%, imbalance {:.2}%, snapshot {} bytes",
        boot_time.as_secs_f64(),
        leader.engine().store().edge_locality() * 100.0,
        leader.engine().max_imbalance() * 100.0,
        leader.snapshot_bytes().len()
    );

    // Every follower bootstraps from the leader's shipped segment-base
    // snapshot — the same bytes a remote replica would receive.
    let mut replicas: Vec<Replica> = Vec::with_capacity(args.followers);
    for i in 0..args.followers {
        match Follower::bootstrap(leader.snapshot_bytes()) {
            Ok(follower) => replicas.push(Replica {
                follower,
                stamps: Vec::with_capacity(args.batches),
                replay_time: Duration::ZERO,
                torn: 0,
                lookups: 0,
            }),
            Err(e) => {
                eprintln!("FAIL: follower {i} bootstrap: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut handles: Vec<_> = replicas.iter().map(|r| r.follower.reader()).collect();
    println!();

    let mut table = Table::new(["batch", "shape", "inc ms", "replay ms", "imb %", "log KB"]);
    let mut inc_total = Duration::ZERO;
    let mut stages = StageTimings::default();
    let mut eps_ok = true;
    let mut arrived = args.n as u32;
    let mut tracker = IdTracker::identity(args.n);
    let mut batch_perf: Vec<BatchPerf> = Vec::with_capacity(args.batches);
    let mut leader_stamps: Vec<(u64, u64, u64)> = Vec::with_capacity(args.batches);
    let mut total_log_bytes = 0usize;

    let result = (|| -> Result<(), String> {
        for batch_no in 1..=args.batches {
            // Even batches grow; odd batches shrink enough that tombstones
            // outlive the batch's own arrival-id recycling — the shrinking
            // batches are what drives replication across purges.
            let shrink = batch_no % 2 == 1;
            let n_arrivals = if shrink {
                args.arrivals / 8
            } else {
                args.arrivals
            };
            let vertex_removals = if shrink {
                n_arrivals + args.arrivals / 2
            } else {
                (args.arrivals as f64 * args.churn) as usize
            };
            let edge_removals = (args.extra_edges as f64 * args.churn) as usize;

            let mut batch = UpdateBatch::new();
            let end = arrived + n_arrivals as u32;
            let predicted = predict_arrival_ids(leader.engine().graph(), n_arrivals);
            for v in arrived..end {
                let backward: Vec<u32> = full
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| u < v)
                    .filter_map(|u| tracker.current(u))
                    .collect();
                let degree_weight = backward.len().max(1) as f64;
                batch.add_vertex(vec![1.0, degree_weight], backward);
                tracker.push(predicted[(v - arrived) as usize]);
            }
            for _ in 0..args.extra_edges {
                let u = tracker.current(rng.gen_range(0..arrived));
                let v = tracker.current(rng.gen_range(0..arrived));
                if let (Some(u), Some(v)) = (u, v) {
                    batch.add_edge(u, v);
                }
            }
            if args.drift > 0 {
                let shard0: Vec<u32> = (0..arrived)
                    .filter_map(|o| tracker.current(o))
                    .filter(|&c| leader.engine().shard_of(c) == 0)
                    .collect();
                if shard0.is_empty() {
                    return Err("shard 0 is empty; cannot apply the drift spike".into());
                }
                for _ in 0..args.drift {
                    let v = shard0[rng.gen_range(0..shard0.len())];
                    batch.set_weight(v, 0, rng.gen_range(1.5..3.0));
                }
            }
            queue_removals(
                &mut batch,
                leader.engine().graph(),
                &mut tracker,
                &mut rng,
                edge_removals,
                vertex_removals,
            );
            arrived = end;

            let (report, inc_time) = timed(|| leader.ingest(&batch).expect("leader ingest failed"));
            inc_total += inc_time;
            stages += report.timings();
            if report.max_imbalance > args.eps + 1e-9 {
                eps_ok = false;
            }
            if let Some(remap) = &report.remap {
                tracker.apply_remap(remap);
            }
            verify_arrival_ids(&tracker, end, &report.arrival_ids)?;
            let lv = leader.engine().read_view();
            leader_stamps.push((lv.epoch().id_epoch, lv.epoch().batch_seq, lv.checksum()));

            // Followers tail the segment: each replay re-reads the log
            // from the segment header (skipping already-applied stamps,
            // as a resumed tailer would) and must apply exactly the one
            // new record.
            let mut replay_ms = 0.0f64;
            for (i, r) in replicas.iter_mut().enumerate() {
                let (applied, t) = timed(|| r.follower.replay(leader.log_bytes()));
                r.replay_time += t;
                replay_ms += t.as_secs_f64() * 1e3;
                match applied {
                    Ok(1) => {}
                    Ok(n) => return Err(format!("follower {i} applied {n} records, wanted 1")),
                    Err(e) => return Err(format!("follower {i} replay: {e}")),
                }
                let fv = r.follower.view();
                if fv.epoch() != lv.epoch() || fv.checksum() != lv.checksum() {
                    return Err(format!(
                        "follower {i} diverged at batch {batch_no}: ({}, {}) checksum \
                         {:#018x} vs leader ({}, {}) {:#018x}",
                        fv.epoch().id_epoch,
                        fv.epoch().batch_seq,
                        fv.checksum(),
                        lv.epoch().id_epoch,
                        lv.epoch().batch_seq,
                        lv.checksum()
                    ));
                }
                r.stamps
                    .push((fv.epoch().id_epoch, fv.epoch().batch_seq, fv.checksum()));

                // Serve a lookup burst from the follower's own published
                // view, through the same pin/verify/adopt protocol a
                // remote serving thread runs.
                let h = &mut handles[i];
                if h.refresh() {
                    if !h.view().verify_checksum() {
                        r.torn += 1;
                    }
                    if h.needs_adoption() {
                        h.adopt();
                    }
                }
                let n = h.view().num_vertices();
                let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(batch_no as u64);
                for _ in 0..256 {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if n > 0 {
                        let v = ((lcg >> 33) as usize % n) as u32;
                        // Tombstoned ids answer None; both are valid.
                        let _ = h.lookup(v);
                        r.lookups += 1;
                    }
                }
            }

            batch_perf.push(BatchPerf {
                batch: batch_no,
                inc_ms: inc_time.as_secs_f64() * 1e3,
                // One scratch solve after the final batch anchors the
                // machine normalization; per-batch slots stay 0.
                scratch_ms: 0.0,
                cut_edges: leader.engine().store().cut_edges(),
                imbalance: report.max_imbalance,
                locality: report.edge_locality,
            });
            table.row([
                format!("{batch_no}"),
                (if shrink { "shrink" } else { "grow" }).to_string(),
                format!("{:.1}", inc_time.as_secs_f64() * 1e3),
                format!("{replay_ms:.1}"),
                format!("{:.2}", report.max_imbalance * 100.0),
                format!("{:.1}", leader.log_bytes().len() as f64 / 1024.0),
            ]);

            // Rotate after the tailers caught up, as a real retention
            // policy would ensure; followers adopt the fresh segment (and
            // canonicalize their heaps) on their next replay.
            if batch_no % args.rotate_every == 0 {
                total_log_bytes += leader.log_bytes().len();
                if let Err(e) = leader.rotate() {
                    return Err(format!("log rotation after batch {batch_no}: {e}"));
                }
            }
        }
        total_log_bytes += leader.log_bytes().len();

        // Final byte-level check: every follower's full assignment must
        // equal the leader's, not just the stamps.
        let lv = leader.engine().read_view();
        for (i, r) in replicas.iter().enumerate() {
            if r.follower.view().as_slice() != lv.as_slice() {
                return Err(format!(
                    "follower {i} assignment differs from the leader's despite matching stamps"
                ));
            }
            if r.stamps != replicas[0].stamps {
                return Err(format!(
                    "follower {i} stamp stream differs from follower 0's"
                ));
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("{table}");

    // Same-machine normalization anchor: one scratch GD solve of the
    // final live graph, exactly the solver the replay path re-runs.
    let (snapshot, weights, _) = leader.engine().graph().live_snapshot();
    let (scratch, scratch_time) = timed(|| {
        GdPartitioner::new(gd_cfg.clone())
            .partition(&snapshot, &weights, args.k, args.seed + 1)
            .expect("scratch partition failed")
    });
    if let Some(last) = batch_perf.last_mut() {
        last.scratch_ms = scratch_time.as_secs_f64() * 1e3;
    }

    let t = leader.engine().telemetry().clone();
    let replay_total: Duration = replicas.iter().map(|r| r.replay_time).sum();
    let replay_batches: u64 = replicas.iter().map(|r| r.follower.replayed()).sum();
    let torn: u64 = replicas.iter().map(|r| r.torn).sum();
    let lookups: u64 = replicas.iter().map(|r| r.lookups).sum();
    // One &mut pass over the leader's registry collects everything the
    // record needs; `engine()` is read-only on purpose (all mutation
    // flows through the leader), so the scalars are hoisted out here.
    let (log_records, gd_full, gd_delta, split_ranges, spec_rounds, compact_ms, quantiles) = {
        let m = leader.metrics_mut();
        let stage_p99_ms = |name: &str| {
            m.summary(name)
                .map(|s| s.p99 as f64 / 1000.0)
                .unwrap_or(0.0)
        };
        let iters = m.summary("core.gd.refine_iterations");
        (
            m.counter("stream.log.records"),
            m.counter("core.gd.grad_full_recomputes") as usize,
            m.counter("core.gd.grad_delta_iters") as usize,
            m.counter("stream.split.parallel_ranges") as usize,
            m.counter("stream.repair.spec_rounds") as usize,
            m.gauge("stream.compact.parallel_ms"),
            PerfQuantiles {
                refine_iters_p50: iters.as_ref().map(|s| s.p50 as f64).unwrap_or(0.0),
                refine_iters_p99: iters.as_ref().map(|s| s.p99 as f64).unwrap_or(0.0),
                validate_p99_ms: stage_p99_ms("span.ingest.validate_us"),
                split_p99_ms: stage_p99_ms("span.ingest.split_us"),
                place_p99_ms: stage_p99_ms("span.ingest.place_us"),
                repair_p99_ms: stage_p99_ms("span.ingest.repair_us"),
                commit_p99_ms: stage_p99_ms("span.ingest.commit_us"),
                refine_p99_ms: stage_p99_ms("span.ingest.refine_us"),
            },
        )
    };
    println!(
        "replication: {} followers replayed {replay_batches} records in {:.1} ms total \
         (leader ingest {:.1} ms), {} log records / {total_log_bytes} log bytes / {} rotations",
        args.followers,
        replay_total.as_secs_f64() * 1e3,
        inc_total.as_secs_f64() * 1e3,
        log_records,
        leader.rotations()
    );
    println!(
        "churn: {} placed, {} removed, {} compactions ({} remaps); serving: {lookups} \
         follower lookups, {torn} torn reads",
        t.vertices_placed, t.vertices_removed, t.compactions, t.remaps
    );

    let record = PerfRecord {
        threads: args.threads,
        churn: args.churn,
        inc_total_ms: inc_total.as_secs_f64() * 1e3,
        scratch_total_ms: scratch_time.as_secs_f64() * 1e3,
        speedup: scratch_time.as_secs_f64() / inc_total.as_secs_f64().max(1e-9),
        eps_ok,
        final_locality: leader.engine().store().edge_locality(),
        final_imbalance: leader.engine().max_imbalance(),
        validate_total_ms: stages.validate_ms,
        split_total_ms: stages.split_ms,
        place_total_ms: stages.place_ms,
        repair_total_ms: stages.repair_ms,
        commit_total_ms: stages.commit_ms,
        refine_total_ms: stages.refine_ms,
        placement_conflicts: Some(t.placement_conflicts),
        repair_passes: Some(t.repair_passes),
        rebalance_full_scans: Some(t.rebalance_full_scans),
        snapshot_save_total_ms: 0.0,
        snapshot_restore_total_ms: 0.0,
        snapshots: None,
        quantiles: Some(quantiles),
        gd_full_recomputes: Some(gd_full),
        gd_delta_iters: Some(gd_delta),
        lookups_per_sec: None,
        lookup_p99_us: None,
        split_parallel_ranges: Some(split_ranges),
        repair_spec_rounds: Some(spec_rounds),
        compact_parallel_ms: compact_ms,
        // v8: the replicated-serving fields this bench exists to record.
        replay_total_ms: replay_total.as_secs_f64() * 1e3,
        replay_batches: Some(replay_batches as usize),
        log_bytes: Some(total_log_bytes),
        log_rotations: Some(leader.rotations() as usize),
        followers: Some(args.followers),
        batches: batch_perf,
    };
    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, record.to_json()) {
            eprintln!("FAIL: cannot write --json-out {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote perf record -> {path}");
    }
    if let Some(prefix) = &args.stamps_out {
        let render = |stamps: &[(u64, u64, u64)]| {
            let mut s = String::new();
            for (id_epoch, batch_seq, checksum) in stamps {
                let _ = writeln!(s, "{id_epoch} {batch_seq} {checksum:#018x}");
            }
            s
        };
        let mut files = vec![(format!("{prefix}.leader.txt"), render(&leader_stamps))];
        for (i, r) in replicas.iter().enumerate() {
            files.push((format!("{prefix}.f{i}.txt"), render(&r.stamps)));
        }
        for (path, text) in files {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("FAIL: cannot write stamp stream {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "wrote stamp streams -> {prefix}.leader.txt + {} follower files",
            replicas.len()
        );
    }
    if let Some(prefix) = &args.metrics_det_out {
        for (i, r) in replicas.iter_mut().enumerate() {
            let path = format!("{prefix}.f{i}.json");
            let dump = r.follower.metrics_mut().deterministic_json();
            if let Err(e) = std::fs::write(&path, dump) {
                eprintln!("FAIL: cannot write --metrics-det-out {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "wrote deterministic follower metric dumps -> {prefix}.f0..{}.json",
            replicas.len() - 1
        );
    }
    if let Some(prefix) = &args.metrics_out {
        let dumps = [
            (
                format!("{prefix}.leader.json"),
                leader.metrics_mut().render_json(),
            ),
            (
                format!("{prefix}.f0.json"),
                replicas[0].follower.metrics_mut().render_json(),
            ),
        ];
        for (path, dump) in dumps {
            if let Err(e) = std::fs::write(&path, dump) {
                eprintln!("FAIL: cannot write --metrics-out {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("wrote metrics dumps -> {prefix}.leader.json, {prefix}.f0.json");
    }

    // Acceptance: the leg must actually have replicated across purges
    // and a rotation, cleanly. The scratch partition is only the timing
    // anchor, but sanity-check it balanced.
    let mut failed = false;
    if !eps_ok {
        eprintln!("FAIL: leader violated ε");
        failed = true;
    }
    if scratch.max_imbalance(&weights) > args.eps + 1e-9 {
        eprintln!("FAIL: scratch reference solve violated ε");
        failed = true;
    }
    if t.remaps < 2 {
        eprintln!(
            "FAIL: run crossed only {} purges (need >= 2) — not a cross-epoch replication test",
            t.remaps
        );
        failed = true;
    }
    if leader.rotations() < 1 {
        eprintln!("FAIL: the log never rotated — segment adoption went untested");
        failed = true;
    }
    if torn > 0 {
        eprintln!("FAIL: {torn} torn follower view reads (checksum mismatches)");
        failed = true;
    }
    if lookups == 0 {
        eprintln!("FAIL: followers served no lookups");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }

    if let Some(path) = &args.check_against {
        let baseline = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| PerfRecord::from_json(&text))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("FAIL: cannot load baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_regression(&record, &baseline, args.max_regress) {
            Ok(()) => println!(
                "perf gate: replay {:.1} ms vs baseline {:.1} ms — within limits",
                record.replay_total_ms, baseline.replay_total_ms
            ),
            Err(reasons) => {
                eprintln!("FAIL: perf gate: {reasons}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "PASS: {} followers bitwise-tracked the leader across {} purges and {} rotations, \
         replay {:.1} ms vs ingest {:.1} ms, {lookups} lookups / 0 torn reads",
        args.followers,
        t.remaps,
        leader.rotations(),
        replay_total.as_secs_f64() * 1e3,
        inc_total.as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}
