//! `stream_serve` — concurrent-serving bench: `--readers R` reader
//! threads hammer lock-free lookups against the engine's published
//! [`mdbgp_stream::ReadView`]s while the main thread ingests churn-heavy
//! update batches, including net-shrinking ones that purge and renumber
//! the id space mid-serve.
//!
//! Scenario: a community graph bootstrapped at `--n` vertices receives
//! `--batches` batches. Even batches grow (full `--arrivals` plus extra
//! edges and a hot-shard drift spike); odd batches shrink (arrivals cut
//! to an eighth, removals above the arrival count), so tombstones survive
//! arrival-id recycling and the tight `--compact-slack` forces purging
//! compactions — the remap-heavy regime the epoch-swapped read path
//! exists for. Throughout, every reader spins: probe for a new view
//! (one atomic load), re-pin and verify the view checksum when one was
//! published, adopt the new id epoch, and serve a burst of lookups from
//! the pinned view.
//!
//! The run fails (non-zero exit) if the incremental path violates ε, if
//! fewer than two purges happened (the leg would not be testing
//! cross-epoch serving), if any reader saw a torn view (checksum
//! mismatch), or if any lookup was served across an unadopted epoch
//! (`stream.store.stale_epoch_reads` must end at zero).
//!
//! CI hooks: `--json-out FILE` dumps a v6 perf record carrying
//! `lookups_per_sec` and `lookup_p99_us` next to the usual wall-clock
//! fields (the six stage totals sum each batch's
//! [`mdbgp_stream::BatchReport::timings`]); `--check-against BASELINE`
//! gates it against the committed
//! `BENCH_stream_serve.json` — the lookup p99 is machine-normalized
//! against a same-process scratch GD solve of the final graph, like every
//! other wall-clock gate (see [`mdbgp_bench::perfgate`]). `--metrics-out`
//! writes the metrics dump `metrics_check` validates, serving counters
//! included.

use mdbgp_bench::churn::{predict_arrival_ids, queue_removals, verify_arrival_ids, IdTracker};
use mdbgp_bench::perfgate::{check_regression, BatchPerf, PerfQuantiles, PerfRecord};
use mdbgp_bench::policies::timed;
use mdbgp_bench::table::Table;
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::{gen, InducedSubgraph, Partitioner, VertexWeights};
use mdbgp_stream::{StageTimings, StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
    readers: usize,
    compact_slack: f64,
    json_out: Option<String>,
    metrics_out: Option<String>,
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
        readers: match num("readers", 4)? {
            0 => return Err("--readers must be positive".into()),
            r => r,
        },
        // Tight by default: the leg exists to cross purges, so compactions
        // must fire on the shrinking batches rather than accumulate.
        compact_slack: fnum("compact-slack", 0.05)?,
        json_out: map.get("json-out").cloned(),
        metrics_out: map.get("metrics-out").cloned(),
        check_against: map.get("check-against").cloned(),
        max_regress: fnum("max-regress", 0.30)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: stream_serve [--n N] [--batches B] [--arrivals A] \
                 [--extra-edges E] [--drift D] [--churn F] [--k K] [--eps EPS] [--seed S] \
                 [--threads T] [--readers R] [--compact-slack S] [--json-out FILE] \
                 [--metrics-out FILE] [--check-against BASELINE] [--max-regress FRAC]"
            );
            return ExitCode::FAILURE;
        }
    };
    let total_n = args.n + args.batches * args.arrivals;
    println!(
        "stream_serve: n={} (+<={} arrivals/batch x {} batches), k={}, eps={}, threads={}, \
         readers={}, churn={}",
        args.n,
        args.arrivals,
        args.batches,
        args.k,
        args.eps,
        args.threads,
        args.readers,
        args.churn
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
    let mut sp = sp;
    println!(
        "bootstrap: {:.2}s, locality {:.1}%, imbalance {:.2}%\n",
        boot_time.as_secs_f64(),
        sp.store().edge_locality() * 100.0,
        sp.max_imbalance() * 100.0
    );

    let mut table = Table::new(["batch", "shape", "inc ms", "imb %", "remaps", "lookups"]);
    let mut inc_total = Duration::ZERO;
    let mut stages = StageTimings::default();
    let mut eps_ok = true;
    let mut arrived = args.n as u32;
    let mut tracker = IdTracker::identity(args.n);
    let mut batch_perf: Vec<BatchPerf> = Vec::with_capacity(args.batches);

    let stop = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let handles: Vec<_> = (0..args.readers).map(|_| sp.reader()).collect();
    let serve_start = Instant::now();
    let mut serve_secs = 0.0f64;

    std::thread::scope(|scope| {
        for (t, mut h) in handles.into_iter().enumerate() {
            let stop = &stop;
            let torn = &torn;
            scope.spawn(move || {
                // Cheap thread-local id sampler; the reader draws targets
                // from its *pinned* view's own id space, so resampling
                // after an epoch switch is automatic.
                let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    if h.refresh() {
                        if !h.view().verify_checksum() {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        if h.needs_adoption() {
                            h.adopt();
                        }
                    }
                    let n = h.view().num_vertices();
                    for _ in 0..64 {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if n > 0 {
                            let v = ((lcg >> 33) as usize % n) as u32;
                            // Tombstoned ids answer None; both are valid.
                            let _ = h.lookup(v);
                        }
                    }
                }
            });
        }

        let result = (|| -> Result<(), String> {
            for batch_no in 1..=args.batches {
                // Even batches grow; odd batches shrink. Arrivals recycle
                // tombstoned ids before extending the id space, so only a
                // batch whose removals exceed its arrivals leaves
                // tombstones for the compaction to purge — the shrinking
                // batches are what drives the serve path across epochs.
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
                let predicted = predict_arrival_ids(sp.graph(), n_arrivals);
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
                        .filter(|&c| sp.shard_of(c) == 0)
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
                    sp.graph(),
                    &mut tracker,
                    &mut rng,
                    edge_removals,
                    vertex_removals,
                );
                arrived = end;

                let (report, inc_time) = timed(|| sp.ingest(&batch).expect("ingest failed"));
                inc_total += inc_time;
                stages += report.timings();
                if report.max_imbalance > args.eps + 1e-9 {
                    eps_ok = false;
                }
                if let Some(remap) = &report.remap {
                    tracker.apply_remap(remap);
                }
                verify_arrival_ids(&tracker, end, &report.arrival_ids)?;

                batch_perf.push(BatchPerf {
                    batch: batch_no,
                    inc_ms: inc_time.as_secs_f64() * 1e3,
                    // The serve leg runs one scratch solve after the final
                    // batch (the machine-normalization anchor), not one
                    // per batch; the total lands on the record below.
                    scratch_ms: 0.0,
                    cut_edges: sp.store().cut_edges(),
                    imbalance: report.max_imbalance,
                    locality: report.edge_locality,
                });
                table.row([
                    format!("{batch_no}"),
                    (if shrink { "shrink" } else { "grow" }).to_string(),
                    format!("{:.1}", inc_time.as_secs_f64() * 1e3),
                    format!("{:.2}", report.max_imbalance * 100.0),
                    format!("{}", sp.telemetry().remaps),
                    format!("{}", sp.store().lookup_count()),
                ]);
            }
            Ok(())
        })();
        serve_secs = serve_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Err(e) = result {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    });
    println!("{table}");

    // Same-machine normalization anchor: one scratch GD solve of the
    // final live graph, exactly the solver the ingest path replaces.
    let (snapshot, weights, _) = sp.graph().live_snapshot();
    let (scratch, scratch_time) = timed(|| {
        GdPartitioner::new(gd_cfg.clone())
            .partition(&snapshot, &weights, args.k, args.seed + 1)
            .expect("scratch partition failed")
    });
    if let Some(last) = batch_perf.last_mut() {
        last.scratch_ms = scratch_time.as_secs_f64() * 1e3;
    }

    let t = sp.telemetry().clone();
    let lookups = sp.store().lookup_count();
    let stale = sp.store().stale_epoch_read_count();
    let torn = torn.load(Ordering::Relaxed);
    let lookups_per_sec = lookups as f64 / serve_secs.max(1e-9);
    let m = sp.metrics();
    let lookup_p99_us = m
        .summary("stream.store.lookup_us")
        .map(|s| s.p99 as f64)
        .unwrap_or(0.0);
    println!(
        "serving: {lookups} lookups over {serve_secs:.2}s across {} readers \
         -> {:.0} lookups/s, p99 {lookup_p99_us:.0} µs",
        args.readers, lookups_per_sec
    );
    println!(
        "churn: {} placed, {} removed, {} compactions ({} remaps), {} view swaps, \
         {} stale-epoch reads, {torn} torn reads",
        t.vertices_placed,
        t.vertices_removed,
        t.compactions,
        t.remaps,
        sp.store().view_swap_count(),
        stale
    );

    let record = PerfRecord {
        threads: args.threads,
        churn: args.churn,
        inc_total_ms: inc_total.as_secs_f64() * 1e3,
        scratch_total_ms: scratch_time.as_secs_f64() * 1e3,
        speedup: scratch_time.as_secs_f64() / inc_total.as_secs_f64().max(1e-9),
        eps_ok,
        final_locality: sp.store().edge_locality(),
        final_imbalance: sp.max_imbalance(),
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
        quantiles: {
            let m = sp.metrics();
            let stage_p99_ms = |name: &str| {
                m.summary(name)
                    .map(|s| s.p99 as f64 / 1000.0)
                    .unwrap_or(0.0)
            };
            let iters = m.summary("core.gd.refine_iterations");
            Some(PerfQuantiles {
                refine_iters_p50: iters.as_ref().map(|s| s.p50 as f64).unwrap_or(0.0),
                refine_iters_p99: iters.as_ref().map(|s| s.p99 as f64).unwrap_or(0.0),
                validate_p99_ms: stage_p99_ms("span.ingest.validate_us"),
                split_p99_ms: stage_p99_ms("span.ingest.split_us"),
                place_p99_ms: stage_p99_ms("span.ingest.place_us"),
                repair_p99_ms: stage_p99_ms("span.ingest.repair_us"),
                commit_p99_ms: stage_p99_ms("span.ingest.commit_us"),
                refine_p99_ms: stage_p99_ms("span.ingest.refine_us"),
            })
        },
        gd_full_recomputes: Some(sp.metrics().counter("core.gd.grad_full_recomputes") as usize),
        gd_delta_iters: Some(sp.metrics().counter("core.gd.grad_delta_iters") as usize),
        lookups_per_sec: Some(lookups_per_sec),
        lookup_p99_us: Some(lookup_p99_us),
        split_parallel_ranges: Some(sp.metrics().counter("stream.split.parallel_ranges") as usize),
        repair_spec_rounds: Some(sp.metrics().counter("stream.repair.spec_rounds") as usize),
        compact_parallel_ms: sp.metrics().gauge("stream.compact.parallel_ms"),
        replay_total_ms: 0.0,
        replay_batches: None,
        log_bytes: None,
        log_rotations: None,
        followers: None,
        batches: batch_perf,
    };
    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, record.to_json()) {
            eprintln!("FAIL: cannot write --json-out {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote perf record -> {path}");
    }
    if let Some(path) = &args.metrics_out {
        let dump = if path.ends_with(".prom") || path.ends_with(".txt") {
            sp.metrics().render_text()
        } else {
            sp.metrics().render_json()
        };
        if let Err(e) = std::fs::write(path, dump) {
            eprintln!("FAIL: cannot write --metrics-out {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics dump -> {path}");
    }

    // Acceptance: the leg must actually have crossed epochs under load,
    // cleanly. The scratch partition itself is only the timing anchor,
    // but sanity-check it balanced.
    let mut failed = false;
    if !eps_ok {
        eprintln!("FAIL: incremental path violated ε");
        failed = true;
    }
    if scratch.max_imbalance(&weights) > args.eps + 1e-9 {
        eprintln!("FAIL: scratch reference solve violated ε");
        failed = true;
    }
    if t.remaps < 2 {
        eprintln!(
            "FAIL: run crossed only {} purges (need >= 2) — not a cross-epoch serving test",
            t.remaps
        );
        failed = true;
    }
    if torn > 0 {
        eprintln!("FAIL: {torn} torn view reads (checksum mismatches)");
        failed = true;
    }
    if stale > 0 {
        eprintln!("FAIL: {stale} lookups served across an unadopted epoch");
        failed = true;
    }
    if lookups == 0 {
        eprintln!("FAIL: readers served no lookups");
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
                "perf gate: lookup p99 {:.0} µs vs baseline {:.0} µs — within limits",
                lookup_p99_us,
                baseline.lookup_p99_us.unwrap_or(0.0)
            ),
            Err(reasons) => {
                eprintln!("FAIL: perf gate: {reasons}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "PASS: ε held, {} purges crossed, 0 torn / 0 stale-epoch reads, \
         {:.0} lookups/s at p99 {lookup_p99_us:.0} µs",
        t.remaps, lookups_per_sec
    );
    ExitCode::SUCCESS
}
