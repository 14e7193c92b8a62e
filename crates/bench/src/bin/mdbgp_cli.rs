//! `mdbgp_cli` — command-line front end for the whole workspace.
//!
//! ```text
//! mdbgp_cli generate  --model community --n 50000 --output g.txt
//! mdbgp_cli partition --input g.txt --algo gd --k 8 --eps 0.03 \
//!                     --dims unit,degree --output parts.txt
//! mdbgp_cli evaluate  --input g.txt --partition parts.txt --dims unit,degree
//! ```
//!
//! Graph formats: `text` (SNAP edge list), `metis`, `binary` (selected by
//! `--format`, default `text`). Partitions are one part id per line.

use mdbgp_baselines::{
    BlpPartitioner, HashPartitioner, MetisPartitioner, ShpPartitioner, SpinnerPartitioner,
};
use mdbgp_bench::churn::{queue_arrivals, queue_removals, verify_arrival_ids, IdTracker};
use mdbgp_core::{GdConfig, GdPartitioner, KWayGdPartitioner};
use mdbgp_graph::gen;
use mdbgp_graph::{
    io as gio, Graph, InducedSubgraph, Partition, Partitioner, VertexWeights, WeightKind,
};
use mdbgp_stream::snapshot::{self, SNAPSHOT_HEADER_BYTES};
use mdbgp_stream::{
    wire, Leader, LogRecord, MetricsRegistry, SnapshotExpectation, StreamConfig,
    StreamingPartitioner, UpdateBatch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

/// Minimal `--key value` argument map over a command's own flags.
struct Args {
    values: HashMap<String, String>,
    /// The flags the command reads, space-separated; [`Self::parse`]
    /// refuses any other.
    known: &'static str,
}

impl Args {
    /// Parses `--key value` pairs, refusing a key outside `known` or one
    /// given twice, so a misspelt or stale flag fails before any work
    /// instead of running with the default.
    fn parse(argv: &[String], known: &'static str) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", argv[i]))?;
            if !known.split(' ').any(|flag| flag == key) {
                return Err(format!("unknown flag --{key}"));
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
            i += 2;
        }
        Ok(Self { values, known })
    }

    fn get(&self, key: &str) -> Option<&String> {
        debug_assert!(
            self.known.split(' ').any(|flag| flag == key),
            "--{key} is read but not listed"
        );
        self.values.get(key)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn opt(&self, key: &str, default: &str) -> String {
        self.get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

/// Parses the `--dims` list into weight kinds.
fn parse_dims(spec: &str) -> Result<Vec<WeightKind>, String> {
    spec.split(',')
        .map(|tok| match tok.trim() {
            "unit" => Ok(WeightKind::Unit),
            "degree" => Ok(WeightKind::Degree),
            "ndsum" => Ok(WeightKind::NeighborDegreeSum),
            "pagerank" => Ok(WeightKind::pagerank_default()),
            other => Err(format!(
                "unknown dimension '{other}' (unit|degree|ndsum|pagerank)"
            )),
        })
        .collect()
}

fn load_graph(path: &str, format: &str) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    match format {
        "text" => gio::read_edge_list(file),
        "metis" => gio::read_metis(file),
        "binary" => gio::read_binary(file),
        other => return Err(format!("unknown format '{other}'")),
    }
    .map_err(|e| format!("read {path}: {e}"))
}

fn save_graph(graph: &Graph, path: &str, format: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    match format {
        "text" => gio::write_edge_list(graph, file),
        "metis" => gio::write_metis(graph, file),
        "binary" => gio::write_binary(graph, file),
        other => return Err(format!("unknown format '{other}'")),
    }
    .map_err(|e| format!("write {path}: {e}"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let model = args.opt("model", "community");
    let n: usize = args.num("n", 10_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match model.as_str() {
        "community" => {
            let mut cfg = gen::CommunityGraphConfig::social(n);
            cfg.mean_degree = args.num("mean-degree", cfg.mean_degree)?;
            cfg.mixing = args.num("mixing", cfg.mixing)?;
            cfg.density_spread = args.num("density-spread", cfg.density_spread)?;
            gen::community_graph(&cfg, &mut rng).graph
        }
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            let ef: usize = args.num("edge-factor", 16)?;
            gen::rmat(gen::RmatConfig::graph500(scale, ef), &mut rng)
        }
        "er" => {
            let m: usize = args.num("edges", n * 8)?;
            gen::erdos_renyi(n, m, &mut rng)
        }
        "ba" => {
            let m: usize = args.num("attach", 8)?;
            gen::barabasi_albert(n, m, &mut rng)
        }
        other => return Err(format!("unknown model '{other}' (community|rmat|er|ba)")),
    };
    let out = args.req("output")?;
    save_graph(&graph, out, &args.opt("format", "text"))?;
    println!(
        "generated {model}: {} vertices, {} edges -> {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), String> {
    let graph = load_graph(args.req("input")?, &args.opt("format", "text"))?;
    let kinds = parse_dims(&args.opt("dims", "unit,degree"))?;
    let weights = VertexWeights::build(&graph, &kinds);
    let k: usize = args.num("k", 2)?;
    let eps: f64 = args.num("eps", 0.03)?;
    let seed: u64 = args.num("seed", 42)?;

    let algo = args.opt("algo", "gd");
    let gd = GdPartitioner::new(GdConfig::with_epsilon(eps));
    let gd_kway = KWayGdPartitioner::new(GdConfig::with_epsilon(eps));
    let hash = HashPartitioner;
    let spinner = SpinnerPartitioner::default();
    let blp = BlpPartitioner::default();
    let shp = ShpPartitioner::default();
    let metis = MetisPartitioner {
        epsilon: eps,
        ..MetisPartitioner::default()
    };
    let partitioner: &dyn Partitioner = match algo.as_str() {
        "gd" => &gd,
        "gd-kway" => &gd_kway,
        "hash" => &hash,
        "spinner" => &spinner,
        "blp" => &blp,
        "shp" => &shp,
        "metis" => &metis,
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (gd|gd-kway|hash|spinner|blp|shp|metis)"
            ))
        }
    };

    let start = std::time::Instant::now();
    let partition = partitioner
        .partition(&graph, &weights, k, seed)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let q = partition.quality(&graph, &weights);
    println!(
        "{} in {:.2}s: {q}",
        partitioner.name(),
        elapsed.as_secs_f64()
    );

    if let Ok(out) = args.req("output") {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        for v in 0..partition.num_vertices() {
            writeln!(file, "{}", partition.part_of(v as u32)).map_err(|e| e.to_string())?;
        }
        println!("wrote assignment -> {out}");
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let graph = load_graph(args.req("input")?, &args.opt("format", "text"))?;
    let kinds = parse_dims(&args.opt("dims", "unit,degree"))?;
    let weights = VertexWeights::build(&graph, &kinds);

    let ppath = args.req("partition")?;
    let file = std::fs::File::open(ppath).map_err(|e| format!("open {ppath}: {e}"))?;
    let mut parts = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        parts.push(
            t.parse::<u32>()
                .map_err(|e| format!("bad part id '{t}': {e}"))?,
        );
    }
    if parts.len() != graph.num_vertices() {
        return Err(format!(
            "partition covers {} vertices but graph has {}",
            parts.len(),
            graph.num_vertices()
        ));
    }
    let k = (*parts.iter().max().unwrap_or(&0) + 1) as usize;
    let partition = Partition::new(parts, k);
    let q = partition.quality(&graph, &weights);
    println!("{q}");
    println!("modularity: {:.4}", partition.modularity(&graph));
    for (j, imb) in q.imbalance.iter().enumerate() {
        println!("dimension {j}: imbalance {:.3}%", imb * 100.0);
    }
    Ok(())
}

/// Replays a stored edge list as an online stream: bootstrap GD on a
/// vertex-id prefix, then ingest the remaining vertices (with their
/// backward edges) in batches through `mdbgp-stream`, printing per-batch
/// drift/quality telemetry. With `--churn F`, each batch also removes
/// `F` of its arrival count in random live vertices (and as many random
/// live edges), exercising the tombstone/purge path; the replay tracks
/// the id remaps purging compactions report.
///
/// The engine runs inside a replication [`Leader`] from bootstrap on, so
/// the run always holds its bootstrap snapshot and the log of every batch
/// since. `--save-snapshot FILE` writes that pair after the last ingested
/// batch (combine with `--stop-after B` to simulate a crash mid-stream),
/// and `--load-snapshot FILE` resumes from it: the bootstrap snapshot is
/// restored and wrapped in a `Leader` as the saving run's engine was, and
/// the same script runs from batch 1. While saved records remain, each
/// scripted batch must equal its record's updates, the leader ingests the
/// record (its logged refinement decision applies, so no GD runs), and
/// the record the leader appends must equal the saved one byte for byte.
/// After the last saved record the stream carries on as usual. Re-running
/// the script brings back the replay's id map, churn RNG, batch size and
/// batch number exactly, at any id epoch, so the resumed run's `--output`
/// equals the uninterrupted run's. Resume with the saving run's flags:
/// the first batch where script and log disagree is named in the error.
fn cmd_stream(args: &Args) -> Result<(), String> {
    let graph = load_graph(args.req("input")?, &args.opt("format", "text"))?;
    let n = graph.num_vertices();
    let k: usize = args.num("k", 8)?;
    let eps: f64 = args.num("eps", 0.05)?;
    let seed: u64 = args.num("seed", 42)?;
    let batches: usize = args.num("batches", 10)?;
    let stop_after: usize = args.num("stop-after", 0)?;
    let threads: usize = args.num("threads", 1)?;
    if !(1..=GdConfig::MAX_THREADS).contains(&threads) {
        return Err(format!(
            "--threads must be in 1..={}, got {threads}",
            GdConfig::MAX_THREADS
        ));
    }
    let churn: f64 = args.num("churn", 0.0)?;
    if !(0.0..1.0).contains(&churn) {
        return Err(format!("--churn must be in [0, 1), got {churn}"));
    }
    let bootstrap_fraction: f64 = args.num("bootstrap-fraction", 0.8)?;
    if !(0.0 < bootstrap_fraction && bootstrap_fraction < 1.0) {
        return Err(format!(
            "--bootstrap-fraction must be in (0, 1), got {bootstrap_fraction}"
        ));
    }
    // `.prom`/`.txt` gets the Prometheus text exposition, anything else
    // the JSON dump. `--metrics-every N` additionally flushes the file
    // every N batches so a long run (or one killed mid-stream) leaves a
    // scrapeable dump behind, not just the final snapshot.
    let metrics_out: Option<String> = args.req("metrics-out").ok().map(String::from);
    let metrics_every: usize = args.num("metrics-every", 0)?;
    if metrics_every > 0 && metrics_out.is_none() {
        return Err("--metrics-every needs --metrics-out FILE".into());
    }
    let write_metrics = |m: &MetricsRegistry, path: &str| -> Result<(), String> {
        let dump = if path.ends_with(".prom") || path.ends_with(".txt") {
            m.render_text()
        } else {
            m.render_json()
        };
        std::fs::write(path, dump).map_err(|e| format!("write metrics {path}: {e}"))
    };

    let n0 = ((n as f64 * bootstrap_fraction) as usize)
        .max(k)
        .min(n.saturating_sub(1));
    let load = args.req("load-snapshot").ok();
    let started = std::time::Instant::now();
    let (mut leader, mut saved) = if let Some(path) = load {
        let bytes = std::fs::read(path).map_err(|e| format!("open {path}: {e}"))?;
        load_save_file(path, &bytes, k, eps, seed, n0, threads)?
    } else {
        let sp = bootstrap_engine(&graph, n0, k, eps, seed, threads)?;
        println!(
            "bootstrap on {n0}/{n} vertices in {:.2}s: locality {:.1}%, imbalance {:.2}%",
            started.elapsed().as_secs_f64(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        (Leader::new(sp).map_err(|e| e.to_string())?, SavedLog::new())
    };

    let per_batch = (n - n0).div_ceil(batches.max(1));
    let mut arrived = n0 as u32;
    let mut batch_no = 0usize;
    let mut tracker = IdTracker::identity(n0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let resume_err = |why: String| format!("load snapshot {}: {why}", load.unwrap_or_default());
    while (arrived as usize) < n {
        if stop_after > 0 && batch_no >= stop_after {
            println!(
                "stopping after batch {batch_no} as requested ({} vertices left unstreamed)",
                n - arrived as usize
            );
            break;
        }
        batch_no += 1;
        let end = ((arrived as usize + per_batch).min(n)) as u32;
        let mut batch = UpdateBatch::new();
        // Arrival ids recycle tombstoned slots under churn; the script
        // mirrors the engine's free list so same-batch co-arrival edges
        // resolve, and the report below verifies the predictions.
        let engine_graph = leader.engine().graph();
        queue_arrivals(&mut batch, &graph, engine_graph, &mut tracker, arrived, end);
        if churn > 0.0 {
            let removals = ((end - arrived) as f64 * churn) as usize;
            queue_removals(
                &mut batch,
                engine_graph,
                &mut tracker,
                &mut rng,
                removals,
                removals,
            );
        }
        arrived = end;
        let start = std::time::Instant::now();
        let logged = saved.pop_front();
        let log_len = leader.log_bytes().len();
        let report = match &logged {
            Some((record, _)) if record.batch.updates != batch.updates => {
                return Err(resume_err(format!(
                    "batch {batch_no} of this run's script differs from the saved log's — \
                     resume with the saving run's --input, --batches, --churn and \
                     --bootstrap-fraction"
                )))
            }
            Some((record, _)) => leader.ingest(&record.batch),
            None => leader.ingest(&batch),
        }
        .map_err(|e| e.to_string())?;
        if let Some((_, bytes)) = &logged {
            if leader.log_bytes()[log_len..] != bytes[..] {
                return Err(resume_err(format!(
                    "re-ingesting batch {batch_no} did not reproduce its saved log record"
                )));
            }
        }
        if let Some(remap) = &report.remap {
            tracker.apply_remap(remap);
        }
        verify_arrival_ids(&tracker, end, &report.arrival_ids)?;
        println!(
            "batch {batch_no}{}: +{} -{} vertices, +{} -{} edges in {:.1}ms — imbalance \
             {:.2}%, locality {:.1}%{}{}",
            if logged.is_some() {
                " (re-ingested)"
            } else {
                ""
            },
            report.vertices_added,
            report.vertices_removed,
            report.edges_added,
            report.edges_removed,
            start.elapsed().as_secs_f64() * 1e3,
            report.max_imbalance * 100.0,
            report.edge_locality * 100.0,
            if report.refined {
                format!(
                    " (refined: {} rebalance + {} gd moves)",
                    report.rebalance_moves, report.refine_moves
                )
            } else {
                String::new()
            },
            if report.placement_conflicts > 0 {
                format!(
                    " (repaired {} placement conflicts in {} passes)",
                    report.placement_conflicts, report.repair_passes
                )
            } else {
                String::new()
            }
        );
        if logged.is_some() && saved.is_empty() {
            let sp = leader.engine();
            println!(
                "resumed from {} in {:.2}s: re-ingested {batch_no} logged batches ({arrived}/{n} \
                 vertices streamed, id epoch {}), locality {:.1}%, imbalance {:.2}%",
                load.unwrap_or_default(),
                started.elapsed().as_secs_f64(),
                sp.id_epoch(),
                sp.store().edge_locality() * 100.0,
                sp.max_imbalance() * 100.0
            );
        }
        if metrics_every > 0 && batch_no.is_multiple_of(metrics_every) {
            if let Some(path) = &metrics_out {
                write_metrics(leader.metrics_mut(), path)?;
                println!("flushed metrics -> {path} (batch {batch_no})");
            }
        }
    }
    if !saved.is_empty() {
        return Err(resume_err(format!(
            "the saved log holds {} more batches after batch {batch_no}, where this run ended",
            saved.len()
        )));
    }

    // Save *before* the final output purge below, which is out-of-band:
    // no log record describes it. The file is the leader's segment, so
    // every save starts from the bootstrap snapshot.
    if let Ok(path) = args.req("save-snapshot") {
        let (snapshot, log) = (leader.snapshot_bytes(), leader.log_bytes());
        std::fs::write(path, [snapshot, log].concat())
            .map_err(|e| format!("save snapshot {path}: {e}"))?;
        println!(
            "wrote snapshot -> {path} (bootstrap snapshot of {} bytes + batch log of {} records \
             in {} bytes; id epoch {} after batch {batch_no}, {arrived} streamed)",
            snapshot.len(),
            leader.segment_records(),
            log.len(),
            leader.engine().id_epoch()
        );
    }

    if let Some(path) = &metrics_out {
        write_metrics(leader.metrics_mut(), path)?;
        println!("wrote metrics dump -> {path}");
    }

    // Under churn the final state may still hold tombstoned ids; purge
    // so the partition written below covers exactly the live vertices.
    let mut sp = leader.into_engine();
    if let Some(remap) = sp.purge() {
        tracker.apply_remap(&remap);
    }
    let (imbalance, locality) = (sp.max_imbalance(), sp.store().edge_locality());
    let m = sp.metrics();
    println!(
        "done: {} arrivals, {} removals, +{} -{} edges, {} compactions ({} purges), \
         {} refinements (registry counters over every batch since the bootstrap state, \
         re-ingested ones included); final imbalance {:.2}%, locality {:.1}%",
        m.counter("stream.ingest.arrivals"),
        m.counter("stream.ingest.removals"),
        m.counter("stream.ingest.edges_added"),
        m.counter("stream.ingest.edges_removed"),
        m.counter("stream.compact.merges"),
        m.counter("stream.compact.purges"),
        m.counter("stream.refine.passes"),
        imbalance * 100.0,
        locality * 100.0
    );
    if let Ok(out) = args.req("output") {
        let partition = sp.partition();
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        if churn > 0.0 {
            // Purges renumbered the engine ids, so one-part-per-line would
            // silently key on post-purge ids; write explicit
            // `original-id part` pairs instead (removed vertices have no
            // part and are omitted). Not `evaluate` input — the streamed
            // graph no longer matches the input file anyway.
            for orig in 0..tracker.len() as u32 {
                if let Some(cur) = tracker.current(orig) {
                    writeln!(file, "{orig} {}", partition.part_of(cur))
                        .map_err(|e| e.to_string())?;
                }
            }
            println!(
                "wrote assignment (original-id part pairs; removed vertices omitted) -> {out}"
            );
        } else {
            for v in 0..partition.num_vertices() {
                writeln!(file, "{}", partition.part_of(v as u32)).map_err(|e| e.to_string())?;
            }
            println!("wrote assignment -> {out}");
        }
    }
    Ok(())
}

/// The engine `stream` bootstraps on the first `n0` vertices of `graph`.
fn bootstrap_engine(
    graph: &Graph,
    n0: usize,
    k: usize,
    eps: f64,
    seed: u64,
    threads: usize,
) -> Result<StreamingPartitioner, String> {
    let prefix: Vec<u32> = (0..n0 as u32).collect();
    let boot = InducedSubgraph::extract(graph, &prefix);
    let weights = VertexWeights::vertex_edge(&boot.graph);
    let mut cfg = StreamConfig::new(k, eps).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(eps)
    };
    cfg.seed = seed;
    StreamingPartitioner::bootstrap(boot.graph, weights, cfg).map_err(|e| e.to_string())
}

/// The records of a save file's batch log, each with its bytes, in order.
type SavedLog = VecDeque<(LogRecord, Vec<u8>)>;

/// Opens the `bytes` of the `--save-snapshot` file `path`: restores its
/// bootstrap snapshot, checks that it is this stream's (k, the two replay
/// dimensions, id epoch 0, the `n0`-vertex bootstrap prefix, ε and the
/// seed), wraps it in a [`Leader`] as the saving run wrapped its fresh
/// engine, and reads every record of the batch log that follows. Any
/// damage or mismatch is refused by name, as a `load snapshot {path}: …`
/// error, before a batch is ingested.
fn load_save_file(
    path: &str,
    bytes: &[u8],
    k: usize,
    eps: f64,
    seed: u64,
    n0: usize,
    threads: usize,
) -> Result<(Leader, SavedLog), String> {
    let fail = |e: &dyn std::fmt::Display| format!("load snapshot {path}: {e}");
    let info = snapshot::read_info(bytes).map_err(|e| fail(&e))?;
    // No checksum covers the payload length yet: it may claim anything.
    let split = SNAPSHOT_HEADER_BYTES
        .checked_add(info.payload_bytes)
        .filter(|&split| split <= bytes.len())
        .ok_or_else(|| {
            fail(&format!(
                "file truncated inside its snapshot: the header claims a payload of {} bytes, \
                 the file holds {}",
                info.payload_bytes,
                bytes.len()
            ))
        })?;
    let expect = SnapshotExpectation::default()
        .with_k(k)
        .with_dims(2)
        .with_id_epoch(0);
    let mut sp =
        StreamingPartitioner::restore_expecting(&bytes[..split], &expect).map_err(|e| fail(&e))?;
    let boot_n = sp.graph().num_vertices();
    if boot_n != n0 {
        return Err(fail(&format!(
            "the snapshot holds {boot_n} vertices but this stream bootstraps on {n0}: it is not \
             this stream's bootstrap state"
        )));
    }
    // The script checks only the flags that shape the batches; these two
    // steer the engine itself, which the snapshot brings back as saved.
    let saved = sp.config();
    if saved.epsilon != eps {
        return Err(fail(&format!(
            "the save was made with --eps {}, this run has --eps {eps}",
            saved.epsilon
        )));
    }
    if saved.seed != seed {
        return Err(fail(&format!(
            "the save was made with --seed {}, this run has --seed {seed}",
            saved.seed
        )));
    }
    sp.set_threads(threads);
    let leader = Leader::new(sp).map_err(|e| fail(&e))?;
    let mut log = &bytes[split..];
    wire::read_log_header(&mut log)
        .and_then(|header| header.check_adoption(k, 2, leader.engine().read_view().epoch()))
        .map_err(|e| fail(&format!("batch log: {e}")))?;
    let mut saved = SavedLog::new();
    loop {
        let at = bytes.len() - log.len();
        let record = wire::read_record(&mut log)
            .map_err(|e| fail(&format!("batch log record {}: {e}", saved.len() + 1)))?;
        match record {
            Some(record) => saved.push_back((record, bytes[at..bytes.len() - log.len()].to_vec())),
            None => return Ok((leader, saved)),
        }
    }
}

const USAGE: &str = "usage: mdbgp_cli <generate|partition|evaluate|stream> [--flag value]...
  generate  --model community|rmat|er|ba --n N --output FILE
            [--format text|metis|binary] [--seed S] [--mean-degree D]
            [--mixing M] [--density-spread S] [--edges M] [--attach M]
  partition --input FILE --algo gd|gd-kway|hash|spinner|blp|shp|metis
            --k K [--eps E] [--dims unit,degree,ndsum,pagerank]
            [--seed S] [--output PARTS] [--format text|metis|binary]
  evaluate  --input FILE --partition PARTS [--dims ...]
  stream    --input FILE --k K [--eps E] [--batches B] [--threads T]
            [--churn F] [--bootstrap-fraction F] [--seed S]
            [--stop-after B] [--save-snapshot FILE] [--load-snapshot FILE]
            [--metrics-out FILE] [--metrics-every N]
            [--output PARTS] [--format text|metis|binary]
            --save-snapshot writes the bootstrap snapshot and the log of every
            batch so far; --load-snapshot re-runs the same script over that
            log (pass the saving run's flags) and carries on from its end";

/// Every command with the flags it reads, space-separated;
/// [`Args::parse`] refuses the rest.
type Command = fn(&Args) -> Result<(), String>;
const COMMANDS: [(&str, Command, &str); 4] = [
    (
        "generate",
        cmd_generate,
        "model n seed mean-degree mixing density-spread edge-factor edges attach output format",
    ),
    (
        "partition",
        cmd_partition,
        "input format dims k eps seed algo output",
    ),
    ("evaluate", cmd_evaluate, "input format dims partition"),
    (
        "stream",
        cmd_stream,
        "input format k eps seed batches stop-after threads churn bootstrap-fraction \
         metrics-out metrics-every load-snapshot save-snapshot output",
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|(name, _, _)| name == cmd) {
        Some((name, run, flags)) => Args::parse(rest, flags)
            .map_err(|e| format!("{name}: {e}"))
            .and_then(|args| run(&args)),
        None => Err(format!("unknown command '{cmd}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn args(list: &[&str]) -> Args {
        Args::parse(&argv(list), "k eps seed").unwrap()
    }

    #[test]
    fn arg_parsing_roundtrip() {
        let a = args(&["--k", "8", "--eps", "0.05"]);
        assert_eq!(a.req("k").unwrap(), "8");
        assert_eq!(a.num::<usize>("k", 2).unwrap(), 8);
        assert_eq!(a.num::<f64>("eps", 0.1).unwrap(), 0.05);
        assert_eq!(a.num::<u64>("seed", 7).unwrap(), 7, "default applies");
        assert!(a.req("seed").is_err());
    }

    #[test]
    fn arg_parsing_rejects_malformed() {
        let known = "k eps";
        assert!(Args::parse(&argv(&["k"]), known).is_err());
        assert!(Args::parse(&argv(&["--k"]), known).is_err());
        let err = |list: &[&str]| Args::parse(&argv(list), known).err().unwrap();
        assert_eq!(err(&["--k", "2", "--epss", "0.1"]), "unknown flag --epss");
        assert_eq!(err(&["--k", "2", "--k", "3"]), "--k given twice");
    }

    #[test]
    fn dims_parser() {
        let kinds = parse_dims("unit,degree,ndsum,pagerank").unwrap();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], WeightKind::Unit);
        assert!(parse_dims("bogus").is_err());
    }

    // The saved stream: its parts, ε, seed and bootstrap prefix.
    const K: usize = 4;
    const EPS: f64 = 0.05;
    const SEED: u64 = 7;
    const N0: usize = 240;

    /// A save file as `stream --churn … --stop-after 3 --save-snapshot`
    /// writes it: the bootstrap snapshot, then the log of three batches
    /// of arrivals, edge removals and vertex removals.
    fn churned_save() -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = gen::community_graph(&gen::CommunityGraphConfig::social(300), &mut rng).graph;
        let sp = bootstrap_engine(&graph, N0, K, EPS, SEED, 1).expect("bootstrap");
        let mut leader = Leader::new(sp).expect("leader");
        let mut tracker = IdTracker::identity(N0);
        let mut arrived = N0 as u32;
        for _ in 0..3 {
            let end = arrived + 20;
            let mut batch = UpdateBatch::new();
            let engine_graph = leader.engine().graph();
            queue_arrivals(&mut batch, &graph, engine_graph, &mut tracker, arrived, end);
            queue_removals(&mut batch, engine_graph, &mut tracker, &mut rng, 6, 6);
            arrived = end;
            let report = leader.ingest(&batch).expect("ingest");
            if let Some(remap) = &report.remap {
                tracker.apply_remap(remap);
            }
        }
        [leader.snapshot_bytes(), leader.log_bytes()].concat()
    }

    /// The byte range of each record frame in the batch log at `split`.
    fn record_frames(file: &[u8], split: usize) -> Vec<std::ops::Range<usize>> {
        let mut frames = Vec::new();
        let mut at = split + wire::LOG_HEADER_BYTES;
        while at < file.len() {
            let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
            frames.push(at..at + wire::RECORD_FRAME_BYTES + len);
            at = frames.last().unwrap().end;
        }
        frames
    }

    /// One seeded mutation of the save file `file`, whose batch log starts
    /// at `split` and holds `frames`; described for the failure message.
    fn mutate(
        rng: &mut StdRng,
        file: &mut Vec<u8>,
        split: usize,
        frames: &[std::ops::Range<usize>],
    ) -> String {
        use rand::Rng;
        let len = file.len();
        // A header field's forged value: small, about the file's length,
        // or past any length (2^64 - 16 overflows the split unchecked).
        let forged = [
            0,
            1,
            len as u64,
            len as u64 + 1,
            1 << 32,
            1 << 63,
            u64::MAX - 15,
            u64::MAX,
        ][rng.gen_range(0..8)];
        match rng.gen_range(0..6) {
            0 => {
                // The payload length, found in the header by its value.
                let claimed = ((split - SNAPSHOT_HEADER_BYTES) as u64).to_le_bytes();
                let at = (0..SNAPSHOT_HEADER_BYTES - 7)
                    .find(|&at| file[at..at + 8] == claimed)
                    .expect("the header holds the payload length");
                file[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                format!("payload length set to {forged}")
            }
            1 => {
                // Any 8 header bytes: every field, or parts of two.
                let at = rng.gen_range(0..=SNAPSHOT_HEADER_BYTES - 8);
                file[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                format!("header bytes {at}.. set to {forged}")
            }
            2 => {
                let keep = rng.gen_range(0..len);
                file.truncate(keep);
                format!("truncate to {keep} bytes")
            }
            3 => {
                let bit = rng.gen_range(0..8 * len);
                file[bit / 8] ^= 1 << (bit % 8);
                format!("flip bit {bit}")
            }
            4 => {
                // A huge length prefix: a record frame's, or any 4 bytes
                // of the log.
                let at = if rng.gen_bool(0.5) {
                    frames[rng.gen_range(0..frames.len())].start
                } else {
                    rng.gen_range(split..len - 3)
                };
                let prefix = [u32::MAX, 1 << 31, (len - at) as u32][rng.gen_range(0..3)];
                file[at..at + 4].copy_from_slice(&prefix.to_le_bytes());
                format!("length prefix at {at} set to {prefix}")
            }
            _ => {
                // Records spliced: one dropped, repeated or moved.
                let mut order: Vec<usize> = (0..frames.len()).collect();
                let which = rng.gen_range(0..order.len());
                let how = match rng.gen_range(0..3) {
                    0 => {
                        order.remove(which);
                        "dropped"
                    }
                    1 => {
                        order.insert(which, which);
                        "repeated"
                    }
                    _ => {
                        let moved = order.remove(which);
                        order.push(moved);
                        "moved last"
                    }
                };
                let mut spliced = file[..split + wire::LOG_HEADER_BYTES].to_vec();
                for &i in &order {
                    spliced.extend_from_slice(&file[frames[i].clone()]);
                }
                *file = spliced;
                format!("record {which} {how}")
            }
        }
    }

    /// Seeded mutants of a real save file: header fields (the payload
    /// length among them), truncations, bit flips, huge length prefixes in
    /// the batch log and spliced records. Nothing panics, and every
    /// failure is a `load snapshot …` error naming the file.
    #[test]
    fn mutated_save_files_load_or_fail_by_name() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const MUTANTS: usize = 2000;
        let good = churned_save();
        let split = SNAPSHOT_HEADER_BYTES + snapshot::read_info(&good[..]).unwrap().payload_bytes;
        let frames = record_frames(&good, split);
        let load = |file: &[u8]| {
            load_save_file("mutant", file, K, EPS, SEED, N0, 1).map(|(_, saved)| saved.len())
        };
        assert_eq!(load(&good), Ok(3), "the unmutated save loads");
        let mut rng = StdRng::seed_from_u64(0x5EED_0007);
        let (mut loaded, mut refused) = (0, 0);
        for _ in 0..MUTANTS {
            let mut file = good.clone();
            let what = mutate(&mut rng, &mut file, split, &frames);
            match catch_unwind(AssertUnwindSafe(|| load(&file))) {
                Err(_) => panic!("loading panicked on mutant: {what}"),
                Ok(Ok(_)) => loaded += 1,
                Ok(Err(e)) if e.starts_with("load snapshot mutant: ") => refused += 1,
                Ok(Err(e)) => panic!("mutant {what}: an unnamed failure: {e}"),
            }
        }
        assert!(refused > loaded, "{refused} refused, {loaded} loaded");
    }
}
