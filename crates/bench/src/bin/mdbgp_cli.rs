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
use mdbgp_core::{GdConfig, GdPartitioner, KWayGdPartitioner};
use mdbgp_graph::gen;
use mdbgp_graph::{
    io as gio, Graph, InducedSubgraph, Partition, Partitioner, VertexWeights, WeightKind,
};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

/// Minimal `--key value` argument map.
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", argv[i]))?;
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            values.insert(key.to_string(), value);
            i += 2;
        }
        Ok(Self { values })
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn opt(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
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
/// Warm restart: `--save-snapshot FILE` persists the engine after the
/// last ingested batch (combine with `--stop-after B` to simulate a
/// crash mid-stream), and `--load-snapshot FILE` resumes a later
/// invocation from that state instead of bootstrapping — streaming
/// continues from wherever the saved run stopped. The replay addresses
/// vertices by their original input ids, so resume requires a snapshot
/// whose engine ids still *are* the input ids: id epoch 0 (no purging
/// compactions — rejected with the named stale-epoch error) and no
/// removals so far (recycled ids re-number arrivals even before any
/// purge, and the snapshot does not carry the replay's original→current
/// map). Churn *after* the resume point is fine.
fn cmd_stream(args: &Args) -> Result<(), String> {
    let graph = load_graph(args.req("input")?, &args.opt("format", "text"))?;
    let n = graph.num_vertices();
    let k: usize = args.num("k", 8)?;
    let eps: f64 = args.num("eps", 0.05)?;
    let seed: u64 = args.num("seed", 42)?;
    let batches: usize = args.num("batches", 10)?;
    let stop_after: usize = args.num("stop-after", 0)?;
    let threads: usize = args.num("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
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
    let write_metrics = |sp: &mut StreamingPartitioner, path: &str| -> Result<(), String> {
        let dump = if path.ends_with(".prom") || path.ends_with(".txt") {
            sp.metrics().render_text()
        } else {
            sp.metrics().render_json()
        };
        std::fs::write(path, dump).map_err(|e| format!("write metrics {path}: {e}"))
    };

    let (mut sp, n0, resumed_batches, resumed_tracker) = if let Ok(path) = args.req("load-snapshot")
    {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let mut reader = std::io::BufReader::new(file);
        // The replay scripts in original input ids, but the engine's id
        // space may have moved on (recycled slots, post-purge renumbering
        // at any id epoch): the resume trailer after the engine snapshot
        // carries the original→current map, so no epoch expectation here
        // — only shape (matching k, and the replay's two weight
        // dimensions: unit + degree).
        let expect = mdbgp_stream::SnapshotExpectation::default()
            .with_k(k)
            .with_dims(2);
        let start = std::time::Instant::now();
        let mut sp = StreamingPartitioner::restore_expecting(&mut reader, &expect)
            .map_err(|e| format!("load snapshot {path}: {e}"))?;
        sp.set_threads(threads);
        // `read_snapshot` consumed exactly the engine snapshot; what
        // follows must be the replay's own trailer.
        let state = mdbgp_bench::resume::read_trailer(&mut reader)
            .map_err(|e| format!("load snapshot {path}: {e}"))?;
        let n0 = state.arrived as usize;
        if n0 > n {
            return Err(format!(
                "snapshot covers {n0} streamed vertices but the input graph has only {n} — \
                 wrong input file for this snapshot?"
            ));
        }
        let tracker = mdbgp_bench::churn::IdTracker::from_map(state.map);
        // Light cross-validation: every live translation must land inside
        // the restored engine's id space.
        let engine_n = sp.graph().num_vertices() as u32;
        for orig in 0..tracker.len() as u32 {
            if let Some(cur) = tracker.current(orig) {
                if cur >= engine_n {
                    return Err(format!(
                        "resume trailer maps original vertex {orig} to engine id {cur}, outside \
                         the restored engine's {engine_n}-vertex id space — trailer and snapshot \
                         disagree"
                    ));
                }
            }
        }
        let batch_no = state.batch_no as usize;
        println!(
            "resumed from {path} in {:.2}s: {n0}/{n} vertices already ingested \
             ({} batches so far, id epoch {}), locality {:.1}%, imbalance {:.2}%",
            start.elapsed().as_secs_f64(),
            sp.read_view().epoch().batch_seq,
            sp.id_epoch(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        (sp, n0, batch_no, tracker)
    } else {
        let n0 = ((n as f64 * bootstrap_fraction) as usize)
            .max(k)
            .min(n.saturating_sub(1));
        let prefix: Vec<u32> = (0..n0 as u32).collect();
        let boot = InducedSubgraph::extract(&graph, &prefix);
        let weights = VertexWeights::vertex_edge(&boot.graph);
        let mut cfg = StreamConfig::new(k, eps).with_threads(threads);
        cfg.gd = GdConfig {
            iterations: 60,
            ..GdConfig::with_epsilon(eps)
        };
        cfg.seed = seed;

        let start = std::time::Instant::now();
        let sp = StreamingPartitioner::bootstrap(boot.graph.clone(), weights, cfg)
            .map_err(|e| e.to_string())?;
        println!(
            "bootstrap on {n0}/{n} vertices in {:.2}s: locality {:.1}%, imbalance {:.2}%",
            start.elapsed().as_secs_f64(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        (sp, n0, 0, mdbgp_bench::churn::IdTracker::identity(n0))
    };

    let per_batch = (n - n0).div_ceil(batches.max(1));
    let mut arrived = n0 as u32;
    let mut batch_no = resumed_batches;
    // Fresh bootstrap: the identity tracker, trivially. Resume: the
    // trailer's map.
    let mut tracker = resumed_tracker;
    // The churn RNG is reseeded fresh on resume: removal *victims* after
    // the resume point differ from the uninterrupted run's, which is
    // fine — victims are sampled from the live graph through the
    // tracker, so any sequence is a valid churn script. Resume restores
    // *state*, not the original run's future randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
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
        mdbgp_bench::churn::queue_arrivals(
            &mut batch,
            &graph,
            sp.graph(),
            &mut tracker,
            arrived,
            end,
        );
        if churn > 0.0 {
            let removals = ((end - arrived) as f64 * churn) as usize;
            mdbgp_bench::churn::queue_removals(
                &mut batch,
                sp.graph(),
                &mut tracker,
                &mut rng,
                removals,
                removals,
            );
        }
        arrived = end;
        let start = std::time::Instant::now();
        let report = sp.ingest(&batch).map_err(|e| e.to_string())?;
        if let Some(remap) = &report.remap {
            tracker.apply_remap(remap);
        }
        mdbgp_bench::churn::verify_arrival_ids(&tracker, end, &report.arrival_ids)?;
        println!(
            "batch {batch_no}: +{} -{} vertices, +{} -{} edges in {:.1}ms — imbalance \
             {:.2}%, locality {:.1}%{}{}",
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
        if metrics_every > 0 && batch_no.is_multiple_of(metrics_every) {
            if let Some(path) = &metrics_out {
                write_metrics(&mut sp, path)?;
                println!("flushed metrics -> {path} (batch {batch_no})");
            }
        }
    }

    // Persist the engine *before* the final output purge below (which
    // exists only to make the `--output` assignment cover exactly the
    // live vertices). The snapshot itself may be taken at any id epoch:
    // the resume trailer appended after it carries the replay's
    // original→current id map, so a later `--load-snapshot` continues
    // scripting in original ids regardless of purges. `--purge-before-save
    // true` forces a purging compaction first — a deterministic way to
    // exercise (and regression-test) the post-purge resume path.
    if let Ok(path) = args.req("save-snapshot") {
        if args.num::<bool>("purge-before-save", false)? {
            if let Some(remap) = sp.purge() {
                tracker.apply_remap(&remap);
            }
            println!(
                "purged before save: id epoch {}, {} live vertices",
                sp.id_epoch(),
                sp.graph().num_vertices()
            );
        }
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        );
        let info = sp
            .save_snapshot(&mut file)
            .map_err(|e| format!("save snapshot {path}: {e}"))?;
        let state = mdbgp_bench::resume::ResumeState {
            arrived,
            batch_no: batch_no as u64,
            map: tracker.as_slice().to_vec(),
        };
        mdbgp_bench::resume::write_trailer(&mut file, &state)
            .map_err(|e| format!("save snapshot {path}: {e}"))?;
        println!(
            "wrote snapshot -> {path} ({} payload bytes + resume trailer, id epoch {}, k {}, \
             {} dims, {arrived} streamed)",
            info.payload_bytes, info.id_epoch, info.k, info.dims
        );
    }

    if let Some(path) = &metrics_out {
        write_metrics(&mut sp, path)?;
        println!("wrote metrics dump -> {path}");
    }

    // Under churn the final snapshot may still hold tombstoned ids; purge
    // so the partition written below covers exactly the live vertices.
    if let Some(remap) = sp.purge() {
        tracker.apply_remap(&remap);
    }
    let (imbalance, locality) = (sp.max_imbalance(), sp.store().edge_locality());
    let m = sp.metrics();
    println!(
        "done: {} arrivals, {} removals, +{} -{} edges, {} compactions ({} purges), \
         {} refinements (registry counters, counted since this process started or last \
         restored); final imbalance {:.2}%, locality {:.1}%",
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
            [--purge-before-save true] [--metrics-out FILE] [--metrics-every N]
            [--output PARTS] [--format text|metis|binary]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "partition" => cmd_partition(&args),
        "evaluate" => cmd_evaluate(&args),
        "stream" => cmd_stream(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
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

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn arg_parsing_roundtrip() {
        let a = args(&["--k", "8", "--eps", "0.05"]);
        assert_eq!(a.req("k").unwrap(), "8");
        assert_eq!(a.num::<usize>("k", 2).unwrap(), 8);
        assert_eq!(a.num::<f64>("eps", 0.1).unwrap(), 0.05);
        assert_eq!(a.num::<u64>("seed", 7).unwrap(), 7, "default applies");
        assert!(a.req("missing").is_err());
    }

    #[test]
    fn arg_parsing_rejects_malformed() {
        assert!(Args::parse(&["k".to_string()]).is_err());
        assert!(Args::parse(&["--k".to_string()]).is_err());
    }

    #[test]
    fn dims_parser() {
        let kinds = parse_dims("unit,degree,ndsum,pagerank").unwrap();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], WeightKind::Unit);
        assert!(parse_dims("bogus").is_err());
    }
}
