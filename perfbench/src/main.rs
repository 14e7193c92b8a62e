//! `perfbench` — the repository's benchmark: the streaming partitioner at
//! n = 200k, end to end through the public API (bootstrap, leader ingest,
//! follower replay, serving reads, quality), with a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-drift|churn-serve --seed N --seconds S --trace 0|1
//!     [--check-determinism]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Lines before it are the human-readable report. An
//! untraced run leaves its end-to-end metrics in `.perfbench/`, where a
//! traced run of the same workload and seed finds them and reports its
//! tracing overhead; a traced run writes its spans there too.
//! `--check-determinism` runs the workload twice and compares quality,
//! the final view checksum and every count-valued per-layer metric.

mod clock;
mod host;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Outcome, Params};
use stats::{metric_table, result_line, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::layers;
use workload::Spec;

const USAGE: &str = "usage: perfbench --workload hot-drift|churn-serve --seed N --seconds S \
                     --trace 0|1 [--check-determinism]";

/// Where runs leave their records, relative to the repository root.
const OUT_DIR: &str = ".perfbench";

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_determinism: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut check_determinism = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
        if key == "check-determinism" {
            check_determinism = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let get = |key: &str| {
        flags
            .get(key)
            .copied()
            .ok_or_else(|| format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<u64, String> {
        let v = get(key)?;
        v.parse()
            .map_err(|_| format!("--{key}: not a whole number: {v:?}"))
    };
    let name = get("workload")?;
    let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = number("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !matches!(**k, "workload" | "seed" | "seconds" | "trace"))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        spec,
        seed: number("seed")?,
        seconds,
        trace,
        check_determinism,
    })
}

fn params(args: &Args, trace: bool) -> Params {
    Params {
        spec: args.spec,
        seed: args.seed,
        dataset_seed: workload::DATASET_SEED,
        timed: args.spec.timed_batches(args.seconds),
        boot_n: workload::BOOT_N,
        tail_n: workload::TAIL_N,
        setup_reps: SETUP_REPS,
        trace,
    }
}

fn record_path(args: &Args, what: &str) -> String {
    format!("{OUT_DIR}/{}-seed{}-{what}", args.spec.name, args.seed)
}

/// Writes `text` under [`OUT_DIR`]; a failure is reported, not fatal.
fn save(path: &str, text: &str) {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(path, text)) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

/// End-to-end metrics as `name value` lines.
fn render_values(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{} {:?}\n", m.name, m.value))
        .collect()
}

fn parse_values(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The traced run's report: the per-layer table, span coverage, and the
/// tracing overhead against an untraced run of the same seed.
fn traced_report(args: &Args, out: &Outcome) {
    println!("per-layer metrics (timed batches):");
    print!("{}", metric_table(&out.layers));
    println!("span layers (all batches; self = span minus the part its children cover):");
    println!(
        "  {:<58} {:>7} {:>12} {:>12}",
        "path", "count", "total ms", "self ms"
    );
    for (path, layer) in layers(out.tracer.spans()) {
        println!(
            "  {:<58} {:>7} {:>12.3} {:>12.3}",
            path, layer.count, layer.total_ms, layer.self_ms
        );
    }
    match std::fs::read_to_string(record_path(args, "e2e.txt")) {
        Ok(text) => {
            let untraced = parse_values(&text);
            println!("tracing overhead (traced − untraced, same seed):");
            for m in &out.e2e {
                if let Some(&base) = untraced.get(m.name) {
                    let pct = if base != 0.0 {
                        100.0 * (m.value - base) / base
                    } else {
                        0.0
                    };
                    println!(
                        "  {:<26} {:>14.6} vs {:>14.6} {:<14} ({pct:+.2} %)",
                        m.name, m.value, base, m.unit
                    );
                }
            }
        }
        Err(_) => println!(
            "tracing overhead: no untraced run of this workload and seed recorded; run with \
             --trace 0 first"
        ),
    }
    let path = record_path(args, "spans.json");
    save(&path, &out.tracer.to_json());
    println!("spans: {} written to {path}", out.tracer.spans().len());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = params(&args, args.trace);
    println!(
        "perfbench: workload={} seed={} timed_batches={} warmup={} n={} k={} eps={} threads=1 \
         trace={}",
        args.spec.name,
        args.seed,
        p.timed,
        args.spec.warmup,
        p.boot_n,
        workload::K,
        workload::EPSILON,
        u8::from(args.trace)
    );
    let probe_start = host::Probe::take();
    let out = match run::run(&p) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probe_end = host::Probe::take();
    println!("{}", host::report(&probe_start, &probe_end));
    for note in &out.notes {
        println!("{note}");
    }
    println!("end-to-end metrics (timed batches):");
    print!("{}", metric_table(&out.e2e));
    println!(
        "checks: {} operations attempted, {} failed{}",
        out.ledger.attempted,
        out.ledger.failed,
        out.ledger
            .violations
            .iter()
            .map(|(name, n)| format!(", {name} x{n}"))
            .collect::<String>()
    );
    println!("final view checksum {:#018x}", out.final_checksum);

    let mut correct = out.ledger.failed == 0;
    if args.check_determinism {
        println!(
            "determinism: running the workload again with seed {}",
            args.seed
        );
        match run::run(&params(&args, false)) {
            Ok(again) => {
                let (a, b) = (out.fingerprint(), again.fingerprint());
                let differ: Vec<String> = a
                    .iter()
                    .zip(&b)
                    .filter(|(x, y)| x != y)
                    .map(|(x, y)| format!("{}: {} vs {}", x.0, x.1, y.1))
                    .collect();
                if differ.is_empty() && a.len() == b.len() {
                    println!("determinism: {} values identical across both runs", a.len());
                } else {
                    correct = false;
                    for d in differ {
                        println!("NONDETERMINISM {d}");
                    }
                }
            }
            Err(e) => {
                eprintln!("error: determinism rerun: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let reported = if args.trace {
        traced_report(&args, &out);
        &out.layers
    } else {
        save(&record_path(&args, "e2e.txt"), &render_values(&out.e2e));
        &out.e2e
    };
    println!(
        "{}",
        result_line(correct, out.ledger.attempted, out.ledger.failed, reported)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_malformed_input() {
        let a = parse_args(&argv(
            "--workload churn-serve --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("churn-serve", 7, 10, true)
        );
        assert!(!a.check_determinism);
        let a = parse_args(&argv(
            "--check-determinism --workload hot-drift --seed 1 --seconds 1 --trace 0",
        ))
        .unwrap();
        assert!(a.check_determinism && !a.trace);
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload hot-drift --seed x --seconds 1 --trace 0",
            "--workload hot-drift --seed 1 --seconds 0 --trace 0",
            "--workload hot-drift --seed 1 --seconds 1 --trace 2",
            "--workload hot-drift --seed 1 --seconds 1",
            "--workload hot-drift --seed 1 --seconds 1 --trace 0 --extra 3",
            "--workload hot-drift --workload hot-drift --seed 1 --seconds 1 --trace 0",
            "workload hot-drift",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn recorded_values_round_trip() {
        let metrics = [
            Metric::new("a.b", "ms", 0.1 + 0.2, 3),
            Metric::new("c", "s", 2.5, 1),
        ];
        let parsed = parse_values(&render_values(&metrics));
        assert_eq!(parsed["a.b"], 0.1 + 0.2);
        assert_eq!(parsed["c"], 2.5);
    }
}
