//! `stream_online` end to end. In its serving and replication modes it
//! records real span totals: a short drifting, churning, purging run with
//! readers, and one with followers, each writes a perf record whose span
//! paths reach down to the pair-solve kernels and the compaction, and
//! whose every path holds at least what its direct children add up to.
//! Its refine tail is taken over every batch, also across a restore. And
//! it refuses what it cannot run faithfully: a misspelled flag, or a mode
//! combination no CI leg runs.

use mdbgp_bench::perfgate::PerfRecord;
use std::process::Command;

const STREAM: &[&str] = &[
    "--shape",
    "grow-shrink",
    "--compact-slack",
    "0.05",
    "--n",
    "3000",
    "--batches",
    "6",
    "--arrivals",
    "100",
    "--extra-edges",
    "100",
    "--drift",
    "200",
    "--churn",
    "0.4",
    "--k",
    "4",
    "--eps",
    "0.05",
    "--threads",
    "1",
];

const BIN: &str = env!("CARGO_BIN_EXE_stream_online");

/// Runs `stream_online` with `args` and returns its perf record and, if
/// `dump`, its full metrics dump.
fn run(tag: &str, args: &[&str], dump: bool) -> (PerfRecord, String) {
    let file = |kind: &str| {
        std::env::temp_dir().join(format!(
            "mdbgp-stage-totals-{tag}-{kind}-{}.json",
            std::process::id()
        ))
    };
    let (out, metrics) = (file("record"), file("metrics"));
    let mut cmd = Command::new(BIN);
    cmd.args(args).arg("--json-out").arg(&out);
    if dump {
        cmd.arg("--metrics-out").arg(&metrics);
    }
    let run = cmd.output().expect("spawn bench");
    assert!(
        run.status.success(),
        "{tag} failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let read = |path| {
        let text = std::fs::read_to_string(path).expect("output written");
        let _ = std::fs::remove_file(path);
        text
    };
    let record = PerfRecord::from_json(&read(&out)).expect("perf record parses");
    (record, if dump { read(&metrics) } else { String::new() })
}

/// Field `key` of histogram `name` in a metrics dump.
fn histogram_field(dump: &str, name: &str, key: &str) -> u64 {
    let line = (dump.lines())
        .find(|l| l.trim_start().starts_with(&format!("\"{name}\":")))
        .unwrap_or_else(|| panic!("{name} not in the dump"));
    let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().expect("an integer")
}

fn assert_stage_totals(tag: &str, r: &PerfRecord) {
    let batches = r.spec.batches as u64;
    for path in [
        "ingest",
        "ingest.split",
        "ingest.refine",
        "ingest.refine.gd.gather",
        "ingest.refine.gd.pairs",
        "ingest.refine.compact",
    ] {
        assert!(r.span_ms(path) > 0.0, "{tag}: {path} never ran");
    }
    for kernel in ["build", "matvec", "project", "round", "judge"] {
        let path = format!("ingest.refine.gd.pairs.{kernel}");
        assert!(r.span_count(&path) > 0, "{tag}: {path} never ran");
    }
    assert_eq!(r.span_count("ingest"), batches, "{tag}");
    assert_eq!(r.span_count("ingest.refine"), batches, "{tag}");
    assert!(
        r.span_ms("ingest") <= r.inc_total_ms,
        "{tag}: the ingest span {} ms exceeds the ingest wall-clock {} ms",
        r.span_ms("ingest"),
        r.inc_total_ms
    );
    // Children run inside their parent, so they add up to at most its
    // total, up to the record's rounding to 0.001 ms per value.
    for (path, stat) in &r.spans {
        let children: Vec<f64> = (r.spans.iter())
            .filter(|(p, _)| p.rsplit_once('.').is_some_and(|(up, _)| up == path))
            .map(|(_, s)| s.total_ms)
            .collect();
        let sum: f64 = children.iter().sum();
        let slack = 0.0005 * (children.len() + 1) as f64;
        assert!(
            sum <= stat.total_ms + slack,
            "{tag}: the children of {path} add up to {sum} ms, more than its {} ms",
            stat.total_ms
        );
    }
}

#[test]
fn serve_bench_records_stage_totals() {
    let (r, dump) = run("serve", &[STREAM, &["--readers", "1"]].concat(), true);
    assert_eq!(r.spec.readers, 1);
    assert_stage_totals("--readers 1", &r);
    assert_eq!(r.span_count("follower.replay"), 0);
    // Without a restore, the refine tail is the registry's.
    let p99 = histogram_field(&dump, "span.ingest.refine_us", "p99");
    assert_eq!(r.refine_p99_ms, p99 as f64 / 1000.0);
}

#[test]
fn replicate_bench_records_the_leaders_stage_totals() {
    let extra = ["--followers", "1", "--rotate-every", "3"];
    let (r, _) = run("replicate", &[STREAM, &extra].concat(), false);
    assert_eq!(r.spec.followers, 1);
    // One replay call per follower per record.
    assert_eq!(r.span_count("follower.replay"), 6);
    assert!(r.span_ms("follower.replay") > 0.0);
    assert_stage_totals("--followers 1", &r);
}

/// A drifting, churning stream that is killed and resumed after its last
/// batch.
const RESUMED: &[&str] = &[
    "--n",
    "8000",
    "--batches",
    "5",
    "--arrivals",
    "100",
    "--extra-edges",
    "100",
    "--drift",
    "150",
    "--churn",
    "0.1",
    "--k",
    "8",
    "--eps",
    "0.05",
    "--threads",
    "1",
    "--snapshot-every",
    "5",
];

#[test]
fn refine_tail_is_taken_over_every_batch() {
    // The restore after the last batch leaves a fresh registry that has
    // seen no batch. The record's tail still covers all five: it is at
    // least their mean refine time, up to the rounding to whole µs.
    let (r, dump) = run("resumed", RESUMED, true);
    assert!(
        !dump.contains("\"span.ingest.refine_us\":"),
        "the registry restarts at a restore"
    );
    let mean_ms = r.span_ms("ingest.refine") / 5.0;
    assert!(mean_ms > 0.0);
    assert!(
        r.refine_p99_ms + 0.002 >= mean_ms,
        "tail {} ms below the mean refine time {mean_ms} ms",
        r.refine_p99_ms
    );
}

/// Runs `stream_online` with `args`, expecting a usage error; returns its
/// stderr.
fn rejected(args: &[&str]) -> String {
    let run = Command::new(BIN).args(args).output().expect("spawn bench");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(!run.status.success(), "{args:?} ran:\n{stderr}");
    stderr
}

#[test]
fn misspelled_flags_are_rejected_by_name() {
    let err = rejected(&["--n", "2000", "--thread", "4"]);
    assert!(err.contains("unknown flag --thread"), "{err}");
    let err = rejected(&["--shape", "grow-shrink", "--folowers", "5"]);
    assert!(err.contains("unknown flag --folowers"), "{err}");
    let err = rejected(&["--threads", "1", "--threads", "4"]);
    assert!(err.contains("--threads given twice"), "{err}");
}

#[test]
fn unsupported_mode_combinations_are_rejected() {
    let err = rejected(&[
        "--shape",
        "grow-shrink",
        "--readers",
        "2",
        "--followers",
        "1",
    ]);
    assert!(
        err.contains("unsupported mode combination --readers + --followers"),
        "{err}"
    );
    let err = rejected(&["--snapshot-every", "2", "--arrivals-heavy", "true"]);
    assert!(
        err.contains("unsupported mode combination --snapshot-every + --arrivals-heavy"),
        "{err}"
    );
    for lone in [&["--readers", "2"][..], &["--shape", "grow-shrink"]] {
        let err = rejected(lone);
        assert!(err.contains("--shape grow-shrink"), "{err}");
    }
    let err = rejected(&["--rotate-every", "2"]);
    assert!(
        err.contains("--rotate-every and --stamps-out need --followers"),
        "{err}"
    );
}
