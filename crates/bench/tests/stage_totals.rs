//! `stream_online` end to end. In its serving and replication modes it
//! records real span totals: a short drifting, churning, purging run with
//! readers, and one with followers, each writes a perf record whose span
//! paths reach down to the refinement kernels and the compaction, and
//! whose every path holds at least what its direct children add up to.
//! And it refuses what it cannot run faithfully: a misspelled flag, or a
//! mode combination no CI leg runs.

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

/// Runs `stream_online` over [`STREAM`] plus `extra` and returns its perf
/// record.
fn record(tag: &str, extra: &[&str]) -> PerfRecord {
    let out = std::env::temp_dir().join(format!(
        "mdbgp-stage-totals-{tag}-{}.json",
        std::process::id()
    ));
    let run = Command::new(BIN)
        .args(STREAM)
        .args(extra)
        .arg("--json-out")
        .arg(&out)
        .output()
        .expect("spawn bench");
    assert!(
        run.status.success(),
        "{tag} failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("perf record written");
    let _ = std::fs::remove_file(&out);
    PerfRecord::from_json(&text).expect("perf record parses")
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
    let r = record("serve", &["--readers", "1"]);
    assert_eq!(r.spec.readers, 1);
    assert_stage_totals("--readers 1", &r);
    assert_eq!(r.span_count("follower.replay"), 0);
}

#[test]
fn replicate_bench_records_the_leaders_stage_totals() {
    let r = record("replicate", &["--followers", "1", "--rotate-every", "3"]);
    assert_eq!(r.spec.followers, 1);
    // One replay call per follower per record.
    assert_eq!(r.span_count("follower.replay"), 6);
    assert!(r.span_ms("follower.replay") > 0.0);
    assert_stage_totals("--followers 1", &r);
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
