//! `stream_online` end to end. In its serving and replication modes it
//! records real per-stage totals: a short drifting, churning run with
//! readers, and one with followers, each writes a perf record whose split
//! and refine totals are the sums of its batches' stage timings, not
//! zeros. And it refuses what it cannot run faithfully: a misspelled flag,
//! or a mode combination no CI leg runs.

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
    assert!(r.stages.split_ms > 0.0, "{tag}: split_total_ms is zero");
    assert!(r.stages.refine_ms > 0.0, "{tag}: refine_total_ms is zero");
    let stages = r.stages.total_ms();
    assert!(
        stages <= r.inc_total_ms,
        "{tag}: stage totals {stages} ms exceed the ingest wall-clock {} ms",
        r.inc_total_ms
    );
}

#[test]
fn serve_bench_records_stage_totals() {
    let r = record("serve", &["--readers", "1"]);
    assert_eq!(r.spec.readers, 1);
    assert_stage_totals("--readers 1", &r);
}

#[test]
fn replicate_bench_records_the_leaders_stage_totals() {
    let r = record("replicate", &["--followers", "1", "--rotate-every", "3"]);
    assert_eq!(r.spec.followers, 1);
    assert_eq!(r.replay_batches, 6);
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
