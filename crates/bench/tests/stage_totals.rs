//! The serving and replication benches record real per-stage totals: a
//! short drifting, churning run of each writes a perf record whose split
//! and refine totals are the sums of its batches' stage timings, not the
//! zeros those fields once carried.

use mdbgp_bench::perfgate::PerfRecord;
use std::process::Command;

const STREAM: &[&str] = &[
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

/// Runs `bin` over [`STREAM`] plus `extra` and returns its perf record.
fn record(bin: &str, tag: &str, extra: &[&str]) -> PerfRecord {
    let out = std::env::temp_dir().join(format!(
        "mdbgp-stage-totals-{tag}-{}.json",
        std::process::id()
    ));
    let run = Command::new(bin)
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
    assert!(r.split_total_ms > 0.0, "{tag}: split_total_ms is zero");
    assert!(r.refine_total_ms > 0.0, "{tag}: refine_total_ms is zero");
    let stages = r.validate_total_ms
        + r.split_total_ms
        + r.place_total_ms
        + r.repair_total_ms
        + r.commit_total_ms
        + r.refine_total_ms;
    assert!(
        stages <= r.inc_total_ms,
        "{tag}: stage totals {stages} ms exceed the ingest wall-clock {} ms",
        r.inc_total_ms
    );
}

#[test]
fn serve_bench_records_stage_totals() {
    let r = record(
        env!("CARGO_BIN_EXE_stream_serve"),
        "serve",
        &["--readers", "1"],
    );
    assert_stage_totals("stream_serve", &r);
}

#[test]
fn replicate_bench_records_the_leaders_stage_totals() {
    let r = record(
        env!("CARGO_BIN_EXE_stream_replicate"),
        "replicate",
        &["--followers", "1", "--rotate-every", "3"],
    );
    assert_stage_totals("stream_replicate", &r);
}
