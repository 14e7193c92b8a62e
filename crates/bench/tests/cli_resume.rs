//! Crash-resume through `mdbgp_cli stream`. A save file is the run's
//! bootstrap snapshot followed by the batch log of every batch so far; a
//! resumed run restores the snapshot, re-runs its script over the logged
//! batches (applying their refinement decisions) and carries on. The
//! resumed stream must be the uninterrupted one, purges and refinement
//! passes included, and a damaged or foreign save file must be refused by
//! name before anything is written.

use std::path::{Path, PathBuf};
use std::process::Command;

use mdbgp_stream::snapshot::{read_info, SNAPSHOT_HEADER_BYTES};
use mdbgp_stream::wire::{LOG_HEADER_BYTES, RECORD_FRAME_BYTES};
use mdbgp_stream::Follower;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdbgp_cli"))
        .args(args)
        .output()
        .expect("spawn mdbgp_cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdbgp-cli-resume-{tag}-{}", std::process::id()));
    // A leftover directory from a previous run of this same pid is stale.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Writes the n = 600 community graph every test streams.
fn generate(dir: &Path) -> PathBuf {
    let graph = dir.join("g.txt");
    let (code, _, err) = run(&[
        "generate",
        "--model",
        "community",
        "--n",
        "600",
        "--seed",
        "3",
        "--output",
        path(&graph),
    ]);
    assert_eq!(code, Some(0), "generate failed: {err}");
    graph
}

/// The test stream's `--eps`.
const EPS: &str = "0.02";

/// Runs `mdbgp_cli stream` on `graph` with the test stream's flags
/// (`--churn` and `--seed` as given) followed by `extra`, and returns its
/// stdout; the run must succeed.
fn stream(graph: &Path, churn: &str, seed: &str, extra: &[&str]) -> String {
    let (code, stdout, err) = run(&stream_args(graph, churn, seed, EPS, extra));
    assert_eq!(code, Some(0), "stream {extra:?} failed: {err}\n{stdout}");
    stdout
}

fn stream_args<'a>(
    graph: &'a Path,
    churn: &'a str,
    seed: &'a str,
    eps: &'a str,
    extra: &[&'a str],
) -> Vec<&'a str> {
    let mut args = vec![
        "stream",
        "--input",
        path(graph),
        "--k",
        "4",
        "--eps",
        eps,
        "--batches",
        "6",
        "--churn",
        churn,
        "--seed",
        seed,
    ];
    args.extend_from_slice(extra);
    args
}

/// Extracts the number following `needle` in `haystack`.
fn number_after(haystack: &str, needle: &str) -> u64 {
    let at = haystack
        .find(needle)
        .unwrap_or_else(|| panic!("'{needle}' not found in:\n{haystack}"));
    haystack[at + needle.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("no number after '{needle}' in:\n{haystack}"))
}

/// The GD move counts of the refinement passes among `lines`.
fn gd_moves<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<u64> {
    lines
        .filter(|l| l.contains("(refined:"))
        .map(|l| number_after(l, "rebalance +"))
        .collect()
}

fn batch_lines(stdout: &str) -> impl Iterator<Item = &str> {
    stdout.lines().filter(|l| l.starts_with("batch "))
}

/// Where a save file's batch log starts: right after its snapshot.
fn log_start(save: &[u8]) -> usize {
    SNAPSHOT_HEADER_BYTES + read_info(save).expect("snapshot header").payload_bytes
}

/// A file in the earlier CLI's layout for the stop point of the save file
/// `save`: the engine snapshot taken after the last batch, then that
/// CLI's own resume trailer. The loader refuses it at the snapshot, which
/// is not a bootstrap state, and never reads what follows, so zero bytes
/// stand in for the trailer.
fn earlier_cli_file(save: &[u8]) -> Vec<u8> {
    let split = log_start(save);
    let mut follower = Follower::bootstrap(&save[..split]).expect("bootstrap");
    follower.replay(&save[split..]).expect("replay");
    let mut file = Vec::new();
    follower
        .into_engine()
        .save_snapshot(&mut file)
        .expect("save");
    file.extend_from_slice(&[0; 64]);
    file
}

fn done_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("done:"))
        .unwrap_or_else(|| panic!("no done line in:\n{stdout}"))
}

/// Stopped after batch 3 and resumed, and stopped again after batch 4 and
/// resumed again, the stream writes the uninterrupted run's `--output`
/// byte for byte. The saved prefix holds a refinement pass with GD moves
/// and a purge, and the continuation refines again.
#[test]
fn stop_and_resume_matches_the_uninterrupted_run() {
    let dir = scratch_dir("exact");
    let graph = generate(&dir);
    let [full, s3, s4, once, twice] =
        ["full.txt", "s3", "s4", "once.txt", "twice.txt"].map(|f| dir.join(f));

    let uninterrupted = stream(&graph, "0.3", "7", &["--output", path(&full)]);

    let saving = stream(
        &graph,
        "0.3",
        "7",
        &["--stop-after", "3", "--save-snapshot", path(&s3)],
    );
    assert_eq!(batch_lines(&saving).count(), 3, "{saving}");
    assert!(
        gd_moves(batch_lines(&saving)).iter().any(|&m| m > 0),
        "no refinement pass with GD moves before the save:\n{saving}"
    );
    assert!(
        number_after(done_line(&saving), "compactions (") >= 1,
        "no purge before the save:\n{saving}"
    );
    assert!(
        number_after(&saving, "id epoch") >= 1,
        "the saved run is still at id epoch 0:\n{saving}"
    );

    let resumed = stream(
        &graph,
        "0.3",
        "7",
        &["--load-snapshot", path(&s3), "--output", path(&once)],
    );
    assert!(resumed.contains("resumed from"), "{resumed}");
    let expected = std::fs::read(&full).expect("read uninterrupted output");
    assert_eq!(std::fs::read(&once).expect("read resumed output"), expected);
    assert_eq!(done_line(&resumed), done_line(&uninterrupted));
    let (replayed, continued): (Vec<&str>, Vec<&str>) =
        batch_lines(&resumed).partition(|l| l.contains("(re-ingested)"));
    assert_eq!((replayed.len(), continued.len()), (3, 3), "{resumed}");
    assert!(
        !gd_moves(continued.into_iter()).is_empty(),
        "the continuation never refined:\n{resumed}"
    );

    stream(
        &graph,
        "0.3",
        "7",
        &[
            "--load-snapshot",
            path(&s3),
            "--stop-after",
            "4",
            "--save-snapshot",
            path(&s4),
        ],
    );
    let again = stream(
        &graph,
        "0.3",
        "7",
        &["--load-snapshot", path(&s4), "--output", path(&twice)],
    );
    assert_eq!(number_after(&again, ": re-ingested"), 4, "{again}");
    assert_eq!(std::fs::read(&twice).expect("read output"), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every damaged or foreign save file, and a resume whose `--eps` or
/// `--seed` differs from the save's, exits 1 with a named error, prints no
/// `resumed from` line and writes no `--output` file.
#[test]
fn damaged_or_foreign_save_files_are_refused_by_name() {
    let dir = scratch_dir("refused");
    let graph = generate(&dir);
    let good = dir.join("s3");
    stream(
        &graph,
        "0.3",
        "7",
        &["--stop-after", "3", "--save-snapshot", path(&good)],
    );
    let bytes = std::fs::read(&good).expect("read save file");
    let split = log_start(&bytes);
    assert!(bytes.len() > split + LOG_HEADER_BYTES + RECORD_FRAME_BYTES);

    let refuse = |case: &str, file: &[u8], [churn, seed, eps]: [&str; 3], named: &str| {
        let (save, out) = (dir.join(case), dir.join(format!("{case}.out")));
        std::fs::write(&save, file).expect("write case file");
        let extra = ["--load-snapshot", path(&save), "--output", path(&out)];
        let (code, stdout, err) = run(&stream_args(&graph, churn, seed, eps, &extra));
        assert_eq!(code, Some(1), "{case}: {err}\n{stdout}");
        assert!(err.contains(named), "{case}: expected '{named}' in: {err}");
        assert!(!stdout.contains("resumed from"), "{case}: {stdout}");
        assert!(!out.exists(), "{case}: wrote an --output file");
    };

    refuse(
        "inside-snapshot",
        &bytes[..split / 2],
        ["0.3", "7", EPS],
        "truncated inside its snapshot",
    );
    // The header's payload length, found by its value, claims 2^64 - 16
    // bytes: no checksum has covered it when the file is split.
    let claimed = ((split - SNAPSHOT_HEADER_BYTES) as u64).to_le_bytes();
    let at = (0..SNAPSHOT_HEADER_BYTES - 7)
        .find(|&at| bytes[at..at + 8] == claimed)
        .expect("the header holds the payload length");
    let mut forged = bytes.clone();
    forged[at..at + 8].copy_from_slice(&(u64::MAX - 15).to_le_bytes());
    refuse(
        "forged-payload-length",
        &forged,
        ["0.3", "7", EPS],
        &format!(
            "truncated inside its snapshot: the header claims a payload of {} bytes, the file \
             holds {}",
            u64::MAX - 15,
            forged.len()
        ),
    );
    refuse(
        "inside-record",
        &bytes[..bytes.len() - 5],
        ["0.3", "7", EPS],
        "batch log record 3: batch log truncated",
    );
    let mut flipped = bytes.clone();
    flipped[split + LOG_HEADER_BYTES + RECORD_FRAME_BYTES + 20] ^= 0x10;
    refuse(
        "flipped-payload",
        &flipped,
        ["0.3", "7", EPS],
        "batch log record 1: batch-log checksum mismatch",
    );
    // The saved log's first batch removed fewer vertices.
    refuse(
        "other-churn",
        &bytes,
        ["0.2", "7", EPS],
        "batch 1 of this run's script",
    );
    // The engine's own settings come back from the snapshot, so they are
    // compared with the flags before anything runs.
    refuse(
        "other-seed",
        &bytes,
        ["0.3", "8", EPS],
        "the save was made with --seed 7, this run has --seed 8",
    );
    refuse(
        "other-eps",
        &bytes,
        ["0.3", "7", "0.2"],
        "the save was made with --eps 0.02, this run has --eps 0.2",
    );

    refuse(
        "earlier-cli",
        &earlier_cli_file(&bytes),
        ["0.3", "7", EPS],
        "snapshot is at id epoch 1 but the caller's ids are at epoch 0",
    );
    // Without churn no purge moves the id epoch; the vertex count tells.
    let churn_free = dir.join("churn-free");
    stream(
        &graph,
        "0",
        "7",
        &["--stop-after", "2", "--save-snapshot", path(&churn_free)],
    );
    let churn_free = std::fs::read(&churn_free).expect("read save file");
    refuse(
        "earlier-cli-churn-free",
        &earlier_cli_file(&churn_free),
        ["0", "7", EPS],
        "it is not this stream's bootstrap state",
    );
    // Without churn the script does not read the seed at all.
    refuse(
        "other-seed-churn-free",
        &churn_free,
        ["0", "99", EPS],
        "the save was made with --seed 7, this run has --seed 99",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the command does not read, or one given twice, exits 1 naming
/// it before any work: no batch line, no save file.
#[test]
fn unknown_or_repeated_flags_are_refused_by_name() {
    let dir = scratch_dir("flags");
    let graph = generate(&dir);
    let save = dir.join("s3");
    for (extra, named) in [
        (
            ["--stop-afer", "3", "--save-snapshot", path(&save)],
            "stream: unknown flag --stop-afer",
        ),
        (
            ["--seed", "8", "--save-snapshot", path(&save)],
            "stream: --seed given twice",
        ),
    ] {
        let (code, stdout, err) = run(&stream_args(&graph, "0.3", "7", EPS, &extra));
        assert_eq!(code, Some(1), "{extra:?}: {err}\n{stdout}");
        assert!(
            err.contains(named),
            "{extra:?}: expected '{named}' in: {err}"
        );
        assert!(stdout.is_empty(), "{extra:?} did work:\n{stdout}");
        assert!(!save.exists(), "{extra:?} wrote a save file");
    }
    let (code, _, err) = run(&["generate", "--n", "600", "--purge-before-save", "true"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("generate: unknown flag --purge-before-save"),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
