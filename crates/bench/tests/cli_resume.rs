//! Regression test for post-purge crash-and-resume through `mdbgp_cli
//! stream`: a churned run killed mid-stream with `--purge-before-save`
//! leaves a snapshot at id epoch ≥ 1 whose engine ids no longer match
//! the input file's original ids — the resume trailer's id map is what
//! makes `--load-snapshot` able to continue the replay anyway, and a file
//! without the trailer is refused.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdbgp_cli"))
        .args(args)
        .output()
        .expect("spawn mdbgp_cli");
    (
        out.status.success(),
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

#[test]
fn kill_and_resume_after_forced_purge() {
    let dir = scratch_dir("purge");
    let graph = dir.join("g.txt");
    let snap = dir.join("snap.bin");
    let parts = dir.join("parts.txt");

    let (ok, _, err) = run(&[
        "generate",
        "--model",
        "community",
        "--n",
        "600",
        "--seed",
        "3",
        "--output",
        graph.to_str().unwrap(),
    ]);
    assert!(ok, "generate failed: {err}");

    // Phase 1: stream with churn, "crash" after 3 batches, force a
    // purging compaction before the save so the snapshot's id space is
    // post-purge (id epoch ≥ 1) with original ids remapped.
    let (ok, stdout, err) = run(&[
        "stream",
        "--input",
        graph.to_str().unwrap(),
        "--k",
        "4",
        "--batches",
        "6",
        "--churn",
        "0.3",
        "--seed",
        "7",
        "--stop-after",
        "3",
        "--purge-before-save",
        "true",
        "--save-snapshot",
        snap.to_str().unwrap(),
    ]);
    assert!(ok, "phase-1 stream failed: {err}\n{stdout}");
    assert!(
        stdout.contains("purged before save"),
        "missing purge line:\n{stdout}"
    );
    let saved_epoch = number_after(&stdout, "purged before save: id epoch");
    assert!(
        saved_epoch >= 1,
        "forced purge left id epoch {saved_epoch}, snapshot is not post-purge:\n{stdout}"
    );

    // Phase 2: resume from the post-purge snapshot and stream to the
    // end. Pre-fix this failed before ingesting anything (StaleEpoch /
    // the removed-vertices rejection).
    let (ok, stdout, err) = run(&[
        "stream",
        "--input",
        graph.to_str().unwrap(),
        "--k",
        "4",
        "--batches",
        "6",
        "--churn",
        "0.3",
        "--seed",
        "7",
        "--load-snapshot",
        snap.to_str().unwrap(),
        "--output",
        parts.to_str().unwrap(),
    ]);
    assert!(ok, "resume failed: {err}\n{stdout}");
    assert!(
        stdout.contains("resumed from"),
        "missing resume line:\n{stdout}"
    );
    assert!(stdout.contains("done:"), "stream did not finish:\n{stdout}");

    // The assignment covers the surviving original ids: `orig part`
    // pairs, parts within k, and a sane surviving count (600 minus the
    // churned-away vertices, which at 30% churn of the streamed suffix
    // is well under 600 but most of it).
    let assignment = std::fs::read_to_string(&parts).expect("read parts");
    let mut survivors = 0usize;
    for line in assignment.lines() {
        let mut it = line.split_whitespace();
        let orig: u32 = it.next().unwrap().parse().expect("orig id");
        let part: u32 = it.next().unwrap().parse().expect("part id");
        assert!(orig < 600, "original id {orig} out of range");
        assert!(part < 4, "part {part} out of range");
        survivors += 1;
    }
    assert!(
        survivors > 400 && survivors <= 600,
        "implausible survivor count {survivors}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot file stripped of its resume trailer is refused by name: no
/// trailer-less file can prove that its engine ids are still the input's
/// original ids.
#[test]
fn trailer_less_snapshots_are_refused_by_name() {
    let dir = scratch_dir("legacy");
    let graph = dir.join("g.txt");
    let snap = dir.join("snap.bin");

    let (ok, _, err) = run(&[
        "generate",
        "--model",
        "community",
        "--n",
        "400",
        "--seed",
        "5",
        "--output",
        graph.to_str().unwrap(),
    ]);
    assert!(ok, "generate failed: {err}");

    // Save a churn-free snapshot, then strip its trailer.
    let (ok, stdout, err) = run(&[
        "stream",
        "--input",
        graph.to_str().unwrap(),
        "--k",
        "4",
        "--batches",
        "5",
        "--seed",
        "9",
        "--stop-after",
        "2",
        "--save-snapshot",
        snap.to_str().unwrap(),
    ]);
    assert!(ok, "save run failed: {err}\n{stdout}");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    let magic = b"MDBGPRPL";
    let trailer_at = (0..bytes.len().saturating_sub(magic.len()))
        .rfind(|&i| &bytes[i..i + magic.len()] == magic)
        .expect("trailer magic in snapshot file");
    std::fs::write(&snap, &bytes[..trailer_at]).expect("strip trailer");

    // Even a churn-free run at id epoch 0 cannot resume without it.
    let out = Command::new(env!("CARGO_BIN_EXE_mdbgp_cli"))
        .args([
            "stream",
            "--input",
            graph.to_str().unwrap(),
            "--k",
            "4",
            "--batches",
            "5",
            "--seed",
            "9",
            "--load-snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn mdbgp_cli");
    let (stdout, err) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{err}\n{stdout}");
    assert!(err.contains("no resume trailer"), "{err}");
    assert!(!stdout.contains("resumed from"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}
