//! Decoder fuzzing: a few thousand seeded byte mutations of a real
//! snapshot and a real batch log. Every mutant is re-framed with a valid
//! checksum, so the payload decoders see the mutated bytes instead of
//! stopping at the checksum. The property: nothing panics, and every
//! failure is a named [`SnapshotError`] or [`WireError`] of the kind a
//! payload can produce. An `Ok` is allowed, because some mutations leave
//! a valid state — but a snapshot that restores must be one the engine
//! can run from, so every restored mutant then ingests, refines, purges
//! and saves.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexId, VertexWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delta::UpdateBatch;
use crate::engine::{StreamConfig, StreamingPartitioner};
use crate::replica::{Follower, Leader};
use crate::snapshot::{checksum, read_info, seal_snapshot, SnapshotError, SNAPSHOT_HEADER_BYTES};
use crate::wire::{read_log_header, read_record, WireError, LOG_HEADER_BYTES, RECORD_FRAME_BYTES};

const MUTANTS: u64 = 2000;

/// A small engine; `refine_every = 1` refines after every batch, and a
/// loose compaction slack keeps tombstones pending.
fn engine(refine_every: usize) -> StreamingPartitioner {
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(300),
        &mut StdRng::seed_from_u64(3),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, 0.05);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(0.05)
    };
    cfg.compact_slack = 0.9;
    cfg.refine_every = refine_every;
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// Arrivals wired into the base graph, new edges, and a weight spike on
/// part 0, so a refinement pass has balance to restore.
fn growing_batch(sp: &StreamingPartitioner, rng: &mut StdRng) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..10 {
        let nbrs = (0..3).map(|_| rng.gen_range(0..300)).collect();
        batch.add_vertex(vec![1.0, 2.0], nbrs);
    }
    for _ in 0..6 {
        batch.add_edge(rng.gen_range(0..300), rng.gen_range(0..300));
    }
    for v in 0..300 {
        if sp.shard_of(v) == 0 && rng.gen_bool(0.1) {
            batch.set_weight(v, 0, rng.gen_range(1.5..3.0));
        }
    }
    batch
}

/// The snapshot of a churned engine: delta edges, tombstoned vertices and
/// the free list that holds them.
fn churned_snapshot() -> Vec<u8> {
    let mut sp = engine(0);
    let mut rng = StdRng::seed_from_u64(4);
    let batch = growing_batch(&sp, &mut rng);
    sp.ingest(&batch).expect("arrivals");
    let mut removals = UpdateBatch::new();
    for v in (20..300).step_by(23) {
        removals.remove_vertex(v);
    }
    sp.ingest(&removals).expect("removals");
    let g = sp.graph();
    assert!(g.delta_edge_count() > 0 && !g.free_ids().is_empty());
    let mut bytes = Vec::new();
    sp.save_snapshot(&mut bytes).expect("save");
    bytes
}

/// What an engine does after a restore: one batch of arrivals, edge
/// inserts and removals and a vertex removal among its live vertices,
/// then a refinement pass, a purge and a save. Errors are allowed; only a
/// panic fails the caller.
fn run_restored(sp: &mut StreamingPartitioner, rng: &mut StdRng) {
    // The thread count only sizes scoped-thread fan-out (results do not
    // depend on it); a forged count must not make the test spawn
    // thousands of threads.
    sp.set_threads(sp.config().threads.min(2));
    let graph = sp.graph();
    let live: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
        .filter(|&v| graph.is_live(v))
        .collect();
    let mut batch = UpdateBatch::new();
    if live.len() >= 4 {
        let mut pick = || live[rng.gen_range(0..live.len())];
        let dims = graph.weights().dims();
        for _ in 0..3 {
            batch.add_vertex(vec![1.0; dims], vec![pick(), pick()]);
        }
        for _ in 0..3 {
            batch.add_edge(pick(), pick());
        }
        for _ in 0..3 {
            let u = pick();
            if let Some(v) = graph.neighbors(u).next() {
                batch.remove_edge(u, v);
            }
        }
        batch.remove_vertex(pick());
    }
    let _ = sp.ingest(&batch);
    let _ = sp.refine_now();
    sp.purge();
    let _ = sp.save_snapshot(&mut Vec::new());
}

/// A leader's log segment whose records hold a refinement pass, and the
/// snapshot it continues from.
fn refined_log() -> (Vec<u8>, Vec<u8>) {
    let mut leader = Leader::new(engine(1)).expect("leader");
    let mut rng = StdRng::seed_from_u64(5);
    let mut moves = 0;
    for _ in 0..2 {
        let batch = growing_batch(leader.engine(), &mut rng);
        let report = leader.ingest(&batch).expect("ingest");
        moves += report.refine_pass.map_or(0, |pass| pass.vertices.len());
    }
    assert!(moves > 0, "the log must hold refinement moves");
    (
        leader.snapshot_bytes().to_vec(),
        leader.log_bytes().to_vec(),
    )
}

/// One seeded mutation of `bytes`, described for the failure message.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) -> String {
    let len = bytes.len();
    match rng.gen_range(0..5) {
        0 => {
            let bit = rng.gen_range(0..8 * len);
            bytes[bit / 8] ^= 1 << (bit % 8);
            format!("flip bit {bit}")
        }
        1 => {
            let at = rng.gen_range(0..len);
            let run = rng.gen_range(1..=8).min(len - at);
            let value = if rng.gen_bool(0.5) { 0x00 } else { 0xFF };
            bytes[at..at + run].fill(value);
            format!("set {run} bytes at {at} to {value:#04x}")
        }
        2 => {
            // A length prefix: any 8 bytes that read as a count the
            // payload could hold. Some are other fields; all real
            // prefixes are among them.
            let prefixes: Vec<usize> = (0..len.saturating_sub(7))
                .filter(|&at| {
                    let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                    word <= len as u64
                })
                .collect();
            let at = prefixes[rng.gen_range(0..prefixes.len())];
            let huge = [1u64 << 62, 1 << 63, u64::MAX, 1 << 40, len as u64 + 1];
            let value = huge[rng.gen_range(0..huge.len())];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            format!("length prefix at {at} set to {value}")
        }
        3 => {
            let keep = rng.gen_range(0..len);
            bytes.truncate(keep);
            format!("truncate to {keep} bytes")
        }
        _ => {
            let from = rng.gen_range(0..len);
            let run = rng.gen_range(1..=64).min(len - from);
            let piece = bytes[from..from + run].to_vec();
            let at = rng.gen_range(0..len);
            let cut = rng.gen_range(0..=64).min(len - at);
            bytes.splice(at..at + cut, piece);
            format!("splice {run} bytes from {from} over {cut} at {at}")
        }
    }
}

/// Runs `decode` on one mutant and fails the test, naming the mutation,
/// if it panics.
fn no_panic<T>(what: &str, decode: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(decode))
        .unwrap_or_else(|_| panic!("decoding panicked on mutant: {what}"))
}

#[test]
fn mutated_snapshots_restore_or_fail_by_name() {
    let snapshot = churned_snapshot();
    let info = read_info(&snapshot[..]).expect("header");
    let payload = &snapshot[SNAPSHOT_HEADER_BYTES..];
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    let (mut restored, mut failed) = (0, 0);
    for _ in 0..MUTANTS {
        let mut mutant = payload.to_vec();
        let what = mutate(&mut rng, &mut mutant);
        let mut framed = vec![0; SNAPSHOT_HEADER_BYTES];
        framed.extend_from_slice(&mutant);
        seal_snapshot(
            &mut framed,
            info.id_epoch,
            info.k,
            info.dims,
            checksum(&mutant),
        );
        match no_panic(&what, || StreamingPartitioner::restore(&framed[..])) {
            Ok(mut sp) => {
                restored += 1;
                let mut rng = StdRng::seed_from_u64(restored);
                no_panic(&format!("{what}, then running"), || {
                    run_restored(&mut sp, &mut rng)
                });
            }
            Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)) => failed += 1,
            Err(other) => panic!("mutant {what}: unexpected error {other}"),
        }
    }
    assert!(
        failed > restored && restored > 0,
        "{failed} failed, {restored} restored"
    );
}

#[test]
fn mutated_log_records_decode_or_fail_by_name() {
    let (snapshot, log) = refined_log();
    let mut records = Vec::new();
    let mut at = LOG_HEADER_BYTES;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        at += RECORD_FRAME_BYTES;
        records.push(log[at..at + len].to_vec());
        at += len;
    }
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    let (mut decoded, mut failed) = (0, 0);
    for _ in 0..MUTANTS {
        let mut mutant = records.clone();
        let which = rng.gen_range(0..mutant.len());
        let what = format!("record {which}: {}", mutate(&mut rng, &mut mutant[which]));
        let mut framed = log[..LOG_HEADER_BYTES].to_vec();
        for payload in &mutant {
            framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            framed.extend_from_slice(&checksum(payload).to_le_bytes());
            framed.extend_from_slice(payload);
        }
        let read = no_panic(&what, || {
            let mut r = &framed[..];
            read_log_header(&mut r)?;
            while read_record(&mut r)?.is_some() {}
            Ok::<_, WireError>(())
        });
        match read {
            Ok(()) => decoded += 1,
            Err(WireError::Truncated { .. } | WireError::Corrupt(_)) => failed += 1,
            Err(other) => panic!("mutant {what}: unexpected error {other}"),
        }
        // A follower applies what decodes; its checks, not a panic, must
        // stop a batch that no longer fits its state.
        no_panic(&what, || {
            let mut follower = Follower::bootstrap(&snapshot).expect("bootstrap");
            let _ = follower.replay(&framed[..]);
        });
    }
    assert!(
        failed > 0 && decoded > 0,
        "{failed} failed, {decoded} decoded"
    );
}
