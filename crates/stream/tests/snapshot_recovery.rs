//! Crash-recovery harness for the snapshot subsystem: every corruption
//! and mismatch case must fail `restore` with its specific named
//! [`SnapshotError`] variant (no panics, no partial state), a restored
//! engine's rebuilt state must match a from-scratch oracle, and the
//! free-list contract — a snapshot taken between tombstone and purge
//! carries the free list verbatim — is pinned by regression test.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{
    SnapshotError, SnapshotExpectation, StreamConfig, StreamingPartitioner, UpdateBatch, TOMBSTONE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine(seed: u64, churn: bool) -> StreamingPartitioner {
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(400),
        &mut StdRng::seed_from_u64(seed),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, 0.05);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(0.05)
    };
    cfg.seed = seed;
    if churn {
        // Keep tombstones pending at snapshot time: a slack this loose
        // never triggers the purge. The wide drift headroom keeps the
        // drift trigger off as well.
        cfg.compact_slack = 0.9;
        cfg.drift_headroom = 50.0;
    }
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// An engine mid-churn: tombstoned-but-unpurged vertices, a non-empty
/// free list, arrivals, edge churn and weight drift all in flight.
fn churned_engine(seed: u64) -> StreamingPartitioner {
    let mut sp = engine(seed, true);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut batch = UpdateBatch::new();
    // Victims stay clear of the arrival neighbours (1..=3) and the drift
    // targets (20..30) below.
    for _ in 0..12 {
        let v = rng.gen_range(100..400u32);
        if sp.graph().is_live(v)
            && !batch
                .updates
                .iter()
                .any(|u| matches!(u, mdbgp_stream::StreamUpdate::RemoveVertex { v: x } if *x == v))
        {
            batch.remove_vertex(v);
        }
    }
    for _ in 0..8 {
        batch.add_vertex(vec![1.0, 2.0], vec![1, 2, 3]);
    }
    for v in 0..10u32 {
        batch.set_weight(v + 20, 0, 1.5);
    }
    sp.ingest(&batch).expect("churn batch");
    assert!(
        sp.graph().num_tombstoned() > 0,
        "test needs pending tombstones"
    );
    sp
}

fn snapshot_bytes(sp: &mut StreamingPartitioner) -> Vec<u8> {
    let mut buf = Vec::new();
    sp.save_snapshot(&mut buf).expect("save");
    buf
}

#[test]
fn truncated_snapshots_fail_with_named_errors() {
    let mut sp = churned_engine(1);
    let bytes = snapshot_bytes(&mut sp);
    // Mid-header and mid-payload truncations, including the empty file.
    for cut in [0, 1, 10, 43, 44, 100, bytes.len() - 1] {
        let err = StreamingPartitioner::restore(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn flipped_bytes_fail_the_checksum() {
    let mut sp = churned_engine(2);
    let bytes = snapshot_bytes(&mut sp);
    // Flip one byte at several payload positions (after the 44-byte
    // header) and one in the stored checksum itself.
    let mut positions = vec![36, 44, 60, bytes.len() / 2, bytes.len() - 1];
    positions.dedup();
    for pos in positions {
        let mut broken = bytes.clone();
        broken[pos] ^= 0x20;
        let err = StreamingPartitioner::restore(&broken[..]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "flip at {pos}: {err}"
        );
    }
}

#[test]
fn wrong_version_and_magic_are_rejected() {
    let mut sp = churned_engine(3);
    let bytes = snapshot_bytes(&mut sp);
    let mut wrong_version = bytes.clone();
    wrong_version[8] = 0xEE;
    assert!(matches!(
        StreamingPartitioner::restore(&wrong_version[..]).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: 0xEE, .. }
    ));
    let mut wrong_magic = bytes.clone();
    wrong_magic[3] = b'X';
    assert!(matches!(
        StreamingPartitioner::restore(&wrong_magic[..]).unwrap_err(),
        SnapshotError::BadMagic { .. }
    ));
}

#[test]
fn corrupt_header_length_cannot_force_a_huge_allocation() {
    // The payload-length field lives in the unchecksummed header; a bit
    // flip there must produce a named error, not a multi-exabyte
    // allocation (process abort). An inflated length reads to EOF and
    // reports truncation; a deflated one checksums a short prefix and
    // reports the mismatch.
    let mut sp = churned_engine(6);
    let bytes = snapshot_bytes(&mut sp);
    let mut inflated = bytes.clone();
    inflated[34] = 0xFF; // high byte of the u64 length at offset 28..36
    let err = StreamingPartitioner::restore(&inflated[..]).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Truncated { .. }),
        "inflated length: {err}"
    );
    let mut deflated = bytes.clone();
    deflated[29] = 0; // drop the length well below the real payload
    let err = StreamingPartitioner::restore(&deflated[..]).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. }
        ),
        "deflated length: {err}"
    );
}

#[test]
fn corrupt_header_epoch_is_caught_by_the_payload_echo() {
    // The header epoch is outside the checksum; the payload opens with a
    // checksummed echo that restore cross-validates, so a rotted header
    // epoch cannot pass an expectation check it shouldn't — or smuggle an
    // engine into the wrong id space.
    let mut sp = churned_engine(9);
    let bytes = snapshot_bytes(&mut sp);
    let mut rotted = bytes.clone();
    rotted[12] ^= 0x02; // low byte of the header epoch at offset 12..20
    let err = StreamingPartitioner::restore(&rotted[..]).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("id epoch"), "{err}");
    // Even when the corrupted value matches the caller's expectation.
    let err = StreamingPartitioner::restore_expecting(
        &rotted[..],
        &SnapshotExpectation::default().with_id_epoch(2),
    )
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
}

#[test]
fn shape_and_epoch_expectations_are_enforced() {
    let mut sp = churned_engine(4);
    let bytes = snapshot_bytes(&mut sp);
    let err = StreamingPartitioner::restore_expecting(
        &bytes[..],
        &SnapshotExpectation::default().with_k(8),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::KMismatch {
                snapshot: 4,
                expected: 8
            }
        ),
        "{err}"
    );
    let err = StreamingPartitioner::restore_expecting(
        &bytes[..],
        &SnapshotExpectation::default().with_dims(3),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::DimensionMismatch {
                snapshot: 2,
                expected: 3
            }
        ),
        "{err}"
    );
    // The churned engine never purged: its snapshot is at epoch 0 and a
    // caller at epoch 0 accepts it...
    assert_eq!(sp.id_epoch(), 0);
    let ok = StreamingPartitioner::restore_expecting(
        &bytes[..],
        &SnapshotExpectation::default()
            .with_k(4)
            .with_dims(2)
            .with_id_epoch(0),
    );
    assert!(ok.is_ok());
    // ...while a snapshot taken after a purge is stale for that caller.
    sp.purge().expect("pending tombstones must purge");
    assert_eq!(sp.id_epoch(), 1);
    let purged = snapshot_bytes(&mut sp);
    let err = StreamingPartitioner::restore_expecting(
        &purged[..],
        &SnapshotExpectation::default().with_id_epoch(0),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::StaleEpoch {
                snapshot: 1,
                expected: 0
            }
        ),
        "{err}"
    );
}

#[test]
fn restored_state_matches_the_saver_and_a_rebuild_oracle() {
    let mut sp = churned_engine(5);
    let bytes = snapshot_bytes(&mut sp);
    let restored = StreamingPartitioner::restore(&bytes[..]).expect("restore");

    // Serialized accounting is bitwise identical to the saver's.
    assert_eq!(restored.store().as_slice(), sp.store().as_slice());
    let (s, r) = (sp.store(), restored.store());
    let dims = sp.graph().weights().dims();
    for j in 0..dims {
        assert_eq!(s.total(j).to_bits(), r.total(j).to_bits(), "total {j}");
        for p in 0..s.num_parts() as u32 {
            assert_eq!(
                s.load(p, j).to_bits(),
                r.load(p, j).to_bits(),
                "load ({p}, {j})"
            );
        }
    }
    assert_eq!(s.cut_edges(), r.cut_edges());
    assert_eq!(s.edge_locality(), r.edge_locality());
    assert_eq!(sp.max_imbalance(), restored.max_imbalance());
    assert_eq!(sp.read_view().epoch(), restored.read_view().epoch());
    assert_eq!(sp.id_epoch(), restored.id_epoch());
    assert_eq!(sp.graph().num_vertices(), restored.graph().num_vertices());
    assert_eq!(sp.graph().num_edges(), restored.graph().num_edges());
    assert_eq!(sp.graph().free_ids(), restored.graph().free_ids());

    // Rebuild oracle (the PR 3 edge-stats oracle pattern, extended):
    // recomputing loads, totals and edge counters from scratch must agree
    // with the restored state — exactly on the counters, within float
    // tolerance on the re-summed totals.
    let weights = restored.graph().weights();
    let mut rebuilt = restored.store().clone();
    rebuilt.rebuild_loads(weights);
    let live = restored.store();
    for j in 0..dims {
        assert!(
            (live.total(j) - rebuilt.total(j)).abs() < 1e-9,
            "live total {j} drifted from the rebuild oracle"
        );
        for p in 0..live.num_parts() as u32 {
            assert!((live.load(p, j) - rebuilt.load(p, j)).abs() < 1e-9);
        }
    }
    assert_eq!(live.num_assigned(), rebuilt.num_assigned());
    for p in 0..live.num_parts() as u32 {
        assert_eq!(live.part_size(p), rebuilt.part_size(p), "part {p} size");
    }
    // Edge counters vs. a recount of the live edge set.
    let mut edge_oracle = restored.store().clone();
    edge_oracle.rebuild_edge_stats(restored.graph().snapshot().edges());
    assert_eq!(restored.store().cut_edges(), edge_oracle.cut_edges());
    assert!((restored.store().edge_locality() - edge_oracle.edge_locality()).abs() < 1e-12);
    // Telemetry the serving layer alarms on, against the oracle.
    assert!((restored.max_imbalance() - rebuilt.max_imbalance()).abs() < 1e-12);
    assert!((restored.store().min_headroom(0.05) - rebuilt.min_headroom(0.05)).abs() < 1e-12);
}

#[test]
fn free_list_is_carried_verbatim_between_tombstone_and_purge() {
    // The contract: a snapshot taken *between* tombstone and purge carries
    // the free list verbatim, so the restored engine recycles the same
    // ids in the same LIFO order as the saver would have. (Before this
    // was pinned, the interaction was untested/undefined.)
    let mut sp = engine(7, true);
    let mut batch = UpdateBatch::new();
    batch.remove_vertex(11).remove_vertex(23).remove_vertex(5);
    sp.ingest(&batch).expect("removals");
    assert_eq!(sp.graph().free_ids(), &[11, 23, 5]);

    let bytes = snapshot_bytes(&mut sp);
    let mut restored = StreamingPartitioner::restore(&bytes[..]).expect("restore");
    assert_eq!(
        restored.graph().free_ids(),
        &[11, 23, 5],
        "snapshot must carry the free list verbatim"
    );

    // Both engines recycle identically: 5 first (LIFO), then 23, then 11,
    // then a fresh id — reported identically in arrival_ids.
    let mut arrivals = UpdateBatch::new();
    for _ in 0..4 {
        arrivals.add_vertex(vec![1.0, 1.0], vec![0, 1]);
    }
    let ra = sp.ingest(&arrivals).expect("saver ingest");
    let rb = restored.ingest(&arrivals).expect("restored ingest");
    assert_eq!(ra.arrival_ids, vec![5, 23, 11, 400]);
    assert_eq!(ra, rb, "restored engine diverged from the saver");
    assert_eq!(sp.store().as_slice(), restored.store().as_slice());

    // After a purge the free list is gone — and the snapshot says so.
    let mut more = UpdateBatch::new();
    more.remove_vertex(11); // the recycled id, now naming the new vertex
    restored.ingest(&more).expect("remove again");
    assert_eq!(restored.graph().free_ids(), &[11]);
    let remap = restored.purge().expect("pending tombstone must purge");
    assert_eq!(remap[11], TOMBSTONE);
    assert!(restored.graph().free_ids().is_empty());
    let bytes = snapshot_bytes(&mut restored);
    let post_purge = StreamingPartitioner::restore(&bytes[..]).expect("restore post-purge");
    assert!(post_purge.graph().free_ids().is_empty());
    assert_eq!(post_purge.id_epoch(), restored.id_epoch());
}

#[test]
fn snapshot_info_is_peekable_without_the_payload() {
    let mut sp = churned_engine(8);
    let bytes = snapshot_bytes(&mut sp);
    let info = mdbgp_stream::snapshot::read_info(&bytes[..]).expect("info");
    assert_eq!(info.k, 4);
    assert_eq!(info.dims, 2);
    assert_eq!(info.id_epoch, 0);
    assert_eq!(
        info.payload_bytes + mdbgp_stream::snapshot::SNAPSHOT_HEADER_BYTES,
        bytes.len()
    );
}

/// The engine's batch count is state: it stamps every published view,
/// so it survives a save/restore cycle and the restored engine's next
/// batch carries the stamp the saver's would have. The metrics registry,
/// the engine's one counter store, is intentionally NOT serialized: a
/// restored engine starts a fresh registry whose journal opens with a
/// `snapshot.restore` event.
#[test]
fn batch_seq_round_trips_and_counters_restart_at_restore() {
    let mut sp = churned_engine(9);
    sp.refine_now().expect("refine");
    let saved = sp.read_view().epoch();
    assert!(saved.batch_seq >= 1, "test needs batches on record");
    assert!(sp.metrics().counter("stream.ingest.batches") >= 1);

    let bytes = snapshot_bytes(&mut sp);
    let mut restored = StreamingPartitioner::restore(&bytes[..]).expect("restore");
    assert_eq!(restored.read_view().epoch(), saved);
    let n = sp.graph().num_vertices() as u32;
    let live: Vec<u32> = (0..n).filter(|&v| sp.graph().is_live(v)).take(2).collect();
    let mut batch = UpdateBatch::new();
    batch.add_edge(live[0], live[1]);
    sp.ingest(&batch).expect("saver ingest");
    restored.ingest(&batch).expect("restored ingest");
    assert_eq!(restored.read_view().epoch(), sp.read_view().epoch());
    assert_eq!(restored.read_view().epoch().batch_seq, saved.batch_seq + 1);

    // The registry starts fresh on the restored side and announces the
    // restore in its journal.
    let m = restored.metrics();
    assert_eq!(m.counter("stream.snapshot.restores"), 1);
    let events: Vec<&str> = m.events().map(|e| e.event).collect();
    assert!(events.contains(&"snapshot.restore"), "{events:?}");
    assert_eq!(
        m.counter("stream.ingest.batches"),
        1,
        "counters restart at the restore: only the batch since it counts"
    );
}
