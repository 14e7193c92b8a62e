//! Leader/follower replication: one writer feeds a fleet of read
//! replicas by shipping a snapshot plus the batch log defined in
//! [`crate::wire`].
//!
//! ## Why replay, not state shipping
//!
//! The engine's two standing guarantees make replication almost free:
//! restore is **byte-identical** (the restored engine continues ingesting
//! with the same [`BatchReport`]s as the saver — [`crate::snapshot`]),
//! and ingestion is **deterministic across thread counts** (threads 1 ≡
//! threads N by construction — [`crate::pipeline`]). So a follower that
//! bootstraps from the leader's snapshot and pushes the same
//! [`UpdateBatch`] sequence through its *own* ingest pipeline arrives at
//! bitwise the same state — same assignments, same purges at the same
//! batches, same published [`crate::ReadView`] sequence. The log carries
//! updates (tens of bytes per vertex), not assignment vectors, and every
//! follower serves lookups from views it computed itself.
//!
//! Determinism is the mechanism; the wire format's stamps are the
//! **detector**. Each log record carries the leader's post-batch
//! `(id_epoch, batch_seq)` stamp and published-view checksum; after
//! applying a record the follower compares its own published view against
//! both ([`Follower::replay`]) and fails with [`ReplicaError::Divergence`]
//! on the first mismatch — a replica can drift silently for exactly zero
//! batches.
//!
//! ## Decisions, not computation
//!
//! One stage is replayed from the leader's decision instead: refinement.
//! Its projected-gradient pass is the costly step of ingest, so every
//! record also carries the batch's refinement decision — whether a pass
//! ran, and if so its moves in application order and the post-pass seed
//! ([`crate::delta::RefinePass`], taken from the leader's
//! [`BatchReport::refine_pass`]). A follower recomputes validation,
//! split, placement, repair, commit and compaction, and *applies* the
//! logged moves through the same accounting ([`StreamingPartitioner::ingest`]).
//! It never pops a rebalance heap, never runs GD and holds no GD
//! workspace, so replay costs the batch's cheap stages plus O(moves).
//! Refinement stays deterministic on the leader, where threads 1 ≡
//! threads N and save → restore byte-identity remain contracts. The
//! decision rides *inside* the logged batch rather than beside the
//! record, so a record re-framed through [`read_record`] and
//! [`write_record`] keeps it; only the crate sets it.
//!
//! ## Leader protocol
//!
//! A [`Leader`] owns the engine. Creating it (or calling
//! [`Leader::rotate`]) takes a full snapshot and starts a fresh log
//! segment whose header base is the snapshot's stamp; every
//! [`Leader::ingest`] appends one record. The pair
//! ([`Leader::snapshot_bytes`], [`Leader::log_bytes`]) is therefore
//! always a complete bootstrap kit: restore the snapshot, replay the
//! log, and you are the leader as of its last batch. Rotation bounds
//! replay time for fresh followers and retires old segments.
//!
//! **All mutation must flow through the leader.** An out-of-band
//! [`StreamingPartitioner::purge`] or
//! [`StreamingPartitioner::refine_now`] on the wrapped engine publishes a
//! view no log record describes, and followers diverge at the next
//! batch. Purges that happen *inside* ingest (churn outgrowing the
//! compaction slack) are fine — they are deterministic consequences of
//! the batch and replay identically on followers. For an explicit purge
//! use [`Leader::purge_and_rotate`], which folds the unreplayable epoch
//! bump into a fresh segment base.
//!
//! ## Follower protocol
//!
//! [`Follower::bootstrap`] restores an engine from snapshot bytes (the
//! restore itself publishes view #0 at the snapshot's stamp);
//! [`Follower::replay`] then applies a log. Adoption is checked before a
//! single record applies — shape (`k`, dims) and base stamp, each
//! failing with its named [`WireError`] ([`crate::wire::LogHeader`]) —
//! and replay is resumable: re-reading a longer copy of the same segment
//! skips records at or below the follower's current stamp (verifying the
//! checksum of the one that matches it exactly), so tailing a growing
//! log is just calling `replay` again on the new bytes. A follower that
//! returns an error from `replay` (a divergence, or a record its engine
//! rejects) has left the leader's lineage: discard it and bootstrap a new
//! one from the leader's current snapshot.

use std::io::Read;

use mdbgp_graph::PartitionError;

use crate::delta::UpdateBatch;
use crate::engine::{BatchReport, StreamingPartitioner};
use crate::snapshot::SnapshotError;
use crate::store::{ReadHandle, ReadView, ViewEpoch};
use crate::wire::{
    read_log_header, read_record, write_log_header, write_record, LogRecord, WireError,
};
use crate::SnapshotExpectation;

/// Everything that can go wrong shipping state between a leader and a
/// follower.
#[derive(Debug)]
pub enum ReplicaError {
    /// Snapshot serialization or restore failed (bootstrap path).
    Snapshot(SnapshotError),
    /// The batch log could not be written or read.
    Wire(WireError),
    /// A replayed batch, or its logged refinement decision, was rejected
    /// by the follower's own ingest checks — on a healthy pair this
    /// cannot happen (the leader ingested the same batch and made those
    /// moves from the same state), so it indicates the log and snapshot
    /// are from different lineages.
    Ingest(PartitionError),
    /// The follower applied a record and arrived at a different state
    /// than the leader stamped: the replica is divergent and must
    /// re-bootstrap. `at` is the leader's stamp for the record.
    Divergence {
        /// The leader's post-batch stamp from the log record.
        at: ViewEpoch,
        /// The leader's published-view checksum from the log record.
        expected_checksum: u64,
        /// The follower's post-batch stamp.
        found: ViewEpoch,
        /// The follower's published-view checksum.
        found_checksum: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Snapshot(e) => write!(f, "replica snapshot exchange failed: {e}"),
            ReplicaError::Wire(e) => write!(f, "replica log exchange failed: {e}"),
            ReplicaError::Ingest(e) => write!(
                f,
                "follower rejected a replayed batch (log and snapshot are from different \
                 lineages?): {e}"
            ),
            ReplicaError::Divergence {
                at,
                expected_checksum,
                found,
                found_checksum,
            } => write!(
                f,
                "follower diverged from the leader at (id_epoch {}, batch_seq {}): leader \
                 published checksum {expected_checksum:#018x}, follower is at (id_epoch {}, \
                 batch_seq {}) with checksum {found_checksum:#018x}; re-bootstrap from a fresh \
                 snapshot",
                at.id_epoch, at.batch_seq, found.id_epoch, found.batch_seq
            ),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Snapshot(e) => Some(e),
            ReplicaError::Wire(e) => Some(e),
            ReplicaError::Ingest(e) => Some(e),
            ReplicaError::Divergence { .. } => None,
        }
    }
}

impl From<SnapshotError> for ReplicaError {
    fn from(e: SnapshotError) -> Self {
        ReplicaError::Snapshot(e)
    }
}

impl From<WireError> for ReplicaError {
    fn from(e: WireError) -> Self {
        ReplicaError::Wire(e)
    }
}

impl From<PartitionError> for ReplicaError {
    fn from(e: PartitionError) -> Self {
        ReplicaError::Ingest(e)
    }
}

/// The write side of replication: wraps a [`StreamingPartitioner`] and
/// keeps a (snapshot, batch log) pair from which any number of
/// [`Follower`]s can bootstrap and tail. See the module docs for the
/// protocol and the one rule: all mutation flows through the leader.
pub struct Leader {
    engine: StreamingPartitioner,
    snapshot: Vec<u8>,
    log: Vec<u8>,
    segment_records: u64,
    rotations: u64,
}

impl Leader {
    /// Wraps an engine, takes its bootstrap snapshot, and opens the
    /// first log segment based at the engine's current published stamp.
    pub fn new(mut engine: StreamingPartitioner) -> Result<Self, ReplicaError> {
        let (snapshot, log) = Self::fresh_segment(&mut engine, 0)?;
        Ok(Leader {
            engine,
            snapshot,
            log,
            segment_records: 0,
            rotations: 0,
        })
    }

    fn fresh_segment(
        engine: &mut StreamingPartitioner,
        segment: u64,
    ) -> Result<(Vec<u8>, Vec<u8>), ReplicaError> {
        let mut snapshot = Vec::new();
        engine.save_snapshot(&mut snapshot)?;
        let base = engine.read_view().epoch();
        let k = engine.config().k;
        let dims = engine.graph().weights().dims();
        let mut log = Vec::new();
        write_log_header(&mut log, k, dims, segment, base)?;
        Ok((snapshot, log))
    }

    /// Ingests a batch through the wrapped engine and appends one log
    /// record stamped with the post-batch published view and carrying the
    /// batch's refinement decision (from [`BatchReport::refine_pass`]).
    /// The [`BatchReport`] is the engine's, verbatim.
    pub fn ingest(&mut self, batch: &UpdateBatch) -> Result<BatchReport, ReplicaError> {
        let report = self.engine.ingest(batch)?;
        let view = self.engine.read_view();
        let record = LogRecord {
            stamp: view.epoch(),
            view_checksum: view.checksum(),
            batch: UpdateBatch {
                updates: batch.updates.clone(),
                decision: Some(report.refine_pass.clone()),
            },
        };
        let written = write_record(&mut self.log, &record)?;
        self.segment_records += 1;
        let obs = self.engine.metrics_mut();
        obs.counter_add("stream.log.records", 1);
        obs.counter_add("stream.log.bytes", written as u64);
        Ok(report)
    }

    /// Retires the current segment: takes a fresh full snapshot and
    /// starts an empty log based at the current stamp. New followers
    /// bootstrap from the new pair; followers already tailing the old
    /// segment are complete as of the rotation point and can re-adopt
    /// the new segment seamlessly (its base is exactly their stamp).
    pub fn rotate(&mut self) -> Result<(), ReplicaError> {
        self.rotations += 1;
        let (snapshot, log) = Self::fresh_segment(&mut self.engine, self.rotations)?;
        self.snapshot = snapshot;
        self.log = log;
        self.segment_records = 0;
        self.engine
            .metrics_mut()
            .counter_add("stream.log.rotations", 1);
        Ok(())
    }

    /// Forces a purging compaction and immediately rotates. The explicit
    /// purge publishes a view no log record can describe (it bumps the
    /// id epoch outside any batch), so the only replayable continuation
    /// is a fresh segment based on the post-purge state — this method is
    /// the safe form of [`StreamingPartitioner::purge`] under
    /// replication. Returns the old→new id remap when anything was
    /// purged, exactly like the engine call.
    pub fn purge_and_rotate(&mut self) -> Result<Option<Vec<u32>>, ReplicaError> {
        let remap = self.engine.purge();
        self.rotate()?;
        Ok(remap)
    }

    /// The wrapped engine, read-only. Use [`Self::ingest`] /
    /// [`Self::purge_and_rotate`] to mutate — see the module docs for
    /// why out-of-band mutation breaks followers.
    pub fn engine(&self) -> &StreamingPartitioner {
        &self.engine
    }

    /// Mutable access to the engine's metrics registry (the leader's own
    /// log counters live there too: `stream.log.records`,
    /// `stream.log.bytes`, `stream.log.rotations`).
    pub fn metrics_mut(&mut self) -> &mut mdbgp_obs::MetricsRegistry {
        self.engine.metrics_mut()
    }

    /// A detached serving handle onto the leader's own published views.
    pub fn reader(&self) -> ReadHandle {
        self.engine.reader()
    }

    /// The current segment's base snapshot — a follower's bootstrap
    /// input.
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// The current segment's log bytes (header + every record since the
    /// snapshot) — a follower replays these on top of the snapshot.
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Records appended to the current segment since the last rotation.
    pub fn segment_records(&self) -> u64 {
        self.segment_records
    }

    /// Segments retired so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Unwraps the engine (ends replication; the final segment is
    /// dropped).
    pub fn into_engine(self) -> StreamingPartitioner {
        self.engine
    }
}

/// The read side of replication: an engine bootstrapped from a leader
/// snapshot that replays log records through its own ingest pipeline,
/// applying each record's refinement decision, publishing one
/// [`ReadView`] per applied batch and checking each against the leader's
/// stamp. See the module docs.
pub struct Follower {
    engine: StreamingPartitioner,
}

impl Follower {
    /// Restores an engine from leader snapshot bytes. The restore
    /// publishes view #0 at the snapshot's stamp, so [`Self::view`] serves
    /// immediately — a follower is useful before its first replay.
    pub fn bootstrap(snapshot: &[u8]) -> Result<Self, ReplicaError> {
        Self::bootstrap_expecting(snapshot, &SnapshotExpectation::default())
    }

    /// [`Self::bootstrap`] with a caller expectation on the snapshot
    /// header (shape, id epoch) checked before anything is built.
    pub fn bootstrap_expecting(
        snapshot: &[u8],
        expect: &SnapshotExpectation,
    ) -> Result<Self, ReplicaError> {
        let engine = StreamingPartitioner::restore_expecting(snapshot, expect)?;
        Ok(Follower { engine })
    }

    /// Replays a log on top of the current state; returns the number of
    /// records applied by this call.
    ///
    /// Adoption is all-or-nothing and checked first: the log's shape
    /// must match the engine's and its base stamp must not be ahead of
    /// the follower's current stamp (each mismatch fails with its named
    /// [`WireError`] before any record applies). Records at or below the
    /// current stamp are skipped — that is what makes tailing work: feed
    /// a longer copy of the same segment and only the new tail applies —
    /// except that a skipped record stamped *exactly* at the current
    /// stamp must carry the current view's checksum (a cheap lineage
    /// check). Every applied record is divergence-checked: the
    /// follower's post-batch published view must match the leader's
    /// stamp and checksum, else [`ReplicaError::Divergence`].
    pub fn replay<R: Read>(&mut self, mut log: R) -> Result<u64, ReplicaError> {
        let header = read_log_header(&mut log)?;
        let view = self.engine.read_view();
        let mine = view.epoch();
        header.check_adoption(
            self.engine.config().k,
            self.engine.graph().weights().dims(),
            // `check_adoption` wants the base to *equal* the adopting
            // state. A log whose base is *behind* us is still adoptable
            // (the skip loop below consumes the already-applied prefix),
            // so echo the base back for that comparison; a base *ahead*
            // of us is a gap we cannot bridge — present our real stamp
            // and let the named `BaseMismatch` fire.
            if header.base <= mine {
                header.base
            } else {
                mine
            },
        )?;
        let mut current = mine;
        let mut current_checksum = view.checksum();
        let mut applied = 0u64;
        let mut last_seen: Option<ViewEpoch> = None;
        while let Some(record) = read_record(&mut log)? {
            if let Some(prev) = last_seen {
                if record.stamp <= prev {
                    return Err(ReplicaError::Wire(WireError::Corrupt(format!(
                        "record stamps run backwards: (id_epoch {}, batch_seq {}) after \
                         (id_epoch {}, batch_seq {})",
                        record.stamp.id_epoch,
                        record.stamp.batch_seq,
                        prev.id_epoch,
                        prev.batch_seq
                    ))));
                }
            }
            last_seen = Some(record.stamp);
            if record.stamp <= current {
                // Already-applied prefix (a re-read of a growing
                // segment). The record that lands exactly on our stamp
                // doubles as a lineage check.
                if record.stamp == current && record.view_checksum != current_checksum {
                    return Err(ReplicaError::Divergence {
                        at: record.stamp,
                        expected_checksum: record.view_checksum,
                        found: current,
                        found_checksum: current_checksum,
                    });
                }
                continue;
            }
            self.apply(&record)?;
            let view = self.engine.read_view();
            current = view.epoch();
            current_checksum = view.checksum();
            applied += 1;
        }
        Ok(applied)
    }

    /// Applies one record and divergence-checks the resulting view.
    fn apply(&mut self, record: &LogRecord) -> Result<(), ReplicaError> {
        self.engine.ingest(&record.batch)?;
        let view = self.engine.read_view();
        let (found, found_checksum) = (view.epoch(), view.checksum());
        self.engine
            .metrics_mut()
            .counter_add("stream.replica.batches_replayed", 1);
        if found != record.stamp || found_checksum != record.view_checksum {
            return Err(ReplicaError::Divergence {
                at: record.stamp,
                expected_checksum: record.view_checksum,
                found,
                found_checksum,
            });
        }
        Ok(())
    }

    /// The follower's current published view (stamped and checksummed —
    /// compare [`ReadView::epoch`] / [`ReadView::checksum`] against the
    /// leader's to audit freshness).
    pub fn view(&self) -> std::sync::Arc<ReadView> {
        self.engine.read_view()
    }

    /// A detached serving handle onto the follower's own views — this is
    /// how replica serving threads answer lookups.
    pub fn reader(&self) -> ReadHandle {
        self.engine.reader()
    }

    /// The wrapped engine, read-only.
    pub fn engine(&self) -> &StreamingPartitioner {
        &self.engine
    }

    /// Mutable access to the engine's metrics registry. Its
    /// `stream.replica.batches_replayed` counter holds the records this
    /// follower applied since its bootstrap, each checked against the
    /// leader's stamp and view checksum.
    pub fn metrics_mut(&mut self) -> &mut mdbgp_obs::MetricsRegistry {
        self.engine.metrics_mut()
    }

    /// Unwraps the engine, e.g. to promote the follower:
    /// `Leader::new(follower.into_engine())` (whose bootstrap snapshot
    /// rebuilds the rebalance heaps the follower never popped).
    pub fn into_engine(self) -> StreamingPartitioner {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::RefinePass;
    use crate::engine::StreamConfig;
    use mdbgp_core::GdConfig;
    use mdbgp_graph::{gen, VertexWeights};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn leader_engine(n: usize, seed: u64) -> StreamingPartitioner {
        let cg = gen::community_graph(
            &gen::CommunityGraphConfig::social(n),
            &mut StdRng::seed_from_u64(seed),
        );
        let w = VertexWeights::vertex_edge(&cg.graph);
        let mut cfg = StreamConfig::new(4, 0.05);
        cfg.gd = GdConfig {
            iterations: 40,
            ..GdConfig::with_epsilon(0.05)
        };
        StreamingPartitioner::bootstrap(cg.graph, w, cfg).unwrap()
    }

    fn replayed(follower: &mut Follower) -> u64 {
        follower
            .metrics_mut()
            .counter("stream.replica.batches_replayed")
    }

    fn churny_batch(rng: &mut StdRng, live_hint: u32) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for _ in 0..12 {
            let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..live_hint)).collect();
            batch.add_vertex(vec![1.0, 3.0], nbrs);
        }
        for _ in 0..4 {
            batch.add_edge(rng.gen_range(0..live_hint), rng.gen_range(0..live_hint));
        }
        batch.set_weight(
            rng.gen_range(0..live_hint),
            0,
            1.0 + rng.gen_range(0.0..1.0),
        );
        batch
    }

    #[test]
    fn follower_tracks_leader_bitwise() {
        let mut leader = Leader::new(leader_engine(400, 11)).unwrap();
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..4 {
            for _ in 0..2 {
                let batch = churny_batch(&mut rng, 400);
                leader.ingest(&batch).unwrap();
            }
            let applied = follower.replay(leader.log_bytes()).unwrap();
            assert_eq!(applied, 2, "round {round}");
            let (lv, fv) = (leader.engine().read_view(), follower.view());
            assert_eq!(lv.epoch(), fv.epoch());
            assert_eq!(lv.checksum(), fv.checksum());
            assert_eq!(lv.as_slice(), fv.as_slice());
        }
        assert_eq!(replayed(&mut follower), 8);
        // Replaying the full segment again is a no-op (everything is at
        // or below the follower's stamp).
        assert_eq!(follower.replay(leader.log_bytes()).unwrap(), 0);
    }

    #[test]
    fn rotation_hands_followers_a_seamless_new_segment() {
        let mut leader = Leader::new(leader_engine(300, 3)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        follower.replay(leader.log_bytes()).unwrap();
        leader.rotate().unwrap();
        assert_eq!(leader.rotations(), 1);
        assert_eq!(leader.segment_records(), 0);
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        // The old-segment follower adopts the new segment directly: its
        // base is exactly the follower's stamp.
        assert_eq!(follower.replay(leader.log_bytes()).unwrap(), 1);
        assert_eq!(
            follower.view().checksum(),
            leader.engine().read_view().checksum()
        );
        // A brand-new follower bootstraps from the rotated pair alone.
        let mut fresh = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        fresh.replay(leader.log_bytes()).unwrap();
        assert_eq!(fresh.view().epoch(), follower.view().epoch());
        assert_eq!(fresh.view().checksum(), follower.view().checksum());
    }

    #[test]
    fn purge_and_rotate_keeps_the_fleet_replayable() {
        let mut leader = Leader::new(leader_engine(300, 7)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        // Remove some vertices so the purge has something to drop.
        let mut batch = UpdateBatch::new();
        for v in 0..40u32 {
            batch.remove_vertex(v);
        }
        leader.ingest(&batch).unwrap();
        leader.purge_and_rotate().unwrap();
        // The 40 tombstoned vertices are out of the id space by now —
        // whether the ingest's own refine-stage compaction purged them
        // or the explicit purge did, the epoch moved at least once and
        // the rotated segment is based on the post-purge state.
        assert!(leader.engine().id_epoch() >= 1);
        assert_eq!(leader.segment_records(), 0);
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        leader.ingest(&churny_batch(&mut rng, 200)).unwrap();
        assert_eq!(follower.replay(leader.log_bytes()).unwrap(), 1);
        assert_eq!(
            follower.view().checksum(),
            leader.engine().read_view().checksum()
        );
    }

    #[test]
    fn epoch_mismatched_log_tail_is_rejected_before_any_state_applies() {
        let mut leader = Leader::new(leader_engine(300, 13)).unwrap();
        let stale_snapshot = leader.snapshot_bytes().to_vec();
        let mut rng = StdRng::seed_from_u64(2);
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        leader.rotate().unwrap(); // new segment based past the stale snapshot
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        let mut follower = Follower::bootstrap(&stale_snapshot).unwrap();
        let before = follower.view().epoch();
        let err = follower.replay(leader.log_bytes()).unwrap_err();
        assert!(
            matches!(err, ReplicaError::Wire(WireError::BaseMismatch { .. })),
            "{err}"
        );
        // No partial state: the follower did not move.
        assert_eq!(follower.view().epoch(), before);
        assert_eq!(replayed(&mut follower), 0);
    }

    #[test]
    fn tampered_record_reports_divergence() {
        let mut leader = Leader::new(leader_engine(300, 17)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        // Re-frame the single record with a wrong view checksum but a
        // valid payload checksum — the wire layer accepts it, the
        // divergence check must not.
        let mut log = Vec::new();
        let mut src = leader.log_bytes();
        let header = read_log_header(&mut src).unwrap();
        write_log_header(&mut log, header.k, header.dims, header.segment, header.base).unwrap();
        let mut record = read_record(&mut src).unwrap().unwrap();
        record.view_checksum ^= 1;
        write_record(&mut log, &record).unwrap();
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        let err = follower.replay(&log[..]).unwrap_err();
        assert!(matches!(err, ReplicaError::Divergence { .. }), "{err}");
    }

    /// Re-frames the leader's one record through `write_record` with its
    /// refinement decision replaced by a pass of `moves` (rebalance moves
    /// only), replays it on a fresh follower and returns the error. The
    /// follower's store must not have taken the forged pass's first move:
    /// every move is checked before any applies. A re-bootstrapped
    /// follower then replays the genuine log to the leader's view.
    fn reject_forged_pass(leader: &Leader, moves: &[(u32, u32)]) -> String {
        let mut src = leader.log_bytes();
        let header = read_log_header(&mut src).unwrap();
        let mut record = read_record(&mut src).unwrap().unwrap();
        record.batch.decision = Some(Some(RefinePass {
            vertices: moves.iter().map(|m| m.0).collect(),
            parts: moves.iter().map(|m| m.1).collect(),
            gd_start: moves.len(),
            touchup_start: moves.len(),
            seed: 1,
        }));
        let mut log = Vec::new();
        write_log_header(&mut log, header.k, header.dims, header.segment, header.base).unwrap();
        write_record(&mut log, &record).unwrap();

        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        let (first, first_part) = moves[0];
        let before = follower.engine().store().shard_of(first);
        assert_ne!(
            before, first_part,
            "the first forged move must be a real move"
        );
        let err = follower.replay(&log[..]).unwrap_err();
        assert!(matches!(err, ReplicaError::Ingest(_)), "{err}");
        assert_eq!(follower.engine().store().shard_of(first), before);
        assert_eq!(replayed(&mut follower), 0);

        let mut fresh = Follower::bootstrap(leader.snapshot_bytes()).unwrap();
        assert_eq!(fresh.replay(leader.log_bytes()).unwrap(), 1);
        let (lv, fv) = (leader.engine().read_view(), fresh.view());
        assert_eq!((lv.epoch(), lv.checksum()), (fv.epoch(), fv.checksum()));
        err.to_string()
    }

    /// A leader that ingested one churny batch, and a vertex untouched by
    /// it with its part and a different one.
    fn leader_with_one_record(seed: u64) -> (Leader, u32, u32, u32) {
        let mut leader = Leader::new(leader_engine(300, seed)).unwrap();
        let before = leader.engine().read_view();
        let mut rng = StdRng::seed_from_u64(seed);
        leader.ingest(&churny_batch(&mut rng, 300)).unwrap();
        let v = 299;
        let part = before.shard_of(v);
        (leader, v, part, (part + 1) % 4)
    }

    #[test]
    fn logged_move_to_a_missing_part_is_rejected() {
        let (leader, v, _, other) = leader_with_one_record(31);
        let why = reject_forged_pass(&leader, &[(v, other), (v, 4)]);
        assert!(why.contains("logged refinement move 1"), "{why}");
        assert!(why.contains("part 4 does not exist (k = 4)"), "{why}");
    }

    #[test]
    fn logged_move_of_an_unknown_vertex_is_rejected() {
        let (leader, v, _, other) = leader_with_one_record(32);
        let n = leader.engine().graph().num_vertices() as u32;
        let why = reject_forged_pass(&leader, &[(v, other), (n, 0)]);
        assert!(
            why.contains(&format!("vertex {n} is not a known vertex")),
            "{why}"
        );
    }

    #[test]
    fn logged_move_of_a_removed_vertex_is_rejected() {
        let mut leader = Leader::new(leader_engine(300, 33)).unwrap();
        let other = |v| (leader.engine().shard_of(v) + 1) % 4;
        let moves = [(8, other(8)), (7, other(7))];
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(7);
        leader.ingest(&batch).unwrap();
        // One removal stays far below the compaction slack: vertex 7 is
        // tombstoned, not purged.
        assert_eq!(leader.engine().shard_of(7), crate::TOMBSTONE);
        let why = reject_forged_pass(&leader, &moves);
        assert!(why.contains("vertex 7 was removed"), "{why}");
    }

    #[test]
    fn logged_move_to_the_vertex_s_own_part_is_rejected() {
        let (leader, v, part, other) = leader_with_one_record(34);
        // Away and back is two real moves; a third to the same part is
        // the no-op the check must catch.
        let why = reject_forged_pass(&leader, &[(v, other), (v, part), (v, part)]);
        assert!(why.contains("logged refinement move 2"), "{why}");
        assert!(
            why.contains(&format!("vertex {v} is already in part {part}")),
            "{why}"
        );
    }
}
