//! Versioned, checksummed wire format for the per-batch replication log —
//! the second half of the warm-restart story in [`crate::snapshot`].
//!
//! A snapshot moves a whole engine; the **batch log** moves everything
//! that happened *since*. A leader appends one framed record per ingested
//! [`UpdateBatch`], stamped with the post-batch [`ViewEpoch`] and the
//! published view's checksum, and carrying the leader's refinement
//! decision for the batch; a follower bootstraps from the snapshot and
//! replays the log tail through its own ingest pipeline, which applies
//! the logged decision in place of a refinement pass
//! ([`crate::replica`]). Because every other stage is deterministic
//! (threads 1 ≡ threads N, restore is byte-identical), replaying the same
//! records reproduces the leader's view sequence bit for bit — the stamps
//! and checksums in the records are the divergence detector, not the
//! mechanism of consistency.
//!
//! ## Log layout
//!
//! Everything is little-endian. A fixed self-describing header is
//! followed by zero or more framed records:
//!
//! | offset | size | field                                           |
//! |--------|------|-------------------------------------------------|
//! | 0      | 8    | magic `b"MDBGPLOG"`                             |
//! | 8      | 4    | format version (`u32`, currently 3)             |
//! | 12     | 4    | part count `k` (`u32`)                          |
//! | 16     | 4    | weight dimensions `d` (`u32`)                   |
//! | 20     | 8    | segment number (`u64`, 0 at birth, +1 per rotation) |
//! | 28     | 8    | base id epoch (`u64`)                           |
//! | 36     | 8    | base batch seq (`u64`)                          |
//! | 44     | 8    | checksum of header bytes 8..44                  |
//!
//! The **base** stamp is the [`ViewEpoch`] of the snapshot this log
//! continues from: record 1 applies on top of exactly that state. A
//! follower checks its restored stamp against the base before replaying a
//! single record ([`LogHeader::check_adoption`]) — an epoch-mismatched
//! log tail fails with the named [`WireError::BaseMismatch`], never with
//! a half-applied stream. Unlike the snapshot header, every byte after
//! the magic is covered by the header checksum: the log has no payload
//! length to cross-validate against, so a rotted shape/base field would
//! otherwise be trusted.
//!
//! Each record is framed as:
//!
//! | size | field                                     |
//! |------|-------------------------------------------|
//! | 4    | payload length in bytes (`u32`)           |
//! | 8    | checksum of the payload (`u64`)           |
//! | …    | payload                                   |
//!
//! and the payload holds the post-batch stamp (`id_epoch`, `batch_seq`,
//! both `u64`), the leader's published view checksum (`u64`,
//! [`crate::ReadView::checksum`]), the serialized updates (count + one
//! tagged [`StreamUpdate`] each), and the batch's refinement decision, a
//! tag followed by its fields:
//!
//! | tag (`u8`) | decision                          | followed by |
//! |------------|-----------------------------------|-------------|
//! | 0          | none (a batch a caller built)     | —           |
//! | 1          | no refinement pass ran            | —           |
//! | 2          | a pass ran ([`RefinePass`])       | post-pass seed (`u64`), GD start and touch-up start (`u64` each), the moved vertices and their parts (two `u32` columns, each a `u64` length + entries, equal lengths) |
//!
//! A leader always writes tag 1 or 2. A clean EOF at a frame boundary
//! ends the log ([`read_record`] returns `None`); bytes that stop inside
//! a frame are [`WireError::Truncated`] with the section named. The
//! frame's length prefix only bounds an incremental read — a corrupt
//! length reports truncation, never a huge allocation — exactly the
//! discipline of the snapshot codec's `read_snapshot`.
//!
//! ## Failure model
//!
//! Reading is all-or-nothing per record: every rejection — bad magic,
//! unsupported version, truncation, checksum mismatch, an unknown update
//! or decision tag, a decision whose columns or start indices disagree —
//! returns the specific named [`WireError`] variant with no partial
//! record surfaced. The header and record checksums are the snapshot's
//! word-wise checksum (`crate::snapshot::checksum`): an *integrity* check
//! (bit rot, torn appends), not authenticity; feed logs from trusted
//! storage.

use std::io::{Read, Write};

use crate::delta::{RefinePass, StreamUpdate, UpdateBatch};
use crate::snapshot::{
    checksum, read_exact_or_truncated, PayloadReader, PayloadWriter, SnapshotError,
};
use crate::ViewEpoch;

/// First 8 bytes of every batch log.
pub const LOG_MAGIC: [u8; 8] = *b"MDBGPLOG";

/// Current log format version (3: the header and record checksums are
/// the word-wise checksum snapshots use; since version 2, records carry
/// the refinement decision).
pub const LOG_VERSION: u32 = 3;

/// Fixed log header size in bytes (magic + version + k + dims + segment
/// + base epoch + base seq + checksum).
pub const LOG_HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8;

/// Per-record frame overhead in bytes (payload length + checksum).
pub const RECORD_FRAME_BYTES: usize = 4 + 8;

/// Everything that can go wrong writing or replaying a batch log. Reads
/// are all-or-nothing per record: no partially decoded record escapes.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed; names what was in flight.
    Io {
        /// What was being read or written when the I/O call failed.
        context: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The stream does not start with [`LOG_MAGIC`] — not a batch log.
    BadMagic { found: [u8; 8] },
    /// The log was written by an unknown (newer or retired) format
    /// version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The stream ended inside a declared structure (e.g. a torn append
    /// after a leader crash).
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes do not hash to their recorded checksum (header or record).
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The log's part count differs from the adopting engine's.
    KMismatch { log: usize, expected: usize },
    /// The log's weight-dimension count differs from the adopting
    /// engine's.
    DimensionMismatch { log: usize, expected: usize },
    /// The log continues from a different state than the one the follower
    /// restored: its base stamp is not the follower's `(id_epoch,
    /// batch_seq)` — this log tail belongs to a different snapshot.
    BaseMismatch { log: ViewEpoch, state: ViewEpoch },
    /// The record parsed but violates the format (unknown update or
    /// decision tag, a decision whose columns or start indices disagree,
    /// trailing bytes, a stamp that runs backwards).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { context, source } => {
                write!(
                    f,
                    "batch log I/O failed while processing {context}: {source}"
                )
            }
            WireError::BadMagic { found } => {
                write!(f, "not a batch log: magic bytes {found:?} != {LOG_MAGIC:?}")
            }
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported batch-log format version {found} (this build reads version \
                 {supported})"
            ),
            WireError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "batch log truncated while reading {context}: needed {needed} bytes, {available} \
                 available"
            ),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "batch-log checksum mismatch: stored {stored:#018x}, bytes hash to \
                 {computed:#018x}"
            ),
            WireError::KMismatch { log, expected } => write!(
                f,
                "batch log is for k = {log} parts but the adopting engine has k = {expected}"
            ),
            WireError::DimensionMismatch { log, expected } => write!(
                f,
                "batch log carries {log} weight dimensions but the adopting engine has {expected}"
            ),
            WireError::BaseMismatch { log, state } => write!(
                f,
                "batch log continues from (id_epoch {}, batch_seq {}) but the follower's \
                 restored state is at (id_epoch {}, batch_seq {}) — this log tail belongs to a \
                 different snapshot",
                log.id_epoch, log.batch_seq, state.id_epoch, state.batch_seq
            ),
            WireError::Corrupt(why) => write!(f, "batch-log record is corrupt: {why}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl WireError {
    fn io(context: &'static str, source: std::io::Error) -> Self {
        WireError::Io { context, source }
    }
}

/// Record payloads are decoded with the snapshot module's bounds-checked
/// `PayloadReader`, whose errors are [`SnapshotError`]s — translate
/// them into the log's namespace without losing the variant.
impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io { context, source } => WireError::Io { context, source },
            SnapshotError::Truncated {
                context,
                needed,
                available,
            } => WireError::Truncated {
                context,
                needed,
                available,
            },
            SnapshotError::ChecksumMismatch { stored, computed } => {
                WireError::ChecksumMismatch { stored, computed }
            }
            SnapshotError::Corrupt(why) => WireError::Corrupt(why),
            // The remaining variants (magic/version/shape/epoch) describe
            // snapshot headers and cannot come out of a payload decode.
            other => WireError::Corrupt(other.to_string()),
        }
    }
}

/// The header of a batch log: which state it continues from and the
/// stream shape — readable without touching any record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogHeader {
    /// Format version the log was written with.
    pub format_version: u32,
    /// Part count `k` of the stream the log belongs to.
    pub k: usize,
    /// Weight dimensions `d`.
    pub dims: usize,
    /// Which segment of the leader's log this is: 0 for the segment
    /// opened at the leader's birth, +1 per rotation. Informational:
    /// adoption and replay go by the base stamp and the record stamps.
    pub segment: u64,
    /// The [`ViewEpoch`] of the snapshot this log continues from: record
    /// 1 applies on top of exactly that state.
    pub base: ViewEpoch,
}

impl LogHeader {
    /// Checks the log against an adopting engine: shape must match and
    /// the engine's current stamp must be the log's base. Each mismatch
    /// fails with its named [`WireError`] variant; nothing is applied.
    pub fn check_adoption(&self, k: usize, dims: usize, state: ViewEpoch) -> Result<(), WireError> {
        if self.k != k {
            return Err(WireError::KMismatch {
                log: self.k,
                expected: k,
            });
        }
        if self.dims != dims {
            return Err(WireError::DimensionMismatch {
                log: self.dims,
                expected: dims,
            });
        }
        if self.base != state {
            return Err(WireError::BaseMismatch {
                log: self.base,
                state,
            });
        }
        Ok(())
    }
}

/// One replication unit: the batch the leader ingested (with its
/// refinement decision), the `(id_epoch, batch_seq)` stamp of the view it
/// published afterwards, and that view's checksum. A follower replays
/// `batch`, then proves it arrived at the same place by comparing its own
/// published view against `stamp` + `view_checksum`
/// ([`crate::replica::Follower`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// The leader's post-batch published [`ViewEpoch`].
    pub stamp: ViewEpoch,
    /// [`crate::ReadView::checksum`] of the leader's post-batch view.
    pub view_checksum: u64,
    /// The ingested batch, verbatim; a leader's record also carries the
    /// batch's refinement decision inside it.
    pub batch: UpdateBatch,
}

/// Writes the log header: magic, version, shape, base stamp, and the
/// header checksum covering everything after the magic.
pub fn write_log_header<W: Write>(
    w: &mut W,
    k: usize,
    dims: usize,
    segment: u64,
    base: ViewEpoch,
) -> Result<(), WireError> {
    let mut body = Vec::with_capacity(LOG_HEADER_BYTES - 8);
    body.extend_from_slice(&LOG_VERSION.to_le_bytes());
    body.extend_from_slice(&(k as u32).to_le_bytes());
    body.extend_from_slice(&(dims as u32).to_le_bytes());
    body.extend_from_slice(&segment.to_le_bytes());
    body.extend_from_slice(&base.id_epoch.to_le_bytes());
    body.extend_from_slice(&base.batch_seq.to_le_bytes());
    let hdr = |e| WireError::io("log header", e);
    w.write_all(&LOG_MAGIC).map_err(hdr)?;
    w.write_all(&body).map_err(hdr)?;
    w.write_all(&checksum(&body).to_le_bytes()).map_err(hdr)?;
    w.flush().map_err(hdr)?;
    Ok(())
}

/// Reads and integrity-checks the log header.
pub fn read_log_header<R: Read>(r: &mut R) -> Result<LogHeader, WireError> {
    let mut header = [0u8; LOG_HEADER_BYTES];
    read_exact_or_truncated(r, &mut header, "log header")?;
    // Magic check precedes the checksum: "not a log at all" should say
    // so, not report a hash mismatch.
    let magic: [u8; 8] = header[0..8].try_into().expect("8-byte slice of 52");
    if magic != LOG_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let body = &header[8..LOG_HEADER_BYTES - 8];
    let stored = u64::from_le_bytes(
        header[LOG_HEADER_BYTES - 8..]
            .try_into()
            .expect("8-byte slice of 52"),
    );
    let computed = checksum(body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != LOG_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: LOG_VERSION,
        });
    }
    Ok(LogHeader {
        format_version: version,
        k: u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice")) as usize,
        dims: u32::from_le_bytes(header[16..20].try_into().expect("4-byte slice")) as usize,
        segment: u64::from_le_bytes(header[20..28].try_into().expect("8-byte slice")),
        base: ViewEpoch {
            id_epoch: u64::from_le_bytes(header[28..36].try_into().expect("8-byte slice")),
            batch_seq: u64::from_le_bytes(header[36..44].try_into().expect("8-byte slice")),
        },
    })
}

/// Frames and appends one record; returns the bytes written (frame +
/// payload), the quantity a rotation policy meters.
pub fn write_record<W: Write>(w: &mut W, record: &LogRecord) -> Result<usize, WireError> {
    let mut pw = PayloadWriter::new();
    pw.put_u64(record.stamp.id_epoch);
    pw.put_u64(record.stamp.batch_seq);
    pw.put_u64(record.view_checksum);
    pw.put_usize(record.batch.updates.len());
    for update in &record.batch.updates {
        encode_update(&mut pw, update);
    }
    encode_decision(&mut pw, &record.batch.decision);
    let frame = |e| WireError::io("record frame", e);
    w.write_all(&(pw.buf.len() as u32).to_le_bytes())
        .map_err(frame)?;
    w.write_all(&checksum(&pw.buf).to_le_bytes())
        .map_err(frame)?;
    w.write_all(&pw.buf)
        .map_err(|e| WireError::io("record payload", e))?;
    w.flush().map_err(|e| WireError::io("record payload", e))?;
    Ok(RECORD_FRAME_BYTES + pw.buf.len())
}

/// Reads the next record, `Ok(None)` at a clean end of log (EOF exactly
/// at a frame boundary). Bytes that stop inside a frame are
/// [`WireError::Truncated`]; a payload that fails its checksum is
/// [`WireError::ChecksumMismatch`] — in every error case no record (and
/// no partial record) is returned.
pub fn read_record<R: Read>(r: &mut R) -> Result<Option<LogRecord>, WireError> {
    let mut frame = [0u8; RECORD_FRAME_BYTES];
    // A clean EOF before the first frame byte ends the log; EOF after it
    // is a torn append.
    let mut filled = 0usize;
    while filled < frame.len() {
        match r.read(&mut frame[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    context: "record frame",
                    needed: frame.len(),
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io("record frame", e)),
        }
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().expect("4-byte slice")) as usize;
    let stored = u64::from_le_bytes(frame[4..12].try_into().expect("8-byte slice"));
    // The declared length is untrusted: read incrementally up to it, so a
    // corrupt frame reports truncation instead of a huge allocation.
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| WireError::io("record payload", e))?;
    if payload.len() < len {
        return Err(WireError::Truncated {
            context: "record payload",
            needed: len,
            available: payload.len(),
        });
    }
    let computed = checksum(&payload);
    if computed != stored {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let mut pr = PayloadReader::new(&payload);
    let stamp = ViewEpoch {
        id_epoch: pr.get_u64("record stamp id_epoch")?,
        batch_seq: pr.get_u64("record stamp batch_seq")?,
    };
    let view_checksum = pr.get_u64("record view checksum")?;
    let count = pr.get_usize("record update count")?;
    let mut updates = Vec::new();
    for _ in 0..count {
        // No pre-reservation from the untrusted count: each update is at
        // least 1 byte, so a corrupt count fails on the tag read below
        // long before memory becomes a concern.
        updates.push(decode_update(&mut pr)?);
    }
    let decision = decode_decision(&mut pr)?;
    if !pr.finished() {
        return Err(WireError::Corrupt(
            "trailing bytes after the refinement decision".into(),
        ));
    }
    Ok(Some(LogRecord {
        stamp,
        view_checksum,
        batch: UpdateBatch { updates, decision },
    }))
}

// Update tags. The numbering is part of the wire format: renumbering is a
// version bump.
const TAG_ADD_VERTEX: u8 = 0;
const TAG_ADD_EDGE: u8 = 1;
const TAG_REMOVE_EDGE: u8 = 2;
const TAG_REMOVE_VERTEX: u8 = 3;
const TAG_SET_WEIGHT: u8 = 4;

fn encode_update(w: &mut PayloadWriter, update: &StreamUpdate) {
    match update {
        StreamUpdate::AddVertex { weights, neighbors } => {
            w.put_u8(TAG_ADD_VERTEX);
            w.put_vec_f64(weights);
            w.put_vec_u32(neighbors);
        }
        StreamUpdate::AddEdge { u, v } => {
            w.put_u8(TAG_ADD_EDGE);
            w.put_u32(*u);
            w.put_u32(*v);
        }
        StreamUpdate::RemoveEdge { u, v } => {
            w.put_u8(TAG_REMOVE_EDGE);
            w.put_u32(*u);
            w.put_u32(*v);
        }
        StreamUpdate::RemoveVertex { v } => {
            w.put_u8(TAG_REMOVE_VERTEX);
            w.put_u32(*v);
        }
        StreamUpdate::SetWeight { v, dim, value } => {
            w.put_u8(TAG_SET_WEIGHT);
            w.put_u32(*v);
            w.put_usize(*dim);
            w.put_f64(*value);
        }
    }
}

fn decode_update(r: &mut PayloadReader) -> Result<StreamUpdate, WireError> {
    Ok(match r.get_u8("update tag")? {
        TAG_ADD_VERTEX => StreamUpdate::AddVertex {
            weights: r.get_vec_f64("update.add_vertex.weights")?,
            neighbors: r.get_vec_u32("update.add_vertex.neighbors")?,
        },
        TAG_ADD_EDGE => StreamUpdate::AddEdge {
            u: r.get_u32("update.add_edge.u")?,
            v: r.get_u32("update.add_edge.v")?,
        },
        TAG_REMOVE_EDGE => StreamUpdate::RemoveEdge {
            u: r.get_u32("update.remove_edge.u")?,
            v: r.get_u32("update.remove_edge.v")?,
        },
        TAG_REMOVE_VERTEX => StreamUpdate::RemoveVertex {
            v: r.get_u32("update.remove_vertex.v")?,
        },
        TAG_SET_WEIGHT => StreamUpdate::SetWeight {
            v: r.get_u32("update.set_weight.v")?,
            dim: r.get_usize("update.set_weight.dim")?,
            value: r.get_f64("update.set_weight.value")?,
        },
        other => return Err(WireError::Corrupt(format!("unknown update tag {other}"))),
    })
}

// Decision tags, numbered like the update tags: part of the wire format.
const DECISION_NONE: u8 = 0;
const DECISION_NO_PASS: u8 = 1;
const DECISION_PASS: u8 = 2;

fn encode_decision(w: &mut PayloadWriter, decision: &Option<Option<RefinePass>>) {
    match decision {
        None => w.put_u8(DECISION_NONE),
        Some(None) => w.put_u8(DECISION_NO_PASS),
        Some(Some(pass)) => {
            w.put_u8(DECISION_PASS);
            w.put_u64(pass.seed);
            w.put_usize(pass.gd_start);
            w.put_usize(pass.touchup_start);
            w.put_vec_u32(&pass.vertices);
            w.put_vec_u32(&pass.parts);
        }
    }
}

/// Decodes a decision and checks its shape: equal columns, and start
/// indices in order within the move count. Whether the moves fit the
/// follower's state is the engine's check, made before the first applies.
fn decode_decision(r: &mut PayloadReader) -> Result<Option<Option<RefinePass>>, WireError> {
    let pass = match r.get_u8("decision tag")? {
        DECISION_NONE => return Ok(None),
        DECISION_NO_PASS => return Ok(Some(None)),
        DECISION_PASS => RefinePass {
            seed: r.get_u64("decision.seed")?,
            gd_start: r.get_usize("decision.gd_start")?,
            touchup_start: r.get_usize("decision.touchup_start")?,
            vertices: r.get_vec_u32("decision.vertices")?,
            parts: r.get_vec_u32("decision.parts")?,
        },
        other => return Err(WireError::Corrupt(format!("unknown decision tag {other}"))),
    };
    let moves = pass.vertices.len();
    let why = if pass.parts.len() != moves {
        format!(
            "decision.parts holds {} entries, decision.vertices {moves}",
            pass.parts.len()
        )
    } else if pass.touchup_start > moves {
        format!(
            "decision.touchup_start {} is past the move count {moves}",
            pass.touchup_start
        )
    } else if pass.gd_start > pass.touchup_start {
        format!(
            "decision.gd_start {} is past decision.touchup_start {}",
            pass.gd_start, pass.touchup_start
        )
    } else {
        return Ok(Some(Some(pass)));
    };
    Err(WireError::Corrupt(why))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> (Vec<u8>, Vec<LogRecord>) {
        let base = ViewEpoch {
            id_epoch: 1,
            batch_seq: 7,
        };
        let mut batch1 = UpdateBatch::new();
        batch1.add_vertex(vec![1.0, 2.5], vec![0, 3]);
        batch1.add_edge(1, 2);
        batch1.remove_edge(0, 3);
        batch1.set_weight(2, 1, 0.75);
        // A leader's records carry a decision: a pass for the first batch,
        // no pass for the second. The third (a batch a caller built)
        // carries no decision at all.
        batch1.decision = Some(Some(RefinePass {
            vertices: vec![3, 0, 2, 1],
            parts: vec![1, 5, 0, 7],
            gd_start: 2,
            touchup_start: 3,
            seed: 0x0123_4567_89AB_CDEF,
        }));
        let mut batch2 = UpdateBatch::new();
        batch2.remove_vertex(3);
        batch2.decision = Some(None);
        let records = vec![
            LogRecord {
                stamp: ViewEpoch {
                    id_epoch: 1,
                    batch_seq: 8,
                },
                view_checksum: 0xDEAD_BEEF_CAFE_F00D,
                batch: batch1,
            },
            LogRecord {
                stamp: ViewEpoch {
                    id_epoch: 2,
                    batch_seq: 9,
                },
                view_checksum: 42,
                batch: batch2,
            },
            // An empty batch is legal on the wire (a leader may log
            // heartbeat batches).
            LogRecord {
                stamp: ViewEpoch {
                    id_epoch: 2,
                    batch_seq: 10,
                },
                view_checksum: 7,
                batch: UpdateBatch::new(),
            },
        ];
        let mut bytes = Vec::new();
        write_log_header(&mut bytes, 8, 2, 3, base).unwrap();
        for rec in &records {
            let written = write_record(&mut bytes, rec).unwrap();
            assert!(written > RECORD_FRAME_BYTES);
        }
        (bytes, records)
    }

    fn read_all(bytes: &[u8]) -> Result<(LogHeader, Vec<LogRecord>), WireError> {
        let mut r = bytes;
        let header = read_log_header(&mut r)?;
        let mut records = Vec::new();
        while let Some(rec) = read_record(&mut r)? {
            records.push(rec);
        }
        Ok((header, records))
    }

    #[test]
    fn log_round_trips_every_update_arm() {
        let (bytes, records) = sample_log();
        let (header, back) = read_all(&bytes).unwrap();
        assert_eq!(header.format_version, LOG_VERSION);
        assert_eq!(header.k, 8);
        assert_eq!(header.dims, 2);
        assert_eq!(header.segment, 3);
        assert_eq!(
            header.base,
            ViewEpoch {
                id_epoch: 1,
                batch_seq: 7
            }
        );
        assert_eq!(back, records);
    }

    #[test]
    fn adoption_checks_name_the_mismatch() {
        let (bytes, _) = sample_log();
        let header = read_log_header(&mut &bytes[..]).unwrap();
        let base = header.base;
        assert!(header.check_adoption(8, 2, base).is_ok());
        assert!(matches!(
            header.check_adoption(4, 2, base),
            Err(WireError::KMismatch {
                log: 8,
                expected: 4
            })
        ));
        assert!(matches!(
            header.check_adoption(8, 3, base),
            Err(WireError::DimensionMismatch {
                log: 2,
                expected: 3
            })
        ));
        // The epoch-mismatched log tail: a snapshot from a different
        // purge generation (or batch count) cannot adopt this log.
        let stale = ViewEpoch {
            id_epoch: base.id_epoch + 1,
            batch_seq: base.batch_seq,
        };
        assert!(matches!(
            header.check_adoption(8, 2, stale),
            Err(WireError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn header_corruption_is_named() {
        let (bytes, _) = sample_log();

        // Bad magic.
        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        assert!(matches!(
            read_all(&broken).unwrap_err(),
            WireError::BadMagic { .. }
        ));

        // Wrong version — the checksum covers the version field, so the
        // flip must be paired with a recomputed checksum to reach the
        // version check (a plain flip is a checksum mismatch, also
        // named).
        let mut broken = bytes.clone();
        broken[8] = 99;
        assert!(matches!(
            read_all(&broken).unwrap_err(),
            WireError::ChecksumMismatch { .. }
        ));
        let body: Vec<u8> = broken[8..LOG_HEADER_BYTES - 8].to_vec();
        broken[LOG_HEADER_BYTES - 8..LOG_HEADER_BYTES]
            .copy_from_slice(&checksum(&body).to_le_bytes());
        assert!(matches!(
            read_all(&broken).unwrap_err(),
            WireError::UnsupportedVersion { found: 99, .. }
        ));

        // Truncated header.
        assert!(matches!(
            read_all(&bytes[..10]).unwrap_err(),
            WireError::Truncated {
                context: "log header",
                ..
            }
        ));
    }

    #[test]
    fn record_corruption_is_named_and_yields_no_record() {
        let (bytes, records) = sample_log();

        // Truncation mid-record: cut inside the final record's payload.
        let cut = bytes.len() - 3;
        let err = read_all(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Truncated {
                    context: "record payload",
                    ..
                }
            ),
            "{err}"
        );
        // ...and inside a frame header.
        let mut r = &bytes[..LOG_HEADER_BYTES + 5];
        read_log_header(&mut r).unwrap();
        assert!(matches!(
            read_record(&mut r).unwrap_err(),
            WireError::Truncated {
                context: "record frame",
                ..
            }
        ));

        // A flipped payload byte fails the record checksum — and the
        // earlier, untouched records still replay.
        let mut broken = bytes.clone();
        let last = broken.len() - 1;
        broken[last] ^= 0x01;
        let mut r = &broken[..];
        read_log_header(&mut r).unwrap();
        assert_eq!(read_record(&mut r).unwrap().unwrap(), records[0]);
        assert_eq!(read_record(&mut r).unwrap().unwrap(), records[1]);
        assert!(matches!(
            read_record(&mut r).unwrap_err(),
            WireError::ChecksumMismatch { .. }
        ));
    }

    /// Hand-frames one record: the stamp, the view checksum and
    /// `update_count`, then whatever `rest` writes. Returns the message of
    /// the `Corrupt` error reading it must fail with.
    fn corrupt_record(update_count: usize, rest: impl FnOnce(&mut PayloadWriter)) -> String {
        let mut pw = PayloadWriter::new();
        pw.put_u64(0); // id_epoch
        pw.put_u64(1); // batch_seq
        pw.put_u64(0); // view checksum
        pw.put_usize(update_count);
        rest(&mut pw);
        let mut bytes = Vec::new();
        write_log_header(&mut bytes, 2, 2, 0, ViewEpoch::default()).unwrap();
        bytes.extend_from_slice(&(pw.buf.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&pw.buf).to_le_bytes());
        bytes.extend_from_slice(&pw.buf);
        let mut r = &bytes[..];
        read_log_header(&mut r).unwrap();
        let err = read_record(&mut r).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)), "{err}");
        err.to_string()
    }

    /// Writes a pass decision with the given start indices and columns.
    fn put_pass(pw: &mut PayloadWriter, starts: (usize, usize), vertices: &[u32], parts: &[u32]) {
        pw.put_u8(DECISION_PASS);
        pw.put_u64(7); // seed
        pw.put_usize(starts.0);
        pw.put_usize(starts.1);
        pw.put_vec_u32(vertices);
        pw.put_vec_u32(parts);
    }

    #[test]
    fn unknown_update_tag_is_corrupt_not_a_panic() {
        let why = corrupt_record(1, |pw| pw.put_u8(200));
        assert!(why.contains("unknown update tag 200"), "{why}");
    }

    #[test]
    fn unknown_decision_tag_is_corrupt() {
        let why = corrupt_record(0, |pw| pw.put_u8(3));
        assert!(why.contains("unknown decision tag 3"), "{why}");
    }

    #[test]
    fn unequal_decision_columns_are_corrupt() {
        let why = corrupt_record(0, |pw| put_pass(pw, (0, 0), &[4, 5], &[1]));
        assert!(
            why.contains("decision.parts holds 1 entries, decision.vertices 2"),
            "{why}"
        );
    }

    #[test]
    fn decision_start_past_the_move_count_is_corrupt() {
        let why = corrupt_record(0, |pw| put_pass(pw, (0, 3), &[4, 5], &[1, 2]));
        assert!(
            why.contains("decision.touchup_start 3 is past the move count 2"),
            "{why}"
        );
        let why = corrupt_record(0, |pw| put_pass(pw, (2, 1), &[4, 5], &[1, 2]));
        assert!(
            why.contains("decision.gd_start 2 is past decision.touchup_start 1"),
            "{why}"
        );
    }

    #[test]
    fn previous_format_version_is_unsupported() {
        // Versions 1 (records without a decision section) and 2 (a
        // byte-wise checksum) share this version's header layout: patch
        // the version and re-seal the header checksum. Their records are
        // never read.
        for old in [1u32, 2] {
            let (mut bytes, _) = sample_log();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let body = bytes[8..LOG_HEADER_BYTES - 8].to_vec();
            bytes[LOG_HEADER_BYTES - 8..LOG_HEADER_BYTES]
                .copy_from_slice(&checksum(&body).to_le_bytes());
            assert!(matches!(
                read_all(&bytes).unwrap_err(),
                WireError::UnsupportedVersion {
                    found,
                    supported: 3
                } if found == old
            ));
        }
    }

    #[test]
    fn clean_eof_ends_the_log() {
        let base = ViewEpoch::default();
        let mut bytes = Vec::new();
        write_log_header(&mut bytes, 2, 2, 0, base).unwrap();
        let mut r = &bytes[..];
        read_log_header(&mut r).unwrap();
        assert!(read_record(&mut r).unwrap().is_none());
        // And stays None on repeated polls (a tailing reader).
        assert!(read_record(&mut r).unwrap().is_none());
    }

    #[test]
    fn io_errors_name_their_context() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("link down"))
            }
        }
        let err = read_log_header(&mut FailingReader).unwrap_err();
        match &err {
            WireError::Io { context, .. } => assert_eq!(*context, "log header"),
            other => panic!("expected Io, got {other}"),
        }
        assert!(err.to_string().contains("link down"), "{err}");
    }
}
