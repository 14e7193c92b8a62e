//! Versioned snapshot/restore wire format for
//! [`crate::StreamingPartitioner`] — warm-restart persistence for a
//! serving fleet.
//!
//! A process serving shard lookups cannot afford to replay the whole
//! stream after a restart; every production streaming partitioner
//! (cf. the restreaming/serving designs surveyed in Buluç et al., *Recent
//! Advances in Graph Partitioning*) persists its partition state and
//! restarts warm. [`crate::StreamingPartitioner::save_snapshot`] writes
//! the engine's full state to any `io::Write`;
//! [`crate::StreamingPartitioner::restore`] rebuilds an identical engine
//! from any `io::Read` — *identical* in the strong sense: the restored
//! engine continues ingesting with byte-identical
//! [`crate::BatchReport`]s to the process that saved (property-tested in
//! `proptest_snapshot`).
//!
//! ## File layout
//!
//! Everything is little-endian. A fixed self-describing header is
//! followed by one checksummed payload:
//!
//! | offset | size | field                                                |
//! |--------|------|------------------------------------------------------|
//! | 0      | 8    | magic `b"MDBGPSNP"`                                  |
//! | 8      | 4    | format version (`u32`, currently 3)                  |
//! | 12     | 8    | id epoch (`u64`, see below)                          |
//! | 20     | 4    | part count `k` (`u32`)                               |
//! | 24     | 4    | weight dimensions `d` (`u32`)                        |
//! | 28     | 8    | payload length in bytes (`u64`)                      |
//! | 36     | 8    | FNV-1a 64 checksum of the payload (`u64`)            |
//! | 44     | 8    | payload: id-epoch echo (`u64`, checksummed)          |
//! | 52     | …    | payload: CONFIG, GRAPH, STORE, ENGINE sections + END |
//!
//! The header duplicates `k`, `d` and the id epoch from the payload so a
//! router can [`read_info`] them without parsing (or trusting) the body,
//! and so mismatch rejection happens before any state is built. The
//! header itself is *outside* the checksum, so none of its fields are
//! trusted beyond routing: the payload length only bounds an incremental
//! read (a corrupt length reports truncation, never a huge allocation),
//! `k`/`d` are re-validated against the payload's config/store/weights
//! sections, and the id epoch is cross-checked against the checksummed
//! echo at the start of the payload.
//!
//! The payload's sections, each opened by its one-byte tag:
//!
//! | tag    | section | contents, in order                                 |
//! |--------|---------|----------------------------------------------------|
//! | `0x01` | CONFIG  | `k`, ε, `refine_iterations`, `max_refine_pairs`,   |
//! |        |         | `compact_slack`, `refine_every`, `drift_headroom`, |
//! |        |         | `seed`, `threads`, then the [`GdConfig`]           |
//! | `0x02` | GRAPH   | base CSR offsets and targets, delta adjacency,     |
//! |        |         | delta edge count, edge tombstones, removed base    |
//! |        |         | edge count, vertex tombstones, free list, weight   |
//! |        |         | dimension count, one column per dimension, totals  |
//! | `0x03` | STORE   | `k`, `d`, assignments, loads, live totals, intra   |
//! |        |         | and cut edge counts                                |
//! | `0x04` | ENGINE  | dirty mask, pending remap (flag + map), `batch_seq`|
//! |        |         | (`u64`), batches since the last refinement,        |
//! |        |         | refinement seed                                    |
//! | `0xFE` | END     | —                                                  |
//!
//! Every count in the payload is bounded before it sizes an allocation:
//! a sequence by the bytes left in the payload, `k` and `d` of the store by
//! the decoded config and weights. A count that claims more fails with
//! [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`].
//!
//! ## What is serialized vs. rebuilt
//!
//! * **Serialized verbatim** — the base CSR, delta adjacency, edge/vertex
//!   tombstones, the free list, the weight rows *and their live totals*
//!   (incrementally-maintained floats; re-summing would diverge bitwise),
//!   the store's assignments/loads/totals/edge counters, the full
//!   [`crate::StreamConfig`], the dirty set, the batch count (`batch_seq`,
//!   the stamp of the next published view), and the refinement
//!   seed/schedule state.
//! * **Not serialized** — the metrics registry, the engine's one counter
//!   store: a restored engine's counters start from zero.
//! * **Rebuilt on load** — the per-`(part, dimension)` rebalance heaps and
//!   their invalidation stamps. Heap entries carry push-*time* keys, so a
//!   long-lived engine holds mixed-vintage entries; to keep saver and
//!   restorer bitwise in lockstep, `save_snapshot` **canonicalizes** the
//!   live engine's heaps (re-keys every entry at the current totals,
//!   resets the stamps) before writing — both sides then continue from the
//!   same candidate queues. Derived store state (`part_sizes`, stamps) is
//!   likewise recomputed.
//!
//! ## Id epochs
//!
//! Vertex ids are stable *between* purges; each purging compaction
//! renumbers them and reports the old→new map in
//! [`crate::BatchReport::remap`]. The engine counts those purges as its
//! **id epoch** ([`crate::StreamingPartitioner::id_epoch`]); the snapshot
//! records it. An external id holder (a router, a replay harness) that has
//! applied `E` remaps is "at epoch `E`" and can only adopt a snapshot at
//! the same epoch — pass the expectation to
//! [`crate::StreamingPartitioner::restore_expecting`] and a mismatch fails
//! with [`SnapshotError::StaleEpoch`] instead of silently serving wrong
//! shards.
//!
//! ## Serving views after restore
//!
//! The snapshot payload itself is unchanged by the epoch-published read
//! path: no [`crate::ReadView`] state is serialized. Instead, a restoring
//! engine *publishes* view #0 as its final construction step, stamped
//! with the restored `(id_epoch, batch_seq)` — exactly the stamp of the
//! saver's last published view — so serving threads attaching to a
//! warm-restarted replica pin the same epoch-stamped assignment the
//! saver's readers were pinned to (asserted by `proptest_snapshot`
//! alongside the byte-identical-report guarantee).
//!
//! ## Failure model
//!
//! `restore` is all-or-nothing: every rejection — bad magic, unsupported
//! version, truncation, checksum mismatch, expectation mismatch, or an
//! internally inconsistent payload — returns the specific named
//! [`SnapshotError`] variant with nothing constructed. The checksum is an
//! *integrity* check (bit rot, torn writes), not an authenticity one;
//! feed snapshots from trusted storage.

use mdbgp_core::{GdConfig, NoiseSchedule, ProjectionMethod, StepSchedule};
use std::io::{Read, Write};

use crate::engine::StreamConfig;

/// First 8 bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MDBGPSNP";

/// Current snapshot format version. Version 3 keeps one engine counter,
/// `batch_seq` (the others live in the metrics registry, which snapshots
/// do not carry), and no rebalance move cap in the config. Every older
/// version is rejected with [`SnapshotError::UnsupportedVersion`] —
/// re-save from a live engine.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Fixed header size in bytes (magic + version + epoch + k + dims +
/// payload length + checksum).
pub const SNAPSHOT_HEADER_BYTES: usize = 8 + 4 + 8 + 4 + 4 + 8 + 8;

/// Everything that can go wrong saving or restoring a snapshot. Restore
/// failures are all-or-nothing: no partially built engine ever escapes.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed. Carries the same section
    /// context string as [`Self::Truncated`], so a failed restore (or a
    /// follower bootstrap over a flaky transport) names which part of the
    /// snapshot was in flight when the I/O layer gave up.
    Io {
        /// What was being read or written when the I/O call failed.
        context: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The stream does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic { found: [u8; 8] },
    /// The snapshot was written by an unknown (newer or retired) format
    /// version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The stream ended before the declared structure was complete (e.g. a
    /// partially written file after a crash mid-save).
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The snapshot's part count differs from the caller's expectation.
    KMismatch { snapshot: usize, expected: usize },
    /// The snapshot's weight-dimension count differs from the caller's
    /// expectation.
    DimensionMismatch { snapshot: usize, expected: usize },
    /// The snapshot's id epoch differs from the caller's: the caller's
    /// vertex ids went through a different number of purge renumberings
    /// than the snapshot's, so they name different vertices.
    StaleEpoch { snapshot: u64, expected: u64 },
    /// The payload parsed but violates an internal invariant (impossible
    /// for a file written by [`crate::StreamingPartitioner::save_snapshot`]
    /// that passes the checksum; names the violation for forensics).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { context, source } => {
                write!(
                    f,
                    "snapshot I/O failed while processing {context}: {source}"
                )
            }
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "not a snapshot: magic bytes {found:?} != {SNAPSHOT_MAGIC:?}"
                )
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version \
                 {supported})"
            ),
            SnapshotError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "snapshot truncated while reading {context}: needed {needed} bytes, {available} \
                 available"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#018x}, payload hashes to \
                 {computed:#018x}"
            ),
            SnapshotError::KMismatch { snapshot, expected } => write!(
                f,
                "snapshot has k = {snapshot} parts but the caller expects k = {expected}"
            ),
            SnapshotError::DimensionMismatch { snapshot, expected } => write!(
                f,
                "snapshot has {snapshot} weight dimensions but the caller expects {expected}"
            ),
            SnapshotError::StaleEpoch { snapshot, expected } => write!(
                f,
                "snapshot is at id epoch {snapshot} but the caller's ids are at epoch \
                 {expected} — the id spaces went through different purge renumberings"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot payload is corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SnapshotError {
    /// Wraps an I/O error with the section being processed. There is
    /// deliberately no `From<std::io::Error>`: every I/O failure must name
    /// its context, like every truncation does.
    pub(crate) fn io(context: &'static str, source: std::io::Error) -> Self {
        SnapshotError::Io { context, source }
    }
}

/// The header of a snapshot, readable without parsing (or trusting) the
/// payload — what a fleet controller lists before deciding which snapshot
/// to hand to a restarting replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version the snapshot was written with.
    pub format_version: u32,
    /// Purge count of the saving engine — see the module docs on epochs.
    pub id_epoch: u64,
    /// Part count `k`.
    pub k: usize,
    /// Weight dimensions `d`.
    pub dims: usize,
    /// Payload size in bytes (the full file is
    /// [`SNAPSHOT_HEADER_BYTES`] + this).
    pub payload_bytes: usize,
}

/// What a restoring caller knows about the snapshot it wants — checked
/// against the header before any state is built. `None` fields are not
/// checked; [`Default`] checks nothing (the behaviour of
/// [`crate::StreamingPartitioner::restore`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotExpectation {
    /// Required part count ([`SnapshotError::KMismatch`] otherwise).
    pub k: Option<usize>,
    /// Required weight-dimension count
    /// ([`SnapshotError::DimensionMismatch`] otherwise).
    pub dims: Option<usize>,
    /// Required id epoch ([`SnapshotError::StaleEpoch`] otherwise).
    pub id_epoch: Option<u64>,
}

impl SnapshotExpectation {
    /// Requires part count `k` (builder style).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Requires `dims` weight dimensions.
    pub fn with_dims(mut self, dims: usize) -> Self {
        self.dims = Some(dims);
        self
    }

    /// Requires id epoch `epoch`.
    pub fn with_id_epoch(mut self, epoch: u64) -> Self {
        self.id_epoch = Some(epoch);
        self
    }

    /// Checks an already-read header against the expectation.
    pub fn check(&self, info: &SnapshotInfo) -> Result<(), SnapshotError> {
        if let Some(k) = self.k {
            if info.k != k {
                return Err(SnapshotError::KMismatch {
                    snapshot: info.k,
                    expected: k,
                });
            }
        }
        if let Some(dims) = self.dims {
            if info.dims != dims {
                return Err(SnapshotError::DimensionMismatch {
                    snapshot: info.dims,
                    expected: dims,
                });
            }
        }
        if let Some(epoch) = self.id_epoch {
            if info.id_epoch != epoch {
                return Err(SnapshotError::StaleEpoch {
                    snapshot: info.id_epoch,
                    expected: epoch,
                });
            }
        }
        Ok(())
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for the integrity
/// check this format needs (any accidental byte flip changes the hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reads only the header: identity, version, epoch, shape — without
/// touching the payload.
pub fn read_info<R: Read>(mut r: R) -> Result<SnapshotInfo, SnapshotError> {
    let mut header = [0u8; SNAPSHOT_HEADER_BYTES];
    read_exact_or_truncated(&mut r, &mut header, "header")?;
    parse_header(&header)
}

fn parse_header(header: &[u8; SNAPSHOT_HEADER_BYTES]) -> Result<SnapshotInfo, SnapshotError> {
    // The `try_into().unwrap()`s below are invariants, not I/O: each
    // subslice has a compile-time-constant length taken from an array of
    // fixed size, so the conversions cannot fail whatever bytes arrived.
    let magic: [u8; 8] = header[0..8].try_into().unwrap();
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    Ok(SnapshotInfo {
        format_version: version,
        id_epoch: u64::from_le_bytes(header[12..20].try_into().unwrap()),
        k: u32::from_le_bytes(header[20..24].try_into().unwrap()) as usize,
        dims: u32::from_le_bytes(header[24..28].try_into().unwrap()) as usize,
        payload_bytes: u64::from_le_bytes(header[28..36].try_into().unwrap()) as usize,
    })
}

fn header_checksum(header: &[u8; SNAPSHOT_HEADER_BYTES]) -> u64 {
    // Invariant: an 8-byte subslice of a fixed-size array — cannot fail.
    u64::from_le_bytes(header[36..44].try_into().unwrap())
}

fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), SnapshotError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(SnapshotError::Truncated {
                    context,
                    needed: buf.len(),
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SnapshotError::io(context, e)),
        }
    }
    Ok(())
}

/// Frames and writes one snapshot: header (with the payload's checksum)
/// followed by the payload.
pub(crate) fn write_snapshot<W: Write>(
    w: &mut W,
    id_epoch: u64,
    k: usize,
    dims: usize,
    payload: &[u8],
) -> Result<SnapshotInfo, SnapshotError> {
    let info = SnapshotInfo {
        format_version: SNAPSHOT_VERSION,
        id_epoch,
        k,
        dims,
        payload_bytes: payload.len(),
    };
    let hdr = |e| SnapshotError::io("header", e);
    w.write_all(&SNAPSHOT_MAGIC).map_err(hdr)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes()).map_err(hdr)?;
    w.write_all(&id_epoch.to_le_bytes()).map_err(hdr)?;
    w.write_all(&(k as u32).to_le_bytes()).map_err(hdr)?;
    w.write_all(&(dims as u32).to_le_bytes()).map_err(hdr)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())
        .map_err(hdr)?;
    w.write_all(&fnv1a(payload).to_le_bytes()).map_err(hdr)?;
    w.write_all(payload)
        .map_err(|e| SnapshotError::io("payload", e))?;
    w.flush().map_err(|e| SnapshotError::io("payload", e))?;
    Ok(info)
}

/// Reads and integrity-checks one snapshot: header parse, exact-length
/// payload read (a short file is [`SnapshotError::Truncated`], not EOF),
/// checksum verification.
///
/// The payload length comes from the header, which the checksum does
/// **not** cover — so it is never trusted for an up-front allocation: the
/// payload is read incrementally up to the declared length, and the
/// buffer only ever grows to what the stream actually holds. A corrupt
/// length therefore reports [`SnapshotError::Truncated`] (or a checksum
/// mismatch) instead of aborting the process on a multi-exabyte
/// allocation.
pub(crate) fn read_snapshot<R: Read>(mut r: R) -> Result<(SnapshotInfo, Vec<u8>), SnapshotError> {
    let mut header = [0u8; SNAPSHOT_HEADER_BYTES];
    read_exact_or_truncated(&mut r, &mut header, "header")?;
    let info = parse_header(&header)?;
    let stored = header_checksum(&header);
    let mut payload = Vec::new();
    (&mut r)
        .take(info.payload_bytes as u64)
        .read_to_end(&mut payload)
        .map_err(|e| SnapshotError::io("payload", e))?;
    if payload.len() < info.payload_bytes {
        return Err(SnapshotError::Truncated {
            context: "payload",
            needed: info.payload_bytes,
            available: payload.len(),
        });
    }
    let computed = fnv1a(&payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok((info, payload))
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

/// Section tags: cheap structural markers inside the payload so a parse
/// that drifts out of sync fails loudly at the next boundary instead of
/// misreading gigabytes.
pub(crate) const SEC_CONFIG: u8 = 1;
pub(crate) const SEC_GRAPH: u8 = 2;
pub(crate) const SEC_STORE: u8 = 3;
pub(crate) const SEC_ENGINE: u8 = 4;
pub(crate) const SEC_END: u8 = 0xFE;

/// Append-only payload encoder (little-endian scalars, length-prefixed
/// sequences).
#[derive(Default)]
pub(crate) struct PayloadWriter {
    pub(crate) buf: Vec<u8>,
}

impl PayloadWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub(crate) fn put_section(&mut self, tag: u8) {
        self.put_u8(tag);
    }

    pub(crate) fn put_vec_u32(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    pub(crate) fn put_vec_usize(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    pub(crate) fn put_vec_f64(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    pub(crate) fn put_vec_bool(&mut self, v: &[bool]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_bool(x);
        }
    }
}

/// Bounds-checked payload decoder; every overrun is a named
/// [`SnapshotError::Truncated`], never a panic.
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Whether every payload byte was consumed (trailing garbage would
    /// mean the parse and the writer disagree about the format).
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated {
                context,
                needed: n,
                available: self.buf.len() - self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn get_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn get_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        // Invariant: `take(4, ..)` either errors or yields exactly 4
        // bytes, so the array conversion cannot fail (same for u64).
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    pub(crate) fn get_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    pub(crate) fn get_usize(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let v = self.get_u64(context)?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("{context}: length {v} overflows usize")))
    }

    /// A count of items that each take at least `item_bytes` payload
    /// bytes: bounded by the remaining payload so a corrupt count cannot
    /// ask for an absurd allocation before the item reads fail.
    pub(crate) fn get_len(
        &mut self,
        item_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapshotError> {
        let len = self.get_usize(context)?;
        let available = (self.buf.len() - self.pos) / item_bytes.max(1);
        if len > available {
            return Err(SnapshotError::Truncated {
                context,
                needed: len * item_bytes,
                available: self.buf.len() - self.pos,
            });
        }
        Ok(len)
    }

    pub(crate) fn get_f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    pub(crate) fn get_bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!(
                "{context}: boolean byte is {other}"
            ))),
        }
    }

    pub(crate) fn expect_section(&mut self, tag: u8) -> Result<(), SnapshotError> {
        let found = self.get_u8("section tag")?;
        if found != tag {
            return Err(SnapshotError::Corrupt(format!(
                "expected section tag {tag:#04x}, found {found:#04x}"
            )));
        }
        Ok(())
    }

    pub(crate) fn get_vec_u32(&mut self, context: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_len(4, context)?;
        (0..len).map(|_| self.get_u32(context)).collect()
    }

    pub(crate) fn get_vec_usize(
        &mut self,
        context: &'static str,
    ) -> Result<Vec<usize>, SnapshotError> {
        let len = self.get_len(8, context)?;
        (0..len).map(|_| self.get_usize(context)).collect()
    }

    pub(crate) fn get_vec_f64(&mut self, context: &'static str) -> Result<Vec<f64>, SnapshotError> {
        let len = self.get_len(8, context)?;
        (0..len).map(|_| self.get_f64(context)).collect()
    }

    pub(crate) fn get_vec_bool(
        &mut self,
        context: &'static str,
    ) -> Result<Vec<bool>, SnapshotError> {
        let len = self.get_len(1, context)?;
        (0..len).map(|_| self.get_bool(context)).collect()
    }
}

// ---------------------------------------------------------------------
// Configuration encoding
// ---------------------------------------------------------------------

pub(crate) fn encode_config(w: &mut PayloadWriter, cfg: &StreamConfig) {
    w.put_usize(cfg.k);
    w.put_f64(cfg.epsilon);
    w.put_usize(cfg.refine_iterations);
    w.put_usize(cfg.max_refine_pairs);
    w.put_f64(cfg.compact_slack);
    w.put_usize(cfg.refine_every);
    w.put_f64(cfg.drift_headroom);
    w.put_u64(cfg.seed);
    w.put_usize(cfg.threads);
    encode_gd_config(w, &cfg.gd);
}

pub(crate) fn decode_config(r: &mut PayloadReader) -> Result<StreamConfig, SnapshotError> {
    Ok(StreamConfig {
        k: r.get_usize("config.k")?,
        epsilon: r.get_f64("config.epsilon")?,
        refine_iterations: r.get_usize("config.refine_iterations")?,
        max_refine_pairs: r.get_usize("config.max_refine_pairs")?,
        compact_slack: r.get_f64("config.compact_slack")?,
        refine_every: r.get_usize("config.refine_every")?,
        drift_headroom: r.get_f64("config.drift_headroom")?,
        seed: r.get_u64("config.seed")?,
        threads: r.get_usize("config.threads")?,
        gd: decode_gd_config(r)?,
    })
}

fn encode_gd_config(w: &mut PayloadWriter, gd: &GdConfig) {
    w.put_f64(gd.epsilon);
    w.put_usize(gd.iterations);
    match gd.step {
        StepSchedule::Constant { gamma } => {
            w.put_u8(0);
            w.put_f64(gamma);
        }
        StepSchedule::FixedLength { factor } => {
            w.put_u8(1);
            w.put_f64(factor);
        }
    }
    w.put_u8(match gd.projection {
        ProjectionMethod::OneShotAlternating => 0,
        ProjectionMethod::AlternatingConverged => 1,
        ProjectionMethod::Dykstra => 2,
        ProjectionMethod::Exact => 3,
    });
    w.put_f64(gd.noise.initial_std);
    w.put_f64(gd.noise.later_std);
    w.put_bool(gd.fixing_threshold.is_some());
    w.put_f64(gd.fixing_threshold.unwrap_or(0.0));
    w.put_usize(gd.rounding_attempts);
    w.put_usize(gd.final_projection_passes);
    w.put_usize(gd.threads);
    w.put_bool(gd.track_history);
    w.put_usize(gd.grad_recompute_period);
    w.put_bool(gd.grad_check);
}

fn decode_gd_config(r: &mut PayloadReader) -> Result<GdConfig, SnapshotError> {
    let epsilon = r.get_f64("gd.epsilon")?;
    let iterations = r.get_usize("gd.iterations")?;
    let step = match r.get_u8("gd.step tag")? {
        0 => StepSchedule::Constant {
            gamma: r.get_f64("gd.step.gamma")?,
        },
        1 => StepSchedule::FixedLength {
            factor: r.get_f64("gd.step.factor")?,
        },
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown step-schedule tag {other}"
            )))
        }
    };
    let projection = match r.get_u8("gd.projection tag")? {
        0 => ProjectionMethod::OneShotAlternating,
        1 => ProjectionMethod::AlternatingConverged,
        2 => ProjectionMethod::Dykstra,
        3 => ProjectionMethod::Exact,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown projection-method tag {other}"
            )))
        }
    };
    let noise = NoiseSchedule {
        initial_std: r.get_f64("gd.noise.initial_std")?,
        later_std: r.get_f64("gd.noise.later_std")?,
    };
    let has_fixing = r.get_bool("gd.fixing_threshold flag")?;
    let fixing_value = r.get_f64("gd.fixing_threshold")?;
    Ok(GdConfig {
        epsilon,
        iterations,
        step,
        projection,
        noise,
        fixing_threshold: has_fixing.then_some(fixing_value),
        rounding_attempts: r.get_usize("gd.rounding_attempts")?,
        final_projection_passes: r.get_usize("gd.final_projection_passes")?,
        threads: r.get_usize("gd.threads")?,
        track_history: r.get_bool("gd.track_history")?,
        grad_recompute_period: r.get_usize("gd.grad_recompute_period")?,
        grad_check: r.get_bool("gd.grad_check")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_primitives_round_trip() {
        let mut w = PayloadWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_vec_u32(&[1, 2, 3]);
        w.put_vec_usize(&[9, 0]);
        w.put_vec_f64(&[1.5, f64::MIN_POSITIVE]);
        w.put_vec_bool(&[true, false, true]);
        let mut r = PayloadReader::new(&w.buf);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize("d").unwrap(), 12345);
        assert_eq!(r.get_f64("e").unwrap(), -0.125);
        assert!(r.get_bool("f").unwrap());
        assert_eq!(r.get_vec_u32("g").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_vec_usize("h").unwrap(), vec![9, 0]);
        assert_eq!(r.get_vec_f64("i").unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert_eq!(r.get_vec_bool("j").unwrap(), vec![true, false, true]);
        assert!(r.finished());
    }

    #[test]
    fn reader_overruns_are_truncation_errors() {
        let mut w = PayloadWriter::new();
        w.put_u32(5);
        let mut r = PayloadReader::new(&w.buf);
        assert!(r.get_u64("too big").is_err());
        // A corrupt length prefix cannot demand more than the payload has.
        let mut w = PayloadWriter::new();
        w.put_usize(1_000_000); // claims a million u32s follow
        w.put_u32(1);
        let mut r = PayloadReader::new(&w.buf);
        let err = r.get_vec_u32("bogus len").unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err}");
    }

    #[test]
    fn header_round_trips_and_detects_corruption() {
        let payload = b"hello snapshot payload".to_vec();
        let mut bytes = Vec::new();
        let info = write_snapshot(&mut bytes, 3, 8, 2, &payload).unwrap();
        assert_eq!(info.id_epoch, 3);
        assert_eq!(info.k, 8);
        assert_eq!(info.dims, 2);
        assert_eq!(info.payload_bytes, payload.len());

        // read_info sees the header without consuming the payload fully.
        let peeked = read_info(&bytes[..]).unwrap();
        assert_eq!(peeked, info);

        let (parsed, body) = read_snapshot(&bytes[..]).unwrap();
        assert_eq!(parsed, info);
        assert_eq!(body, payload);

        // Bad magic.
        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        assert!(matches!(
            read_snapshot(&broken[..]).unwrap_err(),
            SnapshotError::BadMagic { .. }
        ));

        // Unsupported version.
        let mut broken = bytes.clone();
        broken[8] = 99;
        assert!(matches!(
            read_snapshot(&broken[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99, .. }
        ));
        // No decoder for the previous version is kept.
        let mut broken = bytes.clone();
        broken[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            read_snapshot(&broken[..]).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 3
            }
        ));

        // Truncated header and truncated payload.
        assert!(matches!(
            read_snapshot(&bytes[..10]).unwrap_err(),
            SnapshotError::Truncated {
                context: "header",
                ..
            }
        ));
        assert!(matches!(
            read_snapshot(&bytes[..bytes.len() - 3]).unwrap_err(),
            SnapshotError::Truncated {
                context: "payload",
                ..
            }
        ));

        // A flipped payload byte fails the checksum; so does a flipped
        // checksum byte.
        let mut broken = bytes.clone();
        let last = broken.len() - 1;
        broken[last] ^= 0x01;
        assert!(matches!(
            read_snapshot(&broken[..]).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        let mut broken = bytes.clone();
        broken[36] ^= 0x01; // first checksum byte in the header
        assert!(matches!(
            read_snapshot(&broken[..]).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn io_errors_name_their_context() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk unplugged"))
            }
        }
        let err = read_info(FailingReader).unwrap_err();
        match &err {
            SnapshotError::Io { context, .. } => assert_eq!(*context, "header"),
            other => panic!("expected Io, got {other}"),
        }
        assert!(err.to_string().contains("header"), "{err}");
        assert!(err.to_string().contains("disk unplugged"), "{err}");
    }

    #[test]
    fn expectation_checks_name_the_mismatch() {
        let info = SnapshotInfo {
            format_version: SNAPSHOT_VERSION,
            id_epoch: 2,
            k: 8,
            dims: 2,
            payload_bytes: 0,
        };
        assert!(SnapshotExpectation::default().check(&info).is_ok());
        let ok = SnapshotExpectation::default()
            .with_k(8)
            .with_dims(2)
            .with_id_epoch(2);
        assert!(ok.check(&info).is_ok());
        assert!(matches!(
            SnapshotExpectation::default().with_k(4).check(&info),
            Err(SnapshotError::KMismatch {
                snapshot: 8,
                expected: 4
            })
        ));
        assert!(matches!(
            SnapshotExpectation::default().with_dims(3).check(&info),
            Err(SnapshotError::DimensionMismatch {
                snapshot: 2,
                expected: 3
            })
        ));
        assert!(matches!(
            SnapshotExpectation::default().with_id_epoch(0).check(&info),
            Err(SnapshotError::StaleEpoch {
                snapshot: 2,
                expected: 0
            })
        ));
    }

    #[test]
    fn config_round_trips_every_enum_arm() {
        let mut cfg = StreamConfig::new(8, 0.05);
        cfg.gd.step = StepSchedule::Constant { gamma: 0.7 };
        cfg.gd.projection = ProjectionMethod::Dykstra;
        cfg.gd.fixing_threshold = None;
        cfg.gd.track_history = true;
        cfg.refine_every = 3;
        cfg.threads = 4;
        cfg.seed = 1234567;
        let mut w = PayloadWriter::new();
        encode_config(&mut w, &cfg);
        let mut r = PayloadReader::new(&w.buf);
        let back = decode_config(&mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.threads, 4);
        assert_eq!(back.refine_every, 3);
        assert_eq!(back.gd.step, cfg.gd.step);
        assert_eq!(back.gd.projection, cfg.gd.projection);
        assert_eq!(back.gd.fixing_threshold, None);
        assert!(back.gd.track_history);

        // The other enum arms too.
        cfg.gd.step = StepSchedule::FixedLength { factor: 2.0 };
        cfg.gd.projection = ProjectionMethod::Exact;
        cfg.gd.fixing_threshold = Some(0.99);
        let mut w = PayloadWriter::new();
        encode_config(&mut w, &cfg);
        let back = decode_config(&mut PayloadReader::new(&w.buf)).unwrap();
        assert_eq!(back.gd.step, cfg.gd.step);
        assert_eq!(back.gd.projection, cfg.gd.projection);
        assert_eq!(back.gd.fixing_threshold, Some(0.99));

        // An unknown enum tag is Corrupt, not a panic.
        let mut w = PayloadWriter::new();
        encode_config(&mut w, &cfg);
        // step tag sits after k(8) + epsilon(8) + 4 usizes/f64s... locate
        // it by re-encoding with a poisoned byte: the tag is the first u8
        // in the stream, so scan for it structurally instead.
        let mut r = PayloadReader::new(&w.buf);
        let _ = decode_config(&mut r).unwrap();
        let tag_pos = 8 * 9 + 8 + 8; // scalars before gd.step tag
        w.buf[tag_pos] = 77;
        let err = decode_config(&mut PayloadReader::new(&w.buf)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }
}
