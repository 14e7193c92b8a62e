//! Crash-resume trailer for `mdbgp_cli stream` snapshot files.
//!
//! An engine snapshot ([`mdbgp_stream::snapshot`]) carries everything the
//! *engine* needs to continue, but a replay harness holds state of its
//! own: how far through the input file the stream got, and — under churn
//! — the original→current id map ([`crate::churn::IdTracker`]) that lets
//! it keep scripting in original input ids after the engine recycled or
//! renumbered slots. `--save-snapshot` appends this small framed record
//! *after* the engine snapshot in the same file, and `--load-snapshot`
//! reads it back to restore the harness state exactly. The load path
//! requires it: without the map no file can prove that its engine ids
//! still are the input's original ids, because a removed id that a later
//! arrival recycled leaves neither a tombstone nor an id epoch behind.
//!
//! Layout (everything little-endian), following the same self-describing
//! + checksummed discipline as the snapshot and batch-log formats:
//!
//! | size | field                                      |
//! |------|--------------------------------------------|
//! | 8    | magic `b"MDBGPRPL"`                        |
//! | 4    | trailer version (`u32`, currently 1)       |
//! | 4    | payload length in bytes (`u32`)            |
//! | 8    | FNV-1a 64 checksum of the payload (`u64`)  |
//! | …    | payload                                    |
//!
//! Payload: `arrived` (`u32`), `batch_no` (`u64`), map length (`u32`),
//! then one `u32` per original id (`u32::MAX` = removed). Errors are
//! `String`s in the CLI's error idiom; every failure (a missing trailer,
//! truncation, bad magic, version skew, checksum mismatch, a map that
//! disagrees with `arrived`) names what was wrong and yields no partial
//! state.

use std::io::Read;
use std::io::Write;

use mdbgp_graph::VertexId;

/// First 8 bytes of a resume trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"MDBGPRPL";

/// Current trailer format version.
pub const TRAILER_VERSION: u32 = 1;

/// FNV-1a 64 (same parameters as the stream crate's snapshot/log
/// checksums, re-stated here because that helper is crate-private).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The replay-harness state a resumed process needs alongside the engine
/// snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeState {
    /// How many original input vertices had been streamed (bootstrap
    /// prefix + arrivals) when the snapshot was taken.
    pub arrived: u32,
    /// Batches completed so far (display/continuation numbering).
    pub batch_no: u64,
    /// The [`crate::churn::IdTracker`] map: current engine id per
    /// original id, `u32::MAX` for removed originals. Length always
    /// equals `arrived`.
    pub map: Vec<VertexId>,
}

/// Appends the trailer to `w` (call right after
/// `StreamingPartitioner::save_snapshot` on the same writer).
pub fn write_trailer<W: Write>(w: &mut W, state: &ResumeState) -> Result<(), String> {
    if state.map.len() != state.arrived as usize {
        return Err(format!(
            "resume trailer is inconsistent: {} arrived vertices but the id map tracks {}",
            state.arrived,
            state.map.len()
        ));
    }
    let mut payload = Vec::with_capacity(4 + 8 + 4 + state.map.len() * 4);
    payload.extend_from_slice(&state.arrived.to_le_bytes());
    payload.extend_from_slice(&state.batch_no.to_le_bytes());
    payload.extend_from_slice(&(state.map.len() as u32).to_le_bytes());
    for &cur in &state.map {
        payload.extend_from_slice(&cur.to_le_bytes());
    }
    let err = |e: std::io::Error| format!("write resume trailer: {e}");
    w.write_all(&TRAILER_MAGIC).map_err(err)?;
    w.write_all(&TRAILER_VERSION.to_le_bytes()).map_err(err)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(err)?;
    w.write_all(&fnv1a(&payload).to_le_bytes()).map_err(err)?;
    w.write_all(&payload).map_err(err)?;
    w.flush().map_err(err)?;
    Ok(())
}

/// Reads the trailer that follows the engine snapshot on `r`. A file
/// that ends right after the engine snapshot is an error naming the
/// missing trailer, like every other irregularity.
pub fn read_trailer<R: Read>(r: &mut R) -> Result<ResumeState, String> {
    let mut header = [0u8; 8 + 4 + 4 + 8];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => {
                return Err(
                    "the file ends after the engine snapshot: it carries no resume \
                     trailer (MDBGPRPL), which holds the replay's original-id map"
                        .into(),
                )
            }
            Ok(0) => {
                return Err(format!(
                    "resume trailer truncated: header needs {} bytes, {filled} available",
                    header.len()
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read resume trailer header: {e}")),
        }
    }
    let magic: [u8; 8] = header[0..8].try_into().expect("8-byte slice");
    if magic != TRAILER_MAGIC {
        return Err(format!(
            "bytes after the engine snapshot are not a resume trailer (magic {magic:?})"
        ));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != TRAILER_VERSION {
        return Err(format!(
            "unsupported resume-trailer version {version} (this build reads {TRAILER_VERSION})"
        ));
    }
    let len = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice")) as usize;
    let stored = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    // The declared length is untrusted: read up to it, report truncation.
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| format!("read resume trailer payload: {e}"))?;
    if payload.len() < len {
        return Err(format!(
            "resume trailer truncated: payload declares {len} bytes, {} available",
            payload.len()
        ));
    }
    let computed = fnv1a(&payload);
    if computed != stored {
        return Err(format!(
            "resume trailer checksum mismatch: stored {stored:#018x}, bytes hash to \
             {computed:#018x}"
        ));
    }
    if payload.len() < 16 {
        return Err("resume trailer payload too short for its fixed fields".into());
    }
    let arrived = u32::from_le_bytes(payload[0..4].try_into().expect("4-byte slice"));
    let batch_no = u64::from_le_bytes(payload[4..12].try_into().expect("8-byte slice"));
    let map_len = u32::from_le_bytes(payload[12..16].try_into().expect("4-byte slice")) as usize;
    if map_len != arrived as usize {
        return Err(format!(
            "resume trailer is inconsistent: {arrived} arrived vertices but the id map tracks \
             {map_len}"
        ));
    }
    if payload.len() != 16 + map_len * 4 {
        return Err(format!(
            "resume trailer payload is {} bytes but its id map declares {map_len} entries",
            payload.len()
        ));
    }
    let map = payload[16..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    Ok(ResumeState {
        arrived,
        batch_no,
        map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResumeState {
        ResumeState {
            arrived: 5,
            batch_no: 12,
            map: vec![0, u32::MAX, 2, 1, u32::MAX],
        }
    }

    #[test]
    fn trailer_round_trips() {
        let state = sample();
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &state).unwrap();
        let back = read_trailer(&mut &bytes[..]).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn missing_trailer_is_an_error_naming_it() {
        let err = read_trailer(&mut &[][..]).unwrap_err();
        assert!(err.contains("no resume trailer"), "{err}");
    }

    #[test]
    fn corruption_is_named_and_yields_no_state() {
        let mut bytes = Vec::new();
        write_trailer(&mut bytes, &sample()).unwrap();

        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("not a resume trailer"), "{err}");

        let mut broken = bytes.clone();
        broken[8] = 9;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("version 9"), "{err}");

        let last = bytes.len() - 1;
        let mut broken = bytes.clone();
        broken[last] ^= 0x01;
        let err = read_trailer(&mut &broken[..]).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        let err = read_trailer(&mut &bytes[..last]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let err = read_trailer(&mut &bytes[..12]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn inconsistent_map_length_is_rejected_on_write() {
        let mut state = sample();
        state.map.pop();
        let err = write_trailer(&mut Vec::new(), &state).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
    }
}
