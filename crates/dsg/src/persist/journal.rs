//! The write-ahead journal's frame codec and scanner.
//!
//! One frame per drained request chunk: `[len: u32 LE][crc: u32 LE]
//! [payload]`, where `crc` is the CRC-32 of the payload and the payload is
//! a varint of `count << 1 | brownout`, then the chunk's requests in
//! submission order, each a tag byte and its fields as varints. The
//! scanner distinguishes the two failure shapes precisely (see the
//! [module docs](super)): a file that *ends* mid-frame is a torn tail
//! (truncate, never serve); a complete frame whose CRC or structure is
//! wrong is corruption (typed error, never applied).

use super::{put_varint, PersistError, Reader};
use crate::request::Request;
use dsg_skipgraph::crc32::crc32;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// File name of the write-ahead journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

const TAG_COMMUNICATE: u8 = 0;
const TAG_JOIN: u8 = 1;
const TAG_LEAVE: u8 = 2;
const TAG_TICK: u8 = 3;

/// Encodes one request chunk as a complete frame (header + payload) into
/// `frame`, replacing its contents: the payload is written behind a
/// reserved header, which is filled in once the payload's CRC is known, so
/// a caller that keeps `frame` allocates nothing per append.
///
/// `brownout` records that the chunk is served under a **brownout**
/// verdict (the service's overload controller degraded the admission gate
/// to route-only for cold traffic): replay must serve it the same way for
/// bit-identical recovery. It is the low bit of the payload's first
/// varint, below the request count.
pub(crate) fn encode_frame(chunk: &[Request], brownout: bool, frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; 8]);
    put_varint(frame, (chunk.len() as u64) << 1 | u64::from(brownout));
    for request in chunk {
        match *request {
            Request::Communicate { u, v } => {
                frame.push(TAG_COMMUNICATE);
                put_varint(frame, u);
                put_varint(frame, v);
            }
            Request::Join(peer) => {
                frame.push(TAG_JOIN);
                put_varint(frame, peer);
            }
            Request::Leave(peer) => {
                frame.push(TAG_LEAVE);
                put_varint(frame, peer);
            }
            Request::Tick(to) => {
                frame.push(TAG_TICK);
                put_varint(frame, to);
            }
        }
    }
    let len = (frame.len() - 8) as u32;
    let crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes a frame payload written by [`encode_frame`] into its requests
/// and brownout flag; `offset` (the frame's) goes into the errors.
pub(crate) fn decode_payload(
    payload: &[u8],
    offset: u64,
) -> Result<(Vec<Request>, bool), PersistError> {
    let corrupt = |detail: &str| PersistError::CorruptFrame {
        offset,
        detail: detail.to_string(),
    };
    let mut r = Reader::new(payload);
    let word = r
        .varint()
        .map_err(|_| corrupt("missing or malformed request count"))?;
    let brownout = word & 1 == 1;
    let count = word >> 1;
    // Every encoded request takes at least 2 bytes (tag + one varint).
    if count > (r.remaining() / 2) as u64 {
        return Err(corrupt(&format!("implausible request count {count}")));
    }
    let mut requests = Vec::with_capacity(count as usize);
    let short = |_| corrupt("payload ran out of bytes or holds a malformed varint");
    for _ in 0..count {
        let request = match r.u8().map_err(short)? {
            TAG_COMMUNICATE => {
                let u = r.varint().map_err(short)?;
                let v = r.varint().map_err(short)?;
                Request::Communicate { u, v }
            }
            TAG_JOIN => Request::Join(r.varint().map_err(short)?),
            TAG_LEAVE => Request::Leave(r.varint().map_err(short)?),
            TAG_TICK => Request::Tick(r.varint().map_err(short)?),
            other => return Err(corrupt(&format!("unknown request tag {other}"))),
        };
        requests.push(request);
    }
    if !r.is_at_end() {
        return Err(corrupt("trailing bytes after the last request"));
    }
    Ok((requests, brownout))
}

/// The result of scanning a journal (suffix): the decoded frames, where
/// the last complete frame ends, and how many torn bytes trail it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// The decoded request chunks, one per complete frame, in append
    /// order.
    pub frames: Vec<Vec<Request>>,
    /// Whether each frame (parallel to [`frames`](JournalScan::frames))
    /// was journaled under a brownout verdict — replay must degrade the
    /// admission gate identically to recover bit-identical state.
    pub brownout: Vec<bool>,
    /// Absolute byte offset just past each complete frame — the valid
    /// truncation boundaries of the journal.
    pub frame_ends: Vec<u64>,
    /// Absolute byte offset of the end of the last complete frame (equal
    /// to the scan's start offset if no frame is complete).
    pub committed_len: u64,
    /// Bytes of a partial final frame beyond `committed_len` — a torn
    /// tail, to be truncated and never served.
    pub torn_bytes: u64,
}

impl JournalScan {
    /// All requests of all complete frames, flattened in append order.
    pub fn requests(&self) -> Vec<Request> {
        self.frames.iter().flatten().copied().collect()
    }
}

/// Scans `bytes` (the journal contents from absolute offset `base`
/// onward) into frames.
///
/// # Errors
///
/// Returns [`PersistError::CorruptFrame`] if a *complete* frame fails its
/// CRC or does not decode. A partial final frame is not an error — it is
/// reported through [`JournalScan::torn_bytes`].
pub(crate) fn scan(bytes: &[u8], base: u64) -> Result<JournalScan, PersistError> {
    let mut frames = Vec::new();
    let mut brownout = Vec::new();
    let mut frame_ends = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < 8 {
            // The header itself is cut short: torn tail.
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if remaining - 8 < len {
            // The payload is cut short: torn tail.
            break;
        }
        let offset = base + pos as u64;
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return Err(PersistError::CorruptFrame {
                offset,
                detail: "checksum mismatch".to_string(),
            });
        }
        let (requests, flag) = decode_payload(payload, offset)?;
        frames.push(requests);
        brownout.push(flag);
        pos += 8 + len;
        frame_ends.push(base + pos as u64);
    }
    Ok(JournalScan {
        frames,
        brownout,
        frame_ends,
        committed_len: base + pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// Reads the journal `file` from absolute byte `offset` to its end, leaving
/// the cursor there. Only the suffix is read: the journal is never
/// rotated, so the prefix before a checkpoint's binding grows with the
/// store's whole history.
///
/// # Errors
///
/// [`PersistError::ShortJournal`] if the file is shorter than `offset`,
/// [`PersistError::Io`] for stat, seek and read failures.
pub(crate) fn read_suffix(file: &mut File, offset: u64) -> Result<Vec<u8>, PersistError> {
    let len = file
        .metadata()
        .map_err(|e| PersistError::io("stat the journal", e))?
        .len();
    if len < offset {
        return Err(PersistError::ShortJournal { len, offset });
    }
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| PersistError::io("seek to the replay offset", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| PersistError::io("read the journal", e))?;
    Ok(bytes)
}

/// Reads and scans a store's journal from absolute byte `offset` onward,
/// without modifying the file (the torn tail, if any, is only reported).
/// The bytes before `offset` are not read. A missing journal scans as
/// empty when `offset == 0`.
///
/// # Errors
///
/// Returns [`PersistError::ShortJournal`] if the journal is shorter than
/// `offset`, [`PersistError::CorruptFrame`] for a corrupt complete frame,
/// and [`PersistError::Io`] for read failures.
pub fn read_journal_from(dir: &Path, offset: u64) -> Result<JournalScan, PersistError> {
    let bytes = match fs::File::open(dir.join(JOURNAL_FILE)) {
        Ok(mut file) => read_suffix(&mut file, offset)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && offset == 0 => Vec::new(),
        Err(e) => return Err(PersistError::io("open the journal", e)),
    };
    scan(&bytes, offset)
}

/// Reads and scans a store's whole journal (from byte 0 — the genesis of
/// the store, since the journal file is never rotated).
///
/// # Errors
///
/// See [`read_journal_from`].
pub fn read_journal(dir: &Path) -> Result<JournalScan, PersistError> {
    read_journal_from(dir, 0)
}

#[cfg(test)]
mod tests {
    use super::super::assert_cuts_and_flips_are_typed;
    use super::*;

    /// One frame, encoded into a buffer whose stale bytes must not leak
    /// into it.
    fn frame_of(chunk: &[Request], brownout: bool) -> Vec<u8> {
        let mut frame = vec![0xAB; 3];
        encode_frame(chunk, brownout, &mut frame);
        frame
    }

    fn chunks() -> Vec<Vec<Request>> {
        vec![
            vec![
                Request::Communicate { u: 1, v: 5 },
                Request::Tick(9),
                Request::Join(40),
            ],
            vec![Request::Leave(40)],
            vec![],
            vec![Request::Communicate { u: 2, v: 3 }],
        ]
    }

    fn journal_bytes() -> (Vec<u8>, Vec<u64>) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for chunk in chunks() {
            bytes.extend_from_slice(&frame_of(&chunk, false));
            ends.push(bytes.len() as u64);
        }
        (bytes, ends)
    }

    #[test]
    fn frames_round_trip() {
        let (bytes, ends) = journal_bytes();
        let scan = scan(&bytes, 0).unwrap();
        assert_eq!(scan.frames, chunks());
        assert_eq!(scan.brownout, vec![false; chunks().len()]);
        assert_eq!(scan.frame_ends, ends);
        assert_eq!(scan.committed_len, bytes.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn brownout_flag_round_trips_without_disturbing_requests() {
        let all = chunks();
        let flags = [false, true, true, false];
        let mut bytes = Vec::new();
        for (chunk, &flag) in all.iter().zip(&flags) {
            bytes.extend_from_slice(&frame_of(chunk, flag));
        }
        let scanned = scan(&bytes, 0).unwrap();
        assert_eq!(scanned.frames, all);
        assert_eq!(scanned.brownout, flags.to_vec());
        // The flag lives in the count word only: a flagged frame's
        // requests decode identically to the unflagged encoding's.
        let plain = frame_of(&all[0], false);
        let flagged = frame_of(&all[0], true);
        assert_ne!(plain, flagged);
        assert_eq!(plain.len(), flagged.len());
    }

    #[test]
    fn every_byte_boundary_truncation_is_torn_or_clean() {
        let (bytes, ends) = journal_bytes();
        for cut in 0..=bytes.len() {
            let scanned = scan(&bytes[..cut], 0).unwrap();
            let complete = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(scanned.frames.len(), complete, "cut at {cut}");
            assert_eq!(
                scanned.committed_len,
                ends[..complete].last().copied().unwrap_or(0),
                "cut at {cut}"
            );
            assert_eq!(
                scanned.torn_bytes,
                cut as u64 - scanned.committed_len,
                "cut at {cut}"
            );
            assert_eq!(scanned.frames, chunks()[..complete].to_vec());
        }
    }

    #[test]
    fn bit_flips_in_complete_frames_are_typed_corruption() {
        let (bytes, _) = journal_bytes();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            // A flip anywhere in a complete frame must surface as
            // CorruptFrame — except in a length header, where the frame
            // may now claim to extend past EOF and becomes a torn tail
            // (still never applied), or may land on another parseable
            // cut of the stream whose checksum then fails.
            match scan(&bad, 0) {
                Err(PersistError::CorruptFrame { .. }) => {}
                Ok(scanned) => {
                    assert!(
                        scanned.torn_bytes > 0,
                        "flip at byte {byte} was silently accepted"
                    );
                }
                Err(other) => panic!("flip at byte {byte}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn payload_truncations_and_bit_flips_decode_or_are_refused_typed() {
        for brownout in [false, true] {
            let frame = frame_of(&chunks()[0], brownout);
            let payload = &frame[8..];
            assert_cuts_and_flips_are_typed(
                payload,
                0..payload.len(),
                |bytes| decode_payload(bytes, 0),
                |e| matches!(e, PersistError::CorruptFrame { .. }),
            );
        }
    }

    fn temp_dir() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dsg-journal-test-{}-{n}", std::process::id()))
    }

    #[test]
    fn reads_from_an_offset_match_scans_of_the_suffix() {
        let (bytes, ends) = journal_bytes();
        let dir = temp_dir();
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        for offset in std::iter::once(0).chain(ends.iter().copied()) {
            assert_eq!(
                read_journal_from(&dir, offset).unwrap(),
                scan(&bytes[offset as usize..], offset).unwrap(),
                "offset {offset}"
            );
        }
        let len = bytes.len() as u64;
        assert_eq!(
            read_journal_from(&dir, len + 1),
            Err(PersistError::ShortJournal {
                len,
                offset: len + 1
            })
        );
        fs::remove_dir_all(&dir).unwrap();
        // A missing journal is an empty one from genesis only.
        assert_eq!(
            read_journal(&dir).unwrap().frames,
            Vec::<Vec<Request>>::new()
        );
        assert!(matches!(
            read_journal_from(&dir, 1),
            Err(PersistError::Io { .. })
        ));
    }

    #[test]
    fn offsets_in_errors_are_absolute() {
        let (bytes, ends) = journal_bytes();
        let mut bad = bytes.clone();
        // Flip inside the second frame's payload.
        bad[ends[0] as usize + 9] ^= 1;
        let err = scan(&bad[ends[0] as usize..], ends[0]).unwrap_err();
        match err {
            PersistError::CorruptFrame { offset, .. } => assert_eq!(offset, ends[0]),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
