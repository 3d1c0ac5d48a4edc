//! Durability for [`DsgService`](crate::DsgService): a write-ahead request
//! journal plus periodic snapshot checkpoints, so a process crash loses
//! nothing the service acknowledged.
//!
//! # Why the engine needs this
//!
//! The paper's amortized argument *pays* for structure: every served
//! request may restructure the skip graph so that the access pattern's
//! working set sits close together. A process crash throws that investment
//! away — and with it the timestamps, group structure, and dummy
//! population that make the amortized accounting correct going forward.
//! PR 5 proved that replaying a request journal through a fresh,
//! identically-built session reproduces the structure bit for bit; this
//! module makes that journal (and a periodic snapshot of the engine)
//! durable, which turns the replay-determinism proof into crash recovery.
//!
//! # On-disk layout
//!
//! A store directory holds three kinds of file:
//!
//! * `journal.wal` — the append-only write-ahead journal. Each drained
//!   request chunk is one *frame*: `[len: u32 LE][crc: u32 LE][payload]`,
//!   where `crc` is the CRC-32 (IEEE) of the payload and the payload is
//!   the chunk's requests in submission order, prefixed by a count word.
//!   The count word's high bit records whether the chunk was served under
//!   a **brownout** verdict (overload degradation, PR 9), so crash replay
//!   degrades the admission gate identically; counts are far below 2³¹,
//!   and pre-brownout journals decode with the flag unset. Frames are
//!   appended and fsynced (per [`PersistConfig::fsync_every`]) **before**
//!   the engine applies the chunk — classic WAL ordering, so an
//!   acknowledged request is always on disk.
//! * `snap-<seq>.img` — snapshot checkpoints: a full serialized engine
//!   image ([`EngineImage`]) behind a CRC-checked wrapper. Snapshots are
//!   cut at epoch boundaries (the `EpochPhase::Idle` quiescent point), on
//!   a [`PersistConfig::snapshot_every`] cadence. The two most recent
//!   snapshots are retained: a checkpoint deletes the one that leaves the
//!   binding by its sequence number, without listing the directory. A
//!   payload is a prefix (magic, config, sketch, clock, RNG) followed by
//!   a node section (count, then every node in key order). The service
//!   encodes both straight from the engine
//!   ([`DurableStore::checkpoint_engine`]) into two buffers the store
//!   reuses, behind a reserved `[len][crc]` header that is patched once
//!   the payload's CRC is known. While the engine's generation stamp has
//!   not moved since the last successful checkpoint, the node section is
//!   neither re-encoded nor re-checksummed: only the prefix is, and the
//!   two CRCs are joined. The bytes are those of the [`EngineImage`] path
//!   ([`DurableStore::checkpoint`]) either way.
//! * `MANIFEST` — the commit record: a small CRC-checked file binding
//!   `(snapshot seq, journal offset)` for the current snapshot and its
//!   predecessor. It is replaced atomically (write temp + fsync + rename +
//!   directory fsync), so the binding either advances completely or not at
//!   all.
//!
//! # Recovery contract
//!
//! [`DurableStore::open`] on an existing store loads the manifest, then
//! the newest snapshot that passes its checksum (falling back to the
//! retained predecessor if the newest is damaged), then reads and scans
//! the journal from the snapshot's bound offset. Only that suffix is read:
//! the journal is never rotated, so the prefix grows with the store's
//! whole history. A journal shorter than the offset is
//! [`PersistError::ShortJournal`]. Within the suffix:
//!
//! * a **partial final frame** — the file ends before the frame's declared
//!   length — is a *torn tail* (the crash interrupted an append). It is
//!   detected, physically truncated, and never served. Nothing after a
//!   torn frame can exist, because appends are sequential.
//! * a **complete frame whose CRC mismatches** is *corruption* (a bit
//!   flip, not a tear) and is a typed, fatal
//!   [`PersistError::CorruptFrame`] — it is never applied, and recovery
//!   refuses to proceed past it silently.
//!
//! The surviving frames are replayed through `submit_batch` by
//! [`DsgService::open`](crate::DsgService::open), which then runs a deep
//! `validate()` before serving — unless the replay changed no node, link,
//! vector or state entry, in which case the deep validation that closed
//! the snapshot's restore stands for it. `tests/crash_recovery.rs` proves the
//! resulting engine bit-identical to an uninterrupted twin for every
//! byte-boundary truncation of the journal tail and every `io.*`/apply
//! fail-point site.
//!
//! # Threading and failure model (mirrors `service.rs`)
//!
//! A [`DurableStore`] is owned by exactly one thread — the service's
//! ingest worker — and is never shared; all concurrency control lives in
//! the service's queue. Failure containment on the write path:
//!
//! * **append fails or panics** (`io.append`): the worker rolls the
//!   journal back to the last committed frame (`set_len`), fails the
//!   chunk's tickets with a typed error, and keeps serving — the engine
//!   was never called, so no state diverged. If the rollback itself fails
//!   the journal can no longer be trusted to match the engine, and the
//!   service poisons.
//! * **checkpoint fails or panics** (`io.snapshot`, `io.manifest`): the
//!   worker abandons the checkpoint (best-effort temp cleanup), counts it,
//!   and keeps serving under the previous manifest binding — a checkpoint
//!   is an optimization of recovery time, never a correctness requirement.

mod image;
mod journal;
mod store;

pub use image::{decode_snapshot, encode_snapshot, EngineImage, NodeImage};
pub(crate) use image::{encode_prefix, NodeFields};
pub use journal::{read_journal, read_journal_from, JournalScan, JOURNAL_FILE};
pub use store::{DurableStore, Recovered, MANIFEST_FILE};

use std::fmt;
use std::io;

/// Tuning for the durability layer, carried in
/// [`ServiceConfig::persist`](crate::ServiceConfig::persist).
///
/// The store *directory* is not part of this config — it is the first
/// argument of [`DsgService::open`](crate::DsgService::open), keeping the
/// config `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// Fsync the journal after every this-many appended frames. `1`
    /// (the default) fsyncs every frame before the engine applies it — the
    /// strict WAL guarantee the crash harness assumes. Larger values trade
    /// the durability of the last few acknowledged chunks for throughput;
    /// `0` never fsyncs explicitly (OS writeback only).
    pub fsync_every: u64,
    /// Cut a snapshot checkpoint every this-many served epochs (at the
    /// quiescent point after a drained batch). `0` disables periodic
    /// snapshots — recovery then replays the whole journal from the
    /// initial checkpoint.
    pub snapshot_every: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync_every: 1,
            snapshot_every: 32,
        }
    }
}

impl PersistConfig {
    /// Returns the config with the journal fsync cadence replaced.
    pub fn with_fsync_every(mut self, frames: u64) -> Self {
        self.fsync_every = frames;
        self
    }

    /// Returns the config with the snapshot cadence replaced.
    pub fn with_snapshot_every(mut self, epochs: u64) -> Self {
        self.snapshot_every = epochs;
        self
    }
}

/// Typed errors of the durability layer.
///
/// `Clone + PartialEq + Eq` like [`DsgError`](crate::DsgError) (tickets
/// clone their error to every waiter), so I/O failures are carried as
/// `(operation, ErrorKind, message)` rather than as a live
/// [`std::io::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// An I/O operation failed; `op` names it (`"append journal frame"`,
    /// `"rename manifest"`, …).
    Io {
        /// The failed operation.
        op: &'static str,
        /// The [`std::io::ErrorKind`] of the underlying error.
        kind: io::ErrorKind,
        /// The underlying error's message.
        message: String,
    },
    /// A *complete* journal frame failed its CRC or did not decode — on-disk
    /// corruption (not a torn write, which is truncated instead). The frame
    /// is never applied.
    CorruptFrame {
        /// Byte offset of the frame header in `journal.wal`.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// A snapshot file failed its checksum or did not decode.
    CorruptSnapshot {
        /// What failed.
        detail: String,
    },
    /// The manifest failed its checksum or did not decode.
    CorruptManifest {
        /// What failed.
        detail: String,
    },
    /// A non-empty journal exists without a manifest: the store directory
    /// is not a valid store, and cold-starting over it would silently
    /// discard data.
    StrayJournal {
        /// Length of the orphaned journal in bytes.
        len: u64,
    },
    /// The manifest binds a journal offset beyond the journal's end — the
    /// journal was truncated below its last checkpoint.
    ShortJournal {
        /// Actual journal length.
        len: u64,
        /// The manifest-bound replay offset.
        offset: u64,
    },
    /// A journal append panicked mid-write (a fail point in tests); the
    /// journal was rolled back to the last committed frame.
    AppendPanicked {
        /// The panic payload, if it was a string.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, kind, message } => {
                write!(f, "i/o error while trying to {op}: {message} ({kind:?})")
            }
            PersistError::CorruptFrame { offset, detail } => {
                write!(f, "corrupt journal frame at byte {offset}: {detail}")
            }
            PersistError::CorruptSnapshot { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
            PersistError::CorruptManifest { detail } => {
                write!(f, "corrupt manifest: {detail}")
            }
            PersistError::StrayJournal { len } => write!(
                f,
                "a {len}-byte journal exists without a manifest; refusing to cold-start over it"
            ),
            PersistError::ShortJournal { len, offset } => write!(
                f,
                "the manifest binds journal offset {offset} but the journal is only {len} bytes"
            ),
            PersistError::AppendPanicked { detail } => {
                write!(f, "journal append panicked mid-frame: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Wraps an [`io::Error`] with the name of the failed operation.
    pub(crate) fn io(op: &'static str, err: io::Error) -> Self {
        PersistError::Io {
            op,
            kind: err.kind(),
            message: err.to_string(),
        }
    }
}

// ----------------------------------------------------------------------
// Little-endian wire helpers shared by the frame and snapshot codecs.
// ----------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor; every read reports the same
/// opaque "ran out of bytes / malformed" unit error, which the caller maps
/// to the typed [`PersistError`] of its file format.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ()> {
        let b = *self.buf.get(self.pos).ok_or(())?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ()> {
        let bytes = self.bytes(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ()> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Result<&'a [u8], ()> {
        let end = self.pos.checked_add(len).ok_or(())?;
        let slice = self.buf.get(self.pos..end).ok_or(())?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Feeds a decoder every truncation of the valid encoding `bytes` at the
/// byte positions `at`, and every single-bit flip of those bytes, straight
/// (no CRC envelope, which would catch every single-bit flip). A
/// truncation must be refused with an error `typed` accepts; a flip must
/// decode cleanly or be refused the same way; nothing may panic.
#[cfg(test)]
pub(crate) fn assert_cuts_and_flips_are_typed<T>(
    bytes: &[u8],
    at: impl IntoIterator<Item = usize>,
    decode: impl Fn(&[u8]) -> Result<T, PersistError>,
    typed: impl Fn(&PersistError) -> bool,
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for at in at {
        match catch_unwind(AssertUnwindSafe(|| decode(&bytes[..at]))) {
            Ok(Err(e)) if typed(&e) => {}
            Ok(Err(e)) => panic!("cut at {at}: untyped error {e:?}"),
            Ok(Ok(_)) => panic!("cut at {at} decoded"),
            Err(_) => panic!("cut at {at}: the decoder panicked"),
        }
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            match catch_unwind(AssertUnwindSafe(|| decode(&flipped))) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) if typed(&e) => {}
                Ok(Err(e)) => panic!("flip of byte {at} bit {bit}: untyped error {e:?}"),
                Err(_) => panic!("flip of byte {at} bit {bit}: the decoder panicked"),
            }
        }
    }
}
