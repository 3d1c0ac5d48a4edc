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
//! A store directory holds two kinds of file:
//!
//! * `journal.wal` — the append-only write-ahead journal. Each drained
//!   request chunk is one *frame*: `[len: u32 LE][crc: u32 LE][payload]`,
//!   where `crc` is the CRC-32 (IEEE) of the payload. The payload is a
//!   varint of `count << 1 | brownout`, then each request of the chunk in
//!   submission order: its tag byte and its fields as varints (a
//!   one-request frame takes about 14 bytes). The `brownout` bit records
//!   whether the chunk was served under a **brownout** verdict (overload
//!   degradation), so crash replay degrades the admission gate
//!   identically. Frames are appended and fsynced (per
//!   [`PersistConfig::fsync_every`]) **before** the engine applies the
//!   chunk — classic WAL ordering, so an acknowledged request is always on
//!   disk. Frames carry no version: the snapshot's magic is the store's
//!   only format check.
//! * `snap-<seq>.img` — snapshot checkpoints, cut at epoch boundaries (the
//!   `EpochPhase::Idle` quiescent point) on a
//!   [`PersistConfig::snapshot_every`] cadence. A file is `[len: u64 LE]
//!   [crc: u32 LE]` over `[seq: u64 LE][journal offset: u64 LE][payload]`:
//!   the CRC covers the *binding* — which snapshot this is and where its
//!   journal suffix starts — as well as the engine image. The payload
//!   (`DSGSNAP3`) is a prefix (magic, config, frequency sketch, clock,
//!   RNG) followed by a node section (count, then every node in key
//!   order), written compactly: varint key deltas, membership bits and
//!   dominating flags packed eight per byte, timestamps as varints or
//!   zigzag deltas, group ids as a one-byte marker where a level repeats
//!   the previous one, sketch counters as varints (see [`encode_snapshot`]).
//!   The service encodes both parts straight from the engine
//!   ([`DurableStore::checkpoint_engine`]) into two buffers the store
//!   reuses, behind a reserved header patched once the CRC is known.
//!   While the engine's generation stamp has not moved since the last
//!   successful checkpoint, the node section is neither re-encoded nor
//!   re-checksummed: only the header and prefix are, and the two CRCs are
//!   joined. The bytes are those of the [`EngineImage`] path
//!   ([`DurableStore::checkpoint`]) either way.
//!
//! # Commit protocol
//!
//! The newest snapshot file whose CRC checks *is* the binding; no separate
//! commit record names it. A checkpoint
//!
//! 1. fsyncs the journal if it holds unsynced frames, so every byte up to
//!    the offset it records is durable;
//! 2. writes `snap-<seq>.img.tmp` and fsyncs it;
//! 3. renames it to `snap-<seq>.img` — the commit point;
//! 4. fsyncs the directory, so the rename survives a crash;
//! 5. deletes every snapshot older than the binding it replaced, plus any
//!    leftover `.tmp` file the last [`DurableStore::open`] found.
//!
//! At most three fsyncs, one file created and one rename. A file reaches
//! its final name only after its bytes are durable, and the journal is
//! durable through the recorded offset before the file is written, so
//! every final-named snapshot whose CRC checks is a valid recovery point.
//! The journal is never rotated, so replaying from an older snapshot
//! stays exact too: losing the newest file to damage costs a longer
//! replay, not correctness.
//!
//! # Recovery contract
//!
//! [`DurableStore::open`] lists the `snap-<seq>.img` files and tries them
//! newest first, taking the first whose CRC checks, whose header seq
//! matches its name and whose payload decodes
//! ([`Recovered::fell_back`] reports that a newer one was damaged). Every
//! snapshot damaged is a typed refusal
//! ([`PersistError::CorruptSnapshot`]), and so is a store written in the
//! older `DSGSNAP2` format, before any of its frames is replayed. No
//! snapshot at all with a non-empty journal is
//! [`PersistError::StrayJournal`]. Then `open` reads and scans the journal
//! from the chosen snapshot's offset. Only that suffix is read: the
//! journal is never rotated, so the prefix grows with the store's whole
//! history. A journal shorter than the offset is
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
//! Truncating a torn tail is the only write `open` makes: it neither
//! writes nor deletes a snapshot file, so reopening a cleanly shut down
//! store leaves it byte-identical. Leftovers — a `.tmp` from an abandoned
//! checkpoint, a snapshot a crash kept from being deleted — go at the next
//! checkpoint.
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
//! * **checkpoint fails or panics** (`io.snapshot` before the payload is
//!   written, `io.publish` after the rename): the worker abandons the
//!   checkpoint (best-effort temp cleanup), counts it, and keeps serving
//!   under the previous binding — a checkpoint is an optimization of
//!   recovery time, never a correctness requirement. A snapshot renamed
//!   into place before the failure is a valid recovery point all the same.

#[cfg(test)]
mod fuzz;
mod image;
mod journal;
mod store;

pub use image::{decode_snapshot, encode_snapshot, EngineImage, NodeImage};
pub(crate) use image::{check_engine_parts, encode_prefix, NodeFields, NODE_BYTES_HINT};
pub use journal::{read_journal, read_journal_from, JournalScan, JOURNAL_FILE};
pub use store::{DurableStore, Recovered};

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
    /// An I/O operation failed; `op` names it (`"append a journal frame"`,
    /// `"rename a snapshot into place"`, …).
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
    /// A snapshot file failed its checksum, its binding header did not
    /// match its name, or its payload did not decode — a `DSGSNAP2`
    /// payload from before the current format among them.
    CorruptSnapshot {
        /// What failed.
        detail: String,
    },
    /// A non-empty journal exists without any snapshot file: the store
    /// directory is not a valid store, and cold-starting over it would
    /// silently discard data.
    StrayJournal {
        /// Length of the orphaned journal in bytes.
        len: u64,
    },
    /// The chosen snapshot binds a journal offset beyond the journal's
    /// end — the journal was truncated below its last checkpoint.
    ShortJournal {
        /// Actual journal length.
        len: u64,
        /// The snapshot-bound replay offset.
        offset: u64,
    },
    /// A journal append was attempted before the store's initial
    /// checkpoint: with no snapshot to replay it from, the frame could
    /// never be recovered.
    AppendBeforeCheckpoint,
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
            PersistError::StrayJournal { len } => write!(
                f,
                "a {len}-byte journal exists without a snapshot; refusing to cold-start over it"
            ),
            PersistError::ShortJournal { len, offset } => write!(
                f,
                "the snapshot binds journal offset {offset} but the journal is only {len} bytes"
            ),
            PersistError::AppendBeforeCheckpoint => {
                write!(f, "journal append before the initial checkpoint")
            }
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
// Wire helpers shared by the frame and snapshot codecs: little-endian
// fixed-width words and LEB128 varints.
// ----------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// bits first, the high bit set on every byte but the last (1 to 10
/// bytes).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encoded size of `v` as a varint.
pub(crate) fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// The zigzag form of the wrapping difference `to - from`: small steps in
/// either direction become small unsigned numbers.
pub(crate) fn zigzag_delta(from: u64, to: u64) -> u64 {
    let d = to.wrapping_sub(from) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag_delta`]: the value `z` steps away from `from`.
pub(crate) fn apply_zigzag(from: u64, z: u64) -> u64 {
    from.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// Appends `bits` packed eight per byte, the first bit in the lowest bit
/// of the first byte; unused high bits of the last byte are zero.
pub(crate) fn put_bits(buf: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let (mut byte, mut filled) = (0u8, 0);
    for bit in bits {
        byte |= u8::from(bit) << filled;
        filled += 1;
        if filled == 8 {
            buf.push(byte);
            (byte, filled) = (0, 0);
        }
    }
    if filled > 0 {
        buf.push(byte);
    }
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

    /// Reads a varint written by [`put_varint`]. More than ten bytes, or
    /// a tenth byte carrying bits past the 64th, is malformed.
    pub(crate) fn varint(&mut self) -> Result<u64, ()> {
        let mut value = 0u64;
        for (i, &byte) in self.buf[self.pos..].iter().take(10).enumerate() {
            if i == 9 && byte > 1 {
                return Err(());
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(())
    }

    /// Reads `len` bits packed by [`put_bits`], refusing set padding bits
    /// so that every encoding is the only one of its value.
    pub(crate) fn bits(&mut self, len: usize) -> Result<impl Iterator<Item = bool> + 'a, ()> {
        let bytes = self.bytes(len.div_ceil(8))?;
        if !len.is_multiple_of(8) && bytes[bytes.len() - 1] >> (len % 8) != 0 {
            return Err(());
        }
        Ok((0..len).map(move |i| bytes[i / 8] >> (i % 8) & 1 == 1))
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

/// A `DSGSNAP2` payload as that format wrote it: the image's prefix in
/// fixed-width fields, then a u64 node count and fixed-width nodes.
#[cfg(test)]
pub(crate) fn dsgsnap2_payload(image: &EngineImage) -> Vec<u8> {
    assert!(image.sketch.is_none(), "an ungated image keeps this short");
    let mut buf = Vec::new();
    image.encode_prefix(&mut buf);
    buf[..8].copy_from_slice(b"DSGSNAP2");
    put_u64(&mut buf, image.nodes.len() as u64);
    for node in &image.nodes {
        put_u64(&mut buf, node.key);
        buf.push(node.dummy as u8);
        put_u32(&mut buf, node.mvec.len() as u32);
        buf.extend(node.mvec.iter().map(|bit| bit.as_u8()));
        put_u64(&mut buf, node.group_base);
        put_u32(&mut buf, node.timestamps.len() as u32);
        node.timestamps.iter().for_each(|&t| put_u64(&mut buf, t));
        put_u32(&mut buf, node.group_ids.len() as u32);
        node.group_ids.iter().for_each(|&g| put_u64(&mut buf, g));
        put_u32(&mut buf, node.dominating.len() as u32);
        buf.extend(node.dominating.iter().map(|&d| d as u8));
    }
    buf
}
