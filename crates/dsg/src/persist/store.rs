//! The on-disk store: journal writer, snapshot checkpoints, and the
//! atomic manifest binding them.
//!
//! A [`DurableStore`] is single-owner (the service's ingest worker); see
//! the [module docs](super) for the layout, the recovery contract, and the
//! failure model.
//!
//! The ingest thread pays for every checkpoint and every append, so
//! neither does work beyond the bytes it must write:
//!
//! * a journal frame is encoded into a buffer the store keeps and written
//!   with one `write_all` (two, around the `io.append` fail point, while
//!   that site is armed);
//! * a snapshot is encoded into two buffers the store keeps — the envelope
//!   header plus the payload prefix, and the node section — and the header
//!   is patched once both CRCs are known. [`DurableStore::checkpoint_engine`]
//!   encodes straight from the engine and remembers the
//!   [`Generation`] its node section was encoded from: while the engine's
//!   stamp stays the same, the next checkpoint re-encodes only the prefix
//!   and joins its CRC to the cached one with [`crc32_combine`];
//! * the snapshot that leaves the binding is deleted by its sequence
//!   number, and [`DurableStore::open`] reads only the journal suffix
//!   behind the bound offset.
//!
//! The bytes on disk are the same whichever path encoded them.
//!
//! [`crc32_combine`]: dsg_skipgraph::crc32::crc32_combine

use super::image::{
    begin_envelope, decode_snapshot, seal_split_envelope, unwrap_file, wrap_file, EngineImage,
};
use super::journal::{encode_frame, read_suffix, scan, JournalScan, JOURNAL_FILE};
use super::{put_u64, PersistConfig, PersistError, Reader};
use crate::dsg::{DynamicSkipGraph, Generation};
use crate::request::Request;
use dsg_skipgraph::crc32::crc32;
use dsg_skipgraph::failpoint;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Leading magic of a manifest payload (version 1).
const MANIFEST_MAGIC: &[u8; 8] = b"DSGMANI1";

fn snapshot_file(seq: u64) -> String {
    format!("snap-{seq}.img")
}

/// The manifest's content: the current `(snapshot seq, journal offset)`
/// binding and, for fallback, the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Manifest {
    current: (u64, u64),
    /// `None` until the second checkpoint exists.
    previous: Option<(u64, u64)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(40);
        payload.extend_from_slice(MANIFEST_MAGIC);
        put_u64(&mut payload, self.current.0);
        put_u64(&mut payload, self.current.1);
        let (prev_seq, prev_offset) = self.previous.unwrap_or((0, 0));
        put_u64(&mut payload, prev_seq);
        put_u64(&mut payload, prev_offset);
        payload
    }

    fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let corrupt = |detail: &str| PersistError::CorruptManifest {
            detail: detail.to_string(),
        };
        let mut r = Reader::new(payload);
        if r.bytes(MANIFEST_MAGIC.len())
            .map_err(|_| corrupt("truncated magic"))?
            != MANIFEST_MAGIC
        {
            return Err(corrupt("bad magic"));
        }
        let short = |_| corrupt("payload ran out of bytes");
        let current = (r.u64().map_err(short)?, r.u64().map_err(short)?);
        let prev_seq = r.u64().map_err(short)?;
        let prev_offset = r.u64().map_err(short)?;
        if !r.is_at_end() {
            return Err(corrupt("trailing bytes"));
        }
        if current.0 == 0 {
            return Err(corrupt("current snapshot seq is 0"));
        }
        let previous = (prev_seq != 0).then_some((prev_seq, prev_offset));
        Ok(Manifest { current, previous })
    }
}

/// What [`DurableStore::open`] recovered from an existing store: the
/// snapshot image to restore and the journal suffix to replay.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The decoded engine image of the newest valid snapshot.
    pub image: EngineImage,
    /// Sequence number of that snapshot.
    pub snapshot_seq: u64,
    /// Size of the snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// The journal offset replay starts from (the snapshot's binding).
    pub replay_offset: u64,
    /// The journal suffix to replay, one chunk per complete frame.
    pub frames: Vec<Vec<Request>>,
    /// Whether each replay frame (parallel to
    /// [`frames`](Recovered::frames)) was journaled under a brownout
    /// verdict; replay must serve it degraded the same way.
    pub brownout: Vec<bool>,
    /// Torn bytes truncated off the journal tail (0 on a clean shutdown).
    pub torn_bytes_truncated: u64,
    /// `true` if the manifest-bound snapshot was damaged and recovery fell
    /// back to the retained previous one.
    pub fell_back: bool,
}

/// A buffer the store encodes into, kept across writes so each one reuses
/// the previous one's allocation. `Debug` shows its size rather than its
/// bytes.
#[derive(Default)]
struct Reused(Vec<u8>);

impl fmt::Debug for Reused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reused({} bytes)", self.0.len())
    }
}

/// What the node-section buffer holds after a successful engine
/// checkpoint: the engine stamp it was encoded from, and its CRC-32.
#[derive(Debug, Clone, Copy)]
struct NodeSection {
    stamp: Generation,
    crc: u32,
}

/// An open store: the append handle on the journal plus the checkpoint
/// state. Owned by one thread; all methods take `&mut self`.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    journal: File,
    /// Journal length through the last *committed* (fully written) frame —
    /// the rollback target after a failed append.
    journal_len: u64,
    /// Frames appended since the last fsync.
    unsynced: u64,
    config: PersistConfig,
    /// Seq of the current manifest-bound snapshot (0 = none yet; the
    /// store refuses appends until the initial checkpoint exists).
    seq: u64,
    /// The current manifest binding's journal offset.
    bound_offset: u64,
    /// The previous binding retained for fallback.
    previous: Option<(u64, u64)>,
    /// The last journal frame appended.
    frame: Reused,
    /// The last snapshot file written, in two parts: the `[len u64]
    /// [crc u32]` envelope header followed by the payload prefix, and the
    /// node section.
    snapshot_head: Reused,
    snapshot_nodes: Reused,
    /// Set only by a successful [`checkpoint_engine`]: what
    /// `snapshot_nodes` was encoded from. Any other checkpoint, successful
    /// or not, leaves it `None`.
    ///
    /// [`checkpoint_engine`]: DurableStore::checkpoint_engine
    nodes_from: Option<NodeSection>,
    /// Successful checkpoints that reused the node section.
    reused_node_sections: u64,
}

impl DurableStore {
    /// Opens (or creates) the store at `dir`.
    ///
    /// Returns the open store and, when `dir` held a valid store, the
    /// [`Recovered`] state to rebuild the engine from — the caller
    /// restores the snapshot image, replays the frames, and only then
    /// appends new ones. `None` means a cold start: the directory was
    /// missing or empty, and the caller must cut the initial checkpoint
    /// ([`DurableStore::checkpoint`]) before the first append.
    ///
    /// A torn journal tail (partial final frame) is physically truncated
    /// here, so the next append starts on a clean frame boundary.
    ///
    /// # Errors
    ///
    /// Typed [`PersistError`]s: I/O failures, a corrupt
    /// manifest/snapshot/frame, a non-empty journal without a manifest
    /// ([`PersistError::StrayJournal`]), or a journal shorter than its
    /// manifest binding ([`PersistError::ShortJournal`]).
    pub fn open(
        dir: impl AsRef<Path>,
        config: PersistConfig,
    ) -> Result<(Self, Option<Recovered>), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| PersistError::io("create the store directory", e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let journal_path = dir.join(JOURNAL_FILE);

        if !manifest_path.exists() {
            // Cold start. A non-empty journal without a manifest is not a
            // store we can safely build over — refuse rather than discard.
            if let Ok(meta) = fs::metadata(&journal_path) {
                if meta.len() > 0 {
                    return Err(PersistError::StrayJournal { len: meta.len() });
                }
            }
            let journal = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&journal_path)
                .map_err(|e| PersistError::io("create the journal", e))?;
            let store = DurableStore {
                dir,
                journal,
                journal_len: 0,
                unsynced: 0,
                config,
                seq: 0,
                bound_offset: 0,
                previous: None,
                frame: Reused::default(),
                snapshot_head: Reused::default(),
                snapshot_nodes: Reused::default(),
                nodes_from: None,
                reused_node_sections: 0,
            };
            return Ok((store, None));
        }

        let manifest_bytes =
            fs::read(&manifest_path).map_err(|e| PersistError::io("read the manifest", e))?;
        let payload = unwrap_file(&manifest_bytes, |detail| PersistError::CorruptManifest {
            detail: detail.to_string(),
        })?;
        let manifest = Manifest::decode(payload)?;

        // Newest valid snapshot: the manifest-bound one, else the retained
        // previous one.
        let load =
            |(seq, offset): (u64, u64)| -> Result<(EngineImage, u64, u64, u64), PersistError> {
                let path = dir.join(snapshot_file(seq));
                let bytes = fs::read(&path).map_err(|e| PersistError::io("read a snapshot", e))?;
                let payload = unwrap_file(&bytes, |detail| PersistError::CorruptSnapshot {
                    detail: format!("snap-{seq}.img: {detail}"),
                })?;
                let image = decode_snapshot(payload)?;
                Ok((image, seq, bytes.len() as u64, offset))
            };
        let (image, chosen_seq, snapshot_bytes, replay_offset, fell_back) =
            match load(manifest.current) {
                Ok((image, seq, bytes, offset)) => (image, seq, bytes, offset, false),
                Err(current_err) => match manifest.previous {
                    Some(previous) => {
                        let (image, seq, bytes, offset) = load(previous)?;
                        (image, seq, bytes, offset, true)
                    }
                    None => return Err(current_err),
                },
            };

        let mut journal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&journal_path)
            .map_err(|e| PersistError::io("open the journal", e))?;
        let suffix = read_suffix(&mut journal, replay_offset)?;
        let scanned: JournalScan = scan(&suffix, replay_offset)?;
        if scanned.torn_bytes > 0 {
            journal
                .set_len(scanned.committed_len)
                .map_err(|e| PersistError::io("truncate the torn journal tail", e))?;
            journal
                .sync_data()
                .map_err(|e| PersistError::io("sync the truncated journal", e))?;
        }
        journal
            .seek(SeekFrom::Start(scanned.committed_len))
            .map_err(|e| PersistError::io("seek to the journal end", e))?;

        let store = DurableStore {
            dir,
            journal,
            journal_len: scanned.committed_len,
            unsynced: 0,
            config,
            seq: manifest.current.0,
            bound_offset: replay_offset,
            previous: manifest.previous,
            frame: Reused::default(),
            snapshot_head: Reused::default(),
            snapshot_nodes: Reused::default(),
            nodes_from: None,
            reused_node_sections: 0,
        };
        let recovered = Recovered {
            image,
            snapshot_seq: chosen_seq,
            snapshot_bytes,
            replay_offset,
            frames: scanned.frames,
            brownout: scanned.brownout,
            torn_bytes_truncated: scanned.torn_bytes,
            fell_back,
        };
        Ok((store, Some(recovered)))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journal length in bytes through the last committed frame.
    pub fn journal_len(&self) -> u64 {
        self.journal_len
    }

    /// Seq of the current manifest-bound snapshot (0 before the initial
    /// checkpoint).
    pub fn snapshot_seq(&self) -> u64 {
        self.seq
    }

    /// The journal offset the current manifest binding replays from.
    pub fn bound_offset(&self) -> u64 {
        self.bound_offset
    }

    /// Checkpoints this store cut through
    /// [`checkpoint_engine`](DurableStore::checkpoint_engine) that reused
    /// the previous checkpoint's node section.
    pub fn reused_node_sections(&self) -> u64 {
        self.reused_node_sections
    }

    /// Appends one request chunk as a journal frame and fsyncs per the
    /// configured [`PersistConfig::fsync_every`] cadence. Called **before**
    /// the engine applies the chunk. `brownout` records whether the chunk
    /// will be served under a brownout verdict, so crash replay degrades
    /// it identically.
    ///
    /// On error the file may hold a partial frame; the caller must
    /// [`rollback`](DurableStore::rollback) (and treat a rollback failure
    /// as fatal). The frame is encoded into a buffer the store keeps and
    /// written with one `write_all`, except while the `io.append` fail
    /// point is armed: then the header and the payload are written apart
    /// with the fail point between them, so it tears a frame exactly like
    /// a crash mid-append.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write/fsync failure. Appending before the
    /// initial checkpoint exists is a bug and reports itself as a typed
    /// corruption error rather than a panic.
    pub fn append_chunk(&mut self, chunk: &[Request], brownout: bool) -> Result<(), PersistError> {
        if self.seq == 0 {
            return Err(PersistError::CorruptManifest {
                detail: "append before the initial checkpoint".to_string(),
            });
        }
        let frame = &mut self.frame.0;
        encode_frame(chunk, brownout, frame);
        let split = if failpoint::armed(failpoint::IO_APPEND) {
            8
        } else {
            frame.len()
        };
        self.journal
            .write_all(&frame[..split])
            .map_err(|e| PersistError::io("append a journal frame", e))?;
        failpoint::hit(failpoint::IO_APPEND);
        self.journal
            .write_all(&frame[split..])
            .map_err(|e| PersistError::io("append a journal frame payload", e))?;
        self.journal_len += frame.len() as u64;
        self.unsynced += 1;
        if self.config.fsync_every > 0 && self.unsynced >= self.config.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Discards any partially written frame: truncates the journal back to
    /// the last committed frame and repositions the write cursor. A no-op
    /// on a clean journal.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`]; the caller must treat this as fatal (the
    /// journal can no longer be trusted to match the engine).
    pub fn rollback(&mut self) -> Result<(), PersistError> {
        self.journal
            .set_len(self.journal_len)
            .map_err(|e| PersistError::io("roll back a torn append", e))?;
        self.journal
            .seek(SeekFrom::Start(self.journal_len))
            .map_err(|e| PersistError::io("reposition after rollback", e))?;
        Ok(())
    }

    /// Fsyncs the journal if any appended frame is not yet durable.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`].
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if self.unsynced > 0 {
            self.journal
                .sync_data()
                .map_err(|e| PersistError::io("fsync the journal", e))?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Cuts a snapshot checkpoint: writes the image to `snap-<seq+1>.img`
    /// (temp + fsync + rename), then atomically rebinds the manifest to
    /// `(seq+1, current journal length)`, keeping the previous binding for
    /// fallback and deleting the snapshot that left the binding. The
    /// journal is fsynced first so the binding never points past durable
    /// data.
    ///
    /// The image is encoded straight into buffers the store keeps across
    /// checkpoints, behind a reserved envelope header that is filled in
    /// once the payload's CRC is known, so a checkpoint neither copies the
    /// payload nor allocates a fresh file-sized buffer. This is the
    /// reference path; the service checkpoints through
    /// [`checkpoint_engine`](DurableStore::checkpoint_engine), which writes
    /// the same bytes. A checkpoint taken here always encodes every node.
    ///
    /// Returns the snapshot file size in bytes.
    ///
    /// Carries the `io.snapshot` fail point (before the snapshot payload
    /// is written) and the `io.manifest` fail point (after the manifest
    /// temp is written, before the rename): a crash at either leaves the
    /// previous binding fully intact.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`]. On error the manifest still holds the
    /// previous binding; call
    /// [`abandon_checkpoint`](DurableStore::abandon_checkpoint) to clean
    /// up temp files.
    pub fn checkpoint(&mut self, image: &EngineImage) -> Result<u64, PersistError> {
        self.nodes_from = None;
        let nodes = &mut self.snapshot_nodes.0;
        nodes.clear();
        image.encode_nodes(nodes);
        let nodes_crc = crc32(nodes);
        self.write_snapshot(|head| image.encode_prefix(head), nodes_crc)
    }

    /// [`checkpoint`](DurableStore::checkpoint) straight from the engine:
    /// no [`EngineImage`] is built, and the file's bytes are those of
    /// `checkpoint(&engine.capture_image())`.
    ///
    /// The store remembers the engine [`Generation`] its node section was
    /// last encoded from. When the previous checkpoint succeeded through
    /// this method and the engine's stamp has not moved since, the node
    /// section is neither re-encoded nor re-checksummed: only the prefix
    /// (magic, configuration, frequency sketch, clock and RNG) is encoded
    /// again, and its CRC is joined to the cached one. A failed checkpoint
    /// — an error, or a panic out of a fail point — forgets the stamp, so
    /// the next one encodes everything.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](DurableStore::checkpoint).
    pub fn checkpoint_engine(&mut self, engine: &DynamicSkipGraph) -> Result<u64, PersistError> {
        let stamp = engine.generation();
        let reused = self
            .nodes_from
            .take()
            .filter(|section| section.stamp == stamp);
        let nodes_crc = match reused {
            Some(section) => section.crc,
            None => {
                let nodes = &mut self.snapshot_nodes.0;
                nodes.clear();
                engine.encode_snapshot_nodes(nodes);
                crc32(nodes)
            }
        };
        let bytes = self.write_snapshot(|head| engine.encode_snapshot_prefix(head), nodes_crc)?;
        self.nodes_from = Some(NodeSection {
            stamp,
            crc: nodes_crc,
        });
        self.reused_node_sections += u64::from(reused.is_some());
        Ok(bytes)
    }

    /// The shared tail of both checkpoint paths: encodes the payload prefix
    /// with `encode_prefix` behind the envelope header, seals the header
    /// over the prefix and the node section already in `snapshot_nodes`
    /// (whose CRC is `nodes_crc`), writes both as `snap-<seq+1>.img` and
    /// rebinds the manifest.
    fn write_snapshot(
        &mut self,
        encode_prefix: impl FnOnce(&mut Vec<u8>),
        nodes_crc: u32,
    ) -> Result<u64, PersistError> {
        self.sync()?;
        let new_seq = self.seq + 1;
        let head = &mut self.snapshot_head.0;
        let nodes = &self.snapshot_nodes.0;
        begin_envelope(head);
        encode_prefix(head);
        seal_split_envelope(head, nodes.len(), nodes_crc);

        let snap_tmp = self.dir.join(format!("{}.tmp", snapshot_file(new_seq)));
        let snap_final = self.dir.join(snapshot_file(new_seq));
        {
            let mut f =
                File::create(&snap_tmp).map_err(|e| PersistError::io("create a snapshot", e))?;
            failpoint::hit(failpoint::IO_SNAPSHOT);
            f.write_all(head)
                .and_then(|()| f.write_all(nodes))
                .map_err(|e| PersistError::io("write a snapshot", e))?;
            f.sync_all()
                .map_err(|e| PersistError::io("fsync a snapshot", e))?;
        }
        fs::rename(&snap_tmp, &snap_final)
            .map_err(|e| PersistError::io("rename a snapshot into place", e))?;
        sync_dir(&self.dir)?;

        let manifest = Manifest {
            current: (new_seq, self.journal_len),
            previous: (self.seq != 0).then_some((self.seq, self.bound_offset)),
        };
        let manifest_tmp = self.dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut f = File::create(&manifest_tmp)
                .map_err(|e| PersistError::io("create the manifest", e))?;
            f.write_all(&wrap_file(&manifest.encode()))
                .map_err(|e| PersistError::io("write the manifest", e))?;
            f.sync_all()
                .map_err(|e| PersistError::io("fsync the manifest", e))?;
        }
        failpoint::hit(failpoint::IO_MANIFEST);
        fs::rename(&manifest_tmp, self.dir.join(MANIFEST_FILE))
            .map_err(|e| PersistError::io("rename the manifest into place", e))?;
        sync_dir(&self.dir)?;

        // The binding advanced; the snapshot that left it (the old
        // previous one) is deleted by name (best-effort — a stray file is
        // harmless).
        if let Some((dropped, _)) = self.previous {
            let _ = fs::remove_file(self.dir.join(snapshot_file(dropped)));
        }
        self.previous = manifest.previous;
        self.seq = new_seq;
        self.bound_offset = self.journal_len;
        Ok((head.len() + nodes.len()) as u64)
    }

    /// Best-effort cleanup after a failed or panicked
    /// [`checkpoint`](DurableStore::checkpoint): removes stray `.tmp`
    /// files. The manifest was not touched (the rename never happened or
    /// failed atomically), so the store keeps serving under the previous
    /// binding. The next checkpoint encodes every node.
    pub fn abandon_checkpoint(&mut self) {
        self.nodes_from = None;
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|name| name.ends_with(".tmp"))
                {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Fsyncs a directory so a completed rename survives a crash (on platforms
/// where directories cannot be opened for sync, this degrades gracefully).
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    match File::open(dir) {
        Ok(f) => f
            .sync_all()
            .map_err(|e| PersistError::io("fsync the store directory", e)),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::journal::read_journal;
    use super::super::{assert_cuts_and_flips_are_typed, encode_snapshot, NodeImage};
    use super::*;
    use crate::config::DsgConfig;
    use dsg_skipgraph::crc32::crc32;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store_dir() -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dsg-store-test-{}-{n}", std::process::id()))
    }

    fn tiny_image(time: u64) -> EngineImage {
        EngineImage {
            config: DsgConfig::default(),
            time,
            rng_state: [9, 8, 7, 6],
            nodes: Vec::new(),
            sketch: None,
        }
    }

    /// A fixed gated image with a populated sketch and nodes of every
    /// shape: the checkpoint format's golden input.
    fn fixed_image() -> EngineImage {
        use crate::config::PolicyConfig;
        use crate::policy::{SketchImage, SKETCH_ROWS, SKETCH_WIDTH};
        let config = DsgConfig::default()
            .with_seed(0x5EED)
            .with_policy(PolicyConfig::gated().with_threshold(3));
        let counters = (0..SKETCH_ROWS * SKETCH_WIDTH)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) >> 28)
            .collect();
        EngineImage {
            config,
            time: 77,
            rng_state: [11, 22, 33, u64::MAX],
            nodes: (1..=40u64)
                .map(|k| NodeImage {
                    key: k << 19,
                    dummy: k % 2 == 0,
                    mvec_bits: (0..k % 7).map(|b| ((k >> b) & 1) as u8).collect(),
                    group_base: k % 5,
                    timestamps: (0..k % 4).map(|t| t * k).collect(),
                    group_ids: (0..k % 3).map(|g| g + k).collect(),
                    dominating: (0..k % 5).map(|d| (d + k) % 2 == 0).collect(),
                })
                .collect(),
            sketch: Some(SketchImage {
                counters,
                updates_since_aging: 1234,
                aging_passes: 5,
            }),
        }
    }

    /// The snapshot file as the envelope was first defined: the payload
    /// behind its length and CRC, concatenated.
    fn reference_file(image: &EngineImage) -> Vec<u8> {
        let payload = encode_snapshot(image);
        let mut file = Vec::new();
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&crc32(&payload).to_le_bytes());
        file.extend_from_slice(&payload);
        file
    }

    #[test]
    fn checkpoint_files_keep_their_bytes() {
        // Length and CRC-32 of the whole file, as written before the
        // checkpoint encoded into a reused buffer.
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.manifest` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        assert_eq!(store.checkpoint(&fixed_image()).unwrap(), 133_530);
        let file = fs::read(dir.join("snap-1.img")).unwrap();
        assert_eq!(file.len(), 133_530);
        assert_eq!(crc32(&file), 0x2D25_6013);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reused_checkpoint_buffer_writes_the_wrapped_snapshot_exactly() {
        // A served engine, then a much smaller image, then the engine
        // again: nothing of a previous checkpoint may leak into the next.
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.manifest` meanwhile.
        let _guard = failpoint::exclusive();
        let mut session = crate::DsgSession::builder()
            .peers(0..48)
            .seed(5)
            .policy(crate::config::PolicyConfig::gated().with_threshold(1))
            .build()
            .unwrap();
        for i in 0..30u64 {
            session
                .submit(Request::communicate(i % 48, (i * 7 + 3) % 48))
                .unwrap();
        }
        let engine = session.engine().capture_image();
        assert!(engine.sketch.is_some() && !engine.nodes.is_empty());
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        for (seq, image) in [(1, &engine), (2, &tiny_image(4)), (3, &engine)] {
            let expected = reference_file(image);
            assert_eq!(store.checkpoint(image).unwrap(), expected.len() as u64);
            let file = fs::read(dir.join(snapshot_file(seq))).unwrap();
            assert!(
                file == expected,
                "snap-{seq}.img differs from the reference"
            );
        }
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A gated session whose traffic decides what restructures: a fresh
    /// pair of fresh peers is gated, a pair's third request is admitted.
    fn gated_session() -> crate::DsgSession {
        crate::DsgSession::builder()
            .peers(0..64)
            .seed(17)
            .policy(crate::config::PolicyConfig::gated().with_threshold(3))
            .build()
            .unwrap()
    }

    /// Serves `pairs` one epoch each; reports whether the engine's
    /// generation stamp moved.
    fn serve(session: &mut crate::DsgSession, pairs: &[(u64, u64)]) -> bool {
        let before = session.engine().generation();
        for &(u, v) in pairs {
            session.submit(Request::communicate(u, v)).unwrap();
        }
        session.engine().generation() != before
    }

    /// Cuts an engine checkpoint and checks the file against the image
    /// path's bytes; returns whether the node section was reused.
    fn engine_checkpoint_matches(
        store: &mut DurableStore,
        session: &crate::DsgSession,
        seq: u64,
    ) -> bool {
        let reused_before = store.reused_node_sections();
        let expected = reference_file(&session.engine().capture_image());
        let bytes = store.checkpoint_engine(session.engine()).unwrap();
        assert_eq!(bytes, expected.len() as u64, "snap-{seq}.img size");
        let file = fs::read(store.dir().join(snapshot_file(seq))).unwrap();
        assert!(
            file == expected,
            "snap-{seq}.img differs from the image path"
        );
        store.reused_node_sections() > reused_before
    }

    #[test]
    fn engine_checkpoints_write_the_image_paths_bytes_and_reuse_unchanged_nodes() {
        let _guard = failpoint::exclusive();
        let mut session = gated_session();
        let (direct_dir, image_dir) = (temp_store_dir(), temp_store_dir());
        let (mut direct, _) = DurableStore::open(&direct_dir, PersistConfig::default()).unwrap();
        let (mut image, _) = DurableStore::open(&image_dir, PersistConfig::default()).unwrap();
        // Traffic before each checkpoint, and whether it restructures: full
        // → reused → reused → admitted → reused. The gated steps still move
        // the clock and the sketch, so every prefix differs.
        let script: [(&[(u64, u64)], bool); 5] = [
            (&[], false),
            (&[(0, 1), (2, 3)], false),
            (&[(4, 5)], false),
            (&[(6, 7), (6, 7), (6, 7)], true),
            (&[(8, 9)], false),
        ];
        for (i, &(pairs, restructures)) in script.iter().enumerate() {
            assert_eq!(serve(&mut session, pairs), restructures, "step {i}");
            let seq = i as u64 + 1;
            let reused = engine_checkpoint_matches(&mut direct, &session, seq);
            assert_eq!(reused, i > 0 && !restructures, "step {i}");
            image.checkpoint(&session.engine().capture_image()).unwrap();
            assert_eq!(
                fs::read(direct_dir.join(snapshot_file(seq))).unwrap(),
                fs::read(image_dir.join(snapshot_file(seq))).unwrap(),
                "snap-{seq}.img"
            );
        }
        assert_eq!(direct.reused_node_sections(), 3);
        assert_eq!(image.reused_node_sections(), 0);
        drop((direct, image));
        fs::remove_dir_all(&direct_dir).unwrap();
        fs::remove_dir_all(&image_dir).unwrap();
    }

    #[test]
    fn abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let _guard = failpoint::exclusive();
        failpoint::disarm_all();
        let mut session = gated_session();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let mut seq = 1;
        assert!(!engine_checkpoint_matches(&mut store, &session, seq));
        // A checkpoint that dies at either fail point forgets the node
        // section it encoded, although the engine did not change.
        for site in [failpoint::IO_SNAPSHOT, failpoint::IO_MANIFEST] {
            assert!(!serve(&mut session, &[(10 + seq, 40 + seq)]));
            failpoint::arm(site, 1);
            let torn = catch_unwind(AssertUnwindSafe(|| {
                store.checkpoint_engine(session.engine())
            }));
            failpoint::disarm_all();
            assert!(torn.is_err(), "{site} must fire");
            store.abandon_checkpoint();
            seq += 1;
            assert!(
                !engine_checkpoint_matches(&mut store, &session, seq),
                "after an abandoned checkpoint at {site}"
            );
        }
        // An image-path checkpoint in between forgets it too.
        seq += 1;
        store.checkpoint(&session.engine().capture_image()).unwrap();
        seq += 1;
        assert!(!engine_checkpoint_matches(&mut store, &session, seq));
        seq += 1;
        assert!(engine_checkpoint_matches(&mut store, &session, seq));
        // A rebuilt engine is a new instance, whatever its counters say.
        session.engine_mut().recover_from_surviving().unwrap();
        seq += 1;
        assert!(!engine_checkpoint_matches(&mut store, &session, seq));
        seq += 1;
        assert!(engine_checkpoint_matches(&mut store, &session, seq));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_truncations_and_bit_flips_decode_or_are_refused_typed() {
        let payload = Manifest {
            current: (7, 4096),
            previous: Some((6, 1024)),
        }
        .encode();
        assert_cuts_and_flips_are_typed(&payload, 0..payload.len(), Manifest::decode, |e| {
            matches!(e, PersistError::CorruptManifest { .. })
        });
    }

    #[test]
    fn a_reopened_store_deletes_the_snapshot_that_leaves_the_binding() {
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.manifest` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        drop(store);
        // The reopened store takes its binding from the manifest and
        // deletes snap-1 by name when the next checkpoint retires it.
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(2)).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [MANIFEST_FILE, JOURNAL_FILE, "snap-2.img", "snap-3.img"]
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_checkpoint_append_reopen() {
        // `rollback_discards_a_torn_append` arms `io.append` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        assert!(recovered.is_none());
        // Appends before the initial checkpoint are refused.
        assert!(store.append_chunk(&[Request::Tick(1)], false).is_err());
        store.checkpoint(&tiny_image(0)).unwrap();
        store
            .append_chunk(&[Request::Communicate { u: 1, v: 2 }], false)
            .unwrap();
        store.append_chunk(&[Request::Tick(5)], false).unwrap();
        drop(store);

        let (store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.snapshot_seq, 1);
        assert_eq!(recovered.replay_offset, 0);
        assert_eq!(
            recovered.frames,
            vec![
                vec![Request::Communicate { u: 1, v: 2 }],
                vec![Request::Tick(5)]
            ]
        );
        assert_eq!(recovered.torn_bytes_truncated, 0);
        assert!(!recovered.fell_back);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rebinds_and_retains_the_previous_snapshot() {
        // `rollback_discards_a_torn_append` arms `io.append` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        store.append_chunk(&[Request::Tick(2)], false).unwrap();
        store.checkpoint(&tiny_image(2)).unwrap();
        // Snapshots 3 and 2 remain; 1 was pruned.
        assert!(dir.join("snap-3.img").exists());
        assert!(dir.join("snap-2.img").exists());
        assert!(!dir.join("snap-1.img").exists());
        let offset = store.journal_len();
        store.append_chunk(&[Request::Tick(3)], false).unwrap();
        drop(store);

        let (_store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.snapshot_seq, 3);
        assert_eq!(recovered.image.time, 2);
        assert_eq!(recovered.replay_offset, offset);
        assert_eq!(recovered.frames, vec![vec![Request::Tick(3)]]);
        // The full journal is still readable from genesis.
        assert_eq!(
            read_journal(&dir).unwrap().frames,
            vec![
                vec![Request::Tick(1)],
                vec![Request::Tick(2)],
                vec![Request::Tick(3)]
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_current_snapshot_falls_back_to_previous() {
        // `rollback_discards_a_torn_append` arms `io.append` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        store.append_chunk(&[Request::Tick(2)], false).unwrap();
        drop(store);

        // Flip a payload bit in the newest snapshot.
        let snap = dir.join("snap-2.img");
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();

        let (_store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let recovered = recovered.unwrap();
        assert!(recovered.fell_back);
        assert_eq!(recovered.snapshot_seq, 1);
        assert_eq!(recovered.image.time, 0);
        // Fallback replays from the previous binding: both frames.
        assert_eq!(
            recovered.frames,
            vec![vec![Request::Tick(1)], vec![Request::Tick(2)]]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_discards_a_torn_append() {
        // The guard covers the checkpoint too: other tests arm `io.snapshot`.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        let committed = store.journal_len();

        failpoint::arm(failpoint::IO_APPEND, 1);
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.append_chunk(&[Request::Tick(2)], false)
        }));
        failpoint::disarm_all();
        assert!(torn.is_err(), "the armed fail point must fire");
        // The header reached the file, the payload did not (the armed
        // site splits the write); rollback removes it.
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            committed + 8
        );
        store.rollback().unwrap();
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            committed
        );
        // The journal is clean again and appendable.
        store.append_chunk(&[Request::Tick(3)], false).unwrap();
        drop(store);
        let scanned = read_journal(&dir).unwrap();
        assert_eq!(
            scanned.frames,
            vec![vec![Request::Tick(1)], vec![Request::Tick(3)]]
        );
        assert_eq!(scanned.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_journal_without_manifest_is_refused() {
        let dir = temp_store_dir();
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), b"not empty").unwrap();
        match DurableStore::open(&dir, PersistConfig::default()) {
            Err(PersistError::StrayJournal { len: 9 }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        // `rollback_discards_a_torn_append` arms `io.append` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        let committed = store.journal_len();
        drop(store);
        // Simulate a crash mid-append: half a frame of garbage-free bytes.
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        bytes.extend_from_slice(&[7, 0, 0, 0, 1, 2]);
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

        let (store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.torn_bytes_truncated, 6);
        assert_eq!(recovered.frames, vec![vec![Request::Tick(1)]]);
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            committed,
            "the torn tail must be physically truncated"
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
