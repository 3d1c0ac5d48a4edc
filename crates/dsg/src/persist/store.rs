//! The on-disk store: journal writer and snapshot checkpoints, each
//! snapshot carrying its own journal binding.
//!
//! A [`DurableStore`] is single-owner (the service's ingest worker); see
//! the [module docs](super) for the layout, the commit protocol, the
//! recovery contract, and the failure model.
//!
//! The ingest thread pays for every checkpoint and every append, so
//! neither does work beyond the bytes it must write:
//!
//! * a journal frame is encoded into a buffer the store keeps and written
//!   with one `write_all` (two, around the `io.append` fail point, while
//!   that site is armed);
//! * a snapshot is encoded into two buffers the store keeps — the file
//!   header, binding and payload prefix, and the node section — and the
//!   header is patched once both CRCs are known.
//!   [`DurableStore::checkpoint_engine`] encodes straight from the engine
//!   and remembers the [`Generation`] its node section was encoded from:
//!   while the engine's stamp stays the same, the next checkpoint
//!   re-encodes only the prefix and joins its CRC to the cached one with
//!   [`crc32_combine`];
//! * a checkpoint commits with one rename and three fsyncs (journal,
//!   snapshot, directory), and deletes the snapshots it retires by their
//!   sequence numbers, which the store tracks instead of listing the
//!   directory; [`DurableStore::open`] reads only the journal suffix
//!   behind the chosen snapshot's offset.
//!
//! The bytes on disk are the same whichever path encoded them.
//!
//! [`crc32_combine`]: dsg_skipgraph::crc32::crc32_combine

use super::image::{
    begin_snapshot_file, decode_snapshot, parse_snapshot_file, seal_snapshot_file, EngineImage,
};
use super::journal::{encode_frame, read_suffix, scan, JournalScan, JOURNAL_FILE};
use super::{PersistConfig, PersistError};
use crate::dsg::{DynamicSkipGraph, Generation};
use crate::request::Request;
use dsg_skipgraph::crc32::crc32;
use dsg_skipgraph::failpoint;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn snapshot_file(seq: u64) -> String {
    format!("snap-{seq}.img")
}

/// The sequence number of a snapshot file's name, if `name` is one
/// [`snapshot_file`] writes.
fn snapshot_seq(name: &str) -> Option<u64> {
    let seq = name
        .strip_prefix("snap-")?
        .strip_suffix(".img")?
        .parse()
        .ok()?;
    (snapshot_file(seq) == name).then_some(seq)
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
    /// `true` if a newer snapshot file was damaged (its CRC, its binding
    /// header or its payload failed) and recovery fell back to an older
    /// one, replaying a longer journal suffix.
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
    /// Where the last frame [`append_chunk`] committed begins, while that
    /// frame is still the journal's last and no checkpoint binds past it:
    /// the one frame [`retract_last_frame`] may take back.
    ///
    /// [`append_chunk`]: DurableStore::append_chunk
    /// [`retract_last_frame`]: DurableStore::retract_last_frame
    last_frame: Option<u64>,
    config: PersistConfig,
    /// Seq of the snapshot in force: the one recovery started from, or the
    /// last checkpoint to complete (0 = none yet; the store refuses
    /// appends until the initial checkpoint exists).
    seq: u64,
    /// The journal offset that snapshot binds.
    bound_offset: u64,
    /// Seqs of the snapshot files on disk, ascending: those `open` listed
    /// and those renamed into place since. The next checkpoint is written
    /// as the largest plus one.
    on_disk: Vec<u64>,
    /// `.tmp` files `open` found; the next checkpoint deletes them.
    leftovers: Vec<PathBuf>,
    /// The last journal frame appended.
    frame: Reused,
    /// The last snapshot file written, in two parts: the `[len u64]
    /// [crc u32]` header, the binding and the payload prefix; then the
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

/// A snapshot that loaded: its decoded image, binding and file size.
struct Loaded {
    image: EngineImage,
    seq: u64,
    offset: u64,
    bytes: u64,
}

/// Reads, verifies and decodes `snap-<seq>.img`. A file whose CRC checks
/// but whose binding names another seq was not written under this name.
fn load_snapshot(dir: &Path, seq: u64) -> Result<Loaded, PersistError> {
    let name = snapshot_file(seq);
    let in_file = |err: PersistError| match err {
        PersistError::CorruptSnapshot { detail } => PersistError::CorruptSnapshot {
            detail: format!("{name}: {detail}"),
        },
        other => other,
    };
    let bytes = fs::read(dir.join(&name)).map_err(|e| PersistError::io("read a snapshot", e))?;
    let file = parse_snapshot_file(&bytes).map_err(in_file)?;
    if file.seq != seq {
        return Err(in_file(PersistError::CorruptSnapshot {
            detail: format!("its header binds seq {}", file.seq),
        }));
    }
    let image = decode_snapshot(file.payload).map_err(in_file)?;
    Ok(Loaded {
        image,
        seq,
        offset: file.offset,
        bytes: bytes.len() as u64,
    })
}

impl DurableStore {
    /// Opens (or creates) the store at `dir`.
    ///
    /// Returns the open store and, when `dir` held a valid store, the
    /// [`Recovered`] state to rebuild the engine from — the caller
    /// restores the snapshot image, replays the frames, and only then
    /// appends new ones. `None` means a cold start: the directory was
    /// missing or held no snapshot and an empty journal, and the caller
    /// must cut the initial checkpoint ([`DurableStore::checkpoint`])
    /// before the first append.
    ///
    /// The `snap-<seq>.img` files are tried newest first; the first whose
    /// CRC checks, whose header seq matches its name and whose payload
    /// decodes is chosen. A torn journal tail (partial final frame) is
    /// physically truncated here, so the next append starts on a clean
    /// frame boundary; that is the only write `open` makes. Leftover
    /// `.tmp` files and retired snapshots stay until the next checkpoint
    /// deletes them.
    ///
    /// # Errors
    ///
    /// Typed [`PersistError`]s: I/O failures, a corrupt frame, every
    /// snapshot damaged (the newest one's error), a non-empty journal
    /// without any snapshot ([`PersistError::StrayJournal`]), or a journal
    /// shorter than the chosen snapshot's binding
    /// ([`PersistError::ShortJournal`]).
    pub fn open(
        dir: impl AsRef<Path>,
        config: PersistConfig,
    ) -> Result<(Self, Option<Recovered>), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| PersistError::io("create the store directory", e))?;
        let journal_path = dir.join(JOURNAL_FILE);
        let listing = |e| PersistError::io("list the store directory", e);
        let mut on_disk = Vec::new();
        let mut leftovers = Vec::new();
        for entry in fs::read_dir(&dir).map_err(listing)? {
            let entry = entry.map_err(listing)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = snapshot_seq(name) {
                on_disk.push(seq);
            } else if name.ends_with(".tmp") {
                leftovers.push(entry.path());
            }
        }
        on_disk.sort_unstable();
        let store = |journal, journal_len, on_disk, seq, bound_offset| DurableStore {
            dir: dir.clone(),
            journal,
            journal_len,
            // A recovered journal may hold frames its writer never
            // fsynced; the first checkpoint makes them durable before it
            // binds an offset past them.
            unsynced: u64::from(journal_len > 0),
            last_frame: None,
            config,
            seq,
            bound_offset,
            on_disk,
            leftovers,
            frame: Reused::default(),
            snapshot_head: Reused::default(),
            snapshot_nodes: Reused::default(),
            nodes_from: None,
            reused_node_sections: 0,
        };

        if on_disk.is_empty() {
            // Cold start. A non-empty journal without a snapshot is not a
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
            return Ok((store(journal, 0, on_disk, 0, 0), None));
        }

        // Newest valid snapshot first; a damaged one costs a longer replay.
        let mut newest_err = None;
        let mut loaded = None;
        for &seq in on_disk.iter().rev() {
            match load_snapshot(&dir, seq) {
                Ok(snapshot) => {
                    loaded = Some(snapshot);
                    break;
                }
                Err(err) => {
                    newest_err.get_or_insert(err);
                }
            }
        }
        let Some(loaded) = loaded else {
            return Err(newest_err.expect("a listed snapshot failed to load"));
        };

        let mut journal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&journal_path)
            .map_err(|e| PersistError::io("open the journal", e))?;
        let suffix = read_suffix(&mut journal, loaded.offset)?;
        let scanned: JournalScan = scan(&suffix, loaded.offset)?;
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

        let recovered = Recovered {
            image: loaded.image,
            snapshot_seq: loaded.seq,
            snapshot_bytes: loaded.bytes,
            replay_offset: loaded.offset,
            frames: scanned.frames,
            brownout: scanned.brownout,
            torn_bytes_truncated: scanned.torn_bytes,
            fell_back: newest_err.is_some(),
        };
        let store = store(
            journal,
            scanned.committed_len,
            on_disk,
            loaded.seq,
            loaded.offset,
        );
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

    /// Seq of the snapshot in force: the one recovery started from, or the
    /// last completed checkpoint (0 before the initial checkpoint).
    pub fn snapshot_seq(&self) -> u64 {
        self.seq
    }

    /// The journal offset the snapshot in force replays from.
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
    /// On error the file may hold a partial frame, or a whole frame whose
    /// cadence fsync failed; either way the frame is not counted in the
    /// journal length until it is written and, when the cadence falls due,
    /// synced, so the caller's [`rollback`](DurableStore::rollback) cuts
    /// the file back to where the frame began (the caller treats a
    /// rollback failure as fatal). The frame is encoded into a buffer the
    /// store keeps and written with one `write_all`, except while the
    /// `io.append` fail point is armed: then the header and the payload
    /// are written apart with the fail point between them, so it tears a
    /// frame exactly like a crash mid-append. The `io.sync` fail point sits
    /// just before the cadence fsync.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write/fsync failure, and
    /// [`PersistError::AppendBeforeCheckpoint`] before the initial
    /// checkpoint exists.
    pub fn append_chunk(&mut self, chunk: &[Request], brownout: bool) -> Result<(), PersistError> {
        if self.seq == 0 {
            return Err(PersistError::AppendBeforeCheckpoint);
        }
        self.last_frame = None;
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
        if self.config.fsync_every > 0 && self.unsynced + 1 >= self.config.fsync_every {
            failpoint::hit(failpoint::IO_SYNC);
            self.journal
                .sync_data()
                .map_err(|e| PersistError::io("fsync the journal", e))?;
            self.unsynced = 0;
        } else {
            self.unsynced += 1;
        }
        self.last_frame = Some(self.journal_len);
        self.journal_len += frame.len() as u64;
        Ok(())
    }

    /// Takes back the frame the last [`append_chunk`] committed, for a
    /// chunk the engine then aborted without applying any of it: truncates
    /// the journal to where that frame began and fsyncs it, so the chunk is
    /// in no later replay — not even when a crash follows at once.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when no frame can be taken back (none was
    /// appended since the last checkpoint or retraction) or the truncation
    /// or its fsync fails; the caller must treat a failure as fatal, as
    /// for [`rollback`](DurableStore::rollback).
    ///
    /// [`append_chunk`]: DurableStore::append_chunk
    pub fn retract_last_frame(&mut self) -> Result<(), PersistError> {
        let start = self.last_frame.take().ok_or_else(|| PersistError::Io {
            op: "retract a journal frame",
            kind: std::io::ErrorKind::InvalidInput,
            message: "no frame was appended since the last checkpoint".to_string(),
        })?;
        self.journal
            .set_len(start)
            .map_err(|e| PersistError::io("retract a journal frame", e))?;
        self.journal
            .seek(SeekFrom::Start(start))
            .map_err(|e| PersistError::io("reposition after a retraction", e))?;
        self.journal
            .sync_data()
            .map_err(|e| PersistError::io("fsync a retraction", e))?;
        self.journal_len = start;
        self.unsynced = 0;
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

    /// Cuts a snapshot checkpoint of `image` as `snap-<seq>.img`, `seq`
    /// one past the newest snapshot file, bound to the current journal
    /// length. The journal is fsynced first, so the binding never points
    /// past durable data; the file is written as a `.tmp`, fsynced and
    /// renamed into place (the commit point), the directory is fsynced,
    /// and every snapshot older than the binding this one replaces is
    /// deleted — two snapshots remain, the new one and its fallback.
    ///
    /// The image is encoded straight into buffers the store keeps across
    /// checkpoints, behind a reserved file header that is filled in once
    /// the CRC is known, so a checkpoint neither copies the payload nor
    /// allocates a fresh file-sized buffer. This is the reference path;
    /// the service checkpoints through
    /// [`checkpoint_engine`](DurableStore::checkpoint_engine), which writes
    /// the same bytes. A checkpoint taken here always encodes every node.
    ///
    /// Returns the snapshot file size in bytes.
    ///
    /// Carries the `io.snapshot` fail point (before the snapshot payload
    /// is written) and the `io.publish` fail point (after the rename,
    /// before the directory fsync and the deletions). A crash at
    /// `io.snapshot` leaves a `.tmp` that recovery ignores; one at
    /// `io.publish` leaves a complete snapshot that recovery may start
    /// from. Either way every snapshot on disk is a valid recovery point.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`]. On error the store keeps its previous binding;
    /// call [`abandon_checkpoint`](DurableStore::abandon_checkpoint) to
    /// clean up temp files.
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
    /// section is neither re-encoded nor re-checksummed: only the header,
    /// the binding and the prefix (magic, configuration, frequency sketch,
    /// clock and RNG) are encoded again, and their CRC is joined to the
    /// cached one. A failed checkpoint — an error, or a panic out of a
    /// fail point — forgets the stamp, so the next one encodes everything.
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

    /// The shared tail of both checkpoint paths: encodes the file header,
    /// the binding and the payload prefix (with `encode_prefix`), seals
    /// the header over them and the node section already in
    /// `snapshot_nodes` (whose CRC is `nodes_crc`), and commits both as
    /// the next `snap-<seq>.img`.
    fn write_snapshot(
        &mut self,
        encode_prefix: impl FnOnce(&mut Vec<u8>),
        nodes_crc: u32,
    ) -> Result<u64, PersistError> {
        // From here a snapshot file may bind the journal's current end, so
        // no frame behind it can be taken back — even if this one fails.
        self.last_frame = None;
        self.sync()?;
        let newest = self.on_disk.last().copied().unwrap_or(0);
        let new_seq = newest.checked_add(1).ok_or_else(|| PersistError::Io {
            op: "number a snapshot",
            kind: std::io::ErrorKind::InvalidData,
            message: format!("snapshot seq {newest} has no successor"),
        })?;
        let head = &mut self.snapshot_head.0;
        let nodes = &self.snapshot_nodes.0;
        begin_snapshot_file(head, new_seq, self.journal_len);
        encode_prefix(head);
        seal_snapshot_file(head, nodes.len(), nodes_crc);

        let snap_tmp = self.dir.join(format!("{}.tmp", snapshot_file(new_seq)));
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
        // The commit point: from here on the file is a recovery point.
        fs::rename(&snap_tmp, self.dir.join(snapshot_file(new_seq)))
            .map_err(|e| PersistError::io("rename a snapshot into place", e))?;
        self.on_disk.push(new_seq);
        failpoint::hit(failpoint::IO_PUBLISH);
        sync_dir(&self.dir)?;

        // Retire every snapshot older than the binding this one replaces
        // (best-effort — a stray file is harmless, and the next `open`
        // lists it again).
        let replaced = self.seq;
        self.on_disk.retain(|&seq| {
            seq >= replaced || {
                let _ = fs::remove_file(self.dir.join(snapshot_file(seq)));
                false
            }
        });
        for leftover in self.leftovers.drain(..) {
            let _ = fs::remove_file(leftover);
        }
        self.seq = new_seq;
        self.bound_offset = self.journal_len;
        Ok((head.len() + nodes.len()) as u64)
    }

    /// Best-effort cleanup after a failed or panicked
    /// [`checkpoint`](DurableStore::checkpoint): removes stray `.tmp`
    /// files. The store keeps serving under its previous binding; a
    /// snapshot the failed checkpoint already renamed into place stays a
    /// valid recovery point, and the next checkpoint is numbered past it.
    /// The next checkpoint encodes every node.
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
    use super::super::{
        assert_cuts_and_flips_are_typed, dsgsnap2_payload, encode_snapshot, put_u32, put_u64,
        NodeImage,
    };
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

    /// The snapshot file by its definition, concatenated in one pass:
    /// `[len][crc]` over the binding `(seq, offset)` and the payload.
    fn reference_file(image: &EngineImage, seq: u64, offset: u64) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, seq);
        put_u64(&mut body, offset);
        body.extend_from_slice(&encode_snapshot(image));
        let mut file = Vec::new();
        put_u64(&mut file, body.len() as u64);
        put_u32(&mut file, crc32(&body));
        file.extend_from_slice(&body);
        file
    }

    /// Every file of a store directory, by name, with its bytes.
    fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    fn names(dir: &Path) -> Vec<String> {
        dir_files(dir).into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn checkpoint_files_keep_their_bytes() {
        // Length and CRC-32 of the whole file.
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.publish` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        assert_eq!(store.checkpoint(&fixed_image()).unwrap(), 33_463);
        let file = fs::read(dir.join("snap-1.img")).unwrap();
        assert_eq!(file.len(), 33_463);
        assert_eq!(crc32(&file), 0x2025_6916);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reused_checkpoint_buffer_writes_the_wrapped_snapshot_exactly() {
        // A served engine, then a much smaller image, then the engine
        // again: nothing of a previous checkpoint may leak into the next.
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.publish` meanwhile.
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
            let expected = reference_file(image, seq, 0);
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
        let expected = reference_file(&session.engine().capture_image(), seq, store.journal_len());
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
        // section it encoded, although the engine did not change. One that
        // dies at `io.publish` has already renamed its snapshot into place,
        // so the next checkpoint is numbered past it.
        for (site, renamed) in [
            (failpoint::IO_SNAPSHOT, false),
            (failpoint::IO_PUBLISH, true),
        ] {
            assert!(!serve(&mut session, &[(10 + seq, 40 + seq)]));
            failpoint::arm(site, 1);
            let torn = catch_unwind(AssertUnwindSafe(|| {
                store.checkpoint_engine(session.engine())
            }));
            failpoint::disarm_all();
            assert!(torn.is_err(), "{site} must fire");
            store.abandon_checkpoint();
            assert_eq!(store.snapshot_seq(), seq, "{site}: the binding held");
            assert_eq!(dir.join(snapshot_file(seq + 1)).exists(), renamed, "{site}");
            seq += 1 + u64::from(renamed);
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
    fn snapshot_file_truncations_and_bit_flips_are_refused_typed() {
        // The file as `open` reads it: header, binding and payload. The CRC
        // catches every single-bit flip; a cut is short or fails it.
        let file = reference_file(&tiny_image(3), 7, 4096);
        let load = |bytes: &[u8]| {
            let file = parse_snapshot_file(bytes)?;
            decode_snapshot(file.payload).map(|image| (file.seq, file.offset, image))
        };
        assert_eq!(load(&file).unwrap(), (7, 4096, tiny_image(3)));
        assert_cuts_and_flips_are_typed(&file, 0..file.len(), load, |e| {
            matches!(e, PersistError::CorruptSnapshot { .. })
        });
    }

    #[test]
    fn a_reopened_store_deletes_the_snapshot_that_leaves_the_binding() {
        // `abandoned_image_path_and_rebuilt_engine_checkpoints_encode_every_node`
        // arms `io.snapshot` and `io.publish` meanwhile.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        drop(store);
        // The reopened store takes its binding from the newest snapshot and
        // deletes snap-1 by name when the next checkpoint retires it.
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(2)).unwrap();
        assert_eq!(names(&dir), [JOURNAL_FILE, "snap-2.img", "snap-3.img"]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_leaves_strays_in_place_and_the_next_checkpoint_removes_them() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let _guard = failpoint::exclusive();
        failpoint::disarm_all();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        // Crashes with no cleanup: one after checkpoint 3's rename, before
        // it retired snap-1 (a stray third snapshot); one inside
        // checkpoint 4 (its `.tmp`). An older `.tmp` lies about too.
        for site in [failpoint::IO_PUBLISH, failpoint::IO_SNAPSHOT] {
            failpoint::arm(site, 1);
            let crashed = catch_unwind(AssertUnwindSafe(|| store.checkpoint(&tiny_image(2))));
            failpoint::disarm_all();
            assert!(crashed.is_err(), "{site} must fire");
        }
        drop(store);
        fs::write(dir.join("snap-2.img.tmp"), b"half a snapshot").unwrap();
        let before = dir_files(&dir);
        assert_eq!(
            names(&dir),
            [
                JOURNAL_FILE,
                "snap-1.img",
                "snap-2.img",
                "snap-2.img.tmp",
                "snap-3.img",
                "snap-4.img.tmp"
            ]
        );

        // Recovery starts from the stray third snapshot, the newest, and
        // changes nothing on disk.
        let (store, recovered) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.snapshot_seq, 3);
        assert_eq!(recovered.image, tiny_image(2));
        assert!(!recovered.fell_back && recovered.frames.is_empty());
        drop(store);
        assert!(dir_files(&dir) == before, "open changed the store");

        // The next checkpoint retires everything but its fallback.
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(3)).unwrap();
        assert_eq!(names(&dir), [JOURNAL_FILE, "snap-3.img", "snap-4.img"]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dsgsnap2_store_is_refused_before_its_frames_are_replayed() {
        // A store as the older format left it: a manifest, a snapshot
        // whose CRC checks over a `DSGSNAP2` payload, and a journal.
        let dir = temp_store_dir();
        fs::create_dir_all(&dir).unwrap();
        let payload = dsgsnap2_payload(&tiny_image(5));
        let mut snapshot = Vec::new();
        put_u64(&mut snapshot, payload.len() as u64);
        put_u32(&mut snapshot, crc32(&payload));
        snapshot.extend_from_slice(&payload);
        fs::write(dir.join("snap-1.img"), &snapshot).unwrap();
        fs::write(dir.join("MANIFEST"), b"DSGMANI1 binding").unwrap();
        fs::write(dir.join(JOURNAL_FILE), [12, 0, 0, 0, 1, 2, 3, 4]).unwrap();
        let before = dir_files(&dir);
        match DurableStore::open(&dir, PersistConfig::default()) {
            Err(PersistError::CorruptSnapshot { detail }) => {
                assert!(detail.contains("DSGSNAP2"), "{detail}")
            }
            other => panic!("a DSGSNAP2 store opened: {other:?}"),
        }
        assert!(dir_files(&dir) == before, "the refusal changed the store");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_snapshot_damaged_is_refused_typed() {
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        store.checkpoint(&tiny_image(1)).unwrap();
        drop(store);
        // Garbage in the newest, a binding naming another seq in the older
        // (a valid file copied under the wrong name).
        fs::copy(dir.join("snap-2.img"), dir.join("snap-1.img")).unwrap();
        fs::write(dir.join("snap-2.img"), b"garbage").unwrap();
        match DurableStore::open(&dir, PersistConfig::default()) {
            Err(PersistError::CorruptSnapshot { detail }) => {
                assert!(
                    detail.starts_with("snap-2.img"),
                    "the newest's error: {detail}"
                )
            }
            other => panic!("a store of damaged snapshots opened: {other:?}"),
        }
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
        assert_eq!(
            store.append_chunk(&[Request::Tick(1)], false),
            Err(PersistError::AppendBeforeCheckpoint)
        );
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
    fn rollback_after_a_failed_cadence_sync_lands_on_the_frame_start() {
        // The guard covers the checkpoint too: other tests arm `io.snapshot`.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let config = PersistConfig::default().with_fsync_every(1);
        let (mut store, _) = DurableStore::open(&dir, config).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        let frame_start = store.journal_len();

        failpoint::arm(failpoint::IO_SYNC, 1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.append_chunk(&[Request::Tick(2)], false)
        }));
        failpoint::disarm_all();
        assert!(failed.is_err(), "the armed fail point must fire");
        // The whole frame reached the file, but its fsync failed, so it
        // was never counted: the journal length is where it began.
        assert!(fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() > frame_start);
        assert_eq!(store.journal_len(), frame_start);
        store.rollback().unwrap();
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            frame_start
        );
        store.append_chunk(&[Request::Tick(3)], false).unwrap();
        drop(store);
        let scanned = read_journal(&dir).unwrap();
        assert_eq!(
            scanned.frames,
            vec![vec![Request::Tick(1)], vec![Request::Tick(3)]]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retraction_takes_back_only_the_last_frame_behind_no_binding() {
        // The guard covers the checkpoints: other tests arm `io.snapshot`.
        let _guard = failpoint::exclusive();
        let dir = temp_store_dir();
        let (mut store, _) = DurableStore::open(&dir, PersistConfig::default()).unwrap();
        store.checkpoint(&tiny_image(0)).unwrap();
        store.append_chunk(&[Request::Tick(1)], false).unwrap();
        let kept = store.journal_len();
        store.append_chunk(&[Request::Tick(2)], false).unwrap();
        store.retract_last_frame().unwrap();
        assert_eq!(store.journal_len(), kept);
        assert_eq!(fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), kept);
        // Only the last frame: the one before it stays.
        assert!(store.retract_last_frame().is_err());
        // Appending continues on the frame boundary.
        store.append_chunk(&[Request::Tick(3)], false).unwrap();
        // A checkpoint binds the journal's end: nothing behind it can go.
        store.checkpoint(&tiny_image(3)).unwrap();
        assert!(store.retract_last_frame().is_err());
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
