//! Fuzzing the on-disk decoders: the snapshot payload
//! ([`decode_snapshot`]), the snapshot file header
//! ([`parse_snapshot_file`]), the journal frame payload
//! ([`decode_payload`]) and the journal scanner ([`scan`]).
//!
//! Each property feeds a decoder arbitrary bytes, or random edits of a
//! valid encoding, and requires it to decode or to refuse with its typed
//! [`PersistError`] — never to panic. A decoder that sized an allocation
//! by a count it had not checked against the remaining bytes would abort
//! the process on the first count near 2^60 a mutation produces; the
//! hand-made 2^60 claims are in the image tests. A snapshot that decodes
//! must also survive a round trip: re-encoding it and decoding again gives
//! the same image. And it must restore: an engine rebuilt from it captures
//! the same nodes, or the restore refuses it with a [`DsgError`] — never a
//! panic.
//!
//! [`DsgError`]: crate::DsgError

use super::image::{begin_snapshot_file, parse_snapshot_file, seal_snapshot_file};
use super::journal::{decode_payload, encode_frame, scan};
use super::{decode_snapshot, encode_snapshot, EngineImage, PersistError};
use crate::request::Request;
use crate::DynamicSkipGraph;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Valid snapshot payloads to mutate: a served gated engine (sketch
/// section, dummies, restructured state) and an ungated one.
fn snapshots() -> &'static [Vec<u8>] {
    static SNAPSHOTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let served = |gated: bool| {
            let mut builder = crate::DsgSession::builder().peers(0..24).seed(9);
            if gated {
                builder = builder.policy(crate::config::PolicyConfig::gated().with_threshold(1));
            }
            let mut session = builder.build().unwrap();
            for i in 0..20u64 {
                session
                    .submit(Request::communicate(i % 24, (i * 7 + 3) % 24))
                    .unwrap();
            }
            encode_snapshot(&session.engine().capture_image())
        };
        vec![served(true), served(false)]
    })
}

/// A valid frame payload to mutate: one request of every kind.
fn frame_payload(brownout: bool) -> Vec<u8> {
    let mut frame = Vec::new();
    let chunk = [
        Request::Communicate { u: 3, v: 700 },
        Request::Join(1 << 40),
        Request::Leave(5),
        Request::Tick(u64::MAX),
    ];
    encode_frame(&chunk, brownout, &mut frame);
    frame.split_off(8)
}

/// Applies `edits` to `bytes`: each `(position, value)` overwrites a byte,
/// inserts one (value ≥ 256) or deletes one (value ≥ 512); positions wrap.
fn mutate(bytes: &[u8], edits: &[(usize, u32)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(pos, value) in edits {
        let pos = pos % (out.len() + 1);
        match value {
            0..=255 if pos < out.len() => out[pos] = value as u8,
            0..=255 => out.push(value as u8),
            256..=511 => out.insert(pos, value as u8),
            _ if pos < out.len() => {
                out.remove(pos);
            }
            _ => {}
        }
    }
    out
}

fn to_bytes(values: &[u32]) -> Vec<u8> {
    values.iter().map(|&v| v as u8).collect()
}

/// Runs `decode` on `bytes`, failing on a panic or an error `typed`
/// rejects; returns the decoded value, if any.
fn typed_or_ok<T>(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, PersistError>,
    typed: impl Fn(&PersistError) -> bool,
) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(|| decode(bytes))) {
        Ok(Ok(value)) => Some(value),
        Ok(Err(e)) if typed(&e) => None,
        Ok(Err(e)) => panic!("{what}: untyped error {e:?} for {bytes:?}"),
        Err(_) => panic!("{what}: the decoder panicked on {bytes:?}"),
    }
}

fn snapshot_error(e: &PersistError) -> bool {
    matches!(e, PersistError::CorruptSnapshot { .. })
}

fn frame_error(e: &PersistError) -> bool {
    matches!(e, PersistError::CorruptFrame { .. })
}

/// Decodes a snapshot payload and, when it decodes, checks the round trip
/// and the restore.
fn check_snapshot(what: &str, bytes: &[u8]) {
    if let Some(image) = typed_or_ok(what, bytes, decode_snapshot, snapshot_error) {
        let again: EngineImage = decode_snapshot(&encode_snapshot(&image)).unwrap();
        assert_eq!(again, image, "{what}: the round trip changed the image");
        match catch_unwind(AssertUnwindSafe(|| DynamicSkipGraph::restore_image(&image))) {
            Ok(Ok(engine)) => assert_eq!(
                engine.capture_image().nodes,
                image.nodes,
                "{what}: the restored engine holds other nodes"
            ),
            Ok(Err(_)) => {}
            Err(_) => panic!("{what}: the restore panicked on {bytes:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_decode_or_are_refused_typed(
        raw in collection::vec(0u32..256, 0..300),
        which in 0usize..2,
        keep in 0usize..400,
    ) {
        let raw = to_bytes(&raw);
        check_snapshot("raw snapshot", &raw);
        typed_or_ok("raw file", &raw, |b| parse_snapshot_file(b).map(drop), snapshot_error);
        typed_or_ok("raw frame", &raw, |b| decode_payload(b, 0), frame_error);
        typed_or_ok("raw journal", &raw, |b| scan(b, 0), frame_error);
        // Behind a valid magic and configuration (and sketch), where the
        // node section's varints and counts start.
        let valid = &snapshots()[which];
        let mut tail = valid[..keep.min(valid.len())].to_vec();
        tail.extend_from_slice(&raw);
        check_snapshot("valid prefix + raw", &tail);
    }

    #[test]
    fn mutated_snapshots_decode_or_are_refused_typed(
        which in 0usize..2,
        edits in collection::vec((0usize..1 << 20, 0u32..600), 1..6),
        cut in 0usize..1 << 20,
    ) {
        let valid = &snapshots()[which];
        // Aim half the edits at the node section, behind the sketch.
        let edits: Vec<(usize, u32)> = edits
            .iter()
            .enumerate()
            .map(|(i, &(pos, v))| {
                let tail = valid.len() - 1 - pos % 400.min(valid.len());
                (if i % 2 == 0 { tail } else { pos }, v)
            })
            .collect();
        let mutated = mutate(valid, &edits);
        check_snapshot("mutated snapshot", &mutated);
        check_snapshot("cut snapshot", &mutated[..cut % (mutated.len() + 1)]);
    }

    #[test]
    fn mutated_snapshot_files_decode_or_are_refused_typed(
        edits in collection::vec((0usize..1 << 20, 0u32..600), 0..4),
        seq in 0u64..1 << 40,
        reseal in 0usize..2,
    ) {
        let mut file = Vec::new();
        begin_snapshot_file(&mut file, seq, seq * 3);
        file.extend_from_slice(&snapshots()[1]);
        seal_snapshot_file(&mut file, 0, 0);
        let parsed = parse_snapshot_file(&file).unwrap();
        prop_assert_eq!((parsed.seq, parsed.offset), (seq, seq * 3));
        // Edit the file; resealing recomputes the length and CRC, so the
        // edit reaches the binding and payload parse behind them.
        let mut mutated = mutate(&file, &edits);
        if reseal == 1 && mutated.len() >= 12 {
            seal_snapshot_file(&mut mutated, 0, 0);
        }
        let payload = |b: &[u8]| parse_snapshot_file(b).map(|file| file.payload.to_vec());
        if let Some(payload) = typed_or_ok("mutated file", &mutated, payload, snapshot_error) {
            check_snapshot("mutated file payload", &payload);
        }
    }

    #[test]
    fn mutated_frame_payloads_decode_or_are_refused_typed(
        brownout in 0usize..2,
        edits in collection::vec((0usize..64, 0u32..600), 1..5),
    ) {
        let valid = frame_payload(brownout == 1);
        prop_assert_eq!(decode_payload(&valid, 0).unwrap().1, brownout == 1);
        let mutated = mutate(&valid, &edits);
        typed_or_ok("mutated frame", &mutated, |b| decode_payload(b, 0), frame_error);
    }
}
