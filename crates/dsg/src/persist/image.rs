//! The serialized engine image: everything
//! [`DynamicSkipGraph::restore_image`](crate::DynamicSkipGraph::restore_image)
//! needs to rebuild an engine that *behaves* identically to the captured
//! one.
//!
//! The image is deliberately **key-addressed**: nodes are stored in
//! ascending internal-key order and `NodeId`s are not serialized at all.
//! Every result-affecting path in the engine orders by key, prefix, or
//! level (`NodeId`-keyed containers are lookup-only), so a restore that
//! re-inserts nodes in key order — receiving fresh, dense ids — replays
//! the same behaviour bit for bit. The `tests/common` comparators are
//! key-based for the same reason.
//!
//! What must be captured *exactly*, beyond the obvious links and
//! membership vectors:
//!
//! * the raw per-node state vectors verbatim ([`NodeState::raw_parts`]):
//!   their stored *lengths* are observable (the unbounded common-group
//!   scan reads `stored_group_levels`), so trailing entries holding
//!   default values must survive;
//! * the logical clock — timestamps of future requests depend on it;
//! * the engine RNG's full internal state — replayed `Join` requests draw
//!   membership-vector bits from it, and recovery replays joins;
//! * the [`DsgConfig`] — the restored engine must plan with the captured
//!   `a`, seed, shard count, and strategies, not whatever the reopening
//!   process happens to pass.
//!
//! Run statistics and pooled scratch are deliberately *not* captured: they
//! restart at zero/empty, exactly like the metrics of a restarted process,
//! and nothing behavioural reads them.
//!
//! A payload is a *prefix* — the magic, the configuration, the sketch
//! section, the clock and the RNG state — followed by the *node section*:
//! the node count, then every node in ascending key order. Each part has
//! one encoder (`encode_prefix`, `NodeFields::encode`) that both the
//! [`EngineImage`] path and the engine-direct path (the engine's
//! `encode_snapshot_prefix` / `encode_snapshot_nodes`, behind
//! [`DurableStore::checkpoint_engine`]) call, so the two write the same
//! bytes by construction.
//!
//! [`DurableStore::checkpoint_engine`]: crate::DurableStore::checkpoint_engine
//! [`NodeState::raw_parts`]: crate::NodeState::raw_parts

use super::{put_u32, put_u64, PersistError, Reader};
use crate::config::{AdaptPolicy, DsgConfig, InstallStrategy, MedianStrategy, PolicyConfig};
use crate::policy::{SketchImage, SketchView};
use dsg_skipgraph::crc32::{crc32, crc32_combine};

/// Leading magic of a snapshot payload. Version 2 added the adaptation
/// policy: the `PolicyConfig` fields in the config section and an optional
/// frequency-sketch section (present exactly when the policy is gated).
/// Version bumps are deliberate incompatibilities — the decoder rejects
/// other versions rather than guessing at field layouts.
const MAGIC: &[u8; 8] = b"DSGSNAP2";

/// A serializable image of one graph node (peer or dummy) and its
/// self-adjusting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeImage {
    /// The node's *internal* key (peer keys are spaced by `KEY_SPACING`;
    /// dummies sit in between).
    pub key: u64,
    /// Whether the node is a routing-only dummy.
    pub dummy: bool,
    /// Membership-vector bits for levels `1..=len`, one `0`/`1` byte each.
    pub mvec_bits: Vec<u8>,
    /// The state's group-base `B^x`.
    pub group_base: u64,
    /// Raw stored timestamp vector, length preserved verbatim.
    pub timestamps: Vec<u64>,
    /// Raw stored group-id vector, length preserved verbatim.
    pub group_ids: Vec<u64>,
    /// Raw stored dominating-flag vector, length preserved verbatim.
    pub dominating: Vec<bool>,
}

/// A full serialized engine: the payload of a snapshot checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineImage {
    /// The engine configuration at capture time.
    pub config: DsgConfig,
    /// The logical clock at capture time.
    pub time: u64,
    /// The engine RNG's internal state (xoshiro256++ words).
    pub rng_state: [u64; 4],
    /// Every live node in ascending internal-key order.
    pub nodes: Vec<NodeImage>,
    /// The adaptation-policy frequency sketch, captured exactly when the
    /// config's policy is gated — restart-replay must resume admission
    /// decisions from the same counters, or replayed epochs could gate
    /// differently than the original run did.
    pub sketch: Option<SketchImage>,
}

fn median_tag(m: MedianStrategy) -> u8 {
    match m {
        MedianStrategy::Amf => 0,
        MedianStrategy::Exact => 1,
    }
}

fn install_tag(i: InstallStrategy) -> u8 {
    match i {
        InstallStrategy::Batched => 0,
        InstallStrategy::PerNode => 1,
    }
}

fn policy_tag(p: AdaptPolicy) -> u8 {
    match p {
        AdaptPolicy::Always => 0,
        AdaptPolicy::Gated => 1,
    }
}

/// Encodes an image into the checkpoint payload (magic-led, CRC applied by
/// the file envelope in the store).
pub fn encode_snapshot(image: &EngineImage) -> Vec<u8> {
    let mut buf = Vec::new();
    image.encode_prefix(&mut buf);
    image.encode_nodes(&mut buf);
    buf
}

impl EngineImage {
    /// Appends the payload prefix of the image to `buf`.
    pub(crate) fn encode_prefix(&self, buf: &mut Vec<u8>) {
        encode_prefix(
            &self.config,
            self.sketch.as_ref().map(SketchImage::view),
            self.time,
            self.rng_state,
            buf,
        );
    }

    /// Appends the node section of the image to `buf`.
    pub(crate) fn encode_nodes(&self, buf: &mut Vec<u8>) {
        buf.reserve(8 + self.nodes.len() * 64);
        put_u64(buf, self.nodes.len() as u64);
        for node in &self.nodes {
            NodeFields {
                key: node.key,
                dummy: node.dummy,
                mvec_bits: &node.mvec_bits,
                group_base: node.group_base,
                timestamps: &node.timestamps,
                group_ids: &node.group_ids,
                dominating: &node.dominating,
            }
            .encode(buf);
        }
    }
}

/// Appends a payload prefix to `buf`: the magic, the configuration, the
/// sketch section (present exactly when `sketch` is), the logical clock and
/// the RNG state.
pub(crate) fn encode_prefix(
    config: &DsgConfig,
    sketch: Option<SketchView<'_>>,
    time: u64,
    rng_state: [u64; 4],
    buf: &mut Vec<u8>,
) {
    buf.extend_from_slice(MAGIC);
    put_u64(buf, config.a as u64);
    buf.push(median_tag(config.median));
    put_u64(buf, config.seed);
    buf.push(config.maintain_balance as u8);
    buf.push(install_tag(config.install));
    put_u64(buf, config.shards as u64);
    buf.push(config.adaptive_flush as u8);
    buf.push(policy_tag(config.policy.policy));
    put_u32(buf, config.policy.threshold);
    put_u32(buf, config.policy.epoch_budget);
    put_u64(buf, config.policy.aging_period);
    match sketch {
        Some(sketch) => {
            buf.push(1);
            sketch.encode(buf);
        }
        None => buf.push(0),
    }
    put_u64(buf, time);
    for word in rng_state {
        put_u64(buf, word);
    }
}

/// One node as a payload encodes it, borrowed from a [`NodeImage`] or
/// straight from an engine's graph and state table.
pub(crate) struct NodeFields<'a> {
    pub(crate) key: u64,
    pub(crate) dummy: bool,
    /// Membership-vector bits from level 1 upward, one `0`/`1` byte each.
    pub(crate) mvec_bits: &'a [u8],
    pub(crate) group_base: u64,
    pub(crate) timestamps: &'a [u64],
    pub(crate) group_ids: &'a [u64],
    pub(crate) dominating: &'a [bool],
}

impl NodeFields<'_> {
    /// Appends the node to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.key);
        buf.push(self.dummy as u8);
        put_u32(buf, self.mvec_bits.len() as u32);
        buf.extend_from_slice(self.mvec_bits);
        put_u64(buf, self.group_base);
        put_u32(buf, self.timestamps.len() as u32);
        for &t in self.timestamps {
            put_u64(buf, t);
        }
        put_u32(buf, self.group_ids.len() as u32);
        for &g in self.group_ids {
            put_u64(buf, g);
        }
        put_u32(buf, self.dominating.len() as u32);
        buf.extend(self.dominating.iter().map(|&d| d as u8));
    }
}

/// Encoded size of a node with empty vectors: key (8), dummy flag (1),
/// group base (8) and four length words (4 each).
const MIN_NODE_BYTES: usize = 33;

fn corrupt(detail: &str) -> PersistError {
    PersistError::CorruptSnapshot {
        detail: detail.to_string(),
    }
}

/// Decodes a checkpoint payload back into an [`EngineImage`].
///
/// # Errors
///
/// Returns [`PersistError::CorruptSnapshot`] on any structural problem:
/// bad magic, truncated payload, invalid tags, out-of-order keys, or
/// trailing bytes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineImage, PersistError> {
    let mut r = Reader::new(bytes);
    if r.bytes(MAGIC.len())
        .map_err(|_| corrupt("truncated magic"))?
        != MAGIC
    {
        return Err(corrupt("bad magic"));
    }
    let short = |_| corrupt("payload ran out of bytes");
    let a = r.u64().map_err(short)? as usize;
    let median = match r.u8().map_err(short)? {
        0 => MedianStrategy::Amf,
        1 => MedianStrategy::Exact,
        tag => return Err(corrupt(&format!("unknown median strategy tag {tag}"))),
    };
    let seed = r.u64().map_err(short)?;
    let maintain_balance = match r.u8().map_err(short)? {
        0 => false,
        1 => true,
        tag => return Err(corrupt(&format!("bad maintain_balance byte {tag}"))),
    };
    let install = match r.u8().map_err(short)? {
        0 => InstallStrategy::Batched,
        1 => InstallStrategy::PerNode,
        tag => return Err(corrupt(&format!("unknown install strategy tag {tag}"))),
    };
    let shards = r.u64().map_err(short)? as usize;
    let adaptive_flush = match r.u8().map_err(short)? {
        0 => false,
        1 => true,
        tag => return Err(corrupt(&format!("bad adaptive_flush byte {tag}"))),
    };
    let policy = match r.u8().map_err(short)? {
        0 => AdaptPolicy::Always,
        1 => AdaptPolicy::Gated,
        tag => return Err(corrupt(&format!("unknown adapt policy tag {tag}"))),
    };
    let threshold = r.u32().map_err(short)?;
    let epoch_budget = r.u32().map_err(short)?;
    let aging_period = r.u64().map_err(short)?;
    if aging_period == 0 {
        return Err(corrupt("zero sketch aging period"));
    }
    let sketch = match r.u8().map_err(short)? {
        0 => None,
        1 => Some(
            SketchImage::decode(&mut r)
                .map_err(|_| corrupt("malformed frequency-sketch section"))?,
        ),
        tag => return Err(corrupt(&format!("bad sketch-present byte {tag}"))),
    };
    if a < 2 {
        return Err(corrupt(&format!("balance parameter a = {a} below 2")));
    }
    if shards == 0 {
        return Err(corrupt("zero plan shards"));
    }
    let config = DsgConfig {
        a,
        median,
        seed,
        maintain_balance,
        install,
        shards,
        adaptive_flush,
        policy: PolicyConfig {
            policy,
            threshold,
            epoch_budget,
            aging_period,
        },
    };
    let time = r.u64().map_err(short)?;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64().map_err(short)?;
    }
    let count = r.u64().map_err(short)?;
    if count > (r.remaining() / MIN_NODE_BYTES) as u64 {
        // More nodes than the remaining bytes can hold is corruption,
        // caught before the allocation.
        return Err(corrupt(&format!("implausible node count {count}")));
    }
    let mut nodes = Vec::with_capacity(count as usize);
    let mut last_key: Option<u64> = None;
    for _ in 0..count {
        let key = r.u64().map_err(short)?;
        if let Some(prev) = last_key {
            if key <= prev {
                return Err(corrupt(&format!(
                    "node keys out of order: {key} after {prev}"
                )));
            }
        }
        last_key = Some(key);
        let dummy = match r.u8().map_err(short)? {
            0 => false,
            1 => true,
            tag => return Err(corrupt(&format!("bad dummy byte {tag}"))),
        };
        let mvec_len = r.u32().map_err(short)? as usize;
        let mvec_bits = r.bytes(mvec_len).map_err(short)?.to_vec();
        if mvec_bits.iter().any(|&b| b > 1) {
            return Err(corrupt("membership-vector byte is not 0/1"));
        }
        let group_base = r.u64().map_err(short)?;
        let ts_len = r.u32().map_err(short)? as usize;
        let mut timestamps = Vec::with_capacity(ts_len.min(r.remaining() / 8));
        for _ in 0..ts_len {
            timestamps.push(r.u64().map_err(short)?);
        }
        let gid_len = r.u32().map_err(short)? as usize;
        let mut group_ids = Vec::with_capacity(gid_len.min(r.remaining() / 8));
        for _ in 0..gid_len {
            group_ids.push(r.u64().map_err(short)?);
        }
        let dom_len = r.u32().map_err(short)? as usize;
        let dom_bytes = r.bytes(dom_len).map_err(short)?;
        if dom_bytes.iter().any(|&b| b > 1) {
            return Err(corrupt("dominating byte is not 0/1"));
        }
        let dominating = dom_bytes.iter().map(|&b| b == 1).collect();
        nodes.push(NodeImage {
            key,
            dummy,
            mvec_bits,
            group_base,
            timestamps,
            group_ids,
            dominating,
        });
    }
    if !r.is_at_end() {
        return Err(corrupt("trailing bytes after the last node"));
    }
    Ok(EngineImage {
        config,
        time,
        rng_state,
        nodes,
        sketch,
    })
}

/// Length of the file envelope's header: `[len: u64 LE][crc32: u32 LE]`.
const ENVELOPE_HEADER: usize = 12;

/// Clears `buf` and reserves the envelope header; the payload is then
/// appended in place and [`seal_envelope`] fills the header in.
pub(crate) fn begin_envelope(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(ENVELOPE_HEADER, 0);
}

/// Patches the header reserved by [`begin_envelope`] with the length and
/// CRC-32 of the payload that follows it.
pub(crate) fn seal_envelope(buf: &mut [u8]) {
    seal_split_envelope(buf, 0, 0);
}

/// [`seal_envelope`] for a payload written in two parts: the part behind
/// the header in `buf`, then `tail_len` bytes from another buffer whose
/// CRC-32 is `tail_crc` (a snapshot's node section). The tail is not read:
/// its checksum is joined to the first part's with [`crc32_combine`].
pub(crate) fn seal_split_envelope(buf: &mut [u8], tail_len: usize, tail_crc: u32) {
    let (header, head) = buf.split_at_mut(ENVELOPE_HEADER);
    let len = (head.len() + tail_len) as u64;
    let crc = crc32_combine(crc32(head), tail_crc, tail_len as u64);
    header[..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc.to_le_bytes());
}

/// Wraps a payload in the CRC-checked file envelope shared by snapshot and
/// manifest files: `[len: u64 LE][crc32: u32 LE][payload]`.
pub(crate) fn wrap_file(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    begin_envelope(&mut buf);
    buf.extend_from_slice(payload);
    seal_envelope(&mut buf);
    buf
}

/// Unwraps and verifies the file envelope written by [`wrap_file`],
/// reporting failures through `make_err` (snapshot vs manifest flavour).
pub(crate) fn unwrap_file(
    bytes: &[u8],
    make_err: impl Fn(&str) -> PersistError,
) -> Result<&[u8], PersistError> {
    let mut r = Reader::new(bytes);
    let len = r.u64().map_err(|_| make_err("missing length header"))?;
    let crc = r.u32().map_err(|_| make_err("missing checksum header"))?;
    let payload = r
        .bytes(len as usize)
        .map_err(|_| make_err("payload shorter than its declared length"))?;
    if !r.is_at_end() {
        return Err(make_err("trailing bytes after the payload"));
    }
    if crc32(payload) != crc {
        return Err(make_err("checksum mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::super::assert_cuts_and_flips_are_typed;
    use super::*;

    fn sample_image() -> EngineImage {
        EngineImage {
            config: DsgConfig::default()
                .with_seed(0xFEED)
                .with_shards(4)
                .with_adaptive_flush(true),
            time: 421,
            rng_state: [1, 2, 3, u64::MAX],
            nodes: vec![
                NodeImage {
                    key: 1 << 20,
                    dummy: false,
                    mvec_bits: vec![0, 1, 1],
                    group_base: 3,
                    timestamps: vec![0, 7, 9],
                    group_ids: vec![5, 5, 1 << 20],
                    dominating: vec![true, false],
                },
                NodeImage {
                    key: (1 << 20) + 17,
                    dummy: true,
                    mvec_bits: vec![1],
                    group_base: 1,
                    timestamps: Vec::new(),
                    group_ids: Vec::new(),
                    dominating: Vec::new(),
                },
            ],
            sketch: None,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let image = sample_image();
        let bytes = encode_snapshot(&image);
        assert_eq!(decode_snapshot(&bytes).unwrap(), image);
    }

    #[test]
    fn gated_snapshot_round_trips_with_sketch() {
        use crate::policy::{FreqSketch, SKETCH_ROWS, SKETCH_WIDTH};
        let mut image = sample_image();
        image.config = image.config.with_policy(
            PolicyConfig::gated()
                .with_threshold(5)
                .with_epoch_budget(2)
                .with_aging_period(512),
        );
        let mut sketch = FreqSketch::new(image.config.seed, 512);
        for i in 0..40u64 {
            sketch.stage_increment(FreqSketch::pair_key(i % 5, 7 + i % 3));
        }
        sketch.commit();
        image.sketch = Some(sketch.to_image());
        let bytes = encode_snapshot(&image);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, image);
        assert_eq!(
            decoded.sketch.as_ref().unwrap().counters.len(),
            SKETCH_ROWS * SKETCH_WIDTH
        );
    }

    #[test]
    fn version_1_snapshots_are_rejected() {
        let mut bytes = encode_snapshot(&sample_image());
        bytes[..8].copy_from_slice(b"DSGSNAP1");
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn truncations_and_trailing_bytes_are_rejected() {
        let bytes = encode_snapshot(&sample_image());
        for cut in [0, 4, MAGIC.len(), bytes.len() - 1] {
            assert!(
                matches!(
                    decode_snapshot(&bytes[..cut]),
                    Err(PersistError::CorruptSnapshot { .. })
                ),
                "cut at {cut} must be rejected"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            decode_snapshot(&longer),
            Err(PersistError::CorruptSnapshot { .. })
        ));
    }

    fn corrupt_snapshot(e: &PersistError) -> bool {
        matches!(e, PersistError::CorruptSnapshot { .. })
    }

    #[test]
    fn every_truncation_and_bit_flip_decodes_or_is_refused_typed() {
        let bytes = encode_snapshot(&sample_image());
        assert_cuts_and_flips_are_typed(&bytes, 0..bytes.len(), decode_snapshot, corrupt_snapshot);
    }

    #[test]
    fn gated_snapshot_sketch_fields_truncated_or_flipped_are_typed() {
        use crate::policy::{FreqSketch, SKETCH_ROWS, SKETCH_WIDTH};
        let mut image = sample_image();
        image.config = image.config.with_policy(PolicyConfig::gated());
        image.sketch = Some(FreqSketch::new(image.config.seed, 4096).to_image());
        let bytes = encode_snapshot(&image);
        // The test above covers the fields an ungated image shares; here
        // the sketch section's own: its presence byte (offset 53, behind
        // the magic and the config), its length word, the two cursors
        // behind the counters, and a sample of the counters.
        let counters = SKETCH_ROWS * SKETCH_WIDTH;
        assert_eq!(bytes[53], 1);
        assert_eq!(bytes[54..62], (counters as u64).to_le_bytes());
        let cursors = 62 + counters * 4;
        let at = (53..62)
            .chain((62..cursors).step_by(4099))
            .chain(cursors..cursors + 16);
        assert_cuts_and_flips_are_typed(&bytes, at, decode_snapshot, corrupt_snapshot);
    }

    #[test]
    fn node_count_beyond_the_remaining_bytes_is_refused_before_allocating() {
        let mut image = sample_image();
        image.nodes.clear();
        let mut bytes = encode_snapshot(&image);
        // With no nodes the count word is the payload's last field. Ask
        // for one node more than the (zero) remaining bytes can hold, then
        // for as many as the old per-byte bound allowed.
        let at = bytes.len() - 8;
        for count in [1u64, bytes.len() as u64] {
            bytes[at..].copy_from_slice(&count.to_le_bytes());
            match decode_snapshot(&bytes) {
                Err(PersistError::CorruptSnapshot { detail }) => {
                    assert!(detail.contains("implausible node count"), "{detail}")
                }
                other => panic!("count {count}: unexpected {other:?}"),
            }
        }
        // 33 bytes per node is the floor: a count the remaining bytes can
        // hold gets past the check and fails on the node fields instead.
        bytes[at..].copy_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; MIN_NODE_BYTES]);
        assert_eq!(decode_snapshot(&bytes).unwrap().nodes.len(), 1);
    }

    #[test]
    fn out_of_order_keys_are_rejected() {
        let mut image = sample_image();
        image.nodes.swap(0, 1);
        assert!(matches!(
            decode_snapshot(&encode_snapshot(&image)),
            Err(PersistError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn file_envelope_detects_bit_flips() {
        let payload = encode_snapshot(&sample_image());
        let file = wrap_file(&payload);
        let make = |d: &str| PersistError::CorruptSnapshot {
            detail: d.to_string(),
        };
        assert_eq!(unwrap_file(&file, make).unwrap(), &payload[..]);
        for byte in [12usize, file.len() / 2, file.len() - 1] {
            let mut bad = file.clone();
            bad[byte] ^= 0x40;
            assert!(
                unwrap_file(&bad, make).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }
}
