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
//! bytes by construction. [`encode_snapshot`] documents the layout.
//!
//! A node holds O(log n) bits of state, and the layout spends about that:
//! a gated n = 1024 engine with ~1000 dummies encodes in ~80 KB.
//!
//! [`DurableStore::checkpoint_engine`]: crate::DurableStore::checkpoint_engine
//! [`NodeState::raw_parts`]: crate::NodeState::raw_parts

use super::{
    apply_zigzag, put_bits, put_u32, put_u64, put_varint, varint_len, zigzag_delta, PersistError,
    Reader,
};
use crate::config::{AdaptPolicy, DsgConfig, MedianStrategy, PolicyConfig};
use crate::policy::{SketchImage, SketchView};
use dsg_skipgraph::crc32::{crc32, crc32_combine};

/// Leading magic of a snapshot payload. Version 2 added the adaptation
/// policy: the `PolicyConfig` fields in the config section and an optional
/// frequency-sketch section (present exactly when the policy is gated).
/// Version 3 encodes the node and sketch sections with varints and packed
/// bits. Version bumps are deliberate incompatibilities — the decoder
/// rejects other versions rather than guessing at field layouts.
const MAGIC: &[u8; 8] = b"DSGSNAP3";

/// What every version's magic starts with.
const MAGIC_FAMILY: &[u8; 7] = b"DSGSNAP";

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

fn policy_tag(p: AdaptPolicy) -> u8 {
    match p {
        AdaptPolicy::Always => 0,
        AdaptPolicy::Gated => 1,
    }
}

/// Encodes an image into the checkpoint payload (magic-led; the store's
/// file header adds the binding and the CRC).
///
/// The layout (`DSGSNAP3`; "varint" is unsigned LEB128, "bits" are packed
/// eight per byte, low bit first, with zero padding):
///
/// * **prefix** — the magic; the configuration in fixed-width fields;
///   the sketch section, present exactly when the policy is gated: a
///   presence byte, the counter count, every counter and the two aging
///   cursors, all varints; the logical clock (u64); the four RNG words
///   (u64 each).
/// * **node section** — the node count (varint), then per node in
///   ascending key order:
///   * the key as a varint delta from the previous node's key (from 0 for
///     the first; a later zero delta is out of order);
///   * a varint of `membership length << 1 | dummy`, then the membership
///     bits;
///   * the group base (varint);
///   * a varint of `timestamp count << 1 | deltas`, then each timestamp as
///     a varint — or, when `deltas` is set, as the zigzag varint of its
///     difference from the previous level's (0 below level 0), whichever
///     form is smaller;
///   * the group-id count (varint), then per level the zigzag varint of the
///     id's difference from the previous level's id (the node's own key
///     below level 0): a single zero byte where the id repeats;
///   * the dominating-flag count (varint), then the flags as bits.
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
        buf.reserve(10 + self.nodes.len() * NODE_BYTES_HINT);
        put_varint(buf, self.nodes.len() as u64);
        let mut prev_key = 0;
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
            .encode(prev_key, buf);
            prev_key = node.key;
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
    // The retired maintain_balance option's byte, always 1.
    buf.push(1);
    // The retired install option's byte, always 0.
    buf.push(0);
    put_u64(buf, config.shards as u64);
    // The retired adaptive-flush option's byte, always 0.
    buf.push(0);
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

/// Typical encoded size of a node, for reserving the node section.
pub(crate) const NODE_BYTES_HINT: usize = 40;

impl NodeFields<'_> {
    /// Appends the node to `buf`; `prev_key` is the key of the node encoded
    /// before it (0 for the first).
    pub(crate) fn encode(&self, prev_key: u64, buf: &mut Vec<u8>) {
        put_varint(buf, self.key.wrapping_sub(prev_key));
        put_varint(
            buf,
            (self.mvec_bits.len() as u64) << 1 | u64::from(self.dummy),
        );
        put_bits(buf, self.mvec_bits.iter().map(|&bit| bit != 0));
        put_varint(buf, self.group_base);

        let mut prev = 0;
        let (mut plain, mut deltas) = (0, 0);
        for &t in self.timestamps {
            plain += varint_len(t);
            deltas += varint_len(zigzag_delta(prev, t));
            prev = t;
        }
        let use_deltas = deltas < plain;
        put_varint(
            buf,
            (self.timestamps.len() as u64) << 1 | u64::from(use_deltas),
        );
        let mut prev = 0;
        for &t in self.timestamps {
            put_varint(buf, if use_deltas { zigzag_delta(prev, t) } else { t });
            prev = t;
        }

        put_varint(buf, self.group_ids.len() as u64);
        let mut prev = self.key;
        for &g in self.group_ids {
            put_varint(buf, zigzag_delta(prev, g));
            prev = g;
        }

        put_varint(buf, self.dominating.len() as u64);
        put_bits(buf, self.dominating.iter().copied());
    }
}

/// Encoded size of a node with empty vectors: one varint byte each for
/// the key delta, the membership word, the group base and the three
/// counts.
const MIN_NODE_BYTES: usize = 6;

fn corrupt(detail: &str) -> PersistError {
    PersistError::CorruptSnapshot {
        detail: detail.to_string(),
    }
}

/// Checks a decoded count against `limit`, the most the remaining bytes
/// could hold, before anything is allocated for it.
fn bounded(count: u64, limit: usize, what: &str) -> Result<usize, PersistError> {
    if count > limit as u64 {
        return Err(corrupt(&format!("implausible {what} {count}")));
    }
    Ok(count as usize)
}

/// Decodes a checkpoint payload back into an [`EngineImage`].
///
/// # Errors
///
/// Returns [`PersistError::CorruptSnapshot`] on any structural problem:
/// bad magic or another version's (a `DSGSNAP2` payload among them),
/// truncated payload, malformed varints, invalid tags, counts the
/// remaining bytes cannot hold, out-of-order or overflowing keys, set
/// padding bits, or trailing bytes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineImage, PersistError> {
    let mut r = Reader::new(bytes);
    let magic = r
        .bytes(MAGIC.len())
        .map_err(|_| corrupt("truncated magic"))?;
    if magic != MAGIC {
        if magic.starts_with(MAGIC_FAMILY) {
            return Err(corrupt(&format!(
                "unsupported snapshot version {}; this build reads {} only",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(MAGIC)
            )));
        }
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
    match r.u8().map_err(short)? {
        1 => {}
        // A store written with the option off never repaired a-balance, so
        // replaying its journal with the repair would not rebuild its engine.
        0 => {
            return Err(corrupt(
                "written with the retired maintain_balance option off; its journal \
                 would replay into a different structure",
            ))
        }
        tag => return Err(corrupt(&format!("bad maintain_balance byte {tag}"))),
    }
    match r.u8().map_err(short)? {
        // Both install strategies built bit-identical structures, so a
        // store written with either replays exactly.
        0 | 1 => {}
        tag => return Err(corrupt(&format!("bad install byte {tag}"))),
    }
    let shards = r.u64().map_err(short)? as usize;
    match r.u8().map_err(short)? {
        0 => {}
        // A store written with the option on cut its epochs elsewhere, so
        // replaying its journal would not rebuild the engine it served.
        1 => {
            return Err(corrupt(
                "written with the retired adaptive_flush option on; its journal \
                 would replay into different epochs",
            ))
        }
        tag => return Err(corrupt(&format!("bad adaptive_flush byte {tag}"))),
    }
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
        shards,
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
    let count = r.varint().map_err(|_| corrupt("malformed node count"))?;
    let count = bounded(count, r.remaining() / MIN_NODE_BYTES, "node count")?;
    let mut nodes: Vec<NodeImage> = Vec::with_capacity(count);
    for _ in 0..count {
        let node = decode_node(&mut r, nodes.last().map(|node| node.key))?;
        nodes.push(node);
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

/// Decodes one node written by [`NodeFields::encode`]; `prev_key` is the
/// previous node's key (`None` for the first).
fn decode_node(r: &mut Reader<'_>, prev_key: Option<u64>) -> Result<NodeImage, PersistError> {
    let short = |_| corrupt("node ran out of bytes or holds a malformed varint");
    let delta = r.varint().map_err(short)?;
    let key = match prev_key {
        None => delta,
        Some(prev) if delta == 0 => {
            return Err(corrupt(&format!(
                "node keys out of order: a zero delta after {prev}"
            )))
        }
        Some(prev) => prev
            .checked_add(delta)
            .ok_or_else(|| corrupt(&format!("node key overflows: {prev} + {delta}")))?,
    };
    let word = r.varint().map_err(short)?;
    let dummy = word & 1 == 1;
    let mvec_len = bounded(
        word >> 1,
        r.remaining().saturating_mul(8),
        "membership length",
    )?;
    let mvec_bits = r
        .bits(mvec_len)
        .map_err(|_| corrupt("membership bits cut short or padded with ones"))?
        .map(u8::from)
        .collect();
    let group_base = r.varint().map_err(short)?;

    let word = r.varint().map_err(short)?;
    let deltas = word & 1 == 1;
    let ts_len = bounded(word >> 1, r.remaining(), "timestamp count")?;
    let mut timestamps = Vec::with_capacity(ts_len);
    let mut prev = 0;
    for _ in 0..ts_len {
        let v = r.varint().map_err(short)?;
        prev = if deltas { apply_zigzag(prev, v) } else { v };
        timestamps.push(prev);
    }

    let gid_len = r.varint().map_err(short)?;
    let gid_len = bounded(gid_len, r.remaining(), "group-id count")?;
    let mut group_ids = Vec::with_capacity(gid_len);
    let mut prev = key;
    for _ in 0..gid_len {
        prev = apply_zigzag(prev, r.varint().map_err(short)?);
        group_ids.push(prev);
    }

    let dom_len = r.varint().map_err(short)?;
    let dom_len = bounded(dom_len, r.remaining().saturating_mul(8), "dominating count")?;
    let dominating = r
        .bits(dom_len)
        .map_err(|_| corrupt("dominating flags cut short or padded with ones"))?
        .collect();
    Ok(NodeImage {
        key,
        dummy,
        mvec_bits,
        group_base,
        timestamps,
        group_ids,
        dominating,
    })
}

/// Length of a snapshot file's header, `[len: u64 LE][crc32: u32 LE]`.
const FILE_HEADER: usize = 12;

/// Clears `buf` and starts a snapshot file in it: a reserved header, then
/// the binding `[seq u64][journal offset u64]` the CRC covers. The payload
/// is then appended in place and [`seal_snapshot_file`] fills the header
/// in.
pub(crate) fn begin_snapshot_file(buf: &mut Vec<u8>, seq: u64, offset: u64) {
    buf.clear();
    buf.resize(FILE_HEADER, 0);
    put_u64(buf, seq);
    put_u64(buf, offset);
}

/// Patches the header reserved by [`begin_snapshot_file`] with the length
/// and CRC-32 of everything behind it: the part in `buf`, then `tail_len`
/// bytes from another buffer whose CRC-32 is `tail_crc` (a snapshot's node
/// section). The tail is not read: its checksum is joined to the first
/// part's with [`crc32_combine`].
pub(crate) fn seal_snapshot_file(buf: &mut [u8], tail_len: usize, tail_crc: u32) {
    let (header, head) = buf.split_at_mut(FILE_HEADER);
    let len = (head.len() + tail_len) as u64;
    let crc = crc32_combine(crc32(head), tail_crc, tail_len as u64);
    header[..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc.to_le_bytes());
}

/// A snapshot file whose length and CRC checked: its binding and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotFile<'a> {
    /// The sequence number the file was written under.
    pub(crate) seq: u64,
    /// The journal offset its replay starts from.
    pub(crate) offset: u64,
    /// The `DSGSNAP3` payload, not yet decoded.
    pub(crate) payload: &'a [u8],
}

/// Verifies a snapshot file's length and CRC and splits off its binding.
///
/// # Errors
///
/// [`PersistError::CorruptSnapshot`] for a missing or short header, a
/// length that disagrees with the file, a checksum mismatch, or a file in
/// the older `DSGSNAP2` layout, which had no binding.
pub(crate) fn parse_snapshot_file(bytes: &[u8]) -> Result<SnapshotFile<'_>, PersistError> {
    let mut r = Reader::new(bytes);
    let len = r.u64().map_err(|_| corrupt("missing length header"))?;
    let crc = r.u32().map_err(|_| corrupt("missing checksum header"))?;
    if len != r.remaining() as u64 {
        return Err(corrupt(&format!(
            "the header declares {len} bytes but {} follow",
            r.remaining()
        )));
    }
    let body = &bytes[FILE_HEADER..];
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    if body.starts_with(MAGIC_FAMILY) {
        return Err(corrupt(&format!(
            "a {} file without a binding header; this build reads {} only",
            String::from_utf8_lossy(&body[..MAGIC.len().min(body.len())]),
            String::from_utf8_lossy(MAGIC)
        )));
    }
    let mut r = Reader::new(body);
    let short = |_| corrupt("binding header cut short");
    let seq = r.u64().map_err(short)?;
    let offset = r.u64().map_err(short)?;
    Ok(SnapshotFile {
        seq,
        offset,
        payload: &body[16..],
    })
}

#[cfg(test)]
mod tests {
    use super::super::{assert_cuts_and_flips_are_typed, dsgsnap2_payload};
    use super::*;

    fn sample_image() -> EngineImage {
        EngineImage {
            config: DsgConfig::default().with_seed(0xFEED).with_shards(4),
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
                // Timestamps that encode smaller as deltas, and bit vectors
                // that spill into a second byte.
                NodeImage {
                    key: 3 << 20,
                    dummy: false,
                    mvec_bits: vec![1, 0, 0, 1, 1, 0, 1, 0, 1],
                    group_base: 2,
                    timestamps: vec![5000, 5000, 5001, 4990],
                    group_ids: vec![3 << 20, 1 << 20, 1 << 20],
                    dominating: vec![true; 9],
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

    /// Magic, a, median, seed: the offset of the first retired byte.
    const MAINTAIN_BALANCE_AT: usize = MAGIC.len() + 8 + 1 + 8;

    /// The prefix bytes of options that no longer exist, as (option name,
    /// offset, written value, accepted values). Each is always written with
    /// one value; a decoder accepts the values that rebuild the same engine
    /// on replay and refuses every other one, typed and naming the option.
    const RETIRED_OPTION_BYTES: [(&str, usize, u8, &[u8]); 3] = [
        // Off never repaired a-balance, so its journal replays into a
        // different structure.
        ("maintain_balance", MAINTAIN_BALANCE_AT, 1, &[1]),
        // Both install strategies built bit-identical structures.
        ("install", MAINTAIN_BALANCE_AT + 1, 0, &[0, 1]),
        // On cut epochs elsewhere, so its journal replays into different
        // epochs. It follows the install byte and shards.
        ("adaptive_flush", MAINTAIN_BALANCE_AT + 1 + 1 + 8, 0, &[0]),
    ];

    /// Decodes all 256 values of the retired `option`'s byte: accepted ones
    /// must decode to the original image, every other one must be refused
    /// typed with the option named.
    fn assert_retired_option_byte_is_refused_typed(option: &str) {
        let &(name, at, written, accepted) = RETIRED_OPTION_BYTES
            .iter()
            .find(|row| row.0 == option)
            .expect("a retired option");
        let image = sample_image();
        let mut bytes = encode_snapshot(&image);
        assert_eq!(bytes[at], written, "{name}: written as {written}");
        for value in 0..=u8::MAX {
            bytes[at] = value;
            match decode_snapshot(&bytes) {
                Ok(decoded) if accepted.contains(&value) => assert_eq!(decoded, image),
                Err(PersistError::CorruptSnapshot { detail }) if !accepted.contains(&value) => {
                    assert!(detail.contains(name), "{name} = {value}: {detail}");
                }
                other => panic!("{name} = {value}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn the_retired_maintain_balance_option_is_refused_typed() {
        assert_retired_option_byte_is_refused_typed("maintain_balance");
    }

    #[test]
    fn the_retired_install_option_is_refused_typed() {
        assert_retired_option_byte_is_refused_typed("install");
    }

    #[test]
    fn the_retired_adaptive_flush_option_is_refused_typed() {
        assert_retired_option_byte_is_refused_typed("adaptive_flush");
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
        // Version 2, as it wrote its payloads, is refused by name.
        match decode_snapshot(&dsgsnap2_payload(&sample_image())) {
            Err(PersistError::CorruptSnapshot { detail }) => {
                assert!(detail.contains("DSGSNAP2"), "{detail}")
            }
            other => panic!("a DSGSNAP2 payload decoded: {other:?}"),
        }
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

    pub(crate) fn corrupt_snapshot(e: &PersistError) -> bool {
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
        let mut sketch = FreqSketch::new(image.config.seed, 1 << 20);
        for _ in 0..300 {
            sketch.stage_increment(FreqSketch::pair_key(1, 2));
        }
        sketch.commit();
        image.sketch = Some(sketch.to_image());
        let bytes = encode_snapshot(&image);
        // The test above covers the fields an ungated image shares; here
        // the sketch section's own: its presence byte (offset 53, behind
        // the magic and the config), its count varint, the counters (one
        // byte each, but two for the four that count 300) and the two
        // cursor varints behind them.
        let counters = SKETCH_ROWS * SKETCH_WIDTH;
        assert_eq!(bytes[53], 1);
        let mut count = Vec::new();
        put_varint(&mut count, counters as u64);
        assert_eq!(bytes[54..57], count[..]);
        let cursors = 57 + counters + SKETCH_ROWS;
        let mut tail = Vec::new();
        put_varint(&mut tail, 300);
        put_varint(&mut tail, 0);
        assert_eq!(bytes[cursors..cursors + tail.len()], tail[..]);
        let two_byte = (57..cursors).filter(|&i| bytes[i] & 0x80 != 0);
        let at = (53..57)
            .chain((57..cursors).step_by(4099))
            .chain(two_byte.flat_map(|i| [i, i + 1]))
            .chain(cursors..cursors + tail.len());
        assert_cuts_and_flips_are_typed(&bytes, at, decode_snapshot, corrupt_snapshot);
    }

    /// An ungated image without nodes: the encoding ends in its node count.
    fn empty_snapshot() -> Vec<u8> {
        let mut image = sample_image();
        image.nodes.clear();
        let bytes = encode_snapshot(&image);
        assert_eq!(bytes.last(), Some(&0), "a one-byte zero count");
        bytes
    }

    #[test]
    fn node_count_beyond_the_remaining_bytes_is_refused_before_allocating() {
        let empty = empty_snapshot();
        let prefix = &empty[..empty.len() - 1];
        let claim = |count: u64, rest: &[u8]| {
            let mut bytes = prefix.to_vec();
            put_varint(&mut bytes, count);
            bytes.extend_from_slice(rest);
            decode_snapshot(&bytes)
        };
        // One node more than the remaining bytes can hold, as many as the
        // bytes would hold at one byte a node, and 2^60 nodes from a
        // 16-byte section: each is refused before anything is allocated
        // for the count (a 2^60-node allocation would abort the process).
        for (count, rest) in [(1, &[][..]), (5, &[0; 5][..]), (1 << 60, &[0; 7][..])] {
            match claim(count, rest) {
                Err(PersistError::CorruptSnapshot { detail }) => {
                    assert!(detail.contains("implausible node count"), "{detail}")
                }
                other => panic!("count {count}: unexpected {other:?}"),
            }
        }
        // 6 bytes per node is the floor: a count the remaining bytes can
        // hold gets past the check and decodes the node (key 0 first,
        // every field empty).
        assert_eq!(claim(1, &[0; MIN_NODE_BYTES]).unwrap().nodes.len(), 1);
    }

    #[test]
    fn vector_lengths_beyond_the_remaining_bytes_are_refused_before_allocating() {
        let empty = empty_snapshot();
        let prefix = &empty[..empty.len() - 1];
        // One node whose membership, timestamp, group-id or dominating
        // count claims 2^60 entries, padded out to the node floor.
        let huge = 1u64 << 60;
        let fields: [(&[u64], &str); 4] = [
            (&[0, huge << 1], "membership length"),
            (&[0, 0, 0, huge << 1], "timestamp count"),
            (&[0, 0, 0, 0, huge], "group-id count"),
            (&[0, 0, 0, 0, 0, huge], "dominating count"),
        ];
        for (varints, what) in fields {
            let mut bytes = prefix.to_vec();
            put_varint(&mut bytes, 1);
            varints.iter().for_each(|&v| put_varint(&mut bytes, v));
            bytes.extend_from_slice(&[0; MIN_NODE_BYTES]);
            match decode_snapshot(&bytes) {
                Err(PersistError::CorruptSnapshot { detail }) => {
                    assert!(detail.contains(what), "{what}: {detail}")
                }
                other => panic!("{what}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_order_keys_are_rejected() {
        let mut image = sample_image();
        image.nodes.swap(0, 1);
        assert!(matches!(
            decode_snapshot(&encode_snapshot(&image)),
            Err(PersistError::CorruptSnapshot { .. })
        ));
        // A repeated key is a zero delta.
        image.nodes[0].key = image.nodes[1].key;
        match decode_snapshot(&encode_snapshot(&image)) {
            Err(PersistError::CorruptSnapshot { detail }) => {
                assert!(detail.contains("zero delta"), "{detail}")
            }
            other => panic!("a repeated key decoded: {other:?}"),
        }
    }

    #[test]
    fn overlong_varints_and_counters_past_u32_are_refused() {
        let mut r = Reader::new(&[0xFF; 11]);
        assert!(r.varint().is_err(), "more than ten bytes");
        let mut bits_past_64 = vec![0xFF; 9];
        bits_past_64.push(0x02);
        assert!(Reader::new(&bits_past_64).varint().is_err());
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(Reader::new(&max).varint(), Ok(u64::MAX));

        use crate::policy::FreqSketch;
        let mut image = sample_image();
        image.config = image.config.with_policy(PolicyConfig::gated());
        image.sketch = Some(FreqSketch::new(image.config.seed, 4096).to_image());
        let bytes = encode_snapshot(&image);
        // Widen the first counter (offset 57) from 0 to 2^32.
        let mut wide = bytes[..57].to_vec();
        put_varint(&mut wide, 1 << 32);
        wide.extend_from_slice(&bytes[58..]);
        assert_eq!(wide.len(), bytes.len() + 4);
        match decode_snapshot(&wide) {
            Err(PersistError::CorruptSnapshot { detail }) => {
                assert!(detail.contains("sketch"), "{detail}")
            }
            other => panic!("a counter past u32 decoded: {other:?}"),
        }
    }

    #[test]
    fn file_envelope_detects_bit_flips() {
        let payload = encode_snapshot(&sample_image());
        let mut file = Vec::new();
        begin_snapshot_file(&mut file, 7, 4096);
        file.extend_from_slice(&payload);
        seal_snapshot_file(&mut file, 0, 0);
        let parsed = parse_snapshot_file(&file).unwrap();
        assert_eq!((parsed.seq, parsed.offset), (7, 4096));
        assert_eq!(parsed.payload, &payload[..]);
        // The binding is covered by the CRC like the payload.
        for byte in [12usize, 20, file.len() / 2, file.len() - 1] {
            let mut bad = file.clone();
            bad[byte] ^= 0x40;
            assert!(
                parse_snapshot_file(&bad).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }
}
