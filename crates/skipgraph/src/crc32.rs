//! CRC-32 (IEEE 802.3 / zlib polynomial) for the durability layer.
//!
//! The persistence subsystem in `dsg` frames its write-ahead journal and
//! snapshot files with a checksum so that a torn write, a bit flip on
//! disk, or a truncated copy is *detected* instead of replayed into the
//! engine. [`fasthash`](crate::fasthash) is the wrong tool for that job:
//! it is built for hash-map bucket spread, has no error-detection
//! guarantees, and is explicitly an unstable implementation detail. CRC-32
//! with the reflected IEEE polynomial `0xEDB88320` is the boring,
//! universally cross-checkable choice (`crc32("123456789") =
//! 0xCBF43926`), so on-disk artifacts can be verified by any external
//! tool.
//!
//! The implementation is a slicing-by-16 table walk: sixteen 256-entry
//! tables, built in a `const` context, fold sixteen input bytes into the
//! register per step with sixteen independent lookups, where the classic
//! byte-at-a-time walk needs sixteen dependent ones. The byte-at-a-time
//! walk over the first table finishes the last `len % 16` bytes and is the
//! reference the tests compare against. Everything is safe, allocation-free
//! and `no_std`-shaped (only `core` items are used). A one-shot [`crc32`]
//! helper covers contiguous buffers; the streaming [`Crc32`] digest covers
//! framed writers that checksum a header and a payload without
//! concatenating them; [`crc32_combine`] joins the checksums of two
//! buffers checksummed apart, so a writer that rewrites only the first
//! part of a file does not re-read the second.

/// The reflected IEEE 802.3 polynomial (the zlib/PNG/gzip CRC).
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Bytes folded into the register per step of the sliced walk.
const SLICE: usize = 16;

/// The slicing tables. `TABLES[0][b]` is the register after shifting one
/// byte `b` out of an all-zero register (the classic byte-at-a-time
/// table); `TABLES[k][b]` is the same byte followed by `k` zero bytes, so
/// the byte `k` places before the end of a slice is looked up in
/// `TABLES[k]`.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut byte = 0usize;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// The byte-at-a-time walk: folds `bytes` into the (pre-inverted)
/// register `crc` one table lookup per byte.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The sliced walk: folds whole 16-byte slices with one lookup per byte,
/// all sixteen independent of each other, then hands the tail to
/// [`update_bytewise`].
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut slices = bytes.chunks_exact(SLICE);
    for s in &mut slices {
        // The register overlaps the slice's first four bytes; each byte
        // then sits `15 - i` places before the slice's end.
        let head = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        crc = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize]
            ^ TABLES[11][s[4] as usize]
            ^ TABLES[10][s[5] as usize]
            ^ TABLES[9][s[6] as usize]
            ^ TABLES[8][s[7] as usize]
            ^ TABLES[7][s[8] as usize]
            ^ TABLES[6][s[9] as usize]
            ^ TABLES[5][s[10] as usize]
            ^ TABLES[4][s[11] as usize]
            ^ TABLES[3][s[12] as usize]
            ^ TABLES[2][s[13] as usize]
            ^ TABLES[1][s[14] as usize]
            ^ TABLES[0][s[15] as usize];
    }
    update_bytewise(crc, slices.remainder())
}

/// Streaming CRC-32 digest.
///
/// Feed bytes with [`update`](Crc32::update) in any chunking — the digest
/// is chunking-invariant — and read the checksum with
/// [`finalize`](Crc32::finalize). The default value is the digest of the
/// empty message (`0x0000_0000` after finalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The running register, stored pre-inverted (standard CRC-32 starts
    /// from `!0` and complements at the end).
    state: u32,
}

impl Crc32 {
    /// Creates a fresh digest.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes` into the digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_sliced(self.state, bytes);
    }

    /// Returns the checksum of everything absorbed so far. The digest is
    /// copyable, so finalizing does not consume it; further updates
    /// continue from the same prefix.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a contiguous buffer.
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut digest = Crc32::new();
    digest.update(bytes);
    digest.finalize()
}

/// `a · b` modulo the polynomial, both operands and the result in the
/// reflected representation (bit 31 is the coefficient of `x^0`).
fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ POLYNOMIAL
        } else {
            b >> 1
        };
    }
    product
}

/// The CRC-32 of the concatenation `a ‖ b`, given `crc_a = crc32(a)`,
/// `crc_b = crc32(b)` and `len_b = b.len()`, without reading either
/// buffer. Appending `len_b` bytes multiplies `a`'s register by
/// `x^(8·len_b)`; that power is assembled by repeated squaring, one
/// multiplication per bit of `len_b`, so the cost is `O(log len_b)`
/// whatever the buffers' sizes.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8: one byte
    let mut n = len_b;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_poly(square, shift);
        }
        square = mul_mod_poly(square, square);
        n >>= 1;
    }
    mul_mod_poly(shift, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector, verifiable against
        // zlib, Python's binascii.crc32, cksum -o 3, etc.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_is_chunking_invariant() {
        let message = b"length-prefixed frame payload with some entropy 0123456789";
        let oneshot = crc32(message);
        for split in 0..message.len() {
            let mut digest = Crc32::new();
            digest.update(&message[..split]);
            digest.update(&message[split..]);
            assert_eq!(digest.finalize(), oneshot, "split at {split}");
        }
    }

    /// The byte-at-a-time reference: the whole message through
    /// [`update_bytewise`], no slicing.
    fn reference(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    /// Deterministic splitmix64 bytes, so the long-buffer cases need no
    /// RNG dependency.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_walk_matches_the_bytewise_reference_at_every_short_length() {
        // 0..=64 covers an empty slice walk, every tail length, and up to
        // four whole slices.
        let message = noise(64, 1);
        for len in 0..=message.len() {
            assert_eq!(
                crc32(&message[..len]),
                reference(&message[..len]),
                "len {len}"
            );
        }
        // All-ones bytes exercise the high table entries of every slice
        // position.
        let ones = [0xFFu8; 64];
        for len in 0..=ones.len() {
            assert_eq!(
                crc32(&ones[..len]),
                reference(&ones[..len]),
                "ones len {len}"
            );
        }
    }

    #[test]
    fn sliced_walk_matches_the_bytewise_reference_on_long_buffers() {
        let mut lens = vec![1 << 20, (1 << 20) - 1, 4096 + 7, 65_536 + 15];
        let mut state = 0x5EED_u64;
        for _ in 0..6 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lens.push((state >> 44) as usize % (1 << 20));
        }
        for (i, &len) in lens.iter().enumerate() {
            let buf = noise(len, 100 + i as u64);
            assert_eq!(crc32(&buf), reference(&buf), "len {len}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split_point() {
        // Long enough that a split leaves whole slices on both sides and
        // every misalignment of the second half.
        let message = noise(200, 7);
        let oneshot = reference(&message);
        for split in 0..=message.len() {
            let mut digest = Crc32::new();
            digest.update(&message[..split]);
            digest.update(&message[split..]);
            assert_eq!(digest.finalize(), oneshot, "split at {split}");
        }
        // Three-way splits around a slice boundary.
        for a in 0..=40 {
            for b in a..=a + 40 {
                let mut digest = Crc32::new();
                digest.update(&message[..a]);
                digest.update(&message[a..b]);
                digest.update(&message[b..]);
                assert_eq!(digest.finalize(), oneshot, "splits at {a}, {b}");
            }
        }
    }

    #[test]
    fn combine_matches_the_bytewise_reference_at_every_short_split() {
        // Every split of every length 0..=64, empty halves included.
        let message = noise(64, 11);
        for len in 0..=message.len() {
            let whole = reference(&message[..len]);
            for split in 0..=len {
                let (a, b) = message[..len].split_at(split);
                assert_eq!(
                    crc32_combine(reference(a), reference(b), b.len() as u64),
                    whole,
                    "len {len}, split at {split}"
                );
            }
        }
    }

    #[test]
    fn combine_matches_the_bytewise_reference_on_a_long_buffer() {
        let buf = noise(1 << 20, 12);
        let whole = reference(&buf);
        let mut splits = vec![0, 1, buf.len() / 2, buf.len() - 1, buf.len()];
        let mut state = 0xC0B1_u64;
        for _ in 0..8 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            splits.push((state >> 40) as usize % (buf.len() + 1));
        }
        for split in splits {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // CRC-32 detects all single-bit errors; flip every bit of a small
        // frame and confirm the checksum moves.
        let message = b"frame";
        let reference = crc32(message);
        for byte in 0..message.len() {
            for bit in 0..8 {
                let mut corrupted = *message;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupted),
                    reference,
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn finalize_does_not_consume_the_digest() {
        let mut digest = Crc32::new();
        digest.update(b"ab");
        let ab = digest.finalize();
        assert_eq!(ab, crc32(b"ab"));
        digest.update(b"c");
        assert_eq!(digest.finalize(), crc32(b"abc"));
    }
}
