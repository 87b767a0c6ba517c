//! CRC-32, the checksum of page images and WAL records.
//!
//! Everything the pages and records *contain* is written with the
//! workspace's one byte codec, `tspdb_probdb::codec`.

/// Slicing-by-8 lookup tables of the reflected IEEE 802.3 polynomial,
/// built at compile time: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum of page images
/// and WAL records. Slicing-by-8: eight bytes per step through eight
/// compile-time tables, the (at most seven) trailing bytes one at a time.
/// Same function as the byte-at-a-time loop, so every checksum already on
/// disk still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The byte-at-a-time CRC-32 this crate shipped before slicing-by-8 —
/// kept as the reference the fast path is tested against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// `len` pseudo-random bytes from `seed` (SplitMix64).
    fn noise(mut seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn crc32_slicing_equals_the_bytewise_loop(seed in 0u64..u64::MAX, len in 0usize..4201) {
            // Random contents, every start alignment within a word.
            let buf = noise(seed, len + 8);
            for start in 0..8 {
                let data = &buf[start..start + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn crc32_slicing_equals_the_bytewise_loop_at_every_length_and_alignment() {
        // Exhaustive over the chunk/remainder split: every length 0..=4200
        // (a page image is 4096) at all eight start alignments.
        let buf = noise(7, 4208);
        for start in 0..8 {
            for len in 0..=4200 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }
}
