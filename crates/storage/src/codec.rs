//! CRC-32, the checksum of page images and WAL records.
//!
//! Everything the pages and records *contain* is written with the
//! workspace's one byte codec, `tspdb_probdb::codec`.
//!
//! Two kernels compute the same function. On x86_64 hosts with PCLMULQDQ
//! and SSE4.1, inputs of at least 64 bytes are folded by carry-less
//! multiplication (module `clmul`) and only the tail under 16 bytes goes
//! through the tables; everywhere else the portable slicing-by-8 loop does
//! all of it.

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
/// and WAL records. Carry-less-multiply folding where the CPU has it and
/// the input is at least 64 bytes, slicing-by-8 otherwise; both are the
/// byte-at-a-time function, so every checksum already on disk verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        // Whole 16-byte blocks fold; the tail goes through the tables.
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        if let Some(state) = clmul::fold(!0, blocks) {
            return !slicing_by_8(state, tail);
        }
    }
    !slicing_by_8(!0, bytes)
}

/// Advances the raw (pre-inversion) CRC `state` over `bytes`: eight bytes
/// per step through eight compile-time tables, the (at most seven)
/// trailing bytes one at a time.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// CRC-32 folding by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009): four 128-bit lanes fold 64 bytes per step, fold into one lane,
/// take the remaining 16-byte blocks, reduce to 64 bits and finish with a
/// Barrett reduction. The constants are the paper's bit-reflected x^k mod
/// P(x) values for the IEEE polynomial.
///
/// This is the crate's only `unsafe`: the call into the target-feature
/// kernel, made after the features were detected on the running CPU.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Inputs shorter than this stay on the tables: the kernel needs four
    /// full lanes to start.
    pub(super) const MIN_LEN: usize = 64;

    /// Advances the raw CRC `state` over `blocks` — whole 16-byte blocks,
    /// at least [`MIN_LEN`] bytes — or `None` when the CPU lacks PCLMULQDQ
    /// or SSE4.1.
    pub(super) fn fold(state: u32, blocks: &[u8]) -> Option<u32> {
        assert!(blocks.len() >= MIN_LEN && blocks.len().is_multiple_of(16));
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `fold_blocks` needs only the `pclmulqdq` and `sse4.1`
        // target features, both detected on this CPU just above; it reads
        // `blocks` through safe slice indexing and touches no raw pointer.
        Some(unsafe { fold_blocks(state, blocks) })
    }

    /// One 16-byte block as a vector, little-endian like the CRC's bit
    /// order (the compiler emits a single unaligned load).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x · k` folded onto `next`: the low half of `x` times the low
    /// constant XOR the high half times the high constant, XOR `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_blocks(state: u32, blocks: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
        let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);

        let (head, rest) = blocks.split_at(MIN_LEN);
        let mut x1 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x2 = load(&head[16..32]);
        let mut x3 = load(&head[32..48]);
        let mut x4 = load(&head[48..64]);

        // Four lanes, 64 bytes per step.
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            x1 = fold_16(x1, k1k2, load(&quad[..16]));
            x2 = fold_16(x2, k1k2, load(&quad[16..32]));
            x3 = fold_16(x3, k1k2, load(&quad[32..48]));
            x4 = fold_16(x4, k1k2, load(&quad[48..64]));
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        x1 = fold_16(x1, k3k4, x2);
        x1 = fold_16(x1, k3k4, x3);
        x1 = fold_16(x1, k3k4, x4);
        for block in quads.remainder().chunks_exact(16) {
            x1 = fold_16(x1, k3k4, load(block));
        }

        // 128 bits to 64.
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_and_si128(x1, low32);
        x1 = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x1, k5), x2);

        // Barrett reduction to 32 bits.
        let mut x2 = _mm_and_si128(x1, low32);
        x2 = _mm_clmulepi64_si128::<0x10>(x2, poly);
        x2 = _mm_and_si128(x2, low32);
        x2 = _mm_clmulepi64_si128::<0x00>(x2, poly);
        x1 = _mm_xor_si128(x1, x2);
        _mm_extract_epi32::<1>(x1) as u32
    }
}

/// The byte-at-a-time CRC-32 this crate shipped before slicing-by-8 —
/// kept as the reference both kernels are tested against.
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

    /// The portable kernel alone, as `crc32` would run it on a host
    /// without carry-less multiply.
    fn crc32_portable(bytes: &[u8]) -> u32 {
        !slicing_by_8(!0, bytes)
    }

    proptest::proptest! {
        #[test]
        fn crc32_kernels_equal_the_bytewise_loop(seed in 0u64..u64::MAX, len in 0usize..4201) {
            // Random contents, every start alignment within a word.
            let buf = noise(seed, len + 8);
            for start in 0..8 {
                let data = &buf[start..start + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
                proptest::prop_assert_eq!(crc32_portable(data), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn crc32_kernels_equal_the_bytewise_loop_at_every_length_and_offset() {
        // Exhaustive over every split the kernels make — below the folding
        // minimum, whole and partial 64-byte quads, 16-byte blocks, the
        // table tail — for every length 0..=4200 (a page image is 4096) at
        // sixteen start offsets.
        // The byte-at-a-time reference runs once per offset: its state
        // after `len` bytes is the checksum of the `len`-byte prefix.
        let buf = noise(7, 4200 + 16);
        for start in 0..16 {
            let mut state = !0u32;
            for len in 0..=4200 {
                let data = &buf[start..start + len];
                if len > 0 {
                    state = CRC_TABLES[0][((state ^ data[len - 1] as u32) & 0xFF) as usize]
                        ^ (state >> 8);
                }
                let want = !state;
                assert_eq!(crc32(data), want, "dispatch: start {start} len {len}");
                assert_eq!(
                    crc32_portable(data),
                    want,
                    "portable: start {start} len {len}"
                );
            }
            assert_eq!(!state, crc32_bytewise(&buf[start..start + 4200]));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_folding_kernel_continues_any_state() {
        let buf = noise(11, 1024);
        for (i, len) in [64, 80, 128, 144, 1008, 1024].into_iter().enumerate() {
            let state = noise(i as u64, 4)
                .iter()
                .fold(0u32, |s, &b| s << 8 | b as u32);
            let blocks = &buf[..len];
            if let Some(folded) = clmul::fold(state, blocks) {
                assert_eq!(folded, slicing_by_8(state, blocks), "len {len}");
            }
        }
    }
}
