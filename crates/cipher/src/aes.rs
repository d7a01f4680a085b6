//! AES-128 (FIPS-197), on the CPU's AES instructions where it has them
//! and implemented from first principles everywhere else.
//!
//! [`Aes128::new`] picks the path once per key: the AES-NI module
//! ([`crate::aes_ni`]) when the CPU reports the `aes` feature, else the
//! software cipher below. Both compute the same round keys and the same
//! blocks; tests cross-check them on random keys and blocks and pin both
//! to the FIPS-197 appendix vectors. There is no option to choose a path.
//!
//! The software cipher's S-box is *computed* at construction from
//! multiplicative inversion in GF(2^8) with the Rijndael polynomial
//! `x^8+x^4+x^3+x+1` followed by the affine transform, rather than pasted
//! in as a table; unit tests pin it against the published values. It is
//! byte-oriented with table-driven MixColumns, so its timing depends on
//! key and data through cache behaviour (docs/SECURITY.md); the hardware
//! path has no tables. The key-independent tables (S-box, GF
//! multiplication) are computed once per process; constructing a
//! software cipher only performs key expansion.

/// The Rijndael reduction polynomial, `x^8 + x^4 + x^3 + x + 1`.
const RIJNDAEL_POLY: u32 = 0x11B;

/// Carry-less multiply modulo the Rijndael polynomial.
fn gmul(mut a: u32, mut b: u32) -> u8 {
    let mut acc = 0u32;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= RIJNDAEL_POLY;
        }
        b >>= 1;
    }
    acc as u8
}

/// Multiplicative inverse in GF(2^8)/0x11B via Fermat: `a^254`.
fn ginv(a: u8) -> u8 {
    if a == 0 {
        return 0; // AES S-box maps 0 through the affine step only
    }
    let mut result = 1u8;
    let mut base = a;
    let mut e = 254u32;
    while e > 0 {
        if e & 1 != 0 {
            result = gmul(result as u32, base as u32);
        }
        base = gmul(base as u32, base as u32);
        e >>= 1;
    }
    result
}

/// Process-global key-independent tables.
type SboxPair = ([u8; 256], [u8; 256]);

fn tables() -> &'static (SboxPair, MulTables) {
    static TABLES: std::sync::OnceLock<(SboxPair, MulTables)> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| (build_sbox(), build_mul_tables()))
}

fn build_sbox() -> ([u8; 256], [u8; 256]) {
    let mut sbox = [0u8; 256];
    let mut inv_sbox = [0u8; 256];
    #[allow(clippy::needless_range_loop)] // i is the field element itself
    for i in 0..256usize {
        let x = ginv(i as u8);
        // affine transform: b ^= rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let s =
            x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        sbox[i] = s;
        inv_sbox[s as usize] = i as u8;
    }
    (sbox, inv_sbox)
}

/// Precomputed GF(2^8) multiplication tables for the MixColumns constants
/// (the hot path of every round — table lookups instead of carry-less
/// multiply loops give a several-fold block speedup, which matters because
/// the chunk PRP performs ~24 block operations per chunk).
#[derive(Clone)]
struct MulTables {
    m2: [u8; 256],
    m3: [u8; 256],
    m9: [u8; 256],
    m11: [u8; 256],
    m13: [u8; 256],
    m14: [u8; 256],
}

fn build_mul_tables() -> MulTables {
    let mut t = MulTables {
        m2: [0; 256],
        m3: [0; 256],
        m9: [0; 256],
        m11: [0; 256],
        m13: [0; 256],
        m14: [0; 256],
    };
    for a in 0..256usize {
        t.m2[a] = gmul(a as u32, 2);
        t.m3[a] = gmul(a as u32, 3);
        t.m9[a] = gmul(a as u32, 9);
        t.m11[a] = gmul(a as u32, 11);
        t.m13[a] = gmul(a as u32, 13);
        t.m14[a] = gmul(a as u32, 14);
    }
    t
}

/// AES-128: 10 rounds, 128-bit key, 16-byte blocks.
#[derive(Clone)]
pub struct Aes128 {
    path: Path,
}

/// The path [`Aes128::new`] chose for one key.
#[derive(Clone)]
enum Path {
    #[cfg(target_arch = "x86_64")]
    Hardware(crate::aes_ni::AesNi),
    Software(Soft),
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // never print key material
        f.write_str("Aes128 { .. }")
    }
}

impl Aes128 {
    /// Block size in bytes.
    pub const BLOCK: usize = 16;

    /// Expands a 128-bit key into the 11 round keys, for the CPU's AES
    /// instructions when it has them.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(ni) = crate::aes_ni::AesNi::new(key) {
                return Aes128 {
                    path: Path::Hardware(ni),
                };
            }
        }
        Aes128::software(key)
    }

    /// The software cipher whatever the CPU has: the fallback, and the
    /// reference the tests hold the hardware path to.
    fn software(key: &[u8; 16]) -> Aes128 {
        Aes128 {
            path: Path::Software(Soft::new(key)),
        }
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// Block bytes are in the natural FIPS-197 order, i.e. `block[i]` is
    /// state row `i % 4`, column `i / 4` — exactly the wire order.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match &self.path {
            #[cfg(target_arch = "x86_64")]
            Path::Hardware(ni) => ni.encrypt_blocks(core::array::from_mut(block)),
            Path::Software(soft) => soft.encrypt_block(block),
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match &self.path {
            #[cfg(target_arch = "x86_64")]
            Path::Hardware(ni) => ni.decrypt_blocks(core::array::from_mut(block)),
            Path::Software(soft) => soft.decrypt_block(block),
        }
    }

    /// Encrypts a run of contiguous 16-byte blocks in place (ECB over the
    /// slice). On the hardware path the blocks go through the rounds
    /// eight at a time, which is what the batched chunk PRP, CTR and the
    /// bulk ingest path rely on.
    ///
    /// # Panics
    ///
    /// If `data.len()` is not a multiple of 16.
    pub fn encrypt_blocks(&self, data: &mut [u8]) {
        let blocks = as_blocks(data);
        match &self.path {
            #[cfg(target_arch = "x86_64")]
            Path::Hardware(ni) => ni.encrypt_blocks(blocks),
            Path::Software(soft) => blocks.iter_mut().for_each(|b| soft.encrypt_block(b)),
        }
    }

    /// Decrypts a run of contiguous 16-byte blocks in place (ECB over the
    /// slice), interleaved like [`encrypt_blocks`](Self::encrypt_blocks).
    ///
    /// # Panics
    ///
    /// If `data.len()` is not a multiple of 16.
    pub fn decrypt_blocks(&self, data: &mut [u8]) {
        let blocks = as_blocks(data);
        match &self.path {
            #[cfg(target_arch = "x86_64")]
            Path::Hardware(ni) => ni.decrypt_blocks(blocks),
            Path::Software(soft) => blocks.iter_mut().for_each(|b| soft.decrypt_block(b)),
        }
    }

    /// Encrypts blocks held as little-endian `u128`s (block byte `i` is
    /// bits `8i..8i+8`) in place — [`encrypt_blocks`](Self::encrypt_blocks)
    /// for callers that compute their blocks arithmetically, as the chunk
    /// PRP does, without a round trip through bytes.
    pub(crate) fn encrypt_words(&self, words: &mut [u128]) {
        match &self.path {
            #[cfg(target_arch = "x86_64")]
            Path::Hardware(ni) => match words {
                [word] => *word = ni.encrypt_word(*word),
                _ => ni.encrypt_blocks(words),
            },
            Path::Software(soft) => {
                for word in words.iter_mut() {
                    let mut block = word.to_le_bytes();
                    soft.encrypt_block(&mut block);
                    *word = u128::from_le_bytes(block);
                }
            }
        }
    }

    /// A fixed-output-size PRF: `AES_k(pad16(msg_block_chain))` in a
    /// CBC-MAC-like chain. Only used internally for key derivation and the
    /// Feistel round function, always on fixed-format inputs, so CBC-MAC's
    /// variable-length caveats do not apply.
    pub fn prf(&self, data: &[u8]) -> [u8; 16] {
        let mut mac = [0u8; 16];
        let mut iter = data.chunks(16).peekable();
        if iter.peek().is_none() {
            // empty message: single padded block
            let mut block = [0u8; 16];
            block[0] = 0x80;
            for (m, b) in mac.iter_mut().zip(block.iter()) {
                *m ^= b;
            }
            self.encrypt_block(&mut mac);
            return mac;
        }
        while let Some(chunk) = iter.next() {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            if chunk.len() < 16 {
                block[chunk.len()] = 0x80;
            } else if iter.peek().is_none() {
                // full final block: flag with a distinct tweak to separate
                // padded and unpadded finals
                block[15] ^= 0x01;
            }
            for (m, b) in mac.iter_mut().zip(block.iter()) {
                *m ^= b;
            }
            self.encrypt_block(&mut mac);
        }
        mac
    }
}

/// `data` as 16-byte blocks.
///
/// # Panics
///
/// If `data.len()` is not a multiple of 16.
fn as_blocks(data: &mut [u8]) -> &mut [[u8; 16]] {
    let len = data.len();
    let (blocks, rest) = data.as_chunks_mut::<16>();
    assert!(
        rest.is_empty(),
        "length {len} not a multiple of the AES block size"
    );
    blocks
}

/// The software AES-128: byte-oriented, table-driven MixColumns.
#[derive(Clone)]
struct Soft {
    round_keys: [[u8; 16]; 11],
    sbox: &'static [u8; 256],
    inv_sbox: &'static [u8; 256],
    mul: &'static MulTables,
}

impl Drop for Soft {
    /// Wipes the round-key schedule so key material does not linger in
    /// freed memory (best effort; see [`crate::zeroize`]).
    fn drop(&mut self) {
        self.zeroize_schedule();
    }
}

impl Soft {
    /// Expands a 128-bit key into the 11 round keys.
    fn new(key: &[u8; 16]) -> Soft {
        let ((sbox, inv_sbox), mul) = tables();
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon: u8 = 1;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1); // RotWord
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize]; // SubWord
                }
                temp[0] ^= rcon;
                rcon = gmul(rcon as u32, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        // the expansion scratch holds the full schedule; clear it before
        // the stack frame is reused
        for word in w.iter_mut() {
            crate::zeroize::wipe(word);
        }
        Soft {
            round_keys,
            sbox,
            inv_sbox,
            mul,
        }
    }

    /// Volatile-clears the round-key schedule (the drop path; split out so
    /// tests can assert the buffer really is zeroed).
    fn zeroize_schedule(&mut self) {
        for rk in self.round_keys.iter_mut() {
            crate::zeroize::wipe(rk);
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.sbox[*b as usize];
        }
    }

    fn inv_sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.inv_sbox[*b as usize];
        }
    }

    /// State layout follows FIPS-197: byte `i` of the block is state row
    /// `i % 4`, column `i / 4`. ShiftRows rotates row `r` left by `r`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn mix_columns(&self, state: &mut [u8; 16]) {
        let m = &self.mul;
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let (a0, a1, a2, a3) = (
                col[0] as usize,
                col[1] as usize,
                col[2] as usize,
                col[3] as usize,
            );
            col[0] = m.m2[a0] ^ m.m3[a1] ^ a2 as u8 ^ a3 as u8;
            col[1] = a0 as u8 ^ m.m2[a1] ^ m.m3[a2] ^ a3 as u8;
            col[2] = a0 as u8 ^ a1 as u8 ^ m.m2[a2] ^ m.m3[a3];
            col[3] = m.m3[a0] ^ a1 as u8 ^ a2 as u8 ^ m.m2[a3];
        }
    }

    fn inv_mix_columns(&self, state: &mut [u8; 16]) {
        let m = &self.mul;
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let (a0, a1, a2, a3) = (
                col[0] as usize,
                col[1] as usize,
                col[2] as usize,
                col[3] as usize,
            );
            col[0] = m.m14[a0] ^ m.m11[a1] ^ m.m13[a2] ^ m.m9[a3];
            col[1] = m.m9[a0] ^ m.m14[a1] ^ m.m11[a2] ^ m.m13[a3];
            col[2] = m.m13[a0] ^ m.m9[a1] ^ m.m14[a2] ^ m.m11[a3];
            col[3] = m.m11[a0] ^ m.m13[a1] ^ m.m9[a2] ^ m.m14[a3];
        }
    }

    fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            self.sub_bytes(block);
            Self::shift_rows(block);
            self.mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        self.sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[10]);
    }

    fn decrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[10]);
        Self::inv_shift_rows(block);
        self.inv_sub_bytes(block);
        for round in (1..10).rev() {
            Self::add_round_key(block, &self.round_keys[round]);
            self.inv_mix_columns(block);
            Self::inv_shift_rows(block);
            self.inv_sub_bytes(block);
        }
        Self::add_round_key(block, &self.round_keys[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_matches_published_values() {
        let (sbox, inv) = build_sbox();
        // spot values from FIPS-197 Figure 7
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        assert_eq!(sbox[0x9a], 0xb8);
        // inverse box really inverts
        for i in 0..256 {
            assert_eq!(inv[sbox[i] as usize] as usize, i);
        }
    }

    /// The software cipher and the one `new` picks (the hardware path on
    /// a CPU with AES instructions, else the software path again).
    fn both_paths(key: &[u8; 16]) -> [Aes128; 2] {
        [Aes128::software(key), Aes128::new(key)]
    }

    /// A seeded stream of test bytes (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_block(state: &mut u64) -> [u8; 16] {
        let lo = splitmix(state).to_le_bytes();
        let hi = splitmix(state).to_le_bytes();
        core::array::from_fn(|i| if i < 8 { lo[i] } else { hi[i - 8] })
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e1516..., plaintext 3243f6a8...
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for aes in both_paths(&key) {
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expect);
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain);
        }
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 001122...ff
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        for aes in both_paths(&key) {
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expect);
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain);
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_path_matches_software_on_random_keys_and_blocks() {
        let trials = if cfg!(miri) { 16 } else { 10_000 };
        let mut state = 0x5eed_0040;
        for _ in 0..trials {
            let key = random_block(&mut state);
            let Some(ni) = crate::aes_ni::AesNi::new(&key) else {
                return; // no AES instructions here: the software path is all there is
            };
            let soft = Soft::new(&key);
            assert_eq!(
                ni.round_keys(),
                &soft.round_keys,
                "key schedule, key {key:02x?}"
            );
            let plain = random_block(&mut state);
            let mut hw = plain;
            let mut sw = plain;
            ni.encrypt_blocks(core::array::from_mut(&mut hw));
            soft.encrypt_block(&mut sw);
            assert_eq!(hw, sw, "encrypt, key {key:02x?}");
            ni.decrypt_blocks(core::array::from_mut(&mut hw));
            soft.decrypt_block(&mut sw);
            assert_eq!((hw, sw), (plain, plain), "decrypt, key {key:02x?}");
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_on_many_blocks() {
        let aes = Aes128::new(&[7u8; 16]);
        for i in 0..200u32 {
            let mut block: [u8; 16] =
                core::array::from_fn(|j| ((i as usize * 31 + j * 7 + 3) % 256) as u8);
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn encrypt_blocks_matches_per_block_path() {
        // every tail length of the eight-block interleave, on both paths
        for (aes, nblocks) in both_paths(&[0x33; 16])
            .iter()
            .flat_map(|aes| (0..=17).chain([33]).map(move |n| (aes, n)))
        {
            let mut batched: Vec<u8> = (0..nblocks * 16).map(|i| (i % 253) as u8).collect();
            let mut singles = batched.clone();
            aes.encrypt_blocks(&mut batched);
            for block in singles.chunks_exact_mut(16) {
                aes.encrypt_block(block.try_into().unwrap());
            }
            assert_eq!(batched, singles, "nblocks={nblocks}");
            aes.decrypt_blocks(&mut batched);
            assert_eq!(
                batched,
                (0..nblocks * 16)
                    .map(|i| (i % 253) as u8)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the AES block size")]
    fn encrypt_blocks_rejects_ragged_length() {
        Aes128::new(&[0; 16]).encrypt_blocks(&mut [0u8; 15]);
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(&[1u8; 16]);
        let b = Aes128::new(&[2u8; 16]);
        let mut ba = [0u8; 16];
        let mut bb = [0u8; 16];
        a.encrypt_block(&mut ba);
        b.encrypt_block(&mut bb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn prf_is_deterministic_and_input_sensitive() {
        let aes = Aes128::new(&[9u8; 16]);
        assert_eq!(aes.prf(b"hello"), aes.prf(b"hello"));
        assert_ne!(aes.prf(b"hello"), aes.prf(b"hellp"));
        assert_ne!(aes.prf(b""), aes.prf(b"\x00"));
        // length-extension-style boundary cases differ
        assert_ne!(aes.prf(&[0u8; 16]), aes.prf(&[0u8; 15]));
        assert_ne!(aes.prf(&[0u8; 16]), aes.prf(&[0u8; 17]));
    }

    #[test]
    fn drop_path_wipes_round_key_schedule() {
        // the schedule of a real key is never all-zero bytes
        let mut aes = Soft::new(&[0x2b; 16]);
        assert!(aes.round_keys.iter().any(|rk| rk.iter().any(|&b| b != 0)));
        aes.zeroize_schedule();
        assert!(
            aes.round_keys.iter().all(|rk| rk.iter().all(|&b| b == 0)),
            "round-key schedule must be cleared by the drop path"
        );
        // dropping after a manual wipe just re-wipes zeros (idempotent)
    }

    #[test]
    fn gmul_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(0x01, 0xab), 0xab);
        assert_eq!(gmul(0x00, 0xab), 0x00);
    }

    #[test]
    fn ginv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gmul(a as u32, ginv(a) as u32), 1, "a={a}");
        }
        assert_eq!(ginv(0), 0);
    }
}
