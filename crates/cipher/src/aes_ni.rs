//! AES-128 on the CPU's AES instructions (x86-64 AES-NI).
//!
//! Computes exactly what the software cipher in [`crate::aes`] computes —
//! the same FIPS-197 round keys (`aeskeygenassist`), the same blocks
//! (`aesenc`/`aesenclast`, and `aesdec`/`aesdeclast` over `aesimc` decrypt
//! keys) — in constant time and roughly fifteen times faster a block. A
//! run of blocks goes through the rounds eight at a time, so the
//! independent `aesenc`s of eight blocks overlap in the unit's pipeline.
//!
//! The crate root is `#![deny(unsafe_code)]`; this module opts back in.
//! An [`AesNi`] is only ever built by [`AesNi::new`], which returns `None`
//! unless the running CPU reports the `aes` feature, so every call into
//! the `#[target_feature(enable = "aes")]` code below runs on a CPU that
//! has the instructions. Every `unsafe` carries a `SAFETY:` rationale
//! audited by `sdds-lint` (rule `unsafe-audit`).
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_cvtsi128_si64, _mm_loadu_si128,
    _mm_set_epi64x, _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_unpackhi_epi64,
    _mm_xor_si128,
};

/// Round keys for the hardware path. They are kept as bytes, not
/// registers, so the drop path wipes them like the software schedule.
#[derive(Clone)]
pub(crate) struct AesNi {
    /// Encryption round keys, byte-identical to the FIPS-197 schedule.
    enc: [[u8; 16]; 11],
    /// Decryption round keys for `aesdec`: the encryption keys in reverse
    /// order, the nine inner ones passed through InvMixColumns.
    dec: [[u8; 16]; 11],
}

impl Drop for AesNi {
    /// Wipes both schedules (best effort; see [`crate::zeroize`]).
    fn drop(&mut self) {
        self.zeroize_schedule();
    }
}

impl AesNi {
    /// Expands `key`, or returns `None` when this CPU has no AES
    /// instructions (and always under Miri, whose feature detection
    /// reports none).
    pub(crate) fn new(key: &[u8; 16]) -> Option<AesNi> {
        if !std::is_x86_feature_detected!("aes") {
            return None;
        }
        // SAFETY: the CPU reports the `aes` feature (checked just above),
        // which is all `expand`'s `target_feature` requires.
        Some(unsafe { expand(key) })
    }

    /// Encrypts each block in place.
    pub(crate) fn encrypt_blocks<B: Block>(&self, blocks: &mut [B]) {
        // SAFETY: `self` exists, so `new` saw the `aes` feature.
        unsafe { crypt_blocks::<B, false>(&self.enc, blocks) }
    }

    /// Encrypts one block held as a little-endian word. It travels in
    /// registers both ways, which keeps a serial chain of single blocks
    /// (one chunk through the PRP's rounds) clear of store-forwarding
    /// stalls.
    pub(crate) fn encrypt_word(&self, word: u128) -> u128 {
        // SAFETY: `self` exists, so `new` saw the `aes` feature.
        unsafe { encrypt_word(&self.enc, word) }
    }

    /// Decrypts each block in place.
    pub(crate) fn decrypt_blocks<B: Block>(&self, blocks: &mut [B]) {
        // SAFETY: `self` exists, so `new` saw the `aes` feature.
        unsafe { crypt_blocks::<B, true>(&self.dec, blocks) }
    }

    /// The encryption schedule, for the cross-check against the software
    /// key expansion.
    #[cfg(test)]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.enc
    }

    /// Volatile-clears both schedules (the drop path; split out so tests
    /// can assert the buffers really are zeroed).
    fn zeroize_schedule(&mut self) {
        for rk in self.enc.iter_mut().chain(self.dec.iter_mut()) {
            crate::zeroize::wipe(rk);
        }
    }
}

/// A cipher block as the hardware path reads and writes it: bytes in
/// FIPS-197 order, or the same bytes as a little-endian `u128`, which
/// moves between general and vector registers without a trip through
/// memory (the chunk PRP's form).
pub(crate) trait Block {
    fn load(&self) -> __m128i;
    fn store(&mut self, v: __m128i);
}

impl Block for [u8; 16] {
    #[inline(always)]
    fn load(&self) -> __m128i {
        // SAFETY: `self` is a live 16-byte array and `loadu` has no
        // alignment requirement, so the 16-byte read is in bounds.
        unsafe { _mm_loadu_si128(self.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(&mut self, v: __m128i) {
        // SAFETY: `self` is a uniquely borrowed 16-byte array and `storeu`
        // has no alignment requirement, so the 16-byte write is in bounds.
        unsafe { _mm_storeu_si128(self.as_mut_ptr().cast(), v) }
    }
}

impl Block for u128 {
    #[inline(always)]
    fn load(&self) -> __m128i {
        // SAFETY: `_mm_set_epi64x` needs only SSE2, which every x86-64 CPU
        // has (it is part of the target's baseline).
        unsafe { _mm_set_epi64x((*self >> 64) as i64, *self as i64) }
    }

    #[inline(always)]
    fn store(&mut self, v: __m128i) {
        // SAFETY: `_mm_cvtsi128_si64` and `_mm_unpackhi_epi64` need only
        // SSE2, which every x86-64 CPU has (part of the target's baseline).
        let (lo, hi) = unsafe {
            (
                _mm_cvtsi128_si64(v) as u64,
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64,
            )
        };
        *self = (u128::from(hi) << 64) | u128::from(lo);
    }
}

/// One step of the key schedule: `w[i..i+4]` from `w[i-4..i]`, with
/// `RotWord`/`SubWord`/`Rcon` from `aeskeygenassist` and the running XOR
/// of the previous four words from three shifts.
#[target_feature(enable = "aes")]
fn expand_step<const RCON: i32>(prev: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
    let mut k = prev;
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, assist)
}

#[target_feature(enable = "aes")]
fn expand(key: &[u8; 16]) -> AesNi {
    let k0 = key.load();
    let k1 = expand_step::<0x01>(k0);
    let k2 = expand_step::<0x02>(k1);
    let k3 = expand_step::<0x04>(k2);
    let k4 = expand_step::<0x08>(k3);
    let k5 = expand_step::<0x10>(k4);
    let k6 = expand_step::<0x20>(k5);
    let k7 = expand_step::<0x40>(k6);
    let k8 = expand_step::<0x80>(k7);
    let k9 = expand_step::<0x1b>(k8);
    let k10 = expand_step::<0x36>(k9);
    let schedule = [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10];
    let mut ni = AesNi {
        enc: [[0; 16]; 11],
        dec: [[0; 16]; 11],
    };
    for (i, &k) in schedule.iter().enumerate() {
        ni.enc[i].store(k);
        let inv = if i == 0 || i == 10 {
            k
        } else {
            _mm_aesimc_si128(k)
        };
        ni.dec[10 - i].store(inv);
    }
    ni
}

/// Runs `blocks` through the cipher (`DEC` selects the inverse), eight
/// blocks at a time, then four, two and one for the tail.
#[target_feature(enable = "aes")]
fn crypt_blocks<B: Block, const DEC: bool>(schedule: &[[u8; 16]; 11], blocks: &mut [B]) {
    let rk: [__m128i; 11] = core::array::from_fn(|i| schedule[i].load());
    let (eights, rest) = blocks.as_chunks_mut::<8>();
    for group in eights {
        crypt_lanes::<B, 8, DEC>(&rk, group);
    }
    let (fours, rest) = rest.as_chunks_mut::<4>();
    for group in fours {
        crypt_lanes::<B, 4, DEC>(&rk, group);
    }
    let (twos, rest) = rest.as_chunks_mut::<2>();
    for group in twos {
        crypt_lanes::<B, 2, DEC>(&rk, group);
    }
    for block in rest {
        crypt_lanes::<B, 1, DEC>(&rk, core::array::from_mut(block));
    }
}

#[target_feature(enable = "aes")]
fn encrypt_word(schedule: &[[u8; 16]; 11], word: u128) -> u128 {
    let mut block = [word];
    crypt_lanes::<u128, 1, false>(&core::array::from_fn(|i| schedule[i].load()), &mut block);
    block[0]
}

/// `N` independent blocks through all ten rounds together.
#[inline]
#[target_feature(enable = "aes")]
fn crypt_lanes<B: Block, const N: usize, const DEC: bool>(rk: &[__m128i; 11], blocks: &mut [B; N]) {
    let mut s: [__m128i; N] = core::array::from_fn(|i| _mm_xor_si128(blocks[i].load(), rk[0]));
    for &k in &rk[1..10] {
        for x in s.iter_mut() {
            *x = if DEC {
                _mm_aesdec_si128(*x, k)
            } else {
                _mm_aesenc_si128(*x, k)
            };
        }
    }
    for (block, &x) in blocks.iter_mut().zip(&s) {
        let out = if DEC {
            _mm_aesdeclast_si128(x, rk[10])
        } else {
            _mm_aesenclast_si128(x, rk[10])
        };
        block.store(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_path_wipes_both_schedules() {
        let Some(mut ni) = AesNi::new(&[0x2b; 16]) else {
            return; // no AES instructions here: nothing to wipe
        };
        assert!(ni.enc.iter().chain(&ni.dec).all(|rk| rk != &[0; 16]));
        ni.zeroize_schedule();
        assert!(
            ni.enc.iter().chain(&ni.dec).all(|rk| rk == &[0; 16]),
            "hardware round keys must be cleared by the drop path"
        );
    }
}
