//! Key hierarchy for the complete scheme.
//!
//! One [`MasterKey`] held by the data owner derives every other secret with
//! a labelled PRF, so that (paper §5, Figure 3):
//!
//! * the **record store** cipher key never reaches any index site,
//! * each **chunking** gets an independent chunk-PRP key (index records of
//!   chunking 0 and chunking 1 are unlinkable at the sites),
//! * the **dispersion matrix** seed is derived, not stored, so "a node does
//!   not have access to the data dispersion scheme" (§1),
//! * per-record IVs are derived from the RID, keeping record encryption
//!   deterministic per (key, record) yet unique across records.

use crate::aes::Aes128;

/// The data owner's master secret.
#[derive(Clone)]
pub struct MasterKey {
    key: [u8; 16],
}

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MasterKey {{ .. }}") // never print key material
    }
}

impl MasterKey {
    /// Volatile-clears the key bytes (the drop path; split out so tests
    /// can assert the buffer really is zeroed).
    fn zeroize_key(&mut self) {
        crate::zeroize::wipe(&mut self.key);
    }
}

impl Drop for MasterKey {
    /// Wipes the key bytes so they do not linger in freed memory (best
    /// effort; see [`crate::zeroize`]). Clones wipe independently.
    fn drop(&mut self) {
        self.zeroize_key();
    }
}

impl MasterKey {
    /// Wraps raw key bytes.
    pub fn new(key: [u8; 16]) -> MasterKey {
        MasterKey { key }
    }

    /// Derives a master key from a passphrase by iterated PRF stretching.
    /// (A reproduction-grade KDF — real deployments would use a
    /// memory-hard KDF, which is out of scope for the paper.)
    pub fn from_passphrase(passphrase: &str) -> MasterKey {
        let seed = Aes128::new(b"sdds-repro-kdf-0");
        let mut state = seed.prf(passphrase.as_bytes());
        for _ in 0..1024 {
            let aes = Aes128::new(&state);
            state = aes.prf(passphrase.as_bytes());
        }
        MasterKey { key: state }
    }

    /// Derives a labelled subkey: `PRF_master(label ‖ 0x00 ‖ index)`.
    pub fn derive(&self, label: &str, index: u64) -> [u8; 16] {
        let aes = Aes128::new(&self.key);
        let mut input = Vec::with_capacity(label.len() + 9);
        input.extend_from_slice(label.as_bytes());
        input.push(0);
        input.extend_from_slice(&index.to_le_bytes());
        aes.prf(&input)
    }
}

/// The full derived key material for one encrypted searchable file.
#[derive(Clone)]
pub struct KeyMaterial {
    master: MasterKey,
}

impl std::fmt::Debug for KeyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyMaterial { .. }") // never print key material
    }
}

impl KeyMaterial {
    /// Builds the hierarchy from a master key.
    pub fn new(master: MasterKey) -> KeyMaterial {
        KeyMaterial { master }
    }

    /// The record store cipher (strong encryption of full records).
    pub fn record_cipher(&self) -> Aes128 {
        Aes128::new(&self.master.derive("record-store", 0))
    }

    /// Per-record IV derived from the record identifier.
    pub fn record_iv(&self, rid: u64) -> [u8; 16] {
        let aes = Aes128::new(&self.master.derive("record-iv", 0));
        aes.prf(&rid.to_le_bytes())
    }

    /// Chunk-PRP key for one chunking (offset family).
    pub fn chunk_key(&self, chunking_id: u32) -> [u8; 16] {
        self.master.derive("chunk-prp", chunking_id as u64)
    }

    /// Seed for the dispersion matrix PRNG (Stage 3).
    pub fn dispersion_seed(&self) -> u64 {
        seed_from(&self.master.derive("dispersion", 0))
    }

    /// Sub-keys for the SWP-chunk index mode (one role key per chunking).
    pub fn swp_key(&self, role: &str, chunking: u32) -> [u8; 16] {
        self.master
            .derive(&format!("swp-chunk-{role}"), chunking as u64)
    }
}

/// The first eight bytes of a derived key as a little-endian seed
/// (infallible by construction — no panic path).
fn seed_from(k: &[u8; 16]) -> u64 {
    u64::from_le_bytes([k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let mk = MasterKey::new([7; 16]);
        assert_eq!(mk.derive("a", 0), mk.derive("a", 0));
        assert_ne!(mk.derive("a", 0), mk.derive("b", 0));
        assert_ne!(mk.derive("a", 0), mk.derive("a", 1));
        // label/index ambiguity guard: ("a", idx) vs ("a\0...", ...) differ
        assert_ne!(mk.derive("record-store", 0), mk.derive("record-store", 1));
    }

    #[test]
    fn different_masters_diverge() {
        let m1 = MasterKey::new([1; 16]);
        let m2 = MasterKey::new([2; 16]);
        assert_ne!(m1.derive("x", 0), m2.derive("x", 0));
    }

    #[test]
    fn passphrase_kdf_stable_and_sensitive() {
        let a = MasterKey::from_passphrase("correct horse");
        let b = MasterKey::from_passphrase("correct horse");
        let c = MasterKey::from_passphrase("correct horsf");
        assert_eq!(a.derive("t", 0), b.derive("t", 0));
        assert_ne!(a.derive("t", 0), c.derive("t", 0));
    }

    #[test]
    fn key_material_separates_roles() {
        let km = KeyMaterial::new(MasterKey::new([9; 16]));
        // chunk keys differ per chunking
        assert_ne!(km.chunk_key(0), km.chunk_key(1));
        // record IVs differ per record
        assert_ne!(km.record_iv(1), km.record_iv(2));
        // deterministic
        assert_eq!(km.record_iv(1), km.record_iv(1));
        assert_eq!(km.dispersion_seed(), km.dispersion_seed());
    }

    #[test]
    fn debug_never_leaks_key_bytes() {
        let mk = MasterKey::new([0xAB; 16]);
        let s = format!("{mk:?}");
        assert!(!s.contains("171")); // 0xAB
        assert!(!s.to_lowercase().contains("ab, ab"));
        let km = KeyMaterial::new(MasterKey::new([0xAB; 16]));
        let s = format!("{km:?}");
        assert!(!s.contains("171") && !s.to_lowercase().contains("ab, ab"));
    }

    #[test]
    fn drop_path_wipes_master_key_bytes() {
        let mut mk = MasterKey::new([0xCD; 16]);
        mk.zeroize_key();
        assert_eq!(mk.key, [0u8; 16], "master key bytes must be cleared");
    }
}
