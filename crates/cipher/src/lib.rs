//! Block-cipher substrate for the encrypted searchable SDDS.
//!
//! The ICDE'06 scheme needs two kinds of encryption:
//!
//! 1. **Strong encryption** of whole records at the record store site. We
//!    provide [`Aes128`] (on the CPU's AES instructions where it has them,
//!    else implemented from scratch; both validated against the FIPS-197
//!    test vectors) with [`modes`] CBC and CTR.
//! 2. **Deterministic (ECB) encryption of chunks** for the index records
//!    (§2.1: "we then use Electronic Code Book encryption on all the chunks").
//!    Chunks are `s·f` bits — 16, 32, 48 bits … — never the 128 bits of a
//!    standard block cipher, so we provide [`ChunkPrp`], a keyed Feistel
//!    pseudo-random permutation over *arbitrary* bit widths with an
//!    AES-based round function. Equal chunks encrypt equally (the property
//!    search needs); unequal chunks never collide (it is a permutation).
//!
//! [`KeyMaterial`] derives independent subkeys for the record cipher, each
//! chunking's chunk PRP and the dispersion matrices from one master key, so
//! compromising an index site never yields the record key.

// `deny`, not `forbid`: two modules opt back in — `zeroize` for the
// volatile stores that wipe key material on drop, and `aes_ni` for the
// AES instructions (each site carries a `SAFETY:` rationale, audited by
// `sdds-lint`). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
mod aes_ni;
mod keys;
pub mod modes;
mod prp;
mod zeroize;

pub use aes::Aes128;
pub use keys::{KeyMaterial, MasterKey, RecordIvs};
pub use prp::{ChunkPrp, PrpError};

/// Errors surfaced by the mode-of-operation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CipherError {
    /// Ciphertext length is not a whole number of blocks.
    RaggedCiphertext(usize),
    /// Padding bytes were malformed on decryption.
    BadPadding,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::RaggedCiphertext(n) => {
                write!(
                    f,
                    "ciphertext length {n} is not a multiple of the block size"
                )
            }
            CipherError::BadPadding => write!(f, "invalid PKCS#7 padding"),
        }
    }
}

impl std::error::Error for CipherError {}
