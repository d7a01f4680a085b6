//! Best-effort zeroization of key material.
//!
//! The paper's trust model (§5) assumes index and storage sites never see
//! the master key or the chunk-PRP keys. Inside one process the residual
//! risk is key bytes lingering in freed memory (heap dumps, swap, a later
//! out-of-bounds read). [`wipe`] clears a buffer with volatile stores so
//! the optimizer cannot elide the writes as dead — the standard
//! `zeroize`-crate technique, reimplemented here because the workspace
//! builds offline and this is the only place that needs it.
//!
//! Scope: this wipes what the cipher types *own* (the software and the
//! hardware AES round-key schedules, the master key bytes). Copies the compiler spilled to the
//! stack or moved during `Clone` are inherently out of reach — this is
//! hygiene, not a hermetic guarantee.
//!
//! This module and `aes_ni` (the AES instructions) are the only `unsafe`
//! code in the workspace; the crate root is `#![deny(unsafe_code)]` and
//! every site carries a `SAFETY:` rationale audited by `sdds-lint` (rule
//! `unsafe-audit`).
#![allow(unsafe_code)]

use std::sync::atomic::{compiler_fence, Ordering};

/// Overwrites `bytes` with zeros through volatile stores, then fences so
/// the stores are ordered before any subsequent deallocation.
pub(crate) fn wipe(bytes: &mut [u8]) {
    for b in bytes.iter_mut() {
        // SAFETY: `b` is a valid, uniquely borrowed byte inside a live
        // buffer, so a volatile store through it is defined behavior; the
        // volatile qualifier only prevents the optimizer from discarding
        // the store as dead (the buffer is about to be dropped).
        unsafe { core::ptr::write_volatile(b, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wipe_clears_every_byte() {
        let mut buf = [0xAAu8; 37];
        wipe(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn wipe_handles_empty_buffer() {
        wipe(&mut []);
    }
}
