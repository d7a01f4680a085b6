//! Reusable send-buffer pool.
//!
//! Message encoding used to build a fresh `Vec<u8>` per send and then copy
//! it again into the `Arc<[u8]>` backing `Bytes`. [`PooledBuf`] removes
//! both costs on the steady-state path: `take()` hands out a recycled
//! `Vec<u8>`, the encoder streams into it via `io::Write`, and
//! [`PooledBuf::into_bytes`] wraps the buffer as `Bytes` *without copying*
//! (`Bytes::from_owner`). When the last clone of the `Bytes` is dropped,
//! the buffer returns to the pool.
//!
//! The pool is global and bounded: at most [`MAX_POOLED`] buffers are
//! retained, and buffers that grew beyond [`MAX_RETAIN_CAPACITY`] are
//! dropped instead of pooled so one huge scan response cannot pin memory
//! forever. `net.buf_pool_hits` / `net.buf_pool_misses` count recycled vs
//! freshly allocated buffers.

use crate::sync::lock;
use sdds_obs::Counter;
use std::sync::{LazyLock, Mutex};

/// Maximum number of idle buffers the pool retains.
const MAX_POOLED: usize = 64;

/// Buffers larger than this are not returned to the pool.
const MAX_RETAIN_CAPACITY: usize = 256 * 1024;

static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

// Resolved once: by name is a registry lock and a map probe, and every
// encode of every message takes a buffer.
static HITS: LazyLock<Counter> = LazyLock::new(|| sdds_obs::counter("net.buf_pool_hits"));
static MISSES: LazyLock<Counter> = LazyLock::new(|| sdds_obs::counter("net.buf_pool_misses"));

/// A pooled, growable byte buffer.
///
/// Obtained with [`PooledBuf::take`]; filled through `io::Write` (or
/// [`PooledBuf::as_mut_vec`]); converted into zero-copy [`bytes::Bytes`]
/// with [`PooledBuf::into_bytes`]. Dropping it (directly or via the last
/// `Bytes` clone) returns the buffer to the pool.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Option<Vec<u8>>,
}

impl PooledBuf {
    /// Takes a cleared buffer from the pool, or allocates a fresh one.
    pub fn take() -> PooledBuf {
        let recycled = lock(&POOL).pop();
        match recycled {
            Some(mut buf) => {
                buf.clear();
                HITS.inc();
                PooledBuf { buf: Some(buf) }
            }
            None => {
                MISSES.inc();
                PooledBuf {
                    buf: Some(Vec::new()),
                }
            }
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_deref().unwrap_or(&[])
    }

    /// Mutable access to the underlying vector (for non-`io::Write`
    /// encoders).
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        self.buf.get_or_insert_with(Vec::new)
    }

    /// Wraps the buffer as `Bytes` without copying. The buffer returns to
    /// the pool when the last clone of the returned `Bytes` is dropped.
    pub fn into_bytes(self) -> bytes::Bytes {
        bytes::Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::io::Write for PooledBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.as_mut_vec().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            if buf.capacity() <= MAX_RETAIN_CAPACITY {
                let mut pool = lock(&POOL);
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn roundtrip_through_bytes_returns_buffer_to_pool() {
        // Warm the pool so this test is deterministic regardless of what
        // ran before it.
        drop(PooledBuf::take());

        let hits = sdds_obs::counter("net.buf_pool_hits");
        let before = hits.get();
        let mut b = PooledBuf::take();
        b.write_all(b"hello pool").unwrap();
        assert_eq!(b.as_slice(), b"hello pool");
        let bytes = b.into_bytes();
        let clone = bytes.clone();
        assert_eq!(&clone[..], b"hello pool");
        drop(bytes);
        drop(clone);
        // The buffer is back: the next take is a hit.
        let again = PooledBuf::take();
        assert!(hits.get() > before);
        assert!(again.as_slice().is_empty());
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let mut b = PooledBuf::take();
        b.as_mut_vec().reserve(MAX_RETAIN_CAPACITY + 1);
        let cap = b.as_mut_vec().capacity();
        assert!(cap > MAX_RETAIN_CAPACITY);
        drop(b);
        // Whatever we take next cannot be that oversized buffer.
        let next = PooledBuf::take();
        assert!(next.buf.as_ref().map(Vec::capacity).unwrap_or(0) < cap);
    }
}
