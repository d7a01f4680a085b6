//! Binary codec primitives shared by the TCP frame ([`crate::frame`]) and
//! every message body that rides inside it (`Wire`, `EncryptedQuery`).
//!
//! One representation, used everywhere:
//!
//! * integers are fixed-width little-endian (`u8`, `u32`, `u64`; a
//!   `usize` travels as `u64`);
//! * a `bool` is one byte, `0` or `1`;
//! * an `Option` is a flag byte (`0` = `None`, `1` = `Some`) followed by
//!   the value when present;
//! * a byte string or UTF-8 string is a `u32` length followed by the raw
//!   bytes;
//! * a sequence is a `u32` count followed by the items.
//!
//! Writers append to a `Vec<u8>` (the send path hands in a
//! [`PooledBuf`](crate::PooledBuf)'s vector) and cannot fail. The
//! [`Reader`] fails closed: every accessor returns `None` instead of
//! reading past the end, and every length or count that came off the wire
//! is checked against the bytes that remain **before** anything is
//! allocated for it, so a hostile length prefix costs nothing.

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a `bool` as one byte (`0` / `1`).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Appends a length or count prefix. Lengths beyond `u32::MAX` cannot be
/// framed (a frame is capped at 16 MiB); they saturate, and the reader
/// then rejects the message because the bytes that follow do not add up.
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).unwrap_or(u32::MAX));
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_len(out, v.len());
    out.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// Appends an `Option`: a flag byte, then `item(out, value)` when `Some`.
pub fn put_option<T>(out: &mut Vec<u8>, v: Option<T>, item: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(x) => {
            out.push(1);
            item(out, x);
        }
        None => out.push(0),
    }
}

/// Appends a sequence: a count, then `item(out, x)` for every element.
pub fn put_seq<T>(out: &mut Vec<u8>, v: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
    put_len(out, v.len());
    for x in v {
        item(out, x);
    }
}

/// A bounds-checked cursor over a received message body.
#[derive(Debug)]
pub struct Reader<'a> {
    body: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the first byte of `body`.
    pub fn new(body: &'a [u8]) -> Reader<'a> {
        Reader { body }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.body.len()
    }

    /// `Some(())` only when every byte has been consumed — trailing bytes
    /// make a message malformed.
    pub fn finish(self) -> Option<()> {
        self.body.is_empty().then_some(())
    }

    /// Consumes and returns everything that is left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.body)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.body.split_at_checked(n)?;
        self.body = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `usize` sent as a `u64`; `None` if it does not fit.
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads a `bool`; any byte other than `0` or `1` is malformed.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed byte string, borrowed from the body.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the body.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// [`bytes`](Self::bytes), copied into an owned vector.
    pub fn vec(&mut self) -> Option<Vec<u8>> {
        self.bytes().map(<[u8]>::to_vec)
    }

    /// [`str`](Self::str), copied into an owned string.
    pub fn string(&mut self) -> Option<String> {
        self.str().map(str::to_owned)
    }

    /// Reads a sequence count whose items each occupy at least
    /// `min_item_bytes` (≥ 1) on the wire. `None` when that many items
    /// cannot fit in the bytes that remain, so a caller may allocate for
    /// the returned count: it never exceeds [`remaining`](Self::remaining).
    pub fn count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(min_item_bytes.max(1))?;
        (need <= self.remaining()).then_some(n)
    }

    /// Reads an `Option` written by [`put_option`].
    pub fn option<T>(
        &mut self,
        item: impl FnOnce(&mut Reader<'a>) -> Option<T>,
    ) -> Option<Option<T>> {
        if self.bool()? {
            item(self).map(Some)
        } else {
            Some(None)
        }
    }

    /// Reads a sequence written by [`put_seq`]; see [`count`](Self::count)
    /// for `min_item_bytes`.
    pub fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.count(min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

/// Checks every decoder built on this module must pass on bytes it did
/// not write. For the tests of the message types (`Wire`,
/// `EncryptedQuery`): each function panics when the decoder misbehaves.
pub mod check {
    use std::fmt::Debug;

    /// Exhaustive small cases over well-formed `encodings`: every proper
    /// prefix decodes to `None`, and no single-bit flip makes `decode`
    /// panic (it may yield `None` or some other value).
    pub fn prefixes_and_bitflips<T: Debug>(
        encodings: &[Vec<u8>],
        decode: impl Fn(&[u8]) -> Option<T>,
    ) {
        for enc in encodings {
            for cut in 0..enc.len() {
                let got = decode(&enc[..cut]);
                assert!(got.is_none(), "prefix {cut} of {enc:?} decoded: {got:?}");
            }
            let mut flipped = enc.clone();
            for bit in 0..enc.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// `head` is everything a message holds before one of its length or
    /// count fields, `tail` what follows that field when it reads zero.
    /// With an honest zero the message decodes; with `u32::MAX` and ten
    /// more bytes it is refused — [`Reader`](super::Reader) compares the
    /// declared size with those ten bytes before anything is allocated.
    pub fn hostile_length<T: Debug>(head: &[u8], tail: &[u8], decode: impl Fn(&[u8]) -> Option<T>) {
        let honest = [head, &[0; 4], tail].concat();
        assert!(decode(&honest).is_some(), "head {head:?} is not a message");
        let hostile = [head, &[0xFF; 4], &[0; 10]].concat();
        let got = decode(&hostile);
        assert!(got.is_none(), "{hostile:?} decoded: {got:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_and_fail_closed_on_short_input() {
        let mut buf = vec![7];
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX);
        put_usize(&mut buf, 12345);
        put_bool(&mut buf, true);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.usize(), Some(12345));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.finish(), Some(()));

        let mut short = Reader::new(&buf[..3]);
        assert_eq!(short.u8(), Some(7));
        assert_eq!(short.u32(), None, "two bytes are not a u32");
        assert_eq!(Reader::new(&[]).u8(), None);
        assert_eq!(Reader::new(&[2]).bool(), None, "bool is 0 or 1");
        assert_eq!(Reader::new(&[0]).finish(), None, "trailing byte");
    }

    #[test]
    fn strings_options_and_sequences_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"");
        put_str(&mut buf, "grüß");
        put_option(&mut buf, Some(9u64), put_u64);
        put_option(&mut buf, None::<u64>, put_u64);
        put_seq(&mut buf, &[1u32, 2, 3], |o, x| put_u32(o, *x));
        let mut r = Reader::new(&buf);
        assert_eq!(r.vec(), Some(vec![]));
        assert_eq!(r.string(), Some("grüß".to_owned()));
        assert_eq!(r.option(Reader::u64), Some(Some(9)));
        assert_eq!(r.option(Reader::u64), Some(None));
        assert_eq!(r.seq(4, Reader::u32), Some(vec![1, 2, 3]));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn malformed_flags_and_text_are_rejected() {
        assert_eq!(Reader::new(&[2, 0]).option(Reader::u8), None);
        let mut bad_utf8 = Vec::new();
        put_bytes(&mut bad_utf8, &[0xFF, 0xFE]);
        assert_eq!(Reader::new(&bad_utf8).str(), None);
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // u32::MAX declared, ten bytes present: both the byte-string and
        // the sequence path must refuse without reserving anything.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0u8; 10]);
        assert_eq!(Reader::new(&buf).bytes(), None);
        assert_eq!(Reader::new(&buf).count(1), None);
        assert_eq!(Reader::new(&buf).seq(1, Reader::u8), None);
        // A count is only ever returned when that many minimal items fit.
        let mut ok = Vec::new();
        put_u32(&mut ok, 5);
        ok.extend_from_slice(&[0u8; 10]);
        assert_eq!(Reader::new(&ok).count(2), Some(5));
        assert_eq!(Reader::new(&ok).count(3), None);
        // usize::MAX-ish products must not overflow into acceptance.
        assert_eq!(Reader::new(&buf).count(usize::MAX), None);
    }
}
