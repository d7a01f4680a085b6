//! Wire framing for the TCP transport.
//!
//! Every message on a TCP connection is one *frame*:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [body: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the body (so a frame occupies `8 + len`
//! bytes on the wire) and `crc` is the CRC-32 (IEEE polynomial, the same
//! variant used by zlib: `sdds_obs::crc32`) of the kind byte followed by
//! the body. A frame whose CRC does not match, whose `len` is zero, or
//! whose `len` exceeds [`MAX_FRAME_LEN`] is rejected and the connection
//! that produced it is dropped: framing is only trusted as a unit, never
//! resynchronised mid-stream.
//!
//! Five frame kinds exist:
//!
//! * kind `0` — an [`Envelope`]: `from: u32 LE`, `to: u32 LE`, `flags: u8`
//!   (bit 0 = trace context present), then if the flag is set
//!   `trace_id: u64 LE` + `parent_span_id: u64 LE`, then the payload bytes.
//! * kind `1` — a NACK: `to: u32 LE`, the destination of an envelope the
//!   receiver could not route (a retired id, one it does not host, or one
//!   it hosts that has no mailbox). The sender fails
//!   its next send to `to` with `NetError::Disconnected`, as the channel
//!   fabric fails it at once.
//! * kind `2` — a hello: `id: u32 LE`. Sent by a connecting process for
//!   each dynamically allocated (client) site id it hosts, so the serving
//!   side learns which connection routes replies to that id. Re-sent on
//!   every reconnect.
//! * kind `3` — a link: `id: u64 LE`, `next_seq: u64 LE`. Opens every
//!   stream a process dials, after its hellos: the frames that follow on
//!   the stream are numbered `next_seq`, `next_seq + 1`, … on link `id`,
//!   which names the dialing connection for the life of its process.
//! * kind `4` — an ack: `seq: u64 LE`, sent back on an accepted stream:
//!   every frame of its link up to `seq` has been delivered, and the
//!   dialer may let them go.
//!
//! The decoder is incremental: feed it arbitrary byte chunks (torn reads
//! are fine) and pull complete frames out. It never pre-allocates more
//! than the declared frame length, and declared lengths are capped at
//! [`MAX_FRAME_LEN`] *before* any allocation happens, so a hostile or
//! corrupt length prefix cannot trigger an over-allocation.

use crate::codec::{put_u32, put_u64, Reader};
use crate::network::{Envelope, SiteId};
use bytes::Bytes;
use sdds_obs::crc32;
use sdds_obs::trace::TraceContext;

/// Upper bound on `len` (kind byte + body) for a single frame: 16 MiB.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Fixed prefix: 4-byte length + 4-byte CRC.
pub const HEADER_LEN: usize = 8;

const KIND_ENVELOPE: u8 = 0;
const KIND_NACK: u8 = 1;
const KIND_HELLO: u8 = 2;
const KIND_LINK: u8 = 3;
const KIND_ACK: u8 = 4;

const FLAG_CTX: u8 = 0b0000_0001;

/// One decoded frame.
#[derive(Debug)]
pub enum Frame {
    /// A routed message.
    Envelope(Envelope),
    /// A refusal: the receiver cannot route envelopes for `to`.
    Nack {
        /// The refused envelope's destination.
        to: SiteId,
    },
    /// A dynamic-id announcement from a connecting process.
    Hello {
        /// The dynamically allocated site id the peer hosts.
        id: SiteId,
    },
    /// The start of a dialed stream's numbered frames.
    Link {
        /// The dialing connection's link id.
        id: u64,
        /// The number of the frame that follows.
        next_seq: u64,
    },
    /// Cumulative delivery acknowledgement of a link's frames.
    Ack {
        /// The number of the last frame delivered.
        seq: u64,
    },
}

/// Why a frame (or stream position) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length is zero or exceeds [`MAX_FRAME_LEN`].
    BadLength(u64),
    /// CRC over kind+body did not match the header.
    BadCrc,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The body was shorter than its fixed fields require.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "frame length {n} out of range"),
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Truncated => write!(f, "frame body truncated"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Finishes a frame started at `start` in `out`: fills in the length and
/// CRC header bytes that were reserved by the caller.
#[allow(clippy::ptr_arg)] // writes length/CRC in place *and* measures the tail the caller appended
fn seal(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - HEADER_LEN) as u32;
    let crc = crc32(&out[start + HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends a frame of `kind` whose body `body` writes to `out`.
fn encode(kind: u8, out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    out.push(kind);
    body(out);
    seal(out, start);
}

/// Appends an encoded envelope frame to `out`.
pub fn encode_envelope(env: &Envelope, out: &mut Vec<u8>) {
    encode(KIND_ENVELOPE, out, |out| {
        put_u32(out, env.from.0);
        put_u32(out, env.to.0);
        match env.ctx {
            Some(ctx) => {
                out.push(FLAG_CTX);
                put_u64(out, ctx.trace_id);
                put_u64(out, ctx.parent_span_id);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&env.payload);
    });
}

/// Appends an encoded NACK frame for destination `to` to `out`.
pub fn encode_nack(to: SiteId, out: &mut Vec<u8>) {
    encode(KIND_NACK, out, |out| put_u32(out, to.0));
}

/// Appends an encoded hello frame to `out`.
pub fn encode_hello(id: SiteId, out: &mut Vec<u8>) {
    encode(KIND_HELLO, out, |out| put_u32(out, id.0));
}

/// Appends an encoded link frame to `out`.
pub fn encode_link(id: u64, next_seq: u64, out: &mut Vec<u8>) {
    encode(KIND_LINK, out, |out| {
        put_u64(out, id);
        put_u64(out, next_seq);
    });
}

/// Appends an encoded ack frame to `out`.
pub fn encode_ack(seq: u64, out: &mut Vec<u8>) {
    encode(KIND_ACK, out, |out| put_u64(out, seq));
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, FrameError> {
    const SHORT: FrameError = FrameError::Truncated;
    let mut r = Reader::new(body);
    match kind {
        KIND_ENVELOPE => {
            let from = SiteId(r.u32().ok_or(SHORT)?);
            let to = SiteId(r.u32().ok_or(SHORT)?);
            let flags = r.u8().ok_or(SHORT)?;
            let ctx = if flags & FLAG_CTX != 0 {
                Some(TraceContext {
                    trace_id: r.u64().ok_or(SHORT)?,
                    parent_span_id: r.u64().ok_or(SHORT)?,
                })
            } else {
                None
            };
            let payload = Bytes::copy_from_slice(r.rest());
            Ok(Frame::Envelope(Envelope {
                from,
                to,
                payload,
                ctx,
            }))
        }
        KIND_NACK => Ok(Frame::Nack {
            to: SiteId(r.u32().ok_or(SHORT)?),
        }),
        KIND_HELLO => Ok(Frame::Hello {
            id: SiteId(r.u32().ok_or(SHORT)?),
        }),
        KIND_LINK => Ok(Frame::Link {
            id: r.u64().ok_or(SHORT)?,
            next_seq: r.u64().ok_or(SHORT)?,
        }),
        KIND_ACK => Ok(Frame::Ack {
            seq: r.u64().ok_or(SHORT)?,
        }),
        other => Err(FrameError::BadKind(other)),
    }
}

/// Incremental frame decoder.
///
/// Feed raw bytes with [`FrameDecoder::extend`]; pull complete frames with
/// [`FrameDecoder::next_frame`]. Internally buffers at most one partial
/// frame plus whatever the caller has fed ahead; buffered bytes for a
/// frame are bounded by `HEADER_LEN + MAX_FRAME_LEN` because oversized
/// length prefixes are rejected before the body is awaited.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feeds `data` into the decoder.
    pub fn extend(&mut self, data: &[u8]) {
        // Compact consumed bytes before growing so steady-state decoding
        // reuses one buffer instead of creeping forward forever.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or an error if the stream is corrupt (the connection must
    /// then be dropped — the decoder does not resynchronise).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut lenb = [0u8; 4];
        lenb.copy_from_slice(&avail[..4]);
        let len = u32::from_le_bytes(lenb) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::BadLength(len as u64));
        }
        if avail.len() < HEADER_LEN + len {
            // Reserve at most the declared (already validated) length.
            let needed = HEADER_LEN + len - avail.len();
            self.buf.reserve(needed);
            return Ok(None);
        }
        let mut crcb = [0u8; 4];
        crcb.copy_from_slice(&avail[4..8]);
        let expect = u32::from_le_bytes(crcb);
        let frame_bytes = &avail[HEADER_LEN..HEADER_LEN + len];
        if crc32(frame_bytes) != expect {
            return Err(FrameError::BadCrc);
        }
        let frame = decode_body(frame_bytes[0], &frame_bytes[1..])?;
        self.pos += HEADER_LEN + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env(from: u32, to: u32, payload: &[u8], ctx: Option<(u64, u64)>) -> Envelope {
        Envelope {
            from: SiteId(from),
            to: SiteId(to),
            payload: Bytes::copy_from_slice(payload),
            ctx: ctx.map(|(t, p)| TraceContext {
                trace_id: t,
                parent_span_id: p,
            }),
        }
    }

    fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut d = FrameDecoder::new();
        d.extend(bytes);
        let mut out = Vec::new();
        while let Some(f) = d.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }

    #[test]
    fn crc32_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_roundtrip_with_and_without_ctx() {
        for ctx in [None, Some((7u64, 9u64))] {
            let e = env(3, 12, b"payload bytes", ctx);
            let mut buf = Vec::new();
            encode_envelope(&e, &mut buf);
            let frames = decode_all(&buf).unwrap();
            assert_eq!(frames.len(), 1);
            match &frames[0] {
                Frame::Envelope(d) => {
                    assert_eq!(d.from, e.from);
                    assert_eq!(d.to, e.to);
                    assert_eq!(d.payload, e.payload);
                    assert_eq!(d.ctx, e.ctx);
                }
                other => panic!("expected envelope, got {other:?}"),
            }
        }
    }

    #[test]
    fn nack_hello_link_and_ack_roundtrip() {
        let mut buf = Vec::new();
        encode_nack(SiteId(2), &mut buf);
        encode_nack(SiteId(4), &mut buf);
        encode_hello(SiteId(0xFE00_0042), &mut buf);
        encode_link(u64::MAX - 1, 7, &mut buf);
        encode_ack(1 << 40, &mut buf);
        let frames = decode_all(&buf).unwrap();
        assert_eq!(frames.len(), 5);
        match frames[0] {
            Frame::Nack { to } => assert_eq!(to, SiteId(2)),
            ref other => panic!("expected nack, got {other:?}"),
        }
        match frames[2] {
            Frame::Hello { id } => assert_eq!(id, SiteId(0xFE00_0042)),
            ref other => panic!("expected hello, got {other:?}"),
        }
        match frames[3] {
            Frame::Link { id, next_seq } => assert_eq!((id, next_seq), (u64::MAX - 1, 7)),
            ref other => panic!("expected link, got {other:?}"),
        }
        match frames[4] {
            Frame::Ack { seq } => assert_eq!(seq, 1 << 40),
            ref other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn torn_reads_at_every_byte_boundary() {
        let mut buf = Vec::new();
        encode_envelope(&env(1, 2, b"torn read test", Some((11, 22))), &mut buf);
        encode_nack(SiteId(6), &mut buf);
        for split in 0..=buf.len() {
            let mut d = FrameDecoder::new();
            d.extend(&buf[..split]);
            let mut got = 0;
            while let Some(_f) = d.next_frame().unwrap() {
                got += 1;
            }
            d.extend(&buf[split..]);
            while let Some(_f) = d.next_frame().unwrap() {
                got += 1;
            }
            assert_eq!(got, 2, "split at byte {split}");
        }
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut buf = Vec::new();
        encode_envelope(&env(1, 2, b"x", None), &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert_eq!(decode_all(&buf).unwrap_err(), FrameError::BadCrc);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.extend(&buf);
        assert!(matches!(
            d.next_frame(),
            Err(FrameError::BadLength(n)) if n == u32::MAX as u64
        ));
        // The decoder must not have ballooned its buffer toward the
        // declared length.
        assert!(d.buf.capacity() < 1024);
    }

    #[test]
    fn zero_length_is_rejected() {
        let mut d = FrameDecoder::new();
        d.extend(&[0u8; HEADER_LEN]);
        assert!(matches!(d.next_frame(), Err(FrameError::BadLength(0))));
    }

    #[test]
    fn compaction_keeps_decoding_correct() {
        let mut one = Vec::new();
        encode_envelope(&env(9, 10, &[0xAB; 300], None), &mut one);
        let mut d = FrameDecoder::new();
        for round in 0..600 {
            d.extend(&one);
            match d.next_frame().unwrap() {
                Some(Frame::Envelope(e)) => assert_eq!(e.payload.len(), 300, "round {round}"),
                other => panic!("round {round}: {other:?}"),
            }
        }
        assert!(d.buf.capacity() < 512 * 1024);
    }

    proptest! {
        #[test]
        fn random_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut d = FrameDecoder::new();
            d.extend(&data);
            // Either frames decode or an error is reported; never a panic,
            // never an oversized allocation.
            while let Ok(Some(_)) = d.next_frame() {}
            prop_assert!(d.buf.capacity() <= 2 * MAX_FRAME_LEN);
        }

        #[test]
        fn roundtrip_random_envelopes_with_random_chunking(
            from in 0u32..u32::MAX,
            to in 0u32..u32::MAX,
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            ctx_sel in 0u8..2,
            trace_id in any::<u64>(),
            parent in any::<u64>(),
            chunk in 1usize..64,
        ) {
            let ctx = (ctx_sel == 1).then_some((trace_id, parent));
            let e = env(from, to, &payload, ctx);
            let mut buf = Vec::new();
            encode_envelope(&e, &mut buf);
            let mut d = FrameDecoder::new();
            let mut decoded = None;
            for piece in buf.chunks(chunk) {
                d.extend(piece);
                if let Some(f) = d.next_frame().unwrap() {
                    decoded = Some(f);
                }
            }
            match decoded {
                Some(Frame::Envelope(got)) => {
                    prop_assert_eq!(got.from, e.from);
                    prop_assert_eq!(got.to, e.to);
                    prop_assert_eq!(got.payload, e.payload);
                    prop_assert_eq!(got.ctx, e.ctx);
                }
                other => prop_assert!(false, "decoded {:?}", other),
            }
        }

        #[test]
        fn single_bitflip_is_rejected_or_detected(
            payload in proptest::collection::vec(any::<u8>(), 0..128),
            bit in 0usize..64,
        ) {
            let e = env(1, 2, &payload, None);
            let mut buf = Vec::new();
            encode_envelope(&e, &mut buf);
            let idx = (bit / 8) % buf.len();
            let mask = 1u8 << (bit % 8);
            buf[idx] ^= mask;
            let mut d = FrameDecoder::new();
            d.extend(&buf);
            // A flipped bit may land in the length prefix (bad length or a
            // short read that never completes) or anywhere else (bad CRC).
            // It must never produce a different, silently-accepted frame.
            match d.next_frame() {
                Ok(Some(Frame::Envelope(got))) => {
                    // Only acceptable if the flip cancelled out, which it
                    // cannot: we flipped exactly one bit.
                    prop_assert!(
                        false,
                        "corrupt frame accepted: {:?} vs {:?}",
                        got.payload, e.payload
                    );
                }
                Ok(Some(_)) => prop_assert!(false, "corrupt frame decoded as other kind"),
                Ok(None) | Err(_) => {}
            }
        }
    }
}
