//! Append-only CRC-framed write-ahead log: the one log of a host.
//!
//! A frame is `[payload_len: u32][crc32(payload): u32][payload]`, all
//! little-endian; the payload is `count: u32` and `count` tagged entries
//! (`0 = Put{key u64, vlen u32, value}`, `1 = Delete{key u64}`,
//! `2 = Clear`, `3 = Bucket{addr u64}`, `4 = Retire`). A `Bucket` entry
//! says whose the entries after it are (a frame starts at bucket 0).
//! Replay applies a frame only if length, checksum and payload all
//! validate, and *physically truncates* the log at the first that does
//! not, so a torn tail can never half-apply a frame or poison later
//! appends. A frame is filled ([`WalWriter::stage`]) before it is written
//! ([`WalWriter::write`]): a runtime writes one per worker round.

use crate::{BatchOp, StorageError};
use sdds_obs::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Frame header size: length + checksum words.
const FRAME_HEADER: usize = 8;

/// Upper bound accepted for a single frame payload (64 MiB). Anything
/// larger is treated as corruption: it exceeds what any bucket transfer
/// can legitimately produce and protects replay from absurd allocations.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// An open frame this long is written before more is staged into it.
const FRAME_SPLIT: usize = (MAX_PAYLOAD / 4) as usize;

/// When written frames are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every frame: an acknowledged write is durable.
    Always,
    /// Group commit: fsync once every `n` frames (and on explicit flush).
    /// `EveryN(1)` is equivalent to `Always`.
    EveryN(u32),
    /// Never fsync from the engine; durability rides on the OS cache.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `never`, or a group size number.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            n => n.parse::<u32>().ok().filter(|&n| n > 0).map(|n| {
                if n == 1 {
                    FsyncPolicy::Always
                } else {
                    FsyncPolicy::EveryN(n)
                }
            }),
        }
    }
}

/// Appends one entry's encoding to `out`.
fn encode_op(out: &mut Vec<u8>, op: &BatchOp) {
    match op {
        BatchOp::Put { key, value } => {
            out.push(0);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        BatchOp::Delete { key } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
        }
        BatchOp::Clear => out.push(2),
        BatchOp::Bucket { addr } => {
            out.push(3);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        BatchOp::Retire => out.push(4),
    }
}

/// Decode one frame payload back into entries. `None` on any
/// malformation: truncated fields, unknown tags, or trailing garbage.
pub(crate) fn decode_ops(payload: &[u8]) -> Option<Vec<BatchOp>> {
    let mut at = 0usize;
    let count = read_u32(payload, &mut at)? as usize;
    let mut ops = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = *payload.get(at)?;
        at += 1;
        match tag {
            0 => {
                let key = read_u64(payload, &mut at)?;
                let vlen = read_u32(payload, &mut at)? as usize;
                let value = payload.get(at..at.checked_add(vlen)?)?.to_vec();
                at += vlen;
                ops.push(BatchOp::Put { key, value });
            }
            1 => {
                let key = read_u64(payload, &mut at)?;
                ops.push(BatchOp::Delete { key });
            }
            2 => ops.push(BatchOp::Clear),
            3 => {
                let addr = read_u64(payload, &mut at)?;
                ops.push(BatchOp::Bucket { addr });
            }
            4 => ops.push(BatchOp::Retire),
            _ => return None,
        }
    }
    if at != payload.len() {
        return None;
    }
    Some(ops)
}

fn read_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(*at..*at + 4)?.try_into().ok()?;
    *at += 4;
    Some(u32::from_le_bytes(bytes))
}

fn read_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(*at..*at + 8)?.try_into().ok()?;
    *at += 8;
    Some(u64::from_le_bytes(bytes))
}

/// Walk frames in `data`, yielding each valid payload slice. Returns the
/// byte offset of the first invalid frame (== `data.len()` when the whole
/// buffer parses).
pub(crate) fn walk_frames<'a>(data: &'a [u8], mut on_payload: impl FnMut(&'a [u8])) -> usize {
    let mut at = 0usize;
    loop {
        let Some(header) = data.get(at..at + FRAME_HEADER) else {
            return at; // clean EOF or torn header
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let want = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_PAYLOAD {
            return at;
        }
        let body_start = at + FRAME_HEADER;
        let Some(payload) = data.get(body_start..body_start + len as usize) else {
            return at; // torn payload
        };
        if crc32(payload) != want {
            return at;
        }
        on_payload(payload);
        at = body_start + len as usize;
    }
}

type Frames = Vec<Vec<BatchOp>>;

/// Statistics from one [`replay`] pass, surfaced to obs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayStats {
    /// Valid frames applied.
    pub frames: u64,
    /// Bytes discarded past the first invalid frame (0 for a clean log).
    pub truncated: u64,
}

/// The file at `path` (empty if missing): the entries of its valid
/// frames, the length of its valid prefix, its length, and whether a
/// checksummed frame failed to decode.
fn read(path: &Path) -> Result<(Frames, usize, usize, bool), StorageError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StorageError::io("wal read", e)),
    };
    let (mut frames, mut undecodable) = (Vec::new(), false);
    let good = walk_frames(&data, |payload| match decode_ops(payload) {
        Some(ops) => frames.push(ops),
        None => undecodable = true,
    });
    Ok((frames, good, data.len(), undecodable))
}

/// Read `path`, decode every valid frame in order, and truncate the file
/// at the first invalid frame so subsequent appends extend a clean log.
/// A checksummed-but-undecodable frame can't come from our own writer:
/// it is skipped rather than abort replay of later good frames.
pub(crate) fn replay(
    path: &Path,
    on_batch: impl FnMut(Vec<BatchOp>),
) -> Result<ReplayStats, StorageError> {
    let (frames, good, len, _) = read(path)?;
    let stats = ReplayStats {
        frames: frames.len() as u64,
        truncated: (len - good) as u64,
    };
    frames.into_iter().for_each(on_batch);
    if good < len {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io("wal truncate open", e))?;
        file.set_len(good as u64)
            .map_err(|e| StorageError::io("wal truncate", e))?;
        file.sync_all()
            .map_err(|e| StorageError::io("wal truncate sync", e))?;
    }
    Ok(stats)
}

/// Strictly read a frame file (used for snapshots): every byte must parse,
/// otherwise the whole file is rejected.
pub(crate) fn read_strict(path: &Path) -> Result<Frames, StorageError> {
    let (frames, good, len, undecodable) = read(path)?;
    if good != len || undecodable {
        return Err(StorageError::Corruption(format!(
            "snapshot {} invalid at byte {good} of {len}",
            path.display()
        )));
    }
    Ok(frames)
}

/// The append side of the log: the file, the open frame and the
/// group-commit bookkeeping.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    /// The open frame, header and entry count reserved; empty if none.
    frame: Vec<u8>,
    entries: u32,
    /// Whose the open frame's next entries are.
    bucket: u64,
    unsynced: u32,
    bytes: u64,
    #[cfg(test)]
    fsyncs: u64,
}

impl WalWriter {
    /// Open `path` for appending (creating it if absent).
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<WalWriter, StorageError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StorageError::io("wal open", e))?;
        let bytes = file
            .metadata()
            .map_err(|e| StorageError::io("wal metadata", e))?
            .len();
        Ok(WalWriter {
            file,
            policy,
            frame: Vec::new(),
            entries: 0,
            bucket: 0,
            unsynced: 0,
            bytes,
            #[cfg(test)]
            fsyncs: 0,
        })
    }

    /// Adds bucket `addr`'s `ops` to the open frame (behind a `Bucket`
    /// entry if need be); writes only a frame grown past [`FRAME_SPLIT`].
    pub fn stage(&mut self, addr: u64, ops: &[BatchOp]) -> Result<(), StorageError> {
        if self.frame.len() > FRAME_SPLIT {
            self.write()?;
        }
        if self.frame.is_empty() {
            self.frame.resize(FRAME_HEADER + 4, 0);
            self.bucket = 0;
        }
        if addr != self.bucket {
            encode_op(&mut self.frame, &BatchOp::Bucket { addr });
            self.entries += 1;
            self.bucket = addr;
        }
        for op in ops {
            encode_op(&mut self.frame, op);
        }
        self.entries += ops.len() as u32;
        Ok(())
    }

    /// Seals the open frame and writes it (one with no entries is dropped).
    pub fn write(&mut self) -> Result<(), StorageError> {
        if self.entries == 0 {
            self.frame.clear();
            return Ok(());
        }
        let t0 = Instant::now();
        let frame = &mut self.frame;
        let payload_len = (frame.len() - FRAME_HEADER) as u32;
        frame[FRAME_HEADER..FRAME_HEADER + 4].copy_from_slice(&self.entries.to_le_bytes());
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        let written = self.file.write_all(frame);
        self.bytes += frame.len() as u64;
        frame.clear();
        self.entries = 0;
        written.map_err(|e| StorageError::io("wal append", e))?;
        self.unsynced += 1;
        sdds_obs::counter("storage.wal_appends").inc();
        sdds_obs::histogram("storage.append_seconds").observe_duration(t0.elapsed());
        Ok(())
    }

    /// Whether the policy wants the written frames synced now.
    pub fn due(&self) -> bool {
        match self.policy {
            FsyncPolicy::Always => self.unsynced > 0,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        }
    }

    /// Force written frames to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("wal fsync", e))?;
        self.unsynced = 0;
        #[cfg(test)]
        {
            self.fsyncs += 1;
        }
        sdds_obs::counter("storage.wal_fsyncs").inc();
        sdds_obs::histogram("storage.fsync_seconds").observe_duration(t0.elapsed());
        Ok(())
    }

    /// Current log size in bytes (compaction trigger input).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Serialize a list of entries into one frame payload.
    pub(crate) fn encode_ops(ops: &[BatchOp]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * ops.len() + 4);
        out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            encode_op(&mut out, op);
        }
        out
    }

    /// Frame a payload: header + body, ready to append.
    pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    impl WalWriter {
        /// Append one batch as a single frame, honoring the fsync policy:
        /// the whole commit of a lone engine's write.
        pub fn append(&mut self, ops: &[BatchOp]) -> Result<(), StorageError> {
            self.stage(0, ops)?;
            self.write()?;
            if self.due() {
                self.sync()?;
            }
            Ok(())
        }

        /// fsyncs issued by this writer since open.
        pub fn fsyncs(&self) -> u64 {
            self.fsyncs
        }
    }

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdds-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn put(key: u64, v: &[u8]) -> BatchOp {
        BatchOp::Put {
            key,
            value: v.to_vec(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_roundtrip_through_payload() {
        let ops = vec![
            put(7, b"hello"),
            BatchOp::Delete { key: 9 },
            BatchOp::Clear,
            put(u64::MAX, b""),
        ];
        assert_eq!(decode_ops(&encode_ops(&ops)).unwrap(), ops);
        // malformed payloads are rejected, not panicked on
        assert!(decode_ops(&[]).is_none());
        assert!(decode_ops(&[9, 9, 9]).is_none());
        let mut trailing = encode_ops(&ops);
        trailing.push(0);
        assert!(decode_ops(&trailing).is_none());
    }

    #[test]
    fn append_then_replay_recovers_batches() {
        let path = tmpfile("roundtrip");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        w.append(&[put(1, b"a"), put(2, b"b")]).unwrap();
        w.append(&[BatchOp::Delete { key: 1 }]).unwrap();
        drop(w);
        let mut batches = Vec::new();
        let stats = replay(&path, |b| batches.push(b)).unwrap();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.truncated, 0);
        assert_eq!(batches[0], vec![put(1, b"a"), put(2, b"b")]);
        assert_eq!(batches[1], vec![BatchOp::Delete { key: 1 }]);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let path = tmpfile("torn");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        w.append(&[put(1, b"a")]).unwrap();
        w.append(&[put(2, b"b")]).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // simulate a crash mid-append: a torn header + garbage
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 5]).unwrap();
        }
        let mut batches = Vec::new();
        let stats = replay(&path, |b| batches.push(b)).unwrap();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.truncated, 5);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // and the log accepts appends after repair
        let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        w.append(&[put(3, b"c")]).unwrap();
        drop(w);
        let mut again = Vec::new();
        let stats = replay(&path, |b| again.push(b)).unwrap();
        assert_eq!(stats.frames, 3);
        assert_eq!(again[2], vec![put(3, b"c")]);
    }

    #[test]
    fn corrupt_crc_mid_log_discards_that_frame_and_everything_after() {
        let path = tmpfile("midcrc");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        w.append(&[put(1, b"aaaa")]).unwrap();
        let first_frame_end = w.bytes();
        w.append(&[put(2, b"bbbb")]).unwrap();
        w.append(&[put(3, b"cccc")]).unwrap();
        drop(w);
        // flip one payload byte inside the second frame
        let mut data = std::fs::read(&path).unwrap();
        let victim = first_frame_end as usize + FRAME_HEADER + 2;
        data[victim] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let mut batches = Vec::new();
        let stats = replay(&path, |b| batches.push(b)).unwrap();
        assert_eq!(stats.frames, 1);
        assert_eq!(batches, vec![vec![put(1, b"aaaa")]]);
        assert!(stats.truncated > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            first_frame_end,
            "log must be cut back to the last good frame"
        );
    }

    #[test]
    fn group_commit_policy_counts_fsyncs() {
        let path = tmpfile("group");
        let mut w = WalWriter::open(&path, FsyncPolicy::EveryN(4)).unwrap();
        for i in 0..7 {
            w.append(&[put(i, b"x")]).unwrap();
        }
        assert_eq!(w.fsyncs(), 1, "7 appends at N=4 -> one fsync");
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 2);
        w.sync().unwrap(); // idempotent when nothing is pending
        assert_eq!(w.fsyncs(), 2);
        let mut never = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        never.append(&[put(99, b"x")]).unwrap();
        assert_eq!(never.fsyncs(), 0);
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmpfile("missing");
        let stats = replay(&path, |_| {}).unwrap();
        assert_eq!(stats, ReplayStats::default());
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("1"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("64"), Some(FsyncPolicy::EveryN(64)));
        assert_eq!(FsyncPolicy::parse("0"), None);
        assert_eq!(FsyncPolicy::parse("banana"), None);
    }
}
