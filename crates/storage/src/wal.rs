//! Append-only CRC-framed write-ahead log.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload: payload_len bytes]
//! ```
//!
//! The payload is one serialized op batch: `op_count: u32` followed by
//! `op_count` tagged ops (`0 = Put{key u64, vlen u32, value}`,
//! `1 = Delete{key u64}`, `2 = Clear`). One frame == one atomic batch:
//! replay applies a frame only if its length, checksum, and payload all
//! validate, and *physically truncates* the log at the first frame that
//! does not — a torn tail from a crash mid-append can therefore never
//! half-apply a batch or poison later appends.
//!
//! Durability is group-committed: [`FsyncPolicy`] decides whether `append`
//! fsyncs every frame, every N frames, or never (leaving durability to the
//! OS page cache, as a benchmark baseline).

use crate::{BatchOp, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

/// Frame header size: length + checksum words.
const FRAME_HEADER: usize = 8;

/// Upper bound accepted for a single frame payload (64 MiB). Anything
/// larger is treated as corruption: it exceeds what any bucket transfer
/// can legitimately produce and protects replay from absurd allocations.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`), table-driven.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    crc ^ 0xFFFF_FFFF
}

/// When `append` forces bytes to stable storage.
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

/// Serialize a batch of ops into one frame payload.
pub(crate) fn encode_ops(ops: &[BatchOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * ops.len() + 4);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
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
        }
    }
    out
}

/// Decode one frame payload back into ops. `None` on any malformation:
/// truncated fields, unknown tags, or trailing garbage.
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

/// Frame a payload: header + body, ready to append.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
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

/// Statistics from one [`replay`] pass, surfaced to obs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayStats {
    /// Valid frames applied.
    pub frames: u64,
    /// Bytes discarded past the first invalid frame (0 for a clean log).
    pub truncated: u64,
}

/// Read `path`, decode every valid frame in order, and truncate the file
/// at the first invalid frame so subsequent appends extend a clean log.
/// A missing file replays as empty.
pub(crate) fn replay(
    path: &Path,
    mut on_batch: impl FnMut(Vec<BatchOp>),
) -> Result<ReplayStats, StorageError> {
    let t0 = Instant::now();
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StorageError::io("wal read", e)),
    };
    let mut stats = ReplayStats::default();
    let good = walk_frames(&data, |payload| {
        // A checksummed-but-undecodable payload can't come from our own
        // writer; skip it rather than abort replay of later good frames.
        if let Some(ops) = decode_ops(payload) {
            stats.frames += 1;
            on_batch(ops);
        }
    });
    if good < data.len() {
        stats.truncated = (data.len() - good) as u64;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io("wal truncate open", e))?;
        file.set_len(good as u64)
            .map_err(|e| StorageError::io("wal truncate", e))?;
        file.sync_all()
            .map_err(|e| StorageError::io("wal truncate sync", e))?;
    }
    sdds_obs::counter("storage.wal_replayed_frames").add(stats.frames);
    sdds_obs::counter("storage.wal_truncated_bytes").add(stats.truncated);
    sdds_obs::histogram("storage.replay_seconds").observe_duration(t0.elapsed());
    Ok(stats)
}

/// Strictly read a frame file (used for snapshots): every byte must parse,
/// otherwise the whole file is rejected.
pub(crate) fn read_strict(path: &Path) -> Result<Vec<Vec<BatchOp>>, StorageError> {
    let mut file = File::open(path).map_err(|e| StorageError::io("snapshot open", e))?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| StorageError::io("snapshot read", e))?;
    let mut batches = Vec::new();
    let mut bad_payload = false;
    let good = walk_frames(&data, |payload| match decode_ops(payload) {
        Some(ops) => batches.push(ops),
        None => bad_payload = true,
    });
    if good != data.len() || bad_payload {
        return Err(StorageError::Corruption(format!(
            "snapshot {} invalid at byte {good} of {}",
            path.display(),
            data.len()
        )));
    }
    Ok(batches)
}

/// The append side of the log: owns the file handle and the group-commit
/// bookkeeping.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    unsynced: u32,
    bytes: u64,
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
            unsynced: 0,
            bytes,
            fsyncs: 0,
        })
    }

    /// Append one batch as a single frame, honoring the fsync policy.
    pub fn append(&mut self, ops: &[BatchOp]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let framed = frame(&encode_ops(ops));
        self.file
            .write_all(&framed)
            .map_err(|e| StorageError::io("wal append", e))?;
        self.bytes += framed.len() as u64;
        sdds_obs::counter("storage.wal_appends").inc();
        sdds_obs::histogram("storage.append_seconds").observe_duration(t0.elapsed());
        self.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Force buffered frames to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        crate::disk_wait(|| self.file.sync_data()).map_err(|e| StorageError::io("wal fsync", e))?;
        self.unsynced = 0;
        self.fsyncs += 1;
        sdds_obs::counter("storage.wal_fsyncs").inc();
        sdds_obs::histogram("storage.fsync_seconds").observe_duration(t0.elapsed());
        Ok(())
    }

    /// Current log size in bytes (compaction trigger input).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// fsyncs issued by this writer since open (group-commit accounting).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
