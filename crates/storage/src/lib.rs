//! Pluggable per-bucket storage engines for the SDDS.
//!
//! A bucket site owns exactly one [`StorageEngine`]: point reads, ordered
//! iteration and *atomic write batches*, so that a split/merge
//! `TransferBatch` or a recovery `Adopt` lands entirely or not at all
//! across a crash. The engine is the bucket's `BTreeMap`; [`MemEngine`]
//! keeps it in memory only, [`DiskEngine`] writes it through to its host's
//! one [`HostLog`] — an append-only CRC-framed write-ahead log whose
//! entries name their bucket, with snapshot generations and a replay that
//! truncates a torn tail. Writes only *stage*: the runtime commits the log
//! — one frame, one `fsync` — at the end of each worker round that wrote,
//! before the round's sends leave ([`HostLog::commit`]).
//! [`DiskEngine::open`] is the one-bucket case, a log of its own that
//! commits every write. Engines are not `Sync`: each bucket site owns its
//! engine exclusively, like the map it replaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod wal;

pub use disk::{DiskEngine, DiskOptions, HostLog, MemEngine};
pub use wal::FsyncPolicy;

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Error surface of a storage engine. The in-memory backend never returns
/// one; the disk backend maps I/O and corruption failures here.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure, tagged with the operation that hit it.
    Io {
        /// What the engine was doing ("wal append", "snapshot rename", ...).
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// On-disk bytes failed validation beyond what replay can repair.
    Corruption(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "storage i/o during {op}: {source}"),
            StorageError::Corruption(detail) => write!(f, "storage corruption: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Corruption(_) => None,
        }
    }
}

impl StorageError {
    pub(crate) fn io(op: &'static str, source: std::io::Error) -> Self {
        StorageError::Io { op, source }
    }
}

/// One logical mutation inside a [`WriteBatch`], and one entry of a log
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite `key`.
    Put {
        /// Record key.
        key: u64,
        /// Record body (opaque encrypted bytes).
        value: Vec<u8>,
    },
    /// Remove `key` if present.
    Delete {
        /// Record key.
        key: u64,
    },
    /// Drop every record. Used by recovery `Adopt` as its first op so the
    /// adopted image replaces — never merges with — stale local state.
    Clear,
    /// Log only, never in a `WriteBatch`: the entries after it, up to the
    /// next `Bucket`, are bucket `addr`'s.
    Bucket {
        /// Bucket address.
        addr: u64,
    },
    /// Log only, never in a `WriteBatch`: the bucket was merged away. Its
    /// records go, and a reopen no longer counts it.
    Retire,
}

/// An ordered group of mutations applied atomically: the log keeps a
/// batch inside one CRC-framed frame, so replay sees all of it or none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// A new, empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insert/overwrite.
    pub fn put(&mut self, key: u64, value: Vec<u8>) {
        self.ops.push(BatchOp::Put { key, value });
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: u64) {
        self.ops.push(BatchOp::Delete { key });
    }

    /// Queue a clear-all (subsequent ops in the batch still apply).
    pub fn clear_all(&mut self) {
        self.ops.push(BatchOp::Clear);
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued (applying is then a no-op).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued ops, in application order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }
}

/// Apply a slice of ops to a bucket's map, in order.
pub(crate) fn apply_ops(map: &mut BTreeMap<u64, Vec<u8>>, ops: &[BatchOp]) {
    for op in ops {
        match op {
            BatchOp::Put { key, value } => {
                map.insert(*key, value.clone());
            }
            BatchOp::Delete { key } => {
                map.remove(key);
            }
            BatchOp::Clear | BatchOp::Retire => map.clear(),
            BatchOp::Bucket { .. } => {}
        }
    }
}

/// The storage interface a bucket runs against.
///
/// Reads are infallible (both backends serve reads from an in-memory
/// image); writes are fallible because the disk backend may hit I/O
/// errors. `put`/`delete` return the previous value so callers can keep
/// posting-index and parity bookkeeping exact on overwrites.
pub trait StorageEngine: Send {
    /// Borrow the value stored under `key`, if any. Both backends keep an
    /// in-memory image, so reads never copy.
    fn get_ref(&self, key: u64) -> Option<&[u8]>;

    /// Fetch an owned copy of the value stored under `key`, if any.
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.get_ref(key).map(<[u8]>::to_vec)
    }

    /// True when `key` is present.
    fn contains(&self, key: u64) -> bool {
        self.get_ref(key).is_some()
    }

    /// Number of records.
    fn len(&self) -> usize;

    /// True when no records are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys in ascending order.
    fn keys(&self) -> Vec<u64>;

    /// Visit every record in ascending key order.
    fn for_each(&self, f: &mut dyn FnMut(u64, &[u8]));

    /// Insert or overwrite; returns the previous value if any.
    fn put(&mut self, key: u64, value: &[u8]) -> Result<Option<Vec<u8>>, StorageError>;

    /// Delete; returns the removed value if any.
    fn delete(&mut self, key: u64) -> Result<Option<Vec<u8>>, StorageError>;

    /// Apply every op in `batch` atomically with respect to crashes.
    /// Borrows the batch so callers can keep using its staged values for
    /// post-write bookkeeping instead of holding a second owned copy.
    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), StorageError>;

    /// Force everything written so far to stable storage. An engine of a
    /// runtime's host log only stages here too: the runtime commits the
    /// log at the end of the round ([`HostLog::commit`]).
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Irrevocably discard all state: the bucket is merged away, and a
    /// reopen must not bring it back. The engine stays usable afterwards
    /// but is empty and memory-only.
    fn destroy(&mut self) -> Result<(), StorageError>;
}

/// Which backend a cluster opens for its buckets, plus where.
#[derive(Debug, Clone, Default)]
pub enum StorageConfig {
    /// Volatile in-memory buckets (the original behavior).
    #[default]
    Mem,
    /// Durable buckets: one host log under `data_dir` holds them all.
    Disk {
        /// Directory holding the host's log and snapshot.
        data_dir: PathBuf,
        /// WAL/snapshot tuning knobs.
        options: DiskOptions,
    },
}

/// A host log as it opened, and an engine for each bucket it holds.
pub type OpenedLog = (Arc<HostLog>, BTreeMap<u64, DiskEngine>);

impl StorageConfig {
    /// Disk config with default options.
    pub fn disk(data_dir: impl Into<PathBuf>) -> Self {
        StorageConfig::Disk {
            data_dir: data_dir.into(),
            options: DiskOptions::default(),
        }
    }

    /// Disk config with explicit options.
    pub fn disk_with(data_dir: impl Into<PathBuf>, options: DiskOptions) -> Self {
        StorageConfig::Disk {
            data_dir: data_dir.into(),
            options,
        }
    }

    /// True for the durable backend.
    pub fn is_disk(&self) -> bool {
        matches!(self, StorageConfig::Disk { .. })
    }

    /// Opens — creating or recovering — the host log under the data dir,
    /// for a runtime to commit; `None` for the in-memory backend.
    pub fn open_log(&self) -> Result<Option<OpenedLog>, StorageError> {
        match self {
            StorageConfig::Mem => Ok(None),
            StorageConfig::Disk { data_dir, options } => {
                HostLog::open(data_dir, options.clone()).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdds-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mem_engine_roundtrip_and_batch() {
        let mut e = MemEngine::new();
        assert_eq!(e.put(3, b"c").unwrap(), None);
        assert_eq!(e.put(1, b"a").unwrap(), None);
        assert_eq!(e.put(1, b"A").unwrap(), Some(b"a".to_vec()));
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(1), Some(b"A".to_vec()));
        assert_eq!(e.keys(), vec![1, 3]);
        let mut seen = Vec::new();
        e.for_each(&mut |k, v| seen.push((k, v.to_vec())));
        assert_eq!(seen, vec![(1, b"A".to_vec()), (3, b"c".to_vec())]);

        let mut batch = WriteBatch::new();
        batch.clear_all();
        batch.put(7, b"g".to_vec());
        batch.delete(7);
        batch.put(8, b"h".to_vec());
        e.apply_batch(&batch).unwrap();
        assert_eq!(e.keys(), vec![8]);
        e.destroy().unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn storage_config_opens_one_log_for_every_bucket() {
        let dir = tmpdir("cfg");
        let cfg = StorageConfig::disk(&dir);
        assert!(cfg.is_disk());
        assert!(StorageConfig::Mem.open_log().unwrap().is_none());
        {
            let (log, buckets) = cfg.open_log().unwrap().unwrap();
            assert!(buckets.is_empty());
            let mut b0 = log.engine(0);
            b0.put(10, b"x").unwrap();
            let mut b3 = log.engine(3);
            b3.put(11, b"y").unwrap();
            log.commit().unwrap();
        }
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(entries.len(), 1, "one log file, no directory per bucket");
        let (_, buckets) = cfg.open_log().unwrap().unwrap();
        assert_eq!(buckets.keys().copied().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(buckets[&0].get(10), Some(b"x".to_vec()));
        assert_eq!(buckets[&3].get(11), Some(b"y".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
