//! Pluggable per-bucket storage engines for the SDDS.
//!
//! A bucket site owns exactly one [`StorageEngine`]. The trait is the
//! narrow waist between LH\*RS bucket logic and persistence: point reads,
//! ordered iteration, and — crucially — *atomic write batches*, so that a
//! split/merge `TransferBatch` or a recovery `Adopt` either lands entirely
//! or not at all across a crash.
//!
//! Two backends ship:
//!
//! * [`MemEngine`] — the original in-memory `BTreeMap`, refactored onto the
//!   trait with zero behavior change (and zero I/O failure modes).
//! * [`DiskEngine`] — a from-scratch, std-only durable backend: an
//!   append-only CRC-framed write-ahead log with group-commit fsync
//!   batching, periodic snapshots, crash-recovery replay that truncates at
//!   the first corrupt frame, and generational segment compaction.
//!
//! Engines are deliberately *not* `Sync`: each bucket site owns its
//! engine exclusively, exactly like the map it replaces.
//!
//! An engine call that waits for the disk (a WAL `fsync`) holds up the
//! thread it runs on. A thread that runs many buckets says so with
//! [`set_disk_wait_hook`] and is told before and after every such wait,
//! so that it can let another thread take over meanwhile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod wal;

pub use disk::{DiskEngine, DiskOptions};
pub use wal::FsyncPolicy;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Called with `true` right before a wait for the disk, `false` after.
pub type DiskWaitHook = Box<dyn Fn(bool)>;

thread_local! {
    static DISK_WAIT_HOOK: RefCell<Option<DiskWaitHook>> = const { RefCell::new(None) };
}

/// Installs the calling thread's disk-wait hook: engines used on this
/// thread call it with `true` right before they wait for the disk and
/// with `false` right after. Eight buckets' `fsync`s issued from eight
/// threads overlap in the file system's journal and take about as long as
/// three issued one after the other, so a thread that runs many buckets
/// wants somebody else to run the next one while it waits.
pub fn set_disk_wait_hook(hook: DiskWaitHook) {
    DISK_WAIT_HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Runs `wait`, a call that waits for the disk, between the two calls of
/// this thread's hook, if it has one.
pub(crate) fn disk_wait<R>(wait: impl FnOnce() -> R) -> R {
    DISK_WAIT_HOOK.with(|h| {
        let hook = h.borrow();
        if let Some(hook) = hook.as_ref() {
            hook(true);
        }
        let result = wait();
        if let Some(hook) = hook.as_ref() {
            hook(false);
        }
        result
    })
}

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

/// One logical mutation inside a [`WriteBatch`] (and one WAL frame entry).
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
}

/// An ordered group of mutations applied atomically: the disk backend
/// writes the whole batch as a single CRC-framed WAL record, so replay
/// sees all of it or none of it.
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

/// Apply a slice of ops to a map view, in order. Shared by both backends
/// and by WAL replay so the semantics cannot drift.
pub(crate) fn apply_ops(map: &mut BTreeMap<u64, Vec<u8>>, ops: &[BatchOp]) {
    for op in ops {
        match op {
            BatchOp::Put { key, value } => {
                map.insert(*key, value.clone());
            }
            BatchOp::Delete { key } => {
                map.remove(key);
            }
            BatchOp::Clear => map.clear(),
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

    /// Force everything written so far to stable storage.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Irrevocably discard all state, including on-disk files. The engine
    /// stays usable afterwards but is empty and memory-only.
    fn destroy(&mut self) -> Result<(), StorageError>;
}

/// The in-memory backend: the bucket's original `BTreeMap`, verbatim.
#[derive(Debug, Default)]
pub struct MemEngine {
    map: BTreeMap<u64, Vec<u8>>,
}

impl MemEngine {
    /// A fresh, empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageEngine for MemEngine {
    fn get_ref(&self, key: u64) -> Option<&[u8]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn keys(&self) -> Vec<u64> {
        self.map.keys().copied().collect()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, &[u8])) {
        for (k, v) in &self.map {
            f(*k, v);
        }
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.map.insert(key, value.to_vec()))
    }

    fn delete(&mut self, key: u64) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.map.remove(&key))
    }

    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), StorageError> {
        apply_ops(&mut self.map, batch.ops());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn destroy(&mut self) -> Result<(), StorageError> {
        self.map.clear();
        Ok(())
    }
}

/// Which backend a cluster opens for its buckets, plus where.
#[derive(Debug, Clone, Default)]
pub enum StorageConfig {
    /// Volatile in-memory buckets (the original behavior).
    #[default]
    Mem,
    /// Durable on-disk buckets under `data_dir/bucket-<addr>/`.
    Disk {
        /// Root directory holding one subdirectory per bucket.
        data_dir: PathBuf,
        /// WAL/snapshot tuning knobs.
        options: DiskOptions,
    },
}

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

    /// The directory bucket `addr` lives in (disk only).
    pub fn bucket_dir(&self, addr: u64) -> Option<PathBuf> {
        match self {
            StorageConfig::Mem => None,
            StorageConfig::Disk { data_dir, .. } => Some(data_dir.join(format!("bucket-{addr}"))),
        }
    }

    /// Open (creating or recovering as needed) the engine for bucket `addr`.
    pub fn open_bucket(&self, addr: u64) -> Result<Box<dyn StorageEngine>, StorageError> {
        match self {
            StorageConfig::Mem => Ok(Box::new(MemEngine::new())),
            StorageConfig::Disk { data_dir, options } => {
                let dir = data_dir.join(format!("bucket-{addr}"));
                Ok(Box::new(DiskEngine::open(&dir, options.clone())?))
            }
        }
    }

    /// Bucket addresses that already have on-disk state (ascending).
    /// Empty for the in-memory backend or a data dir that does not exist.
    pub fn existing_bucket_addrs(&self) -> Result<Vec<u64>, StorageError> {
        let data_dir = match self {
            StorageConfig::Mem => return Ok(Vec::new()),
            StorageConfig::Disk { data_dir, .. } => data_dir,
        };
        list_bucket_addrs(data_dir)
    }
}

/// Scan `data_dir` for `bucket-<addr>` subdirectories.
fn list_bucket_addrs(data_dir: &Path) -> Result<Vec<u64>, StorageError> {
    if !data_dir.exists() {
        return Ok(Vec::new());
    }
    let entries = std::fs::read_dir(data_dir).map_err(|e| StorageError::io("read data dir", e))?;
    let mut addrs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("read data dir entry", e))?;
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix("bucket-") {
            if let Ok(addr) = rest.parse::<u64>() {
                addrs.push(addr);
            }
        }
    }
    addrs.sort_unstable();
    Ok(addrs)
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
    fn storage_config_opens_and_lists_buckets() {
        let dir = tmpdir("cfg");
        let cfg = StorageConfig::disk(&dir);
        assert!(cfg.is_disk());
        assert_eq!(cfg.existing_bucket_addrs().unwrap(), Vec::<u64>::new());
        {
            let mut b0 = cfg.open_bucket(0).unwrap();
            b0.put(10, b"x").unwrap();
            b0.flush().unwrap();
            let mut b3 = cfg.open_bucket(3).unwrap();
            b3.put(11, b"y").unwrap();
            b3.flush().unwrap();
        }
        assert_eq!(cfg.existing_bucket_addrs().unwrap(), vec![0, 3]);
        let reopened = cfg.open_bucket(0).unwrap();
        assert_eq!(reopened.get(10), Some(b"x".to_vec()));
        assert!(StorageConfig::Mem
            .existing_bucket_addrs()
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
