//! The durable backend: one log per host, in snapshot + log generations.
//!
//! A host's data dir holds one live generation `g`: `snap-<g>.dat`, every
//! bucket's records when `g` began (none for `g = 0`), and `wal-<g>.log`,
//! every frame since. Every bucket's [`DiskEngine`] stages into the one
//! [`HostLog`], whose commit writes the open frame and syncs it as the
//! [`FsyncPolicy`] says. Compaction writes snapshot `g + 1` to a `.tmp`,
//! syncs it and renames it (the commit point), then starts its log and
//! deletes generation `g`, so a crash at any step leaves one generation
//! whole. A failed write or `fsync` closes the log (DESIGN.md §10).

use crate::wal::{self, FsyncPolicy, WalWriter};
use crate::{apply_ops, BatchOp, OpenedLog, StorageEngine, StorageError, WriteBatch};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Records per CRC frame in a snapshot file: bounds the blast radius of a
/// bad sector without paying per-record header overhead.
const SNAPSHOT_CHUNK: usize = 256;

/// Tuning knobs for [`DiskEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskOptions {
    /// Group-commit policy for written log frames.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh snapshot once the log exceeds this many bytes
    /// for each bucket it holds.
    pub compact_wal_bytes: u64,
}

impl Default for DiskOptions {
    fn default() -> Self {
        DiskOptions {
            fsync: FsyncPolicy::default(),
            compact_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

type Buckets = BTreeMap<u64, BTreeMap<u64, Vec<u8>>>;

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.dat"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// fsync a directory so renames/creates inside it are durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|f| f.sync_all())
        .map_err(|e| StorageError::io("dir fsync", e))
}

/// The generations of the snapshots (ascending) and logs in `dir`; the
/// `.tmp` of an interrupted compaction is never authoritative: deleted.
fn scan_generations(dir: &Path) -> Result<(Vec<u64>, Vec<u64>), StorageError> {
    let (mut snaps, mut wals) = (Vec::new(), Vec::new());
    let entries = std::fs::read_dir(dir).map_err(|e| StorageError::io("read data dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("read data dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let generation = |prefix, suffix| {
            let g = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            g.parse::<u64>().ok()
        };
        if let Some(g) = generation("snap-", ".dat") {
            snaps.push(g);
        } else if let Some(g) = generation("wal-", ".log") {
            wals.push(g);
        } else if name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    snaps.sort_unstable();
    Ok((snaps, wals))
}

/// Applies one frame's entries: a frame starts at bucket 0, a `Bucket`
/// entry switches to (and creates) a bucket, `Retire` removes it.
fn apply_frame(buckets: &mut Buckets, entries: Vec<BatchOp>) {
    let mut addr = 0;
    for entry in entries {
        match entry {
            BatchOp::Bucket { addr: next } => {
                addr = next;
                buckets.entry(addr).or_default();
            }
            BatchOp::Retire => _ = buckets.remove(&addr),
            BatchOp::Put { key, value } => _ = buckets.entry(addr).or_default().insert(key, value),
            BatchOp::Delete { key } => _ = buckets.get_mut(&addr).map(|r| r.remove(&key)),
            BatchOp::Clear => buckets.entry(addr).or_default().clear(),
        }
    }
}

/// Generation `g`'s snapshot (nothing for `g = 0`), strictly validated.
fn load_snapshot(dir: &Path, generation: u64) -> Result<Buckets, StorageError> {
    let mut buckets = Buckets::new();
    if generation > 0 {
        for entries in wal::read_strict(&snap_path(dir, generation))? {
            apply_frame(&mut buckets, entries);
        }
    }
    Ok(buckets)
}

/// Generation `g` folded into one snapshot's frames at `path`, synced.
fn write_snapshot(dir: &Path, generation: u64, path: &Path) -> Result<(), StorageError> {
    let mut buckets = load_snapshot(dir, generation)?;
    wal::replay(&wal_path(dir, generation), |e| apply_frame(&mut buckets, e))?;
    let mut writer = WalWriter::open(path, FsyncPolicy::Never)?;
    for (addr, records) in buckets {
        let puts: Vec<BatchOp> = records
            .into_iter()
            .map(|(key, value)| BatchOp::Put { key, value })
            .collect();
        writer.stage(addr, &[])?; // an empty bucket exists too
        for chunk in puts.chunks(SNAPSHOT_CHUNK) {
            writer.stage(addr, chunk)?;
            writer.write()?;
        }
    }
    writer.write()?;
    writer.sync()
}

#[derive(Debug)]
struct LogState {
    /// `None` once a write, sync or compaction failed: writes refuse.
    writer: Option<WalWriter>,
    generation: u64,
    /// Buckets with entries and no `Retire` since (budget per bucket).
    live: BTreeSet<u64>,
}

/// The one write-ahead log of a host, shared by all its bucket engines.
#[derive(Debug)]
pub struct HostLog {
    dir: PathBuf,
    options: DiskOptions,
    /// Whether a runtime commits (`true`), or every write does.
    deferred: bool,
    state: Mutex<LogState>,
    /// Writes staged so far; how many are committed (written, and synced
    /// as the policy says), and synced. Stored under the lock only.
    staged: AtomicU64,
    committed: AtomicU64,
    synced: AtomicU64,
}

impl HostLog {
    /// Opens — creating or recovering — the log in `dir` for a runtime to
    /// commit, with an engine for every bucket it holds.
    pub fn open(dir: &Path, options: DiskOptions) -> Result<OpenedLog, StorageError> {
        HostLog::open_with(dir, options, true)
    }

    fn open_with(
        dir: &Path,
        options: DiskOptions,
        deferred: bool,
    ) -> Result<OpenedLog, StorageError> {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("create data dir", e))?;
        let (snaps, wals) = scan_generations(dir)?;
        // the newest snapshot that loads cleanly wins; one that fails
        // validation is ignored in favor of an older generation
        let (mut buckets, mut generation) = (Buckets::new(), 0);
        for &g in snaps.iter().rev() {
            match load_snapshot(dir, g) {
                Ok(loaded) => {
                    (buckets, generation) = (loaded, g);
                    break;
                }
                Err(_) => sdds_obs::counter("storage.snapshot_rejects").inc(),
            }
        }
        let path = wal_path(dir, generation);
        let stats = wal::replay(&path, |e| apply_frame(&mut buckets, e))?;
        // everything outside the chosen generation is dead weight
        for g in snaps.into_iter().filter(|&g| g != generation) {
            let _ = std::fs::remove_file(snap_path(dir, g));
        }
        for g in wals.into_iter().filter(|&g| g != generation) {
            let _ = std::fs::remove_file(wal_path(dir, g));
        }
        let writer = WalWriter::open(&path, options.fsync)?;
        sync_dir(dir)?;
        sdds_obs::counter("storage.wal_replayed_frames").add(stats.frames);
        sdds_obs::counter("storage.wal_truncated_bytes").add(stats.truncated);
        sdds_obs::histogram("storage.replay_seconds").observe_duration(t0.elapsed());
        let live = buckets.keys().copied().collect();
        let state = LogState {
            writer: Some(writer),
            generation,
            live,
        };
        let log = HostLog::new(dir, options, deferred, state);
        let engines = buckets.into_iter().map(|(addr, map)| {
            let engine = DiskEngine {
                map,
                known: true,
                ..log.engine(addr)
            };
            (addr, engine)
        });
        Ok((Arc::clone(&log), engines.collect()))
    }

    fn new(dir: &Path, options: DiskOptions, deferred: bool, state: LogState) -> Arc<HostLog> {
        Arc::new(HostLog {
            dir: dir.to_path_buf(),
            options,
            deferred,
            state: Mutex::new(state),
            staged: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            synced: AtomicU64::new(0),
        })
    }

    /// A log that refuses every write: what a host whose data dir did not
    /// open runs on, so that its buckets acknowledge nothing they cannot
    /// keep.
    pub fn refusing(dir: &Path, options: DiskOptions) -> Arc<HostLog> {
        let state = LogState {
            writer: None,
            generation: 0,
            live: BTreeSet::new(),
        };
        HostLog::new(dir, options, true, state)
    }

    /// An empty engine for a new bucket `addr`, opened without I/O: its
    /// first write — an empty batch too — tells the log it exists.
    pub fn engine(self: &Arc<Self>, addr: u64) -> DiskEngine {
        let log = Some(Arc::clone(self));
        DiskEngine {
            log,
            addr,
            ..DiskEngine::default()
        }
    }

    /// The data dir the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True while a staged write is not committed.
    pub fn dirty(&self) -> bool {
        // ordering: Acquire — see `staged`
        self.staged() > self.committed.load(Ordering::Acquire)
    }

    /// Writes staged so far.
    pub fn staged(&self) -> u64 {
        // ordering: Acquire — pairs with the Release stores under the
        // lock; a thread that staged reads its own count at least
        self.staged.load(Ordering::Acquire)
    }

    /// How many of the staged writes an `fsync` made durable.
    pub fn synced(&self) -> u64 {
        // ordering: Acquire — see `staged`
        self.synced.load(Ordering::Acquire)
    }

    /// Runs `f` on the open writer under the lock; an error closes the
    /// log, and a closed log refuses.
    fn locked(
        &self,
        f: impl FnOnce(&mut WalWriter, &mut LogState) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(mut writer) = state.writer.take() else {
            return Err(StorageError::io(
                "wal append",
                std::io::Error::other("log closed"),
            ));
        };
        let result = f(&mut writer, &mut state);
        if result.is_ok() {
            // a compaction leaves the next generation's writer in place
            state.writer.get_or_insert(writer);
        } else {
            state.writer = None;
            sdds_obs::counter("storage.errors").inc();
        }
        result
    }

    /// Stages bucket `addr`'s `ops` into the open frame; a log without a
    /// runtime commits at once.
    fn stage(&self, addr: u64, ops: &[BatchOp]) -> Result<(), StorageError> {
        self.locked(|writer, state| {
            writer.stage(addr, ops)?;
            if matches!(ops, [BatchOp::Retire]) {
                state.live.remove(&addr);
            } else {
                state.live.insert(addr);
            }
            // ordering: Release — see `staged`
            self.staged.fetch_add(1, Ordering::Release);
            Ok(())
        })?;
        if self.deferred {
            return Ok(());
        }
        self.commit()
    }

    /// Writes the open frame and syncs it as the policy says (or compacts,
    /// past the budget): every write staged before is committed on `Ok`.
    /// An error closes the log.
    pub fn commit(&self) -> Result<(), StorageError> {
        self.commit_with(false)
    }

    fn commit_with(&self, sync: bool) -> Result<(), StorageError> {
        self.locked(|writer, state| {
            // ordering: Relaxed — stored under the lock we hold
            let staged = self.staged.load(Ordering::Relaxed);
            writer.write()?;
            let budget = self.options.compact_wal_bytes;
            let durable = if writer.bytes() > budget.saturating_mul(state.live.len().max(1) as u64)
            {
                self.compact_locked(state)?;
                true
            } else if sync || writer.due() {
                writer.sync()?;
                true
            } else {
                false
            };
            if durable {
                // ordering: Release — see `staged`
                self.synced.store(staged, Ordering::Release);
            }
            // ordering: Release — see `staged`
            self.committed.store(staged, Ordering::Release);
            Ok(())
        })
    }

    /// Folds generation `g` into a synced snapshot `g + 1` and starts its
    /// log.
    fn compact_locked(&self, state: &mut LogState) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let dir = &self.dir;
        let (old, next) = (state.generation, state.generation + 1);
        let tmp = dir.join(format!("snap-{next}.tmp"));
        write_snapshot(dir, old, &tmp)?;
        // the rename is the commit point for generation `next`
        std::fs::rename(&tmp, snap_path(dir, next))
            .map_err(|e| StorageError::io("snapshot rename", e))?;
        sync_dir(dir)?;
        state.writer = Some(WalWriter::open(&wal_path(dir, next), self.options.fsync)?);
        sync_dir(dir)?;
        state.generation = next;
        let _ = std::fs::remove_file(wal_path(dir, old));
        let _ = std::fs::remove_file(snap_path(dir, old));
        sdds_obs::counter("storage.snapshots").inc();
        sdds_obs::counter("storage.compactions").inc();
        sdds_obs::histogram("storage.compact_seconds").observe_duration(t0.elapsed());
        Ok(())
    }
}

/// A bucket's records: an in-memory map that serves every read, each
/// write staged into its host's log, if it has one, before it is applied.
#[derive(Debug, Default)]
pub struct DiskEngine {
    /// `None` in memory, and after `destroy()`.
    log: Option<Arc<HostLog>>,
    addr: u64,
    map: BTreeMap<u64, Vec<u8>>,
    /// Whether the log holds an entry of this bucket.
    known: bool,
}

/// The in-memory backend, the paper's RAM bucket: an engine without a
/// log (`MemEngine::new()`).
pub type MemEngine = DiskEngine;

impl DiskEngine {
    /// An empty engine without a log: memory only.
    pub fn new() -> DiskEngine {
        DiskEngine::default()
    }

    /// Opens — creating or recovering — the one-bucket log at `dir`, where
    /// every write commits before it returns.
    pub fn open(dir: &Path, options: DiskOptions) -> Result<DiskEngine, StorageError> {
        let (log, mut buckets) = HostLog::open_with(dir, options, false)?;
        Ok(buckets.remove(&0).unwrap_or_else(|| log.engine(0)))
    }

    /// Stages `ops` into the log, if the engine has one, as one atomic
    /// unit; the caller applies them to the map.
    fn stage(&mut self, ops: &[BatchOp]) -> Result<(), StorageError> {
        if let Some(log) = self.log.as_ref().filter(|_| !ops.is_empty() || !self.known) {
            log.stage(self.addr, ops)?;
            self.known = true;
        }
        Ok(())
    }
}

impl StorageEngine for DiskEngine {
    fn get_ref(&self, key: u64) -> Option<&[u8]> {
        self.map.get(&key).map(Vec::as_slice)
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
        if self.log.is_some() {
            self.stage(&[BatchOp::Put {
                key,
                value: value.to_vec(),
            }])?;
        }
        Ok(self.map.insert(key, value.to_vec()))
    }

    fn delete(&mut self, key: u64) -> Result<Option<Vec<u8>>, StorageError> {
        if self.map.contains_key(&key) {
            self.stage(&[BatchOp::Delete { key }])?;
        }
        Ok(self.map.remove(&key))
    }

    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), StorageError> {
        self.stage(batch.ops())?;
        apply_ops(&mut self.map, batch.ops());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        match &self.log {
            Some(log) if !log.deferred => log.commit_with(true),
            _ => Ok(()),
        }
    }

    fn destroy(&mut self) -> Result<(), StorageError> {
        self.stage(&[BatchOp::Retire])?;
        self.map.clear();
        self.log = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    impl HostLog {
        /// Rotates to a fresh generation: full snapshot, empty log.
        pub(crate) fn compact(&self) -> Result<(), StorageError> {
            self.locked(|writer, state| {
                writer.write()?;
                self.compact_locked(state)
            })
        }
    }

    impl DiskEngine {
        fn generation(&self) -> u64 {
            let log = self.log.as_ref().unwrap();
            log.state.lock().unwrap().generation
        }

        fn compact(&mut self) -> Result<(), StorageError> {
            self.log.as_ref().unwrap().compact()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdds-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts_always() -> DiskOptions {
        DiskOptions {
            fsync: FsyncPolicy::Always,
            compact_wal_bytes: u64::MAX,
        }
    }

    #[test]
    fn puts_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
            e.put(1, b"one").unwrap();
            e.put(2, b"two").unwrap();
            e.delete(1).unwrap();
            e.put(3, b"three").unwrap();
        } // dropped without any explicit close
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(2), Some(b"two".to_vec()));
        assert_eq!(e.get(3), Some(b"three".to_vec()));
        assert_eq!(e.get(1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_batch_is_all_or_nothing_across_torn_tail() {
        let dir = tmpdir("atomic");
        {
            let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
            let mut b = WriteBatch::new();
            b.put(1, b"a".to_vec());
            b.put(2, b"b".to_vec());
            e.apply_batch(&b).unwrap();
        }
        // tear the tail: append half a frame, as a crash mid-batch would
        let wal = wal_path(&dir, 0);
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
            let mut partial = wal::tests::frame(&wal::tests::encode_ops(&[BatchOp::Put {
                key: 3,
                value: b"c".to_vec(),
            }]));
            partial.truncate(partial.len() - 3);
            f.write_all(&partial).unwrap();
        }
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1, 2], "torn batch must not half-apply");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rotates_generation_and_preserves_state() {
        let dir = tmpdir("compact");
        let opts = DiskOptions {
            fsync: FsyncPolicy::Always,
            compact_wal_bytes: 256,
        };
        let mut e = DiskEngine::open(&dir, opts.clone()).unwrap();
        for i in 0..50u64 {
            e.put(i, format!("value-{i}").as_bytes()).unwrap();
        }
        e.delete(7).unwrap();
        assert!(e.generation() > 0, "small budget must force compaction");
        let gen = e.generation();
        assert!(snap_path(&dir, gen).exists());
        assert!(wal_path(&dir, gen).exists());
        // older generations are gone
        assert!(!wal_path(&dir, 0).exists());
        drop(e);
        let e = DiskEngine::open(&dir, opts).unwrap();
        assert_eq!(e.len(), 49);
        assert_eq!(e.get(8), Some(b"value-8".to_vec()));
        assert_eq!(e.get(7), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_compact_then_more_writes_reopen_correctly() {
        let dir = tmpdir("compact2");
        let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
        e.put(1, b"a").unwrap();
        e.compact().unwrap();
        e.put(2, b"b").unwrap(); // lands in the new generation's WAL
        drop(e);
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1, 2]);
        assert_eq!(e.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_tmp_file_is_ignored() {
        let dir = tmpdir("tmpfile");
        {
            let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
            e.put(1, b"a").unwrap();
        }
        // a crash before the rename leaves a .tmp; it must be discarded
        std::fs::write(dir.join("snap-1.tmp"), b"garbage").unwrap();
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1]);
        assert_eq!(e.generation(), 0);
        assert!(!dir.join("snap-1.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_after_rename_uses_new_snapshot() {
        let dir = tmpdir("postrename");
        {
            let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
            e.put(1, b"a").unwrap();
            e.put(2, b"b").unwrap();
            e.compact().unwrap();
        }
        // simulate dying right after the rename: delete the new WAL, put
        // the old one back — the snapshot alone must carry the state
        std::fs::remove_file(wal_path(&dir, 1)).unwrap();
        std::fs::write(wal_path(&dir, 0), b"").unwrap();
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1, 2]);
        assert_eq!(e.generation(), 1);
        assert!(!wal_path(&dir, 0).exists(), "stale wal removed on open");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_generation() {
        let dir = tmpdir("badsnap");
        {
            let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
            e.put(1, b"a").unwrap();
            e.compact().unwrap(); // generation 1: snap-1 holds key 1
            e.put(2, b"b").unwrap();
            e.compact().unwrap(); // generation 2: snap-2 holds keys 1,2
        }
        // mangle snap-2; recovery must fall back to snap-1 (+ its missing
        // wal, i.e. just key 1) rather than refuse to open
        let snap2 = snap_path(&dir, 2);
        let mut bytes = std::fs::read(&snap2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap2, &bytes).unwrap();
        // keep snap-1 around to fall back to
        let keep = snap_path(&dir, 1);
        assert!(!keep.exists(), "normal path deletes older snapshots");
        // recreate an older generation by hand: a snapshot is just frames
        let ops = vec![BatchOp::Put {
            key: 1,
            value: b"a".to_vec(),
        }];
        std::fs::write(&keep, wal::tests::frame(&wal::tests::encode_ops(&ops))).unwrap();
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1], "fell back past the corrupt snapshot");
        assert_eq!(e.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroy_retires_the_bucket_and_engine_keeps_working_in_memory() {
        let dir = tmpdir("destroy");
        let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
        e.put(1, b"a").unwrap();
        e.destroy().unwrap();
        assert!(e.is_empty());
        let log_len = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();
        // post-destroy the engine is memory-only but functional
        e.put(2, b"b").unwrap();
        assert_eq!(e.get(2), Some(b"b".to_vec()));
        e.flush().unwrap();
        assert_eq!(std::fs::metadata(wal_path(&dir, 0)).unwrap().len(), log_len);
        let (_, buckets) = HostLog::open(&dir, opts_always()).unwrap();
        assert!(buckets.is_empty(), "a retired bucket does not come back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_of_absent_key_writes_nothing() {
        let dir = tmpdir("noop");
        let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
        let before = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();
        assert_eq!(e.delete(42).unwrap(), None);
        e.apply_batch(&WriteBatch::new()).unwrap();
        let after = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The contents of every bucket `buckets` holds.
    fn contents(buckets: &BTreeMap<u64, DiskEngine>) -> Buckets {
        buckets
            .iter()
            .map(|(&addr, engine)| (addr, engine.map.clone()))
            .collect()
    }

    /// One commit writes one frame and syncs it once, however many
    /// buckets staged into it; until then the log is dirty.
    #[test]
    fn a_commit_is_one_frame_and_one_fsync_for_every_bucket_staged() {
        let dir = tmpdir("group");
        let (log, _) = HostLog::open(&dir, opts_always()).unwrap();
        let mut engines: Vec<DiskEngine> = (0..8).map(|addr| log.engine(addr)).collect();
        for (i, engine) in engines.iter_mut().enumerate() {
            engine.put(i as u64, b"v").unwrap();
            engine.flush().unwrap(); // stages only: the commit is the log's
        }
        assert!(log.dirty());
        assert_eq!((log.staged(), log.synced()), (8, 0));
        assert_eq!(std::fs::metadata(wal_path(&dir, 0)).unwrap().len(), 0);
        log.commit().unwrap();
        assert!(!log.dirty());
        assert_eq!(log.synced(), 8);
        let data = std::fs::read(wal_path(&dir, 0)).unwrap();
        let mut frames = 0;
        assert_eq!(wal::walk_frames(&data, |_| frames += 1), data.len());
        assert_eq!(frames, 1);
        log.commit().unwrap(); // nothing staged: nothing written
        assert_eq!(std::fs::read(wal_path(&dir, 0)).unwrap(), data);
        drop((log, engines));
        let (_, buckets) = HostLog::open(&dir, opts_always()).unwrap();
        assert_eq!(buckets.len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One round's frame covers three buckets; torn at every byte offset,
    /// a reopen yields exactly the state of all three before the round.
    #[test]
    fn a_torn_round_frame_leaves_every_bucket_as_it_was_before_the_round() {
        let dir = tmpdir("torn-round");
        let (log, _) = HostLog::open(&dir, opts_always()).unwrap();
        let mut engines: Vec<DiskEngine> = (1..=3).map(|addr| log.engine(addr)).collect();
        for (i, engine) in engines.iter_mut().enumerate() {
            for key in 0..4u64 {
                engine
                    .put(key, format!("before-{i}-{key}").as_bytes())
                    .unwrap();
            }
        }
        log.commit().unwrap();
        drop(engines);
        drop(log);
        let before = std::fs::read(wal_path(&dir, 0)).unwrap();
        let (log, mut buckets) = HostLog::open(&dir, opts_always()).unwrap();
        let pre_round = contents(&buckets);
        // the round: a put, a delete and a clear-and-refill, one bucket each
        buckets.get_mut(&1).unwrap().put(9, b"new").unwrap();
        buckets.get_mut(&2).unwrap().delete(0).unwrap();
        let mut refill = WriteBatch::new();
        refill.clear_all();
        refill.put(7, b"refilled".to_vec());
        buckets.get_mut(&3).unwrap().apply_batch(&refill).unwrap();
        log.commit().unwrap();
        let post_round = contents(&buckets);
        drop(buckets);
        drop(log);
        let after = std::fs::read(wal_path(&dir, 0)).unwrap();
        assert_eq!(&after[..before.len()], &before[..]);
        let mut frames = 0;
        wal::walk_frames(&after[before.len()..], |_| frames += 1);
        assert_eq!(frames, 1, "the round is one frame");
        for cut in before.len()..=after.len() {
            std::fs::write(wal_path(&dir, 0), &after[..cut]).unwrap();
            let (_, buckets) = HostLog::open(&dir, opts_always()).unwrap();
            let want = if cut == after.len() {
                &post_round
            } else {
                &pre_round
            };
            assert_eq!(&contents(&buckets), want, "torn at byte {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bucket retired by a merge does not come back on reopen, nor
    /// after a compaction; an address split off again later comes back
    /// with only what it got since.
    #[test]
    fn a_retired_bucket_is_not_resurrected() {
        let dir = tmpdir("retire");
        let (log, _) = HostLog::open(&dir, opts_always()).unwrap();
        let mut parent = log.engine(0);
        let mut victim = log.engine(1);
        parent.put(1, b"parent").unwrap();
        victim.put(2, b"victim").unwrap();
        log.commit().unwrap();
        // the merge: the records move to the parent, the victim retires
        parent.put(2, b"victim").unwrap();
        victim.delete(2).unwrap();
        victim.destroy().unwrap();
        log.commit().unwrap();
        drop((log, parent, victim));
        let (log, buckets) = HostLog::open(&dir, opts_always()).unwrap();
        assert_eq!(buckets.keys().copied().collect::<Vec<_>>(), vec![0]);
        log.compact().unwrap();
        drop((log, buckets));
        let (log, buckets) = HostLog::open(&dir, opts_always()).unwrap();
        assert_eq!(buckets.keys().copied().collect::<Vec<_>>(), vec![0]);
        // split off again: an empty transfer says the bucket exists
        let mut again = log.engine(1);
        again.apply_batch(&WriteBatch::new()).unwrap();
        log.commit().unwrap();
        drop((log, buckets, again));
        let (_, buckets) = HostLog::open(&dir, opts_always()).unwrap();
        assert_eq!(buckets.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(buckets[&1].is_empty());
        assert_eq!(buckets[&0].keys(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After a failed write the log refuses writes and stays dirty, so
    /// nothing that depends on what it staged is ever released.
    #[test]
    fn a_refusing_log_acknowledges_nothing() {
        let log = HostLog::refusing(Path::new("/nonexistent"), opts_always());
        let mut engine = log.engine(0);
        assert!(engine.put(1, b"a").is_err());
        assert!(engine.is_empty());
        assert!(!log.dirty());
        assert!(log.commit().is_err());
    }
}
