//! The durable bucket backend: snapshot + WAL generations.
//!
//! A bucket directory holds at most one live *generation* `g`:
//!
//! ```text
//! bucket-<addr>/
//!   snap-<g>.dat   # full state at the moment generation g began (absent for g=0)
//!   wal-<g>.log    # every batch applied since
//! ```
//!
//! Opening loads the newest valid snapshot, replays its WAL (truncating a
//! torn tail), and deletes any other generation's files. Compaction
//! rotates generations once the WAL outgrows
//! [`DiskOptions::compact_wal_bytes`]:
//!
//! 1. write `snap-<g+1>.tmp` (full state, CRC-framed), fsync it
//! 2. rename to `snap-<g+1>.dat`, fsync the directory — **commit point**
//! 3. create empty `wal-<g+1>.log`
//! 4. delete generation `g`'s files
//!
//! A crash at any step leaves either generation `g` fully usable (before
//! the rename) or generation `g+1` fully usable (after it — a missing
//! `wal-<g+1>.log` just replays as empty), so recovery never needs to
//! merge generations.

use crate::wal::{self, FsyncPolicy, WalWriter};
use crate::{apply_ops, BatchOp, StorageEngine, StorageError, WriteBatch};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records per CRC frame in a snapshot file: bounds the blast radius of a
/// bad sector without paying per-record header overhead.
const SNAPSHOT_CHUNK: usize = 256;

/// Tuning knobs for [`DiskEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskOptions {
    /// Group-commit policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh snapshot once the WAL exceeds this many bytes.
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

/// Durable storage engine for one bucket. Reads are served from an
/// in-memory image; every mutation is WAL-logged before it is applied.
#[derive(Debug)]
pub struct DiskEngine {
    dir: PathBuf,
    map: BTreeMap<u64, Vec<u8>>,
    /// `None` after `destroy()`: the engine degrades to memory-only.
    wal: Option<WalWriter>,
    generation: u64,
    options: DiskOptions,
}

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

/// What `scan_generations` finds on disk.
#[derive(Debug, Default)]
struct DirListing {
    snaps: Vec<u64>,
    wals: Vec<u64>,
    tmps: Vec<PathBuf>,
}

fn scan_generations(dir: &Path) -> Result<DirListing, StorageError> {
    let mut listing = DirListing::default();
    let entries = std::fs::read_dir(dir).map_err(|e| StorageError::io("read bucket dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("read bucket dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".dat"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            listing.snaps.push(g);
        } else if let Some(g) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            listing.wals.push(g);
        } else if name.ends_with(".tmp") {
            listing.tmps.push(entry.path());
        }
    }
    listing.snaps.sort_unstable();
    listing.wals.sort_unstable();
    Ok(listing)
}

impl DiskEngine {
    /// Open the engine at `dir`, creating it fresh or recovering whatever
    /// a previous process — possibly killed mid-write — left behind.
    pub fn open(dir: &Path, options: DiskOptions) -> Result<DiskEngine, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("create bucket dir", e))?;
        let listing = scan_generations(dir)?;
        // leftovers from an interrupted compaction are never authoritative
        for tmp in &listing.tmps {
            let _ = std::fs::remove_file(tmp);
        }
        // newest snapshot that loads cleanly wins; a snapshot that fails
        // validation is ignored in favor of an older generation
        let mut map = BTreeMap::new();
        let mut generation = 0u64;
        for &g in listing.snaps.iter().rev() {
            match Self::load_snapshot(&snap_path(dir, g)) {
                Ok(state) => {
                    map = state;
                    generation = g;
                    break;
                }
                Err(_) => {
                    sdds_obs::counter("storage.snapshot_rejects").inc();
                }
            }
        }
        wal::replay(&wal_path(dir, generation), |ops| apply_ops(&mut map, &ops))?;
        // everything outside the chosen generation is dead weight
        for &g in &listing.snaps {
            if g != generation {
                let _ = std::fs::remove_file(snap_path(dir, g));
            }
        }
        for &g in &listing.wals {
            if g != generation {
                let _ = std::fs::remove_file(wal_path(dir, g));
            }
        }
        let wal = WalWriter::open(&wal_path(dir, generation), options.fsync)?;
        sync_dir(dir)?;
        Ok(DiskEngine {
            dir: dir.to_path_buf(),
            map,
            wal: Some(wal),
            generation,
            options,
        })
    }

    /// The directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current snapshot/WAL generation (testing and diagnostics).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// fsyncs issued on the current WAL (bench/diagnostics; resets on
    /// rotation and reopen).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::fsyncs)
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::bytes)
    }

    fn load_snapshot(path: &Path) -> Result<BTreeMap<u64, Vec<u8>>, StorageError> {
        let mut map = BTreeMap::new();
        for ops in wal::read_strict(path)? {
            apply_ops(&mut map, &ops);
        }
        Ok(map)
    }

    /// Log `ops` as one atomic frame, apply them to the image, and
    /// compact if the WAL has outgrown its budget.
    fn commit(&mut self, ops: &[BatchOp]) -> Result<(), StorageError> {
        if ops.is_empty() {
            return Ok(());
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.append(ops)?;
        }
        apply_ops(&mut self.map, ops);
        self.maybe_compact()?;
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), StorageError> {
        let due = self
            .wal
            .as_ref()
            .is_some_and(|w| w.bytes() > self.options.compact_wal_bytes);
        if due {
            self.compact()?;
        }
        Ok(())
    }

    /// Rotate to a fresh generation: full snapshot, empty WAL.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let t0 = Instant::now();
        let next = self.generation + 1;
        let tmp = self.dir.join(format!("snap-{next}.tmp"));
        {
            let mut file =
                File::create(&tmp).map_err(|e| StorageError::io("snapshot create", e))?;
            let records: Vec<(&u64, &Vec<u8>)> = self.map.iter().collect();
            for chunk in records.chunks(SNAPSHOT_CHUNK) {
                let ops: Vec<BatchOp> = chunk
                    .iter()
                    .map(|(k, v)| BatchOp::Put {
                        key: **k,
                        value: (*v).clone(),
                    })
                    .collect();
                let framed = wal::frame(&wal::encode_ops(&ops));
                file.write_all(&framed)
                    .map_err(|e| StorageError::io("snapshot write", e))?;
            }
            file.sync_all()
                .map_err(|e| StorageError::io("snapshot fsync", e))?;
        }
        // the rename is the commit point for generation `next`
        std::fs::rename(&tmp, snap_path(&self.dir, next))
            .map_err(|e| StorageError::io("snapshot rename", e))?;
        sync_dir(&self.dir)?;
        let new_wal = WalWriter::open(&wal_path(&self.dir, next), self.options.fsync)?;
        sync_dir(&self.dir)?;
        let old = self.generation;
        self.wal = Some(new_wal);
        self.generation = next;
        let _ = std::fs::remove_file(wal_path(&self.dir, old));
        let _ = std::fs::remove_file(snap_path(&self.dir, old));
        sdds_obs::counter("storage.snapshots").inc();
        sdds_obs::counter("storage.compactions").inc();
        sdds_obs::histogram("storage.compact_seconds").observe_duration(t0.elapsed());
        Ok(())
    }
}

impl StorageEngine for DiskEngine {
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
        let old = self.map.get(&key).cloned();
        self.commit(&[BatchOp::Put {
            key,
            value: value.to_vec(),
        }])?;
        Ok(old)
    }

    fn delete(&mut self, key: u64) -> Result<Option<Vec<u8>>, StorageError> {
        let old = self.map.get(&key).cloned();
        if old.is_some() {
            self.commit(&[BatchOp::Delete { key }])?;
        }
        Ok(old)
    }

    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), StorageError> {
        self.commit(batch.ops())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        match self.wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    fn destroy(&mut self) -> Result<(), StorageError> {
        self.map.clear();
        self.wal = None; // close the handle before unlinking
        std::fs::remove_dir_all(&self.dir).map_err(|e| StorageError::io("destroy", e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut partial = wal::frame(&wal::encode_ops(&[BatchOp::Put {
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
        std::fs::write(&keep, wal::frame(&wal::encode_ops(&ops))).unwrap();
        let e = DiskEngine::open(&dir, opts_always()).unwrap();
        assert_eq!(e.keys(), vec![1], "fell back past the corrupt snapshot");
        assert_eq!(e.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroy_removes_directory_and_engine_keeps_working_in_memory() {
        let dir = tmpdir("destroy");
        let mut e = DiskEngine::open(&dir, opts_always()).unwrap();
        e.put(1, b"a").unwrap();
        e.destroy().unwrap();
        assert!(!dir.exists());
        assert!(e.is_empty());
        // post-destroy the engine is memory-only but functional
        e.put(2, b"b").unwrap();
        assert_eq!(e.get(2), Some(b"b".to_vec()));
        e.flush().unwrap();
        assert!(!dir.exists());
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
}
