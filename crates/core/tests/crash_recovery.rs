//! Crash-recovery tests for the durable storage backend: a child process
//! ingests into an on-disk store and dies — either by SIGKILL at an
//! arbitrary moment or by `SDDS_CRASH_POINT` abort at a chosen step of
//! the split protocol — then the parent reopens the directory and checks
//! that every acknowledged record is still found by encrypted search.
//!
//! The child is this same test binary re-executed with `--exact` on one
//! of the `child_*` "tests" below (they no-op unless the `SDDS_CRASH_*`
//! environment is set). The child prints `ACK <rid>` after each
//! *returned* insert, so the parent knows exactly which records the
//! store promised to keep.

use sdds_core::{
    DiskOptions, EncryptedSearchStore, FsyncPolicy, SchemeConfig, StorageConfig, StoreBuilder,
    StoreHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const PASSPHRASE: &str = "crash-recovery-test";
const CAPACITY: usize = 48; // small: forces splits within a few dozen records

/// Record text for `rid` — deterministic, with a unique searchable token.
fn record_text(rid: u64) -> String {
    format!("USER{rid:06} SMITH JOHN 415-555-{:04}", rid % 10_000)
}

fn builder(data_dir: &Path) -> StoreBuilder {
    EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase(PASSPHRASE)
        .bucket_capacity(CAPACITY)
        .storage(StorageConfig::disk_with(
            data_dir,
            DiskOptions {
                fsync: FsyncPolicy::Always,
                ..DiskOptions::default()
            },
        ))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdds-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns this test binary running `child_name` against `data_dir`.
fn spawn_child(child_name: &str, data_dir: &Path, crash_point: Option<&str>) -> Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args([child_name, "--exact", "--nocapture"])
        .env("SDDS_CRASH_CHILD", "1")
        .env("SDDS_CRASH_DIR", data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(point) = crash_point {
        cmd.env("SDDS_CRASH_POINT", point);
    }
    cmd.spawn().expect("spawn crash child")
}

/// Reads `ACK <rid>` lines until the child exits or `kill_after` acks
/// arrive (at which point the child is SIGKILLed). Returns the acked rids.
fn collect_acks(child: &mut Child, kill_after: Option<usize>) -> Vec<u64> {
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut acked = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(rid) = line.strip_prefix("ACK ") {
            if let Ok(rid) = rid.trim().parse::<u64>() {
                acked.push(rid);
            }
        }
        if Some(acked.len()) == kill_after {
            child.kill().expect("kill child"); // SIGKILL on unix
            break;
        }
    }
    let _ = child.wait();
    acked
}

/// Reopens the store and asserts every acked rid is still searchable by
/// its unique token, and that record-store reads return the exact text.
fn assert_acked_survive(data_dir: &Path, acked: &[u64]) {
    let store = builder(data_dir).open().expect("reopen after crash");
    let client = store.handle();
    for &rid in acked {
        let hits = client.search(&format!("USER{rid:06}")).unwrap();
        assert!(
            hits.contains(&rid),
            "acked rid {rid} lost after crash recovery (hits: {hits:?})"
        );
        assert_eq!(
            client.get(rid).unwrap().as_deref(),
            Some(record_text(rid).as_str()),
            "acked rid {rid} record-store copy lost after crash recovery"
        );
    }
    store.shutdown();
}

/// Child body: ingest one record at a time, printing `ACK <rid>` only
/// after the insert returned (i.e. every index record was durably
/// acknowledged by its bucket).
fn child_ingest(total: u64) {
    let data_dir: PathBuf = std::env::var_os("SDDS_CRASH_DIR")
        .expect("child dir")
        .into();
    let store = builder(&data_dir).open().expect("child open");
    let client = store.handle();
    let mut out = std::io::stdout();
    for rid in 0..total {
        client.insert(rid, &record_text(rid)).expect("child insert");
        writeln!(out, "ACK {rid}").unwrap();
        out.flush().unwrap();
    }
    writeln!(out, "DONE").unwrap();
    out.flush().unwrap();
    store.shutdown();
}

// ---- child entry points (inert unless SDDS_CRASH_CHILD is set) ----

#[test]
fn child_ingest_300() {
    if std::env::var_os("SDDS_CRASH_CHILD").is_some() {
        child_ingest(300);
    }
}

// ---- the actual tests ----

#[test]
fn kill9_mid_ingest_preserves_acked_records() {
    let data_dir = fresh_dir("kill9");
    let mut child = spawn_child("child_ingest_300", &data_dir, None);
    let acked = collect_acks(&mut child, Some(80));
    assert!(
        acked.len() >= 40,
        "child died before enough acks: {}",
        acked.len()
    );
    assert_acked_survive(&data_dir, &acked);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn crash_after_split_transfer_applied_recovers() {
    // The split target durably applied the shipped records but the whole
    // process died before the source heard the ack: both copies are on
    // disk. The reopen re-address pass must dedupe in the home's favor.
    let data_dir = fresh_dir("transfer-applied");
    let mut child = spawn_child("child_ingest_300", &data_dir, Some("transfer-applied"));
    let acked = collect_acks(&mut child, None);
    assert!(
        !acked.is_empty(),
        "child aborted before any insert was acked"
    );
    assert!(
        acked.len() < 300,
        "crash point never fired: no split happened before DONE"
    );
    assert_acked_survive(&data_dir, &acked);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn crash_before_split_transfer_recovers() {
    // The new bucket's directory exists (the spawner created it) but no
    // records were shipped: the reopen-derived file state counts the
    // empty bucket, so re-addressing must move the victim's half over.
    let data_dir = fresh_dir("before-transfer");
    let mut child = spawn_child("child_ingest_300", &data_dir, Some("split-before-transfer"));
    let acked = collect_acks(&mut child, None);
    assert!(
        !acked.is_empty(),
        "child aborted before any insert was acked"
    );
    assert!(
        acked.len() < 300,
        "crash point never fired: no split happened before DONE"
    );
    assert_acked_survive(&data_dir, &acked);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn graceful_reopen_preserves_all_records() {
    // No crash at all: shutdown, reopen, and the two backends' search
    // results must agree record for record.
    let data_dir = fresh_dir("graceful");
    let records: Vec<(u64, String)> = (0..120).map(|rid| (rid, record_text(rid))).collect();

    let mem = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase(PASSPHRASE)
        .bucket_capacity(CAPACITY)
        .start();
    let disk = builder(&data_dir).open().expect("fresh disk store");
    let (mem_client, disk_client) = (mem.handle(), disk.handle());
    for (rid, rc) in &records {
        mem_client.insert(*rid, rc).unwrap();
        disk_client.insert(*rid, rc).unwrap();
    }
    let hits = |s: &StoreHandle, p: &str| {
        let mut v = s.search(p).unwrap();
        v.sort_unstable();
        v
    };
    let patterns = ["USER000007", "SMITH", "415-555"];
    let expected: Vec<Vec<u64>> = patterns.iter().map(|p| hits(&mem_client, p)).collect();
    for (p, e) in patterns.iter().zip(&expected) {
        assert_eq!(&hits(&disk_client, p), e, "backends disagree on {p:?}");
    }
    mem.shutdown();
    disk.shutdown();

    // reopen and compare again
    let disk = builder(&data_dir).open().expect("reopen disk store");
    let disk_client = disk.handle();
    for (p, e) in patterns.iter().zip(&expected) {
        assert_eq!(
            &hits(&disk_client, p),
            e,
            "reopen changed results for {p:?}"
        );
    }
    disk.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
