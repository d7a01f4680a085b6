//! A rank restarted over its data dir serves the file it held: every
//! start-up path — `LhCluster::start`, `LhCluster::open` and a one-rank
//! `serve` — derives the file state from the bucket directories, and a
//! rank of a multi-rank cluster, which holds only some of them, refuses a
//! data dir that is not empty.

use sdds_lh::{serve, ClusterConfig, FileSnapshot, LhCluster, LhError, StorageConfig};
use sdds_net::SiteRegistry;
use std::path::{Path, PathBuf};

const KEYS: u64 = 300;

fn value(key: u64) -> Vec<u8> {
    format!("value-{key}").into_bytes()
}

/// A fresh directory under the system temp dir, unique to this test
/// process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdds-lh-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The file grows at capacity 8. A restart at a capacity no bucket
/// exceeds splits nothing on the way up, so the file must come back
/// exactly as it was; at the old one, every bucket recovered past it
/// reports its overflow again, and the file grows from there.
fn config(dir: &Path, bucket_capacity: usize) -> ClusterConfig {
    ClusterConfig {
        bucket_capacity,
        storage: StorageConfig::disk(dir),
        ..ClusterConfig::default()
    }
}

/// Inserts every key through `cluster`, then snapshots the file once its
/// splits have settled.
fn fill(cluster: &LhCluster) -> FileSnapshot {
    let client = cluster.client();
    for key in 0..KEYS {
        client.insert(key, value(key)).expect("insert");
    }
    cluster.snapshot().expect("snapshot")
}

/// How many keys `cluster` finds with their value, and its snapshot.
fn check(cluster: &LhCluster) -> (usize, FileSnapshot) {
    let client = cluster.client();
    let found = (0..KEYS)
        .filter(|&key| client.lookup(key).expect("lookup") == Some(value(key)))
        .count();
    (found, cluster.snapshot().expect("snapshot"))
}

/// Serves `config` as the only rank of a cluster, runs `body` on a
/// client process's handle, and shuts the rank down.
fn served<T>(config: ClusterConfig, body: impl FnOnce(&LhCluster) -> T) -> T {
    let registry = SiteRegistry::loopback(1).expect("registry");
    let rank = serve(registry.clone(), 0, config).expect("serve");
    let cluster = LhCluster::connect(registry, ClusterConfig::default());
    let out = body(&cluster);
    cluster.shutdown();
    rank.wait();
    out
}

/// Starts `config` in this process, runs `body` on it, and shuts it down.
fn in_process<T>(config: ClusterConfig, body: impl FnOnce(&LhCluster) -> T) -> T {
    let cluster = LhCluster::start(config);
    let out = body(&cluster);
    cluster.shutdown();
    out
}

#[test]
fn a_restarted_one_rank_serve_finds_every_record_at_the_same_extent() {
    let dir = scratch("serve");
    let before = served(config(&dir, 8), fill);
    assert!(before.buckets.len() > 8, "the file must have split");

    let (found, after) = served(config(&dir, KEYS as usize), check);
    assert_eq!(found, KEYS as usize, "acked records lost over a restart");
    assert_eq!((after.level, after.split), (before.level, before.split));
    assert_eq!(after, before);

    let (found, grown) = served(config(&dir, 8), check);
    assert_eq!(found, KEYS as usize);
    assert!(grown.buckets.len() >= before.buckets.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn start_over_a_data_dir_that_holds_a_file_reopens_it() {
    let dir = scratch("start");
    let before = in_process(config(&dir, 8), fill);
    assert!(before.buckets.len() > 8, "the file must have split");

    let (found, after) = in_process(config(&dir, KEYS as usize), check);
    assert_eq!(found, KEYS as usize, "acked records lost over a restart");
    assert_eq!(after, before);

    let (found, grown) = in_process(config(&dir, 8), check);
    assert_eq!(found, KEYS as usize);
    assert!(grown.buckets.len() >= before.buckets.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rank_of_a_multi_rank_cluster_refuses_a_data_dir_that_holds_buckets() {
    let dirs = [scratch("rank0"), scratch("rank1")];
    // from empty data dirs, a multi-rank disk cluster starts
    let registry = SiteRegistry::loopback(2).expect("registry");
    let ranks: Vec<_> = dirs
        .iter()
        .enumerate()
        .map(|(rank, dir)| serve(registry.clone(), rank, config(dir, 8)).expect("fresh rank"))
        .collect();
    let cluster = LhCluster::connect(registry, ClusterConfig::default());
    assert_eq!(fill(&cluster).record_count(), KEYS as usize);
    cluster.shutdown();
    for rank in ranks {
        rank.wait();
    }

    let registry = SiteRegistry::loopback(2).expect("registry");
    for (rank, dir) in dirs.iter().enumerate() {
        match serve(registry.clone(), rank, config(dir, 8)) {
            Err(LhError::Rejected(why)) => {
                assert!(why.contains(&dir.display().to_string()), "{why}");
            }
            Err(e) => panic!("rank {rank}: {e}"),
            Ok(_) => panic!("rank {rank} served a data dir that holds buckets"),
        }
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
