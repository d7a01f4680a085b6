//! A bucket retired by a merge stays retired: a durable file that shrank
//! reopens at the extent it shrank to, with exactly the records it kept.

use sdds_lh::{ClusterConfig, LhCluster, StorageConfig};
use std::path::Path;
use std::time::{Duration, Instant};

fn config(dir: &Path, bucket_capacity: usize) -> ClusterConfig {
    ClusterConfig {
        bucket_capacity,
        storage: StorageConfig::disk(dir),
        ..ClusterConfig::default()
    }
}

#[test]
fn a_file_that_shrank_reopens_without_its_merged_buckets() {
    let dir = std::env::temp_dir().join(format!("sdds-lh-merge-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = LhCluster::start(config(&dir, 16));
    let client = cluster.client();
    for key in 0..600u64 {
        client.insert(key, vec![key as u8]).expect("insert");
    }
    let grown = client.refresh_image().expect("extent");
    for key in 40..600u64 {
        client.delete(key).expect("delete");
    }
    // underflow reports drive merges, which run asynchronously
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.refresh_image().expect("extent") > grown / 2 {
        assert!(Instant::now() < deadline, "the file never shrank");
        std::thread::sleep(Duration::from_millis(5));
    }
    // the snapshot waits out the merges still running
    let shrunk = cluster.snapshot().expect("snapshot");
    assert_eq!(shrunk.record_count(), 40);
    cluster.shutdown();

    // a capacity no bucket exceeds: nothing splits on the way up
    let cluster = LhCluster::open(config(&dir, 600)).expect("reopen");
    let after = cluster.snapshot().expect("snapshot");
    assert_eq!(after, shrunk, "a merged-away bucket came back");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
