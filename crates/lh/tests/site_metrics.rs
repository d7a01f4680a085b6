//! A bucket's metric registry lives as long as the bucket: after the file
//! merges down and grows again, `sdds_obs::capture_sites` lists every
//! live bucket once and no bucket that is gone.
//!
//! `capture_sites` reads a process-wide list, so this stays the only test
//! of its binary: a cluster of a test running beside it would add its own
//! buckets to the list.

use sdds_lh::{ClusterConfig, LhCluster};
use std::time::{Duration, Instant};

#[test]
fn captured_sites_are_the_live_buckets_after_merges_and_regrowth() {
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 16,
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    for key in 0..600u64 {
        client.insert(key, vec![0; 16]).unwrap();
    }
    let grown = client.refresh_image().unwrap();
    for key in 40..600u64 {
        client.delete(key).unwrap();
    }
    // underflow reports drive merges, which run asynchronously
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.refresh_image().unwrap() > grown / 2 {
        assert!(Instant::now() < deadline, "the file never shrank");
        std::thread::sleep(Duration::from_millis(5));
    }
    // growing again splits into the merged-away addresses
    for key in 600..1200u64 {
        client.insert(key, vec![0; 16]).unwrap();
    }
    // the snapshot waits out the splits still running
    let mut live: Vec<String> = cluster
        .snapshot()
        .unwrap()
        .buckets
        .iter()
        .map(|b| format!("bucket-{}", b.addr))
        .collect();
    live.sort();
    assert!(
        live.len() > grown as usize / 2,
        "the file grew back: {} buckets",
        live.len()
    );

    // a retired bucket's site drops its state when it handles its
    // `Shutdown`, which may still be queued
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut captured: Vec<String> = sdds_obs::capture_sites()
            .into_iter()
            .map(|s| s.label)
            .collect();
        captured.sort();
        if captured == live {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "captured {} sites for {} live buckets: {captured:?}",
            captured.len(),
            live.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
}
