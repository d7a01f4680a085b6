//! Snapshot: one consistent copy of an LH\* file's state and contents.

use sdds_lh::{ClusterConfig, LhCluster};

fn populated_cluster(n: u64) -> LhCluster {
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 16,
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    for key in 0..n {
        client
            .insert(key, format!("value {key}").into_bytes())
            .unwrap();
    }
    cluster
}

#[test]
fn snapshot_captures_everything() {
    let cluster = populated_cluster(300);
    let snap = cluster.snapshot().unwrap();
    assert_eq!(snap.record_count(), 300);
    assert_eq!(snap.buckets.len() as u64, (1u64 << snap.level) + snap.split);
    // bucket contents are disjoint and address-ordered
    let mut all_keys: Vec<u64> = snap
        .buckets
        .iter()
        .flat_map(|b| b.records.iter().map(|(k, _)| *k))
        .collect();
    all_keys.sort_unstable();
    assert_eq!(all_keys, (0..300).collect::<Vec<u64>>());
    cluster.shutdown();
}
