//! Snapshot / restore: an LH\* file survives a full cluster restart.

use sdds_lh::{ClusterConfig, LhCluster, ParityConfig};

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

#[test]
fn restore_reproduces_the_file() {
    let cluster = populated_cluster(250);
    let snap = cluster.snapshot().unwrap();
    cluster.shutdown();

    let restored = LhCluster::restore(
        ClusterConfig {
            bucket_capacity: 16,
            ..ClusterConfig::default()
        },
        &snap,
    )
    .unwrap();
    let client = restored.client();
    // same extent
    assert_eq!(client.refresh_image().unwrap(), snap.buckets.len() as u64);
    // every record intact
    for key in 0..250u64 {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(format!("value {key}").into_bytes()),
            "key {key}"
        );
    }
    // and the file keeps working: grow it further
    for key in 1000..1100u64 {
        client.insert(key, vec![1]).unwrap();
    }
    assert_eq!(client.lookup(1050).unwrap(), Some(vec![1]));
    restored.shutdown();
}

#[test]
fn restore_can_enable_parity_on_old_data() {
    // snapshot a plain file, restore into a parity-enabled cluster: the
    // replay rebuilds parity, so the restored file tolerates bucket loss.
    let cluster = populated_cluster(120);
    let snap = cluster.snapshot().unwrap();
    cluster.shutdown();

    let restored = LhCluster::restore(
        ClusterConfig {
            bucket_capacity: 16,
            parity: Some(ParityConfig {
                group_size: 2,
                parity_count: 1,
                slot_size: 64,
            }),
            ..ClusterConfig::default()
        },
        &snap,
    )
    .unwrap();
    let client = restored.client();
    // wait for replay + parity streams to drain
    std::thread::sleep(std::time::Duration::from_millis(300));
    restored.kill_bucket(1);
    restored.recover_bucket(1).unwrap();
    for key in 0..120u64 {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(format!("value {key}").into_bytes()),
            "key {key} after restore + crash + recovery"
        );
    }
    restored.shutdown();
}
