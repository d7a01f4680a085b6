//! End-to-end LH\* cluster tests: real sites, real messages.

use sdds_lh::{ClusterConfig, LhCluster, ParityConfig, SubstringFilter};
use std::sync::Arc;

fn small_bucket_config(capacity: usize) -> ClusterConfig {
    ClusterConfig {
        bucket_capacity: capacity,
        ..ClusterConfig::default()
    }
}

#[test]
fn insert_lookup_delete_roundtrip() {
    let cluster = LhCluster::start(ClusterConfig::default());
    let client = cluster.client();
    assert!(!client.insert(1, b"one".to_vec()).unwrap());
    assert!(
        client.insert(1, b"uno".to_vec()).unwrap(),
        "overwrite reported"
    );
    assert_eq!(client.lookup(1).unwrap(), Some(b"uno".to_vec()));
    assert_eq!(client.lookup(2).unwrap(), None);
    assert!(client.delete(1).unwrap());
    assert!(!client.delete(1).unwrap());
    assert_eq!(client.lookup(1).unwrap(), None);
    cluster.shutdown();
}

#[test]
fn file_scales_out_under_load() {
    let cluster = LhCluster::start(small_bucket_config(16));
    let client = cluster.client();
    let n = 1000u64;
    for key in 0..n {
        client
            .insert(key, format!("value-{key}").into_bytes())
            .unwrap();
    }
    assert!(
        cluster.num_buckets() > 16,
        "1000 records at capacity 16 must split well beyond 16 buckets, got {}",
        cluster.num_buckets()
    );
    // every record still reachable after all the splits
    for key in 0..n {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(format!("value-{key}").into_bytes()),
            "key {key} lost"
        );
    }
    cluster.shutdown();
}

#[test]
fn stale_client_still_reaches_everything() {
    let cluster = LhCluster::start(small_bucket_config(8));
    let writer = cluster.client();
    for key in 0..400u64 {
        writer.insert(key, vec![key as u8]).unwrap();
    }
    // a brand-new client starts with the primordial image
    let reader = cluster.client();
    assert_eq!(reader.image().extent(), 1);
    for key in 0..400u64 {
        assert_eq!(reader.lookup(key).unwrap(), Some(vec![key as u8]));
    }
    // the image converged via IAMs
    assert!(reader.image().extent() > 1, "image never adjusted");
    assert!(reader.iam_count() > 0);
    cluster.shutdown();
}

#[test]
fn forwarding_stays_within_lh_star_bound() {
    let cluster = LhCluster::start(small_bucket_config(8));
    let writer = cluster.client();
    for key in 0..500u64 {
        writer.insert(key, vec![0]).unwrap();
    }
    let reader = cluster.client();
    let mut total_requests = 0u64;
    for key in 0..500u64 {
        reader.lookup(key).unwrap();
        total_requests += 1;
    }
    // LH* theorem: at most 2 hops per request, and few requests hop at all
    // once the image converges.
    assert!(
        reader.hop_count() <= 2 * total_requests,
        "hop bound violated: {} hops for {} requests",
        reader.hop_count(),
        total_requests
    );
    cluster.shutdown();
}

#[test]
fn parallel_substring_scan_finds_matches_across_buckets() {
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 8,
        filter: Arc::new(SubstringFilter),
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    let names = [
        "SCHWARZ THOMAS",
        "TSUI PETER",
        "LITWIN WITOLD",
        "SCHWARTZ X",
    ];
    for (i, name) in names.iter().enumerate() {
        client.insert(i as u64, name.as_bytes().to_vec()).unwrap();
    }
    for filler in 10..200u64 {
        client
            .insert(filler, format!("FILLER {filler}").into_bytes())
            .unwrap();
    }
    let hits = client.scan(b"SCHWAR", false).unwrap();
    let keys: Vec<u64> = hits.iter().map(|m| m.key).collect();
    assert_eq!(keys, vec![0, 3]);
    assert_eq!(hits[0].value.as_deref(), Some(b"SCHWARZ THOMAS".as_slice()));
    // keys-only scan omits values
    let hits = client.scan(b"LITWIN", true).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].key, 2);
    assert!(hits[0].value.is_none());
    cluster.shutdown();
}

#[test]
fn concurrent_clients_do_not_interfere() {
    let cluster = LhCluster::start(small_bucket_config(16));
    let nthreads = 4;
    let per_thread = 200u64;
    std::thread::scope(|scope| {
        for t in 0..nthreads {
            let client = cluster.client();
            scope.spawn(move || {
                let base = t as u64 * 10_000;
                for i in 0..per_thread {
                    client
                        .insert(base + i, (base + i).to_le_bytes().to_vec())
                        .unwrap();
                }
                for i in 0..per_thread {
                    assert_eq!(
                        client.lookup(base + i).unwrap(),
                        Some((base + i).to_le_bytes().to_vec())
                    );
                }
            });
        }
    });
    cluster.shutdown();
}

#[test]
fn file_shrinks_after_mass_deletion() {
    let cluster = LhCluster::start(small_bucket_config(16));
    let client = cluster.client();
    let n = 600u64;
    for key in 0..n {
        client.insert(key, vec![0u8; 16]).unwrap();
    }
    client.refresh_image().unwrap();
    let grown = client.image().extent();
    assert!(grown > 8, "file should have grown: {grown}");
    // delete almost everything; underflow reports drive merges
    for key in 0..n {
        client.delete(key).unwrap();
    }
    // Merges are asynchronous. While they run, a second client — its
    // image stays at the grown extent, ahead of the shrinking file —
    // writes and reads back: every acked insert must be readable at once,
    // whichever bucket is dissolving or being refilled at that moment.
    let writer = cluster.client();
    writer.refresh_image().unwrap();
    let mut shrunk = grown;
    for round in 0..100u64 {
        for key in (round * 8..).take(8).map(|k| k % 48) {
            writer.insert(key, vec![round as u8]).unwrap();
            assert_eq!(
                writer.lookup(key).unwrap(),
                Some(vec![round as u8]),
                "acked insert of {key} unreadable mid-merge (round {round}, extent {shrunk})"
            );
        }
        shrunk = client.refresh_image().unwrap();
        if shrunk <= grown / 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        shrunk <= grown / 2,
        "file should shrink after deleting everything: {grown} -> {shrunk}"
    );
    // the file still works: inserts and lookups route correctly
    for key in 0..50u64 {
        client.insert(key, vec![1]).unwrap();
        assert_eq!(client.lookup(key).unwrap(), Some(vec![1]));
    }
    cluster.shutdown();
}

#[test]
fn data_survives_shrinking() {
    let cluster = LhCluster::start(small_bucket_config(16));
    let client = cluster.client();
    // grow with 500 keys, then delete all but 20 survivors
    for key in 0..500u64 {
        client.insert(key, key.to_le_bytes().to_vec()).unwrap();
    }
    for key in 20..500u64 {
        client.delete(key).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(400)); // let merges run
    for key in 0..20u64 {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(key.to_le_bytes().to_vec()),
            "survivor {key} lost during shrinking"
        );
    }
    cluster.shutdown();
}

/// Deletes and inserts race, so merges retire addresses that the splits
/// queued behind them create again — often in the coordinator step that
/// retired them, before the retired site has handled its `Shutdown`:
/// the new bucket then takes that site's mailbox over at the `Shutdown`
/// (`Runtime::succeed`), else it registers over the tombstone. The
/// deletes empty the file while every insert lands in bucket 0 (`h` is
/// `key mod 2^level`), which keeps reporting overflows. Every acked
/// insert stays readable and every acked delete stays deleted.
#[test]
fn churn_splits_merged_away_addresses_off_again_and_loses_nothing() {
    let cluster = LhCluster::start(small_bucket_config(16));
    let writer = cluster.client();
    let value = |key: u64| key.to_le_bytes().to_vec();
    let merges = sdds_obs::counter("lh.merges").get();
    let hot = |round: u64| (0..150).map(move |j| (round * 1_000 + j + 1) << 12);
    for round in 0..4u64 {
        let base = round * 1_000;
        for key in base..base + 600 {
            writer.insert(key, value(key)).unwrap();
        }
        let deleter = cluster.client();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for key in base..base + 600 {
                    assert!(deleter.delete(key).unwrap(), "acked insert {key} gone");
                }
            });
            for key in hot(round) {
                writer.insert(key, value(key)).unwrap();
            }
        });
    }
    let reader = cluster.client();
    for round in 0..4u64 {
        let base = round * 1_000;
        for key in (base..base + 600).step_by(7) {
            assert_eq!(reader.lookup(key).unwrap(), None, "deleted {key} is back");
        }
        for key in hot(round) {
            assert_eq!(reader.lookup(key).unwrap(), Some(value(key)), "{key} lost");
        }
    }
    assert!(
        sdds_obs::counter("lh.merges").get() > merges,
        "never shrank"
    );
    cluster.shutdown();
}

#[test]
fn traffic_is_accounted() {
    let cluster = LhCluster::start(ClusterConfig::default());
    let client = cluster.client();
    client.insert(1, b"x".to_vec()).unwrap();
    client.lookup(1).unwrap();
    let stats = cluster.network().stats();
    assert!(stats.messages() >= 4, "2 requests + 2 responses minimum");
    assert!(stats.bytes() > 0);
    let before = stats.messages();
    client.lookup(1).unwrap();
    assert_eq!(stats.messages(), before + 2, "one request, one response");
    cluster.shutdown();
}

#[test]
fn stale_image_never_overshoots_the_file() {
    // Regression test for the A1 h_{j-1} guard: grow the file to a state
    // with split > 0, then look up keys whose h_{level+1} image points past
    // the file's extent, from a primordial-image client. Without the guard
    // bucket 0 (at level i+1) forwards toward a nonexistent bucket and the
    // lookup misses.
    let cluster = LhCluster::start(small_bucket_config(4));
    let writer = cluster.client();
    // grow until the file sits mid-level (split > 0)
    let mut n = 0u64;
    let img = loop {
        writer.insert(n, vec![n as u8]).unwrap();
        n += 1;
        writer.refresh_image().unwrap();
        let img = writer.image();
        if img.level >= 3 && img.split > 0 {
            break img;
        }
        assert!(n < 500, "file never reached a mid-level state");
    };
    // a fresh client starts at bucket 0 for every key
    let reader = cluster.client();
    for key in 0..n {
        assert_eq!(
            reader.lookup(key).unwrap(),
            Some(vec![key as u8]),
            "key {key} missed through the stale image (file {img:?})"
        );
    }
    cluster.shutdown();
}

#[test]
fn batch_insert_is_equivalent_and_cheaper_in_roundtrips() {
    let cluster = LhCluster::start(small_bucket_config(64));
    let client = cluster.client();
    let items: Vec<(u64, Vec<u8>)> = (0..200u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
    client.insert_batch(items.clone()).unwrap();
    for (k, v) in &items {
        assert_eq!(client.lookup(*k).unwrap().as_ref(), Some(v));
    }
    // overwrite through a second batch
    let items2: Vec<(u64, Vec<u8>)> = (0..200u64).map(|k| (k, vec![9u8])).collect();
    client.insert_batch(items2).unwrap();
    assert_eq!(client.lookup(7).unwrap(), Some(vec![9u8]));
    cluster.shutdown();
}

#[test]
fn batch_insert_survives_losses() {
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 100_000,
        net: sdds_repro_netcfg(0.05, 11),
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    client.set_timeout(std::time::Duration::from_millis(2500));
    let items: Vec<(u64, Vec<u8>)> = (0..150u64).map(|k| (k, vec![k as u8])).collect();
    client.insert_batch(items).unwrap();
    for k in 0..150u64 {
        assert_eq!(client.lookup(k).unwrap(), Some(vec![k as u8]), "key {k}");
    }
    cluster.shutdown();
}

#[test]
fn operations_survive_a_lossy_network() {
    // 5% of all messages vanish; client retransmissions mask the loss.
    // Capacity is high so no splits run during the lossy phase (protocol
    // messages between coordinator and buckets are not retried — as in
    // LH*, the file structure protocol assumes reliable transport).
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 100_000,
        net: sdds_repro_netcfg(0.03, 7),
        client_timeout: std::time::Duration::from_millis(1500),
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    for key in 0..300u64 {
        client.insert(key, vec![key as u8]).unwrap();
    }
    for key in 0..300u64 {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(vec![key as u8]),
            "key {key}"
        );
    }
    // scans also retry per bucket
    let all = client.scan(&[], true).unwrap();
    assert_eq!(all.len(), 300);
    // and so do a snapshot's extent read and dumps: one lost `Dump` or
    // `DumpState` used to stall the whole snapshot until it timed out
    for round in 0..50 {
        let snapshot = cluster
            .snapshot()
            .unwrap_or_else(|e| panic!("snapshot {round}: {e}"));
        assert_eq!(snapshot.record_count(), 300, "snapshot {round}");
    }
    assert!(
        cluster.network().stats().dropped() > 0,
        "fault injection should actually have dropped messages"
    );
    cluster.shutdown();
}

fn sdds_repro_netcfg(drop_probability: f64, fault_seed: u64) -> sdds_net::NetConfig {
    sdds_net::NetConfig {
        drop_probability,
        fault_seed,
    }
}

// ---------- LH*RS high availability ----------

fn parity_config() -> ClusterConfig {
    ClusterConfig {
        bucket_capacity: 8,
        parity: Some(ParityConfig {
            group_size: 2,
            parity_count: 1,
            slot_size: 64,
        }),
        ..ClusterConfig::default()
    }
}

#[test]
fn bucket_recovery_restores_all_records() {
    let cluster = LhCluster::start(parity_config());
    let client = cluster.client();
    let n = 120u64;
    for key in 0..n {
        client
            .insert(key, format!("payload-{key}").into_bytes())
            .unwrap();
    }
    let buckets = cluster.num_buckets() as u64;
    assert!(buckets >= 4, "need several buckets, got {buckets}");
    // let parity updates drain before the crash
    std::thread::sleep(std::time::Duration::from_millis(200));
    // crash bucket 1 and recover it from parity
    cluster.kill_bucket(1);
    cluster.recover_bucket(1).unwrap();
    for key in 0..n {
        assert_eq!(
            client.lookup(key).unwrap(),
            Some(format!("payload-{key}").into_bytes()),
            "key {key} lost after recovery"
        );
    }
    cluster.shutdown();
}

#[test]
fn recovery_preserves_updates_and_deletes() {
    let cluster = LhCluster::start(parity_config());
    let client = cluster.client();
    for key in 0..60u64 {
        client.insert(key, vec![1u8; 8]).unwrap();
    }
    // mutate: overwrite some, delete some
    for key in (0..60u64).step_by(3) {
        client.insert(key, vec![2u8; 12]).unwrap();
    }
    for key in (1..60u64).step_by(3) {
        client.delete(key).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    cluster.kill_bucket(0);
    cluster.recover_bucket(0).unwrap();
    for key in 0..60u64 {
        let expect = match key % 3 {
            0 => Some(vec![2u8; 12]),
            1 => None,
            _ => Some(vec![1u8; 8]),
        };
        assert_eq!(client.lookup(key).unwrap(), expect, "key {key}");
    }
    cluster.shutdown();
}

#[test]
fn scan_over_dead_bucket_reports_incomplete_not_partial() {
    // Regression: the scan used to drop unreachable buckets from its
    // outstanding set and return Ok with a silently partial result. It
    // must instead fail with the missing addresses — and succeed again
    // once the bucket is recovered.
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 8,
        filter: Arc::new(SubstringFilter),
        parity: Some(ParityConfig {
            group_size: 2,
            parity_count: 1,
            slot_size: 64,
        }),
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    let n = 100u64;
    for key in 0..n {
        client
            .insert(key, format!("RECORD {key}").into_bytes())
            .unwrap();
    }
    assert!(cluster.num_buckets() >= 4, "need several buckets");
    // full scan works while everyone is alive
    assert_eq!(client.scan(b"RECORD", true).unwrap().len(), n as usize);
    // let parity updates drain, then crash a bucket
    std::thread::sleep(std::time::Duration::from_millis(200));
    cluster.kill_bucket(1);
    client.set_timeout(std::time::Duration::from_millis(300));
    match client.scan(b"RECORD", true) {
        Err(sdds_lh::LhError::ScanIncomplete { missing }) => {
            assert!(
                missing.contains(&1),
                "dead bucket not reported: {missing:?}"
            );
        }
        other => panic!("expected ScanIncomplete, got {other:?}"),
    }
    // recovery makes the scan whole again
    client.set_timeout(std::time::Duration::from_secs(5));
    cluster.recover_bucket(1).unwrap();
    assert_eq!(client.scan(b"RECORD", true).unwrap().len(), n as usize);
    cluster.shutdown();
}

#[test]
fn oversized_value_rejected_when_parity_on() {
    let cluster = LhCluster::start(parity_config());
    let client = cluster.client();
    let err = client.insert(1, vec![0u8; 100]).unwrap_err();
    assert!(matches!(err, sdds_lh::LhError::Rejected(_)), "{err:?}");
    // slot_size - 2 bytes is the maximum and fits
    client.insert(1, vec![0u8; 62]).unwrap();
    cluster.shutdown();
}

#[test]
fn recovery_without_parity_is_rejected() {
    let cluster = LhCluster::start(ClusterConfig::default());
    let err = cluster.recover_bucket(0).unwrap_err();
    assert!(matches!(err, sdds_lh::LhError::Rejected(_)));
    cluster.shutdown();
}

/// `shutdown` returns only once every bucket's state — its storage engine
/// included — has been dropped, so the same directory can be reopened at
/// once and holds every acknowledged record, wherever the last splits
/// left it.
#[test]
fn shutdown_then_open_at_once_finds_every_acked_record() {
    let dir = std::env::temp_dir().join(format!("sdds-lh-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ClusterConfig {
        storage: sdds_lh::StorageConfig::disk(&dir),
        ..small_bucket_config(8)
    };
    let value = |key: u64| format!("value-{key}").into_bytes();
    let cluster = LhCluster::start(config.clone());
    let client = cluster.client();
    for key in 0..400u64 {
        client.insert(key, value(key)).unwrap();
    }
    // no waiting for the splits to settle: shutting down in the middle
    // of one is the case that matters
    drop(client);
    cluster.shutdown();

    let cluster = LhCluster::open(config).expect("reopen");
    assert!(cluster.num_buckets() > 1, "the file must have split");
    let client = cluster.client();
    for key in 0..400u64 {
        assert_eq!(client.lookup(key).unwrap(), Some(value(key)), "key {key}");
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
