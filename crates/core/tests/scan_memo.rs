//! A runtime worker prepares the query of a scan once and hands the
//! result to every further bucket it runs for that scan. What a scan
//! answers must not depend on it: for any sequence of scans — repeated,
//! distinct, keys-only or full, malformed — each scan of an indexed store
//! returns what the same scan returns from a store built with
//! `EncryptedIndexFilter::linear()`, and a worker of one store never
//! answers with the query another store's filter prepared.
//!
//! CI runs this file unpinned and under `taskset -c 0` (one worker, so
//! one memo sees every bucket of every scan).

use proptest::prelude::*;
use sdds_core::{EncryptedSearchStore, SchemeConfig};
use sdds_corpus::DirectoryGenerator;
use sdds_lh::{ClusterConfig, LhClient, LhCluster, ScanMatch};

fn store(scan_index: bool) -> EncryptedSearchStore {
    EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("memo")
        .bucket_capacity(8)
        .scan_index(scan_index)
        .start()
}

/// Record by record: a bucket reports its overflow once until it has
/// split, so a bulk load leaves few, overfull buckets.
fn load(store: &EncryptedSearchStore, records: &[sdds_corpus::Record]) {
    let client = store.handle();
    for r in records {
        client.insert(r.rid, &r.rc).unwrap();
    }
}

fn scan(client: &LhClient, query: &[u8], keys_only: bool) -> Vec<ScanMatch> {
    let mut matches = client.scan(query, keys_only).unwrap();
    matches.sort_by_key(|m| m.key);
    matches
}

/// Queries a bucket must fail closed on: cut short, extended, a flipped
/// byte (which may still decode — then both stores must agree on what it
/// means), and bytes that were never a query.
fn malformed(wire: &[u8], pick: usize) -> Vec<u8> {
    let mut bytes = wire.to_vec();
    match pick % 4 {
        0 => bytes.truncate(pick % wire.len()),
        1 => bytes.push(pick as u8),
        2 => bytes[pick % wire.len()] ^= 1 << (pick % 8),
        _ => bytes = b"not a query".to_vec(),
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_scan_of_any_interleaving_equals_the_linear_store(
        corpus_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<usize>(), 60..61),
    ) {
        let (indexed, linear) = (store(true), store(false));
        let records = DirectoryGenerator::new(corpus_seed).generate(320);
        for store in [&indexed, &linear] {
            load(store, &records);
        }
        let buckets = indexed.cluster().num_buckets();
        prop_assert!(buckets >= 64, "{} buckets", buckets);

        // Patterns cut from the corpus hit; the last one does not.
        let mut patterns: Vec<String> = records
            .iter()
            .step_by(records.len() / 6)
            .map(|r| r.rc.chars().take(6).collect())
            .collect();
        patterns.push("ZZZZNOBODY".to_owned());
        let wires: Vec<Vec<u8>> = patterns
            .iter()
            .map(|p| indexed.pipeline().build_query(p).unwrap().encode())
            .collect();
        let (a, b) = (indexed.cluster().client(), linear.cluster().client());
        let mut hits = 0;
        for (turn, pick) in picks.iter().enumerate() {
            // every third turn repeats the query of the turn before
            let wire = &wires[picks[turn - usize::from(turn % 3 == 2)] % wires.len()];
            let query = if pick % 5 == 4 { malformed(wire, pick / 5) } else { wire.clone() };
            let keys_only = pick % 2 == 0;
            let got = scan(&a, &query, keys_only);
            prop_assert_eq!(&got, &scan(&b, &query, keys_only), "turn {}", turn);
            prop_assert!(got.iter().all(|m| m.value.is_none() == keys_only));
            hits += got.len();
        }
        prop_assert!(hits > 0, "the patterns must hit");
        indexed.shutdown();
        linear.shutdown();
    }
}

/// The same query bytes, alternately to an encrypted store and to a plain
/// LH\* file whose filter reads them as a substring: each file answers by
/// its own filter, every time.
#[test]
fn two_files_with_different_filters_answer_the_same_bytes_differently() {
    let (encrypted, linear) = (store(true), store(false));
    let records = DirectoryGenerator::new(7).generate(320);
    load(&encrypted, &records);
    load(&linear, &records);
    let pattern: String = records[0].rc.chars().take(6).collect();
    let wire = encrypted.pipeline().build_query(&pattern).unwrap().encode();

    let plain = LhCluster::start(ClusterConfig {
        bucket_capacity: 4,
        ..ClusterConfig::default() // SubstringFilter
    });
    let plain_client = plain.client();
    for key in 0..400u64 {
        // every fourth record holds the query's bytes
        let value = match key % 4 {
            0 => [b"<", &wire[..], b">"].concat(),
            _ => key.to_le_bytes().to_vec(),
        };
        plain_client.insert(key, value).unwrap();
    }
    // A split runs after the insert that triggered it is acked: count
    // the buckets once a snapshot has waited out the splits still queued.
    for cluster in [encrypted.cluster(), &plain] {
        cluster.snapshot().unwrap();
        assert!(cluster.num_buckets() >= 64);
    }

    let encrypted_client = encrypted.cluster().client();
    let expected = scan(&linear.cluster().client(), &wire, true);
    assert!(!expected.is_empty());
    for _ in 0..4 {
        let by_substring = scan(&plain_client, &wire, true);
        let keys: Vec<u64> = by_substring.iter().map(|m| m.key).collect();
        assert_eq!(keys, (0..400).step_by(4).collect::<Vec<u64>>());
        assert_eq!(scan(&encrypted_client, &wire, true), expected);
    }
    plain.shutdown();
    encrypted.shutdown();
    linear.shutdown();
}
