//! Posting-index consistency at the store level: searches over an
//! index-enabled store must be byte-identical to the linear-scan oracle
//! (the same store built with `scan_index(false)`), through splits,
//! merges, overwrites and deletes, for every search API.

use proptest::prelude::*;
use sdds_core::{EncryptedSearchStore, SchemeConfig, SearchOutcome, StoreHandle};
use sdds_corpus::DirectoryGenerator;

fn directory(n: usize) -> Vec<sdds_corpus::Record> {
    DirectoryGenerator::new(2024).generate(n)
}

/// Two stores over the same configuration and key material: one answering
/// scans from the per-bucket posting index, one sweeping linearly.
fn store_pair(capacity: usize) -> (EncryptedSearchStore, EncryptedSearchStore) {
    let indexed = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("oracle")
        .bucket_capacity(capacity)
        .scan_index(true)
        .start();
    let linear = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("oracle")
        .bucket_capacity(capacity)
        .scan_index(false)
        .start();
    (indexed, linear)
}

/// Every observable piece of a search answer must agree.
fn assert_same_outcome(a: &SearchOutcome, b: &SearchOutcome, pattern: &str) {
    assert_eq!(a.rids, b.rids, "rids differ for {pattern:?}");
    assert_eq!(
        a.candidate_rids, b.candidate_rids,
        "candidates differ for {pattern:?}"
    );
    assert_eq!(
        a.matched_index_records, b.matched_index_records,
        "matched index records differ for {pattern:?}"
    );
    assert_eq!(a.positions, b.positions, "positions differ for {pattern:?}");
}

fn assert_searches_agree(indexed: &StoreHandle, linear: &StoreHandle, patterns: &[&str]) {
    for pattern in patterns {
        let a = indexed.search_detailed(pattern).unwrap();
        let b = linear.search_detailed(pattern).unwrap();
        assert_same_outcome(&a, &b, pattern);
    }
}

#[test]
fn indexed_search_equals_linear_oracle_through_splits() {
    let probes0 = sdds_obs::counter("lh.scan_index_probes").get();
    let candidates0 = sdds_obs::counter("lh.scan_index_candidates").get();
    let (indexed_store, linear_store) = store_pair(16);
    let (indexed, linear) = (indexed_store.handle(), linear_store.handle());
    let records = directory(150);
    for r in &records {
        indexed.insert(r.rid, &r.rc).unwrap();
        linear.insert(r.rid, &r.rc).unwrap();
    }
    assert!(
        indexed_store.cluster().num_buckets() > 4,
        "the load must force splits"
    );
    let patterns = ["SCHWARZ", "MART", "SMITH", "6993", "ZZZZNOBODY"];
    assert_searches_agree(&indexed, &linear, &patterns);
    assert!(
        sdds_obs::counter("lh.scan_index_probes").get() > probes0,
        "indexed searches must probe the posting index"
    );
    assert!(
        sdds_obs::counter("lh.scan_index_candidates").get() > candidates0,
        "probes must surface candidates"
    );
    indexed_store.shutdown();
    linear_store.shutdown();
}

#[test]
fn delete_and_overwrite_leave_no_stale_postings() {
    let (indexed_store, linear_store) = store_pair(16);
    let (indexed, linear) = (indexed_store.handle(), linear_store.handle());
    let records = directory(120);
    for r in &records {
        indexed.insert(r.rid, &r.rc).unwrap();
        linear.insert(r.rid, &r.rc).unwrap();
    }
    // overwrite a third of the records with different content
    for r in records.iter().filter(|r| r.rid % 3 == 0) {
        let rc = format!("OVERWRITTEN PERSON {}", r.rid);
        indexed.insert(r.rid, &rc).unwrap();
        linear.insert(r.rid, &rc).unwrap();
    }
    // delete another third (forces merges at this capacity)
    let doomed: Vec<u64> = records
        .iter()
        .map(|r| r.rid)
        .filter(|rid| rid % 3 == 1)
        .collect();
    for &rid in &doomed {
        assert!(indexed.delete(rid).unwrap());
        assert!(linear.delete(rid).unwrap());
    }
    // only a record that exists reports a delete
    assert!(!indexed.delete(doomed[0]).unwrap());
    assert!(!indexed.delete(9_999_999).unwrap());
    let patterns = ["OVERWRITTEN", "SCHWARZ", "MART", "SMITH"];
    assert_searches_agree(&indexed, &linear, &patterns);
    // deleted records must be gone from both views
    for &rid in &doomed {
        assert_eq!(indexed.get(rid).unwrap(), None);
        assert_eq!(linear.get(rid).unwrap(), None);
    }
    indexed_store.shutdown();
    linear_store.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workloads: whatever mix of bulk inserts, overwrites and
    /// deletes ran, indexed and linear stores answer every search
    /// identically.
    #[test]
    fn random_bulk_workloads_agree_with_the_linear_oracle(
        seed in 0u64..1000,
        n in 40usize..100,
        drop_mod in 2u64..5,
    ) {
        let records = DirectoryGenerator::new(seed).generate(n);
        let (indexed_store, linear_store) = store_pair(16);
        let (indexed, linear) = (indexed_store.handle(), linear_store.handle());
        let batch: Vec<(u64, &str)> =
            records.iter().map(|r| (r.rid, r.rc.as_str())).collect();
        indexed.insert_many(batch.iter().copied()).unwrap();
        linear.insert_many(batch).unwrap();
        // overwrite some, delete some
        for r in records.iter().filter(|r| r.rid % drop_mod == 0) {
            let rc = format!("REWRITTEN {}", r.rc);
            indexed.insert(r.rid, &rc).unwrap();
            linear.insert(r.rid, &rc).unwrap();
        }
        let doomed: Vec<u64> = records
            .iter()
            .map(|r| r.rid)
            .filter(|rid| rid % drop_mod == 1)
            .collect();
        for &rid in &doomed {
            indexed.delete(rid).unwrap();
            linear.delete(rid).unwrap();
        }
        let patterns = ["REWRITTEN", "SCHWARZ", "MART", "5555", "NOSUCHNAME"];
        for pattern in patterns {
            let a = indexed.search_detailed(pattern).unwrap();
            let b = linear.search_detailed(pattern).unwrap();
            prop_assert_eq!(&a.rids, &b.rids, "rids differ for {:?}", pattern);
            prop_assert_eq!(
                &a.candidate_rids, &b.candidate_rids,
                "candidates differ for {:?}", pattern
            );
            prop_assert_eq!(
                a.matched_index_records, b.matched_index_records,
                "matched index records differ for {:?}", pattern
            );
            prop_assert_eq!(&a.positions, &b.positions, "positions differ for {:?}", pattern);
        }
        indexed_store.shutdown();
        linear_store.shutdown();
    }
}
