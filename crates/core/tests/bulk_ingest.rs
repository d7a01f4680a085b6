//! Bulk ingest must be *byte-identical* to record-by-record ingest: a
//! reused `IngestScratch` yields the same index records as a fresh one,
//! and a store loaded with `insert_many` holds exactly the key → value
//! content that single `insert`s leave, so it answers alike.

use proptest::prelude::*;
use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_core::{
    EncodingConfig, EncryptedSearchStore, IndexPipeline, IngestOptions, IngestScratch, SchemeConfig,
};
use std::collections::BTreeMap;

fn configs() -> Vec<SchemeConfig> {
    let mut v = vec![
        SchemeConfig::basic(4, 4).unwrap(),
        SchemeConfig::basic(8, 4).unwrap(),
    ];
    let mut dispersed = SchemeConfig::basic(4, 2).unwrap();
    dispersed.dispersion = Some(4);
    v.push(dispersed.validated().unwrap());
    let mut encoded = SchemeConfig::basic(2, 2).unwrap();
    encoded.encoding = Some(EncodingConfig::whole_chunk(256));
    v.push(encoded.validated().unwrap());
    v.push(SchemeConfig::paper_recommended());
    v
}

fn pipeline_for(cfg: SchemeConfig, training: &[String]) -> IndexPipeline {
    let keys = KeyMaterial::new(MasterKey::new([42; 16]));
    let book = cfg
        .encoding
        .map(|_| IndexPipeline::train_codebook(&cfg, training.iter().map(|s| s.as_str())));
    IndexPipeline::new(cfg, keys, book).unwrap()
}

/// A deterministic corpus of records with mixed lengths (including empty
/// and shorter-than-a-chunk records).
fn corpus(seed: u64, n: usize) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| {
            let mut x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
            let len = (x % 41) as usize; // 0..=40 symbols
            let rc: String = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(97);
                    char::from(b'A' + ((x >> 33) % 26) as u8)
                })
                .collect();
            (1 + i as u64, rc)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `insert_many` carries one scratch through its whole call, records
    /// of every length in turn.
    #[test]
    fn reused_scratch_is_byte_identical_to_fresh(
        seed in any::<u64>(),
        cfg_idx in 0usize..5,
        n in 1usize..40,
    ) {
        let cfg = configs()[cfg_idx];
        let records = corpus(seed, n);
        let training: Vec<String> = records.iter().map(|(_, rc)| rc.clone()).collect();
        let pipeline = pipeline_for(cfg, &training);
        let mut scratch = IngestScratch::default();
        let mut reused = Vec::new();
        for (rid, rc) in &records {
            pipeline.index_records_into(*rid, rc, &mut scratch, &mut reused);
            prop_assert_eq!(&reused, &pipeline.index_records_for(*rid, rc), "rid {}", rid);
        }
    }
}

/// The whole file's key → value content, gathered across buckets (a
/// record's place depends on split timing, its content does not).
fn contents(store: &EncryptedSearchStore) -> BTreeMap<u64, Vec<u8>> {
    let snapshot = store.cluster().snapshot().unwrap();
    let count = snapshot.record_count();
    let records: BTreeMap<u64, Vec<u8>> = snapshot
        .buckets
        .into_iter()
        .flat_map(|b| b.records)
        .collect();
    assert_eq!(records.len(), count, "a key in two buckets");
    records
}

/// Two live stores — one loaded record by record, one in bulk over
/// several flush windows — hold the same content and agree on every
/// search, hit or miss, and on every record fetch.
#[test]
fn bulk_load_stores_what_single_inserts_store() {
    let records = corpus(20060403, 500);
    let cfg = SchemeConfig::basic(4, 4).unwrap();
    let window = IngestOptions::default()
        .flush_index_records
        .div_ceil(1 + cfg.index_records_per_record());
    assert!(records.len() > 2 * window, "the load spans several windows");

    let single_store = EncryptedSearchStore::builder(cfg)
        .passphrase("bulk")
        .start();
    let single = single_store.handle();
    for (rid, rc) in &records {
        single.insert(*rid, rc).unwrap();
    }
    let bulk_store = EncryptedSearchStore::builder(cfg)
        .passphrase("bulk")
        .start();
    let bulk = bulk_store.handle();
    bulk.insert_many(records.iter().map(|(rid, rc)| (*rid, rc.as_str())))
        .unwrap();

    let stored = contents(&bulk_store);
    assert_eq!(
        stored.len(),
        records.len() * (1 + cfg.index_records_per_record())
    );
    assert!(stored == contents(&single_store), "stored content differs");

    // patterns cut from real records (guaranteed hits) plus guaranteed misses
    let mut patterns: Vec<String> = records
        .iter()
        .filter(|(_, rc)| rc.len() >= 8)
        .take(12)
        .map(|(_, rc)| rc[1..7].to_string())
        .collect();
    patterns.push("QQQQQQQQ".into());
    patterns.push("ZZZZYYYY".into());
    for pattern in &patterns {
        let (a, b) = (
            single.search_detailed(pattern).unwrap(),
            bulk.search_detailed(pattern).unwrap(),
        );
        assert_eq!(a.rids, b.rids, "divergent results for {pattern:?}");
        assert_eq!(a.candidate_rids, b.candidate_rids, "{pattern:?}");
        assert_eq!(a.matched_index_records, b.matched_index_records);
        assert_eq!(a.positions, b.positions, "{pattern:?}");
    }
    for (rid, rc) in &records {
        assert_eq!(bulk.get(*rid).unwrap().as_deref(), Some(rc.as_str()));
        assert_eq!(single.get(*rid).unwrap().as_deref(), Some(rc.as_str()));
    }
    single_store.shutdown();
    bulk_store.shutdown();
}
