//! The parallel ingest path must be *byte-identical* to the sequential
//! one: a worker's reused `IngestScratch` yields the same index records
//! as a fresh one, and a store loaded with `insert_many_with` at any
//! thread count must answer searches exactly like a sequentially loaded
//! one.

use proptest::prelude::*;
use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_core::{
    EncodingConfig, EncryptedSearchStore, IndexPipeline, IngestOptions, IngestScratch, SchemeConfig,
};

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

    /// A worker of `insert_many_with` carries one scratch through its
    /// whole share of a window, records of every length in turn.
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

/// Two live stores — one loaded sequentially, one with a 4-thread pool —
/// must agree on every search, hit or miss, and on record fetches.
#[test]
fn parallel_loaded_store_searches_identically() {
    let records = corpus(20060403, 120);
    let pairs: Vec<(u64, &str)> = records
        .iter()
        .map(|(rid, rc)| (*rid, rc.as_str()))
        .collect();
    let cfg = SchemeConfig::basic(4, 4).unwrap();

    let sequential = EncryptedSearchStore::builder(cfg).passphrase("par").start();
    sequential.insert_many(pairs.iter().copied()).unwrap();

    let parallel = EncryptedSearchStore::builder(cfg).passphrase("par").start();
    let stats = parallel
        .insert_many_with(
            pairs.iter().copied(),
            IngestOptions {
                threads: 4,
                flush_index_records: 64,
            },
        )
        .unwrap();
    assert_eq!(stats.records, records.len() as u64);
    assert!(stats.index_records > 0 && stats.index_bytes > 0);

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
        assert_eq!(
            sequential.search(pattern).unwrap(),
            parallel.search(pattern).unwrap(),
            "divergent results for {pattern:?}"
        );
    }
    for (rid, rc) in records.iter().take(20) {
        assert_eq!(parallel.get(*rid).unwrap().as_deref(), Some(rc.as_str()));
    }
    sequential.shutdown();
    parallel.shutdown();
}
