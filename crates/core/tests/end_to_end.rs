//! End-to-end tests of the complete scheme over a live LH\* cluster:
//! every Stage-1/2/3 combination, searching the phone-directory workload.

use sdds_chunk::{PartialChunkPolicy, SearchMode};
use sdds_core::{
    EncodingConfig, EncryptedSearchStore, IndexPipeline, SchemeConfig, StoreError, StoreHandle,
};
use sdds_corpus::DirectoryGenerator;

fn directory(n: usize) -> Vec<sdds_corpus::Record> {
    DirectoryGenerator::new(2024).generate(n)
}

/// Ground truth: rids whose RC contains the pattern.
fn truth(records: &[sdds_corpus::Record], pattern: &str) -> Vec<u64> {
    let mut v: Vec<u64> = records
        .iter()
        .filter(|r| r.rc.contains(pattern))
        .map(|r| r.rid)
        .collect();
    v.sort_unstable();
    v
}

fn assert_complete(client: &StoreHandle, records: &[sdds_corpus::Record], pattern: &str) {
    let hits = client.search(pattern).unwrap();
    for rid in truth(records, pattern) {
        assert!(
            hits.contains(&rid),
            "missed true occurrence of {pattern:?} in rid {rid}"
        );
    }
}

#[test]
fn basic_store_insert_search_get_delete() {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("test")
        .start();
    let client = store.handle();
    client.insert(7, "SCHWARZ THOMAS").unwrap();
    client.insert(8, "LITWIN WITOLD").unwrap();
    client.insert(9, "TSUI PETER").unwrap();

    assert_eq!(client.search("THOMAS").unwrap(), vec![7]);
    assert_eq!(client.search("WITOLD").unwrap(), vec![8]);
    assert!(client.search("NOBODY HERE").unwrap().is_empty());

    assert_eq!(client.get(7).unwrap(), Some("SCHWARZ THOMAS".into()));
    assert!(client.delete(7).unwrap());
    assert_eq!(client.get(7).unwrap(), None);
    assert!(
        client.search("THOMAS").unwrap().is_empty(),
        "index cleaned up"
    );
    store.shutdown();
}

#[test]
fn no_plaintext_leaks_into_cluster_traffic() {
    // Serialize a record through the pipeline and check that neither the
    // record store copy nor any index body contains the plaintext bytes.
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("secrecy")
        .start();
    let client = store.handle();
    let rc = "ABABABABABAB";
    client.insert(1, rc).unwrap();
    let pipeline = store.pipeline();
    let ct = pipeline.encrypt_record(1, rc);
    assert!(!contains(&ct, rc.as_bytes()));
    for rec in pipeline.index_records_for(0, rc) {
        assert!(
            !contains(&rec.body, rc.as_bytes()) && !contains(&rec.body, b"ABAB"),
            "index body leaks plaintext"
        );
    }
    store.shutdown();
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn phonebook_search_is_complete_basic_scheme() {
    let records = directory(300);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("pb")
        .bucket_capacity(32)
        .start();
    let client = store.handle();
    for r in &records {
        client.insert(r.rid, &r.rc).unwrap();
    }
    for pattern in ["MARTINEZ", "JOHNSON", "NGUYEN", "GARCIA"] {
        assert_complete(&client, &records, pattern);
    }
    store.shutdown();
}

#[test]
fn encoded_scheme_is_complete_and_lossy() {
    let records = directory(300);
    let mut cfg = SchemeConfig::basic(2, 2).unwrap();
    cfg.encoding = Some(EncodingConfig::whole_chunk(64));
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg)
        .passphrase("pb")
        .bucket_capacity(32)
        .train(records.iter().map(|r| r.rc.clone()))
        .start();
    let client = store.handle();
    for r in &records {
        client.insert(r.rid, &r.rc).unwrap();
    }
    // completeness must survive the lossy encoding
    for pattern in ["MARTINEZ", "WILLIAMS", "ANDERSON"] {
        assert_complete(&client, &records, pattern);
    }
    store.shutdown();
}

#[test]
fn dispersed_scheme_is_complete() {
    let records = directory(200);
    let mut cfg = SchemeConfig::basic(4, 2).unwrap(); // 32-bit chunks
    cfg.dispersion = Some(4); // 8-bit shares on 4 sites
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg)
        .passphrase("pb")
        .bucket_capacity(32)
        .start();
    let client = store.handle();
    for r in &records {
        client.insert(r.rid, &r.rc).unwrap();
    }
    for pattern in ["MARTINEZ", "JOHNSON"] {
        assert_complete(&client, &records, pattern);
    }
    store.shutdown();
}

#[test]
fn paper_recommended_configuration_end_to_end() {
    let records = directory(200);
    let store = EncryptedSearchStore::builder(SchemeConfig::paper_recommended())
        .passphrase("icde06")
        .bucket_capacity(32)
        .train(records.iter().map(|r| r.rc.clone()))
        .start();
    let client = store.handle();
    for r in &records {
        client.insert(r.rid, &r.rc).unwrap();
    }
    // paper scheme: chunk 6, two chunkings → min query length 6+3-1 = 8
    assert_complete(&client, &records, "MARTINEZ");
    // fetch_matching removes the designed false positives
    let fetched = client.fetch_matching("MARTINEZ").unwrap();
    let expect = truth(&records, "MARTINEZ");
    let got: Vec<u64> = fetched.iter().map(|(rid, _)| *rid).collect();
    assert_eq!(got, expect);
    for (_, rc) in fetched {
        assert!(rc.contains("MARTINEZ"));
    }
    store.shutdown();
}

#[test]
fn exhaustive_mode_reduces_candidates() {
    // §2.4's false-positive example, end to end: the AND rule rejects
    // candidates that a single index record would admit.
    let mut cfg = SchemeConfig::basic(4, 4).unwrap();
    cfg.search_mode = SearchMode::Exhaustive;
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg).passphrase("x").start();
    let client = store.handle();
    client.insert(1, "ABCDEFGHIJKLMNOPQRSTUVWXYZ").unwrap();
    // true substring (min length 2s-1 = 7)
    let out = client.search_detailed("BCDEFGHIJK").unwrap();
    assert_eq!(out.rids, vec![1]);
    // phantom string sharing one aligned series ("ACDEFGHI" from §2.4,
    // padded to meet the exhaustive minimum length)
    let out = client.search_detailed("ACDEFGHIJK").unwrap();
    assert!(out.rids.is_empty(), "AND rule must reject: {out:?}");
    store.shutdown();
}

#[test]
fn concurrent_handles_search_and_write_in_parallel() {
    let records = directory(200);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("mt")
        .bucket_capacity(64)
        .start();
    let client = store.handle();
    client
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .unwrap();
    std::thread::scope(|scope| {
        // four searcher threads, each with its own handle
        for pattern in ["MARTINEZ", "WILLIAMS", "NGUYEN", "ANDERSON"] {
            let handle = store.handle();
            let records = &records;
            scope.spawn(move || {
                for _ in 0..5 {
                    let hits = handle.search(pattern).unwrap();
                    for r in records.iter().filter(|r| r.rc.contains(pattern)) {
                        assert!(hits.contains(&r.rid), "missed {pattern}");
                    }
                }
            });
        }
        // one writer thread inserting fresh records concurrently
        let writer = store.handle();
        scope.spawn(move || {
            for i in 0..50u64 {
                writer.insert(9_000_000 + i, "CONCURRENT WRITER").unwrap();
            }
        });
    });
    // writes landed
    assert_eq!(
        client.get(9_000_000).unwrap(),
        Some("CONCURRENT WRITER".into())
    );
    store.shutdown();
}

/// Index records and index body bytes a pipeline makes of `records`.
struct Footprint {
    records: usize,
    bytes: usize,
}

fn index_footprint<'a>(
    pipeline: &IndexPipeline,
    records: impl Iterator<Item = (u64, &'a str)>,
) -> Footprint {
    let mut sum = Footprint {
        records: 0,
        bytes: 0,
    };
    for (rid, rc) in records {
        for rec in pipeline.index_records_for(rid, rc) {
            sum.records += 1;
            sum.bytes += rec.body.len();
        }
    }
    sum
}

#[test]
fn index_footprint_quantifies_the_ablation_axes() {
    let records = directory(100);
    let items = || records.iter().map(|r| (r.rid, r.rc.as_str()));
    // full scheme (4 chunkings) vs reduced (2): index bytes halve
    let full = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("x")
        .start();
    let reduced = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("x")
        .start();
    let rf = index_footprint(full.pipeline(), items());
    let rr = index_footprint(reduced.pipeline(), items());
    assert!(rf.records > rr.records);
    let ratio = rf.bytes as f64 / rr.bytes as f64;
    assert!(
        (1.8..2.2).contains(&ratio),
        "chunkings halved should ~halve bytes: {ratio}"
    );
    // Stage-2 compression shrinks the index below the plaintext
    let mut cfg = SchemeConfig::basic(4, 2).unwrap();
    cfg.encoding = Some(EncodingConfig::whole_chunk(256));
    let compressed = EncryptedSearchStore::builder(cfg.validated().unwrap())
        .passphrase("x")
        .train(records.iter().map(|r| r.rc.clone()))
        .start();
    let rc = index_footprint(compressed.pipeline(), items());
    assert!(
        rc.bytes < rr.bytes,
        "Stage 2 should shrink the index: {} !< {}",
        rc.bytes,
        rr.bytes
    );
    full.shutdown();
    reduced.shutdown();
    compressed.shutdown();
}

#[test]
fn positions_locate_the_occurrence() {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("pos")
        .start();
    let client = store.handle();
    client.insert(1, "XXXXSCHWARZXXXX").unwrap();
    client.insert(2, "SCHWARZ THOMAS").unwrap();
    let positions = client.search_detailed("SCHWARZ").unwrap().positions;
    assert!(
        positions[&1].contains(&4),
        "rid 1 positions: {:?}",
        positions[&1]
    );
    assert!(
        positions[&2].contains(&0),
        "rid 2 positions: {:?}",
        positions[&2]
    );
    store.shutdown();
}

#[test]
fn prefix_search_filters_by_offset_zero() {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("prefix")
        .start();
    let client = store.handle();
    client.insert(1, "SCHWARZ THOMAS").unwrap();
    client.insert(2, "VON SCHWARZ K").unwrap();
    client.insert(3, "SCHWARZENEGGER A").unwrap();
    let mut hits = client.search_starting_with("SCHWARZ").unwrap();
    hits.sort_unstable();
    assert_eq!(hits, vec![1, 3], "only records *starting* with the pattern");
    // the plain search still finds the interior occurrence
    assert_eq!(client.search("SCHWARZ").unwrap(), vec![1, 2, 3]);
    store.shutdown();
}

#[test]
fn short_query_rejected_with_proper_error() {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("x")
        .start();
    let client = store.handle();
    let err = client.search("ABC").unwrap_err();
    assert!(matches!(err, StoreError::Pipeline(_)), "{err:?}");
    store.shutdown();
}

#[test]
fn rid_capacity_is_enforced() {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("x")
        .start();
    let client = store.handle();
    let too_big = 1u64 << 62; // tag_bits for 5 variants = 3 → max rid 2^61
    assert!(matches!(
        client.insert(too_big, "X"),
        Err(StoreError::RidTooLarge(_))
    ));
    store.shutdown();
}

#[test]
fn store_scales_across_buckets_with_index_fan_out() {
    let records = directory(150);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("scale")
        .bucket_capacity(16)
        .start();
    let client = store.handle();
    for r in &records {
        client.insert(r.rid, &r.rc).unwrap();
    }
    // 150 records × (1 + 2 index) = 450 LH* records at capacity 16
    assert!(
        store.cluster().num_buckets() > 8,
        "expected many buckets, got {}",
        store.cluster().num_buckets()
    );
    // records still retrievable and searchable after all the splits
    assert_eq!(
        client.get(records[0].rid).unwrap(),
        Some(records[0].rc.clone())
    );
    assert_complete(&client, &records, "MARTINEZ");
    store.shutdown();
}

#[test]
fn partial_chunk_drop_policy_still_finds_interior_patterns() {
    let mut cfg = SchemeConfig::basic(4, 4).unwrap();
    cfg.partial_chunks = PartialChunkPolicy::Drop;
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg).passphrase("x").start();
    let client = store.handle();
    client.insert(1, "ABCDEFGHIJKLMNOPQRSTUVWX").unwrap();
    // interior pattern: found
    assert_eq!(client.search("EFGHIJKLMNOP").unwrap(), vec![1]);
    store.shutdown();
}
