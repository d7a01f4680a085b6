//! Workspace-spanning integration tests: corpus → scheme → LH\* cluster →
//! search → statistics, all through the public `sdds_repro` facade.

use sdds_repro::baseline::{naive::NaiveStore, swp::SwpStore};
use sdds_repro::cipher::MasterKey;
use sdds_repro::core::{EncodingConfig, EncryptedSearchStore, SchemeConfig};
use sdds_repro::corpus::{format_directory, parse_directory, DirectoryGenerator};
use sdds_repro::lh::ParityConfig;
use sdds_repro::stats::chi2::Chi2Report;

#[test]
fn directory_file_roundtrip_feeds_the_store() {
    // corpus → Figure-4 file → parse → encrypted store → search
    let records = DirectoryGenerator::new(5).generate(150);
    let file = format_directory(&records);
    let parsed = parse_directory(&file).unwrap();
    assert_eq!(parsed, records);

    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("roundtrip")
        .start();
    let handle = store.handle();
    for r in &parsed {
        handle.insert(r.rid, &r.rc).unwrap();
    }
    let hits = handle.search("MARTINEZ").unwrap();
    for r in records.iter().filter(|r| r.rc.contains("MARTINEZ")) {
        assert!(hits.contains(&r.rid));
    }
    store.shutdown();
}

#[test]
fn malformed_query_in_a_well_formed_scan_matches_nothing() {
    // The ScanReq itself is well formed; what it carries is not an
    // `EncryptedQuery`. Every bucket must still answer, with no matches,
    // so the scan completes instead of timing out or killing a site.
    let records = DirectoryGenerator::new(8).generate(200);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("malformed")
        .bucket_capacity(16)
        .start();
    let handle = store.handle();
    for r in &records {
        handle.insert(r.rid, &r.rc).unwrap();
    }
    assert!(store.cluster().num_buckets() > 4, "scan must fan out");
    let client = store.cluster().client();
    let good = store.pipeline().build_query("MARTINEZ").unwrap().encode();
    assert!(!client.scan(&good, true).unwrap().is_empty());

    let truncated = &good[..good.len() - 1];
    let mut trailing = good.clone();
    trailing.push(0);
    let old_json = br#"{"tag_bits":3,"element_bytes":16,"kind":"Equality","per_tag":[]}"#;
    for bad in [truncated, &trailing, &old_json[..], b"", &[0xFF; 64]] {
        assert_eq!(client.scan(bad, true).unwrap(), vec![], "{bad:?}");
    }
    // the sites are all still there
    assert!(!client.scan(&good, false).unwrap().is_empty());
    store.shutdown();
}

#[test]
fn all_three_systems_agree_on_word_searches() {
    // For whole-word queries, the encrypted scheme (post-filtered), the
    // SWP baseline, and the naive baseline must agree exactly.
    let records = DirectoryGenerator::new(6).generate(200);
    let master = MasterKey::new([11; 16]);

    let scheme = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("agree")
        .start();
    let scheme_client = scheme.handle();
    let swp = SwpStore::start(&master, 64);
    let naive = NaiveStore::start(&master, 64);
    for r in &records {
        scheme_client.insert(r.rid, &r.rc).unwrap();
        swp.insert(r.rid, &r.rc).unwrap();
        naive.insert(r.rid, &r.rc).unwrap();
    }
    for word in ["MARTINEZ", "NGUYEN", "WILLIAMS"] {
        // SWP finds whole words only; compare against word-boundary truth
        let mut swp_hits = swp.search_word(word).unwrap();
        swp_hits.sort_unstable();
        let mut word_truth: Vec<u64> = records
            .iter()
            .filter(|r| r.rc.split_whitespace().any(|w| w == word))
            .map(|r| r.rid)
            .collect();
        word_truth.sort_unstable();
        assert_eq!(swp_hits, word_truth, "SWP for {word}");

        // substring truth (≥ word truth)
        let mut substr_truth: Vec<u64> = records
            .iter()
            .filter(|r| r.rc.contains(word))
            .map(|r| r.rid)
            .collect();
        substr_truth.sort_unstable();
        let naive_hits = naive.search(word).unwrap();
        assert_eq!(naive_hits, substr_truth, "naive for {word}");
        let mut exact: Vec<u64> = scheme_client
            .fetch_matching(word)
            .unwrap()
            .into_iter()
            .map(|(rid, _)| rid)
            .collect();
        exact.sort_unstable();
        assert_eq!(exact, substr_truth, "scheme (post-filtered) for {word}");
    }
    scheme.shutdown();
    swp.shutdown();
    naive.shutdown();
}

#[test]
fn substring_queries_beat_word_granularity() {
    // the paper's headline difference: pattern inside a word
    let records = DirectoryGenerator::new(8).generate(100);
    let master = MasterKey::new([12; 16]);
    let scheme = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("frag")
        .start();
    let scheme_client = scheme.handle();
    let swp = SwpStore::start(&master, 64);
    for r in &records {
        scheme_client.insert(r.rid, &r.rc).unwrap();
        swp.insert(r.rid, &r.rc).unwrap();
    }
    // "ARTINE" occurs inside MARTINEZ
    let truth: Vec<u64> = records
        .iter()
        .filter(|r| r.rc.contains("ARTINE"))
        .map(|r| r.rid)
        .collect();
    if !truth.is_empty() {
        let scheme_hits = scheme_client.search("ARTINE").unwrap();
        for rid in &truth {
            assert!(
                scheme_hits.contains(rid),
                "scheme must find in-word fragments"
            );
        }
        assert!(
            swp.search_word("ARTINE").unwrap().is_empty(),
            "SWP cannot find in-word fragments"
        );
    }
    scheme.shutdown();
    swp.shutdown();
}

#[test]
fn encrypted_store_survives_bucket_loss_with_parity() {
    let records = DirectoryGenerator::new(9).generate(120);
    let mut cfg = SchemeConfig::basic(4, 2).unwrap();
    cfg.encoding = Some(EncodingConfig::whole_chunk(256));
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg)
        .passphrase("ha")
        .bucket_capacity(16)
        .parity(ParityConfig {
            group_size: 2,
            parity_count: 1,
            slot_size: 128,
        })
        .train(records.iter().map(|r| r.rc.clone()))
        .start();
    let handle = store.handle();
    for r in &records {
        handle.insert(r.rid, &r.rc).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(300)); // drain parity
    store.cluster().kill_bucket(1);
    store.cluster().recover_bucket(1).unwrap();
    // all record copies and index records intact: search + get still work
    for r in records.iter().take(30) {
        assert_eq!(
            handle.get(r.rid).unwrap(),
            Some(r.rc.clone()),
            "rid {}",
            r.rid
        );
    }
    let hits = handle.search("MARTINEZ").unwrap();
    for r in records.iter().filter(|r| r.rc.contains("MARTINEZ")) {
        assert!(hits.contains(&r.rid));
    }
    store.shutdown();
}

#[test]
fn our_aes_ctr_keystream_passes_our_randomness_battery() {
    // Two substrates validating each other: the AES implementation's CTR
    // keystream must look random to the SP 800-22 battery, while the
    // plaintext it came from must not.
    use sdds_repro::cipher::{modes, Aes128};
    use sdds_repro::stats::RandomnessReport;
    let aes = Aes128::new(&[0x5A; 16]);
    let mut stream = vec![0u8; 16384];
    modes::ctr_xor(&aes, &[1; 16], &mut stream);
    let report = RandomnessReport::run(&stream);
    assert_eq!(
        report.passed(0.001),
        report.tests.len(),
        "AES-CTR keystream failed the battery: {report:?}"
    );
    let zeros = RandomnessReport::run(&vec![0u8; 16384]);
    assert!(zeros.passed(0.001) < zeros.tests.len() / 2);
}

/// Soak test: a paper-scale slice of the directory through the full
/// distributed store. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "multi-second soak; run explicitly with --ignored"]
fn soak_twenty_thousand_records() {
    let records = DirectoryGenerator::new(20_000).generate(20_000);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).unwrap())
        .passphrase("soak")
        .bucket_capacity(256)
        .start();
    let handle = store.handle();
    let t0 = std::time::Instant::now();
    handle
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .unwrap();
    let load = t0.elapsed();
    let t0 = std::time::Instant::now();
    for pattern in ["MARTINEZ", "WILLIAMS", "NGUYEN", "GONZALEZ"] {
        let truth: Vec<u64> = records
            .iter()
            .filter(|r| r.rc.contains(pattern))
            .map(|r| r.rid)
            .collect();
        let hits = handle.search(pattern).unwrap();
        for rid in &truth {
            assert!(hits.contains(rid), "missed {pattern} in {rid}");
        }
    }
    let search = t0.elapsed();
    eprintln!(
        "[soak] 20k records: load {load:?}, 4 searches {search:?}, {} buckets, {} msgs",
        store.cluster().num_buckets(),
        store.cluster().network().stats().messages()
    );
    // spot-check retrieval
    for r in records.iter().step_by(997) {
        assert_eq!(handle.get(r.rid).unwrap(), Some(r.rc.clone()));
    }
    store.shutdown();
}

#[test]
fn index_bodies_flatten_statistics_versus_plaintext() {
    // cross-crate: corpus + core + stats — what a site stores is far
    // closer to uniform than the plaintext it encodes
    let records = DirectoryGenerator::new(10).generate(500);
    let mut cfg = SchemeConfig::basic(4, 2).unwrap();
    cfg.encoding = Some(EncodingConfig::whole_chunk(256));
    cfg.dispersion = Some(4); // 2-bit shares... 8/4: code 8 bits / 4 = 2
    let cfg = cfg.validated().unwrap();
    let store = EncryptedSearchStore::builder(cfg)
        .passphrase("stats")
        .train(records.iter().map(|r| r.rc.clone()))
        .start();
    let pipeline = store.pipeline();

    let plain_streams: Vec<Vec<u16>> = records.iter().map(|r| r.symbols()).collect();
    let plain = Chi2Report::from_records(plain_streams.iter().map(|v| v.as_slice()), 256);

    // what dispersion site 0 of chunking 0 stores (2-bit shares in bytes)
    let site_streams: Vec<Vec<u16>> = records
        .iter()
        .map(|r| {
            pipeline.index_records_for(0, &r.rc)[0]
                .body
                .iter()
                .map(|&b| u16::from(b))
                .collect()
        })
        .collect();
    let site = Chi2Report::from_records(site_streams.iter().map(|v| v.as_slice()), 4);
    // normalise by observation count before comparing
    let plain_rate = plain.single / plain.observations as f64;
    let site_rate = site.single / site.observations as f64;
    assert!(
        site_rate < plain_rate / 5.0,
        "site view should be far flatter: {site_rate} vs {plain_rate}"
    );
    store.shutdown();
}
