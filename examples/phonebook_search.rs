//! The paper's motivating workload: an SF-style phone directory stored
//! under the conclusion's recommended configuration (6-symbol chunks, two
//! chunkings, Stage-2 compression, dispersion over three sites), with
//! false-positive accounting against ground truth.
//!
//! ```sh
//! cargo run --release --example phonebook_search
//! ```

use sdds_repro::core::{EncryptedSearchStore, SchemeConfig};
use sdds_repro::corpus::DirectoryGenerator;

fn main() {
    let n = 2_000;
    let records = DirectoryGenerator::new(42).generate(n);
    println!("generated {n} directory records, e.g.:");
    for r in records.iter().take(3) {
        println!("  {} {}", r.phone_display(), r.rc);
    }

    let config = SchemeConfig::paper_recommended();
    println!("\nconfiguration: {config:?}");
    println!(
        "index records per record: {} ({} chunkings x {} dispersion sites)",
        config.index_records_per_record(),
        config.chunking.num_chunkings(),
        config.k()
    );

    let store = EncryptedSearchStore::builder(config)
        .passphrase("icde-2006")
        .bucket_capacity(128)
        // Stage 2 needs a representative sample to equalise frequencies on
        .train(records.iter().take(500).map(|r| r.rc.clone()))
        .start();
    let client = store.handle();

    let t0 = std::time::Instant::now();
    for r in &records {
        client.insert(r.rid, &r.rc).expect("insert");
    }
    println!(
        "\nloaded {n} records into {} LH* buckets in {:?}",
        store.cluster().num_buckets(),
        t0.elapsed()
    );

    println!(
        "\n{:<12} {:>6} {:>9} {:>7} {:>9}",
        "query", "true", "reported", "FPs", "missed"
    );
    // the recommended scheme needs patterns of at least s + t - 1 = 8
    // symbols (chunk size 6, offset step 3)
    for pattern in [
        "MARTINEZ",
        "ANDERSON",
        "WILLIAMS",
        "GONZALEZ",
        "RODRIGUEZ",
        "THOMPSON",
    ] {
        let truth: Vec<u64> = records
            .iter()
            .filter(|r| r.rc.contains(pattern))
            .map(|r| r.rid)
            .collect();
        let stats = store.cluster().network().stats();
        stats.reset();
        let hits = client.search(pattern).expect("search");
        let fps = hits.iter().filter(|rid| !truth.contains(rid)).count();
        let missed = truth.iter().filter(|rid| !hits.contains(rid)).count();
        println!(
            "{:<12} {:>6} {:>9} {:>7} {:>9}   ({} msgs, {} bytes)",
            pattern,
            truth.len(),
            hits.len(),
            fps,
            missed,
            stats.messages(),
            stats.bytes()
        );
        assert_eq!(missed, 0, "the scheme guarantees completeness");
    }

    println!("\nclient-side post-filtering (fetch_matching) gives exact answers:");
    let exact = client.fetch_matching("MARTINEZ").expect("fetch");
    println!("  MARTINEZ -> {} exact records", exact.len());

    store.shutdown();
}
