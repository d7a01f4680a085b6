//! Quickstart: store encrypted records, search them by content, fetch and
//! decrypt — in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sdds_repro::core::{EncryptedSearchStore, SchemeConfig};

fn main() {
    // Stage-1-only scheme: chunks of 4 symbols, all 4 chunkings, no
    // compression, no dispersion. Searchable for patterns of >= 4 symbols.
    let config = SchemeConfig::basic(4, 4).expect("valid parameters");
    println!("scheme: {config:?}\n");

    // The store spawns a real (simulated) multicomputer: an LH* coordinator
    // plus bucket sites, each on its own thread.
    let store = EncryptedSearchStore::builder(config)
        .passphrase("correct horse battery staple")
        .start();
    let client = store.handle();

    // Insert phone-directory style records: RID = number, RC = name.
    let entries = [
        (4154090271u64, "ADRIAN CORTEZ"),
        (4154090817, "AFDAHL E"),
        (4154090019, "AKIMOTO YOSHIMI"),
        (4154090723, "ALGHAZALY EBREHIM"),
        (4154090247, "ARBELAEZ LIBIA MARIA"),
        (4154090910, "ARMENANTE MARK A"),
        (4154091234, "SCHWARZ THOMAS"),
        (4154095678, "LITWIN WITOLD"),
    ];
    for (rid, name) in entries {
        client.insert(rid, name).expect("insert");
    }
    println!("inserted {} records", entries.len());

    // Content search runs in parallel at all storage sites — on ciphertext.
    for pattern in ["THOMAS", "MARIA", "AKIMOTO"] {
        let rids = client.search(pattern).expect("search");
        println!("search {pattern:?} -> {rids:?}");
    }

    // Key lookup + decryption of the strongly encrypted record copy.
    let rc = client.get(4154091234).expect("get").expect("present");
    println!("get 4154091234 -> {rc:?}");

    // fetch_matching post-filters the scheme's designed false positives.
    let matches = client.fetch_matching("WITOLD").expect("fetch");
    println!("fetch_matching \"WITOLD\" -> {matches:?}");

    // What did all of that cost on the (simulated) network?
    let stats = store.cluster().network().stats();
    println!(
        "\nnetwork: {} messages, {} bytes",
        stats.messages(),
        stats.bytes()
    );
    store.shutdown();
}
