//! Scaling series — the paper's §1 claim ("constant speed operations …,
//! independent of the number of nodes") and its search-cost story, over
//! files that double from 1,000 records.
//!
//! For each file size: LH\* bucket count, bulk-load time, key-lookup
//! latency, encrypted-search latency and traffic, and the naive
//! fetch-decrypt-scan client's traffic for the same query — the number
//! that blows up and motivates the whole paper. Timings, and the bucket
//! count (it depends on split timing), vary from run to run.

use crate::common::corpus;
use sdds_baseline::naive::NaiveStore;
use sdds_cipher::MasterKey;
use sdds_core::{EncryptedSearchStore, SchemeConfig};
use std::time::Instant;

/// One file size of the series.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Records in the file.
    pub records: usize,
    /// LH\* buckets after the bulk load.
    pub buckets: usize,
    /// Bulk-load time.
    pub load_ms: f64,
    /// Mean key-lookup latency.
    pub lookup_us: f64,
    /// Mean encrypted-search latency.
    pub search_ms: f64,
    /// Network bytes per encrypted search.
    pub search_bytes: u64,
    /// Network messages per encrypted search.
    pub search_msgs: u64,
    /// Network bytes of the naive client's search for the same pattern.
    pub naive_bytes: u64,
}

/// Runs the series over file sizes 1,000, 2,000, 4,000, … up to
/// `max_entries` records.
pub fn run(max_entries: usize, seed: u64) -> Vec<ScalingRow> {
    std::iter::successors(Some(1000usize), |n| Some(n * 2))
        .take_while(|&n| n <= max_entries)
        .map(|n| run_row(n, seed))
        .collect()
}

fn run_row(n: usize, seed: u64) -> ScalingRow {
    let records = corpus(n, seed);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 2).expect("valid scheme"))
        .passphrase("scaling")
        .bucket_capacity(64)
        .start();
    let client = store.handle();
    let t0 = Instant::now();
    client
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .expect("bulk load");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;

    // key lookups: the constant-cost claim
    let probes = 200;
    let t0 = Instant::now();
    for r in records.iter().step_by(records.len() / probes) {
        client.get(r.rid).expect("lookup").expect("record present");
    }
    let lookup_us = t0.elapsed().as_secs_f64() * 1e6 / probes as f64;

    // encrypted search
    store.cluster().network().stats().reset();
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        client.search("MARTINEZ").expect("search");
    }
    let search_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let stats = store.cluster().network().stats();
    let search_bytes = stats.bytes() / reps;
    let search_msgs = stats.messages() / reps;
    let buckets = store.cluster().num_buckets();
    store.shutdown();

    // naive client traffic for the same query
    let naive = NaiveStore::start(&MasterKey::new([1; 16]), 64);
    for r in &records {
        naive.insert(r.rid, &r.rc).expect("naive insert");
    }
    naive.cluster().network().stats().reset();
    naive.search("MARTINEZ").expect("naive search");
    let naive_bytes = naive.cluster().network().stats().bytes();
    naive.shutdown();

    ScalingRow {
        records: n,
        buckets,
        load_ms,
        lookup_us,
        search_ms,
        search_bytes,
        search_msgs,
        naive_bytes,
    }
}

/// Smallest and largest of a measured quantity across the rows.
fn range(rows: &[ScalingRow], value: impl Fn(&ScalingRow) -> f64) -> (f64, f64) {
    rows.iter()
        .map(value)
        .fold((f64::INFINITY, 0.0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// Renders the series and a reading whose numbers come from its rows
/// (`results/scaling.txt`).
pub fn render(rows: &[ScalingRow]) -> String {
    let mut out = format!(
        "{:>8} {:>8} {:>9} {:>10} {:>10} {:>12} {:>11} {:>12}\n",
        "records",
        "buckets",
        "load ms",
        "lookup µs",
        "search ms",
        "search B",
        "search msg",
        "naive B"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>9.1} {:>10.1} {:>10.2} {:>12} {:>11} {:>12}\n",
            r.records,
            r.buckets,
            r.load_ms,
            r.lookup_us,
            r.search_ms,
            r.search_bytes,
            r.search_msgs,
            r.naive_bytes
        ));
    }
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return out;
    };
    let lookup = range(rows, |r| r.lookup_us);
    let msgs_per_bucket = range(rows, |r| r.search_msgs as f64 / r.buckets as f64);
    let naive_over_search = range(rows, |r| r.naive_bytes as f64 / r.search_bytes as f64);
    out.push_str(&format!(
        "\nReading: key lookups take {:.1}–{:.1} µs while the file grows {}x \
         (constant-hop addressing; the spread is run-to-run noise). Search \
         scatters to every site, so its messages track the bucket count \
         ({:.1}–{:.1} per bucket) — but the naive client additionally hauls \
         every record's ciphertext back ({:.1}x–{:.1}x the bytes of the \
         encrypted search here) and decrypts the whole file per query.\n",
        lookup.0,
        lookup.1,
        last.records / first.records,
        msgs_per_bucket.0,
        msgs_per_bucket.1,
        naive_over_search.0,
        naive_over_search.1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        records: usize,
        buckets: usize,
        lookup_us: f64,
        search: (u64, u64),
        naive_bytes: u64,
    ) -> ScalingRow {
        ScalingRow {
            records,
            buckets,
            load_ms: 1.0,
            lookup_us,
            search_ms: 1.0,
            search_bytes: search.0,
            search_msgs: search.1,
            naive_bytes,
        }
    }

    #[test]
    fn reading_quotes_the_ranges_of_its_rows() {
        let rows = [
            row(1000, 24, 6.5, (3_622, 50), 32_344),
            row(8000, 377, 7.1, (53_161, 756), 258_544),
        ];
        let text = render(&rows);
        assert!(text.contains("6.5–7.1 µs"), "{text}");
        assert!(text.contains("grows 8x"), "{text}");
        assert!(text.contains("(2.0–2.1 per bucket)"), "{text}");
        assert!(text.contains("(4.9x–8.9x the bytes"), "{text}");
    }

    #[test]
    fn naive_search_moves_more_bytes_than_the_encrypted_one() {
        let rows = run(2_000, 5);
        let sizes: Vec<usize> = rows.iter().map(|r| r.records).collect();
        assert_eq!(sizes, [1000, 2000]);
        for r in &rows {
            assert!(r.buckets > 1, "{r:?}");
            assert!(r.naive_bytes > r.search_bytes, "{r:?}");
        }
    }
}
