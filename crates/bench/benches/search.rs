//! Search-path benchmarks: the posting-indexed scan vs the linear sweep
//! on identically loaded stores, the prepared-query protocol vs
//! per-record query decoding, and delete batching vs sequential deletes.
//! The benchmark's `search` workload (`benchmark/`) has the matching
//! end-to-end numbers; this harness isolates the pieces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdds_core::{EncryptedIndexFilter, EncryptedSearchStore, SchemeConfig};
use sdds_corpus::DirectoryGenerator;
use sdds_lh::ScanFilter;
use std::hint::black_box;

fn loaded_store(n: usize, indexed: bool) -> EncryptedSearchStore {
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("bench")
        .bucket_capacity(512)
        .scan_index(indexed)
        .start();
    let records = DirectoryGenerator::new(20060403).generate(n);
    store
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .unwrap();
    store
}

/// The tentpole comparison: same corpus, same queries, index on vs off.
fn bench_indexed_vs_linear(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_path");
    g.sample_size(10);
    for n in [1000usize, 4000] {
        for (name, indexed) in [("linear", false), ("indexed", true)] {
            let store = loaded_store(n, indexed);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(store.search("MARTINEZ").unwrap()));
            });
            store.shutdown();
        }
    }
    g.finish();
}

/// Decode-once (prepare) vs decode-per-record (the pre-protocol cost) on
/// a realistic query, evaluated over many record bodies.
fn bench_prepared_query(c: &mut Criterion) {
    let store = loaded_store(500, true);
    let query = store.pipeline().build_query("MARTINEZ").unwrap();
    let wire = query.encode();
    let records = DirectoryGenerator::new(20060403).generate(500);
    // realistic bodies: the first index record of each directory entry
    let mut bodies: Vec<(u64, Vec<u8>)> = Vec::with_capacity(records.len());
    for r in &records {
        if let Some(ir) = store
            .pipeline()
            .index_records_for(r.rid, &r.rc)
            .into_iter()
            .next()
        {
            let tag = store.pipeline().tag(ir.chunking, ir.site);
            bodies.push((store.pipeline().lh_key(r.rid, tag), ir.body));
        }
    }
    let filter = EncryptedIndexFilter::new(
        store.pipeline().config().element_bytes(),
        store.pipeline().config().tag_bits(),
    );
    let mut g = c.benchmark_group("query_protocol");
    g.bench_function("decode_per_record", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (k, body) in &bodies {
                if filter.prepare(&wire).matches(*k, body) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    g.bench_function("prepare_once", |b| {
        b.iter(|| {
            let prepared = filter.prepare(&wire);
            let mut hits = 0usize;
            for (k, body) in &bodies {
                if prepared.matches(*k, body) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    g.finish();
    store.shutdown();
}

/// Sequential per-key deletes vs the pipelined batch path, on a file
/// wide enough that the batch fans out over many buckets. Each
/// iteration re-inserts then deletes the same records; the insert cost
/// is identical in both variants, so the measured difference is the
/// delete round-trip batching.
fn bench_delete_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("delete_path");
    g.sample_size(10);
    let records = DirectoryGenerator::new(20060403).generate(256);
    let reload = |store: &EncryptedSearchStore| {
        store
            .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
            .unwrap();
    };
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("bench")
        .bucket_capacity(64)
        .scan_index(true)
        .start();
    reload(&store);
    g.bench_function("delete_sequential", |b| {
        b.iter(|| {
            reload(&store);
            for r in &records {
                black_box(store.delete(r.rid).unwrap());
            }
        });
    });
    g.bench_function("delete_many_batched", |b| {
        b.iter(|| {
            reload(&store);
            black_box(store.delete_many(records.iter().map(|r| r.rid)).unwrap());
        });
    });
    g.finish();
    store.shutdown();
}

criterion_group!(
    benches,
    bench_indexed_vs_linear,
    bench_prepared_query,
    bench_delete_batching
);
criterion_main!(benches);
