//! Batched ingest benchmarks: the allocation-lean scratch path vs the
//! allocating one, and the parallel transform at several pool widths.
//! The benchmark's `ingest` workload (`benchmark/`) has the matching
//! end-to-end numbers; this harness isolates the transform.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_core::{IndexPipeline, IngestScratch, SchemeConfig};
use sdds_corpus::DirectoryGenerator;
use sdds_par::Pool;
use std::hint::black_box;

fn keys() -> KeyMaterial {
    KeyMaterial::new(MasterKey::new([5; 16]))
}

fn sample(n: usize) -> Vec<(u64, String)> {
    DirectoryGenerator::new(20060403)
        .generate(n)
        .into_iter()
        .map(|r| (r.rid, r.rc))
        .collect()
}

/// Allocating (`index_records_for`) vs scratch-buffer
/// (`index_records_into`) transform over the same corpus.
fn bench_scratch_reuse(c: &mut Criterion) {
    let records = sample(200);
    let total_bytes: u64 = records.iter().map(|(_, rc)| rc.len() as u64).sum();
    let pipeline = IndexPipeline::new(SchemeConfig::paper_recommended(), keys(), None).unwrap();
    let mut g = c.benchmark_group("ingest_transform");
    g.throughput(Throughput::Bytes(total_bytes));
    g.bench_function("allocating", |b| {
        b.iter(|| {
            for (rid, rc) in &records {
                black_box(pipeline.index_records_for(*rid, black_box(rc)));
            }
        });
    });
    g.bench_function("scratch", |b| {
        let mut scratch = IngestScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            for (rid, rc) in &records {
                pipeline.index_records_into(*rid, black_box(rc), &mut scratch, &mut out);
                black_box(&out);
            }
        });
    });
    g.finish();
}

/// The parallel batch transform at several pool widths (on a single-core
/// host the >1 widths measure pure coordination overhead).
fn bench_parallel_batch(c: &mut Criterion) {
    let records = sample(400);
    let pairs: Vec<(u64, &str)> = records
        .iter()
        .map(|(rid, rc)| (*rid, rc.as_str()))
        .collect();
    let total_bytes: u64 = records.iter().map(|(_, rc)| rc.len() as u64).sum();
    let pipeline = IndexPipeline::new(SchemeConfig::paper_recommended(), keys(), None).unwrap();
    let mut g = c.benchmark_group("ingest_batch");
    g.throughput(Throughput::Bytes(total_bytes));
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        g.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| black_box(pipeline.index_records_batch(black_box(&pairs), pool)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scratch_reuse, bench_parallel_batch);
criterion_main!(benches);
