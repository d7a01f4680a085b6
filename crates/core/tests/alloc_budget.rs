//! The transform's allocation budget: once its buffers have grown,
//! `index_records_into` allocates the `c·k` index bodies it hands out —
//! nothing per chunk, and no symbol stream per record.
//!
//! The test counts every allocation of the process with a counting global
//! allocator, so it stays the only test of its binary: a second test
//! running beside it would add its own allocations to the count.

use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_core::{IndexPipeline, IngestScratch, SchemeConfig};
use sdds_corpus::DirectoryGenerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations made through [`Counting`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] with a count of every `alloc` and `realloc`.
struct Counting;

// SAFETY: each method forwards its arguments unchanged to `System`, so the
// caller's obligations under `GlobalAlloc` are passed on whole and
// `System`'s guarantees are returned whole; counting touches no memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: a plain event count, read after the measured loop on
        // the same thread; it orders no other memory.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, valid for `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract: `ptr`
    // came from this allocator, which is `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, as `System` gave them.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for
    // `ptr`, `layout` and `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: as in `alloc`, a plain event count.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the arguments are the caller's, valid for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    // ordering: read on the thread that made the counted allocations.
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn the_paper_transform_allocates_only_its_bodies() {
    const RECORDS: usize = 1_000;
    let config = SchemeConfig::paper_recommended();
    let corpus = DirectoryGenerator::new(46).generate(RECORDS);
    let book = IndexPipeline::train_codebook(&config, corpus.iter().map(|r| r.rc.as_str()));
    let keys = KeyMaterial::new(MasterKey::from_passphrase("allocation budget"));
    let pipeline = IndexPipeline::new(config, keys, Some(book)).unwrap();
    let mut scratch = IngestScratch::default();
    let mut out = Vec::new();
    // warm-up: the scratch buffers, the output vector and the metric
    // handles the transform looks up reach their steady state
    for r in &corpus {
        pipeline.index_records_into(r.rid, &r.rc, &mut scratch, &mut out);
    }

    let before = allocations();
    for r in &corpus {
        pipeline.index_records_into(r.rid, &r.rc, &mut scratch, &mut out);
    }
    let per_record = (allocations() - before) as f64 / RECORDS as f64;

    // c·k = 2·3 bodies
    let budget = config.index_records_per_record() as f64;
    assert!(
        per_record <= budget,
        "{per_record} allocations per record, budget {budget}"
    );
}
