//! Seeded atomics-rationale violation. The rule test replays this file as
//! `crates/net/src/fixture.rs`; never compiled.

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn bump(counter: &AtomicUsize) -> usize {
    counter.fetch_add(1, Ordering::Relaxed)
}
