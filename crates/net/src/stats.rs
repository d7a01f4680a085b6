//! Traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Message and byte counters. Thread-safe; counters use relaxed atomics
/// (totals only, no inter-counter invariants).
#[derive(Debug, Default)]
pub struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    dropped: AtomicU64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    pub(crate) fn record(&self, len: usize) {
        // ordering: Relaxed — monotonic totals with no inter-counter
        // invariant; a receiver that must observe the count after a
        // delivery synchronizes on the channel enqueue, not on these adds
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed); // ordering: see above
    }

    /// Rolls back a [`record`](Self::record) for a send that failed after
    /// being provisionally counted (the counters must not include messages
    /// that were never enqueued).
    pub(crate) fn unrecord(&self, len: usize) {
        // ordering: Relaxed — rollback of the provisional adds in record();
        // same no-inter-counter-invariant argument
        self.messages.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(len as u64, Ordering::Relaxed); // ordering: see above
    }

    pub(crate) fn record_dropped(&self) {
        // ordering: Relaxed — independent monotonic counter, read only by
        // snapshots
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Total messages delivered.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed) // ordering: snapshot read, staleness fine
    }

    /// Messages lost to fault injection.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // ordering: snapshot read, staleness fine
    }

    /// Total payload bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed) // ordering: snapshot read, staleness fine
    }

    /// Resets all counters — lets benches measure per-phase traffic.
    pub fn reset(&self) {
        // ordering: Relaxed — benches call this between phases with no
        // concurrent traffic; racing writers would only skew statistics
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed); // ordering: see above
        self.dropped.store(0, Ordering::Relaxed); // ordering: see above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let stats = NetStats::new();
        stats.record(10);
        stats.record(5);
        stats.record(1);
        assert_eq!(stats.messages(), 3);
        assert_eq!(stats.bytes(), 16);
    }

    #[test]
    fn unrecord_rolls_one_record_back() {
        let stats = NetStats::new();
        stats.record(10);
        stats.record(5);
        stats.unrecord(5);
        assert_eq!(stats.messages(), 1);
        assert_eq!(stats.bytes(), 10);
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = NetStats::new();
        stats.record(100);
        stats.record_dropped();
        stats.reset();
        assert_eq!(stats.messages(), 0);
        assert_eq!(stats.bytes(), 0);
        assert_eq!(stats.dropped(), 0);
    }
}
