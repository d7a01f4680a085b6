//! Latency model for simulated-time accounting.
//!
//! Benchmarks on one machine cannot measure real network latency, but the
//! paper's performance claims are about message *counts* (constant-hop
//! addressing, parallel one-round searches). The model converts measured
//! traffic into simulated time so benches can report network cost without
//! sleeping.

use crate::stats::NetStats;
use std::time::Duration;

/// A linear latency model: each message costs `per_message`, each payload
/// byte adds `per_byte`.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed cost per message (propagation + handling).
    pub per_message: Duration,
    /// Marginal cost per payload byte (bandwidth term).
    pub per_byte: Duration,
}

impl Default for LatencyModel {
    /// Defaults resembling a 2000s-era LAN as assumed by the SDDS papers:
    /// ~100 µs per message, 10 ns per byte (≈ 100 MB/s).
    fn default() -> LatencyModel {
        LatencyModel {
            per_message: Duration::from_micros(100),
            per_byte: Duration::from_nanos(10),
        }
    }
}

impl LatencyModel {
    /// An idealised zero-cost network (pure logic tests).
    pub fn zero() -> LatencyModel {
        LatencyModel {
            per_message: Duration::ZERO,
            per_byte: Duration::ZERO,
        }
    }

    /// Simulated time for a single message of `len` payload bytes.
    pub fn message_time(&self, len: usize) -> Duration {
        self.per_message + self.per_byte * (len as u32)
    }

    /// Total serialized network time for all traffic recorded in `stats`.
    /// (An upper bound: real traffic overlaps across links.)
    pub fn total_time(&self, stats: &NetStats) -> Duration {
        self.per_message * (stats.messages() as u32) + self.per_byte * (stats.bytes() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_linear() {
        let m = LatencyModel {
            per_message: Duration::from_micros(100),
            per_byte: Duration::from_nanos(10),
        };
        assert_eq!(m.message_time(0), Duration::from_micros(100));
        assert_eq!(
            m.message_time(1000),
            Duration::from_micros(100) + Duration::from_micros(10)
        );
    }

    #[test]
    fn zero_model_is_free() {
        let stats = NetStats::new();
        stats.record(1_000_000);
        assert_eq!(LatencyModel::zero().total_time(&stats), Duration::ZERO);
    }

    #[test]
    fn total_time_accumulates() {
        let stats = NetStats::new();
        stats.record(100);
        stats.record(100);
        let m = LatencyModel::default();
        assert_eq!(m.total_time(&stats), m.per_message * 2 + m.per_byte * 200);
    }
}
