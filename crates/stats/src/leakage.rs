//! Empirical leakage auditor for stored encrypted index records.
//!
//! The paper's security argument (§6–§7) is statistical: after dispersion,
//! chunking and preprocessing, the stored index elements should be
//! indistinguishable from uniform random symbols, so an adversary holding a
//! server's bucket contents learns nothing about record content. This
//! module audits that claim *empirically against the bytes a server
//! actually stores*, per bucket — the adversary's real vantage point —
//! rather than against the pipeline's intermediate streams.
//!
//! [`LeakageAuditor`] streams encoded record bodies bucket by bucket,
//! splitting each into fixed-width elements (the scheme's symbol width,
//! `element_bytes`), and accumulates a sparse per-bucket histogram. The
//! [`report`](LeakageAuditor::report) computes, for each bucket and for the
//! pooled whole:
//!
//! * χ² against uniform over the full `256^element_bytes` alphabet
//!   ([`chi2_uniform_from_counts`]), plus χ²/df, which hovers near 1.0 for
//!   uniform data regardless of alphabet size;
//! * the upper-tail p-value ([`chi2_pvalue`]) — small values flag
//!   non-uniformity;
//! * the top-m frequency ratio: the fraction of all observations taken by
//!   the `m` most common element values. Uniform data gives ≈ `m/k` (or
//!   `m/distinct` when the sample is much smaller than the alphabet); a
//!   skewed ratio is the footprint frequency-analysis attacks exploit.

use crate::chi2::{chi2_pvalue, chi2_uniform_from_counts};
use std::collections::{BTreeMap, HashMap};

/// Streams stored record bodies and accumulates per-bucket element
/// histograms for uniformity auditing.
#[derive(Debug, Clone)]
pub struct LeakageAuditor {
    element_bytes: usize,
    alphabet: u64,
    buckets: BTreeMap<u64, Histogram>,
}

#[derive(Debug, Clone, Default)]
struct Histogram {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl Histogram {
    fn observe(&mut self, element: u64) {
        *self.counts.entry(element).or_insert(0) += 1;
        self.total += 1;
    }

    fn merge_into(&self, pooled: &mut Histogram) {
        for (&element, &count) in &self.counts {
            *pooled.counts.entry(element).or_insert(0) += count;
        }
        pooled.total += self.total;
    }

    fn summarize(&self, alphabet: u64, top_m: usize) -> LeakageSummary {
        let chi_square =
            chi2_uniform_from_counts(self.counts.values().copied(), self.total, alphabet);
        let df = alphabet.saturating_sub(1).max(1) as f64;
        // Top-m frequency ratio: sort counts descending and take the head.
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts.iter().take(top_m).sum();
        LeakageSummary {
            elements: self.total,
            distinct: self.counts.len() as u64,
            chi_square,
            chi_square_per_df: chi_square / df,
            p_value: if self.total == 0 {
                1.0
            } else {
                chi2_pvalue(chi_square, df)
            },
            top_ratio: if self.total == 0 {
                0.0
            } else {
                top as f64 / self.total as f64
            },
        }
    }
}

/// Uniformity statistics for one element stream (a bucket, or the pool).
#[derive(Debug, Clone)]
pub struct LeakageSummary {
    /// Elements observed.
    pub elements: u64,
    /// Distinct element values observed.
    pub distinct: u64,
    /// χ² against uniform over the full alphabet.
    pub chi_square: f64,
    /// χ² divided by its degrees of freedom (`alphabet - 1`); ≈ 1.0 when
    /// the stream is uniform.
    pub chi_square_per_df: f64,
    /// Upper-tail p-value of the χ² statistic.
    pub p_value: f64,
    /// Fraction of observations taken by the `top_m` most common values.
    pub top_ratio: f64,
}

/// Per-bucket uniformity statistics.
#[derive(Debug, Clone)]
pub struct BucketLeakage {
    /// Bucket address the elements were stored in.
    pub bucket: u64,
    /// The bucket's statistics.
    pub summary: LeakageSummary,
}

/// A full leakage audit: pooled statistics plus a per-bucket breakdown.
#[derive(Debug, Clone)]
pub struct LeakageReport {
    /// Element width in bytes the bodies were split into.
    pub element_bytes: usize,
    /// Alphabet size (`256^element_bytes`) the χ² ran against.
    pub alphabet: u64,
    /// `m` used for the top-m frequency ratio.
    pub top_m: usize,
    /// Statistics over all buckets pooled together.
    pub overall: LeakageSummary,
    /// Per-bucket statistics, ordered by bucket address.
    pub buckets: Vec<BucketLeakage>,
}

impl LeakageReport {
    /// Largest per-bucket χ²/df — the single most suspicious bucket.
    pub fn worst_chi_square_per_df(&self) -> f64 {
        self.buckets
            .iter()
            .map(|b| b.summary.chi_square_per_df)
            .fold(0.0, f64::max)
    }
}

impl LeakageAuditor {
    /// New auditor splitting bodies into `element_bytes`-wide elements.
    ///
    /// Widths are clamped to 1..=4 bytes so the alphabet (`256^w`) stays
    /// enumerable; the paper's configuration uses 2-byte elements.
    pub fn new(element_bytes: usize) -> LeakageAuditor {
        let element_bytes = element_bytes.clamp(1, 4);
        LeakageAuditor {
            element_bytes,
            alphabet: 256u64.pow(element_bytes as u32),
            buckets: BTreeMap::new(),
        }
    }

    /// Element width in bytes.
    pub fn element_bytes(&self) -> usize {
        self.element_bytes
    }

    /// Alphabet size the statistics run against.
    pub fn alphabet(&self) -> u64 {
        self.alphabet
    }

    /// Total elements observed across all buckets.
    pub fn observed_elements(&self) -> u64 {
        self.buckets.values().map(|h| h.total).sum()
    }

    /// Feeds one stored record body from `bucket` into the histogram.
    ///
    /// The body is split into consecutive big-endian `element_bytes`-wide
    /// elements; a trailing partial element (possible only when the store's
    /// record length is not a multiple of the element width) is ignored
    /// rather than zero-padded, which would fabricate skew.
    pub fn observe(&mut self, bucket: u64, body: &[u8]) {
        let hist = self.buckets.entry(bucket).or_default();
        for chunk in body.chunks_exact(self.element_bytes) {
            let mut element = 0u64;
            for &byte in chunk {
                element = (element << 8) | byte as u64;
            }
            hist.observe(element);
        }
    }

    /// Computes the report, with the top-m ratio taken over `top_m` values.
    pub fn report(&self, top_m: usize) -> LeakageReport {
        let mut pooled = Histogram::default();
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (&bucket, hist) in &self.buckets {
            hist.merge_into(&mut pooled);
            buckets.push(BucketLeakage {
                bucket,
                summary: hist.summarize(self.alphabet, top_m),
            });
        }
        LeakageReport {
            element_bytes: self.element_bytes,
            alphabet: self.alphabet,
            top_m,
            overall: pooled.summarize(self.alphabet, top_m),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_auditor_reports_cleanly() {
        let auditor = LeakageAuditor::new(2);
        let report = auditor.report(8);
        assert_eq!(report.alphabet, 65536);
        assert_eq!(report.buckets.len(), 0);
        assert_eq!(report.overall.elements, 0);
        assert_eq!(report.overall.chi_square, 0.0);
        assert_eq!(report.overall.p_value, 1.0);
        assert_eq!(report.overall.top_ratio, 0.0);
    }

    #[test]
    fn splits_bodies_into_big_endian_elements() {
        let mut auditor = LeakageAuditor::new(2);
        // 0x0102, 0x0304, trailing 0x05 ignored
        auditor.observe(0, &[1, 2, 3, 4, 5]);
        assert_eq!(auditor.observed_elements(), 2);
        let report = auditor.report(1);
        assert_eq!(report.buckets[0].summary.distinct, 2);
        assert!((report.buckets[0].summary.top_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_is_flagged_as_leaky() {
        let mut auditor = LeakageAuditor::new(1);
        for _ in 0..512 {
            auditor.observe(3, &[0xAA]);
        }
        let report = auditor.report(4);
        let b = &report.buckets[0];
        assert_eq!(b.bucket, 3);
        assert_eq!(b.summary.distinct, 1);
        // All mass on one of 256 categories: χ²/df far above 1, p ≈ 0.
        assert!(b.summary.chi_square_per_df > 100.0);
        assert!(b.summary.p_value < 1e-12);
        assert!((b.summary.top_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_stream_looks_uniform() {
        let mut auditor = LeakageAuditor::new(1);
        // Each byte value exactly 4 times: χ² is exactly 0.
        let mut body = Vec::new();
        for round in 0..4u16 {
            let _ = round;
            body.extend(0u8..=255);
        }
        auditor.observe(0, &body);
        let report = auditor.report(8);
        assert_eq!(report.overall.elements, 1024);
        assert_eq!(report.overall.chi_square, 0.0);
        assert_eq!(report.overall.p_value, 1.0);
        assert!((report.overall.top_ratio - 8.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn pooled_statistics_merge_buckets() {
        let mut auditor = LeakageAuditor::new(1);
        auditor.observe(0, &[0, 1, 2, 3]);
        auditor.observe(1, &[4, 5, 6, 7]);
        let report = auditor.report(2);
        assert_eq!(report.overall.elements, 8);
        assert_eq!(report.overall.distinct, 8);
        assert_eq!(report.buckets.len(), 2);
        assert_eq!(report.worst_chi_square_per_df(), {
            let per_bucket = report.buckets[0].summary.chi_square_per_df;
            assert!((per_bucket - report.buckets[1].summary.chi_square_per_df).abs() < 1e-12);
            per_bucket
        });
    }
}
