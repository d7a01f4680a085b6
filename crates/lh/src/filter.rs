//! Server-side scan filters and the prepared-query protocol.
//!
//! LH\* scans visit every bucket in parallel; what each bucket evaluates
//! per record is pluggable. The plain SDDS of \[LNS96\] does substring
//! scans on cleartext ([`SubstringFilter`]); the encrypted scheme installs
//! a chunk-series matcher that operates purely on ciphertext equality.
//!
//! # Prepared queries
//!
//! A `ScanReq` carries one opaque query, and every bucket of the file
//! receives the same one. Decoding and validating it is the filter's
//! [`ScanFilter::prepare`], which returns an owned [`PreparedQuery`] that
//! is then evaluated per record — and is prepared **once per thread per
//! distinct query**, not once per bucket: each thread that runs the site
//! runtime's activations (a worker, or a client while it waits) owns a
//! `ScanMemo`, the last query it prepared next to the exact bytes it
//! came from, and hands it to every bucket it activates.
//! A prepared query may additionally expose [`probes`]: fixed-width
//! element values that every matching record must contain. Buckets that
//! maintain a posting index (see [`ScanFilter::index_element_bytes`]) use
//! the probes to compute a candidate key set and confirm full matches only
//! on those candidates, instead of sweeping the whole bucket.
//!
//! [`probes`]: PreparedQuery::probes

use sdds_obs::Counter;
use std::sync::Arc;

/// A query decoded and validated once, then evaluated per record (or per
/// candidate record when the bucket can probe its posting index). It owns
/// what it needs: it outlives the `ScanReq` it was prepared from, and
/// moves with the client thread that may keep it (a `ScanMemo`).
pub trait PreparedQuery: Send {
    /// True if the record `(key, value)` matches the prepared query.
    fn matches(&self, key: u64, value: &[u8]) -> bool;

    /// Posting-index probe elements, if the query supports candidate
    /// pruning: every record matching this query is guaranteed to contain
    /// at least one of the returned fixed-width element values in its
    /// body. `None` (the default) disables the index for this query and
    /// the bucket falls back to a linear sweep; `Some(&[])` means *no*
    /// record can match (the bucket answers instantly with no matches).
    fn probes(&self) -> Option<&[Vec<u8>]> {
        None
    }
}

/// A predicate evaluated by bucket sites during scans. The query arrives as
/// opaque bytes so the filter can define its own encoding.
pub trait ScanFilter: Send + Sync + 'static {
    /// Decodes and validates `query`. Total: bytes that are no query of
    /// this filter prepare to something that matches nothing.
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery>;

    /// Fixed element width (bytes) the buckets should maintain a posting
    /// index over, or `None` (the default) for no index. When `Some(w)`,
    /// every record body that is a whole number of `w`-byte elements is
    /// indexed element-by-element, and prepared queries whose
    /// [`probes`](PreparedQuery::probes) are `w` bytes wide are answered
    /// from the index.
    fn index_element_bytes(&self) -> Option<usize> {
        None
    }

    /// True if the record under `key` should enter the posting index.
    /// Filters whose key layout marks some records as never matching any
    /// query (e.g. the encrypted scheme's record-store copies) override
    /// this to keep those records out of the index.
    fn should_index(&self, key: u64) -> bool {
        let _ = key;
        true
    }
}

/// What a runtime thread carries from one bucket's activation to the
/// next: the query it prepared last, with the filter that prepared it
/// (the buckets of a runtime share one today, but nothing a thread holds
/// says so) and the bytes it came from. Two scans interleaved on one
/// thread take turns, and every bucket prepares, as before the memo.
#[derive(Default)]
pub(crate) struct ScanMemo(Option<Kept>);

struct Kept {
    by: Arc<dyn ScanFilter>,
    bytes: Vec<u8>,
    prepared: Box<dyn PreparedQuery>,
}

impl ScanMemo {
    /// `query` as prepared by `filter`: the kept one if it came from this
    /// filter and exactly these bytes, else a new one — counted in
    /// `prepares` — which replaces it.
    pub(crate) fn prepared(
        &mut self,
        filter: &Arc<dyn ScanFilter>,
        query: &[u8],
        prepares: &Counter,
    ) -> &dyn PreparedQuery {
        let kept = self.0.take();
        let kept = kept.filter(|kept| Arc::ptr_eq(&kept.by, filter) && kept.bytes == query);
        let entry = kept.unwrap_or_else(|| {
            prepares.inc();
            Kept {
                by: Arc::clone(filter),
                bytes: query.to_vec(),
                prepared: filter.prepare(query),
            }
        });
        &*self.0.insert(entry).prepared
    }
}

/// Plaintext substring search — the "parallel (sub-)string searches" the
/// paper attributes to standard LH\* (§1), and the baseline its encrypted
/// index must preserve. An empty query matches every record.
#[derive(Debug, Default, Clone, Copy)]
pub struct SubstringFilter;

impl ScanFilter for SubstringFilter {
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        let substring = |_key: u64, value: &[u8], query: &[u8]| {
            query.is_empty() || value.windows(query.len()).any(|w| w == query)
        };
        substring.prepare(query)
    }
}

/// A closure `(key, value, query) -> bool` is a filter; prepared, it is a
/// copy of the closure next to a copy of the query.
impl<F> ScanFilter for F
where
    F: Fn(u64, &[u8], &[u8]) -> bool + Clone + Send + Sync + 'static,
{
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        Box::new((self.clone(), query.to_vec()))
    }
}

impl<F: Fn(u64, &[u8], &[u8]) -> bool + Send> PreparedQuery for (F, Vec<u8>) {
    fn matches(&self, key: u64, value: &[u8]) -> bool {
        (self.0)(key, value, &self.1)
    }
}

/// Substring search that counts its prepares, for the tests of the memo
/// here and of the threads that carry it.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingFilter(pub(crate) std::sync::atomic::AtomicUsize);

#[cfg(test)]
impl ScanFilter for CountingFilter {
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        // ordering: SeqCst — a test's count, read after the scans it counts
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        SubstringFilter.prepare(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn substring(value: &[u8], query: &[u8]) -> bool {
        SubstringFilter.prepare(query).matches(0, value)
    }

    #[test]
    fn substring_matches() {
        assert!(substring(b"SCHWARZ THOMAS", b"WARZ"));
        assert!(substring(b"SCHWARZ", b"SCHWARZ"));
        assert!(!substring(b"SCHWARZ", b"SCHWARZT"));
        assert!(!substring(b"ABC", b"ZX"));
    }

    #[test]
    fn empty_query_matches_everything() {
        assert!(substring(b"", b""));
        assert!(substring(b"X", b""));
    }

    #[test]
    fn closure_filters_work() {
        let by_key = |key: u64, _v: &[u8], _q: &[u8]| key.is_multiple_of(2);
        assert!(by_key.prepare(b"").matches(4, b""));
        assert!(!by_key.prepare(b"").matches(5, b""));
        let by_first_byte = |_key: u64, v: &[u8], q: &[u8]| v.first() == q.first();
        let prepared = by_first_byte.prepare(b"S");
        assert!(prepared.matches(0, b"SCHWARZ"));
        assert!(!prepared.matches(0, b"LITWIN"));
    }

    #[test]
    fn a_prepared_query_outlives_its_wire_bytes() {
        let prepared = {
            let q = b"WARZ".to_vec();
            SubstringFilter.prepare(&q)
        };
        assert!(prepared.matches(0, b"SCHWARZ"));
        assert!(!prepared.matches(0, b"LITWIN"));
        assert!(prepared.probes().is_none(), "substrings have no probes");
    }

    #[test]
    fn default_filter_has_no_index() {
        assert!(SubstringFilter.index_element_bytes().is_none());
        assert!(SubstringFilter.should_index(7));
    }

    #[test]
    fn the_memo_prepares_once_per_run_of_equal_query_bytes() {
        let counting = Arc::new(CountingFilter::default());
        let filter: Arc<dyn ScanFilter> = counting.clone();
        let prepares = sdds_obs::Registry::new("memo-test").counter("lh.scan_prepares");
        let mut memo = ScanMemo::default();
        let mut run = |query: &[u8], value: &[u8]| {
            let hit = memo.prepared(&filter, query, &prepares).matches(0, value);
            (hit, counting.0.load(Ordering::SeqCst))
        };
        assert_eq!(run(b"WARZ", b"SCHWARZ"), (true, 1));
        assert_eq!(run(b"WARZ", b"LITWIN"), (false, 1), "same bytes: reused");
        assert_eq!(
            run(b"WAR", b"SCHWARZ"),
            (true, 2),
            "a prefix is another query"
        );
        assert_eq!(run(b"WARZ", b"SCHWARZ"), (true, 3), "one entry: evicted");
        assert_eq!(run(b"", b"LITWIN"), (true, 4), "the empty query is a query");
        assert_eq!(run(b"", b""), (true, 4));
        assert_eq!(prepares.get(), 4, "lh.scan_prepares counts executions");
    }

    #[test]
    fn the_memo_never_answers_one_filter_with_another_filters_query() {
        let substring: Arc<dyn ScanFilter> = Arc::new(SubstringFilter);
        let nothing: Arc<dyn ScanFilter> = Arc::new(|_: u64, _: &[u8], _: &[u8]| false);
        let prepares = sdds_obs::Registry::new("memo-test").counter("lh.scan_prepares");
        let mut memo = ScanMemo::default();
        for _ in 0..2 {
            assert!(memo.prepared(&substring, b"A", &prepares).matches(0, b"A"));
            assert!(!memo.prepared(&nothing, b"A", &prepares).matches(0, b"A"));
        }
        assert_eq!(prepares.get(), 4);
    }
}
