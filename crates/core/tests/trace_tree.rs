//! The acceptance shape of the tentpole: one traced search emits one
//! connected span tree rooted at the client operation, whose children
//! cover the scan fan-out to every bucket, each bucket's scan work, and
//! the client-side combination (dispersion gather) leg.

use sdds_core::{EncryptedSearchStore, SchemeConfig};
use sdds_corpus::DirectoryGenerator;
use sdds_obs::trace::{self, SpanRecord};
use std::collections::{HashMap, HashSet};

#[test]
fn search_emits_a_single_connected_span_tree() {
    // Tracing stays off during the load (another test of this process may
    // have turned it on), so the drained set holds exactly the one search
    // trace.
    trace::set_tracing(false);
    let records = DirectoryGenerator::new(99).generate(400);
    let store = EncryptedSearchStore::builder(SchemeConfig::basic(4, 4).unwrap())
        .passphrase("trace-tree")
        .bucket_capacity(64)
        .start();
    let client = store.handle();
    client
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .unwrap();
    assert!(
        store.cluster().num_buckets() > 1,
        "need a multi-bucket file to trace the fan-out"
    );

    let _ = trace::drain_spans();
    trace::set_tracing(true);
    let outcome = client.search_detailed("MARTINEZ").unwrap();
    trace::set_tracing(false);
    // Shutdown joins the runtime's workers, so spans the sites were still
    // closing when the reply raced back are recorded before the drain.
    store.shutdown();
    let spans = trace::drain_spans();
    assert!(!outcome.rids.is_empty(), "the pattern should match");

    // Exactly one root, and it is the client operation.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(
        roots.len(),
        1,
        "one traced operation → one root: {:?}",
        roots.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    let root = roots[0];
    assert_eq!(root.name, "client.search");

    // Every drained span belongs to that trace and parent-links to the
    // root without cycles.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    for span in &spans {
        assert_eq!(span.trace_id, root.trace_id, "stray trace: {:?}", span.name);
        let mut cursor = span;
        let mut steps = 0;
        while cursor.parent_span_id != 0 {
            cursor = by_id
                .get(&cursor.parent_span_id)
                .unwrap_or_else(|| panic!("span {:?} has a dangling parent", span.name));
            steps += 1;
            assert!(steps <= spans.len(), "parent cycle at {:?}", span.name);
        }
        assert_eq!(cursor.span_id, root.span_id);
    }

    // The fan-out covers every bucket the scan addressed: a scan span per
    // site, each holding its per-bucket scan work (index probe or linear
    // fallback) as a direct child. The oracle is the client's own
    // recorded fan-out (the `lh.scan` span's detail) rather than
    // `num_buckets()`, which keeps moving while queued splits drain in
    // the background; counts are per-site, not exact — a scan retried
    // under load legitimately re-scans a bucket and duplicates its spans.
    let fanout = spans
        .iter()
        .find(|s| s.name == "lh.scan")
        .expect("scan fan-out span")
        .detail;
    assert!(fanout > 1, "multi-bucket fan-out");
    let scan_spans: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "bucket.scan").collect();
    let scan_sites: HashSet<i64> = scan_spans.iter().map(|s| s.site).collect();
    assert_eq!(
        scan_sites.len() as u64,
        fanout,
        "every scanned bucket appears in the tree"
    );
    let scan_ids: HashSet<u64> = scan_spans.iter().map(|s| s.span_id).collect();
    let work: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "bucket.scan_index" || s.name == "bucket.scan_linear")
        .collect();
    let work_sites: HashSet<i64> = work.iter().map(|s| s.site).collect();
    assert_eq!(work_sites, scan_sites, "scan work on every bucket");
    for w in &work {
        assert!(
            scan_ids.contains(&w.parent_span_id),
            "{:?} must nest under its bucket's scan span",
            w.name
        );
    }

    // The dispersion gather / combination leg is a child of the client op.
    let combine = spans
        .iter()
        .find(|s| s.name == "search.combine")
        .expect("combination span");
    assert_eq!(combine.parent_span_id, root.span_id);
    assert!(combine.detail > 0, "candidates flowed into the gather");
}
