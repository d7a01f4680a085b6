//! Causal tracing across the LH\* protocol: forwarded requests chain one
//! span per hop under the client's span, and client retransmissions over a
//! lossy network stay inside the operation's single trace.

use sdds_lh::{ClusterConfig, LhCluster};
use sdds_obs::trace::{self, SpanRecord};
use std::collections::{HashMap, HashSet};

/// Spans of the traces rooted by `root_name`, grouped per trace.
fn trees_rooted_at(spans: &[SpanRecord], root_name: &str) -> Vec<Vec<SpanRecord>> {
    let roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == root_name && s.parent_span_id == 0)
        .collect();
    roots
        .iter()
        .map(|root| {
            spans
                .iter()
                .filter(|s| s.trace_id == root.trace_id)
                .copied()
                .collect()
        })
        .collect()
}

/// Asserts every span of `tree` parent-links (transitively) to its root.
fn assert_connected(tree: &[SpanRecord]) {
    let by_id: HashMap<u64, &SpanRecord> = tree.iter().map(|s| (s.span_id, s)).collect();
    for span in tree {
        let mut cursor = span;
        let mut steps = 0;
        while cursor.parent_span_id != 0 {
            cursor = by_id
                .get(&cursor.parent_span_id)
                .unwrap_or_else(|| panic!("span {:?} has a dangling parent", span.name));
            steps += 1;
            assert!(steps <= tree.len(), "parent cycle at {:?}", span.name);
        }
    }
}

/// One combined test: the flight recorder is process-global, and parallel
/// `#[test]` functions draining it would steal each other's spans.
#[test]
fn forwards_and_retries_stay_inside_one_trace() {
    // Phase 1 — forward chains. Grow the file, then read it back through a
    // brand-new client whose primordial image mis-addresses most keys, so
    // requests hop bucket-to-bucket before landing.
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 8,
        ..ClusterConfig::default()
    });
    // Tracing stays off for the load phase (another test of this process
    // may have turned it on), so the drained set holds exactly the lookup
    // traces.
    trace::set_tracing(false);
    let writer = cluster.client();
    for key in 0..300u64 {
        writer.insert(key, vec![key as u8]).unwrap();
    }
    let reader = cluster.client();
    let _ = trace::drain_spans();
    trace::set_tracing(true);
    for key in 0..300u64 {
        assert_eq!(reader.lookup(key).unwrap(), Some(vec![key as u8]));
    }
    trace::set_tracing(false);
    cluster.shutdown();
    let spans = trace::drain_spans();
    assert!(
        reader.hop_count() > 0,
        "stale image should have caused forwards"
    );
    let trees = trees_rooted_at(&spans, "lh.request");
    assert_eq!(trees.len(), 300, "one trace per lookup");
    let mut chained = 0;
    for tree in &trees {
        assert_connected(tree);
        let root_id = tree
            .iter()
            .find(|s| s.parent_span_id == 0)
            .expect("root")
            .span_id;
        let hops: Vec<&SpanRecord> = tree.iter().filter(|s| s.name == "bucket.request").collect();
        assert!(!hops.is_empty(), "every lookup reaches a bucket");
        // A forwarded request shows up as a bucket span parented under
        // another bucket span rather than under the client.
        if hops.len() > 1 {
            let hop_ids: HashSet<u64> = hops.iter().map(|s| s.span_id).collect();
            assert!(
                hops.iter()
                    .any(|s| s.parent_span_id != root_id && hop_ids.contains(&s.parent_span_id)),
                "multi-hop trace lacks a bucket→bucket parent link"
            );
            chained += 1;
        }
    }
    assert!(chained > 0, "no forwarded request produced a hop chain");

    // Phase 2 — retries. Messages vanish; the client retransmits under the
    // *same* open span, so late/duplicate bucket spans still parent into
    // the one trace and no extra roots appear.
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 100_000,
        net: sdds_net::NetConfig {
            drop_probability: 0.05,
            fault_seed: 11,
        },
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    client.set_timeout(std::time::Duration::from_millis(1000));
    for key in 0..60u64 {
        client.insert(key, vec![key as u8]).unwrap();
    }
    let _ = trace::drain_spans();
    trace::set_tracing(true);
    for key in 0..60u64 {
        assert_eq!(client.lookup(key).unwrap(), Some(vec![key as u8]));
    }
    trace::set_tracing(false);
    let dropped = cluster.network().stats().dropped();
    cluster.shutdown();
    let spans = trace::drain_spans();
    assert!(dropped > 0, "fault injection should have dropped messages");
    let trees = trees_rooted_at(&spans, "lh.request");
    assert_eq!(
        trees.len(),
        60,
        "retries reuse the operation's trace instead of opening new roots"
    );
    for tree in &trees {
        assert_connected(tree);
        assert!(tree.iter().any(|s| s.name == "bucket.request"));
    }
    // Dropped envelopes that carried a context leave a net.drop event
    // inside an existing trace, never a fresh root.
    let trace_ids: HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    for drop_event in spans.iter().filter(|s| s.name == "net.drop") {
        assert!(trace_ids.contains(&drop_event.trace_id));
        assert_ne!(drop_event.parent_span_id, 0);
    }
}
