//! Posting-index consistency at the LH\* layer: scans answered from the
//! per-bucket inverted index must be byte-identical to a linear sweep,
//! through every record-movement path (splits, merges, overwrites,
//! deletes, recovery adoption).

use sdds_lh::{ClusterConfig, LhClient, LhCluster, ParityConfig, PreparedQuery, ScanFilter};
use std::sync::Arc;

const W: usize = 2;

/// Element-equality filter over `W`-byte elements: the query is a single
/// element, and a record matches when its body holds that element at any
/// aligned offset. Declares a posting index of width `W`, so indexed
/// buckets answer probes instead of sweeping.
#[derive(Debug, Clone, Copy)]
struct ElementFilter;

fn element_match(value: &[u8], query: &[u8]) -> bool {
    query.len() == W && value.len().is_multiple_of(W) && value.chunks_exact(W).any(|e| e == query)
}

struct PreparedElement {
    query: Vec<u8>,
    probes: Vec<Vec<u8>>,
}

impl PreparedQuery for PreparedElement {
    fn matches(&self, _key: u64, value: &[u8]) -> bool {
        element_match(value, &self.query)
    }
    fn probes(&self) -> Option<&[Vec<u8>]> {
        Some(&self.probes)
    }
}

impl ScanFilter for ElementFilter {
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        let probes = if query.len() == W {
            vec![query.to_vec()]
        } else {
            Vec::new() // malformed queries match nothing
        };
        Box::new(PreparedElement {
            query: query.to_vec(),
            probes,
        })
    }
    fn index_element_bytes(&self) -> Option<usize> {
        Some(W)
    }
}

fn indexed_config(capacity: usize) -> ClusterConfig {
    ClusterConfig {
        bucket_capacity: capacity,
        filter: Arc::new(ElementFilter),
        ..ClusterConfig::default()
    }
}

/// A record body: three elements derived from the key, so different
/// queries select overlapping but distinct subsets of the file.
fn body(key: u64) -> Vec<u8> {
    vec![
        (key % 17) as u8,
        0xA0,
        (key % 5) as u8,
        0xB0,
        ((key * 31) % 23) as u8,
        0xC0,
    ]
}

fn query(b0: u8, b1: u8) -> Vec<u8> {
    vec![b0, b1]
}

/// The linear oracle over the client's view of the file: which of the
/// inserted keys should the scan report.
fn oracle(keys: &[u64], q: &[u8]) -> Vec<u64> {
    keys.iter()
        .copied()
        .filter(|&k| element_match(&body(k), q))
        .collect()
}

fn scan_keys(client: &LhClient, q: &[u8]) -> Vec<u64> {
    let mut out: Vec<u64> = client
        .scan(q, true)
        .unwrap()
        .into_iter()
        .map(|m| m.key)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn indexed_scan_matches_linear_oracle_through_splits() {
    let probes0 = sdds_obs::counter("lh.scan_index_probes").get();
    let fallback0 = sdds_obs::counter("lh.scan_fallback_linear").get();
    let cluster = LhCluster::start(indexed_config(8));
    let client = cluster.client();
    let keys: Vec<u64> = (0..400).collect();
    for &k in &keys {
        client.insert(k, body(k)).unwrap();
    }
    assert!(cluster.num_buckets() > 4, "the load must force splits");
    for q in [query(3, 0xA0), query(0, 0xB0), query(7, 0xC0), query(9, 9)] {
        assert_eq!(scan_keys(&client, &q), oracle(&keys, &q), "query {q:?}");
    }
    // full-value scans agree with the stored bodies
    for m in client.scan(&query(3, 0xA0), false).unwrap() {
        assert_eq!(m.value, Some(body(m.key)));
    }
    assert!(
        sdds_obs::counter("lh.scan_index_probes").get() > probes0,
        "scans must go through the posting index"
    );
    assert_eq!(
        sdds_obs::counter("lh.scan_fallback_linear").get(),
        fallback0,
        "no indexed scan may fall back to a linear sweep"
    );
    cluster.shutdown();
}

#[test]
fn deletes_and_merges_leave_no_stale_postings() {
    let cluster = LhCluster::start(indexed_config(8));
    let client = cluster.client();
    let all: Vec<u64> = (0..300).collect();
    for &k in &all {
        client.insert(k, body(k)).unwrap();
    }
    let grown = cluster.num_buckets();
    assert!(grown > 4);
    // delete enough to trigger underflow merges
    let keep: Vec<u64> = all.iter().copied().filter(|k| k % 10 == 0).collect();
    for &k in &all {
        if !keep.contains(&k) {
            assert!(client.delete(k).unwrap());
        }
    }
    for q in [query(3, 0xA0), query(0, 0xB0), query(7, 0xC0)] {
        assert_eq!(
            scan_keys(&client, &q),
            oracle(&keep, &q),
            "stale postings after delete/merge for query {q:?}"
        );
    }
    cluster.shutdown();
}

#[test]
fn overwrites_replace_postings() {
    let cluster = LhCluster::start(indexed_config(64));
    let client = cluster.client();
    client.insert(1, vec![0x11, 0x22]).unwrap();
    assert_eq!(scan_keys(&client, &[0x11, 0x22]), vec![1]);
    // overwrite with a different body: old element must stop matching
    client.insert(1, vec![0x33, 0x44]).unwrap();
    assert!(scan_keys(&client, &[0x11, 0x22]).is_empty());
    assert_eq!(scan_keys(&client, &[0x33, 0x44]), vec![1]);
    cluster.shutdown();
}

#[test]
fn recovery_adoption_rebuilds_the_index() {
    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 16,
        parity: Some(ParityConfig {
            group_size: 2,
            parity_count: 1,
            slot_size: 64,
        }),
        filter: Arc::new(ElementFilter),
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    let keys: Vec<u64> = (0..120).collect();
    for &k in &keys {
        client.insert(k, body(k)).unwrap();
    }
    let q = query(3, 0xA0);
    let expect = oracle(&keys, &q);
    assert_eq!(scan_keys(&client, &q), expect);
    // kill a bucket and let parity recovery repopulate it via Adopt
    cluster.kill_bucket(1);
    cluster.recover_bucket(1).unwrap();
    assert_eq!(
        scan_keys(&client, &q),
        expect,
        "the adopted bucket must rebuild its posting index"
    );
    cluster.shutdown();
}

#[test]
fn delete_batch_reports_per_key_existence() {
    let cluster = LhCluster::start(indexed_config(8));
    let client = cluster.client();
    for k in 0..100u64 {
        client.insert(k, body(k)).unwrap();
    }
    let existed = client.delete_batch(vec![5, 999, 6, 7, 5_000]).unwrap();
    assert_eq!(existed, vec![true, false, true, true, false]);
    assert_eq!(client.lookup(5).unwrap(), None);
    // the postings went with the records
    let keep: Vec<u64> = (0..100).filter(|k| ![5, 6, 7].contains(k)).collect();
    let q = query(5 % 5, 0xB0);
    assert_eq!(scan_keys(&client, &q), oracle(&keep, &q));
    cluster.shutdown();
}
