//! Threads are O(cores), not O(buckets). Alone in its file: the count is
//! the whole test process's, and no other test may be starting threads.

#![cfg(target_os = "linux")]

use sdds_lh::{ClusterConfig, LhCluster};
use sdds_net::SiteRegistry;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("a count")
}

#[test]
fn a_file_of_200_buckets_runs_on_as_many_threads_as_one_bucket() {
    let before = threads();
    // a client process hosts no site: it runs no worker and dials nothing
    // before its first send
    let nowhere = SiteRegistry::from_addrs(vec!["127.0.0.1:1".into()]).unwrap();
    let remote = LhCluster::connect(nowhere, ClusterConfig::default());
    assert_eq!(threads(), before);
    drop(remote);

    let cluster = LhCluster::start(ClusterConfig {
        bucket_capacity: 4,
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    client.insert(0, vec![0]).unwrap();
    let at_one_bucket = threads();
    // one worker per processor
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(at_one_bucket - before, cores);

    for key in 1..2_000u64 {
        client.insert(key, vec![0]).unwrap();
    }
    assert!(cluster.num_buckets() > 200, "{}", cluster.num_buckets());
    assert_eq!(threads(), at_one_bucket);
    cluster.shutdown();
    assert_eq!(threads(), before, "shutdown joins the workers");
}
