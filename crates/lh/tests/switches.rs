//! An in-process key operation is answered on the client's own thread:
//! the client runs the ready sites itself before it would block, so a
//! lookup takes the processor from it no more than a function call does.

#![cfg(target_os = "linux")]

use sdds_lh::{ClusterConfig, LhCluster};

/// The calling thread's context switches, voluntary and not: a client
/// that wakes a worker is as a rule preempted by it on its own
/// processor rather than put to sleep, which counts as involuntary.
fn context_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let count = |name: &str| -> u64 {
        let line = status.lines().find_map(|l| l.strip_prefix(name));
        line.expect("a switch count line")
            .trim()
            .parse()
            .expect("a count")
    };
    count("voluntary_ctxt_switches:") + count("nonvoluntary_ctxt_switches:")
}

#[test]
fn an_in_process_lookup_costs_no_context_switch() {
    const KEYS: u64 = 50; // one bucket: no split runs beside the lookups
    const LOOKUPS: u64 = 1_000;
    let cluster = LhCluster::start(ClusterConfig::default());
    let client = cluster.client();
    for key in 0..KEYS {
        client.insert(key, vec![key as u8]).unwrap();
    }
    let before = context_switches();
    for n in 0..LOOKUPS {
        let key = n % KEYS;
        assert_eq!(client.lookup(key).unwrap(), Some(vec![key as u8]));
    }
    let switches = context_switches() - before;
    cluster.shutdown();
    assert!(
        switches < 100,
        "{switches} context switches in {LOOKUPS} lookups"
    );
}
