//! The cluster observability plane end to end: three real `sdds serve`
//! OS processes on loopback ports, a traced search from this process,
//! and an [`ObsPull`] scrape of every rank's metrics and flight-recorder
//! spans over the host control channel. Asserts the PR's two headline
//! properties: the merged metrics aggregate equals the sum of the
//! per-rank scrapes, and the traced search stitches into a single
//! connected cross-process tree — forward hops parent-linked across
//! process boundaries, no orphans.

use sdds_repro::core::{EncryptedSearchStore, SchemeConfig, StoreBuilder};
use sdds_repro::corpus::{DirectoryGenerator, Record};
use sdds_repro::lh::ScrapeOptions;
use sdds_repro::net::SiteRegistry;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ENTRIES: usize = 240;
const SEED: u64 = 42;
const CAPACITY: usize = 16;

/// The store configuration shared by every process of the run (see
/// `tests/tcp_cluster.rs` for why the builders must match bit for bit).
fn builder(records: &[Record]) -> StoreBuilder {
    let config = SchemeConfig::basic(4, 4).expect("valid config");
    let mut builder = EncryptedSearchStore::builder(config)
        .passphrase("sdds-cli")
        .bucket_capacity(CAPACITY)
        .op_timeout(Duration::from_secs(5));
    if config.encoding.is_some() {
        builder = builder.train(records.iter().take(1000).map(|r| r.rc.clone()));
    }
    builder
}

/// Reaps the serve children, asserting each exited cleanly after the
/// cluster-wide shutdown broadcast.
fn wait_children(mut children: Vec<Child>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    for child in &mut children {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    assert!(status.success(), "serve rank exited with {status}");
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("serve rank did not exit after shutdown");
                }
            }
        }
    }
}

/// Drains this process's flight recorder back into parsed spans.
fn local_spans() -> Vec<sdds_obs::trace::ParsedSpan> {
    let mut text = String::new();
    for s in sdds_obs::trace::drain_spans() {
        text.push_str(&s.to_json_line());
        text.push('\n');
    }
    let (spans, skipped) = sdds_obs::trace::parse_jsonl(&text);
    assert_eq!(skipped, 0, "locally recorded spans must round-trip");
    spans
}

#[test]
fn scrape_sums_rank_metrics_and_stitches_one_connected_cross_process_trace() {
    let registry = SiteRegistry::loopback(3).expect("reserve loopback ports");
    let registry_path =
        std::env::temp_dir().join(format!("sdds-obs-registry-{}.txt", std::process::id()));
    registry.save(&registry_path).expect("write registry");

    let exe = env!("CARGO_BIN_EXE_sdds");
    let children: Vec<Child> = (0..3)
        .map(|rank: usize| {
            Command::new(exe)
                .arg("serve")
                .arg("--site")
                .arg(rank.to_string())
                .arg("--registry")
                .arg(&registry_path)
                .arg("--entries")
                .arg(ENTRIES.to_string())
                .arg("--seed")
                .arg(SEED.to_string())
                .arg("--capacity")
                .arg(CAPACITY.to_string())
                // rank-side span recording; a fast obs tick so the
                // snapshot-ring history fills within the test's lifetime
                .arg("--trace")
                .arg("--obs-tick-millis")
                .arg("50")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn serve rank")
        })
        .collect();

    let records = DirectoryGenerator::new(SEED).generate(ENTRIES);
    let remote = builder(&records).connect(registry);
    let handle = remote.handle();
    handle
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .expect("preload");

    // One traced search. The preload ran untraced (no client-side
    // context), so the rank recorders hold exactly this operation.
    let _ = sdds_obs::trace::drain_spans();
    sdds_obs::trace::set_tracing(true);
    let hits = handle.search("MARTINEZ").expect("traced search");
    sdds_obs::trace::set_tracing(false);
    assert!(!hits.is_empty(), "the seeded corpus contains MARTINEZ");
    // Let the ranks' workers close their spans before scraping: the
    // reply can beat the server-side ring writes by a scheduler beat.
    std::thread::sleep(Duration::from_millis(300));

    let scrape = remote
        .obs()
        .scrape(&ScrapeOptions {
            metrics: true,
            spans: true,
            history: true,
            timeout: Duration::from_secs(10),
        })
        .expect("scrape");
    assert!(scrape.missing.is_empty(), "missing: {:?}", scrape.missing);
    assert_eq!(scrape.ranks.len(), 3);

    // Headline property 1: the aggregate is exactly the per-rank sum —
    // for every counter, every gauge, and every histogram bucket.
    for (name, total) in &scrape.aggregate.counters {
        let sum: u64 = scrape
            .ranks
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .filter_map(|m| m.counters.get(name))
            .sum();
        assert_eq!(*total, sum, "counter {name}");
    }
    for (name, total) in &scrape.aggregate.gauges {
        let sum: i64 = scrape
            .ranks
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .filter_map(|m| m.gauges.get(name))
            .sum();
        assert_eq!(*total, sum, "gauge {name}");
    }
    for (name, total) in &scrape.aggregate.histograms {
        let count: u64 = scrape
            .ranks
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .filter_map(|m| m.histograms.get(name))
            .map(|h| h.count)
            .sum();
        assert_eq!(total.count, count, "histogram {name}");
    }
    // Every rank distributed real work: its buckets' activations were
    // timed, and the fast tick filled each snapshot ring.
    for r in &scrape.ranks {
        let m = r.metrics.as_ref().expect("rank metrics");
        assert!(
            m.histograms
                .get("lh.loop_stall_seconds")
                .is_some_and(|h| h.count > 0),
            "rank {} never reported an activation",
            r.rank
        );
        assert!(!r.history.is_empty(), "rank {} snapshot ring empty", r.rank);
        assert!(!r.spans.is_empty(), "rank {} shipped no spans", r.rank);
    }

    // Headline property 2: the traced search stitches into one connected
    // cross-process tree.
    let trees = scrape.traces(local_spans());
    assert_eq!(trees.len(), 1, "exactly one traced operation");
    let tree = &trees[0];
    assert!(
        tree.is_connected(),
        "roots {:?} orphans {:?}\n{}",
        tree.roots,
        tree.orphans,
        tree.render()
    );
    let ranks = tree.ranks();
    assert!(
        ranks.len() >= 2,
        "spans must come from at least two distinct ranks, got {ranks:?}"
    );
    // Cross-process parent links: some span executed on a rank has its
    // parent on a different rank or on the local client (-1).
    let crossing = tree.spans.iter().any(|s| {
        s.span.parent_span_id != 0
            && tree
                .spans
                .iter()
                .any(|p| p.span.span_id == s.span.parent_span_id && p.rank != s.rank)
    });
    assert!(crossing, "no parent link crosses a process boundary");

    remote.shutdown_cluster();
    wait_children(children);
    let _ = std::fs::remove_file(&registry_path);
}
