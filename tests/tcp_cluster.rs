//! Multi-process TCP cluster end to end: three real `sdds serve` OS
//! processes on loopback ports, a client in this process, connection
//! kills mid-ingest, and final results byte-identical to an
//! uninterrupted in-process channel run over the same seeded workload.

use sdds_repro::core::{EncryptedSearchStore, SchemeConfig, StoreBuilder};
use sdds_repro::corpus::{DirectoryGenerator, Record};
use sdds_repro::net::SiteRegistry;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ENTRIES: usize = 240;
const SEED: u64 = 42;
const CAPACITY: usize = 16;

/// The store configuration shared by every process of the run — the
/// serve children rebuild it from their flags (`serve_cmd` uses the same
/// passphrase and training rule), so key material and the scan filter
/// match bit for bit without ever crossing the wire.
fn builder(records: &[Record]) -> StoreBuilder {
    let config = SchemeConfig::basic(4, 4).expect("valid config");
    let mut builder = EncryptedSearchStore::builder(config)
        .passphrase("sdds-cli")
        .bucket_capacity(CAPACITY)
        // short per-attempt timeout: a severed stream below can lose only
        // replies bound for the client (the links it and the ranks dial
        // deliver everything), and the client asks again in seconds, not
        // the 10s default
        .op_timeout(Duration::from_secs(2));
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

#[test]
fn three_process_cluster_rides_out_severed_connections_and_matches_in_process() {
    let registry = SiteRegistry::loopback(3).expect("reserve loopback ports");
    let registry_path =
        std::env::temp_dir().join(format!("sdds-test-registry-{}.txt", std::process::id()));
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
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn serve rank")
        })
        .collect();

    let records = DirectoryGenerator::new(SEED).generate(ENTRIES);

    // the uninterrupted in-process reference run
    let reference = builder(&records).start();
    for r in &records {
        reference.insert(r.rid, &r.rc).expect("reference insert");
    }

    let remote = builder(&records).connect(registry);
    let handle = remote.handle();
    let reconnects_before = sdds_obs::counter("net.tcp.reconnects").get();
    for (i, r) in records.iter().enumerate() {
        if i == ENTRIES / 3 {
            // sever every pooled client stream mid-ingest: the next sends
            // must re-dial (and re-announce the client's dynamic id so
            // replies keep routing)
            remote.cluster().drop_connections();
        }
        if i == 2 * ENTRIES / 3 {
            // also tear down rank 1's server-side streams; its accepted
            // connections die and the client re-dials on demand
            remote.cluster().sever_rank(1).expect("sever rank 1");
        }
        handle.insert(r.rid, &r.rc).expect("tcp insert");
    }
    assert!(
        sdds_obs::counter("net.tcp.reconnects").get() > reconnects_before,
        "expected client-side reconnects after severing connections"
    );

    // byte-identical results: same hit lists for every pattern, same
    // record bytes for every rid
    for pattern in ["MARTINEZ", "NGUYEN", "SMITH", "GARC", "QQQQZZ"] {
        assert_eq!(
            handle.search(pattern).expect("tcp search"),
            reference.search(pattern).expect("reference search"),
            "search {pattern:?} diverged between transports"
        );
    }
    for r in &records {
        assert_eq!(
            handle.get(r.rid).expect("tcp get").as_deref(),
            Some(r.rc.as_str()),
            "get({}) over tcp",
            r.rid
        );
    }

    remote.shutdown_cluster();
    wait_children(children);
    let _ = std::fs::remove_file(&registry_path);
    reference.shutdown();
}

/// The same seeded insert / overwrite / delete / search history on the
/// channel fabric and on loopback TCP (ranks served from threads of this
/// process): both fabrics carry the same `Wire` bytes, so every search,
/// every raw scan answer and every `get` must come out identical.
#[test]
fn channel_and_tcp_fabrics_agree_on_a_seeded_history() {
    let records = DirectoryGenerator::new(SEED + 1).generate(ENTRIES);
    // Buckets of 128, so that the deletes below leave every bucket above
    // the merge threshold: over TCP a merged-away bucket id stays in the
    // clients' directory (see `sdds_lh::serve`), and an operation
    // addressed to it loses one attempt to the tombstone's unroutable
    // NACK before it retries through bucket 0 — not this test's topic
    // (ROADMAP item 12).
    let builder = |records: &[Record]| builder(records).bucket_capacity(128);
    let merges_before = sdds_obs::counter("lh.merges").get();
    let registry = SiteRegistry::loopback(2).expect("registry");
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            let (_pipeline, config) = builder(&records).serve_parts();
            sdds_repro::lh::serve(registry.clone(), rank, config).expect("serve rank")
        })
        .collect();
    let remote = builder(&records).connect(registry);
    let local = builder(&records).start();
    let (tcp, channel) = (remote.handle(), local.handle());

    for r in &records {
        tcp.insert(r.rid, &r.rc).expect("tcp insert");
        channel.insert(r.rid, &r.rc).expect("channel insert");
    }
    for (i, r) in records.iter().enumerate() {
        if i % 4 == 0 {
            assert_eq!(
                tcp.delete(r.rid).expect("tcp delete"),
                channel.delete(r.rid).expect("channel delete")
            );
        } else if i % 7 == 0 {
            let rewritten = format!("{} REWRITTEN", r.rc);
            tcp.insert(r.rid, &rewritten).expect("tcp overwrite");
            channel
                .insert(r.rid, &rewritten)
                .expect("channel overwrite");
        }
    }

    assert!(
        local.cluster().num_buckets() > 8,
        "the file must have split"
    );
    assert_eq!(sdds_obs::counter("lh.merges").get(), merges_before);
    let (tcp_lh, channel_lh) = (remote.cluster().client(), local.cluster().client());
    for pattern in ["MARTINEZ", "NGUYEN", "SMITH", "GARC", "REWRITTEN", "QQQQZZ"] {
        assert_eq!(
            tcp.search(pattern).expect("tcp search"),
            channel.search(pattern).expect("channel search"),
            "search {pattern:?}"
        );
        // below the store: the encrypted index records the buckets matched
        let query = local
            .pipeline()
            .build_query(pattern)
            .expect("query")
            .encode();
        assert_eq!(
            tcp_lh.scan(&query, false).expect("tcp scan"),
            channel_lh.scan(&query, false).expect("channel scan"),
            "scan {pattern:?}"
        );
    }
    let mut live = 0;
    for r in &records {
        let got = tcp.get(r.rid).expect("tcp get");
        assert_eq!(
            got,
            channel.get(r.rid).expect("channel get"),
            "get({})",
            r.rid
        );
        live += usize::from(got.is_some());
        // and the stored ciphertext itself (per-RID IV: deterministic)
        let key = local.pipeline().lh_key(r.rid, 0);
        assert_eq!(
            tcp_lh.lookup(key).expect("tcp lookup"),
            channel_lh.lookup(key).expect("channel lookup"),
            "stored bytes of {}",
            r.rid
        );
    }
    assert_eq!(
        live,
        ENTRIES - ENTRIES.div_ceil(4),
        "every fourth record was deleted"
    );
    // the whole file, one snapshot path for both fabrics: the same bytes
    // under the same keys, whichever buckets split timing put them in
    let records_of = |snapshot: sdds_repro::lh::FileSnapshot| {
        let mut records: Vec<_> = snapshot
            .buckets
            .into_iter()
            .flat_map(|b| b.records)
            .collect();
        records.sort();
        records
    };
    let tcp_file = records_of(remote.cluster().snapshot().expect("tcp snapshot"));
    assert!(!tcp_file.is_empty());
    assert!(
        tcp_file == records_of(local.cluster().snapshot().expect("channel snapshot")),
        "the fabrics' files differ"
    );

    remote.shutdown_cluster();
    for rank in ranks {
        rank.wait();
    }
    local.shutdown();
}
