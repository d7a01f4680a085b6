//! `sdds` — command-line front end for the encrypted searchable SDDS.
//!
//! ```text
//! sdds generate --entries 1000 --seed 7 --out directory.txt
//! sdds search --pattern MARTINEZ [--file directory.txt | --entries 2000]
//!             [--config basic|paper] [--exact]
//! sdds metrics --cluster --servers 2
//! ```
//!
//! `sdds --help` lists every command with the flags it knows; anything
//! else on the command line is an error (exit 2). Performance is measured
//! by `benchmark/` (see its README), not by this binary.

use sdds_repro::core::{
    EncryptedSearchStore, RemoteStore, SchemeConfig, StoreBuilder, StoreHandle,
};
use sdds_repro::corpus::{format_directory, parse_directory, DirectoryGenerator, Record};
use sdds_repro::net::SiteRegistry;
use sdds_repro::stats::{LeakageAuditor, LeakageReport, LeakageSummary};
use sdds_repro::storage::{DiskOptions, FsyncPolicy, StorageConfig};
use std::collections::HashMap;
use std::fmt::Display;
use std::process::exit;
use std::time::{Duration, Instant};

type Flags = HashMap<String, String>;

/// A flag's name and the placeholder of its value (`""` for a switch).
type Flag = (&'static str, &'static str);

/// One subcommand: its entry point and the flags it knows. The table is
/// the parser's whitelist and the source of the `usage()` text, so a flag
/// a command does not read cannot be passed to it.
struct Command {
    name: &'static str,
    run: fn(&Flags),
    flags: &'static [&'static [Flag]],
}

/// Which records to load: a directory file, or a generated corpus.
const CORPUS: &[Flag] = &[("file", "FILE"), ("entries", "N"), ("seed", "S")];

/// Scheme, keys and bucket backend of the store a command builds.
const STORE: &[Flag] = &[
    ("config", "basic|paper"),
    ("passphrase", "P"),
    ("storage", "mem|disk"),
    ("data-dir", "DIR"),
    ("fsync", "always|never|N"),
    ("metrics-json", "FILE"),
];

/// `--cluster` mode: the command runs against `sdds serve` ranks.
const CLUSTER: &[Flag] = &[
    ("cluster", ""),
    ("servers", "N"),
    ("history", ""),
    ("scrape-timeout-millis", "T"),
];

/// What a serving rank and the clients of its cluster must agree on.
const SERVED: &[Flag] = &[
    ("capacity", "C"),
    ("op-timeout-millis", "T"),
    ("obs-tick-millis", "T"),
    ("obs-history", "N"),
];

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        run: generate,
        flags: &[&[("entries", "N"), ("seed", "S"), ("out", "FILE")]],
    },
    Command {
        name: "search",
        run: search,
        flags: &[
            &[
                ("pattern", "P"),
                ("exact", ""),
                ("prefix", ""),
                ("trace-json", "FILE"),
            ],
            CORPUS,
            STORE,
        ],
    },
    Command {
        name: "metrics",
        run: metrics,
        flags: &[
            &[
                ("queries", "P1,P2,..."),
                ("sites", ""),
                ("registry", "FILE"),
                ("json-out", "FILE"),
            ],
            CORPUS,
            STORE,
            CLUSTER,
            SERVED,
        ],
    },
    Command {
        name: "trace",
        run: trace_cmd,
        flags: &[&[("pattern", "P")], CORPUS, STORE, CLUSTER, SERVED],
    },
    Command {
        name: "audit-leakage",
        run: audit_leakage,
        flags: &[&[("top", "M"), ("json-out", "FILE")], CORPUS, STORE],
    },
    Command {
        name: "serve",
        run: serve_cmd,
        flags: &[
            &[
                ("site", "RANK"),
                ("registry", "FILE"),
                ("entries", "N"),
                ("seed", "S"),
                ("config", "basic|paper"),
                ("storage", "mem|disk"),
                ("data-dir", "DIR"),
                ("fsync", "always|never|N"),
                ("trace", ""),
                ("trace-out", "FILE"),
            ],
            SERVED,
        ],
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        usage();
        exit(2);
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return usage();
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        usage();
        usage_error(format!("unknown command {name:?}"));
    };
    (command.run)(&parse_flags(command, &args[1..]));
}

fn usage() {
    eprintln!("usage:");
    for c in COMMANDS {
        eprintln!("  sdds {}", c.name);
        for group in c.flags {
            let flags: Vec<String> = group
                .iter()
                .map(|(name, value)| match *value {
                    "" => format!("[--{name}]"),
                    v => format!("[--{name} {v}]"),
                })
                .collect();
            eprintln!("      {}", flags.join(" "));
        }
    }
    eprintln!(
        "\nsearch needs --pattern; serve needs --site and --registry\n\
         --metrics-json FILE dumps the run's observability snapshot \
         (counters, gauges, latency histograms) as JSON\n\
         --trace-json FILE enables causal tracing for the query and dumps \
         the span tree as JSONL (one span per line; see docs/OBSERVABILITY.md)\n\
         --storage disk needs --data-dir DIR and accepts --fsync (group commit); \
         reopening the same --data-dir recovers the stored records\n\
         serve runs one rank of a multi-process TCP cluster (registry file: one \
         host:port per line, rank = line number)\n\
         --cluster scrapes every rank of such a cluster over the host control \
         channel: metrics merges the per-rank snapshots into one aggregate, trace \
         stitches every rank's spans into one cross-process tree; --registry FILE \
         scrapes a live cluster, otherwise a loopback cluster of --servers ranks \
         is spawned and torn down (see docs/OBSERVABILITY.md)\n\
         performance is measured by benchmark/ (see benchmark/README.md)"
    );
}

/// A runtime failure: message to stderr, exit 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(1);
}

/// A command line this binary cannot act on: message to stderr, exit 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// Parses `args` against the command's flag table. A token that is not a
/// flag the command knows — a typo, another command's flag, a bare
/// positional — ends the run instead of being silently ignored.
fn parse_flags(command: &Command, args: &[String]) -> Flags {
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(token) = args.next() {
        let known = token.strip_prefix("--").and_then(|name| {
            let mut table = command.flags.iter().flat_map(|group| group.iter());
            table.find(|(known, _)| *known == name)
        });
        let Some(&(name, placeholder)) = known else {
            usage_error(format!(
                "sdds {}: unexpected argument {token:?} (see sdds --help)",
                command.name
            ));
        };
        let value = if placeholder.is_empty() {
            String::new()
        } else {
            args.next()
                .cloned()
                .unwrap_or_else(|| usage_error(format!("--{name} needs a value ({placeholder})")))
        };
        flags.insert(name.to_string(), value);
    }
    flags
}

fn flag_usize(flags: &Flags, key: &str, default: usize) -> usize {
    flags.get(key).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(format!("--{key} needs a number, got {v:?}")))
    })
}

fn write_file(path: &str, body: impl AsRef<[u8]>, what: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    eprintln!("wrote {what} to {path}");
}

/// Dumps the global metrics snapshot when `--metrics-json` was given.
fn maybe_write_metrics(flags: &Flags) {
    if let Some(path) = flags.get("metrics-json") {
        let body = sdds_obs::MetricsSnapshot::capture().to_json();
        write_file(path, body, "metrics");
    }
}

fn load_records(flags: &Flags) -> Vec<Record> {
    if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        parse_directory(&text).unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")))
    } else {
        let entries = flag_usize(flags, "entries", 1000);
        let seed = flag_usize(flags, "seed", 42) as u64;
        DirectoryGenerator::new(seed).generate(entries)
    }
}

fn config_for(flags: &Flags) -> SchemeConfig {
    match flags.get("config").map(String::as_str).unwrap_or("basic") {
        "basic" => SchemeConfig::basic(4, 4).expect("valid"),
        "paper" => SchemeConfig::paper_recommended(),
        other => usage_error(format!("unknown --config {other:?}; use basic|paper")),
    }
}

/// The storage backend the flags select: volatile memory (the default) or
/// the durable WAL+snapshot engine rooted at `--data-dir`.
fn storage_config(flags: &Flags) -> StorageConfig {
    match flags.get("storage").map(String::as_str).unwrap_or("mem") {
        "mem" => StorageConfig::Mem,
        "disk" => {
            let Some(dir) = flags.get("data-dir") else {
                usage_error("--storage disk needs --data-dir DIR");
            };
            let mut options = DiskOptions::default();
            if let Some(f) = flags.get("fsync") {
                options.fsync = FsyncPolicy::parse(f).unwrap_or_else(|| {
                    usage_error(format!("--fsync needs always|never|N, got {f:?}"))
                });
            }
            StorageConfig::disk_with(dir, options)
        }
        other => usage_error(format!("unknown --storage {other:?}; use mem|disk")),
    }
}

/// The deterministically configured builder behind every store this
/// binary creates: in-process (`start`/`open`), a served rank
/// (`serve_parts`) or a client of one (`connect`). Serve ranks and their
/// clients call this with the same flags, so the codebook and the scan
/// filter come out identical in every process — neither ever crosses the
/// wire.
fn store_builder(records: &[Record], flags: &Flags) -> StoreBuilder {
    let config = config_for(flags);
    let passphrase = flags.get("passphrase").map_or("sdds-cli", String::as_str);
    let mut builder = EncryptedSearchStore::builder(config)
        .passphrase(passphrase)
        .bucket_capacity(flag_usize(flags, "capacity", 128))
        .storage(storage_config(flags))
        .op_timeout(Duration::from_millis(
            flag_usize(flags, "op-timeout-millis", 10_000).max(50) as u64,
        ));
    if config.encoding.is_some() {
        builder = builder.train(records.iter().take(1000).map(|r| r.rc.clone()));
    }
    builder
}

/// Builds the in-process store and loads `records` into it.
fn loaded_store(records: &[Record], flags: &Flags) -> EncryptedSearchStore {
    eprintln!("loading {} records …", records.len());
    let builder = store_builder(records, flags);
    let store = if storage_config(flags).is_disk() {
        // disk mode always goes through open(): a fresh data dir starts
        // empty, an existing one recovers the previous run's records
        builder
            .open()
            .unwrap_or_else(|e| fail(format!("cannot open store: {e}")))
    } else {
        builder.start()
    };
    preload(&store.handle(), records);
    store
}

/// Loads the corpus through a handle (in-process store or TCP client).
fn preload(handle: &StoreHandle, records: &[Record]) {
    handle
        .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
        .unwrap_or_else(|e| fail(format!("load failed: {e}")));
}

fn generate(flags: &Flags) {
    let entries = flag_usize(flags, "entries", 1000);
    let seed = flag_usize(flags, "seed", 42) as u64;
    let records = DirectoryGenerator::new(seed).generate(entries);
    let text = format_directory(&records);
    match flags.get("out") {
        Some(path) => write_file(path, text, &format!("{entries} records")),
        None => print!("{text}"),
    }
}

fn search(flags: &Flags) {
    let Some(pattern) = flags.get("pattern") else {
        usage_error("search needs --pattern");
    };
    config_for(flags); // validate --config before doing any work
    let records = load_records(flags);
    let t0 = Instant::now();
    let store = loaded_store(&records, flags);
    let client = store.handle();
    eprintln!(
        "loaded into {} LH* buckets in {:?}",
        store.cluster().num_buckets(),
        t0.elapsed()
    );
    if flags.contains_key("trace-json") {
        // Trace only the query: discarding the load-phase spans and
        // enabling tracing here keeps the dump to the one span tree
        // rooted at the client operation.
        let _ = sdds_obs::trace::drain_spans();
        sdds_obs::trace::set_tracing(true);
    }
    store.cluster().network().stats().reset();
    let t0 = Instant::now();
    let result = if flags.contains_key("exact") {
        client.fetch_matching(pattern).map(|hits| {
            hits.into_iter()
                .map(|(rid, rc)| (rid, Some(rc)))
                .collect::<Vec<_>>()
        })
    } else if flags.contains_key("prefix") {
        client
            .search_starting_with(pattern)
            .map(|rids| rids.into_iter().map(|rid| (rid, None)).collect())
    } else {
        client
            .search(pattern)
            .map(|rids| rids.into_iter().map(|rid| (rid, None)).collect())
    };
    let hits = result.unwrap_or_else(|e| fail(format!("search failed: {e}")));
    let elapsed = t0.elapsed();
    let stats = store.cluster().network().stats();
    for (rid, rc) in &hits {
        match rc {
            Some(rc) => println!("{rid}  {rc}"),
            None => {
                let digits = format!("{rid:010}");
                println!("{}-{}-{}", &digits[0..3], &digits[3..6], &digits[6..10]);
            }
        }
    }
    eprintln!(
        "{} hit(s) in {elapsed:?} — {} messages, {} bytes on the wire",
        hits.len(),
        stats.messages(),
        stats.bytes()
    );
    // Shutdown joins the runtime's workers, so every span — including ones the
    // sites were still closing when the reply raced back — is recorded
    // before the flight recorder drains.
    store.shutdown();
    if let Some(path) = flags.get("trace-json") {
        write_trace(path);
    }
    maybe_write_metrics(flags);
}

/// Drains the flight recorder to `path` as JSONL, one span per line.
fn write_trace(path: &str) {
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
    let mut sink = sdds_obs::trace::TraceSink::new(std::io::BufWriter::new(file));
    match sink.drain() {
        Ok(n) => eprintln!("wrote {n} trace spans to {path}"),
        Err(e) => fail(format!("cannot write {path}: {e}")),
    }
}

/// Formats a duration in seconds with a human-scale unit.
fn fmt_secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.1}ms", v * 1e3)
    } else {
        format!("{:.1}µs", v * 1e6)
    }
}

/// Pretty-prints one registry snapshot.
fn print_snapshot(snap: &sdds_obs::MetricsSnapshot) {
    if !snap.counters.is_empty() {
        println!("counters:");
        for (name, value) in &snap.counters {
            println!("  {name:<32} {value}");
        }
    }
    if !snap.gauges.is_empty() {
        println!("gauges:");
        for (name, value) in &snap.gauges {
            println!("  {name:<32} {value}");
        }
    }
    if !snap.float_gauges.is_empty() {
        println!("float gauges:");
        for (name, value) in &snap.float_gauges {
            println!("  {name:<32} {value:.6}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("histograms:");
        for (name, h) in &snap.histograms {
            let q = |p: f64| h.quantile(p).map_or("-".into(), fmt_secs);
            println!(
                "  {name:<32} count={:<8} mean={:<10} p50={:<10} p95={:<10} p99={:<10} p999={}",
                h.count,
                h.mean().map_or("-".into(), fmt_secs),
                q(0.50),
                q(0.95),
                q(0.99),
                q(0.999),
            );
        }
    }
}

/// Runs every `--queries` pattern (default: two realistic surnames).
fn run_queries(handle: &StoreHandle, flags: &Flags) {
    let queries = flags
        .get("queries")
        .map_or("SMITH,MARTINEZ", String::as_str);
    for q in queries.split(',').map(str::trim).filter(|q| !q.is_empty()) {
        if let Err(e) = handle.search(q) {
            fail(format!("search {q:?} failed: {e}"));
        }
    }
}

/// Runs a small load + query workload and pretty-prints the live metrics
/// snapshot, optionally with per-site breakdowns (`--sites`). With
/// `--cluster`, scrapes a multi-process TCP cluster instead.
fn metrics(flags: &Flags) {
    if flags.contains_key("cluster") {
        return metrics_cluster(flags);
    }
    config_for(flags); // validate --config before doing any work
    let records = load_records(flags);
    let store = loaded_store(&records, flags);
    run_queries(&store.handle(), flags);
    let sites = sdds_obs::capture_sites();
    store.shutdown();
    let snap = sdds_obs::MetricsSnapshot::capture();
    println!("== registry {:?} (aggregate) ==", snap.label);
    print_snapshot(&snap);
    if flags.contains_key("sites") {
        for site in &sites {
            if site.counters.values().all(|&v| v == 0)
                && site.histograms.values().all(|h| h.count == 0)
            {
                continue;
            }
            println!("\n== registry {:?} ==", site.label);
            print_snapshot(site);
        }
    }
    maybe_write_metrics(flags);
}

/// Scrapes every rank of the cluster: metrics, or (`spans`) the flight
/// recorders.
fn scrape(remote: &RemoteStore, flags: &Flags, spans: bool) -> sdds_repro::lh::ClusterScrape {
    let opts = sdds_repro::lh::ScrapeOptions {
        metrics: !spans,
        spans,
        history: flags.contains_key("history"),
        timeout: Duration::from_millis(flag_usize(flags, "scrape-timeout-millis", 10_000) as u64),
    };
    remote
        .obs()
        .scrape(&opts)
        .unwrap_or_else(|e| fail(format!("cluster scrape failed: {e}")))
}

/// `sdds metrics --cluster`: scrapes every rank of a multi-process TCP
/// cluster over the host control channel and prints the merged aggregate
/// (plus per-rank breakdowns with `--sites`). With `--registry FILE` it
/// scrapes a live cluster and leaves it running; otherwise it spawns its
/// own loopback cluster (`--servers N`), drives the same small load +
/// query workload as local `metrics`, scrapes, and shuts down.
fn metrics_cluster(flags: &Flags) {
    config_for(flags); // validate --config before doing any work
    let records = load_records(flags);
    if let Some(reg_path) = flags.get("registry") {
        let registry =
            SiteRegistry::load(std::path::Path::new(reg_path)).unwrap_or_else(|e| fail(e));
        let remote = store_builder(&records, flags).connect(registry);
        report_cluster_scrape(&scrape(&remote, flags, false), flags);
    } else {
        let cluster = spawn_tcp_cluster(&records, flags, false);
        let handle = cluster.remote.handle();
        preload(&handle, &records);
        run_queries(&handle, flags);
        let scraped = scrape(&cluster.remote, flags, false);
        cluster.shutdown();
        report_cluster_scrape(&scraped, flags);
    }
}

/// Prints a cluster scrape — merged aggregate, per-rank breakdowns with
/// `--sites`, and this process's client-side registry (the hop counters
/// live here: forwarding is observed where the reply lands) — and writes
/// the `--json-out` artifact. Exits nonzero if any rank failed to report.
fn report_cluster_scrape(scrape: &sdds_repro::lh::ClusterScrape, flags: &Flags) {
    let missing = if scrape.missing.is_empty() {
        String::new()
    } else {
        format!(", missing {:?}", scrape.missing)
    };
    println!(
        "== cluster aggregate ({} rank(s) reporting{missing}) ==",
        scrape.ranks.len(),
    );
    print_snapshot(&scrape.aggregate);
    if flags.contains_key("sites") {
        for r in &scrape.ranks {
            println!("\n== rank {} ==", r.rank);
            if let Some(m) = &r.metrics {
                print_snapshot(m);
            }
        }
    }
    let client = sdds_obs::MetricsSnapshot::capture();
    println!("\n== client ==");
    print_snapshot(&client);
    if let Some(path) = flags.get("json-out") {
        let ranks_json: Vec<String> = scrape
            .ranks
            .iter()
            .map(|r| {
                format!(
                    "{{\"rank\": {}, \"metrics\": {}}}",
                    r.rank,
                    r.metrics
                        .as_ref()
                        .map_or("null".to_string(), sdds_obs::MetricsSnapshot::to_json),
                )
            })
            .collect();
        let missing: Vec<String> = scrape.missing.iter().map(usize::to_string).collect();
        let body = format!(
            "{{\n\"missing\": [{}],\n\"aggregate\": {},\n\"client\": {},\n\"ranks\": [{}]\n}}\n",
            missing.join(", "),
            scrape.aggregate.to_json(),
            client.to_json(),
            ranks_json.join(",\n"),
        );
        write_file(path, body, "cluster metrics");
    }
    maybe_write_metrics(flags);
    if !scrape.missing.is_empty() {
        fail(format!("{} rank(s) failed to report", scrape.missing.len()));
    }
}

/// Drains this process's flight recorder as parsed spans (the stitching
/// input type).
fn local_parsed_spans() -> Vec<sdds_obs::trace::ParsedSpan> {
    sdds_obs::trace::drain_spans()
        .iter()
        .map(sdds_obs::trace::ParsedSpan::from)
        .collect()
}

/// Prints each stitched trace tree with a connectivity summary line.
/// Returns false if any tree is disconnected (multiple roots or orphans).
fn render_trees(trees: &[sdds_obs::trace::TraceTree]) -> bool {
    if trees.is_empty() {
        println!("no spans recorded");
        return true;
    }
    let mut ok = true;
    for tree in trees {
        println!(
            "trace {:016x}: {} span(s), rank(s) {:?}, {}",
            tree.trace_id,
            tree.spans.len(),
            tree.ranks(),
            if tree.is_connected() {
                "connected"
            } else {
                ok = false;
                "DISCONNECTED"
            },
        );
        print!("{}", tree.render());
    }
    ok
}

/// Runs one traced search through `handle` and reports it on stderr. The
/// load before it ran untraced: client-side tracing was off, so its
/// messages carried no context for the sites to record either.
fn traced_search(handle: &StoreHandle, pattern: &str) {
    let _ = sdds_obs::trace::drain_spans();
    sdds_obs::trace::set_tracing(true);
    let t0 = Instant::now();
    let hits = handle
        .search(pattern)
        .unwrap_or_else(|e| fail(format!("search failed: {e}")));
    sdds_obs::trace::set_tracing(false);
    eprintln!(
        "traced search {pattern:?}: {} hit(s) in {:?}",
        hits.len(),
        t0.elapsed()
    );
}

/// `sdds trace`: runs one traced search and renders its span tree. With
/// `--cluster` the search runs against a self-spawned multi-process TCP
/// cluster (serve children started with `--trace`), every rank's flight
/// recorder is scraped over the control channel, and the local and remote
/// spans are stitched into one cross-process tree.
fn trace_cmd(flags: &Flags) {
    config_for(flags); // validate --config before doing any work
    let records = load_records(flags);
    let pattern = flags
        .get("pattern")
        .cloned()
        .unwrap_or_else(|| corpus_pattern(&records));
    if !flags.contains_key("cluster") {
        let store = loaded_store(&records, flags);
        traced_search(&store.handle(), &pattern);
        store.shutdown();
        let spans = local_parsed_spans()
            .into_iter()
            .map(|span| sdds_obs::trace::RankedSpan { rank: -1, span })
            .collect();
        if !render_trees(&sdds_obs::trace::stitch(spans)) {
            exit(1);
        }
        return maybe_write_metrics(flags);
    }
    // Cluster mode: the serve children must record spans too.
    let cluster = spawn_tcp_cluster(&records, flags, true);
    let handle = cluster.remote.handle();
    preload(&handle, &records);
    traced_search(&handle, &pattern);
    // The reply can race the remote sites' span-ring writes by a beat;
    // give the loops a moment to close their spans before scraping.
    std::thread::sleep(Duration::from_millis(300));
    let scraped = scrape(&cluster.remote, flags, true);
    if !scraped.missing.is_empty() {
        eprintln!("rank(s) {:?} failed to report", scraped.missing);
    }
    let connected = render_trees(&scraped.traces(local_parsed_spans()));
    cluster.shutdown();
    maybe_write_metrics(flags);
    if !connected || !scraped.missing.is_empty() {
        exit(1);
    }
}

/// Loads a corpus, snapshots what every bucket actually stores, and audits
/// the stored index elements for deviations from uniformity — the paper's
/// empirical security claim, measured at the adversary's vantage point.
fn audit_leakage(flags: &Flags) {
    config_for(flags); // validate --config before doing any work
    let records = load_records(flags);
    let top_m = flag_usize(flags, "top", 8);
    let store = loaded_store(&records, flags);
    let snapshot = store
        .cluster()
        .snapshot()
        .unwrap_or_else(|e| fail(format!("bucket snapshot failed: {e}")));
    let mut auditor = LeakageAuditor::new(store.pipeline().config().element_bytes());
    let mut skipped_store_copies = 0u64;
    for bucket in &snapshot.buckets {
        for (lh, body) in &bucket.records {
            // Tag 0 is the strongly encrypted record-store copy; the
            // uniformity claim is about the searchable index records.
            let (_, tag) = store.pipeline().parse_key(*lh);
            if tag == 0 {
                skipped_store_copies += 1;
                continue;
            }
            auditor.observe(bucket.addr, body);
        }
    }
    store.shutdown();
    let report = auditor.report(top_m);
    sdds_obs::float_gauge("leak.chi_square").set(report.overall.chi_square);
    sdds_obs::float_gauge("leak.chi_square_per_df").set(report.overall.chi_square_per_df);
    sdds_obs::float_gauge("leak.top_ratio").set(report.overall.top_ratio);
    println!(
        "audited {} stored index elements ({}-byte alphabet of {} values, {} record-store copies excluded)",
        report.overall.elements, report.element_bytes, report.alphabet, skipped_store_copies,
    );
    println!(
        "{:>7}  {:>10}  {:>9}  {:>10}  {:>8}  {:>11}",
        "bucket", "elements", "distinct", "chi2/df", "p-value", "top-m ratio"
    );
    let row = |label: &dyn Display, s: &LeakageSummary| {
        println!(
            "{label:>7}  {:>10}  {:>9}  {:>10.4}  {:>8.4}  {:>11.6}",
            s.elements, s.distinct, s.chi_square_per_df, s.p_value, s.top_ratio,
        );
    };
    for b in &report.buckets {
        row(&b.bucket, &b.summary);
    }
    row(&"overall", &report.overall);
    println!(
        "overall χ² = {:.2} — χ²/df ≈ 1 and an unremarkable p-value mean the stored \
         elements look uniform; see docs/OBSERVABILITY.md for interpretation",
        report.overall.chi_square,
    );
    if let Some(path) = flags.get("json-out") {
        write_file(path, leakage_json(&report), "leakage report");
    }
    maybe_write_metrics(flags);
}

/// The `--json-out` leakage report: one compact JSON document with keys
/// in field order (`element_bytes`, `alphabet`, `top_m`, `overall`,
/// `buckets`; each bucket is `{"bucket", "summary"}`).
fn leakage_json(report: &LeakageReport) -> String {
    use sdds_obs::json::fmt_f64;
    let summary = |s: &LeakageSummary| {
        format!(
            "{{\"elements\":{},\"distinct\":{},\"chi_square\":{},\"chi_square_per_df\":{},\"p_value\":{},\"top_ratio\":{}}}",
            s.elements,
            s.distinct,
            fmt_f64(s.chi_square),
            fmt_f64(s.chi_square_per_df),
            fmt_f64(s.p_value),
            fmt_f64(s.top_ratio),
        )
    };
    let buckets: Vec<String> = report
        .buckets
        .iter()
        .map(|b| {
            format!(
                "{{\"bucket\":{},\"summary\":{}}}",
                b.bucket,
                summary(&b.summary)
            )
        })
        .collect();
    format!(
        "{{\"element_bytes\":{},\"alphabet\":{},\"top_m\":{},\"overall\":{},\"buckets\":[{}]}}",
        report.element_bytes,
        report.alphabet,
        report.top_m,
        summary(&report.overall),
        buckets.join(","),
    )
}

/// A search pattern drawn from the loaded corpus, so the traced search
/// hits real postings rather than degenerating to an empty probe.
fn corpus_pattern(records: &[Record]) -> String {
    records
        .iter()
        .find(|r| r.rc.is_ascii() && r.rc.len() >= 5)
        .map_or("SMITH".to_string(), |r| r.rc[..5].to_string())
}

/// A multi-process TCP cluster owned by this run: `sdds serve` children
/// on loopback ports plus the connected client store.
struct ServedCluster {
    remote: RemoteStore,
    children: Vec<std::process::Child>,
    registry_path: std::path::PathBuf,
}

impl ServedCluster {
    /// Broadcasts a cluster-wide shutdown, then reaps the children —
    /// killing any that have not exited within a generous deadline so a
    /// wedged rank cannot hang the command.
    fn shutdown(mut self) {
        self.remote.shutdown_cluster();
        let deadline = Instant::now() + Duration::from_secs(20);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&self.registry_path);
    }
}

/// Spawns `--servers` (default 2) `sdds serve` child processes on freshly
/// reserved loopback ports and connects a client store to them. The
/// children re-derive the exact store configuration from the forwarded
/// flags, so their scan filters match this process's pipeline bit for
/// bit. `trace` starts them with `--trace`.
fn spawn_tcp_cluster(records: &[Record], flags: &Flags, trace: bool) -> ServedCluster {
    if flags.get("storage").is_some_and(|s| s == "disk") {
        usage_error("--cluster runs with --storage mem (ranks would collide on one --data-dir)");
    }
    let servers = flag_usize(flags, "servers", 2);
    eprintln!("spawning a {servers}-rank loopback cluster …");
    // The rebind race is theoretical on loopback at this scale and a
    // collision fails loudly (serve exits on bind error).
    let registry = SiteRegistry::loopback(servers)
        .unwrap_or_else(|e| fail(format!("cannot reserve loopback ports: {e}")));
    let registry_path = std::env::temp_dir().join(format!(
        "sdds-registry-{}-{}.txt",
        std::process::id(),
        registry
            .addr(0)
            .and_then(|a| a.rsplit(':').next())
            .unwrap_or("0"),
    ));
    registry
        .save(&registry_path)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", registry_path.display())));
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(format!("cannot locate the sdds binary: {e}")));
    let mut children = Vec::with_capacity(servers);
    for rank in 0..servers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve")
            .arg("--site")
            .arg(rank.to_string())
            .arg("--registry")
            .arg(&registry_path)
            .arg("--entries")
            .arg(flag_usize(flags, "entries", 1000).to_string())
            .arg("--seed")
            .arg(flag_usize(flags, "seed", 42).to_string())
            .stdout(std::process::Stdio::null());
        // flags store_builder and the obs plane read must reach the
        // children verbatim
        for key in ["config"]
            .into_iter()
            .chain(SERVED.iter().map(|flag| flag.0))
        {
            if let Some(v) = flags.get(key) {
                cmd.arg(format!("--{key}")).arg(v);
            }
        }
        if trace {
            cmd.arg("--trace");
        }
        children.push(
            cmd.spawn()
                .unwrap_or_else(|e| fail(format!("cannot spawn serve rank {rank}: {e}"))),
        );
    }
    ServedCluster {
        remote: store_builder(records, flags).connect(registry),
        children,
        registry_path,
    }
}

/// `sdds serve` — one rank of a multi-process TCP cluster. The process
/// hosts the coordinator (rank 0 only) plus every bucket the registry's
/// modular partition assigns to it, and blocks until a client broadcasts
/// a cluster-wide shutdown. All ranks and all clients must be launched
/// with the same --entries/--seed/--config/--capacity flags: the codebook
/// and the scan filter are derived deterministically from them and never
/// travel over the wire.
fn serve_cmd(flags: &Flags) {
    let Some(reg_path) = flags.get("registry") else {
        usage_error("serve needs --registry FILE (one host:port per line, rank = line number)");
    };
    let rank = flag_usize(flags, "site", 0);
    let registry = SiteRegistry::load(std::path::Path::new(reg_path)).unwrap_or_else(|e| fail(e));
    let entries = flag_usize(flags, "entries", 2000);
    let seed = flag_usize(flags, "seed", 42) as u64;
    if flags.contains_key("trace") {
        // Without the gate the rank's flight recorder stays inert and a
        // cluster span scrape would come back empty for this rank.
        sdds_obs::trace::set_tracing(true);
    }
    let obs = sdds_repro::lh::ObsOptions {
        tick: Duration::from_millis(flag_usize(flags, "obs-tick-millis", 500).max(1) as u64),
        history: flag_usize(flags, "obs-history", 64),
        trace_flush: flags.get("trace-out").map(std::path::PathBuf::from),
    };
    let records = DirectoryGenerator::new(seed).generate(entries);
    let (_pipeline, config) = store_builder(&records, flags)
        .obs_options(obs)
        .serve_parts();
    eprintln!(
        "rank {rank}/{}: serving on {} …",
        registry.num_servers(),
        registry.addr(rank).unwrap_or("<out of range>"),
    );
    let handle = sdds_repro::lh::serve(registry, rank, config)
        .unwrap_or_else(|e| fail(format!("serve failed: {e}")));
    handle.wait();
    eprintln!("rank {rank}: shut down");
}
