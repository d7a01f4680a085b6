//! Multi-process LH\* over the TCP transport.
//!
//! [`serve`] brings up one *site host*: an OS process (one per registry
//! rank) that owns every bucket whose address hashes to its rank
//! (`addr % num_servers`). It is an [`LhCluster`] brought up the way an
//! in-process one is — rank 0 derives the file state from its data dir
//! and runs the split coordinator — plus the host loop that answers
//! the [`Wire`] messages sent to the rank's host id (`Spawn`,
//! `DropConns`, `ObsPull`, `Shutdown`). A bucket's site id is its
//! address on both fabrics
//! (`SiteRegistry::bucket_id`), and the registry's modular partition
//! decides which process answers. Clients are
//! [`LhCluster::connect`]ed processes that host no site.
//! A `Spawn` or `TransferBatch` that reaches the rank before the site it
//! is for waits in that site's reserved mailbox, and what the rank sends
//! other ranks leaves on links that deliver it: nothing here re-sends.
//!
//! Scope: kill and snapshot address sites by id and work on both
//! fabrics. Parity (LH\*<sub>RS</sub>) remains channel-only — its parity
//! sites and recovery need the cluster-wide directory a single process
//! provides — so `serve` rejects parity configs. Merges retire addresses
//! only in rank 0's directory (a merged-away address is no corner case:
//! `tcp_mixed` deletes a tenth of its operations). A rank above 0, or a
//! client, that still addresses one reaches its tombstone on the owning
//! rank, which NACKs the frame unroutable at once: that costs a client
//! one attempt before it retries through bucket 0, which forwards
//! correctly. The address can be split off again later; the new bucket
//! registers over the tombstone. A rank of a multi-rank cluster starts
//! only from an empty data dir: no one rank holds every bucket to derive
//! the file state from.

use crate::client::LhError;
use crate::cluster::{ClusterConfig, LhCluster, ObsOptions};
use crate::health;
use crate::messages::Wire;
use sdds_net::{Endpoint, NetError, Network, SiteId, SiteRegistry};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// A running site host; join it with [`wait`](ServeHandle::wait).
pub struct ServeHandle {
    host: JoinHandle<()>,
}

impl ServeHandle {
    /// Blocks until the host receives [`Wire::Shutdown`] (or its
    /// network dies) and the rank's site runtime has shut down.
    pub fn wait(self) {
        let _ = self.host.join();
    }
}

/// Starts this process's share of a multi-process LH\* cluster and
/// returns once the listener is up and every rank-local site is running
/// (rank 0: the coordinator and the buckets of the file its data dir
/// holds). The returned handle joins the host control loop, which exits
/// on [`Wire::Shutdown`] — sent by [`LhCluster::shutdown`] or
/// `sdds serve`'s peer tooling.
pub fn serve(
    registry: SiteRegistry,
    rank: usize,
    config: ClusterConfig,
) -> Result<ServeHandle, LhError> {
    if config.parity.is_some() {
        return Err(LhError::Rejected(
            "parity requires the in-process transport (recovery needs the cluster-wide directory)"
                .into(),
        ));
    }
    let ranks = registry.num_servers();
    if rank >= ranks {
        return Err(LhError::Rejected(format!(
            "rank {rank} out of range: registry lists {ranks} servers"
        )));
    }
    let network = Network::tcp_serve(registry, rank, config.net.clone())
        .map_err(|e| LhError::Rejected(format!("rank {rank}: bind failed: {e}")))?;
    let obs = config.obs.clone();
    let cluster = LhCluster::up(network, rank, ranks, config)?;
    let host_ep = cluster
        .network()
        .register_with_id(SiteRegistry::host_id(rank))
        .ok_or_else(|| LhError::Rejected("host id already registered".into()))?;
    let h = std::thread::spawn(move || host_loop(host_ep, Host::new(cluster, obs)));
    Ok(ServeHandle { host: h })
}

/// A rank's host: its share of the cluster, and the periodic
/// observability state — the snapshot ring, the optional trace-flush
/// sink, and the watchdog gauge.
struct Host {
    cluster: LhCluster,
    opts: ObsOptions,
    /// (unix millis, snapshot JSON), oldest first, capped at
    /// `opts.history`.
    ring: VecDeque<(u64, String)>,
    sink: Option<sdds_obs::trace::TraceSink<std::io::BufWriter<std::fs::File>>>,
    age_gauge: sdds_obs::Gauge,
}

impl Host {
    fn new(cluster: LhCluster, opts: ObsOptions) -> Host {
        let sink = opts
            .trace_flush
            .as_ref()
            .and_then(|path| match std::fs::File::create(path) {
                Ok(f) => Some(sdds_obs::trace::TraceSink::new(std::io::BufWriter::new(f))),
                Err(_) => {
                    sdds_obs::counter("obs.trace_flush_failures").inc();
                    None
                }
            });
        Host {
            cluster,
            opts,
            ring: VecDeque::new(),
            sink,
            age_gauge: sdds_obs::gauge("lh.loop_last_tick_age"),
        }
    }

    /// Handles one message from `from`, returning the messages to send
    /// out: spawns the buckets the coordinator assigns to this rank,
    /// severs connections on request, answers observability scrapes.
    /// `Shutdown` is the loop's.
    fn handle(&mut self, from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)> {
        match msg {
            Wire::Spawn { addr, level } => {
                self.cluster.host.spawn(addr, level, false);
                Vec::new()
            }
            Wire::DropConns => {
                self.cluster.drop_connections();
                Vec::new()
            }
            Wire::ObsPull {
                req_id,
                metrics,
                spans,
                history,
            } => {
                sdds_obs::counter("obs.scrape_requests").inc();
                // Refresh the watchdog gauge first so the shipped
                // snapshot carries a current loop-age reading.
                self.refresh_watchdog();
                let report = Wire::ObsReport {
                    req_id,
                    metrics: metrics.then(snapshot_json),
                    sites: if metrics {
                        sdds_obs::capture_sites()
                            .iter()
                            .map(|s| s.to_json())
                            .collect()
                    } else {
                        Vec::new()
                    },
                    spans: if spans { spans_jsonl() } else { String::new() },
                    history: if history {
                        self.ring.iter().cloned().collect()
                    } else {
                        Vec::new()
                    },
                };
                vec![(from, report)]
            }
            // Client-bound and site-bound messages are not the host's.
            _ => Vec::new(),
        }
    }

    /// One observability tick: refresh the watchdog gauge, sample the
    /// snapshot ring, flush the flight recorder if configured.
    fn tick(&mut self) {
        self.refresh_watchdog();
        if self.opts.history > 0 {
            self.ring.push_back((unix_millis(), snapshot_json()));
            while self.ring.len() > self.opts.history {
                self.ring.pop_front();
            }
        }
        if let Some(sink) = &mut self.sink {
            if sink.drain().is_err() {
                sdds_obs::counter("obs.trace_flush_failures").inc();
            }
        }
    }

    /// Publishes the oldest running activation's age (milliseconds) so a
    /// scrape sees a wedged worker as a growing gauge.
    fn refresh_watchdog(&self) {
        self.age_gauge
            .set(health::max_busy_age().as_millis() as i64);
    }
}

fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn snapshot_json() -> String {
    sdds_obs::MetricsSnapshot::capture().to_json()
}

/// Drains the flight recorder into one JSONL string.
fn spans_jsonl() -> String {
    let spans = sdds_obs::trace::drain_spans();
    let mut out = String::with_capacity(spans.len() * 160);
    for s in &spans {
        out.push_str(&s.to_json_line());
        out.push('\n');
    }
    out
}

/// The host control loop: decodes what reaches the rank's host id,
/// hands it to [`Host::handle`] and sends what that returns, runs the
/// periodic obs tick, and tears the process's sites down on
/// [`Wire::Shutdown`].
fn host_loop(ep: Endpoint, mut host: Host) {
    let tick = host.opts.tick.max(Duration::from_millis(1));
    let mut next_tick = Instant::now() + tick;
    loop {
        let wait = next_tick.saturating_duration_since(Instant::now());
        let env = match ep.recv_timeout(wait) {
            Ok(env) => env,
            Err(NetError::Timeout) => {
                host.tick();
                next_tick = Instant::now() + tick;
                continue;
            }
            Err(_) => break,
        };
        let Some(msg) = Wire::decode(&env.payload) else {
            continue;
        };
        if matches!(msg, Wire::Shutdown) {
            break;
        }
        for (to, out) in host.handle(env.from, msg) {
            let _ = ep.send(to, out.encode());
        }
    }
    drop(host); // stops this rank's sites
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three "ranks" in one process (threads stand in for processes —
    /// the full multi-process path is exercised by `tests/tcp_cluster.rs`
    /// via the `sdds serve` binary): inserts spread over real sockets,
    /// lookups and scans return, splits spawn buckets on remote ranks.
    #[test]
    fn three_rank_cluster_in_threads_serves_traffic() {
        let registry = SiteRegistry::loopback(3).expect("registry");
        let config = ClusterConfig {
            bucket_capacity: 8,
            ..ClusterConfig::default()
        };
        let mut serves = Vec::new();
        for rank in 0..3 {
            serves.push(serve(registry.clone(), rank, config.clone()).expect("serve"));
        }
        let hub = LhCluster::connect(registry, config);
        let client = hub.client();
        for key in 0..200u64 {
            client
                .insert(key, format!("value-{key}").into_bytes())
                .expect("insert");
        }
        for key in (0..200u64).step_by(17) {
            assert_eq!(
                client.lookup(key).expect("lookup"),
                Some(format!("value-{key}").into_bytes())
            );
        }
        assert!(client.image().extent() > 1, "file must have split");
        hub.shutdown();
        for s in serves {
            s.wait();
        }
    }

    /// Scrapes a three-rank in-thread cluster: every rank reports, the
    /// aggregate equals the per-rank sum for every counter, and the
    /// snapshot ring fills once the obs tick has fired. (The ranks share
    /// one process-global registry here, so per-rank snapshots are
    /// identical — the multi-process distinctness is covered by
    /// `tests/cluster_obs.rs`.)
    #[test]
    fn obs_scrape_reports_every_rank_and_sums_counters() {
        let registry = SiteRegistry::loopback(3).expect("registry");
        let config = ClusterConfig {
            bucket_capacity: 8,
            obs: ObsOptions {
                tick: Duration::from_millis(20),
                history: 8,
                trace_flush: None,
            },
            ..ClusterConfig::default()
        };
        let mut serves = Vec::new();
        for rank in 0..3 {
            serves.push(serve(registry.clone(), rank, config.clone()).expect("serve"));
        }
        let hub = LhCluster::connect(registry, config);
        let client = hub.client();
        for key in 0..60u64 {
            client
                .insert(key, format!("value-{key}").into_bytes())
                .expect("insert");
        }
        // Let at least one obs tick land so the history ring is non-empty.
        std::thread::sleep(Duration::from_millis(80));
        let scrape = hub
            .obs()
            .scrape(&crate::ScrapeOptions {
                history: true,
                ..Default::default()
            })
            .expect("scrape");
        assert!(scrape.missing.is_empty(), "missing: {:?}", scrape.missing);
        assert_eq!(scrape.ranks.len(), 3);
        assert!(scrape
            .aggregate
            .counters
            .keys()
            .any(|name| name.starts_with("lh.requests_hops_")));
        for (name, total) in &scrape.aggregate.counters {
            let sum: u64 = scrape
                .ranks
                .iter()
                .filter_map(|r| r.metrics.as_ref())
                .filter_map(|m| m.counters.get(name))
                .sum();
            assert_eq!(*total, sum, "counter {name} must sum across ranks");
        }
        for r in &scrape.ranks {
            assert!(!r.history.is_empty(), "rank {} ring empty", r.rank);
        }
        hub.shutdown();
        for s in serves {
            s.wait();
        }
    }

    #[test]
    fn serve_rejects_parity_configs() {
        let registry = SiteRegistry::loopback(1).expect("registry");
        let config = ClusterConfig {
            parity: Some(crate::cluster::ParityConfig::default()),
            ..ClusterConfig::default()
        };
        assert!(matches!(
            serve(registry, 0, config),
            Err(LhError::Rejected(_))
        ));
    }

    #[test]
    fn serve_rejects_out_of_range_rank() {
        let registry = SiteRegistry::loopback(2).expect("registry");
        assert!(matches!(
            serve(registry, 5, ClusterConfig::default()),
            Err(LhError::Rejected(_))
        ));
    }
}
