//! Multi-process LH\* over the TCP transport.
//!
//! [`serve`] brings up one *site host*: an OS process (one per registry
//! rank) that owns every bucket whose address hashes to its rank
//! (`addr % num_servers`). It is an [`LhCluster`] brought up the way an
//! in-process one is — rank 0 derives the file state from its data dir
//! and runs the split coordinator — plus the host loop that answers
//! [`HostMsg`]s. A bucket's site id is its address on both fabrics
//! (`SiteRegistry::bucket_id`), and the registry's modular partition
//! decides which process answers. Clients are
//! [`LhCluster::connect`]ed processes that host no site.
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
use crate::cluster::{send_control, ClusterConfig, LhCluster, ObsOptions};
use crate::health;
use crate::messages::encode_pooled;
use bytes::Bytes;
use sdds_net::codec::{put_bool, put_option, put_seq, put_str, put_u32, put_u64, Reader};
use sdds_net::{Endpoint, NetError, Network, SiteId, SiteRegistry};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Control messages between the coordinator's process and the site
/// hosts. These ride the same TCP fabric as [`Wire`] but address the
/// per-rank host endpoints (`SiteRegistry::host_id`), which speak only
/// this protocol — the two codecs never meet in one inbox.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HostMsg {
    /// Materialise bucket `addr` at `level` on the receiving host.
    Spawn {
        /// Bucket address (also its site id).
        addr: u64,
        /// Initial bucket level.
        level: u8,
    },
    /// Sever every established connection (fault injection for tests;
    /// streams re-establish with backoff).
    DropConns,
    /// Scrape request from a [`ClusterObs`](crate::ClusterObs) client:
    /// the host replies with one [`HostMsg::ObsReport`] to `reply_to`
    /// (a dynamic client endpoint id). See `docs/PROTOCOL.md` for the
    /// wire format.
    ObsPull {
        /// Correlates the report with the request (echoed verbatim).
        req_id: u64,
        /// Endpoint id the report must be sent to.
        reply_to: u32,
        /// Ship the rank's metrics (aggregate + per-site snapshots).
        metrics: bool,
        /// Drain and ship the rank's flight-recorder spans.
        spans: bool,
        /// Ship the rank's timestamped snapshot-ring history.
        history: bool,
    },
    /// One rank's scrape reply. Metrics travel as `MetricsSnapshot`
    /// JSON documents, spans as the flight recorder's JSONL schema —
    /// the same formats the CLI writes to sidecar files — each carried
    /// as one length-prefixed string.
    ObsReport {
        /// The request's `req_id`, echoed.
        req_id: u64,
        /// The reporting rank.
        rank: u32,
        /// The rank's process-global snapshot (when `metrics` was set).
        metrics: Option<String>,
        /// Per-site (per-bucket) snapshots (when `metrics` was set).
        sites: Vec<String>,
        /// Drained spans as JSONL (empty unless `spans` was set).
        spans: String,
        /// Snapshot ring: (unix millis, snapshot JSON), oldest first
        /// (empty unless `history` was set).
        history: Vec<(u64, String)>,
    },
    /// Shut down every local site and exit the host loop.
    Shutdown,
}

const SPAWN: u8 = 0;
const DROP_CONNS: u8 = 1;
const OBS_PULL: u8 = 2;
const OBS_REPORT: u8 = 3;
const SHUTDOWN: u8 = 4;

impl HostMsg {
    /// Encodes in the same binary layout as [`Wire`] (tag byte, then the
    /// fields in declaration order; see `docs/PROTOCOL.md`). Snapshots
    /// and spans stay the JSON/JSONL documents they are and travel as
    /// length-prefixed strings.
    pub(crate) fn encode(&self) -> Bytes {
        encode_pooled(|out| match self {
            HostMsg::Spawn { addr, level } => {
                out.push(SPAWN);
                put_u64(out, *addr);
                out.push(*level);
            }
            HostMsg::DropConns => out.push(DROP_CONNS),
            HostMsg::ObsPull {
                req_id,
                reply_to,
                metrics,
                spans,
                history,
            } => {
                out.push(OBS_PULL);
                put_u64(out, *req_id);
                put_u32(out, *reply_to);
                put_bool(out, *metrics);
                put_bool(out, *spans);
                put_bool(out, *history);
            }
            HostMsg::ObsReport {
                req_id,
                rank,
                metrics,
                sites,
                spans,
                history,
            } => {
                out.push(OBS_REPORT);
                put_u64(out, *req_id);
                put_u32(out, *rank);
                put_option(out, metrics.as_deref(), put_str);
                put_seq(out, sites, |out, s| put_str(out, s));
                put_str(out, spans);
                put_seq(out, history, |out, (at, snapshot)| {
                    put_u64(out, *at);
                    put_str(out, snapshot);
                });
            }
            HostMsg::Shutdown => out.push(SHUTDOWN),
        })
    }

    /// Decodes a host-control payload; `None` for anything that is not
    /// exactly one well-formed message (an empty payload included).
    pub(crate) fn decode(payload: &[u8]) -> Option<HostMsg> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            SPAWN => HostMsg::Spawn {
                addr: r.u64()?,
                level: r.u8()?,
            },
            DROP_CONNS => HostMsg::DropConns,
            OBS_PULL => HostMsg::ObsPull {
                req_id: r.u64()?,
                reply_to: r.u32()?,
                metrics: r.bool()?,
                spans: r.bool()?,
                history: r.bool()?,
            },
            OBS_REPORT => HostMsg::ObsReport {
                req_id: r.u64()?,
                rank: r.u32()?,
                metrics: r.option(Reader::string)?,
                sites: r.seq(4, Reader::string)?,
                spans: r.string()?,
                history: r.seq(8 + 4, |r| Some((r.u64()?, r.string()?)))?,
            },
            SHUTDOWN => HostMsg::Shutdown,
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// A running site host; join it with [`wait`](ServeHandle::wait).
pub struct ServeHandle {
    host: JoinHandle<()>,
}

impl ServeHandle {
    /// Blocks until the host receives [`HostMsg::Shutdown`] (or its
    /// network dies) and the rank's site runtime has shut down.
    pub fn wait(self) {
        let _ = self.host.join();
    }
}

/// Starts this process's share of a multi-process LH\* cluster and
/// returns once the listener is up and every rank-local site is running
/// (rank 0: the coordinator and the buckets of the file its data dir
/// holds). The returned handle joins the host control loop, which exits
/// on [`HostMsg::Shutdown`] — sent by [`LhCluster::shutdown`] or
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
    let h = std::thread::spawn(move || host_loop(host_ep, cluster, rank, obs));
    Ok(ServeHandle { host: h })
}

/// The host's periodic observability state: the snapshot ring, the
/// optional trace-flush sink, and the watchdog gauge.
struct ObsTicker {
    opts: ObsOptions,
    /// (unix millis, snapshot JSON), oldest first, capped at
    /// `opts.history`.
    ring: VecDeque<(u64, String)>,
    sink: Option<sdds_obs::trace::TraceSink<std::io::BufWriter<std::fs::File>>>,
    age_gauge: sdds_obs::Gauge,
}

impl ObsTicker {
    fn new(opts: ObsOptions) -> ObsTicker {
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
        ObsTicker {
            opts,
            ring: VecDeque::new(),
            sink,
            age_gauge: sdds_obs::gauge("lh.loop_last_tick_age"),
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

/// The host control loop: spawns buckets the coordinator assigns to
/// this rank, severs connections on request, answers observability
/// scrapes, runs the periodic obs tick, and tears the process's sites
/// down on shutdown.
fn host_loop(ep: Endpoint, cluster: LhCluster, rank: usize, obs: ObsOptions) {
    let mut ticker = ObsTicker::new(obs);
    let tick = ticker.opts.tick.max(Duration::from_millis(1));
    let mut next_tick = Instant::now() + tick;
    loop {
        let wait = next_tick.saturating_duration_since(Instant::now());
        let env = match ep.recv_timeout(wait) {
            Ok(env) => env,
            Err(NetError::Timeout) => {
                ticker.tick();
                next_tick = Instant::now() + tick;
                continue;
            }
            Err(_) => break,
        };
        match HostMsg::decode(&env.payload) {
            Some(HostMsg::Spawn { addr, level }) => cluster.host.spawn(addr, level, false),
            Some(HostMsg::DropConns) => cluster.drop_connections(),
            Some(HostMsg::ObsPull {
                req_id,
                reply_to,
                metrics,
                spans,
                history,
            }) => {
                sdds_obs::counter("obs.scrape_requests").inc();
                // Refresh the watchdog gauge first so the shipped
                // snapshot carries a current loop-age reading.
                ticker.refresh_watchdog();
                let report = HostMsg::ObsReport {
                    req_id,
                    rank: rank as u32,
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
                        ticker.ring.iter().cloned().collect()
                    } else {
                        Vec::new()
                    },
                };
                let _ = send_control(&ep, SiteId(reply_to), report.encode());
            }
            // Client-bound; a misrouted report is dropped, not answered.
            Some(HostMsg::ObsReport { .. }) => {}
            Some(HostMsg::Shutdown) => break,
            None => {}
        }
    }
    drop(cluster); // stops this rank's sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_net::codec::check::{hostile_length, prefixes_and_bitflips};

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

    /// At least one value of every variant; the reports cover `None`
    /// and `Some`, empty and filled lists, and non-ASCII text.
    fn host_samples() -> Vec<HostMsg> {
        vec![
            HostMsg::Spawn {
                addr: u64::MAX,
                level: 7,
            },
            HostMsg::DropConns,
            HostMsg::ObsPull {
                req_id: 1,
                reply_to: u32::MAX,
                metrics: true,
                spans: false,
                history: true,
            },
            HostMsg::ObsReport {
                req_id: 1,
                rank: 2,
                metrics: None,
                sites: vec![],
                spans: String::new(),
                history: vec![],
            },
            HostMsg::ObsReport {
                req_id: u64::MAX,
                rank: 0,
                metrics: Some(r#"{"label":"global"}"#.into()),
                sites: vec![r#"{"label":"bucket-0"}"#.into(), "{}".into()],
                spans: "{\"name\":\"größe\"}\n".into(),
                history: vec![(1, "{}".into()), (u64::MAX, String::new())],
            },
            HostMsg::Shutdown,
        ]
    }

    #[test]
    fn host_msg_roundtrips_every_variant() {
        let mut covered = std::collections::BTreeSet::new();
        for m in host_samples() {
            let name: String = format!("{m:?}")
                .chars()
                .take_while(char::is_ascii_alphanumeric)
                .collect();
            covered.insert(name);
            assert_eq!(HostMsg::decode(&m.encode()), Some(m));
        }
        // by hand: `HostMsg` is not in protocol-matrix.json
        let declared = ["DropConns", "ObsPull", "ObsReport", "Shutdown", "Spawn"];
        assert_eq!(covered.len(), usize::from(SHUTDOWN) + 1);
        assert!(covered.iter().map(String::as_str).eq(declared));
    }

    #[test]
    fn host_msg_decode_fails_closed() {
        let encodings: Vec<Vec<u8>> = host_samples().iter().map(|m| m.encode().to_vec()).collect();
        prefixes_and_bitflips(&encodings, HostMsg::decode);
        assert_eq!(HostMsg::decode(&[]), None, "empty payload");
        assert_eq!(HostMsg::decode(&[SHUTDOWN + 1]), None, "unknown tag");
        assert_eq!(HostMsg::decode(&[SHUTDOWN, 0]), None, "trailing byte");
        assert_eq!(HostMsg::decode(br#""Shutdown""#), None, "old JSON");
        assert_eq!(
            HostMsg::decode(br#"{"Spawn":{"addr":1,"level":0}}"#),
            None,
            "old JSON"
        );
        // ObsReport{req_id, rank, then: metrics text, sites, a site's
        // text, spans, history
        let report = [&[OBS_REPORT][..], &[0; 12]].concat();
        let cases: [(Vec<u8>, &[u8]); 5] = [
            ([&report[..], &[1]].concat(), &[0; 12]),
            ([&report[..], &[0]].concat(), &[0; 8]),
            ([&report[..], &[0], &[1, 0, 0, 0]].concat(), &[0; 8]),
            ([&report[..], &[0], &[0; 4]].concat(), &[0; 4]),
            ([&report[..], &[0], &[0; 8]].concat(), &[]),
        ];
        for (head, tail) in &cases {
            hostile_length(head, tail, HostMsg::decode);
        }
    }

    proptest::proptest! {
        #[test]
        fn host_msg_random_bytes_never_panic(
            tag in 0u8..=SHUTDOWN + 1,
            data in proptest::collection::vec(proptest::any::<u8>(), 0..96),
        ) {
            let _ = HostMsg::decode(&data);
            let _ = HostMsg::decode(&[&[tag][..], &data].concat());
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
