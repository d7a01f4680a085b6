//! Client-side cluster observability: the [`ClusterObs`] collector
//! scrapes every rank of a served TCP cluster through its host id
//! (`Wire::ObsPull` / `Wire::ObsReport`), merges the per-rank metrics
//! snapshots into one
//! cluster-wide aggregate, and stitches shipped spans into connected
//! cross-process trace trees.
//!
//! Merge semantics mirror the in-process parent/child registries:
//! counters and histograms sum, integer gauges sum (each rank's global
//! registry already holds the sum of its sites, so the cluster
//! aggregate extends parent = Σ children one level up), and float
//! gauges are carried per-rank only — a chi-square does not sum.

use crate::client::{unexpected, Exchange, LhClient, LhError, Route};
use crate::messages::Wire;
use sdds_net::SiteRegistry;
use sdds_obs::trace::{stitch, ParsedSpan, RankedSpan, TraceTree};
use sdds_obs::MetricsSnapshot;
use std::time::Duration;

/// What a scrape should pull from each rank.
#[derive(Debug, Clone)]
pub struct ScrapeOptions {
    /// Pull metrics (rank aggregate + per-site snapshots).
    pub metrics: bool,
    /// Drain and pull flight-recorder spans.
    pub spans: bool,
    /// Pull the rank's timestamped snapshot-ring history.
    pub history: bool,
    /// Overall deadline for all ranks to report.
    pub timeout: Duration,
}

impl Default for ScrapeOptions {
    fn default() -> ScrapeOptions {
        ScrapeOptions {
            metrics: true,
            spans: false,
            history: false,
            timeout: Duration::from_secs(10),
        }
    }
}

/// One rank's scrape result.
#[derive(Debug, Clone)]
pub struct RankScrape {
    /// The reporting rank.
    pub rank: usize,
    /// The rank's process-global snapshot.
    pub metrics: Option<MetricsSnapshot>,
    /// The rank's per-site (per-bucket) snapshots.
    pub sites: Vec<MetricsSnapshot>,
    /// Spans drained from the rank's flight recorder.
    pub spans: Vec<ParsedSpan>,
    /// Snapshot-ring history: (unix millis, snapshot), oldest first.
    pub history: Vec<(u64, MetricsSnapshot)>,
}

/// A whole-cluster scrape: the merged aggregate plus per-rank
/// breakdowns.
#[derive(Debug, Clone)]
pub struct ClusterScrape {
    /// Counters/gauges/histograms summed across every reporting rank
    /// (label `"cluster"`); float gauges live in the per-rank snapshots.
    pub aggregate: MetricsSnapshot,
    /// Per-rank results, ascending by rank.
    pub ranks: Vec<RankScrape>,
    /// Ranks that did not report within the timeout.
    pub missing: Vec<usize>,
}

impl ClusterScrape {
    /// Stitches the scraped spans — plus any spans drained locally in
    /// the client process (tagged rank -1) — into cross-process trace
    /// trees keyed by `trace_id`.
    pub fn traces(&self, local: Vec<ParsedSpan>) -> Vec<TraceTree> {
        let mut all: Vec<RankedSpan> = local
            .into_iter()
            .map(|span| RankedSpan { rank: -1, span })
            .collect();
        for r in &self.ranks {
            all.extend(r.spans.iter().cloned().map(|span| RankedSpan {
                rank: r.rank as i64,
                span,
            }));
        }
        stitch(all)
    }
}

/// Scrapes a served cluster's observability plane. Obtain one via
/// [`LhCluster::obs`](crate::LhCluster::obs); it holds its own client on
/// its own dynamic endpoint, so scrapes never contend with the cluster's
/// clients.
pub struct ClusterObs {
    pub(crate) client: LhClient,
    pub(crate) num_ranks: usize,
}

impl ClusterObs {
    /// Pulls metrics/spans/history from every rank, merging the metrics
    /// into one aggregate. Ranks that fail to report within the timeout
    /// are listed in [`ClusterScrape::missing`] (and counted in
    /// `obs.scrape_failures`) rather than failing the whole scrape —
    /// partial visibility into a degraded cluster is the point.
    pub fn scrape(&self, opts: &ScrapeOptions) -> Result<ClusterScrape, LhError> {
        let _timer = sdds_obs::histogram("obs.scrape_seconds").start_timer();
        // One attempt: a `spans` pull drains the flight recorder, so it
        // is never sent twice. A report is keyed by the rank asked.
        let mut ex = Exchange::new().once();
        for rank in 0..self.num_ranks {
            let msg = Wire::ObsPull {
                req_id: rank as u64,
                metrics: opts.metrics,
                spans: opts.spans,
                history: opts.history,
            };
            let host = Route::Site(SiteRegistry::host_id(rank));
            ex.add(rank as u64, host, msg.encode());
        }
        self.client.set_timeout(opts.timeout);
        let mut ranks: Vec<RankScrape> = Vec::new();
        let pulled = self.client.exchange(&mut ex, |_, rank, _, msg| {
            let Wire::ObsReport {
                metrics,
                sites,
                spans,
                history,
                ..
            } = msg
            else {
                return Err(unexpected(&msg));
            };
            let (parsed, skipped) = sdds_obs::trace::parse_jsonl(&spans);
            if skipped > 0 {
                sdds_obs::counter("obs.scrape_span_decode_failures").add(skipped as u64);
            }
            ranks.push(RankScrape {
                rank: rank as usize,
                metrics: metrics.and_then(|m| MetricsSnapshot::from_json(&m)),
                sites: sites
                    .iter()
                    .filter_map(|s| MetricsSnapshot::from_json(s))
                    .collect(),
                spans: parsed,
                history: history
                    .into_iter()
                    .filter_map(|(t, s)| MetricsSnapshot::from_json(&s).map(|m| (t, m)))
                    .collect(),
            });
            Ok(())
        });
        let mut missing: Vec<usize> = match pulled {
            Err(LhError::Timeout) => ex.unanswered().map(|rank| rank as usize).collect(),
            pulled => pulled.map(|()| Vec::new())?,
        };
        if !missing.is_empty() {
            sdds_obs::counter("obs.scrape_failures").add(missing.len() as u64);
        }
        missing.sort_unstable();
        ranks.sort_by_key(|r| r.rank);
        let parts: Vec<MetricsSnapshot> = ranks.iter().filter_map(|r| r.metrics.clone()).collect();
        Ok(ClusterScrape {
            aggregate: MetricsSnapshot::merge("cluster", &parts),
            ranks,
            missing,
        })
    }
}
