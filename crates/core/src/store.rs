//! The client-facing store: the complete scheme over a live LH\* cluster.

use crate::config::{ConfigError, SchemeConfig};
use crate::pipeline::{IndexPipeline, IngestScratch, PipelineError};
use crate::query::EncryptedIndexFilter;
use sdds_chunk::CombinationRule;
use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_lh::{ClusterConfig, LhClient, LhCluster, LhError, ParityConfig, StorageConfig};
use sdds_net::NetConfig;
use sdds_obs::trace;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// LH\* layer failure.
    Lh(LhError),
    /// Pipeline failure (query too short, decryption, …).
    Pipeline(PipelineError),
    /// Configuration failure.
    Config(ConfigError),
    /// The RID does not fit the key layout (`rid < 2^(64 - tag_bits)`).
    RidTooLarge(u64),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Lh(e) => write!(f, "lh*: {e}"),
            StoreError::Pipeline(e) => write!(f, "pipeline: {e}"),
            StoreError::Config(e) => write!(f, "config: {e}"),
            StoreError::RidTooLarge(r) => write!(f, "rid {r} exceeds the key layout"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LhError> for StoreError {
    fn from(e: LhError) -> Self {
        StoreError::Lh(e)
    }
}
impl From<PipelineError> for StoreError {
    fn from(e: PipelineError) -> Self {
        StoreError::Pipeline(e)
    }
}
impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> Self {
        StoreError::Config(e)
    }
}

/// Detailed search result for experiments.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// RIDs reported after combining per-chunking verdicts.
    pub rids: Vec<u64>,
    /// RIDs where at least one index record matched (pre-combination) —
    /// the single-site answer the paper's §2.4 example warns about.
    pub candidate_rids: Vec<u64>,
    /// Number of index records the sites reported as matching.
    pub matched_index_records: usize,
    /// Candidate occurrence offsets (symbol index of the match start in
    /// the record content) per reported RID, deduplicated and sorted.
    /// Only meaningful under [`PartialChunkPolicy::Store`]; like the RIDs
    /// themselves, offsets carry the scheme's false positives.
    ///
    /// [`PartialChunkPolicy::Store`]: sdds_chunk::PartialChunkPolicy::Store
    pub positions: HashMap<u64, Vec<usize>>,
}

/// The per-stage ingest histograms paired with the throughput gauges
/// derived from them. Both names are static so the obs-drift lint can
/// reconcile them against `docs/OBSERVABILITY.md`.
const STAGE_HISTOGRAMS: [(&str, &str); 3] = [
    ("core.chunk_seconds", "core.chunk_chunks_per_sec"),
    ("core.encode_seconds", "core.encode_chunks_per_sec"),
    ("core.disperse_seconds", "core.disperse_chunks_per_sec"),
];

/// Tuning knobs for bulk ingest — see [`StoreHandle::insert_many_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOptions {
    /// Worker threads for the record → index-record transform (1 runs the
    /// transform inline on the calling thread).
    pub threads: usize,
    /// Target number of keyed entries per LH\* flush; the load proceeds in
    /// windows of `flush_index_records / (1 + c·k)` records so bucket
    /// mailboxes and split pressure stay bounded no matter how large the
    /// input iterator is.
    pub flush_index_records: usize,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            threads: 1,
            flush_index_records: 1024,
        }
    }
}

impl IngestOptions {
    /// Options with `threads` workers and the default flush size.
    pub fn with_threads(threads: usize) -> IngestOptions {
        IngestOptions {
            threads,
            ..IngestOptions::default()
        }
    }
}

/// What a bulk load did — see [`StoreHandle::insert_many_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Records loaded.
    pub records: u64,
    /// Index records produced (excluding the record-store copies).
    pub index_records: u64,
    /// Chunks transformed across all chunkings.
    pub chunks: u64,
    /// Index body bytes shipped to the sites.
    pub index_bytes: u64,
    /// Wall-clock duration of the load in seconds.
    pub elapsed_seconds: f64,
}

impl IngestStats {
    /// Records ingested per second.
    pub fn records_per_sec(&self) -> f64 {
        rate(self.records, self.elapsed_seconds)
    }

    /// Chunks transformed per second.
    pub fn chunks_per_sec(&self) -> f64 {
        rate(self.chunks, self.elapsed_seconds)
    }

    /// Index bytes produced per second.
    pub fn bytes_per_sec(&self) -> f64 {
        rate(self.index_bytes, self.elapsed_seconds)
    }
}

fn rate(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// Intersection of two ascending position lists by a linear two-pointer
/// merge. [`EncryptedQuery::match_positions`] reports positions in
/// strictly ascending order (both the Morris–Pratt and the SWP scan walk
/// the body left to right), so the merge is O(n + m) — replacing the old
/// O(n·m) `contains` filter — and its output stays ascending.
///
/// [`EncryptedQuery::match_positions`]: crate::query::EncryptedQuery::match_positions
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Builder for [`EncryptedSearchStore`].
pub struct StoreBuilder {
    config: SchemeConfig,
    master: MasterKey,
    training: Vec<String>,
    bucket_capacity: usize,
    parity: Option<ParityConfig>,
    scan_index: bool,
    storage: StorageConfig,
    net: NetConfig,
    op_timeout: Duration,
    obs: sdds_lh::ObsOptions,
}

impl StoreBuilder {
    /// Sets the master key from a passphrase.
    pub fn passphrase(mut self, passphrase: &str) -> StoreBuilder {
        self.master = MasterKey::from_passphrase(passphrase);
        self
    }

    /// Supplies the representative sample for Stage-2 codebook training.
    /// Required iff the config enables encoding.
    pub fn train<I, S>(mut self, sample: I) -> StoreBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.training = sample.into_iter().map(Into::into).collect();
        self
    }

    /// LH\* bucket capacity (records per bucket before splits).
    pub fn bucket_capacity(mut self, capacity: usize) -> StoreBuilder {
        self.bucket_capacity = capacity;
        self
    }

    /// Enables LH\*<sub>RS</sub> parity on the underlying file.
    pub fn parity(mut self, parity: ParityConfig) -> StoreBuilder {
        self.parity = Some(parity);
        self
    }

    /// Toggles the per-bucket posting index (on by default). Off, every
    /// scan is a full linear sweep — the consistency oracle and the
    /// benchmark baseline.
    pub fn scan_index(mut self, enabled: bool) -> StoreBuilder {
        self.scan_index = enabled;
        self
    }

    /// Configures the network under the cluster: fault injection
    /// (message loss), off by default.
    pub fn net(mut self, net: NetConfig) -> StoreBuilder {
        self.net = net;
        self
    }

    /// Total per-operation timeout for every client handle (spread over
    /// the client's retransmit attempts). Shorten it under fault
    /// injection: lost messages are then re-requested quickly instead of
    /// idling out long deadline tails.
    pub fn op_timeout(mut self, timeout: Duration) -> StoreBuilder {
        self.op_timeout = timeout;
        self
    }

    /// Configures the serving-side observability plane: the periodic
    /// snapshot-ring tick, the ring depth, and the optional trace-flush
    /// file (see [`sdds_lh::ObsOptions`]). Only meaningful for processes
    /// that host sites ([`start`](Self::start), [`open`](Self::open),
    /// [`serve_parts`](Self::serve_parts)).
    pub fn obs_options(mut self, obs: sdds_lh::ObsOptions) -> StoreBuilder {
        self.obs = obs;
        self
    }

    /// Selects the bucket storage backend (volatile memory by default).
    /// With [`StorageConfig::disk`], records survive process restarts:
    /// rebuild the same builder (same passphrase, config and training
    /// sample — every pipeline stage is deterministic in those) and call
    /// [`open`](Self::open) instead of [`start`](Self::start).
    pub fn storage(mut self, storage: StorageConfig) -> StoreBuilder {
        self.storage = storage;
        self
    }

    /// Starts the cluster and returns the store.
    ///
    /// Panics if encoding is enabled but no training sample was supplied —
    /// the scheme cannot build its frequency-equalising codebook from
    /// nothing (§3).
    pub fn start(self) -> EncryptedSearchStore {
        let (pipeline, cluster_config) = self.build_parts();
        let cluster = LhCluster::start(cluster_config);
        let client = cluster.client();
        let handle = StoreHandle {
            pipeline: Arc::new(pipeline),
            client,
        };
        EncryptedSearchStore { handle, cluster }
    }

    /// Reopens a durable store from its data directory (see
    /// [`storage`](Self::storage)). The builder must be configured exactly
    /// as the one that created the store — the key material, codebooks and
    /// LH\* key layout are all re-derived, not persisted. An empty data
    /// dir degenerates to [`start`](Self::start).
    ///
    /// Panics under the same conditions as `start`.
    pub fn open(self) -> Result<EncryptedSearchStore, StoreError> {
        let (pipeline, cluster_config) = self.build_parts();
        let cluster = LhCluster::open(cluster_config)?;
        let client = cluster.client();
        let handle = StoreHandle {
            pipeline: Arc::new(pipeline),
            client,
        };
        Ok(EncryptedSearchStore { handle, cluster })
    }

    /// Splits the builder into its deterministic pipeline and the cluster
    /// config without starting anything — the server half of a
    /// multi-process deployment (`sdds serve` feeds the config to
    /// [`sdds_lh::serve`]). Every process of a cluster — ranks and
    /// clients alike — must construct an identically configured builder:
    /// the key material, codebooks and scan filter are all *derived*
    /// from the config, passphrase and training sample, never shipped
    /// over the wire.
    pub fn serve_parts(self) -> (IndexPipeline, ClusterConfig) {
        self.build_parts()
    }

    /// Connects to a served multi-process cluster as a client and
    /// returns a [`RemoteStore`]. The builder must be configured exactly
    /// like the serving processes' builders (see
    /// [`serve_parts`](Self::serve_parts)); the registry must be the one
    /// the servers were started with.
    pub fn connect(self, registry: sdds_net::SiteRegistry) -> RemoteStore {
        let (pipeline, cluster_config) = self.build_parts();
        RemoteStore {
            pipeline: Arc::new(pipeline),
            cluster: LhCluster::connect(registry, cluster_config),
        }
    }

    /// The shared tail of [`start`](Self::start) and [`open`](Self::open):
    /// trains the deterministic pipeline and assembles the cluster config.
    fn build_parts(self) -> (IndexPipeline, ClusterConfig) {
        let keys = KeyMaterial::new(self.master);
        let need_training = self.config.encoding.is_some() || self.config.precompression.is_some();
        assert!(
            !need_training || !self.training.is_empty(),
            "encoding or pre-compression configured: call train() with a \
             representative sample"
        );
        let precompressor = self.config.precompression.map(|_| {
            IndexPipeline::train_precompressor(
                &self.config,
                self.training.iter().map(|s| s.as_str()),
            )
        });
        // Stage-2 training sees Stage-0 output when both are on
        let codebook = self.config.encoding.map(|_| {
            let streams: Vec<Vec<u16>> = self
                .training
                .iter()
                .map(|s| {
                    let raw: Vec<u16> = s.bytes().map(u16::from).collect();
                    match &precompressor {
                        Some(pre) => pre.compress(&raw),
                        None => raw,
                    }
                })
                .collect();
            IndexPipeline::train_codebook_streams(&self.config, &streams)
        });
        let pipeline =
            IndexPipeline::with_precompressor(self.config, keys, codebook, precompressor)
                // lint: allow(panic-freedom) -- the builder validated this config before handing it to us
                .expect("config validated");
        let filter = if self.scan_index {
            EncryptedIndexFilter::new(
                pipeline.config().element_bytes(),
                pipeline.config().tag_bits(),
            )
        } else {
            EncryptedIndexFilter::linear()
        };
        let cluster_config = ClusterConfig {
            bucket_capacity: self.bucket_capacity,
            parity: self.parity,
            filter: Arc::new(filter),
            storage: self.storage,
            net: self.net,
            client_timeout: self.op_timeout,
            obs: self.obs,
        };
        (pipeline, cluster_config)
    }
}

/// An encrypted, content-searchable scalable distributed data structure.
pub struct EncryptedSearchStore {
    handle: StoreHandle,
    cluster: LhCluster,
}

/// A client-side view of a multi-process (TCP) store: the deterministic
/// pipeline plus a connected [`LhCluster`] that hosts no site. Dropping
/// it leaves the cluster running (use
/// [`shutdown_cluster`](Self::shutdown_cluster) to stop the servers).
pub struct RemoteStore {
    pipeline: Arc<IndexPipeline>,
    cluster: LhCluster,
}

impl RemoteStore {
    /// A fresh, independently routable client handle (one per thread;
    /// each owns its endpoint and file image). The full
    /// [`StoreHandle`] API — ingest, get, search — works unchanged over
    /// TCP.
    pub fn handle(&self) -> StoreHandle {
        StoreHandle {
            pipeline: self.pipeline.clone(),
            client: self.cluster.client(),
        }
    }

    /// The transformation pipeline (for experiments that bypass the
    /// cluster).
    pub fn pipeline(&self) -> &IndexPipeline {
        &self.pipeline
    }

    /// The underlying cluster handle (traffic statistics, fault
    /// injection, snapshots, shutdown).
    pub fn cluster(&self) -> &LhCluster {
        &self.cluster
    }

    /// An observability collector scraping every serving rank's metrics,
    /// spans and snapshot history over the host control channel.
    pub fn obs(&self) -> sdds_lh::ClusterObs {
        self.cluster.obs()
    }

    /// Stops every serving rank (the `serve` processes return).
    pub fn shutdown_cluster(&self) {
        self.cluster.shutdown();
    }
}

/// An independent client handle on a running store: owns its own network
/// endpoint and file image, shares the key material and codebooks. Create
/// one per thread with [`EncryptedSearchStore::handle`] — the paper's
/// setting has many clients searching the same file concurrently.
pub struct StoreHandle {
    pipeline: Arc<IndexPipeline>,
    client: LhClient,
}

impl fmt::Debug for EncryptedSearchStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EncryptedSearchStore")
            .field("config", self.handle.pipeline.config())
            .field("buckets", &self.cluster.num_buckets())
            .finish()
    }
}

impl EncryptedSearchStore {
    /// Starts building a store for a validated configuration.
    pub fn builder(config: SchemeConfig) -> StoreBuilder {
        StoreBuilder {
            config,
            master: MasterKey::new([0; 16]),
            training: Vec::new(),
            bucket_capacity: 64,
            parity: None,
            scan_index: true,
            storage: StorageConfig::Mem,
            net: NetConfig::default(),
            op_timeout: Duration::from_secs(10),
            obs: sdds_lh::ObsOptions::default(),
        }
    }

    /// The transformation pipeline (for experiments that bypass the
    /// cluster).
    pub fn pipeline(&self) -> &IndexPipeline {
        &self.handle.pipeline
    }

    /// The underlying cluster (for traffic statistics and fault
    /// injection).
    pub fn cluster(&self) -> &LhCluster {
        &self.cluster
    }

    /// A fresh, independently routable client handle for concurrent use
    /// from other threads (each handle owns its endpoint and image).
    pub fn handle(&self) -> StoreHandle {
        StoreHandle {
            pipeline: self.handle.pipeline.clone(),
            client: self.cluster.client(),
        }
    }

    /// Stores a record — see [`StoreHandle::insert`].
    pub fn insert(&self, rid: u64, rc: &str) -> Result<(), StoreError> {
        self.handle.insert(rid, rc)
    }

    /// Bulk load — see [`StoreHandle::insert_many`].
    pub fn insert_many<'a, I>(&self, records: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        self.handle.insert_many(records)
    }

    /// Tuned bulk load — see [`StoreHandle::insert_many_with`].
    pub fn insert_many_with<'a, I>(
        &self,
        records: I,
        opts: IngestOptions,
    ) -> Result<IngestStats, StoreError>
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        self.handle.insert_many_with(records, opts)
    }

    /// Fetches and decrypts a record — see [`StoreHandle::get`].
    pub fn get(&self, rid: u64) -> Result<Option<String>, StoreError> {
        self.handle.get(rid)
    }

    /// Deletes a record — see [`StoreHandle::delete`].
    pub fn delete(&self, rid: u64) -> Result<bool, StoreError> {
        self.handle.delete(rid)
    }

    /// Bulk delete — see [`StoreHandle::delete_many`].
    pub fn delete_many<I>(&self, rids: I) -> Result<u64, StoreError>
    where
        I: IntoIterator<Item = u64>,
    {
        self.handle.delete_many(rids)
    }

    /// Substring search — see [`StoreHandle::search`].
    pub fn search(&self, pattern: &str) -> Result<Vec<u64>, StoreError> {
        self.handle.search(pattern)
    }

    /// Search with combination details — see
    /// [`StoreHandle::search_detailed`].
    pub fn search_detailed(&self, pattern: &str) -> Result<SearchOutcome, StoreError> {
        self.handle.search_detailed(pattern)
    }

    /// Occurrence offsets — see [`StoreHandle::search_positions`].
    pub fn search_positions(&self, pattern: &str) -> Result<HashMap<u64, Vec<usize>>, StoreError> {
        self.handle.search_positions(pattern)
    }

    /// Prefix search — see [`StoreHandle::search_starting_with`].
    pub fn search_starting_with(&self, pattern: &str) -> Result<Vec<u64>, StoreError> {
        self.handle.search_starting_with(pattern)
    }

    /// Exact-answer fetch — see [`StoreHandle::fetch_matching`].
    pub fn fetch_matching(&self, pattern: &str) -> Result<Vec<(u64, String)>, StoreError> {
        self.handle.fetch_matching(pattern)
    }

    /// Stops the cluster.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

impl StoreHandle {
    fn check_rid(&self, rid: u64) -> Result<(), StoreError> {
        let bits = self.pipeline.config().tag_bits();
        if rid >= (1u64 << (64 - bits)) {
            return Err(StoreError::RidTooLarge(rid));
        }
        Ok(())
    }

    /// Stores a record: one strongly encrypted copy plus all index
    /// records, each under its own LH\* key (§5). All `1 + c·k` inserts
    /// are pipelined into a single round-trip.
    pub fn insert(&self, rid: u64, rc: &str) -> Result<(), StoreError> {
        // Root of this operation's trace (unless an outer span is open):
        // the batched LH* inserts below inherit this context.
        let mut span = trace::child_span("client.insert");
        span.set_detail(rid);
        self.check_rid(rid)?;
        let mut batch = Vec::with_capacity(1 + self.pipeline.config().index_records_per_record());
        batch.push((
            self.pipeline.lh_key(rid, 0),
            self.pipeline.encrypt_record(rid, rc),
        ));
        for rec in self.pipeline.index_records_for(rid, rc) {
            let tag = self.pipeline.tag(rec.chunking, rec.site);
            batch.push((self.pipeline.lh_key(rid, tag), rec.body));
        }
        self.client.insert_batch(batch)?;
        Ok(())
    }

    /// Bulk load: pipelines many records' inserts into large batches —
    /// the fastest way to populate a file. Flushes in fixed-size windows
    /// (the [`IngestOptions`] default of ~1k index records per flush), so
    /// memory stays bounded for arbitrarily large inputs.
    pub fn insert_many<'a, I>(&self, records: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        self.insert_many_with(records, IngestOptions::default())
            .map(|_| ())
    }

    /// Bulk load with explicit threading and flush tuning.
    ///
    /// The record → index-record transform (Stages 1–3 plus the strong
    /// record encryption) fans out over `opts.threads` workers, each with
    /// its own reusable [`IngestScratch`]; the resulting keyed entries are
    /// flushed to the LH\* file **from the calling thread, in record
    /// order**. Every transform is deterministic in `(rid, rc)`, so the
    /// stored key → value content is byte-identical whatever the thread
    /// count (only the cluster's internal split timing varies run to run).
    ///
    /// On return the throughput gauges `core.ingest_records_per_sec`,
    /// `core.ingest_chunks_per_sec` and `core.ingest_bytes_per_sec`
    /// describe this load, and the per-stage gauges
    /// `core.{chunk,encode,disperse}_chunks_per_sec` give each stage's
    /// isolated rate (chunks over in-stage seconds).
    pub fn insert_many_with<'a, I>(
        &self,
        records: I,
        opts: IngestOptions,
    ) -> Result<IngestStats, StoreError>
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        let _span = trace::child_span("client.insert_many");
        let start = Instant::now();
        let pipeline: &IndexPipeline = &self.pipeline;
        let per = 1 + pipeline.config().index_records_per_record();
        let window_records = opts.flush_index_records.max(1).div_ceil(per).max(1);
        let pool = sdds_par::Pool::new(opts.threads);
        let index_records0 = sdds_obs::counter("core.ingest_index_records").get();
        let chunks0 = sdds_obs::counter("core.ingest_chunks").get();
        let bytes0 = sdds_obs::counter("core.ingest_index_bytes").get();
        let stage0: Vec<f64> = STAGE_HISTOGRAMS
            .iter()
            .map(|(hist, _)| sdds_obs::histogram(hist).sum())
            .collect();
        let mut stats = IngestStats::default();
        let mut iter = records.into_iter();
        loop {
            let window: Vec<(u64, &'a str)> = iter.by_ref().take(window_records).collect();
            if window.is_empty() {
                break;
            }
            for &(rid, _) in &window {
                self.check_rid(rid)?;
            }
            // a few spans per worker lets the cursor balance uneven records
            let span = window.len().div_ceil(pool.threads() * 4).max(1);
            let parts = pool.par_map_chunks_with(
                &window,
                span,
                IngestScratch::default,
                |scratch, _chunk_index, _start, records| {
                    let mut entries = Vec::with_capacity(records.len() * per);
                    let mut recs = Vec::new();
                    for &(rid, rc) in records {
                        entries.push((pipeline.lh_key(rid, 0), pipeline.encrypt_record(rid, rc)));
                        pipeline.index_records_into(rid, rc, scratch, &mut recs);
                        for rec in recs.drain(..) {
                            let tag = pipeline.tag(rec.chunking, rec.site);
                            entries.push((pipeline.lh_key(rid, tag), rec.body));
                        }
                    }
                    entries
                },
            );
            stats.records += window.len() as u64;
            // one ordered flush per window from the calling thread: the
            // file receives the same batches in the same order whatever
            // the thread count (bucket *split timing* still varies run to
            // run — the cluster splits concurrently — but the stored
            // key → value content is identical)
            let mut batch = Vec::with_capacity(window.len() * per);
            for part in parts {
                batch.extend(part);
            }
            self.client.insert_batch(batch)?;
        }
        stats.index_records = sdds_obs::counter("core.ingest_index_records").get() - index_records0;
        stats.chunks = sdds_obs::counter("core.ingest_chunks").get() - chunks0;
        stats.index_bytes = sdds_obs::counter("core.ingest_index_bytes").get() - bytes0;
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        sdds_obs::gauge("core.ingest_records_per_sec").set(stats.records_per_sec() as i64);
        sdds_obs::gauge("core.ingest_chunks_per_sec").set(stats.chunks_per_sec() as i64);
        sdds_obs::gauge("core.ingest_bytes_per_sec").set(stats.bytes_per_sec() as i64);
        for ((hist, gauge), &before) in STAGE_HISTOGRAMS.iter().zip(&stage0) {
            let in_stage = sdds_obs::histogram(hist).sum() - before;
            sdds_obs::gauge(gauge).set(rate(stats.chunks, in_stage) as i64);
        }
        Ok(stats)
    }

    /// Fetches and decrypts a record by RID.
    pub fn get(&self, rid: u64) -> Result<Option<String>, StoreError> {
        let mut span = trace::child_span("client.get");
        span.set_detail(rid);
        self.check_rid(rid)?;
        match self.client.lookup(self.pipeline.lh_key(rid, 0))? {
            Some(ct) => Ok(Some(self.pipeline.decrypt_record(rid, &ct)?)),
            None => Ok(None),
        }
    }

    /// Deletes a record and all its index records. All `1 + c·k` deletes
    /// are pipelined into a single round trip (mirroring [`insert`]).
    ///
    /// [`insert`]: Self::insert
    pub fn delete(&self, rid: u64) -> Result<bool, StoreError> {
        let mut span = trace::child_span("client.delete");
        span.set_detail(rid);
        self.check_rid(rid)?;
        let per = self.pipeline.config().index_records_per_record() as u32;
        let keys: Vec<u64> = (0..=per)
            .map(|tag| self.pipeline.lh_key(rid, tag))
            .collect();
        let existed = self.client.delete_batch(keys)?;
        // slot 0 is the tag-0 record-store copy: its existence is the
        // record's existence
        Ok(existed.first().copied().unwrap_or(false))
    }

    /// Bulk delete: pipelines every record's `1 + c·k` deletes into one
    /// batched round trip. Returns how many of the given records existed.
    pub fn delete_many<I>(&self, rids: I) -> Result<u64, StoreError>
    where
        I: IntoIterator<Item = u64>,
    {
        let _span = trace::child_span("client.delete_many");
        let per = self.pipeline.config().index_records_per_record() as u32;
        let mut keys = Vec::new();
        // input slots of the tag-0 record-store copies
        let mut record_slots = Vec::new();
        for rid in rids {
            self.check_rid(rid)?;
            record_slots.push(keys.len());
            keys.extend((0..=per).map(|tag| self.pipeline.lh_key(rid, tag)));
        }
        let existed = self.client.delete_batch(keys)?;
        Ok(record_slots
            .into_iter()
            .filter(|&slot| existed.get(slot).copied().unwrap_or(false))
            .count() as u64)
    }

    /// Searches for a substring pattern; returns matching RIDs (with the
    /// scheme's designed false positives).
    pub fn search(&self, pattern: &str) -> Result<Vec<u64>, StoreError> {
        Ok(self.search_detailed(pattern)?.rids)
    }

    /// Searches and reports combination details.
    ///
    /// On return the gauge `core.search_queries_per_sec` holds the
    /// process-lifetime average search rate (queries over in-search
    /// seconds), derived from the `core.search_seconds` histogram.
    pub fn search_detailed(&self, pattern: &str) -> Result<SearchOutcome, StoreError> {
        // Root of the search trace: the scan fan-out, every bucket's scan
        // span, and the client-side combination phase chain under it.
        let _span = trace::child_span("client.search");
        let timer = sdds_obs::histogram("core.search_seconds").start_timer();
        let outcome = self.search_uninstrumented(pattern);
        drop(timer);
        let hist = sdds_obs::histogram("core.search_seconds");
        let in_search = hist.sum();
        if in_search > 0.0 {
            sdds_obs::gauge("core.search_queries_per_sec")
                .set(rate(hist.count(), in_search) as i64);
        }
        outcome
    }

    fn search_uninstrumented(&self, pattern: &str) -> Result<SearchOutcome, StoreError> {
        let query = self.pipeline.build_query(pattern)?;
        let payload = query.encode();
        let matches = self.client.scan(&payload, false)?;
        let matched_index_records = matches.len();
        let c = self.pipeline.config().chunking.num_chunkings();
        let k = self.pipeline.config().k();
        // rid -> (chunking, site) -> body
        let mut by_rid: HashMap<u64, HashMap<(usize, usize), Vec<u8>>> = HashMap::new();
        for m in matches {
            let (rid, tag) = self.pipeline.parse_key(m.key);
            if tag == 0 {
                continue;
            }
            let idx = (tag - 1) as usize;
            let (chunking, site) = (idx / k, idx % k);
            if let Some(body) = m.value {
                by_rid
                    .entry(rid)
                    .or_default()
                    .insert((chunking, site), body);
            }
        }
        // The dispersion-site gather: the per-(chunking, site) bodies
        // collected above are combined into record verdicts (§4/§5).
        let mut combine_span = trace::child_span("search.combine");
        combine_span.set_detail(by_rid.len() as u64);
        let mut rids = Vec::new();
        let mut candidate_rids: Vec<u64> = by_rid.keys().copied().collect();
        candidate_rids.sort_unstable();
        let mut positions: HashMap<u64, Vec<usize>> = HashMap::new();
        for (&rid, bodies) in &by_rid {
            let mut chunking_offsets = Vec::with_capacity(c);
            for j in 0..c {
                chunking_offsets.push(self.chunking_offsets(&query, bodies, j, k));
            }
            let hit = match self.pipeline.config().search_mode.combination() {
                CombinationRule::All => chunking_offsets.iter().all(|o| !o.is_empty()),
                CombinationRule::Any => chunking_offsets.iter().any(|o| !o.is_empty()),
            };
            if hit {
                rids.push(rid);
                let mut offs: Vec<usize> = chunking_offsets.into_iter().flatten().collect();
                offs.sort_unstable();
                offs.dedup();
                positions.insert(rid, offs);
            }
        }
        rids.sort_unstable();
        sdds_obs::counter("core.search_candidates_pruned")
            .add(candidate_rids.len().saturating_sub(rids.len()) as u64);
        Ok(SearchOutcome {
            rids,
            candidate_rids,
            matched_index_records,
            positions,
        })
    }

    /// §4/§5 combination for one chunking: some series must match at the
    /// same chunk offset on **all** k dispersion sites. Returns the
    /// candidate occurrence offsets (record symbol positions) this
    /// chunking attests, empty when it attests none.
    fn chunking_offsets(
        &self,
        query: &crate::query::EncryptedQuery,
        bodies: &HashMap<(usize, usize), Vec<u8>>,
        chunking: usize,
        k: usize,
    ) -> Vec<usize> {
        // all sites of this chunking must have reported
        let site_bodies: Vec<&Vec<u8>> = match (0..k)
            .map(|site| bodies.get(&(chunking, site)))
            .collect::<Option<Vec<_>>>()
        {
            Some(b) => b,
            None => return Vec::new(),
        };
        let scheme = self.pipeline.config().chunking;
        let nseries = query
            .series_for(self.pipeline.tag(chunking, 0))
            .map(|s| s.len())
            .unwrap_or(0);
        let mut offsets = Vec::new();
        for d in 0..nseries {
            let mut common: Option<Vec<usize>> = None;
            for (site, body) in site_bodies.iter().enumerate() {
                let tag = self.pipeline.tag(chunking, site);
                let Some(series) = query.series_for(tag) else {
                    return Vec::new();
                };
                let positions = query.match_positions(body, &series[d]);
                common = Some(match common {
                    None => positions,
                    Some(prev) => intersect_sorted(&prev, &positions),
                });
                if common.as_ref().is_some_and(|c| c.is_empty()) {
                    break;
                }
            }
            let drop = query.series_drops.get(d).copied().unwrap_or(d);
            for m in common.unwrap_or_default() {
                // the drop-d series starting at chunk m implies the query
                // occurrence begins at chunk_start(j, m) - drop (an offset
                // into the Stage-1 symbol stream — the pair-compressed
                // stream when Stage 0 is on)
                let start = scheme.chunk_start(chunking, m) - drop as isize;
                if start >= 0 {
                    offsets.push(start as usize);
                }
            }
        }
        offsets
    }

    /// Searches and reports the candidate occurrence offsets inside each
    /// matching record — "all sites report a hit at the same offset" (§5)
    /// turned into a client API.
    pub fn search_positions(&self, pattern: &str) -> Result<HashMap<u64, Vec<usize>>, StoreError> {
        Ok(self.search_detailed(pattern)?.positions)
    }

    /// Prefix search: records whose content *starts with* the pattern —
    /// the index-level form of the paper's anchored queries ("we should
    /// actually search for 'Schwarz ' with a leading space", §2.5).
    pub fn search_starting_with(&self, pattern: &str) -> Result<Vec<u64>, StoreError> {
        let outcome = self.search_detailed(pattern)?;
        let mut rids: Vec<u64> = outcome
            .positions
            .iter()
            .filter(|(_, offs)| offs.contains(&0))
            .map(|(&rid, _)| rid)
            .collect();
        rids.sort_unstable();
        Ok(rids)
    }

    /// Convenience: search, fetch, decrypt, and filter out the scheme's
    /// false positives client-side (final precision step an application
    /// would do).
    pub fn fetch_matching(&self, pattern: &str) -> Result<Vec<(u64, String)>, StoreError> {
        let mut out = Vec::new();
        for rid in self.search(pattern)? {
            if let Some(rc) = self.get(rid)? {
                if rc.contains(pattern) {
                    out.push((rid, rc));
                } else {
                    sdds_obs::counter("core.search_false_positives").inc();
                }
            }
        }
        Ok(out)
    }
}
