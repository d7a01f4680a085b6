//! The cluster facade: spawns sites, wires the directory, manages
//! lifecycle, and exposes LH\*<sub>RS</sub> recovery.

use crate::bucket::{BucketCtx, BucketSite, BucketState};
use crate::client::{LhClient, LhError};
use crate::coordinator::{BucketSpawner, CoordinatorSite, CoordinatorState};
use crate::filter::{ScanFilter, SubstringFilter};
use crate::hash::{address, ClientImage};
use crate::messages::{ParityRow, Wire};
use crate::parity::{reconstruct_member, ParityState};
use crate::runtime::Runtime;
use bytes::Bytes;
use parking_lot::RwLock;
use sdds_net::{Endpoint, NetConfig, NetError, Network, SiteId};
use sdds_obs::Registry;
use sdds_storage::{MemEngine, StorageConfig, StorageEngine, WriteBatch};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maps bucket addresses and parity groups to network sites. The LH\*
/// papers assume a computable address→node mapping known to all parties;
/// the directory models that static naming service. It is *not* consulted
/// for file state — clients still learn levels and split pointers only via
/// IAMs, which is the protocol under test.
pub struct Directory {
    buckets: RwLock<Vec<Option<SiteId>>>,
    parity: RwLock<HashMap<u64, Vec<SiteId>>>,
    /// Static addressing (TCP transport): bucket `addr` *is* site id
    /// `addr`; the registry's modular partition decides which process
    /// hosts it, so no dynamic site table is needed — only the set of
    /// addresses retired by merges.
    static_addrs: bool,
    retired: RwLock<std::collections::HashSet<u64>>,
}

impl Directory {
    pub(crate) fn new() -> Directory {
        Directory {
            buckets: RwLock::new(Vec::new()),
            parity: RwLock::new(HashMap::new()),
            static_addrs: false,
            retired: RwLock::new(std::collections::HashSet::new()),
        }
    }

    /// A directory whose address→site mapping is the identity: used by
    /// the TCP transport, where bucket sites register under their bucket
    /// address and the registry routes by id.
    pub(crate) fn new_static() -> Directory {
        Directory {
            static_addrs: true,
            ..Directory::new()
        }
    }

    pub(crate) fn set_bucket(&self, addr: u64, site: SiteId) {
        if self.static_addrs {
            self.retired.write().remove(&addr);
            return;
        }
        let mut v = self.buckets.write();
        if v.len() <= addr as usize {
            v.resize(addr as usize + 1, None);
        }
        v[addr as usize] = Some(site);
    }

    pub(crate) fn clear_bucket(&self, addr: u64) {
        if self.static_addrs {
            self.retired.write().insert(addr);
            return;
        }
        if let Some(slot) = self.buckets.write().get_mut(addr as usize) {
            *slot = None;
        }
    }

    pub(crate) fn bucket_site(&self, addr: u64) -> Option<SiteId> {
        if self.static_addrs {
            if self.retired.read().contains(&addr) {
                return None;
            }
            return Some(SiteId(addr as u32));
        }
        self.buckets.read().get(addr as usize).copied().flatten()
    }

    /// Number of bucket addresses ever materialised.
    pub(crate) fn num_buckets(&self) -> usize {
        self.buckets.read().len()
    }

    pub(crate) fn set_parity(&self, group: u64, sites: Vec<SiteId>) {
        self.parity.write().insert(group, sites);
    }

    pub(crate) fn parity_sites(&self, group: u64) -> Vec<SiteId> {
        self.parity.read().get(&group).cloned().unwrap_or_default()
    }
}

/// A consistent snapshot of an LH\* file: file state plus all bucket
/// contents. Serializable, so files survive process restarts
/// (`serde_json::to_string` / `from_str`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FileSnapshot {
    /// File level at snapshot time.
    pub level: u8,
    /// Split pointer at snapshot time.
    pub split: u64,
    /// Per-bucket contents, address-ordered.
    pub buckets: Vec<BucketSnapshot>,
}

impl FileSnapshot {
    /// Total records across all buckets.
    pub fn record_count(&self) -> usize {
        self.buckets.iter().map(|b| b.records.len()).sum()
    }
}

/// One bucket's part of a [`FileSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BucketSnapshot {
    /// Bucket address.
    pub addr: u64,
    /// Bucket level at snapshot time.
    pub level: u8,
    /// All records of the bucket.
    pub records: Vec<(u64, Vec<u8>)>,
}

/// LH\*<sub>RS</sub> parity parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// Data buckets per parity group (`k`).
    pub group_size: usize,
    /// Parity sites per group (`m`) — failures survivable per group.
    pub parity_count: usize,
    /// Fixed record slot size in bytes (values may be at most
    /// `slot_size - 2` bytes).
    pub slot_size: usize,
}

impl Default for ParityConfig {
    fn default() -> ParityConfig {
        ParityConfig {
            group_size: 4,
            parity_count: 1,
            slot_size: 256,
        }
    }
}

/// Observability options for a served rank's host control loop (the
/// periodic tick that feeds the snapshot ring, refreshes the loop-health
/// watchdog gauge, and optionally flushes the flight recorder).
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Interval between observability ticks.
    pub tick: Duration,
    /// Snapshot-ring capacity: how many timestamped metrics snapshots the
    /// rank retains for post-hoc scraping (`HostMsg::ObsPull` with
    /// `history`). 0 disables the ring.
    pub history: usize,
    /// When set, each tick drains the rank's flight recorder to this
    /// JSONL file, so traces survive a SIGKILL up to the last flush.
    /// Mutually exclusive in practice with span scraping: both drain the
    /// same process-global recorder, so a scrape after a flush returns
    /// only the spans recorded since.
    pub trace_flush: Option<std::path::PathBuf>,
}

impl Default for ObsOptions {
    fn default() -> ObsOptions {
        ObsOptions {
            tick: Duration::from_millis(500),
            history: 64,
            trace_flush: None,
        }
    }
}

/// Cluster construction parameters.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Records per bucket before an overflow is reported (LH\* splits keep
    /// the load near this bound).
    pub bucket_capacity: usize,
    /// Enables LH\*<sub>RS</sub> record-group parity.
    pub parity: Option<ParityConfig>,
    /// Scan filter installed at every bucket.
    pub filter: Arc<dyn ScanFilter>,
    /// Latency model for the simulated network.
    pub net: NetConfig,
    /// Storage backend for bucket records: volatile in-memory (the
    /// default) or durable WAL+snapshot directories.
    pub storage: StorageConfig,
    /// Total per-operation timeout handed to every client this cluster
    /// creates (spread over the client's retransmit attempts). Short
    /// timeouts make clients re-request shed replies quickly — the right
    /// trade under bounded inboxes, where replies are dropped rather than
    /// queued without limit.
    pub client_timeout: Duration,
    /// Host-loop observability: snapshot-ring tick, history depth, and
    /// optional periodic trace flush (served ranks only; the in-process
    /// transport has no host loop to run the tick).
    pub obs: ObsOptions,
}

impl fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("bucket_capacity", &self.bucket_capacity)
            .field("parity", &self.parity)
            .field("storage", &self.storage)
            .finish()
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            bucket_capacity: 64,
            parity: None,
            filter: Arc::new(SubstringFilter),
            net: NetConfig::default(),
            storage: StorageConfig::Mem,
            client_timeout: Duration::from_secs(10),
            obs: ObsOptions::default(),
        }
    }
}

/// A running LH\* file: coordinator + bucket sites (+ parity sites), all on
/// the simulated multicomputer, all run by one site runtime.
pub struct LhCluster {
    network: Network,
    directory: Arc<Directory>,
    coordinator: SiteId,
    config: ClusterConfig,
    runtime: Arc<Runtime>,
    builder: SiteBuilder,
}

impl LhCluster {
    /// Starts a cluster with one bucket and its coordinator.
    pub fn start(config: ClusterConfig) -> LhCluster {
        let (cluster, coordinator_ep) = LhCluster::empty(config);
        // bucket 0 — the primordial file
        cluster.builder.spawn(0, 0);
        cluster.launch_coordinator(coordinator_ep);
        cluster
    }

    /// The network, directory and runtime of a cluster without sites yet,
    /// and the coordinator's endpoint, registered but not running.
    fn empty(config: ClusterConfig) -> (LhCluster, Endpoint) {
        let network = Network::new(config.net.clone());
        let directory = Arc::new(Directory::new());
        let runtime = Runtime::start();
        let coordinator_ep = network.register();
        let coordinator = coordinator_ep.id();
        let builder = SiteBuilder::new(&network, &directory, &config, coordinator, &runtime);
        let cluster = LhCluster {
            network,
            directory,
            coordinator,
            config,
            runtime,
            builder,
        };
        (cluster, coordinator_ep)
    }

    fn launch_coordinator(&self, endpoint: Endpoint) {
        let builder = self.builder.clone();
        let spawner = Box::new(move |addr: u64, level: u8| builder.spawn(addr, level));
        self.builder.launch_coordinator(endpoint, spawner);
    }

    /// Reopens a durable file from the bucket directories under the
    /// config's data dir. Falls back to [`start`](Self::start) when no
    /// buckets exist yet (including the in-memory backend).
    ///
    /// LH\* file state is never persisted separately: it is *derived* from
    /// the number of bucket directories via the split invariant
    /// `n = 2^level + split`. A crash mid-transfer can leave records in a
    /// bucket the derived state no longer maps them to (or in two buckets
    /// at once), so before any site thread starts, a re-address pass moves
    /// every record to its home bucket — preferring the home copy when the
    /// crash left duplicates, since the home copy was the one durably
    /// acknowledged.
    pub fn open(config: ClusterConfig) -> Result<LhCluster, LhError> {
        let addrs = config
            .storage
            .existing_bucket_addrs()
            .map_err(|e| LhError::Storage(e.to_string()))?;
        let n = match addrs.iter().max() {
            // fresh data dir (or Mem backend): nothing to recover
            None => return Ok(LhCluster::start(config)),
            Some(&hi) => hi + 1,
        };
        if n == 1 {
            // a single-bucket file is exactly what `start` builds; bucket
            // 0's spawner reopens the directory and `startup` rebuilds the
            // in-memory bookkeeping
            return Ok(LhCluster::start(config));
        }
        let level = (63 - n.leading_zeros()) as u8;
        let split = n - (1u64 << level);
        let image = ClientImage { level, split };

        // Re-address pass, strictly before any site exists (the
        // engines are opened exclusively here and dropped again).
        let mut engines: Vec<Box<dyn StorageEngine>> = Vec::with_capacity(n as usize);
        for addr in 0..n {
            let engine = config
                .storage
                .open_bucket(addr)
                .map_err(|e| LhError::Storage(format!("bucket {addr}: {e}")))?;
            engines.push(engine);
        }
        // (source bucket, key, value, home bucket)
        let mut strays: Vec<(usize, u64, Vec<u8>, usize)> = Vec::new();
        for (addr, engine) in engines.iter().enumerate() {
            engine.for_each(&mut |key, value| {
                let home = address(key, level, split) as usize;
                if home != addr {
                    strays.push((addr, key, value.to_vec(), home));
                }
            });
        }
        if !strays.is_empty() {
            sdds_obs::counter("storage.readdressed_records").add(strays.len() as u64);
            let mut batches: Vec<WriteBatch> = (0..n).map(|_| WriteBatch::new()).collect();
            for (from, key, value, home) in strays {
                // A transfer that crashed after the target's durable apply
                // but before the source's delete leaves two copies; the
                // home one was acknowledged, so it wins.
                if !engines[home].contains(key) {
                    batches[home].put(key, value);
                }
                batches[from].delete(key);
            }
            for (addr, batch) in batches.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let engine = &mut engines[addr];
                engine
                    .apply_batch(&batch)
                    .and_then(|()| engine.flush())
                    .map_err(|e| LhError::Storage(format!("bucket {addr}: {e}")))?;
            }
        }
        // release the WAL handles before the bucket sites reopen them
        drop(engines);

        let (cluster, coordinator_ep) = LhCluster::empty(config);
        let coordinator = cluster.coordinator;
        cluster.launch_coordinator(coordinator_ep);

        // The coordinator must adopt the derived file state before any
        // recovered bucket can report an overflow; mailbox delivery is
        // FIFO, so sending this before the buckets are launched
        // guarantees it.
        let control = cluster.network.register();
        send_control(
            &control,
            coordinator,
            Wire::AdoptFileState { level, split }.encode(),
        )?;

        // Two-phase spawn: every directory entry must be published before
        // any bucket runs. An early bucket's startup overflow report can
        // trigger a split whose victim the coordinator looks up in the
        // directory — launching as we register would race that lookup
        // against the rest of this loop.
        let endpoints: Vec<(u64, Endpoint)> = (0..n)
            .map(|addr| (addr, cluster.builder.register(addr)))
            .collect();
        for (addr, ep) in endpoints {
            cluster
                .builder
                .launch(addr, bucket_level(addr, image), ep, true);
        }
        Ok(cluster)
    }

    /// Registers a new client of the file.
    pub fn client(&self) -> LhClient {
        let client = LhClient::new(
            self.network.register(),
            self.directory.clone(),
            self.coordinator,
        );
        client.set_timeout(self.config.client_timeout);
        client
    }

    /// The underlying network (for traffic statistics).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Number of bucket addresses materialised so far.
    pub fn num_buckets(&self) -> usize {
        self.directory.num_buckets()
    }

    /// Kills a bucket site (crash simulation for LH\*<sub>RS</sub> tests).
    /// The address is kept reserved; [`recover_bucket`](Self::recover_bucket)
    /// restores it.
    pub fn kill_bucket(&self, addr: u64) {
        if let Some(site) = self.directory.bucket_site(addr) {
            let control = self.network.register();
            let _ = send_control(&control, site, Wire::Shutdown.encode());
            self.directory.clear_bucket(addr);
        }
    }

    /// Recovers a killed bucket from its group's survivors and parity
    /// sites, spawning a fresh site that adopts the reconstructed state.
    ///
    /// Requires parity to be enabled and mutations to the group to be
    /// quiescent during the recovery (as in LH\*RS, where the coordinator
    /// locks the group).
    pub fn recover_bucket(&self, addr: u64) -> Result<(), LhError> {
        let cfg = self
            .config
            .parity
            .ok_or_else(|| LhError::Rejected("parity not enabled".into()))?;
        // Root of the recovery trace (unless the caller already opened
        // one): the slot-table reads, parity reads and the final Adopt all
        // carry this context.
        let mut op_span = sdds_obs::trace::child_span("client.recover");
        op_span.set_detail(addr);
        sdds_obs::counter("lh.recoveries").inc();
        let _timer = sdds_obs::histogram("lh.recovery_seconds").start_timer();
        let k = cfg.group_size;
        let m = cfg.parity_count;
        let group = addr / k as u64;
        let failed = (addr % k as u64) as usize;
        let control = self.network.register();
        let timeout = Duration::from_secs(10);
        // the true file extent distinguishes merged-away members (empty by
        // construction: the merge shipped their records out and emitted
        // the parity removals) from crashed ones
        let extent = {
            let probe = self.client();
            probe.refresh_image()?;
            probe.image()
        };
        let file_extent = extent.extent();

        // 1. survivors' slot tables
        #[allow(clippy::type_complexity)]
        let mut members: Vec<Option<Vec<Option<(u64, Vec<u8>)>>>> = vec![None; k];
        let mut awaiting: HashMap<u64, usize> = HashMap::new(); // req_id -> member
        let mut req_id = 1u64;
        #[allow(clippy::needless_range_loop)] // `member` is also arithmetic input
        for member in 0..k {
            let baddr = group * k as u64 + member as u64;
            if member == failed {
                continue;
            }
            match self.directory.bucket_site(baddr) {
                Some(site) => {
                    let msg = Wire::SlotsRead {
                        req_id,
                        client: control.id().0,
                    };
                    send_control(&control, site, msg.encode())?;
                    awaiting.insert(req_id, member);
                    req_id += 1;
                }
                // never created, or retired by a merge: holds no records
                None if baddr as usize >= self.directory.num_buckets() || baddr >= file_extent => {
                    members[member] = Some(Vec::new());
                }
                None => {
                    return Err(LhError::Rejected(format!(
                        "member bucket {baddr} is also down; need {m} or fewer failures"
                    )))
                }
            }
        }
        // 2. parity rows
        let mut parities: Vec<Option<Vec<ParityRow>>> = vec![None; m];
        let psites = self.directory.parity_sites(group);
        for site in &psites {
            let msg = Wire::ParityRead {
                req_id,
                client: control.id().0,
                group,
            };
            send_control(&control, *site, msg.encode())?;
            awaiting.insert(req_id, usize::MAX); // parity marker
            req_id += 1;
        }
        // 3. gather
        let deadline = Instant::now() + timeout;
        let mut outstanding = awaiting.len();
        while outstanding > 0 {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(LhError::Timeout)?;
            let env = match control.recv_timeout(remaining) {
                Ok(env) => env,
                Err(NetError::Timeout) => return Err(LhError::Timeout),
                Err(e) => return Err(e.into()),
            };
            match Wire::decode(&env.payload) {
                Some(Wire::SlotsState {
                    req_id: rid, slots, ..
                }) => {
                    if let Some(&member) = awaiting.get(&rid) {
                        members[member] = Some(slots);
                        outstanding -= 1;
                    }
                }
                Some(Wire::ParityState {
                    req_id: rid,
                    parity_index,
                    rows,
                }) => {
                    if awaiting.contains_key(&rid) {
                        parities[parity_index as usize] = Some(rows);
                        outstanding -= 1;
                    }
                }
                _ => continue,
            }
        }
        // 4. reconstruct
        let slots = reconstruct_member(k, m, cfg.slot_size, failed, &members, &parities)
            .map_err(LhError::Rejected)?;
        // 5. spawn a fresh site and adopt at the level the true file
        // state implies.
        let level = bucket_level(addr, extent);
        let site = self.builder.spawn(addr, level);
        send_control(&control, site, Wire::Adopt { addr, level, slots }.encode())?;
        Ok(())
    }

    /// Takes a consistent snapshot of the file: the coordinator's state
    /// plus every bucket's contents. Mutations must be quiescent (the
    /// classic external-backup contract). Like scans, the snapshot first
    /// waits out any split or merge still running or queued — an acked
    /// insert can leave a structural change in flight, and a `Dump` that
    /// raced its `TransferBatch` would miss the records mid-move.
    pub fn snapshot(&self) -> Result<FileSnapshot, LhError> {
        let probe = self.client();
        probe.refresh_image_quiescent()?;
        let image = probe.image();
        let control = self.network.register();
        let mut awaiting = std::collections::HashMap::new();
        for (req_id, addr) in (0..image.extent()).enumerate() {
            let Some(site) = self.directory.bucket_site(addr) else {
                return Err(LhError::Rejected(format!(
                    "bucket {addr} is down; recover it before snapshotting"
                )));
            };
            send_control(
                &control,
                site,
                Wire::Dump {
                    req_id: req_id as u64,
                    client: control.id().0,
                }
                .encode(),
            )?;
            awaiting.insert(req_id as u64, addr);
        }
        let mut buckets: Vec<BucketSnapshot> = Vec::with_capacity(awaiting.len());
        let deadline = Instant::now() + Duration::from_secs(30);
        while !awaiting.is_empty() {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(LhError::Timeout)?;
            let env = match control.recv_timeout(remaining) {
                Ok(env) => env,
                Err(NetError::Timeout) => return Err(LhError::Timeout),
                Err(e) => return Err(e.into()),
            };
            if let Some(Wire::DumpState {
                req_id,
                addr,
                level,
                records,
            }) = Wire::decode(&env.payload)
            {
                if awaiting.remove(&req_id).is_some() {
                    buckets.push(BucketSnapshot {
                        addr,
                        level,
                        records,
                    });
                }
            }
        }
        buckets.sort_by_key(|b| b.addr);
        Ok(FileSnapshot {
            level: image.level,
            split: image.split,
            buckets,
        })
    }

    /// Starts a fresh cluster and repopulates it from a snapshot: the
    /// coordinator adopts the file state, the bucket sites are spawned at
    /// their recorded levels, and contents are replayed (rebuilding
    /// LH\*<sub>RS</sub> parity when the new config enables it).
    pub fn restore(config: ClusterConfig, snapshot: &FileSnapshot) -> Result<LhCluster, LhError> {
        if let Some(p) = config.parity {
            // the replay path bypasses the insert-time size check, so an
            // oversized value would panic the bucket's slot encoder
            for b in &snapshot.buckets {
                if let Some((key, v)) = b.records.iter().find(|(_, v)| v.len() + 2 > p.slot_size) {
                    return Err(LhError::Rejected(format!(
                        "snapshot record {key} ({} bytes) exceeds the parity slot                          capacity {}; restore with a larger slot_size or without parity",
                        v.len(),
                        p.slot_size - 2
                    )));
                }
            }
        }
        let cluster = LhCluster::start(config);
        let control = cluster.network.register();
        send_control(
            &control,
            cluster.coordinator,
            Wire::AdoptFileState {
                level: snapshot.level,
                split: snapshot.split,
            }
            .encode(),
        )?;
        for b in &snapshot.buckets {
            if b.addr > 0 {
                cluster.builder.spawn(b.addr, b.level);
            }
        }
        for b in &snapshot.buckets {
            // lint: allow(panic-freedom) -- the spawn loop directly above registered every snapshot bucket
            let site = cluster.directory.bucket_site(b.addr).expect("just spawned");
            send_control(
                &control,
                site,
                Wire::TransferBatch {
                    level: b.level,
                    addr: b.addr,
                    records: b.records.clone(),
                }
                .encode(),
            )?;
        }
        Ok(cluster)
    }

    /// Stops the cluster: the sites finish what is already in their
    /// inboxes, then every site's state — its storage engine included —
    /// is dropped and the runtime's workers are joined before this
    /// returns. Dropping the cluster does the same.
    pub fn shutdown(self) {}
}

impl Drop for LhCluster {
    fn drop(&mut self) {
        self.runtime.shutdown();
    }
}

/// Sends a cluster-lifecycle message, retrying briefly while the
/// destination's bounded inbox rejects it. Admission control may shed
/// client traffic freely, but shutdown/recovery/restore messages must
/// land for the cluster to make progress — and the receiving site is
/// live and draining, so a full inbox clears within the retry window.
pub(crate) fn send_control(ep: &Endpoint, to: SiteId, payload: Bytes) -> Result<(), NetError> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ep.send(to, payload.clone()) {
            Err(NetError::Overloaded(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200));
            }
            other => return other,
        }
    }
}

/// Level of bucket `addr` in a file whose true state is `image`.
fn bucket_level(addr: u64, image: ClientImage) -> u8 {
    if addr < image.split || addr >= (1u64 << image.level) {
        image.level + 1
    } else {
        image.level
    }
}

/// Materialises bucket sites in two phases — `register` (endpoint +
/// directory entry + lazy parity sites) and `launch` (engine + hand-over
/// to the runtime) — so `open` can publish every recovered bucket's
/// directory entry before any bucket runs. A bucket's startup overflow
/// report can reach the coordinator while later buckets are still being
/// set up; the split it triggers looks its victim up in the directory,
/// which must therefore be complete first.
#[derive(Clone)]
pub(crate) struct SiteBuilder {
    network: Network,
    directory: Arc<Directory>,
    capacity: usize,
    parity: Option<ParityConfig>,
    filter: Arc<dyn ScanFilter>,
    storage: StorageConfig,
    coordinator: SiteId,
    runtime: Arc<Runtime>,
}

impl SiteBuilder {
    pub(crate) fn new(
        network: &Network,
        directory: &Arc<Directory>,
        config: &ClusterConfig,
        coordinator: SiteId,
        runtime: &Arc<Runtime>,
    ) -> SiteBuilder {
        SiteBuilder {
            network: network.clone(),
            directory: directory.clone(),
            capacity: config.bucket_capacity,
            parity: config.parity,
            filter: config.filter.clone(),
            storage: config.storage.clone(),
            coordinator,
            runtime: runtime.clone(),
        }
    }

    /// Registers the bucket's endpoint and directory entry (and, lazily,
    /// its group's parity sites) without starting the bucket.
    fn register(&self, addr: u64) -> Endpoint {
        if let Some(cfg) = self.parity {
            let group = addr / cfg.group_size as u64;
            if self.directory.parity_sites(group).is_empty() {
                let mut sites = Vec::with_capacity(cfg.parity_count);
                for p in 0..cfg.parity_count {
                    let ep = self.network.register();
                    sites.push(ep.id());
                    let state = ParityState::new(
                        group,
                        p as u32,
                        cfg.group_size,
                        cfg.parity_count,
                        cfg.slot_size,
                    );
                    self.runtime.add(ep, Box::new(state), Registry::global());
                }
                self.directory.set_parity(group, sites);
            }
        }
        let ep = self.network.register();
        self.directory.set_bucket(addr, ep.id());
        ep
    }

    /// Opens the bucket's storage engine and hands the bucket, on a
    /// previously registered endpoint, to the runtime. A bucket
    /// `reopened` over its own records serves at once, and so does the
    /// primordial bucket 0; every other one was spawned for a split, a
    /// restore or a recovery and waits for its contents (see
    /// [`BucketState::awaiting_records`]).
    pub(crate) fn launch(&self, addr: u64, level: u8, ep: Endpoint, reopened: bool) {
        let ctx = BucketCtx::new(
            self.directory.clone(),
            self.coordinator,
            self.filter.clone(),
            self.parity,
            // Each site gets its own labeled registry; updates flow into
            // the global aggregate so existing metric readers are
            // unaffected while per-site breakdowns become available.
            Registry::with_parent(format!("bucket-{addr}"), Registry::global()),
        );
        // A spawner cannot report failure (it runs inside the
        // coordinator's split path); if durable storage cannot open,
        // degrade this bucket to volatile memory and count it rather than
        // stall the file.
        let engine = self.storage.open_bucket(addr).unwrap_or_else(|_| {
            sdds_obs::counter("storage.open_failures").inc();
            Box::new(MemEngine::new())
        });
        let mut state = BucketState::new(
            addr,
            level,
            self.capacity,
            self.filter.index_element_bytes(),
            engine,
        );
        if !reopened && addr > 0 {
            state = state.awaiting_records();
        }
        let obs = ctx.obs.clone();
        self.runtime
            .add(ep, Box::new(BucketSite { state, ctx }), &obs);
    }

    /// Hands the coordinator, on its registered endpoint, to the runtime;
    /// `spawner` is how it materialises the buckets its splits create.
    pub(crate) fn launch_coordinator(&self, ep: Endpoint, spawner: BucketSpawner) {
        let dir = self.directory.clone();
        let retirer = Box::new(move |addr: u64| dir.clear_bucket(addr));
        let dir = self.directory.clone();
        let bucket_site = Box::new(move |addr: u64| dir.bucket_site(addr));
        let site = CoordinatorSite {
            state: CoordinatorState::new(),
            spawner,
            retirer,
            bucket_site,
        };
        self.runtime.add(ep, Box::new(site), Registry::global());
    }

    pub(crate) fn spawn(&self, addr: u64, level: u8) -> SiteId {
        let ep = self.register(addr);
        let site = ep.id();
        self.launch(addr, level, ep, false);
        site
    }
}
