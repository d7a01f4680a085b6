//! The cluster facade: spawns sites, wires the directory, manages
//! lifecycle, and exposes LH\*<sub>RS</sub> recovery.

use crate::client::{unexpected, LhClient, LhError, Route};
use crate::coordinator::{CoordinatorSite, CoordinatorState};
use crate::filter::{ScanFilter, SubstringFilter};
use crate::hash::{address, ClientImage};
use crate::messages::{ParityRow, Wire};
use crate::parity::{reconstruct_member, ParityState};
use crate::runtime::{shards_for, workers, Runtime};
use crate::shard::{BucketKit, Shard};
use sdds_net::sync::{read, write};
use sdds_net::{Endpoint, NetConfig, Network, Scatter, SiteId, SiteRegistry, COORD_ID};
use sdds_storage::{DiskEngine, HostLog, StorageConfig, StorageEngine, WriteBatch};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Names the sites of an LH\* file for whoever routes to them — the
/// computable address→node mapping the LH\* papers assume known to all
/// parties. A bucket's site id *is* its address
/// (`SiteRegistry::bucket_id`), so what the directory keeps is which
/// addresses are retired — merged away, or killed and not recovered yet
/// — and each group's parity sites. It is *not* consulted for file
/// state: clients still learn levels and split pointers only via IAMs,
/// which is the protocol under test.
pub struct Directory {
    /// `retired[addr]`: not routed to.
    retired: RwLock<Vec<bool>>,
    /// One past the highest bucket address ever spawned here.
    spawned: AtomicU64,
    parity: RwLock<HashMap<u64, Vec<SiteId>>>,
}

impl Directory {
    pub(crate) fn new() -> Directory {
        Directory {
            retired: RwLock::new(Vec::new()),
            spawned: AtomicU64::new(0),
            parity: RwLock::new(HashMap::new()),
        }
    }

    /// Bucket `addr` was spawned (again): routed to from now on.
    pub(crate) fn spawned(&self, addr: u64) {
        // ordering: Relaxed — a high-water mark read only for reporting
        self.spawned.fetch_max(addr + 1, Ordering::Relaxed);
        if let Some(retired) = write(&self.retired).get_mut(addr as usize) {
            *retired = false;
        }
    }

    pub(crate) fn retire(&self, addr: u64) {
        let mut retired = write(&self.retired);
        if retired.len() <= addr as usize {
            retired.resize(addr as usize + 1, false);
        }
        retired[addr as usize] = true;
    }

    /// A read and an array index: the identity, unless `addr` is retired.
    pub(crate) fn bucket_site(&self, addr: u64) -> Option<SiteId> {
        let retired = read(&self.retired).get(addr as usize) == Some(&true);
        (!retired).then(|| SiteRegistry::bucket_id(addr))
    }

    /// Number of bucket addresses ever materialised.
    pub(crate) fn num_buckets(&self) -> usize {
        // ordering: Relaxed — see `spawned`
        self.spawned.load(Ordering::Relaxed) as usize
    }

    pub(crate) fn set_parity(&self, group: u64, sites: Vec<SiteId>) {
        write(&self.parity).insert(group, sites);
    }

    pub(crate) fn parity_sites(&self, group: u64) -> Vec<SiteId> {
        read(&self.parity).get(&group).cloned().unwrap_or_default()
    }
}

/// A consistent snapshot of an LH\* file: file state plus all bucket
/// contents, in memory.
/// A file survives process restarts through its hosts' write-ahead logs
/// (`StorageConfig`, DESIGN.md §10), not through snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// rank retains for post-hoc scraping (`Wire::ObsPull` with
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
    /// Network parameters: fault injection.
    pub net: NetConfig,
    /// Storage backend for bucket records: volatile in-memory (the
    /// default) or durable, one write-ahead log per rank.
    pub storage: StorageConfig,
    /// Total per-operation timeout handed to every client this cluster
    /// creates (spread over the client's retransmit attempts). Short
    /// timeouts make clients re-request lost messages quickly — the right
    /// trade under fault injection.
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

/// A process's handle on an LH\* file, whichever fabric carries it: the
/// sites this process hosts (coordinator, buckets, parity sites, all run
/// by one site runtime) and the clients it hands out. In-process
/// ([`start`](Self::start), [`open`](Self::open)) it is the one rank of a
/// one-rank cluster; [`serve`](crate::serve) brings up one rank of many
/// the same way; [`connect`](Self::connect) makes a TCP client that hosts
/// no site. Its methods address sites by id and never ask which fabric
/// carries them.
pub struct LhCluster {
    pub(crate) host: Arc<SiteHost>,
}

impl LhCluster {
    /// Starts the file: a fresh one with one bucket and its coordinator,
    /// or, over a data dir that holds buckets already, the file they hold,
    /// as [`open`](Self::open) does. If that fails, a fresh file starts
    /// whose buckets refuse every write (`HostLog::refusing`): a durable
    /// file never runs in volatile memory. [`open`](Self::open) returns
    /// the error instead.
    pub fn start(config: ClusterConfig) -> LhCluster {
        LhCluster::open(config.clone()).unwrap_or_else(|_| {
            let log = match &config.storage {
                StorageConfig::Mem => None,
                StorageConfig::Disk { data_dir, options } => {
                    Some(HostLog::refusing(data_dir, options.clone()))
                }
            };
            let workers = workers();
            let (network, shards) = Network::sharded(shards_for(workers), config.net.clone());
            let host = SiteHost::new(network, Some(0), 1, config, log, workers);
            // a fresh network: the coordinator's id is free
            let _ = host.start(shards, Some((ClientImage::default(), Vec::new())));
            LhCluster { host }
        })
    }

    /// Reopens a durable file from the host log under the config's data
    /// dir, or starts a fresh one where it holds no bucket (the in-memory
    /// backend included).
    ///
    /// LH\* file state is never persisted separately: it is *derived* from
    /// the buckets the log holds via the split invariant
    /// `n = 2^level + split`. A crash mid-transfer can leave records in a
    /// bucket the derived state no longer maps them to (or in two buckets
    /// at once), so before any site exists, a re-address pass moves every
    /// record to its home bucket — preferring the home copy when the crash
    /// left duplicates, since the home copy was the one durably
    /// acknowledged. Every rank start-up does this, a served one too.
    pub fn open(config: ClusterConfig) -> Result<LhCluster, LhError> {
        LhCluster::open_on(workers(), config)
    }

    /// [`open`](Self::open) on a runtime of `workers` workers, and as many
    /// shards as that makes.
    pub(crate) fn open_on(workers: usize, config: ClusterConfig) -> Result<LhCluster, LhError> {
        let (network, shards) = Network::sharded(shards_for(workers), config.net.clone());
        LhCluster::up(workers, network, shards, 0, 1, config)
    }

    /// A client process of a served cluster: it hosts no site and runs
    /// no worker. Nothing is dialed until the first send (connections are
    /// made lazily, with backoff).
    pub fn connect(registry: SiteRegistry, config: ClusterConfig) -> LhCluster {
        let ranks = registry.num_servers();
        let network = Network::tcp_client(registry, config.net.clone());
        LhCluster {
            host: SiteHost::new(network, None, ranks, config, None, workers()),
        }
    }

    /// Brings this process up as rank `rank` of `ranks` over `network`,
    /// on a runtime of `workers` workers that runs `shards`: the file
    /// state derived from the rank's data dir ([`reopen`]), and on rank 0
    /// the coordinator and the buckets of that file, serving what they
    /// hold at once.
    pub(crate) fn up(
        workers: usize,
        network: Network,
        shards: Vec<Endpoint>,
        rank: usize,
        ranks: usize,
        config: ClusterConfig,
    ) -> Result<LhCluster, LhError> {
        let Reopened {
            image,
            log,
            engines,
        } = reopen(&config.storage, ranks)?;
        let host = SiteHost::new(network, Some(rank), ranks, config, log, workers);
        host.start(shards, (rank == 0).then_some((image, engines)))?;
        Ok(LhCluster { host })
    }

    /// Registers a new client of the file.
    pub fn client(&self) -> LhClient {
        let host = &self.host;
        let runtime = Arc::clone(&host.runtime);
        let client = LhClient::new(host.network.register(), host.directory.clone(), runtime);
        client.set_timeout(host.config.client_timeout);
        client
    }

    /// The underlying network (for traffic statistics).
    pub fn network(&self) -> &Network {
        &self.host.network
    }

    /// Number of bucket addresses this process has seen materialised.
    pub fn num_buckets(&self) -> usize {
        self.host.directory.num_buckets()
    }

    /// An observability collector scraping the host loop of every rank
    /// that [`serve`](crate::serve) runs.
    pub fn obs(&self) -> crate::ClusterObs {
        let (client, num_ranks) = (self.client(), self.host.ranks);
        crate::ClusterObs { client, num_ranks }
    }

    /// Severs this process's established connections (they
    /// re-establish with backoff on the next send).
    pub fn drop_connections(&self) {
        self.host.network.drop_connections();
    }

    /// Asks rank `rank`'s host loop to sever all of *its* connections —
    /// fault injection across the cluster, not just this process.
    pub fn sever_rank(&self, rank: usize) -> Result<(), LhError> {
        let msg = Wire::DropConns.encode();
        Ok(self.host.control().send(SiteRegistry::host_id(rank), msg)?)
    }

    /// Kills a bucket (crash simulation for LH\*<sub>RS</sub> tests): its
    /// shard drops it at the `Shutdown`, and the directory stops routing
    /// to it; [`recover_bucket`](Self::recover_bucket) restores it.
    pub fn kill_bucket(&self, addr: u64) {
        if let Some(site) = self.host.directory.bucket_site(addr) {
            let _ = self.host.control().send(site, Wire::Shutdown.encode());
            self.host.directory.retire(addr);
        }
    }

    /// Recovers a killed bucket from its group's survivors and parity
    /// sites: the `Adopt` of the reconstructed state births a fresh
    /// bucket in the address's shard.
    ///
    /// Requires parity to be enabled and mutations to the group to be
    /// quiescent during the recovery (as in LH\*RS, where the coordinator
    /// locks the group).
    pub fn recover_bucket(&self, addr: u64) -> Result<(), LhError> {
        let cfg = self
            .host
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
        // the true file extent distinguishes merged-away members (empty by
        // construction: the merge shipped their records out and emitted
        // the parity removals) from crashed ones
        let client = self.client();
        client.refresh_image()?;
        let extent = client.image();
        let file_extent = extent.extent();

        // 1. survivors' slot tables and 2. parity rows, read as one
        // exchange
        #[allow(clippy::type_complexity)]
        let mut members: Vec<Option<Vec<Option<(u64, Vec<u8>)>>>> = vec![None; k];
        let mut parities: Vec<Option<Vec<ParityRow>>> = vec![None; m];
        let mut reads = client.new_exchange();
        let mut slot_reads: HashMap<u64, usize> = HashMap::new(); // req_id -> member
        #[allow(clippy::needless_range_loop)] // `member` is also arithmetic input
        for member in 0..k {
            let baddr = group * k as u64 + member as u64;
            if member == failed {
                continue;
            }
            if baddr >= file_extent {
                // never created, or retired by a merge: holds no records
                members[member] = Some(Vec::new());
                continue;
            }
            let Some(site) = self.host.directory.bucket_site(baddr) else {
                return Err(LhError::Rejected(format!(
                    "member bucket {baddr} is also down; need {m} or fewer failures"
                )));
            };
            let read = |req_id| Wire::SlotsRead { req_id };
            slot_reads.insert(client.ask(&mut reads, Route::Site(site), read), member);
        }
        let parity_sites = self.host.directory.parity_sites(group);
        for &site in &parity_sites {
            let read = |req_id| Wire::ParityRead { req_id };
            client.ask(&mut reads, Route::Site(site), read);
        }
        // 3. gather
        client.exchange(&mut reads, |_, req_id, from, msg| {
            match msg {
                Wire::SlotsState { slots, .. } => {
                    let member = slot_reads.get(&req_id).and_then(|&i| members.get_mut(i));
                    if let Some(member) = member {
                        *member = Some(slots);
                    }
                }
                Wire::ParityState { rows, .. } => {
                    // the answering site's place in the group is its index
                    let index = parity_sites.iter().position(|&site| site == from);
                    if let Some(parity) = index.and_then(|i| parities.get_mut(i)) {
                        *parity = Some(rows);
                    }
                }
                other => return Err(unexpected(&other)),
            }
            Ok(())
        })?;
        // 4. reconstruct
        let slots = reconstruct_member(k, m, cfg.slot_size, failed, &members, &parities)
            .map_err(LhError::Rejected)?;
        // 5. birth the bucket at the level the true file state implies,
        // with the reconstructed state, and route to it once that is on
        // its way.
        let level = bucket_level(addr, extent);
        let site = SiteRegistry::bucket_id(addr);
        let adopt = Wire::Adopt { level, slots }.encode();
        self.host.control().send(site, adopt)?;
        self.host.directory.spawned(addr);
        Ok(())
    }

    /// Takes a consistent snapshot of the file: the coordinator's state
    /// plus every bucket's contents. Mutations must be quiescent (the
    /// classic external-backup contract). Like scans, the snapshot first
    /// waits out any split or merge still running or queued — an acked
    /// insert can leave a structural change in flight, and a `Dump` that
    /// raced its `TransferBatch` would miss the records mid-move.
    pub fn snapshot(&self) -> Result<FileSnapshot, LhError> {
        let client = self.client();
        client.refresh_image_quiescent()?;
        let image = client.image();
        let mut dumps = client.new_exchange();
        for addr in 0..image.extent() {
            let Some(site) = self.host.directory.bucket_site(addr) else {
                return Err(LhError::Rejected(format!(
                    "bucket {addr} is down; recover it before snapshotting"
                )));
            };
            let dump = |req_id| Wire::Dump { req_id };
            client.ask(&mut dumps, Route::Site(site), dump);
        }
        let mut buckets: Vec<BucketSnapshot> = Vec::new();
        client.exchange(&mut dumps, |_, _, from, msg| match msg {
            Wire::DumpState { level, records, .. } => {
                let bucket = BucketSnapshot {
                    addr: u64::from(from.0), // the bucket it was sent to
                    level,
                    records,
                };
                buckets.push(bucket);
                Ok(())
            }
            other => Err(unexpected(&other)),
        })?;
        buckets.sort_by_key(|b| b.addr);
        Ok(FileSnapshot {
            level: image.level,
            split: image.split,
            buckets,
        })
    }

    /// Stops the cluster: every other rank's host loop is told to shut
    /// down (a served rank's `serve` returns once its sites have stopped),
    /// then this process's sites finish what is already in their inboxes,
    /// every site's state — its storage engine included — is dropped and
    /// the runtime's workers are joined before this returns. Dropping the
    /// handle stops only this process's sites.
    pub fn shutdown(&self) {
        let host = &self.host;
        for rank in (0..host.ranks).filter(|&rank| host.rank != Some(rank)) {
            let msg = Wire::Shutdown.encode();
            let _ = host.control().send(SiteRegistry::host_id(rank), msg);
        }
        host.runtime.shutdown();
    }
}

impl Drop for LhCluster {
    fn drop(&mut self) {
        self.host.runtime.shutdown();
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

/// What a rank starts from (see [`reopen`]).
struct Reopened {
    image: ClientImage,
    log: Option<Arc<HostLog>>,
    /// The buckets' engines, by address.
    engines: Vec<DiskEngine>,
}

/// What a rank starts from: the true state of the file whose buckets
/// `storage` holds, after the re-address pass [`LhCluster::open`]
/// describes, the host log they live in, and their engines (level 0 and
/// none for a fresh data dir or the in-memory backend). Only a one-rank
/// cluster holds every bucket to derive the state from, so a rank of
/// several refuses a data dir that holds any.
fn reopen(storage: &StorageConfig, ranks: usize) -> Result<Reopened, LhError> {
    let storage_error = |e: sdds_storage::StorageError| LhError::Storage(e.to_string());
    let fresh = |log| Reopened {
        image: ClientImage::default(),
        log,
        engines: Vec::new(),
    };
    let Some((log, mut buckets)) = storage.open_log().map_err(storage_error)? else {
        return Ok(fresh(None));
    };
    let Some(&hi) = buckets.keys().next_back() else {
        return Ok(fresh(Some(log)));
    };
    if ranks > 1 {
        return Err(LhError::Rejected(format!(
            "{} holds buckets: a rank of a {ranks}-rank cluster starts only from an empty data dir",
            log.dir().display()
        )));
    }
    let n = hi + 1;
    let level = (63 - n.leading_zeros()) as u8;
    let split = n - (1u64 << level);

    let mut engines: Vec<DiskEngine> = (0..n)
        .map(|addr| buckets.remove(&addr).unwrap_or_else(|| log.engine(addr)))
        .collect();
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
            // but before the source's delete leaves two copies; the home
            // one was acknowledged, so it wins.
            if !engines[home].contains(key) {
                batches[home].put(key, value);
            }
            batches[from].delete(key);
        }
        for (addr, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                engines[addr].apply_batch(&batch).map_err(storage_error)?;
            }
        }
        log.commit().map_err(storage_error)?;
    }
    Ok(Reopened {
        image: ClientImage { level, split },
        log: Some(log),
        engines,
    })
}

/// One process's share of an LH\* file: its network, its directory, the
/// runtime that runs its sites, its rank — `None` for a client — of
/// `ranks`, and what its buckets are made of.
pub(crate) struct SiteHost {
    network: Network,
    directory: Arc<Directory>,
    runtime: Arc<Runtime>,
    /// The log of this rank's durable buckets, if they are.
    log: Option<Arc<HostLog>>,
    rank: Option<usize>,
    ranks: usize,
    config: ClusterConfig,
    /// The dynamic endpoint host-control messages and other sends that
    /// expect no reply leave from, registered at the first.
    control: OnceLock<Endpoint>,
}

impl SiteHost {
    fn new(
        network: Network,
        rank: Option<usize>,
        ranks: usize,
        config: ClusterConfig,
        log: Option<Arc<HostLog>>,
        workers: usize,
    ) -> Arc<SiteHost> {
        Arc::new(SiteHost {
            network,
            directory: Arc::new(Directory::new()),
            runtime: Runtime::with_workers(workers, log.clone()),
            log,
            rank,
            ranks,
            config,
            control: OnceLock::new(),
        })
    }

    fn control(&self) -> &Endpoint {
        self.control.get_or_init(|| self.network.register())
    }

    /// Starts the rank's sites: its shards, which hold its buckets, and
    /// on rank 0 (`file`) the coordinator and the buckets of a file whose
    /// true state is the image given — bucket 0 of a new file, or every
    /// bucket of a reopened one (one rank holds them all), serving what
    /// the engines given hold at once. Bucket `a` goes to shard
    /// `a mod shards`, the shard the network delivers its envelopes to.
    fn start(
        self: &Arc<Self>,
        shards: Vec<Endpoint>,
        file: Option<(ClientImage, Vec<DiskEngine>)>,
    ) -> Result<(), LhError> {
        let kit = BucketKit {
            directory: self.directory.clone(),
            filter: self.config.filter.clone(),
            parity: self.config.parity,
            capacity: self.config.bucket_capacity,
            log: self.log.clone(),
        };
        let mut machines: Vec<Shard> = shards.iter().map(|_| Shard::new(kit.clone())).collect();
        if let Some((image, engines)) = file {
            self.start_coordinator(image)?;
            let (mut engines, mut scatter) = (engines.into_iter(), Scatter::new());
            for addr in 0..image.extent() {
                self.parity_group(addr);
                let engine = engines
                    .next()
                    .map(|e| Box::new(e) as Box<dyn StorageEngine>);
                let (mut state, ctx) = kit.bucket(addr, bucket_level(addr, image), engine);
                // A reopened bucket rebuilds its volatile bookkeeping from
                // its records, and may report an overflow at once.
                let (shard, from) = (addr as usize % shards.len(), SiteRegistry::bucket_id(addr));
                for (to, msg) in state.startup(&ctx) {
                    let _ = shards[shard].send_as(&mut scatter, from, to, msg.encode(), None);
                }
                machines[shard].insert(addr, (state, ctx));
                self.directory.spawned(addr);
            }
        }
        for (endpoint, shard) in shards.into_iter().zip(machines) {
            self.runtime.add(endpoint, Box::new(shard));
        }
        Ok(())
    }

    /// Rank 0's coordinator, at file state `image`.
    fn start_coordinator(self: &Arc<Self>, image: ClientImage) -> Result<(), LhError> {
        let coordinator = self
            .network
            .register_with_id(SiteId(COORD_ID))
            .ok_or_else(|| LhError::Rejected("coordinator id already registered".into()))?;
        if image != ClientImage::default() {
            // The coordinator must adopt the file state before any
            // recovered bucket can report an overflow: its mailbox takes
            // this before any shard runs.
            let msg = Wire::AdoptFileState {
                level: image.level,
                split: image.split,
            };
            self.control().send(SiteId(COORD_ID), msg.encode())?;
        }
        let host = Arc::clone(self);
        let site = CoordinatorSite {
            state: CoordinatorState::default(),
            spawner: Box::new(move |addr: u64| host.parity_group(addr)),
            directory: self.directory.clone(),
        };
        self.runtime.add(coordinator, Box::new(site));
        Ok(())
    }

    /// Creates bucket `addr`'s group's parity sites, if parity is on and
    /// they do not exist yet.
    fn parity_group(&self, addr: u64) {
        let Some(cfg) = self.config.parity else {
            return;
        };
        let group = addr / cfg.group_size as u64;
        if !self.directory.parity_sites(group).is_empty() {
            return;
        }
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
            self.runtime.add(ep, Box::new(state));
        }
        self.directory.set_parity(group, sites);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grows a file, merges it back to half or less and grows it again,
    /// on `workers` workers: one gives one shard, two give two, so the
    /// early splits and the last merges cross shards. Every acked write
    /// is found by RID and by search, and every deleted one by neither,
    /// within two hops.
    fn grow_merge_grow(workers: usize) {
        let config = ClusterConfig {
            bucket_capacity: 8,
            ..ClusterConfig::default()
        };
        let cluster = LhCluster::open_on(workers, config).unwrap();
        let client = cluster.client();
        let value = |key: u64| format!("rec-{key:04}").into_bytes();
        for key in 0..400u64 {
            client.insert(key, value(key)).unwrap();
        }
        let grown = cluster.snapshot().unwrap().buckets.len();
        for key in 10..400u64 {
            client.delete(key).unwrap();
        }
        let shrunk = cluster.snapshot().unwrap().buckets.len();
        assert!(shrunk * 2 <= grown, "{grown} -> {shrunk} buckets");
        for key in 400..800u64 {
            client.insert(key, value(key)).unwrap();
        }
        let regrown = cluster.snapshot().unwrap().buckets.len();
        // most merged-away addresses are split off again
        let again = regrown * 2 > grown + shrunk;
        assert!(again, "{grown} -> {shrunk} -> {regrown} buckets");

        let live: Vec<u64> = (0..10).chain(400..800).collect();
        for key in 0..800u64 {
            let expected = live.contains(&key).then(|| value(key));
            assert_eq!(client.lookup(key).unwrap(), expected, "key {key}");
        }
        let mut found: Vec<u64> = client
            .scan(b"rec-", true)
            .unwrap()
            .iter()
            .map(|m| m.key)
            .collect();
        found.sort_unstable();
        assert_eq!(found, live);
        assert_eq!(sdds_obs::counter("lh.requests_hops_gt2").get(), 0);
        cluster.shutdown();
    }

    #[test]
    fn a_file_grows_merges_and_grows_again_in_one_shard() {
        grow_merge_grow(1);
    }

    #[test]
    fn a_file_grows_merges_and_grows_again_across_two_shards() {
        grow_merge_grow(2);
    }
}
