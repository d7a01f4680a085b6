//! The cluster facade: spawns sites, wires the directory, manages
//! lifecycle, and exposes LH\*<sub>RS</sub> recovery.

use crate::bucket::{BucketCtx, BucketSite, BucketState};
use crate::client::{unexpected, Exchange, LhClient, LhError, Route};
use crate::coordinator::{CoordinatorSite, CoordinatorState};
use crate::filter::{ScanFilter, SubstringFilter};
use crate::hash::{address, ClientImage};
use crate::messages::{ParityRow, Wire};
use crate::parity::{reconstruct_member, ParityState};
use crate::runtime::{Machine, Runtime};
use sdds_net::sync::{read, write};
use sdds_net::{Endpoint, NetConfig, NetError, Network, SiteId, SiteRegistry, COORD_ID};
use sdds_obs::Registry;
use sdds_storage::{MemEngine, StorageConfig, StorageEngine, WriteBatch};
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
/// contents, in memory — what [`LhCluster::restore`] starts a file from.
/// A file survives process restarts through its buckets' write-ahead
/// logs (`StorageConfig`, DESIGN.md §10), not through snapshots.
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
    /// default) or durable WAL+snapshot directories.
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
    /// as [`open`](Self::open) does. If that fails, the file starts in
    /// volatile memory and `storage.open_failures` counts it, as a bucket
    /// whose storage does not open degrades.
    pub fn start(config: ClusterConfig) -> LhCluster {
        LhCluster::open(config.clone()).unwrap_or_else(|_| {
            sdds_obs::counter("storage.open_failures").inc();
            // a fresh file in memory: nothing on the way up can fail
            LhCluster::start(ClusterConfig {
                storage: StorageConfig::Mem,
                ..config
            })
        })
    }

    /// Reopens a durable file from the bucket directories under the
    /// config's data dir, or starts a fresh one where there are none
    /// (the in-memory backend included).
    ///
    /// LH\* file state is never persisted separately: it is *derived* from
    /// the number of bucket directories via the split invariant
    /// `n = 2^level + split`. A crash mid-transfer can leave records in a
    /// bucket the derived state no longer maps them to (or in two buckets
    /// at once), so before any site exists, a re-address pass moves every
    /// record to its home bucket — preferring the home copy when the crash
    /// left duplicates, since the home copy was the one durably
    /// acknowledged. Every rank start-up does this, a served one too.
    pub fn open(config: ClusterConfig) -> Result<LhCluster, LhError> {
        LhCluster::up(Network::new(config.net.clone()), 0, 1, config)
    }

    /// A client process of a served cluster: it hosts no site and runs
    /// no worker. Nothing is dialed until the first send (connections are
    /// made lazily, with backoff).
    pub fn connect(registry: SiteRegistry, config: ClusterConfig) -> LhCluster {
        let ranks = registry.num_servers();
        let network = Network::tcp_client(registry, config.net.clone());
        LhCluster {
            host: SiteHost::new(network, None, ranks, config),
        }
    }

    /// Brings this process up as rank `rank` of `ranks` over `network`:
    /// the file state derived from the rank's data dir ([`reopen`]), and
    /// on rank 0 the coordinator and the buckets of that file, serving
    /// what they hold at once.
    pub(crate) fn up(
        network: Network,
        rank: usize,
        ranks: usize,
        config: ClusterConfig,
    ) -> Result<LhCluster, LhError> {
        let image = reopen(&config.storage, ranks)?;
        let host = SiteHost::new(network, Some(rank), ranks, config);
        if rank == 0 {
            host.start(image)?;
        }
        Ok(LhCluster { host })
    }

    /// Registers a new client of the file.
    pub fn client(&self) -> LhClient {
        let client = LhClient::new(self.host.network.register(), self.host.directory.clone());
        client.set_timeout(self.host.config.client_timeout);
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

    /// Kills a bucket site (crash simulation for LH\*<sub>RS</sub> tests).
    /// The address is kept reserved; [`recover_bucket`](Self::recover_bucket)
    /// restores it.
    pub fn kill_bucket(&self, addr: u64) {
        if let Some(site) = self.host.directory.bucket_site(addr) {
            let _ = self.host.control().send(site, Wire::Shutdown.encode());
            self.host.directory.retire(addr);
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
        let mut reads = Exchange::new();
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
        // 5. spawn a fresh site on the owning rank and adopt at the level
        // the true file state implies.
        let level = bucket_level(addr, extent);
        self.host.place(addr, level)?;
        let site = SiteRegistry::bucket_id(addr);
        let adopt = Wire::Adopt { level, slots }.encode();
        Ok(self.host.control().send(site, adopt)?)
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
        let mut dumps = Exchange::new();
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
        let control = cluster.host.control();
        let adopt = Wire::AdoptFileState {
            level: snapshot.level,
            split: snapshot.split,
        };
        control.send(SiteId(COORD_ID), adopt.encode())?;
        for b in &snapshot.buckets {
            if b.addr > 0 {
                cluster.host.place(b.addr, b.level)?;
            }
        }
        for b in &snapshot.buckets {
            let batch = Wire::TransferBatch {
                level: b.level,
                records: b.records.clone(),
            };
            control.send(SiteRegistry::bucket_id(b.addr), batch.encode())?;
        }
        Ok(cluster)
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

/// The true state of the file whose buckets `storage` holds, for a rank
/// of a `ranks`-rank cluster to start from, after the re-address pass
/// [`LhCluster::open`] describes: level 0 for a fresh data dir (or the
/// in-memory backend). Only a one-rank cluster holds every bucket to
/// derive it from, so a rank of several refuses a data dir that holds
/// any.
fn reopen(storage: &StorageConfig, ranks: usize) -> Result<ClientImage, LhError> {
    let addrs = storage
        .existing_bucket_addrs()
        .map_err(|e| LhError::Storage(e.to_string()))?;
    let Some(&hi) = addrs.iter().max() else {
        return Ok(ClientImage::default());
    };
    if ranks > 1 {
        let dir = storage.bucket_dir(hi).unwrap_or_default();
        return Err(LhError::Rejected(format!(
            "{} exists: a rank of a {ranks}-rank cluster starts only from an empty data dir",
            dir.display()
        )));
    }
    let n = hi + 1;
    let level = (63 - n.leading_zeros()) as u8;
    let split = n - (1u64 << level);

    // The engines are opened exclusively here and dropped again.
    let mut engines: Vec<Box<dyn StorageEngine>> = Vec::with_capacity(n as usize);
    for addr in 0..n {
        let engine = storage
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
            // but before the source's delete leaves two copies; the home
            // one was acknowledged, so it wins.
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
    Ok(ClientImage { level, split })
}

/// One process's share of an LH\* file: its network, its directory, the
/// runtime that runs its sites, its rank — `None` for a client — of
/// `ranks`, and what it takes to spawn a site.
pub(crate) struct SiteHost {
    network: Network,
    directory: Arc<Directory>,
    runtime: Arc<Runtime>,
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
    ) -> Arc<SiteHost> {
        Arc::new(SiteHost {
            network,
            directory: Arc::new(Directory::new()),
            runtime: Runtime::start(),
            rank,
            ranks,
            config,
            control: OnceLock::new(),
        })
    }

    fn control(&self) -> &Endpoint {
        self.control.get_or_init(|| self.network.register())
    }

    /// Rank 0's part: the coordinator and the buckets of a file whose
    /// true state is `image` — bucket 0 of a new file, or every bucket of
    /// a reopened one (one rank holds them all), serving what it holds at
    /// once. The buckets are reserved before the coordinator runs: it
    /// splits while they reopen, and a victim not spawned yet takes its
    /// `SplitCmd` all the same.
    fn start(self: &Arc<Self>, image: ClientImage) -> Result<(), LhError> {
        let coordinator = self
            .network
            .register_with_id(SiteId(COORD_ID))
            .ok_or_else(|| LhError::Rejected("coordinator id already registered".into()))?;
        if image != ClientImage::default() {
            // The coordinator must adopt the file state before any
            // recovered bucket can report an overflow: its mailbox takes
            // this before any bucket runs.
            let msg = Wire::AdoptFileState {
                level: image.level,
                split: image.split,
            };
            self.control().send(SiteId(COORD_ID), msg.encode())?;
        }
        for addr in 0..image.extent() {
            self.network.reserve(SiteRegistry::bucket_id(addr));
        }
        let host = Arc::clone(self);
        let site = CoordinatorSite {
            state: CoordinatorState::default(),
            spawner: Box::new(move |addr: u64, level: u8| {
                if host.place(addr, level).is_err() {
                    sdds_obs::counter("lh.serve.spawn_send_failures").inc();
                }
            }),
            directory: self.directory.clone(),
        };
        self.runtime
            .add(coordinator, Box::new(site), Registry::global());
        for addr in 0..image.extent() {
            self.spawn(addr, bucket_level(addr, image), true);
        }
        Ok(())
    }

    /// Materialises bucket `addr` at `level` on the rank that owns it
    /// (`addr mod ranks`): here, or by a [`Wire::Spawn`] to that rank's
    /// host endpoint. Either way the new site's id is the bucket address,
    /// so a coordinator can hand it to the split victim at once; a
    /// `TransferBatch` that overtakes a remote registration waits in the
    /// address's reserved mailbox (see [`spawn`](Self::spawn)).
    fn place(&self, addr: u64, level: u8) -> Result<(), NetError> {
        let owner = (addr % self.ranks as u64) as usize;
        if self.rank == Some(owner) {
            self.spawn(addr, level, false);
            return Ok(());
        }
        let msg = Wire::Spawn { addr, level }.encode();
        let sent = self.control().send(SiteRegistry::host_id(owner), msg);
        self.directory.spawned(addr);
        sent
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
            self.runtime.add(ep, Box::new(state), Registry::global());
        }
        self.directory.set_parity(group, sites);
    }

    /// Spawns bucket `addr` at `level` on this rank, under its address:
    /// its storage engine opened, its group's parity sites there, the
    /// site handed to the runtime. If the site of the address's last
    /// incarnation has yet to handle its `Shutdown` — a merge victim split
    /// off again at once, a killed bucket recovered — the new one takes
    /// that site's mailbox over at it ([`Runtime::succeed`]). A bucket
    /// `reopened` over its own records serves at once, and so does the
    /// primordial bucket 0; every other one was spawned for a split, a
    /// restore or a recovery and waits for its contents (see
    /// [`BucketState::awaiting_records`]).
    ///
    /// The next address this rank will host, `addr + ranks`, is reserved
    /// first, before this site runs. LH\* grows one address at a time, so
    /// the reservation is in place before the split that creates that
    /// address can send it a `TransferBatch`, which may overtake the
    /// `Spawn` on its way to this rank. (A rank's first address is
    /// reserved with its network.)
    pub(crate) fn spawn(&self, addr: u64, level: u8, reopened: bool) {
        let next = SiteRegistry::bucket_id(addr + self.ranks as u64);
        self.network.reserve(next);
        self.parity_group(addr);
        let ctx = BucketCtx::new(
            self.directory.clone(),
            self.config.filter.clone(),
            self.config.parity,
            // Each site gets its own labeled registry; updates flow into
            // the global aggregate so existing metric readers are
            // unaffected while per-site breakdowns become available.
            Registry::with_parent(format!("bucket-{addr}"), Registry::global()),
        );
        // A spawner cannot report failure (it runs inside the
        // coordinator's split path); if durable storage cannot open,
        // degrade this bucket to volatile memory and count it rather than
        // stall the file.
        let engine = self.config.storage.open_bucket(addr).unwrap_or_else(|_| {
            sdds_obs::counter("storage.open_failures").inc();
            Box::new(MemEngine::new())
        });
        let mut state = BucketState::new(
            addr,
            level,
            self.config.bucket_capacity,
            self.config.filter.index_element_bytes(),
            engine,
        );
        if !reopened && addr > 0 {
            state = state.awaiting_records();
        }
        let obs = ctx.obs.clone();
        let site: Box<dyn Machine> = Box::new(BucketSite { state, ctx });
        let id = SiteRegistry::bucket_id(addr);
        let site = match self.network.register_with_id(id) {
            Some(ep) => Some((ep, site)),
            None => match self.runtime.succeed(id, site) {
                Ok(()) => None,
                // it has handled its `Shutdown` meanwhile: the id is free
                Err(site) => self.network.register_with_id(id).map(|ep| (ep, site)),
            },
        };
        if let Some((ep, site)) = site {
            self.runtime.add(ep, site, &obs);
        }
        self.directory.spawned(addr);
    }
}
