//! The system under test, assembled only through its public API: the
//! store on either fabric and either storage backend, with the one
//! parameter set every workload shares.

use sdds_core::{
    DiskOptions, EncryptedSearchStore, FsyncPolicy, IndexPipeline, RemoteStore, SchemeConfig,
    StorageConfig, StoreBuilder, StoreHandle,
};
use sdds_corpus::Record;
use sdds_lh::LhClient;
use sdds_net::{NetStats, SiteRegistry};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Records the Stage-2 codebook is trained on: the head of the corpus.
pub const TRAIN: usize = 1000;
/// LH\* records per bucket before it splits.
pub const BUCKET_CAPACITY: usize = 128;

/// Where a run may write: span files, temporary data dirs, registries.
/// Relative to the checkout root the benchmark is started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// In-process channels, every site a thread of this process.
    Channel,
    /// `ranks` serving processes on loopback TCP.
    Tcp { ranks: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Mem,
    /// WAL + snapshots with `FsyncPolicy::Always`: acknowledged means
    /// flushed.
    DiskFsyncAlways,
}

/// The store configuration all workloads share: the paper's recommended
/// scheme (s = 6, c = 2, 64 per-symbol codes, k = 3, so 7 LH\* keys per
/// record and queries of 8 symbols or more), default drain budget,
/// unbounded inboxes. Serving ranks build the same from the same seed.
pub fn builder(corpus: &[Record], storage: StorageConfig) -> StoreBuilder {
    EncryptedSearchStore::builder(SchemeConfig::paper_recommended())
        .passphrase("benchmark")
        .train(corpus.iter().take(TRAIN).map(|r| r.rc.clone()))
        .bucket_capacity(BUCKET_CAPACITY)
        .storage(storage)
}

/// A pipeline equal to the one inside any store [`builder`] starts for
/// `corpus`: every stage is deterministic in the configuration, the
/// passphrase and the training sample.
pub fn pipeline(corpus: &[Record]) -> IndexPipeline {
    builder(corpus, StorageConfig::Mem).serve_parts().0
}

/// A directory under [`out_dir`] that is removed when the value drops,
/// also on a failed run.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of the regular files under `dir` whose name starts with
/// `prefix` (all files when empty).
pub fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path, prefix)
            } else if e.file_name().to_string_lossy().starts_with(prefix) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// The serving ranks of a TCP store: this binary re-executed with the
/// hidden `serve-rank` subcommand. Dropping the value stops and reaps
/// them and removes the registry, also on a failed run.
pub struct Ranks {
    remote: RemoteStore,
    children: Children,
    _scratch: Scratch,
}

/// Child processes that are killed and waited for when the value drops.
struct Children(Vec<Child>);

impl Children {
    /// Waits for the children until `grace` has passed, then kills what
    /// is left; returns only when each has ended.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for child in &mut self.0 {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

impl Ranks {
    fn spawn(
        exe: &Path,
        corpus: &[Record],
        ranks: usize,
        seed: u64,
        traced: bool,
    ) -> std::io::Result<Ranks> {
        let scratch = Scratch::new("ranks")?;
        // Reserve ports by binding, then free them for the ranks; a lost
        // race fails loudly, the rank exits on its bind error.
        let listeners = (0..ranks)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(listeners);
        let registry_path = scratch.path().join("registry.txt");
        std::fs::write(&registry_path, addrs.join("\n") + "\n")?;
        let registry = SiteRegistry::from_addrs(addrs).map_err(std::io::Error::other)?;
        let mut children = Children(Vec::with_capacity(ranks));
        for rank in 0..ranks {
            let child = Command::new(exe)
                .arg("serve-rank")
                .args(["--registry", &registry_path.to_string_lossy()])
                .args(["--rank", &rank.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                // the rank exits when this pipe closes, so it cannot
                // outlive a killed benchmark
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()?;
            children.0.push(child);
        }
        let remote = builder(corpus, StorageConfig::Mem).connect(registry);
        Ok(Ranks {
            remote,
            children,
            _scratch: scratch,
        })
    }
}

impl Drop for Ranks {
    fn drop(&mut self) {
        self.remote.shutdown_cluster();
        self.children.reap(Duration::from_secs(5));
    }
}

/// The body of a serving rank: rebuilds the cluster configuration from
/// the seed and serves until told to shut down or orphaned.
pub fn serve_rank(registry: &Path, rank: usize, seed: u64, traced: bool) -> Result<(), String> {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut byte = [0u8; 1];
        // the parent never writes: this returns when its end closes
        let _ = std::io::stdin().read(&mut byte);
        std::process::exit(0);
    });
    sdds_obs::trace::set_tracing(traced);
    let registry = SiteRegistry::load(registry)?;
    let corpus = crate::gen::corpus(seed, TRAIN);
    let (_pipeline, config) = builder(&corpus, StorageConfig::Mem).serve_parts();
    let handle = sdds_lh::serve(registry, rank, config).map_err(|e| e.to_string())?;
    handle.wait();
    Ok(())
}

/// A running store.
pub enum Target {
    Local(Box<EncryptedSearchStore>),
    Remote(Ranks),
}

/// How to start (and restart) a workload's store.
pub struct Launcher<'a> {
    pub fabric: Fabric,
    pub storage: Storage,
    pub corpus: &'a [Record],
    pub seed: u64,
    pub traced: bool,
    /// The benchmark binary, re-executed for serving ranks.
    pub exe: &'a Path,
    /// Data dir of a disk store; owned by the launcher so that it is
    /// removed when the repetition ends, however it ends.
    pub data: Option<Scratch>,
}

impl Launcher<'_> {
    fn storage_config(&self) -> StorageConfig {
        match (&self.storage, &self.data) {
            (Storage::DiskFsyncAlways, Some(dir)) => StorageConfig::disk_with(
                dir.path(),
                DiskOptions {
                    fsync: FsyncPolicy::Always,
                    ..DiskOptions::default()
                },
            ),
            _ => StorageConfig::Mem,
        }
    }

    /// Starts a fresh, empty store.
    pub fn start(&mut self) -> Result<Target, String> {
        match self.fabric {
            Fabric::Channel => {
                if self.storage == Storage::DiskFsyncAlways {
                    self.data = Some(Scratch::new("data").map_err(|e| e.to_string())?);
                }
                Ok(Target::Local(Box::new(
                    builder(self.corpus, self.storage_config()).start(),
                )))
            }
            Fabric::Tcp { ranks } => {
                Ranks::spawn(self.exe, self.corpus, ranks, self.seed, self.traced)
                    .map(Target::Remote)
                    .map_err(|e| format!("cannot start serving ranks: {e}"))
            }
        }
    }

    /// Stops a disk store and opens it again from its data dir.
    pub fn reopen(&self, target: Target) -> Result<Target, String> {
        let Target::Local(store) = target else {
            return Err("only an in-process store reopens".into());
        };
        store.shutdown();
        builder(self.corpus, self.storage_config())
            .open()
            .map(|s| Target::Local(Box::new(s)))
            .map_err(|e| format!("reopen failed: {e}"))
    }
}

impl Target {
    pub fn handle(&self) -> StoreHandle {
        match self {
            Target::Local(s) => s.handle(),
            Target::Remote(r) => r.remote.handle(),
        }
    }

    /// A raw LH\* client, for the traced decomposition of an operation.
    pub fn lh_client(&self) -> LhClient {
        match self {
            Target::Local(s) => s.cluster().client(),
            Target::Remote(r) => r.remote.cluster().client(),
        }
    }

    /// Traffic counters of this process's fabric.
    pub fn net_stats(&self) -> &NetStats {
        match self {
            Target::Local(s) => s.cluster().network().stats(),
            Target::Remote(r) => r.remote.cluster().network().stats(),
        }
    }

    /// The program's metrics: this process's registry, plus every serving
    /// rank's when the sites live elsewhere.
    pub fn metrics(&self) -> Result<sdds_obs::MetricsSnapshot, String> {
        let local = sdds_obs::MetricsSnapshot::capture();
        match self {
            Target::Local(_) => Ok(local),
            Target::Remote(r) => {
                let scrape = r
                    .remote
                    .obs()
                    .scrape(&sdds_lh::ScrapeOptions::default())
                    .map_err(|e| format!("metrics scrape failed: {e}"))?;
                if !scrape.missing.is_empty() {
                    return Err(format!("ranks {:?} did not report", scrape.missing));
                }
                Ok(sdds_obs::MetricsSnapshot::merge(
                    "cluster",
                    &[local, scrape.aggregate],
                ))
            }
        }
    }

    pub fn shutdown(self) {
        match self {
            Target::Local(s) => s.shutdown(),
            Target::Remote(r) => drop(r),
        }
    }
}
