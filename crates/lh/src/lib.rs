//! LH\* — the Scalable Distributed Data Structure of Litwin, Neimat and
//! Schneider \[LNS96\] — with the LH\*<sub>RS</sub> high-availability
//! extension \[LMS05\], running over `sdds-net`: sites of one process
//! exchange messages over in-process channels, sites of several over
//! TCP.
//!
//! This is the storage substrate the ICDE'06 paper assumes: "a standard
//! SDDS such as LH\* or its high-availability version LH\*RS is used to
//! store index records and the records themselves" (§5). The
//! implementation is a real distributed protocol: every bucket is a site
//! — a state machine behind a mailbox, run with its process's other sites
//! by a fixed set of workers — exchanging serialized messages; clients
//! keep a possibly-stale
//! *file image* and learn through Image Adjustment Messages; addressing
//! errors cost at most two forwarding hops (the LH\* invariant).
//!
//! Main entry points:
//!
//! * [`LhCluster`] — a process's handle on the file, on either fabric:
//!   [`start`](LhCluster::start) / [`open`](LhCluster::open) run every
//!   site in this process over channels, [`connect`](LhCluster::connect)
//!   is a TCP client of a served cluster. Either hands out clients, and
//!   snapshots, kills and shuts down by site id.
//! * [`serve`] — brings up one rank of a multi-process cluster the way
//!   `start` brings up the only one, and runs its host loop.
//! * [`LhClient`] — key operations (`insert`, `lookup`, `delete`) and
//!   parallel scans with a server-side [`ScanFilter`].
//! * [`ParityConfig`] — enables LH\*<sub>RS</sub> record-group parity so
//!   bucket failures are recoverable (Reed–Solomon over `sdds-gf`).
//!
//! ```
//! use sdds_lh::{ClusterConfig, LhCluster};
//!
//! let cluster = LhCluster::start(ClusterConfig::default());
//! let client = cluster.client();
//! client.insert(42, b"hello".to_vec()).unwrap();
//! assert_eq!(client.lookup(42).unwrap(), Some(b"hello".to_vec()));
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod client;
mod cluster;
mod coordinator;
mod filter;
mod hash;
mod health;
mod index;
mod messages;
mod obs_client;
mod parity;
mod runtime;
mod serve;
mod shard;

pub use client::{LhClient, LhError};
pub use cluster::{
    BucketSnapshot, ClusterConfig, FileSnapshot, LhCluster, ObsOptions, ParityConfig,
};
pub use filter::{PreparedQuery, ScanFilter, SubstringFilter};
pub use hash::{address, ClientImage};
pub use messages::ScanMatch;
pub use obs_client::{ClusterObs, ClusterScrape, RankScrape, ScrapeOptions};
pub use sdds_storage::{DiskOptions, FsyncPolicy, StorageConfig};
pub use serve::{serve, ServeHandle};
