//! The complete encrypted, content-searchable SDDS of Schwarz, Tsui &
//! Litwin (ICDE 2006).
//!
//! A record `(RID, RC)` is stored as (Figure 3 of the paper):
//!
//! * **one record store record** — the RC strongly encrypted (AES-CBC with
//!   a per-RID IV) under a key no index site ever sees;
//! * **`c · k` index records** — for each of `c` chunkings (Stage 1,
//!   `sdds-chunk`), the RC's chunks are optionally compressed by the
//!   frequency-equalising codebook (Stage 2, `sdds-encode`), encrypted
//!   deterministically chunk-by-chunk (ECB via the width-exact PRP of
//!   `sdds-cipher`), and dispersed over `k` sites by an invertible matrix
//!   over GF(2^g) (Stage 3, `sdds-disperse`).
//!
//! All of these live in one LH\* file (`sdds-lh`): the LH\* key is the RID
//! with a tag in its least significant bits ("the keys for the index
//! records are made up of the RID and the chunking identifier and the
//! dispersion site identifier appended as the least significant bits",
//! §5), so sibling records scatter across buckets.
//!
//! A search chunks the query at every needed alignment, pushes it through
//! the same compress/encrypt/disperse pipeline, and ships it to all bucket
//! sites, which match consecutive chunks *on ciphertext equality only*.
//! The client combines per-chunking verdicts (requiring all dispersion
//! sites of a chunking to match at the same offset) and returns RIDs —
//! false positives included, exactly as the paper trades them for secrecy.
//!
//! ```no_run
//! use sdds_core::{EncryptedSearchStore, SchemeConfig};
//!
//! let config = SchemeConfig::basic(4, 4).unwrap();
//! let store = EncryptedSearchStore::builder(config)
//!     .passphrase("correct horse battery staple")
//!     .start();
//! let client = store.handle();
//! client.insert(7, "SCHWARZ THOMAS").unwrap();
//! let hits = client.search("THOMAS").unwrap();
//! assert_eq!(hits, vec![7]);
//! assert_eq!(client.get(7).unwrap(), Some("SCHWARZ THOMAS".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod pack;
mod pipeline;
mod query;
mod store;

pub use config::{ConfigError, EncodingConfig, EncodingGranularity, SchemeConfig};
pub use pipeline::{IndexPipeline, IndexRecord, IngestScratch};
pub use query::{EncryptedIndexFilter, EncryptedQuery};
pub use store::{
    EncryptedSearchStore, IngestOptions, RemoteStore, SearchOutcome, StoreBuilder, StoreError,
    StoreHandle,
};
// The storage backend selectors `StoreBuilder::storage` takes.
pub use sdds_lh::{DiskOptions, FsyncPolicy, StorageConfig};
