//! Umbrella crate for the ICDE'06 encrypted searchable SDDS reproduction.
//!
//! Re-exports every workspace crate under one roof so that examples and
//! integration tests can `use sdds_repro::...`. See the individual crates
//! for the real documentation:
//!
//! * [`gf`] — GF(2^g) arithmetic, matrices, Reed–Solomon erasure coding.
//! * [`cipher`] — AES-128, block modes, and the arbitrary-width chunk PRP.
//! * [`net`] — the simulated multicomputer (sites, transport, accounting).
//! * [`lh`] — the LH\* / LH\*<sub>RS</sub> scalable distributed data structure.
//! * [`chunk`] — Stage 1: offset chunkings and search-string chunkings.
//! * [`encode`] — Stage 2: frequency-equalising lossy compression.
//! * [`disperse`] — Stage 3: GF-matrix dispersion of index records.
//! * [`stats`] — χ², n-grams, entropy and randomness tests.
//! * [`corpus`] — the synthetic SF-phone-directory workload.
//! * [`storage`] — pluggable bucket storage: in-memory or durable WAL+snapshots.
//! * [`core`] — the complete encrypted content-searchable store.
//! * [`baseline`] — SWP-style word scheme and naive decrypt-scan baselines.

pub use sdds_baseline as baseline;
pub use sdds_chunk as chunk;
pub use sdds_cipher as cipher;
pub use sdds_core as core;
pub use sdds_corpus as corpus;
pub use sdds_disperse as disperse;
pub use sdds_encode as encode;
pub use sdds_gf as gf;
pub use sdds_lh as lh;
pub use sdds_net as net;
pub use sdds_stats as stats;
pub use sdds_storage as storage;
