//! What a workload is: which fabric and storage the store runs on, what
//! is in the file beforehand, which operation stream the clients issue
//! and how they pace it. All five workloads are values of one [`Spec`].

use crate::env::{Fabric, Storage, TRAIN};
use crate::gen::Mix;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 5] = ["ingest", "point", "search", "durable", "tcp_mixed"];

/// `--seconds` the repetition counts of the [`Spec`]s are written for:
/// a run repeats its history more or fewer times in proportion.
pub const BASE_SECONDS: f64 = 10.0;
/// Patterns of the end-of-repetition search digest.
pub const DIGEST_PATTERNS: usize = 32;
/// Operations of the probe every repetition ends with: a short closed
/// loop of [`PROBE_MIX`] over the file as the workload left it, every
/// answer checked. It supplies the latencies of the classes the
/// workload's own stream does not issue.
pub const PROBE_OPS: usize = 4000;
/// Unmeasured operations the probe starts with: its client's file image
/// converges and the check's scans are over.
pub const PROBE_WARMUP: usize = 500;
/// Consecutive slices the probe's timed operations are cut into.
pub const PROBE_SLICES: usize = 6;
/// The `point` mix: single gets between multi-bucket writes, as a client
/// of a live file issues them.
pub const PROBE_MIX: Mix = Mix {
    get: 70,
    insert: 15,
    delete: 15,
    search: 0,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// Single-record operations drawn from a mix.
    Mixed(Mix),
    /// `insert_many` calls of `batch` records each.
    Bulk { batch: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each client sends its next operation when the last one returned.
    Closed,
    /// Poisson arrivals at `rate` operations per second over all clients;
    /// latency counts from the scheduled arrival.
    Open { rate: f64 },
}

/// One workload. Counts are per repetition: the work is a fixed number of
/// operations, so two commits do the same work and exact counts repeat.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Repetitions of an untraced `--seconds 10` run: fresh store, same
    /// history, each time. As many as fit the run's time (see
    /// `README.md`), because a slice of the history counts at the
    /// quietest of its repetitions ([`crate::stats::quiet`]).
    pub reps: usize,
    pub fabric: Fabric,
    pub storage: Storage,
    /// Records loaded by single inserts before anything is timed as an
    /// operation. Single inserts, because they give the same bucket
    /// count on every run; `insert_many` does not.
    pub preload: usize,
    /// Unmeasured operations of the same stream before timing: client
    /// images converge, TCP connections get dialed.
    pub warmup: usize,
    pub stream: Stream,
    /// Measured operations over all clients (records, for a bulk stream).
    pub ops: usize,
    pub clients: usize,
    pub pacing: Pacing,
    /// When not 0, the stream runs in this many equal parts and after
    /// each the store is shut down and opened again from its data dir,
    /// inside the measured time.
    pub reopens: usize,
    /// Search patterns: substrings of stored contents, and misses.
    pub hits: usize,
    pub misses: usize,
    /// Live records, evenly spaced, that the end-of-repetition check
    /// reads again (all of them when there are fewer).
    pub rereads: usize,
    /// Consecutive slices a repetition's samples are cut into for the
    /// median latency and the throughput (a reopening workload's slices
    /// are its parts).
    pub slices: usize,
    /// The layers the traced run also measures on their own: those this
    /// workload's stream stresses.
    pub alone: Alone,
}

/// Stand-alone layer measurements (see [`crate::layers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alone {
    /// The Stage 1-3 transform and each stage crate.
    Transform,
    /// The channel fabric and the in-memory engine.
    ChannelAndMem,
    /// Query building and the bucket-side filter.
    QuerySide,
    /// The disk engine: append and replay.
    DiskEngine,
    /// The TCP fabric and its frame codec.
    TcpAndFrames,
}

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        reps: 3,
        fabric: Fabric::Channel,
        storage: Storage::Mem,
        preload: 3000,
        warmup: 2000,
        stream: Stream::Mixed(PROBE_MIX),
        ops: 20_000,
        clients: 1,
        pacing: Pacing::Closed,
        reopens: 0,
        hits: 0,
        misses: 0,
        rereads: 400,
        slices: 8,
        alone: Alone::ChannelAndMem,
    };
    Some(match name {
        "ingest" => Spec {
            name: "ingest",
            reps: 6,
            preload: 0,
            warmup: TRAIN,
            // four of insert_many's own 147-record flush windows
            stream: Stream::Bulk { batch: 588 },
            ops: 12_000,
            slices: 4,
            alone: Alone::Transform,
            ..base
        },
        "point" => Spec {
            name: "point",
            reps: 8,
            ..base
        },
        "search" => Spec {
            name: "search",
            reps: 7,
            warmup: 20,
            stream: Stream::Mixed(Mix {
                get: 0,
                insert: 0,
                delete: 0,
                search: 100,
            }),
            ops: 200,
            hits: 90,
            misses: 10,
            slices: 4,
            alone: Alone::QuerySide,
            ..base
        },
        "durable" => Spec {
            name: "durable",
            reps: 4,
            storage: Storage::DiskFsyncAlways,
            preload: 0,
            warmup: 1000,
            stream: Stream::Mixed(Mix {
                get: 0,
                insert: 100,
                delete: 0,
                search: 0,
            }),
            ops: 4000,
            reopens: 4,
            slices: 4,
            // every acknowledged insert is read again after the restart
            rereads: usize::MAX,
            alone: Alone::DiskEngine,
            ..base
        },
        "tcp_mixed" => Spec {
            name: "tcp_mixed",
            reps: 5,
            fabric: Fabric::Tcp { ranks: 3 },
            preload: 2000,
            warmup: 1000,
            stream: Stream::Mixed(Mix {
                get: 60,
                insert: 25,
                delete: 10,
                search: 5,
            }),
            // 400/s for two and a half seconds
            ops: 1000,
            clients: 2,
            pacing: Pacing::Open { rate: 400.0 },
            hits: 36,
            misses: 4,
            slices: 8,
            alone: Alone::TcpAndFrames,
            ..base
        },
        _ => return None,
    })
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    /// One twentieth of every size: a smoke run.
    pub quick: bool,
    /// The benchmark binary, re-executed for serving ranks.
    pub exe: PathBuf,
}
