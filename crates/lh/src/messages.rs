//! The LH\* wire protocol.
//!
//! Every message is one [`Wire`] variant in a hand-written binary layout:
//! a tag byte naming the variant, then its fields in declaration order,
//! built from the primitives of [`sdds_net::codec`] (fixed-width
//! little-endian integers, flag-byte options, length-prefixed byte strings
//! and counted sequences). `docs/PROTOCOL.md` tabulates the bytes of every
//! variant. [`Wire::decode`] is total and fails closed — an unknown tag, a
//! length or count that overruns the payload, a bad flag byte, invalid
//! UTF-8 or trailing bytes all give `None` — and `Debug` on the decoded
//! value is the aid for reading captured traffic.
//!
//! No message names its sender or its receiver: the envelope does. A
//! bucket's site id is its address, so a receiver learns which bucket
//! sent a message from the envelope's `from`, replies go to `from`, and a
//! site knows who it is. A receiver that needs a particular sender checks
//! `from`, and drops — and counts, in `lh.wrong_sender_drops` — a message
//! from anyone else ([`drop_wrong_sender`]).

use bytes::Bytes;
use sdds_net::codec::{
    put_bool, put_bytes, put_option, put_seq, put_str, put_u32, put_u64, Reader,
};
use sdds_obs::Registry;

/// A key operation requested by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite `key`.
    Insert {
        /// Record key.
        key: u64,
        /// Record payload.
        value: Vec<u8>,
    },
    /// Look up `key`.
    Lookup {
        /// Record key.
        key: u64,
    },
    /// Delete `key`.
    Delete {
        /// Record key.
        key: u64,
    },
}

impl Op {
    /// The key this operation addresses.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Insert { key, .. } | Op::Lookup { key } | Op::Delete { key } => key,
        }
    }
}

/// Result of a key operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Insert completed; `replaced` tells whether a previous value existed.
    Inserted {
        /// True if an existing record was overwritten.
        replaced: bool,
    },
    /// Lookup completed.
    Found {
        /// The value, if the key was present.
        value: Option<Vec<u8>>,
    },
    /// Delete completed; `existed` tells whether the key was present.
    Deleted {
        /// True if a record was removed.
        existed: bool,
    },
    /// The bucket rejected the operation (e.g. a value too large for the
    /// LH*RS parity slot).
    Error {
        /// Human-readable rejection reason.
        message: String,
    },
}

/// One record matched by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanMatch {
    /// Record key.
    pub key: u64,
    /// Record payload (present unless the scan asked for keys only).
    pub value: Option<Vec<u8>>,
}

/// Everything that travels between sites. A reply goes to the envelope's
/// sender; "bucket →" means the envelope's sender is that bucket, whose
/// address is its site id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// Client → bucket (and bucket → bucket when forwarding).
    Request {
        /// Correlation id chosen by the client.
        req_id: u64,
        /// Client site to reply to: a forwarded request's sender is the
        /// forwarding bucket.
        client: u32,
        /// Forwarding hops so far (LH\* guarantees ≤ 2).
        hops: u8,
        /// The operation.
        op: Op,
    },
    /// Serving bucket → client.
    Response {
        /// Correlation id.
        req_id: u64,
        /// Operation outcome.
        result: OpResult,
        /// The serving bucket's level — drives the IAM image update.
        bucket_level: u8,
        /// Hops the request took (0 = client image was correct).
        hops: u8,
    },
    /// Client → bucket: scan this bucket with the installed filter.
    ScanReq {
        /// Correlation id.
        req_id: u64,
        /// Opaque query handed to the bucket's [`ScanFilter`].
        ///
        /// [`ScanFilter`]: crate::ScanFilter
        query: Vec<u8>,
        /// If true, replies carry keys only (saves bandwidth).
        keys_only: bool,
    },
    /// Bucket → client scan answer.
    ScanResp {
        /// Correlation id.
        req_id: u64,
        /// The bucket's level when it ran the scan: tells the client
        /// which buckets it has split off, so a split that completes
        /// while the scan is fanning out cannot hide the moved records.
        level: u8,
        /// Matching records.
        matches: Vec<ScanMatch>,
    },
    /// Bucket → coordinator: bucket exceeded its capacity.
    Overflow,
    /// Bucket → coordinator: bucket load fell below the shrink threshold.
    Underflow,
    /// Coordinator → the last bucket of the file: merge yourself back into
    /// your split parent (the reverse of a split; shrinks the file by one
    /// bucket).
    MergeCmd {
        /// The split parent receiving the records.
        into_addr: u64,
    },
    /// Dissolving bucket → coordinator: merge finished.
    MergeDone,
    /// Coordinator → bucket `n`: split yourself into `new_addr`, which
    /// has been spawned.
    SplitCmd {
        /// Address of the new bucket (`n + 2^i`).
        new_addr: u64,
    },
    /// Splitting bucket → new bucket: records that rehash to you, plus
    /// your starting level.
    TransferBatch {
        /// New bucket's level.
        level: u8,
        /// The records moving.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Transfer target → transfer source: the batch is applied *and
    /// durable*. Only now may the source delete the shipped records and
    /// report `SplitDone`/`MergeDone`, so a crash on either side of the
    /// handoff can never lose the records (at worst they transiently
    /// exist on both sides, which reopen-time re-addressing resolves).
    TransferAck,
    /// Splitting bucket → coordinator: split finished.
    SplitDone,
    /// Client → coordinator: tell me the current file state.
    ExtentReq {
        /// Correlation id.
        req_id: u64,
        /// Answer once no splits or merges are running or queued, so a
        /// scan does not miss records mid-transfer between buckets.
        idle: bool,
    },
    /// Coordinator → client.
    ExtentResp {
        /// Correlation id.
        req_id: u64,
        /// Current file level.
        level: u8,
        /// Current split pointer.
        split: u64,
    },
    /// Data bucket → each parity site of its group: a slot changed
    /// (LH*RS). The bucket's address names its group and its member
    /// index in it.
    ParityUpdate {
        /// Rank (row) of the record inside its bucket.
        rank: u32,
        /// Key now occupying the rank (`None` = rank freed).
        key: Option<u64>,
        /// XOR delta between old and new fixed-size slot contents.
        delta: Vec<u8>,
    },
    /// Recovery manager → parity site: send your state.
    ParityRead {
        /// Correlation id.
        req_id: u64,
    },
    /// Parity site → recovery manager. Which of its group's parity sites
    /// answers names the parity index.
    ParityState {
        /// Correlation id.
        req_id: u64,
        /// Per-rank: keys of members and this site's parity slot.
        rows: Vec<ParityRow>,
    },
    /// Recovery manager → data bucket: send your slot table.
    SlotsRead {
        /// Correlation id.
        req_id: u64,
    },
    /// Data bucket → recovery manager.
    SlotsState {
        /// Correlation id.
        req_id: u64,
        /// Per-rank `(key, slot)` pairs (`None` = free rank).
        slots: Vec<Option<(u64, Vec<u8>)>>,
    },
    /// Recovery manager → fresh bucket site: adopt this reconstructed
    /// state verbatim. The rank-indexed layout is preserved so future
    /// parity deltas keep addressing the same rows, and **no** parity
    /// updates are emitted (the parity sites already cover these records).
    Adopt {
        /// Bucket level to adopt.
        level: u8,
        /// Rank-indexed `(key, value)` slots (`None` = free rank).
        slots: Vec<Option<(u64, Vec<u8>)>>,
    },
    /// Snapshot protocol: control endpoint → bucket, dump your contents.
    Dump {
        /// Correlation id.
        req_id: u64,
    },
    /// Bucket → control endpoint: full contents for a snapshot.
    DumpState {
        /// Correlation id.
        req_id: u64,
        /// Bucket level.
        level: u8,
        /// All records.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Reopen: a rank's start-up → coordinator, adopt the file state
    /// (level, split pointer) derived from the data dir before any
    /// traffic flows.
    AdoptFileState {
        /// File level to adopt.
        level: u8,
        /// Split pointer to adopt.
        split: u64,
    },
    /// The addressee stops: a bucket retires (its shard drops it), a
    /// rank's host loop stops the rank.
    Shutdown,
    /// Coordinator → a bucket not born yet: be born at `level`.
    Spawn {
        /// Initial bucket level.
        level: u8,
    },
    /// Any process → a host loop: sever every established connection
    /// (fault injection for tests; streams re-establish with backoff).
    DropConns,
    /// Scrape request from a [`ClusterObs`](crate::ClusterObs) client →
    /// a host loop, which answers with one `ObsReport`.
    ObsPull {
        /// Correlates the report with the request (echoed verbatim).
        req_id: u64,
        /// Ship the rank's metrics (aggregate + per-site snapshots).
        metrics: bool,
        /// Drain and ship the rank's flight-recorder spans.
        spans: bool,
        /// Ship the rank's timestamped snapshot-ring history.
        history: bool,
    },
    /// Host loop → scraping client: one rank's report, the rank being
    /// the sender's host id less `HOST_BASE`. Metrics travel as
    /// `MetricsSnapshot` JSON documents, spans as the flight recorder's
    /// JSONL schema — the same formats the CLI writes to sidecar files —
    /// each carried as one length-prefixed string.
    ObsReport {
        /// The request's `req_id`, echoed.
        req_id: u64,
        /// The rank's process-global snapshot (when `metrics` was set).
        metrics: Option<String>,
        /// Per-site (per-bucket) snapshots (when `metrics` was set).
        sites: Vec<String>,
        /// Drained spans as JSONL (empty unless `spans` was set).
        spans: String,
        /// Snapshot ring: (unix millis, snapshot JSON), oldest first
        /// (empty unless `history` was set).
        history: Vec<(u64, String)>,
    },
}

/// One rank row of a parity site's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityRow {
    /// Keys of the group's members at this rank (index = member).
    pub keys: Vec<Option<u64>>,
    /// This parity site's encoded slot for the rank.
    pub slot: Vec<u8>,
}

/// Drops a message whose envelope names a sender the protocol does not
/// allow for it, counting it in `lh.wrong_sender_drops` of `obs`; gives
/// what a handler returns for a message it ignores (no messages, no
/// key). The sender is as unauthenticated as the fabric: this catches
/// misrouted and stale traffic, not forgery.
pub(crate) fn drop_wrong_sender<T: Default>(obs: &Registry) -> T {
    obs.counter("lh.wrong_sender_drops").inc();
    T::default()
}

// Tag bytes. Variants are numbered in declaration order; the numbers are
// wire format and never reused. JSON text of the format this codec
// replaced starts with `{` or `"`, neither of which is a tag.
const OP_INSERT: u8 = 0;
const OP_LOOKUP: u8 = 1;
const OP_DELETE: u8 = 2;

const RES_INSERTED: u8 = 0;
const RES_FOUND: u8 = 1;
const RES_DELETED: u8 = 2;
const RES_ERROR: u8 = 3;

const REQUEST: u8 = 0;
const RESPONSE: u8 = 1;
const SCAN_REQ: u8 = 2;
const SCAN_RESP: u8 = 3;
const OVERFLOW: u8 = 4;
const UNDERFLOW: u8 = 5;
const MERGE_CMD: u8 = 6;
const MERGE_DONE: u8 = 7;
const SPLIT_CMD: u8 = 8;
const TRANSFER_BATCH: u8 = 9;
const TRANSFER_ACK: u8 = 10;
const SPLIT_DONE: u8 = 11;
const EXTENT_REQ: u8 = 12;
const EXTENT_RESP: u8 = 13;
const PARITY_UPDATE: u8 = 14;
const PARITY_READ: u8 = 15;
const PARITY_STATE: u8 = 16;
const SLOTS_READ: u8 = 17;
const SLOTS_STATE: u8 = 18;
const ADOPT: u8 = 19;
const DUMP: u8 = 20;
const DUMP_STATE: u8 = 21;
const ADOPT_FILE_STATE: u8 = 22;
const SHUTDOWN: u8 = 23;
const SPAWN: u8 = 24;
const DROP_CONNS: u8 = 25;
const OBS_PULL: u8 = 26;
const OBS_REPORT: u8 = 27;

// Fewest bytes one item of each sequence can occupy: what `Reader::seq`
// divides the remaining payload by before it allocates.
const MIN_RECORD: usize = 8 + 4; // key + value length
const MIN_SLOT: usize = 1; // a free rank is one flag byte
const MIN_SCAN_MATCH: usize = 8 + 1; // key + value flag
const MIN_PARITY_ROW: usize = 4 + 4; // key count + slot length
const MIN_ROW_KEY: usize = 1; // a vacant member is one flag byte
const MIN_STR: usize = 4; // an empty string is its length
const MIN_SAMPLE: usize = 8 + 4; // timestamp + snapshot length

impl Op {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Op::Insert { key, value } => {
                out.push(OP_INSERT);
                put_u64(out, *key);
                put_bytes(out, value);
            }
            Op::Lookup { key } => {
                out.push(OP_LOOKUP);
                put_u64(out, *key);
            }
            Op::Delete { key } => {
                out.push(OP_DELETE);
                put_u64(out, *key);
            }
        }
    }

    fn read(r: &mut Reader) -> Option<Op> {
        Some(match r.u8()? {
            OP_INSERT => Op::Insert {
                key: r.u64()?,
                value: r.vec()?,
            },
            OP_LOOKUP => Op::Lookup { key: r.u64()? },
            OP_DELETE => Op::Delete { key: r.u64()? },
            _ => return None,
        })
    }
}

impl OpResult {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            OpResult::Inserted { replaced } => {
                out.push(RES_INSERTED);
                put_bool(out, *replaced);
            }
            OpResult::Found { value } => {
                out.push(RES_FOUND);
                put_option(out, value.as_deref(), put_bytes);
            }
            OpResult::Deleted { existed } => {
                out.push(RES_DELETED);
                put_bool(out, *existed);
            }
            OpResult::Error { message } => {
                out.push(RES_ERROR);
                put_str(out, message);
            }
        }
    }

    fn read(r: &mut Reader) -> Option<OpResult> {
        Some(match r.u8()? {
            RES_INSERTED => OpResult::Inserted {
                replaced: r.bool()?,
            },
            RES_FOUND => OpResult::Found {
                value: r.option(Reader::vec)?,
            },
            RES_DELETED => OpResult::Deleted { existed: r.bool()? },
            RES_ERROR => OpResult::Error {
                message: r.string()?,
            },
            _ => return None,
        })
    }
}

fn put_record(out: &mut Vec<u8>, (key, value): &(u64, Vec<u8>)) {
    put_u64(out, *key);
    put_bytes(out, value);
}

fn read_record(r: &mut Reader) -> Option<(u64, Vec<u8>)> {
    Some((r.u64()?, r.vec()?))
}

fn put_slot(out: &mut Vec<u8>, slot: &Option<(u64, Vec<u8>)>) {
    put_option(out, slot.as_ref(), put_record);
}

fn read_slot(r: &mut Reader) -> Option<Option<(u64, Vec<u8>)>> {
    r.option(read_record)
}

impl ScanMatch {
    fn write(&self, out: &mut Vec<u8>) {
        put_u64(out, self.key);
        put_option(out, self.value.as_deref(), put_bytes);
    }

    fn read(r: &mut Reader) -> Option<ScanMatch> {
        Some(ScanMatch {
            key: r.u64()?,
            value: r.option(Reader::vec)?,
        })
    }
}

impl ParityRow {
    fn write(&self, out: &mut Vec<u8>) {
        put_seq(out, &self.keys, |out, key| put_option(out, *key, put_u64));
        put_bytes(out, &self.slot);
    }

    fn read(r: &mut Reader) -> Option<ParityRow> {
        Some(ParityRow {
            keys: r.seq(MIN_ROW_KEY, |r| r.option(Reader::u64))?,
            slot: r.vec()?,
        })
    }
}

/// The one place the bytes of a `ScanReq` are written, so the owned
/// variant and [`Wire::encode_scan_req`] cannot drift apart.
fn write_scan_req(out: &mut Vec<u8>, req_id: u64, query: &[u8], keys_only: bool) {
    out.push(SCAN_REQ);
    put_u64(out, req_id);
    put_bytes(out, query);
    put_bool(out, keys_only);
}

/// Runs `write` on a pooled buffer and hands it off zero-copy: the
/// steady-state send path allocates no payload buffers (the pool recycles
/// them when the last `Bytes` clone drops).
fn encode_pooled(write: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    let mut buf = sdds_net::PooledBuf::take();
    write(buf.as_mut_vec());
    buf.into_bytes()
}

impl Wire {
    /// Serializes for the network.
    pub fn encode(&self) -> Bytes {
        encode_pooled(|out| self.write(out))
    }

    /// Serializes a [`Wire::ScanReq`] straight from a borrowed query — the
    /// same bytes as building the variant and calling
    /// [`encode`](Wire::encode), without copying the query first.
    pub fn encode_scan_req(req_id: u64, query: &[u8], keys_only: bool) -> Bytes {
        encode_pooled(|out| write_scan_req(out, req_id, query, keys_only))
    }

    /// Deserializes from the network. `None` for anything that is not
    /// exactly one well-formed message.
    pub fn decode(bytes: &[u8]) -> Option<Wire> {
        let mut r = Reader::new(bytes);
        let msg = Wire::read(&mut r)?;
        r.finish()?;
        Some(msg)
    }

    /// The `req_id` of the request this message answers: `Some` exactly
    /// for the replies a site or a host loop sends back to a client, which
    /// the client's exchange keys its answers by. Over TCP they are the
    /// messages that may be lost, with the stream the client dialed; the
    /// client asks again.
    pub(crate) fn reply_id(&self) -> Option<u64> {
        match self {
            Wire::Response { req_id, .. }
            | Wire::ScanResp { req_id, .. }
            | Wire::SlotsState { req_id, .. }
            | Wire::DumpState { req_id, .. }
            | Wire::ParityState { req_id, .. }
            | Wire::ExtentResp { req_id, .. }
            | Wire::ObsReport { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Wire::Request {
                req_id,
                client,
                hops,
                op,
            } => {
                out.push(REQUEST);
                put_u64(out, *req_id);
                put_u32(out, *client);
                out.push(*hops);
                op.write(out);
            }
            Wire::Response {
                req_id,
                result,
                bucket_level,
                hops,
            } => {
                out.push(RESPONSE);
                put_u64(out, *req_id);
                result.write(out);
                out.push(*bucket_level);
                out.push(*hops);
            }
            Wire::ScanReq {
                req_id,
                query,
                keys_only,
            } => write_scan_req(out, *req_id, query, *keys_only),
            Wire::ScanResp {
                req_id,
                level,
                matches,
            } => {
                out.push(SCAN_RESP);
                put_u64(out, *req_id);
                out.push(*level);
                put_seq(out, matches, |out, m| m.write(out));
            }
            Wire::Overflow => out.push(OVERFLOW),
            Wire::Underflow => out.push(UNDERFLOW),
            Wire::MergeCmd { into_addr } => {
                out.push(MERGE_CMD);
                put_u64(out, *into_addr);
            }
            Wire::MergeDone => out.push(MERGE_DONE),
            Wire::SplitCmd { new_addr } => {
                out.push(SPLIT_CMD);
                put_u64(out, *new_addr);
            }
            Wire::TransferBatch { level, records } => {
                out.push(TRANSFER_BATCH);
                out.push(*level);
                put_seq(out, records, put_record);
            }
            Wire::TransferAck => out.push(TRANSFER_ACK),
            Wire::SplitDone => out.push(SPLIT_DONE),
            Wire::ExtentReq { req_id, idle } => {
                out.push(EXTENT_REQ);
                put_u64(out, *req_id);
                put_bool(out, *idle);
            }
            Wire::ExtentResp {
                req_id,
                level,
                split,
            } => {
                out.push(EXTENT_RESP);
                put_u64(out, *req_id);
                out.push(*level);
                put_u64(out, *split);
            }
            Wire::ParityUpdate { rank, key, delta } => {
                out.push(PARITY_UPDATE);
                put_u32(out, *rank);
                put_option(out, *key, put_u64);
                put_bytes(out, delta);
            }
            Wire::ParityRead { req_id } => {
                out.push(PARITY_READ);
                put_u64(out, *req_id);
            }
            Wire::ParityState { req_id, rows } => {
                out.push(PARITY_STATE);
                put_u64(out, *req_id);
                put_seq(out, rows, |out, row| row.write(out));
            }
            Wire::SlotsRead { req_id } => {
                out.push(SLOTS_READ);
                put_u64(out, *req_id);
            }
            Wire::SlotsState { req_id, slots } => {
                out.push(SLOTS_STATE);
                put_u64(out, *req_id);
                put_seq(out, slots, put_slot);
            }
            Wire::Adopt { level, slots } => {
                out.push(ADOPT);
                out.push(*level);
                put_seq(out, slots, put_slot);
            }
            Wire::Dump { req_id } => {
                out.push(DUMP);
                put_u64(out, *req_id);
            }
            Wire::DumpState {
                req_id,
                level,
                records,
            } => {
                out.push(DUMP_STATE);
                put_u64(out, *req_id);
                out.push(*level);
                put_seq(out, records, put_record);
            }
            Wire::AdoptFileState { level, split } => {
                out.push(ADOPT_FILE_STATE);
                out.push(*level);
                put_u64(out, *split);
            }
            Wire::Shutdown => out.push(SHUTDOWN),
            Wire::Spawn { level } => {
                out.push(SPAWN);
                out.push(*level);
            }
            Wire::DropConns => out.push(DROP_CONNS),
            Wire::ObsPull {
                req_id,
                metrics,
                spans,
                history,
            } => {
                out.push(OBS_PULL);
                put_u64(out, *req_id);
                put_bool(out, *metrics);
                put_bool(out, *spans);
                put_bool(out, *history);
            }
            Wire::ObsReport {
                req_id,
                metrics,
                sites,
                spans,
                history,
            } => {
                out.push(OBS_REPORT);
                put_u64(out, *req_id);
                put_option(out, metrics.as_deref(), put_str);
                put_seq(out, sites, |out, s| put_str(out, s));
                put_str(out, spans);
                put_seq(out, history, |out, (at, snapshot)| {
                    put_u64(out, *at);
                    put_str(out, snapshot);
                });
            }
        }
    }

    fn read(r: &mut Reader) -> Option<Wire> {
        Some(match r.u8()? {
            REQUEST => Wire::Request {
                req_id: r.u64()?,
                client: r.u32()?,
                hops: r.u8()?,
                op: Op::read(r)?,
            },
            RESPONSE => Wire::Response {
                req_id: r.u64()?,
                result: OpResult::read(r)?,
                bucket_level: r.u8()?,
                hops: r.u8()?,
            },
            SCAN_REQ => Wire::ScanReq {
                req_id: r.u64()?,
                query: r.vec()?,
                keys_only: r.bool()?,
            },
            SCAN_RESP => Wire::ScanResp {
                req_id: r.u64()?,
                level: r.u8()?,
                matches: r.seq(MIN_SCAN_MATCH, ScanMatch::read)?,
            },
            OVERFLOW => Wire::Overflow,
            UNDERFLOW => Wire::Underflow,
            MERGE_CMD => Wire::MergeCmd {
                into_addr: r.u64()?,
            },
            MERGE_DONE => Wire::MergeDone,
            SPLIT_CMD => Wire::SplitCmd { new_addr: r.u64()? },
            TRANSFER_BATCH => Wire::TransferBatch {
                level: r.u8()?,
                records: r.seq(MIN_RECORD, read_record)?,
            },
            TRANSFER_ACK => Wire::TransferAck,
            SPLIT_DONE => Wire::SplitDone,
            EXTENT_REQ => Wire::ExtentReq {
                req_id: r.u64()?,
                idle: r.bool()?,
            },
            EXTENT_RESP => Wire::ExtentResp {
                req_id: r.u64()?,
                level: r.u8()?,
                split: r.u64()?,
            },
            PARITY_UPDATE => Wire::ParityUpdate {
                rank: r.u32()?,
                key: r.option(Reader::u64)?,
                delta: r.vec()?,
            },
            PARITY_READ => Wire::ParityRead { req_id: r.u64()? },
            PARITY_STATE => Wire::ParityState {
                req_id: r.u64()?,
                rows: r.seq(MIN_PARITY_ROW, ParityRow::read)?,
            },
            SLOTS_READ => Wire::SlotsRead { req_id: r.u64()? },
            SLOTS_STATE => Wire::SlotsState {
                req_id: r.u64()?,
                slots: r.seq(MIN_SLOT, read_slot)?,
            },
            ADOPT => Wire::Adopt {
                level: r.u8()?,
                slots: r.seq(MIN_SLOT, read_slot)?,
            },
            DUMP => Wire::Dump { req_id: r.u64()? },
            DUMP_STATE => Wire::DumpState {
                req_id: r.u64()?,
                level: r.u8()?,
                records: r.seq(MIN_RECORD, read_record)?,
            },
            ADOPT_FILE_STATE => Wire::AdoptFileState {
                level: r.u8()?,
                split: r.u64()?,
            },
            SHUTDOWN => Wire::Shutdown,
            SPAWN => Wire::Spawn { level: r.u8()? },
            DROP_CONNS => Wire::DropConns,
            OBS_PULL => Wire::ObsPull {
                req_id: r.u64()?,
                metrics: r.bool()?,
                spans: r.bool()?,
                history: r.bool()?,
            },
            OBS_REPORT => Wire::ObsReport {
                req_id: r.u64()?,
                metrics: r.option(Reader::string)?,
                sites: r.seq(MIN_STR, Reader::string)?,
                spans: r.string()?,
                history: r.seq(MIN_SAMPLE, |r| Some((r.u64()?, r.string()?)))?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdds_net::codec::check::{hostile_length, prefixes_and_bitflips};
    use std::collections::BTreeSet;

    /// The last tag: one past it is unknown.
    const LAST_TAG: u8 = OBS_REPORT;

    /// At least one value of every variant, plus the boundary cases:
    /// empty and 64 KiB values, `u64::MAX` keys, `None` and `Some` in
    /// every `Option`, empty and multi-row sequences, non-ASCII text.
    fn samples() -> Vec<Wire> {
        let big = vec![0xA5u8; 64 * 1024];
        let request = |op| Wire::Request {
            req_id: 1,
            client: 2,
            hops: 0,
            op,
        };
        let response = |result| Wire::Response {
            req_id: u64::MAX,
            result,
            bucket_level: 2,
            hops: 1,
        };
        let slots = vec![Some((5, vec![1])), None, Some((u64::MAX, vec![]))];
        vec![
            request(Op::Insert {
                key: 3,
                value: vec![1, 2, 3],
            }),
            request(Op::Insert {
                key: u64::MAX,
                value: vec![],
            }),
            request(Op::Insert {
                key: 0,
                value: big.clone(),
            }),
            request(Op::Lookup { key: u64::MAX }),
            request(Op::Delete { key: 9 }),
            response(OpResult::Inserted { replaced: true }),
            response(OpResult::Found {
                value: Some(vec![9]),
            }),
            response(OpResult::Found { value: Some(big) }),
            response(OpResult::Found { value: None }),
            response(OpResult::Deleted { existed: false }),
            response(OpResult::Error {
                message: "Wert zu groß für den Paritäts-Slot — 値が大きすぎます".into(),
            }),
            Wire::ScanReq {
                req_id: 9,
                query: vec![0xFF],
                keys_only: true,
            },
            Wire::ScanReq {
                req_id: 9,
                query: vec![],
                keys_only: false,
            },
            Wire::ScanResp {
                req_id: 9,
                level: 0,
                matches: vec![],
            },
            Wire::ScanResp {
                req_id: 9,
                level: u8::MAX,
                matches: vec![
                    ScanMatch {
                        key: 5,
                        value: None,
                    },
                    ScanMatch {
                        key: u64::MAX,
                        value: Some(vec![7, 7]),
                    },
                ],
            },
            Wire::Overflow,
            Wire::Underflow,
            Wire::MergeCmd { into_addr: 1 },
            Wire::MergeDone,
            Wire::SplitCmd { new_addr: u64::MAX },
            Wire::TransferBatch {
                level: 2,
                records: vec![],
            },
            Wire::TransferBatch {
                level: 2,
                records: vec![(1, vec![]), (u64::MAX, vec![4, 5, 6])],
            },
            Wire::TransferAck,
            Wire::SplitDone,
            Wire::ExtentReq {
                req_id: 4,
                idle: false,
            },
            Wire::ExtentReq {
                req_id: 4,
                idle: true,
            },
            Wire::ExtentResp {
                req_id: 4,
                level: 3,
                split: 1,
            },
            Wire::ExtentResp {
                req_id: 4,
                level: u8::MAX,
                split: u64::MAX,
            },
            Wire::ParityUpdate {
                rank: 2,
                key: Some(77),
                delta: vec![0xAA],
            },
            Wire::ParityUpdate {
                rank: u32::MAX,
                key: None,
                delta: vec![],
            },
            Wire::ParityRead { req_id: 8 },
            Wire::ParityState {
                req_id: 8,
                rows: vec![],
            },
            Wire::ParityState {
                req_id: 8,
                rows: vec![
                    ParityRow {
                        keys: vec![Some(1), None, Some(u64::MAX)],
                        slot: vec![3],
                    },
                    ParityRow {
                        keys: vec![],
                        slot: vec![],
                    },
                ],
            },
            Wire::SlotsRead { req_id: 2 },
            Wire::SlotsState {
                req_id: 2,
                slots: vec![],
            },
            Wire::SlotsState {
                req_id: 2,
                slots: slots.clone(),
            },
            Wire::Adopt { level: 1, slots },
            Wire::Dump { req_id: 3 },
            Wire::DumpState {
                req_id: 3,
                level: 2,
                records: vec![(1, vec![2])],
            },
            Wire::AdoptFileState { level: 3, split: 2 },
            Wire::Shutdown,
            Wire::Spawn { level: 7 },
            Wire::DropConns,
            Wire::ObsPull {
                req_id: 1,
                metrics: true,
                spans: false,
                history: true,
            },
            Wire::ObsReport {
                req_id: 1,
                metrics: None,
                sites: vec![],
                spans: String::new(),
                history: vec![],
            },
            Wire::ObsReport {
                req_id: u64::MAX,
                metrics: Some(r#"{"label":"global"}"#.into()),
                sites: vec![r#"{"label":"bucket-0"}"#.into(), "{}".into()],
                spans: "{\"name\":\"größe\"}\n".into(),
                history: vec![(1, "{}".into()), (u64::MAX, String::new())],
            },
        ]
    }

    /// The samples the exhaustive prefix and bit-flip sweeps run over.
    fn small_encodings() -> Vec<Vec<u8>> {
        samples()
            .iter()
            .map(|m| m.encode().to_vec())
            .filter(|enc| enc.len() < 1024)
            .collect()
    }

    /// The variant's name, as `Debug` prints it.
    fn variant_name(msg: &Wire) -> String {
        format!("{msg:?}")
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect()
    }

    #[test]
    fn roundtrip_all_variants() {
        let mut covered = BTreeSet::new();
        for m in samples() {
            covered.insert(variant_name(&m));
            let enc = m.encode();
            assert_eq!(Wire::decode(&enc), Some(m));
        }
        // The committed matrix lists every declared variant (CI diffs it
        // against the enum): a variant without a sample fails here.
        let matrix = include_str!("../../../protocol-matrix.json");
        let declared: BTreeSet<String> = matrix
            .split("\"variant\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_owned)
            .collect();
        assert_eq!(declared.len(), usize::from(LAST_TAG) + 1);
        assert_eq!(covered, declared);
    }

    #[test]
    fn exactly_the_client_bound_replies_have_a_reply_id() {
        let replies = [
            "Response",
            "ScanResp",
            "SlotsState",
            "DumpState",
            "ParityState",
            "ExtentResp",
            "ObsReport",
        ];
        let mut classified = BTreeSet::new();
        for m in samples() {
            let name = variant_name(&m);
            assert_eq!(
                m.reply_id().is_some(),
                replies.contains(&name.as_str()),
                "{name}"
            );
            classified.insert(name);
        }
        // every variant has a sample (`roundtrip_all_variants`)
        assert_eq!(classified.len(), usize::from(LAST_TAG) + 1);
    }

    #[test]
    fn borrowed_scan_request_encodes_like_the_variant() {
        let owned = Wire::ScanReq {
            req_id: 7,
            query: b"opaque".to_vec(),
            keys_only: true,
        };
        assert_eq!(Wire::encode_scan_req(7, b"opaque", true), owned.encode());
    }

    /// The sizes `docs/PROTOCOL.md` quotes.
    #[test]
    fn documented_sizes() {
        let insert = Wire::Request {
            req_id: 1,
            client: 2,
            hops: 0,
            op: Op::Insert {
                key: 3,
                value: vec![0; 6],
            },
        };
        assert_eq!(insert.encode().len(), 33);
        assert_eq!(Wire::encode_scan_req(1, b"", false).len(), 14);
        let extent_read = Wire::ExtentReq {
            req_id: 1,
            idle: true,
        };
        assert_eq!(extent_read.encode().len(), 10);
        let extent = Wire::ExtentResp {
            req_id: 1,
            level: 2,
            split: 3,
        };
        assert_eq!(extent.encode().len(), 18);
    }

    #[test]
    fn decode_fails_closed() {
        prefixes_and_bitflips(&small_encodings(), Wire::decode);
        assert_eq!(Wire::decode(&[]), None, "empty payload");
        assert_eq!(Wire::decode(&[LAST_TAG + 1]), None, "unknown tag");
        assert_eq!(Wire::decode(&[SHUTDOWN, 0]), None, "trailing byte");
        // Response{req_id, Found{value: <flag 2>
        let bad_flag = [&[RESPONSE][..], &[0; 8], &[RES_FOUND, 2], &[0; 2]].concat();
        assert_eq!(Wire::decode(&bad_flag), None, "option flag is 0 or 1");
        // Response{req_id, Error{message: 2 bytes that are not UTF-8
        let bad_text = [
            &[RESPONSE][..],
            &[0; 8],
            &[RES_ERROR, 2, 0, 0, 0, 0xFF, 0xFE],
            &[0; 2],
        ]
        .concat();
        assert_eq!(Wire::decode(&bad_text), None, "message must be UTF-8");
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(
            tag in 0u8..=LAST_TAG + 1,
            data in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = Wire::decode(&data);
            // behind a real tag the field decoders are reached
            let _ = Wire::decode(&[&[tag][..], &data].concat());
        }
    }

    #[test]
    fn oversized_lengths_and_counts_are_refused() {
        // ObsReport{req_id, metrics: None, then the fields after it
        let report = [&[OBS_REPORT][..], &[0; 8], &[0]].concat();
        // (everything before a length or count field, what follows it)
        let cases: [(Vec<u8>, &[u8]); 17] = [
            // Request{Insert{value
            (
                [&[REQUEST][..], &[0; 13], &[OP_INSERT], &[0; 8]].concat(),
                &[],
            ),
            // Response{Found{value
            (
                [&[RESPONSE][..], &[0; 8], &[RES_FOUND, 1]].concat(),
                &[0; 2],
            ),
            // Response{Error{message
            ([&[RESPONSE][..], &[0; 8], &[RES_ERROR]].concat(), &[0; 2]),
            // ScanReq{query
            ([&[SCAN_REQ][..], &[0; 8]].concat(), &[0]),
            // ScanResp{matches
            ([&[SCAN_RESP][..], &[0; 9]].concat(), &[]),
            // TransferBatch{records
            ([&[TRANSFER_BATCH][..], &[0; 1]].concat(), &[]),
            // ParityUpdate{delta
            ([&[PARITY_UPDATE][..], &[0; 5]].concat(), &[]),
            // ParityState{rows, and the keys of its first row
            ([&[PARITY_STATE][..], &[0; 8]].concat(), &[]),
            (
                [&[PARITY_STATE][..], &[0; 8], &[1, 0, 0, 0]].concat(),
                &[0; 4],
            ),
            // SlotsState{slots, Adopt{slots
            ([&[SLOTS_STATE][..], &[0; 8]].concat(), &[]),
            ([&[ADOPT][..], &[0; 1]].concat(), &[]),
            // DumpState{records
            ([&[DUMP_STATE][..], &[0; 9]].concat(), &[]),
            // ObsReport{metrics text, sites, a site's text, spans, history
            ([&[OBS_REPORT][..], &[0; 8], &[1]].concat(), &[0; 12]),
            (report.clone(), &[0; 8]),
            ([&report[..], &[1, 0, 0, 0]].concat(), &[0; 8]),
            ([&report[..], &[0; 4]].concat(), &[0; 4]),
            ([&report[..], &[0; 8]].concat(), &[]),
        ];
        for (head, tail) in &cases {
            hostile_length(head, tail, Wire::decode);
        }
    }

    #[test]
    fn json_of_the_replaced_format_is_refused() {
        for old in [
            &br#"{"Request":{"req_id":1,"client":2,"hops":0,"op":{"Lookup":{"key":3}}}}"#[..],
            br#"{"MergeDone":{"addr":3}}"#,
            br#"{"Spawn":{"addr":1,"level":0}}"#,
            br#""Shutdown""#,
            b"{}",
            b"not json",
        ] {
            assert_eq!(Wire::decode(old), None);
        }
    }

    #[test]
    fn op_key_extraction() {
        assert_eq!(
            Op::Insert {
                key: 7,
                value: vec![]
            }
            .key(),
            7
        );
        assert_eq!(Op::Lookup { key: 8 }.key(), 8);
        assert_eq!(Op::Delete { key: 9 }.key(), 9);
    }
}
