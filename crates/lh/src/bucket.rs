//! The LH\* bucket: a site owning one bucket of the file.
//!
//! Buckets hold records, serve key operations with the classical LH\*
//! forwarding rule (each hop re-addresses with the *receiving* bucket's
//! level; at most two hops are ever needed), execute splits ordered by the
//! coordinator, evaluate scan filters locally, and — when LH\*<sub>RS</sub>
//! parity is on — stream slot deltas to their group's parity sites.

use crate::cluster::{Directory, ParityConfig};
use crate::filter::{ScanFilter, ScanMemo};
use crate::hash::h;
use crate::index::PostingIndex;
use crate::messages::{drop_wrong_sender, Op, OpResult, ScanMatch, Wire};
use crate::parity::{slot_delta, slot_of};
use crate::runtime::Machine;
use sdds_net::{SiteId, SiteRegistry, COORD_ID};
use sdds_obs::trace::{self, SpanGuard, TraceContext};
use sdds_obs::{Counter, Histogram, Registry};
use sdds_storage::{BatchOp, StorageEngine, StorageError, WriteBatch};
use std::collections::HashMap;
use std::sync::Arc;

/// Forwarding-hop hard stop; LH\* proves 2 suffice, we allow slack for the
/// transient window during a split.
const MAX_HOPS: u8 = 4;

/// Crash-injection hook for the crash-recovery integration tests: when
/// the `SDDS_CRASH_POINT` environment variable names this point, the
/// whole process dies on the spot — no destructors, no flushes — exactly
/// like a SIGKILL, but at a deterministic place in the protocol.
fn crash_point(point: &str) {
    if std::env::var("SDDS_CRASH_POINT").as_deref() == Ok(point) {
        std::process::abort();
    }
}

/// A split/merge transfer shipped to its target but not yet acknowledged.
/// The shipped records stay in this bucket — and the coordinator is not
/// told the operation finished — until the target's durable
/// [`Wire::TransferAck`] arrives.
struct PendingTransfer {
    /// Keys shipped (deleted locally only once the ack lands).
    keys: Vec<u64>,
    /// Target bucket's site: only its ack completes the transfer.
    target: SiteId,
    /// What completing the transfer means.
    done: TransferDone,
}

enum TransferDone {
    Split,
    Merge,
}

/// Mutable bucket state (pure logic; the runtime drives it).
pub(crate) struct BucketState {
    addr: u64,
    level: u8,
    capacity: usize,
    /// Record storage: in-memory or durable WAL+snapshot, behind one
    /// trait. Split/merge transfers and recovery adoption apply through
    /// atomic write batches so a crash cannot half-apply them.
    engine: Box<dyn StorageEngine>,
    /// Inverted element → postings index (present iff the installed
    /// filter requested one via `ScanFilter::index_element_bytes`). Kept
    /// consistent through every record mutation path: insert, overwrite,
    /// delete, split/merge transfers, and recovery adoption — and rebuilt
    /// from the engine's replayed records when a bucket reopens.
    index: Option<PostingIndex>,
    // LH*RS rank bookkeeping (empty when parity is off)
    ranks: Vec<Option<u64>>,
    key_rank: HashMap<u64, u32>,
    free_ranks: Vec<u32>,
    overflow_reported: bool,
    underflow_reported: bool,
    pending_transfer: Option<PendingTransfer>,
    /// Set by a `MergeCmd`: this bucket's records have been shipped to the
    /// parent at that site, so it no longer serves key operations itself
    /// (see [`Self::merge_into`]).
    merged_into: Option<SiteId>,
    /// `Some` while a bucket spawned for a split, restore or recovery
    /// waits for the `TransferBatch`/`Adopt` that brings its records: the
    /// key operations that reached it first, in arrival order (see
    /// [`Self::awaiting_records`]).
    held: Option<Vec<(SiteId, Wire)>>,
}

/// Immutable wiring a bucket needs to route messages.
pub(crate) struct BucketCtx {
    pub directory: Arc<Directory>,
    pub filter: Arc<dyn ScanFilter>,
    pub parity: Option<ParityConfig>,
    /// This site's metrics registry (labeled `bucket-<addr>`). Updates
    /// propagate to the parent/global registry, so the default registry
    /// stays the cross-site aggregate while each site keeps its own
    /// breakdown.
    pub obs: Registry,
    /// Handles of the metrics every `ScanReq` touches.
    pub scan: ScanMetrics,
}

impl BucketCtx {
    pub(crate) fn new(
        directory: Arc<Directory>,
        filter: Arc<dyn ScanFilter>,
        parity: Option<ParityConfig>,
        obs: Registry,
    ) -> BucketCtx {
        BucketCtx {
            directory,
            filter,
            parity,
            scan: ScanMetrics::new(&obs),
            obs,
        }
    }
}

/// The per-scan metrics of a bucket, resolved once from its registry: a
/// lookup by name is a lock and a map probe, four of them a scan.
pub(crate) struct ScanMetrics {
    seconds: Histogram,
    prepares: Counter,
    index_probes: Counter,
    index_candidates: Counter,
}

impl ScanMetrics {
    fn new(obs: &Registry) -> ScanMetrics {
        ScanMetrics {
            seconds: obs.histogram("lh.scan_bucket_seconds"),
            prepares: obs.counter("lh.scan_prepares"),
            index_probes: obs.counter("lh.scan_index_probes"),
            index_candidates: obs.counter("lh.scan_index_candidates"),
        }
    }
}

impl BucketState {
    pub(crate) fn new(
        addr: u64,
        level: u8,
        capacity: usize,
        index_element_bytes: Option<usize>,
        engine: Box<dyn StorageEngine>,
    ) -> BucketState {
        BucketState {
            addr,
            level,
            capacity,
            engine,
            index: index_element_bytes
                .filter(|&w| w > 0)
                .map(PostingIndex::new),
            ranks: Vec::new(),
            key_rank: HashMap::new(),
            free_ranks: Vec::new(),
            overflow_reported: false,
            underflow_reported: false,
            pending_transfer: None,
            merged_into: None,
            held: None,
        }
    }

    /// Marks a bucket the spawner created for a split, restore or
    /// recovery: it is addressable from the moment it is in the directory,
    /// but its records arrive later, in one `TransferBatch` or `Adopt`. A
    /// client whose image is ahead of a shrunken file addresses it
    /// directly, and a lookup served before the records land reads `None`
    /// for a record that exists — so until they are applied, `Request`s
    /// are held, then served in arrival order.
    pub(crate) fn awaiting_records(mut self) -> BucketState {
        self.held = Some(Vec::new());
        self
    }

    /// One-time wiring before the message loop: rebuild the volatile
    /// bookkeeping — posting index and LH\*RS rank tables — from whatever
    /// records the engine recovered from disk, and report an overflow if
    /// the recovered bucket is already past capacity (the crash may have
    /// eaten the original report). A fresh, empty engine is a no-op.
    pub(crate) fn startup(&mut self, ctx: &BucketCtx) -> Vec<(SiteId, Wire)> {
        if self.engine.is_empty() {
            return Vec::new();
        }
        let engine = &self.engine;
        if let Some(idx) = &mut self.index {
            idx.clear();
            engine.for_each(&mut |key, value| {
                if ctx.filter.should_index(key) {
                    idx.add(key, value);
                }
            });
        }
        if ctx.parity.is_some() {
            // Deterministic rank assignment (ascending keys). Parity sites
            // hold no persistent state, so recovered ranks need only be
            // self-consistent, not identical to the pre-crash assignment.
            self.ranks.clear();
            self.key_rank.clear();
            self.free_ranks.clear();
            for key in self.engine.keys() {
                let rank = self.ranks.len() as u32;
                self.ranks.push(Some(key));
                self.key_rank.insert(key, rank);
            }
        }
        self.maybe_report_overflow()
    }

    /// Shrink threshold: an eighth of the capacity (hysteresis well below
    /// the split threshold so files do not thrash).
    fn underflow_threshold(&self) -> usize {
        self.capacity / 8
    }

    /// Processes one message, returning the messages to send out. `memo`
    /// is the running worker's: a `ScanReq` finds its query prepared there
    /// if this worker's previous bucket had the same one.
    pub(crate) fn handle(
        &mut self,
        from: SiteId,
        msg: Wire,
        ctx: &BucketCtx,
        memo: &mut ScanMemo,
    ) -> Vec<(SiteId, Wire)> {
        if matches!(msg, Wire::Request { .. }) {
            if let Some(parent) = self.merged_into {
                // Not an addressing error of the sender's, so `hops` stays
                // as it is: the bucket moved, the key's home did not.
                ctx.obs.counter("lh.forwards").inc();
                return vec![(parent, msg)];
            }
            if let Some(held) = &mut self.held {
                held.push((from, msg));
                return Vec::new();
            }
        }
        let coordinator = from == SiteId(COORD_ID);
        match msg {
            Wire::Request {
                req_id,
                client,
                hops,
                op,
            } => self.handle_request(req_id, client, hops, op, ctx),
            Wire::ScanReq {
                req_id,
                query,
                keys_only,
            } => {
                let matches = self.scan(&query, keys_only, ctx, memo);
                vec![(
                    from,
                    Wire::ScanResp {
                        req_id,
                        level: self.level,
                        matches,
                    },
                )]
            }
            Wire::SplitCmd { new_addr } if coordinator => self.split(new_addr, ctx),
            Wire::MergeCmd { into_addr } if coordinator => self.merge_into(into_addr, ctx),
            Wire::SplitCmd { .. } | Wire::MergeCmd { .. } => drop_wrong_sender(&ctx.obs),
            Wire::TransferBatch { level, records } => {
                self.level = level;
                self.overflow_reported = false;
                self.underflow_reported = false;
                self.receive_transfer(from, records, ctx)
            }
            Wire::TransferAck => self.transfer_acked(from, ctx),
            Wire::SlotsRead { req_id } => {
                let slots = self.slot_table(ctx);
                vec![(from, Wire::SlotsState { req_id, slots })]
            }
            Wire::Adopt { level, slots } => self.adopt(level, slots, ctx),
            Wire::Dump { req_id } => {
                let mut records = Vec::with_capacity(self.engine.len());
                self.engine
                    .for_each(&mut |k, v| records.push((k, v.to_vec())));
                vec![(
                    from,
                    Wire::DumpState {
                        req_id,
                        level: self.level,
                        records,
                    },
                )]
            }
            // Shutdown handled by the loop; everything else is not ours.
            _ => Vec::new(),
        }
    }

    fn handle_request(
        &mut self,
        req_id: u64,
        client: u32,
        hops: u8,
        op: Op,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        let key = op.key();
        // The LH* server address computation (A1 of [LNS96]): re-address
        // with *this* bucket's level; the h_{j-1} guard stops the forward
        // from overshooting the file's extent (without it, a level-(j)
        // bucket could route to a bucket that does not exist yet).
        let mut target = h(key, self.level);
        if target != self.addr && self.level > 0 {
            let conservative = h(key, self.level - 1);
            if conservative > self.addr && conservative < target {
                target = conservative;
            }
        }
        if target != self.addr && hops < MAX_HOPS {
            // The target may be transiently absent from the directory
            // (mid-split spawn, or a merge retiring the file's last
            // bucket). Serving locally here would strand the record in
            // the wrong bucket; instead descend levels — h at a lower
            // level addresses the target's split ancestor, which is where
            // a merge ships its records and where lookups will land after
            // the structure change completes. Level 0 (bucket 0) always
            // exists, so the walk terminates.
            let mut resolved = target;
            let mut level = self.level;
            while resolved != self.addr
                && ctx.directory.bucket_site(resolved).is_none()
                && level > 0
            {
                level -= 1;
                resolved = h(key, level);
            }
            if resolved != self.addr {
                if let Some(site) = ctx.directory.bucket_site(resolved) {
                    ctx.obs.counter("lh.forwards").inc();
                    return vec![(
                        site,
                        Wire::Request {
                            req_id,
                            client,
                            hops: hops + 1,
                            op,
                        },
                    )];
                }
            }
            // resolved == self.addr: at this level view we are the home;
            // serve locally.
        }
        let mut out = Vec::new();
        let result = match op {
            Op::Insert { key, value } => {
                if let Some(cfg) = &ctx.parity {
                    if value.len() + 2 > cfg.slot_size {
                        let message = format!(
                            "value of {} bytes exceeds parity slot capacity {}",
                            value.len(),
                            cfg.slot_size - 2
                        );
                        out.push((
                            SiteId(client),
                            Wire::Response {
                                req_id,
                                result: OpResult::Error { message },
                                bucket_level: self.level,
                                hops,
                            },
                        ));
                        return out;
                    }
                }
                match self.store(key, value, ctx) {
                    Ok((replaced, msgs)) => {
                        out.extend(msgs);
                        out.extend(self.maybe_report_overflow());
                        OpResult::Inserted { replaced }
                    }
                    Err(e) => self.storage_error("insert", e, ctx),
                }
            }
            Op::Lookup { key } => OpResult::Found {
                value: self.engine.get(key),
            },
            Op::Delete { key } => match self.remove(key, ctx) {
                Ok((existed, msgs)) => {
                    out.extend(msgs);
                    if existed {
                        out.extend(self.maybe_report_underflow());
                    }
                    OpResult::Deleted { existed }
                }
                Err(e) => self.storage_error("delete", e, ctx),
            },
        };
        out.push((
            SiteId(client),
            Wire::Response {
                req_id,
                result,
                bucket_level: self.level,
                hops,
            },
        ));
        out
    }

    /// Records a storage failure and surfaces it to the requesting client.
    fn storage_error(&self, during: &str, e: StorageError, ctx: &BucketCtx) -> OpResult {
        ctx.obs.counter("storage.errors").inc();
        OpResult::Error {
            message: format!("storage failure during {during}: {e}"),
        }
    }

    /// Inserts/overwrites a record durably, then runs the bookkeeping.
    /// Returns whether the key already existed plus the parity messages.
    fn store(
        &mut self,
        key: u64,
        value: Vec<u8>,
        ctx: &BucketCtx,
    ) -> Result<(bool, Vec<(SiteId, Wire)>), StorageError> {
        let old = self.engine.put(key, &value)?;
        let existed = old.is_some();
        let msgs = self.note_put(key, &value, old, ctx);
        Ok((existed, msgs))
    }

    /// Deletes a record durably, then runs the bookkeeping. Returns
    /// whether the key existed plus the parity messages.
    fn remove(
        &mut self,
        key: u64,
        ctx: &BucketCtx,
    ) -> Result<(bool, Vec<(SiteId, Wire)>), StorageError> {
        let old = self.engine.delete(key)?;
        let existed = old.is_some();
        let msgs = self.note_delete(key, old, ctx);
        Ok((existed, msgs))
    }

    /// Post-write bookkeeping for one stored record: posting index, rank
    /// table, parity deltas. `old` is the value the write replaced.
    fn note_put(
        &mut self,
        key: u64,
        value: &[u8],
        old: Option<Vec<u8>>,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        if let Some(idx) = &mut self.index {
            if ctx.filter.should_index(key) {
                if let Some(prev) = &old {
                    idx.remove(key, prev);
                }
                idx.add(key, value);
            }
        }
        let Some(cfg) = &ctx.parity else {
            return Vec::new();
        };
        let rank = match self.key_rank.get(&key) {
            Some(&r) => r,
            None => {
                let r = self.free_ranks.pop().unwrap_or_else(|| {
                    self.ranks.push(None);
                    (self.ranks.len() - 1) as u32
                });
                self.key_rank.insert(key, r);
                self.ranks[r as usize] = Some(key);
                r
            }
        };
        let delta = slot_delta(old.as_deref(), Some(value), cfg.slot_size);
        self.parity_update(rank, Some(key), delta, cfg, ctx)
    }

    /// Post-delete bookkeeping for one removed record. `old` is the value
    /// the delete removed; a `None` means the key was absent, and every
    /// table — including `key_rank` — must stay untouched so rank slots
    /// are never freed twice.
    fn note_delete(
        &mut self,
        key: u64,
        old: Option<Vec<u8>>,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        let Some(prev) = old else {
            return Vec::new();
        };
        if let Some(idx) = &mut self.index {
            idx.remove(key, &prev);
        }
        let Some(cfg) = &ctx.parity else {
            return Vec::new();
        };
        let Some(rank) = self.key_rank.remove(&key) else {
            return Vec::new();
        };
        self.ranks[rank as usize] = None;
        self.free_ranks.push(rank);
        let delta = slot_delta(Some(&prev), None, cfg.slot_size);
        self.parity_update(rank, None, delta, cfg, ctx)
    }

    /// Deletes `keys` as **one atomic batch** (a single WAL frame), then
    /// runs per-key bookkeeping. Parity deltas come from the pre-delete
    /// values, captured before the batch applies.
    fn remove_many(
        &mut self,
        keys: &[u64],
        ctx: &BucketCtx,
    ) -> Result<Vec<(SiteId, Wire)>, StorageError> {
        let mut batch = WriteBatch::new();
        let olds: Vec<(u64, Option<Vec<u8>>)> = keys
            .iter()
            .map(|&k| {
                batch.delete(k);
                (k, self.engine.get(k))
            })
            .collect();
        self.engine.apply_batch(&batch)?;
        let mut out = Vec::new();
        for (key, old) in olds {
            out.extend(self.note_delete(key, old, ctx));
        }
        Ok(out)
    }

    /// Applies an incoming split/merge/restore `TransferBatch`: stage the
    /// whole batch as **one atomic write**, force it durable, and only
    /// then acknowledge — the [`Wire::TransferAck`] is a promise that the
    /// records cannot be lost, which is what licenses the source to
    /// delete its copies. On a storage failure no ack is sent, so the
    /// source keeps the records and nothing is lost.
    fn receive_transfer(
        &mut self,
        from: SiteId,
        records: Vec<(u64, Vec<u8>)>,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        let olds: Vec<Option<Vec<u8>>> = records.iter().map(|(k, _)| self.engine.get(*k)).collect();
        // move the records into the batch — the batch is the only owned
        // copy the write path needs; bookkeeping below borrows it back
        let mut batch = WriteBatch::new();
        for (key, value) in records {
            batch.put(key, value);
        }
        let applied = self
            .engine
            .apply_batch(&batch)
            .and_then(|()| self.engine.flush());
        if applied.is_err() {
            ctx.obs.counter("storage.errors").inc();
            return Vec::new();
        }
        let mut out = Vec::new();
        for (op, old) in batch.ops().iter().zip(olds) {
            let BatchOp::Put { key, value } = op else {
                continue;
            };
            out.extend(self.note_put(*key, value, old, ctx));
        }
        crash_point("transfer-applied");
        out.push((from, Wire::TransferAck));
        // adoption of transferred records can itself overflow
        out.extend(self.maybe_report_overflow());
        out.extend(self.serve_held(ctx));
        out
    }

    /// The records are in: serves what [`Self::awaiting_records`] held
    /// back, in arrival order.
    fn serve_held(&mut self, ctx: &BucketCtx) -> Vec<(SiteId, Wire)> {
        let mut out = Vec::new();
        for (from, msg) in self.held.take().unwrap_or_default() {
            // only `Request`s are ever held, and none of them scans
            out.extend(self.handle(from, msg, ctx, &mut ScanMemo::default()));
        }
        out
    }

    /// Completes a pending split/merge once the target has durably
    /// applied the transfer: delete the shipped records locally (one
    /// atomic batch) and only now tell the coordinator the operation
    /// finished. An ack with no transfer pending is ignored; one from a
    /// site other than the target is dropped and counted.
    fn transfer_acked(&mut self, from: SiteId, ctx: &BucketCtx) -> Vec<(SiteId, Wire)> {
        let Some(pending) = self.pending_transfer.take() else {
            return Vec::new();
        };
        if pending.target != from {
            self.pending_transfer = Some(pending);
            return drop_wrong_sender(&ctx.obs);
        }
        let mut out = match self.remove_many(&pending.keys, ctx) {
            Ok(msgs) => msgs,
            Err(_) => {
                // The target holds the records durably; doomed local
                // copies surviving an I/O error are cleaned up by the
                // reopen-time re-addressing pass.
                ctx.obs.counter("storage.errors").inc();
                Vec::new()
            }
        };
        match pending.done {
            TransferDone::Split => {
                self.overflow_reported = false;
                out.push((SiteId(COORD_ID), Wire::SplitDone));
            }
            TransferDone::Merge => {
                // Dissolved: tear down the durable footprint so a reopen
                // cannot resurrect a retired bucket. (A crash before this
                // line leaves an empty — or doomed-copy — directory that
                // re-addressing also resolves.)
                if self.engine.destroy().is_err() {
                    ctx.obs.counter("storage.errors").inc();
                }
                out.push((SiteId(COORD_ID), Wire::MergeDone));
            }
        }
        out
    }

    fn parity_update(
        &self,
        rank: u32,
        key: Option<u64>,
        delta: Vec<u8>,
        cfg: &ParityConfig,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        if delta.iter().all(|&b| b == 0) {
            return Vec::new();
        }
        let group = self.addr / cfg.group_size as u64;
        ctx.directory
            .parity_sites(group)
            .into_iter()
            .map(|site| {
                let delta = delta.clone();
                (site, Wire::ParityUpdate { rank, key, delta })
            })
            .collect()
    }

    /// Restores reconstructed state verbatim (recovery): same ranks, no
    /// parity emissions. The posting index is rebuilt from the adopted
    /// records. The replacement is staged as one atomic `Clear` + puts
    /// batch, so a crash mid-adoption cannot leave a half-restored image
    /// on disk.
    fn adopt(
        &mut self,
        level: u8,
        slots: Vec<Option<(u64, Vec<u8>)>>,
        ctx: &BucketCtx,
    ) -> Vec<(SiteId, Wire)> {
        let mut batch = WriteBatch::new();
        batch.clear_all();
        // move each record into the batch once (no per-value clone); the
        // slot layout — rank = position, holes included — is remembered
        // separately for the rank-table rebuild below
        let mut slot_keys: Vec<Option<u64>> = Vec::with_capacity(slots.len());
        for entry in slots {
            match entry {
                Some((key, value)) => {
                    slot_keys.push(Some(key));
                    batch.put(key, value);
                }
                None => slot_keys.push(None),
            }
        }
        let applied = self
            .engine
            .apply_batch(&batch)
            .and_then(|()| self.engine.flush());
        if applied.is_err() {
            // keep the pre-adopt state (engine and tables) intact rather
            // than desynchronise bookkeeping from storage
            ctx.obs.counter("storage.errors").inc();
            return Vec::new();
        }
        self.level = level;
        self.ranks.clear();
        self.key_rank.clear();
        self.free_ranks.clear();
        if let Some(idx) = &mut self.index {
            idx.clear();
            // the batch's puts are exactly the occupied slots, in order
            for op in batch.ops() {
                let BatchOp::Put { key, value } = op else {
                    continue;
                };
                if ctx.filter.should_index(*key) {
                    idx.add(*key, value);
                }
            }
        }
        for (rank, entry) in slot_keys.into_iter().enumerate() {
            match entry {
                Some(key) => {
                    self.ranks.push(Some(key));
                    self.key_rank.insert(key, rank as u32);
                }
                None => {
                    self.ranks.push(None);
                    self.free_ranks.push(rank as u32);
                }
            }
        }
        self.serve_held(ctx)
    }

    fn maybe_report_overflow(&mut self) -> Vec<(SiteId, Wire)> {
        if self.engine.len() > self.capacity && !self.overflow_reported {
            self.overflow_reported = true;
            self.underflow_reported = false;
            vec![(SiteId(COORD_ID), Wire::Overflow)]
        } else {
            Vec::new()
        }
    }

    fn maybe_report_underflow(&mut self) -> Vec<(SiteId, Wire)> {
        if self.engine.len() < self.underflow_threshold() && !self.underflow_reported {
            self.underflow_reported = true;
            self.overflow_reported = false;
            vec![(SiteId(COORD_ID), Wire::Underflow)]
        } else {
            Vec::new()
        }
    }

    /// Dissolves this bucket into its split parent (the reverse of a
    /// split): ship every record over. The local copies — and the
    /// `MergeDone` report — wait for the parent's durable ack (see
    /// [`Self::transfer_acked`]), so a crash on either side of the
    /// handoff can never lose records. From here until `Shutdown` every
    /// `Request` is forwarded to the parent instead of served: an insert
    /// queued behind the `MergeCmd` would otherwise be acked and then
    /// destroyed with the engine. Per-pair FIFO delivers the forwards
    /// behind the `TransferBatch`, so the parent sees the records first.
    fn merge_into(&mut self, into_addr: u64, ctx: &BucketCtx) -> Vec<(SiteId, Wire)> {
        ctx.obs.counter("lh.merges").inc();
        let keys = self.engine.keys();
        let mut batch = Vec::with_capacity(keys.len());
        for &key in &keys {
            // listed from the engine just above; a miss would mean a bug,
            // but skipping is strictly better than aborting the whole site
            let Some(value) = self.engine.get(key) else {
                debug_assert!(false, "key listed but missing during merge");
                continue;
            };
            batch.push((key, value));
        }
        let parent = SiteRegistry::bucket_id(into_addr);
        self.pending_transfer = Some(PendingTransfer {
            keys,
            target: parent,
            done: TransferDone::Merge,
        });
        self.merged_into = Some(parent);
        vec![(
            parent,
            Wire::TransferBatch {
                level: self.level - 1,
                records: batch,
            },
        )]
    }

    /// Executes a split: raise the level and ship the rehashing records
    /// to the new bucket. The records stay here — and `SplitDone` stays
    /// unsent — until the target durably acknowledges the transfer (see
    /// [`Self::transfer_acked`]); until then the coordinator keeps the
    /// file marked busy, so scans cannot observe the duplicates.
    fn split(&mut self, new_addr: u64, ctx: &BucketCtx) -> Vec<(SiteId, Wire)> {
        ctx.obs.counter("lh.splits").inc();
        self.level += 1;
        let moving: Vec<u64> = self
            .engine
            .keys()
            .into_iter()
            .filter(|&k| h(k, self.level) == new_addr)
            .collect();
        let mut batch = Vec::with_capacity(moving.len());
        for &key in &moving {
            // listed from the engine just above; skip defensively rather
            // than abort the site (see merge_into)
            let Some(value) = self.engine.get(key) else {
                debug_assert!(false, "key listed but missing during split");
                continue;
            };
            batch.push((key, value));
        }
        crash_point("split-before-transfer");
        let target = SiteRegistry::bucket_id(new_addr);
        self.pending_transfer = Some(PendingTransfer {
            keys: moving,
            target,
            done: TransferDone::Split,
        });
        vec![(
            target,
            Wire::TransferBatch {
                level: self.level,
                records: batch,
            },
        )]
    }

    /// Evaluates one `ScanReq`: the wire query is decoded at most once,
    /// and not at all if `memo` holds it prepared (the prepared-query
    /// protocol), then either the posting index supplies a candidate key
    /// set to confirm, or the bucket falls back to a linear sweep (filters
    /// without probes, or probe widths the index does not cover). Values
    /// are cloned only for full-value replies; `keys_only` scans never
    /// copy record bodies.
    fn scan(
        &self,
        query: &[u8],
        keys_only: bool,
        ctx: &BucketCtx,
        memo: &mut ScanMemo,
    ) -> Vec<ScanMatch> {
        let _timer = ctx.scan.seconds.start_timer();
        let prepared = memo.prepared(&ctx.filter, query, &ctx.scan.prepares);
        if let (Some(idx), Some(probes)) = (&self.index, prepared.probes()) {
            if probes.iter().all(|p| p.len() == idx.element_bytes()) {
                // Child of this bucket's scan span (inert when the scan
                // request was untraced), so the trace distinguishes an
                // index probe from a linear fallback per bucket.
                let mut span = trace::remote_span("bucket.scan_index", trace::current_context());
                span.set_site(self.addr as i64);
                ctx.scan.index_probes.add(probes.len() as u64);
                let candidates = idx.candidates(probes);
                span.set_detail(candidates.len() as u64);
                ctx.scan.index_candidates.add(candidates.len() as u64);
                let mut matches = Vec::with_capacity(candidates.len());
                for key in candidates {
                    // every candidate came from a live posting, so the
                    // record exists; a miss would be an index consistency
                    // bug and skipping is strictly safer than aborting
                    let Some(v) = self.engine.get_ref(key) else {
                        debug_assert!(false, "posting for a record the bucket does not hold");
                        continue;
                    };
                    if prepared.matches(key, v) {
                        matches.push(ScanMatch {
                            key,
                            value: (!keys_only).then(|| v.to_vec()),
                        });
                    }
                }
                return matches;
            }
        }
        let mut span = trace::remote_span("bucket.scan_linear", trace::current_context());
        span.set_site(self.addr as i64);
        span.set_detail(self.engine.len() as u64);
        ctx.obs.counter("lh.scan_fallback_linear").inc();
        let mut matches = Vec::with_capacity(self.engine.len().min(64));
        self.engine.for_each(&mut |key, v| {
            if prepared.matches(key, v) {
                matches.push(ScanMatch {
                    key,
                    value: (!keys_only).then(|| v.to_vec()),
                });
            }
        });
        matches
    }

    /// The rank-indexed slot table for recovery reads.
    fn slot_table(&self, ctx: &BucketCtx) -> Vec<Option<(u64, Vec<u8>)>> {
        let Some(cfg) = &ctx.parity else {
            return Vec::new();
        };
        self.ranks
            .iter()
            .map(|maybe_key| {
                // a rank entry with no backing record (table inconsistency)
                // reads as an empty slot instead of aborting the site
                maybe_key.and_then(|k| {
                    self.engine
                        .get_ref(k)
                        .map(|v| (k, slot_of(v, cfg.slot_size)))
                })
            })
            .collect()
    }
}

/// Static span name for a message a bucket site handles.
fn wire_span_name(msg: &Wire) -> &'static str {
    match msg {
        Wire::Request { .. } => "bucket.request",
        Wire::ScanReq { .. } => "bucket.scan",
        Wire::SplitCmd { .. } => "bucket.split",
        Wire::MergeCmd { .. } => "bucket.merge",
        Wire::TransferBatch { .. } => "bucket.transfer",
        Wire::TransferAck => "bucket.transfer_ack",
        Wire::SlotsRead { .. } => "bucket.slots_read",
        Wire::Adopt { .. } => "bucket.adopt",
        Wire::Dump { .. } => "bucket.dump",
        _ => "bucket.msg",
    }
}

/// A bucket as the runtime sees it: the state plus its wiring.
pub(crate) struct BucketSite {
    pub state: BucketState,
    pub ctx: BucketCtx,
}

impl Machine for BucketSite {
    /// A reopened bucket first rebuilds its volatile bookkeeping from the
    /// recovered records (and may immediately re-report an overflow).
    fn start(&mut self) -> Vec<(SiteId, Wire)> {
        self.state.startup(&self.ctx)
    }

    fn span(&self, _site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
        let mut span = trace::remote_span(wire_span_name(msg), ctx);
        span.set_site(self.state.addr as i64);
        if let Wire::Request { hops, .. } = msg {
            span.set_detail(*hops as u64);
        }
        span
    }

    fn handle(&mut self, from: SiteId, msg: Wire, memo: &mut ScanMemo) -> Vec<(SiteId, Wire)> {
        self.state.handle(from, msg, &self.ctx, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::SubstringFilter;
    use sdds_net::{NetConfig, Network};
    use sdds_storage::MemEngine;

    impl BucketState {
        fn len(&self) -> usize {
            self.engine.len()
        }
    }

    fn mem_bucket(addr: u64, level: u8, capacity: usize) -> BucketState {
        BucketState::new(addr, level, capacity, None, Box::new(MemEngine::new()))
    }

    fn ctx() -> (BucketCtx, SiteId) {
        let ctx = BucketCtx::new(
            Arc::new(Directory::new()),
            Arc::new(SubstringFilter),
            None,
            Registry::new("bucket-test"),
        );
        (ctx, SiteId(COORD_ID))
    }

    #[test]
    fn serves_insert_lookup_delete_locally() {
        let (ctx, _) = ctx();
        let mut b = mem_bucket(0, 0, 100);
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Insert {
                    key: 5,
                    value: vec![1],
                },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].1,
            Wire::Response {
                result: OpResult::Inserted { replaced: false },
                ..
            }
        ));
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 2,
                client: 9,
                hops: 0,
                op: Op::Lookup { key: 5 },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert!(matches!(
            &out[0].1,
            Wire::Response { result: OpResult::Found { value: Some(v) }, .. } if v == &vec![1]
        ));
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 3,
                client: 9,
                hops: 0,
                op: Op::Delete { key: 5 },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            Wire::Response {
                result: OpResult::Deleted { existed: true },
                ..
            }
        )));
        // the bucket is now far below the shrink threshold and says so
        assert!(out.iter().any(|(_, m)| matches!(m, Wire::Underflow)));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn forwards_misaddressed_requests() {
        let (ctx, _) = ctx();
        // bucket 0 at level 1: key 3 hashes to 1 → forward
        let mut b = mem_bucket(0, 1, 100);
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Lookup { key: 3 },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(1), "bucket 1's site id is its address");
        assert!(matches!(out[0].1, Wire::Request { hops: 1, .. }));
    }

    #[test]
    fn missing_target_descends_to_split_ancestor() {
        // Regression: a merge retires its victim from the directory, but
        // other buckets' levels still name it. A request whose target is
        // the retired bucket must be forwarded to the split ancestor
        // (where the records went), never stored locally at a wrong
        // bucket where it would become unreachable.
        let (ctx, _) = ctx();
        // bucket 3 (the merge victim) is retired
        ctx.directory.retire(3);
        // bucket 0 at level 2: key 3 targets bucket 3
        let mut b = mem_bucket(0, 2, 100);
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Insert {
                    key: 3,
                    value: vec![1],
                },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(1), "descend to h(3, level-1) = bucket 1");
        assert!(matches!(out[0].1, Wire::Request { hops: 1, .. }));
        assert_eq!(b.len(), 0, "nothing stored at the wrong bucket");
    }

    #[test]
    fn overflow_reported_once() {
        let (ctx, coord) = ctx();
        let mut b = mem_bucket(0, 0, 2);
        let mut overflow_msgs = 0;
        for key in 0..5u64 {
            let out = b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert { key, value: vec![] },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
            overflow_msgs += out
                .iter()
                .filter(|(to, m)| *to == coord && matches!(m, Wire::Overflow))
                .count();
        }
        assert_eq!(overflow_msgs, 1, "overflow must be reported exactly once");
    }

    #[test]
    fn split_moves_rehashing_records() {
        let (ctx, coord) = ctx();
        let mut b = mem_bucket(0, 0, 100);
        for key in 0..10u64 {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert {
                        key,
                        value: vec![key as u8],
                    },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        }
        let out = b.handle(
            coord,
            Wire::SplitCmd { new_addr: 1 },
            &ctx,
            &mut ScanMemo::default(),
        );
        // transfer carries the odd keys (h_1(k) == 1) to bucket 1's site
        let transfer = out
            .iter()
            .find_map(|(to, m)| match m {
                Wire::TransferBatch { records, level } if *to == SiteId(1) => {
                    Some((records.clone(), *level))
                }
                _ => None,
            })
            .expect("transfer sent");
        assert_eq!(transfer.1, 1);
        let moved: Vec<u64> = transfer.0.iter().map(|(k, _)| *k).collect();
        assert_eq!(moved, vec![1, 3, 5, 7, 9]);
        // two-phase handoff: until the target's durable ack, the shipped
        // records stay local and the coordinator hears nothing
        assert_eq!(b.len(), 10, "records must not leave before the ack");
        assert!(
            !out.iter().any(|(_, m)| matches!(m, Wire::SplitDone)),
            "SplitDone must wait for the ack"
        );
        let out = b.handle(SiteId(1), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert_eq!(b.len(), 5);
        assert!(out
            .iter()
            .any(|(to, m)| *to == coord && matches!(m, Wire::SplitDone)));
    }

    #[test]
    fn stray_transfer_ack_is_ignored() {
        let (ctx, _) = ctx();
        let mut b = mem_bucket(0, 0, 100);
        b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Insert {
                    key: 4,
                    value: vec![1],
                },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        // no transfer pending: an ack (e.g. a restore replay echo) is a no-op
        let out = b.handle(SiteId(7), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert!(out.is_empty());
        assert_eq!(b.len(), 1);
    }

    /// The envelope names who acks a transfer and who orders a split: an
    /// ack from a bucket other than the target, and a `SplitCmd` from
    /// anyone but the coordinator, are dropped and counted, and change
    /// nothing.
    #[test]
    fn an_ack_or_a_command_from_the_wrong_sender_is_dropped_and_counted() {
        let (ctx, coord) = ctx();
        let drops = ctx.obs.counter("lh.wrong_sender_drops");
        let mut b = mem_bucket(0, 0, 100);
        for key in 0..4u64 {
            let insert = Wire::Request {
                req_id: key,
                client: 9,
                hops: 0,
                op: Op::Insert { key, value: vec![] },
            };
            b.handle(SiteId(9), insert, &ctx, &mut ScanMemo::default());
        }
        let split = Wire::SplitCmd { new_addr: 1 };
        let out = b.handle(SiteId(9), split.clone(), &ctx, &mut ScanMemo::default());
        assert!(out.is_empty(), "a client cannot order a split");
        assert_eq!((drops.get(), b.level), (1, 0));
        b.handle(coord, split, &ctx, &mut ScanMemo::default());
        let out = b.handle(SiteId(2), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert!(out.is_empty(), "bucket 2 is not the target");
        assert_eq!((drops.get(), b.len()), (2, 4));
        // the target's ack still completes the split
        let out = b.handle(SiteId(1), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert!(out.iter().any(|(_, m)| matches!(m, Wire::SplitDone)));
        assert_eq!((drops.get(), b.len()), (2, 2));
    }

    #[test]
    fn merge_ships_everything_and_reports() {
        let (ctx, coord) = ctx();
        let mut b = mem_bucket(2, 2, 100);
        for key in [2u64, 6, 10] {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert {
                        key,
                        value: vec![key as u8],
                    },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        }
        let out = b.handle(
            coord,
            Wire::MergeCmd { into_addr: 0 },
            &ctx,
            &mut ScanMemo::default(),
        );
        let transfer = out
            .iter()
            .find_map(|(to, m)| match m {
                Wire::TransferBatch { records, level } if *to == SiteId(0) => {
                    Some((records.clone(), *level))
                }
                _ => None,
            })
            .expect("transfer sent");
        // the parent adopts the pre-merge level minus one
        assert_eq!(transfer.1, 1);
        let keys: Vec<u64> = transfer.0.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 6, 10], "every record ships");
        // two-phase handoff: nothing is deleted, and MergeDone is not
        // reported, until the parent's durable ack
        assert_eq!(b.len(), 3, "records must not leave before the ack");
        assert!(!out.iter().any(|(_, m)| matches!(m, Wire::MergeDone)));
        let out = b.handle(SiteId(0), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert_eq!(b.len(), 0, "dissolved bucket is empty");
        assert!(out
            .iter()
            .any(|(to, m)| *to == coord && matches!(m, Wire::MergeDone)));
    }

    /// Window (b) of the shrink bug: an insert queued behind the
    /// `MergeCmd` was served by the dissolving bucket — acked, then
    /// destroyed with the engine when the parent's ack arrived.
    #[test]
    fn merged_bucket_forwards_requests_to_the_parent() {
        let (ctx, coord) = ctx();
        let mut b = mem_bucket(2, 2, 100);
        b.handle(
            coord,
            Wire::MergeCmd { into_addr: 0 },
            &ctx,
            &mut ScanMemo::default(),
        );
        let insert = Wire::Request {
            req_id: 1,
            client: 9,
            hops: 0,
            op: Op::Insert {
                key: 6,
                value: vec![1],
            },
        };
        let out = b.handle(SiteId(9), insert.clone(), &ctx, &mut ScanMemo::default());
        assert_eq!(out, vec![(SiteId(0), insert.clone())], "sent on as it came");
        assert_eq!(b.len(), 0, "nothing stored in the dissolving bucket");
        // and the same after the parent's ack, until `Shutdown`
        b.handle(SiteId(0), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        assert_eq!(
            b.handle(SiteId(9), insert.clone(), &ctx, &mut ScanMemo::default())[0].0,
            SiteId(0)
        );
    }

    /// Window (c) of the shrink bug: a split target is in the directory
    /// before the source's `TransferBatch` reaches it, and a lookup served
    /// in between read `None` for a record that was about to arrive.
    #[test]
    fn fresh_split_target_holds_requests_until_its_records_arrive() {
        let (ctx, _) = ctx();
        let mut b = mem_bucket(1, 1, 100).awaiting_records();
        let lookup = Wire::Request {
            req_id: 1,
            client: 9,
            hops: 0,
            op: Op::Lookup { key: 3 },
        };
        assert!(
            b.handle(SiteId(9), lookup, &ctx, &mut ScanMemo::default())
                .is_empty(),
            "held"
        );
        let out = b.handle(
            SiteId(10),
            Wire::TransferBatch {
                level: 1,
                records: vec![(3, vec![7])],
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        let responses: Vec<&Wire> = out
            .iter()
            .filter(|(to, _)| *to == SiteId(9))
            .map(|(_, m)| m)
            .collect();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0],
            Wire::Response { req_id: 1, result: OpResult::Found { value: Some(v) }, .. } if v == &vec![7]
        ));
        // from then on requests are served as they come
        let again = Wire::Request {
            req_id: 2,
            client: 9,
            hops: 0,
            op: Op::Lookup { key: 3 },
        };
        assert_eq!(
            b.handle(SiteId(9), again, &ctx, &mut ScanMemo::default())
                .len(),
            1
        );
    }

    #[test]
    fn adopt_restores_ranks_verbatim_without_parity_noise() {
        let net = Network::new(NetConfig::default());
        let directory = Arc::new(Directory::new());
        let coord = net.register();
        let parity_site = net.register();
        directory.set_parity(0, vec![parity_site.id()]);
        let ctx = BucketCtx::new(
            directory,
            Arc::new(SubstringFilter),
            Some(ParityConfig {
                group_size: 2,
                parity_count: 1,
                slot_size: 32,
            }),
            Registry::new("bucket-test"),
        );
        let mut b = mem_bucket(0, 1, 100);
        // adopt a reconstructed slot table with a hole at rank 1
        let out = b.handle(
            coord.id(),
            Wire::Adopt {
                level: 1,
                slots: vec![Some((4, vec![1])), None, Some((8, vec![2]))],
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert!(out.is_empty(), "adopt must not emit parity updates");
        assert_eq!(b.len(), 2);
        // a subsequent insert reuses the free rank 1 (parity rows stay aligned)
        let out = b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Insert {
                    key: 12,
                    value: vec![3],
                },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        let update = out
            .iter()
            .find_map(|(to, m)| match m {
                Wire::ParityUpdate { rank, key, .. } if *to == parity_site.id() => {
                    Some((*rank, *key))
                }
                _ => None,
            })
            .expect("parity update for the new record");
        assert_eq!(
            update,
            (1, Some(12)),
            "free rank from the adopted table is reused"
        );
    }

    #[test]
    fn dump_reports_full_contents() {
        let (ctx, _) = ctx();
        let mut b = mem_bucket(3, 2, 10);
        b.handle(
            SiteId(9),
            Wire::Request {
                req_id: 1,
                client: 9,
                hops: 0,
                op: Op::Insert {
                    key: 3,
                    value: vec![7],
                },
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        let out = b.handle(
            SiteId(5),
            Wire::Dump { req_id: 9 },
            &ctx,
            &mut ScanMemo::default(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(5), "the reply goes to the sender");
        assert!(matches!(
            &out[0].1,
            Wire::DumpState { req_id: 9, level: 2, records }
                if records == &vec![(3u64, vec![7u8])]
        ));
    }

    #[test]
    fn underflow_reports_once_until_refilled() {
        let (ctx, coord) = ctx();
        let mut b = mem_bucket(0, 0, 64); // threshold 8
        for key in 0..10u64 {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert { key, value: vec![] },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        }
        let mut underflows = 0;
        for key in 0..10u64 {
            let out = b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: 100 + key,
                    client: 9,
                    hops: 0,
                    op: Op::Delete { key },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
            underflows += out
                .iter()
                .filter(|(to, m)| *to == coord && matches!(m, Wire::Underflow))
                .count();
        }
        assert_eq!(underflows, 1, "underflow must be reported exactly once");
    }

    #[test]
    fn scan_applies_filter() {
        let (ctx, _) = ctx();
        let mut b = mem_bucket(0, 0, 100);
        for (key, val) in [(1u64, b"SCHWARZ".to_vec()), (2, b"LITWIN".to_vec())] {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert { key, value: val },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        }
        let out = b.handle(
            SiteId(9),
            Wire::ScanReq {
                req_id: 5,
                query: b"WARZ".to_vec(),
                keys_only: false,
            },
            &ctx,
            &mut ScanMemo::default(),
        );
        let Wire::ScanResp { matches, .. } = &out[0].1 else {
            panic!("scan resp")
        };
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].key, 1);
        assert_eq!(matches[0].value.as_deref(), Some(b"SCHWARZ".as_slice()));
    }

    /// Regression (ISSUE 6 satellite): `key_rank` must never retain
    /// entries for removed keys — rank drift would corrupt the recovery
    /// slot table and the WAL snapshot ordering. Interleaves inserts,
    /// overwrites, deletes (including of absent keys), and a full merge.
    #[test]
    fn key_rank_never_drifts_from_records() {
        let net = Network::new(NetConfig::default());
        let directory = Arc::new(Directory::new());
        let parity_site = net.register();
        directory.set_parity(1, vec![parity_site.id()]);
        let ctx = BucketCtx::new(
            directory,
            Arc::new(SubstringFilter),
            Some(ParityConfig {
                group_size: 2,
                parity_count: 1,
                slot_size: 32,
            }),
            Registry::new("bucket-test"),
        );
        let mut b = mem_bucket(2, 2, 100);
        let check = |b: &BucketState, step: &str| {
            assert_eq!(
                b.key_rank.len(),
                b.engine.len(),
                "key_rank drifted from records after {step}"
            );
            for (&key, &rank) in &b.key_rank {
                assert_eq!(
                    b.ranks.get(rank as usize).copied().flatten(),
                    Some(key),
                    "rank table inconsistent after {step}"
                );
            }
        };
        let insert = |b: &mut BucketState, key: u64, v: u8| {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: key,
                    client: 9,
                    hops: 0,
                    op: Op::Insert {
                        key,
                        value: vec![v],
                    },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        };
        let delete = |b: &mut BucketState, key: u64| {
            b.handle(
                SiteId(9),
                Wire::Request {
                    req_id: 1000 + key,
                    client: 9,
                    hops: 0,
                    op: Op::Delete { key },
                },
                &ctx,
                &mut ScanMemo::default(),
            );
        };
        for key in [2u64, 6, 10, 14] {
            insert(&mut b, key, key as u8);
            check(&b, "insert");
        }
        insert(&mut b, 6, 99); // overwrite keeps the same rank
        check(&b, "overwrite");
        delete(&mut b, 10);
        check(&b, "delete");
        delete(&mut b, 10); // double delete of a gone key
        check(&b, "double delete");
        delete(&mut b, 777); // delete of a never-present key
        check(&b, "absent delete");
        insert(&mut b, 18, 7); // reuses the freed rank
        check(&b, "insert after delete");
        // merge ships everything; after the ack the tables must be empty
        b.handle(
            SiteId(COORD_ID),
            Wire::MergeCmd { into_addr: 0 },
            &ctx,
            &mut ScanMemo::default(),
        );
        check(&b, "merge (pre-ack: records still local)");
        b.handle(SiteId(0), Wire::TransferAck, &ctx, &mut ScanMemo::default());
        check(&b, "merge ack");
        assert_eq!(b.key_rank.len(), 0);
        assert!(b.ranks.iter().all(Option::is_none));
    }

    /// A bucket reopened over a non-empty engine rebuilds its posting
    /// index and rank tables, and re-reports overflow if it recovers past
    /// capacity.
    #[test]
    fn startup_rebuilds_bookkeeping_from_recovered_records() {
        let (mut ctx, coord) = ctx();
        ctx.parity = Some(ParityConfig {
            group_size: 2,
            parity_count: 1,
            slot_size: 32,
        });
        let mut engine = MemEngine::new();
        for key in [4u64, 8, 12] {
            engine.put(key, &[key as u8]).unwrap();
        }
        // index width 1: SubstringFilter probes are byte-grams
        let mut b = BucketState::new(0, 2, 2, Some(1), Box::new(engine));
        let out = b.startup(&ctx);
        assert_eq!(b.key_rank.len(), 3);
        assert_eq!(b.ranks.iter().flatten().count(), 3);
        assert!(
            b.index.as_ref().is_some_and(|idx| idx.len() > 0),
            "posting index rebuilt from recovered records"
        );
        assert!(
            out.iter()
                .any(|(to, m)| *to == coord && matches!(m, Wire::Overflow)),
            "recovered past capacity 2 must re-report overflow"
        );
        // an empty engine's startup is silent
        let mut fresh = mem_bucket(1, 2, 2);
        assert!(fresh.startup(&ctx).is_empty());
    }
}
