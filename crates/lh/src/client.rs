//! The LH\* client: key operations through a possibly-stale file image.

use crate::cluster::Directory;
use crate::hash::{split_children, ClientImage};
use crate::messages::{Op, OpResult, ScanMatch, Wire};
use bytes::Bytes;
use sdds_net::{Endpoint, NetError, Scatter, SiteId, COORD_ID};
use sdds_obs::trace;
use sdds_obs::{Counter, Histogram};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced to LH\* applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LhError {
    /// Underlying network failure.
    Net(NetError),
    /// No response arrived in time.
    Timeout,
    /// The serving bucket rejected the operation.
    Rejected(String),
    /// The durable storage backend failed (rendered, since the underlying
    /// `io::Error` is neither `Clone` nor `Eq`).
    Storage(String),
    /// A scan could not obtain an answer from every bucket (typically
    /// because one is dead and awaiting recovery); returning `Ok` would
    /// silently hide the coverage gap.
    ScanIncomplete {
        /// Bucket addresses that never answered.
        missing: Vec<u64>,
    },
}

impl fmt::Display for LhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LhError::Net(e) => write!(f, "network error: {e}"),
            LhError::Timeout => write!(f, "request timed out"),
            LhError::Rejected(m) => write!(f, "operation rejected: {m}"),
            LhError::Storage(m) => write!(f, "storage error: {m}"),
            LhError::ScanIncomplete { missing } => {
                write!(f, "scan incomplete: no answer from buckets {missing:?}")
            }
        }
    }
}

impl std::error::Error for LhError {}

impl From<NetError> for LhError {
    fn from(e: NetError) -> LhError {
        LhError::Net(e)
    }
}

/// How a client reacts when a bounded site inbox rejects a send with
/// [`NetError::Overloaded`] (admission control). The client backs off and
/// retries the same site with exponential delay; every rejection is
/// counted in `lh.rejected_total`. Once `max_retries` is exhausted the
/// `Overloaded` error propagates like any other network failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first rejected send (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub initial_backoff: Duration,
    /// Ceiling on the per-retry backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first `Overloaded` propagates.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

/// A client of an LH\* file. Each client owns a network endpoint and its
/// private [`ClientImage`], updated by Image Adjustment Messages.
pub struct LhClient {
    endpoint: Endpoint,
    directory: Arc<Directory>,
    image: Cell<ClientImage>,
    next_req: Cell<u64>,
    timeout: Cell<Duration>,
    retry: Cell<RetryPolicy>,
    /// Total IAMs received — observable measure of image staleness.
    iams: Cell<u64>,
    /// Total forwarding hops reported — the paper's ≤2 invariant.
    hops: Cell<u64>,
    metrics: ClientMetrics,
}

/// Handles of the metrics a request or a reply touches, resolved once: a
/// lookup by name is a global lock and a map probe, six of them a reply.
struct ClientMetrics {
    insert_seconds: Histogram,
    lookup_seconds: Histogram,
    delete_seconds: Histogram,
    requests: Counter,
    hops: Counter,
    /// Requests by hop count: 0, 1, 2, more. The paper proves at most
    /// two hops are ever needed; `lh.requests_hops_gt2` staying zero is
    /// that invariant as a queryable metric. All four exist from the
    /// first client on, so the last reads as an explicit 0 — an absent
    /// counter would leave the invariant unchecked.
    requests_by_hops: [Counter; 4],
    iams: Counter,
    rejected_total: Counter,
}

impl ClientMetrics {
    fn new() -> ClientMetrics {
        ClientMetrics {
            insert_seconds: sdds_obs::histogram("lh.insert_seconds"),
            lookup_seconds: sdds_obs::histogram("lh.lookup_seconds"),
            delete_seconds: sdds_obs::histogram("lh.delete_seconds"),
            requests: sdds_obs::counter("lh.requests"),
            hops: sdds_obs::counter("lh.hops"),
            requests_by_hops: [
                sdds_obs::counter("lh.requests_hops_0"),
                sdds_obs::counter("lh.requests_hops_1"),
                sdds_obs::counter("lh.requests_hops_2"),
                sdds_obs::counter("lh.requests_hops_gt2"),
            ],
            iams: sdds_obs::counter("lh.iams"),
            rejected_total: sdds_obs::counter("lh.rejected_total"),
        }
    }
}

impl fmt::Debug for LhClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LhClient")
            .field("site", &self.endpoint.id())
            .field("image", &self.image.get())
            .finish()
    }
}

impl LhClient {
    pub(crate) fn new(endpoint: Endpoint, directory: Arc<Directory>) -> LhClient {
        LhClient {
            endpoint,
            directory,
            image: Cell::new(ClientImage::default()),
            next_req: Cell::new(1),
            timeout: Cell::new(Duration::from_secs(10)),
            retry: Cell::new(RetryPolicy::default()),
            iams: Cell::new(0),
            hops: Cell::new(0),
            metrics: ClientMetrics::new(),
        }
    }

    /// Sets the total per-operation timeout (spread over the retry
    /// attempts). Useful under fault injection to fail fast.
    pub fn set_timeout(&self, timeout: Duration) {
        self.timeout.set(timeout);
    }

    /// Sets the backoff policy applied when a bounded site inbox rejects
    /// a send ([`NetError::Overloaded`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.retry.set(policy);
    }

    /// The client's current admission-control retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.get()
    }

    /// Sends with admission-control awareness. `Overloaded` means the
    /// target's bounded inbox was full and the network refused the send at
    /// the sender — no message was queued — so the client backs off and
    /// retries the *same* site (the record still hashes there; rerouting
    /// would just forward back into the hot inbox). Every rejection is
    /// visible in `lh.rejected_total`.
    fn send_admitted(&self, site: SiteId, payload: Bytes) -> Result<(), NetError> {
        let policy = self.retry.get();
        let mut backoff = policy.initial_backoff;
        let mut rejections = 0;
        loop {
            match self.endpoint.send(site, payload.clone()) {
                Err(NetError::Overloaded(s)) => {
                    self.metrics.rejected_total.inc();
                    if rejections >= policy.max_retries {
                        return Err(NetError::Overloaded(s));
                    }
                    rejections += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(policy.max_backoff);
                }
                other => return other,
            }
        }
    }

    /// The fan-out variant of [`send_admitted`](Self::send_admitted):
    /// sends every `(tag, site, payload)` of `wave` in one [`Scatter`],
    /// so the receivers are woken once the whole wave is enqueued, and
    /// only then backs off for the destinations whose inbox was full —
    /// one overloaded bucket holds back nobody else's request. Those are
    /// retried up to `max_retries` times along the policy's back-off
    /// ladder, every rejection counted in `lh.rejected_total`. Returns
    /// what could not be sent: still rejected, or failed outright.
    fn fan_out<T>(
        &self,
        mut wave: Vec<(T, SiteId, Bytes)>,
        max_retries: u32,
    ) -> Vec<(T, SiteId, Bytes)> {
        let policy = self.retry.get();
        let ctx = trace::current_context();
        let mut backoff = policy.initial_backoff;
        let mut failed = Vec::new();
        for round in 0..=max_retries {
            if round > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            let mut scatter = Scatter::new();
            let mut rejected = Vec::new();
            for (tag, site, payload) in wave {
                match self
                    .endpoint
                    .send_with(&mut scatter, site, payload.clone(), ctx)
                {
                    Ok(()) => {}
                    Err(NetError::Overloaded(_)) => {
                        self.metrics.rejected_total.inc();
                        rejected.push((tag, site, payload));
                    }
                    Err(_) => failed.push((tag, site, payload)),
                }
            }
            wave = rejected;
            if wave.is_empty() {
                break;
            }
        }
        failed.extend(wave);
        failed
    }

    /// One attempt's sends of a pipelined batch: each request to its
    /// key's bucket under the current image, as one fan-out with one
    /// quick back-off for the rejected, then shed. Batch operations
    /// retransmit unanswered items each attempt, so the full back-off
    /// ladder would burn the attempt window sleeping instead of draining
    /// the responses that unblock the receiving site. What a bucket
    /// refuses (merged away since the directory was read, or full) goes
    /// to bucket 0, which always exists and forwards correctly.
    fn send_batch<'a>(&self, requests: impl Iterator<Item = &'a Wire>) -> Result<(), LhError> {
        let image = self.image.get();
        let bucket0 = self.directory.bucket_site(0);
        let mut wave = Vec::new();
        for msg in requests {
            // a batch only ever holds `Wire::Request`; skip defensively
            // rather than panic
            let Wire::Request { op, .. } = msg else {
                continue;
            };
            let site = self
                .directory
                .bucket_site(image.address(op.key()))
                .or(bucket0)
                .ok_or(LhError::Net(NetError::UnknownSite(SiteId(0))))?;
            wave.push(((), site, msg.encode()));
        }
        let refused = self.fan_out(wave, 1);
        if let Some(fallback) = bucket0 {
            let wave = refused
                .into_iter()
                .map(|(_, _, payload)| ((), fallback, payload))
                .collect();
            self.fan_out(wave, 1);
        }
        Ok(())
    }

    /// Accounts for a served request: the hop counters, and the image
    /// adjustment a forwarded request's reply carries.
    fn served(&self, hops: u8, served_by: u64, bucket_level: u8) {
        let m = &self.metrics;
        m.requests.inc();
        m.hops.add(hops as u64);
        m.requests_by_hops[(hops as usize).min(3)].inc();
        if hops > 0 {
            m.iams.inc();
            self.iams.set(self.iams.get() + 1);
            self.hops.set(self.hops.get() + hops as u64);
            let mut image = self.image.get();
            image.adjust(served_by, bucket_level);
            self.image.set(image);
        }
    }

    /// The client's current image of the file.
    pub fn image(&self) -> ClientImage {
        self.image.get()
    }

    /// Image adjustments received so far.
    pub fn iam_count(&self) -> u64 {
        self.iams.get()
    }

    /// Total forwarding hops across all requests so far.
    pub fn hop_count(&self) -> u64 {
        self.hops.get()
    }

    fn fresh_req_id(&self) -> u64 {
        let id = self.next_req.get();
        self.next_req.set(id + 1);
        id
    }

    /// Inserts or overwrites; returns true if a previous value existed.
    pub fn insert(&self, key: u64, value: Vec<u8>) -> Result<bool, LhError> {
        match self.call(Op::Insert { key, value })? {
            OpResult::Inserted { replaced } => Ok(replaced),
            OpResult::Error { message } => Err(LhError::Rejected(message)),
            // a mismatched reply is a peer protocol violation, not a
            // client bug: surface it instead of aborting
            other => Err(LhError::Rejected(format!("insert answered with {other:?}"))),
        }
    }

    /// Looks a key up.
    pub fn lookup(&self, key: u64) -> Result<Option<Vec<u8>>, LhError> {
        match self.call(Op::Lookup { key })? {
            OpResult::Found { value } => Ok(value),
            OpResult::Error { message } => Err(LhError::Rejected(message)),
            // see insert(): protocol violation, not a client bug
            other => Err(LhError::Rejected(format!("lookup answered with {other:?}"))),
        }
    }

    /// Deletes a key; returns true if it existed.
    pub fn delete(&self, key: u64) -> Result<bool, LhError> {
        match self.call(Op::Delete { key })? {
            OpResult::Deleted { existed } => Ok(existed),
            OpResult::Error { message } => Err(LhError::Rejected(message)),
            // see insert(): protocol violation, not a client bug
            other => Err(LhError::Rejected(format!("delete answered with {other:?}"))),
        }
    }

    /// Per-call retransmission attempts: the simulated network may drop
    /// messages (fault injection), so requests are retried like any
    /// RPC-over-datagram protocol. Key operations are idempotent, so
    /// retries are safe even if the original request was served and only
    /// the response was lost.
    const ATTEMPTS: u32 = 5;

    fn call(&self, op: Op) -> Result<OpResult, LhError> {
        let timer = match &op {
            Op::Insert { .. } => &self.metrics.insert_seconds,
            Op::Lookup { .. } => &self.metrics.lookup_seconds,
            Op::Delete { .. } => &self.metrics.delete_seconds,
        };
        // One span per key operation; it stays open across retransmission
        // attempts, so every (re)sent request carries the same context and
        // dropped messages remain attributable to this operation.
        let mut span = trace::child_span("lh.request");
        let _timer = timer.start_timer();
        let req_id = self.fresh_req_id();
        let key = op.key();
        let msg = Wire::Request {
            req_id,
            client: self.endpoint.id().0,
            hops: 0,
            op,
        };
        let attempt_timeout = self.timeout.get() / Self::ATTEMPTS;
        for attempt in 0..Self::ATTEMPTS {
            if attempt > 0 {
                sdds_obs::counter("lh.retries").inc();
            }
            let addr = self.image.get().address(key);
            let site = self
                .directory
                .bucket_site(addr)
                .or_else(|| self.directory.bucket_site(0))
                .ok_or(LhError::Net(NetError::UnknownSite(SiteId(0))))?;
            if self.send_admitted(site, msg.encode()).is_err() {
                // The addressed bucket was merged away between the
                // directory read and the send (the file shrank), or its
                // inbox stayed full past the retry budget. Bucket 0
                // always exists and forwards correctly.
                let fallback = self
                    .directory
                    .bucket_site(0)
                    .ok_or(LhError::Net(NetError::UnknownSite(SiteId(0))))?;
                self.send_admitted(fallback, msg.encode())?;
            }
            let deadline = Instant::now() + attempt_timeout;
            loop {
                let env = match self.endpoint.recv_until(deadline) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e.into()),
                };
                let Some(Wire::Response {
                    req_id: rid,
                    result,
                    served_by,
                    bucket_level,
                    hops,
                }) = Wire::decode(&env.payload)
                else {
                    continue; // stray message (late scan reply etc.)
                };
                if rid != req_id {
                    continue; // late response to an abandoned request
                }
                span.set_detail(hops as u64);
                self.served(hops, served_by, bucket_level);
                return Ok(result);
            }
        }
        Err(LhError::Timeout)
    }

    /// Pipelined bulk insert: all requests are sent before any response is
    /// awaited, so a batch costs one round-trip of latency instead of one
    /// per record (the record store copy and its index records travel
    /// together). Lost messages are retransmitted per item.
    pub fn insert_batch(&self, items: Vec<(u64, Vec<u8>)>) -> Result<(), LhError> {
        let _span = trace::child_span("lh.insert_batch");
        let _timer = sdds_obs::histogram("lh.insert_batch_seconds").start_timer();
        sdds_obs::counter("lh.insert_batch_items").add(items.len() as u64);
        let mut pending: HashMap<u64, Wire> = HashMap::with_capacity(items.len());
        for (key, value) in items {
            let req_id = self.fresh_req_id();
            pending.insert(
                req_id,
                Wire::Request {
                    req_id,
                    client: self.endpoint.id().0,
                    hops: 0,
                    op: Op::Insert { key, value },
                },
            );
        }
        let attempt_timeout = self.timeout.get() / Self::ATTEMPTS;
        for _attempt in 0..Self::ATTEMPTS {
            if pending.is_empty() {
                return Ok(());
            }
            self.send_batch(pending.values())?;
            let deadline = Instant::now() + attempt_timeout;
            while !pending.is_empty() {
                let env = match self.endpoint.recv_until(deadline) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e.into()),
                };
                let Some(Wire::Response {
                    req_id,
                    result,
                    served_by,
                    bucket_level,
                    hops,
                }) = Wire::decode(&env.payload)
                else {
                    continue;
                };
                if pending.remove(&req_id).is_some() {
                    if let OpResult::Error { message } = result {
                        return Err(LhError::Rejected(message));
                    }
                    self.served(hops, served_by, bucket_level);
                }
            }
        }
        if pending.is_empty() {
            Ok(())
        } else {
            Err(LhError::Timeout)
        }
    }

    /// Pipelined bulk delete: all requests are sent before any response
    /// is awaited, so a batch costs one round-trip of latency instead of
    /// one per key. Returns, per input key in order, whether the record
    /// existed. Deletes are idempotent so lost messages are retransmitted
    /// per item (with the usual caveat that a retry of a served-but-lost
    /// response reports `existed = false`, exactly like [`delete`]).
    ///
    /// [`delete`]: Self::delete
    pub fn delete_batch(&self, keys: Vec<u64>) -> Result<Vec<bool>, LhError> {
        let _span = trace::child_span("lh.delete_batch");
        let _timer = sdds_obs::histogram("lh.delete_batch_seconds").start_timer();
        let batch_items = keys.len();
        sdds_obs::counter("lh.delete_batch_items").add(batch_items as u64);
        let mut existed = vec![false; batch_items];
        // req_id → (input slot, request wire)
        let mut pending: HashMap<u64, (usize, Wire)> = HashMap::with_capacity(keys.len());
        for (slot, key) in keys.into_iter().enumerate() {
            let req_id = self.fresh_req_id();
            pending.insert(
                req_id,
                (
                    slot,
                    Wire::Request {
                        req_id,
                        client: self.endpoint.id().0,
                        hops: 0,
                        op: Op::Delete { key },
                    },
                ),
            );
        }
        let attempt_timeout = self.timeout.get() / Self::ATTEMPTS;
        for _attempt in 0..Self::ATTEMPTS {
            if pending.is_empty() {
                return Ok(existed);
            }
            self.send_batch(pending.values().map(|(_, msg)| msg))?;
            let deadline = Instant::now() + attempt_timeout;
            while !pending.is_empty() {
                let env = match self.endpoint.recv_until(deadline) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e.into()),
                };
                let Some(Wire::Response {
                    req_id,
                    result,
                    served_by,
                    bucket_level,
                    hops,
                }) = Wire::decode(&env.payload)
                else {
                    continue;
                };
                if let Some((slot, _)) = pending.remove(&req_id) {
                    match result {
                        OpResult::Deleted { existed: e } => {
                            if let Some(out) = existed.get_mut(slot) {
                                *out = e;
                            }
                        }
                        OpResult::Error { message } => return Err(LhError::Rejected(message)),
                        // a mismatched reply is a peer protocol violation;
                        // the slot keeps its default (not existed)
                        _ => {}
                    }
                    self.served(hops, served_by, bucket_level);
                }
            }
        }
        if pending.is_empty() {
            Ok(existed)
        } else {
            Err(LhError::Timeout)
        }
    }

    /// Refreshes the image from the coordinator and returns the exact file
    /// extent (used by scans; one round trip, retried on loss).
    pub fn refresh_image(&self) -> Result<u64, LhError> {
        self.refresh_image_detail().map(|(extent, _)| extent)
    }

    /// [`refresh_image`](Self::refresh_image) plus the coordinator's busy
    /// flag (splits/merges running or queued).
    fn refresh_image_detail(&self) -> Result<(u64, bool), LhError> {
        let req_id = self.fresh_req_id();
        let msg = Wire::ExtentReq {
            req_id,
            client: self.endpoint.id().0,
        };
        let attempt_timeout = self.timeout.get() / Self::ATTEMPTS;
        for _attempt in 0..Self::ATTEMPTS {
            self.send_admitted(SiteId(COORD_ID), msg.encode())?;
            let deadline = Instant::now() + attempt_timeout;
            loop {
                let env = match self.endpoint.recv_until(deadline) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e.into()),
                };
                match Wire::decode(&env.payload) {
                    Some(Wire::ExtentResp {
                        req_id: rid,
                        level,
                        split,
                        busy,
                    }) if rid == req_id => {
                        self.image.set(ClientImage { level, split });
                        return Ok((ClientImage { level, split }.extent(), busy));
                    }
                    _ => continue,
                }
            }
        }
        Err(LhError::Timeout)
    }

    /// Waits until no splits or merges are running or queued, then returns
    /// the exact extent. Scans and snapshots call this so a record
    /// mid-transfer between buckets cannot be missed; with writers still
    /// active the wait can time out, and a split can start right after it
    /// — scans follow those through the levels in the answers (see
    /// [`scan`](Self::scan)); snapshots and merges keep the usual SDDS
    /// weak-consistency caveat.
    pub(crate) fn refresh_image_quiescent(&self) -> Result<u64, LhError> {
        let deadline = Instant::now() + self.timeout.get();
        loop {
            let (extent, busy) = self.refresh_image_detail()?;
            if !busy {
                return Ok(extent);
            }
            if Instant::now() >= deadline {
                return Ok(extent); // best effort under sustained writes
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Parallel scan: sends the opaque `query` to every bucket, which
    /// evaluates its installed [`ScanFilter`](crate::ScanFilter); gathers
    /// all answers. This is the paper's "search records … by content in
    /// parallel at all storage sites". Every answer carries the bucket's
    /// level; a level that reveals a bucket beyond the extent the scan
    /// started from (a split finished in between) adds that bucket to the
    /// fan-out, as LH\* scans do to terminate deterministically.
    pub fn scan(&self, query: &[u8], keys_only: bool) -> Result<Vec<ScanMatch>, LhError> {
        // The scan fan-out span: every ScanReq sent below (including
        // retries) carries this context, so each bucket's scan span —
        // index probe or linear fallback — parents under it.
        let mut span = trace::child_span("lh.scan");
        let _timer = sdds_obs::histogram("lh.scan_seconds").start_timer();
        sdds_obs::counter("lh.scans").inc();
        let extent = self.refresh_image_quiescent()?;
        span.set_detail(extent);
        sdds_obs::counter("lh.scan_fanout_buckets").add(extent);
        let req_id = self.fresh_req_id();
        let payload = Wire::encode_scan_req(req_id, self.endpoint.id().0, query, keys_only);
        // buckets still owing an answer; lost requests/answers are retried
        let mut outstanding: Vec<u64> = (0..extent).collect();
        // buckets beyond `extent` that answers have revealed (see below)
        let mut late: HashSet<u64> = HashSet::new();
        let mut matches: HashMap<u64, ScanMatch> = HashMap::new();
        let attempt_timeout = self.timeout.get() / Self::ATTEMPTS;
        if outstanding.is_empty() {
            return Ok(finish(matches));
        }
        // Sends the request to the buckets `addrs` as one fan-out; each
        // is then `awaited` — or `dead` when it cannot even be addressed
        // this attempt (no directory entry, awaiting recovery,
        // unreachable, inbox full past the retry budget). Dead buckets
        // stay outstanding: dropping them would let the scan report
        // success while silently missing part of the file.
        let max_retries = self.retry.get().max_retries;
        let ask = |addrs: &[u64], awaited: &mut HashSet<u64>, dead: &mut Vec<u64>| {
            let mut wave = Vec::with_capacity(addrs.len());
            for &addr in addrs {
                match self.directory.bucket_site(addr) {
                    Some(site) => wave.push((addr, site, payload.clone())),
                    None => dead.push(addr),
                }
            }
            awaited.extend(wave.iter().map(|(addr, ..)| *addr));
            for (addr, ..) in self.fan_out(wave, max_retries) {
                awaited.remove(&addr);
                dead.push(addr);
            }
        };
        for _attempt in 0..Self::ATTEMPTS {
            let mut awaited = HashSet::new();
            let mut dead: Vec<u64> = Vec::new();
            ask(&outstanding, &mut awaited, &mut dead);
            if awaited.is_empty() {
                // nothing reachable right now; give a recovery in
                // progress a chance before the next attempt
                outstanding = dead;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            let gather_timer = sdds_obs::histogram("lh.scan_gather_seconds").start_timer();
            let deadline = Instant::now() + attempt_timeout;
            while !awaited.is_empty() {
                let env = match self.endpoint.recv_until(deadline) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e.into()),
                };
                match Wire::decode(&env.payload) {
                    Some(Wire::ScanResp {
                        req_id: rid,
                        bucket,
                        level,
                        matches: m,
                    }) if rid == req_id => {
                        awaited.remove(&bucket);
                        for sm in m {
                            matches.insert(sm.key, sm);
                        }
                        // LH* scan termination: the answering bucket's
                        // level names every bucket it has split off. One
                        // beyond the extent this scan started from was
                        // created since — by a split that may have moved
                        // records out of `bucket` before it ran the scan
                        // — so it owes an answer too.
                        for child in split_children(bucket, level) {
                            if child >= extent && late.insert(child) {
                                sdds_obs::counter("lh.scan_late_buckets").inc();
                                ask(&[child], &mut awaited, &mut dead);
                            }
                        }
                    }
                    _ => continue,
                }
            }
            drop(gather_timer);
            outstanding = awaited.into_iter().chain(dead).collect();
            if outstanding.is_empty() {
                return Ok(finish(matches));
            }
            sdds_obs::counter("lh.scan_retries").inc();
        }
        outstanding.sort_unstable();
        sdds_obs::counter("lh.scan_incomplete").inc();
        Err(LhError::ScanIncomplete {
            missing: outstanding,
        })
    }
}

/// Sorted scan output.
fn finish(matches: HashMap<u64, ScanMatch>) -> Vec<ScanMatch> {
    let mut out: Vec<ScanMatch> = matches.into_values().collect();
    out.sort_by_key(|m| m.key);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Directory;
    use sdds_net::{NetConfig, Network, COORD_ID};

    /// A client wired to a never-drained "bucket" site behind a bounded
    /// inbox, plus a raw endpoint for stuffing that inbox full.
    fn tiny_inbox_rig(capacity: usize) -> (Network, LhClient, Endpoint, Endpoint) {
        let net = Network::new(NetConfig {
            inbox_capacity: Some(capacity),
            ..NetConfig::default()
        });
        let bucket_ep = net.register_with_id(SiteId(0)).unwrap();
        let directory = Arc::new(Directory::new());
        let client = LhClient::new(net.register(), directory);
        let filler = net.register();
        (net, client, bucket_ep, filler)
    }

    #[test]
    fn overloaded_insert_surfaces_error_and_counts_rejections() {
        let (_net, client, bucket_ep, filler) = tiny_inbox_rig(1);
        // one junk message fills the capacity-1 inbox
        filler
            .send(bucket_ep.id(), Bytes::from_static(b"junk"))
            .unwrap();
        client.set_retry_policy(RetryPolicy::none());
        let before = sdds_obs::counter("lh.rejected_total").get();
        let err = client.insert(1, b"v".to_vec()).unwrap_err();
        assert!(
            matches!(err, LhError::Net(NetError::Overloaded(_))),
            "expected Overloaded, got {err:?}"
        );
        // both the image-addressed send and the bucket-0 fallback (the
        // same full site here) were refused
        let after = sdds_obs::counter("lh.rejected_total").get();
        assert!(
            after >= before + 2,
            "rejections must be counted: before={before} after={after}"
        );
    }

    #[test]
    fn retry_policy_rides_out_transient_overload() {
        let (_net, client, bucket_ep, filler) = tiny_inbox_rig(1);
        filler
            .send(bucket_ep.id(), Bytes::from_static(b"junk"))
            .unwrap();
        client.set_retry_policy(RetryPolicy {
            max_retries: 200,
            initial_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(1),
        });
        let before = sdds_obs::counter("lh.rejected_total").get();
        // a stand-in bucket 0: drain the blocker after a delay, then
        // serve the (retried) request
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let _ = bucket_ep.recv_timeout(Duration::from_secs(1));
            loop {
                let Ok(env) = bucket_ep.recv_timeout(Duration::from_secs(2)) else {
                    return;
                };
                if let Some(Wire::Request {
                    req_id, client, op, ..
                }) = Wire::decode(&env.payload)
                {
                    let reply = Wire::Response {
                        req_id,
                        result: match op {
                            Op::Insert { .. } => OpResult::Inserted { replaced: false },
                            _ => OpResult::Error {
                                message: "unexpected op".into(),
                            },
                        },
                        served_by: 0,
                        bucket_level: 0,
                        hops: 0,
                    };
                    let _ = bucket_ep.send(SiteId(client), reply.encode());
                    return;
                }
            }
        });
        assert_eq!(
            client.insert(7, b"seven".to_vec()),
            Ok(false),
            "backoff must ride out the transient overload"
        );
        let after = sdds_obs::counter("lh.rejected_total").get();
        assert!(
            after > before,
            "the rejected attempts must be visible in lh.rejected_total"
        );
        server.join().unwrap();
    }

    /// One full bucket must not hold back the rest of a fan-out: bucket 1
    /// gets its scan request while the client is still backing off for
    /// bucket 0 — long before that first back-off has elapsed. (Sending
    /// destination by destination, bucket 1 waited out bucket 0's whole
    /// retry ladder.)
    #[test]
    fn an_overloaded_bucket_does_not_stall_the_rest_of_a_fan_out() {
        let (net, client, bucket0, filler) = tiny_inbox_rig(1);
        let bucket1 = net.register_with_id(SiteId(1)).unwrap();
        let coordinator = net.register_with_id(SiteId(COORD_ID)).unwrap();
        let backoff = Duration::from_secs(1);
        client.set_retry_policy(RetryPolicy {
            max_retries: 1,
            initial_backoff: backoff,
            max_backoff: backoff,
        });
        filler
            .send(bucket0.id(), Bytes::from_static(b"junk"))
            .unwrap();
        let before = sdds_obs::counter("lh.rejected_total").get();

        let scan = std::thread::spawn(move || client.scan(b"q", true));
        // the scan first asks the coordinator for the extent: 2 buckets
        let env = coordinator
            .recv_timeout(backoff * 5)
            .expect("extent request");
        let Some(Wire::ExtentReq { req_id, client }) = Wire::decode(&env.payload) else {
            panic!("expected ExtentReq");
        };
        let extent = Wire::ExtentResp {
            req_id,
            level: 1,
            split: 0,
            busy: false,
        };
        filler.send(SiteId(client), extent.encode()).unwrap();

        let started = Instant::now();
        let env = bucket1
            .recv_timeout(backoff / 2)
            .expect("the free bucket is asked before the back-off for the full one elapses");
        assert!(started.elapsed() < backoff / 2);
        assert!(sdds_obs::counter("lh.rejected_total").get() > before);
        // make room at bucket 0 and answer for both, so the scan ends
        assert_eq!(&bucket0.recv().unwrap().payload[..], b"junk");
        let answer = |ep: &Endpoint, env: sdds_net::Envelope, addr: u64| {
            let Some(Wire::ScanReq { req_id, client, .. }) = Wire::decode(&env.payload) else {
                panic!("expected ScanReq at bucket {addr}");
            };
            let resp = Wire::ScanResp {
                req_id,
                bucket: addr,
                level: 1,
                matches: vec![ScanMatch {
                    key: addr,
                    value: None,
                }],
            };
            // the client's inbox holds one envelope too: wait for it to
            // take the other bucket's answer
            loop {
                match ep.send(SiteId(client), resp.encode()) {
                    Err(NetError::Overloaded(_)) => std::thread::yield_now(),
                    sent => break sent.unwrap(),
                }
            }
        };
        answer(&bucket1, env, 1);
        let retried = bucket0
            .recv_timeout(backoff * 5)
            .expect("the rejected request is retried after the back-off");
        answer(&bucket0, retried, 0);
        let keys: Vec<u64> = scan
            .join()
            .unwrap()
            .expect("scan completes")
            .iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, [0, 1]);
    }

    /// A split completes between the scan's extent read and its fan-out:
    /// bucket 0 answers at a level that says it has split off bucket 2,
    /// which the extent (2 buckets) did not cover. The client must ask
    /// bucket 2 as well, or the records that moved there are lost.
    #[test]
    fn scan_follows_a_split_that_finished_after_the_extent_was_read() {
        let net = Network::new(NetConfig::default());
        let coord_ep = net.register_with_id(SiteId(COORD_ID)).unwrap();
        let buckets = [0, 1, 2].map(|addr| net.register_with_id(SiteId(addr)).unwrap());
        let client = LhClient::new(net.register(), Arc::new(Directory::new()));
        let late_before = sdds_obs::counter("lh.scan_late_buckets").get();

        let scan = std::thread::spawn(move || client.scan(b"q", true));
        let recv = |ep: &Endpoint| {
            let env = ep.recv_timeout(Duration::from_secs(5)).expect("request");
            Wire::decode(&env.payload).expect("well-formed request")
        };
        let Wire::ExtentReq { req_id, client } = recv(&coord_ep) else {
            panic!("expected ExtentReq");
        };
        let extent = Wire::ExtentResp {
            req_id,
            level: 1,
            split: 0,
            busy: false,
        };
        coord_ep.send(SiteId(client), extent.encode()).unwrap();
        // (bucket, its level when it scans, the key it still holds)
        for (addr, level, key) in [(0u64, 2u8, None), (1, 1, Some(11)), (2, 2, Some(22))] {
            let ep = &buckets[addr as usize];
            let Wire::ScanReq { req_id, client, .. } = recv(ep) else {
                panic!("expected ScanReq at bucket {addr}");
            };
            let resp = Wire::ScanResp {
                req_id,
                bucket: addr,
                level,
                matches: key
                    .map(|key| ScanMatch { key, value: None })
                    .into_iter()
                    .collect(),
            };
            ep.send(SiteId(client), resp.encode()).unwrap();
        }
        let keys: Vec<u64> = scan
            .join()
            .unwrap()
            .expect("scan completes")
            .iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, [11, 22]);
        assert!(sdds_obs::counter("lh.scan_late_buckets").get() > late_before);
    }
}
