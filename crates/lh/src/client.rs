//! The LH\* client: key operations through a possibly-stale file image,
//! and the one request/reply exchange every client-side read or write of
//! the file goes through.

use crate::cluster::Directory;
use crate::hash::{split_children, ClientImage};
use crate::messages::{drop_wrong_sender, Op, OpResult, ScanMatch, Wire};
use bytes::Bytes;
use sdds_net::{Endpoint, NetError, Scatter, SiteId, SiteRegistry, COORD_ID};
use sdds_obs::trace;
use sdds_obs::{Counter, Histogram, Registry};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
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

/// Where a request of an [`Exchange`] goes, worked out again every time
/// it is sent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// A key operation: the key's bucket under the client's current
    /// image. Bucket 0, which always exists and forwards correctly, when
    /// that bucket has no directory entry or the send to it fails (merged
    /// away since the directory was read).
    Key(u64),
    /// Bucket `addr`. While it has no directory entry (killed, awaiting
    /// recovery) the request waits for the next attempt.
    Bucket(u64),
    /// A site at a fixed id: the coordinator, a bucket, a parity site, a host.
    Site(SiteId),
}

impl Route {
    /// Whether `from` may answer a request sent this way: any bucket a
    /// key request was forwarded to, or the one site it was sent to.
    fn answered_by(self, from: SiteId) -> bool {
        match self {
            Route::Key(_) => SiteRegistry::bucket_addr(from).is_some(),
            Route::Bucket(addr) => from == SiteRegistry::bucket_id(addr),
            Route::Site(site) => from == site,
        }
    }
}

/// Attempts per exchange: a message may be lost (fault injection, a
/// severed connection). A request sent more than once is idempotent, so
/// a retry is safe even if only the response was lost.
const ATTEMPTS: u32 = 5;

/// Requests due to be sent, each with where it goes.
pub(crate) type Wave = Vec<(Route, Bytes)>;

/// One request/reply exchange, as a value that takes time as an input
/// and reads no clock ([`LhClient::exchange`] drives it). Requests owing
/// an answer are keyed by what replies name: the `req_id`, or for a scan
/// its `req_id` and the answering bucket (one `ScanReq` serves them all).
/// Each attempt sends every unanswered request, then waits its share.
pub(crate) struct Exchange<K> {
    waiting: HashMap<K, (Route, Bytes)>,
    /// Requests the next wave sends.
    unsent: Vec<K>,
    /// The key of the request a message from a sender answers, if any.
    key_of: fn(SiteId, &Wire) -> Option<K>,
    /// Attempts not started yet, and the length of each.
    attempts: u32,
    window: Duration,
    /// When the running attempt ends, and when its wave went out: the
    /// time of the step after the one that returned it.
    ends: Option<Instant>,
    sent: Option<Instant>,
    /// The counter of re-sent attempts, and the histogram that times
    /// each attempt from its wave sent to its last reply taken in.
    retries: &'static str,
    gather: Option<&'static str>,
}

impl Exchange<u64> {
    /// An exchange keyed by `req_id`, whose retries count in `lh.retries`.
    pub(crate) fn new() -> Exchange<u64> {
        Exchange::observed(|_, msg| msg.reply_id(), "lh.retries", None)
    }
}

impl<K: Copy + Eq + Hash> Exchange<K> {
    /// An exchange keyed by `key_of`, whose re-sent attempts count in
    /// `retries`, and whose attempts the histogram `gather` times.
    pub(crate) fn observed(
        key_of: fn(SiteId, &Wire) -> Option<K>,
        retries: &'static str,
        gather: Option<&'static str>,
    ) -> Exchange<K> {
        Exchange {
            waiting: HashMap::new(),
            unsent: Vec::new(),
            key_of,
            attempts: ATTEMPTS,
            window: Duration::ZERO,
            ends: None,
            sent: None,
            retries,
            gather,
        }
    }

    /// One attempt of the whole timeout, for requests never sent twice.
    pub(crate) fn once(mut self) -> Exchange<K> {
        self.attempts = 1;
        self
    }

    /// Adds a request that the reply keyed `key` answers. It goes out
    /// with the next step.
    pub(crate) fn add(&mut self, key: K, route: Route, payload: Bytes) {
        self.waiting.insert(key, (route, payload));
        self.unsent.push(key);
    }

    /// The keys of the requests not answered yet.
    pub(crate) fn unanswered(&self) -> impl Iterator<Item = K> + '_ {
        self.waiting.keys().copied()
    }

    /// Takes in `reply`, if one arrived by `now`, and returns the requests
    /// to send and when to wake, or `None` once every request is
    /// answered. A reply counts only from a site its request's [`Route`]
    /// allows; one from another sender is counted in
    /// `lh.wrong_sender_drops`. An answer goes to `on_reply` with its key
    /// and sender, and what that adds goes out with this step; a stray,
    /// such as a late reply to an abandoned request, is dropped. Fails
    /// [`LhError::Timeout`] after the last attempt, with the requests
    /// still [`unanswered`](Self::unanswered), or as `on_reply` fails.
    /// The step after one that returned requests comes once they are
    /// sent: the attempt's gathering is timed from then.
    pub(crate) fn step(
        &mut self,
        now: Instant,
        reply: Option<(SiteId, Wire)>,
        on_reply: &mut impl FnMut(&mut Exchange<K>, K, SiteId, Wire) -> Result<(), LhError>,
    ) -> Result<Option<(Wave, Instant)>, LhError> {
        // An attempt is over at its end, once a wait brings nothing more.
        let over = reply.is_none() && self.ends.is_some_and(|end| now >= end);
        if self.ends.is_some() {
            self.sent.get_or_insert(now);
        }
        if let Some((from, msg)) = reply {
            let key = (self.key_of)(from, &msg);
            if let Some(Entry::Occupied(req)) = key.map(|key| self.waiting.entry(key)) {
                if req.get().0.answered_by(from) {
                    let (key, _) = req.remove_entry();
                    on_reply(self, key, from, msg)?;
                } else {
                    drop_wrong_sender(Registry::global())
                }
            }
        }
        if over || self.waiting.is_empty() {
            self.ends = None;
            if let (Some(sent), Some(gather)) = (self.sent.take(), self.gather) {
                sdds_obs::histogram(gather).observe_duration(now - sent);
            }
            if self.waiting.is_empty() {
                return Ok(None);
            } else if self.attempts == 0 {
                return Err(LhError::Timeout);
            } else if over {
                sdds_obs::counter(self.retries).inc();
            }
        }
        let wake_at = *self.ends.get_or_insert_with(|| {
            self.attempts -= 1;
            // In the map's order, not the order of `add`: a record's
            // batch names consecutive buckets, which in that order
            // alternate between the ranks of a TCP cluster, and measured
            // slower there (inserts of the benchmark's `tcp_mixed`).
            self.unsent.clear();
            self.unsent.extend(self.waiting.keys());
            now + self.window
        });
        let sends = (self.unsent.drain(..))
            .filter_map(|key| self.waiting.get(&key).cloned())
            .collect();
        Ok(Some((sends, wake_at)))
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
        // A send lands or fails; nothing asks a client to send again
        // later, so this counter stays 0. The benchmark reads it.
        sdds_obs::counter("lh.rejected_total");
        LhClient {
            endpoint,
            directory,
            image: Cell::new(ClientImage::default()),
            next_req: Cell::new(1),
            timeout: Cell::new(Duration::from_secs(10)),
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

    /// The client's one request/reply loop, and its one clock: it steps
    /// `ex` at the time it reads, sends what is due as one [`Scatter`]
    /// wave, and otherwise waits for a reply until the next wake-up. An
    /// answer goes to `on_reply` (see [`Exchange::step`]). A failed send
    /// — the site is gone — sends a key request to bucket 0 instead, and
    /// any other request waits for the next attempt.
    pub(crate) fn exchange<K: Copy + Eq + Hash>(
        &self,
        ex: &mut Exchange<K>,
        mut on_reply: impl FnMut(&mut Exchange<K>, K, SiteId, Wire) -> Result<(), LhError>,
    ) -> Result<(), LhError> {
        let (ep, ctx) = (&self.endpoint, trace::current_context());
        ex.window = self.timeout.get() / ex.attempts;
        let mut reply = None;
        // lint: allow(determinism) -- the blocking request loop: the client's one clock
        while let Some((sends, wake_at)) = ex.step(Instant::now(), reply.take(), &mut on_reply)? {
            if sends.is_empty() {
                // lint: allow(determinism) -- the blocking request loop waits for a reply
                reply = match ep.recv_until(wake_at) {
                    Ok(env) => Wire::decode(&env.payload).map(|msg| (env.from, msg)),
                    Err(NetError::Timeout) => None,
                    Err(e) => return Err(e.into()),
                };
                continue;
            }
            // the next step, at once, learns when this wave went out
            let (image, bucket0) = (self.image.get(), self.directory.bucket_site(0));
            let mut scatter = Scatter::new();
            for (route, payload) in sends {
                let site = match route {
                    Route::Key(k) => self.directory.bucket_site(image.address(k)).or(bucket0),
                    Route::Bucket(addr) => self.directory.bucket_site(addr),
                    Route::Site(site) => Some(site),
                };
                let Some(site) = site else {
                    continue;
                };
                let sent = ep.send_with(&mut scatter, site, payload.clone(), ctx);
                if let (Err(_), Route::Key(_), Some(bucket0)) = (sent, route, bucket0) {
                    let _ = ep.send_with(&mut scatter, bucket0, payload, ctx);
                }
            }
        }
        Ok(())
    }

    /// Adds a request under a fresh `req_id` to `ex`, built by `msg` from
    /// that id; returns the id.
    pub(crate) fn ask(
        &self,
        ex: &mut Exchange<u64>,
        route: Route,
        msg: impl FnOnce(u64) -> Wire,
    ) -> u64 {
        let req_id = self.fresh_req_id();
        ex.add(req_id, route, msg(req_id).encode());
        req_id
    }

    fn fresh_req_id(&self) -> u64 {
        let id = self.next_req.get();
        self.next_req.set(id + 1);
        id
    }

    /// Accounts for a request bucket `bucket` served: the hop counters,
    /// and the image adjustment a forwarded request's reply carries.
    fn served(&self, hops: u8, bucket: u64, bucket_level: u8) {
        let m = &self.metrics;
        m.requests.inc();
        m.hops.add(hops as u64);
        m.requests_by_hops[(hops as usize).min(3)].inc();
        if hops > 0 {
            m.iams.inc();
            self.iams.set(self.iams.get() + 1);
            self.hops.set(self.hops.get() + hops as u64);
            let mut image = self.image.get();
            image.adjust(bucket, bucket_level);
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
        let mut answer = None;
        self.key_ops([op], |_, result, hops| {
            span.set_detail(hops as u64);
            answer = Some(result);
            Ok(())
        })?;
        answer.ok_or(LhError::Timeout)
    }

    /// Sends `ops` as one exchange, each to its key's bucket, and hands
    /// every answer to `answered` with the op's position in `ops` and the
    /// hops its request took.
    fn key_ops(
        &self,
        ops: impl IntoIterator<Item = Op>,
        mut answered: impl FnMut(usize, OpResult, u8) -> Result<(), LhError>,
    ) -> Result<(), LhError> {
        let mut ex = Exchange::new();
        let first = self.next_req.get();
        let client = self.endpoint.id().0;
        for op in ops {
            let route = Route::Key(op.key());
            self.ask(&mut ex, route, |req_id| Wire::Request {
                req_id,
                client,
                hops: 0,
                op,
            });
        }
        self.exchange(&mut ex, |_, req_id, from, msg| {
            let Wire::Response {
                result,
                bucket_level,
                hops,
                ..
            } = msg
            else {
                return Err(unexpected(&msg));
            };
            // the serving bucket: only a bucket answers a key request
            self.served(hops, u64::from(from.0), bucket_level);
            answered((req_id - first) as usize, result, hops)
        })
    }

    /// Pipelined bulk insert: all requests are sent before any response is
    /// awaited, so a batch costs one round-trip of latency instead of one
    /// per record (the record store copy and its index records travel
    /// together). Lost messages are retransmitted per item.
    pub fn insert_batch(&self, items: Vec<(u64, Vec<u8>)>) -> Result<(), LhError> {
        let _span = trace::child_span("lh.insert_batch");
        let _timer = sdds_obs::histogram("lh.insert_batch_seconds").start_timer();
        sdds_obs::counter("lh.insert_batch_items").add(items.len() as u64);
        let ops = items
            .into_iter()
            .map(|(key, value)| Op::Insert { key, value });
        self.key_ops(ops, |_, result, _| match result {
            OpResult::Error { message } => Err(LhError::Rejected(message)),
            _ => Ok(()),
        })
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
        let ops = keys.into_iter().map(|key| Op::Delete { key });
        self.key_ops(ops, |slot, result, _| match result {
            OpResult::Deleted { existed: e } => {
                if let Some(out) = existed.get_mut(slot) {
                    *out = e;
                }
                Ok(())
            }
            OpResult::Error { message } => Err(LhError::Rejected(message)),
            // a mismatched reply is a peer protocol violation; the slot
            // keeps its default (not existed)
            _ => Ok(()),
        })?;
        Ok(existed)
    }

    /// Refreshes the image from the coordinator and returns the exact file
    /// extent (one round trip, retried on loss).
    pub fn refresh_image(&self) -> Result<u64, LhError> {
        self.read_extent(false)
    }

    /// [`refresh_image`](Self::refresh_image) once no splits or merges are
    /// running or queued: the coordinator holds the answer until then.
    /// Scans and snapshots call this so a record mid-transfer between
    /// buckets cannot be missed. Under sustained writes the wait can time
    /// out; a plain read then goes on best effort, and a split can start
    /// right after it — scans follow those through the levels in the
    /// answers (see [`scan`](Self::scan)); snapshots and merges keep the
    /// usual SDDS weak-consistency caveat.
    pub(crate) fn refresh_image_quiescent(&self) -> Result<u64, LhError> {
        match self.read_extent(true) {
            Err(LhError::Timeout) => self.read_extent(false),
            extent => extent,
        }
    }

    /// Reads the file state from the coordinator into the image; with
    /// `idle`, once the file is idle.
    fn read_extent(&self, idle: bool) -> Result<u64, LhError> {
        let mut ex = Exchange::new();
        let read = |req_id| Wire::ExtentReq { req_id, idle };
        self.ask(&mut ex, Route::Site(SiteId(COORD_ID)), read);
        self.exchange(&mut ex, |_, _, _, msg| match msg {
            Wire::ExtentResp { level, split, .. } => {
                self.image.set(ClientImage { level, split });
                Ok(())
            }
            other => Err(unexpected(&other)),
        })?;
        Ok(self.image.get().extent())
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
        let payload = Wire::encode_scan_req(req_id, query, keys_only);
        // A bucket that cannot be addressed stays unanswered: dropping it
        // would let the scan report success while silently missing part
        // of the file.
        let gather = Some("lh.scan_gather_seconds");
        let mut ex = Exchange::observed(scan_answer, "lh.scan_retries", gather);
        for addr in 0..extent {
            ex.add((req_id, addr), Route::Bucket(addr), payload.clone());
        }
        // buckets beyond `extent` that answers have revealed (see below)
        let mut late: HashSet<u64> = HashSet::new();
        let mut matches: HashMap<u64, ScanMatch> = HashMap::new();
        let gathered = self.exchange(&mut ex, |ex, (_, bucket), _, msg| {
            let Wire::ScanResp {
                level, matches: m, ..
            } = msg
            else {
                return Ok(());
            };
            for sm in m {
                matches.insert(sm.key, sm);
            }
            // LH* scan termination: the answering bucket's level names
            // every bucket it has split off. One beyond the extent this
            // scan started from was created since — by a split that may
            // have moved records out of `bucket` before it ran the scan —
            // so it owes an answer too.
            for child in split_children(bucket, level) {
                if child >= extent && late.insert(child) {
                    sdds_obs::counter("lh.scan_late_buckets").inc();
                    ex.add((req_id, child), Route::Bucket(child), payload.clone());
                }
            }
            Ok(())
        });
        match gathered {
            Err(LhError::Timeout) => {
                sdds_obs::counter("lh.scan_incomplete").inc();
                let mut missing: Vec<u64> = ex.unanswered().map(|(_, addr)| addr).collect();
                missing.sort_unstable();
                Err(LhError::ScanIncomplete { missing })
            }
            gathered => gathered.map(|()| finish(matches)),
        }
    }
}

/// A scan's answer is keyed by the scan's `req_id` and the bucket that
/// sent it; one from a site that is no bucket is dropped and counted.
fn scan_answer(from: SiteId, msg: &Wire) -> Option<(u64, u64)> {
    let Wire::ScanResp { req_id, .. } = msg else {
        return None;
    };
    let bucket = SiteRegistry::bucket_addr(from).or_else(|| drop_wrong_sender(Registry::global()));
    Some((*req_id, bucket?))
}

/// A reply of the wrong kind for its request: a peer protocol violation,
/// surfaced rather than aborting.
pub(crate) fn unexpected(msg: &Wire) -> LhError {
    LhError::Rejected(format!("request answered with {msg:?}"))
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

    /// The next message `ep` receives, with its sender.
    fn recv(ep: &Endpoint) -> Option<(SiteId, Wire)> {
        let env = ep.recv_timeout(Duration::from_secs(5)).ok()?;
        Some((env.from, Wire::decode(&env.payload)?))
    }

    /// A key request whose bucket refuses the send — a tombstone — goes
    /// to bucket 0 in the same wave.
    #[test]
    fn a_refused_key_request_goes_to_bucket_0() {
        let net = Network::new(NetConfig::default());
        let bucket0 = net.register_with_id(SiteId(0)).unwrap();
        drop(net.register_with_id(SiteId(1)).unwrap());
        let client = LhClient::new(net.register(), Arc::new(Directory::new()));
        // key 1 lives in bucket 1, a tombstone
        client.image.set(ClientImage { level: 1, split: 0 });
        let lookup = std::thread::spawn(move || client.lookup(1));
        let Some((client_id, Wire::Request { req_id, .. })) = recv(&bucket0) else {
            panic!("expected Request at bucket 0");
        };
        let response = Wire::Response {
            req_id,
            result: OpResult::Found { value: None },
            bucket_level: 1,
            hops: 0,
        };
        bucket0.send(client_id, response.encode()).unwrap();
        assert_eq!(lookup.join().unwrap(), Ok(None));
    }

    /// A scan request refused by a tombstone waits for the next attempt,
    /// while the rest of the fan-out goes out at once; once the bucket is
    /// registered again, the re-sent request lands.
    #[test]
    fn a_refused_scan_request_waits_for_the_next_attempt() {
        let net = Network::new(NetConfig::default());
        let coordinator = net.register_with_id(SiteId(COORD_ID)).unwrap();
        let bucket0 = net.register_with_id(SiteId(0)).unwrap();
        drop(net.register_with_id(SiteId(1)).unwrap());
        let client = LhClient::new(net.register(), Arc::new(Directory::new()));
        client.set_timeout(Duration::from_secs(1));
        let retries = sdds_obs::counter("lh.scan_retries");
        let before = retries.get();
        let scan = std::thread::spawn(move || client.scan(b"q", true));
        let Some((client_id, Wire::ExtentReq { req_id, .. })) = recv(&coordinator) else {
            panic!("expected ExtentReq");
        };
        let extent = Wire::ExtentResp {
            req_id,
            level: 1,
            split: 0,
        };
        coordinator.send(client_id, extent.encode()).unwrap();
        let answer = |ep: &Endpoint, addr: u64| {
            let Some((client_id, Wire::ScanReq { req_id, .. })) = recv(ep) else {
                panic!("expected ScanReq at bucket {addr}");
            };
            let resp = Wire::ScanResp {
                req_id,
                level: 1,
                matches: vec![ScanMatch {
                    key: addr,
                    value: None,
                }],
            };
            ep.send(client_id, resp.encode()).unwrap();
        };
        answer(&bucket0, 0);
        while retries.get() == before {
            std::thread::yield_now(); // until the first attempt is over
        }
        let bucket1 = net.register_with_id(SiteId(1)).unwrap();
        answer(&bucket1, 1);
        let keys: Vec<u64> = scan
            .join()
            .unwrap()
            .expect("scan completes")
            .iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, [0, 1]);
        assert!(retries.get() > before, "bucket 1 was asked again");
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
        let Some((client, Wire::ExtentReq { req_id, .. })) = recv(&coord_ep) else {
            panic!("expected ExtentReq");
        };
        let extent = Wire::ExtentResp {
            req_id,
            level: 1,
            split: 0,
        };
        coord_ep.send(client, extent.encode()).unwrap();
        // (bucket, its level when it scans, the key it still holds)
        for (addr, level, key) in [(0u64, 2u8, None), (1, 1, Some(11)), (2, 2, Some(22))] {
            let ep = &buckets[addr as usize];
            let Some((client, Wire::ScanReq { req_id, .. })) = recv(ep) else {
                panic!("expected ScanReq at bucket {addr}");
            };
            let resp = Wire::ScanResp {
                req_id,
                level,
                matches: key
                    .map(|key| ScanMatch { key, value: None })
                    .into_iter()
                    .collect(),
            };
            ep.send(client, resp.encode()).unwrap();
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

    /// A client, bucket 0 and the coordinator of a one-bucket file, and
    /// a site that is no bucket.
    fn one_bucket_rig() -> (LhClient, Endpoint, Endpoint, Endpoint) {
        let net = Network::new(NetConfig::default());
        let bucket0 = net.register_with_id(SiteId(0)).unwrap();
        let coordinator = net.register_with_id(SiteId(COORD_ID)).unwrap();
        let client = LhClient::new(net.register(), Arc::new(Directory::new()));
        (client, bucket0, coordinator, net.register())
    }

    /// A `Response` names no serving bucket: its sender is the one. A
    /// `Response` from a site that is no bucket is dropped and counted,
    /// and neither answers the lookup nor adjusts the image.
    #[test]
    fn a_response_from_a_non_bucket_is_dropped_and_counted() {
        let (client, bucket0, _coordinator, forger) = one_bucket_rig();
        let drops = sdds_obs::counter("lh.wrong_sender_drops");
        let before = drops.get();
        let lookup = std::thread::spawn(move || {
            let found = client.lookup(3);
            (found, client.image(), client.iam_count())
        });
        let Some((client_id, Wire::Request { req_id, .. })) = recv(&bucket0) else {
            panic!("expected Request");
        };
        let response = |value: &[u8], bucket_level, hops| Wire::Response {
            req_id,
            result: OpResult::Found {
                value: Some(value.to_vec()),
            },
            bucket_level,
            hops,
        };
        let forged = response(b"forged", 5, 1);
        forger.send(client_id, forged.encode()).unwrap();
        bucket0
            .send(client_id, response(b"real", 0, 0).encode())
            .unwrap();
        let (found, image, iams) = lookup.join().unwrap();
        assert_eq!(found, Ok(Some(b"real".to_vec())));
        assert_eq!((image, iams), (ClientImage::default(), 0), "no IAM applied");
        assert!(drops.get() > before, "the forged response is counted");
    }

    /// An extent read goes to the coordinator, and only the coordinator
    /// answers it: an `ExtentResp` from a dynamic id is dropped and
    /// counted, and leaves the image as it is.
    #[test]
    fn an_extent_answer_from_another_site_is_dropped_and_counted() {
        let (client, _bucket0, coordinator, forger) = one_bucket_rig();
        let drops = sdds_obs::counter("lh.wrong_sender_drops");
        let before = drops.get();
        let refresh = std::thread::spawn(move || (client.refresh_image(), client.image()));
        let Some((client_id, Wire::ExtentReq { req_id, .. })) = recv(&coordinator) else {
            panic!("expected ExtentReq");
        };
        let extent = |level| Wire::ExtentResp {
            req_id,
            level,
            split: 0,
        };
        forger.send(client_id, extent(9).encode()).unwrap();
        coordinator.send(client_id, extent(0).encode()).unwrap();
        let (extent, image) = refresh.join().unwrap();
        assert_eq!((extent, image), (Ok(1), ClientImage::default()));
        assert!(drops.get() > before, "the forged answer is counted");
    }

    /// One exchange stepped on a hand-advanced clock, with no thread and
    /// no endpoint: each attempt sends what is unanswered and wakes at
    /// its window's end, a reply answers its request, a stray is
    /// dropped, and a request unanswered after the fifth window fails
    /// the exchange.
    #[test]
    fn an_exchange_steps_through_its_five_windows_on_virtual_time() {
        let (coordinator, window) = (SiteId(COORD_ID), Duration::from_secs(1));
        let mut ex = Exchange::new();
        ex.window = window;
        ex.add(1, Route::Site(coordinator), Bytes::from_static(b"one"));
        ex.add(2, Route::Site(coordinator), Bytes::from_static(b"two"));
        let retries = sdds_obs::counter("lh.retries");
        let before = retries.get();
        let answered = Cell::new(None);
        let mut on_reply = |_: &mut Exchange<u64>, key: u64, _: SiteId, _: Wire| {
            answered.set(Some(key));
            Ok(())
        };
        let answer = |req_id| {
            let extent = Wire::ExtentResp {
                req_id,
                level: 0,
                split: 0,
            };
            Some((coordinator, extent))
        };
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let (sends, wake_at) = ex.step(t0, None, &mut on_reply).unwrap().unwrap();
        assert_eq!((sends.len(), wake_at), (2, t0 + window));
        let (sends, wake_at) = ex.step(at(10), answer(1), &mut on_reply).unwrap().unwrap();
        assert_eq!(answered.take(), Some(1), "the reply answers request 1");
        assert_eq!((sends.len(), wake_at), (0, t0 + window));
        for stray in [answer(1), answer(7)] {
            let (sends, wake_at) = ex.step(at(20), stray, &mut on_reply).unwrap().unwrap();
            assert_eq!(answered.take(), None, "a stray is dropped");
            assert_eq!((sends.len(), wake_at), (0, t0 + window));
        }
        for n in 1..5 {
            let (sends, wake_at) = ex
                .step(t0 + window * n, None, &mut on_reply)
                .unwrap()
                .unwrap();
            assert_eq!(wake_at, t0 + window * (n + 1), "window {n} ends");
            assert_eq!(sends.len(), 1, "request 2 alone is sent again");
            assert_eq!(&sends[0].1[..], b"two");
        }
        let timed_out = ex.step(t0 + window * 5, None, &mut on_reply);
        assert!(matches!(timed_out, Err(LhError::Timeout)));
        assert_eq!(ex.unanswered().collect::<Vec<_>>(), [2]);
        assert!(retries.get() >= before + 4, "four attempts re-sent");
    }

    /// A `ScanResp` is keyed by its sender, the bucket that ran the scan:
    /// one from a dynamic id is dropped and counted, and its matches are
    /// not in the answer.
    #[test]
    fn a_scan_response_from_a_dynamic_id_is_dropped_and_counted() {
        let (client, bucket0, coordinator, forger) = one_bucket_rig();
        let drops = sdds_obs::counter("lh.wrong_sender_drops");
        let before = drops.get();
        let scan = std::thread::spawn(move || client.scan(b"q", true));
        let Some((client_id, Wire::ExtentReq { req_id, .. })) = recv(&coordinator) else {
            panic!("expected ExtentReq");
        };
        let extent = Wire::ExtentResp {
            req_id,
            level: 0,
            split: 0,
        };
        coordinator.send(client_id, extent.encode()).unwrap();
        let Some((_, Wire::ScanReq { req_id, .. })) = recv(&bucket0) else {
            panic!("expected ScanReq");
        };
        let answer = |key| Wire::ScanResp {
            req_id,
            level: 0,
            matches: vec![ScanMatch { key, value: None }],
        };
        forger.send(client_id, answer(99).encode()).unwrap();
        bucket0.send(client_id, answer(1).encode()).unwrap();
        let keys: Vec<u64> = scan
            .join()
            .unwrap()
            .expect("scan completes")
            .iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, [1], "the dynamic id's matches are not in the answer");
        assert!(drops.get() > before, "the forged answer is counted");
    }
}
