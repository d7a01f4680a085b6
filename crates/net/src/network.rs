//! The site table, endpoints and message delivery.

use crate::mailbox::{Closed, Drained, Mailbox, RecvError, Scheduler, Wait, Wake};
use crate::registry::{owner_rank, SiteRegistry, COORD_ID, DYN_BASE};
use crate::stats::NetStats;
use crate::sync::{read, write};
use crate::tcp::TcpFabric;
use bytes::Bytes;
use sdds_obs::trace::{self, TraceContext};
use sdds_obs::Counter;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Address of a site in the multicomputer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Opaque payload.
    pub payload: Bytes,
    /// Causal tracing context of the client operation this message
    /// belongs to; `None` for untraced traffic. Carried verbatim across
    /// forwards so every site can parent its span under the sender's
    /// (wire format in `docs/PROTOCOL.md`).
    pub ctx: Option<TraceContext>,
}

/// Errors from the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination site was never registered.
    UnknownSite(SiteId),
    /// The destination endpoint has been dropped, or is an id its
    /// process hosts that is neither registered nor reserved.
    Disconnected(SiteId),
    /// A blocking receive timed out.
    Timeout,
    /// The mailbox is empty (non-blocking receive).
    Empty,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownSite(s) => write!(f, "unknown site {s}"),
            NetError::Disconnected(s) => write!(f, "site {s} disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Empty => write!(f, "mailbox empty"),
        }
    }
}

impl std::error::Error for NetError {}

/// Network construction parameters.
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Fault injection: probability in `[0, 1)` that any message is
    /// silently dropped (UDP-style loss). Deterministic per `fault_seed`.
    pub drop_probability: f64,
    /// Seed for the drop decision stream.
    pub fault_seed: u64,
}

/// Dynamic ids come in stripes of this many of the range `DYN_BASE ..
/// COORD_ID`; a network claims another stripe when it has handed out the
/// last id of its latest one, so it never hands out an id twice.
const STRIPE: u32 = 1 << 12;
const STRIPES: u32 = (COORD_ID - DYN_BASE) / STRIPE;

/// A stripe that is none of `taken`, picked by process id and a
/// per-process sequence, so that neither concurrent client processes nor
/// several networks in one process (threads-as-ranks tests) hand out the
/// same dynamic id — a collision would blackhole replies into whichever
/// process resolves the id first. Only a network that has handed out all
/// 16.7 M dynamic ids gets a stripe it had.
fn claim_stripe(taken: &[u32]) -> u32 {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let base = std::process::id().wrapping_mul(0x9E37);
    // ordering: Relaxed — a pure ordinal allocator; fetch_add atomicity
    // alone keeps the draws of concurrent networks apart
    let draw = || base.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed)) % STRIPES;
    let first = draw();
    std::iter::once(first)
        .chain((1..STRIPES).map(|_| draw()))
        .find(|stripe| !taken.contains(stripe))
        .unwrap_or(first)
}

/// The mailboxes of the sites one process hosts, by id in the registry's
/// id space (`registry.rs`) on both fabrics: a bucket's id is its
/// address, the coordinator is `COORD_ID`, a host-control endpoint
/// `HOST_BASE + rank`; clients and parity sites draw dynamic ids. A
/// *reserved* well-known id holds an open mailbox no endpoint owns yet:
/// sends queue there until the id is registered. A dropped endpoint
/// leaves its closed mailbox behind as a *tombstone*: sends to it fail
/// `Disconnected` until the id is registered again.
#[derive(Default)]
struct Table {
    /// Bucket ids, by address.
    buckets: Vec<Option<Arc<Mailbox>>>,
    /// Dynamic ids in the order they were handed out: the `n`th is
    /// offset `n % STRIPE` of stripe `stripes[n / STRIPE]`.
    dynamic: Vec<Arc<Mailbox>>,
    stripes: Vec<u32>,
    /// The coordinator and host-control endpoints: a few, scanned.
    named: Vec<(SiteId, Option<Arc<Mailbox>>)>,
}

impl Table {
    /// A read and an array index for bucket ids and this process's
    /// dynamic ids.
    fn get(&self, id: SiteId) -> Option<&Arc<Mailbox>> {
        match id.0 {
            x if x < DYN_BASE => self.buckets.get(x as usize)?.as_ref(),
            x if x < COORD_ID => {
                let k = self
                    .stripes
                    .iter()
                    .position(|&s| s == (x - DYN_BASE) / STRIPE)?;
                self.dynamic
                    .get(k * STRIPE as usize + (x % STRIPE) as usize)
            }
            _ => self.named.iter().find(|(n, _)| *n == id)?.1.as_ref(),
        }
    }

    fn dynamic_id(&self, n: usize) -> SiteId {
        let stripe = self.stripes[n / STRIPE as usize];
        SiteId(DYN_BASE + stripe * STRIPE + n as u32 % STRIPE)
    }

    /// The slot of well-known `id`, made if need be; `None` for a
    /// dynamic id, which is the allocator's.
    fn slot(&mut self, id: SiteId) -> Option<&mut Option<Arc<Mailbox>>> {
        match id.0 {
            x if x < DYN_BASE => {
                let x = x as usize;
                if self.buckets.len() <= x {
                    self.buckets.resize(x + 1, None);
                }
                Some(&mut self.buckets[x])
            }
            x if x < COORD_ID => None,
            _ => {
                let named = &mut self.named;
                let i = named.iter().position(|(n, _)| *n == id).unwrap_or_else(|| {
                    named.push((id, None));
                    named.len() - 1
                });
                Some(&mut named[i].1)
            }
        }
    }
}

/// Why [`Sites::push`] did not enqueue.
pub(crate) enum Miss {
    /// Nothing was ever registered or reserved under the id in this
    /// process.
    Absent(Envelope),
    /// The mailbox is a tombstone.
    Closed,
}

/// One process's site table and the traffic accounting of its network,
/// shared by every local sender and, on TCP, by the connection readers.
pub(crate) struct Sites {
    table: RwLock<Table>,
    /// Which well-known ids this process hosts: those the registry's
    /// modular placement gives rank `rank` of `ranks` (a channel network
    /// is rank 0 of 1); a TCP client (`None`) hosts dynamic ids only.
    rank: Option<usize>,
    ranks: usize,
    pub(crate) stats: NetStats,
    /// Handles of the counters the message path bumps, resolved once: a
    /// lookup by name is a global lock and a map probe per message.
    messages: Counter,
    bytes: Counter,
    send_failures: Counter,
}

impl Sites {
    /// The table of rank `rank` of `ranks`. A serving rank's own named
    /// ids (its host id, and the coordinator's on rank 0) and the first
    /// bucket address it hosts are reserved before its listener binds:
    /// a peer may address them before the rank has started its sites.
    fn new(rank: Option<usize>, ranks: usize) -> Arc<Sites> {
        let sites = Sites {
            table: RwLock::new(Table::default()),
            rank,
            ranks,
            stats: NetStats::new(),
            messages: sdds_obs::counter("net.messages"),
            bytes: sdds_obs::counter("net.bytes"),
            send_failures: sdds_obs::counter("net.send_failures"),
        };
        if let Some(rank) = rank {
            sites.reserve(SiteRegistry::host_id(rank));
            sites.reserve(SiteRegistry::bucket_id(rank as u64));
            if rank == 0 {
                sites.reserve(SiteId(COORD_ID));
            }
        }
        Arc::new(sites)
    }

    /// Whether `id` is a well-known id this process hosts, registered
    /// or not.
    pub(crate) fn owns(&self, id: SiteId) -> bool {
        self.rank.is_some() && owner_rank(id, self.ranks) == self.rank
    }

    /// Enqueues `env` in its destination's mailbox, if this process has
    /// one under that id: the one place an envelope enters a local
    /// mailbox, from a local sender or a TCP reader. Traffic counts what
    /// was taken — counted first, so that a receiver always observes its
    /// envelope counted, and rolled back on a refusal.
    pub(crate) fn push(&self, env: Envelope, at: Instant) -> Result<Option<Wake>, Miss> {
        let table = read(&self.table);
        let Some(mailbox) = table.get(env.to) else {
            return Err(Miss::Absent(env));
        };
        let len = env.payload.len();
        self.stats.record(len);
        match mailbox.push(env, at) {
            Ok(wake) => {
                self.delivered(len);
                Ok(wake)
            }
            Err(Closed) => {
                self.stats.unrecord(len);
                Err(Miss::Closed)
            }
        }
    }

    /// Hands out the next dynamic id, with its mailbox.
    fn register(&self) -> (SiteId, Arc<Mailbox>) {
        let mailbox = Mailbox::new();
        let mut table = write(&self.table);
        let n = table.dynamic.len();
        if n.is_multiple_of(STRIPE as usize) {
            let stripe = claim_stripe(&table.stripes);
            table.stripes.push(stripe);
        }
        table.dynamic.push(Arc::clone(&mailbox));
        (table.dynamic_id(n), mailbox)
    }

    /// The mailbox reserved under well-known `id`, or a new one where
    /// there is none or a tombstone; `None` if an endpoint holds it.
    fn register_with_id(&self, id: SiteId) -> Option<Arc<Mailbox>> {
        let mut table = write(&self.table);
        let slot = table.slot(id)?;
        match slot {
            Some(mailbox) if mailbox.adopt() => return Some(Arc::clone(mailbox)),
            Some(mailbox) if mailbox.is_open() => return None,
            _ => {}
        }
        let mailbox = Mailbox::new();
        *slot = Some(Arc::clone(&mailbox));
        Some(mailbox)
    }

    /// A reserved mailbox under well-known `id`, unless the id was ever
    /// reserved or registered here: a tombstone stays one.
    fn reserve(&self, id: SiteId) {
        if let Some(slot @ None) = write(&self.table).slot(id) {
            *slot = Some(Mailbox::reserved());
        }
    }

    /// The dynamic ids whose mailboxes are open, for a TCP link to
    /// announce.
    pub(crate) fn dynamic_ids(&self) -> Vec<SiteId> {
        let table = read(&self.table);
        let open = table
            .dynamic
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_open());
        open.map(|(n, _)| table.dynamic_id(n)).collect()
    }

    /// An envelope of `len` bytes was taken (and `stats` counted it).
    pub(crate) fn delivered(&self, len: usize) {
        self.messages.inc();
        self.bytes.add(len as u64);
    }

    pub(crate) fn disconnected(&self, to: SiteId) -> NetError {
        self.send_failures.inc();
        NetError::Disconnected(to)
    }
}

struct Inner {
    sites: Arc<Sites>,
    /// Connections to the ranks of a TCP cluster, for the ids this
    /// process does not host; `None` on a channel network.
    links: Option<TcpFabric>,
    drop_probability: f64,
    fault_rng: AtomicU64,
    dropped: sdds_obs::Counter,
}

/// The multicomputer fabric: the sites this process hosts, links to the
/// ones it does not, and traffic accounting. Cheap to clone (shared
/// handle).
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

impl Network {
    /// Creates an empty in-process (channel-transport) network: it hosts
    /// every site, as the one rank of a one-rank cluster.
    pub fn new(config: NetConfig) -> Network {
        Network::with(Sites::new(Some(0), 1), None, &config)
    }

    /// Creates a serving TCP network: binds rank `rank`'s listener from
    /// the registry and accepts connections from peers.
    pub fn tcp_serve(
        registry: SiteRegistry,
        rank: usize,
        config: NetConfig,
    ) -> std::io::Result<Network> {
        let sites = Sites::new(Some(rank), registry.num_servers());
        let links = TcpFabric::serve(registry, rank, Arc::clone(&sites))?;
        Ok(Network::with(sites, Some(links), &config))
    }

    /// Creates a client TCP network: dial-only, no listener. Endpoints
    /// registered on it receive dynamically allocated site ids announced
    /// to every server rank.
    pub fn tcp_client(registry: SiteRegistry, config: NetConfig) -> Network {
        let sites = Sites::new(None, registry.num_servers());
        let links = TcpFabric::client(registry, Arc::clone(&sites));
        Network::with(sites, Some(links), &config)
    }

    fn with(sites: Arc<Sites>, links: Option<TcpFabric>, config: &NetConfig) -> Network {
        Network {
            inner: Arc::new(Inner {
                sites,
                links,
                drop_probability: config.drop_probability,
                fault_rng: AtomicU64::new(config.fault_seed | 1),
                dropped: sdds_obs::counter("net.dropped"),
            }),
        }
    }

    fn endpoint(&self, id: SiteId, mailbox: Arc<Mailbox>) -> Endpoint {
        Endpoint {
            id,
            mailbox,
            network: self.clone(),
        }
    }

    /// Registers a new site under the next dynamic id and returns its
    /// endpoint; over TCP the id is announced to every server rank.
    pub fn register(&self) -> Endpoint {
        let (id, mailbox) = self.inner.sites.register();
        if let Some(links) = &self.inner.links {
            links.announce(id);
        }
        self.endpoint(id, mailbox)
    }

    /// Registers an endpoint under a well-known id: a bucket address,
    /// the coordinator, a host-control endpoint. The endpoint adopts the
    /// id's reserved mailbox, with what was sent to it meanwhile. `None`
    /// for a dynamic id or if an open endpoint holds the id in this
    /// process; the id of a dropped one is free again.
    pub fn register_with_id(&self, id: SiteId) -> Option<Endpoint> {
        let mailbox = self.inner.sites.register_with_id(id)?;
        Some(self.endpoint(id, mailbox))
    }

    /// Reserves well-known `id` for an endpoint to come: sends to it
    /// queue until [`register_with_id`](Self::register_with_id) adopts
    /// them. No-op for a dynamic id, or one registered or reserved here
    /// before: a tombstone stays one.
    pub fn reserve(&self, id: SiteId) {
        self.inner.sites.reserve(id);
    }

    /// Severs every established TCP stream (fault injection for tests:
    /// connections re-establish with backoff). No-op on the channel
    /// transport.
    pub fn drop_connections(&self) {
        if let Some(links) = &self.inner.links {
            links.drop_connections();
        }
    }

    /// Traffic statistics handle.
    pub fn stats(&self) -> &NetStats {
        &self.inner.sites.stats
    }

    /// Enqueues `env`, stamped `at`, at its destination and returns the
    /// wake-up that owes the destination's owner, undelivered: into a
    /// local mailbox, or onto the link to the rank that hosts it.
    fn deliver(&self, env: Envelope, at: Instant) -> Result<Option<Wake>, NetError> {
        let inner = &*self.inner;
        let (to, len, ctx) = (env.to, env.payload.len(), env.ctx);
        if inner.drop_probability > 0.0 && self.draw_drop() {
            // silent loss, like a UDP datagram: the sender sees success
            inner.sites.stats.record_dropped();
            inner.dropped.inc();
            if let Some(ctx) = ctx {
                // The drop stays attributable: an instantaneous span under
                // the sender's context marks where the operation's message
                // vanished (detail = payload length).
                trace::event("net.drop", ctx, to.0 as i64, len as u64);
            }
            return Ok(None);
        }
        let sites = &inner.sites;
        match sites.push(env, at) {
            Ok(wake) => Ok(wake),
            Err(Miss::Absent(env)) if !sites.owns(to) => match &inner.links {
                Some(links) => links.send(env).map(|()| None),
                None => Err(NetError::UnknownSite(to)),
            },
            // a tombstone, or ours but neither registered nor reserved
            Err(_) => Err(sites.disconnected(to)),
        }
    }

    /// Deterministic xorshift64* drop decision (no extra dependency, and
    /// reproducible for a given fault seed).
    fn draw_drop(&self) -> bool {
        fn step(mut x: u64) -> u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
        // A CAS loop: concurrent senders must each consume a distinct
        // state, or two of them can read the same value and emit the
        // same (duplicated, then lost) stream position.
        let prev = self
            .inner
            .fault_rng
            // ordering: Relaxed — the RNG state is the only shared datum;
            // CAS atomicity alone guarantees each sender a distinct stream
            // position, and no other memory is published through it
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)))
            // lint: allow(panic-freedom) -- the closure always returns Some, so fetch_update cannot fail
            .expect("xorshift update never fails");
        // fetch_update returns the state *before* our update; re-apply the
        // step to obtain the value this draw owns.
        let x = step(prev);
        let draw = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.inner.drop_probability
    }
}

/// A group of sends whose wake-ups are delivered together: every
/// [`Endpoint::send_with`] enqueues at once, in order, and tells the
/// sender at once whether the destination took the envelope, but a
/// destination whose owner sleeps is woken by [`wake`](Self::wake) (or
/// by dropping the scatter), once, however many envelopes it was sent.
/// On one processor a woken receiver preempts the sender, so N separate
/// sends are N pairs of context switches and a scatter of N is one.
///
/// Used by a client's fan-out (one scan request per bucket), by a
/// runtime worker for everything its sites send in one round, and by a
/// TCP reader for the frames of one `read()`.
#[derive(Default)]
pub struct Scatter {
    /// The clock reading the group's envelopes are stamped with.
    now: Option<Instant>,
    owed: Vec<Wake>,
}

impl Scatter {
    /// An empty group.
    pub fn new() -> Scatter {
        Scatter::default()
    }

    /// Stamps the envelopes sent from here on with `now` (a caller that
    /// has just read the clock saves the scatter reading it).
    pub fn stamp(&mut self, now: Instant) {
        self.now = Some(now);
    }

    pub(crate) fn now(&mut self) -> Instant {
        *self.now.get_or_insert_with(Instant::now)
    }

    pub(crate) fn defer(&mut self, wake: Wake) {
        // A thread's mailbox owes one wake-up until it is delivered, but
        // every mailbox a pool runs names the same pool.
        let again = |owed: &Wake| match (owed, &wake) {
            (Wake::Pool(a), Wake::Pool(b)) => Arc::as_ptr(a).cast::<()>() == Arc::as_ptr(b).cast(),
            _ => false,
        };
        if !self.owed.iter().any(again) {
            self.owed.push(wake);
        }
    }

    /// Delivers the wake-ups owed so far.
    pub fn wake(&mut self) {
        self.now = None;
        for wake in self.owed.drain(..) {
            wake.fire();
        }
    }
}

impl Drop for Scatter {
    fn drop(&mut self) {
        self.wake();
    }
}

/// A site's attachment to the network: its identity, its mailbox, and the
/// ability to send to any other site. Dropping it closes the mailbox:
/// later sends to the site fail [`NetError::Disconnected`].
pub struct Endpoint {
    id: SiteId,
    mailbox: Arc<Mailbox>,
    network: Network,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.mailbox.retire();
    }
}

impl Endpoint {
    /// This site's address.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Sends a payload to another site (or to self). The innermost open
    /// span on the calling thread (if any) is attached as the message's
    /// tracing context, so instrumented callers propagate causality
    /// without changing call sites.
    pub fn send(&self, to: SiteId, payload: Bytes) -> Result<(), NetError> {
        self.send_traced(to, payload, trace::current_context())
    }

    /// Sends a payload with an explicit tracing context (use when the
    /// causal parent is not the calling thread's innermost span — e.g.
    /// replies and forwards a site sends from a runtime worker).
    pub fn send_traced(
        &self,
        to: SiteId,
        payload: Bytes,
        ctx: Option<TraceContext>,
    ) -> Result<(), NetError> {
        let wake = self
            .network
            .deliver(self.envelope(to, payload, ctx), Instant::now())?;
        if let Some(wake) = wake {
            wake.fire();
        }
        Ok(())
    }

    /// [`send_traced`](Self::send_traced) as part of `scatter`: the
    /// envelope is enqueued (or refused) now, its destination is woken
    /// when the scatter is.
    pub fn send_with(
        &self,
        scatter: &mut Scatter,
        to: SiteId,
        payload: Bytes,
        ctx: Option<TraceContext>,
    ) -> Result<(), NetError> {
        let at = scatter.now();
        let wake = self.network.deliver(self.envelope(to, payload, ctx), at)?;
        if let Some(wake) = wake {
            scatter.defer(wake);
        }
        Ok(())
    }

    fn envelope(&self, to: SiteId, payload: Bytes, ctx: Option<TraceContext>) -> Envelope {
        Envelope {
            from: self.id,
            to,
            payload,
            ctx,
        }
    }

    fn receive(&self, wait: Wait) -> Result<Envelope, NetError> {
        self.mailbox.recv(wait).map_err(|e| match e {
            RecvError::Empty if matches!(wait, Wait::No) => NetError::Empty,
            RecvError::Empty => NetError::Timeout,
            RecvError::Closed => NetError::Disconnected(self.id),
        })
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope, NetError> {
        self.receive(Wait::Forever)
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.receive(Wait::Until(Instant::now() + timeout))
    }

    /// Blocking receive up to a deadline; reads no clock while envelopes
    /// are waiting, which is what a gather loop mostly finds.
    pub fn recv_until(&self, deadline: Instant) -> Result<Envelope, NetError> {
        self.receive(Wait::Until(deadline))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Envelope, NetError> {
        self.receive(Wait::No)
    }

    /// Number of envelopes currently waiting in this site's inbox.
    pub fn inbox_depth(&self) -> usize {
        self.mailbox.len()
    }

    /// Hands this endpoint's inbox to `scheduler` — no thread will block
    /// on it any more. The scheduler is told `key` at once (a first
    /// activation, for the site to start up in) and from then on
    /// whenever an envelope arrives while the inbox is idle; its workers
    /// take envelopes with [`drain`](Self::drain) and give the inbox
    /// back with [`release`](Self::release).
    pub fn attach(&self, scheduler: Arc<dyn Scheduler>, key: usize) {
        self.mailbox.attach(scheduler, key);
    }

    /// A worker takes up to `max` waiting envelopes, oldest first.
    pub fn drain(&self, max: usize, into: &mut Vec<Envelope>) -> Drained {
        self.mailbox.drain(max, into)
    }

    /// A worker is done with the inbox for now. `true`: envelopes
    /// arrived meanwhile, and the worker must queue the inbox again
    /// itself; `false`: the inbox is idle, the next envelope tells the
    /// scheduler.
    pub fn release(&self) -> bool {
        self.mailbox.release()
    }

    /// Closes the inbox: later sends to the site fail
    /// [`NetError::Disconnected`] and its id may be registered again;
    /// envelopes already waiting can still be taken.
    pub fn close(&self) {
        self.mailbox.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HOST_BASE;
    use std::collections::HashSet;

    /// Runs a site-table test on a channel network and on the one rank of
    /// a TCP cluster, where every delivery is local too (no sockets under
    /// Miri).
    fn both(config: NetConfig, body: impl Fn(&Network)) {
        body(&Network::new(config.clone()));
        if !cfg!(miri) {
            body(&Network::tcp_serve(SiteRegistry::loopback(1).unwrap(), 0, config).unwrap());
        }
    }

    #[test]
    fn sends_arrive_in_order_per_pair_and_to_self() {
        both(NetConfig::default(), |net| {
            let a = net.register();
            let b = net.register_with_id(SiteId(3)).unwrap();
            for i in 0..100u8 {
                a.send(b.id(), Bytes::copy_from_slice(&[i])).unwrap();
            }
            a.send(a.id(), Bytes::from_static(b"loop")).unwrap();
            for i in 0..100u8 {
                let env = b.recv().unwrap();
                assert_eq!((env.from, env.to, env.payload[0]), (a.id(), b.id(), i));
            }
            assert_eq!(&a.recv().unwrap().payload[..], b"loop");
            assert_eq!((net.stats().messages(), net.stats().bytes()), (101, 104));
        });
    }

    #[test]
    fn a_dropped_endpoint_is_disconnected_and_failed_sends_are_not_traffic() {
        both(NetConfig::default(), |net| {
            let a = net.register();
            for gone in [net.register(), net.register_with_id(SiteId(0)).unwrap()] {
                let id = gone.id();
                drop(gone);
                let sent = a.send(id, Bytes::from_static(b"lost"));
                assert_eq!(sent, Err(NetError::Disconnected(id)));
            }
            assert_eq!((net.stats().messages(), net.stats().bytes()), (0, 0));
            a.send(a.id(), Bytes::from_static(b"ok")).unwrap();
            assert_eq!((net.stats().messages(), net.stats().bytes()), (1, 2));
        });
    }

    /// A reserved id takes sends before anything registers it, and the
    /// endpoint registered under it receives them; an id this process
    /// hosts that is neither registered nor reserved is `Disconnected`
    /// at once, and the failed send is not traffic.
    #[test]
    fn a_reserved_id_queues_until_registered_and_an_unreserved_one_is_disconnected() {
        both(NetConfig::default(), |net| {
            let a = net.register();
            let spawning = SiteId(3);
            net.reserve(spawning);
            a.send(spawning, Bytes::from_static(b"early")).unwrap();
            let unreserved = SiteId(5);
            let sent = a.send(unreserved, Bytes::from_static(b"lost"));
            assert_eq!(sent, Err(NetError::Disconnected(unreserved)));
            let stats = net.stats();
            assert_eq!((stats.messages(), stats.bytes()), (1, 5));
            let b = net.register_with_id(spawning).unwrap();
            assert!(net.register_with_id(spawning).is_none(), "adopted once");
            a.send(spawning, Bytes::from_static(b"late")).unwrap();
            assert_eq!(&b.recv().unwrap().payload[..], b"early");
            assert_eq!(&b.recv().unwrap().payload[..], b"late");
            // a tombstone is not reserved again
            drop(b);
            net.reserve(spawning);
            let sent = a.send(spawning, Bytes::from_static(b"gone"));
            assert_eq!(sent, Err(NetError::Disconnected(spawning)));
        });
    }

    #[test]
    fn a_retired_id_registers_again_and_receives() {
        both(NetConfig::default(), |net| {
            let a = net.register();
            for id in [SiteId(3), SiteId(COORD_ID), SiteId(HOST_BASE)] {
                let old = net.register_with_id(id).unwrap();
                assert!(net.register_with_id(id).is_none(), "taken while open");
                drop(old);
                let sent = a.send(id, Bytes::from_static(b"gone"));
                assert_eq!(sent, Err(NetError::Disconnected(id)), "a tombstone");
                let new = net
                    .register_with_id(id)
                    .expect("a tombstone registers again");
                a.send(id, Bytes::from_static(b"again")).unwrap();
                assert_eq!(&new.recv().unwrap().payload[..], b"again");
            }
        });
    }

    /// A bucket's id is its address; an id this process hosts is
    /// `Disconnected` until it is registered or reserved, a dynamic one it
    /// never handed out is unknown.
    #[test]
    fn registration_is_by_address_and_dynamic_ids_are_the_allocators() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        assert!((DYN_BASE..COORD_ID).contains(&a.id().0));
        let b: Vec<Endpoint> = (0..3)
            .map(|addr| net.register_with_id(SiteId(addr)).unwrap())
            .collect();
        assert_eq!(b.iter().map(|e| e.id().0).collect::<Vec<_>>(), [0, 1, 2]);
        let spawning = SiteId(7);
        let sent = a.send(spawning, Bytes::new());
        assert_eq!(sent, Err(NetError::Disconnected(spawning)));
        assert!(net.register_with_id(a.id()).is_none());
        let unknown = SiteId(a.id().0 + 1);
        let sent = a.send(unknown, Bytes::new());
        assert_eq!(sent, Err(NetError::UnknownSite(unknown)));
    }

    /// More dynamic ids than one stripe holds: none handed out twice,
    /// every one still receives.
    #[test]
    fn dynamic_ids_are_distinct_and_all_receive() {
        let n = if cfg!(miri) { 40 } else { 5_000 };
        both(NetConfig::default(), |net| {
            let sender = net.register();
            let all: Vec<Endpoint> = (0..n).map(|_| net.register()).collect();
            let ids: HashSet<SiteId> = all.iter().map(Endpoint::id).collect();
            assert_eq!(ids.len(), n);
            assert!(!ids.contains(&sender.id()));
            for ep in &all {
                let id = Bytes::copy_from_slice(&ep.id().0.to_le_bytes());
                sender.send(ep.id(), id).unwrap();
            }
            for ep in &all {
                assert_eq!(ep.try_recv().unwrap().payload[..], ep.id().0.to_le_bytes());
            }
        });
    }

    #[test]
    fn try_recv_empty() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        assert_eq!(a.try_recv().unwrap_err(), NetError::Empty);
    }

    #[test]
    fn recv_timeout_elapses() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn scatter_reaches_all_in_order_and_reports_refusals_at_once() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let sites: Vec<Endpoint> = (0..5).map(|_| net.register()).collect();
        let mut scatter = Scatter::new();
        for round in 0..2u8 {
            for s in &sites {
                let sent =
                    a.send_with(&mut scatter, s.id(), Bytes::copy_from_slice(&[round]), None);
                assert_eq!(sent, Ok(()));
            }
            // buckets of this network that are neither registered nor
            // reserved
            let unreserved = SiteId(5 + u32::from(round));
            let sent = a.send_with(&mut scatter, unreserved, Bytes::new(), None);
            assert_eq!(sent, Err(NetError::Disconnected(unreserved)));
        }
        scatter.wake();
        assert_eq!(net.stats().messages(), 10);
        for s in &sites {
            assert_eq!(s.recv().unwrap().payload[0], 0);
            assert_eq!(s.recv().unwrap().payload[0], 1);
        }
    }

    /// Threads blocked in `recv` on site `id`'s mailbox.
    fn waiting(net: &Network, id: SiteId) -> usize {
        let table = read(&net.inner.sites.table);
        table.get(id).map_or(0, |mailbox| mailbox.waiting())
    }

    /// A receiver blocked before the scatter starts sleeps through all
    /// of its sends and is woken by the end of it; one that was dropped
    /// is woken by the drop.
    #[test]
    fn scatter_wakes_a_blocked_receiver_at_the_end() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let b = net.register();
        let b_id = b.id();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            for _ in 0..2 {
                let first = b.recv().unwrap().payload[0];
                // everything the scatter sent is there at the one wake-up
                seen_tx.send((first, b.inbox_depth())).unwrap();
                while b.try_recv().is_ok() {}
            }
        });
        for (round, explicit) in [(0u8, true), (1, false)] {
            while waiting(&net, b_id) == 0 {
                std::thread::yield_now();
            }
            let mut scatter = Scatter::new();
            for i in 0..10u8 {
                a.send_with(
                    &mut scatter,
                    b_id,
                    Bytes::copy_from_slice(&[round * 10 + i]),
                    None,
                )
                .unwrap();
            }
            assert!(
                seen_rx.recv_timeout(Duration::from_millis(20)).is_err(),
                "nothing may wake the receiver before the scatter does"
            );
            if explicit {
                scatter.wake();
            } else {
                drop(scatter);
            }
            assert_eq!(seen_rx.recv().unwrap(), (round * 10, 9));
        }
        receiver.join().unwrap();
    }

    #[test]
    fn fault_injection_drops_deterministically() {
        let lossy = NetConfig {
            drop_probability: 0.3,
            fault_seed: 42,
        };
        let net = Network::new(lossy.clone());
        let a = net.register();
        let b = net.register();
        for i in 0..1000u32 {
            a.send(b.id(), Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        let dropped = net.stats().dropped();
        assert!(
            (200..400).contains(&(dropped as usize)),
            "expected ~30% of 1000 dropped, got {dropped}"
        );
        // delivered + dropped = sent
        let mut received = 0;
        while a.try_recv().is_ok() || b.try_recv().is_ok() {
            received += 1;
        }
        assert_eq!(received as u64 + dropped, 1000);
        // determinism: an identical network drops the identical messages
        let net2 = Network::new(lossy);
        let a2 = net2.register();
        let b2 = net2.register();
        for i in 0..1000u32 {
            a2.send(b2.id(), Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        assert_eq!(net2.stats().dropped(), dropped);
    }

    #[test]
    fn concurrent_senders_drop_deterministically() {
        // The drop decisions come from one shared xorshift stream; the CAS
        // in draw_drop guarantees each send consumes a distinct position,
        // so the *count* of drops over N sends is the count of
        // sub-threshold values in the first N stream positions — invariant
        // under thread interleaving.
        let lossy = NetConfig {
            drop_probability: 0.3,
            fault_seed: 977,
        };
        let run = || {
            let net = Network::new(lossy.clone());
            let sink = net.register();
            let nthreads = 8;
            let per_thread = 250u64;
            std::thread::scope(|scope| {
                for _ in 0..nthreads {
                    let tx = net.register();
                    let to = sink.id();
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            tx.send(to, Bytes::copy_from_slice(&i.to_le_bytes()))
                                .unwrap();
                        }
                    });
                }
            });
            let mut received = 0u64;
            while sink.try_recv().is_ok() {
                received += 1;
            }
            let dropped = net.stats().dropped();
            assert_eq!(
                received + dropped,
                nthreads * per_thread,
                "every send must be either delivered or counted dropped"
            );
            dropped
        };
        let d1 = run();
        let d2 = run();
        assert!(
            (450..750).contains(&(d1 as usize)),
            "expected ~30% of 2000 dropped, got {d1}"
        );
        assert_eq!(d1, d2, "drop count must not depend on thread interleaving");
    }

    #[test]
    fn zero_drop_probability_never_drops() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        for _ in 0..100 {
            a.send(a.id(), Bytes::new()).unwrap();
        }
        assert_eq!(net.stats().dropped(), 0);
    }

    #[test]
    fn an_inbox_never_refuses() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let n = if cfg!(miri) { 100 } else { 10_000u32 };
        for i in 0..n {
            a.send(a.id(), Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        assert_eq!(a.inbox_depth(), n as usize);
    }

    #[test]
    fn trace_context_rides_envelopes_and_survives_drops() {
        // One test (not several) because the flight recorder and the
        // tracing flag are process-global: parallel test threads draining
        // spans would race each other. Everything is filtered by our own
        // trace id so concurrent instrumented code cannot confuse us.
        trace::set_tracing(true);
        let root = trace::root_span("test.net.op");
        let ctx = root.context().expect("tracing enabled");

        // Explicit context is delivered verbatim.
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let b = net.register();
        a.send_traced(b.id(), Bytes::from_static(b"x"), Some(ctx))
            .unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.ctx, Some(ctx));

        // Ambient context: a plain send inside an open span carries it.
        a.send(b.id(), Bytes::from_static(b"y")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.ctx, Some(ctx));

        // A dropped traced message records a net.drop event under the
        // same trace, so retries remain attributable end to end.
        let lossy = Network::new(NetConfig {
            drop_probability: 1.0,
            fault_seed: 7,
        });
        let la = lossy.register();
        let lb = lossy.register();
        la.send_traced(lb.id(), Bytes::from_static(b"gone"), Some(ctx))
            .unwrap();
        assert_eq!(lossy.stats().dropped(), 1);
        assert!(lb.try_recv().is_err());

        drop(root);
        let spans = trace::drain_spans();
        let mine: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id == ctx.trace_id)
            .collect();
        let drop_ev = mine
            .iter()
            .find(|s| s.name == "net.drop")
            .expect("drop event recorded");
        assert_eq!(drop_ev.parent_span_id, ctx.parent_span_id);
        assert_eq!(drop_ev.detail, 4); // payload length
        assert!(mine.iter().any(|s| s.name == "test.net.op"));
        trace::set_tracing(false);
    }

    #[test]
    fn untraced_sends_carry_no_context() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let b = net.register();
        a.send(b.id(), Bytes::from_static(b"plain")).unwrap();
        assert_eq!(b.recv().unwrap().ctx, None);
    }

    #[test]
    fn cross_thread_messaging() {
        let net = Network::new(NetConfig::default());
        let server = net.register();
        let client = net.register();
        let server_id = server.id();
        let handle = std::thread::spawn(move || {
            // echo server: double the byte back
            let env = server.recv().unwrap();
            let reply = Bytes::copy_from_slice(&[env.payload[0] * 2]);
            server.send(env.from, reply).unwrap();
        });
        client
            .send(server_id, Bytes::copy_from_slice(&[21]))
            .unwrap();
        let env = client.recv().unwrap();
        assert_eq!(env.payload[0], 42);
        handle.join().unwrap();
    }
}
