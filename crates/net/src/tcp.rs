//! Real TCP transport: the links from one process's site table to the
//! sites other processes host.
//!
//! A TCP `Network` is a site table (`network.rs`, the same one a channel
//! network has) plus one [`TcpFabric`]: the connections of this process
//! to the ranks of a cluster described by a [`SiteRegistry`], for every
//! id the table does not host. Server ranks bind a listener; client
//! processes only dial. All connections are persistent and pooled per
//! peer:
//!
//! * **Writer thread per connection.** Senders encode envelopes into
//!   pooled buffers and enqueue them on the connection; like an inbox,
//!   the queue is unbounded. The writer drains *everything* queued at
//!   that moment, concatenates the frames, and issues a single `write`
//!   syscall (`TCP_NODELAY` is set, so coalescing is explicit here, not
//!   delegated to Nagle). Connections dial lazily and re-dial with
//!   exponential backoff (10 ms doubling to 2 s).
//! * **Dialed links lose nothing.** Every frame a dialed connection
//!   queues gets the next number of its *link*, and is kept until the
//!   acceptor acknowledges it. Each stream the connection establishes
//!   opens with a link frame naming the link and the number of the oldest
//!   frame kept; every frame kept goes out again, ahead of the queue, and
//!   the acceptor drops those it has delivered already. A stream that
//!   dies while frames are kept is re-dialed at once. Acks ride the
//!   writes the accepted stream makes anyway; a bare one goes out only
//!   after [`ACK_FRAMES`] frames, or when a frame arrives [`ACK_AFTER`]
//!   after the oldest one it owes. Every message from one rank to another,
//!   and every request of a client, leaves on a dialed link.
//! * **The accepted direction is best-effort.** Replies to a client,
//!   NACKs and acks leave on the stream the peer dialed; when it dies,
//!   what it had not written is lost, and the client's exchange asks
//!   again.
//! * **Reader thread per connection** delivering through the site table,
//!   the one way into a local mailbox a local sender takes too, so
//!   `Endpoint::recv` and the site runtime above it are
//!   transport-agnostic. The frames of one `read()` are one [`Scatter`]:
//!   each local owner is woken once.
//! * **Unroutable NACKs.** A receiver that cannot route an envelope (a
//!   tombstone, an id it hosts that is neither registered nor reserved,
//!   or one it does not host) replies at once with a NACK frame naming
//!   the destination. The sender records the destination as unroutable:
//!   the next send to it fails `Disconnected`, as it does in-process —
//!   one send later than the channel transport, because the wire is
//!   asynchronous. The NACKed message itself is not delivered, which the
//!   LH* protocol already tolerates (idempotent retransmits).
//! * **Routing by id.** Well-known ids (buckets, coordinator, host
//!   control) map to a rank via the registry. Dynamic client ids are
//!   announced with hello frames on every connection the client opens
//!   (and re-announced on reconnect), so any rank can route replies. A
//!   reply that overtakes the announcement — a rank answers a request
//!   another rank forwarded before the client's link to it is up — waits
//!   up to [`ROUTE_WAIT`] for it.

use crate::frame::{self, Frame, FrameDecoder};
use crate::network::{Envelope, NetError, Scatter, SiteId, Sites};
use crate::pool::PooledBuf;
use crate::registry::{SiteRegistry, COORD_ID, DYN_BASE};
use crate::sync::{lock, wait};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// First dial-retry backoff; doubles up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Frames an accepted stream delivers before it acknowledges them with a
/// write of its own, if it has written nothing to carry the ack.
const ACK_FRAMES: u64 = 128;

/// How old the oldest frame an accepted stream owes an ack for may get
/// before the next frame to arrive makes the ack a write of its own.
const ACK_AFTER: Duration = Duration::from_millis(10);

/// How long frames for a dynamic id wait for a route to it. A client
/// announces its ids to every rank it dials, but the reply to a request
/// another rank forwarded can overtake the announcement.
const ROUTE_WAIT: Duration = Duration::from_secs(1);

/// The ack an accepted stream owes its dialer.
struct OwedAck {
    /// The number of the link's last frame delivered.
    seq: u64,
    /// Frames delivered since the last ack went out.
    frames: u64,
    /// When the first of them arrived.
    since: Instant,
    /// The writer sends it now, alone if need be.
    due: bool,
}

struct ConnState {
    /// Encoded frames, oldest first. Dialed: every frame the acceptor has
    /// not acknowledged, the first numbered `acked + 1`. Accepted: every
    /// frame not written yet.
    frames: VecDeque<PooledBuf>,
    /// How many of `frames` the current stream has been given.
    written: usize,
    /// Dialed: the number of the last frame acknowledged.
    acked: u64,
    /// Accepted: the ack owed to the dialer.
    owed: Option<OwedAck>,
    /// Established stream, kept for `drop_connections`/shutdown; the
    /// writer and reader hold their own clones.
    stream: Option<TcpStream>,
    /// Bumped every time a stream is established; lets the reader that
    /// owned generation N avoid clobbering generation N+1's state.
    generation: u64,
    /// Permanently closed: an accepted connection whose stream died, or
    /// fabric shutdown. Dial connections never close until shutdown.
    closed: bool,
}

struct Conn {
    /// `Some(addr)`: this end dials (and re-dials) `addr`. `None`: the
    /// stream was accepted; when it dies the peer is expected to re-dial.
    dial: Option<String>,
    /// Dialed: the id of this connection's link, drawn once, so that the
    /// links of a restarted process are new ones.
    link: u64,
    state: Mutex<ConnState>,
    cond: Condvar,
}

impl Conn {
    fn new(dial: Option<String>, stream: Option<TcpStream>) -> Arc<Conn> {
        Arc::new(Conn {
            dial,
            link: RandomState::new().hash_one(std::process::id()),
            state: Mutex::new(ConnState {
                frames: VecDeque::new(),
                written: 0,
                acked: 0,
                owed: None,
                generation: u64::from(stream.is_some()),
                stream,
                closed: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Queues an encoded frame for the writer; `false` if the connection
    /// is closed.
    fn enqueue(&self, buf: PooledBuf) -> bool {
        {
            let mut st = lock(&self.state);
            if st.closed {
                return false;
            }
            st.frames.push_back(buf);
        }
        self.cond.notify_one();
        true
    }

    /// The acceptor has delivered the link's frames up to `seq`: a dialed
    /// connection lets them go.
    fn acknowledged(&self, seq: u64) {
        if self.dial.is_none() {
            return;
        }
        let mut st = lock(&self.state);
        while st.acked < seq && st.frames.pop_front().is_some() {
            st.acked += 1;
            st.written = st.written.saturating_sub(1);
        }
    }

    /// An accepted stream has delivered its link's frames up to `seq`,
    /// the last `frames` of them in a read at `now`. The ack goes out
    /// with the next write, or on its own once it is due.
    fn owe_ack(&self, seq: u64, frames: u64, now: Instant) {
        let mut st = lock(&self.state);
        let owed = st.owed.get_or_insert(OwedAck {
            seq,
            frames: 0,
            since: now,
            due: false,
        });
        owed.seq = seq;
        owed.frames += frames;
        let due =
            owed.frames >= ACK_FRAMES || now.saturating_duration_since(owed.since) >= ACK_AFTER;
        if due && !owed.due {
            owed.due = true;
            drop(st);
            self.cond.notify_one();
        }
    }

    fn close_stream(&self) {
        let st = lock(&self.state);
        if let Some(s) = &st.stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Handles of the `net.tcp.*` counters the reader and writer loops bump
/// per frame and per write, resolved once like those of the site table; the
/// counters of rare events (dials, NACKs, re-sends, errors) stay looked up
/// by name.
struct TcpCounters {
    frames_received: sdds_obs::Counter,
    bytes_received: sdds_obs::Counter,
    writes: sdds_obs::Counter,
    frames_sent: sdds_obs::Counter,
    bytes_sent: sdds_obs::Counter,
    frames_dropped: sdds_obs::Counter,
}

impl TcpCounters {
    fn new() -> TcpCounters {
        TcpCounters {
            frames_received: sdds_obs::counter("net.tcp.frames_received"),
            bytes_received: sdds_obs::counter("net.tcp.bytes_received"),
            writes: sdds_obs::counter("net.tcp.writes"),
            frames_sent: sdds_obs::counter("net.tcp.frames_sent"),
            bytes_sent: sdds_obs::counter("net.tcp.bytes_sent"),
            frames_dropped: sdds_obs::counter("net.tcp.frames_dropped"),
        }
    }
}

/// Which connection reaches each dynamic id, and the frames for the ids
/// whose announcement is still on its way.
#[derive(Default)]
struct Routes {
    conns: HashMap<u32, Arc<Conn>>,
    /// When the first frame for the id came, and the frames.
    waiting: HashMap<u32, (Instant, Vec<PooledBuf>)>,
}

impl Routes {
    /// `conn` reaches dynamic id `id`: the frames waiting for it go out.
    fn learn(&mut self, id: u32, conn: &Arc<Conn>) {
        if let Some((_, frames)) = self.waiting.remove(&id) {
            for buf in frames {
                conn.enqueue(buf);
            }
        }
        self.conns.insert(id, Arc::clone(conn));
    }

    /// Queues `buf` on the route to `id`, or keeps it until one is
    /// learned, for up to [`ROUTE_WAIT`]: frames that waited longer are
    /// dropped, their id's process gone. `false` if the route is closed.
    fn send(&mut self, id: u32, buf: PooledBuf, dropped: &sdds_obs::Counter) -> bool {
        if let Some(conn) = self.conns.get(&id) {
            return conn.enqueue(buf);
        }
        let now = Instant::now();
        self.waiting.retain(|_, (since, frames)| {
            let wait = now.saturating_duration_since(*since) < ROUTE_WAIT;
            if !wait {
                dropped.add(frames.len() as u64);
            }
            wait
        });
        let (_, frames) = self.waiting.entry(id).or_insert((now, Vec::new()));
        frames.push(buf);
        true
    }
}

struct Shared {
    registry: SiteRegistry,
    /// The table the readers deliver into.
    sites: Arc<Sites>,
    tcp: TcpCounters,
    shutdown: AtomicBool,
    /// Dial connections by server rank.
    peers: Mutex<HashMap<usize, Arc<Conn>>>,
    /// Accepted connections (kept alive for shutdown/fault injection).
    inbound: Mutex<Vec<Arc<Conn>>>,
    /// Learned routes for dynamic ids.
    routes: Mutex<Routes>,
    /// Destination ids a peer NACKed since the last send to them.
    unroutable: Mutex<HashSet<u32>>,
    /// For every link dialed to this process, the number of its last
    /// frame delivered, shared by the streams it is re-dialed on. Kept
    /// for the life of the process: 16 bytes a link.
    delivered: Mutex<HashMap<u64, Arc<Mutex<u64>>>>,
    listen_addr: Option<String>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        // ordering: Relaxed — the flag is a quiescent-state hint polled by
        // worker threads; no other memory is published through it
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A process's links to a TCP cluster. Owned by `Network`.
pub(crate) struct TcpFabric {
    shared: Arc<Shared>,
}

impl TcpFabric {
    /// Serving fabric: binds the listener for `rank` and accepts peers.
    pub(crate) fn serve(
        registry: SiteRegistry,
        rank: usize,
        sites: Arc<Sites>,
    ) -> std::io::Result<TcpFabric> {
        let addr = registry.addr(rank).unwrap_or("").to_string();
        let listener = TcpListener::bind(&addr)?;
        let fabric = TcpFabric::new(registry, sites, Some(addr));
        let shared = Arc::clone(&fabric.shared);
        std::thread::spawn(move || accept_loop(shared, listener));
        Ok(fabric)
    }

    /// Client fabric: dial-only, no listener.
    pub(crate) fn client(registry: SiteRegistry, sites: Arc<Sites>) -> TcpFabric {
        TcpFabric::new(registry, sites, None)
    }

    fn new(registry: SiteRegistry, sites: Arc<Sites>, listen_addr: Option<String>) -> TcpFabric {
        TcpFabric {
            shared: Arc::new(Shared {
                registry,
                sites,
                tcp: TcpCounters::new(),
                shutdown: AtomicBool::new(false),
                peers: Mutex::new(HashMap::new()),
                inbound: Mutex::new(Vec::new()),
                routes: Mutex::default(),
                unroutable: Mutex::new(HashSet::new()),
                delivered: Mutex::new(HashMap::new()),
                listen_addr,
            }),
        }
    }

    /// Announces a dynamic id of this process on a connection to every
    /// rank (dialing lazily creates them), so any rank — including ones
    /// that only ever see forwarded traffic for it — can route replies.
    pub(crate) fn announce(&self, id: SiteId) {
        for rank in 0..self.shared.registry.num_servers() {
            if let Some(conn) = self.peer_conn(rank) {
                let mut buf = PooledBuf::take();
                frame::encode_hello(id, buf.as_mut_vec());
                conn.enqueue(buf);
            }
        }
    }

    /// Severs every established stream (fault injection / tests). Dial
    /// connections re-establish with backoff; accepted ones wait for the
    /// peer to re-dial.
    pub(crate) fn drop_connections(&self) {
        let (peers, inbound) = (lock(&self.shared.peers), lock(&self.shared.inbound));
        for conn in peers.values().chain(inbound.iter()) {
            conn.close_stream();
        }
        sdds_obs::counter("net.tcp.conn_drops").inc();
    }

    fn peer_conn(&self, rank: usize) -> Option<Arc<Conn>> {
        let shared = &self.shared;
        let addr = shared.registry.addr(rank)?.to_string();
        let mut peers = lock(&shared.peers);
        if let Some(c) = peers.get(&rank) {
            return Some(Arc::clone(c));
        }
        let conn = Conn::new(Some(addr), None);
        peers.insert(rank, Arc::clone(&conn));
        let s = Arc::clone(shared);
        let c = Arc::clone(&conn);
        std::thread::spawn(move || writer_loop(s, c));
        Some(conn)
    }

    /// Sends an envelope for a site another process hosts. Mirrors the
    /// local accounting: stats/counters reflect messages actually
    /// enqueued; a closed route or a NACKed destination is `Disconnected`.
    pub(crate) fn send(&self, env: Envelope) -> Result<(), NetError> {
        let shared = &self.shared;
        let sites = &shared.sites;
        let (to, len) = (env.to, env.payload.len());

        if lock(&shared.unroutable).remove(&to.0) {
            lock(&shared.routes).conns.remove(&to.0);
            return Err(sites.disconnected(to));
        }

        let mut buf = PooledBuf::take();
        frame::encode_envelope(&env, buf.as_mut_vec());
        sites.stats.record(len);
        let sent = match shared.registry.owner_rank(to) {
            Some(rank) => self.peer_conn(rank).is_some_and(|conn| conn.enqueue(buf)),
            None => lock(&shared.routes).send(to.0, buf, &shared.tcp.frames_dropped),
        };
        if sent {
            sites.delivered(len);
            Ok(())
        } else {
            sites.stats.unrecord(len);
            Err(sites.disconnected(to))
        }
    }

    /// Begins teardown: stops accepting, wakes writers, severs streams.
    fn begin_shutdown(&self) {
        let shared = &self.shared;
        // ordering: Relaxed — see `is_shutdown`; threads observe the flag
        // at their next poll, which is all teardown needs
        shared.shutdown.store(true, Ordering::Relaxed);
        let (peers, inbound) = (lock(&shared.peers), lock(&shared.inbound));
        for conn in peers.values().chain(inbound.iter()) {
            conn.close_stream();
            conn.cond.notify_all();
        }
        drop((peers, inbound));
        // Unblock the accept loop with a throwaway connection.
        if let Some(addr) = &shared.listen_addr {
            let _ = TcpStream::connect(addr);
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.is_shutdown() {
                    return;
                }
                continue;
            }
        };
        if shared.is_shutdown() {
            return;
        }
        sdds_obs::counter("net.tcp.accepts").inc();
        let _ = stream.set_nodelay(true);
        let Ok(reader_handle) = stream.try_clone() else {
            continue;
        };
        let conn = Conn::new(None, Some(stream));
        lock(&shared.inbound).push(Arc::clone(&conn));
        {
            let s = Arc::clone(&shared);
            let c = Arc::clone(&conn);
            std::thread::spawn(move || writer_loop(s, c));
        }
        {
            let s = Arc::clone(&shared);
            let c = Arc::clone(&conn);
            std::thread::spawn(move || reader_loop(s, c, reader_handle, 1));
        }
    }
}

/// Dials (for dial connections) until a stream is established or the
/// connection is closed/shut down. Returns the writer's stream handle
/// and its generation.
fn establish(shared: &Arc<Shared>, conn: &Arc<Conn>) -> Option<(TcpStream, u64)> {
    let addr = conn.dial.as_ref()?;
    let mut backoff = INITIAL_BACKOFF;
    loop {
        if shared.is_shutdown() || lock(&conn.state).closed {
            return None;
        }
        let dialed = TcpStream::connect(addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            Ok((stream.try_clone()?, stream.try_clone()?, stream))
        });
        let Ok((state_handle, reader_handle, stream)) = dialed else {
            sdds_obs::counter("net.tcp.dial_failures").inc();
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
            continue;
        };
        let generation = {
            let mut st = lock(&conn.state);
            st.generation += 1;
            st.stream = Some(state_handle);
            st.generation
        };
        if generation == 1 {
            sdds_obs::counter("net.tcp.connects").inc();
        } else {
            sdds_obs::counter("net.tcp.reconnects").inc();
        }
        let (s, c) = (Arc::clone(shared), Arc::clone(conn));
        std::thread::spawn(move || reader_loop(s, c, reader_handle, generation));
        return Some((stream, generation));
    }
}

fn writer_loop(shared: Arc<Shared>, conn: Arc<Conn>) {
    let mut stream: Option<TcpStream> = None;
    let mut stream_gen = 0u64;
    let mut out: Vec<u8> = Vec::new();
    loop {
        // Wait until there is something to write: frames the stream has
        // not been given, a due ack, or frames kept from a dialed stream
        // that died (or we are done).
        {
            let mut st = lock(&conn.state);
            loop {
                if st.closed || shared.is_shutdown() {
                    let unwritten = st.frames.len() - st.written;
                    shared.tcp.frames_dropped.add(unwritten as u64);
                    st.frames.clear();
                    return;
                }
                if st.generation != stream_gen || st.stream.is_none() {
                    stream = None;
                }
                let kept = stream.is_none() && !st.frames.is_empty();
                let due = st.owed.as_ref().is_some_and(|ack| ack.due);
                if st.frames.len() > st.written || kept || due {
                    break;
                }
                st = wait(&conn.cond, st);
            }
        }

        // Make sure we have a live stream before draining the queue.
        let mut fresh = false;
        if stream.is_none() {
            match conn.dial {
                Some(_) => {
                    let Some((s, generation)) = establish(&shared, &conn) else {
                        continue; // closed or shutting down while dialing
                    };
                    (stream, stream_gen, fresh) = (Some(s), generation, true);
                }
                None => {
                    // Accepted stream: refresh our clone, or give up if it
                    // is gone (the peer must re-dial).
                    let mut st = lock(&conn.state);
                    match st.stream.as_ref().and_then(|s| s.try_clone().ok()) {
                        Some(s) => {
                            stream = Some(s);
                            stream_gen = st.generation;
                        }
                        None => {
                            st.closed = true;
                            continue;
                        }
                    }
                }
            }
        }

        // Everything the stream has not been given, in one buffer:
        // explicit write coalescing — all frames of one drain batch leave
        // in a single write syscall. A new dialed stream opens with our
        // dynamic ids, so that the peer can route replies, then the link
        // frame and every frame kept.
        out.clear();
        if fresh {
            for id in shared.sites.dynamic_ids() {
                frame::encode_hello(id, &mut out);
            }
        }
        let (batch, resent) = {
            let mut st = lock(&conn.state);
            let mut resent = 0;
            if fresh {
                frame::encode_link(conn.link, st.acked + 1, &mut out);
                resent = std::mem::take(&mut st.written);
            }
            if let Some(ack) = st.owed.take() {
                frame::encode_ack(ack.seq, &mut out);
            }
            for buf in st.frames.range(st.written..) {
                out.extend_from_slice(buf.as_slice());
            }
            let batch = st.frames.len() - st.written;
            if conn.dial.is_some() {
                st.written = st.frames.len();
            } else {
                st.frames.clear();
            }
            (batch, resent)
        };
        if out.is_empty() {
            continue;
        }
        let ok = match &mut stream {
            Some(s) => s.write_all(&out).is_ok(),
            None => false,
        };
        if ok {
            shared.tcp.writes.inc();
            shared.tcp.frames_sent.add(batch as u64);
            if resent > 0 {
                sdds_obs::counter("net.tcp.frames_resent").add(resent as u64);
            }
            shared.tcp.bytes_sent.add(out.len() as u64);
        } else {
            // A dialed stream's frames are kept for the next one; an
            // accepted stream's are lost, exactly like an in-flight
            // datagram on a dead link, and the client asks again.
            stream = None;
            let mut st = lock(&conn.state);
            if conn.dial.is_none() {
                shared.tcp.frames_dropped.add(batch as u64);
            }
            if st.generation == stream_gen {
                st.stream = None;
                st.closed |= conn.dial.is_none();
            }
        }
    }
}

fn reader_loop(shared: Arc<Shared>, conn: Arc<Conn>, mut stream: TcpStream, generation: u64) {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    // the frames of one `read()`: each local owner is woken once
    let mut scatter = Scatter::new();
    // Accepted: the delivery mark of the link this stream carries, and
    // the number of its next frame.
    let mut link: Option<(Arc<Mutex<u64>>, u64)> = None;
    'stream: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'stream,
            Ok(n) => n,
        };
        shared.tcp.bytes_received.add(n as u64);
        decoder.extend(&buf[..n]);
        let mut numbered = 0;
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    // Corrupt stream: drop the connection, never resync.
                    sdds_obs::counter("net.tcp.frame_errors").inc();
                    let _ = stream.shutdown(Shutdown::Both);
                    break 'stream;
                }
            };
            match (frame, &mut link) {
                (Frame::Link { id, next_seq }, _) if conn.dial.is_none() => {
                    let mark = Arc::clone(lock(&shared.delivered).entry(id).or_default());
                    link = Some((mark, next_seq));
                }
                (Frame::Ack { seq }, _) => conn.acknowledged(seq),
                (frame, Some((delivered, next))) => {
                    let seq = *next;
                    *next = seq.wrapping_add(1);
                    numbered += 1;
                    let mut last = lock(delivered);
                    if seq > *last {
                        handle_frame(&shared, &conn, frame, &mut scatter);
                        *last = seq;
                    } else {
                        // delivered already: it came round again on a re-dial
                        sdds_obs::counter("net.tcp.duplicates_dropped").inc();
                    }
                }
                (frame, None) => handle_frame(&shared, &conn, frame, &mut scatter),
            }
        }
        if let (Some((_, next)), true) = (&link, numbered > 0) {
            conn.owe_ack(next.wrapping_sub(1), numbered, scatter.now());
        }
        scatter.wake();
        if shared.is_shutdown() {
            break;
        }
    }
    // Tear down this generation's stream state (unless a newer stream
    // already replaced it).
    {
        let mut st = lock(&conn.state);
        if st.generation == generation {
            st.stream = None;
            st.closed |= conn.dial.is_none();
        }
    }
    conn.cond.notify_all();
    if conn.dial.is_none() {
        // Remove the dead inbound connection and any routes through it.
        lock(&shared.inbound).retain(|c| !Arc::ptr_eq(c, &conn));
        lock(&shared.routes)
            .conns
            .retain(|_, c| !Arc::ptr_eq(c, &conn));
    }
}

fn handle_frame(shared: &Arc<Shared>, conn: &Arc<Conn>, frame: Frame, scatter: &mut Scatter) {
    match frame {
        Frame::Hello { id } => lock(&shared.routes).learn(id.0, conn),
        Frame::Nack { to } => {
            sdds_obs::counter("net.tcp.nacks_received").inc();
            lock(&shared.unroutable).insert(to.0);
        }
        Frame::Envelope(env) => {
            shared.tcp.frames_received.inc();
            if (DYN_BASE..COORD_ID).contains(&env.from.0) {
                // Learn the reply route even if the hello raced us.
                lock(&shared.routes).learn(env.from.0, conn);
            }
            incoming(shared, conn, env, scatter);
        }
        // a dialer opens its streams with links, and only acceptors ack
        Frame::Link { .. } | Frame::Ack { .. } => {}
    }
}

/// Receiver-side delivery of an envelope that arrived over the wire, as
/// part of the scatter of its `read()`. An envelope this process cannot
/// route — a tombstone, an id it hosts that is neither registered nor
/// reserved, or one it does not host — is NACKed at once.
fn incoming(shared: &Shared, conn: &Conn, env: Envelope, scatter: &mut Scatter) {
    let to = env.to;
    match shared.sites.push(env, scatter.now()) {
        Ok(Some(wake)) => scatter.defer(wake),
        Ok(None) => {}
        Err(_) => {
            sdds_obs::counter("net.tcp.nacks_sent").inc();
            let mut buf = PooledBuf::take();
            frame::encode_nack(to, buf.as_mut_vec());
            conn.enqueue(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{NetConfig, NetError, Network, SiteId};
    use crate::registry::SiteRegistry;
    use crate::sync::lock;
    use bytes::Bytes;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    const RECV: Duration = Duration::from_secs(5);

    /// Held by the tests that count writes and by the long burst: the
    /// `net.tcp.*` counters are the process's, not a connection's.
    static COUNTED: Mutex<()> = Mutex::new(());

    #[test]
    fn client_to_server_and_reply() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();

        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        assert!(client.id().0 >= crate::registry::DYN_BASE);

        client
            .send(SiteId(0), Bytes::from_static(b"request"))
            .unwrap();
        let env = bucket.recv_timeout(RECV).unwrap();
        assert_eq!(env.from, client.id());
        assert_eq!(&env.payload[..], b"request");

        bucket
            .send(client.id(), Bytes::from_static(b"response"))
            .unwrap();
        let back = client.recv_timeout(RECV).unwrap();
        assert_eq!(back.from, SiteId(0));
        assert_eq!(&back.payload[..], b"response");
    }

    #[test]
    fn server_to_server_by_owner_rank() {
        let reg = SiteRegistry::loopback(2).unwrap();
        let s0 = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let s1 = Network::tcp_serve(reg, 1, NetConfig::default()).unwrap();
        // Bucket addresses: 0 lives on rank 0, 1 lives on rank 1.
        let b0 = s0.register_with_id(SiteId(0)).unwrap();
        let b1 = s1.register_with_id(SiteId(1)).unwrap();

        b0.send(SiteId(1), Bytes::from_static(b"cross")).unwrap();
        let env = b1.recv_timeout(RECV).unwrap();
        assert_eq!(env.from, SiteId(0));
        assert_eq!(&env.payload[..], b"cross");

        b1.send(SiteId(0), Bytes::from_static(b"back")).unwrap();
        assert_eq!(&b0.recv_timeout(RECV).unwrap().payload[..], b"back");
    }

    #[test]
    fn trace_context_rides_the_wire() {
        use sdds_obs::trace::TraceContext;
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();

        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF,
            parent_span_id: 42,
        };
        client
            .send_traced(SiteId(0), Bytes::from_static(b"traced"), Some(ctx))
            .unwrap();
        let env = bucket.recv_timeout(RECV).unwrap();
        assert_eq!(env.ctx, Some(ctx));

        client
            .send_traced(SiteId(0), Bytes::from_static(b"bare"), None)
            .unwrap();
        assert_eq!(bucket.recv_timeout(RECV).unwrap().ctx, None);
    }

    #[test]
    fn retired_endpoint_becomes_disconnected() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();
        drop(bucket); // bucket retires: receiver gone

        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        // First send reaches the server, which NACKs unroutable; the debt
        // surfaces as Disconnected on a later send.
        let mut saw_disconnected = false;
        for _ in 0..100 {
            match client.send(SiteId(0), Bytes::from_static(b"x")) {
                Err(NetError::Disconnected(_)) => {
                    saw_disconnected = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        assert!(saw_disconnected, "unroutable NACK never surfaced");
        let _ = server;
    }

    /// A frame for a retired id, or for an id the rank hosts that is
    /// neither registered nor reserved, is NACKed at once, so the frames
    /// behind it on the same connection are not held up.
    #[test]
    fn a_retired_id_does_not_hold_up_the_connection() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        drop(server.register_with_id(SiteId(3)).unwrap());
        let unreserved = SiteId(6);
        let live = server.register_with_id(SiteId(4)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        client.send(SiteId(4), Bytes::from_static(b"dial")).unwrap();
        live.recv_timeout(RECV).unwrap();
        for _ in 0..3 {
            let start = Instant::now();
            for to in [SiteId(3), unreserved] {
                let _ = client.send(to, Bytes::from_static(b"gone"));
            }
            client.send(SiteId(4), Bytes::from_static(b"live")).unwrap();
            live.recv_timeout(RECV).unwrap();
            let late = start.elapsed();
            assert!(
                late < Duration::from_millis(100),
                "live frame {late:?} late"
            );
        }
        let deadline = Instant::now() + RECV;
        while client.send(unreserved, Bytes::new()) != Err(NetError::Disconnected(unreserved)) {
            assert!(Instant::now() < deadline, "never NACKed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A frame for a reserved id waits in its mailbox for the endpoint
    /// that registers it, unNACKed, and the frame behind it for a live id
    /// is not held up meanwhile.
    #[test]
    fn a_frame_for_a_reserved_id_waits_for_its_registration_alone() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let spawning = SiteId(3);
        server.reserve(spawning);
        let live = server.register_with_id(SiteId(4)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        client.send(SiteId(4), Bytes::from_static(b"dial")).unwrap();
        live.recv_timeout(RECV).unwrap();

        let start = Instant::now();
        client.send(spawning, Bytes::from_static(b"early")).unwrap();
        client.send(SiteId(4), Bytes::from_static(b"live")).unwrap();
        live.recv_timeout(RECV).unwrap();
        let late = start.elapsed();
        assert!(
            late < Duration::from_millis(100),
            "live frame {late:?} late"
        );
        // a NACKed frame is never delivered
        let spawned = server.register_with_id(spawning).unwrap();
        assert_eq!(&spawned.recv_timeout(RECV).unwrap().payload[..], b"early");
        client.send(spawning, Bytes::from_static(b"late")).unwrap();
        assert_eq!(&spawned.recv_timeout(RECV).unwrap().payload[..], b"late");
    }

    /// Frames for a dynamic id with no route wait for one, and go out on
    /// it once the id's hello is learned; frames that waited past
    /// `ROUTE_WAIT` are dropped.
    #[test]
    fn frames_for_an_unannounced_id_wait_for_its_route() {
        use super::{Conn, Routes, ROUTE_WAIT};
        use crate::pool::PooledBuf;
        let dropped = sdds_obs::counter("net.tcp.frames_dropped");
        let mut routes = Routes::default();
        if let Some(long_ago) = Instant::now().checked_sub(ROUTE_WAIT) {
            routes
                .waiting
                .insert(8, (long_ago, vec![PooledBuf::take()]));
        }
        assert!(routes.send(7, PooledBuf::take(), &dropped));
        assert!(!routes.waiting.contains_key(&8), "waited too long");
        let conn = Conn::new(None, None);
        routes.learn(7, &conn);
        assert_eq!(lock(&conn.state).frames.len(), 1, "the frame went out");
        assert!(routes.send(7, PooledBuf::take(), &dropped));
        assert_eq!(lock(&conn.state).frames.len(), 2, "on the route");
    }

    #[test]
    fn severed_connections_reconnect_and_reroute_replies() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();

        client.send(SiteId(0), Bytes::from_static(b"one")).unwrap();
        assert_eq!(&bucket.recv_timeout(RECV).unwrap().payload[..], b"one");

        let reconnects = sdds_obs::counter("net.tcp.reconnects").get();
        server.drop_connections();

        // The link re-dials and delivers what the dead stream lost: one
        // send is enough.
        client.send(SiteId(0), Bytes::from_static(b"two")).unwrap();
        assert_eq!(&bucket.recv_timeout(RECV).unwrap().payload[..], b"two");
        assert!(
            sdds_obs::counter("net.tcp.reconnects").get() > reconnects,
            "reconnect counter did not move"
        );

        // The re-dialed stream re-announced the client id: replies still
        // route.
        bucket
            .send(client.id(), Bytes::from_static(b"reply"))
            .unwrap();
        let reply = client.recv_timeout(RECV).expect("no reply after reconnect");
        assert_eq!(&reply.payload[..], b"reply");
    }

    /// Connections severed again and again on both sides while a burst
    /// is under way: every envelope arrives, once and in order, and no
    /// application sends one again — the link does.
    #[test]
    fn a_burst_arrives_exactly_once_and_in_order_through_severed_connections() {
        const BURST: u32 = 10_000;
        let _counted = lock(&COUNTED);
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        let resent = sdds_obs::counter("net.tcp.frames_resent");
        let resent_before = resent.get();
        let (first_tx, first_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            for i in 0..BURST {
                let env = bucket.recv_timeout(RECV).expect("an envelope was lost");
                assert_eq!(env.payload[..], i.to_le_bytes(), "out of order");
                if i == 0 {
                    first_tx.send(()).unwrap();
                }
            }
            let again = bucket.recv_timeout(Duration::from_millis(200));
            assert!(again.is_err(), "an envelope arrived twice");
        });
        for i in 0..BURST {
            let payload = Bytes::copy_from_slice(&i.to_le_bytes());
            client.send(SiteId(0), payload).unwrap();
            if i == 0 {
                // Delivered, and not acknowledged: an ack waits for a
                // reply to ride, or for more frames. The next stream
                // carries it again, and the acceptor drops it.
                first_rx.recv().unwrap();
                clientnet.drop_connections();
            } else if i % 500 == 250 {
                match i / 500 % 2 {
                    0 => clientnet.drop_connections(),
                    _ => server.drop_connections(),
                }
            }
        }
        receiver.join().unwrap();
        assert!(resent.get() > resent_before, "nothing was sent again");
    }

    #[test]
    fn writes_coalesce_bursts_into_fewer_syscalls() {
        let _counted = lock(&COUNTED);
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        let bucket = server.register_with_id(SiteId(0)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();

        // Prime the connection so the burst below doesn't pay dial time.
        client
            .send(SiteId(0), Bytes::from_static(b"prime"))
            .unwrap();
        bucket.recv_timeout(RECV).unwrap();

        let writes_before = sdds_obs::counter("net.tcp.writes").get();
        const BURST: usize = 500;
        for i in 0..BURST {
            client
                .send(SiteId(0), Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        for _ in 0..BURST {
            bucket.recv_timeout(RECV).unwrap();
        }
        let writes = sdds_obs::counter("net.tcp.writes").get() - writes_before;
        // Coalescing must pack the burst into far fewer syscalls than
        // frames. Other tests run concurrently against the same global
        // counter, so the bound is loose — but without coalescing this
        // would be >= 500 from this connection alone.
        assert!(
            (writes as usize) < BURST / 2,
            "burst of {BURST} frames took {writes} writes (no coalescing?)"
        );
    }
}
