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
//!   pooled buffers and enqueue them on the connection (bounded queue —
//!   a full queue surfaces as `NetError::Overloaded` at the sender, which
//!   sends again later). The writer drains *everything* queued at that
//!   moment, concatenates the frames, and issues a single `write`
//!   syscall (`TCP_NODELAY` is set, so coalescing is explicit here, not
//!   delegated to Nagle). Connections dial lazily and re-dial with
//!   exponential backoff (10 ms doubling to 2 s).
//! * **Reader thread per connection** delivering through the site table,
//!   the one way into a local mailbox a local sender takes too, so
//!   `Endpoint::recv` and the site runtime above it are
//!   transport-agnostic. The frames of one `read()` are one [`Scatter`]:
//!   each local owner is woken once.
//! * **Unroutable NACKs.** A receiver that cannot route an envelope
//!   (destination gone — a tombstone, refused at once — not hosted, or
//!   never registered past a spawn grace window) replies with a NACK
//!   frame naming the destination. The sender records the destination as
//!   unroutable: the next send to it fails `Disconnected`, as it does
//!   in-process — one send later than the channel transport, because the
//!   wire is asynchronous. The NACKed message itself is lost, which the
//!   LH* protocol already tolerates (idempotent retransmits).
//! * **Routing by id.** Well-known ids (buckets, coordinator, host
//!   control) map to a rank via the registry. Dynamic client ids are
//!   announced with hello frames on every connection the client opens
//!   (and re-announced on reconnect), so any rank can route replies.

use crate::frame::{self, Frame, FrameDecoder};
use crate::network::{Envelope, Miss, NetError, Scatter, SiteId, Sites};
use crate::pool::PooledBuf;
use crate::registry::{SiteRegistry, COORD_ID, DYN_BASE};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encoded frames a connection will buffer before senders see
/// `Overloaded`. NACKs and hellos bypass the bound (they are tiny, and
/// routing depends on them).
const MAX_CONN_QUEUE: usize = 4096;

/// First dial-retry backoff; doubles up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// How long a receiver waits for a not-yet-registered well-known id
/// (rides the remote bucket-spawn race) before NACKing unroutable.
const SPAWN_GRACE: Duration = Duration::from_secs(2);

enum EnqueueError {
    Full,
    Closed,
}

struct ConnState {
    queue: VecDeque<PooledBuf>,
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
    state: Mutex<ConnState>,
    cond: Condvar,
}

impl Conn {
    fn enqueue(&self, buf: PooledBuf, force: bool) -> Result<(), EnqueueError> {
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(EnqueueError::Closed);
            }
            if !force && st.queue.len() >= MAX_CONN_QUEUE {
                return Err(EnqueueError::Full);
            }
            st.queue.push_back(buf);
        }
        self.cond.notify_one();
        Ok(())
    }

    fn close_stream(&self) {
        let st = self.state.lock();
        if let Some(s) = &st.stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Handles of the `net.tcp.*` counters the reader and writer loops bump
/// per frame and per write, resolved once like those of the site table; the
/// counters of rare events (dials, NACKs, errors) stay looked up by name.
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
    /// Learned routes for dynamic ids: which connection reaches them.
    routes: Mutex<HashMap<u32, Arc<Conn>>>,
    /// Destination ids a peer NACKed since the last send to them.
    unroutable: Mutex<HashSet<u32>>,
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
                routes: Mutex::new(HashMap::new()),
                unroutable: Mutex::new(HashSet::new()),
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
                let _ = conn.enqueue(buf, true);
            }
        }
    }

    /// Severs every established stream (fault injection / tests). Dial
    /// connections re-establish with backoff; accepted ones wait for the
    /// peer to re-dial.
    pub(crate) fn drop_connections(&self) {
        for conn in self.shared.peers.lock().values() {
            conn.close_stream();
        }
        for conn in self.shared.inbound.lock().iter() {
            conn.close_stream();
        }
        sdds_obs::counter("net.tcp.conn_drops").inc();
    }

    fn peer_conn(&self, rank: usize) -> Option<Arc<Conn>> {
        let shared = &self.shared;
        let addr = shared.registry.addr(rank)?.to_string();
        let mut peers = shared.peers.lock();
        if let Some(c) = peers.get(&rank) {
            return Some(Arc::clone(c));
        }
        let conn = Arc::new(Conn {
            dial: Some(addr),
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                stream: None,
                generation: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        });
        peers.insert(rank, Arc::clone(&conn));
        let s = Arc::clone(shared);
        let c = Arc::clone(&conn);
        std::thread::spawn(move || writer_loop(s, c));
        Some(conn)
    }

    /// Sends an envelope for a site another process hosts. Mirrors the
    /// local accounting: stats/counters reflect messages actually
    /// enqueued, a full link surfaces as `Overloaded`, a lost peer or a
    /// NACKed destination as `Disconnected`.
    pub(crate) fn send(&self, env: Envelope) -> Result<(), NetError> {
        let shared = &self.shared;
        let sites = &shared.sites;
        let (to, len, ctx) = (env.to, env.payload.len(), env.ctx);

        if shared.unroutable.lock().remove(&to.0) {
            shared.routes.lock().remove(&to.0);
            return Err(sites.disconnected(to));
        }

        let conn = match shared.registry.owner_rank(to) {
            Some(rank) => self.peer_conn(rank),
            None => {
                let routes = shared.routes.lock();
                routes.get(&to.0).map(Arc::clone)
            }
        };
        let Some(conn) = conn else {
            return Err(sites.disconnected(to));
        };

        let mut buf = PooledBuf::take();
        frame::encode_envelope(&env, buf.as_mut_vec());
        sites.stats.record(len);
        match conn.enqueue(buf, false) {
            Ok(()) => {
                sites.delivered(len);
                Ok(())
            }
            Err(EnqueueError::Full) => {
                sites.stats.unrecord(len);
                Err(sites.overloaded(to, len, ctx))
            }
            Err(EnqueueError::Closed) => {
                sites.stats.unrecord(len);
                Err(sites.disconnected(to))
            }
        }
    }

    /// Begins teardown: stops accepting, wakes writers, severs streams.
    fn begin_shutdown(&self) {
        let shared = &self.shared;
        // ordering: Relaxed — see `is_shutdown`; threads observe the flag
        // at their next poll, which is all teardown needs
        shared.shutdown.store(true, Ordering::Relaxed);
        for conn in shared.peers.lock().values() {
            conn.close_stream();
            conn.cond.notify_all();
        }
        for conn in shared.inbound.lock().iter() {
            conn.close_stream();
            conn.cond.notify_all();
        }
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
        let state_handle = stream.try_clone().ok();
        let reader_handle = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let conn = Arc::new(Conn {
            dial: None,
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                stream: state_handle,
                generation: 1,
                closed: false,
            }),
            cond: Condvar::new(),
        });
        shared.inbound.lock().push(Arc::clone(&conn));
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
/// connection is closed/shut down. Returns the writer's stream handle.
fn establish(shared: &Arc<Shared>, conn: &Arc<Conn>) -> Option<TcpStream> {
    let addr = conn.dial.as_ref()?;
    let mut backoff = INITIAL_BACKOFF;
    loop {
        if shared.is_shutdown() || conn.state.lock().closed {
            return None;
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let (Ok(state_handle), Ok(reader_handle)) =
                    (stream.try_clone(), stream.try_clone())
                else {
                    sdds_obs::counter("net.tcp.dial_failures").inc();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                    continue;
                };
                let generation = {
                    let mut st = conn.state.lock();
                    st.generation += 1;
                    st.stream = Some(state_handle);
                    st.generation
                };
                if generation == 1 {
                    sdds_obs::counter("net.tcp.connects").inc();
                } else {
                    sdds_obs::counter("net.tcp.reconnects").inc();
                }
                {
                    let s = Arc::clone(shared);
                    let c = Arc::clone(conn);
                    std::thread::spawn(move || reader_loop(s, c, reader_handle, generation));
                }
                return Some(stream);
            }
            Err(_) => {
                sdds_obs::counter("net.tcp.dial_failures").inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

fn writer_loop(shared: Arc<Shared>, conn: Arc<Conn>) {
    let mut stream: Option<TcpStream> = None;
    let mut stream_gen = 0u64;
    let mut coalesce: Vec<u8> = Vec::new();
    loop {
        // Wait until there is something to write (or we are done).
        {
            let mut st = conn.state.lock();
            loop {
                if st.closed || shared.is_shutdown() {
                    let dropped = st.queue.len();
                    st.queue.clear();
                    if dropped > 0 {
                        shared.tcp.frames_dropped.add(dropped as u64);
                    }
                    return;
                }
                if !st.queue.is_empty() {
                    break;
                }
                st = conn.cond.wait(st);
            }
            if st.generation != stream_gen {
                stream = None;
            }
        }

        // Make sure we have a live stream before draining the queue.
        if stream.is_none() {
            match conn.dial {
                Some(_) => {
                    stream = establish(&shared, &conn);
                    if let Some(_s) = &stream {
                        stream_gen = conn.state.lock().generation;
                        // (Re)announce our dynamic ids first on every new
                        // stream so the peer can route replies.
                        let mut hello = Vec::new();
                        for id in shared.sites.dynamic_ids() {
                            frame::encode_hello(id, &mut hello);
                        }
                        if !hello.is_empty() {
                            if let Some(s) = &mut stream {
                                if s.write_all(&hello).is_ok() {
                                    shared.tcp.writes.inc();
                                    shared.tcp.bytes_sent.add(hello.len() as u64);
                                } else {
                                    stream = None;
                                }
                            }
                        }
                    }
                    if stream.is_none() {
                        // Closed or shutting down while dialing.
                        continue;
                    }
                }
                None => {
                    // Accepted stream: refresh our clone, or give up if it
                    // is gone (the peer must re-dial).
                    let mut st = conn.state.lock();
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

        // Drain everything queued right now into one buffer: explicit
        // write coalescing — all frames of one drain batch leave in a
        // single write syscall.
        coalesce.clear();
        let mut frames = 0u64;
        {
            let mut st = conn.state.lock();
            while let Some(buf) = st.queue.pop_front() {
                coalesce.extend_from_slice(buf.as_slice());
                frames += 1;
            }
        }
        if frames == 0 {
            continue;
        }
        let ok = match &mut stream {
            Some(s) => s.write_all(&coalesce).is_ok(),
            None => false,
        };
        if ok {
            shared.tcp.writes.inc();
            shared.tcp.frames_sent.add(frames);
            shared.tcp.bytes_sent.add(coalesce.len() as u64);
        } else {
            // The frames of this batch are lost — exactly like an
            // in-flight datagram on a dead link. The protocol retransmits.
            shared.tcp.frames_dropped.add(frames);
            stream = None;
            let mut st = conn.state.lock();
            if st.generation == stream_gen {
                st.stream = None;
                if conn.dial.is_none() {
                    st.closed = true;
                }
            }
        }
    }
}

fn reader_loop(shared: Arc<Shared>, conn: Arc<Conn>, mut stream: TcpStream, generation: u64) {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    // the frames of one `read()`: each local owner is woken once
    let mut scatter = Scatter::new();
    'stream: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'stream,
            Ok(n) => n,
        };
        shared.tcp.bytes_received.add(n as u64);
        decoder.extend(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => handle_frame(&shared, &conn, frame, &mut scatter),
                Ok(None) => break,
                Err(_) => {
                    // Corrupt stream: drop the connection, never resync.
                    sdds_obs::counter("net.tcp.frame_errors").inc();
                    let _ = stream.shutdown(Shutdown::Both);
                    break 'stream;
                }
            }
        }
        scatter.wake();
        if shared.is_shutdown() {
            break;
        }
    }
    // Tear down this generation's stream state (unless a newer stream
    // already replaced it).
    {
        let mut st = conn.state.lock();
        if st.generation == generation {
            st.stream = None;
            if conn.dial.is_none() {
                st.closed = true;
            }
        }
    }
    conn.cond.notify_all();
    if conn.dial.is_none() {
        // Remove the dead inbound connection and any routes through it.
        shared.inbound.lock().retain(|c| !Arc::ptr_eq(c, &conn));
        shared.routes.lock().retain(|_, c| !Arc::ptr_eq(c, &conn));
    }
}

fn handle_frame(shared: &Arc<Shared>, conn: &Arc<Conn>, frame: Frame, scatter: &mut Scatter) {
    match frame {
        Frame::Hello { id } => {
            shared.routes.lock().insert(id.0, Arc::clone(conn));
        }
        Frame::Nack { to } => {
            sdds_obs::counter("net.tcp.nacks_received").inc();
            shared.unroutable.lock().insert(to.0);
        }
        Frame::Envelope(env) => {
            shared.tcp.frames_received.inc();
            if (DYN_BASE..COORD_ID).contains(&env.from.0) {
                // Learn the reply route even if the hello raced us.
                shared.routes.lock().insert(env.from.0, Arc::clone(conn));
            }
            incoming(shared, conn, env, scatter);
        }
    }
}

/// Receiver-side delivery of an envelope that arrived over the wire, as
/// part of the scatter of its `read()`. A spawn in progress, which this
/// may have to wait for, may itself be waiting for a wake-up the scatter
/// still owes, so the scatter is woken before every sleep.
fn incoming(shared: &Arc<Shared>, conn: &Arc<Conn>, mut env: Envelope, scatter: &mut Scatter) {
    let start = Instant::now();
    let to = env.to;
    loop {
        match shared.sites.push(env, scatter.now()) {
            Ok(wake) => {
                if let Some(wake) = wake {
                    scatter.defer(wake);
                }
                return;
            }
            // Not registered yet: ride the remote-spawn race for a
            // bounded window before refusing.
            Err(Miss::Absent(e))
                if shared.sites.owns(to)
                    && start.elapsed() < SPAWN_GRACE
                    && !shared.is_shutdown() =>
            {
                env = e;
            }
            // A tombstone (the endpoint is gone), an id past its spawn
            // grace, or one this rank does not host: unroutable, now.
            Err(_) => break,
        }
        scatter.wake();
        std::thread::sleep(Duration::from_millis(5));
    }
    sdds_obs::counter("net.tcp.nacks_sent").inc();
    let mut buf = PooledBuf::take();
    frame::encode_nack(to, buf.as_mut_vec());
    let _ = conn.enqueue(buf, true);
}

#[cfg(test)]
mod tests {
    use crate::network::{NetConfig, NetError, Network, SiteId};
    use crate::registry::SiteRegistry;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    const RECV: Duration = Duration::from_secs(5);

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

    /// A frame for a retired id is NACKed at once, so the frames behind
    /// it on the same connection are not held up (a retired id used to
    /// park the reader for the spawn grace once its first NACK had
    /// removed the entry).
    #[test]
    fn a_retired_id_does_not_hold_up_the_connection() {
        let reg = SiteRegistry::loopback(1).unwrap();
        let server = Network::tcp_serve(reg.clone(), 0, NetConfig::default()).unwrap();
        drop(server.register_with_id(SiteId(3)).unwrap());
        let live = server.register_with_id(SiteId(4)).unwrap();
        let clientnet = Network::tcp_client(reg, NetConfig::default());
        let client = clientnet.register();
        client.send(SiteId(4), Bytes::from_static(b"dial")).unwrap();
        live.recv_timeout(RECV).unwrap();
        for _ in 0..3 {
            let start = Instant::now();
            for _ in 0..2 {
                let _ = client.send(SiteId(3), Bytes::from_static(b"gone"));
            }
            client.send(SiteId(4), Bytes::from_static(b"live")).unwrap();
            live.recv_timeout(RECV).unwrap();
            let late = start.elapsed();
            assert!(
                late < Duration::from_millis(100),
                "live frame {late:?} late"
            );
        }
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
        std::thread::sleep(Duration::from_millis(50));

        // Retry until the writer re-dials; messages written into the dead
        // stream are lost, exactly like drops, so resend.
        let mut delivered = false;
        for _ in 0..200 {
            let _ = client.send(SiteId(0), Bytes::from_static(b"two"));
            if let Ok(env) = bucket.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(&env.payload[..], b"two");
                delivered = true;
                break;
            }
        }
        assert!(delivered, "no delivery after severed connection");
        assert!(
            sdds_obs::counter("net.tcp.reconnects").get() > reconnects,
            "reconnect counter did not move"
        );

        // The re-dialed stream re-announced the client id: replies still
        // route.
        bucket
            .send(client.id(), Bytes::from_static(b"reply"))
            .unwrap();
        let mut reply = None;
        for _ in 0..50 {
            if let Ok(env) = client.recv_timeout(Duration::from_millis(100)) {
                reply = Some(env);
                break;
            }
            let _ = bucket.send(client.id(), Bytes::from_static(b"reply"));
        }
        assert_eq!(
            &reply.expect("no reply after reconnect").payload[..],
            b"reply"
        );
    }

    #[test]
    fn writes_coalesce_bursts_into_fewer_syscalls() {
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
