//! The site runtime: every bucket, parity site and coordinator of a
//! process as a state machine behind a mailbox, run by a fixed set of
//! worker threads — threads are O(cores), not O(buckets).
//!
//! A site is `{mailbox, state machine}`. An envelope delivered
//! to an idle site's mailbox queues the site on the runtime's **ready
//! queue** (`sdds_net::Scheduler`); a worker pops it and runs one
//! **activation**: it drains up to [`DRAIN_BUDGET`] envelopes, decodes
//! each, opens its span, hands it to the machine and sends what the
//! handler returns; a send either lands or fails because its destination
//! is gone, so nothing is kept to send again. A site is queued or running
//! at most once, so no two
//! workers ever enter it together, and one that still has envelopes
//! after its activation goes to the tail of the queue behind every other
//! ready site.
//!
//! The other half is the hand-over. Everything a worker's sites send
//! goes through one [`Scatter`]: enqueued at once, in order, but a
//! sleeping receiver — the client blocked on its 225 scan answers — is
//! woken when the worker's **round** ends, which is as soon as the ready
//! queue is empty (a lone `get` is answered at once) or after
//! [`ROUND_BUDGET`] envelopes. Clients scatter their fan-outs the same
//! way, so a scan costs a handful of context switches, not two per
//! bucket. `DESIGN.md` § "Site runtime" has the numbers.

use crate::filter::ScanMemo;
use crate::health::LoopHealth;
use crate::messages::Wire;
use sdds_net::sync::{lock, read, write};
use sdds_net::{Endpoint, Envelope, Scatter, Scheduler, SiteId};
use sdds_obs::trace::{SpanGuard, TraceContext};
use sdds_obs::{Gauge, Histogram, Registry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Most envelopes one activation of a site dispatches before the site
/// goes to the back of the ready queue.
pub(crate) const DRAIN_BUDGET: usize = 64;

/// Most envelopes a worker dispatches before it delivers the wake-ups
/// its sends owe, however long the ready queue stays non-empty: under
/// sustained load a reply waits for at most this much other work.
const ROUND_BUDGET: usize = 16 * DRAIN_BUDGET;

/// Workers beyond the one per processor: as many as can wait for the
/// disk while the others run, which is how many buckets' `fsync`s
/// overlap. A durable single-record insert writes to eight buckets (7.2
/// `fsync`s in flight at once, measured with a thread per bucket).
const DISK_WAITERS: usize = 8;

/// A site's protocol logic: pure state, driven by the runtime.
pub(crate) trait Machine: Send {
    /// One-time work in the site's first activation, before any message.
    fn start(&mut self) -> Vec<(SiteId, Wire)> {
        Vec::new()
    }

    /// Opens the span `msg` is handled under: a child of the sender's
    /// context (inert for untraced traffic). It is on the worker's span
    /// stack while [`handle`](Self::handle) runs, so inner spans and the
    /// outgoing messages — replies, forwards, transfer batches — chain
    /// under it. Spans stay per message: causality is per operation, not
    /// per activation.
    fn span(&self, site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard;

    /// Processes one message, returning the messages to send out. `memo`
    /// belongs to the worker, not to the site: it is what a bucket's scan
    /// leaves for the next bucket the same worker runs.
    fn handle(&mut self, from: SiteId, msg: Wire, memo: &mut ScanMemo) -> Vec<(SiteId, Wire)>;
}

struct Site {
    endpoint: Endpoint,
    /// Taken by the one worker running the site's activation.
    cell: Mutex<Cell>,
    queue_wait: Histogram,
    stall: Histogram,
    depth: Gauge,
}

struct Cell {
    /// `None` once a `Shutdown` with no successor has retired the site:
    /// the machine is dropped, then the mailbox closed.
    machine: Option<Box<dyn Machine>>,
    started: bool,
    /// The next incarnation of this site, spawned under its id while
    /// this one still ran: it takes the mailbox over at the `Shutdown`
    /// that ends this one, with whatever was sent after it.
    successor: Option<Box<dyn Machine>>,
}

struct Sched {
    /// Sites with envelopes (or deferred work), each at most once.
    ready: VecDeque<usize>,
    /// Workers holding a run slot: running activations, not waiting for
    /// the disk. A sleeper takes a slot only while there are fewer than
    /// `Runtime::slots`; a worker back from the disk takes one regardless,
    /// for the rest of its activation.
    running: usize,
    /// Workers without a slot, parked until there is a ready site and a
    /// free slot. The one that fell asleep last is woken first, while
    /// its stack and thread-locals are still in the cache: woken in
    /// turn, as a condvar does it, nine workers made a `get` 10 % slower
    /// than one.
    sleepers: Vec<Thread>,
    stopping: bool,
}

impl Sched {
    /// The sleeper to wake, if one has something to get up for: a free
    /// slot and a ready site.
    fn sleeper_for_work(&mut self, slots: usize) -> Option<Thread> {
        if !self.ready.is_empty() && self.running < slots {
            self.sleepers.pop()
        } else {
            None
        }
    }
}

/// Wakes the sleeper a scheduling decision picked, outside the lock.
fn wake(sleeper: Option<Thread>) {
    if let Some(sleeper) = sleeper {
        sleeper.unpark();
    }
}

/// The sites of one process and the workers that run them.
pub(crate) struct Runtime {
    sched: Mutex<Sched>,
    /// Workers that may run at once: one per available processor.
    slots: usize,
    /// Indexed by the key a site's mailbox reports; `None` once retired.
    sites: RwLock<Vec<Option<Arc<Site>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler for Runtime {
    fn schedule(&self, key: usize) {
        lock(&self.sched).ready.push_back(key);
    }

    fn wake(&self) {
        let sleeper = lock(&self.sched).sleeper_for_work(self.slots);
        wake(sleeper);
    }
}

impl Runtime {
    /// A runtime that runs one worker per available processor.
    pub(crate) fn start() -> Arc<Runtime> {
        Runtime::with_workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Tests pick how many workers run at once; nothing else may.
    /// [`DISK_WAITERS`] more are started to stand in for those waiting
    /// for the disk. They start with the first site: a process that
    /// hosts none, a client, runs no worker.
    pub(crate) fn with_workers(workers: usize) -> Arc<Runtime> {
        Arc::new(Runtime {
            sched: Mutex::new(Sched {
                ready: VecDeque::new(),
                running: 0,
                sleepers: Vec::new(),
                stopping: false,
            }),
            slots: workers.max(1),
            sites: RwLock::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Starts the workers, unless they run already or the runtime
    /// stopped.
    fn hire(self: &Arc<Self>) {
        let mut workers = lock(&self.workers);
        if !workers.is_empty() || lock(&self.sched).stopping {
            return;
        }
        workers.extend((0..self.slots + DISK_WAITERS).map(|_| {
            let runtime = Arc::clone(self);
            std::thread::spawn(move || Worker::new(runtime).run())
        }));
    }

    /// Registers a site: from here on the runtime drains `endpoint`'s
    /// mailbox into `machine`. The first activation (queued at once)
    /// runs [`Machine::start`]. `obs` receives the site's queue-wait,
    /// stall and inbox-depth metrics.
    pub(crate) fn add(
        self: &Arc<Self>,
        endpoint: Endpoint,
        machine: Box<dyn Machine>,
        obs: &Registry,
    ) {
        if lock(&self.sched).stopping {
            return; // dropping the endpoint closes its mailbox
        }
        let site = Arc::new(Site {
            endpoint,
            cell: Mutex::new(Cell {
                machine: Some(machine),
                started: false,
                successor: None,
            }),
            queue_wait: obs.histogram("lh.queue_wait_seconds"),
            stall: obs.histogram("lh.loop_stall_seconds"),
            depth: obs.gauge("lh.inbox_depth"),
        });
        let key = {
            let mut sites = write(&self.sites);
            sites.push(Some(Arc::clone(&site)));
            sites.len() - 1
        };
        self.hire();
        site.endpoint
            .attach(Arc::clone(self) as Arc<dyn Scheduler>, key);
    }

    /// Hands `machine` the mailbox of the site that runs under `id` at
    /// the `Shutdown` that ends it (see [`Cell::successor`]): how an id
    /// whose last incarnation has yet to handle its `Shutdown` — a merge
    /// victim split off again at once, a killed bucket recovered — is
    /// spawned again. The machine comes back if no site runs under `id`
    /// any more; its mailbox is closed then, and the id free.
    pub(crate) fn succeed(
        &self,
        id: SiteId,
        machine: Box<dyn Machine>,
    ) -> Result<(), Box<dyn Machine>> {
        let sites = read(&self.sites);
        let Some(site) = sites.iter().flatten().find(|s| s.endpoint.id() == id) else {
            return Err(machine);
        };
        let mut cell = lock(&site.cell);
        if cell.machine.is_none() {
            return Err(machine);
        }
        cell.successor = Some(machine);
        Ok(())
    }

    /// Stops the runtime: closes every mailbox (later sends fail
    /// `Disconnected`), lets the workers finish what is already queued,
    /// joins them and drops every site's state — storage engines
    /// included — before returning. Idempotent.
    pub(crate) fn shutdown(&self) {
        for site in read(&self.sites).iter().flatten() {
            site.endpoint.close();
        }
        let sleeper = {
            let mut sched = lock(&self.sched);
            sched.stopping = true;
            sched.sleepers.pop() // a worker that leaves wakes the next
        };
        wake(sleeper);
        let workers = std::mem::take(&mut *lock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
        // Outside the lock: a coordinator's spawner holds this runtime.
        let sites = std::mem::take(&mut *write(&self.sites));
        drop(sites);
    }

    fn site(&self, key: usize) -> Option<Arc<Site>> {
        read(&self.sites).get(key).cloned().flatten()
    }

    /// Blocks a worker without a slot until there is a ready site and a
    /// free slot, and takes the slot; `false` when the runtime stopped
    /// and nothing is left to run.
    fn acquire(&self) -> bool {
        let me = std::thread::current();
        let mut sched = lock(&self.sched);
        loop {
            if sched.running < self.slots && !sched.ready.is_empty() {
                sched.running += 1;
                return true;
            }
            if sched.stopping && sched.ready.is_empty() {
                let next = sched.sleepers.pop();
                drop(sched);
                wake(next);
                return false;
            }
            sched.sleepers.push(me.clone());
            drop(sched);
            std::thread::park();
            sched = lock(&self.sched);
            // still listed if a stale token ended the sleep
            sched.sleepers.retain(|sleeper| sleeper.id() != me.id());
        }
    }

    /// Gives a slot up — the worker's round is over, or it is about to
    /// wait for the disk — to a sleeper, if there is work for one.
    fn release(&self) {
        let sleeper = {
            let mut sched = lock(&self.sched);
            sched.running -= 1;
            sched.sleeper_for_work(self.slots)
        };
        wake(sleeper);
    }

    /// The next ready site, if any, for a worker that holds a slot;
    /// never blocks.
    fn next(&self) -> Option<usize> {
        let mut sched = lock(&self.sched);
        let key = sched.ready.pop_front()?;
        // if there is work for another worker, pass the wake-up on
        let sleeper = sched.sleeper_for_work(self.slots);
        drop(sched);
        wake(sleeper);
        Some(key)
    }

    /// A worker is about to wait for the disk inside a handler: its slot
    /// goes to a sleeper, so that the buckets behind it, and their
    /// `fsync`s, need not queue up behind this one.
    fn disk_wait_begins(&self) {
        self.release();
    }

    /// Back from the disk: the worker goes on with its activation at
    /// once, on a slot of its own if the others are taken — it holds a
    /// site whose client waits for exactly this — and ends its round
    /// after that activation, which gives the slot back.
    fn disk_wait_ends(&self) {
        lock(&self.sched).running += 1;
    }

    fn retire(&self, key: usize) {
        if let Some(slot) = write(&self.sites).get_mut(key) {
            *slot = None;
        }
    }
}

/// One worker thread's state.
struct Worker {
    runtime: Arc<Runtime>,
    /// Everything this worker's sites sent in the current round. Shared
    /// with the thread's disk-wait hook, which runs inside a handler,
    /// when the worker itself is not sending.
    scatter: Rc<RefCell<Scatter>>,
    /// Set by the disk-wait hook: the activation in progress waited for
    /// the disk, and the round ends with it.
    waited: Rc<std::cell::Cell<bool>>,
    batch: Vec<Envelope>,
    /// The scan query this worker prepared last, for the next bucket it
    /// activates: a scan sends every bucket the same bytes.
    memo: ScanMemo,
    /// Envelopes dispatched in the current round.
    dispatched: usize,
    /// The activation in progress or just finished: its start, and the
    /// site whose stall histogram takes its duration at the next clock
    /// reading (one reading per activation serves both).
    last: Option<(Instant, Arc<Site>)>,
    health: LoopHealth,
    batch_size: Histogram,
}

impl Worker {
    fn new(runtime: Arc<Runtime>) -> Worker {
        Worker {
            runtime,
            scatter: Rc::new(RefCell::new(Scatter::new())),
            waited: Rc::default(),
            batch: Vec::with_capacity(DRAIN_BUDGET),
            memo: ScanMemo::default(),
            dispatched: 0,
            last: None,
            health: LoopHealth::register(),
            batch_size: sdds_obs::histogram("lh.drain_batch_size"),
        }
    }

    fn run(mut self) {
        // A handler about to wait for the disk first delivers the
        // wake-ups the round owes so far — nobody should sleep through
        // somebody else's fsync — and lends its slot out meanwhile.
        let (runtime, scatter) = (Arc::clone(&self.runtime), Rc::clone(&self.scatter));
        let waited = Rc::clone(&self.waited);
        sdds_storage::set_disk_wait_hook(Box::new(move |begins| {
            if begins {
                scatter.borrow_mut().wake();
                runtime.disk_wait_begins();
            } else {
                runtime.disk_wait_ends();
                waited.set(true);
            }
        }));
        while self.runtime.acquire() {
            while let Some(key) = self.runtime.next() {
                self.activate(key);
                if self.waited.take() {
                    break; // the ack the disk was waited for goes out now
                }
            }
            self.end_round();
            self.runtime.release();
        }
    }

    /// Closes the previous activation's stall sample at clock reading
    /// `now`.
    fn lap(&mut self, now: Instant) {
        if let Some((since, site)) = self.last.take() {
            site.stall
                .observe_duration(now.saturating_duration_since(since));
        }
    }

    /// The round is over: wake whoever this round's sends owe.
    fn end_round(&mut self) {
        if self.last.is_some() {
            self.lap(Instant::now());
        }
        self.health.idle();
        self.scatter.borrow_mut().wake();
        if self.dispatched > 0 {
            self.batch_size.observe(self.dispatched as f64);
            self.dispatched = 0;
        }
    }

    /// One activation of site `key`: up to [`DRAIN_BUDGET`] envelopes,
    /// run to completion.
    fn activate(&mut self, key: usize) {
        let Some(site) = self.runtime.site(key) else {
            return; // retired while queued
        };
        let mut cell = lock(&site.cell);
        self.batch.clear();
        let drained = site.endpoint.drain(DRAIN_BUDGET, &mut self.batch);
        let now = Instant::now();
        self.lap(now);
        self.health.busy(now);
        self.scatter.borrow_mut().stamp(now);
        if let Some(oldest) = drained.oldest {
            site.queue_wait
                .observe_duration(now.saturating_duration_since(oldest));
        }
        site.depth.set(drained.left as i64);

        let Cell {
            machine,
            started,
            successor,
        } = &mut *cell;
        let endpoint = &site.endpoint;
        let send = |out: Vec<(SiteId, Wire)>, ctx: Option<TraceContext>| {
            let scatter = &mut self.scatter.borrow_mut();
            for (to, msg) in out {
                // fails only if the peer is gone, which it may be
                let _ = endpoint.send_with(scatter, to, msg.encode(), ctx);
            }
        };
        if !*started {
            *started = true;
            if let Some(machine) = machine {
                send(machine.start(), None);
            }
        }
        for env in self.batch.drain(..) {
            self.dispatched += 1;
            let Some(msg) = Wire::decode(&env.payload) else {
                continue;
            };
            if matches!(msg, Wire::Shutdown) {
                if let Some(next) = successor.take() {
                    send(machine.insert(next).start(), None);
                    continue;
                }
                // The machine goes first, so that whoever finds the id
                // free finds its state gone; what is still queued is
                // dropped with the site.
                *machine = None;
                endpoint.close();
                break;
            }
            let Some(machine) = machine else {
                break;
            };
            let span = machine.span(endpoint.id(), &msg, env.ctx);
            let out_ctx = span.context();
            send(machine.handle(env.from, msg, &mut self.memo), out_ctx);
        }
        let retired = machine.is_none();
        drop(cell);

        if retired {
            self.runtime.retire(key);
            return;
        }
        if site.endpoint.release() {
            self.runtime.schedule(key); // more arrived: to the tail
        }
        self.last = Some((now, site));
        if self.dispatched >= ROUND_BUDGET {
            self.end_round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sdds_net::{NetConfig, NetError, Network};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    /// What a test site does with each message.
    struct Probe<F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send>(F);

    impl<F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send> Machine for Probe<F> {
        fn span(&self, _: SiteId, _: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
            sdds_obs::trace::remote_span("bucket.msg", ctx)
        }
        fn handle(&mut self, from: SiteId, msg: Wire, _: &mut ScanMemo) -> Vec<(SiteId, Wire)> {
            (self.0)(from, msg)
        }
    }

    fn add<F>(runtime: &Arc<Runtime>, endpoint: Endpoint, f: F)
    where
        F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send + 'static,
    {
        runtime.add(endpoint, Box::new(Probe(f)), &Registry::new("runtime-test"));
    }

    /// A numbered message: `ExtentReq` is one of the smallest variants
    /// with a payload.
    fn numbered(n: u64) -> Bytes {
        let idle = false;
        Wire::ExtentReq { req_id: n, idle }.encode()
    }

    fn number(msg: &Wire) -> u64 {
        match msg {
            Wire::ExtentReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// 4 workers, 64 sites, 8 sender threads: no site is ever inside two
    /// activations at once, and each site sees each sender's messages in
    /// the order they were sent.
    #[test]
    fn sites_are_exclusive_and_per_sender_fifo_under_concurrency() {
        const SITES: usize = 64;
        const SENDERS: usize = 8;
        const PER_PAIR: u64 = if cfg!(miri) { 4 } else { 200 };
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(4);
        let handled = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let mut site_ids = Vec::new();
        for _ in 0..SITES {
            let endpoint = net.register();
            site_ids.push(endpoint.id());
            let inside = AtomicBool::new(false);
            let mut next_from = std::collections::HashMap::new();
            let (handled, violations) = (Arc::clone(&handled), Arc::clone(&violations));
            add(&runtime, endpoint, move |from, msg| {
                // ordering: SeqCst — the flag is the exclusion under test
                if inside.swap(true, Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                let expected = next_from.entry(from).or_insert(0u64);
                if number(&msg) != *expected {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                *expected += 1;
                std::thread::yield_now(); // widen the window
                inside.store(false, Ordering::SeqCst);
                handled.fetch_add(1, Ordering::SeqCst);
                Vec::new()
            });
        }
        std::thread::scope(|scope| {
            for _ in 0..SENDERS {
                let sender = net.register();
                let site_ids = &site_ids;
                scope.spawn(move || {
                    for n in 0..PER_PAIR {
                        let mut scatter = Scatter::new();
                        for &to in site_ids {
                            sender
                                .send_with(&mut scatter, to, numbered(n), None)
                                .unwrap();
                        }
                    }
                });
            }
        });
        let total = SITES * SENDERS * PER_PAIR as usize;
        let deadline = Instant::now() + Duration::from_secs(60);
        while handled.load(Ordering::SeqCst) < total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.shutdown();
        assert_eq!(handled.load(Ordering::SeqCst), total);
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    /// A site with 10 000 queued envelopes yields after `DRAIN_BUDGET`:
    /// a message to another site, sent after all of them, is handled
    /// when the busy site has got through one activation, not all 157.
    #[test]
    fn a_flooded_site_yields_after_one_drain_budget() {
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1);
        let flooded_handled = Arc::new(AtomicUsize::new(0));
        let seen_at_other = Arc::new(AtomicUsize::new(usize::MAX));
        // Hold the one worker inside a third site while the queues fill,
        // so the order of activations below is fixed.
        let gate = net.register();
        let gate_id = gate.id();
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, gate, move |_, _| {
            enter_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            Vec::new()
        });
        let flooded = net.register();
        let flooded_id = flooded.id();
        let counter = Arc::clone(&flooded_handled);
        add(&runtime, flooded, move |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        });
        let other = net.register();
        let other_id = other.id();
        let (counter, seen) = (Arc::clone(&flooded_handled), Arc::clone(&seen_at_other));
        add(&runtime, other, move |_, _| {
            seen.store(counter.load(Ordering::SeqCst), Ordering::SeqCst);
            Vec::new()
        });
        let sender = net.register();
        sender.send(gate_id, numbered(0)).unwrap();
        enter_rx.recv().unwrap();
        const FLOOD: usize = if cfg!(miri) { 5 * DRAIN_BUDGET } else { 10_000 };
        for n in 0..FLOOD {
            sender.send(flooded_id, numbered(n as u64)).unwrap();
        }
        sender.send(other_id, numbered(0)).unwrap();
        go_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while flooded_handled.load(Ordering::SeqCst) < FLOOD && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.shutdown();
        assert_eq!(flooded_handled.load(Ordering::SeqCst), FLOOD);
        assert_eq!(seen_at_other.load(Ordering::SeqCst), DRAIN_BUDGET);
    }

    /// How many prepares one scan of 64 buckets costs a runtime of
    /// `workers`. Every worker that may run is first held inside a gate
    /// site while the scan requests queue up, so that the scan is run by
    /// those workers and no others, whatever the host schedules when.
    fn prepares_of_one_scan(workers: usize) -> usize {
        use crate::bucket::{BucketCtx, BucketSite, BucketState};
        use crate::cluster::Directory;
        use crate::filter::CountingFilter;

        const BUCKETS: u64 = 64;
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(workers);
        let client = net.register();
        let filter = Arc::new(CountingFilter::default());
        let directory = Arc::new(Directory::new());
        let mut buckets = Vec::new();
        for addr in 0..BUCKETS {
            let endpoint = net.register_with_id(SiteId(addr as u32)).unwrap();
            buckets.push(endpoint.id());
            let obs = Registry::new(format!("bucket-{addr}"));
            let engine = Box::new(sdds_storage::MemEngine::new());
            let site = BucketSite {
                state: BucketState::new(addr, 6, 100, None, engine),
                ctx: BucketCtx::new(directory.clone(), filter.clone(), None, obs.clone()),
            };
            runtime.add(endpoint, Box::new(site), &obs);
        }
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let mut gates = Vec::new();
        for _ in 0..workers {
            let gate = net.register();
            let gate_id = gate.id();
            let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
            gates.push(go_tx);
            let enter_tx = enter_tx.clone();
            add(&runtime, gate, move |_, _| {
                enter_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                Vec::new()
            });
            client.send(gate_id, numbered(0)).unwrap();
        }
        for _ in 0..workers {
            enter_rx.recv().unwrap();
        }
        let scan = Wire::ScanReq {
            req_id: 1,
            query: b"WARZ".to_vec(),
            keys_only: true,
        };
        let mut scatter = Scatter::new();
        for &to in &buckets {
            client
                .send_with(&mut scatter, to, scan.encode(), None)
                .unwrap();
        }
        drop(scatter);
        for go in gates {
            go.send(()).unwrap();
        }
        for _ in 0..BUCKETS {
            let env = client.recv_timeout(Duration::from_secs(60)).unwrap();
            assert!(matches!(
                Wire::decode(&env.payload),
                Some(Wire::ScanResp { .. })
            ));
        }
        runtime.shutdown();
        filter.0.load(Ordering::SeqCst)
    }

    /// The query of a scan is prepared once per worker that runs any of
    /// its buckets, not once per bucket.
    #[test]
    fn a_scan_costs_one_prepare_per_worker_not_per_bucket() {
        assert_eq!(prepares_of_one_scan(1), 1);
        let prepares = prepares_of_one_scan(4);
        assert!(
            (1..=4).contains(&prepares),
            "{prepares} prepares, 4 workers"
        );
    }

    /// One worker, a site whose handler waits for an `fsync`, and a
    /// flooded neighbour queued behind it, which takes the slot over
    /// meanwhile: back from the disk the site goes on at once and its
    /// reply leaves with that activation, not when the flood has drained.
    #[test]
    #[cfg_attr(miri, ignore)] // a real file and a real fsync
    fn a_site_back_from_the_disk_does_not_wait_for_a_flooded_neighbour() {
        use sdds_storage::{DiskEngine, DiskOptions, FsyncPolicy, StorageEngine};
        const FLOOD: usize = 2_000;
        let dir = std::env::temp_dir().join(format!("sdds-lh-diskwait-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DiskOptions {
            fsync: FsyncPolicy::Always,
            ..DiskOptions::default()
        };
        let mut engine = DiskEngine::open(&dir, options).unwrap();

        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1);
        let client = net.register();
        // Hold the one slot inside a third site while the queues fill.
        let gate = net.register();
        let gate_id = gate.id();
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, gate, move |_, _| {
            enter_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            Vec::new()
        });
        let durable = net.register();
        let durable_id = durable.id();
        add(&runtime, durable, move |from, msg| {
            engine.put(number(&msg), b"synced").unwrap();
            vec![(from, msg)]
        });
        let flooded = net.register();
        let flooded_id = flooded.id();
        let flooded_handled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&flooded_handled);
        add(&runtime, flooded, move |_, _| {
            std::thread::sleep(Duration::from_micros(100));
            counter.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        });
        client.send(gate_id, numbered(0)).unwrap();
        enter_rx.recv().unwrap();
        client.send(durable_id, numbered(1)).unwrap();
        for n in 0..FLOOD {
            client.send(flooded_id, numbered(n as u64)).unwrap();
        }
        go_tx.send(()).unwrap();
        let reply = client.recv_timeout(Duration::from_secs(60)).unwrap();
        let handled_by_then = flooded_handled.load(Ordering::SeqCst);
        assert_eq!(reply.from, durable_id);
        assert!(
            handled_by_then < FLOOD,
            "the reply waited for the whole flood"
        );
        runtime.shutdown();
        assert_eq!(flooded_handled.load(Ordering::SeqCst), FLOOD);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A site spawned under the id of one that has yet to handle its
    /// `Shutdown` takes the mailbox over there: what was sent before the
    /// `Shutdown` reaches the old incarnation, what after it the new one.
    /// One with no successor frees the id at its `Shutdown`.
    #[test]
    fn a_successor_takes_the_mailbox_over_at_the_shutdown() {
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1);
        let client = net.register();
        let to_client = client.id();
        let echo = move |plus: u64| {
            move |_: SiteId, msg: Wire| {
                let req_id = plus + number(&msg);
                let idle = false;
                vec![(to_client, Wire::ExtentReq { req_id, idle })]
            }
        };
        // Hold the one worker while the id's traffic queues up.
        let gate = net.register();
        let gate_id = gate.id();
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, gate, move |_, _| {
            enter_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            Vec::new()
        });
        client.send(gate_id, numbered(0)).unwrap();
        enter_rx.recv().unwrap();
        let id = SiteId(5);
        add(&runtime, net.register_with_id(id).unwrap(), echo(0));
        client.send(id, numbered(1)).unwrap();
        client.send(id, Wire::Shutdown.encode()).unwrap();
        assert!(net.register_with_id(id).is_none(), "the old one holds it");
        assert!(runtime.succeed(id, Box::new(Probe(echo(100)))).is_ok());
        client.send(id, numbered(2)).unwrap();
        go_tx.send(()).unwrap();
        let mut answers = (0..2).map(|_| {
            let env = client.recv_timeout(Duration::from_secs(10)).unwrap();
            number(&Wire::decode(&env.payload).unwrap())
        });
        assert_eq!((answers.next(), answers.next()), (Some(1), Some(102)));
        client.send(id, Wire::Shutdown.encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.send(id, numbered(3)) != Err(NetError::Disconnected(id)) {
            assert!(Instant::now() < deadline, "never retired");
            std::thread::yield_now();
        }
        assert!(runtime.succeed(id, Box::new(Probe(echo(0)))).is_err());
        assert!(
            net.register_with_id(id).is_some(),
            "a tombstone registers again"
        );
        runtime.shutdown();
    }

    /// `Wire::Shutdown` retires one site: its state is dropped and later
    /// sends to it fail; its neighbours keep running until `shutdown`,
    /// which drops theirs.
    #[test]
    fn shutdown_message_retires_one_site_and_shutdown_drops_the_rest() {
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(2);
        let client = net.register();
        let mut ids = Vec::new();
        let mut dropped = Vec::new();
        for _ in 0..2 {
            let endpoint = net.register();
            ids.push(endpoint.id());
            let flag = Arc::new(AtomicBool::new(false));
            dropped.push(Arc::clone(&flag));
            let flag = Flag(flag);
            let to_client = client.id();
            add(&runtime, endpoint, move |_, msg| {
                let _keep = &flag;
                vec![(to_client, msg)]
            });
        }
        client.send(ids[0], Wire::Shutdown.encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.send(ids[0], numbered(1)) != Err(NetError::Disconnected(ids[0])) {
            assert!(Instant::now() < deadline, "site 0 never retired");
            std::thread::yield_now();
        }
        assert!(dropped[0].load(Ordering::SeqCst), "retired state dropped");
        assert!(!dropped[1].load(Ordering::SeqCst));
        client.send(ids[1], numbered(2)).unwrap();
        let env = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.from, ids[1]);
        runtime.shutdown();
        assert!(
            dropped[1].load(Ordering::SeqCst),
            "shutdown drops every site"
        );
        assert_eq!(
            client.send(ids[1], numbered(3)),
            Err(NetError::Disconnected(ids[1]))
        );
    }
}
