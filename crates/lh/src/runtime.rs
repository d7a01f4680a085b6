//! The site runtime: every shard, parity site and coordinator of a
//! process as a state machine behind a mailbox, run by a fixed set of
//! worker threads — threads are O(cores), not O(buckets) — and by the
//! process's clients while they wait. A shard's buckets are data in its
//! machine ([`crate::shard`]), not sites.
//!
//! A site is `{mailbox, state machine}`. An envelope delivered
//! to an idle site's mailbox queues the site on the runtime's **ready
//! queue** (`sdds_net::Scheduler`); a thread pops it and runs one
//! **activation**: it drains up to [`DRAIN_BUDGET`] envelopes, decodes
//! each, opens its span, hands it to the machine and sends what the
//! handler returns; a send either lands or fails because its destination
//! is gone, so nothing is kept to send again. A site is queued or running
//! at most once, so no two threads ever enter it together, and one that
//! still has envelopes after its activation goes to the tail of the
//! queue behind every other ready site.
//!
//! Two kinds of thread run activations, each with a [`Runner`]: the
//! workers, and a client of the process about to block for a reply
//! ([`Runner::help`]), which runs ready sites until the queue is empty
//! or a round leaves an envelope in its own mailbox. An in-process `get`
//! is so answered on the client's thread, with no thread hand-over.
//!
//! The other half is the hand-over. Everything a runner's sites send
//! goes through one [`Scatter`]: enqueued at once, in order, but a
//! sleeping receiver — the client blocked on its 225 scan answers — is
//! woken when the runner's **round** ends, which is as soon as the ready
//! queue is empty or after [`ROUND_BUDGET`] envelopes. Clients scatter
//! their fan-outs the same way and deliver the wake-ups only after they
//! helped, so a scan costs a handful of context switches, not two per
//! bucket. `DESIGN.md` § "Site runtime" has the numbers.
//!
//! Over durable buckets the round is also the commit group of their
//! host's log ([`HostLog`]): from the first handler that leaves the log
//! dirty on, the round's sends are held, and it ends with one `fsync` for
//! every bucket it wrote to, then sends them (DESIGN.md §10).

use crate::filter::ScanMemo;
use crate::health::LoopHealth;
use crate::messages::Wire;
use bytes::Bytes;
use sdds_net::sync::{lock, read, wait, write};
use sdds_net::{Endpoint, Envelope, Scatter, Scheduler, SiteId};
use sdds_obs::trace::{SpanGuard, TraceContext};
use sdds_obs::{Gauge, Histogram};
use sdds_storage::HostLog;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Most envelopes one activation of a site dispatches before the site
/// goes to the back of the ready queue.
pub(crate) const DRAIN_BUDGET: usize = 64;

/// Most envelopes a runner dispatches before it delivers the wake-ups
/// its sends owe (and commits the host log), however long the ready
/// queue stays non-empty: under sustained load a reply waits for at most
/// this much other work.
const ROUND_BUDGET: usize = 16 * DRAIN_BUDGET;

/// Messages to send, each with its destination.
pub(crate) type Sends = Vec<(SiteId, Wire)>;

/// Shards a runtime of `workers` workers runs: the worker count rounded
/// down to a power of two, so that a split, which adds `2^i` to an
/// address, stays inside its shard once `2^i` is past the shard count.
pub(crate) fn shards_for(workers: usize) -> usize {
    1 << workers.max(1).ilog2()
}

/// Workers a runtime runs: one per processor this process may use.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A site's protocol logic: pure state, driven by the runtime. A machine
/// answers for every id its mailbox receives: what it returns for an
/// envelope leaves from the envelope's `to`.
pub(crate) trait Machine: Send {
    /// Opens the span `msg`, addressed to `site`, is handled under: a
    /// child of the sender's context (inert for untraced traffic). It is
    /// on the runner's span stack while [`handle`](Self::handle) runs, so
    /// inner spans and the outgoing messages — replies, forwards, transfer
    /// batches — chain under it. Spans stay per message: causality is per
    /// operation, not per activation.
    fn span(&self, site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard;

    /// Processes one message from `from` to `to`, returning the messages
    /// to send out. `memo` belongs to the runner, not to the site: it is
    /// what a bucket's scan leaves for the next bucket the same thread
    /// runs.
    fn handle(&mut self, from: SiteId, to: SiteId, msg: Wire, memo: &mut ScanMemo) -> Sends;
}

struct Site {
    endpoint: Endpoint,
    /// Taken by the one thread running the site's activation.
    machine: Mutex<Box<dyn Machine>>,
    queue_wait: Histogram,
    stall: Histogram,
    depth: Gauge,
}

struct Sched {
    /// Sites with envelopes (or deferred work), each at most once.
    ready: VecDeque<usize>,
    /// Workers parked until there is a ready site. The one that fell
    /// asleep last is woken first, while its stack and thread-locals are
    /// still in the cache: woken in turn, as a condvar does it, nine
    /// workers made a `get` 10 % slower than one.
    sleepers: Vec<Thread>,
    /// Clients inside [`Runner::help`].
    helpers: usize,
    stopping: bool,
}

impl Sched {
    /// The sleeper to wake, if one has something to get up for and
    /// fewer threads than `slots`, the processors, run activations: the
    /// workers not asleep and the helping clients. With one processor a
    /// worker woken beside a helper would only take turns with it.
    fn sleeper_for_work(&mut self, slots: usize) -> Option<Thread> {
        self.ready.front()?;
        let running = slots.saturating_sub(self.sleepers.len()) + self.helpers;
        if running >= slots {
            return None;
        }
        self.sleepers.pop()
    }
}

/// Wakes the sleeper a scheduling decision picked, outside the lock.
fn wake(sleeper: Option<Thread>) {
    if let Some(sleeper) = sleeper {
        sleeper.unpark();
    }
}

/// A send a round holds until the host log is committed: the site, the
/// id it sends as, to, what.
type Held = (Arc<Site>, SiteId, SiteId, Bytes, Option<TraceContext>);

/// The sites of one process and the workers that run them.
pub(crate) struct Runtime {
    sched: Mutex<Sched>,
    /// Workers: one per available processor.
    slots: usize,
    /// Indexed by the key a site's mailbox reports.
    sites: RwLock<Vec<Arc<Site>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The log of the host's durable buckets, if they are.
    log: Option<Arc<HostLog>>,
    /// Sends held for the log's commit, in order: one queue for all
    /// runners, so a site's sends keep their order whoever commits.
    held: Mutex<Vec<Held>>,
    /// Notified when the last helper leaves a stopping runtime.
    helped: Condvar,
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
    /// A runtime of `workers` workers over its buckets' log: [`workers()`]
    /// of them, or as many as a test picks; nothing else sets the count.
    /// They start with the first site: a process that hosts none, a
    /// client, runs no worker.
    pub(crate) fn with_workers(workers: usize, log: Option<Arc<HostLog>>) -> Arc<Runtime> {
        Arc::new(Runtime {
            sched: Mutex::new(Sched {
                ready: VecDeque::new(),
                sleepers: Vec::new(),
                helpers: 0,
                stopping: false,
            }),
            slots: workers.max(1),
            sites: RwLock::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            log,
            held: Mutex::new(Vec::new()),
            helped: Condvar::new(),
        })
    }

    /// Starts the workers, unless they run already or the runtime
    /// stopped.
    fn hire(self: &Arc<Self>) {
        let mut workers = lock(&self.workers);
        if !workers.is_empty() || lock(&self.sched).stopping {
            return;
        }
        workers.extend((0..self.slots).map(|_| {
            let runtime = Arc::clone(self);
            std::thread::spawn(move || Runner::new(runtime).work())
        }));
    }

    /// Registers a site: from here on the runtime drains `endpoint`'s
    /// mailbox into `machine`. The site's queue-wait, stall and
    /// inbox-depth metrics go to the global registry.
    pub(crate) fn add(self: &Arc<Self>, endpoint: Endpoint, machine: Box<dyn Machine>) {
        if lock(&self.sched).stopping {
            return; // dropping the endpoint closes its mailbox
        }
        let site = Arc::new(Site {
            endpoint,
            machine: Mutex::new(machine),
            queue_wait: sdds_obs::histogram("lh.queue_wait_seconds"),
            stall: sdds_obs::histogram("lh.loop_stall_seconds"),
            depth: sdds_obs::gauge("lh.inbox_depth"),
        });
        let key = {
            let mut sites = write(&self.sites);
            sites.push(Arc::clone(&site));
            sites.len() - 1
        };
        self.hire();
        site.endpoint
            .attach(Arc::clone(self) as Arc<dyn Scheduler>, key);
    }

    /// Stops the runtime: closes every mailbox (later sends fail
    /// `Disconnected`), lets the workers finish what is already queued,
    /// joins them, waits for the activations helping clients run, and
    /// drops every site's state — storage engines included — before
    /// returning. Idempotent.
    pub(crate) fn shutdown(&self) {
        for site in read(&self.sites).iter() {
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
        // the activations helpers run; they pop nothing after `stopping`
        let mut sched = lock(&self.sched);
        while sched.helpers > 0 {
            sched = wait(&self.helped, sched);
        }
        drop(sched);
        // Outside the lock: a coordinator's spawner holds this runtime.
        let sites = std::mem::take(&mut *write(&self.sites));
        drop(sites);
    }

    fn site(&self, key: usize) -> Option<Arc<Site>> {
        read(&self.sites).get(key).cloned()
    }

    /// Blocks a worker until there is a ready site; `false` when the
    /// runtime stopped and nothing is left to run.
    fn acquire(&self) -> bool {
        let me = std::thread::current();
        let mut sched = lock(&self.sched);
        loop {
            if !sched.ready.is_empty() {
                return true;
            }
            if sched.stopping {
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

    /// The next ready site, if any; never blocks. A worker drains the
    /// queue after the runtime stopped, a helper takes nothing then.
    fn next(&self, helping: bool) -> Option<usize> {
        let mut sched = lock(&self.sched);
        if helping && sched.stopping {
            return None;
        }
        let key = sched.ready.pop_front()?;
        // if there is work for another worker, pass the wake-up on
        let sleeper = sched.sleeper_for_work(self.slots);
        drop(sched);
        wake(sleeper);
        Some(key)
    }

    /// A client starts helping, if there is a ready site and the runtime
    /// is not stopping.
    fn enter(&self) -> Option<Helping<'_>> {
        let mut sched = lock(&self.sched);
        if sched.stopping || sched.ready.is_empty() {
            return None;
        }
        sched.helpers += 1;
        Some(Helping(self))
    }
}

/// A client inside [`Runner::help`]. Dropped, even by a panic, it leaves:
/// a worker is woken for what the client left in the queue, and
/// `shutdown` once the last helper of a stopping runtime is gone.
struct Helping<'a>(&'a Runtime);

impl Drop for Helping<'_> {
    fn drop(&mut self) {
        let runtime = self.0;
        let mut sched = lock(&runtime.sched);
        sched.helpers -= 1;
        let sleeper = sched.sleeper_for_work(runtime.slots);
        let last = sched.stopping && sched.helpers == 0;
        drop(sched);
        if last {
            runtime.helped.notify_all();
        }
        wake(sleeper);
    }
}

/// What one thread needs to run activations, round after round: a
/// worker's, or that of a client waiting for a reply ([`help`]).
///
/// [`help`]: Runner::help
pub(crate) struct Runner {
    runtime: Arc<Runtime>,
    /// Everything this thread's activations sent in the current round.
    scatter: Scatter,
    batch: Vec<Envelope>,
    /// The scan query this thread prepared last, for the next bucket it
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

impl Runner {
    pub(crate) fn new(runtime: Arc<Runtime>) -> Runner {
        Runner {
            runtime,
            scatter: Scatter::new(),
            batch: Vec::with_capacity(DRAIN_BUDGET),
            memo: ScanMemo::default(),
            dispatched: 0,
            last: None,
            health: LoopHealth::register(),
            batch_size: sdds_obs::histogram("lh.drain_batch_size"),
        }
    }

    /// A worker thread's life: rounds until the runtime stops.
    fn work(mut self) {
        while self.runtime.acquire() {
            self.rounds(None);
        }
    }

    /// Runs the ready activations of the runtime on the calling thread,
    /// the client that owns `waiter`, which is about to block for
    /// `awaited` replies: until the ready queue is empty, or until the end
    /// of a round leaves an envelope in `waiter`'s mailbox. Takes nothing
    /// once the runtime is stopping; [`Runtime::shutdown`] waits for an
    /// activation already running.
    ///
    /// A client that awaits more replies than one round dispatches (a
    /// bulk batch) runs nothing: its round would end with the rest of
    /// its wave still queued, for a worker to take over, and the two
    /// would take turns on the processor — bulk loads measured ~15 %
    /// slower that way, on one pinned processor of a 2-vCPU x86-64 VM.
    pub(crate) fn help(&mut self, waiter: &Endpoint, awaited: usize) {
        if awaited > ROUND_BUDGET {
            return;
        }
        let runtime = Arc::clone(&self.runtime);
        let Some(_helping) = runtime.enter() else {
            return;
        };
        self.rounds(Some(waiter));
    }

    /// Runs ready sites until the queue is empty, and ends a round at
    /// every [`ROUND_BUDGET`] envelopes and at the end. A helper, the
    /// owner of `waiter`, stops at a round end that leaves an envelope
    /// in its mailbox.
    fn rounds(&mut self, waiter: Option<&Endpoint>) {
        while let Some(key) = self.runtime.next(waiter.is_some()) {
            self.activate(key);
            if self.dispatched >= ROUND_BUDGET {
                self.end_round();
                if waiter.is_some_and(|ep| ep.inbox_depth() > 0) {
                    return;
                }
            }
        }
        self.end_round();
    }

    /// Closes the previous activation's stall sample at clock reading
    /// `now`.
    fn lap(&mut self, now: Instant) {
        if let Some((since, site)) = self.last.take() {
            site.stall
                .observe_duration(now.saturating_duration_since(since));
        }
    }

    /// The round is over: commit the host log if it is dirty, send what
    /// waited for that, and wake whoever this round's sends owe.
    fn end_round(&mut self) {
        if self.last.is_some() {
            self.lap(Instant::now());
        }
        self.health.idle();
        if let Some(log) = &self.runtime.log {
            let mut held = lock(&self.runtime.held);
            if log.dirty() || !held.is_empty() {
                let sends = std::mem::take(&mut *held);
                // A failed commit closes the log and releases nothing:
                // what it staged stays uncommitted, so every later round
                // holds its sends and drops them too (DESIGN.md §10).
                if log.commit().is_ok() {
                    for (site, from, to, payload, ctx) in sends {
                        // fails only if the peer is gone, which it may be
                        let scatter = &mut self.scatter;
                        let _ = site.endpoint.send_as(scatter, from, to, payload, ctx);
                    }
                }
            }
        }
        self.scatter.wake();
        if self.dispatched > 0 {
            self.batch_size.observe(self.dispatched as f64);
            self.dispatched = 0;
        }
    }

    /// One activation of site `key`: up to [`DRAIN_BUDGET`] envelopes,
    /// run to completion.
    fn activate(&mut self, key: usize) {
        let Some(site) = self.runtime.site(key) else {
            return;
        };
        let mut machine = lock(&site.machine);
        self.batch.clear();
        let drained = site.endpoint.drain(DRAIN_BUDGET, &mut self.batch);
        let now = Instant::now();
        self.lap(now);
        self.health.busy(now);
        self.scatter.stamp(now);
        if let Some(oldest) = drained.oldest {
            site.queue_wait
                .observe_duration(now.saturating_duration_since(oldest));
        }
        site.depth.set(drained.left as i64);

        for env in self.batch.drain(..) {
            self.dispatched += 1;
            let Some(msg) = Wire::decode(&env.payload) else {
                continue;
            };
            let span = machine.span(env.to, &msg, env.ctx);
            let ctx = span.context();
            let out = machine.handle(env.from, env.to, msg, &mut self.memo);
            let runtime = &self.runtime;
            match runtime.log.as_ref().map(|log| (log, lock(&runtime.held))) {
                // once the log is dirty, sends wait for its commit
                Some((log, mut held)) if log.dirty() || !held.is_empty() => {
                    let hold = |(to, msg): (SiteId, Wire)| {
                        (Arc::clone(&site), env.to, to, msg.encode(), ctx)
                    };
                    held.extend(out.into_iter().map(hold));
                }
                _ => {
                    for (to, msg) in out {
                        // fails only if the peer is gone, which it may be
                        let scatter = &mut self.scatter;
                        let _ = site
                            .endpoint
                            .send_as(scatter, env.to, to, msg.encode(), ctx);
                    }
                }
            }
        }
        drop(machine);

        if site.endpoint.release() {
            self.runtime.schedule(key); // more arrived: to the tail
        }
        self.last = Some((now, site));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sdds_net::{NetConfig, Network};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    /// What a test site does with each message.
    struct Probe<F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send>(F);

    impl<F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send> Machine for Probe<F> {
        fn span(&self, _: SiteId, _: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
            sdds_obs::trace::remote_span("bucket.msg", ctx)
        }
        fn handle(&mut self, from: SiteId, _: SiteId, msg: Wire, _: &mut ScanMemo) -> Sends {
            (self.0)(from, msg)
        }
    }

    fn add<F>(runtime: &Arc<Runtime>, endpoint: Endpoint, f: F)
    where
        F: FnMut(SiteId, Wire) -> Vec<(SiteId, Wire)> + Send + 'static,
    {
        runtime.add(endpoint, Box::new(Probe(f)));
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

    /// 4 workers, 64 sites, 8 sender threads, half of which run ready
    /// activations themselves after each fan-out, as a waiting client
    /// does: no site is ever inside two activations at once, and each
    /// site sees each sender's messages in the order they were sent.
    #[test]
    fn sites_are_exclusive_and_per_sender_fifo_under_concurrency() {
        const SITES: usize = 64;
        const SENDERS: usize = 8;
        const PER_PAIR: u64 = if cfg!(miri) { 4 } else { 200 };
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(4, None);
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
            for helps in (0..SENDERS).map(|i| i % 2 == 0) {
                let sender = net.register();
                let site_ids = &site_ids;
                let mut helper = helps.then(|| Runner::new(Arc::clone(&runtime)));
                scope.spawn(move || {
                    for n in 0..PER_PAIR {
                        let mut scatter = Scatter::new();
                        for &to in site_ids {
                            sender
                                .send_with(&mut scatter, to, numbered(n), None)
                                .unwrap();
                        }
                        if let Some(helper) = &mut helper {
                            helper.help(&sender, SITES);
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
        let runtime = Runtime::with_workers(1, None);
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

    /// How many prepares one scan of 64 buckets, in `shards` shards,
    /// costs a runtime of `workers`, whose client runs ready activations
    /// too when it `helps`. Every worker that may run is first held
    /// inside a gate site while the scan requests queue up, so that the
    /// scan is run by those workers and the client and no others,
    /// whatever the host schedules when.
    fn prepares_of_one_scan(workers: usize, shards: usize, helps: bool) -> usize {
        use crate::cluster::Directory;
        use crate::filter::CountingFilter;
        use crate::shard::{BucketKit, Shard};

        const BUCKETS: u64 = 64;
        let (net, endpoints) = Network::sharded(shards, NetConfig::default());
        let runtime = Runtime::with_workers(workers, None);
        let client = net.register();
        let filter = Arc::new(CountingFilter::default());
        let kit = BucketKit {
            directory: Arc::new(Directory::new()),
            filter: filter.clone(),
            parity: None,
            capacity: 100,
            log: None,
        };
        let mut machines: Vec<Shard> = endpoints.iter().map(|_| Shard::new(kit.clone())).collect();
        let buckets: Vec<SiteId> = (0..BUCKETS).map(|addr| SiteId(addr as u32)).collect();
        for addr in 0..BUCKETS {
            let engine = Box::new(sdds_storage::MemEngine::new());
            machines[addr as usize % shards].insert(addr, kit.bucket(addr, 6, Some(engine)));
        }
        for (endpoint, shard) in endpoints.into_iter().zip(machines) {
            runtime.add(endpoint, Box::new(shard));
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
        for go in gates {
            go.send(()).unwrap();
        }
        if helps {
            Runner::new(Arc::clone(&runtime)).help(&client, BUCKETS as usize);
        }
        drop(scatter);
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

    /// The query of a scan is prepared once per thread that runs any of
    /// its buckets, a worker or a client that helps, not once per bucket.
    #[test]
    fn a_scan_costs_one_prepare_per_thread_not_per_bucket() {
        assert_eq!(prepares_of_one_scan(1, 1, false), 1);
        let prepares = prepares_of_one_scan(4, 4, false);
        assert!(
            (1..=4).contains(&prepares),
            "{prepares} prepares, 4 workers"
        );
        let prepares = prepares_of_one_scan(2, 2, true);
        assert!(
            (1..=3).contains(&prepares),
            "{prepares} prepares, 2 workers and a client"
        );
    }

    /// Acked ⇒ synced. One worker, a durable site on a real host log
    /// under `FsyncPolicy::Always`, and a flooded in-memory neighbour
    /// queued behind it: when the client receives each reply, the log's
    /// synced count already covers the write the reply answers, and the
    /// replies leave when the round ends, after at most `ROUND_BUDGET`
    /// envelopes of the flood, not after all of it.
    ///
    /// Both checks are counts, not clocks. The round that runs the writes
    /// dispatches the gate's envelope, the three writes and then the
    /// flood in activations of `DRAIN_BUDGET`, and ends at the first
    /// activation end past `ROUND_BUDGET` envelopes: after exactly
    /// `ROUND_BUDGET` of the flood. The flood's handler stops the worker
    /// at the envelope after those until the client has its replies, so
    /// a reply held any longer would never come. Do not weaken this into
    /// a wall-clock check.
    #[test]
    #[cfg_attr(miri, ignore)] // a real file and a real fsync
    fn a_reply_leaves_after_its_write_is_synced_and_within_one_round() {
        use sdds_storage::{DiskOptions, FsyncPolicy, StorageEngine};
        const WRITES: u64 = 3;
        const FLOOD: usize = 4 * ROUND_BUDGET;
        let dir = std::env::temp_dir().join(format!("sdds-lh-acked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DiskOptions {
            fsync: FsyncPolicy::Always,
            ..DiskOptions::default()
        };
        let (log, _) = sdds_storage::HostLog::open(&dir, options).unwrap();
        let mut engine = log.engine(0);

        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1, Some(Arc::clone(&log)));
        let client = net.register();
        // Hold the one worker inside a third site while the queues fill.
        let gate = net.register();
        let gate_id = gate.id();
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, gate, move |_, _| {
            enter_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            Vec::new()
        });
        // Each reply carries how many writes the log had staged once this
        // one was.
        let durable = net.register();
        let durable_id = durable.id();
        let staged = Arc::clone(&log);
        add(&runtime, durable, move |from, msg| {
            engine.put(number(&msg), b"synced").unwrap();
            let (req_id, idle) = (staged.staged(), false);
            vec![(from, Wire::ExtentReq { req_id, idle })]
        });
        let flooded = net.register();
        let flooded_id = flooded.id();
        let flooded_handled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&flooded_handled);
        let (replied_tx, replied_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, flooded, move |_, _| {
            if counter.load(Ordering::SeqCst) == ROUND_BUDGET {
                replied_rx.recv().unwrap();
            }
            counter.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        });
        client.send(gate_id, numbered(0)).unwrap();
        enter_rx.recv().unwrap();
        for n in 0..WRITES {
            client.send(durable_id, numbered(n)).unwrap();
        }
        for n in 0..FLOOD {
            client.send(flooded_id, numbered(n as u64)).unwrap();
        }
        go_tx.send(()).unwrap();
        // The client polls rather than sleeps until it is woken: a reply
        // must not even sit in its mailbox before its write is synced.
        let deadline = Instant::now() + Duration::from_secs(60);
        for _ in 0..WRITES {
            let reply = loop {
                match client.try_recv() {
                    Ok(env) => break env,
                    Err(_) => assert!(Instant::now() < deadline, "no reply"),
                }
                std::thread::yield_now();
            };
            assert_eq!(reply.from, durable_id);
            let staged = number(&Wire::decode(&reply.payload).unwrap());
            assert!(
                log.synced() >= staged,
                "a reply left before its write was synced: {} < {staged}",
                log.synced()
            );
        }
        let handled_by_then = flooded_handled.load(Ordering::SeqCst);
        assert!(
            handled_by_then <= ROUND_BUDGET,
            "the replies waited for {handled_by_then} envelopes of the flood"
        );
        replied_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while flooded_handled.load(Ordering::SeqCst) < FLOOD && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.shutdown();
        assert_eq!(flooded_handled.load(Ordering::SeqCst), FLOOD);
        assert_eq!(log.synced(), WRITES, "one round, one commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Acked ⇒ synced when the client runs the write itself. The one
    /// worker is held in a gate site, so the client's helper runs the
    /// writes of a durable site on a real host log under
    /// `FsyncPolicy::Always`, then a flooded neighbour. The flood's
    /// handler, on the helper's thread, counts every time it finds a
    /// reply in the client's mailbox before the log synced the writes;
    /// the helper stops at the end of its first round, `ROUND_BUDGET`
    /// envelopes of the flood in, with every reply in the mailbox and
    /// covered by `log.synced()`. Counts, not clocks.
    #[test]
    #[cfg_attr(miri, ignore)] // a real file and a real fsync
    fn a_reply_to_a_write_the_client_ran_leaves_after_its_sync() {
        use sdds_storage::{DiskOptions, FsyncPolicy, StorageEngine};
        const WRITES: u64 = 3;
        const FLOOD: usize = 2 * ROUND_BUDGET;
        let dir = std::env::temp_dir().join(format!("sdds-lh-helped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DiskOptions {
            fsync: FsyncPolicy::Always,
            ..DiskOptions::default()
        };
        let (log, _) = sdds_storage::HostLog::open(&dir, options).unwrap();
        let mut engine = log.engine(0);

        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1, Some(Arc::clone(&log)));
        let client = Arc::new(net.register());
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
        let staged = Arc::clone(&log);
        add(&runtime, durable, move |from, msg| {
            engine.put(number(&msg), b"synced").unwrap();
            let (req_id, idle) = (staged.staged(), false);
            vec![(from, Wire::ExtentReq { req_id, idle })]
        });
        let flooded = net.register();
        let flooded_id = flooded.id();
        let (handled, early) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (mailbox, synced) = (Arc::clone(&client), Arc::clone(&log));
        let (counter, too_early) = (Arc::clone(&handled), Arc::clone(&early));
        add(&runtime, flooded, move |_, _| {
            if mailbox.inbox_depth() > 0 && synced.synced() < WRITES {
                too_early.fetch_add(1, Ordering::SeqCst);
            }
            counter.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        });
        client.send(gate_id, numbered(0)).unwrap();
        enter_rx.recv().unwrap();
        for n in 0..WRITES {
            client.send(durable_id, numbered(n)).unwrap();
        }
        for n in 0..FLOOD {
            client.send(flooded_id, numbered(n as u64)).unwrap();
        }
        Runner::new(Arc::clone(&runtime)).help(&client, WRITES as usize);
        assert_eq!(
            early.load(Ordering::SeqCst),
            0,
            "a reply reached the mailbox before its write was synced"
        );
        assert_eq!(handled.load(Ordering::SeqCst), ROUND_BUDGET, "one round");
        assert_eq!(client.inbox_depth(), WRITES as usize);
        for _ in 0..WRITES {
            let reply = client.try_recv().unwrap();
            assert_eq!(reply.from, durable_id);
            let staged = number(&Wire::decode(&reply.payload).unwrap());
            assert!(log.synced() >= staged, "{} < {staged}", log.synced());
        }
        go_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while handled.load(Ordering::SeqCst) < FLOOD && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.shutdown();
        assert_eq!(handled.load(Ordering::SeqCst), FLOOD);
        assert_eq!(log.synced(), WRITES, "one round, one commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With one worker, asleep, a client's fan-out is run by the client
    /// alone: no pop of its helper wakes the worker beside it. The helper
    /// stops at the end of its first round, with a reply in its mailbox
    /// and one envelope of the fan-out still queued; leaving, it wakes
    /// the worker for that one, although the fan-out's own wake-ups are
    /// not delivered until the end.
    #[test]
    fn a_helper_runs_alone_and_wakes_a_worker_for_what_it_leaves() {
        const SITES: usize = ROUND_BUDGET / DRAIN_BUDGET;
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1, None);
        let client = net.register();
        let to_client = client.id();
        let echo = net.register();
        let echo_id = echo.id();
        add(&runtime, echo, move |_, msg| vec![(to_client, msg)]);
        let helper_thread = std::thread::current().id();
        let beside = Arc::new(AtomicUsize::new(0));
        let (left_tx, left_rx) = std::sync::mpsc::channel::<()>();
        let mut fanned = Vec::new();
        for _ in 0..SITES {
            let site = net.register();
            fanned.push(site.id());
            let (counter, left_tx) = (Arc::clone(&beside), left_tx.clone());
            add(&runtime, site, move |_, msg| {
                if number(&msg) == DRAIN_BUDGET as u64 {
                    left_tx.send(()).unwrap();
                } else if std::thread::current().id() != helper_thread {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                Vec::new()
            });
        }
        while lock(&runtime.sched).sleepers.is_empty() {
            std::thread::yield_now(); // until the sites started
        }
        let mut scatter = Scatter::new();
        let mut send = |to, n| client.send_with(&mut scatter, to, numbered(n), None);
        send(echo_id, 0).unwrap();
        for &to in &fanned {
            for n in 0..DRAIN_BUDGET as u64 {
                send(to, n).unwrap();
            }
        }
        send(fanned[SITES - 1], DRAIN_BUDGET as u64).unwrap();
        Runner::new(Arc::clone(&runtime)).help(&client, 1);
        assert_eq!(beside.load(Ordering::SeqCst), 0, "a worker ran beside");
        assert_eq!(client.inbox_depth(), 1, "one round, then the reply");
        let left = left_rx.recv_timeout(Duration::from_secs(10));
        assert!(left.is_ok(), "what the helper left was never run");
        drop(scatter);
        runtime.shutdown();
    }

    /// `shutdown` while another thread helps in a loop: it waits for the
    /// activation that thread is running, the helper takes nothing more,
    /// and every site's state is dropped before `shutdown` returns. The
    /// activation is held until `shutdown` has had 100 ms to return
    /// early; the wait only gives a wrong `shutdown` its chance to show.
    #[test]
    fn shutdown_waits_for_a_helping_client_and_drops_every_site() {
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        const HELD_AT: u64 = if cfg!(miri) { 4 } else { 100 };
        let net = Network::new(NetConfig::default());
        let runtime = Runtime::with_workers(1, None);
        let site = net.register();
        let id = site.id();
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = Flag(Arc::clone(&dropped));
        let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        add(&runtime, site, move |_, msg| {
            let _keep = &flag;
            if number(&msg) == HELD_AT {
                enter_tx.send(()).unwrap();
                go_rx.recv().unwrap();
            }
            Vec::new()
        });
        let client = net.register();
        let helping = {
            let mut helper = Runner::new(Arc::clone(&runtime));
            std::thread::spawn(move || {
                let mut scatter = Scatter::new();
                let mut n = 0;
                while client
                    .send_with(&mut scatter, id, numbered(n), None)
                    .is_ok()
                {
                    helper.help(&client, 1);
                    scatter.wake();
                    n += 1;
                }
            })
        };
        enter_rx.recv().unwrap();
        let (returned_tx, returned_rx) = std::sync::mpsc::channel::<()>();
        let stopping = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                runtime.shutdown();
                returned_tx.send(()).unwrap();
                dropped.load(Ordering::SeqCst)
            })
        };
        let probe = net.register();
        while probe.send(id, numbered(0)).is_ok() {
            std::thread::yield_now(); // until shutdown closed the mailboxes
        }
        let early = returned_rx.recv_timeout(Duration::from_millis(100));
        go_tx.send(()).unwrap();
        assert!(early.is_err(), "shutdown returned while an activation ran");
        assert!(
            stopping.join().unwrap(),
            "shutdown returned before the site's state was dropped"
        );
        helping.join().unwrap();
    }
}
