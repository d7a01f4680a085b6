//! A site's inbox: an unbounded FIFO of envelopes with one owner, kept
//! in its process's site table whichever fabric delivers to it. A
//! *reserved* mailbox has no owner yet: it takes envelopes all the same,
//! and the endpoint registered under its id later adopts them.
//!
//! Two kinds of owner drain a mailbox. A *thread* (a client, a control
//! endpoint) blocks in [`recv`](Mailbox::recv) on the mailbox's condvar.
//! A *scheduler* (the site runtime of `sdds-lh`) blocks nowhere: after
//! [`attach`](Mailbox::attach) a push into an idle mailbox queues the
//! mailbox with the scheduler, and a worker later
//! [`drain`](Mailbox::drain)s it and [`release`](Mailbox::release)s it.
//!
//! Either way a push never wakes anybody itself. It returns the
//! [`Wake`] it owes, at most one per sleeping owner however many
//! envelopes follow, and the sender delivers it when it sees fit: at
//! once for a single send, once at the end for a
//! [`Scatter`](crate::Scatter). That is what lets a fan-out of N
//! envelopes cost one thread hand-over instead of N.

use crate::network::Envelope;
use crate::sync::{self, lock};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Runs the mailboxes no thread blocks on: the site runtime implements
/// this, the fabric calls it.
pub trait Scheduler: Send + Sync {
    /// Mailbox `key` (the value given to [`Endpoint::attach`]) went from
    /// idle to holding envelopes: queue it for a worker. Must neither
    /// block nor wake a worker — [`wake`](Self::wake) follows, once for
    /// however many mailboxes one scatter queued.
    ///
    /// [`Endpoint::attach`]: crate::Endpoint::attach
    fn schedule(&self, key: usize);

    /// Mailboxes were queued since the last call: wake a sleeping
    /// worker, if there is one.
    fn wake(&self);
}

/// The wake-up a push owes its mailbox's owner.
pub(crate) enum Wake {
    /// A thread is blocked in `recv` on this mailbox.
    Thread(Arc<Mailbox>),
    /// The mailbox was queued with this scheduler, whose workers may
    /// all be asleep.
    Pool(Arc<dyn Scheduler>),
}

impl Wake {
    pub(crate) fn fire(self) {
        match self {
            Wake::Thread(mailbox) => mailbox.wake(),
            Wake::Pool(scheduler) => scheduler.wake(),
        }
    }
}

/// A push was refused because the owner is gone; nothing was queued.
pub(crate) struct Closed;

/// Why a receive returned no envelope.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecvError {
    /// Nothing queued (non-blocking receive, or the deadline passed).
    Empty,
    /// The mailbox was closed and has drained.
    Closed,
}

/// What one [`Mailbox::drain`] took.
pub struct Drained {
    /// When the oldest envelope taken was enqueued (`None`: took none).
    pub oldest: Option<Instant>,
    /// Envelopes still queued behind the ones taken.
    pub left: usize,
}

struct State {
    /// Each envelope with the sender's clock reading at its push.
    queue: VecDeque<(Instant, Envelope)>,
    /// Threads blocked in `recv`.
    waiting: usize,
    /// A push promised the waiting threads a wake-up that has not been
    /// delivered yet; later pushes owe nothing more.
    wake_owed: bool,
    /// No endpoint holds the mailbox yet: see [`Mailbox::adopt`].
    reserved: bool,
    closed: bool,
    scheduler: Option<(Arc<dyn Scheduler>, usize)>,
    /// Queued with the scheduler or held by one of its workers. While
    /// set, pushes owe nothing: the worker looks again before it lets go
    /// (`release`), so an attached mailbox is never idle and non-empty.
    scheduled: bool,
}

pub(crate) struct Mailbox {
    state: Mutex<State>,
    ready: Condvar,
}

impl Mailbox {
    pub(crate) fn new() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiting: 0,
                wake_owed: false,
                reserved: false,
                closed: false,
                scheduler: None,
                scheduled: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Appends `env`, stamped `at`, without waking anybody; returns the
    /// wake-up this push owes, if it is the one that owes it.
    pub(crate) fn push(
        self: &Arc<Self>,
        env: Envelope,
        at: Instant,
    ) -> Result<Option<Wake>, Closed> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(Closed);
        }
        st.queue.push_back((at, env));
        if st.scheduler.is_some() {
            return Ok(self.schedule(st));
        }
        if st.waiting > 0 && !st.wake_owed {
            st.wake_owed = true;
            return Ok(Some(Wake::Thread(Arc::clone(self))));
        }
        Ok(None)
    }

    /// Queues an attached, idle mailbox with its scheduler.
    fn schedule(&self, mut st: MutexGuard<'_, State>) -> Option<Wake> {
        if st.scheduled {
            return None;
        }
        let (scheduler, key) = st.scheduler.clone()?;
        st.scheduled = true;
        // The ready queue's lock is never taken under a mailbox's.
        drop(st);
        scheduler.schedule(key);
        Some(Wake::Pool(scheduler))
    }

    /// Delivers the wake-up a push returned as [`Wake::Thread`].
    fn wake(&self) {
        lock(&self.state).wake_owed = false;
        // all of them: a woken thread takes one envelope, and nothing
        // else would wake a second one for the rest
        self.ready.notify_all();
    }

    /// Takes the oldest envelope, blocking as long as `wait` allows
    /// while the mailbox is empty and open.
    pub(crate) fn recv(&self, wait: Wait) -> Result<Envelope, RecvError> {
        let mut st = lock(&self.state);
        loop {
            if let Some((_, env)) = st.queue.pop_front() {
                return Ok(env);
            }
            if st.closed {
                return Err(RecvError::Closed);
            }
            let left = match wait {
                Wait::No => return Err(RecvError::Empty),
                Wait::Forever => None,
                Wait::Until(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(RecvError::Empty),
                },
            };
            st.waiting += 1;
            st = match left {
                None => sync::wait(&self.ready, st),
                Some(left) => sync::wait_timeout(&self.ready, st, left),
            };
            st.waiting -= 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Not closed: the id it is registered under is taken.
    pub(crate) fn is_open(&self) -> bool {
        !lock(&self.state).closed
    }

    /// An open mailbox nobody holds yet.
    pub(crate) fn reserved() -> Arc<Mailbox> {
        let mailbox = Mailbox::new();
        lock(&mailbox.state).reserved = true;
        mailbox
    }

    /// An endpoint takes a reserved mailbox over, with what it holds;
    /// `false` if an endpoint holds it already (or did: it is closed).
    pub(crate) fn adopt(&self) -> bool {
        std::mem::take(&mut lock(&self.state).reserved)
    }

    /// Threads blocked in `recv` right now (tests wait for this instead
    /// of sleeping).
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        lock(&self.state).waiting
    }

    /// Refuses every later push; what is queued can still be taken.
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// The owner is gone: closes the mailbox and frees what nobody will
    /// take any more — the site table keeps the mailbox itself as a
    /// tombstone, to answer later sends with `Closed` until its id is
    /// registered again.
    pub(crate) fn retire(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        let orphaned = (std::mem::take(&mut st.queue), st.scheduler.take());
        drop(st);
        self.ready.notify_all();
        drop(orphaned);
    }

    /// Hands the mailbox to `scheduler`, which will know it as `key`,
    /// and queues it there at once, envelopes or not, so that the site
    /// behind it gets a first activation to start up in.
    pub(crate) fn attach(&self, scheduler: Arc<dyn Scheduler>, key: usize) {
        let mut st = lock(&self.state);
        st.scheduler = Some((scheduler, key));
        if let Some(wake) = self.schedule(st) {
            wake.fire();
        }
    }

    /// A worker takes up to `max` envelopes, oldest first.
    pub(crate) fn drain(&self, max: usize, into: &mut Vec<Envelope>) -> Drained {
        let mut st = lock(&self.state);
        let take = max.min(st.queue.len());
        let oldest = st.queue.front().map(|(at, _)| *at).filter(|_| take > 0);
        into.extend(st.queue.drain(..take).map(|(_, env)| env));
        Drained {
            oldest,
            left: st.queue.len(),
        }
    }

    /// A worker is done with the mailbox. `true`: more arrived
    /// meanwhile and the mailbox stays the worker's to queue again;
    /// `false`: it is idle and the next push queues it.
    pub(crate) fn release(&self) -> bool {
        let mut st = lock(&self.state);
        st.scheduled = !st.queue.is_empty();
        st.scheduled
    }
}

/// How long a receive may block on an empty mailbox.
#[derive(Clone, Copy)]
pub(crate) enum Wait {
    No,
    Until(Instant),
    Forever,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SiteId;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn env(n: u32) -> Envelope {
        Envelope {
            from: SiteId(n),
            to: SiteId(0),
            payload: Bytes::new(),
            ctx: None,
        }
    }

    fn push(m: &Arc<Mailbox>, n: u32) -> Option<Wake> {
        match m.push(env(n), Instant::now()) {
            Ok(wake) => wake,
            Err(_) => panic!("push {n} refused"),
        }
    }

    #[test]
    fn fifo_and_closed() {
        let m = Mailbox::new();
        assert!(push(&m, 1).is_none(), "nobody waits: nothing owed");
        assert!(push(&m, 2).is_none());
        assert_eq!(m.recv(Wait::No).map(|e| e.from), Ok(SiteId(1)));
        assert!(push(&m, 3).is_none());
        m.close();
        assert!(m.push(env(4), Instant::now()).is_err());
        assert_eq!(m.recv(Wait::No).map(|e| e.from), Ok(SiteId(2)));
        assert_eq!(m.recv(Wait::No).map(|e| e.from), Ok(SiteId(3)));
        assert_eq!(m.recv(Wait::No).map(|e| e.from), Err(RecvError::Closed));
    }

    #[test]
    fn retiring_frees_the_backlog_where_closing_keeps_it() {
        let probe: Arc<[u8]> = Arc::from(&b"queued"[..]);
        let m = Mailbox::new();
        let queued = Envelope {
            payload: Bytes::from_owner(Arc::clone(&probe)),
            ..env(1)
        };
        assert!(m.push(queued, Instant::now()).is_ok());
        m.close();
        assert_eq!(m.len(), 1, "closed: the backlog can still be taken");
        assert_eq!(Arc::strong_count(&probe), 2);
        m.retire();
        assert_eq!(m.len(), 0);
        assert_eq!(Arc::strong_count(&probe), 1, "the envelope was dropped");
        assert!(m.push(env(2), Instant::now()).is_err());
    }

    #[test]
    fn recv_deadline_elapses_on_an_empty_mailbox() {
        let m = Mailbox::new();
        let deadline = Wait::Until(Instant::now() + Duration::from_millis(5));
        assert_eq!(m.recv(deadline).map(|e| e.from), Err(RecvError::Empty));
    }

    /// N pushes to a blocked receiver owe it one wake-up between them,
    /// and the receiver finds all N once it is delivered.
    #[test]
    fn a_blocked_receiver_is_owed_exactly_one_wake_for_n_pushes() {
        let m = Mailbox::new();
        let receiver = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let first = m.recv(Wait::Forever).map(|e| e.from);
                (first, m.len())
            })
        };
        while m.waiting() == 0 {
            std::thread::yield_now();
        }
        let owed = (0..100).filter_map(|n| push(&m, n)).count();
        assert_eq!(owed, 1, "one sleeping owner, one wake-up");
        m.wake();
        assert_eq!(receiver.join().unwrap(), (Ok(SiteId(0)), 99));
        assert!(push(&m, 100).is_none(), "nobody waits any more");
    }

    /// Each side blocks for the other's every message while the wake-up
    /// is delivered apart from the push: one lost would hang the test.
    #[test]
    fn ping_pong_never_loses_a_deferred_wake() {
        let (ping, pong) = (Mailbox::new(), Mailbox::new());
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                while let Ok(e) = ping.recv(Wait::Forever) {
                    if let Some(wake) = push(&pong, e.from.0) {
                        wake.fire();
                    }
                }
            })
        };
        let rounds = if cfg!(miri) { 200 } else { 20_000u32 };
        let (mut owed, far) = (0u32, Duration::from_secs(30));
        for i in 0..rounds {
            if let Some(wake) = push(&ping, i) {
                owed += 1;
                wake.fire();
            }
            let wait = if i % 2 == 0 {
                Wait::Forever
            } else {
                Wait::Until(Instant::now() + far)
            };
            assert_eq!(pong.recv(wait).map(|e| e.from), Ok(SiteId(i)));
        }
        assert!(owed <= rounds, "at most one wake-up a push");
        ping.close();
        echo.join().unwrap();
    }

    #[derive(Default)]
    struct Counting {
        scheduled: Mutex<Vec<usize>>,
        wakes: AtomicUsize,
    }

    impl Scheduler for Counting {
        fn schedule(&self, key: usize) {
            lock(&self.scheduled).push(key);
        }
        fn wake(&self) {
            // ordering: Relaxed — a test tally on one thread
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn an_attached_mailbox_is_queued_once_until_released_empty() {
        let pool = Arc::new(Counting::default());
        let m = Mailbox::new();
        m.attach(pool.clone(), 7);
        assert_eq!(*lock(&pool.scheduled), [7], "attaching queues it");
        // ordering: Relaxed — see `Counting::wake`
        assert_eq!(pool.wakes.load(Ordering::Relaxed), 1, "and wakes a worker");
        assert!(push(&m, 1).is_none(), "already queued: nothing owed");
        let mut batch = Vec::new();
        let drained = m.drain(64, &mut batch);
        assert_eq!((batch.len(), drained.left), (1, 0));
        assert!(drained.oldest.is_some());
        push(&m, 2);
        assert!(m.release(), "more arrived: stays with the worker");
        assert!(m.drain(1, &mut batch).oldest.is_some());
        assert!(!m.release(), "empty: idle again");
        assert!(matches!(push(&m, 3), Some(Wake::Pool(_))));
        assert_eq!(*lock(&pool.scheduled), [7, 7], "an idle push queues it");
        assert!(push(&m, 4).is_none(), "queued: not twice");
        assert_eq!(lock(&pool.scheduled).len(), 2);
    }
}
