//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided: unbounded and bounded MPMC
//! channels built on `Mutex<VecDeque>` + `Condvar` (notified only when a
//! thread is blocked on it), with the same disconnect semantics the real
//! crate documents — `send` fails once every `Receiver` is dropped, `recv`
//! fails once every `Sender` is dropped and the queue has drained, and on
//! a bounded channel `try_send` reports `Full` without blocking while
//! `send` waits for space.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => {
                    write!(f, "sending on a disconnected channel")
                }
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// The queue plus how many threads are blocked on each condvar.
    /// A notify is a system call whether or not anyone waits, and the
    /// usual receiver of a reply is running, not waiting: the counts,
    /// kept under the queue's lock, let `send` and `recv` skip it.
    struct State<T> {
        queue: VecDeque<T>,
        receivers_waiting: usize,
        senders_waiting: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        // Signalled when a bounded channel pops an element (space freed);
        // blocking `send` on a full bounded channel waits here.
        space: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of a channel. Clonable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Clonable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                receivers_waiting: 0,
                senders_waiting: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` values.
    /// `send` blocks while full; `try_send` reports [`TrySendError::Full`].
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Appends `value` and wakes a receiver, if one is blocked.
        fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
            state.queue.push_back(value);
            let wake = state.receivers_waiting > 0;
            drop(state);
            if wake {
                self.ready.notify_one();
            }
        }

        /// Takes the oldest value and wakes a sender blocked on a full
        /// bounded channel, if there is one.
        fn pop<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
        ) -> Result<T, MutexGuard<'a, State<T>>> {
            match state.queue.pop_front() {
                Some(value) => {
                    let wake = state.senders_waiting > 0;
                    drop(state);
                    if wake {
                        self.space.notify_one();
                    }
                    Ok(value)
                }
                None => Err(state),
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver has been dropped.
        /// On a bounded channel, blocks until space is available.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut state = self.shared.lock();
            loop {
                // Re-check under the lock so a concurrently dropped receiver
                // cannot race us into enqueueing onto a dead channel.
                if self.shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state.senders_waiting += 1;
                        state = self
                            .shared
                            .space
                            .wait(state)
                            .unwrap_or_else(|e| e.into_inner());
                        state.senders_waiting -= 1;
                    }
                    _ => break,
                }
            }
            self.shared.push(state, value);
            Ok(())
        }

        /// Enqueues `value` without blocking: on a bounded channel at
        /// capacity this returns [`TrySendError::Full`] immediately.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let state = self.shared.lock();
            // Re-check under the lock so a concurrently dropped receiver
            // cannot race us into enqueueing onto a dead channel.
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            self.shared.push(state, value);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Taking the lock first orders this wakeup after any
                // receiver's senders-check-then-wait, so it cannot be lost.
                drop(self.shared.lock());
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value is available or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                state = match self.shared.pop(state) {
                    Ok(value) => return Ok(value),
                    Err(state) => state,
                };
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                state.receivers_waiting += 1;
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.receivers_waiting -= 1;
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.lock();
            loop {
                state = match self.shared.pop(state) {
                    Ok(value) => return Ok(value),
                    Err(state) => state,
                };
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.receivers_waiting += 1;
                let (guard, timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
                state.receivers_waiting -= 1;
                if timed_out.timed_out() && state.queue.is_empty() {
                    if self.shared.senders.load(Ordering::Acquire) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Pops a value without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if let Ok(value) = self.shared.pop(self.shared.lock()) {
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of values currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Senders blocked on a full bounded channel must wake up
                // and observe the disconnect instead of waiting forever.
                // Taking the queue lock first orders this wakeup after any
                // sender's receivers-check-then-wait, so it cannot be lost.
                drop(self.shared.lock());
                self.shared.space.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn recv_fails_after_sender_drop_and_drain() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn timeout_elapses_on_empty_channel() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn bounded_try_send_reports_full_then_recovers() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn bounded_try_send_reports_disconnected() {
            let (tx, rx) = bounded(2);
            drop(rx);
            assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
        }

        #[test]
        fn unbounded_try_send_never_full() {
            let (tx, rx) = unbounded();
            for i in 0..10_000 {
                tx.try_send(i).unwrap();
            }
            assert_eq!(rx.len(), 10_000);
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = thread::spawn(move || tx.send(2));
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            handle.join().unwrap().unwrap();
        }

        #[test]
        fn bounded_send_unblocks_on_receiver_drop() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = thread::spawn(move || tx.send(2));
            thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(handle.join().unwrap(), Err(SendError(2)));
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let handle = thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut sum = 0;
            for _ in 0..100 {
                sum += rx.recv().unwrap();
            }
            handle.join().unwrap();
            assert_eq!(sum, 4950);
        }

        /// A send notifies only when a receiver is blocked. Two threads
        /// that wait for each other's every message would hang on the
        /// first wake-up skipped wrongly.
        #[test]
        fn ping_pong_never_loses_a_wakeup() {
            let (to_echo, echo_rx) = unbounded();
            let (to_main, main_rx) = bounded(1);
            let echo = thread::spawn(move || {
                while let Ok(i) = echo_rx.recv() {
                    to_main.send(i).unwrap();
                }
            });
            let rounds = if cfg!(miri) { 200 } else { 20_000u32 };
            for i in 0..rounds {
                to_echo.send(i).unwrap();
                let back = if i % 2 == 0 {
                    main_rx.recv().unwrap()
                } else {
                    main_rx.recv_timeout(Duration::from_secs(30)).unwrap()
                };
                assert_eq!(back, i);
            }
            drop(to_echo);
            echo.join().unwrap();
        }

        #[test]
        fn last_sender_drop_wakes_a_blocked_receiver() {
            let (tx, rx) = unbounded::<u8>();
            let waiter = thread::spawn(move || rx.recv());
            thread::sleep(Duration::from_millis(20));
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Err(RecvError));
        }
    }
}
