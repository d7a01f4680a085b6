//! Worker health self-reporting.
//!
//! Every thread that runs the site runtime's activations — a worker, or
//! a client running them while it waits — owns a [`LoopHealth`] and
//! brackets each activation with [`busy`](LoopHealth::busy); the end of
//! its round marks it [`idle`](LoopHealth::idle). Two signals come out:
//!
//! * `lh.loop_stall_seconds` — histogram of how long each activation kept
//!   its worker away from the other ready sites (recorded by the runtime
//!   into the activated site's registry). A site wedged on a slow storage
//!   flush or a huge transfer shows up as a fat tail here.
//! * `lh.loop_last_tick_age` — gauge (milliseconds) of the *oldest
//!   activation still running* across this process's threads, refreshed
//!   by the serve host's observability tick ([`max_busy_age`]). Idle
//!   workers report 0: sleeping on an empty ready queue is healthy, only
//!   time spent *handling* counts as age. A wedged rank is therefore
//!   visible from a cluster scrape before any client times out on it.
//!
//! Registration is process-global so the host watchdog can sample workers
//! it did not create; a worker deregisters on exit, a client when it is
//! dropped (`Drop`), so shut-down runtimes never alarm.

use sdds_net::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process epoch for busy timestamps (nanoseconds since first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Busy-since cells of every live worker. 0 = idle; otherwise nanoseconds
/// since the epoch, plus one, at the moment the worker started its
/// current activation (+1 so one starting at the epoch itself is not
/// read as idle).
fn cells() -> &'static Mutex<Vec<Arc<AtomicU64>>> {
    static CELLS: OnceLock<Mutex<Vec<Arc<AtomicU64>>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(Vec::new()))
}

/// One runner's watchdog cell (a worker's or a client's). Created with
/// it, dropped with it (deregistering it from the watchdog).
pub(crate) struct LoopHealth {
    cell: Arc<AtomicU64>,
}

impl LoopHealth {
    /// Registers a runner with the process watchdog.
    pub(crate) fn register() -> LoopHealth {
        let cell = Arc::new(AtomicU64::new(0));
        lock(cells()).push(cell.clone());
        LoopHealth { cell }
    }

    /// Marks the start, at clock reading `now`, of an activation.
    pub(crate) fn busy(&mut self, now: Instant) {
        let stamp = now.saturating_duration_since(epoch()).as_nanos() as u64;
        // ordering: Relaxed — the cell is an independent timestamp read
        // by the watchdog; no memory is published through it.
        self.cell.store(stamp + 1, Ordering::Relaxed);
    }

    /// Marks the end of the worker's round: nothing is being handled.
    pub(crate) fn idle(&mut self) {
        // ordering: Relaxed — see busy().
        self.cell.store(0, Ordering::Relaxed);
    }
}

impl Drop for LoopHealth {
    fn drop(&mut self) {
        let mut cells = lock(cells());
        if let Some(pos) = cells.iter().position(|c| Arc::ptr_eq(c, &self.cell)) {
            cells.swap_remove(pos);
        }
    }
}

/// Age of the oldest activation still running across this process's
/// workers (zero when every worker is between rounds or asleep). The
/// serve host's observability tick publishes this as the
/// `lh.loop_last_tick_age` gauge, in milliseconds.
pub(crate) fn max_busy_age() -> Duration {
    let now = now_nanos();
    let mut max = 0u64;
    for cell in lock(cells()).iter() {
        // ordering: Relaxed — see LoopHealth::busy.
        let stamp = cell.load(Ordering::Relaxed);
        if stamp != 0 {
            max = max.max(now.saturating_sub(stamp - 1));
        }
    }
    Duration::from_nanos(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_workers_age_and_idle_workers_do_not() {
        let mut a = LoopHealth::register();
        let mut b = LoopHealth::register();
        // Other tests' workers may be running concurrently, so only
        // assert on our own transitions.
        a.busy(Instant::now());
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            max_busy_age() >= Duration::from_millis(4),
            "a running activation ages"
        );
        a.idle();
        b.busy(Instant::now());
        b.idle();
        // Dropping deregisters: a permanently-busy worker that exits
        // must not alarm forever.
        a.busy(Instant::now());
        let cell = Arc::clone(&a.cell);
        drop(a);
        assert!(!lock(cells()).iter().any(|c| Arc::ptr_eq(c, &cell)));
    }
}
