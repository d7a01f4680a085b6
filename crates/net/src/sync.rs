//! Poison-recovering `std::sync` lock calls.
//!
//! A lock is poisoned when a thread panics while holding it. The state
//! behind every lock in the fabric and the site runtime stays usable
//! after such a panic (each critical section leaves it consistent, or the
//! panic is already a test failure), so these take the guard either way
//! instead of spreading the panic to every later caller.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `mutex`.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared read lock on `lock`.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive write lock on `lock`.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard`, sleeps until `cond` is notified, and locks again.
pub fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`], giving up after `timeout`.
pub fn wait_timeout<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cond.wait_timeout(guard, timeout) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}
