//! One processor for the whole run.
//!
//! The store is a thread per site: hundreds of threads, nearly all of
//! them asleep, and an operation is a chain of hand-overs between them.
//! The reference box gives the benchmark two virtual processors of a
//! shared host. Left to both, a sleeping site is woken on whichever is
//! idle, which means waking a halted virtual processor through the host:
//! a `get` over the channel fabric then takes 50 to 80 µs of which the
//! program's share is 15, and the rest moves with whatever else the host
//! is doing. Confined to one processor a hand-over is a context switch
//! and the time of an operation is the work the program does for it,
//! which is what a change to the program moves. The serving ranks of the
//! TCP workload inherit the confinement: the whole system under test,
//! load generator included, shares one processor.

/// Confines this process, and every thread and child it starts later, to
/// the first processor it is allowed on. Returns that processor, or
/// `None` where the platform has no such call or refuses it; the run
/// then proceeds unconfined and says so.
pub fn to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
        }
        // room for 1024 processors, the size of glibc's own cpu_set_t
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes,
        // which is all the call writes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = allowed.iter().enumerate().find(|(_, w)| **w != 0)?;
        let bit = bits.trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of `bytes` bytes that the call
        // only reads.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
