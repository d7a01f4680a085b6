//! A reading of how fast the processor computed while a repetition ran.
//!
//! The benchmark reports wall-clock times as they are; beside them it
//! times a fixed kernel of its own a few times per repetition and reports
//! the median as `harness.cpu_kernel_us`, so that a reader can tell a
//! processor that computed slower from a program that did. (The slow
//! stretches of the shared reference box, which hit whatever switches
//! between threads, do not show in it; see `README.md`.) The kernel
//! touches nothing of the program.

use crate::gen::Rng;
use std::time::Instant;

/// Runs the fixed kernel — integer arithmetic and reads and writes over a
/// 32 KiB table — and returns how long it took, in µs.
pub fn kernel_us() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(1);
    let mut table = [0u64; 1 << 12];
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        let r = rng.next_u64();
        let slot = (r >> 52) as usize;
        acc = acc.wrapping_add(table[slot] ^ i);
        table[slot] = acc.rotate_left(7) ^ r;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel_us() > 10.0);
    }
}
