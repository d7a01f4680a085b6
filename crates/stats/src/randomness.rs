//! NIST SP 800-22-style randomness tests.
//!
//! §6 of the paper: "Knuth's seminal work discusses a number of statistical
//! tests for randomness, and the work at NIST used similar statistical
//! tests …"; §8: "we are starting to use the work of Soto in order to
//! evaluate closeness to randomness in a better manner". This module
//! implements the eight SP 800-22 tests that apply to our stream sizes:
//! frequency (monobit), block frequency, runs, longest run of ones,
//! cumulative sums, spectral (DFT), serial, and approximate entropy — each
//! returning a p-value where p < 0.01 conventionally rejects randomness.

use crate::special::{erfc, igamc};

/// Outcome of a single randomness test.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// Test name.
    pub name: &'static str,
    /// Test statistic (test-specific scale).
    pub statistic: f64,
    /// Upper-tail p-value; small p rejects the randomness hypothesis.
    pub p_value: f64,
}

impl TestResult {
    /// True if the stream passed at significance level `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Extracts bits MSB-first from a byte stream.
fn bits_of(bytes: &[u8]) -> impl Iterator<Item = u8> + '_ {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
}

/// SP 800-22 §2.1 — frequency (monobit) test.
pub fn monobit(bytes: &[u8]) -> TestResult {
    let n = bytes.len() * 8;
    let ones: i64 = bits_of(bytes).map(|b| b as i64).sum();
    let s = 2 * ones - n as i64; // sum of +1/-1
    let s_obs = (s as f64).abs() / (n as f64).sqrt();
    let p = erfc(s_obs / std::f64::consts::SQRT_2);
    TestResult {
        name: "monobit",
        statistic: s_obs,
        p_value: p,
    }
}

/// SP 800-22 §2.2 — block frequency test with block length `m` bits.
pub fn block_frequency(bytes: &[u8], m: usize) -> TestResult {
    assert!(m >= 1, "block length must be positive");
    let bits: Vec<u8> = bits_of(bytes).collect();
    let nblocks = bits.len() / m;
    if nblocks == 0 {
        return TestResult {
            name: "block-frequency",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let mut chi2 = 0.0;
    for b in 0..nblocks {
        let ones: usize = bits[b * m..(b + 1) * m].iter().map(|&x| x as usize).sum();
        let pi = ones as f64 / m as f64;
        chi2 += (pi - 0.5) * (pi - 0.5);
    }
    chi2 *= 4.0 * m as f64;
    let p = igamc(nblocks as f64 / 2.0, chi2 / 2.0);
    TestResult {
        name: "block-frequency",
        statistic: chi2,
        p_value: p,
    }
}

/// SP 800-22 §2.3 — runs test (total number of runs of identical bits).
pub fn runs(bytes: &[u8]) -> TestResult {
    let bits: Vec<u8> = bits_of(bytes).collect();
    let n = bits.len();
    if n < 2 {
        return TestResult {
            name: "runs",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let ones: usize = bits.iter().map(|&b| b as usize).sum();
    let pi = ones as f64 / n as f64;
    // prerequisite monobit sanity per NIST: |pi - 0.5| < 2/sqrt(n)
    if (pi - 0.5).abs() >= 2.0 / (n as f64).sqrt() {
        return TestResult {
            name: "runs",
            statistic: f64::INFINITY,
            p_value: 0.0,
        };
    }
    let vn = 1 + bits.windows(2).filter(|w| w[0] != w[1]).count();
    let num = (vn as f64 - 2.0 * n as f64 * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n as f64).sqrt() * pi * (1.0 - pi);
    let p = erfc(num / den);
    TestResult {
        name: "runs",
        statistic: vn as f64,
        p_value: p,
    }
}

/// ψ²_m helper for the serial test: over all overlapping m-bit patterns of
/// the *circularly extended* sequence.
fn psi_sq(bits: &[u8], m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = bits.len();
    let mut counts = vec![0u64; 1 << m];
    for i in 0..n {
        let mut v = 0usize;
        for j in 0..m {
            v = (v << 1) | bits[(i + j) % n] as usize;
        }
        counts[v] += 1;
    }
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    (1u64 << m) as f64 / n as f64 * sum_sq - n as f64
}

/// SP 800-22 §2.11 — serial test with pattern length `m`; returns the
/// first p-value (∇ψ²).
pub fn serial(bytes: &[u8], m: usize) -> TestResult {
    assert!(m >= 2, "serial test needs m >= 2");
    let bits: Vec<u8> = bits_of(bytes).collect();
    if bits.len() < (1 << m) {
        return TestResult {
            name: "serial",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let d1 = psi_sq(&bits, m) - psi_sq(&bits, m - 1);
    let p = igamc((1u64 << (m - 2)) as f64, d1 / 2.0);
    TestResult {
        name: "serial",
        statistic: d1,
        p_value: p,
    }
}

/// SP 800-22 §2.12 — approximate entropy test with block length `m`.
pub fn approximate_entropy(bytes: &[u8], m: usize) -> TestResult {
    let bits: Vec<u8> = bits_of(bytes).collect();
    let n = bits.len();
    if n < (1 << (m + 1)) {
        return TestResult {
            name: "approx-entropy",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let phi = |m: usize| -> f64 {
        if m == 0 {
            return 0.0;
        }
        let mut counts = vec![0u64; 1 << m];
        for i in 0..n {
            let mut v = 0usize;
            for j in 0..m {
                v = (v << 1) | bits[(i + j) % n] as usize;
            }
            counts[v] += 1;
        }
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n as f64;
                p * p.ln()
            })
            .sum()
    };
    let ap_en = phi(m) - phi(m + 1);
    let chi2 = 2.0 * n as f64 * (std::f64::consts::LN_2 - ap_en);
    let p = igamc((1u64 << (m - 1)) as f64, chi2 / 2.0);
    TestResult {
        name: "approx-entropy",
        statistic: chi2,
        p_value: p,
    }
}

/// SP 800-22 §2.13 — cumulative sums (forward) test: the maximum partial
/// sum of the ±1 walk should stay near zero.
pub fn cumulative_sums(bytes: &[u8]) -> TestResult {
    let n = (bytes.len() * 8) as f64;
    if bytes.is_empty() {
        return TestResult {
            name: "cusum",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let mut sum: i64 = 0;
    let mut z: i64 = 0;
    for bit in bits_of(bytes) {
        sum += if bit == 1 { 1 } else { -1 };
        z = z.max(sum.abs());
    }
    let z = z as f64;
    if z == 0.0 {
        return TestResult {
            name: "cusum",
            statistic: 0.0,
            p_value: 0.0,
        };
    }
    let sqrt_n = n.sqrt();
    let phi = |x: f64| 0.5 * erfc(-x / std::f64::consts::SQRT_2);
    let mut p = 1.0;
    let k_lo = ((-n / z + 1.0) / 4.0).floor() as i64;
    let k_hi = ((n / z - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p -= phi((4.0 * k + 1.0) * z / sqrt_n) - phi((4.0 * k - 1.0) * z / sqrt_n);
    }
    let k_lo = ((-n / z - 3.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p += phi((4.0 * k + 3.0) * z / sqrt_n) - phi((4.0 * k + 1.0) * z / sqrt_n);
    }
    TestResult {
        name: "cusum",
        statistic: z,
        p_value: p.clamp(0.0, 1.0),
    }
}

/// SP 800-22 §2.4 — longest run of ones in 8-bit blocks (the M = 8
/// parameterisation, valid for 128 ≤ n < 6272 bits; longer streams are
/// evaluated on their first 6272 bits as NIST's tables prescribe per M).
pub fn longest_run(bytes: &[u8]) -> TestResult {
    const M: usize = 8;
    const K: usize = 3; // categories: <=1, 2, 3, >=4
    const PI: [f64; K + 1] = [0.2148, 0.3672, 0.2305, 0.1875];
    let bits: Vec<u8> = bits_of(bytes).take(6272).collect();
    let nblocks = bits.len() / M;
    if nblocks < 16 {
        return TestResult {
            name: "longest-run",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let mut v = [0u64; K + 1];
    for b in 0..nblocks {
        let mut longest = 0usize;
        let mut run = 0usize;
        for &bit in &bits[b * M..(b + 1) * M] {
            if bit == 1 {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        let cat = match longest {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            _ => 3,
        };
        v[cat] += 1;
    }
    let n = nblocks as f64;
    let chi2: f64 = v
        .iter()
        .zip(PI.iter())
        .map(|(&obs, &pi)| {
            let e = n * pi;
            (obs as f64 - e) * (obs as f64 - e) / e
        })
        .sum();
    let p = igamc(K as f64 / 2.0, chi2 / 2.0);
    TestResult {
        name: "longest-run",
        statistic: chi2,
        p_value: p,
    }
}

/// SP 800-22 §2.6 — discrete Fourier transform (spectral) test: periodic
/// features would concentrate spectral power above the 95% threshold.
/// Evaluates the largest power-of-two prefix of the stream.
pub fn spectral(bytes: &[u8]) -> TestResult {
    let bits: Vec<f64> = bits_of(bytes)
        .map(|b| if b == 1 { 1.0 } else { -1.0 })
        .collect();
    if bits.len() < 128 {
        return TestResult {
            name: "spectral",
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let n = 1usize << (usize::BITS - 1 - bits.len().leading_zeros());
    let mods = crate::fft::spectrum_moduli(&bits[..n]);
    let threshold = ((1.0f64 / 0.05).ln() * n as f64).sqrt();
    let n0 = 0.95 * n as f64 / 2.0;
    let n1 = mods.iter().filter(|&&m| m < threshold).count() as f64;
    let d = (n1 - n0) / (n as f64 * 0.95 * 0.05 / 4.0).sqrt();
    let p = erfc(d.abs() / std::f64::consts::SQRT_2);
    TestResult {
        name: "spectral",
        statistic: d,
        p_value: p,
    }
}

/// Bundled report over the standard battery.
///
/// ```
/// use sdds_stats::RandomnessReport;
///
/// let obviously_not_random = vec![0u8; 2048];
/// let report = RandomnessReport::run(&obviously_not_random);
/// assert!(report.passed(0.01) < report.tests.len());
/// ```
#[derive(Debug, Clone)]
pub struct RandomnessReport {
    /// Individual test outcomes.
    pub tests: Vec<TestResult>,
}

impl RandomnessReport {
    /// Runs the full battery with conventional parameters.
    pub fn run(bytes: &[u8]) -> RandomnessReport {
        RandomnessReport {
            tests: vec![
                monobit(bytes),
                block_frequency(bytes, 128),
                runs(bytes),
                longest_run(bytes),
                cumulative_sums(bytes),
                spectral(bytes),
                serial(bytes, 4),
                approximate_entropy(bytes, 3),
            ],
        }
    }

    /// Number of tests passed at level `alpha`.
    pub fn passed(&self, alpha: f64) -> usize {
        self.tests.iter().filter(|t| t.passes(alpha)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — statistically strong enough to pass the battery.
    fn pseudo_random_bytes(n: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            seed = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn monobit_closed_form_example() {
        // 16-bit sequence 1100100110000101 has 7 ones: S = -2,
        // s_obs = 2/sqrt(16) = 0.5, P = erfc(0.5/sqrt(2)) ≈ 0.617075.
        let r = monobit(&[0b1100_1001, 0b1000_0101]);
        let expect = erfc(0.5 / std::f64::consts::SQRT_2);
        assert!((r.p_value - expect).abs() < 1e-12, "p={}", r.p_value);
        assert!((r.p_value - 0.617075).abs() < 1e-5);
    }

    #[test]
    fn random_stream_passes_battery() {
        let data = pseudo_random_bytes(4096, 0x243F6A8885A308D3);
        let report = RandomnessReport::run(&data);
        assert_eq!(report.passed(0.01), report.tests.len(), "{report:?}");
    }

    #[test]
    fn constant_stream_fails_hard() {
        let data = vec![0u8; 1024];
        assert!(monobit(&data).p_value < 1e-10);
        assert!(block_frequency(&data, 128).p_value < 1e-10);
        assert!(runs(&data).p_value < 1e-10);
    }

    #[test]
    fn alternating_bits_fail_runs() {
        let data = vec![0b0101_0101u8; 512];
        // perfect bit balance → monobit passes…
        assert!(monobit(&data).p_value > 0.9);
        // …but far too many runs
        assert!(runs(&data).p_value < 1e-10);
        assert!(serial(&data, 4).p_value < 1e-10);
    }

    #[test]
    fn ascii_text_fails_serial() {
        let text: Vec<u8> = b"AAAA BBBB THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let s = serial(&text, 4);
        assert!(
            s.p_value < 0.01,
            "ASCII text should fail serial: p={}",
            s.p_value
        );
    }

    #[test]
    fn cusum_detects_drifting_walks() {
        // random: pass
        let data = pseudo_random_bytes(4096, 0xABCDEF);
        assert!(cumulative_sums(&data).p_value > 0.01);
        // a biased stream drifts and fails hard
        let biased: Vec<u8> = (0..2048)
            .map(|i| if i % 8 == 0 { 0x00 } else { 0xFF })
            .collect();
        assert!(cumulative_sums(&biased).p_value < 1e-10);
        // degenerate all-equal stream
        assert!(cumulative_sums(&[0xFFu8; 64]).p_value < 1e-10);
    }

    #[test]
    fn longest_run_separates_random_from_clumped() {
        let data = pseudo_random_bytes(784, 0x12345);
        assert!(
            longest_run(&data).p_value > 0.01,
            "{:?}",
            longest_run(&data)
        );
        // every byte 0x0F: every block's longest run is exactly 4
        let clumped = vec![0x0Fu8; 784];
        assert!(longest_run(&clumped).p_value < 1e-10);
        // too short: inconclusive
        assert_eq!(longest_run(&[0xAA; 8]).p_value, 1.0);
    }

    #[test]
    fn spectral_detects_periodicity() {
        let data = pseudo_random_bytes(2048, 0xFEED);
        assert!(spectral(&data).p_value > 0.01, "{:?}", spectral(&data));
        // strongly periodic stream: power concentrates above threshold
        let periodic: Vec<u8> = (0..2048)
            .map(|i| if i % 2 == 0 { 0xF0 } else { 0x0F })
            .collect();
        assert!(
            spectral(&periodic).p_value < 0.01,
            "{:?}",
            spectral(&periodic)
        );
        assert_eq!(
            spectral(&[0xAA; 4]).p_value,
            1.0,
            "short stream inconclusive"
        );
    }

    #[test]
    fn short_streams_are_inconclusive_not_crashing() {
        let r = block_frequency(&[0xAB], 128);
        assert_eq!(r.p_value, 1.0);
        let r = serial(&[0xAB], 4);
        assert_eq!(r.p_value, 1.0);
        let r = runs(&[]);
        assert_eq!(r.p_value, 1.0);
    }
}
