//! A keyed pseudo-random permutation over arbitrary bit widths.
//!
//! Index-record chunks are `s·f` bits wide — 16 bits for `s = 2` byte
//! symbols, 48 bits for the paper's recommended `s = 6`, or odd sizes after
//! Stage-2 compression (e.g. 3-bit codes). ECB with a 128-bit block cipher
//! cannot encrypt such blocks "of the same size" (§2.1), so we build an
//! **alternating (unbalanced) Feistel network** whose round function is the
//! AES-based PRF: a permutation on exactly `2^w` values for any
//! `1 <= w <= 128`.
//!
//! Determinism is the point: equal chunks encrypt equally so sites can match
//! encrypted search chunks. The paper's security analysis (§6) is precisely
//! about what this equality structure leaks; stages 2 and 3 exist to blunt
//! it. For tiny widths the permutation is structurally sound but the domain
//! itself is small — also exactly the regime the paper studies.

use crate::aes::Aes128;
use std::fmt;

/// Errors from PRP construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrpError {
    /// Width outside the supported `1..=128` range.
    UnsupportedWidth(u32),
}

impl fmt::Display for PrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrpError::UnsupportedWidth(w) => {
                write!(f, "unsupported PRP width {w}; need 1 <= w <= 128")
            }
        }
    }
}

impl std::error::Error for PrpError {}

/// Number of Feistel rounds. Twelve alternating rounds comfortably exceeds
/// the classical Luby–Rackoff bounds for PRP behaviour from a PRF.
const ROUNDS: u32 = 12;

/// Values one pass of [`ChunkPrp::encrypt_many`] carries through the
/// rounds together: the width of the AES-NI interleave.
const LANES: usize = 8;

/// A width-`w` pseudo-random permutation (deterministic encryption for
/// chunks), keyed by a 128-bit key.
///
/// ```
/// use sdds_cipher::ChunkPrp;
///
/// let prp = ChunkPrp::new(&[7; 16], 48).unwrap(); // 6 ASCII symbols
/// let chunk = 0x53_43_48_57_41_52u128;            // "SCHWAR"
/// let enc = prp.encrypt(chunk);
/// assert_ne!(enc, chunk);
/// assert_eq!(prp.encrypt(chunk), enc, "deterministic: searchable");
/// assert_eq!(prp.decrypt(enc), chunk);
/// ```
#[derive(Clone)]
pub struct ChunkPrp {
    aes: Aes128,
    width: u32,
    left_bits: u32,
    right_bits: u32,
}

impl fmt::Debug for ChunkPrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkPrp")
            .field("width", &self.width)
            .finish()
    }
}

fn mask(bits: u32) -> u128 {
    if bits == 0 {
        0
    } else if bits == 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

impl ChunkPrp {
    /// Creates a PRP on `w`-bit values, `1 <= w <= 128`.
    pub fn new(key: &[u8; 16], width: u32) -> Result<ChunkPrp, PrpError> {
        if !(1..=128).contains(&width) {
            return Err(PrpError::UnsupportedWidth(width));
        }
        let left_bits = width / 2;
        let right_bits = width - left_bits;
        Ok(ChunkPrp {
            aes: Aes128::new(key),
            width,
            left_bits,
            right_bits,
        })
    }

    /// Permutation width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The cipher block of round `round` on `half`, as a little-endian
    /// word: the input of `prf(round ‖ half_le ‖ 0…)`. That input is one
    /// full block, so the PRF's chain is a single encryption of it with
    /// the full-final-block tweak (byte 15 XOR `0x01`) applied — done
    /// here, so that a batch of rounds can go to the cipher in one call.
    fn round_block(round: u32, half: u128) -> u128 {
        debug_assert!(half <= u64::MAX as u128, "halves fit in 64 bits");
        u128::from(round as u8) | (half << 8) | (0x01 << 120)
    }

    /// Deterministically encrypts a `w`-bit value. Values above `2^w - 1`
    /// are rejected by debug assertion and masked in release builds.
    pub fn encrypt(&self, x: u128) -> u128 {
        let mut v = [self.in_domain(x)];
        self.rounds(&mut v, false);
        v[0]
    }

    /// [`encrypt`](Self::encrypt) of every value in place. The values go
    /// through the Feistel rounds eight at a time, and a shorter tail
    /// (padded to 1, 2, 4 or 8 lanes), so their independent block
    /// encryptions overlap in the CPU's AES unit; the outputs are exactly
    /// the per-value ones.
    pub fn encrypt_many(&self, values: &mut [u128]) {
        for v in values.iter_mut() {
            *v = self.in_domain(*v);
        }
        let (groups, tail) = values.as_chunks_mut::<LANES>();
        for group in groups {
            self.rounds(group, false);
        }
        match tail.len() {
            0 => {}
            1 => self.padded_rounds::<1>(tail),
            2 => self.padded_rounds::<2>(tail),
            3 | 4 => self.padded_rounds::<4>(tail),
            _ => self.padded_rounds::<LANES>(tail),
        }
    }

    /// [`rounds`](Self::rounds) on fewer than `N` values, padded with
    /// zeros to `N` lanes.
    fn padded_rounds<const N: usize>(&self, values: &mut [u128]) {
        let mut lanes = [0u128; N];
        lanes[..values.len()].copy_from_slice(values);
        self.rounds(&mut lanes, false);
        values.copy_from_slice(&lanes[..values.len()]);
    }

    /// Inverts [`encrypt`](Self::encrypt).
    pub fn decrypt(&self, y: u128) -> u128 {
        let mut v = [self.in_domain(y)];
        self.rounds(&mut v, true);
        v[0]
    }

    /// `x` as a `w`-bit value: checked in debug builds, masked in release.
    fn in_domain(&self, x: u128) -> u128 {
        debug_assert!(x <= mask(self.width), "value wider than PRP width");
        x & mask(self.width)
    }

    /// The permutation (or its inverse) of `N` values: all [`ROUNDS`]
    /// rounds, in reverse order for the inverse, with one call to the
    /// cipher per round for the `N` round blocks. `N` is fixed at compile
    /// time so the lanes stay in registers.
    fn rounds<const N: usize>(&self, values: &mut [u128; N], inverse: bool) {
        if self.width == 1 {
            // a permutation of {0,1}: identity or swap, keyed
            let mut block = [Self::round_block(0, 0)];
            self.aes.encrypt_words(&mut block);
            values.iter_mut().for_each(|v| *v ^= block[0] & 1);
            return;
        }
        let (left_mask, right_mask) = (mask(self.left_bits), mask(self.right_bits));
        let mut left = values.map(|v| v >> self.right_bits);
        let mut right = values.map(|v| v & right_mask);
        for step in 0..ROUNDS {
            let round = if inverse { ROUNDS - 1 - step } else { step };
            // even rounds key on the left half and mask into the right
            let (from, into, into_mask) = if round % 2 == 0 {
                (&left, &mut right, right_mask)
            } else {
                (&right, &mut left, left_mask)
            };
            let mut blocks = from.map(|half| Self::round_block(round, half));
            self.aes.encrypt_words(&mut blocks);
            for (half, block) in into.iter_mut().zip(blocks) {
                *half ^= block & into_mask;
            }
        }
        for (v, (l, r)) in values.iter_mut().zip(left.into_iter().zip(right)) {
            *v = (l << self.right_bits) | r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk PRP as first written, one value at a time with the round
    /// function spelled as `prf(round ‖ half)`: the reference the batched
    /// path is held to.
    fn reference_encrypt(prp: &ChunkPrp, x: u128) -> u128 {
        let round_fn = |round: u32, half: u128, out_bits: u32| {
            let mut input = [0u8; 16];
            input[0] = round as u8;
            input[1..9].copy_from_slice(&(half as u64).to_le_bytes());
            u128::from_le_bytes(prp.aes.prf(&input)) & mask(out_bits)
        };
        if prp.width == 1 {
            return x ^ round_fn(0, 0, 1);
        }
        let mut left = x >> prp.right_bits;
        let mut right = x & mask(prp.right_bits);
        for round in 0..ROUNDS {
            if round % 2 == 0 {
                right ^= round_fn(round, left, prp.right_bits);
            } else {
                left ^= round_fn(round, right, prp.left_bits);
            }
        }
        (left << prp.right_bits) | right
    }

    #[test]
    fn encrypt_many_matches_the_per_value_reference() {
        let (widths, lens): (Vec<u32>, Vec<usize>) = if cfg!(miri) {
            (vec![1, 2, 3, 36, 64, 128], vec![0, 1, 8, 9, 17])
        } else {
            ((1..=128).collect(), (0..=17).collect())
        };
        let mut seed = 0x243f_6a88_85a3_08d3u128;
        for &width in &widths {
            let prp = ChunkPrp::new(&[width as u8; 16], width).unwrap();
            for &len in &lens {
                let values: Vec<u128> = (0..len)
                    .map(|_| {
                        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                        seed.rotate_left(width) & mask(width)
                    })
                    .collect();
                let mut batched = values.clone();
                prp.encrypt_many(&mut batched);
                for (i, (&x, &y)) in values.iter().zip(&batched).enumerate() {
                    assert_eq!(y, reference_encrypt(&prp, x), "w={width} len={len} i={i}");
                    assert_eq!(y, prp.encrypt(x), "w={width} len={len} i={i}");
                    assert_eq!(prp.decrypt(y), x, "w={width} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn rejects_out_of_range_width() {
        assert_eq!(
            ChunkPrp::new(&[0; 16], 0).unwrap_err(),
            PrpError::UnsupportedWidth(0)
        );
        assert_eq!(
            ChunkPrp::new(&[0; 16], 129).unwrap_err(),
            PrpError::UnsupportedWidth(129)
        );
    }

    #[test]
    fn is_a_permutation_on_small_domains() {
        let widest = if cfg!(miri) { 6 } else { 12 };
        for width in 1..=widest {
            let prp = ChunkPrp::new(&[5; 16], width).unwrap();
            let n = 1usize << width;
            let mut seen = vec![false; n];
            for x in 0..n as u128 {
                let y = prp.encrypt(x) as usize;
                assert!(y < n, "output in range (w={width})");
                assert!(!seen[y], "collision at {x} (w={width})");
                seen[y] = true;
            }
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_across_widths() {
        for width in [
            1u32, 2, 3, 7, 8, 15, 16, 24, 31, 32, 48, 63, 64, 100, 127, 128,
        ] {
            let prp = ChunkPrp::new(&[9; 16], width).unwrap();
            let m = mask(width);
            for i in 0..if cfg!(miri) { 8 } else { 200u128 } {
                let x = (i.wrapping_mul(0x9E3779B97F4A7C15)) & m;
                assert_eq!(prp.decrypt(prp.encrypt(x)), x, "w={width} x={x:#x}");
            }
        }
    }

    #[test]
    fn deterministic_equal_chunks_encrypt_equally() {
        // This is the property the searchable index depends on.
        let prp = ChunkPrp::new(&[1; 16], 32).unwrap();
        let a = u32::from_le_bytes(*b"SCHW") as u128;
        assert_eq!(prp.encrypt(a), prp.encrypt(a));
    }

    #[test]
    fn key_sensitivity() {
        let p1 = ChunkPrp::new(&[1; 16], 32).unwrap();
        let p2 = ChunkPrp::new(&[2; 16], 32).unwrap();
        let differing = (0..256u128)
            .filter(|&x| p1.encrypt(x) != p2.encrypt(x))
            .count();
        assert!(
            differing > 240,
            "keys should change almost all outputs: {differing}"
        );
    }

    #[test]
    fn avalanche_on_input_bits() {
        // flipping one input bit should flip ~half of the output bits on average
        let prp = ChunkPrp::new(&[3; 16], 48).unwrap();
        let mut total = 0u32;
        let trials = 64;
        for i in 0..trials {
            let x = (i as u128).wrapping_mul(0xDEADBEEFCAFE) & mask(48);
            let y0 = prp.encrypt(x);
            let y1 = prp.encrypt(x ^ 1);
            total += (y0 ^ y1).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!(
            (12.0..36.0).contains(&avg),
            "poor avalanche: avg {avg} of 48 bits"
        );
    }

    #[test]
    fn width_one_is_keyed_involution() {
        let prp = ChunkPrp::new(&[0xAB; 16], 1).unwrap();
        let a = prp.encrypt(0);
        let b = prp.encrypt(1);
        assert_ne!(a, b);
        assert!(a <= 1 && b <= 1);
        assert_eq!(prp.decrypt(a), 0);
        assert_eq!(prp.decrypt(b), 1);
    }

    #[test]
    fn full_width_128_roundtrip() {
        let prp = ChunkPrp::new(&[0x77; 16], 128).unwrap();
        let x = u128::MAX - 12345;
        assert_eq!(prp.decrypt(prp.encrypt(x)), x);
    }
}
