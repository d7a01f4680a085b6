//! Systematic Cauchy–Reed–Solomon erasure coding over GF(2^8).
//!
//! LH\*<sub>RS</sub> \[LMS05\] — the high-availability SDDS the paper names
//! as its storage substrate — groups `k` data buckets with `m` parity
//! buckets so that any `k` surviving buckets of the `k + m` group recover
//! the rest. This module implements that code: a systematic generator
//! `G = [I_k ; C]` with `C` an `m×k` Cauchy matrix, which guarantees every
//! `k×k` row subset of `G` is invertible.
//!
//! Shares are byte strings of equal length; encoding and decoding work
//! column-wise over bytes.

use crate::field::Field;
use crate::matrix::{Matrix, MatrixError};
use std::fmt;

/// Errors from Reed–Solomon encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Parameters out of range (`k = 0`, or `k + m > 256`).
    BadParameters {
        /// Data shares.
        k: usize,
        /// Parity shares.
        m: usize,
    },
    /// Input shares differ in length or the wrong number was supplied.
    ShapeMismatch(String),
    /// Fewer than `k` shares available.
    NotEnoughShares {
        /// Shares required.
        needed: usize,
        /// Shares available.
        have: usize,
    },
    /// Internal matrix failure (should not happen for valid share sets).
    Matrix(MatrixError),
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::BadParameters { k, m } => {
                write!(f, "bad RS parameters k={k}, m={m} (need k>=1, k+m<=256)")
            }
            RsError::ShapeMismatch(msg) => write!(f, "share shape mismatch: {msg}"),
            RsError::NotEnoughShares { needed, have } => {
                write!(f, "not enough shares: need {needed}, have {have}")
            }
            RsError::Matrix(e) => write!(f, "matrix error: {e}"),
        }
    }
}

impl std::error::Error for RsError {}

impl From<MatrixError> for RsError {
    fn from(e: MatrixError) -> Self {
        RsError::Matrix(e)
    }
}

/// A `(k, m)` systematic Reed–Solomon erasure code: `k` data shares,
/// `m` parity shares, tolerating any `m` losses.
///
/// ```
/// use sdds_gf::rs::ReedSolomon;
///
/// let rs = ReedSolomon::new(3, 2).unwrap();
/// let data = vec![b"abc".to_vec(), b"def".to_vec(), b"ghi".to_vec()];
/// let parity = rs.encode(&data).unwrap();
/// // lose two shares, recover everything
/// let shares = vec![None, Some(data[1].clone()), None,
///                   Some(parity[0].clone()), Some(parity[1].clone())];
/// assert_eq!(rs.reconstruct(&shares).unwrap(), data);
/// ```
pub struct ReedSolomon {
    k: usize,
    m: usize,
    field: Field,
    /// Full generator, `(k+m) x k`: first `k` rows are the identity.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a `(k, m)` code over GF(2^8). Requires `k >= 1` and
    /// `k + m <= 256` (Cauchy points must be distinct field elements).
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, RsError> {
        if k == 0 || k + m > 256 {
            return Err(RsError::BadParameters { k, m });
        }
        // lint: allow(panic-freedom) -- width 8 is a compile-time constant in Field's valid 1..=16 range
        let field = Field::new(8).expect("GF(256) always constructs");
        let mut generator = Matrix::zero(k + m, k);
        for i in 0..k {
            generator.set(i, i, 1);
        }
        if m > 0 {
            let c = Matrix::cauchy(&field, m, k)?;
            for i in 0..m {
                for j in 0..k {
                    generator.set(k + i, j, c.get(i, j));
                }
            }
        }
        Ok(ReedSolomon {
            k,
            m,
            field,
            generator,
        })
    }

    /// The generator coefficient `coef(p, i)` multiplying data share `i`
    /// in parity share `p` — exposed so incremental schemes (LH\*RS slot
    /// deltas) can update parity without re-encoding whole shares:
    /// `parity_p ^= coef(p, i) · delta_i`.
    pub fn parity_coefficient(&self, parity_index: usize, data_index: usize) -> u16 {
        assert!(parity_index < self.m, "parity index out of range");
        assert!(data_index < self.k, "data index out of range");
        self.generator.get(self.k + parity_index, data_index)
    }

    /// Scales a byte string by a field scalar (pointwise GF(256) multiply).
    pub fn scale_bytes(&self, data: &[u8], scalar: u16) -> Vec<u8> {
        data.iter()
            .map(|&b| self.field.mul(scalar, b as u16) as u8)
            .collect()
    }

    /// Computes the `m` parity shares for `k` equal-length data shares.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::ShapeMismatch(format!(
                "expected {} data shares, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(RsError::ShapeMismatch(
                "data shares differ in length".into(),
            ));
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (pi, p) in parity.iter_mut().enumerate() {
            let grow = self.generator.row(self.k + pi);
            for (di, d) in data.iter().enumerate() {
                let coef = grow[di];
                if coef == 0 {
                    continue;
                }
                for (pb, &db) in p.iter_mut().zip(d.iter()) {
                    *pb ^= self.field.mul(coef, db as u16) as u8;
                }
            }
        }
        Ok(parity)
    }

    /// Recovers all `k` data shares from any `k` available shares.
    ///
    /// `shares` holds `k + m` optional share bodies indexed by share id
    /// (`0..k` data, `k..k+m` parity); `None` marks an erasure. All present
    /// shares must have equal length.
    pub fn reconstruct(&self, shares: &[Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>, RsError> {
        if shares.len() != self.k + self.m {
            return Err(RsError::ShapeMismatch(format!(
                "expected {} share slots, got {}",
                self.k + self.m,
                shares.len()
            )));
        }
        // Carry each surviving body with its share id so no later lookup
        // has to re-unwrap an Option (panic-free by construction).
        let avail: Vec<(usize, &Vec<u8>)> = shares
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|body| (i, body)))
            .collect();
        if avail.len() < self.k {
            return Err(RsError::NotEnoughShares {
                needed: self.k,
                have: avail.len(),
            });
        }
        let picked = &avail[..self.k];
        let len = picked[0].1.len();
        if picked.iter().any(|(_, body)| body.len() != len) {
            return Err(RsError::ShapeMismatch("shares differ in length".into()));
        }
        // Fast path: all data shares survived.
        if picked.iter().map(|&(i, _)| i).eq(0..self.k) {
            return Ok(picked.iter().map(|&(_, body)| body.clone()).collect());
        }
        let use_rows: Vec<usize> = picked.iter().map(|&(i, _)| i).collect();
        let sub = self.generator.select_rows(&use_rows);
        let inv = sub.inverse(&self.field)?;
        // data_j = sum_i inv[j][i] * shares[use_rows[i]]
        let mut out = vec![vec![0u8; len]; self.k];
        for (j, o) in out.iter_mut().enumerate() {
            for (i, &(_, body)) in picked.iter().enumerate() {
                let coef = inv.get(j, i);
                if coef == 0 {
                    continue;
                }
                for (ob, &sb) in o.iter_mut().zip(body.iter()) {
                    *ob ^= self.field.mul(coef, sb as u16) as u8;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(200, 100).is_err());
        assert!(ReedSolomon::new(1, 0).is_ok());
    }

    #[test]
    fn parity_count_matches() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let parity = rs.encode(&sample_data(4, 64)).unwrap();
        assert_eq!(parity.len(), 2);
        assert!(parity.iter().all(|p| p.len() == 64));
    }

    #[test]
    fn reconstruct_with_no_losses_is_identity() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 32);
        let parity = rs.encode(&data).unwrap();
        let mut shares: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let got = rs.reconstruct(&shares).unwrap();
        assert_eq!(got, data);
        // Also when extra parity present but data intact with holes in parity.
        shares[4] = None;
        assert_eq!(rs.reconstruct(&shares).unwrap(), data);
    }

    #[test]
    fn recovers_from_every_single_and_double_erasure() {
        let k = 4;
        let m = 2;
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = sample_data(k, 40);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for lost1 in 0..k + m {
            for lost2 in 0..k + m {
                let mut shares: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shares[lost1] = None;
                shares[lost2] = None;
                let got = rs.reconstruct(&shares).unwrap();
                assert_eq!(got, data, "lost {lost1},{lost2}");
            }
        }
    }

    #[test]
    fn too_many_erasures_fail() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = sample_data(2, 8);
        let parity = rs.encode(&data).unwrap();
        let shares = vec![None, None, Some(parity[0].clone())];
        assert!(matches!(
            rs.reconstruct(&shares),
            Err(RsError::NotEnoughShares { needed: 2, have: 1 })
        ));
    }

    #[test]
    fn mismatched_share_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![vec![1, 2, 3], vec![4, 5]];
        assert!(matches!(rs.encode(&data), Err(RsError::ShapeMismatch(_))));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = vec![vec![]; 3];
        let parity = rs.encode(&data).unwrap();
        assert!(parity.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn wide_group_recovers_from_worst_case_losses() {
        // LH*RS-sized group: 8 data + 3 parity, lose 3 data buckets.
        let rs = ReedSolomon::new(8, 3).unwrap();
        let data = sample_data(8, 128);
        let parity = rs.encode(&data).unwrap();
        let mut shares: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shares[0] = None;
        shares[3] = None;
        shares[7] = None;
        assert_eq!(rs.reconstruct(&shares).unwrap(), data);
    }
}
