//! CRC-32 (IEEE 802.3: reflected polynomial `0xEDB8_8320`, init and
//! xorout `0xFFFF_FFFF`), slice-by-8. The one checksum of the workspace:
//! network frames (`sdds_net::frame`) and write-ahead-log frames
//! (`sdds_storage`) both call [`crc32`]. Here, not in either of them,
//! because this is the lowest crate both depend on.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One byte of the textbook CRC-32, bit by bit: the reference the
    /// table version must match.
    fn reference_step(mut crc: u32, b: u8) -> u32 {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        crc
    }

    #[test]
    fn check_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// Seeded random inputs of every length 0..=4096 at every start
    /// alignment 0..8 match the bytewise reference.
    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        const MAX: usize = if cfg!(miri) { 40 } else { 4096 };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..MAX + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            // the reference CRC of every prefix of `buf[start..]`
            let mut state = !0u32;
            let mut prefixes = vec![0u32];
            for &b in &buf[start..start + MAX] {
                state = reference_step(state, b);
                prefixes.push(!state);
            }
            for (len, want) in prefixes.into_iter().enumerate() {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), want, "start {start}, len {len}");
            }
        }
    }
}
