//! LH\* addressing: the linear-hashing function family and the client's
//! file image.
//!
//! The family is `h_i(K) = K mod 2^i`. A file at *level* `i` with *split
//! pointer* `n` has `2^i + n` buckets, addressed
//!
//! ```text
//! a = h_i(K);  if a < n { a = h_{i+1}(K) }
//! ```
//!
//! Keys are used raw (no pre-mixing): the ICDE'06 paper relies on this by
//! appending chunking and dispersion-site ids as the least significant bits
//! of index-record keys so sibling index records land in different buckets
//! (§5).

/// `h_i(K) = K mod 2^i`.
#[inline]
pub fn h(key: u64, level: u8) -> u64 {
    debug_assert!(level < 64);
    key & ((1u64 << level) - 1)
}

/// The LH addressing rule for a file at `(level, split)`.
#[inline]
pub fn address(key: u64, level: u8, split: u64) -> u64 {
    let a = h(key, level);
    if a < split {
        h(key, level + 1)
    } else {
        a
    }
}

/// Number of buckets of a file at `(level, split)`.
#[inline]
pub fn extent(level: u8, split: u64) -> u64 {
    (1u64 << level) + split
}

/// The buckets that bucket `addr` has split off by the time it is at
/// `level`: each split at level `l` created `addr + 2^l`, starting from
/// the level at which `addr` itself came to exist. (A level off the wire
/// may be anything; addresses that do not fit a `u64` are skipped.)
pub(crate) fn split_children(addr: u64, level: u8) -> impl Iterator<Item = u64> {
    let born = u64::BITS - addr.leading_zeros(); // 0 for bucket 0
    (born..u32::from(level)).filter_map(move |l| addr.checked_add(1u64.checked_shl(l)?))
}

/// A client's (possibly outdated) view of the file state — LH\*'s *image*.
///
/// Clients start with the primordial image (one bucket) and converge
/// through Image Adjustment Messages; the guarantee is never more than two
/// forwarding hops regardless of staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientImage {
    /// Presumed file level `i'`.
    pub level: u8,
    /// Presumed split pointer `n'`.
    pub split: u64,
}

impl ClientImage {
    /// Address of `key` under this image.
    pub fn address(&self, key: u64) -> u64 {
        address(key, self.level, self.split)
    }

    /// Number of buckets this image believes exist.
    pub fn extent(&self) -> u64 {
        extent(self.level, self.split)
    }

    /// Applies an Image Adjustment Message carrying the *serving* bucket's
    /// address `a` and level `j`. This is the \[LNS96\] A3 update with the
    /// address reduced into the new level's range,
    ///
    /// ```text
    /// if j > i' { i' = j - 1; n' = (a mod 2^i') + 1 }
    /// if n' >= 2^i' { n' = 0; i' += 1 }
    /// ```
    ///
    /// (The reduction matters because our IAMs come from the bucket that
    /// finally served the request, whose address may already be `>= 2^i'`;
    /// the mod keeps the image a provable lower bound on the true file
    /// state — see `image_is_always_a_lower_bound` in the tests.)
    pub fn adjust(&mut self, bucket: u64, bucket_level: u8) {
        if bucket_level > self.level {
            self.level = bucket_level - 1;
            self.split = (bucket & ((1u64 << self.level) - 1)) + 1;
        }
        if self.split >= (1u64 << self.level) {
            self.split = 0;
            self.level += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_masks_low_bits() {
        assert_eq!(h(0b1011, 0), 0);
        assert_eq!(h(0b1011, 1), 1);
        assert_eq!(h(0b1011, 3), 0b011);
        assert_eq!(h(u64::MAX, 10), 1023);
    }

    #[test]
    fn address_pre_split_uses_level() {
        // level 1, split 0: two buckets, addresses = key mod 2
        assert_eq!(address(6, 1, 0), 0);
        assert_eq!(address(7, 1, 0), 1);
    }

    #[test]
    fn address_split_region_uses_next_level() {
        // level 1, split 1: bucket 0 has split; keys with h_1 = 0 use h_2
        assert_eq!(address(4, 1, 1), 0); // h_1(4)=0 < 1 → h_2(4)=0
        assert_eq!(address(6, 1, 1), 2); // h_1(6)=0 < 1 → h_2(6)=2
        assert_eq!(address(7, 1, 1), 1); // h_1(7)=1 ≥ 1 → stays
    }

    #[test]
    fn split_children_follow_the_split_history() {
        let children = |addr, level| split_children(addr, level).collect::<Vec<u64>>();
        assert_eq!(children(0, 0), [0u64; 0]);
        assert_eq!(children(0, 3), [1, 2, 4]);
        assert_eq!(children(1, 3), [3, 5]);
        assert_eq!(children(2, 3), [6]);
        assert_eq!(children(3, 2), [0u64; 0], "bucket 3 is born at level 2");
        assert_eq!(children(5, 2), [0u64; 0], "a level below the bucket's own");
        // every bucket of a file is bucket 0 or somebody's child, once
        for (level, split) in [(0u8, 0u64), (2, 1), (3, 0), (3, 5), (4, 15)] {
            let bucket_level = |a: u64| {
                let next = a < split || a >= 1 << level;
                level + u8::from(next)
            };
            let mut born: Vec<u64> = (0..extent(level, split))
                .flat_map(|a| split_children(a, bucket_level(a)))
                .collect();
            born.sort_unstable();
            let expected: Vec<u64> = (1..extent(level, split)).collect();
            assert_eq!(born, expected, "file ({level}, {split})");
        }
        // levels off the wire cannot overflow the address space
        assert_eq!(children(u64::MAX, u8::MAX), [0u64; 0]);
        assert_eq!(children(1, u8::MAX).len(), 63);
    }

    #[test]
    fn extent_counts_buckets() {
        assert_eq!(extent(0, 0), 1);
        assert_eq!(extent(1, 0), 2);
        assert_eq!(extent(1, 1), 3);
        assert_eq!(extent(3, 5), 13);
    }

    #[test]
    fn addresses_always_within_extent() {
        for level in 0..6u8 {
            for split in 0..(1u64 << level) {
                let ext = extent(level, split);
                for key in 0..500u64 {
                    let a = address(key, level, split);
                    assert!(
                        a < ext,
                        "key {key} level {level} split {split} -> {a} >= {ext}"
                    );
                }
            }
        }
    }

    #[test]
    fn image_default_is_primordial() {
        let img = ClientImage::default();
        assert_eq!(img.extent(), 1);
        assert_eq!(img.address(12345), 0);
    }

    /// Level of bucket `addr` in a file at `(level, split)`.
    fn true_bucket_level(addr: u64, level: u8, split: u64) -> u8 {
        if addr < split || addr >= (1 << level) {
            level + 1
        } else {
            level
        }
    }

    #[test]
    fn image_adjustment_converges() {
        // Simulate a file that has grown to level 3, split 2 while the
        // client still holds the primordial image. Repeatedly address a
        // key, let the "true" file serve it, adjust — the image must
        // approach the true state from below.
        let true_level = 3u8;
        let true_split = 2u64;
        let mut img = ClientImage::default();
        for key in 0..200u64 {
            let true_addr = address(key, true_level, true_split);
            img.adjust(
                true_addr,
                true_bucket_level(true_addr, true_level, true_split),
            );
            assert!(img.extent() <= extent(true_level, true_split));
        }
        // after many adjustments the image is close to the true state
        assert!(img.level >= true_level - 1);
    }

    #[test]
    fn image_is_always_a_lower_bound() {
        // For every file state and every served bucket, adjusting any
        // not-ahead image never overshoots the true extent.
        for level in 0..5u8 {
            for split in 0..(1u64 << level) {
                let ext = extent(level, split);
                for served in 0..ext {
                    let j = true_bucket_level(served, level, split);
                    // try several starting images at or below the state
                    for img_level in 0..=level {
                        for img_split in 0..(1u64 << img_level) {
                            let mut img = ClientImage {
                                level: img_level,
                                split: img_split,
                            };
                            if img.extent() > ext {
                                continue;
                            }
                            img.adjust(served, j);
                            assert!(
                                img.extent() <= ext,
                                "overshoot: file=({level},{split}) served={served} j={j} -> {img:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn image_adjust_wraps_at_level_boundary() {
        let mut img = ClientImage::default();
        img.adjust(0, 1); // bucket 0 at level 1 → level 0, split 1 → wraps
        assert_eq!(img, ClientImage { level: 1, split: 0 });
        img.adjust(1, 2);
        assert_eq!(img, ClientImage { level: 2, split: 0 });
    }
}
