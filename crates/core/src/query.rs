//! The encrypted query object and the bucket-side scan filter.
//!
//! The query carries, for every index-record tag (chunking × dispersion
//! site), the encrypted-and-dispersed chunk series of each alignment drop.
//! Bucket sites match series against index-record bodies by **ciphertext
//! equality of consecutive elements** — they never see plaintext, keys, or
//! the dispersion matrix.

use crate::pack::body_elements;
use sdds_lh::{PreparedQuery, ScanFilter};
use sdds_net::codec::{put_bytes, put_seq, put_u32, put_usize, Reader};

/// A compiled, encrypted search query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedQuery {
    /// Tag width of the LH\* key layout.
    pub tag_bits: u32,
    /// Fixed element width in the record bodies (per chunk).
    pub element_bytes: usize,
    /// Alignment drop of each series (indexes the per-tag body lists;
    /// identical across tags). Needed to translate a chunk-level match
    /// back into a record offset.
    pub series_drops: Vec<usize>,
    /// Per tag: the encrypted series bodies (one per alignment drop).
    pub per_tag: Vec<(u32, Vec<Vec<u8>>)>,
}

/// The leading byte of every encoded query. It names the matching
/// semantics; ciphertext equality is the only one, so any other value
/// fails to decode.
const KIND_EQUALITY: u8 = 0;

impl EncryptedQuery {
    /// Serializes for the scan wire, in the binary layout of
    /// [`sdds_net::codec`]: the kind byte (always `0`, equality),
    /// `tag_bits`, `element_bytes`, the counted `series_drops`, then per
    /// tag its number and its counted, length-prefixed series.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![KIND_EQUALITY];
        put_u32(&mut out, self.tag_bits);
        put_usize(&mut out, self.element_bytes);
        put_seq(&mut out, &self.series_drops, |out, d| put_usize(out, *d));
        put_seq(&mut out, &self.per_tag, |out, (tag, series)| {
            put_u32(out, *tag);
            put_seq(out, series, |out, s| put_bytes(out, s));
        });
        out
    }

    /// Deserializes from the scan wire; `None` for anything that is not
    /// exactly one well-formed query. Lengths and counts are checked
    /// against the remaining bytes before anything is allocated.
    pub fn decode(bytes: &[u8]) -> Option<EncryptedQuery> {
        let mut r = Reader::new(bytes);
        if r.u8()? != KIND_EQUALITY {
            return None;
        }
        let q = EncryptedQuery {
            tag_bits: r.u32()?,
            element_bytes: r.usize()?,
            series_drops: r.seq(8, Reader::usize)?,
            per_tag: r.seq(4 + 4, |r| Some((r.u32()?, r.seq(4, Reader::vec)?)))?,
        };
        r.finish()?;
        Some(q)
    }

    /// The series bodies for one tag, if present.
    pub fn series_for(&self, tag: u32) -> Option<&[Vec<u8>]> {
        self.per_tag
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, s)| s.as_slice())
    }

    /// All positions (chunk indices) at which `series` matches `body`.
    pub fn match_positions(&self, body: &[u8], series: &[u8]) -> Vec<usize> {
        if self.element_bytes == 0
            || !body.len().is_multiple_of(self.element_bytes)
            || !series.len().is_multiple_of(self.element_bytes)
        {
            return Vec::new();
        }
        let body_el = body_elements(body, self.element_bytes);
        let series_el = body_elements(series, self.element_bytes);
        sdds_chunk::find_series(&body_el, &series_el)
    }

    /// True if any series of `tag` occurs in `body` (the bucket-side
    /// predicate): `!match_positions(body, series).is_empty()` for one of
    /// them. A bucket asks this of every candidate, so it compares a
    /// series with the element-aligned windows of `body` in place — bodies
    /// are a few dozen elements, and a border table is more work to build
    /// than it saves.
    pub fn matches_body(&self, tag: u32, body: &[u8]) -> bool {
        let w = self.element_bytes;
        // ragged or empty: nowhere; longer than the body: no window
        let occurs = |series: &Vec<u8>| {
            w > 0
                && body.len().is_multiple_of(w)
                && series.len().is_multiple_of(w)
                && !series.is_empty()
                && body
                    .windows(series.len())
                    .step_by(w)
                    .any(|window| window == series)
        };
        self.series_for(tag)
            .is_some_and(|series| series.iter().any(occurs))
    }
}

/// True when `tag_bits` is a usable tag width for the LH\* key layout.
fn valid_tag_bits(tag_bits: u32) -> bool {
    (1..=32).contains(&tag_bits)
}

/// The [`ScanFilter`] installed at every bucket of an encrypted store.
///
/// Record-store copies (tag 0) never match; index records match when any
/// encrypted series occurs in their body.
///
/// Built with [`new`](EncryptedIndexFilter::new) the filter asks buckets
/// to maintain a posting index over `element_bytes`-wide elements and
/// prepared queries expose probe elements, so scans confirm full series
/// matches only on candidate records. Built with
/// [`linear`](EncryptedIndexFilter::linear) (also the `Default`) buckets
/// keep no index and every scan sweeps linearly — the oracle path.
#[derive(Debug, Default, Clone, Copy)]
pub struct EncryptedIndexFilter {
    /// Element width buckets should index, or `None` for linear scans.
    index_element_bytes: Option<usize>,
    /// Tag width of the store's key layout, used to keep record-store
    /// copies (tag 0) out of the index. 0 = unknown (index everything).
    tag_bits: u32,
}

impl EncryptedIndexFilter {
    /// An index-enabled filter for a store whose bodies hold
    /// `element_bytes`-wide elements under a `tag_bits` key layout.
    pub fn new(element_bytes: usize, tag_bits: u32) -> EncryptedIndexFilter {
        EncryptedIndexFilter {
            index_element_bytes: (element_bytes > 0).then_some(element_bytes),
            tag_bits,
        }
    }

    /// A filter that never builds a posting index; every scan is a full
    /// linear sweep (the baseline and consistency oracle).
    pub fn linear() -> EncryptedIndexFilter {
        EncryptedIndexFilter::default()
    }
}

/// An [`EncryptedQuery`] decoded and validated once, for every bucket a
/// worker runs the scan for.
///
/// `query` is `None` when the wire bytes failed to decode or validate —
/// such a query matches nothing, and `probes` is empty so indexed
/// buckets answer instantly with zero candidates.
struct PreparedEncryptedQuery {
    query: Option<EncryptedQuery>,
    /// First element of every well-formed series, sorted and
    /// deduplicated — every matching record must contain at least one of
    /// these.
    probes: Vec<Vec<u8>>,
}

impl PreparedEncryptedQuery {
    fn from_wire(bytes: &[u8]) -> PreparedEncryptedQuery {
        let invalid = PreparedEncryptedQuery {
            query: None,
            probes: Vec::new(),
        };
        let Some(q) = EncryptedQuery::decode(bytes) else {
            return invalid;
        };
        // tag_bits comes off the wire: validate before shifting with it
        if !valid_tag_bits(q.tag_bits) || q.element_bytes == 0 {
            return invalid;
        }
        let probes = probe_elements(&q);
        PreparedEncryptedQuery {
            query: Some(q),
            probes,
        }
    }
}

/// The posting-index probe set of `q`: the first element of every series
/// body, across all tags, sorted and deduplicated. Sound because a series
/// matches a body only if the body contains the series' first element;
/// empty or ragged series match nothing (`find_series`), so skipping them
/// loses no candidates.
fn probe_elements(q: &EncryptedQuery) -> Vec<Vec<u8>> {
    let w = q.element_bytes;
    let mut firsts: Vec<&[u8]> = q
        .per_tag
        .iter()
        .flat_map(|(_, series)| series)
        // empty or ragged: matches nothing, contributes no candidates
        .filter(|s| !s.is_empty() && s.len().is_multiple_of(w))
        .filter_map(|s| s.get(..w))
        .collect();
    // The series count comes off the wire: deduplicate by sorting, not by
    // comparing every first element with every earlier one.
    firsts.sort_unstable();
    firsts.dedup();
    firsts.into_iter().map(<[u8]>::to_vec).collect()
}

impl PreparedQuery for PreparedEncryptedQuery {
    fn matches(&self, key: u64, value: &[u8]) -> bool {
        let Some(q) = &self.query else {
            return false;
        };
        let tag = (key & ((1 << q.tag_bits) - 1)) as u32;
        if tag == 0 {
            return false; // strongly encrypted record store copy
        }
        q.matches_body(tag, value)
    }

    fn probes(&self) -> Option<&[Vec<u8>]> {
        Some(&self.probes)
    }
}

impl ScanFilter for EncryptedIndexFilter {
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        Box::new(PreparedEncryptedQuery::from_wire(query))
    }

    fn index_element_bytes(&self) -> Option<usize> {
        self.index_element_bytes
    }

    fn should_index(&self, key: u64) -> bool {
        // record-store copies (tag 0) never match any query: keep them
        // out of the posting index entirely
        if !valid_tag_bits(self.tag_bits) {
            return true;
        }
        (key & ((1 << self.tag_bits) - 1)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_net::codec::check::{hostile_length, prefixes_and_bitflips};

    fn query() -> EncryptedQuery {
        EncryptedQuery {
            tag_bits: 2,
            element_bytes: 2,
            series_drops: vec![0],
            per_tag: vec![
                (1, vec![vec![0xAA, 0xBB, 0xCC, 0xDD]]), // elements [AABB][CCDD]
                (2, vec![vec![0x11, 0x22]]),
            ],
        }
    }

    /// `query()` plus the boundary shapes: nothing at all, empty series,
    /// a tag without series, the widest integers.
    fn samples() -> Vec<EncryptedQuery> {
        vec![
            query(),
            EncryptedQuery {
                tag_bits: 0,
                element_bytes: 0,
                series_drops: vec![],
                per_tag: vec![],
            },
            EncryptedQuery {
                tag_bits: u32::MAX,
                element_bytes: usize::MAX,
                series_drops: vec![0, usize::MAX],
                per_tag: vec![(u32::MAX, vec![]), (1, vec![vec![], vec![0xEE; 32]])],
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for q in samples() {
            assert_eq!(EncryptedQuery::decode(&q.encode()), Some(q));
        }
    }

    #[test]
    fn decode_fails_closed() {
        let encodings: Vec<Vec<u8>> = samples().iter().map(EncryptedQuery::encode).collect();
        prefixes_and_bitflips(&encodings, EncryptedQuery::decode);
        assert_eq!(EncryptedQuery::decode(b"junk"), None);
        assert_eq!(EncryptedQuery::decode(&[2]), None, "unknown kind");
        // a well-formed body behind kind `1`: still an unknown kind, so a
        // bucket matches nothing and probes to zero candidates
        let mut kind_one = query().encode();
        kind_one[0] = 1;
        assert_eq!(EncryptedQuery::decode(&kind_one), None, "kind 1");
        let prepared = EncryptedIndexFilter::new(2, 2).prepare(&kind_one);
        assert_eq!(prepared.probes(), Some(&[][..]));
        assert!(!prepared.matches(0b100 | 1, &[0xAA, 0xBB, 0xCC, 0xDD]));
        let mut trailing = query().encode();
        trailing.push(0);
        assert_eq!(EncryptedQuery::decode(&trailing), None);
        // the JSON this layout replaced
        let old = br#"{"tag_bits":2,"element_bytes":2,"kind":"Equality","series_drops":[0],"per_tag":[[1,[[170,187]]]]}"#;
        assert_eq!(EncryptedQuery::decode(old), None);
        // kind, tag_bits, element_bytes, then: drops, tags, a tag's
        // series, a series' bytes
        let fixed = [0u8; 1 + 4 + 8];
        let cases: [(Vec<u8>, &[u8]); 4] = [
            (fixed.to_vec(), &[0; 4]),
            ([&fixed[..], &[0; 4]].concat(), &[]),
            ([&fixed[..], &[0; 4], &[1, 0, 0, 0], &[0; 4]].concat(), &[]),
            (
                [&fixed[..], &[0; 4], &[1, 0, 0, 0], &[0; 4], &[1, 0, 0, 0]].concat(),
                &[],
            ),
        ];
        for (head, tail) in &cases {
            hostile_length(head, tail, EncryptedQuery::decode);
        }
    }

    proptest::proptest! {
        #[test]
        fn random_bytes_never_panic(
            kind in 0u8..3,
            data in proptest::collection::vec(proptest::any::<u8>(), 0..96),
        ) {
            let _ = EncryptedQuery::decode(&data);
            let _ = EncryptedQuery::decode(&[&[kind][..], &data].concat());
            // whatever the bytes, a bucket can prepare and evaluate them
            let f = EncryptedIndexFilter::new(2, 2);
            let prepared = f.prepare(&data);
            let _ = prepared.probes();
            let _ = prepared.matches(0b101, &[0xAA, 0xBB]);
        }
    }

    /// What [`EncryptedQuery::matches_body`] must answer: some series of
    /// the tag has a match position.
    fn some_series_has_a_position(q: &EncryptedQuery, tag: u32, body: &[u8]) -> bool {
        q.series_for(tag).is_some_and(|series| {
            series
                .iter()
                .any(|s| !q.match_positions(body, s).is_empty())
        })
    }

    proptest::proptest! {
        /// Two letters make occurrences, overlapping occurrences and
        /// series that overlap themselves common; the lengths leave the
        /// element grid, reach zero and run past the body.
        #[test]
        fn matches_body_is_a_nonempty_match_positions(
            w in 1usize..4,
            body in proptest::collection::vec(0u8..2, 0..40),
            series in proptest::collection::vec(proptest::collection::vec(0u8..2, 0..24), 0..6),
        ) {
            for series in series.iter().cloned().chain(cut_from(&body)) {
                let mut q = query();
                q.element_bytes = w;
                q.per_tag = vec![(1, vec![series])];
                proptest::prop_assert_eq!(
                    q.matches_body(1, &body),
                    some_series_has_a_position(&q, 1, &body)
                );
            }
        }
    }

    /// Slices of `body`: drawn series of any length rarely occur in it.
    fn cut_from(body: &[u8]) -> Vec<Vec<u8>> {
        (0..body.len())
            .flat_map(|at| (at..=body.len()).step_by(3).map(move |end| (at, end)))
            .map(|(at, end)| body[at..end].to_vec())
            .collect()
    }

    #[test]
    fn matches_body_agrees_with_match_positions_on_the_edges() {
        let mut q = query();
        q.per_tag = vec![(
            1,
            vec![
                vec![],                       // empty
                vec![0xAA],                   // ragged
                vec![0xAA, 0xBB, 0xAA, 0xBB], // overlaps itself
                vec![0xBB, 0xAA],             // occurs, but off the grid
                vec![0xAA; 10],               // longer than any body below
            ],
        )];
        for (body, expect) in [
            (vec![], false),
            (vec![0xAA, 0xBB, 0xAA], false), // ragged body
            (vec![0xAA, 0xBB], false),
            (vec![0xAA, 0xBB, 0xAA, 0xBB], true),
            (vec![0xAA, 0xBB, 0xAA, 0xBB, 0xAA, 0xBB], true),
            (vec![0x00, 0xBB, 0xAA, 0x00], false),
        ] {
            assert_eq!(q.matches_body(1, &body), expect, "{body:02X?}");
            assert_eq!(some_series_has_a_position(&q, 1, &body), expect);
        }
    }

    #[test]
    fn many_series_deduplicate_without_quadratic_compare() {
        let mut q = query();
        // 120 000 series over 60 000 distinct first elements: comparing
        // each with every earlier one would take some 10^9 steps
        let series: Vec<Vec<u8>> = (0..60_000u16)
            .map(|i| [i.to_le_bytes(), [0xEE; 2]].concat())
            .collect();
        q.per_tag = vec![(1, series.clone()), (2, series)];
        let probes = probe_elements(&q);
        assert_eq!(probes.len(), 60_000);
        assert!(probes.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn match_positions_finds_consecutive_elements() {
        let q = query();
        let body = vec![0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF];
        assert_eq!(q.match_positions(&body, &[0xAA, 0xBB, 0xCC, 0xDD]), vec![1]);
        assert!(q
            .match_positions(&body, &[0xCC, 0xDD, 0xAA, 0xBB])
            .is_empty());
    }

    #[test]
    fn ragged_bodies_never_match() {
        let mut q = query();
        assert!(q.match_positions(&[1, 2, 3], &[1, 2]).is_empty());
        // zero-width elements tile nothing, not even an empty body
        q.element_bytes = 0;
        assert!(q.match_positions(&[], &[]).is_empty());
    }

    #[test]
    fn matches_body_dispatches_on_tag() {
        let q = query();
        let body = vec![0xAA, 0xBB, 0xCC, 0xDD];
        assert!(q.matches_body(1, &body));
        assert!(!q.matches_body(2, &body));
        assert!(!q.matches_body(3, &body), "unknown tag");
    }

    #[test]
    fn filter_ignores_record_store_and_garbage() {
        let q = query();
        let f = EncryptedIndexFilter::linear();
        let body = vec![0xAA, 0xBB, 0xCC, 0xDD];
        // key with tag 1 matches, tag 0 (record store) never does
        assert!(f.prepare(&q.encode()).matches(0b100 | 1, &body));
        assert!(!f.prepare(&q.encode()).matches(0b100, &body));
        assert!(!f.prepare(b"not a query").matches(1, &body));
    }

    #[test]
    fn prepared_query_reads_the_tag_off_the_key() {
        let f = EncryptedIndexFilter::new(2, 2);
        let prepared = f.prepare(&query().encode());
        let body = vec![0xAA, 0xBB, 0xCC, 0xDD]; // the series of tag 1
        for (k, expect) in [
            (0b100 | 1, true),
            (0b100 | 2, false),
            (0b100, false),
            (1, true),
            (2, false),
        ] {
            assert_eq!(prepared.matches(k, &body), expect, "k={k}");
        }
    }

    #[test]
    fn probes_are_first_elements_deduplicated() {
        let q = query();
        let f = EncryptedIndexFilter::new(2, 2);
        let wire = q.encode();
        let prepared = f.prepare(&wire);
        let probes = prepared.probes().expect("a prepared query always probes");
        // tag 1 series starts [AA BB], tag 2 series starts [11 22]; sorted
        assert_eq!(probes, [vec![0x11, 0x22], vec![0xAA, 0xBB]]);
    }

    #[test]
    fn invalid_queries_probe_to_nothing() {
        let f = EncryptedIndexFilter::new(2, 2);
        let prepared = f.prepare(b"not a query");
        assert_eq!(prepared.probes(), Some(&[][..]), "zero candidates");
        assert!(!prepared.matches(0b100 | 1, &[0xAA, 0xBB]));
    }

    #[test]
    fn empty_and_ragged_series_contribute_no_probes() {
        let mut q = query();
        q.per_tag = vec![(1, vec![vec![], vec![0xAA]])]; // empty + ragged
        let f = EncryptedIndexFilter::new(2, 2);
        let wire = q.encode();
        let prepared = f.prepare(&wire);
        assert_eq!(prepared.probes(), Some(&[][..]));
    }

    #[test]
    fn index_config_round_trips() {
        let f = EncryptedIndexFilter::new(16, 3);
        assert_eq!(f.index_element_bytes(), Some(16));
        assert!(!f.should_index(0b1000), "tag 0 stays out of the index");
        assert!(f.should_index(0b1001));
        let lin = EncryptedIndexFilter::linear();
        assert!(lin.index_element_bytes().is_none());
        assert!(
            lin.should_index(0b1000),
            "linear filter indexes nothing anyway"
        );
    }
}
