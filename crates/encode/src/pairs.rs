//! Searchable pair compression — the paper's §8 research direction,
//! implemented: "we are pursuing searchable compression as a main mean of
//! redundancy removal" (citing Manber's compression scheme that allows
//! searching the compressed file directly \[M97\]).
//!
//! The compressor replaces frequent symbol *pairs* by single codes, chosen
//! under a discipline that makes compression **context-free**: the set of
//! pair-starting symbols and the set of pair-ending symbols are disjoint.
//! Then a pair `(a, b)` compresses to its code at *every* adjacent
//! occurrence — no left context can steal `a` (it would have to end a pair,
//! but `a` starts pairs and the sets are disjoint) — so a substring's
//! compressed image inside a record equals the compression of the
//! substring itself, up to its two edge symbols. Searching the compressed
//! stream therefore needs at most four query variants (first symbol
//! possibly absorbed by a text pair on the left, last symbol on the
//! right), and completeness is exact, not probabilistic.
//!
//! Combined with the scheme, this is an alternative Stage 2: it removes
//! redundancy (pair frequencies are the redundancy) while keeping search,
//! and unlike the bucket codebook it is lossless — precision comes back
//! for free, at a weaker flattening of the frequency profile.

use crate::counter::GramCounter;
use std::collections::{HashMap, HashSet};

/// A searchable pair compressor over a base alphabet `0..base`.
///
/// Codes `0..base` are literals; codes `base..base+pairs.len()` stand for
/// symbol pairs.
///
/// ```
/// use sdds_encode::PairCompressor;
///
/// let text: Vec<u16> = "ANANAS BANANA".bytes().map(u16::from).collect();
/// let c = PairCompressor::train([text.as_slice()], 256, 8);
/// let compressed = c.compress(&text);
/// assert!(compressed.len() < text.len());
/// assert_eq!(c.decompress(&compressed), text);       // lossless
/// let query: Vec<u16> = "NANA".bytes().map(u16::from).collect();
/// assert!(c.search(&compressed, &query));            // searchable
/// ```
#[derive(Debug, Clone)]
pub struct PairCompressor {
    base: usize,
    /// pair -> code
    pairs: HashMap<(u16, u16), u16>,
    /// code -> pair (decompression)
    codes: Vec<(u16, u16)>,
    starters: HashSet<u16>,
    enders: HashSet<u16>,
}

impl PairCompressor {
    fn add_pair(&mut self, a: u16, b: u16) {
        let code = (self.base + self.codes.len()) as u16;
        self.pairs.insert((a, b), code);
        self.codes.push((a, b));
        self.starters.insert(a);
        self.enders.insert(b);
    }

    /// Trains on a sample: counts adjacent pairs and greedily admits the
    /// most frequent ones subject to the context-free discipline
    /// (starter and ender sets stay disjoint; a symbol never plays both
    /// roles). At most `max_pairs` codes are allocated.
    pub fn train<'a, I>(sample: I, base: usize, max_pairs: usize) -> PairCompressor
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        assert!(base >= 2, "base alphabet too small");
        let mut counter = GramCounter::new(2);
        for record in sample {
            // overlapping pair counts (offset 0 and 1)
            counter.add_record_all_offsets(record);
        }
        let mut comp = PairCompressor {
            base,
            pairs: HashMap::new(),
            codes: Vec::new(),
            starters: HashSet::new(),
            enders: HashSet::new(),
        };
        for (gram, _count) in counter.sorted_by_frequency() {
            if comp.codes.len() >= max_pairs {
                break;
            }
            let (a, b) = (gram[0], gram[1]);
            // discipline: a may only be (or become) a starter, b an ender
            if comp.enders.contains(&a) || comp.starters.contains(&b) || a == b {
                continue;
            }
            comp.add_pair(a, b);
        }
        comp
    }

    /// Number of pair codes in use.
    pub fn num_pairs(&self) -> usize {
        self.codes.len()
    }

    /// Total output alphabet (`base` literals + pair codes).
    pub fn alphabet(&self) -> usize {
        self.base + self.codes.len()
    }

    /// Compresses a symbol stream. Greedy left-to-right; by the
    /// context-free discipline the output is position-independent.
    pub fn compress(&self, symbols: &[u16]) -> Vec<u16> {
        let mut out = Vec::with_capacity(symbols.len());
        let mut i = 0;
        while i < symbols.len() {
            if i + 1 < symbols.len() {
                if let Some(&code) = self.pairs.get(&(symbols[i], symbols[i + 1])) {
                    out.push(code);
                    i += 2;
                    continue;
                }
            }
            out.push(symbols[i]);
            i += 1;
        }
        out
    }

    /// Decompresses (the code is lossless).
    pub fn decompress(&self, codes: &[u16]) -> Vec<u16> {
        let mut out = Vec::with_capacity(codes.len() * 2);
        for &c in codes {
            if (c as usize) < self.base {
                out.push(c);
            } else {
                let (a, b) = self.codes[c as usize - self.base];
                out.push(a);
                out.push(b);
            }
        }
        out
    }

    /// Pair codes whose second symbol is `s` (text may absorb a query's
    /// first symbol into one of these).
    fn codes_ending(&self, s: u16) -> Vec<u16> {
        self.codes
            .iter()
            .enumerate()
            .filter(|(_, &(_, b))| b == s)
            .map(|(i, _)| (self.base + i) as u16)
            .collect()
    }

    /// Pair codes whose first symbol is `s`.
    fn codes_starting(&self, s: u16) -> Vec<u16> {
        self.codes
            .iter()
            .enumerate()
            .filter(|(_, &(a, _))| a == s)
            .map(|(i, _)| (self.base + i) as u16)
            .collect()
    }

    /// The compressed query variants to search for. A text occurrence of
    /// `query` compresses exactly like `compress(query)` except at the two
    /// edges: the text may pair the query's first symbol with its left
    /// neighbour (only possible if it is an ender) or its last symbol with
    /// its right neighbour (only if a starter). For queries of three or
    /// more symbols, dropping the absorbed edge symbol leaves a non-empty
    /// core that still occurs verbatim; for one- and two-symbol queries the
    /// drop could empty the variant, so the absorbing pair codes are
    /// enumerated explicitly instead. Matching any variant as a
    /// consecutive code run implies a hit; completeness is exact.
    pub fn search_variants(&self, query: &[u16]) -> Vec<Vec<u16>> {
        let n = query.len();
        let mut variants: Vec<Vec<u16>> = Vec::new();
        variants.push(self.compress(query));
        if n == 1 {
            // the symbol may live inside any pair code containing it
            let s = query[0];
            for c in self
                .codes_ending(s)
                .into_iter()
                .chain(self.codes_starting(s))
            {
                variants.push(vec![c]);
            }
        } else {
            let absorb_first = self.enders.contains(&query[0]);
            let absorb_last = self.starters.contains(&query[n - 1]);
            if absorb_first {
                variants.push(self.compress(&query[1..]));
            }
            if absorb_last {
                variants.push(self.compress(&query[..n - 1]));
            }
            if absorb_first && absorb_last {
                if n > 2 {
                    variants.push(self.compress(&query[1..n - 1]));
                } else {
                    // both symbols absorbed into adjacent codes
                    for c1 in self.codes_ending(query[0]) {
                        for &c2 in &self.codes_starting(query[1]) {
                            variants.push(vec![c1, c2]);
                        }
                    }
                }
            }
        }
        variants.retain(|v| !v.is_empty());
        variants.sort_unstable();
        variants.dedup();
        variants
    }

    /// True if `query` occurs in the record whose compressed stream is
    /// `compressed` (complete: never misses; may over-report only when a
    /// dropped edge symbol differs — the lossy edge the paper accepts).
    pub fn search(&self, compressed: &[u16], query: &[u16]) -> bool {
        self.search_variants(query).iter().any(|v| {
            v.len() <= compressed.len() && compressed.windows(v.len()).any(|w| w == v.as_slice())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<u16> {
        s.bytes().map(u16::from).collect()
    }

    fn trained() -> PairCompressor {
        let sample: Vec<Vec<u16>> = [
            "MARTINEZ JOSE",
            "MARTIN MARIA",
            "ANDERSON AN",
            "CHAN ANTONIO",
            "SANTANA ANA",
        ]
        .iter()
        .map(|s| syms(s))
        .collect();
        PairCompressor::train(sample.iter().map(|v| v.as_slice()), 256, 16)
    }

    #[test]
    fn discipline_keeps_sets_disjoint() {
        let c = trained();
        assert!(c.num_pairs() > 0);
        assert!(
            c.starters.is_disjoint(&c.enders),
            "context-free discipline violated"
        );
    }

    #[test]
    fn compression_roundtrips() {
        let c = trained();
        for text in ["MARTINEZ JOSE", "AN AN AN", "XYZ", ""] {
            let s = syms(text);
            assert_eq!(c.decompress(&c.compress(&s)), s, "{text}");
        }
    }

    #[test]
    fn compression_shrinks_redundant_text() {
        let c = trained();
        let s = syms("MARTINEZ MARTINEZ MARTINEZ");
        assert!(c.compress(&s).len() < s.len());
    }

    #[test]
    fn compression_is_context_free() {
        // the image of a substring inside a larger text equals its own
        // compression, up to edge symbols
        let c = trained();
        let text = syms("XXMARTINEZ JOSEXX");
        let sub = syms("MARTINEZ JOSE");
        let ctext = c.compress(&text);
        let csub = c.compress(&sub);
        assert!(
            ctext.windows(csub.len()).any(|w| w == csub.as_slice()) || c.search(&ctext, &sub),
            "substring image must appear"
        );
    }

    #[test]
    fn search_finds_all_true_occurrences() {
        let c = trained();
        let records = [
            "MARTINEZ JOSE",
            "SANTANA ANA MARIA",
            "NOTHING HERE",
            "XXANDERSON",
        ];
        for query in ["MARTINEZ", "ANA", "ANDERSON", "AN"] {
            for rec in records {
                let compressed = c.compress(&syms(rec));
                if rec.contains(query) {
                    assert!(
                        c.search(&compressed, &syms(query)),
                        "missed {query:?} in {rec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn search_misses_are_honest_modulo_edges() {
        let c = trained();
        let compressed = c.compress(&syms("MARTINEZ JOSE"));
        assert!(!c.search(&compressed, &syms("QQQQ")));
        assert!(!c.search(&compressed, &syms("JOSEF")));
    }

    #[test]
    fn empty_and_single_symbol_inputs() {
        let c = trained();
        assert!(c.compress(&[]).is_empty());
        assert_eq!(c.compress(&[65]), vec![65]);
        // a symbol inside no pair has exactly the literal variant…
        assert_eq!(c.search_variants(&[0xF0]).len(), 1);
        // …while one inside pairs also gets the absorbing pair codes
        assert!(!c.search_variants(&[65]).is_empty());
    }
}
