//! Counting fixed-size grams over record streams.

use std::collections::HashMap;

/// Counts non-overlapping grams of a fixed size `g` taken from records at a
/// given offset. Partial grams at record boundaries are discarded, exactly
/// as the paper's experiments do ("in the first chunking, we deleted the
/// last, incomplete chunk, in the second one, we deleted the first
/// incomplete chunk", §7).
#[derive(Debug, Clone)]
pub struct GramCounter {
    g: usize,
    counts: HashMap<Vec<u16>, u64>,
}

impl GramCounter {
    /// Creates a counter for grams of `g` symbols. Panics if `g == 0`.
    pub fn new(g: usize) -> GramCounter {
        assert!(g > 0, "gram size must be positive");
        GramCounter {
            g,
            counts: HashMap::new(),
        }
    }

    /// Gram size.
    pub fn gram_size(&self) -> usize {
        self.g
    }

    /// Counts the non-overlapping grams of `symbols` starting at `offset`
    /// (symbols before the offset and any ragged tail are skipped).
    pub fn add_record(&mut self, symbols: &[u16], offset: usize) {
        if offset >= symbols.len() {
            return;
        }
        for gram in symbols[offset..].chunks_exact(self.g) {
            *self.counts.entry(gram.to_vec()).or_insert(0) += 1;
        }
    }

    /// Counts grams at every offset in `0..g` — "we then collect all these
    /// chunks" across chunkings (§7, Table 5 experiment).
    pub fn add_record_all_offsets(&mut self, symbols: &[u16]) {
        for offset in 0..self.g {
            self.add_record(symbols, offset);
        }
    }

    /// Number of distinct grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Grams sorted by descending count; ties broken by gram value so the
    /// build is deterministic.
    pub fn sorted_by_frequency(&self) -> Vec<(Vec<u16>, u64)> {
        let mut items: Vec<(Vec<u16>, u64)> =
            self.counts.iter().map(|(g, &c)| (g.clone(), c)).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<u16> {
        s.bytes().map(u16::from).collect()
    }

    /// Every counted gram with its count, most frequent first.
    fn counted(c: &GramCounter) -> Vec<(String, u64)> {
        c.sorted_by_frequency()
            .into_iter()
            .map(|(gram, n)| (gram.iter().map(|&s| char::from(s as u8)).collect(), n))
            .collect()
    }

    fn grams(expect: &[(&str, u64)]) -> Vec<(String, u64)> {
        expect.iter().map(|&(g, n)| (g.to_string(), n)).collect()
    }

    #[test]
    fn counts_single_symbols() {
        let mut c = GramCounter::new(1);
        c.add_record(&syms("AABA"), 0);
        assert_eq!(counted(&c), grams(&[("A", 3), ("B", 1)]));
    }

    #[test]
    fn offset_skips_prefix_and_ragged_tail() {
        let mut c = GramCounter::new(2);
        c.add_record(&syms("ABCDE"), 1);
        // grams: BC, DE (A skipped, no tail)
        assert_eq!(counted(&c), grams(&[("BC", 1), ("DE", 1)]));
    }

    #[test]
    fn tail_discarded() {
        let mut c = GramCounter::new(2);
        c.add_record(&syms("ABC"), 0);
        assert_eq!(counted(&c), grams(&[("AB", 1)]), "partial gram C dropped");
    }

    #[test]
    fn all_offsets_matches_paper_table5_example() {
        // "ABOGADO…" creates chunks [AB],[OG],… and [BO],[GA],…
        let mut c = GramCounter::new(2);
        c.add_record_all_offsets(&syms("ABOG"));
        // AB, OG, BO (GA ragged in offset-1)
        assert_eq!(counted(&c), grams(&[("AB", 1), ("BO", 1), ("OG", 1)]));
    }

    #[test]
    fn offset_beyond_record_is_noop() {
        let mut c = GramCounter::new(2);
        c.add_record(&syms("AB"), 5);
        assert_eq!(counted(&c), grams(&[]));
    }

    #[test]
    fn sorted_by_frequency_is_deterministic() {
        let mut c = GramCounter::new(1);
        c.add_record(&syms("BBAACD"), 0);
        let sorted = c.sorted_by_frequency();
        // A and B tie at 2 → lexicographic; C and D tie at 1 → lexicographic
        assert_eq!(sorted[0].0, syms("A"));
        assert_eq!(sorted[1].0, syms("B"));
        assert_eq!(sorted[2].0, syms("C"));
        assert_eq!(sorted[3].0, syms("D"));
    }
}
