//! Shared plumbing for the table experiments.

use sdds_corpus::{DirectoryGenerator, Record};
use sdds_stats::NgramCounter;
use std::collections::BTreeMap;

/// Generates the experiment corpus.
pub fn corpus(n: usize, seed: u64) -> Vec<Record> {
    DirectoryGenerator::new(seed).generate(n)
}

/// A dense re-mapping of the symbols actually occurring in the corpus
/// (the paper computes χ² over the directory's own alphabet — capitals,
/// space, `&` — not over all 256 byte values).
#[derive(Debug, Clone)]
pub struct DenseAlphabet {
    map: BTreeMap<u16, u16>,
}

impl DenseAlphabet {
    /// Builds the alphabet from a corpus.
    pub fn from_records(records: &[Record]) -> DenseAlphabet {
        let mut map = BTreeMap::new();
        for r in records {
            for s in r.symbols() {
                let next = map.len() as u16;
                map.entry(s).or_insert(next);
            }
        }
        DenseAlphabet { map }
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no symbols were observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Re-encodes a symbol stream densely.
    pub fn encode(&self, symbols: &[u16]) -> Vec<u16> {
        symbols.iter().map(|s| self.map[s]).collect()
    }

    /// The original symbol for a dense code (for display).
    pub fn symbol_of(&self, dense: u16) -> Option<u16> {
        self.map
            .iter()
            .find_map(|(&sym, &d)| (d == dense).then_some(sym))
    }
}

/// Counts 1..=3-grams of a set of symbol streams over `alphabet` symbols
/// and returns the three counters.
pub fn ngram_counters(
    streams: impl Iterator<Item = Vec<u16>>,
    alphabet: usize,
) -> (NgramCounter, NgramCounter, NgramCounter) {
    let mut c1 = NgramCounter::new(1, alphabet);
    let mut c2 = NgramCounter::new(2, alphabet);
    let mut c3 = NgramCounter::new(3, alphabet);
    for s in streams {
        c1.add_record(&s);
        c2.add_record(&s);
        c3.add_record(&s);
    }
    (c1, c2, c3)
}

/// Formats an n-gram of raw byte symbols for display ("AN", "CHA", …).
pub fn gram_display(gram: &[u16]) -> String {
    gram.iter()
        .map(|&s| {
            let b = s as u8;
            if b == b' ' {
                '␣'
            } else {
                char::from(b)
            }
        })
        .collect()
}

/// The χ² block Tables 1 and 2 open with.
pub fn render_chi2(single: f64, double: f64, triple: f64) -> String {
    format!(
        "  chi^2 (Single Letter) | {:>12}\n  chi^2 (Doublets)      | {:>12}\n  \
         chi^2 (Triplets)      | {:>12}\n",
        fmt_chi2(single),
        fmt_chi2(double),
        fmt_chi2(triple)
    )
}

/// Thousands-separated float formatting used by the table renderings.
pub fn fmt_chi2(x: f64) -> String {
    if x >= 1000.0 {
        let int = x.round() as u64;
        let mut s = String::new();
        let digits = int.to_string();
        for (i, ch) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i).is_multiple_of(3) {
                s.push(',');
            }
            s.push(ch);
        }
        s
    } else if x >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_alphabet_roundtrips() {
        let records = corpus(100, 1);
        let alpha = DenseAlphabet::from_records(&records);
        assert!(
            alpha.len() > 10 && alpha.len() <= 30,
            "alphabet {}",
            alpha.len()
        );
        for r in records.iter().take(10) {
            let dense = alpha.encode(&r.symbols());
            assert!(dense.iter().all(|&d| (d as usize) < alpha.len()));
            // decode back
            let back: Vec<u16> = dense.iter().map(|&d| alpha.symbol_of(d).unwrap()).collect();
            assert_eq!(back, r.symbols());
        }
    }

    #[test]
    fn fmt_chi2_shapes() {
        assert_eq!(fmt_chi2(2_071_885.4), "2,071,885");
        assert_eq!(fmt_chi2(97.13), "97.1");
        assert_eq!(fmt_chi2(0.005), "0.005000");
    }

    #[test]
    fn gram_display_marks_space() {
        assert_eq!(gram_display(&[65, 32, 66]), "A␣B");
    }
}
