//! Table 1 — χ² values and top n-grams of the raw directory.
//!
//! Paper: χ² single 2,071,885 / doublets 10,725,271 / triplets 40,450,503
//! on 282,965 entries; top letters A (11.1%), E, N, R, I, O; top doublets
//! AN, ER, AR, ON, IN; top triplets CHA, MAR, SON, ONG, ANG.

use crate::common::{corpus, gram_display, ngram_counters, render_chi2, DenseAlphabet};

/// The Table-1 artefact.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Corpus size used.
    pub entries: usize,
    /// Corpus seed used.
    pub seed: u64,
    /// Observed alphabet size (χ² categories for singles).
    pub alphabet: usize,
    /// χ² of single letters vs uniform.
    pub chi2_single: f64,
    /// χ² of doublets vs uniform.
    pub chi2_double: f64,
    /// χ² of triplets vs uniform.
    pub chi2_triple: f64,
    /// Most frequent letters with relative frequency.
    pub top_letters: Vec<(String, f64)>,
    /// Most frequent doublets.
    pub top_doublets: Vec<(String, f64)>,
    /// Most frequent triplets.
    pub top_triplets: Vec<(String, f64)>,
}

/// Runs the experiment.
pub fn run(entries: usize, seed: u64) -> Table1 {
    let records = corpus(entries, seed);
    let alpha = DenseAlphabet::from_records(&records);
    let (c1, c2, c3) = ngram_counters(
        records.iter().map(|r| alpha.encode(&r.symbols())),
        alpha.len(),
    );
    let display = |dense_gram: &[u16]| {
        let raw: Vec<u16> = dense_gram
            .iter()
            .map(|&d| alpha.symbol_of(d).expect("dense code maps back"))
            .collect();
        gram_display(&raw)
    };
    Table1 {
        entries,
        seed,
        alphabet: alpha.len(),
        chi2_single: c1.chi2_uniform(),
        chi2_double: c2.chi2_uniform(),
        chi2_triple: c3.chi2_uniform(),
        top_letters: c1.top(8).iter().map(|(g, f)| (display(g), *f)).collect(),
        top_doublets: c2.top(5).iter().map(|(g, f)| (display(g), *f)).collect(),
        top_triplets: c3.top(5).iter().map(|(g, f)| (display(g), *f)).collect(),
    }
}

/// Renders the table in the paper's layout (`results/table1.txt`).
pub fn render(t: &Table1) -> String {
    let mut out = format!(
        "Table 1: chi^2-values for the synthetic SF Phone Directory\n\
         ({} entries, seed {}, alphabet {} symbols)\n\n",
        t.entries, t.seed, t.alphabet
    );
    out.push_str(&render_chi2(t.chi2_single, t.chi2_double, t.chi2_triple));
    for grams in [&t.top_letters, &t.top_doublets, &t.top_triplets] {
        out.push('\n');
        for (g, f) in grams {
            out.push_str(&format!("  {g:<4} | {:>6.2}%\n", f * 100.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_corpus_is_grossly_non_uniform() {
        let t = run(5_000, 7);
        // the paper's point: raw text fails uniformity catastrophically,
        // and higher orders fail harder
        assert!(t.chi2_single > 1_000.0, "single χ² {}", t.chi2_single);
        assert!(t.chi2_double > t.chi2_single);
        assert!(t.chi2_triple > t.chi2_double);
    }

    #[test]
    fn top_letters_match_paper_shape() {
        let t = run(20_000, 7);
        let letters: Vec<&str> = t.top_letters.iter().map(|(g, _)| g.as_str()).collect();
        // space dominates (names contain separators), then vowel-heavy
        // letters; A must be in the top 4 like the paper's 11.1%
        assert!(letters[..4].contains(&"A"), "top letters {letters:?}");
        // frequencies descending
        for w in t.top_letters.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(2_000, 5);
        let b = run(2_000, 5);
        assert_eq!(a.chi2_single, b.chi2_single);
        assert_eq!(a.top_triplets, b.top_triplets);
    }
}
