//! Figure 5 — the frequency-ordered encoding assignment for 8 codes.
//!
//! Re-derives the paper's assignment table: symbols of a 1000-record
//! sample, counted, sorted by frequency, greedily assigned to the lightest
//! of eight buckets.

use crate::common::corpus;
use sdds_encode::{Codebook, GramCounter};

/// One assignment row of the figure.
#[derive(Debug, Clone)]
pub struct Figure5Row {
    /// The symbol (display form; `␣` for space).
    pub symbol: String,
    /// Its occurrence count in the sample.
    pub quantity: u64,
    /// The code bucket it was assigned.
    pub encoding: u16,
}

/// The Figure-5 artefact.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Sample size.
    pub entries: usize,
    /// Sample seed.
    pub seed: u64,
    /// Code-alphabet size.
    pub encodings: usize,
    /// Rows in descending frequency order.
    pub rows: Vec<Figure5Row>,
    /// Total frequency load per bucket.
    pub bucket_loads: Vec<u64>,
}

/// Runs the experiment.
pub fn run(entries: usize, seed: u64, encodings: usize) -> Figure5 {
    let records = corpus(entries, seed);
    let mut counter = GramCounter::new(1);
    for r in &records {
        counter.add_record(&r.symbols(), 0);
    }
    let book = Codebook::build_equalized(&counter, encodings);
    let rows = book
        .assignments()
        .iter()
        .map(|(gram, count, code)| Figure5Row {
            symbol: crate::common::gram_display(gram),
            quantity: *count,
            encoding: *code,
        })
        .collect();
    Figure5 {
        entries,
        seed,
        encodings,
        rows,
        bucket_loads: book.bucket_loads(),
    }
}

/// Renders the assignment table in the paper's layout
/// (`results/figure5.txt`).
pub fn render(f: &Figure5) -> String {
    let mut out = format!(
        "Figure 5: Encoding Assignment for {} possible encodings\n\
         ({} records, seed {})\n\n  {:<8} | {:>8} | {:>8}\n",
        f.encodings, f.entries, f.seed, "Symbol", "Quantity", "Encoding"
    );
    for row in &f.rows {
        out.push_str(&format!(
            "  {:<8} | {:>8} | {:>8}\n",
            row.symbol, row.quantity, row.encoding
        ));
    }
    out.push_str(&format!("\nBucket loads: {:?}\n", f.bucket_loads));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_matches_paper() {
        let f = run(1000, 3, 8);
        // descending quantities
        for w in f.rows.windows(2) {
            assert!(w[0].quantity >= w[1].quantity);
        }
        // the first eight symbols get codes 0..8 in order (paper: space=0,
        // A=1, E=2, …)
        for (i, row) in f.rows.iter().take(8).enumerate() {
            assert_eq!(row.encoding as usize, i, "row {row:?}");
        }
        // space and A are the two most frequent symbols in a directory
        let first_two: Vec<&str> = f.rows[..2].iter().map(|r| r.symbol.as_str()).collect();
        assert!(first_two.contains(&"␣"), "{first_two:?}");
        assert!(first_two.contains(&"A"), "{first_two:?}");
    }

    #[test]
    fn loads_are_nearly_balanced() {
        let f = run(1000, 3, 8);
        let max = *f.bucket_loads.iter().max().unwrap() as f64;
        let min = *f.bucket_loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "loads {:?}", f.bucket_loads);
    }
}
