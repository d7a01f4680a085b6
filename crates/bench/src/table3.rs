//! Table 3 — χ² after redundancy removal alone (Stage 2).
//!
//! For chunk sizes 1, 2, 4, 6 and a sweep of code-alphabet sizes, the
//! record streams are grouped into chunks, the frequency-equalising
//! codebook is built, and the encoded streams' single/doublet/triplet χ²
//! are reported. The paper's headline behaviours: single-symbol χ² is
//! tiny whenever the number of distinct chunks well exceeds the number of
//! codes; doublet/triplet χ² stay large because "some chunks follow others
//! with much higher frequency" (SMIT → H); fewer codes flatten better but
//! conflate more.

use crate::common::{corpus, fmt_chi2, ngram_counters};
use sdds_corpus::Record;
use sdds_encode::{Codebook, GramCounter};

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Chunk size (symbols per encoded gram).
    pub chunk_size: usize,
    /// Code-alphabet size.
    pub encodings: usize,
    /// χ² of single codes.
    pub chi2_single: f64,
    /// χ² of code doublets.
    pub chi2_double: f64,
    /// χ² of code triplets.
    pub chi2_triple: f64,
    /// Distinct chunks observed at build time.
    pub distinct_chunks: usize,
}

/// The Table-3 artefact: rows grouped by chunk size.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Corpus size used.
    pub entries: usize,
    /// Corpus seed used.
    pub seed: u64,
    /// All rows, in (chunk size, encodings) order.
    pub rows: Vec<Table3Row>,
}

/// The paper's parameter grid.
pub fn paper_grid() -> Vec<(usize, Vec<usize>)> {
    vec![
        (1, vec![2, 4, 8, 16]),
        (2, vec![8, 16, 32, 64, 128]),
        (4, vec![16, 32, 64, 128]),
        (6, vec![16, 32, 64, 128]),
    ]
}

/// Runs one cell of the table.
pub fn run_cell(records: &[Record], chunk_size: usize, encodings: usize) -> Table3Row {
    // group all symbols into chunks of the given size (offset 0, ragged
    // tail dropped — §7's procedure) and equalise
    let mut counter = GramCounter::new(chunk_size);
    for r in records {
        counter.add_record(&r.symbols(), 0);
    }
    let distinct_chunks = counter.distinct();
    let book = Codebook::build_equalized(&counter, encodings);
    let streams = records.iter().map(|r| book.encode_stream(&r.symbols(), 0));
    let (c1, c2, c3) = ngram_counters(streams, encodings);
    Table3Row {
        chunk_size,
        encodings,
        chi2_single: c1.chi2_uniform(),
        chi2_double: c2.chi2_uniform(),
        chi2_triple: c3.chi2_uniform(),
        distinct_chunks,
    }
}

/// Runs the full grid.
pub fn run(entries: usize, seed: u64) -> Table3 {
    let records = corpus(entries, seed);
    let mut rows = Vec::new();
    for (chunk_size, encoding_list) in paper_grid() {
        for encodings in encoding_list {
            rows.push(run_cell(&records, chunk_size, encodings));
        }
    }
    Table3 {
        entries,
        seed,
        rows,
    }
}

/// Renders the table in the paper's layout, one block per chunk size
/// (`results/table3.txt`).
pub fn render(t: &Table3) -> String {
    let mut out = format!(
        "Table 3: chi^2-values after Pre-Processing (redundancy removal)\n\
         ({} entries, seed {})\n",
        t.entries, t.seed
    );
    let mut current_cs = 0;
    for row in &t.rows {
        if row.chunk_size != current_cs {
            current_cs = row.chunk_size;
            out.push_str(&format!(
                "\nChunk Size = {current_cs}\n  {:>8} | {:>14} | {:>14} | {:>14} | {:>9}\n",
                "# encod.", "chi2 single", "chi2 double", "chi2 triple", "# chunks"
            ));
        }
        out.push_str(&format!(
            "  {:>8} | {:>14} | {:>14} | {:>14} | {:>9}\n",
            row.encodings,
            fmt_chi2(row.chi2_single),
            fmt_chi2(row.chi2_double),
            fmt_chi2(row.chi2_triple),
            row.distinct_chunks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table3 {
        run(3_000, 13)
    }

    #[test]
    fn single_chi2_tiny_when_chunks_dwarf_codes() {
        let t = quick();
        // chunk size 4, 16 codes: thousands of distinct chunks spread over
        // 16 buckets → near-perfect balance (paper: 0.00006)
        let row = t
            .rows
            .iter()
            .find(|r| r.chunk_size == 4 && r.encodings == 16)
            .unwrap();
        assert!(row.distinct_chunks > 16 * 10);
        assert!(
            row.chi2_single < 1.0,
            "χ² single {} too big",
            row.chi2_single
        );
    }

    #[test]
    fn equalisation_fails_when_codes_exceed_symbols() {
        // chunk size 1 with 16 codes but only ~28 symbols: the paper's
        // cs=1/enc=16 row explodes (352,565); ours must also blow up
        // relative to the balanced cells.
        let t = quick();
        let bad = t
            .rows
            .iter()
            .find(|r| r.chunk_size == 1 && r.encodings == 16)
            .unwrap();
        let good = t
            .rows
            .iter()
            .find(|r| r.chunk_size == 1 && r.encodings == 2)
            .unwrap();
        assert!(
            bad.chi2_single > 100.0 * good.chi2_single.max(0.01),
            "cs1/enc16 {} vs cs1/enc2 {}",
            bad.chi2_single,
            good.chi2_single
        );
    }

    #[test]
    fn higher_orders_keep_structure() {
        // doublet χ² ≫ single χ² in every balanced cell — the inter-chunk
        // predictability the paper highlights
        let t = quick();
        for row in t.rows.iter().filter(|r| r.chi2_single < 1.0) {
            assert!(
                row.chi2_double > row.chi2_single * 10.0,
                "row {row:?} lost inter-chunk structure"
            );
        }
    }

    #[test]
    fn more_codes_leak_more_at_fixed_chunk_size() {
        // within a chunk-size group, doublet χ² grows with the code count
        // (the paper's rows are monotone in every group)
        let t = quick();
        for cs in [2usize, 4, 6] {
            let group: Vec<&Table3Row> = t.rows.iter().filter(|r| r.chunk_size == cs).collect();
            for w in group.windows(2) {
                assert!(
                    w[1].chi2_double > w[0].chi2_double,
                    "cs={cs}: {} !> {}",
                    w[1].chi2_double,
                    w[0].chi2_double
                );
            }
        }
    }

    #[test]
    fn address_extended_records_are_the_favourable_case() {
        // §7: the name-only directory "is a very bad case for our scheme"
        // — the paper wanted address fields but could not decode them.
        // With our extended corpus the chunk population at the
        // recommended chunk size 6 is much richer, so the encoded stream
        // is flatter per observation.
        use sdds_corpus::DirectoryGenerator;
        let gen = DirectoryGenerator::new(13);
        let plain = gen.generate(3_000);
        let extended = gen.generate_with_addresses(3_000);
        let cell_plain = run_cell(&plain, 6, 64);
        let cell_ext = run_cell(&extended, 6, 64);
        assert!(
            cell_ext.distinct_chunks > cell_plain.distinct_chunks * 2,
            "addresses should multiply the chunk population: {} vs {}",
            cell_ext.distinct_chunks,
            cell_plain.distinct_chunks
        );
        // per-observation doublet structure shrinks with the richer corpus
        let plain_obs = plain.iter().map(|r| r.rc.len() / 6).sum::<usize>() as f64;
        let ext_obs = extended.iter().map(|r| r.rc.len() / 6).sum::<usize>() as f64;
        let plain_rate = cell_plain.chi2_double / plain_obs;
        let ext_rate = cell_ext.chi2_double / ext_obs;
        assert!(
            ext_rate < plain_rate,
            "favourable case not favourable: {ext_rate} !< {plain_rate}"
        );
    }

    #[test]
    fn larger_chunks_reduce_interchunk_predictability() {
        // at a fixed code count, larger chunks absorb more context:
        // triplet χ² at cs=6 below cs=2 (paper: 2.3M vs 193.8M at 128)
        let t = quick();
        let cs2 = t
            .rows
            .iter()
            .find(|r| r.chunk_size == 2 && r.encodings == 128)
            .unwrap();
        let cs6 = t
            .rows
            .iter()
            .find(|r| r.chunk_size == 6 && r.encodings == 128)
            .unwrap();
        assert!(
            cs6.chi2_triple < cs2.chi2_triple,
            "cs6 {} !< cs2 {}",
            cs6.chi2_triple,
            cs2.chi2_triple
        );
    }
}
