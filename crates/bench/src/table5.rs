//! Table 5 — false positives after two-symbol chunk encoding.
//!
//! Paper setup (§7): the same 1000-record sample, but now two-symbol
//! chunks are encoded into 8/16/32/64 codes ("ABOGADO…" → `[AB],[OG],…`
//! and `[BO],[GA],…`; "we then collect all these chunks and encode them"). The
//! record is represented by its two encoded chunk streams; a query chunks
//! at both offsets too. Chunking created no *additional* false positives
//! here, so the table has a single FP column. The last row (64 codes = 6
//! bits per 2 symbols) compresses at the same rate as Table 4's last row.

use crate::common::{corpus, fmt_chi2, ngram_counters};
use sdds_corpus::Record;
use sdds_encode::{Codebook, GramCounter};

/// One row (one code-alphabet size).
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Code-alphabet size.
    pub encodings: usize,
    /// χ² of the encoded chunk stream (singles).
    pub chi2_single: f64,
    /// χ² doublets.
    pub chi2_double: f64,
    /// χ² triplets.
    pub chi2_triple: f64,
    /// False positives across all queries.
    pub fp: u64,
}

/// The Table-5 artefact: (a) all queries, (b) long-name queries.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Sample size.
    pub entries: usize,
    /// Sample seed.
    pub seed: u64,
    /// Rows over all last-name queries.
    pub all: Vec<Table5Row>,
    /// Rows with queries restricted to names longer than 5 characters.
    pub long_names: Vec<Table5Row>,
}

/// Encoded chunk streams of a symbol stream at offsets 0 and 1 (partial
/// chunks deleted, as in the paper).
fn chunk_streams(book: &Codebook, symbols: &[u16]) -> [Vec<u16>; 2] {
    [
        book.encode_stream(symbols, 0),
        book.encode_stream(symbols, 1),
    ]
}

/// Hit: any query alignment's code series occurs in any record stream.
fn hit(record_streams: &[Vec<u16>; 2], query_streams: &[Vec<u16>; 2]) -> bool {
    for series in query_streams {
        if series.is_empty() {
            continue;
        }
        for stream in record_streams {
            if stream.len() >= series.len() && stream.windows(series.len()).any(|w| w == series) {
                return true;
            }
        }
    }
    false
}

fn count_fps(
    records: &[Record],
    streams: &[[Vec<u16>; 2]],
    book: &Codebook,
    queries: &[&str],
) -> u64 {
    let mut fp = 0u64;
    for name in queries {
        let qsyms: Vec<u16> = name.bytes().map(u16::from).collect();
        let qstreams = chunk_streams(book, &qsyms);
        for (r, rstreams) in records.iter().zip(streams.iter()) {
            if r.rc.contains(name) {
                continue;
            }
            if hit(rstreams, &qstreams) {
                fp += 1;
            }
        }
    }
    fp
}

/// Runs one row.
pub fn run_row(records: &[Record], encodings: usize) -> (Table5Row, Table5Row) {
    let mut counter = GramCounter::new(2);
    for r in records {
        counter.add_record_all_offsets(&r.symbols());
    }
    let book = Codebook::build_equalized(&counter, encodings);
    let streams: Vec<[Vec<u16>; 2]> = records
        .iter()
        .map(|r| chunk_streams(&book, &r.symbols()))
        .collect();
    let (c1, c2, c3) = ngram_counters(streams.iter().flat_map(|s| s.iter().cloned()), encodings);
    let all_queries: Vec<&str> = records.iter().map(|r| r.last_name()).collect();
    let long_queries: Vec<&str> = all_queries
        .iter()
        .copied()
        .filter(|n| n.len() > 5)
        .collect();
    let base = Table5Row {
        encodings,
        chi2_single: c1.chi2_uniform(),
        chi2_double: c2.chi2_uniform(),
        chi2_triple: c3.chi2_uniform(),
        fp: count_fps(records, &streams, &book, &all_queries),
    };
    let long = Table5Row {
        fp: count_fps(records, &streams, &book, &long_queries),
        ..base.clone()
    };
    (base, long)
}

/// Runs the paper's grid (8/16/32/64 encodings).
pub fn run(entries: usize, seed: u64) -> Table5 {
    let records = corpus(entries, seed);
    let mut all = Vec::new();
    let mut long_names = Vec::new();
    for encodings in [8usize, 16, 32, 64] {
        let (a, l) = run_row(&records, encodings);
        all.push(a);
        long_names.push(l);
    }
    Table5 {
        entries,
        seed,
        all,
        long_names,
    }
}

/// Renders the table in the paper's layout (`results/table5.txt`).
pub fn render(t: &Table5) -> String {
    let mut out = format!(
        "Table 5: False Positives after chunk encoding (2-symbol chunks)\n\
         ({} records, queries = their last names, seed {})\n",
        t.entries, t.seed
    );
    for (title, rows) in [
        ("(a) All entries", &t.all),
        ("(b) Last names longer than 5 characters", &t.long_names),
    ] {
        out.push_str(&format!(
            "\n{title}\n  {:>3} | {:>12} | {:>12} | {:>12} | {:>7}\n",
            "Enc", "chi2 single", "chi2 double", "chi2 triple", "FP"
        ));
        for row in rows {
            out.push_str(&format!(
                "  {:>3} | {:>12} | {:>12} | {:>12} | {:>7}\n",
                row.encodings,
                fmt_chi2(row.chi2_single),
                fmt_chi2(row.chi2_double),
                fmt_chi2(row.chi2_triple),
                row.fp
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table5 {
        run(400, 17)
    }

    #[test]
    fn fp_falls_with_more_encodings() {
        // paper: 31,648 → 15,588 → 7,968 → 3,857
        let t = quick();
        for w in t.all.windows(2) {
            assert!(w[1].fp <= w[0].fp, "{} !<= {}", w[1].fp, w[0].fp);
        }
        assert!(t.all[0].fp > t.all[3].fp);
    }

    #[test]
    fn chunk_encoding_flattens_better_than_symbol_encoding() {
        // paper: Table 5 single χ² (0.002 at 8 codes) far below Table 4's
        // (1.49): thousands of distinct 2-grams spread over few codes.
        let t = quick();
        let t4 = crate::table4::run(400, 17);
        for (r5, r4) in t.all.iter().zip(t4.all.iter()) {
            assert!(
                r5.chi2_single < r4.chi2_single,
                "enc={}: {} !< {}",
                r5.encodings,
                r5.chi2_single,
                r4.chi2_single
            );
        }
    }

    #[test]
    fn long_names_remove_most_fps() {
        // paper (b): 859/96/13/2 vs 31,648/15,588/7,968/3,857
        let t = quick();
        for (a, l) in t.all.iter().zip(t.long_names.iter()) {
            assert!(l.fp * 5 <= a.fp.max(5), "long {} vs all {}", l.fp, a.fp);
        }
    }

    #[test]
    fn higher_order_chi2_grows_with_codes() {
        let t = quick();
        for w in t.all.windows(2) {
            assert!(w[1].chi2_triple > w[0].chi2_triple);
        }
    }

    #[test]
    fn coarser_grain_costs_more_false_positives() {
        // paper's cross-table observation: at the same compression rate
        // (Table 4 enc=32 ↔ Table 5 enc=64… i.e. "n possible encodings in
        // Table 4 correspond to 2n possible encodings in Table 5"), the
        // chunk-grain scheme has more FPs but better flatness.
        let t5 = quick();
        let t4 = crate::table4::run(400, 17);
        let t4_row = t4.all.iter().find(|r| r.encodings == 32).unwrap();
        let t5_row = t5.all.iter().find(|r| r.encodings == 64).unwrap();
        assert!(t5_row.fp >= t4_row.fp1, "{} !>= {}", t5_row.fp, t4_row.fp1);
        assert!(t5_row.chi2_single < t4_row.chi2_single);
    }
}
