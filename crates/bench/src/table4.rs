//! Table 4 — false positives after symbol-level encoding (FP1) and after
//! additional chunking with chunk size 2 (FP2).
//!
//! Paper setup (§7): 1000 random records; queries are the 1000 last names
//! of that sample; symbols are individually encoded into 8/16/32 codes
//! (Figure 5's assignment); FP1 counts encoded-substring hits that are not
//! raw substrings; FP2 additionally chunks the code stream into pairs at
//! both offsets (deleting partial chunks) and matches chunked series.
//! Variant (b) restricts the queries to last names longer than five
//! characters — which removes almost all false positives.

use crate::common::{corpus, fmt_chi2, ngram_counters};
use sdds_corpus::Record;
use sdds_encode::{Codebook, GramCounter};

/// One row (one code-alphabet size).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Code-alphabet size.
    pub encodings: usize,
    /// χ² of the encoded symbol stream (singles).
    pub chi2_single: f64,
    /// χ² doublets.
    pub chi2_double: f64,
    /// χ² triplets.
    pub chi2_triple: f64,
    /// False positives after symbol encoding alone.
    pub fp1: u64,
    /// False positives after encoding + chunk-size-2 chunking.
    pub fp2: u64,
}

/// The Table-4 artefact: (a) all queries, (b) long-name queries.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Sample size.
    pub entries: usize,
    /// Sample seed.
    pub seed: u64,
    /// Rows over all 1000 last-name queries.
    pub all: Vec<Table4Row>,
    /// Rows with queries restricted to names longer than 5 characters.
    pub long_names: Vec<Table4Row>,
}

/// True occurrence: the name occurs in the raw record content ("we did
/// not count the occurrence of ADAMS in ADAMSON as a false positive,
/// since the string occurs").
fn raw_contains(record: &Record, name: &str) -> bool {
    record.rc.contains(name)
}

/// Substring match on code streams.
fn codes_contain(haystack: &[u16], needle: &[u16]) -> bool {
    !needle.is_empty()
        && needle.len() <= haystack.len()
        && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Chunk a code stream into pairs starting at `offset`, dropping partial
/// chunks (the paper deletes them).
fn pair_chunks(codes: &[u16], offset: usize) -> Vec<(u16, u16)> {
    if offset >= codes.len() {
        return Vec::new();
    }
    codes[offset..]
        .chunks_exact(2)
        .map(|p| (p[0], p[1]))
        .collect()
}

/// FP2 hit: any query alignment's pair series occurs consecutively in any
/// record chunking.
fn chunked_hit(record_codes: &[u16], query_codes: &[u16]) -> bool {
    let record_chunkings = [pair_chunks(record_codes, 0), pair_chunks(record_codes, 1)];
    for drop in 0..2usize.min(query_codes.len()) {
        let series = pair_chunks(query_codes, drop);
        if series.is_empty() {
            continue;
        }
        for chunking in &record_chunkings {
            if chunking.len() >= series.len() && chunking.windows(series.len()).any(|w| w == series)
            {
                return true;
            }
        }
    }
    false
}

/// Counts FP1/FP2 for a set of queries.
fn count_fps(
    records: &[Record],
    encoded: &[Vec<u16>],
    book: &Codebook,
    queries: &[&str],
) -> (u64, u64) {
    let mut fp1 = 0u64;
    let mut fp2 = 0u64;
    for name in queries {
        let qsyms: Vec<u16> = name.bytes().map(u16::from).collect();
        let qcodes = book.encode_stream(&qsyms, 0);
        for (r, rcodes) in records.iter().zip(encoded.iter()) {
            let truth = raw_contains(r, name);
            if truth {
                continue;
            }
            if codes_contain(rcodes, &qcodes) {
                fp1 += 1;
            }
            if chunked_hit(rcodes, &qcodes) {
                fp2 += 1;
            }
        }
    }
    (fp1, fp2)
}

/// Runs the experiment for one code-alphabet size.
pub fn run_row(records: &[Record], encodings: usize) -> (Table4Row, Table4Row) {
    // symbol-level codebook trained on the sample itself (Figure 5 style)
    let mut counter = GramCounter::new(1);
    for r in records {
        counter.add_record(&r.symbols(), 0);
    }
    let book = Codebook::build_equalized(&counter, encodings);
    let encoded: Vec<Vec<u16>> = records
        .iter()
        .map(|r| book.encode_stream(&r.symbols(), 0))
        .collect();
    let (c1, c2, c3) = ngram_counters(encoded.iter().cloned(), encodings);
    let all_queries: Vec<&str> = records.iter().map(|r| r.last_name()).collect();
    let long_queries: Vec<&str> = all_queries
        .iter()
        .copied()
        .filter(|n| n.len() > 5)
        .collect();
    let (fp1_all, fp2_all) = count_fps(records, &encoded, &book, &all_queries);
    let (fp1_long, fp2_long) = count_fps(records, &encoded, &book, &long_queries);
    let base = Table4Row {
        encodings,
        chi2_single: c1.chi2_uniform(),
        chi2_double: c2.chi2_uniform(),
        chi2_triple: c3.chi2_uniform(),
        fp1: fp1_all,
        fp2: fp2_all,
    };
    let long = Table4Row {
        fp1: fp1_long,
        fp2: fp2_long,
        ..base.clone()
    };
    (base, long)
}

/// Runs the paper's grid (8/16/32 encodings).
pub fn run(entries: usize, seed: u64) -> Table4 {
    let records = corpus(entries, seed);
    let mut all = Vec::new();
    let mut long_names = Vec::new();
    for encodings in [8usize, 16, 32] {
        let (a, l) = run_row(&records, encodings);
        all.push(a);
        long_names.push(l);
    }
    Table4 {
        entries,
        seed,
        all,
        long_names,
    }
}

/// Renders the table in the paper's layout (`results/table4.txt`).
pub fn render(t: &Table4) -> String {
    let mut out = format!(
        "Table 4: False Positives after symbol encoding (FP1) and\n\
         after symbol encoding + chunking with chunk size = 2 (FP2)\n\
         ({} records, queries = their last names, seed {})\n",
        t.entries, t.seed
    );
    for (title, rows) in [
        ("(a) All entries", &t.all),
        ("(b) Names longer than 5 characters", &t.long_names),
    ] {
        out.push_str(&format!(
            "\n{title}\n  {:>3} | {:>12} | {:>12} | {:>12} | {:>7} | {:>7}\n",
            "En", "chi2 single", "chi2 double", "chi2 triple", "FP1", "FP2"
        ));
        for row in rows {
            out.push_str(&format!(
                "  {:>3} | {:>12} | {:>12} | {:>12} | {:>7} | {:>7}\n",
                row.encodings,
                fmt_chi2(row.chi2_single),
                fmt_chi2(row.chi2_double),
                fmt_chi2(row.chi2_triple),
                row.fp1,
                row.fp2
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table4 {
        run(400, 17)
    }

    #[test]
    fn more_encodings_fewer_fp1() {
        // paper: FP1 6,253 → 911 → 0 as encodings go 8 → 16 → 32
        let t = quick();
        for w in t.all.windows(2) {
            assert!(
                w[1].fp1 <= w[0].fp1,
                "FP1 must fall with more codes: {} !<= {}",
                w[1].fp1,
                w[0].fp1
            );
        }
        assert!(t.all[0].fp1 > t.all[2].fp1, "8 codes must out-FP 32 codes");
    }

    #[test]
    fn chunking_adds_false_positives() {
        // paper: FP2 > FP1 in every row (chunk-alignment hits like
        // ADAMS-in-DAMSTER)
        let t = quick();
        for row in &t.all {
            assert!(row.fp2 >= row.fp1, "row {row:?}");
        }
        assert!(
            t.all.iter().any(|r| r.fp2 > r.fp1),
            "chunking should add FPs somewhere: {:?}",
            t.all
        );
    }

    #[test]
    fn long_names_remove_almost_all_false_positives() {
        // paper (b): 24/41 vs 6,253/18,838 at 8 encodings
        let t = quick();
        for (a, l) in t.all.iter().zip(t.long_names.iter()) {
            assert!(
                l.fp1 * 10 <= a.fp1.max(10),
                "long-name FP1 {} not ≪ all FP1 {}",
                l.fp1,
                a.fp1
            );
        }
    }

    #[test]
    fn chi2_grows_with_code_count() {
        // fewer codes flatten better (paper: 1.49 → 1,175 → 11,759)
        let t = quick();
        for w in t.all.windows(2) {
            assert!(w[1].chi2_single > w[0].chi2_single);
        }
    }

    #[test]
    fn chunked_hit_reproduces_adams_damster() {
        // the paper's example: searching ADAMS hits DAMSTER via the
        // [DA][MS] alignment
        let a: Vec<u16> = "ADAMS".bytes().map(u16::from).collect();
        let d: Vec<u16> = "DAMSTER".bytes().map(u16::from).collect();
        // with the identity "encoding" (raw symbols) chunked in pairs:
        assert!(chunked_hit(&d, &a));
        // …but the unchunked substring match correctly misses
        assert!(!codes_contain(&d, &a));
    }
}
