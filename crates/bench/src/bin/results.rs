//! Regenerates every file under the workspace's `results/`: Tables 1–5
//! and Figure 5 of the paper's evaluation, and the scaling series, each
//! from its fixed seed and size. It takes no arguments:
//!
//! ```sh
//! cargo run --release -p sdds-bench --bin results
//! ```
//!
//! Everything but `scaling.txt` (timings, and a bucket count that depends
//! on split timing) is byte-identical from run to run, so CI regenerates
//! the files and fails on any difference from the committed copies.

use sdds_bench::{
    figure5, scaling, table1, table2, table3, table4, table5, DEFAULT_SEED as SEED,
    PAPER_CORPUS_SIZE as CORPUS, PAPER_SAMPLE_SIZE as SAMPLE,
};
use std::path::Path;
use std::time::Instant;

/// Runs one experiment and renders its file.
type Render = fn() -> String;

/// Each file and the experiment that renders it.
const ARTEFACTS: [(&str, Render); 7] = [
    ("table1.txt", || table1::render(&table1::run(CORPUS, SEED))),
    ("table2.txt", || table2::render(&table2::run(CORPUS, SEED))),
    ("table3.txt", || table3::render(&table3::run(CORPUS, SEED))),
    ("table4.txt", || table4::render(&table4::run(SAMPLE, SEED))),
    ("table5.txt", || table5::render(&table5::run(SAMPLE, SEED))),
    ("figure5.txt", || {
        figure5::render(&figure5::run(SAMPLE, SEED, 8))
    }),
    ("scaling.txt", || scaling::render(&scaling::run(8000, SEED))),
];

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: results (no arguments; rewrites every file under results/)");
        std::process::exit(2);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, render) in ARTEFACTS {
        let t0 = Instant::now();
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, render()) {
            eprintln!("error: write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote results/{name} in {:.1} s",
            t0.elapsed().as_secs_f64()
        );
    }
}
