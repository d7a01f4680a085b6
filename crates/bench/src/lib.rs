//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§6–§7) on the synthetic SF-style directory.
//!
//! Each `tableN` module computes the corresponding artefact with `run` and
//! prints it in the paper's layout with `render`; the one binary,
//! `results`, writes every rendering under the workspace's `results/`.
//! Absolute numbers differ from the paper (its corpus is proprietary; ours
//! is a calibrated synthetic equivalent — see DESIGN.md §5), but the
//! *shape* — orderings, monotonicity in chunk size and code count, where
//! false positives come from — is the reproduction target and is asserted
//! by this crate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod figure5;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// Number of entries in the paper's SF White Pages extract.
pub const PAPER_CORPUS_SIZE: usize = 282_965;

/// Records the paper samples for Tables 4–5 and Figure 5.
pub const PAPER_SAMPLE_SIZE: usize = 1000;

/// Default seed for all experiments (reports record it).
pub const DEFAULT_SEED: u64 = 20060403; // ICDE 2006, Atlanta, April 3-7

#[cfg(test)]
mod tests {
    use super::*;

    /// `results/` is diffed in CI, so every rendering must be a function
    /// of its seed and size alone.
    #[test]
    fn every_artefact_renders_identically_per_seed() {
        type Render = fn() -> String;
        let renders: [(&str, Render); 6] = [
            ("table1", || table1::render(&table1::run(2_000, 5))),
            ("table2", || table2::render(&table2::run(3_000, 11))),
            ("table3", || table3::render(&table3::run(3_000, 13))),
            ("table4", || table4::render(&table4::run(400, 17))),
            ("table5", || table5::render(&table5::run(400, 17))),
            ("figure5", || figure5::render(&figure5::run(1000, 3, 8))),
        ];
        for (name, render) in renders {
            assert_eq!(render(), render(), "{name} differs between two runs");
        }
    }
}
