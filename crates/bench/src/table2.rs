//! Table 2 — χ² after dispersion alone.
//!
//! Paper setup (§7): "We broke the record in chunks of length one and
//! dispersed each record into four dispersion records using our method
//! with a random non-singular matrix. Thus, a dispersion record contained
//! one symbol of length 2b for each 8b symbol in the original record."
//! Reported: χ² single 178,849 / doublets 335,796 / triplets 486,790 and
//! the share frequencies 0: 33.5%, 1: 26.9%, 2: 21.8%, 3: 17.7%.

use crate::common::{corpus, ngram_counters, render_chi2};
use sdds_disperse::{DispersalConfig, Disperser};

/// The Table-2 artefact.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Corpus size used.
    pub entries: usize,
    /// Corpus (and dispersal matrix) seed used.
    pub seed: u64,
    /// χ² of single 2-bit shares vs uniform (4 categories).
    pub chi2_single: f64,
    /// χ² of share doublets vs uniform (16 categories).
    pub chi2_double: f64,
    /// χ² of share triplets vs uniform (64 categories).
    pub chi2_triple: f64,
    /// Relative frequency of the shares 0..=3, descending.
    pub share_frequencies: Vec<(u16, f64)>,
    /// Top share doublets.
    pub top_doublets: Vec<(String, f64)>,
}

/// Runs the experiment: 8-bit symbols dispersed 1:4 into 2-bit shares.
pub fn run(entries: usize, seed: u64) -> Table2 {
    let records = corpus(entries, seed);
    let disperser = Disperser::from_seed(
        DispersalConfig::new(8, 4).expect("8-bit chunks over 4 sites"),
        seed,
    );
    // each record yields 4 dispersion records (one per site)
    let streams = records.iter().flat_map(|r| {
        let chunks: Vec<u128> = r.symbols().iter().map(|&s| u128::from(s)).collect();
        disperser.disperse_record(&chunks).into_iter()
    });
    let (c1, c2, c3) = ngram_counters(streams, 4);
    let mut share_frequencies: Vec<(u16, f64)> =
        c1.top(4).into_iter().map(|(g, f)| (g[0], f)).collect();
    share_frequencies.sort_by(|a, b| b.1.total_cmp(&a.1));
    Table2 {
        entries,
        seed,
        chi2_single: c1.chi2_uniform(),
        chi2_double: c2.chi2_uniform(),
        chi2_triple: c3.chi2_uniform(),
        share_frequencies,
        top_doublets: c2
            .top(4)
            .into_iter()
            .map(|(g, f)| (format!("{}{}", g[0], g[1]), f))
            .collect(),
    }
}

/// Renders the table in the paper's layout (`results/table2.txt`).
pub fn render(t: &Table2) -> String {
    let mut out = format!(
        "Table 2: chi^2-values after Dispersion (1 symbol -> 4 x 2-bit shares)\n\
         ({} entries, seed {})\n\n",
        t.entries, t.seed
    );
    out.push_str(&render_chi2(t.chi2_single, t.chi2_double, t.chi2_triple));
    out.push('\n');
    for (share, f) in &t.share_frequencies {
        out.push_str(&format!("  {share}  | {:>6.2}%\n", f * 100.0));
    }
    out.push('\n');
    for (g, f) in &t.top_doublets {
        out.push_str(&format!("  {g} | {:>6.2}%\n", f * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1;

    #[test]
    fn dispersion_reduces_chi2_but_not_to_uniform() {
        // The paper's finding: "this particular matrix (nor any other we
        // tested) did not achieve an even distribution … However, the
        // decrease in the χ²-values as compared to [the raw corpus] is
        // encouraging."
        let raw = table1::run(5_000, 9);
        let dispersed = run(5_000, 9);
        assert!(
            dispersed.chi2_single > 10.0,
            "still skewed: {}",
            dispersed.chi2_single
        );
        assert!(
            dispersed.chi2_triple < raw.chi2_triple,
            "dispersion should shrink higher-order structure: {} vs {}",
            dispersed.chi2_triple,
            raw.chi2_triple
        );
    }

    #[test]
    fn share_frequencies_are_skewed_and_ordered() {
        let t = run(5_000, 9);
        assert_eq!(t.share_frequencies.len(), 4);
        let total: f64 = t.share_frequencies.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // descending and not uniform (paper: 33.5% vs 17.7%)
        assert!(t.share_frequencies[0].1 > 0.25);
        assert!(t.share_frequencies[3].1 < 0.25);
    }

    #[test]
    fn higher_orders_stay_worse() {
        let t = run(3_000, 11);
        assert!(t.chi2_double > t.chi2_single);
        assert!(t.chi2_triple > t.chi2_double);
    }
}
