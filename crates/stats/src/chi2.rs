//! χ² goodness-of-fit against the uniform distribution.
//!
//! This is the paper's primary evaluation metric (Tables 1–5): for `N`
//! observations in `k` equiprobable categories with expected count
//! `E = N/k`, `χ² = Σ_i (O_i - E)² / E` summed over **all** k categories,
//! including the never-observed ones (each contributes `E`).

use crate::special::igamc;

/// χ² of observed counts against uniform over `k` categories.
///
/// `counts` enumerates only the non-zero categories; absent categories are
/// accounted for in closed form, so triplet alphabets of millions of
/// categories cost nothing extra.
pub fn chi2_uniform_from_counts<I: IntoIterator<Item = u64>>(counts: I, total: u64, k: u64) -> f64 {
    if total == 0 || k == 0 {
        return 0.0;
    }
    let expected = total as f64 / k as f64;
    // Sum in sorted order: callers often feed hash-map values, whose
    // iteration order varies per process; sorting keeps the floating-point
    // sum bit-for-bit reproducible for a given seed.
    let mut counts: Vec<u64> = counts.into_iter().collect();
    counts.sort_unstable();
    let nonzero_categories = counts.len() as u64;
    let mut stat = 0.0;
    for c in counts {
        let d = c as f64 - expected;
        stat += d * d / expected;
    }
    // each empty category contributes (0 - E)^2 / E = E
    let empty = k.saturating_sub(nonzero_categories);
    stat + empty as f64 * expected
}

/// χ² of a dense histogram against uniform.
pub fn chi2_uniform(histogram: &[u64]) -> f64 {
    let total: u64 = histogram.iter().sum();
    chi2_uniform_from_counts(
        histogram.iter().copied().filter(|&c| c > 0),
        total,
        histogram.len() as u64,
    )
}

/// Upper-tail p-value of a χ² statistic with `df` degrees of freedom,
/// `Q(df/2, x/2)` via the regularised incomplete gamma function.
pub fn chi2_pvalue(stat: f64, df: f64) -> f64 {
    if stat <= 0.0 {
        return 1.0;
    }
    igamc(df / 2.0, stat / 2.0)
}

/// A χ² report for one symbol stream: the single/doublet/triplet statistics
/// the paper tabulates, with their degrees of freedom.
#[derive(Debug, Clone)]
pub struct Chi2Report {
    /// χ² over single symbols.
    pub single: f64,
    /// χ² over doublets.
    pub double: f64,
    /// χ² over triplets.
    pub triple: f64,
    /// Alphabet size the statistics were computed against.
    pub alphabet: usize,
    /// Total single-symbol observations.
    pub observations: u64,
}

impl Chi2Report {
    /// Computes the three statistics over a set of records.
    pub fn from_records<'a, I>(records: I, alphabet: usize) -> Chi2Report
    where
        I: IntoIterator<Item = &'a [u16]> + Clone,
    {
        use crate::ngram::NgramCounter;
        let mut c1 = NgramCounter::new(1, alphabet);
        let mut c2 = NgramCounter::new(2, alphabet);
        let mut c3 = NgramCounter::new(3, alphabet);
        for r in records {
            c1.add_record(r);
            c2.add_record(r);
            c3.add_record(r);
        }
        Chi2Report {
            single: c1.chi2_uniform(),
            double: c2.chi2_uniform(),
            triple: c3.chi2_uniform(),
            alphabet,
            observations: c1.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_histogram_scores_zero() {
        assert_eq!(chi2_uniform(&[10, 10, 10, 10]), 0.0);
    }

    #[test]
    fn known_small_example() {
        // counts [8, 12] over 2 categories: E = 10, chi2 = (4+4)/10 = 0.8
        assert!((chi2_uniform(&[8, 12]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let hist = [5u64, 0, 3, 0, 0, 12, 1, 0];
        let total: u64 = hist.iter().sum();
        let dense = chi2_uniform(&hist);
        let sparse = chi2_uniform_from_counts(
            hist.iter().copied().filter(|&c| c > 0),
            total,
            hist.len() as u64,
        );
        assert!((dense - sparse).abs() < 1e-9);
    }

    #[test]
    fn empty_input_scores_zero() {
        assert_eq!(chi2_uniform(&[]), 0.0);
        assert_eq!(chi2_uniform(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn huge_category_count_is_cheap_and_correct() {
        // 3 observations of one gram among 2^24 categories
        let k = 1u64 << 24;
        let stat = chi2_uniform_from_counts([3u64], 3, k);
        let e = 3.0 / k as f64;
        let expect = (3.0 - e) * (3.0 - e) / e + (k - 1) as f64 * e;
        assert!((stat - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn pvalue_sane_bounds() {
        // df=1: stat 3.84 ~ p 0.05
        let p = chi2_pvalue(3.841, 1.0);
        assert!((p - 0.05).abs() < 0.002, "p={p}");
        // df=10: stat 18.31 ~ p 0.05
        let p = chi2_pvalue(18.307, 10.0);
        assert!((p - 0.05).abs() < 0.002, "p={p}");
        assert_eq!(chi2_pvalue(0.0, 5.0), 1.0);
        assert!(chi2_pvalue(1e6, 5.0) < 1e-12);
    }

    #[test]
    fn report_over_records() {
        let r1: Vec<u16> = vec![0, 1, 2, 3];
        let r2: Vec<u16> = vec![3, 2, 1, 0];
        let rep = Chi2Report::from_records([r1.as_slice(), r2.as_slice()], 4);
        assert_eq!(rep.observations, 8);
        assert!(rep.single.abs() < 1e-9, "uniform singles");
        assert!(rep.double > 0.0, "doublets are not uniform here");
    }
}
