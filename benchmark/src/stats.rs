//! Order statistics the reported numbers rest on.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of samples in any order.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Median with the two middle values averaged on an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value reported for a time, given its estimate over every slice of
/// every repetition: `by_rep[r][i]` is the estimate over slice `i` of
/// repetition `r`.
///
/// The repetitions of a run replay one seeded history on fresh stores, so
/// slice `i` does the same work in each of them, seconds apart. What
/// disturbs a run on a shared machine slows it, for a stretch of seconds;
/// it does not speed it up. Each slice therefore counts at its quiet
/// value, the lowest fifth (nearest rank: the smallest of up to five
/// repetitions, the second smallest of six to ten) of what its
/// repetitions read, and the run's value is the median over the slices.
/// A cost the program pays every time is in every repetition of a slice
/// and stays in the estimate; a cost it pays in some part of its history
/// only (a file grown large, a split) stays too, because no slice stands
/// in for another.
pub fn quiet(by_rep: &[Vec<f64>]) -> f64 {
    let positions = by_rep.iter().map(Vec::len).min().unwrap_or(0);
    assert!(positions > 0, "no slice that every repetition has");
    let at_rest: Vec<f64> = (0..positions)
        .map(|i| {
            let reads: Vec<f64> = by_rep.iter().map(|rep| rep[i]).collect();
            percentile_of(&reads, 0.2)
        })
        .collect();
    median(&at_rest)
}

/// `samples`, in the order they were taken, as `n` equal consecutive runs
/// (the last may be shorter). A metric is estimated per slice, see
/// [`quiet`].
pub fn slices<T>(samples: &[T], n: usize) -> std::slice::Chunks<'_, T> {
    samples.chunks(samples.len().div_ceil(n.max(1)).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // five samples: p50 is the third, p90 the fifth
        assert_eq!(percentile_of(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile_of(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9), 5.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slices_are_consecutive_and_cover_everything() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let parts: Vec<&[f64]> = slices(&v, 4).collect();
        assert_eq!(parts, vec![&v[0..3], &v[3..6], &v[6..9], &v[9..10]]);
        assert_eq!(slices(&v, 1).count(), 1);
        assert_eq!(slices::<f64>(&[], 4).count(), 0);
    }

    #[test]
    fn quiet_takes_each_slice_where_no_neighbour_slowed_it() {
        // three slices of a history whose last part costs more; six
        // repetitions, a slow stretch over most of four of them
        let by_rep = vec![
            vec![50.0, 51.0, 80.0],
            vec![75.0, 77.0, 120.0],
            vec![74.0, 51.5, 81.0],
            vec![50.5, 76.0, 119.0],
            vec![76.0, 78.0, 118.0],
            vec![49.0, 50.0, 79.0],
        ];
        // per slice the second smallest of six: 50, 51, 80
        assert_eq!(quiet(&by_rep), 51.0);
        // a cost every repetition pays stays in the estimate
        let slower: Vec<Vec<f64>> = by_rep
            .iter()
            .map(|rep| rep.iter().map(|v| v + 5.0).collect())
            .collect();
        assert_eq!(quiet(&slower), 56.0);
        // up to five repetitions: the smallest per slice (49, 50, 79)
        assert_eq!(quiet(&by_rep[2..]), 50.0);
        // one repetition: the median of its slices
        assert_eq!(quiet(&by_rep[..1]), 51.0);
    }

    #[test]
    fn one_slow_slice_moves_the_tail_pooled_but_not_the_median_of_slices() {
        // 4 slices of 100; the third holds a burst of slow samples
        let mut samples: Vec<f64> = (0..400).map(|i| 10.0 + f64::from(i % 10)).collect();
        for x in &mut samples[200..300] {
            *x += 1000.0;
        }
        let per_slice: Vec<f64> = slices(&samples, 4)
            .map(|s| percentile_of(s, 0.99))
            .collect();
        assert_eq!(median(&per_slice), 19.0);
        assert!(percentile_of(&samples, 0.99) > 1000.0);
        // a cost every slice pays is not noise: it stays in the estimate
        let slower: Vec<f64> = per_slice.iter().map(|v| v + 5.0).collect();
        assert_eq!(median(&slower), 24.0);
    }
}
