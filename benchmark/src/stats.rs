//! The arithmetic every reported number goes through: percentiles,
//! medians and means over repetitions, and the quartile spread the
//! acceptance rule is stated in.

/// The `q`-quantile (0..=1) of an ascending slice by nearest rank:
/// the smallest sample with at least `q` of the samples at or below
/// it. Nearest rank never invents a value between two modes, which
/// matters for latencies that cluster on timer ticks.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v
}

/// The median: mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so spreads printed here match the ones the acceptance
/// rule computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the run-to-run
/// spread. 0 for fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Mean after dropping the ⌊n/4⌋ lowest and ⌊n/4⌋ highest values.
/// Between the median (which jumps by the whole gap when the values
/// come in two clusters) and the mean (which one stalled repetition
/// drags along): it averages the clusters and ignores the stall.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of an empty sample");
    let v = sorted(values);
    let trim = v.len() / 4;
    let kept = &v[trim..v.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Percentile `q` of each group (one group per repetition; empty
/// groups are skipped), then the [`trimmed_mean`] over groups. Returns
/// it with the number of groups that contributed. The percentile
/// inside a group shrugs off that group's stalls; the trimmed mean
/// across groups averages what differs from one monitor instance to
/// the next.
pub fn mean_of_percentiles(groups: &[Vec<f64>], q: f64) -> Option<(f64, usize)> {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile_sorted(&sorted(g), q))
        .collect();
    if per_group.is_empty() {
        None
    } else {
        Some((trimmed_mean(&per_group), per_group.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 0.99), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_a_quarter_from_each_end() {
        assert_eq!(trimmed_mean(&[5.0]), 5.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0, "n = 3 trims nothing");
        assert_eq!(trimmed_mean(&[1.0, 2.0, 4.0, 100.0]), 3.0);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 1.0, 4.0, 0.0]), 2.5);
        assert_eq!(trimmed_mean(&[8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 4.5);
    }

    #[test]
    fn mean_of_percentiles_resists_stalls_inside_and_across_groups() {
        // Five repetitions. The second has a stall that moves 30% of
        // its samples to 50 ms: its p50 does not move. The fifth is
        // stalled throughout: the trim drops it.
        let clean: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) / 100.0).collect();
        let mut stalled = clean.clone();
        for v in stalled.iter_mut().skip(70) {
            *v = 50.0;
        }
        let groups = vec![
            clean.clone(),
            stalled,
            clean.clone(),
            Vec::new(),
            clean.clone(),
            vec![80.0; 100],
        ];
        let (p50, n) = mean_of_percentiles(&groups, 0.5).unwrap();
        assert_eq!(n, 5, "the empty repetition is skipped");
        assert!((p50 - 1.49).abs() < 1e-9, "p50 {p50}");
        // p90: the trim drops one stalled repetition, not both.
        let (p90, _) = mean_of_percentiles(&groups, 0.9).unwrap();
        assert!((p90 - (1.89 + 1.89 + 50.0) / 3.0).abs() < 1e-9, "p90 {p90}");
        assert!(mean_of_percentiles(&[Vec::new()], 0.5).is_none());
    }

    #[test]
    fn mean_of_percentiles_averages_two_valued_groups() {
        // Monitors land in one of two latency modes; the trimmed mean
        // over six moves in quarters of the gap, the median would jump
        // by half or all of it.
        let mode = |v: f64| vec![v; 10];
        let groups = vec![
            mode(0.4),
            mode(0.5),
            mode(0.4),
            mode(0.5),
            mode(0.5),
            mode(0.5),
        ];
        let (p50, _) = mean_of_percentiles(&groups, 0.5).unwrap();
        assert!((p50 - 0.475).abs() < 1e-12);
    }
}
