//! Order statistics over the samples of one run.

/// The median (mean of the middle pair for an even count); zero when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentile of a sample set: the nearest-rank p99 when at
/// least ten samples lie beyond it, and otherwise (fewer than a thousand
/// samples) the maximum. Returns the value and the number of samples
/// beyond it.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
    let rank = if n - p99_rank >= 10 { p99_rank } else { n };
    (v[rank - 1], n - rank)
}

/// The value a run reports for a metric measured once per window: the
/// second-best window. Neighbour load on a shared host slows a process for
/// seconds to minutes at a time and never speeds it up, so a run's
/// least-disturbed windows repeat from run to run where its median does
/// not; the second best rather than the best keeps a single window from
/// setting the figure.
pub fn quiet(per_window: &[f64], lower_is_better: bool) -> f64 {
    let mut v = per_window.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// Arithmetic mean; zero when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_takes_the_second_best_window() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quiet(&v, true), 2.0);
        assert_eq!(quiet(&v, false), 4.0);
        assert_eq!(quiet(&[5.0], true), 5.0);
        assert_eq!(quiet(&[], false), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (1980.0, 20), "true p99 once the sample supports it");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 0), "too few samples for p99: the maximum");
        assert_eq!(tail(&[2.0, 7.0, 5.0]), (7.0, 0));
    }
}
